//! The concurrent middleware service — SIEVE as a shared `&self` object.
//!
//! The paper positions SIEVE as middleware that many queriers hit
//! *simultaneously*; [`SieveService`] is that deployment shape in code.
//! It is `Send + Sync` and cheaply clonable (all state behind one `Arc`),
//! and the **entire read/query path** — [`SieveService::rewrite`],
//! [`SieveService::execute`], [`SieveService::execute_sql`] — takes
//! `&self`, so any number of connection threads drive one service
//! concurrently. Mutation ([`SieveService::add_policy`],
//! [`SieveService::with_backend_mut`], …) also goes through `&self`,
//! serialized by the write sides of the internal locks.
//!
//! # Internal locking
//!
//! State is split so the warm path shares everything:
//!
//! * policy store, group directory, options, protected set — each behind
//!   its own `RwLock` (read-mostly; `add_policy` takes the store's write
//!   lock only to append); the cost model is fixed at construction and
//!   held by value, with no lock;
//! * the [`GuardCache`] is sharded — a warm hit takes one shard's *read*
//!   lock (see [`crate::cache`]);
//! * the backend sits behind a `RwLock<B>`: queries execute under the
//!   read lock (engines execute through `&self`), out-of-band mutation
//!   takes the write lock and bumps the **backend epoch**, so guards
//!   generated before the write are detectably stale;
//! * ∆ partitions are reference-counted
//!   ([`crate::delta::PartitionHandle`]) so invalidation can never free a
//!   partition a concurrent query still references.
//!
//! Lock order (outer → inner): `build claim → store → groups → backend →
//! cache shard`. Options and the protected set are snapshotted and
//! released before any of those is taken; the ∆ registry is a leaf. Cache
//! closures never take other locks.
//!
//! The service takes the backend *write* lock only for a caller's
//! [`SieveService::with_backend_mut`] and writes nothing to the backend
//! itself, apart from installing the ∆ UDF at construction: policies and
//! guards live in memory, so a policy insert or a cold build leaves
//! [`Database::version`] — and every statement pinned under it — alone.
//!
//! # Single-flight build
//!
//! A cache entry is one artefact — the expression queries run under plus
//! its compiled fragment — and the service has exactly one way to bring a
//! `(querier, purpose, relation)` key current (`build`), taken when a
//! lookup's warm shard read missed: claim the key via
//! [`GuardCache::begin_generation`], re-check it, and bring it current one
//! of two ways:
//!
//! * a **placement** — pending policies on an entry built under the
//!   current backend epoch and `delta_mode`: they join the cached
//!   expression where Algorithm 1 would put them, if none shares a guard
//!   condition with (or has a range overlapping) the policies it covers
//!   ([`crate::guard::placement`]); any pending policy that does turns it
//!   into a generation;
//! * a **generation** — no entry, a trailing backend epoch, a moved
//!   `delta_mode`, nothing to place into (an owner-only selection), or a
//!   placement that was not exact. It runs Algorithm 1 over the querier's
//!   relevant policies.
//!
//! Either expression is then `finish`ed — proved, compiled, the fragment
//! proved — and published. A placement compiles with the entry's own
//! partitions already in its seed ([`FragmentCompileCache::seeded`]), so
//! only the new branches are built and bound.
//! Everything cold runs under the claim, so N sessions missing the same
//! key at once cost one generation, one compile, one set of ∆
//! registrations and one proof; the rest park until the claim drops,
//! re-check, and leave with the published entry (counted in
//! [`GuardCacheStats::coalesced`]).
//!
//! # Consistency under concurrent `add_policy`
//!
//! A build has one publish point and holds the store's and the group
//! directory's *read* locks from before it reads a policy until after
//! that publish. `add_policy` appends under the store's *write* lock,
//! then sweeps the cache marking affected keys outdated. The lock forces
//! one of two orders: either the build read the store after the append
//! (its expression already covers the new policy), or it published
//! before the append completed — in which case the sweep, which runs
//! strictly after the append, finds the entry and marks it. A generation
//! publishes by replacing the entry. A placement read the entry's pending
//! list before the build took the store lock, so a policy appended and
//! swept in after that read is in neither the store the build saw nor the
//! list it placed: it publishes only over the entry it read — the same
//! expression and the same pending list — and, swept, evicted or replaced
//! meanwhile, retries. A
//! query that *starts* after `add_policy` returns can therefore never
//! run under a guard that silently misses the policy; queries already in
//! flight linearize before it, exactly like a query racing a policy
//! insert on a single thread.
//!
//! Per-querier state lives in [`crate::session::Session`] handles (the
//! object a wire server would hand each connection), and
//! [`crate::session::Prepared`] pins a compiled rewrite for repeated
//! execution with zero cache traffic while fresh.

use crate::analyze;
use crate::backend::{BackendError, SqlBackend, StatementId};
use crate::cache::{GuardCache, GuardCacheKey, GuardCacheStats};
use crate::cost::CostModel;
use crate::delta::DeltaRegistry;
use crate::filter::{policy_applies, GroupDirectory};
use crate::guard::{
    guards_over, place_grants, CarriedConditions, GuardSelectionStrategy, GuardableConditions,
    GuardedExpression,
};
use crate::options::SieveOptions;
use crate::policy::{Policy, PolicyId, QueryMetadata};
use crate::rewrite::{
    collect_protected, compile_guard_fragment, rewrite_query,
    CompiledRelation, FragmentCompileCache, RewriteOutput,
};
use crate::error::{SieveError, SieveResult};
use crate::store::PolicyStore;
use crate::visitor::calls_udf;
use minidb::catalog::TableEntry;
use minidb::error::DbError;
use minidb::exec::ExecOptions;
use minidb::plan::SelectQuery;
use minidb::{Database, QueryResult};
use parking_lot::{RwLock, RwLockReadGuard};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Retries of a retryable backend operation after its first attempt.
const MAX_RETRIES: u32 = 3;
/// The backoff before retry `n` is `BASE_BACKOFF × 2^(n−1)`, capped at
/// [`MAX_BACKOFF`].
const BASE_BACKOFF: Duration = Duration::from_micros(200);
/// Upper bound on one backoff sleep.
const MAX_BACKOFF: Duration = Duration::from_millis(5);
/// Wall-clock budget across all attempts of one operation.
const RETRY_BUDGET: Duration = Duration::from_secs(1);

/// Internal atomics behind [`RecoveryStats`].
#[derive(Default)]
pub(crate) struct RecoveryCounters {
    retries: AtomicU64,
    reconnects: AtomicU64,
    reprepares: AtomicU64,
    exhausted: AtomicU64,
}

/// Counters for the fault-recovery machinery, the recovery-side
/// complement of [`GuardCacheStats`]. Snapshot via
/// [`SieveService::recovery_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Retry attempts issued after a retryable backend error (each sleep
    /// of the backoff schedule counts once).
    pub retries: u64,
    /// Connection-loss events observed; each one bumps the backend epoch
    /// so every prepared plan re-prepares against the fresh connection.
    pub reconnects: u64,
    /// Prepared-plan rebuilds (staleness- or error-triggered) across all
    /// sessions of this service.
    pub reprepares: u64,
    /// Operations that still failed after exhausting the retry budget.
    pub exhausted: u64,
}

/// What a cold build reads: borrows of the locks its caller holds (taken
/// store → groups → backend) and of the caller's config snapshot.
struct ColdBuild<'a> {
    store: &'a PolicyStore,
    groups: &'a GroupDirectory,
    backend: &'a dyn SqlBackend,
    delta: &'a Arc<DeltaRegistry>,
    opts: &'a SieveOptions,
    cost: &'a CostModel,
}

impl ColdBuild<'_> {
    /// Algorithm 1 over the policies relevant to `qm` on `relation`: the
    /// guarded expression, with the guard conditions its policies carry
    /// for a later placement (`None` where nothing can be placed: an
    /// owner-only selection, or a policy with no guardable condition).
    fn generate(
        &self,
        qm: &QueryMetadata,
        relation: &str,
        table: &TableEntry,
    ) -> (GuardedExpression, Option<CarriedConditions>) {
        let relevant = self.store.relevant(relation, qm, self.groups);
        let conditions = GuardableConditions::collect(&relevant, table);
        let selection = self.opts.selection;
        let expr = GuardedExpression {
            relation: relation.to_string(),
            querier: qm.querier,
            purpose: qm.purpose.clone(),
            guards: guards_over(&conditions, &relevant, table, self.cost, selection),
        };
        let placeable = selection == GuardSelectionStrategy::CostOptimal;
        (expr, placeable.then(|| conditions.carried_by(&relevant)).flatten())
    }

    /// The tail of every cold build, generated or placed: prove the
    /// expression, compile its fragment (reusing the partitions `seed`
    /// holds), prove the fragment. The only
    /// producer of cache entries, so none is ever half-built, and with
    /// `verify_rewrites` on none is unproven. Warm lookups never come
    /// here, so steady-state verification overhead is zero. Refuted
    /// hard-fails (the rewrite would widen); Unknown is audit-tooling
    /// territory, not a query failure.
    fn finish(
        &self,
        qm: &QueryMetadata,
        expr: Arc<GuardedExpression>,
        seed: &FragmentCompileCache,
    ) -> SieveResult<CompiledRelation> {
        let refuted = |verdict| match verdict {
            analyze::Verdict::Refuted { witness } => Err(SieveError::SoundnessRefuted {
                relation: expr.relation.clone(),
                querier: qm.querier,
                witness: analyze::render_witness(&witness),
            }),
            _ => Ok(()),
        };
        // Only the policies the expression names: every one is in the
        // store (policies are never removed).
        let by_id: HashMap<PolicyId, &Policy> = expr
            .guards
            .iter()
            .flat_map(|g| &g.policies)
            .filter_map(|id| Some((*id, self.store.get(*id)?)))
            .collect();
        let allowed = self
            .opts
            .verify_rewrites
            .then(|| self.store.relevant(&expr.relation, qm, self.groups));
        if let Some(allowed) = &allowed {
            refuted(analyze::verify_guarded_expression(&expr, &by_id, allowed))?;
        }
        let fragment = compile_guard_fragment(
            self.backend,
            self.delta,
            &expr,
            &by_id,
            self.cost,
            self.opts.rewrite.delta_mode,
            seed,
        )?;
        if let Some(allowed) = &allowed {
            refuted(analyze::verify_fragment(&fragment, &expr, &by_id, allowed))?;
        }
        Ok(CompiledRelation {
            expr,
            fragment: Arc::new(fragment),
        })
    }
}

fn cache_key(qm: &QueryMetadata, relation: &str) -> GuardCacheKey {
    (qm.querier, qm.purpose.clone(), relation.to_string())
}

/// What a build reads of a cached entry it brings current.
struct Outdated {
    /// The policies swept into the entry since it was built.
    pending: Vec<PolicyId>,
    /// What queries run under now: placed into, and the seed of the
    /// placement's fragment compilation.
    current: CompiledRelation,
    /// The backend epoch the entry was built under.
    epoch: u64,
}

/// How a stale cache entry is brought current.
enum Build {
    /// No usable entry: generate from the store.
    Generate,
    /// Pending policies on an entry built under the current backend epoch
    /// and `delta_mode`: place them into its expression if that is exact
    /// ([`crate::guard::placement`]), else generate.
    Place(Outdated, Arc<CarriedConditions>),
}

/// Everything one service instance shares across its clones, sessions and
/// prepared statements.
pub(crate) struct ServiceShared<B: SqlBackend> {
    pub(crate) backend: RwLock<B>,
    /// Backend write-epoch: bumped on every mutable backend access, so
    /// guards generated before an out-of-band write are detectably stale.
    pub(crate) backend_epoch: AtomicU64,
    /// Policy/configuration revision: bumped by `add_policy`, `protect`,
    /// option/group mutation and `invalidate_all`. A
    /// [`crate::session::Prepared`] plan records the revision it was
    /// built under and transparently re-prepares when it trails.
    pub(crate) revision: AtomicU64,
    pub(crate) store: RwLock<PolicyStore>,
    pub(crate) groups: RwLock<GroupDirectory>,
    pub(crate) cost: CostModel,
    pub(crate) options: RwLock<SieveOptions>,
    pub(crate) delta: Arc<DeltaRegistry>,
    pub(crate) cache: GuardCache,
    pub(crate) protected: RwLock<HashSet<String>>,
    pub(crate) recovery: RecoveryCounters,
}

/// The concurrent SIEVE middleware handle. Clones share all state; see
/// the [module docs](self) for the locking design.
pub struct SieveService<B: SqlBackend = Database> {
    pub(crate) inner: Arc<ServiceShared<B>>,
}

impl<B: SqlBackend> Clone for SieveService<B> {
    fn clone(&self) -> Self {
        SieveService {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl SieveService<Database> {
    /// [`SieveService::with_backend`] over an in-process database, the
    /// default backend.
    pub fn new(db: Database, options: SieveOptions) -> SieveResult<Self> {
        Self::with_backend(db, options)
    }

    /// [`SieveService::backend`] under the in-process backend's own name.
    pub fn db(&self) -> RwLockReadGuard<'_, Database> {
        self.backend()
    }

    /// [`SieveService::with_backend_mut`] under the in-process backend's
    /// own name (e.g. for loading data).
    pub fn with_db_mut<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        self.with_backend_mut(f)
    }
}

impl<B: SqlBackend> SieveService<B> {
    /// Wrap an arbitrary execution backend. Installs the ∆ UDF, the one
    /// write the service makes to a backend on its own.
    pub fn with_backend(mut backend: B, options: SieveOptions) -> SieveResult<Self> {
        let delta = DeltaRegistry::new();
        delta.install(&mut backend);
        Ok(SieveService {
            inner: Arc::new(ServiceShared {
                backend: RwLock::new(backend),
                backend_epoch: AtomicU64::new(0),
                revision: AtomicU64::new(0),
                store: RwLock::new(PolicyStore::new()),
                groups: RwLock::new(GroupDirectory::new()),
                cost: CostModel::default(),
                options: RwLock::new(options),
                delta,
                cache: GuardCache::new(),
                protected: RwLock::new(HashSet::new()),
                recovery: RecoveryCounters::default(),
            }),
        })
    }

    /// A per-querier session handle carrying `qm` for every call.
    pub fn session(&self, qm: QueryMetadata) -> crate::session::Session<B> {
        crate::session::Session::new(self.clone(), qm)
    }

    /// Read access to the execution backend (holds the backend read
    /// lock). Do not call back into the service while holding the guard: a
    /// writer queued behind it would deadlock the re-entrant read.
    pub fn backend(&self) -> RwLockReadGuard<'_, B> {
        self.inner.backend.read()
    }

    /// Run `f` with mutable backend access. Takes the backend write lock
    /// — waits for in-flight queries — and bumps the backend epoch: any
    /// cached guard generated before this access is treated as stale and
    /// regenerated on its next use.
    pub fn with_backend_mut<R>(&self, f: impl FnOnce(&mut B) -> R) -> R {
        let mut backend = self.inner.backend.write();
        self.inner.backend_epoch.fetch_add(1, Ordering::SeqCst);
        self.inner.revision.fetch_add(1, Ordering::SeqCst);
        f(&mut backend)
    }

    /// The current backend write-epoch (observability/tests).
    pub fn backend_epoch(&self) -> u64 {
        self.inner.backend_epoch.load(Ordering::SeqCst)
    }

    /// The current policy/configuration revision (observability; prepared
    /// statements re-prepare when it moves).
    pub fn revision(&self) -> u64 {
        self.inner.revision.load(Ordering::SeqCst)
    }

    /// Read access to the group directory (holds its read lock).
    pub fn groups(&self) -> RwLockReadGuard<'_, GroupDirectory> {
        self.inner.groups.read()
    }

    /// Run `f` with mutable access to the group directory, then drop
    /// every cached guarded expression and bump the revision: a membership
    /// change alters which group policies apply to a querier, so guards
    /// generated under the old directory would keep narrowing (or
    /// widening) what the querier sees. Generators hold the directory's
    /// read lock across their cache publish, so every entry built from
    /// the old membership is in the cache by the time the sweep runs.
    pub fn with_groups_mut<R>(&self, f: impl FnOnce(&mut GroupDirectory) -> R) -> R {
        let out = f(&mut self.inner.groups.write());
        self.invalidate_all();
        out
    }

    /// Run `f` with mutable access to the options (e.g. to force a
    /// strategy between runs). Bumps the revision so prepared statements
    /// re-prepare under the new options; a moved `selection` also drops
    /// every cached guarded expression, as each was selected under the old
    /// one. A moved `delta_mode` needs no sweep: the next read of an entry
    /// compiled under another mode regenerates it, which also heals a
    /// build that read the old options and published after this returns.
    pub fn with_options_mut<R>(&self, f: impl FnOnce(&mut SieveOptions) -> R) -> R {
        let mut options = self.inner.options.write();
        let selection = options.selection;
        let out = f(&mut options);
        self.inner.revision.fetch_add(1, Ordering::SeqCst);
        let reselect = options.selection != selection;
        drop(options);
        if reselect {
            self.invalidate_all();
        }
        out
    }

    /// Read access to the policy store (holds its read lock; take it
    /// before [`SieveService::groups`], never after).
    pub fn store(&self) -> RwLockReadGuard<'_, PolicyStore> {
        self.inner.store.read()
    }

    /// Snapshot of the registered policies (clones; oracle/test use).
    pub fn policies(&self) -> Vec<Policy> {
        self.inner.store.read().iter().cloned().collect()
    }

    /// Register a policy in the in-memory store and mark the guarded
    /// expressions it affects outdated; the backend is not touched. See the
    /// module docs for why a query starting after this returns can never
    /// miss the policy.
    pub fn add_policy(&self, policy: Policy) -> SieveResult<PolicyId> {
        let (id, stored) = {
            let mut store = self.inner.store.write();
            let id = store.add(policy);
            let stored = store
                .get(id)
                .ok_or(SieveError::Internal("policy vanished under write lock"))?
                .clone();
            (id, stored)
        };
        self.inner.protected.write().insert(stored.relation.clone());
        // Outdate exactly the cached expressions the policy affects (the
        // precise invalidation path of Section 6's delta machinery).
        {
            let groups = self.inner.groups.read();
            self.inner
                .cache
                .invalidate_where(id, |(querier, purpose, relation)| {
                    *relation == stored.relation && {
                        let qm = QueryMetadata::new(*querier, purpose.clone());
                        policy_applies(&stored, &qm, &groups)
                    }
                });
        }
        self.inner.revision.fetch_add(1, Ordering::SeqCst);
        Ok(id)
    }

    /// Bulk registration.
    pub fn add_policies(&self, policies: impl IntoIterator<Item = Policy>) -> SieveResult<()> {
        for p in policies {
            self.add_policy(p)?;
        }
        Ok(())
    }

    /// Drop all cached guarded expressions; their ∆ partitions are freed
    /// as the last in-flight pins drop.
    pub fn invalidate_all(&self) {
        self.inner.cache.clear();
        self.inner.revision.fetch_add(1, Ordering::SeqCst);
    }

    /// Guard-cache counters (hits, misses, invalidations, fragment work).
    pub fn cache_stats(&self) -> GuardCacheStats {
        self.inner.cache.stats()
    }

    /// Guarded-expression generations published (observability).
    pub fn generations(&self) -> u64 {
        self.cache_stats().generations()
    }

    /// Live ∆ partitions (observability: cached fragments keep theirs
    /// registered; precise invalidation must keep this bounded).
    pub fn delta_len(&self) -> usize {
        self.inner.delta.len()
    }

    /// Declare a relation access-controlled even before any policy exists
    /// for it. Under the opt-out default (Section 3.1) a protected
    /// relation with no applicable policies yields **no rows**.
    /// [`SieveService::add_policy`] protects the policy's relation
    /// implicitly.
    pub fn protect(&self, relation: impl Into<String>) {
        self.inner.protected.write().insert(relation.into());
        self.inner.revision.fetch_add(1, Ordering::SeqCst);
    }

    fn snapshot_config(&self) -> (SieveOptions, CostModel) {
        (self.inner.options.read().clone(), self.inner.cost)
    }

    /// Read `key`'s entry: its compiled relation if it can serve as it is,
    /// else how to bring it current. An entry whose backend epoch trails
    /// was built against data (or a schema) mutated out of band since, and
    /// one compiled under another `delta_mode` holds the other mode's
    /// partitions: both regenerate, as does one with pending policies and
    /// nothing to place them into. One shard read lock.
    fn lookup(&self, key: &GuardCacheKey, opts: &SieveOptions) -> Result<CompiledRelation, Build> {
        let read = self.inner.cache.read(key, |c| {
            if c.epoch != self.inner.backend_epoch.load(Ordering::SeqCst)
                || c.compiled.fragment.delta_mode != opts.rewrite.delta_mode
            {
                Err(Build::Generate)
            } else if c.pending.is_empty() {
                Ok(c.compiled.clone())
            } else if let Some(carried) = &c.carried {
                let o = Outdated {
                    pending: c.pending.clone(),
                    current: c.compiled.clone(),
                    epoch: c.epoch,
                };
                Err(Build::Place(o, Arc::clone(carried)))
            } else {
                Err(Build::Generate)
            }
        });
        read.unwrap_or(Err(Build::Generate))
    }

    /// The one way a `(querier, purpose, relation)` key is brought current
    /// and read: the compiled relation (effective expression + rewrite
    /// fragment) queries run under. Warm, that is one shard read lock;
    /// cold, it is [`Self::build`].
    fn current_relation(
        &self,
        qm: &QueryMetadata,
        relation: &str,
        opts: &SieveOptions,
        cost: &CostModel,
    ) -> SieveResult<CompiledRelation> {
        if let Ok(compiled) = self.lookup(&cache_key(qm, relation), opts) {
            self.inner.cache.record_hit();
            return Ok(compiled);
        }
        self.build(qm, relation, opts, cost)
    }

    /// The one cold path: bring `relation`'s key for `qm` current and
    /// return its compiled relation. The whole build — place or generate,
    /// then [`ColdBuild::finish`] — runs under the key's single-flight
    /// claim and publishes the entry once (module docs). An error
    /// publishes nothing and drops the claim.
    /// Superseded fragments free their ∆ partitions once the last
    /// in-flight query drops its pin.
    fn build(
        &self,
        qm: &QueryMetadata,
        relation: &str,
        opts: &SieveOptions,
        cost: &CostModel,
    ) -> SieveResult<CompiledRelation> {
        let cache = &self.inner.cache;
        let key = cache_key(qm, relation);
        loop {
            // Single-flight: losers of a race park here until the winner's
            // claim drops, then find its entry on the re-check.
            let _claim = cache.begin_generation(&key);
            let how = match self.lookup(&key, opts) {
                Ok(fresh) => {
                    cache.record_coalesced();
                    cache.record_hit();
                    return Ok(fresh);
                }
                Err(how) => how,
            };
            // Store and groups stay read-locked across the build AND the
            // publish — the consistency argument with `add_policy` and
            // `with_groups_mut` (module docs) depends on it.
            let store = self.inner.store.read();
            let groups = self.inner.groups.read();
            let epoch = self.inner.backend_epoch.load(Ordering::SeqCst);
            let backend = self.inner.backend.read();
            let cold = ColdBuild {
                store: &store,
                groups: &groups,
                backend: &*backend,
                delta: &self.inner.delta,
                opts,
                cost,
            };
            let table = backend.table_entry(relation)?;
            if let Build::Place(o, carried) = how {
                let grants: Option<Vec<&Policy>> = o
                    .pending
                    .iter()
                    .map(|id| store.get(*id).filter(|p| policy_applies(p, qm, &groups)))
                    .collect();
                // Placed under the epoch the entry was built under, or not
                // at all: a mutation since may have moved the estimates it
                // keeps.
                let placed = match grants {
                    Some(grants) if o.epoch == epoch => {
                        place_grants(&o.current.expr, &carried, &grants, table, cost)
                    }
                    _ => None,
                };
                if let Some((expr, carried)) = placed {
                    let seed = FragmentCompileCache::seeded(&o.current);
                    let done = cold.finish(qm, Arc::new(expr), &seed)?;
                    let item = (key.clone(), done.clone(), Some(Arc::new(carried)));
                    if cache.insert_placed(item, (&o.current.expr, &o.pending), epoch) {
                        return Ok(done);
                    }
                    // Swept, evicted or replaced mid-build: a grant swept
                    // in meanwhile would be lost with the pending list it
                    // joined — build again.
                    continue;
                }
            }
            let (expr, carried) = cold.generate(qm, relation, table);
            let done = cold.finish(qm, Arc::new(expr), &FragmentCompileCache::default())?;
            drop(backend);
            cache.insert_generated((key, done.clone(), carried.map(Arc::new)), epoch);
            return Ok(done);
        }
    }

    /// Rewrite a query for a querier without executing it (Section 5.6's
    /// output). Satisfied by the guard cache on repeat queries: both the
    /// guarded expression and its compiled rewrite fragment (including ∆
    /// registrations) are reused. The returned output pins the fragments
    /// it references, so the query stays executable even if a concurrent
    /// `add_policy` invalidates the cache entries meanwhile.
    ///
    /// Protected relations are collected over the **whole query tree** —
    /// derived tables, WITH bodies, and scalar subqueries included — with
    /// names resolved against the query's WITH scope first (a CTE that
    /// shadows a protected name is not a base-table read). There is no
    /// nesting depth at which enforcement is skipped.
    ///
    /// A query that calls a UDF anywhere is refused with
    /// [`SieveError::Rewrite`] before any guard work: the engine's one UDF
    /// is ∆, which reads whichever policy partition its arguments name,
    /// so a client call could probe other queriers' policies.
    pub fn rewrite(&self, query: &SelectQuery, qm: &QueryMetadata) -> SieveResult<RewriteOutput> {
        if calls_udf(query) {
            let refusal = "a client query may not call a UDF".to_string();
            return Err(SieveError::Rewrite(DbError::Unsupported(refusal)));
        }
        let (opts, cost) = self.snapshot_config();
        let rels = {
            let protected = self.inner.protected.read();
            collect_protected(query, &protected)
        };
        let mut compiled: HashMap<String, CompiledRelation> = HashMap::new();
        for rel in rels {
            let cr = self.current_relation(qm, &rel, &opts, &cost)?;
            compiled.insert(rel, cr);
        }
        let backend = self.inner.backend.read();
        rewrite_query(&*backend, query, &compiled, &cost, &opts.rewrite)
    }

    pub(crate) fn exec_options(&self) -> ExecOptions {
        ExecOptions { timeout: self.inner.options.read().timeout }
    }

    /// Snapshot of the recovery counters (retries, reconnects,
    /// re-prepares, exhausted budgets).
    pub fn recovery_stats(&self) -> RecoveryStats {
        RecoveryStats {
            retries: self.inner.recovery.retries.load(Ordering::Relaxed),
            reconnects: self.inner.recovery.reconnects.load(Ordering::Relaxed),
            reprepares: self.inner.recovery.reprepares.load(Ordering::Relaxed),
            exhausted: self.inner.recovery.exhausted.load(Ordering::Relaxed),
        }
    }

    /// Record a prepared-plan rebuild (called by the session layer).
    pub(crate) fn note_reprepare(&self) {
        self.inner.recovery.reprepares.fetch_add(1, Ordering::Relaxed);
    }

    /// Run a backend operation, re-issuing retryable errors
    /// ([`BackendError::is_retryable`]) up to [`MAX_RETRIES`] times with
    /// deterministic exponential backoff (no jitter, so fault schedules
    /// replay identically under a fixed seed) while [`RETRY_BUDGET`] lasts;
    /// everything else fails closed on the first attempt.
    ///
    /// A [`BackendError::ConnectionLost`] additionally bumps the backend
    /// epoch — server-side statement state is gone, so every
    /// [`crate::session::Prepared`] plan must detectably re-prepare — and
    /// counts as a reconnect. Each attempt takes the backend read lock
    /// individually and drops it before sleeping, so the retry loop never
    /// starves writers (or other queries) during its backoff.
    pub(crate) fn with_backend_retry<T>(
        &self,
        mut op: impl FnMut(&B) -> Result<T, BackendError>,
    ) -> SieveResult<T> {
        let start = std::time::Instant::now();
        let mut attempts: u32 = 0;
        loop {
            let err = {
                let backend = self.inner.backend.read();
                match op(&backend) {
                    Ok(v) => return Ok(v),
                    Err(e) => e,
                }
            };
            attempts += 1;
            if matches!(err, BackendError::ConnectionLost(_)) {
                self.inner.recovery.reconnects.fetch_add(1, Ordering::Relaxed);
                self.inner.backend_epoch.fetch_add(1, Ordering::SeqCst);
            }
            let budget_ok = start.elapsed() < RETRY_BUDGET;
            if !err.is_retryable() || attempts > MAX_RETRIES || !budget_ok {
                if err.is_retryable() {
                    self.inner.recovery.exhausted.fetch_add(1, Ordering::Relaxed);
                }
                return Err(if attempts == 1 {
                    SieveError::Backend(err)
                } else {
                    SieveError::RetriesExhausted {
                        attempts,
                        last: err,
                    }
                });
            }
            self.inner.recovery.retries.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep((BASE_BACKOFF * (1 << (attempts - 1))).min(MAX_BACKOFF));
        }
    }

    /// Execute a query under SIEVE enforcement.
    pub fn execute(&self, query: &SelectQuery, qm: &QueryMetadata) -> SieveResult<QueryResult> {
        let rewritten = self.rewrite(query, qm)?;
        let opts = self.exec_options();
        self.with_backend_retry(|b| b.exec_timed(&rewritten.query, &opts).0)
    }

    /// Have the backend plan an already-rewritten query once and hold the
    /// plan open as a server-side statement.
    pub(crate) fn prepare_statement(&self, query: &SelectQuery) -> SieveResult<StatementId> {
        self.with_backend_retry(|b| b.prepare(query))
    }

    /// Execute a server-side prepared statement (the
    /// [`crate::session::Prepared`] hot path: a pinned plan, run). A
    /// connection drop mid-retry typically resurfaces as
    /// [`BackendError::UnknownStatement`] on the fresh connection — the
    /// typed signal the session layer re-prepares on.
    pub(crate) fn execute_statement(&self, id: StatementId) -> SieveResult<QueryResult> {
        let opts = self.exec_options();
        self.with_backend_retry(|b| b.execute_prepared(id, &opts))
    }

    /// Close a server-side prepared statement; unknown ids are a no-op.
    pub(crate) fn close_statement(&self, id: StatementId) {
        let backend = self.inner.backend.read();
        backend.close_prepared(id);
    }

    /// The guarded expression queries for (querier, purpose, relation) run
    /// under, generated, or brought current by placing or regenerating,
    /// if the cache did not hold it current.
    pub fn guarded_expression(
        &self,
        qm: &QueryMetadata,
        relation: &str,
    ) -> SieveResult<GuardedExpression> {
        let (opts, cost) = self.snapshot_config();
        let compiled = self.current_relation(qm, relation, &opts, &cost)?;
        Ok((*compiled.expr).clone())
    }

    /// Parse SQL, then [`SieveService::execute`]. Every call parses its
    /// text: what is amortised across requests is the guard, not the
    /// query. Text the parser refuses fails as [`SieveError::Rewrite`]
    /// before any guard work.
    pub fn execute_sql(&self, sql: &str, qm: &QueryMetadata) -> SieveResult<QueryResult> {
        self.execute(&minidb::sql::parse(sql)?, qm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::relevant_policies;
    use crate::policy::{CondPredicate, ObjectCondition, QuerierSpec};
    use minidb::value::DataType;
    use minidb::{DbProfile, TableSchema, Value};

    // The service must be shareable across threads by construction.
    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn service_and_handles_are_send_sync() {
        assert_send_sync::<SieveService<Database>>();
        assert_send_sync::<crate::session::Session<Database>>();
        assert_send_sync::<crate::session::Prepared<Database>>();
        assert_send_sync::<SieveService<crate::backend::WireSqlBackend>>();
        assert_send_sync::<SieveService<crate::backend::DynBackend>>();
    }

    fn loaded_service(profile: DbProfile) -> SieveService {
        let mut db = Database::new(profile);
        db.create_table(TableSchema::of(
            "wifi_dataset",
            &[
                ("id", DataType::Int),
                ("owner", DataType::Int),
                ("wifi_ap", DataType::Int),
                ("ts_time", DataType::Time),
            ],
        ))
        .unwrap();
        for i in 0..4000i64 {
            db.insert(
                "wifi_dataset",
                vec![
                    Value::Int(i),
                    Value::Int(i % 80),
                    Value::Int(1000 + i % 10),
                    Value::Time(((i * 53) % 86400) as u32),
                ],
            )
            .unwrap();
        }
        for col in ["owner", "wifi_ap", "ts_time"] {
            db.create_index("wifi_dataset", col).unwrap();
        }
        db.analyze("wifi_dataset").unwrap();
        let sieve = SieveService::new(db, SieveOptions::default()).unwrap();
        // Owners 0..20 allow querier 500 to see their data at AP 1001.
        for owner in 0..20i64 {
            sieve
                .add_policy(Policy::new(
                    owner,
                    "wifi_dataset",
                    QuerierSpec::User(500),
                    "Analytics",
                    vec![ObjectCondition::new(
                        "wifi_ap",
                        CondPredicate::Eq(Value::Int(1001)),
                    )],
                ))
                .unwrap();
        }
        sieve
    }

    fn oracle_rows(sieve: &SieveService, qm: &QueryMetadata) -> Vec<minidb::Row> {
        let policies = sieve.policies();
        let relevant: Vec<&Policy> =
            relevant_policies(policies.iter(), "wifi_dataset", qm, &sieve.groups());
        let mut rows =
            crate::semantics::visible_rows(&*sieve.db(), "wifi_dataset", &relevant).unwrap();
        rows.sort();
        rows
    }

    #[test]
    fn sieve_matches_oracle_end_to_end() {
        for profile in [DbProfile::MySqlLike, DbProfile::PostgresLike] {
            let sieve = loaded_service(profile);
            let qm = QueryMetadata::new(500, "Analytics");
            let q = SelectQuery::star_from("wifi_dataset");
            let mut got = sieve.execute(&q, &qm).unwrap().rows;
            got.sort();
            let expect = oracle_rows(&sieve, &qm);
            assert_eq!(got, expect, "profile {profile:?}");
            assert!(!got.is_empty());
        }
    }

    #[test]
    fn unauthorized_querier_sees_nothing() {
        let sieve = loaded_service(DbProfile::MySqlLike);
        let qm = QueryMetadata::new(501, "Analytics");
        let q = SelectQuery::star_from("wifi_dataset");
        assert!(sieve.execute(&q, &qm).unwrap().is_empty());
    }

    #[test]
    fn wrong_purpose_sees_nothing() {
        let sieve = loaded_service(DbProfile::MySqlLike);
        let qm = QueryMetadata::new(500, "Marketing");
        let q = SelectQuery::star_from("wifi_dataset");
        assert!(sieve.execute(&q, &qm).unwrap().is_empty());
    }

    #[test]
    fn cache_regenerates_on_policy_insert() {
        let sieve = loaded_service(DbProfile::MySqlLike);
        let qm = QueryMetadata::new(500, "Analytics");
        let q = SelectQuery::star_from("wifi_dataset");
        let n0 = sieve.execute(&q, &qm).unwrap().len();
        let gens_before = sieve.generations();
        // Re-running does not regenerate.
        sieve.execute(&q, &qm).unwrap();
        assert_eq!(sieve.generations(), gens_before);
        // New policy for owner 71 at AP 1001 (owner 71 ⇒ i%10 == 1 ⇒
        // wifi_ap 1001) → more rows visible.
        sieve
            .add_policy(Policy::new(
                71,
                "wifi_dataset",
                QuerierSpec::User(500),
                "Analytics",
                vec![ObjectCondition::new(
                    "wifi_ap",
                    CondPredicate::Eq(Value::Int(1001)),
                )],
            ))
            .unwrap();
        let n1 = sieve.execute(&q, &qm).unwrap().len();
        assert!(n1 > n0);
        assert_eq!(sieve.generations(), gens_before + 1);
    }

    #[test]
    fn group_policies_via_directory() {
        let sieve = loaded_service(DbProfile::MySqlLike);
        sieve.with_groups_mut(|g| g.add_member(9, 777));
        sieve
            .add_policy(Policy::new(
                42,
                "wifi_dataset",
                QuerierSpec::Group(9),
                "Any",
                vec![],
            ))
            .unwrap();
        let qm = QueryMetadata::new(777, "Whatever");
        let q = SelectQuery::star_from("wifi_dataset");
        let rows = sieve.execute(&q, &qm).unwrap().rows;
        assert_eq!(rows.len(), 50); // owner 42 of 80 owners over 4000 rows
        assert!(rows.iter().all(|r| r[1] == Value::Int(42)));
    }

    /// Verification × ∆: with `verify_rewrites` on, four queriers that
    /// share a group grant (so their expressions hold identical partitions
    /// — ∆ registrations under `Always`) each go through the proving
    /// `finish` of their own cold build and are served exactly the
    /// oracle's rows.
    #[test]
    fn group_members_with_verification_match_oracle() {
        for mode in [crate::rewrite::DeltaMode::Auto, crate::rewrite::DeltaMode::Always] {
            let sieve = loaded_service(DbProfile::MySqlLike);
            sieve.with_options_mut(|o| {
                o.verify_rewrites = true;
                o.rewrite.delta_mode = mode;
            });
            let members = [600i64, 601, 602, 603];
            sieve.with_groups_mut(|g| members.iter().for_each(|&u| g.add_member(9, u)));
            for owner in 20..30i64 {
                sieve
                    .add_policy(Policy::new(
                        owner,
                        "wifi_dataset",
                        QuerierSpec::Group(9),
                        "Analytics",
                        vec![ObjectCondition::new(
                            "wifi_ap",
                            CondPredicate::Eq(Value::Int(1001)),
                        )],
                    ))
                    .unwrap();
            }
            let q = SelectQuery::star_from("wifi_dataset");
            for &u in &members {
                let qm = QueryMetadata::new(u, "Analytics");
                let mut got = sieve.execute(&q, &qm).unwrap().rows;
                got.sort();
                assert!(!got.is_empty());
                assert_eq!(got, oracle_rows(&sieve, &qm), "{mode:?}: querier {u} vs oracle");
            }
            assert_eq!(sieve.generations(), members.len() as u64, "{mode:?}: one build per key");
        }
    }

    /// A generation covers exactly the querier's relevant policies, in
    /// disjoint partitions, and keeps what they carry for a placement —
    /// for a querier with its own and group grants, one with group grants
    /// only, and one with none.
    #[test]
    fn generation_covers_exactly_the_relevant_policies() {
        let sieve = loaded_service(DbProfile::MySqlLike);
        sieve.with_groups_mut(|g| g.add_member(7, 500));
        for owner in 40..50i64 {
            let at_1002 = ObjectCondition::new("wifi_ap", CondPredicate::Eq(Value::Int(1002)));
            let grant = Policy::new(owner, "wifi_dataset", QuerierSpec::Group(7), "Analytics", vec![at_1002]);
            sieve.add_policy(grant).unwrap();
        }
        sieve.with_groups_mut(|g| g.add_member(7, 777));
        for querier in [500i64, 777, 999] {
            let qm = QueryMetadata::new(querier, "Analytics");
            let ge = sieve.guarded_expression(&qm, "wifi_dataset").unwrap();
            let expect: std::collections::BTreeSet<PolicyId> =
                sieve.store().relevant("wifi_dataset", &qm, &sieve.groups()).iter().map(|p| p.id).collect();
            assert_eq!(ge.covered_policies(), expect, "querier {querier}: exactly the relevant set");
            let total: usize = ge.guards.iter().map(|g| g.partition_size()).sum();
            assert_eq!(total, expect.len(), "querier {querier}: partitions disjoint");
            let key = cache_key(&qm, "wifi_dataset");
            let carried = sieve.inner.cache.read(&key, |c| c.carried.as_ref().map(|c| c.last));
            let last = expect.iter().max().copied().unwrap_or_default();
            assert_eq!(carried.unwrap(), Some(last), "querier {querier}: placeable");
        }
    }

    #[test]
    fn protected_relation_with_no_policies_denies_all() {
        let mut db = Database::new(DbProfile::MySqlLike);
        db.create_table(minidb::TableSchema::of(
            "t",
            &[("id", DataType::Int), ("owner", DataType::Int)],
        ))
        .unwrap();
        db.insert("t", vec![Value::Int(0), Value::Int(1)]).unwrap();
        let sieve = SieveService::new(db, SieveOptions::default()).unwrap();
        let qm = QueryMetadata::new(1, "Any");
        let q = SelectQuery::star_from("t");
        // Without protection the table is outside access control.
        assert_eq!(sieve.execute(&q, &qm).unwrap().len(), 1);
        // Once protected, the empty policy set denies everything.
        sieve.protect("t");
        assert!(sieve.execute(&q, &qm).unwrap().is_empty());
    }

    #[test]
    fn out_of_band_insert_regenerates_stale_guards() {
        let sieve = loaded_service(DbProfile::MySqlLike);
        let qm = QueryMetadata::new(500, "Analytics");
        let q = SelectQuery::star_from("wifi_dataset");
        let n0 = sieve.execute(&q, &qm).unwrap().len();
        let gens = sieve.generations();
        // Re-running is a cache hit.
        sieve.execute(&q, &qm).unwrap();
        assert_eq!(sieve.generations(), gens);
        // Out-of-band mutation through with_db_mut: new rows for owner 0 at
        // the allowed AP. The cached guard (and its ∆/fragment state) was
        // generated against the old data; the epoch bump must force lazy
        // regeneration, and the new rows must be visible.
        let epoch_before = sieve.backend_epoch();
        sieve.with_db_mut(|db| {
            for i in 0..5i64 {
                db.insert(
                    "wifi_dataset",
                    vec![
                        Value::Int(100_000 + i),
                        Value::Int(0),
                        Value::Int(1001),
                        Value::Time(0),
                    ],
                )
                .unwrap();
            }
        });
        assert!(sieve.backend_epoch() > epoch_before);
        let n1 = sieve.execute(&q, &qm).unwrap().len();
        assert_eq!(n1, n0 + 5, "out-of-band rows must be enforced & visible");
        assert_eq!(
            sieve.generations(),
            gens + 1,
            "stale-epoch entry must regenerate exactly once"
        );
        // And only once: the regenerated entry is fresh again.
        sieve.execute(&q, &qm).unwrap();
        assert_eq!(sieve.generations(), gens + 1);
    }

    #[test]
    fn backend_mut_bumps_epoch_like_db_mut() {
        let sieve = loaded_service(DbProfile::MySqlLike);
        let e0 = sieve.backend_epoch();
        sieve.with_backend_mut(|_| ());
        sieve.with_db_mut(|_| ());
        assert_eq!(sieve.backend_epoch(), e0 + 2);
    }

    #[test]
    fn sql_entry_point() {
        let sieve = loaded_service(DbProfile::MySqlLike);
        let qm = QueryMetadata::new(500, "Analytics");
        let res = sieve
            .execute_sql(
                "SELECT COUNT(*) AS n FROM wifi_dataset WHERE wifi_ap = 1001",
                &qm,
            )
            .unwrap();
        let n = res.rows[0][0].as_int().unwrap();
        assert!(n > 0);
        // 20 owners × 50 rows at AP 1001 each... exactly the oracle count.
        let expect = oracle_rows(&sieve, &qm).len() as i64;
        assert_eq!(n, expect);
    }
}
