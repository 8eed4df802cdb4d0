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
//! * the policy state — policies, group directory, protected relations —
//!   is one [`PolicyStore`] behind one `RwLock`, as the paper keeps it in
//!   relations the DBMS orders writes to (Section 5.1). Every write to it
//!   (`add_policy`, `with_groups_mut`, `protect`) takes the write lock;
//!   the options and the cost model are fixed at construction and held by
//!   value, with no lock;
//! * the [`GuardCache`] is sharded — a warm hit takes one shard's *read*
//!   lock (see [`crate::cache`]);
//! * the backend sits behind a `RwLock<B>`: queries and cold builds run
//!   under the read lock (engines execute through `&self`); an
//!   out-of-band write ([`SieveService::with_backend_mut`]) takes the
//!   write lock and clears the guard cache before it runs, so no guard
//!   built from the old data or schema outlives it;
//! * ∆ partitions are reference-counted
//!   ([`crate::delta::PartitionHandle`]) so invalidation can never free a
//!   partition a concurrent query still references.
//!
//! Lock order (outer → inner): `build claim → store → backend → cache
//! shard`; the ∆ registry is a leaf. Cache closures never take other locks,
//! and no thread holds two guards of the store lock at once.
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
//! [`GuardCache::begin_generation`], take the read locks of the store and
//! the backend, re-check the key, and bring it current one of two ways:
//!
//! * a **placement** — pending policies on a cached entry: they join the
//!   cached expression where Algorithm 1 would put them, if none shares a
//!   guard condition with (or has a range overlapping) the policies it
//!   covers ([`crate::guard::placement`]); any pending policy that does
//!   turns it into a generation;
//! * a **generation** — no entry, nothing to place into (an owner-only
//!   selection), or a placement that was not exact. It runs Algorithm 1
//!   over the querier's relevant policies.
//!
//! Either expression is then `finish`ed — its fragment compiled and, with
//! `verify_rewrites` on, proved — and published once
//! ([`GuardCache::publish`]). Both compile through
//! [`splice_guard_fragment`]: a generation splices every guard's branch
//! into the empty fragment; a placement reports where each grant's guard
//! went, and only those branches are compiled, from only the grants'
//! policies, and spliced into the entry's fragment. Every other branch is
//! the entry's own, held by refcount with its bound arm and partition and
//! its ∆ lease, so the next plan binds the new arms and the new
//! disjunction and nothing else.
//! Everything cold runs under the claim, so N sessions missing the same
//! key at once cost one generation, one compile, one set of ∆
//! registrations and one proof; the rest park until the claim drops,
//! re-check, and leave with the published entry (counted in
//! [`GuardCacheStats::coalesced`]).
//!
//! # Consistency under concurrent writes
//!
//! A build holds the store's and the backend's *read* locks from its
//! re-check of the key to its publish. `add_policy` appends the policy
//! *and* sweeps the cache — marking the keys it affects outdated — under
//! the store's *write* lock; `with_groups_mut` swaps the directory and
//! clears the cache under it, and `with_backend_mut` clears the cache
//! under the backend's write lock before it runs its closure. So no write
//! lands inside a build: either the build read the store and the backend
//! after the write (its expression already covers it), or it published
//! before the write began, and the sweep or the clear finds the entry. A
//! placement publishes over the entry it read, and no grant can have been
//! swept into that entry in between. A query that *starts* after one of
//! these writes returns can therefore never run under a guard that
//! silently misses it; queries already in flight linearize before it,
//! exactly like a query racing a policy insert on a single thread.
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
use crate::filter::GroupDirectory;
use crate::guard::{
    guards_over, place_grants, CarriedConditions, Guard, GuardSelectionStrategy,
    GuardableConditions, GuardedExpression,
};
use crate::options::SieveOptions;
use crate::policy::{Policy, PolicyId, QueryMetadata};
use crate::rewrite::{
    collect_protected, rewrite_query, splice_guard_fragment, CompiledRelation, GuardFragment,
    RewriteOutput,
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
use std::collections::HashMap;
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
    /// Connection-loss events observed. Guards survive them: a lost
    /// connection changes neither data nor policy, and a statement the new
    /// connection does not know answers `UnknownStatement`, which
    /// re-prepares it.
    pub reconnects: u64,
    /// Prepared-plan rebuilds (staleness- or error-triggered) across all
    /// sessions of this service.
    pub reprepares: u64,
    /// Operations that still failed after exhausting the retry budget.
    pub exhausted: u64,
}

/// What a cold build reads: borrows of the locks its caller holds (taken
/// store → backend) and of the service's fixed configuration.
struct ColdBuild<'a> {
    store: &'a PolicyStore,
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
        let relevant = self.store.relevant(relation, qm);
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

    /// The stored policies of `guards`: every one is in the store
    /// (policies are never removed).
    fn policies<'g>(
        &self,
        guards: impl IntoIterator<Item = &'g Guard>,
    ) -> HashMap<PolicyId, &Policy> {
        guards
            .into_iter()
            .flat_map(|g| &g.policies)
            .filter_map(|id| Some((*id, self.store.get(*id)?)))
            .collect()
    }

    /// The tail of every cold build, generated or placed: compile the
    /// branches of `expr`'s guards at `at` and splice them into `into`
    /// ([`splice_guard_fragment`]) — a generation splices every guard into
    /// the empty fragment, a placement the grants' guards into the
    /// fragment they were placed into — and prove the result: the whole
    /// fragment, its disjunction as it runs, each ∆ call replaced by the
    /// expression its partition handle keeps
    /// ([`analyze::verify_fragment`]). The only producer of cache entries,
    /// so none is ever half-built, and with `verify_rewrites` on none is
    /// unproven. Warm lookups never come
    /// here, so steady-state verification overhead is zero. Refuted
    /// hard-fails (the rewrite would widen); Unknown is audit-tooling
    /// territory, not a query failure.
    fn finish(
        &self,
        qm: &QueryMetadata,
        expr: Arc<GuardedExpression>,
        into: &GuardFragment,
        at: &[usize],
    ) -> SieveResult<CompiledRelation> {
        let by_id = self.policies(at.iter().filter_map(|&i| expr.guards.get(i)));
        let fragment = splice_guard_fragment(
            self.backend,
            self.delta,
            into,
            &expr,
            at,
            &by_id,
            self.cost,
            self.opts.rewrite.delta_mode,
        )?;
        if self.opts.verify_rewrites {
            let allowed = self.store.relevant(&expr.relation, qm);
            let verdict = analyze::verify_fragment(&fragment, &allowed);
            if let analyze::Verdict::Refuted { witness } = verdict {
                return Err(SieveError::SoundnessRefuted {
                    relation: expr.relation.clone(),
                    querier: qm.querier,
                    witness: analyze::render_witness(&witness),
                });
            }
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
    /// What queries run under now: its expression placed into, its
    /// fragment spliced into.
    current: CompiledRelation,
}

/// How a stale cache entry is brought current.
enum Build {
    /// No usable entry: generate from the store.
    Generate,
    /// Pending policies on a cached entry: place them into its expression
    /// if that is exact ([`crate::guard::placement`]), else generate.
    Place(Outdated, Arc<CarriedConditions>),
}

/// Everything one service instance shares across its clones, sessions and
/// prepared statements.
pub(crate) struct ServiceShared<B: SqlBackend> {
    pub(crate) backend: RwLock<B>,
    /// Policy revision: bumped by `add_policy`, `protect` and
    /// `invalidate_all` (so by group and backend writes too). A
    /// [`crate::session::Prepared`] plan records the revision it was
    /// built under and transparently re-prepares when it trails.
    pub(crate) revision: AtomicU64,
    /// Policies, group directory and protected relations: one lock, so
    /// every policy-state write is ordered against every cold build.
    pub(crate) store: RwLock<PolicyStore>,
    pub(crate) cost: CostModel,
    pub(crate) options: SieveOptions,
    pub(crate) delta: Arc<DeltaRegistry>,
    pub(crate) cache: GuardCache,
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
                revision: AtomicU64::new(0),
                store: RwLock::new(PolicyStore::new()),
                cost: CostModel::default(),
                options,
                delta,
                cache: GuardCache::new(),
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
    /// — waits for in-flight queries and builds — and drops every cached
    /// guarded expression, bumping the revision: row estimates, owner
    /// fallbacks and ∆ partitions may all depend on what `f` changes, so
    /// each key is generated afresh on its next use. A build holds the
    /// backend read lock across its publish, so no entry built from the
    /// old data lands after the clear.
    pub fn with_backend_mut<R>(&self, f: impl FnOnce(&mut B) -> R) -> R {
        let mut backend = self.inner.backend.write();
        self.invalidate_all();
        f(&mut backend)
    }

    /// The current policy/configuration revision (observability; prepared
    /// statements re-prepare when it moves).
    pub fn revision(&self) -> u64 {
        self.inner.revision.load(Ordering::SeqCst)
    }

    /// Run `f` with mutable access to the group directory, then drop
    /// every cached guarded expression and bump the revision: a membership
    /// change alters which group policies apply to a querier, so guards
    /// generated under the old directory would keep narrowing (or
    /// widening) what the querier sees. Both run under the policy store's
    /// write lock, which a build holds for reading across its publish, so
    /// every entry built from the old membership is in the cache by the
    /// time the cache is cleared. Read the directory through
    /// [`SieveService::store`].
    pub fn with_groups_mut<R>(&self, f: impl FnOnce(&mut GroupDirectory) -> R) -> R {
        let mut store = self.inner.store.write();
        let out = f(store.groups_mut());
        self.invalidate_all();
        out
    }

    /// Read access to the policy store — policies, group directory and
    /// protected relations (holds its read lock: do not call back into the
    /// service while holding the guard).
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
        let mut store = self.inner.store.write();
        let id = store.add(policy);
        let store = &*store;
        let stored = store
            .get(id)
            .ok_or(SieveError::Internal("policy vanished under write lock"))?;
        // Outdate exactly the cached expressions the policy affects (the
        // precise invalidation path of Section 6's delta machinery), still
        // under the write lock: no build is between its read and its
        // publish while the sweep runs.
        self.inner
            .cache
            .invalidate_where(id, |(querier, purpose, relation)| {
                *relation == stored.relation
                    && store.applies(stored, &QueryMetadata::new(*querier, purpose.clone()))
            });
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
        self.inner.store.write().protect(relation.into());
        self.inner.revision.fetch_add(1, Ordering::SeqCst);
    }

    /// Read `key`'s entry: its compiled relation if it has no pending
    /// policies, else how to bring it current — placed into, or
    /// regenerated when there is nothing to place them into. One shard
    /// read lock.
    fn lookup(&self, key: &GuardCacheKey) -> Result<CompiledRelation, Build> {
        let read = self.inner.cache.read(key, |c| {
            if c.pending.is_empty() {
                return Ok(c.compiled.clone());
            }
            Err(match &c.carried {
                Some(carried) => {
                    let o = Outdated {
                        pending: c.pending.clone(),
                        current: c.compiled.clone(),
                    };
                    Build::Place(o, Arc::clone(carried))
                }
                None => Build::Generate,
            })
        });
        read.unwrap_or(Err(Build::Generate))
    }

    /// The one way a `(querier, purpose, relation)` key is brought current
    /// and read: the compiled relation (effective expression + rewrite
    /// fragment) queries run under. Warm, that is one shard read lock;
    /// cold, it is [`Self::build`].
    fn current_relation(&self, qm: &QueryMetadata, relation: &str) -> SieveResult<CompiledRelation> {
        if let Ok(compiled) = self.lookup(&cache_key(qm, relation)) {
            self.inner.cache.record_hit();
            return Ok(compiled);
        }
        self.build(qm, relation)
    }

    /// The one cold path: bring `relation`'s key for `qm` current and
    /// return its compiled relation. The whole build — place or generate,
    /// then [`ColdBuild::finish`] — runs under the key's single-flight
    /// claim and the read locks of the policy store and the backend, and
    /// publishes the entry once (module docs). An error publishes nothing
    /// and drops the claim. Superseded fragments free their ∆ partitions
    /// once the last in-flight query drops its pin.
    fn build(&self, qm: &QueryMetadata, relation: &str) -> SieveResult<CompiledRelation> {
        let cache = &self.inner.cache;
        let key = cache_key(qm, relation);
        // Single-flight: losers of a race park here until the winner's
        // claim drops, then find its entry on the re-check.
        let _claim = cache.begin_generation(&key);
        // The store and the backend stay read-locked from the re-check to
        // the publish, so no write lands in between — the consistency
        // argument with `add_policy`, `with_groups_mut` and
        // `with_backend_mut` (module docs).
        let store = self.inner.store.read();
        let backend = self.inner.backend.read();
        let how = match self.lookup(&key) {
            Ok(fresh) => {
                cache.record_coalesced();
                cache.record_hit();
                return Ok(fresh);
            }
            Err(how) => how,
        };
        let cold = ColdBuild {
            store: &store,
            backend: &*backend,
            delta: &self.inner.delta,
            opts: &self.inner.options,
            cost: &self.inner.cost,
        };
        let table = backend.table_entry(relation)?;
        let placement = match how {
            Build::Place(o, carried) => {
                let grants: Option<Vec<&Policy>> = o
                    .pending
                    .iter()
                    .map(|id| store.get(*id).filter(|p| store.applies(p, qm)))
                    .collect();
                let placed = grants.and_then(|grants| {
                    place_grants(&o.current.expr, &carried, &grants, table, cold.cost)
                });
                placed.map(|placed| (placed, o.current.fragment))
            }
            Build::Generate => None,
        };
        let (done, carried, placed) = match placement {
            Some((placed, current)) => {
                let done = cold.finish(qm, Arc::new(placed.expr), &current, &placed.at)?;
                (done, Some(placed.carried), true)
            }
            None => {
                let (expr, carried) = cold.generate(qm, relation, table);
                let every: Vec<usize> = (0..expr.guards.len()).collect();
                let done = cold.finish(qm, Arc::new(expr), &GuardFragment::default(), &every)?;
                (done, carried, false)
            }
        };
        cache.publish((key, done.clone(), carried.map(Arc::new)), placed);
        Ok(done)
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
        let rels = collect_protected(query, self.inner.store.read().protected());
        let mut compiled: HashMap<String, CompiledRelation> = HashMap::new();
        for rel in rels {
            let cr = self.current_relation(qm, &rel)?;
            compiled.insert(rel, cr);
        }
        let backend = self.inner.backend.read();
        rewrite_query(&*backend, query, &compiled, &self.inner.cost, &self.inner.options.rewrite)
    }

    pub(crate) fn exec_options(&self) -> ExecOptions {
        ExecOptions { timeout: self.inner.options.timeout }
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
    /// A [`BackendError::ConnectionLost`] counts as a reconnect and
    /// nothing more: cached guards stay, and a statement the new
    /// connection does not know answers [`BackendError::UnknownStatement`],
    /// on which [`crate::session::Prepared`] re-prepares. Each attempt
    /// takes the backend read lock individually and drops it before
    /// sleeping, so the retry loop never starves writers (or other
    /// queries) during its backoff.
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
        let compiled = self.current_relation(qm, relation)?;
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

    fn loaded_service(profile: DbProfile, options: SieveOptions) -> SieveService {
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
        let sieve = SieveService::new(db, options).unwrap();
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
            relevant_policies(policies.iter(), "wifi_dataset", qm, sieve.store().groups());
        let mut rows =
            crate::semantics::visible_rows(&*sieve.db(), "wifi_dataset", &relevant).unwrap();
        rows.sort();
        rows
    }

    #[test]
    fn sieve_matches_oracle_end_to_end() {
        for profile in [DbProfile::MySqlLike, DbProfile::PostgresLike] {
            let sieve = loaded_service(profile, SieveOptions::default());
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
        let sieve = loaded_service(DbProfile::MySqlLike, SieveOptions::default());
        let qm = QueryMetadata::new(501, "Analytics");
        let q = SelectQuery::star_from("wifi_dataset");
        assert!(sieve.execute(&q, &qm).unwrap().is_empty());
    }

    #[test]
    fn wrong_purpose_sees_nothing() {
        let sieve = loaded_service(DbProfile::MySqlLike, SieveOptions::default());
        let qm = QueryMetadata::new(500, "Marketing");
        let q = SelectQuery::star_from("wifi_dataset");
        assert!(sieve.execute(&q, &qm).unwrap().is_empty());
    }

    #[test]
    fn cache_regenerates_on_policy_insert() {
        let sieve = loaded_service(DbProfile::MySqlLike, SieveOptions::default());
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
        let sieve = loaded_service(DbProfile::MySqlLike, SieveOptions::default());
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
            let mut options = SieveOptions { verify_rewrites: true, ..SieveOptions::default() };
            options.rewrite.delta_mode = mode;
            let sieve = loaded_service(DbProfile::MySqlLike, options);
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
        let sieve = loaded_service(DbProfile::MySqlLike, SieveOptions::default());
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
                sieve.store().relevant("wifi_dataset", &qm).iter().map(|p| p.id).collect();
            assert_eq!(ge.covered_policies(), expect, "querier {querier}: exactly the relevant set");
            let total: usize = ge.guards.iter().map(|g| g.partition_size()).sum();
            assert_eq!(total, expect.len(), "querier {querier}: partitions disjoint");
            let key = cache_key(&qm, "wifi_dataset");
            let carried = sieve.inner.cache.read(&key, |c| c.carried.as_ref().map(|c| c.last));
            let last = expect.iter().max().copied().unwrap_or_default();
            assert_eq!(carried.unwrap(), Some(last), "querier {querier}: placeable");
        }
    }

    /// Fail-closed verification: with `verify_rewrites` on, a cold build
    /// whose expression holds a policy outside the querier's relevant set
    /// is refused with the leaking row as witness — as an inline partition
    /// and as a ∆ partition — and keeps no ∆ registration. The same build
    /// over one of the querier's own policies passes in each form.
    #[test]
    fn finish_refuses_a_partition_outside_the_relevant_set() {
        use crate::guard::Guard;
        use crate::rewrite::DeltaMode;
        for (mode, delta) in [(DeltaMode::Never, false), (DeltaMode::Always, true)] {
            let sieve = loaded_service(DbProfile::MySqlLike, SieveOptions::default());
            // Id 21: owner 30's rows at AP 1003, granted to querier 501.
            let at_1003 = ObjectCondition::new("wifi_ap", CondPredicate::Eq(Value::Int(1003)));
            let foreign =
                Policy::new(30, "wifi_dataset", QuerierSpec::User(501), "Analytics", vec![at_1003.clone()]);
            assert_eq!(sieve.add_policy(foreign).unwrap(), 21);
            let mut opts = SieveOptions { verify_rewrites: true, ..SieveOptions::default() };
            opts.rewrite.delta_mode = mode;
            let qm = QueryMetadata::new(500, "Analytics");
            let at_1001 = ObjectCondition::new("wifi_ap", CondPredicate::Eq(Value::Int(1001)));
            let build = |condition: ObjectCondition, policy: PolicyId| {
                let expr = GuardedExpression {
                    relation: "wifi_dataset".into(),
                    querier: qm.querier,
                    purpose: qm.purpose.clone(),
                    guards: vec![Guard { condition, policies: vec![policy], est_rows: 400.0 }],
                };
                let (store, backend) = (sieve.inner.store.read(), sieve.inner.backend.read());
                let cold = ColdBuild {
                    store: &store,
                    backend: &*backend,
                    delta: &sieve.inner.delta,
                    opts: &opts,
                    cost: &sieve.inner.cost,
                };
                cold.finish(&qm, Arc::new(expr), &GuardFragment::default(), &[0])
            };
            let own = build(at_1001, 1).unwrap();
            assert_eq!(own.fragment.branches[0].delta.is_some(), delta, "{mode:?}: partition form");
            drop(own);
            let live = sieve.delta_len();
            match build(at_1003, 21) {
                Err(SieveError::SoundnessRefuted { relation, querier, witness }) => {
                    assert_eq!((relation.as_str(), querier), ("wifi_dataset", 500), "{mode:?}");
                    assert!(witness.contains("owner=30"), "{mode:?}: witness {witness}");
                }
                other => panic!("{mode:?}: expected SoundnessRefuted, got {other:?}"),
            }
            assert_eq!(sieve.delta_len(), live, "{mode:?}: a refused build keeps no ∆ partition");
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
        let sieve = loaded_service(DbProfile::MySqlLike, SieveOptions::default());
        let qm = QueryMetadata::new(500, "Analytics");
        let q = SelectQuery::star_from("wifi_dataset");
        let n0 = sieve.execute(&q, &qm).unwrap().len();
        let gens = sieve.generations();
        // Re-running is a cache hit.
        sieve.execute(&q, &qm).unwrap();
        assert_eq!(sieve.generations(), gens);
        // Out-of-band mutation through with_db_mut: new rows for owner 0 at
        // the allowed AP. The cached guard (and its ∆/fragment state) was
        // generated against the old data; the write must clear it, and the
        // new rows must be visible.
        let revision_before = sieve.revision();
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
        assert!(sieve.revision() > revision_before);
        assert!(
            sieve.inner.cache.is_empty(),
            "an out-of-band write clears the cache"
        );
        let n1 = sieve.execute(&q, &qm).unwrap().len();
        assert_eq!(n1, n0 + 5, "out-of-band rows must be enforced & visible");
        assert_eq!(
            sieve.generations(),
            gens + 1,
            "a cleared entry must be generated exactly once"
        );
        // And only once: the regenerated entry is fresh again.
        sieve.execute(&q, &qm).unwrap();
        assert_eq!(sieve.generations(), gens + 1);
    }

    #[test]
    fn backend_mut_clears_the_cache_like_db_mut() {
        let sieve = loaded_service(DbProfile::MySqlLike, SieveOptions::default());
        let qm = QueryMetadata::new(500, "Analytics");
        let q = SelectQuery::star_from("wifi_dataset");
        let r0 = sieve.revision();
        sieve.execute(&q, &qm).unwrap();
        sieve.with_backend_mut(|_| ());
        assert!(sieve.inner.cache.is_empty());
        sieve.execute(&q, &qm).unwrap();
        sieve.with_db_mut(|_| ());
        assert!(sieve.inner.cache.is_empty());
        assert_eq!(sieve.revision(), r0 + 2);
    }

    #[test]
    fn sql_entry_point() {
        let sieve = loaded_service(DbProfile::MySqlLike, SieveOptions::default());
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
