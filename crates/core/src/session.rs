//! Per-querier session and prepared-statement handles.
//!
//! A wire server fronting [`crate::service::SieveService`] hands each
//! connection a [`Session`]: the querier's [`QueryMetadata`] (identity,
//! purpose, context) is captured **once** at session creation — the
//! principal carries its authority in the handle instead of re-passing it
//! per call (cf. Zigmond et al., "Fine-Grained, Language-Based Access
//! Control for Database-Backed Applications"). Sessions are cheap clones
//! of the service handle plus the metadata; any number may live and query
//! concurrently.
//!
//! [`Prepared`] is the repeat-query hot path: it pins a fully rewritten
//! query (guards compiled, ∆ partitions registered and reference-held)
//! and, through a backend statement, the physical plan the engine chose
//! for it, so repeated [`Prepared::execute`] calls skip *all* middleware
//! work and all planning — no cache lookup, no rewrite, no binding or
//! costing, just the plan run under the shared read lock. Staleness is
//! detected by one service-level counter captured at prepare time, the
//! **revision**, which every policy, protection, group and out-of-band
//! backend write moves. When it moves, the next `execute` transparently
//! re-prepares — through the guard cache: warm lookups and one planning
//! after a policy change, a generation after a write that cleared the
//! cache. A statement the backend no longer knows (a lost connection)
//! answers `UnknownStatement`, which re-prepares it too.

use crate::backend::{SqlBackend, StatementId};
use crate::guard::GuardedExpression;
use crate::policy::QueryMetadata;
use crate::rewrite::{GuardFragment, RewriteOutput};
use crate::service::SieveService;
use crate::error::SieveResult;
use minidb::plan::SelectQuery;
use minidb::{Database, QueryResult};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A per-querier handle onto a [`SieveService`]: query metadata captured
/// once, every read path at `&self`. Clone freely; clones share the
/// service and copy the metadata.
pub struct Session<B: SqlBackend = Database> {
    service: SieveService<B>,
    qm: QueryMetadata,
}

impl<B: SqlBackend> Clone for Session<B> {
    fn clone(&self) -> Self {
        Session {
            service: self.service.clone(),
            qm: self.qm.clone(),
        }
    }
}

impl<B: SqlBackend> Session<B> {
    pub(crate) fn new(service: SieveService<B>, qm: QueryMetadata) -> Self {
        Session { service, qm }
    }

    /// The metadata this session queries under.
    pub fn metadata(&self) -> &QueryMetadata {
        &self.qm
    }

    /// The shared service behind this session.
    pub fn service(&self) -> &SieveService<B> {
        &self.service
    }

    /// Execute a query under SIEVE enforcement as this session's querier.
    pub fn execute(&self, query: &SelectQuery) -> SieveResult<QueryResult> {
        self.service.execute(query, &self.qm)
    }

    /// Parse SQL, then [`Session::execute`]; see
    /// [`SieveService::execute_sql`].
    pub fn execute_sql(&self, sql: &str) -> SieveResult<QueryResult> {
        self.service.execute_sql(sql, &self.qm)
    }

    /// Rewrite a query without executing it.
    pub fn rewrite(&self, query: &SelectQuery) -> SieveResult<RewriteOutput> {
        self.service.rewrite(query, &self.qm)
    }

    /// The session's guarded expression for a protected relation.
    pub fn guarded_expression(&self, relation: &str) -> SieveResult<GuardedExpression> {
        self.service.guarded_expression(&self.qm, relation)
    }

    /// Prepare a query for repeated execution: rewrite it now, pin the
    /// compiled fragments, and hand back a [`Prepared`] whose `execute`
    /// skips the middleware entirely while the plan stays fresh.
    pub fn prepare(&self, query: SelectQuery) -> SieveResult<Prepared<B>> {
        let plan = Plan::build(&self.service, &self.qm, &query)?;
        Ok(Prepared {
            service: self.service.clone(),
            qm: self.qm.clone(),
            source: query,
            plan: Mutex::new(plan),
            reprepares: AtomicU64::new(0),
        })
    }

    /// Parse SQL and [`Session::prepare`] it.
    pub fn prepare_sql(&self, sql: &str) -> SieveResult<Prepared<B>> {
        self.prepare(minidb::sql::parse(sql)?)
    }
}

/// A server-side statement held open for a plan's lifetime. Closing on
/// `Drop` (of the last `Arc<Plan>` clone) rather than at re-prepare time
/// means an in-flight `execute` on another thread can never race a close
/// of the statement it is running.
struct StatementPin<B: SqlBackend> {
    service: SieveService<B>,
    id: StatementId,
}

impl<B: SqlBackend> Drop for StatementPin<B> {
    fn drop(&mut self) {
        self.service.close_statement(self.id);
    }
}

/// A rewritten plan plus the revision it was built under. Shared
/// as one `Arc`, so a warm execute pins statement + fragments (and through
/// them the ∆ partitions) with a single refcount bump.
struct Plan<B: SqlBackend> {
    /// The server-side statement pinning the rewrite's physical plan; a
    /// stale plan's statement closes when its last holder drops.
    statement: StatementPin<B>,
    /// Pins the plan's ∆ partitions for as long as the plan is held.
    _fragments: Vec<Arc<GuardFragment>>,
    revision: u64,
}

impl<B: SqlBackend> Plan<B> {
    /// Rewrite `source` for `qm` under the service's current state, and
    /// have the backend plan the rewrite once and pin it as a statement.
    fn build(
        service: &SieveService<B>,
        qm: &QueryMetadata,
        source: &SelectQuery,
    ) -> SieveResult<Arc<Self>> {
        // The stamp is captured *before* the rewrite: if a writer bumps
        // the revision mid-rewrite, the plan is already marked stale and
        // the next execute re-prepares — conservative, never wrong.
        let revision = service.revision();
        let out = service.rewrite(source, qm)?;
        let id = service.prepare_statement(&out.query)?;
        let statement = StatementPin { service: service.clone(), id };
        Ok(Arc::new(Plan { statement, _fragments: out.fragments, revision }))
    }
}

/// A statement prepared for one querier: the compiled rewrite is pinned
/// and re-executed without touching the guard cache. Stale plans (the
/// service revision moved) transparently re-prepare on the next
/// [`Prepared::execute`]. Shareable across threads (`&self` API).
pub struct Prepared<B: SqlBackend = Database> {
    service: SieveService<B>,
    qm: QueryMetadata,
    source: SelectQuery,
    plan: Mutex<Arc<Plan<B>>>,
    reprepares: AtomicU64,
}

impl<B: SqlBackend> Prepared<B> {
    /// The metadata this statement executes under.
    pub fn metadata(&self) -> &QueryMetadata {
        &self.qm
    }

    /// The original (pre-rewrite) query.
    pub fn source(&self) -> &SelectQuery {
        &self.source
    }

    /// How many times the plan was rebuilt after the initial prepare
    /// (observability: a revision bump shows up here).
    pub fn reprepares(&self) -> u64 {
        self.reprepares.load(Ordering::Relaxed)
    }

    /// The server-side statement id behind the current plan
    /// (observability: a re-prepare shows up as a fresh id).
    pub fn statement_id(&self) -> StatementId {
        self.plan.lock().statement.id
    }

    /// True iff the plan's revision is still the service's.
    fn plan_fresh(&self, p: &Plan<B>) -> bool {
        p.revision == self.service.revision()
    }

    /// Replace the plan with one built from the current service state.
    ///
    /// `observed` is the plan the caller found stale or failing. The plan
    /// mutex is held across the whole rebuild, making recovery
    /// **single-flight**: a storm of threads that all observed the same
    /// dead plan queue here, the first rebuilds, and every later one finds
    /// the slot holds a *different*, fresh plan and reuses it — one
    /// re-prepare total, not one per thread.
    fn refresh_plan(&self, observed: &Arc<Plan<B>>) -> SieveResult<Arc<Plan<B>>> {
        let mut slot = self.plan.lock();
        if !Arc::ptr_eq(observed, &*slot) && self.plan_fresh(&slot) {
            return Ok(Arc::clone(&*slot));
        }
        let plan = Plan::build(&self.service, &self.qm, &self.source)?;
        self.reprepares.fetch_add(1, Ordering::Relaxed);
        self.service.note_reprepare();
        *slot = Arc::clone(&plan);
        Ok(plan)
    }

    /// Run an already-built plan's statement on the backend.
    fn run_plan(&self, plan: &Plan<B>) -> SieveResult<QueryResult> {
        self.service.execute_statement(plan.statement.id)
    }

    /// Execute the statement. While the plan is fresh this is the
    /// middleware's fastest path: one `Arc` clone under a short mutex
    /// (which pins statement and ∆ partitions together), then the pinned
    /// physical plan run on the backend under its shared read lock.
    ///
    /// Recovery: if the backend reports that server-side statement state
    /// was lost ([`crate::SieveError::needs_reprepare`] — a connection
    /// drop or statement eviction), the plan is rebuilt **once** and the
    /// query re-run; a second failure surfaces to the caller. Everything
    /// else fails closed immediately with the typed error.
    pub fn execute(&self) -> SieveResult<QueryResult> {
        let observed = Arc::clone(&*self.plan.lock());
        let plan = match self.plan_fresh(&observed) {
            true => observed,
            false => self.refresh_plan(&observed)?,
        };
        match self.run_plan(&plan) {
            Err(e) if e.needs_reprepare() => {
                let plan = self.refresh_plan(&plan)?;
                self.run_plan(&plan)
            }
            done => done,
        }
    }
}
