//! The execution-backend layer.
//!
//! The paper deploys SIEVE as *middleware*: the DBMS behind it is a
//! replaceable component reached through SQL text (stock MySQL or
//! PostgreSQL, Section 7). [`SqlBackend`] is that seam in code — the
//! exact surface the middleware needs from an engine, and nothing more:
//!
//! * **query execution**, one-shot ([`SqlBackend::exec_timed`], which
//!   reports that run's own counters and wall time) or by prepared
//!   statement ([`SqlBackend::prepare`] / [`SqlBackend::execute_prepared`]
//!   / [`SqlBackend::close_prepared`]), under [`ExecOptions`] (a timeout);
//! * **catalog introspection** ([`SqlBackend::table_entry`],
//!   [`SqlBackend::has_relation`]) — schemas, indexes, and histograms,
//!   which guard candidate generation and [`crate::cost::calibrate`]
//!   consume (a server backend would materialize these from
//!   `information_schema` + `pg_stats`/`mysql.innodb_index_stats`);
//! * **UDF installation** ([`SqlBackend::install_udf`]) for the ∆
//!   operator and Baseline U (the paper's `CREATE FUNCTION` step).
//!
//! No method here writes a row or a table: the middleware reads the
//! database it guards and changes it only when its caller asks
//! ([`crate::SieveService::with_backend_mut`]).
//!
//! Two backends ship:
//!
//! * [`minidb::Database`] itself — the in-process engine, handed query
//!   ASTs without a serialization round; the hermetic default
//!   ([`crate::SieveService`]'s default type parameter).
//! * [`WireSqlBackend`] — accepts only SQL **text**: every query, one-shot
//!   or prepared, is rendered with [`minidb::sql::render_query`], crosses a
//!   simulated wire, and is re-parsed before it is planned. This exercises
//!   exactly the path a network backend uses, making render fidelity
//!   load-bearing; a query the text cannot carry (a NaN literal) is
//!   refused on both paths.
//!
//! Both prepare: [`SqlBackend::prepare`] has the engine plan the query
//! once and hold the physical plan open in its statement table, and
//! [`SqlBackend::execute_prepared`] runs that plan — a warm execute plans
//! nothing, and a statement's values are the ones it was prepared with.
//! The engine refuses to run a plan on any state of the database other
//! than the one it was planned on; such a statement is reported
//! [`BackendError::UnknownStatement`], which a [`crate::session::Prepared`]
//! recovers from by preparing again, once.
//!
//! What a real `tokio-postgres` backend needs is recorded in the README
//! (the "Backends" item of "The request path"); network crates are
//! unavailable in this build environment.
//!
//! Queries travel as SQL text; the administrative surface (catalog reads,
//! UDF installation) uses the backend's native channel, as the paper's
//! middleware does during setup.

use minidb::error::{DbError, DbResult};
use minidb::exec::{ExecOptions, QueryResult};
use minidb::plan::SelectQuery;
use minidb::stats::ExecStats;
use minidb::udf::Udf;
use minidb::{Database, TableEntry};
use std::fmt;
use std::sync::Arc;

pub mod faulty;
mod wire;

pub use faulty::{Fault, FaultConfig, FaultCounts, FaultInjectingBackend};
pub use wire::WireSqlBackend;

/// A typed backend failure, classified by what recovery it admits.
///
/// The classification is the contract the service's retry layer and the
/// session's re-prepare logic are written against:
///
/// * [`BackendError::is_retryable`] — the same call may succeed if simply
///   re-issued (possibly on a fresh connection). The service retries these
///   with bounded backoff.
/// * [`BackendError::needs_reprepare`] — server-side statement state was
///   lost; a [`crate::session::Prepared`] must rebuild its plan (prepare a
///   fresh statement id) before the query can run again.
///
/// Everything else fails closed immediately: the error propagates as a
/// [`crate::SieveError`] and no rows are returned.
#[derive(Debug, Clone, PartialEq)]
pub enum BackendError {
    /// The connection to the engine dropped. All server-side session
    /// state — prepared statements above all — is gone; a statement run
    /// again answers [`BackendError::UnknownStatement`], and its prepared
    /// plan re-prepares. Data and policies are untouched, so the service
    /// only counts a reconnect. Retryable: the next call reconnects.
    ConnectionLost(String),
    /// The call exceeded its deadline (the engine's statement timeout or
    /// the service's per-query budget). Not retryable: the budget is
    /// spent, and retrying a deterministic over-budget query would spin.
    Timeout,
    /// The statement id is not known server-side (evicted, closed, or lost
    /// with a connection). Not retryable as-is — the caller must
    /// re-prepare and execute the fresh id.
    UnknownStatement(StatementId),
    /// A transient fault (network hiccup, server momentarily overloaded).
    /// Retryable as-is.
    Transient(String),
    /// The engine rejected the query on semantic grounds — unknown table,
    /// type error, unsupported shape. Deterministic; never retried.
    Rejected(DbError),
    /// A permanent failure (unsupported operation, misconfigured backend).
    /// Never retried.
    Fatal(String),
}

/// Result alias for [`SqlBackend`] operations.
pub type BackendResult<T> = Result<T, BackendError>;

impl BackendError {
    /// True iff re-issuing the same call may succeed. The service's retry
    /// loop only ever retries errors for which this holds.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            BackendError::ConnectionLost(_) | BackendError::Transient(_)
        )
    }

    /// True iff server-side prepared-statement state was lost and plans
    /// executing by statement id must re-prepare before retrying.
    pub fn needs_reprepare(&self) -> bool {
        matches!(
            self,
            BackendError::ConnectionLost(_) | BackendError::UnknownStatement(_)
        )
    }
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::ConnectionLost(m) => write!(f, "connection lost: {m}"),
            BackendError::Timeout => write!(f, "timed out"),
            BackendError::UnknownStatement(id) => {
                write!(f, "unknown prepared statement {id} (closed, evicted, or lost)")
            }
            BackendError::Transient(m) => write!(f, "transient failure: {m}"),
            BackendError::Rejected(e) => write!(f, "rejected by engine: {e}"),
            BackendError::Fatal(m) => write!(f, "fatal: {m}"),
        }
    }
}

impl std::error::Error for BackendError {}

impl From<DbError> for BackendError {
    fn from(e: DbError) -> Self {
        match e {
            // The engine's own deadline is the same budget-spent signal as
            // a wire-level timeout; keep the classification.
            DbError::Timeout => BackendError::Timeout,
            other => BackendError::Rejected(other),
        }
    }
}

/// The outcome of running the engine's statement `id`: a statement the
/// engine no longer vouches for ([`DbError::StalePlan`] — closed, never
/// issued, or planned before the database changed) is an unknown one.
fn statement_result(id: StatementId, res: DbResult<QueryResult>) -> BackendResult<QueryResult> {
    res.map_err(|e| match e {
        DbError::StalePlan => BackendError::UnknownStatement(id),
        other => BackendError::from(other),
    })
}

/// Identifier of a server-side prepared statement, scoped to one backend
/// instance. Ids are never reused within an instance.
pub type StatementId = u64;

/// The execution engine behind the middleware, as seen by
/// [`crate::service::SieveService`].
///
/// Object-safe: the middleware holds a concrete `B: SqlBackend`, but the
/// rewriting/costing free functions take `&dyn SqlBackend` so they need
/// no generic plumbing (and `&Database` coerces to it directly).
///
/// `Send + Sync` is a supertrait: the service shares one backend across
/// every connection thread behind a read-write lock, with concurrent
/// queries executing through `&self` — an engine that cannot cross or be
/// shared between threads cannot back a concurrent middleware.
pub trait SqlBackend: Send + Sync {
    /// Execute a query once — plan it, run the plan, keep nothing — and
    /// report that run: its own counters, wall time and simulated cost.
    /// The one one-shot verb; a caller that wants only the rows drops the
    /// report.
    fn exec_timed(
        &self,
        query: &SelectQuery,
        opts: &ExecOptions,
    ) -> (BackendResult<QueryResult>, ExecStats);

    /// Catalog entry for a relation: schema, indexes, histograms. Guard
    /// candidate generation and cost calibration read these; a server
    /// backend mirrors them locally from the server's catalog views.
    fn table_entry(&self, name: &str) -> BackendResult<&TableEntry>;

    /// True iff a relation with this name exists.
    fn has_relation(&self, name: &str) -> bool;

    /// Install a UDF (the ∆ operator; Baseline U's policy UDF). The
    /// paper's equivalent is `CREATE FUNCTION` issued at deploy time.
    fn install_udf(&mut self, name: &str, udf: Arc<dyn Udf>);

    /// Prepare `query` server-side — ship it and plan it, once — returning
    /// a statement id to execute by thereafter.
    fn prepare(&self, query: &SelectQuery) -> BackendResult<StatementId>;

    /// Run the plan of a statement [`SqlBackend::prepare`] returned, under
    /// `opts`' deadline. [`BackendError::UnknownStatement`] when the id is
    /// closed, evicted, lost, or planned on an older state of the engine.
    fn execute_prepared(&self, id: StatementId, opts: &ExecOptions) -> BackendResult<QueryResult>;

    /// Release a server-side statement; a no-op for ids already closed.
    fn close_prepared(&self, id: StatementId);

    /// The in-process engine behind this backend, if any — the escape
    /// hatch the reference oracle ([`crate::semantics`]) uses to evaluate
    /// derived (subquery) policy conditions directly. A true network
    /// backend returns `None`; oracle checks then treat derived
    /// conditions as unsatisfied (fail closed) or run against a local
    /// mirror. Enforcement never calls this.
    fn minidb(&self) -> Option<&Database> {
        None
    }
}

impl<T: SqlBackend + ?Sized> SqlBackend for Box<T> {
    fn exec_timed(
        &self,
        query: &SelectQuery,
        opts: &ExecOptions,
    ) -> (BackendResult<QueryResult>, ExecStats) {
        (**self).exec_timed(query, opts)
    }
    fn table_entry(&self, name: &str) -> BackendResult<&TableEntry> {
        (**self).table_entry(name)
    }
    fn has_relation(&self, name: &str) -> bool {
        (**self).has_relation(name)
    }
    fn install_udf(&mut self, name: &str, udf: Arc<dyn Udf>) {
        (**self).install_udf(name, udf)
    }
    fn prepare(&self, query: &SelectQuery) -> BackendResult<StatementId> {
        (**self).prepare(query)
    }
    fn execute_prepared(&self, id: StatementId, opts: &ExecOptions) -> BackendResult<QueryResult> {
        (**self).execute_prepared(id, opts)
    }
    fn close_prepared(&self, id: StatementId) {
        (**self).close_prepared(id)
    }
    fn minidb(&self) -> Option<&Database> {
        (**self).minidb()
    }
}

/// A bare [`Database`] is itself a backend (the identity wiring) — the
/// default one under [`crate::SieveService`], and what lets every
/// `&Database` call site — oracles, tests, experiment binaries — coerce
/// straight into the trait surface.
impl SqlBackend for Database {
    fn exec_timed(
        &self,
        query: &SelectQuery,
        opts: &ExecOptions,
    ) -> (BackendResult<QueryResult>, ExecStats) {
        let (res, stats) = self.run_timed(query, opts);
        (res.map_err(BackendError::from), stats)
    }
    fn table_entry(&self, name: &str) -> BackendResult<&TableEntry> {
        self.table(name).map_err(BackendError::from)
    }
    fn has_relation(&self, name: &str) -> bool {
        self.has_table(name)
    }
    fn install_udf(&mut self, name: &str, udf: Arc<dyn Udf>) {
        self.register_udf(name, udf)
    }
    /// Plans the query and pins the plan in the engine's statement table.
    fn prepare(&self, query: &SelectQuery) -> BackendResult<StatementId> {
        Ok(self.prepare_statement(query)?)
    }
    fn execute_prepared(&self, id: StatementId, opts: &ExecOptions) -> BackendResult<QueryResult> {
        statement_result(id, self.execute_statement(id, opts))
    }
    fn close_prepared(&self, id: StatementId) {
        self.close_statement(id)
    }
    fn minidb(&self) -> Option<&Database> {
        Some(self)
    }
}

/// A boxed backend — the type the backend-matrix test helper hands out so
/// one closure body serves every backend.
pub type DynBackend = Box<dyn SqlBackend>;

/// Run `f` once per available backend over a copy of `db` (deep clone per
/// backend, so mutations never leak across runs). The equivalence and
/// bypass oracle suites use this to pin the trait seam itself: whatever
/// they assert must hold for the in-process backend **and** the wire-SQL
/// backend, with identical results.
// Test-harness helper: init failure here is a broken test fixture, not a
// query-path fault, so the panic is intentional (and exempt from the
// fail-closed no-panic gate on the query path).
#[allow(clippy::disallowed_macros)]
pub fn for_each_backend<F>(db: &Database, options: &crate::SieveOptions, mut f: F)
where
    F: FnMut(&'static str, crate::SieveService<DynBackend>),
{
    let backends: [(&'static str, DynBackend); 2] = [
        ("minidb", Box::new(db.clone())),
        ("wire-sql", Box::new(WireSqlBackend::new(db.clone()))),
    ];
    for (name, backend) in backends {
        let sieve = crate::SieveService::with_backend(backend, options.clone())
            .unwrap_or_else(|e| panic!("backend {name} failed to initialize: {e}"));
        f(name, sieve);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::schema::TableSchema;
    use minidb::value::{DataType, Value};
    use minidb::DbProfile;

    fn tiny_db() -> Database {
        let mut db = Database::new(DbProfile::MySqlLike);
        db.create_table(TableSchema::of(
            "t",
            &[("id", DataType::Int), ("owner", DataType::Int)],
        ))
        .unwrap();
        for i in 0..10i64 {
            db.insert("t", vec![Value::Int(i), Value::Int(i % 3)]).unwrap();
        }
        db
    }

    #[test]
    fn database_is_a_backend() {
        let db = tiny_db();
        let backend: &dyn SqlBackend = &db;
        assert!(backend.has_relation("t"));
        assert!(!backend.has_relation("nope"));
        let res =
            backend.exec_timed(&SelectQuery::star_from("t"), &ExecOptions::default()).0.unwrap();
        assert_eq!(res.len(), 10);
        assert_eq!(backend.table_entry("t").unwrap().schema().arity(), 2);
    }

    #[test]
    fn boxed_backend_delegates() {
        let boxed: DynBackend = Box::new(tiny_db());
        let (res, stats) =
            boxed.exec_timed(&SelectQuery::star_from("t"), &ExecOptions::default());
        assert_eq!(res.unwrap().len(), 10);
        assert!(stats.simulated_cost > 0.0);
    }

    #[test]
    fn for_each_backend_visits_every_backend() {
        let db = tiny_db();
        let mut seen = Vec::new();
        for_each_backend(&db, &crate::SieveOptions::default(), |name, sieve| {
            assert!(sieve.backend().has_relation("t"));
            seen.push(name);
        });
        assert!(seen.contains(&"minidb"));
        assert!(seen.contains(&"wire-sql"));
    }
}
