//! The wire-SQL backend: queries cross the seam as **text only**.
//!
//! The paper's SIEVE hands the rewritten query to MySQL/PostgreSQL as a
//! SQL string. [`WireSqlBackend`] reproduces that contract against the
//! embedded engine: every query, one-shot or prepared, is rendered
//! ([`minidb::sql::render_query`]), crosses a simulated wire, and is
//! re-parsed ([`minidb::sql::parse`]) before it is planned — the AST the
//! middleware built never reaches the executor directly. A prepare ships
//! the full text once; executions of the statement then go by id and
//! ship none. A future
//! `tokio-postgres` backend replaces only the middle of this pipeline
//! (ship the text, receive rows) — everything the middleware relies on,
//! above all render fidelity of guard-CTE-bearing rewrites, is already
//! exercised here and property-tested in `tests/proptest_wire.rs`.
//!
//! The administrative surface (catalog reads, UDF installation) stays
//! native, as a server deployment would use its own client-library calls
//! for setup rather than the measured query path.

use super::{statement_result, BackendError, BackendResult, SqlBackend, StatementId};
use minidb::error::DbResult;
use minidb::exec::{ExecOptions, QueryResult};
use minidb::plan::SelectQuery;
use minidb::stats::ExecStats;
use minidb::udf::Udf;
use minidb::{Database, TableEntry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// An engine reached exclusively through SQL text.
#[derive(Debug)]
pub struct WireSqlBackend {
    db: Database,
    /// Queries that crossed the wire as full SQL text
    /// (render → parse → execute, or a prepare).
    round_trips: AtomicU64,
    /// Total `prepare` calls.
    prepares: AtomicU64,
    /// Executions by statement id (no SQL text on the wire).
    prepared_execs: AtomicU64,
}

impl WireSqlBackend {
    /// Wrap an engine instance behind the textual seam.
    pub fn new(db: Database) -> Self {
        WireSqlBackend {
            db,
            round_trips: AtomicU64::new(0),
            prepares: AtomicU64::new(0),
            prepared_execs: AtomicU64::new(0),
        }
    }

    /// The engine on the far side of the wire (read access — oracle and
    /// test use).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Mutable engine access (data loading). Under a middleware, reach it
    /// via [`crate::SieveService::with_backend_mut`] so the write bumps
    /// the epoch.
    pub fn db_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// How many queries crossed the wire as full SQL text so far. Lets
    /// tests assert the textual path was actually taken rather than
    /// silently bypassed.
    pub fn round_trips(&self) -> u64 {
        self.round_trips.load(Ordering::Relaxed)
    }

    /// Total `prepare` calls served.
    pub fn prepares(&self) -> u64 {
        self.prepares.load(Ordering::Relaxed)
    }

    /// Executions dispatched by statement id (no SQL text shipped).
    pub fn prepared_execs(&self) -> u64 {
        self.prepared_execs.load(Ordering::Relaxed)
    }

    /// Currently open server-side statements: the engine's statement table.
    pub fn open_statements(&self) -> usize {
        self.db.open_statements()
    }

    /// The wire itself: serialize, "transmit", deserialize. Every byte of
    /// middleware output must survive this or the backend mis-executes —
    /// which is exactly the property the dual-backend oracle suites pin.
    fn ship(&self, query: &SelectQuery) -> DbResult<SelectQuery> {
        let sql = minidb::sql::render_query(query);
        let parsed = minidb::sql::parse(&sql)?;
        self.round_trips.fetch_add(1, Ordering::Relaxed);
        Ok(parsed)
    }
}

impl SqlBackend for WireSqlBackend {
    fn name(&self) -> &'static str {
        "wire-sql"
    }
    fn exec_timed(
        &self,
        query: &SelectQuery,
        opts: &ExecOptions,
    ) -> (BackendResult<QueryResult>, ExecStats) {
        // The render+parse round trip is genuine dispatch cost; charge it
        // to the measured wall time so timed experiments see the wire.
        let t0 = std::time::Instant::now();
        let parsed = match self.ship(query) {
            Ok(p) => p,
            Err(e) => return (Err(BackendError::from(e)), ExecStats::default()),
        };
        let dispatch: Duration = t0.elapsed();
        let (res, mut stats) = self.db.run_timed(&parsed, opts);
        stats.wall += dispatch;
        (res.map_err(BackendError::from), stats)
    }
    fn table_entry(&self, name: &str) -> BackendResult<&TableEntry> {
        self.db.table(name).map_err(BackendError::from)
    }
    fn has_relation(&self, name: &str) -> bool {
        self.db.has_table(name)
    }
    fn install_udf(&mut self, name: &str, udf: Arc<dyn Udf>) {
        self.db.register_udf(name, udf)
    }
    /// The server-side prepare: the query crosses the wire as its full
    /// text, as [`SqlBackend::exec_timed`]'s does, and the engine plans what
    /// it parsed once; the returned statement executes that plan by id and
    /// no SQL text crosses the wire again. A query the text cannot carry (a
    /// NaN literal) is refused here as it is by `exec_timed`.
    fn prepare(&self, query: &SelectQuery) -> BackendResult<StatementId> {
        self.prepares.fetch_add(1, Ordering::Relaxed);
        Ok(self.db.prepare_statement(&self.ship(query)?)?)
    }
    /// Runs the pinned plan: no render, parse, rebind or planning.
    fn execute_prepared(&self, id: StatementId, opts: &ExecOptions) -> BackendResult<QueryResult> {
        self.prepared_execs.fetch_add(1, Ordering::Relaxed);
        statement_result(id, self.db.execute_statement(id, opts))
    }
    fn close_prepared(&self, id: StatementId) {
        self.db.close_statement(id);
    }
    fn minidb(&self) -> Option<&Database> {
        // The engine exists in-process here (only the query path takes
        // the wire), so the oracle may reach it.
        Some(&self.db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::value::{DataType, Value};
    use minidb::{DbProfile, TableSchema};

    fn db() -> Database {
        let mut db = Database::new(DbProfile::MySqlLike);
        db.create_table(TableSchema::of(
            "t",
            &[("id", DataType::Int), ("owner", DataType::Int)],
        ))
        .unwrap();
        for i in 0..20i64 {
            db.insert("t", vec![Value::Int(i), Value::Int(i % 4)]).unwrap();
        }
        db
    }

    #[test]
    fn queries_cross_the_wire() {
        let backend = WireSqlBackend::new(db());
        assert_eq!(backend.round_trips(), 0);
        let q = SelectQuery::star_from("t");
        let res = backend.exec_timed(&q, &ExecOptions::default()).0.unwrap();
        assert_eq!(res.len(), 20);
        assert_eq!(backend.round_trips(), 1);
        let (res, stats) = backend.exec_timed(&q, &ExecOptions::default());
        assert_eq!(res.unwrap().len(), 20);
        assert!(stats.wall > Duration::ZERO);
        assert_eq!(backend.round_trips(), 2);
    }

    fn owner_is(owner: i64) -> SelectQuery {
        SelectQuery::star_from("t")
            .filter(minidb::Expr::col_eq(minidb::ColumnRef::bare("owner"), Value::Int(owner)))
    }

    #[test]
    fn prepared_statements_skip_the_text_path() {
        let backend = WireSqlBackend::new(db());
        let opts = ExecOptions::default();
        let direct = backend.exec_timed(&owner_is(2), &opts).0.unwrap().rows;
        let trips_after_exec = backend.round_trips();

        // One prepare is one round trip of the full text.
        let id = backend.prepare(&owner_is(2)).unwrap();
        assert_eq!(backend.round_trips(), trips_after_exec + 1);
        assert_eq!(backend.prepares(), 1);
        assert_eq!(backend.open_statements(), 1);

        for _ in 0..5 {
            assert_eq!(backend.execute_prepared(id, &opts).unwrap().rows, direct);
        }
        // Executions by id ship no SQL text.
        assert_eq!(backend.round_trips(), trips_after_exec + 1);
        assert_eq!(backend.prepared_execs(), 5);

        // The same shape with another literal is another round trip and
        // another statement, and each statement keeps its own values.
        let other = backend.prepare(&owner_is(3)).unwrap();
        assert_ne!(other, id);
        assert_eq!(backend.round_trips(), trips_after_exec + 2);
        assert_eq!(backend.prepares(), 2);
        assert_eq!(backend.open_statements(), 2);
        let other_rows = backend.execute_prepared(other, &opts).unwrap().rows;
        assert_eq!(other_rows, backend.exec_timed(&owner_is(3), &opts).0.unwrap().rows);
        assert_eq!(other_rows.len(), 5);
        assert_ne!(other_rows, direct);
        assert_eq!(backend.execute_prepared(id, &opts).unwrap().rows, direct);

        backend.close_prepared(id);
        backend.close_prepared(other);
        assert_eq!(backend.open_statements(), 0);
        assert_eq!(backend.execute_prepared(id, &opts), Err(BackendError::UnknownStatement(id)));
        // Closing twice is a no-op.
        backend.close_prepared(id);
    }

    #[test]
    fn minidb_backend_pins_plans_server_side() {
        let backend = db();
        let q = owner_is(2);
        let opts = ExecOptions::default();
        let direct = backend.exec_timed(&q, &opts).0.unwrap();
        let id = backend.prepare(&q).unwrap();
        assert_eq!(backend.open_statements(), 1);
        for _ in 0..5 {
            assert_eq!(backend.execute_prepared(id, &opts).unwrap(), direct);
        }
        backend.close_prepared(id);
        assert_eq!(backend.open_statements(), 0);
        assert_eq!(backend.execute_prepared(id, &opts), Err(BackendError::UnknownStatement(id)));
        backend.close_prepared(id); // closing twice is a no-op
        // An id another engine issued is unknown here, not someone's plan.
        let other = db();
        let foreign = other.prepare(&q).unwrap();
        backend.prepare(&q).unwrap();
        assert_eq!(
            backend.execute_prepared(foreign, &opts),
            Err(BackendError::UnknownStatement(foreign))
        );
    }

    #[test]
    fn wire_results_match_in_process_results() {
        let db = db();
        let q = owner_is(2);
        let direct = db.run_query(&q).unwrap().rows;
        let backend = WireSqlBackend::new(db);
        let wired = backend.exec_timed(&q, &ExecOptions::default()).0.unwrap().rows;
        assert_eq!(direct, wired);
        assert_eq!(wired.len(), 5);
    }
}
