//! The in-process backend: a thin wrapper over [`minidb::Database`].

use super::{BackendResult, SqlBackend};
use minidb::exec::{ExecOptions, QueryResult};
use minidb::plan::SelectQuery;
use minidb::schema::TableSchema;
use minidb::stats::ExecStats;
use minidb::table::{Row, RowId};
use minidb::udf::Udf;
use minidb::{Database, DbProfile, TableEntry};
use std::sync::Arc;

/// The hermetic default backend: SIEVE calling straight into the embedded
/// engine, as the seed tree always did. Query ASTs are handed to the
/// executor without a serialization round — the zero-overhead baseline
/// the wire backend is measured against.
#[derive(Debug, Clone)]
pub struct MinidbBackend {
    db: Database,
}

impl MinidbBackend {
    /// Wrap an engine instance.
    pub fn new(db: Database) -> Self {
        MinidbBackend { db }
    }

    /// The wrapped engine (read access).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The wrapped engine (mutable — data loading, profile flips). Reach
    /// this through [`crate::SieveService::with_db_mut`] when the backend
    /// is under a middleware, so the out-of-band write bumps the backend
    /// epoch and cached guards regenerate.
    pub fn db_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// Unwrap back into the engine.
    pub fn into_inner(self) -> Database {
        self.db
    }
}

/// Delegates every method to the `SqlBackend` impl on [`Database`]
/// itself (one source of truth for the engine wiring); this type exists
/// to be the named default backend and the place engine-specific
/// conveniences (`db`/`db_mut`/`into_inner`) live.
impl SqlBackend for MinidbBackend {
    fn name(&self) -> &'static str {
        self.db.name()
    }
    fn exec(&self, query: &SelectQuery, opts: &ExecOptions) -> BackendResult<QueryResult> {
        SqlBackend::exec(&self.db, query, opts)
    }
    fn exec_timed(
        &self,
        query: &SelectQuery,
        opts: &ExecOptions,
    ) -> (BackendResult<QueryResult>, ExecStats) {
        SqlBackend::exec_timed(&self.db, query, opts)
    }
    fn table_entry(&self, name: &str) -> BackendResult<&TableEntry> {
        self.db.table_entry(name)
    }
    fn has_relation(&self, name: &str) -> bool {
        self.db.has_relation(name)
    }
    fn engine_profile(&self) -> DbProfile {
        self.db.engine_profile()
    }
    fn install_udf(&mut self, name: &str, udf: Arc<dyn Udf>) {
        self.db.install_udf(name, udf)
    }
    fn create_relation(&mut self, schema: TableSchema) -> BackendResult<()> {
        self.db.create_relation(schema)
    }
    fn create_relation_index(&mut self, table: &str, column: &str) -> BackendResult<()> {
        self.db.create_relation_index(table, column)
    }
    fn insert_row(&mut self, table: &str, row: Row) -> BackendResult<RowId> {
        self.db.insert_row(table, row)
    }
    fn minidb(&self) -> Option<&Database> {
        self.db.minidb()
    }
}
