//! The database catalog and top-level façade.
//!
//! A [`Database`] owns tables, their secondary indexes and histograms, the
//! UDF registry and the optimizer profile (MySQL-like vs PostgreSQL-like).
//! Counters belong to a run, not to the database:
//! [`Database::run_timed`] reports its own. SIEVE is layered strictly on
//! top of this façade —
//! it only uses the public surface a middleware would have against a real
//! DBMS: run a query, run EXPLAIN, register a UDF, read table statistics.

use crate::error::{DbError, DbResult};
use crate::exec::{ExecOptions, PreparedQuery, QueryResult};
use crate::explain::ExplainOutput;
use crate::histogram::{Histogram, DEFAULT_BUCKETS};
use crate::index::Index;
use crate::plan::SelectQuery;
use crate::planner::DbProfile;
use crate::schema::TableSchema;
use crate::stats::{CostWeights, ExecStats};
use crate::table::{Row, RowId, Table};
use crate::udf::{Udf, UdfRegistry};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A table plus its access structures.
#[derive(Debug, Clone)]
pub struct TableEntry {
    /// Heap storage.
    pub table: Table,
    /// Secondary indexes (one per indexed column).
    pub indexes: Vec<Index>,
    /// Histograms by column name (built by [`Database::analyze`]).
    pub histograms: HashMap<String, Histogram>,
    schema: Arc<TableSchema>,
}

impl TableEntry {
    /// Shared schema handle.
    pub fn schema(&self) -> &Arc<TableSchema> {
        &self.schema
    }

    /// Index over `column`, if one exists.
    pub fn index_on(&self, column: &str) -> Option<&Index> {
        self.indexes.iter().find(|i| i.column_name == column)
    }

    /// Histogram for `column`, if analyzed.
    pub fn histogram(&self, column: &str) -> Option<&Histogram> {
        self.histograms.get(column)
    }

    /// True iff `column` has an index — the guard property the paper
    /// requires (`oc.attr ∈ I`, Section 3.2).
    pub fn has_index(&self, column: &str) -> bool {
        self.index_on(column).is_some()
    }

    /// Append one row, maintaining the indexes.
    fn insert(&mut self, row: Row) -> RowId {
        let id = self.table.insert(row);
        let row = self.table.row(id);
        for idx in &mut self.indexes {
            idx.insert(id, row);
        }
        id
    }
}

/// Source of [`Database::version`] stamps: one counter for the process, so
/// no two states of any two databases share a stamp unless one is an
/// unmodified clone of the other.
static NEXT_VERSION: AtomicU64 = AtomicU64::new(1);

/// Source of statement ids, process-wide for the same reason: an id issued
/// by one database is unknown to every other, its clones included.
static NEXT_STATEMENT: AtomicU64 = AtomicU64::new(1);

/// An embedded database instance.
pub struct Database {
    tables: HashMap<String, TableEntry>,
    udfs: UdfRegistry,
    profile: DbProfile,
    /// Stamp of the current state; see [`Database::version`].
    version: u64,
    /// The plans of the open statements by id; ids are never reused.
    statements: RwLock<HashMap<u64, PreparedQuery>>,
}

impl Database {
    /// Create an empty database with the given optimizer profile.
    pub fn new(profile: DbProfile) -> Self {
        Database {
            tables: HashMap::new(),
            udfs: UdfRegistry::new(),
            profile,
            version: NEXT_VERSION.fetch_add(1, Ordering::Relaxed),
            statements: RwLock::new(HashMap::new()),
        }
    }

    /// Stamp of this database's state — tables, rows, indexes, statistics,
    /// profile, UDFs — renewed by every `&mut self` change. A
    /// [`PreparedQuery`] runs only on the stamp it was planned on.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Something a plan may depend on is about to change.
    fn touch(&mut self) {
        self.version = NEXT_VERSION.fetch_add(1, Ordering::Relaxed);
    }

    /// Optimizer profile in effect.
    pub fn profile(&self) -> DbProfile {
        self.profile
    }

    /// Switch optimizer profile (used by the Experiment 4 harness to run
    /// the same loaded data under both profiles).
    pub fn set_profile(&mut self, profile: DbProfile) {
        self.touch();
        self.profile = profile;
    }

    /// Create an empty table. Errors if the name is taken.
    pub fn create_table(&mut self, schema: TableSchema) -> DbResult<()> {
        self.touch();
        let name = schema.name.clone();
        if self.tables.contains_key(&name) {
            return Err(DbError::Unsupported(format!("table {name} already exists")));
        }
        let schema = Arc::new(schema);
        self.tables.insert(
            name,
            TableEntry {
                table: Table::new((*schema).clone()),
                indexes: Vec::new(),
                histograms: HashMap::new(),
                schema,
            },
        );
        Ok(())
    }

    /// Make room for `additional` more rows in `table`, so that inserting
    /// them one by one never moves its storage.
    pub fn reserve(&mut self, table: &str, additional: usize) -> DbResult<()> {
        self.entry_mut(table)?.table.reserve(additional);
        Ok(())
    }

    /// Insert one row, maintaining indexes.
    pub fn insert(&mut self, table: &str, row: Row) -> DbResult<RowId> {
        self.touch();
        Ok(self.entry_mut(table)?.insert(row))
    }

    /// Bulk insert rows, maintaining indexes. Room for the rows the
    /// iterator promises is made once, up front: loading a table into
    /// storage grown by doubling would leave a trail of freed buffers of up
    /// to half its size behind.
    pub fn insert_all(
        &mut self,
        table: &str,
        rows: impl IntoIterator<Item = Row>,
    ) -> DbResult<()> {
        self.touch();
        let entry = self.entry_mut(table)?;
        let rows = rows.into_iter();
        entry.table.reserve(rows.size_hint().0);
        for row in rows {
            entry.insert(row);
        }
        Ok(())
    }

    fn entry_mut(&mut self, table: &str) -> DbResult<&mut TableEntry> {
        self.tables.get_mut(table).ok_or_else(|| DbError::UnknownTable(table.to_string()))
    }

    /// Create a secondary index over `column`. No-op if one already exists.
    pub fn create_index(&mut self, table: &str, column: &str) -> DbResult<()> {
        self.touch();
        let entry = self.entry_mut(table)?;
        if entry.index_on(column).is_some() {
            return Ok(());
        }
        let col = entry
            .schema
            .column_index(column)
            .ok_or_else(|| DbError::UnknownColumn(format!("{table}.{column}")))?;
        let rows = entry
            .table
            .rows()
            .iter()
            .enumerate()
            .map(|(i, r)| (i as RowId, r));
        let idx = Index::build(format!("idx_{table}_{column}"), col, column, rows);
        entry.indexes.push(idx);
        // Indexing a populated table refreshes the column's histogram in
        // the same step, so the planner's cost gate sees fresh statistics
        // immediately (CREATE INDEX on real engines analyzes as it builds).
        // An empty table keeps no histogram: a zero-row histogram would
        // pin estimates at 0 after later inserts, whereas the no-histogram
        // fallback reads exact index counts.
        if !entry.table.is_empty() {
            let h = Histogram::build(
                entry.table.rows().iter().map(|r| r[col].clone()),
                DEFAULT_BUCKETS,
            );
            entry.histograms.insert(column.to_string(), h);
        }
        Ok(())
    }

    /// Build histograms for every indexed column of `table` (ANALYZE).
    pub fn analyze(&mut self, table: &str) -> DbResult<()> {
        self.touch();
        let entry = self.entry_mut(table)?;
        let cols: Vec<(String, usize)> = entry
            .indexes
            .iter()
            .map(|i| (i.column_name.clone(), i.column))
            .collect();
        for (name, col) in cols {
            let h = Histogram::build(
                entry.table.rows().iter().map(|r| r[col].clone()),
                DEFAULT_BUCKETS,
            );
            entry.histograms.insert(name, h);
        }
        Ok(())
    }

    /// Table entry by name.
    pub fn table(&self, name: &str) -> DbResult<&TableEntry> {
        self.tables
            .get(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// True iff a table with this name exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Names of all tables (sorted; for diagnostics).
    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.tables.keys().map(|s| s.as_str()).collect();
        names.sort_unstable();
        names
    }

    /// Register a UDF.
    pub fn register_udf(&mut self, name: impl Into<String>, f: Arc<dyn Udf>) {
        self.touch();
        self.udfs.register(name, f);
    }

    /// The UDF registry.
    pub fn udfs(&self) -> &UdfRegistry {
        &self.udfs
    }

    /// Plan a query for repeated execution, executing nothing and charging
    /// no counter. Every query this database runs or explains is planned
    /// here.
    pub fn prepare_query(&self, query: &SelectQuery) -> DbResult<PreparedQuery> {
        crate::exec::prepare(self, query)
    }

    /// Run a prepared query under `opts`' deadline: no planning, just the
    /// plan. Refused with [`DbError::StalePlan`] unless this is the state
    /// it was prepared on.
    pub fn run_prepared(&self, prepared: &PreparedQuery, opts: &ExecOptions) -> DbResult<QueryResult> {
        crate::exec::run(self, prepared, opts).0
    }

    /// [`Database::run_timed`] under default options, its report dropped.
    pub fn run_query(&self, query: &SelectQuery) -> DbResult<QueryResult> {
        self.run_timed(query, &ExecOptions::default()).0
    }

    /// Execute a query once under `opts` (e.g. a timeout) — prepare, run —
    /// and report the run: its own counters (partial ones when it fails),
    /// wall time, and the simulated cost under the default weights.
    pub fn run_timed(
        &self,
        query: &SelectQuery,
        opts: &ExecOptions,
    ) -> (DbResult<QueryResult>, ExecStats) {
        let start = Instant::now();
        let (res, counters) = crate::exec::execute(self, query, opts);
        let wall = start.elapsed();
        let simulated_cost = counters.simulated_cost(&CostWeights::default());
        (res, ExecStats { counters, wall, simulated_cost })
    }

    /// EXPLAIN: the access-path decisions the planner would make, with
    /// estimated cardinalities (paper Section 5.5 uses this to cost
    /// strategies).
    pub fn explain(&self, query: &SelectQuery) -> DbResult<ExplainOutput> {
        self.explain_prepared(&self.prepare_query(query)?)
    }

    /// EXPLAIN of a prepared query: the plan [`Database::run_prepared`] runs,
    /// printed — for the state it was planned on, like a run.
    pub fn explain_prepared(&self, prepared: &PreparedQuery) -> DbResult<ExplainOutput> {
        if !prepared.planned_on(self) {
            return Err(DbError::StalePlan);
        }
        crate::explain::print(self, &prepared.plan)
    }

    /// Prepare `query` and hold the plan open in this database's statement
    /// table under a fresh id.
    pub fn prepare_statement(&self, query: &SelectQuery) -> DbResult<u64> {
        let pinned = self.prepare_query(query)?;
        let id = NEXT_STATEMENT.fetch_add(1, Ordering::Relaxed);
        self.statements.write().insert(id, pinned);
        Ok(id)
    }

    /// Run an open statement's pinned plan under `opts`' deadline.
    /// [`DbError::StalePlan`] when the id is not open here or the database
    /// has changed since it was prepared: the statement is dead, prepare a
    /// fresh one.
    pub fn execute_statement(&self, id: u64, opts: &ExecOptions) -> DbResult<QueryResult> {
        // Cloned out (an `Arc`): the table is not locked while a plan runs.
        let pinned = self.statements.read().get(&id).cloned().ok_or(DbError::StalePlan)?;
        self.run_prepared(&pinned, opts)
    }

    /// Close a statement; unknown and already closed ids are a no-op.
    pub fn close_statement(&self, id: u64) {
        self.statements.write().remove(&id);
    }

    /// Statements currently open.
    pub fn open_statements(&self) -> usize {
        self.statements.read().len()
    }

    /// Parse and run a SQL string.
    pub fn run_sql(&self, sql: &str) -> DbResult<QueryResult> {
        let query = crate::sql::parse(sql)?;
        self.run_query(&query)
    }
}

impl Clone for Database {
    /// Deep-copies tables, indexes and histograms; registered UDFs are
    /// shared (`Arc`), and the clone gets an empty statement table. Used
    /// by the experiment harness to run one loaded dataset under several
    /// configurations.
    fn clone(&self) -> Self {
        Database {
            tables: self.tables.clone(),
            udfs: self.udfs.clone(),
            profile: self.profile,
            // The same state, so the same stamp, until either changes.
            version: self.version,
            statements: RwLock::new(HashMap::new()),
        }
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("tables", &self.table_names())
            .field("profile", &self.profile)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{DataType, Value};

    fn db_with_table() -> Database {
        let mut db = Database::new(DbProfile::MySqlLike);
        db.create_table(TableSchema::of(
            "t",
            &[("id", DataType::Int), ("owner", DataType::Int)],
        ))
        .unwrap();
        for i in 0..50i64 {
            db.insert("t", vec![Value::Int(i), Value::Int(i % 5)]).unwrap();
        }
        db
    }

    #[test]
    fn create_insert_index_analyze() {
        let mut db = db_with_table();
        db.create_index("t", "owner").unwrap();
        db.analyze("t").unwrap();
        let entry = db.table("t").unwrap();
        assert!(entry.has_index("owner"));
        assert!(!entry.has_index("id"));
        let h = entry.histogram("owner").unwrap();
        assert_eq!(h.total(), 50);
        assert_eq!(h.distinct(), 5);
    }

    #[test]
    fn index_maintained_on_insert() {
        let mut db = db_with_table();
        db.create_index("t", "owner").unwrap();
        db.insert("t", vec![Value::Int(100), Value::Int(99)]).unwrap();
        let entry = db.table("t").unwrap();
        let hits = entry.index_on("owner").unwrap().lookup(&Value::Int(99), &Default::default());
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut db = db_with_table();
        let err = db.create_table(TableSchema::of("t", &[("x", DataType::Int)]));
        assert!(err.is_err());
    }

    #[test]
    fn unknown_table_errors() {
        let db = Database::new(DbProfile::PostgresLike);
        assert!(matches!(db.table("nope"), Err(DbError::UnknownTable(_))));
    }

    #[test]
    fn statements_pin_a_plan_until_the_database_changes() {
        use crate::expr::{ColumnRef, Expr};
        let mut db = db_with_table();
        db.create_index("t", "owner").unwrap();
        let q =
            SelectQuery::star_from("t").filter(Expr::col_eq(ColumnRef::bare("owner"), Value::Int(3)));
        let fresh = db.run_query(&q).unwrap();
        assert_eq!(fresh.len(), 10);
        let id = db.prepare_statement(&q).unwrap();
        let opts = ExecOptions::default();
        assert_eq!(db.execute_statement(id, &opts).as_ref(), Ok(&fresh));
        // The call supplies the deadline.
        let expired = ExecOptions::with_timeout(std::time::Duration::ZERO);
        assert_eq!(db.execute_statement(id, &expired), Err(DbError::Timeout));
        // A clone is the same state but another database: a plan of this
        // one runs there, a statement id of this one means nothing.
        let twin = db.clone();
        let prepared = db.prepare_query(&q).unwrap();
        assert_eq!(twin.run_prepared(&prepared, &opts).as_ref(), Ok(&fresh));
        assert_eq!(twin.open_statements(), 0);
        assert_eq!(twin.execute_statement(id, &opts), Err(DbError::StalePlan));
        // Any change kills the statement and the plan, whatever it changed.
        db.insert("t", vec![Value::Int(50), Value::Int(0)]).unwrap();
        assert_eq!(db.execute_statement(id, &opts), Err(DbError::StalePlan));
        assert_eq!(db.run_prepared(&prepared, &opts), Err(DbError::StalePlan));
        assert!(matches!(db.explain_prepared(&prepared), Err(DbError::StalePlan)));
        assert_eq!(twin.run_prepared(&prepared, &opts).as_ref(), Ok(&fresh));
        assert_eq!(db.open_statements(), 1);
        db.close_statement(id);
        db.close_statement(id);
        assert_eq!(db.open_statements(), 0);
    }

    #[test]
    fn create_index_idempotent() {
        let mut db = db_with_table();
        db.create_index("t", "owner").unwrap();
        db.create_index("t", "owner").unwrap();
        assert_eq!(db.table("t").unwrap().indexes.len(), 1);
    }

    #[test]
    fn create_index_on_populated_table_refreshes_histogram() {
        use crate::expr::{ColumnRef, Expr};
        let mut db = db_with_table();
        // Index built after the inserts, with NO explicit ANALYZE: the
        // planner's cost gate must still see fresh statistics.
        db.create_index("t", "owner").unwrap();
        let entry = db.table("t").unwrap();
        let h = entry.histogram("owner").expect("histogram built with index");
        assert_eq!(h.total(), 50);
        assert_eq!(h.distinct(), 5);
        // And the gate acts on them: owner = 3 is 10/50 = 20% ≤ 25%, so
        // the unhinted MySQL-like planner picks the index immediately.
        let q = SelectQuery::star_from("t")
            .filter(Expr::col_eq(ColumnRef::bare("owner"), Value::Int(3)));
        let e = db.explain(&q).unwrap();
        assert!(
            e.relations[0].access_desc.starts_with("IndexScan"),
            "got {}",
            e.relations[0].access_desc
        );
        assert!((e.relations[0].est_rows - 10.0).abs() < 1.0);
    }

    #[test]
    fn create_index_on_empty_table_defers_statistics() {
        let mut db = Database::new(DbProfile::MySqlLike);
        db.create_table(TableSchema::of(
            "e",
            &[("id", DataType::Int), ("owner", DataType::Int)],
        ))
        .unwrap();
        db.create_index("e", "owner").unwrap();
        // No zero-row histogram pinned: estimates fall back to exact
        // index counts, which track subsequent inserts.
        assert!(db.table("e").unwrap().histogram("owner").is_none());
        for i in 0..50i64 {
            db.insert("e", vec![Value::Int(i), Value::Int(i % 5)]).unwrap();
        }
        use crate::expr::{ColumnRef, Expr};
        let q = SelectQuery::star_from("e")
            .filter(Expr::col_eq(ColumnRef::bare("owner"), Value::Int(1)));
        let e = db.explain(&q).unwrap();
        assert!((e.relations[0].est_rows - 10.0).abs() < f64::EPSILON);
    }

    /// A NaN sorts above every number in `Value`'s order; building the
    /// histogram puts it there too, so indexing a column that holds one
    /// succeeds, and estimates over it stay finite.
    #[test]
    fn create_index_on_a_nan_column_succeeds_and_estimates_stay_finite() {
        use crate::index::RangeBound;
        let mut db = Database::new(DbProfile::MySqlLike);
        db.create_table(TableSchema::of("d", &[("v", DataType::Double)])).unwrap();
        for i in 0..100 {
            let v = if i % 10 == 0 { f64::NAN } else { i as f64 / 4.0 };
            db.insert("d", vec![Value::Double(v)]).unwrap();
        }
        db.create_index("d", "v").unwrap();
        db.analyze("d").unwrap();
        let h = db.table("d").unwrap().histogram("v").unwrap();
        assert_eq!((h.total(), h.distinct()), (100, 91));
        let (nan, two) = (Value::Double(f64::NAN), Value::Double(2.0));
        for est in [
            h.estimate_eq(&nan),
            h.estimate_eq(&two),
            h.estimate_in(&[nan.clone(), two.clone()]),
            h.estimate_range(&RangeBound::Unbounded, &RangeBound::Unbounded),
            h.estimate_range(&RangeBound::Inclusive(two.clone()), &RangeBound::Unbounded),
            h.estimate_range(&RangeBound::Inclusive(two), &RangeBound::Inclusive(nan.clone())),
            h.estimate_range(&RangeBound::Exclusive(nan), &RangeBound::Unbounded),
        ] {
            assert!(est.is_finite() && (0.0..=100.0).contains(&est), "{est}");
        }
    }
}
