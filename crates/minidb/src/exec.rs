//! Query execution: prepare → run.
//!
//! `prepare` ([`Database::prepare_query`]) has [`crate::planner`] build the
//! query's plan value — the one place a top-level query is planned — and
//! hands it out as a [`PreparedQuery`], charging no counter. `run`
//! ([`Database::run_prepared`]) runs one, any number of times: the WITH
//! bodies the plan keeps as temps first (a body read once is none: the
//! planner merged it into its reader's base-table read), then the body —
//! the first input through its access plan, left-deep joins in FROM order
//! (index nested-loop, hash or cross, as the plan says), the residual
//! filter, GROUP BY/aggregates or projection, and LIMIT. `execute` is the
//! two in a row, for a query run once ([`Database::run_timed`]). The
//! executor is a materializing interpreter of the plan and decides nothing
//! itself: a run plans nothing — a correlated subquery's body was planned
//! with the predicate that holds it — and leaves nothing in the plan. All
//! data movement is charged to the run's own [`Tally`], created on its
//! stack and handed by `&` to every operator, filter and UDF of the run,
//! correlated subqueries included; the run returns the [`Counters`] beside
//! its result, partial ones when it fails. Two runs never share a tally,
//! so runs that overlap on one database count apart.

use crate::catalog::{Database, TableEntry};
use crate::error::{DbError, DbResult};
use crate::expr::{EvalContext, FilterProgram, QueryRunner};
use crate::index::RowIdSet;
use crate::plan::{AggFunc, SelectQuery};
use crate::planner::{
    plan_query, AccessPlan, AggOut, IndexProbe, Input, Output, QueryPlan, Read, Subplan, TempSource,
};
use crate::stats::{Counters, Tally};
use crate::table::{Row, RowId, ROWS_PER_PAGE};
use crate::value::Value;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Execution options.
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    /// Abort with [`DbError::Timeout`] when execution exceeds this. The
    /// paper's Experiment 3 uses a 30 s timeout.
    pub timeout: Option<Duration>,
}

impl ExecOptions {
    /// Options with a timeout.
    pub fn with_timeout(timeout: Duration) -> Self {
        ExecOptions { timeout: Some(timeout) }
    }
}

/// A materialized query result.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Row>,
}

impl QueryResult {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Position of an output column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }
}

/// Materialized WITH results by name, shared by reference.
type Temps = Arc<HashMap<String, Arc<Vec<Row>>>>;

/// Rows evaluated per filter batch: big enough to amortize the deadline
/// check and selection-vector bookkeeping, small enough to stay cache-hot.
const FILTER_BATCH: usize = 1024;

/// Concatenate an outer and inner row into one joined output row with a
/// single exact-size allocation.
fn concat_rows(orow: &[Value], irow: &[Value]) -> Row {
    let mut combined = Vec::with_capacity(orow.len() + irow.len());
    combined.extend_from_slice(orow);
    combined.extend_from_slice(irow);
    combined
}

/// A query planned for one state of one database: what
/// [`Database::prepare_query`] hands out and [`Database::run_prepared`]
/// executes. Cheap to clone — the plan is shared — and sound to keep:
/// running it where it would not be the plan of a fresh prepare is refused
/// with [`DbError::StalePlan`], never answered from the old plan.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    pub(crate) plan: Arc<QueryPlan>,
    /// The [`Database::version`] the plan was chosen on.
    version: u64,
}

impl PreparedQuery {
    /// True iff `db` is in the state the plan was chosen on: catalog,
    /// statistics, profile, weights and UDFs.
    pub(crate) fn planned_on(&self, db: &Database) -> bool {
        self.version == db.version()
    }
}

/// Plan a query for repeated execution. Reads no row, charges no counter.
pub(crate) fn prepare(db: &Database, query: &SelectQuery) -> DbResult<PreparedQuery> {
    let plan = plan_query(db, query, "", &mut Vec::new(), &HashSet::new())?;
    Ok(PreparedQuery { plan: Arc::new(plan), version: db.version() })
}

/// Run a prepared query on the database it was planned for, and report
/// what the run charged.
pub(crate) fn run(
    db: &Database,
    prepared: &PreparedQuery,
    opts: &ExecOptions,
) -> (DbResult<QueryResult>, Counters) {
    if !prepared.planned_on(db) {
        return (Err(DbError::StalePlan), Counters::default());
    }
    let tally = Tally::default();
    let exec = Exec {
        db,
        tally: &tally,
        temps: Arc::new(HashMap::new()),
        deadline: opts.timeout.map(|t| Instant::now() + t),
        params: Arc::new(HashMap::new()),
    };
    let res = exec.run(&prepared.plan).map(|rows| QueryResult {
        rows,
        columns: prepared.plan.schema.columns.iter().map(|c| c.name.clone()).collect(),
    });
    (res, tally.counters())
}

/// Execute a query once: prepare it, then run that.
pub(crate) fn execute(
    db: &Database,
    query: &SelectQuery,
    opts: &ExecOptions,
) -> (DbResult<QueryResult>, Counters) {
    match prepare(db, query) {
        Ok(prepared) => run(db, &prepared, opts),
        Err(e) => (Err(e), Counters::default()),
    }
}

struct Exec<'a> {
    db: &'a Database,
    /// The run's tally, shared by reference with every sub-executor.
    tally: &'a Tally,
    /// Materialized WITH results, shared by reference with every
    /// sub-executor (correlated subqueries spawn one per outer row).
    temps: Temps,
    deadline: Option<Instant>,
    /// Correlation parameters, shared the same way.
    params: Arc<HashMap<String, Value>>,
}

impl QueryRunner for Exec<'_> {
    fn run_subquery(&self, plan: &Subplan, params: HashMap<String, Value>) -> DbResult<Vec<Row>> {
        let nested = Exec {
            params: Arc::new(params),
            ..self.with_temps(Arc::clone(&self.temps))
        };
        nested.run(&plan.0)
    }
}

impl<'a> Exec<'a> {
    fn check_deadline(&self) -> DbResult<()> {
        if let Some(d) = self.deadline {
            if Instant::now() > d {
                return Err(DbError::Timeout);
            }
        }
        Ok(())
    }

    fn eval_ctx(&'a self) -> EvalContext<'a> {
        EvalContext {
            tally: self.tally,
            udfs: self.db.udfs(),
            runner: Some(self),
            params: &self.params,
        }
    }

    /// This executor, seeing `temps`.
    fn with_temps(&self, temps: Temps) -> Exec<'a> {
        Exec {
            db: self.db,
            tally: self.tally,
            temps,
            deadline: self.deadline,
            params: Arc::clone(&self.params),
        }
    }

    fn run(&self, plan: &QueryPlan) -> DbResult<Vec<Row>> {
        if plan.ctes.is_empty() {
            return self.run_body(plan);
        }
        // Each WITH clause sees the ones before it; only the map itself is
        // rebuilt, the materialized tables are shared by Arc.
        let mut temps = (*self.temps).clone();
        for (name, cte) in &plan.ctes {
            let nested = self.with_temps(Arc::new(temps));
            let rows = nested.run(cte)?;
            temps = Arc::try_unwrap(nested.temps).unwrap_or_else(|a| (*a).clone());
            temps.insert(name.clone(), Arc::new(rows));
        }
        self.with_temps(Arc::new(temps)).run_body(plan)
    }

    fn run_body(&self, plan: &QueryPlan) -> DbResult<Vec<Row>> {
        let mut rows = Vec::new();
        for (k, input) in plan.inputs.iter().enumerate() {
            rows = if k == 0 { self.read(input)? } else { self.join(rows, input)? };
        }

        // Residual predicate (multi-table non-equi-join conjuncts).
        if !matches!(plan.residual, FilterProgram::KeepAll) {
            let ctx = self.eval_ctx();
            // Batch into a keep-mask, then compact in place: survivors are
            // moved, never cloned.
            let mut keep = vec![false; rows.len()];
            let mut sel: Vec<u32> = Vec::with_capacity(FILTER_BATCH);
            let mut base = 0usize;
            for chunk in rows.chunks(FILTER_BATCH) {
                self.check_deadline()?;
                sel.clear();
                plan.residual.select_into(chunk, |r| r.as_slice(), &ctx, &mut sel)?;
                for &i in &sel {
                    keep[base + i as usize] = true;
                }
                base += chunk.len();
            }
            let mut it = keep.into_iter();
            rows.retain(|_| it.next().unwrap_or(false));
        }

        let mut rows = match &plan.output {
            Output::Rows => rows,
            Output::Project(slots) => rows
                .into_iter()
                .map(|r| slots.iter().map(|&s| r[s].clone()).collect())
                .collect(),
            Output::Aggregate { group_slots, aggs, outs } => {
                self.aggregate(group_slots, aggs, outs, rows)?
            }
        };
        if let Some(limit) = plan.limit {
            rows.truncate(limit);
        }
        self.tally.outputs(rows.len() as u64);
        Ok(rows)
    }

    /// Produce an input's rows on their own, its local filter applied: the
    /// first input, and the inner side of a hash or cross join.
    fn read(&self, input: &Input) -> DbResult<Vec<Row>> {
        let ctx = self.eval_ctx();
        let mut out = Vec::new();
        match &input.read {
            Read::Temp(source) => {
                let (cte, derived);
                let rows: &[Row] = match source {
                    TempSource::Cte(name) => {
                        let missing = || DbError::UnknownTable(name.clone());
                        cte = self.temps.get(name).ok_or_else(missing)?;
                        cte
                    }
                    TempSource::Derived(plan) => {
                        derived = self.run(plan)?;
                        &derived
                    }
                };
                // Constant-false predicates (e.g. a guarded expression
                // with no guards — default deny) read nothing.
                if !input.local.drops_all() {
                    self.tally.seq_pages(rows.len().div_ceil(ROWS_PER_PAGE) as u64);
                    self.tally.tuples(rows.len() as u64);
                    self.filter_batched(rows, &input.local, &ctx, &mut out)?;
                }
            }
            Read::Access { table, plan } => {
                if !input.local.drops_all() {
                    out = self.scan_base(self.db.table(table)?, plan, &input.local, &ctx)?;
                }
            }
            Read::Lookup { table, .. } => {
                return Err(DbError::Unsupported(format!("index lookup of {table} with no outer row")))
            }
        }
        Ok(out)
    }

    /// Drive owned rows through a filter program in batches, cloning only
    /// survivors into `out`.
    fn filter_batched(
        &self,
        rows: &[Row],
        program: &FilterProgram,
        ctx: &EvalContext<'_>,
        out: &mut Vec<Row>,
    ) -> DbResult<()> {
        let mut sel: Vec<u32> = Vec::with_capacity(FILTER_BATCH);
        for chunk in rows.chunks(FILTER_BATCH) {
            self.check_deadline()?;
            sel.clear();
            program.select_into(chunk, |r| r.as_slice(), ctx, &mut sel)?;
            out.extend(sel.iter().map(|&i| chunk[i as usize].clone()));
        }
        Ok(())
    }

    /// The union of the row ids `probes` match.
    fn probe_set(&self, entry: &TableEntry, probes: &[IndexProbe]) -> DbResult<RowIdSet> {
        let mut set = RowIdSet::new(entry.table.len());
        for p in probes {
            self.check_deadline()?;
            p.run_into(entry, self.tally, &mut set);
        }
        Ok(set)
    }

    /// One heap fetch of a row-id set, in page order, then the conjuncts
    /// the probes left open — none when they were exact.
    fn fetch_set(
        &self,
        entry: &TableEntry,
        ids: &RowIdSet,
        program: &FilterProgram,
        ctx: &EvalContext<'_>,
    ) -> DbResult<Vec<Row>> {
        self.check_deadline()?;
        let fetched = entry.table.fetch(&ids.ids(), self.tally);
        if let FilterProgram::KeepAll = program {
            return Ok(fetched.into_iter().map(|(_, r)| r.clone()).collect());
        }
        let mut sel: Vec<u32> = Vec::with_capacity(FILTER_BATCH);
        let mut out = Vec::new();
        for batch in fetched.chunks(FILTER_BATCH) {
            self.check_deadline()?;
            sel.clear();
            program.select_into(batch, |(_, r)| r.as_slice(), ctx, &mut sel)?;
            out.extend(sel.iter().map(|&i| batch[i as usize].1.clone()));
        }
        Ok(out)
    }

    fn scan_base(
        &self,
        entry: &TableEntry,
        plan: &AccessPlan,
        program: &FilterProgram,
        ctx: &EvalContext<'_>,
    ) -> DbResult<Vec<Row>> {
        match plan {
            AccessPlan::SeqScan => {
                // Same accounting as `Table::scan` (every page once,
                // sequentially, one tuple read per row), but filtering
                // directly over the contiguous row slice in batches.
                self.tally.seq_pages(entry.table.page_count());
                self.tally.tuples(entry.table.len() as u64);
                let mut out = Vec::new();
                self.filter_batched(entry.table.rows(), program, ctx, &mut out)?;
                Ok(out)
            }
            AccessPlan::IndexIntersect { probes, .. } => {
                // AND the probes' row-id sets, fetch the survivors once.
                let mut ids = self.probe_set(entry, &probes[..1])?;
                for p in &probes[1..] {
                    ids.intersect(&self.probe_set(entry, std::slice::from_ref(p))?);
                }
                self.fetch_set(entry, &ids, program, ctx)
            }
            AccessPlan::IndexOr { probes, bitmap, .. } => {
                if *bitmap {
                    // PostgreSQL-style: OR the row-id bitmaps, fetch once.
                    let ids = self.probe_set(entry, probes)?;
                    self.fetch_set(entry, &ids, program, ctx)
                } else {
                    // MySQL-style UNION: each branch fetches independently
                    // (duplicated pages are re-read), dedup afterwards.
                    let mut seen: HashSet<RowId> = HashSet::new();
                    let mut out = Vec::new();
                    let mut batch: Vec<(RowId, &Row)> = Vec::with_capacity(FILTER_BATCH);
                    let mut sel: Vec<u32> = Vec::with_capacity(FILTER_BATCH);
                    for p in probes {
                        self.check_deadline()?;
                        let ids = p.run(entry, self.tally);
                        let fetched = entry.table.fetch(&ids, self.tally);
                        if let FilterProgram::KeepAll = program {
                            // Exact union: keep every not-yet-seen row.
                            for (id, row) in fetched {
                                if seen.insert(id) {
                                    out.push(row.clone());
                                }
                            }
                            continue;
                        }
                        let mut fetched = fetched.into_iter();
                        loop {
                            batch.clear();
                            batch.extend(
                                fetched
                                    .by_ref()
                                    .filter(|(id, _)| !seen.contains(id))
                                    .take(FILTER_BATCH),
                            );
                            if batch.is_empty() {
                                break;
                            }
                            sel.clear();
                            program.select_into(&batch, |(_, r)| r.as_slice(), ctx, &mut sel)?;
                            for &i in &sel {
                                let (id, row) = batch[i as usize];
                                seen.insert(id);
                                out.push(row.clone());
                            }
                        }
                    }
                    Ok(out)
                }
            }
        }
    }

    /// Join the rows accumulated so far with one more input, on the keys
    /// and by the method its plan names.
    fn join(&self, outer_rows: Vec<Row>, input: &Input) -> DbResult<Vec<Row>> {
        // Every extra join key must agree; one evaluation charged per key
        // compared.
        let keys_match = |extra: &[(usize, usize)], orow: &[Value], irow: &[Value]| {
            extra.iter().all(|&(outer, own)| {
                self.tally.predicates(1);
                orow[outer] == irow[own]
            })
        };
        let mut out = Vec::new();
        match (input.keys.split_first(), &input.read) {
            (Some(_), Read::Lookup { .. }) if input.local.drops_all() => {}
            (Some((&(outer, _), extra)), Read::Lookup { table, index }) => {
                // Index nested loop: probe the inner index per outer row.
                let entry = self.db.table(table)?;
                let idx = &entry.indexes[*index];
                let ctx = self.eval_ctx();
                for (i, orow) in outer_rows.iter().enumerate() {
                    if i % 512 == 0 {
                        self.check_deadline()?;
                    }
                    let ids = idx.postings(&orow[outer], self.tally);
                    if ids.is_empty() {
                        continue;
                    }
                    for (_, irow) in entry.table.fetch(ids, self.tally) {
                        if input.local.matches(irow, &ctx)? && keys_match(extra, orow, irow) {
                            out.push(concat_rows(orow, irow));
                        }
                    }
                }
            }
            (Some((&(outer, own), extra)), _) => {
                // Hash join on the first key over the materialized inner
                // side. Build and probe borrow the rows — no key clones, no
                // intermediate row copies; only joined output rows allocate.
                let inner_rows = self.read(input)?;
                let mut ht: HashMap<&Value, Vec<&Row>> = HashMap::new();
                for r in &inner_rows {
                    ht.entry(&r[own]).or_default().push(r);
                }
                for (i, orow) in outer_rows.iter().enumerate() {
                    if i % 1024 == 0 {
                        self.check_deadline()?;
                    }
                    for irow in ht.get(&orow[outer]).into_iter().flatten() {
                        if keys_match(extra, orow, irow) {
                            out.push(concat_rows(orow, irow));
                        }
                    }
                }
            }
            (None, _) => {
                // Cartesian product (only sensible for tiny inputs).
                let inner_rows = self.read(input)?;
                out.reserve(outer_rows.len() * inner_rows.len());
                for orow in &outer_rows {
                    self.check_deadline()?;
                    out.extend(inner_rows.iter().map(|irow| concat_rows(orow, irow)));
                }
            }
        }
        Ok(out)
    }

    fn aggregate(
        &self,
        group_slots: &[usize],
        aggs: &[(AggFunc, Option<usize>)],
        outs: &[AggOut],
        rows: Vec<Row>,
    ) -> DbResult<Vec<Row>> {
        #[derive(Clone)]
        enum Acc {
            Count(u64),
            Distinct(HashSet<Value>),
            SumInt(i64), // promoted to SumDouble on the first non-integer input
            SumDouble(f64),
            Min(Option<Value>),
            Max(Option<Value>),
            Avg(f64, u64),
        }

        let new_acc = |&(func, _): &(AggFunc, Option<usize>)| match func {
            AggFunc::Count => Acc::Count(0),
            AggFunc::CountDistinct => Acc::Distinct(HashSet::new()),
            AggFunc::Sum => Acc::SumInt(0),
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
            AggFunc::Avg => Acc::Avg(0.0, 0),
        };

        let mut groups: HashMap<Vec<Value>, Vec<Acc>> = HashMap::new();
        for (i, row) in rows.iter().enumerate() {
            if i % 4096 == 0 {
                self.check_deadline()?;
            }
            let key: Vec<Value> = group_slots.iter().map(|&s| row[s].clone()).collect();
            let accs = groups
                .entry(key)
                .or_insert_with(|| aggs.iter().map(new_acc).collect());
            for (&(_, slot), acc) in aggs.iter().zip(accs.iter_mut()) {
                let v = slot.map(|s| &row[s]);
                match acc {
                    Acc::Count(n) => {
                        if slot.is_none() || v.is_some_and(|v| !v.is_null()) {
                            *n += 1;
                        }
                    }
                    Acc::Distinct(set) => {
                        if let Some(v) = v {
                            if !v.is_null() {
                                set.insert(v.clone());
                            }
                        }
                    }
                    Acc::SumInt(sum) => match v {
                        Some(Value::Int(x)) => *sum += x,
                        Some(Value::Double(x)) => {
                            let d = *sum as f64 + x;
                            *acc = Acc::SumDouble(d);
                        }
                        _ => {}
                    },
                    Acc::SumDouble(sum) => {
                        if let Some(x) = v.and_then(|v| v.as_double()) {
                            *sum += x;
                        }
                    }
                    Acc::Min(m) => {
                        if let Some(v) = v {
                            if !v.is_null() && m.as_ref().is_none_or(|cur| v < cur) {
                                *m = Some(v.clone());
                            }
                        }
                    }
                    Acc::Max(m) => {
                        if let Some(v) = v {
                            if !v.is_null() && m.as_ref().is_none_or(|cur| v > cur) {
                                *m = Some(v.clone());
                            }
                        }
                    }
                    Acc::Avg(sum, n) => {
                        if let Some(x) = v.and_then(|v| v.as_double()) {
                            *sum += x;
                            *n += 1;
                        }
                    }
                }
            }
        }

        // A global aggregate (no GROUP BY) over empty input still yields
        // one row (COUNT(*) = 0, SUM = NULL, …), per SQL semantics.
        if group_slots.is_empty() && groups.is_empty() {
            groups.insert(Vec::new(), aggs.iter().map(new_acc).collect());
        }

        // Deterministic output order: sort by group key.
        let mut entries: Vec<(Vec<Value>, Vec<Acc>)> = groups.into_iter().collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));

        let mut out_rows = Vec::with_capacity(entries.len());
        for (key, accs) in entries {
            let mut row = Vec::with_capacity(outs.len());
            for o in outs {
                match o {
                    AggOut::Group(gidx) => row.push(key[*gidx].clone()),
                    AggOut::Agg(aidx) => row.push(match &accs[*aidx] {
                        Acc::Count(n) => Value::Int(*n as i64),
                        Acc::Distinct(s) => Value::Int(s.len() as i64),
                        Acc::SumInt(s) => Value::Int(*s),
                        Acc::SumDouble(s) => Value::Double(*s),
                        Acc::Min(v) | Acc::Max(v) => v.clone().unwrap_or(Value::Null),
                        Acc::Avg(s, n) => {
                            if *n == 0 {
                                Value::Null
                            } else {
                                Value::Double(s / *n as f64)
                            }
                        }
                    }),
                }
            }
            out_rows.push(row);
        }

        Ok(out_rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{ColumnRef, Expr};
    use crate::plan::{IndexHint, SelectItem, TableRef, TableSource};
    use crate::planner::DbProfile;
    use crate::schema::TableSchema;
    use crate::value::DataType;

    fn sample_db(profile: DbProfile) -> Database {
        let mut db = Database::new(profile);
        db.create_table(TableSchema::of(
            "wifi",
            &[
                ("id", DataType::Int),
                ("owner", DataType::Int),
                ("wifi_ap", DataType::Int),
                ("ts_time", DataType::Time),
            ],
        ))
        .unwrap();
        for i in 0..1000i64 {
            db.insert(
                "wifi",
                vec![
                    Value::Int(i),
                    Value::Int(i % 50),
                    Value::Int(1000 + i % 10),
                    Value::Time(((i * 61) % 86400) as u32),
                ],
            )
            .unwrap();
        }
        db.create_index("wifi", "owner").unwrap();
        db.create_index("wifi", "wifi_ap").unwrap();
        db.analyze("wifi").unwrap();

        db.create_table(TableSchema::of(
            "membership",
            &[("user_id", DataType::Int), ("group_id", DataType::Int)],
        ))
        .unwrap();
        for u in 0..50i64 {
            db.insert("membership", vec![Value::Int(u), Value::Int(u % 5)])
                .unwrap();
        }
        db.create_index("membership", "user_id").unwrap();
        db.analyze("membership").unwrap();
        db
    }

    #[test]
    fn select_star_filter() {
        let db = sample_db(DbProfile::MySqlLike);
        let q = SelectQuery::star_from("wifi")
            .filter(Expr::col_eq(ColumnRef::bare("owner"), Value::Int(7)));
        let res = db.run_query(&q).unwrap();
        assert_eq!(res.len(), 20);
        assert_eq!(res.columns, vec!["id", "owner", "wifi_ap", "ts_time"]);
    }

    #[test]
    fn seq_and_index_agree() {
        let db_m = sample_db(DbProfile::MySqlLike);
        let db_p = sample_db(DbProfile::PostgresLike);
        let pred = Expr::or(
            Expr::col_eq(ColumnRef::bare("owner"), Value::Int(3)),
            Expr::col_eq(ColumnRef::bare("owner"), Value::Int(4)),
        );
        let q = SelectQuery::star_from("wifi").filter(pred);
        let mut a = db_m.run_query(&q).unwrap().rows;
        let mut b = db_p.run_query(&q).unwrap().rows;
        a.sort();
        b.sort();
        assert_eq!(a.len(), 40);
        assert_eq!(a, b);
    }

    #[test]
    fn forced_union_matches_scan_results() {
        let db = sample_db(DbProfile::MySqlLike);
        let pred = Expr::or(
            Expr::col_eq(ColumnRef::bare("owner"), Value::Int(3)),
            Expr::col_eq(ColumnRef::bare("wifi_ap"), Value::Int(1001)),
        );
        let forced = SelectQuery {
            from: vec![TableRef::named("wifi")
                .with_hint(IndexHint::Force(vec!["owner".into(), "wifi_ap".into()]))],
            ..SelectQuery::star_from("wifi")
        }
        .filter(pred.clone());
        let scanned = SelectQuery {
            from: vec![TableRef::named("wifi").with_hint(IndexHint::IgnoreAll)],
            ..SelectQuery::star_from("wifi")
        }
        .filter(pred);
        let mut a = db.run_query(&forced).unwrap().rows;
        let mut b = db.run_query(&scanned).unwrap().rows;
        a.sort();
        b.sort();
        assert_eq!(a, b);
        // owner=3 (i%50==3) gives 20 rows, ap=1001 (i%10==1) gives 100;
        // i≡3 (mod 50) implies i%10==3, so the sets are disjoint → 120.
        assert_eq!(a.len(), 120);
    }

    #[test]
    fn with_clause_creates_temp() {
        let db = sample_db(DbProfile::MySqlLike);
        let inner = SelectQuery::star_from("wifi")
            .filter(Expr::col_eq(ColumnRef::bare("owner"), Value::Int(1)));
        let outer = SelectQuery::star_from("wifi_pol")
            .with_clause("wifi_pol", inner)
            .filter(Expr::col_eq(ColumnRef::bare("wifi_ap"), Value::Int(1001)));
        let res = db.run_query(&outer).unwrap();
        // owner=1: ids 1, 51, 101, ... (20 rows); of those ap=1001 means id%10==1.
        assert!(res.rows.iter().all(|r| r[1] == Value::Int(1)));
        assert!(res.rows.iter().all(|r| r[2] == Value::Int(1001)));
        assert!(!res.is_empty());
    }

    #[test]
    fn join_via_index_nested_loop() {
        let db = sample_db(DbProfile::MySqlLike);
        // Devices of group 2 = owners {2, 7, 12, ...}: 10 owners × 20 rows.
        let q = SelectQuery {
            with: vec![],
            select: vec![SelectItem::Star],
            from: vec![
                TableRef::aliased("membership", "m"),
                TableRef::aliased("wifi", "w"),
            ],
            predicate: Some(Expr::all(vec![
                Expr::col_eq(ColumnRef::qualified("m", "group_id"), Value::Int(2)),
                Expr::Cmp {
                    op: CmpOp::Eq,
                    lhs: Box::new(Expr::Column(ColumnRef::qualified("m", "user_id"))),
                    rhs: Box::new(Expr::Column(ColumnRef::qualified("w", "owner"))),
                },
            ])),
            group_by: vec![],
            limit: None,
        };
        let res = db.run_query(&q).unwrap();
        assert_eq!(res.len(), 200);
        assert_eq!(res.columns.len(), 6);
    }

    use crate::expr::CmpOp;

    #[test]
    fn group_by_count_and_sum() {
        let db = sample_db(DbProfile::MySqlLike);
        let q = SelectQuery {
            with: vec![],
            select: vec![
                SelectItem::Column {
                    column: ColumnRef::bare("wifi_ap"),
                    alias: None,
                },
                SelectItem::Aggregate {
                    func: AggFunc::Count,
                    column: None,
                    alias: Some("n".into()),
                },
                SelectItem::Aggregate {
                    func: AggFunc::CountDistinct,
                    column: Some(ColumnRef::bare("owner")),
                    alias: Some("owners".into()),
                },
            ],
            from: vec![TableRef::named("wifi")],
            predicate: None,
            group_by: vec![ColumnRef::bare("wifi_ap")],
            limit: None,
        };
        let res = db.run_query(&q).unwrap();
        assert_eq!(res.len(), 10);
        for row in &res.rows {
            assert_eq!(row[1], Value::Int(100));
            // owners per AP: ids with same i%10 → owners i%50 cycle of 5.
            assert_eq!(row[2], Value::Int(5));
        }
    }

    #[test]
    fn scalar_subquery_correlated() {
        let db = sample_db(DbProfile::MySqlLike);
        // For each membership row of group 0, check owner has wifi rows:
        // WHERE m.user_id = (SELECT w.owner FROM wifi w WHERE w.owner = m.user_id LIMIT 1)
        let sub = SelectQuery {
            with: vec![],
            select: vec![SelectItem::Column {
                column: ColumnRef::qualified("w", "owner"),
                alias: None,
            }],
            from: vec![TableRef::aliased("wifi", "w")],
            predicate: Some(Expr::Cmp {
                op: CmpOp::Eq,
                lhs: Box::new(Expr::Column(ColumnRef::qualified("w", "owner"))),
                rhs: Box::new(Expr::Column(ColumnRef::qualified("m", "user_id"))),
            }),
            group_by: vec![],
            limit: Some(1),
        };
        let q = SelectQuery {
            with: vec![],
            select: vec![SelectItem::Star],
            from: vec![TableRef::aliased("membership", "m")],
            predicate: Some(Expr::Cmp {
                op: CmpOp::Eq,
                lhs: Box::new(Expr::Column(ColumnRef::qualified("m", "user_id"))),
                rhs: Box::new(Expr::ScalarSubquery(Box::new(sub))),
            }),
            group_by: vec![],
            limit: None,
        };
        let res = db.run_query(&q).unwrap();
        assert_eq!(res.len(), 50); // every member has wifi rows
    }

    /// A derived-value condition over 100 outer rows: its body is planned
    /// once, with the predicate that holds it, and run once per row — the
    /// rows and every counter are those of planning it per row.
    #[test]
    fn correlated_subquery_is_planned_once_per_outer_plan() {
        let db = sample_db(DbProfile::MySqlLike);
        let q = crate::sql::parse(
            "SELECT * FROM wifi w WHERE w.wifi_ap = 1001 AND w.owner = \
             (SELECT m.user_id FROM membership m WHERE m.user_id = w.owner LIMIT 1)",
        )
        .unwrap();
        crate::planner::PLANNED.with(|n| n.set(0));
        let (res, stats) = db.run_timed(&q, &ExecOptions::default());
        let res = res.unwrap();
        assert_eq!(crate::planner::PLANNED.with(|n| n.get()), 2, "outer query + one subquery");
        assert_eq!(res.len(), 100);
        assert!(res.rows.iter().all(|r| r[2] == Value::Int(1001)));
        // One probe of `wifi_ap` fetches the 100 outer rows, which it
        // decides; each is checked against the subquery, which scans the 50
        // memberships (a page) and outputs one.
        assert_eq!(
            stats.counters,
            Counters {
                seq_pages_read: 100,
                rand_pages_read: 4,
                tuples_read: 5100,
                predicate_evals: 5100,
                policy_evals: 0,
                udf_invocations: 0,
                index_probes: 1,
                tuples_output: 200,
            }
        );
    }

    #[test]
    fn timeout_fires() {
        let db = sample_db(DbProfile::MySqlLike);
        let q = SelectQuery::star_from("wifi");
        let res = db.run_timed(&q, &ExecOptions::with_timeout(Duration::ZERO)).0;
        assert_eq!(res.unwrap_err(), DbError::Timeout);
    }

    /// Two threads time queries on one database at once — a scan and an
    /// index probe — and every run reports exactly the counters that query
    /// reports run alone.
    #[test]
    fn concurrent_runs_report_their_own_counters() {
        const RUNS: usize = 500;
        let db = sample_db(DbProfile::MySqlLike);
        let owner_7 = Expr::col_eq(ColumnRef::bare("owner"), Value::Int(7));
        let scan = SelectQuery {
            from: vec![TableRef::named("wifi").with_hint(IndexHint::IgnoreAll)],
            ..SelectQuery::star_from("wifi")
        }
        .filter(owner_7.clone());
        let probe = SelectQuery::star_from("wifi").filter(owner_7);
        let opts = ExecOptions::default();
        let counters = |q: &SelectQuery| db.run_timed(q, &opts).1.counters;
        let (scan_alone, probe_alone) = (counters(&scan), counters(&probe));
        assert!(scan_alone.seq_pages_read > 0 && scan_alone.index_probes == 0, "{scan_alone:?}");
        assert!(probe_alone.index_probes > 0 && probe_alone.seq_pages_read == 0, "{probe_alone:?}");
        let mismatches =
            |q: &SelectQuery, alone: Counters| (0..RUNS).filter(|_| counters(q) != alone).count();
        let start = std::sync::Barrier::new(2);
        let mismatched = std::thread::scope(|s| {
            let scans = s.spawn(|| {
                start.wait();
                mismatches(&scan, scan_alone)
            });
            let probes = s.spawn(|| {
                start.wait();
                mismatches(&probe, probe_alone)
            });
            (scans.join().unwrap(), probes.join().unwrap())
        });
        let what = format!("(scan, probe) runs of {RUNS} each not reporting their own counters");
        assert_eq!(mismatched, (0, 0), "{what}");
    }

    /// A run leaves nothing in its plan: running one prepared plan again
    /// returns the rows and charges the counters of its first run.
    #[test]
    fn a_second_run_of_one_plan_repeats_the_first() {
        let db = sample_db(DbProfile::PostgresLike);
        let opts = ExecOptions::default();
        for sql in [
            "SELECT * FROM wifi WHERE owner = 3 OR wifi_ap = 1001",
            "SELECT * FROM membership m, wifi w WHERE m.group_id = 2 AND m.user_id = w.owner",
            "WITH c AS (SELECT * FROM wifi WHERE owner < 5) \
             SELECT * FROM c, c AS d WHERE c.id = d.id",
            "SELECT * FROM wifi w WHERE w.wifi_ap = 1001 AND w.owner = \
             (SELECT m.user_id FROM membership m WHERE m.user_id = w.owner LIMIT 1)",
        ] {
            let prepared = db.prepare_query(&crate::sql::parse(sql).unwrap()).unwrap();
            let first = run(&db, &prepared, &opts);
            assert!(first.0.as_ref().is_ok_and(|r| !r.is_empty()), "{sql}: {first:?}");
            assert_eq!(run(&db, &prepared, &opts), first, "{sql}");
        }
    }

    #[test]
    fn derived_table_in_from() {
        let db = sample_db(DbProfile::MySqlLike);
        let inner = SelectQuery::star_from("wifi")
            .filter(Expr::col_eq(ColumnRef::bare("owner"), Value::Int(1)));
        let q = SelectQuery {
            with: vec![],
            select: vec![SelectItem::Aggregate {
                func: AggFunc::Count,
                column: None,
                alias: Some("n".into()),
            }],
            from: vec![TableRef {
                source: TableSource::Derived(Box::new(inner)),
                alias: "t".into(),
                hint: IndexHint::None,
            }],
            predicate: None,
            group_by: vec![],
            limit: None,
        };
        let res = db.run_query(&q).unwrap();
        assert_eq!(res.rows[0][0], Value::Int(20));
    }

    #[test]
    fn global_aggregate_over_empty_input_yields_one_row() {
        let db = sample_db(DbProfile::MySqlLike);
        let q = SelectQuery {
            with: vec![],
            select: vec![SelectItem::Aggregate {
                func: AggFunc::Count,
                column: None,
                alias: Some("n".into()),
            }],
            from: vec![TableRef::named("wifi")],
            predicate: Some(Expr::col_eq(ColumnRef::bare("owner"), Value::Int(-1))),
            group_by: vec![],
            limit: None,
        };
        let res = db.run_query(&q).unwrap();
        assert_eq!(res.rows, vec![vec![Value::Int(0)]]);
        // With GROUP BY, empty input produces no groups.
        let mut q2 = q.clone();
        q2.group_by = vec![ColumnRef::bare("wifi_ap")];
        q2.select.insert(
            0,
            SelectItem::Column {
                column: ColumnRef::bare("wifi_ap"),
                alias: None,
            },
        );
        assert!(db.run_query(&q2).unwrap().is_empty());
    }

    #[test]
    fn limit_truncates() {
        let db = sample_db(DbProfile::MySqlLike);
        let mut q = SelectQuery::star_from("wifi");
        q.limit = Some(5);
        assert_eq!(db.run_query(&q).unwrap().len(), 5);
    }

    #[test]
    fn exact_index_union_skips_residual_evaluation() {
        let db = sample_db(DbProfile::MySqlLike);
        let pred = Expr::or(
            Expr::col_eq(ColumnRef::bare("owner"), Value::Int(3)),
            Expr::col_eq(ColumnRef::bare("owner"), Value::Int(4)),
        );
        let q = SelectQuery {
            from: vec![TableRef::named("wifi").with_hint(IndexHint::Force(vec!["owner".into()]))],
            ..SelectQuery::star_from("wifi")
        }
        .filter(pred);
        let (res, stats) = db.run_timed(&q, &ExecOptions::default());
        assert_eq!(res.unwrap().len(), 40);
        // The probe union is exact: no per-row predicate re-evaluation.
        assert_eq!(stats.counters.predicate_evals, 0);
    }

    /// `owner = NaN` holds on every row (`Value`'s order calls NaN equal to
    /// every number). An index descent finds one key, so a forced index
    /// read that trusted it returned a tenth of the rows; it scans instead.
    #[test]
    fn forced_index_on_a_nan_key_returns_the_scans_rows() {
        let mut db = Database::new(DbProfile::MySqlLike);
        db.create_table(TableSchema::of("t", &[("id", DataType::Int), ("owner", DataType::Int)]))
            .unwrap();
        for i in 0..100i64 {
            db.insert("t", vec![Value::Int(i), Value::Int(i % 10)]).unwrap();
        }
        db.create_index("t", "owner").unwrap();
        db.analyze("t").unwrap();
        let run = |hint: IndexHint| {
            let q = SelectQuery {
                from: vec![TableRef::named("t").with_hint(hint)],
                ..SelectQuery::star_from("t")
            }
            .filter(Expr::col_eq(ColumnRef::bare("owner"), Value::Double(f64::NAN)));
            (db.run_query(&q).unwrap().len(), db.explain(&q).unwrap().relations[0].access_desc.clone())
        };
        assert_eq!(run(IndexHint::IgnoreAll), (100, "SeqScan".to_string()));
        assert_eq!(run(IndexHint::Force(vec!["owner".into()])), (100, "SeqScan".to_string()));
    }

    /// `Int(1) = Double(1.0)` in this engine (`Value`'s numeric order), so
    /// every operator that matches values — hash join, index nested-loop
    /// join, a join spelled as two inequalities, `COUNT(DISTINCT)`,
    /// `GROUP BY` — has to treat them as one value.
    #[test]
    fn mixed_int_double_keys_match_in_every_operator() {
        let mut db = Database::new(DbProfile::MySqlLike);
        db.create_table(TableSchema::of("a", &[("x", DataType::Int)])).unwrap();
        db.create_table(TableSchema::of("b", &[("y", DataType::Double)])).unwrap();
        db.create_table(TableSchema::of("z", &[("v", DataType::Double)])).unwrap();
        db.insert("a", vec![Value::Int(1)]).unwrap();
        db.insert("a", vec![Value::Int(2)]).unwrap();
        db.insert("b", vec![Value::Double(1.0)]).unwrap();
        db.insert("b", vec![Value::Double(2.5)]).unwrap();
        for v in [Value::Int(1), Value::Double(1.0), Value::Double(1.5), Value::Null] {
            db.insert("z", vec![v]).unwrap();
        }
        let eq_join = "SELECT * FROM a, b WHERE a.x = b.y";
        let matched = vec![vec![Value::Int(1), Value::Double(1.0)]];
        // No index on either side: hash join.
        assert_eq!(db.run_sql(eq_join).unwrap().rows, matched);
        assert_eq!(
            db.run_sql("SELECT * FROM a, b WHERE a.x <= b.y AND a.x >= b.y").unwrap().rows,
            matched
        );
        // With an index on the inner side: index nested-loop join.
        db.create_index("b", "y").unwrap();
        assert_eq!(db.run_sql(eq_join).unwrap().rows, matched);

        let distinct = db.run_sql("SELECT COUNT(DISTINCT v) AS n FROM z").unwrap();
        assert_eq!(distinct.rows, vec![vec![Value::Int(2)]]);
        let groups = db.run_sql("SELECT v, COUNT(*) AS n FROM z GROUP BY v").unwrap();
        let counts: Vec<&Value> = groups.rows.iter().map(|r| &r[1]).collect();
        assert_eq!(counts, [&Value::Int(1), &Value::Int(2), &Value::Int(1)]); // NULL, 1, 1.5
    }
}
