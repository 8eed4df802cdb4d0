//! Access-path planning.
//!
//! Two optimizer profiles reproduce the DBMS behaviours the paper's
//! experiments depend on (Sections 5.3, 7):
//!
//! * [`DbProfile::MySqlLike`] — honours `FORCE INDEX`/`USE INDEX()` hints
//!   (the connector SIEVE uses on MySQL), uses *one* index per table scan
//!   when unhinted, and falls back to a sequential scan for disjunctive
//!   predicates without hints (the behaviour that makes BaselineP degrade).
//! * [`DbProfile::PostgresLike`] — ignores hints, picks access paths by
//!   cost, and can OR many index scans together through an in-memory bitmap
//!   before a single heap fetch (the `BitmapOr` behaviour Experiment 4
//!   credits for SIEVE's larger speedups on PostgreSQL).

use crate::catalog::TableEntry;
use crate::expr::{CmpOp, ColumnRef, Expr};
use crate::index::RangeBound;
use crate::plan::IndexHint;
use crate::schema::TableSchema;
use crate::stats::StatsSink;
use crate::table::RowId;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// Optimizer profile: which real-world DBMS the planner imitates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DbProfile {
    /// MySQL/InnoDB-like: hints honoured, no index-merge without hints.
    MySqlLike,
    /// PostgreSQL-like: hints ignored, cost-based, BitmapOr available.
    PostgresLike,
}

/// Fraction of the table below which an unhinted MySQL-like planner picks a
/// single index scan over a sequential scan.
pub const MYSQL_INDEX_FRACTION: f64 = 0.25;

/// Fraction of the table below which the PostgreSQL-like planner ORs index
/// scans through a bitmap rather than scanning sequentially.
pub const PG_BITMAP_FRACTION: f64 = 0.40;

/// Rows per morsel for parallel scans. Big enough that a worker's claim
/// amortizes the atomic fetch-add and per-morsel deadline check, small
/// enough that skewed filters still load-balance across workers.
pub const MORSEL_ROWS: usize = 2048;

/// Below this row count a scan stays sequential regardless of the thread
/// knob: spawning scoped workers costs more than filtering the rows.
pub const PARALLEL_MIN_ROWS: usize = 2 * MORSEL_ROWS;

/// Execution-environment knobs that influence access-path choice (as
/// opposed to [`DbProfile`], which selects *which optimizer* to imitate).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanOptions {
    /// Worker threads available for morsel-parallel scans; `0` or `1`
    /// means sequential execution.
    pub threads: usize,
}

impl ScanOptions {
    /// Effective scan parallelism for a table of `rows` rows: the number
    /// of workers a scan would actually use, or 1 when the input is too
    /// small to beat the thread-spawn cost.
    pub fn scan_ways(&self, rows: usize) -> usize {
        if self.threads >= 2 && rows >= PARALLEL_MIN_ROWS {
            self.threads.min(rows.div_ceil(MORSEL_ROWS))
        } else {
            1
        }
    }
}

/// A single index probe the executor can run.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexProbe {
    /// `col = key`.
    Point {
        /// Indexed column.
        column: String,
        /// Probe key.
        key: Value,
    },
    /// `col` within a range.
    Range {
        /// Indexed column.
        column: String,
        /// Lower bound.
        low: RangeBound,
        /// Upper bound.
        high: RangeBound,
    },
    /// `col IN (…)`.
    InList {
        /// Indexed column.
        column: String,
        /// Probe keys.
        keys: Vec<Value>,
    },
}

impl IndexProbe {
    /// The probed column.
    pub fn column(&self) -> &str {
        match self {
            IndexProbe::Point { column, .. }
            | IndexProbe::Range { column, .. }
            | IndexProbe::InList { column, .. } => column,
        }
    }

    /// Estimated matching rows, using the histogram when available and
    /// falling back to exact index counts (a real optimizer's statistics
    /// are also histogram-first).
    pub fn estimate_rows(&self, entry: &TableEntry) -> f64 {
        let hist = entry.histogram(self.column());
        match self {
            IndexProbe::Point { key, .. } => match hist {
                Some(h) => h.estimate_eq(key),
                None => entry
                    .index_on(self.column())
                    .map_or(0.0, |i| i.count_eq(key) as f64),
            },
            IndexProbe::Range { low, high, .. } => match hist {
                Some(h) => h.estimate_range(low, high),
                None => entry
                    .index_on(self.column())
                    .map_or(0.0, |i| i.count_range(low, high) as f64),
            },
            IndexProbe::InList { keys, .. } => match hist {
                Some(h) => h.estimate_in(keys),
                None => entry.index_on(self.column()).map_or(0.0, |i| {
                    keys.iter().map(|k| i.count_eq(k) as f64).sum()
                }),
            },
        }
    }

    /// True iff the rows this probe returns are *exactly* the rows
    /// satisfying the comparison it was derived from, so the executor can
    /// skip re-filtering them. NULL keys break the equivalence: the index
    /// stores NULL (it sorts below every value), but SQL comparisons
    /// against NULL are false — so a NULL probe key, or a range whose low
    /// end is unbounded (and therefore starts at the NULL keys), must keep
    /// the residual filter.
    pub fn is_exact(&self) -> bool {
        match self {
            IndexProbe::Point { key, .. } => !key.is_null(),
            IndexProbe::Range { low, high, .. } => {
                let bounded_non_null = |b: &RangeBound| match b {
                    RangeBound::Inclusive(v) | RangeBound::Exclusive(v) => !v.is_null(),
                    RangeBound::Unbounded => false,
                };
                bounded_non_null(low)
                    && (matches!(high, RangeBound::Unbounded) || bounded_non_null(high))
            }
            IndexProbe::InList { keys, .. } => keys.iter().all(|k| !k.is_null()),
        }
    }

    /// Run the probe, returning matching row ids.
    pub fn run(&self, entry: &TableEntry, stats: &StatsSink) -> Vec<RowId> {
        let idx = match entry.index_on(self.column()) {
            Some(i) => i,
            None => return Vec::new(),
        };
        match self {
            IndexProbe::Point { key, .. } => idx.lookup(key, stats),
            IndexProbe::Range { low, high, .. } => idx.range(low, high, stats),
            IndexProbe::InList { keys, .. } => idx.lookup_in(keys, stats),
        }
    }
}

/// Chosen access path for one table.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPlan {
    /// Sequential scan; the full predicate is applied as a filter.
    SeqScan,
    /// Morsel-parallel sequential scan: the row slice is split into
    /// [`MORSEL_ROWS`]-sized chunks claimed by scoped worker threads, and
    /// the per-morsel selections are concatenated in morsel order (so the
    /// result is row-identical to [`AccessPlan::SeqScan`]).
    ParallelScan {
        /// Number of morsels the row slice splits into.
        morsels: usize,
    },
    /// One index probe per disjunct of the predicate. `bitmap` selects the
    /// PostgreSQL behaviour (dedup row ids before one heap fetch) versus
    /// the MySQL `UNION` behaviour (fetch per branch, dedup after).
    IndexOr {
        /// One probe per predicate branch.
        probes: Vec<IndexProbe>,
        /// Dedup before fetch (PostgreSQL) vs after (MySQL UNION).
        bitmap: bool,
        /// Whether the fetched rows still need the full predicate applied.
        /// `false` only when every disjunct is a single exact probe
        /// (see [`IndexProbe::is_exact`]), so probe ∪ ≡ predicate.
        residual: bool,
    },
}

impl AccessPlan {
    /// Human-readable access label for EXPLAIN output.
    pub fn describe(&self) -> String {
        match self {
            AccessPlan::SeqScan => "SeqScan".to_string(),
            AccessPlan::ParallelScan { morsels } => {
                format!("ParallelScan(morsels={morsels})")
            }
            AccessPlan::IndexOr {
                probes,
                bitmap,
                residual,
            } => {
                let cols: Vec<&str> = probes.iter().map(|p| p.column()).collect();
                let mut uniq = cols.clone();
                uniq.sort_unstable();
                uniq.dedup();
                let tail = if *residual { ", residual" } else { ", exact" };
                if *bitmap && probes.len() > 1 {
                    format!(
                        "BitmapOr(col={}, {} probes{tail})",
                        uniq.join(","),
                        probes.len()
                    )
                } else if probes.len() > 1 {
                    format!(
                        "IndexUnion(col={}, {} probes{tail})",
                        uniq.join(","),
                        probes.len()
                    )
                } else {
                    format!("IndexScan({}{tail})", uniq.join(","))
                }
            }
        }
    }

    /// Estimated rows this plan reads from the heap.
    pub fn estimate_rows(&self, entry: &TableEntry) -> f64 {
        match self {
            AccessPlan::SeqScan | AccessPlan::ParallelScan { .. } => entry.table.len() as f64,
            AccessPlan::IndexOr { probes, .. } => probes
                .iter()
                .map(|p| p.estimate_rows(entry))
                .sum::<f64>()
                .min(entry.table.len() as f64),
        }
    }
}

/// Try to turn one expression into an index probe on `entry`, restricted to
/// `allowed` columns when a FORCE INDEX hint names them.
fn probe_from_expr(
    e: &Expr,
    entry: &TableEntry,
    alias: &str,
    allowed: Option<&[String]>,
) -> Option<IndexProbe> {
    let col_ok = |c: &ColumnRef| -> Option<String> {
        match &c.table {
            Some(t) if t != alias => return None,
            _ => {}
        }
        entry.schema().column_index(&c.column)?;
        if !entry.has_index(&c.column) {
            return None;
        }
        if let Some(allow) = allowed {
            if !allow.iter().any(|a| a == &c.column) {
                return None;
            }
        }
        Some(c.column.clone())
    };

    match e {
        Expr::Cmp { op, lhs, rhs } => {
            let (col, lit, op) = match (&**lhs, &**rhs) {
                (Expr::Column(c), Expr::Literal(v)) => (col_ok(c)?, v.clone(), *op),
                (Expr::Literal(v), Expr::Column(c)) => (col_ok(c)?, v.clone(), op.flip()),
                _ => return None,
            };
            Some(match op {
                CmpOp::Eq => IndexProbe::Point { column: col, key: lit },
                CmpOp::Lt => IndexProbe::Range {
                    column: col,
                    low: RangeBound::Unbounded,
                    high: RangeBound::Exclusive(lit),
                },
                CmpOp::Le => IndexProbe::Range {
                    column: col,
                    low: RangeBound::Unbounded,
                    high: RangeBound::Inclusive(lit),
                },
                CmpOp::Gt => IndexProbe::Range {
                    column: col,
                    low: RangeBound::Exclusive(lit),
                    high: RangeBound::Unbounded,
                },
                CmpOp::Ge => IndexProbe::Range {
                    column: col,
                    low: RangeBound::Inclusive(lit),
                    high: RangeBound::Unbounded,
                },
                CmpOp::Ne => return None,
            })
        }
        Expr::Between {
            expr,
            low,
            high,
            negated: false,
        } => {
            let col = match &**expr {
                Expr::Column(c) => col_ok(c)?,
                _ => return None,
            };
            let (lo, hi) = match (&**low, &**high) {
                (Expr::Literal(a), Expr::Literal(b)) => (a.clone(), b.clone()),
                _ => return None,
            };
            Some(IndexProbe::Range {
                column: col,
                low: RangeBound::Inclusive(lo),
                high: RangeBound::Inclusive(hi),
            })
        }
        Expr::InList {
            expr,
            list,
            negated: false,
        } => {
            let col = match &**expr {
                Expr::Column(c) => col_ok(c)?,
                _ => return None,
            };
            let keys: Option<Vec<Value>> = list
                .iter()
                .map(|e| match e {
                    Expr::Literal(v) => Some(v.clone()),
                    _ => None,
                })
                .collect();
            Some(IndexProbe::InList { column: col, keys: keys? })
        }
        _ => None,
    }
}

/// Best (lowest-cardinality) probe among the conjuncts of `disjunct`.
fn best_probe_in_conjuncts(
    disjunct: &Expr,
    entry: &TableEntry,
    alias: &str,
    allowed: Option<&[String]>,
) -> Option<IndexProbe> {
    disjunct
        .conjuncts()
        .iter()
        .filter_map(|c| probe_from_expr(c, entry, alias, allowed))
        .min_by(|a, b| {
            a.estimate_rows(entry)
                .partial_cmp(&b.estimate_rows(entry))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
}

/// One probe per disjunct of `pred`; `None` if any disjunct has no probe
/// (an unguardable branch forces a scan — every row could match it). The
/// returned flag is true when the probe union covers the predicate
/// *exactly* — every disjunct is a single conjunct whose probe
/// [`IndexProbe::is_exact`] — so the executor can skip the residual
/// filter. Guard fragments (`owner = X`, `purpose ∈ …`) are precisely this
/// shape.
fn probes_per_disjunct(
    pred: &Expr,
    entry: &TableEntry,
    alias: &str,
    allowed: Option<&[String]>,
) -> Option<(Vec<IndexProbe>, bool)> {
    let mut probes = Vec::new();
    let mut exact = true;
    for d in pred.disjuncts() {
        let p = best_probe_in_conjuncts(d, entry, alias, allowed)?;
        exact = exact && d.conjuncts().len() == 1 && p.is_exact();
        probes.push(p);
    }
    Some((probes, exact))
}

/// For an AND predicate, consider each conjunct that is itself an OR whose
/// every branch is probe-able (PostgreSQL plans these as BitmapOr under the
/// enclosing filter). Returns the cheapest such conjunct's probes.
fn probes_from_or_conjunct(
    pred: &Expr,
    entry: &TableEntry,
    alias: &str,
) -> Option<Vec<IndexProbe>> {
    let mut best: Option<(f64, Vec<IndexProbe>)> = None;
    for conj in pred.conjuncts() {
        if let Expr::Or(_) = conj {
            if let Some((probes, _)) = probes_per_disjunct(conj, entry, alias, None) {
                let est: f64 = probes.iter().map(|p| p.estimate_rows(entry)).sum();
                if best.as_ref().is_none_or(|(b, _)| est < *b) {
                    best = Some((est, probes));
                }
            }
        }
    }
    best.map(|(_, p)| p)
}

/// The scan-shaped fallback plan: morsel-parallel when the thread knob and
/// table size justify it, plain sequential otherwise.
fn scan_plan(entry: &TableEntry, scan: ScanOptions) -> AccessPlan {
    let rows = entry.table.len();
    if scan.scan_ways(rows) > 1 {
        AccessPlan::ParallelScan {
            morsels: rows.div_ceil(MORSEL_ROWS),
        }
    } else {
        AccessPlan::SeqScan
    }
}

/// Plan the access path for one table given its local predicate and hint,
/// with default [`ScanOptions`] (sequential scans).
pub fn plan_access(
    entry: &TableEntry,
    alias: &str,
    predicate: Option<&Expr>,
    hint: &IndexHint,
    profile: DbProfile,
) -> AccessPlan {
    plan_access_opts(entry, alias, predicate, hint, profile, ScanOptions::default())
}

/// Plan the access path for one table given its local predicate, hint, and
/// execution environment.
///
/// Decision rule: index-shaped candidates (per-disjunct probe unions, and
/// on PostgreSQL BitmapOr over an OR-conjunct) are gated on estimated
/// selectivity against the *scan they would replace*. With `scan.threads`
/// workers a scan is ~`scan_ways` times cheaper, so the PostgreSQL-like
/// profile shrinks its bitmap gate proportionally; the MySQL-like profile
/// models a single-threaded optimizer (classic InnoDB has no parallel
/// query) and keeps its gate fixed. When no index path survives the gate,
/// the fallback is `scan_plan` — parallel when worthwhile.
pub fn plan_access_opts(
    entry: &TableEntry,
    alias: &str,
    predicate: Option<&Expr>,
    hint: &IndexHint,
    profile: DbProfile,
    scan: ScanOptions,
) -> AccessPlan {
    let Some(pred) = predicate else {
        return scan_plan(entry, scan);
    };
    let table_rows = entry.table.len().max(1) as f64;

    // Hints are a MySQL-connector feature; the PostgreSQL-like profile
    // ignores them entirely (paper Section 5.3).
    if profile == DbProfile::MySqlLike {
        match hint {
            IndexHint::IgnoreAll => return scan_plan(entry, scan),
            IndexHint::Force(cols) => {
                if let Some((probes, exact)) = probes_per_disjunct(pred, entry, alias, Some(cols))
                {
                    return AccessPlan::IndexOr {
                        probes,
                        bitmap: false,
                        residual: !exact,
                    };
                }
                // FORCE INDEX that cannot be applied degenerates to a scan.
                return scan_plan(entry, scan);
            }
            IndexHint::None => {}
        }
    }

    match profile {
        DbProfile::MySqlLike => {
            // No index-merge without hints: only a single-branch predicate
            // can use an index, and only when selective enough.
            let disjuncts = pred.disjuncts();
            if disjuncts.len() == 1 {
                if let Some(p) = best_probe_in_conjuncts(disjuncts[0], entry, alias, None) {
                    if p.estimate_rows(entry) / table_rows <= MYSQL_INDEX_FRACTION {
                        let exact = disjuncts[0].conjuncts().len() == 1 && p.is_exact();
                        return AccessPlan::IndexOr {
                            probes: vec![p],
                            bitmap: false,
                            residual: !exact,
                        };
                    }
                }
            }
            scan_plan(entry, scan)
        }
        DbProfile::PostgresLike => {
            // Cost-based: try (a) one probe per top-level disjunct, and
            // (b) BitmapOr over an OR-shaped conjunct inside an AND.
            let candidates = [
                probes_per_disjunct(pred, entry, alias, None),
                probes_from_or_conjunct(pred, entry, alias).map(|p| (p, false)),
            ];
            let mut best: Option<(f64, Vec<IndexProbe>, bool)> = None;
            for (cand, exact) in candidates.into_iter().flatten() {
                let est: f64 = cand.iter().map(|p| p.estimate_rows(entry)).sum();
                if best.as_ref().is_none_or(|(b, _, _)| est < *b) {
                    best = Some((est, cand, exact));
                }
            }
            // A parallel scan is ~scan_ways× cheaper than a sequential one,
            // so an index path must be proportionally more selective to win.
            let gate = PG_BITMAP_FRACTION / scan.scan_ways(entry.table.len()) as f64;
            match best {
                Some((est, probes, exact)) if est / table_rows <= gate => AccessPlan::IndexOr {
                    probes,
                    bitmap: true,
                    residual: !exact,
                },
                _ => scan_plan(entry, scan),
            }
        }
    }
}

/// The best (most selective) sargable probe for a conjunctive predicate
/// over one table, ignoring selectivity thresholds. Middleware cost models
/// (SIEVE Section 5.5) use this to obtain the optimizer's `ρ(p)` estimate
/// for a query predicate, as `EXPLAIN` would report it.
pub fn best_sargable_probe(
    entry: &TableEntry,
    alias: &str,
    pred: &Expr,
) -> Option<IndexProbe> {
    best_probe_in_conjuncts(pred, entry, alias, None)
}

/// An equi-join condition extracted from the WHERE clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinCond {
    /// Alias on one side.
    pub left_alias: String,
    /// Column on the left side.
    pub left_column: String,
    /// Alias on the other side.
    pub right_alias: String,
    /// Column on the right side.
    pub right_column: String,
}

/// Result of classifying a WHERE clause against the FROM aliases.
#[derive(Debug, Default)]
pub struct ClassifiedPredicate {
    /// Conjuncts that reference exactly one alias, grouped by it.
    pub local: HashMap<String, Vec<Expr>>,
    /// Equi-join conditions between two aliases.
    pub joins: Vec<JoinCond>,
    /// Everything else, applied after the join.
    pub residual: Vec<Expr>,
}

impl ClassifiedPredicate {
    /// The conjunction of all local conjuncts of `alias`, if any.
    pub fn local_predicate(&self, alias: &str) -> Option<Expr> {
        self.local
            .get(alias)
            .filter(|v| !v.is_empty())
            .map(|v| Expr::all(v.clone()))
    }
}

/// Alias owning a column reference, given the FROM schemas. Unqualified
/// columns resolve to the unique schema containing them (ambiguity and
/// misses land in `residual` handling, which re-checks at bind time).
fn alias_of(
    c: &ColumnRef,
    tables: &[(String, Arc<TableSchema>)],
) -> Option<String> {
    match &c.table {
        Some(t) => tables.iter().find(|(a, _)| a == t).map(|(a, _)| a.clone()),
        None => {
            let mut found = None;
            for (a, s) in tables {
                if s.column_index(&c.column).is_some() {
                    if found.is_some() {
                        return None;
                    }
                    found = Some(a.clone());
                }
            }
            found
        }
    }
}

/// Split a WHERE clause into per-table local predicates, equi-join
/// conditions, and a residual, for left-deep join planning.
pub fn classify_predicate(
    pred: &Expr,
    tables: &[(String, Arc<TableSchema>)],
) -> ClassifiedPredicate {
    let mut out = ClassifiedPredicate::default();
    for conj in pred.conjuncts() {
        // Equi-join shape: col = col across two aliases.
        if let Expr::Cmp {
            op: CmpOp::Eq,
            lhs,
            rhs,
        } = conj
        {
            if let (Expr::Column(a), Expr::Column(b)) = (&**lhs, &**rhs) {
                if let (Some(la), Some(lb)) = (alias_of(a, tables), alias_of(b, tables)) {
                    if la != lb {
                        out.joins.push(JoinCond {
                            left_alias: la,
                            left_column: a.column.clone(),
                            right_alias: lb,
                            right_column: b.column.clone(),
                        });
                        continue;
                    }
                }
            }
        }
        // Collect referenced aliases.
        let mut aliases: Vec<String> = Vec::new();
        let mut unresolved = false;
        conj.visit_columns(&mut |c| match alias_of(c, tables) {
            Some(a) => {
                if !aliases.contains(&a) {
                    aliases.push(a);
                }
            }
            None => unresolved = true,
        });
        if unresolved {
            out.residual.push(conj.clone());
        } else {
            match aliases.len() {
                0 | 1 => {
                    // Constant predicates attach to the first table.
                    let alias = aliases
                        .into_iter()
                        .next()
                        .unwrap_or_else(|| tables[0].0.clone());
                    out.local.entry(alias).or_default().push(conj.clone());
                }
                _ => out.residual.push(conj.clone()),
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Database;
    use crate::schema::TableSchema;
    use crate::value::DataType;

    fn setup(profile: DbProfile) -> Database {
        let mut db = Database::new(profile);
        db.create_table(TableSchema::of(
            "w",
            &[
                ("id", DataType::Int),
                ("owner", DataType::Int),
                ("wifi_ap", DataType::Int),
                ("ts_time", DataType::Time),
            ],
        ))
        .unwrap();
        for i in 0..2000i64 {
            db.insert(
                "w",
                vec![
                    Value::Int(i),
                    Value::Int(i % 100),
                    Value::Int(1000 + i % 20),
                    Value::Time(((i * 37) % 86400) as u32),
                ],
            )
            .unwrap();
        }
        db.create_index("w", "owner").unwrap();
        db.create_index("w", "wifi_ap").unwrap();
        db.analyze("w").unwrap();
        db
    }

    fn owner_eq(v: i64) -> Expr {
        Expr::col_eq(ColumnRef::bare("owner"), Value::Int(v))
    }

    #[test]
    fn selective_point_uses_index_mysql() {
        let db = setup(DbProfile::MySqlLike);
        let entry = db.table("w").unwrap();
        let plan = plan_access(entry, "w", Some(&owner_eq(5)), &IndexHint::None, DbProfile::MySqlLike);
        assert!(matches!(
            plan,
            AccessPlan::IndexOr { ref probes, bitmap: false, .. } if probes.len() == 1
        ));
    }

    #[test]
    fn or_without_hint_scans_on_mysql() {
        let db = setup(DbProfile::MySqlLike);
        let entry = db.table("w").unwrap();
        let pred = Expr::or(owner_eq(1), owner_eq(2));
        let plan = plan_access(entry, "w", Some(&pred), &IndexHint::None, DbProfile::MySqlLike);
        assert_eq!(plan, AccessPlan::SeqScan);
    }

    #[test]
    fn or_with_force_hint_unions_on_mysql() {
        let db = setup(DbProfile::MySqlLike);
        let entry = db.table("w").unwrap();
        let pred = Expr::or(owner_eq(1), owner_eq(2));
        let hint = IndexHint::Force(vec!["owner".into()]);
        let plan = plan_access(entry, "w", Some(&pred), &hint, DbProfile::MySqlLike);
        match plan {
            AccessPlan::IndexOr {
                probes,
                bitmap,
                residual,
            } => {
                assert_eq!(probes.len(), 2);
                assert!(!bitmap);
                // Each disjunct is a bare `owner = k`: probes are exact,
                // the executor may skip the residual filter.
                assert!(!residual);
            }
            other => panic!("expected IndexOr, got {other:?}"),
        }
    }

    #[test]
    fn or_uses_bitmap_on_postgres_ignoring_hints() {
        let db = setup(DbProfile::PostgresLike);
        let entry = db.table("w").unwrap();
        let pred = Expr::or(owner_eq(1), owner_eq(2));
        // Even with an IgnoreAll hint PostgresLike plans by cost.
        let plan = plan_access(
            entry,
            "w",
            Some(&pred),
            &IndexHint::IgnoreAll,
            DbProfile::PostgresLike,
        );
        assert!(matches!(plan, AccessPlan::IndexOr { bitmap: true, .. }));
    }

    #[test]
    fn unselective_predicate_scans() {
        let db = setup(DbProfile::PostgresLike);
        let entry = db.table("w").unwrap();
        // owner >= 0 matches everything.
        let pred = Expr::col_cmp(ColumnRef::bare("owner"), CmpOp::Ge, Value::Int(0));
        let plan = plan_access(entry, "w", Some(&pred), &IndexHint::None, DbProfile::PostgresLike);
        assert_eq!(plan, AccessPlan::SeqScan);
    }

    #[test]
    fn ignore_hint_scans_on_mysql() {
        let db = setup(DbProfile::MySqlLike);
        let entry = db.table("w").unwrap();
        let plan = plan_access(
            entry,
            "w",
            Some(&owner_eq(5)),
            &IndexHint::IgnoreAll,
            DbProfile::MySqlLike,
        );
        assert_eq!(plan, AccessPlan::SeqScan);
    }

    #[test]
    fn or_conjunct_inside_and_bitmaps_on_postgres() {
        let db = setup(DbProfile::PostgresLike);
        let entry = db.table("w").unwrap();
        // qpred (unselective range) AND (policy OR): PG should bitmap the OR.
        let qpred = Expr::col_cmp(ColumnRef::bare("ts_time"), CmpOp::Ge, Value::Time(0));
        let policies = Expr::or(owner_eq(1), owner_eq(2));
        let pred = Expr::and(qpred, policies);
        let plan = plan_access(entry, "w", Some(&pred), &IndexHint::None, DbProfile::PostgresLike);
        assert!(
            matches!(
                plan,
                AccessPlan::IndexOr { bitmap: true, ref probes, residual: true } if probes.len() == 2
            ),
            "got {plan:?}"
        );
    }

    #[test]
    fn between_becomes_range_probe() {
        let db = setup(DbProfile::MySqlLike);
        let entry = db.table("w").unwrap();
        let pred = Expr::Between {
            expr: Box::new(Expr::Column(ColumnRef::bare("wifi_ap"))),
            low: Box::new(Expr::Literal(Value::Int(1000))),
            high: Box::new(Expr::Literal(Value::Int(1001))),
            negated: false,
        };
        let plan = plan_access(entry, "w", Some(&pred), &IndexHint::None, DbProfile::MySqlLike);
        match plan {
            AccessPlan::IndexOr { probes, .. } => {
                assert!(matches!(probes[0], IndexProbe::Range { .. }));
            }
            other => panic!("expected range probe, got {other:?}"),
        }
    }

    #[test]
    fn classify_splits_local_join_residual() {
        let db = setup(DbProfile::MySqlLike);
        let w_schema = db.table("w").unwrap().schema().clone();
        let g_schema = Arc::new(TableSchema::of(
            "g",
            &[("user_id", DataType::Int), ("grp", DataType::Int)],
        ));
        let tables = vec![("w".to_string(), w_schema), ("g".to_string(), g_schema)];
        let pred = Expr::all(vec![
            Expr::col_eq(ColumnRef::qualified("g", "grp"), Value::Int(3)),
            Expr::Cmp {
                op: CmpOp::Eq,
                lhs: Box::new(Expr::Column(ColumnRef::qualified("g", "user_id"))),
                rhs: Box::new(Expr::Column(ColumnRef::qualified("w", "owner"))),
            },
            Expr::col_eq(ColumnRef::bare("wifi_ap"), Value::Int(1000)),
        ]);
        let cls = classify_predicate(&pred, &tables);
        assert_eq!(cls.joins.len(), 1);
        assert!(cls.local_predicate("g").is_some());
        assert!(cls.local_predicate("w").is_some());
        assert!(cls.residual.is_empty());
    }

    #[test]
    fn force_hint_on_unindexed_column_scans() {
        let db = setup(DbProfile::MySqlLike);
        let entry = db.table("w").unwrap();
        let hint = IndexHint::Force(vec!["ts_time".into()]); // not indexed
        let plan = plan_access(entry, "w", Some(&owner_eq(1)), &hint, DbProfile::MySqlLike);
        assert_eq!(plan, AccessPlan::SeqScan);
    }

    #[test]
    fn thread_knob_turns_scans_parallel() {
        let db = setup(DbProfile::MySqlLike);
        let entry = db.table("w").unwrap();
        let scan = ScanOptions { threads: 4 };
        // 2000 rows < PARALLEL_MIN_ROWS: stays sequential.
        let plan = plan_access_opts(
            entry,
            "w",
            None,
            &IndexHint::None,
            DbProfile::MySqlLike,
            scan,
        );
        assert_eq!(plan, AccessPlan::SeqScan);
        // Above the floor the scan splits into morsels.
        let mut big = Database::new(DbProfile::MySqlLike);
        big.create_table(TableSchema::of("b", &[("x", DataType::Int)]))
            .unwrap();
        for i in 0..(PARALLEL_MIN_ROWS as i64 + 10) {
            big.insert("b", vec![Value::Int(i)]).unwrap();
        }
        let entry = big.table("b").unwrap();
        let plan = plan_access_opts(
            entry,
            "b",
            None,
            &IndexHint::None,
            DbProfile::MySqlLike,
            scan,
        );
        assert_eq!(
            plan,
            AccessPlan::ParallelScan {
                morsels: (PARALLEL_MIN_ROWS + 10).div_ceil(MORSEL_ROWS)
            }
        );
        assert!(plan.describe().starts_with("ParallelScan(morsels="));
    }

    #[test]
    fn unbounded_low_range_keeps_residual_filter() {
        let db = setup(DbProfile::MySqlLike);
        let entry = db.table("w").unwrap();
        // `wifi_ap <= 1001` probes the index from the unbounded low end,
        // which includes NULL keys — the filter must stay on.
        let pred = Expr::col_cmp(ColumnRef::bare("wifi_ap"), CmpOp::Le, Value::Int(1001));
        let hint = IndexHint::Force(vec!["wifi_ap".into()]);
        let plan = plan_access(entry, "w", Some(&pred), &hint, DbProfile::MySqlLike);
        assert!(
            matches!(plan, AccessPlan::IndexOr { residual: true, .. }),
            "got {plan:?}"
        );
        // A bounded BETWEEN range is exact.
        let pred = Expr::Between {
            expr: Box::new(Expr::Column(ColumnRef::bare("wifi_ap"))),
            low: Box::new(Expr::Literal(Value::Int(1000))),
            high: Box::new(Expr::Literal(Value::Int(1001))),
            negated: false,
        };
        let plan = plan_access(entry, "w", Some(&pred), &hint, DbProfile::MySqlLike);
        assert!(
            matches!(plan, AccessPlan::IndexOr { residual: false, .. }),
            "got {plan:?}"
        );
        // A disjunct with extra conjuncts needs the filter even though the
        // probe itself is exact.
        let pred = Expr::and(
            owner_eq(1),
            Expr::col_cmp(ColumnRef::bare("ts_time"), CmpOp::Ge, Value::Time(10)),
        );
        let plan = plan_access(
            entry,
            "w",
            Some(&pred),
            &IndexHint::Force(vec!["owner".into()]),
            DbProfile::MySqlLike,
        );
        assert!(
            matches!(plan, AccessPlan::IndexOr { residual: true, .. }),
            "got {plan:?}"
        );
    }

    #[test]
    fn null_probe_key_keeps_residual_filter() {
        let db = setup(DbProfile::MySqlLike);
        let entry = db.table("w").unwrap();
        // `owner = NULL` matches nothing, but the index stores NULL keys;
        // the probe must not be treated as exact.
        let pred = Expr::col_eq(ColumnRef::bare("owner"), Value::Null);
        let hint = IndexHint::Force(vec!["owner".into()]);
        let plan = plan_access(entry, "w", Some(&pred), &hint, DbProfile::MySqlLike);
        assert!(
            matches!(plan, AccessPlan::IndexOr { residual: true, .. }),
            "got {plan:?}"
        );
    }

    #[test]
    fn parallel_scan_tightens_pg_bitmap_gate() {
        let db = setup(DbProfile::PostgresLike);
        let entry = db.table("w").unwrap();
        // owner IN (…10 keys…) ≈ 10% of the table: in-gate sequentially.
        let keys: Vec<Expr> = (0..10).map(|k| Expr::Literal(Value::Int(k))).collect();
        let pred = Expr::InList {
            expr: Box::new(Expr::Column(ColumnRef::bare("owner"))),
            list: keys,
            negated: false,
        };
        let plan = plan_access(entry, "w", Some(&pred), &IndexHint::None, DbProfile::PostgresLike);
        assert!(matches!(plan, AccessPlan::IndexOr { bitmap: true, .. }));
        // The table is far below PARALLEL_MIN_ROWS, so the thread knob
        // cannot change the gate here (scan_ways == 1).
        let scan = ScanOptions { threads: 8 };
        assert_eq!(scan.scan_ways(entry.table.len()), 1);
        // On a big enough table, 8-way scans shrink the gate 8×.
        assert_eq!(scan.scan_ways(8 * PARALLEL_MIN_ROWS), 8);
    }
}
