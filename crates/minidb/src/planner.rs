//! Planning: everything minidb decides about a query before it reads a row.
//!
//! **Plan → run, plan → print.** `plan_query` turns a
//! [`SelectQuery`] into a `QueryPlan` value — the WITH bodies in
//! definition order and, per body, the FROM inputs in join order, each with
//! its bound local filter and how it is read (an [`AccessPlan`], an index
//! lookup per outer row, or a temp scan), the equi-join key slots, the
//! bound residual, the resolved projection or aggregate, and the limit —
//! without executing anything. `exec::run` runs that value and
//! `explain::explain_prepared` prints it; neither decides anything, so
//! EXPLAIN cannot report a plan that does not run. A plan borrows nothing
//! from the catalog, so `exec::prepare` — the one place a top-level query
//! is planned — hands it out to be kept and run any number of times; the
//! body of a correlated subquery is planned with the predicate that holds
//! it, not per invocation.
//!
//! Per relation, two optimizer profiles reproduce the DBMS behaviours the
//! paper's experiments depend on (Sections 5.3, 7):
//!
//! * [`DbProfile::MySqlLike`] — honours `FORCE INDEX`/`USE INDEX()` hints
//!   (the connector SIEVE uses on MySQL) and falls back to a sequential
//!   scan for disjunctive predicates without hints (the behaviour that
//!   makes BaselineP degrade). A conjunctive predicate gets its
//!   [`conjunctive_path`]: one index, or an index-merge intersection of
//!   several when the extra posting-list walks pay for themselves.
//! * [`DbProfile::PostgresLike`] — ignores hints, picks access paths by
//!   cost, and can OR many index scans together through an in-memory bitmap
//!   before a single heap fetch (the `BitmapOr` behaviour Experiment 4
//!   credits for SIEVE's larger speedups on PostgreSQL) as well as AND them
//!   (`BitmapAnd`, the same [`conjunctive_path`]).
//!
//! [`conjunctive_path`] is the one place that decides which indexes a
//! conjunction is read through. The middleware's IndexQuery strategy
//! (`sieve_core::rewrite`) calls it for `ρ(p)`, its cost and the
//! `FORCE INDEX` column list, and under that hint the plan re-derives
//! exactly the same path — the hint binds.

use crate::catalog::{Database, TableEntry};
use crate::error::{DbError, DbResult};
use crate::expr::{bind, CmpOp, ColumnRef, Expr, FilterProgram, Layout};
use crate::index::{RangeBound, RowIdSet};
use crate::plan::{AggFunc, IndexHint, SelectItem, SelectQuery, TableSource};
use crate::schema::{Column, TableSchema};
use crate::stats::StatsSink;
use crate::table::RowId;
use crate::value::{DataType, Value};
use std::collections::{HashMap, HashSet};
use std::fmt;
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

/// Cost of walking one posting-list entry into a row-id set, as a fraction
/// of fetching one row through an index and running the residual filter on
/// it: what [`conjunctive_path`] charges an additional probe against the
/// fetches it saves. Measured on this engine over the TIPPERS table
/// (200 k rows): a posting entry costs 1.1–1.6 ns out of the few long
/// lists of `ts_date` and `wifi_ap`, 2.5–2.8 ns out of `owner`'s and
/// 3.8–4.9 ns out of the many short ones of `ts_time` (a B-tree step every
/// ~5 entries); a fetched and filtered row 36 ns when the rows are cache
/// resident and 86–89 ns when they are not. The constant prices the
/// dearest walk against the cheapest fetch (4.9 / 36 ≈ 1/7) and rounds up,
/// so a probe is added only when it pays even then. It is not a knob to
/// turn down casually: near 1/26 an `owner IN (8 devices)` probe (≈ 1 k
/// rows) starts intersecting a 15 k-entry week of `ts_date` to save 950
/// fetches — a second bitmap to fill, AND and re-read, for 270–284 µs
/// against 282–360 µs a statement in process, which is nothing the
/// end-to-end gate can tell from noise.
pub const POSTING_WALK_FRACTION: f64 = 1.0 / 6.0;

/// Fraction of the table below which the PostgreSQL-like planner ORs index
/// scans through a bitmap rather than scanning sequentially.
pub const PG_BITMAP_FRACTION: f64 = 0.40;

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

    /// Estimated matching rows. Equality and IN-list probes ask the index
    /// itself for the exact count (an index dive, as MySQL does for short
    /// equality lists — the histogram's answer for a value outside its
    /// most-common list is the table-wide average, off by 10× for a
    /// rarely-seen device); ranges use the histogram when there is one
    /// and the index's exact count otherwise.
    pub fn estimate_rows(&self, entry: &TableEntry) -> f64 {
        let Some(idx) = entry.index_on(self.column()) else {
            return 0.0;
        };
        match self {
            IndexProbe::Point { key, .. } => idx.count_eq(key) as f64,
            IndexProbe::InList { keys, .. } => keys
                .iter()
                .map(|k| idx.count_eq(k) as f64)
                .sum::<f64>()
                .min(entry.table.len() as f64),
            IndexProbe::Range { low, high, .. } => match entry.histogram(self.column()) {
                Some(h) => h.estimate_range(low, high),
                None => idx.count_range(low, high) as f64,
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

    /// Run the probe into a row-id set, walking the posting lists in
    /// place. Charges the same probes as [`IndexProbe::run`].
    pub fn run_into(&self, entry: &TableEntry, stats: &StatsSink, set: &mut RowIdSet) {
        let Some(idx) = entry.index_on(self.column()) else {
            return;
        };
        match self {
            IndexProbe::Point { key, .. } => set.insert_all(idx.postings(key, stats)),
            IndexProbe::Range { low, high, .. } => {
                for ids in idx.range_postings(low, high, stats) {
                    set.insert_all(ids);
                }
            }
            IndexProbe::InList { keys, .. } => {
                for k in keys {
                    set.insert_all(idx.postings(k, stats));
                }
            }
        }
    }
}

/// Chosen access path for one table.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPlan {
    /// Sequential scan; the full predicate is applied as a filter.
    SeqScan,
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
    /// One index probe per chosen conjunct of a conjunctive predicate
    /// (MySQL's index-merge intersection, PostgreSQL's `BitmapAnd`): the
    /// probes' row-id sets are ANDed and the survivors fetched once, in
    /// page order. Always at least two probes; see [`conjunctive_path`].
    IndexIntersect {
        /// The probes, most selective first.
        probes: Vec<IndexProbe>,
        /// Whether the fetched rows still need the full predicate applied.
        /// `false` only when every conjunct has its own exact probe.
        residual: bool,
    },
}

impl AccessPlan {
    /// Human-readable access label for EXPLAIN output.
    pub fn describe(&self) -> String {
        match self {
            AccessPlan::SeqScan => "SeqScan".to_string(),
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
            AccessPlan::IndexIntersect { probes, residual } => {
                let cols: Vec<&str> = probes.iter().map(|p| p.column()).collect();
                let tail = if *residual { "residual" } else { "exact" };
                format!("IndexIntersect({}, {tail})", cols.join(" ∩ "))
            }
        }
    }

    /// Estimated rows this plan reads from the heap.
    pub fn estimate_rows(&self, entry: &TableEntry) -> f64 {
        match self {
            AccessPlan::SeqScan => entry.table.len() as f64,
            AccessPlan::IndexOr { probes, .. } => probes
                .iter()
                .map(|p| p.estimate_rows(entry))
                .sum::<f64>()
                .min(entry.table.len() as f64),
            AccessPlan::IndexIntersect { probes, .. } => {
                let rows = entry.table.len() as f64;
                probes
                    .iter()
                    .fold(rows, |est, p| narrowed(est, p.estimate_rows(entry), rows))
            }
        }
    }
}

/// Independence estimate of index intersection: of `est` rows, those that
/// also match a probe selecting `probe_rows` of the table's `table_rows`.
fn narrowed(est: f64, probe_rows: f64, table_rows: f64) -> f64 {
    est * (probe_rows / table_rows.max(1.0)).min(1.0)
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

    match e.unshared() {
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

/// The index path of a conjunctive predicate: which probes to run and
/// intersect, and what that is estimated to read.
#[derive(Debug, Clone, PartialEq)]
pub struct ConjunctivePath {
    /// The probes, most selective first; one per column at most. A single
    /// probe is a plain index scan, several are intersected.
    pub probes: Vec<IndexProbe>,
    /// Estimated rows fetched from the heap: the first probe's rows,
    /// narrowed by each further probe under independence
    /// (`N · Π est_i / N`).
    pub est_rows: f64,
    /// Estimated cost in fetched-row equivalents: `est_rows` plus
    /// [`POSTING_WALK_FRACTION`] per posting entry of every probe after
    /// the first (a lone probe walks its list whichever way it is costed).
    pub est_cost: f64,
}

impl ConjunctivePath {
    /// The probed columns, in probe order — the `FORCE INDEX` list under
    /// which the planner re-derives this path.
    pub fn columns(&self) -> Vec<String> {
        self.probes.iter().map(|p| p.column().to_string()).collect()
    }

    /// The plan that executes this path over a predicate of `conjuncts`
    /// conjuncts.
    fn into_plan(self, conjuncts: usize, bitmap: bool) -> AccessPlan {
        let residual =
            !(conjuncts == self.probes.len() && self.probes.iter().all(IndexProbe::is_exact));
        if self.probes.len() == 1 {
            AccessPlan::IndexOr {
                probes: self.probes,
                bitmap,
                residual,
            }
        } else {
            AccessPlan::IndexIntersect {
                probes: self.probes,
                residual,
            }
        }
    }
}

/// Choose the index path for a conjunctive (single-disjunct) predicate
/// over one table; `None` when no conjunct is sargable on an indexed
/// column. Selectivity gates against the scan are the caller's.
///
/// Candidates are the most selective probe of each indexed column. The
/// path starts from the most selective of them and, taking the rest in
/// order of selectivity, adds a probe only while walking its posting list
/// costs less than the fetches it saves. With `allowed` (a `FORCE INDEX`
/// column list) there is no such choice to make: the path intersects
/// exactly the named columns that have a sargable conjunct — which is how
/// a path chosen here without `allowed` and handed back as a hint comes
/// out the same.
pub fn conjunctive_path(
    entry: &TableEntry,
    alias: &str,
    pred: &Expr,
    allowed: Option<&[String]>,
) -> Option<ConjunctivePath> {
    let mut candidates: Vec<(f64, IndexProbe)> = Vec::new();
    for c in pred.conjuncts() {
        let Some(p) = probe_from_expr(c, entry, alias, allowed) else {
            continue;
        };
        let est = p.estimate_rows(entry);
        match candidates.iter_mut().find(|(_, q)| q.column() == p.column()) {
            Some(best) if est < best.0 => *best = (est, p),
            Some(_) => {}
            None => candidates.push((est, p)),
        }
    }
    // Stable: equally selective probes keep the predicate's order.
    candidates.sort_by(|a, b| a.0.total_cmp(&b.0));
    let table_rows = entry.table.len() as f64;
    let mut candidates = candidates.into_iter();
    let (first_rows, first) = candidates.next()?;
    let first_rows = first_rows.min(table_rows);
    let mut path = ConjunctivePath {
        probes: vec![first],
        est_rows: first_rows,
        est_cost: first_rows,
    };
    for (probe_rows, p) in candidates {
        let fewer = narrowed(path.est_rows, probe_rows, table_rows);
        let walk = probe_rows * POSTING_WALK_FRACTION;
        // Every later candidate walks more and saves less.
        if allowed.is_none() && walk >= path.est_rows - fewer {
            break;
        }
        path.est_cost += walk - (path.est_rows - fewer);
        path.est_rows = fewer;
        path.probes.push(p);
    }
    Some(path)
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
        // The most selective probe of the disjunct: its path's first.
        let p = conjunctive_path(entry, alias, d, allowed)?.probes.swap_remove(0);
        exact = exact && d.conjuncts().len() == 1 && p.is_exact();
        probes.push(p);
    }
    Some((probes, exact))
}

/// For an AND predicate, consider each conjunct that is itself an OR whose
/// every branch is probe-able (PostgreSQL plans these as BitmapOr under the
/// enclosing filter). Returns the cheapest such conjunct's probes and their
/// estimated rows.
fn probes_from_or_conjunct(
    pred: &Expr,
    entry: &TableEntry,
    alias: &str,
) -> Option<(f64, Vec<IndexProbe>)> {
    pred.conjuncts()
        .into_iter()
        .filter(|conj| matches!(conj.unshared(), Expr::Or(_)))
        .filter_map(|conj| probes_per_disjunct(conj, entry, alias, None))
        .map(|(probes, _)| {
            let est: f64 = probes.iter().map(|p| p.estimate_rows(entry)).sum();
            (est, probes)
        })
        .min_by(|a, b| a.0.total_cmp(&b.0))
}

/// Plan the access path for one table given its local predicate, hint and
/// optimizer profile.
///
/// Decision rule: an unhinted index path is gated on its estimated
/// selectivity against the sequential scan it would replace — the
/// MySQL-like conjunctive path at [`MYSQL_INDEX_FRACTION`] of the table,
/// the PostgreSQL-like profile's cheapest path (the conjunctive path, one
/// probe per disjunct, or a BitmapOr over an OR-conjunct) at
/// [`PG_BITMAP_FRACTION`]. When no index path survives the gate, the table
/// is scanned.
fn plan_access(
    entry: &TableEntry,
    alias: &str,
    predicate: Option<&Expr>,
    hint: &IndexHint,
    profile: DbProfile,
) -> AccessPlan {
    let Some(pred) = predicate else {
        return AccessPlan::SeqScan;
    };
    let table_rows = entry.table.len().max(1) as f64;

    // A conjunctive predicate has an index path of its own; a disjunctive
    // one needs a probe per disjunct.
    let conjunctive = !matches!(pred.unshared(), Expr::Or(_));
    let conjuncts = pred.conjuncts().len();

    // Hints are a MySQL-connector feature; the PostgreSQL-like profile
    // ignores them entirely (paper Section 5.3).
    if profile == DbProfile::MySqlLike {
        match hint {
            IndexHint::IgnoreAll => return AccessPlan::SeqScan,
            IndexHint::Force(cols) => {
                let forced = if conjunctive {
                    conjunctive_path(entry, alias, pred, Some(cols))
                        .map(|path| path.into_plan(conjuncts, false))
                } else {
                    probes_per_disjunct(pred, entry, alias, Some(cols)).map(|(probes, exact)| {
                        AccessPlan::IndexOr {
                            probes,
                            bitmap: false,
                            residual: !exact,
                        }
                    })
                };
                // FORCE INDEX that cannot be applied degenerates to a scan.
                return forced.unwrap_or(AccessPlan::SeqScan);
            }
            IndexHint::None => {}
        }
    }

    match profile {
        DbProfile::MySqlLike => {
            // No index-merge *union* without hints: only a conjunctive
            // predicate can use indexes, and only when selective enough.
            if conjunctive {
                if let Some(path) = conjunctive_path(entry, alias, pred, None) {
                    if path.est_cost / table_rows <= MYSQL_INDEX_FRACTION {
                        return path.into_plan(conjuncts, false);
                    }
                }
            }
            AccessPlan::SeqScan
        }
        DbProfile::PostgresLike => {
            // Cost-based: try (a) the conjunctive path, or one probe per
            // top-level disjunct, and (b) BitmapOr over an OR-shaped
            // conjunct inside an AND. Costs are fetched-row equivalents.
            let bitmap_or = |probes, residual| AccessPlan::IndexOr {
                probes,
                bitmap: true,
                residual,
            };
            let whole = if conjunctive {
                conjunctive_path(entry, alias, pred, None)
                    .map(|path| (path.est_cost, path.into_plan(conjuncts, true)))
            } else {
                probes_per_disjunct(pred, entry, alias, None).map(|(probes, exact)| {
                    let est = probes.iter().map(|p| p.estimate_rows(entry)).sum();
                    (est, bitmap_or(probes, !exact))
                })
            };
            let or_conjunct = probes_from_or_conjunct(pred, entry, alias)
                .map(|(est, probes)| (est, bitmap_or(probes, true)));
            match [whole, or_conjunct]
                .into_iter()
                .flatten()
                .min_by(|a, b| a.0.total_cmp(&b.0))
            {
                Some((est, plan)) if est / table_rows <= PG_BITMAP_FRACTION => plan,
                _ => AccessPlan::SeqScan,
            }
        }
    }
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
        } = conj.unshared()
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

/// How one FROM input's rows are produced. Tables are held by name: a plan
/// borrows nothing from the catalog.
#[derive(Debug)]
pub(crate) enum Read {
    /// Base table `table`, through an access plan.
    Access { table: String, plan: AccessPlan },
    /// Base table `table`, never read on its own: an index nested loop
    /// probes [`TableEntry::indexes`]`[index]` — the index on the input's
    /// first join key, which it always has — once per outer row.
    Lookup { table: String, index: usize },
    /// A materialized relation, scanned (temps have no indexes).
    Temp(TempSource),
}

/// What a [`Read::Temp`] scans.
#[derive(Debug)]
pub(crate) enum TempSource {
    /// The WITH result of this name, materialized before the body runs.
    Cte(String),
    /// A derived table `( SELECT … )`, run when the input is read.
    Derived(Box<QueryPlan>),
}

/// One FROM entry of a planned body.
#[derive(Debug)]
pub(crate) struct Input {
    /// FROM alias.
    pub(crate) alias: String,
    /// Its row: what `local` and the own side of `keys` index into.
    pub(crate) schema: Arc<TableSchema>,
    /// The conjuncts that mention this input only, bound to its own row.
    pub(crate) local: FilterProgram,
    /// How its rows are produced.
    pub(crate) read: Read,
    /// Equi-join keys against the inputs before it, as `(slot in the rows
    /// joined so far, slot in its own row)`. The first drives the join —
    /// the index a [`Read::Lookup`] probes, else the hash table's key — the
    /// rest are compared per candidate pair. Empty for the first input and
    /// for a cross product.
    pub(crate) keys: Vec<(usize, usize)>,
}

impl Input {
    /// The column its first join key compares, if it is joined on one.
    pub(crate) fn key_column(&self) -> Option<&str> {
        self.keys.first().map(|&(_, own)| self.schema.columns[own].name.as_str())
    }

    /// EXPLAIN's label for how the input is read.
    pub(crate) fn describe(&self) -> String {
        match &self.read {
            Read::Access { plan, .. } => plan.describe(),
            Read::Lookup { .. } => format!("IndexLookup({})", self.key_column().unwrap_or_default()),
            Read::Temp(TempSource::Cte(_)) => "SeqScan(temp)".to_string(),
            Read::Temp(TempSource::Derived(_)) => "SeqScan(derived)".to_string(),
        }
    }

    /// EXPLAIN's label for how the input meets the ones before it.
    pub(crate) fn describe_join(&self) -> String {
        match (&self.read, self.key_column()) {
            (Read::Lookup { .. }, Some(col)) => format!("IndexNestedLoop({col})"),
            (_, Some(col)) => format!("HashJoin({col})"),
            (_, None) => "CrossJoin".to_string(),
        }
    }
}

/// A resolved SELECT list.
#[derive(Debug)]
pub(crate) enum Output {
    /// `SELECT *`: the joined rows pass through whole.
    Rows,
    /// Output column `i` is slot `.0[i]` of the joined row.
    Project(Vec<usize>),
    /// GROUP BY / aggregates: the slots of the grouping key, each
    /// aggregate with the slot it folds (`None`: `COUNT(*)`), and the
    /// output columns in SELECT order.
    Aggregate { group_slots: Vec<usize>, aggs: Vec<(AggFunc, Option<usize>)>, outs: Vec<AggOut> },
}

/// One output column of an [`Output::Aggregate`]: the n-th grouping column
/// or the n-th aggregate.
#[derive(Debug)]
pub(crate) enum AggOut {
    Group(usize),
    Agg(usize),
}

/// The planned body of a correlated scalar subquery, as the predicate that
/// holds it carries it (`BoundExpr::ScalarSubquery`).
#[derive(Debug, Clone)]
pub struct Subplan(pub(crate) Arc<QueryPlan>);

#[cfg(test)]
thread_local! {
    /// [`plan_query`] invocations on this thread.
    pub(crate) static PLANNED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// What a query will do, decided once by [`plan_query`]: the executor runs
/// it, EXPLAIN prints it.
#[derive(Debug)]
pub(crate) struct QueryPlan {
    /// WITH bodies, in definition order.
    pub(crate) ctes: Vec<(String, QueryPlan)>,
    /// FROM inputs in join order — the FROM order, joins being left-deep.
    /// Never empty.
    pub(crate) inputs: Vec<Input>,
    /// Conjuncts over several inputs that are not equi-joins, bound to the
    /// joined row.
    pub(crate) residual: FilterProgram,
    /// The resolved SELECT list.
    pub(crate) output: Output,
    /// The result's columns as the SELECT list names them: what a query
    /// reading this one as a WITH result or derived table binds against.
    pub(crate) schema: Arc<TableSchema>,
    /// LIMIT.
    pub(crate) limit: Option<usize>,
}

/// Plan a query: every decision the executor would otherwise make while
/// running it, made here without reading a row or charging a counter.
/// `name` is what the result is called by whoever reads it; `ctes` are the
/// WITH results in scope, innermost last (left as found), and `params` the
/// printed names of the enclosing row's correlation parameters — both
/// empty for a top-level query.
pub(crate) fn plan_query(
    db: &Database,
    query: &SelectQuery,
    name: &str,
    ctes: &mut Vec<(String, Arc<TableSchema>)>,
    params: &HashSet<String>,
) -> DbResult<QueryPlan> {
    #[cfg(test)]
    PLANNED.with(|n| n.set(n.get() + 1));
    // Each WITH clause sees the ones before it.
    let outer_scope = ctes.len();
    let mut cte_plans = Vec::with_capacity(query.with.len());
    for wc in &query.with {
        let plan = plan_query(db, &wc.query, &wc.name, ctes, params)?;
        ctes.push((wc.name.clone(), plan.schema.clone()));
        cte_plans.push((wc.name.clone(), plan));
    }
    if query.from.is_empty() {
        return Err(DbError::Unsupported("query without FROM".into()));
    }

    // Resolve the FROM entries; their schemas make up the joined row.
    enum Rel<'a> {
        Base(&'a str, &'a TableEntry),
        Temp(TempSource),
    }
    let mut layout = Layout::new();
    let mut rels = Vec::with_capacity(query.from.len());
    for tref in &query.from {
        let (rel, schema) = match &tref.source {
            TableSource::Named(n) => match ctes.iter().rev().find(|(cte, _)| cte == n) {
                Some((_, schema)) => (Rel::Temp(TempSource::Cte(n.clone())), schema.clone()),
                None => {
                    let entry = db.table(n)?;
                    (Rel::Base(n, entry), entry.schema().clone())
                }
            },
            TableSource::Derived(q) => {
                let plan = plan_query(db, q, &tref.alias, ctes, params)?;
                let schema = plan.schema.clone();
                (Rel::Temp(TempSource::Derived(Box::new(plan))), schema)
            }
        };
        layout.push(tref.alias.clone(), schema);
        rels.push(rel);
    }
    let classified = match &query.predicate {
        Some(p) => classify_predicate(p, layout.entries()),
        None => ClassifiedPredicate::default(),
    };

    let mut inputs = Vec::with_capacity(rels.len());
    for (k, (tref, rel)) in query.from.iter().zip(rels).enumerate() {
        let (alias, schema) = &layout.entries()[k];
        // Equi-joins with the inputs before this one, as (their column's
        // slot in the joined row, own column's slot).
        let joined = |a: &String| query.from[..k].iter().any(|t| t.alias == *a);
        let mut keys = Vec::new();
        for j in &classified.joins {
            let (outer, own) = if j.left_alias == *alias && joined(&j.right_alias) {
                (ColumnRef::qualified(&j.right_alias, &j.right_column), &j.left_column)
            } else if j.right_alias == *alias && joined(&j.left_alias) {
                (ColumnRef::qualified(&j.left_alias, &j.left_column), &j.right_column)
            } else {
                continue;
            };
            let own = schema.column_index(own).ok_or_else(|| DbError::UnknownColumn(own.clone()))?;
            keys.push((layout.resolve(&outer)?, own));
        }
        let local = classified.local_predicate(alias);
        let read = match rel {
            Rel::Temp(source) => Read::Temp(source),
            // Index nested loop whenever the table has an index on its
            // first join column, whatever the size of the outer side.
            Rel::Base(table, entry) => match keys
                .first()
                .and_then(|&(_, own)| entry.indexes.iter().position(|i| i.column == own))
            {
                Some(index) => Read::Lookup { table: table.to_string(), index },
                None => {
                    let (hint, profile) = (&tref.hint, db.profile());
                    let plan = plan_access(entry, alias, local.as_ref(), hint, profile);
                    Read::Access { table: table.to_string(), plan }
                }
            },
        };
        let own_row = Layout::single(alias.clone(), schema.clone());
        let local = program(db, local.as_ref(), &own_row, ctes, params)?;
        inputs.push(Input { alias: alias.clone(), schema: schema.clone(), local, read, keys });
    }

    let residual = (!classified.residual.is_empty()).then(|| Expr::all(classified.residual));
    let (output, schema) = plan_output(query, &layout, name)?;
    let residual = program(db, residual.as_ref(), &layout, ctes, params)?;
    ctes.truncate(outer_scope);
    Ok(QueryPlan { ctes: cte_plans, inputs, residual, output, schema, limit: query.limit })
}

/// Bind an optional predicate against `layout` and compile it. A scalar
/// subquery in it is planned here, against the WITH results its query sees.
fn program(
    db: &Database,
    pred: Option<&Expr>,
    layout: &Layout,
    ctes: &mut Vec<(String, Arc<TableSchema>)>,
    params: &HashSet<String>,
) -> DbResult<FilterProgram> {
    let mut subplan = |q: &SelectQuery, names: &HashSet<String>| {
        let plan = plan_query(db, q, "", ctes, names)?;
        Ok(Subplan(Arc::new(plan)))
    };
    let bound = pred.map(|p| bind(p, layout, params, &mut subplan)).transpose()?;
    Ok(FilterProgram::new(bound))
}

/// Resolve the SELECT list against the joined row: which slots make up an
/// output row, and the relation — called `name` — those rows form.
fn plan_output(
    query: &SelectQuery,
    layout: &Layout,
    name: &str,
) -> DbResult<(Output, Arc<TableSchema>)> {
    let grouped = query.has_aggregates() || !query.group_by.is_empty();
    // All of a lone relation is that relation again, bare column names
    // and all.
    if let ([SelectItem::Star], [(_, only)], false) = (&query.select[..], layout.entries(), grouped) {
        return Ok((Output::Rows, only.clone()));
    }
    let schema = |columns| Arc::new(TableSchema::new(name, columns));
    let joined: Vec<&Column> = layout.entries().iter().flat_map(|(_, s)| &s.columns).collect();
    let named = |name: &Option<String>, default: &str, dtype| {
        Column::new(name.clone().unwrap_or_else(|| default.to_string()), dtype)
    };
    let star = || layout.qualified_names().into_iter().zip(&joined).map(|(n, c)| Column::new(n, c.dtype));
    let mut columns = Vec::new();
    if grouped {
        let group_slots: Vec<usize> =
            query.group_by.iter().map(|c| layout.resolve(c)).collect::<DbResult<_>>()?;
        let (mut outs, mut aggs) = (Vec::new(), Vec::new());
        for item in &query.select {
            match item {
                SelectItem::Star => return Err(DbError::Unsupported("SELECT * with GROUP BY".into())),
                SelectItem::Column { column, alias } => {
                    let slot = layout.resolve(column)?;
                    let gidx = group_slots.iter().position(|&s| s == slot).ok_or_else(|| {
                        DbError::Unsupported(format!("column {column} not in GROUP BY"))
                    })?;
                    outs.push(AggOut::Group(gidx));
                    columns.push(named(alias, &column.column, joined[slot].dtype));
                }
                SelectItem::Aggregate { func, column, alias } => {
                    let slot = column.as_ref().map(|c| layout.resolve(c)).transpose()?;
                    if slot.is_none() && !matches!(func, AggFunc::Count) {
                        // Both backends reject this identically: the
                        // renderer keeps the DISTINCT spelling, so the
                        // wire path can no longer degrade it to COUNT(*).
                        let spelled = if matches!(func, AggFunc::CountDistinct) {
                            "COUNT(DISTINCT *)".to_string()
                        } else {
                            format!("{}(*)", func.sql())
                        };
                        return Err(DbError::Unsupported(format!(
                            "{spelled} is not supported: * only valid in COUNT(*)"
                        )));
                    }
                    let dtype = match (func, slot) {
                        (AggFunc::Sum | AggFunc::Min | AggFunc::Max, Some(s)) => joined[s].dtype,
                        (AggFunc::Avg, _) => DataType::Double,
                        _ => DataType::Int,
                    };
                    outs.push(AggOut::Agg(aggs.len()));
                    columns.push(named(alias, &func.sql().to_lowercase(), dtype));
                    aggs.push((*func, slot));
                }
            }
        }
        return Ok((Output::Aggregate { group_slots, aggs, outs }, schema(columns)));
    }
    if let [SelectItem::Star] = query.select.as_slice() {
        return Ok((Output::Rows, schema(star().collect())));
    }
    let mut slots = Vec::new();
    for item in &query.select {
        match item {
            SelectItem::Star => {
                slots.extend(0..joined.len());
                columns.extend(star());
            }
            SelectItem::Column { column, alias } => {
                let slot = layout.resolve(column)?;
                slots.push(slot);
                columns.push(named(alias, &column.column, joined[slot].dtype));
            }
            SelectItem::Aggregate { .. } => {
                return Err(DbError::Unsupported("aggregate outside GROUP BY query".into()))
            }
        }
    }
    Ok((Output::Project(slots), schema(columns)))
}

/// Planner decision for one relation in the FROM clause.
#[derive(Debug, Clone)]
pub struct RelationPlan {
    /// FROM alias.
    pub alias: String,
    /// Base table name (or the WITH/derived name).
    pub table: String,
    /// Chosen access plan. Temp and derived relations have none and carry
    /// `SeqScan`; a relation reached by index nested loop carries an
    /// IN-list probe of the joined column with no keys of its own — they
    /// are the outer rows' values.
    pub access: AccessPlan,
    /// Human-readable access description.
    pub access_desc: String,
    /// Estimated rows fetched from the heap (NaN where the plan cannot
    /// say: temps, and lookups driven by the outer side).
    pub est_rows: f64,
    /// Estimated fraction of the table fetched (the paper's ρ/|r|).
    pub est_fraction: f64,
    /// Total rows in the relation.
    pub table_rows: u64,
    /// How the relation meets the ones before it in FROM order:
    /// `IndexNestedLoop(col)`, `HashJoin(col)` or `CrossJoin`; `None` for
    /// the first.
    pub join: Option<String>,
}

/// EXPLAIN output: one entry per FROM relation of the outermost body.
/// WITH-clause bodies are explained recursively in `ctes`.
#[derive(Debug, Clone, Default)]
pub struct ExplainOutput {
    /// Plans for the body's FROM relations, in join order.
    pub relations: Vec<RelationPlan>,
    /// EXPLAIN of each WITH clause, in definition order.
    pub ctes: Vec<(String, ExplainOutput)>,
}

impl fmt::Display for ExplainOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, e) in &self.ctes {
            writeln!(f, "CTE {name}:")?;
            for line in e.to_string().lines() {
                writeln!(f, "  {line}")?;
            }
        }
        for r in &self.relations {
            write!(
                f,
                "{} ({}): {} est_rows={:.1} ({:.2}% of {})",
                r.alias,
                r.table,
                r.access_desc,
                r.est_rows,
                r.est_fraction * 100.0,
                r.table_rows
            )?;
            match &r.join {
                Some(join) => writeln!(f, " join={join}")?,
                None => writeln!(f)?,
            }
        }
        Ok(())
    }
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
    fn pg_bitmap_gate_is_a_fixed_fraction_of_the_table() {
        let db = setup(DbProfile::PostgresLike);
        let entry = db.table("w").unwrap();
        // Each owner holds 1 % of the table; the gate admits up to 40 %.
        let owner_in = |n: i64| Expr::InList {
            expr: Box::new(Expr::Column(ColumnRef::bare("owner"))),
            list: (0..n).map(|k| Expr::Literal(Value::Int(k))).collect(),
            negated: false,
        };
        for (keys, bitmap) in [(10, true), (40, true), (41, false), (90, false)] {
            let plan =
                plan_access(entry, "w", Some(&owner_in(keys)), &IndexHint::None, DbProfile::PostgresLike);
            assert_eq!(matches!(plan, AccessPlan::IndexOr { bitmap: true, .. }), bitmap, "{keys}: {plan:?}");
            assert_eq!(plan == AccessPlan::SeqScan, !bitmap, "{keys}: {plan:?}");
        }
    }

    fn ap_in(aps: std::ops::Range<i64>) -> Expr {
        Expr::InList {
            expr: Box::new(Expr::Column(ColumnRef::bare("wifi_ap"))),
            list: aps.map(|a| Expr::Literal(Value::Int(a))).collect(),
            negated: false,
        }
    }

    fn owner_lt(v: i64) -> Expr {
        Expr::col_cmp(ColumnRef::bare("owner"), CmpOp::Lt, Value::Int(v))
    }

    #[test]
    fn conjunctive_path_adds_a_probe_only_while_it_pays() {
        for profile in [DbProfile::MySqlLike, DbProfile::PostgresLike] {
            let db = setup(profile);
            let entry = db.table("w").unwrap();
            // 4 of 20 APs = 400 rows; owner < 30 ≈ 600: walking 600 entries
            // (÷ 6 = 100 fetches' worth) saves 400 − 120 = 280 fetches.
            let pred = Expr::and(ap_in(1000..1004), owner_lt(30));
            let path = conjunctive_path(entry, "w", &pred, None).unwrap();
            assert_eq!(path.columns(), ["wifi_ap", "owner"]);
            assert!((path.est_rows - 120.0).abs() < 15.0, "{path:?}");
            assert!(path.est_cost > path.est_rows && path.est_cost < 400.0, "{path:?}");
            let plan = plan_access(entry, "w", Some(&pred), &IndexHint::None, profile);
            assert_eq!(plan.describe(), "IndexIntersect(wifi_ap ∩ owner, residual)");
            assert!((plan.estimate_rows(entry) - path.est_rows).abs() < 1e-9);

            // One AP = 100 rows; owner < 90 ≈ 1800: the walk (300) costs
            // more than the 10 fetches it saves — a single probe.
            let pred = Expr::and(ap_in(1000..1001), owner_lt(90));
            let path = conjunctive_path(entry, "w", &pred, None).unwrap();
            assert_eq!(path.columns(), ["wifi_ap"]);
            assert_eq!((path.est_rows, path.est_cost), (100.0, 100.0));
            let plan = plan_access(entry, "w", Some(&pred), &IndexHint::None, profile);
            assert_eq!(plan.describe(), "IndexScan(wifi_ap, residual)");
        }
    }

    #[test]
    fn force_hint_intersects_exactly_the_named_columns() {
        let db = setup(DbProfile::MySqlLike);
        let entry = db.table("w").unwrap();
        // Unhinted this is a single probe (see above); the hint decides.
        let pred = Expr::and(ap_in(1000..1001), owner_lt(90));
        let force = |cols: &[&str]| {
            let hint = IndexHint::Force(cols.iter().map(|c| c.to_string()).collect());
            plan_access(entry, "w", Some(&pred), &hint, DbProfile::MySqlLike).describe()
        };
        assert_eq!(force(&["owner", "wifi_ap"]), "IndexIntersect(wifi_ap ∩ owner, residual)");
        assert_eq!(force(&["owner"]), "IndexScan(owner, residual)");
        assert_eq!(force(&["wifi_ap", "ts_time"]), "IndexScan(wifi_ap, residual)");
        assert_eq!(force(&["ts_time"]), "SeqScan");
    }

    #[test]
    fn hinting_a_chosen_path_reproduces_it() {
        // What the middleware does for IndexQuery: take the unhinted
        // path's columns, hand them back as FORCE INDEX.
        let db = setup(DbProfile::MySqlLike);
        let entry = db.table("w").unwrap();
        for pred in [
            Expr::and(ap_in(1000..1004), owner_lt(30)),
            Expr::and(ap_in(1000..1001), owner_lt(90)),
            Expr::all(vec![owner_eq(3), ap_in(1000..1010), owner_lt(50)]),
        ] {
            let chosen = conjunctive_path(entry, "w", &pred, None).unwrap();
            let forced = conjunctive_path(entry, "w", &pred, Some(&chosen.columns())).unwrap();
            assert_eq!(forced, chosen);
        }
    }

    #[test]
    fn exact_intersection_drops_the_residual() {
        let db = setup(DbProfile::MySqlLike);
        let entry = db.table("w").unwrap();
        let hint = IndexHint::Force(vec!["owner".into(), "wifi_ap".into()]);
        // Every conjunct has its own exact probe.
        let pred = Expr::and(owner_eq(3), ap_in(1000..1010));
        let plan = plan_access(entry, "w", Some(&pred), &hint, DbProfile::MySqlLike);
        assert_eq!(plan.describe(), "IndexIntersect(owner ∩ wifi_ap, exact)");
        // An unbounded-low range starts at the NULL keys: residual stays.
        let pred = Expr::and(owner_lt(3), ap_in(1000..1010));
        let plan = plan_access(entry, "w", Some(&pred), &hint, DbProfile::MySqlLike);
        assert_eq!(plan.describe(), "IndexIntersect(owner ∩ wifi_ap, residual)");
    }

    #[test]
    fn equality_estimates_are_index_dives() {
        let mut db = setup(DbProfile::MySqlLike);
        // 100 distinct owners, 32 most-common values tracked: the
        // histogram answers `owner = 77` with the remainder's average.
        // A device seen once is 20× rarer than that.
        db.insert(
            "w",
            vec![Value::Int(9000), Value::Int(777), Value::Int(1000), Value::Time(1)],
        )
        .unwrap();
        let entry = db.table("w").unwrap();
        let point = |v: i64| IndexProbe::Point {
            column: "owner".into(),
            key: Value::Int(v),
        };
        assert_eq!(point(777).estimate_rows(entry), 1.0);
        assert_eq!(point(77).estimate_rows(entry), 20.0);
        assert_eq!(point(778).estimate_rows(entry), 0.0);
        let list = IndexProbe::InList {
            column: "owner".into(),
            keys: vec![Value::Int(777), Value::Int(5), Value::Int(-1)],
        };
        assert_eq!(list.estimate_rows(entry), 21.0);
    }
}
