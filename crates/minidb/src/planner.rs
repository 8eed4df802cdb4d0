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
//! **A WITH body read once is a filter, not a table.** A body of the shape
//! `SELECT * FROM base [hint] WHERE p` — one base table, no GROUP BY, no
//! LIMIT, no WITH of its own, no scalar subquery in `p` — that the query
//! reads exactly once (counting FROM entries at every depth and scalar
//! subqueries) is not materialized: its reader is planned as a read of
//! `base` under the body's hint, as MySQL 8 merges such a derived table
//! (`derived_merge`) and PostgreSQL ≥ 12 inlines such a CTE. The read's
//! access path is planned over `p` under the body's hint, as the body's
//! own would be, unless the reader joins it through an index (an index
//! nested loop on the join key). Its filter is what the path leaves open
//! of `p`, bound against the body's own row — so a shared guard node in it
//! keeps its one bound form whoever reads it — then the reader's conjuncts
//! on its alias that are not conjuncts of `p` once the alias is stripped.
//! Every other body — read twice, aggregating, limited, or a derived
//! table — is run first and scanned as a temp.
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
use crate::expr::{bind, BoundExpr, CmpOp, ColumnRef, Expr, FilterProgram, Layout};
use crate::index::{RangeBound, RowIdSet};
use crate::plan::{AggFunc, IndexHint, SelectItem, SelectQuery, TableSource};
use crate::schema::{Column, TableSchema};
use crate::stats::Tally;
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
    /// satisfying the comparison it was derived from, so that conjunct
    /// need not be checked again on them. NULL keys break the equivalence:
    /// the index stores NULL (it sorts below every value), but SQL
    /// comparisons against NULL are false — so a NULL probe key, or a
    /// range whose low end is unbounded (and therefore starts at the NULL
    /// keys), leaves its conjunct to be checked. (A NaN key never gets
    /// this far: no probe is derived from one.)
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
    pub fn run(&self, entry: &TableEntry, tally: &Tally) -> Vec<RowId> {
        let idx = match entry.index_on(self.column()) {
            Some(i) => i,
            None => return Vec::new(),
        };
        match self {
            IndexProbe::Point { key, .. } => idx.lookup(key, tally),
            IndexProbe::Range { low, high, .. } => idx.range(low, high, tally),
            IndexProbe::InList { keys, .. } => idx.lookup_in(keys, tally),
        }
    }

    /// Run the probe into a row-id set, walking the posting lists in
    /// place. Charges the same probes as [`IndexProbe::run`].
    pub fn run_into(&self, entry: &TableEntry, tally: &Tally, set: &mut RowIdSet) {
        let Some(idx) = entry.index_on(self.column()) else {
            return;
        };
        match self {
            IndexProbe::Point { key, .. } => set.insert_all(idx.postings(key, tally)),
            IndexProbe::Range { low, high, .. } => {
                for ids in idx.range_postings(low, high, tally) {
                    set.insert_all(ids);
                }
            }
            IndexProbe::InList { keys, .. } => {
                for k in keys {
                    set.insert_all(idx.postings(k, tally));
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
        /// What the fetched rows are still checked against.
        recheck: Recheck,
    },
    /// One index probe per chosen conjunct of a conjunctive predicate
    /// (MySQL's index-merge intersection, PostgreSQL's `BitmapAnd`): the
    /// probes' row-id sets are ANDed and the survivors fetched once, in
    /// page order. Always at least two probes; see [`conjunctive_path`].
    IndexIntersect {
        /// The probes, most selective first.
        probes: Vec<IndexProbe>,
        /// What the fetched rows are still checked against.
        recheck: Recheck,
    },
}

/// The conjuncts of a relation's local predicate that the rows an index
/// path fetches are checked against: every one no probe answers exactly
/// (see [`IndexProbe::is_exact`]). A row an intersection fetches passed
/// every probe, and a row a lone probe fetches passed that probe, so each
/// conjunct such an exact probe was derived from is decided and left out
/// of the filter. A row a union of several probes fetches passed only one
/// of them, so a union decides nothing short of the whole predicate, when
/// that is a disjunction of lone exact probes. A conjunct is decided
/// whole or not at all: a shared guard node is never taken apart.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Recheck {
    /// Positions, among the predicate's conjuncts, of those still checked,
    /// ascending. Empty: the probes are exact, nothing is checked.
    pub left: Vec<usize>,
    /// How many conjuncts the predicate has.
    pub of: usize,
}

impl Recheck {
    /// What of `pred` — the predicate whose conjuncts this counts — is
    /// left to check; `None` when nothing is.
    fn apply(&self, pred: Expr) -> Option<Expr> {
        if self.left.len() == self.of {
            return Some(pred);
        }
        let conjuncts = pred.conjuncts();
        let left: Vec<Expr> = self.left.iter().map(|&i| conjuncts[i].clone()).collect();
        (!left.is_empty()).then(|| Expr::all(left))
    }
}

impl fmt::Display for Recheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.left.is_empty() {
            f.write_str("exact")
        } else {
            write!(f, "recheck {} of {}", self.left.len(), self.of)
        }
    }
}

impl AccessPlan {
    /// Human-readable access label for EXPLAIN output.
    pub fn describe(&self) -> String {
        match self {
            AccessPlan::SeqScan => "SeqScan".to_string(),
            AccessPlan::IndexOr {
                probes,
                bitmap,
                recheck,
            } => {
                let mut cols: Vec<&str> = probes.iter().map(|p| p.column()).collect();
                cols.sort_unstable();
                cols.dedup();
                let cols = cols.join(",");
                match (probes.len(), *bitmap) {
                    (1, _) => format!("IndexScan({cols}, {recheck})"),
                    (n, true) => format!("BitmapOr(col={cols}, {n} probes, {recheck})"),
                    (n, false) => format!("IndexUnion(col={cols}, {n} probes, {recheck})"),
                }
            }
            AccessPlan::IndexIntersect { probes, recheck } => {
                let cols: Vec<&str> = probes.iter().map(|p| p.column()).collect();
                format!("IndexIntersect({}, {recheck})", cols.join(" ∩ "))
            }
        }
    }

    /// What the rows it fetches are still checked against; `None` for a
    /// scan, which checks every row against everything.
    pub fn recheck(&self) -> Option<&Recheck> {
        match self {
            AccessPlan::SeqScan => None,
            AccessPlan::IndexOr { recheck, .. } | AccessPlan::IndexIntersect { recheck, .. } => {
                Some(recheck)
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
/// `allowed` columns when a FORCE INDEX hint names them. A NaN key or bound
/// has no probe: `Value`'s order calls NaN equal to every number, so the
/// comparison holds on every numeric row while a B-tree descent lands on
/// one key.
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

    let key = |e: &Expr| match e {
        Expr::Literal(v) if !v.is_nan() => Some(v.clone()),
        _ => None,
    };
    match e.unshared() {
        Expr::Cmp { op, lhs, rhs } => {
            let (col, lit, op) = match (&**lhs, &**rhs) {
                (Expr::Column(c), lit) => (col_ok(c)?, key(lit)?, *op),
                (lit, Expr::Column(c)) => (col_ok(c)?, key(lit)?, op.flip()),
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
            Some(IndexProbe::Range {
                column: col,
                low: RangeBound::Inclusive(key(low)?),
                high: RangeBound::Inclusive(key(high)?),
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
            let keys = list.iter().map(key).collect::<Option<Vec<Value>>>()?;
            Some(IndexProbe::InList { column: col, keys })
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
    /// Positions, among the predicate's conjuncts, of those an exact probe
    /// of the path was derived from: every row it fetches satisfies them.
    pub(crate) answered: Vec<usize>,
}

impl ConjunctivePath {
    /// The probed columns, in probe order — the `FORCE INDEX` list under
    /// which the planner re-derives this path.
    pub fn columns(&self) -> Vec<String> {
        self.probes.iter().map(|p| p.column().to_string()).collect()
    }

    /// Add a probe derived from the predicate's conjunct at `at`.
    fn push(&mut self, probe: IndexProbe, at: usize) {
        if probe.is_exact() {
            self.answered.push(at);
        }
        self.probes.push(probe);
    }

    /// The plan that executes this path over a predicate of `conjuncts`
    /// conjuncts, checking the fetched rows against those it leaves open.
    fn into_plan(self, conjuncts: usize, bitmap: bool) -> AccessPlan {
        let left = (0..conjuncts).filter(|i| !self.answered.contains(i)).collect();
        let recheck = Recheck { left, of: conjuncts };
        if self.probes.len() == 1 {
            AccessPlan::IndexOr { probes: self.probes, bitmap, recheck }
        } else {
            AccessPlan::IndexIntersect { probes: self.probes, recheck }
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
    // (estimated rows, probe, position of its conjunct)
    let mut candidates: Vec<(f64, IndexProbe, usize)> = Vec::new();
    for (at, c) in pred.conjuncts().into_iter().enumerate() {
        let Some(p) = probe_from_expr(c, entry, alias, allowed) else {
            continue;
        };
        let est = p.estimate_rows(entry);
        match candidates.iter_mut().find(|(_, q, _)| q.column() == p.column()) {
            Some(best) if est < best.0 => *best = (est, p, at),
            Some(_) => {}
            None => candidates.push((est, p, at)),
        }
    }
    // Stable: equally selective probes keep the predicate's order.
    candidates.sort_by(|a, b| a.0.total_cmp(&b.0));
    let table_rows = entry.table.len() as f64;
    let mut candidates = candidates.into_iter();
    let (first_rows, first, at) = candidates.next()?;
    let first_rows = first_rows.min(table_rows);
    let mut path = ConjunctivePath {
        probes: Vec::new(),
        est_rows: first_rows,
        est_cost: first_rows,
        answered: Vec::new(),
    };
    path.push(first, at);
    for (probe_rows, p, at) in candidates {
        let fewer = narrowed(path.est_rows, probe_rows, table_rows);
        let walk = probe_rows * POSTING_WALK_FRACTION;
        // Every later candidate walks more and saves less.
        if allowed.is_none() && walk >= path.est_rows - fewer {
            break;
        }
        path.est_cost += walk - (path.est_rows - fewer);
        path.est_rows = fewer;
        path.push(p, at);
    }
    Some(path)
}

/// One probe per disjunct of `pred`; `None` if any disjunct has no probe
/// (an unguardable branch forces a scan — every row could match it). The
/// returned flag is true when the probe union covers the predicate
/// *exactly* — every disjunct is a single conjunct whose probe
/// [`IndexProbe::is_exact`] — so the fetched rows need no check. Guard
/// fragments (`owner = X`, `purpose ∈ …`) are precisely this shape.
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
    // A union decides the whole predicate or nothing of it.
    let union_recheck = |exact: bool| {
        let left = if exact { Vec::new() } else { (0..conjuncts).collect() };
        Recheck { left, of: conjuncts }
    };

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
                        AccessPlan::IndexOr { probes, bitmap: false, recheck: union_recheck(exact) }
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
            let bitmap_or = |probes, exact| AccessPlan::IndexOr {
                probes,
                bitmap: true,
                recheck: union_recheck(exact),
            };
            let whole = if conjunctive {
                conjunctive_path(entry, alias, pred, None)
                    .map(|path| (path.est_cost, path.into_plan(conjuncts, true)))
            } else {
                probes_per_disjunct(pred, entry, alias, None).map(|(probes, exact)| {
                    let est = probes.iter().map(|p| p.estimate_rows(entry)).sum();
                    (est, bitmap_or(probes, exact))
                })
            };
            let or_conjunct = probes_from_or_conjunct(pred, entry, alias)
                .map(|(est, probes)| (est, bitmap_or(probes, false)));
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
    /// A materialized relation, scanned (temps have no indexes). A WITH
    /// result is one only when it is not merged into its reader (see
    /// [`InScope::Merged`]): it is read more than once, or its body is
    /// not a filtered `SELECT *` of one base table.
    Temp(TempSource),
}

/// What a [`Read::Temp`] scans.
#[derive(Debug)]
pub(crate) enum TempSource {
    /// The WITH result of this name, materialized before the body runs:
    /// a body read twice, or one that aggregates, projects, joins, limits
    /// or has a WITH of its own. A body read once as `SELECT * FROM base
    /// [hint] WHERE p` never is — its reader reads `base`.
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
    /// The conjuncts that mention this input only, bound to its own row —
    /// but for those its access path's probes answer exactly ([`Recheck`]).
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

/// A WITH result in scope of the query being planned.
#[derive(Debug, Clone)]
pub(crate) enum InScope {
    /// Materialized before the body that defines it runs, and read as a
    /// [`Read::Temp`] of rows of this schema.
    Temp(Arc<TableSchema>),
    /// Never materialized: its one reader reads the base table instead.
    Merged(Arc<Merged>),
}

/// A WITH body `SELECT * FROM base [hint] WHERE p` that the query reads
/// exactly once (MySQL's `derived_merge`, PostgreSQL's inlining of a CTE
/// referenced once): its reader is planned as a read of `base` under the
/// body's hint, `p` in that read's filter.
#[derive(Debug)]
pub(crate) struct Merged {
    /// The base table.
    table: String,
    /// The body's FROM alias: `p` is bound against a row of that name, so
    /// a shared node in it keeps the one bound form whoever reads it.
    alias: String,
    hint: IndexHint,
    /// `p`, if the body has a WHERE.
    filter: Option<Expr>,
}

impl Merged {
    /// `body` as a merged read, if it has the shape: `SELECT *` of one
    /// base table — not a WITH result of `ctes` — with no WITH, GROUP BY
    /// or LIMIT, and no scalar subquery in its filter (whose body would
    /// resolve its names where the reader stands, not where it is written).
    fn of(db: &Database, body: &SelectQuery, ctes: &[(String, InScope)]) -> Option<Merged> {
        let ([SelectItem::Star], [tref], None) = (&body.select[..], &body.from[..], body.limit) else {
            return None;
        };
        let TableSource::Named(table) = &tref.source else {
            return None;
        };
        let shaped = body.with.is_empty() && body.group_by.is_empty();
        if !shaped || ctes.iter().any(|(cte, _)| cte == table) || db.table(table).is_err() {
            return None;
        }
        let mut subquery = false;
        if let Some(p) = &body.predicate {
            p.visit_subqueries(&mut |_| subquery = true);
        }
        (!subquery).then(|| Merged {
            table: table.clone(),
            alias: tref.alias.clone(),
            hint: tref.hint.clone(),
            filter: body.predicate.clone(),
        })
    }
}

/// How often the WITH result `name`, in scope of `query` from its
/// `from_with`-th WITH clause on, is read: as a FROM entry at any depth or
/// in a scalar subquery, until a WITH clause of the same name shadows it.
fn reads_of(name: &str, query: &SelectQuery, from_with: usize) -> usize {
    let mut n = 0;
    for wc in &query.with[from_with..] {
        n += reads_of(name, &wc.query, 0);
        if wc.name == name {
            return n;
        }
    }
    for tref in &query.from {
        n += match &tref.source {
            TableSource::Named(t) => usize::from(t == name),
            TableSource::Derived(q) => reads_of(name, q, 0),
        };
    }
    if let Some(p) = &query.predicate {
        p.visit_subqueries(&mut |q| n += reads_of(name, q, 0));
    }
    n
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
    ctes: &mut Vec<(String, InScope)>,
    params: &HashSet<String>,
) -> DbResult<QueryPlan> {
    #[cfg(test)]
    PLANNED.with(|n| n.set(n.get() + 1));
    // Each WITH clause sees the ones before it. A body read once that is a
    // filtered read of a base table is planned where it is read.
    let outer_scope = ctes.len();
    let mut cte_plans = Vec::new();
    for (i, wc) in query.with.iter().enumerate() {
        if reads_of(&wc.name, query, i + 1) == 1 {
            if let Some(merged) = Merged::of(db, &wc.query, ctes) {
                ctes.push((wc.name.clone(), InScope::Merged(Arc::new(merged))));
                continue;
            }
        }
        let plan = plan_query(db, &wc.query, &wc.name, ctes, params)?;
        ctes.push((wc.name.clone(), InScope::Temp(plan.schema.clone())));
        cte_plans.push((wc.name.clone(), plan));
    }
    if query.from.is_empty() {
        return Err(DbError::Unsupported("query without FROM".into()));
    }

    // Resolve the FROM entries; their schemas make up the joined row.
    enum Rel<'a> {
        /// A base table, read on its own or as a merged WITH body.
        Base(String, &'a TableEntry, Option<Arc<Merged>>),
        Temp(TempSource),
    }
    let mut layout = Layout::new();
    let mut rels = Vec::with_capacity(query.from.len());
    for tref in &query.from {
        let (rel, schema) = match &tref.source {
            TableSource::Named(n) => match ctes.iter().rev().find(|(cte, _)| cte == n) {
                Some((_, InScope::Temp(schema))) => {
                    (Rel::Temp(TempSource::Cte(n.clone())), schema.clone())
                }
                Some((_, InScope::Merged(body))) => {
                    let entry = db.table(&body.table)?;
                    let rel = Rel::Base(body.table.clone(), entry, Some(Arc::clone(body)));
                    (rel, entry.schema().clone())
                }
                None => {
                    let entry = db.table(n)?;
                    (Rel::Base(n.clone(), entry, None), entry.schema().clone())
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
        let own_row = Layout::single(alias.clone(), schema.clone());
        let (read, local) = match rel {
            Rel::Temp(source) => {
                let local = classified.local_predicate(alias);
                let local = bound(db, local.as_ref(), &own_row, ctes, params)?;
                (Read::Temp(source), FilterProgram::new(local))
            }
            Rel::Base(table, entry, body) => {
                // A merged body's filter is checked first, bound against
                // the body's row; then the input's own conjuncts that it
                // does not already hold — the rewriter pushes a query's
                // local predicate into its guard body and leaves it in the
                // query too.
                let mut written = body.as_ref().and_then(|b| b.filter.clone());
                let own = classified.local.get(alias).map_or(&[][..], Vec::as_slice);
                let own: Vec<Expr> = match &written {
                    Some(p) => {
                        let held = p.conjuncts();
                        own.iter().filter(|c| !held.contains(&&c.strip_alias(alias))).cloned().collect()
                    }
                    None => own.to_vec(),
                };
                let mut own = (!own.is_empty()).then(|| Expr::all(own));
                // Index nested loop whenever the table has an index on its
                // first join column, whatever the size of the outer side.
                let read = match keys
                    .first()
                    .and_then(|&(_, own)| entry.indexes.iter().position(|i| i.column == own))
                {
                    Some(index) => Read::Lookup { table, index },
                    None => {
                        // The body's filter and hint are the access path's,
                        // as the rewrite chose them; without a filter the
                        // input's own conjuncts are.
                        let hint = body.as_ref().map_or(&tref.hint, |b| &b.hint);
                        let (path_alias, pred) = match (&body, written.is_some()) {
                            (Some(b), true) => (&b.alias, &mut written),
                            _ => (alias, &mut own),
                        };
                        let plan = plan_access(entry, path_alias, pred.as_ref(), hint, db.profile());
                        // What the probes decided is not checked again.
                        if let Some(recheck) = plan.recheck() {
                            *pred = pred.take().and_then(|p| recheck.apply(p));
                        }
                        Read::Access { table, plan }
                    }
                };
                let own = bound(db, own.as_ref(), &own_row, ctes, params)?;
                let local = match (&body, written) {
                    (Some(body), Some(written)) => {
                        let body_row = Layout::single(body.alias.clone(), schema.clone());
                        conjoin(bound(db, Some(&written), &body_row, ctes, params)?, own)
                    }
                    _ => own,
                };
                (read, FilterProgram::new(local))
            }
        };
        inputs.push(Input { alias: alias.clone(), schema: schema.clone(), local, read, keys });
    }

    let residual = (!classified.residual.is_empty()).then(|| Expr::all(classified.residual));
    let (output, schema) = plan_output(query, &layout, name)?;
    let residual = FilterProgram::new(bound(db, residual.as_ref(), &layout, ctes, params)?);
    ctes.truncate(outer_scope);
    Ok(QueryPlan { ctes: cte_plans, inputs, residual, output, schema, limit: query.limit })
}

/// Both of two bound filters; a constant-false one alone, so a read under
/// a deny-all guard still reads nothing.
fn conjoin(a: Option<BoundExpr>, b: Option<BoundExpr>) -> Option<BoundExpr> {
    let is_false = |e: &BoundExpr| matches!(e.unshared(), BoundExpr::Literal(Value::Bool(false)));
    match (a, b) {
        (Some(a), Some(b)) if !is_false(&a) && !is_false(&b) => {
            let mut parts = Vec::new();
            for e in [a, b] {
                match e {
                    BoundExpr::And(v) => parts.extend(v),
                    e => parts.push(e),
                }
            }
            Some(BoundExpr::And(parts))
        }
        (Some(a), _) if is_false(&a) => Some(a),
        (a, b) => b.or(a),
    }
}

/// Bind an optional predicate against `layout`. A scalar subquery in it is
/// planned here, against the WITH results its query sees.
fn bound(
    db: &Database,
    pred: Option<&Expr>,
    layout: &Layout,
    ctes: &mut Vec<(String, InScope)>,
    params: &HashSet<String>,
) -> DbResult<Option<BoundExpr>> {
    let mut subplan = |q: &SelectQuery, names: &HashSet<String>| {
        let plan = plan_query(db, q, "", ctes, names)?;
        Ok(Subplan(Arc::new(plan)))
    };
    pred.map(|p| bind(p, layout, params, &mut subplan)).transpose()
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
    /// are the outer rows' values — and an empty [`Recheck`] of no
    /// conjuncts: the probe decides none, every fetched row meets the
    /// whole local filter.
    pub access: AccessPlan,
    /// Human-readable access description.
    pub access_desc: String,
    /// Estimated rows fetched from the heap; for a relation reached by
    /// index nested loop, per outer row (table rows ÷ the index's distinct
    /// keys). NaN only for a temp or derived relation, which has no
    /// statistics.
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
    use crate::plan::TableRef;

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
                recheck,
            } => {
                assert_eq!(probes.len(), 2);
                assert!(!bitmap);
                // Each disjunct is a bare `owner = k`: probes are exact,
                // the fetched rows are not checked.
                assert_eq!(recheck, Recheck { left: vec![], of: 1 });
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
                AccessPlan::IndexOr { bitmap: true, ref probes, ref recheck }
                    if probes.len() == 2 && recheck.left == [0, 1]
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
        assert_eq!(plan.describe(), "IndexScan(wifi_ap, recheck 1 of 1)");
        // A bounded BETWEEN range is exact.
        let pred = Expr::Between {
            expr: Box::new(Expr::Column(ColumnRef::bare("wifi_ap"))),
            low: Box::new(Expr::Literal(Value::Int(1000))),
            high: Box::new(Expr::Literal(Value::Int(1001))),
            negated: false,
        };
        let plan = plan_access(entry, "w", Some(&pred), &hint, DbProfile::MySqlLike);
        assert_eq!(plan.describe(), "IndexScan(wifi_ap, exact)");
        // The probed conjunct is decided; the one without a probe is not.
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
        assert_eq!(plan.recheck(), Some(&Recheck { left: vec![1], of: 2 }));
        assert_eq!(plan.describe(), "IndexScan(owner, recheck 1 of 2)");
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
        assert_eq!(plan.describe(), "IndexScan(owner, recheck 1 of 1)");
    }

    /// `Value`'s order calls NaN equal to every number, so `owner = NaN`
    /// holds on every row while the B-tree lands on one key: a NaN key,
    /// list member or bound yields no probe, and a forced read scans.
    #[test]
    fn nan_literal_is_never_probed() {
        let db = setup(DbProfile::MySqlLike);
        let entry = db.table("w").unwrap();
        let nan = || Expr::Literal(Value::Double(f64::NAN));
        let hint = IndexHint::Force(vec!["owner".into()]);
        for pred in [
            Expr::col_eq(ColumnRef::bare("owner"), Value::Double(f64::NAN)),
            Expr::InList {
                expr: Box::new(Expr::Column(ColumnRef::bare("owner"))),
                list: vec![Expr::Literal(Value::Int(3)), nan()],
                negated: false,
            },
            Expr::Between {
                expr: Box::new(Expr::Column(ColumnRef::bare("owner"))),
                low: Box::new(nan()),
                high: Box::new(Expr::Literal(Value::Int(3))),
                negated: false,
            },
            Expr::col_cmp(ColumnRef::bare("owner"), CmpOp::Gt, Value::Double(f64::NAN)),
        ] {
            assert_eq!(probe_from_expr(&pred, entry, "w", None), None, "{pred:?}");
            let plan = plan_access(entry, "w", Some(&pred), &hint, DbProfile::MySqlLike);
            assert_eq!(plan, AccessPlan::SeqScan, "{pred:?}");
        }
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
            assert_eq!(plan.describe(), "IndexIntersect(wifi_ap ∩ owner, recheck 1 of 2)");
            assert!((plan.estimate_rows(entry) - path.est_rows).abs() < 1e-9);

            // One AP = 100 rows; owner < 90 ≈ 1800: the walk (300) costs
            // more than the 10 fetches it saves — a single probe.
            let pred = Expr::and(ap_in(1000..1001), owner_lt(90));
            let path = conjunctive_path(entry, "w", &pred, None).unwrap();
            assert_eq!(path.columns(), ["wifi_ap"]);
            assert_eq!((path.est_rows, path.est_cost), (100.0, 100.0));
            let plan = plan_access(entry, "w", Some(&pred), &IndexHint::None, profile);
            assert_eq!(plan.describe(), "IndexScan(wifi_ap, recheck 1 of 2)");
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
        assert_eq!(force(&["owner", "wifi_ap"]), "IndexIntersect(wifi_ap ∩ owner, recheck 1 of 2)");
        assert_eq!(force(&["owner"]), "IndexScan(owner, recheck 2 of 2)");
        assert_eq!(force(&["wifi_ap", "ts_time"]), "IndexScan(wifi_ap, recheck 1 of 2)");
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
        // An unbounded-low range starts at the NULL keys: it stays checked,
        // the exactly probed IN-list does not.
        let pred = Expr::and(owner_lt(3), ap_in(1000..1010));
        let plan = plan_access(entry, "w", Some(&pred), &hint, DbProfile::MySqlLike);
        assert_eq!(plan.describe(), "IndexIntersect(owner ∩ wifi_ap, recheck 1 of 2)");
        assert_eq!(plan.recheck(), Some(&Recheck { left: vec![0], of: 2 }));
    }

    /// The TIPPERS Q1 shape under the guard it is read with: the probed
    /// IN-list and date range leave the filter, the time range (no index)
    /// and the shared guard node stay in it — the node bound as the whole
    /// it is, from the form it already holds.
    #[test]
    fn a_plan_binds_only_the_conjuncts_its_probes_leave_open() {
        let mut db = Database::new(DbProfile::MySqlLike);
        db.create_table(TableSchema::of(
            "w",
            &[
                ("owner", DataType::Int),
                ("wifi_ap", DataType::Int),
                ("ts_date", DataType::Date),
                ("ts_time", DataType::Time),
            ],
        ))
        .unwrap();
        for i in 0..4000i64 {
            let row = vec![
                Value::Int(i % 100),
                Value::Int(1000 + i % 20),
                Value::Date((i / 100) as i32),
                Value::Time(((i * 37) % 86400) as u32),
            ];
            db.insert("w", row).unwrap();
        }
        for col in ["owner", "wifi_ap", "ts_date"] {
            db.create_index("w", col).unwrap();
        }
        db.analyze("w").unwrap();
        let between = |col: &str, low: Value, high: Value| Expr::Between {
            expr: Box::new(Expr::Column(ColumnRef::bare(col))),
            low: Box::new(Expr::Literal(low)),
            high: Box::new(Expr::Literal(high)),
            negated: false,
        };
        let guard = Expr::shared(Expr::any((0..60).map(owner_eq).collect()));
        let query = crate::plan::SelectQuery {
            from: vec![crate::plan::TableRef::named("w")
                .with_hint(IndexHint::Force(vec!["wifi_ap".into(), "ts_date".into()]))],
            ..crate::plan::SelectQuery::star_from("w")
        }
        .filter(Expr::all(vec![
            ap_in(1000..1003),
            between("ts_date", Value::Date(3), Value::Date(14)),
            between("ts_time", Value::Time(3600), Value::Time(50_000)),
            guard.clone(),
        ]));
        let node = guard.as_shared().unwrap();
        let first = db.prepare_query(&query).unwrap();
        assert_eq!(node.binds(), 1, "the first plan fills the node");
        let plan = db.prepare_query(&query).unwrap();
        assert_eq!(node.binds(), 1, "a plan over the filled node binds nothing of it");
        let input = &plan.plan.inputs[0];
        let Read::Access { plan: access, .. } = &input.read else { panic!("{:?}", input.read) };
        assert_eq!(access.describe(), "IndexIntersect(wifi_ap ∩ ts_date, recheck 2 of 4)");
        assert_eq!(access.recheck(), Some(&Recheck { left: vec![2, 3], of: 4 }));
        // What is bound is exactly the last two conjuncts, the guard as the
        // node's own bound form.
        let FilterProgram::Eval(crate::expr::BoundExpr::And(parts)) = &input.local else {
            panic!("{:?}", input.local)
        };
        assert_eq!(parts.len(), 2);
        assert!(matches!(parts[0], crate::expr::BoundExpr::Between { .. }), "{:?}", parts[0]);
        assert!(matches!(parts[1], crate::expr::BoundExpr::Shared(_)), "{:?}", parts[1]);
        // And the rows are the scan's.
        let opts = crate::exec::ExecOptions::default();
        let mut got = db.run_prepared(&first, &opts).unwrap().rows;
        let scan = crate::plan::SelectQuery {
            from: vec![crate::plan::TableRef::named("w").with_hint(IndexHint::IgnoreAll)],
            ..query.clone()
        };
        let mut want = db.run_query(&scan).unwrap().rows;
        got.sort();
        want.sort();
        assert!(!want.is_empty());
        assert_eq!(got, want);
    }

    /// Which WITH bodies are merged into their reader and which stay
    /// temps, by shape and by how often the whole query reads them.
    #[test]
    fn a_with_body_is_merged_only_when_read_once_as_a_filtered_base_read() {
        let db = setup(DbProfile::MySqlLike);
        let temps = |q: &SelectQuery| {
            let e = db.explain(q).unwrap();
            e.ctes.iter().map(|(name, _)| name.clone()).collect::<Vec<_>>()
        };
        let parse = |sql: &str| crate::sql::parse(sql).unwrap();
        let v = "WITH v AS (SELECT * FROM w USE INDEX () WHERE owner = 3)";
        // Read once — from FROM, a derived table, a later WITH body or a
        // scalar subquery — it is the read of `w`.
        for reader in [
            "SELECT * FROM v WHERE v.wifi_ap = 1003",
            "SELECT * FROM (SELECT * FROM v) AS d",
            ", u AS (SELECT id FROM v) SELECT * FROM u",
            "SELECT * FROM w WHERE id = (SELECT id FROM v WHERE wifi_ap = 1003)",
        ] {
            let sql = format!("{v} {reader}");
            assert!(!temps(&parse(&sql)).contains(&"v".to_string()), "{sql}");
        }
        // Read twice, or shaped otherwise, it is materialized.
        for sql in [
            format!("{v} SELECT * FROM v AS a, v AS b WHERE a.id = b.id"),
            format!("{v} SELECT * FROM v WHERE id = (SELECT MAX(id) FROM v)"),
            "WITH v AS (SELECT * FROM w WHERE owner = 3 LIMIT 5) SELECT * FROM v".into(),
            "WITH v AS (SELECT id, owner FROM w) SELECT * FROM v".into(),
            "WITH v AS (SELECT owner, COUNT(*) AS n FROM w GROUP BY owner) SELECT * FROM v".into(),
            "WITH u AS (SELECT * FROM w WHERE owner = 3), v AS (SELECT * FROM u) \
             SELECT * FROM v, u WHERE v.id = u.id"
                .into(),
        ] {
            assert!(temps(&parse(&sql)).contains(&"v".to_string()), "{sql}");
        }
        // An inner WITH of the same name shadows it: the outer `v` is read
        // once, by the inner body, and the inner one twice.
        let inner = SelectQuery::star_from("v")
            .from_tables(vec![TableRef::named("v"), TableRef::aliased("v", "b")])
            .with_clause("v", SelectQuery::star_from("v"));
        let shadowed = SelectQuery::star_from("d")
            .from_tables(vec![TableRef {
                source: TableSource::Derived(Box::new(inner)),
                alias: "d".into(),
                hint: IndexHint::None,
            }])
            .with_clause("v", parse("SELECT * FROM w WHERE owner = 3"));
        let e = db.explain(&shadowed).unwrap();
        assert!(e.ctes.is_empty(), "{e}");
        // And a merged read returns the temp's rows.
        let rows = |sql: &str| db.run_query(&parse(sql)).unwrap().rows;
        let once = rows(&format!("{v} SELECT * FROM v WHERE v.wifi_ap = 1003"));
        let twice = rows(&format!("{v} SELECT * FROM v, v AS b WHERE v.id = b.id AND v.wifi_ap = 1003"));
        let halves: Vec<Vec<Value>> = twice.into_iter().map(|r| r[..4].to_vec()).collect();
        assert!(!halves.is_empty());
        assert_eq!(once, halves);
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
