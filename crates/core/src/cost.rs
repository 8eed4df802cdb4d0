//! SIEVE's cost model (Sections 4, 5.4, 5.5).
//!
//! All quantities are in the engine's simulated cost units (one unit ≈ one
//! in-memory predicate evaluation; see [`minidb::stats::CostWeights`]):
//!
//! * `c_e` — cost of evaluating one policy's object-condition set against a
//!   tuple;
//! * `c_r` — cost of reading one tuple through an index (random access);
//! * `c_r_seq` — cost of reading one tuple in a sequential scan;
//! * `α` — average fraction of a policy list checked per tuple before a
//!   decision (measured experimentally, Section 5.4);
//! * `udf_invoke` — fixed ∆-operator invocation overhead (`UDF_inv`);
//! * `guard_gen` — cost `C_G` of regenerating a guarded expression
//!   (Section 6, treated as a constant dominated by |P|).
//!
//! `c_e`, `c_r` and `α` "are determined experimentally using a set of
//! sample policies and tuples" (Section 4) — [`calibrate`] does
//! exactly that against a loaded database.

use crate::backend::SqlBackend;
use crate::policy::Policy;
use crate::semantics::{eval_policies, measure_alpha};
use minidb::stats::CostWeights;
use minidb::table::ROWS_PER_PAGE;
use crate::error::SieveResult;

/// Calibrated cost constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cost of evaluating a tuple against one policy's object conditions.
    pub ce: f64,
    /// Cost of reading a tuple via an index (random page amortized).
    pub cr: f64,
    /// Cost of reading a tuple during a sequential scan.
    pub cr_seq: f64,
    /// Average fraction of a policy list checked per tuple.
    pub alpha: f64,
    /// Fixed cost of one ∆ invocation (`UDF_inv`).
    pub udf_invoke: f64,
    /// Cost inside ∆ per *relevant* policy evaluated (`UDF_exec` is
    /// `udf_lookup + relevant × ce`).
    pub udf_lookup: f64,
    /// Guard-generation cost constant `C_G` (Section 6).
    pub guard_gen: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        let w = CostWeights::default();
        CostModel {
            // A policy has ~2-3 object conditions → ~2.5 predicate evals.
            ce: 2.5 * w.predicate_eval,
            // Random tuple read: one tuple materialization plus the
            // amortized share of a random page (guards cluster poorly, so
            // assume ~1/8 of a page is useful).
            cr: w.tuple_read + w.rand_page / 8.0,
            // Sequential read amortizes a full page of tuples.
            cr_seq: w.tuple_read + w.seq_page / ROWS_PER_PAGE as f64,
            // Most tuples fail all policies of their partition → α near 1.
            alpha: 0.9,
            udf_invoke: w.udf_invoke,
            udf_lookup: w.index_probe,
            guard_gen: 50_000.0,
        }
    }
}

impl CostModel {
    /// The merge-benefit threshold of Theorem 1: merging two overlapping
    /// candidate guards pays off iff
    /// `ρ(x ∩ y) / ρ(x ∪ y) > ce / (cr + ce)` (Equation 8).
    pub fn merge_threshold(&self) -> f64 {
        self.ce / (self.cr + self.ce)
    }

    /// Cost of evaluating a guarded expression `G_i` (Equation 3):
    /// `ρ(oc_g) · (c_r + α · |P_Gi| · c_e)`.
    pub fn guard_cost(&self, guard_rows: f64, partition_size: usize) -> f64 {
        guard_rows * (self.cr + self.alpha * partition_size as f64 * self.ce)
    }

    /// Benefit of a guard (Section 4.2): the policy evaluations the guard
    /// filter avoids, `c_e · |P_Gi| · (|r| − ρ(oc_g))`.
    pub fn guard_benefit(&self, guard_rows: f64, partition_size: usize, table_rows: f64) -> f64 {
        self.ce * partition_size as f64 * (table_rows - guard_rows).max(0.0)
    }

    /// Read cost of a guard: `ρ(oc_g) · c_r`.
    pub fn guard_read_cost(&self, guard_rows: f64) -> f64 {
        guard_rows * self.cr
    }

    /// Utility heuristic of Algorithm 1: benefit per unit read cost.
    pub fn guard_utility(&self, guard_rows: f64, partition_size: usize, table_rows: f64) -> f64 {
        let read = self.guard_read_cost(guard_rows).max(f64::EPSILON);
        self.guard_benefit(guard_rows, partition_size, table_rows) / read
    }

    /// Per-tuple cost of inlining a partition (Section 5.4):
    /// `α · |P_Gi| · c_e`.
    pub fn inline_cost_per_tuple(&self, partition_size: usize) -> f64 {
        self.alpha * partition_size as f64 * self.ce
    }

    /// Per-tuple cost of the ∆ operator (Section 5.4): invocation overhead
    /// plus a context lookup plus evaluation of only the policies relevant
    /// to the tuple's owner (`expected_relevant`).
    pub fn delta_cost_per_tuple(&self, expected_relevant: f64) -> f64 {
        self.udf_invoke + self.udf_lookup + self.alpha * expected_relevant * self.ce
    }

    /// Decide inline vs ∆ for a partition with `partition_size` policies
    /// spread over `distinct_owners` owners. Returns `true` when ∆ wins.
    /// (The paper's Experiment 2.1 found the crossover near 120 policies.)
    pub fn prefer_delta(&self, partition_size: usize, distinct_owners: usize) -> bool {
        let expected_relevant = partition_size as f64 / distinct_owners.max(1) as f64;
        self.delta_cost_per_tuple(expected_relevant) < self.inline_cost_per_tuple(partition_size)
    }

    /// The partition size where ∆ starts to win, assuming each owner
    /// contributes equally (`distinct_owners = partition / per_owner`).
    pub fn delta_threshold(&self, policies_per_owner: f64) -> usize {
        let mut n = 1usize;
        while n < 100_000 {
            let owners = (n as f64 / policies_per_owner).max(1.0);
            if self.prefer_delta(n, owners as usize) {
                return n;
            }
            n += 1;
        }
        n
    }

    /// Strategy costs of Section 5.5, the guard cardinality `Σ ρ(G_i)`
    /// split by whether each guard's attribute is indexed. `query_fetches`
    /// is the cost of the query predicate's own index path in fetched-row
    /// equivalents, as the engine's planner estimates it
    /// ([`minidb::planner::ConjunctivePath::est_cost`]; `None` when no
    /// index is usable — cost ∞). Guards on unindexed attributes cannot
    /// drive index probes: as soon as any guard must be answered by
    /// scanning, the IndexGuards strategy degrades to reading the whole
    /// relation sequentially (the engine's FORCE-hint union falls back to a
    /// scan when a disjunct has no usable index), so its cost is the full
    /// scan rather than `Σ ρ(G_i) · c_r`.
    pub fn strategy_costs_split(
        &self,
        table_rows: f64,
        guard_rows_indexed: f64,
        guard_rows_scanned: f64,
        query_fetches: Option<f64>,
    ) -> StrategyCosts {
        let index_guards = if guard_rows_scanned > 0.0 {
            table_rows * self.cr_seq
        } else {
            guard_rows_indexed * self.cr
        };
        StrategyCosts {
            linear_scan: table_rows * self.cr_seq,
            index_query: query_fetches
                .map_or(f64::INFINITY, |f| self.single_fetch_cost(f, table_rows)),
            index_guards,
        }
    }

    /// Cost of fetching `rows` tuples in one pass over a row-id set, which
    /// is how the engine reads a query's index path: `rows · c_r`, but
    /// never more than every page of the relation once at random. `c_r`
    /// prices a random page per ~8 tuples; past `8 · pages` tuples that is
    /// more pages than the relation has, and the engine's clock — which
    /// charges distinct pages — stops following it.
    fn single_fetch_cost(&self, rows: f64, table_rows: f64) -> f64 {
        let w = CostWeights::default();
        let pages = (table_rows / ROWS_PER_PAGE as f64).ceil();
        (rows * self.cr).min(rows * w.tuple_read + pages * w.rand_page)
    }
}

/// Estimated access cost of the three strategies of Section 5.5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrategyCosts {
    /// Sequential scan + guarded filter.
    pub linear_scan: f64,
    /// Index scan on the query predicate + guarded filter.
    pub index_query: f64,
    /// Index scans on the guards + partition filters.
    pub index_guards: f64,
}

/// The access strategy SIEVE selects per relation (Section 5.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessStrategy {
    /// Sequential scan of the relation.
    LinearScan,
    /// Index scan driven by the query's own selective predicate.
    IndexQuery,
    /// Index scans driven by the guards.
    IndexGuards,
}

impl StrategyCosts {
    /// Pick the cheapest strategy (ties break toward IndexGuards, then
    /// IndexQuery, matching the paper's preference for guard-driven reads).
    pub fn best(&self) -> AccessStrategy {
        let mut best = AccessStrategy::IndexGuards;
        let mut cost = self.index_guards;
        if self.index_query < cost {
            best = AccessStrategy::IndexQuery;
            cost = self.index_query;
        }
        if self.linear_scan < cost {
            best = AccessStrategy::LinearScan;
        }
        best
    }
}

/// Calibrate `c_e`, `c_r`, `c_r_seq` and `α` experimentally against a
/// loaded table and a policy sample, per Sections 4 and 5.4. Uses the
/// deterministic simulated clock so calibration is reproducible.
pub fn calibrate(
    backend: &dyn SqlBackend,
    table: &str,
    sample_policies: &[&Policy],
    sample_rows: usize,
) -> SieveResult<CostModel> {
    let mut model = CostModel::default();
    let entry = backend.table_entry(table)?;
    let schema = entry.schema();
    let rows = entry.table.rows();
    if rows.is_empty() || sample_policies.is_empty() {
        return Ok(model);
    }
    let sample: Vec<minidb::Row> = rows.iter().take(sample_rows.max(1)).cloned().collect();

    // α: measured fraction of policies checked per tuple.
    model.alpha = measure_alpha(sample_policies, schema, &sample, None).clamp(0.05, 1.0);

    // c_e: average predicate evaluations per policy check, converted to
    // cost units. Count conditions actually evaluated via the oracle.
    let mut checks = 0usize;
    let mut conds = 0usize;
    for r in &sample {
        let out = eval_policies(sample_policies, schema, r, None);
        checks += out.policies_checked;
        for p in sample_policies.iter().take(out.policies_checked) {
            conds += p.object_conditions().len();
        }
    }
    if checks > 0 {
        let w = CostWeights::default();
        model.ce = (conds as f64 / checks as f64) * w.predicate_eval;
    }
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{CondPredicate, ObjectCondition, QuerierSpec};
    use minidb::value::{DataType, Value};
    use minidb::{Database, DbProfile, TableSchema};

    #[test]
    fn merge_threshold_between_zero_and_one() {
        let m = CostModel::default();
        let t = m.merge_threshold();
        assert!(t > 0.0 && t < 1.0);
    }

    #[test]
    fn guard_cost_monotone_in_partition_and_rows() {
        let m = CostModel::default();
        assert!(m.guard_cost(100.0, 5) < m.guard_cost(100.0, 10));
        assert!(m.guard_cost(100.0, 5) < m.guard_cost(200.0, 5));
    }

    #[test]
    fn utility_prefers_selective_big_partitions() {
        let m = CostModel::default();
        let u_selective = m.guard_utility(10.0, 20, 10_000.0);
        let u_broad = m.guard_utility(5_000.0, 20, 10_000.0);
        assert!(u_selective > u_broad);
        let u_small = m.guard_utility(10.0, 1, 10_000.0);
        assert!(u_selective > u_small);
    }

    #[test]
    fn delta_threshold_in_paper_ballpark() {
        // Paper Experiment 2.1: ∆ pays off beyond ≈120 policies per
        // partition. With default weights the crossover should land in the
        // same order of magnitude (tens to a few hundred).
        let m = CostModel::default();
        let t = m.delta_threshold(2.0);
        assert!(
            (20..=400).contains(&t),
            "delta threshold {t} out of expected band"
        );
    }

    #[test]
    fn prefer_delta_monotone() {
        let m = CostModel::default();
        let thr = m.delta_threshold(2.0);
        assert!(!m.prefer_delta(thr.saturating_sub(2).max(1), (thr / 2).max(1)));
        assert!(m.prefer_delta(thr * 4, thr * 2));
    }

    #[test]
    fn strategy_selection_crossover() {
        let m = CostModel::default();
        // Very selective query predicate → IndexQuery.
        let c = m.strategy_costs_split(100_000.0, 5_000.0, 0.0, Some(100.0));
        assert_eq!(c.best(), AccessStrategy::IndexQuery);
        // Broad query predicate but selective guards → IndexGuards.
        let c = m.strategy_costs_split(100_000.0, 800.0, 0.0, Some(60_000.0));
        assert_eq!(c.best(), AccessStrategy::IndexGuards);
        // Nothing selective → LinearScan.
        let c = m.strategy_costs_split(100_000.0, 90_000.0, 0.0, None);
        assert_eq!(c.best(), AccessStrategy::LinearScan);
    }

    #[test]
    fn unindexed_guards_cost_a_full_scan() {
        let m = CostModel::default();
        // All guards indexed: selective guards win as before.
        let c = m.strategy_costs_split(100_000.0, 800.0, 0.0, Some(60_000.0));
        assert_eq!(c.best(), AccessStrategy::IndexGuards);
        // The same guard rows, but one guard's attribute has no index:
        // IndexGuards degrades to full-scan cost, so the selective query
        // predicate takes over.
        let c = m.strategy_costs_split(100_000.0, 700.0, 100.0, Some(100.0));
        assert_eq!(c.index_guards, c.linear_scan);
        assert_eq!(c.best(), AccessStrategy::IndexQuery);
    }

    #[test]
    fn calibration_runs_on_sample() {
        let mut db = Database::new(DbProfile::MySqlLike);
        db.create_table(TableSchema::of(
            "t",
            &[("id", DataType::Int), ("owner", DataType::Int)],
        ))
        .unwrap();
        for i in 0..500i64 {
            db.insert("t", vec![Value::Int(i), Value::Int(i % 20)]).unwrap();
        }
        let policies: Vec<Policy> = (0..10)
            .map(|o| {
                Policy::new(
                    o,
                    "t",
                    QuerierSpec::User(1),
                    "Any",
                    vec![ObjectCondition::new(
                        "id",
                        CondPredicate::between(Value::Int(0), Value::Int(100)),
                    )],
                )
            })
            .collect();
        let refs: Vec<&Policy> = policies.iter().collect();
        let m = calibrate(&db, "t", &refs, 200).unwrap();
        assert!(m.alpha > 0.0 && m.alpha <= 1.0);
        assert!(m.ce > 0.0);
    }
}
