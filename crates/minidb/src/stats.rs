//! Execution statistics and the simulated cost clock.
//!
//! The paper's cost model (Section 4, Equation 3) is expressed in terms of
//! `c_r` (cost of reading a tuple from disk), `c_e` (cost of evaluating a
//! tuple against one policy's object conditions) and UDF invocation/execution
//! costs. Wall-clock time on a laptop is noisy and hardware-specific, so in
//! addition to real timing the engine keeps a *deterministic simulated
//! cost counter*: every page read, tuple scan, predicate evaluation and UDF
//! invocation of a run bumps that run's own [`Tally`], a local of the run
//! that nothing else sees, and the run reports its [`Counters`]
//! ([`crate::Database::run_timed`]). Benchmarks report both clocks: the
//! `exp` driver's shape comparisons (`results/EXP_*.json`) use the
//! simulated clock — it repeats exactly, so the records diff — and carry
//! wall time as context, and the gated benchmark's `--trace 1` run reports
//! the counters per operation.

use std::cell::Cell;

/// Cost-unit weights for the simulated clock. One unit ~ one in-memory
/// predicate evaluation. Defaults follow the calibration in
/// `sieve_core::cost` (a random page read is far more expensive than an
/// evaluation; a UDF invocation costs a fixed overhead plus per-policy work).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostWeights {
    /// Cost of reading one page sequentially.
    pub seq_page: f64,
    /// Cost of reading one page at random (index traversal).
    pub rand_page: f64,
    /// Cost of materializing one tuple out of a page.
    pub tuple_read: f64,
    /// Cost of one simple predicate evaluation against a tuple.
    pub predicate_eval: f64,
    /// Fixed cost of invoking a UDF once (the paper's `UDF_inv`).
    pub udf_invoke: f64,
    /// Cost of one index probe (B-tree descent).
    pub index_probe: f64,
}

impl Default for CostWeights {
    fn default() -> Self {
        // Ratios chosen to mirror a buffer-pooled RDBMS: random I/O is ~4x
        // sequential, a page holds many tuples, and a UDF invocation costs
        // a few hundred predicate evaluations (interpreter entry, argument
        // marshalling and cursor setup — the overhead the paper's
        // Experiment 2.1 found amortized only beyond ~120 policies per
        // partition).
        CostWeights {
            seq_page: 50.0,
            rand_page: 200.0,
            tuple_read: 1.0,
            predicate_eval: 1.0,
            udf_invoke: 250.0,
            index_probe: 20.0,
        }
    }
}

/// Raw event counters of one query run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Pages read sequentially (table scans).
    pub seq_pages_read: u64,
    /// Pages read via index lookups (random access).
    pub rand_pages_read: u64,
    /// Tuples materialized out of storage.
    pub tuples_read: u64,
    /// Simple predicate evaluations (each comparison counts once).
    pub predicate_evals: u64,
    /// Policy object-condition-set evaluations (one per policy per tuple).
    pub policy_evals: u64,
    /// UDF invocations.
    pub udf_invocations: u64,
    /// Index probes (point or range descents).
    pub index_probes: u64,
    /// Tuples emitted by the root operator.
    pub tuples_output: u64,
}

impl Counters {
    /// Simulated cost of these events under `w`.
    pub fn simulated_cost(&self, w: &CostWeights) -> f64 {
        self.seq_pages_read as f64 * w.seq_page
            + self.rand_pages_read as f64 * w.rand_page
            + self.tuples_read as f64 * w.tuple_read
            + self.predicate_evals as f64 * w.predicate_eval
            + self.udf_invocations as f64 * w.udf_invoke
            + self.index_probes as f64 * w.index_probe
    }
}

/// The [`Counters`] of one run as it goes. A run creates its tally on its
/// own stack and hands it by `&` to every operator, filter and UDF it
/// drives, correlated subqueries included; what it recorded is
/// [`Tally::counters`]. Plain cells, neither `Clone` nor `Sync`: a tally
/// is never shared between runs or threads, so runs that overlap count
/// apart.
#[derive(Default)]
pub struct Tally {
    seq_pages_read: Cell<u64>,
    rand_pages_read: Cell<u64>,
    tuples_read: Cell<u64>,
    predicate_evals: Cell<u64>,
    policy_evals: Cell<u64>,
    udf_invocations: Cell<u64>,
    index_probes: Cell<u64>,
    tuples_output: Cell<u64>,
}

fn bump(cell: &Cell<u64>, n: u64) {
    cell.set(cell.get() + n);
}

impl Tally {
    /// Record `n` sequentially-read pages.
    pub fn seq_pages(&self, n: u64) {
        bump(&self.seq_pages_read, n);
    }

    /// Record `n` randomly-read pages.
    pub fn rand_pages(&self, n: u64) {
        bump(&self.rand_pages_read, n);
    }

    /// Record `n` tuples materialized.
    pub fn tuples(&self, n: u64) {
        bump(&self.tuples_read, n);
    }

    /// Record `n` predicate evaluations.
    pub fn predicates(&self, n: u64) {
        bump(&self.predicate_evals, n);
    }

    /// Record `n` policy evaluations.
    pub fn policies(&self, n: u64) {
        bump(&self.policy_evals, n);
    }

    /// Record one UDF invocation.
    pub fn udf_invocation(&self) {
        bump(&self.udf_invocations, 1);
    }

    /// Record `n` index probes.
    pub fn index_probes(&self, n: u64) {
        bump(&self.index_probes, n);
    }

    /// Record `n` output tuples.
    pub fn outputs(&self, n: u64) {
        bump(&self.tuples_output, n);
    }

    /// What was recorded so far.
    pub fn counters(&self) -> Counters {
        Counters {
            seq_pages_read: self.seq_pages_read.get(),
            rand_pages_read: self.rand_pages_read.get(),
            tuples_read: self.tuples_read.get(),
            predicate_evals: self.predicate_evals.get(),
            policy_evals: self.policy_evals.get(),
            udf_invocations: self.udf_invocations.get(),
            index_probes: self.index_probes.get(),
            tuples_output: self.tuples_output.get(),
        }
    }
}

/// The report of one timed query run: its counters, its wall time, and
/// the simulated clock derived from the counters.
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Event counters for the execution.
    pub counters: Counters,
    /// Wall-clock duration.
    pub wall: std::time::Duration,
    /// Simulated cost under the weights in effect.
    pub simulated_cost: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tally_accumulates_its_counters() {
        let tally = Tally::default();
        tally.seq_pages(3);
        tally.tuples(10);
        tally.predicates(20);
        tally.predicates(2);
        tally.udf_invocation();
        assert_eq!(
            tally.counters(),
            Counters {
                seq_pages_read: 3,
                tuples_read: 10,
                predicate_evals: 22,
                udf_invocations: 1,
                ..Default::default()
            }
        );
    }

    #[test]
    fn simulated_cost_weighted() {
        let w = CostWeights::default();
        let c = Counters {
            seq_pages_read: 2,
            predicate_evals: 10,
            ..Default::default()
        };
        assert_eq!(c.simulated_cost(&w), 2.0 * w.seq_page + 10.0 * w.predicate_eval);
    }
}
