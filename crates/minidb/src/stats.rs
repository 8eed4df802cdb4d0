//! Execution statistics and the simulated cost clock.
//!
//! The paper's cost model (Section 4, Equation 3) is expressed in terms of
//! `c_r` (cost of reading a tuple from disk), `c_e` (cost of evaluating a
//! tuple against one policy's object conditions) and UDF invocation/execution
//! costs. Wall-clock time on a laptop is noisy and hardware-specific, so in
//! addition to real timing the engine maintains a *deterministic simulated
//! cost counter*: every page read, tuple scan, predicate evaluation and UDF
//! invocation bumps the counters below. Benchmarks report both clocks: the
//! `exp` driver's shape comparisons (`results/EXP_*.json`) use the
//! simulated clock — it repeats exactly, so the records diff — and carry
//! wall time as context, and the gated benchmark's `--trace 1` run reports
//! the counters per operation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

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

/// Raw event counters accumulated during one query execution.
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

    /// Element-wise sum of two counter sets.
    pub fn merge(&mut self, other: &Counters) {
        self.seq_pages_read += other.seq_pages_read;
        self.rand_pages_read += other.rand_pages_read;
        self.tuples_read += other.tuples_read;
        self.predicate_evals += other.predicate_evals;
        self.policy_evals += other.policy_evals;
        self.udf_invocations += other.udf_invocations;
        self.index_probes += other.index_probes;
        self.tuples_output += other.tuples_output;
    }
}

/// The lock-free counter block behind a [`StatsSink`]. Plain relaxed
/// atomics: operators on concurrent executor threads record into the same
/// sink without serializing on a mutex (the sink sits on the query hot
/// path — under the concurrent `SieveService` every parallel query bumps
/// these counters).
#[derive(Default)]
struct AtomicCounters {
    seq_pages_read: AtomicU64,
    rand_pages_read: AtomicU64,
    tuples_read: AtomicU64,
    predicate_evals: AtomicU64,
    policy_evals: AtomicU64,
    udf_invocations: AtomicU64,
    index_probes: AtomicU64,
    tuples_output: AtomicU64,
}

/// A shareable statistics sink. Cloning shares the underlying counters, so
/// every operator in a plan (and every UDF it invokes) can record into the
/// same sink cheaply. Counters are relaxed atomics: recording from many
/// threads never blocks; a [`StatsSink::snapshot`] taken while queries are
/// in flight sees each counter at some recent value (per-query attribution
/// under concurrency is the caller's concern — time a dedicated sink, or
/// quiesce first).
#[derive(Clone, Default)]
pub struct StatsSink {
    inner: Arc<AtomicCounters>,
}

impl StatsSink {
    /// Fresh sink with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `n` sequentially-read pages.
    pub fn seq_pages(&self, n: u64) {
        self.inner.seq_pages_read.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` randomly-read pages.
    pub fn rand_pages(&self, n: u64) {
        self.inner.rand_pages_read.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` tuples materialized.
    pub fn tuples(&self, n: u64) {
        self.inner.tuples_read.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` predicate evaluations.
    pub fn predicates(&self, n: u64) {
        self.inner.predicate_evals.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` policy evaluations.
    pub fn policies(&self, n: u64) {
        self.inner.policy_evals.fetch_add(n, Ordering::Relaxed);
    }

    /// Record one UDF invocation.
    pub fn udf_invocation(&self) {
        self.inner.udf_invocations.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` index probes.
    pub fn index_probes(&self, n: u64) {
        self.inner.index_probes.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` output tuples.
    pub fn outputs(&self, n: u64) {
        self.inner.tuples_output.fetch_add(n, Ordering::Relaxed);
    }

    /// Snapshot the counters.
    pub fn snapshot(&self) -> Counters {
        let c = &*self.inner;
        Counters {
            seq_pages_read: c.seq_pages_read.load(Ordering::Relaxed),
            rand_pages_read: c.rand_pages_read.load(Ordering::Relaxed),
            tuples_read: c.tuples_read.load(Ordering::Relaxed),
            predicate_evals: c.predicate_evals.load(Ordering::Relaxed),
            policy_evals: c.policy_evals.load(Ordering::Relaxed),
            udf_invocations: c.udf_invocations.load(Ordering::Relaxed),
            index_probes: c.index_probes.load(Ordering::Relaxed),
            tuples_output: c.tuples_output.load(Ordering::Relaxed),
        }
    }

    /// Reset all counters to zero.
    pub fn reset(&self) {
        let c = &*self.inner;
        c.seq_pages_read.store(0, Ordering::Relaxed);
        c.rand_pages_read.store(0, Ordering::Relaxed);
        c.tuples_read.store(0, Ordering::Relaxed);
        c.predicate_evals.store(0, Ordering::Relaxed);
        c.policy_evals.store(0, Ordering::Relaxed);
        c.udf_invocations.store(0, Ordering::Relaxed);
        c.index_probes.store(0, Ordering::Relaxed);
        c.tuples_output.store(0, Ordering::Relaxed);
    }
}

/// The result of timing one query execution: wall time plus the simulated
/// clock derived from the counters.
#[derive(Debug, Clone)]
pub struct ExecStats {
    /// Event counters for the execution.
    pub counters: Counters,
    /// Wall-clock duration.
    pub wall: std::time::Duration,
    /// Simulated cost under the weights in effect.
    pub simulated_cost: f64,
}

impl ExecStats {
    /// Wall time in milliseconds as a float.
    pub fn wall_ms(&self) -> f64 {
        self.wall.as_secs_f64() * 1e3
    }
}

/// Helper to time a closure and combine with a sink snapshot.
pub fn timed<R>(sink: &StatsSink, weights: &CostWeights, f: impl FnOnce() -> R) -> (R, ExecStats) {
    sink.reset();
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed();
    let counters = sink.snapshot();
    (
        out,
        ExecStats {
            counters,
            wall,
            simulated_cost: counters.simulated_cost(weights),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_merge() {
        let sink = StatsSink::new();
        sink.seq_pages(3);
        sink.tuples(10);
        sink.predicates(20);
        sink.udf_invocation();
        let snap = sink.snapshot();
        assert_eq!(snap.seq_pages_read, 3);
        assert_eq!(snap.tuples_read, 10);
        assert_eq!(snap.predicate_evals, 20);
        assert_eq!(snap.udf_invocations, 1);

        let mut other = Counters {
            rand_pages_read: 5,
            ..Default::default()
        };
        other.merge(&snap);
        assert_eq!(other.rand_pages_read, 5);
        assert_eq!(other.tuples_read, 10);
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

    #[test]
    fn timed_resets_and_snapshots() {
        let sink = StatsSink::new();
        sink.tuples(999); // stale counts must not leak into the timing
        let w = CostWeights::default();
        let (out, stats) = timed(&sink, &w, || {
            sink.tuples(7);
            42
        });
        assert_eq!(out, 42);
        assert_eq!(stats.counters.tuples_read, 7);
        assert!(stats.wall_ms() >= 0.0);
    }

    #[test]
    fn shared_sink_across_clones() {
        let a = StatsSink::new();
        let b = a.clone();
        a.index_probes(4);
        b.index_probes(1);
        assert_eq!(a.snapshot().index_probes, 5);
    }
}
