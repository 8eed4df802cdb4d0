//! The end-to-end run: a few stack builds, a warm-up block, then blocks
//! of the identical operation list for `--seconds`, one request in
//! flight, every reply checked.

use std::time::{Duration, Instant};

use minidb::QueryResult;

use crate::fixture::{build_base, Stack};
use crate::plan::{make_plan, Plan, Workload, SCALE};
use crate::report::Metric;
use crate::stats::{best_high, best_low, median, median_of, noise_index, percentile, sorted};
use crate::sys::{peak_rss_mib, Provenance};
use crate::Res;

/// Complete stack builds before the first block. More follow, one every
/// [`REBUILD_EVERY`] of the measured phase; `setup_s` is the fastest of
/// them all.
pub const SETUP_BUILDS: usize = 3;

/// How long a stack is measured on before it is torn down and built
/// again. Seven builds back to back at the start of a run were tried
/// first: a neighbour's burst of a few seconds covered all of them, and
/// `setup_s` read 0.23 s on one run and 0.32 s on the next. Spread over
/// the run, some build is quiet: in one slow spell `policy_churn`, which
/// rebuilds for every block, saw its fastest build move by 9 % while the
/// workloads that then rebuilt every 6 s saw theirs move by 15–28 %.
pub const REBUILD_EVERY: Duration = Duration::from_secs(2);

/// A run never measures fewer blocks than this, however slow the code.
pub const MIN_BLOCKS: usize = 20;

/// Operations attempted and failed. A failed operation is an `Err`
/// reply, a protocol error, or a reply whose row count is not the
/// oracle's.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Reads sent.
    pub attempted: u64,
    /// Reads that failed.
    pub failed: u64,
}

impl Tally {
    /// Count one reply; true iff it was correct.
    pub fn record<E>(&mut self, reply: &Result<QueryResult, E>, expect_rows: usize) -> bool {
        self.attempted += 1;
        let ok = matches!(reply, Ok(rows) if rows.rows.len() == expect_rows);
        if !ok {
            self.failed += 1;
        }
        ok
    }
}

/// A fixed amount of register-only work (xorshift64, 2²⁰ steps): its
/// time tells a noisy or slow machine from a slow commit.
pub fn spin_us() -> f64 {
    let t0 = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..(1u32 << 20) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64() * 1e6
}

/// Plan a workload: build the base once, untimed, and let the oracle
/// choose and check the statements.
pub fn plan_for(workload: Workload, seed: u64) -> Res<Plan> {
    let base = build_base()?;
    make_plan(workload, seed, &base)
}

/// One complete stack build; returns the stack and its wall time.
pub fn timed_build(plan: &Plan, with_loopback: bool) -> Res<(Stack, f64)> {
    let t0 = Instant::now();
    let base = build_base()?;
    let stack = Stack::start(base, plan, with_loopback)?;
    Ok((stack, t0.elapsed().as_secs_f64()))
}

/// Tear `old` down, then build its replacement and note how long the
/// build took. In that order, so that peak RSS stays that of one stack.
fn rebuilt(old: Stack, plan: &Plan, setups: &mut Vec<f64>) -> Res<Stack> {
    drop(old);
    let (fresh, secs) = timed_build(plan, false)?;
    setups.push(secs);
    Ok(fresh)
}

/// One block's samples, in operation order.
#[derive(Default)]
pub struct BlockSamples {
    /// Client-observed latency of each read, in ms.
    pub read_ms: Vec<f64>,
    /// Wall time of each operation — the insert, if any, and the read —
    /// in seconds: what throughput is charged.
    pub op_s: Vec<f64>,
}

/// Replay the plan's operation list once over TCP, one request in
/// flight, every reply checked against the expected row count.
pub fn run_block(plan: &Plan, stack: &Stack, tally: &mut Tally) -> Res<BlockSamples> {
    let endpoint = stack.tcp();
    let mut samples = BlockSamples::default();
    for op in &plan.ops {
        let began = Instant::now();
        if let Some(grant) = &op.grant {
            stack.base.service.add_policy(grant.clone())?;
        }
        let sent = Instant::now();
        let reply = endpoint.read(plan, op.stmt);
        let done = Instant::now();
        samples.read_ms.push((done - sent).as_secs_f64() * 1e3);
        samples.op_s.push((done - began).as_secs_f64());
        tally.record(&reply, op.expect_rows);
    }
    Ok(samples)
}

/// Reads per window: the fewest a median is taken over. Small, because
/// a window is quiet only if all of it is: at 15 ms a read, 24 reads
/// would need a third of a second without a neighbour's burst.
pub const WINDOW_READS: usize = 8;

/// The best-window estimators. A block is cut into consecutive windows
/// of about [`WINDOW_READS`] operations; blocks are replicas, so window
/// `k` is the same work in every block. Each window keeps its best
/// value over all blocks — the lowest median read latency, the shortest
/// wall time — and the windows are then combined: the median of the
/// window medians, and the block's reads over the sum of the shortest
/// window times. With one window per block this is "the best block";
/// with more, a window needs only a few quiet operations once in a run
/// instead of a whole quiet block.
pub fn best_windows(blocks: &[BlockSamples]) -> Option<(f64, f64)> {
    let ops = blocks.first()?.read_ms.len();
    let windows = (ops / WINDOW_READS).max(1);
    let mut best_p50_ms = Vec::with_capacity(windows);
    let mut shortest_s = 0.0;
    for w in 0..windows {
        let range = w * ops / windows..(w + 1) * ops / windows;
        let medians: Vec<f64> =
            blocks.iter().filter_map(|b| median_of(&b.read_ms[range.clone()])).collect();
        best_p50_ms.push(best_low(&medians)?);
        let walls: Vec<f64> = blocks.iter().map(|b| b.op_s[range.clone()].iter().sum()).collect();
        shortest_s += best_low(&walls)?;
    }
    Some((median_of(&best_p50_ms)?, ops as f64 / shortest_s))
}

/// What one end-to-end run measured.
pub struct Outcome {
    /// The gated metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Reads attempted and failed over warm-up and measured blocks.
    pub tally: Tally,
    /// The full record (one JSON object) for `out/` and the log.
    pub record: String,
}

/// Run `workload` end to end for about `seconds` of blocks.
pub fn run_e2e(workload: Workload, seed: u64, seconds: u64, prov: &Provenance) -> Res<Outcome> {
    let plan = plan_for(workload, seed)?;
    // Set-up, several times over.
    let (mut stack, first) = timed_build(&plan, false)?;
    let mut setups = vec![first];
    for _ in 1..SETUP_BUILDS {
        stack = rebuilt(stack, &plan, &mut setups)?;
    }
    let rebuilds = plan.ops.iter().any(|op| op.grant.is_some());

    let mut tally = Tally::default();
    run_block(&plan, &stack, &mut tally)?;

    let mut blocks: Vec<BlockSamples> = Vec::new();
    let mut spins_us = Vec::new();
    let limit = Duration::from_secs(seconds);
    let started = Instant::now();
    let mut built = Instant::now();
    while started.elapsed() < limit || blocks.len() < MIN_BLOCKS {
        // The policy store cannot shrink: a block that inserts starts
        // from a freshly built stack, so that blocks are replicas. The
        // other workloads rebuild now and then for `setup_s`' sake.
        if rebuilds || built.elapsed() >= REBUILD_EVERY {
            stack = rebuilt(stack, &plan, &mut setups)?;
            built = Instant::now();
        }
        spins_us.push(spin_us());
        blocks.push(run_block(&plan, &stack, &mut tally)?);
    }
    // Second verification pass, on the state the last block left.
    stack.verify(&plan, plan.expected_after_block.iter())?;
    let (requests, refusals) = stack.server_counts();
    drop(stack);

    // Per-statement medians: a block median is only steady when the
    // statements cost about the same, so the record says whether they do.
    let all_ms: Vec<f64> = blocks.iter().flat_map(|b| b.read_ms.iter().copied()).collect();
    let block_p50_ms: Vec<f64> = blocks.iter().filter_map(|b| median_of(&b.read_ms)).collect();
    let block_wall_s: Vec<f64> = blocks.iter().map(|b| b.op_s.iter().sum()).collect();
    let mut by_statement = vec![Vec::new(); plan.statements.len()];
    for (i, ms) in all_ms.iter().enumerate() {
        by_statement[plan.ops[i % plan.ops.len()].stmt].push(*ms);
    }
    let statement_p50: Vec<f64> = by_statement.iter().filter_map(|v| median_of(v)).collect();
    let cost_ratio = best_high(&statement_p50).ok_or("no statement")?
        / best_low(&statement_p50).ok_or("no statement")?;
    let all_sorted = sorted(all_ms);
    let (latency_p50_ms, throughput_qps) = best_windows(&blocks).ok_or("no block")?;
    let setup_s = best_low(&setups).ok_or("no set-up timed")?;
    let metrics = vec![
        Metric::new("latency_p50_ms", latency_p50_ms, "ms"),
        Metric::new("throughput_qps", throughput_qps, "1/s"),
        Metric::new("peak_rss_mib", peak_rss_mib().ok_or("no VmHWM in /proc/self/status")?, "MiB"),
        Metric::new("setup_s", setup_s, "s"),
    ];
    let list = |v: &[f64]| v.iter().map(|x| format!("{x:.6}")).collect::<Vec<_>>().join(", ");
    let record = format!(
        "{{\"kind\": \"e2e\", \"workload\": \"{}\", \"seed\": {seed}, \"scale\": {}, {}, \
         \"blocks\": {}, \"ops_per_block\": {}, \"statements\": {}, \"connections\": {}, \
         \"policies_per_querier\": {}, \"ops_attempted\": {}, \"ops_failed\": {}, \
         \"server_requests\": {requests}, \"server_refusals\": {refusals}, \
         \"metrics\": {}, \
         \"client.latency_p99_ms\": {:.6}, \"client.latency_samples\": {}, \
         \"run_median_p50_ms\": {:.6}, \"median_block_wall_s\": {:.6}, \
         \"best_block_p50_ms\": {:.6}, \
         \"statement_cost_ratio\": {cost_ratio:.4}, \"statement_p50_ms\": [{}], \
         \"harness.spin_us\": {:.3}, \"harness.noise_index\": {:.6}, \
         \"setup_builds_s\": [{}], \"block_p50_ms\": [{}]}}",
        workload.name(),
        SCALE,
        prov.json_members(),
        block_p50_ms.len(),
        plan.ops.len(),
        plan.statements.len(),
        plan.queriers.len(),
        plan.policies_per_querier,
        tally.attempted,
        tally.failed,
        crate::report::metrics_object(&metrics),
        percentile(&all_sorted, 0.99).ok_or("no latency sample")?,
        all_sorted.len(),
        median(&all_sorted).ok_or("no latency sample")?,
        median_of(&block_wall_s).ok_or("no block")?,
        best_low(&block_p50_ms).ok_or("no block")?,
        list(&statement_p50[..statement_p50.len().min(8)]),
        best_low(&spins_us).ok_or("no spin")?,
        noise_index(&spins_us).ok_or("no spin")?,
        list(&setups),
        list(&block_p50_ms),
    );
    Ok(Outcome { metrics, tally, record })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(rows: usize) -> QueryResult {
        QueryResult { columns: vec!["n".into()], rows: vec![vec![minidb::Value::Int(1)]; rows] }
    }

    #[test]
    fn err_reply_and_row_count_drift_are_failed_operations() {
        let mut tally = Tally::default();
        assert!(tally.record::<String>(&Ok(reply(3)), 3));
        assert_eq!(tally, Tally { attempted: 1, failed: 0 });
        // A forced `Err` reply.
        assert!(!tally.record(&Err("backend gone".to_string()), 3));
        assert_eq!(tally, Tally { attempted: 2, failed: 1 });
        // A forced row-count drift: one row too many, then one too few.
        assert!(!tally.record::<String>(&Ok(reply(4)), 3));
        assert!(!tally.record::<String>(&Ok(reply(2)), 3));
        assert_eq!(tally, Tally { attempted: 4, failed: 3 });
    }

    /// What a block asks of the program, in order: statement text, the
    /// owner granting access before the read, and the rows expected.
    fn operation_list(plan: &Plan) -> Vec<(String, Option<i64>, usize)> {
        plan.ops
            .iter()
            .map(|op| {
                let sql = plan.statements[op.stmt].sql.clone();
                (sql, op.grant.as_ref().map(|g| g.owner), op.expect_rows)
            })
            .collect()
    }

    /// One campus serves every assertion here: building it is most of
    /// the cost of this test.
    #[test]
    fn plans_follow_the_seed_and_their_blocks_run_without_a_failed_operation() {
        let base = build_base().unwrap();
        for workload in [Workload::PointWarm, Workload::PolicyChurn] {
            let plan = make_plan(workload, 3, &base).unwrap();
            let again = make_plan(workload, 3, &base).unwrap();
            let other = make_plan(workload, 4, &base).unwrap();
            assert_eq!(operation_list(&plan), operation_list(&again), "{workload:?}: same seed");
            assert_ne!(operation_list(&plan), operation_list(&other), "{workload:?}: other seed");
            assert!(plan.ops.len() >= 24, "{workload:?}: a block holds at least 24 reads");

            // The block over a real socket: every reply has the rows the
            // oracle expects, before, during and after.
            let (stack, _) = timed_build(&plan, false).unwrap();
            let mut tally = Tally::default();
            let samples = run_block(&plan, &stack, &mut tally).unwrap();
            assert_eq!(tally, Tally { attempted: plan.ops.len() as u64, failed: 0 });
            assert_eq!(samples.read_ms.len(), plan.ops.len());
            assert_eq!(samples.op_s.len(), plan.ops.len());
            stack.verify(&plan, plan.expected_after_block.iter()).unwrap();
            if workload == Workload::PolicyChurn {
                // Every grant changed the expected reply, and a second
                // block on the same (now dirty) stack must fail the
                // per-step row counts: stale counts cannot pass.
                let counts: Vec<usize> = plan.ops.iter().map(|op| op.expect_rows).collect();
                assert!(counts
                    .iter()
                    .step_by(2)
                    .zip(counts.iter().step_by(2).skip(1))
                    .all(|(a, b)| a < b));
                let mut dirty = Tally::default();
                run_block(&plan, &stack, &mut dirty).unwrap();
                assert!(dirty.failed > 0, "a replayed block on a dirty stack must be noticed");
            }
        }
    }

    /// A block of `2 * WINDOW_READS` reads at `ms` each, the second
    /// window slowed by `factor`.
    fn block(ms: f64, factor: f64) -> BlockSamples {
        let read_ms: Vec<f64> = (0..2 * WINDOW_READS)
            .map(|i| if i < WINDOW_READS { ms } else { ms * factor })
            .collect();
        BlockSamples { op_s: read_ms.iter().map(|ms| ms / 1e3).collect(), read_ms }
    }

    #[test]
    fn best_windows_need_each_window_quiet_only_once() {
        // No block is quiet throughout: a neighbour slows the second
        // window of the first block and the first window of the second.
        let mut second = block(1.0, 1.0);
        for i in 0..WINDOW_READS {
            second.read_ms[i] = 1.5;
            second.op_s[i] = 1.5e-3;
        }
        let blocks = [block(1.0, 1.5), second];
        let (p50_ms, qps) = best_windows(&blocks).unwrap();
        assert!((p50_ms - 1.0).abs() < 1e-12, "each window was quiet once: {p50_ms}");
        assert!((qps - 1000.0).abs() < 1e-6, "every read in a quiet 1 ms: {qps}");
        // The best whole block would have reported the noise.
        let whole: Vec<f64> = blocks.iter().map(|b| median_of(&b.read_ms).unwrap()).collect();
        assert!(best_low(&whole).unwrap() > 1.2);
        // A window that is slow in every block stays slow: work, not noise.
        let (p50_ms, qps) = best_windows(&[block(1.0, 3.0), block(1.0, 3.0)]).unwrap();
        assert!((p50_ms - 2.0).abs() < 1e-12, "median of window medians 1 and 3: {p50_ms}");
        assert!((qps - 500.0).abs() < 1e-6);
        assert!(best_windows(&[]).is_none());
    }

    #[test]
    fn a_short_block_is_one_window_the_best_block() {
        let n = WINDOW_READS + 3;
        let fast = BlockSamples { read_ms: vec![2.0; n], op_s: vec![2e-3; n] };
        let slow = BlockSamples { read_ms: vec![3.0; n], op_s: vec![3e-3; n] };
        let (p50_ms, qps) = best_windows(&[slow, fast]).unwrap();
        assert_eq!(p50_ms, 2.0);
        assert!((qps - 500.0).abs() < 1e-9);
    }

    #[test]
    fn spin_takes_time_and_is_not_optimised_away() {
        assert!(spin_us() > 50.0);
    }
}
