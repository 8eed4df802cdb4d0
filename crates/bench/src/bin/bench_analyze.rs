//! `bench_analyze` — prices the static soundness verifier
//! ([`sieve_core::analyze`]) on the query path.
//!
//! Two questions, answered on the campus workload:
//!
//! 1. **What does `verify_rewrites` cost when guards are warm?** The
//!    verifier runs only at cold guard generation; a warm repeat query
//!    never re-verifies. So the warm rewrite path with verification on
//!    must cost the same as with it off. Gated in `--quick` CI runs:
//!    the warm overhead must stay under [`WARM_VERIFY_GATE_PCT`] (or
//!    inside the absolute timer-noise floor).
//! 2. **What does one cold verification cost?** Cold prepare (empty
//!    cache → generation + no-widening proof + compilation) with the
//!    verifier on vs off, reported for context — this is the one-time
//!    price of a machine-checked guard.
//!
//! Results go to stdout, `results/bench_analyze.txt`, and
//! `results/BENCH_analyze.json` (the CI artifact).

use sieve_bench::harness::{build_campus, emit, queriers_with_policies, EnvConfig};
use sieve_bench::table::render;
use sieve_core::policy::QueryMetadata;
use std::fmt::Write as _;
use std::time::Instant;

struct Config {
    quick: bool,
    env: EnvConfig,
    warm_reps: usize,
    blocks: usize,
    cold_reps: usize,
}

impl Config {
    fn from_args() -> Self {
        let quick = std::env::args().any(|a| a == "--quick");
        let mut env = EnvConfig::from_env();
        if quick {
            env.scale = 0.004;
            env.days = 20;
        }
        Config {
            quick,
            env,
            warm_reps: if quick { 30 } else { 100 },
            blocks: if quick { 5 } else { 10 },
            cold_reps: if quick { 5 } else { 15 },
        }
    }
}

/// `--quick` CI gate: warm prepares with `verify_rewrites` on must cost
/// less than this much over warm prepares with it off, or the build
/// fails (the verifier must never touch the warm path).
const WARM_VERIFY_GATE_PCT: f64 = 5.0;

/// Absolute escape hatch: overhead below this many ms is inside the
/// timer's resolution on a noisy shared container (the warm baseline is
/// tens of µs). A real regression — verification on a warm hit — costs
/// orders of magnitude more and still trips the gate.
const WARM_VERIFY_GATE_FLOOR_MS: f64 = 0.01;

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Best block-mean over `blocks` blocks of `reps` calls, in ms/call
/// (same estimator as `bench_faults`: transient stalls only slow a
/// block down, so the minimum converges on the true cost).
fn best_block_ms(reps: usize, blocks: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..blocks {
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        best = best.min(ms(t.elapsed()) / reps as f64);
    }
    best
}

fn main() {
    let cfg = Config::from_args();
    let purpose = "Analytics";
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== bench_analyze: soundness-verifier overhead (scale={}, days={}, quick={}) ===\n",
        cfg.env.scale, cfg.env.days, cfg.quick
    );

    let campus = build_campus(minidb::DbProfile::MySqlLike, &cfg.env);
    let querier = queriers_with_policies(&campus, purpose, 1)
        .first()
        .map(|&(q, _)| q)
        .expect("campus must contain a covered querier");
    let qm = QueryMetadata::new(querier, purpose);
    let q = sieve_workload::query_gen::generate_query(
        &campus.dataset,
        sieve_workload::QueryClass::Q1,
        sieve_workload::Selectivity::Low,
        7,
    );

    // ---- Cold prepare cost, verifier off vs on.
    let mut cold = [Vec::new(), Vec::new()];
    for (i, verify) in [false, true].into_iter().enumerate() {
        campus.sieve.with_options_mut(|o| o.verify_rewrites = verify);
        for _ in 0..cfg.cold_reps {
            campus.sieve.invalidate_all();
            let t = Instant::now();
            campus.sieve.rewrite(&q, &qm).expect("cold rewrite");
            cold[i].push(ms(t.elapsed()));
        }
    }
    let cold_off_ms = cold[0].iter().copied().fold(f64::INFINITY, f64::min);
    let cold_on_ms = cold[1].iter().copied().fold(f64::INFINITY, f64::min);

    // ---- Warm prepare cost, verifier off vs on. The generation under
    // each configuration happened above; these loops never miss the
    // guard cache, so any delta is verifier work leaking onto the warm
    // path.
    campus.sieve.with_options_mut(|o| o.verify_rewrites = false);
    campus.sieve.invalidate_all();
    campus.sieve.rewrite(&q, &qm).expect("warm-up rewrite");
    let warm_off_ms = best_block_ms(cfg.warm_reps, cfg.blocks, || {
        campus.sieve.rewrite(&q, &qm).expect("warm rewrite");
    });

    campus.sieve.with_options_mut(|o| o.verify_rewrites = true);
    campus.sieve.invalidate_all();
    campus.sieve.rewrite(&q, &qm).expect("warm-up rewrite");
    let warm_on_ms = best_block_ms(cfg.warm_reps, cfg.blocks, || {
        campus.sieve.rewrite(&q, &qm).expect("warm rewrite");
    });

    let overhead_ms = warm_on_ms - warm_off_ms;
    let overhead_pct = 100.0 * overhead_ms / warm_off_ms.max(f64::EPSILON);
    let cold_delta_ms = cold_on_ms - cold_off_ms;

    let rows = vec![
        vec!["cold prepare, verify off".into(), format!("{cold_off_ms:.4} ms")],
        vec!["cold prepare, verify on".into(), format!("{cold_on_ms:.4} ms")],
        vec![
            "cold verification cost".into(),
            format!("{cold_delta_ms:.4} ms"),
        ],
        vec!["warm prepare, verify off".into(), format!("{warm_off_ms:.5} ms")],
        vec!["warm prepare, verify on".into(), format!("{warm_on_ms:.5} ms")],
        vec![
            "warm overhead".into(),
            format!("{overhead_ms:.5} ms ({overhead_pct:.1}%)"),
        ],
    ];
    let _ = writeln!(out, "{}", render(&["metric", "value"], &rows));

    let gate_pass = overhead_pct < WARM_VERIFY_GATE_PCT || overhead_ms < WARM_VERIFY_GATE_FLOOR_MS;
    if cfg.quick {
        assert!(
            gate_pass,
            "SOUNDNESS-VERIFIER GATE: warm prepare overhead {overhead_ms:.4} ms \
             ({overhead_pct:.1}%) breaches the {WARM_VERIFY_GATE_PCT}% / \
             {WARM_VERIFY_GATE_FLOOR_MS} ms gate — verification is leaking onto the warm path"
        );
        let _ = writeln!(
            out,
            "[gate PASS: warm overhead {overhead_ms:.4} ms ({overhead_pct:.1}%) within the \
             {WARM_VERIFY_GATE_PCT}% / {WARM_VERIFY_GATE_FLOOR_MS} ms gate]"
        );
    }
    emit("bench_analyze", &out);

    let json = format!(
        "{{\n  \
           \"bench\": \"analyze\",\n  \
           \"quick\": {quick},\n  \
           \"scale\": {scale},\n  \
           \"days\": {days},\n  \
           \"cold_off_ms\": {cold_off_ms:.5},\n  \
           \"cold_on_ms\": {cold_on_ms:.5},\n  \
           \"cold_verify_ms\": {cold_delta_ms:.5},\n  \
           \"warm_off_ms\": {warm_off_ms:.5},\n  \
           \"warm_on_ms\": {warm_on_ms:.5},\n  \
           \"warm_overhead_ms\": {overhead_ms:.5},\n  \
           \"warm_overhead_pct\": {overhead_pct:.2},\n  \
           \"warm_gate_pct\": {WARM_VERIFY_GATE_PCT},\n  \
           \"warm_gate_floor_ms\": {WARM_VERIFY_GATE_FLOOR_MS},\n  \
           \"warm_gate_pass\": {gate_pass}\n\
         }}\n",
        quick = cfg.quick,
        scale = cfg.env.scale,
        days = cfg.env.days,
    );
    let _ = std::fs::create_dir_all("results");
    let path = std::path::Path::new("results").join("BENCH_analyze.json");
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        eprintln!("[saved {}]", path.display());
    }
}
