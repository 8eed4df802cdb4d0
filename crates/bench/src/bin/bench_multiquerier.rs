//! `bench_multiquerier` — batched multi-querier preparation vs the
//! per-querier loop.
//!
//! The scenario the ROADMAP's batched-evaluation item targets: ≥ 100
//! distinct queriers hit the same protected relation concurrently with
//! cold guard caches. Two schedules prepare the identical request batch:
//!
//! 1. **Sequential** — `SieveService::rewrite` per request; every querier
//!    pays its own policy-store scan and candidate generation.
//! 2. **Batched** — `SieveService::prepare_batch` runs the shared phase
//!    (store scan, candidate generation, histogram estimates) once per
//!    `(purpose, relation)` group, then per-request `rewrite` hits the
//!    warm cache and pays only fragment compilation + assembly.
//!
//! Both schedules then execute every request and the row sets are
//! asserted identical — batching must change the schedule, never the
//! semantics. Results go to stdout, `results/bench_multiquerier.txt`,
//! and `results/BENCH_multiquerier.json` (the CI artifact).
//!
//! `--quick` shrinks the dataset for CI smoke runs while keeping the
//! querier count at the 100-querier scenario; `SIEVE_SCALE`/`SIEVE_DAYS`
//! are honoured otherwise.

use sieve_bench::harness::{build_campus, emit, EnvConfig};
use sieve_bench::table::render;
use sieve_workload::traffic::{multi_querier_traffic, TrafficConfig};
use std::fmt::Write as _;
use std::time::Instant;

struct Config {
    quick: bool,
    env: EnvConfig,
    queriers: usize,
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
            queriers: if quick { 100 } else { 150 },
        }
    }
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() {
    let cfg = Config::from_args();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== bench_multiquerier (scale={}, days={}, quick={}) ===\n",
        cfg.env.scale, cfg.env.days, cfg.quick
    );

    let campus = build_campus(minidb::DbProfile::MySqlLike, &cfg.env);
    let requests = multi_querier_traffic(
        &campus.dataset,
        &TrafficConfig {
            queriers: cfg.queriers,
            purpose: "Analytics".into(),
            seed: 11,
        },
    );
    assert!(
        requests.len() >= 100,
        "scenario needs >= 100 distinct queriers, got {}",
        requests.len()
    );
    let policies = campus.policies.len();

    // ---- 1. Sequential per-querier preparation (cold cache).
    campus.sieve.invalidate_all();
    let seq_gens_before = campus.sieve.generations();
    let t0 = Instant::now();
    for (qm, q) in &requests {
        campus.sieve.rewrite(q, qm).expect("sequential rewrite");
    }
    let seq_prepare_ms = ms(t0.elapsed());
    let seq_generations = campus.sieve.generations() - seq_gens_before;
    let mut seq_rows: Vec<Vec<minidb::Row>> = Vec::with_capacity(requests.len());
    for (qm, q) in &requests {
        let mut rows = campus.sieve.execute(q, qm).expect("sequential execute").rows;
        rows.sort();
        seq_rows.push(rows);
    }

    // ---- 2. Batched preparation of the identical requests (cold cache).
    campus.sieve.invalidate_all();
    let gens_before = campus.sieve.generations();
    let t0 = Instant::now();
    let report = campus.sieve.prepare_batch(&requests).expect("prepare_batch");
    let batch_gen_ms = ms(t0.elapsed());
    let t0 = Instant::now();
    for (qm, q) in &requests {
        campus.sieve.rewrite(q, qm).expect("batched rewrite");
    }
    let batch_rewrite_ms = ms(t0.elapsed());
    let batch_prepare_ms = batch_gen_ms + batch_rewrite_ms;
    let batch_generations = campus.sieve.generations() - gens_before;

    let mut equal = true;
    for ((qm, q), expect) in requests.iter().zip(&seq_rows) {
        let mut rows = campus.sieve.execute(q, qm).expect("batched execute").rows;
        rows.sort();
        if &rows != expect {
            equal = false;
            eprintln!("MISMATCH for querier {}", qm.querier);
        }
    }
    assert!(equal, "batched results diverged from sequential execution");

    let speedup = seq_prepare_ms / batch_prepare_ms.max(f64::EPSILON);
    let groups = report.groups.len();
    let slice_policies: usize = report.groups.iter().map(|g| g.slice_policies).sum();
    let shared_candidates: usize = report.groups.iter().map(|g| g.shared_candidates).sum();

    let _ = writeln!(out, "--- batched vs sequential preparation ---");
    let _ = writeln!(
        out,
        "{}",
        render(
            &["metric", "value"],
            &[
                vec!["queriers".into(), requests.len().to_string()],
                vec!["policies".into(), policies.to_string()],
                vec!["groups".into(), groups.to_string()],
                vec!["group slice policies".into(), slice_policies.to_string()],
                vec!["shared candidates".into(), shared_candidates.to_string()],
                vec![
                    "sequential prepare ms".into(),
                    format!("{seq_prepare_ms:.2}")
                ],
                vec![
                    "batch generation ms".into(),
                    format!("{batch_gen_ms:.2}")
                ],
                vec![
                    "batch rewrite ms".into(),
                    format!("{batch_rewrite_ms:.2}")
                ],
                vec![
                    "batch prepare ms (total)".into(),
                    format!("{batch_prepare_ms:.2}")
                ],
                vec!["speedup".into(), format!("{speedup:.2}x")],
                vec![
                    "generations seq/batch".into(),
                    format!("{seq_generations}/{batch_generations}")
                ],
                vec!["results identical".into(), equal.to_string()],
            ]
        )
    );
    if speedup < 1.1 {
        let _ = writeln!(
            out,
            "\nWARNING: batched prepare speedup {speedup:.2}x below the 1.1x floor"
        );
    }
    emit("bench_multiquerier", &out);

    let json = format!(
        "{{\n  \
           \"bench\": \"multiquerier\",\n  \
           \"quick\": {quick},\n  \
           \"scale\": {scale},\n  \
           \"days\": {days},\n  \
           \"queriers\": {queriers},\n  \
           \"policies\": {policies},\n  \
           \"groups\": {groups},\n  \
           \"group_slice_policies\": {slice_policies},\n  \
           \"shared_candidates\": {shared_candidates},\n  \
           \"seq_prepare_ms\": {seq_prepare_ms:.3},\n  \
           \"batch_generation_ms\": {batch_gen_ms:.3},\n  \
           \"batch_rewrite_ms\": {batch_rewrite_ms:.3},\n  \
           \"batch_prepare_ms\": {batch_prepare_ms:.3},\n  \
           \"speedup\": {speedup:.3},\n  \
           \"generations_sequential\": {seq_generations},\n  \
           \"generations_batched\": {batch_generations},\n  \
           \"results_identical\": {equal}\n\
         }}\n",
        quick = cfg.quick,
        scale = cfg.env.scale,
        days = cfg.env.days,
        queriers = requests.len(),
    );
    let _ = std::fs::create_dir_all("results");
    let path = std::path::Path::new("results").join("BENCH_multiquerier.json");
    match std::fs::write(&path, &json) {
        Ok(()) => eprintln!("[saved {}]", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}
