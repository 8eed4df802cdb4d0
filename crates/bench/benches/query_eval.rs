//! Criterion bench: SIEVE vs the baselines on the campus workload
//! (the microbenchmark behind Table 8).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use minidb::DbProfile;
use sieve_bench::harness::{build_campus, pick_queriers, EnvConfig};
use sieve_core::baselines::Baseline;
use sieve_core::Enforcement;
use sieve_core::policy::QueryMetadata;
use sieve_workload::query_gen::generate_query;
use sieve_workload::{QueryClass, Selectivity, UserProfile};
use std::time::Duration;

fn bench_query_eval(c: &mut Criterion) {
    let env = EnvConfig {
        scale: 0.01,
        days: 60,
        timeout: Duration::from_secs(20),
    };
    let campus = build_campus(DbProfile::MySqlLike, &env);
    let querier = pick_queriers(&campus, UserProfile::Faculty, "Analytics", 1)[0];
    let qm = QueryMetadata::new(querier, "Analytics");

    let mut group = c.benchmark_group("query_eval");
    for (class, sel) in [
        (QueryClass::Q1, Selectivity::Low),
        (QueryClass::Q1, Selectivity::Mid),
        (QueryClass::Q2, Selectivity::Low),
    ] {
        let query = generate_query(&campus.dataset, class, sel, 42);
        for (name, mech) in [
            ("SIEVE", Enforcement::Sieve),
            ("BaselineP", Enforcement::Baseline(Baseline::P)),
            ("BaselineI", Enforcement::Baseline(Baseline::I)),
        ] {
            // Warm-up (guard generation excluded from the measurement).
            let _ = campus.sieve.run_timed(mech, &query, &qm);
            group.bench_with_input(
                BenchmarkId::new(name, format!("{}-{}", class.name(), sel.name())),
                &(),
                |b, _| {
                    b.iter(|| {
                        let (res, _) = campus.sieve.run_timed(mech, &query, &qm);
                        res.map(|r| r.len()).unwrap_or(0)
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(12);
    targets = bench_query_eval
}
criterion_main!(benches);
