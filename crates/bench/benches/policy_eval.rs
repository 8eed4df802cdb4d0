//! Criterion bench: Guard&Inlining vs Guard&∆ per-query wall time
//! (the microbenchmark behind Figure 3).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use minidb::value::{DataType, Value};
use minidb::{Database, DbProfile, SelectQuery, TableSchema};
use sieve_core::Enforcement;
use sieve_core::policy::{CondPredicate, ObjectCondition, Policy, QuerierSpec, QueryMetadata};
use sieve_core::rewrite::DeltaMode;
use sieve_core::{SieveOptions, SieveService};

fn sieve_with(n_policies: usize, mode: DeltaMode) -> SieveService {
    let mut db = Database::new(DbProfile::MySqlLike);
    db.create_table(TableSchema::of(
        "wifi_dataset",
        &[
            ("id", DataType::Int),
            ("owner", DataType::Int),
            ("wifi_ap", DataType::Int),
            ("ts_time", DataType::Time),
        ],
    ))
    .unwrap();
    for i in 0..20_000i64 {
        db.insert(
            "wifi_dataset",
            vec![
                Value::Int(i),
                Value::Int(i % 200),
                Value::Int(if i % 2 == 0 { 1200 } else { 1300 }),
                Value::Time(((i * 151) % 86_400) as u32),
            ],
        )
        .unwrap();
    }
    for col in ["owner", "wifi_ap"] {
        db.create_index("wifi_dataset", col).unwrap();
    }
    db.analyze("wifi_dataset").unwrap();
    let sieve = SieveService::new(db, SieveOptions::default()).unwrap();
    sieve.with_options_mut(|o| o.rewrite.delta_mode = mode);
    for i in 0..n_policies {
        let start = ((i % 12) as u32) * 2 * 3600;
        sieve
            .add_policy(Policy::new(
                (i % 100) as i64,
                "wifi_dataset",
                QuerierSpec::User(9),
                "Any",
                vec![
                    ObjectCondition::new("wifi_ap", CondPredicate::Eq(Value::Int(1200))),
                    ObjectCondition::new(
                        "ts_time",
                        CondPredicate::between(
                            Value::Time(start),
                            Value::Time((start + 7200).min(86_399)),
                        ),
                    ),
                ],
            ))
            .unwrap();
    }
    sieve
}

fn bench_inline_vs_delta(c: &mut Criterion) {
    let qm = QueryMetadata::new(9, "Any");
    let query = SelectQuery::star_from("wifi_dataset");
    let mut group = c.benchmark_group("policy_eval");
    for &n in &[40usize, 120, 240] {
        for (label, mode) in [("inline", DeltaMode::Never), ("delta", DeltaMode::Always)] {
            let sieve = sieve_with(n, mode);
            // Warm the guard cache so only execution is measured.
            let _ = sieve.run_timed(Enforcement::Sieve, &query, &qm);
            group.bench_with_input(BenchmarkId::new(label, n), &(), |b, _| {
                b.iter(|| {
                    let (res, _) = sieve.run_timed(Enforcement::Sieve, &query, &qm);
                    res.unwrap().len()
                })
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_inline_vs_delta
}
criterion_main!(benches);
