//! Experiment 2.2 (paper Section 7.2): IndexQuery vs. IndexGuards —
//! regenerates **Figure 4**.
//!
//! Sweeps the query predicate's cardinality (by widening its time window)
//! at three guard-cardinality classes (low/medium/high) and compares the
//! cost of driving the read with the query-predicate index versus the
//! guard indexes. The paper finds IndexQuery wins at low query
//! cardinality and IndexGuards from ≈0.07 upward.

use minidb::expr::{ColumnRef, Expr};
use minidb::value::{DataType, Value};
use minidb::{Database, DbProfile, SelectQuery, TableSchema};
use sieve_bench::harness::{emit, time_enforcement, EnvConfig};
use sieve_bench::table::{mean, ms, render};
use sieve_core::cost::AccessStrategy;
use sieve_core::Enforcement;
use sieve_core::policy::{CondPredicate, ObjectCondition, Policy, QuerierSpec, QueryMetadata};
use sieve_core::{SieveOptions, SieveService};
use std::fmt::Write as _;

fn build_db(rows: i64) -> Database {
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
    for i in 0..rows {
        db.insert(
            "wifi_dataset",
            vec![
                Value::Int(i),
                Value::Int(i % 500),
                Value::Int(1000 + i % 64),
                Value::Time(((i * 173) % 86_400) as u32),
            ],
        )
        .unwrap();
    }
    for col in ["owner", "wifi_ap", "ts_time"] {
        db.create_index("wifi_dataset", col).unwrap();
    }
    db.analyze("wifi_dataset").unwrap();
    db
}

/// Guard class: policies for `n_owners` owners at `n_aps` APs — guard
/// cardinality grows with both.
fn policies_for(n_owners: i64, n_aps: i64) -> Vec<Policy> {
    let mut out = Vec::new();
    for o in 0..n_owners {
        for ap in 0..n_aps {
            out.push(Policy::new(
                o,
                "wifi_dataset",
                QuerierSpec::User(9_999),
                "Analytics",
                vec![ObjectCondition::new(
                    "wifi_ap",
                    CondPredicate::Eq(Value::Int(1000 + ap)),
                )],
            ));
        }
    }
    out
}

fn main() {
    let env = EnvConfig::from_env();
    let rows = (60_000.0 * (env.scale / 0.05).max(0.1)) as i64;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== Experiment 2.2: IndexQuery vs IndexGuards (Figure 4; {rows} rows) ===\n"
    );

    let qm = QueryMetadata::new(9_999, "Analytics");
    // Query-cardinality sweep: ts_time window width as fraction of a day.
    let widths: [(f64, &str); 7] = [
        (0.01, "0.01"),
        (0.03, "0.03"),
        (0.05, "0.05"),
        (0.07, "0.07"),
        (0.10, "0.10"),
        (0.20, "0.20"),
        (0.40, "0.40"),
    ];
    // Guard coverage ≈ owners/500 of the table: 2.4% / 6% / 12% — the
    // low/medium/high guard-cardinality classes of Figure 4.
    let guard_classes: [(&str, i64, i64); 3] =
        [("low", 12, 2), ("mid", 30, 3), ("high", 60, 4)];

    let mut rows_out = Vec::new();
    let mut crossovers = Vec::new();
    for (frac, label) in widths {
        let window = (86_400.0 * frac) as u32;
        let qpred = Expr::Between {
            expr: Box::new(Expr::Column(ColumnRef::bare("ts_time"))),
            low: Box::new(Expr::Literal(Value::Time(8 * 3600))),
            high: Box::new(Expr::Literal(Value::Time(8 * 3600 + window))),
            negated: false,
        };
        let query = SelectQuery::star_from("wifi_dataset").filter(qpred);

        let mut iq_all = Vec::new();
        let mut ig_all = Vec::new();
        let mut auto_pick = String::new();
        for (_, owners, aps) in guard_classes {
            let run = |strategy: Option<AccessStrategy>| -> (Option<f64>, AccessStrategy) {
                let db = build_db(rows);
                let sieve = SieveService::new(
                    db,
                    SieveOptions {
                        timeout: Some(env.timeout),
                        ..Default::default()
                    },
                )
                .unwrap();
                sieve.with_options_mut(|o| o.rewrite.forced_strategy = strategy);
                sieve
                    .add_policies(policies_for(owners, aps))
                    .unwrap();
                let picked = sieve
                    .rewrite(&query, &qm)
                    .map(|r| r.relations[0].strategy)
                    .unwrap_or(AccessStrategy::LinearScan);
                let t = time_enforcement(&sieve, Enforcement::Sieve, &query, &qm, 2);
                (t.sim_kcost, picked)
            };
            let (iq, _) = run(Some(AccessStrategy::IndexQuery));
            let (ig, _) = run(Some(AccessStrategy::IndexGuards));
            let (_, picked) = run(None);
            if let Some(v) = iq {
                iq_all.push(v);
            }
            if let Some(v) = ig {
                ig_all.push(v);
            }
            auto_pick = format!("{picked:?}");
        }
        let iq = mean(&iq_all);
        let ig = mean(&ig_all);
        if let (Some(a), Some(b)) = (iq, ig) {
            if b < a && crossovers.is_empty() {
                crossovers.push(frac);
            }
        }
        rows_out.push(vec![
            label.to_string(),
            ms(iq),
            ms(ig),
            auto_pick,
        ]);
    }

    let _ = writeln!(
        out,
        "{}",
        render(
            &["query_frac", "IndexQuery_kcost", "IndexGuards_kcost", "auto(high)"],
            &rows_out
        )
    );
    let _ = writeln!(
        out,
        "crossover: IndexGuards wins from query fraction ≈ {} (paper: ≈0.07)",
        crossovers
            .first()
            .map_or("n/a".into(), |f| format!("{f}"))
    );
    let _ = writeln!(
        out,
        "(kcost averaged over guard-cardinality classes low/mid/high, as in Figure 4)"
    );
    emit("exp2_index_choice", &out);
}
