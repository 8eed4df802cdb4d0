//! Experiment 1 (paper Section 7.2): guard-generation cost and guard
//! quality — regenerates **Figure 2**, **Table 6**, and **Table 7**.
//!
//! * Figure 2: guarded-expression generation time vs. number of policies
//!   (per-querier, averaged in buckets of queriers sorted by policy
//!   count). The paper reports linear growth, ~150 ms at 160 policies.
//! * Table 6: per-querier statistics — relevant policies `|p_uk|`, guard
//!   count `|G|`, partition size `|p_Gi|`, guard cardinality `ρ(G_i)`,
//!   and *savings*: the fraction of policy evaluations eliminated by
//!   guarding (paper: ≈0.99).
//! * Table 7: query evaluation time bucketed by `|G|` (low/high) ×
//!   `ρ(G)` (low/high).
//!
//! `--no-merge` ablates Theorem 1's candidate merging.

use minidb::DbProfile;
use sieve_bench::harness::{build_campus, emit, EnvConfig};
use sieve_bench::table::{mean, ms, render, std_dev};
use sieve_core::cost::CostModel;
use sieve_core::filter::relevant_policies;
use sieve_core::guard::{generate_guarded_expression, GuardSelectionStrategy};
use sieve_core::policy::QueryMetadata;
use sieve_core::semantics::eval_policies;
use sieve_workload::WIFI_TABLE;
use std::fmt::Write as _;
use std::time::Instant;

fn main() {
    let no_merge = std::env::args().any(|a| a == "--no-merge");
    let env = EnvConfig::from_env();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== Experiment 1: guard generation (scale={}, days={}{}) ===\n",
        env.scale,
        env.days,
        if no_merge { ", NO-MERGE ablation" } else { "" }
    );

    let campus = build_campus(DbProfile::MySqlLike, &env);
    let db = campus.sieve.db().clone();
    let entry = db.table(WIFI_TABLE).expect("wifi table");
    let table_rows = entry.table.len() as f64;

    let cost = if no_merge {
        // cr = 0 makes Theorem 1's threshold 1.0: no merge ever fires.
        CostModel {
            cr: 0.0,
            ..CostModel::default()
        }
    } else {
        CostModel::default()
    };

    // Per-querier guard generation over every non-visitor device.
    struct PerQuerier {
        querier: i64,
        policies: usize,
        guards: usize,
        partition_sizes: Vec<usize>,
        guard_fractions: Vec<f64>,
        total_guard_rows: f64,
        savings: f64,
    }
    let purpose = "Analytics";
    let sample_rows: Vec<minidb::Row> = entry
        .table
        .rows()
        .iter()
        .step_by((entry.table.len() / 400).max(1))
        .cloned()
        .collect();
    let schema = entry.schema();

    let mut per_querier: Vec<PerQuerier> = Vec::new();
    for device in campus
        .dataset
        .devices
        .iter()
        .filter(|d| d.profile != sieve_workload::UserProfile::Visitor)
    {
        let qm = QueryMetadata::new(device.id, purpose);
        let relevant = relevant_policies(
            campus.policies.iter(),
            WIFI_TABLE,
            &qm,
            &campus.sieve.groups(),
        );
        if relevant.is_empty() {
            continue;
        }
        let ge = generate_guarded_expression(
            &relevant,
            entry,
            &cost,
            GuardSelectionStrategy::CostOptimal,
            device.id,
            purpose,
            WIFI_TABLE,
        );

        // Savings: policy evaluations without guards vs with guards, on a
        // row sample. Without guards every row is checked against the
        // whole relevant list (short-circuit); with guards only rows
        // passing some guard are checked, against that partition only.
        let mut evals_plain = 0usize;
        let mut evals_guarded = 0usize;
        for row in &sample_rows {
            evals_plain += eval_policies(&relevant, schema, row, None).policies_checked;
            for g in &ge.guards {
                if sieve_core::semantics::eval_condition(&g.condition, schema, row, None) {
                    let part: Vec<&sieve_core::Policy> = g
                        .policies
                        .iter()
                        .filter_map(|id| relevant.iter().find(|p| p.id == *id).copied())
                        .collect();
                    evals_guarded +=
                        eval_policies(&part, schema, row, None).policies_checked;
                }
            }
        }
        let savings = if evals_plain > 0 {
            1.0 - evals_guarded as f64 / evals_plain as f64
        } else {
            0.0
        };

        per_querier.push(PerQuerier {
            querier: device.id,
            policies: relevant.len(),
            guards: ge.guards.len(),
            partition_sizes: ge.guards.iter().map(|g| g.partition_size()).collect(),
            guard_fractions: ge
                .guards
                .iter()
                .map(|g| g.est_rows / table_rows)
                .collect(),
            total_guard_rows: ge.total_guard_rows(),
            savings,
        });
    }
    per_querier.sort_by_key(|p| p.policies);

    // ---- Figure 2: generation time vs #policies. The x-axis sweeps the
    // policy-set size by subsampling each querier's relevant set (the
    // paper's spread comes from queriers naturally having 31..359
    // policies; subsampling gives the same curve deterministically).
    let _ = writeln!(out, "--- Figure 2: guard generation cost ---");
    let fig2_queriers: Vec<i64> = per_querier
        .iter()
        .rev()
        .take(8)
        .map(|p| p.querier)
        .collect();
    let max_policies = per_querier.last().map(|p| p.policies).unwrap_or(0);
    let mut rows = Vec::new();
    let step = (max_policies / 10).max(10);
    let mut size = step;
    while size <= max_policies {
        let mut times = Vec::new();
        for &querier in &fig2_queriers {
            let qm = QueryMetadata::new(querier, purpose);
            let relevant = relevant_policies(
                campus.policies.iter(),
                WIFI_TABLE,
                &qm,
                &campus.sieve.groups(),
            );
            if relevant.len() < size {
                continue;
            }
            let subset = &relevant[..size];
            let start = Instant::now();
            let _ = generate_guarded_expression(
                subset,
                entry,
                &cost,
                GuardSelectionStrategy::CostOptimal,
                querier,
                purpose,
                WIFI_TABLE,
            );
            times.push(start.elapsed().as_secs_f64() * 1e3);
        }
        if let Some(t) = mean(&times) {
            rows.push(vec![size.to_string(), format!("{t:.2}")]);
        }
        size += step;
    }
    let _ = writeln!(out, "{}", render(&["policies", "gen_ms"], &rows));

    // ---- Table 6: guard statistics.
    let _ = writeln!(out, "--- Table 6: policies and generated guards ---");
    let stats_row = |name: &str, xs: &[f64], pct: bool| -> Vec<String> {
        let fmt = |v: f64| {
            if pct {
                format!("{:.2}%", v * 100.0)
            } else if v.abs() < 10.0 && v.fract() != 0.0 {
                format!("{v:.2}")
            } else {
                format!("{v:.0}")
            }
        };
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        vec![
            name.to_string(),
            fmt(min),
            fmt(mean(xs).unwrap_or(0.0)),
            fmt(max),
            fmt(std_dev(xs)),
        ]
    };
    let pol: Vec<f64> = per_querier.iter().map(|p| p.policies as f64).collect();
    let gct: Vec<f64> = per_querier.iter().map(|p| p.guards as f64).collect();
    let parts: Vec<f64> = per_querier
        .iter()
        .flat_map(|p| p.partition_sizes.iter().map(|&s| s as f64))
        .collect();
    let fracs: Vec<f64> = per_querier
        .iter()
        .flat_map(|p| p.guard_fractions.iter().copied())
        .collect();
    let savings: Vec<f64> = per_querier.iter().map(|p| p.savings).collect();
    let t6 = render(
        &["metric", "min", "avg", "max", "SD"],
        &[
            stats_row("|p_uk| (policies/querier)", &pol, false),
            stats_row("|G| (guards)", &gct, false),
            stats_row("|p_Gi| (partition size)", &parts, false),
            stats_row("rho(Gi) (guard fraction)", &fracs, true),
            stats_row("savings", &savings, false),
        ],
    );
    let _ = writeln!(out, "{t6}");

    // ---- Table 7: |G| × ρ(G) buckets, measured query time (SELECT *).
    let _ = writeln!(out, "--- Table 7: eval time by #guards x cardinality ---");
    let med = |mut xs: Vec<f64>| -> f64 {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    let g_med = med(gct.clone());
    let rho_med = med(
        per_querier
            .iter()
            .map(|p| p.total_guard_rows / table_rows)
            .collect(),
    );
    let mut cells: [[Vec<f64>; 2]; 2] = Default::default();
    let q = minidb::SelectQuery::star_from(WIFI_TABLE);
    for pq in per_querier.iter() {
        let qm = QueryMetadata::new(pq.querier, purpose);
        let gi = usize::from(pq.guards as f64 > g_med);
        let ri = usize::from(pq.total_guard_rows / table_rows > rho_med);
        if cells[gi][ri].len() >= 12 {
            continue; // 12 queriers per bucket keeps the runtime sane
        }
        let t = sieve_bench::harness::time_enforcement(
            &campus.sieve,
            sieve_core::Enforcement::Sieve,
            &q,
            &qm,
            2,
        );
        if let Some(w) = t.sim_kcost {
            cells[gi][ri].push(w);
        }
    }
    let t7 = render(
        &["", "rho(G) low", "rho(G) high"],
        &[
            vec![
                "|G| low".into(),
                ms(mean(&cells[0][0])),
                ms(mean(&cells[0][1])),
            ],
            vec![
                "|G| high".into(),
                ms(mean(&cells[1][0])),
                ms(mean(&cells[1][1])),
            ],
        ],
    );
    let _ = writeln!(out, "{t7}");
    let _ = writeln!(
        out,
        "(cells: simulated kilocost of SELECT * under SIEVE, avg per bucket)"
    );

    let name = if no_merge {
        "exp1_guard_gen_no_merge"
    } else {
        "exp1_guard_gen"
    };
    emit(name, &out);
}
