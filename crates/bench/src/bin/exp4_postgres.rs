//! Experiment 4 (paper Section 7.2): SIEVE on PostgreSQL — regenerates
//! **Figure 5**.
//!
//! Queriers with large policy sets run `SELECT *` under growing,
//! randomly-sampled cumulative policy subsets, across four strategy ×
//! optimizer-profile combinations:
//!
//! * `BaselineI(M)` — the best MySQL baseline from Experiment 3;
//! * `BaselineP(P)` — the policy-DNF baseline on the PostgreSQL-like
//!   profile (which can BitmapOr the policy probes);
//! * `SIEVE(M)` and `SIEVE(P)`.
//!
//! The paper's finding: SIEVE beats the baseline on both engines, and the
//! speedup on PostgreSQL grows with the number of policies because the
//! engine ORs many guard index scans through one in-memory bitmap.
//!
//! With the execution-backend abstraction in the tree, a fifth column
//! runs `SIEVE(P)` through the **wire-SQL backend** (`SIEVE(P,wire)`):
//! the rewritten query is rendered to text, re-parsed, and executed —
//! the exact dispatch path of a real PostgreSQL deployment. Its
//! simulated cost must match `SIEVE(P)` (the wire changes dispatch, not
//! the plan).

use minidb::{Database, DbProfile, SelectQuery};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sieve_bench::harness::{
    build_campus, emit, queriers_with_policies, time_enforcement, EnvConfig,
};
use sieve_bench::table::{mean, ms, render};
use sieve_core::baselines::Baseline;
use sieve_core::filter::relevant_policies;
use sieve_core::Enforcement;
use sieve_core::policy::{Policy, QueryMetadata};
use sieve_core::{SieveOptions, SieveService, SqlBackend};
use sieve_workload::WIFI_TABLE;
use std::fmt::Write as _;

/// Time one enforcement run on an arbitrary execution backend.
fn run_subset_on<B: SqlBackend>(
    backend: B,
    groups: &sieve_core::GroupDirectory,
    policies: &[Policy],
    enforcement: Enforcement,
    qm: &QueryMetadata,
    env: &EnvConfig,
) -> Option<f64> {
    let sieve = SieveService::with_backend(
        backend,
        SieveOptions {
            timeout: Some(env.timeout),
            ..Default::default()
        },
    )
    .ok()?;
    sieve.with_groups_mut(|g| *g = groups.clone());
    sieve.add_policies(policies.iter().cloned()).ok()?;
    let q = SelectQuery::star_from(WIFI_TABLE);
    let t = time_enforcement(&sieve, enforcement, &q, qm, 2);
    t.sim_kcost
}

fn run_subset(
    base_db: &Database,
    groups: &sieve_core::GroupDirectory,
    profile: DbProfile,
    policies: &[Policy],
    enforcement: Enforcement,
    qm: &QueryMetadata,
    env: &EnvConfig,
) -> Option<f64> {
    let mut db = base_db.clone();
    db.set_profile(profile);
    run_subset_on(db, groups, policies, enforcement, qm, env)
}

/// `SIEVE(P)` through the wire-SQL backend (render → parse → execute).
fn run_subset_wire(
    base_db: &Database,
    groups: &sieve_core::GroupDirectory,
    policies: &[Policy],
    qm: &QueryMetadata,
    env: &EnvConfig,
) -> Option<f64> {
    let mut db = base_db.clone();
    db.set_profile(DbProfile::PostgresLike);
    run_subset_on(
        sieve_core::WireSqlBackend::new(db),
        groups,
        policies,
        Enforcement::Sieve,
        qm,
        env,
    )
}

fn main() {
    let env = EnvConfig::from_env();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== Experiment 4: SIEVE on MySQL-like vs PostgreSQL-like (Figure 5; scale={}) ===\n",
        env.scale
    );

    let campus = build_campus(DbProfile::MySqlLike, &env);
    let purpose = "Analytics";
    // The paper picks 5 queriers with ≥300 policies; at small scales fall
    // back to whatever floor keeps ≥3 queriers.
    let mut floor = 300usize;
    let queriers = loop {
        let qs = queriers_with_policies(&campus, purpose, floor);
        if qs.len() >= 3 || floor <= 50 {
            break qs.into_iter().take(5).collect::<Vec<_>>();
        }
        floor -= 50;
    };
    let max_available = queriers.iter().map(|(_, c)| *c).min().unwrap_or(0);
    let _ = writeln!(
        out,
        "queriers: {:?} (policy floor {floor}, min available {max_available})",
        queriers.iter().map(|(q, c)| format!("{q}({c})")).collect::<Vec<_>>()
    );

    // Cumulative sizes: 10 steps from 75 (paper) scaled to what exists.
    let step = (max_available / 10).max(10);
    let sizes: Vec<usize> = (1..=10)
        .map(|i| (i * step).min(max_available))
        .filter(|&s| s >= 10)
        .collect();

    let strategies: [(&str, DbProfile, Enforcement); 4] = [
        ("BaselineI(M)", DbProfile::MySqlLike, Enforcement::Baseline(Baseline::I)),
        ("BaselineP(P)", DbProfile::PostgresLike, Enforcement::Baseline(Baseline::P)),
        ("SIEVE(M)", DbProfile::MySqlLike, Enforcement::Sieve),
        ("SIEVE(P)", DbProfile::PostgresLike, Enforcement::Sieve),
    ];

    // Snapshot engine + groups out of the middleware so the per-subset
    // runs below work from plain owned state.
    let base_db = campus.sieve.db().clone();
    let base_db = &base_db;
    let groups = campus.sieve.groups().clone();
    let mut rows_out = Vec::new();
    for &size in &sizes {
        let mut cells: Vec<Vec<f64>> = vec![Vec::new(); strategies.len()];
        let mut wire_cells: Vec<f64> = Vec::new();
        for (querier, _) in &queriers {
            let qm = QueryMetadata::new(*querier, purpose);
            let relevant: Vec<&Policy> = relevant_policies(
                campus.policies.iter(),
                WIFI_TABLE,
                &qm,
                &groups,
            );
            // Three random samples per size, as in the paper.
            for sample in 0..3u64 {
                let mut rng = StdRng::seed_from_u64(97 * querier.unsigned_abs() + sample);
                let mut pool: Vec<Policy> =
                    relevant.iter().map(|p| (*p).clone()).collect();
                for i in 0..size.min(pool.len()) {
                    let j = rng.gen_range(i..pool.len());
                    pool.swap(i, j);
                }
                let subset = &pool[..size.min(pool.len())];
                for (si, (_, profile, enforcement)) in strategies.iter().enumerate() {
                    if let Some(v) = run_subset(
                        base_db,
                        &groups,
                        *profile,
                        subset,
                        *enforcement,
                        &qm,
                        &env,
                    ) {
                        cells[si].push(v);
                    }
                }
                if let Some(v) =
                    run_subset_wire(base_db, &groups, subset, &qm, &env)
                {
                    wire_cells.push(v);
                }
            }
        }
        let mut row = vec![size.to_string()];
        for c in &cells {
            row.push(ms(mean(c)));
        }
        row.push(ms(mean(&wire_cells)));
        // Speedup of SIEVE(P) over BaselineP(P).
        let speedup = match (mean(&cells[1]), mean(&cells[3])) {
            (Some(b), Some(s)) if s > 0.0 => format!("{:.1}x", b / s),
            _ => "-".into(),
        };
        row.push(speedup);
        rows_out.push(row);
    }

    let _ = writeln!(
        out,
        "{}",
        render(
            &[
                "policies",
                "BaselineI(M)",
                "BaselineP(P)",
                "SIEVE(M)",
                "SIEVE(P)",
                "SIEVE(P,wire)",
                "PG speedup"
            ],
            &rows_out
        )
    );
    let _ = writeln!(
        out,
        "(simulated kilocost of SELECT *; PG speedup = BaselineP(P) / SIEVE(P);\n\
         paper: speedup grows with policies thanks to bitmap OR of guard scans;\n\
         SIEVE(P,wire) runs the same rewrite through the wire-SQL backend —\n\
         render → parse → execute — and must match SIEVE(P)'s simulated cost)"
    );
    emit("exp4_postgres", &out);
}
