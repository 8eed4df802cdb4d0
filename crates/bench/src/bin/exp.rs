//! `exp <figure>… | all [--quick]` — the one driver that regenerates the
//! paper's evaluation (Section 7) and records what this tree makes of it.
//!
//! Each figure is a plain function over [`sieve_bench::harness`] that
//! returns one [`Record`], written to `results/EXP_<figure>.json`:
//!
//! * `guard_gen` — Figure 2 (generation time against policy count), Table 6
//!   (guards, partitions, savings), Table 7 (cost by |G| × ρ(G));
//! * `inline_delta` — Figure 3: one fixed guard whose partition grows,
//!   inlined against routed through ∆ (paper: ∆ wins from ≈ 120);
//! * `index_choice` — Figure 4: IndexQuery against IndexGuards as the
//!   query predicate widens (paper: IndexGuards wins from ≈ 0.07);
//! * `query_perf` — Tables 8–11: Q1/Q2/Q3 × low/mid/high under baselines
//!   P, I, U and SIEVE, overall and by querier profile;
//! * `postgres` — Figure 5: growing policy subsets on both optimizer
//!   profiles, `SIEVE(P)` also through the wire-SQL backend;
//! * `mall` — Figure 6: the Mall corpus on the PostgreSQL-like profile
//!   (paper: speedup 1.6× at 100 policies → 5.6× at 1,200);
//! * `ablation` — this reproduction's own: guard selection, pushdown,
//!   inline/∆ and Theorem 1's merging, one choice at a time.
//!
//! Table rows are series; wall-clock numbers are timings with quartiles,
//! context only. Every *shape* the paper claims is a named boolean
//! computed from simulated cost or counters: one that holds at `--quick`
//! and at default scale is a [`Record::gate`] (fatal under `--quick`, the
//! CI step); one that does not is recorded `false` under `shape.*`, so the
//! gap between this cost model and the paper is a committed fact (ROADMAP
//! "Hold the cost model to the clock"). `SIEVE_SCALE` / `SIEVE_DAYS` /
//! `SIEVE_TIMEOUT_MS` size a full run.

use minidb::expr::{ColumnRef, Expr};
use minidb::{Database, DbProfile, Row, SelectQuery, Value as DbValue};
use sieve_bench::harness::{
    asked_for, build_campus, fresh_service_kcost, pick_queriers, policy_subset, queriers_with_policies,
    sweep_sizes, synthetic_wifi, time_enforcement, Campus, EnvConfig, Fields, Record, Run, Stat, Value,
};
use sieve_bench::table::{mean, std_dev};
use sieve_core::baselines::Baseline;
use sieve_core::cost::AccessStrategy;
use sieve_core::delta::DeltaRegistry;
use sieve_core::filter::relevant_policies;
use sieve_core::guard::{generate_guarded_expression, Guard, GuardSelectionStrategy, GuardedExpression};
use sieve_core::policy::{CondPredicate, ObjectCondition, Policy, PolicyId, QuerierSpec, QueryMetadata};
use sieve_core::rewrite::{compile_relations, rewrite_query, DeltaMode, RewriteOptions};
use sieve_core::semantics::{eval_condition, eval_policies};
use sieve_core::backend::DynBackend;
use sieve_core::{CostModel, Enforcement, SieveOptions, SieveService, WireSqlBackend};
use sieve_workload::mall::{generate as generate_mall, MallConfig, MallDataset};
use sieve_workload::query_gen::generate_query;
use sieve_workload::{QueryClass, Selectivity, UserProfile, MALL_TABLE, WIFI_TABLE};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

const PURPOSE: &str = "Analytics";
/// The synthetic relation of Figures 3 and 4, and the querier its policies name.
const SYNTHETIC: &str = "wifi_dataset";
const SYNTHETIC_QUERIER: i64 = 9_999;
const MECHS: [(&str, Enforcement); 4] = [
    ("BaselineP", Enforcement::Baseline(Baseline::P)),
    ("BaselineI", Enforcement::Baseline(Baseline::I)),
    ("BaselineU", Enforcement::Baseline(Baseline::U)),
    ("SIEVE", Enforcement::Sieve),
];
const PROFILES: [UserProfile; 4] =
    [UserProfile::Faculty, UserProfile::Grad, UserProfile::Undergrad, UserProfile::Staff];

type Figure = fn(&EnvConfig) -> Record;
const FIGURES: [(&str, Figure); 7] = [
    ("guard_gen", guard_gen),
    ("inline_delta", inline_delta),
    ("index_choice", index_choice),
    ("query_perf", query_perf),
    ("postgres", postgres),
    ("mall", mall),
    ("ablation", ablation),
];

fn main() {
    let env = EnvConfig::from_env();
    for figure in asked_for("exp", "figure", &FIGURES) {
        figure(&env).emit("EXP");
    }
}

/// Mean simulated kilocost of a cell; NaN (JSON `null`) is the paper's
/// `TO` — every run of the cell failed or timed out.
fn avg(xs: &[f64]) -> f64 {
    mean(xs).unwrap_or(f64::NAN)
}

/// One named cell of a series row.
fn cell(name: &str, value: impl Into<Value>) -> (String, Value) {
    (name.to_string(), value.into())
}

/// The shape of Figures 5 and 6: the speedup over BaselineP exceeds 1 and
/// grows with the policy count.
fn speedup_gt_1_and_grows(speedups: &[f64]) -> bool {
    !speedups.is_empty() && speedups.iter().all(|s| *s > 1.0) && speedups.windows(2).all(|w| w[1] >= w[0])
}

fn guard_gen(env: &EnvConfig) -> Record {
    let campus = build_campus(DbProfile::MySqlLike, env, SieveOptions::default());
    let mut rec = Record::new("guard_gen", env);
    // A copy: a read guard held across Table 7 would deadlock the cold
    // builds there, which write the guard relations.
    let db = campus.sieve.db().clone();
    let entry = db.table(WIFI_TABLE).expect("wifi table");
    let (schema, table_rows) = (entry.schema(), entry.table.len() as f64);
    let cost = CostModel::default();
    let generate = |policies: &[&Policy], querier: i64| {
        let selection = GuardSelectionStrategy::CostOptimal;
        generate_guarded_expression(policies, entry, &cost, selection, querier, PURPOSE, WIFI_TABLE)
    };
    let sample_every = (entry.table.len() / 400).max(1);
    let sample: Vec<&Row> = entry.table.rows().iter().step_by(sample_every).collect();

    struct PerQuerier<'a> {
        querier: i64,
        relevant: Vec<&'a Policy>,
        ge: GuardedExpression,
        savings: f64,
    }
    let mut per_querier = Vec::new();
    for device in campus.dataset.devices.iter().filter(|d| d.profile != UserProfile::Visitor) {
        let relevant = campus.relevant(&QueryMetadata::new(device.id, PURPOSE));
        if relevant.is_empty() {
            continue;
        }
        let ge = generate(&relevant, device.id);
        // Savings: policy evaluations without guards against with, on a row
        // sample. Unguarded, every row is checked against the whole
        // relevant list (short-circuit); guarded, only rows passing some
        // guard are checked, against that guard's partition only.
        let (mut plain, mut guarded) = (0usize, 0usize);
        for row in &sample {
            plain += eval_policies(&relevant, schema, row, None).policies_checked;
            for g in ge.guards.iter().filter(|g| eval_condition(&g.condition, schema, row, None)) {
                let of_guard = |id: &PolicyId| relevant.iter().find(|p| p.id == *id).copied();
                let partition: Vec<&Policy> = g.policies.iter().filter_map(of_guard).collect();
                guarded += eval_policies(&partition, schema, row, None).policies_checked;
            }
        }
        let savings = if plain > 0 { 1.0 - guarded as f64 / plain as f64 } else { 0.0 };
        per_querier.push(PerQuerier { querier: device.id, relevant, ge, savings });
    }
    per_querier.sort_by_key(|p| p.relevant.len());
    rec.put("table_rows", entry.table.len());
    rec.put("queriers", per_querier.len());

    // Figure 2. The x-axis sweeps the policy-set size by taking prefixes
    // of the eight largest relevant sets (the paper's spread comes from
    // queriers naturally having 31..359 policies; prefixes give the same
    // curve deterministically). Wall time: context, not a shape.
    let top: Vec<&PerQuerier> = per_querier.iter().rev().take(8).collect();
    let max_policies = top.first().map_or(0, |p| p.relevant.len());
    let step = (max_policies / 10).max(1);
    let mut figure2 = Vec::new();
    for size in (1..).map(|i| i * step).take_while(|&size| size <= max_policies) {
        let gen_ms = top.iter().filter(|p| p.relevant.len() >= size).map(|p| {
            let start = Instant::now();
            black_box(generate(&p.relevant[..size], p.querier));
            start.elapsed().as_secs_f64() * 1e3
        });
        let gen_ms: Vec<f64> = gen_ms.collect();
        let queriers = cell("queriers", gen_ms.len());
        figure2.push(vec![cell("policies", size), queriers, cell("gen_ms", Stat::of(gen_ms))]);
    }
    rec.gate("figure2.buckets_ge_3", figure2.len() >= 3, format!("{} policy-count buckets", figure2.len()));
    rec.put("figure2", figure2);

    // Table 6.
    let spread = |metric: &str, xs: Vec<f64>| {
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let (mean, sd) = (cell("avg", avg(&xs)), cell("sd", std_dev(&xs)));
        vec![cell("metric", metric), cell("min", min), mean, cell("max", max), sd]
    };
    let per_guard = |f: &dyn Fn(&Guard) -> f64| -> Vec<f64> {
        per_querier.iter().flat_map(|p| p.ge.guards.iter().map(f)).collect()
    };
    let guards: Vec<f64> = per_querier.iter().map(|p| p.ge.guards.len() as f64).collect();
    let savings: Vec<f64> = per_querier.iter().map(|p| p.savings).collect();
    let mean_savings = avg(&savings);
    rec.gate("table6.mean_savings_ge_0.9", mean_savings >= 0.9, format!("{mean_savings:.3} (paper: 0.99)"));
    let wider = per_querier.iter().filter(|p| p.ge.guards.len() > p.relevant.len()).count();
    rec.gate("table6.guards_le_policies", wider == 0, format!("{wider} queriers with |G| > |p_uk|"));
    let table6 = vec![
        spread("|p_uk| policies per querier", per_querier.iter().map(|p| p.relevant.len() as f64).collect()),
        spread("|G| guards", guards.clone()),
        spread("|p_Gi| partition size", per_guard(&|g| g.partition_size() as f64)),
        spread("rho(Gi) guard cardinality, % of table", per_guard(&|g| 100.0 * g.est_rows / table_rows)),
        spread("savings", savings),
    ];
    rec.put("table6", table6);

    // Table 7: simulated kilocost of SELECT * under SIEVE, queriers split
    // at the medians of |G| and of Σρ(G); 12 queriers per bucket keeps the
    // runtime sane.
    let upper_median = |mut xs: Vec<f64>| {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    let rho = |p: &PerQuerier| p.ge.total_guard_rows() / table_rows;
    let (g_med, rho_med) = (upper_median(guards), upper_median(per_querier.iter().map(rho).collect()));
    let mut cells: [[Vec<f64>; 2]; 2] = Default::default();
    let q = SelectQuery::star_from(WIFI_TABLE);
    for p in &per_querier {
        let bucket = &mut cells[usize::from(p.ge.guards.len() as f64 > g_med)][usize::from(rho(p) > rho_med)];
        if bucket.len() < 12 {
            let qm = QueryMetadata::new(p.querier, PURPOSE);
            let run = time_enforcement(&campus.sieve, Enforcement::Sieve, &q, &qm, 2);
            bucket.extend(run.map(|run| run.kcost));
        }
    }
    let row = |name: &str, c: &[Vec<f64>; 2]| {
        vec![cell("guards", name), cell("rho_low_kcost", avg(&c[0])), cell("rho_high_kcost", avg(&c[1]))]
    };
    rec.put("table7", vec![row("|G| low", &cells[0]), row("|G| high", &cells[1])]);
    rec
}

/// `n` policies sharing the guarded `wifi_ap = 1200` condition, spread
/// over `owners` owners with varying time windows.
fn partition_policies(n: usize, owners: i64) -> Vec<Policy> {
    let window = |i: usize| {
        let start = ((i % 12) as u32) * 2 * 3600;
        CondPredicate::between(DbValue::Time(start), DbValue::Time((start + 2 * 3600).min(86_399)))
    };
    (0..n)
        .map(|i| {
            let conditions = vec![
                ObjectCondition::new("wifi_ap", CondPredicate::Eq(DbValue::Int(1200))),
                ObjectCondition::new("ts_time", window(i)),
            ];
            let querier = QuerierSpec::User(SYNTHETIC_QUERIER);
            let mut p = Policy::new((i as i64) % owners, SYNTHETIC, querier, PURPOSE, conditions);
            p.id = i as PolicyId + 1;
            p
        })
        .collect()
}

/// `SELECT *` through a hand-built single-guard expression (`wifi_ap =
/// 1200` over all of `policies`), three warm runs. Constructing the guard
/// directly — not letting Algorithm 1 choose — isolates the inline-or-∆
/// decision Figure 3 studies.
fn single_guard_run(db: &Database, policies: &[Policy], mode: DeltaMode, cost: &CostModel) -> Run {
    let at_ap = DbValue::Int(1200);
    let histogram = db.table(SYNTHETIC).expect("synthetic table").histogram("wifi_ap");
    let guard = Guard {
        est_rows: histogram.map_or(0.0, |h| h.estimate_eq(&at_ap)),
        condition: ObjectCondition::new("wifi_ap", CondPredicate::Eq(at_ap)),
        policies: policies.iter().map(|p| p.id).collect(),
    };
    let ge = GuardedExpression {
        relation: SYNTHETIC.into(),
        querier: SYNTHETIC_QUERIER,
        purpose: PURPOSE.into(),
        guards: vec![guard],
    };
    let guarded = HashMap::from([(SYNTHETIC.to_string(), ge)]);
    let by_id: HashMap<PolicyId, &Policy> = policies.iter().map(|p| (p.id, p)).collect();
    let delta = DeltaRegistry::new();
    let compiled = compile_relations(db, &delta, &guarded, &by_id, cost, mode).expect("guard compiles");
    let opts = RewriteOptions { delta_mode: mode, ..Default::default() };
    let query = SelectQuery::star_from(SYNTHETIC);
    let rewritten = rewrite_query(db, &query, &compiled, cost, &opts).expect("query rewrites").query;
    // The ∆ partitions live in `delta`, which must back the installed UDF:
    // run on a copy with this registry installed.
    let mut db = db.clone();
    delta.install(&mut db);
    let run = || {
        let (res, stats) = db.run_timed(&rewritten, &Default::default());
        res.map(|_| stats).expect("query runs")
    };
    run(); // warm-up
    Run::of(&[run(), run(), run()])
}

fn inline_delta(env: &EnvConfig) -> Record {
    let mut rec = Record::new("inline_delta", env);
    let rows = (40_000.0 * (env.scale / 0.05).max(0.1)) as i64;
    rec.put("table_rows", rows as usize);
    let cost = CostModel::default();
    let (mut figure3, mut measured, mut model) = (Vec::new(), None, 0usize);
    for n in [10usize, 20, 40, 60, 80, 100, 120, 140, 160, 200, 240, 320, 400] {
        let owners = (n as i64 / 2).max(4);
        let policies = partition_policies(n, owners);
        // Half the rows at the guarded access point.
        let db = synthetic_wifi(rows, |i| (i % owners, 1200 + 100 * (i % 2), ((i * 131) % 86_400) as u32));
        let inline = single_guard_run(&db, &policies, DeltaMode::Never, &cost);
        let delta = single_guard_run(&db, &policies, DeltaMode::Always, &cost);
        if measured.is_none() && delta.kcost < inline.kcost {
            measured = Some(n);
        }
        // What the cost model itself would decide at this size.
        if !cost.prefer_delta(n, owners as usize) {
            model = n;
        }
        figure3.push(vec![
            cell("policies", n),
            cell("inline_kcost", inline.kcost),
            cell("delta_kcost", delta.kcost),
            cell("inline_ms", inline.wall_ms),
            cell("delta_ms", delta.wall_ms),
        ]);
    }
    rec.put("figure3", figure3);
    rec.put("model_crossover_policies", model);
    let detail = format!("cost model prefers inlining up to {model} policies (paper: ≈ 120 on MySQL)");
    rec.gate("model_crossover_within_100_140", (100..=140).contains(&model), detail);
    rec.put("measured_crossover_policies", measured.map_or(f64::NAN, |n| n as f64));
    rec.put("shape.measured_inline_delta_crossover_exists", measured.is_some());
    rec
}

fn index_choice(env: &EnvConfig) -> Record {
    let mut rec = Record::new("index_choice", env);
    let rows = (60_000.0 * (env.scale / 0.05).max(0.1)) as i64;
    rec.put("table_rows", rows as usize);
    let base = synthetic_wifi(rows, |i| (i % 500, 1000 + i % 64, ((i * 173) % 86_400) as u32));
    let qm = QueryMetadata::new(SYNTHETIC_QUERIER, PURPOSE);
    // Guard classes: policies of `owners` owners at `aps` access points
    // each, covering ≈ owners/500 of the table — 2.4 % / 6 % / 12 %, the
    // low / medium / high guard cardinalities of Figure 4.
    let classes: [(i64, i64); 3] = [(12, 2), (30, 3), (60, 4)];
    let service = |(owners, aps): (i64, i64), forced: Option<AccessStrategy>| {
        let rewrite = RewriteOptions { forced_strategy: forced, ..Default::default() };
        let options = SieveOptions { timeout: Some(env.timeout), rewrite, ..Default::default() };
        let sieve = SieveService::new(base.clone(), options).expect("sieve init");
        let policy = |owner, ap| {
            let at_ap = ObjectCondition::new("wifi_ap", CondPredicate::Eq(DbValue::Int(1000 + ap)));
            Policy::new(owner, SYNTHETIC, QuerierSpec::User(SYNTHETIC_QUERIER), PURPOSE, vec![at_ap])
        };
        let corpus = (0..owners).flat_map(|owner| (0..aps).map(move |ap| policy(owner, ap)));
        sieve.add_policies(corpus).expect("register policies");
        sieve
    };
    // The query predicate's cardinality: a `ts_time` window this fraction
    // of a day wide. Costs are averaged over the three guard classes.
    let (mut figure4, mut iq_curve, mut crossover) = (Vec::new(), Vec::new(), None);
    for frac in [0.01, 0.03, 0.05, 0.07, 0.10, 0.20, 0.40] {
        let window = Expr::Between {
            expr: Box::new(Expr::Column(ColumnRef::bare("ts_time"))),
            low: Box::new(Expr::Literal(DbValue::Time(8 * 3600))),
            high: Box::new(Expr::Literal(DbValue::Time(8 * 3600 + (86_400.0 * frac) as u32))),
            negated: false,
        };
        let query = SelectQuery::star_from(SYNTHETIC).filter(window);
        let forced = |strategy| {
            let kcost = |class| {
                let sieve = service(class, Some(strategy));
                Some(time_enforcement(&sieve, Enforcement::Sieve, &query, &qm, 2)?.kcost)
            };
            avg(&classes.into_iter().filter_map(kcost).collect::<Vec<f64>>())
        };
        let (iq, ig) = (forced(AccessStrategy::IndexQuery), forced(AccessStrategy::IndexGuards));
        let auto = service(classes[2], None).rewrite(&query, &qm).map(|r| r.relations[0].strategy);
        if crossover.is_none() && ig < iq {
            crossover = Some(frac);
        }
        iq_curve.push(iq);
        figure4.push(vec![
            cell("query_frac", frac),
            cell("index_query_kcost", iq),
            cell("index_guards_kcost", ig),
            cell("auto_high", format!("{:?}", auto.unwrap_or(AccessStrategy::LinearScan))),
        ]);
    }
    rec.put("figure4", figure4);
    let rising = iq_curve.windows(2).all(|w| w[1] >= w[0]);
    rec.gate("index_query_kcost_nondecreasing", rising, format!("by query fraction: {iq_curve:.1?}"));
    rec.put("crossover_query_frac", crossover.unwrap_or(f64::NAN));
    rec.put("shape.index_guards_crossover_exists", crossover.is_some());
    rec
}

fn query_perf(env: &EnvConfig) -> Record {
    const QUERIERS_PER_PROFILE: usize = 2;
    let campus = build_campus(DbProfile::MySqlLike, env, SieveOptions::default());
    let mut rec = Record::new("query_perf", env);
    rec.put("queriers_per_profile", QUERIERS_PER_PROFILE);

    // (profile, class, selectivity, mechanism, run) per querier; no run =
    // a timeout.
    type Sample = (UserProfile, QueryClass, usize, usize, Option<Run>);
    let mut samples: Vec<Sample> = Vec::new();
    for profile in PROFILES {
        for querier in pick_queriers(&campus, profile, PURPOSE, QUERIERS_PER_PROFILE) {
            let qm = QueryMetadata::new(querier, PURPOSE);
            for class in QueryClass::ALL {
                for (si, sel) in Selectivity::ALL.into_iter().enumerate() {
                    let query = generate_query(&campus.dataset, class, sel, 31 * querier as u64 + si as u64);
                    for (mi, (_, mech)) in MECHS.into_iter().enumerate() {
                        let run = time_enforcement(&campus.sieve, mech, &query, &qm, 2);
                        samples.push((profile, class, si, mi, run));
                    }
                }
            }
        }
    }
    // A table cell: the runs of one (class, selectivity, mechanism) over
    // one profile or all four → mean kcost (NaN when all timed out), wall
    // medians, timeouts.
    let measured = |class: QueryClass, si: usize, mi: usize, profile: Option<UserProfile>| {
        let in_cell = |s: &&Sample| (s.1, s.2, s.3) == (class, si, mi) && profile.is_none_or(|p| p == s.0);
        let runs: Vec<Option<Run>> = samples.iter().filter(in_cell).map(|s| s.4).collect();
        let kcosts: Vec<f64> = runs.iter().flatten().map(|r| r.kcost).collect();
        let walls = Stat::of(runs.iter().flatten().map(|r| r.wall_ms.median).collect());
        (avg(&kcosts), walls, runs.len() - kcosts.len())
    };
    let row = |class: QueryClass, si: usize, profile: Option<UserProfile>, wall: bool| {
        let who = profile.map_or(class.name(), UserProfile::label);
        let mut row = vec![cell("query", format!("{who} {}", Selectivity::ALL[si].name()))];
        let mut timeouts = 0;
        for (mi, (name, _)) in MECHS.into_iter().enumerate() {
            let (kcost, walls, timed_out) = measured(class, si, mi, profile);
            row.push(if wall { cell(name, walls) } else { cell(name, kcost) });
            timeouts += timed_out;
        }
        row.push(cell("timeouts", timeouts));
        row
    };
    let overall = |wall: bool| -> Vec<Fields> {
        let grid = QueryClass::ALL.into_iter().flat_map(|class| (0..3).map(move |si| (class, si)));
        grid.map(|(class, si)| row(class, si, None, wall)).collect()
    };
    rec.put("table8", overall(false));
    rec.put("table8_wall_ms", overall(true));
    for (class, table) in QueryClass::ALL.into_iter().zip(["table9", "table10", "table11"]) {
        let grid = PROFILES.into_iter().flat_map(|p| (0..3).map(move |si| (p, si)));
        rec.put(table, grid.map(|(p, si)| row(class, si, Some(p), false)).collect::<Vec<Fields>>());
    }

    // Shapes, over Table 8: SIEVE against each baseline on the cells the
    // paper's argument rests on (P degrades with query cardinality, I pays
    // a probe per policy, U an invocation per tuple).
    let kcost = |class, si, mi| measured(class, si, mi, None).0;
    let sieve_le = |mi: usize, classes: &[QueryClass], sels: &[usize]| {
        let cells = classes.iter().flat_map(|c| sels.iter().map(move |si| (*c, *si)));
        // A timed-out cell (NaN) compares with nothing: lost.
        let lost: Vec<String> = cells
            .filter(|&(c, si)| kcost(c, si, 3).partial_cmp(&kcost(c, si, mi)).is_none_or(|o| o.is_gt()))
            .map(|(c, si)| format!("{} {}", c.name(), Selectivity::ALL[si].name()))
            .collect();
        (lost.is_empty(), format!("SIEVE kcost above {}'s on: {lost:?}", MECHS[mi].0))
    };
    let q1q2 = [QueryClass::Q1, QueryClass::Q2];
    let (pass, detail) = sieve_le(1, &q1q2, &[0, 1]);
    rec.gate("sieve_le_baseline_i.q1_q2_low_mid", pass, detail);
    let (pass, detail) = sieve_le(2, &q1q2, &[1, 2]);
    rec.gate("sieve_le_baseline_u.q1_q2_mid_high", pass, detail);
    rec.put("shape.sieve_le_baseline_p.q1_q2", sieve_le(0, &q1q2, &[0, 1, 2]).0);
    rec.put("shape.sieve_le_baseline_p.q3", sieve_le(0, &[QueryClass::Q3], &[0, 1, 2]).0);
    rec
}

fn postgres(env: &EnvConfig) -> Record {
    let campus = build_campus(DbProfile::MySqlLike, env, SieveOptions::default());
    let mut rec = Record::new("postgres", env);
    // The paper picks 5 queriers with ≥ 300 policies; here, the five with
    // the most, whatever the scale leaves them.
    let mut queriers = queriers_with_policies(&campus, PURPOSE, 1);
    queriers.truncate(5);
    let max_available = queriers.iter().map(|(_, n)| *n).min().unwrap_or(0);
    let listed = queriers.iter().map(|&(q, n)| vec![cell("querier", q as usize), cell("policies", n)]);
    rec.put("queriers", listed.collect::<Vec<Fields>>());

    // (column, optimizer profile, through the wire-SQL backend, mechanism).
    // The last column is SIEVE(P) again through render → parse → execute,
    // the dispatch path of a real PostgreSQL deployment.
    let strategies: [(&str, DbProfile, bool, Enforcement); 5] = [
        ("BaselineI(M)", DbProfile::MySqlLike, false, Enforcement::Baseline(Baseline::I)),
        ("BaselineP(P)", DbProfile::PostgresLike, false, Enforcement::Baseline(Baseline::P)),
        ("SIEVE(M)", DbProfile::MySqlLike, false, Enforcement::Sieve),
        ("SIEVE(P)", DbProfile::PostgresLike, false, Enforcement::Sieve),
        ("SIEVE(P,wire)", DbProfile::PostgresLike, true, Enforcement::Sieve),
    ];
    // Engine and groups out of the middleware: every cell below is a fresh
    // service over its own copy.
    let groups = campus.sieve.store().groups().clone();
    let backend = |profile, wire| -> DynBackend {
        let mut db = campus.sieve.db().clone();
        db.set_profile(profile);
        if wire { Box::new(WireSqlBackend::new(db)) } else { Box::new(db) }
    };
    let query = SelectQuery::star_from(WIFI_TABLE);
    let (mut figure5, mut speedups, mut wire_differs) = (Vec::new(), Vec::new(), 0usize);
    for size in sweep_sizes(max_available, env.pick(4, 10), env) {
        let mut cells: [Vec<f64>; 5] = Default::default();
        for &(querier, _) in &queriers {
            let qm = QueryMetadata::new(querier, PURPOSE);
            let relevant = campus.relevant(&qm);
            // Three random samples per size, as in the paper; one seed per
            // sample, so a querier's sets grow cumulatively.
            for sample in 0..3u64 {
                let subset = policy_subset(&relevant, size, 97 * querier.unsigned_abs() + sample);
                for (cell, (_, profile, wire, mech)) in cells.iter_mut().zip(strategies) {
                    let backend = backend(profile, wire);
                    cell.extend(fresh_service_kcost(backend, &groups, &subset, mech, &query, &qm, env));
                }
            }
        }
        wire_differs += usize::from(cells[4] != cells[3]);
        let speedup = avg(&cells[1]) / avg(&cells[3]);
        if !cells.iter().any(Vec::is_empty) {
            speedups.push(speedup);
        }
        let mut row = vec![cell("policies", size)];
        row.extend(strategies.iter().zip(&cells).map(|(s, kcosts)| cell(s.0, avg(kcosts))));
        row.extend([cell("pg_speedup", speedup), cell("samples", cells[3].len())]);
        figure5.push(row);
    }
    rec.put("figure5", figure5);
    let detail = format!("{} sizes × {} queriers under every mechanism", speedups.len(), queriers.len());
    rec.gate("measured_sizes_ge_3", speedups.len() >= 3 && !queriers.is_empty(), detail);
    let detail = format!("SIEVE(P,wire) kcost differs from SIEVE(P) in some sample at {wire_differs} sizes");
    rec.gate("wire_kcost_equals_in_process", wire_differs == 0, detail);
    rec.put("shape.pg_speedup_gt_1_and_grows", speedup_gt_1_and_grows(&speedups));
    rec
}

fn mall(env: &EnvConfig) -> Record {
    // 1.0 ≈ the paper's 2,651 customers / ~19K policies (~550 per shop);
    // 0.4 keeps a full run under a minute.
    let mall_scale = env.pick(0.04, 0.4);
    let mut rec = Record::new("mall", env);
    let mut db = Database::new(DbProfile::PostgresLike);
    let config = MallConfig { seed: 11, scale: mall_scale, shops: 35, days: 60 };
    let ds = generate_mall(&mut db, &config).expect("mall generation");
    rec.put("mall_scale", mall_scale);
    rec.put("customers", ds.customers.len());
    rec.put("events", ds.events);
    rec.put("policies", ds.policies.len());

    // Shop queriers ranked by relevant-policy count, each under the
    // purpose its grants use most.
    let relevant = |shop: i64, purpose: &str| {
        let qm = QueryMetadata::new(MallDataset::shop_querier(shop), purpose);
        relevant_policies(ds.policies.iter(), MALL_TABLE, &qm, &ds.groups)
    };
    let dominant = |shop: i64| {
        let purposes = ["Promotions", "Sales", "Lightning"].into_iter();
        purposes.map(|p| (relevant(shop, p).len(), p, shop)).max().expect("three purposes")
    };
    let mut shops: Vec<(usize, &str, i64)> = ds.shops.iter().map(|&s| dominant(s)).collect();
    shops.sort_by_key(|s| std::cmp::Reverse(s.0));
    shops.truncate(5);
    let max_available = shops.iter().map(|s| s.0).min().unwrap_or(0);
    let listed = shops.iter().map(|&(n, purpose, shop)| {
        vec![cell("shop", shop as usize), cell("purpose", purpose), cell("policies", n)]
    });
    rec.put("shops", listed.collect::<Vec<Fields>>());

    let query = SelectQuery::star_from(MALL_TABLE);
    let (mut figure6, mut speedups) = (Vec::new(), Vec::new());
    for size in sweep_sizes(max_available, env.pick(4, 12), env) {
        let (mut baseline, mut sieve) = (Vec::new(), Vec::new());
        for &(_, purpose, shop) in &shops {
            let qm = QueryMetadata::new(MallDataset::shop_querier(shop), purpose);
            let subset = policy_subset(&relevant(shop, purpose), size, 13 * shop as u64 + size as u64);
            let kcost = |mech| fresh_service_kcost(db.clone(), &ds.groups, &subset, mech, &query, &qm, env);
            baseline.extend(kcost(Enforcement::Baseline(Baseline::P)));
            sieve.extend(kcost(Enforcement::Sieve));
        }
        let speedup = avg(&baseline) / avg(&sieve);
        if !baseline.is_empty() && !sieve.is_empty() {
            speedups.push(speedup);
        }
        figure6.push(vec![
            cell("policies", size),
            cell("baseline_p_kcost", avg(&baseline)),
            cell("sieve_kcost", avg(&sieve)),
            cell("speedup", speedup),
        ]);
    }
    rec.put("figure6", figure6);
    let detail = format!("{} sizes × {} shops under both mechanisms", speedups.len(), shops.len());
    rec.gate("measured_sizes_ge_3", speedups.len() >= 3, detail);
    rec.put("shape.mall_speedup_gt_1_and_grows", speedup_gt_1_and_grows(&speedups));
    rec
}

fn ablation(env: &EnvConfig) -> Record {
    use GuardSelectionStrategy::{CostOptimal, OwnerOnly};
    let mut rec = Record::new("ablation", env);
    // (variant, guard selection, inline/∆, predicate pushdown off)
    let variants = [
        ("full SIEVE (Algorithm 1, auto-delta, pushdown)", CostOptimal, DeltaMode::Auto, false),
        ("owner-only guards", OwnerOnly, DeltaMode::Auto, false),
        ("no predicate pushdown", CostOptimal, DeltaMode::Auto, true),
        ("always inline (no delta)", CostOptimal, DeltaMode::Never, false),
        ("always delta", CostOptimal, DeltaMode::Always, false),
    ];
    let cells = [
        ("q1_low_kcost", QueryClass::Q1, Selectivity::Low),
        ("q1_high_kcost", QueryClass::Q1, Selectivity::High),
        ("q2_mid_kcost", QueryClass::Q2, Selectivity::Mid),
    ];
    // One campus per variant, its service built under the variant's
    // options; the first (full SIEVE) also picks the queriers and serves
    // the merge report below.
    let build = |(_, selection, delta_mode, no_pushdown): (&str, _, _, _)| {
        let rewrite = RewriteOptions { delta_mode, no_predicate_pushdown: no_pushdown, ..Default::default() };
        build_campus(DbProfile::MySqlLike, env, SieveOptions { selection, rewrite, ..Default::default() })
    };
    let campus = build(variants[0]);
    let queriers = pick_queriers(&campus, UserProfile::Faculty, PURPOSE, 2);
    let kcosts = |campus: &Campus| {
        cells.map(|(_, class, sel)| {
            let kcost = |&querier: &i64| {
                let q = generate_query(&campus.dataset, class, sel, 5 + querier as u64);
                let qm = QueryMetadata::new(querier, PURPOSE);
                Some(time_enforcement(&campus.sieve, Enforcement::Sieve, &q, &qm, 2)?.kcost)
            };
            avg(&queriers.iter().filter_map(kcost).collect::<Vec<f64>>())
        })
    };
    let mut table = vec![kcosts(&campus)];
    table.extend(variants[1..].iter().map(|&variant| kcosts(&build(variant))));
    let rows = variants.iter().zip(&table).map(|(variant, kcosts)| {
        let mut row = vec![cell("variant", variant.0)];
        row.extend(cells.iter().zip(kcosts).map(|(c, kcost)| cell(c.0, *kcost)));
        row
    });
    rec.put("ablation", rows.collect::<Vec<Fields>>());
    let (full, owner_only, always_delta) = (table[0], table[1], table[4]);
    let ge = |a: [f64; 3], b: [f64; 3]| a.iter().zip(b).all(|(a, b)| *a >= b);
    let detail = format!("always ∆ {always_delta:.1?} against full SIEVE {full:.1?}");
    rec.gate("always_delta_ge_full_sieve", ge(always_delta, full), detail);
    rec.put("shape.owner_only_worse_than_algorithm1", ge(owner_only, full) && owner_only != full);

    // Theorem 1's merging is structural (it changes the candidates), so it
    // is reported as guard counts and Σρ, for the most-covered faculty
    // querier. cr = 0 makes the merge threshold 1.0: no merge ever fires.
    let (querier, selection) = (queriers[0], CostOptimal);
    let relevant = campus.relevant(&QueryMetadata::new(querier, PURPOSE));
    let db = campus.sieve.db();
    let entry = db.table(WIFI_TABLE).expect("wifi table");
    rec.put("merge.policies", relevant.len());
    for (key, cr) in [("with", CostModel::default().cr), ("without", 0.0)] {
        let cost = CostModel { cr, ..Default::default() };
        let ge = generate_guarded_expression(&relevant, entry, &cost, selection, querier, PURPOSE, WIFI_TABLE);
        rec.put(&format!("merge.guards_{key}"), ge.guards.len());
        rec.put(&format!("merge.guard_rows_{key}"), ge.total_guard_rows());
    }
    rec
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A record's fields without its wall-clock timings and its git stamp,
    /// printed (an absent crossover is a NaN, which equals nothing).
    fn repeatable(fields: &Fields) -> String {
        let kept = fields.iter().filter(|(k, v)| k != "git_rev" && !matches!(v, Value::Timing(_)));
        let print = |(k, v): &(String, Value)| match v {
            Value::Series(rows) => format!("{k}: {:?}", rows.iter().map(repeatable).collect::<Vec<_>>()),
            v => format!("{k}: {v:?}"),
        };
        kept.map(print).collect::<Vec<_>>().join("\n")
    }

    /// The committed records must be diffable: a figure run twice at a tiny
    /// size differs in its timings only, and names every shape it checks.
    #[test]
    fn figure_records_carry_their_shapes_and_repeat_exactly() {
        let timeout = std::time::Duration::from_secs(10);
        let env = EnvConfig { scale: 0.002, days: 10, timeout, quick: true };
        let shape3 = "shape.measured_inline_delta_crossover_exists";
        let shape4 = "shape.index_guards_crossover_exists";
        let figures: [(Figure, [&str; 4]); 2] = [
            (inline_delta, ["figure3", "model_crossover_policies", "model_crossover_within_100_140", shape3]),
            (index_choice, ["figure4", "crossover_query_frac", "index_query_kcost_nondecreasing", shape4]),
        ];
        for (figure, keys) in figures {
            let (first, second) = (figure(&env), figure(&env));
            let json = first.json();
            for key in keys {
                assert!(json.contains(&format!("\"{key}\"")), "{key} missing from\n{json}");
            }
            let (first, second) = (repeatable(&first.all_fields()), repeatable(&second.all_fields()));
            assert_eq!(first, second, "simulated cost and counters must repeat");
        }
    }
}
