//! `bench <scenario>… | all [--quick]` — the one driver for what the
//! gated end-to-end benchmark cannot see.
//!
//! `benchmark/` owns the end-to-end clock: a request's latency over a
//! real socket, gated per PR, with `--trace 1` naming where it goes
//! (`rewrite.cold_us`, `guard.generate_us`, `backend.exec_us`, …). This
//! binary owns the per-mechanism costs of the paper's Section 7 that a
//! closed-loop client never isolates — each a scenario, a plain function
//! over [`sieve_bench::harness`]:
//!
//! * `hotpath` — the engine alone: filter-loop throughput, index union
//!   against the scan it replaces, what pinning a
//!   plan saves an execute (`engine.plan_us` / `run_pinned_us` /
//!   `execute_us`), what a statement pays for a guard bound once
//!   (`engine.rewrite_us` / `bind_fragment_us`), and one guarded statement
//!   with its partitions behind ∆ against inline (`delta.*`);
//! * `multiquerier` — cold preparation of ≥ 100 queriers, one by one;
//! * `concurrent` — one shared service under 1/2/4/8 threads, and readers
//!   beside a policy writer;
//! * `faults` — what the retry layer costs when nothing fails, and how
//!   long a dropped connection takes to heal;
//! * `analyze` — what `verify_rewrites` costs cold, and that it costs
//!   nothing warm.
//!
//! Each prints its table and writes `results/BENCH_<scenario>.json` from
//! one [`Record`] — stamped with the git revision, core count and dataset
//! configuration, every timing a median with its quartiles — and uses
//! `BENCHMARK.json`'s per-layer names wherever it times the same stage,
//! so the two read side by side.
//! `--quick` shrinks the dataset for a seconds-long CI smoke and makes
//! every recorded gate fatal; `SIEVE_SCALE` / `SIEVE_DAYS` are honoured
//! otherwise.

use minidb::exec::ExecOptions;
use minidb::expr::{bind, no_subqueries, ColumnRef, Expr, FilterProgram, Layout, SharedExpr};
use minidb::plan::{IndexHint, TableRef, TableSource};
use minidb::{AccessPlan, DbProfile, Row, SelectQuery, TableEntry, Value};
use sieve_bench::harness::{
    asked_for, block_us, build_campus, fields, measure, queriers_with_policies, rss_kib, Campus,
    EnvConfig, Record, Stat, OVERHEAD_GATE_PAIRS,
};
use sieve_core::policy::{ObjectCondition, Policy, QuerierSpec, QueryMetadata};
use sieve_core::rewrite::{DeltaMode, GuardFragment, RewriteOutput};
use sieve_core::{
    CondPredicate, Fault, FaultConfig, FaultInjectingBackend, Prepared, SieveOptions,
    SieveService, SqlBackend, WireSqlBackend,
};
use sieve_workload::traffic::{multi_querier_traffic, TrafficConfig};
use sieve_workload::{QueryClass, WIFI_TABLE};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const PURPOSE: &str = "Analytics";
type Scenario = fn(&EnvConfig) -> Record;
const SCENARIOS: [(&str, Scenario); 5] = [
    ("hotpath", hotpath),
    ("multiquerier", multiquerier),
    ("concurrent", concurrent),
    ("faults", faults),
    ("analyze", analyze),
];

fn main() {
    let env = EnvConfig::from_env();
    for scenario in asked_for("bench", "scenario", &SCENARIOS) {
        scenario(&env).emit("BENCH");
    }
}

/// One request per distinct querier, policy-heavy population first. The
/// statements cycle the nine Q1/Q2/Q3 × low/mid/high cells of the
/// SmartBench templates, so a pass over them mixes point lookups with
/// joins and aggregates of tens of milliseconds.
fn traffic(campus: &Campus, queriers: usize) -> Vec<(QueryMetadata, SelectQuery)> {
    let config = TrafficConfig { queriers, purpose: PURPOSE.into(), seed: 11 };
    multi_querier_traffic(&campus.dataset, &config)
}

/// The querier with the most relevant policies (the paper's heavy case)
/// and a selective query of `class` (query seed `seed`): execution is
/// sub-millisecond, so whatever a mechanism adds around it shows.
fn heavy_probe(campus: &Campus, class: QueryClass, seed: u64) -> (QueryMetadata, usize, SelectQuery) {
    let &(querier, policies) = queriers_with_policies(campus, PURPOSE, 1)
        .first()
        .expect("campus must contain a covered querier");
    let low = sieve_workload::Selectivity::Low;
    let q = sieve_workload::query_gen::generate_query(&campus.dataset, class, low, seed);
    (QueryMetadata::new(querier, PURPOSE), policies, q)
}

/// The engine alone, no middleware: (1) filter-loop throughput — a forced
/// sequential scan under a policy-shaped 8-owner OR through the batched,
/// non-cloning evaluator; (2) the same predicate through per-disjunct
/// index probes against that scan. Every pass is one `backend.exec_us`
/// sample. (3) The pinned plan,
/// on the statement the gated benchmark's `point_warm` replays — the
/// heaviest querier's Q2-low rewrite: rewriting it warm
/// (`engine.rewrite_us`), planning it over the fragment's bound guard
/// (`engine.plan_us`) against binding that guard in the first place
/// (`engine.bind_fragment_us` — what the first plan of a fragment pays,
/// and every plan paid before the guard was a shared node), running the
/// plan kept (`engine.run_pinned_us` — a `Prepared`'s warm execute) and
/// executing it one-shot, plan and run (`engine.execute_us` — the text
/// path), and what one more kept plan of the querier holds resident.
/// (4) What the campus's data holds resident (`memory.*`, see
/// [`memory_accounting`]), and that an index intersection which leaves its
/// exactly probed conjuncts out of the filter returns the scan's rows.
/// (5) The querier's Q1-mid rewrite pinned, its guard body read once and
/// so merged into the base-table read (`merge.merged_us`), against the
/// same body written as a derived table, which is materialized first
/// (`merge.derived_us`); gated on equal rows. (6) A grant: the querier's
/// cold rewrite and the plan of the rewritten query right after a fresh
/// owner grants it access, which places the grant into its cached
/// expression (`grant.placed_us`), against the same read after
/// `invalidate_all`, which generates it (`grant.generated_us`); gated on
/// the placed expression equalling the generated one, and on the placed
/// read's plan binding the new disjunction, arm and partition and nothing
/// else (`grant.binds`). (7) That statement with every partition behind ∆
/// against every one inline ([`delta_against_inline`]).
fn hotpath(env: &EnvConfig) -> Record {
    let rss_before = rss_kib();
    let campus = build_campus(DbProfile::MySqlLike, env, SieveOptions::default());
    let mut rec = Record::new("hotpath", env);
    memory_accounting(&mut rec, &campus, rss_before);
    // The first Q2-low statement the querier sees rows of, as the
    // benchmark's do. Held to the end: the rewrite pins the ∆ partitions
    // its query calls.
    let (qm, policies, point, guarded) = (7..64)
        .find_map(|seed| {
            let (qm, policies, point) = heavy_probe(&campus, QueryClass::Q2, seed);
            let guarded = campus.sieve.rewrite(&point, &qm).expect("rewrite");
            let visible = campus.sieve.db().run_query(&guarded.query).expect("point query");
            (!visible.is_empty()).then_some((qm, policies, point, guarded))
        })
        .expect("a Q2-low statement with visible rows");
    let db = campus.sieve.db();
    let table_rows = db.table(WIFI_TABLE).expect("wifi table").table.len();
    let owners = campus.dataset.devices.iter().take(8);
    let pred =
        Expr::any(owners.map(|d| Expr::col_eq(ColumnRef::bare("owner"), Value::Int(d.id))).collect());
    let hinted = |hint| {
        SelectQuery {
            from: vec![TableRef::named(WIFI_TABLE).with_hint(hint)],
            ..SelectQuery::star_from(WIFI_TABLE)
        }
        .filter(pred.clone())
    };
    let scan_q = hinted(IndexHint::IgnoreAll);
    let union_q = hinted(IndexHint::Force(vec!["owner".into()]));
    // Timed passes, then one more for the row count.
    let time = |q: &SelectQuery, passes: usize| {
        let run = || db.run_query(q).expect("engine query").len();
        let exec_us = measure(passes, 1, || {
            black_box(run());
        });
        (run(), exec_us)
    };
    let access = |q: &SelectQuery| db.explain(q).expect("explain").relations[0].access_desc.clone();
    let rows_per_sec = |exec_us: &Stat| table_rows as f64 / (exec_us.median / 1e6);
    let passes = env.pick(3, 6);
    rec.put("table_rows", table_rows);

    let (scan_rows, scan_us) = time(&scan_q, passes);
    rec.put("filter_loop.access", access(&scan_q));
    rec.put("filter_loop.output_rows", scan_rows);
    rec.put("filter_loop.backend.exec_us", scan_us);
    rec.put("filter_loop.rows_per_sec", rows_per_sec(&scan_us));

    // Both sides re-timed at one pass count; `--quick` raises it so the
    // gate is noise-robust on the tiny CI dataset.
    let union_passes = env.pick(25, passes);
    let union_access = access(&union_q);
    let (union_rows, union_us) = time(&union_q, union_passes);
    let (_, rescan_us) = time(&scan_q, union_passes);
    rec.put("index_union.access", union_access.as_str());
    rec.put("index_union.output_rows", union_rows);
    rec.put("index_union.backend.exec_us", union_us);
    rec.put("index_union.scan.backend.exec_us", rescan_us);
    rec.put("index_union.speedup", rescan_us.median / union_us.median);

    let (blocks, reps) = (env.pick(5, 9), env.pick(40, 200));
    let opts = ExecOptions::default();
    let plan = || db.prepare_query(&guarded.query).expect("plan");
    let pinned = plan();
    let pinned_rows = db.run_prepared(&pinned, &opts).expect("pinned run");
    let oneshot_rows = db.run_query(&guarded.query).expect("one-shot run");
    // The statement as its text says it, nothing shared: what crosses the
    // wire, and what every plan bound before the guard was a node.
    let rendered = minidb::sql::render_query(&guarded.query);
    let bare = minidb::sql::parse(&rendered).expect("rendered rewrite parses");
    let bare_rows = db.run_query(&bare).expect("bare run");
    let guard = guarded.fragments[0].disjunction.map(&mut |_| None);
    let row = Layout::single(WIFI_TABLE, db.table(WIFI_TABLE).expect("wifi table").schema().clone());
    let bind_fragment_us = measure(blocks, reps, || {
        let bound = bind(&guard, &row, &Default::default(), &mut no_subqueries).expect("bind");
        drop(black_box(FilterProgram::new(Some(bound))));
    });
    // The floor: the statement with the guard taken out of the WITH body.
    let mut unguarded = bare.clone();
    let body = &mut unguarded.with[0].query.predicate;
    let own = body.iter().flat_map(|p| p.conjuncts()).filter(|c| **c != guard).cloned().collect();
    *body = Some(Expr::all(own));
    let plan_query_us = measure(blocks, reps, || {
        drop(black_box(db.prepare_query(&unguarded).expect("plan")));
    });
    let shared_guard = guarded.fragments[0].disjunction.as_shared();
    let binds_before = shared_guard.map(|node| node.binds());
    let rewrite_us =
        measure(blocks, reps, || drop(black_box(campus.sieve.rewrite(&point, &qm).expect("rewrite"))));
    let plan_us = measure(blocks, reps, || drop(black_box(plan())));
    let bound_nothing = shared_guard.map(|node| node.binds()) == binds_before;
    // Blocks interleaved: the plan a pinned run saves is a few µs of a
    // statement's tens, so both sides have to see the same noise.
    let (mut pinned_blocks, mut oneshot_blocks) = (Vec::new(), Vec::new());
    for _ in 0..blocks {
        pinned_blocks.push(block_us(reps, || {
            black_box(db.run_prepared(&pinned, &opts).expect("pinned run").len());
        }));
        oneshot_blocks.push(block_us(reps, || {
            black_box(db.run_query(&guarded.query).expect("one-shot run").len());
        }));
    }
    let (run_pinned_us, execute_us) = (Stat::of(pinned_blocks), Stat::of(oneshot_blocks));
    rec.put("engine.querier_policies", policies);
    rec.put("engine.rewrite.sql_bytes", rendered.len());
    rec.put("engine.output_rows", pinned_rows.len());
    rec.put("engine.rewrite_us", rewrite_us);
    rec.put("engine.bind_fragment_us", bind_fragment_us);
    rec.put("engine.plan_query_us", plan_query_us);
    rec.put("engine.plan_us", plan_us);
    rec.put("engine.run_pinned_us", run_pinned_us);
    rec.put("engine.execute_us", execute_us);
    rec.put("engine.plan_share", plan_us.median / execute_us.median);
    // No allocator hook without a new dependency: what 256 more kept plans
    // over the fragment `pinned` has bound add to the resident set, per
    // plan.
    if let Some(before) = rss_kib() {
        let kept: Vec<_> = (0..256).map(|_| plan()).collect();
        let grown = rss_kib().map_or(0, |after| after.saturating_sub(before));
        rec.put("engine.plan_bytes", grown as usize * 1024 / kept.len());
    }

    rec.gate(
        "pinned_rows",
        pinned_rows == oneshot_rows,
        "a pinned plan must return the one-shot execute's rows".into(),
    );
    rec.gate(
        "shared_plan_rows",
        pinned_rows == bare_rows,
        "a plan over the fragment's shared guard must return the rows of the statement's text".into(),
    );
    // The count holds at any scale. The ratio needs a guard that dwarfs the
    // query's own planning: the `--quick` campus's heaviest querier has 16
    // policies, whose guard binds in what the query's conjuncts plan in.
    rec.gate(
        "plan_is_query_sized",
        bound_nothing && env.pick(true, plan_us.median < 0.25 * bind_fragment_us.median),
        format!(
            "planning over a bound guard ({:.1} us; unguarded {:.1} us) must bind nothing of it \
             and, at full scale, cost under a quarter of binding it ({:.1} us)",
            plan_us.median, plan_query_us.median, bind_fragment_us.median
        ),
    );
    rec.gate(
        "pinned_beats_oneshot",
        run_pinned_us.median < execute_us.median,
        format!(
            "running a pinned plan ({:.1} us) must beat planning and running ({:.1} us)",
            run_pinned_us.median, execute_us.median
        ),
    );
    rec.gate(
        "union_access_path",
        union_access.starts_with("IndexUnion"),
        format!("forced guard-shaped OR must plan as an index union, got {union_access}"),
    );
    rec.gate(
        "union_rows",
        union_rows == scan_rows,
        format!("index union must return the scan's rows ({union_rows} vs {scan_rows})"),
    );
    rec.gate(
        "union_beats_scan",
        union_us.median < rescan_us.median,
        format!(
            "index union ({:.1} us) must beat the full scan ({:.1} us) on the selective workload",
            union_us.median, rescan_us.median
        ),
    );

    // Q1-mid read through the intersection of its access points and its
    // date window: both decided by their probes, only the time window is
    // checked per fetched row.
    let q1 = sieve_workload::query_gen::generate_query(
        &campus.dataset,
        QueryClass::Q1,
        sieve_workload::Selectivity::Mid,
        7,
    );
    let q1_with = |hint| {
        let mut q = q1.clone();
        q.from[0].hint = hint;
        q
    };
    let sorted_rows = |q: &SelectQuery| {
        let mut rows = db.run_query(q).expect("Q1 read").rows;
        rows.sort();
        rows
    };
    let intersect_q = q1_with(IndexHint::Force(vec!["wifi_ap".into(), "ts_date".into()]));
    let intersect = db.explain(&intersect_q).expect("explain").relations[0].access.clone();
    let dropped = matches!(&intersect, AccessPlan::IndexIntersect { recheck, .. }
        if recheck.left.len() < recheck.of);
    let intersect_rows = sorted_rows(&intersect_q);
    let q1_scan_rows = sorted_rows(&q1_with(IndexHint::IgnoreAll));
    rec.put("residual.access", intersect.describe());
    rec.put("residual.output_rows", intersect_rows.len());
    rec.gate(
        "residual_rows",
        dropped && intersect_rows == q1_scan_rows,
        format!(
            "an intersection that checks only what its probes left open ({}) must return the scan's \
             rows ({} vs {})",
            intersect.describe(),
            intersect_rows.len(),
            q1_scan_rows.len()
        ),
    );

    // (5) The Q1-mid rewrite, its guard body read once and so merged into
    // the read it guards, against the same body written as a derived
    // table, which stays a temp: both pinned, blocks interleaved.
    let rewritten = campus.sieve.rewrite(&q1, &qm).expect("rewrite Q1").query;
    let mut as_derived = rewritten.clone();
    let body = as_derived.with.remove(0);
    for tref in &mut as_derived.from {
        if tref.source == TableSource::Named(body.name.clone()) {
            tref.source = TableSource::Derived(Box::new(body.query.clone()));
        }
    }
    let (merged, derived) = (
        db.prepare_query(&rewritten).expect("plan merged"),
        db.prepare_query(&as_derived).expect("plan derived"),
    );
    let sorted_run = |plan| {
        let mut rows = db.run_prepared(plan, &opts).expect("Q1 run").rows;
        rows.sort();
        rows
    };
    let (merged_rows, derived_rows) = (sorted_run(&merged), sorted_run(&derived));
    let (mut merged_blocks, mut derived_blocks) = (Vec::new(), Vec::new());
    for _ in 0..blocks {
        merged_blocks.push(block_us(reps / 4, || {
            black_box(db.run_prepared(&merged, &opts).expect("merged run").len());
        }));
        derived_blocks.push(block_us(reps / 4, || {
            black_box(db.run_prepared(&derived, &opts).expect("derived run").len());
        }));
    }
    let (merged_us, derived_us) = (Stat::of(merged_blocks), Stat::of(derived_blocks));
    let explained = db.explain_prepared(&merged).expect("explain merged");
    rec.put("merge.access", explained.relations[0].access_desc.as_str());
    rec.put("merge.temps", explained.ctes.len());
    rec.put("merge.output_rows", merged_rows.len());
    rec.put("merge.merged_us", merged_us);
    rec.put("merge.derived_us", derived_us);
    rec.put("merge.speedup", derived_us.median / merged_us.median);
    rec.gate(
        "merged_rows",
        explained.ctes.is_empty() && merged_rows == derived_rows,
        format!(
            "a guard body read once must be merged ({} temps) and return its derived table's rows \
             ({} vs {})",
            explained.ctes.len(),
            merged_rows.len(),
            derived_rows.len()
        ),
    );
    drop(db);
    delta_against_inline(&mut rec, &campus, env, &point, &qm);
    grant(&mut rec, &campus, env, &point, &qm);
    rec
}

/// `hotpath`'s (7): the point statement with every guard's partition
/// behind ∆ (`DeltaMode::Always`) against every one inline (`Never`), each
/// rewritten by a service of its own over a copy of the campus. One run of
/// each reports its counters (`delta.udf_invocations`, `predicate_evals`),
/// then the two rewritten statements run in interleaved blocks
/// (`delta.exec_us`, `delta.inline_exec_us`); gated on ∆ running and
/// returning the inline rows.
fn delta_against_inline(
    rec: &mut Record,
    campus: &Campus,
    env: &EnvConfig,
    point: &SelectQuery,
    qm: &QueryMetadata,
) {
    let under = |delta_mode| {
        let mut options = SieveOptions::default();
        options.rewrite.delta_mode = delta_mode;
        let service = service_over(campus.sieve.db().clone(), campus, options);
        // Held while the statement runs: it pins the ∆ partitions it calls.
        let rewritten = service.rewrite(point, qm).expect("rewrite");
        (service, rewritten)
    };
    let (delta, inline) = (under(DeltaMode::Always), under(DeltaMode::Never));
    let opts = ExecOptions::default();
    let run = |(service, rewritten): &(SieveService, RewriteOutput)| {
        let (res, stats) = service.db().run_timed(&rewritten.query, &opts);
        let mut rows = res.expect("guarded run").rows;
        rows.sort();
        (rows, stats.counters)
    };
    let ((delta_rows, delta_counters), (inline_rows, inline_counters)) = (run(&delta), run(&inline));
    let (blocks, reps) = (env.pick(5, 9), env.pick(10, 50));
    let (mut delta_blocks, mut inline_blocks) = (Vec::new(), Vec::new());
    for _ in 0..blocks {
        for ((service, rewritten), samples) in [(&delta, &mut delta_blocks), (&inline, &mut inline_blocks)] {
            let db = service.db();
            samples.push(block_us(reps, || {
                black_box(db.run_query(&rewritten.query).expect("guarded run").len());
            }));
        }
    }
    let partitions = delta.1.fragments.iter().map(|f| f.partitions().count()).sum::<usize>();
    rec.put("delta.partitions", partitions);
    rec.put("delta.output_rows", delta_rows.len());
    rec.put("delta.exec_us", Stat::of(delta_blocks));
    rec.put("delta.inline_exec_us", Stat::of(inline_blocks));
    rec.put("delta.udf_invocations", delta_counters.udf_invocations as usize);
    rec.put("delta.predicate_evals", delta_counters.predicate_evals as usize);
    rec.put("delta.inline_predicate_evals", inline_counters.predicate_evals as usize);
    rec.gate(
        "delta_rows_equal_inline",
        delta_counters.udf_invocations > 0 && inline_counters.udf_invocations == 0 && delta_rows == inline_rows,
        format!(
            "every partition behind ∆ ({} calls) must return the inline rows ({} vs {})",
            delta_counters.udf_invocations,
            delta_rows.len(),
            inline_rows.len()
        ),
    );
}

/// `hotpath`'s (6): owners who share nothing with the querier grant it
/// access one by one, and each grant's first read — the rewrite and the
/// plan of the rewritten query, where the guard is bound — is timed:
/// alternately as it comes, placed, and after `invalidate_all`, generated.
/// One more placed read counts the shared-node binds its plan made.
fn grant(
    rec: &mut Record,
    campus: &Campus,
    env: &EnvConfig,
    point: &SelectQuery,
    qm: &QueryMetadata,
) {
    let sieve = &campus.sieve;
    let held: Vec<i64> = sieve.store().relevant(WIFI_TABLE, qm).iter().map(|p| p.owner).collect();
    let owners = campus.dataset.devices.iter().map(|d| d.id);
    let mut fresh = owners.filter(|o| *o != qm.querier && !held.contains(o));
    let mut grant_one = || {
        let owner = fresh.next().expect("an owner who grants the querier nothing yet");
        let policy = Policy::new(owner, WIFI_TABLE, QuerierSpec::User(qm.querier), PURPOSE, vec![]);
        sieve.add_policy(policy).expect("grant");
    };
    let read = || {
        let out = sieve.rewrite(point, qm).expect("rewrite");
        drop(black_box(sieve.db().prepare_query(&out.query).expect("plan")));
        out
    };
    let samples = env.pick(8, 32);
    let extensions = sieve.cache_stats().extensions;
    let (mut placed, mut generated) = (Vec::new(), Vec::new());
    for _ in 0..samples {
        grant_one();
        placed.push(block_us(1, || drop(read())));
        grant_one();
        sieve.invalidate_all();
        generated.push(block_us(1, || drop(read())));
    }
    // The last grant placed — its read's binds counted against the
    // fragment it was placed into — then the same policies generated cold.
    let warm = read();
    grant_one();
    let placed_read = read();
    let before: HashMap<usize, usize> = shared_binds(&warm.fragments[0]).collect();
    let binds: usize = shared_binds(&placed_read.fragments[0])
        .map(|(node, n)| n - before.get(&node).unwrap_or(&0))
        .sum();
    let placed_expr = sieve.guarded_expression(qm, WIFI_TABLE).expect("placed expression");
    let placements = sieve.cache_stats().extensions - extensions;
    sieve.invalidate_all();
    let generated_expr = sieve.guarded_expression(qm, WIFI_TABLE).expect("generated expression");
    let (placed_us, generated_us) = (Stat::of(placed), Stat::of(generated));
    rec.put("grant.samples", samples);
    rec.put("grant.guards", generated_expr.guards.len());
    rec.put("grant.placed_us", placed_us);
    rec.put("grant.generated_us", generated_us);
    rec.put("grant.speedup", generated_us.median / placed_us.median);
    rec.put("grant.binds", binds);
    rec.gate(
        "placed_equals_generated",
        placements as usize == samples + 1 && placed_expr == generated_expr,
        format!(
            "every fresh owner's grant must be placed ({placements} of {}) and the placed \
             expression ({} guards) must equal the one generated over the same policies ({} guards)",
            samples + 1,
            placed_expr.guards.len(),
            generated_expr.guards.len()
        ),
    );
    rec.gate(
        "grant_binds_one_branch",
        binds == 3,
        format!(
            "the plan after a placed grant must bind the new disjunction, the new branch's arm \
             and its partition once each and nothing of the kept branches (3 binds, got {binds})"
        ),
    );
}

/// Every shared node of a fragment — its disjunction, each branch's arm
/// and partition — as `(node address, binds so far)`.
fn shared_binds(fragment: &GuardFragment) -> impl Iterator<Item = (usize, usize)> + '_ {
    let arms = fragment.branches.iter().flat_map(|b| [&b.arm, &b.partition]);
    std::iter::once(&fragment.disjunction)
        .chain(arms)
        .filter_map(|e| e.as_shared())
        .map(|node| (node as *const SharedExpr as usize, node.binds()))
}

/// What the campus's data holds resident, by size arithmetic over what the
/// engine stores — `memory.value_bytes` (one `Value`), `row_bytes` (one
/// wifi row's heap block), `rows_mib` (every table's rows: the `Vec`
/// header in the table and the block it points to; strings' own blocks not
/// counted), `index_postings_mib` (index keys and posting lists) and
/// `histogram_kib` — beside `campus_rss_mib`, what building the campus
/// added to the process's resident set (`VmRSS`), which also holds the
/// policy store, the guard cache and the allocator's own slack.
fn memory_accounting(rec: &mut Record, campus: &Campus, rss_before: Option<u64>) {
    const MIB: f64 = 1024.0 * 1024.0;
    let value = std::mem::size_of::<Value>();
    let db = campus.sieve.db();
    let tables: Vec<_> = db.table_names().into_iter().map(|t| db.table(t).expect("listed table")).collect();
    let row_block = |entry: &TableEntry| entry.schema().arity() * value;
    let row = |entry: &TableEntry| std::mem::size_of::<Row>() + row_block(entry);
    let rows: usize = tables.iter().map(|e| e.table.len() * row(e)).sum();
    let postings: usize = tables.iter().flat_map(|e| &e.indexes).map(|i| i.heap_bytes()).sum();
    let histograms: usize = tables.iter().flat_map(|e| e.histograms.values()).map(|h| h.heap_bytes()).sum();
    rec.put("memory.value_bytes", value);
    rec.put("memory.row_bytes", row_block(db.table(WIFI_TABLE).expect("wifi table")));
    rec.put("memory.rows_mib", rows as f64 / MIB);
    rec.put("memory.index_postings_mib", postings as f64 / MIB);
    rec.put("memory.histogram_kib", histograms as f64 / 1024.0);
    if let (Some(before), Some(after)) = (rss_before, rss_kib()) {
        rec.put("memory.campus_rss_mib", after.saturating_sub(before) as f64 / 1024.0);
    }
}

/// Cold preparation of ≥ 100 distinct queriers on one relation, one by
/// one: `SieveService::rewrite` per request on an emptied guard cache, so
/// every querier pays its own lookup, condition collection and set cover
/// — each a `rewrite.cold_us` sample.
fn multiquerier(env: &EnvConfig) -> Record {
    let campus = build_campus(DbProfile::MySqlLike, env, SieveOptions::default());
    let mut rec = Record::new("multiquerier", env);
    let requests = traffic(&campus, env.pick(100, 150));
    assert!(
        requests.len() >= 100,
        "scenario needs >= 100 distinct queriers, got {}",
        requests.len()
    );
    let service = &campus.sieve;
    let (mut total_ms, mut cold_us, mut generations) = (Vec::new(), Vec::new(), 0);
    for _ in 0..env.pick(3, 5) {
        service.invalidate_all();
        let before = service.generations();
        let first = cold_us.len();
        for (qm, q) in &requests {
            cold_us.push(block_us(1, || drop(service.rewrite(q, qm).expect("rewrite"))));
        }
        total_ms.push(cold_us[first..].iter().sum::<f64>() / 1e3);
        generations = service.generations() - before;
    }
    rec.put("queriers", requests.len());
    rec.put("policies", campus.policies.len());
    rec.put("sequential.prepare_ms", Stat::of(total_ms));
    rec.put("sequential.rewrite.cold_us", Stat::of(cold_us));
    rec.put("sequential.generations", generations);
    rec
}

/// One shared `SieveService`, every request of [`traffic`] behind a warm
/// `Prepared` handle (guard cache warm, fragments pinned):
///
/// 1. **Warm replay at 1/2/4/8 threads.** A sample is one pass over all
///    handles, the threads claiming statements off a shared cursor.
/// 2. **Readers beside a writer.** 4 threads replay while the main thread
///    inserts policies; each insert bumps the revision and sends every
///    handle through one transparent re-prepare. A round is one window
///    and one reader-throughput sample; each insert is one
///    `service.add_policy_us` sample.
///
/// **Why this q/s is not `point_warm`'s.** The gated benchmark's
/// `point_warm` replays eight Q2-low point statements (≈ 0.3 ms each,
/// thousands of q/s from one closed-loop client). A pass here is the
/// nine-cell Q1/Q2/Q3 × low/mid/high mix over 100–150 queriers, whose mid
/// and high cells scan and join for tens of milliseconds — the pass runs
/// at tens of q/s on the same engine. `statement.session.execute_us`
/// records that spread; compare it, not the q/s, with the benchmark's
/// `session.execute_us`. With `nproc` 1 or 2 the thread rows measure
/// contention overhead, not parallel speed-up.
fn concurrent(env: &EnvConfig) -> Record {
    let campus = build_campus(DbProfile::MySqlLike, env, SieveOptions::default());
    let mut rec = Record::new("concurrent", env);
    let requests = traffic(&campus, env.pick(100, 150));
    let service = &campus.sieve;
    let prepared: Vec<Prepared> = requests
        .iter()
        .map(|(qm, q)| service.session(qm.clone()).prepare(q.clone()).expect("prepare"))
        .collect();
    for p in &prepared {
        p.execute().expect("warm-up");
    }
    rec.put("queriers", requests.len());
    rec.put("policies", campus.policies.len());
    let per_statement = prepared.iter().map(|p| block_us(1, || drop(p.execute().expect("replay"))));
    rec.put("statement.session.execute_us", Stat::of(per_statement.collect()));

    let passes = env.pick(3, 5);
    let mut qps_at = Vec::new();
    let mut replay = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let one_pass = |_| {
            let cursor = AtomicUsize::new(0);
            let pass_us = block_us(1, || {
                std::thread::scope(|s| {
                    for _ in 0..threads {
                        s.spawn(|| {
                            while let Some(p) = prepared.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                                black_box(p.execute().expect("replay").len());
                            }
                        });
                    }
                })
            });
            prepared.len() as f64 / (pass_us / 1e6)
        };
        let qps = Stat::of((0..passes).map(one_pass).collect());
        qps_at.push(qps.median);
        replay.push(fields([("threads", threads.into()), ("qps", qps.into())]));
    }
    rec.put("warm_replay", replay);
    rec.put("scaling_1_to_8", qps_at[3] / qps_at[0]);

    let (rounds, inserts) = (4usize, env.pick(2usize, 6));
    let window = Duration::from_millis(env.pick(100, 500));
    let (mut add_policy_us, mut reader_qps) = (Vec::new(), Vec::new());
    for round in 0..rounds {
        let stop = AtomicBool::new(false);
        let executed = AtomicUsize::new(0);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for t in 0..4usize {
                let (prepared, stop, executed) = (&prepared, &stop, &executed);
                s.spawn(move || {
                    // Offset starts, so the readers do not march in
                    // lockstep over the same cache shards.
                    let mut i = t * 31;
                    while !stop.load(Ordering::SeqCst) {
                        prepared[i % prepared.len()].execute().expect("mixed replay");
                        executed.fetch_add(1, Ordering::Relaxed);
                        i += 1;
                    }
                });
            }
            // Writer on this thread: the inserts spread over the window.
            for k in 0..inserts {
                std::thread::sleep(window / (inserts as u32 + 1));
                let grant = Policy::new(
                    (k % 80) as i64,
                    WIFI_TABLE,
                    QuerierSpec::User(9_000_000 + (round * inserts + k) as i64),
                    PURPOSE,
                    vec![ObjectCondition::new("wifi_ap", CondPredicate::Ne(Value::Int(-1)))],
                );
                let t = Instant::now();
                service.add_policy(grant).expect("writer add_policy");
                add_policy_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
            stop.store(true, Ordering::SeqCst);
        });
        reader_qps.push(executed.load(Ordering::Relaxed) as f64 / t0.elapsed().as_secs_f64());
    }
    rec.put("readers_beside_writer.readers", 4usize);
    rec.put("readers_beside_writer.writer_policies", rounds * inserts);
    rec.put("readers_beside_writer.reader_qps", Stat::of(reader_qps));
    rec.put("readers_beside_writer.service.add_policy_us", Stat::of(add_policy_us));
    rec
}

/// A service over `backend` with the campus policy corpus.
fn service_over<B: SqlBackend>(backend: B, campus: &Campus, options: SieveOptions) -> SieveService<B> {
    let service = SieveService::with_backend(backend, options).expect("backend init");
    service.with_groups_mut(|g| *g = campus.dataset.groups.clone());
    service.add_policies(campus.policies.iter().cloned()).expect("policies");
    service
}

/// `inner` behind the fault injector at fault rate 0: a pass-through
/// until a fault is scripted.
fn rate0<B: SqlBackend>(inner: B) -> FaultInjectingBackend<B> {
    FaultInjectingBackend::new(inner, FaultConfig::default())
}

/// Prices the fault-tolerance machinery on a warm `Prepared` replay
/// (`session.execute_us`):
///
/// 1. **What the retry plumbing costs when nothing fails.** A raw
///    `Database` against the same backend inside `FaultInjectingBackend`
///    at fault rate 0 — a transparent pass-through, so the delta is the
///    injection bookkeeping plus the service retry loop. Blocks are
///    interleaved so both sides see the same noise. Gated.
/// 2. **How long one connection drop takes to heal** (wire-sql): a
///    scripted `Fault::ConnectionDrop` before a warm execute — the service
///    retries through `ConnectionLost`, the wiped statement registry
///    surfaces `UnknownStatement`, the session re-prepares transparently.
/// 3. **Re-prepare under a 4-session storm** (wire-sql): one drop wipes
///    every server-side statement, four threads execute at once; wall
///    time until all recover, and exactly one re-prepare per handle per
///    round — the single-flight plan rebuild admits no re-prepare storm.
fn faults(env: &EnvConfig) -> Record {
    let campus = build_campus(DbProfile::MySqlLike, env, SieveOptions::default());
    let mut rec = Record::new("faults", env);
    let (qm, policies, q) = heavy_probe(&campus, QueryClass::Q1, 7);
    let base_db: minidb::Database = campus.sieve.db().clone();
    let warm_reps = env.pick(30, 100);
    let wire = || rate0(WireSqlBackend::new(base_db.clone()));
    rec.put("querier_policies", policies);

    let raw_service = service_over(base_db.clone(), &campus, SieveOptions::default());
    let faulty_service = service_over(rate0(base_db.clone()), &campus, SieveOptions::default());
    let raw = raw_service.session(qm.clone()).prepare(q.clone()).expect("raw prepare");
    let wrapped = faulty_service.session(qm.clone()).prepare(q.clone()).expect("faulty prepare");
    let result_rows = raw.execute().expect("raw warm-up").len();
    assert_eq!(
        result_rows,
        wrapped.execute().expect("faulty warm-up").len(),
        "rate-0 fault wrapper must not change results"
    );
    let (mut raw_us, mut wrapped_us) = (Vec::new(), Vec::new());
    for _ in 0..OVERHEAD_GATE_PAIRS {
        raw_us.push(block_us(warm_reps, || drop(raw.execute().expect("raw exec"))));
        wrapped_us.push(block_us(warm_reps, || drop(wrapped.execute().expect("faulty exec"))));
    }
    // Rate-0 sanity: nothing injected, nothing retried on the warm path.
    assert_eq!(faulty_service.backend().fault_counts().total(), 0);
    let warm_stats = faulty_service.recovery_stats();
    assert_eq!((warm_stats.retries, warm_stats.exhausted), (0, 0));
    rec.put("result_rows", result_rows);
    rec.put("raw.session.execute_us", Stat::of(raw_us.clone()));
    rec.put("fault_wrapper.session.execute_us", Stat::of(wrapped_us.clone()));
    rec.gate_overhead("warm_no_fault_overhead", &raw_us, &wrapped_us);

    let drop_rounds = env.pick(10usize, 30);
    let service = service_over(wire(), &campus, SieveOptions::default());
    let prepared = service.session(qm.clone()).prepare(q.clone()).expect("prepare");
    prepared.execute().expect("warm-up");
    let warm_us = measure(3, warm_reps, || drop(prepared.execute().expect("warm exec")));
    let recover_us = (0..drop_rounds).map(|_| {
        service.backend().script([Fault::ConnectionDrop]);
        block_us(1, || drop(prepared.execute().expect("recovery exec")))
    });
    let recover_us = Stat::of(recover_us.collect());
    let stats = service.recovery_stats();
    rec.put("drop_recovery.backend", "wire-sql");
    rec.put("drop_recovery.session.execute_us", warm_us);
    rec.put("drop_recovery.recover_us", recover_us);
    rec.put("drop_recovery.rounds", drop_rounds);
    rec.put("drop_recovery.reconnects", stats.reconnects);
    rec.put("drop_recovery.reprepares", stats.reprepares);

    let storm_rounds = env.pick(5usize, 15);
    let service = service_over(wire(), &campus, SieveOptions::default());
    let handles: Vec<_> = (0..4)
        .map(|_| service.session(qm.clone()).prepare(q.clone()).expect("storm prepare"))
        .collect();
    for p in &handles {
        p.execute().expect("storm warm-up");
    }
    let mut reprepares = service.recovery_stats().reprepares;
    let storm_us = (0..storm_rounds).map(|_| {
        service.backend().script([Fault::ConnectionDrop]);
        let wall_us = block_us(1, || {
            std::thread::scope(|s| {
                for p in &handles {
                    s.spawn(move || drop(p.execute().expect("storm recover")));
                }
            })
        });
        let after = service.recovery_stats().reprepares;
        assert_eq!(
            after - reprepares,
            handles.len() as u64,
            "expected exactly one re-prepare per handle per round"
        );
        reprepares = after;
        wall_us
    });
    rec.put("storm.backend", "wire-sql");
    rec.put("storm.sessions", handles.len());
    rec.put("storm.recover_us", Stat::of(storm_us.collect()));
    rec.put("storm.rounds", storm_rounds);
    rec.put("storm.session.reprepares_per_op", 1usize);
    rec
}

/// Prices the static soundness verifier (`sieve_core::analyze`) on the
/// query path. `verify_rewrites` runs only at cold guard generation, so
/// (1) the cold rewrite (empty cache → generation + no-widening proof +
/// compilation) with it on against off is the one-time price of a
/// machine-checked guard, and (2) a warm rewrite must cost the same with
/// it on — gated: any delta is verifier work leaking onto the warm path.
fn analyze(env: &EnvConfig) -> Record {
    let mut rec = Record::new("analyze", env);
    let sides = [("verify_off", false), ("verify_on", true)];
    // One campus per side, alike but for the option, which is fixed when
    // its service is built.
    let campuses = sides.map(|(_, verify_rewrites)| {
        build_campus(DbProfile::MySqlLike, env, SieveOptions { verify_rewrites, ..Default::default() })
    });
    let (qm, policies, q) = heavy_probe(&campuses[0], QueryClass::Q1, 7);
    let rewrite = |campus: &Campus| drop(campus.sieve.rewrite(&q, &qm).expect("rewrite"));
    let (cold_reps, warm_reps) = (env.pick(5, 15), env.pick(30, 100));
    rec.put("querier_policies", policies);

    let cold_us = campuses.each_ref().map(|campus| {
        let samples = (0..cold_reps).map(|_| {
            campus.sieve.invalidate_all();
            block_us(1, || rewrite(campus))
        });
        Stat::of(samples.collect())
    });
    // Each side's last cold entry serves its warm rewrites, measured in
    // interleaved blocks so both sides see the same noise.
    let mut warm_us = [Vec::new(), Vec::new()];
    for _ in 0..OVERHEAD_GATE_PAIRS {
        for (samples, campus) in warm_us.iter_mut().zip(&campuses) {
            samples.push(block_us(warm_reps, || rewrite(campus)));
        }
    }
    for (i, (side, _)) in sides.iter().enumerate() {
        rec.put(&format!("{side}.rewrite.cold_us"), cold_us[i]);
        rec.put(&format!("{side}.rewrite.warm_us"), Stat::of(warm_us[i].clone()));
    }
    rec.put("cold_verify_us", cold_us[1].median - cold_us[0].median);
    rec.gate_overhead("warm_verify_overhead", &warm_us[0], &warm_us[1]);
    rec
}
