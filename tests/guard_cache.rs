//! Guard-cache correctness: warm queries must be *exactly* as correct as
//! cold ones, across invalidation, placement and regeneration, and ∆
//! partition reclamation.
//!
//! The cache under test (sieve_core::cache::GuardCache) stores both the
//! generated guarded expression and its compiled rewrite fragment per
//! (querier, purpose, relation); `add_policy` invalidates precisely the
//! affected keys, and the next read of a stale entry places its pending
//! grants or regenerates it. None of that writes to the guarded database.

mod support;

use sieve::core::backend::for_each_backend;
use sieve::core::policy::{Policy, QuerierSpec, QueryMetadata};
use sieve::core::rewrite::DeltaMode;
use sieve::core::{SieveOptions, SieveService};
use sieve::minidb::expr::Expr;
use sieve::minidb::{Row, SelectQuery, Value};
use std::sync::Arc;
use support::{oracle_rows, policy, sorted_rows, REL};

fn loaded_sieve(options: SieveOptions) -> SieveService {
    let sieve = SieveService::new(support::wifi_db(4000, 80, true), options).unwrap();
    for owner in 0..20i64 {
        sieve.add_policy(policy(owner, 500, "Analytics", 1001)).unwrap();
    }
    // A second querier and a second purpose, to check invalidation scope.
    for owner in 0..10i64 {
        sieve.add_policy(policy(owner, 501, "Analytics", 1002)).unwrap();
        sieve.add_policy(policy(owner, 500, "Safety", 1003)).unwrap();
    }
    sieve
}

fn oracle(sieve: &SieveService, qm: &QueryMetadata) -> Vec<Row> {
    oracle_rows(sieve, REL, qm)
}

fn delta_always() -> SieveOptions {
    let mut options = SieveOptions::default();
    options.rewrite.delta_mode = DeltaMode::Always;
    options
}

fn run_sorted(sieve: &SieveService, qm: &QueryMetadata) -> Vec<Row> {
    sorted_rows(sieve.execute(&SelectQuery::star_from(REL), qm).unwrap())
}

#[test]
fn warm_queries_hit_both_cache_levels() {
    let sieve = loaded_sieve(SieveOptions::default());
    let qm = QueryMetadata::new(500, "Analytics");
    run_sorted(&sieve, &qm);
    let s0 = sieve.cache_stats();
    assert_eq!(s0.misses, 1);
    assert_eq!(s0.fragment_builds, 1);
    for _ in 0..5 {
        run_sorted(&sieve, &qm);
    }
    let s1 = sieve.cache_stats();
    assert_eq!(s1.misses, 1, "warm queries must not regenerate");
    assert_eq!(s1.fragment_builds, 1, "warm queries must not recompile");
    assert_eq!(s1.hits, s0.hits + 5);
    assert_eq!(s1.fragment_hits, s0.fragment_hits + 5);
    assert_eq!(sieve.generations(), 1);
}

#[test]
fn add_policy_invalidates_only_affected_key_and_matches_cold_and_oracle() {
    let sieve = loaded_sieve(SieveOptions::default());
    let qm_a = QueryMetadata::new(500, "Analytics");
    let qm_b = QueryMetadata::new(501, "Analytics");
    let qm_c = QueryMetadata::new(500, "Safety");
    run_sorted(&sieve, &qm_a);
    run_sorted(&sieve, &qm_b);
    run_sorted(&sieve, &qm_c);
    assert_eq!(sieve.cache_stats().misses, 3);

    // New policy for querier 500 / Analytics only (owner 71 ⇒ i%10 == 1 ⇒
    // rows at AP 1001 exist).
    sieve.add_policy(policy(71, 500, "Analytics", 1001)).unwrap();

    // Unaffected keys stay cached.
    let misses_before = sieve.cache_stats().misses;
    run_sorted(&sieve, &qm_b);
    run_sorted(&sieve, &qm_c);
    assert_eq!(
        sieve.cache_stats().misses,
        misses_before,
        "other queriers/purposes must keep their cache entries"
    );

    // The affected key regenerates and matches both a cold-cache run and
    // the visible_rows oracle. Replacing an outdated entry is counted as a
    // regeneration, not a miss (the entry existed).
    let regens_before = sieve.cache_stats().regenerations;
    let warm_after_invalidation = run_sorted(&sieve, &qm_a);
    assert_eq!(sieve.cache_stats().misses, misses_before);
    assert_eq!(sieve.cache_stats().regenerations, regens_before + 1);
    let expect = oracle(&sieve, &qm_a);
    assert_eq!(warm_after_invalidation, expect);
    assert!(warm_after_invalidation
        .iter()
        .any(|r| r[1] == Value::Int(71)));

    sieve.invalidate_all();
    let cold = run_sorted(&sieve, &qm_a);
    assert_eq!(cold, warm_after_invalidation, "cold == warm after regen");
}

#[test]
fn delta_partitions_do_not_leak_across_repeat_queries() {
    // Force every partition through ∆ so fragments register partitions.
    let sieve = loaded_sieve(delta_always());
    let qm = QueryMetadata::new(500, "Analytics");
    let baseline_rows = run_sorted(&sieve, &qm);
    assert_eq!(baseline_rows, oracle(&sieve, &qm));
    let after_first = sieve.delta_len();
    for _ in 0..10 {
        run_sorted(&sieve, &qm);
    }
    assert_eq!(
        sieve.delta_len(),
        after_first,
        "repeat queries must reuse ∆ registrations, not accumulate them"
    );
    // Invalidation regenerates the fragment but frees the old partitions.
    sieve.add_policy(policy(62, 500, "Analytics", 1001)).unwrap();
    run_sorted(&sieve, &qm);
    assert_eq!(
        sieve.delta_len(),
        after_first,
        "regeneration must free superseded ∆ partitions"
    );
    // Full invalidation drops everything.
    sieve.invalidate_all();
    assert_eq!(sieve.delta_len(), 0);
}

/// Ground-truth counter audit: drive a known sequence of queries and
/// policy insertions and check every counter against a hand-maintained
/// trace. Catches double-counted misses, regenerations booked as misses,
/// and generated-but-uncached skew: the invariants are
/// `lookups = hits + misses + regenerations`,
/// `SieveService::generations = misses + regenerations = fragment_builds`
/// and `fragment_hits = hits` — always, with a placed grant counted as a
/// regeneration and, within it, an extension.
#[test]
fn counters_match_ground_truth_trace() {
    let sieve = loaded_sieve(SieveOptions::default());
    let qm_a = QueryMetadata::new(500, "Analytics");
    let qm_b = QueryMetadata::new(501, "Analytics");

    // Trace model (expression-level): expected (hits, misses, regens,
    // extensions).
    let mut expect = (0u64, 0u64, 0u64, 0u64);
    let check = |sieve: &SieveService, expect: &(u64, u64, u64, u64), step: &str| {
        let s = sieve.cache_stats();
        assert_eq!((s.hits, s.misses, s.regenerations, s.extensions), *expect, "at {step}");
        assert_eq!(s.generations(), sieve.generations(), "generations at {step}");
        assert_eq!(s.lookups(), s.hits + s.misses + s.regenerations, "lookups at {step}");
        assert_eq!(s.fragment_builds, s.generations(), "fragment builds at {step}");
        assert_eq!(s.fragment_hits, s.hits, "fragment hits at {step}");
    };

    run_sorted(&sieve, &qm_a); // cold → miss
    expect.1 += 1;
    check(&sieve, &expect, "cold A");

    run_sorted(&sieve, &qm_a); // warm → hit
    run_sorted(&sieve, &qm_a);
    expect.0 += 2;
    check(&sieve, &expect, "warm A x2");

    run_sorted(&sieve, &qm_b); // cold for B → miss
    expect.1 += 1;
    check(&sieve, &expect, "cold B");

    // Policy touching only A's key: A regenerates (entry existed), B stays
    // warm. It shares A's `wifi_ap = 1001` guard condition, so it cannot
    // be placed: Algorithm 1 runs again.
    sieve.add_policy(policy(72, 500, "Analytics", 1001)).unwrap();
    run_sorted(&sieve, &qm_a);
    expect.2 += 1;
    run_sorted(&sieve, &qm_b);
    expect.0 += 1;
    check(&sieve, &expect, "regen A, warm B");

    // A fresh owner's grant with no condition of its own shares nothing
    // with A's policies: placed into A's expression, which is a
    // regeneration and an extension — equal to what Algorithm 1 returns.
    sieve.add_policy(Policy::new(73, REL, QuerierSpec::User(500), "Analytics", vec![])).unwrap();
    let placed = run_sorted(&sieve, &qm_a);
    expect.2 += 1;
    expect.3 += 1;
    check(&sieve, &expect, "placed A");
    assert_eq!(placed, oracle(&sieve, &qm_a));
    assert!(placed.iter().any(|r| r[1] == Value::Int(73)));
    let placed_expr = sieve.guarded_expression(&qm_a, REL).unwrap();
    expect.0 += 1;

    // invalidate_all drops entries: the next queries are misses again
    // (fresh generations, not regenerations).
    sieve.invalidate_all();
    run_sorted(&sieve, &qm_a);
    run_sorted(&sieve, &qm_b);
    expect.1 += 2;
    check(&sieve, &expect, "cold after clear");
    assert_eq!(sieve.guarded_expression(&qm_a, REL).unwrap(), placed_expr, "placed == generated");

    assert_eq!(sieve.cache_stats().invalidations, 2, "one key invalidated, twice");
    assert_eq!(sieve.cache_stats().evictions, 0, "cap never tripped");
}

/// Eviction under the cap is LRU-on-*access*: a key that keeps getting
/// read survives churn of arbitrarily many one-shot keys (FIFO or
/// LRU-on-insert would rotate it out), while total occupancy stays
/// bounded and the shed work is visible in the eviction counter.
#[test]
fn guard_cache_churn_keeps_hot_keys_via_lru_on_access() {
    use sieve::core::cache::{GuardCache, GUARD_CACHE_CAP};
    use sieve::core::rewrite::CompiledRelation;
    use sieve::core::GuardedExpression;
    use std::sync::Arc;

    let cache = GuardCache::new();
    let entry = |q: i64| {
        (
            (q, "Any".to_string(), REL.to_string()),
            CompiledRelation {
                expr: Arc::new(GuardedExpression {
                    relation: REL.to_string(),
                    querier: q,
                    purpose: "Any".into(),
                    guards: vec![],
                }),
                fragment: Arc::default(),
            },
            None,
        )
    };
    let hot_key = entry(-1).0;
    cache.publish(entry(-1), false);
    for i in 0..(GUARD_CACHE_CAP as i64 * 4) {
        cache.publish(entry(i), false);
        // The read IS the touch: this is what keeps the key alive.
        assert!(
            cache.read(&hot_key, |_| ()).is_some(),
            "hot key evicted by churn at insertion {i}"
        );
        assert!(cache.len() <= GUARD_CACHE_CAP, "cap breached at insertion {i}");
    }
    let s = cache.stats();
    assert_eq!(
        s.evictions as usize,
        (GUARD_CACHE_CAP * 4 + 1) - cache.len(),
        "every shed entry must be booked as an eviction"
    );
}

/// Evicting an entry whose fragment registered ∆ partitions must free
/// those partitions (via the RAII handles) — the registry cannot grow
/// with evicted keys.
#[test]
fn eviction_frees_delta_partitions_of_dropped_fragments() {
    let sieve = loaded_sieve(delta_always());
    let qm = QueryMetadata::new(500, "Analytics");
    run_sorted(&sieve, &qm);
    assert!(sieve.delta_len() > 0, "∆ partitions registered");
    let live = sieve.delta_len();
    // Invalidation + regeneration replaces the fragment; the superseded
    // partitions must be gone once no query pins them.
    sieve.add_policy(policy(63, 500, "Analytics", 1001)).unwrap();
    run_sorted(&sieve, &qm);
    assert!(
        sieve.delta_len() <= live + 1,
        "superseded ∆ partitions leaked: {} -> {}",
        live,
        sieve.delta_len()
    );
    // Dropping every entry drops every partition.
    sieve.invalidate_all();
    assert_eq!(sieve.delta_len(), 0);
}

/// No-narrowing under dynamic membership: a querier who joins a group
/// *after* their first query must see what the group's policies allow —
/// through a fresh `execute` and through a `Prepared` handle opened
/// before the change — on every backend. The guard cached for the
/// pre-membership (empty) policy set must not survive `with_groups_mut`.
#[test]
fn group_membership_change_invalidates_cached_guards() {
    let db = support::wifi_db(4000, 80, true);
    for_each_backend(&db, &SieveOptions::default(), |name, service| {
        service
            .add_policy(Policy::new(42, REL, QuerierSpec::Group(9), "Any", vec![]))
            .unwrap();
        let qm = QueryMetadata::new(777, "Analytics");
        let q = SelectQuery::star_from(REL);
        let prepared = service.session(qm.clone()).prepare(q.clone()).unwrap();
        assert!(service.execute(&q, &qm).unwrap().is_empty(), "{name}: not a member yet");
        assert!(prepared.execute().unwrap().is_empty(), "{name}: not a member yet");

        service.with_groups_mut(|g| g.add_member(9, 777));
        let expect = oracle_rows(&service, REL, &qm);
        assert_eq!(expect.len(), 50, "owner 42 of 80 owners over 4000 rows");
        assert_eq!(sorted_rows(service.execute(&q, &qm).unwrap()), expect, "{name}: execute");
        assert_eq!(sorted_rows(prepared.execute().unwrap()), expect, "{name}: prepared");
    });
}

#[test]
fn repeated_sql_text_returns_the_same_rows() {
    let sieve = loaded_sieve(SieveOptions::default());
    let qm = QueryMetadata::new(500, "Analytics");
    let sql = "SELECT COUNT(*) AS n FROM wifi_dataset WHERE wifi_ap = 1001";
    let a = sieve.execute_sql(sql, &qm).unwrap();
    let b = sieve.execute_sql(sql, &qm).unwrap();
    assert_eq!(a, b);
    let n = a.rows[0][0].as_int().unwrap();
    assert_eq!(n, oracle(&sieve, &qm).len() as i64);
}

/// The middleware never writes to the database it guards. A policy
/// insert, cold generations, a placed grant and a group change leave the
/// database's version and its tables as they were — so a statement one querier holds is never re-prepared because
/// another querier's guard was built.
#[test]
fn guard_work_never_writes_the_guarded_database() {
    let sieve = loaded_sieve(SieveOptions::default());
    let version = sieve.db().version();
    let tables: Vec<String> = sieve.db().table_names().into_iter().map(String::from).collect();
    let q = SelectQuery::star_from(REL);
    let qm_a = QueryMetadata::new(500, "Analytics");

    // A holds a statement; B's first read is a cold generation.
    let held = sieve.session(qm_a.clone()).prepare(q.clone()).unwrap();
    let misses = sieve.cache_stats().misses;
    run_sorted(&sieve, &QueryMetadata::new(501, "Analytics"));
    assert_eq!(sieve.cache_stats().misses, misses + 1, "B's first read generated");
    assert_eq!(sorted_rows(held.execute().unwrap()), oracle(&sieve, &qm_a));
    assert_eq!(held.reprepares(), 0, "B's cold build left A's statement current");

    // A fresh owner's bare grant is placed into A's expression.
    sieve.add_policy(Policy::new(73, REL, QuerierSpec::User(500), "Analytics", vec![])).unwrap();
    let extensions = sieve.cache_stats().extensions;
    assert_eq!(run_sorted(&sieve, &qm_a), oracle(&sieve, &qm_a));
    assert_eq!(sieve.cache_stats().extensions, extensions + 1, "the grant was placed");

    for u in [500i64, 501, 502, 503] {
        sieve.rewrite(&q, &QueryMetadata::new(u, "Safety")).unwrap();
    }
    sieve.with_groups_mut(|g| g.add_member(7, 500));
    assert_eq!(run_sorted(&sieve, &qm_a), oracle(&sieve, &qm_a));

    assert_eq!(sieve.db().version(), version, "the database was written to");
    let after: Vec<String> = sieve.db().table_names().into_iter().map(String::from).collect();
    assert_eq!(after, tables);
}

/// A grant placed into a warm entry is spliced into its fragment as one
/// branch: every other branch keeps its arm and partition nodes — bound
/// forms included — so the read after the grant binds the new branch's
/// nodes and the new disjunction once each, and nothing of the rest. With
/// inline partitions and with ∆ partitions.
#[test]
fn a_placed_read_binds_only_the_new_branch() {
    let same = |a: &Expr, b: &Expr| match (a, b) {
        (Expr::Shared(a), Expr::Shared(b)) => Arc::ptr_eq(a, b),
        _ => false,
    };
    let binds = |e: &Expr| e.as_shared().expect("a shared node").binds();
    let grant = |owner| Policy::new(owner, REL, QuerierSpec::User(500), "Analytics", vec![]);
    for options in [SieveOptions::default(), delta_always()] {
        let mode = options.rewrite.delta_mode;
        let sieve = SieveService::new(support::wifi_db(4000, 80, true), options).unwrap();
        for owner in 0..24i64 {
            sieve.add_policy(grant(owner)).unwrap();
        }
        let (q, qm) = (SelectQuery::star_from(REL), QueryMetadata::new(500, "Analytics"));
        let prepared = sieve.session(qm.clone()).prepare(q.clone()).unwrap();
        prepared.execute().unwrap();
        let before = Arc::clone(&sieve.rewrite(&q, &qm).unwrap().fragments[0]);
        let bound: Vec<(usize, usize)> =
            before.branches.iter().map(|b| (binds(&b.arm), binds(&b.partition))).collect();
        assert!(bound.iter().all(|&b| b == (1, 1)), "{mode:?}: the warm prepare bound {bound:?}");

        sieve.add_policy(grant(73)).unwrap();
        let extensions = sieve.cache_stats().extensions;
        assert_eq!(sorted_rows(prepared.execute().unwrap()), oracle(&sieve, &qm), "{mode:?}");
        assert_eq!(sieve.cache_stats().extensions, extensions + 1, "{mode:?}: placed");
        let after = Arc::clone(&sieve.rewrite(&q, &qm).unwrap().fragments[0]);

        let (mut kept, mut fresh) = (before.branches.iter().zip(&bound).peekable(), Vec::new());
        for branch in &after.branches {
            match kept.next_if(|(k, _)| same(&k.arm, &branch.arm)) {
                Some((k, &(arm, partition))) => {
                    assert!(same(&k.partition, &branch.partition), "{mode:?}: partition copied");
                    let now = (binds(&branch.arm), binds(&branch.partition));
                    assert_eq!(now, (arm, partition), "{mode:?}: a kept branch was bound again");
                }
                None => fresh.push(branch),
            }
        }
        assert!(kept.next().is_none(), "{mode:?}: a branch of the warm fragment was lost");
        let [new] = fresh.as_slice() else { panic!("{mode:?}: {} new branches", fresh.len()) };
        let new_binds = (binds(&new.arm), binds(&new.partition), binds(&after.disjunction));
        assert_eq!(new_binds, (1, 1, 1), "{mode:?}: new arm, partition and disjunction");
    }
}
