//! Single-flight guard generation under a cold-miss stampede.
//!
//! The contract: K threads cold-missing the SAME (querier, purpose,
//! relation) key simultaneously must produce exactly ONE guard
//! generation — one thread builds, the rest block on the in-flight claim
//! and reuse the published entry — with every thread's rows identical to
//! the single-threaded oracle. Distinct keys must NOT serialize behind
//! one another's claims. And what the one build leaves — the fragment's
//! shared guard nodes — is bound by the engine once, whoever plans first.

mod support;

use sieve::core::backend::for_each_backend;
use sieve::core::policy::QueryMetadata;
use sieve::core::rewrite::DeltaMode;
use sieve::core::{SieveOptions, SieveService};
use sieve::minidb::{SelectQuery, Value};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use support::{oracle_rows, policy, sorted_rows, wifi_db, QUERIERS, REL};

fn loaded_service(options: SieveOptions) -> SieveService {
    let service = SieveService::new(wifi_db(3000, 80, false), options).unwrap();
    for (k, &querier) in QUERIERS.iter().enumerate() {
        for owner in 0..30i64 {
            service
                .add_policy(policy(owner, querier, "Analytics", 1001 + k as i64))
                .unwrap();
        }
    }
    service
}

/// K threads, one barrier, one cold key: exactly one generation fires,
/// all K results are row-identical, and the coalesced counter shows the
/// waiters actually took the single-flight path.
#[test]
fn cold_miss_stampede_generates_exactly_once() {
    const K: usize = 16;
    let service = loaded_service(SieveOptions::default());
    let qm = QueryMetadata::new(500, "Analytics");
    let q = SelectQuery::star_from(REL);

    // Oracle from a throwaway service (leaves the test service cold).
    let expect = sorted_rows(
        loaded_service(SieveOptions::default()).session(qm.clone()).execute_sql("SELECT * FROM wifi_dataset").unwrap(),
    );
    assert!(!expect.is_empty());

    let before = service.generations();
    assert_eq!(before, 0, "cache must be cold before the stampede");
    let barrier = Arc::new(Barrier::new(K));
    let mismatches = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|scope| {
        for _ in 0..K {
            let service = service.clone();
            let qm = qm.clone();
            let q = q.clone();
            let barrier = Arc::clone(&barrier);
            let expect = expect.clone();
            let mismatches = Arc::clone(&mismatches);
            scope.spawn(move || {
                barrier.wait();
                let rows = sorted_rows(service.execute(&q, &qm).unwrap());
                if rows != expect {
                    mismatches.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });

    assert_eq!(mismatches.load(Ordering::Relaxed), 0, "row drift in stampede");
    assert_eq!(
        service.generations() - before,
        1,
        "a K-thread cold-miss stampede must cost exactly one generation"
    );
    // Exactly one cold miss (the builder's publish); every other thread
    // lands a warm hit after waiting — threads that parked on the
    // in-flight claim additionally show up in `coalesced`.
    let stats = service.cache_stats();
    assert_eq!(stats.misses, 1, "stampede must cost one cold miss");
    assert_eq!(stats.hits as usize, K - 1, "non-builders must all end as hits");
    assert!(
        (stats.coalesced as usize) < K,
        "coalesced {} exceeds possible waiters",
        stats.coalesced
    );
}

/// The claim covers the whole build, not just generation: under
/// `DeltaMode::Always` (every guard registers a ∆ partition) the same
/// 16-thread stampede, repeated over fresh services, compiles the
/// fragment exactly once and leaves exactly one partition per guard.
#[test]
fn cold_miss_stampede_compiles_exactly_once() {
    const K: usize = 16;
    let qm = QueryMetadata::new(500, "Analytics");
    let q = SelectQuery::star_from(REL);
    for round in 0..10 {
        let mut options = SieveOptions::default();
        options.rewrite.delta_mode = DeltaMode::Always;
        let service = loaded_service(options);
        let barrier = Barrier::new(K);
        std::thread::scope(|scope| {
            for _ in 0..K {
                scope.spawn(|| {
                    barrier.wait();
                    service.execute(&q, &qm).unwrap();
                });
            }
        });
        let guards = service.guarded_expression(&qm, REL).unwrap().guards.len();
        assert_eq!(
            service.cache_stats().fragment_builds,
            1,
            "round {round}: the stampede must compile the fragment once"
        );
        assert_eq!(service.delta_len(), guards, "round {round}: leaked ∆ partitions");
    }
}

/// Distinct keys do not serialize: stampedes on all four queriers at
/// once still cost exactly one generation *per key*.
#[test]
fn distinct_keys_generate_independently() {
    const PER_KEY: usize = 6;
    let service = loaded_service(SieveOptions::default());
    let q = SelectQuery::star_from(REL);
    assert_eq!(service.generations(), 0);
    let barrier = Arc::new(Barrier::new(PER_KEY * QUERIERS.len()));

    std::thread::scope(|scope| {
        for &u in &QUERIERS {
            for _ in 0..PER_KEY {
                let service = service.clone();
                let q = q.clone();
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    service
                        .execute(&q, &QueryMetadata::new(u, "Analytics"))
                        .unwrap();
                });
            }
        }
    });

    assert_eq!(
        service.generations() as usize,
        QUERIERS.len(),
        "one generation per distinct cold key, no more"
    );
}

/// 16 threads send 16 different texts for one querier whose fragment is
/// cold. Every reply is the oracle's rows under that text's predicate, on
/// both backends; in process, where the plans hold the fragment's own
/// nodes, each shared node was bound once — by whichever plan met it
/// first — and the 15 other plans bound nothing of it. Across the wire a
/// node is its source text, and the far side binds what it parses.
#[test]
fn distinct_texts_bind_a_cold_fragment_once() {
    const K: i64 = 16;
    let qm = QueryMetadata::new(500, "Analytics");
    // Forty owners, each granting the access point their rows are at and
    // one more: a disjunction of guards, partitions of several policies.
    let db = wifi_db(3000, 80, false);
    for_each_backend(&db, &SieveOptions::default(), |backend, service| {
        for owner in 0..40i64 {
            for ap in [1000 + owner % 10, 1000 + (owner + 3) % 10] {
                service.add_policy(policy(owner, qm.querier, "Analytics", ap)).unwrap();
            }
        }
        let visible = oracle_rows(&service, REL, &qm);
        assert!(!visible.is_empty());
        assert_eq!(service.generations(), 0, "{backend}: the fragment must be cold");
        let barrier = Barrier::new(K as usize);
        std::thread::scope(|scope| {
            for k in 0..K {
                let (service, qm, barrier, visible) = (&service, &qm, &barrier, &visible);
                scope.spawn(move || {
                    let below = 150 * (k + 1);
                    let sql = format!("SELECT * FROM {REL} WHERE id < {below}");
                    barrier.wait();
                    let got = sorted_rows(service.execute_sql(&sql, qm).unwrap());
                    let want: Vec<_> =
                        visible.iter().filter(|row| row[0] < Value::Int(below)).cloned().collect();
                    assert_eq!(got, want, "{backend}: {sql}");
                });
            }
        });
        assert_eq!(service.generations(), 1, "{backend}: one generation");
        let out = service.rewrite(&SelectQuery::star_from(REL), &qm).unwrap();
        let [fragment] = out.fragments.as_slice() else { panic!("one protected relation") };
        let nodes: Vec<_> = std::iter::once(&fragment.disjunction)
            .chain(fragment.branches.iter().map(|b| &b.partition))
            .filter_map(|e| e.as_shared())
            .collect();
        assert!(nodes.len() > 1, "{backend}: the fixture must share its guard and partitions");
        let in_process = backend == "minidb";
        for node in nodes {
            assert_eq!(node.binds(), usize::from(in_process), "{backend}: {node:?}");
        }
    });
}
