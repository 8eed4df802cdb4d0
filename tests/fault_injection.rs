//! Fail-closed fault tolerance under injected backend failures.
//!
//! The contract under test, across both engines and any seeded fault
//! schedule:
//!
//! 1. **Fail closed** — a faulted call surfaces a typed [`SieveError`];
//!    it never returns the raw (un-rewritten) query's rows and never a
//!    partial row set. Every `Ok` is row-identical to the single-threaded
//!    no-fault oracle.
//! 2. **Typed recovery** — retryable faults are absorbed by the service's
//!    retry loop; lost server-side statements re-prepare exactly once per
//!    loss (no re-prepare storm), with the recovery visible in
//!    `recovery_stats()`.
//! 3. **No leaks** — after the chaos stops, vended statements and ∆
//!    partitions return to baseline.

mod support;

use sieve::core::backend::{Fault, FaultConfig, FaultInjectingBackend, SqlBackend};
use sieve::core::policy::QueryMetadata;
use sieve::core::{BackendError, SieveError, SieveOptions, SieveService};
use sieve::minidb::{Database, Row, SelectQuery};
use std::sync::Arc;
use support::{register_corpus, sorted_rows, QUERIERS, REL};

fn loaded_db() -> Database {
    support::wifi_db(2000, 80, true)
}

fn faulty_service<B: SqlBackend>(
    inner: B,
    config: FaultConfig,
) -> SieveService<FaultInjectingBackend<B>> {
    let service = SieveService::with_backend(
        FaultInjectingBackend::new(inner, config),
        SieveOptions::default(),
    )
    .unwrap();
    register_corpus(&service);
    service
}

/// Single-threaded visible-rows oracle for a querier, computed with
/// injection disabled.
fn oracle_for<B: SqlBackend>(
    service: &SieveService<FaultInjectingBackend<B>>,
    qm: &QueryMetadata,
) -> Vec<Row> {
    service.backend().set_enabled(false);
    let rows = support::oracle_rows(service, REL, qm);
    service.backend().set_enabled(true);
    rows
}

// ---------------------------------------------------------------------
// Typed-error and recovery-path unit tests
// ---------------------------------------------------------------------

/// A scripted connection drop is absorbed by the retry loop: the query
/// still returns the oracle rows and the reconnect is counted. The cached
/// guards survive it — a lost connection changes neither data nor policy
/// — so the next read generates nothing.
#[test]
fn connection_drop_is_retried_and_keeps_guards() {
    let service = faulty_service(loaded_db(), FaultConfig::default());
    let qm = QueryMetadata::new(500, "Analytics");
    let expect = oracle_for(&service, &qm);
    let q = SelectQuery::star_from(REL);
    assert_eq!(sorted_rows(service.execute(&q, &qm).unwrap()), expect);

    service.backend().script([Fault::ConnectionDrop]);
    let rows = sorted_rows(service.execute(&q, &qm).unwrap());
    assert_eq!(rows, expect, "retried query must still match the oracle");
    let stats = service.recovery_stats();
    assert_eq!(stats.reconnects, 1);
    assert!(stats.retries >= 1);
    assert_eq!(stats.exhausted, 0);
    let generations = service.generations();
    assert_eq!(sorted_rows(service.execute(&q, &qm).unwrap()), expect);
    assert_eq!(
        service.generations(),
        generations,
        "a lost connection regenerated guards"
    );
}

/// A transient streak longer than the retry budget fails closed with
/// `RetriesExhausted` carrying the attempt count and last error.
#[test]
fn transient_storm_exhausts_retries() {
    let service = faulty_service(loaded_db(), FaultConfig::default());
    let qm = QueryMetadata::new(500, "Analytics");
    let q = SelectQuery::star_from(REL);
    service.execute(&q, &qm).unwrap(); // warm: guards generated fault-free

    // Default policy is 3 retries ⇒ 4 attempts; script one transient per
    // attempt so every one fails.
    service
        .backend()
        .script([Fault::Transient, Fault::Transient, Fault::Transient, Fault::Transient]);
    match service.execute(&q, &qm) {
        Err(SieveError::RetriesExhausted { attempts, last }) => {
            assert_eq!(attempts, 4);
            assert!(matches!(last, BackendError::Transient(_)));
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
    assert_eq!(service.recovery_stats().exhausted, 1);
    // The streak over, the same query succeeds again.
    let expect = oracle_for(&service, &qm);
    assert_eq!(sorted_rows(service.execute(&q, &qm).unwrap()), expect);
}

/// A shorter transient streak is absorbed entirely.
#[test]
fn short_transient_streak_is_absorbed() {
    let service = faulty_service(loaded_db(), FaultConfig::default());
    let qm = QueryMetadata::new(500, "Analytics");
    let expect = oracle_for(&service, &qm);
    let q = SelectQuery::star_from(REL);
    service.execute(&q, &qm).unwrap();

    service.backend().script([Fault::Transient, Fault::Transient]);
    assert_eq!(sorted_rows(service.execute(&q, &qm).unwrap()), expect);
    let stats = service.recovery_stats();
    assert_eq!(stats.retries, 2);
    assert_eq!(stats.exhausted, 0);
}

/// Timeouts are a spent budget, not a hiccup: surfaced immediately as
/// `Backend(Timeout)`, never retried.
#[test]
fn timeout_is_not_retried() {
    let service = faulty_service(loaded_db(), FaultConfig::default());
    let qm = QueryMetadata::new(500, "Analytics");
    let q = SelectQuery::star_from(REL);
    service.execute(&q, &qm).unwrap();

    service.backend().script([Fault::Timeout]);
    match service.execute(&q, &qm) {
        Err(SieveError::Backend(BackendError::Timeout)) => {}
        other => panic!("expected Backend(Timeout), got {other:?}"),
    }
    let stats = service.recovery_stats();
    assert_eq!(stats.retries, 0, "a timeout must not be retried");
    assert_eq!(stats.exhausted, 0);
}

/// A failed rewrite (here: a protected relation the engine doesn't have)
/// fails closed with a typed error — the raw query is never dispatched.
#[test]
fn rewrite_failure_fails_closed() {
    let service = faulty_service(loaded_db(), FaultConfig::default());
    service.protect("shadow_records");
    let qm = QueryMetadata::new(500, "Analytics");
    let calls_before = service.backend().injectable_calls();
    let err = service
        .execute(&SelectQuery::star_from("shadow_records"), &qm)
        .unwrap_err();
    assert!(
        err.backend_error().is_some() || matches!(err, SieveError::Rewrite(_)),
        "unexpected error shape: {err:?}"
    );
    assert_eq!(
        service.backend().injectable_calls(),
        calls_before,
        "a failed rewrite must never reach the dispatch path"
    );
}

/// A catalog fault fails a cold build closed with the typed error; the
/// build dropped its claim, so the next read of the key builds at once
/// instead of parking behind it, heals, and serves oracle-exact rows.
#[test]
fn cold_build_fails_closed_on_a_catalog_fault() {
    let config = FaultConfig {
        fault_catalog: true,
        ..FaultConfig::default()
    };
    let service = faulty_service(loaded_db(), config);
    let q = SelectQuery::star_from(REL);
    let qm = QueryMetadata::new(QUERIERS[0], "Analytics");

    service.backend().script([Fault::Transient]);
    // Catalog reads feed guard generation and are deliberately not
    // retried: the build surfaces the typed error and publishes nothing.
    let err = service.rewrite(&q, &qm).unwrap_err();
    assert!(matches!(
        err,
        SieveError::Backend(BackendError::Transient(_))
    ));
    assert_eq!(service.generations(), 0, "a failed build published an entry");
    let (done, lookup) = std::sync::mpsc::channel();
    let (single, query, reader) = (service.clone(), q.clone(), qm.clone());
    std::thread::spawn(move || done.send(single.rewrite(&query, &reader).is_ok()));
    assert_eq!(
        lookup.recv_timeout(std::time::Duration::from_secs(10)),
        Ok(true),
        "a claim outlived the failed build"
    );

    // Script drained: enforcement is exact for every querier.
    for &u in &QUERIERS {
        let qm = QueryMetadata::new(u, "Analytics");
        assert_eq!(sorted_rows(service.execute(&q, &qm).unwrap()), oracle_for(&service, &qm));
    }
}

// ---------------------------------------------------------------------
// Statement-loss recovery
// ---------------------------------------------------------------------

/// The in-process engine pins plans under statement ids of its own, so an
/// injected eviction has a statement to evict there too: the execute in
/// flight sees `UnknownStatement`, the handle re-prepares exactly once and
/// returns the oracle's rows, and the engine holds one statement again.
#[test]
fn evicted_in_process_statement_reprepares_exactly_once() {
    let service = faulty_service(loaded_db(), FaultConfig::default());
    let session = service.session(QueryMetadata::new(500, "Analytics"));
    let expect = oracle_for(&service, session.metadata());
    let prepared = session.prepare(SelectQuery::star_from(REL)).unwrap();
    let id0 = prepared.statement_id();
    assert_eq!(sorted_rows(prepared.execute().unwrap()), expect);

    service.backend().script([Fault::EvictStatement]);
    assert_eq!(sorted_rows(prepared.execute().unwrap()), expect);
    let counts = service.backend().fault_counts();
    assert_eq!((counts.evictions, counts.transients), (1, 0), "the eviction found its statement");
    assert_eq!(prepared.reprepares(), 1);
    assert_eq!(service.recovery_stats().reprepares, 1);
    assert_ne!(prepared.statement_id(), id0);
    assert_eq!(service.backend().inner().open_statements(), 1);
    for _ in 0..3 {
        assert_eq!(sorted_rows(prepared.execute().unwrap()), expect);
    }
    assert_eq!(prepared.reprepares(), 1);
    drop(prepared);
    assert_eq!(service.backend().inner().open_statements(), 0);
}

/// Server-side statement eviction surfaces as `UnknownStatement` and the
/// `Prepared` handle re-prepares exactly once — also under a thread
/// storm, where every thread observed the same dead plan (single-flight).
#[test]
fn evicted_statement_reprepares_exactly_once() {
    use sieve::core::backend::WireSqlBackend;
    let service = faulty_service(WireSqlBackend::new(loaded_db()), FaultConfig::default());
    let session = service.session(QueryMetadata::new(500, "Analytics"));
    let expect = oracle_for(&service, session.metadata());
    let prepared = session.prepare(SelectQuery::star_from(REL)).unwrap();
    let id0 = prepared.statement_id();
    assert_eq!(sorted_rows(prepared.execute().unwrap()), expect);

    // Evict the statement behind the session's back, as a server restart
    // or DISCARD ALL would.
    service.backend().close_prepared(id0);
    let prepares_before = service.backend().inner().prepares();

    std::thread::scope(|s| {
        let prepared = &prepared;
        let expect = &expect;
        for _ in 0..4 {
            s.spawn(move || {
                for _ in 0..5 {
                    assert_eq!(&sorted_rows(prepared.execute().unwrap()), expect);
                }
            });
        }
    });
    assert_eq!(
        prepared.reprepares(),
        1,
        "one eviction must cause exactly one re-prepare, storm or not"
    );
    assert_eq!(
        service.backend().inner().prepares(),
        prepares_before + 1,
        "the server must have seen exactly one fresh Parse"
    );
    assert_ne!(prepared.statement_id(), id0);
    assert_eq!(service.recovery_stats().reprepares, 1);
}

/// A connection drop wipes the whole statement registry; the prepared
/// handle recovers through the `UnknownStatement` its retry meets, and the
/// statement count returns to exactly one.
#[test]
fn connection_drop_recovers_prepared_statements() {
    use sieve::core::backend::WireSqlBackend;
    let service = faulty_service(WireSqlBackend::new(loaded_db()), FaultConfig::default());
    let session = service.session(QueryMetadata::new(501, "Analytics"));
    let expect = oracle_for(&service, session.metadata());
    let prepared = session.prepare(SelectQuery::star_from(REL)).unwrap();
    assert_eq!(service.backend().inner().open_statements(), 1);

    // The drop fires on the next dispatch; the retry reaches the engine,
    // whose registry no longer knows the id, so the typed
    // UnknownStatement drives a re-prepare.
    service.backend().script([Fault::ConnectionDrop]);
    assert_eq!(sorted_rows(prepared.execute().unwrap()), expect);
    assert_eq!(prepared.reprepares(), 1);
    assert_eq!(
        service.backend().inner().open_statements(),
        1,
        "recovery must leave exactly the one live statement"
    );
    let stats = service.recovery_stats();
    assert_eq!(stats.reconnects, 1);
    assert_eq!(stats.reprepares, 1);

    drop(prepared);
    assert_eq!(service.backend().inner().open_statements(), 0);
    assert_eq!(service.backend().vended_statements(), 0);

    // `open_statements` reads the engine's statement table: a statement
    // closed through the seam leaves nothing there, and neither does one a
    // connection drop loses.
    let (backend, q) = (service.backend(), SelectQuery::star_from(REL));
    let id = backend.prepare(&q).unwrap();
    backend.close_prepared(id);
    assert_eq!(backend.inner().open_statements(), 0);
    backend.prepare(&q).unwrap();
    assert_eq!(backend.inner().open_statements(), 1);
    backend.script([Fault::ConnectionDrop]);
    assert!(backend.exec_timed(&q, &Default::default()).0.is_err());
    assert_eq!(backend.inner().open_statements(), 0);
}

// ---------------------------------------------------------------------
// Chaos hammer
// ---------------------------------------------------------------------

/// Seeds for the deterministic chaos schedules; override with
/// `SIEVE_FAULT_SEED=<n>` to replay a specific schedule.
fn chaos_seeds() -> Vec<u64> {
    if let Ok(s) = std::env::var("SIEVE_FAULT_SEED") {
        if let Ok(seed) = s.trim().parse::<u64>() {
            return vec![seed];
        }
    }
    vec![1, 7, 42, 1337]
}

/// Threads × sessions × prepared statements against a backend that
/// faults ~30% of dispatches: every `Ok` must be row-identical to the
/// no-fault oracle, every `Err` must be a typed `SieveError`, and after
/// the faults stop the service must heal completely and leak nothing.
fn chaos_hammer<B: SqlBackend>(service: SieveService<FaultInjectingBackend<B>>, label: &str) {
    let oracles: Vec<(QueryMetadata, Vec<Row>)> = QUERIERS
        .iter()
        .map(|&u| {
            let qm = QueryMetadata::new(u, "Analytics");
            let rows = oracle_for(&service, &qm);
            assert!(!rows.is_empty(), "oracle empty for querier {u}");
            (qm, rows)
        })
        .collect();
    let q = SelectQuery::star_from(REL);

    std::thread::scope(|s| {
        for (qm, expect) in &oracles {
            let service = service.clone();
            let q = &q;
            s.spawn(move || {
                let session = service.session(qm.clone());
                // Preparing itself may fault; it must either fail typed
                // or produce a working handle.
                let mut prepared = None;
                for _ in 0..100 {
                    match session.prepare(q.clone()) {
                        Ok(p) => {
                            prepared = Some(Arc::new(p));
                            break;
                        }
                        Err(_) => continue,
                    }
                }
                let prepared = prepared.expect("prepare never survived 100 attempts");
                for i in 0..40 {
                    let res = if i % 2 == 0 {
                        session.execute(q)
                    } else {
                        prepared.execute()
                    };
                    // Errors are fine (fail-closed: typed error, zero
                    // rows) — but every Ok must match the oracle.
                    if let Ok(r) = res {
                        let rows = sorted_rows(r);
                        assert_eq!(
                            &rows, expect,
                            "{label}: querier {} iter {i} returned wrong rows \
                             under faults",
                            qm.querier
                        );
                    }
                }
            });
        }
    });

    let counts = service.backend().fault_counts();
    assert!(
        counts.total() > 0,
        "{label}: schedule injected no faults — the hammer tested nothing"
    );

    // Recovery phase: faults off, everything must heal.
    service.backend().set_enabled(false);
    for (qm, expect) in &oracles {
        let rows = sorted_rows(service.execute(&q, qm).unwrap());
        assert_eq!(&rows, expect, "{label}: post-chaos result diverged");
    }
    // Prepared handles dropped with their threads: no statement leaked.
    assert_eq!(
        service.backend().vended_statements(),
        0,
        "{label}: statements leaked through the chaos"
    );
    // And the ∆ registry drains once the cache lets go.
    service.invalidate_all();
    assert_eq!(service.delta_len(), 0, "{label}: ∆ partitions leaked");
}

#[test]
fn chaos_hammer_minidb_backend() {
    for seed in chaos_seeds() {
        let config = FaultConfig::seeded(seed, 0.3);
        let service = faulty_service(loaded_db(), config);
        chaos_hammer(service, &format!("minidb/seed {seed}"));
    }
}

#[test]
fn chaos_hammer_wire_backend() {
    use sieve::core::backend::WireSqlBackend;
    for seed in chaos_seeds() {
        let config = FaultConfig::seeded(seed, 0.3);
        let service = faulty_service(WireSqlBackend::new(loaded_db()), config);
        chaos_hammer(service, &format!("wire/seed {seed}"));
    }
}

// ---------------------------------------------------------------------
// Property: fail-closed soundness over random fault schedules
// ---------------------------------------------------------------------

mod props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// For ANY seed and fault rate: no fault sequence can make an
        /// `Ok` result diverge from the visible-rows oracle, and once the
        /// faults stop the counters return to baseline.
        #[test]
        fn no_fault_schedule_breaks_soundness(
            seed in any::<u64>(),
            rate_pct in 0u32..60,
            ops in 10usize..40,
        ) {
            let rate = f64::from(rate_pct) / 100.0;
            let config = FaultConfig::seeded(seed, rate);
            let service = faulty_service(loaded_db(), config);
            let qm = QueryMetadata::new(500, "Analytics");
            let expect = oracle_for(&service, &qm);
            let q = SelectQuery::star_from(REL);
            let session = service.session(qm.clone());
            let mut prepared = None;
            for i in 0..ops {
                let res = match i % 3 {
                    0 => service.execute(&q, &qm),
                    1 => session.execute(&q),
                    _ => {
                        if prepared.is_none() {
                            prepared = session.prepare(q.clone()).ok();
                        }
                        match &prepared {
                            Some(p) => p.execute(),
                            None => continue,
                        }
                    }
                };
                if let Ok(r) = res {
                    prop_assert_eq!(
                        sorted_rows(r),
                        expect.clone(),
                        "Ok result diverged from oracle under seed {} rate {}",
                        seed,
                        rate
                    );
                }
            }
            // Faults off: the service heals...
            service.backend().set_enabled(false);
            prop_assert_eq!(sorted_rows(service.execute(&q, &qm).unwrap()), expect);
            // ...and nothing leaked.
            drop(prepared);
            prop_assert_eq!(service.backend().vended_statements(), 0);
            service.invalidate_all();
            prop_assert_eq!(service.delta_len(), 0);
        }
    }
}
