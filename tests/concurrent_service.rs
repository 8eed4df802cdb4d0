//! Concurrency correctness for the shared-`&self` middleware.
//!
//! The contract under test: N threads driving M sessions against ONE
//! `SieveService` — with policy insertions, out-of-band data loads and
//! prepared-statement reuse interleaved — must return **exactly** the
//! rows the single-threaded oracle returns. Enforcement under contention
//! is not allowed to leak a row, drop a row, or serve a guard that
//! predates a returned `add_policy`, group swap or out-of-band write.

mod support;

use sieve::core::cost::CostModel;
use sieve::core::guard::{generate_guarded_expression, GuardSelectionStrategy};
use sieve::core::policy::{Policy, QuerierSpec, QueryMetadata, PURPOSE_ANY};
use sieve::core::{backend::for_each_backend, GroupDirectory, Session, SieveOptions, SieveService};
use sieve::minidb::{Database, Row, SelectQuery, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use support::{policy, register_corpus, sorted_rows, QUERIERS, REL};

fn loaded_db() -> Database {
    support::wifi_db(4000, 80, true)
}

fn loaded_service() -> SieveService {
    let service = SieveService::new(loaded_db(), SieveOptions::default()).unwrap();
    register_corpus(&service);
    service
}

/// Single-threaded expected rows for a querier, straight from the policy
/// algebra oracle (no middleware involved).
fn oracle_for(service: &SieveService, qm: &QueryMetadata) -> Vec<Row> {
    support::oracle_rows(service, REL, qm)
}

/// N threads × M sessions hammering one service: every single result must
/// be row-identical to the single-threaded oracle, on both backends.
#[test]
fn hammer_threads_and_sessions_match_single_threaded_oracle() {
    let options = SieveOptions::default();
    for_each_backend(&loaded_db(), &options, |backend_name, service| {
        register_corpus(&service);
        // Oracles computed up front, single-threaded.
        let oracles: Vec<(QueryMetadata, Vec<Row>)> = QUERIERS
            .iter()
            .map(|&u| {
                let qm = QueryMetadata::new(u, "Analytics");
                let rows = support::oracle_rows(&service, REL, &qm);
                assert!(!rows.is_empty(), "oracle empty for querier {u}");
                (qm, rows)
            })
            .collect();
        let q = SelectQuery::star_from(REL);
        // Warm the cache single-threaded so the storm below exercises the
        // concurrent *hit* path with a deterministic generation count.
        for (qm, _) in &oracles {
            service.execute(&q, qm).unwrap();
        }
        assert_eq!(service.generations(), QUERIERS.len() as u64);
        std::thread::scope(|s| {
            for t in 0..4usize {
                let service = service.clone();
                let oracles = &oracles;
                let q = &q;
                s.spawn(move || {
                    // Each thread drives every querier's session — maximal
                    // cross-thread sharing of the same cache keys.
                    let sessions: Vec<(Session<_>, &Vec<Row>)> = oracles
                        .iter()
                        .map(|(qm, expect)| (service.session(qm.clone()), expect))
                        .collect();
                    for i in 0..12 {
                        for (session, expect) in &sessions {
                            let rows = sorted_rows(session.execute(q).unwrap());
                            assert_eq!(
                                &rows, *expect,
                                "thread {t} iter {i} diverged on {backend_name} for \
                                 querier {}",
                                session.metadata().querier
                            );
                        }
                    }
                });
            }
        });
        // The shared cache served all threads: one generation per
        // querier, zero spurious regenerations under contention.
        assert_eq!(service.generations(), QUERIERS.len() as u64);
    });
}

/// A policy inserted concurrently with a query storm: every observed
/// result is either the pre-insert or the post-insert row set (a query is
/// atomic w.r.t. the insert), and any query that *starts after
/// `add_policy` returned* must see the post set — no stale guards.
#[test]
fn interleaved_add_policy_is_never_served_stale() {
    let service = loaded_service();
    let qm = QueryMetadata::new(500, "Analytics");
    let pre = oracle_for(&service, &qm);
    // Owner 71 at AP 1001 (owner 71 ⇒ id%10 == 1 ⇒ rows at AP 1001 exist).
    let extra = policy(71, 500, "Analytics", 1001);
    let post = {
        // Compute the post-insert oracle on a scratch clone of the state.
        let scratch = loaded_service();
        scratch.add_policy(extra.clone()).unwrap();
        oracle_for(&scratch, &qm)
    };
    assert!(post.len() > pre.len());

    let inserted = AtomicBool::new(false);
    let q = SelectQuery::star_from(REL);
    std::thread::scope(|s| {
        for _ in 0..3 {
            let service = service.clone();
            let (inserted, q, qm, pre, post) = (&inserted, &q, &qm, &pre, &post);
            s.spawn(move || {
                let session = service.session(qm.clone());
                loop {
                    let started_after_insert = inserted.load(Ordering::SeqCst);
                    let rows = sorted_rows(session.execute(q).unwrap());
                    if started_after_insert {
                        assert_eq!(&rows, post, "stale guard served after add_policy returned");
                        return; // saw the final state — done
                    }
                    assert!(
                        &rows == pre || &rows == post,
                        "result is neither pre- nor post-insert set (len {})",
                        rows.len()
                    );
                }
            });
        }
        // Let the readers warm the cache, then insert mid-storm.
        let warmup = sorted_rows(service.execute(&q, &qm).unwrap());
        assert_eq!(warmup, pre);
        service.add_policy(extra.clone()).unwrap();
        inserted.store(true, Ordering::SeqCst);
    });
    // Quiesced: the final state is exactly the post oracle.
    assert_eq!(sorted_rows(service.execute(&q, &qm).unwrap()), post);
    assert_eq!(oracle_for(&service, &qm), post);
}

/// A grant racing a placement is never lost. One writer grants fresh
/// owners back to back while four readers of the same key keep bringing
/// it current — each bare grant shares nothing with the querier's
/// policies, so the builds place rather than regenerate. A grant swept
/// into the entry after a build read its pending list must survive that
/// build's publish: every read that starts after `add_policy` returns
/// sees every row of every owner granted so far.
#[test]
fn grants_racing_placement_are_never_lost() {
    const OWNERS: std::ops::Range<i64> = 20..80;
    let service = loaded_service();
    let qm = QueryMetadata::new(500, "Analytics");
    let q = SelectQuery::star_from(REL);
    // Rows per owner: a bare grant makes exactly these visible.
    let all = sorted_rows(service.db().run_query(&q).unwrap());
    let owned =
        |rows: &[Row], owner: i64| rows.iter().filter(|r| r[1] == Value::Int(owner)).count();
    service.execute(&q, &qm).unwrap();
    let granted = std::sync::atomic::AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        for t in 0..4 {
            let service = service.clone();
            let (q, qm, granted, done, all) = (&q, &qm, &granted, &done, &all);
            s.spawn(move || {
                let session = service.session(qm.clone());
                while !done.load(Ordering::SeqCst) {
                    let n = granted.load(Ordering::SeqCst);
                    let rows = sorted_rows(session.execute(q).unwrap());
                    for owner in OWNERS.start..OWNERS.start + n as i64 {
                        assert_eq!(
                            owned(&rows, owner),
                            owned(all, owner),
                            "reader {t}: owner {owner}'s grant returned, its rows are missing"
                        );
                    }
                }
            });
        }
        for owner in OWNERS {
            let grant = Policy::new(owner, REL, QuerierSpec::User(500), "Analytics", vec![]);
            service.add_policy(grant).unwrap();
            granted.fetch_add(1, Ordering::SeqCst);
        }
        done.store(true, Ordering::SeqCst);
    });
    assert_eq!(sorted_rows(service.execute(&q, &qm).unwrap()), oracle_for(&service, &qm));
    assert!(service.cache_stats().extensions > 0, "the builds placed grants");
}

/// An out-of-band write racing grants and reads is never served stale. One
/// thread grants querier 500 fresh owners and reads after each grant, so
/// its builds place or generate; meanwhile writes insert rows across every
/// owner and access point and re-analyze the table, back to back. After
/// each write returns, the key serves exactly what Algorithm 1 generates
/// over the policies it covers on the table as it now is, estimates
/// included: an entry built from the data before the write would carry
/// the old estimates.
#[test]
fn out_of_band_writes_are_never_served_stale() {
    const OWNERS: std::ops::Range<i64> = 20..80;
    const MIN_WRITES: i64 = 24;
    let service = loaded_service();
    let qm = QueryMetadata::new(500, "Analytics");
    let q = SelectQuery::star_from(REL);
    service.execute(&q, &qm).unwrap();
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            let session = service.session(qm.clone());
            for owner in OWNERS {
                let grant = Policy::new(owner, REL, QuerierSpec::User(500), "Analytics", vec![]);
                service.add_policy(grant).unwrap();
                session.execute(&q).unwrap();
            }
            done.store(true, Ordering::SeqCst);
        });
        for write in 0i64.. {
            if write >= MIN_WRITES && done.load(Ordering::SeqCst) {
                break;
            }
            service.with_db_mut(|db| {
                for i in 0..40i64 {
                    let id = 1_000_000 + write * 40 + i;
                    let ap = 1000 + (write + i) % 10;
                    let row = vec![
                        Value::Int(id),
                        Value::Int(i * 2),
                        Value::Int(ap),
                        Value::Time(0),
                    ];
                    db.insert(REL, row).unwrap();
                }
                db.analyze(REL).unwrap();
            });
            let served = service.guarded_expression(&qm, REL).unwrap();
            let generated = {
                let (store, db) = (service.store(), service.db());
                let mut ids: Vec<_> = served
                    .guards
                    .iter()
                    .flat_map(|g| g.policies.clone())
                    .collect();
                ids.sort_unstable();
                ids.dedup();
                let covered: Vec<&Policy> = ids.iter().map(|id| store.get(*id).unwrap()).collect();
                let (entry, cost) = (db.table(REL).unwrap(), CostModel::default());
                let strategy = GuardSelectionStrategy::CostOptimal;
                generate_guarded_expression(&covered, entry, &cost, strategy, 500, "Analytics", REL)
            };
            assert_eq!(
                served, generated,
                "write {write}: a guard built before the write was served"
            );
        }
    });
    assert_eq!(
        sorted_rows(service.execute(&q, &qm).unwrap()),
        oracle_for(&service, &qm)
    );
}

/// A membership change racing cold and warm builds is never served stale.
/// Querier 600 holds one grant of its own and, through groups 10..58, one
/// group grant per owner 20..68. Each round a writer swaps in
/// directories, back to back, that drop 600 from one more of those groups
/// each time, while readers of 600's keys keep reading: two on one purpose
/// (warm between swaps), two on a fresh purpose per read (every read a
/// cold build). A read that starts after `with_groups_mut` returns may not
/// see a row of any owner whose group 600 has left, and no read sees a row
/// no grant of 600 ever held.
#[test]
fn group_membership_swaps_are_never_served_stale() {
    const QUERIER: i64 = 600;
    const GROUPS: std::ops::Range<i64> = 10..58;
    let owner_of = |group: i64| group + 10;
    let directory = |left: i64| {
        let mut dir = GroupDirectory::new();
        for g in GROUPS {
            dir.add_member(g, 601);
            if g >= GROUPS.start + left {
                dir.add_member(g, QUERIER);
            }
        }
        dir
    };
    let service = loaded_service();
    let own = Policy::new(5, REL, QuerierSpec::User(QUERIER), PURPOSE_ANY, vec![]);
    service.add_policy(own).unwrap();
    for g in GROUPS {
        let grant = Policy::new(owner_of(g), REL, QuerierSpec::Group(g), PURPOSE_ANY, vec![]);
        service.add_policy(grant).unwrap();
    }
    let q = SelectQuery::star_from(REL);
    let all = sorted_rows(service.db().run_query(&q).unwrap());
    let owned =
        |rows: &[Row], owner: i64| rows.iter().filter(|r| r[1] == Value::Int(owner)).count();
    let granted =
        |r: &Row| r[1] == Value::Int(5) || GROUPS.map(owner_of).any(|o| r[1] == Value::Int(o));
    let qm = QueryMetadata::new(QUERIER, "Analytics");
    for round in 0..8 {
        service.with_groups_mut(|g| *g = directory(0));
        let left = std::sync::atomic::AtomicI64::new(0);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            for t in 0..4 {
                let service = service.clone();
                let (q, left, done, all) = (&q, &left, &done, &all);
                s.spawn(move || {
                    for read in 0u64.. {
                        if done.load(Ordering::SeqCst) {
                            return;
                        }
                        let purpose = match t % 2 {
                            0 => "Analytics".to_string(),
                            _ => format!("p{round}.{t}.{read}"),
                        };
                        let gone = left.load(Ordering::SeqCst);
                        let qm = QueryMetadata::new(QUERIER, purpose);
                        let rows = sorted_rows(service.execute(q, &qm).unwrap());
                        assert_eq!(owned(&rows, 5), owned(all, 5), "reader {t}: its own grant");
                        for g in GROUPS.start..GROUPS.start + gone {
                            assert_eq!(
                                owned(&rows, owner_of(g)),
                                0,
                                "round {round}, reader {t}: group {g} was left, its grant served"
                            );
                        }
                        assert!(rows.iter().all(granted), "reader {t}: a row no grant held");
                    }
                });
            }
            for n in 1..=GROUPS.end - GROUPS.start {
                service.with_groups_mut(|g| *g = directory(n));
                left.store(n, Ordering::SeqCst);
            }
            done.store(true, Ordering::SeqCst);
        });
        // Quiesced: every group left, only the querier's own grant.
        let rows = sorted_rows(service.execute(&q, &qm).unwrap());
        assert_eq!(rows, oracle_for(&service, &qm), "round {round}");
        assert_eq!(rows.len(), owned(&all, 5), "round {round}");
    }
}

/// `Prepared` lifecycle: while nothing changes, execute skips re-rewrites
/// entirely; a revision bump — an out-of-band insert or an add_policy —
/// transparently re-prepares, and the replayed results are correct each
/// time.
#[test]
fn prepared_statement_reprepares_on_revision_bumps() {
    let service = loaded_service();
    let session = service.session(QueryMetadata::new(500, "Analytics"));
    let q = SelectQuery::star_from(REL);
    let prepared = session.prepare(q.clone()).unwrap();
    let n0 = prepared.execute().unwrap().len();
    assert_eq!(n0, oracle_for(&service, session.metadata()).len());
    prepared.execute().unwrap();
    prepared.execute().unwrap();
    assert_eq!(prepared.reprepares(), 0, "fresh plan must be replayed as-is");

    // Out-of-band data load → revision bump → transparent re-prepare AND
    // the new rows enforced + visible.
    let revision = service.revision();
    service.with_db_mut(|db| {
        for i in 0..5i64 {
            db.insert(
                REL,
                vec![
                    Value::Int(100_000 + i),
                    Value::Int(0),
                    Value::Int(1001),
                    Value::Time(0),
                ],
            )
            .unwrap();
        }
    });
    assert_eq!(service.revision(), revision + 1);
    let n1 = prepared.execute().unwrap().len();
    assert_eq!(n1, n0 + 5, "re-prepared plan must see the out-of-band rows");
    assert_eq!(prepared.reprepares(), 1);
    prepared.execute().unwrap();
    assert_eq!(prepared.reprepares(), 1, "one bump, one re-prepare");

    // Policy insert → revision bump → re-prepare with the wider guard.
    service.add_policy(policy(71, 500, "Analytics", 1001)).unwrap();
    let n2 = prepared.execute().unwrap().len();
    assert!(n2 > n1, "new policy must widen the prepared statement's view");
    assert_eq!(n2, oracle_for(&service, session.metadata()).len());
    assert_eq!(prepared.reprepares(), 2);
}

/// One `Prepared` handle shared (via `Arc`) by several threads: all
/// replays agree with the oracle and no re-prepare happens while the
/// world is unchanged.
#[test]
fn prepared_statement_is_shareable_across_threads() {
    let service = loaded_service();
    let session = service.session(QueryMetadata::new(501, "Analytics"));
    let expect = oracle_for(&service, session.metadata());
    let prepared = Arc::new(session.prepare(SelectQuery::star_from(REL)).unwrap());
    std::thread::scope(|s| {
        for _ in 0..4 {
            let prepared = Arc::clone(&prepared);
            let expect = &expect;
            s.spawn(move || {
                for _ in 0..10 {
                    assert_eq!(&sorted_rows(prepared.execute().unwrap()), expect);
                }
            });
        }
    });
    assert_eq!(prepared.reprepares(), 0);
}

/// On a wire backend, a `Prepared` handle pins a server-side statement:
/// warm executes ship no SQL text, a revision bump swaps in a fresh
/// statement (closing the stale one once its plan drops), and dropping
/// the handle closes its statement.
#[test]
fn prepared_pins_and_recycles_wire_statements() {
    use sieve::core::backend::WireSqlBackend;
    let service =
        SieveService::with_backend(WireSqlBackend::new(loaded_db()), SieveOptions::default())
            .unwrap();
    register_corpus(&service);
    let session = service.session(QueryMetadata::new(500, "Analytics"));
    // The un-prepared path ships the rewritten query as SQL text: one
    // wire round trip per execute.
    let trips = service.backend().round_trips();
    for _ in 0..5 {
        session.execute(&SelectQuery::star_from(REL)).unwrap();
    }
    assert_eq!(
        service.backend().round_trips(),
        trips + 5,
        "un-prepared executes must cross the wire as text"
    );
    let prepared = session.prepare(SelectQuery::star_from(REL)).unwrap();
    let id0 = prepared.statement_id();
    assert_eq!(service.backend().open_statements(), 1);
    let n0 = prepared.execute().unwrap().len();
    assert!(n0 > 0);
    let trips = service.backend().round_trips();
    for _ in 0..10 {
        assert_eq!(prepared.execute().unwrap().len(), n0);
    }
    assert_eq!(
        service.backend().round_trips(),
        trips,
        "warm prepared executes must not ship SQL text across the wire"
    );
    // Revision bump → transparent re-prepare under a fresh statement id;
    // the stale statement closes when the old plan's last holder drops.
    service.add_policy(policy(71, 500, "Analytics", 1001)).unwrap();
    let n1 = prepared.execute().unwrap().len();
    assert!(n1 > n0, "new policy must widen the prepared statement's view");
    let id1 = prepared.statement_id();
    assert_ne!(id0, id1, "re-prepare must produce a fresh statement");
    assert_eq!(
        service.backend().open_statements(),
        1,
        "the stale statement must have been closed server-side"
    );
    drop(prepared);
    assert_eq!(
        service.backend().open_statements(),
        0,
        "dropping the handle must close its statement"
    );
}

/// 4 threads × 8 `execute_sql` of one text: every call parses the text
/// and returns the oracle's count.
#[test]
fn concurrent_execute_sql_matches_the_oracle() {
    let service = loaded_service();
    let sql = "SELECT COUNT(*) AS n FROM wifi_dataset WHERE wifi_ap = 1001";
    let expect = {
        let qm = QueryMetadata::new(500, "Analytics");
        oracle_for(&service, &qm).len() as i64
    };
    std::thread::scope(|s| {
        for _ in 0..4 {
            let service = service.clone();
            s.spawn(move || {
                let qm = QueryMetadata::new(500, "Analytics");
                for _ in 0..8 {
                    let res = service.execute_sql(sql, &qm).unwrap();
                    assert_eq!(res.rows[0][0].as_int().unwrap(), expect);
                }
            });
        }
    });
}

/// The `with_*_mut` closures are the only out-of-band mutation path and
/// need no exclusive ownership: with clones and sessions alive they still
/// run, the revision bump is visible through every handle, and a session
/// created before the write sees the rows it added.
#[test]
fn mut_closures_run_with_live_clones_and_sessions() {
    let service = loaded_service();
    let clone = service.clone();
    let session = clone.session(QueryMetadata::new(500, "Analytics"));
    let q = SelectQuery::star_from(REL);
    let n0 = session.execute(&q).unwrap().len();
    let revision = clone.revision();
    service.with_db_mut(|db| {
        db.insert(
            REL,
            vec![Value::Int(100_000), Value::Int(0), Value::Int(1001), Value::Time(0)],
        )
        .unwrap();
    });
    assert_eq!(clone.revision(), revision + 1);
    let rows = sorted_rows(session.execute(&q).unwrap());
    assert_eq!(rows.len(), n0 + 1);
    assert_eq!(rows, oracle_for(&service, session.metadata()));
}
