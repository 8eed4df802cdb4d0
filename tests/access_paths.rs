//! The two access-path decisions of a guarded read, end to end over the
//! TIPPERS campus at a small scale, through `Session` with the default
//! options, pinned by counters that repeat exactly: a query whose
//! conjuncts are selective only together is read through an index
//! intersection (and the middleware's IndexQuery is that very plan); a
//! query with one selective conjunct keeps its single probe; and whatever
//! drives the read, a fetched row is checked against the guard that
//! matches it, not against every guard in turn.

mod support;

use sieve::core::cost::AccessStrategy;
use sieve::core::policy::QueryMetadata;
use sieve::core::rewrite::RewriteOptions;
use sieve::core::{Session, SieveOptions, SieveService};
use sieve::minidb::{
    Counters, Database, DbProfile, ExecOptions, ExplainOutput, RelationPlan, Row, SelectQuery,
};
use sieve::workload::policy_gen::{generate_policies, PolicyGenConfig};
use sieve::workload::query_gen::generate_query;
use sieve::workload::tippers::{generate as generate_tippers, TippersConfig};
use sieve::workload::{QueryClass, Selectivity, TippersDataset, UserProfile, WIFI_TABLE};

fn campus(options: SieveOptions) -> (SieveService, TippersDataset) {
    let mut db = Database::new(DbProfile::MySqlLike);
    let config = TippersConfig { scale: 0.01, ..TippersConfig::default() };
    let ds = generate_tippers(&mut db, &config).unwrap();
    let policies = generate_policies(&ds, &PolicyGenConfig::default());
    let service = SieveService::new(db, options).unwrap();
    service.with_groups_mut(|g| *g = ds.groups.clone());
    service.add_policies(policies).unwrap();
    service.protect(WIFI_TABLE);
    (service, ds)
}

/// What one guarded execution returned and what the engine did for it.
struct Run {
    strategy: AccessStrategy,
    /// The engine's EXPLAIN label for the guarded read of the relation.
    access: String,
    rows: Vec<Row>,
    counters: Counters,
}

/// The guarded relation's row of an EXPLAIN: its guard body is read once,
/// so it is no temp but the read of the base table itself.
fn merged_read(explained: &ExplainOutput) -> &RelationPlan {
    assert!(explained.ctes.is_empty(), "the guard body was materialized:\n{explained}");
    explained.relations.iter().find(|r| r.table == WIFI_TABLE).unwrap()
}

fn run(session: &Session, query: &SelectQuery) -> Run {
    let service = session.service();
    let rewritten = session.rewrite(query).unwrap();
    let explained = service.db().explain(&rewritten.query).unwrap();
    let (res, stats) = service.db().run_timed(&rewritten.query, &ExecOptions::default());
    Run {
        strategy: rewritten.relations[0].strategy,
        access: merged_read(&explained).access_desc.clone(),
        rows: support::sorted_rows(res.unwrap()),
        counters: stats.counters,
    }
}

#[test]
fn guarded_reads_take_the_path_the_query_asks_for() {
    let (service, ds) = campus(SieveOptions::default());
    let policies = service.policies();
    let querier = ds
        .devices
        .iter()
        .filter(|d| d.profile != UserProfile::Visitor)
        .max_by_key(|d| {
            let qm = QueryMetadata::new(d.id, "Analytics");
            sieve::core::filter::relevant_policies(policies.iter(), WIFI_TABLE, &qm, service.store().groups()).len()
        })
        .unwrap()
        .id;
    let qm = QueryMetadata::new(querier, "Analytics");
    let session = service.session(qm.clone());
    let table_rows = service.db().table(WIFI_TABLE).unwrap().table.len() as u64;
    let visible = support::oracle_rows(&service, WIFI_TABLE, &qm);
    // The oracle's reply to a single-relation `SELECT *`: the user's query
    // over the unprotected relation, cut down to the visible rows.
    let expected = |query: &SelectQuery| -> Vec<Row> {
        let mut rows = service.db().run_query(query).unwrap().rows;
        rows.retain(|r| visible.binary_search(r).is_ok());
        rows.sort();
        rows
    };

    // Q1-mid: eight access points, five hours, a month. No one conjunct
    // is selective (the access points alone match an eighth of the table)
    // but two together are, and walking the third's postings would cost
    // more than the fetches it saves.
    let q1 = generate_query(&ds, QueryClass::Q1, Selectivity::Mid, 7);
    let r1 = run(&session, &q1);
    assert_eq!(r1.rows, expected(&q1));
    assert!(!r1.rows.is_empty());
    assert_eq!(r1.strategy, AccessStrategy::IndexQuery);
    // The two probed conjuncts are decided; the time window and the guard
    // are what a fetched row is checked against.
    assert_eq!(r1.access, "IndexIntersect(wifi_ap ∩ ts_date, recheck 2 of 4)");
    assert_eq!(r1.counters.index_probes, 8 + 1);
    // Before intersection this was a scan: 40,152 tuples at this scale.
    assert!(
        r1.counters.tuples_read * 10 < table_rows,
        "read {} of {table_rows}",
        r1.counters.tuples_read
    );

    // Q2-low: eight devices, two hours, a week. The device list is
    // selective by itself; the plan is the single probe it always was, to
    // the tuple.
    let q2 = generate_query(&ds, QueryClass::Q2, Selectivity::Low, 7);
    let r2 = run(&session, &q2);
    assert_eq!(r2.rows, expected(&q2));
    assert_eq!(r2.strategy, AccessStrategy::IndexQuery);
    assert_eq!(r2.access, "IndexScan(owner, recheck 3 of 4)");
    assert_eq!((r2.counters.index_probes, r2.counters.tuples_read), (8, 561));

    // Guard-driven reads of the same two statements, on a campus whose
    // service forces them: each fetched row is compared with the guard
    // heads once, not guard by guard (25 guards: 25.7 and 25.0 evaluations
    // per tuple before keyed dispatch).
    let rewrite = RewriteOptions { forced_strategy: Some(AccessStrategy::IndexGuards), ..Default::default() };
    let (forced, _) = campus(SieveOptions { rewrite, ..Default::default() });
    let forced = forced.session(qm);
    for q in [&q1, &q2] {
        let r = run(&forced, q);
        assert_eq!(r.rows, expected(q));
        assert_eq!(r.strategy, AccessStrategy::IndexGuards);
        assert!(r.access.starts_with("IndexUnion("), "{}", r.access);
        assert!(
            r.counters.predicate_evals < 5 * r.counters.tuples_read,
            "{} evaluations over {} tuples",
            r.counters.predicate_evals,
            r.counters.tuples_read
        );
    }
}
