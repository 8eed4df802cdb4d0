//! A guard WITH body the query reads once is the read it guards: the
//! engine plans it as the reader's read of the protected relation, not as
//! a temp. Over the TIPPERS campus at a small scale, for one querier and
//! every Q1/Q2/Q3 × low/mid/high cell, what that read returns is what the
//! querier may see — also under a LIMIT of the reader's — and the guard's
//! shared nodes are bound against the body's own row, so one-shot
//! statements under any alias bind none of them again.

mod support;

use sieve::core::policy::QueryMetadata;
use sieve::core::{SieveOptions, SieveService};
use sieve::minidb::plan::TableSource;
use sieve::minidb::{Database, DbProfile, Row, SelectQuery, TableSchema};
use sieve::workload::policy_gen::{generate_policies, PolicyGenConfig};
use sieve::workload::query_gen::generate_query;
use sieve::workload::tippers::{generate as generate_tippers, TippersConfig};
use sieve::workload::{QueryClass, Selectivity, TippersDataset, UserProfile, WIFI_TABLE};

/// The rows the querier may see, as a table of their own.
const VISIBLE: &str = "wifi_visible";

fn campus() -> (SieveService, TippersDataset) {
    let mut db = Database::new(DbProfile::MySqlLike);
    let config = TippersConfig { scale: 0.01, ..TippersConfig::default() };
    let ds = generate_tippers(&mut db, &config).unwrap();
    let policies = generate_policies(&ds, &PolicyGenConfig::default());
    let service = SieveService::new(db, SieveOptions::default()).unwrap();
    service.with_groups_mut(|g| *g = ds.groups.clone());
    service.add_policies(policies).unwrap();
    service.protect(WIFI_TABLE);
    (service, ds)
}

/// The non-visitor device with the most relevant policies, and the rows it
/// may see copied into [`VISIBLE`].
fn querier(service: &SieveService, ds: &TippersDataset) -> QueryMetadata {
    let policies = service.policies();
    let id = ds
        .devices
        .iter()
        .filter(|d| d.profile != UserProfile::Visitor)
        .max_by_key(|d| {
            let qm = QueryMetadata::new(d.id, "Analytics");
            sieve::core::filter::relevant_policies(policies.iter(), WIFI_TABLE, &qm, service.store().groups()).len()
        })
        .unwrap()
        .id;
    let qm = QueryMetadata::new(id, "Analytics");
    let visible = support::oracle_rows(service, WIFI_TABLE, &qm);
    assert!(!visible.is_empty());
    service.with_db_mut(|db| {
        let columns = db.table(WIFI_TABLE).unwrap().schema().columns.clone();
        db.create_table(TableSchema::new(VISIBLE, columns)).unwrap();
        for row in visible {
            db.insert(VISIBLE, row).unwrap();
        }
    });
    qm
}

/// The oracle's answer to `query`: the unpoliced query over the visible
/// rows only, sorted.
fn expected(service: &SieveService, query: &SelectQuery) -> Vec<Row> {
    let mut over_visible = query.clone();
    for tref in &mut over_visible.from {
        if tref.source == TableSource::Named(WIFI_TABLE.into()) {
            tref.source = TableSource::Named(VISIBLE.into());
        }
    }
    let mut rows = service.db().run_query(&over_visible).unwrap().rows;
    rows.sort();
    rows
}

#[test]
fn a_guard_read_once_returns_the_visible_rows_of_every_cell() {
    let (service, ds) = campus();
    let qm = querier(&service, &ds);
    let session = service.session(qm.clone());
    let mut nonempty = 0;
    for class in QueryClass::ALL {
        for sel in Selectivity::ALL {
            let query = generate_query(&ds, class, sel, 7);
            let cell = format!("{class:?}-{sel:?}");
            let rewritten = session.rewrite(&query).unwrap();
            let explained = service.db().explain(&rewritten.query).unwrap();
            assert!(explained.ctes.is_empty(), "{cell}: the guard body was materialized:\n{explained}");
            let read = explained.relations.iter().find(|r| r.table == WIFI_TABLE).unwrap();
            if class == QueryClass::Q3 {
                assert_eq!(read.join.as_deref(), Some("IndexNestedLoop(owner)"), "{cell}:\n{explained}");
            }

            let want = expected(&service, &query);
            nonempty += usize::from(!want.is_empty());
            let got = support::sorted_rows(session.execute(&query).unwrap());
            assert_eq!(got, want, "{cell}");

            // Under the reader's LIMIT: as many rows as there are up to
            // it, every one of them visible.
            if class != QueryClass::Q3 {
                let limited = SelectQuery { limit: Some(5), ..query.clone() };
                let got = support::sorted_rows(session.execute(&limited).unwrap());
                assert_eq!(got.len(), want.len().min(5), "{cell} LIMIT 5");
                assert!(got.iter().all(|r| want.binary_search(r).is_ok()), "{cell} LIMIT 5");
            }
        }
    }
    assert!(nonempty >= 6, "only {nonempty} of 9 cells return rows");
}

/// The guard is bound against the body's row, named after the relation,
/// whatever the reader calls it: 100 one-shot statements, each its own
/// text under its own alias, bind none of the fragment's shared nodes
/// after the first has filled them.
#[test]
fn one_shot_statements_under_any_alias_bind_the_guard_once() {
    let (service, ds) = campus();
    let qm = querier(&service, &ds);
    let first = format!("SELECT * FROM {WIFI_TABLE} AS w WHERE w.ts_time >= '08:00'");
    service.execute_sql(&first, &qm).unwrap();
    let out = service.rewrite(&SelectQuery::star_from(WIFI_TABLE), &qm).unwrap();
    let [fragment] = out.fragments.as_slice() else { panic!("one protected relation") };
    let nodes: Vec<_> = std::iter::once(&fragment.disjunction)
        .chain(fragment.branches.iter().map(|b| &b.partition))
        .filter_map(|e| e.as_shared())
        .collect();
    let before: Vec<usize> = nodes.iter().map(|n| n.binds()).collect();
    assert_eq!(before[0], 1, "the first statement fills the disjunction");
    for k in 0..100 {
        let alias = format!("a{k}");
        let sql = format!(
            "SELECT * FROM {WIFI_TABLE} AS {alias} WHERE {alias}.ts_time >= '{:02}:{:02}'",
            k % 24,
            k % 60
        );
        service.execute_sql(&sql, &qm).unwrap();
    }
    let after: Vec<usize> = nodes.iter().map(|n| n.binds()).collect();
    assert_eq!(after, before, "a one-shot statement bound the guard again");
}
