//! Shared fixtures and the reference oracle for the integration suites.
//! Each `tests/*.rs` crate pulls this in with `mod support;` and uses the
//! subset it needs (hence the blanket `dead_code` allow).
#![allow(dead_code)]

use sieve::core::baselines::Baseline;
use sieve::core::policy::{CondPredicate, ObjectCondition, Policy, QuerierSpec, QueryMetadata};
use sieve::core::semantics::visible_rows;
use sieve::core::{Enforcement, SieveService, SqlBackend};
use sieve::minidb::plan::TableSource;
use sieve::minidb::value::DataType;
use sieve::minidb::{Database, DbProfile, QueryResult, Row, SelectQuery, TableSchema, Value};

/// The protected relation of the synthetic fixture.
pub const REL: &str = "wifi_dataset";
/// Queriers covered by [`register_corpus`]; each sees a distinct AP slice.
pub const QUERIERS: [i64; 4] = [500, 501, 502, 503];

/// The synthetic `wifi_dataset(id, owner, wifi_ap[, ts_time])` table on a
/// MySQL-profile engine: row `i` belongs to owner `i % owners` at AP
/// `1000 + i % 10`, every non-id column is indexed, histograms analyzed.
pub fn wifi_db(rows: i64, owners: i64, ts_time: bool) -> Database {
    let mut columns = vec![
        ("id", DataType::Int),
        ("owner", DataType::Int),
        ("wifi_ap", DataType::Int),
    ];
    if ts_time {
        columns.push(("ts_time", DataType::Time));
    }
    let mut db = Database::new(DbProfile::MySqlLike);
    db.create_table(TableSchema::of(REL, &columns)).unwrap();
    for i in 0..rows {
        let mut row = vec![
            Value::Int(i),
            Value::Int(i % owners),
            Value::Int(1000 + i % 10),
        ];
        if ts_time {
            row.push(Value::Time(((i * 53) % 86400) as u32));
        }
        db.insert(REL, row).unwrap();
    }
    for (col, _) in &columns[1..] {
        db.create_index(REL, col).unwrap();
    }
    db.analyze(REL).unwrap();
    db
}

/// `owner` lets `querier` read their rows at access point `ap`.
pub fn policy(owner: i64, querier: i64, purpose: &str, ap: i64) -> Policy {
    Policy::new(
        owner,
        REL,
        QuerierSpec::User(querier),
        purpose,
        vec![ObjectCondition::new(
            "wifi_ap",
            CondPredicate::Eq(Value::Int(ap)),
        )],
    )
}

/// Register the corpus: querier 500+k reads owners 0..20 at AP 1001+k.
pub fn register_corpus<B: SqlBackend>(service: &SieveService<B>) {
    for (k, &querier) in QUERIERS.iter().enumerate() {
        for owner in 0..20i64 {
            service
                .add_policy(policy(owner, querier, "Analytics", 1001 + k as i64))
                .unwrap();
        }
    }
}

/// A result's rows in canonical order, for order-insensitive comparison.
pub fn sorted_rows(res: QueryResult) -> Vec<Row> {
    let mut rows = res.rows;
    rows.sort();
    rows
}

/// The reference oracle: the rows of `relation` the policy algebra lets
/// `qm` see, sorted — straight from `relevant_policies` + `visible_rows`
/// over the service's own store, groups and data; no guard, rewrite or
/// cache involved.
pub fn oracle_rows<B: SqlBackend>(
    service: &SieveService<B>,
    relation: &str,
    qm: &QueryMetadata,
) -> Vec<Row> {
    let policies = service.policies();
    let relevant: Vec<&Policy> =
        sieve::core::filter::relevant_policies(policies.iter(), relation, qm, service.store().groups());
    let mut rows = visible_rows(&*service.backend(), relation, &relevant).unwrap();
    rows.sort();
    rows
}

/// The visible database: a copy of the service's tables and indexes in
/// which `relation` holds exactly the rows [`oracle_rows`] lets `qm` see.
/// The original, unrewritten query run here gives its expected answer
/// whatever its shape (joins, aggregates, nesting).
pub fn visible_database<B: SqlBackend>(
    service: &SieveService<B>,
    relation: &str,
    qm: &QueryMetadata,
) -> Database {
    let visible = oracle_rows(service, relation, qm);
    let backend = service.backend();
    let db = backend.minidb().expect("the backend runs an in-process engine");
    let mut out = Database::new(db.profile());
    for name in db.table_names() {
        let entry = db.table(name).unwrap();
        out.create_table(TableSchema::clone(entry.schema())).unwrap();
        let rows = if name == relation { &visible[..] } else { entry.table.rows() };
        for row in rows {
            out.insert(name, row.clone()).unwrap();
        }
        for index in &entry.indexes {
            out.create_index(name, &index.column_name).unwrap();
        }
    }
    out
}

/// Every enforcement mechanism — SIEVE and baselines P, I, U — returns
/// exactly the oracle's answer to `query`, a `SELECT *` over one
/// protected relation: the rows the unpoliced engine returns for it that
/// [`oracle_rows`] lets `qm` see. `context` (profile, backend, query
/// cell) is appended to the failure message after the mechanism and the
/// querier. Returns the expected rows, sorted.
pub fn assert_mechanisms_match_oracle<B: SqlBackend>(
    service: &SieveService<B>,
    query: &SelectQuery,
    qm: &QueryMetadata,
    context: &str,
) -> Vec<Row> {
    let [from] = query.from.as_slice() else { panic!("one FROM entry expected ({context})") };
    let TableSource::Named(relation) = &from.source else { panic!("a named relation expected ({context})") };
    let visible = oracle_rows(service, relation, qm);
    let (raw, _) = service.run_timed(Enforcement::NoPolicies, query, qm);
    let mut expect = sorted_rows(raw.expect("the unpoliced query must run"));
    expect.retain(|row| visible.binary_search(row).is_ok());
    for e in [
        Enforcement::Sieve,
        Enforcement::Baseline(Baseline::P),
        Enforcement::Baseline(Baseline::I),
        Enforcement::Baseline(Baseline::U),
    ] {
        let (res, _) = service.run_timed(e, query, qm);
        let got = sorted_rows(res.unwrap_or_else(|err| panic!("{e:?} must run ({context}): {err}")));
        assert_eq!(
            got, expect,
            "{e:?} diverged from the oracle for querier {} / {} ({context})",
            qm.querier, qm.purpose
        );
    }
    expect
}
