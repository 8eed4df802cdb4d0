//! End-to-end over the generated workloads: the full campus pipeline
//! (TIPPERS data → policy corpus → Q1/Q2/Q3 queries → SIEVE + baselines)
//! agrees with the oracle; the mall pipeline enforces shop policies.

mod support;

use sieve::core::baselines::Baseline;
use sieve::core::policy::QueryMetadata;
use sieve::core::{Enforcement, SieveOptions, SieveService};
use sieve::minidb::{Database, DbProfile, Row, SelectQuery};
use sieve::workload::mall::{generate as generate_mall, MallConfig, MallDataset};
use sieve::workload::policy_gen::{generate_policies, PolicyGenConfig};
use sieve::workload::query_gen::generate_query;
use sieve::workload::tippers::{generate as generate_tippers, TippersConfig};
use sieve::workload::{QueryClass, Selectivity, UserProfile, MALL_TABLE, WIFI_TABLE};

fn campus(profile: DbProfile) -> (SieveService, sieve::workload::TippersDataset) {
    let mut db = Database::new(profile);
    let ds = generate_tippers(
        &mut db,
        &TippersConfig {
            seed: 99,
            scale: 0.004,
            days: 30,
        },
    )
    .unwrap();
    let policies = generate_policies(&ds, &PolicyGenConfig::default());
    let sieve = SieveService::new(db, SieveOptions::default()).unwrap();
    sieve.with_groups_mut(|g| *g = ds.groups.clone());
    sieve.add_policies(policies).unwrap();
    (sieve, ds)
}

#[test]
fn campus_q1_q2_match_oracle_under_all_mechanisms() {
    let (sieve, ds) = campus(DbProfile::MySqlLike);
    let faculty = ds.devices_of(UserProfile::Faculty).next().unwrap().id;
    let qm = QueryMetadata::new(faculty, "Analytics");
    let oracle = support::oracle_rows(&sieve, WIFI_TABLE, &qm);
    assert!(!oracle.is_empty(), "faculty must see something");

    for class in [QueryClass::Q1, QueryClass::Q2] {
        for sel in [Selectivity::Low, Selectivity::Mid] {
            let q = generate_query(&ds, class, sel, 7);
            // Reference: the oracle rows filtered by the query predicate,
            // which the unpoliced engine computes for the helper.
            support::assert_mechanisms_match_oracle(&sieve, &q, &qm, &format!("{class:?}/{sel:?}"));
        }
    }
}

#[test]
fn campus_q3_aggregate_consistent() {
    let (sieve, ds) = campus(DbProfile::PostgresLike);
    let grad = ds.devices_of(UserProfile::Grad).next().unwrap().id;
    let qm = QueryMetadata::new(grad, "Analytics");
    let q = generate_query(&ds, QueryClass::Q3, Selectivity::High, 3);
    let (sieve_res, _) = sieve.run_timed(Enforcement::Sieve, &q, &qm);
    let (base_res, _) = sieve.run_timed(Enforcement::Baseline(Baseline::P), &q, &qm);
    assert_eq!(
        sieve_res.unwrap().rows,
        base_res.unwrap().rows,
        "Q3 aggregate must agree between SIEVE and BaselineP"
    );
}

#[test]
fn visitors_see_almost_nothing_faculty_see_more() {
    let (sieve, ds) = campus(DbProfile::MySqlLike);
    let q = SelectQuery::star_from(WIFI_TABLE);
    let faculty = ds.devices_of(UserProfile::Faculty).next().unwrap().id;
    let visitor = ds.devices_of(UserProfile::Visitor).next().unwrap().id;
    let f_rows = sieve
        .execute(&q, &QueryMetadata::new(faculty, "Analytics"))
        .unwrap()
        .len();
    let v_rows = sieve
        .execute(&q, &QueryMetadata::new(visitor, "Analytics"))
        .unwrap()
        .len();
    assert!(
        f_rows > v_rows,
        "faculty ({f_rows}) should out-see visitors ({v_rows})"
    );
}

#[test]
fn mall_shops_see_only_granted_rows() {
    let mut db = Database::new(DbProfile::PostgresLike);
    let ds = generate_mall(
        &mut db,
        &MallConfig {
            seed: 21,
            scale: 0.02,
            shops: 35,
            days: 30,
        },
    )
    .unwrap();
    let sieve = SieveService::new(db, SieveOptions::default()).unwrap();
    sieve.with_groups_mut(|g| *g = ds.groups.clone());
    sieve.add_policies(ds.policies.iter().cloned()).unwrap();

    let q = SelectQuery::star_from(MALL_TABLE);
    let shop = ds.shops[0];
    let qm = QueryMetadata::new(MallDataset::shop_querier(shop), "Sales");
    let mut got = sieve.execute(&q, &qm).unwrap().rows;
    got.sort();
    let expect = support::oracle_rows(&sieve, MALL_TABLE, &qm);
    assert_eq!(got, expect);

    // A random non-shop querier is denied.
    let stranger = QueryMetadata::new(4_242, "Sales");
    assert!(sieve.execute(&q, &stranger).unwrap().is_empty());
}

#[test]
fn batched_execution_equals_sequential_over_campus_traffic() {
    // The tentpole's correctness bar: prepare_batch/execute_batch over a
    // multi-querier traffic batch returns row-for-row what per-request
    // execute returns, while generating each (querier, purpose, relation)
    // expression exactly once through the shared phase.
    let (sieve, ds) = campus(DbProfile::MySqlLike);
    let requests = sieve::workload::traffic::multi_querier_traffic(
        &ds,
        &sieve::workload::TrafficConfig {
            queriers: 40,
            purpose: "Analytics".into(),
            seed: 3,
        },
    );
    assert_eq!(requests.len(), 40);

    // Sequential reference on a cold cache.
    sieve.invalidate_all();
    let seq_gens_before = sieve.generations();
    let mut sequential: Vec<Vec<Row>> = Vec::with_capacity(requests.len());
    for (qm, q) in &requests {
        let mut rows = sieve.execute(q, qm).unwrap().rows;
        rows.sort();
        sequential.push(rows);
    }
    let seq_generations = sieve.generations() - seq_gens_before;

    // Batched run on a cold cache.
    sieve.invalidate_all();
    let gens_before = sieve.generations();
    let results = sieve.execute_batch(&requests).unwrap();
    assert_eq!(results.len(), requests.len());
    for (got, expect) in results.into_iter().zip(&sequential) {
        let mut rows = got.rows;
        rows.sort();
        assert_eq!(&rows, expect, "batched result diverged from sequential");
    }
    assert_eq!(
        sieve.generations() - gens_before,
        seq_generations,
        "batch must generate exactly once per key"
    );
    // Re-running the same batch is fully warm: nothing regenerates.
    let gens = sieve.generations();
    sieve.execute_batch(&requests).unwrap();
    assert_eq!(sieve.generations(), gens);
}
