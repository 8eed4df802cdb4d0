//! Determinism regression tests: the workload generators are seeded, so
//! two runs with the same config must produce byte-identical datasets,
//! policy corpora, generated queries, and query results. This guards
//! against `HashMap`-iteration-order (or other ambient) nondeterminism
//! creeping into the generators — which would silently invalidate every
//! cross-run benchmark comparison.

use sieve::core::policy::{Policy, QueryMetadata};
use sieve::core::{SieveOptions, SieveService};
use sieve::minidb::{Database, DbProfile, Row, SelectQuery};
use sieve::workload::mall::{generate as generate_mall, MallConfig};
use sieve::workload::policy_gen::{generate_policies, PolicyGenConfig};
use sieve::workload::query_gen::generate_query;
use sieve::workload::tippers::{generate as generate_tippers, TippersConfig, TippersDataset};
use sieve::workload::{QueryClass, Selectivity, UserProfile, MALL_TABLE, WIFI_TABLE};

fn dump_table(db: &Database, table: &str) -> Vec<Row> {
    db.run_query(&SelectQuery::star_from(table)).unwrap().rows
}

fn campus(seed: u64) -> (Database, TippersDataset) {
    let mut db = Database::new(DbProfile::MySqlLike);
    let ds = generate_tippers(
        &mut db,
        &TippersConfig {
            seed,
            scale: 0.004,
            days: 30,
        },
    )
    .unwrap();
    (db, ds)
}

#[test]
fn tippers_generation_is_deterministic() {
    let (db_a, ds_a) = campus(99);
    let (db_b, ds_b) = campus(99);

    // Same device directory, groups, and bookkeeping (Device does not
    // implement PartialEq; its Debug form is a faithful fingerprint).
    assert_eq!(format!("{ds_a:?}"), format!("{ds_b:?}"));
    assert_eq!(ds_a.events, ds_b.events);

    // Same rows, in the same insertion order, in every generated table.
    for table in [
        "users",
        "user_groups",
        "user_group_membership",
        "location",
        WIFI_TABLE,
    ] {
        assert_eq!(
            dump_table(&db_a, table),
            dump_table(&db_b, table),
            "table {table} differs between identically-seeded runs"
        );
    }

    // A different seed must actually change the data (the comparison
    // above is not vacuous).
    let (db_c, _) = campus(100);
    assert_ne!(dump_table(&db_a, WIFI_TABLE), dump_table(&db_c, WIFI_TABLE));
}

#[test]
fn policy_generation_is_deterministic() {
    let (_, ds) = campus(99);
    let a: Vec<Policy> = generate_policies(&ds, &PolicyGenConfig::default());
    let b: Vec<Policy> = generate_policies(&ds, &PolicyGenConfig::default());
    assert!(!a.is_empty());
    assert_eq!(a, b, "identically-seeded policy corpora differ");
}

#[test]
fn mall_generation_is_deterministic() {
    let config = MallConfig {
        seed: 21,
        scale: 0.02,
        shops: 35,
        days: 30,
    };
    let mut db_a = Database::new(DbProfile::PostgresLike);
    let ds_a = generate_mall(&mut db_a, &config).unwrap();
    let mut db_b = Database::new(DbProfile::PostgresLike);
    let ds_b = generate_mall(&mut db_b, &config).unwrap();

    assert_eq!(format!("{:?}", ds_a.customers), format!("{:?}", ds_b.customers));
    assert_eq!(ds_a.shops, ds_b.shops);
    assert_eq!(ds_a.policies, ds_b.policies);
    assert_eq!(ds_a.events, ds_b.events);
    assert_eq!(dump_table(&db_a, MALL_TABLE), dump_table(&db_b, MALL_TABLE));
}

#[test]
fn query_generation_and_results_are_deterministic() {
    let (db_a, ds_a) = campus(99);
    let (db_b, ds_b) = campus(99);
    let policies = generate_policies(&ds_a, &PolicyGenConfig::default());

    let sieve_a = SieveService::new(db_a, SieveOptions::default()).unwrap();
    sieve_a.with_groups_mut(|g| *g = ds_a.groups.clone());
    sieve_a.add_policies(policies.clone()).unwrap();
    let sieve_b = SieveService::new(db_b, SieveOptions::default()).unwrap();
    sieve_b.with_groups_mut(|g| *g = ds_b.groups.clone());
    sieve_b.add_policies(policies).unwrap();

    let faculty = ds_a.devices_of(UserProfile::Faculty).next().unwrap().id;
    let qm = QueryMetadata::new(faculty, "Analytics");
    for class in [QueryClass::Q1, QueryClass::Q2, QueryClass::Q3] {
        for (sel, seed) in [(Selectivity::Low, 7), (Selectivity::Mid, 8)] {
            let qa = generate_query(&ds_a, class, sel, seed);
            let qb = generate_query(&ds_b, class, sel, seed);
            assert_eq!(qa, qb, "{class:?}/{sel:?} query generation diverged");
            assert_eq!(
                sieve_a.execute(&qa, &qm).unwrap().rows,
                sieve_b.execute(&qb, &qm).unwrap().rows,
                "{class:?}/{sel:?} enforcement results diverged"
            );
        }
    }
}
