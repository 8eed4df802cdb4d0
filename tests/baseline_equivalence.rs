//! Baseline-equivalence smoke test: on a small seeded campus workload,
//! every enforcement mechanism — the three baseline rewrites of the
//! paper (Baseline I/P/U) and SIEVE's guarded rewrite — returns exactly
//! the row set of the `semantics::visible_rows` oracle, for several
//! queriers and purposes on both database profiles, and (the trait-seam
//! pin) on **every execution backend**: the in-process `Database`
//! and the `WireSqlBackend`, whose queries survive a render → parse
//! round trip before execution.

mod support;

use sieve::core::backend::{for_each_backend, DynBackend};
use sieve::core::policy::{
    CondPredicate, ObjectCondition, Policy, QuerierSpec, QueryMetadata,
};
use sieve::core::{SieveOptions, SieveService};
use sieve::minidb::{Database, DbProfile, Row, SelectQuery, Value};
use sieve::workload::policy_gen::{generate_policies, PolicyGenConfig};
use sieve::workload::tippers::{generate as generate_tippers, TippersConfig};
use sieve::workload::{UserProfile, WIFI_TABLE};

/// The campus fixture, backend-agnostic: the loaded database, the policy
/// corpus, and the dataset metadata. Each backend run gets its own deep
/// copy of the database, so nothing leaks across backends.
fn campus(profile: DbProfile) -> (Database, Vec<Policy>, sieve::workload::TippersDataset) {
    let mut db = Database::new(profile);
    let ds = generate_tippers(
        &mut db,
        &TippersConfig {
            seed: 5,
            scale: 0.003,
            days: 25,
        },
    )
    .unwrap();
    let policies = generate_policies(&ds, &PolicyGenConfig::default());
    (db, policies, ds)
}

/// The full equivalence check against one ready (policies + groups
/// registered) sieve.
fn check_all_mechanisms(
    backend_name: &str,
    sieve: &SieveService<DynBackend>,
    queriers: &[i64],
    profile: DbProfile,
) {
    let q = SelectQuery::star_from(WIFI_TABLE);
    for querier in queriers {
        for purpose in ["Analytics", "Safety"] {
            let qm = QueryMetadata::new(*querier, purpose);
            let context = format!("on {profile:?} via backend {backend_name}");
            support::assert_mechanisms_match_oracle(sieve, &q, &qm, &context);
        }
    }

    // Warm-cache invalidation path: the guard cache is now hot for
    // every (querier, purpose). Insert a fresh policy per querier and
    // re-check SIEVE against the oracle — the cached entry must be
    // invalidated and the regenerated answer must match a cold run.
    for (i, querier) in queriers.iter().enumerate() {
        sieve
            .add_policy(Policy::new(
                (1_000 + i) as i64, // an owner with no rows: exercises
                WIFI_TABLE,         // invalidation without changing the
                QuerierSpec::User(*querier), // visible set
                "Analytics",
                vec![],
            ))
            .unwrap();
        sieve
            .add_policy(Policy::new(
                *querier, // the querier's own device rows: widens the set
                WIFI_TABLE,
                QuerierSpec::User(*querier),
                "Analytics",
                vec![ObjectCondition::new(
                    "wifi_ap",
                    CondPredicate::Ne(Value::Int(-1)),
                )],
            ))
            .unwrap();
        let qm = QueryMetadata::new(*querier, "Analytics");
        let expect = support::oracle_rows(sieve, WIFI_TABLE, &qm);
        let mut warm = sieve.execute(&q, &qm).expect("warm post-insert").rows;
        warm.sort();
        assert_eq!(
            warm, expect,
            "warm cache diverged from oracle after add_policy for querier \
             {querier} on {profile:?} via backend {backend_name}"
        );
        sieve.invalidate_all();
        let mut cold = sieve.execute(&q, &qm).expect("cold post-insert").rows;
        cold.sort();
        assert_eq!(
            cold, warm,
            "cold and warm runs diverged after add_policy for querier \
             {querier} on {profile:?} via backend {backend_name}"
        );
    }
}

/// Deny policies, factored into the allow set per paper Section 3.1,
/// enforce `allow ∧ ¬deny` on **every mechanism and every backend** —
/// with Double endpoint literals over an Int column, so mixed numerics
/// must compare numerically end to end (engine, renderer, oracle) and the
/// fractional bounds must survive the wire (the round-trip bug rendered
/// `1000.5` fine but `1000.0` as `1000`, silently retyping the guard).
#[test]
fn deny_factored_policies_hold_across_mechanisms_and_backends() {
    use sieve::core::deny::factor_deny;
    let (db, _policies, ds) = campus(DbProfile::MySqlLike);
    let querier = [UserProfile::Faculty, UserProfile::Grad, UserProfile::Visitor]
        .iter()
        .filter_map(|p| ds.devices_of(*p).next().map(|d| d.id))
        .next()
        .expect("dataset must contain a querier");
    // wifi_dataset column order: id, wifi_ap, owner, ts_time, ts_date.
    let (ap_at, owner_at) = (1usize, 2usize);
    let own_aps: Vec<i64> = db
        .table(WIFI_TABLE)
        .unwrap()
        .table
        .rows()
        .iter()
        .filter(|r| r[owner_at] == Value::Int(querier))
        .map(|r| r[ap_at].as_int().unwrap())
        .collect();
    assert!(!own_aps.is_empty(), "querier must own rows");
    let lo = *own_aps.iter().min().unwrap();
    let hi = *own_aps.iter().max().unwrap();
    assert!(lo < hi, "device must visit more than one AP");
    let mid = (lo + hi) / 2;

    // Allow all own rows; deny the lower half of the AP range with
    // fractional Double bounds.
    let allow = Policy::new(
        querier,
        WIFI_TABLE,
        QuerierSpec::User(querier),
        "Analytics",
        vec![ObjectCondition::new(
            "wifi_ap",
            CondPredicate::Ne(Value::Int(-1)),
        )],
    );
    let deny_conditions = vec![ObjectCondition::new(
        "wifi_ap",
        CondPredicate::between(
            Value::Double(lo as f64 - 0.5),
            Value::Double(mid as f64 + 0.5),
        ),
    )];
    let factored = factor_deny(&allow, &deny_conditions).unwrap();
    assert!(!factored.is_empty(), "factoring must produce allow policies");

    // Manual allow ∧ ¬deny: the querier's rows at APs above the midpoint.
    let mut expect: Vec<Row> = db
        .table(WIFI_TABLE)
        .unwrap()
        .table
        .rows()
        .iter()
        .filter(|r| r[owner_at] == Value::Int(querier) && r[ap_at].as_int().unwrap() > mid)
        .cloned()
        .collect();
    expect.sort();
    assert!(!expect.is_empty(), "some rows must survive the deny");
    assert!(expect.len() < own_aps.len(), "the deny must remove rows");

    let q = SelectQuery::star_from(WIFI_TABLE);
    let qm = QueryMetadata::new(querier, "Analytics");
    let mut backends = 0;
    for_each_backend(&db, &SieveOptions::default(), |name, sieve| {
        backends += 1;
        sieve.add_policies(factored.iter().cloned()).unwrap();
        // The algebra oracle over the factored set must equal the manual
        // allow ∧ ¬deny set — pins `factor_deny` itself.
        let oracle = support::oracle_rows(&sieve, WIFI_TABLE, &qm);
        assert_eq!(oracle, expect, "factor_deny diverged from allow ∧ ¬deny on {name}");
        let context = format!("denied rows must not leak on backend {name}");
        support::assert_mechanisms_match_oracle(&sieve, &q, &qm, &context);
    });
    assert_eq!(backends, 2);
}

#[test]
fn all_mechanisms_equal_oracle_on_seeded_campus_for_every_backend() {
    for profile in [DbProfile::MySqlLike, DbProfile::PostgresLike] {
        let (db, policies, ds) = campus(profile);
        let queriers: Vec<i64> = [UserProfile::Faculty, UserProfile::Grad, UserProfile::Visitor]
            .iter()
            .filter_map(|p| ds.devices_of(*p).next().map(|d| d.id))
            .collect();
        assert!(!queriers.is_empty(), "dataset must contain queriers");

        // Results must be identical across backends, not just oracle-equal
        // per backend: collect a fingerprint per backend and compare.
        let mut fingerprints: Vec<(&'static str, Vec<Row>)> = Vec::new();
        for_each_backend(&db, &SieveOptions::default(), |name, sieve| {
            sieve.with_groups_mut(|g| *g = ds.groups.clone());
            sieve.add_policies(policies.iter().cloned()).unwrap();
            check_all_mechanisms(name, &sieve, &queriers, profile);
            let qm = QueryMetadata::new(queriers[0], "Analytics");
            let mut rows = sieve
                .execute(&SelectQuery::star_from(WIFI_TABLE), &qm)
                .expect("fingerprint query")
                .rows;
            rows.sort();
            fingerprints.push((name, rows));
        });
        assert_eq!(fingerprints.len(), 2, "suite must cover every backend");
        for pair in fingerprints.windows(2) {
            assert_eq!(
                pair[0].1, pair[1].1,
                "backends {} and {} returned different rows on {profile:?}",
                pair[0].0, pair[1].0
            );
        }
    }
}
