//! End-to-end property test: on a random database and random policy
//! corpus, **every** enforcement mechanism returns exactly the oracle's
//! row set (sound and secure, Section 3.1), for random queriers and
//! purposes — including queriers with zero policies (default deny).

mod support;

use proptest::prelude::*;
use sieve::core::policy::{
    CondPredicate, ObjectCondition, Policy, QuerierSpec, QueryMetadata,
};
use sieve::core::{SieveOptions, SieveService};
use sieve::minidb::value::{DataType, Value};
use sieve::minidb::{Database, DbProfile, SelectQuery, TableSchema};

#[derive(Debug, Clone)]
struct Corpus {
    policies: Vec<(i64, Option<i64>, i64, u8, u8)>, // owner, group-target, user-target, purpose, shape
    rows: i64,
}

fn arb_corpus() -> impl Strategy<Value = Corpus> {
    (
        proptest::collection::vec(
            (0i64..15, proptest::option::of(0i64..3), 0i64..4, 0u8..3, 0u8..4),
            0..25,
        ),
        400i64..1200,
    )
        .prop_map(|(policies, rows)| Corpus { policies, rows })
}

fn build(corpus: &Corpus, profile: DbProfile) -> SieveService {
    let mut db = Database::new(profile);
    db.create_table(TableSchema::of(
        "t",
        &[
            ("id", DataType::Int),
            ("owner", DataType::Int),
            ("wifi_ap", DataType::Int),
            ("ts_time", DataType::Time),
        ],
    ))
    .unwrap();
    for i in 0..corpus.rows {
        db.insert(
            "t",
            vec![
                Value::Int(i),
                Value::Int(i % 15),
                Value::Int(1000 + i % 5),
                Value::Time(((i * 401) % 86_400) as u32),
            ],
        )
        .unwrap();
    }
    for col in ["owner", "wifi_ap", "ts_time"] {
        db.create_index("t", col).unwrap();
    }
    db.analyze("t").unwrap();
    let sieve = SieveService::new(db, SieveOptions::default()).unwrap();
    // The relation is access-controlled even when the corpus is empty
    // (default deny must hold with zero policies).
    sieve.protect("t");
    // Queriers 100..104; querier 100 is in groups 0 and 1.
    sieve.with_groups_mut(|g| {
        g.add_member(0, 100);
        g.add_member(1, 100);
        g.add_member(2, 101);
    });
    for (owner, group, user, purpose, shape) in &corpus.policies {
        let querier = match group {
            Some(g) => QuerierSpec::Group(*g),
            None => QuerierSpec::User(100 + user),
        };
        let purpose = ["Any", "Analytics", "Safety"][*purpose as usize];
        let cond = match shape {
            0 => vec![ObjectCondition::new(
                "wifi_ap",
                CondPredicate::Eq(Value::Int(1000 + (owner % 5))),
            )],
            1 => vec![ObjectCondition::new(
                "ts_time",
                CondPredicate::between(
                    Value::Time(((owner % 10) * 7000) as u32),
                    Value::Time((((owner % 10) * 7000) + 20_000).min(86_399) as u32),
                ),
            )],
            2 => vec![
                ObjectCondition::new(
                    "wifi_ap",
                    CondPredicate::NotIn(vec![Value::Int(1004)]),
                ),
                ObjectCondition::new(
                    "ts_time",
                    CondPredicate::ge(Value::Time(4 * 3600)),
                ),
            ],
            _ => vec![],
        };
        sieve
            .add_policy(Policy::new(*owner, "t", querier, purpose, cond))
            .unwrap();
    }
    sieve
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn enforcement_equals_oracle(
        corpus in arb_corpus(),
        querier in 100i64..105,
        purpose_idx in 0usize..3,
        profile_pg in any::<bool>(),
    ) {
        let profile = if profile_pg { DbProfile::PostgresLike } else { DbProfile::MySqlLike };
        let sieve = build(&corpus, profile);
        let purpose = ["Analytics", "Safety", "Marketing"][purpose_idx];
        let qm = QueryMetadata::new(querier, purpose);
        let q = SelectQuery::star_from("t");
        support::assert_mechanisms_match_oracle(&sieve, &q, &qm, &format!("on {profile:?}"));
    }
}
