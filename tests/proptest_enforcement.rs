//! End-to-end property test: on a random database and random policy
//! corpus, **every** enforcement mechanism returns exactly the oracle's
//! row set (sound and secure, Section 3.1), for random queriers and
//! purposes — including queriers with zero policies (default deny). And a
//! prepared statement held across any run of data, index, statistics,
//! policy and group changes, under any forced access strategy, keeps
//! returning it, from a plan that is pinned again at most once per change.

mod support;

use proptest::prelude::*;
use sieve::core::policy::{
    CondPredicate, ObjectCondition, Policy, QuerierSpec, QueryMetadata,
};
use sieve::core::backend::WireSqlBackend;
use sieve::core::cost::AccessStrategy;
use sieve::core::rewrite::{DeltaMode, RewriteOptions};
use sieve::core::{SieveOptions, SieveService, SqlBackend};
use sieve::minidb::value::{DataType, Value};
use sieve::minidb::{CmpOp, ColumnRef, Database, DbProfile, Expr, SelectQuery, TableSchema};
use support::{oracle_rows, policy, sorted_rows, REL};

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

/// The case's database and service. Every 7th row's owner is stored as a
/// `Double`: under `Value`'s one order it is the same owner as the `Int`,
/// and every mechanism, inline or ∆, must read it as one.
fn build(corpus: &Corpus, profile: DbProfile, delta_mode: DeltaMode) -> SieveService {
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
        let owner = if i % 7 == 0 { Value::Double((i % 15) as f64) } else { Value::Int(i % 15) };
        db.insert(
            "t",
            vec![
                Value::Int(i),
                owner,
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
    let rewrite = RewriteOptions { delta_mode, ..Default::default() };
    let sieve = SieveService::new(db, SieveOptions { rewrite, ..Default::default() }).unwrap();
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
        delta_mode in prop_oneof![Just(DeltaMode::Auto), Just(DeltaMode::Always), Just(DeltaMode::Never)],
    ) {
        let profile = if profile_pg { DbProfile::PostgresLike } else { DbProfile::MySqlLike };
        let sieve = build(&corpus, profile, delta_mode);
        let purpose = ["Analytics", "Safety", "Marketing"][purpose_idx];
        let qm = QueryMetadata::new(querier, purpose);
        let q = SelectQuery::star_from("t");
        support::assert_mechanisms_match_oracle(&sieve, &q, &qm, &format!("on {profile:?} under {delta_mode:?}"));
    }
}

/// One change to the world a held statement runs in.
#[derive(Debug, Clone)]
enum Change {
    Insert(i64, i64),
    CreateIndex,
    Analyze,
    AddPolicy(i64, i64),
    JoinGroup(i64),
}

/// The access strategy a case's service is built to force, if any.
fn arb_forced() -> impl Strategy<Value = Option<AccessStrategy>> {
    prop_oneof![
        Just(None),
        Just(Some(AccessStrategy::LinearScan)),
        Just(Some(AccessStrategy::IndexQuery)),
        Just(Some(AccessStrategy::IndexGuards)),
    ]
}

fn arb_change() -> impl Strategy<Value = Change> {
    prop_oneof![
        (0i64..30, 1000i64..1010).prop_map(|(owner, ap)| Change::Insert(owner, ap)),
        Just(Change::CreateIndex),
        Just(Change::Analyze),
        (20i64..40, 1000i64..1010).prop_map(|(owner, ap)| Change::AddPolicy(owner, ap)),
        (0i64..3).prop_map(Change::JoinGroup),
    ]
}

/// Apply `changes` one by one to a service over `backend` (labelled `name`
/// in failures) that forces `forced`; after each, the statement prepared
/// before any of them returns what the oracle and a fresh one-shot execute
/// return on the world as it now is.
fn held_statement_tracks<B: SqlBackend>(
    name: &str,
    backend: B,
    db_mut: fn(&mut B) -> &mut Database,
    forced: Option<AccessStrategy>,
    changes: &[Change],
    narrow: bool,
) {
    let rewrite = RewriteOptions { forced_strategy: forced, ..Default::default() };
    let service = SieveService::with_backend(backend, SieveOptions { rewrite, ..Default::default() }).unwrap();
    support::register_corpus(&service);
    // Groups 0..3 each grant an access point the corpus does not.
    for group in 0..3i64 {
        let mut granted = policy(group, 0, "Analytics", 1005 + group);
        granted.querier = QuerierSpec::Group(group);
        service.add_policy(granted).unwrap();
    }
    let session = service.session(QueryMetadata::new(500, "Analytics"));
    let mut query = SelectQuery::star_from(REL);
    if narrow {
        query = query.filter(Expr::col_cmp(ColumnRef::bare("owner"), CmpOp::Lt, Value::Int(25)));
    }
    let held = session.prepare(query.clone()).unwrap();
    for (done, change) in changes.iter().enumerate() {
        match change.clone() {
            Change::Insert(owner, ap) => service.with_backend_mut(|b| {
                let row = vec![Value::Int(1_000_000 + done as i64), Value::Int(owner), Value::Int(ap), Value::Time(0)];
                db_mut(b).insert(REL, row).map(|_| ()).unwrap()
            }),
            Change::CreateIndex => service.with_backend_mut(|b| db_mut(b).create_index(REL, "id").unwrap()),
            Change::Analyze => service.with_backend_mut(|b| db_mut(b).analyze(REL).unwrap()),
            Change::AddPolicy(owner, ap) => service.add_policy(policy(owner, 500, "Analytics", ap)).map(|_| ()).unwrap(),
            Change::JoinGroup(group) => service.with_groups_mut(|g| g.add_member(group, 500)),
        }
        let mut expect = oracle_rows(&service, REL, session.metadata());
        expect.retain(|row| !narrow || row[1] < Value::Int(25));
        let context = format!("{name} forcing {forced:?}, after {:?}", &changes[..=done]);
        prop_assert_eq!(&sorted_rows(held.execute().unwrap()), &expect, "held statement, {}", context);
        prop_assert_eq!(&sorted_rows(session.execute(&query).unwrap()), &expect, "fresh execute, {}", context);
        prop_assert!(held.reprepares() <= done as u64 + 1, "{} re-prepares, {}", held.reprepares(), context);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn held_prepared_statement_equals_oracle_after_any_changes(
        changes in proptest::collection::vec(arb_change(), 1..10),
        narrow in any::<bool>(),
        forced in arb_forced(),
    ) {
        let db = support::wifi_db(4500, 40, true);
        held_statement_tracks("minidb", db.clone(), |db| db, forced, &changes, narrow);
        let wire = WireSqlBackend::new(db);
        held_statement_tracks("wire-sql", wire, WireSqlBackend::db_mut, forced, &changes, narrow);
    }
}
