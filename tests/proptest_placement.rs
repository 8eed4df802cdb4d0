//! Property test of grant placement: under random grant sequences, on
//! both engine profiles, the guarded expression the cache holds after
//! each read is exactly the one Algorithm 1 generates cold over the
//! querier's relevant policies — guard for guard, in order — and the
//! read returns exactly the rows the policies allow.
//!
//! Grants mix every case the placement decides on: fresh owners with no
//! condition of their own (always placed), owners the querier already
//! holds, shared `wifi_ap` equalities, `ts_time` ranges that may or may
//! not overlap the querier's, and group grants. Each case runs under a
//! `delta_mode` it draws, `Auto` or `Always`, fixed when its service is
//! built, so placement is covered with inline and with ∆ partitions.
//!
//! A placement compiles only the new guards' branches and splices them
//! into the cached fragment, so after every read the cached fragment must
//! also equal, branch for branch, the one `compile_guard_fragment` makes
//! of the same expression from scratch.

mod support;

use proptest::collection;
use proptest::prelude::*;
use sieve::core::cost::CostModel;
use sieve::core::guard::{generate_guarded_expression, GuardSelectionStrategy};
use sieve::core::policy::{CondPredicate, ObjectCondition, Policy, QuerierSpec, QueryMetadata};
use sieve::core::delta::DeltaRegistry;
use sieve::core::rewrite::{compile_guard_fragment, DeltaMode, GuardFragment};
use sieve::core::{SieveOptions, SieveService};
use sieve::minidb::value::DataType;
use sieve::minidb::expr::Expr;
use sieve::minidb::{Database, DbProfile, SelectQuery, TableSchema, Value};
use support::{oracle_rows, sorted_rows, REL};

const QUERIER: i64 = 500;
const GROUP: i64 = 9;
/// Owners below `HELD` hold the querier's initial policies; grants from
/// fresh owners take `HELD + step`, below `HELD + FRESH`.
const HELD: i64 = 16;
const FRESH: i64 = 64;

/// Half the rows belong to the `HELD` owners (75 each), half to the fresh
/// ones (under 20 each): a fresh owner's guard outranks many of the
/// querier's, and range and access-point guards win over the held
/// owners' own, so a grant lands anywhere in the order and ranges merge.
fn db(profile: DbProfile) -> Database {
    let mut db = Database::new(profile);
    let columns = [
        ("id", DataType::Int),
        ("owner", DataType::Int),
        ("wifi_ap", DataType::Int),
        ("ts_time", DataType::Time),
    ];
    db.create_table(TableSchema::of(REL, &columns)).unwrap();
    for i in 0..2400i64 {
        let owner = match i % 2 {
            0 => i / 2 % HELD,
            _ => HELD + i / 2 % FRESH,
        };
        let row = vec![
            Value::Int(i),
            Value::Int(owner),
            Value::Int(1000 + i % 8),
            Value::Time(((i * 379) % 86_400) as u32),
        ];
        db.insert(REL, row).unwrap();
    }
    for col in ["owner", "wifi_ap", "ts_time"] {
        db.create_index(REL, col).unwrap();
    }
    db.analyze(REL).unwrap();
    db
}

fn ap(ap: i64) -> ObjectCondition {
    ObjectCondition::new("wifi_ap", CondPredicate::Eq(Value::Int(ap)))
}

fn hours(start: u32, len: u32) -> ObjectCondition {
    let (lo, hi) = (start * 3600, ((start + len) * 3600).min(86_399));
    ObjectCondition::new(
        "ts_time",
        CondPredicate::between(Value::Time(lo), Value::Time(hi)),
    )
}

fn arb_condition() -> impl Strategy<Value = ObjectCondition> {
    prop_oneof![
        (1000i64..1008).prop_map(ap),
        (0u32..10, 1u32..3).prop_map(|(s, l)| hours(s, l))
    ]
}

/// One grant of a sequence.
#[derive(Debug, Clone)]
enum Grant {
    /// A fresh owner, no condition of its own.
    Fresh,
    /// An owner the querier already holds a policy of.
    Held(i64),
    /// A fresh owner at one access point.
    Ap(i64),
    /// A fresh owner in an hour window.
    Hours(u32, u32),
    /// A fresh owner's grant to the querier's group.
    Group(Option<ObjectCondition>),
}

fn arb_grant() -> impl Strategy<Value = Grant> {
    prop_oneof![
        Just(Grant::Fresh),
        (0..HELD).prop_map(Grant::Held),
        (1000i64..1008).prop_map(Grant::Ap),
        (0u32..12, 1u32..3).prop_map(|(s, l)| Grant::Hours(s, l)),
        proptest::option::of(arb_condition()).prop_map(Grant::Group),
    ]
}

fn grant_policy(grant: &Grant, step: i64) -> Policy {
    let fresh = HELD + step;
    let to = |owner, conds| Policy::new(owner, REL, QuerierSpec::User(QUERIER), "Analytics", conds);
    match grant {
        Grant::Fresh => to(fresh, vec![]),
        Grant::Held(owner) => to(*owner, vec![]),
        Grant::Ap(a) => to(fresh, vec![ap(*a)]),
        Grant::Hours(s, l) => to(fresh, vec![hours(*s, *l)]),
        Grant::Group(cond) => {
            let conds = cond.iter().cloned().collect();
            Policy::new(fresh, REL, QuerierSpec::Group(GROUP), "Analytics", conds)
        }
    }
}

/// `cached` equals `cold`, compiled from scratch from the same expression,
/// branch for branch: conditions, inline partitions and arms by
/// expression, ∆ partitions by form (the same call up to its partition
/// key) and policy count; then the guard attributes and row estimate.
fn assert_same_fragment(cached: &GuardFragment, cold: &GuardFragment, at: &str) {
    assert_eq!(cached.branches.len(), cold.branches.len(), "{at}: branches");
    for (i, (c, f)) in cached.branches.iter().zip(&cold.branches).enumerate() {
        assert_eq!(c.condition, f.condition, "{at}: branch {i} condition");
        match (&c.delta, &f.delta) {
            (None, None) => {
                assert_eq!(c.partition, f.partition, "{at}: branch {i} partition");
                assert_eq!(c.arm, f.arm, "{at}: branch {i} arm");
            }
            (Some(c_lease), Some(f_lease)) => {
                let call_args = |e: &Expr| match e.unshared() {
                    Expr::Udf { name, args } => (name.clone(), args[1..].to_vec()),
                    other => panic!("{at}: branch {i}: a ∆ partition compiled to {other:?}"),
                };
                assert_eq!(call_args(&c.partition), call_args(&f.partition), "{at}: branch {i} ∆ call");
                assert_eq!(c_lease.partition(), f_lease.partition(), "{at}: branch {i} ∆ partition");
            }
            _ => panic!("{at}: branch {i}: inline in one fragment, ∆ in the other"),
        }
    }
    assert_eq!(cached.guard_attrs, cold.guard_attrs, "{at}: guard attributes");
    assert_eq!(cached.est_guard_rows, cold.est_guard_rows, "{at}: guard rows");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn placement_equals_generation(
        held in collection::vec(collection::vec(arb_condition(), 0..3), 1..HELD as usize + 1),
        grants in collection::vec(arb_grant(), 1..12),
        delta_mode in prop_oneof![Just(DeltaMode::Auto), Just(DeltaMode::Always)],
    ) {
        let qm = QueryMetadata::new(QUERIER, "Analytics");
        let q = SelectQuery::star_from(REL);
        let mut options = SieveOptions::default();
        options.rewrite.delta_mode = delta_mode;
        for profile in [DbProfile::MySqlLike, DbProfile::PostgresLike] {
            let service = SieveService::new(db(profile), options.clone()).unwrap();
            service.with_groups_mut(|g| g.add_member(GROUP, QUERIER));
            for (owner, conds) in held.iter().enumerate() {
                let to = QuerierSpec::User(QUERIER);
                let p = Policy::new(owner as i64, REL, to, "Analytics", conds.clone());
                service.add_policy(p).unwrap();
            }
            service.execute(&q, &qm).unwrap();
            for (step, grant) in grants.iter().enumerate() {
                let extensions = service.cache_stats().extensions;
                service.add_policy(grant_policy(grant, step as i64)).unwrap();
                let rows = sorted_rows(service.execute(&q, &qm).unwrap());
                let expect = oracle_rows(&service, REL, &qm);
                prop_assert_eq!(&rows, &expect, "{:?} {:?} step {}: rows", profile, delta_mode, step);

                let cached = service.guarded_expression(&qm, REL).unwrap();
                let cold = {
                    let (store, db) = (service.store(), service.db());
                    let relevant = store.relevant(REL, &qm);
                    let (entry, cost) = (db.table(REL).unwrap(), CostModel::default());
                    let strategy = GuardSelectionStrategy::CostOptimal;
                    generate_guarded_expression(
                        &relevant, entry, &cost, strategy, QUERIER, "Analytics", REL,
                    )
                };
                prop_assert_eq!(
                    &cached, &cold,
                    "{:?} step {} ({:?}): cached != generated", profile, step, grant
                );

                let fragment = &service.rewrite(&q, &qm).unwrap().fragments[0];
                let compiled = {
                    let (store, db) = (service.store(), service.db());
                    let by_id = store.iter().map(|p| (p.id, p)).collect();
                    let (registry, cost) = (DeltaRegistry::new(), CostModel::default());
                    compile_guard_fragment(&*db, &registry, &cached, &by_id, &cost, delta_mode)
                        .unwrap()
                };
                let at = format!("{profile:?} {delta_mode:?} step {step} ({grant:?})");
                assert_same_fragment(fragment, &compiled, &at);
                if matches!(grant, Grant::Fresh) {
                    prop_assert_eq!(
                        service.cache_stats().extensions, extensions + 1,
                        "{:?} {:?} step {}: a fresh owner's bare grant is placed",
                        profile, delta_mode, step
                    );
                }
            }
        }
    }
}
