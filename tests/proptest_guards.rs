//! Property tests over the guard machinery:
//!
//! 1. **Exactly-once cover**: Algorithm 1 partitions the policy set —
//!    every policy appears in exactly one guard partition.
//! 2. **Rewrite equivalence**: for random policy sets and tuples,
//!    `eval(G(P), t) == eval(E(P), t)` — the guarded expression accepts
//!    exactly the tuples the plain policy DNF accepts.
//! 3. **Theorem 1 invariant**: candidate guards never merge disjoint
//!    ranges.
//! 4. **Indexed lookup == scan**: `PolicyStore::relevant` returns exactly
//!    what `filter::relevant_policies` finds by scanning the store.

use proptest::prelude::*;
use sieve::core::cost::CostModel;
use sieve::core::guard::{
    candidates::generate_candidates, generate_guarded_expression, GuardSelectionStrategy,
};
use sieve::core::filter::relevant_policies;
use sieve::core::policy::{
    CondPredicate, ObjectCondition, Policy, PolicyId, QuerierSpec, QueryMetadata, PURPOSE_ANY,
};
use sieve::core::semantics::{eval_condition, eval_policies};
use sieve::core::store::PolicyStore;
use sieve::minidb::value::{DataType, Value};
use sieve::minidb::{Database, DbProfile, TableSchema};
use std::collections::{BTreeSet, HashMap};

fn test_db(rows: i64, owners: i64) -> Database {
    let mut db = Database::new(DbProfile::MySqlLike);
    db.create_table(TableSchema::of(
        "wifi_dataset",
        &[
            ("id", DataType::Int),
            ("owner", DataType::Int),
            ("wifi_ap", DataType::Int),
            ("ts_time", DataType::Time),
        ],
    ))
    .unwrap();
    for i in 0..rows {
        db.insert(
            "wifi_dataset",
            vec![
                Value::Int(i),
                Value::Int(i % owners),
                Value::Int(1000 + i % 8),
                Value::Time(((i * 379) % 86_400) as u32),
            ],
        )
        .unwrap();
    }
    for col in ["owner", "wifi_ap", "ts_time"] {
        db.create_index("wifi_dataset", col).unwrap();
    }
    db.analyze("wifi_dataset").unwrap();
    db
}

/// Strategy producing a random object condition over the schema.
fn arb_condition() -> impl Strategy<Value = ObjectCondition> {
    prop_oneof![
        (1000i64..1008).prop_map(|ap| ObjectCondition::new(
            "wifi_ap",
            CondPredicate::Eq(Value::Int(ap))
        )),
        (0u32..20, 1u32..6).prop_map(|(start_h, len_h)| {
            let lo = start_h * 3600;
            let hi = ((start_h + len_h) * 3600).min(86_399);
            ObjectCondition::new(
                "ts_time",
                CondPredicate::between(Value::Time(lo), Value::Time(hi)),
            )
        }),
        proptest::collection::vec(1000i64..1008, 1..4).prop_map(|aps| ObjectCondition::new(
            "wifi_ap",
            CondPredicate::In(aps.into_iter().map(Value::Int).collect())
        )),
    ]
}

fn arb_policy(owners: i64) -> impl Strategy<Value = Policy> {
    (
        0..owners,
        proptest::collection::vec(arb_condition(), 0..3),
    )
        .prop_map(|(owner, conds)| {
            Policy::new(owner, "wifi_dataset", QuerierSpec::User(1), "Any", conds)
        })
}

fn with_ids(mut policies: Vec<Policy>) -> Vec<Policy> {
    for (i, p) in policies.iter_mut().enumerate() {
        p.id = i as PolicyId + 1;
    }
    policies
}

/// One step of building a group directory: a membership or a subsumption
/// edge. A random sequence puts edges both before and after the
/// memberships they extend.
#[derive(Debug, Clone)]
enum GroupOp {
    Member(i64, i64),
    Subsume(i64, i64),
}

fn arb_group_op() -> impl Strategy<Value = GroupOp> {
    prop_oneof![
        (10i64..15, 1i64..6).prop_map(|(g, u)| GroupOp::Member(g, u)),
        (10i64..15, 10i64..15).prop_map(|(c, p)| GroupOp::Subsume(c, p)),
    ]
}

const PURPOSES: [&str; 3] = ["Analytics", "Safety", PURPOSE_ANY];
const NETWORKS: [&str; 2] = ["campus", "public"];

/// A grant to a user or a group, over one of two relations, for a purpose
/// (or any), optionally gated on the querier's network.
fn arb_grant() -> impl Strategy<Value = Policy> {
    (
        prop_oneof![
            (1i64..6).prop_map(QuerierSpec::User),
            (10i64..15).prop_map(QuerierSpec::Group),
        ],
        any::<bool>(),
        0usize..3,
        proptest::option::of(0usize..2),
    )
        .prop_map(|(querier, other, purpose, network)| {
            let relation = if other { "other" } else { "wifi_dataset" };
            let p = Policy::new(7, relation, querier, PURPOSES[purpose], vec![]);
            match network {
                Some(n) => p.with_context("network", Value::str(NETWORKS[n])),
                None => p,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn indexed_lookup_matches_store_scan(
        grants in proptest::collection::vec(arb_grant(), 0..40),
        ops in proptest::collection::vec(arb_group_op(), 0..16),
    ) {
        let mut store = PolicyStore::new();
        for p in grants {
            store.add(p);
        }
        for op in ops {
            let groups = store.groups_mut();
            match op {
                GroupOp::Member(g, u) => groups.add_member(g, u),
                GroupOp::Subsume(c, p) => groups.add_subsumption(c, p),
            }
        }
        for querier in 1i64..6 {
            for purpose in ["Analytics", "Safety", "Audit"] {
                let bare = QueryMetadata::new(querier, purpose);
                let on_campus = bare.clone().with_context("network", Value::str("campus"));
                for qm in [bare, on_campus] {
                    for relation in ["wifi_dataset", "other"] {
                        prop_assert_eq!(
                            store.relevant(relation, &qm),
                            relevant_policies(store.iter(), relation, &qm, store.groups()),
                            "querier {} / {} / {}", querier, purpose, relation
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn guards_cover_every_policy_exactly_once(
        policies in proptest::collection::vec(arb_policy(12), 1..40)
    ) {
        let db = test_db(1500, 12);
        let entry = db.table("wifi_dataset").unwrap();
        let policies = with_ids(policies);
        let refs: Vec<&Policy> = policies.iter().collect();
        for strategy in [GuardSelectionStrategy::CostOptimal, GuardSelectionStrategy::OwnerOnly] {
            let ge = generate_guarded_expression(
                &refs, entry, &CostModel::default(), strategy, 1, "Any", "wifi_dataset",
            );
            let mut seen: BTreeSet<PolicyId> = BTreeSet::new();
            for g in &ge.guards {
                for pid in &g.policies {
                    prop_assert!(seen.insert(*pid), "policy {pid} in two partitions ({strategy:?})");
                }
            }
            let all: BTreeSet<PolicyId> = policies.iter().map(|p| p.id).collect();
            prop_assert_eq!(seen, all, "cover mismatch ({:?})", strategy);
        }
    }

    #[test]
    fn guarded_expression_equivalent_to_policy_dnf(
        policies in proptest::collection::vec(arb_policy(12), 1..30)
    ) {
        let db = test_db(1500, 12);
        let entry = db.table("wifi_dataset").unwrap();
        let schema = entry.schema();
        let policies = with_ids(policies);
        let refs: Vec<&Policy> = policies.iter().collect();
        let ge = generate_guarded_expression(
            &refs, entry, &CostModel::default(),
            GuardSelectionStrategy::CostOptimal, 1, "Any", "wifi_dataset",
        );
        let by_id: HashMap<PolicyId, &Policy> = policies.iter().map(|p| (p.id, p)).collect();
        // Check on a sample of stored tuples.
        for row in entry.table.rows().iter().step_by(37) {
            let plain = eval_policies(&refs, schema, row, None).allowed;
            let guarded = ge.guards.iter().any(|g| {
                eval_condition(&g.condition, schema, row, None)
                    && g.policies.iter().any(|pid| {
                        sieve::core::semantics::policy_allows(by_id[pid], schema, row, None)
                    })
            });
            prop_assert_eq!(plain, guarded, "guard filter changed semantics");
        }
    }

    #[test]
    fn merged_candidates_only_from_overlaps(
        policies in proptest::collection::vec(arb_policy(12), 2..25)
    ) {
        // Every candidate's range must contain each member policy's own
        // range condition on that attribute (oc_j ⟹ oc_g), which fails if
        // disjoint ranges were ever merged.
        let db = test_db(1500, 12);
        let entry = db.table("wifi_dataset").unwrap();
        let policies = with_ids(policies);
        let refs: Vec<&Policy> = policies.iter().collect();
        let cands = generate_candidates(&refs, entry, &CostModel::default());
        let by_id: HashMap<PolicyId, &Policy> = policies.iter().map(|p| (p.id, p)).collect();
        for cand in &cands {
            if let CondPredicate::Range { low, high } = &cand.condition.pred {
                let (g_lo, g_hi) = (bound_key(low, true), bound_key(high, false));
                for pid in &cand.policies {
                    // The guard property is existential: SOME range
                    // condition of the policy on this attribute must imply
                    // the guard (`∃ oc_j ∈ OC_l | oc_j ⟹ oc_g`, §3.2). A
                    // policy may carry several ranges on the attribute;
                    // any one inside the guard suffices.
                    let mut ranges = Vec::new();
                    for oc in by_id[pid].object_conditions() {
                        if oc.attr == cand.condition.attr {
                            if let CondPredicate::Range { low: plo, high: phi } = &oc.pred {
                                ranges.push((bound_key(plo, true), bound_key(phi, false)));
                            }
                        }
                    }
                    if !ranges.is_empty() {
                        prop_assert!(
                            ranges.iter().any(|(p_lo, p_hi)| g_lo <= *p_lo && *p_hi <= g_hi),
                            "guard [{g_lo},{g_hi}] implied by none of {ranges:?}"
                        );
                    }
                }
            }
        }
    }
}

fn bound_key(b: &sieve::minidb::RangeBound, is_low: bool) -> f64 {
    match b {
        sieve::minidb::RangeBound::Unbounded => {
            if is_low {
                f64::NEG_INFINITY
            } else {
                f64::INFINITY
            }
        }
        sieve::minidb::RangeBound::Inclusive(v) | sieve::minidb::RangeBound::Exclusive(v) => {
            v.numeric_key().unwrap_or(0.0)
        }
    }
}
