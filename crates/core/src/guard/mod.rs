//! Guarded policy expressions (paper Sections 3.2 and 4).
//!
//! `G(P) = G_1 ∨ … ∨ G_n` where each `G_i = oc_g ∧ P_Gi` pairs a cheap,
//! index-supported *guard* predicate with the *partition* of policies it
//! filters for. Partitions are disjoint and cover the policy set.
//!
//! An expression is generated once per `(querier, purpose, relation)` and
//! then kept current as grants arrive. A grant that shares no guard
//! condition with the policies the expression covers, and whose ranges
//! overlap none of theirs, cannot change what Algorithm 1 selects for
//! them: it only adds its own best guard, at the position the greedy
//! cover's heap would pop it. [`placement`] inserts that guard there, so
//! the placed expression is the generated one, equal guard for guard and
//! in order; any other grant makes the caller regenerate.

pub mod candidates;
pub mod placement;
pub mod selection;

use crate::cost::CostModel;
use crate::policy::{ObjectCondition, Policy, PolicyId, UserId};
use minidb::catalog::TableEntry;
use minidb::expr::Expr;
use std::collections::{BTreeSet, HashMap};

pub(crate) use candidates::GuardableConditions;
pub use candidates::{generate_candidates, CandidateGuard};
pub use placement::CarriedConditions;
pub(crate) use placement::place_grants;
pub use selection::{owner_fallback_guards, select_guards};

/// One guarded expression `G_i`.
#[derive(Debug, Clone, PartialEq)]
pub struct Guard {
    /// The guard predicate `oc_g` (simple, constant, on an indexed column).
    pub condition: ObjectCondition,
    /// The policy partition `P_Gi` (policy ids, ascending).
    pub policies: Vec<PolicyId>,
    /// Estimated rows matching the guard (`ρ(oc_g)`), from histograms at
    /// generation time.
    pub est_rows: f64,
}

impl Guard {
    /// Partition size `|P_Gi|`.
    pub fn partition_size(&self) -> usize {
        self.policies.len()
    }
}

/// A guarded policy expression for one (querier, purpose, relation).
#[derive(Debug, Clone, PartialEq)]
pub struct GuardedExpression {
    /// Protected relation.
    pub relation: String,
    /// Querier the expression was generated for.
    pub querier: UserId,
    /// Purpose the expression was generated for.
    pub purpose: String,
    /// The guards, in selection order (highest utility first).
    pub guards: Vec<Guard>,
}

impl GuardedExpression {
    /// Total estimated guard cardinality `Σ ρ(G_i)`.
    pub fn total_guard_rows(&self) -> f64 {
        self.guards.iter().map(|g| g.est_rows).sum()
    }

    /// All policy ids covered (the partitions are disjoint by
    /// construction, so this is also the disjoint union).
    pub fn covered_policies(&self) -> BTreeSet<PolicyId> {
        self.guards
            .iter()
            .flat_map(|g| g.policies.iter().copied())
            .collect()
    }

    /// The full inline expression `⋁_i (oc_g^i ∧ ⋁_{p ∈ P_Gi} OC_p)`,
    /// resolving policies through `by_id`.
    pub fn to_expr(&self, by_id: &HashMap<PolicyId, &Policy>) -> Expr {
        Expr::any(
            self.guards
                .iter()
                .map(|g| {
                    let partition = Expr::any(
                        g.policies
                            .iter()
                            .filter_map(|id| by_id.get(id))
                            .map(|p| p.to_expr())
                            .collect(),
                    );
                    Expr::and(g.condition.to_expr(), partition)
                })
                .collect(),
        )
    }
}

/// How to pick guards from the candidate set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GuardSelectionStrategy {
    /// Algorithm 1: utility-greedy weighted set cover over merged
    /// candidates (the paper's approach).
    #[default]
    CostOptimal,
    /// Ablation baseline: one guard per owner (`oc_owner` only) — the
    /// trivially correct choice the paper argues produces too-small
    /// partitions (Section 4.1).
    OwnerOnly,
}

/// Generate the guarded expression for a filtered policy set.
///
/// `entry` supplies indexes and histograms of the protected relation;
/// `cost` supplies the calibrated constants for Theorem 1's merge test and
/// Algorithm 1's utility.
pub fn generate_guarded_expression(
    policies: &[&Policy],
    entry: &TableEntry,
    cost: &CostModel,
    strategy: GuardSelectionStrategy,
    querier: UserId,
    purpose: &str,
    relation: &str,
) -> GuardedExpression {
    let conditions = GuardableConditions::collect(policies, entry);
    GuardedExpression {
        relation: relation.to_string(),
        querier,
        purpose: purpose.to_string(),
        guards: guards_over(&conditions, policies, entry, cost, strategy),
    }
}

/// The guards of `policies`' expression, over the conditions collected
/// from them: Theorem 1's merges and Algorithm 1's cover, or one guard per
/// owner.
pub(crate) fn guards_over(
    conditions: &GuardableConditions,
    policies: &[&Policy],
    entry: &TableEntry,
    cost: &CostModel,
    strategy: GuardSelectionStrategy,
) -> Vec<Guard> {
    match strategy {
        GuardSelectionStrategy::CostOptimal => {
            let cands = conditions.candidates_for(policies, entry, cost);
            select_guards(cands, policies, entry, cost)
        }
        // One guard per distinct owner, partitioning policies by owner.
        GuardSelectionStrategy::OwnerOnly => {
            owner_fallback_guards(policies.iter().map(|p| (p.id, p.owner)), entry)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{CondPredicate, QuerierSpec};
    use minidb::value::{DataType, Value};
    use minidb::{Database, DbProfile, TableSchema};

    pub(crate) fn wifi_db(rows: i64, owners: i64) -> Database {
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
                    Value::Int(1000 + i % 16),
                    Value::Time(((i * 127) % 86400) as u32),
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

    pub(crate) fn mk_policy(id: PolicyId, owner: i64, conds: Vec<ObjectCondition>) -> Policy {
        let mut p = Policy::new(owner, "wifi_dataset", QuerierSpec::User(9999), "Any", conds);
        p.id = id;
        p
    }

    #[test]
    fn owner_only_partitions_by_owner() {
        let db = wifi_db(2000, 20);
        let entry = db.table("wifi_dataset").unwrap();
        let policies: Vec<Policy> = (0..10)
            .map(|i| {
                mk_policy(
                    i,
                    (i % 5) as i64,
                    vec![ObjectCondition::new(
                        "wifi_ap",
                        CondPredicate::Eq(Value::Int(1000 + i as i64)),
                    )],
                )
            })
            .collect();
        let refs: Vec<&Policy> = policies.iter().collect();
        let ge = generate_guarded_expression(
            &refs,
            entry,
            &CostModel::default(),
            GuardSelectionStrategy::OwnerOnly,
            9999,
            "Any",
            "wifi_dataset",
        );
        assert_eq!(ge.guards.len(), 5);
        assert_eq!(ge.covered_policies().len(), 10);
        // Partition sizes: two policies per owner.
        assert!(ge.guards.iter().all(|g| g.partition_size() == 2));
    }

    #[test]
    fn cost_optimal_covers_every_policy_exactly_once() {
        let db = wifi_db(2000, 20);
        let entry = db.table("wifi_dataset").unwrap();
        let policies: Vec<Policy> = (0..40)
            .map(|i| {
                mk_policy(
                    i,
                    (i % 8) as i64,
                    vec![ObjectCondition::new(
                        "ts_time",
                        CondPredicate::between(
                            Value::Time((8 * 3600 + (i % 4) * 900) as u32),
                            Value::Time((10 * 3600 + (i % 4) * 900) as u32),
                        ),
                    )],
                )
            })
            .collect();
        let refs: Vec<&Policy> = policies.iter().collect();
        let ge = generate_guarded_expression(
            &refs,
            entry,
            &CostModel::default(),
            GuardSelectionStrategy::CostOptimal,
            9999,
            "Any",
            "wifi_dataset",
        );
        // Exactly-once cover.
        let covered = ge.covered_policies();
        assert_eq!(covered.len(), 40, "all policies covered");
        let total: usize = ge.guards.iter().map(|g| g.partition_size()).sum();
        assert_eq!(total, 40, "partitions are disjoint");
        // Guarding should group policies: fewer guards than policies.
        assert!(ge.guards.len() < 40, "got {} guards", ge.guards.len());
    }

    #[test]
    fn to_expr_shape() {
        let db = wifi_db(500, 10);
        let entry = db.table("wifi_dataset").unwrap();
        let policies: Vec<Policy> = (0..4)
            .map(|i| mk_policy(i, i as i64, vec![]))
            .collect();
        let refs: Vec<&Policy> = policies.iter().collect();
        let ge = generate_guarded_expression(
            &refs,
            entry,
            &CostModel::default(),
            GuardSelectionStrategy::OwnerOnly,
            9999,
            "Any",
            "wifi_dataset",
        );
        let by_id: HashMap<PolicyId, &Policy> = policies.iter().map(|p| (p.id, p)).collect();
        let e = ge.to_expr(&by_id);
        // 4 owners → OR of 4 guard branches.
        assert_eq!(e.disjuncts().len(), 4);
    }
}
