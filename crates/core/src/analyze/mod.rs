//! Static soundness verification for the policy→guard→rewrite pipeline.
//!
//! The enforcement path promises *no widening*: a rewritten query must
//! never admit a row outside the union of the querier's allowed
//! policies. The guard generator (candidate merging + set cover) and the
//! fragment compiler (inline vs ∆, predicate pushdown) each preserve
//! that invariant by construction — this module **checks** it, per
//! generated artifact, with a symbolic proof:
//!
//! ```text
//! rewritten_predicate ⇒ ⋁ (allow policies)
//! ```
//!
//! over the engine's exact collapsed-NULL semantics (see [`eval`]), an
//! interval/point abstract domain per column (see [`domain`]), and a
//! budgeted DPLL-style search (see [`implication`]). Verdicts are
//! three-valued and fail-closed:
//!
//! * [`Verdict::Proven`] — a real proof (emptiness under-approximates).
//! * [`Verdict::Refuted`] — comes with a concrete witness row that
//!   **replays** through the reference evaluator: it passes the
//!   rewritten predicate and violates every allowed policy.
//! * [`Verdict::Unknown`] — anything undecided. A finding, never a pass.
//!
//! On top of the core check sit store lints ([`lint_policies`]: dead
//! policies, subsumed grants), guard-shape lints
//! ([`lint_guarded_expression`]: tautological guards, unverifiable NULL
//! safety, dangling partition ids) and the deny interaction check
//! ([`allow_shadowed_by_deny`]). The service wires the verifier into
//! every cold guard generation behind `SieveOptions::verify_rewrites`,
//! and the `sieve_analyze` binary audits whole scenario stores.
//!
//! What a cold build proves is the fragment that runs
//! ([`verify_fragment`]): its disjunction, with each `delta(key, …)` call
//! replaced by the expression the branch's ∆ lease keeps — the policy DNF
//! ∆ bound and evaluates, not one rebuilt from the store — so the proof
//! covers inline and ∆ branches by the same expression the engine runs.

pub mod domain;
pub mod eval;
pub mod implication;
pub mod report;

pub use implication::{check_containment, check_implication, DEFAULT_NODE_BUDGET};
pub use report::{render_witness, AnalysisReport, CheckRecord, Finding, FindingKind, Verdict};

use crate::delta::{PartitionKey, DELTA_UDF};
use crate::guard::GuardedExpression;
use crate::policy::{ObjectCondition, Policy, PolicyId};
use crate::rewrite::GuardFragment;
use domain::AbstractState;
use eval::{assert_lit, atom_of, to_cubes, AssertOutcome, Atom};
use minidb::expr::Expr;
use minidb::Value;
use std::collections::HashMap;

/// Verify the no-widening invariant for a guarded expression: the full
/// inline expression `⋁ᵢ (oc_gᵢ ∧ ⋁ OC_p)` must imply the allowed-policy
/// disjunction. It covers every rewrite built from the expression,
/// because the rewriter only ever *conjoins* further predicates (pushdown
/// narrows, never widens). The audit tooling's check: a cold build proves
/// [`verify_fragment`] instead, the same disjunction in the form that runs.
pub fn verify_guarded_expression(
    ge: &GuardedExpression,
    by_id: &HashMap<PolicyId, &Policy>,
    allowed: &[&Policy],
) -> Verdict {
    for g in &ge.guards {
        if g.policies.iter().any(|id| !by_id.contains_key(id)) {
            return Verdict::Unknown {
                reason: "guard partition references a policy missing from the store".to_string(),
            };
        }
    }
    check_containment(&ge.to_expr(by_id), allowed, DEFAULT_NODE_BUDGET)
}

/// Verify a compiled guard fragment in the form that runs: its
/// disjunction, over the arms it is made of. Inline partitions are checked
/// as compiled; a `delta(key, …)` call is replaced by the expression its
/// [`PartitionHandle`](crate::delta::PartitionHandle) keeps — the policy
/// DNF ∆ bound and evaluates for that key — so the check covers both
/// compilation strategies, and a fragment spliced from another, by what
/// runs.
pub fn verify_fragment(fragment: &GuardFragment, allowed: &[&Policy]) -> Verdict {
    let partitions: HashMap<PartitionKey, &Expr> =
        fragment.partitions().map(|h| (h.key(), h.partition())).collect();
    let mut unresolved = false;
    let running = fragment.disjunction.map(&mut |e| match e {
        Expr::Udf { name, args } if name == DELTA_UDF => {
            let dnf = match args.first() {
                Some(Expr::Literal(Value::Int(key))) => partitions.get(key).map(|&e| e.clone()),
                _ => None,
            };
            unresolved |= dnf.is_none();
            dnf
        }
        _ => None,
    });
    if unresolved {
        return Verdict::Unknown {
            reason: "a ∆ call names no partition of the fragment".to_string(),
        };
    }
    check_containment(&running, allowed, DEFAULT_NODE_BUDGET)
}

/// True when the expression provably admits no row under engine
/// semantics (used for the dead-policy lint). Conservative: opaque
/// shapes and undecided cubes count as "maybe satisfiable".
fn expr_certainly_unsat(e: &Expr) -> bool {
    let Some(cubes) = to_cubes(e, true, 4096) else {
        return false;
    };
    cubes.iter().all(|cube| {
        let mut state = AbstractState::new();
        for l in cube {
            match assert_lit(&mut state, l) {
                AssertOutcome::Unsat => return true,
                AssertOutcome::Opaque => return false,
                AssertOutcome::Ok => {}
            }
        }
        state.is_certainly_unsat()
    })
}

/// Store lints for one relation's policy set: dead policies (object
/// conditions unsatisfiable — the grant can never produce a row) and
/// subsumed grants (one policy's rows a subset of a same-querier,
/// purpose-compatible sibling's — legal, but set cover pays for it).
/// Output is deterministic; the subsumption scan is capped at `max_pairs`
/// findings and says so when it truncates.
pub fn lint_policies(policies: &[&Policy], relation: &str, max_pairs: usize) -> Vec<Finding> {
    let mut findings = Vec::new();
    for p in policies {
        if expr_certainly_unsat(&p.to_expr()) {
            findings.push(Finding {
                kind: FindingKind::DeadPolicy,
                relation: relation.to_string(),
                policies: vec![p.id],
                detail: format!(
                    "policy#{} object conditions are unsatisfiable; it can never grant a row",
                    p.id
                ),
            });
        }
    }
    let mut pairs = 0usize;
    let mut truncated = false;
    for (i, p) in policies.iter().enumerate() {
        for q in policies.iter().skip(i + 1) {
            let (small, big) = if p.id <= q.id { (p, q) } else { (q, p) };
            if small.querier != big.querier
                || small.owner != big.owner
                || !(small.purpose_matches(&big.purpose) || big.purpose_matches(&small.purpose))
            {
                continue;
            }
            let subsumed = check_containment(&small.to_expr(), &[big], DEFAULT_NODE_BUDGET)
                .is_proven();
            if subsumed {
                if pairs >= max_pairs {
                    truncated = true;
                    continue;
                }
                pairs += 1;
                findings.push(Finding {
                    kind: FindingKind::OverlappingPolicies,
                    relation: relation.to_string(),
                    policies: vec![small.id, big.id],
                    detail: format!(
                        "policy#{} grants a subset of policy#{} (same querier/purpose); \
                         set cover pays for both",
                        small.id, big.id
                    ),
                });
            }
        }
    }
    if truncated {
        findings.push(Finding {
            kind: FindingKind::OverlappingPolicies,
            relation: relation.to_string(),
            policies: Vec::new(),
            detail: format!("subsumption scan truncated at {max_pairs} pairs"),
        });
    }
    findings.sort();
    findings.dedup();
    findings
}

/// Guard-shape lints for one generated expression: tautological guard
/// conditions (no narrowing — the index probe reads the whole relation)
/// and guards whose NULL safety the analyzer cannot confirm (opaque
/// condition shapes, or partition policies with derived/subquery
/// conditions — any exact-probe elision resting on those predicates being
/// non-NULL is unverified).
pub fn lint_guarded_expression(
    ge: &GuardedExpression,
    by_id: &HashMap<PolicyId, &Policy>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (i, g) in ge.guards.iter().enumerate() {
        let cond = g.condition.to_expr();
        match atom_of(&cond) {
            Atom::Opaque => {
                // Guard conditions that are conjunctions (exclusive-bound
                // ranges render as two comparisons) still lower cube-wise.
                let analyzable = to_cubes(&cond, true, 64)
                    .map(|cubes| {
                        cubes
                            .iter()
                            .flatten()
                            .all(|l| !matches!(l.atom, Atom::Opaque))
                    })
                    .unwrap_or(false);
                if !analyzable {
                    findings.push(Finding {
                        kind: FindingKind::NullSafetyUnconfirmed,
                        relation: ge.relation.clone(),
                        policies: g.policies.clone(),
                        detail: format!(
                            "guard {i} condition on `{}` is opaque to the analyzer; \
                             NULL behavior unverified",
                            g.condition.attr
                        ),
                    });
                }
            }
            atom => {
                let mut state = AbstractState::new();
                let outcome = assert_lit(
                    &mut state,
                    &eval::Lit {
                        atom,
                        positive: true,
                    },
                );
                if outcome == AssertOutcome::Ok {
                    if let Some(cs) = state.col(&g.condition.attr) {
                        if cs.set.is_total() {
                            findings.push(Finding {
                                kind: FindingKind::TautologicalGuard,
                                relation: ge.relation.clone(),
                                policies: g.policies.clone(),
                                detail: format!(
                                    "guard {i} condition on `{}` matches every non-null value; \
                                     the index probe degenerates to a scan",
                                    g.condition.attr
                                ),
                            });
                        }
                    }
                }
            }
        }
        for id in &g.policies {
            match by_id.get(id) {
                None => findings.push(Finding {
                    kind: FindingKind::NullSafetyUnconfirmed,
                    relation: ge.relation.clone(),
                    policies: vec![*id],
                    detail: format!(
                        "guard {i} partition references policy#{id} missing from the store; \
                         ∆ evaluation fails closed but the proof cannot cover it"
                    ),
                }),
                Some(p) => {
                    if crate::visitor::contains_subquery(&p.to_expr()) {
                        findings.push(Finding {
                            kind: FindingKind::NullSafetyUnconfirmed,
                            relation: ge.relation.clone(),
                            policies: vec![*id],
                            detail: format!(
                                "policy#{id} in guard {i} carries a derived (subquery) \
                                 condition; NULL safety of the partition filter is unverified"
                            ),
                        });
                    }
                }
            }
        }
    }
    findings.sort();
    findings.dedup();
    findings
}

/// Is an allow policy entirely cancelled by a deny condition set? Checks
/// `OC_allow ⇒ OC_deny`: when proven, every row the allow grants is also
/// denied, and (under deny-overrides-allow factoring, see
/// [`crate::deny`]) the allow contributes nothing.
pub fn allow_shadowed_by_deny(allow: &Policy, deny_conditions: &[ObjectCondition]) -> Verdict {
    let deny_expr = Expr::all(deny_conditions.iter().map(|c| c.to_expr()).collect());
    let rhs = implication::rhs_cubes_of_expr("deny", &deny_expr);
    check_implication(&allow.to_expr(), &deny_expr, &rhs, DEFAULT_NODE_BUDGET)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::guard::{generate_guarded_expression, GuardSelectionStrategy};
    use crate::policy::{CondPredicate, QuerierSpec};
    use minidb::value::DataType;
    use minidb::{Database, DbProfile, TableSchema, Value};

    fn wifi_db(rows: i64, owners: i64) -> Database {
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

    fn mk_policy(id: PolicyId, owner: i64, conds: Vec<ObjectCondition>) -> Policy {
        let mut p = Policy::new(owner, "wifi_dataset", QuerierSpec::User(9999), "Any", conds);
        p.id = id;
        p
    }

    fn by_id(policies: &[Policy]) -> HashMap<PolicyId, &Policy> {
        policies.iter().map(|p| (p.id, p)).collect()
    }

    fn time_cond(lo: u32, hi: u32) -> ObjectCondition {
        ObjectCondition::new(
            "ts_time",
            CondPredicate::Range {
                low: minidb::RangeBound::Inclusive(Value::Time(lo)),
                high: minidb::RangeBound::Inclusive(Value::Time(hi)),
            },
        )
    }

    #[test]
    fn generated_expression_is_proven() {
        let db = wifi_db(2000, 40);
        let policies: Vec<Policy> = (0..24)
            .map(|i| {
                mk_policy(
                    i,
                    (i % 6) as i64,
                    vec![time_cond(8 * 3600 + (i as u32 % 4) * 900, 18 * 3600)],
                )
            })
            .collect();
        let refs: Vec<&Policy> = policies.iter().collect();
        let entry = db.table("wifi_dataset").expect("table");
        let ge = generate_guarded_expression(
            &refs,
            entry,
            &CostModel::default(),
            GuardSelectionStrategy::CostOptimal,
            999,
            "Any",
            "wifi_dataset",
        );
        let map = by_id(&policies);
        assert_eq!(verify_guarded_expression(&ge, &map, &refs), Verdict::Proven);
    }

    #[test]
    fn seeded_widening_is_refuted_with_witness() {
        let db = wifi_db(2000, 40);
        // The querier's grant: owner 3, morning only.
        let mine = mk_policy(1, 3, vec![time_cond(9 * 3600, 10 * 3600)]);
        // A different querier's grant over the same owner, all day — NOT
        // in the allowed set.
        let theirs = mk_policy(2, 3, vec![time_cond(0, 86_399)]);
        let allowed = vec![&mine];
        let entry = db.table("wifi_dataset").expect("table");
        let mut ge = generate_guarded_expression(
            &allowed,
            entry,
            &CostModel::default(),
            GuardSelectionStrategy::CostOptimal,
            999,
            "Any",
            "wifi_dataset",
        );
        // Seeded widening bug: a guard partition picks up the foreign
        // policy, exactly the mistake a broken set-cover merge would make.
        ge.guards[0].policies.push(theirs.id);
        let policies = vec![mine.clone(), theirs.clone()];
        let map = by_id(&policies);
        let v = verify_guarded_expression(&ge, &map, &[&mine]);
        let Verdict::Refuted { witness } = v else {
            panic!("expected refutation, got {v:?}");
        };
        // The witness replays: inside the widened expression, outside the
        // allowed set.
        assert_eq!(eval::eval_concrete(&ge.to_expr(&map), &witness), Some(true));
        assert_eq!(eval::eval_concrete(&mine.to_expr(), &witness), Some(false));
    }

    #[test]
    fn dead_policy_lint_fires() {
        let dead = mk_policy(
            7,
            1,
            vec![
                ObjectCondition::new("wifi_ap", CondPredicate::Eq(Value::Int(5))),
                ObjectCondition::new("wifi_ap", CondPredicate::Eq(Value::Int(9))),
            ],
        );
        let live = mk_policy(8, 1, vec![]);
        let fs = lint_policies(&[&dead, &live], "wifi_dataset", 16);
        assert!(fs
            .iter()
            .any(|f| f.kind == FindingKind::DeadPolicy && f.policies == vec![7]));
        assert!(!fs
            .iter()
            .any(|f| f.kind == FindingKind::DeadPolicy && f.policies == vec![8]));
    }

    #[test]
    fn subsumed_grant_lint_fires() {
        let narrow = mk_policy(1, 2, vec![time_cond(9 * 3600, 10 * 3600)]);
        let wide = mk_policy(2, 2, vec![time_cond(8 * 3600, 12 * 3600)]);
        let fs = lint_policies(&[&narrow, &wide], "wifi_dataset", 16);
        assert!(fs
            .iter()
            .any(|f| f.kind == FindingKind::OverlappingPolicies && f.policies == vec![1, 2]));
    }

    #[test]
    fn shadowed_allow_detected() {
        let allow = mk_policy(1, 4, vec![time_cond(9 * 3600, 10 * 3600)]);
        // Deny covers the whole morning: the allow is dead weight.
        let deny = vec![
            ObjectCondition::new(crate::policy::OWNER_ATTR, CondPredicate::Eq(Value::Int(4))),
            time_cond(8 * 3600, 11 * 3600),
        ];
        assert!(allow_shadowed_by_deny(&allow, &deny).is_proven());
        // A partial deny does not shadow.
        let partial = vec![
            ObjectCondition::new(crate::policy::OWNER_ATTR, CondPredicate::Eq(Value::Int(4))),
            time_cond(9 * 3600 + 1800, 11 * 3600),
        ];
        assert!(!allow_shadowed_by_deny(&allow, &partial).is_proven());
    }

    #[test]
    fn fragment_verification_covers_inline_and_delta() {
        use crate::cost::CostModel;
        use crate::delta::DeltaRegistry;
        use crate::rewrite::{compile_guard_fragment, DeltaMode};

        let db = wifi_db(3000, 60);
        let policies: Vec<Policy> = (0..12)
            .map(|i| mk_policy(i, (i % 4) as i64, vec![time_cond(7 * 3600, 19 * 3600)]))
            .collect();
        let refs: Vec<&Policy> = policies.iter().collect();
        let entry = db.table("wifi_dataset").expect("table");
        let ge = generate_guarded_expression(
            &refs,
            entry,
            &CostModel::default(),
            GuardSelectionStrategy::CostOptimal,
            999,
            "Any",
            "wifi_dataset",
        );
        let map = by_id(&policies);
        let backend = db;
        let delta = DeltaRegistry::new();
        for mode in [DeltaMode::Never, DeltaMode::Always] {
            let fragment = compile_guard_fragment(
                &backend,
                &delta,
                &ge,
                &map,
                &CostModel::default(),
                mode,
            )
            .expect("compile");
            assert_eq!(verify_fragment(&fragment, &refs), Verdict::Proven, "mode {mode:?}");
        }
    }

    #[test]
    fn unknown_for_derived_condition_not_proven() {
        let mut p = Policy::new(
            5,
            "wifi",
            QuerierSpec::User(999),
            "Any",
            vec![ObjectCondition::new(
                "wifi_ap",
                CondPredicate::Derived(Box::new(minidb::SelectQuery::star_from("profiles"))),
            )],
        );
        p.id = 1;
        let ge = GuardedExpression {
            relation: "wifi".to_string(),
            querier: 999,
            purpose: "Any".to_string(),
            guards: vec![crate::guard::Guard {
                condition: p.owner_condition(),
                policies: vec![1],
                est_rows: 10.0,
            }],
        };
        let policies = vec![p.clone()];
        let map = by_id(&policies);
        let v = verify_guarded_expression(&ge, &map, &[&p]);
        assert!(
            matches!(v, Verdict::Unknown { .. }),
            "derived conditions must not be silently proven: {v:?}"
        );
    }

    #[test]
    fn verdicts_are_deterministic() {
        let db = wifi_db(1000, 20);
        let policies: Vec<Policy> = (0..10)
            .map(|i| mk_policy(i, (i % 5) as i64, vec![time_cond(6 * 3600, 20 * 3600)]))
            .collect();
        let refs: Vec<&Policy> = policies.iter().collect();
        let entry = db.table("wifi_dataset").expect("table");
        let run = || {
            let ge = generate_guarded_expression(
                &refs,
                entry,
                &CostModel::default(),
                GuardSelectionStrategy::CostOptimal,
                999,
                "Any",
                "wifi",
            );
            let map = by_id(&policies);
            format!("{:?}", verify_guarded_expression(&ge, &map, &refs))
        };
        assert_eq!(run(), run());
    }

    // Silence the unused import warning for DbProfile in this cfg(test).
    #[allow(dead_code)]
    fn _profile(_: DbProfile) {}
}
