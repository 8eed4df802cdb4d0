//! Policy filtering by query metadata (first strategy of Section 3.2:
//! "Reducing Number of Policies").
//!
//! Given `QM = (querier, purpose)`, only policies whose querier condition
//! names the querier or one of the querier's groups, and whose purpose
//! condition matches, are relevant: `P_QM ⊆ P`.

use crate::policy::{GroupId, Policy, QuerierSpec, QueryMetadata, UserId};
use std::collections::BTreeMap;

/// User ↔ group memberships. Groups are hierarchical in the paper's model
/// (a group can subsume another); the directory stores the *transitive
/// closure* per user, so `groups_of` already reflects subsumption.
///
/// Backed by `BTreeMap` (not `HashMap`) so iteration and `Debug` output
/// are deterministic — identically-seeded workload generations must be
/// byte-identical run to run (see `tests/determinism.rs`).
#[derive(Debug, Clone, Default)]
pub struct GroupDirectory {
    user_groups: BTreeMap<UserId, Vec<GroupId>>,
    group_members: BTreeMap<GroupId, Vec<UserId>>,
    /// Direct subsumption edges: child group → parent group.
    parents: BTreeMap<GroupId, Vec<GroupId>>,
}

impl GroupDirectory {
    /// Empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a membership.
    pub fn add_member(&mut self, group: GroupId, user: UserId) {
        let groups = self.user_groups.entry(user).or_default();
        if !groups.contains(&group) {
            groups.push(group);
        }
        let members = self.group_members.entry(group).or_default();
        if !members.contains(&user) {
            members.push(user);
        }
    }

    /// Declare that `child` is subsumed by `parent` (e.g. undergraduates ⊂
    /// students). Members of `child` become members of `parent` too.
    pub fn add_subsumption(&mut self, child: GroupId, parent: GroupId) {
        self.parents.entry(child).or_default().push(parent);
        // Propagate current members of child (and transitively) upward.
        let members = self.group_members.get(&child).cloned().unwrap_or_default();
        for m in members {
            self.add_member(parent, m);
        }
    }

    /// The groups a user belongs to (the paper's `group(u_k)`), including
    /// groups reached through subsumption edges added before membership.
    pub fn groups_of(&self, user: UserId) -> Vec<GroupId> {
        let mut out = self.user_groups.get(&user).cloned().unwrap_or_default();
        // Close over subsumption for memberships added after the edge.
        let mut i = 0;
        while i < out.len() {
            if let Some(ps) = self.parents.get(&out[i]) {
                for p in ps {
                    if !out.contains(p) {
                        out.push(*p);
                    }
                }
            }
            i += 1;
        }
        out
    }

    /// True iff `user` is (transitively) a member of `group`.
    pub fn is_member(&self, user: UserId, group: GroupId) -> bool {
        self.groups_of(user).contains(&group)
    }
}

/// True iff policy `p` is relevant to the query metadata:
/// `QM_purpose = qc_purpose ∧ (QM_querier = qc_querier ∨ qc_querier ∈
/// group(QM_querier))` (Section 3.2).
pub fn policy_applies(p: &Policy, qm: &QueryMetadata, groups: &GroupDirectory) -> bool {
    if !p.purpose_matches(&qm.purpose) {
        return false;
    }
    let querier_ok = match &p.querier {
        QuerierSpec::User(u) => *u == qm.querier,
        QuerierSpec::Group(g) => groups.is_member(qm.querier, *g),
    };
    if !querier_ok {
        return false;
    }
    // Extra querier-context conditions (Section 3.1): every (attr, value)
    // pair the policy names must be present in the query metadata.
    p.querier_context
        .iter()
        .all(|(attr, value)| qm.context_value(attr) == Some(value))
}

/// Filter a policy set down to `P_QM` for a given relation.
pub fn relevant_policies<'a>(
    policies: impl IntoIterator<Item = &'a Policy>,
    relation: &str,
    qm: &QueryMetadata,
    groups: &GroupDirectory,
) -> Vec<&'a Policy> {
    policies
        .into_iter()
        .filter(|p| p.relation == relation && policy_applies(p, qm, groups))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{ObjectCondition, CondPredicate};
    use minidb::Value;

    fn policy(owner: UserId, querier: QuerierSpec, purpose: &str) -> Policy {
        Policy::new(
            owner,
            "wifi_dataset",
            querier,
            purpose,
            vec![ObjectCondition::new(
                "wifi_ap",
                CondPredicate::Eq(Value::Int(1200)),
            )],
        )
    }

    #[test]
    fn user_policy_applies_only_to_that_user() {
        let p = policy(1, QuerierSpec::User(500), "Analytics");
        let g = GroupDirectory::new();
        assert!(policy_applies(&p, &QueryMetadata::new(500, "Analytics"), &g));
        assert!(!policy_applies(&p, &QueryMetadata::new(501, "Analytics"), &g));
    }

    #[test]
    fn purpose_must_match() {
        let p = policy(1, QuerierSpec::User(500), "Analytics");
        let g = GroupDirectory::new();
        assert!(!policy_applies(&p, &QueryMetadata::new(500, "Attendance"), &g));
    }

    #[test]
    fn group_policy_applies_to_members() {
        let p = policy(1, QuerierSpec::Group(42), "Analytics");
        let mut g = GroupDirectory::new();
        g.add_member(42, 500);
        assert!(policy_applies(&p, &QueryMetadata::new(500, "Analytics"), &g));
        assert!(!policy_applies(&p, &QueryMetadata::new(501, "Analytics"), &g));
    }

    #[test]
    fn subsumption_extends_membership() {
        // undergrads (10) ⊂ students (11); policy for students.
        let p = policy(1, QuerierSpec::Group(11), "Any");
        let mut g = GroupDirectory::new();
        g.add_member(10, 500);
        g.add_subsumption(10, 11);
        assert!(g.is_member(500, 11));
        assert!(policy_applies(&p, &QueryMetadata::new(500, "Whatever"), &g));
        // Order shouldn't matter: membership added after the edge.
        let mut g2 = GroupDirectory::new();
        g2.add_subsumption(10, 11);
        g2.add_member(10, 501);
        assert!(g2.is_member(501, 11));
    }

    #[test]
    fn context_conditions_gate_applicability() {
        // Policy applies only from the campus network for safety purposes.
        let p = policy(1, QuerierSpec::User(500), "Safety")
            .with_context("network", Value::str("campus"));
        let g = GroupDirectory::new();
        let on_campus = QueryMetadata::new(500, "Safety")
            .with_context("network", Value::str("campus"));
        let off_campus = QueryMetadata::new(500, "Safety")
            .with_context("network", Value::str("public"));
        let no_context = QueryMetadata::new(500, "Safety");
        assert!(policy_applies(&p, &on_campus, &g));
        assert!(!policy_applies(&p, &off_campus, &g));
        assert!(!policy_applies(&p, &no_context, &g));
        // Extra metadata context a policy doesn't mention is ignored.
        let p2 = policy(1, QuerierSpec::User(500), "Safety");
        assert!(policy_applies(&p2, &on_campus, &g));
    }

    #[test]
    fn relevant_policies_filters_by_relation_too() {
        let mut p1 = policy(1, QuerierSpec::User(500), "Analytics");
        p1.relation = "other_table".into();
        let p2 = policy(2, QuerierSpec::User(500), "Analytics");
        let g = GroupDirectory::new();
        let qm = QueryMetadata::new(500, "Analytics");
        let all = [p1, p2];
        let rel = relevant_policies(all.iter(), "wifi_dataset", &qm, &g);
        assert_eq!(rel.len(), 1);
        assert_eq!(rel[0].owner, 2);
    }
}
