//! The in-memory policy state, standing in for the paper's `rP` / `rOC` relations (Section 5.1).
//!
//! One value holds everything that decides which policies apply to a
//! query: the policies, the group directory their group grants resolve
//! through, and the set of access-controlled relations. The service keeps
//! it behind one `RwLock`, so a write to any of the three is ordered
//! against every cold build as the DBMS orders inserts into its policy
//! relations against guard regeneration (Section 6).

use crate::filter::{policy_applies, GroupDirectory};
use crate::policy::{Policy, PolicyId, QuerierSpec, QueryMetadata};
use std::collections::{BTreeMap, HashMap, HashSet};

/// In-memory policy state: the policies with id assignment and lookups,
/// the group directory, and the protected relations.
#[derive(Debug, Default)]
pub struct PolicyStore {
    policies: BTreeMap<PolicyId, Policy>,
    /// Who each policy is granted to → its id, ascending. Kept by `add`
    /// alone, and policies are never removed, so it is always the whole
    /// store: the prefilter of [`PolicyStore::relevant`].
    by_querier: HashMap<QuerierSpec, Vec<PolicyId>>,
    next_id: PolicyId,
    groups: GroupDirectory,
    /// Access-controlled relations: every relation a policy names, plus
    /// those declared by [`PolicyStore::protect`].
    protected: HashSet<String>,
}

impl PolicyStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a policy: assigns its id and protects its relation.
    pub fn add(&mut self, mut p: Policy) -> PolicyId {
        self.next_id += 1;
        p.id = self.next_id;
        self.protected.insert(p.relation.clone());
        self.by_querier.entry(p.querier.clone()).or_default().push(p.id);
        self.policies.insert(p.id, p);
        self.next_id
    }

    /// Look up by id.
    pub fn get(&self, id: PolicyId) -> Option<&Policy> {
        self.policies.get(&id)
    }

    /// All policies in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Policy> {
        self.policies.values()
    }

    /// Number of policies.
    pub fn len(&self) -> usize {
        self.policies.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.policies.is_empty()
    }

    /// The group directory group grants resolve through.
    pub fn groups(&self) -> &GroupDirectory {
        &self.groups
    }

    /// Mutable access to the group directory.
    pub fn groups_mut(&mut self) -> &mut GroupDirectory {
        &mut self.groups
    }

    /// The access-controlled relations.
    pub fn protected(&self) -> &HashSet<String> {
        &self.protected
    }

    /// Declare `relation` access-controlled.
    pub fn protect(&mut self, relation: String) {
        self.protected.insert(relation);
    }

    /// True iff `p` applies to `qm` under this store's group directory
    /// ([`policy_applies`]).
    pub fn applies(&self, p: &Policy, qm: &QueryMetadata) -> bool {
        policy_applies(p, qm, &self.groups)
    }

    /// `P_QM` for a relation, in id order — what
    /// [`crate::filter::relevant_policies`] returns over [`Self::iter`],
    /// without the scan: the index narrows to the policies granted to the
    /// querier or to one of its (transitive) groups, and the canonical
    /// [`policy_applies`] makes the final call, so the lookup cannot
    /// diverge from the scan on any applicability rule (purpose wildcards,
    /// querier context, whatever comes next).
    pub fn relevant(&self, relation: &str, qm: &QueryMetadata) -> Vec<&Policy> {
        let specs = std::iter::once(QuerierSpec::User(qm.querier))
            .chain(self.groups.groups_of(qm.querier).into_iter().map(QuerierSpec::Group));
        let mut ids: Vec<PolicyId> = specs
            .filter_map(|spec| self.by_querier.get(&spec))
            .flatten()
            .copied()
            .collect();
        ids.sort_unstable();
        ids.iter()
            .filter_map(|id| self.policies.get(id))
            .filter(|p| p.relation == relation && self.applies(p, qm))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{CondPredicate, ObjectCondition};
    use minidb::value::Value;

    fn sample_policies() -> Vec<Policy> {
        vec![
            Policy::new(
                120,
                "wifi_dataset",
                QuerierSpec::User(500),
                "Attendance",
                vec![
                    ObjectCondition::new(
                        "ts_time",
                        CondPredicate::between(Value::Time(9 * 3600), Value::Time(10 * 3600)),
                    ),
                    ObjectCondition::new("wifi_ap", CondPredicate::Eq(Value::Int(1200))),
                ],
            ),
            Policy::new(
                145,
                "wifi_dataset",
                QuerierSpec::Group(7),
                "Any",
                vec![ObjectCondition::new(
                    "wifi_ap",
                    CondPredicate::In(vec![Value::Int(2300), Value::Int(2301)]),
                )],
            ),
            Policy::new(
                146,
                "wifi_dataset",
                QuerierSpec::User(501),
                "Analytics",
                vec![ObjectCondition::new(
                    "ts_time",
                    CondPredicate::ge(Value::Time(8 * 3600)),
                )],
            ),
        ]
    }

    #[test]
    fn store_assigns_ids() {
        let mut store = PolicyStore::new();
        let ids: Vec<PolicyId> = sample_policies().into_iter().map(|p| store.add(p)).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        assert_eq!(store.len(), 3);
        assert!(store.protected().contains("wifi_dataset"), "a policy protects its relation");
    }

    /// [`PolicyStore::relevant`]'s index never changes the answer: a group
    /// grant, per-user grants and, outside the slice, another relation and
    /// another purpose, for members, non-members and strangers.
    #[test]
    fn relevant_matches_the_full_store_filter() {
        let mut store = PolicyStore::new();
        for owner in 0..10i64 {
            let at_1001 = ObjectCondition::new("wifi_ap", CondPredicate::Eq(Value::Int(1001)));
            let group = QuerierSpec::Group(7);
            store.add(Policy::new(owner, "wifi_dataset", group, "Analytics", vec![at_1001]));
        }
        for (owner, user) in [(11i64, 500i64), (12, 501), (13, 500)] {
            store.add(Policy::new(owner, "wifi_dataset", QuerierSpec::User(user), "Any", vec![]));
        }
        store.add(Policy::new(9, "other", QuerierSpec::User(500), "Analytics", vec![]));
        store.add(Policy::new(9, "wifi_dataset", QuerierSpec::User(500), "Safety", vec![]));
        store.groups_mut().add_member(7, 500);
        store.groups_mut().add_member(7, 777);
        for querier in [500i64, 501, 777, 999] {
            let qm = QueryMetadata::new(querier, "Analytics");
            let expect =
                crate::filter::relevant_policies(store.iter(), "wifi_dataset", &qm, store.groups());
            assert_eq!(store.relevant("wifi_dataset", &qm), expect, "querier {querier}");
        }
    }
}
