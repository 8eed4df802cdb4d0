//! The in-memory policy registry, standing in for the paper's `rP` / `rOC` relations (Section 5.1).

use crate::filter::{policy_applies, GroupDirectory};
use crate::policy::{Policy, PolicyId, QuerierSpec, QueryMetadata};
use std::collections::{BTreeMap, HashMap};

/// In-memory policy registry: id assignment and lookups.
#[derive(Debug, Default)]
pub struct PolicyStore {
    policies: BTreeMap<PolicyId, Policy>,
    /// Who each policy is granted to → its id, ascending. Kept by `add`
    /// alone, and policies are never removed, so it is always the whole
    /// store: the prefilter of [`PolicyStore::relevant`].
    by_querier: HashMap<QuerierSpec, Vec<PolicyId>>,
    next_id: PolicyId,
}

impl PolicyStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a policy: assigns its id.
    pub fn add(&mut self, mut p: Policy) -> PolicyId {
        self.next_id += 1;
        p.id = self.next_id;
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

    /// `P_QM` for a relation, in id order — what
    /// [`crate::filter::relevant_policies`] returns over [`Self::iter`],
    /// without the scan: the index narrows to the policies granted to the
    /// querier or to one of its (transitive) groups, and the canonical
    /// [`policy_applies`] makes the final call, so the lookup cannot
    /// diverge from the scan on any applicability rule (purpose wildcards,
    /// querier context, whatever comes next).
    pub fn relevant(
        &self,
        relation: &str,
        qm: &QueryMetadata,
        groups: &GroupDirectory,
    ) -> Vec<&Policy> {
        let specs = std::iter::once(QuerierSpec::User(qm.querier))
            .chain(groups.groups_of(qm.querier).into_iter().map(QuerierSpec::Group));
        let mut ids: Vec<PolicyId> = specs
            .filter_map(|spec| self.by_querier.get(&spec))
            .flatten()
            .copied()
            .collect();
        ids.sort_unstable();
        ids.iter()
            .filter_map(|id| self.policies.get(id))
            .filter(|p| p.relation == relation && policy_applies(p, qm, groups))
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
    }
}
