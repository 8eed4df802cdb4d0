//! Batched multi-querier evaluation — amortizing guard generation across
//! a batch of concurrent queriers (the ROADMAP's step from per-querier
//! caching toward "millions of users" traffic; cf. Shakya et al.,
//! "Scalable Enforcement of Fine Grained Access Control Policies").
//!
//! Guard generation for one `(querier, purpose, relation)` splits into a
//! **querier-independent** half — filtering the policy store down to the
//! relation's purpose slice, collecting guardable conditions, estimating
//! their cardinalities from histograms, and the Theorem 1 range-merge
//! sweep — and a **querier-dependent** half: restricting to the querier's
//! relevant policies and the utility-greedy set cover. When many queriers
//! hit the same `(purpose, relation)` in one batch, the shared half runs
//! once per group instead of once per querier.
//!
//! [`crate::SieveService::prepare_batch`] drives the process:
//! requests are grouped by [`group_requests`] (scope-aware over the whole
//! query tree, so protected reads inside subqueries join their group), a
//! [`SharedGroup`] is built per group, per-querier expressions come from
//! [`SharedGroup::generate_for`], and the results enter the guard cache
//! through one bulk insert. Batching changes the work schedule only —
//! each querier's guarded expression covers exactly its relevant policies,
//! so results are identical to sequential [`crate::SieveService::execute`]
//! calls.

use crate::cost::CostModel;
use crate::filter::GroupDirectory;
use crate::guard::candidates::{generate_shared_candidates, SharedCandidates};
use crate::guard::{
    owner_fallback_guards, select_guards, GuardSelectionStrategy, GuardedExpression,
};
use crate::policy::{Policy, PolicyId, QueryMetadata, UserId};
use crate::rewrite::collect_protected;
use crate::store::PolicyStore;
use minidb::catalog::TableEntry;
use minidb::plan::SelectQuery;
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// Group a batch of requests by `(purpose, relation)`: every distinct
/// querier reading the relation under that purpose, in first-seen order.
/// Protected reads are collected over the whole query tree (derived
/// tables, WITH bodies, scalar subqueries) with WITH-scope shadowing
/// resolved, exactly like the rewriter does.
pub fn group_requests<'r>(
    requests: &'r [(QueryMetadata, SelectQuery)],
    protected: &HashSet<String>,
) -> BTreeMap<(String, String), Vec<&'r QueryMetadata>> {
    let mut groups: BTreeMap<(String, String), Vec<&QueryMetadata>> = BTreeMap::new();
    let mut seen: HashSet<(UserId, String, String)> = HashSet::new();
    for (qm, query) in requests {
        for rel in collect_protected(query, protected) {
            if seen.insert((qm.querier, qm.purpose.clone(), rel.clone())) {
                groups
                    .entry((qm.purpose.clone(), rel))
                    .or_default()
                    .push(qm);
            }
        }
    }
    groups
}

/// One `(purpose, relation)` batch group: the shared candidate set built
/// over the relation's policy slice for that purpose, beside the store
/// whose index answers each querier's relevant set.
pub struct SharedGroup<'a> {
    /// Protected relation of the group.
    pub relation: String,
    /// Query purpose of the group.
    pub purpose: String,
    /// Policies in the purpose-relation slice (the store scan the batch
    /// performs once instead of once per querier).
    pub slice_len: usize,
    store: &'a PolicyStore,
    shared: SharedCandidates,
}

/// Build the shared half for one group: scan the store once, keep the
/// relation+purpose slice, and generate candidates over its union.
pub fn build_shared_group<'a>(
    store: &'a PolicyStore,
    relation: &str,
    purpose: &str,
    entry: &TableEntry,
    cost: &CostModel,
) -> SharedGroup<'a> {
    let slice: Vec<&Policy> = store
        .iter()
        .filter(|p| p.relation == relation && p.purpose_matches(purpose))
        .collect();
    SharedGroup {
        relation: relation.to_string(),
        purpose: purpose.to_string(),
        slice_len: slice.len(),
        store,
        shared: generate_shared_candidates(&slice, entry, cost),
    }
}

impl SharedGroup<'_> {
    /// Shared candidates built for the group.
    pub fn shared_candidates(&self) -> usize {
        self.shared.len()
    }

    /// Generate one querier's guarded expression from the shared phase:
    /// only the subset restriction and the set cover run per querier.
    pub fn generate_for(
        &self,
        qm: &QueryMetadata,
        groups: &GroupDirectory,
        entry: &TableEntry,
        cost: &CostModel,
        strategy: GuardSelectionStrategy,
    ) -> GuardedExpression {
        debug_assert!(qm.purpose == self.purpose, "request grouped by purpose");
        let relevant = self.store.relevant(&self.relation, qm, groups);
        let guards = match strategy {
            GuardSelectionStrategy::CostOptimal => {
                let subset: BTreeSet<PolicyId> = relevant.iter().map(|p| p.id).collect();
                let cands = self.shared.restrict(&subset);
                select_guards(cands, &relevant, entry, cost)
            }
            GuardSelectionStrategy::OwnerOnly => {
                owner_fallback_guards(relevant.iter().map(|p| (p.id, p.owner)), entry)
            }
        };
        GuardedExpression {
            relation: self.relation.clone(),
            querier: qm.querier,
            purpose: qm.purpose.clone(),
            guards,
        }
    }
}

/// Per-group outcome of a batch prepare.
#[derive(Debug, Clone)]
pub struct BatchGroupReport {
    /// Query purpose of the group.
    pub purpose: String,
    /// Protected relation of the group.
    pub relation: String,
    /// Distinct queriers in the group.
    pub queriers: usize,
    /// Guarded expressions generated (the rest were already fresh).
    pub generated: usize,
    /// Policies in the purpose-relation slice, scanned once per group.
    pub slice_policies: usize,
    /// Shared candidates built once per group.
    pub shared_candidates: usize,
    /// Guard partitions whose compilation (inline DNF or ∆ registration)
    /// was reused from another querier of this group instead of redone —
    /// the batched-fragment-compilation win.
    pub partition_reuses: usize,
}

/// Outcome of [`crate::SieveService::prepare_batch`].
#[derive(Debug, Clone, Default)]
pub struct BatchPrepareReport {
    /// Per-group breakdown.
    pub groups: Vec<BatchGroupReport>,
    /// Guarded expressions generated across all groups.
    pub generated: usize,
    /// `(querier, purpose, relation)` keys already fresh in the cache.
    pub reused: usize,
    /// Rewrite fragments compiled alongside the generated expressions
    /// (one per generated expression — the first post-batch rewrite per
    /// querier is a pure fragment hit).
    pub fragments_compiled: usize,
    /// Sum of [`BatchGroupReport::partition_reuses`] across groups.
    pub partition_reuses: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::relevant_policies;
    use crate::policy::{CondPredicate, ObjectCondition, QuerierSpec};
    use minidb::value::{DataType, Value};
    use minidb::{Database, DbProfile, TableSchema};

    fn wifi_db() -> Database {
        let mut db = Database::new(DbProfile::MySqlLike);
        db.create_table(TableSchema::of(
            "wifi_dataset",
            &[
                ("id", DataType::Int),
                ("owner", DataType::Int),
                ("wifi_ap", DataType::Int),
            ],
        ))
        .unwrap();
        for i in 0..2000i64 {
            db.insert(
                "wifi_dataset",
                vec![Value::Int(i), Value::Int(i % 40), Value::Int(1000 + i % 8)],
            )
            .unwrap();
        }
        db.create_index("wifi_dataset", "owner").unwrap();
        db.create_index("wifi_dataset", "wifi_ap").unwrap();
        db.analyze("wifi_dataset").unwrap();
        db
    }

    fn corpus() -> PolicyStore {
        let mut out = PolicyStore::new();
        // Group 7 grant shared by every member, plus per-user grants.
        for owner in 0..10i64 {
            out.add(Policy::new(
                owner,
                "wifi_dataset",
                QuerierSpec::Group(7),
                "Analytics",
                vec![ObjectCondition::new(
                    "wifi_ap",
                    CondPredicate::Eq(Value::Int(1001)),
                )],
            ));
        }
        for (owner, user) in [(11i64, 500i64), (12, 501), (13, 500)] {
            out.add(Policy::new(owner, "wifi_dataset", QuerierSpec::User(user), "Any", vec![]));
        }
        // A different relation and a different purpose: outside the slice.
        out.add(Policy::new(9, "other", QuerierSpec::User(500), "Analytics", vec![]));
        out.add(Policy::new(9, "wifi_dataset", QuerierSpec::User(500), "Safety", vec![]));
        out
    }

    #[test]
    fn group_requests_groups_by_purpose_relation_and_dedups_queriers() {
        let protected: HashSet<String> = ["wifi_dataset".to_string()].into();
        let q = SelectQuery::star_from("wifi_dataset");
        let requests = vec![
            (QueryMetadata::new(500, "Analytics"), q.clone()),
            (QueryMetadata::new(501, "Analytics"), q.clone()),
            (QueryMetadata::new(500, "Analytics"), q.clone()), // duplicate
            (QueryMetadata::new(500, "Safety"), q.clone()),
            // Unprotected relation contributes nothing.
            (QueryMetadata::new(502, "Analytics"), SelectQuery::star_from("other")),
        ];
        let groups = group_requests(&requests, &protected);
        assert_eq!(groups.len(), 2);
        let a = &groups[&("Analytics".to_string(), "wifi_dataset".to_string())];
        assert_eq!(a.iter().map(|qm| qm.querier).collect::<Vec<_>>(), vec![500, 501]);
        let s = &groups[&("Safety".to_string(), "wifi_dataset".to_string())];
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn group_requests_sees_nested_protected_reads() {
        let protected: HashSet<String> = ["wifi_dataset".to_string()].into();
        let inner = SelectQuery::star_from("wifi_dataset");
        let nested = SelectQuery {
            from: vec![minidb::plan::TableRef {
                source: minidb::plan::TableSource::Derived(Box::new(inner)),
                alias: "d".into(),
                hint: minidb::plan::IndexHint::None,
            }],
            ..SelectQuery::star_from("ignored")
        };
        let requests = vec![(QueryMetadata::new(500, "Analytics"), nested)];
        let groups = group_requests(&requests, &protected);
        assert_eq!(groups.len(), 1, "derived-table read must join its group");
    }

    #[test]
    fn relevant_for_matches_full_store_filter() {
        let db = wifi_db();
        let entry = db.table("wifi_dataset").unwrap();
        let corpus = corpus();
        let mut groups = GroupDirectory::new();
        groups.add_member(7, 500);
        groups.add_member(7, 777);
        let group =
            build_shared_group(&corpus, "wifi_dataset", "Analytics", entry, &CostModel::default());
        assert_eq!(group.slice_len, 13, "the other relation and purpose stay outside");
        for querier in [500i64, 501, 777, 999] {
            let qm = QueryMetadata::new(querier, "Analytics");
            let expect = relevant_policies(corpus.iter(), "wifi_dataset", &qm, &groups);
            let got = corpus.relevant("wifi_dataset", &qm, &groups);
            assert_eq!(got, expect, "querier {querier}");
        }
    }

    #[test]
    fn generate_for_covers_exactly_the_relevant_policies() {
        let db = wifi_db();
        let entry = db.table("wifi_dataset").unwrap();
        let corpus = corpus();
        let mut groups = GroupDirectory::new();
        groups.add_member(7, 500);
        let group =
            build_shared_group(&corpus, "wifi_dataset", "Analytics", entry, &CostModel::default());
        let qm = QueryMetadata::new(500, "Analytics");
        let ge = group.generate_for(
            &qm,
            &groups,
            entry,
            &CostModel::default(),
            GuardSelectionStrategy::CostOptimal,
        );
        let covered = ge.covered_policies();
        let expect: BTreeSet<PolicyId> = corpus
            .relevant("wifi_dataset", &qm, &groups)
            .iter()
            .map(|p| p.id)
            .collect();
        assert_eq!(covered, expect, "exactly-once cover of the relevant set");
        let total: usize = ge.guards.iter().map(|g| g.partition_size()).sum();
        assert_eq!(total, expect.len(), "partitions disjoint");
    }
}
