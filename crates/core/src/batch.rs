//! Batched multi-querier evaluation — amortizing guard generation across
//! a batch of concurrent queriers (the ROADMAP's step from per-querier
//! caching toward "millions of users" traffic; cf. Shakya et al.,
//! "Scalable Enforcement of Fine Grained Access Control Policies").
//!
//! A batch is not a second way to build an entry; it is a key list handed
//! to the service's one cold build. [`crate::SieveService::prepare_batch`]
//! groups the requests with [`group_requests`] (scope-aware over the whole
//! query tree, so protected reads inside subqueries join their group),
//! drops the keys that are already warm, and builds the rest together:
//! claimed, re-checked, generated or placed, finished and published
//! exactly as a single-key lookup's build is.
//!
//! What several queriers of one `(purpose, relation)` **share** is the
//! querier-independent half of generation — one collection of the
//! guardable conditions of every policy some member needs, identical ones
//! collapsed, each with its histogram estimate — and one partition memo
//! for fragment compilation. What stays **per querier** is everything that
//! depends on which policies apply: the relevant set, the restriction of
//! the collection to it, Theorem 1's merge sweep over *its* ranges, and the
//! utility-greedy set cover. Merging after restriction is why the result
//! is the single path's, expression for expression: a range merged against
//! the whole group's union could come out wider than the querier's own
//! policies justify.

use crate::cost::CostModel;
use crate::filter::GroupDirectory;
use crate::guard::{
    guards_over, CarriedConditions, GuardSelectionStrategy, GuardableConditions,
    GuardedExpression,
};
use crate::policy::{Policy, QueryMetadata, UserId};
use crate::rewrite::collect_protected;
use crate::store::PolicyStore;
use minidb::catalog::TableEntry;
use minidb::plan::SelectQuery;
use std::collections::{BTreeMap, HashSet};

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

/// Generate the guarded expressions of one `(purpose, relation)` group,
/// one per querier with the conditions its policies carry (for a later
/// placement; `None` where nothing can be placed), and the group's report
/// (`partition_reuses` is the caller's to fill). Conditions are collected
/// once, over every policy some member needs; a single-key lookup is a
/// group of one, collecting over its own relevant set.
pub(crate) fn generate_group(
    store: &PolicyStore,
    groups: &GroupDirectory,
    entry: &TableEntry,
    cost: &CostModel,
    strategy: GuardSelectionStrategy,
    (purpose, relation): (&str, &str),
    queriers: &[&QueryMetadata],
) -> (Vec<(GuardedExpression, Option<CarriedConditions>)>, BatchGroupReport) {
    let relevant: Vec<Vec<&Policy>> =
        queriers.iter().map(|qm| store.relevant(relation, qm, groups)).collect();
    let mut union: Vec<&Policy> = relevant.iter().flatten().copied().collect();
    union.sort_unstable_by_key(|p| p.id);
    union.dedup_by_key(|p| p.id);
    let conditions = GuardableConditions::collect(&union, entry);
    let exprs = queriers
        .iter()
        .zip(&relevant)
        .map(|(qm, relevant)| {
            let expr = GuardedExpression {
                relation: relation.to_string(),
                querier: qm.querier,
                purpose: qm.purpose.clone(),
                guards: guards_over(&conditions, relevant, entry, cost, strategy),
            };
            let placeable = strategy == GuardSelectionStrategy::CostOptimal;
            (expr, placeable.then(|| conditions.carried_by(relevant)).flatten())
        })
        .collect();
    let report = BatchGroupReport {
        purpose: purpose.to_string(),
        relation: relation.to_string(),
        queriers: queriers.len(),
        generated: queriers.len(),
        slice_policies: union.len(),
        shared_candidates: conditions.len(),
        partition_reuses: 0,
    };
    (exprs, report)
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
    /// Guarded expressions generated (the rest were kept, see
    /// [`BatchPrepareReport::reused`]).
    pub generated: usize,
    /// Distinct policies the group's conditions were collected over,
    /// once: every policy relevant to some generated member.
    pub slice_policies: usize,
    /// Distinct guardable conditions collected once per group.
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
    /// `(querier, purpose, relation)` keys whose cached expression was
    /// kept: already current, brought current by a racing build, or
    /// extended (pending policies placed, the fragment recompiled without
    /// running Algorithm 1). Either way the first post-batch rewrite per
    /// key is a pure hit.
    pub reused: usize,
    /// Sum of [`BatchGroupReport::partition_reuses`] across groups.
    pub partition_reuses: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::filter::{relevant_policies, GroupDirectory};
    use crate::policy::{CondPredicate, ObjectCondition, PolicyId, QuerierSpec};
    use std::collections::BTreeSet;
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
        let corpus = corpus();
        let mut groups = GroupDirectory::new();
        groups.add_member(7, 500);
        groups.add_member(7, 777);
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
        let cost = CostModel::default();
        let strategy = GuardSelectionStrategy::CostOptimal;
        let queriers = [QueryMetadata::new(500, "Analytics"), QueryMetadata::new(501, "Analytics")];
        let group = |members: &[&QueryMetadata]| {
            let key = ("Analytics", "wifi_dataset");
            generate_group(&corpus, &groups, entry, &cost, strategy, key, members)
        };
        let (shared, report) = group(&[&queriers[0], &queriers[1]]);
        assert_eq!(report.slice_policies, 13, "the other relation and purpose stay outside");
        assert_eq!((report.queriers, report.generated), (2, 2));
        for (qm, (ge, carried)) in queriers.iter().zip(&shared) {
            let relevant = corpus.relevant("wifi_dataset", qm, &groups);
            let expect: BTreeSet<PolicyId> = relevant.iter().map(|p| p.id).collect();
            assert_eq!(ge.covered_policies(), expect, "exactly-once cover of the relevant set");
            let total: usize = ge.guards.iter().map(|g| g.partition_size()).sum();
            assert_eq!(total, expect.len(), "partitions disjoint");
            // Out of the group's slice or out of the querier's own
            // policies: the same expression.
            let (own, report) = group(&[qm]);
            assert_eq!(report.slice_policies, relevant.len());
            assert_eq!(own[0].0, *ge, "querier {}", qm.querier);
            let carried = carried.as_ref().map(|c| (c.len(), c.last));
            assert_eq!(own[0].1.as_ref().map(|c| (c.len(), c.last)), carried);
            assert!(carried.is_some(), "every policy here carries its owner condition");
        }
    }
}
