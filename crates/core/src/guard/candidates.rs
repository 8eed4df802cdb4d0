//! Candidate-guard generation (paper Section 4.1).
//!
//! Every object condition that is (a) on an indexed attribute and (b) a
//! constant predicate is a candidate guard; identical conditions from
//! different policies collapse into one candidate. Range conditions on the
//! same attribute are then merged pairwise when Theorem 1's benefit test
//!
//! ```text
//! ρ(oc_x ∩ oc_y) / ρ(oc_x ∪ oc_y)  >  c_e / (c_r + c_e)     (Equation 8)
//! ```
//!
//! holds; disjoint ranges are never merged (Theorem 1), and the sweep over
//! left-sorted candidates stops looking past the first non-overlapping
//! candidate (Corollaries 1.1 and 1.2).
//!
//! There is one pipeline, in two halves: collecting, collapsing and
//! estimating (`GuardableConditions::collect`), then merging the ranges
//! (`GuardableConditions::candidates_for`) — which is how
//! [`generate_candidates`] is defined. The service keeps the collection of
//! a generation to fingerprint what its policies carry
//! (`GuardableConditions::carried_by`), for a later placement.

use super::placement::CarriedConditions;
use crate::cost::CostModel;
use crate::policy::{CondPredicate, ObjectCondition, Policy, PolicyId};
use minidb::catalog::TableEntry;
use minidb::RangeBound;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};

/// A candidate guard: a guardable condition plus the policies it covers.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateGuard {
    /// The candidate condition.
    pub condition: ObjectCondition,
    /// Policies for which the condition is a valid filter (`oc_j ⟹ oc_g`).
    pub policies: BTreeSet<PolicyId>,
    /// Estimated matching rows `ρ(oc_g)`.
    pub est_rows: f64,
}

/// Estimate the rows matching a condition using the table's histogram
/// (falling back to exact index counts, then to the table size).
pub fn estimate_condition_rows(oc: &ObjectCondition, entry: &TableEntry) -> f64 {
    let hist = entry.histogram(&oc.attr);
    let idx = entry.index_on(&oc.attr);
    match &oc.pred {
        CondPredicate::Eq(v) => hist
            .map(|h| h.estimate_eq(v))
            .or_else(|| idx.map(|i| i.count_eq(v) as f64))
            .unwrap_or(entry.table.len() as f64),
        CondPredicate::In(vs) => hist
            .map(|h| h.estimate_in(vs))
            .or_else(|| idx.map(|i| vs.iter().map(|v| i.count_eq(v) as f64).sum()))
            .unwrap_or(entry.table.len() as f64),
        CondPredicate::Range { low, high } => estimate_range_rows(&oc.attr, low, high, entry),
        // Non-guardable shapes: estimate as the full table (never chosen).
        CondPredicate::Ne(_) | CondPredicate::NotIn(_) | CondPredicate::Derived(_) => {
            entry.table.len() as f64
        }
    }
}

/// [`estimate_condition_rows`] for a range over `attr`, from its bounds.
fn estimate_range_rows(attr: &str, low: &RangeBound, high: &RangeBound, entry: &TableEntry) -> f64 {
    let by_histogram = entry.histogram(attr).map(|h| h.estimate_range(low, high));
    by_histogram
        .or_else(|| entry.index_on(attr).map(|i| i.count_range(low, high) as f64))
        .unwrap_or(entry.table.len() as f64)
}

/// True iff the condition can serve as a guard for the relation: simple,
/// constant, and over an indexed attribute (Section 3.2's two properties).
pub fn is_guardable(oc: &ObjectCondition, entry: &TableEntry) -> bool {
    if !entry.has_index(&oc.attr) {
        return false;
    }
    matches!(
        oc.pred,
        CondPredicate::Eq(_) | CondPredicate::In(_) | CondPredicate::Range { .. }
    )
}

/// The first half of candidate generation: the guardable conditions of a
/// policy list, identical ones collapsed, each with its histogram estimate
/// `ρ(oc_g)`, and per policy the conditions it carries.
/// [`GuardableConditions::candidates_for`] turns it into a candidate set.
#[derive(Debug, Default)]
pub(crate) struct GuardableConditions {
    conds: Vec<(ObjectCondition, f64)>,
    /// Per condition, the [`fingerprint`] of its collapse key.
    prints: Vec<u64>,
    /// Per collected policy, ascending by id: the span of `carried` that
    /// lists its conditions (indices into `conds`, in the policy's order) —
    /// restriction costs a binary search per policy, not a pass over the
    /// collection.
    spans: Vec<(PolicyId, std::ops::Range<usize>)>,
    carried: Vec<u32>,
}

impl GuardableConditions {
    /// Collect the guardable conditions of `policies`, collapsing
    /// identical ones.
    pub(crate) fn collect(policies: &[&Policy], entry: &TableEntry) -> Self {
        // Collapse probes a map keyed by the condition's debug rendering —
        // `Value` holds `f64` so conditions are not hashable directly, and
        // the derived rendering is injective for the guardable (constant)
        // shapes — keeping this linear in the number of conditions where
        // an equality scan over the distinct list goes quadratic on big
        // policy unions.
        let mut out = GuardableConditions::default();
        let mut index: HashMap<String, u32> = HashMap::new();
        for p in policies {
            let start = out.carried.len();
            for oc in p.object_conditions() {
                if !is_guardable(&oc, entry) {
                    continue;
                }
                let i = match index.entry(condition_key(&oc)) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(e) => {
                        out.prints.push(fingerprint(e.key()));
                        let est = estimate_condition_rows(&oc, entry);
                        out.conds.push((oc, est));
                        *e.insert(out.conds.len() as u32 - 1)
                    }
                };
                out.carried.push(i);
            }
            out.spans.push((p.id, start..out.carried.len()));
        }
        out.spans.sort_unstable_by_key(|(id, _)| *id);
        out
    }

    /// What a later placement must know of `policies` (each of which
    /// should be in the collection): the fingerprints of the conditions
    /// they carry, with the ranges among them by attribute. `None` when
    /// one of them carries no guardable condition: its guard is an owner
    /// fallback, which Algorithm 1 appends after every guard it selects,
    /// so no grant can be placed by utility in front of it.
    pub(crate) fn carried_by(&self, policies: &[&Policy]) -> Option<CarriedConditions> {
        let mut out = CarriedConditions::default();
        let mut seen = vec![false; self.conds.len()];
        for p in policies {
            let span = self.spans.binary_search_by_key(&p.id, |(id, _)| *id).ok()?;
            let carried = &self.carried[self.spans[span].1.clone()];
            if carried.is_empty() {
                return None;
            }
            for &i in carried {
                let i = i as usize;
                if !std::mem::replace(&mut seen[i], true) {
                    let oc = &self.conds[i].0;
                    out.insert(self.prints[i], oc);
                }
            }
            out.last = out.last.max(p.id);
        }
        Some(out)
    }

    /// The candidate set `CG` for `policies` (each of which should be in
    /// the collection; one that is not gets no candidate and falls to
    /// `select_guards`' owner fallback): walk `policies` in the order given,
    /// emitting each condition where it is first seen and covering exactly
    /// the given policies that carry it, then run Theorem 1's merge sweep
    /// over their ranges.
    pub(crate) fn candidates_for(
        &self,
        policies: &[&Policy],
        entry: &TableEntry,
        cost: &CostModel,
    ) -> Vec<CandidateGuard> {
        let mut exact: Vec<CandidateGuard> = Vec::new();
        // Condition index → its position in `exact`, once emitted.
        let mut slot = vec![usize::MAX; self.conds.len()];
        for p in policies {
            let Ok(span) = self.spans.binary_search_by_key(&p.id, |(id, _)| *id) else {
                continue;
            };
            for &i in &self.carried[self.spans[span].1.clone()] {
                let at = &mut slot[i as usize];
                if *at == usize::MAX {
                    *at = exact.len();
                    let (condition, est_rows) = self.conds[i as usize].clone();
                    exact.push(CandidateGuard {
                        condition,
                        policies: BTreeSet::new(),
                        est_rows,
                    });
                }
                exact[*at].policies.insert(p.id);
            }
        }

        // Split into range candidates (mergeable) and the rest.
        let (ranges, mut rest): (Vec<CandidateGuard>, Vec<CandidateGuard>) = exact
            .into_iter()
            .partition(|c| matches!(c.condition.pred, CondPredicate::Range { .. }));

        // Per attribute, sort ranges by left bound and sweep-merge.
        let mut by_attr: Vec<(String, Vec<CandidateGuard>)> = Vec::new();
        for c in ranges {
            match by_attr.iter_mut().find(|(a, _)| *a == c.condition.attr) {
                Some((_, v)) => v.push(c),
                None => by_attr.push((c.condition.attr.clone(), vec![c])),
            }
        }
        for (_, mut cands) in by_attr {
            cands.sort_by(|a, b| bounds(&a.condition).0.cmp_low(bounds(&b.condition).0));
            let merged = sweep_merge(cands, entry, cost);
            rest.extend(merged);
        }
        rest
    }
}

/// Generate the candidate set `CG` for a policy list.
pub fn generate_candidates(
    policies: &[&Policy],
    entry: &TableEntry,
    cost: &CostModel,
) -> Vec<CandidateGuard> {
    GuardableConditions::collect(policies, entry).candidates_for(policies, entry, cost)
}

/// The key identical conditions collapse under — the condition's debug
/// rendering, which is injective for the guardable (constant) shapes.
pub(super) fn condition_key(oc: &ObjectCondition) -> String {
    format!("{}\u{1}{:?}", oc.attr, oc.pred)
}

/// A 64-bit digest of a [`condition_key`] (fixed-key SipHash, so equal
/// keys digest equally in every process).
pub(super) fn fingerprint(key: &str) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

/// A range condition's bounds, `(low, high)`, or `None` for a condition
/// that is not a range.
pub(super) fn range_of(oc: &ObjectCondition) -> Option<(&RangeBound, &RangeBound)> {
    match &oc.pred {
        CondPredicate::Range { low, high } => Some((low, high)),
        _ => None,
    }
}

fn bounds(oc: &ObjectCondition) -> (&RangeBound, &RangeBound) {
    match range_of(oc) {
        Some(range) => range,
        None => unreachable!("sweep_merge only sees ranges"),
    }
}

/// The sweep of Section 4.1: for each candidate, try merging with the
/// following (left-sorted) candidates while they overlap; once a candidate
/// fails to overlap, Corollary 1.2 guarantees no later candidate merges
/// either.
fn sweep_merge(
    cands: Vec<CandidateGuard>,
    entry: &TableEntry,
    cost: &CostModel,
) -> Vec<CandidateGuard> {
    let threshold = cost.merge_threshold();
    let mut items: Vec<Option<CandidateGuard>> = cands.into_iter().map(Some).collect();
    let mut out = Vec::new();
    for i in 0..items.len() {
        let Some(mut cur) = items[i].take() else {
            continue;
        };
        for slot in items.iter_mut().skip(i + 1) {
            let Some(next) = slot.as_ref() else { continue };
            if !RangeBound::overlap(bounds(&cur.condition), bounds(&next.condition)) {
                // Sorted by left bound ⇒ nothing later overlaps (Cor 1.2).
                break;
            }
            // Theorem 1 benefit test on the overlap: the intersection
            // takes the inner bounds, the union the outer ones, a tie in
            // bound order `cur`'s.
            let (c_lo, c_hi) = bounds(&cur.condition);
            let (n_lo, n_hi) = bounds(&next.condition);
            let (lo_cmp, hi_cmp) = (c_lo.cmp_low(n_lo), c_hi.cmp_high(n_hi));
            let attr = &cur.condition.attr;
            let inter_lo = if lo_cmp.is_ge() { c_lo } else { n_lo };
            let inter_hi = if hi_cmp.is_le() { c_hi } else { n_hi };
            let rho_inter = estimate_range_rows(attr, inter_lo, inter_hi, entry);
            let low = if lo_cmp.is_le() { c_lo } else { n_lo }.clone();
            let high = if hi_cmp.is_ge() { c_hi } else { n_hi }.clone();
            let rho_union = estimate_range_rows(attr, &low, &high, entry).max(f64::EPSILON);
            if rho_inter / rho_union > threshold {
                // `slot` was checked non-empty above and nothing between
                // there and here can clear it, but keep the take fallible
                // rather than panicking on the query path.
                if let Some(next) = slot.take() {
                    cur.policies.extend(next.policies);
                }
                cur.condition.pred = CondPredicate::Range { low, high };
                cur.est_rows = rho_union;
            }
        }
        out.push(cur);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::tests::{mk_policy, wifi_db};
    use minidb::value::Value;

    fn time_range(lo_h: u32, hi_h: u32) -> ObjectCondition {
        ObjectCondition::new(
            "ts_time",
            CondPredicate::between(Value::Time(lo_h * 3600), Value::Time(hi_h * 3600)),
        )
    }

    #[test]
    fn owner_condition_always_candidate() {
        let db = wifi_db(1000, 10);
        let entry = db.table("wifi_dataset").unwrap();
        let p = mk_policy(1, 3, vec![]);
        let cands = generate_candidates(&[&p], entry, &CostModel::default());
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].condition.attr, "owner");
        assert!(cands[0].policies.contains(&1));
    }

    #[test]
    fn identical_conditions_collapse() {
        let db = wifi_db(1000, 10);
        let entry = db.table("wifi_dataset").unwrap();
        let p1 = mk_policy(1, 3, vec![time_range(9, 10)]);
        let p2 = mk_policy(2, 4, vec![time_range(9, 10)]);
        let cands = generate_candidates(&[&p1, &p2], entry, &CostModel::default());
        // owner=3, owner=4, and one shared time range.
        let time_cands: Vec<_> = cands
            .iter()
            .filter(|c| c.condition.attr == "ts_time")
            .collect();
        assert_eq!(time_cands.len(), 1);
        assert_eq!(time_cands[0].policies.len(), 2);
    }

    #[test]
    fn disjoint_ranges_never_merge() {
        let db = wifi_db(5000, 10);
        let entry = db.table("wifi_dataset").unwrap();
        let p1 = mk_policy(1, 1, vec![time_range(1, 2)]);
        let p2 = mk_policy(2, 2, vec![time_range(20, 21)]);
        let cands = generate_candidates(&[&p1, &p2], entry, &CostModel::default());
        let time_cands: Vec<_> = cands
            .iter()
            .filter(|c| c.condition.attr == "ts_time")
            .collect();
        assert_eq!(time_cands.len(), 2, "Theorem 1: disjoint ranges stay split");
    }

    #[test]
    fn heavily_overlapping_ranges_merge() {
        let db = wifi_db(5000, 10);
        let entry = db.table("wifi_dataset").unwrap();
        // [9,11] and [9.25,11.25] hours: overlap ≈ 87% of the union, far
        // above the ~threshold, so they merge into one candidate.
        let p1 = mk_policy(1, 1, vec![time_range(9, 11)]);
        let p2 = mk_policy(
            2,
            2,
            vec![ObjectCondition::new(
                "ts_time",
                CondPredicate::between(
                    Value::Time(9 * 3600 + 900),
                    Value::Time(11 * 3600 + 900),
                ),
            )],
        );
        let cands = generate_candidates(&[&p1, &p2], entry, &CostModel::default());
        let time_cands: Vec<_> = cands
            .iter()
            .filter(|c| c.condition.attr == "ts_time")
            .collect();
        assert_eq!(time_cands.len(), 1, "overlapping ranges should merge");
        assert_eq!(time_cands[0].policies.len(), 2);
    }

    #[test]
    fn barely_overlapping_ranges_do_not_merge() {
        let db = wifi_db(5000, 10);
        let entry = db.table("wifi_dataset").unwrap();
        // [0,10] and [9.9,20] hours: overlap is ~0.5% of the union, far
        // below the threshold.
        let p1 = mk_policy(1, 1, vec![time_range(0, 10)]);
        let p2 = mk_policy(
            2,
            2,
            vec![ObjectCondition::new(
                "ts_time",
                CondPredicate::between(Value::Time(10 * 3600 - 360), Value::Time(20 * 3600)),
            )],
        );
        let cands = generate_candidates(&[&p1, &p2], entry, &CostModel::default());
        let time_cands: Vec<_> = cands
            .iter()
            .filter(|c| c.condition.attr == "ts_time")
            .collect();
        assert_eq!(time_cands.len(), 2, "marginal overlap must not merge");
    }

    #[test]
    fn transitive_merge_through_chain() {
        let db = wifi_db(5000, 10);
        let entry = db.table("wifi_dataset").unwrap();
        // Three staggered heavily-overlapping ranges: a↔b and b↔c overlap
        // strongly; after merging a⊕b, the widened range still overlaps c
        // strongly enough to absorb it.
        let p1 = mk_policy(1, 1, vec![time_range(9, 12)]);
        let p2 = mk_policy(2, 2, vec![time_range(10, 13)]);
        let p3 = mk_policy(3, 3, vec![time_range(11, 14)]);
        let cands = generate_candidates(&[&p1, &p2, &p3], entry, &CostModel::default());
        let time_cands: Vec<_> = cands
            .iter()
            .filter(|c| c.condition.attr == "ts_time")
            .collect();
        assert_eq!(time_cands.len(), 1);
        assert_eq!(time_cands[0].policies.len(), 3);
    }

    #[test]
    fn unindexed_attr_not_guardable() {
        let db = wifi_db(100, 5);
        let entry = db.table("wifi_dataset").unwrap();
        let oc = ObjectCondition::new("id", CondPredicate::Eq(Value::Int(5)));
        assert!(!is_guardable(&oc, entry)); // `id` has no index in wifi_db
        let oc2 = ObjectCondition::new("owner", CondPredicate::Eq(Value::Int(5)));
        assert!(is_guardable(&oc2, entry));
    }

    #[test]
    fn derived_conditions_not_guardable() {
        let db = wifi_db(100, 5);
        let entry = db.table("wifi_dataset").unwrap();
        let oc = ObjectCondition::new(
            "owner",
            CondPredicate::Derived(Box::new(minidb::SelectQuery::star_from("wifi_dataset"))),
        );
        assert!(!is_guardable(&oc, entry));
    }
}
