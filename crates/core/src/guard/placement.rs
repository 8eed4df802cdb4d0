//! Placing a grant into a guarded expression instead of regenerating it
//! (paper Section 6's regeneration, paid only when it changes something).
//!
//! A policy `p` inserted after an expression was generated over the set
//! `P` can join that expression exactly — the result equal, guard for
//! guard and in order, to Algorithm 1 run over `P ∪ {p}` — when two
//! things hold:
//!
//! * none of `p`'s guardable conditions is carried by a policy of `P`
//!   (compared by the key identical conditions collapse under when
//!   candidates are collected), so no candidate of `P` gains `p` and no
//!   candidate of `p` covers anything else;
//! * no range of `p` is empty or overlaps a range on the same attribute
//!   (of `P` or of `p` itself) by the sweep's own test,
//!   [`RangeBound::overlap`], so Theorem 1's sweep merges exactly what it
//!   merged before: a non-empty range sorted between two ranges that merge
//!   would overlap the first of them, and one sorted past a range it
//!   does not overlap ends a chain that had already ended.
//!
//! Then the candidates of `P` are unchanged and keep their relative
//! order (`p` has the highest id, so its conditions are seen last), and
//! `p`'s candidates cover `{p}` alone. Selecting one of them shrinks
//! only `p`'s others and selecting one of `P`'s never touches `p`'s, so
//! the greedy cover selects `P`'s guards exactly as before, plus one
//! guard for `p`: its highest-utility condition, taken when the heap
//! would pop it — before the first guard of lower priority. Priority is
//! utility, then the lower candidate index. Candidates are indexed
//! non-ranges first, in the order first seen, then ranges; so on equal
//! utility a non-range `p` goes after the non-range guards and before the
//! range guards, and a range `p` goes after the non-range guards and
//! cannot be ordered against a range guard without the sweep's order,
//! which is not kept — that tie, like every other case, regenerates.

use super::candidates::{
    condition_key, estimate_condition_rows, fingerprint, is_guardable, range_of,
};
use super::{Guard, GuardedExpression};
use crate::cost::CostModel;
use crate::policy::{CondPredicate, ObjectCondition, Policy, PolicyId};
use minidb::catalog::TableEntry;
use minidb::RangeBound;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

/// What placement needs to know of the policies an expression was
/// generated over: fingerprints of the guardable conditions they carry,
/// their ranges by attribute, and the highest policy id among them.
///
/// A fingerprint collision can only make a fresh condition look carried,
/// which makes placement refuse and the expression regenerate: never a
/// wrong expression.
#[derive(Debug, Clone, Default)]
pub struct CarriedConditions {
    prints: HashSet<u64>,
    ranges: HashMap<String, Vec<(RangeBound, RangeBound)>>,
    pub(crate) last: PolicyId,
}

impl CarriedConditions {
    /// Record one distinct carried condition. Its range is kept even if
    /// its fingerprint collides with another's, so the overlap check never
    /// misses it.
    pub(super) fn insert(&mut self, print: u64, oc: &ObjectCondition) {
        self.prints.insert(print);
        if let Some((low, high)) = range_of(oc) {
            let range = (low.clone(), high.clone());
            self.ranges.entry(oc.attr.clone()).or_default().push(range);
        }
    }

    /// Number of distinct conditions carried.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.prints.len()
    }
}

/// What placing grants into an expression made.
#[derive(Debug)]
pub(crate) struct Placed {
    /// The expression with every grant's guard in place.
    pub(crate) expr: GuardedExpression,
    /// The conditions `expr`'s policies carry.
    pub(crate) carried: CarriedConditions,
    /// Where the grants' guards went: their positions in `expr`,
    /// ascending. Every other guard is the base expression's, in order.
    pub(crate) at: Vec<usize>,
}

/// `base`, generated over the policies `carried` describes, with each of
/// `grants` (ascending ids, all newer than those policies) placed where
/// Algorithm 1 over all of them would put it. `None` when any grant cannot
/// be placed exactly (module docs): the caller regenerates.
pub(crate) fn place_grants(
    base: &GuardedExpression,
    carried: &CarriedConditions,
    grants: &[&Policy],
    entry: &TableEntry,
    cost: &CostModel,
) -> Option<Placed> {
    let mut expr = base.clone();
    let mut carried = carried.clone();
    let mut at: Vec<usize> = Vec::with_capacity(grants.len());
    for p in grants {
        let k = place_one(&mut expr.guards, &mut carried, p, entry, cost)?;
        at.iter_mut().filter(|a| **a >= k).for_each(|a| *a += 1);
        at.push(k);
    }
    at.sort_unstable();
    Some(Placed { expr, carried, at })
}

/// One of a grant's candidate guards.
struct Own {
    condition: ObjectCondition,
    key: String,
    print: u64,
}

/// Place `p`'s guard into `guards`, returning where it went.
fn place_one(
    guards: &mut Vec<Guard>,
    carried: &mut CarriedConditions,
    p: &Policy,
    entry: &TableEntry,
    cost: &CostModel,
) -> Option<usize> {
    if p.id <= carried.last {
        return None;
    }
    // `p`'s candidates, each condition once, in `p`'s order.
    let mut own: Vec<Own> = Vec::new();
    for condition in p.object_conditions() {
        if !is_guardable(&condition, entry) {
            continue;
        }
        let key = condition_key(&condition);
        if own.iter().any(|o| o.key == key) {
            continue;
        }
        let print = fingerprint(&key);
        if carried.prints.contains(&print) {
            return None;
        }
        if let Some(range) = range_of(&condition) {
            // An empty range could end a merge chain it sits in without
            // overlapping anything; any other meets, by the sweep's own
            // test, each range it could merge with.
            let on_attr = carried.ranges.get(&condition.attr).into_iter().flatten();
            let mine = own.iter().filter(|o| o.condition.attr == condition.attr);
            let mut others =
                on_attr.map(|(l, h)| (l, h)).chain(mine.filter_map(|o| range_of(&o.condition)));
            if RangeBound::is_empty(range.0, range.1) || others.any(|t| RangeBound::overlap(range, t))
            {
                return None;
            }
        }
        own.push(Own { condition, key, print });
    }

    // Its best candidate: highest utility, ties to the lower candidate
    // index — a non-range before any range; two tied ranges are ordered
    // by the sweep, so they refuse.
    let table_rows = entry.table.len() as f64;
    let utility = |est: f64, n: usize| cost.guard_utility(est, n, table_rows);
    let est: Vec<f64> = own.iter().map(|o| estimate_condition_rows(&o.condition, entry)).collect();
    let top = est.iter().map(|&e| utility(e, 1)).max_by(f64::total_cmp)?;
    let tied: Vec<usize> =
        (0..own.len()).filter(|&i| utility(est[i], 1).total_cmp(&top).is_eq()).collect();
    let best = match tied.iter().find(|&&i| range_of(&own[i].condition).is_none()) {
        Some(&i) => i,
        None if tied.len() == 1 => tied[0],
        None => return None,
    };
    let is_range = range_of(&own[best].condition).is_some();

    // Where the heap pops it: before the first guard it outranks.
    let mut at = guards.len();
    for (k, g) in guards.iter().enumerate() {
        let g_range = matches!(g.condition.pred, CondPredicate::Range { .. });
        let outranks = match utility(g.est_rows, g.partition_size()).total_cmp(&top) {
            Ordering::Greater => false,
            Ordering::Less => true,
            Ordering::Equal => match (is_range, g_range) {
                (false, false) | (true, false) => false,
                (false, true) => true,
                (true, true) => return None,
            },
        };
        if outranks {
            at = k;
            break;
        }
    }
    let guard = Guard {
        condition: own[best].condition.clone(),
        policies: vec![p.id],
        est_rows: est[best],
    };
    guards.insert(at, guard);
    for o in &own {
        carried.insert(o.print, &o.condition);
    }
    carried.last = p.id;
    Some(at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::tests::{mk_policy, wifi_db};
    use crate::guard::{generate_guarded_expression, GuardSelectionStrategy, GuardableConditions};
    use minidb::value::Value;

    fn eq(attr: &str, v: i64) -> ObjectCondition {
        ObjectCondition::new(attr, CondPredicate::Eq(Value::Int(v)))
    }

    fn hours(lo: u32, hi: u32) -> ObjectCondition {
        ObjectCondition::new(
            "ts_time",
            CondPredicate::between(Value::Time(lo * 3600), Value::Time(hi * 3600)),
        )
    }

    fn generate(policies: &[&Policy], entry: &TableEntry) -> GuardedExpression {
        let cost = CostModel::default();
        let strategy = GuardSelectionStrategy::CostOptimal;
        generate_guarded_expression(
            policies,
            entry,
            &cost,
            strategy,
            9999,
            "Any",
            "wifi_dataset",
        )
    }

    /// Place `grant` into the expression over `old`; `None` if refused.
    fn place(old: &[Policy], grant: &Policy, entry: &TableEntry) -> Option<GuardedExpression> {
        let refs: Vec<&Policy> = old.iter().collect();
        let carried = GuardableConditions::collect(&refs, entry).carried_by(&refs)?;
        let base = generate(&refs, entry);
        let cost = CostModel::default();
        place_grants(&base, &carried, &[grant], entry, &cost).map(|placed| placed.expr)
    }

    fn old_policies() -> Vec<Policy> {
        (0..12)
            .map(|i| {
                let conds = match i % 3 {
                    0 => vec![eq("wifi_ap", 1000 + i as i64 % 4)],
                    1 => vec![hours(i as u32, i as u32 + 1)],
                    _ => vec![],
                };
                mk_policy(i, i as i64 % 5, conds)
            })
            .collect()
    }

    #[test]
    fn placed_fresh_grants_equal_generation() {
        let db = wifi_db(3000, 30);
        let entry = db.table("wifi_dataset").unwrap();
        let old = old_policies();
        let grants = [
            mk_policy(100, 17, vec![]),
            mk_policy(101, 18, vec![eq("wifi_ap", 1009)]),
            mk_policy(102, 19, vec![hours(20, 21)]),
        ];
        for grant in &grants {
            let placed = place(&old, grant, entry).expect("a fresh grant places");
            let mut all: Vec<&Policy> = old.iter().collect();
            all.push(grant);
            assert_eq!(placed, generate(&all, entry), "grant {}", grant.id);
        }
        // All three at once, in every order of ids: each lands where
        // Algorithm 1 puts it, and `at` names their guards, ascending,
        // however a later one's insertion shifted an earlier one's.
        let refs: Vec<&Policy> = old.iter().collect();
        let carried = GuardableConditions::collect(&refs, entry).carried_by(&refs).unwrap();
        let base = generate(&refs, entry);
        for order in [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            let mut batch: Vec<Policy> = order.iter().map(|&i| grants[i].clone()).collect();
            for (id, p) in (100..).zip(&mut batch) {
                p.id = id;
            }
            let batch: Vec<&Policy> = batch.iter().collect();
            let placed = place_grants(&base, &carried, &batch, entry, &CostModel::default())
                .expect("fresh grants place");
            let all: Vec<&Policy> = refs.iter().chain(&batch).copied().collect();
            assert_eq!(placed.expr, generate(&all, entry), "order {order:?}");
            let at: Vec<usize> = (0..placed.expr.guards.len())
                .filter(|&i| placed.expr.guards[i].policies[0] >= 100)
                .collect();
            assert_eq!(placed.at, at, "order {order:?}");
        }
    }

    #[test]
    fn shared_or_overlapping_conditions_refuse() {
        let db = wifi_db(3000, 30);
        let entry = db.table("wifi_dataset").unwrap();
        let old = old_policies();
        // An owner already present, an AP already carried, a range
        // overlapping a carried one, two overlapping ranges of its own,
        // an empty range, and a grant no newer than the expression.
        let refused = [
            mk_policy(100, 3, vec![]),
            mk_policy(101, 18, vec![eq("wifi_ap", 1001)]),
            mk_policy(102, 19, vec![hours(1, 3)]),
            mk_policy(103, 20, vec![hours(20, 22), hours(21, 23)]),
            mk_policy(104, 21, vec![hours(22, 20)]),
            mk_policy(5, 22, vec![]),
        ];
        for grant in &refused {
            assert!(
                place(&old, grant, entry).is_none(),
                "grant {} placed",
                grant.id
            );
        }
    }

    #[test]
    fn carried_by_refuses_a_policy_outside_the_collection() {
        let db = wifi_db(500, 10);
        let entry = db.table("wifi_dataset").unwrap();
        let mut p = mk_policy(1, 1, vec![]);
        // Not in the collection: no span, no carried conditions.
        let collected = GuardableConditions::collect(&[], entry);
        assert!(collected.carried_by(&[&p]).is_none());
        p.id = 2;
        let collected = GuardableConditions::collect(&[&p], entry);
        let carried = collected.carried_by(&[&p]).unwrap();
        assert_eq!((carried.len(), carried.last), (1, 2));
    }
}
