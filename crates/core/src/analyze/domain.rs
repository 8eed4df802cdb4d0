//! The per-column abstract domain: finite unions of intervals over the
//! engine's total `Value` order, minus excluded points, plus NULL
//! tracking.
//!
//! Soundness contract: every operation **over-approximates**
//! satisfiability. [`ValueSet::is_certainly_empty`] returns `true` only
//! when the set provably contains no `Value` (so `Proven` verdicts are
//! sound), and [`ValueSet::pick`] returns only values that are
//! *certainly* members (so witnesses are real). Any uncertainty resolves
//! toward "maybe non-empty", which downgrades a verdict to `Unknown` —
//! never to a wrong `Proven`.
//!
//! The ordering is [`Value`]'s own total `Ord` — exactly what
//! [`minidb::expr::CmpOp::apply`] compares with once NULLs are excluded —
//! and bounds compare, admit values and go empty as [`RangeBound`] says,
//! as they do in the index: interval reasoning here matches engine
//! comparisons bit for bit (including `Int` against `Double` by exact
//! value, NaN above every number, and the cross-type rank order).

use minidb::{RangeBound, Value};
use std::collections::BTreeMap;

/// A set of **non-null** values: disjoint ascending intervals minus a
/// finite excluded-point set. `NULL` is never a member; nullability is
/// tracked separately by [`ColState`].
#[derive(Debug, Clone, PartialEq)]
pub struct ValueSet {
    /// Disjoint intervals, ascending. An empty list is the empty set.
    intervals: Vec<(RangeBound, RangeBound)>,
    /// Points removed from the union (sorted ascending, deduped).
    excluded: Vec<Value>,
}

/// Tighten exclusive bounds on *safely discrete* value types to their
/// inclusive neighbor: `(> t)` ≡ `(≥ t+1)` for `Time`, `Date` and `Bool`,
/// whose ranks in the engine's value order contain only themselves.
/// **Not** applied to `Int`: the order interleaves `Int` and `Double` by
/// exact value (`Int(1) == Double(1.0)`), so `(Int(1), Int(2))` still
/// contains `Double(1.5)` and tightening it would be unsound.
fn tighten_interval(low: RangeBound, high: RangeBound) -> (RangeBound, RangeBound) {
    fn succ_discrete(v: &Value) -> Option<Value> {
        match v {
            Value::Time(t) => t.checked_add(1).map(Value::Time),
            Value::Date(d) => d.checked_add(1).map(Value::Date),
            Value::Bool(false) => Some(Value::Bool(true)),
            _ => None,
        }
    }
    fn pred_discrete(v: &Value) -> Option<Value> {
        match v {
            Value::Time(t) => t.checked_sub(1).map(Value::Time),
            Value::Date(d) => d.checked_sub(1).map(Value::Date),
            Value::Bool(true) => Some(Value::Bool(false)),
            _ => None,
        }
    }
    let low = match low {
        RangeBound::Exclusive(v) => match succ_discrete(&v) {
            Some(s) => RangeBound::Inclusive(s),
            None => RangeBound::Exclusive(v),
        },
        other => other,
    };
    let high = match high {
        RangeBound::Exclusive(v) => match pred_discrete(&v) {
            Some(p) => RangeBound::Inclusive(p),
            None => RangeBound::Exclusive(v),
        },
        other => other,
    };
    (low, high)
}

impl ValueSet {
    /// All non-null values.
    pub fn any() -> Self {
        ValueSet {
            intervals: vec![(RangeBound::Unbounded, RangeBound::Unbounded)],
            excluded: Vec::new(),
        }
    }

    /// The empty set.
    pub fn empty() -> Self {
        ValueSet {
            intervals: Vec::new(),
            excluded: Vec::new(),
        }
    }

    /// Finite point set; NULLs are dropped (they are never members).
    pub fn points(mut vs: Vec<Value>) -> Self {
        vs.retain(|v| !v.is_null());
        vs.sort();
        vs.dedup();
        ValueSet {
            intervals: vs
                .into_iter()
                .map(|v| (RangeBound::Inclusive(v.clone()), RangeBound::Inclusive(v)))
                .collect(),
            excluded: Vec::new(),
        }
    }

    /// One contiguous range.
    pub fn range(low: RangeBound, high: RangeBound) -> Self {
        let mut s = ValueSet {
            intervals: vec![(low, high)],
            excluded: Vec::new(),
        };
        s.normalize();
        s
    }

    /// All values except the given points.
    pub fn all_but(points: Vec<Value>) -> Self {
        let mut s = ValueSet::any();
        s.excluded = points.into_iter().filter(|v| !v.is_null()).collect();
        s.excluded.sort();
        s.excluded.dedup();
        s
    }

    /// Everything outside `[low, high]` (both bounds non-null values):
    /// the two complementary rays.
    pub fn outside(low: Value, high: Value) -> Self {
        let mut s = ValueSet {
            intervals: vec![
                (RangeBound::Unbounded, RangeBound::Exclusive(low)),
                (RangeBound::Exclusive(high), RangeBound::Unbounded),
            ],
            excluded: Vec::new(),
        };
        s.normalize();
        s
    }

    /// True iff the set imposes no constraint (every non-null value).
    pub fn is_total(&self) -> bool {
        self.excluded.is_empty()
            && matches!(
                self.intervals.as_slice(),
                [(RangeBound::Unbounded, RangeBound::Unbounded)]
            )
    }

    /// Membership (exact). `v` must be non-null; NULL is never a member.
    pub fn contains(&self, v: &Value) -> bool {
        if v.is_null() || self.excluded.contains(v) {
            return false;
        }
        self.intervals
            .iter()
            .any(|(lo, hi)| RangeBound::contains(lo, hi, v))
    }

    /// Intersection (exact, given the inputs' invariants hold).
    pub fn intersect(&self, other: &ValueSet) -> ValueSet {
        let mut intervals = Vec::new();
        for (alo, ahi) in &self.intervals {
            for (blo, bhi) in &other.intervals {
                let lo = if alo.cmp_low(blo).is_lt() { blo } else { alo }.clone();
                let hi = if ahi.cmp_high(bhi).is_gt() { bhi } else { ahi }.clone();
                if !RangeBound::is_empty(&lo, &hi) {
                    intervals.push((lo, hi));
                }
            }
        }
        let mut excluded: Vec<Value> = self
            .excluded
            .iter()
            .chain(other.excluded.iter())
            .cloned()
            .collect();
        excluded.sort();
        excluded.dedup();
        let mut out = ValueSet {
            intervals,
            excluded,
        };
        out.normalize();
        out
    }

    /// Tighten discrete exclusive bounds, drop provably empty intervals,
    /// drop excluded points outside every interval, and drop point
    /// intervals whose single value is excluded.
    fn normalize(&mut self) {
        let intervals = std::mem::take(&mut self.intervals);
        let excluded = std::mem::take(&mut self.excluded);
        self.intervals = intervals
            .into_iter()
            .map(|(lo, hi)| tighten_interval(lo, hi))
            .filter(|(lo, hi)| !RangeBound::is_empty(lo, hi))
            .filter(|(lo, hi)| {
                // A single-point interval killed by an exclusion.
                if let (RangeBound::Inclusive(a), RangeBound::Inclusive(b)) = (lo, hi) {
                    if a == b && excluded.contains(a) {
                        return false;
                    }
                }
                true
            })
            .collect();
        self.excluded = excluded
            .into_iter()
            .filter(|v| {
                self.intervals
                    .iter()
                    .any(|(lo, hi)| RangeBound::contains(lo, hi, v))
            })
            .collect();
    }

    /// True only when the set **provably** contains no value. "False"
    /// means "maybe non-empty" — the sound direction for unsat proofs.
    pub fn is_certainly_empty(&self) -> bool {
        self.intervals
            .iter()
            .all(|(lo, hi)| RangeBound::is_empty(lo, hi))
    }

    /// A value certainly in the set, preferring bound endpoints and their
    /// neighbors. `None` when no candidate passes the membership check —
    /// callers must then downgrade to `Unknown`, never fabricate.
    /// Deterministic: candidates are tried in a fixed order.
    pub fn pick(&self) -> Option<Value> {
        for (lo, hi) in &self.intervals {
            let mut candidates: Vec<Value> = Vec::new();
            match lo {
                RangeBound::Inclusive(v) => {
                    candidates.push(v.clone());
                    candidates.extend(successors(v));
                }
                RangeBound::Exclusive(v) => candidates.extend(successors(v)),
                RangeBound::Unbounded => {}
            }
            match hi {
                RangeBound::Inclusive(v) => {
                    candidates.push(v.clone());
                    candidates.extend(predecessors(v));
                }
                RangeBound::Exclusive(v) => candidates.extend(predecessors(v)),
                RangeBound::Unbounded => {}
            }
            if matches!((lo, hi), (RangeBound::Unbounded, RangeBound::Unbounded)) {
                candidates.extend(default_candidates());
            }
            // Excluded points crowd out endpoint candidates; step past
            // them (a short deterministic walk handles realistic IN/NOT IN
            // list sizes).
            for ex in &self.excluded {
                candidates.extend(successors(ex));
                candidates.extend(predecessors(ex));
            }
            for c in candidates {
                if self.contains(&c) {
                    return Some(c);
                }
            }
        }
        None
    }
}

/// A few values just above `v`, same type (checked later for membership).
fn successors(v: &Value) -> Vec<Value> {
    match v {
        Value::Int(i) => i.checked_add(1).map(Value::Int).into_iter().collect(),
        Value::Time(t) => t.checked_add(1).map(Value::Time).into_iter().collect(),
        Value::Date(d) => d.checked_add(1).map(Value::Date).into_iter().collect(),
        Value::Double(d) => {
            let step = if d.abs() > 1.0 { d.abs() * 1e-9 } else { 1e-9 };
            vec![Value::Double(d + step), Value::Double(d + 1.0)]
        }
        Value::Str(s) => vec![Value::str(format!("{s}\u{1}"))],
        Value::Bool(false) => vec![Value::Bool(true)],
        _ => Vec::new(),
    }
}

/// A few values just below `v`, same type.
fn predecessors(v: &Value) -> Vec<Value> {
    match v {
        Value::Int(i) => i.checked_sub(1).map(Value::Int).into_iter().collect(),
        Value::Time(t) => t.checked_sub(1).map(Value::Time).into_iter().collect(),
        Value::Date(d) => d.checked_sub(1).map(Value::Date).into_iter().collect(),
        Value::Double(d) => {
            let step = if d.abs() > 1.0 { d.abs() * 1e-9 } else { 1e-9 };
            vec![Value::Double(d - step), Value::Double(d - 1.0)]
        }
        Value::Str(s) => {
            let mut out = Vec::new();
            if !s.is_empty() {
                out.push(Value::str(&s[..s.len() - s.chars().next_back().map_or(0, char::len_utf8)]));
            }
            out
        }
        Value::Bool(true) => vec![Value::Bool(false)],
        _ => Vec::new(),
    }
}

/// Candidates for a fully unconstrained column.
fn default_candidates() -> Vec<Value> {
    vec![
        Value::Int(0),
        Value::Int(1),
        Value::Double(0.0),
        Value::str(""),
        Value::Bool(false),
        Value::Time(0),
        Value::Date(0),
    ]
}

/// Abstract state of one column: "the value is NULL (if `nullable`) or a
/// member of `set`". Closed under every assertion the analyzer performs,
/// because each asserted constraint has the same `{NULL?} ∪ S` shape and
/// `(N₁∪S₁) ∩ (N₂∪S₂) = (N₁∩N₂) ∪ (S₁∩S₂)` when the `Nᵢ ⊆ {NULL}`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColState {
    /// Can the column still be NULL?
    pub nullable: bool,
    /// Constraint on the non-null case.
    pub set: ValueSet,
}

impl ColState {
    /// Unconstrained column.
    pub fn top() -> Self {
        ColState {
            nullable: true,
            set: ValueSet::any(),
        }
    }

    /// Certainly no satisfying value (not even NULL).
    pub fn is_certainly_empty(&self) -> bool {
        !self.nullable && self.set.is_certainly_empty()
    }

    /// A concrete value certainly satisfying this state. Prefers a
    /// non-null member (witness rows replay better); falls back to NULL
    /// when allowed.
    pub fn pick(&self) -> Option<Value> {
        match self.set.pick() {
            Some(v) => Some(v),
            None if self.nullable => Some(Value::Null),
            None => None,
        }
    }
}

/// Per-column abstract state of one conjunctive cube. `BTreeMap` keyed by
/// column name so iteration — and every report built from it — is
/// deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AbstractState {
    cols: BTreeMap<String, ColState>,
}

impl AbstractState {
    /// Empty (unconstrained) state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mutable state of a column, defaulting to unconstrained.
    pub fn col_mut(&mut self, name: &str) -> &mut ColState {
        self.cols
            .entry(name.to_string())
            .or_insert_with(ColState::top)
    }

    /// Read-only column state, if constrained.
    pub fn col(&self, name: &str) -> Option<&ColState> {
        self.cols.get(name)
    }

    /// True iff some column provably has no satisfying value.
    pub fn is_certainly_unsat(&self) -> bool {
        self.cols.values().any(ColState::is_certainly_empty)
    }

    /// A concrete assignment satisfying every column constraint, or
    /// `None` when some constrained column has no certain member.
    pub fn witness(&self) -> Option<BTreeMap<String, Value>> {
        let mut out = BTreeMap::new();
        for (name, cs) in &self.cols {
            out.insert(name.clone(), cs.pick()?);
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_intersection() {
        let a = ValueSet::points(vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        let b = ValueSet::points(vec![Value::Int(2), Value::Int(5)]);
        let i = a.intersect(&b);
        assert!(i.contains(&Value::Int(2)));
        assert!(!i.contains(&Value::Int(1)));
        assert!(!i.is_certainly_empty());
        let none = a.intersect(&ValueSet::points(vec![Value::Int(9)]));
        assert!(none.is_certainly_empty());
    }

    #[test]
    fn range_intersection_and_exclusion() {
        let a = ValueSet::range(
            RangeBound::Inclusive(Value::Int(0)),
            RangeBound::Inclusive(Value::Int(10)),
        );
        let b = ValueSet::all_but(vec![Value::Int(5)]);
        let i = a.intersect(&b);
        assert!(i.contains(&Value::Int(4)));
        assert!(!i.contains(&Value::Int(5)));
        assert!(!i.contains(&Value::Int(11)));
        // Point range killed by exclusion.
        let p = ValueSet::points(vec![Value::Int(5)]).intersect(&b);
        assert!(p.is_certainly_empty());
    }

    #[test]
    fn outside_is_two_rays() {
        let o = ValueSet::outside(Value::Int(10), Value::Int(20));
        assert!(o.contains(&Value::Int(9)));
        assert!(o.contains(&Value::Int(21)));
        assert!(!o.contains(&Value::Int(15)));
        let clipped = o.intersect(&ValueSet::range(
            RangeBound::Inclusive(Value::Int(12)),
            RangeBound::Inclusive(Value::Int(18)),
        ));
        assert!(clipped.is_certainly_empty());
    }

    #[test]
    fn pick_respects_exclusions_and_bounds() {
        let s = ValueSet::range(
            RangeBound::Exclusive(Value::Int(4)),
            RangeBound::Inclusive(Value::Int(6)),
        )
        .intersect(&ValueSet::all_but(vec![Value::Int(5)]));
        let v = s.pick().expect("pick");
        assert!(s.contains(&v), "{v:?}");
        assert_eq!(v, Value::Int(6));
    }

    #[test]
    fn time_values_order_like_engine() {
        let s = ValueSet::range(
            RangeBound::Inclusive(Value::Time(9 * 3600)),
            RangeBound::Inclusive(Value::Time(10 * 3600)),
        );
        assert!(s.contains(&Value::Time(9 * 3600 + 30)));
        assert!(!s.contains(&Value::Time(8 * 3600)));
    }

    #[test]
    fn colstate_null_handling() {
        let mut cs = ColState::top();
        cs.set = ValueSet::empty();
        assert!(!cs.is_certainly_empty(), "NULL still possible");
        assert_eq!(cs.pick(), Some(Value::Null));
        cs.nullable = false;
        assert!(cs.is_certainly_empty());
        assert_eq!(cs.pick(), None);
    }
}
