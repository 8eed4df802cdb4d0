//! Lowering engine predicates to analyzable atoms, asserting atoms into
//! the abstract domain, and the concrete reference evaluator used to
//! confirm refutation witnesses.
//!
//! The engine's NULL handling is **collapsed-to-false at the leaves,
//! classical above them** (see `BoundExpr::eval_cow`): every comparison,
//! `BETWEEN` and `IN` involving a NULL tested value (or NULL
//! bounds/elements) evaluates to plain `false`, and `NOT`/`AND`/`OR`
//! combine those two-valued results classically. That makes negation-
//! normal-form lowering *exact* — there is no third truth value to lose —
//! but it also means `NOT (x BETWEEN a AND b)` is **false** for NULL `x`,
//! which the assertion rules below encode case by case.

use super::domain::{AbstractState, ColState, ValueSet};
use minidb::expr::{CmpOp, Expr};
use minidb::{RangeBound, Value};
use std::collections::BTreeMap;

/// A leaf predicate in a shape the abstract domain understands, or
/// `Opaque` for everything else (subqueries, UDFs, parameters,
/// column-to-column comparisons, qualified references). Opaque atoms are
/// never assumed anything about — they taint the cube toward `Unknown`.
#[derive(Debug, Clone, PartialEq)]
pub enum Atom {
    /// `col op literal` (normalized so the column is on the left).
    Cmp {
        /// Bare column name.
        col: String,
        /// Comparison operator.
        op: CmpOp,
        /// Literal operand.
        value: Value,
    },
    /// `col [NOT] BETWEEN low AND high` with literal bounds.
    Between {
        /// Bare column name.
        col: String,
        /// Inclusive lower bound.
        low: Value,
        /// Inclusive upper bound.
        high: Value,
        /// NOT BETWEEN if true.
        negated: bool,
    },
    /// `col [NOT] IN (…)` with an all-literal list.
    InList {
        /// Bare column name.
        col: String,
        /// List elements (NULL elements kept — they never match).
        list: Vec<Value>,
        /// NOT IN if true.
        negated: bool,
    },
    /// `col IS [NOT] NULL`.
    IsNull {
        /// Bare column name.
        col: String,
        /// IS NOT NULL if true.
        negated: bool,
    },
    /// Constant `TRUE`.
    True,
    /// Constant `FALSE` (including a bare NULL literal, which the engine
    /// collapses to false in predicate position).
    False,
    /// Anything the domain cannot reason about.
    Opaque,
}

/// A possibly negated atom.
#[derive(Debug, Clone, PartialEq)]
pub struct Lit {
    /// The atom.
    pub atom: Atom,
    /// True for the atom itself, false for its (classical) negation.
    pub positive: bool,
}

/// A conjunction of literals.
pub type Cube = Vec<Lit>;

fn bare_col(e: &Expr) -> Option<&str> {
    match e.unshared() {
        Expr::Column(c) if c.table.is_none() => Some(&c.column),
        _ => None,
    }
}

fn literal(e: &Expr) -> Option<&Value> {
    match e.unshared() {
        Expr::Literal(v) => Some(v),
        _ => None,
    }
}

/// Lower one non-combinator expression to an atom. Combinators
/// (`AND`/`OR`/`NOT`) are handled by [`to_cubes`]; feeding one here
/// yields `Opaque` (sound, just imprecise).
pub fn atom_of(e: &Expr) -> Atom {
    match e.unshared() {
        Expr::Literal(Value::Bool(true)) => Atom::True,
        Expr::Literal(Value::Bool(false)) | Expr::Literal(Value::Null) => Atom::False,
        Expr::Cmp { op, lhs, rhs } => match (bare_col(lhs), literal(rhs), literal(lhs), bare_col(rhs)) {
            (Some(col), Some(v), _, _) => Atom::Cmp {
                col: col.to_string(),
                op: *op,
                value: v.clone(),
            },
            (_, _, Some(v), Some(col)) => Atom::Cmp {
                col: col.to_string(),
                op: op.flip(),
                value: v.clone(),
            },
            _ => Atom::Opaque,
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => match (bare_col(expr), literal(low), literal(high)) {
            (Some(col), Some(lo), Some(hi)) => Atom::Between {
                col: col.to_string(),
                low: lo.clone(),
                high: hi.clone(),
                negated: *negated,
            },
            _ => Atom::Opaque,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => match bare_col(expr) {
            Some(col) if list.iter().all(|e| literal(e).is_some()) => Atom::InList {
                col: col.to_string(),
                list: list.iter().filter_map(literal).cloned().collect(),
                negated: *negated,
            },
            _ => Atom::Opaque,
        },
        Expr::IsNull { expr, negated } => match bare_col(expr) {
            Some(col) => Atom::IsNull {
                col: col.to_string(),
                negated: *negated,
            },
            _ => Atom::Opaque,
        },
        _ => Atom::Opaque,
    }
}

/// Disjunctive normal form of `e` (when `positive`) or of `¬e` (when
/// not), as cubes of engine-semantics literals. Exact because the
/// engine's combinators are classical over collapsed leaf values. Returns
/// `None` when the cube count would exceed `max` — callers report
/// `Unknown`, never truncate silently.
pub fn to_cubes(e: &Expr, positive: bool, max: usize) -> Option<Vec<Cube>> {
    fn product(lists: &[Vec<Cube>], max: usize) -> Option<Vec<Cube>> {
        let mut acc: Vec<Cube> = vec![Vec::new()];
        for list in lists {
            let mut next = Vec::new();
            for base in &acc {
                for cube in list {
                    if next.len() >= max {
                        return None;
                    }
                    let mut merged = base.clone();
                    merged.extend(cube.iter().cloned());
                    next.push(merged);
                }
            }
            acc = next;
        }
        Some(acc)
    }
    match e.unshared() {
        Expr::And(parts) => {
            let children: Option<Vec<_>> =
                parts.iter().map(|p| to_cubes(p, positive, max)).collect();
            let children = children?;
            if positive {
                product(&children, max)
            } else {
                // ¬(a ∧ b) = ¬a ∨ ¬b — classical at this layer.
                let mut out = Vec::new();
                for c in children {
                    out.extend(c);
                    if out.len() > max {
                        return None;
                    }
                }
                Some(out)
            }
        }
        Expr::Or(parts) => {
            let children: Option<Vec<_>> =
                parts.iter().map(|p| to_cubes(p, positive, max)).collect();
            let children = children?;
            if positive {
                let mut out = Vec::new();
                for c in children {
                    out.extend(c);
                    if out.len() > max {
                        return None;
                    }
                }
                Some(out)
            } else {
                product(&children, max)
            }
        }
        Expr::Not(inner) => to_cubes(inner, !positive, max),
        other => {
            let atom = atom_of(other);
            match (&atom, positive) {
                (Atom::True, true) | (Atom::False, false) => Some(vec![Vec::new()]),
                (Atom::True, false) | (Atom::False, true) => Some(Vec::new()),
                _ => Some(vec![vec![Lit { atom, positive }]]),
            }
        }
    }
}

/// Result of asserting one literal into a state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssertOutcome {
    /// Constraint recorded exactly.
    Ok,
    /// The literal is unsatisfiable in any state (the cube is dead).
    Unsat,
    /// The literal is opaque — nothing recorded, cube is tainted.
    Opaque,
}

/// Constrain a column to be non-null and within `set`.
fn assert_non_null_in(cs: &mut ColState, set: &ValueSet) {
    cs.nullable = false;
    cs.set = cs.set.intersect(set);
}

/// Narrow the non-null case only (NULL, if still possible, satisfies the
/// literal by collapsing to false).
fn assert_null_or_in(cs: &mut ColState, set: &ValueSet) {
    cs.set = cs.set.intersect(set);
}

/// The set of non-null values satisfying `col op value`.
fn op_set(op: CmpOp, value: &Value) -> ValueSet {
    match op {
        CmpOp::Eq => ValueSet::points(vec![value.clone()]),
        CmpOp::Ne => ValueSet::all_but(vec![value.clone()]),
        CmpOp::Lt => ValueSet::range(RangeBound::Unbounded, RangeBound::Exclusive(value.clone())),
        CmpOp::Le => ValueSet::range(RangeBound::Unbounded, RangeBound::Inclusive(value.clone())),
        CmpOp::Gt => ValueSet::range(RangeBound::Exclusive(value.clone()), RangeBound::Unbounded),
        CmpOp::Ge => ValueSet::range(RangeBound::Inclusive(value.clone()), RangeBound::Unbounded),
    }
}

/// The complement of [`op_set`] within the non-null values.
fn op_complement(op: CmpOp, value: &Value) -> ValueSet {
    match op {
        CmpOp::Eq => ValueSet::all_but(vec![value.clone()]),
        CmpOp::Ne => ValueSet::points(vec![value.clone()]),
        CmpOp::Lt => op_set(CmpOp::Ge, value),
        CmpOp::Le => op_set(CmpOp::Gt, value),
        CmpOp::Gt => op_set(CmpOp::Le, value),
        CmpOp::Ge => op_set(CmpOp::Lt, value),
    }
}

/// Assert `lit` into `state`, following the engine's collapsed-NULL
/// semantics exactly. Each rule is derived from `BoundExpr::eval_cow`:
/// a *positive* leaf forces the tested column non-null; a *negative*
/// leaf is satisfied by NULL (the leaf collapses to false).
pub fn assert_lit(state: &mut AbstractState, lit: &Lit) -> AssertOutcome {
    match (&lit.atom, lit.positive) {
        (Atom::True, true) | (Atom::False, false) => AssertOutcome::Ok,
        (Atom::True, false) | (Atom::False, true) => AssertOutcome::Unsat,
        (Atom::Opaque, _) => AssertOutcome::Opaque,

        (Atom::Cmp { col, op, value }, true) => {
            if value.is_null() {
                return AssertOutcome::Unsat; // comparison vs NULL is false
            }
            assert_non_null_in(state.col_mut(col), &op_set(*op, value));
            AssertOutcome::Ok
        }
        (Atom::Cmp { col, op, value }, false) => {
            if value.is_null() {
                return AssertOutcome::Ok; // always false ⇒ negation holds
            }
            assert_null_or_in(state.col_mut(col), &op_complement(*op, value));
            AssertOutcome::Ok
        }

        (
            Atom::Between {
                col,
                low,
                high,
                negated,
            },
            positive,
        ) => {
            let bounds_null = low.is_null() || high.is_null();
            // Engine: NULL value or NULL bound ⇒ false, regardless of
            // `negated`; otherwise `inside != negated`.
            let inside = ValueSet::range(
                RangeBound::Inclusive(low.clone()),
                RangeBound::Inclusive(high.clone()),
            );
            match (positive, *negated) {
                (true, false) => {
                    if bounds_null {
                        return AssertOutcome::Unsat;
                    }
                    assert_non_null_in(state.col_mut(col), &inside);
                }
                (true, true) => {
                    if bounds_null {
                        return AssertOutcome::Unsat;
                    }
                    if low > high {
                        // Empty interval: every non-null value is outside.
                        state.col_mut(col).nullable = false;
                    } else {
                        assert_non_null_in(
                            state.col_mut(col),
                            &ValueSet::outside(low.clone(), high.clone()),
                        );
                    }
                }
                (false, false) => {
                    if bounds_null || low > high {
                        return AssertOutcome::Ok; // leaf always false
                    }
                    assert_null_or_in(
                        state.col_mut(col),
                        &ValueSet::outside(low.clone(), high.clone()),
                    );
                }
                (false, true) => {
                    if bounds_null {
                        return AssertOutcome::Ok;
                    }
                    assert_null_or_in(state.col_mut(col), &inside);
                }
            }
            AssertOutcome::Ok
        }

        (
            Atom::InList {
                col,
                list,
                negated,
            },
            positive,
        ) => {
            // NULL list elements never match (`Null == v` is false for
            // non-null v, and a NULL tested value short-circuits first).
            let members: Vec<Value> = list.iter().filter(|v| !v.is_null()).cloned().collect();
            let in_set = ValueSet::points(members.clone());
            let out_set = ValueSet::all_but(members);
            match (positive, *negated) {
                (true, false) => assert_non_null_in(state.col_mut(col), &in_set),
                (true, true) => assert_non_null_in(state.col_mut(col), &out_set),
                (false, false) => assert_null_or_in(state.col_mut(col), &out_set),
                (false, true) => assert_null_or_in(state.col_mut(col), &in_set),
            }
            AssertOutcome::Ok
        }

        (Atom::IsNull { col, negated }, positive) => {
            // `v.is_null() != negated` — exact two-valued semantics.
            let must_null = positive != *negated;
            let cs = state.col_mut(col);
            if must_null {
                if !cs.nullable {
                    return AssertOutcome::Unsat;
                }
                cs.set = ValueSet::empty();
            } else {
                cs.nullable = false;
            }
            AssertOutcome::Ok
        }
    }
}

/// Truth status of an atom relative to a state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomStatus {
    /// Every state member satisfies the atom.
    MustTrue,
    /// No state member satisfies the atom.
    MustFalse,
    /// Either is possible (or the domain cannot tell).
    Undecided,
    /// The atom is opaque.
    Opaque,
}

/// Classify `atom` against `state` by testing whether asserting it (and
/// its negation) certainly empties the state. Because emptiness checks
/// under-approximate, `MustTrue`/`MustFalse` are *proofs*; `Undecided`
/// is the fallback whenever certainty is lacking.
pub fn atom_status(state: &AbstractState, atom: &Atom) -> AtomStatus {
    let mut as_true = state.clone();
    let true_possible = match assert_lit(
        &mut as_true,
        &Lit {
            atom: atom.clone(),
            positive: true,
        },
    ) {
        AssertOutcome::Ok => !as_true.is_certainly_unsat(),
        AssertOutcome::Unsat => false,
        AssertOutcome::Opaque => return AtomStatus::Opaque,
    };
    let mut as_false = state.clone();
    let false_possible = match assert_lit(
        &mut as_false,
        &Lit {
            atom: atom.clone(),
            positive: false,
        },
    ) {
        AssertOutcome::Ok => !as_false.is_certainly_unsat(),
        AssertOutcome::Unsat => false,
        AssertOutcome::Opaque => return AtomStatus::Opaque,
    };
    match (true_possible, false_possible) {
        (false, _) => AtomStatus::MustFalse,
        (true, false) => AtomStatus::MustTrue,
        (true, true) => AtomStatus::Undecided,
    }
}

/// Evaluate `e` over a column→value assignment with the engine's exact
/// collapsed-NULL semantics. Missing columns read as NULL. Returns `None`
/// when the expression contains a shape the analyzer cannot evaluate
/// (subquery, UDF, parameter, qualified reference) and the result is not
/// already forced by an evaluable sibling.
pub fn eval_concrete(e: &Expr, row: &BTreeMap<String, Value>) -> Option<bool> {
    fn value_of(e: &Expr, row: &BTreeMap<String, Value>) -> Option<Value> {
        match e.unshared() {
            Expr::Literal(v) => Some(v.clone()),
            Expr::Column(c) if c.table.is_none() => {
                Some(row.get(&c.column).cloned().unwrap_or(Value::Null))
            }
            _ => None,
        }
    }
    match e.unshared() {
        Expr::Literal(Value::Bool(b)) => Some(*b),
        Expr::Literal(Value::Null) => Some(false),
        Expr::Cmp { op, lhs, rhs } => {
            let a = value_of(lhs, row)?;
            let b = value_of(rhs, row)?;
            Some(op.apply(&a, &b))
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = value_of(expr, row)?;
            let lo = value_of(low, row)?;
            let hi = value_of(high, row)?;
            if v.is_null() || lo.is_null() || hi.is_null() {
                return Some(false);
            }
            Some((v >= lo && v <= hi) != *negated)
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = value_of(expr, row)?;
            if v.is_null() {
                return Some(false);
            }
            let mut found = false;
            for item in list {
                if value_of(item, row)? == v {
                    found = true;
                    break;
                }
            }
            Some(found != *negated)
        }
        Expr::IsNull { expr, negated } => {
            let v = value_of(expr, row)?;
            Some(v.is_null() != *negated)
        }
        Expr::And(parts) => {
            // Conjunction result is order-independent (absent errors): any
            // evaluable false child forces false; otherwise an opaque
            // child forces None.
            let mut opaque = false;
            for p in parts {
                match eval_concrete(p, row) {
                    Some(false) => return Some(false),
                    Some(true) => {}
                    None => opaque = true,
                }
            }
            if opaque {
                None
            } else {
                Some(true)
            }
        }
        Expr::Or(parts) => {
            let mut opaque = false;
            for p in parts {
                match eval_concrete(p, row) {
                    Some(true) => return Some(true),
                    Some(false) => {}
                    None => opaque = true,
                }
            }
            if opaque {
                None
            } else {
                Some(false)
            }
        }
        Expr::Not(inner) => eval_concrete(inner, row).map(|b| !b),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::expr::ColumnRef;

    fn col(name: &str) -> Expr {
        Expr::Column(ColumnRef::bare(name))
    }
    fn lit(v: Value) -> Expr {
        Expr::Literal(v)
    }
    fn cmp(name: &str, op: CmpOp, v: Value) -> Expr {
        Expr::Cmp {
            op,
            lhs: Box::new(col(name)),
            rhs: Box::new(lit(v)),
        }
    }

    #[test]
    fn positive_cmp_forces_non_null() {
        let mut st = AbstractState::new();
        let lit = Lit {
            atom: atom_of(&cmp("owner", CmpOp::Eq, Value::Int(5))),
            positive: true,
        };
        assert_eq!(assert_lit(&mut st, &lit), AssertOutcome::Ok);
        let cs = st.col("owner").expect("constrained");
        assert!(!cs.nullable);
        assert_eq!(cs.pick(), Some(Value::Int(5)));
    }

    #[test]
    fn negative_cmp_keeps_null_open() {
        let mut st = AbstractState::new();
        let l = Lit {
            atom: atom_of(&cmp("owner", CmpOp::Eq, Value::Int(5))),
            positive: false,
        };
        assert_lit(&mut st, &l);
        let cs = st.col("owner").expect("constrained");
        assert!(cs.nullable, "NULL satisfies ¬(owner = 5) under engine semantics");
        assert!(!cs.set.contains(&Value::Int(5)));
    }

    #[test]
    fn contradictory_cmps_certainly_unsat() {
        let mut st = AbstractState::new();
        for (op, v) in [(CmpOp::Eq, 5), (CmpOp::Gt, 9)] {
            assert_lit(
                &mut st,
                &Lit {
                    atom: atom_of(&cmp("owner", op, Value::Int(v))),
                    positive: true,
                },
            );
        }
        assert!(st.is_certainly_unsat());
    }

    #[test]
    fn not_between_null_is_false() {
        // Engine: NULL NOT BETWEEN 1 AND 2 ⇒ false. So asserting the
        // positive NOT BETWEEN must exclude NULL.
        let e = Expr::Between {
            expr: Box::new(col("ts")),
            low: Box::new(lit(Value::Int(1))),
            high: Box::new(lit(Value::Int(2))),
            negated: true,
        };
        let mut st = AbstractState::new();
        assert_lit(
            &mut st,
            &Lit {
                atom: atom_of(&e),
                positive: true,
            },
        );
        assert!(!st.col("ts").expect("constrained").nullable);
        // And the concrete evaluator agrees.
        let mut row = BTreeMap::new();
        row.insert("ts".to_string(), Value::Null);
        assert_eq!(eval_concrete(&e, &row), Some(false));
    }

    #[test]
    fn dnf_of_negated_disjunction() {
        let e = Expr::Not(Box::new(Expr::or(
            cmp("a", CmpOp::Eq, Value::Int(1)),
            cmp("b", CmpOp::Eq, Value::Int(2)),
        )));
        let cubes = to_cubes(&e, true, 64).expect("within budget");
        assert_eq!(cubes.len(), 1);
        assert_eq!(cubes[0].len(), 2);
        assert!(cubes[0].iter().all(|l| !l.positive));
    }

    #[test]
    fn concrete_eval_matches_engine_null_collapse() {
        let mut row = BTreeMap::new();
        row.insert("x".to_string(), Value::Null);
        // x = 1 → false; NOT (x = 1) → true (classical Not over collapsed leaf).
        let e = cmp("x", CmpOp::Eq, Value::Int(1));
        assert_eq!(eval_concrete(&e, &row), Some(false));
        assert_eq!(eval_concrete(&Expr::Not(Box::new(e)), &row), Some(true));
        // Missing column reads as NULL.
        let e2 = cmp("missing", CmpOp::Lt, Value::Int(10));
        assert_eq!(eval_concrete(&e2, &row), Some(false));
    }

    #[test]
    fn atom_status_classifies() {
        let mut st = AbstractState::new();
        assert_lit(
            &mut st,
            &Lit {
                atom: atom_of(&cmp("owner", CmpOp::Eq, Value::Int(5))),
                positive: true,
            },
        );
        assert_eq!(
            atom_status(&st, &atom_of(&cmp("owner", CmpOp::Eq, Value::Int(5)))),
            AtomStatus::MustTrue
        );
        assert_eq!(
            atom_status(&st, &atom_of(&cmp("owner", CmpOp::Eq, Value::Int(6)))),
            AtomStatus::MustFalse
        );
        assert_eq!(
            atom_status(&st, &atom_of(&cmp("other", CmpOp::Eq, Value::Int(1)))),
            AtomStatus::Undecided
        );
    }
}
