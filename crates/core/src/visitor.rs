//! Shared expression/query traversal helpers.
//!
//! The rewriter (protected-reference collection, predicate pushdown) and
//! the static analyzer ([`crate::analyze`]) both walk the same `Expr` and
//! `SelectQuery` shapes. The structural recursion lives in
//! [`minidb::expr::Expr::visit`] / [`minidb::expr::Expr::visit_subqueries`]
//! / [`minidb::expr::Expr::map`]; this module builds the
//! middleware-specific walkers on top so each exists exactly once.

use minidb::expr::Expr;
use minidb::plan::{SelectQuery, TableSource};
use std::collections::{BTreeSet, HashSet};

/// True iff the expression contains a scalar subquery anywhere. Such
/// predicates are never pushed into a guard WITH body: their correlated
/// references resolve against the outer query's FROM layout, which the
/// body does not reproduce.
pub fn contains_subquery(e: &Expr) -> bool {
    let mut found = false;
    e.visit_subqueries(&mut |_| found = true);
    found
}

/// True iff the query calls a UDF anywhere: in its WHERE, a WITH body, a
/// derived table or a scalar subquery, at any depth. (A SELECT list holds
/// only columns and aggregates over columns, and there is no HAVING.)
pub fn calls_udf(query: &SelectQuery) -> bool {
    let mut found = false;
    if let Some(p) = &query.predicate {
        p.visit(&mut |e| match e {
            Expr::Udf { .. } => found = true,
            Expr::ScalarSubquery(q) => found |= calls_udf(q),
            _ => {}
        });
    }
    found
        || query.with.iter().any(|wc| calls_udf(&wc.query))
        || query.from.iter().any(|t| matches!(&t.source, TableSource::Derived(q) if calls_udf(q)))
}

/// Walk every base-table read of a protected relation in the query tree,
/// resolving names against the WITH scope first (a CTE shadowing a
/// protected name is a reference to the CTE, not to the base table).
/// `top` is true only for references in the outermost FROM.
pub fn walk_protected_refs(
    query: &SelectQuery,
    protected: &HashSet<String>,
    scope: &HashSet<String>,
    top: bool,
    f: &mut dyn FnMut(&str, bool),
) {
    let mut scope = scope.clone();
    for wc in &query.with {
        walk_protected_refs(&wc.query, protected, &scope, false, f);
        scope.insert(wc.name.clone());
    }
    for tref in &query.from {
        match &tref.source {
            TableSource::Named(rel) => {
                if protected.contains(rel) && !scope.contains(rel) {
                    f(rel, top);
                }
            }
            TableSource::Derived(q) => walk_protected_refs(q, protected, &scope, false, f),
        }
    }
    if let Some(p) = &query.predicate {
        p.visit_subqueries(&mut |q| {
            walk_protected_refs(q, protected, &scope, false, f)
        });
    }
}

/// All protected relations the query reads at **any** nesting depth
/// (derived tables, WITH bodies, scalar subqueries), after resolving names
/// against the WITH scope. This is the enforcement surface the middleware
/// must compile guards for.
pub fn collect_protected(query: &SelectQuery, protected: &HashSet<String>) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    walk_protected_refs(query, protected, &HashSet::new(), true, &mut |rel, _| {
        out.insert(rel.to_string());
    });
    out
}

/// Split the query's protected-relation reads into those named directly in
/// the top-level FROM and those reached through nesting. The sets overlap
/// when a relation is read both ways — and the nested read is still
/// unmediated by a top-level-only rewrite, so callers gating on `nested`
/// must refuse whenever it is non-empty, overlap included.
pub fn classify_protected_refs(
    query: &SelectQuery,
    protected: &HashSet<String>,
) -> (BTreeSet<String>, BTreeSet<String>) {
    let mut top = BTreeSet::new();
    let mut nested = BTreeSet::new();
    walk_protected_refs(query, protected, &HashSet::new(), true, &mut |rel, is_top| {
        if is_top {
            top.insert(rel.to_string());
        } else {
            nested.insert(rel.to_string());
        }
    });
    (top, nested)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::expr::{CmpOp, ColumnRef};
    use minidb::Value;

    #[test]
    fn strip_alias_rewrites_only_matching_qualifier() {
        let e = Expr::and(
            Expr::Cmp {
                op: CmpOp::Eq,
                lhs: Box::new(Expr::Column(ColumnRef::qualified("w", "owner"))),
                rhs: Box::new(Expr::Literal(Value::Int(3))),
            },
            Expr::Cmp {
                op: CmpOp::Eq,
                lhs: Box::new(Expr::Column(ColumnRef::qualified("other", "owner"))),
                rhs: Box::new(Expr::Literal(Value::Int(4))),
            },
        );
        let stripped = e.strip_alias("w");
        let mut bare = 0;
        let mut qualified = 0;
        stripped.visit_columns(&mut |c| {
            if c.table.is_none() {
                bare += 1;
            } else {
                qualified += 1;
            }
        });
        assert_eq!((bare, qualified), (1, 1));
    }

    #[test]
    fn contains_subquery_sees_every_position() {
        let sub = Expr::ScalarSubquery(Box::new(SelectQuery::star_from("t")));
        let e = Expr::InList {
            expr: Box::new(Expr::Column(ColumnRef::bare("x"))),
            list: vec![sub],
            negated: false,
        };
        assert!(contains_subquery(&e));
        assert!(!contains_subquery(&Expr::Literal(Value::Bool(true))));
    }

    #[test]
    fn calls_udf_sees_every_depth() {
        let call = "delta(1, id, 3, 1002, ts_time)";
        let calling = [
            format!("SELECT id FROM w WHERE {call}"),
            format!("SELECT id FROM w WHERE owner = 1 AND NOT ({call} OR id > 2)"),
            format!("SELECT id FROM (SELECT * FROM w WHERE {call}) AS d"),
            format!("WITH c AS (SELECT * FROM w WHERE {call}) SELECT id FROM c"),
            format!("SELECT id FROM w WHERE owner = (SELECT MAX(owner) FROM w WHERE {call})"),
            format!(
                "SELECT id FROM (SELECT * FROM w WHERE owner = \
                 (SELECT MIN(owner) FROM (SELECT * FROM w WHERE {call}) AS e)) AS d"
            ),
        ];
        for sql in &calling {
            assert!(calls_udf(&minidb::sql::parse(sql).unwrap()), "{sql}");
        }
        let plain = "SELECT id FROM (SELECT * FROM w WHERE owner = (SELECT MAX(owner) FROM w)) AS d";
        assert!(!calls_udf(&minidb::sql::parse(plain).unwrap()));
    }
}
