//! Render query ASTs back to SQL text.
//!
//! The renderer produces text the parser accepts (`parse(render(q)) == q`
//! is property-tested), which lets the middleware log and ship the exact
//! rewritten SQL the way the paper's SIEVE implementation does.

use crate::expr::Expr;
use crate::plan::{IndexHint, SelectItem, SelectQuery, TableSource};
use crate::value::Value;
use std::fmt::Write;

/// Render a query to SQL text.
pub fn render_query(q: &SelectQuery) -> String {
    let mut s = String::new();
    write_query(&mut s, q);
    s
}

fn write_query(s: &mut String, q: &SelectQuery) {
    if !q.with.is_empty() {
        s.push_str("WITH ");
        for (i, wc) in q.with.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "{} AS (", wc.name);
            write_query(s, &wc.query);
            s.push(')');
        }
        s.push(' ');
    }
    s.push_str("SELECT ");
    for (i, item) in q.select.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        match item {
            SelectItem::Star => s.push('*'),
            SelectItem::Column { column, alias } => {
                let _ = write!(s, "{column}");
                if let Some(a) = alias {
                    let _ = write!(s, " AS {a}");
                }
            }
            SelectItem::Aggregate {
                func,
                column,
                alias,
            } => {
                let _ = write!(s, "{}(", func.sql());
                match (func, column) {
                    (crate::plan::AggFunc::CountDistinct, Some(c)) => {
                        let _ = write!(s, "DISTINCT {c}");
                    }
                    (crate::plan::AggFunc::CountDistinct, None) => {
                        // Must keep the DISTINCT spelling: falling through
                        // to `COUNT(*)` would silently execute a different
                        // aggregate across the wire.
                        s.push_str("DISTINCT *");
                    }
                    (_, Some(c)) => {
                        let _ = write!(s, "{c}");
                    }
                    (_, None) => s.push('*'),
                }
                s.push(')');
                if let Some(a) = alias {
                    let _ = write!(s, " AS {a}");
                }
            }
        }
    }
    s.push_str(" FROM ");
    for (i, t) in q.from.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        match &t.source {
            TableSource::Named(n) => {
                s.push_str(n);
                if t.alias != *n {
                    let _ = write!(s, " AS {}", t.alias);
                }
            }
            TableSource::Derived(inner) => {
                s.push('(');
                write_query(s, inner);
                let _ = write!(s, ") AS {}", t.alias);
            }
        }
        match &t.hint {
            IndexHint::None => {}
            IndexHint::Force(cols) => {
                let _ = write!(s, " FORCE INDEX ({})", cols.join(", "));
            }
            IndexHint::IgnoreAll => s.push_str(" USE INDEX ()"),
        }
    }
    if let Some(p) = &q.predicate {
        s.push_str(" WHERE ");
        write_expr(s, p, 0);
    }
    if !q.group_by.is_empty() {
        s.push_str(" GROUP BY ");
        for (i, c) in q.group_by.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "{c}");
        }
    }
    if let Some(n) = q.limit {
        let _ = write!(s, " LIMIT {n}");
    }
}

/// Render an expression to SQL text.
pub fn render_expr(e: &Expr) -> String {
    let mut s = String::new();
    write_expr(&mut s, e, 0);
    s
}

/// Precedence levels: OR=1, AND=2, NOT=3, atoms=4. Parenthesize whenever a
/// child's level is at or below the parent's requirement.
fn write_expr(s: &mut String, e: &Expr, parent_level: u8) {
    let level = match e {
        Expr::Or(_) => 1,
        Expr::And(_) => 2,
        Expr::Not(_) => 3,
        _ => 4,
    };
    let need_parens = level < 4 && level <= parent_level;
    if need_parens {
        s.push('(');
    }
    match e {
        Expr::Literal(v) => write_value(s, v),
        Expr::Column(c) => {
            let _ = write!(s, "{c}");
        }
        Expr::Cmp { op, lhs, rhs } => {
            write_expr(s, lhs, level);
            let _ = write!(s, " {} ", op.sql());
            write_expr(s, rhs, level);
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            write_expr(s, expr, level);
            s.push_str(if *negated { " NOT BETWEEN " } else { " BETWEEN " });
            write_expr(s, low, level);
            s.push_str(" AND ");
            write_expr(s, high, level);
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            write_expr(s, expr, level);
            s.push_str(if *negated { " NOT IN (" } else { " IN (" });
            for (i, item) in list.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                write_expr(s, item, 0);
            }
            s.push(')');
        }
        Expr::IsNull { expr, negated } => {
            write_expr(s, expr, level);
            s.push_str(if *negated { " IS NOT NULL" } else { " IS NULL" });
        }
        Expr::And(parts) => {
            for (i, p) in parts.iter().enumerate() {
                if i > 0 {
                    s.push_str(" AND ");
                }
                write_expr(s, p, level);
            }
        }
        Expr::Or(parts) => {
            for (i, p) in parts.iter().enumerate() {
                if i > 0 {
                    s.push_str(" OR ");
                }
                write_expr(s, p, level);
            }
        }
        Expr::Not(inner) => {
            s.push_str("NOT ");
            write_expr(s, inner, level);
        }
        Expr::Udf { name, args } => {
            let _ = write!(s, "{name}(");
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                write_expr(s, a, 0);
            }
            s.push(')');
        }
        Expr::ScalarSubquery(q) => {
            s.push('(');
            write_query(s, q);
            s.push(')');
        }
        // Level 4 put no parentheses of its own around the source's.
        Expr::Shared(shared) => write_expr(s, shared.source(), parent_level),
    }
    if need_parens {
        s.push(')');
    }
}

fn write_value(s: &mut String, v: &Value) {
    // `Value`'s Display already renders SQL-style literals.
    let _ = write!(s, "{v}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, ColumnRef};
    use crate::sql::parse;

    #[test]
    fn renders_precedence_correctly() {
        // (a=1 OR b=2) AND c=3 must keep its parens.
        let e = Expr::and(
            Expr::or(
                Expr::col_eq(ColumnRef::bare("a"), Value::Int(1)),
                Expr::col_eq(ColumnRef::bare("b"), Value::Int(2)),
            ),
            Expr::col_eq(ColumnRef::bare("c"), Value::Int(3)),
        );
        let text = render_expr(&e);
        assert_eq!(text, "(a = 1 OR b = 2) AND c = 3");
        let q = parse(&format!("SELECT * FROM t WHERE {text}")).unwrap();
        assert_eq!(q.predicate.unwrap(), e);
    }

    #[test]
    fn renders_or_of_ands_without_extra_parens() {
        let e = Expr::or(
            Expr::and(
                Expr::col_eq(ColumnRef::bare("a"), Value::Int(1)),
                Expr::col_eq(ColumnRef::bare("b"), Value::Int(2)),
            ),
            Expr::col_eq(ColumnRef::bare("c"), Value::Int(3)),
        );
        let text = render_expr(&e);
        let q = parse(&format!("SELECT * FROM t WHERE {text}")).unwrap();
        assert_eq!(q.predicate.unwrap(), e);
    }

    #[test]
    fn renders_typed_values() {
        let e = Expr::col_cmp(
            ColumnRef::bare("ts_time"),
            CmpOp::Ge,
            Value::Time(9 * 3600),
        );
        assert_eq!(render_expr(&e), "ts_time >= TIME '09:00:00'");
        let q = parse(&format!("SELECT * FROM t WHERE {}", render_expr(&e))).unwrap();
        assert_eq!(q.predicate.unwrap(), e);
    }

    #[test]
    fn all_aggregate_shapes_roundtrip() {
        use crate::plan::{AggFunc, SelectQuery, TableRef};
        let shapes: Vec<(AggFunc, Option<ColumnRef>)> = vec![
            (AggFunc::Count, None),
            (AggFunc::Count, Some(ColumnRef::bare("a"))),
            (AggFunc::CountDistinct, None),
            (AggFunc::CountDistinct, Some(ColumnRef::bare("a"))),
            (AggFunc::Sum, Some(ColumnRef::qualified("t", "a"))),
            (AggFunc::Min, Some(ColumnRef::bare("a"))),
            (AggFunc::Max, Some(ColumnRef::bare("a"))),
            (AggFunc::Avg, Some(ColumnRef::bare("a"))),
        ];
        for (func, column) in shapes {
            let q = SelectQuery {
                with: vec![],
                select: vec![crate::plan::SelectItem::Aggregate {
                    func,
                    column: column.clone(),
                    alias: Some("x".into()),
                }],
                from: vec![TableRef::named("t")],
                predicate: None,
                group_by: vec![],
                limit: None,
            };
            let sql = render_query(&q);
            let back = parse(&sql).unwrap_or_else(|e| {
                panic!("aggregate shape {func:?}/{column:?} failed to parse: {e}\n{sql}")
            });
            assert_eq!(back, q, "aggregate shape diverged through {sql}");
        }
    }

    #[test]
    fn renders_double_literals_roundtrip() {
        for d in [1.0, -4.25, 0.5, 1e300, -2.5e-7, f64::MIN, f64::MAX] {
            let e = Expr::col_eq(ColumnRef::bare("a"), Value::Double(d));
            let sql = format!("SELECT * FROM t WHERE {}", render_expr(&e));
            let q = parse(&sql).unwrap_or_else(|err| panic!("{sql}: {err}"));
            assert_eq!(q.predicate.unwrap(), e, "double {d} diverged through {sql}");
        }
        // Non-finite doubles render as DOUBLE '…', which the parser
        // rejects with a defined error rather than misparsing.
        for d in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let e = Expr::col_eq(ColumnRef::bare("a"), Value::Double(d));
            let sql = format!("SELECT * FROM t WHERE {}", render_expr(&e));
            assert!(parse(&sql).is_err(), "non-finite literal must not parse: {sql}");
        }
    }

    #[test]
    fn renders_query_with_hint_roundtrip() {
        let sql = "WITH pol AS (SELECT * FROM w FORCE INDEX (owner) WHERE owner = 1 OR owner = 2) \
                   SELECT COUNT(*) AS n FROM pol";
        let q = parse(sql).unwrap();
        let q2 = parse(&render_query(&q)).unwrap();
        assert_eq!(q, q2);
    }
}
