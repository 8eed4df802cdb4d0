//! Property test: the SQL renderer and parser are inverse —
//! `parse(render(q)) == q` for randomly generated queries covering the
//! whole supported subset.

use proptest::prelude::*;
use sieve::minidb::expr::{CmpOp, ColumnRef, Expr};
use sieve::minidb::plan::{
    AggFunc, IndexHint, SelectItem, SelectQuery, TableRef, TableSource,
};
use sieve::minidb::sql::{parse, render_query};
use sieve::minidb::Value;

const KEYWORDS: [&str; 28] = [
    "select", "from", "where", "group", "by", "and", "or", "not", "in", "between", "is",
    "null", "true", "false", "as", "force", "use", "index", "limit", "with", "time",
    "date", "count", "sum", "min", "max", "avg", "distinct",
];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s.to_ascii_lowercase().as_str())
}

/// The parser always produces flattened And/Or trees (its `Expr::and`/`or`
/// builders flatten); normalize arbitrary ASTs the same way before
/// comparing.
fn normalize(e: &Expr) -> Expr {
    match e {
        Expr::And(v) => {
            let mut parts = Vec::new();
            for p in v {
                match normalize(p) {
                    Expr::And(mut inner) => parts.append(&mut inner),
                    other => parts.push(other),
                }
            }
            if parts.len() == 1 { parts.pop().unwrap() } else { Expr::And(parts) }
        }
        Expr::Or(v) => {
            let mut parts = Vec::new();
            for p in v {
                match normalize(p) {
                    Expr::Or(mut inner) => parts.append(&mut inner),
                    other => parts.push(other),
                }
            }
            if parts.len() == 1 { parts.pop().unwrap() } else { Expr::Or(parts) }
        }
        Expr::Not(x) => Expr::Not(Box::new(normalize(x))),
        Expr::Cmp { op, lhs, rhs } => Expr::Cmp {
            op: *op,
            lhs: Box::new(normalize(lhs)),
            rhs: Box::new(normalize(rhs)),
        },
        Expr::Between { expr, low, high, negated } => Expr::Between {
            expr: Box::new(normalize(expr)),
            low: Box::new(normalize(low)),
            high: Box::new(normalize(high)),
            negated: *negated,
        },
        Expr::InList { expr, list, negated } => Expr::InList {
            expr: Box::new(normalize(expr)),
            list: list.iter().map(normalize).collect(),
            negated: *negated,
        },
        other => other.clone(),
    }
}

fn normalize_query(q: &SelectQuery) -> SelectQuery {
    let mut q = q.clone();
    q.predicate = q.predicate.as_ref().map(normalize);
    q
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-1000i64..1000).prop_map(Value::Int),
        (0u32..86_400).prop_map(Value::Time),
        (0i32..40_000).prop_map(Value::Date),
        "[a-z]{1,8}".prop_map(Value::str),
        any::<bool>().prop_map(Value::Bool),
    ]
}

fn arb_column() -> impl Strategy<Value = ColumnRef> {
    prop_oneof![
        "[a-z_][a-z0-9_]{0,6}".prop_map(ColumnRef::bare),
        ("[a-z]{1,4}", "[a-z_][a-z0-9_]{0,6}")
            .prop_map(|(t, c)| ColumnRef::qualified(t, c)),
    ]
    .prop_filter("avoid keywords", |c| {
        !is_keyword(&c.column) && !c.table.as_deref().map(is_keyword).unwrap_or(false)
    })
}

fn arb_cmp_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
}

fn arb_leaf() -> impl Strategy<Value = Expr> {
    prop_oneof![
        (arb_column(), arb_cmp_op(), arb_value()).prop_map(|(c, op, v)| Expr::Cmp {
            op,
            lhs: Box::new(Expr::Column(c)),
            rhs: Box::new(Expr::Literal(v)),
        }),
        (arb_column(), arb_value(), arb_value(), any::<bool>()).prop_map(
            |(c, a, b, negated)| Expr::Between {
                expr: Box::new(Expr::Column(c)),
                low: Box::new(Expr::Literal(a)),
                high: Box::new(Expr::Literal(b)),
                negated,
            }
        ),
        (
            arb_column(),
            proptest::collection::vec(arb_value(), 1..4),
            any::<bool>()
        )
            .prop_map(|(c, vs, negated)| Expr::InList {
                expr: Box::new(Expr::Column(c)),
                list: vs.into_iter().map(Expr::Literal).collect(),
                negated,
            }),
        (arb_column(), any::<bool>()).prop_map(|(c, negated)| Expr::IsNull {
            expr: Box::new(Expr::Column(c)),
            negated,
        }),
    ]
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    arb_leaf().prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 2..4).prop_map(Expr::And),
            proptest::collection::vec(inner.clone(), 2..4).prop_map(Expr::Or),
            inner.prop_map(|e| Expr::Not(Box::new(e))),
        ]
    })
}

fn arb_query() -> impl Strategy<Value = SelectQuery> {
    (
        "[a-z][a-z0-9_]{0,8}",
        proptest::option::of(arb_expr()),
        proptest::option::of(1usize..100),
        prop_oneof![
            Just(IndexHint::None),
            Just(IndexHint::IgnoreAll),
            proptest::collection::vec(
                "[a-z][a-z0-9_]{0,6}"
                    .prop_map(String::from)
                    .prop_filter("hint col not keyword", |s| !is_keyword(s)),
                1..3
            )
            .prop_map(IndexHint::Force),
        ],
        any::<bool>(),
    )
        .prop_filter("table not keyword", |(t, ..)| !is_keyword(t))
        .prop_map(|(table, predicate, limit, hint, agg)| {
            let select = if agg {
                vec![SelectItem::Aggregate {
                    func: AggFunc::Count,
                    column: None,
                    alias: Some("n".into()),
                }]
            } else {
                vec![SelectItem::Star]
            };
            SelectQuery {
                with: vec![],
                select,
                from: vec![TableRef {
                    source: TableSource::Named(table.clone()),
                    alias: table,
                    hint,
                }],
                predicate,
                group_by: vec![],
                limit,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parse_render_roundtrip(q in arb_query()) {
        let sql = render_query(&q);
        let reparsed = parse(&sql)
            .unwrap_or_else(|e| panic!("could not reparse {sql:?}: {e}"));
        prop_assert_eq!(reparsed, normalize_query(&q), "roundtrip mismatch for SQL: {}", sql);
    }

    #[test]
    fn rendered_expr_roundtrips(e in arb_expr()) {
        let sql = format!("SELECT * FROM t WHERE {}", sieve::minidb::sql::render_expr(&e));
        let reparsed = parse(&sql)
            .unwrap_or_else(|err| panic!("could not reparse {sql:?}: {err}"));
        prop_assert_eq!(
            reparsed.predicate.unwrap(),
            normalize(&e),
            "expr mismatch for SQL: {}",
            sql
        );
    }
}
