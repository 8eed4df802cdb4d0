//! Render fidelity of **rewritten** queries — the property the wire-SQL
//! backend stands on.
//!
//! `minidb::sql` already round-trips hand-written queries; with
//! `WireSqlBackend` in the tree, every guard-CTE-bearing rewrite the
//! middleware emits must ALSO survive `parse(render_query(..))` exactly,
//! or the wire backend silently executes a different query than the
//! in-process one. This suite drives the real rewriter over random
//! policy corpora (nested/merged guards, inline DNFs and ∆ calls, hint
//! lists from every access strategy) and random query shapes (nesting,
//! CTE shadowing, user CTEs that force collision-renamed guard names)
//! and asserts AST-exact round trips.

use proptest::prelude::*;
use sieve::core::cost::AccessStrategy;
use sieve::core::policy::{
    CondPredicate, ObjectCondition, Policy, QuerierSpec, QueryMetadata,
};
use sieve::core::rewrite::DeltaMode;
use sieve::core::{SieveOptions, SieveService};
use sieve::minidb::expr::{CmpOp, ColumnRef, Expr};
use sieve::minidb::plan::{IndexHint, SelectItem, TableRef, TableSource};
use sieve::minidb::value::DataType;
use sieve::minidb::{Database, DbProfile, SelectQuery, TableSchema, Value};

const REL: &str = "wifi_dataset";

fn loaded_db() -> Database {
    let mut db = Database::new(DbProfile::MySqlLike);
    db.create_table(TableSchema::of(
        REL,
        &[
            ("id", DataType::Int),
            ("owner", DataType::Int),
            ("wifi_ap", DataType::Int),
            ("ts_time", DataType::Time),
            ("signal", DataType::Double),
        ],
    ))
    .unwrap();
    for i in 0..600i64 {
        db.insert(
            REL,
            vec![
                Value::Int(i),
                Value::Int(i % 30),
                Value::Int(1000 + i % 8),
                Value::Time(((i * 131) % 86400) as u32),
                // Fractional and negative doubles: the literals that used
                // to lose their type (or their sign's meaning) in render.
                Value::Double((i % 97) as f64 * 0.25 - 12.0),
            ],
        )
        .unwrap();
    }
    for col in ["owner", "wifi_ap", "ts_time", "signal"] {
        db.create_index(REL, col).unwrap();
    }
    db.create_table(TableSchema::of(
        "boards",
        &[("k", DataType::Int), ("label", DataType::Int)],
    ))
    .unwrap();
    for k in 0..16i64 {
        db.insert("boards", vec![Value::Int(k), Value::Int(k % 3)]).unwrap();
    }
    db.analyze(REL).unwrap();
    db
}

/// One random policy: equality, IN-list, or time-range condition — the
/// shapes the guard compiler turns into DNF branches or ∆ partitions.
#[derive(Debug, Clone)]
enum CondShape {
    ApEq(i64),
    ApIn(Vec<i64>),
    TimeRange(u32, u32),
    /// `signal BETWEEN lo AND hi` with fractional, possibly negative
    /// double endpoints — the literal class whose render used to drop the
    /// decimal point on the wire.
    SignalRange(f64, f64),
    Unconditional,
}

fn arb_policy() -> impl Strategy<Value = (i64, CondShape)> {
    let shape = prop_oneof![
        (0i64..8).prop_map(|a| CondShape::ApEq(1000 + a)),
        proptest::collection::vec(0i64..8, 1..4)
            .prop_map(|aps| CondShape::ApIn(aps.into_iter().map(|a| 1000 + a).collect())),
        (0u32..12, 12u32..24).prop_map(|(lo, hi)| CondShape::TimeRange(lo * 3600, hi * 3600)),
        (0i64..48, 0i64..48).prop_map(|(a, b)| {
            let lo = a as f64 * 0.25 - 12.0;
            CondShape::SignalRange(lo, lo + b as f64 * 0.25)
        }),
        Just(CondShape::Unconditional),
    ];
    (0i64..30, shape)
}

fn to_policy(owner: i64, shape: &CondShape) -> Policy {
    let conds = match shape {
        CondShape::ApEq(ap) => vec![ObjectCondition::new(
            "wifi_ap",
            CondPredicate::Eq(Value::Int(*ap)),
        )],
        CondShape::ApIn(aps) => vec![ObjectCondition::new(
            "wifi_ap",
            CondPredicate::In(aps.iter().map(|a| Value::Int(*a)).collect()),
        )],
        CondShape::TimeRange(lo, hi) => vec![ObjectCondition::new(
            "ts_time",
            CondPredicate::between(Value::Time(*lo), Value::Time(*hi)),
        )],
        CondShape::SignalRange(lo, hi) => vec![ObjectCondition::new(
            "signal",
            CondPredicate::between(Value::Double(*lo), Value::Double(*hi)),
        )],
        CondShape::Unconditional => vec![],
    };
    Policy::new(owner, REL, QuerierSpec::User(500), "Analytics", conds)
}

/// Random query shape over the protected relation: optional predicate,
/// 0..3 nesting wraps (derived / fresh CTE / shadowing CTE), optional
/// scalar subquery, optional user CTE named like the default guard CTE
/// (forces the collision-renamer).
#[derive(Debug, Clone)]
struct Shape {
    ap_filter: bool,
    /// `signal >= -3.5`-style predicate: a negative double literal in the
    /// *query* (not just the policies).
    signal_filter: bool,
    wraps: Vec<u8>,
    scalar_pred: bool,
    collide_guard_name: bool,
    /// 0 = `SELECT *`; 1..=6 pick an aggregate select list (COUNT(*),
    /// COUNT(col), COUNT(DISTINCT col), SUM, MIN/MAX, AVG) — every
    /// aggregate render shape crosses the wire.
    agg: u8,
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    (
        any::<bool>(),
        any::<bool>(),
        proptest::collection::vec(0u8..3, 0..3),
        any::<bool>(),
        any::<bool>(),
        0u8..7,
    )
        .prop_map(
            |(ap_filter, signal_filter, wraps, scalar_pred, collide_guard_name, agg)| Shape {
                ap_filter,
                signal_filter,
                wraps,
                scalar_pred,
                collide_guard_name,
                agg,
            },
        )
}

fn build_query(s: &Shape) -> SelectQuery {
    let mut q = SelectQuery::star_from(REL);
    if s.ap_filter {
        q = q.filter(Expr::col_eq(
            ColumnRef::qualified(REL, "wifi_ap"),
            Value::Int(1001),
        ));
    }
    if s.signal_filter {
        q = q.and_filter(Expr::Cmp {
            op: CmpOp::Ge,
            lhs: Box::new(Expr::Column(ColumnRef::qualified(REL, "signal"))),
            rhs: Box::new(Expr::Literal(Value::Double(-3.5))),
        });
    }
    for (i, w) in s.wraps.iter().enumerate() {
        q = match w {
            0 => SelectQuery {
                with: vec![],
                select: vec![SelectItem::Star],
                from: vec![TableRef {
                    source: TableSource::Derived(Box::new(q)),
                    alias: format!("d{i}"),
                    hint: IndexHint::None,
                }],
                predicate: None,
                group_by: vec![],
                limit: None,
            },
            1 => SelectQuery::star_from(format!("v{i}")).with_clause(format!("v{i}"), q),
            _ => SelectQuery::star_from(REL).with_clause(REL, q),
        };
    }
    if s.scalar_pred {
        let count = SelectQuery {
            select: vec![SelectItem::Aggregate {
                func: sieve::minidb::plan::AggFunc::Count,
                column: None,
                alias: Some("n".into()),
            }],
            ..SelectQuery::star_from(REL)
        };
        q = q.and_filter(Expr::Cmp {
            op: CmpOp::Le,
            lhs: Box::new(Expr::Column(ColumnRef::bare("id"))),
            rhs: Box::new(Expr::ScalarSubquery(Box::new(count))),
        });
    }
    if s.collide_guard_name {
        // A user CTE squatting on the guard CTE's default name: the
        // rewriter must rename to `wifi_dataset_sieve2`, and THAT must
        // round-trip too.
        q = q.with_clause(format!("{REL}_sieve"), SelectQuery::star_from("boards"));
    }
    if s.agg > 0 {
        use sieve::minidb::plan::AggFunc;
        let (func, column) = match s.agg {
            1 => (AggFunc::Count, None),
            2 => (AggFunc::Count, Some(ColumnRef::bare("id"))),
            3 => (AggFunc::CountDistinct, Some(ColumnRef::bare("wifi_ap"))),
            4 => (AggFunc::Sum, Some(ColumnRef::bare("signal"))),
            5 => (AggFunc::Min, Some(ColumnRef::bare("signal"))),
            _ => (AggFunc::Avg, Some(ColumnRef::bare("signal"))),
        };
        q.select = vec![SelectItem::Aggregate {
            func,
            column,
            alias: Some("agg".into()),
        }];
    }
    q
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// parse(render(rewrite(q))) == rewrite(q), across random corpora,
    /// delta modes, and forced strategies (hint-list coverage: FORCE
    /// INDEX over guard attrs, FORCE INDEX over the query probe,
    /// USE INDEX () for linear scans).
    #[test]
    fn rewritten_queries_render_parse_roundtrip(
        policies in proptest::collection::vec(arb_policy(), 1..16),
        shape in arb_shape(),
        delta_mode in prop_oneof![
            Just(DeltaMode::Auto),
            Just(DeltaMode::Never),
            Just(DeltaMode::Always)
        ],
        forced in prop_oneof![
            Just(None),
            Just(Some(AccessStrategy::IndexGuards)),
            Just(Some(AccessStrategy::IndexQuery)),
            Just(Some(AccessStrategy::LinearScan))
        ],
    ) {
        let mut options = SieveOptions::default();
        options.rewrite.delta_mode = delta_mode;
        options.rewrite.forced_strategy = forced;
        let sieve = SieveService::new(loaded_db(), options).unwrap();
        for (owner, shape) in &policies {
            sieve.add_policy(to_policy(*owner, shape)).unwrap();
        }
        let q = build_query(&shape);
        let qm = QueryMetadata::new(500, "Analytics");
        let out = sieve.rewrite(&q, &qm).expect("rewrite");
        prop_assert!(
            !out.relations.is_empty(),
            "query must exercise at least one guard CTE"
        );
        let sql = sieve::minidb::sql::render_query(&out.query);
        let reparsed = sieve::minidb::sql::parse(&sql)
            .unwrap_or_else(|e| panic!("rendered rewrite failed to parse: {e}\nSQL: {sql}"));
        prop_assert_eq!(
            &reparsed, &out.query,
            "render/parse round trip diverged.\nSQL: {}", sql
        );
        // The reparsed AST must also *execute* identically — textual
        // equality of plans is what the wire backend's results stand on.
        let a = sieve.db().run_query(&out.query).expect("direct exec").rows;
        let b = sieve.db().run_query(&reparsed).expect("reparsed exec").rows;
        prop_assert_eq!(a, b);
    }
}
