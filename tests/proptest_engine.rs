//! Property tests over the engine substrate: whatever access path the
//! planner picks (forced unions, bitmap ORs, sequential scans), the rows
//! that come back are identical; a filter program that dispatches a wide
//! disjunction by key selects what the plain disjunction selects; what
//! EXPLAIN reports is what the counters of a run show, whether the plan is
//! run once or kept; a kept plan never answers for a database that has
//! changed under it; a predicate held once and spliced (`Expr::Shared`) is
//! its source to everything but the number of times it is bound — and
//! histogram estimates stay sane.

use proptest::prelude::*;
use sieve::minidb::expr::{
    bind, no_subqueries, BoundExpr, CmpOp, ColumnRef, EvalContext, Expr, FilterProgram, Layout,
};
use sieve::minidb::plan::{IndexHint, TableRef, TableSource};
use sieve::minidb::sql::{parse, render_query};
use sieve::minidb::table::ROWS_PER_PAGE;
use sieve::minidb::value::{DataType, Value};
use sieve::minidb::{
    AccessPlan, Database, DbError, DbProfile, ExecOptions, ExplainOutput, RangeBound, RelationPlan,
    Row, SelectQuery, TableSchema, Tally, UdfContext, UdfRegistry,
};
use std::collections::HashMap;
use std::sync::Arc;

fn build(rows: i64, profile: DbProfile) -> Database {
    let mut db = Database::new(profile);
    db.create_table(TableSchema::of(
        "t",
        &[
            ("id", DataType::Int),
            ("a", DataType::Int),
            ("b", DataType::Int),
            ("c", DataType::Time),
        ],
    ))
    .unwrap();
    for i in 0..rows {
        db.insert(
            "t",
            vec![
                Value::Int(i),
                Value::Int(i % 23),
                Value::Int(i % 7),
                Value::Time(((i * 557) % 86_400) as u32),
            ],
        )
        .unwrap();
    }
    db.create_index("t", "a").unwrap();
    db.create_index("t", "b").unwrap();
    db.create_index("t", "c").unwrap();
    db.analyze("t").unwrap();
    db
}

/// A random predicate whose leaves are all sargable (so forced index
/// plans are possible) over columns a, b, c.
fn arb_pred() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0i64..23).prop_map(|v| Expr::col_eq(ColumnRef::bare("a"), Value::Int(v))),
        (0i64..7).prop_map(|v| Expr::col_eq(ColumnRef::bare("b"), Value::Int(v))),
        (0u32..20, 1u32..8).prop_map(|(s, l)| Expr::Between {
            expr: Box::new(Expr::Column(ColumnRef::bare("c"))),
            low: Box::new(Expr::Literal(Value::Time(s * 3600))),
            high: Box::new(Expr::Literal(Value::Time(((s + l) * 3600).min(86_399)))),
            negated: false,
        }),
        (0i64..23, 0i64..23).prop_map(|(x, y)| Expr::InList {
            expr: Box::new(Expr::Column(ColumnRef::bare("a"))),
            list: vec![Expr::Literal(Value::Int(x)), Expr::Literal(Value::Int(y))],
            negated: false,
        }),
    ];
    leaf.prop_recursive(2, 12, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 2..4).prop_map(Expr::Or),
            proptest::collection::vec(inner, 2..3).prop_map(Expr::And),
        ]
    })
}

/// Numbers around 2⁵³, where an `Int`'s `f64` image stops being exact:
/// `Double(2⁵³)` equals `Int(2⁵³)` and not `Int(2⁵³ + 1)`, whose image it
/// is. (`2⁵³ + 2` is the first double above 2⁵³.)
const AROUND_2_53: [Value; 6] = [
    Value::Int((1 << 53) - 1),
    Value::Int(1 << 53),
    Value::Int((1 << 53) + 1),
    Value::Double(((1i64 << 53) - 1) as f64),
    Value::Double((1i64 << 53) as f64),
    Value::Double(((1i64 << 53) + 2) as f64),
];

/// A key of column `k`, as a literal or a row value: small integers and
/// halves, so that `Int(1)` meets `Double(1.0)` and `Double(1.5)` meets
/// nothing integral; `-0.0`, which equals `Int(0)`; NaN, which equals only
/// NaN; and the numbers around 2⁵³, whose images are inexact.
fn arb_key() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0i64..6).prop_map(Value::Int),
        (0i64..12).prop_map(|h| Value::Double(h as f64 / 2.0)),
        Just(Value::Double(-0.0)),
        Just(Value::Double(f64::NAN)),
        (0..AROUND_2_53.len()).prop_map(|i| AROUND_2_53[i].clone()),
    ]
}

/// What follows a branch's head: a condition on `x` or `y`.
fn arb_rest() -> impl Strategy<Value = Expr> {
    prop_oneof![
        (0i64..4, 0usize..4).prop_map(|(v, op)| Expr::col_cmp(
            ColumnRef::bare("x"),
            [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Ge][op],
            Value::Int(v)
        )),
        (0i64..4, 0i64..4).prop_map(|(a, b)| Expr::InList {
            expr: Box::new(Expr::Column(ColumnRef::bare("y"))),
            list: vec![Expr::Literal(Value::Int(a)), Expr::Literal(Value::Int(b))],
            negated: false,
        }),
        any::<bool>().prop_map(|negated| Expr::IsNull {
            expr: Box::new(Expr::Column(ColumnRef::bare("x"))),
            negated,
        }),
    ]
}

/// A branch headed by `k = key`, the shape dispatch keys on: written
/// either way round, with or without anything after the head, or followed
/// by a disjunction wide enough (keyed on `x`) to be dispatched itself.
fn arb_keyed_branch() -> impl Strategy<Value = Expr> {
    let k = || Box::new(Expr::Column(ColumnRef::bare("k")));
    prop_oneof![
        (arb_key(), arb_rest()).prop_map(|(key, rest)| Expr::And(vec![
            Expr::col_eq(ColumnRef::bare("k"), key),
            rest
        ])),
        (arb_key(), arb_rest()).prop_map(move |(key, rest)| Expr::And(vec![
            Expr::Cmp { op: CmpOp::Eq, lhs: Box::new(Expr::Literal(key)), rhs: k() },
            rest
        ])),
        arb_key().prop_map(|key| Expr::col_eq(ColumnRef::bare("k"), key)),
        (arb_key(), proptest::collection::vec((0i64..4, arb_rest()), 8..11)).prop_map(
            |(key, inner)| Expr::And(vec![
                Expr::col_eq(ColumnRef::bare("k"), key),
                Expr::Or(
                    inner
                        .into_iter()
                        .map(|(v, rest)| Expr::And(vec![
                            Expr::col_eq(ColumnRef::bare("x"), Value::Int(v)),
                            rest
                        ]))
                        .collect()
                ),
            ])
        ),
    ]
}

/// A branch dispatch has to leave in the linear tail: a NULL key (equal
/// to nothing), a head on another column, a range guard, an equality that
/// is not the head.
fn arb_tail_branch() -> impl Strategy<Value = Expr> {
    prop_oneof![
        arb_rest().prop_map(|rest| Expr::And(vec![
            Expr::col_eq(ColumnRef::bare("k"), Value::Null),
            rest
        ])),
        (0i64..4, arb_rest()).prop_map(|(v, rest)| Expr::And(vec![
            Expr::col_eq(ColumnRef::bare("x"), Value::Int(v)),
            rest
        ])),
        (0i64..4, 1i64..3).prop_map(|(lo, width)| Expr::Between {
            expr: Box::new(Expr::Column(ColumnRef::bare("k"))),
            low: Box::new(Expr::Literal(Value::Int(lo))),
            high: Box::new(Expr::Literal(Value::Int(lo + width))),
            negated: false,
        }),
        (arb_key(), arb_rest()).prop_map(|(key, rest)| Expr::And(vec![
            rest,
            Expr::col_eq(ColumnRef::bare("k"), key)
        ])),
    ]
}

/// Rows of `t(k, x, y)`: `k` and `x` are NULL now and then, and `k` is
/// NaN more often than a key drawn alone would be.
fn arb_rows() -> impl Strategy<Value = Vec<Row>> {
    let nullable = |v: BoxedStrategy<Value>| prop_oneof![Just(Value::Null), v.clone(), v.clone(), v];
    let k = prop_oneof![arb_key(), arb_key(), arb_key(), Just(Value::Double(f64::NAN))];
    proptest::collection::vec(
        (
            nullable(k.boxed()),
            nullable((0i64..4).prop_map(Value::Int).boxed()),
            (0i64..4).prop_map(Value::Int),
        )
            .prop_map(|(k, x, y)| vec![k, x, y]),
        30..60,
    )
}

/// For every row: what the filter program compiled from `pred` says, and
/// what `pred` bound but not compiled — the linear `Or`, evaluated branch
/// by branch — says, each with the predicate evaluations it recorded.
fn program_vs_linear(pred: &Expr, rows: &[Row]) -> (FilterProgram, Vec<(bool, u64, bool, u64)>) {
    let layout = Layout::single(
        "t",
        Arc::new(TableSchema::of(
            "t",
            &[("k", DataType::Int), ("x", DataType::Int), ("y", DataType::Int)],
        )),
    );
    let linear: BoundExpr = bind(pred, &layout, &Default::default(), &mut no_subqueries).unwrap();
    let program = FilterProgram::new(Some(linear.clone()));
    let (udfs, params) = (UdfRegistry::new(), HashMap::new());
    // Each verdict is counted by a tally of its own.
    let evaluated = |eval: &dyn Fn(&EvalContext<'_>) -> bool| {
        let tally = Tally::default();
        let ctx = EvalContext { tally: &tally, udfs: &udfs, runner: None, params: &params };
        let verdict = eval(&ctx);
        (verdict, tally.counters().predicate_evals)
    };
    let verdicts = rows
        .iter()
        .map(|row| {
            let (by_program, program_evals) = evaluated(&|ctx| program.matches(row, ctx).unwrap());
            let (by_linear, linear_evals) = evaluated(&|ctx| linear.eval_bool(row, ctx).unwrap());
            (by_program, program_evals, by_linear, linear_evals)
        })
        .collect();
    (program, verdicts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Keyed dispatch selects exactly the rows of the disjunction it was
    /// compiled from — duplicate keys, NULL and NaN row values, NULL and
    /// NaN literals, `Int`/`Double` keys that are equal, integers whose
    /// `f64` image is inexact, branches with no equality head and nested wide
    /// disjunctions included — wherever the disjunction stands in the
    /// predicate.
    #[test]
    fn dispatched_or_selects_what_the_linear_or_selects(
        keyed in proptest::collection::vec(arb_keyed_branch(), 4..20),
        tail in proptest::collection::vec(arb_tail_branch(), 0..6),
        shuffle in any::<u64>(),
        wrap in 0usize..3,
        cond in arb_rest(),
        rows in arb_rows(),
    ) {
        // Tail branches go in among the keyed ones, not after them.
        let mut branches = keyed;
        for (i, b) in tail.into_iter().enumerate() {
            let at = (shuffle >> (8 * i)) as usize % (branches.len() + 1);
            branches.insert(at, b);
        }
        let or = Expr::Or(branches);
        let pred = match wrap {
            0 => or,
            1 => Expr::Not(Box::new(or)),
            _ => Expr::And(vec![cond, or]),
        };
        for (i, (got, _, want, _)) in program_vs_linear(&pred, &rows).1.into_iter().enumerate() {
            prop_assert_eq!(got, want, "row {:?} under {:?}", &rows[i], &pred);
        }
    }

    /// An IN-list of literals compiled to a key table selects the rows of
    /// the list as written and charges what it charged — whatever the
    /// order of the list, with duplicate, NULL and `Int`/`Double`-equal
    /// literals, negated or not, on NULL row values; a list holding
    /// anything but literals is left as it was.
    #[test]
    fn in_list_key_table_selects_what_the_written_list_selects(
        keys in proptest::collection::vec(prop_oneof![Just(Value::Null), arb_key(), arb_key(), arb_key()], 1..12),
        negated in any::<bool>(),
        with_column in any::<bool>(),
        wrap in 0usize..3,
        cond in arb_rest(),
        rows in arb_rows(),
    ) {
        let mut list: Vec<Expr> = keys.into_iter().map(Expr::Literal).collect();
        if with_column {
            list.push(Expr::Column(ColumnRef::bare("x")));
        }
        let in_list = Expr::InList { expr: Box::new(Expr::Column(ColumnRef::bare("k"))), list, negated };
        let pred = match wrap {
            0 => in_list,
            1 => Expr::Not(Box::new(in_list)),
            _ => Expr::Or(vec![cond, in_list]),
        };
        let (program, verdicts) = program_vs_linear(&pred, &rows);
        if wrap == 0 {
            let FilterProgram::Eval(compiled) = &program else { panic!("{program:?}") };
            prop_assert_eq!(matches!(compiled, BoundExpr::InSet { .. }), !with_column, "{:?}", compiled);
        }
        for (i, (got, evals, want, linear_evals)) in verdicts.into_iter().enumerate() {
            prop_assert_eq!(got, want, "row {:?} under {:?}", &rows[i], &pred);
            prop_assert_eq!(evals, linear_evals, "row {:?} under {:?}", &rows[i], &pred);
        }
    }

    /// When every branch is keyed, dispatch never costs a row more
    /// predicate evaluations than the linear pass: one for the key table
    /// in place of at least one head, then the same arms in the same
    /// order.
    #[test]
    fn dispatch_of_an_all_keyed_or_never_evaluates_more(
        keyed in proptest::collection::vec(arb_keyed_branch(), 8..30),
        rows in arb_rows(),
    ) {
        let (program, verdicts) = program_vs_linear(&Expr::Or(keyed), &rows);
        prop_assert!(matches!(program, FilterProgram::Eval(BoundExpr::KeyedOr { .. })));
        for (i, (got, evals, want, linear_evals)) in verdicts.into_iter().enumerate() {
            prop_assert_eq!(got, want, "row {:?}", &rows[i]);
            prop_assert!(evals <= linear_evals, "row {:?}: {} > {}", &rows[i], evals, linear_evals);
        }
    }

    /// A branch of a dispatched disjunction that is shared, or whose head
    /// is, is keyed like a bare one: the same verdict for the same charge.
    #[test]
    fn shared_branches_dispatch_like_bare_ones(
        keyed in proptest::collection::vec(arb_keyed_branch(), 8..20),
        mask in any::<u64>(),
        rows in arb_rows(),
    ) {
        let wrapped = keyed
            .iter()
            .enumerate()
            .map(|(i, branch)| match ((mask >> (2 * i)) & 3, branch) {
                (1, _) => Expr::shared(branch.clone()),
                (2, Expr::And(parts)) => {
                    let mut parts = parts.clone();
                    parts[0] = Expr::shared(parts[0].clone());
                    Expr::And(parts)
                }
                _ => branch.clone(),
            })
            .collect();
        let (_, bare) = program_vs_linear(&Expr::Or(keyed), &rows);
        let (program, shared) = program_vs_linear(&Expr::Or(wrapped), &rows);
        prop_assert!(matches!(program, FilterProgram::Eval(BoundExpr::KeyedOr { .. })));
        for (i, (bare, shared)) in bare.into_iter().zip(shared).enumerate() {
            prop_assert_eq!((shared.0, shared.1), (bare.0, bare.1), "row {:?}", &rows[i]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_access_paths_agree(pred in arb_pred(), rows in 500i64..2500) {
        // Reference: IgnoreAll hint forces a sequential scan on MySqlLike.
        let db_m = build(rows, DbProfile::MySqlLike);
        let db_p = build(rows, DbProfile::PostgresLike);
        let scan = SelectQuery {
            from: vec![TableRef::named("t").with_hint(IndexHint::IgnoreAll)],
            ..SelectQuery::star_from("t")
        }
        .filter(pred.clone());
        let forced = SelectQuery {
            from: vec![TableRef::named("t").with_hint(IndexHint::Force(vec![
                "a".into(),
                "b".into(),
                "c".into(),
            ]))],
            ..SelectQuery::star_from("t")
        }
        .filter(pred.clone());
        let free = SelectQuery::star_from("t").filter(pred);

        let mut reference = db_m.run_query(&scan).unwrap().rows;
        reference.sort();
        for (db, q, label) in [
            (&db_m, &forced, "forced union (M)"),
            (&db_m, &free, "planner choice (M)"),
            (&db_p, &free, "planner choice (P)"),
            (&db_p, &scan, "hints ignored (P)"),
        ] {
            let mut got = db.run_query(q).unwrap().rows;
            got.sort();
            prop_assert_eq!(&got, &reference, "{} diverged", label);
        }
    }

    #[test]
    fn histogram_estimates_bounded_and_monotone(
        rows in 200i64..3000,
        point in 0i64..23,
        lo in 0u32..12,
        width in 1u32..12,
    ) {
        let db = build(rows, DbProfile::MySqlLike);
        let entry = db.table("t").unwrap();
        let h = entry.histogram("a").unwrap();
        // Equality estimates are bounded by the total.
        let est = h.estimate_eq(&Value::Int(point));
        prop_assert!(est >= 0.0 && est <= rows as f64);
        // Range estimates grow with the range.
        let hc = entry.histogram("c").unwrap();
        let narrow = hc.estimate_range(
            &RangeBound::Inclusive(Value::Time(lo * 3600)),
            &RangeBound::Inclusive(Value::Time((lo + width) * 3600)),
        );
        let wide = hc.estimate_range(
            &RangeBound::Inclusive(Value::Time(lo * 3600)),
            &RangeBound::Inclusive(Value::Time(((lo + width) * 3600 + 7200).min(86_399))),
        );
        prop_assert!(wide + 1e-9 >= narrow, "wide {wide} < narrow {narrow}");
        prop_assert!(wide <= rows as f64 + 1e-9);
    }

    #[test]
    fn explain_estimates_track_actual_cardinality(v in 0i64..23) {
        // For an equality on a uniformly distributed column the planner's
        // estimate must be within a small factor of the true count.
        let db = build(2300, DbProfile::MySqlLike);
        let pred = Expr::col_cmp(ColumnRef::bare("a"), CmpOp::Eq, Value::Int(v));
        let q = SelectQuery::star_from("t").filter(pred);
        let explain = db.explain(&q).unwrap();
        let est = explain.relations[0].est_rows;
        let actual = db.run_query(&q).unwrap().len() as f64;
        prop_assert!(actual > 0.0);
        let ratio = (est / actual).max(actual / est);
        prop_assert!(ratio < 4.0, "estimate {est} vs actual {actual}");
    }
}

/// `build`'s `t` plus a join partner `u(k, ua)`: 40 rows, `ua` in the
/// range of `t.a` and indexed.
fn build_pair(rows: i64, profile: DbProfile) -> Database {
    let mut db = build(rows, profile);
    db.create_table(TableSchema::of("u", &[("k", DataType::Int), ("ua", DataType::Int)])).unwrap();
    for i in 0..40i64 {
        db.insert("u", vec![Value::Int(i), Value::Int(i % 23)]).unwrap();
    }
    db.create_index("u", "ua").unwrap();
    db
}

/// `left = right` between two qualified columns.
fn cols_eq(left: (&str, &str), right: (&str, &str)) -> Expr {
    Expr::Cmp {
        op: CmpOp::Eq,
        lhs: Box::new(Expr::Column(ColumnRef::qualified(left.0, left.1))),
        rhs: Box::new(Expr::Column(ColumnRef::qualified(right.0, right.1))),
    }
}

/// Every relation an EXPLAIN reports, WITH bodies included.
fn reported(e: &ExplainOutput) -> Vec<&RelationPlan> {
    let mut all: Vec<&RelationPlan> = e.ctes.iter().flat_map(|(_, cte)| reported(cte)).collect();
    all.extend(&e.relations);
    all
}

/// `t` under `pred` — alone, joined with `u` on an indexed column and on
/// one that is not — or its WITH result `v` (`cte`) joined with `u` either
/// way round, or read twice; or, from `shape` 6 on, `cte` as a derived
/// table joined with `u`.
fn shaped_query(shape: usize, pred: Expr, cte: &SelectQuery) -> SelectQuery {
    let from = |tables: &[&str]| tables.iter().map(|t| TableRef::named(*t)).collect::<Vec<_>>();
    match shape {
        0 => SelectQuery::star_from("t").filter(pred),
        1 => SelectQuery::star_from("u")
            .from_tables(from(&["u", "t"]))
            .filter(Expr::and(cols_eq(("u", "ua"), ("t", "a")), pred)),
        2 => SelectQuery::star_from("u")
            .from_tables(from(&["u", "t"]))
            .filter(Expr::and(cols_eq(("t", "id"), ("u", "ua")), pred)),
        // Read once, `v` is the read of `t` it filters.
        3 => SelectQuery::star_from("v")
            .from_tables(from(&["v", "u"]))
            .with_clause("v", cte.clone())
            .filter(cols_eq(("v", "a"), ("u", "ua"))),
        4 => SelectQuery::star_from("v")
            .from_tables(from(&["u", "v"]))
            .with_clause("v", cte.clone())
            .filter(cols_eq(("u", "ua"), ("v", "a"))),
        // Read twice, it is materialized and scanned.
        5 => SelectQuery::star_from("v")
            .from_tables(vec![TableRef::aliased("v", "x"), TableRef::aliased("v", "y")])
            .with_clause("v", cte.clone())
            .filter(cols_eq(("x", "id"), ("y", "id"))),
        _ => {
            let source = TableSource::Derived(Box::new(cte.clone()));
            let derived = TableRef { source, alias: "v".into(), hint: IndexHint::None };
            SelectQuery::star_from("u")
                .from_tables(vec![TableRef::named("u"), derived])
                .filter(cols_eq(("u", "ua"), ("v", "a")))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// EXPLAIN and execution read one plan, so the report has to agree
    /// with what a run of the same query counts: index probes only where an
    /// index path or an index join is reported, sequential pages exactly
    /// those of the base relations reported as scanned plus the temps', and
    /// every temp reported as the sequential scan it is. And the plan
    /// kept is the plan run once: a run of the prepared query returns what
    /// a one-shot run does, and a second run of it the same again.
    /// Preparing and explaining charge nothing by construction — neither
    /// is a run, so neither has a tally — and that a second run of one plan
    /// charges what the first did is pinned in minidb's own tests, which
    /// see a prepared run's counters.
    #[test]
    fn explain_agrees_with_the_counters_of_a_run(
        pred in arb_pred(),
        rows in 500i64..5000,
        shape in 0usize..6,
        cte_filtered in any::<bool>(),
    ) {
        let cte = if cte_filtered {
            SelectQuery::star_from("t").filter(pred.clone())
        } else {
            SelectQuery::star_from("t")
        };
        let q = shaped_query(shape, pred, &cte);
        let opts = ExecOptions::default();
        for profile in [DbProfile::MySqlLike, DbProfile::PostgresLike] {
            let db = build_pair(rows, profile);
            let temp_rows = db.run_query(&cte).unwrap().len();
            let prepared = db.prepare_query(&q).unwrap();
            let explain = db.explain_prepared(&prepared).unwrap();
            let once = db.run_prepared(&prepared, &opts).unwrap();
            prop_assert_eq!(&db.run_prepared(&prepared, &opts).unwrap(), &once);
            let (fresh, stats) = db.run_timed(&q, &opts);
            prop_assert_eq!(&fresh.unwrap(), &once);
            let ran = stats.counters;
            let again = db.run_timed(&q, &opts).1.counters;
            prop_assert_eq!(again, ran, "{:?}: second one-shot run", profile);

            let mut index_reported = false;
            let mut scan_pages = 0;
            for r in reported(&explain) {
                let scanned = match &r.access {
                    AccessPlan::SeqScan => true,
                    AccessPlan::IndexOr { .. } | AccessPlan::IndexIntersect { .. } => false,
                };
                index_reported |= !scanned;
                if r.table == "v" {
                    scan_pages += temp_rows.div_ceil(ROWS_PER_PAGE) as u64;
                    prop_assert_eq!(r.access_desc.as_str(), "SeqScan(temp)", "{:?}", profile);
                } else if scanned {
                    scan_pages += db.table(&r.table).unwrap().table.page_count();
                }
            }
            prop_assert!(index_reported || ran.index_probes == 0, "{profile:?}:\n{explain}{ran:?}");
            prop_assert_eq!(ran.seq_pages_read, scan_pages, "{:?}:\n{}", profile, explain);
        }
    }

    /// EXPLAIN estimates every base-table read — scanned, probed, joined
    /// through an index, or a WITH body read once — and prints NaN only for
    /// a temp: a WITH result read twice, or a derived table.
    #[test]
    fn only_a_temp_is_explained_without_an_estimate(
        pred in arb_pred(),
        rows in 500i64..3000,
        shape in 0usize..7,
        cte_filtered in any::<bool>(),
    ) {
        let cte = if cte_filtered {
            SelectQuery::star_from("t").filter(pred.clone())
        } else {
            SelectQuery::star_from("t")
        };
        let q = shaped_query(shape, pred, &cte);
        for profile in [DbProfile::MySqlLike, DbProfile::PostgresLike] {
            let explain = build_pair(rows, profile).explain(&q).unwrap();
            for r in reported(&explain) {
                let temp = matches!(r.access_desc.as_str(), "SeqScan(temp)" | "SeqScan(derived)");
                prop_assert_eq!(r.est_rows.is_nan(), temp, "{:?}:\n{}", profile, explain);
                prop_assert!(temp || r.est_rows <= r.table_rows as f64, "{profile:?}:\n{explain}");
            }
        }
    }

    /// A WITH body read once is planned as its reader's read of the base
    /// table — under the body's hint, the body's filter first, the reader's
    /// conjuncts it already holds left out — and returns exactly what the
    /// same body returns written as a derived table, which stays
    /// materialized: read alone or joined, through the join key's index or
    /// hashed, with the reader repeating the body's conjuncts as a
    /// rewritten query does, on both profiles.
    #[test]
    fn a_with_body_read_once_returns_its_derived_tables_rows(
        body_pred in arb_pred(),
        own_pred in arb_pred(),
        hint in 0usize..3,
        shape in 0usize..3,
        filtered in any::<bool>(),
        repeat in any::<bool>(),
        rows in 500i64..3000,
    ) {
        let hint = match hint {
            0 => IndexHint::None,
            1 => IndexHint::Force(vec!["a".into(), "c".into()]),
            _ => IndexHint::IgnoreAll,
        };
        let mut body = SelectQuery::star_from("t").from_tables(vec![TableRef::named("t").with_hint(hint)]);
        let mut own = vec![qualified(&own_pred, "v")];
        if filtered {
            if repeat {
                own.extend(body_pred.conjuncts().into_iter().map(|c| qualified(c, "v")));
            }
            body = body.filter(body_pred);
        }
        let (from, join): (&[&str], _) = match shape {
            0 => (&["v"], None),
            // `v` joined through its index on `a`, and hashed on `b`.
            1 => (&["u", "v"], Some(cols_eq(("u", "ua"), ("v", "a")))),
            _ => (&["v", "u"], Some(cols_eq(("v", "b"), ("u", "k")))),
        };
        let reading = |v: TableRef| {
            let from = from.iter().map(|t| if *t == "v" { v.clone() } else { TableRef::named(*t) });
            SelectQuery::star_from("v")
                .from_tables(from.collect())
                .filter(Expr::all(own.iter().cloned().chain(join.clone()).collect()))
        };
        let merged = reading(TableRef::named("v")).with_clause("v", body.clone());
        let source = TableSource::Derived(Box::new(body));
        let derived = reading(TableRef { source, alias: "v".into(), hint: IndexHint::None });
        for profile in [DbProfile::MySqlLike, DbProfile::PostgresLike] {
            let db = build_pair(rows, profile);
            let explain = db.explain(&merged).unwrap();
            prop_assert!(explain.ctes.is_empty(), "{profile:?}:\n{explain}");
            prop_assert!(explain.relations.iter().any(|r| r.alias == "v" && r.table == "t"), "{explain}");
            let mut got = db.run_query(&merged).unwrap().rows;
            let mut want = db.run_query(&derived).unwrap().rows;
            got.sort();
            want.sort();
            prop_assert_eq!(got, want, "{:?}:\n{}", profile, explain);
        }
    }
}

/// `e` with every bare column qualified by `alias`.
fn qualified(e: &Expr, alias: &str) -> Expr {
    e.map(&mut |node| match node {
        Expr::Column(c) if c.table.is_none() => {
            Some(Expr::Column(ColumnRef::qualified(alias, c.column.clone())))
        }
        _ => None,
    })
}


/// `build_pair`'s tables plus `s`: the rows of `t` under a schema with the
/// columns the other way round.
fn build_mirrored(rows: i64, profile: DbProfile) -> Database {
    let mut db = build_pair(rows, profile);
    db.create_table(TableSchema::of(
        "s",
        &[("c", DataType::Time), ("b", DataType::Int), ("a", DataType::Int), ("id", DataType::Int)],
    ))
    .unwrap();
    let mirrored: Vec<Row> = db.run_query(&SelectQuery::star_from("t")).unwrap().rows;
    for mut row in mirrored {
        row.reverse();
        db.insert("s", row).unwrap();
    }
    db
}

/// A disjunction wide enough, and keyed on `a` often enough, to be
/// dispatched by key — the shape of a guard disjunction.
fn arb_keyed_or() -> impl Strategy<Value = Expr> {
    proptest::collection::vec((0i64..23, arb_pred()), 8..14).prop_map(|branches| {
        Expr::Or(
            branches
                .into_iter()
                .map(|(k, rest)| Expr::And(vec![Expr::col_eq(ColumnRef::bare("a"), Value::Int(k)), rest]))
                .collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A predicate wrapped in `Expr::Shared` is the bare predicate: the
    /// query around it renders byte for byte the same,
    /// and selects the same rows for the same charged counters — as the
    /// whole WHERE, as one conjunct, under `NOT`, as one disjunct, and
    /// when it is a disjunction dispatched by key. Planned again from the
    /// same node it binds nothing; planned against another alias or
    /// another schema under the same alias it is bound again, never
    /// answered from the first. (A conjunction among conjuncts is read as
    /// its own conjuncts, shared or not: nothing of the node is left to
    /// bind. What the access path's probes answer exactly is not checked,
    /// so a plan whose probes answer the node — as a local conjunct, or
    /// the whole predicate around it — binds it not at all, and the first
    /// plan that does bind it picks the layout it keeps.)
    #[test]
    fn shared_predicate_is_its_source(
        pred in prop_oneof![arb_pred(), arb_keyed_or()],
        cond in arb_pred(),
        place in 0usize..4,
        rows in 300i64..900,
    ) {
        let around = |inner: Expr| match place {
            0 => inner,
            1 => Expr::And(vec![cond.clone(), inner]),
            2 => Expr::Not(Box::new(inner)),
            _ => Expr::Or(vec![cond.clone(), inner]),
        };
        let node = Expr::shared(pred.clone());
        let shared = node.as_shared().unwrap();
        let opened = place <= 1 && matches!(pred, Expr::And(_));
        // The step whose layout the node keeps its bound form for.
        let mut kept = None;
        for profile in [DbProfile::MySqlLike, DbProfile::PostgresLike] {
            let db = build_mirrored(rows, profile);
            let counted = |q: &SelectQuery| {
                let (res, stats) = db.run_timed(q, &ExecOptions::default());
                (res.unwrap().rows, stats.counters)
            };
            // (table, alias): the node's first layout, then another alias,
            // then the first alias over another schema.
            for (step, (table, alias)) in [("t", "t"), ("t", "z"), ("s", "t")].into_iter().enumerate() {
                let from = |p: Expr| SelectQuery {
                    from: vec![TableRef::aliased(table, alias)],
                    ..SelectQuery::star_from(table)
                }
                .filter(p);
                let (bare_q, shared_q) = (from(around(pred.clone())), from(around(node.clone())));
                prop_assert_eq!(&shared_q, &bare_q);
                prop_assert_eq!(render_query(&shared_q), render_query(&bare_q));

                // The plan of the bare query says whether its probes answer
                // the node: with the whole predicate, or as the last local
                // conjunct.
                let access = db.explain(&bare_q).unwrap().relations[0].access.clone();
                let decided = access.recheck().is_some_and(|r| {
                    r.left.is_empty() || (place <= 1 && !r.left.contains(&(r.of - 1)))
                });
                // What one plan of the shared query binds of the node: once
                // to fill it, once under any layout but the kept one.
                let mut plan_binds = || match kept {
                    _ if opened || decided => 0,
                    None => {
                        kept = Some(step);
                        1
                    }
                    Some(k) => usize::from(k != step),
                };
                let before = shared.binds();
                let (want, want_counters) = counted(&bare_q);
                let (got, got_counters) = counted(&shared_q);
                prop_assert_eq!(&got, &want, "{:?} {} AS {}", profile, table, alias);
                prop_assert_eq!(got_counters, want_counters, "{:?} {} AS {}", profile, table, alias);
                let first = plan_binds();
                prop_assert_eq!(shared.binds() - before, first, "{:?} {} AS {}", profile, table, alias);
                let (again, again_counters) = counted(&shared_q);
                prop_assert_eq!(&again, &want);
                prop_assert_eq!(again_counters, want_counters);
                prop_assert_eq!(shared.binds() - before, first + plan_binds());
            }
        }
    }
}

/// A shared predicate that holds a scalar subquery is planned with the
/// query around it: bound per plan, never kept.
#[test]
fn shared_predicate_with_a_subquery_binds_per_plan() {
    let db = build_pair(600, DbProfile::MySqlLike);
    let bare_q =
        parse("SELECT * FROM t WHERE t.b < (SELECT COUNT(*) AS n FROM u WHERE u.ua = t.a) OR t.a < 3").unwrap();
    let node = Expr::shared(bare_q.predicate.clone().unwrap());
    let shared_q = SelectQuery::star_from("t").filter(node.clone());
    assert_eq!(render_query(&shared_q), render_query(&bare_q));
    let want = db.run_query(&bare_q).unwrap();
    assert!(!want.is_empty());
    for plans in 1..=3 {
        assert_eq!(db.run_query(&shared_q).unwrap(), want);
        assert_eq!(node.as_shared().unwrap().binds(), plans);
    }
}

/// What can happen to a database between two runs of a prepared query.
#[derive(Debug, Clone)]
enum Step {
    Insert(i64),
    CreateIndex(&'static str, &'static str),
    Analyze(&'static str),
    SetProfile(DbProfile),
    RegisterUdf,
    Run,
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0i64..10_000).prop_map(Step::Insert),
        prop_oneof![Just(("t", "id")), Just(("u", "k")), Just(("t", "a"))]
            .prop_map(|(t, c)| Step::CreateIndex(t, c)),
        prop_oneof![Just("t"), Just("u")].prop_map(Step::Analyze),
        prop_oneof![Just(DbProfile::MySqlLike), Just(DbProfile::PostgresLike)].prop_map(Step::SetProfile),
        Just(Step::RegisterUdf),
        Just(Step::Run),
        Just(Step::Run),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A prepared query kept across any interleaving of inserts, index
    /// builds, ANALYZE, profile switches and UDF registrations either runs
    /// — on the state it was planned on, returning `run_query`'s rows, row
    /// for row — or is refused as stale, and prepared again returns them:
    /// never the answer of an older state, never a panic on a catalog that
    /// moved under the plan.
    #[test]
    fn pinned_plan_equals_fresh_plan(
        pred in arb_pred(),
        joined in any::<bool>(),
        steps in proptest::collection::vec(arb_step(), 1..14),
    ) {
        let q = if joined {
            // Turns into an index nested loop once `t.id` is indexed.
            SelectQuery::star_from("u")
                .from_tables(vec![TableRef::named("u"), TableRef::named("t")])
                .filter(Expr::and(cols_eq(("t", "id"), ("u", "ua")), pred))
        } else {
            SelectQuery::star_from("t").filter(pred)
        };
        let opts = ExecOptions::default();
        let mut db = build_pair(600, DbProfile::MySqlLike);
        let mut prepared = db.prepare_query(&q).unwrap();
        let mut changed = false;
        for step in steps {
            match step {
                Step::Insert(i) => {
                    let row = vec![Value::Int(i), Value::Int(i % 23), Value::Int(i % 7), Value::Time(0)];
                    db.insert("t", row).unwrap();
                }
                Step::CreateIndex(table, column) => db.create_index(table, column).unwrap(),
                Step::Analyze(table) => db.analyze(table).unwrap(),
                Step::SetProfile(profile) => db.set_profile(profile),
                Step::RegisterUdf => db.register_udf(
                    "one",
                    Arc::new(|_: &[Value], _: &UdfContext<'_>| Ok(Value::Int(1))),
                ),
                Step::Run => {
                    let fresh = db.run_timed(&q, &opts).0.unwrap();
                    match db.run_prepared(&prepared, &opts) {
                        Ok(rows) => {
                            prop_assert!(!changed, "ran a plan of an older state");
                            prop_assert_eq!(&rows, &fresh);
                        }
                        Err(DbError::StalePlan) => {
                            prop_assert!(changed, "refused a plan of this very state");
                            prepared = db.prepare_query(&q).unwrap();
                        }
                        Err(e) => prop_assert!(false, "{e}"),
                    }
                    prop_assert_eq!(db.run_prepared(&prepared, &opts).unwrap(), fresh);
                    changed = false;
                    continue;
                }
            }
            changed = true;
        }
    }
}
