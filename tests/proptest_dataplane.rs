//! Property tests for the index-aware data plane: whatever the planner
//! picks for a guard-shaped predicate — exact index unions, bitmap ORs
//! with residual filters, sequential scans — or for a query-shaped
//! conjunction — one index, an intersection of several, a scan — the rows
//! that come back are identical to the full-scan oracle, and a
//! conjunction read through indexes never evaluates more predicates than
//! the scan. Coverage spans index availability (none / partial / full),
//! stale histograms, NULL index keys, NaN literals, both optimizer
//! profiles and both execution backends (in-process and wire-SQL).

use proptest::prelude::*;
use sieve::core::backend::{SqlBackend, WireSqlBackend};
use sieve::minidb::exec::ExecOptions;
use sieve::minidb::expr::{CmpOp, ColumnRef, Expr};
use sieve::minidb::plan::{IndexHint, TableRef};
use sieve::minidb::value::{DataType, Value};
use sieve::minidb::{Database, DbProfile, SelectQuery, TableSchema};

/// Which secondary indexes exist on the test table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Indexing {
    /// No indexes at all: every plan degrades to a scan.
    None,
    /// Only `a` is indexed: predicates on b/c force residual scans.
    Partial,
    /// a, b, and c all indexed (the guard-friendly layout).
    Full,
}

/// Build the table. Column `c` carries NULLs (every 13th row), so index
/// ranges with an unbounded low end include NULL keys — the case where
/// eliding the residual filter would be unsound.
fn build(rows: i64, profile: DbProfile, indexing: Indexing, stale_hist: bool) -> Database {
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
    let insert = |db: &mut Database, i: i64| {
        let c = if i % 13 == 0 {
            Value::Null
        } else {
            Value::Time(((i * 557) % 86_400) as u32)
        };
        db.insert("t", vec![Value::Int(i), Value::Int(i % 23), Value::Int(i % 7), c])
            .unwrap();
    };
    // Stale-histogram case: index + analyze at 60% of the data, then keep
    // inserting without re-analyzing. Estimates go stale; results must not.
    let analyze_at = if stale_hist { rows * 6 / 10 } else { rows };
    for i in 0..analyze_at {
        insert(&mut db, i);
    }
    let cols: &[&str] = match indexing {
        Indexing::None => &[],
        Indexing::Partial => &["a"],
        Indexing::Full => &["a", "b", "c"],
    };
    for col in cols {
        db.create_index("t", col).unwrap();
    }
    db.analyze("t").unwrap();
    for i in analyze_at..rows {
        insert(&mut db, i);
    }
    db
}

/// `NaN`, as a literal.
fn nan() -> Expr {
    Expr::Literal(Value::Double(f64::NAN))
}

/// Leaves on `a` holding a NaN literal — a point key, an IN-list member, a
/// range bound. `Value`'s order calls NaN equal to every number, so each
/// holds on rows a B-tree descent to the NaN key would not find.
fn arb_nan_leaf() -> impl Strategy<Value = Expr> {
    let a = || Box::new(Expr::Column(ColumnRef::bare("a")));
    prop_oneof![
        Just(Expr::Cmp { op: CmpOp::Eq, lhs: a(), rhs: Box::new(nan()) }),
        (0i64..23).prop_map(move |x| Expr::InList {
            expr: a(),
            list: vec![Expr::Literal(Value::Int(x)), nan()],
            negated: false,
        }),
        (0i64..23).prop_map(move |y| Expr::Between {
            expr: a(),
            low: Box::new(nan()),
            high: Box::new(Expr::Literal(Value::Int(y))),
            negated: false,
        }),
    ]
}

/// True iff `pred` holds a NaN literal, which has no SQL text.
fn has_nan(pred: &Expr) -> bool {
    let mut nan = false;
    pred.visit(&mut |e| nan |= matches!(e, Expr::Literal(Value::Double(d)) if d.is_nan()));
    nan
}

/// A guard-shaped predicate: a top-level OR whose disjuncts are small
/// conjunctions — exactly what `compile_guard_fragment` emits. Leaves
/// include NULL-sensitive shapes (`c <= lit` probes from the unbounded
/// low end; `a = NULL` probes a NULL key) to stress residual elision, and
/// NaN literals, which no probe may be derived from.
fn arb_guard_pred() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        arb_nan_leaf(),
        (0i64..23).prop_map(|v| Expr::col_eq(ColumnRef::bare("a"), Value::Int(v))),
        (0i64..7).prop_map(|v| Expr::col_eq(ColumnRef::bare("b"), Value::Int(v))),
        (0i64..23, 0i64..23).prop_map(|(x, y)| Expr::InList {
            expr: Box::new(Expr::Column(ColumnRef::bare("a"))),
            list: vec![Expr::Literal(Value::Int(x)), Expr::Literal(Value::Int(y))],
            negated: false,
        }),
        (0u32..20, 1u32..8).prop_map(|(s, l)| Expr::Between {
            expr: Box::new(Expr::Column(ColumnRef::bare("c"))),
            low: Box::new(Expr::Literal(Value::Time(s * 3600))),
            high: Box::new(Expr::Literal(Value::Time(((s + l) * 3600).min(86_399)))),
            negated: false,
        }),
        (1u32..24).prop_map(|h| Expr::col_cmp(
            ColumnRef::bare("c"),
            CmpOp::Le,
            Value::Time(h * 3600 - 1)
        )),
        Just(Expr::col_eq(ColumnRef::bare("a"), Value::Null)),
    ];
    proptest::collection::vec(
        proptest::collection::vec(leaf, 1..3).prop_map(Expr::all),
        1..5,
    )
    .prop_map(Expr::any)
}

/// A query-shaped predicate: a conjunction over two or three of the
/// indexed columns — an IN list or point on `a`, a point or IN list on
/// `b`, a range on `c` — returned with the columns it constrains. NULL
/// list members and point keys, and ranges on `c` open at the low end
/// (where the index keeps that column's NULLs), are the cases in which an
/// intersection that trusted its probes would return rows `WHERE` does
/// not; a NaN literal on `a` the case in which a probe would miss rows.
fn arb_conjunction() -> impl Strategy<Value = (Expr, Vec<&'static str>)> {
    let in_list = |col: &'static str, keys: Vec<Value>| Expr::InList {
        expr: Box::new(Expr::Column(ColumnRef::bare(col))),
        list: keys.into_iter().map(Expr::Literal).collect(),
        negated: false,
    };
    let on_a = prop_oneof![
        (0i64..23, 0i64..23, any::<bool>()).prop_map(move |(x, y, null)| {
            let mut keys = vec![Value::Int(x), Value::Int(y)];
            if null {
                keys.push(Value::Null);
            }
            in_list("a", keys)
        }),
        (0i64..23).prop_map(|v| Expr::col_eq(ColumnRef::bare("a"), Value::Int(v))),
        Just(Expr::col_eq(ColumnRef::bare("a"), Value::Null)),
        arb_nan_leaf(),
    ];
    let on_b = prop_oneof![
        (0i64..7).prop_map(|v| Expr::col_eq(ColumnRef::bare("b"), Value::Int(v))),
        (0i64..7, 0i64..7)
            .prop_map(move |(x, y)| in_list("b", vec![Value::Int(x), Value::Int(y)])),
    ];
    let on_c = prop_oneof![
        (0u32..20, 1u32..8).prop_map(|(s, l)| Expr::Between {
            expr: Box::new(Expr::Column(ColumnRef::bare("c"))),
            low: Box::new(Expr::Literal(Value::Time(s * 3600))),
            high: Box::new(Expr::Literal(Value::Time(((s + l) * 3600).min(86_399)))),
            negated: false,
        }),
        (1u32..24).prop_map(|h| Expr::col_cmp(
            ColumnRef::bare("c"),
            CmpOp::Le,
            Value::Time(h * 3600 - 1)
        )),
        (0u32..23).prop_map(|h| Expr::col_cmp(
            ColumnRef::bare("c"),
            CmpOp::Ge,
            Value::Time(h * 3600)
        )),
    ];
    (on_a, on_b, on_c, 0usize..4).prop_map(|(a, b, c, leave_out)| {
        let mut parts = vec![(a, "a"), (b, "b"), (c, "c")];
        if leave_out < 3 {
            parts.remove(leave_out);
        }
        let columns = parts.iter().map(|(_, col)| *col).collect();
        (Expr::all(parts.into_iter().map(|(e, _)| e).collect()), columns)
    })
}

/// `SELECT * FROM t` under `hint`.
fn hinted_query(pred: &Expr, hint: IndexHint) -> SelectQuery {
    SelectQuery {
        from: vec![TableRef::named("t").with_hint(hint)],
        ..SelectQuery::star_from("t")
    }
    .filter(pred.clone())
}

fn scan_query(pred: &Expr) -> SelectQuery {
    SelectQuery {
        from: vec![TableRef::named("t").with_hint(IndexHint::IgnoreAll)],
        ..SelectQuery::star_from("t")
    }
    .filter(pred.clone())
}

fn forced_query(pred: &Expr) -> SelectQuery {
    SelectQuery {
        from: vec![TableRef::named("t").with_hint(IndexHint::Force(vec![
            "a".into(),
            "b".into(),
            "c".into(),
        ]))],
        ..SelectQuery::star_from("t")
    }
    .filter(pred.clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Index unions and bitmap ORs are row-identical to the full-scan
    /// oracle across plans × index availability × histogram staleness, on
    /// both optimizer profiles.
    #[test]
    fn plans_agree_with_scan_oracle(
        pred in arb_guard_pred(),
        rows in 1_000i64..8_000,
        idx in prop_oneof![Just(Indexing::None), Just(Indexing::Partial), Just(Indexing::Full)],
        stale in any::<bool>(),
    ) {
        let db_m = build(rows, DbProfile::MySqlLike, idx, stale);
        let db_p = build(rows, DbProfile::PostgresLike, idx, stale);
        let scan = scan_query(&pred);
        let forced = forced_query(&pred);
        let free = SelectQuery::star_from("t").filter(pred);

        // Oracle: a sequential scan (hints honoured on M).
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

    /// A conjunction hinted with every subset of its columns, and
    /// unhinted, returns the scan oracle's rows on both profiles — through
    /// NULL keys, NaN literals, open-ended ranges and stale histograms —
    /// an intersection never fetches more than the best single index the
    /// hint names would have, and no index read evaluates more predicates
    /// than the scan: a fetched row is checked against what its probes
    /// left open, never against more.
    #[test]
    fn conjunctions_agree_with_scan_oracle_under_every_hint(
        (pred, columns) in arb_conjunction(),
        rows in 1_000i64..8_000,
        idx in prop_oneof![Just(Indexing::None), Just(Indexing::Partial), Just(Indexing::Full)],
        stale in any::<bool>(),
    ) {
        let db_m = build(rows, DbProfile::MySqlLike, idx, stale);
        let db_p = build(rows, DbProfile::PostgresLike, idx, stale);

        // Rows, tuples read and predicates evaluated of one run.
        let run = |db: &Database, q: &SelectQuery| {
            let (res, stats) = db.run_timed(q, &ExecOptions::default());
            let mut got = res.unwrap().rows;
            got.sort();
            (got, stats.counters.tuples_read, stats.counters.predicate_evals)
        };
        let (reference, _, scan_evals) = run(&db_m, &scan_query(&pred));
        let single: Vec<u64> = columns
            .iter()
            .map(|c| run(&db_m, &hinted_query(&pred, IndexHint::Force(vec![c.to_string()]))).1)
            .collect();
        let mut reads = Vec::new();
        for subset in 1usize..1 << columns.len() {
            let named = |i: &usize| subset & (1 << i) != 0;
            let hint = IndexHint::Force(
                (0..columns.len()).filter(named).map(|i| columns[i].to_string()).collect(),
            );
            let q = hinted_query(&pred, hint.clone());
            let (got, read, evals) = run(&db_m, &q);
            prop_assert_eq!(&got, &reference, "{:?} diverged (M)", &hint);
            let best_single = (0..columns.len()).filter(named).map(|i| single[i]).min().unwrap();
            prop_assert!(read <= best_single, "{:?} read {} > {}", &hint, read, best_single);
            reads.push((format!("{hint:?} (M)"), evals));
            // Hints are ignored there; the plan is the planner's own.
            let (got, _, evals) = run(&db_p, &q);
            prop_assert_eq!(&got, &reference, "{:?} diverged (P)", &hint);
            reads.push((format!("{hint:?} (P)"), evals));
        }
        let free = SelectQuery::star_from("t").filter(pred);
        for (db, label) in [(&db_m, "planner choice (M)"), (&db_p, "planner choice (P)")] {
            let (got, _, evals) = run(db, &free);
            prop_assert_eq!(&got, &reference, "{} diverged", label);
            reads.push((label.to_string(), evals));
        }
        for (label, evals) in reads {
            prop_assert!(evals <= scan_evals, "{} evaluated {} > the scan's {}", label, evals, scan_evals);
        }
    }

    /// The same equivalence holds through the `SqlBackend` seam: the
    /// in-process backend and the wire backend (render → wire → re-parse)
    /// return oracle-identical rows, one-shot and by prepared statement.
    /// A NaN literal has no SQL text: the wire backend ships the full text
    /// to `exec` and to `prepare` alike, and both refuse a predicate
    /// holding one rather than answer it.
    #[test]
    fn backends_agree_with_scan_oracle(
        pred in arb_guard_pred(),
        rows in 1_000i64..8_000,
    ) {
        let db = build(rows, DbProfile::MySqlLike, Indexing::Full, false);
        let scan = scan_query(&pred);
        let forced = forced_query(&pred);
        let mut reference = db.run_query(&scan).unwrap().rows;
        reference.sort();

        let opts = ExecOptions::default();
        let backends: [(&'static str, Box<dyn SqlBackend>); 2] = [
            ("minidb", Box::new(db.clone())),
            ("wire-sql", Box::new(WireSqlBackend::new(db.clone()))),
        ];
        for q in [&scan, &forced] {
            for (name, backend) in &backends {
                if *name == "wire-sql" && has_nan(&pred) {
                    let refused = backend.exec_timed(q, &opts).0.is_err();
                    prop_assert!(refused, "a NaN crossed the wire as text");
                    prop_assert!(backend.prepare(q).is_err(), "a NaN was prepared across the wire");
                    continue;
                }
                let mut got = backend.exec_timed(q, &opts).0.unwrap().rows;
                got.sort();
                prop_assert_eq!(&got, &reference, "backend {} diverged", name);
                let id = backend.prepare(q).unwrap();
                let mut pinned = backend.execute_prepared(id, &opts).unwrap().rows;
                backend.close_prepared(id);
                pinned.sort();
                prop_assert_eq!(&pinned, &reference, "backend {} diverged when prepared", name);
            }
        }
    }
}
