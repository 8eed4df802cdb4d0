//! EXPLAIN: prepare → print.
//!
//! The paper's SIEVE "first runs the EXPLAIN of query Qi which returns a
//! high-level view of the query plan including, for each relation, the
//! particular access strategy (table scan or a specific index) the
//! optimizer plans to use and the estimated selectivity of the predicate"
//! (Section 5.5). That is the contract of [`ExplainOutput`], kept by
//! construction: `Database::explain_prepared` walks the plan value
//! `exec::run` runs — it decides nothing, reads no row and charges no
//! counter.

use crate::catalog::Database;
use crate::error::DbResult;
use crate::planner::{AccessPlan, IndexProbe, QueryPlan, Read, Recheck, TempSource};
pub use crate::planner::{ExplainOutput, RelationPlan};

/// Fill the public EXPLAIN shape from a plan.
pub(crate) fn print(db: &Database, plan: &QueryPlan) -> DbResult<ExplainOutput> {
    let mut out = ExplainOutput::default();
    for (name, cte) in &plan.ctes {
        out.ctes.push((name.clone(), print(db, cte)?));
    }
    for (k, input) in plan.inputs.iter().enumerate() {
        // Every base-table read has an estimate; a temp has none.
        let (table, table_rows, access, est_rows) = match &input.read {
            Read::Access { table, plan } => {
                let entry = db.table(table)?;
                (table.as_str(), entry.table.len(), plan.clone(), plan.estimate_rows(entry))
            }
            Read::Lookup { table, index } => {
                // The probe's keys are the outer rows' values; it decides
                // no conjunct, the local filter is checked whole. One probe
                // is estimated to fetch an average key's rows.
                let entry = db.table(table)?;
                let rows = entry.table.len();
                let per_key = rows as f64 / entry.indexes[*index].distinct_keys().max(1) as f64;
                let column = input.key_column().unwrap_or_default().to_string();
                let probes = vec![IndexProbe::InList { column, keys: Vec::new() }];
                let access = AccessPlan::IndexOr { probes, bitmap: false, recheck: Recheck::default() };
                (table.as_str(), rows, access, per_key)
            }
            Read::Temp(TempSource::Cte(name)) => (name.as_str(), 0, AccessPlan::SeqScan, f64::NAN),
            Read::Temp(TempSource::Derived(_)) => ("<derived>", 0, AccessPlan::SeqScan, f64::NAN),
        };
        out.relations.push(RelationPlan {
            alias: input.alias.clone(),
            table: table.to_string(),
            access,
            access_desc: input.describe(),
            est_rows,
            est_fraction: est_rows / table_rows.max(1) as f64,
            table_rows: table_rows as u64,
            join: (k > 0).then(|| input.describe_join()),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{ColumnRef, Expr};
    use crate::plan::{IndexHint, SelectQuery, TableRef};
    use crate::planner::DbProfile;
    use crate::schema::TableSchema;
    use crate::value::{DataType, Value};

    fn db() -> Database {
        let mut db = Database::new(DbProfile::MySqlLike);
        db.create_table(TableSchema::of(
            "w",
            &[("id", DataType::Int), ("owner", DataType::Int)],
        ))
        .unwrap();
        for i in 0..500i64 {
            db.insert("w", vec![Value::Int(i), Value::Int(i % 25)]).unwrap();
        }
        db.create_index("w", "owner").unwrap();
        db.analyze("w").unwrap();
        db
    }

    #[test]
    fn explain_reports_index_choice() {
        let db = db();
        let q = SelectQuery::star_from("w")
            .filter(Expr::col_eq(ColumnRef::bare("owner"), Value::Int(3)));
        let e = db.explain(&q).unwrap();
        assert_eq!(e.relations.len(), 1);
        assert!(e.relations[0].access_desc.starts_with("IndexScan"));
        assert!(e.relations[0].est_fraction < 0.1);
    }

    #[test]
    fn explain_reports_scan_when_hinted_off() {
        let db = db();
        let q = SelectQuery {
            from: vec![TableRef::named("w").with_hint(IndexHint::IgnoreAll)],
            ..SelectQuery::star_from("w")
        }
        .filter(Expr::col_eq(ColumnRef::bare("owner"), Value::Int(3)));
        let e = db.explain(&q).unwrap();
        assert_eq!(e.relations[0].access_desc, "SeqScan");
        assert_eq!(e.relations[0].est_rows, 500.0);
    }

    #[test]
    fn explain_renders_index_union() {
        let db = db();
        // Guard-shaped OR with a FORCE hint → exact index union.
        let pred = Expr::or(
            Expr::col_eq(ColumnRef::bare("owner"), Value::Int(1)),
            Expr::col_eq(ColumnRef::bare("owner"), Value::Int(2)),
        );
        let union_q = SelectQuery {
            from: vec![TableRef::named("w").with_hint(IndexHint::Force(vec!["owner".into()]))],
            ..SelectQuery::star_from("w")
        }
        .filter(pred);
        let e = db.explain(&union_q).unwrap();
        assert_eq!(
            e.relations[0].access_desc,
            "IndexUnion(col=owner, 2 probes, exact)"
        );
    }

    #[test]
    fn explain_includes_ctes() {
        let db = db();
        let inner = SelectQuery::star_from("w")
            .filter(Expr::col_eq(ColumnRef::bare("owner"), Value::Int(3)));
        // Read twice, the WITH result is materialized and scanned.
        let q = SelectQuery::star_from("pol")
            .from_tables(vec![TableRef::aliased("pol", "a"), TableRef::aliased("pol", "b")])
            .with_clause("pol", inner.clone())
            .filter(Expr::Cmp {
                op: crate::expr::CmpOp::Eq,
                lhs: Box::new(Expr::Column(ColumnRef::qualified("a", "id"))),
                rhs: Box::new(Expr::Column(ColumnRef::qualified("b", "id"))),
            });
        let e = db.explain(&q).unwrap();
        assert_eq!(e.ctes.len(), 1);
        assert_eq!(e.ctes[0].0, "pol");
        assert!(e.relations[0].access_desc.contains("temp"));
        let rendered = e.to_string();
        assert!(rendered.contains("CTE pol:"));
        // Read once, it is the read of `w` it filters.
        let e = db.explain(&SelectQuery::star_from("pol").with_clause("pol", inner)).unwrap();
        assert!(e.ctes.is_empty(), "{e}");
        assert_eq!(e.to_string(), "pol (w): IndexScan(owner, exact) est_rows=20.0 (4.00% of 500)\n");
    }

    /// A relation joined through its index is reported as what runs — an
    /// index nested loop on the join column, not a scan of the whole table
    /// — read straight from FROM or behind a WITH whose columns the join
    /// condition names unqualified; and EXPLAIN itself moves no counter.
    #[test]
    fn explain_reports_the_join_that_runs() {
        let mut db = db();
        db.create_table(TableSchema::of("g", &[("uid", DataType::Int), ("grp", DataType::Int)]))
            .unwrap();
        for u in 0..25i64 {
            db.insert("g", vec![Value::Int(u), Value::Int(u % 5)]).unwrap();
        }
        for sql in [
            "SELECT * FROM g, w WHERE w.owner = g.uid AND g.grp = 1",
            "WITH c AS (SELECT * FROM g WHERE grp = 1) SELECT * FROM c, w WHERE owner = uid",
        ] {
            let q = crate::sql::parse(sql).unwrap();
            db.stats().reset();
            let e = db.explain(&q).unwrap();
            assert_eq!(db.stats().snapshot(), Default::default(), "{sql}: EXPLAIN executed something");
            let w = &e.relations[1];
            assert_eq!(w.join.as_deref(), Some("IndexNestedLoop(owner)"), "{sql}:\n{e}");
            assert_eq!(w.access_desc, "IndexLookup(owner)", "{sql}");
            assert!(matches!(&w.access, AccessPlan::IndexOr { probes, .. } if probes[0].column() == "owner"));
            assert_eq!(e.relations[0].join, None);
            assert!(e.to_string().contains("w (w): IndexLookup(owner)"), "{e}");
            // And that is what runs: one probe per outer row, `w` never scanned.
            let res = db.run_query(&q).unwrap();
            assert_eq!(res.len(), 5 * 20);
            let ran = db.stats().snapshot();
            assert_eq!(ran.index_probes, 5, "{sql}");
            assert_eq!(ran.tuples_read, if e.ctes.is_empty() { 25 + 100 } else { 25 + 5 + 100 }, "{sql}");
        }
        // No index on the join column: the inner side is read whole and hashed.
        let q = crate::sql::parse("SELECT * FROM w, g WHERE w.owner = g.uid").unwrap();
        let e = db.explain(&q).unwrap();
        assert_eq!(e.relations[1].join.as_deref(), Some("HashJoin(uid)"));
        assert_eq!(e.relations[1].access_desc, "SeqScan");
    }
}
