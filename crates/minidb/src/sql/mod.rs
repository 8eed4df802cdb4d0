//! A from-scratch SQL subset: lexer, recursive-descent parser, and
//! renderer.
//!
//! SIEVE is a middleware that *intercepts SQL text*, rewrites it, and hands
//! the rewritten SQL to the DBMS (paper Section 5). This module provides
//! that text surface without external parser crates. The subset covers
//! everything the paper's queries and rewrites use:
//!
//! * `WITH name AS (…)` clauses (one per protected relation, Section 5.3);
//! * `SELECT` lists with `*`, columns, `COUNT/SUM/MIN/MAX/AVG`
//!   (incl. `COUNT(DISTINCT …)`);
//! * comma joins and derived tables;
//! * `FORCE INDEX (…)` / `USE INDEX ()` hints (Section 5.5);
//! * `WHERE` with `AND`/`OR`/`NOT`, comparisons, `BETWEEN`, `IN` lists,
//!   `IS NULL`, UDF calls (the ∆ operator), and correlated scalar
//!   subqueries (nested policies, Section 3.1);
//! * `GROUP BY` and `LIMIT`.
//!
//! Quoted literals shaped like `'HH:MM[:SS]'` or `'YYYY-MM-DD'` are lexed
//! as `TIME`/`DATE` values, matching how the generators store
//! `ts_time`/`ts_date` columns.

mod lexer;
mod parser;
mod render;

pub use lexer::{tokenize, Token};
pub use parser::parse;
pub use render::{render_expr, render_query};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::plan::{IndexHint, SelectItem};
    use crate::value::Value;

    #[test]
    fn parse_render_roundtrip_simple() {
        let sql = "SELECT * FROM wifi_dataset AS w WHERE w.owner = 7 AND w.wifi_ap IN (1, 2)";
        let q = parse(sql).unwrap();
        let rendered = render_query(&q);
        let q2 = parse(&rendered).unwrap();
        assert_eq!(q, q2);
    }

    #[test]
    fn parse_paper_query_q1() {
        // Q1 from the paper's experimental section (Section 7.1).
        let sql = "SELECT * FROM wifi_dataset AS w \
                   WHERE w.wifi_ap IN (1200, 1201) \
                   AND w.ts_time BETWEEN '09:00' AND '10:00' \
                   AND w.ts_date BETWEEN '2019-09-25' AND '2019-12-12'";
        let q = parse(sql).unwrap();
        let pred = q.predicate.unwrap();
        assert_eq!(pred.conjuncts().len(), 3);
        // Times/dates lexed as typed values.
        match pred.conjuncts()[1] {
            Expr::Between { low, .. } => {
                assert_eq!(**low, Expr::Literal(Value::Time(9 * 3600)));
            }
            other => panic!("expected BETWEEN, got {other:?}"),
        }
    }

    #[test]
    fn parse_with_force_index_and_udf() {
        let sql = "WITH wifi_pol AS (\
                     SELECT * FROM wifi_dataset FORCE INDEX (owner, wifi_ap) \
                     WHERE (owner = 3 AND delta(12, 'Prof. Smith', 'Analytics', owner) = TRUE) \
                        OR (wifi_ap = 1200)) \
                   SELECT COUNT(*) AS n FROM wifi_pol";
        let q = parse(sql).unwrap();
        assert_eq!(q.with.len(), 1);
        assert_eq!(
            q.with[0].query.from[0].hint,
            IndexHint::Force(vec!["owner".into(), "wifi_ap".into()])
        );
        assert!(matches!(
            q.select[0],
            SelectItem::Aggregate { alias: Some(ref a), .. } if a == "n"
        ));
        let roundtrip = parse(&render_query(&q)).unwrap();
        assert_eq!(q, roundtrip);
    }
}
