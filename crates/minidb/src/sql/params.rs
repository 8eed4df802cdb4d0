//! Wire-protocol parameterization: lift literal values out of a query
//! into `?` placeholders, and bind values back into a template.
//!
//! This is the guard-SQL compaction half of the prepared-statement wire
//! protocol. A rewritten guard query differs across queriers almost
//! exclusively in its policy literals; once those are lifted, the
//! rendered template text is shared, so the wire backend parses each
//! template **once** and thereafter executes by statement id with bound
//! parameters.
//!
//! Ordinals are assigned in *render order* — the exact order
//! [`super::render_query`] writes expressions (WITH bodies first, then
//! FROM derived tables, then WHERE) and the parser re-reads them, so
//! `parse(render(parameterize(q).0))` preserves every `Expr::Param`
//! index.

use crate::error::{DbError, DbResult};
use crate::expr::Expr;
use crate::plan::{SelectQuery, TableSource, WithClause};
use crate::value::Value;

/// Replace every literal in `q` with a positional placeholder, returning
/// the template and the lifted values (index = placeholder ordinal).
///
/// Already-parameterized input keeps its placeholders only if it carries
/// no literals at all; mixing would shuffle ordinals, so re-parameterizing
/// a template is the caller's bug. In practice `parameterize` only ever
/// sees fully-literal plans.
pub fn parameterize(q: &SelectQuery) -> (SelectQuery, Vec<Value>) {
    let mut params = Vec::new();
    let template = map_query(q, &mut |e| match e {
        Expr::Literal(v) => {
            params.push(v.clone());
            Some(Expr::Param(params.len() - 1))
        }
        _ => None,
    });
    (template, params)
}

/// Substitute bound values back into a parameterized template. Errors if
/// the template references an ordinal past the end of `params`; extra
/// values are ignored (the template decides arity).
pub fn bind_params(q: &SelectQuery, params: &[Value]) -> DbResult<SelectQuery> {
    let mut unbound = None;
    let bound = map_query(q, &mut |e| match e {
        Expr::Param(i) => Some(match params.get(*i) {
            Some(v) => Expr::Literal(v.clone()),
            None => {
                unbound.get_or_insert(*i);
                e.clone()
            }
        }),
        _ => None,
    });
    match unbound {
        Some(i) => Err(DbError::Unsupported(format!(
            "placeholder ?{i} out of range: {} parameters bound",
            params.len()
        ))),
        None => Ok(bound),
    }
}

/// Rebuild `q`, offering `f` every expression node in render order (WITH
/// bodies, FROM derived tables, then WHERE) through [`Expr::map`], scalar
/// subqueries descended into.
fn map_query(q: &SelectQuery, f: &mut dyn FnMut(&Expr) -> Option<Expr>) -> SelectQuery {
    SelectQuery {
        with: q
            .with
            .iter()
            .map(|wc| WithClause {
                name: wc.name.clone(),
                query: map_query(&wc.query, f),
            })
            .collect(),
        select: q.select.clone(),
        from: q
            .from
            .iter()
            .map(|t| {
                let mut t = t.clone();
                if let TableSource::Derived(inner) = &t.source {
                    t.source = TableSource::Derived(Box::new(map_query(inner, f)));
                }
                t
            })
            .collect(),
        predicate: q.predicate.as_ref().map(|p| {
            p.map(&mut |e| match e {
                Expr::ScalarSubquery(sub) => {
                    Some(Expr::ScalarSubquery(Box::new(map_query(sub, f))))
                }
                _ => f(e),
            })
        }),
        group_by: q.group_by.clone(),
        limit: q.limit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ColumnRef;
    use crate::sql::{parse, render_query};

    fn sample() -> SelectQuery {
        parse(
            "WITH pol AS (SELECT * FROM w WHERE owner = 3 OR wifi_ap IN (1, 2)) \
             SELECT * FROM pol WHERE ts_time BETWEEN '09:00' AND '10:00' \
             AND k < (SELECT COUNT(*) AS n FROM b WHERE label = 5)",
        )
        .unwrap()
    }

    #[test]
    fn parameterize_lifts_every_literal() {
        let q = sample();
        let (template, params) = parameterize(&q);
        assert_eq!(params.len(), 6);
        let sql = render_query(&template);
        let holes = sql.matches('?').count();
        assert_eq!(holes, 6, "template must carry one hole per literal: {sql}");
        assert!(!sql.contains("= 3"), "literals must be gone: {sql}");
        assert!(!sql.contains("09:00"), "literals must be gone: {sql}");
    }

    #[test]
    fn bind_inverts_parameterize() {
        let q = sample();
        let (template, params) = parameterize(&q);
        let back = bind_params(&template, &params).unwrap();
        assert_eq!(back, q);
    }

    #[test]
    fn template_text_roundtrips_with_matching_ordinals() {
        // The wire protocol's load-bearing property: rendering the
        // template and re-parsing it yields the *same* template, hole
        // ordinals included, so binding on the far side of the wire uses
        // the same value order.
        let q = sample();
        let (template, params) = parameterize(&q);
        let sql = render_query(&template);
        let reparsed = parse(&sql).unwrap();
        assert_eq!(reparsed, template, "ordinals shifted through {sql}");
        let bound = bind_params(&reparsed, &params).unwrap();
        assert_eq!(bound, q);
    }

    #[test]
    fn bind_rejects_missing_params() {
        let e = Expr::col_eq(ColumnRef::bare("a"), Value::Int(1));
        let q = SelectQuery::star_from("t").filter(e);
        let (template, params) = parameterize(&q);
        assert_eq!(params.len(), 1);
        assert!(bind_params(&template, &[]).is_err());
    }

    #[test]
    fn templates_shared_across_literal_variants() {
        // Two queries differing only in literals produce byte-identical
        // template text — the interning key for the statement cache.
        let a = parse("SELECT * FROM t WHERE owner = 3 AND wifi_ap = 1001").unwrap();
        let b = parse("SELECT * FROM t WHERE owner = 44 AND wifi_ap = 1007").unwrap();
        let (ta, pa) = parameterize(&a);
        let (tb, pb) = parameterize(&b);
        assert_eq!(render_query(&ta), render_query(&tb));
        assert_ne!(pa, pb);
    }
}
