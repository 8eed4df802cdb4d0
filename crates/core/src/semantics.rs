//! Reference access-control semantics: the correctness oracle.
//!
//! Implements `eval(E(P), t)` of Section 3.1 *directly* on tuples —
//! independently of the engine's expression machinery — so every
//! enforcement strategy (SIEVE and the three baselines) can be checked
//! against it. A tuple is visible iff **some** relevant allow policy's
//! object conditions all hold (default deny / opt-out).

use crate::backend::SqlBackend;
use crate::policy::{CondPredicate, ObjectCondition, Policy};
use minidb::schema::TableSchema;
use minidb::value::Value;
use minidb::{Database, RangeBound, Row};

/// Result of evaluating one tuple against a policy list, carrying the
/// number of policies inspected (used to measure the paper's α).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalOutcome {
    /// Whether some policy allowed the tuple.
    pub allowed: bool,
    /// Policies checked before the decision (α's numerator).
    pub policies_checked: usize,
}

/// Evaluate one object condition against a tuple (schema-resolved).
/// Derived (subquery) conditions need an engine to evaluate — reached
/// through the backend's in-process escape hatch
/// ([`SqlBackend::minidb`]); without one they are conservatively false.
pub fn eval_condition(
    oc: &ObjectCondition,
    schema: &TableSchema,
    row: &Row,
    db: Option<&dyn SqlBackend>,
) -> bool {
    let Some(idx) = schema.column_index(&oc.attr) else {
        // A condition on a column the tuple does not have cannot hold
        // ("tt.attr = oc.attr ⟹ eval(...)": conditions on absent
        // attributes are vacuous per §3.1 — but a policy written against
        // this relation always names its columns, so treat as false to be
        // safe rather than leak).
        return false;
    };
    let v = &row[idx];
    if v.is_null() {
        return false;
    }
    match &oc.pred {
        CondPredicate::Eq(x) => v == x,
        CondPredicate::Ne(x) => v != x,
        CondPredicate::In(xs) => xs.contains(v),
        CondPredicate::NotIn(xs) => !xs.contains(v),
        CondPredicate::Range { low, high } => RangeBound::contains(low, high, v),
        CondPredicate::Derived(q) => match db.and_then(|b| b.minidb()) {
            Some(db) => eval_derived(v, q, schema, row, db),
            None => false,
        },
    }
}

/// Evaluate a derived-value condition: run the subquery with the outer
/// row's values substituted for correlated references (`column` or
/// `__outer.column`, the tuple being the only relation in scope), and
/// compare the first value of the first result row to the tuple's value.
/// A subquery that does not run is a condition that does not hold.
fn eval_derived(
    v: &Value,
    q: &minidb::SelectQuery,
    schema: &TableSchema,
    row: &Row,
    db: &Database,
) -> bool {
    let outer = schema.columns.iter().zip(row);
    let params = outer
        .flat_map(|(c, x)| [(c.name.clone(), x.clone()), (format!("__outer.{}", c.name), x.clone())])
        .collect();
    let Ok(res) = db.run_query(&substitute_params(q, &params)) else {
        return false;
    };
    let first = res.rows.into_iter().next().and_then(|r| r.into_iter().next());
    first.is_some_and(|x| minidb::CmpOp::Eq.apply(v, &x))
}

/// Replace column references that match parameter names with literals.
fn substitute_params(
    q: &minidb::SelectQuery,
    params: &std::collections::HashMap<String, Value>,
) -> minidb::SelectQuery {
    use minidb::Expr as E;
    let mut out = q.clone();
    if let Some(p) = &out.predicate {
        out.predicate = Some(p.map(&mut |e| match e {
            E::Column(c) => params.get(&c.to_string()).map(|v| E::Literal(v.clone())),
            E::ScalarSubquery(inner) => {
                Some(E::ScalarSubquery(Box::new(substitute_params(inner, params))))
            }
            _ => None,
        }));
    }
    out
}

/// Evaluate a tuple against a policy: all object conditions (including the
/// implied owner condition) must hold.
pub fn policy_allows(
    p: &Policy,
    schema: &TableSchema,
    row: &Row,
    db: Option<&dyn SqlBackend>,
) -> bool {
    p.object_conditions()
        .iter()
        .all(|oc| eval_condition(oc, schema, row, db))
}

/// Evaluate a tuple against a (relevance-filtered) policy list with
/// short-circuit, counting the checks (the measured α of Section 4).
pub fn eval_policies(
    policies: &[&Policy],
    schema: &TableSchema,
    row: &Row,
    db: Option<&dyn SqlBackend>,
) -> EvalOutcome {
    for (i, p) in policies.iter().enumerate() {
        if policy_allows(p, schema, row, db) {
            return EvalOutcome {
                allowed: true,
                policies_checked: i + 1,
            };
        }
    }
    EvalOutcome {
        allowed: false,
        policies_checked: policies.len(),
    }
}

/// The oracle: all rows of `table` visible under `policies`, by direct
/// evaluation (no indexes, no guards, no rewriting). Works against any
/// backend exposing the catalog (a `&Database` coerces).
pub fn visible_rows(
    db: &dyn SqlBackend,
    table: &str,
    policies: &[&Policy],
) -> crate::error::SieveResult<Vec<Row>> {
    let entry = db.table_entry(table)?;
    let schema = entry.schema();
    Ok(entry
        .table
        .rows()
        .iter()
        .filter(|row| eval_policies(policies, schema, row, Some(db)).allowed)
        .cloned()
        .collect())
}

/// Measure α — the average fraction of the policy list checked per tuple
/// before a decision — over a sample of rows (Section 5.4 obtains it
/// "by executing a query which counts the number of policy checks").
pub fn measure_alpha(
    policies: &[&Policy],
    schema: &TableSchema,
    rows: &[Row],
    db: Option<&dyn SqlBackend>,
) -> f64 {
    if policies.is_empty() || rows.is_empty() {
        return 1.0;
    }
    let total: usize = rows
        .iter()
        .map(|r| eval_policies(policies, schema, r, db).policies_checked)
        .sum();
    total as f64 / (rows.len() as f64 * policies.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{ObjectCondition, QuerierSpec};
    use minidb::value::DataType;

    fn schema() -> TableSchema {
        TableSchema::of(
            "wifi_dataset",
            &[
                ("id", DataType::Int),
                ("owner", DataType::Int),
                ("wifi_ap", DataType::Int),
                ("ts_time", DataType::Time),
            ],
        )
    }

    fn row(owner: i64, ap: i64, t: u32) -> Row {
        vec![
            Value::Int(0),
            Value::Int(owner),
            Value::Int(ap),
            Value::Time(t),
        ]
    }

    fn sample_policy(owner: i64) -> Policy {
        Policy::new(
            owner,
            "wifi_dataset",
            QuerierSpec::User(1),
            "Any",
            vec![
                ObjectCondition::new("wifi_ap", CondPredicate::Eq(Value::Int(1200))),
                ObjectCondition::new(
                    "ts_time",
                    CondPredicate::between(Value::Time(9 * 3600), Value::Time(10 * 3600)),
                ),
            ],
        )
    }

    #[test]
    fn policy_allows_matching_tuple() {
        let p = sample_policy(7);
        let s = schema();
        assert!(policy_allows(&p, &s, &row(7, 1200, 9 * 3600 + 60), None));
        // Wrong owner.
        assert!(!policy_allows(&p, &s, &row(8, 1200, 9 * 3600 + 60), None));
        // Wrong AP.
        assert!(!policy_allows(&p, &s, &row(7, 1300, 9 * 3600 + 60), None));
        // Outside time window.
        assert!(!policy_allows(&p, &s, &row(7, 1200, 11 * 3600), None));
    }

    #[test]
    fn short_circuit_counts_checks() {
        let p1 = sample_policy(7);
        let p2 = sample_policy(8);
        let s = schema();
        let out = eval_policies(&[&p1, &p2], &s, &row(8, 1200, 9 * 3600 + 1), None);
        assert!(out.allowed);
        assert_eq!(out.policies_checked, 2);
        let out2 = eval_policies(&[&p2, &p1], &s, &row(8, 1200, 9 * 3600 + 1), None);
        assert_eq!(out2.policies_checked, 1);
        let out3 = eval_policies(&[&p1, &p2], &s, &row(999, 0, 0), None);
        assert!(!out3.allowed);
        assert_eq!(out3.policies_checked, 2);
    }

    #[test]
    fn default_deny_with_no_policies() {
        let s = schema();
        let out = eval_policies(&[], &s, &row(1, 1, 1), None);
        assert!(!out.allowed);
    }

    #[test]
    fn ne_and_notin_semantics() {
        let s = schema();
        let mut p = sample_policy(7);
        p.conditions = vec![ObjectCondition::new(
            "wifi_ap",
            CondPredicate::NotIn(vec![Value::Int(1), Value::Int(2)]),
        )];
        assert!(policy_allows(&p, &s, &row(7, 3, 0), None));
        assert!(!policy_allows(&p, &s, &row(7, 2, 0), None));
        p.conditions = vec![ObjectCondition::new(
            "wifi_ap",
            CondPredicate::Ne(Value::Int(5)),
        )];
        assert!(policy_allows(&p, &s, &row(7, 4, 0), None));
        assert!(!policy_allows(&p, &s, &row(7, 5, 0), None));
    }

    #[test]
    fn alpha_measures_fraction() {
        // Two policies; rows matching the first check 1 of 2 → α = 0.5;
        // rows matching none check 2 of 2 → α = 1.0.
        let p1 = sample_policy(7);
        let p2 = sample_policy(8);
        let s = schema();
        let matching = vec![row(7, 1200, 9 * 3600 + 1); 10];
        let a = measure_alpha(&[&p1, &p2], &s, &matching, None);
        assert!((a - 0.5).abs() < 1e-9);
        let failing = vec![row(999, 0, 0); 10];
        let a2 = measure_alpha(&[&p1, &p2], &s, &failing, None);
        assert!((a2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn null_owner_never_matches() {
        let s = schema();
        let p = sample_policy(7);
        let mut r = row(7, 1200, 9 * 3600 + 1);
        r[1] = Value::Null;
        assert!(!policy_allows(&p, &s, &r, None));
    }
}
