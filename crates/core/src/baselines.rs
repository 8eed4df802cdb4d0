//! The paper's baseline enforcement strategies (Section 7, Experiment 3).
//!
//! * **BaselineP** — policies appended to the `WHERE` clause as a DNF:
//!   `⟨query predicate⟩ AND (OC_1 OR … OR OC_n)`. The traditional
//!   policy-as-data rewrite; degrades as query cardinality grows.
//! * **BaselineI** — one forced index scan per policy, combined with
//!   `UNION` (a `WITH` clause whose branches are the policies, with a
//!   `FORCE INDEX` hint). Flat in query cardinality, but pays one probe
//!   per policy.
//! * **BaselineU** — like BaselineP but the policy expression is replaced
//!   by a UDF over all the querier's policies, invoked per tuple with all
//!   attributes. Cheap policy filtering, expensive invocations.
//!
//! All three produce exactly the oracle semantics; only cost differs.
//!
//! This module also owns how an experiment runs them: [`Enforcement`]
//! names a mechanism (SIEVE, a baseline, or no policies at all) and
//! [`SieveService::run_timed`] executes and times one query under it,
//! through [`SqlBackend::exec_timed`], reporting that run's own counters
//! and simulated cost. Nothing on the serving path (`service.rs`,
//! sessions, the wire server) names a baseline.

use crate::backend::SqlBackend;
use crate::delta::{delta_call_expr, DeltaRegistry, PartitionHandle};
use crate::error::{SieveError, SieveResult};
use crate::policy::{Policy, QueryMetadata};
use crate::rewrite::classify_protected_refs;
use crate::service::SieveService;
use minidb::error::DbError;
use minidb::expr::Expr;
use minidb::plan::{IndexHint, SelectQuery, TableRef, TableSource, WithClause};
use minidb::stats::ExecStats;
use minidb::{QueryResult, SelectItem};

/// Which baseline to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Baseline {
    /// Policies as WHERE-clause DNF.
    P,
    /// Index scan per policy + UNION.
    I,
    /// UDF holding all policies.
    U,
}

/// Which enforcement mechanism [`SieveService::run_timed`] runs a query
/// under (for experiments).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enforcement {
    /// Full SIEVE (guards + strategy selection + inline/∆).
    Sieve,
    /// One of the paper's baselines.
    Baseline(Baseline),
    /// No access control at all (measures raw query cost).
    NoPolicies,
}

// The experiment entry points live with the comparators they run, not in
// `service.rs`: nothing on the serving path names a baseline.
impl<B: SqlBackend> SieveService<B> {
    /// Execute and time a query under any enforcement mechanism; the
    /// experiment harness's single entry point. Safe to call from any
    /// thread: the returned statistics are the run's own, whatever else
    /// the service runs meanwhile. The ∆ partitions of the prepared query
    /// are pinned locally across the execution, so a concurrent
    /// invalidation cannot fail the run.
    pub fn run_timed(
        &self,
        enforcement: Enforcement,
        query: &SelectQuery,
        qm: &QueryMetadata,
    ) -> (SieveResult<QueryResult>, ExecStats) {
        // What a run that never reached the backend reports. Under retry
        // the stats are those of the *last* attempt: recovery time is the
        // caller's to observe via wall-clock, not folded into engine
        // counters from failed attempts.
        let mut stats = ExecStats::default();
        let res = self.prepare_pinned(enforcement, query, qm).and_then(|(prepared, _pins)| {
            let opts = self.exec_options();
            self.with_backend_retry(|b| {
                let (r, attempt) = b.exec_timed(&prepared, &opts);
                stats = attempt;
                r
            })
        });
        (res, stats)
    }

    /// The executable query for an enforcement mechanism, with leases on
    /// the ∆ partitions it names (its fragments' under Sieve, directly
    /// registered ones under Baseline U): it stays executable exactly as
    /// long as the caller holds them. Producing it is *not* part of
    /// [`SieveService::run_timed`]'s measured times, as in the paper,
    /// which reports warm per-query execution.
    fn prepare_pinned(
        &self,
        enforcement: Enforcement,
        query: &SelectQuery,
        qm: &QueryMetadata,
    ) -> SieveResult<(SelectQuery, Vec<PartitionHandle>)> {
        match enforcement {
            Enforcement::Sieve => {
                let out = self.rewrite(query, qm)?;
                let pins = out.fragments.iter().flat_map(|f| f.partitions().cloned());
                Ok((out.query, pins.collect()))
            }
            Enforcement::NoPolicies => Ok((query.clone(), Vec::new())),
            Enforcement::Baseline(which) => {
                // The baseline rewrites (policy DNF in WHERE, per-policy
                // UNION, per-tuple UDF) attach to top-level FROM entries
                // only; a protected relation read through nesting would
                // escape them, so they fail closed instead of silently
                // under-enforcing. Sieve enforcement mediates all depths.
                let store = self.inner.store.read();
                let (top, nested) = classify_protected_refs(query, store.protected());
                if !nested.is_empty() {
                    return Err(SieveError::Rewrite(DbError::Unsupported(format!(
                        "baseline {which:?} mediates only top-level FROM references; \
                         protected relation(s) {nested:?} are read through a subquery, \
                         WITH body, or derived table — use Sieve enforcement"
                    ))));
                }
                let mut handles: Vec<PartitionHandle> = Vec::new();
                let backend = self.inner.backend.read();
                let mut rewritten = query.clone();
                for rel in top {
                    let relevant = store.relevant(&rel, qm);
                    rewritten = match which {
                        Baseline::P => rewrite_baseline_p(&rewritten, &rel, &relevant),
                        Baseline::I => rewrite_baseline_i(&rewritten, &rel, &relevant),
                        Baseline::U => {
                            // On error the handles collected so far drop
                            // right here — no leak to reclaim later.
                            let (q, h) = rewrite_baseline_u(
                                &*backend,
                                &self.inner.delta,
                                &rewritten,
                                &rel,
                                &relevant,
                            )?;
                            handles.extend(h);
                            q
                        }
                    };
                }
                Ok((rewritten, handles))
            }
        }
    }
}

/// BaselineP: append the policy DNF to the query's WHERE clause.
pub fn rewrite_baseline_p(
    original: &SelectQuery,
    relation: &str,
    policies: &[&Policy],
) -> SelectQuery {
    let dnf = crate::policy::policy_expression(policies);
    attach_policy_filter(original, relation, dnf)
}

/// BaselineI: `WITH rel_pol AS (SELECT * FROM rel FORCE INDEX (owner)
/// WHERE OC_1 OR … OR OC_n)` — one index-driven branch per policy —
/// then the original query over `rel_pol`.
pub fn rewrite_baseline_i(
    original: &SelectQuery,
    relation: &str,
    policies: &[&Policy],
) -> SelectQuery {
    let dnf = crate::policy::policy_expression(policies);
    // Force the per-branch probes through the guardable attributes the
    // policies actually filter on (the owner condition is always there).
    let mut attrs: Vec<String> = vec![crate::policy::OWNER_ATTR.to_string()];
    for p in policies {
        for oc in &p.conditions {
            if !attrs.contains(&oc.attr) {
                attrs.push(oc.attr.clone());
            }
        }
    }
    let mut out = original.clone();
    let with_name = format!("{relation}_pol");
    let body = SelectQuery {
        with: vec![],
        select: vec![SelectItem::Star],
        from: vec![TableRef {
            source: TableSource::Named(relation.to_string()),
            alias: relation.to_string(),
            hint: IndexHint::Force(attrs),
        }],
        predicate: Some(dnf),
        group_by: vec![],
        limit: None,
    };
    for tref in &mut out.from {
        if matches!(&tref.source, TableSource::Named(n) if n == relation) {
            tref.source = TableSource::Named(with_name.clone());
            tref.hint = IndexHint::None;
        }
    }
    let mut with = vec![WithClause {
        name: with_name,
        query: body,
    }];
    with.append(&mut out.with);
    out.with = with;
    out
}

/// BaselineU: register all policies' DNF as a single ∆ partition and
/// append a per-tuple UDF call to the WHERE clause. Returns the rewritten query
/// plus the RAII handles pinning the partitions it references — the query
/// is executable for exactly as long as the handles are alive (the UDF
/// must already be installed via [`DeltaRegistry::install`]).
pub fn rewrite_baseline_u(
    backend: &dyn SqlBackend,
    delta: &std::sync::Arc<DeltaRegistry>,
    original: &SelectQuery,
    relation: &str,
    policies: &[&Policy],
) -> SieveResult<(SelectQuery, Vec<PartitionHandle>)> {
    let schema = backend.table_entry(relation)?.schema();
    // Policies with derived conditions cannot go through the UDF; keep
    // them as an inline OR alongside the UDF call.
    let (derived, plain): (Vec<&Policy>, Vec<&Policy>) = policies
        .iter()
        .partition(|p| p.has_derived_condition());
    let mut parts = Vec::new();
    let mut handles = Vec::new();
    if !plain.is_empty() {
        let handle = delta.register_partition(schema, crate::policy::policy_expression(&plain))?;
        parts.push(delta_call_expr(handle.key(), schema));
        handles.push(handle);
    }
    if !derived.is_empty() {
        parts.push(crate::policy::policy_expression(&derived));
    }
    let filter = Expr::any(parts);
    Ok((attach_policy_filter(original, relation, filter), handles))
}

/// AND a policy filter onto the conjuncts applying to `relation`,
/// qualifying bare columns with the relation's alias when the query has
/// several FROM entries.
fn attach_policy_filter(original: &SelectQuery, relation: &str, filter: Expr) -> SelectQuery {
    let mut out = original.clone();
    // Find the alias under which the relation appears.
    let alias = out
        .from
        .iter()
        .find(|t| matches!(&t.source, TableSource::Named(n) if n == relation))
        .map(|t| t.alias.clone());
    let filter = match (&alias, out.from.len()) {
        (Some(a), n) if n > 1 => qualify_bare(&filter, a),
        _ => filter,
    };
    out.predicate = Some(match out.predicate.take() {
        Some(p) => Expr::and(p, filter),
        None => filter,
    });
    out
}

/// Qualify bare column references with an alias (policy conditions are
/// written bare; in multi-table queries they must pin to the protected
/// relation). The inverse of [`Expr::strip_alias`]; like it,
/// scalar subqueries are left untouched.
fn qualify_bare(e: &Expr, alias: &str) -> Expr {
    e.map(&mut |node| match node {
        Expr::Column(c) if c.table.is_none() => Some(Expr::Column(
            minidb::expr::ColumnRef::qualified(alias, c.column.clone()),
        )),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{CondPredicate, ObjectCondition, QuerierSpec};
    use crate::semantics::visible_rows;
    use minidb::value::{DataType, Value};
    use minidb::{Database, DbProfile, TableSchema};

    fn setup() -> (Database, Vec<Policy>) {
        let mut db = Database::new(DbProfile::MySqlLike);
        db.create_table(TableSchema::of(
            "wifi_dataset",
            &[
                ("id", DataType::Int),
                ("owner", DataType::Int),
                ("wifi_ap", DataType::Int),
            ],
        ))
        .unwrap();
        for i in 0..2000i64 {
            db.insert(
                "wifi_dataset",
                vec![Value::Int(i), Value::Int(i % 40), Value::Int(1000 + i % 8)],
            )
            .unwrap();
        }
        db.create_index("wifi_dataset", "owner").unwrap();
        db.create_index("wifi_dataset", "wifi_ap").unwrap();
        db.analyze("wifi_dataset").unwrap();
        let policies: Vec<Policy> = (0..10)
            .map(|i| {
                let mut p = Policy::new(
                    i as i64,
                    "wifi_dataset",
                    QuerierSpec::User(77),
                    "Any",
                    vec![ObjectCondition::new(
                        "wifi_ap",
                        CondPredicate::Eq(Value::Int(1000 + (i % 4) as i64)),
                    )],
                );
                p.id = i + 1;
                p
            })
            .collect();
        (db, policies)
    }

    #[test]
    fn all_baselines_match_oracle() {
        let (mut db, policies) = setup();
        let delta = DeltaRegistry::new();
        delta.install(&mut db);
        let refs: Vec<&Policy> = policies.iter().collect();
        let q = SelectQuery::star_from("wifi_dataset");
        let mut oracle = visible_rows(&db, "wifi_dataset", &refs).unwrap();
        oracle.sort();
        assert!(!oracle.is_empty());

        let qp = rewrite_baseline_p(&q, "wifi_dataset", &refs);
        let qi = rewrite_baseline_i(&q, "wifi_dataset", &refs);
        let (qu, _pins) = rewrite_baseline_u(&db, &delta, &q, "wifi_dataset", &refs).unwrap();
        for (name, rq) in [("P", qp), ("I", qi), ("U", qu)] {
            let mut rows = db.run_query(&rq).unwrap().rows;
            rows.sort();
            assert_eq!(rows, oracle, "baseline {name} diverged from oracle");
        }
    }

    #[test]
    fn all_enforcement_mechanisms_agree() {
        let (db, policies) = setup();
        let sieve = SieveService::new(db, Default::default()).unwrap();
        sieve.add_policies(policies.iter().cloned()).unwrap();
        let refs: Vec<&Policy> = policies.iter().collect();
        let mut expect = visible_rows(&*sieve.db(), "wifi_dataset", &refs).unwrap();
        expect.sort();
        assert!(!expect.is_empty());
        let qm = QueryMetadata::new(77, "Analytics");
        let q = SelectQuery::star_from("wifi_dataset");
        for e in [
            Enforcement::Sieve,
            Enforcement::Baseline(Baseline::P),
            Enforcement::Baseline(Baseline::I),
            Enforcement::Baseline(Baseline::U),
        ] {
            let (res, stats) = sieve.run_timed(e, &q, &qm);
            let mut rows = res.unwrap().rows;
            rows.sort();
            assert_eq!(rows, expect, "mechanism {e:?} diverged");
            assert!(stats.simulated_cost > 0.0, "mechanism {e:?} reported no work");
        }
    }

    #[test]
    fn baselines_respect_query_predicate() {
        let (mut db, policies) = setup();
        let delta = DeltaRegistry::new();
        delta.install(&mut db);
        let refs: Vec<&Policy> = policies.iter().collect();
        let q = SelectQuery::star_from("wifi_dataset").filter(Expr::col_eq(
            minidb::ColumnRef::bare("wifi_ap"),
            Value::Int(1001),
        ));
        let oracle: Vec<minidb::Row> = visible_rows(&db, "wifi_dataset", &refs)
            .unwrap()
            .into_iter()
            .filter(|r| r[2] == Value::Int(1001))
            .collect();
        let qp = rewrite_baseline_p(&q, "wifi_dataset", &refs);
        let mut rows = db.run_query(&qp).unwrap().rows;
        rows.sort();
        let mut oracle = oracle;
        oracle.sort();
        assert_eq!(rows, oracle);
    }

    #[test]
    fn baseline_i_uses_with_clause() {
        let (_, policies) = setup();
        let refs: Vec<&Policy> = policies.iter().collect();
        let q = SelectQuery::star_from("wifi_dataset");
        let qi = rewrite_baseline_i(&q, "wifi_dataset", &refs);
        assert_eq!(qi.with.len(), 1);
        assert!(matches!(
            &qi.with[0].query.from[0].hint,
            IndexHint::Force(attrs) if attrs.contains(&"owner".to_string())
        ));
    }

    #[test]
    fn empty_policies_deny_everything() {
        let (mut db, _) = setup();
        let delta = DeltaRegistry::new();
        delta.install(&mut db);
        let q = SelectQuery::star_from("wifi_dataset");
        let qp = rewrite_baseline_p(&q, "wifi_dataset", &[]);
        assert!(db.run_query(&qp).unwrap().is_empty());
        let (qu, _pins) = rewrite_baseline_u(&db, &delta, &q, "wifi_dataset", &[]).unwrap();
        assert!(db.run_query(&qu).unwrap().is_empty());
    }
}
