//! The policy-check operator ∆, implemented as a UDF (paper Sections 3.2,
//! 5.2, 5.4).
//!
//! `∆(P_Gi, QM, t_t)` takes a policy partition, the query metadata, and a
//! tuple; it *retrieves the subset of policies relevant to the tuple* —
//! keyed by the tuple's owner, the context attribute of the data model —
//! and evaluates only those. The price is the UDF invocation overhead per
//! tuple (`UDF_inv`), which is why SIEVE only routes partitions past the
//! cost-model crossover through ∆ (Experiment 2.1: ≈120 policies in the
//! paper's setup).
//!
//! ∆ has no evaluator of its own. A partition is the policy DNF an inline
//! branch would splice (`crate::policy::policy_expression`), bound once
//! against the relation's layout into the engine's
//! [`FilterProgram`]: a disjunction of eight or more owner-headed policies
//! becomes the engine's owner-keyed dispatch
//! (`minidb::expr::BoundExpr::KeyedOr`), so a tuple owned by `u` is checked
//! against `u`'s policies only, and the owner is matched under `Value`'s
//! one order, exactly as inline. The [`PartitionHandle`] keeps the
//! expression, and the static verifier proves that expression in place of
//! the call (`crate::analyze::verify_fragment`): the proof is of what ∆
//! runs.
//!
//! Like the paper's implementation, partitions are resolved through an id
//! passed as the UDF's first argument ("the implementation … retrieve\[s\]
//! the policies on the partition of the guard by using the id of the
//! guard, passed as a parameter", Section 5.6). The remaining arguments
//! are the tuple's attributes in schema order.

use crate::backend::SqlBackend;
use minidb::error::{DbError, DbResult};
use minidb::expr::{bind, no_subqueries, Expr, FilterProgram, Layout};
use minidb::schema::TableSchema;
use minidb::udf::{Udf, UdfContext};
use minidb::value::Value;
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Name the ∆ UDF is registered under.
pub const DELTA_UDF: &str = "delta";

/// A registered partition: its policy DNF bound against the relation's
/// layout, key tables built, and the width of the tuple it reads.
#[derive(Debug)]
struct CompiledPartition {
    width: usize,
    program: FilterProgram,
}

/// Partition key handed to the UDF as its first argument.
pub type PartitionKey = i64;

/// RAII lease on a registered ∆ partition: the partition stays resolvable
/// by the UDF for as long as at least one clone of the handle is alive,
/// and is removed from the registry when the last clone drops.
///
/// This is what makes concurrent invalidation safe: a query thread that
/// cloned a compiled fragment (and with it these handles) keeps the
/// partitions its ∆ calls reference alive even if another thread
/// regenerates or evicts the cache entry mid-flight — the superseded
/// partitions are freed only once the in-flight query finishes and drops
/// its pin.
#[derive(Clone)]
pub struct PartitionHandle {
    inner: Arc<HandleInner>,
}

struct HandleInner {
    key: PartitionKey,
    partition: Expr,
    registry: std::sync::Weak<DeltaRegistry>,
}

impl PartitionHandle {
    /// The partition key embedded in rewritten queries.
    pub fn key(&self) -> PartitionKey {
        self.inner.key
    }

    /// The policy DNF the partition was compiled from: what ∆ evaluates
    /// per tuple, and what the static verifier proves in place of the call.
    pub fn partition(&self) -> &Expr {
        &self.inner.partition
    }
}

/// Two leases are equal when they name the same partition.
impl PartialEq for PartitionHandle {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl std::fmt::Debug for PartitionHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("PartitionHandle").field(&self.inner.key).finish()
    }
}

impl Drop for HandleInner {
    fn drop(&mut self) {
        if let Some(registry) = self.registry.upgrade() {
            registry.remove(self.key);
        }
    }
}

/// Shared registry of compiled partitions behind the ∆ UDF.
#[derive(Default)]
pub struct DeltaRegistry {
    inner: RwLock<DeltaInner>,
}

#[derive(Default)]
struct DeltaInner {
    partitions: HashMap<PartitionKey, Arc<CompiledPartition>>,
    next_key: PartitionKey,
}

impl DeltaRegistry {
    /// Fresh registry.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Register the `delta` UDF on an execution backend, backed by this
    /// registry (a `&mut Database` coerces — the engine is itself a
    /// backend). On a real server this step is the paper's
    /// `CREATE FUNCTION` issued at deploy time.
    pub fn install(self: &Arc<Self>, backend: &mut dyn SqlBackend) {
        backend.install_udf(DELTA_UDF, Arc::new(DeltaUdf { registry: Arc::clone(self) }));
    }

    /// Bind a partition's policy DNF against a relation schema — the
    /// expression an inline branch splices — and register it, returning an
    /// RAII [`PartitionHandle`] that keeps the expression: the partition
    /// lives until the last clone of the handle drops. The UDF's argument
    /// layout is `(key, col_0 … col_{n-1})` in schema order. A policy with
    /// a derived (subquery) condition does not bind here and is refused —
    /// the rewriter keeps those inline.
    pub fn register_partition(
        self: &Arc<Self>,
        schema: &Arc<TableSchema>,
        partition: Expr,
    ) -> DbResult<PartitionHandle> {
        let layout = Layout::single(schema.name.clone(), Arc::clone(schema));
        let bound = bind(&partition, &layout, &HashSet::new(), &mut no_subqueries)?;
        let compiled = CompiledPartition {
            width: schema.arity(),
            program: FilterProgram::new(Some(bound)),
        };
        let mut inner = self.inner.write();
        inner.next_key += 1;
        let key = inner.next_key;
        inner.partitions.insert(key, Arc::new(compiled));
        Ok(PartitionHandle {
            inner: Arc::new(HandleInner {
                key,
                partition,
                registry: Arc::downgrade(self),
            }),
        })
    }

    /// Drop a partition: what the last [`PartitionHandle`] of it does as
    /// it drops (a fragment that is regenerated or evicted frees exactly
    /// the partitions its ∆ calls referenced, once no in-flight query pins
    /// them).
    fn remove(&self, key: PartitionKey) {
        self.inner.write().partitions.remove(&key);
    }

    /// Number of live partitions.
    pub fn len(&self) -> usize {
        self.inner.read().partitions.len()
    }

    /// True iff no partitions are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

struct DeltaUdf {
    registry: Arc<DeltaRegistry>,
}

impl Udf for DeltaUdf {
    fn invoke(&self, args: &[Value], ctx: &UdfContext<'_>) -> DbResult<Value> {
        let Some((Value::Int(key), tuple)) = args.split_first() else {
            return Err(DbError::TypeError("delta: first arg must be partition key".into()));
        };
        let part = {
            let inner = self.registry.inner.read();
            inner
                .partitions
                .get(key)
                .cloned()
                .ok_or_else(|| DbError::Unsupported(format!("delta: unknown partition {key}")))?
        };
        if tuple.len() != part.width {
            return Err(DbError::TypeError("delta: the tuple does not fit the partition".into()));
        }
        // Context filtering: a wide partition's key table finds the tuple
        // owner's policies with one hash probe (a narrow one is checked in
        // order, as inline). The lookup stands in for the paper's indexed
        // rP ⋈ rOC cursor and is charged as one probe.
        ctx.tally.index_probes(1);
        Ok(Value::Bool(part.program.matches_alone(tuple, ctx.tally)?))
    }
}

/// Build the ∆-call expression for a relation: `delta(key, col_0, …)` with
/// columns referenced bare (bound inside the WITH body's layout).
pub fn delta_call_expr(key: PartitionKey, schema: &TableSchema) -> minidb::Expr {
    use minidb::expr::{ColumnRef, Expr};
    let mut args = Vec::with_capacity(schema.arity() + 1);
    args.push(Expr::Literal(Value::Int(key)));
    for c in &schema.columns {
        args.push(Expr::Column(ColumnRef::bare(c.name.clone())));
    }
    Expr::Udf {
        name: DELTA_UDF.to_string(),
        args,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{policy_expression, CondPredicate, ObjectCondition, Policy, QuerierSpec};
    use minidb::value::DataType;
    use minidb::Tally;

    fn schema() -> Arc<TableSchema> {
        Arc::new(TableSchema::of(
            "wifi_dataset",
            &[
                ("id", DataType::Int),
                ("owner", DataType::Int),
                ("wifi_ap", DataType::Int),
                ("ts_time", DataType::Time),
            ],
        ))
    }

    fn policy(owner: i64, ap: i64) -> Policy {
        Policy::new(
            owner,
            "wifi_dataset",
            QuerierSpec::User(1),
            "Any",
            vec![ObjectCondition::new(
                "wifi_ap",
                CondPredicate::Eq(Value::Int(ap)),
            )],
        )
    }

    fn register(reg: &Arc<DeltaRegistry>, policies: &[Policy]) -> PartitionHandle {
        let refs: Vec<&Policy> = policies.iter().collect();
        reg.register_partition(&schema(), policy_expression(&refs)).unwrap()
    }

    /// Invoke ∆ on `row` under partition `key`: its verdict and charges.
    fn invoke(reg: &Arc<DeltaRegistry>, key: PartitionKey, row: &[Value]) -> (bool, minidb::Counters) {
        let udf = DeltaUdf {
            registry: Arc::clone(reg),
        };
        let tally = Tally::default();
        let ctx = UdfContext { tally: &tally };
        let mut args = vec![Value::Int(key)];
        args.extend_from_slice(row);
        let verdict = udf.invoke(&args, &ctx).unwrap().as_bool().unwrap();
        (verdict, tally.counters())
    }

    fn row(owner: Value, ap: i64) -> [Value; 4] {
        [Value::Int(0), owner, Value::Int(ap), Value::Time(0)]
    }

    #[test]
    fn owner_scoped_evaluation() {
        let reg = DeltaRegistry::new();
        let handle = register(&reg, &[policy(7, 1200), policy(8, 1300)]);
        let key = handle.key();
        // Owner 7 at AP 1200 → allowed by p1.
        assert!(invoke(&reg, key, &row(Value::Int(7), 1200)).0);
        // Owner 7 at AP 1300 → p2 belongs to owner 8.
        assert!(!invoke(&reg, key, &row(Value::Int(7), 1300)).0);
        // Unknown owner → deny.
        assert!(!invoke(&reg, key, &row(Value::Int(99), 1200)).0);
    }

    #[test]
    fn an_owner_held_as_a_double_is_that_owner() {
        let reg = DeltaRegistry::new();
        let narrow = register(&reg, &[policy(7, 1200)]);
        let policies: Vec<Policy> = (0..50).map(|o| policy(o, 1200)).collect();
        let keyed = register(&reg, &policies);
        for key in [narrow.key(), keyed.key()] {
            assert!(invoke(&reg, key, &row(Value::Double(7.0), 1200)).0);
            assert!(!invoke(&reg, key, &row(Value::Double(7.5), 1200)).0);
        }
    }

    #[test]
    fn policy_eval_counts_only_owner_policies() {
        let reg = DeltaRegistry::new();
        let policies: Vec<Policy> = (0..50).map(|o| policy(o, 1200)).collect();
        let handle = register(&reg, &policies);
        let (verdict, charged) = invoke(&reg, handle.key(), &row(Value::Int(3), 1200));
        assert!(verdict);
        // One probe of the owner key table, then owner 3's one remaining
        // condition: not 50 policies' worth.
        assert_eq!(charged.index_probes, 1);
        assert_eq!(charged.predicate_evals, 2);
        assert_eq!(charged.policy_evals, 0);
    }

    #[test]
    fn derived_policies_rejected() {
        let reg = DeltaRegistry::new();
        let mut p = policy(7, 1200);
        p.conditions.push(ObjectCondition::new(
            "wifi_ap",
            CondPredicate::Derived(Box::new(minidb::SelectQuery::star_from("wifi_dataset"))),
        ));
        assert!(reg.register_partition(&schema(), p.to_expr()).is_err());
        assert!(reg.is_empty());
    }

    #[test]
    fn the_handle_keeps_the_partition_expression() {
        let reg = DeltaRegistry::new();
        let policies = [policy(7, 1200), policy(8, 1300)];
        let handle = register(&reg, &policies);
        assert_eq!(handle.partition(), &policy_expression(&[&policies[0], &policies[1]]));
    }

    #[test]
    fn installed_udf_reachable_through_database() {
        use minidb::{Database, DbProfile};
        let mut db = Database::new(DbProfile::MySqlLike);
        db.create_table(TableSchema::clone(&schema())).unwrap();
        db.insert("wifi_dataset", row(Value::Int(7), 1200).to_vec()).unwrap();
        let reg = DeltaRegistry::new();
        reg.install(&mut db);
        let handle = register(&reg, &[policy(7, 1200)]);
        let q = minidb::SelectQuery::star_from("wifi_dataset")
            .filter(delta_call_expr(handle.key(), &schema()));
        let res = db.run_query(&q).unwrap();
        assert_eq!(res.len(), 1);
    }

    #[test]
    fn dropping_the_last_handle_frees_the_partition() {
        let reg = DeltaRegistry::new();
        let h1 = register(&reg, &[policy(1, 1200)]);
        let h2 = register(&reg, &[policy(2, 1300)]);
        let k2 = h2.key();
        // A clone pins the partition past the original's drop.
        let h1_clone = h1.clone();
        drop(h1);
        assert_eq!(reg.len(), 2, "clone still pins the partition");
        drop(h1_clone);
        assert_eq!(reg.len(), 1, "last drop frees it");
        // The surviving partition still evaluates.
        assert!(invoke(&reg, k2, &row(Value::Int(2), 1300)).0);
    }
}
