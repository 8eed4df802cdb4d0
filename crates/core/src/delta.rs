//! The policy-check operator ∆, implemented as a UDF (paper Sections 3.2,
//! 5.2, 5.4).
//!
//! `∆(P_Gi, QM, t_t)` takes a policy partition, the query metadata, and a
//! tuple; it *retrieves the subset of policies relevant to the tuple* —
//! keyed by the tuple's owner, the context attribute of the data model —
//! and evaluates only those. The win over inlining is that a tuple owned
//! by `u` is never checked against other owners' policies; the price is
//! the UDF invocation overhead per tuple (`UDF_inv`), which is why SIEVE
//! only routes partitions past the cost-model crossover through ∆
//! (Experiment 2.1: ≈120 policies in the paper's setup).
//!
//! Like the paper's implementation, partitions are resolved through an id
//! passed as the UDF's first argument ("the implementation … retrieve\[s\]
//! the policies on the partition of the guard by using the id of the
//! guard, passed as a parameter", Section 5.6). The remaining arguments
//! are the tuple's attributes in schema order.

use crate::backend::SqlBackend;
use crate::policy::{CondPredicate, Policy, UserId};
use minidb::error::{DbError, DbResult};
use minidb::schema::TableSchema;
use minidb::udf::{Udf, UdfContext};
use minidb::value::Value;
use minidb::RangeBound;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// Name the ∆ UDF is registered under.
pub const DELTA_UDF: &str = "delta";

/// A compiled object condition: argument slot + check.
#[derive(Debug, Clone)]
enum CondCheck {
    Eq(Value),
    Ne(Value),
    In(Vec<Value>),
    NotIn(Vec<Value>),
    Range { low: RangeBound, high: RangeBound },
}

impl CondCheck {
    fn eval(&self, v: &Value) -> bool {
        if v.is_null() {
            return false;
        }
        match self {
            CondCheck::Eq(x) => v == x,
            CondCheck::Ne(x) => v != x,
            CondCheck::In(xs) => xs.contains(v),
            CondCheck::NotIn(xs) => !xs.contains(v),
            CondCheck::Range { low, high } => RangeBound::contains(low, high, v),
        }
    }
}

/// One policy compiled against a relation schema: `(arg slot, check)`
/// pairs over the UDF's argument layout.
#[derive(Debug, Clone)]
struct CompiledPolicy {
    conds: Vec<(usize, CondCheck)>,
}

/// A registered partition: owner-keyed policy lists.
#[derive(Debug, Default)]
struct CompiledPartition {
    owner_slot: usize,
    by_owner: HashMap<UserId, Vec<CompiledPolicy>>,
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
    policies: usize,
    registry: std::sync::Weak<DeltaRegistry>,
}

impl PartitionHandle {
    /// The partition key embedded in rewritten queries.
    pub fn key(&self) -> PartitionKey {
        self.inner.key
    }

    /// How many policies the partition was compiled from.
    pub fn policies(&self) -> usize {
        self.inner.policies
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

    /// Compile and register a partition of policies against a relation
    /// schema, returning an RAII [`PartitionHandle`] — the partition lives
    /// until the last clone of the handle drops. The UDF's argument layout
    /// is `(key, col_0 … col_{n-1})` in schema order. Policies containing
    /// derived (subquery) conditions are rejected — the rewriter keeps
    /// those inline.
    pub fn register_partition(
        self: &Arc<Self>,
        schema: &TableSchema,
        policies: &[&Policy],
    ) -> DbResult<PartitionHandle> {
        let owner_col = schema
            .column_index(crate::policy::OWNER_ATTR)
            .ok_or_else(|| DbError::UnknownColumn("owner".into()))?;
        let mut part = CompiledPartition {
            owner_slot: owner_col + 1,
            by_owner: HashMap::new(),
        };
        for p in policies {
            let mut conds = Vec::new();
            // The owner condition is the partition key, not re-checked.
            for oc in &p.conditions {
                let slot = schema
                    .column_index(&oc.attr)
                    .ok_or_else(|| DbError::UnknownColumn(oc.attr.clone()))?
                    + 1;
                let check = match &oc.pred {
                    CondPredicate::Eq(v) => CondCheck::Eq(v.clone()),
                    CondPredicate::Ne(v) => CondCheck::Ne(v.clone()),
                    CondPredicate::In(vs) => CondCheck::In(vs.clone()),
                    CondPredicate::NotIn(vs) => CondCheck::NotIn(vs.clone()),
                    CondPredicate::Range { low, high } => CondCheck::Range {
                        low: low.clone(),
                        high: high.clone(),
                    },
                    CondPredicate::Derived(_) => {
                        return Err(DbError::Unsupported(
                            "derived-value policies cannot be routed through ∆".into(),
                        ))
                    }
                };
                conds.push((slot, check));
            }
            part.by_owner
                .entry(p.owner)
                .or_default()
                .push(CompiledPolicy { conds });
        }
        let mut inner = self.inner.write();
        inner.next_key += 1;
        let key = inner.next_key;
        inner.partitions.insert(key, Arc::new(part));
        Ok(PartitionHandle {
            inner: Arc::new(HandleInner {
                key,
                policies: policies.len(),
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
        let key = args
            .first()
            .and_then(Value::as_int)
            .ok_or_else(|| DbError::TypeError("delta: first arg must be partition key".into()))?;
        let part = {
            let inner = self.registry.inner.read();
            inner
                .partitions
                .get(&key)
                .cloned()
                .ok_or_else(|| DbError::Unsupported(format!("delta: unknown partition {key}")))?
        };
        // Context filtering: fetch only the tuple owner's policies. This
        // lookup stands in for the paper's indexed rP ⋈ rOC cursor and is
        // charged as one probe.
        ctx.tally.index_probes(1);
        let owner = match args.get(part.owner_slot).and_then(Value::as_int) {
            Some(o) => o,
            None => return Ok(Value::Bool(false)),
        };
        let Some(policies) = part.by_owner.get(&owner) else {
            return Ok(Value::Bool(false));
        };
        for cp in policies {
            ctx.tally.policies(1);
            let mut ok = true;
            for (slot, check) in &cp.conds {
                ctx.tally.predicates(1);
                let v = args
                    .get(*slot)
                    .ok_or_else(|| DbError::TypeError("delta: missing attribute arg".into()))?;
                if !check.eval(v) {
                    ok = false;
                    break;
                }
            }
            if ok {
                return Ok(Value::Bool(true));
            }
        }
        Ok(Value::Bool(false))
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
    use crate::policy::{ObjectCondition, QuerierSpec};
    use minidb::value::DataType;
    use minidb::Tally;

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

    fn invoke(reg: &Arc<DeltaRegistry>, key: PartitionKey, row: &[Value]) -> bool {
        let udf = DeltaUdf {
            registry: Arc::clone(reg),
        };
        let tally = Tally::default();
        let ctx = UdfContext { tally: &tally };
        let mut args = vec![Value::Int(key)];
        args.extend_from_slice(row);
        udf.invoke(&args, &ctx).unwrap().as_bool().unwrap()
    }

    #[test]
    fn owner_scoped_evaluation() {
        let reg = DeltaRegistry::new();
        let p1 = policy(7, 1200);
        let p2 = policy(8, 1300);
        let handle = reg
            .register_partition(&schema(), &[&p1, &p2])
            .unwrap();
        let key = handle.key();
        // Owner 7 at AP 1200 → allowed by p1.
        assert!(invoke(
            &reg,
            key,
            &[Value::Int(0), Value::Int(7), Value::Int(1200), Value::Time(0)]
        ));
        // Owner 7 at AP 1300 → p2 belongs to owner 8, never consulted.
        assert!(!invoke(
            &reg,
            key,
            &[Value::Int(0), Value::Int(7), Value::Int(1300), Value::Time(0)]
        ));
        // Unknown owner → deny.
        assert!(!invoke(
            &reg,
            key,
            &[Value::Int(0), Value::Int(99), Value::Int(1200), Value::Time(0)]
        ));
    }

    #[test]
    fn policy_eval_counts_only_owner_policies() {
        let reg = DeltaRegistry::new();
        let policies: Vec<Policy> = (0..50).map(|o| policy(o, 1200)).collect();
        let refs: Vec<&Policy> = policies.iter().collect();
        let handle = reg.register_partition(&schema(), &refs).unwrap();
        let key = handle.key();
        let udf = DeltaUdf {
            registry: Arc::clone(&reg),
        };
        let tally = Tally::default();
        let ctx = UdfContext { tally: &tally };
        let args = vec![
            Value::Int(key),
            Value::Int(0),
            Value::Int(3),
            Value::Int(1200),
            Value::Time(0),
        ];
        udf.invoke(&args, &ctx).unwrap();
        // Only owner 3's single policy was checked, not all 50.
        assert_eq!(tally.counters().policy_evals, 1);
    }

    #[test]
    fn derived_policies_rejected() {
        let reg = DeltaRegistry::new();
        let mut p = policy(7, 1200);
        p.conditions.push(ObjectCondition::new(
            "wifi_ap",
            CondPredicate::Derived(Box::new(minidb::SelectQuery::star_from("wifi_dataset"))),
        ));
        assert!(reg.register_partition(&schema(), &[&p]).is_err());
    }

    #[test]
    fn installed_udf_reachable_through_database() {
        use minidb::{Database, DbProfile};
        let mut db = Database::new(DbProfile::MySqlLike);
        db.create_table(schema()).unwrap();
        db.insert(
            "wifi_dataset",
            vec![Value::Int(0), Value::Int(7), Value::Int(1200), Value::Time(0)],
        )
        .unwrap();
        let reg = DeltaRegistry::new();
        reg.install(&mut db);
        let p = policy(7, 1200);
        let handle = reg.register_partition(&schema(), &[&p]).unwrap();
        let q = minidb::SelectQuery::star_from("wifi_dataset")
            .filter(delta_call_expr(handle.key(), &schema()));
        let res = db.run_query(&q).unwrap();
        assert_eq!(res.len(), 1);
    }

    #[test]
    fn dropping_the_last_handle_frees_the_partition() {
        let reg = DeltaRegistry::new();
        let p1 = policy(1, 1200);
        let p2 = policy(2, 1300);
        let h1 = reg.register_partition(&schema(), &[&p1]).unwrap();
        let h2 = reg.register_partition(&schema(), &[&p2]).unwrap();
        let k2 = h2.key();
        // A clone pins the partition past the original's drop.
        let h1_clone = h1.clone();
        drop(h1);
        assert_eq!(reg.len(), 2, "clone still pins the partition");
        drop(h1_clone);
        assert_eq!(reg.len(), 1, "last drop frees it");
        // The surviving partition still evaluates.
        assert!(invoke(
            &reg,
            k2,
            &[Value::Int(0), Value::Int(2), Value::Int(1300), Value::Time(0)]
        ));
    }
}
