//! The access-control policy model (paper Section 3.1).
//!
//! A policy `p = ⟨OC, QC, AC⟩` consists of *object conditions* (a
//! conjunction over attributes of the protected relation, always including
//! the owner condition `oc_owner`), *querier conditions* (who may ask, for
//! what purpose — the Purpose-Based Access Control model), and an *action*.
//! Every policy here allows: a deny is factored into the allows it narrows
//! before it is added ([`crate::deny`]).

use minidb::expr::{CmpOp, ColumnRef, Expr};
use minidb::plan::SelectQuery;
use minidb::value::Value;
use minidb::RangeBound;
use std::fmt;

/// Policy identifier.
pub type PolicyId = u64;

/// User (device owner / querier) identifier. Matches the integer `owner`
/// column of the datasets.
pub type UserId = i64;

/// Group identifier.
pub type GroupId = i64;

/// Who a policy grants access to.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum QuerierSpec {
    /// A specific user.
    User(UserId),
    /// Every member of a group (`qc_querier = ⟨QM_querier, =, group(u)⟩`).
    Group(GroupId),
}

/// The predicate of one object condition.
#[derive(Debug, Clone, PartialEq)]
pub enum CondPredicate {
    /// `attr = v`.
    Eq(Value),
    /// `attr != v`.
    Ne(Value),
    /// `attr IN (…)`.
    In(Vec<Value>),
    /// `attr NOT IN (…)`.
    NotIn(Vec<Value>),
    /// `attr` within a (possibly half-open) range — covers `<`, `<=`, `>`,
    /// `>=` and `BETWEEN`.
    Range {
        /// Lower bound.
        low: RangeBound,
        /// Upper bound.
        high: RangeBound,
    },
    /// `attr = (SELECT …)` — a derived value obtained by a (possibly
    /// correlated) scalar subquery, the paper's "expensive operator"
    /// object condition.
    Derived(Box<SelectQuery>),
}

impl CondPredicate {
    /// Range with both endpoints inclusive (SQL `BETWEEN`).
    pub fn between(low: Value, high: Value) -> Self {
        CondPredicate::Range {
            low: RangeBound::Inclusive(low),
            high: RangeBound::Inclusive(high),
        }
    }

    /// `attr >= v`.
    pub fn ge(v: Value) -> Self {
        CondPredicate::Range {
            low: RangeBound::Inclusive(v),
            high: RangeBound::Unbounded,
        }
    }
}

/// One object condition: an attribute plus its predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectCondition {
    /// Attribute (column) of the protected relation.
    pub attr: String,
    /// Predicate over the attribute.
    pub pred: CondPredicate,
}

impl ObjectCondition {
    /// Construct a condition.
    pub fn new(attr: impl Into<String>, pred: CondPredicate) -> Self {
        ObjectCondition {
            attr: attr.into(),
            pred,
        }
    }

    /// Convert to an engine expression over the bare column name (bound
    /// against the protected relation's layout at rewrite time).
    pub fn to_expr(&self) -> Expr {
        let col = Expr::Column(ColumnRef::bare(self.attr.clone()));
        match &self.pred {
            CondPredicate::Eq(v) => Expr::Cmp {
                op: CmpOp::Eq,
                lhs: Box::new(col),
                rhs: Box::new(Expr::Literal(v.clone())),
            },
            CondPredicate::Ne(v) => Expr::Cmp {
                op: CmpOp::Ne,
                lhs: Box::new(col),
                rhs: Box::new(Expr::Literal(v.clone())),
            },
            CondPredicate::In(vs) => Expr::InList {
                expr: Box::new(col),
                list: vs.iter().cloned().map(Expr::Literal).collect(),
                negated: false,
            },
            CondPredicate::NotIn(vs) => Expr::InList {
                expr: Box::new(col),
                list: vs.iter().cloned().map(Expr::Literal).collect(),
                negated: true,
            },
            CondPredicate::Range { low, high } => {
                // Render as BETWEEN when both bounds are inclusive, else as
                // conjoined comparisons.
                match (low, high) {
                    (RangeBound::Inclusive(a), RangeBound::Inclusive(b)) => Expr::Between {
                        expr: Box::new(col),
                        low: Box::new(Expr::Literal(a.clone())),
                        high: Box::new(Expr::Literal(b.clone())),
                        negated: false,
                    },
                    _ => {
                        let mut parts = Vec::new();
                        match low {
                            RangeBound::Inclusive(v) => parts.push(Expr::col_cmp(
                                ColumnRef::bare(self.attr.clone()),
                                CmpOp::Ge,
                                v.clone(),
                            )),
                            RangeBound::Exclusive(v) => parts.push(Expr::col_cmp(
                                ColumnRef::bare(self.attr.clone()),
                                CmpOp::Gt,
                                v.clone(),
                            )),
                            RangeBound::Unbounded => {}
                        }
                        match high {
                            RangeBound::Inclusive(v) => parts.push(Expr::col_cmp(
                                ColumnRef::bare(self.attr.clone()),
                                CmpOp::Le,
                                v.clone(),
                            )),
                            RangeBound::Exclusive(v) => parts.push(Expr::col_cmp(
                                ColumnRef::bare(self.attr.clone()),
                                CmpOp::Lt,
                                v.clone(),
                            )),
                            RangeBound::Unbounded => {}
                        }
                        Expr::all(parts)
                    }
                }
            }
            CondPredicate::Derived(q) => Expr::Cmp {
                op: CmpOp::Eq,
                lhs: Box::new(col),
                rhs: Box::new(Expr::ScalarSubquery(q.clone())),
            },
        }
    }
}

impl fmt::Display for ObjectCondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", minidb::sql::render_expr(&self.to_expr()))
    }
}

/// An access-control policy.
#[derive(Debug, Clone, PartialEq)]
pub struct Policy {
    /// Identifier (assigned by the store; 0 until registered).
    pub id: PolicyId,
    /// The owner whose data the policy covers. Implies the mandatory
    /// `oc_owner` object condition `owner = <owner>`.
    pub owner: UserId,
    /// The protected relation.
    pub relation: String,
    /// Who is granted access.
    pub querier: QuerierSpec,
    /// Query purpose the grant applies to (`"Any"` is the wildcard).
    pub purpose: String,
    /// Object conditions *beyond* `oc_owner`.
    pub conditions: Vec<ObjectCondition>,
    /// Additional querier conditions over query-context attributes
    /// (Section 3.1: "other pieces of querier context, such as the IP of
    /// the machine from where the querier posed the query, or the time of
    /// the day, can easily be added as querier conditions"). Each entry
    /// `(attr, value)` must match the query metadata's context exactly.
    pub querier_context: Vec<(String, Value)>,
}

/// Name of the owner column mandated by the data model ("this ownership is
/// explicitly stated in the tuple by using the attribute r.owner", §3.1).
pub const OWNER_ATTR: &str = "owner";

/// The purpose wildcard.
pub const PURPOSE_ANY: &str = "Any";

impl Policy {
    /// Create a policy; `conditions` must not include the owner condition
    /// (it is implied and added by [`Policy::object_conditions`]).
    pub fn new(
        owner: UserId,
        relation: impl Into<String>,
        querier: QuerierSpec,
        purpose: impl Into<String>,
        conditions: Vec<ObjectCondition>,
    ) -> Self {
        Policy {
            id: 0,
            owner,
            relation: relation.into(),
            querier,
            purpose: purpose.into(),
            conditions,
            querier_context: Vec::new(),
        }
    }

    /// Add a querier-context condition (builder style).
    pub fn with_context(mut self, attr: impl Into<String>, value: Value) -> Self {
        self.querier_context.push((attr.into(), value));
        self
    }

    /// The mandatory owner condition `oc_owner`.
    pub fn owner_condition(&self) -> ObjectCondition {
        ObjectCondition::new(OWNER_ATTR, CondPredicate::Eq(Value::Int(self.owner)))
    }

    /// All object conditions, owner condition first (the full `OC_l`).
    pub fn object_conditions(&self) -> Vec<ObjectCondition> {
        let mut out = Vec::with_capacity(self.conditions.len() + 1);
        out.push(self.owner_condition());
        out.extend(self.conditions.iter().cloned());
        out
    }

    /// The conjunctive object-condition expression of this policy.
    pub fn to_expr(&self) -> Expr {
        Expr::all(
            self.object_conditions()
                .iter()
                .map(ObjectCondition::to_expr)
                .collect(),
        )
    }

    /// True iff any object condition holds a derived (subquery) value;
    /// such policies are kept inline (never routed through ∆).
    pub fn has_derived_condition(&self) -> bool {
        self.conditions
            .iter()
            .any(|c| matches!(c.pred, CondPredicate::Derived(_)))
    }

    /// True iff the policy's purpose condition accepts a query purpose.
    pub fn purpose_matches(&self, query_purpose: &str) -> bool {
        self.purpose.eq_ignore_ascii_case(PURPOSE_ANY)
            || self.purpose.eq_ignore_ascii_case(query_purpose)
    }
}

/// The DNF policy expression `E(P) = OC_1 ∨ … ∨ OC_|P|` (Section 3.1).
pub fn policy_expression(policies: &[&Policy]) -> Expr {
    Expr::any(policies.iter().map(|p| p.to_expr()).collect())
}

/// Query metadata `QM`: the querier's identity and purpose (Section 3.1),
/// plus any extra context attributes (machine IP, access channel, …).
/// Group memberships are resolved by the middleware's
/// [`GroupDirectory`](crate::filter::GroupDirectory).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryMetadata {
    /// Identity of the querier.
    pub querier: UserId,
    /// Purpose of the query (e.g. `"Analytics"`).
    pub purpose: String,
    /// Extra context attributes, matched by policies' querier-context
    /// conditions.
    pub context: Vec<(String, Value)>,
}

impl QueryMetadata {
    /// Construct metadata.
    pub fn new(querier: UserId, purpose: impl Into<String>) -> Self {
        QueryMetadata {
            querier,
            purpose: purpose.into(),
            context: Vec::new(),
        }
    }

    /// Attach a context attribute (builder style).
    pub fn with_context(mut self, attr: impl Into<String>, value: Value) -> Self {
        self.context.push((attr.into(), value));
        self
    }

    /// Look up a context attribute.
    pub fn context_value(&self, attr: &str) -> Option<&Value> {
        self.context
            .iter()
            .find(|(a, _)| a == attr)
            .map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_policy() -> Policy {
        // John's policy from Section 3.1: allow Prof. Smith (user 500)
        // access between 9 and 10 am at AP 1200 for attendance control.
        Policy::new(
            120,
            "wifi_dataset",
            QuerierSpec::User(500),
            "Attendance",
            vec![
                ObjectCondition::new(
                    "ts_time",
                    CondPredicate::between(Value::Time(9 * 3600), Value::Time(10 * 3600)),
                ),
                ObjectCondition::new("wifi_ap", CondPredicate::Eq(Value::Int(1200))),
            ],
        )
    }

    #[test]
    fn owner_condition_is_first() {
        let p = sample_policy();
        let ocs = p.object_conditions();
        assert_eq!(ocs.len(), 3);
        assert_eq!(ocs[0].attr, OWNER_ATTR);
        assert_eq!(ocs[0].pred, CondPredicate::Eq(Value::Int(120)));
    }

    #[test]
    fn to_expr_is_conjunction() {
        let p = sample_policy();
        match p.to_expr() {
            Expr::And(parts) => assert_eq!(parts.len(), 3),
            other => panic!("expected AND, got {other:?}"),
        }
    }

    #[test]
    fn purpose_matching() {
        let mut p = sample_policy();
        assert!(p.purpose_matches("attendance"));
        assert!(!p.purpose_matches("Analytics"));
        p.purpose = PURPOSE_ANY.into();
        assert!(p.purpose_matches("Analytics"));
    }

    #[test]
    fn policy_expression_is_disjunction() {
        let p1 = sample_policy();
        let mut p2 = sample_policy();
        p2.owner = 121;
        let e = policy_expression(&[&p1, &p2]);
        match e {
            Expr::Or(parts) => assert_eq!(parts.len(), 2),
            other => panic!("expected OR, got {other:?}"),
        }
    }

    #[test]
    fn empty_policy_set_denies_everything() {
        // Opt-out default: no policy → expression FALSE.
        let e = policy_expression(&[]);
        assert_eq!(e, Expr::Literal(Value::Bool(false)));
    }

    #[test]
    fn half_open_range_renders_as_comparison() {
        let oc = ObjectCondition::new("ts_time", CondPredicate::ge(Value::Time(3600)));
        let e = oc.to_expr();
        assert!(matches!(e, Expr::Cmp { op: CmpOp::Ge, .. }));
    }

    #[test]
    fn derived_condition_detected() {
        let q = SelectQuery::star_from("wifi_dataset");
        let mut p = sample_policy();
        p.conditions.push(ObjectCondition::new(
            "wifi_ap",
            CondPredicate::Derived(Box::new(q)),
        ));
        assert!(p.has_derived_condition());
        assert!(!sample_policy().has_derived_condition());
    }
}
