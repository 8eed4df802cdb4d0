//! Predicate expressions: AST, name resolution (binding), and evaluation.
//!
//! Evaluation is the hot path of everything SIEVE measures — each policy
//! object-condition set is a conjunct tree evaluated per tuple — so
//! expressions are *bound* once against the query's FROM layout (resolving
//! column names to positions) and evaluated many times. `And`/`Or` short-
//! circuit, which is what makes the paper's α ("average number of policies a
//! tuple is checked against before it satisfies one", Section 4) a
//! measurable quantity here.

use crate::error::{DbError, DbResult};
use crate::plan::SelectQuery;
use crate::planner::Subplan;
use crate::schema::TableSchema;
use crate::stats::Tally;
use crate::table::Row;
use crate::udf::{UdfContext, UdfRegistry};
use crate::value::Value;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Comparison operators of the policy model (Section 3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=` / `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Apply the operator to two values. Comparisons against NULL are false.
    pub fn apply(self, a: &Value, b: &Value) -> bool {
        if a.is_null() || b.is_null() {
            return false;
        }
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }

    /// The SQL token for this operator.
    pub fn sql(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// Mirror image (for normalizing `literal op column`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            other => other,
        }
    }
}

/// A possibly-qualified column reference.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    /// Table alias qualifier, if written.
    pub table: Option<String>,
    /// Column name.
    pub column: String,
}

impl ColumnRef {
    /// Unqualified reference.
    pub fn bare(column: impl Into<String>) -> Self {
        ColumnRef {
            table: None,
            column: column.into(),
        }
    }

    /// Qualified reference.
    pub fn qualified(table: impl Into<String>, column: impl Into<String>) -> Self {
        ColumnRef {
            table: Some(table.into()),
            column: column.into(),
        }
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.table {
            Some(t) => write!(f, "{t}.{}", self.column),
            None => write!(f, "{}", self.column),
        }
    }
}

/// An unbound predicate/scalar expression.
///
/// Equality is structural over what the expression says: an
/// [`Expr::Shared`] node equals its source.
#[derive(Debug, Clone)]
pub enum Expr {
    /// Constant.
    Literal(Value),
    /// Column reference.
    Column(ColumnRef),
    /// Binary comparison.
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `expr [NOT] BETWEEN low AND high` (inclusive both sides, as in SQL).
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
        /// NOT BETWEEN if true.
        negated: bool,
    },
    /// `expr [NOT] IN (v1, v2, …)`.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// List elements.
        list: Vec<Expr>,
        /// NOT IN if true.
        negated: bool,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// IS NOT NULL if true.
        negated: bool,
    },
    /// N-ary conjunction (short-circuits on first false).
    And(Vec<Expr>),
    /// N-ary disjunction (short-circuits on first true).
    Or(Vec<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
    /// UDF call, e.g. the ∆ operator `delta(guard_id, querier, purpose, owner, …)`.
    Udf {
        /// Function name.
        name: String,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// Correlated scalar subquery (the policy model's "derived value",
    /// Section 3.1). Yields the first column of the first result row, or
    /// NULL when the result is empty.
    ScalarSubquery(Box<SelectQuery>),
    /// A sub-expression held once and spliced into many queries — a
    /// querier's guard disjunction. It *is* its source to everything that
    /// reads an expression (rendering, the walkers, equality); what
    /// sharing buys is that copying it is a refcount and
    /// that [`bind`] resolves it once, not once per query. Built by
    /// [`Expr::shared`], never by the parser.
    Shared(Arc<SharedExpr>),
}

/// The node behind [`Expr::Shared`]: a source expression and, once the
/// first [`bind`] has met it, its bound form with the key tables built,
/// kept for the layout it was bound against.
pub struct SharedExpr {
    source: Expr,
    /// The distinct column references of `source`, in first-visit order.
    columns: Vec<ColumnRef>,
    /// The source holds a scalar subquery: its body is planned against the
    /// WITH scope of the query around it, so it binds per plan.
    per_plan: bool,
    /// Filled by the first bind that may share: the layout it resolved
    /// against and the result, or `None` if the source does not bind there.
    bound: OnceLock<Option<(Layout, Arc<BoundExpr>)>>,
    binds: AtomicUsize,
}

impl SharedExpr {
    /// The expression this node stands for.
    pub fn source(&self) -> &Expr {
        &self.source
    }

    /// How many times the source has been bound: once to fill the node,
    /// and once more by every plan that could not take the kept form — a
    /// layout other than the first, correlation parameters in scope, a
    /// scalar subquery in the source. A statement planned between two
    /// equal readings bound nothing of this node.
    pub fn binds(&self) -> usize {
        self.binds.load(Ordering::Relaxed)
    }

    /// Bind the source like any expression, and count it.
    fn bind_source(
        &self,
        layout: &Layout,
        params: &HashSet<String>,
        subplan: &mut SubqueryPlanner<'_>,
    ) -> DbResult<BoundExpr> {
        self.binds.fetch_add(1, Ordering::Relaxed);
        bind(&self.source, layout, params, subplan)
    }

    /// The kept bound form, if it was bound against exactly `layout` —
    /// filling the node first when this is the first bind to meet it.
    /// Concurrent first binds wait for one.
    fn bound_for(&self, layout: &Layout, params: &HashSet<String>) -> Option<Arc<BoundExpr>> {
        if self.per_plan || !params.is_empty() {
            return None;
        }
        let filled = self.bound.get_or_init(|| {
            let mut bound = self.bind_source(layout, params, &mut no_subqueries).ok()?;
            bound.build_key_tables();
            Some((layout.clone(), Arc::new(bound)))
        });
        let (bound_against, bound) = filled.as_ref()?;
        bound_against.same_as(layout).then(|| Arc::clone(bound))
    }
}

impl fmt::Debug for SharedExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.source.fmt(f)
    }
}

impl PartialEq for Expr {
    fn eq(&self, other: &Expr) -> bool {
        use Expr::*;
        if let (Shared(a), Shared(b)) = (self, other) {
            if Arc::ptr_eq(a, b) {
                return true;
            }
        }
        match (self.unshared(), other.unshared()) {
            (Literal(a), Literal(b)) => a == b,
            (Column(a), Column(b)) => a == b,
            (Cmp { op, lhs, rhs }, Cmp { op: op2, lhs: lhs2, rhs: rhs2 }) => {
                op == op2 && lhs == lhs2 && rhs == rhs2
            }
            (
                Between { expr, low, high, negated },
                Between { expr: expr2, low: low2, high: high2, negated: negated2 },
            ) => negated == negated2 && expr == expr2 && low == low2 && high == high2,
            (
                InList { expr, list, negated },
                InList { expr: expr2, list: list2, negated: negated2 },
            ) => negated == negated2 && expr == expr2 && list == list2,
            (IsNull { expr, negated }, IsNull { expr: expr2, negated: negated2 }) => {
                negated == negated2 && expr == expr2
            }
            (And(a), And(b)) | (Or(a), Or(b)) => a == b,
            (Not(a), Not(b)) => a == b,
            (Udf { name, args }, Udf { name: name2, args: args2 }) => name == name2 && args == args2,
            (ScalarSubquery(a), ScalarSubquery(b)) => a == b,
            _ => false,
        }
    }
}

impl Expr {
    /// Hold `source` once for every query it will be spliced into; see
    /// [`Expr::Shared`].
    pub fn shared(source: Expr) -> Expr {
        let mut columns: Vec<ColumnRef> = Vec::new();
        source.visit_columns(&mut |c| {
            if !columns.contains(c) {
                columns.push(c.clone());
            }
        });
        // A shared child already knows whether it holds a subquery: asking
        // it keeps wrapping a disjunction of shared partitions linear in
        // the disjunction, not in every policy beneath it.
        let mut per_plan = false;
        source.visit_subqueries(&mut |_| per_plan = true);
        Expr::Shared(Arc::new(SharedExpr {
            source,
            columns,
            per_plan,
            bound: OnceLock::new(),
            binds: AtomicUsize::new(0),
        }))
    }

    /// The node itself, if this expression is a [`Expr::Shared`] one.
    pub fn as_shared(&self) -> Option<&SharedExpr> {
        match self {
            Expr::Shared(s) => Some(s),
            _ => None,
        }
    }

    /// This expression with any [`Expr::Shared`] wrapping taken off its
    /// root: what to match on when the shape of an expression matters.
    pub fn unshared(&self) -> &Expr {
        let mut e = self;
        while let Expr::Shared(s) = e {
            e = &s.source;
        }
        e
    }

    /// `a AND b`, flattening nested conjunctions.
    pub fn and(a: Expr, b: Expr) -> Expr {
        let mut parts = Vec::new();
        for e in [a, b] {
            push_flat(&mut parts, e, true);
        }
        Expr::And(parts)
    }

    /// `a OR b`, flattening nested disjunctions.
    pub fn or(a: Expr, b: Expr) -> Expr {
        let mut parts = Vec::new();
        for e in [a, b] {
            push_flat(&mut parts, e, false);
        }
        Expr::Or(parts)
    }

    /// Conjunction of many expressions; `TRUE` for an empty list.
    /// Flattens nested conjunctions like [`Expr::and`], so every
    /// constructor-built expression is in the same n-ary normal form the
    /// SQL parser produces — `parse(render(e)) == e` depends on it.
    pub fn all(exprs: Vec<Expr>) -> Expr {
        let mut parts = Vec::new();
        for e in exprs {
            push_flat(&mut parts, e, true);
        }
        match parts.len() {
            0 => Expr::Literal(Value::Bool(true)),
            1 => parts.into_iter().next().unwrap(),
            _ => Expr::And(parts),
        }
    }

    /// Disjunction of many expressions; `FALSE` for an empty list.
    /// Flattens nested disjunctions like [`Expr::or`] (see [`Expr::all`]).
    pub fn any(exprs: Vec<Expr>) -> Expr {
        let mut parts = Vec::new();
        for e in exprs {
            push_flat(&mut parts, e, false);
        }
        match parts.len() {
            0 => Expr::Literal(Value::Bool(false)),
            1 => parts.into_iter().next().unwrap(),
            _ => Expr::Or(parts),
        }
    }

    /// Shorthand: `col = value`.
    pub fn col_eq(col: ColumnRef, v: Value) -> Expr {
        Expr::Cmp {
            op: CmpOp::Eq,
            lhs: Box::new(Expr::Column(col)),
            rhs: Box::new(Expr::Literal(v)),
        }
    }

    /// Shorthand: comparison of a column to a literal.
    pub fn col_cmp(col: ColumnRef, op: CmpOp, v: Value) -> Expr {
        Expr::Cmp {
            op,
            lhs: Box::new(Expr::Column(col)),
            rhs: Box::new(Expr::Literal(v)),
        }
    }

    /// Top-level conjuncts of this expression (`self` if not an AND).
    pub fn conjuncts(&self) -> Vec<&Expr> {
        match self.unshared() {
            Expr::And(v) => v.iter().collect(),
            _ => vec![self],
        }
    }

    /// Top-level disjuncts of this expression (`self` if not an OR).
    pub fn disjuncts(&self) -> Vec<&Expr> {
        match self.unshared() {
            Expr::Or(v) => v.iter().collect(),
            _ => vec![self],
        }
    }

    /// Visit all column references in this expression (not descending into
    /// scalar subqueries, whose references resolve in their own scope). A
    /// [`Expr::Shared`] node offers each distinct reference of its source
    /// once, from a list made when it was built.
    pub fn visit_columns<'a>(&'a self, f: &mut impl FnMut(&'a ColumnRef)) {
        match self {
            Expr::Shared(s) => s.columns.iter().for_each(f),
            Expr::Literal(_) => {}
            Expr::Column(c) => f(c),
            Expr::Cmp { lhs, rhs, .. } => {
                lhs.visit_columns(f);
                rhs.visit_columns(f);
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.visit_columns(f);
                low.visit_columns(f);
                high.visit_columns(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.visit_columns(f);
                for e in list {
                    e.visit_columns(f);
                }
            }
            Expr::IsNull { expr, .. } => expr.visit_columns(f),
            Expr::And(v) | Expr::Or(v) => {
                for e in v {
                    e.visit_columns(f);
                }
            }
            Expr::Not(e) => e.visit_columns(f),
            Expr::Udf { args, .. } => {
                for e in args {
                    e.visit_columns(f);
                }
            }
            Expr::ScalarSubquery(_) => {}
        }
    }

    /// Visit this expression and every sub-expression, pre-order. A
    /// [`Expr::ScalarSubquery`] is visited as a single node; its inner
    /// predicate resolves in its own scope and is not descended into.
    /// This is the one traversal every walker builds on (rewrite-time
    /// reference collection, the static analyzer's atom lowering), so
    /// structural recursion over `Expr` lives in exactly one place. An
    /// [`Expr::Shared`] node is never offered: its source is.
    pub fn visit(&self, f: &mut dyn FnMut(&Expr)) {
        if let Expr::Shared(s) = self {
            return s.source.visit(f);
        }
        f(self);
        self.for_each_child(&mut |c| c.visit(f));
    }

    /// Offer `f` every scalar subquery of this expression, not descending
    /// into them. Unlike [`Expr::visit`], a shared node is walked only
    /// when its source holds one, so a spliced guard disjunction costs
    /// nothing here.
    pub fn visit_subqueries(&self, f: &mut dyn FnMut(&SelectQuery)) {
        match self {
            Expr::Shared(s) if s.per_plan => s.source.visit_subqueries(f),
            Expr::Shared(_) => {}
            Expr::ScalarSubquery(q) => f(q),
            _ => self.for_each_child(&mut |c| c.visit_subqueries(f)),
        }
    }

    /// The direct sub-expressions, in order: none for a leaf, a scalar
    /// subquery or a shared node.
    fn for_each_child(&self, f: &mut dyn FnMut(&Expr)) {
        match self {
            Expr::Literal(_)
            | Expr::Column(_)
            | Expr::ScalarSubquery(_)
            | Expr::Shared(_) => {}
            Expr::Cmp { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                f(expr);
                f(low);
                f(high);
            }
            Expr::InList { expr, list, .. } => {
                f(expr);
                list.iter().for_each(&mut *f);
            }
            Expr::IsNull { expr, .. } | Expr::Not(expr) => f(expr),
            Expr::And(v) | Expr::Or(v) => v.iter().for_each(&mut *f),
            Expr::Udf { args, .. } => args.iter().for_each(&mut *f),
        }
    }

    /// This expression with every `alias.col` reference made a bare `col`
    /// — what it says inside a single-relation body that reads the same
    /// row. Scalar subqueries are left as they are: their references
    /// resolve in their own scope.
    pub fn strip_alias(&self, alias: &str) -> Expr {
        self.map(&mut |node| match node {
            Expr::Column(c) if c.table.as_deref() == Some(alias) => {
                Some(Expr::Column(ColumnRef::bare(c.column.clone())))
            }
            _ => None,
        })
    }

    /// Rebuild the expression, offering `f` each node top-down: returning
    /// `Some` replaces that node wholesale (children unvisited), `None`
    /// recurses structurally and reassembles. [`Expr::ScalarSubquery`] is
    /// offered but never descended into, and of an [`Expr::Shared`] node
    /// its source is what is offered and rebuilt: the result shares nothing.
    pub fn map(&self, f: &mut dyn FnMut(&Expr) -> Option<Expr>) -> Expr {
        if let Expr::Shared(s) = self {
            return s.source.map(f);
        }
        if let Some(replaced) = f(self) {
            return replaced;
        }
        match self {
            Expr::Literal(_)
            | Expr::Column(_)
            | Expr::ScalarSubquery(_)
            | Expr::Shared(_) => self.clone(),
            Expr::Cmp { op, lhs, rhs } => Expr::Cmp {
                op: *op,
                lhs: Box::new(lhs.map(f)),
                rhs: Box::new(rhs.map(f)),
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => Expr::Between {
                expr: Box::new(expr.map(f)),
                low: Box::new(low.map(f)),
                high: Box::new(high.map(f)),
                negated: *negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: Box::new(expr.map(f)),
                list: list.iter().map(|e| e.map(f)).collect(),
                negated: *negated,
            },
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(expr.map(f)),
                negated: *negated,
            },
            Expr::And(v) => Expr::And(v.iter().map(|e| e.map(f)).collect()),
            Expr::Or(v) => Expr::Or(v.iter().map(|e| e.map(f)).collect()),
            Expr::Not(e) => Expr::Not(Box::new(e.map(f))),
            Expr::Udf { name, args } => Expr::Udf {
                name: name.clone(),
                args: args.iter().map(|e| e.map(f)).collect(),
            },
        }
    }
}

/// Add `e` to the parts of a conjunction (`conjunction`) or disjunction in
/// the making. A nested one of the same kind goes in part by part — also
/// when a [`Expr::Shared`] node holds it: its parts are copied out, and
/// nothing of the node is left in the result.
fn push_flat(parts: &mut Vec<Expr>, e: Expr, conjunction: bool) {
    match e {
        Expr::And(mut v) if conjunction => parts.append(&mut v),
        Expr::Or(mut v) if !conjunction => parts.append(&mut v),
        Expr::Shared(s) => match (s.source.unshared(), conjunction) {
            (Expr::And(v), true) | (Expr::Or(v), false) => parts.extend(v.iter().cloned()),
            _ => parts.push(Expr::Shared(s)),
        },
        other => parts.push(other),
    }
}

/// The flattened FROM layout a row is evaluated against: an ordered list of
/// `(alias, schema)` whose columns are concatenated.
#[derive(Debug, Clone, Default)]
pub struct Layout {
    entries: Vec<(String, Arc<TableSchema>)>,
    offsets: Vec<usize>,
    width: usize,
}

impl Layout {
    /// Empty layout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Layout over a single table.
    pub fn single(alias: impl Into<String>, schema: Arc<TableSchema>) -> Self {
        let mut l = Layout::new();
        l.push(alias, schema);
        l
    }

    /// Append a FROM entry.
    pub fn push(&mut self, alias: impl Into<String>, schema: Arc<TableSchema>) {
        self.offsets.push(self.width);
        self.width += schema.arity();
        self.entries.push((alias.into(), schema));
    }

    /// Total number of columns across all entries.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The `(alias, schema)` entries.
    pub fn entries(&self) -> &[(String, Arc<TableSchema>)] {
        &self.entries
    }

    /// True iff `other` lays out the same row: the same aliases over
    /// equal schemas, in the same order. Every slot an expression bound
    /// against one resolves to is the slot it would resolve to in the other.
    pub fn same_as(&self, other: &Layout) -> bool {
        self.entries.len() == other.entries.len()
            && self.entries.iter().zip(&other.entries).all(|((a, s), (b, t))| {
                a == b && (Arc::ptr_eq(s, t) || s == t)
            })
    }

    /// Resolve a column reference to its global position.
    pub fn resolve(&self, c: &ColumnRef) -> DbResult<usize> {
        match &c.table {
            Some(alias) => {
                for (i, (a, schema)) in self.entries.iter().enumerate() {
                    if a == alias {
                        return schema
                            .column_index(&c.column)
                            .map(|j| self.offsets[i] + j)
                            .ok_or_else(|| DbError::UnknownColumn(c.to_string()));
                    }
                }
                Err(DbError::UnknownColumn(c.to_string()))
            }
            None => {
                let mut found = None;
                for (i, (_, schema)) in self.entries.iter().enumerate() {
                    if let Some(j) = schema.column_index(&c.column) {
                        if found.is_some() {
                            return Err(DbError::AmbiguousColumn(c.column.clone()));
                        }
                        found = Some(self.offsets[i] + j);
                    }
                }
                found.ok_or_else(|| DbError::UnknownColumn(c.to_string()))
            }
        }
    }

    /// Fully-qualified output column names, in layout order.
    pub fn qualified_names(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.width);
        for (alias, schema) in &self.entries {
            for c in &schema.columns {
                out.push(format!("{alias}.{}", c.name));
            }
        }
        out
    }
}

/// Runner for correlated scalar subqueries: implemented by the executor and
/// injected into evaluation so `expr` does not depend on `exec`.
pub trait QueryRunner {
    /// Run a subquery's plan with the given correlation parameters (keys
    /// are `alias.column` strings) and return the result rows. Parameters
    /// are taken by value: callers build the map fresh per invocation, so
    /// the runner can keep it without another deep copy.
    fn run_subquery(&self, plan: &Subplan, params: HashMap<String, Value>) -> DbResult<Vec<Row>>;
}

/// Plans the body of a correlated subquery for [`bind`], given the printed
/// names of the correlation parameters it will be run with.
pub type SubqueryPlanner<'a> = dyn FnMut(&SelectQuery, &HashSet<String>) -> DbResult<Subplan> + 'a;

/// The [`SubqueryPlanner`] of a predicate bound on its own rather than as
/// part of a query plan: there is nothing to plan a subquery against.
pub fn no_subqueries(_: &SelectQuery, _: &HashSet<String>) -> DbResult<Subplan> {
    Err(DbError::Unsupported("scalar subquery outside a planned query".into()))
}

/// Evaluation context: the run's tally, UDFs, subquery runner, and any outer
/// correlation parameters already in scope.
pub struct EvalContext<'a> {
    /// The run's tally, charged by predicate evaluations and UDF work.
    pub tally: &'a Tally,
    /// Registered UDFs.
    pub udfs: &'a UdfRegistry,
    /// Subquery runner (None disables scalar subqueries).
    pub runner: Option<&'a dyn QueryRunner>,
    /// Correlation parameters visible to nested subqueries.
    pub params: &'a HashMap<String, Value>,
}

/// A bound expression: column references resolved to row positions, or to
/// named correlation parameters when they refer to an enclosing query.
#[derive(Debug, Clone)]
pub enum BoundExpr {
    /// Constant.
    Literal(Value),
    /// Column at a global row position.
    Slot(usize),
    /// Correlation parameter from an enclosing scope.
    Correlated(String),
    /// Binary comparison.
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        lhs: Box<BoundExpr>,
        /// Right operand.
        rhs: Box<BoundExpr>,
    },
    /// Inclusive range test.
    Between {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Inclusive lower bound.
        low: Box<BoundExpr>,
        /// Inclusive upper bound.
        high: Box<BoundExpr>,
        /// NOT BETWEEN if true.
        negated: bool,
    },
    /// IN-list test.
    InList {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// List elements.
        list: Vec<BoundExpr>,
        /// NOT IN if true.
        negated: bool,
    },
    /// NULL test.
    IsNull {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// IS NOT NULL if true.
        negated: bool,
    },
    /// Short-circuit conjunction.
    And(Vec<BoundExpr>),
    /// Short-circuit disjunction.
    Or(Vec<BoundExpr>),
    /// Negation.
    Not(Box<BoundExpr>),
    /// UDF call.
    Udf {
        /// Function name.
        name: String,
        /// Bound arguments.
        args: Vec<BoundExpr>,
    },
    /// Correlated scalar subquery with its captured outer references:
    /// `(param name, outer slot)` pairs collected at bind time.
    ScalarSubquery {
        /// The subquery's body, planned once when the enclosing predicate
        /// was bound; a row only supplies the parameter values.
        plan: Subplan,
        /// Outer columns the subquery needs, as `(param name, outer slot)`.
        outer_refs: Vec<(String, usize)>,
    },
    /// An IN-list of literals compiled to a sorted key table; never
    /// produced by [`bind`], only by [`FilterProgram::new`] out of an
    /// [`BoundExpr::InList`]. One binary search a row, so what a row costs
    /// does not depend on where in the written list its value stands: a
    /// linear pass over `owner IN (…eight devices…)` costs a statement
    /// whose busiest device is written last twice what it costs one whose
    /// busiest device is written first.
    InSet {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// The list's literals in [`Value`]'s order. A NULL stays in (it
        /// sorts first) and equals no row value that reaches the search.
        keys: Vec<Value>,
        /// NOT IN if true.
        negated: bool,
    },
    /// A wide disjunction compiled for keyed dispatch; never produced by
    /// [`bind`], only by [`FilterProgram::new`] out of an [`BoundExpr::Or`].
    /// A row's value finds its arms in the key table with one hash probe
    /// and is then checked against those arms only — a tuple meets the
    /// partition of the guard it satisfies, not every guard head in turn
    /// (the paper's Equation 3 assumes as much).
    KeyedOr {
        /// The column every arm's head tested.
        slot: usize,
        /// The branches that are `slot = key [AND rest…]`, by key; boxed,
        /// as every `BoundExpr` node is as wide as its widest variant.
        table: Box<KeyTable>,
        /// Branches of any other shape, checked linearly after the arms.
        tail: Vec<BoundExpr>,
    },
    /// What an [`Expr::Shared`] node bound to, key tables built, held by
    /// the node and by every plan over the layout it was bound against.
    Shared(Arc<BoundExpr>),
}

/// Bind an expression against a layout.
///
/// Column references that do not resolve in `layout` bind as named
/// parameters when their printed name appears in `params` (we are binding
/// the body of a correlated subquery, and the enclosing row's values will
/// be supplied under those names); anything else is an error. A scalar
/// subquery has its body planned here, once, by `subplan`. An
/// [`Expr::Shared`] node binds once for the first layout it meets and is
/// answered from that wherever the same layout meets it again; under any
/// other layout, under correlation parameters, or holding a scalar
/// subquery, its source binds here like any expression.
pub fn bind(
    expr: &Expr,
    layout: &Layout,
    params: &HashSet<String>,
    subplan: &mut SubqueryPlanner<'_>,
) -> DbResult<BoundExpr> {
    Ok(match expr {
        Expr::Literal(v) => BoundExpr::Literal(v.clone()),
        Expr::Column(c) => match layout.resolve(c) {
            Ok(slot) => BoundExpr::Slot(slot),
            Err(e) => {
                let name = c.to_string();
                if !params.contains(&name) {
                    return Err(e);
                }
                BoundExpr::Correlated(name)
            }
        },
        Expr::Cmp { op, lhs, rhs } => BoundExpr::Cmp {
            op: *op,
            lhs: Box::new(bind(lhs, layout, params, subplan)?),
            rhs: Box::new(bind(rhs, layout, params, subplan)?),
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => BoundExpr::Between {
            expr: Box::new(bind(expr, layout, params, subplan)?),
            low: Box::new(bind(low, layout, params, subplan)?),
            high: Box::new(bind(high, layout, params, subplan)?),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => BoundExpr::InList {
            expr: Box::new(bind(expr, layout, params, subplan)?),
            list: list
                .iter()
                .map(|e| bind(e, layout, params, subplan))
                .collect::<DbResult<_>>()?,
            negated: *negated,
        },
        Expr::IsNull { expr, negated } => BoundExpr::IsNull {
            expr: Box::new(bind(expr, layout, params, subplan)?),
            negated: *negated,
        },
        Expr::And(v) => BoundExpr::And(
            v.iter()
                .map(|e| bind(e, layout, params, subplan))
                .collect::<DbResult<_>>()?,
        ),
        Expr::Or(v) => BoundExpr::Or(
            v.iter()
                .map(|e| bind(e, layout, params, subplan))
                .collect::<DbResult<_>>()?,
        ),
        Expr::Not(e) => BoundExpr::Not(Box::new(bind(e, layout, params, subplan)?)),
        Expr::Udf { name, args } => BoundExpr::Udf {
            name: name.clone(),
            args: args
                .iter()
                .map(|e| bind(e, layout, params, subplan))
                .collect::<DbResult<_>>()?,
        },
        Expr::ScalarSubquery(q) => {
            // Collect the subquery's correlation needs: columns that do not
            // resolve against the subquery's own FROM entries but do resolve
            // in the current layout.
            let inner_layout_names: Vec<String> =
                q.from.iter().map(|t| t.alias.clone()).collect();
            let mut outer_refs: Vec<(String, usize)> = Vec::new();
            if let Some(pred) = &q.predicate {
                let mut err = None;
                pred.visit_columns(&mut |c| {
                    let is_inner = match &c.table {
                        Some(t) => inner_layout_names.iter().any(|a| a == t),
                        None => false, // unqualified: assume inner, resolved later
                    };
                    if !is_inner {
                        if let Ok(slot) = layout.resolve(c) {
                            let name = c.to_string();
                            if !outer_refs.iter().any(|(n, _)| *n == name) {
                                outer_refs.push((name, slot));
                            }
                        } else if c.table.is_some() && err.is_none() {
                            err = Some(DbError::UnknownColumn(c.to_string()));
                        }
                    }
                });
                if let Some(e) = err {
                    return Err(e);
                }
            }
            // The body sees the enclosing parameters and its own.
            let mut names = params.clone();
            names.extend(outer_refs.iter().map(|(n, _)| n.clone()));
            BoundExpr::ScalarSubquery { plan: subplan(q, &names)?, outer_refs }
        }
        Expr::Shared(shared) => match shared.bound_for(layout, params) {
            Some(bound) => BoundExpr::Shared(bound),
            None => shared.bind_source(layout, params, subplan)?,
        },
    })
}

impl BoundExpr {
    /// Evaluate to a value.
    pub fn eval(&self, row: &[Value], ctx: &EvalContext<'_>) -> DbResult<Value> {
        Ok(self.eval_cow(row, ctx)?.into_owned())
    }

    /// Evaluate without materializing: slots and literals borrow instead of
    /// cloning, so the per-tuple filter loop allocates only for computed
    /// results (booleans, UDF outputs, subquery values). This is the hot
    /// path of every guarded-expression evaluation.
    pub fn eval_cow<'v>(
        &'v self,
        row: &'v [Value],
        ctx: &EvalContext<'_>,
    ) -> DbResult<Cow<'v, Value>> {
        Ok(match self {
            BoundExpr::Literal(v) => Cow::Borrowed(v),
            BoundExpr::Slot(i) => Cow::Borrowed(&row[*i]),
            BoundExpr::Correlated(name) => Cow::Owned(
                ctx.params
                    .get(name)
                    .cloned()
                    .ok_or_else(|| DbError::UnknownColumn(format!("parameter {name}")))?,
            ),
            BoundExpr::Udf { name, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(a.eval(row, ctx)?);
                }
                let udf_ctx = UdfContext { tally: ctx.tally };
                Cow::Owned(ctx.udfs.invoke(name, &vals, &udf_ctx)?)
            }
            BoundExpr::ScalarSubquery { plan, outer_refs } => {
                let runner = ctx.runner.ok_or_else(|| {
                    DbError::Unsupported("scalar subquery outside executor".into())
                })?;
                let mut params = ctx.params.clone();
                for (name, slot) in outer_refs {
                    params.insert(name.clone(), row[*slot].clone());
                }
                let rows = runner.run_subquery(plan, params)?;
                Cow::Owned(match rows.into_iter().next() {
                    Some(r) => r.into_iter().next().unwrap_or(Value::Null),
                    None => Value::Null,
                })
            }
            BoundExpr::Shared(bound) => bound.eval_cow(row, ctx)?,
            // Everything boolean has its one implementation in `eval_bool`.
            BoundExpr::Cmp { .. }
            | BoundExpr::Between { .. }
            | BoundExpr::InList { .. }
            | BoundExpr::InSet { .. }
            | BoundExpr::IsNull { .. }
            | BoundExpr::And(_)
            | BoundExpr::Or(_)
            | BoundExpr::Not(_)
            | BoundExpr::KeyedOr { .. } => Cow::Owned(Value::Bool(self.eval_bool(row, ctx)?)),
        })
    }

    /// Operand as a direct reference when it is a slot or literal — the
    /// shape of every policy object-condition operand.
    #[inline]
    fn fast_ref<'r>(&'r self, row: &'r [Value]) -> Option<&'r Value> {
        match self {
            BoundExpr::Literal(v) => Some(v),
            BoundExpr::Slot(i) => Some(&row[*i]),
            _ => None,
        }
    }

    /// Evaluate as a boolean; non-boolean, non-null results are a type
    /// error, NULL is false.
    ///
    /// The boolean combinators and slot/literal comparison shapes — the
    /// entirety of a compiled guard expression — are evaluated directly,
    /// without constructing intermediate values at all.
    pub fn eval_bool(&self, row: &[Value], ctx: &EvalContext<'_>) -> DbResult<bool> {
        match self {
            BoundExpr::And(parts) => {
                for p in parts {
                    if !p.eval_bool(row, ctx)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            BoundExpr::Or(parts) => {
                for p in parts {
                    if p.eval_bool(row, ctx)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            BoundExpr::KeyedOr { slot, table, tail } => {
                // One probe of the key table, charged as one evaluation.
                // Two-valued like the `Or` it was (NULL → false), so arms
                // first, tail after selects the same rows as the branches
                // in their written order.
                ctx.tally.predicates(1);
                if table.matches(&row[*slot], row, ctx)? {
                    return Ok(true);
                }
                for p in tail {
                    if p.eval_bool(row, ctx)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            BoundExpr::Not(e) => Ok(!e.eval_bool(row, ctx)?),
            BoundExpr::Shared(bound) => bound.eval_bool(row, ctx),
            BoundExpr::Literal(Value::Bool(b)) => Ok(*b),
            // Each test below is written once, as a closure over operand
            // values, and fed slot/literal operands by reference — no call,
            // no intermediate value — or, when an operand has to be
            // computed first, what `eval_cow` makes of it.
            BoundExpr::Cmp { op, lhs, rhs } => {
                let test = |a: &Value, b: &Value| {
                    ctx.tally.predicates(1);
                    op.apply(a, b)
                };
                Ok(match (lhs.fast_ref(row), rhs.fast_ref(row)) {
                    (Some(a), Some(b)) => test(a, b),
                    _ => test(&*lhs.eval_cow(row, ctx)?, &*rhs.eval_cow(row, ctx)?),
                })
            }
            BoundExpr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let test = |v: &Value, lo: &Value, hi: &Value| {
                    ctx.tally.predicates(1);
                    let null = v.is_null() || lo.is_null() || hi.is_null();
                    !null && (v >= lo && v <= hi) != *negated
                };
                Ok(match (expr.fast_ref(row), low.fast_ref(row), high.fast_ref(row)) {
                    (Some(v), Some(lo), Some(hi)) => test(v, lo, hi),
                    _ => {
                        let v = expr.eval_cow(row, ctx)?;
                        test(&v, &*low.eval_cow(row, ctx)?, &*high.eval_cow(row, ctx)?)
                    }
                })
            }
            BoundExpr::InList {
                expr,
                list,
                negated,
            } => {
                let test = |v: &Value| -> DbResult<bool> {
                    ctx.tally.predicates(1);
                    if v.is_null() {
                        return Ok(false);
                    }
                    for e in list {
                        let found = match e {
                            BoundExpr::Literal(x) => x == v,
                            _ => *e.eval_cow(row, ctx)? == *v,
                        };
                        if found {
                            return Ok(!*negated);
                        }
                    }
                    Ok(*negated)
                };
                match expr.fast_ref(row) {
                    Some(v) => test(v),
                    None => test(&*expr.eval_cow(row, ctx)?),
                }
            }
            BoundExpr::InSet {
                expr,
                keys,
                negated,
            } => {
                // Charged as the list it was: one evaluation.
                let test = |v: &Value| {
                    ctx.tally.predicates(1);
                    !v.is_null() && keys.binary_search(v).is_ok() != *negated
                };
                Ok(match expr.fast_ref(row) {
                    Some(v) => test(v),
                    None => test(&*expr.eval_cow(row, ctx)?),
                })
            }
            BoundExpr::IsNull { expr, negated } => {
                let test = |v: &Value| {
                    ctx.tally.predicates(1);
                    v.is_null() != *negated
                };
                Ok(match expr.fast_ref(row) {
                    Some(v) => test(v),
                    None => test(&*expr.eval_cow(row, ctx)?),
                })
            }
            // Not boolean by shape: a value that has to turn out one.
            BoundExpr::Literal(_)
            | BoundExpr::Slot(_)
            | BoundExpr::Correlated(_)
            | BoundExpr::Udf { .. }
            | BoundExpr::ScalarSubquery { .. } => match &*self.eval_cow(row, ctx)? {
                Value::Bool(b) => Ok(*b),
                Value::Null => Ok(false),
                // The type, never the value: the row may be one the querier
                // is not allowed to see.
                other => Err(DbError::TypeError(format!(
                    "expected boolean predicate, got {}",
                    other.data_type().expect("NULL and booleans are answered above")
                ))),
            },
        }
    }
}

/// Fewest `slot = key` branches on one column for which an `Or` is worth a
/// key table. The table is built with the plan; a one-shot query builds it
/// for a single run, so it has to pay for itself within one query.
/// Measured on this engine (2 vCPUs, `owner = k AND wifi_ap = a` branches,
/// ranges over three runs): building it costs 70–115 ns a branch
/// (0.54–0.81 µs at 8 branches, 6.6–10.5 µs at 90), a linear pass over
/// the heads ≈ 20 ns a branch a row (0.16–0.20 µs at 8, 1.75–2.4 µs at
/// 90), a dispatched row 40–67 ns at any width, 21–37 ns when no arm has
/// its key — from eight branches up the table is ahead by the sixth row
/// that reaches the `Or`; below eight a row stands to gain under 100 ns.
const DISPATCH_MIN_BRANCHES: usize = 8;

/// `(slot, key)` when an `Or` branch — or, of a conjunction, its first
/// conjunct — is `slot = key` for a literal key that can equal something:
/// not NULL.
fn dispatch_head(branch: &BoundExpr) -> Option<(usize, &Value)> {
    let head = match branch.unshared() {
        BoundExpr::And(parts) => parts.first()?,
        other => other,
    };
    let BoundExpr::Cmp {
        op: CmpOp::Eq,
        lhs,
        rhs,
    } = head.unshared()
    else {
        return None;
    };
    match (&**lhs, &**rhs) {
        (BoundExpr::Slot(s), BoundExpr::Literal(v)) | (BoundExpr::Literal(v), BoundExpr::Slot(s))
            if !v.is_null() =>
        {
            Some((*s, v))
        }
        _ => None,
    }
}

/// The conjuncts of a branch [`dispatch_head`] accepted that follow its
/// `slot = key` head: what a row under that key is still checked against
/// (none when the head is the whole branch).
fn after_head(branch: &BoundExpr) -> &[BoundExpr] {
    match branch.unshared() {
        BoundExpr::And(parts) => &parts[1..],
        _ => &[],
    }
}

/// The keyed arms of a [`BoundExpr::KeyedOr`] and the hash table that finds
/// a row's arms in one probe.
#[derive(Debug, Clone)]
pub struct KeyTable {
    /// One branch per branch that is `slot = key [AND rest…]`, in the
    /// disjunction's order. The branch is held whole, a shared one by
    /// refcount; its key decided its head, so a row under it is checked
    /// against the rest only.
    arms: Vec<BoundExpr>,
    /// Key → the first arm of that key. Keys equal under [`Value`]'s
    /// order (`Int(1)`, `Double(1.0)`) are one key: they hash alike.
    first: HashMap<Value, usize, BuildHasherDefault<KeyHasher>>,
    /// Each arm's successor among the arms of its key: with `first`, a
    /// key's arms in the disjunction's order, grouped with no sort and no
    /// branch moved.
    next: Vec<Option<usize>>,
}

impl KeyTable {
    /// The table of `arms`, `(key, branch)` in the disjunction's order:
    /// walked backwards, each arm becomes its key's first and links the
    /// one that was.
    fn new(arms: Vec<(Value, BoundExpr)>) -> Self {
        let mut first = HashMap::with_capacity_and_hasher(arms.len(), Default::default());
        let mut next = vec![None; arms.len()];
        for (at, (key, _)) in arms.iter().enumerate().rev() {
            next[at] = first.insert(key.clone(), at);
        }
        let arms = arms.into_iter().map(|(_, branch)| branch).collect();
        KeyTable { arms, first, next }
    }

    /// Whether a row whose keyed column holds `v` satisfies an arm: one
    /// whose key equals `v` and whose rest holds, tried in the disjunction's
    /// order.
    fn matches(&self, v: &Value, row: &[Value], ctx: &EvalContext<'_>) -> DbResult<bool> {
        // NULL is no key: a NULL row finds no arm.
        let mut at = self.first.get(v).copied();
        'arms: while let Some(i) = at {
            at = self.next[i];
            for p in after_head(&self.arms[i]) {
                if !p.eval_bool(row, ctx)? {
                    continue 'arms;
                }
            }
            return Ok(true);
        }
        Ok(false)
    }
}

/// The key tables' hasher: FxHash's rotate-xor-multiply step over the
/// words [`Value`]'s `Hash` writes, then murmur3's finishing mix. `std`'s
/// SipHash costs a probe much of what hashing saves over a binary search;
/// and a multiply carries entropy only upwards, while a key's entropy can
/// sit anywhere in its word (a non-integral `Double`'s bits have all-zero
/// low bits) — the mix spreads it over the word. Unlike SipHash it is not keyed, so literals
/// can be chosen to collide; they are the statement's own, and colliding
/// ones slow only that statement: a probe to the linear pass dispatch
/// replaced, the build to quadratic in its literals.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        let mut h = self.0;
        h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        h = (h ^ (h >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

impl BoundExpr {
    /// This expression with any [`BoundExpr::Shared`] wrapping taken off
    /// its root.
    pub(crate) fn unshared(&self) -> &BoundExpr {
        let mut e = self;
        while let BoundExpr::Shared(inner) = e {
            e = inner;
        }
        e
    }

    /// Build the key tables, in place, under the boolean connectives: every
    /// wide enough `Or` becomes a [`BoundExpr::KeyedOr`] and every IN-list
    /// of literals a [`BoundExpr::InSet`]. Branches are moved, never
    /// copied, and no `And`/`Or` that stays is rebuilt. What is under a
    /// [`BoundExpr::Shared`] had its tables built when its node was filled.
    fn build_key_tables(&mut self) {
        match self {
            BoundExpr::And(parts) => parts.iter_mut().for_each(Self::build_key_tables),
            BoundExpr::Not(e) => e.build_key_tables(),
            BoundExpr::InList { list, .. } => {
                let literal = |e: &BoundExpr| match e {
                    BoundExpr::Literal(v) => Some(v.clone()),
                    _ => None,
                };
                let Some(mut keys) = list.iter().map(literal).collect::<Option<Vec<Value>>>() else {
                    return;
                };
                keys.sort();
                let taken = std::mem::replace(self, BoundExpr::Literal(Value::Null));
                if let BoundExpr::InList { expr, negated, .. } = taken {
                    *self = BoundExpr::InSet { expr, keys, negated };
                }
            }
            BoundExpr::Or(parts) => {
                parts.iter_mut().for_each(Self::build_key_tables);
                // The column most branches are keyed on.
                let mut counts: Vec<(usize, usize)> = Vec::new();
                for (slot, _) in parts.iter().filter_map(dispatch_head) {
                    match counts.iter_mut().find(|(s, _)| *s == slot) {
                        Some((_, n)) => *n += 1,
                        None => counts.push((slot, 1)),
                    }
                }
                let Some(&(slot, n)) = counts.iter().max_by_key(|(_, n)| *n) else {
                    return;
                };
                if n < DISPATCH_MIN_BRANCHES {
                    return;
                }
                let mut arms = Vec::with_capacity(n);
                let mut tail = Vec::with_capacity(parts.len() - n);
                for branch in parts.drain(..) {
                    match dispatch_head(&branch) {
                        Some((s, key)) if s == slot => arms.push((key.clone(), branch)),
                        _ => tail.push(branch),
                    }
                }
                let table = Box::new(KeyTable::new(arms));
                *self = BoundExpr::KeyedOr { slot, table, tail };
            }
            _ => {}
        }
    }
}

/// A pre-bound predicate program for batched filtering: the executor binds
/// a predicate once, then drives whole batches of rows through it, keeping
/// a selection vector of survivors so only output rows are ever cloned.
/// Constant predicates (the guarded rewrite's default-deny `FALSE`, or an
/// absent WHERE clause) are recognized up front and never touch a row.
#[derive(Debug)]
pub enum FilterProgram {
    /// No predicate, or a constant-true one: every row survives.
    KeepAll,
    /// Constant-false predicate: no row survives (and no input need be
    /// read at all — callers should check [`FilterProgram::drops_all`]).
    DropAll,
    /// Evaluate the bound expression per row.
    Eval(BoundExpr),
}

impl FilterProgram {
    /// Compile from an optional bound predicate. Wide disjunctions of
    /// `column = key AND …` branches — a guarded expression is one — are
    /// compiled for keyed dispatch ([`BoundExpr::KeyedOr`]), IN-lists of
    /// literals to sorted key tables ([`BoundExpr::InSet`]).
    pub fn new(bound: Option<BoundExpr>) -> Self {
        let Some(mut bound) = bound else {
            return FilterProgram::KeepAll;
        };
        match bound.unshared() {
            BoundExpr::Literal(Value::Bool(false)) => FilterProgram::DropAll,
            BoundExpr::Literal(Value::Bool(true)) => FilterProgram::KeepAll,
            _ => {
                bound.build_key_tables();
                FilterProgram::Eval(bound)
            }
        }
    }

    /// True iff the program is constant-false.
    pub fn drops_all(&self) -> bool {
        matches!(self, FilterProgram::DropAll)
    }

    /// Evaluate one row.
    pub fn matches(&self, row: &[Value], ctx: &EvalContext<'_>) -> DbResult<bool> {
        match self {
            FilterProgram::KeepAll => Ok(true),
            FilterProgram::DropAll => Ok(false),
            FilterProgram::Eval(b) => b.eval_bool(row, ctx),
        }
    }

    /// Evaluate one row with nothing in scope but the tally it charges: no
    /// UDFs, no subquery runner, no correlation parameters — all a program
    /// bound with [`no_subqueries`] can need.
    pub fn matches_alone(&self, row: &[Value], tally: &Tally) -> DbResult<bool> {
        let (udfs, params) = (UdfRegistry::new(), HashMap::new());
        self.matches(row, &EvalContext { tally, udfs: &udfs, runner: None, params: &params })
    }

    /// Evaluate a batch, appending the indices of surviving items to the
    /// selection vector `sel`. `row_of` projects each batch item to its
    /// row (batches carry `&Row` or `(RowId, &Row)` depending on the
    /// access path).
    pub fn select_into<T>(
        &self,
        batch: &[T],
        row_of: impl Fn(&T) -> &[Value],
        ctx: &EvalContext<'_>,
        sel: &mut Vec<u32>,
    ) -> DbResult<()> {
        match self {
            FilterProgram::KeepAll => sel.extend(0..batch.len() as u32),
            FilterProgram::DropAll => {}
            FilterProgram::Eval(b) => {
                for (i, item) in batch.iter().enumerate() {
                    if b.eval_bool(row_of(item), ctx)? {
                        sel.push(i as u32);
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn layout() -> Layout {
        Layout::single(
            "w",
            Arc::new(TableSchema::of(
                "wifi",
                &[
                    ("owner", DataType::Int),
                    ("wifi_ap", DataType::Int),
                    ("ts_time", DataType::Time),
                ],
            )),
        )
    }

    fn ctx<'a>(
        tally: &'a Tally,
        udfs: &'a UdfRegistry,
        params: &'a HashMap<String, Value>,
    ) -> EvalContext<'a> {
        EvalContext { tally, udfs, runner: None, params }
    }

    #[test]
    fn bind_and_eval_comparison() {
        let l = layout();
        let e = Expr::col_eq(ColumnRef::qualified("w", "owner"), Value::Int(7));
        let b = bind(&e, &l, &Default::default(), &mut no_subqueries).unwrap();
        let tally = Tally::default();
        let udfs = UdfRegistry::new();
        let params = HashMap::new();
        let c = ctx(&tally, &udfs, &params);
        let row = vec![Value::Int(7), Value::Int(1200), Value::Time(3600)];
        assert!(b.eval_bool(&row, &c).unwrap());
        let row2 = vec![Value::Int(8), Value::Int(1200), Value::Time(3600)];
        assert!(!b.eval_bool(&row2, &c).unwrap());
        assert_eq!(tally.counters().predicate_evals, 2);
    }

    #[test]
    fn unqualified_resolution_and_ambiguity() {
        let mut l = layout();
        assert!(l.resolve(&ColumnRef::bare("wifi_ap")).is_ok());
        // Add a second table that also has `owner`: bare `owner` becomes
        // ambiguous but qualified refs still resolve.
        l.push(
            "g",
            Arc::new(TableSchema::of("grades", &[("owner", DataType::Int)])),
        );
        assert_eq!(
            l.resolve(&ColumnRef::bare("owner")),
            Err(DbError::AmbiguousColumn("owner".into()))
        );
        assert_eq!(l.resolve(&ColumnRef::qualified("g", "owner")), Ok(3));
    }

    #[test]
    fn and_short_circuits() {
        let l = layout();
        let e = Expr::And(vec![
            Expr::col_eq(ColumnRef::bare("owner"), Value::Int(1)),
            Expr::col_eq(ColumnRef::bare("wifi_ap"), Value::Int(9)),
        ]);
        let b = bind(&e, &l, &Default::default(), &mut no_subqueries).unwrap();
        let tally = Tally::default();
        let udfs = UdfRegistry::new();
        let params = HashMap::new();
        let c = ctx(&tally, &udfs, &params);
        // First conjunct false: second must not be evaluated.
        let row = vec![Value::Int(0), Value::Int(9), Value::Time(0)];
        assert!(!b.eval_bool(&row, &c).unwrap());
        assert_eq!(tally.counters().predicate_evals, 1);
    }

    #[test]
    fn or_short_circuits() {
        let l = layout();
        let e = Expr::Or(vec![
            Expr::col_eq(ColumnRef::bare("owner"), Value::Int(1)),
            Expr::col_eq(ColumnRef::bare("wifi_ap"), Value::Int(9)),
        ]);
        let b = bind(&e, &l, &Default::default(), &mut no_subqueries).unwrap();
        let tally = Tally::default();
        let udfs = UdfRegistry::new();
        let params = HashMap::new();
        let c = ctx(&tally, &udfs, &params);
        let row = vec![Value::Int(1), Value::Int(0), Value::Time(0)];
        assert!(b.eval_bool(&row, &c).unwrap());
        assert_eq!(tally.counters().predicate_evals, 1);
    }

    #[test]
    fn between_and_in_semantics() {
        let l = layout();
        let between = Expr::Between {
            expr: Box::new(Expr::Column(ColumnRef::bare("ts_time"))),
            low: Box::new(Expr::Literal(Value::Time(9 * 3600))),
            high: Box::new(Expr::Literal(Value::Time(10 * 3600))),
            negated: false,
        };
        let b = bind(&between, &l, &Default::default(), &mut no_subqueries).unwrap();
        let tally = Tally::default();
        let udfs = UdfRegistry::new();
        let params = HashMap::new();
        let c = ctx(&tally, &udfs, &params);
        let at_nine = vec![Value::Int(0), Value::Int(0), Value::Time(9 * 3600)];
        let at_noon = vec![Value::Int(0), Value::Int(0), Value::Time(12 * 3600)];
        assert!(b.eval_bool(&at_nine, &c).unwrap());
        assert!(!b.eval_bool(&at_noon, &c).unwrap());

        let inlist = Expr::InList {
            expr: Box::new(Expr::Column(ColumnRef::bare("wifi_ap"))),
            list: vec![Expr::Literal(Value::Int(1200)), Expr::Literal(Value::Int(1201))],
            negated: true,
        };
        let b2 = bind(&inlist, &l, &Default::default(), &mut no_subqueries).unwrap();
        let row = vec![Value::Int(0), Value::Int(1300), Value::Time(0)];
        assert!(b2.eval_bool(&row, &c).unwrap());
    }

    #[test]
    fn null_comparisons_are_false() {
        let l = layout();
        let e = Expr::col_cmp(ColumnRef::bare("owner"), CmpOp::Ne, Value::Int(5));
        let b = bind(&e, &l, &Default::default(), &mut no_subqueries).unwrap();
        let tally = Tally::default();
        let udfs = UdfRegistry::new();
        let params = HashMap::new();
        let c = ctx(&tally, &udfs, &params);
        let row = vec![Value::Null, Value::Int(0), Value::Time(0)];
        assert!(!b.eval_bool(&row, &c).unwrap());
    }

    #[test]
    fn udf_called_through_expr() {
        let l = layout();
        let mut udfs = UdfRegistry::new();
        udfs.register(
            "is_even",
            Arc::new(|args: &[Value], _: &UdfContext<'_>| {
                Ok(Value::Bool(args[0].as_int().unwrap_or(1) % 2 == 0))
            }),
        );
        let e = Expr::Udf {
            name: "is_even".into(),
            args: vec![Expr::Column(ColumnRef::bare("owner"))],
        };
        let b = bind(&e, &l, &Default::default(), &mut no_subqueries).unwrap();
        let tally = Tally::default();
        let params = HashMap::new();
        let c = ctx(&tally, &udfs, &params);
        let row = vec![Value::Int(4), Value::Int(0), Value::Time(0)];
        assert!(b.eval_bool(&row, &c).unwrap());
        assert_eq!(tally.counters().udf_invocations, 1);
    }

    #[test]
    fn unknown_column_fails_at_bind() {
        let l = layout();
        let e = Expr::col_eq(ColumnRef::bare("missing"), Value::Int(1));
        assert!(matches!(
            bind(&e, &l, &Default::default(), &mut no_subqueries),
            Err(DbError::UnknownColumn(_))
        ));
    }

    #[test]
    fn flip_operator() {
        assert_eq!(CmpOp::Lt.flip(), CmpOp::Gt);
        assert_eq!(CmpOp::Ge.flip(), CmpOp::Le);
        assert_eq!(CmpOp::Eq.flip(), CmpOp::Eq);
    }

    #[test]
    fn builders_flatten() {
        let a = Expr::col_eq(ColumnRef::bare("owner"), Value::Int(1));
        let b = Expr::col_eq(ColumnRef::bare("owner"), Value::Int(2));
        let c2 = Expr::col_eq(ColumnRef::bare("owner"), Value::Int(3));
        let combined = Expr::and(Expr::and(a, b), c2);
        match combined {
            Expr::And(v) => assert_eq!(v.len(), 3),
            other => panic!("expected flat AND, got {other:?}"),
        }
    }

    #[test]
    fn shared_node_is_per_plan_iff_a_subquery_lies_beneath() {
        let per_plan = |e: &Expr| e.as_shared().unwrap().per_plan;
        let plain = Expr::shared(Expr::col_eq(ColumnRef::bare("owner"), Value::Int(1)));
        let sub = Expr::shared(Expr::Cmp {
            op: CmpOp::Eq,
            lhs: Box::new(Expr::Column(ColumnRef::bare("owner"))),
            rhs: Box::new(Expr::ScalarSubquery(Box::new(SelectQuery::star_from("wifi")))),
        });
        assert!(!per_plan(&plain));
        assert!(per_plan(&sub));
        // One level up, the answer comes from the shared children.
        assert!(!per_plan(&Expr::shared(Expr::any(vec![plain.clone(), plain.clone()]))));
        assert!(per_plan(&Expr::shared(Expr::any(vec![plain, sub]))));
    }
}
