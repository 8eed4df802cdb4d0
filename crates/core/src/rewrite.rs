//! Query rewriting (paper Sections 5.3–5.6).
//!
//! For every protected relation in a query, the rewriter builds a `WITH`
//! clause selecting exactly the tuples the querier may see, and repoints
//! the query at it:
//!
//! ```sql
//! WITH r_sieve AS (
//!   SELECT * FROM r FORCE INDEX (g1, …, gn)
//!   WHERE (oc_g1 AND qpred AND (OC_a OR OC_b OR …))
//!      OR (oc_g2 AND qpred AND delta(17, col_0, …))
//!      OR …
//! ) SELECT … FROM r_sieve …
//! ```
//!
//! The WITH body is the read's filter, not a table, when the query reads
//! it once: the engine plans such a body as its reader's read of `r`
//! (`minidb::planner`), with the body's hint and `WHERE` as that read's
//! access path and filter, and leaves out of the filter the query
//! conjuncts the body repeats. So a guarded join keeps the index nested
//! loop the base relation offers, and no guarded row is copied before
//! the query sees it. A relation read twice shares one body, which is
//! materialized. The SQL text does not change either way.
//!
//! Three decisions are made per relation, all cost-model driven:
//! the access strategy (`LinearScan` / `IndexQuery` / `IndexGuards`,
//! Section 5.5), per-guard inline-vs-∆ (Section 5.4), and whether to push
//! the query's own selective predicate into the guard branches
//! (Section 5.5).
//!
//! The access strategy is the engine's access plan, not a second opinion
//! on it. IndexQuery asks the engine's planner
//! ([`minidb::planner::conjunctive_path`]) which indexes it would read
//! the query's conjuncts through — one, or an intersection of several —
//! and takes `ρ(p)` and the strategy's cost from that answer; the WITH
//! body is then `qpred AND (guard OR …)` under `FORCE INDEX (<that
//! path's columns>)`, a hint under which the planner derives the same
//! path again. IndexGuards forces the guards' columns, and every
//! disjunct is probed; LinearScan says `USE INDEX ()`. Whichever drives
//! the read, the engine checks a fetched row against the guard disjunction
//! by key (`minidb::expr::BoundExpr::KeyedOr`): one hash probe of the
//! row's `owner` among the guard heads, then that guard's partition only
//! — the per-tuple cost `α·|P_Gi|·c_e` of Equation 3, not `|G|` head
//! comparisons first.
//!
//! Inline or ∆, a branch's partition is one expression: its policies' DNF
//! (`policy_expression`), built once. Inline, the branch splices it;
//! behind ∆ it is registered ([`DeltaRegistry::register_partition`]),
//! where the engine binds that same expression and the UDF evaluates it
//! per tuple with the engine's own evaluator and owner-keyed dispatch. So
//! the two forms admit the same rows, and the verifier proves the
//! expression the ∆ lease keeps.
//!
//! Rewriting is split in two so the middleware's guard cache can amortize
//! the expensive half: [`compile_guard_fragment`] turns a guarded
//! expression into engine expressions once (policy DNF construction and ∆
//! partition registration happen here), and [`rewrite_query`] assembles a
//! concrete query from cached fragments — per-query work is only the
//! strategy choice and predicate pushdown. The fragment holds its guard
//! disjunction, each branch's partition and each branch's arm — its
//! `condition AND partition` — as one shared node
//! ([`minidb::expr::Expr::Shared`]): a rewrite splices it by refcount and
//! the engine binds it once, so neither the rewrite nor the plan of a
//! request is sized by the querier's policies. The disjunction is a list
//! of arm refcounts, and binding it takes each arm's bound form as it
//! stands. So a grant placed into a cached expression costs one branch:
//! [`splice_guard_fragment`] compiles the new guard's branch and splices
//! it into the cached fragment, every other branch kept by refcount, and
//! the next plan binds the new arm and the new disjunction only.
//!
//! Mediation is **complete over the query tree**: protected relations are
//! guarded wherever they are read — the top-level `FROM`, derived tables,
//! `WITH` bodies, and scalar subqueries, at any nesting depth (the
//! incomplete-mediation failure mode of guarding only the outermost
//! `FROM` is exactly what Guarnieri et al. warn against). Names are
//! resolved against the query's `WITH` scope first: a CTE that shadows a
//! protected relation name is a reference to the CTE's (already-mediated)
//! result, not a fresh read of the base table.

use crate::backend::SqlBackend;
use crate::cost::{AccessStrategy, CostModel};
use crate::delta::{delta_call_expr, DeltaRegistry, PartitionHandle};
use crate::guard::{Guard, GuardedExpression};
use crate::policy::{policy_expression, Policy, PolicyId};
use crate::error::{SieveError, SieveResult};
use minidb::expr::Expr;
use minidb::plan::{IndexHint, SelectQuery, TableRef, TableSource, WithClause};
use minidb::schema::TableSchema;
use minidb::planner::{classify_predicate, conjunctive_path};
use minidb::Value;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// When to route a guard's partition through the ∆ operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeltaMode {
    /// Cost-model decision per guard (the paper's behaviour).
    #[default]
    Auto,
    /// Always inline policy DNFs (Guard&Inlining everywhere).
    Never,
    /// Always call ∆ (except partitions with derived-value policies).
    Always,
}

/// Rewrite knobs (defaults reproduce the paper's SIEVE).
#[derive(Debug, Clone, Default)]
pub struct RewriteOptions {
    /// Inline vs ∆ policy.
    pub delta_mode: DeltaMode,
    /// Disable pushing the query's selective predicate into guard branches
    /// (Section 5.5). On by default; the ablation bench turns it off.
    pub no_predicate_pushdown: bool,
    /// Force a specific access strategy instead of the cost model's pick.
    pub forced_strategy: Option<AccessStrategy>,
}

/// What the rewriter decided for one protected relation.
#[derive(Debug, Clone)]
pub struct RelationRewrite {
    /// Base relation name.
    pub relation: String,
    /// Name of the generated WITH clause.
    pub with_name: String,
    /// Chosen access strategy.
    pub strategy: AccessStrategy,
    /// Number of guards in the guarded expression.
    pub guard_count: usize,
    /// How many guards were routed through ∆.
    pub delta_guards: usize,
    /// Σ ρ(G_i): estimated rows the guards read.
    pub est_guard_rows: f64,
    /// Optimizer estimate for the query predicate (None: not sargable).
    pub est_query_rows: Option<f64>,
}

/// A rewritten query plus the per-relation decisions.
#[derive(Debug, Clone)]
pub struct RewriteOutput {
    /// The executable rewritten query.
    pub query: SelectQuery,
    /// Decisions, one per protected relation occurrence.
    pub relations: Vec<RelationRewrite>,
    /// The compiled fragments the query was assembled from. Holding them
    /// pins the fragments' ∆ partitions (see [`PartitionHandle`]): the
    /// rewritten `query` embeds raw partition keys, so it stays executable
    /// for the lifetime of this output even if a concurrent invalidation
    /// replaces the cached fragments meanwhile.
    pub fragments: Vec<Arc<GuardFragment>>,
}

/// One guard branch compiled to engine expressions: the guard predicate
/// and its partition filter (inline policy DNF or a ∆ call), kept apart so
/// the per-query assembler can interleave a pushed query predicate, and
/// their conjunction, the arm the fragment's disjunction is made of.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledBranch {
    /// The guard predicate `oc_g`.
    pub condition: Expr,
    /// The partition filter `P_Gi` (policy DNF or `delta(key, …)` call),
    /// held once ([`Expr::shared`]) for every query and querier it is
    /// spliced into.
    pub partition: Expr,
    /// `condition AND partition`, held once ([`Expr::shared`]), built
    /// when the branch is compiled: every disjunction the branch stands in
    /// holds it by refcount, and the engine binds it once for all of them.
    pub arm: Expr,
    /// The RAII lease on the ∆ partition a `delta` call names: the
    /// partition stays resolvable while any clone of the branch (or of a
    /// fragment or [`RewriteOutput`] holding it) is alive, and is freed
    /// when the last one drops — no manual reclamation, no use-after-free
    /// under concurrent invalidation. `None` for an inline DNF.
    pub delta: Option<PartitionHandle>,
}

/// Hold a compiled expression once ([`Expr::shared`]): splicing it into a
/// query is a refcount and the engine binds it once. A conjunction stays as
/// it is — the `AND` it is spliced into flattens it into itself, which is
/// the shape the SQL parser reads back — and so does a node already held
/// once.
fn share(e: Expr) -> Expr {
    match e {
        Expr::And(_) | Expr::Shared(_) => e,
        other => Expr::shared(other),
    }
}

/// The cacheable rewrite fragment of one guarded expression: every guard
/// branch rendered to bound-ready expressions, with its ∆ registrations.
/// Building this is the per-query cost the guard cache eliminates.
#[derive(Debug, Clone)]
pub struct GuardFragment {
    /// Compiled branches, in guard order. A fragment spliced from another
    /// holds the branches it kept by refcount.
    pub branches: Vec<Arc<CompiledBranch>>,
    /// The whole guard disjunction `OR_i arm_i` over `branches`, held once
    /// ([`Expr::shared`]): the WITH body of every rewrite that pushes no
    /// query predicate into the branches splices this node, and the engine
    /// binds it — key tables and all — for the first, taking each arm's
    /// bound form as it stands.
    pub disjunction: Expr,
    /// Distinct guard attributes (sorted) — the FORCE INDEX column list.
    pub guard_attrs: Vec<String>,
    /// Σ ρ(G_i) at compile time.
    pub est_guard_rows: f64,
}

/// The fragment of no guards: the empty disjunction, which denies all.
impl Default for GuardFragment {
    fn default() -> Self {
        GuardFragment {
            branches: Vec::new(),
            disjunction: deny_all_expr(),
            guard_attrs: Vec::new(),
            est_guard_rows: 0.0,
        }
    }
}

impl GuardFragment {
    /// Leases on the ∆ partitions this fragment's branches call, in
    /// branch order.
    pub fn partitions(&self) -> impl Iterator<Item = &PartitionHandle> {
        self.branches.iter().filter_map(|b| b.delta.as_ref())
    }
}

/// A guarded expression paired with its compiled fragment — what the
/// rewriter consumes per protected relation.
#[derive(Debug, Clone)]
pub struct CompiledRelation {
    /// The (effective) guarded expression.
    pub expr: Arc<GuardedExpression>,
    /// Its compiled rewrite fragment.
    pub fragment: Arc<GuardFragment>,
}

/// Compile one guard: its condition, its partition — the policy DNF,
/// built once and either spliced inline or registered behind ∆, per
/// `delta_mode` and the cost model — and their arm. `by_id` holds the
/// guard's policies.
fn compile_branch(
    schema: &Arc<TableSchema>,
    delta: &Arc<DeltaRegistry>,
    g: &Guard,
    by_id: &HashMap<PolicyId, &Policy>,
    cost: &CostModel,
    delta_mode: DeltaMode,
) -> SieveResult<Arc<CompiledBranch>> {
    let partition_policies: Vec<&Policy> =
        g.policies.iter().filter_map(|id| by_id.get(id).copied()).collect();
    let has_derived = partition_policies.iter().any(|p| p.has_derived_condition());
    let distinct_owners = {
        let mut owners: Vec<i64> = partition_policies.iter().map(|p| p.owner).collect();
        owners.sort_unstable();
        owners.dedup();
        owners.len()
    };
    let use_delta = !has_derived
        && match delta_mode {
            DeltaMode::Never => false,
            DeltaMode::Always => true,
            DeltaMode::Auto => cost.prefer_delta(partition_policies.len(), distinct_owners),
        };
    let dnf = policy_expression(&partition_policies);
    let (partition, handle) = if use_delta {
        let handle = delta.register_partition(schema, dnf)?;
        (share(delta_call_expr(handle.key(), schema)), Some(handle))
    } else {
        (share(dnf), None)
    };
    let condition = g.condition.to_expr();
    let arm = Expr::shared(Expr::and(condition.clone(), partition.clone()));
    Ok(Arc::new(CompiledBranch { condition, partition, arm, delta: handle }))
}

/// Compile a guarded expression into a reusable rewrite fragment: every
/// guard's branch spliced into the empty fragment
/// ([`splice_guard_fragment`]). `by_id` holds the expression's policies.
pub fn compile_guard_fragment(
    backend: &dyn SqlBackend,
    delta: &Arc<DeltaRegistry>,
    ge: &GuardedExpression,
    by_id: &HashMap<PolicyId, &Policy>,
    cost: &CostModel,
    delta_mode: DeltaMode,
) -> SieveResult<GuardFragment> {
    let every: Vec<usize> = (0..ge.guards.len()).collect();
    let empty = GuardFragment::default();
    splice_guard_fragment(backend, delta, &empty, ge, &every, by_id, cost, delta_mode)
}

/// Splice the guards a placement added into the fragment it placed them
/// into: `ge` is `current`'s expression with guards inserted at `placed`
/// (ascending positions in `ge`). Only those guards' branches are compiled
/// (inlining the policy DNF or registering a ∆ partition per the cost
/// model), so `by_id` need hold only their policies; every other branch is
/// `current`'s, in order, held by refcount — its arm and partition, bound
/// forms and ∆ lease included. So the next plan binds the new arms and the
/// new disjunction, nothing else. Branch for branch, the result is what
/// [`compile_guard_fragment`] makes of `ge` under the same `delta_mode` (a
/// ∆ partition under another key).
#[allow(clippy::too_many_arguments)]
pub fn splice_guard_fragment(
    backend: &dyn SqlBackend,
    delta: &Arc<DeltaRegistry>,
    current: &GuardFragment,
    ge: &GuardedExpression,
    placed: &[usize],
    by_id: &HashMap<PolicyId, &Policy>,
    cost: &CostModel,
    delta_mode: DeltaMode,
) -> SieveResult<GuardFragment> {
    if current.branches.len() + placed.len() != ge.guards.len() {
        return Err(SieveError::Internal("splice: the placed guards do not fit the fragment"));
    }
    let schema = backend.table_entry(&ge.relation)?.schema();
    let (mut kept, mut new) = (current.branches.iter(), placed.iter().peekable());
    let mut branches = Vec::with_capacity(ge.guards.len());
    for (i, g) in ge.guards.iter().enumerate() {
        let branch = match new.next_if_eq(&&i) {
            Some(_) => compile_branch(schema, delta, g, by_id, cost, delta_mode)?,
            None => kept.next().map(Arc::clone).ok_or(SieveError::Internal(
                "splice: a placed position is out of order",
            ))?,
        };
        branches.push(branch);
    }
    let mut guard_attrs = current.guard_attrs.clone();
    guard_attrs.extend(placed.iter().map(|&i| ge.guards[i].condition.attr.clone()));
    guard_attrs.sort_unstable();
    guard_attrs.dedup();
    let arms = branches.iter().map(|b| b.arm.clone()).collect();
    Ok(GuardFragment {
        branches,
        disjunction: share(Expr::any(arms)),
        guard_attrs,
        est_guard_rows: ge.total_guard_rows(),
    })
}

/// Compile fragments for a map of guarded expressions (the one-shot path
/// used by tests and direct callers without a middleware cache).
pub fn compile_relations(
    backend: &dyn SqlBackend,
    delta: &Arc<DeltaRegistry>,
    guarded: &HashMap<String, GuardedExpression>,
    by_id: &HashMap<PolicyId, &Policy>,
    cost: &CostModel,
    delta_mode: DeltaMode,
) -> SieveResult<HashMap<String, CompiledRelation>> {
    let mut out = HashMap::new();
    for (rel, ge) in guarded {
        let fragment = compile_guard_fragment(backend, delta, ge, by_id, cost, delta_mode)?;
        out.insert(
            rel.clone(),
            CompiledRelation {
                expr: Arc::new(ge.clone()),
                fragment: Arc::new(fragment),
            },
        );
    }
    Ok(out)
}

// The traversal walkers the rewriter is built on live in the shared
// visitor module (the analyzer uses them too); re-exported here so the
// historical `rewrite::collect_protected` paths keep working.
pub use crate::visitor::{classify_protected_refs, collect_protected};
use crate::visitor::contains_subquery;

/// The recursive rewriter: one instance per [`rewrite_query`] call,
/// accumulating the guard WITH clauses and per-relation decisions while
/// descending through the query tree.
struct Rewriter<'a> {
    backend: &'a dyn SqlBackend,
    compiled: &'a HashMap<String, CompiledRelation>,
    cost: &'a CostModel,
    opts: &'a RewriteOptions,
    /// Scope-aware reference counts per protected relation, over the whole
    /// tree. A relation read more than once shares one WITH clause without
    /// predicate pushdown (the paper's note in Section 5.3).
    occurrences: HashMap<String, usize>,
    /// Every WITH name the original query defines anywhere, plus the guard
    /// names we allocate — guard CTE names must collide with neither.
    used_names: HashSet<String>,
    /// relation → guard WITH name, once created.
    created: HashMap<String, String>,
    guard_withs: Vec<WithClause>,
    decisions: Vec<RelationRewrite>,
}

impl Rewriter<'_> {
    /// First pass: count protected references (scope-aware) and record the
    /// WITH names in use.
    fn survey(&mut self, query: &SelectQuery, scope: &HashSet<String>) {
        let mut scope = scope.clone();
        for wc in &query.with {
            self.used_names.insert(wc.name.clone());
            self.survey(&wc.query, &scope);
            scope.insert(wc.name.clone());
        }
        for tref in &query.from {
            match &tref.source {
                TableSource::Named(rel) => {
                    if self.compiled.contains_key(rel) && !scope.contains(rel) {
                        *self.occurrences.entry(rel.clone()).or_insert(0) += 1;
                    }
                }
                TableSource::Derived(q) => self.survey(q, &scope),
            }
        }
        let mut collect = |q: &SelectQuery| self.survey(q, &scope);
        if let Some(p) = &query.predicate {
            p.visit_subqueries(&mut collect);
        }
    }

    /// Second pass: rebuild one query level, guarding protected reads and
    /// recursing into derived tables, WITH bodies, and scalar subqueries.
    fn rewrite_level(
        &mut self,
        query: &SelectQuery,
        scope: &HashSet<String>,
    ) -> SieveResult<SelectQuery> {
        let mut scope = scope.clone();
        let mut with = Vec::with_capacity(query.with.len());
        for wc in &query.with {
            let body = self.rewrite_level(&wc.query, &scope)?;
            scope.insert(wc.name.clone());
            with.push(WithClause {
                name: wc.name.clone(),
                query: body,
            });
        }

        // FROM schemas for predicate classification at this level
        // (placeholders for derived, CTE, and scope-shadowed sources).
        let mut table_schemas = Vec::new();
        for tref in &query.from {
            let schema = match &tref.source {
                TableSource::Named(name)
                    if !scope.contains(name) && self.backend.has_relation(name) =>
                {
                    self.backend.table_entry(name)?.schema().clone()
                }
                _ => Arc::new(minidb::TableSchema::new(tref.alias.clone(), vec![])),
            };
            table_schemas.push((tref.alias.clone(), schema));
        }
        let classified = query
            .predicate
            .as_ref()
            .map(|p| classify_predicate(p, &table_schemas));

        let mut from = Vec::with_capacity(query.from.len());
        for tref in &query.from {
            match &tref.source {
                TableSource::Named(rel)
                    if !scope.contains(rel) && self.compiled.contains_key(rel) =>
                {
                    let with_name = match self.created.get(rel) {
                        Some(existing) => existing.clone(),
                        None => {
                            // This level's query predicate for the alias is
                            // pushable only when this is the relation's sole
                            // read in the whole tree and the predicate has
                            // no subqueries of its own.
                            let sole =
                                self.occurrences.get(rel.as_str()).copied().unwrap_or(1) == 1;
                            let local_bare = if sole {
                                classified
                                    .as_ref()
                                    .and_then(|c| c.local_predicate(&tref.alias))
                                    .filter(|p| !contains_subquery(p))
                                    .map(|p| p.strip_alias(&tref.alias))
                            } else {
                                None
                            };
                            self.create_guard_with(rel, local_bare)?
                        }
                    };
                    from.push(TableRef {
                        source: TableSource::Named(with_name),
                        alias: tref.alias.clone(),
                        hint: IndexHint::None,
                    });
                }
                TableSource::Named(_) => from.push(tref.clone()),
                TableSource::Derived(q) => {
                    let inner = self.rewrite_level(q, &scope)?;
                    from.push(TableRef {
                        source: TableSource::Derived(Box::new(inner)),
                        alias: tref.alias.clone(),
                        hint: tref.hint.clone(),
                    });
                }
            }
        }

        let predicate = match &query.predicate {
            Some(p) => Some(self.rewrite_expr(p, &scope)?),
            None => None,
        };

        Ok(SelectQuery {
            with,
            select: query.select.clone(),
            from,
            predicate,
            group_by: query.group_by.clone(),
            limit: query.limit,
        })
    }

    /// Rebuild an expression, descending into scalar subqueries. The first
    /// failure stops the descent and is the result — a partly rewritten
    /// expression never leaves here.
    fn rewrite_expr(&mut self, e: &Expr, scope: &HashSet<String>) -> SieveResult<Expr> {
        let mut failed = None;
        let out = e.map(&mut |node| match node {
            Expr::ScalarSubquery(q) if failed.is_none() => {
                match self.rewrite_level(q, scope) {
                    Ok(inner) => Some(Expr::ScalarSubquery(Box::new(inner))),
                    Err(err) => {
                        failed = Some(err);
                        None
                    }
                }
            }
            _ => None,
        });
        failed.map_or(Ok(out), Err)
    }

    /// Build the guard WITH clause for a protected relation (strategy
    /// choice, optional pushdown, branch assembly) and record the decision.
    fn create_guard_with(&mut self, rel: &str, local_bare: Option<Expr>) -> SieveResult<String> {
        let cr = self
            .compiled
            .get(rel)
            .ok_or(SieveError::Internal("rewrite: guard WITH requested for an uncompiled relation"))?;
        let ge = &cr.expr;
        let fragment = &cr.fragment;
        let entry = self.backend.table_entry(rel)?;

        // The engine's own index path for the query predicate: its
        // estimate is ρ(p) (Section 5.5), its cost prices IndexQuery, and
        // its columns are the hint under which the engine runs that path.
        let query_path = local_bare
            .as_ref()
            .and_then(|p| conjunctive_path(entry, rel, p, None));
        let est_query_rows = query_path.as_ref().map(|p| p.est_rows);

        let est_guard_rows = fragment.est_guard_rows;
        let strategy = self.opts.forced_strategy.unwrap_or_else(|| {
            // Guards whose attribute has no index cannot drive probes: the
            // engine's FORCE-hint union degrades to a scan as soon as one
            // disjunct is unprobeable, so cost those guards as scanned.
            let (indexed, scanned) = ge.guards.iter().fold((0.0, 0.0), |(i, s), g| {
                if entry.has_index(&g.condition.attr) {
                    (i + g.est_rows, s)
                } else {
                    (i, s + g.est_rows)
                }
            });
            self.cost
                .strategy_costs_split(
                    entry.table.len() as f64,
                    indexed,
                    scanned,
                    query_path.as_ref().map(|p| p.est_cost),
                )
                .best()
        });

        // The guard disjunction is the fragment's own node, spliced, unless
        // the query predicate is pushed into the branches — under
        // IndexGuards with a local predicate — and they are assembled
        // around it, one small conjunction per guard.
        let guard_or = match (&local_bare, strategy) {
            (Some(q), AccessStrategy::IndexGuards) if !self.opts.no_predicate_pushdown => {
                let pushed = |b: &Arc<CompiledBranch>| {
                    Expr::all(vec![b.condition.clone(), q.clone(), b.partition.clone()])
                };
                Expr::any(fragment.branches.iter().map(pushed).collect())
            }
            _ => fragment.disjunction.clone(),
        };
        let delta_guards = fragment.partitions().count();

        // Assemble the WITH body per strategy.
        let (body_pred, hint) = match strategy {
            AccessStrategy::IndexGuards => {
                (guard_or, IndexHint::Force(fragment.guard_attrs.clone()))
            }
            AccessStrategy::IndexQuery => {
                let pred = match &local_bare {
                    Some(q) => Expr::and(q.clone(), guard_or),
                    None => guard_or,
                };
                let hint = query_path
                    .as_ref()
                    .map_or(IndexHint::None, |p| IndexHint::Force(p.columns()));
                (pred, hint)
            }
            AccessStrategy::LinearScan => {
                let pred = match &local_bare {
                    Some(q) => Expr::and(q.clone(), guard_or),
                    None => guard_or,
                };
                (pred, IndexHint::IgnoreAll)
            }
        };

        let with_name = self.fresh_name(rel);
        self.guard_withs.push(WithClause {
            name: with_name.clone(),
            query: SelectQuery {
                with: vec![],
                select: vec![minidb::SelectItem::Star],
                from: vec![TableRef {
                    source: TableSource::Named(rel.to_string()),
                    alias: rel.to_string(),
                    hint,
                }],
                predicate: Some(body_pred),
                group_by: vec![],
                limit: None,
            },
        });
        self.created.insert(rel.to_string(), with_name.clone());
        self.decisions.push(RelationRewrite {
            relation: rel.to_string(),
            with_name: with_name.clone(),
            strategy,
            guard_count: ge.guards.len(),
            delta_guards,
            est_guard_rows,
            est_query_rows,
        });
        Ok(with_name)
    }

    /// A guard CTE name free of collisions with the query's own WITH
    /// names and with base tables.
    fn fresh_name(&mut self, rel: &str) -> String {
        let mut name = format!("{rel}_sieve");
        let mut i = 2;
        while self.used_names.contains(&name) || self.backend.has_relation(&name) {
            name = format!("{rel}_sieve{i}");
            i += 1;
        }
        self.used_names.insert(name.clone());
        name
    }
}

/// Rewrite a query under the compiled guard fragments of its protected
/// relations. `compiled` maps relation name → the querier's compiled
/// relation (see [`compile_guard_fragment`]); only cheap per-query work
/// happens here — strategy choice, predicate pushdown, WITH assembly.
///
/// The whole query tree is mediated: protected reads inside derived
/// tables, WITH bodies, and scalar subqueries are repointed at the guard
/// WITH clause exactly like top-level reads, with names resolved against
/// the WITH scope first (CTE shadowing). The guard WITH clauses are
/// prepended ahead of the query's own, so the query's CTE bodies may
/// reference them.
pub fn rewrite_query(
    backend: &dyn SqlBackend,
    original: &SelectQuery,
    compiled: &HashMap<String, CompiledRelation>,
    cost: &CostModel,
    opts: &RewriteOptions,
) -> SieveResult<RewriteOutput> {
    let mut rw = Rewriter {
        backend,
        compiled,
        cost,
        opts,
        occurrences: HashMap::new(),
        used_names: HashSet::new(),
        created: HashMap::new(),
        guard_withs: Vec::new(),
        decisions: Vec::new(),
    };
    let empty_scope = HashSet::new();
    rw.survey(original, &empty_scope);
    let mut out_query = rw.rewrite_level(original, &empty_scope)?;

    // Guard WITH clauses go first: they read only base tables, while the
    // query's own (rewritten) CTE bodies may now refer to them.
    let mut with = rw.guard_withs;
    with.append(&mut out_query.with);
    out_query.with = with;

    Ok(RewriteOutput {
        query: out_query,
        relations: rw.decisions,
        fragments: compiled.values().map(|cr| Arc::clone(&cr.fragment)).collect(),
    })
}

/// Convenience used by tests and baselines: constant FALSE (deny all).
pub fn deny_all_expr() -> Expr {
    Expr::Literal(Value::Bool(false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::expr::ColumnRef;
    use crate::guard::{generate_guarded_expression, GuardSelectionStrategy};
    use crate::policy::{CondPredicate, ObjectCondition, QuerierSpec};
    use minidb::value::DataType;
    use minidb::{Database, DbProfile, TableSchema};

    fn setup() -> (Database, Vec<Policy>) {
        let mut db = Database::new(DbProfile::MySqlLike);
        db.create_table(TableSchema::of(
            "wifi_dataset",
            &[
                ("id", DataType::Int),
                ("owner", DataType::Int),
                ("wifi_ap", DataType::Int),
                ("ts_time", DataType::Time),
            ],
        ))
        .unwrap();
        for i in 0..3000i64 {
            db.insert(
                "wifi_dataset",
                vec![
                    Value::Int(i),
                    Value::Int(i % 60),
                    Value::Int(1000 + i % 12),
                    Value::Time(((i * 97) % 86400) as u32),
                ],
            )
            .unwrap();
        }
        for col in ["owner", "wifi_ap", "ts_time"] {
            db.create_index("wifi_dataset", col).unwrap();
        }
        db.analyze("wifi_dataset").unwrap();
        let policies: Vec<Policy> = (0..12)
            .map(|i| {
                let mut p = Policy::new(
                    (i % 6) as i64,
                    "wifi_dataset",
                    QuerierSpec::User(999),
                    "Any",
                    vec![ObjectCondition::new(
                        "wifi_ap",
                        CondPredicate::Eq(Value::Int(1000 + (i % 3) as i64)),
                    )],
                );
                p.id = i + 1;
                p
            })
            .collect();
        (db, policies)
    }

    fn guarded_for(
        db: &Database,
        policies: &[Policy],
    ) -> (HashMap<String, GuardedExpression>, CostModel) {
        let cost = CostModel::default();
        let refs: Vec<&Policy> = policies.iter().collect();
        let ge = generate_guarded_expression(
            &refs,
            db.table("wifi_dataset").unwrap(),
            &cost,
            GuardSelectionStrategy::CostOptimal,
            999,
            "Any",
            "wifi_dataset",
        );
        let mut m = HashMap::new();
        m.insert("wifi_dataset".to_string(), ge);
        (m, cost)
    }

    fn compiled_for<'a>(
        db: &Database,
        delta: &Arc<DeltaRegistry>,
        guarded: &HashMap<String, GuardedExpression>,
        policies: &'a [Policy],
        cost: &CostModel,
        mode: DeltaMode,
    ) -> HashMap<String, CompiledRelation> {
        let by_id: HashMap<PolicyId, &'a Policy> = policies.iter().map(|p| (p.id, p)).collect();
        compile_relations(db, delta, guarded, &by_id, cost, mode).unwrap()
    }

    #[test]
    fn rewrite_adds_with_clause_and_repoints_from() {
        let (db, policies) = setup();
        let (guarded, cost) = guarded_for(&db, &policies);
        let delta = DeltaRegistry::new();
        let compiled =
            compiled_for(&db, &delta, &guarded, &policies, &cost, DeltaMode::default());
        let q = SelectQuery::star_from("wifi_dataset");
        let out = rewrite_query(&db, &q, &compiled, &cost, &RewriteOptions::default()).unwrap();
        assert_eq!(out.query.with.len(), 1);
        assert_eq!(out.query.with[0].name, "wifi_dataset_sieve");
        assert!(matches!(
            &out.query.from[0].source,
            TableSource::Named(n) if n == "wifi_dataset_sieve"
        ));
        assert_eq!(out.relations.len(), 1);
        assert!(out.relations[0].guard_count > 0);
    }

    #[test]
    fn rewritten_query_enforces_policies() {
        let (db, policies) = setup();
        let (guarded, cost) = guarded_for(&db, &policies);
        let delta = DeltaRegistry::new();
        let compiled =
            compiled_for(&db, &delta, &guarded, &policies, &cost, DeltaMode::default());
        let q = SelectQuery::star_from("wifi_dataset");
        let out = rewrite_query(&db, &q, &compiled, &cost, &RewriteOptions::default()).unwrap();
        let result = db.run_query(&out.query).unwrap();
        // Oracle comparison.
        let refs: Vec<&Policy> = policies.iter().collect();
        let oracle = crate::semantics::visible_rows(&db, "wifi_dataset", &refs).unwrap();
        let mut a = result.rows;
        let mut b = oracle;
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn delta_mode_always_routes_partitions() {
        let (mut db, policies) = setup();
        let (guarded, cost) = guarded_for(&db, &policies);
        let delta = DeltaRegistry::new();
        delta.install(&mut db);
        let compiled = compiled_for(&db, &delta, &guarded, &policies, &cost, DeltaMode::Always);
        let q = SelectQuery::star_from("wifi_dataset");
        let opts = RewriteOptions {
            delta_mode: DeltaMode::Always,
            ..Default::default()
        };
        let out = rewrite_query(&db, &q, &compiled, &cost, &opts).unwrap();
        assert!(out.relations[0].delta_guards > 0);
        assert_eq!(out.relations[0].delta_guards, out.relations[0].guard_count);
        // Still correct.
        let result = db.run_query(&out.query).unwrap();
        let refs: Vec<&Policy> = policies.iter().collect();
        let mut oracle = crate::semantics::visible_rows(&db, "wifi_dataset", &refs).unwrap();
        let mut got = result.rows;
        got.sort();
        oracle.sort();
        assert_eq!(got, oracle);
    }

    #[test]
    fn query_predicate_pushdown_preserves_results() {
        let (db, policies) = setup();
        let (guarded, cost) = guarded_for(&db, &policies);
        let delta = DeltaRegistry::new();
        let compiled =
            compiled_for(&db, &delta, &guarded, &policies, &cost, DeltaMode::default());
        let q = SelectQuery::star_from("wifi_dataset").filter(Expr::col_eq(
            ColumnRef::qualified("wifi_dataset", "wifi_ap"),
            Value::Int(1001),
        ));
        let run = |no_push: bool, forced: Option<AccessStrategy>| {
            let opts = RewriteOptions {
                no_predicate_pushdown: no_push,
                forced_strategy: forced,
                ..Default::default()
            };
            let out = rewrite_query(&db, &q, &compiled, &cost, &opts).unwrap();
            let mut rows = db.run_query(&out.query).unwrap().rows;
            rows.sort();
            rows
        };
        let pushed = run(false, Some(AccessStrategy::IndexGuards));
        let unpushed = run(true, Some(AccessStrategy::IndexGuards));
        let via_query_index = run(false, Some(AccessStrategy::IndexQuery));
        let via_scan = run(false, Some(AccessStrategy::LinearScan));
        assert_eq!(pushed, unpushed);
        assert_eq!(pushed, via_query_index);
        assert_eq!(pushed, via_scan);
    }

    #[test]
    fn empty_guarded_expression_denies_all() {
        let (db, _) = setup();
        let cost = CostModel::default();
        let mut guarded = HashMap::new();
        guarded.insert(
            "wifi_dataset".to_string(),
            GuardedExpression {
                relation: "wifi_dataset".into(),
                querier: 999,
                purpose: "Any".into(),
                guards: vec![],
            },
        );
        let by_id = HashMap::new();
        let delta = DeltaRegistry::new();
        let compiled =
            compile_relations(&db, &delta, &guarded, &by_id, &cost, DeltaMode::default())
                .unwrap();
        let q = SelectQuery::star_from("wifi_dataset");
        let out = rewrite_query(&db, &q, &compiled, &cost, &RewriteOptions::default()).unwrap();
        let result = db.run_query(&out.query).unwrap();
        assert!(result.is_empty());
    }

    #[test]
    fn compiled_fragment_reused_across_queries() {
        // The same compiled fragment rewrites different queries (with and
        // without a selective predicate) without re-registering partitions.
        let (mut db, policies) = setup();
        let (guarded, cost) = guarded_for(&db, &policies);
        let delta = DeltaRegistry::new();
        delta.install(&mut db);
        let compiled =
            compiled_for(&db, &delta, &guarded, &policies, &cost, DeltaMode::default());
        let registered = delta.len();
        let q1 = SelectQuery::star_from("wifi_dataset");
        let q2 = SelectQuery::star_from("wifi_dataset").filter(Expr::col_eq(
            ColumnRef::qualified("wifi_dataset", "wifi_ap"),
            Value::Int(1001),
        ));
        let r1 = rewrite_query(&db, &q1, &compiled, &cost, &RewriteOptions::default()).unwrap();
        let r2 = rewrite_query(&db, &q2, &compiled, &cost, &RewriteOptions::default()).unwrap();
        assert_eq!(delta.len(), registered, "rewrites must not re-register ∆");
        assert!(!db.run_query(&r1.query).unwrap().is_empty());
        db.run_query(&r2.query).unwrap();
    }

    #[test]
    fn collector_walks_all_depths_and_honors_with_scope() {
        let protected: HashSet<String> =
            ["wifi_dataset".to_string(), "orders".to_string()].into();
        // WITH orders AS (SELECT * FROM wifi_dataset) SELECT * FROM orders:
        // the body read of wifi_dataset is a (nested) protected read; the
        // main-body `orders` is the CTE, not the protected base table.
        let q = SelectQuery::star_from("orders")
            .with_clause("orders", SelectQuery::star_from("wifi_dataset"));
        let all = collect_protected(&q, &protected);
        assert_eq!(
            all.into_iter().collect::<Vec<_>>(),
            vec!["wifi_dataset".to_string()]
        );
        let (top, nested) = classify_protected_refs(&q, &protected);
        assert!(top.is_empty(), "CTE reference must not count as base read");
        assert_eq!(nested.into_iter().collect::<Vec<_>>(), vec!["wifi_dataset"]);

        // Derived table + scalar subquery both count as nested reads.
        let derived = SelectQuery {
            with: vec![],
            select: vec![minidb::SelectItem::Star],
            from: vec![TableRef {
                source: TableSource::Derived(Box::new(SelectQuery::star_from("orders"))),
                alias: "d".into(),
                hint: IndexHint::None,
            }],
            predicate: Some(Expr::Cmp {
                op: minidb::CmpOp::Lt,
                lhs: Box::new(Expr::Column(ColumnRef::bare("x"))),
                rhs: Box::new(Expr::ScalarSubquery(Box::new(SelectQuery::star_from(
                    "wifi_dataset",
                )))),
            }),
            group_by: vec![],
            limit: None,
        };
        let (top, nested) = classify_protected_refs(&derived, &protected);
        assert!(top.is_empty());
        assert_eq!(nested.len(), 2);
    }

    #[test]
    fn nested_rewrite_leaves_no_unguarded_base_reads() {
        let (db, policies) = setup();
        let (guarded, cost) = guarded_for(&db, &policies);
        let delta = DeltaRegistry::new();
        let compiled =
            compiled_for(&db, &delta, &guarded, &policies, &cost, DeltaMode::default());
        let protected: HashSet<String> = ["wifi_dataset".to_string()].into();
        // WITH v AS (SELECT * FROM wifi_dataset) over a derived read, plus
        // a scalar-subquery read in the predicate.
        let inner = SelectQuery {
            with: vec![],
            select: vec![minidb::SelectItem::Star],
            from: vec![TableRef {
                source: TableSource::Derived(Box::new(SelectQuery::star_from(
                    "wifi_dataset",
                ))),
                alias: "d".into(),
                hint: IndexHint::None,
            }],
            predicate: None,
            group_by: vec![],
            limit: None,
        };
        let q = SelectQuery::star_from("v")
            .with_clause("v", inner)
            .filter(Expr::Cmp {
                op: minidb::CmpOp::Le,
                lhs: Box::new(Expr::Column(ColumnRef::bare("owner"))),
                rhs: Box::new(Expr::ScalarSubquery(Box::new(SelectQuery::star_from(
                    "wifi_dataset",
                )))),
            });
        let out = rewrite_query(&db, &q, &compiled, &cost, &RewriteOptions::default()).unwrap();
        // One shared guard CTE (the relation is read twice).
        assert_eq!(out.relations.len(), 1);
        // Strip the guard CTEs: no protected base read may remain anywhere.
        let mut stripped = out.query.clone();
        stripped
            .with
            .retain(|w| !out.relations.iter().any(|r| r.with_name == w.name));
        assert!(
            collect_protected(&stripped, &protected).is_empty(),
            "unguarded base reads remain: {stripped:?}"
        );
        // And the rewritten query still renders to parseable SQL.
        let sql = minidb::sql::render_query(&out.query);
        let reparsed = minidb::sql::parse(&sql).unwrap();
        assert_eq!(reparsed, out.query);
    }

    #[test]
    fn guard_cte_name_avoids_collisions() {
        let (db, policies) = setup();
        let (guarded, cost) = guarded_for(&db, &policies);
        let delta = DeltaRegistry::new();
        let compiled =
            compiled_for(&db, &delta, &guarded, &policies, &cost, DeltaMode::default());
        // The user already defines a CTE named wifi_dataset_sieve.
        let q = SelectQuery {
            with: vec![],
            select: vec![minidb::SelectItem::Star],
            from: vec![
                TableRef::aliased("wifi_dataset", "w"),
                TableRef::aliased("wifi_dataset_sieve", "u"),
            ],
            predicate: None,
            group_by: vec![],
            limit: None,
        }
        .with_clause("wifi_dataset_sieve", SelectQuery::star_from("wifi_dataset"));
        let out = rewrite_query(&db, &q, &compiled, &cost, &RewriteOptions::default()).unwrap();
        assert_eq!(out.relations.len(), 1);
        assert_ne!(out.relations[0].with_name, "wifi_dataset_sieve");
        assert!(out
            .query
            .with
            .iter()
            .any(|w| w.name == out.relations[0].with_name));
    }

    #[test]
    fn rendered_rewrite_is_parseable_sql() {
        let (db, policies) = setup();
        let (guarded, cost) = guarded_for(&db, &policies);
        let delta = DeltaRegistry::new();
        let compiled =
            compiled_for(&db, &delta, &guarded, &policies, &cost, DeltaMode::default());
        let q = SelectQuery::star_from("wifi_dataset");
        let out = rewrite_query(&db, &q, &compiled, &cost, &RewriteOptions::default()).unwrap();
        let sql = minidb::sql::render_query(&out.query);
        let reparsed = minidb::sql::parse(&sql).unwrap();
        assert_eq!(reparsed, out.query);
    }

    /// IndexQuery is one decision, not two: the columns the rewriter puts
    /// in `FORCE INDEX` are the probes the engine runs, and `ρ(p)` is what
    /// the engine estimates for them — on the hint-honouring profile
    /// because the hint binds, on the cost-based one because both sides
    /// asked the same `conjunctive_path`.
    #[test]
    fn index_query_hint_names_the_executed_probes() {
        use minidb::planner::AccessPlan;
        let (mut db, policies) = setup();
        db.create_table(TableSchema::of(
            "membership",
            &[("user_id", DataType::Int), ("grp", DataType::Int)],
        ))
        .unwrap();
        for u in 0..60i64 {
            db.insert("membership", vec![Value::Int(u), Value::Int(u % 4)]).unwrap();
        }
        let (guarded, cost) = guarded_for(&db, &policies);
        let delta = DeltaRegistry::new();
        let compiled =
            compiled_for(&db, &delta, &guarded, &policies, &cost, DeltaMode::default());
        let shapes = [
            // Q1: access points × a time window — an intersection.
            ("SELECT * FROM wifi_dataset AS w WHERE w.wifi_ap IN (1001, 1002) \
              AND w.ts_time BETWEEN '09:00' AND '11:00'", vec!["ts_time", "wifi_ap"]),
            // Q2: devices × a time window, one where the window is worth
            // walking and one where it is not.
            ("SELECT * FROM wifi_dataset AS w WHERE w.owner IN (1, 2, 3) \
              AND w.ts_time BETWEEN '09:00' AND '11:00'", vec!["owner", "ts_time"]),
            ("SELECT * FROM wifi_dataset AS w WHERE w.owner = 5 \
              AND w.ts_time BETWEEN '06:00' AND '18:00'", vec!["owner"]),
            // Q3: the join's local window.
            ("SELECT COUNT(DISTINCT w.owner) AS devices FROM membership AS m, wifi_dataset AS w \
              WHERE m.grp = 2 AND m.user_id = w.owner \
              AND w.ts_time BETWEEN '09:00' AND '10:00'", vec!["ts_time"]),
        ];
        for profile in [DbProfile::MySqlLike, DbProfile::PostgresLike] {
            db.set_profile(profile);
            for (sql, columns) in &shapes {
                let q = minidb::sql::parse(sql).unwrap();
                let out =
                    rewrite_query(&db, &q, &compiled, &cost, &RewriteOptions::default()).unwrap();
                let decision = &out.relations[0];
                assert_eq!(decision.strategy, AccessStrategy::IndexQuery, "{sql}");
                let body = &out.query.with[0].query;
                assert_eq!(
                    body.from[0].hint,
                    IndexHint::Force(columns.iter().map(|c| c.to_string()).collect()),
                    "{sql}"
                );
                // The body is read once: it is the read of the relation.
                let explained = db.explain(&out.query).unwrap();
                assert!(explained.ctes.is_empty(), "{profile:?} {sql}:\n{explained}");
                let read = explained.relations.iter().find(|r| r.table == "wifi_dataset").unwrap();
                // Q3's is an index nested loop on the join key; its hint
                // names the path the body runs when read on its own.
                let alone = db.explain(body).unwrap();
                let plan = match &read.join {
                    Some(join) => {
                        assert_eq!(join, "IndexNestedLoop(owner)", "{profile:?} {sql}");
                        assert_eq!(read.access_desc, "IndexLookup(owner)", "{profile:?} {sql}");
                        &alone.relations[0]
                    }
                    None => read,
                };
                let (AccessPlan::IndexOr { probes, .. } | AccessPlan::IndexIntersect { probes, .. }) =
                    &plan.access
                else {
                    panic!("{profile:?} {sql}: {}", plan.access_desc);
                };
                let probed: Vec<&str> = probes.iter().map(|p| p.column()).collect();
                assert_eq!(&probed, columns, "{profile:?} {sql}");
                assert_eq!(Some(plan.est_rows), decision.est_query_rows, "{profile:?} {sql}");
            }
        }
    }
}
