//! `sieve-core` — the SIEVE middleware (Pappachan et al., VLDB 2020).
//!
//! SIEVE makes fine-grained access control scale to thousands of per-user
//! policies by combining two reductions (paper Section 3.2):
//!
//! 1. **Fewer policies per tuple** — filter policies by query metadata
//!    ([`filter`]), then use tuple context inside the ∆ operator
//!    ([`delta`]) so each tuple is only checked against its owner's
//!    policies.
//! 2. **Fewer tuples per policy** — factor the policy set into *guarded
//!    expressions* ([`guard`]): cheap index-supported predicates, each
//!    guarding a partition of the policies, selected by the cost model
//!    ([`cost`]) via candidate merging (Theorem 1) and utility-greedy set
//!    cover (Algorithm 1).
//!
//! The middleware has one entry point: [`service::SieveService`], the
//! **concurrent** middleware object (`Send + Sync`, cheap clones, the
//! whole query path at `&self`) that a server shares across connection
//! threads and that tests, examples and experiments drive directly.
//! Per-querier [`session::Session`] handles capture the metadata once,
//! and [`session::Prepared`] statements pin a compiled rewrite for
//! repeated zero-middleware execution. Out-of-band mutation goes through
//! the `with_db_mut` / `with_backend_mut` / `with_options_mut` /
//! `with_groups_mut` closures, which bump the staleness counters cached
//! guards and prepared plans are checked against.
//!
//! A query plus its metadata is rewritten ([`rewrite`]) with
//! `WITH` clauses, index hints and inline-vs-∆ choices, and executed on a
//! pluggable execution backend ([`backend::SqlBackend`] — the in-process
//! [`minidb::Database`] by default, or the textual
//! [`backend::WireSqlBackend`] which ships rendered SQL across a simulated
//! wire as the paper's middleware does against a real server).
//! [`baselines`] implements the paper's comparison
//! strategies and [`semantics`] the reference oracle both are tested
//! against. [`dynamic`] is the paper's Section 6 model of when to
//! regenerate guards (Equations 18–19); the service brings a stale guard
//! current at its next read instead. [`store`] is the in-memory policy
//! registry: policies and guards live in the middleware, and the database
//! it guards is never written to on their account. [`deny`] folds deny
//! policies into the allow-only model the enforcement path assumes.
//! [`batch`] amortizes guard generation across batches of concurrent
//! queriers — shared candidate generation per `(purpose, relation)` group,
//! per-querier set cover.

#![warn(missing_docs)]
// The query path must fail closed with typed errors, never panic: gate
// `unwrap`/`expect`/`panic!` behind clippy's disallowed lists (see this
// crate's `clippy.toml`). Tests opt back in — a failed assertion *should*
// panic there.
#![warn(clippy::disallowed_methods, clippy::disallowed_macros)]
#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_macros))]

pub mod analyze;
pub mod backend;
pub mod baselines;
pub mod batch;
pub mod cache;
pub mod cost;
pub mod delta;
pub mod deny;
pub mod dynamic;
pub mod error;
pub mod filter;
pub mod guard;
pub mod options;
pub mod policy;
pub mod rewrite;
pub mod semantics;
pub mod service;
pub mod session;
pub mod store;
pub mod visitor;

pub use analyze::{AnalysisReport, Finding, FindingKind, Verdict};
pub use backend::{
    BackendError, BackendResult, Fault, FaultConfig, FaultCounts, FaultInjectingBackend,
    SqlBackend, WireSqlBackend,
};
pub use baselines::Enforcement;
pub use batch::{BatchGroupReport, BatchPrepareReport};
pub use error::{SieveError, SieveResult};
pub use cache::{GuardCache, GuardCacheStats};
pub use cost::{AccessStrategy, CostModel, StrategyCosts};
pub use filter::{policy_applies, relevant_policies, GroupDirectory};
pub use guard::{Guard, GuardSelectionStrategy, GuardedExpression};
pub use options::{RetryPolicy, SieveOptions};
pub use policy::{
    CondPredicate, ObjectCondition, Policy, PolicyId, QuerierSpec, QueryMetadata, UserId,
    OWNER_ATTR, PURPOSE_ANY,
};
pub use service::{RecoveryStats, SieveService};
pub use session::{Prepared, Session};
