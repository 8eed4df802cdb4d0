//! `minidb` — the embedded relational engine substrate for the SIEVE
//! reproduction.
//!
//! The SIEVE paper (Pappachan et al., VLDB 2020) layers its middleware on
//! MySQL and PostgreSQL, relying on a specific set of DBMS features: heap
//! tables with secondary indexes, per-column histograms, `EXPLAIN`,
//! index-usage hints, UDFs, and (on PostgreSQL) bitmap OR-ing of index
//! scans. This crate implements exactly that feature set from scratch so
//! the middleware can be reproduced and measured without a server:
//!
//! * [`catalog::Database`] — the façade: tables, indexes, histograms, UDFs,
//!   query execution, EXPLAIN.
//! * [`planner::DbProfile`] — `MySqlLike` (honours hints) vs `PostgresLike`
//!   (ignores hints, supports BitmapOr), reproducing the behavioural
//!   difference Experiment 4 of the paper measures.
//! * [`stats`] — a deterministic simulated cost clock (pages, tuples,
//!   predicate evaluations, UDF invocations) alongside wall time.
//! * [`sql`] — a from-scratch SQL subset parser and renderer so the
//!   middleware can intercept and rewrite textual queries as in the paper.

#![warn(missing_docs)]

pub mod catalog;
pub mod error;
pub mod exec;
pub mod explain;
pub mod expr;
pub mod histogram;
pub mod index;
pub mod plan;
pub mod planner;
pub mod schema;
pub mod sql;
pub mod stats;
pub mod table;
pub mod udf;
pub mod value;

pub use catalog::{Database, TableEntry};
pub use error::{DbError, DbResult};
pub use exec::{ExecOptions, QueryResult};
pub use explain::{ExplainOutput, RelationPlan};
pub use expr::{CmpOp, ColumnRef, Expr};
pub use index::RangeBound;
pub use plan::{AggFunc, IndexHint, SelectItem, SelectQuery, TableRef, TableSource, WithClause};
pub use planner::{AccessPlan, DbProfile};
pub use schema::{Column, TableSchema};
pub use stats::{CostWeights, Counters, ExecStats, StatsSink};
pub use table::{Row, RowId};
pub use udf::{Udf, UdfContext, UdfRegistry};
pub use value::{DataType, Value};
