//! Engine error type.

use std::fmt;

/// Errors surfaced by the engine. The SIEVE middleware treats most of these
/// as programming errors in generated rewrites, so they carry enough context
/// to debug a bad rewrite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// Referenced table does not exist.
    UnknownTable(String),
    /// Referenced column does not resolve against the FROM layout.
    UnknownColumn(String),
    /// Ambiguous unqualified column (resolves in several FROM entries).
    AmbiguousColumn(String),
    /// Referenced index does not exist (e.g. a FORCE INDEX hint on an
    /// unindexed column).
    UnknownIndex {
        /// Table the hint referenced.
        table: String,
        /// Column without an index.
        column: String,
    },
    /// Referenced UDF is not registered.
    UnknownUdf(String),
    /// A value had the wrong type for the operation.
    TypeError(String),
    /// SQL text failed to parse.
    Parse(String),
    /// Query shape not supported by the engine.
    Unsupported(String),
    /// Execution exceeded the configured timeout.
    Timeout,
    /// A prepared query or statement is not this database's to run: planned
    /// on another state of the catalog, closed, or never issued. Prepare
    /// again.
    StalePlan,
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::UnknownTable(t) => write!(f, "unknown table: {t}"),
            DbError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            DbError::AmbiguousColumn(c) => write!(f, "ambiguous column: {c}"),
            DbError::UnknownIndex { table, column } => {
                write!(f, "no index on {table}.{column}")
            }
            DbError::UnknownUdf(u) => write!(f, "unknown UDF: {u}"),
            DbError::TypeError(m) => write!(f, "type error: {m}"),
            DbError::Parse(m) => write!(f, "parse error: {m}"),
            DbError::Unsupported(m) => write!(f, "unsupported: {m}"),
            DbError::Timeout => write!(f, "query timed out"),
            DbError::StalePlan => write!(f, "prepared plan is stale or unknown: prepare again"),
        }
    }
}

impl std::error::Error for DbError {}

/// Engine result alias.
pub type DbResult<T> = Result<T, DbError>;
