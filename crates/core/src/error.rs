//! The middleware's public error type.
//!
//! SIEVE is a *security* middleware: its guarantee — a querier never sees
//! a row its policies do not allow — has to hold on every execution path,
//! including the failing ones. The error design enforces that **fail
//! closed** posture structurally:
//!
//! * Every fallible public entry point ([`crate::service::SieveService`],
//!   [`crate::session::Session`], [`crate::session::Prepared`]) returns
//!   [`SieveResult`]. A failure anywhere in the
//!   rewrite → dispatch pipeline yields a typed [`SieveError`] — never the
//!   unguarded query, never a partial row set.
//! * Backend faults keep their classification
//!   ([`crate::backend::BackendError`]) so callers can distinguish "the
//!   middleware refused the query" ([`SieveError::Rewrite`]) from "the
//!   engine failed under it" ([`SieveError::Backend`]) from "recovery was
//!   attempted and gave up" ([`SieveError::RetriesExhausted`]).
//! * A broken internal invariant is converted, not propagated as a
//!   panic: it surfaces as [`SieveError::Internal`], leaving the service
//!   usable and its ∆/cache bookkeeping intact.

use crate::backend::BackendError;
use minidb::error::DbError;
use std::fmt;

/// Error returned by the SIEVE middleware's public API.
#[derive(Debug, Clone, PartialEq)]
pub enum SieveError {
    /// The middleware could not produce a guarded query: parse failure, a
    /// client query that calls a UDF, unknown relation/column during
    /// rewrite, an unsupported baseline shape, or a policy-store problem.
    /// Nothing was dispatched.
    Rewrite(DbError),
    /// The backend failed and the failure is not retryable. Inspect the
    /// [`BackendError`] for the classification.
    Backend(BackendError),
    /// The backend kept failing retryably until the service's retry budget
    /// (three retries with backoff, one second in all) ran out.
    RetriesExhausted {
        /// Total attempts made (initial try + retries).
        attempts: u32,
        /// The error from the final attempt.
        last: BackendError,
    },
    /// An internal invariant did not hold. Fail-closed conversion of what
    /// would otherwise be a panic; indicates a middleware bug.
    Internal(&'static str),
    /// The static soundness verifier
    /// ([`crate::SieveOptions::verify_rewrites`]) *refuted*
    /// a freshly generated guard: the rewritten predicate would admit a
    /// concrete row outside the querier's allowed policies. The
    /// generation is discarded and the query fails closed — this is the
    /// one error that means "the middleware caught itself widening".
    SoundnessRefuted {
        /// Protected relation the guard was generated for.
        relation: String,
        /// Querier whose guarded expression was refuted.
        querier: i64,
        /// Rendered witness assignment (`col=value, …`) of the leaking
        /// row, as confirmed by the reference evaluator.
        witness: String,
    },
}

/// Result alias for the middleware's public API.
pub type SieveResult<T> = Result<T, SieveError>;

impl SieveError {
    /// The backend-level error behind this failure, if there is one
    /// (either a direct [`SieveError::Backend`] or the final error of a
    /// [`SieveError::RetriesExhausted`]).
    pub fn backend_error(&self) -> Option<&BackendError> {
        match self {
            SieveError::Backend(e) => Some(e),
            SieveError::RetriesExhausted { last, .. } => Some(last),
            _ => None,
        }
    }

    /// True iff recovering from this failure requires re-preparing
    /// server-side statements (lost connection, evicted statement id).
    /// [`crate::session::Prepared`] re-prepares once and re-executes when
    /// this holds.
    pub fn needs_reprepare(&self) -> bool {
        self.backend_error().is_some_and(BackendError::needs_reprepare)
    }
}

impl fmt::Display for SieveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SieveError::Rewrite(e) => write!(f, "rewrite failed: {e}"),
            SieveError::Backend(e) => write!(f, "backend error: {e}"),
            SieveError::RetriesExhausted { attempts, last } => {
                write!(f, "backend error after {attempts} attempts: {last}")
            }
            SieveError::Internal(what) => {
                write!(f, "internal invariant violated ({what})")
            }
            SieveError::SoundnessRefuted {
                relation,
                querier,
                witness,
            } => {
                write!(
                    f,
                    "soundness verifier refuted the guard for querier {querier} on \
                     `{relation}`: row ({witness}) passes the rewrite but no allow policy"
                )
            }
        }
    }
}

impl std::error::Error for SieveError {}

impl From<DbError> for SieveError {
    fn from(e: DbError) -> Self {
        SieveError::Rewrite(e)
    }
}

impl From<BackendError> for SieveError {
    fn from(e: BackendError) -> Self {
        SieveError::Backend(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_helpers() {
        let lost = SieveError::Backend(BackendError::ConnectionLost("drop".into()));
        assert!(lost.needs_reprepare());
        let evicted = SieveError::RetriesExhausted {
            attempts: 3,
            last: BackendError::UnknownStatement(7),
        };
        assert!(evicted.needs_reprepare());
        assert_eq!(
            evicted.backend_error(),
            Some(&BackendError::UnknownStatement(7))
        );
        let rewrite = SieveError::Rewrite(DbError::UnknownTable("t".into()));
        assert!(!rewrite.needs_reprepare());
        assert!(rewrite.backend_error().is_none());
    }

    #[test]
    fn conversions_preserve_classification() {
        let e: SieveError = DbError::Timeout.into();
        assert!(matches!(e, SieveError::Rewrite(DbError::Timeout)));
        let e: SieveError = BackendError::Timeout.into();
        assert!(matches!(e, SieveError::Backend(BackendError::Timeout)));
    }

    #[test]
    fn display_is_informative() {
        let e = SieveError::RetriesExhausted {
            attempts: 4,
            last: BackendError::Transient("flaky".into()),
        };
        let s = e.to_string();
        assert!(s.contains("4 attempts"), "{s}");
        assert!(s.contains("flaky"), "{s}");
    }
}
