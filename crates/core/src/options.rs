//! Middleware configuration: [`SieveOptions`] and the [`RetryPolicy`] the
//! service applies to retryable backend failures.

use crate::guard::GuardSelectionStrategy;
use crate::rewrite::RewriteOptions;
use std::time::Duration;

/// How the service retries retryable backend failures
/// ([`crate::backend::BackendError::is_retryable`]): bounded attempts,
/// deterministic exponential backoff, and an optional wall-clock budget.
/// Non-retryable errors ignore this policy entirely and fail closed on
/// the first attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (`3` ⇒ up to 4 attempts total).
    /// `0` disables retrying.
    pub max_retries: u32,
    /// Backoff before retry *n* is `base_backoff × 2^(n−1)`, capped at
    /// [`RetryPolicy::max_backoff`]. Deterministic — no jitter — so fault
    /// schedules replay identically under a fixed seed.
    pub base_backoff: Duration,
    /// Upper bound on a single backoff sleep.
    pub max_backoff: Duration,
    /// Total wall-clock budget across all attempts of one operation;
    /// `None` bounds recovery by attempt count alone.
    pub budget: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_micros(200),
            max_backoff: Duration::from_millis(5),
            budget: Some(Duration::from_secs(1)),
        }
    }
}

impl RetryPolicy {
    /// The backoff to sleep before retry `attempt` (1-based).
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        let shift = attempt.saturating_sub(1).min(20);
        self.base_backoff
            .saturating_mul(1u32 << shift)
            .min(self.max_backoff)
    }
}

/// Configuration of the middleware.
#[derive(Debug, Clone, Default)]
pub struct SieveOptions {
    /// Guard selection strategy (Algorithm 1 vs the owner-only ablation).
    pub selection: GuardSelectionStrategy,
    /// Rewrite knobs (inline-vs-∆, pushdown, forced strategy).
    pub rewrite: RewriteOptions,
    /// Query timeout (the paper's Experiment 3 uses 30 s).
    pub timeout: Option<Duration>,
    /// Mirror policies and guards into the `rP`/`rOC`/`rGE`/`rGG`/`rGP`
    /// relations (Section 5.1).
    pub persist: bool,
    /// Retry/backoff policy for retryable backend failures.
    pub retry: RetryPolicy,
    /// Run the static soundness verifier ([`crate::analyze`]) on every
    /// *cold* guard generation and fragment compilation, hard-failing
    /// the query path with [`crate::SieveError::SoundnessRefuted`] when
    /// a rewritten predicate provably admits a row outside the allowed
    /// policies. `Unknown` verdicts are findings for the audit tooling,
    /// not query failures. Warm (cached) paths never re-verify, so the
    /// steady-state overhead is zero.
    pub verify_rewrites: bool,
}
