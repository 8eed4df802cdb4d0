//! Middleware configuration: [`SieveOptions`].

use crate::guard::GuardSelectionStrategy;
use crate::rewrite::RewriteOptions;
use std::time::Duration;

/// Configuration of the middleware.
#[derive(Debug, Clone, Default)]
pub struct SieveOptions {
    /// Guard selection strategy (Algorithm 1 vs the owner-only ablation).
    pub selection: GuardSelectionStrategy,
    /// Rewrite knobs (inline-vs-∆, pushdown, forced strategy).
    pub rewrite: RewriteOptions,
    /// Query timeout (the paper's Experiment 3 uses 30 s).
    pub timeout: Option<Duration>,
    /// Run the static soundness verifier ([`crate::analyze`]) on every
    /// *cold* build's compiled fragment, generated or placed, hard-failing
    /// the query path with [`crate::SieveError::SoundnessRefuted`] when
    /// a rewritten predicate provably admits a row outside the allowed
    /// policies. `Unknown` verdicts are findings for the audit tooling,
    /// not query failures. Warm (cached) paths never re-verify, so the
    /// steady-state overhead is zero.
    pub verify_rewrites: bool,
}
