//! `sieve-bench` — shared harness for the experiment binaries that
//! regenerate every table and figure of the paper's evaluation
//! (Section 7; `src/bin/exp*`, one binary per experiment), for the
//! `bench` driver of per-mechanism costs and for the `sieve_analyze` audit.

#![warn(missing_docs)]

pub mod harness;
pub mod table;
