//! `sieve-bench` — shared harness for the experiment binaries that
//! regenerate every table and figure of the paper's evaluation
//! (Section 7). See `src/bin/` for one binary per experiment.

#![warn(missing_docs)]

pub mod harness;
pub mod table;
