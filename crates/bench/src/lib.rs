//! `sieve-bench` — the shared [`harness`] under the three binaries of
//! `src/bin`: `exp`, the one driver that regenerates every table and
//! figure of the paper's evaluation (Section 7) as a committed
//! `results/EXP_<figure>.json`; `bench`, the driver of per-mechanism
//! costs; and the `sieve_analyze` audit.

#![warn(missing_docs)]

pub mod harness;
pub mod table;
