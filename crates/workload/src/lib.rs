//! `sieve-workload` — datasets, policies, and queries for the SIEVE
//! reproduction (paper Section 7.1).
//!
//! * [`tippers`] — a seeded generator reproducing the published statistics
//!   of the TIPPERS WiFi dataset (profile distribution, affinity groups,
//!   diurnal presence, AP locality), scalable from test size to paper
//!   scale (36K devices / 3.9M events at `scale = 1.0`).
//! * [`mall`] — the Mall dataset of Experiment 5 (35 shops, six types,
//!   regular/irregular customers, interest-driven policies).
//! * [`profiles`] — the five campus user profiles and their published
//!   counts.
//! * [`policy_gen`] — the unconcerned/advanced policy recipe of
//!   Section 7.1 over the TIPPERS dataset.
//! * [`query_gen`] — the SmartBench-style Q1/Q2/Q3 templates at three
//!   selectivity classes.
//! * [`traffic`] — multi-querier traffic batches (one query per distinct
//!   querier).

#![warn(missing_docs)]

pub mod mall;
pub mod policy_gen;
pub mod profiles;
pub mod query_gen;
pub mod tippers;
pub mod traffic;

pub use mall::{MallConfig, MallDataset, MALL_TABLE};
pub use policy_gen::{corpus_stats, generate_policies, PolicyGenConfig};
pub use profiles::UserProfile;
pub use query_gen::{generate_query, workload, QueryClass, Selectivity};
pub use tippers::{generate as generate_tippers, TippersConfig, TippersDataset, WIFI_TABLE};
pub use traffic::{multi_querier_traffic, TrafficConfig};
