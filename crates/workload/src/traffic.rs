//! Multi-querier traffic generation: a deterministic batch of
//! `(QueryMetadata, SelectQuery)` requests from many *distinct* queriers,
//! each of which the service serves on its own — what `bench
//! multiquerier` prepares cold and `bench concurrent` replays warm.
//!
//! Each querier poses one query drawn from the SmartBench templates
//! ([`crate::query_gen`]), cycling through the Q1/Q2/Q3 classes and the
//! three selectivity tiers so a batch mixes cheap surveillance lookups
//! with joins and aggregates — the concurrent-traffic mix the ROADMAP's
//! "millions of users" direction targets.

use crate::profiles::UserProfile;
use crate::query_gen::{generate_query, QueryClass, Selectivity};
use crate::tippers::TippersDataset;
use minidb::SelectQuery;
use sieve_core::policy::QueryMetadata;

/// Knobs for one traffic batch.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Distinct queriers to draw (capped at the device-directory size).
    pub queriers: usize,
    /// Purpose attached to every request.
    pub purpose: String,
    /// Base seed; querier `i` uses `seed + i` so batches are reproducible
    /// and querier-distinct.
    pub seed: u64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            queriers: 100,
            purpose: "Analytics".into(),
            seed: 1,
        }
    }
}

/// Generate a batch of requests from distinct queriers.
///
/// Queriers are taken from the device directory in id order, campus
/// profiles (faculty/staff/students) before visitors, so the front of the
/// batch is the policy-heavy population; visitors only fill in when the
/// campus population is smaller than `config.queriers`. Query classes and
/// selectivities cycle per request.
pub fn multi_querier_traffic(
    ds: &TippersDataset,
    config: &TrafficConfig,
) -> Vec<(QueryMetadata, SelectQuery)> {
    let mut queriers: Vec<i64> = ds
        .devices
        .iter()
        .filter(|d| d.profile != UserProfile::Visitor)
        .map(|d| d.id)
        .collect();
    queriers.extend(
        ds.devices
            .iter()
            .filter(|d| d.profile == UserProfile::Visitor)
            .map(|d| d.id),
    );
    queriers.truncate(config.queriers);

    queriers
        .into_iter()
        .enumerate()
        .map(|(i, querier)| {
            let class = QueryClass::ALL[i % QueryClass::ALL.len()];
            let sel = Selectivity::ALL[(i / QueryClass::ALL.len()) % Selectivity::ALL.len()];
            let query = generate_query(ds, class, sel, config.seed + i as u64);
            (QueryMetadata::new(querier, config.purpose.clone()), query)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tippers::{generate, TippersConfig};
    use minidb::{Database, DbProfile};
    use std::collections::HashSet;

    fn dataset() -> TippersDataset {
        let mut db = Database::new(DbProfile::MySqlLike);
        generate(
            &mut db,
            &TippersConfig {
                seed: 5,
                scale: 0.01,
                days: 30,
            },
        )
        .unwrap()
    }

    #[test]
    fn queriers_are_distinct_and_counted() {
        let ds = dataset();
        let cfg = TrafficConfig {
            queriers: 50,
            ..Default::default()
        };
        let batch = multi_querier_traffic(&ds, &cfg);
        assert_eq!(batch.len(), 50);
        let distinct: HashSet<i64> = batch.iter().map(|(qm, _)| qm.querier).collect();
        assert_eq!(distinct.len(), 50, "queriers must be distinct");
        assert!(batch.iter().all(|(qm, _)| qm.purpose == "Analytics"));
    }

    #[test]
    fn batch_is_deterministic_and_seed_sensitive() {
        let ds = dataset();
        let cfg = TrafficConfig {
            queriers: 12,
            ..Default::default()
        };
        let a = multi_querier_traffic(&ds, &cfg);
        let b = multi_querier_traffic(&ds, &cfg);
        assert_eq!(a.len(), b.len());
        for ((qa, a), (qb, b)) in a.iter().zip(&b) {
            assert_eq!(qa.querier, qb.querier);
            assert_eq!(a, b);
        }
        let c = multi_querier_traffic(
            &ds,
            &TrafficConfig {
                seed: 99,
                ..cfg.clone()
            },
        );
        assert!(a.iter().zip(&c).any(|((_, a), (_, c))| a != c));
    }

    #[test]
    fn classes_and_selectivities_cycle() {
        let ds = dataset();
        let batch = multi_querier_traffic(
            &ds,
            &TrafficConfig {
                queriers: 18,
                ..Default::default()
            },
        );
        // 18 requests = two full 3x3 class/selectivity cycles: both join
        // (Q3 has two FROM entries) and single-table shapes appear.
        let froms: HashSet<usize> = batch.iter().map(|(_, q)| q.from.len()).collect();
        assert!(froms.contains(&1) && froms.contains(&2));
    }
}
