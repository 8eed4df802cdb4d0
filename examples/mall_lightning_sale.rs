//! Mall scenario (paper Section 7.1 / Experiment 5): shops query customer
//! connectivity under customer-defined policies — regulars share with
//! their favourite shops, irregulars only during sales, interest-driven
//! customers during lightning windows.
//!
//! Run with: `cargo run --release --example mall_lightning_sale`

use sieve::core::baselines::Baseline;
use sieve::core::Enforcement;
use sieve::core::policy::QueryMetadata;
use sieve::core::{SieveOptions, SieveService};
use sieve::minidb::{Database, DbProfile, SelectQuery};
use sieve::workload::mall::{generate as generate_mall, MallConfig, MallDataset};
use sieve::workload::MALL_TABLE;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // PostgreSQL-like profile: Experiment 5 runs the Mall workload there.
    let mut db = Database::new(DbProfile::PostgresLike);
    let ds = generate_mall(
        &mut db,
        &MallConfig {
            seed: 11,
            scale: 0.2,
            shops: 35,
            days: 60,
        },
    )?;
    println!(
        "mall: {} customers, {} shops, {} events, {} policies",
        ds.customers.len(),
        ds.shops.len(),
        ds.events,
        ds.policies.len()
    );

    let sieve = SieveService::new(
        db,
        SieveOptions {
            timeout: Some(Duration::from_secs(30)),
            ..Default::default()
        },
    )?;
    sieve.with_groups_mut(|g| *g = ds.groups.clone());
    sieve.add_policies(ds.policies.iter().cloned())?;

    // Each shop runs "who is in the mall right now that I may target?".
    let query = SelectQuery::star_from(MALL_TABLE);
    println!("\nper-shop visibility under customer policies (first 6 shops):");
    for &shop in ds.shops.iter().take(6) {
        let querier = MallDataset::shop_querier(shop);
        for purpose in ["Promotions", "Sales", "Lightning"] {
            let qm = QueryMetadata::new(querier, purpose);
            let rows = sieve.execute(&query, &qm)?;
            if !rows.is_empty() {
                println!(
                    "  shop {shop} ({purpose:>10}): {} of {} events visible",
                    rows.len(),
                    ds.events
                );
            }
        }
    }

    // Speedup demonstration on one busy shop.
    let busy = MallDataset::shop_querier(ds.shops[0]);
    let qm = QueryMetadata::new(busy, "Sales");
    for (name, mech) in [
        ("SIEVE(P)   ", Enforcement::Sieve),
        ("BaselineP(P)", Enforcement::Baseline(Baseline::P)),
    ] {
        let _ = sieve.run_timed(mech, &query, &qm);
        let (res, stats) = sieve.run_timed(mech, &query, &qm);
        println!(
            "  {name}: rows={:>6} wall={:>7.2} ms simulated_kcost={:>9.1}",
            res.map(|r| r.len()).unwrap_or(0),
            stats.wall.as_secs_f64() * 1e3,
            stats.simulated_cost / 1e3
        );
    }
    Ok(())
}
