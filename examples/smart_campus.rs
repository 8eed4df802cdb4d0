//! Smart-campus scenario (paper Section 2.1): a professor runs the
//! attendance-vs-performance analysis over a generated TIPPERS-like
//! dataset with a realistic policy corpus, comparing SIEVE against the
//! three baselines on the same query.
//!
//! Run with: `cargo run --release --example smart_campus`

use sieve::core::baselines::Baseline;
use sieve::core::Enforcement;
use sieve::core::policy::QueryMetadata;
use sieve::core::{SieveOptions, SieveService};
use sieve::minidb::{Database, DbProfile};
use sieve::workload::policy_gen::{generate_policies, PolicyGenConfig};
use sieve::workload::query_gen::generate_query;
use sieve::workload::tippers::{generate as generate_tippers, TippersConfig};
use sieve::workload::{QueryClass, Selectivity, UserProfile};
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Generate the campus at 2% of the paper's scale (fast to run).
    let mut db = Database::new(DbProfile::MySqlLike);
    let dataset = generate_tippers(
        &mut db,
        &TippersConfig {
            seed: 7,
            scale: 0.02,
            days: 90,
        },
    )?;
    let policies = generate_policies(&dataset, &PolicyGenConfig::default());
    println!(
        "campus: {} devices, {} connectivity events, {} policies",
        dataset.devices.len(),
        dataset.events,
        policies.len()
    );

    let sieve = SieveService::new(
        db,
        SieveOptions {
            timeout: Some(Duration::from_secs(30)),
            ..Default::default()
        },
    )?;
    sieve.with_groups_mut(|g| *g = dataset.groups.clone());
    sieve.add_policies(policies)?;

    // A professor (faculty profile) asks the analytics question.
    let professor = dataset
        .devices_of(UserProfile::Faculty)
        .next()
        .expect("faculty exists")
        .id;
    let qm = QueryMetadata::new(professor, "Analytics");

    // Q1-style query: who was at these classrooms during lecture hours?
    let query = generate_query(&dataset, QueryClass::Q1, Selectivity::Mid, 42);
    println!("\nrunning a mid-selectivity Q1 as querier {professor} (Analytics):");

    for (name, mech) in [
        ("SIEVE     ", Enforcement::Sieve),
        ("BaselineP ", Enforcement::Baseline(Baseline::P)),
        ("BaselineI ", Enforcement::Baseline(Baseline::I)),
        ("BaselineU ", Enforcement::Baseline(Baseline::U)),
        ("no-policy ", Enforcement::NoPolicies),
    ] {
        // Warm-up run generates guards / registers ∆ partitions.
        let _ = sieve.run_timed(mech, &query, &qm);
        let (res, stats) = sieve.run_timed(mech, &query, &qm);
        match res {
            Ok(r) => println!(
                "  {name} rows={:>6}  wall={:>8.2} ms  simulated_kcost={:>10.1}  \
                 (pages seq/rand {}/{}, policy evals {})",
                r.len(),
                stats.wall.as_secs_f64() * 1e3,
                stats.simulated_cost / 1e3,
                stats.counters.seq_pages_read,
                stats.counters.rand_pages_read,
                stats.counters.policy_evals,
            ),
            Err(e) => println!("  {name} failed: {e}"),
        }
    }

    // The access-controlled answer is a strict subset of the raw answer.
    let (full, _) = sieve.run_timed(Enforcement::NoPolicies, &query, &qm);
    let (controlled, _) = sieve.run_timed(Enforcement::Sieve, &query, &qm);
    let full = full?;
    let controlled = controlled?;
    assert!(controlled.len() <= full.len());
    println!(
        "\naccess control reveals {} of {} matching rows to this querier.",
        controlled.len(),
        full.len()
    );
    Ok(())
}
