//! Dynamic policy management (paper Section 6): policies arrive while
//! queries run. The first read after each grant brings the querier's
//! guard current: a grant that shares no guard condition with the
//! policies the expression covers is placed into it, any other grant
//! regenerates it. Ends with the paper's model of deferred regeneration,
//! Equation 19's interval k̃ against an empirical scan.
//!
//! Run with: `cargo run --release --example dynamic_policies`

use sieve::core::dynamic::{empirical_best_interval, optimal_regeneration_interval};
use sieve::core::policy::{CondPredicate, ObjectCondition, Policy, QuerierSpec, QueryMetadata};
use sieve::core::{CostModel, SieveOptions, SieveService};
use sieve::minidb::value::{DataType, Value};
use sieve::minidb::{Database, DbProfile, SelectQuery, TableSchema};

/// A grant from `owner` to querier 500 at access point 1005, or with no
/// condition of its own.
fn policy(owner: i64, at_1005: bool) -> Policy {
    let ap = ObjectCondition::new("wifi_ap", CondPredicate::Eq(Value::Int(1005)));
    let conds = if at_1005 { vec![ap] } else { vec![] };
    Policy::new(owner, "wifi_dataset", QuerierSpec::User(500), "Analytics", conds)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut db = Database::new(DbProfile::MySqlLike);
    db.create_table(TableSchema::of(
        "wifi_dataset",
        &[
            ("id", DataType::Int),
            ("owner", DataType::Int),
            ("wifi_ap", DataType::Int),
        ],
    ))?;
    for i in 0..30_000i64 {
        db.insert(
            "wifi_dataset",
            vec![
                Value::Int(i),
                Value::Int(i % 300),
                Value::Int(1000 + i % 16),
            ],
        )?;
    }
    db.create_index("wifi_dataset", "owner")?;
    db.create_index("wifi_dataset", "wifi_ap")?;
    db.analyze("wifi_dataset")?;

    let sieve = SieveService::new(db, SieveOptions::default())?;
    for owner in 0..50 {
        sieve.add_policy(policy(owner, true))?;
    }

    let qm = QueryMetadata::new(500, "Analytics");
    let query = SelectQuery::star_from("wifi_dataset");
    let n0 = sieve.execute(&query, &qm)?.len();
    println!("initial visible rows: {n0} (generations: {})", sieve.generations());

    // Interleave grants with reads. A grant at access point 1005 shares
    // the guard condition the querier's policies already carry, so
    // Algorithm 1 runs again; a grant with no condition of its own is
    // placed where Algorithm 1 would put it.
    for owner in 50..62 {
        // Only owners ≡ 1 (mod 4) have rows at access point 1005.
        let at_1005 = owner % 4 == 1;
        sieve.add_policy(policy(owner, at_1005))?;
        let (generations, extensions) = (sieve.generations(), sieve.cache_stats().extensions);
        let n = sieve.execute(&query, &qm)?.len();
        let generated = sieve.generations() - generations;
        let how = match (generated, sieve.cache_stats().extensions - extensions) {
            (1, 1) => "placed",
            (1, 0) => "regenerated",
            _ => "unexpected cache traffic",
        };
        let grant = if at_1005 { "at AP 1005" } else { "unconditional" };
        println!("grant from owner {owner} ({grant}): visible={n}, {how}");
    }

    // The paper's model: the closed form vs the empirical optimum.
    let cost = CostModel::default();
    let k_formula = optimal_regeneration_interval(&cost, 400.0, 1.0);
    let k_emp = empirical_best_interval(&cost, 400.0, 1.0, 200, 100, 3);
    println!("\nPaper's model (Equation 19): k̃ = {k_formula:.1}; empirical scan minimum = {k_emp}");
    Ok(())
}
