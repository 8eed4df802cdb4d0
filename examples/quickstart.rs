//! Quickstart: the five-minute tour of SIEVE.
//!
//! Builds a tiny WiFi-connectivity table, registers a few access-control
//! policies, and runs the same query as two different queriers — showing
//! the middleware rewriting the query (WITH clause + guards + hints) and
//! enforcing default-deny semantics.
//!
//! Run with: `cargo run --example quickstart`

use sieve::core::policy::{CondPredicate, ObjectCondition, Policy, QuerierSpec, QueryMetadata};
use sieve::core::{SieveOptions, SieveService};
use sieve::minidb::value::{DataType, Value};
use sieve::minidb::{Database, DbProfile, TableSchema};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A database with a WiFi-connectivity table (paper Table 2).
    let mut db = Database::new(DbProfile::MySqlLike);
    db.create_table(TableSchema::of(
        "wifi_dataset",
        &[
            ("id", DataType::Int),
            ("wifi_ap", DataType::Int),
            ("owner", DataType::Int),
            ("ts_time", DataType::Time),
        ],
    ))?;
    // John (owner 120) and Mary (owner 121) connect during the day.
    for hour in 8..18u32 {
        for (owner, ap) in [(120i64, 1200i64), (121, 1200), (122, 1300)] {
            db.insert(
                "wifi_dataset",
                vec![
                    Value::Int(db.table("wifi_dataset")?.table.len() as i64),
                    Value::Int(ap),
                    Value::Int(owner),
                    Value::Time(hour * 3600),
                ],
            )?;
        }
    }
    db.create_index("wifi_dataset", "owner")?;
    db.create_index("wifi_dataset", "wifi_ap")?;
    db.create_index("wifi_dataset", "ts_time")?;
    db.analyze("wifi_dataset")?;

    // 2. Wrap the database in the SIEVE middleware: one shared service,
    //    one `Session` per querier.
    let service = SieveService::new(db, SieveOptions::default())?;

    // 3. Policies (paper Section 3.1's running example): John allows
    //    Prof. Smith (querier 500) to see his connectivity at AP 1200
    //    between 9 and 10 am, for attendance control. Mary allows the AP
    //    unconditionally.
    service.add_policy(Policy::new(
        120,
        "wifi_dataset",
        QuerierSpec::User(500),
        "Attendance",
        vec![
            ObjectCondition::new(
                "ts_time",
                CondPredicate::between(Value::Time(9 * 3600), Value::Time(10 * 3600)),
            ),
            ObjectCondition::new("wifi_ap", CondPredicate::Eq(Value::Int(1200))),
        ],
    ))?;
    service.add_policy(Policy::new(
        121,
        "wifi_dataset",
        QuerierSpec::User(500),
        "Attendance",
        vec![ObjectCondition::new(
            "wifi_ap",
            CondPredicate::Eq(Value::Int(1200)),
        )],
    ))?;

    // 4. Prof. Smith queries for attendance: sees John's 9-10 am rows and
    //    all of Mary's rows at AP 1200 — nothing else.
    let smith = service.session(QueryMetadata::new(500, "Attendance"));
    let rewritten = smith.rewrite(&sieve::minidb::sql::parse("SELECT * FROM wifi_dataset")?)?;
    println!("SIEVE rewrote the query to:\n  {}\n", sieve::minidb::sql::render_query(&rewritten.query));
    println!(
        "strategy: {:?}, guards: {}\n",
        rewritten.relations[0].strategy, rewritten.relations[0].guard_count
    );

    let rows = smith.execute_sql("SELECT * FROM wifi_dataset")?;
    println!("Prof. Smith (Attendance) sees {} rows:", rows.len());
    for r in &rows.rows {
        println!("  owner={} ap={} time={}", r[2], r[1], r[3]);
    }

    // 5. The same querier with a different purpose is denied (purpose-based
    //    access control), and an unknown querier sees nothing at all
    //    (default deny).
    let marketing = service.session(QueryMetadata::new(500, "Marketing"));
    assert!(marketing.execute_sql("SELECT * FROM wifi_dataset")?.is_empty());
    let stranger = service.session(QueryMetadata::new(999, "Attendance"));
    assert!(stranger.execute_sql("SELECT * FROM wifi_dataset")?.is_empty());
    println!("\nwrong purpose → 0 rows; unknown querier → 0 rows (default deny). ✓");
    Ok(())
}
