//! TIPPERS-like WiFi connectivity dataset generator (paper Section 7.1).
//!
//! The real TIPPERS dataset — 3.9M association events from 64 APs in the
//! UCI CS building over three months, 36,436 distinct devices — contains
//! identifiable MAC addresses and is not redistributable. This generator
//! reproduces its published statistics: the device-profile distribution,
//! 56 affinity groups averaging ~108 devices, diurnal presence patterns
//! per profile, and AP locality (devices mostly connect near their home
//! region). `scale` shrinks everything proportionally so unit tests run
//! on thousands of rows while benches run near paper scale.

use crate::profiles::UserProfile;
use minidb::value::{DataType, Value};
use minidb::{Database, DbResult, TableSchema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sieve_core::filter::GroupDirectory;
use sieve_core::policy::UserId;

/// Number of WiFi APs in the building (paper: 64).
pub const NUM_APS: u32 = 64;

/// AP ids start here (the paper's examples use ids like 1200).
pub const AP_BASE: i64 = 1000;

/// Number of affinity groups at full scale (paper: 56).
pub const NUM_GROUPS_FULL: u32 = 56;

/// The main fact table name (paper Table 2: "WiFi Dataset").
pub const WIFI_TABLE: &str = "wifi_dataset";

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct TippersConfig {
    /// RNG seed (generation is fully deterministic given the config).
    pub seed: u64,
    /// Fraction of the paper's population/duration to generate
    /// (1.0 ≈ 36K devices / 3.9M events; tests use ~0.01).
    pub scale: f64,
    /// Observation days (paper: ~90, one quarter).
    pub days: u32,
}

impl Default for TippersConfig {
    fn default() -> Self {
        TippersConfig {
            seed: 7,
            scale: 0.02,
            days: 90,
        }
    }
}

/// One device/user of the campus.
#[derive(Debug, Clone)]
pub struct Device {
    /// Owner id (referenced by `wifi_dataset.owner`).
    pub id: UserId,
    /// Profile (drives presence and policy defaults).
    pub profile: UserProfile,
    /// Affinity group (the group with maximum affinity, per the paper).
    pub group: i64,
    /// Home AP: center of the region the device frequents.
    pub home_ap: i64,
}

/// The generated dataset: device directory plus the loaded database
/// statistics. Events are streamed straight into the database.
#[derive(Debug)]
pub struct TippersDataset {
    /// Device directory in id order.
    pub devices: Vec<Device>,
    /// Group directory (affinity groups + profile groups).
    pub groups: GroupDirectory,
    /// Number of affinity groups generated.
    pub num_groups: u32,
    /// First observation date (days since epoch; 2019-09-25 as in the
    /// paper's example query).
    pub start_date: i32,
    /// Observation days.
    pub days: u32,
    /// Number of connectivity events generated.
    pub events: u64,
}

impl TippersDataset {
    /// Devices of a given profile.
    pub fn devices_of(&self, profile: UserProfile) -> impl Iterator<Item = &Device> {
        self.devices.iter().filter(move |d| d.profile == profile)
    }

    /// Date range of the dataset as `(first, last)` days since epoch.
    pub fn date_range(&self) -> (i32, i32) {
        (self.start_date, self.start_date + self.days as i32 - 1)
    }
}

/// Generate the dataset and load it into a database: creates the Table 2
/// schema (`users`, `user_groups`, `user_group_membership`, `location`,
/// `wifi_dataset`), inserts rows, builds the indexes SIEVE expects
/// (`owner` — mandated by the data model — plus `wifi_ap`, `ts_time`,
/// `ts_date`), and runs ANALYZE.
pub fn generate(db: &mut Database, config: &TippersConfig) -> DbResult<TippersDataset> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let start_date = Value::parse_date("2019-09-25").expect("valid date");

    // --- schema ---------------------------------------------------------
    db.create_table(TableSchema::of(
        "users",
        &[
            ("id", DataType::Int),
            ("device", DataType::Str),
            ("office", DataType::Int),
        ],
    ))?;
    db.create_table(TableSchema::of(
        "user_groups",
        &[
            ("id", DataType::Int),
            ("name", DataType::Str),
            ("owner", DataType::Int),
        ],
    ))?;
    db.create_table(TableSchema::of(
        "user_group_membership",
        &[("user_group_id", DataType::Int), ("user_id", DataType::Int)],
    ))?;
    db.create_table(TableSchema::of(
        "location",
        &[
            ("id", DataType::Int),
            ("name", DataType::Str),
            ("type", DataType::Str),
        ],
    ))?;
    db.create_table(TableSchema::of(
        WIFI_TABLE,
        &[
            ("id", DataType::Int),
            ("wifi_ap", DataType::Int),
            ("owner", DataType::Int),
            ("ts_time", DataType::Time),
            ("ts_date", DataType::Date),
        ],
    ))?;

    // --- locations (APs) --------------------------------------------------
    let room_types = ["classroom", "lab", "office", "common"];
    for ap in 0..NUM_APS {
        db.insert(
            "location",
            vec![
                Value::Int(AP_BASE + ap as i64),
                Value::str(format!("region_{ap}")),
                Value::str(room_types[(ap as usize) % room_types.len()]),
            ],
        )?;
    }

    // --- devices ----------------------------------------------------------
    // The number of groups does NOT scale down with the population: the
    // paper's campus has 56 affinity groups regardless, and a querier's
    // group covers ~1/56 of the non-visitor population. Scaling groups
    // down would inflate the fraction of the table a querier's guards
    // cover and distort every cost shape downstream.
    let num_groups = NUM_GROUPS_FULL;
    let mut devices: Vec<Device> = Vec::new();
    let mut groups = GroupDirectory::new();
    let mut next_id: UserId = 0;
    for profile in UserProfile::ALL {
        let count = ((profile.paper_count() as f64 * config.scale).round() as u32).max(2);
        for _ in 0..count {
            let id = next_id;
            next_id += 1;
            // Affinity groups own small AP regions: members of a group
            // frequent the same few APs (the paper groups users "based on
            // the affinity of their devices to rooms"), which is also what
            // makes their policies share guardable location conditions.
            // Regions of adjacent groups overlap (more groups than APs
            // would otherwise allow).
            let group = rng.gen_range(0..num_groups) as i64;
            let region_start = (group as u32 * NUM_APS) / num_groups;
            let home_ap = AP_BASE + ((region_start + rng.gen_range(0..3)) % NUM_APS) as i64;
            if profile != UserProfile::Visitor {
                groups.add_member(group, id);
            }
            groups.add_member(profile.group_id(), id);
            devices.push(Device {
                id,
                profile,
                group,
                home_ap,
            });
            db.insert(
                "users",
                vec![
                    Value::Int(id),
                    Value::str(format!("device_{id:06x}")),
                    Value::Int(home_ap),
                ],
            )?;
        }
    }
    for g in 0..num_groups {
        db.insert(
            "user_groups",
            vec![
                Value::Int(g as i64),
                Value::str(format!("affinity_{g}")),
                Value::Int(-1),
            ],
        )?;
    }
    for p in UserProfile::ALL {
        db.insert(
            "user_groups",
            vec![
                Value::Int(p.group_id()),
                Value::str(format!("profile_{}", p.label())),
                Value::Int(-1),
            ],
        )?;
    }
    for d in &devices {
        if d.profile != UserProfile::Visitor {
            db.insert(
                "user_group_membership",
                vec![Value::Int(d.group), Value::Int(d.id)],
            )?;
        }
        db.insert(
            "user_group_membership",
            vec![Value::Int(d.profile.group_id()), Value::Int(d.id)],
        )?;
    }

    // --- connectivity events ----------------------------------------------
    // Events go straight into the table, which first makes room for the
    // most the loop below can emit (every day present, every day at the
    // top of its range): loading never copies the table, and the room
    // past the last event is address space, not memory touched.
    let most: usize = devices
        .iter()
        .map(|d| config.days as usize * ((d.profile.events_per_day() * 1.5) as usize).max(1))
        .sum();
    db.reserve(WIFI_TABLE, most)?;
    let mut event_id: i64 = 0;
    for d in &devices {
        let (day_start, day_end) = d.profile.day_window();
        for day in 0..config.days {
            if !rng.gen_bool(d.profile.presence_rate()) {
                continue;
            }
            let date = start_date + day as i32;
            let n_events = {
                let mean = d.profile.events_per_day();
                // Uniform around the mean keeps generation cheap and the
                // per-day distribution realistic enough for selectivity.
                rng.gen_range((mean * 0.5) as u32..=(mean * 1.5) as u32).max(1)
            };
            let arrive = rng.gen_range(day_start..day_start + 2 * 3600);
            let leave = rng.gen_range(day_end.saturating_sub(2 * 3600).max(arrive + 600)..=day_end);
            for k in 0..n_events {
                // Events spread over the stay; AP is near home (locality):
                // 70% home AP, 25% a neighbour, 5% anywhere.
                let t = arrive + ((leave - arrive) as u64 * k as u64 / n_events as u64) as u32
                    + rng.gen_range(0..600);
                let ap = match rng.gen_range(0..100) {
                    0..=69 => d.home_ap,
                    70..=94 => {
                        let delta = rng.gen_range(1..=3);
                        AP_BASE + ((d.home_ap - AP_BASE + delta).rem_euclid(NUM_APS as i64))
                    }
                    _ => AP_BASE + rng.gen_range(0..NUM_APS) as i64,
                };
                let event = vec![
                    Value::Int(event_id),
                    Value::Int(ap),
                    Value::Int(d.id),
                    Value::Time(t.min(86_399)),
                    Value::Date(date),
                ];
                db.insert(WIFI_TABLE, event)?;
                event_id += 1;
            }
        }
    }
    let events = event_id as u64;

    // --- indexes + statistics ----------------------------------------------
    for col in ["owner", "wifi_ap", "ts_time", "ts_date"] {
        db.create_index(WIFI_TABLE, col)?;
    }
    db.create_index("user_group_membership", "user_group_id")?;
    db.create_index("user_group_membership", "user_id")?;
    db.analyze(WIFI_TABLE)?;
    db.analyze("user_group_membership")?;

    Ok(TippersDataset {
        devices,
        groups,
        num_groups,
        start_date,
        days: config.days,
        events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::DbProfile;

    fn small() -> (Database, TippersDataset) {
        let mut db = Database::new(DbProfile::MySqlLike);
        let ds = generate(
            &mut db,
            &TippersConfig {
                seed: 42,
                scale: 0.005,
                days: 30,
            },
        )
        .unwrap();
        (db, ds)
    }

    #[test]
    fn profile_distribution_scales() {
        let (_, ds) = small();
        let visitors = ds.devices_of(UserProfile::Visitor).count();
        let faculty = ds.devices_of(UserProfile::Faculty).count();
        assert!(visitors > faculty, "visitors dominate the population");
        // 0.5% of 36K ≈ 180 devices.
        assert!((100..400).contains(&ds.devices.len()), "got {}", ds.devices.len());
    }

    #[test]
    fn events_loaded_and_indexed() {
        let (db, ds) = small();
        let entry = db.table(WIFI_TABLE).unwrap();
        assert_eq!(entry.table.len() as u64, ds.events);
        assert!(ds.events > 1000, "got {} events", ds.events);
        for col in ["owner", "wifi_ap", "ts_time", "ts_date"] {
            assert!(entry.has_index(col), "missing index on {col}");
            assert!(entry.histogram(col).is_some(), "missing histogram on {col}");
        }
    }

    #[test]
    fn visitors_connect_rarely() {
        let (db, ds) = small();
        let entry = db.table(WIFI_TABLE).unwrap();
        let count_for = |id: UserId| {
            entry
                .index_on("owner")
                .unwrap()
                .count_eq(&Value::Int(id))
        };
        let visitor_avg: f64 = {
            let ids: Vec<UserId> = ds.devices_of(UserProfile::Visitor).map(|d| d.id).collect();
            ids.iter().map(|&i| count_for(i) as f64).sum::<f64>() / ids.len() as f64
        };
        let grad_avg: f64 = {
            let ids: Vec<UserId> = ds.devices_of(UserProfile::Grad).map(|d| d.id).collect();
            ids.iter().map(|&i| count_for(i) as f64).sum::<f64>() / ids.len() as f64
        };
        assert!(
            grad_avg > visitor_avg * 10.0,
            "grads ({grad_avg:.1}) should vastly out-connect visitors ({visitor_avg:.1})"
        );
    }

    #[test]
    fn events_within_date_and_time_bounds() {
        let (db, ds) = small();
        let entry = db.table(WIFI_TABLE).unwrap();
        let (lo, hi) = ds.date_range();
        for row in entry.table.rows().iter().take(2000) {
            let d = row[4].as_date().unwrap();
            assert!((lo..=hi).contains(&d));
            let t = row[3].as_time().unwrap();
            assert!(t < 86_400);
            let ap = row[1].as_int().unwrap();
            assert!((AP_BASE..AP_BASE + NUM_APS as i64).contains(&ap));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (db1, ds1) = small();
        let (db2, ds2) = small();
        assert_eq!(ds1.events, ds2.events);
        assert_eq!(
            db1.table(WIFI_TABLE).unwrap().table.rows()[..50],
            db2.table(WIFI_TABLE).unwrap().table.rows()[..50]
        );
    }

    #[test]
    fn groups_populated() {
        let (_, ds) = small();
        let non_visitor = ds
            .devices
            .iter()
            .find(|d| d.profile != UserProfile::Visitor)
            .unwrap();
        let gs = ds.groups.groups_of(non_visitor.id);
        assert!(gs.contains(&non_visitor.group));
        assert!(gs.contains(&non_visitor.profile.group_id()));
    }
}
