//! What the `exp` and `bench` drivers stand on: the one arg/env parser
//! ([`EnvConfig`]), the campus and the synthetic wifi table, querier
//! picking, policy subsets, timing an enforcement mechanism the way
//! Section 7 does ([`time_enforcement`], [`measure`]), and the [`Record`]
//! that the printed table and `results/{BENCH,EXP}_<name>.json` are both
//! rendered from.

use minidb::stats::ExecStats;
use minidb::value::{DataType, Value as DbValue};
use minidb::{Database, DbProfile, SelectQuery, TableSchema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sieve_core::policy::{Policy, QueryMetadata, UserId};
use sieve_core::{Enforcement, GroupDirectory, SieveOptions, SieveService, SqlBackend};
use sieve_workload::profiles::UserProfile;
use sieve_workload::tippers::{generate as generate_tippers, TippersConfig, TippersDataset};
use sieve_workload::policy_gen::{generate_policies, PolicyGenConfig};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The one reading of the process's knobs, so the same binaries drive
/// quick runs and near-paper-scale runs: `SIEVE_SCALE` (default 0.05),
/// `SIEVE_DAYS` (default 90), `SIEVE_TIMEOUT_MS` (default 30000, the
/// paper's 30 s), and the `--quick` flag, which shrinks the dataset to a
/// seconds-long CI smoke whatever the environment says.
#[derive(Debug, Clone)]
pub struct EnvConfig {
    /// Dataset scale factor.
    pub scale: f64,
    /// Observation days.
    pub days: u32,
    /// Query timeout.
    pub timeout: Duration,
    /// `--quick`: CI smoke sizes, and [`Record::gate`] failures are fatal.
    pub quick: bool,
}

impl EnvConfig {
    /// Read from the environment and the command line.
    pub fn from_env() -> Self {
        fn var<T: std::str::FromStr>(name: &str, default: T) -> T {
            std::env::var(name).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
        }
        let quick = std::env::args().any(|a| a == "--quick");
        EnvConfig {
            scale: if quick { 0.004 } else { var("SIEVE_SCALE", 0.05) },
            days: if quick { 20 } else { var("SIEVE_DAYS", 90) },
            timeout: Duration::from_millis(var("SIEVE_TIMEOUT_MS", 30_000u64)),
            quick,
        }
    }

    /// `quick` under `--quick`, `full` otherwise (repetition counts and
    /// the like).
    pub fn pick<T>(&self, quick: T, full: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

/// What a driver's command line asks for: the named `items`, in their own
/// order, `all` standing for every one. Naming nothing, or something
/// unknown, prints the usage and exits with status 2.
pub fn asked_for<T: Copy>(driver: &str, kind: &str, items: &[(&str, T)]) -> Vec<T> {
    let asked: Vec<String> = std::env::args().skip(1).filter(|a| !a.starts_with("--")).collect();
    let known = |a: &String| a == "all" || items.iter().any(|(name, _)| name == a);
    if asked.is_empty() || !asked.iter().all(known) {
        let names: Vec<&str> = items.iter().map(|(name, _)| *name).collect();
        eprintln!("usage: {driver} <{kind}>... | all [--quick]   ({kind}s: {})", names.join(", "));
        std::process::exit(2);
    }
    let wanted = |name: &str| asked.iter().any(|a| a == "all" || a == name);
    items.iter().filter(|(name, _)| wanted(name)).map(|(_, item)| *item).collect()
}

/// A fully-loaded campus: SIEVE wrapping the TIPPERS database, with the
/// Section 7.1 policy corpus registered and groups wired up.
pub struct Campus {
    /// The middleware (owns the database).
    pub sieve: SieveService,
    /// Device directory and dataset metadata.
    pub dataset: TippersDataset,
    /// The full policy corpus (also registered in `sieve`).
    pub policies: Vec<Policy>,
}

/// Build the campus environment.
pub fn build_campus(profile: DbProfile, env: &EnvConfig) -> Campus {
    let mut db = Database::new(profile);
    let dataset = generate_tippers(
        &mut db,
        &TippersConfig {
            seed: 7,
            scale: env.scale,
            days: env.days,
        },
    )
    .expect("tippers generation");
    let policies = generate_policies(&dataset, &PolicyGenConfig::default());
    let sieve = SieveService::new(
        db,
        SieveOptions {
            timeout: Some(env.timeout),
            ..Default::default()
        },
    )
    .expect("sieve init");
    sieve.with_groups_mut(|g| *g = dataset.groups.clone());
    sieve
        .add_policies(policies.iter().cloned())
        .expect("register policies");
    // Re-collect with the store-assigned ids so direct guard generation
    // (Experiment 1) sees distinct policy identities.
    let policies = sieve.policies();
    Campus {
        sieve,
        dataset,
        policies,
    }
}

impl Campus {
    /// The policies of the corpus that apply to `qm` on the wifi relation,
    /// answered by the service's store index and handed back out of
    /// `policies` (the store's contents in id order).
    pub fn relevant(&self, qm: &QueryMetadata) -> Vec<&Policy> {
        let store = self.sieve.store();
        let relevant = store.relevant(sieve_workload::WIFI_TABLE, qm, &self.sieve.groups());
        let at = |p: &&Policy| self.policies.binary_search_by_key(&p.id, |q| q.id);
        relevant.iter().map(|p| &self.policies[at(p).expect("`policies` mirrors the store")]).collect()
    }
}

/// Number of policies relevant to a querier for the wifi relation.
pub fn querier_policy_count(campus: &Campus, querier: UserId, purpose: &str) -> usize {
    campus.relevant(&QueryMetadata::new(querier, purpose)).len()
}

/// A MySQL-profile `wifi_dataset(id, owner, wifi_ap, ts_time)` of `rows`
/// rows, row `i` holding `row(i)` = (owner, access point, seconds into
/// the day); every non-id column indexed, histograms analyzed. The table
/// Figures 3 and 4 sweep, where the campus would add noise.
pub fn synthetic_wifi(rows: i64, row: impl Fn(i64) -> (i64, i64, u32)) -> Database {
    const TABLE: &str = "wifi_dataset";
    let columns = [
        ("id", DataType::Int),
        ("owner", DataType::Int),
        ("wifi_ap", DataType::Int),
        ("ts_time", DataType::Time),
    ];
    let mut db = Database::new(DbProfile::MySqlLike);
    db.create_table(TableSchema::of(TABLE, &columns)).expect("fresh database");
    for i in 0..rows {
        let (owner, ap, secs) = row(i);
        let values = vec![DbValue::Int(i), DbValue::Int(owner), DbValue::Int(ap), DbValue::Time(secs)];
        db.insert(TABLE, values).expect("row matches the schema");
    }
    for (col, _) in &columns[1..] {
        db.create_index(TABLE, col).expect("column exists");
    }
    db.analyze(TABLE).expect("table exists");
    db
}

/// Pick `n` queriers of a profile, preferring those with the most
/// relevant policies (the paper selects queriers with ≥ a policy floor).
pub fn pick_queriers(
    campus: &Campus,
    profile: UserProfile,
    purpose: &str,
    n: usize,
) -> Vec<UserId> {
    let mut candidates: Vec<(usize, UserId)> = campus
        .dataset
        .devices_of(profile)
        .map(|d| (querier_policy_count(campus, d.id, purpose), d.id))
        .collect();
    candidates.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    candidates.into_iter().take(n).map(|(_, id)| id).collect()
}

/// All non-visitor queriers with at least `min_policies` relevant
/// policies, most-covered first.
pub fn queriers_with_policies(
    campus: &Campus,
    purpose: &str,
    min_policies: usize,
) -> Vec<(UserId, usize)> {
    let mut out: Vec<(UserId, usize)> = campus
        .dataset
        .devices
        .iter()
        .filter(|d| d.profile != UserProfile::Visitor)
        .map(|d| (d.id, querier_policy_count(campus, d.id, purpose)))
        .filter(|(_, c)| *c >= min_policies)
        .collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    out
}

/// Warm repetitions of one (mechanism, query) pair, summarised.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    /// Simulated cost in kilounits. A function of the execution counters,
    /// so repetitions agree and the median is that one value.
    pub kcost: f64,
    /// Wall milliseconds, with their spread.
    pub wall_ms: Stat,
}

impl Run {
    /// Summarise the statistics of repeated executions.
    pub fn of(runs: &[ExecStats]) -> Run {
        Run {
            kcost: Stat::of(runs.iter().map(|s| s.simulated_cost / 1e3).collect()).median,
            wall_ms: Stat::of(runs.iter().map(|s| s.wall.as_secs_f64() * 1e3).collect()),
        }
    }
}

/// Run a query under an enforcement mechanism `reps` times after one
/// warm-up run (the paper reports warm times; the warm-up also fills the
/// guard cache and registers ∆ partitions). `None` when any run fails —
/// the paper's `TO`. Generic over the execution backend so the same loop
/// measures the in-process and wire-SQL paths (Figure 5's comparison).
pub fn time_enforcement<B: SqlBackend>(
    sieve: &SieveService<B>,
    enforcement: Enforcement,
    query: &SelectQuery,
    qm: &QueryMetadata,
    reps: usize,
) -> Option<Run> {
    sieve.run_timed(enforcement, query, qm).0.ok()?;
    let runs: Option<Vec<ExecStats>> = (0..reps.max(1))
        .map(|_| {
            let (res, stats) = sieve.run_timed(enforcement, query, qm);
            res.ok().map(|_| stats)
        })
        .collect();
    Some(Run::of(&runs?))
}

/// `steps` growing policy-set sizes up to `max` (Figures 5 and 6). The
/// paper's sets start at 75–100 policies; a `--quick` querier has ≈ 15,
/// so the floor of ten that keeps a full run off trivial sets drops to 1.
pub fn sweep_sizes(max: usize, steps: usize, env: &EnvConfig) -> Vec<usize> {
    let floor = env.pick(1, 10);
    let step = (max / steps).max(floor);
    let mut sizes: Vec<usize> = (1..=steps).map(|i| (i * step).min(max)).filter(|&s| s >= floor).collect();
    sizes.dedup();
    sizes
}

/// `size` of `relevant`, drawn by a partial Fisher–Yates shuffle seeded
/// with `seed`: under one seed a smaller draw is a prefix of a larger
/// one, which is how Figure 5 grows its policy sets cumulatively.
pub fn policy_subset(relevant: &[&Policy], size: usize, seed: u64) -> Vec<Policy> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool: Vec<&Policy> = relevant.to_vec();
    let size = size.min(pool.len());
    for i in 0..size {
        let j = rng.gen_range(i..pool.len());
        pool.swap(i, j);
    }
    pool[..size].iter().map(|p| (*p).clone()).collect()
}

/// One cell of Figures 5 and 6: a fresh service over `backend` holding
/// exactly `policies`, and the warm simulated kilocost of `query` under
/// `enforcement` on it (`None` on any failure).
pub fn fresh_service_kcost<B: SqlBackend>(
    backend: B,
    groups: &GroupDirectory,
    policies: &[Policy],
    enforcement: Enforcement,
    query: &SelectQuery,
    qm: &QueryMetadata,
    env: &EnvConfig,
) -> Option<f64> {
    let options = SieveOptions { timeout: Some(env.timeout), ..Default::default() };
    let sieve = SieveService::with_backend(backend, options).ok()?;
    sieve.with_groups_mut(|g| *g = groups.clone());
    sieve.add_policies(policies.iter().cloned()).ok()?;
    Some(time_enforcement(&sieve, enforcement, query, qm, 2)?.kcost)
}

/// Microseconds per call over one block of `reps` back-to-back calls.
pub fn block_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    t.elapsed().as_secs_f64() * 1e6 / reps as f64
}

/// `blocks` timed blocks of `reps` calls each, in µs per call.
pub fn measure(blocks: usize, reps: usize, mut f: impl FnMut()) -> Stat {
    Stat::of((0..blocks).map(|_| block_us(reps, &mut f)).collect())
}

/// A sample summarised: the median with its quartiles — the noise band a
/// reader needs before comparing two records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    /// Median.
    pub median: f64,
    /// Lower quartile.
    pub q1: f64,
    /// Upper quartile.
    pub q3: f64,
    /// Observations.
    pub n: usize,
}

impl Stat {
    /// Summarise `samples` (quartiles interpolated linearly; all NaN when
    /// empty).
    pub fn of(mut samples: Vec<f64>) -> Stat {
        samples.sort_by(f64::total_cmp);
        let at = |q: f64| match samples.len() {
            0 => f64::NAN,
            n => {
                let pos = q * (n - 1) as f64;
                let (lo, hi) = (samples[pos.floor() as usize], samples[pos.ceil() as usize]);
                lo + (hi - lo) * pos.fract()
            }
        };
        Stat { median: at(0.5), q1: at(0.25), q3: at(0.75), n: samples.len() }
    }
}

/// One recorded value. Every metric is named once, where it is [`put`]:
/// that name is its table row and its JSON key — dotted like
/// `BENCHMARK.json`'s per-layer names (`warm.session.execute_us`), so a
/// record is flat and reads beside `benchmark --trace 1`.
///
/// [`put`]: Record::put
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A count.
    Count(u64),
    /// A measured or derived number.
    Num(f64),
    /// A verdict.
    Flag(bool),
    /// Free text (an access path, a backend name).
    Text(String),
    /// A timing or rate with its noise band.
    Timing(Stat),
    /// Rows of one shape (`hotpath`'s per-thread scans, the gates).
    Series(Vec<Fields>),
}

/// Ordered `(name, value)` pairs.
pub type Fields = Vec<(String, Value)>;

macro_rules! value_from {
    ($($t:ty => $arm:expr),+ $(,)?) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                $arm(v)
            }
        }
    )+};
}
value_from! {
    usize => |v| Value::Count(v as u64), u64 => Value::Count, f64 => Value::Num, bool => Value::Flag,
    &str => |v: &str| Value::Text(v.to_string()), String => Value::Text, Stat => Value::Timing,
    Vec<Fields> => Value::Series,
}

/// Ordered fields from `(name, value)` pairs (one [`Value::Series`] row).
pub fn fields<const N: usize>(items: [(&str, Value); N]) -> Fields {
    items.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

/// One scenario's or figure's result: what was measured, under which
/// build and configuration, and what was checked. The printed table and
/// the JSON are two renderings of the same ordered fields. Convention:
/// every wall-clock number is a [`Value::Timing`]; everything else is a
/// count or a simulated cost and repeats exactly, so two records of one
/// tree differ in their timings only.
#[derive(Debug, Clone)]
pub struct Record {
    bench: String,
    quick: bool,
    fields: Fields,
    gates: Vec<Fields>,
}

impl Record {
    /// A record for scenario `bench`, stamped with what a reader needs to
    /// place its numbers: the git revision built from, the cores
    /// available, and the dataset configuration.
    pub fn new(bench: &str, env: &EnvConfig) -> Record {
        let stamps = fields([
            ("bench", bench.into()),
            ("git_rev", git_rev().into()),
            ("nproc", nproc().into()),
            ("scale", env.scale.into()),
            ("days", (env.days as usize).into()),
            ("quick", env.quick.into()),
        ]);
        Record { bench: bench.to_string(), quick: env.quick, fields: stamps, gates: Vec::new() }
    }

    /// Record `value` under `name`.
    pub fn put(&mut self, name: &str, value: impl Into<Value>) {
        self.fields.push((name.to_string(), value.into()));
    }

    /// Record a check and its verdict. Under `--quick` a failed gate
    /// fails the run — in [`Record::emit`], after the record is written,
    /// so the numbers behind the failure are on disk.
    pub fn gate(&mut self, name: &str, pass: bool, detail: String) {
        self.gates.push(fields([("gate", name.into()), ("pass", pass.into()), ("detail", detail.into())]));
    }

    /// The gate both overhead scenarios share: `with` may cost at most
    /// [`OVERHEAD_GATE_PCT`] over `base`, or [`OVERHEAD_GATE_FLOOR_US`] in
    /// absolute terms. The samples are µs per call of interleaved blocks —
    /// `base_us[i]` and `with_us[i]` ran back to back — and the overhead is
    /// the median of their pairwise differences: a noisy spell slows both
    /// blocks of a pair, and it takes more than half the pairs disturbed
    /// one way to move it. Records the overhead and the verdict.
    pub fn gate_overhead(&mut self, name: &str, base_us: &[f64], with_us: &[f64]) {
        let paired = Stat::of(base_us.iter().zip(with_us).map(|(base, with)| with - base).collect());
        let base = Stat::of(base_us.to_vec()).median;
        let (overhead_us, overhead_pct) = (paired.median, 100.0 * paired.median / base.max(f64::EPSILON));
        self.put(&format!("{name}_us"), paired);
        self.put(&format!("{name}_pct"), overhead_pct);
        self.gate(
            name,
            overhead_pct < OVERHEAD_GATE_PCT || overhead_us < OVERHEAD_GATE_FLOOR_US,
            format!(
                "{overhead_us:.2} us ({overhead_pct:.1}%) against the {OVERHEAD_GATE_PCT}% / \
                 {OVERHEAD_GATE_FLOOR_US} us gate"
            ),
        );
    }

    /// Every field in order, the gates last.
    pub fn all_fields(&self) -> Fields {
        let mut all = self.fields.clone();
        all.push(("gates".to_string(), self.gates.clone().into()));
        all
    }

    /// The text rendering, in field order: one `name  value` line per
    /// scalar, one sub-table per series.
    pub fn table(&self) -> String {
        fn cell(v: &Value) -> String {
            let f = |x: f64| crate::table::ms(Some(x));
            match v {
                Value::Count(n) => n.to_string(),
                Value::Num(x) => f(*x),
                Value::Flag(b) => b.to_string(),
                Value::Text(t) => t.clone(),
                Value::Timing(s) => format!("{} [{} .. {}]", f(s.median), f(s.q1), f(s.q3)),
                Value::Series(rows) => format!("{} rows", rows.len()),
            }
        }
        let mut out = format!("=== {} ===\n", self.bench);
        let mut lines = Vec::new();
        let flush = |lines: &mut Vec<Vec<String>>, out: &mut String| {
            if !lines.is_empty() {
                out.push_str(&render(&["metric", "value"], lines));
                lines.clear();
            }
        };
        for (name, v) in self.all_fields() {
            match v {
                Value::Series(rows) if !rows.is_empty() => {
                    flush(&mut lines, &mut out);
                    let headers: Vec<&str> = rows[0].iter().map(|(k, _)| k.as_str()).collect();
                    let body: Vec<Vec<String>> =
                        rows.iter().map(|r| r.iter().map(|(_, v)| cell(v)).collect()).collect();
                    let _ = write!(out, "\n{name}:\n{}\n", render(&headers, &body));
                }
                scalar => lines.push(vec![name, cell(&scalar)]),
            }
        }
        flush(&mut lines, &mut out);
        out
    }

    /// The JSON rendering — the only JSON formatter in this crate: one
    /// flat object, a timing an inline object of its four numbers, a
    /// series an array of one-line objects.
    pub fn json(&self) -> String {
        // Four decimals: below any timer's resolution in ms or µs.
        fn num(x: f64) -> String {
            if x.is_finite() { format!("{}", (x * 1e4).round() / 1e4) } else { "null".to_string() }
        }
        fn text(t: &str, out: &mut String) {
            out.push('"');
            for c in t.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        fn object(fs: &Fields, first: &str, sep: &str, out: &mut String) {
            for (i, (k, v)) in fs.iter().enumerate() {
                out.push_str(if i == 0 { first } else { sep });
                text(k, out);
                out.push_str(": ");
                match v {
                    Value::Count(n) => out.push_str(&n.to_string()),
                    Value::Num(x) => out.push_str(&num(*x)),
                    Value::Flag(b) => out.push_str(&b.to_string()),
                    Value::Text(t) => text(t, out),
                    Value::Timing(s) => {
                        let _ = write!(
                            out,
                            "{{\"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
                            num(s.median), num(s.q1), num(s.q3), s.n
                        );
                    }
                    Value::Series(rows) => {
                        for (i, row) in rows.iter().enumerate() {
                            out.push_str(if i == 0 { "[\n    {" } else { "},\n    {" });
                            object(row, "", ", ", out);
                        }
                        out.push_str(if rows.is_empty() { "[]" } else { "}\n  ]" });
                    }
                }
            }
        }
        let mut out = "{".to_string();
        object(&self.all_fields(), "\n  ", ",\n  ", &mut out);
        out.push_str("\n}\n");
        out
    }

    fn failed_gates(&self) -> Vec<&Fields> {
        self.gates.iter().filter(|g| g[1].1 == Value::Flag(false)).collect()
    }

    /// Print the table, write `results/<kind>_<name>.json` (`BENCH` for a
    /// scenario, `EXP` for a figure), then enforce the gates under
    /// `--quick`.
    pub fn emit(self, kind: &str) {
        let bench = &self.bench;
        println!("{}", self.table());
        save(&format!("{kind}_{bench}.json"), &self.json());
        let failed = self.failed_gates();
        assert!(!self.quick || failed.is_empty(), "{kind} {bench}: gate(s) failed: {failed:?}");
    }
}

/// Render an aligned text table ([`Record::table`]'s layout).
fn render(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:>width$}", c, width = widths[i]));
        }
        line.push('\n');
        line
    };
    let hdr: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&hdr, &widths));
    let total: usize = widths.iter().sum::<usize>() + 2 * ncols.saturating_sub(1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// `--quick` gate: a mechanism that must be free on the warm path (the
/// retry layer with no faults, `verify_rewrites` with a warm cache) may
/// cost less than this much over the path without it.
pub const OVERHEAD_GATE_PCT: f64 = 5.0;

/// Absolute escape hatch for the gate: overhead below this many µs is
/// inside the timer's resolution on a noisy shared container and passes
/// regardless of percentage (the quick-scale baseline is tens of µs, so a
/// few µs of scheduler jitter can read as > 5 %). Any real regression — an
/// extra lock, an allocation per attempt, verification on a warm hit —
/// costs more than this and still trips the gate.
pub const OVERHEAD_GATE_FLOOR_US: f64 = 10.0;

/// Interleaved block pairs an overhead gate is measured over.
pub const OVERHEAD_GATE_PAIRS: usize = 20;

/// `HEAD`, with `-dirty` when anything outside `results/` differs from it
/// (a record written a moment ago must not taint the next one's stamp);
/// `unknown` outside a git checkout.
fn git_rev() -> String {
    let git = |args: &[&str]| {
        let out = std::process::Command::new("git").args(args).output().ok()?;
        out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let Some(rev) = git(&["rev-parse", "--short", "HEAD"]) else {
        return "unknown".to_string();
    };
    match git(&["status", "--porcelain", "--", ":/", ":(top,exclude)results"]) {
        Some(changes) if changes.is_empty() => rev,
        _ => format!("{rev}-dirty"),
    }
}

/// Cores this process may use (recorded with every result that depends on
/// threads).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// This process's resident set in KiB (`VmRSS`), where `/proc` has it.
pub fn rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmRSS:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// Write `results/<file>`; a failure is a warning, not the run's result.
fn save(file: &str, content: &str) {
    let dir = std::path::Path::new("results");
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join(file);
    match std::fs::write(&path, content) {
        Ok(()) => eprintln!("[saved {}]", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_env() -> EnvConfig {
        EnvConfig {
            scale: 0.005,
            days: 30,
            timeout: Duration::from_secs(10),
            quick: false,
        }
    }

    #[test]
    fn campus_builds_and_queriers_have_policies() {
        let campus = build_campus(DbProfile::MySqlLike, &tiny_env());
        assert!(campus.policies.len() > 100);
        let faculty = pick_queriers(&campus, UserProfile::Faculty, "Analytics", 2);
        assert!(!faculty.is_empty());
        assert!(querier_policy_count(&campus, faculty[0], "Analytics") > 0);
        // The store's index answers what the oracle's scan of the corpus does.
        let qm = QueryMetadata::new(faculty[0], "Analytics");
        let scan = sieve_core::filter::relevant_policies(
            campus.policies.iter(),
            sieve_workload::WIFI_TABLE,
            &qm,
            &campus.sieve.groups(),
        );
        assert_eq!(campus.relevant(&qm), scan);
    }

    #[test]
    fn timing_produces_numbers() {
        let campus = build_campus(DbProfile::MySqlLike, &tiny_env());
        let querier = pick_queriers(&campus, UserProfile::Grad, "Analytics", 1)[0];
        let qm = QueryMetadata::new(querier, "Analytics");
        let q = SelectQuery::star_from(sieve_workload::WIFI_TABLE);
        let t = time_enforcement(&campus.sieve, Enforcement::Sieve, &q, &qm, 2).expect("no timeout");
        assert_eq!(t.wall_ms.n, 2);
        assert!(t.kcost > 0.0);
        // The simulated clock repeats, on this service and across fresh
        // ones holding the same subset of the querier's policies.
        assert_eq!(time_enforcement(&campus.sieve, Enforcement::Sieve, &q, &qm, 1).unwrap().kcost, t.kcost);
        let relevant = campus.relevant(&qm);
        let half = policy_subset(&relevant, relevant.len() / 2, 3);
        assert_eq!(half[..2], policy_subset(&relevant, 2, 3)[..], "one seed draws cumulatively");
        let groups = campus.sieve.groups().clone();
        let fresh = || {
            let db = campus.sieve.db().clone();
            fresh_service_kcost(db, &groups, &half, Enforcement::Sieve, &q, &qm, &tiny_env())
        };
        assert!(fresh().unwrap() > 0.0);
        assert_eq!(fresh(), fresh());
    }

    #[test]
    fn renders_aligned() {
        let t = render(
            &["name", "ms"],
            &[
                vec!["Q1".into(), "418".into()],
                vec!["Q2-long".into(), "9".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[3].trim_start().starts_with("Q2-long"));
    }

    #[test]
    fn sweep_sizes_keep_the_full_runs_and_leave_quick_three_or_more() {
        let full = tiny_env();
        assert_eq!(sweep_sizes(191, 10, &full), (1..=10).map(|i| i * 19).collect::<Vec<_>>());
        assert_eq!(sweep_sizes(352, 12, &full).last(), Some(&348));
        assert_eq!(sweep_sizes(25, 10, &full), [10, 20, 25], "floor of ten, capped, no repeats");
        // A `--quick` querier has ≈ 14 policies: the old floor left one size.
        assert_eq!(sweep_sizes(14, 4, &EnvConfig { quick: true, ..full }), [3, 6, 9, 12]);
    }

    #[test]
    fn stat_is_median_and_quartiles() {
        let s = Stat::of(vec![5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 3.0, 4.0, 5));
        assert_eq!(Stat::of(vec![1.0, 2.0]).median, 1.5, "interpolated");
        assert_eq!(Stat::of(vec![7.0]), Stat { median: 7.0, q1: 7.0, q3: 7.0, n: 1 });
        assert!(Stat::of(Vec::new()).median.is_nan());
        let mut calls = 0;
        assert_eq!(measure(4, 3, || calls += 1).n, 4);
        assert_eq!(calls, 12);
    }

    /// Just enough JSON to read [`Record::json`] back into [`Value`]s: an
    /// array is a series, an inline object a timing, an integer a count.
    struct Json(Vec<char>, usize);

    impl Json {
        fn peek(&mut self) -> char {
            while self.0[self.1].is_whitespace() {
                self.1 += 1;
            }
            self.0[self.1]
        }
        fn eat(&mut self, c: char) {
            assert_eq!(self.peek(), c, "at offset {}", self.1);
            self.1 += 1;
        }
        fn string(&mut self) -> String {
            self.eat('"');
            let mut out = String::new();
            loop {
                self.1 += 1;
                match self.0[self.1 - 1] {
                    '"' => return out,
                    '\\' => {
                        self.1 += 1;
                        match self.0[self.1 - 1] {
                            'n' => out.push('\n'),
                            'u' => {
                                let hex: String = self.0[self.1..self.1 + 4].iter().collect();
                                out.push(char::from_u32(u32::from_str_radix(&hex, 16).unwrap()).unwrap());
                                self.1 += 4;
                            }
                            c => out.push(c),
                        }
                    }
                    c => out.push(c),
                }
            }
        }
        /// `open item, item, … close`, each item read by `item`.
        fn list<T>(&mut self, open: char, close: char, mut item: impl FnMut(&mut Self) -> T) -> Vec<T> {
            let mut items = Vec::new();
            self.eat(open);
            while self.peek() != close {
                items.push(item(self));
                if self.peek() == ',' {
                    self.eat(',');
                }
            }
            self.eat(close);
            items
        }
        fn object(&mut self) -> Fields {
            self.list('{', '}', |j| {
                let k = j.string();
                j.eat(':');
                (k, j.value())
            })
        }
        fn value(&mut self) -> Value {
            match self.peek() {
                '"' => Value::Text(self.string()),
                '[' => Value::Series(self.list('[', ']', Self::object)),
                '{' => {
                    let read = self.object();
                    let at = |i: usize| match read[i].1 {
                        Value::Num(x) => x,
                        Value::Count(n) => n as f64,
                        _ => panic!("a timing holds numbers"),
                    };
                    let keys: Vec<&str> = read.iter().map(|(k, _)| k.as_str()).collect();
                    assert_eq!(keys, ["median", "q1", "q3", "n"]);
                    Value::Timing(Stat { median: at(0), q1: at(1), q3: at(2), n: at(3) as usize })
                }
                _ => {
                    let start = self.1;
                    while !",}] \n".contains(self.0[self.1]) {
                        self.1 += 1;
                    }
                    let word: String = self.0[start..self.1].iter().collect();
                    match word.as_str() {
                        "true" => Value::Flag(true),
                        "false" => Value::Flag(false),
                        n => n.parse().map(Value::Count).unwrap_or_else(|_| Value::Num(n.parse().unwrap())),
                    }
                }
            }
        }
    }

    fn sample_record() -> Record {
        let timing = Stat { median: 12.5, q1: 11.25, q3: 14.75, n: 6 };
        let mut rec = Record::new("sample", &EnvConfig { quick: true, ..tiny_env() });
        rec.put("table_rows", 200_123usize);
        rec.put("access", "Index\"Union\"(col=owner)\\ line1\nline2 \u{1} µ");
        rec.put("warm.raw.session.execute_us", timing);
        rec.put("warm.raw.speedup", 2.4);
        let row = |threads: usize| {
            let exec_us = Stat { median: threads as f64 + 0.5, ..timing };
            fields([("threads", threads.into()), ("access", "SeqScan".into()), ("backend.exec_us", exec_us.into())])
        };
        rec.put("parallel_scan", vec![row(1), row(2)]);
        rec.put("after_series", 0.125);
        rec.gate("rows_match", true, "5 vs 5".into());
        rec.gate("beats_scan", false, "9.5 us against \"8.5\" us".into());
        rec
    }

    #[test]
    fn record_json_round_trips_stamps_escapes_and_nested_series() {
        let rec = sample_record();
        let text = rec.json();
        let mut reader = Json(text.chars().collect(), 0);
        let read = reader.object();
        assert_eq!(reader.0[reader.1..].iter().collect::<String>(), "\n", "one object, nothing after");
        assert_eq!(read, rec.all_fields(), "every value survives the trip:\n{text}");

        let names: Vec<&str> = read.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names[..6], ["bench", "git_rev", "nproc", "scale", "days", "quick"]);
        assert_eq!(names[8..10], ["warm.raw.session.execute_us", "warm.raw.speedup"]);
        assert_eq!(names.last(), Some(&"gates"));
        assert_eq!(read[0].1, Value::Text("sample".into()));
        assert!(matches!(&read[1].1, Value::Text(rev) if !rev.is_empty()));
        assert_eq!(read[2].1, Value::Count(nproc() as u64));
        let Value::Series(rows) = &read[10].1 else { panic!("parallel_scan is a series") };
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1][0], ("threads".to_string(), Value::Count(2)));
    }

    #[test]
    fn record_table_and_json_list_the_same_fields_in_the_same_order() {
        let rec = sample_record();
        let text = rec.json();
        let read = Json(text.chars().collect(), 0).object();
        let table = rec.table();
        // Every JSON key — and every column of every series — appears in
        // the table, in the JSON's order.
        let mut from = 0;
        let mut next = |name: &str| {
            let at = table[from..].find(name).unwrap_or_else(|| panic!("{name} missing or out of order"));
            from += at + name.len();
        };
        for (name, v) in &read {
            next(name);
            if let Value::Series(rows) = v {
                rows[0].iter().for_each(|(column, _)| next(column));
            }
        }
        assert!(table.contains("12.5 [11.2 .. 14.8]"), "median with its quartiles:\n{table}");
        assert!(table.contains("beats_scan  false  9.5 us against \"8.5\" us"), "{table}");
        assert_eq!(rec.failed_gates().len(), 1);
        assert_eq!(rec.failed_gates()[0][0].1, Value::Text("beats_scan".into()));
    }
}
