//! `benchmark` — one pinned, best-block end-to-end benchmark of the
//! SIEVE stack over a real TCP socket, with an outside-in layer trace.
//!
//! ```text
//! benchmark --workload <name> [--seed n] [--seconds s] [--trace 0|1]
//! benchmark all   [--seed n] [--seconds s]
//! benchmark noise [--sets 2] [--runs 5] [--seed n] [--seconds s]
//! ```
//!
//! Every workload runs in a child process of its own, re-executed under
//! `taskset -c <highest allowed CPU>`; see `README.md`.

mod fixture;
mod noise;
mod oracle;
mod plan;
mod report;
mod run;
mod stats;
mod sys;
mod tcp;
mod trace;

use std::process::{Command, ExitCode, Stdio};

use plan::Workload;
use sys::Provenance;

/// Everything fallible in the benchmark reports through this.
pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Set by the parent for the child that does the measuring: the CPU it
/// was pinned to, or `none`.
const CHILD_ENV: &str = "SIEVE_BENCH_PINNED";

/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 25;
const DEFAULT_SEED: u64 = 7;

/// Parsed command line.
struct Args {
    command: Option<String>,
    options: Vec<(String, String)>,
}

impl Args {
    fn parse(raw: &[String]) -> Res<Args> {
        let mut it = raw.iter().peekable();
        let command = it.next_if(|a| !a.starts_with("--")).cloned();
        let mut options = Vec::new();
        while let Some(flag) = it.next() {
            let name =
                flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag}"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            options.push((name.to_string(), value.clone()));
        }
        Ok(Args { command, options })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.options.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    fn number(&self, name: &str, default: u64) -> Res<u64> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => {
                v.parse().map_err(|_| format!("--{name} takes a whole number, got {v}").into())
            }
        }
    }
}

/// One workload run as its own pinned process. `args` are the child's
/// command-line arguments.
pub struct ChildRun {
    /// True iff the child exited with code 0.
    pub success: bool,
    /// The child's standard output when captured.
    pub stdout: String,
}

/// Re-execute this binary with `args` as the measuring child — under
/// `taskset` when the machine allows pinning, unpinned with a warning
/// otherwise. With `capture` the child's stdout is returned instead of
/// passed through.
pub fn run_child(args: &[String], capture: bool) -> Res<ChildRun> {
    let exe = std::env::current_exe()?;
    let cpu = sys::pinnable_cpu();
    let mut cmd = match cpu {
        Some(cpu) => {
            let mut c = Command::new("taskset");
            c.args(["-c", &cpu.to_string()]).arg(&exe);
            c
        }
        None => {
            eprintln!(
                "benchmark: warning: taskset missing or refused; running unpinned (pinned=false)"
            );
            Command::new(&exe)
        }
    };
    cmd.args(args)
        .env(CHILD_ENV, cpu.map_or("none".to_string(), |c| c.to_string()))
        .stdin(Stdio::null())
        .stdout(if capture { Stdio::piped() } else { Stdio::inherit() });
    let output = cmd.spawn()?.wait_with_output()?;
    Ok(ChildRun {
        success: output.status.success(),
        stdout: String::from_utf8_lossy(&output.stdout).into_owned(),
    })
}

/// The measuring child: run one workload, print its record and, last,
/// the result line. Exit code 1 when any operation failed.
fn child(args: &Args, pinned: &str) -> Res<ExitCode> {
    let name = args.get("workload").ok_or("--workload is required")?;
    let workload = Workload::from_name(name).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    let seed = args.number("seed", DEFAULT_SEED)?;
    let seconds = args.number("seconds", DEFAULT_SECONDS)?;
    let traced = match args.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other}").into()),
    };
    let prov = Provenance::collect(pinned.parse().ok());

    let (kind, metrics, tally, record) = if traced {
        let t = trace::run_trace(workload, seed, &prov)?;
        ("trace", t.metrics, t.tally, t.record)
    } else {
        let o = run::run_e2e(workload, seed, seconds, &prov)?;
        ("e2e", o.metrics, o.tally, o.record)
    };
    let path = sys::out_dir()?.join(format!("{kind}_{}.json", workload.name()));
    std::fs::write(&path, format!("{record}\n"))?;
    let correct = tally.failed == 0;
    println!("{record}");
    println!("{}", report::result_line(correct, tally.attempted, tally.failed, &metrics));
    Ok(if correct { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

/// `benchmark all`: every workload end to end, every metric by name
/// with its unit.
fn all(args: &Args) -> Res<ExitCode> {
    let mut ok = true;
    println!("{:<14} {:<16} {:>14} unit", "workload", "metric", "value");
    for workload in Workload::ALL {
        let mut child_args = vec!["--workload".to_string(), workload.name().to_string()];
        for name in ["seed", "seconds"] {
            if let Some(v) = args.get(name) {
                child_args.extend([format!("--{name}"), v.to_string()]);
            }
        }
        let run = run_child(&child_args, true)?;
        let line = run.stdout.lines().last().unwrap_or_default();
        ok &= run.success;
        for (name, unit, _) in noise::END_TO_END {
            match report::metric_value(line, name) {
                Some(v) => println!("{:<14} {:<16} {:>14.4} {unit}", workload.name(), name, v),
                None => println!("{:<14} {:<16} {:>14} {unit}", workload.name(), name, "missing"),
            }
        }
        let n = |key| report::top_level_number(line, key).unwrap_or(f64::NAN);
        println!(
            "{:<14} ops_attempted {} ops_failed {}",
            workload.name(),
            n("attempted"),
            n("failed")
        );
    }
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

fn real_main() -> Res<ExitCode> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&raw)?;
    if let Ok(pinned) = std::env::var(CHILD_ENV) {
        return child(&args, &pinned);
    }
    match args.command.as_deref() {
        Some("all") => all(&args),
        Some("noise") => noise::run(
            args.number("sets", 2)? as usize,
            args.number("runs", 5)? as usize,
            args.number("seed", 1)?,
            args.number("seconds", DEFAULT_SECONDS)?,
        ),
        Some(other) => Err(format!("unknown command {other}; see benchmark/README.md").into()),
        None => {
            // The driver's form. Check the arguments here so a typo
            // fails before a process is spawned.
            args.get("workload").ok_or("--workload is required; see benchmark/README.md")?;
            let run = run_child(&raw, false)?;
            Ok(if run.success { ExitCode::SUCCESS } else { ExitCode::from(1) })
        }
    }
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}
