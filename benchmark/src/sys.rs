//! The machine-facing bits: `/proc/self/status` parsers, CPU pinning
//! through `taskset`, and the provenance every output record carries.

use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Value of a `Key:\t value [unit]` line of `/proc/<pid>/status`.
fn status_field<'a>(status: &'a str, key: &str) -> Option<&'a str> {
    status.lines().find_map(|l| l.strip_prefix(key)?.strip_prefix(':')).map(str::trim)
}

/// Peak resident set size (`VmHWM`) in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status_field(status, "VmHWM")?.split_whitespace().next()?.parse().ok()
}

/// Highest CPU of `Cpus_allowed_list` (`0-1`, `0,2-3`, `5`).
pub fn parse_highest_allowed_cpu(status: &str) -> Option<u32> {
    status_field(status, "Cpus_allowed_list")?
        .split(',')
        .filter_map(|range| range.rsplit('-').next()?.trim().parse().ok())
        .max()
}

fn self_status() -> Option<String> {
    std::fs::read_to_string("/proc/self/status").ok()
}

/// Peak RSS of this process so far, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    Some(parse_vm_hwm_kib(&self_status()?)? as f64 / 1024.0)
}

/// The CPU a workload process is pinned to: the highest one this process
/// may run on (CPU 0 takes most interrupts), provided `taskset` exists
/// and accepts it. `None` means run unpinned.
pub fn pinnable_cpu() -> Option<u32> {
    let cpu = parse_highest_allowed_cpu(&self_status()?)?;
    let ok = Command::new("taskset")
        .args(["-c", &cpu.to_string(), "true"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map(|s| s.success())
        .unwrap_or(false);
    ok.then_some(cpu)
}

/// First line of a command's stdout, or `unknown`.
fn first_line(cmd: &mut Command) -> String {
    cmd.stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The benchmark's own directory (`benchmark/`): `cargo run` exports it,
/// a directly started binary falls back to where it was compiled.
pub fn bench_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

/// `benchmark/out/`, created on demand.
pub fn out_dir() -> std::io::Result<PathBuf> {
    let dir = bench_dir().join("out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Where the numbers came from; part of every output record.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// `git rev-parse --short HEAD` of the tree the benchmark sits in
    /// (`unknown` outside a git checkout).
    pub git_rev: String,
    /// `rustc --version`.
    pub rustc: String,
    /// `std::thread::available_parallelism` of the measuring process.
    pub nproc: usize,
    /// CPU the workload process is pinned to, if any.
    pub pinned_cpu: Option<u32>,
}

impl Provenance {
    /// Collect; `pinned_cpu` is what the parent process told this one.
    pub fn collect(pinned_cpu: Option<u32>) -> Self {
        Provenance {
            git_rev: first_line(Command::new("git").arg("-C").arg(bench_dir()).args([
                "rev-parse",
                "--short",
                "HEAD",
            ])),
            rustc: first_line(Command::new("rustc").arg("--version")),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            pinned_cpu,
        }
    }

    /// JSON members (no braces) shared by every record.
    pub fn json_members(&self) -> String {
        let pinned = match self.pinned_cpu {
            Some(cpu) => format!("\"pinned\": true, \"pinned_cpu\": {cpu}"),
            None => "\"pinned\": false".to_string(),
        };
        format!(
            "\"git_rev\": \"{}\", \"rustc\": \"{}\", \"nproc\": {}, {}",
            crate::report::escape(&self.git_rev),
            crate::report::escape(&self.rustc),
            self.nproc,
            pinned
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tbenchmark\nVmPeak:\t  999999 kB\nVmHWM:\t   20484 kB\n\
                          VmRSS:\t   1804 kB\nCpus_allowed:\tf\nCpus_allowed_list:\t0-1\n";

    #[test]
    fn vm_hwm_is_parsed_in_kib() {
        assert_eq!(parse_vm_hwm_kib(STATUS), Some(20484));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 12 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t lots kB\n"), None);
    }

    #[test]
    fn highest_allowed_cpu_handles_ranges_and_lists() {
        assert_eq!(parse_highest_allowed_cpu(STATUS), Some(1));
        assert_eq!(parse_highest_allowed_cpu("Cpus_allowed_list:\t5\n"), Some(5));
        assert_eq!(parse_highest_allowed_cpu("Cpus_allowed_list:\t0,2-3\n"), Some(3));
        assert_eq!(parse_highest_allowed_cpu("Cpus_allowed_list:\t8-15,0-3\n"), Some(15));
        // `Cpus_allowed` (the mask) must not be mistaken for the list.
        assert_eq!(parse_highest_allowed_cpu("Cpus_allowed:\tff\n"), None);
        assert_eq!(parse_highest_allowed_cpu(""), None);
    }

    #[test]
    fn this_process_has_a_peak_rss() {
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
