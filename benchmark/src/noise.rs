//! `benchmark noise`: does the same code measure the same numbers?
//!
//! Runs `--sets` sets of `--runs` end-to-end runs of every workload, run
//! `i` of every set with seed `seed + i` — the acceptance check's own
//! shape: different seeds within a set, the same seeds across sets.

use std::fmt::Write as _;
use std::process::ExitCode;

use crate::plan::Workload;
use crate::report::metric_value;
use crate::stats::{iqr_share, median_of};
use crate::{run_child, sys, Res};

/// The gated metrics: name, unit, bound (the share of the median by
/// which a later change may worsen it), and whether lower is better.
/// `BENCHMARK.json` repeats this table; `tests` keep the two in step.
pub const END_TO_END: [(&str, &str, f64); 4] = [
    ("latency_p50_ms", "ms", 0.25),
    ("throughput_qps", "1/s", 0.25),
    ("peak_rss_mib", "MiB", 0.05),
    ("setup_s", "s", 0.25),
];

fn lower_is_better(metric: &str) -> bool {
    metric != "throughput_qps"
}

/// By how much `later` is worse than `earlier`, as a share of `earlier`
/// (negative when it is better).
fn worsening(metric: &str, earlier: f64, later: f64) -> f64 {
    let change = (later - earlier) / earlier;
    if lower_is_better(metric) {
        change
    } else {
        -change
    }
}

/// Run the sets, print the table, write `out/NOISE.json`.
pub fn run(sets: usize, runs: usize, seed: u64, seconds: u64) -> Res<ExitCode> {
    if sets < 2 || runs < 2 {
        return Err("noise needs --sets ≥ 2 and --runs ≥ 2".into());
    }
    // samples[set] holds that set's (workload, metric, value) triples.
    let mut samples: Vec<Vec<(usize, usize, f64)>> = Vec::new();
    for set in 0..sets {
        let mut this_set = Vec::new();
        for run in 0..runs {
            for (w, workload) in Workload::ALL.iter().enumerate() {
                let args: Vec<String> = [
                    "--workload",
                    workload.name(),
                    "--seed",
                    &(seed + run as u64).to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ]
                .map(String::from)
                .to_vec();
                let child = run_child(&args, true)?;
                let line = child.stdout.lines().last().unwrap_or_default();
                if !child.success {
                    let name = workload.name();
                    return Err(format!("{name} failed in set {set} run {run}: {line}").into());
                }
                for (m, (name, _, _)) in END_TO_END.iter().enumerate() {
                    let v =
                        metric_value(line, name).ok_or_else(|| format!("no {name} in {line}"))?;
                    this_set.push((w, m, v));
                }
                eprintln!("noise: set {set} run {run} {} done", workload.name());
            }
        }
        samples.push(this_set);
    }
    // The runs of one (workload, metric) pair, set by set.
    let runs_of = |w: usize, m: usize| -> Vec<Vec<f64>> {
        samples
            .iter()
            .map(|set| set.iter().filter(|s| s.0 == w && s.1 == m).map(|s| s.2).collect())
            .collect()
    };

    let mut table = String::new();
    let mut json_rows = Vec::new();
    let mut all_pass = true;
    let _ = writeln!(
        table,
        "{:<13} {:<15} {:>26} {:>9} {:>9} {:>7}  verdict",
        "workload", "metric", "set medians", "max diff", "max iqr", "½bound"
    );
    for (w, workload) in Workload::ALL.iter().enumerate() {
        for (m, (name, _, bound)) in END_TO_END.iter().enumerate() {
            let by_set = runs_of(w, m);
            let medians: Vec<f64> =
                by_set.iter().map(|set| median_of(set).unwrap_or(f64::NAN)).collect();
            // Largest pairwise worsening between any two sets, either
            // order: sets are exchangeable.
            let mut max_diff: f64 = 0.0;
            for a in &medians {
                for b in &medians {
                    max_diff = max_diff.max(worsening(name, *a, *b));
                }
            }
            let max_iqr = by_set.iter().filter_map(|set| iqr_share(set)).fold(0.0, f64::max);
            // The spread across seeds is not judged for `setup_s`.
            // Set medians must agree within half the bound; the spread
            // across seeds within a set must stay within the bound itself
            // (the pipeline's rule), except for `setup_s`.
            let spread_ok = *name == "setup_s" || max_iqr <= *bound;
            let pass = max_diff <= bound / 2.0 && spread_ok;
            all_pass &= pass;
            let shown: Vec<String> = medians.iter().map(|v| format!("{v:.4}")).collect();
            let _ = writeln!(
                table,
                "{:<13} {:<15} {:>26} {:>8.2}% {:>8.2}% {:>6.1}%  {}",
                workload.name(),
                name,
                shown.join(" "),
                max_diff * 100.0,
                max_iqr * 100.0,
                bound * 50.0,
                if pass { "PASS" } else { "FAIL" }
            );
            json_rows.push(format!(
                "{{\"workload\": \"{}\", \"metric\": \"{name}\", \"set_medians\": [{}], \
                 \"max_pairwise_worsening\": {max_diff:.6}, \"max_iqr_share\": {max_iqr:.6}, \
                 \"half_bound\": {}, \"pass\": {pass}}}",
                workload.name(),
                shown.join(", "),
                bound / 2.0
            ));
        }
    }
    print!("{table}");
    println!("{}", if all_pass { "noise: PASS" } else { "noise: FAIL" });
    let prov = sys::Provenance::collect(sys::pinnable_cpu());
    let json = format!(
        "{{\"kind\": \"noise\", {}, \"sets\": {sets}, \"runs\": {runs}, \"first_seed\": {seed}, \
         \"seconds\": {seconds}, \"pass\": {all_pass}, \"rows\": [\n  {}\n]}}\n",
        prov.json_members(),
        json_rows.join(",\n  ")
    );
    std::fs::write(sys::out_dir()?.join("NOISE.json"), json)?;
    Ok(if all_pass { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_repeats_the_workloads_and_the_gated_metrics() {
        use crate::report::manifest::{objects, read, string};
        let json = read();
        let workloads: Vec<&str> =
            objects(&json, "workloads").iter().map(|o| string(o, "name")).collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
        let declared = objects(&json, "end_to_end");
        assert_eq!(declared.len(), END_TO_END.len());
        for (object, (name, unit, bound)) in declared.iter().zip(END_TO_END) {
            assert_eq!(string(object, "name"), name);
            assert_eq!(string(object, "unit"), unit);
            let better = if lower_is_better(name) { "lower" } else { "higher" };
            assert_eq!(string(object, "better"), better, "{name}");
            assert!(
                object.contains(&format!("\"bound\": {bound}")),
                "{name}: bound {bound} in {object}"
            );
        }
    }

    #[test]
    fn worsening_respects_the_metric_direction() {
        assert!((worsening("latency_p50_ms", 1.0, 1.05) - 0.05).abs() < 1e-12);
        assert!((worsening("throughput_qps", 1000.0, 950.0) - 0.05).abs() < 1e-12);
        assert!(worsening("throughput_qps", 1000.0, 1100.0) < 0.0);
        assert!(worsening("setup_s", 2.0, 1.0) < 0.0);
    }
}
