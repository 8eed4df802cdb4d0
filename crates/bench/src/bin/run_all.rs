//! Regenerate every table and figure of the paper's evaluation, and this
//! reproduction's own ablation table, in one go by invoking the
//! per-experiment binaries as child processes. Outputs land in
//! `results/`.

use std::process::Command;

const EXPERIMENTS: [&str; 7] = [
    "exp1_guard_gen",
    "exp2_inline_delta",
    "exp2_index_choice",
    "exp3_query_perf",
    "exp4_postgres",
    "exp5_scalability",
    "exp6_ablation",
];

fn main() {
    let exe = std::env::current_exe().expect("current exe");
    let dir = exe.parent().expect("bin dir");
    let mut failures = Vec::new();
    for name in EXPERIMENTS {
        eprintln!("==> running {name}");
        let status = Command::new(dir.join(name)).status();
        match status {
            Ok(s) if s.success() => {}
            other => {
                eprintln!("    {name} failed: {other:?}");
                failures.push(name);
            }
        }
    }
    if failures.is_empty() {
        eprintln!("all experiments completed; see results/");
    } else {
        eprintln!("failed experiments: {failures:?}");
        std::process::exit(1);
    }
}
