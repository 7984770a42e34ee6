//! `--check-noise R`: are two sets of runs of the same code within the
//! benchmark's own bounds of each other?
//!
//! Mirrors what the benchmark driver does before it accepts the
//! benchmark: two sets of `R` runs of one workload, each run its own
//! process with its own seed. For every end-to-end metric the spread of
//! a set (inter-quartile distance over median) must stay within the
//! metric's bound — `setup_s` excepted — and the second set's median
//! may not be worse than the first's by more than the bound.

use crate::metrics::END_TO_END;
use crate::stats;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// Runs this executable once and returns the end-to-end metrics it
/// printed as `name value unit` lines.
fn one_run(workload: &str, seed: u64, seconds: f64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "run with seed {seed} failed ({}): {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let metrics: BTreeMap<String, f64> = stdout
        .lines()
        .filter_map(|line| {
            let mut words = line.split_whitespace();
            let name = words.next()?;
            let value: f64 = words.next()?.parse().ok()?;
            END_TO_END.iter().any(|m| m.name == name).then(|| (name.to_string(), value))
        })
        .collect();
    if metrics.len() == END_TO_END.len() {
        Ok(metrics)
    } else {
        Err(format!(
            "run with seed {seed} printed {} of {} metrics",
            metrics.len(),
            END_TO_END.len()
        ))
    }
}

/// Runs the two sets and prints the verdict per metric.
pub fn check(workload: &str, seed: u64, seconds: f64, runs: usize) -> ExitCode {
    let mut sets: [Vec<BTreeMap<String, f64>>; 2] = [Vec::new(), Vec::new()];
    for (index, set) in sets.iter_mut().enumerate() {
        for run in 0..runs {
            let run_seed = seed + run as u64;
            eprintln!(
                "check-noise: {workload}, set {}, run {} of {runs}, seed {run_seed}",
                index + 1,
                run + 1
            );
            match one_run(workload, run_seed, seconds) {
                Ok(metrics) => set.push(metrics),
                Err(message) => {
                    eprintln!("perf_e2e: {message}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    println!(
        "# {workload}: two sets of {runs} runs, seeds {seed}..{}, {seconds} s each",
        seed + runs as u64 - 1
    );
    println!(
        "{:<16} {:>12} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "metric", "median 1", "q1", "q3", "spread1", "spread2", "shift", "bound"
    );
    let mut within = true;
    for metric in &END_TO_END {
        let bound = metric.bound.expect("end-to-end metrics carry a bound");
        let column = |set: &Vec<BTreeMap<String, f64>>| -> Vec<f64> {
            set.iter().map(|run| run[metric.name]).collect()
        };
        let (first, second) = (column(&sets[0]), column(&sets[1]));
        let (q1, q3) = stats::quartiles(&first);
        let (median1, median2) = (stats::median(&first), stats::median(&second));
        let (spread1, spread2) = (stats::spread(&first), stats::spread(&second));
        // How much worse the second set's median is, as a share of the
        // first's (negative: it is better).
        let worse = if metric.better == "lower" { median2 - median1 } else { median1 - median2 };
        let shift = if median1 == 0.0 { 0.0 } else { worse / median1.abs() };
        let steady = metric.name == "setup_s" || spread1.max(spread2) <= bound;
        let ok = steady && shift <= bound;
        within &= ok;
        println!(
            "{:<16} {:>12.4} {:>12.4} {:>12.4} {:>8.4} {:>8.4} {:>8.4} {:>6.2}  {}",
            metric.name,
            median1,
            q1,
            q3,
            spread1,
            spread2,
            shift,
            bound,
            if ok { "ok" } else { "OUTSIDE BOUND" }
        );
    }
    if within {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
