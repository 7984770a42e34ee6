//! `perf_e2e` — the repository's end-to-end, layer-attributed benchmark.
//!
//! One process runs one workload (see `workloads.rs`, README.md and
//! `../BENCHMARK.json`):
//!
//! ```text
//! perf_e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! perf_e2e --workload <name> --check-noise R [--seed N] [--seconds S]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: set-up (several times),
//! then fresh-engine production passes with tracing off until `S`
//! seconds have passed. `--trace 1` measures the per-layer metrics:
//! rounds of an untraced production pass, a traced production pass and
//! the staged single-threaded pass. Either way every ranking is checked
//! against the sequential reference replay, every metric is printed as
//! `name value unit`, and the last line of standard output is the JSON
//! object the benchmark driver reads. Any failed check exits non-zero.

mod drivers;
mod metrics;
mod noise;
mod stats;
mod trace;
mod workloads;

use drivers::{prod_pass, staged_pass, Pass};
use enblogue::datagen::evaluate;
use enblogue::prelude::*;
use metrics::{END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workloads::{Scale, Workload};

/// `--seconds` when the flag is absent: BENCHMARK.json's `run_seconds`.
const DEFAULT_SECONDS: f64 = 20.0;
/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Tick closes a full-scale run measures at least, so that ten samples
/// lie beyond the 95th percentile.
const MIN_CLOSES: usize = 200;
/// Share of the staged pass's wall clock that must land in named layers.
const MIN_ATTRIBUTED_SHARE: f64 = 0.90;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    scale: Scale,
    check_noise: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: workloads::DEFAULT_SEED,
        seconds: None,
        trace: false,
        scale: Scale::Full,
        check_noise: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                };
            }
            "--smoke" => args.scale = Scale::Smoke,
            "--check-noise" => {
                let runs: usize =
                    value("a run count")?.parse().map_err(|e| format!("--check-noise: {e}"))?;
                if runs < 2 {
                    return Err("--check-noise needs at least 2 runs per set".into());
                }
                args.check_noise = Some(runs);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Where checkpoints and trace files go: inside the build directory,
/// which is inside the checkout and ignored by git.
fn scratch_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    target.join("perf_e2e")
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Operations checked against their expected outcome, and how many
/// failed.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
}

impl Ops {
    /// Tick-for-tick comparison of one pass's rankings with the
    /// reference, plus the pass's reads and checkpoint round trips.
    fn judge(&mut self, what: &str, pass: &Pass, reference: &[RankingSnapshot]) {
        let ticks = pass.snapshots.len().max(reference.len());
        let equal = pass.snapshots.iter().zip(reference).filter(|(a, b)| a == b).count();
        let round_trips = pass.checkpoint_ms.len() as u64;
        self.attempted += ticks as u64 + pass.reads.done + round_trips;
        let failed = (ticks - equal) as u64 + pass.reads.failed + pass.round_trips_failed;
        if failed > 0 {
            eprintln!(
                "perf_e2e: {what}: {} of {ticks} rankings differ from the reference, {} of {} \
                 reads failed, {} of {round_trips} round trips diverged",
                ticks - equal,
                pass.reads.failed,
                pass.reads.done,
                pass.round_trips_failed,
            );
        }
        self.failed += failed;
    }
}

/// The sequential reference: `run_replay` of the clean stream.
fn reference(w: &Workload) -> Vec<RankingSnapshot> {
    StagePipeline::new(w.clean_config()).run_replay(w.clean_docs())
}

/// Generates the workload and runs the warm-up pass over the head of
/// the stream: everything that happens before the first measured pass.
fn set_up(name: &str, seed: u64, scale: Scale, scratch: &std::path::Path) -> Option<Workload> {
    let w = workloads::build(name, seed, scale)?;
    let head = &w.arrivals[..w.arrivals.len() / 8];
    prod_pass(&w, head, &mut Tracer::off(), scratch);
    Some(w)
}

type Metrics = BTreeMap<&'static str, f64>;

/// `--trace 0`: the end-to-end metrics.
fn measure_end_to_end(args: &Args, name: &str, seconds: f64, ops: &mut Ops) -> Option<Metrics> {
    let scratch = scratch_dir();
    // The smoke scale checks, it does not measure: one set-up, one pass.
    let smoke = args.scale == Scale::Smoke;
    let mut setup_s = Vec::new();
    let mut w = None;
    for _ in 0..if smoke { 1 } else { SETUP_REPS } {
        drop(w.take());
        let started = Instant::now();
        w = Some(set_up(name, args.seed, args.scale, &scratch)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let w = w.expect("at least one set-up");

    let mut passes: Vec<Pass> = Vec::new();
    let mut closes = 0;
    let started = Instant::now();
    while passes.is_empty()
        || started.elapsed().as_secs_f64() < seconds
        || (!smoke && closes < MIN_CLOSES)
    {
        let pass = prod_pass(&w, &w.arrivals, &mut Tracer::off(), &scratch);
        closes += pass.close_ms.len();
        passes.push(pass);
    }
    let peak_rss_mb = peak_rss_mb();

    let reference = reference(&w);
    for (i, pass) in passes.iter().enumerate() {
        ops.judge(&format!("production pass {i}"), pass, &reference);
    }
    let last = passes.last().expect("at least one pass");
    let recall = evaluate(&last.snapshots, &w.script, w.config.k, w.grace_ms()).recall;

    let per_pass = |f: &dyn Fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    let pooled = |f: &dyn Fn(&Pass) -> &Vec<f64>| {
        passes.iter().flat_map(|p| f(p).iter().copied()).collect::<Vec<f64>>()
    };
    let close_ms = pooled(&|p| &p.close_ms);
    println!(
        "# {name}: seed {}, {} production passes, {} tick closes pooled, {} docs offered per pass",
        args.seed,
        passes.len(),
        close_ms.len(),
        last.offered
    );
    let p95 = stats::percentile(&close_ms, 95.0);
    if p95.is_none() {
        println!("# fewer than ten closes lie beyond p95: close_p95_ms falls back to the maximum");
    }
    Some(BTreeMap::from([
        ("setup_s", stats::median(&setup_s)),
        ("docs_per_s", stats::median(&per_pass(&|p| p.offered as f64 / p.ingest_s))),
        ("close_p50_ms", stats::median(&close_ms)),
        ("close_p95_ms", p95.unwrap_or_else(|| close_ms.iter().copied().fold(0.0, f64::max))),
        ("reads_per_s", stats::median(&per_pass(&|p| p.reads.done as f64 / p.reads.seconds))),
        ("checkpoint_ms", stats::median(&pooled(&|p| &p.checkpoint_ms))),
        ("restore_ms", stats::median(&pooled(&|p| &p.restore_ms))),
        ("peak_rss_mb", peak_rss_mb),
        ("planted_recall", recall),
    ]))
}

/// `--trace 1`: the per-layer metrics, as medians over rounds of
/// (untraced production pass, traced production pass, staged pass).
fn measure_layers(args: &Args, name: &str, seconds: f64, ops: &mut Ops) -> Option<Metrics> {
    let scratch = scratch_dir();
    let w = set_up(name, args.seed, args.scale, &scratch)?;
    let reference = reference(&w);
    let mut rounds: Vec<Metrics> = Vec::new();
    let mut last_traces = None;
    let started = Instant::now();
    while rounds.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let round = rounds.len();
        let untraced = prod_pass(&w, &w.arrivals, &mut Tracer::off(), &scratch);
        let mut prod_tracer = Tracer::recording();
        let traced = prod_pass(&w, &w.arrivals, &mut prod_tracer, &scratch);
        let mut staged_tracer = Tracer::recording();
        let staged = staged_pass(&w, &mut staged_tracer, &scratch);
        ops.judge(&format!("round {round}, untraced production pass"), &untraced, &reference);
        ops.judge(&format!("round {round}, traced production pass"), &traced, &reference);
        ops.judge(&format!("round {round}, staged pass"), &staged, &reference);
        let layers = metrics::per_layer(&untraced, &traced, &prod_tracer, &staged, &staged_tracer);
        ops.attempted += 1;
        if layers["bench.trace.attributed_share"] < MIN_ATTRIBUTED_SHARE {
            eprintln!(
                "perf_e2e: round {round}: the staged pass attributes only {:.3} of its wall \
                 clock to named layers",
                layers["bench.trace.attributed_share"]
            );
            ops.failed += 1;
        }
        rounds.push(layers);
        last_traces = Some([("prod", prod_tracer), ("staged", staged_tracer)]);
    }
    // The last round's traces are the ones left on disk.
    for (kind, tracer) in last_traces.iter().flatten() {
        let path = scratch.join(format!("{name}.{kind}.trace.json"));
        if let Err(err) = tracer.write_chrome_trace(&path) {
            eprintln!("perf_e2e: could not write {}: {err}", path.display());
            ops.failed += 1;
        }
    }
    println!(
        "# {name}: seed {}, {} rounds, traces in {}/{name}.{{prod,staged}}.trace.json",
        args.seed,
        rounds.len(),
        scratch.display()
    );
    Some(
        PER_LAYER
            .iter()
            .map(|m| {
                let values: Vec<f64> = rounds.iter().map(|r| r[m.name]).collect();
                (m.name, stats::median(&values))
            })
            .collect(),
    )
}

/// Runs one workload and prints its metrics; `false` if a check failed.
fn run_workload(args: &Args, name: &str) -> Option<bool> {
    let seconds = args.seconds.unwrap_or(match args.scale {
        Scale::Full => DEFAULT_SECONDS,
        Scale::Smoke => 0.0,
    });
    let mut ops = Ops::default();
    let values = if args.trace {
        measure_layers(args, name, seconds, &mut ops)?
    } else {
        measure_end_to_end(args, name, seconds, &mut ops)?
    };
    let table: &[metrics::Metric] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let units: BTreeMap<&str, &str> = table.iter().map(|m| (m.name, m.unit)).collect();
    for (name, value) in &values {
        println!("{name} {value} {}", units[name]);
    }
    let correct = ops.failed == 0 && values.values().all(|v| v.is_finite());
    println!(
        "ops_failed_ratio {} ratio ({} failed of {} attempted)",
        ops.failed as f64 / ops.attempted.max(1) as f64,
        ops.failed,
        ops.attempted
    );
    let body: Vec<String> = values
        .iter()
        .map(|(name, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}", units[name])
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.attempted.max(1),
        ops.failed,
        body.join(", ")
    );
    Some(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perf_e2e: {message}");
            eprintln!(
                "usage: perf_e2e --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
                 [--smoke] [--check-noise R]\n\
                 default seed {}, held-out seed {} (see README.md)",
                workloads::NAMES.join("|"),
                workloads::DEFAULT_SEED,
                workloads::HELD_OUT_SEED
            );
            return ExitCode::from(2);
        }
    };
    if let Err(err) = std::fs::create_dir_all(scratch_dir()) {
        eprintln!("perf_e2e: cannot create {}: {err}", scratch_dir().display());
        return ExitCode::from(2);
    }
    if let Some(runs) = args.check_noise {
        let Some(name) = args.workload.as_deref() else {
            eprintln!("perf_e2e: --check-noise needs --workload");
            return ExitCode::from(2);
        };
        return noise::check(name, args.seed, args.seconds.unwrap_or(DEFAULT_SECONDS), runs);
    }
    // Without --workload every workload runs in turn (the smoke gate).
    let names: Vec<&str> = match args.workload.as_deref() {
        Some(name) => vec![name],
        None => workloads::NAMES.to_vec(),
    };
    let mut all_correct = true;
    for name in names {
        match run_workload(&args, name) {
            Some(correct) => all_correct &= correct,
            None => {
                eprintln!("perf_e2e: unknown workload {name}; one of {:?}", workloads::NAMES);
                return ExitCode::from(2);
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
