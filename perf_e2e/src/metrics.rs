//! The metric tables (mirrored by `../BENCHMARK.json`, pinned by a test
//! below) and the assembly of the per-layer metrics from one round.

use crate::drivers::Pass;
use crate::trace::Tracer;
use std::collections::BTreeMap;

/// One metric of the benchmark, as BENCHMARK.json lists it.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end metrics only: the share of the parent's median by
    /// which the metric may get worse before a change counts as a
    /// regression. Per-layer metrics have no bound.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better, bound: None }
}

/// Every `--trace 0` metric. `ops_failed_ratio` is not here: it is zero
/// on a correct run, so it travels as the `failed` / `attempted` counts
/// of the result line instead.
pub const END_TO_END: [Metric; 9] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("docs_per_s", "docs/s", "higher", 0.25),
    e2e("close_p50_ms", "ms", "lower", 0.25),
    e2e("close_p95_ms", "ms", "lower", 0.25),
    e2e("reads_per_s", "reads/s", "higher", 0.25),
    e2e("checkpoint_ms", "ms", "lower", 0.25),
    e2e("restore_ms", "ms", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.25),
    e2e("planted_recall", "ratio", "higher", 0.0),
];

/// Every `--trace 1` metric, layer by layer.
pub const PER_LAYER: [Metric; 66] = [
    layer("ingest.reorder.busy_s", "s", "lower"),
    layer("ingest.reorder.docs_in", "count", "higher"),
    layer("ingest.reorder.late_dropped", "count", "lower"),
    layer("ingest.reorder.overflow_dropped", "count", "lower"),
    layer("ingest.reorder.buffered_max", "count", "lower"),
    layer("ingest.guard.busy_s", "s", "lower"),
    layer("ingest.guard.docs_in", "count", "higher"),
    layer("ingest.guard.deduped", "count", "lower"),
    layer("ingest.guard.rate_capped", "count", "lower"),
    layer("ingest.guard.admit_ratio", "ratio", "higher"),
    layer("entity.tag.busy_s", "s", "lower"),
    layer("entity.tag.docs_in", "count", "higher"),
    layer("entity.tag.bytes_in", "count", "higher"),
    layer("entity.tag.mentions_out", "count", "higher"),
    layer("ingest.partition.busy_s", "s", "lower"),
    layer("ingest.partition.docs_in", "count", "higher"),
    layer("ingest.partition.obs_out", "count", "lower"),
    layer("ingest.partition.max_bucket_share", "ratio", "lower"),
    layer("ingest.pipeline.wait_s", "s", "lower"),
    layer("ingest.pipeline.batches", "count", "lower"),
    layer("ingest.pipeline.stalls", "count", "lower"),
    layer("ingest.pipeline.stall_s", "s", "lower"),
    layer("ingest.pipeline.stale_repartitions", "count", "lower"),
    layer("core.apply.busy_s", "s", "lower"),
    layer("core.apply.docs_in", "count", "higher"),
    layer("core.apply.obs_in", "count", "lower"),
    layer("core.apply.ns_per_obs", "ns", "lower"),
    layer("core.close.busy_s", "s", "lower"),
    layer("core.close.ticks", "count", "higher"),
    layer("core.close.pairs_max", "count", "lower"),
    layer("core.close.discovered", "count", "lower"),
    layer("core.close.evicted", "count", "lower"),
    layer("core.close.ns_per_pair", "ns", "lower"),
    layer("core.close.seed_s", "s", "lower"),
    layer("core.close.termwin_s", "s", "lower"),
    layer("core.close.paircount_s", "s", "lower"),
    layer("core.close.score_s", "s", "lower"),
    layer("core.close.expiry_s", "s", "lower"),
    layer("core.close.rank_s", "s", "lower"),
    layer("core.close.rebalances", "count", "lower"),
    layer("core.close.migrated_pairs", "count", "lower"),
    layer("core.close.max_load_share", "ratio", "lower"),
    layer("core.close.allocs", "count", "lower"),
    layer("serve.publish.busy_s", "s", "lower"),
    layer("serve.publish.epochs", "count", "higher"),
    layer("serve.publish.covered_pairs", "count", "lower"),
    layer("serve.query.busy_s", "s", "lower"),
    layer("serve.query.reads", "count", "higher"),
    layer("serve.query.ns_per_read", "ns", "lower"),
    layer("serve.query.empty_reads", "count", "lower"),
    layer("core.snapshot.write_s", "s", "lower"),
    layer("core.snapshot.restore_s", "s", "lower"),
    layer("core.snapshot.bytes", "count", "lower"),
    layer("core.snapshot.bytes_per_pair", "count", "lower"),
    layer("telemetry.journal_dropped", "count", "lower"),
    layer("bench.trace.attributed_share", "ratio", "higher"),
    layer("bench.trace.overhead_ratio", "ratio", "lower"),
    layer("bench.staged_vs_prod_ratio", "ratio", "lower"),
    layer("bench.staged_wall_s", "s", "lower"),
    layer("bench.prod_wall_s", "s", "lower"),
    layer("bench.share.core_apply", "ratio", "lower"),
    layer("bench.share.core_close", "ratio", "lower"),
    layer("bench.share.entity_tag", "ratio", "lower"),
    layer("bench.share.event_time", "ratio", "lower"),
    layer("bench.measured_closes", "count", "higher"),
    layer("bench.machine_parallelism", "count", "higher"),
];

/// The per-layer metrics of one round. Layer times are self times of
/// the staged pass's spans; close sub-phases and the publish come from
/// the histograms the pipeline already exports; the ingest pipeline's
/// waiting is the traced production pass's root self time.
pub fn per_layer(
    untraced: &Pass,
    traced: &Pass,
    prod_tracer: &Tracer,
    staged: &Pass,
    staged_tracer: &Tracer,
) -> BTreeMap<&'static str, f64> {
    let own = staged_tracer.self_seconds();
    let busy = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let count = |pass: &Pass, name: &str| pass.counts.get(name).copied().unwrap_or(0.0);
    let staged_count = |name: &str| count(staged, name);
    let per = |total: f64, n: f64| if n > 0.0 { total / n } else { 0.0 };

    let staged_wall: f64 = staged_tracer
        .spans()
        .first()
        .map_or(0.0, |root| (root.end_ns - root.start_ns) as f64 / 1e9);
    let attributed: f64 = own.iter().filter(|(name, _)| **name != "staged").map(|(_, s)| s).sum();
    let publish_s = staged_count("serve.publish.busy_s");
    // The publish stage runs inside `close_tick`: the close layer's own
    // time is its spans minus the publish histogram.
    let close_s = (busy("core.close") - publish_s).max(0.0);
    let apply_s = busy("core.apply");
    let obs = staged_count("ingest.partition.obs_out");
    let guard_in = staged_count("ingest.guard.docs_in");
    let event_time_s = busy("ingest.reorder") + busy("ingest.guard");
    // Only a pass through `IngestPipeline` has partition workers to wait
    // for; elsewhere the root's self time is the un-spanned feeding.
    let wait_s = if traced.counts.contains_key("ingest.pipeline.batches") {
        prod_tracer.self_seconds().get("prod.ingest").copied().unwrap_or(0.0)
    } else {
        0.0
    };
    let round_trips = staged.checkpoint_ms.len() as f64;

    let mut out: BTreeMap<&'static str, f64> = BTreeMap::from([
        ("ingest.reorder.busy_s", busy("ingest.reorder")),
        ("ingest.guard.busy_s", busy("ingest.guard")),
        ("ingest.guard.admit_ratio", per(staged_count("ingest.guard.admitted"), guard_in)),
        ("entity.tag.busy_s", busy("entity.tag")),
        ("ingest.partition.busy_s", busy("ingest.partition")),
        (
            "ingest.partition.max_bucket_share",
            per(staged_count("ingest.partition.largest_bucket_obs"), obs),
        ),
        ("ingest.pipeline.wait_s", wait_s),
        ("core.apply.busy_s", apply_s),
        ("core.apply.obs_in", obs),
        ("core.apply.ns_per_obs", per(apply_s * 1e9, obs)),
        ("core.close.busy_s", close_s),
        ("core.close.ns_per_pair", per(close_s * 1e9, staged_count("core.close.pair_closes"))),
        ("serve.query.busy_s", busy("serve.query")),
        ("serve.query.reads", staged.reads.done as f64),
        ("serve.query.ns_per_read", per(busy("serve.query") * 1e9, staged.reads.done as f64)),
        ("serve.query.empty_reads", untraced.reads.empty as f64),
        ("core.snapshot.write_s", per(busy("core.snapshot.write"), round_trips)),
        ("core.snapshot.restore_s", per(busy("core.snapshot.restore"), round_trips)),
        (
            "core.snapshot.bytes_per_pair",
            per(staged_count("core.snapshot.bytes"), staged_count("core.close.pairs_tracked")),
        ),
        ("bench.trace.attributed_share", per(attributed, staged_wall)),
        ("bench.trace.overhead_ratio", per(traced.wall_s, untraced.wall_s)),
        ("bench.staged_vs_prod_ratio", per(staged.ingest_s, untraced.ingest_s)),
        ("bench.staged_wall_s", staged_wall),
        ("bench.prod_wall_s", untraced.wall_s),
        ("bench.share.core_apply", per(apply_s, staged_wall)),
        ("bench.share.core_close", per(close_s, staged_wall)),
        ("bench.share.entity_tag", per(busy("entity.tag"), staged_wall)),
        ("bench.share.event_time", per(event_time_s, staged_wall)),
        ("bench.measured_closes", staged.close_ms.len() as f64),
        (
            "bench.machine_parallelism",
            std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64),
        ),
    ]);
    // The remaining metrics are counts a pass recorded under the
    // metric's own name: the ingest pipeline's from the traced
    // production pass, everything else from the staged pass.
    for metric in &PER_LAYER {
        let source = if metric.name.starts_with("ingest.pipeline.") { traced } else { staged };
        out.entry(metric.name).or_insert_with(|| count(source, metric.name));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let names: Vec<&str> =
            END_TO_END.iter().map(|m| m.name).chain(PER_LAYER.iter().map(|m| m.name)).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a metric name is used once");
        for name in names {
            assert!(name.len() <= 64 && name.chars().next().is_some_and(char::is_alphanumeric));
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(END_TO_END.iter().all(|m| m.bound.is_some_and(|b| (0.0..=0.25).contains(&b))));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    /// BENCHMARK.json is written by hand; this keeps it and the tables
    /// above from drifting apart.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
        for m in &END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better,
                m.bound.expect("end-to-end metrics carry a bound")
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for m in &PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("{\"name\": ").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len() + crate::workloads::NAMES.len(),
            "BENCHMARK.json lists a metric or workload the tables do not"
        );
        for name in crate::workloads::NAMES {
            assert!(json.contains(&format!("{{\"name\": \"{name}\", \"why\": ")), "{name}");
        }
    }
}
