//! Checkpoint/restore performance — snapshot latency and size against the
//! tracked-pair population, plus an end-to-end crash-recovery drill.
//!
//! Three registry sizes are produced by replaying Zipf-skewed streams of
//! growing width; for each, the full engine state is checkpointed and
//! restored `repeats` times (best time kept) and the restored engine is
//! verified to be a perfect clone. The drill then simulates the failover
//! story: run with periodic checkpoints, kill mid-stream, resume from the
//! newest `checkpoint-<tick>.snap`, replay the tail through the parallel
//! ingestion pipeline, and require the recovered snapshot sequence to be
//! byte-identical to an uninterrupted run.
//!
//! Results land in `BENCH_snapshot.json` (schema in docs/BENCHMARKS.md).
//!
//! Run: `cargo run --release -p enblogue-bench --bin perf_snapshot`
//! Smoke mode (CI): append `-- --test` for a small workload + 1 repeat.

use enblogue::core::snapshot::latest_checkpoint;
use enblogue::datagen::zipf::Zipf;
use enblogue::prelude::*;
use enblogue_bench::Table;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::time::Instant;

struct Workload {
    ticks: u64,
    docs_per_tick: usize,
    tags: usize,
    tags_per_doc: usize,
}

/// Zipf-skewed background chatter — wide enough that the pair registry
/// fills with distinct co-occurrences.
fn generate(w: &Workload, seed: u64) -> Vec<Document> {
    let zipf = Zipf::new(w.tags, 1.05);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut docs = Vec::with_capacity(w.ticks as usize * w.docs_per_tick);
    let mut id = 0u64;
    for tick in 0..w.ticks {
        for _ in 0..w.docs_per_tick {
            id += 1;
            let mut tags: Vec<TagId> = Vec::with_capacity(w.tags_per_doc);
            let mut guard = 0;
            while tags.len() < w.tags_per_doc && guard < 32 {
                guard += 1;
                let tag = TagId(zipf.sample(&mut rng) as u32);
                if !tags.contains(&tag) {
                    tags.push(tag);
                }
            }
            docs.push(Document::builder(id, Timestamp::from_hours(tick)).tags(tags).build());
        }
    }
    docs
}

fn config(shards: usize) -> EnBlogueConfig {
    EnBlogueConfig::builder()
        .tick_spec(TickSpec::hourly())
        .window_ticks(6)
        .seed_count(40)
        .min_seed_count(2)
        .min_pair_support(1)
        .top_k(20)
        .max_tracked_pairs(500_000)
        .shards(shards)
        .build()
        .unwrap()
}

struct Row {
    name: &'static str,
    tracked_pairs: usize,
    snapshot_bytes: u64,
    write_ms: f64,
    restore_ms: f64,
}

/// One measurement row: replay, then checkpoint + restore `repeats`
/// times, keeping the best wall-clock of each and verifying the restored
/// engine is a perfect clone.
fn measure(name: &'static str, w: &Workload, dir: &Path, repeats: usize) -> Row {
    let docs = generate(w, 0x5EED_0001 + w.docs_per_tick as u64);
    let cfg = config(8);
    let mut engine = EnBlogueEngine::new(cfg.clone());
    engine.run_replay(&docs);
    let path = dir.join(format!("{name}.snap"));

    let mut write_ms = f64::MAX;
    let mut snapshot_bytes = 0u64;
    for _ in 0..repeats {
        let started = Instant::now();
        let stats = engine.checkpoint(&path).expect("checkpoint write");
        write_ms = write_ms.min(started.elapsed().as_secs_f64() * 1e3);
        snapshot_bytes = stats.bytes;
    }

    let mut restore_ms = f64::MAX;
    let mut restored = None;
    for _ in 0..repeats {
        let started = Instant::now();
        restored = Some(EnBlogueEngine::resume(cfg.clone(), &path).expect("restore"));
        restore_ms = restore_ms.min(started.elapsed().as_secs_f64() * 1e3);
    }
    let restored = restored.expect("at least one repeat");
    assert_eq!(
        restored.pipeline().latest_snapshot(),
        engine.pipeline().latest_snapshot(),
        "{name}: the restored engine must be a perfect clone"
    );

    Row {
        name,
        tracked_pairs: engine.metrics().pairs_tracked,
        snapshot_bytes,
        write_ms,
        restore_ms,
    }
}

/// The failover drill: periodic checkpoints, crash mid-stream, resume
/// from the newest checkpoint, tail-replay through the ingestion
/// pipeline, verify byte-identical rankings. Returns the recovered tick
/// count (and panics loudly on any divergence — this is the CI gate).
fn recovery_drill(w: &Workload, dir: &Path) -> usize {
    let docs = generate(w, 0x5EED_C4A5);
    let cfg = config(4);

    let mut uninterrupted = EnBlogueEngine::new(cfg.clone());
    let baseline = uninterrupted.run_replay(&docs);

    // The doomed run: checkpoint every 4 ticks, killed two thirds in.
    let crash_dir = dir.join("recovery");
    let _ = std::fs::remove_dir_all(&crash_dir);
    let doomed_cfg = EnBlogueConfig {
        snapshot: SnapshotConfig::every(4, crash_dir.to_str().expect("utf-8 temp path")),
        ..cfg.clone()
    };
    let crash_tick = Tick(w.ticks * 2 / 3);
    let head = docs.partition_point(|d| doomed_cfg.tick_spec.tick_of(d.timestamp) <= crash_tick);
    let mut doomed = EnBlogueEngine::new(doomed_cfg);
    doomed.run_replay(&docs[..head]);
    assert!(doomed.metrics().snapshots_taken > 0, "the doomed run must have checkpointed");
    drop(doomed); // the "kill": everything in memory is gone

    // Recovery: newest checkpoint + tail replay (parallel ingestion).
    let file = latest_checkpoint(&crash_dir).expect("readable dir").expect("a checkpoint file");
    let mut recovered = EnBlogueEngine::resume(cfg, &file).expect("restore after crash");
    let resumed_ticks = recovered.metrics().ticks_closed as usize;
    let tail_from = docs.partition_point(|d| {
        recovered.config().tick_spec.tick_of(d.timestamp).0 < resumed_ticks as u64
    });
    let ingest = IngestConfig { batch_size: 128, queue_depth: 4, workers: 2 };
    let (tail, _) = recovered.run_replay_ingest(&docs[tail_from..], &ingest);
    assert_eq!(
        tail.as_slice(),
        &baseline[resumed_ticks..],
        "recovered rankings diverged from the uninterrupted run"
    );
    assert_eq!(recovered.pipeline().latest_snapshot(), uninterrupted.pipeline().latest_snapshot());
    let _ = std::fs::remove_dir_all(&crash_dir);
    baseline.len() - resumed_ticks
}

fn write_json(rows: &[Row], recovered_ticks: usize, path: &str) {
    let mut out = String::from("{\n  \"experiment\": \"snapshot\",\n  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"config\": \"{}\", \"tracked_pairs\": {}, \"snapshot_bytes\": {}, \
             \"bytes_per_pair\": {:.1}, \"write_ms\": {:.2}, \"restore_ms\": {:.2}}}{}\n",
            row.name,
            row.tracked_pairs,
            row.snapshot_bytes,
            row.snapshot_bytes as f64 / row.tracked_pairs.max(1) as f64,
            row.write_ms,
            row.restore_ms,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"recovery_replayed_ticks\": {recovered_ticks},\n"));
    out.push_str("  \"recovery_verified\": true\n}\n");
    if let Err(err) = std::fs::write(path, out) {
        eprintln!("warning: could not write {path}: {err}");
    } else {
        println!("\nrows recorded to {path}");
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test" || a == "--smoke");
    let repeats = if smoke { 1 } else { 5 };
    let dir = std::env::temp_dir().join(format!("enblogue-perf-snapshot-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");

    let sizes: Vec<(&'static str, Workload)> = if smoke {
        vec![("small", Workload { ticks: 8, docs_per_tick: 300, tags: 400, tags_per_doc: 4 })]
    } else {
        vec![
            ("small", Workload { ticks: 12, docs_per_tick: 2_000, tags: 1_000, tags_per_doc: 4 }),
            ("medium", Workload { ticks: 12, docs_per_tick: 10_000, tags: 2_000, tags_per_doc: 4 }),
            ("large", Workload { ticks: 12, docs_per_tick: 30_000, tags: 4_000, tags_per_doc: 5 }),
        ]
    };
    println!("snapshot/restore latency vs tracked pairs{}\n", if smoke { " [smoke]" } else { "" });

    let table = Table::new(&[8, 10, 12, 10, 10, 10]);
    table.header(&["config", "pairs", "bytes", "B/pair", "write ms", "restore ms"]);
    let mut rows = Vec::new();
    for (name, workload) in &sizes {
        let row = measure(name, workload, &dir, repeats);
        table.row(&[
            row.name,
            &format!("{}", row.tracked_pairs),
            &format!("{}", row.snapshot_bytes),
            &format!("{:.1}", row.snapshot_bytes as f64 / row.tracked_pairs.max(1) as f64),
            &format!("{:.2}", row.write_ms),
            &format!("{:.2}", row.restore_ms),
        ]);
        rows.push(row);
    }

    // The crash-recovery drill doubles as the CI smoke gate: checkpoint,
    // kill, resume, verify byte-identical rankings.
    let drill = &sizes.last().expect("at least one size").1;
    let recovered_ticks = recovery_drill(drill, &dir);
    println!(
        "\ncrash recovery verified: resumed + {recovered_ticks} tail ticks, rankings identical"
    );

    write_json(&rows, recovered_ticks, "BENCH_snapshot.json");
    let _ = std::fs::remove_dir_all(&dir);
}
