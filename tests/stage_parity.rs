//! The unification contract of the shared stage pipeline: per-document
//! feeding, per-tick batch feeding and the parallel ingestion pipeline all
//! drive the same `TickStage` implementation, so on one replay they must
//! produce **identical** snapshot sequences — and the sharded pair
//! registry must make shard count, and with it the shard-parallel apply
//! and close, invisible in every ranking.

use enblogue::core::pairs::FANOUT_MIN_ITEMS;
use enblogue::prelude::*;
use enblogue_datagen::nyt::{NytArchive, NytConfig};
use enblogue_datagen::zipf::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn archive() -> NytArchive {
    NytArchive::generate(&NytConfig {
        seed: 0x57A6E,
        days: 45,
        docs_per_day: 80,
        n_categories: 12,
        n_descriptors: 90,
        n_entities: 60,
        n_terms: 250,
        historic_events: 4,
    })
}

/// The NYT replay's knobs over a pool of `shards` stores.
fn builder(shards: usize) -> enblogue::core::config::EnBlogueConfigBuilder {
    EnBlogueConfig::builder()
        .tick_spec(TickSpec::daily())
        .window_ticks(7)
        .seed_count(25)
        .min_seed_count(3)
        .top_k(10)
        .shards(shards)
}

fn config(shards: usize) -> EnBlogueConfig {
    builder(shards).build().unwrap()
}

/// One snapshot sequence via the stand-alone engine's replay driver.
fn engine_snapshots(config: EnBlogueConfig, docs: &[Document]) -> Vec<RankingSnapshot> {
    EnBlogueEngine::new(config).run_replay(docs)
}

/// One snapshot sequence fed a whole tick at a time: each tick's slice
/// through the batch fast path (`process_docs`), then `close_through` that
/// tick, which also closes any gap ticks before it.
fn tick_batch_snapshots(config: EnBlogueConfig, docs: &[Document]) -> Vec<RankingSnapshot> {
    let spec = config.tick_spec;
    let mut pipeline = StagePipeline::new(config);
    let mut snapshots = Vec::new();
    for slice in docs.chunk_by(|a, b| spec.tick_of(a.timestamp) == spec.tick_of(b.timestamp)) {
        pipeline.process_docs(slice);
        pipeline.close_through(spec.tick_of(slice[0].timestamp), |s| snapshots.push(s));
    }
    snapshots
}

#[test]
fn per_doc_and_per_tick_feeding_agree_on_an_nyt_replay() {
    let archive = archive();
    let from_engine = engine_snapshots(config(1), &archive.docs);
    let from_tick_batches = tick_batch_snapshots(config(1), &archive.docs);

    assert!(!from_engine.is_empty(), "the replay must close ticks");
    assert!(
        from_engine.iter().any(|s| !s.ranked.is_empty()),
        "the planted events must produce rankings"
    );
    assert_eq!(from_engine, from_tick_batches, "per-document vs per-tick feeding");
}

#[test]
fn shard_count_is_invisible_in_rankings() {
    let archive = archive();
    let baseline = engine_snapshots(config(1), &archive.docs);
    for shards in [4usize, 16] {
        assert_eq!(engine_snapshots(config(shards), &archive.docs), baseline, "{shards} shards");
    }
}

#[test]
fn sharded_tick_batches_match_unsharded_engine() {
    // The full cross product of the two axes: sharded state fed a tick at
    // a time against the classic single-map engine fed per document.
    let archive = archive();
    let baseline = engine_snapshots(config(1), &archive.docs);
    for shards in [16usize, 4] {
        assert_eq!(
            tick_batch_snapshots(config(shards), &archive.docs),
            baseline,
            "tick batches, {shards} shards"
        );
    }
}

#[test]
fn ingestion_mode_is_invisible_in_rankings() {
    // The ingestion-parity contract of `enblogue-ingest`: for one NYT
    // replay, rankings are byte-identical across (a) sequential
    // per-document feeding, (b) whole tick slices through the batch fast
    // path, and (c) the shard-parallel `IngestPipeline`, for several
    // (batch size × worker count) combinations and shard counts.
    let archive = archive();

    // (a) Sequential per-document feeding — the semantic reference.
    let baseline = engine_snapshots(config(1), &archive.docs);
    assert!(!baseline.is_empty());
    assert!(baseline.iter().any(|s| !s.ranked.is_empty()));

    // (b) Tick-slice feeding: `process_docs` takes the partitioned batch
    // fast path, one slice per tick.
    assert_eq!(tick_batch_snapshots(config(4), &archive.docs), baseline, "tick slices");

    // (c) The parallel ingestion pipeline across the knob grid.
    for (batch_size, workers) in [(1usize, 1usize), (64, 2), (64, 8), (512, 4), (97, 3)] {
        let mut engine = EnBlogueEngine::new(config(4));
        let ingest = IngestConfig { batch_size, queue_depth: 4, workers };
        let (snapshots, stats) = engine.run_replay_ingest(&archive.docs, &ingest);
        assert_eq!(snapshots, baseline, "ingest batch={batch_size} workers={workers}");
        assert_eq!(stats.docs, archive.docs.len() as u64);
        assert_eq!(stats.workers, workers);
    }

    // A 16-store pool on top of multi-worker partitioning.
    let mut engine = EnBlogueEngine::new(config(16));
    let ingest = IngestConfig { batch_size: 128, queue_depth: 8, workers: 4 };
    let (snapshots, _) = engine.run_replay_ingest(&archive.docs, &ingest);
    assert_eq!(snapshots, baseline, "16 shards, 4 ingest workers");
}

#[test]
fn scoring_mode_is_invisible_in_rankings() {
    // The batch-kernel contract: the lane-tiled batched close (the
    // default) and the scalar reference walk are the same computation
    // down to the bit pattern, so on one replay their snapshot sequences
    // are byte-identical — across shard pools and the parallel-ingestion
    // grid.
    let archive = archive();

    let with_scoring = |shards: usize, scoring: ScoringMode| {
        builder(shards).scoring_mode(scoring).build().unwrap()
    };

    // The scalar reference is the semantic baseline; `config()` leaves
    // the knob at its default, which must be the batched path.
    assert_eq!(config(1).scoring_mode, ScoringMode::Batched, "batched is the default");
    let baseline = engine_snapshots(with_scoring(1, ScoringMode::Scalar), &archive.docs);
    assert!(!baseline.is_empty());
    assert!(baseline.iter().any(|s| !s.ranked.is_empty()));

    for scoring in [ScoringMode::Scalar, ScoringMode::Batched] {
        for shards in [1usize, 4, 16] {
            let snapshots = engine_snapshots(with_scoring(shards, scoring), &archive.docs);
            assert_eq!(snapshots, baseline, "scoring={scoring:?} shards={shards}");
        }
    }

    // Batched scoring under the parallel ingestion pipeline.
    for (batch_size, workers) in [(64usize, 2usize), (256, 4)] {
        let mut engine = EnBlogueEngine::new(with_scoring(4, ScoringMode::Batched));
        let ingest = IngestConfig { batch_size, queue_depth: 4, workers };
        let (snapshots, stats) = engine.run_replay_ingest(&archive.docs, &ingest);
        assert_eq!(snapshots, baseline, "batched ingest batch={batch_size} workers={workers}");
        assert_eq!(stats.docs, archive.docs.len() as u64);
    }
}

#[test]
fn checkpoint_restore_tail_replay_is_invisible_in_rankings() {
    // The crash-recovery contract of `enblogue_core::snapshot`: on one
    // replay, (a) periodic checkpointing changes no ranking, and (b)
    // checkpoint at a tick + restore into a fresh engine + replay of the
    // tail produces byte-identical snapshot sequences to the
    // uninterrupted run — across shard pools and the parallel-ingestion
    // worker grid.
    use enblogue::core::snapshot::checkpoint_file_name;

    let archive = archive();
    let baseline = engine_snapshots(config(1), &archive.docs);
    assert!(!baseline.is_empty());
    assert!(baseline.iter().any(|s| !s.ranked.is_empty()));

    // Checkpoints land at ticks 9/19/29/39 (every 10th close); resume
    // from tick 29 so the tail spans real work.
    let split = Tick(29);
    let split_at = baseline.iter().position(|s| s.tick == split).expect("tick 29 closes") + 1;
    let tail_from = archive
        .docs
        .iter()
        .position(|d| TickSpec::daily().tick_of(d.timestamp) > split)
        .expect("documents after the split");

    for shards in [1usize, 4, 16] {
        let name = format!("{shards}-stores");
        let dir =
            std::env::temp_dir().join(format!("enblogue-parity-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // (a) The checkpointing run itself: rankings untouched.
        let checkpointing =
            builder(shards).snapshot_every(10, dir.to_str().unwrap()).build().unwrap();
        let mut engine = EnBlogueEngine::new(checkpointing);
        assert_eq!(engine.run_replay(&archive.docs), baseline, "{name}: checkpointing run");
        assert!(engine.metrics().snapshots_taken >= 4, "{name}: checkpoints written");
        assert_eq!(engine.metrics().snapshot_failures, 0, "{name}");

        // (b) Restore from the mid-stream checkpoint and replay the tail.
        // The resume config omits the snapshot section entirely — only
        // the knobs that shape state are fingerprinted.
        let resume_config = config(shards);
        let file = dir.join(checkpoint_file_name(split));
        let mut resumed = EnBlogueEngine::resume(resume_config.clone(), &file).unwrap();
        assert_eq!(resumed.metrics().restores, 1, "{name}");
        assert_eq!(resumed.metrics().ticks_closed, split_at as u64, "{name}: cursor restored");
        let tail = resumed.run_replay(&archive.docs[tail_from..]);
        assert_eq!(tail, baseline[split_at..], "{name}: tail replay after restore");

        // (c) The same restore driven through the parallel ingestion
        // pipeline (partition workers + shard-parallel apply).
        for (batch_size, workers) in [(64usize, 2usize), (128, 4)] {
            let mut resumed = EnBlogueEngine::resume(resume_config.clone(), &file).unwrap();
            let ingest = IngestConfig { batch_size, queue_depth: 4, workers };
            let (tail, stats) = resumed.run_replay_ingest(&archive.docs[tail_from..], &ingest);
            assert_eq!(
                tail,
                baseline[split_at..],
                "{name}: ingest tail batch={batch_size} workers={workers}"
            );
            assert_eq!(stats.docs, (archive.docs.len() - tail_from) as u64);
        }

        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn telemetry_is_invisible_in_rankings() {
    // The observability contract: telemetry is a pure execution knob. One
    // replay, rankings byte-identical with the hub enabled (the default)
    // and fully disabled — including under sharding, where the per-shard
    // close histograms record from fan-out workers.
    let archive = archive();
    let with_telemetry =
        |shards: usize, enabled: bool| builder(shards).telemetry_enabled(enabled).build().unwrap();

    assert!(config(1).telemetry.enabled, "telemetry is on by default");
    let baseline = engine_snapshots(with_telemetry(1, false), &archive.docs);
    assert!(!baseline.is_empty());
    assert!(baseline.iter().any(|s| !s.ranked.is_empty()));

    for shards in [1usize, 4, 16] {
        for enabled in [false, true] {
            let mut engine = EnBlogueEngine::new(with_telemetry(shards, enabled));
            let snapshots = engine.run_replay(&archive.docs);
            assert_eq!(snapshots, baseline, "telemetry={enabled} shards={shards}");

            let telemetry = engine.telemetry();
            assert_eq!(telemetry.enabled(), enabled);
            let prom = telemetry.prometheus_text();
            if enabled {
                // The hub actually observed the run: tick spans, journal
                // events, and a well-formed Prometheus export.
                assert!(telemetry.journal().recorded() > 0, "tick closes journaled");
                let score = telemetry.registry().histogram("close.score.ns");
                assert_eq!(score.count(), baseline.len() as u64, "one score span per close");
                assert!(prom.contains("# TYPE enblogue_close_score_ns summary"));
                assert!(prom.contains("enblogue_stage_close_ns_count{stage=\"rank-emit\"}"));
            } else {
                assert!(prom.is_empty(), "a disabled hub exports nothing");
                assert_eq!(telemetry.journal().recorded(), 0);
            }
        }
    }

    // Timing views derive from the hub: populated when it is on, zero —
    // but never affecting metrics equality — when it is off.
    let mut on = EnBlogueEngine::new(with_telemetry(4, true));
    let mut off = EnBlogueEngine::new(with_telemetry(4, false));
    assert_eq!(on.run_replay(&archive.docs), off.run_replay(&archive.docs));
    assert!(on.metrics().timings.close_score_micros > 0 || on.metrics().ticks_closed == 0);
    assert_eq!(off.metrics().timings, enblogue::core::stages::EngineTimings::default());
    assert_eq!(on.metrics(), off.metrics(), "timings are excluded from metrics equality");
}

#[test]
fn batched_ingestion_matches_streamed_ingestion() {
    let archive = archive();
    let cfg = config(4);
    let spec = cfg.tick_spec;

    // Batched: hand each tick's slice to `process_docs`, then close —
    // including empty gap ticks, exactly like the streamed replay does,
    // so correlation histories stay tick-aligned in both runs.
    let mut engine = EnBlogueEngine::new(cfg.clone());
    let mut batched = Vec::new();
    let mut next_to_close = spec.tick_of(archive.docs[0].timestamp);
    let mut start = 0;
    while start < archive.docs.len() {
        let tick = spec.tick_of(archive.docs[start].timestamp);
        while next_to_close < tick {
            batched.push(engine.close_tick(next_to_close));
            next_to_close = next_to_close.next();
        }
        let end = archive.docs[start..]
            .iter()
            .position(|d| spec.tick_of(d.timestamp) > tick)
            .map_or(archive.docs.len(), |offset| start + offset);
        engine.process_docs(&archive.docs[start..end]);
        batched.push(engine.close_tick(tick));
        next_to_close = tick.next();
        start = end;
    }

    let streamed = engine_snapshots(cfg, &archive.docs);
    assert_eq!(batched, streamed);
}

/// The same NYT knobs with the event-time robustness layer switched on.
fn hardened_config(event: bool, guard: bool) -> EnBlogueConfig {
    let mut builder = builder(4);
    if event {
        builder = builder.bounded_lateness(3);
    }
    if guard {
        // The archive is a single (anonymous) source, so the cap must sit
        // far above one source's full volume to be a pure pass-through.
        builder = builder.source_guard(SourceGuardConfig {
            enabled: true,
            dedup_window_ticks: 3,
            rate_limit_per_tick: 1e9,
            rate_burst: 0.0,
        });
    }
    builder.build().unwrap()
}

#[test]
fn event_time_layer_is_invisible_on_clean_input() {
    // The robustness layer's parity contract: on a sorted, duplicate-free,
    // within-cap stream, enabling the reorder buffer, the source guard, or
    // both changes nothing — rankings stay byte-identical, and no drop
    // counter moves.
    let archive = archive();
    let baseline = engine_snapshots(config(4), &archive.docs);
    for (event, guard) in [(true, false), (false, true), (true, true)] {
        let mut engine = EnBlogueEngine::new(hardened_config(event, guard));
        let snapshots = engine.run_replay(&archive.docs);
        assert_eq!(snapshots, baseline, "event={event} guard={guard} must be invisible");
        let m = engine.metrics();
        assert_eq!(m.docs_late_dropped, 0, "event={event} guard={guard}");
        assert_eq!(m.docs_buffer_overflow, 0, "event={event} guard={guard}");
        assert_eq!(m.docs_deduped, 0, "event={event} guard={guard}");
        assert_eq!(m.docs_rate_capped, 0, "event={event} guard={guard}");
        assert_eq!(m.docs_processed, archive.docs.len() as u64, "every document admitted");
    }
}

#[test]
fn event_time_batched_ingest_matches_serial_offering() {
    // With the full hardened stack on, the batched feeder (resequence +
    // shard-parallel `IngestPipeline`) and the per-arrival serial path
    // must still agree byte-for-byte — drops included.
    let archive = archive();
    let cfg = hardened_config(true, true);

    let mut serial = EnBlogueEngine::new(cfg.clone());
    let mut from_serial = Vec::new();
    for doc in &archive.docs {
        serial.offer_doc(doc, |s| from_serial.push(s));
    }
    serial.finish_stream(|s| from_serial.push(s));

    let mut batched = EnBlogueEngine::new(cfg);
    let ingest = IngestConfig { batch_size: 128, queue_depth: 4, workers: 2 };
    let (from_batched, _) = batched.run_replay_ingest(&archive.docs, &ingest);

    assert_eq!(from_batched, from_serial);
    assert_eq!(batched.metrics(), serial.metrics());
}

/// A Zipf-tagged stream wide enough that every multi-store path fans out:
/// `ticks` hourly ticks of `docs_per_tick` documents, each carrying
/// `tags_per_doc` distinct tags drawn from a Zipf(0.8) law over `tags`
/// tags.
fn zipf_docs(ticks: u64, docs_per_tick: usize, tags: usize, tags_per_doc: usize) -> Vec<Document> {
    let zipf = Zipf::new(tags, 0.8);
    let mut rng = StdRng::seed_from_u64(0x2A_F0F0);
    let mut docs = Vec::with_capacity(ticks as usize * docs_per_tick);
    for tick in 0..ticks {
        for _ in 0..docs_per_tick {
            let mut doc_tags: Vec<TagId> = Vec::with_capacity(tags_per_doc);
            while doc_tags.len() < tags_per_doc {
                let tag = TagId(zipf.sample(&mut rng) as u32);
                if !doc_tags.contains(&tag) {
                    doc_tags.push(tag);
                }
            }
            let id = docs.len() as u64;
            docs.push(Document::builder(id, Timestamp::from_hours(tick)).tags(doc_tags).build());
        }
    }
    docs
}

/// The engine's ingest sink, recording the run count of the largest
/// batch it applied.
struct BatchProbe<'p> {
    sink: ReplayIngest<'p>,
    max_runs: usize,
}

impl IngestSink for BatchProbe<'_> {
    fn partition_spec(&self) -> PartitionSpec {
        self.sink.partition_spec()
    }

    fn apply_batch(&mut self, docs: &[Document], partitioned: &PartitionedBatch) {
        let runs = partitioned.buckets().iter().map(Vec::len).sum();
        self.max_runs = self.max_runs.max(runs);
        self.sink.apply_batch(docs, partitioned);
    }

    fn close_through(&mut self, tick: Tick) {
        self.sink.close_through(tick);
    }
}

#[test]
fn fanned_out_apply_and_close_are_invisible_in_rankings() {
    // With more than one store, the registry fans the apply out from
    // `FANOUT_MIN_ITEMS` counted runs per batch and the close from
    // `FANOUT_MIN_ITEMS` tracked pairs. This stream crosses both, so 4
    // and 16 stores run the fanned-out paths, while 1 store runs
    // everything serially.
    let docs = zipf_docs(8, 400, 300, 6);
    let config = |shards: usize| {
        EnBlogueConfig::builder()
            .tick_spec(TickSpec::hourly())
            .window_ticks(6)
            .seed_count(100)
            .min_seed_count(1)
            .min_pair_support(1)
            .top_k(20)
            .shards(shards)
            .build()
            .unwrap()
    };
    // Batches never span a tick, so each applied batch is one whole
    // 400-document tick: enough distinct runs to cross the threshold.
    let ingest = IngestConfig { batch_size: 512, queue_depth: 4, workers: 2 };

    // The close threshold: at least two closes end at or above it, so the
    // later one discovers, scores and evicts fanned out.
    let mut stepped = StagePipeline::new(config(16));
    let mut baseline = Vec::new();
    let mut crowded_closes = 0;
    for slice in docs.chunk_by(|a, b| a.timestamp == b.timestamp) {
        stepped.process_docs(slice);
        baseline.push(stepped.close_tick(TickSpec::hourly().tick_of(slice[0].timestamp)));
        if stepped.metrics().pairs_tracked >= FANOUT_MIN_ITEMS {
            crowded_closes += 1;
        }
    }
    assert!(crowded_closes >= 2, "only {crowded_closes} closes reached the fan-out threshold");
    assert!(baseline.iter().any(|s| !s.ranked.is_empty()), "the stream must rank pairs");

    // The apply threshold, observed at the sink of the ingestion pipeline.
    let mut pipeline = StagePipeline::new(config(16));
    let mut probe = BatchProbe { sink: ReplayIngest::new(&mut pipeline), max_runs: 0 };
    IngestPipeline::new(ingest.clone()).run(&mut probe, &docs);
    assert!(
        probe.max_runs >= FANOUT_MIN_ITEMS,
        "largest applied batch holds only {} runs",
        probe.max_runs
    );
    assert_eq!(probe.sink.into_snapshots(), baseline, "16 stores, probed ingest");

    for shards in [1usize, 4, 16] {
        let replayed = EnBlogueEngine::new(config(shards)).run_replay(&docs);
        assert_eq!(replayed, baseline, "run_replay, {shards} stores");
        let (ingested, _) = EnBlogueEngine::new(config(shards)).run_replay_ingest(&docs, &ingest);
        assert_eq!(ingested, baseline, "run_replay_ingest, {shards} stores");
    }
}
