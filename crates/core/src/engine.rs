//! The stand-alone EnBlogue engine — a thin adapter over the shared
//! [`StagePipeline`].
//!
//! Feed documents with [`EnBlogueEngine::process_doc`] (or batched with
//! [`EnBlogueEngine::process_docs`]), close each tick with
//! [`EnBlogueEngine::close_tick`], and read the emergent-topic ranking
//! from the returned [`RankingSnapshot`]. [`EnBlogueEngine::run_replay`]
//! drives a whole archive in one call (the demo's "time lapse on archived
//! data").
//!
//! All tick semantics live in [`crate::stages`]; this type only provides
//! the classic engine-shaped API.

use crate::config::EnBlogueConfig;
use crate::ingest::ReplayIngest;
use crate::snapshot::SnapshotStats;
use crate::stages::StagePipeline;
use enblogue_ingest::pipeline::{IngestConfig, IngestPipeline, IngestStats};
use enblogue_types::{Document, EnBlogueError, RankingSnapshot, TagInterner, Tick};
use std::path::Path;

pub use crate::stages::{EngineCounters, EngineMetrics, EngineTimings};

/// The EnBlogue emergent-topic detection engine.
pub struct EnBlogueEngine {
    pipeline: StagePipeline,
}

impl EnBlogueEngine {
    /// Builds an engine from a validated configuration.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (use
    /// [`EnBlogueConfig::builder`] to get a validated one).
    pub fn new(config: EnBlogueConfig) -> Self {
        EnBlogueEngine { pipeline: StagePipeline::new(config) }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EnBlogueConfig {
        self.pipeline.config()
    }

    /// The underlying stage pipeline (read access).
    pub fn pipeline(&self) -> &StagePipeline {
        &self.pipeline
    }

    /// Appends a custom [`crate::stages::TickStage`] behind the standard
    /// ones (runs after `rank-emit`, so it sees each tick's finished
    /// snapshot). This is how the serving tier (`enblogue-serve`) mounts
    /// its publish stage on an engine.
    pub fn push_stage(&mut self, stage: Box<dyn crate::stages::TickStage>) {
        self.pipeline.push_stage(stage);
    }

    /// The engine's in-place [`crate::query::QueryView`] — the unified
    /// read surface (ranking, seeds, pair info/history). Use it, or an
    /// `enblogue-serve` `QueryHandle` implementing the same trait
    /// lock-free and concurrently; tests and tools needing raw pipeline
    /// reads can go through [`EnBlogueEngine::pipeline`].
    pub fn query_view(&self, interner: TagInterner) -> crate::query::EngineQuery<'_> {
        self.pipeline.query_view(interner)
    }

    /// Feeds one document (annotations counted into the open tick).
    ///
    /// Documents must arrive in non-decreasing timestamp order relative to
    /// closed ticks; feeding a document belonging to an already-closed
    /// tick is counted into the open tick's slot (windowed counters never
    /// move backwards).
    pub fn process_doc(&mut self, doc: &Document) {
        self.pipeline.process_doc(doc);
    }

    /// Batched ingestion of an open-tick document slice; semantically
    /// identical to per-document feeding (see
    /// [`StagePipeline::process_docs`] for the batching contract).
    pub fn process_docs(&mut self, docs: &[Document]) {
        self.pipeline.process_docs(docs);
    }

    /// Closes `tick`: selects seeds, discovers candidate pairs, updates
    /// correlations and shift scores, evicts stale pairs, and emits the
    /// top-k ranking.
    pub fn close_tick(&mut self, tick: Tick) -> RankingSnapshot {
        self.pipeline.close_tick(tick)
    }

    /// Replays a timestamp-sorted document slice, closing every tick in
    /// sequence (including empty gap ticks, so correlation histories stay
    /// tick-aligned). Returns one snapshot per closed tick.
    ///
    /// With [`crate::config::EventTimeConfig`] enabled the slice is
    /// treated as a raw *arrival* stream instead: it may be out of order,
    /// the reorder buffer re-sequences it, and the watermark drives the
    /// closes (see [`EnBlogueEngine::offer_doc`]).
    pub fn run_replay(&mut self, docs: &[Document]) -> Vec<RankingSnapshot> {
        self.pipeline.run_replay(docs)
    }

    /// Offers one arrival to the event-time front end: buffered until the
    /// watermark seals its tick, dropped if beyond the lateness bound,
    /// fed in true event-tick order otherwise; sealed ticks close
    /// immediately and `emit` receives their snapshots. With event time
    /// disabled this is the plain streaming feed (gap ticks close, then
    /// the document is processed). See [`StagePipeline::offer_doc`].
    pub fn offer_doc(&mut self, doc: &Document, emit: impl FnMut(RankingSnapshot)) {
        self.pipeline.offer_doc(doc, emit);
    }

    /// End of an event-time arrival stream: drains the reorder buffer and
    /// closes through the last tick that saw a document, emitting each
    /// snapshot. A no-op when event time is disabled.
    pub fn finish_stream(&mut self, emit: impl FnMut(RankingSnapshot)) {
        self.pipeline.finish_event_stream(emit);
    }

    /// [`EnBlogueEngine::run_replay`] through the shard-partitioned
    /// parallel ingestion subsystem (`enblogue-ingest`): documents are
    /// batched per tick, tokenized/pair-partitioned on a worker pool
    /// behind a bounded queue, and applied to the sharded pair state one
    /// worker per shard. Snapshots are byte-identical to the sequential
    /// replay for any batch size, queue depth, or worker count; a worker
    /// count of `0` uses the configuration's `ingest_workers`.
    ///
    /// # Panics
    /// Panics if `ingest` is invalid (check with
    /// [`IngestConfig::validate`] first to handle the error instead) or if
    /// `docs` is not timestamp-sorted.
    pub fn run_replay_ingest(
        &mut self,
        docs: &[Document],
        ingest: &IngestConfig,
    ) -> (Vec<RankingSnapshot>, IngestStats) {
        let mut resolved = ingest.clone();
        if resolved.workers == 0 {
            resolved.workers = self.pipeline.config().ingest_workers;
        }
        // Event-time mode: re-sequence the raw arrival stream through the
        // reorder buffer first (drops metered there), then drive the
        // batched pipeline over the sorted survivors — its sortedness
        // invariants hold again, and the source guard still judges every
        // document exactly once at the sink.
        let ordered;
        let docs = if self.pipeline.config().event_time.enabled {
            ordered = self.pipeline.resequence_arrivals(docs);
            ordered.as_slice()
        } else {
            docs
        };
        let mut driver = IngestPipeline::new(resolved);
        driver.attach_telemetry(self.pipeline.telemetry());
        let mut sink = ReplayIngest::new(&mut self.pipeline);
        let stats = driver.run(&mut sink, docs);
        (sink.into_snapshots(), stats)
    }

    /// Serializes the complete engine state to `path` — a length-prefixed,
    /// checksummed binary snapshot, written atomically (temp file +
    /// rename). See [`crate::snapshot`] for the format and
    /// [`EnBlogueEngine::resume`] for the other half.
    ///
    /// Valid at any point in the stream; for periodic tick-aligned
    /// checkpoints configure [`crate::config::SnapshotConfig`] instead and
    /// the pipeline writes them itself at tick close.
    ///
    /// # Errors
    /// Filesystem failures surface as [`EnBlogueError::SnapshotIo`].
    pub fn checkpoint(&mut self, path: impl AsRef<Path>) -> Result<SnapshotStats, EnBlogueError> {
        self.pipeline.checkpoint_to(path.as_ref())
    }

    /// Restores an engine from a snapshot file taken under the same
    /// configuration (`config` is fingerprint-checked against the
    /// snapshot; only the snapshot section itself may differ). The
    /// restored engine continues exactly where the checkpoint left off:
    /// replay the tail of the stream — documents after the checkpoint
    /// tick — through [`EnBlogueEngine::run_replay`] or
    /// [`EnBlogueEngine::run_replay_ingest`] and rankings are
    /// byte-identical to an uninterrupted run (pinned by
    /// `tests/stage_parity.rs`).
    ///
    /// # Errors
    /// Truncated or corrupted files surface as
    /// [`EnBlogueError::SnapshotCorrupt`], incompatible format versions as
    /// [`EnBlogueError::SnapshotVersionMismatch`], configuration drift as
    /// [`EnBlogueError::SnapshotConfigMismatch`], and filesystem failures
    /// as [`EnBlogueError::SnapshotIo`] — never a panic.
    pub fn resume(config: EnBlogueConfig, path: impl AsRef<Path>) -> Result<Self, EnBlogueError> {
        Ok(EnBlogueEngine { pipeline: StagePipeline::resume_from(config, path.as_ref())? })
    }

    /// Crash recovery: [`EnBlogueEngine::resume`] from the newest
    /// *readable* `checkpoint-<tick>.snap` in `dir` (as written by the
    /// periodic checkpoint stage). An unreadable newest file — bit rot, a
    /// torn write from a power loss — falls back to the next-older
    /// checkpoint: surviving exactly that failure is why the retention
    /// policy keeps more than one.
    ///
    /// # Errors
    /// [`EnBlogueError::NotFound`] if the directory holds no checkpoint;
    /// otherwise, when every checkpoint fails to restore, the error of
    /// the newest one (see [`EnBlogueEngine::resume`] for the kinds).
    pub fn resume_latest(
        config: EnBlogueConfig,
        dir: impl AsRef<Path>,
    ) -> Result<Self, EnBlogueError> {
        let dir = dir.as_ref();
        let files = crate::snapshot::list_checkpoints(dir)?;
        if files.is_empty() {
            return Err(EnBlogueError::NotFound(format!(
                "no checkpoint files in {}",
                dir.display()
            )));
        }
        let mut newest_error = None;
        for path in files.iter().rev() {
            match EnBlogueEngine::resume(config.clone(), path) {
                Ok(engine) => return Ok(engine),
                Err(err) => {
                    newest_error.get_or_insert(err);
                }
            }
        }
        Err(newest_error.expect("at least one resume attempt"))
    }

    /// Run-time counters.
    pub fn metrics(&self) -> EngineMetrics {
        self.pipeline.metrics()
    }

    /// The engine's telemetry hub: latency histograms, counters, the
    /// event journal, and the Prometheus/JSONL exporters (see
    /// `docs/OBSERVABILITY.md`). Inert when
    /// [`crate::config::TelemetryConfig::enabled`] is off.
    pub fn telemetry(&self) -> &enblogue_telemetry::Telemetry {
        self.pipeline.telemetry()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SeedStrategy;
    use enblogue_types::{TagId, TagPair, TickSpec, Timestamp};

    fn config() -> EnBlogueConfig {
        EnBlogueConfig::builder()
            .tick_spec(TickSpec::hourly())
            .window_ticks(6)
            .seed_count(8)
            .min_seed_count(2)
            .top_k(5)
            .min_pair_support(1)
            .build()
            .unwrap()
    }

    fn doc(id: u64, hour: u64, tags: &[u32]) -> Document {
        Document::builder(id, Timestamp::from_hours(hour))
            .tags(tags.iter().map(|&t| TagId(t)))
            .build()
    }

    /// Streams `per_tick` copies of each tag set per tick over `ticks`.
    fn stream(
        engine: &mut EnBlogueEngine,
        ticks: std::ops::Range<u64>,
        per_tick: usize,
        sets: &[&[u32]],
    ) {
        let mut id = 1_000_000;
        for t in ticks {
            for _ in 0..per_tick {
                for set in sets {
                    id += 1;
                    engine.process_doc(&doc(id, t, set));
                }
            }
            engine.close_tick(Tick(t));
        }
    }

    #[test]
    fn emergent_pair_reaches_top_rank() {
        let mut engine = EnBlogueEngine::new(config());
        // Background: tags 1 and 2 each popular, never together.
        stream(&mut engine, 0..10, 5, &[&[1], &[2], &[3]]);
        assert!(engine.pipeline().is_seed(TagId(1)) && engine.pipeline().is_seed(TagId(2)));
        let quiet = engine.pipeline().latest_snapshot().unwrap().clone();
        assert!(quiet.ranked.is_empty(), "no shift during background: {quiet:?}");

        // Event: tags 1 and 2 suddenly co-occur.
        stream(&mut engine, 10..12, 5, &[&[1, 2], &[3]]);
        let snap = engine.pipeline().latest_snapshot().unwrap();
        let pair = TagPair::new(TagId(1), TagId(2));
        assert_eq!(snap.ranked[0].0, pair, "the correlated pair must rank first: {snap:?}");
        assert!(snap.ranked[0].1 > 0.1);
    }

    #[test]
    fn popular_tag_peak_alone_does_not_alarm() {
        // The Figure-1 control: a solo burst of a popular tag must not
        // create emergent topics.
        let mut engine = EnBlogueEngine::new(config());
        stream(&mut engine, 0..10, 5, &[&[1], &[2]]);
        // Tag 1 volume triples; co-occurrence unchanged (none).
        stream(&mut engine, 10..13, 15, &[&[1]]);
        let snap = engine.pipeline().latest_snapshot().unwrap();
        assert!(
            snap.ranked.is_empty(),
            "solo popularity peaks are not correlation shifts: {snap:?}"
        );
    }

    #[test]
    fn pairs_need_a_seed_to_be_tracked() {
        let mut engine = EnBlogueEngine::new(config());
        // Tags 10, 11 co-occur but are far too rare to be seeds (1/tick
        // against seeds at 5/tick, with the 8 seed slots filled by tags
        // 1-8). Tags 1 and 2 also co-occur, and 1 is a seed.
        let sets: &[&[u32]] = &[&[1], &[2], &[3], &[4], &[5], &[6], &[7], &[8], &[1, 2], &[10, 11]];
        stream(&mut engine, 0..6, 5, sets);
        assert!(!engine.pipeline().is_seed(TagId(10)));
        let pair = TagPair::new(TagId(10), TagId(11));
        assert!(engine.pipeline().pair_info(pair).is_none(), "seedless pair must not be tracked");
        let m = engine.metrics();
        assert!(m.pairs_discovered > 0, "seeded pairs are tracked");
        assert!(engine.pipeline().pair_info(TagPair::new(TagId(1), TagId(2))).is_some());
    }

    #[test]
    fn run_replay_closes_gap_ticks() {
        let mut engine = EnBlogueEngine::new(config());
        let docs = vec![doc(1, 0, &[1, 2]), doc(2, 0, &[1, 2]), doc(3, 4, &[1, 2])];
        let snapshots = engine.run_replay(&docs);
        assert_eq!(snapshots.len(), 5, "ticks 0..=4 all closed");
        assert_eq!(snapshots[0].tick, Tick(0));
        assert_eq!(snapshots[4].tick, Tick(4));
        assert_eq!(engine.metrics().docs_processed, 3);
    }

    #[test]
    fn process_docs_batches_match_single_feeding() {
        let docs: Vec<Document> =
            (0..30).map(|i| doc(i, i / 10, &[1, 2, (i % 3) as u32 + 3])).collect();
        let mut batched = EnBlogueEngine::new(config());
        batched.process_docs(&docs[..10]);
        batched.close_tick(Tick(0));
        batched.process_docs(&docs[10..20]);
        batched.close_tick(Tick(1));
        batched.process_docs(&docs[20..]);
        let last_batched = batched.close_tick(Tick(2));

        let mut single = EnBlogueEngine::new(config());
        let snapshots = single.run_replay(&docs);
        assert_eq!(last_batched, *snapshots.last().unwrap());
        assert_eq!(batched.metrics(), single.metrics());
    }

    #[test]
    fn entities_participate_when_enabled() {
        let mut engine = EnBlogueEngine::new(config());
        let mut id = 0;
        for t in 0..8u64 {
            for _ in 0..5 {
                id += 1;
                let mut d = doc(id, t, &[1]);
                if t >= 6 {
                    d.entities.push(TagId(99));
                    d.normalize();
                }
                engine.process_doc(&d);
            }
            engine.close_tick(Tick(t));
        }
        let pair = TagPair::new(TagId(1), TagId(99));
        assert!(engine.pipeline().pair_info(pair).is_some(), "tag/entity mixture must be tracked");
    }

    #[test]
    fn entities_ignored_when_disabled() {
        let mut cfg = config();
        cfg.use_entities = false;
        let mut engine = EnBlogueEngine::new(cfg);
        let mut id = 0;
        for t in 0..8u64 {
            for _ in 0..5 {
                id += 1;
                let mut d = doc(id, t, &[1]);
                d.entities.push(TagId(99));
                d.normalize();
                engine.process_doc(&d);
            }
            engine.close_tick(Tick(t));
        }
        assert!(engine.pipeline().pair_info(TagPair::new(TagId(1), TagId(99))).is_none());
    }

    #[test]
    fn eviction_bounds_state() {
        let mut engine = EnBlogueEngine::new(config());
        // A pair appears for two ticks then vanishes.
        stream(&mut engine, 0..2, 5, &[&[1, 2]]);
        assert_eq!(engine.metrics().pairs_tracked, 1);
        stream(&mut engine, 2..20, 5, &[&[1], &[2]]);
        assert_eq!(engine.metrics().pairs_tracked, 0, "stale pair must be evicted");
        assert_eq!(engine.metrics().pairs_evicted, 1);
    }

    #[test]
    fn volatility_strategy_runs_end_to_end() {
        let mut cfg = config();
        cfg.seed_strategy = SeedStrategy::Volatility;
        let mut engine = EnBlogueEngine::new(cfg);
        stream(&mut engine, 0..10, 3, &[&[1], &[2], &[1, 2]]);
        assert!(engine.metrics().ticks_closed == 10);
    }

    #[test]
    fn deterministic_rankings() {
        let run = || {
            let mut engine = EnBlogueEngine::new(config());
            stream(&mut engine, 0..8, 4, &[&[1], &[2], &[3, 1]]);
            stream(&mut engine, 8..10, 4, &[&[1, 2], &[3]]);
            engine.pipeline().latest_snapshot().unwrap().clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn run_replay_ingest_matches_run_replay() {
        let docs: Vec<Document> =
            (0..120).map(|i| doc(i, i / 20, &[(i % 5) as u32, (i % 3) as u32 + 5])).collect();
        let mut sequential = EnBlogueEngine::new(config());
        let baseline = sequential.run_replay(&docs);
        for (batch_size, workers) in [(1usize, 2usize), (32, 0), (512, 4)] {
            let mut engine = EnBlogueEngine::new(config());
            let ingest = enblogue_ingest::IngestConfig { batch_size, queue_depth: 4, workers };
            let (snapshots, stats) = engine.run_replay_ingest(&docs, &ingest);
            assert_eq!(snapshots, baseline, "batch={batch_size} workers={workers}");
            assert_eq!(stats.docs, 120);
            if workers == 0 {
                assert_eq!(
                    stats.workers,
                    engine.config().ingest_workers,
                    "auto worker count comes from the engine configuration"
                );
            }
            assert_eq!(engine.metrics(), sequential.metrics());
        }
    }

    #[test]
    fn sharded_engines_match_the_unsharded_baseline() {
        let run = |shards: usize| {
            let cfg = EnBlogueConfig::builder()
                .tick_spec(TickSpec::hourly())
                .window_ticks(6)
                .seed_count(8)
                .min_seed_count(2)
                .top_k(5)
                .min_pair_support(1)
                .shards(shards)
                .build()
                .unwrap();
            let mut engine = EnBlogueEngine::new(cfg);
            stream(&mut engine, 0..8, 4, &[&[1], &[2], &[3], &[1, 3]]);
            stream(&mut engine, 8..10, 4, &[&[1, 2], &[3]]);
            engine.pipeline().latest_snapshot().unwrap().clone()
        };
        let baseline = run(1);
        assert!(!baseline.ranked.is_empty());
        for shards in [4usize, 16] {
            assert_eq!(run(shards), baseline, "{shards} shards");
        }
    }

    /// Snapshot activity counters are process-local; zero them so
    /// checkpointing/restored engines compare equal to uninterrupted ones
    /// on the semantic counters. (Timings never participate in metrics
    /// equality — see [`EngineMetrics`] — so only counters need scrubbing.)
    fn scrub_snapshot_counters(mut m: EngineMetrics) -> EngineMetrics {
        m.snapshots_taken = 0;
        m.snapshot_bytes_written = 0;
        m.snapshot_failures = 0;
        m.restores = 0;
        m
    }

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("enblogue-engine-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn checkpoint_resume_continues_byte_identically() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("mid.snap");
        let sets: &[&[u32]] = &[&[1], &[2], &[3], &[1, 3]];

        // Uninterrupted reference.
        let mut uninterrupted = EnBlogueEngine::new(config());
        stream(&mut uninterrupted, 0..6, 4, sets);
        stream(&mut uninterrupted, 6..10, 4, &[&[1, 2], &[3]]);

        // Checkpoint at tick 5, "crash", resume, replay the tail.
        let mut crashed = EnBlogueEngine::new(config());
        stream(&mut crashed, 0..6, 4, sets);
        let stats = crashed.checkpoint(&path).unwrap();
        assert_eq!(stats.tick, Some(Tick(5)));
        assert!(stats.bytes > 0 && stats.tracked_pairs > 0);
        drop(crashed);

        let mut resumed = EnBlogueEngine::resume(config(), &path).unwrap();
        assert_eq!(resumed.metrics().restores, 1);
        stream(&mut resumed, 6..10, 4, &[&[1, 2], &[3]]);

        assert_eq!(
            resumed.pipeline().latest_snapshot(),
            uninterrupted.pipeline().latest_snapshot()
        );
        assert_eq!(
            scrub_snapshot_counters(resumed.metrics()),
            scrub_snapshot_counters(uninterrupted.metrics()),
            "every semantic counter must survive the round trip"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resumed_run_replay_closes_leading_gap_ticks() {
        // Tail docs that skip ticks after the checkpoint: the resumed
        // replay must close the gap ticks first, like an uninterrupted
        // run would have.
        let docs: Vec<Document> =
            (0..20).map(|i| doc(i, if i < 10 { i / 5 } else { 6 + i / 10 }, &[1, 2])).collect();
        let mut uninterrupted = EnBlogueEngine::new(config());
        let baseline = uninterrupted.run_replay(&docs);

        let dir = tmp_dir("gap");
        let path = dir.join("tick1.snap");
        let mut first = EnBlogueEngine::new(config());
        let head = first.run_replay(&docs[..10]); // closes ticks 0..=1
        assert_eq!(head.last().unwrap().tick, Tick(1));
        first.checkpoint(&path).unwrap();

        let mut resumed = EnBlogueEngine::resume(config(), &path).unwrap();
        let tail = resumed.run_replay(&docs[10..]); // docs resume at tick 7
        let mut all = head;
        all.extend(tail);
        assert_eq!(all, baseline, "gap ticks 2..=6 must close in the resumed run");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_open_tick_checkpoint_resumes_byte_identically() {
        // Checkpoint *between* closes: documents of tick 0 are in the
        // open tick, nothing is closed yet. The resumed pipeline must
        // close that open tick (and the gap) exactly where the
        // uninterrupted run would, before any tail document counts.
        let head: Vec<Document> = (0..6).map(|i| doc(i, 0, &[1, 2, 3])).collect();
        let tail: Vec<Document> = (10..16).map(|i| doc(i, 2 + i / 13, &[1, 2])).collect();

        let mut uninterrupted = EnBlogueEngine::new(config());
        for d in &head {
            uninterrupted.process_doc(d);
        }
        let expected = uninterrupted.run_replay(&tail);
        assert_eq!(expected.first().map(|s| s.tick), Some(Tick(0)), "open tick 0 closes first");
        // Sanity: mid-tick feeding + replay equals one uninterrupted
        // replay over the whole stream.
        let mut whole = head.clone();
        whole.extend(tail.iter().cloned());
        assert_eq!(EnBlogueEngine::new(config()).run_replay(&whole), expected);

        let dir = tmp_dir("midtick");
        let path = dir.join("open.snap");
        let mut fed = EnBlogueEngine::new(config());
        for d in &head {
            fed.process_doc(d);
        }
        fed.checkpoint(&path).unwrap();
        assert_eq!(fed.metrics().ticks_closed, 0, "nothing closed at checkpoint time");
        drop(fed);

        let mut resumed = EnBlogueEngine::resume(config(), &path).unwrap();
        assert_eq!(resumed.run_replay(&tail), expected, "run_replay tail");

        // Same through the parallel ingestion pipeline.
        let mut resumed = EnBlogueEngine::resume(config(), &path).unwrap();
        let ingest = enblogue_ingest::IngestConfig { batch_size: 2, queue_depth: 2, workers: 2 };
        let (snapshots, _) = resumed.run_replay_ingest(&tail, &ingest);
        assert_eq!(snapshots, expected, "ingest tail");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_latest_falls_back_past_an_unreadable_newest_checkpoint() {
        let dir = tmp_dir("fallback");
        let mut cfg = config();
        cfg.snapshot = crate::config::SnapshotConfig {
            interval_ticks: 2,
            directory: dir.to_str().unwrap().to_owned(),
            retention: 3,
        };
        let mut engine = EnBlogueEngine::new(cfg.clone());
        stream(&mut engine, 0..8, 4, &[&[1], &[2], &[1, 2]]);
        let files = crate::snapshot::list_checkpoints(&dir).unwrap();
        assert!(files.len() >= 2);

        // Torn newest file (power loss truncation): fall back to the
        // next-older checkpoint instead of failing the failover.
        let newest = files.last().unwrap();
        let raw = std::fs::read(newest).unwrap();
        std::fs::write(newest, &raw[..raw.len() / 2]).unwrap();
        let recovered = EnBlogueEngine::resume_latest(cfg.clone(), &dir).unwrap();
        assert_eq!(recovered.metrics().restores, 1);
        assert!(recovered.metrics().ticks_closed < engine.metrics().ticks_closed);

        // Every file unreadable: the newest file's error surfaces.
        for file in &files {
            std::fs::write(file, b"garbage").unwrap();
        }
        assert!(matches!(
            EnBlogueEngine::resume_latest(cfg, &dir),
            Err(enblogue_types::EnBlogueError::SnapshotCorrupt(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_config_drift_and_corruption() {
        let dir = tmp_dir("reject");
        let path = dir.join("state.snap");
        let mut engine = EnBlogueEngine::new(config());
        stream(&mut engine, 0..4, 3, &[&[1, 2]]);
        engine.checkpoint(&path).unwrap();

        // Config drift: a different window length must be refused.
        let mut drifted = config();
        drifted.window_ticks += 1;
        assert!(matches!(
            EnBlogueEngine::resume(drifted, &path),
            Err(enblogue_types::EnBlogueError::SnapshotConfigMismatch(_))
        ));

        // Corruption: flip a payload byte — typed error, no panic.
        let mut raw = std::fs::read(&path).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        assert!(matches!(
            EnBlogueEngine::resume(config(), &path),
            Err(enblogue_types::EnBlogueError::SnapshotCorrupt(_))
        ));

        // Truncation mid-payload: also typed.
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() / 3]).unwrap();
        assert!(matches!(
            EnBlogueEngine::resume(config(), &path),
            Err(enblogue_types::EnBlogueError::SnapshotCorrupt(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn periodic_checkpoint_stage_writes_prunes_and_recovers() {
        let dir = tmp_dir("periodic");
        let mut cfg = config();
        cfg.snapshot = crate::config::SnapshotConfig {
            interval_ticks: 3,
            directory: dir.to_str().unwrap().to_owned(),
            retention: 2,
        };

        let mut engine = EnBlogueEngine::new(cfg.clone());
        stream(&mut engine, 0..10, 4, &[&[1], &[2], &[1, 2]]);
        // Checkpoints at the 3rd/6th/9th closes (ticks 2, 5, 8);
        // retention keeps the newest two.
        let files = crate::snapshot::list_checkpoints(&dir).unwrap();
        let names: Vec<String> =
            files.iter().map(|p| p.file_name().unwrap().to_str().unwrap().to_owned()).collect();
        assert_eq!(names, vec!["checkpoint-000000000005.snap", "checkpoint-000000000008.snap"]);
        let m = engine.metrics();
        assert_eq!(m.snapshots_taken, 3);
        assert!(m.snapshot_bytes_written > 0);
        assert_eq!(m.snapshot_failures, 0);

        // The checkpointing run itself is semantically invisible.
        let mut plain = EnBlogueEngine::new(config());
        stream(&mut plain, 0..10, 4, &[&[1], &[2], &[1, 2]]);
        assert_eq!(engine.pipeline().latest_snapshot(), plain.pipeline().latest_snapshot());

        // Crash recovery from the newest file continues the stream.
        let mut recovered = EnBlogueEngine::resume_latest(cfg, &dir).unwrap();
        stream(&mut recovered, 9..12, 4, &[&[1], &[2], &[1, 2]]);
        stream(&mut plain, 10..12, 4, &[&[1], &[2], &[1, 2]]);
        // (`stream` re-feeds tick 9 to the recovered engine — it resumed
        // at tick 8, so tick 9 is its next open tick.)
        assert_eq!(recovered.pipeline().latest_snapshot(), plain.pipeline().latest_snapshot());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_latest_without_checkpoints_is_not_found() {
        let dir = tmp_dir("empty");
        assert!(matches!(
            EnBlogueEngine::resume_latest(config(), &dir),
            Err(enblogue_types::EnBlogueError::NotFound(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "must start after the already-closed tick")]
    fn resumed_replay_rejects_pre_checkpoint_documents() {
        let dir = tmp_dir("stale");
        let path = dir.join("state.snap");
        let mut engine = EnBlogueEngine::new(config());
        stream(&mut engine, 0..4, 3, &[&[1, 2]]);
        engine.checkpoint(&path).unwrap();
        let mut resumed = EnBlogueEngine::resume(config(), &path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        // Tick 3 closed at checkpoint time; feeding it again must be
        // rejected, not silently double-counted.
        resumed.run_replay(&[doc(99, 3, &[1, 2])]);
    }

    #[test]
    fn metrics_reflect_processing() {
        let mut engine = EnBlogueEngine::new(config());
        stream(&mut engine, 0..3, 2, &[&[1, 2]]);
        let m = engine.metrics();
        assert_eq!(m.docs_processed, 6);
        assert_eq!(m.ticks_closed, 3);
        assert_eq!(m.distinct_tags, 2);
        assert_eq!(
            m.shards,
            enblogue_ingest::default_parallelism().min(16),
            "shard count defaults to the machine's parallelism"
        );
        assert!(m.seeds_current > 0);
    }
}
