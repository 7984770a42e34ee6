//! The shared tick-stage pipeline: one implementation of the EnBlogue loop
//! for every execution surface.
//!
//! This module is the single home of the tick-close logic; every
//! improvement (sharding, batching, parallel close) lands once. The
//! paper's five phases are factored into [`TickStage`]s driven by a
//! [`StagePipeline`]:
//!
//! 1. [`SeedSelectStage`] — seed tags over the closing window (§3(i)),
//! 2. [`TermWindowStage`] — per-tag/term window bookkeeping,
//! 3. [`PairCountStage`] — candidate discovery + windowed pair counting
//!    over the sharded registry (§3(i)–(ii)),
//! 4. [`ShiftScoreStage`] — correlation + prediction-error scoring,
//!    shard-parallel on a large sharded registry (§3(ii)–(iii)),
//! 5. [`RankEmitStage`] — top-k ranking emission.
//!
//! Consumers are thin adapters: [`crate::engine::EnBlogueEngine`] wraps one
//! pipeline behind the classic `process_doc`/`close_tick` API, and
//! [`crate::ingest::ReplayIngest`] feeds one from the parallel ingestion
//! pipeline. Stages pushed behind the standard ones (the serving tier's
//! publish stage) let `N` personalization subscriptions share one pass of
//! shift computation ("shared shift computation", §4.1). Shared state
//! lives in [`PipelineState`]; stages hold logic, not data, which is what
//! lets every host and all shards observe one consistent world.

use crate::config::{EnBlogueConfig, MeasureKind};
use crate::pairs::{ShardedPairRegistry, TrackedPairInfo};
use crate::seeds::SeedTracker;
use crate::snapshot::{self, checkpoint_file_name, corrupt, SnapReader, SnapWriter, SnapshotStats};
use crate::termwin::WindowedTermDists;
use enblogue_ingest::guard::{GuardSnapshot, GuardVerdict, SourceGuard};
use enblogue_ingest::partition::{
    annotations_of, for_each_pair, partition_docs, PartitionSpec, PartitionedBatch,
};
use enblogue_ingest::reorder::{PushOutcome, ReorderBuffer, ReorderSnapshot};
use enblogue_stats::correlation::PairCounts;
use enblogue_stats::shift::ShiftScorer;
use enblogue_telemetry::{duration_ns, Counter, EventKind, Gauge, Histogram, Telemetry};
use enblogue_types::{
    Document, EnBlogueError, FxHashSet, RankingSnapshot, TagId, TagInterner, TagPair, Tick,
    Timestamp,
};
use enblogue_window::TickSeries;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The deterministic pipeline counters: every field is a pure function
/// of the stream and the configuration, so equality across feed modes
/// and execution knobs is meaningful — and `PartialEq` is *derived*,
/// with no hand-maintained field list a new counter could dodge.
/// Wall-clock readings live in [`EngineTimings`] instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Documents processed.
    pub docs_processed: u64,
    /// Ticks closed.
    pub ticks_closed: u64,
    /// Currently tracked pairs.
    pub pairs_tracked: usize,
    /// Pairs ever discovered.
    pub pairs_discovered: u64,
    /// Pairs ever evicted.
    pub pairs_evicted: u64,
    /// Seeds selected at the last tick close.
    pub seeds_current: usize,
    /// Distinct tags alive in the window.
    pub distinct_tags: usize,
    /// Shard-store pool size of the pair registry.
    pub shards: usize,
    /// Always 0: pair state never moves between stores. Kept because the
    /// stand-alone benchmark still reads it (`core.close.rebalances`).
    pub rebalances: u64,
    /// Always 0, for the same reason as `rebalances`
    /// (`core.close.migrated_pairs`).
    pub pairs_migrated: u64,
    /// Checkpoints written by this process (stage hook + explicit API).
    pub snapshots_taken: u64,
    /// Snapshot bytes written by this process (framing included).
    pub snapshot_bytes_written: u64,
    /// Checkpoint writes that failed (counted, never panicking — a full
    /// disk must not take the stream down with it).
    pub snapshot_failures: u64,
    /// Snapshots this pipeline was restored from (0 or 1).
    pub restores: u64,
    /// Arrivals offered to the event-time reordering buffer (accepted or
    /// not) — the arrival-stream cursor crash recovery replays from.
    /// Zero with `event_time` disabled (`docs_processed` is the cursor
    /// then).
    pub docs_arrived: u64,
    /// Documents dropped for arriving beyond the event-time lateness
    /// bound (zero with `event_time` disabled).
    pub docs_late_dropped: u64,
    /// Documents dropped by the reordering buffer's memory cap (zero
    /// with `event_time` disabled).
    pub docs_buffer_overflow: u64,
    /// Exact-duplicate documents rejected by the source guard's dedup
    /// window (zero with `source_guard` disabled).
    pub docs_deduped: u64,
    /// Documents rejected by a source's token-bucket rate cap (zero
    /// with `source_guard` disabled).
    pub docs_rate_capped: u64,
}

/// Wall-clock timing views, derived from the telemetry registry's
/// latency histograms (exact nanosecond sums, reported in microseconds —
/// the histograms additionally carry the p50/p99/max tails, see
/// [`crate::engine::EnBlogueEngine::telemetry`]). All zero when
/// telemetry is disabled. Never part of [`EngineMetrics`] equality:
/// wall clock is not stream state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineTimings {
    /// Microseconds the restore took (0 if never restored).
    pub restore_micros: u64,
    /// Cumulative microseconds the close spent scoring (correlation +
    /// shift update over all tracked pairs).
    pub close_score_micros: u64,
    /// Cumulative microseconds the close spent on expiry (support
    /// eviction and the cap pass).
    pub close_expiry_micros: u64,
    /// Cumulative microseconds the close spent merging the top-k
    /// ranking.
    pub close_rank_micros: u64,
    /// Cumulative microseconds spent encoding and writing checkpoints.
    pub snapshot_write_micros: u64,
}

/// Pipeline run-time metrics: the deterministic [`EngineCounters`] plus
/// the wall-clock [`EngineTimings`] views.
///
/// Equality delegates to the counters alone — the timing struct is
/// excluded *structurally* rather than by a hand-written field list
/// that had to remember every wall-clock field. `Deref`/`DerefMut` to
/// [`EngineCounters`] keeps `metrics.docs_processed`-style call sites
/// working unchanged.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineMetrics {
    /// The deterministic counters (what `==` compares).
    pub counters: EngineCounters,
    /// The wall-clock timing views (ignored by `==`).
    pub timings: EngineTimings,
}

impl std::ops::Deref for EngineMetrics {
    type Target = EngineCounters;

    fn deref(&self) -> &EngineCounters {
        &self.counters
    }
}

impl std::ops::DerefMut for EngineMetrics {
    fn deref_mut(&mut self) -> &mut EngineCounters {
        &mut self.counters
    }
}

impl PartialEq for EngineMetrics {
    fn eq(&self, other: &Self) -> bool {
        self.counters == other.counters
    }
}

impl Eq for EngineMetrics {}

/// The pipeline's pre-registered telemetry handles. Registration
/// happens once at construction; stages record through these on the
/// warm path without ever touching the registry again (see
/// [`enblogue_telemetry`] — recording is lock-free and allocation-free).
pub(crate) struct PipelineProbes {
    pub(crate) docs: Counter,
    pub(crate) ticks: Counter,
    pub(crate) pairs_tracked: Gauge,
    pub(crate) observed_keys: Gauge,
    pub(crate) close_score: Histogram,
    pub(crate) close_expiry: Histogram,
    pub(crate) close_rank: Histogram,
    pub(crate) snapshot_write: Histogram,
    pub(crate) restore: Histogram,
    pub(crate) dump_failures: Counter,
    pub(crate) late_drops: Counter,
    pub(crate) overflow_drops: Counter,
    pub(crate) dedup_drops: Counter,
    pub(crate) rate_drops: Counter,
}

impl PipelineProbes {
    fn new(telemetry: &Telemetry) -> Self {
        let r = telemetry.registry();
        PipelineProbes {
            docs: r.counter("engine.docs"),
            ticks: r.counter("engine.ticks"),
            pairs_tracked: r.gauge("pairs.tracked"),
            observed_keys: r.gauge("pairs.observed_keys"),
            close_score: r.histogram("close.score.ns"),
            close_expiry: r.histogram("close.expiry.ns"),
            close_rank: r.histogram("close.rank.ns"),
            snapshot_write: r.histogram("snapshot.write.ns"),
            restore: r.histogram("snapshot.restore.ns"),
            dump_failures: r.counter("telemetry.dump_failures"),
            late_drops: r.counter("ingest.late_drops"),
            overflow_drops: r.counter("ingest.overflow_drops"),
            dedup_drops: r.counter("ingest.dedup_drops"),
            rate_drops: r.counter("ingest.rate_drops"),
        }
    }
}

/// The state shared by all stages of one pipeline.
///
/// Stages mutate this through their hooks; hosts read it through the
/// accessor methods. Keeping state here (rather than inside stages) is
/// what makes the stages reorderable, testable and shareable between the
/// engine facade and the ingestion sink.
pub struct PipelineState {
    pub(crate) config: EnBlogueConfig,
    pub(crate) seed_tracker: SeedTracker,
    pub(crate) registry: ShardedPairRegistry,
    pub(crate) scorer: ShiftScorer,
    /// Windowed total document volume.
    pub(crate) doc_series: TickSeries,
    /// Per-tag term distributions (JS-divergence measure only).
    pub(crate) term_dists: Option<WindowedTermDists>,
    /// Seeds of the last closed tick.
    pub(crate) seeds: FxHashSet<TagId>,
    pub(crate) latest: Option<RankingSnapshot>,
    pub(crate) docs_processed: u64,
    pub(crate) ticks_closed: u64,
    /// Snapshot activity counters (process-local: deliberately *not*
    /// serialized — a resumed pipeline starts them fresh, with `restores`
    /// recording the resume itself).
    pub(crate) snapshots_taken: u64,
    pub(crate) snapshot_bytes: u64,
    pub(crate) snapshot_failures: u64,
    pub(crate) restores: u64,
    /// The observability hub: metric registry + event journal
    /// (process-local, like the snapshot counters — wall clock is not
    /// stream state and none of this is serialized).
    pub(crate) telemetry: Telemetry,
    /// Pre-registered handles the stages record through.
    pub(crate) probes: PipelineProbes,
    /// The event-time reordering buffer (`Some` iff
    /// `config.event_time.enabled`). Serialized — pending documents and
    /// drop counters included — so resume continues bit-exactly.
    pub(crate) event: Option<ReorderBuffer>,
    /// The per-source guard (`Some` iff `config.source_guard.enabled`).
    /// Serialized: dedup keys, token buckets and counters all restore.
    pub(crate) guard: Option<SourceGuard>,
}

impl PipelineState {
    fn new(config: EnBlogueConfig) -> Self {
        config.validate().expect("invalid engine configuration");
        let term_dists = match config.measure {
            MeasureKind::JsDivergence => Some(WindowedTermDists::new(config.window_ticks)),
            MeasureKind::Set(_) => None,
        };
        let mut registry = ShardedPairRegistry::new(
            config.shards,
            config.window_ticks,
            config.half_life_ms,
            config.min_pair_support,
            config.max_tracked_pairs,
        );
        registry.set_scoring(config.scoring_mode);
        let telemetry = if config.telemetry.enabled {
            Telemetry::new(config.telemetry.journal_capacity)
        } else {
            Telemetry::disabled()
        };
        let probes = PipelineProbes::new(&telemetry);
        registry.attach_telemetry(&telemetry);
        let event = Self::build_event_buffer(&config);
        let guard = Self::build_guard(&config);
        PipelineState {
            seed_tracker: SeedTracker::new(
                config.seed_strategy,
                config.seed_count,
                config.min_seed_count,
                config.window_ticks,
            ),
            registry,
            scorer: ShiftScorer::new(config.predictor, config.normalization),
            doc_series: TickSeries::new(config.window_ticks),
            term_dists,
            seeds: FxHashSet::default(),
            latest: None,
            docs_processed: 0,
            ticks_closed: 0,
            snapshots_taken: 0,
            snapshot_bytes: 0,
            snapshot_failures: 0,
            restores: 0,
            telemetry,
            probes,
            event,
            guard,
            config,
        }
    }

    fn build_event_buffer(config: &EnBlogueConfig) -> Option<ReorderBuffer> {
        config.event_time.enabled.then(|| {
            ReorderBuffer::new(
                config.tick_spec,
                config.event_time.bounded_lateness,
                config.event_time.max_buffered_docs,
            )
        })
    }

    fn build_guard(config: &EnBlogueConfig) -> Option<SourceGuard> {
        config.source_guard.enabled.then(|| {
            SourceGuard::new(
                config.source_guard.dedup_window_ticks,
                config.source_guard.rate_limit_per_tick,
                config.source_guard.effective_burst(),
            )
        })
    }

    /// The pipeline's observability hub (metric registry, event
    /// journal, exporters).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The pipeline's configuration.
    pub fn config(&self) -> &EnBlogueConfig {
        &self.config
    }

    /// The seeds selected at the last tick close.
    pub fn seeds(&self) -> &FxHashSet<TagId> {
        &self.seeds
    }

    /// The most recent ranking, if any tick has been closed.
    pub fn latest_snapshot(&self) -> Option<&RankingSnapshot> {
        self.latest.as_ref()
    }

    /// The sharded pair registry (read access for inspection stages).
    pub fn registry(&self) -> &ShardedPairRegistry {
        &self.registry
    }

    /// Ticks closed so far (the engine-side [`crate::query::QueryView`]
    /// epoch).
    pub fn ticks_closed(&self) -> u64 {
        self.ticks_closed
    }

    /// Exports everything the [`crate::query::QueryView`] API answers
    /// about the latest closed tick into `out`: the ranking, the sorted
    /// seed set, and the per-pair stat columns at the requested `detail`
    /// (ranked pairs only, or the full tracked population — see
    /// [`crate::query::PublishDetail`]).
    ///
    /// `out` is cleared and refilled **in place**: ranking entries, seed
    /// and stat columns all reuse retained capacity, so a warm steady-
    /// state export performs zero heap allocations (pinned by
    /// `close_allocs.rs`). Tag names are *not* resolved here — the
    /// pipeline has no interner; callers follow up with
    /// [`crate::query::ViewData::resolve_names`].
    pub fn export_view(
        &self,
        detail: crate::query::PublishDetail,
        out: &mut crate::query::ViewData,
    ) {
        out.detail = detail;
        out.info_tick = self.latest.as_ref().map_or(Tick::ZERO, |s| s.tick);
        out.now = self.latest.as_ref().map_or(Timestamp::ZERO, |s| s.time);
        match (&mut out.ranking, &self.latest) {
            (Some(dst), Some(src)) => {
                // Field-wise copy instead of `clone()`: `Vec::clone_from`
                // reuses the destination's capacity.
                dst.tick = src.tick;
                dst.time = src.time;
                dst.ranked.clone_from(&src.ranked);
            }
            (dst, src) => *dst = src.clone(),
        }
        out.seeds.clear();
        out.seeds.extend(self.seeds.iter().copied());
        out.seeds.sort_unstable();
        match detail {
            crate::query::PublishDetail::Ranked => {
                let ranked = self.latest.as_ref().map_or(&[][..], |s| s.ranked.as_slice());
                self.registry.export_ranked_into(ranked, out);
            }
            crate::query::PublishDetail::Full => self.registry.export_full_into(out),
        }
    }

    /// Current run-time counters and timing views.
    pub fn metrics(&self) -> EngineMetrics {
        EngineMetrics {
            counters: EngineCounters {
                docs_processed: self.docs_processed,
                ticks_closed: self.ticks_closed,
                pairs_tracked: self.registry.len(),
                pairs_discovered: self.registry.discovered_total(),
                pairs_evicted: self.registry.evicted_total(),
                seeds_current: self.seeds.len(),
                distinct_tags: self.seed_tracker.distinct_tags(),
                shards: self.registry.shard_count(),
                rebalances: 0,
                pairs_migrated: 0,
                snapshots_taken: self.snapshots_taken,
                snapshot_bytes_written: self.snapshot_bytes,
                snapshot_failures: self.snapshot_failures,
                restores: self.restores,
                docs_arrived: self.event.as_ref().map_or(0, |b| b.arrivals()),
                docs_late_dropped: self.event.as_ref().map_or(0, |b| b.late_dropped()),
                docs_buffer_overflow: self.event.as_ref().map_or(0, |b| b.overflow_dropped()),
                docs_deduped: self.guard.as_ref().map_or(0, |g| g.deduped()),
                docs_rate_capped: self.guard.as_ref().map_or(0, |g| g.rate_capped()),
            },
            // The timing views are the histograms' exact nanosecond
            // sums (bucketing only approximates quantiles, never the
            // sum), so these read like the old accumulators did — and
            // zero with telemetry off.
            timings: EngineTimings {
                restore_micros: self.probes.restore.sum() / 1_000,
                close_score_micros: self.probes.close_score.sum() / 1_000,
                close_expiry_micros: self.probes.close_expiry.sum() / 1_000,
                close_rank_micros: self.probes.close_rank.sum() / 1_000,
                snapshot_write_micros: self.probes.snapshot_write.sum() / 1_000,
            },
        }
    }

    /// Serializes the complete pipeline state plus the host's tick
    /// cursors into a snapshot payload (see [`crate::snapshot`] for the
    /// framing and section order).
    pub(crate) fn encode_snapshot(
        &self,
        last_closed: Option<Tick>,
        first_open: Option<Tick>,
    ) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.u64(snapshot::config_fingerprint(&self.config));
        w.opt_tick(last_closed);
        w.opt_tick(first_open);
        w.u64(self.docs_processed);
        w.u64(self.ticks_closed);
        let mut seeds: Vec<TagId> = self.seeds.iter().copied().collect();
        seeds.sort_unstable();
        w.usize(seeds.len());
        for seed in seeds {
            w.tag(seed);
        }
        match &self.latest {
            Some(latest) => {
                w.u8(1);
                w.tick(latest.tick);
                w.timestamp(latest.time);
                w.usize(latest.ranked.len());
                for &(pair, score) in &latest.ranked {
                    w.u64(pair.packed());
                    w.f64(score);
                }
            }
            None => w.u8(0),
        }
        w.opt_tick(self.doc_series.newest_tick());
        w.usize(self.doc_series.len());
        for value in self.doc_series.values() {
            w.f64(value);
        }
        w.f64(self.doc_series.sum());
        self.seed_tracker.encode_snapshot(&mut w);
        match &self.term_dists {
            Some(term_dists) => {
                w.u8(1);
                term_dists.encode_snapshot(&mut w);
            }
            None => w.u8(0),
        }
        self.registry.encode_snapshot(&mut w);
        // Event-time robustness sections (format version 2): the
        // reordering buffer — pending documents included, so a resumed
        // pipeline replays the arrival stream from `arrivals` and
        // continues bit-exactly — and the source guard's dedup keys,
        // token buckets (bit-pattern f64 tokens) and counters.
        match &self.event {
            Some(buffer) => {
                w.u8(1);
                encode_reorder(&mut w, &buffer.to_snapshot());
            }
            None => w.u8(0),
        }
        match &self.guard {
            Some(guard) => {
                w.u8(1);
                encode_guard(&mut w, &guard.to_snapshot());
            }
            None => w.u8(0),
        }
        w.into_bytes()
    }

    /// Rebuilds pipeline state (and the host's tick cursors) from a
    /// payload produced by [`PipelineState::encode_snapshot`], under
    /// `config` — which must fingerprint-match the checkpointing
    /// configuration (every knob except the snapshot section itself).
    pub(crate) fn decode_snapshot(
        config: EnBlogueConfig,
        r: &mut SnapReader<'_>,
    ) -> Result<(Self, Option<Tick>, Option<Tick>), EnBlogueError> {
        config.validate()?;
        let fingerprint = r.u64()?;
        if fingerprint != snapshot::config_fingerprint(&config) {
            return Err(EnBlogueError::SnapshotConfigMismatch(
                "the snapshot was taken under a different engine configuration; resume with the \
                 exact configuration that produced it (the snapshot section itself may differ)"
                    .into(),
            ));
        }
        let last_closed = r.opt_tick()?;
        let first_open = r.opt_tick()?;
        let docs_processed = r.u64()?;
        let ticks_closed = r.u64()?;
        let seed_count = r.seq(4)?;
        let mut seeds = FxHashSet::default();
        for _ in 0..seed_count {
            seeds.insert(r.tag()?);
        }
        let latest = match r.u8()? {
            0 => None,
            1 => {
                let tick = r.tick()?;
                let time = r.timestamp()?;
                let ranked_len = r.seq(16)?;
                let mut ranked = Vec::with_capacity(ranked_len);
                for _ in 0..ranked_len {
                    let packed = r.u64()?;
                    let score = r.f64()?;
                    ranked.push((TagPair::from_packed(packed), score));
                }
                Some(RankingSnapshot { tick, time, ranked })
            }
            tag => return Err(corrupt(format!("invalid snapshot-presence tag {tag}"))),
        };
        let doc_newest = r.opt_tick()?;
        let doc_values_len = r.seq(8)?;
        if doc_values_len > config.window_ticks {
            return Err(corrupt(format!(
                "document series holds {doc_values_len} values, window spans {}",
                config.window_ticks
            )));
        }
        if doc_newest.is_none() && doc_values_len > 0 {
            return Err(corrupt("document series values without a newest tick"));
        }
        let mut doc_values = Vec::with_capacity(doc_values_len);
        for _ in 0..doc_values_len {
            doc_values.push(r.f64()?);
        }
        let doc_sum = r.f64()?;
        let doc_series =
            TickSeries::from_parts(config.window_ticks, doc_newest, doc_values, doc_sum);
        let seed_tracker = SeedTracker::decode_snapshot(
            r,
            config.seed_strategy,
            config.seed_count,
            config.min_seed_count,
            config.window_ticks,
        )?;
        let term_dists = match (r.u8()?, config.measure) {
            (1, MeasureKind::JsDivergence) => {
                Some(WindowedTermDists::decode_snapshot(r, config.window_ticks)?)
            }
            (0, MeasureKind::Set(_)) => None,
            (0 | 1, _) => {
                return Err(EnBlogueError::SnapshotConfigMismatch(
                    "term-distribution state does not match the configured measure".into(),
                ))
            }
            (tag, _) => return Err(corrupt(format!("invalid term-dists tag {tag}"))),
        };
        let mut registry = ShardedPairRegistry::decode_snapshot(
            r,
            config.shards,
            config.window_ticks,
            config.half_life_ms,
            config.min_pair_support,
            config.max_tracked_pairs,
        )?;
        registry.set_scoring(config.scoring_mode);
        let event = match (r.u8()?, config.event_time.enabled) {
            (1, true) => {
                let snap = decode_reorder(r)?;
                Some(ReorderBuffer::from_snapshot(
                    config.tick_spec,
                    config.event_time.bounded_lateness,
                    config.event_time.max_buffered_docs,
                    snap,
                ))
            }
            (0, false) => None,
            (0 | 1, _) => {
                return Err(EnBlogueError::SnapshotConfigMismatch(
                    "event-time buffer state does not match the configured policy".into(),
                ))
            }
            (tag, _) => return Err(corrupt(format!("invalid event-time tag {tag}"))),
        };
        let guard = match (r.u8()?, config.source_guard.enabled) {
            (1, true) => {
                let snap = decode_guard(r)?;
                Some(SourceGuard::from_snapshot(
                    config.source_guard.dedup_window_ticks,
                    config.source_guard.rate_limit_per_tick,
                    config.source_guard.effective_burst(),
                    snap,
                ))
            }
            (0, false) => None,
            (0 | 1, _) => {
                return Err(EnBlogueError::SnapshotConfigMismatch(
                    "source-guard state does not match the configured policy".into(),
                ))
            }
            (tag, _) => return Err(corrupt(format!("invalid source-guard tag {tag}"))),
        };
        let telemetry = if config.telemetry.enabled {
            Telemetry::new(config.telemetry.journal_capacity)
        } else {
            Telemetry::disabled()
        };
        let probes = PipelineProbes::new(&telemetry);
        registry.attach_telemetry(&telemetry);
        let state = PipelineState {
            seed_tracker,
            registry,
            scorer: ShiftScorer::new(config.predictor, config.normalization),
            doc_series,
            term_dists,
            seeds,
            latest,
            docs_processed,
            ticks_closed,
            snapshots_taken: 0,
            snapshot_bytes: 0,
            snapshot_failures: 0,
            restores: 0,
            telemetry,
            probes,
            event,
            guard,
            config,
        };
        Ok((state, last_closed, first_open))
    }
}

// ---------------------------------------------------------------------------
// Event-time / guard snapshot codec
// ---------------------------------------------------------------------------

fn encode_doc(w: &mut SnapWriter, doc: &Document) {
    w.u64(doc.id);
    w.timestamp(doc.timestamp);
    w.u32(doc.source.0);
    w.usize(doc.tags.len());
    for &tag in &doc.tags {
        w.tag(tag);
    }
    w.usize(doc.entities.len());
    for &entity in &doc.entities {
        w.tag(entity);
    }
    w.usize(doc.terms.len());
    for &term in &doc.terms {
        w.tag(term);
    }
    match &doc.text {
        Some(text) => {
            w.u8(1);
            w.bytes(text.as_bytes());
        }
        None => w.u8(0),
    }
}

fn decode_doc(r: &mut SnapReader<'_>) -> Result<Document, EnBlogueError> {
    let id = r.u64()?;
    let timestamp = r.timestamp()?;
    let source = enblogue_types::SourceId(r.u32()?);
    let read_tags = |r: &mut SnapReader<'_>| -> Result<Vec<TagId>, EnBlogueError> {
        let len = r.seq(4)?;
        let mut tags = Vec::with_capacity(len);
        for _ in 0..len {
            tags.push(r.tag()?);
        }
        Ok(tags)
    };
    let tags = read_tags(r)?;
    let entities = read_tags(r)?;
    let terms = read_tags(r)?;
    let text = match r.u8()? {
        0 => None,
        1 => Some(
            String::from_utf8(r.bytes()?)
                .map_err(|_| corrupt("buffered document text is not UTF-8"))?,
        ),
        tag => return Err(corrupt(format!("invalid document-text tag {tag}"))),
    };
    // Field assignment instead of builder methods: the buffered document
    // was already normalized before checkpointing, and re-normalizing
    // must not get a chance to reorder anything.
    let mut doc = Document::builder(id, timestamp).source(source).build();
    doc.tags = tags;
    doc.entities = entities;
    doc.terms = terms;
    doc.text = text;
    Ok(doc)
}

fn encode_reorder(w: &mut SnapWriter, snap: &ReorderSnapshot) {
    w.u64(snap.arrivals);
    w.u64(snap.late_dropped);
    w.u64(snap.overflow_dropped);
    w.opt_tick(snap.max_tick_seen);
    w.opt_tick(snap.emitted_through);
    w.usize(snap.pending.len());
    for (tick, docs) in &snap.pending {
        w.tick(*tick);
        w.usize(docs.len());
        for doc in docs {
            encode_doc(w, doc);
        }
    }
}

fn decode_reorder(r: &mut SnapReader<'_>) -> Result<ReorderSnapshot, EnBlogueError> {
    let arrivals = r.u64()?;
    let late_dropped = r.u64()?;
    let overflow_dropped = r.u64()?;
    let max_tick_seen = r.opt_tick()?;
    let emitted_through = r.opt_tick()?;
    let tick_count = r.seq(16)?;
    let mut pending = Vec::with_capacity(tick_count);
    for _ in 0..tick_count {
        let tick = r.tick()?;
        let doc_count = r.seq(21)?;
        let mut docs = Vec::with_capacity(doc_count);
        for _ in 0..doc_count {
            docs.push(decode_doc(r)?);
        }
        pending.push((tick, docs));
    }
    Ok(ReorderSnapshot {
        arrivals,
        late_dropped,
        overflow_dropped,
        max_tick_seen,
        emitted_through,
        pending,
    })
}

fn encode_guard(w: &mut SnapWriter, snap: &GuardSnapshot) {
    w.u64(snap.admitted);
    w.u64(snap.deduped);
    w.u64(snap.rate_capped);
    w.opt_tick(snap.current_tick);
    w.usize(snap.dedup.len());
    for &(source, doc, tick) in &snap.dedup {
        w.u32(source.0);
        w.u64(doc);
        w.tick(tick);
    }
    w.usize(snap.buckets.len());
    for &(source, tokens, last_refill) in &snap.buckets {
        w.u32(source.0);
        w.f64(tokens);
        w.tick(last_refill);
    }
}

fn decode_guard(r: &mut SnapReader<'_>) -> Result<GuardSnapshot, EnBlogueError> {
    let admitted = r.u64()?;
    let deduped = r.u64()?;
    let rate_capped = r.u64()?;
    let current_tick = r.opt_tick()?;
    let dedup_len = r.seq(20)?;
    let mut dedup = Vec::with_capacity(dedup_len);
    for _ in 0..dedup_len {
        let source = enblogue_types::SourceId(r.u32()?);
        let doc = r.u64()?;
        let tick = r.tick()?;
        dedup.push((source, doc, tick));
    }
    let bucket_len = r.seq(20)?;
    let mut buckets = Vec::with_capacity(bucket_len);
    for _ in 0..bucket_len {
        let source = enblogue_types::SourceId(r.u32()?);
        let tokens = r.f64()?;
        let last_refill = r.tick()?;
        buckets.push((source, tokens, last_refill));
    }
    Ok(GuardSnapshot { admitted, deduped, rate_capped, current_tick, dedup, buckets })
}

/// One phase of the per-tick computation.
///
/// Stages receive every document of the open tick through
/// [`TickStage::on_doc`] and run their close-phase work in pipeline order
/// through [`TickStage::on_close`]. Both hooks default to no-ops so a
/// stage can be doc-only or close-only.
pub trait TickStage: Send {
    /// Stage name, for introspection and tracing.
    fn name(&self) -> &'static str;

    /// Observes one document of the open `tick`. `annotations` is the
    /// document's effective annotation set (tags, merged with entities when
    /// the configuration says so), computed once by the driver.
    fn on_doc(
        &mut self,
        _state: &mut PipelineState,
        _tick: Tick,
        _doc: &Document,
        _annotations: &[TagId],
    ) {
    }

    /// [`TickStage::on_doc`] for batched ingestion, where the document's
    /// pair observations have already been extracted into a shard-
    /// partitioned batch that the driver applies to the registry
    /// separately. Stages whose per-document work *is* pair observation
    /// override this with a no-op; everything else keeps the default
    /// (identical to the unbatched hook).
    fn on_doc_partitioned(
        &mut self,
        state: &mut PipelineState,
        tick: Tick,
        doc: &Document,
        annotations: &[TagId],
    ) {
        self.on_doc(state, tick, doc, annotations);
    }

    /// Runs this stage's share of the close of `tick` (`now` = stream time
    /// of the tick end).
    fn on_close(&mut self, _state: &mut PipelineState, _tick: Tick, _now: Timestamp) {}
}

/// Stage (i): selects the seed set over the window ending at the closing
/// tick.
pub struct SeedSelectStage;

impl TickStage for SeedSelectStage {
    fn name(&self) -> &'static str {
        "seed-select"
    }

    fn on_close(&mut self, state: &mut PipelineState, tick: Tick, _now: Timestamp) {
        state.seeds = state.seed_tracker.close_tick(tick);
    }
}

/// Window bookkeeping: per-tag counts, document volume and (for the
/// JS-divergence measure) per-tag term distributions.
pub struct TermWindowStage;

impl TickStage for TermWindowStage {
    fn name(&self) -> &'static str {
        "term-window"
    }

    fn on_doc(
        &mut self,
        state: &mut PipelineState,
        tick: Tick,
        doc: &Document,
        annotations: &[TagId],
    ) {
        // Windowed counters never move backwards: a late document counts
        // into the open tick's slot.
        state.doc_series.record(tick.max(state.doc_series.newest_tick().unwrap_or(tick)), 1.0);
        for &tag in annotations {
            state.seed_tracker.observe(tick, tag);
        }
        if let Some(term_dists) = state.term_dists.as_mut() {
            term_dists.observe_doc(tick, doc, state.config.use_entities);
        }
    }

    fn on_close(&mut self, state: &mut PipelineState, tick: Tick, _now: Timestamp) {
        // Align the windows to the closing tick (gap ticks expire data).
        state.doc_series.advance_to(tick);
        if let Some(term_dists) = state.term_dists.as_mut() {
            term_dists.close_tick(tick);
        }
    }
}

/// Stages (i)–(ii): windowed pair counting per document, and promotion of
/// this tick's seeded co-occurrences into tracked candidates on close.
pub struct PairCountStage;

impl TickStage for PairCountStage {
    fn name(&self) -> &'static str {
        "pair-count"
    }

    fn on_doc(
        &mut self,
        state: &mut PipelineState,
        tick: Tick,
        _doc: &Document,
        annotations: &[TagId],
    ) {
        // Same pair enumeration the partitioner uses — one definition of
        // the pair space for both feed paths.
        for_each_pair(annotations, |packed| state.registry.observe_pair(tick, packed));
    }

    /// In partitioned batches the pair observations arrive pre-bucketed
    /// and are applied by the driver in one shard-parallel pass — nothing
    /// left to do per document.
    fn on_doc_partitioned(
        &mut self,
        _state: &mut PipelineState,
        _tick: Tick,
        _doc: &Document,
        _annotations: &[TagId],
    ) {
    }

    fn on_close(&mut self, state: &mut PipelineState, tick: Tick, _now: Timestamp) {
        state.registry.advance_to(tick);
        // Candidate discovery: pairs that co-occurred this tick and contain
        // at least one seed. For set-overlap measures, histories are
        // backfilled with the zero correlation the pair had before
        // discovery (capped by stream age). The term-distribution measure
        // gets no backfill: two tags' language similarity is generally far
        // from zero even without co-occurrence, so pretending it was zero
        // would turn every discovery into a spurious full-scale shift.
        let backfill = match state.config.measure {
            MeasureKind::Set(_) => tick.0.min(state.config.window_ticks as u64 - 1) as usize,
            MeasureKind::JsDivergence => 0,
        };
        state.registry.discover_seeded(&state.seeds, tick, backfill);
    }
}

/// Stages (ii)–(iii): correlation update and shift scoring for every
/// tracked pair, fanned out over the registry shards, followed by
/// eviction.
///
/// This is the engine's steady-state hot loop; each shard walks its
/// slab-resident pair state linearly (dense key/score columns, histories
/// scored in place from the strided arena — see [`crate::slab`]), so a
/// warm close touches no allocator and no per-pair heap blocks.
pub struct ShiftScoreStage;

impl TickStage for ShiftScoreStage {
    fn name(&self) -> &'static str {
        "shift-score"
    }

    fn on_close(&mut self, state: &mut PipelineState, tick: Tick, now: Timestamp) {
        let n = state.doc_series.sum().round() as u64;
        let measure = state.config.measure;
        // Split borrows: the registry mutates shard-locally while the
        // correlation closure reads the (frozen) window statistics.
        let PipelineState { registry, seed_tracker, term_dists, scorer, probes, .. } = state;
        // The seed stage's dense column: two array loads per pair instead
        // of two hash probes. A tag past its end has a zero window count.
        let tag_counts = seed_tracker.tag_counts();
        let count_of = |tag: TagId| tag_counts.get(tag.index()).copied().unwrap_or(0);
        let term_dists = &*term_dists;
        let score_span = enblogue_telemetry::span!(probes.close_score);
        registry.score_all(tick, now, scorer, move |pair, ab| match measure {
            MeasureKind::Set(measure) => {
                let (a, b) = (count_of(pair.lo()), count_of(pair.hi()));
                measure.compute(PairCounts::new(a, b, ab, n))
            }
            MeasureKind::JsDivergence => {
                // The similarity is computed regardless of current
                // co-occurrence: its *level* is background language
                // overlap, and only *rises* (convergence of term usage)
                // register as shifts. Pairs still need co-occurrence
                // support to stay tracked (eviction) and to be scored
                // (support gate in the registry), so two independently
                // similar tags never alarm without joint activity.
                term_dists
                    .as_ref()
                    .expect("term distributions allocated for JS measure")
                    .js_similarity(pair.lo(), pair.hi())
            }
        });
        score_span.finish();
        let _expiry_span = enblogue_telemetry::span!(probes.close_expiry);
        registry.evict(tick, now);
    }
}

/// The sink stage: merges the shard rankings into the tick's
/// [`RankingSnapshot`].
pub struct RankEmitStage;

impl TickStage for RankEmitStage {
    fn name(&self) -> &'static str {
        "rank-emit"
    }

    fn on_close(&mut self, state: &mut PipelineState, tick: Tick, now: Timestamp) {
        let _rank_span = enblogue_telemetry::span!(state.probes.close_rank);
        let snapshot = RankingSnapshot {
            tick,
            time: now,
            ranked: state.registry.ranking(state.config.k, now),
        };
        state.latest = Some(snapshot);
    }
}

/// The checkpoint stage: periodically serializes the full pipeline state
/// to disk at tick close (mounted after `rank-emit` when
/// [`crate::config::SnapshotConfig`] is enabled, so the written snapshot
/// contains the tick's finished ranking).
///
/// Failures are counted ([`EngineCounters::snapshot_failures`]), never
/// raised: a transiently full disk must not take a continuously running
/// stream down, and the previous checkpoint is still on disk (writes are
/// atomic temp-file + rename).
pub struct CheckpointStage;

impl TickStage for CheckpointStage {
    fn name(&self) -> &'static str {
        "checkpoint"
    }

    fn on_close(&mut self, state: &mut PipelineState, tick: Tick, _now: Timestamp) {
        let interval = state.config.snapshot.interval_ticks;
        if interval == 0 || !state.ticks_closed.is_multiple_of(interval) {
            return;
        }
        let dir = PathBuf::from(&state.config.snapshot.directory);
        let retention = state.config.snapshot.retention;
        // Encode + write are one timed unit — that is the wall-clock
        // cost a checkpoint adds to its tick close.
        let write_started = state.probes.snapshot_write.enabled().then(Instant::now);
        // This stage runs inside `close_tick`, so the closing tick *is*
        // the cursor (and `first_open` is moot once a tick is closed).
        let payload = state.encode_snapshot(Some(tick), None);
        match snapshot::write_snapshot_file(&dir.join(checkpoint_file_name(tick)), &payload) {
            Ok(bytes) => {
                state.snapshots_taken += 1;
                state.snapshot_bytes += bytes;
                let ns = write_started.map_or(0, duration_ns);
                state.probes.snapshot_write.record(ns);
                state.telemetry.journal().record(
                    EventKind::CheckpointWrite,
                    tick.0,
                    bytes,
                    ns / 1_000,
                );
                snapshot::prune_checkpoints(&dir, retention);
            }
            Err(_) => {
                state.snapshot_failures += 1;
                state.telemetry.journal().record(
                    EventKind::CheckpointFailure,
                    tick.0,
                    state.snapshot_failures,
                    0,
                );
            }
        }
    }
}

/// The telemetry-dump stage: periodically writes the Prometheus text
/// export, the metrics JSONL and the journal JSONL into the configured
/// directory at tick close (mounted last when
/// [`crate::config::TelemetryConfig::dumps_enabled`], so a dump sees
/// the tick's finished ranking and close timings). Like checkpoint
/// writes, dump failures are counted (`telemetry.dump_failures`), never
/// raised.
pub struct TelemetryDumpStage;

impl TickStage for TelemetryDumpStage {
    fn name(&self) -> &'static str {
        "telemetry-dump"
    }

    fn on_close(&mut self, state: &mut PipelineState, _tick: Tick, _now: Timestamp) {
        let interval = state.config.telemetry.dump_every_ticks;
        if interval == 0 || !state.ticks_closed.is_multiple_of(interval) {
            return;
        }
        let dir = PathBuf::from(&state.config.telemetry.dump_directory);
        let result = std::fs::create_dir_all(&dir)
            .and_then(|()| {
                std::fs::write(dir.join("metrics.prom"), state.telemetry.prometheus_text())
            })
            .and_then(|()| {
                std::fs::write(dir.join("metrics.jsonl"), state.telemetry.metrics_jsonl())
            })
            .and_then(|()| {
                std::fs::write(dir.join("journal.jsonl"), state.telemetry.journal().to_jsonl())
            });
        if result.is_err() {
            state.probes.dump_failures.inc();
        }
    }
}

/// The shared driver: feeds documents to every stage and closes ticks
/// through the ordered stage list.
///
/// This is the single implementation of EnBlogue's tick semantics; every
/// execution surface wraps it. Feed with [`StagePipeline::process_doc`]
/// (or batched via [`StagePipeline::process_docs`] /
/// [`StagePipeline::process_partitioned`]), close with
/// [`StagePipeline::close_tick`] or the gap-filling
/// [`StagePipeline::close_through`], or drive a whole archive with
/// [`StagePipeline::run_replay`]. Custom stages appended with
/// [`StagePipeline::push_stage`] run after `rank-emit` and see each
/// tick's finished snapshot.
pub struct StagePipeline {
    state: PipelineState,
    stages: Vec<Box<dyn TickStage>>,
    /// Per-stage close-latency histograms (`stage.close.ns{stage=…}`),
    /// index-aligned with `stages`; registered once at assembly.
    stage_spans: Vec<Histogram>,
    /// Scratch buffer for per-document annotation sets.
    annotation_buf: Vec<TagId>,
    last_closed: Option<Tick>,
    /// Tick of the first processed document — where gap closing starts
    /// when no tick has been closed yet.
    first_open: Option<Tick>,
    /// Scratch for documents the reordering buffer releases (reused
    /// across [`StagePipeline::offer_doc`] calls).
    event_ready_buf: Vec<Document>,
    /// Drop totals already journaled (late+overflow, deduped,
    /// rate-capped) — close-time journal events carry per-tick deltas.
    /// Process-local like the journal itself; a resumed pipeline starts
    /// from the restored totals so the first close reports only new
    /// drops.
    drops_reported: [u64; 3],
}

impl StagePipeline {
    /// A pipeline running the five standard EnBlogue stages.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (use
    /// [`EnBlogueConfig::builder`] to get a validated one).
    pub fn new(config: EnBlogueConfig) -> Self {
        Self::assemble(PipelineState::new(config), None, None)
    }

    /// Builds a pipeline around prepared state: the standard stages, plus
    /// the checkpoint stage when the configuration enables it.
    fn assemble(state: PipelineState, last_closed: Option<Tick>, first_open: Option<Tick>) -> Self {
        let mut stages = Self::standard_stages();
        if state.config.snapshot.enabled() {
            stages.push(Box::new(CheckpointStage));
        }
        if state.config.telemetry.dumps_enabled() {
            stages.push(Box::new(TelemetryDumpStage));
        }
        let stage_spans = stages
            .iter()
            .map(|stage| {
                state.telemetry.registry().histogram_labeled(
                    "stage.close.ns",
                    "stage",
                    stage.name(),
                )
            })
            .collect();
        let drops_reported = [
            state.event.as_ref().map_or(0, |b| b.late_dropped() + b.overflow_dropped()),
            state.guard.as_ref().map_or(0, |g| g.deduped()),
            state.guard.as_ref().map_or(0, |g| g.rate_capped()),
        ];
        StagePipeline {
            state,
            stages,
            stage_spans,
            annotation_buf: Vec::with_capacity(16),
            last_closed,
            first_open,
            event_ready_buf: Vec::new(),
            drops_reported,
        }
    }

    /// The standard stage list, in close order.
    pub fn standard_stages() -> Vec<Box<dyn TickStage>> {
        vec![
            Box::new(SeedSelectStage),
            Box::new(TermWindowStage),
            Box::new(PairCountStage),
            Box::new(ShiftScoreStage),
            Box::new(RankEmitStage),
        ]
    }

    /// Appends a custom stage behind the standard ones (runs after
    /// `rank-emit`, so it sees the tick's finished snapshot). The stage
    /// gets its own `stage.close.ns{stage=…}` latency series like the
    /// standard ones.
    pub fn push_stage(&mut self, stage: Box<dyn TickStage>) {
        self.stage_spans.push(self.state.telemetry.registry().histogram_labeled(
            "stage.close.ns",
            "stage",
            stage.name(),
        ));
        self.stages.push(stage);
    }

    /// Stage names in close order.
    pub fn stage_names(&self) -> Vec<&'static str> {
        self.stages.iter().map(|s| s.name()).collect()
    }

    /// The shared pipeline state.
    pub fn state(&self) -> &PipelineState {
        &self.state
    }

    /// The pipeline's configuration.
    pub fn config(&self) -> &EnBlogueConfig {
        &self.state.config
    }

    /// Feeds one document (annotations counted into the open tick).
    ///
    /// Documents must arrive in non-decreasing timestamp order relative to
    /// closed ticks; a document belonging to an already-closed tick is
    /// counted into the open tick's slot (windowed counters never move
    /// backwards).
    ///
    /// With [`crate::config::SourceGuardConfig`] enabled, the document is
    /// judged first — an exact duplicate within the dedup window or a
    /// document its source's token bucket cannot cover is dropped (with
    /// counter + journal accounting) before it reaches any stage.
    pub fn process_doc(&mut self, doc: &Document) {
        if !self.admit_doc(doc) {
            return;
        }
        self.ingest_doc(doc, false);
    }

    /// Applies the source guard to one document; `true` admits. Always
    /// `true` with the guard disabled. Every feed path funnels each
    /// document through this exactly once — the guard is stateful
    /// (tokens, dedup keys), so double-judging would diverge.
    fn admit_doc(&mut self, doc: &Document) -> bool {
        if self.state.guard.is_none() {
            return true;
        }
        let tick = self.state.config.tick_spec.tick_of(doc.timestamp);
        let verdict =
            self.state.guard.as_mut().expect("guard checked above").admit(doc.source, doc.id, tick);
        match verdict {
            GuardVerdict::Admitted => true,
            GuardVerdict::Duplicate => {
                self.state.probes.dedup_drops.inc();
                false
            }
            GuardVerdict::RateCapped => {
                self.state.probes.rate_drops.inc();
                false
            }
        }
    }

    /// The shared per-document prologue of both feeding modes: assign the
    /// tick, bump counters, gather the annotation set once (tags,
    /// optionally merged with entities — the same
    /// [`enblogue_ingest::partition::annotations_of`] the partitioner
    /// uses, so both paths see byte-identical slices), then dispatch to
    /// every stage's per-doc hook — the partitioned variant when the pair
    /// observations travel separately.
    fn ingest_doc(&mut self, doc: &Document, partitioned: bool) {
        let tick = self.state.config.tick_spec.tick_of(doc.timestamp);
        self.state.docs_processed += 1;
        self.state.probes.docs.inc();
        if self.first_open.is_none() {
            self.first_open = Some(tick);
        }
        annotations_of(doc, self.state.config.use_entities, &mut self.annotation_buf);
        for stage in &mut self.stages {
            if partitioned {
                stage.on_doc_partitioned(&mut self.state, tick, doc, &self.annotation_buf);
            } else {
                stage.on_doc(&mut self.state, tick, doc, &self.annotation_buf);
            }
        }
    }

    /// The partitioning parameters batched feeders need: the pair-space
    /// slice of the engine configuration and the registry's pool size.
    pub fn partition_spec(&self) -> PartitionSpec {
        PartitionSpec {
            tick_spec: self.state.config.tick_spec,
            use_entities: self.state.config.use_entities,
            shards: self.state.registry.shard_count(),
        }
    }

    /// Batched ingestion: feeds a whole document slice in one call.
    ///
    /// Semantically identical to calling [`StagePipeline::process_doc`] per
    /// document — no tick is closed, and rankings are byte-identical for
    /// any batch split. Internally this is the batch fast path: the slice
    /// is tokenized and pair-partitioned once
    /// ([`enblogue_ingest::partition::partition_docs`]) into counted runs,
    /// which are applied to the sharded registry in one pass —
    /// shard-parallel when the registry has several stores and the batch
    /// is large enough.
    pub fn process_docs(&mut self, docs: &[Document]) {
        if self.state.guard.is_some() {
            // Guard verdicts must interleave with feeding in stream
            // order (each admission spends tokens and records dedup
            // keys), so the batch fast path — which partitions the pair
            // observations of *all* documents up front — cannot run:
            // it would count observations of documents the guard
            // rejects. Per-document feeding is semantically identical.
            for doc in docs {
                self.process_doc(doc);
            }
            return;
        }
        match docs {
            [] => {}
            [doc] => self.process_doc(doc),
            _ => {
                let partitioned = partition_docs(docs, &self.partition_spec());
                self.process_partitioned(docs, &partitioned);
            }
        }
    }

    /// Applies a batch whose pair observations were already partitioned by
    /// shard (the entry point of `enblogue_ingest`'s pipeline, where the
    /// partitioning ran on a worker thread).
    ///
    /// Window bookkeeping (seeds, document volume, term distributions)
    /// runs per document in stream order; the pre-bucketed counted runs
    /// are applied to the registry in one pass, one worker per shard from
    /// [`crate::pairs::FANOUT_MIN_ITEMS`] runs on. Equivalent to
    /// per-document feeding for any shard count, serial or fanned out:
    /// each shard's runs add up to the same per-tick counts the sequential
    /// subsequence writes, and no close-phase reader runs until the tick
    /// closes.
    ///
    /// # Panics
    /// Panics if `partitioned` was built for a different document slice or
    /// shard count.
    pub fn process_partitioned(&mut self, docs: &[Document], partitioned: &PartitionedBatch) {
        if self.state.guard.is_some() {
            // The batch was partitioned before the guard could judge its
            // documents (partitioning runs on worker threads that hold no
            // guard state), so its buckets may contain observations of
            // documents about to be rejected. Discard the buckets and
            // feed per document — the guard then judges each exactly
            // once, identically to the serial path.
            for doc in docs {
                self.process_doc(doc);
            }
            return;
        }
        assert_eq!(partitioned.docs, docs.len(), "partitioned batch does not match the slice");
        for doc in docs {
            self.ingest_doc(doc, true);
        }
        self.state.registry.ingest_partitioned(partitioned.buckets());
    }

    /// Closes `tick` by running every stage's close phase in order and
    /// returns the tick's ranking.
    pub fn close_tick(&mut self, tick: Tick) -> RankingSnapshot {
        let now = self.state.config.tick_spec.end_of(tick);
        self.state.ticks_closed += 1;
        self.state.probes.ticks.inc();
        for (stage, span_hist) in self.stages.iter_mut().zip(self.stage_spans.iter()) {
            let _span = enblogue_telemetry::span!(span_hist);
            stage.on_close(&mut self.state, tick, now);
        }
        self.last_closed = Some(self.last_closed.map_or(tick, |last| last.max(tick)));
        let snapshot = self.state.latest.clone().expect("the rank-emit stage produces a snapshot");
        self.state.probes.pairs_tracked.set(self.state.registry.len() as i64);
        self.state.probes.observed_keys.set(self.state.registry.observed_keys() as i64);
        self.state.telemetry.journal().record(
            EventKind::TickClose,
            tick.0,
            self.state.registry.len() as u64,
            snapshot.ranked.len() as u64,
        );
        self.journal_drops(tick);
        snapshot
    }

    /// Journals one aggregate event per drop class whose total advanced
    /// since the last close (`a` = drops since then, `b` = total), so
    /// hostile-input damage is visible per tick without a per-document
    /// journal flood.
    fn journal_drops(&mut self, tick: Tick) {
        let totals = [
            self.state.event.as_ref().map_or(0, |b| b.late_dropped() + b.overflow_dropped()),
            self.state.guard.as_ref().map_or(0, |g| g.deduped()),
            self.state.guard.as_ref().map_or(0, |g| g.rate_capped()),
        ];
        let kinds = [EventKind::LateDrop, EventKind::DedupDrop, EventKind::RateCapDrop];
        for ((kind, total), reported) in kinds.into_iter().zip(totals).zip(&mut self.drops_reported)
        {
            if total > *reported {
                self.state.telemetry.journal().record(kind, tick.0, total - *reported, total);
                *reported = total;
            }
        }
    }

    /// Closes every tick from the first unclosed one up to and including
    /// `tick` (gap ticks keep correlation histories tick-aligned), calling
    /// `emit` per snapshot. Already-closed ticks are skipped.
    ///
    /// This is the single gap-closing implementation shared by the replay
    /// drivers and the ingestion sink (tick boundaries may jump).
    pub fn close_through(&mut self, tick: Tick, mut emit: impl FnMut(RankingSnapshot)) {
        let mut t = match self.last_closed {
            Some(last) if last >= tick => return,
            Some(last) => last.next(),
            // Nothing closed yet: start where the stream started (the
            // first document's tick), so leading gap ticks are closed too.
            None => self.first_open.map_or(tick, |first| first.min(tick)),
        };
        loop {
            emit(self.close_tick(t));
            if t == tick {
                break;
            }
            t = t.next();
        }
    }

    /// Closes every tick an uninterrupted stream would have closed before
    /// feeding a document of `tick`: from the current cursor — the last
    /// closed tick, or the first *open* tick when nothing has closed yet
    /// (a pipeline fed mid-tick, or restored from a mid-tick checkpoint)
    /// — up to `tick - 1`, calling `emit` per snapshot. A no-op when the
    /// cursor is already caught up or nothing has been fed at all.
    pub fn close_gap_before(&mut self, tick: Tick, emit: impl FnMut(RankingSnapshot)) {
        if let Some(floor) = self.last_closed.or(self.first_open) {
            if tick > floor {
                self.close_through(tick.prev(), emit);
            }
        }
    }

    /// Replays a timestamp-sorted document slice, closing every tick in
    /// sequence (including empty gap ticks). Returns one snapshot per
    /// closed tick.
    ///
    /// On a pipeline that has already seen the stream's head — ticks
    /// closed, or an open tick fed mid-way; in particular one restored
    /// from a checkpoint — the replay continues from the cursor: every
    /// tick an uninterrupted run would have closed before the first tail
    /// document is closed first (including a still-open checkpoint tick),
    /// and documents at or before an already-*closed* tick are rejected
    /// (they were already counted before the checkpoint).
    pub fn run_replay(&mut self, docs: &[Document]) -> Vec<RankingSnapshot> {
        if self.state.event.is_some() {
            // Event-time mode: arrivals may be out of order; the reorder
            // buffer re-sequences them and the watermark drives closes.
            // The sortedness assertions below do not apply.
            let mut snapshots = Vec::new();
            for doc in docs {
                self.offer_doc(doc, |snapshot| snapshots.push(snapshot));
            }
            self.finish_event_stream(|snapshot| snapshots.push(snapshot));
            return snapshots;
        }
        let mut snapshots = Vec::new();
        let closed_floor = self.last_closed;
        let mut open: Option<Tick> = self.last_closed.or(self.first_open);
        let mut fed = false;
        for doc in docs {
            let tick = self.state.config.tick_spec.tick_of(doc.timestamp);
            if let Some(floor) = closed_floor {
                assert!(
                    tick > floor,
                    "run_replay tail must start after the already-closed tick {floor} (got {tick})"
                );
            }
            if let Some(current) = open {
                assert!(tick >= current, "run_replay requires timestamp-sorted documents");
                if tick > current {
                    self.close_through(tick.prev(), |snapshot| snapshots.push(snapshot));
                }
            }
            open = Some(tick);
            fed = true;
            self.process_doc(doc);
        }
        if fed {
            if let Some(current) = open {
                self.close_through(current, |snapshot| snapshots.push(snapshot));
            }
        }
        snapshots
    }

    /// Offers one *arrival* — the event-time streaming entry point.
    ///
    /// With [`crate::config::EventTimeConfig`] enabled the document goes
    /// through the reorder buffer: it is held until the arrival-driven
    /// watermark seals its tick, dropped (with counter + journal
    /// accounting) if it arrives beyond the lateness bound or the buffer
    /// cap, and fed in true event-tick order otherwise. Ticks the
    /// watermark seals are closed immediately — all of their surviving
    /// documents are fed by then, so the emitted rankings are
    /// byte-identical to replaying the same stream pre-sorted (pinned in
    /// `tests/stage_parity.rs`). `emit` receives each closed tick's
    /// snapshot.
    ///
    /// With event time disabled this degrades to the plain streaming
    /// feed: close the gap before the document's tick, then process it —
    /// so hosts can call one entry point regardless of configuration.
    pub fn offer_doc(&mut self, doc: &Document, mut emit: impl FnMut(RankingSnapshot)) {
        let Some(mut buffer) = self.state.event.take() else {
            self.feed_ordered_doc(doc, &mut emit);
            return;
        };
        match buffer.push(doc.clone()) {
            PushOutcome::Buffered => {}
            PushOutcome::Late => self.state.probes.late_drops.inc(),
            PushOutcome::Overflow => self.state.probes.overflow_drops.inc(),
        }
        let mut ready = std::mem::take(&mut self.event_ready_buf);
        buffer.drain_ready(&mut ready);
        let sealed = buffer.emitted_through();
        self.state.event = Some(buffer);
        for ordered in &ready {
            self.feed_ordered_doc(ordered, &mut emit);
        }
        ready.clear();
        self.event_ready_buf = ready;
        if let Some(sealed) = sealed {
            // Every surviving document of ticks ≤ sealed is fed (later
            // ticks are still buffered), so closing now reproduces the
            // sorted replay's state at these closes exactly.
            self.close_through(sealed, &mut emit);
        }
    }

    /// End of an event-time stream: releases everything the reorder
    /// buffer still holds (in tick order) and closes through the last
    /// tick that saw a document, emitting each snapshot. A no-op when
    /// event time is disabled or nothing was ever buffered.
    pub fn finish_event_stream(&mut self, mut emit: impl FnMut(RankingSnapshot)) {
        let Some(mut buffer) = self.state.event.take() else { return };
        let mut ready = std::mem::take(&mut self.event_ready_buf);
        buffer.flush(&mut ready);
        let through = buffer.emitted_through();
        self.state.event = Some(buffer);
        for ordered in &ready {
            self.feed_ordered_doc(ordered, &mut emit);
        }
        ready.clear();
        self.event_ready_buf = ready;
        if let Some(through) = through {
            self.close_through(through, &mut emit);
        }
    }

    /// Feeds one document of a tick-ordered stream the way `run_replay`
    /// would: close every tick before the document's, then process it
    /// (which still runs the source guard).
    fn feed_ordered_doc(&mut self, doc: &Document, emit: impl FnMut(RankingSnapshot)) {
        let tick = self.state.config.tick_spec.tick_of(doc.timestamp);
        self.close_gap_before(tick, emit);
        self.process_doc(doc);
    }

    /// Runs a raw arrival slice through the reorder buffer and returns
    /// the surviving documents in event-tick order (drop counters fire
    /// as usual); the buffer is left flushed. With event time disabled
    /// the slice passes through unchanged. This is the batched
    /// counterpart of [`offer_doc`](Self::offer_doc) for hosts that feed
    /// an ingest pipeline rather than per-document calls — the returned
    /// slice is sorted, so the batched feeders' invariants hold.
    pub fn resequence_arrivals(&mut self, docs: &[Document]) -> Vec<Document> {
        let Some(mut buffer) = self.state.event.take() else { return docs.to_vec() };
        let mut ordered = Vec::with_capacity(docs.len());
        for doc in docs {
            match buffer.push(doc.clone()) {
                PushOutcome::Buffered => {}
                PushOutcome::Late => self.state.probes.late_drops.inc(),
                PushOutcome::Overflow => self.state.probes.overflow_drops.inc(),
            }
            // Draining as the watermark advances (rather than once at the
            // end) keeps held memory at the cap, not the stream length.
            buffer.drain_ready(&mut ordered);
        }
        buffer.flush(&mut ordered);
        self.state.event = Some(buffer);
        ordered
    }

    /// The most recently closed tick — the resume cursor: a pipeline
    /// restored from a checkpoint reports the checkpoint's tick here, and
    /// tail replays continue from the next one.
    pub fn last_closed(&self) -> Option<Tick> {
        self.last_closed
    }

    /// Serializes the complete pipeline state to `path` (atomic write;
    /// see [`crate::snapshot`] for the format). Valid at any point, not
    /// just tick boundaries — open-tick observations are part of the
    /// state and travel along.
    ///
    /// # Errors
    /// Surfaces filesystem failures as
    /// [`EnBlogueError::SnapshotIo`]; the pipeline is untouched either
    /// way (checkpointing is read-only on engine state).
    pub fn checkpoint_to(&mut self, path: &Path) -> Result<SnapshotStats, EnBlogueError> {
        let started = Instant::now();
        let payload = self.state.encode_snapshot(self.last_closed, self.first_open);
        let bytes = snapshot::write_snapshot_file(path, &payload)?;
        self.state.snapshots_taken += 1;
        self.state.snapshot_bytes += bytes;
        let write_micros = started.elapsed().as_micros() as u64;
        self.state.probes.snapshot_write.record(duration_ns(started));
        self.state.telemetry.journal().record(
            EventKind::CheckpointWrite,
            self.last_closed.map_or(0, |t| t.0),
            bytes,
            write_micros,
        );
        Ok(SnapshotStats {
            path: path.to_path_buf(),
            bytes,
            write_micros,
            tracked_pairs: self.state.registry.len(),
            tick: self.last_closed,
        })
    }

    /// Restores a pipeline from a snapshot file, verifying the frame
    /// (magic, version, length, checksum) and that `config` fingerprints
    /// to the checkpointing configuration. The restored pipeline
    /// continues exactly where the checkpoint left off: feed the tail of
    /// the stream (documents after the checkpoint tick) and rankings are
    /// byte-identical to an uninterrupted run.
    ///
    /// # Errors
    /// [`EnBlogueError::SnapshotIo`] for filesystem failures,
    /// [`EnBlogueError::SnapshotCorrupt`] /
    /// [`EnBlogueError::SnapshotVersionMismatch`] for malformed files,
    /// [`EnBlogueError::SnapshotConfigMismatch`] when `config` differs
    /// from the checkpointing configuration, and configuration validation
    /// errors as usual.
    pub fn resume_from(config: EnBlogueConfig, path: &Path) -> Result<Self, EnBlogueError> {
        let started = Instant::now();
        let payload = snapshot::read_snapshot_payload(path)?;
        let mut r = SnapReader::new(&payload);
        let (mut state, last_closed, first_open) = PipelineState::decode_snapshot(config, &mut r)?;
        r.finish()?;
        state.restores = 1;
        let pipeline = Self::assemble(state, last_closed, first_open);
        let ns = duration_ns(started);
        pipeline.state.probes.restore.record(ns);
        pipeline.state.telemetry.journal().record(
            EventKind::Restore,
            last_closed.map_or(0, |t| t.0),
            ns / 1_000,
            0,
        );
        Ok(pipeline)
    }

    /// The pipeline's observability hub: metric registry, event journal
    /// and exporters (see [`enblogue_telemetry`]).
    pub fn telemetry(&self) -> &Telemetry {
        &self.state.telemetry
    }

    /// The most recent ranking, if any tick has been closed.
    pub fn latest_snapshot(&self) -> Option<&RankingSnapshot> {
        self.state.latest.as_ref()
    }

    /// The seeds selected at the last tick close, sorted.
    pub fn current_seeds(&self) -> Vec<TagId> {
        let mut seeds: Vec<TagId> = self.state.seeds.iter().copied().collect();
        seeds.sort_unstable();
        seeds
    }

    /// Whether `tag` is currently a seed.
    pub fn is_seed(&self, tag: TagId) -> bool {
        self.state.seeds.contains(&tag)
    }

    /// Rich info on a tracked pair.
    pub fn pair_info(&self, pair: TagPair) -> Option<TrackedPairInfo> {
        let tick = self.state.latest.as_ref().map_or(Tick::ZERO, |s| s.tick);
        let now = self.state.latest.as_ref().map_or(Timestamp::ZERO, |s| s.time);
        self.state.registry.info(pair, tick, now)
    }

    /// The correlation history of a tracked pair (oldest → newest).
    pub fn pair_history(&self, pair: TagPair) -> Option<Vec<f64>> {
        self.state.registry.history_of(pair)
    }

    /// The pipeline's in-place [`crate::query::QueryView`]: the unified
    /// read surface over the accessors above, shared with the serving
    /// tier's published views. `interner` is needed for tag names and
    /// keyword personalization — pass the one the documents were tagged
    /// with.
    pub fn query_view(&self, interner: TagInterner) -> crate::query::EngineQuery<'_> {
        crate::query::EngineQuery::new(self, interner)
    }

    /// Run-time counters.
    pub fn metrics(&self) -> EngineMetrics {
        self.state.metrics()
    }

    /// Always 0: batches are bucketed by a fixed hash split, so none can
    /// arrive stale. Kept because the stand-alone benchmark still reads
    /// it (`ingest.pipeline.stale_repartitions`).
    pub fn stale_repartitions(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enblogue_types::{TickSpec, Timestamp};

    fn config(shards: usize) -> EnBlogueConfig {
        EnBlogueConfig::builder()
            .tick_spec(TickSpec::hourly())
            .window_ticks(6)
            .seed_count(8)
            .min_seed_count(2)
            .top_k(5)
            .min_pair_support(1)
            .shards(shards)
            .build()
            .unwrap()
    }

    fn doc(id: u64, hour: u64, tags: &[u32]) -> Document {
        Document::builder(id, Timestamp::from_hours(hour))
            .tags(tags.iter().map(|&t| TagId(t)))
            .build()
    }

    fn burst_workload() -> Vec<Document> {
        let mut docs = Vec::new();
        let mut id = 0;
        for hour in 0..12u64 {
            for _ in 0..5 {
                for set in [&[1u32][..], &[2], &[3]] {
                    id += 1;
                    docs.push(doc(id, hour, set));
                }
                if hour >= 9 {
                    id += 1;
                    docs.push(doc(id, hour, &[1, 2]));
                }
            }
        }
        docs
    }

    #[test]
    fn standard_pipeline_names_the_five_phases() {
        let pipeline = StagePipeline::new(config(1));
        assert_eq!(
            pipeline.stage_names(),
            vec!["seed-select", "term-window", "pair-count", "shift-score", "rank-emit"]
        );
    }

    #[test]
    fn checkpoint_stage_mounts_only_when_configured() {
        let mut cfg = config(1);
        cfg.snapshot = crate::config::SnapshotConfig {
            interval_ticks: 4,
            directory: std::env::temp_dir()
                .join(format!("enblogue-stage-mount-{}", std::process::id()))
                .to_str()
                .unwrap()
                .to_owned(),
            retention: 1,
        };
        let pipeline = StagePipeline::new(cfg);
        assert_eq!(
            pipeline.stage_names(),
            vec![
                "seed-select",
                "term-window",
                "pair-count",
                "shift-score",
                "rank-emit",
                "checkpoint"
            ]
        );
    }

    #[test]
    fn failed_checkpoint_writes_are_counted_not_raised() {
        let mut cfg = config(1);
        // A directory that cannot be created (parent is a file).
        cfg.snapshot = crate::config::SnapshotConfig {
            interval_ticks: 1,
            directory: "/dev/null/not-a-directory".into(),
            retention: 1,
        };
        let mut pipeline = StagePipeline::new(cfg);
        pipeline.process_doc(&doc(1, 0, &[1, 2]));
        pipeline.close_tick(Tick(0));
        let metrics = pipeline.metrics();
        assert_eq!(metrics.snapshot_failures, 1, "the write failed");
        assert_eq!(metrics.snapshots_taken, 0);
        assert_eq!(metrics.ticks_closed, 1, "the stream keeps running");
    }

    #[test]
    fn pipeline_detects_the_emergent_pair() {
        let mut pipeline = StagePipeline::new(config(1));
        let snapshots = pipeline.run_replay(&burst_workload());
        assert_eq!(snapshots.len(), 12);
        let last = snapshots.last().unwrap();
        assert_eq!(last.ranked[0].0, TagPair::new(TagId(1), TagId(2)));
        assert!(pipeline.is_seed(TagId(1)));
        assert_eq!(pipeline.metrics().ticks_closed, 12);
    }

    #[test]
    fn shard_count_and_parallelism_do_not_change_results() {
        let docs = burst_workload();
        let baseline = StagePipeline::new(config(1)).run_replay(&docs);
        for shards in [4, 16] {
            let snapshots = StagePipeline::new(config(shards)).run_replay(&docs);
            assert_eq!(snapshots, baseline, "shards={shards}");
        }
    }

    #[test]
    fn process_docs_matches_per_doc_feeding() {
        let docs = burst_workload();
        // Batched: feed each tick's slice at once.
        let mut batched = StagePipeline::new(config(4));
        let mut start = 0;
        let mut out_batched = Vec::new();
        for hour in 0..12u64 {
            let end = docs
                .iter()
                .position(|d| d.timestamp >= Timestamp::from_hours(hour + 1))
                .unwrap_or(docs.len());
            batched.process_docs(&docs[start..end]);
            out_batched.push(batched.close_tick(Tick(hour)));
            start = end;
        }
        let mut single = StagePipeline::new(config(4));
        let out_single = single.run_replay(&docs);
        assert_eq!(out_batched, out_single);
        assert_eq!(batched.metrics(), single.metrics());
    }

    #[test]
    fn close_through_fills_gaps_once() {
        let mut pipeline = StagePipeline::new(config(1));
        pipeline.process_doc(&doc(1, 0, &[1, 2]));
        let mut ticks = Vec::new();
        pipeline.close_through(Tick(3), |s| ticks.push(s.tick));
        assert_eq!(ticks, vec![Tick(0), Tick(1), Tick(2), Tick(3)]);
        // Re-closing through an older tick is a no-op.
        pipeline.close_through(Tick(2), |_| panic!("tick 2 already closed"));
        assert_eq!(pipeline.metrics().ticks_closed, 4);
    }

    #[test]
    fn custom_stages_see_the_emitted_snapshot() {
        struct SnapshotProbe {
            seen: std::sync::Arc<std::sync::Mutex<Vec<Tick>>>,
        }
        impl TickStage for SnapshotProbe {
            fn name(&self) -> &'static str {
                "probe"
            }
            fn on_close(&mut self, state: &mut PipelineState, tick: Tick, _now: Timestamp) {
                let snapshot = state.latest_snapshot().expect("runs after rank-emit");
                assert_eq!(snapshot.tick, tick);
                self.seen.lock().unwrap().push(tick);
            }
        }
        let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut pipeline = StagePipeline::new(config(1));
        pipeline.push_stage(Box::new(SnapshotProbe { seen: std::sync::Arc::clone(&seen) }));
        assert_eq!(pipeline.stage_names().len(), 6);
        pipeline.process_doc(&doc(1, 0, &[1, 2]));
        pipeline.close_tick(Tick(0));
        pipeline.close_tick(Tick(1));
        assert_eq!(*seen.lock().unwrap(), vec![Tick(0), Tick(1)]);
    }
}
