//! Engine configuration.

use crate::pairs::ScoringMode;
use enblogue_ingest::default_parallelism;
use enblogue_stats::correlation::CorrelationMeasure;
use enblogue_stats::predict::PredictorKind;
use enblogue_stats::shift::ErrorNormalization;
use enblogue_types::{EnBlogueError, TickSpec, Timestamp};
use serde::{Deserialize, Serialize};

/// How seed tags are selected (§3(i): "Seed tags can be determined based on
/// different criteria, such as popularity and volatility").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum SeedStrategy {
    /// Top-S tags by windowed document count (the paper's default:
    /// "We choose seed tags to be popular tags").
    #[default]
    Popularity,
    /// Top-S tags by coefficient of variation of their per-tick counts,
    /// among tags meeting the popularity floor.
    Volatility,
    /// Weighted blend: `w·popularity_rankscore + (1−w)·volatility_rankscore`.
    Hybrid {
        /// Weight of popularity in `[0, 1]`.
        popularity_weight: f64,
    },
    /// Approximate popularity from a Space-Saving sketch with the given
    /// number of counters (sketch vs exact seed selection: the
    /// `seeds=sketch(…)` rows of `QUALITY.json`).
    SketchPopularity {
        /// Number of Space-Saving counters.
        capacity: usize,
    },
}

/// Which correlation measure the tracker computes per pair (§3(ii)).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MeasureKind {
    /// Set-overlap measure over windowed document counts.
    Set(CorrelationMeasure),
    /// Jensen–Shannon similarity of the member tags' windowed term
    /// distributions (the paper's "information-theory measures like
    /// relative entropy" variant). Requires documents to carry terms.
    JsDivergence,
}

impl Default for MeasureKind {
    fn default() -> Self {
        MeasureKind::Set(CorrelationMeasure::Jaccard)
    }
}

impl MeasureKind {
    /// Short identifier for experiment output.
    pub fn name(self) -> &'static str {
        match self {
            MeasureKind::Set(m) => m.name(),
            MeasureKind::JsDivergence => "jsd",
        }
    }
}

/// Periodic checkpointing policy (see [`crate::snapshot`]).
///
/// Disabled by default (`interval_ticks == 0`). When enabled, a
/// `checkpoint` stage runs at every tick close and, every
/// `interval_ticks` closed ticks, serializes the full engine state into
/// `directory/checkpoint-<tick>.snap` (atomic temp-file + rename), then
/// prunes all but the newest `retention` files. Checkpointing never
/// changes what is computed — rankings are byte-identical with any
/// policy, pinned by `tests/stage_parity.rs` — and a failed write is
/// counted in [`crate::stages::EngineCounters::snapshot_failures`] rather
/// than crashing the stream.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotConfig {
    /// Checkpoint every this many closed ticks; `0` disables the stage.
    pub interval_ticks: u64,
    /// Directory receiving `checkpoint-<tick>.snap` files (created on
    /// first write). Must be non-empty when the interval is set.
    pub directory: String,
    /// Number of newest checkpoint files kept after each write (≥ 1).
    pub retention: usize,
}

impl Default for SnapshotConfig {
    fn default() -> Self {
        SnapshotConfig { interval_ticks: 0, directory: String::new(), retention: 2 }
    }
}

impl SnapshotConfig {
    /// The disabled policy (no checkpoint stage is mounted).
    pub fn disabled() -> Self {
        SnapshotConfig::default()
    }

    /// Checkpoint every `interval_ticks` closed ticks into `directory`,
    /// with the default retention of 2.
    pub fn every(interval_ticks: u64, directory: impl Into<String>) -> Self {
        SnapshotConfig { interval_ticks, directory: directory.into(), retention: 2 }
    }

    /// Whether periodic checkpointing is on.
    pub fn enabled(&self) -> bool {
        self.interval_ticks > 0
    }
}

/// Telemetry policy (see [`enblogue_telemetry`] and
/// `docs/OBSERVABILITY.md`).
///
/// On by default: recording is lock-free relaxed atomics into
/// preallocated cells, so the warm close stays allocation-free (pinned
/// by `crates/core/tests/close_allocs.rs`) and close throughput stays
/// within 3% of telemetry-off (asserted by `perf_close --test`). Off
/// mode hands every layer no-op handles whose record path is a single
/// predictable branch — and the timing views in
/// [`crate::stages::EngineMetrics`] then read zero. Like every other
/// execution knob, telemetry is invisible in results: rankings are
/// byte-identical on or off (pinned by `tests/stage_parity.rs`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelemetryConfig {
    /// Master switch for metric recording and the event journal.
    pub enabled: bool,
    /// Events retained by the in-memory journal ring (oldest are
    /// overwritten and counted as dropped beyond this).
    pub journal_capacity: usize,
    /// Dump the Prometheus text export and journal JSONL every this
    /// many closed ticks; `0` disables periodic dumps.
    pub dump_every_ticks: u64,
    /// Directory receiving `metrics.prom`, `metrics.jsonl` and
    /// `journal.jsonl` (overwritten per dump; created on first write).
    /// Must be non-empty when `dump_every_ticks` is set.
    pub dump_directory: String,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: true,
            journal_capacity: 1024,
            dump_every_ticks: 0,
            dump_directory: String::new(),
        }
    }
}

impl TelemetryConfig {
    /// The disabled policy: no recording, no journal, no dumps.
    pub fn off() -> Self {
        TelemetryConfig { enabled: false, ..TelemetryConfig::default() }
    }

    /// Enabled recording plus a periodic export dump every
    /// `interval_ticks` closed ticks into `directory`.
    pub fn dump_every(interval_ticks: u64, directory: impl Into<String>) -> Self {
        TelemetryConfig {
            dump_every_ticks: interval_ticks,
            dump_directory: directory.into(),
            ..TelemetryConfig::default()
        }
    }

    /// Whether periodic export dumps are on.
    pub fn dumps_enabled(&self) -> bool {
        self.enabled && self.dump_every_ticks > 0
    }
}

/// Event-time ingestion policy: out-of-order arrivals with a bounded
/// lateness watermark (see `docs/EVENT_TIME.md` and
/// [`enblogue_ingest::reorder`]).
///
/// Off by default — the engine then requires timestamp-sorted feeds
/// exactly as before, byte-identical to every prior release (pinned by
/// `tests/stage_parity.rs`). When enabled, the replay/ingest surfaces
/// route documents through a [`enblogue_ingest::ReorderBuffer`]: a tick
/// closes only once the arrival-driven low watermark
/// (`max event tick seen − bounded_lateness`) passes it, late arrivals
/// are re-sequenced into their true event tick, and anything later than
/// the bound is dropped with full accounting
/// ([`crate::stages::EngineCounters::docs_late_dropped`], the
/// `ingest.late_drops` counter, and `late_drop` journal events). The
/// layer is **invisible on clean input**: an already-sorted stream
/// produces byte-identical rankings with it on or off. Buffer state
/// (pending documents included) rides through [`crate::snapshot`], so
/// crash recovery stays exact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventTimeConfig {
    /// Master switch for the reordering buffer.
    pub enabled: bool,
    /// How many ticks an arrival may lag the maximum event tick seen and
    /// still be folded into its true tick; later documents drop. `0`
    /// means "arrival order must already respect tick order" (stragglers
    /// within the newest tick are still fine).
    pub bounded_lateness: u64,
    /// Hard cap on documents held by the buffer (memory bound for
    /// streams whose watermark stalls); excess arrivals drop into
    /// [`crate::stages::EngineCounters::docs_buffer_overflow`]. Must be
    /// positive when enabled.
    pub max_buffered_docs: usize,
}

impl Default for EventTimeConfig {
    fn default() -> Self {
        EventTimeConfig { enabled: false, bounded_lateness: 2, max_buffered_docs: 1_000_000 }
    }
}

impl EventTimeConfig {
    /// The disabled policy (feeds must be timestamp-sorted).
    pub fn disabled() -> Self {
        EventTimeConfig::default()
    }

    /// Enabled with the given lateness bound (in ticks) and the default
    /// buffer cap.
    pub fn bounded(bounded_lateness: u64) -> Self {
        EventTimeConfig { enabled: true, bounded_lateness, ..EventTimeConfig::default() }
    }
}

/// Source-guard policy: exact-duplicate rejection and per-source flood
/// caps in front of the seed/pair stages (see
/// [`enblogue_ingest::guard`] and `docs/EVENT_TIME.md`).
///
/// Off by default and byte-identical to prior behavior when off. When
/// enabled, every document entering the stages is judged once: an
/// exact-duplicate `(source, doc)` observation within
/// `dedup_window_ticks` is rejected, then the source's token bucket
/// (capacity `rate_burst`, refilled `rate_limit_per_tick` tokens per
/// event tick) must cover it — so a flooding or replaying source
/// degrades alone instead of hijacking the shift scores. On a
/// duplicate-free stream whose per-source rate stays under the cap the
/// guard admits everything and rankings are byte-identical to guard-off
/// (pinned by `tests/stage_parity.rs`). Guard state rides through
/// [`crate::snapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SourceGuardConfig {
    /// Master switch for both checks.
    pub enabled: bool,
    /// Reject an admitted `(source, doc)` key re-observed within this
    /// many ticks; `0` disables deduplication.
    pub dedup_window_ticks: u64,
    /// Tokens refilled per event tick and spent one per admitted
    /// document; `0.0` disables the rate cap. Must be finite and ≥ 0.
    pub rate_limit_per_tick: f64,
    /// Bucket capacity (burst allowance) new sources start with; `0.0`
    /// means "same as `rate_limit_per_tick`". Must be finite and ≥ 0.
    pub rate_burst: f64,
}

impl Default for SourceGuardConfig {
    fn default() -> Self {
        SourceGuardConfig {
            enabled: false,
            dedup_window_ticks: 24,
            rate_limit_per_tick: 0.0,
            rate_burst: 0.0,
        }
    }
}

impl SourceGuardConfig {
    /// The disabled policy (every document is admitted).
    pub fn disabled() -> Self {
        SourceGuardConfig::default()
    }

    /// The effective bucket capacity: `rate_burst`, falling back to one
    /// tick's refill when unset.
    pub fn effective_burst(&self) -> f64 {
        if self.rate_burst > 0.0 {
            self.rate_burst
        } else {
            self.rate_limit_per_tick
        }
    }
}

/// Full engine configuration. Build with [`EnBlogueConfig::builder`].
///
/// Two kinds of knobs live here. *Semantic* knobs (tick width, window
/// length, seed selection, correlation measure, predictor, half-life,
/// `k`, support thresholds, the tracked-pair cap) change what the engine
/// computes. *Execution* knobs (`shards`, `ingest_workers`,
/// `scoring_mode`) only change how the work is laid out — rankings are
/// byte-identical for any setting of them, and their defaults derive
/// from the machine's available parallelism.
///
/// # Example
///
/// ```
/// use enblogue_core::config::EnBlogueConfig;
/// use enblogue_types::TickSpec;
///
/// let config = EnBlogueConfig::builder()
///     .tick_spec(TickSpec::hourly())
///     .window_ticks(8)
///     .top_k(5)
///     .build()
///     .expect("validated");
/// assert_eq!(config.k, 5);
/// assert!(config.shards >= 1, "execution defaults follow the hardware");
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EnBlogueConfig {
    /// Tick width (stream-time discretisation).
    pub tick_spec: TickSpec,
    /// Correlation window length in ticks.
    pub window_ticks: usize,
    /// Number of seed tags selected per tick.
    pub seed_count: usize,
    /// Seed selection strategy.
    pub seed_strategy: SeedStrategy,
    /// Minimum windowed count for a tag to qualify as seed.
    pub min_seed_count: u64,
    /// Correlation measure.
    pub measure: MeasureKind,
    /// Shift predictor.
    pub predictor: PredictorKind,
    /// Prediction-error normalisation.
    pub normalization: ErrorNormalization,
    /// Score half-life in milliseconds (paper: ≈ 2 days).
    pub half_life_ms: u64,
    /// Ranking depth (top-k emergent topics reported).
    pub k: usize,
    /// Minimum windowed co-occurrence count to keep tracking a pair.
    pub min_pair_support: u64,
    /// Merge entity annotations into the tag space ("tag/entity mixtures
    /// as emergent topics", §3).
    pub use_entities: bool,
    /// Hard cap on concurrently tracked pairs (memory bound); the lowest-
    /// scored pairs are evicted beyond it.
    pub max_tracked_pairs: usize,
    /// Shard-store pool size of the pair registry: a pair key lives in
    /// store [`enblogue_types::shard_of_packed`]`(key, shards)`. Sharding
    /// is pure state partitioning — rankings are identical for any pool
    /// size — but with more than one store the apply and the tick close
    /// fan out one worker per store once the work is large enough (see
    /// [`crate::pairs::SERIAL_CLOSE_MAX_PAIRS`]), and per-store maps stay
    /// smaller. 1 = the classic single-map registry.
    pub shards: usize,
    /// Partitioning worker threads for batched ingestion
    /// (`enblogue-ingest`). Results are identical for any count; this only
    /// sets the default pool size of ingestion pipelines driven off this
    /// engine.
    pub ingest_workers: usize,
    /// Periodic checkpointing of the full engine state for failover (see
    /// [`crate::snapshot`]). Off by default; also a pure execution knob —
    /// rankings are byte-identical with any policy.
    pub snapshot: SnapshotConfig,
    /// Close-scoring execution path: lane-tiled batch kernels (the
    /// default) or the per-pair scalar reference walk. Another pure
    /// execution knob — rankings are byte-identical in either mode
    /// (pinned by `tests/stage_parity.rs`).
    pub scoring_mode: ScoringMode,
    /// Observability policy: lock-free metrics, latency histograms, the
    /// event journal, and periodic export dumps (see
    /// [`crate::engine::EnBlogueEngine::telemetry`]). On by default and,
    /// like every execution knob, invisible in rankings.
    pub telemetry: TelemetryConfig,
    /// Out-of-order event-time ingestion with a bounded-lateness
    /// watermark. Off by default; invisible on clean (already-sorted)
    /// input when on.
    pub event_time: EventTimeConfig,
    /// Per-source dedup window and token-bucket flood caps. Off by
    /// default; invisible on duplicate-free, under-rate input when on.
    pub source_guard: SourceGuardConfig,
}

impl Default for EnBlogueConfig {
    fn default() -> Self {
        EnBlogueConfig {
            tick_spec: TickSpec::hourly(),
            window_ticks: 24,
            seed_count: 50,
            seed_strategy: SeedStrategy::Popularity,
            min_seed_count: 3,
            measure: MeasureKind::default(),
            predictor: PredictorKind::default(),
            normalization: ErrorNormalization::Absolute,
            half_life_ms: 2 * Timestamp::DAY,
            k: 10,
            min_pair_support: 2,
            use_entities: true,
            max_tracked_pairs: 100_000,
            // Execution defaults are derived from the machine rather than
            // hard-coded: the `benches/tick_close.rs` rows show
            // shard-parallel close winning from 2 cores up, and sharding
            // is a pure execution knob (rankings identical for any pool,
            // pinned by tests/stage_parity.rs), so the defaults can follow
            // the hardware. A 1-core box gets one store and so never fans
            // out. Shards are capped at 16 — beyond the benched range the
            // per-shard maps get too small to amortise fan-out.
            shards: default_parallelism().min(16),
            ingest_workers: default_parallelism(),
            snapshot: SnapshotConfig::default(),
            scoring_mode: ScoringMode::default(),
            telemetry: TelemetryConfig::default(),
            event_time: EventTimeConfig::default(),
            source_guard: SourceGuardConfig::default(),
        }
    }
}

impl EnBlogueConfig {
    /// Starts a builder from the defaults.
    pub fn builder() -> EnBlogueConfigBuilder {
        EnBlogueConfigBuilder { config: EnBlogueConfig::default() }
    }

    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<(), EnBlogueError> {
        if self.window_ticks < 2 {
            return Err(EnBlogueError::invalid_config(
                "window_ticks",
                "the correlation window must span at least 2 ticks",
            ));
        }
        if self.seed_count == 0 {
            return Err(EnBlogueError::invalid_config(
                "seed_count",
                "must select at least one seed",
            ));
        }
        if self.k == 0 {
            return Err(EnBlogueError::invalid_config("k", "top-k must be positive"));
        }
        if self.half_life_ms == 0 {
            return Err(EnBlogueError::invalid_config(
                "half_life_ms",
                "half-life must be positive",
            ));
        }
        if self.max_tracked_pairs == 0 {
            return Err(EnBlogueError::invalid_config(
                "max_tracked_pairs",
                "pair cap must be positive",
            ));
        }
        if self.shards == 0 {
            return Err(EnBlogueError::invalid_config(
                "shards",
                "at least one pair shard is required",
            ));
        }
        if self.ingest_workers == 0 {
            return Err(EnBlogueError::invalid_config(
                "ingest_workers",
                "at least one ingest worker is required",
            ));
        }
        if self.snapshot.enabled() && self.snapshot.directory.is_empty() {
            return Err(EnBlogueError::invalid_config(
                "snapshot.directory",
                "periodic checkpointing needs a target directory",
            ));
        }
        if self.telemetry.dump_every_ticks > 0 && self.telemetry.dump_directory.is_empty() {
            return Err(EnBlogueError::invalid_config(
                "telemetry.dump_directory",
                "periodic telemetry dumps need a target directory",
            ));
        }
        if self.snapshot.retention == 0 {
            return Err(EnBlogueError::invalid_config(
                "snapshot.retention",
                "at least the newest checkpoint must be retained",
            ));
        }
        if self.event_time.enabled && self.event_time.max_buffered_docs == 0 {
            return Err(EnBlogueError::invalid_config(
                "event_time.max_buffered_docs",
                "the reordering buffer needs room for at least one document",
            ));
        }
        if !(self.source_guard.rate_limit_per_tick.is_finite()
            && self.source_guard.rate_limit_per_tick >= 0.0)
        {
            return Err(EnBlogueError::invalid_config(
                "source_guard.rate_limit_per_tick",
                "the per-tick refill must be a finite non-negative number",
            ));
        }
        if !(self.source_guard.rate_burst.is_finite() && self.source_guard.rate_burst >= 0.0) {
            return Err(EnBlogueError::invalid_config(
                "source_guard.rate_burst",
                "the burst capacity must be a finite non-negative number",
            ));
        }
        if self.source_guard.enabled
            && self.source_guard.rate_limit_per_tick > 0.0
            && self.source_guard.effective_burst() < 1.0
        {
            return Err(EnBlogueError::invalid_config(
                "source_guard.rate_burst",
                "with the rate cap on, the bucket must hold at least one token",
            ));
        }
        if let SeedStrategy::Hybrid { popularity_weight } = self.seed_strategy {
            if !(0.0..=1.0).contains(&popularity_weight) {
                return Err(EnBlogueError::invalid_config(
                    "seed_strategy",
                    "hybrid popularity weight must be in [0, 1]",
                ));
            }
        }
        if let SeedStrategy::SketchPopularity { capacity } = self.seed_strategy {
            if capacity < self.seed_count {
                return Err(EnBlogueError::invalid_config(
                    "seed_strategy",
                    "sketch capacity must be at least seed_count",
                ));
            }
        }
        Ok(())
    }

    /// The correlation window expressed in milliseconds of stream time.
    pub fn window_ms(&self) -> u64 {
        self.window_ticks as u64 * self.tick_spec.width_ms()
    }
}

/// Builder for [`EnBlogueConfig`].
#[derive(Debug, Clone)]
pub struct EnBlogueConfigBuilder {
    config: EnBlogueConfig,
}

impl EnBlogueConfigBuilder {
    /// Sets the tick width.
    #[must_use]
    pub fn tick_spec(mut self, spec: TickSpec) -> Self {
        self.config.tick_spec = spec;
        self
    }

    /// Sets the correlation window length in ticks.
    #[must_use]
    pub fn window_ticks(mut self, ticks: usize) -> Self {
        self.config.window_ticks = ticks;
        self
    }

    /// Sets the number of seeds.
    #[must_use]
    pub fn seed_count(mut self, s: usize) -> Self {
        self.config.seed_count = s;
        self
    }

    /// Sets the seed strategy.
    #[must_use]
    pub fn seed_strategy(mut self, strategy: SeedStrategy) -> Self {
        self.config.seed_strategy = strategy;
        self
    }

    /// Sets the minimum windowed count for seeds.
    #[must_use]
    pub fn min_seed_count(mut self, count: u64) -> Self {
        self.config.min_seed_count = count;
        self
    }

    /// Sets the correlation measure.
    #[must_use]
    pub fn measure(mut self, measure: MeasureKind) -> Self {
        self.config.measure = measure;
        self
    }

    /// Sets the shift predictor.
    #[must_use]
    pub fn predictor(mut self, predictor: PredictorKind) -> Self {
        self.config.predictor = predictor;
        self
    }

    /// Sets the error normalisation.
    #[must_use]
    pub fn normalization(mut self, normalization: ErrorNormalization) -> Self {
        self.config.normalization = normalization;
        self
    }

    /// Sets the score half-life.
    #[must_use]
    pub fn half_life_ms(mut self, ms: u64) -> Self {
        self.config.half_life_ms = ms;
        self
    }

    /// Sets the ranking depth k.
    #[must_use]
    pub fn top_k(mut self, k: usize) -> Self {
        self.config.k = k;
        self
    }

    /// Sets the minimum pair support.
    #[must_use]
    pub fn min_pair_support(mut self, support: u64) -> Self {
        self.config.min_pair_support = support;
        self
    }

    /// Enables/disables entity merging.
    #[must_use]
    pub fn use_entities(mut self, yes: bool) -> Self {
        self.config.use_entities = yes;
        self
    }

    /// Sets the tracked-pair cap.
    #[must_use]
    pub fn max_tracked_pairs(mut self, cap: usize) -> Self {
        self.config.max_tracked_pairs = cap;
        self
    }

    /// Sets the number of pair-state hash shards.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
        self
    }

    /// Sets the ingestion partitioning worker count.
    #[must_use]
    pub fn ingest_workers(mut self, workers: usize) -> Self {
        self.config.ingest_workers = workers;
        self
    }

    /// Sets the close-scoring execution path.
    #[must_use]
    pub fn scoring_mode(mut self, mode: ScoringMode) -> Self {
        self.config.scoring_mode = mode;
        self
    }

    /// Sets the full checkpointing policy.
    #[must_use]
    pub fn snapshot(mut self, snapshot: SnapshotConfig) -> Self {
        self.config.snapshot = snapshot;
        self
    }

    /// Checkpoint every `interval_ticks` closed ticks into `directory`
    /// (shorthand for [`SnapshotConfig::every`]).
    #[must_use]
    pub fn snapshot_every(mut self, interval_ticks: u64, directory: impl Into<String>) -> Self {
        self.config.snapshot = SnapshotConfig::every(interval_ticks, directory);
        self
    }

    /// Sets the full telemetry policy.
    #[must_use]
    pub fn telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.config.telemetry = telemetry;
        self
    }

    /// Enables/disables telemetry recording, keeping the policy's other
    /// knobs.
    #[must_use]
    pub fn telemetry_enabled(mut self, yes: bool) -> Self {
        self.config.telemetry.enabled = yes;
        self
    }

    /// Dump telemetry exports every `interval_ticks` closed ticks into
    /// `directory` (shorthand for [`TelemetryConfig::dump_every`]).
    #[must_use]
    pub fn telemetry_dump_every(
        mut self,
        interval_ticks: u64,
        directory: impl Into<String>,
    ) -> Self {
        self.config.telemetry = TelemetryConfig::dump_every(interval_ticks, directory);
        self
    }

    /// Sets the full event-time policy.
    #[must_use]
    pub fn event_time(mut self, event_time: EventTimeConfig) -> Self {
        self.config.event_time = event_time;
        self
    }

    /// Enables out-of-order ingestion with the given lateness bound in
    /// ticks (shorthand for [`EventTimeConfig::bounded`]).
    #[must_use]
    pub fn bounded_lateness(mut self, ticks: u64) -> Self {
        self.config.event_time = EventTimeConfig::bounded(ticks);
        self
    }

    /// Sets the full source-guard policy.
    #[must_use]
    pub fn source_guard(mut self, source_guard: SourceGuardConfig) -> Self {
        self.config.source_guard = source_guard;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<EnBlogueConfig, EnBlogueError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(EnBlogueConfig::default().validate().is_ok());
        assert_eq!(
            EnBlogueConfig::default().half_life_ms,
            2 * Timestamp::DAY,
            "paper's 2-day half-life"
        );
    }

    #[test]
    fn builder_round_trips() {
        let config = EnBlogueConfig::builder()
            .tick_spec(TickSpec::minutely())
            .window_ticks(30)
            .seed_count(20)
            .top_k(7)
            .min_pair_support(4)
            .use_entities(false)
            .build()
            .unwrap();
        assert_eq!(config.window_ticks, 30);
        assert_eq!(config.k, 7);
        assert_eq!(config.min_pair_support, 4);
        assert!(!config.use_entities);
        assert_eq!(config.window_ms(), 30 * Timestamp::MINUTE);
    }

    #[test]
    fn sharding_round_trips() {
        let config = EnBlogueConfig::builder()
            .shards(8)
            .ingest_workers(3)
            .scoring_mode(ScoringMode::Scalar)
            .build()
            .unwrap();
        assert_eq!(config.shards, 8);
        assert_eq!(config.ingest_workers, 3);
        assert_eq!(config.scoring_mode, ScoringMode::Scalar);
        assert_eq!(
            EnBlogueConfig::default().scoring_mode,
            ScoringMode::Batched,
            "batched scoring is the default"
        );
    }

    #[test]
    fn execution_defaults_follow_the_hardware() {
        let par = default_parallelism();
        let config = EnBlogueConfig::default();
        assert_eq!(config.shards, par.min(16), "shards picked from available parallelism");
        assert_eq!(config.shards > 1, par > 1, "only multi-core machines fan out by default");
        assert_eq!(config.ingest_workers, par);
        assert!(config.shards >= 1);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(EnBlogueConfig::builder().window_ticks(1).build().is_err());
        assert!(EnBlogueConfig::builder().seed_count(0).build().is_err());
        assert!(EnBlogueConfig::builder().top_k(0).build().is_err());
        assert!(EnBlogueConfig::builder().half_life_ms(0).build().is_err());
        assert!(EnBlogueConfig::builder().max_tracked_pairs(0).build().is_err());
        assert!(EnBlogueConfig::builder().shards(0).build().is_err());
        assert!(EnBlogueConfig::builder().ingest_workers(0).build().is_err());
        assert!(EnBlogueConfig::builder()
            .seed_strategy(SeedStrategy::Hybrid { popularity_weight: 1.5 })
            .build()
            .is_err());
        assert!(EnBlogueConfig::builder()
            .seed_count(50)
            .seed_strategy(SeedStrategy::SketchPopularity { capacity: 10 })
            .build()
            .is_err());
    }

    #[test]
    fn snapshot_config_round_trips_and_validates() {
        let config =
            EnBlogueConfig::builder().snapshot_every(50, "/var/lib/enblogue").build().unwrap();
        assert!(config.snapshot.enabled());
        assert_eq!(config.snapshot.interval_ticks, 50);
        assert_eq!(config.snapshot.directory, "/var/lib/enblogue");
        assert_eq!(config.snapshot.retention, 2, "default retention");
        assert!(!SnapshotConfig::disabled().enabled());

        // An interval without a directory is a configuration error.
        let err = EnBlogueConfig::builder()
            .snapshot(SnapshotConfig { interval_ticks: 5, directory: String::new(), retention: 2 })
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("snapshot.directory"));
        // Retaining zero checkpoints would delete the one just written.
        let err = EnBlogueConfig::builder()
            .snapshot(SnapshotConfig { interval_ticks: 5, directory: "x".into(), retention: 0 })
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("snapshot.retention"));
    }

    #[test]
    fn telemetry_config_round_trips_and_validates() {
        let config = EnBlogueConfig::default();
        assert!(config.telemetry.enabled, "telemetry records by default");
        assert_eq!(config.telemetry.dump_every_ticks, 0, "periodic dumps are opt-in");
        assert!(!TelemetryConfig::off().enabled);

        let config =
            EnBlogueConfig::builder().telemetry_dump_every(10, "/tmp/enblogue").build().unwrap();
        assert!(config.telemetry.dumps_enabled());
        assert_eq!(config.telemetry.dump_every_ticks, 10);
        assert_eq!(config.telemetry.dump_directory, "/tmp/enblogue");

        let off = EnBlogueConfig::builder().telemetry_enabled(false).build().unwrap();
        assert!(!off.telemetry.enabled);
        assert!(!off.telemetry.dumps_enabled());

        // A dump interval without a directory is a configuration error.
        let err = EnBlogueConfig::builder()
            .telemetry(TelemetryConfig { dump_every_ticks: 5, ..TelemetryConfig::default() })
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("telemetry.dump_directory"));
    }

    #[test]
    fn event_time_and_guard_default_off_and_validate() {
        let config = EnBlogueConfig::default();
        assert!(!config.event_time.enabled, "event-time reordering is opt-in");
        assert!(!config.source_guard.enabled, "source guards are opt-in");

        let config = EnBlogueConfig::builder()
            .bounded_lateness(3)
            .source_guard(SourceGuardConfig {
                enabled: true,
                dedup_window_ticks: 12,
                rate_limit_per_tick: 50.0,
                rate_burst: 0.0,
            })
            .build()
            .unwrap();
        assert!(config.event_time.enabled);
        assert_eq!(config.event_time.bounded_lateness, 3);
        assert_eq!(config.source_guard.effective_burst(), 50.0, "burst falls back to the refill");

        let err = EnBlogueConfig::builder()
            .event_time(EventTimeConfig {
                enabled: true,
                bounded_lateness: 2,
                max_buffered_docs: 0,
            })
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("event_time.max_buffered_docs"));
        let err = EnBlogueConfig::builder()
            .source_guard(SourceGuardConfig {
                rate_limit_per_tick: f64::NAN,
                ..SourceGuardConfig::default()
            })
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("source_guard.rate_limit_per_tick"));
        let err = EnBlogueConfig::builder()
            .source_guard(SourceGuardConfig {
                enabled: true,
                dedup_window_ticks: 0,
                rate_limit_per_tick: 0.5,
                rate_burst: 0.0,
            })
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("source_guard.rate_burst"));
    }

    #[test]
    fn error_messages_name_the_parameter() {
        let err = EnBlogueConfig::builder().window_ticks(0).build().unwrap_err();
        assert!(err.to_string().contains("window_ticks"));
    }

    #[test]
    fn measure_kind_names() {
        assert_eq!(MeasureKind::default().name(), "jaccard");
        assert_eq!(MeasureKind::JsDivergence.name(), "jsd");
        assert_eq!(MeasureKind::Set(CorrelationMeasure::Cosine).name(), "cosine");
    }
}
