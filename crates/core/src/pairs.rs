//! Stages (ii) and (iii): candidate-pair tracking, correlation series and
//! decayed-max shift scores — hash-sharded for parallel tick close, with
//! load-aware dynamic rebalancing.
//!
//! "We use seed tags to generate candidate topics, i.e., pairs of tags that
//! contain at least one seed tag. … For each such pair, we continuously
//! monitor the amount of documents that are annotated with both tags."
//! (§3(i)–(ii))
//!
//! The registry splits per-pair state into a pool of hash shards (routing:
//! the versioned [`enblogue_types::RoutingTable`], storage:
//! [`enblogue_window::ShardedWindowedCounter`]). Every pair's state is
//! fully contained in its shard, so discovery, scoring and support-based
//! eviction fan out shard-parallel through the crate's `exec::fanout`
//! while the cap-based eviction and the final ranking merge stay global.
//!
//! Routing is *state*, not a pure function: keys hash onto a fixed slot
//! grid, slots map to shard stores, and a [`RebalanceConfig`]-driven
//! policy may re-target slots at tick close — growing or shrinking the
//! *active* store count with the tracked-pair population under the
//! `max_tracked_pairs` cap, and re-spreading hot slots when observed load
//! skews (real streams concentrate on few hot tags, which static hashing
//! cannot split apart once they land together). A migration pass moves
//! each re-targeted slot's pair states *and* windowed counts between
//! stores bit-for-bit. Rankings are **identical for any shard count,
//! routing table, or rebalance schedule** — sharding and rebalancing are
//! pure execution knobs, never semantic ones (pinned by
//! `tests/stage_parity.rs`).

use crate::exec::fanout;
use crate::query::ViewData;
use crate::slab::PairSlab;
pub use crate::slab::PairState;
use crate::snapshot::{corrupt, SnapReader, SnapWriter};
use enblogue_stats::predict::{HistoryTile, SeriesView, LANES};
use enblogue_stats::shift::ShiftScorer;
use enblogue_telemetry::{EventKind, Histogram, Journal, Telemetry};
use enblogue_types::{
    EnBlogueError, FxHashSet, RoutingTable, SharedRouting, TagId, TagPair, Tick, Timestamp,
    DEFAULT_SLOTS_PER_SHARD,
};
use enblogue_window::{
    DecayMemo, DecayValue, KeyWindow, RingBuffer, ShardedWindowedCounter, TopK, WindowedCounter,
};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Configuration of the load-aware shard rebalancer (see
/// [`ShardedPairRegistry::maybe_rebalance`]).
///
/// All knobs are *execution* knobs: rankings are byte-identical for any
/// setting. The policy runs tick-aligned (decisions only at tick close, on
/// deterministic load counters), so replays of the same stream make the
/// same rebalancing decisions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RebalanceConfig {
    /// Master switch. Disabled, the registry keeps the epoch-0 uniform
    /// table forever — exactly the classic static hash sharding.
    pub enabled: bool,
    /// Slots allocated per shard store — the migration granularity (a
    /// rebalance re-targets whole slots, never single keys).
    pub slots_per_shard: usize,
    /// Sizing target of the dynamic store count: the policy aims for
    /// `ceil(live_pairs / target_pairs_per_shard)` active stores (within
    /// `[min_active_shards, pool]`), so per-store maps stay small enough
    /// to be cache-resident while the pool absorbs growth under the
    /// tracked-pair cap.
    pub target_pairs_per_shard: usize,
    /// Load-skew trigger: rebalance when `max_store_load / mean_load`
    /// over the active stores reaches this ratio (≥ 1.0).
    pub min_skew: f64,
    /// Cap-pressure trigger: once `live_pairs ≥ cap_pressure ·
    /// max_tracked_pairs`, even mild skew (> [`CAP_PRESSURE_MIN_SKEW`])
    /// triggers — near the cap every store is at its densest and
    /// imbalance costs the most.
    pub cap_pressure: f64,
    /// Below this many live pairs the policy stays quiet (rebalancing a
    /// tiny registry is churn for nothing).
    pub min_tracked_pairs: usize,
    /// Minimum ticks between rebalance *attempts* (an attempt scans all
    /// pair keys to compute per-slot loads, so attempts are spaced even
    /// when they end up migrating nothing).
    pub cooldown_ticks: u64,
    /// Floor of the dynamic store count. `0` = resolve automatically:
    /// the whole pool when tick close fans out in parallel (shrinking
    /// would idle workers), `1` when close is serial (consolidation buys
    /// cache locality).
    pub min_active_shards: usize,
}

/// Which execution path the tick close uses to score tracked pairs.
///
/// A pure execution knob: the batched path runs the same per-pair
/// arithmetic in the same order as the scalar walk, just tiled
/// [`LANES`]-wide across pairs, so rankings are **byte-identical** in
/// either mode (pinned by `tests/stage_parity.rs` and the batch-equality
/// property suite in `enblogue-stats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ScoringMode {
    /// Lane-tiled batch kernels over gathered history tiles — the
    /// default; see [`ShardedPairRegistry::set_scoring`].
    #[default]
    Batched,
    /// The per-pair reference walk through `ShiftScorer::score_view`.
    Scalar,
}

impl ScoringMode {
    /// Short identifier for benchmark output.
    pub const fn name(self) -> &'static str {
        match self {
            ScoringMode::Batched => "batched",
            ScoringMode::Scalar => "scalar",
        }
    }
}

/// Below this many live pairs a requested parallel close runs serially.
///
/// Spawning per-store close workers costs more than the walk they would
/// parallelise on a small registry (the BENCH_close.json 1k-pair rows:
/// fanned-out closes ran ~30% *slower* than one store). The threshold is
/// deliberately coarse — at 4096 pairs a serial close is tens of
/// microseconds, far below a thread spawn's worth of work per store. A
/// pure execution knob: demotion changes scheduling, never results.
pub const SERIAL_CLOSE_MAX_PAIRS: usize = 4096;

/// Skew ratio above which the cap-pressure trigger fires (see
/// [`RebalanceConfig::cap_pressure`]).
pub const CAP_PRESSURE_MIN_SKEW: f64 = 1.05;

/// Relative weight of one tracked pair against one window observation in
/// the load model. A tracked pair costs a correlation + prediction +
/// decayed-max update every tick close; an observation costs two hash-map
/// operations at ingest. Measured on the `perf_rebalance` workload the
/// ratio is ≈ 2.7 (≈ 160 ns per pair update vs ≈ 60 ns per observation);
/// 3 is that measurement rounded, not a tuning surface.
pub const PAIR_LOAD_WEIGHT: u64 = 3;

/// Minimum relative improvement of the max store load a reassignment must
/// deliver to be adopted (5%): LPT from scratch rarely reproduces the
/// incumbent assignment exactly, and migrating for a sub-noise gain is
/// pure churn.
const MIN_IMPROVEMENT_NUM: u64 = 19;
const MIN_IMPROVEMENT_DEN: u64 = 20;

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            enabled: true,
            slots_per_shard: DEFAULT_SLOTS_PER_SHARD,
            target_pairs_per_shard: 8192,
            min_skew: 1.25,
            cap_pressure: 0.8,
            min_tracked_pairs: 4096,
            cooldown_ticks: 4,
            min_active_shards: 0,
        }
    }
}

impl RebalanceConfig {
    /// The disabled policy: classic static hash sharding.
    pub fn disabled() -> Self {
        RebalanceConfig { enabled: false, ..RebalanceConfig::default() }
    }

    /// Resolves the automatic `min_active_shards = 0` against the pool
    /// size and the host's close mode.
    pub fn resolved(mut self, pool: usize, parallel_close: bool) -> Self {
        if self.min_active_shards == 0 {
            self.min_active_shards = if parallel_close { pool } else { 1 };
        }
        self.min_active_shards = self.min_active_shards.min(pool);
        self
    }
}

/// Load and rebalancing metrics of a [`ShardedPairRegistry`].
#[derive(Debug, Clone, PartialEq)]
pub struct RegistryStats {
    /// Size of the shard-store pool.
    pub shards: usize,
    /// Stores the current routing epoch actually targets.
    pub active_shards: usize,
    /// Currently tracked pairs.
    pub tracked_pairs: usize,
    /// Live pairs per store (index = store).
    pub per_shard_pairs: Vec<usize>,
    /// Decayed window observations per store (index = store).
    pub per_shard_obs: Vec<u64>,
    /// `max / mean` of the per-store load (pairs weighted against
    /// observations) over the *active* stores; 1.0 = perfectly balanced.
    pub skew: f64,
    /// Version of the routing table (0 = the uniform table).
    pub routing_epoch: u64,
    /// Rebalances applied (migrations that actually moved ownership).
    pub rebalances: u64,
    /// Pair states moved between stores across all rebalances.
    pub migrated_pairs: u64,
    /// Pairs ever discovered.
    pub discovered: u64,
    /// Pairs ever evicted.
    pub evicted: u64,
    /// Capacity-growth events of the cap-eviction scratch, the one buffer
    /// the close grows on demand. Zero once warm: the steady-state tick
    /// close is allocation-free (pinned by `tests/close_allocs.rs` with a
    /// counting allocator).
    pub close_allocs: u64,
}

/// Summary of one ranked pair, enriched for reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackedPairInfo {
    /// The pair.
    pub pair: TagPair,
    /// Its current decayed score.
    pub score: f64,
    /// Newest correlation value.
    pub correlation: f64,
    /// Ticks under tracking.
    pub tracked_ticks: u64,
}

/// One hash shard of tracked-pair state.
///
/// A shard owns every tracked pair routed to it — slab-resident (see
/// [`crate::slab::PairSlab`]): keys, scores and support ticks in parallel
/// dense vectors, histories in one strided arena — plus the open-tick
/// co-occurrence candidates; its windowed co-occurrence counts live in the
/// registry's [`ShardedWindowedCounter`] under the same index.
pub struct PairShard {
    slab: PairSlab,
    /// Pairs that co-occurred in the open tick (discovery candidates).
    current: FxHashSet<u64>,
    /// Copy of the registry's scalar parameters (shards are handed to
    /// workers detached from the registry during fan-out).
    params: PairParams,
    /// Observations per routing slot (index = slot over the whole grid;
    /// only this store's slots accumulate). Decayed at each rebalance
    /// check so recent traffic dominates; the rebalancer's load signal.
    slot_obs: Vec<u64>,
    /// Reusable scratch of the batched close walk.
    tile: TileScratch,
    /// Close-walk latency histogram (`close.shard.ns{shard=i}`). Disabled
    /// until [`ShardedPairRegistry::attach_telemetry`] wires a live
    /// registry; lives on the shard so fan-out workers record into their
    /// own handle without sharing.
    close_ns: Histogram,
    discovered: u64,
    evicted: u64,
}

/// Per-shard scratch of the batched tick close (see
/// [`PairShard::close_batched`]): one [`LANES`]-wide tile of gathered
/// histories plus its per-lane metadata. Sized once at shard construction
/// — the lane buffer holds `history_len` full rows — and never grown, so
/// the steady-state close stays allocation-free (pinned by
/// `crates/core/tests/close_allocs.rs`).
struct TileScratch {
    /// Time-major gathered histories: lane `l`'s value at step `t` lives
    /// at `lanes[t * LANES + l]` (the layout `HistoryTile` reads).
    lanes: Vec<f64>,
    /// Slab slot of each lane.
    slots: [u32; LANES],
    /// Packed pair key of each lane.
    keys: [u64; LANES],
    /// Windowed co-occurrence count of each lane (bulk-fetched).
    counts: [u64; LANES],
    /// This tick's correlation value of each lane.
    corrs: [f64; LANES],
    /// Shift score of each lane (kernel output).
    scores: [f64; LANES],
    /// Decay-factor memo shared across a close's score updates: every
    /// live pair was last updated at the previous close, so all updates
    /// share one elapsed time — and one `exp` — per close.
    memo: DecayMemo,
}

impl TileScratch {
    fn new(history_len: usize) -> Self {
        TileScratch {
            lanes: vec![0.0; history_len * LANES],
            slots: [0; LANES],
            keys: [0; LANES],
            counts: [0; LANES],
            corrs: [0.0; LANES],
            scores: [0.0; LANES],
            memo: DecayMemo::new(),
        }
    }
}

impl PairShard {
    fn new(params: PairParams) -> Self {
        PairShard {
            slab: PairSlab::new(params.history_len),
            current: FxHashSet::default(),
            slot_obs: vec![0; if params.track_load { params.slots } else { 0 }],
            tile: TileScratch::new(params.history_len),
            close_ns: Histogram::disabled(),
            params,
            discovered: 0,
            evicted: 0,
        }
    }

    /// Records observation pressure on `slot` (no-op when load tracking
    /// is off — the counters only exist for the rebalancer).
    #[inline]
    fn note_observation(&mut self, slot: usize) {
        if self.params.track_load {
            self.slot_obs[slot] += 1;
        }
    }

    fn discover(&mut self, packed: u64, tick: Tick, backfill_zeros: usize) {
        if self.slab.insert_fresh(packed, tick, backfill_zeros, self.params.half_life_ms) {
            self.discovered += 1;
        }
    }

    /// The scoring update of one slab slot at tick close: the scorer reads
    /// the history ring **in place** (no per-pair copy), then the new
    /// correlation is pushed into the ring.
    fn update_slot(
        &mut self,
        slot: usize,
        correlation: f64,
        support: u64,
        tick: Tick,
        now: Timestamp,
        scorer: &ShiftScorer,
    ) -> f64 {
        // Scoring is gated on window support: measures like overlap or NPMI
        // saturate to 1.0 on a single co-occurrence of two rare tags, and
        // without the gate such one-off pairs would flood the ranking.
        // (The correlation still enters the history, so the pair's series
        // stays tick-aligned either way.)
        let shift = if support >= self.params.min_pair_support {
            let (older, newer) = self.slab.history_parts(slot);
            scorer
                .score_view(SeriesView::new(older, newer), correlation)
                .map(|(s, _)| s)
                .unwrap_or(0.0)
        } else {
            0.0
        };
        let score = self.slab.score_mut(slot).observe_max(now, shift);
        self.slab.push_history(slot, correlation);
        if support >= self.params.min_pair_support {
            self.slab.set_last_support(slot, tick);
        }
        score
    }

    fn update_pair(
        &mut self,
        packed: u64,
        correlation: f64,
        support: u64,
        tick: Tick,
        now: Timestamp,
        scorer: &ShiftScorer,
    ) -> f64 {
        let slot = self.slab.slot_of(packed).expect("update_pair on untracked pair");
        self.update_slot(slot, correlation, support, tick, now, scorer)
    }

    /// The batched tick-close walk: groups consecutive live slots into
    /// [`LANES`]-wide tiles of equal history length, gathers each tile's
    /// ring-resident histories into one rotation-normalised time-major
    /// buffer (one linear copy per lane), bulk-fetches the tile's
    /// windowed actuals, and scores all lanes through the lane-parallel
    /// kernels of `ShiftScorer::score_batch` — writing results straight
    /// back into the slab's dense score column.
    ///
    /// Bit-identical to running [`PairShard::update_slot`] over every live
    /// slot: tiles group pairs but never mix their arithmetic
    /// (each lane runs the scalar operation order; the support gate, the
    /// noise floor and the decayed-max update are applied per lane
    /// exactly as the scalar path applies them per pair). Tiling is an
    /// execution detail, invisible in rankings.
    fn close_batched<C>(
        &mut self,
        counter: &WindowedCounter<u64>,
        tick: Tick,
        now: Timestamp,
        scorer: &ShiftScorer,
        correlate: &C,
    ) where
        C: Fn(TagPair, u64) -> f64 + Sync,
    {
        let PairShard { slab, tile, params, .. } = self;
        let bound = slab.slot_bound();
        let mut slot = 0;
        while slot < bound {
            // Fill: consecutive live slots sharing one history length (the
            // time-major kernels need one uniform loop bound, and in steady
            // state every ring is full, so tiles run wide). The walk is in
            // slot order, so every column and the history arena stream
            // front to back.
            let mut width = 0;
            let mut len = 0usize;
            while width < LANES && slot < bound {
                if !slab.is_live(slot) {
                    slot += 1;
                    continue;
                }
                let hist_len = slab.history_count(slot);
                if width == 0 {
                    len = hist_len;
                } else if hist_len != len {
                    break;
                }
                tile.slots[width] = slot as u32;
                tile.keys[width] = slab.key_at(slot);
                // Rotation-normalised gather: the ring's two runs land
                // oldest → newest in the lane, so kernels never see the
                // split point.
                let (older, newer) = slab.history_parts(slot);
                for (t, &v) in older.iter().chain(newer.iter()).enumerate() {
                    tile.lanes[t * LANES + width] = v;
                }
                width += 1;
                slot += 1;
            }
            if width == 0 {
                break; // only dead slots were left
            }
            // One bulk probe for the tile's windowed actuals, then the
            // correlation values derived from them.
            counter.counts_for_keys(&tile.keys[..width], &mut tile.counts[..width]);
            for l in 0..width {
                tile.corrs[l] = correlate(TagPair::from_packed(tile.keys[l]), tile.counts[l]);
            }
            // Unused lanes keep stale (finite) history values; their
            // kernel outputs are computed and discarded. Zeroing the
            // actuals keeps the discarded arithmetic finite too.
            for l in width..LANES {
                tile.corrs[l] = 0.0;
            }
            let history = HistoryTile::new(&tile.lanes[..len * LANES], len);
            let scored = scorer.score_batch(history, &tile.corrs, &mut tile.scores);
            for l in 0..width {
                let slot = tile.slots[l] as usize;
                // The same support gate as the scalar walk: unsupported
                // pairs get a zero shift but still push their correlation
                // so the series stays tick-aligned.
                let supported = tile.counts[l] >= params.min_pair_support;
                let shift = if supported && scored { tile.scores[l] } else { 0.0 };
                slab.score_mut(slot).observe_max_memo(now, shift, &mut tile.memo);
                slab.push_history(slot, tile.corrs[l]);
                if supported {
                    slab.set_last_support(slot, tick);
                }
            }
        }
    }
}

/// Scalar tracking parameters shared by all shards.
#[derive(Debug, Clone, Copy)]
struct PairParams {
    history_len: usize,
    half_life_ms: u64,
    min_pair_support: u64,
    max_tracked_pairs: usize,
    /// Slot-grid size of the routing table (for per-slot load counters).
    slots: usize,
    /// Whether shards maintain per-slot observation counters (only when a
    /// rebalancer is attached).
    track_load: bool,
    /// Close-scoring execution path (see [`ScoringMode`]).
    scoring: ScoringMode,
}

/// The candidate-pair registry: discovery, scoring, eviction, ranking —
/// over a pool of hash shards behind a versioned routing table, with an
/// optional load-aware rebalancer.
pub struct ShardedPairRegistry {
    shards: Vec<PairShard>,
    /// Windowed per-pair co-occurrence counts, sharded alongside `shards`.
    counts: ShardedWindowedCounter<u64>,
    params: PairParams,
    /// The rebalance policy ([`RebalanceConfig::disabled`] = static).
    rebalance: RebalanceConfig,
    /// The live routing handle shared with partitioning workers.
    routing: SharedRouting,
    /// Cached snapshot of the current epoch — the registry is the only
    /// publisher, so this is always the handle's latest table and every
    /// routed access skips the lock.
    table: Arc<RoutingTable>,
    /// Tick of the last rebalance attempt (cooldown anchor).
    last_attempt: Option<Tick>,
    rebalances: u64,
    migrated_pairs: u64,
    /// Reusable `(score, key)` buffer of the cap-eviction pass (retained
    /// across closes so a cap-bound steady state allocates nothing).
    cap_scratch: Vec<(f64, u64)>,
    /// Capacity-growth events of `cap_scratch`.
    close_allocs: u64,
    /// Operational event journal (evictions, rebalances). Disabled until
    /// [`ShardedPairRegistry::attach_telemetry`].
    journal: Journal,
}

impl ShardedPairRegistry {
    /// A statically sharded registry (`shards` stores, uniform routing,
    /// no rebalancer) whose correlation histories hold `history_len`
    /// ticks.
    ///
    /// # Panics
    /// Panics if `shards` is zero or `history_len < 2` (predictors need at
    /// least two history slots).
    pub fn new(
        shards: usize,
        history_len: usize,
        half_life_ms: u64,
        min_pair_support: u64,
        max_tracked_pairs: usize,
    ) -> Self {
        ShardedPairRegistry::with_rebalance(
            shards,
            history_len,
            half_life_ms,
            min_pair_support,
            max_tracked_pairs,
            RebalanceConfig::disabled(),
        )
    }

    /// [`ShardedPairRegistry::new`] with a rebalance policy attached. The
    /// pool holds `shards` stores; with rebalancing enabled the policy
    /// decides how many of them the routing table actually targets.
    ///
    /// An automatic `min_active_shards` of 0 resolves to the *serial*
    /// floor of 1 here — the registry cannot know how the host closes
    /// ticks. Hosts that fan the close out in parallel should pre-resolve
    /// the policy with [`RebalanceConfig::resolved`] (the engine's
    /// `PipelineState` does, against its `parallel_close` setting), or
    /// the policy may consolidate stores under their workers.
    ///
    /// # Panics
    /// Panics if `shards` is zero, `history_len < 2`, or the policy's
    /// `slots_per_shard` is zero.
    pub fn with_rebalance(
        shards: usize,
        history_len: usize,
        half_life_ms: u64,
        min_pair_support: u64,
        max_tracked_pairs: usize,
        rebalance: RebalanceConfig,
    ) -> Self {
        assert!(shards > 0, "shard count must be positive");
        assert!(history_len >= 2, "predictors need at least two history slots");
        assert!(rebalance.slots_per_shard > 0, "need at least one slot per shard");
        let rebalance = rebalance.resolved(shards, false);
        let table = RoutingTable::uniform(shards, shards * rebalance.slots_per_shard);
        let params = PairParams {
            history_len,
            half_life_ms,
            min_pair_support,
            max_tracked_pairs,
            slots: table.slot_count(),
            // A 1-store pool can never rebalance, so don't pay the
            // per-observation accounting there (the policy early-returns
            // before ever reading or decaying the counters).
            track_load: rebalance.enabled && shards > 1,
            scoring: ScoringMode::default(),
        };
        ShardedPairRegistry {
            shards: (0..shards).map(|_| PairShard::new(params)).collect(),
            counts: ShardedWindowedCounter::new(shards, history_len),
            params,
            rebalance,
            routing: SharedRouting::new(table.clone()),
            table: Arc::new(table),
            last_attempt: None,
            rebalances: 0,
            migrated_pairs: 0,
            cap_scratch: Vec::new(),
            close_allocs: 0,
            journal: Journal::disabled(),
        }
    }

    /// Wires the registry into a [`Telemetry`] hub: registers one
    /// `close.shard.ns{shard=i}` latency histogram per pool store (the
    /// per-shard close-walk timing recorded inside
    /// [`ShardedPairRegistry::score_all`]'s fan-out workers) and adopts
    /// the hub's event journal for eviction and rebalance events.
    ///
    /// Cold-path only — all handles are resolved here, once; the close
    /// path records through them without locks or allocation. Attaching a
    /// disabled hub yields inert handles, so the call is always safe.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        for (index, shard) in self.shards.iter_mut().enumerate() {
            shard.close_ns =
                telemetry.registry().histogram_labeled("close.shard.ns", "shard", index);
        }
        self.journal = telemetry.journal().clone();
    }

    /// Number of shard stores in the pool.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Selects the close-scoring execution path (constructors default to
    /// [`ScoringMode::Batched`]). A pure execution knob — rankings are
    /// byte-identical in either mode — so it can be flipped at any point,
    /// even between closes.
    pub fn set_scoring(&mut self, mode: ScoringMode) {
        self.params.scoring = mode;
        for shard in &mut self.shards {
            shard.params.scoring = mode;
        }
    }

    /// The active close-scoring mode.
    pub fn scoring(&self) -> ScoringMode {
        self.params.scoring
    }

    /// The live routing handle (hand this to partitioning workers; they
    /// snapshot it per batch and see every published rebalance).
    pub fn routing_handle(&self) -> SharedRouting {
        self.routing.clone()
    }

    /// The current routing epoch (see
    /// [`enblogue_ingest::partition::PartitionedBatch::routing_epoch`]).
    pub fn routing_epoch(&self) -> u64 {
        self.table.epoch()
    }

    #[inline]
    fn route(&self, packed: u64) -> usize {
        self.table.route(packed)
    }

    /// Number of currently tracked pairs.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.slab.len()).sum()
    }

    /// Whether no pair is tracked.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.slab.is_empty())
    }

    /// Whether `pair` is currently tracked.
    pub fn is_tracked(&self, pair: TagPair) -> bool {
        let packed = pair.packed();
        self.shards[self.route(packed)].slab.contains(packed)
    }

    /// Total pairs ever discovered (metrics).
    pub fn discovered_total(&self) -> u64 {
        self.shards.iter().map(|s| s.discovered).sum()
    }

    /// Total pairs evicted (metrics).
    pub fn evicted_total(&self) -> u64 {
        self.shards.iter().map(|s| s.evicted).sum()
    }

    /// Records one co-occurrence of `packed` in the open tick: counts it
    /// into the pair's windowed series and marks it a discovery candidate.
    pub fn observe_pair(&mut self, tick: Tick, packed: u64) {
        let slot = self.table.slot_of(packed);
        let shard = self.table.shard_of_slot(slot);
        self.counts.increment(shard, tick, packed);
        self.shards[shard].current.insert(packed);
        self.shards[shard].note_observation(slot);
    }

    /// Applies a shard-partitioned batch of co-occurrence observations,
    /// fanning out one scoped worker per shard when `parallel` is set.
    ///
    /// `buckets[i]` must hold exactly the observations routed to shard `i`
    /// (see `enblogue_ingest::partition`), in stream order — then each
    /// worker performs the same writes, in the same order, that a
    /// sequential [`ShardedPairRegistry::observe_pair`] loop would have
    /// sent to its shard, so results are identical in either mode.
    ///
    /// # Panics
    /// Panics if `buckets` does not match the shard count.
    pub fn ingest_partitioned(&mut self, buckets: &[Vec<(Tick, u64)>], parallel: bool) {
        /// One shard's slice of an ingest fan-out: its pair states, its
        /// windowed counter, and the observations routed to it.
        type ShardWork<'a> = (&'a mut PairShard, &'a mut WindowedCounter<u64>, &'a [(Tick, u64)]);
        assert_eq!(buckets.len(), self.shards.len(), "bucket count must match shard count");
        // Zip each pair shard with its windowed counter so one worker owns
        // both halves of a shard's state.
        let mut work: Vec<ShardWork<'_>> = self
            .shards
            .iter_mut()
            .zip(self.counts.shards_mut().iter_mut())
            .zip(buckets.iter())
            .map(|((shard, counter), bucket)| (shard, counter, bucket.as_slice()))
            .collect();
        let table = &self.table;
        fanout(&mut work, parallel, |_, (shard, counter, bucket)| {
            let track = shard.params.track_load;
            for &(tick, packed) in bucket.iter() {
                counter.increment(tick, packed);
                shard.current.insert(packed);
                if track {
                    shard.slot_obs[table.slot_of(packed)] += 1;
                }
            }
        });
    }

    /// The windowed co-occurrence count of `pair`.
    pub fn pair_count(&self, pair: TagPair) -> u64 {
        let packed = pair.packed();
        self.counts.count(self.route(packed), packed)
    }

    /// Aligns every shard's count window to the closing `tick` (gap ticks
    /// expire data).
    pub fn advance_to(&mut self, tick: Tick) {
        self.counts.advance_to(tick);
    }

    /// Starts tracking `pair` at `tick` if it is not yet tracked.
    ///
    /// `backfill_zeros` seeds the correlation history with that many 0.0
    /// values. A pair is discovered the moment it first co-occurs with a
    /// seed — but its correlation *was* zero in the window before that, and
    /// without the backfill a topic that appears fully formed (the demo's
    /// "SIGMOD Athens" stunt: two tags that only ever occur together) would
    /// present a flat history at 1.0 and never register as a shift. The
    /// engine caps the backfill by stream age so a cold start does not make
    /// every initial pair look emergent.
    pub fn discover(&mut self, pair: TagPair, tick: Tick, backfill_zeros: usize) {
        let packed = pair.packed();
        let shard = self.route(packed);
        self.shards[shard].discover(packed, tick, backfill_zeros);
    }

    /// Promotes this tick's co-occurrence candidates that contain a seed
    /// into tracked pairs, shard-parallel when `parallel` is set.
    pub fn discover_seeded(
        &mut self,
        seeds: &FxHashSet<TagId>,
        tick: Tick,
        backfill_zeros: usize,
        parallel: bool,
    ) {
        let parallel = self.close_parallel(parallel);
        fanout(&mut self.shards, parallel, |_, shard| {
            // Detach the candidate set so discovery can mutate the shard
            // while iterating it, then hand it back cleared — no
            // drain-into-a-fresh-`Vec` round-trip, and the set keeps its
            // capacity across ticks (`FxHashSet::default()` is
            // allocation-free).
            let mut current = std::mem::take(&mut shard.current);
            for &packed in &current {
                let pair = TagPair::from_packed(packed);
                if seeds.contains(&pair.lo()) || seeds.contains(&pair.hi()) {
                    shard.discover(packed, tick, backfill_zeros);
                }
            }
            current.clear();
            shard.current = current;
        });
    }

    /// Updates one tracked pair at a tick close.
    ///
    /// * `correlation` — the windowed correlation value of this tick,
    /// * `support` — windowed co-occurrence count (for eviction),
    /// * `now` — stream time of the tick end (drives score decay).
    ///
    /// Returns the new decayed-max score. The scorer sees the history
    /// *before* this tick's value; afterwards the value is appended.
    pub fn update_pair(
        &mut self,
        pair: TagPair,
        correlation: f64,
        support: u64,
        tick: Tick,
        now: Timestamp,
        scorer: &ShiftScorer,
    ) -> f64 {
        let packed = pair.packed();
        let shard = self.route(packed);
        self.shards[shard].update_pair(packed, correlation, support, tick, now, scorer)
    }

    /// Runs the correlation + shift-scoring update over every tracked
    /// pair, shard-parallel when `parallel` is set.
    ///
    /// `correlate` maps `(pair, windowed co-occurrence count)` to this
    /// tick's correlation value; it must be a pure function of its inputs
    /// and shared immutable state (it is called concurrently from shard
    /// workers). Each shard walks its live slots in slot order; an update
    /// reads only its own slot and the frozen window statistics, so the
    /// visiting order cannot change a result, and the outcome is identical
    /// for any shard count, slot layout and either execution mode.
    pub fn score_all<C>(
        &mut self,
        tick: Tick,
        now: Timestamp,
        scorer: &ShiftScorer,
        parallel: bool,
        correlate: C,
    ) where
        C: Fn(TagPair, u64) -> f64 + Sync,
    {
        let parallel = self.close_parallel(parallel);
        let counts = &self.counts;
        let correlate = &correlate;
        fanout(&mut self.shards, parallel, |index, shard| {
            // Each worker times its own walk into its shard's handle —
            // no cross-shard sharing, and a single branch when disabled.
            let started = shard.close_ns.enabled().then(std::time::Instant::now);
            match shard.params.scoring {
                // The default: lane-tiled kernels over gathered tiles.
                ScoringMode::Batched => {
                    shard.close_batched(&counts.shards()[index], tick, now, scorer, correlate);
                }
                // The reference: per-pair walk, the scorer reading each
                // history ring in place.
                ScoringMode::Scalar => {
                    for slot in 0..shard.slab.slot_bound() {
                        if !shard.slab.is_live(slot) {
                            continue;
                        }
                        let packed = shard.slab.key_at(slot);
                        let pair = TagPair::from_packed(packed);
                        let ab = counts.count(index, packed);
                        let correlation = correlate(pair, ab);
                        shard.update_slot(slot, correlation, ab, tick, now, scorer);
                    }
                }
            }
            if let Some(started) = started {
                shard.close_ns.record_elapsed(started);
            }
        });
    }

    /// Demotes a requested parallel close to serial below
    /// [`SERIAL_CLOSE_MAX_PAIRS`] live pairs — per-store workers cost
    /// more than they parallelise on a small registry. Execution only;
    /// results are identical either way.
    fn close_parallel(&self, requested: bool) -> bool {
        requested && self.len() >= SERIAL_CLOSE_MAX_PAIRS
    }

    /// Evicts pairs without support for a full history window (per shard,
    /// optionally parallel) and enforces the global tracked-pair cap
    /// (lowest current scores go first). Returns the number evicted.
    pub fn evict(&mut self, tick: Tick, now: Timestamp) -> usize {
        self.evict_parallel(tick, now, false)
    }

    /// [`ShardedPairRegistry::evict`] with explicit shard fan-out control.
    pub fn evict_parallel(&mut self, tick: Tick, now: Timestamp, parallel: bool) -> usize {
        let parallel = self.close_parallel(parallel);
        let evicted_before = self.evicted_total();
        let horizon = self.params.history_len as u64;
        fanout(&mut self.shards, parallel, |_, shard| {
            for slot in 0..shard.slab.slot_bound() {
                if shard.slab.is_live(slot)
                    && tick.since(shard.slab.last_support_at(slot)) >= horizon
                {
                    shard.slab.remove_slot(slot);
                    shard.evicted += 1;
                }
            }
        });

        // The cap is a global memory bound, so it cannot be enforced
        // shard-locally: collect (score, key) across shards and drop the
        // globally weakest — the same order the unsharded registry used.
        let live = self.len();
        if live > self.params.max_tracked_pairs {
            let excess = live - self.params.max_tracked_pairs;
            if live > self.cap_scratch.capacity() {
                self.close_allocs += 1;
            }
            let scored = &mut self.cap_scratch;
            scored.clear();
            for shard in &self.shards {
                scored.extend(shard.slab.live_slots().map(|slot| {
                    (shard.slab.score_at(slot).value_at(now), shard.slab.key_at(slot))
                }));
            }
            // The comparator is total ((score, key), keys unique), so
            // selecting the n-th smallest partitions off exactly the set a
            // full sort would have put first — in O(live) instead of
            // O(live log live), which matters when the cap binds every
            // tick.
            let cmp = |a: &(f64, u64), b: &(f64, u64)| {
                a.0.partial_cmp(&b.0).expect("finite scores").then(a.1.cmp(&b.1))
            };
            scored.select_nth_unstable_by(excess - 1, cmp);
            for i in 0..excess {
                let packed = self.cap_scratch[i].1;
                let shard = self.route(packed);
                self.shards[shard].slab.remove(packed);
                self.shards[shard].evicted += 1;
            }
        }
        let evicted = (self.evicted_total() - evicted_before) as usize;
        if evicted > 0 {
            self.journal.record(EventKind::Eviction, tick.0, evicted as u64, self.len() as u64);
        }
        evicted
    }

    /// Runs the tick-aligned rebalance policy; call once per tick close,
    /// after scoring and eviction (the decision should see post-eviction
    /// populations). Returns the number of pair states migrated (0 when
    /// the policy is disabled, cooling down, or satisfied).
    ///
    /// The policy, in order:
    ///
    /// 1. **Dynamic store count** — aim for `ceil(live /
    ///    target_pairs_per_shard)` active stores within
    ///    `[min_active_shards, pool]`; grow eagerly, shrink only past a
    ///    2× hysteresis band so the count doesn't flap at a boundary.
    /// 2. **Skew** — among the active stores, if `max/mean` load (window
    ///    observations + [`PAIR_LOAD_WEIGHT`]·pairs) reaches `min_skew` —
    ///    or [`CAP_PRESSURE_MIN_SKEW`] once the tracked-pair cap is
    ///    `cap_pressure` full — recompute the slot assignment.
    /// 3. **Assignment** — longest-processing-time greedy over per-slot
    ///    loads (deterministic: slots by descending load then index,
    ///    stores by ascending load then index). Adopted only if it trims
    ///    the max store load by ≥ 5% (or the store count changed), then
    ///    applied by [`ShardedPairRegistry::migrate_to`].
    pub fn maybe_rebalance(&mut self, tick: Tick) -> usize {
        if !self.rebalance.enabled || self.shards.len() < 2 {
            return 0;
        }
        let migrated = self.consider_rebalance(tick);
        if migrated > 0 {
            self.journal.record(EventKind::Rebalance, tick.0, migrated as u64, self.table.epoch());
        }
        // Halve the per-slot observation pressure each close: the load
        // signal is an exponential moving sum with a one-tick half-life,
        // so bursts register fast and fade fast.
        for shard in &mut self.shards {
            for obs in &mut shard.slot_obs {
                *obs >>= 1;
            }
        }
        migrated
    }

    /// The decision half of [`ShardedPairRegistry::maybe_rebalance`].
    fn consider_rebalance(&mut self, tick: Tick) -> usize {
        let cfg = self.rebalance;
        let live = self.len();
        if live < cfg.min_tracked_pairs {
            return 0;
        }
        if let Some(last) = self.last_attempt {
            if tick.since(last) < cfg.cooldown_ticks {
                return 0;
            }
        }
        self.last_attempt = Some(tick);

        let (slot_load, slot_obs) = self.slot_loads();
        let pool = self.shards.len();
        let mut shard_load = vec![0u64; pool];
        for (slot, &load) in slot_load.iter().enumerate() {
            shard_load[self.table.shard_of_slot(slot)] += load;
        }
        let active_now = self.table.active_shards();

        // 1. Dynamic store count.
        let target =
            live.div_ceil(cfg.target_pairs_per_shard).clamp(cfg.min_active_shards.max(1), pool);
        let resize_to =
            if target > active_now || target * 2 <= active_now { target } else { active_now };
        let resized = resize_to != active_now;

        // 2. Skew over the active stores.
        let total: u64 = shard_load.iter().sum();
        let mean = total as f64 / active_now as f64;
        let max_load = shard_load.iter().copied().max().unwrap_or(0);
        let skew = max_load as f64 / mean.max(1e-9);
        let cap_pressed = live as f64 >= cfg.cap_pressure * self.params.max_tracked_pairs as f64;
        let skewed = skew >= cfg.min_skew || (cap_pressed && skew >= CAP_PRESSURE_MIN_SKEW);
        if !resized && !skewed {
            return 0;
        }

        // 3. Incremental refinement over the first `resize_to` stores:
        //    keep every slot where it is unless moving it shrinks the
        //    makespan, so migration volume is proportional to the
        //    imbalance, not to the population.
        let assignment = refine_assignment(self.table.assignment(), &slot_load, resize_to);
        if assignment == *self.table.assignment() {
            // Refinement found nothing worth moving (e.g. a resize whose
            // only loaded slots cannot profitably relocate) — publishing
            // an identical epoch would be pure churn for every in-flight
            // batch.
            return 0;
        }
        if !resized {
            let mut new_loads = vec![0u64; resize_to];
            for (slot, &store) in assignment.iter().enumerate() {
                new_loads[store as usize] += slot_load[slot];
            }
            let new_max = new_loads.into_iter().max().unwrap_or(0);
            if new_max * MIN_IMPROVEMENT_DEN > max_load * MIN_IMPROVEMENT_NUM {
                return 0; // < 5% better: not worth the migration
            }
        }
        self.apply_assignment(assignment, &slot_obs)
    }

    /// Per-slot `(weighted load, raw observation)` vectors over the whole
    /// grid: decayed window observations plus
    /// [`PAIR_LOAD_WEIGHT`]-weighted live pairs.
    fn slot_loads(&self) -> (Vec<u64>, Vec<u64>) {
        let slots = self.table.slot_count();
        let mut obs = vec![0u64; slots];
        for shard in &self.shards {
            for (slot, &count) in shard.slot_obs.iter().enumerate() {
                obs[slot] += count;
            }
        }
        let mut load = obs.clone();
        for shard in &self.shards {
            for slot in shard.slab.live_slots() {
                load[self.table.slot_of(shard.slab.key_at(slot))] += PAIR_LOAD_WEIGHT;
            }
        }
        (load, obs)
    }

    /// Re-targets the slot grid to `assignment` and migrates every
    /// affected pair's tracked state and windowed counts to its new
    /// store, publishing the successor routing epoch. Returns the number
    /// of pair states moved.
    ///
    /// This is the migration primitive behind
    /// [`ShardedPairRegistry::maybe_rebalance`]; it is public as an
    /// operational/testing hook. State is preserved bit-for-bit, so
    /// rankings are unaffected by any migration schedule.
    ///
    /// # Panics
    /// Panics if the assignment does not match the slot grid or names a
    /// store outside the pool.
    pub fn migrate_to(&mut self, assignment: Vec<u16>) -> usize {
        let (_, slot_obs) = self.slot_loads();
        self.apply_assignment(assignment, &slot_obs)
    }

    /// [`ShardedPairRegistry::migrate_to`] with the per-slot observation
    /// totals already in hand (they move with their slots).
    fn apply_assignment(&mut self, assignment: Vec<u16>, slot_obs: &[u64]) -> usize {
        let new_table = self.table.reassigned(assignment);
        let pool = self.shards.len();
        type Moved = (u64, Option<PairState>, Option<KeyWindow>);
        let mut state_moves: Vec<Vec<Moved>> = (0..pool).map(|_| Vec::new()).collect();
        let mut current_moves: Vec<Vec<u64>> = (0..pool).map(|_| Vec::new()).collect();

        let mut donors = vec![false; pool];
        for (from, (shard, counter)) in
            self.shards.iter_mut().zip(self.counts.shards_mut().iter_mut()).enumerate()
        {
            // A re-targeted slot takes *everything* keyed into it: tracked
            // pair states, but also windowed counts of pairs that were
            // only ever observed (discovery may still promote them later,
            // and their window history must be intact when it does).
            let tracked = shard.slab.live_slots().map(|slot| shard.slab.key_at(slot));
            let mut moving: Vec<u64> = tracked
                .chain(counter.iter().map(|(packed, _)| packed))
                .filter(|&packed| new_table.route(packed) != from)
                .collect();
            moving.sort_unstable();
            moving.dedup();
            donors[from] = !moving.is_empty();
            for packed in moving {
                let state = shard.slab.extract(packed);
                let series = counter.extract_key(packed);
                state_moves[new_table.route(packed)].push((packed, state, series));
            }
            // Open-tick discovery candidates follow their keys (normally
            // empty at close time, but the hook may run mid-tick).
            let moving_current: Vec<u64> = shard
                .current
                .iter()
                .copied()
                .filter(|&packed| new_table.route(packed) != from)
                .collect();
            for packed in moving_current {
                shard.current.remove(&packed);
                current_moves[new_table.route(packed)].push(packed);
            }
        }

        let mut migrated = 0usize;
        for (to, items) in state_moves.into_iter().enumerate() {
            let counter = &mut self.counts.shards_mut()[to];
            let shard = &mut self.shards[to];
            for (packed, state, series) in items {
                if let Some(state) = state {
                    migrated += 1;
                    shard.slab.insert_state(packed, state);
                }
                if let Some(series) = series {
                    counter.merge_key(packed, &series);
                }
            }
        }
        for (to, keys) in current_moves.into_iter().enumerate() {
            self.shards[to].current.extend(keys);
        }

        // Donors keep the slots of their departed keys otherwise, and
        // every later close walks the slot bound, not the live count —
        // compact them so a migration's cost ends with the migration.
        for (index, was_donor) in donors.into_iter().enumerate() {
            if was_donor {
                self.shards[index].slab.shrink_to_fit();
                self.shards[index].current.shrink_to_fit();
                self.counts.shards_mut()[index].shrink_to_fit();
            }
        }

        // The observation pressure follows its slots to the new owners.
        if self.params.track_load {
            for shard in &mut self.shards {
                shard.slot_obs.iter_mut().for_each(|obs| *obs = 0);
            }
            for (slot, &obs) in slot_obs.iter().enumerate() {
                let owner = new_table.shard_of_slot(slot);
                self.shards[owner].slot_obs[slot] = obs;
            }
        }

        self.routing.publish(new_table.clone());
        self.table = Arc::new(new_table);
        self.rebalances += 1;
        self.migrated_pairs += migrated as u64;
        migrated
    }

    /// Load and rebalancing metrics (see [`RegistryStats`]).
    pub fn stats(&self) -> RegistryStats {
        let pool = self.shards.len();
        let mut per_shard_obs = vec![0u64; pool];
        for (index, shard) in self.shards.iter().enumerate() {
            per_shard_obs[index] = shard.slot_obs.iter().sum();
        }
        let per_shard_pairs: Vec<usize> =
            self.shards.iter().map(|shard| shard.slab.len()).collect();
        let active = self.table.active_shards();
        let loads: Vec<u64> = (0..pool)
            .map(|i| per_shard_obs[i] + PAIR_LOAD_WEIGHT * per_shard_pairs[i] as u64)
            .collect();
        let total: u64 = loads.iter().sum();
        let mean = total as f64 / active.max(1) as f64;
        let skew = if total == 0 {
            1.0
        } else {
            loads.iter().copied().max().unwrap_or(0) as f64 / mean.max(1e-9)
        };
        RegistryStats {
            shards: pool,
            active_shards: active,
            tracked_pairs: self.len(),
            per_shard_pairs,
            per_shard_obs,
            skew,
            routing_epoch: self.table.epoch(),
            rebalances: self.rebalances,
            migrated_pairs: self.migrated_pairs,
            discovered: self.discovered_total(),
            evicted: self.evicted_total(),
            close_allocs: self.close_allocs,
        }
    }

    /// The current top-k ranking by decayed score at `now`, merged across
    /// shards (identical for any shard count).
    pub fn ranking(&self, k: usize, now: Timestamp) -> Vec<(TagPair, f64)> {
        if self.is_empty() {
            return Vec::new();
        }
        let mut topk: TopK<u64> = TopK::new(k);
        for shard in &self.shards {
            for slot in shard.slab.live_slots() {
                let score = shard.slab.score_at(slot).value_at(now);
                if score > 0.0 {
                    topk.offer(shard.slab.key_at(slot), score);
                }
            }
        }
        topk.into_sorted().into_iter().map(|r| (TagPair::from_packed(r.key), r.score)).collect()
    }

    /// Rich info for `pair`, if tracked.
    pub fn info(&self, pair: TagPair, tick: Tick, now: Timestamp) -> Option<TrackedPairInfo> {
        let packed = pair.packed();
        let shard = &self.shards[self.route(packed)];
        shard.slab.slot_of(packed).map(|slot| TrackedPairInfo {
            pair,
            score: shard.slab.score_at(slot).value_at(now),
            correlation: shard.slab.newest_history(slot).unwrap_or(0.0),
            tracked_ticks: tick.since(shard.slab.since_at(slot)),
        })
    }

    /// The correlation history of `pair` (oldest → newest), if tracked.
    pub fn history_of(&self, pair: TagPair) -> Option<Vec<f64>> {
        let packed = pair.packed();
        let shard = &self.shards[self.route(packed)];
        shard.slab.slot_of(packed).map(|slot| {
            let (older, newer) = shard.slab.history_parts(slot);
            older.iter().chain(newer).copied().collect()
        })
    }

    /// Exports the stat columns for the `ranked` pairs only into `out`
    /// (the [`crate::query::PublishDetail::Ranked`] serving payload):
    /// O(top-k) hash lookups plus a tiny sort, independent of the tracked
    /// population. Reuses `out`'s buffers — warm calls do not allocate.
    pub(crate) fn export_ranked_into(&self, ranked: &[(TagPair, f64)], out: &mut ViewData) {
        out.scratch.clear();
        for &(pair, _) in ranked {
            let packed = pair.packed();
            let shard = self.route(packed);
            if let Some(slot) = self.shards[shard].slab.slot_of(packed) {
                out.scratch.push((packed, shard as u32, slot as u32));
            }
        }
        self.fill_rows(out);
    }

    /// Exports the stat columns for **every** tracked pair into `out`
    /// (the [`crate::query::PublishDetail::Full`] serving payload): a
    /// full column copy, O(tracked pairs) time and memory.
    pub(crate) fn export_full_into(&self, out: &mut ViewData) {
        out.scratch.clear();
        for (shard_idx, shard) in self.shards.iter().enumerate() {
            for slot in shard.slab.live_slots() {
                out.scratch.push((shard.slab.key_at(slot), shard_idx as u32, slot as u32));
            }
        }
        self.fill_rows(out);
    }

    /// Sorts the scratch triples by key and copies each row's columns.
    fn fill_rows(&self, out: &mut ViewData) {
        out.scratch.sort_unstable_by_key(|&(key, _, _)| key);
        out.clear_columns();
        let scratch = std::mem::take(&mut out.scratch);
        for &(key, shard, slot) in &scratch {
            let slab = &self.shards[shard as usize].slab;
            let slot = slot as usize;
            out.push_row(
                key,
                *slab.score_at(slot),
                slab.newest_history(slot).unwrap_or(0.0),
                slab.since_at(slot),
                slab.history_parts(slot),
            );
        }
        out.scratch = scratch;
        out.seal_rows();
    }

    /// Packed keys of all tracked pairs, globally sorted (deterministic
    /// iteration order for tests and inspection).
    pub fn tracked_keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self
            .shards
            .iter()
            .flat_map(|s| s.slab.live_slots().map(|slot| s.slab.key_at(slot)))
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Serializes the registry's complete state — routing table + epoch,
    /// rebalancer accumulators, every shard's tracked-pair states, and the
    /// windowed counts *including observed-but-undiscovered keys* — into
    /// `w` (see [`crate::snapshot`] for the framing). Map contents are
    /// written in sorted key order so equal states produce equal bytes.
    pub(crate) fn encode_snapshot(&self, w: &mut SnapWriter) {
        let pool = self.shards.len();
        w.usize(pool);
        w.u64(self.table.epoch());
        w.usize(self.table.slot_count());
        for &store in self.table.assignment() {
            w.u16(store);
        }
        w.opt_tick(self.last_attempt);
        w.u64(self.rebalances);
        w.u64(self.migrated_pairs);
        for shard in &self.shards {
            w.u64(shard.discovered);
            w.u64(shard.evicted);
            w.usize(shard.slot_obs.len());
            for &obs in &shard.slot_obs {
                w.u64(obs);
            }
            let mut current: Vec<u64> = shard.current.iter().copied().collect();
            current.sort_unstable();
            w.usize(current.len());
            for packed in current {
                w.u64(packed);
            }
            w.usize(shard.slab.len());
            for packed in shard.slab.sorted_keys() {
                let slot = shard.slab.slot_of(packed).expect("sorted keys are tracked");
                w.u64(packed);
                let (older, newer) = shard.slab.history_parts(slot);
                w.usize(older.len() + newer.len());
                for &value in older.iter().chain(newer) {
                    w.f64(value);
                }
                // `value_at(last_update)` reads the stored value with zero
                // elapsed decay — the raw field, bit-for-bit.
                let score = shard.slab.score_at(slot);
                w.f64(score.value_at(score.last_update()));
                w.timestamp(score.last_update());
                w.tick(shard.slab.last_support_at(slot));
                w.tick(shard.slab.since_at(slot));
            }
        }
        for counter in self.counts.shards() {
            w.opt_tick(counter.newest_tick());
            let per_tick = counter.per_tick_counts();
            w.usize(per_tick.len());
            for mut entries in per_tick {
                entries.sort_unstable_by_key(|&(key, _)| key);
                w.usize(entries.len());
                for (key, count) in entries {
                    w.u64(key);
                    w.u64(count);
                }
            }
        }
    }

    /// Rebuilds a registry from [`ShardedPairRegistry::encode_snapshot`]
    /// output. The scalar parameters and the (pre-resolved) rebalance
    /// policy come from the resuming configuration, which the caller has
    /// already fingerprint-matched against the snapshot; structural
    /// inconsistencies between the two still surface as typed errors,
    /// never panics.
    pub(crate) fn decode_snapshot(
        r: &mut SnapReader<'_>,
        shards: usize,
        history_len: usize,
        half_life_ms: u64,
        min_pair_support: u64,
        max_tracked_pairs: usize,
        rebalance: RebalanceConfig,
    ) -> Result<Self, EnBlogueError> {
        let pool = r.seq(1)?;
        if pool != shards {
            return Err(EnBlogueError::SnapshotConfigMismatch(format!(
                "snapshot has a pool of {pool} shard stores, configuration asks for {shards}"
            )));
        }
        let epoch = r.u64()?;
        let slots = r.seq(2)?;
        if slots != shards * rebalance.slots_per_shard {
            return Err(EnBlogueError::SnapshotConfigMismatch(format!(
                "snapshot routing grid has {slots} slots, configuration implies {}",
                shards * rebalance.slots_per_shard
            )));
        }
        let mut assignment = Vec::with_capacity(slots);
        for _ in 0..slots {
            let store = r.u16()?;
            if store as usize >= pool {
                return Err(corrupt(format!("slot assigned to store {store} outside the pool")));
            }
            assignment.push(store);
        }
        let table = RoutingTable::from_parts(pool, epoch, assignment);
        let last_attempt = r.opt_tick()?;
        let rebalances = r.u64()?;
        let migrated_pairs = r.u64()?;

        let params = PairParams {
            history_len,
            half_life_ms,
            min_pair_support,
            max_tracked_pairs,
            slots: table.slot_count(),
            track_load: rebalance.enabled && shards > 1,
            scoring: ScoringMode::default(),
        };
        let expected_obs = if params.track_load { params.slots } else { 0 };
        let mut stores = Vec::with_capacity(pool);
        for _ in 0..pool {
            let mut shard = PairShard::new(params);
            shard.discovered = r.u64()?;
            shard.evicted = r.u64()?;
            let obs_len = r.seq(8)?;
            if obs_len != expected_obs {
                return Err(corrupt(format!(
                    "shard carries {obs_len} slot-load counters, expected {expected_obs}"
                )));
            }
            for slot in 0..obs_len {
                shard.slot_obs[slot] = r.u64()?;
            }
            let current = r.seq(8)?;
            for _ in 0..current {
                shard.current.insert(r.u64()?);
            }
            let states = r.seq(8)?;
            for _ in 0..states {
                let packed = r.u64()?;
                let history_values = r.seq(8)?;
                if history_values > history_len {
                    return Err(corrupt(format!(
                        "pair history of {history_values} values exceeds the {history_len}-tick window"
                    )));
                }
                let mut history = RingBuffer::new(history_len);
                for _ in 0..history_values {
                    history.push(r.f64()?);
                }
                let score_value = r.f64()?;
                let score_updated = r.timestamp()?;
                let mut score = DecayValue::new(half_life_ms);
                score.set(score_updated, score_value);
                let last_support = r.tick()?;
                let since = r.tick()?;
                if !shard
                    .slab
                    .insert_state(packed, PairState { history, score, last_support, since })
                {
                    return Err(corrupt(format!("pair {packed:#x} serialized twice")));
                }
            }
            stores.push(shard);
        }

        let mut counters = Vec::with_capacity(pool);
        for _ in 0..pool {
            let newest = r.opt_tick()?;
            let ticks = r.seq(8)?;
            if ticks > history_len {
                return Err(corrupt(format!(
                    "counter holds {ticks} tick maps, window spans {history_len}"
                )));
            }
            if newest.is_none() && ticks > 0 {
                return Err(corrupt("tick maps without a newest tick"));
            }
            let mut per_tick = Vec::with_capacity(ticks);
            for _ in 0..ticks {
                let entries = r.seq(16)?;
                let mut map = Vec::with_capacity(entries);
                for _ in 0..entries {
                    let key = r.u64()?;
                    let count = r.u64()?;
                    map.push((key, count));
                }
                per_tick.push(map);
            }
            counters.push(WindowedCounter::from_per_tick_counts(history_len, newest, per_tick));
        }

        Ok(ShardedPairRegistry {
            shards: stores,
            counts: ShardedWindowedCounter::from_shards(counters),
            params,
            rebalance,
            routing: SharedRouting::new(table.clone()),
            table: Arc::new(table),
            last_attempt,
            rebalances,
            migrated_pairs,
            cap_scratch: Vec::new(),
            close_allocs: 0,
            journal: Journal::disabled(),
        })
    }

    /// Serializes the registry's complete state into a standalone byte
    /// payload — the same section the engine snapshot embeds (see
    /// [`crate::snapshot`] for the conventions), without the engine
    /// framing. An operational/testing seam: the slab-layout property
    /// tests round-trip registries mid-stream through it.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.encode_snapshot(&mut w);
        w.into_bytes()
    }

    /// Rebuilds a registry from [`ShardedPairRegistry::snapshot_bytes`]
    /// output under the same construction parameters.
    ///
    /// # Errors
    /// [`EnBlogueError::SnapshotCorrupt`] /
    /// [`EnBlogueError::SnapshotConfigMismatch`] exactly as the engine
    /// restore path surfaces them (truncation never panics).
    #[allow(clippy::too_many_arguments)]
    pub fn from_snapshot_bytes(
        bytes: &[u8],
        shards: usize,
        history_len: usize,
        half_life_ms: u64,
        min_pair_support: u64,
        max_tracked_pairs: usize,
        rebalance: RebalanceConfig,
    ) -> Result<Self, EnBlogueError> {
        let mut r = SnapReader::new(bytes);
        let registry = Self::decode_snapshot(
            &mut r,
            shards,
            history_len,
            half_life_ms,
            min_pair_support,
            max_tracked_pairs,
            rebalance,
        )?;
        r.finish()?;
        Ok(registry)
    }
}

/// Deterministic incremental rebalancing: starting from `current`, place
/// slots living on stores outside `0..stores` (after a resize) by
/// longest-processing-time greedy, then repeatedly move the heaviest
/// profitable slot from the most- to the least-loaded store until no move
/// shrinks the makespan.
///
/// Unlike LPT-from-scratch, a slot only moves when the move itself pays,
/// so migration volume is proportional to the *imbalance* (a handful of
/// hot slots after a burst), not to the whole tracked population.
/// Everything ties on (load, index), so the result is a pure function of
/// its inputs — part of the replay-determinism contract.
fn refine_assignment(current: &[u16], slot_load: &[u64], stores: usize) -> Vec<u16> {
    debug_assert!(stores >= 1 && stores <= u16::MAX as usize);
    let mut assignment = current.to_vec();
    let mut store_load = vec![0u64; stores];
    let mut homeless: Vec<usize> = Vec::new();
    for (slot, &store) in current.iter().enumerate() {
        if (store as usize) < stores {
            store_load[store as usize] += slot_load[slot];
        } else {
            homeless.push(slot);
        }
    }
    // Re-home slots of retired stores, heaviest first onto the lightest.
    homeless.sort_unstable_by(|&a, &b| slot_load[b].cmp(&slot_load[a]).then(a.cmp(&b)));
    for slot in homeless {
        let target = min_store(&store_load);
        assignment[slot] = target as u16;
        store_load[target] += slot_load[slot];
    }
    // Refinement: move the largest slot that strictly shrinks the
    // max-min gap, until none does. Bounded by the slot count — each
    // move strictly reduces the (max, -min) pair lexicographically.
    for _ in 0..assignment.len() {
        let from = max_store(&store_load);
        let to = min_store(&store_load);
        let gap = store_load[from] - store_load[to];
        let candidate = assignment
            .iter()
            .enumerate()
            .filter(|&(slot, &store)| store as usize == from && slot_load[slot] > 0)
            .filter(|&(slot, _)| slot_load[slot] < gap)
            .max_by_key(|&(slot, _)| (slot_load[slot], usize::MAX - slot));
        let Some((slot, _)) = candidate else { break };
        assignment[slot] = to as u16;
        store_load[from] -= slot_load[slot];
        store_load[to] += slot_load[slot];
    }
    assignment
}

/// Index of the least-loaded store (ties: lowest index).
fn min_store(store_load: &[u64]) -> usize {
    store_load
        .iter()
        .enumerate()
        .min_by_key(|&(index, &load)| (load, index))
        .expect("at least one store")
        .0
}

/// Index of the most-loaded store (ties: lowest index).
fn max_store(store_load: &[u64]) -> usize {
    store_load
        .iter()
        .enumerate()
        .max_by_key(|&(index, &load)| (load, usize::MAX - index))
        .expect("at least one store")
        .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use enblogue_stats::predict::PredictorKind;
    use enblogue_stats::shift::{ErrorNormalization, ShiftScorer};
    use enblogue_types::TagId;

    fn pair(a: u32, b: u32) -> TagPair {
        TagPair::new(TagId(a), TagId(b))
    }

    fn scorer() -> ShiftScorer {
        ShiftScorer::new(PredictorKind::Ewma(0.3), ErrorNormalization::Absolute)
    }

    fn registry() -> ShardedPairRegistry {
        ShardedPairRegistry::new(1, 8, Timestamp::DAY, 1, 1000)
    }

    fn hour(h: u64) -> Timestamp {
        Timestamp::from_hours(h)
    }

    #[test]
    fn discovery_is_idempotent() {
        let mut r = registry();
        r.discover(pair(1, 2), Tick(0), 0);
        r.discover(pair(2, 1), Tick(5), 0);
        assert_eq!(r.len(), 1);
        assert_eq!(r.discovered_total(), 1);
        assert!(r.is_tracked(pair(1, 2)));
    }

    #[test]
    fn flat_correlation_scores_zero() {
        let mut r = registry();
        let s = scorer();
        r.discover(pair(1, 2), Tick(0), 0);
        for t in 0..8u64 {
            let score = r.update_pair(pair(1, 2), 0.2, 3, Tick(t), hour(t), &s);
            if t >= 1 {
                assert_eq!(score, 0.0, "flat series must not alarm at tick {t}");
            }
        }
    }

    #[test]
    fn jump_raises_score_then_decays() {
        let mut r = registry();
        let s = scorer();
        r.discover(pair(1, 2), Tick(0), 0);
        for t in 0..6u64 {
            r.update_pair(pair(1, 2), 0.1, 3, Tick(t), hour(t), &s);
        }
        let jumped = r.update_pair(pair(1, 2), 0.6, 10, Tick(6), hour(6), &s);
        assert!(jumped > 0.3, "jump must register: {jumped}");
        // Correlation stays high: no further *shift*, score decays (half-
        // life is one day here).
        let later = r.update_pair(pair(1, 2), 0.6, 10, Tick(30), hour(30), &s);
        assert!(later < jumped, "score must decay after the shift: {later} !< {jumped}");
        assert!(later > jumped * 0.4, "one day later roughly half remains: {later}");
    }

    #[test]
    fn decayed_max_keeps_past_peak_over_small_new_errors() {
        let mut r = registry();
        let s = scorer();
        r.discover(pair(1, 2), Tick(0), 0);
        for t in 0..6u64 {
            r.update_pair(pair(1, 2), 0.1, 3, Tick(t), hour(t), &s);
        }
        let peak = r.update_pair(pair(1, 2), 0.7, 10, Tick(6), hour(6), &s);
        // A tiny wobble an hour later must not displace the decayed peak.
        let next = r.update_pair(pair(1, 2), 0.71, 10, Tick(7), hour(7), &s);
        assert!(next > 0.9 * peak, "decayed peak must dominate: {next} vs {peak}");
    }

    #[test]
    fn eviction_after_support_loss() {
        let mut r = registry();
        let s = scorer();
        r.discover(pair(1, 2), Tick(0), 0);
        r.update_pair(pair(1, 2), 0.3, 5, Tick(0), hour(0), &s);
        // Ticks 1..8: no support (support < min = 1 is passed as 0).
        for t in 1..9u64 {
            r.update_pair(pair(1, 2), 0.0, 0, Tick(t), hour(t), &s);
        }
        let evicted = r.evict(Tick(9), hour(9));
        assert_eq!(evicted, 1);
        assert!(r.is_empty());
        assert_eq!(r.evicted_total(), 1);
    }

    #[test]
    fn supported_pairs_survive_eviction() {
        let mut r = registry();
        let s = scorer();
        r.discover(pair(1, 2), Tick(0), 0);
        for t in 0..20u64 {
            r.update_pair(pair(1, 2), 0.3, 5, Tick(t), hour(t), &s);
            assert_eq!(r.evict(Tick(t), hour(t)), 0);
        }
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn cap_evicts_lowest_scores() {
        let mut r = ShardedPairRegistry::new(1, 4, Timestamp::DAY, 1, 2);
        let s = scorer();
        for (i, p) in [pair(1, 2), pair(3, 4), pair(5, 6)].into_iter().enumerate() {
            r.discover(p, Tick(0), 0);
            // Give each pair a different shift magnitude via a jump from 0.
            r.update_pair(p, 0.0, 1, Tick(0), hour(0), &s);
            r.update_pair(p, 0.1 * (i as f64 + 1.0), 1, Tick(1), hour(1), &s);
        }
        assert_eq!(r.len(), 3);
        let evicted = r.evict(Tick(1), hour(1));
        assert_eq!(evicted, 1);
        assert!(!r.is_tracked(pair(1, 2)), "weakest score evicted");
        assert!(r.is_tracked(pair(5, 6)));
    }

    #[test]
    fn ranking_orders_by_decayed_score() {
        let mut r = registry();
        let s = scorer();
        for p in [pair(1, 2), pair(3, 4)] {
            r.discover(p, Tick(0), 0);
            for t in 0..4u64 {
                r.update_pair(p, 0.1, 3, Tick(t), hour(t), &s);
            }
        }
        // Pair (3,4) jumps harder.
        r.update_pair(pair(1, 2), 0.3, 3, Tick(4), hour(4), &s);
        r.update_pair(pair(3, 4), 0.8, 3, Tick(4), hour(4), &s);
        let ranking = r.ranking(10, hour(4));
        assert_eq!(ranking.len(), 2);
        assert_eq!(ranking[0].0, pair(3, 4));
        assert!(ranking[0].1 > ranking[1].1);
        // k = 1 truncates.
        assert_eq!(r.ranking(1, hour(4)).len(), 1);
    }

    #[test]
    fn zero_scores_are_not_ranked() {
        let mut r = registry();
        let s = scorer();
        r.discover(pair(1, 2), Tick(0), 0);
        r.update_pair(pair(1, 2), 0.2, 3, Tick(0), hour(0), &s);
        r.update_pair(pair(1, 2), 0.2, 3, Tick(1), hour(1), &s);
        assert!(r.ranking(5, hour(1)).is_empty(), "nothing emergent yet");
    }

    #[test]
    fn info_reports_current_state() {
        let mut r = registry();
        let s = scorer();
        r.discover(pair(1, 2), Tick(3), 0);
        r.update_pair(pair(1, 2), 0.25, 3, Tick(3), hour(3), &s);
        let info = r.info(pair(1, 2), Tick(5), hour(5)).unwrap();
        assert_eq!(info.pair, pair(1, 2));
        assert_eq!(info.correlation, 0.25);
        assert_eq!(info.tracked_ticks, 2);
        assert!(r.info(pair(7, 8), Tick(5), hour(5)).is_none());
        assert_eq!(r.history_of(pair(1, 2)), Some(vec![0.25]));
    }

    /// Drives the full sharded close path (observe → discover → score →
    /// evict → rank) for one shard/parallelism configuration.
    fn sharded_run(shards: usize, parallel: bool) -> (Vec<u64>, Vec<(TagPair, f64)>, u64, u64) {
        let mut r = ShardedPairRegistry::new(shards, 6, Timestamp::DAY, 1, 100);
        let s = scorer();
        let seeds: FxHashSet<TagId> = (0..6u32).map(TagId).collect();
        for t in 0..10u64 {
            // A rotating set of co-occurring pairs; pair (0,1) jumps late.
            for a in 0..6u32 {
                for b in (a + 1)..6u32 {
                    let packed = pair(a, b).packed();
                    let active =
                        (a + b + t as u32).is_multiple_of(3) || (a == 0 && b == 1 && t >= 7);
                    if active {
                        r.observe_pair(Tick(t), packed);
                        r.observe_pair(Tick(t), packed);
                    }
                }
            }
            r.advance_to(Tick(t));
            r.discover_seeded(&seeds, Tick(t), t.min(5) as usize, parallel);
            r.score_all(Tick(t), hour(t), &s, parallel, |p, ab| {
                // A synthetic but deterministic correlation: co-occurrence
                // count scaled by the pair's identity.
                ab as f64 / (4.0 + (p.lo().0 + p.hi().0) as f64)
            });
            r.evict_parallel(Tick(t), hour(t), parallel);
        }
        (r.tracked_keys(), r.ranking(10, hour(9)), r.discovered_total(), r.evicted_total())
    }

    #[test]
    fn sharding_is_invisible_in_results() {
        let baseline = sharded_run(1, false);
        for shards in [2usize, 4, 16] {
            assert_eq!(sharded_run(shards, false), baseline, "{shards} shards, serial");
            assert_eq!(sharded_run(shards, true), baseline, "{shards} shards, parallel");
        }
        assert_eq!(sharded_run(1, true), baseline, "parallel flag alone");
        assert!(!baseline.0.is_empty(), "the workload must actually track pairs");
        assert!(!baseline.1.is_empty(), "the workload must actually rank pairs");
    }

    #[test]
    fn shards_partition_the_key_space() {
        let mut r = ShardedPairRegistry::new(4, 4, Timestamp::DAY, 1, 1000);
        for a in 0..20u32 {
            r.discover(pair(a, a + 100), Tick(0), 0);
        }
        assert_eq!(r.len(), 20);
        assert_eq!(r.shard_count(), 4);
        assert_eq!(r.tracked_keys().len(), 20, "every pair lands in exactly one shard");
        for a in 0..20u32 {
            assert!(r.is_tracked(pair(a, a + 100)), "routed lookup finds pair {a}");
        }
    }

    #[test]
    fn ingest_partitioned_matches_observe_pair() {
        let shards = 4usize;
        let observations: Vec<(Tick, u64)> = (0..60u64)
            .map(|i| (Tick(i / 20), pair((i % 7) as u32, (i % 5) as u32 + 10).packed()))
            .collect();
        let run = |partitioned: bool, parallel: bool| {
            let mut r = ShardedPairRegistry::new(shards, 6, Timestamp::DAY, 1, 1000);
            if partitioned {
                let table = r.routing_handle().snapshot();
                let mut buckets: Vec<Vec<(Tick, u64)>> = vec![Vec::new(); shards];
                for &(tick, packed) in &observations {
                    buckets[table.route(packed)].push((tick, packed));
                }
                r.ingest_partitioned(&buckets, parallel);
            } else {
                for &(tick, packed) in &observations {
                    r.observe_pair(tick, packed);
                }
            }
            // Promote everything so the counted state becomes observable.
            let seeds: FxHashSet<TagId> = (0..20u32).map(TagId).collect();
            r.discover_seeded(&seeds, Tick(2), 0, false);
            let counts: Vec<u64> =
                r.tracked_keys().iter().map(|&k| r.pair_count(TagPair::from_packed(k))).collect();
            (r.tracked_keys(), counts)
        };
        let sequential = run(false, false);
        assert!(!sequential.0.is_empty());
        assert_eq!(run(true, false), sequential, "partitioned serial");
        assert_eq!(run(true, true), sequential, "partitioned shard-parallel");
    }

    #[test]
    #[should_panic(expected = "bucket count")]
    fn ingest_partitioned_rejects_wrong_bucket_count() {
        let mut r = ShardedPairRegistry::new(4, 4, Timestamp::DAY, 1, 1000);
        let buckets: Vec<Vec<(Tick, u64)>> = vec![Vec::new(); 3];
        r.ingest_partitioned(&buckets, false);
    }

    /// A rebalance policy that reacts to everything immediately (for
    /// deterministic unit workloads far below the production thresholds).
    fn eager_rebalance() -> RebalanceConfig {
        RebalanceConfig {
            enabled: true,
            slots_per_shard: 4,
            target_pairs_per_shard: 8,
            min_skew: 1.01,
            cap_pressure: 0.5,
            min_tracked_pairs: 1,
            cooldown_ticks: 0,
            min_active_shards: 1,
        }
    }

    #[test]
    fn migrate_to_preserves_states_counts_and_rankings() {
        let build = || {
            let mut r = ShardedPairRegistry::with_rebalance(
                4,
                6,
                Timestamp::DAY,
                1,
                1000,
                eager_rebalance(),
            );
            let s = scorer();
            for a in 0..12u32 {
                let p = pair(a, a + 50);
                for t in 0..4u64 {
                    r.observe_pair(Tick(t), p.packed());
                }
                r.discover(p, Tick(0), 0);
                r.update_pair(p, 0.0, 2, Tick(0), hour(0), &s);
                r.update_pair(p, 0.1 * (a as f64 + 1.0), 2, Tick(1), hour(1), &s);
            }
            r.advance_to(Tick(3));
            r
        };
        let mut migrated = build();
        let reference = build();

        // Collapse everything onto store 3, then re-spread.
        let slots = migrated.routing_handle().snapshot().slot_count();
        let moved = migrated.migrate_to(vec![3; slots]);
        assert!(moved > 0, "keys actually moved");
        assert_eq!(migrated.routing_epoch(), 1);
        assert_eq!(migrated.stats().active_shards, 1);
        let respread: Vec<u16> = (0..slots).map(|slot| (slot % 4) as u16).collect();
        migrated.migrate_to(respread);
        assert_eq!(migrated.routing_epoch(), 2);
        assert_eq!(migrated.stats().active_shards, 4);

        // Every observable is bit-identical to the never-migrated registry.
        assert_eq!(migrated.tracked_keys(), reference.tracked_keys());
        assert_eq!(migrated.ranking(20, hour(1)), reference.ranking(20, hour(1)));
        for &key in &reference.tracked_keys() {
            let p = TagPair::from_packed(key);
            assert_eq!(migrated.pair_count(p), reference.pair_count(p), "counts of {p}");
            assert_eq!(migrated.history_of(p), reference.history_of(p), "history of {p}");
            assert_eq!(
                migrated.info(p, Tick(2), hour(2)),
                reference.info(p, Tick(2), hour(2)),
                "info of {p}"
            );
        }
        assert!(migrated.stats().migrated_pairs >= moved as u64);
        assert_eq!(migrated.stats().rebalances, 2);
    }

    #[test]
    fn maybe_rebalance_consolidates_a_small_serial_registry() {
        // 4-store pool, serial floor of 1, tiny sizing target ⇒ the
        // policy shrinks the active store count to fit the population.
        let mut r =
            ShardedPairRegistry::with_rebalance(4, 6, Timestamp::DAY, 1, 1000, eager_rebalance());
        let s = scorer();
        for a in 0..6u32 {
            let p = pair(a, a + 10);
            r.observe_pair(Tick(0), p.packed());
            r.discover(p, Tick(0), 0);
            r.update_pair(p, 0.2, 1, Tick(0), hour(0), &s);
        }
        assert_eq!(r.stats().active_shards, 4, "uniform table before the first decision");
        let migrated = r.maybe_rebalance(Tick(0));
        assert!(migrated > 0, "6 pairs at a target of 8 per store fit one store");
        let stats = r.stats();
        assert_eq!(stats.active_shards, 1);
        assert_eq!(stats.rebalances, 1);
        assert!(stats.routing_epoch >= 1);
        assert_eq!(r.len(), 6, "no pair lost in the move");
    }

    #[test]
    fn maybe_rebalance_grows_with_the_population() {
        let mut r =
            ShardedPairRegistry::with_rebalance(4, 6, Timestamp::DAY, 1, 10_000, eager_rebalance());
        let s = scorer();
        // Start small → consolidates; then grow past several store
        // targets → the policy expands again.
        for a in 0..4u32 {
            let p = pair(a, a + 1000);
            r.discover(p, Tick(0), 0);
            r.update_pair(p, 0.2, 1, Tick(0), hour(0), &s);
        }
        r.maybe_rebalance(Tick(0));
        assert_eq!(r.stats().active_shards, 1);
        for a in 4..40u32 {
            let p = pair(a, a + 1000);
            r.discover(p, Tick(1), 0);
            r.update_pair(p, 0.2, 1, Tick(1), hour(1), &s);
        }
        r.maybe_rebalance(Tick(1));
        let stats = r.stats();
        assert_eq!(stats.active_shards, 4, "40 pairs / target 8 wants 5, clamped to the pool");
        assert_eq!(stats.tracked_pairs, 40);
        let spread = stats.per_shard_pairs.iter().filter(|&&n| n > 0).count();
        assert_eq!(spread, 4, "pairs actually spread over the grown stores");
    }

    #[test]
    fn skewed_observation_load_triggers_a_respread() {
        // Two stores; drive all observation pressure onto the slots of
        // one store while pairs stay balanced. The skew trigger must
        // re-spread the hot slots.
        let mut r = ShardedPairRegistry::with_rebalance(
            2,
            6,
            Timestamp::DAY,
            1,
            1000,
            RebalanceConfig {
                target_pairs_per_shard: 2, // keep both stores active
                ..eager_rebalance()
            },
        );
        let s = scorer();
        let table = r.routing_handle().snapshot();
        // Track a balanced set of pairs.
        for a in 0..8u32 {
            let p = pair(a, a + 100);
            r.discover(p, Tick(0), 0);
            r.update_pair(p, 0.2, 1, Tick(0), hour(0), &s);
        }
        // Hammer observations whose slots currently route to store 0.
        let mut hot = Vec::new();
        for a in 0..200u32 {
            let packed = pair(a, a + 5000).packed();
            if table.route(packed) == 0 {
                hot.push(packed);
            }
        }
        for _ in 0..50 {
            for &packed in hot.iter().take(8) {
                r.observe_pair(Tick(0), packed);
            }
        }
        let skew_before = r.stats().skew;
        assert!(skew_before > 1.2, "setup must actually skew store 0: {skew_before}");
        let migrated = r.maybe_rebalance(Tick(0));
        assert!(migrated > 0 || r.stats().rebalances > 0, "hot slots re-spread");
        assert!(r.stats().skew < skew_before, "skew reduced: {}", r.stats().skew);
    }

    #[test]
    fn disabled_rebalancer_keeps_the_uniform_table() {
        let mut r = ShardedPairRegistry::new(4, 6, Timestamp::DAY, 1, 10);
        let s = scorer();
        for a in 0..30u32 {
            let p = pair(a, a + 10);
            r.observe_pair(Tick(0), p.packed());
            r.discover(p, Tick(0), 0);
            r.update_pair(p, 0.2, 1, Tick(0), hour(0), &s);
        }
        assert_eq!(r.maybe_rebalance(Tick(0)), 0);
        let stats = r.stats();
        assert_eq!(stats.routing_epoch, 0);
        assert_eq!(stats.rebalances, 0);
        assert_eq!(stats.active_shards, 4);
        assert_eq!(stats.per_shard_obs, vec![0; 4], "no load accounting when disabled");
    }

    #[test]
    fn refine_assignment_balances_and_is_deterministic() {
        // All load starts on store 0; refinement must spread it.
        let current = vec![0u16; 8];
        let loads = vec![100u64, 1, 1, 1, 50, 50, 0, 0];
        let a = super::refine_assignment(&current, &loads, 2);
        assert_eq!(a, super::refine_assignment(&current, &loads, 2), "deterministic");
        let mut store = [0u64; 2];
        for (slot, &s) in a.iter().enumerate() {
            store[s as usize] += loads[slot];
        }
        assert_eq!(store.iter().sum::<u64>(), 203);
        assert!(store[0].abs_diff(store[1]) <= 3, "near-balance: {store:?}");
        // Everything stays put when there is only one store.
        assert_eq!(super::refine_assignment(&current, &loads, 1), current);
    }

    #[test]
    fn refine_assignment_moves_only_what_imbalance_requires() {
        // A balanced placement with one hot slot colliding onto store 0:
        // only that slot (or an equivalent-load one) should move.
        let current = vec![0u16, 1, 0, 1, 0, 1];
        let loads = vec![10u64, 10, 10, 10, 80, 0];
        let a = super::refine_assignment(&current, &loads, 2);
        let moved: Vec<usize> =
            (0..6).filter(|&slot| a[slot] != current[slot] && loads[slot] > 0).collect();
        assert!(moved.len() <= 2, "migration stays proportional to the imbalance: {a:?}");
        assert_eq!(a[4], 0, "the un-splittable hot slot itself need not move");
        let mut store = [0u64; 2];
        for (slot, &s) in a.iter().enumerate() {
            store[s as usize] += loads[slot];
        }
        assert_eq!(store[0].max(store[1]), 80, "makespan reaches the hot-slot bound: {store:?}");
    }

    #[test]
    fn refine_assignment_rehomes_slots_of_retired_stores() {
        // Shrinking 4 → 2 stores: slots of stores 2 and 3 must land on
        // stores 0/1, loaded ones spread by LPT.
        let current = vec![0u16, 1, 2, 3, 2, 3];
        let loads = vec![10u64, 10, 30, 30, 5, 5];
        let a = super::refine_assignment(&current, &loads, 2);
        assert!(a.iter().all(|&s| s < 2), "no slot left on a retired store: {a:?}");
        let mut store = [0u64; 2];
        for (slot, &s) in a.iter().enumerate() {
            store[s as usize] += loads[slot];
        }
        assert!(store[0].abs_diff(store[1]) <= 10, "re-homed near-balanced: {store:?}");
    }

    #[test]
    fn observe_pair_feeds_windowed_counts() {
        let mut r = ShardedPairRegistry::new(4, 3, Timestamp::DAY, 1, 1000);
        let p = pair(1, 2);
        r.observe_pair(Tick(0), p.packed());
        r.observe_pair(Tick(1), p.packed());
        assert_eq!(r.pair_count(p), 2);
        r.advance_to(Tick(3)); // tick 0 falls out of the 3-tick window
        assert_eq!(r.pair_count(p), 1);
    }
}
