//! Stages (ii) and (iii): candidate-pair tracking, correlation series and
//! decayed-max shift scores — hash-sharded for parallel apply and tick
//! close.
//!
//! "We use seed tags to generate candidate topics, i.e., pairs of tags that
//! contain at least one seed tag. … For each such pair, we continuously
//! monitor the amount of documents that are annotated with both tags."
//! (§3(i)–(ii))
//!
//! The registry splits per-pair state into a fixed pool of hash shards:
//! a pair key lives in store [`enblogue_types::shard_of_packed`]`(key,
//! shards)` for the whole run. Each store keys its pairs once, in a
//! [`PairTable`] whose row holds the windowed co-occurrence count, the
//! discovery-candidate flag and the link to the tracked pair's
//! [`PairSlab`] slot. A pair's state (§3(ii): its windowed count,
//! correlation history and decayed score) depends only on its own key, so
//! every pair is fully contained in its store: discovery, scoring and
//! support-based eviction fan out shard-parallel through the crate's
//! `exec::fanout`, while the cap-based eviction and the final ranking
//! merge stay global. Rankings are **identical for any shard count** —
//! sharding is a pure execution knob, never a semantic one (pinned by
//! `tests/stage_parity.rs`).

use crate::exec::fanout;
pub use crate::exec::FANOUT_MIN_ITEMS;
use crate::query::ViewData;
use crate::slab::PairSlab;
pub use crate::slab::PairState;
use crate::snapshot::{corrupt, SnapReader, SnapWriter};
use crate::table::PairTable;
use enblogue_ingest::PairRun;
use enblogue_stats::predict::{HistoryTile, SeriesView, LANES};
use enblogue_stats::shift::ShiftScorer;
use enblogue_telemetry::{EventKind, Histogram, Journal, Telemetry};
use enblogue_types::{shard_of_packed, EnBlogueError, FxHashSet, TagId, TagPair, Tick, Timestamp};
use enblogue_window::{DecayMemo, DecayValue, RingBuffer, TopK};
use serde::{Deserialize, Serialize};

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

/// Relative weight of one tracked pair against one window observation
/// when a store's load is summarised as `observations + weight · pairs`
/// (the benchmark's `core.close.max_load_share` reading). A tracked pair
/// costs a correlation + prediction + decayed-max update every tick
/// close; an observation costs one pair-table update at ingest. Measured
/// at ≈ 160 ns per pair update vs ≈ 60 ns per observation, so 3 is that
/// ratio rounded, not a tuning surface.
pub const PAIR_LOAD_WEIGHT: u64 = 3;

/// Size and balance metrics of a [`ShardedPairRegistry`].
#[derive(Debug, Clone, PartialEq)]
pub struct RegistryStats {
    /// Size of the shard-store pool.
    pub shards: usize,
    /// Currently tracked pairs.
    pub tracked_pairs: usize,
    /// Live pairs per store (index = store).
    pub per_shard_pairs: Vec<usize>,
    /// Window observations per store (index = store): the total of the
    /// store's windowed co-occurrence counts.
    pub per_shard_obs: Vec<u64>,
    /// Distinct keys the pair tables hold: every counted, tracked or
    /// candidate pair (see [`ShardedPairRegistry::observed_keys`]).
    pub observed_keys: usize,
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

/// One hash shard of pair state.
///
/// A shard owns every pair routed to it: the [`PairTable`] — its one key
/// index, holding the windowed co-occurrence counts and the discovery
/// candidates — and the slab of tracked pairs (see [`PairSlab`]): keys,
/// scores and support ticks in parallel dense vectors, histories in one
/// strided arena, each slot linked to its table row.
pub struct PairShard {
    table: PairTable,
    slab: PairSlab,
    /// Copy of the registry's scalar parameters (shards are handed to
    /// workers detached from the registry during fan-out).
    params: PairParams,
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
    /// Windowed co-occurrence count of each lane (read by table row).
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
            table: PairTable::new(params.history_len),
            slab: PairSlab::new(params.history_len),
            tile: TileScratch::new(params.history_len),
            close_ns: Histogram::disabled(),
            params,
            discovered: 0,
            evicted: 0,
        }
    }

    /// The slab slot of `packed`, if tracked: key → row → slot, one probe.
    fn slot_of(&self, packed: u64) -> Option<usize> {
        self.table.row_of(packed).and_then(|row| self.table.slot(row))
    }

    /// Stops tracking the pair at `slot` and unlinks its table row.
    fn untrack(&mut self, slot: usize) {
        let row = self.slab.remove_slot(slot);
        self.table.unlink(row);
        self.evicted += 1;
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
        let slot = self.slot_of(packed).expect("update_pair on untracked pair");
        self.update_slot(slot, correlation, support, tick, now, scorer)
    }

    /// The batched tick-close walk: groups consecutive live slots into
    /// [`LANES`]-wide tiles of equal history length, gathers each tile's
    /// ring-resident histories into one rotation-normalised time-major
    /// buffer (one linear copy per lane), reads each lane's windowed
    /// actual from its table row, and scores all lanes through the
    /// lane-parallel kernels of `ShiftScorer::score_batch` — writing
    /// results straight back into the slab's dense score column.
    ///
    /// Bit-identical to running [`PairShard::update_slot`] over every live
    /// slot: tiles group pairs but never mix their arithmetic
    /// (each lane runs the scalar operation order; the support gate, the
    /// noise floor and the decayed-max update are applied per lane
    /// exactly as the scalar path applies them per pair). Tiling is an
    /// execution detail, invisible in rankings.
    fn close_batched<C>(&mut self, tick: Tick, now: Timestamp, scorer: &ShiftScorer, correlate: &C)
    where
        C: Fn(TagPair, u64) -> f64 + Sync,
    {
        let PairShard { table, slab, tile, params, .. } = self;
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
                tile.counts[width] = table.total(slab.row_at(slot));
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
    /// Close-scoring execution path (see [`ScoringMode`]).
    scoring: ScoringMode,
}

/// The candidate-pair registry: discovery, scoring, eviction, ranking —
/// over a fixed pool of hash shards.
pub struct ShardedPairRegistry {
    shards: Vec<PairShard>,
    params: PairParams,
    /// Reusable `(score, key)` buffer of the cap-eviction pass (retained
    /// across closes so a cap-bound steady state allocates nothing).
    cap_scratch: Vec<(f64, u64)>,
    /// Capacity-growth events of `cap_scratch`.
    close_allocs: u64,
    /// Operational event journal (evictions). Disabled until
    /// [`ShardedPairRegistry::attach_telemetry`].
    journal: Journal,
}

impl ShardedPairRegistry {
    /// A registry of `shards` hash-sharded stores whose correlation
    /// histories hold `history_len` ticks.
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
        assert!(shards > 0, "shard count must be positive");
        assert!(history_len >= 2, "predictors need at least two history slots");
        let params = PairParams {
            history_len,
            half_life_ms,
            min_pair_support,
            max_tracked_pairs,
            scoring: ScoringMode::default(),
        };
        ShardedPairRegistry {
            shards: (0..shards).map(|_| PairShard::new(params)).collect(),
            params,
            cap_scratch: Vec::new(),
            close_allocs: 0,
            journal: Journal::disabled(),
        }
    }

    /// Wires the registry into a [`Telemetry`] hub: registers one
    /// `close.shard.ns{shard=i}` latency histogram per pool store (the
    /// per-shard close-walk timing recorded inside
    /// [`ShardedPairRegistry::score_all`]'s fan-out workers) and adopts
    /// the hub's event journal for eviction events.
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

    /// The store owning `packed`: the fixed hash split over the pool.
    #[inline]
    fn route(&self, packed: u64) -> usize {
        shard_of_packed(packed, self.shards.len())
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
        self.shards[self.route(packed)].slot_of(packed).is_some()
    }

    /// Distinct keys held across the pair tables: every pair counted in
    /// the window, tracked, or observed since the last discovery round.
    /// The state item the tracked-pair cap does not bound.
    pub fn observed_keys(&self) -> usize {
        self.shards.iter().map(|s| s.table.len()).sum()
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
        let shard = self.route(packed);
        self.shards[shard].table.observe(tick, packed, 1);
    }

    /// Applies a shard-partitioned batch of counted co-occurrence runs:
    /// one pair-table probe per run (count and candidate flag together),
    /// one scoped worker per shard once the batch holds
    /// [`FANOUT_MIN_ITEMS`] runs.
    ///
    /// `buckets[i]` must hold exactly the runs routed to shard `i`, sorted
    /// by tick (see `enblogue_ingest::partition`) — then each shard's
    /// table advances through the same ticks and ends with the same
    /// per-column counts that a sequential
    /// [`ShardedPairRegistry::observe_pair`] loop would have left, and the
    /// same discovery candidates, so results are identical serial or
    /// fanned out.
    ///
    /// # Panics
    /// Panics if `buckets` does not match the shard count.
    pub fn ingest_partitioned(&mut self, buckets: &[Vec<PairRun>]) {
        assert_eq!(buckets.len(), self.shards.len(), "bucket count must match shard count");
        let runs: usize = buckets.iter().map(Vec::len).sum();
        fanout(self.shards.iter_mut().zip(buckets), runs, |_, (shard, bucket)| {
            for run in bucket {
                shard.table.observe(run.tick, run.key, run.count);
            }
        });
    }

    /// The windowed co-occurrence count of `pair`.
    pub fn pair_count(&self, pair: TagPair) -> u64 {
        let packed = pair.packed();
        self.shards[self.route(packed)].table.count(packed)
    }

    /// Aligns every shard's count window to the closing `tick` (gap ticks
    /// expire data).
    pub fn advance_to(&mut self, tick: Tick) {
        for shard in &mut self.shards {
            shard.table.advance_to(tick);
        }
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
        let route = self.route(packed);
        let shard = &mut self.shards[route];
        let row = shard.table.ensure_row(packed);
        if shard.table.slot(row).is_none() {
            let half_life = shard.params.half_life_ms;
            let slot = shard.slab.insert_fresh(packed, row, tick, backfill_zeros, half_life);
            shard.table.link(row, slot);
            shard.discovered += 1;
        }
    }

    /// Promotes this tick's co-occurrence candidates that contain a seed
    /// into tracked pairs, shard-parallel from [`FANOUT_MIN_ITEMS`]
    /// tracked pairs on.
    pub fn discover_seeded(&mut self, seeds: &FxHashSet<TagId>, tick: Tick, backfill_zeros: usize) {
        let live = self.len();
        fanout(&mut self.shards, live, |_, shard| {
            // The walk goes over the candidate row list, which keeps its
            // capacity across ticks.
            let PairShard { table, slab, params, discovered, .. } = shard;
            table.drain_candidates(|packed, row| {
                let pair = TagPair::from_packed(packed);
                if !(seeds.contains(&pair.lo()) || seeds.contains(&pair.hi())) {
                    return None;
                }
                *discovered += 1;
                Some(slab.insert_fresh(packed, row, tick, backfill_zeros, params.half_life_ms))
            });
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
    /// pair, shard-parallel from [`FANOUT_MIN_ITEMS`] tracked pairs on.
    ///
    /// `correlate` maps `(pair, windowed co-occurrence count)` to this
    /// tick's correlation value; it must be a pure function of its inputs
    /// and shared immutable state (it is called concurrently from shard
    /// workers). Each shard walks its live slots in slot order; an update
    /// reads only its own slot and the frozen window statistics, so the
    /// visiting order cannot change a result, and the outcome is identical
    /// for any shard count, slot layout and serial or fanned-out run.
    pub fn score_all<C>(&mut self, tick: Tick, now: Timestamp, scorer: &ShiftScorer, correlate: C)
    where
        C: Fn(TagPair, u64) -> f64 + Sync,
    {
        let live = self.len();
        let correlate = &correlate;
        fanout(&mut self.shards, live, |_, shard| {
            // Each worker times its own walk into its shard's handle —
            // no cross-shard sharing, and a single branch when disabled.
            let started = shard.close_ns.enabled().then(std::time::Instant::now);
            match shard.params.scoring {
                // The default: lane-tiled kernels over gathered tiles.
                ScoringMode::Batched => shard.close_batched(tick, now, scorer, correlate),
                // The reference: per-pair walk, the scorer reading each
                // history ring in place.
                ScoringMode::Scalar => {
                    for slot in 0..shard.slab.slot_bound() {
                        if !shard.slab.is_live(slot) {
                            continue;
                        }
                        let pair = TagPair::from_packed(shard.slab.key_at(slot));
                        let ab = shard.table.total(shard.slab.row_at(slot));
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

    /// Evicts pairs without support for a full history window (per shard,
    /// shard-parallel like the scoring walk) and enforces the global
    /// tracked-pair cap (lowest current scores go first). Returns the
    /// number evicted.
    pub fn evict(&mut self, tick: Tick, now: Timestamp) -> usize {
        let live = self.len();
        let evicted_before = self.evicted_total();
        let horizon = self.params.history_len as u64;
        fanout(&mut self.shards, live, |_, shard| {
            for slot in 0..shard.slab.slot_bound() {
                if shard.slab.is_live(slot)
                    && tick.since(shard.slab.last_support_at(slot)) >= horizon
                {
                    shard.untrack(slot);
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
                let route = self.route(packed);
                let shard = &mut self.shards[route];
                let slot = shard.slot_of(packed).expect("cap candidates are tracked");
                shard.untrack(slot);
            }
        }
        let evicted = (self.evicted_total() - evicted_before) as usize;
        if evicted > 0 {
            self.journal.record(EventKind::Eviction, tick.0, evicted as u64, self.len() as u64);
        }
        evicted
    }

    /// Size and balance metrics (see [`RegistryStats`]).
    pub fn stats(&self) -> RegistryStats {
        RegistryStats {
            shards: self.shards.len(),
            tracked_pairs: self.len(),
            per_shard_pairs: self.shards.iter().map(|shard| shard.slab.len()).collect(),
            per_shard_obs: self.shards.iter().map(|shard| shard.table.total_events()).collect(),
            observed_keys: self.observed_keys(),
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
        shard.slot_of(packed).map(|slot| TrackedPairInfo {
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
        shard.slot_of(packed).map(|slot| {
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
            if let Some(slot) = self.shards[shard].slot_of(packed) {
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

    /// Serializes the registry's complete state — the pool size, every
    /// shard's tracked-pair states, and the windowed counts *including
    /// observed-but-undiscovered keys* — into `w` (see [`crate::snapshot`]
    /// for the framing). Map contents are written in sorted key order so
    /// equal states produce equal bytes.
    pub(crate) fn encode_snapshot(&self, w: &mut SnapWriter) {
        w.usize(self.shards.len());
        for shard in &self.shards {
            w.u64(shard.discovered);
            w.u64(shard.evicted);
            let candidates = shard.table.candidate_keys();
            w.usize(candidates.len());
            for packed in candidates {
                w.u64(packed);
            }
            w.usize(shard.slab.len());
            for slot in shard.slab.slots_by_key() {
                w.u64(shard.slab.key_at(slot));
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
        for shard in &self.shards {
            w.opt_tick(shard.table.newest_tick());
            let per_tick = shard.table.per_tick_counts();
            w.usize(per_tick.len());
            for entries in per_tick {
                w.usize(entries.len());
                for (key, count) in entries {
                    w.u64(key);
                    w.u64(count);
                }
            }
        }
    }

    /// Rebuilds a registry from [`ShardedPairRegistry::encode_snapshot`]
    /// output. The scalar parameters come from the resuming configuration,
    /// which the caller has already fingerprint-matched against the
    /// snapshot; structural inconsistencies between the two still surface
    /// as typed errors, never panics.
    pub(crate) fn decode_snapshot(
        r: &mut SnapReader<'_>,
        shards: usize,
        history_len: usize,
        half_life_ms: u64,
        min_pair_support: u64,
        max_tracked_pairs: usize,
    ) -> Result<Self, EnBlogueError> {
        let pool = r.seq(1)?;
        if pool != shards {
            return Err(EnBlogueError::SnapshotConfigMismatch(format!(
                "snapshot has a pool of {pool} shard stores, configuration asks for {shards}"
            )));
        }
        let mut registry = ShardedPairRegistry::new(
            pool,
            history_len,
            half_life_ms,
            min_pair_support,
            max_tracked_pairs,
        );
        // Every lookup routes by the hash, so a key stored in any other
        // store would be invisible to it.
        let owned = |r: &mut SnapReader<'_>, store: usize| -> Result<u64, EnBlogueError> {
            let packed = r.u64()?;
            if shard_of_packed(packed, pool) != store {
                return Err(corrupt(format!("pair {packed:#x} stored outside its shard {store}")));
            }
            Ok(packed)
        };
        for (store, shard) in registry.shards.iter_mut().enumerate() {
            shard.discovered = r.u64()?;
            shard.evicted = r.u64()?;
            let candidates = r.seq(8)?;
            for _ in 0..candidates {
                let packed = owned(r, store)?;
                shard.table.mark_candidate(packed);
            }
            let states = r.seq(8)?;
            for _ in 0..states {
                let packed = owned(r, store)?;
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
                let row = shard.table.ensure_row(packed);
                if shard.table.slot(row).is_some() {
                    return Err(corrupt(format!("pair {packed:#x} serialized twice")));
                }
                let state = PairState { history, score, last_support, since };
                let slot = shard.slab.insert_state(packed, row, state);
                shard.table.link(row, slot);
            }
        }

        let mut column = Vec::new();
        for (store, shard) in registry.shards.iter_mut().enumerate() {
            let newest = r.opt_tick()?;
            let ticks = r.seq(8)?;
            if ticks > history_len {
                return Err(corrupt(format!(
                    "counter holds {ticks} tick maps, window spans {history_len}"
                )));
            }
            let Some(newest) = newest else {
                if ticks > 0 {
                    return Err(corrupt("tick maps without a newest tick"));
                }
                continue;
            };
            if ticks == 0 {
                return Err(corrupt("a newest tick without its tick map"));
            }
            for _ in 0..ticks {
                let entries = r.seq(16)?;
                column.clear();
                for _ in 0..entries {
                    let key = owned(r, store)?;
                    column.push((key, r.u64()?));
                }
                shard.table.restore_column(newest, &column);
            }
        }
        Ok(registry)
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
    pub fn from_snapshot_bytes(
        bytes: &[u8],
        shards: usize,
        history_len: usize,
        half_life_ms: u64,
        min_pair_support: u64,
        max_tracked_pairs: usize,
    ) -> Result<Self, EnBlogueError> {
        let mut r = SnapReader::new(bytes);
        let registry = Self::decode_snapshot(
            &mut r,
            shards,
            history_len,
            half_life_ms,
            min_pair_support,
            max_tracked_pairs,
        )?;
        r.finish()?;
        Ok(registry)
    }
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
    /// evict → rank) over a pool of `shards` stores.
    fn sharded_run(shards: usize) -> (Vec<u64>, Vec<(TagPair, f64)>, u64, u64) {
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
            r.discover_seeded(&seeds, Tick(t), t.min(5) as usize);
            r.score_all(Tick(t), hour(t), &s, |p, ab| {
                // A synthetic but deterministic correlation: co-occurrence
                // count scaled by the pair's identity.
                ab as f64 / (4.0 + (p.lo().0 + p.hi().0) as f64)
            });
            r.evict(Tick(t), hour(t));
        }
        (r.tracked_keys(), r.ranking(10, hour(9)), r.discovered_total(), r.evicted_total())
    }

    #[test]
    fn sharding_is_invisible_in_results() {
        let baseline = sharded_run(1);
        for shards in [2usize, 4, 16] {
            assert_eq!(sharded_run(shards), baseline, "{shards} shards");
        }
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
        use enblogue_ingest::partition::{annotations_of, for_each_pair, partition_docs};
        use enblogue_ingest::PartitionSpec;
        use enblogue_types::{Document, TickSpec};

        let shards = 4usize;
        // Four hourly ticks of five-tag documents; every ninth document
        // is an hour late, so runs carry raised ticks, and the second
        // batch starts behind the tables' newest tick.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let docs: Vec<Document> = (0..2400u64)
            .map(|i| {
                let h = i / 600;
                let h = if i % 9 == 4 { h.saturating_sub(1) } else { h };
                let tags = (0..5).map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    TagId((state % 150) as u32)
                });
                Document::builder(i, hour(h)).tags(tags).build()
            })
            .collect();
        let spec = PartitionSpec { tick_spec: TickSpec::hourly(), use_entities: true, shards };
        let batches = [&docs[..1300], &docs[1300..]];
        let run = |partitioned: bool| {
            let mut r = ShardedPairRegistry::new(shards, 6, Timestamp::DAY, 1, 100_000);
            for batch in batches {
                if partitioned {
                    let partitioned = partition_docs(batch, &spec);
                    let runs: usize = partitioned.buckets().iter().map(Vec::len).sum();
                    assert!(runs >= FANOUT_MIN_ITEMS, "only {runs} runs: the apply stays serial");
                    r.ingest_partitioned(partitioned.buckets());
                } else {
                    let mut buf = Vec::new();
                    for doc in batch {
                        let tick = spec.tick_spec.tick_of(doc.timestamp);
                        for_each_pair(annotations_of(doc, true, &mut buf), |key| {
                            r.observe_pair(tick, key);
                        });
                    }
                }
            }
            let open = r.snapshot_bytes();
            // Promote everything so the counted state becomes observable.
            let seeds: FxHashSet<TagId> = (0..150u32).map(TagId).collect();
            r.discover_seeded(&seeds, Tick(3), 0);
            let counts: Vec<u64> =
                r.tracked_keys().iter().map(|&k| r.pair_count(TagPair::from_packed(k))).collect();
            (open, r.tracked_keys(), counts, r.snapshot_bytes())
        };
        let sequential = run(false);
        assert!(sequential.1.len() > FANOUT_MIN_ITEMS);
        assert_eq!(run(true), sequential, "partitioned");
    }

    #[test]
    #[should_panic(expected = "bucket count")]
    fn ingest_partitioned_rejects_wrong_bucket_count() {
        let mut r = ShardedPairRegistry::new(4, 4, Timestamp::DAY, 1, 1000);
        let buckets: Vec<Vec<PairRun>> = vec![Vec::new(); 3];
        r.ingest_partitioned(&buckets);
    }

    #[test]
    fn restore_rejects_a_key_outside_its_shard() {
        let stray = (0..u32::MAX)
            .map(|a| pair(a, a + 1).packed())
            .find(|&packed| shard_of_packed(packed, 2) == 1)
            .expect("some key hashes to store 1");
        let mut w = SnapWriter::new();
        w.usize(2);
        // Store 0: no counts, the stray key as an open-tick candidate.
        w.u64(0);
        w.u64(0);
        w.usize(1);
        w.u64(stray);
        w.usize(0);
        // Store 1: empty.
        for _ in 0..4 {
            w.u64(0);
        }
        for _ in 0..2 {
            w.opt_tick(None);
            w.usize(0);
        }
        let bytes = w.into_bytes();
        let restored =
            ShardedPairRegistry::from_snapshot_bytes(&bytes, 2, 4, Timestamp::DAY, 1, 10);
        assert!(
            matches!(restored, Err(EnBlogueError::SnapshotCorrupt(msg)) if msg.contains("outside"))
        );
    }

    #[test]
    fn observed_keys_counts_counted_tracked_and_candidate_keys() {
        let mut r = ShardedPairRegistry::new(4, 3, Timestamp::DAY, 1, 1000);
        let seeds: FxHashSet<TagId> = [TagId(1)].into_iter().collect();
        // Tick 0: (1,2) and (3,4) counted; the round tracks (1,2) only.
        r.observe_pair(Tick(0), pair(1, 2).packed());
        r.observe_pair(Tick(0), pair(3, 4).packed());
        r.advance_to(Tick(0));
        r.discover_seeded(&seeds, Tick(0), 0);
        // Tracked without ever being counted.
        r.discover(pair(7, 8), Tick(0), 0);
        // A pending candidate of the open tick, counted too.
        r.observe_pair(Tick(1), pair(5, 6).packed());
        assert_eq!(r.observed_keys(), 4, "(1,2) (3,4) counted, (7,8) tracked, (5,6) candidate");
        assert_eq!(r.stats().observed_keys, 4);
        // The window drains: tracked keys stay, counted-only keys go.
        r.advance_to(Tick(9));
        assert_eq!(r.pair_count(pair(1, 2)), 0);
        assert_eq!(r.observed_keys(), 3, "(1,2) (7,8) tracked, (5,6) still a candidate");
        r.discover_seeded(&seeds, Tick(9), 0);
        assert_eq!(r.observed_keys(), 2, "an undiscovered, drained candidate is dropped");
        assert_eq!(r.stats().observed_keys, r.len());
    }

    #[test]
    fn restore_rejects_a_pair_serialized_twice() {
        let mut w = SnapWriter::new();
        w.usize(1);
        w.u64(0);
        w.u64(0);
        w.usize(0);
        w.usize(2);
        for _ in 0..2 {
            w.u64(pair(1, 2).packed());
            w.usize(0);
            w.f64(0.0);
            w.timestamp(Timestamp::ZERO);
            w.tick(Tick(0));
            w.tick(Tick(0));
        }
        w.opt_tick(None);
        w.usize(0);
        let restored =
            ShardedPairRegistry::from_snapshot_bytes(&w.into_bytes(), 1, 4, Timestamp::DAY, 1, 10);
        assert!(
            matches!(restored, Err(EnBlogueError::SnapshotCorrupt(msg)) if msg.contains("twice"))
        );
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
        let stats = r.stats();
        assert_eq!(stats.per_shard_obs.iter().sum::<u64>(), 1, "per-store window totals");
        assert_eq!(stats.per_shard_obs[p.shard(4)], 1, "counted in the pair's own store");
    }
}
