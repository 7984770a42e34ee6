//! The unified read surface: one `QueryView` trait over the engine's
//! in-place state and the serving tier's published snapshots.
//!
//! Historically the engine grew five scattered read accessors
//! (`latest_snapshot`, `current_seeds`, `is_seed`, `pair_info`,
//! `pair_history`) plus a free-function `personalize()` — all reachable
//! only through the engine owner, so nothing could read while the stream
//! ingested. This module re-homes them onto a single coherent API:
//!
//! * [`QueryView`] — the trait: top-k, seed membership, per-pair
//!   drill-down, pair history, tag names, and personalized re-ranking.
//! * [`EngineQuery`] — the engine's **in-place** view (borrowing the
//!   pipeline; answers from live state, single-threaded).
//! * [`ViewData`] — the **published** view payload: a self-contained,
//!   immutable export of everything the trait answers, built at tick
//!   close by [`crate::stages::PipelineState::export_view`]. The
//!   `enblogue-serve` crate wraps it in an epoch-versioned `TickView`
//!   behind a lock-free handle so any number of threads query it while
//!   ingest continues.
//!
//! Parity contract: for the same closed tick, `EngineQuery` and a
//! published `ViewData` answer **byte-identically** — with one scoped
//! exception. Under [`PublishDetail::Ranked`] (the cheap default) the
//! view carries per-pair stats and histories only for the *ranked*
//! pairs, so `pair_info` / `pair_history` / `tag_name` answer `None` for
//! tracked-but-unranked pairs; under [`PublishDetail::Full`] every
//! tracked pair is exported and the accessors agree everywhere
//! (`tests/serve_parity.rs` pins both). Scores are exported in their
//! lazy `(value, last_update)` decay form and evaluated at the same
//! `now` the engine uses, so the f64s match bit-for-bit.

use crate::pairs::TrackedPairInfo;
use crate::personalization::{personalize, personalize_shared, PersonalizedRanking, UserProfile};
use crate::stages::StagePipeline;
use enblogue_types::{RankingSnapshot, TagId, TagInterner, TagPair, Tick, Timestamp};
use enblogue_window::decay::DecayValue;
use std::sync::Arc;

/// How much per-pair state a published view carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PublishDetail {
    /// Stats and histories for the **ranked** pairs only. Publish cost is
    /// O(top-k), independent of the tracked-pair population — this is the
    /// production default (the 3%-of-close publish gate in `perf_serve`
    /// holds at this detail level).
    #[default]
    Ranked,
    /// Stats and histories for **every** tracked pair: `pair_info` /
    /// `pair_history` parity with the engine across the whole population.
    /// Publish cost is O(tracked pairs) — a column copy of the registry —
    /// so reserve it for parity tests and low-rate inspection.
    Full,
}

/// The unified read API over a closed tick's results.
///
/// Implemented by [`EngineQuery`] (live, in-place) and by the serving
/// tier's published views (`enblogue_serve::{TickView, QueryHandle}` —
/// immutable, lock-free, concurrent). Everything here answers from the
/// most recently closed tick; before the first close, `Option`s are
/// `None` and collections are empty.
pub trait QueryView {
    /// Version of the data answered from. Monotonically increasing; two
    /// reads with equal epochs saw identical data. (Engine views count
    /// closed ticks; published views count publishes.)
    fn epoch(&self) -> u64;

    /// The closed tick the answers describe, if any tick has closed.
    fn tick(&self) -> Option<Tick>;

    /// The full ranking of the latest closed tick.
    fn ranking(&self) -> Option<RankingSnapshot>;

    /// The current seed tags, sorted.
    fn seeds(&self) -> Vec<TagId>;

    /// Whether `tag` is currently a seed.
    fn is_seed(&self, tag: TagId) -> bool;

    /// Rich info on a tracked pair (see the parity note on
    /// [`PublishDetail`] for which pairs a published view can answer).
    fn pair_info(&self, pair: TagPair) -> Option<TrackedPairInfo>;

    /// The correlation history of a tracked pair (oldest → newest).
    fn pair_history(&self, pair: TagPair) -> Option<Vec<f64>>;

    /// The display name of `tag`. Published views resolve names at
    /// publish time for the ranked pairs' member tags; other tags answer
    /// `None` there even when a live interner could name them.
    fn tag_name(&self, tag: TagId) -> Option<Arc<str>>;

    /// Re-ranks the latest ranking for `profile` (the paper's
    /// personalization component). `None` before the first close.
    fn personalized(&self, profile: &UserProfile) -> Option<PersonalizedRanking>;

    /// The best `k` ranked topics. The default clones the whole ranking
    /// first; implementors that hold one override it to slice in place.
    fn top_k(&self, k: usize) -> Vec<(TagPair, f64)> {
        self.ranking().map(|s| s.top(k).to_vec()).unwrap_or_default()
    }

    /// Per-tag drill-down: the ranked topics containing `tag`, best
    /// first (the demo's "click a tag" view over the displayed ranking).
    /// Overridden like [`QueryView::top_k`].
    fn pairs_with_tag(&self, tag: TagId) -> Vec<(TagPair, f64)> {
        self.ranking().map(|s| s.pairs_with_tag(tag)).unwrap_or_default()
    }
}

/// The engine's in-place [`QueryView`]: borrows the pipeline and answers
/// from live state through the same accessors the engine forwards to.
///
/// Obtain one with `EnBlogueEngine::query_view` /
/// `StagePipeline::query_view`. The interner is needed because keyword
/// personalization and `tag_name` resolve display names; pass the same
/// interner the documents were tagged with.
pub struct EngineQuery<'a> {
    pipeline: &'a StagePipeline,
    interner: TagInterner,
}

impl<'a> EngineQuery<'a> {
    pub(crate) fn new(pipeline: &'a StagePipeline, interner: TagInterner) -> Self {
        EngineQuery { pipeline, interner }
    }

    /// The interner names are resolved through.
    pub fn interner(&self) -> &TagInterner {
        &self.interner
    }
}

impl QueryView for EngineQuery<'_> {
    fn epoch(&self) -> u64 {
        self.pipeline.state().ticks_closed()
    }

    fn tick(&self) -> Option<Tick> {
        self.pipeline.latest_snapshot().map(|s| s.tick)
    }

    fn ranking(&self) -> Option<RankingSnapshot> {
        self.pipeline.latest_snapshot().cloned()
    }

    fn seeds(&self) -> Vec<TagId> {
        self.pipeline.current_seeds()
    }

    fn is_seed(&self, tag: TagId) -> bool {
        self.pipeline.is_seed(tag)
    }

    fn pair_info(&self, pair: TagPair) -> Option<TrackedPairInfo> {
        self.pipeline.pair_info(pair)
    }

    fn pair_history(&self, pair: TagPair) -> Option<Vec<f64>> {
        self.pipeline.pair_history(pair)
    }

    fn tag_name(&self, tag: TagId) -> Option<Arc<str>> {
        self.interner.name(tag)
    }

    fn personalized(&self, profile: &UserProfile) -> Option<PersonalizedRanking> {
        self.pipeline.latest_snapshot().map(|s| personalize(s, profile, &self.interner))
    }

    fn top_k(&self, k: usize) -> Vec<(TagPair, f64)> {
        self.pipeline.latest_snapshot().map(|s| s.top(k).to_vec()).unwrap_or_default()
    }

    fn pairs_with_tag(&self, tag: TagId) -> Vec<(TagPair, f64)> {
        self.pipeline.latest_snapshot().map(|s| s.pairs_with_tag(tag)).unwrap_or_default()
    }
}

/// The published view payload: a self-contained export of one closed
/// tick, built by [`crate::stages::PipelineState::export_view`].
///
/// Everything a [`QueryView`] answers lives inside — ranking, sorted
/// seed set, resolved tag names, and columnar per-pair stats (packed
/// keys, lazy decay scores, newest correlations, tracking-start ticks,
/// concatenated histories) — so queries never reach back into mutable
/// engine state and never take a lock. The struct is designed for
/// *reuse*: `export_view` clears and refills the columns in place, so a
/// warm publish performs zero heap allocations (pinned by
/// `close_allocs.rs`).
#[derive(Debug, Clone)]
pub struct ViewData {
    /// Publish epoch (set by the publisher; 0 = never published).
    pub epoch: u64,
    /// The exported ranking (`None` only before the first close).
    pub ranking: Option<RankingSnapshot>,
    /// The seed set at the close, sorted.
    pub seeds: Vec<TagId>,
    /// `(tag, name)` for the ranked pairs' member tags, sorted by tag —
    /// the interner snapshot personalization reads instead of the live
    /// interner (fill with [`ViewData::resolve_names`]).
    pub names: Vec<(TagId, Arc<str>)>,
    /// Which pairs the columns below cover.
    pub detail: PublishDetail,
    /// The tick `tracked_ticks` is measured against (the engine uses the
    /// latest snapshot's tick).
    pub info_tick: Tick,
    /// The stream time decayed scores are evaluated at (the engine uses
    /// the latest snapshot's time).
    pub now: Timestamp,
    // Columnar per-pair stats, aligned and sorted by packed key.
    pub(crate) keys: Vec<u64>,
    pub(crate) scores: Vec<DecayValue>,
    pub(crate) correlations: Vec<f64>,
    pub(crate) since: Vec<Tick>,
    /// Prefix offsets into `histories`: pair `i`'s history is
    /// `histories[history_off[i] .. history_off[i + 1]]`.
    pub(crate) history_off: Vec<u32>,
    pub(crate) histories: Vec<f64>,
    /// Export scratch: `(packed key, shard, slot)` triples, kept to make
    /// repeated exports allocation-free.
    pub(crate) scratch: Vec<(u64, u32, u32)>,
    /// Name-resolution scratch.
    pub(crate) scratch_tags: Vec<TagId>,
}

impl Default for ViewData {
    fn default() -> Self {
        ViewData {
            epoch: 0,
            ranking: None,
            seeds: Vec::new(),
            names: Vec::new(),
            detail: PublishDetail::default(),
            info_tick: Tick::ZERO,
            now: Timestamp::ZERO,
            keys: Vec::new(),
            scores: Vec::new(),
            correlations: Vec::new(),
            since: Vec::new(),
            history_off: Vec::new(),
            histories: Vec::new(),
            scratch: Vec::new(),
            scratch_tags: Vec::new(),
        }
    }
}

impl ViewData {
    /// Number of pairs the stat columns cover (ranked pairs under
    /// [`PublishDetail::Ranked`], every tracked pair under
    /// [`PublishDetail::Full`]).
    pub fn covered_pairs(&self) -> usize {
        self.keys.len()
    }

    /// Resolves the ranked pairs' member-tag names into
    /// [`ViewData::names`] through `lookup` (typically
    /// `|t| interner.name(t)`). Reuses internal buffers; `Arc<str>`
    /// clones are refcount bumps, so a warm call does not allocate.
    pub fn resolve_names(&mut self, mut lookup: impl FnMut(TagId) -> Option<Arc<str>>) {
        self.scratch_tags.clear();
        if let Some(snapshot) = &self.ranking {
            self.scratch_tags.extend(snapshot.member_tags());
        }
        self.scratch_tags.sort_unstable();
        self.scratch_tags.dedup();
        self.names.clear();
        for &tag in &self.scratch_tags {
            if let Some(name) = lookup(tag) {
                self.names.push((tag, name));
            }
        }
    }

    /// Column index of `pair`, if covered.
    fn slot_of(&self, pair: TagPair) -> Option<usize> {
        self.keys.binary_search(&pair.packed()).ok()
    }

    /// Clears the stat columns for refilling (capacity retained).
    pub(crate) fn clear_columns(&mut self) {
        self.keys.clear();
        self.scores.clear();
        self.correlations.clear();
        self.since.clear();
        self.history_off.clear();
        self.histories.clear();
    }

    /// Appends one pair's stats row (the caller feeds rows in ascending
    /// key order; `history_off` gets its final bound from the running
    /// `histories` length).
    pub(crate) fn push_row(
        &mut self,
        key: u64,
        score: DecayValue,
        correlation: f64,
        since: Tick,
        history: (&[f64], &[f64]),
    ) {
        debug_assert!(self.keys.last().is_none_or(|&k| k < key), "rows must arrive key-sorted");
        self.keys.push(key);
        self.scores.push(score);
        self.correlations.push(correlation);
        self.since.push(since);
        self.history_off.push(self.histories.len() as u32);
        self.histories.extend_from_slice(history.0);
        self.histories.extend_from_slice(history.1);
    }

    /// Seals the history offsets after the last [`ViewData::push_row`].
    pub(crate) fn seal_rows(&mut self) {
        self.history_off.push(self.histories.len() as u32);
    }
}

impl QueryView for ViewData {
    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn tick(&self) -> Option<Tick> {
        self.ranking.as_ref().map(|s| s.tick)
    }

    fn ranking(&self) -> Option<RankingSnapshot> {
        self.ranking.clone()
    }

    fn seeds(&self) -> Vec<TagId> {
        self.seeds.clone()
    }

    fn is_seed(&self, tag: TagId) -> bool {
        self.seeds.binary_search(&tag).is_ok()
    }

    fn pair_info(&self, pair: TagPair) -> Option<TrackedPairInfo> {
        self.slot_of(pair).map(|i| TrackedPairInfo {
            pair,
            score: self.scores[i].value_at(self.now),
            correlation: self.correlations[i],
            tracked_ticks: self.info_tick.since(self.since[i]),
        })
    }

    fn pair_history(&self, pair: TagPair) -> Option<Vec<f64>> {
        self.slot_of(pair).map(|i| {
            let (lo, hi) = (self.history_off[i] as usize, self.history_off[i + 1] as usize);
            self.histories[lo..hi].to_vec()
        })
    }

    fn tag_name(&self, tag: TagId) -> Option<Arc<str>> {
        self.names.binary_search_by_key(&tag, |&(t, _)| t).ok().map(|i| self.names[i].1.clone())
    }

    fn personalized(&self, profile: &UserProfile) -> Option<PersonalizedRanking> {
        self.ranking.as_ref().map(|s| personalize_shared(s, profile, &self.names))
    }

    fn top_k(&self, k: usize) -> Vec<(TagPair, f64)> {
        self.ranking.as_ref().map(|s| s.top(k).to_vec()).unwrap_or_default()
    }

    fn pairs_with_tag(&self, tag: TagId) -> Vec<(TagPair, f64)> {
        self.ranking.as_ref().map(|s| s.pairs_with_tag(tag)).unwrap_or_default()
    }
}

/// Keeps `resolve_ranked_names_into` and [`ViewData::resolve_names`]
/// honest about producing the same table shape.
#[cfg(test)]
mod tests {
    use super::*;
    use enblogue_types::TagKind;

    #[test]
    fn view_data_resolves_names_like_the_free_function() {
        let interner = TagInterner::new();
        let a = interner.intern("alpha", TagKind::Hashtag);
        let b = interner.intern("beta", TagKind::Hashtag);
        let c = interner.intern("gamma", TagKind::Hashtag);
        let snapshot = RankingSnapshot {
            tick: Tick(4),
            time: Timestamp::from_hours(4),
            ranked: vec![(TagPair::new(b, a), 0.9), (TagPair::new(a, c), 0.7)],
        };
        let mut data = ViewData { ranking: Some(snapshot.clone()), ..ViewData::default() };
        data.resolve_names(|t| interner.name(t));
        let free = crate::personalization::resolve_ranked_names(&snapshot, |t| interner.name(t));
        assert_eq!(data.names, free);
        assert_eq!(data.tag_name(a).as_deref(), Some("alpha"));
        assert_eq!(data.tag_name(TagId(999)), None);
    }
}
