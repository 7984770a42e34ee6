//! Stage (i): seed tag selection.
//!
//! "Seed tags are used to trigger the computation in the following steps.
//! Seed tags can be determined based on different criteria, such as
//! popularity and volatility. We choose seed tags to be popular tags.
//! Popularity is easy to measure as it merely requires computing a
//! sliding-window average on the document stream." (§3(i))

use crate::config::SeedStrategy;
use crate::snapshot::{corrupt, SnapReader, SnapWriter};
use enblogue_types::{EnBlogueError, FxHashMap, FxHashSet, TagId, Tick};
use enblogue_window::{SlidingStats, SpaceSaving, WindowedCounter};

/// Tracks per-tag statistics and selects the seed set at each tick close.
pub struct SeedTracker {
    strategy: SeedStrategy,
    seed_count: usize,
    min_seed_count: u64,
    /// Exact windowed per-tag document counts.
    counts: WindowedCounter<TagId>,
    /// Per-tag per-tick count history (for volatility); lazily created.
    volatility: FxHashMap<TagId, SlidingStats>,
    /// Approximate counts (sketch strategies only).
    sketch: Option<SpaceSaving<TagId>>,
    /// Tag counts in the open tick (feeds volatility on close).
    current: FxHashMap<TagId, u64>,
    /// Dense copy of the windowed counts indexed by `TagId`, rebuilt at
    /// every close (see [`SeedTracker::refresh_tag_counts`]). Derived
    /// state: not part of the snapshot.
    tag_counts: Vec<u64>,
    window_ticks: usize,
}

impl SeedTracker {
    /// A tracker windowed over `window_ticks`.
    pub fn new(
        strategy: SeedStrategy,
        seed_count: usize,
        min_seed_count: u64,
        window_ticks: usize,
    ) -> Self {
        let sketch = match strategy {
            SeedStrategy::SketchPopularity { capacity } => Some(SpaceSaving::new(capacity)),
            _ => None,
        };
        SeedTracker {
            strategy,
            seed_count,
            min_seed_count,
            counts: WindowedCounter::new(window_ticks),
            volatility: FxHashMap::default(),
            sketch,
            current: FxHashMap::default(),
            tag_counts: Vec::new(),
            window_ticks,
        }
    }

    /// Records that `tag` annotated a document in `tick`.
    pub fn observe(&mut self, tick: Tick, tag: TagId) {
        self.counts.increment(tick, tag);
        *self.current.entry(tag).or_insert(0) += 1;
        if let Some(sketch) = &mut self.sketch {
            sketch.increment(tag);
        }
    }

    /// The exact windowed count of `tag`.
    pub fn windowed_count(&self, tag: TagId) -> u64 {
        self.counts.count(tag)
    }

    /// The windowed tag counts as of the last close, indexed by
    /// [`TagId::index`]. A tag past the end of the slice counts 0, as does
    /// every tag before the first close.
    pub fn tag_counts(&self) -> &[u64] {
        &self.tag_counts
    }

    /// Rebuilds [`SeedTracker::tag_counts`] from the windowed counts: the
    /// column is zero-filled, then every live tag's total is written. It
    /// grows only when a larger `TagId` appears, so a warm refresh does
    /// not allocate.
    pub fn refresh_tag_counts(&mut self) {
        self.tag_counts.fill(0);
        for (tag, count) in self.counts.iter() {
            let index = tag.index();
            if index >= self.tag_counts.len() {
                self.tag_counts.resize(index + 1, 0);
            }
            self.tag_counts[index] = count;
        }
    }

    /// The sliding-window average (count / window ticks) of `tag`.
    pub fn window_average(&self, tag: TagId) -> f64 {
        self.counts.window_average(tag)
    }

    /// Number of distinct tags alive in the window.
    pub fn distinct_tags(&self) -> usize {
        self.counts.distinct_keys()
    }

    /// Closes `tick`: updates volatility histories and returns the seed
    /// set, selected over the window whose newest slot is `tick`.
    pub fn close_tick(&mut self, tick: Tick) -> FxHashSet<TagId> {
        // Ensure the window's newest slot is the closing tick even if no
        // document arrived in it (gap ticks must expire old counts).
        self.counts.advance_to(tick);
        self.refresh_tag_counts();
        // Volatility histories get this tick's count (zero for absent tags
        // that already have history).
        if matches!(self.strategy, SeedStrategy::Volatility | SeedStrategy::Hybrid { .. }) {
            let mut seen: Vec<(TagId, u64)> = self.current.iter().map(|(&t, &c)| (t, c)).collect();
            seen.sort_unstable_by_key(|&(t, _)| t);
            for (tag, count) in seen {
                self.volatility
                    .entry(tag)
                    .or_insert_with(|| SlidingStats::new(self.window_ticks))
                    .push(count as f64);
            }
            let absent: Vec<TagId> =
                self.volatility.keys().filter(|t| !self.current.contains_key(t)).copied().collect();
            for tag in absent {
                self.volatility.get_mut(&tag).expect("key from same map").push(0.0);
            }
            // Drop volatility state for tags that vanished from the window.
            self.volatility.retain(|tag, _| self.counts.count(*tag) > 0);
        }
        self.current.clear();
        self.select()
    }

    /// Serializes the tracker's complete state — windowed counts,
    /// volatility histories (with their *running* float sums, restored
    /// verbatim), the Space-Saving sketch, and open-tick counts — into
    /// `w` (sorted key order; see [`crate::snapshot`]).
    pub(crate) fn encode_snapshot(&self, w: &mut SnapWriter) {
        w.opt_tick(self.counts.newest_tick());
        let per_tick = self.counts.per_tick_counts();
        w.usize(per_tick.len());
        for mut entries in per_tick {
            entries.sort_unstable_by_key(|&(tag, _)| tag);
            w.usize(entries.len());
            for (tag, count) in entries {
                w.tag(tag);
                w.u64(count);
            }
        }
        let mut volatility: Vec<(TagId, &SlidingStats)> =
            self.volatility.iter().map(|(&t, s)| (t, s)).collect();
        volatility.sort_unstable_by_key(|&(t, _)| t);
        w.usize(volatility.len());
        for (tag, stats) in volatility {
            w.tag(tag);
            w.usize(stats.len());
            for value in stats.values() {
                w.f64(value);
            }
            let (sum, sum_sq) = stats.sums();
            w.f64(sum);
            w.f64(sum_sq);
        }
        match &self.sketch {
            Some(sketch) => {
                w.u8(1);
                w.u64(sketch.total());
                let entries = sketch.entries();
                w.usize(entries.len());
                for (tag, count, error) in entries {
                    w.tag(tag);
                    w.u64(count);
                    w.u64(error);
                }
            }
            None => w.u8(0),
        }
        let mut current: Vec<(TagId, u64)> = self.current.iter().map(|(&t, &c)| (t, c)).collect();
        current.sort_unstable_by_key(|&(t, _)| t);
        w.usize(current.len());
        for (tag, count) in current {
            w.tag(tag);
            w.u64(count);
        }
    }

    /// Rebuilds a tracker from [`SeedTracker::encode_snapshot`] output
    /// under the resuming configuration's seed parameters.
    pub(crate) fn decode_snapshot(
        r: &mut SnapReader<'_>,
        strategy: SeedStrategy,
        seed_count: usize,
        min_seed_count: u64,
        window_ticks: usize,
    ) -> Result<Self, EnBlogueError> {
        let newest = r.opt_tick()?;
        let ticks = r.seq(8)?;
        if ticks > window_ticks {
            return Err(corrupt(format!(
                "seed counter holds {ticks} tick maps, window spans {window_ticks}"
            )));
        }
        if newest.is_none() && ticks > 0 {
            return Err(corrupt("seed tick maps without a newest tick"));
        }
        let mut per_tick = Vec::with_capacity(ticks);
        for _ in 0..ticks {
            let entries = r.seq(12)?;
            let mut map = Vec::with_capacity(entries);
            for _ in 0..entries {
                let tag = r.tag()?;
                let count = r.u64()?;
                map.push((tag, count));
            }
            per_tick.push(map);
        }
        let counts = WindowedCounter::from_per_tick_counts(window_ticks, newest, per_tick);

        let mut volatility = FxHashMap::default();
        let vol_entries = r.seq(20)?;
        for _ in 0..vol_entries {
            let tag = r.tag()?;
            let values = r.seq(8)?;
            if values > window_ticks {
                return Err(corrupt(format!(
                    "volatility history of {values} values exceeds the {window_ticks}-tick window"
                )));
            }
            let mut history = Vec::with_capacity(values);
            for _ in 0..values {
                history.push(r.f64()?);
            }
            let sum = r.f64()?;
            let sum_sq = r.f64()?;
            volatility.insert(tag, SlidingStats::from_parts(window_ticks, history, sum, sum_sq));
        }

        let sketch = match r.u8()? {
            0 => None,
            1 => {
                let SeedStrategy::SketchPopularity { capacity } = strategy else {
                    return Err(EnBlogueError::SnapshotConfigMismatch(
                        "snapshot carries a seed sketch but the strategy uses exact counts".into(),
                    ));
                };
                let total = r.u64()?;
                let entries = r.seq(20)?;
                if entries > capacity {
                    return Err(corrupt(format!(
                        "sketch monitors {entries} tags, capacity is {capacity}"
                    )));
                }
                let mut monitored = Vec::with_capacity(entries);
                for _ in 0..entries {
                    let tag = r.tag()?;
                    let count = r.u64()?;
                    let error = r.u64()?;
                    monitored.push((tag, count, error));
                }
                Some(SpaceSaving::from_parts(capacity, total, monitored))
            }
            tag => return Err(corrupt(format!("invalid sketch tag {tag}"))),
        };
        if sketch.is_none() && matches!(strategy, SeedStrategy::SketchPopularity { .. }) {
            return Err(EnBlogueError::SnapshotConfigMismatch(
                "sketch-popularity strategy resumed from a snapshot without a sketch".into(),
            ));
        }

        let mut current = FxHashMap::default();
        let open = r.seq(12)?;
        for _ in 0..open {
            let tag = r.tag()?;
            let count = r.u64()?;
            current.insert(tag, count);
        }

        Ok(SeedTracker {
            strategy,
            seed_count,
            min_seed_count,
            counts,
            volatility,
            sketch,
            current,
            tag_counts: Vec::new(),
            window_ticks,
        })
    }

    /// Selects the seed set from current statistics.
    fn select(&self) -> FxHashSet<TagId> {
        let qualifying = || self.counts.iter().filter(|&(_, c)| c >= self.min_seed_count);
        let mut seeds: Vec<TagId> = match self.strategy {
            SeedStrategy::Popularity => {
                let mut all: Vec<(TagId, u64)> = qualifying().collect();
                all.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                all.truncate(self.seed_count);
                all.into_iter().map(|(t, _)| t).collect()
            }
            SeedStrategy::Volatility => {
                let mut all: Vec<(TagId, f64)> = qualifying()
                    .map(|(t, _)| {
                        let cv = self
                            .volatility
                            .get(&t)
                            .map_or(0.0, SlidingStats::coefficient_of_variation);
                        (t, cv)
                    })
                    .collect();
                all.sort_unstable_by(|a, b| {
                    b.1.partial_cmp(&a.1).expect("finite volatility").then(a.0.cmp(&b.0))
                });
                all.truncate(self.seed_count);
                all.into_iter().map(|(t, _)| t).collect()
            }
            SeedStrategy::Hybrid { popularity_weight } => {
                // Rank-normalised blend so the two scales are comparable.
                let mut by_pop: Vec<(TagId, u64)> = qualifying().collect();
                by_pop.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                let n = by_pop.len().max(1) as f64;
                let mut blended: FxHashMap<TagId, f64> = FxHashMap::default();
                for (rank, &(tag, _)) in by_pop.iter().enumerate() {
                    let pop_score = 1.0 - rank as f64 / n;
                    blended.insert(tag, popularity_weight * pop_score);
                }
                let mut by_vol: Vec<(TagId, f64)> = by_pop
                    .iter()
                    .map(|&(t, _)| {
                        (
                            t,
                            self.volatility
                                .get(&t)
                                .map_or(0.0, SlidingStats::coefficient_of_variation),
                        )
                    })
                    .collect();
                by_vol.sort_unstable_by(|a, b| {
                    b.1.partial_cmp(&a.1).expect("finite volatility").then(a.0.cmp(&b.0))
                });
                for (rank, &(tag, _)) in by_vol.iter().enumerate() {
                    let vol_score = 1.0 - rank as f64 / n;
                    *blended.entry(tag).or_insert(0.0) += (1.0 - popularity_weight) * vol_score;
                }
                let mut all: Vec<(TagId, f64)> = blended.into_iter().collect();
                all.sort_unstable_by(|a, b| {
                    b.1.partial_cmp(&a.1).expect("finite blend").then(a.0.cmp(&b.0))
                });
                all.truncate(self.seed_count);
                all.into_iter().map(|(t, _)| t).collect()
            }
            SeedStrategy::SketchPopularity { .. } => {
                let sketch = self.sketch.as_ref().expect("sketch allocated for this strategy");
                sketch
                    .top_n(self.seed_count)
                    .into_iter()
                    .filter(|&(_, est)| est >= self.min_seed_count)
                    .map(|(t, _)| t)
                    .collect()
            }
        };
        seeds.sort_unstable();
        seeds.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(tracker: &mut SeedTracker, tick: u64, tag_counts: &[(u32, u64)]) -> FxHashSet<TagId> {
        for &(tag, count) in tag_counts {
            for _ in 0..count {
                tracker.observe(Tick(tick), TagId(tag));
            }
        }
        tracker.close_tick(Tick(tick))
    }

    #[test]
    fn popularity_selects_most_frequent() {
        let mut t = SeedTracker::new(SeedStrategy::Popularity, 2, 1, 4);
        let seeds = feed(&mut t, 0, &[(1, 10), (2, 5), (3, 1)]);
        assert!(seeds.contains(&TagId(1)));
        assert!(seeds.contains(&TagId(2)));
        assert!(!seeds.contains(&TagId(3)));
    }

    #[test]
    fn min_count_floor_applies() {
        let mut t = SeedTracker::new(SeedStrategy::Popularity, 5, 4, 4);
        let seeds = feed(&mut t, 0, &[(1, 10), (2, 3)]);
        assert_eq!(seeds.len(), 1, "tag 2 below floor");
        assert!(seeds.contains(&TagId(1)));
    }

    #[test]
    fn popularity_is_windowed() {
        let mut t = SeedTracker::new(SeedStrategy::Popularity, 1, 1, 2);
        feed(&mut t, 0, &[(1, 10)]);
        feed(&mut t, 1, &[(2, 3)]);
        // Window = 2 ticks: tag 1 (10) still beats tag 2 (3).
        let seeds = feed(&mut t, 2, &[(2, 3)]);
        // Tick 0 has expired: tag 2 has 6 in window, tag 1 has 0.
        assert!(seeds.contains(&TagId(2)), "expired popularity must not linger");
        assert_eq!(t.windowed_count(TagId(1)), 0);
    }

    #[test]
    fn window_average_matches_paper_definition() {
        let mut t = SeedTracker::new(SeedStrategy::Popularity, 5, 1, 4);
        feed(&mut t, 0, &[(1, 8)]);
        assert_eq!(t.window_average(TagId(1)), 2.0);
    }

    #[test]
    fn volatility_prefers_swinging_tags() {
        let mut t = SeedTracker::new(SeedStrategy::Volatility, 1, 1, 8);
        // Tag 1: constant 5/tick. Tag 2: alternating 1 and 9.
        for tick in 0..8u64 {
            let swing = if tick % 2 == 0 { 1 } else { 9 };
            feed(&mut t, tick, &[(1, 5), (2, swing)]);
        }
        let seeds = feed(&mut t, 8, &[(1, 5), (2, 1)]);
        assert!(seeds.contains(&TagId(2)), "volatile tag must win the single seed slot");
    }

    #[test]
    fn hybrid_blends_both_signals() {
        let mut t = SeedTracker::new(SeedStrategy::Hybrid { popularity_weight: 0.5 }, 2, 1, 8);
        // Tag 1: very popular, flat. Tag 2: volatile, mid volume.
        // Tag 3: unpopular and flat.
        for tick in 0..8u64 {
            let swing = if tick % 2 == 0 { 1 } else { 11 };
            feed(&mut t, tick, &[(1, 20), (2, swing), (3, 2)]);
        }
        let seeds = feed(&mut t, 8, &[(1, 20), (2, 1), (3, 2)]);
        assert!(seeds.contains(&TagId(1)));
        assert!(seeds.contains(&TagId(2)));
        assert!(!seeds.contains(&TagId(3)));
    }

    #[test]
    fn sketch_popularity_approximates_exact() {
        let mut exact = SeedTracker::new(SeedStrategy::Popularity, 5, 1, 4);
        let mut sketch = SeedTracker::new(SeedStrategy::SketchPopularity { capacity: 16 }, 5, 1, 4);
        // Heavy skew: tags 0-4 dominate a 40-tag universe.
        for tick in 0..4u64 {
            for tag in 0..5u32 {
                for _ in 0..50 {
                    exact.observe(Tick(tick), TagId(tag));
                    sketch.observe(Tick(tick), TagId(tag));
                }
            }
            for tag in 5..40u32 {
                exact.observe(Tick(tick), TagId(tag));
                sketch.observe(Tick(tick), TagId(tag));
            }
            let e = exact.close_tick(Tick(tick));
            let s = sketch.close_tick(Tick(tick));
            if tick > 0 {
                let overlap = e.intersection(&s).count();
                assert!(overlap >= 4, "sketch seeds diverged: {overlap}/5 overlap");
            }
        }
    }

    #[test]
    fn determinism_across_instances() {
        let run = || {
            let mut t = SeedTracker::new(SeedStrategy::Popularity, 3, 1, 4);
            let mut out = Vec::new();
            for tick in 0..5u64 {
                let mut seeds: Vec<TagId> =
                    feed(&mut t, tick, &[(1, 5), (2, 5), (3, 5), (4, 2)]).into_iter().collect();
                seeds.sort_unstable();
                out.push(seeds);
            }
            out
        };
        assert_eq!(run(), run());
    }

    /// Reads the dense column the way the scoring closure does.
    fn column_count(t: &SeedTracker, tag: TagId) -> u64 {
        t.tag_counts().get(tag.index()).copied().unwrap_or(0)
    }

    #[test]
    fn tag_count_column_matches_windowed_counts_after_every_close() {
        let mut t = SeedTracker::new(SeedStrategy::Popularity, 4, 1, 3);
        // A small LCG stream: ticks with gaps, tags drawn from 0..40.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |bound: u64| {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (state >> 33) % bound
        };
        let mut tick = 0u64;
        for _ in 0..40 {
            tick += 1 + next(2);
            for _ in 0..next(30) {
                t.observe(Tick(tick), TagId(next(40) as u32));
            }
            t.close_tick(Tick(tick));
            for tag in 0..48u32 {
                let tag = TagId(tag);
                assert_eq!(column_count(&t, tag), t.windowed_count(tag), "{tag:?} at tick {tick}");
            }
        }
    }

    #[test]
    fn drained_tag_reads_zero_after_the_next_close() {
        let mut t = SeedTracker::new(SeedStrategy::Popularity, 2, 1, 2);
        feed(&mut t, 0, &[(7, 3), (1, 1)]);
        assert_eq!(column_count(&t, TagId(7)), 3);
        feed(&mut t, 1, &[(1, 1)]);
        assert_eq!(column_count(&t, TagId(7)), 3, "tick 0 is still in the window");
        feed(&mut t, 2, &[(1, 1)]);
        assert_eq!(t.windowed_count(TagId(7)), 0);
        assert_eq!(column_count(&t, TagId(7)), 0, "the drained tag's entry is zeroed");
        assert_eq!(column_count(&t, TagId(1)), 2);
    }

    #[test]
    fn tag_past_the_column_end_reads_zero() {
        let mut t = SeedTracker::new(SeedStrategy::Popularity, 2, 1, 4);
        assert!(t.tag_counts().is_empty(), "no column before the first close");
        feed(&mut t, 0, &[(5, 2)]);
        assert_eq!(t.tag_counts().len(), 6, "sized by the largest live tag");
        assert_eq!(column_count(&t, TagId(6)), 0);
        assert_eq!(column_count(&t, TagId(u32::MAX)), 0);
        // A smaller tag does not shrink or regrow the column.
        feed(&mut t, 1, &[(2, 1)]);
        assert_eq!(t.tag_counts().len(), 6);
        assert_eq!(column_count(&t, TagId(2)), 1);
    }

    #[test]
    fn empty_stream_selects_nothing() {
        let mut t = SeedTracker::new(SeedStrategy::Popularity, 5, 1, 4);
        let seeds = t.close_tick(Tick(0));
        assert!(seeds.is_empty());
        assert_eq!(t.distinct_tags(), 0);
    }
}
