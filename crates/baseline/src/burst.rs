//! Per-tag burst detection over tick-aligned arrival counts.

use crate::grouping::group_bursty_tags;
use enblogue_types::{Document, FxHashMap, RankingSnapshot, TagId, TagPair, Tick, TickSpec};
use enblogue_window::{SlidingStats, WindowedCounter};

/// Baseline configuration.
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// Ticks of history used for each tag's mean/stddev.
    pub history_ticks: usize,
    /// Ticks of the co-occurrence window used for grouping.
    pub window_ticks: usize,
    /// Burst threshold: count > mean + gamma·stddev.
    pub gamma: f64,
    /// Minimum per-tick count for a burst (suppresses 0→1 "bursts").
    pub min_support: u64,
    /// Jaccard threshold for putting two bursty tags in one trend.
    pub group_jaccard: f64,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            history_ticks: 24,
            window_ticks: 6,
            gamma: 3.0,
            min_support: 5,
            group_jaccard: 0.1,
        }
    }
}

impl BaselineConfig {
    /// The tuning used against EnBlogue on daily-tick archives: two weeks
    /// of history, a 5-day grouping window and a 2σ gate.
    pub fn daily() -> Self {
        BaselineConfig {
            history_ticks: 14,
            window_ticks: 5,
            gamma: 2.0,
            min_support: 5,
            group_jaccard: 0.05,
        }
    }
}

/// Replays timestamp-sorted `docs` through a fresh [`BurstBaseline`] and
/// turns each tick's trends into a [`RankingSnapshot`] (covered pairs
/// scored by trend strength, top `k`), so the baseline is scored with the
/// same metric as EnBlogue. One snapshot per tick from tick 0 through the
/// last document's tick.
pub fn replay_snapshots(
    docs: &[Document],
    tick_spec: TickSpec,
    config: BaselineConfig,
    k: usize,
) -> Vec<RankingSnapshot> {
    let mut baseline = BurstBaseline::new(config);
    let mut snapshots = Vec::new();
    let mut close = |baseline: &mut BurstBaseline, tick: Tick| {
        let mut ranked: Vec<(TagPair, f64)> = Vec::new();
        for trend in baseline.close_tick(tick) {
            ranked.extend(trend.covered_pairs().into_iter().map(|pair| (pair, trend.score)));
        }
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite scores"));
        ranked.truncate(k);
        snapshots.push(RankingSnapshot { tick, time: tick_spec.end_of(tick), ranked });
    };
    let mut open = Tick::ZERO;
    for doc in docs {
        let tick = tick_spec.tick_of(doc.timestamp);
        while open < tick {
            close(&mut baseline, open);
            open = open.next();
        }
        baseline.observe_doc(doc);
    }
    close(&mut baseline, open);
    snapshots
}

/// A bursting tag with its burst strength.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstInfo {
    /// The bursting tag.
    pub tag: TagId,
    /// Z-score of the current tick count against the tag's history.
    pub zscore: f64,
    /// The current tick count.
    pub count: u64,
}

/// One detected trend: a group of co-occurring bursty tags.
#[derive(Debug, Clone, PartialEq)]
pub struct Trend {
    /// Member tags, sorted.
    pub tags: Vec<TagId>,
    /// Aggregate strength (sum of member z-scores).
    pub score: f64,
}

impl Trend {
    /// All tag pairs covered by this trend (a trend of one tag covers no
    /// pair). Used to compare against EnBlogue's pair-level ground truth.
    pub fn covered_pairs(&self) -> Vec<TagPair> {
        let mut pairs = Vec::new();
        for i in 0..self.tags.len() {
            for j in i + 1..self.tags.len() {
                pairs.push(TagPair::new(self.tags[i], self.tags[j]));
            }
        }
        pairs
    }
}

/// The TwitterMonitor-style detector.
///
/// Feed documents with [`BurstBaseline::observe_doc`]; close each tick
/// with [`BurstBaseline::close_tick`], which returns the trends detected
/// at that boundary, strongest first.
pub struct BurstBaseline {
    config: BaselineConfig,
    /// Per-tag count in the open tick.
    current: FxHashMap<TagId, u64>,
    /// Per-tag history statistics over closed ticks.
    history: FxHashMap<TagId, SlidingStats>,
    /// Tag counts over the grouping window (for Jaccard denominators).
    window_counts: WindowedCounter<TagId>,
    /// Pair co-occurrence counts over the grouping window.
    ///
    /// Key: packed [`TagPair`]. Co-occurrence is only recorded between tags
    /// that appear together in a document, which is sparse in practice; the
    /// windowed counter evicts stale pairs automatically.
    window_pairs: WindowedCounter<u64>,
    open_tick: Option<Tick>,
}

impl BurstBaseline {
    /// A detector with the given configuration.
    ///
    /// # Panics
    /// Panics on degenerate window sizes.
    pub fn new(config: BaselineConfig) -> Self {
        assert!(config.history_ticks >= 2, "history must span at least two ticks");
        assert!(config.window_ticks >= 1, "grouping window must be at least one tick");
        BurstBaseline {
            window_counts: WindowedCounter::new(config.window_ticks),
            window_pairs: WindowedCounter::new(config.window_ticks),
            config,
            current: FxHashMap::default(),
            history: FxHashMap::default(),
            open_tick: None,
        }
    }

    /// Accumulates one document into the open tick.
    ///
    /// Tags and entities are treated uniformly (the baseline monitors
    /// keywords; EnBlogue's combined annotation view is the fair input).
    pub fn observe_doc(&mut self, doc: &Document) {
        let tick = self.open_tick.unwrap_or(Tick::ZERO);
        let annotations: Vec<TagId> = doc.annotations().collect();
        for &tag in &annotations {
            *self.current.entry(tag).or_insert(0) += 1;
            self.window_counts.increment(tick, tag);
        }
        for i in 0..annotations.len() {
            for j in i + 1..annotations.len() {
                let pair = TagPair::new(annotations[i], annotations[j]);
                self.window_pairs.increment(tick, pair.packed());
            }
        }
    }

    /// Closes `tick`, returning detected trends (strongest first) and
    /// advancing all windows.
    pub fn close_tick(&mut self, tick: Tick) -> Vec<Trend> {
        // 1. Burst detection against each tag's own history.
        let mut bursting: Vec<BurstInfo> = Vec::new();
        for (&tag, &count) in &self.current {
            if count < self.config.min_support {
                continue;
            }
            let stats = self.history.get(&tag);
            let (mean, sd, n) = match stats {
                Some(s) => (s.mean(), s.stddev(), s.len()),
                None => (0.0, 0.0, 0),
            };
            // A tag with no history cannot burst: there is nothing to
            // deviate from (mirrors TwitterMonitor's warm-up behaviour).
            if n < 2 {
                continue;
            }
            let threshold = mean + self.config.gamma * sd;
            if (count as f64) > threshold && count as f64 > mean {
                let z = if sd > f64::EPSILON {
                    (count as f64 - mean) / sd
                } else {
                    // Deviation from a perfectly flat history: scale by the
                    // relative jump so scores stay comparable.
                    (count as f64 - mean) / mean.max(1.0)
                };
                bursting.push(BurstInfo { tag, zscore: z, count });
            }
        }

        // 2. Update histories with the closing tick (tags absent this tick
        //    contribute zero to their history).
        let mut seen: Vec<TagId> = self.current.keys().copied().collect();
        seen.sort_unstable();
        for tag in seen {
            let count = self.current[&tag];
            self.history
                .entry(tag)
                .or_insert_with(|| SlidingStats::new(self.config.history_ticks))
                .push(count as f64);
        }
        // Tags with history but no arrivals this tick get a zero sample.
        let absent: Vec<TagId> =
            self.history.keys().filter(|t| !self.current.contains_key(t)).copied().collect();
        for tag in absent {
            self.history.get_mut(&tag).expect("key from same map").push(0.0);
        }
        self.current.clear();

        // 3. Group bursty tags by windowed co-occurrence.
        let trends = group_bursty_tags(
            &bursting,
            &self.window_counts,
            &self.window_pairs,
            self.config.group_jaccard,
        );

        // 4. Advance windows past the closed tick.
        self.open_tick = Some(tick.next());
        self.window_counts.advance_to(tick.next());
        self.window_pairs.advance_to(tick.next());
        trends
    }

    /// Number of tags currently carrying history state.
    pub fn tracked_tags(&self) -> usize {
        self.history.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enblogue_types::Timestamp;

    fn doc(id: u64, tags: &[u32]) -> Document {
        Document::builder(id, Timestamp::ZERO).tags(tags.iter().map(|&t| TagId(t))).build()
    }

    fn feed_tick(b: &mut BurstBaseline, tick: u64, docs: &[&[u32]]) -> Vec<Trend> {
        for (i, tags) in docs.iter().enumerate() {
            b.observe_doc(&doc(tick * 1000 + i as u64, tags));
        }
        b.close_tick(Tick(tick))
    }

    fn config() -> BaselineConfig {
        BaselineConfig {
            history_ticks: 8,
            window_ticks: 4,
            gamma: 2.0,
            min_support: 3,
            group_jaccard: 0.2,
        }
    }

    #[test]
    fn steady_rate_never_bursts() {
        let mut b = BurstBaseline::new(config());
        for tick in 0..20 {
            let trends = feed_tick(&mut b, tick, &[&[1], &[1], &[1], &[1]]);
            assert!(trends.is_empty(), "steady tag burst at tick {tick}");
        }
    }

    #[test]
    fn sudden_spike_bursts() {
        let mut b = BurstBaseline::new(config());
        for tick in 0..10 {
            feed_tick(&mut b, tick, &[&[1], &[1], &[1], &[1]]);
        }
        // Tick 10: tag 1 spikes from 4/tick to 20/tick.
        let docs: Vec<&[u32]> = (0..20).map(|_| &[1u32][..]).collect();
        let trends = feed_tick(&mut b, 10, &docs);
        assert_eq!(trends.len(), 1);
        assert_eq!(trends[0].tags, vec![TagId(1)]);
        assert!(trends[0].score > 2.0);
    }

    #[test]
    fn warmup_does_not_burst() {
        let mut b = BurstBaseline::new(config());
        // First-ever tick with large counts: no history, no burst.
        let docs: Vec<&[u32]> = (0..20).map(|_| &[1u32][..]).collect();
        let trends = feed_tick(&mut b, 0, &docs);
        assert!(trends.is_empty());
    }

    #[test]
    fn min_support_suppresses_tiny_bursts() {
        let mut b = BurstBaseline::new(config());
        for tick in 0..10 {
            feed_tick(&mut b, tick, &[&[1]]);
        }
        // 1 → 2 docs is a big relative jump but below min_support = 3.
        let trends = feed_tick(&mut b, 10, &[&[1], &[1]]);
        assert!(trends.is_empty());
    }

    #[test]
    fn co_bursting_co_occurring_tags_group() {
        let mut b = BurstBaseline::new(config());
        for tick in 0..10 {
            feed_tick(&mut b, tick, &[&[1], &[2], &[1], &[2]]);
        }
        // Both tags spike *in the same documents*.
        let docs: Vec<&[u32]> = (0..15).map(|_| &[1u32, 2u32][..]).collect();
        let trends = feed_tick(&mut b, 10, &docs);
        assert_eq!(trends.len(), 1, "one merged trend, got {trends:?}");
        assert_eq!(trends[0].tags, vec![TagId(1), TagId(2)]);
        assert_eq!(trends[0].covered_pairs(), vec![TagPair::new(TagId(1), TagId(2))]);
    }

    #[test]
    fn co_bursting_unrelated_tags_stay_separate() {
        let mut b = BurstBaseline::new(config());
        for tick in 0..10 {
            feed_tick(&mut b, tick, &[&[1], &[2], &[1], &[2]]);
        }
        // Both spike but never share a document.
        let mut docs: Vec<&[u32]> = Vec::new();
        for _ in 0..10 {
            docs.push(&[1]);
            docs.push(&[2]);
        }
        let trends = feed_tick(&mut b, 10, &docs);
        assert_eq!(trends.len(), 2, "unrelated bursts must not merge: {trends:?}");
        for t in &trends {
            assert_eq!(t.tags.len(), 1);
            assert!(t.covered_pairs().is_empty());
        }
    }

    #[test]
    fn figure1_blind_spot_intersection_growth_without_burst() {
        // The paper's core claim: growth in the *intersection* with flat
        // individual rates is invisible to burst detection.
        let mut b = BurstBaseline::new(config());
        // Tags 1 and 2 each appear in 6 docs/tick, never together.
        for tick in 0..10 {
            let mut docs: Vec<&[u32]> = Vec::new();
            for _ in 0..6 {
                docs.push(&[1]);
                docs.push(&[2]);
            }
            feed_tick(&mut b, tick, &docs);
        }
        // Now the same 6+6 volume, but 5 of each are the same documents:
        // intersection jumps from 0 to 5 while per-tag counts stay 6.
        for tick in 10..14 {
            let mut docs: Vec<&[u32]> = vec![&[1], &[2]];
            for _ in 0..5 {
                docs.push(&[1, 2]);
            }
            let trends = feed_tick(&mut b, tick, &docs);
            assert!(
                trends.is_empty(),
                "baseline must NOT see the correlation shift at tick {tick}: {trends:?}"
            );
        }
    }

    #[test]
    fn trends_ranked_by_score() {
        let mut b = BurstBaseline::new(config());
        for tick in 0..10 {
            feed_tick(&mut b, tick, &[&[1], &[1], &[2], &[2]]);
        }
        // Tag 1 spikes harder than tag 2; both burst, disjoint docs.
        let mut docs: Vec<&[u32]> = Vec::new();
        for _ in 0..30 {
            docs.push(&[1]);
        }
        for _ in 0..8 {
            docs.push(&[2]);
        }
        let trends = feed_tick(&mut b, 10, &docs);
        assert_eq!(trends.len(), 2);
        assert_eq!(trends[0].tags, vec![TagId(1)], "stronger burst first");
        assert!(trends[0].score > trends[1].score);
    }

    #[test]
    fn baseline_adapter_produces_tick_aligned_snapshots() {
        // 60 days of two co-tagged documents each, except an empty day 30.
        // The gap must still get its snapshot, and so must the last day.
        let docs: Vec<Document> = (0..60u64)
            .filter(|&day| day != 30)
            .flat_map(|day| {
                (0..2).map(move |i| {
                    Document::builder(day * 10 + i, Timestamp::from_days(day).plus(i))
                        .tags([TagId(1), TagId(2 + i as u32)])
                        .build()
                })
            })
            .collect();
        let snaps = replay_snapshots(&docs, TickSpec::daily(), BaselineConfig::default(), 1);
        assert_eq!(snaps.len(), 60, "one snapshot per tick, including the last");
        for (i, s) in snaps.iter().enumerate() {
            assert_eq!(s.tick, Tick(i as u64));
            assert_eq!(s.time, TickSpec::daily().end_of(Tick(i as u64)));
            assert!(s.ranked.len() <= 1);
        }
    }

    #[test]
    fn entities_count_as_keywords() {
        let mut b = BurstBaseline::new(config());
        let d = Document::builder(1, Timestamp::ZERO).tag(TagId(1)).entity(TagId(100)).build();
        b.observe_doc(&d);
        b.close_tick(Tick(0));
        assert_eq!(b.tracked_tags(), 2);
    }
}
