//! Engine output: emergent-topic rankings.

use crate::pair::TagPair;
use crate::time::{Tick, Timestamp};
use serde::{Deserialize, Serialize};

/// One emitted ranking: the engine's top-k emergent topics at a tick close.
///
/// §3(iii): "These values are used to rank tag pairs and to report the
/// top-k most interesting ones, thus presenting the user with emergent
/// topics." Snapshots are what the ranking sink pushes to the front-end
/// and what the evaluation harness scores against ground truth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankingSnapshot {
    /// The tick this ranking closes.
    pub tick: Tick,
    /// Stream time at the tick end.
    pub time: Timestamp,
    /// `(pair, score)`, best first.
    pub ranked: Vec<(TagPair, f64)>,
}

impl RankingSnapshot {
    /// Rank position (0-based) of `pair`, if present.
    pub fn rank_of(&self, pair: TagPair) -> Option<usize> {
        self.ranked.iter().position(|&(p, _)| p == pair)
    }

    /// Whether `pair` is in the top `k` of this snapshot.
    pub fn contains_in_top(&self, pair: TagPair, k: usize) -> bool {
        self.rank_of(pair).is_some_and(|r| r < k)
    }

    /// The score of `pair`, if ranked.
    pub fn score_of(&self, pair: TagPair) -> Option<f64> {
        self.ranked.iter().find(|&&(p, _)| p == pair).map(|&(_, s)| s)
    }

    /// The best `k` entries (the whole ranking when it is shorter).
    pub fn top(&self, k: usize) -> &[(TagPair, f64)] {
        &self.ranked[..k.min(self.ranked.len())]
    }

    /// The ranked pairs containing `tag`, best first. Sized exactly: one
    /// allocation when something matches, none otherwise.
    pub fn pairs_with_tag(&self, tag: crate::tag::TagId) -> Vec<(TagPair, f64)> {
        let has_tag = |p: &TagPair| p.lo() == tag || p.hi() == tag;
        let mut out = Vec::with_capacity(self.ranked.iter().filter(|(p, _)| has_tag(p)).count());
        out.extend(self.ranked.iter().filter(|(p, _)| has_tag(p)));
        out
    }

    /// Iterates the distinct member tags of the ranked pairs, in ranking
    /// order (each pair contributes its low then high tag; duplicates
    /// across pairs are *not* filtered — callers that need a set should
    /// collect and dedup).
    pub fn member_tags(&self) -> impl Iterator<Item = crate::tag::TagId> + '_ {
        self.ranked.iter().flat_map(|&(p, _)| [p.lo(), p.hi()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::TagId;

    fn pair(a: u32, b: u32) -> TagPair {
        TagPair::new(TagId(a), TagId(b))
    }

    #[test]
    fn lookup_helpers() {
        let snap = RankingSnapshot {
            tick: Tick(3),
            time: Timestamp::from_hours(3),
            ranked: vec![(pair(1, 2), 0.9), (pair(3, 4), 0.4)],
        };
        assert_eq!(snap.rank_of(pair(1, 2)), Some(0));
        assert_eq!(snap.rank_of(pair(3, 4)), Some(1));
        assert_eq!(snap.rank_of(pair(5, 6)), None);
        assert!(snap.contains_in_top(pair(1, 2), 1));
        assert!(!snap.contains_in_top(pair(3, 4), 1));
        assert_eq!(snap.score_of(pair(3, 4)), Some(0.4));
        assert_eq!(snap.score_of(pair(5, 6)), None);
        assert_eq!(snap.top(0), &[][..]);
        assert_eq!(snap.top(5), &snap.ranked[..]);
        assert_eq!(snap.pairs_with_tag(TagId(3)), vec![(pair(3, 4), 0.4)]);
        assert!(snap.pairs_with_tag(TagId(9)).is_empty());
    }
}
