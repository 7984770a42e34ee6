//! Canonical unordered tag pairs — the candidate topics of EnBlogue.

use crate::tag::TagId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An unordered pair of distinct tags, stored in canonical `(lo, hi)` order.
///
/// A candidate emergent topic is a pair of tags of which at least one is a
/// seed (§3(i) of the paper). Canonical ordering guarantees that
/// `(a, b)` and `(b, a)` address the same tracked state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TagPair {
    lo: TagId,
    hi: TagId,
}

impl TagPair {
    /// Creates the canonical pair of `a` and `b`.
    ///
    /// # Panics
    /// Panics if `a == b` — a tag's correlation with itself is always 1 and
    /// never an emergent topic; forming such a pair is a logic error.
    #[inline]
    pub fn new(a: TagId, b: TagId) -> Self {
        assert_ne!(a, b, "a TagPair requires two distinct tags");
        if a < b {
            TagPair { lo: a, hi: b }
        } else {
            TagPair { lo: b, hi: a }
        }
    }

    /// Creates the canonical pair if the tags are distinct.
    #[inline]
    pub fn try_new(a: TagId, b: TagId) -> Option<Self> {
        if a == b {
            None
        } else {
            Some(TagPair::new(a, b))
        }
    }

    /// The smaller tag id of the pair.
    #[inline]
    pub const fn lo(self) -> TagId {
        self.lo
    }

    /// The larger tag id of the pair.
    #[inline]
    pub const fn hi(self) -> TagId {
        self.hi
    }

    /// Whether `tag` is one of the two members.
    #[inline]
    pub fn contains(self, tag: TagId) -> bool {
        self.lo == tag || self.hi == tag
    }

    /// Given one member, returns the other; `None` if `tag` is not a member.
    #[inline]
    pub fn other(self, tag: TagId) -> Option<TagId> {
        if tag == self.lo {
            Some(self.hi)
        } else if tag == self.hi {
            Some(self.lo)
        } else {
            None
        }
    }

    /// Packs the pair into a single `u64` key (`lo` in the high bits).
    ///
    /// Hot maps key tracked pairs by this packed form; packing preserves the
    /// canonical ordering, so packed keys sort like pairs.
    #[inline]
    pub const fn packed(self) -> u64 {
        ((self.lo.0 as u64) << 32) | self.hi.0 as u64
    }

    /// Inverse of [`TagPair::packed`].
    #[inline]
    pub const fn from_packed(key: u64) -> Self {
        TagPair { lo: TagId((key >> 32) as u32), hi: TagId(key as u32) }
    }

    /// The shard store of this pair in a pool of `shards` stores —
    /// convenience for [`shard_of_packed`] on the packed key. The pair
    /// registry and the partitioner route by the same function, so this
    /// names the store that owns the pair's state.
    #[inline]
    pub fn shard(self, shards: usize) -> usize {
        shard_of_packed(self.packed(), shards)
    }
}

/// Maps a [packed](TagPair::packed) pair key to one of `shards` shards.
///
/// This is the single routing function shared by every layer that
/// partitions pair state (windowed pair counters, the sharded registry,
/// shard-parallel tick close): all of them **must** agree on the
/// assignment, so it lives here in the vocabulary crate.
///
/// The key is finalised with a SplitMix64-style mix before the modulo:
/// packed keys share low bits whenever pairs share their `hi` member, and
/// a plain `packed % shards` would route all pairs of one popular tag to
/// few shards. The mix is fixed — shard assignment is part of the
/// deterministic replay contract (same stream + same shard count ⇒ same
/// per-shard state), and rankings are required to be identical for *any*
/// shard count.
///
/// # Panics
/// Panics if `shards` is zero.
#[inline]
pub fn shard_of_packed(packed: u64, shards: usize) -> usize {
    assert!(shards > 0, "shard count must be positive");
    if shards == 1 {
        return 0;
    }
    let mut z = packed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % shards as u64) as usize
}

impl fmt::Display for TagPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_is_canonical() {
        let p1 = TagPair::new(TagId(5), TagId(2));
        let p2 = TagPair::new(TagId(2), TagId(5));
        assert_eq!(p1, p2);
        assert_eq!(p1.lo(), TagId(2));
        assert_eq!(p1.hi(), TagId(5));
    }

    #[test]
    #[should_panic(expected = "two distinct tags")]
    fn self_pair_panics() {
        let _ = TagPair::new(TagId(3), TagId(3));
    }

    #[test]
    fn try_new_rejects_self_pair() {
        assert!(TagPair::try_new(TagId(3), TagId(3)).is_none());
        assert!(TagPair::try_new(TagId(3), TagId(4)).is_some());
    }

    #[test]
    fn membership_queries() {
        let p = TagPair::new(TagId(1), TagId(9));
        assert!(p.contains(TagId(1)));
        assert!(p.contains(TagId(9)));
        assert!(!p.contains(TagId(5)));
        assert_eq!(p.other(TagId(1)), Some(TagId(9)));
        assert_eq!(p.other(TagId(9)), Some(TagId(1)));
        assert_eq!(p.other(TagId(5)), None);
    }

    #[test]
    fn packing_round_trips() {
        let p = TagPair::new(TagId(u32::MAX - 1), TagId(7));
        assert_eq!(TagPair::from_packed(p.packed()), p);
        let q = TagPair::new(TagId(0), TagId(1));
        assert_eq!(TagPair::from_packed(q.packed()), q);
    }

    #[test]
    fn packing_preserves_order() {
        let small = TagPair::new(TagId(1), TagId(2));
        let large = TagPair::new(TagId(1), TagId(3));
        let larger = TagPair::new(TagId(2), TagId(3));
        assert!(small.packed() < large.packed());
        assert!(large.packed() < larger.packed());
        assert!(small < large && large < larger);
    }

    #[test]
    fn display_shows_both_ids() {
        let p = TagPair::new(TagId(4), TagId(2));
        assert_eq!(p.to_string(), "(#2, #4)");
    }

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        let p = TagPair::new(TagId(17), TagId(90210));
        for shards in [1usize, 2, 4, 16, 31] {
            let s = p.shard(shards);
            assert!(s < shards);
            assert_eq!(s, shard_of_packed(p.packed(), shards), "method and free fn agree");
            assert_eq!(s, p.shard(shards), "assignment is deterministic");
        }
        assert_eq!(p.shard(1), 0);
    }

    #[test]
    fn shard_routing_spreads_shared_hi_members() {
        // All pairs (x, hi) share low packed bits; the mix must still
        // spread them across shards instead of collapsing onto one.
        let shards = 8;
        let mut seen = std::collections::HashSet::new();
        for lo in 0u32..64 {
            seen.insert(TagPair::new(TagId(lo), TagId(1_000_000)).shard(shards));
        }
        assert!(seen.len() >= shards / 2, "only {} of {shards} shards hit", seen.len());
    }

    #[test]
    #[should_panic(expected = "shard count")]
    fn zero_shards_panics() {
        let _ = shard_of_packed(7, 0);
    }
}
