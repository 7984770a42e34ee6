//! Space-Saving heavy hitters (Metwally, Agrawal, El Abbadi 2005).

use enblogue_types::FxHashMap;
use std::hash::Hash;

/// The Space-Saving algorithm: approximate top-k frequent items with `m`
/// counters.
///
/// EnBlogue can select seed tags from a sketch instead of exact windowed
/// counters when the tag universe is huge (`SeedStrategy::SketchPopularity`,
/// scored by the `seeds=sketch(…)` rows of `QUALITY.json`). Guarantees: every
/// item with true count `> N/m` is in the summary, and each reported count
/// overestimates the true count by at most its stored `error`.
#[derive(Debug, Clone)]
pub struct SpaceSaving<K: Eq + Hash + Copy> {
    capacity: usize,
    /// key → (count, error). Size ≤ capacity.
    counters: FxHashMap<K, (u64, u64)>,
    total: u64,
}

impl<K: Eq + Hash + Copy> SpaceSaving<K> {
    /// A summary with `capacity` monitored items.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "summary capacity must be positive");
        SpaceSaving { capacity, counters: FxHashMap::default(), total: 0 }
    }

    /// Number of monitored item slots.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total number of observed occurrences.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of currently monitored items.
    #[inline]
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Whether nothing has been observed yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Observes `by` occurrences of `key`.
    pub fn add(&mut self, key: K, by: u64)
    where
        K: Ord,
    {
        self.total += by;
        if let Some((count, _)) = self.counters.get_mut(&key) {
            *count += by;
            return;
        }
        if self.counters.len() < self.capacity {
            self.counters.insert(key, (by, 0));
            return;
        }
        // Evict the minimum counter; the newcomer inherits its count as
        // error bound (classic Space-Saving replacement). Ties break on
        // the smallest key, not map order, so the summary is a pure
        // function of the observation sequence — a snapshot-restored map
        // (different layout, same contents) evicts identically.
        let (&min_key, &(min_count, _)) = self
            .counters
            .iter()
            .min_by_key(|(&key, &(count, _))| (count, key))
            .expect("non-empty at capacity");
        self.counters.remove(&min_key);
        self.counters.insert(key, (min_count + by, min_count));
    }

    /// Observes one occurrence of `key`.
    #[inline]
    pub fn increment(&mut self, key: K)
    where
        K: Ord,
    {
        self.add(key, 1);
    }

    /// The estimated count of `key` (upper bound on the true count), or
    /// `None` if the key is not monitored.
    pub fn estimate(&self, key: K) -> Option<u64> {
        self.counters.get(&key).map(|&(count, _)| count)
    }

    /// The maximum overestimation for `key`, if monitored.
    pub fn error(&self, key: K) -> Option<u64> {
        self.counters.get(&key).map(|&(_, error)| error)
    }

    /// *Guaranteed* heavy hitters: monitored items whose lower bound
    /// (`count − error`) is at least `threshold`.
    pub fn guaranteed_at_least(&self, threshold: u64) -> Vec<(K, u64)>
    where
        K: Ord,
    {
        let mut out: Vec<(K, u64)> = self
            .counters
            .iter()
            .filter(|(_, (count, error))| count - error >= threshold)
            .map(|(&k, &(count, _))| (k, count))
            .collect();
        out.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// The `n` items with the largest estimated counts, descending
    /// (deterministic tie-break on key).
    pub fn top_n(&self, n: usize) -> Vec<(K, u64)>
    where
        K: Ord,
    {
        let mut all: Vec<(K, u64)> =
            self.counters.iter().map(|(&k, &(count, _))| (k, count)).collect();
        all.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        all.truncate(n);
        all
    }

    /// Memory footprint estimate in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.capacity * (std::mem::size_of::<K>() + 2 * std::mem::size_of::<u64>())
    }

    /// All monitored counters as `(key, estimate, error)`, sorted by key —
    /// dehydrated state for the snapshot seam.
    pub fn entries(&self) -> Vec<(K, u64, u64)>
    where
        K: Ord,
    {
        let mut out: Vec<(K, u64, u64)> =
            self.counters.iter().map(|(&k, &(count, error))| (k, count, error)).collect();
        out.sort_unstable_by_key(|&(k, _, _)| k);
        out
    }

    /// Rehydrates a summary from [`SpaceSaving::entries`] output plus the
    /// grand total.
    ///
    /// # Panics
    /// Panics if `capacity` is zero or more entries than the capacity are
    /// supplied.
    pub fn from_parts(capacity: usize, total: u64, entries: Vec<(K, u64, u64)>) -> Self {
        assert!(capacity > 0, "summary capacity must be positive");
        assert!(entries.len() <= capacity, "more entries than the summary monitors");
        let mut counters = FxHashMap::default();
        for (key, count, error) in entries {
            counters.insert(key, (count, error));
        }
        SpaceSaving { capacity, counters, total }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_below_capacity() {
        let mut ss: SpaceSaving<u32> = SpaceSaving::new(10);
        for _ in 0..5 {
            ss.increment(1);
        }
        for _ in 0..3 {
            ss.increment(2);
        }
        assert_eq!(ss.estimate(1), Some(5));
        assert_eq!(ss.estimate(2), Some(3));
        assert_eq!(ss.error(1), Some(0));
        assert_eq!(ss.estimate(99), None);
    }

    #[test]
    fn eviction_keeps_overestimates_bounded() {
        let mut ss: SpaceSaving<u32> = SpaceSaving::new(2);
        ss.add(1, 10);
        ss.add(2, 5);
        ss.increment(3); // evicts key 2 (min count 5); key 3 gets count 6, error 5
        assert_eq!(ss.estimate(2), None);
        assert_eq!(ss.estimate(3), Some(6));
        assert_eq!(ss.error(3), Some(5));
        // True count of 3 is 1; estimate 6 ≥ 1 and estimate − error = 1 = truth.
    }

    #[test]
    fn heavy_hitters_always_survive() {
        // Space-Saving guarantee: any item with count > N/m is monitored.
        let mut ss: SpaceSaving<u32> = SpaceSaving::new(10);
        // One dominant key amid noise from 1000 distinct keys.
        let mut n = 0u64;
        for round in 0..200u32 {
            ss.increment(7);
            n += 1;
            for noise in 0..5u32 {
                ss.increment(1000 + round * 5 + noise);
                n += 1;
            }
        }
        let estimate = ss.estimate(7).expect("dominant key must be monitored");
        assert!(estimate >= 200, "estimate must upper-bound the true count");
        assert!(200 > n / 10, "test premise: key 7 is a guaranteed heavy hitter");
        assert!(!ss.guaranteed_at_least(100).is_empty());
        assert_eq!(ss.guaranteed_at_least(100)[0].0, 7);
    }

    #[test]
    fn top_n_orders_deterministically() {
        let mut ss: SpaceSaving<u32> = SpaceSaving::new(5);
        ss.add(4, 6);
        ss.add(2, 9);
        ss.add(8, 6);
        assert_eq!(ss.top_n(2), vec![(2, 9), (4, 6)]);
        assert_eq!(ss.top_n(3), vec![(2, 9), (4, 6), (8, 6)]);
    }

    #[test]
    fn estimates_upper_bound_truth_under_churn() {
        let mut ss: SpaceSaving<u64> = SpaceSaving::new(8);
        let mut truth: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        let mut state = 42u64;
        for _ in 0..5_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            // Skew: low keys much more frequent.
            let key = (state >> 33) % 64;
            let key = key * key / 64;
            ss.increment(key);
            *truth.entry(key).or_insert(0) += 1;
        }
        for (&key, &count) in &truth {
            if let Some(est) = ss.estimate(key) {
                assert!(est >= count, "key {key}: {est} < {count}");
                let err = ss.error(key).unwrap();
                assert!(est - err <= count, "lower bound exceeded truth");
            }
        }
        assert_eq!(ss.total(), 5_000);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _: SpaceSaving<u32> = SpaceSaving::new(0);
    }
}
