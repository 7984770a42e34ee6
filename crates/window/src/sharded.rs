//! Hash-sharded windowed counting.
//!
//! A [`ShardedWindowedCounter`] splits one logical [`WindowedCounter`] into
//! `N` independent shards so writers can route keys (the caller supplies
//! the shard index — routing policy lives with the keys, e.g.
//! `enblogue_types::shard_of_packed` for packed tag pairs) and tick close
//! can advance or scan shards in parallel. Aggregates over all shards are
//! exact: a key lives in exactly one shard.

use crate::counter::WindowedCounter;
use enblogue_types::Tick;
use std::hash::Hash;

/// `N` tick-windowed per-key counters behind one facade.
pub struct ShardedWindowedCounter<K: Eq + Hash + Copy> {
    shards: Vec<WindowedCounter<K>>,
}

impl<K: Eq + Hash + Copy> ShardedWindowedCounter<K> {
    /// `shards` windowed counters, each spanning `window_ticks`.
    ///
    /// # Panics
    /// Panics if `shards` is zero (delegated window-size validation panics
    /// if `window_ticks` is zero).
    pub fn new(shards: usize, window_ticks: usize) -> Self {
        assert!(shards > 0, "shard count must be positive");
        ShardedWindowedCounter {
            shards: (0..shards).map(|_| WindowedCounter::new(window_ticks)).collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Counts `key` into `tick` in the shard at `shard_index`.
    ///
    /// The caller owns the routing: the same key **must** always be sent
    /// to the same shard, or windowed counts will split across shards.
    pub fn increment(&mut self, shard_index: usize, tick: Tick, key: K) {
        self.shards[shard_index].increment(tick, key);
    }

    /// Mutable access to the per-shard counters (index = shard), so
    /// callers can hand one shard to each worker of a parallel ingest
    /// fan-out. The routing contract of
    /// [`ShardedWindowedCounter::increment`] applies unchanged.
    pub fn shards_mut(&mut self) -> &mut [WindowedCounter<K>] {
        &mut self.shards
    }

    /// Read access to the per-shard counters (index = shard) — the
    /// snapshot seam: serializers walk each shard's windowed state.
    pub fn shards(&self) -> &[WindowedCounter<K>] {
        &self.shards
    }

    /// Reassembles a sharded counter from per-shard counters restored via
    /// [`WindowedCounter::from_per_tick_counts`]. The caller owns routing
    /// consistency, exactly as with [`ShardedWindowedCounter::increment`].
    ///
    /// # Panics
    /// Panics if `shards` is empty.
    pub fn from_shards(shards: Vec<WindowedCounter<K>>) -> Self {
        assert!(!shards.is_empty(), "shard count must be positive");
        ShardedWindowedCounter { shards }
    }

    /// The windowed count of `key`, which must be routed to `shard_index`.
    pub fn count(&self, shard_index: usize, key: K) -> u64 {
        self.shards[shard_index].count(key)
    }

    /// Advances every shard's window so its newest slot is `tick`.
    pub fn advance_to(&mut self, tick: Tick) {
        for shard in &mut self.shards {
            shard.advance_to(tick);
        }
    }

    /// Distinct keys alive across all shards (exact: keys don't repeat
    /// across shards under consistent routing).
    pub fn distinct_keys(&self) -> usize {
        self.shards.iter().map(WindowedCounter::distinct_keys).sum()
    }

    /// Total events in the window across all shards.
    pub fn total_events(&self) -> u64 {
        self.shards.iter().map(WindowedCounter::total_events).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy routing used by the tests: low bits of the key.
    fn route(key: u64, shards: usize) -> usize {
        (key % shards as u64) as usize
    }

    #[test]
    fn counts_are_exact_under_consistent_routing() {
        let shards = 4;
        let mut sharded: ShardedWindowedCounter<u64> = ShardedWindowedCounter::new(shards, 3);
        let mut reference: WindowedCounter<u64> = WindowedCounter::new(3);
        for tick in 0..6u64 {
            for key in 0..20u64 {
                if (key + tick) % 3 == 0 {
                    sharded.increment(route(key, shards), Tick(tick), key);
                    reference.increment(Tick(tick), key);
                }
            }
            sharded.advance_to(Tick(tick));
            reference.advance_to(Tick(tick));
            for key in 0..20u64 {
                assert_eq!(
                    sharded.count(route(key, shards), key),
                    reference.count(key),
                    "key {key} at tick {tick}"
                );
            }
            assert_eq!(sharded.distinct_keys(), reference.distinct_keys());
            assert_eq!(sharded.total_events(), reference.total_events());
        }
    }

    #[test]
    fn single_shard_degenerates_to_plain_counter() {
        let mut sharded: ShardedWindowedCounter<u32> = ShardedWindowedCounter::new(1, 2);
        sharded.increment(0, Tick(0), 7);
        sharded.increment(0, Tick(1), 7);
        assert_eq!(sharded.count(0, 7), 2);
        sharded.advance_to(Tick(2));
        assert_eq!(sharded.count(0, 7), 1, "tick 0 expired");
        assert_eq!(sharded.shard_count(), 1);
    }

    #[test]
    #[should_panic(expected = "shard count")]
    fn zero_shards_panics() {
        let _: ShardedWindowedCounter<u32> = ShardedWindowedCounter::new(0, 2);
    }
}
