//! Exact per-key counts over a sliding window of ticks.

use enblogue_types::{FxHashMap, Tick};
use std::hash::Hash;

/// Exact sliding-window counter: for each key, how many events occurred in
/// the last `W` ticks.
///
/// This is the statistics operator behind seed selection (§3(i)): tag
/// popularity is the sliding-window average of per-tick document counts.
///
/// Storage is lane-based rather than map-per-tick: every live key owns one
/// `W`-long circular *count lane* in a contiguous `u64` arena, all lanes
/// sharing a single column cursor (the column of the newest tick). An
/// ingest is one hash probe plus two array writes; a tick advance rotates
/// the cursor and expires the entering column with a linear arena walk —
/// no per-tick map is allocated or dropped, which is what keeps the
/// steady-state tick close allocation-free. Running per-key totals make
/// reads O(1), exactly as before; keys whose total reaches zero leave the
/// key index and their lane returns to a free list.
#[derive(Debug, Clone)]
pub struct WindowedCounter<K: Eq + Hash + Copy> {
    window_ticks: usize,
    /// The tick the cursor column belongs to.
    newest_tick: Option<Tick>,
    /// Number of tick columns currently covered (≤ `window_ticks`); mirrors
    /// the per-tick map count of the historical layout so snapshots stay
    /// byte-identical.
    held: usize,
    /// Column of the newest tick within every lane.
    cursor: usize,
    /// Key → lane slot.
    index: FxHashMap<K, u32>,
    /// Slot → key (stale for free slots).
    keys: Vec<K>,
    /// Slot → windowed total (0 for free slots — a live key always has a
    /// positive total).
    totals: Vec<u64>,
    /// The lane arena: slot `s`'s counts live at `s*W ..= s*W + W-1`.
    /// Columns outside the held range are zero.
    lanes: Vec<u64>,
    /// Freed slots awaiting reuse.
    free: Vec<u32>,
}

impl<K: Eq + Hash + Copy> WindowedCounter<K> {
    /// A counter windowed over `window_ticks` ticks.
    ///
    /// # Panics
    /// Panics if `window_ticks == 0`.
    pub fn new(window_ticks: usize) -> Self {
        assert!(window_ticks > 0, "window must span at least one tick");
        WindowedCounter {
            window_ticks,
            newest_tick: None,
            held: 0,
            cursor: 0,
            index: FxHashMap::default(),
            keys: Vec::new(),
            totals: Vec::new(),
            lanes: Vec::new(),
            free: Vec::new(),
        }
    }

    /// The window length in ticks.
    #[inline]
    pub fn window(&self) -> usize {
        self.window_ticks
    }

    /// The arena column holding the tick `back_offset` steps before the
    /// newest one.
    #[inline]
    fn column(&self, back_offset: usize) -> usize {
        debug_assert!(back_offset < self.window_ticks);
        (self.cursor + self.window_ticks - back_offset) % self.window_ticks
    }

    /// Advances the window so its newest slot is `tick`, expiring old ticks.
    ///
    /// Must be called with non-decreasing ticks; calling with the current
    /// tick is a no-op.
    pub fn advance_to(&mut self, tick: Tick) {
        let Some(newest) = self.newest_tick else {
            self.newest_tick = Some(tick);
            self.held = self.held.max(1);
            return;
        };
        if tick <= newest {
            return;
        }
        let gap = tick.since(newest) as usize;
        if gap >= self.window_ticks {
            // Everything expires at once.
            self.index.clear();
            self.keys.clear();
            self.totals.clear();
            self.lanes.clear();
            self.free.clear();
            self.held = 1;
            self.cursor = 0;
        } else {
            for _ in 0..gap {
                self.cursor = (self.cursor + 1) % self.window_ticks;
                if self.held == self.window_ticks {
                    self.expire_column(self.cursor);
                } else {
                    // The entering column is outside the held range, hence
                    // already all-zero.
                    self.held += 1;
                }
            }
        }
        self.newest_tick = Some(tick);
    }

    /// Subtracts and zeroes column `col` across all lanes (the oldest tick
    /// leaving the window), retiring keys whose total reaches zero.
    fn expire_column(&mut self, col: usize) {
        let window = self.window_ticks;
        for slot in 0..self.totals.len() {
            let count = self.lanes[slot * window + col];
            if count == 0 {
                continue;
            }
            self.lanes[slot * window + col] = 0;
            self.totals[slot] -= count;
            if self.totals[slot] == 0 {
                self.index.remove(&self.keys[slot]);
                self.free.push(slot as u32);
            }
        }
    }

    /// The lane slot of `key`, allocating one if needed.
    fn ensure_slot(&mut self, key: K) -> usize {
        if let Some(&slot) = self.index.get(&key) {
            return slot as usize;
        }
        let slot = match self.free.pop() {
            // A freed lane is all-zero by construction (its total reached
            // zero).
            Some(slot) => {
                self.keys[slot as usize] = key;
                slot as usize
            }
            None => {
                let slot = self.keys.len();
                self.keys.push(key);
                self.totals.push(0);
                self.lanes.resize(self.lanes.len() + self.window_ticks, 0);
                slot
            }
        };
        self.index.insert(key, slot as u32);
        slot
    }

    /// Adds `by` occurrences of `key` in `tick` (advancing the window).
    pub fn add(&mut self, tick: Tick, key: K, by: u64) {
        self.advance_to(tick);
        debug_assert_eq!(self.newest_tick, Some(tick).max(self.newest_tick), "add into the past");
        if by == 0 {
            return;
        }
        let slot = self.ensure_slot(key);
        self.lanes[slot * self.window_ticks + self.cursor] += by;
        self.totals[slot] += by;
    }

    /// Records one occurrence of `key` in `tick`.
    #[inline]
    pub fn increment(&mut self, tick: Tick, key: K) {
        self.add(tick, key, 1);
    }

    /// The exact count of `key` over the current window.
    #[inline]
    pub fn count(&self, key: K) -> u64 {
        self.index.get(&key).map_or(0, |&slot| self.totals[slot as usize])
    }

    /// Bulk [`WindowedCounter::count`]: writes `out[i] = count(keys[i])`
    /// for every key.
    ///
    /// This is the tick-close variant — the batched scoring loop fetches
    /// one tile's worth of windowed actuals in a single call, keeping the
    /// index probes together instead of interleaving them with scoring
    /// work. Allocation-free.
    ///
    /// # Panics
    /// Panics if `out` is shorter than `keys`.
    pub fn counts_for_keys(&self, keys: &[K], out: &mut [u64]) {
        assert!(out.len() >= keys.len(), "output must hold one count per key");
        for (o, key) in out.iter_mut().zip(keys.iter()) {
            *o = self.index.get(key).map_or(0, |&slot| self.totals[slot as usize]);
        }
    }

    /// The count of `key` in the newest tick only.
    pub fn count_in_newest_tick(&self, key: K) -> u64 {
        self.index
            .get(&key)
            .map_or(0, |&slot| self.lanes[slot as usize * self.window_ticks + self.cursor])
    }

    /// Sliding-window average: count / window length.
    #[inline]
    pub fn window_average(&self, key: K) -> f64 {
        self.count(key) as f64 / self.window_ticks as f64
    }

    /// Number of keys with a non-zero count in the window.
    #[inline]
    pub fn distinct_keys(&self) -> usize {
        self.index.len()
    }

    /// Iterates over `(key, windowed count)` for all live keys.
    pub fn iter(&self) -> impl Iterator<Item = (K, u64)> + '_ {
        self.index.iter().map(|(&key, &slot)| (key, self.totals[slot as usize]))
    }

    /// The `n` keys with the largest windowed counts, descending (ties
    /// break on the smaller key).
    ///
    /// Selects the top `n` in O(keys) before sorting only those — the same
    /// `select_nth_unstable` trick cap eviction uses, which matters when a
    /// few seeds are picked out of a large tag population every tick.
    pub fn top_n(&self, n: usize) -> Vec<(K, u64)>
    where
        K: Ord,
    {
        if n == 0 {
            return Vec::new();
        }
        let mut all: Vec<(K, u64)> = self.iter().collect();
        // Deterministic: count desc, then key asc (a total order — keys
        // are unique).
        let cmp = |a: &(K, u64), b: &(K, u64)| b.1.cmp(&a.1).then(a.0.cmp(&b.0));
        if all.len() > n {
            all.select_nth_unstable_by(n - 1, cmp);
            all.truncate(n);
        }
        all.sort_unstable_by(cmp);
        all
    }

    /// The newest tick the counter has seen.
    #[inline]
    pub fn newest_tick(&self) -> Option<Tick> {
        self.newest_tick
    }

    /// Total number of events in the window across all keys.
    pub fn total_events(&self) -> u64 {
        // Free slots hold a zero total, so the dense sum is exact.
        self.totals.iter().sum()
    }

    /// Exports the per-tick count entries, oldest → newest — the counter's
    /// full dehydrated state for snapshot/restore (see
    /// [`WindowedCounter::from_per_tick_counts`]). Inner vectors are in
    /// arbitrary key order; serializers that need stable bytes sort them
    /// by key. Only non-zero counts are exported (a key never has a stored
    /// zero in the historical map layout this format mirrors).
    pub fn per_tick_counts(&self) -> Vec<Vec<(K, u64)>> {
        let window = self.window_ticks;
        (0..self.held)
            .rev()
            .map(|back_offset| {
                let col = self.column(back_offset);
                self.index
                    .iter()
                    .filter_map(|(&key, &slot)| {
                        let count = self.lanes[slot as usize * window + col];
                        (count > 0).then_some((key, count))
                    })
                    .collect()
            })
            .collect()
    }

    /// Rehydrates a counter from [`WindowedCounter::per_tick_counts`]
    /// output plus the newest tick. Totals are rebuilt exactly (integer
    /// sums), so a round-trip preserves every windowed count bit-for-bit.
    ///
    /// # Panics
    /// Panics if `window_ticks` is zero, more tick maps than the window
    /// are supplied, or tick maps exist without a newest tick.
    pub fn from_per_tick_counts(
        window_ticks: usize,
        newest_tick: Option<Tick>,
        per_tick: Vec<Vec<(K, u64)>>,
    ) -> Self {
        assert!(per_tick.len() <= window_ticks, "more tick maps than the window holds");
        assert!(
            newest_tick.is_some() || per_tick.is_empty(),
            "tick maps require a newest tick to anchor them"
        );
        let mut counter = WindowedCounter::new(window_ticks);
        counter.newest_tick = newest_tick;
        counter.held = per_tick.len();
        counter.cursor = per_tick.len().saturating_sub(1);
        for (offset, entries) in per_tick.into_iter().enumerate() {
            for (key, count) in entries {
                if count > 0 {
                    let slot = counter.ensure_slot(key);
                    counter.lanes[slot * window_ticks + offset] += count;
                    counter.totals[slot] += count;
                }
            }
        }
        counter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_within_window() {
        let mut c: WindowedCounter<u32> = WindowedCounter::new(3);
        c.increment(Tick(0), 1);
        c.increment(Tick(0), 1);
        c.increment(Tick(1), 2);
        assert_eq!(c.count(1), 2);
        assert_eq!(c.count(2), 1);
        assert_eq!(c.count(3), 0);
        assert_eq!(c.distinct_keys(), 2);
    }

    #[test]
    fn expiry_subtracts_old_ticks() {
        let mut c: WindowedCounter<u32> = WindowedCounter::new(2);
        c.increment(Tick(0), 7);
        c.increment(Tick(1), 7);
        assert_eq!(c.count(7), 2);
        c.increment(Tick(2), 7); // tick 0 expires
        assert_eq!(c.count(7), 2);
        c.advance_to(Tick(3)); // tick 1 expires
        assert_eq!(c.count(7), 1);
        c.advance_to(Tick(4)); // tick 2 expires
        assert_eq!(c.count(7), 0);
        assert_eq!(c.distinct_keys(), 0);
    }

    #[test]
    fn bulk_counts_match_single_lookups() {
        let mut c: WindowedCounter<u32> = WindowedCounter::new(3);
        c.add(Tick(0), 1, 4);
        c.add(Tick(1), 2, 7);
        c.add(Tick(2), 1, 1);
        let keys = [1u32, 2, 3, 1];
        let mut out = [u64::MAX; 5];
        c.counts_for_keys(&keys, &mut out);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(out[i], c.count(k));
        }
        assert_eq!(out[4], u64::MAX, "slots past the keys are untouched");
        c.counts_for_keys(&[], &mut []);
    }

    #[test]
    #[should_panic(expected = "one count per key")]
    fn bulk_counts_reject_short_output() {
        let c: WindowedCounter<u32> = WindowedCounter::new(2);
        let mut out = [0u64; 1];
        c.counts_for_keys(&[1, 2], &mut out);
    }

    #[test]
    fn large_gap_clears_everything() {
        let mut c: WindowedCounter<u32> = WindowedCounter::new(3);
        c.increment(Tick(0), 5);
        c.advance_to(Tick(100));
        assert_eq!(c.count(5), 0);
        assert_eq!(c.total_events(), 0);
        assert_eq!(c.newest_tick(), Some(Tick(100)));
    }

    #[test]
    fn window_average_divides_by_window_length() {
        let mut c: WindowedCounter<u32> = WindowedCounter::new(4);
        c.add(Tick(0), 9, 6);
        assert_eq!(c.window_average(9), 1.5);
    }

    #[test]
    fn top_n_is_deterministic() {
        let mut c: WindowedCounter<u32> = WindowedCounter::new(2);
        c.add(Tick(0), 1, 5);
        c.add(Tick(0), 2, 9);
        c.add(Tick(0), 3, 5);
        c.add(Tick(0), 4, 1);
        assert_eq!(c.top_n(3), vec![(2, 9), (1, 5), (3, 5)]);
        assert_eq!(c.top_n(0), vec![]);
        assert_eq!(c.top_n(10).len(), 4);
        assert_eq!(c.top_n(10), vec![(2, 9), (1, 5), (3, 5), (4, 1)]);
    }

    #[test]
    fn top_n_selection_matches_full_sort() {
        // The select-then-sort fast path must agree with a plain full sort
        // for every n, including heavy count ties.
        let mut c: WindowedCounter<u32> = WindowedCounter::new(3);
        for key in 0..50u32 {
            c.add(Tick(0), key, (key % 7) as u64 + 1);
        }
        let mut full: Vec<(u32, u64)> = c.iter().collect();
        full.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        for n in [1usize, 3, 7, 49, 50, 60] {
            let mut expected = full.clone();
            expected.truncate(n);
            assert_eq!(c.top_n(n), expected, "top_n({n})");
        }
    }

    #[test]
    fn count_in_newest_tick_is_tick_local() {
        let mut c: WindowedCounter<u32> = WindowedCounter::new(3);
        c.add(Tick(0), 1, 4);
        c.add(Tick(1), 1, 2);
        assert_eq!(c.count_in_newest_tick(1), 2);
        assert_eq!(c.count(1), 6);
    }

    #[test]
    fn add_zero_is_noop_but_advances() {
        let mut c: WindowedCounter<u32> = WindowedCounter::new(2);
        c.add(Tick(5), 1, 0);
        assert_eq!(c.count(1), 0);
        assert_eq!(c.newest_tick(), Some(Tick(5)));
    }

    #[test]
    fn freed_lanes_are_reused_cleanly() {
        let mut c: WindowedCounter<u32> = WindowedCounter::new(2);
        c.add(Tick(0), 1, 3);
        c.advance_to(Tick(2)); // key 1 fully expires, lane freed
        assert_eq!(c.distinct_keys(), 0);
        // A different key must land on the recycled lane with no residue.
        c.add(Tick(2), 2, 5);
        assert_eq!(c.count(2), 5);
        assert_eq!(c.count(1), 0);
        assert_eq!(c.count_in_newest_tick(2), 5);
        assert_eq!(c.total_events(), 5);
    }

    #[test]
    fn per_tick_round_trip_preserves_everything() {
        let mut c: WindowedCounter<u32> = WindowedCounter::new(4);
        c.add(Tick(1), 1, 2);
        c.add(Tick(2), 2, 3);
        c.advance_to(Tick(4));
        let per_tick = c.per_tick_counts();
        assert_eq!(per_tick.len(), 4, "ticks 1..=4 held");
        let restored = WindowedCounter::from_per_tick_counts(4, c.newest_tick(), per_tick);
        assert_eq!(restored.count(1), 2);
        assert_eq!(restored.count(2), 3);
        assert_eq!(restored.distinct_keys(), c.distinct_keys());
        assert_eq!(restored.total_events(), c.total_events());
        assert_eq!(restored.newest_tick(), c.newest_tick());
        // Expiry continues exactly where the original would.
        let mut restored = restored;
        let mut original = c;
        for tick in 5..9u64 {
            restored.advance_to(Tick(tick));
            original.advance_to(Tick(tick));
            assert_eq!(restored.count(1), original.count(1), "key 1 at tick {tick}");
            assert_eq!(restored.count(2), original.count(2), "key 2 at tick {tick}");
        }
    }

    #[test]
    fn totals_match_brute_force_over_random_ops() {
        // Deterministic pseudo-random walk compared against a brute-force
        // recomputation from retained per-tick history.
        let window = 5usize;
        let mut c: WindowedCounter<u32> = WindowedCounter::new(window);
        let mut history: Vec<(u64, u32)> = Vec::new(); // (tick, key)
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut tick = 0u64;
        for _ in 0..2_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let key = ((state >> 33) % 10) as u32;
            if state.is_multiple_of(7) {
                tick += (state >> 60) % 3;
            }
            c.increment(Tick(tick), key);
            history.push((tick, key));

            if state.is_multiple_of(13) {
                let lo = tick.saturating_sub(window as u64 - 1);
                for probe in 0..10u32 {
                    let expected = history
                        .iter()
                        .filter(|&&(t, k)| k == probe && t >= lo && t <= tick)
                        .count() as u64;
                    assert_eq!(c.count(probe), expected, "key {probe} at tick {tick}");
                }
            }
        }
    }
}
