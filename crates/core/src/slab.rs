//! Slab-resident storage for tracked-pair state.
//!
//! The per-tick shift-scoring loop is the engine's steady-state hot path:
//! at the `max_tracked_pairs` cap it touches every tracked pair every
//! tick. A map-of-structs layout (`FxHashMap<u64, PairState>` with one
//! heap-allocated history ring per pair) makes that loop pay a hash probe
//! plus two pointer chases per pair, re-collect and re-sort all keys every
//! close, and copy each history into a scratch `Vec` before scoring.
//!
//! [`PairSlab`] replaces it with a struct-of-arrays slab: packed keys,
//! decayed scores and support ticks live in parallel dense vectors, and
//! **all** correlation histories live in one contiguous
//! `history_len`-strided `f64` arena of per-pair rings. The close loop
//! walks live slots in slot order — every column and the arena are read
//! front to back — and hands the scorer its ring segments in place
//! ([`enblogue_stats::predict::SeriesView`]); the key→slot hash map is
//! consulted only on ingest-side operations (discovery, point lookups,
//! snapshot restore).
//!
//! No iteration order is maintained: scoring is independent per pair, so
//! the order the close visits slots in cannot change a result. A freed
//! slot goes straight back to the free list, and a steady-state tick
//! close performs no heap allocation (pinned by `tests/close_allocs.rs`
//! with a counting allocator).

use enblogue_types::{FxHashMap, Tick};
use enblogue_window::{DecayValue, RingBuffer};

/// Detached per-pair tracked state — the transfer representation used by
/// snapshot restore (the resident representation is the slab's column
/// vectors).
pub struct PairState {
    /// Correlation values of past ticks (oldest → newest), the predictor's
    /// input window.
    pub history: RingBuffer<f64>,
    /// The decayed-max shift score (§3(iii)).
    pub score: DecayValue,
    /// Last tick in which the pair had window support (for eviction).
    pub last_support: Tick,
    /// Tick at which tracking started.
    pub since: Tick,
}

/// Struct-of-arrays slab of tracked-pair state with an arena-resident
/// history ring per slot (see the module docs).
///
/// Slots are recycled through a free list: the next insert after a
/// removal reuses the freed slot.
pub struct PairSlab {
    history_len: usize,
    /// Key → slot; consulted on ingest and point lookups only.
    index: FxHashMap<u64, u32>,
    /// Slot → packed key (stale for dead slots).
    keys: Vec<u64>,
    /// Slot liveness (dead slots are free-listed).
    live: Vec<bool>,
    /// Slot → decayed-max score.
    score: Vec<DecayValue>,
    /// Slot → last supported tick.
    last_support: Vec<Tick>,
    /// Slot → tracking start tick.
    since: Vec<Tick>,
    /// The history arena: slot `s`'s ring occupies
    /// `s*history_len ..= s*history_len + history_len-1`.
    hist: Vec<f64>,
    /// Slot → ring head (index of the oldest value once full; 0 while
    /// filling).
    hist_head: Vec<u32>,
    /// Slot → number of history values (≤ `history_len`).
    hist_count: Vec<u32>,
    /// Recyclable slots.
    free: Vec<u32>,
}

impl PairSlab {
    /// An empty slab whose history rings hold `history_len` values.
    ///
    /// # Panics
    /// Panics if `history_len == 0`.
    pub fn new(history_len: usize) -> Self {
        assert!(history_len > 0, "history must span at least one tick");
        PairSlab {
            history_len,
            index: FxHashMap::default(),
            keys: Vec::new(),
            live: Vec::new(),
            score: Vec::new(),
            last_support: Vec::new(),
            since: Vec::new(),
            hist: Vec::new(),
            hist_head: Vec::new(),
            hist_count: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Number of live pairs.
    #[inline]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no pair is tracked.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The history window length.
    #[inline]
    pub fn history_len(&self) -> usize {
        self.history_len
    }

    /// The slot of `key`, if tracked.
    #[inline]
    pub fn slot_of(&self, key: u64) -> Option<usize> {
        self.index.get(&key).map(|&slot| slot as usize)
    }

    /// Whether `key` is tracked.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        self.index.contains_key(&key)
    }

    /// The packed key of `slot`.
    #[inline]
    pub fn key_at(&self, slot: usize) -> u64 {
        debug_assert!(self.live[slot]);
        self.keys[slot]
    }

    /// Allocates a slot for `key` (blank history), registering it in the
    /// index. The caller fills the columns.
    fn alloc_slot(&mut self, key: u64) -> usize {
        let slot = match self.free.pop() {
            Some(slot) => {
                let slot = slot as usize;
                self.keys[slot] = key;
                self.live[slot] = true;
                self.hist_head[slot] = 0;
                self.hist_count[slot] = 0;
                slot
            }
            None => {
                let slot = self.keys.len();
                self.keys.push(key);
                self.live.push(true);
                self.score.push(DecayValue::new(1));
                self.last_support.push(Tick::ZERO);
                self.since.push(Tick::ZERO);
                self.hist.resize(self.hist.len() + self.history_len, 0.0);
                self.hist_head.push(0);
                self.hist_count.push(0);
                slot
            }
        };
        self.index.insert(key, slot as u32);
        slot
    }

    /// Starts tracking `key` with a zero score, `backfill_zeros` leading
    /// 0.0 history values (capped at `history_len - 1`) and both tick
    /// columns set to `tick`. Returns `false` (no change) if already
    /// tracked.
    pub fn insert_fresh(
        &mut self,
        key: u64,
        tick: Tick,
        backfill_zeros: usize,
        half_life_ms: u64,
    ) -> bool {
        if self.index.contains_key(&key) {
            return false;
        }
        let slot = self.alloc_slot(key);
        let zeros = backfill_zeros.min(self.history_len - 1);
        let base = slot * self.history_len;
        self.hist[base..base + zeros].fill(0.0);
        self.hist_count[slot] = zeros as u32;
        self.score[slot] = DecayValue::new(half_life_ms);
        self.last_support[slot] = tick;
        self.since[slot] = tick;
        true
    }

    /// Inserts a detached [`PairState`] (snapshot restore). Returns `false` (no change) if `key` is already tracked.
    ///
    /// # Panics
    /// Panics if the state's history exceeds `history_len`.
    pub fn insert_state(&mut self, key: u64, state: PairState) -> bool {
        if self.index.contains_key(&key) {
            return false;
        }
        assert!(state.history.len() <= self.history_len, "history exceeds the slab window");
        let slot = self.alloc_slot(key);
        let base = slot * self.history_len;
        for (offset, &value) in state.history.iter().enumerate() {
            self.hist[base + offset] = value;
        }
        self.hist_count[slot] = state.history.len() as u32;
        self.score[slot] = state.score;
        self.last_support[slot] = state.last_support;
        self.since[slot] = state.since;
        true
    }

    /// Stops tracking the pair at `slot`; the slot is free for the next
    /// insert.
    pub fn remove_slot(&mut self, slot: usize) {
        debug_assert!(self.live[slot], "removing a dead slot");
        self.index.remove(&self.keys[slot]);
        self.live[slot] = false;
        self.free.push(slot as u32);
    }

    /// Stops tracking `key`. Returns whether it was tracked.
    pub fn remove(&mut self, key: u64) -> bool {
        match self.slot_of(key) {
            Some(slot) => {
                self.remove_slot(slot);
                true
            }
            None => false,
        }
    }

    /// The history ring of `slot` as `(older, newer)` contiguous runs,
    /// jointly oldest → newest — read in place by the scorer.
    #[inline]
    pub fn history_parts(&self, slot: usize) -> (&[f64], &[f64]) {
        let base = slot * self.history_len;
        let head = self.hist_head[slot] as usize;
        let count = self.hist_count[slot] as usize;
        if count < self.history_len {
            // A ring only starts wrapping once full, so a filling ring is
            // contiguous from the base.
            debug_assert_eq!(head, 0);
            (&self.hist[base..base + count], &[])
        } else {
            (&self.hist[base + head..base + count], &self.hist[base..base + head])
        }
    }

    /// Number of values currently in `slot`'s history ring (saturates at
    /// the configured history length once the ring wraps). The batched
    /// close groups slots into equal-length tiles by this.
    #[inline]
    pub fn history_count(&self, slot: usize) -> usize {
        self.hist_count[slot] as usize
    }

    /// Appends `value` to `slot`'s history, evicting the oldest value once
    /// the ring is full.
    #[inline]
    pub fn push_history(&mut self, slot: usize, value: f64) {
        let base = slot * self.history_len;
        let count = self.hist_count[slot] as usize;
        if count < self.history_len {
            self.hist[base + count] = value;
            self.hist_count[slot] = (count + 1) as u32;
        } else {
            let head = self.hist_head[slot] as usize;
            self.hist[base + head] = value;
            self.hist_head[slot] = ((head + 1) % self.history_len) as u32;
        }
    }

    /// The newest history value of `slot`.
    pub fn newest_history(&self, slot: usize) -> Option<f64> {
        let (older, newer) = self.history_parts(slot);
        newer.last().or_else(|| older.last()).copied()
    }

    /// The decayed-max score column of `slot`.
    #[inline]
    pub fn score_at(&self, slot: usize) -> &DecayValue {
        &self.score[slot]
    }

    /// Mutable access to `slot`'s score.
    #[inline]
    pub fn score_mut(&mut self, slot: usize) -> &mut DecayValue {
        &mut self.score[slot]
    }

    /// The last supported tick of `slot`.
    #[inline]
    pub fn last_support_at(&self, slot: usize) -> Tick {
        self.last_support[slot]
    }

    /// Marks `slot` as supported in `tick`.
    #[inline]
    pub fn set_last_support(&mut self, slot: usize, tick: Tick) {
        self.last_support[slot] = tick;
    }

    /// The tracking start tick of `slot`.
    #[inline]
    pub fn since_at(&self, slot: usize) -> Tick {
        self.since[slot]
    }

    /// Iterates the live slots in slot order (no key order guarantee —
    /// every pass over the slab is order-independent).
    pub fn live_slots(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.keys.len()).filter(move |&slot| self.live[slot])
    }

    /// Upper bound over slot indices (for manual walks).
    #[inline]
    pub fn slot_bound(&self) -> usize {
        self.keys.len()
    }

    /// Whether `slot` is live.
    #[inline]
    pub fn is_live(&self, slot: usize) -> bool {
        self.live[slot]
    }

    /// The live keys in ascending order, freshly collected (snapshot and
    /// inspection paths).
    pub fn sorted_keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self.live_slots().map(|slot| self.keys[slot]).collect();
        keys.sort_unstable();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enblogue_types::Timestamp;

    fn slab() -> PairSlab {
        PairSlab::new(4)
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut s = slab();
        assert!(s.insert_fresh(10, Tick(1), 2, 1000));
        assert!(!s.insert_fresh(10, Tick(2), 0, 1000), "double insert is a no-op");
        assert_eq!(s.len(), 1);
        let slot = s.slot_of(10).unwrap();
        assert_eq!(s.history_parts(slot), (&[0.0, 0.0][..], &[][..]), "backfill zeros");
        assert_eq!(s.last_support_at(slot), Tick(1));
        assert_eq!(s.since_at(slot), Tick(1));
        assert!(s.remove(10));
        assert!(!s.remove(10));
        assert!(s.is_empty());
    }

    #[test]
    fn history_ring_wraps_in_place() {
        let mut s = slab();
        s.insert_fresh(7, Tick(0), 0, 1000);
        let slot = s.slot_of(7).unwrap();
        for i in 0..6 {
            s.push_history(slot, i as f64);
        }
        // Capacity 4: values 2,3,4,5 retained, oldest → newest.
        let (older, newer) = s.history_parts(slot);
        let joined: Vec<f64> = older.iter().chain(newer).copied().collect();
        assert_eq!(joined, vec![2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.newest_history(slot), Some(5.0));
    }

    #[test]
    fn freed_slot_is_reused_without_double_counting() {
        let mut s = slab();
        for key in [30u64, 10, 20] {
            s.insert_fresh(key, Tick(0), 0, 1000);
        }
        let freed = s.slot_of(20).unwrap();
        s.remove(20);
        assert!(!s.is_live(freed));
        assert_eq!(s.live_slots().count(), 2);
        // The very next insert takes the freed slot; the bound stays put.
        s.insert_fresh(5, Tick(1), 0, 1000);
        assert_eq!(s.slot_of(5), Some(freed));
        assert_eq!(s.slot_bound(), 3);
        assert_eq!(s.history_count(freed), 0, "a reused slot starts with a blank ring");
        assert_eq!(s.len(), 3);
        let live: Vec<usize> = s.live_slots().collect();
        assert_eq!(live, vec![0, 1, 2], "each live slot is walked exactly once");
        assert_eq!(s.sorted_keys(), vec![5, 10, 30]);
        // With the free list empty, the next insert appends.
        s.insert_fresh(15, Tick(2), 0, 1000);
        assert_eq!(s.slot_of(15), Some(3));
        assert_eq!(s.len(), 4);
        assert_eq!(s.live_slots().count(), 4);
    }

    #[test]
    fn insert_state_preserves_columns() {
        let mut history = RingBuffer::new(4);
        for v in [0.0, 0.25, 0.5, 0.75, 0.9, 0.95] {
            history.push(v);
        }
        let mut score = DecayValue::new(1000);
        score.set(Timestamp::from_hours(7), 0.625);
        let state = PairState { history, score, last_support: Tick(6), since: Tick(3) };
        let mut s = slab();
        assert!(s.insert_state(42, state));
        let slot = s.slot_of(42).unwrap();
        let (older, newer) = s.history_parts(slot);
        let joined: Vec<f64> = older.iter().chain(newer).copied().collect();
        assert_eq!(joined, vec![0.5, 0.75, 0.9, 0.95], "ring tail survives the insert");
        assert_eq!(s.score_at(slot).value_at(Timestamp::from_hours(7)), 0.625);
        assert_eq!(s.last_support_at(slot), Tick(6));
        assert_eq!(s.since_at(slot), Tick(3));
        let again = PairState {
            history: RingBuffer::new(4),
            score: DecayValue::new(1000),
            last_support: Tick(0),
            since: Tick(0),
        };
        assert!(!s.insert_state(42, again), "a tracked key is left untouched");
        assert_eq!(s.since_at(slot), Tick(3));
    }
}
