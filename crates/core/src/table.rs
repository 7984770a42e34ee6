//! One key index per shard store: the pair table.
//!
//! A store keys one pair space for three purposes — the windowed
//! co-occurrence count of every counted pair (§3(ii)), the open tick's
//! discovery candidates (§3(i): "pairs of tags that contain at least one
//! seed tag"), and the link from a tracked pair to its slab slot. A
//! [`PairTable`] holds all three behind a single `FxHashMap<u64, u32>`
//! from packed pair key to *row*, so an applied run costs one probe and
//! the close reads a tracked pair's windowed total by row, with no probe.
//!
//! ```text
//! PairTable
//! ├─ index: FxHashMap<key, row>          the one probe
//! ├─ rows (index = row)
//! │    key · windowed total · open-tick count · slab slot | none · candidate
//! ├─ open_rows:  rows counted in the open tick (sealed at the advance)
//! ├─ closed:     ring of window − 1 sealed tick columns, each a
//! │              Vec<(row, count)> of the rows counted in that tick
//! ├─ candidates: rows observed since the last discovery round
//! └─ free_rows:  rows released for reuse
//! ```
//!
//! **Expiry is sparse.** Advancing the window seals the open tick into a
//! `(row, count)` column and expires the column leaving the window by
//! walking only its own entries, so an advance costs what the two ticks
//! held, not `window × keys`.
//!
//! **Row lifetime.** A row lives while it is counted (a non-zero windowed
//! total), tracked (linked to a slab slot) or a pending candidate, and is
//! released the moment the last of the three ends. So a candidate whose
//! counts expire before the discovery round is still discovered, and a
//! tracked pair whose window drains keeps its row and reads 0.
//!
//! Late observations (a tick older than the newest seen) count into the
//! open tick, and the checkpoint exports every column sorted by key, so
//! equal states write equal bytes.

use enblogue_types::{FxHashMap, Tick};

/// The slot field of a row that links no tracked pair.
const UNTRACKED: u32 = u32::MAX;

/// One key's state apart from its windowed total (see the module docs).
#[derive(Debug)]
struct Row {
    key: u64,
    /// Count in the open tick.
    open: u64,
    /// Slab slot of the tracked pair, or [`UNTRACKED`].
    slot: u32,
    /// Observed since the last discovery round.
    candidate: bool,
}

impl Row {
    fn new(key: u64) -> Self {
        Row { key, open: 0, slot: UNTRACKED, candidate: false }
    }
}

/// Windowed counts, discovery candidates and the tracked-pair link of one
/// shard store, behind one key index (see the module docs).
#[derive(Debug)]
pub struct PairTable {
    window: usize,
    /// The open tick.
    newest: Option<Tick>,
    index: FxHashMap<u64, u32>,
    rows: Vec<Row>,
    /// Row → windowed co-occurrence count (the open tick plus the sealed
    /// ones), a dense column of its own: the close reads it for every
    /// tracked pair, so it stays small enough to stay cached.
    totals: Vec<u64>,
    free_rows: Vec<u32>,
    /// Rows with a non-zero open-tick count.
    open_rows: Vec<u32>,
    /// Rows with the candidate flag set.
    candidates: Vec<u32>,
    /// Ring of `window - 1` sealed tick columns; `head` is the oldest of
    /// the `sealed` held ones. Buffers are cleared, never dropped, so they
    /// keep their capacity across ticks.
    closed: Vec<Vec<(u32, u64)>>,
    head: usize,
    sealed: usize,
}

impl PairTable {
    /// An empty table windowed over `window` ticks.
    ///
    /// # Panics
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must span at least one tick");
        PairTable {
            window,
            newest: None,
            index: FxHashMap::default(),
            rows: Vec::new(),
            totals: Vec::new(),
            free_rows: Vec::new(),
            open_rows: Vec::new(),
            candidates: Vec::new(),
            closed: vec![Vec::new(); window - 1],
            head: 0,
            sealed: 0,
        }
    }

    /// Number of live rows: the distinct keys that are counted, tracked
    /// or pending candidates.
    #[inline]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no row is live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The open tick, if any tick has been seen.
    #[inline]
    pub fn newest_tick(&self) -> Option<Tick> {
        self.newest
    }

    /// The row of `key`, if live.
    #[inline]
    pub fn row_of(&self, key: u64) -> Option<u32> {
        self.index.get(&key).copied()
    }

    /// The row of `key`, creating a blank one if needed.
    pub fn ensure_row(&mut self, key: u64) -> u32 {
        let PairTable { index, rows, totals, free_rows, .. } = self;
        *index.entry(key).or_insert_with(|| match free_rows.pop() {
            // A released row's total is already zero.
            Some(row) => {
                rows[row as usize] = Row::new(key);
                row
            }
            None => {
                rows.push(Row::new(key));
                totals.push(0);
                (rows.len() - 1) as u32
            }
        })
    }

    #[inline]
    fn key(&self, row: u32) -> u64 {
        self.rows[row as usize].key
    }

    /// The windowed count of `row`.
    #[inline]
    pub fn total(&self, row: u32) -> u64 {
        self.totals[row as usize]
    }

    /// The windowed count of `key` (0 if it has no row).
    #[inline]
    pub fn count(&self, key: u64) -> u64 {
        self.row_of(key).map_or(0, |row| self.total(row))
    }

    /// The slab slot `row` is linked to, if tracked.
    #[inline]
    pub fn slot(&self, row: u32) -> Option<usize> {
        let slot = self.rows[row as usize].slot;
        (slot != UNTRACKED).then_some(slot as usize)
    }

    /// Links `row` to the tracked pair in slab slot `slot`.
    #[inline]
    pub fn link(&mut self, row: u32, slot: usize) {
        debug_assert_eq!(self.rows[row as usize].slot, UNTRACKED, "row already tracked");
        self.rows[row as usize].slot = slot as u32;
    }

    /// Unlinks `row` from its evicted slab slot; the row is released if
    /// nothing else keeps it.
    pub fn unlink(&mut self, row: u32) {
        self.rows[row as usize].slot = UNTRACKED;
        self.release_if_idle(row);
    }

    /// Counts `by` occurrences of `key` in `tick` (advancing the window
    /// first; a tick older than the open one counts into the open one)
    /// and flags `key` a discovery candidate — even when `by` is zero.
    /// One index probe.
    pub fn observe(&mut self, tick: Tick, key: u64, by: u64) {
        self.advance_to(tick);
        let row = self.mark_candidate(key);
        self.add_open(row, by);
    }

    /// Flags `key` a discovery candidate without counting it (snapshot
    /// restore of the candidate list) and returns its row.
    pub fn mark_candidate(&mut self, key: u64) -> u32 {
        let row = self.ensure_row(key);
        let r = &mut self.rows[row as usize];
        if !r.candidate {
            r.candidate = true;
            self.candidates.push(row);
        }
        row
    }

    fn add_open(&mut self, row: u32, by: u64) {
        if by == 0 {
            return;
        }
        let r = &mut self.rows[row as usize];
        if r.open == 0 {
            self.open_rows.push(row);
        }
        r.open += by;
        self.totals[row as usize] += by;
    }

    /// Advances the window so its open tick is `tick`: each step seals the
    /// open tick and expires the column leaving the window; a gap of a
    /// whole window or more expires everything. Older or equal ticks are a
    /// no-op.
    pub fn advance_to(&mut self, tick: Tick) {
        let Some(newest) = self.newest else {
            self.newest = Some(tick);
            return;
        };
        if tick <= newest {
            return;
        }
        let gap = tick.since(newest);
        if gap >= self.window as u64 {
            self.expire_all();
        } else {
            for _ in 0..gap {
                self.step();
            }
        }
        self.newest = Some(tick);
    }

    /// One tick forward: the oldest sealed column leaves the window if the
    /// window is full, then the open tick is sealed into a column.
    fn step(&mut self) {
        let ring = self.closed.len();
        if ring == 0 {
            // A one-tick window: the open tick is the whole window.
            self.expire_open();
            return;
        }
        if self.sealed == ring {
            let oldest = self.head;
            self.expire_column(oldest);
            self.head = (oldest + 1) % ring;
            self.sealed -= 1;
        }
        let PairTable { rows, open_rows, closed, head, sealed, .. } = self;
        let column = &mut closed[(*head + *sealed) % ring];
        debug_assert!(column.is_empty());
        for &row in open_rows.iter() {
            let r = &mut rows[row as usize];
            column.push((row, r.open));
            r.open = 0;
        }
        open_rows.clear();
        *sealed += 1;
    }

    /// Subtracts sealed column `at` from its rows' totals and clears it.
    fn expire_column(&mut self, at: usize) {
        let mut column = std::mem::take(&mut self.closed[at]);
        for &(row, count) in &column {
            self.totals[row as usize] -= count;
            self.release_if_idle(row);
        }
        column.clear();
        self.closed[at] = column;
    }

    fn expire_open(&mut self) {
        let open_rows = std::mem::take(&mut self.open_rows);
        for &row in &open_rows {
            let r = &mut self.rows[row as usize];
            self.totals[row as usize] -= r.open;
            r.open = 0;
            self.release_if_idle(row);
        }
        self.open_rows = open_rows;
        self.open_rows.clear();
    }

    fn expire_all(&mut self) {
        for at in 0..self.closed.len() {
            self.expire_column(at);
        }
        self.expire_open();
        self.head = 0;
        self.sealed = 0;
    }

    fn release_if_idle(&mut self, row: u32) {
        let r = &self.rows[row as usize];
        if self.totals[row as usize] == 0 && r.slot == UNTRACKED && !r.candidate {
            self.index.remove(&r.key);
            self.free_rows.push(row);
        }
    }

    /// Ends the discovery round: clears every candidate flag, calling
    /// `promote(key, row)` for each candidate that is not yet tracked; a
    /// returned slab slot links the row. Rows that nothing keeps any more
    /// are released. The candidate list keeps its capacity.
    pub fn drain_candidates(&mut self, mut promote: impl FnMut(u64, u32) -> Option<usize>) {
        let mut candidates = std::mem::take(&mut self.candidates);
        for &row in &candidates {
            let r = &mut self.rows[row as usize];
            r.candidate = false;
            if r.slot == UNTRACKED {
                if let Some(slot) = promote(r.key, row) {
                    r.slot = slot as u32;
                }
            }
            self.release_if_idle(row);
        }
        candidates.clear();
        self.candidates = candidates;
    }

    /// The pending candidate keys, ascending.
    pub fn candidate_keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self.candidates.iter().map(|&row| self.key(row)).collect();
        keys.sort_unstable();
        keys
    }

    /// Number of tick columns the window holds (sealed ones plus the open
    /// one; 0 before the first tick).
    fn held(&self) -> usize {
        if self.newest.is_some() {
            self.sealed + 1
        } else {
            0
        }
    }

    /// Total count in the window across all keys.
    pub fn total_events(&self) -> u64 {
        // Released rows hold a zero total, so the dense sum is exact.
        self.totals.iter().sum()
    }

    /// The `(key, count)` entries of every held tick, oldest → newest, each
    /// sorted by key (the checkpoint's counter section). Only non-zero
    /// counts appear.
    pub fn per_tick_counts(&self) -> Vec<Vec<(u64, u64)>> {
        let sorted = |mut entries: Vec<(u64, u64)>| {
            entries.sort_unstable_by_key(|&(key, _)| key);
            entries
        };
        let mut out = Vec::with_capacity(self.held());
        for i in 0..self.sealed {
            let column = &self.closed[(self.head + i) % self.closed.len()];
            out.push(sorted(column.iter().map(|&(row, count)| (self.key(row), count)).collect()));
        }
        if self.newest.is_some() {
            let open = self.open_rows.iter().map(|&row| {
                let r = &self.rows[row as usize];
                (r.key, r.open)
            });
            out.push(sorted(open.collect()));
        }
        out
    }

    /// Restores one exported tick column as the open tick of a window whose
    /// newest tick is `newest`, sealing the previously restored one. Feed
    /// [`PairTable::per_tick_counts`] output oldest → newest, at most
    /// `window` columns; duplicate keys add up and zero counts are skipped.
    /// Restored counts never flag candidates.
    pub fn restore_column(&mut self, newest: Tick, entries: &[(u64, u64)]) {
        if self.newest.is_some() {
            debug_assert!(self.sealed + 1 < self.window, "more columns than the window holds");
            self.step();
        }
        self.newest = Some(newest);
        for &(key, count) in entries {
            if count > 0 {
                let row = self.ensure_row(key);
                self.add_open(row, count);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drained_tracked_row_keeps_its_slot_until_unlinked() {
        let mut t = PairTable::new(2);
        t.observe(Tick(0), 7, 3);
        t.drain_candidates(|_, _| Some(4));
        let row = t.row_of(7).expect("counted key has a row");
        assert_eq!(t.slot(row), Some(4));
        t.advance_to(Tick(2)); // the whole window drains
        assert_eq!(t.row_of(7), Some(row), "a tracked row outlives its counts");
        assert_eq!(t.total(row), 0);
        assert_eq!(t.count(7), 0);
        t.unlink(row);
        assert_eq!(t.row_of(7), None, "eviction frees an uncounted row");
        assert!(t.is_empty());
    }

    #[test]
    fn counted_row_survives_eviction() {
        let mut t = PairTable::new(3);
        t.observe(Tick(0), 7, 1);
        t.drain_candidates(|_, _| Some(0));
        let row = t.row_of(7).unwrap();
        t.unlink(row);
        assert_eq!(t.row_of(7), Some(row), "still counted in the window");
        assert_eq!(t.slot(row), None);
        t.advance_to(Tick(3));
        assert_eq!(t.row_of(7), None, "freed once its count expires");
    }

    #[test]
    fn freed_row_is_reused_without_residue() {
        let mut t = PairTable::new(2);
        t.observe(Tick(0), 1, 5);
        t.drain_candidates(|_, _| None);
        let row = t.row_of(1).unwrap();
        t.advance_to(Tick(2));
        assert!(t.is_empty(), "uncounted, untracked, no candidate: freed");
        t.observe(Tick(2), 9, 2);
        assert_eq!(t.row_of(9), Some(row), "the freed row is reused");
        assert_eq!(t.total(row), 2);
        assert_eq!(t.slot(row), None);
        assert_eq!(t.count(1), 0);
        assert_eq!(t.candidate_keys(), vec![9]);
        assert_eq!(
            t.per_tick_counts(),
            vec![vec![(9, 2)]],
            "a whole-window gap restarts the columns"
        );
        assert_eq!(t.total_events(), 2);
    }

    #[test]
    fn candidate_survives_a_window_gap() {
        for gap in [2u64, 3, 10] {
            let mut t = PairTable::new(2);
            t.observe(Tick(0), 5, 1);
            t.advance_to(Tick(gap));
            assert_eq!(t.count(5), 0, "counts expired after a gap of {gap}");
            let mut promoted = Vec::new();
            t.drain_candidates(|key, _| {
                promoted.push(key);
                Some(0)
            });
            assert_eq!(promoted, vec![5], "gap {gap}: the candidate is still discovered");
            let row = t.row_of(5).unwrap();
            assert_eq!((t.slot(row), t.total(row)), (Some(0), 0));
        }
    }

    #[test]
    fn zero_count_observation_is_only_a_candidate() {
        let mut t = PairTable::new(3);
        t.observe(Tick(4), 8, 0);
        assert_eq!(t.count(8), 0);
        assert_eq!(t.len(), 1);
        assert_eq!(t.per_tick_counts(), vec![vec![]], "nothing counted");
        t.drain_candidates(|_, _| None);
        assert!(t.is_empty());
        assert_eq!(t.newest_tick(), Some(Tick(4)), "the observation still advanced the window");
    }

    #[test]
    fn late_observation_counts_into_the_open_tick() {
        let mut t = PairTable::new(3);
        t.observe(Tick(5), 1, 1);
        t.observe(Tick(3), 2, 4);
        assert_eq!(t.per_tick_counts(), vec![vec![(1, 1), (2, 4)]]);
        t.advance_to(Tick(7));
        assert_eq!(t.count(2), 4, "still inside the window at tick 7");
        t.advance_to(Tick(8));
        assert_eq!(t.count(2), 0, "expires with tick 5, the tick it was counted in");
    }

    #[test]
    fn columns_round_trip() {
        let mut t = PairTable::new(4);
        t.observe(Tick(1), 1, 2);
        t.observe(Tick(2), 2, 3);
        t.observe(Tick(2), 1, 1);
        t.advance_to(Tick(4));
        let columns = t.per_tick_counts();
        assert_eq!(columns, vec![vec![(1, 2)], vec![(1, 1), (2, 3)], vec![], vec![]]);
        let mut restored = PairTable::new(4);
        for column in &columns {
            restored.restore_column(Tick(4), column);
        }
        assert_eq!(restored.per_tick_counts(), columns);
        assert!(restored.candidate_keys().is_empty());
        for tick in 5..8u64 {
            t.advance_to(Tick(tick));
            restored.advance_to(Tick(tick));
            assert_eq!(restored.per_tick_counts(), t.per_tick_counts(), "tick {tick}");
            assert_eq!((restored.count(1), restored.count(2)), (t.count(1), t.count(2)));
        }
    }

    #[test]
    fn one_tick_window_expires_the_open_tick() {
        let mut t = PairTable::new(1);
        t.observe(Tick(0), 3, 2);
        t.drain_candidates(|_, _| None);
        assert_eq!(t.count(3), 2);
        t.advance_to(Tick(1));
        assert_eq!(t.count(3), 0);
        assert!(t.is_empty());
        assert_eq!(t.held(), 1);
    }
}
