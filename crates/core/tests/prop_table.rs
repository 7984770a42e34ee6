//! Property test for the per-store pair table: windowed counts, the
//! discovery-candidate set, the exported tick columns and the row
//! population must match a naive `BTreeMap<(tick, key), count>` model
//! under random adds (late ticks, zero counts, gaps below and at or above
//! the window), advances, discovery rounds, evictions and restores.

use enblogue_core::table::PairTable;
use enblogue_types::Tick;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

const KEYS: u64 = 12;

/// The naive model: every count keyed by the tick it landed in.
struct Model {
    window: u64,
    newest: Option<u64>,
    /// Tick columns held (a whole-window gap restarts at one).
    held: u64,
    counts: BTreeMap<(u64, u64), u64>,
    candidates: BTreeSet<u64>,
    tracked: BTreeMap<u64, usize>,
    next_slot: usize,
}

impl Model {
    fn new(window: u64) -> Self {
        Model {
            window,
            newest: None,
            held: 0,
            counts: BTreeMap::new(),
            candidates: BTreeSet::new(),
            tracked: BTreeMap::new(),
            next_slot: 0,
        }
    }

    fn advance(&mut self, tick: u64) {
        match self.newest {
            None => {
                self.newest = Some(tick);
                self.held = 1;
            }
            Some(newest) if tick > newest => {
                let gap = tick - newest;
                self.held = if gap >= self.window { 1 } else { (self.held + gap).min(self.window) };
                self.newest = Some(tick);
            }
            Some(_) => {}
        }
    }

    /// A late add lands in the open tick.
    fn add(&mut self, tick: u64, key: u64, by: u64) {
        self.advance(tick);
        let open = self.newest.expect("advanced");
        if by > 0 {
            *self.counts.entry((open, key)).or_insert(0) += by;
        }
        self.candidates.insert(key);
    }

    fn in_window(&self, tick: u64) -> bool {
        self.newest.is_some_and(|newest| tick <= newest && tick + self.window > newest)
    }

    fn count(&self, key: u64) -> u64 {
        self.counts
            .iter()
            .filter(|&(&(t, k), _)| k == key && self.in_window(t))
            .map(|(_, &c)| c)
            .sum()
    }

    fn per_tick_counts(&self) -> Vec<Vec<(u64, u64)>> {
        let Some(newest) = self.newest else { return Vec::new() };
        (newest + 1 - self.held..=newest)
            .map(|tick| {
                self.counts
                    .range((tick, 0)..=(tick, u64::MAX))
                    .map(|(&(_, key), &count)| (key, count))
                    .collect()
            })
            .collect()
    }

    fn live_keys(&self) -> BTreeSet<u64> {
        let counted = (0..KEYS).filter(|&key| self.count(key) > 0);
        counted.chain(self.candidates.iter().copied()).chain(self.tracked.keys().copied()).collect()
    }
}

/// A tick relative to the open one, chosen by `x`: late, equal, next,
/// a gap below the window, or a gap at or above it.
fn pick_tick(newest: Option<u64>, x: u64, window: u64) -> u64 {
    let newest = newest.unwrap_or(10);
    match x % 6 {
        0 => newest.saturating_sub(x % 3 + 1),
        1 | 2 => newest,
        3 => newest + 1,
        4 => newest + (x / 6) % window,
        _ => newest + window + (x / 6) % 3,
    }
}

/// A table rebuilt from the table's exported state, the way a snapshot
/// restore rebuilds it.
fn restored(table: &PairTable, model: &Model, window: usize) -> PairTable {
    let mut fresh = PairTable::new(window);
    for key in table.candidate_keys() {
        fresh.mark_candidate(key);
    }
    for (&key, &slot) in &model.tracked {
        let row = fresh.ensure_row(key);
        fresh.link(row, slot);
    }
    if let Some(newest) = table.newest_tick() {
        for column in table.per_tick_counts() {
            fresh.restore_column(newest, &column);
        }
    }
    fresh
}

fn check(table: &PairTable, model: &Model, step: usize) -> Result<(), TestCaseError> {
    for key in 0..KEYS {
        prop_assert_eq!(table.count(key), model.count(key), "count of {} at step {}", key, step);
        let slot = table.row_of(key).and_then(|row| table.slot(row));
        prop_assert_eq!(slot, model.tracked.get(&key).copied(), "slot of {} at step {}", key, step);
    }
    let candidates: Vec<u64> = model.candidates.iter().copied().collect();
    prop_assert_eq!(table.candidate_keys(), candidates, "candidates at step {}", step);
    prop_assert_eq!(table.per_tick_counts(), model.per_tick_counts(), "columns at step {}", step);
    let live = model.live_keys();
    prop_assert_eq!(table.len(), live.len(), "rows at step {}", step);
    for key in 0..KEYS {
        prop_assert_eq!(table.row_of(key).is_some(), live.contains(&key), "row of {}", key);
    }
    let events: u64 = (0..KEYS).map(|key| model.count(key)).sum();
    prop_assert_eq!(table.total_events(), events);
    prop_assert_eq!(table.newest_tick(), model.newest.map(Tick));
    Ok(())
}

proptest! {
    #[test]
    fn table_matches_naive_model(
        window in proptest::sample::select(vec![1usize, 2, 3, 5]),
        ops in proptest::collection::vec((0u32..10, 0u64..60, 0u64..KEYS, 0u64..4), 1..160),
    ) {
        let mut table = PairTable::new(window);
        let mut model = Model::new(window as u64);
        let w = window as u64;
        for (step, &(kind, x, key, by)) in ops.iter().enumerate() {
            match kind {
                0..=4 => {
                    let tick = pick_tick(model.newest, x, w);
                    table.observe(Tick(tick), key, by);
                    model.add(tick, key, by);
                }
                5 | 6 => {
                    let tick = pick_tick(model.newest, x, w);
                    table.advance_to(Tick(tick));
                    model.advance(tick);
                }
                7 => {
                    // A discovery round: keys with `(key + x) % 3 == 0` seed.
                    let seeded = |k: u64| (k + x).is_multiple_of(3);
                    let mut promoted = BTreeMap::new();
                    let mut next = model.next_slot;
                    table.drain_candidates(|k, _| {
                        seeded(k).then(|| {
                            promoted.insert(k, next);
                            next += 1;
                            next - 1
                        })
                    });
                    let expected: Vec<u64> = model
                        .candidates
                        .iter()
                        .copied()
                        .filter(|&k| seeded(k) && !model.tracked.contains_key(&k))
                        .collect();
                    prop_assert_eq!(
                        promoted.keys().copied().collect::<Vec<_>>(),
                        expected,
                        "promoted at step {}", step
                    );
                    model.tracked.extend(promoted);
                    model.next_slot = next;
                    model.candidates.clear();
                }
                8 => {
                    // Evict one tracked pair.
                    if !model.tracked.is_empty() {
                        let at = x as usize % model.tracked.len();
                        let victim = *model.tracked.keys().nth(at).unwrap();
                        model.tracked.remove(&victim);
                        table.unlink(table.row_of(victim).expect("tracked key has a row"));
                    }
                }
                _ => table = restored(&table, &model, window),
            }
            check(&table, &model, step)?;
        }
    }
}
