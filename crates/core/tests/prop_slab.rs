//! Property tests for the slab-resident pair storage: the sharded
//! registry (slab columns, arena history rings, the pair table's windowed
//! counts) must be observably indistinguishable from a straightforward
//! map-of-structs reference model under random ingest / close / evict /
//! snapshot-restore sequences over any shard count — including bit-exact
//! scores,
//! since both sides must perform the identical float operations in the
//! identical order. A second property pins that the slot layout, and so
//! the order the close visits pairs in, has no effect on any result.

use enblogue_core::pairs::{ScoringMode, ShardedPairRegistry};
use enblogue_stats::predict::PredictorKind;
use enblogue_stats::shift::{ErrorNormalization, ShiftScorer};
use enblogue_types::{FxHashSet, TagId, TagPair, Tick, Timestamp};
use enblogue_window::DecayValue;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

const POOL: usize = 4;
const WINDOW: usize = 5;
const MIN_SUPPORT: u64 = 1;
const CAP: usize = 12;
const TOP_K: usize = 16;

fn scorer() -> ShiftScorer {
    ShiftScorer::new(PredictorKind::Ewma(0.3), ErrorNormalization::Absolute)
}

/// The synthetic but deterministic correlation both sides compute.
fn correlate(pair: TagPair, ab: u64) -> f64 {
    ab as f64 / (3.0 + (pair.lo().0 % 7) as f64)
}

fn seeded(pair: TagPair, seeds: &FxHashSet<TagId>) -> bool {
    seeds.contains(&pair.lo()) || seeds.contains(&pair.hi())
}

/// The straightforward reference: a `BTreeMap` of per-pair structs with
/// `Vec` histories, and brute-force windowed counts over the retained
/// per-tick observation log. No slabs, no lanes, no incremental anything.
struct RefModel {
    states: BTreeMap<u64, RefState>,
    /// Every observation ever, as `(tick, packed)` — windowed counts are
    /// recomputed from scratch on demand.
    log: Vec<(u64, u64)>,
    current: Vec<u64>,
    evicted: u64,
}

struct RefState {
    history: Vec<f64>,
    score: DecayValue,
    last_support: Tick,
    since: Tick,
}

impl RefModel {
    fn new() -> Self {
        RefModel { states: BTreeMap::new(), log: Vec::new(), current: Vec::new(), evicted: 0 }
    }

    fn observe(&mut self, tick: u64, packed: u64) {
        self.log.push((tick, packed));
        self.current.push(packed);
    }

    /// Windowed co-occurrence count of `packed` in the window ending at
    /// `tick`, brute-force over the log.
    fn count(&self, tick: u64, packed: u64) -> u64 {
        let lo = tick.saturating_sub(WINDOW as u64 - 1);
        self.log.iter().filter(|&&(t, k)| k == packed && t >= lo && t <= tick).count() as u64
    }

    fn close(&mut self, tick: u64, seeds: &FxHashSet<TagId>, s: &ShiftScorer) {
        let now = Timestamp::from_hours(tick);
        // Discovery: this tick's seeded co-occurrences become tracked.
        let candidates = std::mem::take(&mut self.current);
        for packed in candidates {
            let pair = TagPair::from_packed(packed);
            if seeded(pair, seeds) {
                self.states.entry(packed).or_insert_with(|| RefState {
                    history: Vec::new(),
                    score: DecayValue::new(Timestamp::DAY),
                    last_support: Tick(tick),
                    since: Tick(tick),
                });
            }
        }
        // Scoring: every tracked pair, history before this tick's value.
        let counts: Vec<(u64, u64)> =
            self.states.keys().map(|&packed| (packed, self.count(tick, packed))).collect();
        for (packed, ab) in counts {
            let state = self.states.get_mut(&packed).expect("key from same map");
            let correlation = correlate(TagPair::from_packed(packed), ab);
            let shift = if ab >= MIN_SUPPORT {
                s.score(&state.history, correlation).map(|(v, _)| v).unwrap_or(0.0)
            } else {
                0.0
            };
            state.score.observe_max(now, shift);
            state.history.push(correlation);
            if state.history.len() > WINDOW {
                state.history.remove(0);
            }
            if ab >= MIN_SUPPORT {
                state.last_support = Tick(tick);
            }
        }
        // Eviction: support loss, then the global cap (weakest first).
        let before = self.states.len();
        self.states.retain(|_, state| Tick(tick).since(state.last_support) < WINDOW as u64);
        self.evicted += (before - self.states.len()) as u64;
        if self.states.len() > CAP {
            let excess = self.states.len() - CAP;
            let mut scored: Vec<(f64, u64)> =
                self.states.iter().map(|(&packed, s)| (s.score.value_at(now), packed)).collect();
            scored.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite").then(a.1.cmp(&b.1)));
            for &(_, packed) in scored.iter().take(excess) {
                self.states.remove(&packed);
                self.evicted += 1;
            }
        }
    }

    fn ranking(&self, tick: u64) -> Vec<(TagPair, f64)> {
        let now = Timestamp::from_hours(tick);
        let mut ranked: Vec<(TagPair, f64)> = self
            .states
            .iter()
            .map(|(&packed, s)| (TagPair::from_packed(packed), s.score.value_at(now)))
            .filter(|&(_, score)| score > 0.0)
            .collect();
        ranked.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).expect("finite").then(a.0.packed().cmp(&b.0.packed()))
        });
        ranked.truncate(TOP_K);
        ranked
    }
}

fn registry(shards: usize) -> ShardedPairRegistry {
    ShardedPairRegistry::new(shards, WINDOW, Timestamp::DAY, MIN_SUPPORT, CAP)
}

/// Round-trips the registry through its standalone snapshot payload.
fn roundtrip(registry: ShardedPairRegistry) -> ShardedPairRegistry {
    let bytes = registry.snapshot_bytes();
    ShardedPairRegistry::from_snapshot_bytes(
        &bytes,
        registry.shard_count(),
        WINDOW,
        Timestamp::DAY,
        MIN_SUPPORT,
        CAP,
    )
    .expect("self-produced snapshot restores")
}

/// Asserts that two registries are observably identical at `tick`:
/// tracked keys, histories and score bits of every pair, the ranking, and
/// the snapshot bytes.
fn assert_same_state(
    a: &ShardedPairRegistry,
    b: &ShardedPairRegistry,
    tick: u64,
) -> Result<(), TestCaseError> {
    let now = Timestamp::from_hours(tick);
    let keys = a.tracked_keys();
    prop_assert_eq!(&keys, &b.tracked_keys(), "tracked keys at tick {}", tick);
    for &packed in &keys {
        let pair = TagPair::from_packed(packed);
        let bits = |r: &ShardedPairRegistry| -> Vec<u64> {
            r.history_of(pair).expect("tracked").iter().map(|v| v.to_bits()).collect()
        };
        prop_assert_eq!(bits(a), bits(b), "history of {} at tick {}", pair, tick);
        let (ia, ib) = (a.info(pair, Tick(tick), now), b.info(pair, Tick(tick), now));
        let (ia, ib) = (ia.expect("tracked"), ib.expect("tracked"));
        prop_assert_eq!(ia.score.to_bits(), ib.score.to_bits(), "score of {} at {}", pair, tick);
        prop_assert_eq!(ia.tracked_ticks, ib.tracked_ticks, "age of {} at tick {}", pair, tick);
    }
    let ranking_bits = |r: &ShardedPairRegistry| -> Vec<(u64, u64)> {
        r.ranking(TOP_K, now).iter().map(|&(p, s)| (p.packed(), s.to_bits())).collect()
    };
    prop_assert_eq!(ranking_bits(a), ranking_bits(b), "ranking at tick {}", tick);
    prop_assert!(a.snapshot_bytes() == b.snapshot_bytes(), "snapshot bytes at tick {}", tick);
    Ok(())
}

/// A statically sharded registry for the slot-order property (its cap
/// never binds while the pair set is being discovered).
const ORDER_CAP: usize = 32;

fn static_registry() -> ShardedPairRegistry {
    ShardedPairRegistry::new(POOL, WINDOW, Timestamp::DAY, MIN_SUPPORT, ORDER_CAP)
}

fn static_roundtrip(registry: &ShardedPairRegistry, mode: ScoringMode) -> ShardedPairRegistry {
    let mut restored = ShardedPairRegistry::from_snapshot_bytes(
        &registry.snapshot_bytes(),
        POOL,
        WINDOW,
        Timestamp::DAY,
        MIN_SUPPORT,
        ORDER_CAP,
    )
    .expect("self-produced snapshot restores");
    restored.set_scoring(mode);
    restored
}

/// Fisher–Yates over a small LCG, so the permutation is a function of the
/// generated seed.
fn shuffle<T>(items: &mut [T], mut state: u64) {
    for i in (1..items.len()).rev() {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        items.swap(i, (state >> 33) as usize % (i + 1));
    }
}

proptest! {
    /// The close's visiting order is the slab's slot order, and that order
    /// is an accident of discovery and eviction history. Two registries
    /// discover the same pair set — one in ascending key order, one in a
    /// random permutation interleaved with evictions so freed slots get
    /// reused — and must then agree bit for bit through `N` identical
    /// closes in both scoring modes, including across a snapshot
    /// round-trip.
    #[test]
    fn slot_order_has_no_effect_on_results(
        pair_set in proptest::collection::hash_set((0u32..16, 0u32..16), 1..=ORDER_CAP),
        decoys in proptest::collection::hash_set((0u32..16, 0u32..16), 1..24),
        layout_seed in 0u64..u64::MAX,
        obs in proptest::collection::vec((0u64..6, 0u32..16, 0u32..16), 0..200),
        snapshot_at in 0u64..6,
    ) {
        const START: u64 = WINDOW as u64;
        let s = scorer();
        let seeds: FxHashSet<TagId> = (0..40u32).filter(|a| a % 2 == 0).map(TagId).collect();
        let key = |(a, b): (u32, u32)| TagPair::new(TagId(a), TagId(b + 100)).packed();
        let reals: BTreeSet<u64> = pair_set.iter().map(|&p| key(p)).collect();
        // Decoys live in their own tag range, are discovered a full window
        // earlier than the real pairs, and are never observed — so the
        // support eviction at `START` removes exactly them.
        let decoys: Vec<u64> =
            decoys.iter().map(|&(a, b)| TagPair::new(TagId(a + 200), TagId(b + 300)).packed()).collect();
        let backfill = |packed: u64| (packed % WINDOW as u64) as usize;

        for mode in [ScoringMode::Batched, ScoringMode::Scalar] {
            // A: reals ascending, then every decoy, then one eviction.
            let mut a = static_registry();
            a.set_scoring(mode);
            for &packed in &reals {
                a.discover(TagPair::from_packed(packed), Tick(START), backfill(packed));
            }
            for &packed in &decoys {
                a.discover(TagPair::from_packed(packed), Tick(0), 0);
            }
            a.evict(Tick(START), Timestamp::from_hours(START));

            // B: reals permuted, decoys and evictions interleaved.
            let mut b = static_registry();
            b.set_scoring(mode);
            let mut order: Vec<u64> = reals.iter().copied().collect();
            shuffle(&mut order, layout_seed);
            let mut pending_decoys = decoys.iter().copied();
            let mut state = layout_seed ^ 0x9e37_79b9_7f4a_7c15;
            for packed in order {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                match (state >> 40) % 3 {
                    0 => {
                        if let Some(decoy) = pending_decoys.next() {
                            b.discover(TagPair::from_packed(decoy), Tick(0), 0);
                        }
                    }
                    1 => {
                        b.evict(Tick(START), Timestamp::from_hours(START));
                    }
                    _ => {}
                }
                b.discover(TagPair::from_packed(packed), Tick(START), backfill(packed));
            }
            for decoy in pending_decoys {
                b.discover(TagPair::from_packed(decoy), Tick(0), 0);
            }
            b.evict(Tick(START), Timestamp::from_hours(START));
            prop_assert_eq!(a.len(), reals.len());
            assert_same_state(&a, &b, START)?;

            for step in 0..6u64 {
                let tick = START + step;
                let now = Timestamp::from_hours(tick);
                for r in [&mut a, &mut b] {
                    for &(t, x, y) in &obs {
                        if t == step {
                            r.observe_pair(Tick(tick), key((x, y)));
                        }
                    }
                    r.advance_to(Tick(tick));
                    r.discover_seeded(&seeds, Tick(tick), 2);
                    r.score_all(Tick(tick), now, &s, correlate);
                    r.evict(Tick(tick), now);
                }
                assert_same_state(&a, &b, tick)?;
                if step == snapshot_at {
                    a = static_roundtrip(&a, mode);
                    b = static_roundtrip(&b, mode);
                    assert_same_state(&a, &b, tick)?;
                }
            }
        }
    }

    /// The full observable surface of the slab registry — tracked keys,
    /// correlation histories, windowed counts, rankings, eviction totals
    /// — matches the reference model at every tick close, for any shard
    /// count, with snapshot round-trips injected between ticks.
    #[test]
    fn slab_registry_matches_reference_model(
        obs in proptest::collection::vec((0u64..8, 0u32..16, 0u32..16), 1..300),
        shards in proptest::sample::select(vec![1usize, 4, 16]),
        snapshot_at in proptest::collection::vec(0u64..8, 0..3),
    ) {
        let s = scorer();
        // Only even tags seed, so some observed pairs stay undiscovered —
        // their windowed counts must still survive a restore.
        let seeds: FxHashSet<TagId> = (0..40u32).filter(|a| a % 2 == 0).map(TagId).collect();
        let mut r = registry(shards);
        let mut model = RefModel::new();
        let last_tick = obs.iter().map(|&(t, _, _)| t).max().unwrap_or(0);
        let mut observed: Vec<u64> = Vec::new();

        for tick in 0..=last_tick {
            for &(t, a, b) in &obs {
                if t == tick {
                    // Self-pairs are invalid; offset the second tag space.
                    let pair = TagPair::new(TagId(a), TagId(b + 100));
                    r.observe_pair(Tick(tick), pair.packed());
                    model.observe(tick, pair.packed());
                    observed.push(pair.packed());
                }
            }
            r.advance_to(Tick(tick));
            r.discover_seeded(&seeds, Tick(tick), 0);
            r.score_all(Tick(tick), Timestamp::from_hours(tick), &s, correlate);
            r.evict(Tick(tick), Timestamp::from_hours(tick));
            model.close(tick, &seeds, &s);

            // Every close: full observable comparison.
            let keys = r.tracked_keys();
            let expected: Vec<u64> = model.states.keys().copied().collect();
            prop_assert_eq!(&keys, &expected, "tracked keys at tick {}", tick);
            prop_assert_eq!(r.evicted_total(), model.evicted, "evictions at tick {}", tick);
            for &packed in &keys {
                let pair = TagPair::from_packed(packed);
                prop_assert_eq!(
                    r.history_of(pair).expect("tracked"),
                    model.states[&packed].history.clone(),
                    "history of {} at tick {}", pair, tick
                );
                let info = r.info(pair, Tick(tick), Timestamp::from_hours(tick)).expect("tracked");
                let state = &model.states[&packed];
                prop_assert_eq!(
                    info.score.to_bits(),
                    state.score.value_at(Timestamp::from_hours(tick)).to_bits(),
                    "score of {} at tick {}", pair, tick
                );
                prop_assert_eq!(
                    info.correlation,
                    state.history.last().copied().unwrap_or(0.0),
                    "newest correlation of {} at tick {}", pair, tick
                );
                prop_assert_eq!(
                    info.tracked_ticks,
                    Tick(tick).since(state.since),
                    "tracked ticks of {} at tick {}", pair, tick
                );
            }
            observed.sort_unstable();
            observed.dedup();
            for &packed in &observed {
                prop_assert_eq!(
                    r.pair_count(TagPair::from_packed(packed)),
                    model.count(tick, packed),
                    "windowed count of {:#x} at tick {}", packed, tick
                );
            }
            prop_assert_eq!(
                r.ranking(TOP_K, Timestamp::from_hours(tick)),
                model.ranking(tick),
                "ranking at tick {}", tick
            );

            // A scripted restore between ticks: the model has no notion of
            // it, so it must be observably invisible.
            if snapshot_at.contains(&tick) {
                r = roundtrip(r);
            }
        }
    }
}
