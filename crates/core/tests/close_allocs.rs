//! Pins the allocation-free steady-state tick close of the slab-resident
//! pair registry.
//!
//! The counting-allocator shim (`crates/compat/alloc_counter`) is this
//! binary's global allocator; its counters are process-global, so this
//! file holds exactly one `#[test]` — all scenarios run inside it, with
//! the measured sections on the test thread and serial close (a parallel
//! fan-out allocates thread stacks by design; the populations and batches
//! here stay below `FANOUT_MIN_ITEMS`, so every phase runs serially).
//!
//! Scope: the registry close cycle — window advance, seeded discovery
//! over the open-tick candidates, shift scoring across every tracked
//! pair, and eviction. Ranking *emission* is excluded: it returns a
//! freshly built `Vec` by contract. Ingest of previously seen keys is
//! also covered (table rows, tick columns and candidate lists retain
//! their capacity), both
//! per observation and as a pre-partitioned batch of counted runs, as is
//! the seed tracker's dense tag-count refresh.

use enblogue_core::pairs::{ScoringMode, ShardedPairRegistry, FANOUT_MIN_ITEMS};
use enblogue_ingest::partition::{partition_docs, PartitionSpec, PartitionedBatch};
use enblogue_stats::predict::PredictorKind;
use enblogue_stats::shift::{ErrorNormalization, ShiftScorer};
use enblogue_types::{Document, FxHashSet, TagId, TagPair, Tick, TickSpec, Timestamp};

#[global_allocator]
static ALLOC: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc;

/// One full tick of the workload: observations for a stable pair
/// population, then the serial close cycle.
fn run_tick(registry: &mut ShardedPairRegistry, seeds: &FxHashSet<TagId>, s: &ShiftScorer, t: u64) {
    let tick = Tick(t);
    for a in 0..PAIRS {
        // Every pair is observed every few ticks (rotating), so windowed
        // support stays alive and the counter's key set stays stable.
        if (a + t as u32).is_multiple_of(3) {
            registry.observe_pair(tick, TagPair::new(TagId(a), TagId(a + 1000)).packed());
        }
    }
    registry.advance_to(tick);
    registry.discover_seeded(seeds, tick, 0);
    registry.score_all(tick, Timestamp::from_hours(t), s, |pair, ab| {
        ab as f64 / (4.0 + (pair.lo().0 % 5) as f64)
    });
    registry.evict(tick, Timestamp::from_hours(t));
}

const PAIRS: u32 = 512;

#[test]
fn steady_state_close_is_allocation_free() {
    let scorer = ShiftScorer::new(PredictorKind::Ewma(0.3), ErrorNormalization::Absolute);
    let seeds: FxHashSet<TagId> = (0..PAIRS).map(TagId).collect();

    // A static 4-store registry; support window of 6 ticks, the rotating
    // observation schedule keeps all pairs supported, no cap pressure.
    // Scoring defaults to the lane-tiled batched path, so this scenario
    // pins the tile gather/score loop as allocation-free.
    let mut registry = ShardedPairRegistry::new(4, 6, Timestamp::DAY, 1, 10_000);
    assert_eq!(registry.scoring(), ScoringMode::Batched, "batched is the default close path");

    // Warm-up: population forms, window fills, every scratch buffer and
    // lane reaches its steady-state capacity.
    for t in 0..12u64 {
        run_tick(&mut registry, &seeds, &scorer, t);
    }
    assert_eq!(registry.len() as u32, PAIRS, "the whole population is tracked and stable");

    // Steady state: same key population, no discovery, no eviction — the
    // close cycle must not touch the allocator at all.
    let (_, allocs) = alloc_counter::measure(|| {
        for t in 12..24u64 {
            run_tick(&mut registry, &seeds, &scorer, t);
        }
    });
    assert_eq!(allocs, 0, "steady-state ingest + close must be allocation-free");
    let stats = registry.stats();
    assert_eq!(registry.len() as u32, PAIRS, "population unchanged through the measured window");
    assert_eq!(stats.evicted, 0);

    // The registry's own close-path growth counter agrees: whatever
    // growth happened, it happened during warm-up, none after.
    let close_allocs_before = stats.close_allocs;
    for t in 24..30u64 {
        run_tick(&mut registry, &seeds, &scorer, t);
    }
    assert_eq!(
        registry.stats().close_allocs,
        close_allocs_before,
        "no close-path buffer grew in steady state"
    );

    // Scenario 2: a cap-bound registry (eviction every tick). The cap
    // scratch and slab free lists must reach a fixed point too: after a
    // few capped ticks the cycle is allocation-free even though discovery
    // and cap eviction both run every tick over a *stable* key set.
    // (Population churn with brand-new keys legitimately allocates — that
    // is registry growth, not the close path.)
    let mut capped = ShardedPairRegistry::new(2, 6, Timestamp::DAY, 1, 256);
    for t in 0..12u64 {
        run_tick(&mut capped, &seeds, &scorer, t);
    }
    assert_eq!(capped.len(), 256, "the cap binds");
    let evicted_before = capped.stats().evicted;
    let (_, allocs) = alloc_counter::measure(|| {
        for t in 12..20u64 {
            run_tick(&mut capped, &seeds, &scorer, t);
        }
    });
    assert!(capped.stats().evicted > evicted_before, "cap eviction ran during the measurement");
    assert_eq!(allocs, 0, "cap-bound steady-state close must be allocation-free");

    // Scenario 3: the scalar reference path. Both scoring modes share the
    // close cycle's zero-allocation contract — the `scoring_mode` knob is
    // a pure execution choice, not a memory-behaviour one.
    let mut scalar = ShardedPairRegistry::new(4, 6, Timestamp::DAY, 1, 10_000);
    scalar.set_scoring(ScoringMode::Scalar);
    for t in 0..12u64 {
        run_tick(&mut scalar, &seeds, &scorer, t);
    }
    assert_eq!(scalar.len() as u32, PAIRS, "scalar-mode population is tracked and stable");
    let (_, allocs) = alloc_counter::measure(|| {
        for t in 12..24u64 {
            run_tick(&mut scalar, &seeds, &scorer, t);
        }
    });
    assert_eq!(allocs, 0, "scalar-mode steady-state close must be allocation-free");

    // Scenario 4: telemetry attached, cap-bound (the hardest case: every
    // measured tick records per-shard close histograms AND journals an
    // eviction event). All telemetry state — histogram buckets, the event
    // ring — is preallocated at attach/construction time, so the
    // instrumented warm close must stay allocation-free.
    let telemetry = enblogue_telemetry::Telemetry::new(64);
    let mut observed = ShardedPairRegistry::new(2, 6, Timestamp::DAY, 1, 256);
    observed.attach_telemetry(&telemetry);
    for t in 0..12u64 {
        run_tick(&mut observed, &seeds, &scorer, t);
    }
    assert_eq!(observed.len(), 256, "the cap binds under telemetry too");
    let (_, allocs) = alloc_counter::measure(|| {
        for t in 12..20u64 {
            run_tick(&mut observed, &seeds, &scorer, t);
        }
    });
    assert_eq!(allocs, 0, "telemetry-enabled steady-state close must be allocation-free");
    let shard0 = telemetry.registry().histogram_labeled("close.shard.ns", "shard", 0usize);
    assert!(shard0.count() >= 20, "per-shard close walks were recorded");
    assert!(telemetry.journal().recorded() > 0, "cap evictions were journaled");

    // Scenario 5: the serving tier's warm publish. Differential
    // measurement at the engine level: the same steady workload through
    // two engines — one bare, one with a `QueryHandle` publish stage
    // attached — must allocate *identically* in the measured window.
    // (The engine close itself allocates by contract — ranking emission
    // returns a fresh `Vec` — so the pin is equality, not zero: the
    // publish's own contribution is exactly zero, because retired views
    // are pooled and `export_view` refills their columns in place.)
    serve_publish_is_allocation_free();

    // Scenario 6: the seed tracker's dense tag-count column. Refreshed at
    // every seed close; once it spans the largest live tag it is
    // zero-filled and rewritten in place.
    tag_count_refresh_is_allocation_free();

    // Scenario 7: the warm serial apply of counted runs, the engine's
    // batch path. Partitioning runs off the applier thread, so batches are
    // built up front and only the apply + close is measured.
    run_apply_is_allocation_free(&seeds, &scorer);

    // Scenario 8: a churning population. Every tick brings fresh keys
    // (discovery), drops keys whose window drained (support eviction),
    // overflows the cap (cap eviction) and expires a tick column. The
    // pair table's row free list, the slab's slot free list, the sealed
    // columns and the candidate list all reach a fixed capacity, so a
    // warm churning tick allocates nothing.
    churning_close_is_allocation_free(&scorer);
}

/// Churn workload: tick `t` observes tags `(t·STEP + i) mod UNIVERSE` for
/// `i < SPAN`, so each key is seen for `SPAN / STEP` ticks, lingers in
/// the window, loses support and is evicted; keys return every
/// `UNIVERSE / STEP` ticks into recycled rows and slots.
const CHURN_UNIVERSE: u32 = 600;
const CHURN_STEP: u32 = 12;
const CHURN_SPAN: u32 = 24;
const CHURN_CAP: usize = 120;

fn churn_tick(
    registry: &mut ShardedPairRegistry,
    seeds: &FxHashSet<TagId>,
    s: &ShiftScorer,
    t: u64,
) {
    let tick = Tick(t);
    for i in 0..CHURN_SPAN {
        let a = (t as u32 * CHURN_STEP + i) % CHURN_UNIVERSE;
        registry.observe_pair(tick, TagPair::new(TagId(a), TagId(a + 1000)).packed());
    }
    registry.advance_to(tick);
    registry.discover_seeded(seeds, tick, 2);
    registry.score_all(tick, Timestamp::from_hours(t), s, |pair, ab| {
        ab as f64 / (4.0 + (pair.lo().0 % 5) as f64)
    });
}

/// Evicted keys of one close, split into `(support, cap)` evictions by
/// replaying the support rule from outside.
fn churn_evict(
    registry: &mut ShardedPairRegistry,
    last_support: &mut std::collections::BTreeMap<u64, u64>,
    t: u64,
) -> (usize, usize) {
    const WINDOW: u64 = 6;
    let before = registry.tracked_keys();
    for &key in &before {
        let supported = registry.pair_count(TagPair::from_packed(key)) >= 1;
        let entry = last_support.entry(key).or_insert(t);
        if supported {
            *entry = t;
        }
    }
    let stale: Vec<u64> =
        before.iter().copied().filter(|k| t - last_support[k] >= WINDOW).collect();
    registry.evict(Tick(t), Timestamp::from_hours(t));
    let after = registry.tracked_keys();
    let evicted: Vec<u64> =
        before.iter().copied().filter(|k| after.binary_search(k).is_err()).collect();
    for key in &evicted {
        last_support.remove(key);
    }
    assert!(stale.iter().all(|k| evicted.contains(k)), "support eviction removes every stale pair");
    (stale.len(), evicted.len() - stale.len())
}

fn churning_close_is_allocation_free(scorer: &ShiftScorer) {
    let seeds: FxHashSet<TagId> = (0..CHURN_UNIVERSE).map(TagId).collect();
    let cycle = u64::from(CHURN_UNIVERSE / CHURN_STEP);
    // Long warm-up: erased index entries leave tombstones, and the index
    // may grow once, a few cycles in, before it reaches its fixed point.
    let warm = 6 * cycle;
    let measured = warm..warm + cycle;

    // A twin run, with bookkeeping, shows what the measured ticks do.
    let mut twin = ShardedPairRegistry::new(2, 6, Timestamp::DAY, 1, CHURN_CAP);
    let mut last_support = std::collections::BTreeMap::new();
    let (mut support, mut cap, mut discovered) = (0, 0, 0);
    for t in 0..measured.end {
        let before = twin.discovered_total();
        churn_tick(&mut twin, &seeds, scorer, t);
        let (by_support, by_cap) = churn_evict(&mut twin, &mut last_support, t);
        if measured.contains(&t) {
            discovered += twin.discovered_total() - before;
            support += by_support;
            cap += by_cap;
        }
    }
    assert!(discovered > 0 && support > 0 && cap > 0, "{discovered} {support} {cap}");

    let mut registry = ShardedPairRegistry::new(2, 6, Timestamp::DAY, 1, CHURN_CAP);
    for t in 0..warm {
        churn_tick(&mut registry, &seeds, scorer, t);
        registry.evict(Tick(t), Timestamp::from_hours(t));
    }
    let (_, allocs) = alloc_counter::measure(|| {
        for t in measured.clone() {
            churn_tick(&mut registry, &seeds, scorer, t);
            registry.evict(Tick(t), Timestamp::from_hours(t));
        }
    });
    assert_eq!(allocs, 0, "a warm churning close must be allocation-free");
    assert_eq!(registry.tracked_keys(), twin.tracked_keys(), "the twin ran the same ticks");
    assert_eq!(registry.len(), CHURN_CAP, "the cap binds");
    let stats = registry.stats();
    assert!(stats.observed_keys > registry.len(), "counted keys outnumber tracked ones");
}

/// The `run_tick` workload as one pre-partitioned batch per tick: every
/// pair's document twice, so its run carries a count of 2.
fn partitioned_ticks(shards: usize, ticks: std::ops::Range<u64>) -> Vec<PartitionedBatch> {
    let spec = PartitionSpec { tick_spec: TickSpec::hourly(), use_entities: false, shards };
    ticks
        .map(|t| {
            let docs: Vec<Document> = (0..PAIRS)
                .filter(|a| (a + t as u32).is_multiple_of(3))
                .flat_map(|a| [a, a])
                .map(|a| {
                    Document::builder(u64::from(a), Timestamp::from_hours(t))
                        .tags([TagId(a), TagId(a + 1000)])
                        .build()
                })
                .collect();
            partition_docs(&docs, &spec)
        })
        .collect()
}

fn run_apply_is_allocation_free(seeds: &FxHashSet<TagId>, scorer: &ShiftScorer) {
    let batches = partitioned_ticks(4, 0..24);
    let apply_tick = |registry: &mut ShardedPairRegistry, t: u64| {
        let tick = Tick(t);
        registry.ingest_partitioned(batches[t as usize].buckets());
        registry.advance_to(tick);
        registry.discover_seeded(seeds, tick, 0);
        registry.score_all(tick, Timestamp::from_hours(t), scorer, |pair, ab| {
            ab as f64 / (4.0 + (pair.lo().0 % 5) as f64)
        });
        registry.evict(tick, Timestamp::from_hours(t));
    };
    let runs: usize = batches[12].buckets().iter().map(Vec::len).sum();
    assert!(runs > 0 && runs < FANOUT_MIN_ITEMS, "{runs} runs: a serial apply");
    assert!(batches[12].observations == 2 * runs, "every run combines two observations");

    let mut registry = ShardedPairRegistry::new(4, 6, Timestamp::DAY, 1, 10_000);
    for t in 0..12u64 {
        apply_tick(&mut registry, t);
    }
    assert_eq!(registry.len() as u32, PAIRS, "the whole population is tracked and stable");
    let (_, allocs) = alloc_counter::measure(|| {
        for t in 12..24u64 {
            apply_tick(&mut registry, t);
        }
    });
    assert_eq!(allocs, 0, "a warm serial apply of counted runs must be allocation-free");
    assert_eq!(registry.stats().evicted, 0);
}

fn tag_count_refresh_is_allocation_free() {
    use enblogue_core::config::SeedStrategy;
    use enblogue_core::seeds::SeedTracker;

    let mut tracker = SeedTracker::new(SeedStrategy::Popularity, 8, 1, 6);
    for t in 0..12u64 {
        for tag in 0..PAIRS {
            if (tag + t as u32).is_multiple_of(3) {
                tracker.observe(Tick(t), TagId(tag));
            }
        }
        let _ = tracker.close_tick(Tick(t));
    }
    let before: Vec<u64> = tracker.tag_counts().to_vec();
    let (_, allocs) = alloc_counter::measure(|| {
        for _ in 0..8 {
            tracker.refresh_tag_counts();
        }
    });
    assert_eq!(allocs, 0, "a warm tag-count refresh must be allocation-free");
    assert_eq!(tracker.tag_counts(), &before[..], "refreshing an unchanged window is idempotent");
    assert!(before.iter().any(|&count| count > 0), "the column holds live counts");
}

fn serve_engine(interner: &enblogue_types::TagInterner) -> enblogue_core::engine::EnBlogueEngine {
    let config = enblogue_core::config::EnBlogueConfig::builder()
        .tick_spec(enblogue_types::TickSpec::hourly())
        .window_ticks(6)
        .seed_count(32)
        .top_k(10)
        .build()
        .unwrap();
    let _ = interner;
    enblogue_core::engine::EnBlogueEngine::new(config)
}

fn serve_publish_is_allocation_free() {
    use enblogue_serve::{QueryHandle, QueryView, ServeConfig};
    use enblogue_types::{Document, TagInterner, TagKind, TickSpec};

    let interner = TagInterner::new();
    let tags: Vec<TagId> =
        (0..64).map(|i| interner.intern(&format!("tag{i:02}"), TagKind::Hashtag)).collect();

    // A stable periodic workload (rotating co-occurrences, like
    // `run_tick`), fully materialized before any measurement.
    let mut id = 0u64;
    let per_tick: Vec<Vec<Document>> = (0..36u64)
        .map(|t| {
            (0..32u32)
                .flat_map(|a| {
                    // 1–3 observations per pair per tick, rotating, so
                    // every tag clears the seed floor and correlations
                    // keep shifting (non-empty rankings every close).
                    (0..1 + (a + t as u32) % 3).map(move |_| a)
                })
                .map(|a| {
                    id += 1;
                    Document::builder(id, Timestamp::from_hours(t))
                        .tag(tags[a as usize])
                        .tag(tags[a as usize + 32])
                        .build()
                })
                .collect()
        })
        .collect();
    assert_eq!(TickSpec::hourly().tick_of(per_tick[1][0].timestamp), Tick(1));

    let run = |engine: &mut enblogue_core::engine::EnBlogueEngine, window: std::ops::Range<u64>| {
        for t in window {
            engine.process_docs(&per_tick[t as usize]);
            let _ = engine.close_tick(Tick(t));
        }
    };

    // Bare engine: warm, then measure the steady window.
    let mut bare = serve_engine(&interner);
    run(&mut bare, 0..12);
    let (_, bare_allocs) = alloc_counter::measure(|| run(&mut bare, 12..36));

    // Serving engine: identical workload, publish stage attached.
    let mut serving = serve_engine(&interner);
    let handle = QueryHandle::attach(&mut serving, interner.clone(), ServeConfig::default());
    run(&mut serving, 0..12);
    assert!(
        handle.view().is_some_and(|v| !v.ranking().map(|s| s.ranked.is_empty()).unwrap_or(true)),
        "the workload must produce non-trivial published rankings"
    );
    let (_, serving_allocs) = alloc_counter::measure(|| run(&mut serving, 12..36));

    assert_eq!(handle.epoch(), 36, "one publish per close");
    assert_eq!(
        serving_allocs, bare_allocs,
        "a warm publish must add zero allocations to the tick close"
    );
}
