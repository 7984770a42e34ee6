//! The serving-tier parity contract: a published `TickView` answers the
//! unified `QueryView` API **byte-identically** to the engine's own
//! accessors for the same closed tick — across shard pools, close
//! modes, and rebalancing policies — and concurrent readers racing live
//! ingest never observe a torn or stale-epoch view.

use enblogue::prelude::*;
use enblogue_datagen::nyt::{NytArchive, NytConfig};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

fn archive() -> NytArchive {
    NytArchive::generate(&NytConfig {
        seed: 0x57A6E,
        days: 45,
        docs_per_day: 80,
        n_categories: 12,
        n_descriptors: 90,
        n_entities: 60,
        n_terms: 250,
        historic_events: 4,
    })
}

fn config(shards: usize, parallel: bool, rebalance: Option<RebalanceConfig>) -> EnBlogueConfig {
    let mut builder = EnBlogueConfig::builder()
        .tick_spec(TickSpec::daily())
        .window_ticks(7)
        .seed_count(25)
        .min_seed_count(3)
        .top_k(10)
        .shards(shards)
        .parallel_close(parallel);
    if let Some(rebalance) = rebalance {
        builder = builder.rebalance(rebalance);
    }
    builder.build().unwrap()
}

fn aggressive_rebalance() -> RebalanceConfig {
    RebalanceConfig {
        enabled: true,
        slots_per_shard: 8,
        target_pairs_per_shard: 64,
        min_skew: 1.01,
        cap_pressure: 0.5,
        min_tracked_pairs: 1,
        cooldown_ticks: 0,
        min_active_shards: 1,
    }
}

/// Drives the replay tick by tick (gap ticks included, like
/// `run_replay`), invoking `after_close` with the engine after every
/// close so callers can compare live state against published views.
fn replay_with<F: FnMut(&EnBlogueEngine, Tick)>(
    engine: &mut EnBlogueEngine,
    docs: &[Document],
    mut after_close: F,
) {
    let spec = engine.config().tick_spec;
    let mut next_to_close = spec.tick_of(docs[0].timestamp);
    let mut start = 0;
    while start < docs.len() {
        let tick = spec.tick_of(docs[start].timestamp);
        while next_to_close < tick {
            engine.close_tick(next_to_close);
            after_close(engine, next_to_close);
            next_to_close = next_to_close.next();
        }
        let end = docs[start..]
            .iter()
            .position(|d| spec.tick_of(d.timestamp) > tick)
            .map_or(docs.len(), |offset| start + offset);
        engine.process_docs(&docs[start..end]);
        engine.close_tick(tick);
        after_close(engine, tick);
        next_to_close = tick.next();
        start = end;
    }
}

/// Every member tag of the latest ranking, plus the cross product of
/// those tags as probe pairs (covers ranked pairs, tracked-but-unranked
/// pairs, and never-tracked pairs alike).
fn probe_pairs(snapshot: &RankingSnapshot) -> Vec<TagPair> {
    let mut tags: Vec<TagId> =
        snapshot.ranked.iter().flat_map(|&(p, _)| [p.lo(), p.hi()]).collect();
    tags.sort_unstable();
    tags.dedup();
    let mut pairs = Vec::new();
    for (i, &a) in tags.iter().enumerate() {
        for &b in &tags[i + 1..] {
            pairs.push(TagPair::new(a, b));
        }
    }
    pairs
}

#[test]
fn full_detail_views_match_engine_accessors_across_the_grid() {
    let archive = archive();
    let profiles = [
        UserProfile::new("plain"),
        UserProfile::new("keyword").try_with_weighted_keyword("event", 2.0).unwrap(),
    ];
    let grid = [
        ("1-serial-static", 1usize, false, None),
        ("4-parallel-static", 4, true, None),
        ("4-serial-rebalancing", 4, false, Some(aggressive_rebalance())),
        ("16-parallel-rebalancing", 16, true, Some(aggressive_rebalance())),
    ];
    for (name, shards, parallel, rebalance) in grid {
        let mut engine = EnBlogueEngine::new(config(shards, parallel, rebalance));
        let handle = QueryHandle::attach(
            &mut engine,
            archive.interner.clone(),
            ServeConfig::default().with_detail(PublishDetail::Full),
        );
        let mut closes = 0u64;
        replay_with(&mut engine, &archive.docs, |engine, _tick| {
            closes += 1;
            assert_eq!(handle.epoch(), closes, "{name}: one publish per close");
            let view = handle.view().expect("published after first close");
            assert_eq!(view.detail(), PublishDetail::Full);

            // The five re-homed accessors, engine vs published view.
            assert_eq!(
                view.ranking().as_ref(),
                engine.pipeline().latest_snapshot(),
                "{name}: ranking"
            );
            assert_eq!(view.seeds(), engine.pipeline().current_seeds(), "{name}: seeds");
            let seeds = view.seeds();
            for &seed in seeds.iter().take(5) {
                assert!(
                    engine.pipeline().is_seed(seed) && view.is_seed(seed),
                    "{name}: seed membership"
                );
            }
            let Some(snapshot) = engine.pipeline().latest_snapshot() else { return };
            assert_eq!(view.tick(), Some(snapshot.tick), "{name}: tick");
            for pair in probe_pairs(snapshot) {
                assert_eq!(
                    view.pair_info(pair),
                    engine.pipeline().pair_info(pair),
                    "{name}: pair_info"
                );
                assert_eq!(
                    view.pair_history(pair),
                    engine.pipeline().pair_history(pair),
                    "{name}: pair_history"
                );
            }
            for &(pair, _) in &snapshot.ranked {
                for tag in [pair.lo(), pair.hi()] {
                    assert_eq!(view.tag_name(tag), archive.interner.name(tag), "{name}: tag_name");
                }
            }

            // Personalization through the published name snapshot is the
            // same computation as the engine-side pass.
            for profile in &profiles {
                assert_eq!(
                    view.personalized(profile),
                    Some(personalize(snapshot, profile, &archive.interner)),
                    "{name}: personalized"
                );
            }

            // The engine's own in-place QueryView agrees with both.
            let live = engine.query_view(archive.interner.clone());
            assert_eq!(
                live.ranking().as_ref(),
                engine.pipeline().latest_snapshot(),
                "{name}: live view"
            );
            assert_eq!(live.seeds(), view.seeds());
            assert_eq!(live.top_k(5), view.top_k(5));
            for &(pair, _) in snapshot.ranked.iter().take(3) {
                assert_eq!(live.pair_info(pair), view.pair_info(pair));
                assert_eq!(live.pairs_with_tag(pair.lo()), view.pairs_with_tag(pair.lo()));
                assert_eq!(live.pairs_with_tag(pair.hi()), handle.pairs_with_tag(pair.hi()));
            }
            // The drill-down edges, handle vs engine: an empty top-k, a k
            // past the ranking's end, and a tag in no ranked pair.
            let len = snapshot.ranked.len();
            for k in [0, len, len + 7] {
                assert_eq!(handle.top_k(k), live.top_k(k), "{name}: top_k({k})");
            }
            assert_eq!(handle.top_k(len + 7), snapshot.ranked, "{name}: k past the end");
            let unranked = TagId(u32::MAX);
            assert!(handle.pairs_with_tag(unranked).is_empty(), "{name}: unranked tag");
            assert_eq!(handle.pairs_with_tag(unranked), live.pairs_with_tag(unranked));
        });
        assert!(closes > 0, "{name}: the replay must close ticks");
        if rebalance.is_some() {
            assert!(
                engine.pipeline().metrics().rebalances > 0,
                "{name}: the aggressive policy must actually migrate"
            );
        }
    }
}

#[test]
fn ranked_detail_covers_the_ranking_and_answers_identically() {
    let archive = archive();
    let mut engine = EnBlogueEngine::new(config(4, true, None));
    let handle = QueryHandle::attach(&mut engine, archive.interner.clone(), ServeConfig::default());
    replay_with(&mut engine, &archive.docs, |engine, _tick| {
        let view = handle.view().expect("published after first close");
        assert_eq!(view.detail(), PublishDetail::Ranked);
        assert_eq!(view.ranking().as_ref(), engine.pipeline().latest_snapshot());
        assert_eq!(view.seeds(), engine.pipeline().current_seeds());
        let Some(snapshot) = engine.pipeline().latest_snapshot() else { return };
        // Stat columns cover exactly the ranked pairs — and answer
        // byte-identically to the engine for every one of them.
        assert_eq!(view.covered_pairs(), snapshot.ranked.len());
        for &(pair, _) in &snapshot.ranked {
            assert_eq!(view.pair_info(pair), engine.pipeline().pair_info(pair));
            assert_eq!(view.pair_history(pair), engine.pipeline().pair_history(pair));
        }
    });
}

#[test]
fn racing_readers_never_observe_torn_views() {
    let archive = archive();
    let mut engine = EnBlogueEngine::new(config(4, true, None));
    let handle = QueryHandle::attach(&mut engine, archive.interner.clone(), ServeConfig::default());

    let stop = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(AtomicU64::new(0));
    let readers: Vec<_> = (0..4)
        .map(|reader| {
            let handle = handle.clone();
            let stop = Arc::clone(&stop);
            let reads = Arc::clone(&reads);
            let profile = UserProfile::new(format!("u{reader}"));
            std::thread::spawn(move || {
                let mut last_epoch = 0u64;
                while !stop.load(SeqCst) {
                    let Some(view) = handle.view() else { continue };
                    // Epoch is stamped inside the view: a torn read
                    // (epoch from one publish, payload from another)
                    // cannot happen, and epochs never run backwards.
                    let epoch = QueryView::epoch(&*view);
                    assert!(epoch >= 1, "views are published whole");
                    assert!(epoch >= last_epoch, "epoch went backwards");
                    last_epoch = epoch;
                    let ranking = view.ranking().expect("every close publishes a ranking");
                    assert_eq!(view.tick(), Some(ranking.tick), "tick/ranking coherent");
                    // Each ranked pair is covered by the stat columns of
                    // the very same view (publish is all-or-nothing).
                    for &(pair, _) in ranking.ranked.iter().take(3) {
                        assert!(view.pair_info(pair).is_some(), "columns match the ranking");
                    }
                    let personalized = view.personalized(&profile).unwrap();
                    assert_eq!(personalized.ranked.len(), ranking.ranked.len());
                    reads.fetch_add(1, SeqCst);
                }
                last_epoch
            })
        })
        .collect();

    replay_with(&mut engine, &archive.docs, |_, _| {
        std::thread::yield_now();
    });
    // Keep serving the final epoch until the readers have demonstrably
    // observed plenty of views (one-CPU schedulers may starve them
    // during the replay itself), then stop.
    let mut patience = 0u64;
    while reads.load(SeqCst) < 1000 && patience < 10_000_000 {
        patience += 1;
        std::thread::yield_now();
    }
    stop.store(true, SeqCst);
    let final_epoch = handle.epoch();
    for reader in readers {
        let last_seen = reader.join().unwrap();
        assert!(last_seen <= final_epoch);
    }
    assert!(reads.load(SeqCst) >= 1000, "readers must have observed views");
    assert!(final_epoch > 0);
}

#[test]
fn subscriptions_share_the_publish_pass_and_deliver_on_change_only() {
    let archive = archive();
    let mut engine = EnBlogueEngine::new(config(1, false, None));
    let handle = QueryHandle::attach(&mut engine, archive.interner.clone(), ServeConfig::default());

    let mut subscriptions: Vec<Subscription> = (0..8)
        .map(|i| {
            handle
                .subscribe(
                    UserProfile::new(format!("user{i}"))
                        .try_with_weighted_keyword("event", 1.0 + i as f64)
                        .unwrap()
                        .try_with_alpha(0.5 + i as f64 * 0.25)
                        .unwrap(),
                )
                .with_top_k(5)
        })
        .collect();

    replay_with(&mut engine, &archive.docs, |engine, _tick| {
        let snapshot = match engine.pipeline().latest_snapshot() {
            Some(s) => s.clone(),
            None => return,
        };
        for subscription in subscriptions.iter_mut() {
            let (epoch, delivered) = subscription.poll().expect("new epoch → delivery");
            assert_eq!(epoch, handle.epoch());
            // Each subscription's delivery equals the engine-side
            // personalization pass, truncated to its top-k.
            let mut expected = personalize(&snapshot, subscription.profile(), &archive.interner);
            expected.ranked.truncate(5);
            assert_eq!(delivered, expected);
            // Edge-triggered: the same epoch is never delivered twice.
            assert!(subscription.poll().is_none());
            // Level-triggered reads still answer.
            assert_eq!(subscription.current(), Some(expected));
        }
    });
    assert!(subscriptions[0].last_epoch() > 0, "the replay must deliver");
}

#[test]
fn serve_telemetry_counts_publishes_and_queries() {
    let archive = archive();
    let mut engine = EnBlogueEngine::new(config(1, false, None));
    let handle = QueryHandle::attach(&mut engine, archive.interner.clone(), ServeConfig::default());
    let closes = engine.run_replay(&archive.docs).len() as u64;
    let _ = handle.view();
    let _ = handle.top_k(5);

    let registry = engine.telemetry().registry();
    assert_eq!(registry.histogram("serve.publish.ns").count(), closes);
    assert_eq!(registry.gauge("serve.epoch").value(), closes as i64);
    assert!(registry.counter("serve.queries").value() >= 2);
    let publishes = engine
        .telemetry()
        .journal()
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::ViewPublish)
        .count() as u64;
    assert!(publishes > 0, "publishes are journaled");
    let prom = engine.telemetry().prometheus_text();
    assert!(prom.contains("enblogue_serve_publish_ns"));
    assert!(prom.contains("enblogue_stage_close_ns_count{stage=\"serve-publish\"}"));
}
