//! Robustness and failure injection: the engine and substrates must
//! degrade gracefully on malformed, degenerate or adversarial input.

use enblogue::prelude::*;

fn small_config() -> EnBlogueConfig {
    EnBlogueConfig::builder()
        .tick_spec(TickSpec::hourly())
        .window_ticks(4)
        .seed_count(4)
        .min_seed_count(1)
        .top_k(3)
        .min_pair_support(1)
        .build()
        .unwrap()
}

fn doc(id: u64, hour: u64, tags: &[u32]) -> Document {
    Document::builder(id, Timestamp::from_hours(hour)).tags(tags.iter().map(|&t| TagId(t))).build()
}

#[test]
fn empty_stream_produces_empty_snapshot() {
    let mut engine = EnBlogueEngine::new(small_config());
    let snap = engine.close_tick(Tick(0));
    assert!(snap.ranked.is_empty());
    assert_eq!(engine.metrics().docs_processed, 0);
    // Closing more empty ticks stays clean.
    for t in 1..50u64 {
        assert!(engine.close_tick(Tick(t)).ranked.is_empty());
    }
}

#[test]
fn documents_without_tags_are_harmless() {
    let mut engine = EnBlogueEngine::new(small_config());
    for t in 0..5u64 {
        engine.process_doc(&doc(t + 1, t, &[]));
        let snap = engine.close_tick(Tick(t));
        assert!(snap.ranked.is_empty());
    }
    assert_eq!(engine.metrics().docs_processed, 5);
    assert_eq!(engine.metrics().pairs_discovered, 0);
}

#[test]
fn single_massive_document_does_not_explode_pair_state() {
    // A document with many tags creates O(t²) candidate pairs; the cap
    // must bound tracked state.
    let mut config = small_config();
    config.max_tracked_pairs = 50;
    let mut engine = EnBlogueEngine::new(config);
    let tags: Vec<u32> = (0..60).collect();
    engine.process_doc(&doc(1, 0, &tags));
    engine.close_tick(Tick(0));
    assert!(engine.metrics().pairs_tracked <= 50, "{}", engine.metrics().pairs_tracked);
}

#[test]
fn duplicate_document_ids_are_tolerated() {
    // The engine treats ids as opaque; duplicate ids simply count twice
    // (deduplication is the ingest pipeline's job, not the tracker's).
    let mut engine = EnBlogueEngine::new(small_config());
    engine.process_doc(&doc(7, 0, &[1, 2]));
    engine.process_doc(&doc(7, 0, &[1, 2]));
    engine.close_tick(Tick(0));
    assert_eq!(engine.metrics().docs_processed, 2);
}

#[test]
fn late_documents_within_closed_ticks_fold_into_open_tick() {
    // A document whose timestamp belongs to an already-closed tick must
    // not panic or corrupt windows; it is counted into the open tick.
    let mut engine = EnBlogueEngine::new(small_config());
    for t in 0..3u64 {
        engine.process_doc(&doc(t + 1, t, &[1, 2]));
        engine.close_tick(Tick(t));
    }
    // Tick 3 is open; this doc claims hour 0.
    engine.process_doc(&doc(99, 0, &[1, 2]));
    let snap = engine.close_tick(Tick(3));
    assert_eq!(snap.tick, Tick(3));
    assert_eq!(engine.metrics().docs_processed, 4);
}

#[test]
fn huge_tick_gaps_reset_windows_cleanly() {
    let mut engine = EnBlogueEngine::new(small_config());
    for t in 0..4u64 {
        engine.process_doc(&doc(t + 1, t, &[1, 2]));
        engine.close_tick(Tick(t));
    }
    assert!(engine.metrics().pairs_tracked > 0);
    // Jump 10 000 ticks into the future.
    engine.process_doc(&doc(100, 10_000, &[3, 4]));
    let snap = engine.close_tick(Tick(10_000));
    assert_eq!(snap.tick, Tick(10_000));
    // Old pair state has no window support across the gap and is evicted.
    assert!(engine.pipeline().pair_info(TagPair::new(TagId(1), TagId(2))).is_none());
}

#[test]
fn extreme_configs_run() {
    // Smallest legal window and k.
    let config = EnBlogueConfig::builder()
        .tick_spec(TickSpec::minutely())
        .window_ticks(2)
        .seed_count(1)
        .min_seed_count(1)
        .top_k(1)
        .min_pair_support(1)
        .build()
        .unwrap();
    let mut engine = EnBlogueEngine::new(config);
    let docs: Vec<Document> = (0..100)
        .map(|i| {
            Document::builder(i, Timestamp::from_minutes(i))
                .tags([TagId((i % 3) as u32), TagId(((i + 1) % 3) as u32)])
                .build()
        })
        .collect();
    let snapshots = engine.run_replay(&docs);
    assert_eq!(snapshots.len(), 100);
    for snap in &snapshots {
        assert!(snap.ranked.len() <= 1);
    }
}

#[test]
fn personalization_with_unknown_tags_is_neutral() {
    let interner = TagInterner::new();
    let known = interner.intern("known", TagKind::Hashtag);
    let snap = RankingSnapshot {
        tick: Tick(1),
        time: Timestamp::from_hours(1),
        ranked: vec![(TagPair::new(known, TagId(9999)), 0.5)],
    };
    // TagId(9999) was never interned: keyword matching must not panic and
    // must not match.
    let profile = UserProfile::new("u").with_keyword("whatever").with_alpha(5.0);
    let view = personalize(&snap, &profile, &interner);
    assert_eq!(view.ranked.len(), 1);
    assert_eq!(view.ranked[0].1, 0.5, "no spurious relevance for unknown tags");
}

#[test]
fn broker_survives_subscriber_churn_mid_stream() {
    let interner = TagInterner::new();
    let a = interner.intern("a", TagKind::Hashtag);
    let b = interner.intern("b", TagKind::Hashtag);
    let mut engine = EnBlogueEngine::new(small_config());
    let handle = QueryHandle::attach(&mut engine, interner, ServeConfig::default());
    let mut steady = handle.subscribe(UserProfile::new("steady"));

    // Subscribe, receive, drop, re-subscribe, repeat — one close per round.
    for round in 0..5u64 {
        let mut client = handle.subscribe(UserProfile::new(format!("u{round}"))).with_top_k(5);
        engine.process_doc(&doc(round + 1, round, &[a.0, b.0]));
        engine.close_tick(Tick(round));
        let (epoch, _) = client.poll().expect("a fresh subscriber receives the new view");
        assert_eq!(epoch, round + 1);
        assert!(client.poll().is_none());
        assert_eq!(steady.poll().map(|(e, _)| e), Some(epoch), "churn never starves others");
        drop(client);
    }
    // Publishing after every churned client is gone still works, and a
    // late subscriber picks up the latest view immediately.
    engine.close_tick(Tick(5));
    assert_eq!(handle.epoch(), 6);
    assert_eq!(steady.poll().map(|(e, _)| e), Some(6));
    let mut late = handle.subscribe(UserProfile::new("late"));
    assert_eq!(late.poll().map(|(e, _)| e), Some(6));
}

#[test]
fn merge_source_with_wildly_skewed_feeds() {
    // One feed with 1000 docs, one with 1: merging them into one stream
    // (concatenate in feed order, stable sort by timestamp) must
    // interleave by time, and the replay must consume every document.
    let big: Vec<Document> = (0..1000).map(|i| doc(i, i / 100, &[1])).collect();
    let small = vec![doc(5000, 5, &[2])];
    let mut merged: Vec<Document> = big.into_iter().chain(small).collect();
    merged.sort_by_key(|d| d.timestamp);
    assert_eq!(merged.iter().position(|d| d.id == 5000), Some(600), "ties keep feed order");

    let mut engine = EnBlogueEngine::new(small_config());
    let snapshots = engine.run_replay(&merged);
    assert_eq!(snapshots.len(), 10, "one close per hour");
    assert_eq!(engine.metrics().docs_processed, 1001);

    let mut parallel = EnBlogueEngine::new(small_config());
    let ingest = IngestConfig { batch_size: 64, queue_depth: 2, workers: 2 };
    let (from_ingest, stats) = parallel.run_replay_ingest(&merged, &ingest);
    assert_eq!(from_ingest, snapshots);
    assert_eq!(stats.docs, 1001);
}

#[test]
fn interner_survives_adversarial_names() {
    let interner = TagInterner::new();
    let long_name = "a".repeat(10_000);
    let weird = ["", "   ", "\u{0}", "名字", long_name.as_str(), "\n\t"];
    for name in weird {
        let id = interner.intern(name, TagKind::Hashtag);
        assert_eq!(interner.get(name, TagKind::Hashtag), Some(id));
    }
    // Empty and whitespace-only names normalise to the same key.
    assert_eq!(
        interner.get("", TagKind::Hashtag),
        interner.get("   ", TagKind::Hashtag),
        "whitespace-only names collapse"
    );
}

// ---------------------------------------------------------------------
// Hostile arrival streams: the event-time robustness layer under attack
// (scripted by `enblogue_datagen::hostile`, drill scale).

fn hostile_config() -> enblogue_datagen::hostile::HostileConfig {
    enblogue_datagen::hostile::HostileConfig {
        hours: 24,
        docs_per_hour: 24,
        n_tags: 16,
        n_sources: 6,
        ..Default::default()
    }
}

fn replay(docs: &[Document], config: EnBlogueConfig) -> Vec<RankingSnapshot> {
    EnBlogueEngine::new(config).run_replay(docs)
}

#[test]
fn late_arrival_storm_is_neutralized_by_the_reorder_buffer() {
    use enblogue_datagen::hostile::HostileWorkload;
    let w = HostileWorkload::late_arrival_storm(&hostile_config(), 3);
    let baseline = replay(&w.clean, small_config());

    // A lateness bound covering the storm: byte-identical to the clean
    // stream, nothing dropped.
    let cfg = EnBlogueConfig { event_time: EventTimeConfig::bounded(3), ..small_config() };
    let mut engine = EnBlogueEngine::new(cfg);
    assert_eq!(engine.run_replay(&w.arrivals), baseline);
    assert_eq!(engine.metrics().docs_late_dropped, 0);
    assert_eq!(engine.metrics().docs_arrived, w.arrivals.len() as u64);

    // An *insufficient* bound degrades gracefully: the over-late slice
    // drops (counted), every tick still closes, no panic.
    let tight = EnBlogueConfig { event_time: EventTimeConfig::bounded(1), ..small_config() };
    let mut engine = EnBlogueEngine::new(tight);
    let snapshots = engine.run_replay(&w.arrivals);
    assert_eq!(snapshots.len(), baseline.len(), "every tick still closes");
    let dropped = engine.metrics().docs_late_dropped;
    assert!(dropped > 0 && dropped < w.injected, "only the over-late slice drops");
}

#[test]
fn duplicate_flood_is_neutralized_by_the_dedup_window() {
    use enblogue_datagen::hostile::HostileWorkload;
    let w = HostileWorkload::duplicate_flood(&hostile_config(), 2);
    let baseline = replay(&w.clean, small_config());

    let guard = SourceGuardConfig {
        enabled: true,
        dedup_window_ticks: 2,
        rate_limit_per_tick: 0.0,
        rate_burst: 0.0,
    };
    let cfg = EnBlogueConfig { source_guard: guard, ..small_config() };
    let mut engine = EnBlogueEngine::new(cfg);
    assert_eq!(engine.run_replay(&w.arrivals), baseline, "every copy must be invisible");
    assert_eq!(engine.metrics().docs_deduped, w.injected, "and every copy counted");
    assert_eq!(engine.metrics().docs_processed, w.clean.len() as u64);
}

#[test]
fn spam_burst_is_bounded_by_rate_caps() {
    use enblogue_datagen::hostile::HostileWorkload;
    let config = hostile_config();
    let w = HostileWorkload::spam_burst(&config, 2, 60);
    let baseline = replay(&w.clean, small_config());

    let rate = 6.0 * config.docs_per_hour as f64 / f64::from(config.n_sources);
    let guard = SourceGuardConfig {
        enabled: true,
        dedup_window_ticks: 2,
        rate_limit_per_tick: rate,
        rate_burst: 0.0,
    };

    // Honest traffic sits far below the cap: the guarded config is a
    // byte-identical no-op on the clean stream.
    let mut honest =
        EnBlogueEngine::new(EnBlogueConfig { source_guard: guard.clone(), ..small_config() });
    assert_eq!(honest.run_replay(&w.clean), baseline);
    assert_eq!(honest.metrics().docs_rate_capped, 0);
    assert_eq!(honest.metrics().docs_deduped, 0);

    // The burst trips the caps, and the admitted spam volume respects
    // the token-bucket arithmetic: at most burst + one refill per attack
    // tick, per spam source.
    let mut engine = EnBlogueEngine::new(EnBlogueConfig { source_guard: guard, ..small_config() });
    engine.run_replay(&w.arrivals);
    let capped = engine.metrics().docs_rate_capped;
    assert!(capped > 0, "the burst must trip the caps");
    let admitted = w.injected - capped;
    let attack_ticks = config.hours / 3 + 1;
    let bound = (rate * (attack_ticks + 1) as f64 * 2.0).ceil() as u64;
    assert!(admitted <= bound, "admitted spam {admitted} must respect the bucket bound {bound}");
}
