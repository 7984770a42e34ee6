//! The delivery path end-to-end: engine → publish stage → subscribed
//! clients, with personalised deliveries (§4.2's APE front-end,
//! in-process). Every client reads through one `QueryHandle`; a
//! `Subscription` is edge-triggered (`poll` delivers each published epoch
//! at most once) and level-triggered (`current` answers every read).

use enblogue::prelude::*;
use enblogue_datagen::nyt::{NytArchive, NytConfig};

fn archive() -> NytArchive {
    NytArchive::generate(&NytConfig {
        seed: 2424,
        days: 40,
        docs_per_day: 100,
        n_categories: 16,
        n_descriptors: 100,
        n_entities: 40,
        n_terms: 200,
        historic_events: 3,
    })
}

fn engine_config() -> EnBlogueConfig {
    EnBlogueConfig::builder()
        .tick_spec(TickSpec::daily())
        .window_ticks(7)
        .seed_count(20)
        .min_seed_count(3)
        .top_k(10)
        .min_pair_support(3)
        .build()
        .unwrap()
}

/// Feeds the archive one arrival at a time (each arrival closes the ticks
/// it leaves behind), then closes the last tick; `on_close` sees every
/// snapshot right after its view is published.
fn replay(
    engine: &mut EnBlogueEngine,
    docs: &[Document],
    mut on_close: impl FnMut(RankingSnapshot),
) {
    for doc in docs {
        engine.offer_doc(doc, &mut on_close);
    }
    let last = docs.last().expect("non-empty archive");
    let last_tick = engine.config().tick_spec.tick_of(last.timestamp);
    on_close(engine.close_tick(last_tick));
}

#[test]
fn subscribers_receive_pushed_rankings_through_the_pipeline() {
    let archive = archive();
    let mut engine = EnBlogueEngine::new(engine_config());
    let handle = QueryHandle::attach(&mut engine, archive.interner.clone(), ServeConfig::default());
    let mut inbox = handle.subscribe(UserProfile::new("visitor")).with_top_k(10);

    let mut snapshots = Vec::new();
    let mut updates = Vec::new();
    replay(&mut engine, &archive.docs, |snapshot| {
        if let Some((epoch, ranking)) = inbox.poll() {
            updates.push((epoch, snapshot.tick, ranking));
        }
        snapshots.push(snapshot);
    });

    assert!(!updates.is_empty(), "the events must trigger deliveries");
    assert_eq!(snapshots.len(), 40);
    // Every delivery corresponds to a published snapshot and carries its
    // top-k members.
    for (_, tick, ranking) in &updates {
        let snapshot = snapshots.iter().find(|s| s.tick == *tick).expect("delivered tick closed");
        assert!(ranking.ranked.len() <= 10);
        for &(pair, _) in &ranking.ranked {
            assert!(snapshot.rank_of(pair).is_some(), "delivered pairs come from the snapshot");
        }
    }
    // Deliveries arrive in tick and epoch order.
    for w in updates.windows(2) {
        assert!(w[0].1 < w[1].1);
        assert!(w[0].0 < w[1].0);
    }
    assert_eq!(handle.epoch(), 40, "every tick close publishes once");
    assert_eq!(updates.len(), 40, "a client polling after every close receives every publish");
    assert_eq!(inbox.last_epoch(), 40);
}

#[test]
fn change_only_delivery_is_quieter_than_every_update() {
    let archive = archive();

    // A strict profile watching one event's category, read twice per
    // close — a client that polls faster than views are published.
    let watched_category = archive.script.events()[0].tag_a;
    let profile = UserProfile::new("watcher").with_category(watched_category).filter_only();

    let mut engine = EnBlogueEngine::new(engine_config());
    let handle = QueryHandle::attach(&mut engine, archive.interner.clone(), ServeConfig::default());
    let mut on_change = handle.subscribe(profile.clone()).with_top_k(3);
    let always = handle.subscribe(profile).with_top_k(3);

    let (mut quiet, mut chatty) = (0usize, 0usize);
    replay(&mut engine, &archive.docs, |_| {
        for _ in 0..2 {
            // Edge-triggered: only a newly published epoch is delivered.
            if let Some((_, ranking)) = on_change.poll() {
                quiet += 1;
                assert_eq!(Some(ranking), always.current(), "both modes read the same view");
            }
            // Level-triggered: every read answers.
            if always.current().is_some() {
                chatty += 1;
            }
        }
    });
    assert_eq!(chatty, 2 * 40, "every-update reads answer on every read");
    assert_eq!(quiet, 40, "change-only delivery gets one delivery per publish");
    assert!(quiet < chatty, "change-only delivery must skip unchanged epochs: {quiet} vs {chatty}");
}

#[test]
fn personalised_subscribers_get_their_own_view() {
    // Two profiles preferring different event categories share one engine
    // pass and one publish, yet at some tick their delivered top lists
    // differ.
    let archive = archive();
    let events = archive.script.events();
    let cat_a = events[0].tag_a;
    let cat_b = events.iter().map(|e| e.tag_a).find(|&c| c != cat_a).unwrap_or(events[0].tag_b);

    let mut engine = EnBlogueEngine::new(engine_config());
    let handle = QueryHandle::attach(&mut engine, archive.interner.clone(), ServeConfig::default());
    let subscribe = |name: &str, category: TagId| {
        handle
            .subscribe(UserProfile::new(name).with_category(category).with_alpha(5.0))
            .with_top_k(5)
    };
    let (mut a, mut b) = (subscribe("a", cat_a), subscribe("b", cat_b));

    let mut deliveries = 0usize;
    let mut differs = false;
    replay(&mut engine, &archive.docs, |_| {
        let (epoch_a, ranking_a) = a.poll().expect("every close delivers");
        let (epoch_b, ranking_b) = b.poll().expect("every close delivers");
        assert_eq!(epoch_a, epoch_b, "both deliveries come from one publish");
        deliveries += 1;
        differs |=
            ranking_a.ranked.iter().map(|&(p, _)| p).ne(ranking_b.ranked.iter().map(|&(p, _)| p));
    });
    assert!(deliveries > 0);
    assert!(differs, "personalised subscribers must see different rankings at some tick");
}
