//! Show Case 2 — live data with the "SIGMOD Athens" stunt.
//!
//! Simulates the demo's live-tweet scenario: background hashtag chatter
//! plus planted events, including the paper's attempt to push a topic
//! about SIGMOD and Athens into the top ranks. A time-lapse view shows the
//! pair's rank trajectory as the stunt unfolds, and a subscriber polls
//! its personalised top-5 after every close (the APE front-end
//! substitute).
//!
//! Run with: `cargo run --release --example live_stream`

use enblogue::prelude::*;
use enblogue_datagen::twitter::{TweetConfig, TweetStream};

fn main() {
    let config = TweetConfig {
        seed: 0x51_60_0d,
        hours: 48,
        tweets_per_minute: 15,
        n_hashtags: 400,
        n_terms: 800,
        planted_events: 3,
        sigmod_stunt: true,
    };
    println!(
        "Generating {}h tweet stream at {} tweets/min …",
        config.hours, config.tweets_per_minute
    );
    let stream = TweetStream::generate(&config);
    let (sigmod, athens) = stream.stunt_pair.expect("stunt enabled");
    let stunt_pair = TagPair::new(sigmod, athens);
    println!(
        "{} tweets; stunt: #sigmod + #athens rising from hour {}\n",
        stream.len(),
        config.hours / 2
    );

    // The demo's "time lapse view over a sliding window of the past couple
    // of days": half-hour ticks, 12h correlation window.
    let engine_config = EnBlogueConfig::builder()
        .tick_spec(TickSpec::new(30 * Timestamp::MINUTE))
        .window_ticks(24)
        .seed_count(40)
        .min_seed_count(5)
        .top_k(10)
        .build()
        .expect("valid config");

    // Subscribe a client before the stream runs; it polls after every
    // close, and each new epoch is one delivery.
    let tick_spec = engine_config.tick_spec;
    let mut engine = EnBlogueEngine::new(engine_config);
    let handle = QueryHandle::attach(&mut engine, stream.interner.clone(), ServeConfig::default());
    let mut inbox = handle.subscribe(UserProfile::new("attendee")).with_top_k(5);

    let mut snapshots = Vec::new();
    let (mut deliveries, mut saw_stunt) = (0, false);
    let mut on_close = |snapshot: RankingSnapshot| {
        if let Some((_, ranking)) = inbox.poll() {
            deliveries += 1;
            saw_stunt |= ranking.ranked.iter().any(|&(p, _)| p == stunt_pair);
        }
        snapshots.push(snapshot);
    };
    // Arrivals one at a time: each closes the ticks it leaves behind.
    for doc in &stream.docs {
        engine.offer_doc(doc, &mut on_close);
    }
    let last = stream.docs.last().expect("non-empty stream");
    on_close(engine.close_tick(tick_spec.tick_of(last.timestamp)));

    // Rank trajectory of the stunt pair (time lapse, one row per 2 hours).
    println!("time lapse — rank of [#sigmod + #athens] (top-10, '-' = unranked):");
    for snap in snapshots.iter().filter(|s| s.tick.0 % 4 == 0) {
        let hours = snap.time.as_millis() / Timestamp::HOUR;
        let marker = match snap.rank_of(stunt_pair) {
            Some(rank) => format!("#{:<2} {}", rank + 1, "■".repeat(10usize.saturating_sub(rank))),
            None => "-".to_string(),
        };
        println!("  h{hours:<3} {marker}");
    }

    let best = snapshots
        .iter()
        .filter_map(|s| s.rank_of(stunt_pair).map(|r| (s.tick, r)))
        .min_by_key(|&(_, r)| r);
    match best {
        Some((tick, rank)) => println!(
            "\nThe stunt topic peaked at rank #{} (tick {tick}) — \"we may be able to see a topic \
             regarding SIGMOD and Athens in a highly ranked position\" ✓",
            rank + 1
        ),
        None => println!("\nThe stunt topic never ranked — increase its rate or lower k."),
    }

    // What the subscribed client actually received.
    println!(
        "\nServing tier: {} views published; this client received {deliveries} deliveries \
         (stunt visible: {saw_stunt})",
        handle.epoch()
    );
}
