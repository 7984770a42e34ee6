//! Reproducibility: identical seeds ⇒ identical workloads ⇒ identical
//! rankings, across every layer of the system.

use enblogue::prelude::*;
use enblogue_datagen::nyt::{NytArchive, NytConfig};
use enblogue_datagen::rss::{generate_feeds, RssConfig};
use enblogue_datagen::twitter::{TweetConfig, TweetStream};

fn nyt_config(seed: u64) -> NytConfig {
    NytConfig {
        seed,
        days: 20,
        docs_per_day: 60,
        n_categories: 12,
        n_descriptors: 60,
        n_entities: 40,
        n_terms: 200,
        historic_events: 2,
    }
}

#[test]
fn whole_stack_is_reproducible() {
    let run = || {
        let archive = NytArchive::generate(&nyt_config(42));
        let config = EnBlogueConfig::builder()
            .tick_spec(TickSpec::daily())
            .window_ticks(5)
            .seed_count(15)
            .min_seed_count(2)
            .top_k(10)
            .build()
            .unwrap();
        let mut engine = EnBlogueEngine::new(config);
        engine.run_replay(&archive.docs)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed must give bit-identical snapshots");
}

#[test]
fn different_seeds_give_different_streams() {
    let a = NytArchive::generate(&nyt_config(1));
    let b = NytArchive::generate(&nyt_config(2));
    let differing = a.docs.iter().zip(&b.docs).filter(|(x, y)| x.tags != y.tags).count();
    assert!(differing > a.len() / 2, "seeds must actually matter: {differing} differing docs");
}

#[test]
fn tweet_and_rss_generators_are_reproducible() {
    let tweet_cfg = TweetConfig {
        seed: 7,
        hours: 3,
        tweets_per_minute: 4,
        n_hashtags: 60,
        n_terms: 100,
        planted_events: 1,
        sigmod_stunt: true,
    };
    let t1 = TweetStream::generate(&tweet_cfg);
    let t2 = TweetStream::generate(&tweet_cfg);
    assert_eq!(t1.docs, t2.docs);
    assert_eq!(t1.script.truth_pairs(), t2.script.truth_pairs());

    let rss_cfg =
        RssConfig { seed: 8, feeds: 3, hours: 5, items_per_hour: 6, n_tags: 60, theme_bias: 0.7 };
    let (f1, _, _) = generate_feeds(&rss_cfg);
    let (f2, _, _) = generate_feeds(&rss_cfg);
    for (a, b) in f1.iter().zip(&f2) {
        assert_eq!(a.docs, b.docs);
    }
}

#[test]
fn merged_multi_feed_stream_is_deterministic() {
    let rss_cfg =
        RssConfig { seed: 9, feeds: 3, hours: 8, items_per_hour: 8, n_tags: 60, theme_bias: 0.7 };
    let run = || {
        let (feeds, interner, _) = generate_feeds(&rss_cfg);
        // One stream from several feeds: concatenate in feed order, then a
        // stable sort by timestamp, so equal timestamps keep feed order.
        let mut merged: Vec<Document> = feeds.into_iter().flat_map(|f| f.docs).collect();
        merged.sort_by_key(|d| d.timestamp);
        let config = EnBlogueConfig::builder()
            .window_ticks(4)
            .seed_count(10)
            .min_seed_count(2)
            .top_k(5)
            .build()
            .unwrap();
        let out = EnBlogueEngine::new(config).run_replay(&merged);
        (out, interner.len())
    };
    let (a, len_a) = run();
    let (b, len_b) = run();
    assert_eq!(a, b);
    assert_eq!(len_a, len_b);
    assert!(!a.is_empty());
}
