//! End-to-end: synthetic archives through the full pipeline, evaluated
//! against planted ground truth.

use enblogue::prelude::*;
use enblogue_datagen::eval::evaluate;
use enblogue_datagen::nyt::{NytArchive, NytConfig};
use enblogue_datagen::twitter::{TweetConfig, TweetStream};

fn nyt_config() -> NytConfig {
    NytConfig {
        seed: 1001,
        days: 60,
        docs_per_day: 120,
        n_categories: 20,
        n_descriptors: 150,
        n_entities: 80,
        n_terms: 400,
        historic_events: 4,
    }
}

fn daily_engine_config() -> EnBlogueConfig {
    EnBlogueConfig::builder()
        .tick_spec(TickSpec::daily())
        .window_ticks(7)
        .seed_count(30)
        .min_seed_count(3)
        .top_k(10)
        .min_pair_support(3)
        .build()
        .unwrap()
}

#[test]
fn nyt_archive_events_are_detected() {
    let archive = NytArchive::generate(&nyt_config());
    let mut engine = EnBlogueEngine::new(daily_engine_config());
    let snapshots = engine.run_replay(&archive.docs);
    assert_eq!(snapshots.len(), 60, "one snapshot per day");

    let report = evaluate(&snapshots, &archive.script, 10, 2 * Timestamp::DAY);
    assert!(
        report.recall >= 0.75,
        "at least 3 of 4 planted events must reach the top-10: {:#?}",
        report.outcomes
    );
    assert!(
        report.precision_at_k > 0.3,
        "rankings during events must mostly contain truth: {}",
        report.precision_at_k
    );
    // Detection must be timely: within half an event's typical duration.
    assert!(
        report.mean_latency_ms <= (6 * Timestamp::DAY) as f64,
        "mean latency too high: {} days",
        report.mean_latency_ms / Timestamp::DAY as f64
    );
}

#[test]
fn tweet_stream_stunt_reaches_top_k() {
    let stream = TweetStream::generate(&TweetConfig {
        seed: 77,
        hours: 24,
        tweets_per_minute: 10,
        n_hashtags: 200,
        n_terms: 300,
        planted_events: 2,
        sigmod_stunt: true,
    });
    let config = EnBlogueConfig::builder()
        .tick_spec(TickSpec::new(30 * Timestamp::MINUTE))
        .window_ticks(12)
        .seed_count(30)
        .min_seed_count(5)
        .top_k(10)
        .build()
        .unwrap();
    let mut engine = EnBlogueEngine::new(config);
    let snapshots = engine.run_replay(&stream.docs);

    let (sigmod, athens) = stream.stunt_pair.unwrap();
    let pair = TagPair::new(sigmod, athens);
    let detected = snapshots.iter().any(|s| s.contains_in_top(pair, 10));
    assert!(detected, "the SIGMOD-Athens stunt must reach the top-10");

    // And it must not appear before the stunt begins.
    let stunt_start =
        stream.script.events().iter().find(|e| e.name == "sigmod-athens").unwrap().start;
    let early_hit =
        snapshots.iter().filter(|s| s.time < stunt_start).any(|s| s.contains_in_top(pair, 10));
    assert!(!early_hit, "stunt pair must not rank before it exists");
}

#[test]
fn threaded_executor_agrees_with_sync() {
    // The threaded executor is the parallel ingestion pipeline: a bounded
    // queue feeding partition workers, re-sequenced before apply. It must
    // reproduce the sequential replay exactly.
    let archive = NytArchive::generate(&NytConfig { days: 15, docs_per_day: 40, ..nyt_config() });
    let sync = EnBlogueEngine::new(daily_engine_config()).run_replay(&archive.docs);
    let ingest = IngestConfig { batch_size: 32, queue_depth: 4, workers: 4 };
    let (threaded, stats) =
        EnBlogueEngine::new(daily_engine_config()).run_replay_ingest(&archive.docs, &ingest);
    assert_eq!(stats.workers, 4);
    assert_eq!(sync.len(), 15);
    assert_eq!(sync, threaded, "executors must produce identical rankings");
}

#[test]
fn engine_metrics_are_plausible_on_real_workload() {
    let archive = NytArchive::generate(&nyt_config());
    let mut engine = EnBlogueEngine::new(daily_engine_config());
    engine.run_replay(&archive.docs);
    let m = engine.metrics();
    assert_eq!(m.docs_processed as usize, archive.len());
    assert_eq!(m.ticks_closed, 60);
    assert!(m.seeds_current > 0 && m.seeds_current <= 30);
    assert!(m.pairs_discovered > 0);
    assert!(m.pairs_tracked <= 100_000);
}
