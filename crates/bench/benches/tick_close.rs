//! Tick-close latency vs shard count (the shard-parallel close ablation).
//!
//! A warm engine (populated window, hundreds of tracked pairs) closes its
//! newest tick under shard counts 1/4/16. The single-shard row is the
//! pre-sharding baseline; with more stores the close fans out once the
//! registry reaches `SERIAL_CLOSE_MAX_PAIRS`. Rankings are identical in
//! every configuration (pinned by `tests/stage_parity.rs`), so the rows
//! differ only in wall time.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use enblogue::datagen::twitter::{TweetConfig, TweetStream};
use enblogue::prelude::*;
use std::hint::black_box;

fn tweet_docs() -> Vec<Document> {
    TweetStream::generate(&TweetConfig {
        seed: 0x71C_C0DE,
        hours: 2,
        tweets_per_minute: 12,
        n_hashtags: 400,
        n_terms: 300,
        planted_events: 3,
        sigmod_stunt: false,
    })
    .docs
}

fn config(shards: usize) -> EnBlogueConfig {
    EnBlogueConfig::builder()
        .tick_spec(TickSpec::minutely())
        .window_ticks(30)
        .seed_count(64)
        .min_seed_count(3)
        .top_k(10)
        .shards(shards)
        .build()
        .unwrap()
}

/// A warm engine plus the tick its open window is waiting to close.
fn warm_engine(shards: usize, docs: &[Document]) -> (EnBlogueEngine, Tick) {
    let mut engine = EnBlogueEngine::new(config(shards));
    let split = docs.len() - 700;
    engine.run_replay(&docs[..split]);
    engine.process_docs(&docs[split..]);
    let last_tick = TickSpec::minutely().tick_of(docs.last().unwrap().timestamp);
    (engine, last_tick)
}

fn bench_close_by_shards(c: &mut Criterion) {
    let docs = tweet_docs();
    let mut group = c.benchmark_group("tick_close_shards");
    group.sample_size(15);
    for shards in [1usize, 4, 16] {
        group.bench_with_input(BenchmarkId::new("close", shards), &shards, |b, &shards| {
            b.iter_batched(
                || warm_engine(shards, &docs),
                |(mut engine, tick)| black_box(engine.close_tick(tick)),
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_close_by_shards);
criterion_main!(benches);
