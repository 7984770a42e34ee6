//! Criterion micro-benchmarks for the EnBlogue engine hot paths
//! (drill-downs of `perf_e2e`'s end-to-end `docs_per_s`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use enblogue::datagen::twitter::{TweetConfig, TweetStream};
use enblogue::prelude::*;
use std::hint::black_box;

fn tweet_docs(hours: u64) -> Vec<Document> {
    TweetStream::generate(&TweetConfig {
        seed: 0xB3,
        hours,
        tweets_per_minute: 10,
        n_hashtags: 300,
        n_terms: 300,
        planted_events: 2,
        sigmod_stunt: false,
    })
    .docs
}

fn config(seeds: usize) -> EnBlogueConfig {
    EnBlogueConfig::builder()
        .tick_spec(TickSpec::minutely())
        .window_ticks(30)
        .seed_count(seeds)
        .min_seed_count(3)
        .top_k(10)
        .build()
        .unwrap()
}

/// Full replay throughput at different seed counts.
fn bench_replay(c: &mut Criterion) {
    let docs = tweet_docs(2);
    let mut group = c.benchmark_group("engine_replay");
    group.throughput(Throughput::Elements(docs.len() as u64));
    group.sample_size(10);
    for seeds in [16usize, 64, 256] {
        group.bench_with_input(BenchmarkId::new("seeds", seeds), &seeds, |b, &seeds| {
            b.iter(|| {
                let mut engine = EnBlogueEngine::new(config(seeds));
                black_box(engine.run_replay(black_box(&docs)))
            });
        });
    }
    group.finish();
}

/// Per-document ingestion cost (no tick closes).
fn bench_process_doc(c: &mut Criterion) {
    let docs = tweet_docs(1);
    let mut group = c.benchmark_group("engine_process_doc");
    group.throughput(Throughput::Elements(docs.len() as u64));
    group.bench_function("ingest_stream", |b| {
        b.iter(|| {
            let mut engine = EnBlogueEngine::new(config(64));
            for doc in &docs {
                engine.process_doc(black_box(doc));
            }
            black_box(engine.metrics())
        });
    });
    group.finish();
}

/// Tick-close cost with a populated window (the per-tick pair loop).
fn bench_close_tick(c: &mut Criterion) {
    let docs = tweet_docs(2);
    let mut group = c.benchmark_group("engine_close_tick");
    group.sample_size(20);
    group.bench_function("close_after_warm_window", |b| {
        b.iter_batched(
            || {
                let mut engine = EnBlogueEngine::new(config(64));
                // Warm up: replay everything except the last tick's docs.
                let split = docs.len() - 600;
                engine.run_replay(&docs[..split]);
                for doc in &docs[split..] {
                    engine.process_doc(doc);
                }
                let last_tick = TickSpec::minutely().tick_of(docs.last().unwrap().timestamp);
                (engine, last_tick)
            },
            |(mut engine, tick)| black_box(engine.close_tick(tick)),
            criterion::BatchSize::LargeInput,
        );
    });
    group.finish();
}

criterion_group!(benches, bench_replay, bench_process_doc, bench_close_tick);
criterion_main!(benches);
