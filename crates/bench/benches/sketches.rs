//! Criterion micro-benchmarks for the window-crate synopses: exact
//! windowed counters vs Space-Saving (seed quality of the sketch is the
//! `seeds=sketch(…)` rows of `QUALITY.json`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use enblogue::types::{TagId, Tick};
use enblogue::window::{SpaceSaving, WindowedCounter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn zipfish_keys(n: usize, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let r: f64 = rng.gen();
            // Crude Zipf-ish skew over 10k keys.
            ((1.0 / (r + 0.001) - 1.0) as u32) % 10_000
        })
        .collect()
}

fn bench_ingest(c: &mut Criterion) {
    let keys = zipfish_keys(100_000, 7);
    let mut group = c.benchmark_group("sketch_ingest_100k");
    group.throughput(Throughput::Elements(keys.len() as u64));
    group.sample_size(20);

    group.bench_function("windowed_counter_exact", |b| {
        b.iter(|| {
            let mut counter: WindowedCounter<TagId> = WindowedCounter::new(24);
            for (i, &k) in keys.iter().enumerate() {
                counter.increment(Tick((i / 4_000) as u64), TagId(k));
            }
            black_box(counter.distinct_keys())
        });
    });
    group.bench_function("space_saving_256", |b| {
        b.iter(|| {
            let mut ss: SpaceSaving<u32> = SpaceSaving::new(256);
            for &k in &keys {
                ss.increment(k);
            }
            black_box(ss.len())
        });
    });
    group.finish();
}

fn bench_top_n(c: &mut Criterion) {
    let keys = zipfish_keys(100_000, 9);
    let mut counter: WindowedCounter<TagId> = WindowedCounter::new(24);
    let mut ss: SpaceSaving<u32> = SpaceSaving::new(256);
    for (i, &k) in keys.iter().enumerate() {
        counter.increment(Tick((i / 4_000) as u64), TagId(k));
        ss.increment(k);
    }
    let mut group = c.benchmark_group("seed_selection_top32");
    group.bench_function("exact_counter", |b| {
        b.iter(|| black_box(counter.top_n(32)));
    });
    group.bench_function("space_saving", |b| {
        b.iter(|| black_box(ss.top_n(32)));
    });
    group.finish();
}

criterion_group!(benches, bench_ingest, bench_top_n);
criterion_main!(benches);
