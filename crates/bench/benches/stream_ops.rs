//! Criterion micro-benchmarks for the stream substrate: executor overhead
//! per event and sharing effects (the `perf_sharing` bin measures sharing
//! on a whole replay).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use enblogue::prelude::*;
use enblogue::stream::ops::{CountingOp, PassThrough};
use std::hint::black_box;

fn docs(n: u64) -> Vec<Document> {
    (0..n)
        .map(|i| {
            Document::builder(i, Timestamp::from_secs(i))
                .tags([TagId((i % 50) as u32), TagId((i % 7) as u32 + 100)])
                .build()
        })
        .collect()
}

fn chain_graph(docs: Vec<Document>, depth: usize) -> Graph {
    let mut g = Graph::new(ReplaySource::new(docs, TickSpec::minutely()));
    let mut node = None;
    for i in 0..depth {
        node = Some(g.attach(node, PassThrough::new(format!("stage-{i}"))));
    }
    g.attach(node, CountingOp::new("sink"));
    g
}

fn bench_sync_executor(c: &mut Criterion) {
    let mut group = c.benchmark_group("sync_executor");
    let input = docs(10_000);
    group.throughput(Throughput::Elements(input.len() as u64));
    group.sample_size(20);
    for depth in [1usize, 4, 16] {
        group.bench_with_input(BenchmarkId::new("chain_depth", depth), &depth, |b, &depth| {
            b.iter_batched(
                || chain_graph(input.clone(), depth),
                |mut g| black_box(run_graph(&mut g).unwrap()),
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

fn bench_threaded_executor(c: &mut Criterion) {
    let mut group = c.benchmark_group("threaded_executor");
    let input = docs(10_000);
    group.throughput(Throughput::Elements(input.len() as u64));
    group.sample_size(10);
    for depth in [1usize, 4] {
        group.bench_with_input(BenchmarkId::new("chain_depth", depth), &depth, |b, &depth| {
            b.iter_batched(
                || chain_graph(input.clone(), depth),
                |g| black_box(run_graph_threaded(g, 1024).unwrap()),
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

fn bench_fanout_sharing(c: &mut Criterion) {
    // One shared prefix feeding N sinks vs N private prefixes.
    let input = docs(10_000);
    let mut group = c.benchmark_group("plan_sharing_8_sinks");
    group.throughput(Throughput::Elements(input.len() as u64));
    group.sample_size(10);
    group.bench_function("shared_prefix", |b| {
        b.iter_batched(
            || {
                let mut g = Graph::new(ReplaySource::new(input.clone(), TickSpec::minutely()));
                let prefix = g.attach(None, PassThrough::new("prefix"));
                for i in 0..8 {
                    g.attach(Some(prefix), CountingOp::new(format!("sink-{i}")));
                }
                g
            },
            |mut g| black_box(run_graph(&mut g).unwrap()),
            criterion::BatchSize::LargeInput,
        );
    });
    group.bench_function("private_prefixes", |b| {
        b.iter_batched(
            || {
                let mut g = Graph::new(ReplaySource::new(input.clone(), TickSpec::minutely()));
                for i in 0..8 {
                    let prefix = g.attach_unshared(None, PassThrough::new("prefix"));
                    g.attach(Some(prefix), CountingOp::new(format!("sink-{i}")));
                }
                g
            },
            |mut g| black_box(run_graph(&mut g).unwrap()),
            criterion::BatchSize::LargeInput,
        );
    });
    group.finish();
}

criterion_group!(benches, bench_sync_executor, bench_threaded_executor, bench_fanout_sharing);
criterion_main!(benches);
