//! Ingestion throughput through the shard-partitioned `IngestPipeline`.
//!
//! Two sweeps over one NYT replay: worker count (1/2/4/8 at batch 256)
//! and batch size (1/64/512 at the machine's worker default). Rankings
//! are identical in every configuration (pinned by
//! `tests/stage_parity.rs`), so the rows differ only in docs/sec.
//!
//! A third group, `apply`, times the registry apply alone: one warm,
//! pre-partitioned batch of counted runs, at 256 documents (≈ 1.2k runs,
//! below `FANOUT_MIN_ITEMS`) and at one whole 10k-document tick (≈ 27k
//! runs, above), into 1 vs 2 stores. On a multi-core box the 2-store
//! tick row is the fanned-out apply and every other row is serial; the
//! per-run cost of the serial rows against the spawn cost the fanned-out
//! row saves is what places the threshold. A `wide` row applies one
//! `wide-close`-shaped tick (2 500 documents of 3 tags, Zipf 0.7 over
//! 20 000 tags) into a single store whose 30-tick window already holds
//! ≈ 200k live keys, so the apply pays for a pair table that outruns the
//! cache.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use enblogue::core::pairs::ShardedPairRegistry;
use enblogue::datagen::nyt::{NytArchive, NytConfig};
use enblogue::datagen::zipf::Zipf;
use enblogue::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn archive() -> NytArchive {
    NytArchive::generate(&NytConfig {
        seed: 0x1_E657,
        days: 30,
        docs_per_day: 150,
        n_categories: 16,
        n_descriptors: 120,
        n_entities: 80,
        n_terms: 400,
        historic_events: 3,
    })
}

fn config() -> EnBlogueConfig {
    EnBlogueConfig::builder()
        .tick_spec(TickSpec::daily())
        .window_ticks(7)
        .seed_count(25)
        .min_seed_count(3)
        .top_k(10)
        .build()
        .unwrap()
}

fn bench_ingest_workers(c: &mut Criterion) {
    let archive = archive();
    let mut group = c.benchmark_group("ingest_workers");
    group.sample_size(10);
    group.throughput(Throughput::Elements(archive.docs.len() as u64));
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("batch256", workers), &workers, |b, &workers| {
            b.iter_batched(
                || EnBlogueEngine::new(config()),
                |mut engine| {
                    let ingest = IngestConfig { batch_size: 256, queue_depth: 8, workers };
                    black_box(engine.run_replay_ingest(&archive.docs, &ingest))
                },
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

fn bench_ingest_batch_size(c: &mut Criterion) {
    let archive = archive();
    let mut group = c.benchmark_group("ingest_batch_size");
    group.sample_size(10);
    group.throughput(Throughput::Elements(archive.docs.len() as u64));
    for batch_size in [1usize, 64, 512] {
        group.bench_with_input(
            BenchmarkId::new("auto_workers", batch_size),
            &batch_size,
            |b, &batch_size| {
                b.iter_batched(
                    || EnBlogueEngine::new(config()),
                    |mut engine| {
                        let ingest = IngestConfig { batch_size, queue_depth: 8, workers: 0 };
                        black_box(engine.run_replay_ingest(&archive.docs, &ingest))
                    },
                    BatchSize::LargeInput,
                );
            },
        );
    }
    group.finish();
}

/// `docs` documents stamped in `hour`, each of `width` distinct tags drawn
/// from a Zipf(`s`) law over `tags` tags.
fn zipf_docs(
    docs: usize,
    hour: u64,
    width: usize,
    tags: usize,
    s: f64,
    rng: &mut StdRng,
) -> Vec<Document> {
    let zipf = Zipf::new(tags, s);
    (0..docs as u64)
        .map(|id| {
            let mut doc_tags: Vec<TagId> = Vec::with_capacity(width);
            while doc_tags.len() < width {
                let tag = TagId(zipf.sample(rng) as u32);
                if !doc_tags.contains(&tag) {
                    doc_tags.push(tag);
                }
            }
            Document::builder(id, Timestamp::from_hours(hour)).tags(doc_tags).build()
        })
        .collect()
}

/// One `replay-zipf`-shaped tick: `docs` documents of 4 distinct tags
/// drawn from a Zipf(1.1) law over 3 000 tags.
fn zipf_tick(docs: usize) -> Vec<Document> {
    zipf_docs(docs, 0, 4, 3_000, 1.1, &mut StdRng::seed_from_u64(0x00A9_9171))
}

fn bench_apply(c: &mut Criterion) {
    let tick = zipf_tick(10_000);
    let mut group = c.benchmark_group("apply");
    group.sample_size(50);
    for (label, docs) in [("batch256", &tick[..256]), ("tick", &tick[..])] {
        group.throughput(Throughput::Elements(docs.len() as u64));
        for stores in [1usize, 2] {
            let spec = PartitionSpec {
                tick_spec: TickSpec::hourly(),
                use_entities: false,
                shards: stores,
            };
            let batch = partition_docs(docs, &spec);
            // Warm: every key already holds a table row and every
            // candidate list its capacity, as mid-tick in a replay.
            let mut registry = ShardedPairRegistry::new(stores, 6, Timestamp::DAY, 1, 200_000);
            registry.ingest_partitioned(batch.buckets());
            group.bench_with_input(BenchmarkId::new(label, stores), &batch, |b, batch| {
                b.iter(|| registry.ingest_partitioned(black_box(batch.buckets())));
            });
        }
    }

    // `wide`: 30 ticks of `wide-close` documents fill a 30-tick window,
    // then the last tick's batch is timed against the full table.
    const WIDE_WINDOW: u64 = 30;
    let spec = PartitionSpec { tick_spec: TickSpec::hourly(), use_entities: false, shards: 1 };
    let mut rng = StdRng::seed_from_u64(0x0057_1DE0);
    let mut registry =
        ShardedPairRegistry::new(1, WIDE_WINDOW as usize, Timestamp::DAY, 1, 140_000);
    let mut last = None;
    for hour in 0..WIDE_WINDOW {
        let batch = partition_docs(&zipf_docs(2_500, hour, 3, 20_000, 0.7, &mut rng), &spec);
        registry.ingest_partitioned(batch.buckets());
        last = Some(batch);
    }
    let batch = last.expect("the window holds ticks");
    let keys = registry.observed_keys();
    assert!((150_000..250_000).contains(&keys), "{keys} live keys: not wide-close-shaped");
    group.throughput(Throughput::Elements(batch.docs as u64));
    group.bench_with_input(BenchmarkId::new("wide", 1), &batch, |b, batch| {
        b.iter(|| registry.ingest_partitioned(black_box(batch.buckets())));
    });
    group.finish();
}

criterion_group!(benches, bench_ingest_workers, bench_ingest_batch_size, bench_apply);
criterion_main!(benches);
