//! Criterion micro-benchmarks for correlation measures and divergences:
//! per-pair evaluation cost (their detection quality is the `measure=`
//! axis of `QUALITY.json`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use enblogue::prelude::*;
use enblogue::stats::correlation::PairCounts;
use enblogue::stats::divergence::TermDistribution;
use std::hint::black_box;

fn bench_set_measures(c: &mut Criterion) {
    let counts = PairCounts::new(630, 105, 42, 5_000);
    let mut group = c.benchmark_group("correlation_measures");
    for measure in CorrelationMeasure::ALL {
        group.bench_with_input(
            BenchmarkId::new("measure", measure.name()),
            &counts,
            |b, &counts| {
                b.iter(|| black_box(measure.compute(black_box(counts))));
            },
        );
    }
    group.finish();
}

fn dist(n_terms: u32, total: u64, offset: u32) -> TermDistribution {
    let mut d = TermDistribution::new();
    for i in 0..n_terms {
        d.add(TagId(offset + i), 1 + total / n_terms as u64);
    }
    d
}

fn bench_divergences(c: &mut Criterion) {
    let mut group = c.benchmark_group("term_divergence");
    for vocab in [50u32, 500, 5_000] {
        let p = dist(vocab, 10_000, 0);
        let q = dist(vocab, 10_000, vocab / 2); // half-overlapping support
        group.bench_with_input(BenchmarkId::new("jsd_vocab", vocab), &(p, q), |b, (p, q)| {
            b.iter(|| black_box(p.jensen_shannon(black_box(q))));
        });
    }
    let p = dist(500, 10_000, 0);
    let q = dist(500, 10_000, 250);
    group.bench_function("kl_smoothed_vocab500", |b| {
        b.iter(|| black_box(p.kl_divergence(black_box(&q), 0.5)));
    });
    group.finish();
}

criterion_group!(benches, bench_set_measures, bench_divergences);
criterion_main!(benches);
