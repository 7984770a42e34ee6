//! Criterion micro-benchmarks for the shift predictors: per-prediction
//! cost over realistic history lengths (their detection quality is the
//! `predictor=` axis of `QUALITY.json`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use enblogue::prelude::*;
use enblogue::stats::shift::ShiftScorer;
use std::hint::black_box;

fn history(len: usize) -> Vec<f64> {
    (0..len).map(|i| 0.1 + 0.02 * (i as f64 * 0.7).sin()).collect()
}

fn bench_predict(c: &mut Criterion) {
    let mut group = c.benchmark_group("predict_one_step");
    let h = history(24);
    for kind in PredictorKind::ablation_set() {
        let predictor = kind.build();
        group.bench_with_input(BenchmarkId::new("predictor", predictor.name()), &h, |b, h| {
            b.iter(|| black_box(predictor.predict(black_box(h))));
        });
    }
    group.finish();
}

fn bench_predict_history_length(c: &mut Criterion) {
    let mut group = c.benchmark_group("ewma_history_length");
    for len in [6usize, 24, 96] {
        let h = history(len);
        group.throughput(Throughput::Elements(len as u64));
        group.bench_with_input(BenchmarkId::new("len", len), &h, |b, h| {
            let predictor = PredictorKind::Ewma(0.3).build();
            b.iter(|| black_box(predictor.predict(black_box(h))));
        });
    }
    group.finish();
}

fn bench_score_series(c: &mut Criterion) {
    // The per-pair per-tick scoring path as the engine drives it.
    let scorer = ShiftScorer::new(PredictorKind::Ewma(0.3), ErrorNormalization::Absolute);
    let h = history(24);
    let mut group = c.benchmark_group("shift_score");
    group.bench_function("score_one_observation", |b| {
        b.iter(|| black_box(scorer.score(black_box(&h), black_box(0.31))));
    });
    group.finish();
}

criterion_group!(benches, bench_predict, bench_predict_history_length, bench_score_series);
criterion_main!(benches);
