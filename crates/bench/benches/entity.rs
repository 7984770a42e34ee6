//! Criterion micro-benchmarks for entity tagging: tagging cost vs
//! dictionary size (the `entity_tag_dict_size` group, 1k → 100k entities)
//! and text length. Drill-downs of `entity.tag.busy_s` in `perf_e2e`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use enblogue::datagen::entities::EntityUniverse;
use enblogue::entity::gazetteer::EntityId;
use enblogue::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;

const FILLER: [&str; 10] =
    ["the", "quick", "report", "says", "that", "today", "nothing", "new", "was", "found"];

fn sample_text(universe: &EntityUniverse, words: usize, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(words + 4);
    for i in 0..words {
        if i % 40 == 20 {
            out.push(universe.sample(&mut rng).name.clone());
        }
        out.push(FILLER[rng.gen_range(0..FILLER.len())].to_string());
    }
    out.join(" ")
}

/// `n_docs` texts of `words_per_doc` filler words with one planted mention
/// each (canonical name or alias, 50/50), and the planted entity.
fn planted_corpus(
    universe: &EntityUniverse,
    n_docs: usize,
    words_per_doc: usize,
    seed: u64,
) -> Vec<(String, EntityId)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_docs)
        .map(|_| {
            let entity = universe.sample(&mut rng);
            let mention = if !entity.aliases.is_empty() && rng.gen_bool(0.5) {
                &entity.aliases[0]
            } else {
                &entity.name
            };
            let mut words: Vec<&str> =
                (0..words_per_doc).map(|_| FILLER[rng.gen_range(0..FILLER.len())]).collect();
            words.insert(rng.gen_range(0..=words.len()), mention);
            (words.join(" "), entity.id)
        })
        .collect()
}

/// Tagging cost is flat in dictionary size. A text token
/// costs one vocabulary probe whatever the dictionary holds; growing it
/// 100x only makes that probe's table colder in cache.
fn bench_tagging_vs_dict_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("entity_tag_dict_size");
    for n_entities in [1_000usize, 5_000, 20_000, 50_000, 100_000] {
        let universe = EntityUniverse::generate(n_entities, 0xD1C7);
        let tagger = EntityTagger::new(Arc::clone(&universe.gazetteer));
        let docs = planted_corpus(&universe, 200, 200, 7);
        // Recall < 1.0 only when filler n-grams shadow a planted alias
        // (greedy longest match), as in real dictionary taggers.
        let found = |tagger: &EntityTagger| {
            docs.iter()
                .filter(|(text, planted)| {
                    tagger.tag_text(text).iter().any(|m| m.entity == *planted)
                })
                .count()
        };
        assert!(found(&tagger) * 20 >= docs.len() * 19, "planted recall below 0.95");
        group.throughput(Throughput::Elements(docs.len() as u64 * 201));
        group.bench_with_input(BenchmarkId::new("entities", n_entities), &n_entities, |b, _| {
            b.iter(|| black_box(found(black_box(&tagger))));
        });
    }
    group.finish();
}

fn bench_tagging_vs_text_length(c: &mut Criterion) {
    let universe = EntityUniverse::generate(10_000, 1);
    let tagger = EntityTagger::new(Arc::clone(&universe.gazetteer));
    let mut group = c.benchmark_group("entity_tag_text_length");
    for words in [50usize, 200, 1_000] {
        let text = sample_text(&universe, words, 3);
        group.throughput(Throughput::Elements(words as u64));
        group.bench_with_input(BenchmarkId::new("words", words), &words, |b, _| {
            b.iter(|| black_box(tagger.tag_text(black_box(&text))));
        });
    }
    group.finish();
}

fn bench_tokenize(c: &mut Criterion) {
    let universe = EntityUniverse::generate(100, 1);
    let text = sample_text(&universe, 1_000, 4);
    let mut group = c.benchmark_group("tokenize");
    group.throughput(Throughput::Bytes(text.len() as u64));
    group.bench_function("1000_words", |b| {
        b.iter(|| black_box(enblogue::entity::tokenize::tokenize(black_box(&text))));
    });
    group.finish();
}

criterion_group!(benches, bench_tagging_vs_dict_size, bench_tagging_vs_text_length, bench_tokenize);
criterion_main!(benches);
