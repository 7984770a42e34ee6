//! Multi-plan sharing (§4.1): "tag the documents once, then feed N
//! engines". The shared prefix — entity tagging — must run once however
//! many plans consume it, without changing any plan's output.

use enblogue::prelude::*;
use enblogue_datagen::nyt::{NytArchive, NytConfig};
use std::sync::Arc;

fn archive() -> NytArchive {
    NytArchive::generate(&NytConfig {
        seed: 5005,
        days: 15,
        docs_per_day: 60,
        n_categories: 12,
        n_descriptors: 60,
        n_entities: 60,
        n_terms: 200,
        historic_events: 2,
    })
}

fn engine_config(k: usize) -> EnBlogueConfig {
    EnBlogueConfig::builder()
        .tick_spec(TickSpec::daily())
        .window_ticks(5)
        .seed_count(15)
        .min_seed_count(2)
        .top_k(k)
        .build()
        .unwrap()
}

fn entity_tagger(archive: &NytArchive) -> EntityTagger {
    EntityTagger::new(Arc::clone(&archive.universe.gazetteer))
}

/// The shared prefix: one tagging pass over a copy of the raw archive.
/// Returns the tagged documents and the number of mentions found.
fn tag_once(
    tagger: &EntityTagger,
    interner: &TagInterner,
    raw: &[Document],
) -> (Vec<Document>, usize) {
    let mut docs = raw.to_vec();
    let mentions = docs.iter_mut().map(|doc| tagger.tag_document(interner, doc)).sum();
    (docs, mentions)
}

#[test]
fn shared_prefix_processes_each_event_once() {
    let archive = archive();
    let tagger = entity_tagger(&archive);
    let interner = archive.interner.clone();
    let n_plans = 4;
    // Different k per plan: genuinely different query plans whose prefix
    // (the tagged stream) is identical.
    let configs: Vec<EnBlogueConfig> = (0..n_plans).map(|i| engine_config(5 + i)).collect();

    // Shared: tag once, every plan reads the same slice.
    let (shared_docs, shared_mentions) = tag_once(&tagger, &interner, &archive.docs);
    assert!(shared_mentions > 0, "the archive text must carry entity mentions");
    let shared: Vec<Vec<RankingSnapshot>> =
        configs.iter().map(|c| EnBlogueEngine::new(c.clone()).run_replay(&shared_docs)).collect();

    // Unshared: every plan tags its own copy of the raw stream.
    let mut unshared_mentions = 0;
    let mut unshared = Vec::new();
    for config in &configs {
        let (docs, mentions) = tag_once(&tagger, &interner, &archive.docs);
        assert_eq!(docs, shared_docs, "re-tagging resolves to the same interned entities");
        unshared_mentions += mentions;
        unshared.push(EnBlogueEngine::new(config.clone()).run_replay(&docs));
    }

    // The tagger runs once vs once-per-plan.
    assert_eq!(unshared_mentions, n_plans * shared_mentions);
    // Outputs are identical plan by plan.
    for (a, b) in shared.iter().zip(&unshared) {
        assert!(!a.is_empty());
        assert_eq!(a, b, "sharing must not change results");
    }
}

#[test]
fn sharing_scales_with_plan_count() {
    let archive = archive();
    let tagger = entity_tagger(&archive);
    let interner = archive.interner.clone();
    let (docs, _) = tag_once(&tagger, &interner, &archive.docs);
    let tagged = docs.clone();
    let vocabulary = interner.len();

    // One plan alone is the reference for every plan of a larger fleet:
    // feeding more engines from the shared slice adds only their own
    // work — it neither mutates the slice nor interns anything new.
    let alone = EnBlogueEngine::new(engine_config(10)).run_replay(&docs);
    assert!(alone.iter().any(|s| !s.ranked.is_empty()));
    for n_plans in [2usize, 8] {
        for plan in 0..n_plans {
            let mut engine = EnBlogueEngine::new(engine_config(10));
            assert_eq!(engine.run_replay(&docs), alone, "plan {plan} of {n_plans}");
            assert_eq!(engine.metrics().docs_processed, docs.len() as u64);
        }
    }
    assert_eq!(docs, tagged, "engines read the shared prefix without changing it");
    assert_eq!(interner.len(), vocabulary, "only the one tagging pass interns");
}

#[test]
fn different_configs_share_prefix_and_diverge_in_rankings() {
    let archive = archive();
    let tagger = entity_tagger(&archive);
    let (docs, _) = tag_once(&tagger, &archive.interner, &archive.docs);
    assert!(docs.iter().any(|d| !d.entities.is_empty()), "the prefix annotates entities");
    assert!(docs.iter().all(|d| d.text.is_none()), "the prefix drops raw text");

    // Two plans with different measures — the demo's "compare emergent
    // topic rankings obtained from different parameter settings".
    let jaccard = engine_config(10);
    let mut overlap = engine_config(10);
    overlap.measure = MeasureKind::Set(CorrelationMeasure::Overlap);

    let a = EnBlogueEngine::new(jaccard).run_replay(&docs);
    let b = EnBlogueEngine::new(overlap).run_replay(&docs);
    assert_eq!(a.len(), b.len());
    // Same tick structure, but (in general) different scores.
    let any_difference = a.iter().zip(&b).any(|(x, y)| {
        x.ranked.iter().map(|(p, _)| p).ne(y.ranked.iter().map(|(p, _)| p))
            || x.ranked.iter().zip(&y.ranked).any(|((_, s1), (_, s2))| (s1 - s2).abs() > 1e-12)
    });
    assert!(any_difference, "different measures must visibly differ somewhere");
}
