//! EnBlogue vs the TwitterMonitor-style burst baseline on the same
//! event-annotated workload (the claim the `baseline=burst` row of
//! `QUALITY.json` tracks, here on an archive of its own).

use enblogue::baseline::burst::{replay_snapshots, BaselineConfig};
use enblogue::prelude::*;
use enblogue_datagen::eval::evaluate;
use enblogue_datagen::nyt::{NytArchive, NytConfig};

fn archive(days: u64, historic_events: usize) -> NytArchive {
    NytArchive::generate(&NytConfig {
        seed: 909,
        days,
        docs_per_day: 120,
        n_categories: 20,
        n_descriptors: 150,
        n_entities: 60,
        n_terms: 300,
        historic_events,
    })
}

/// EnBlogue under the daily-tick configuration of the quality matrix.
fn enblogue(docs: &[Document]) -> Vec<RankingSnapshot> {
    let config = EnBlogueConfig::builder()
        .tick_spec(TickSpec::daily())
        .window_ticks(7)
        .seed_count(30)
        .min_seed_count(3)
        .top_k(10)
        .min_pair_support(3)
        .build()
        .unwrap();
    EnBlogueEngine::new(config).run_replay(docs)
}

#[test]
fn enblogue_beats_burst_baseline_on_pair_events() {
    let archive = archive(60, 5);
    let enblogue_report =
        evaluate(&enblogue(&archive.docs), &archive.script, 10, 2 * Timestamp::DAY);

    let baseline_snaps =
        replay_snapshots(&archive.docs, TickSpec::daily(), BaselineConfig::daily(), 10);
    assert_eq!(baseline_snaps.len(), 60, "one snapshot per day, the last one included");
    let baseline_report = evaluate(&baseline_snaps, &archive.script, 10, 2 * Timestamp::DAY);

    // The paper's claim, quantified: correlation-shift detection finds the
    // pair events; single-tag burst detection largely cannot, because the
    // planted events barely move individual tag volumes.
    assert!(
        enblogue_report.recall >= 0.8,
        "enblogue recall too low: {} ({:#?})",
        enblogue_report.recall,
        enblogue_report.outcomes
    );
    assert!(
        enblogue_report.recall > baseline_report.recall,
        "enblogue ({}) must beat the baseline ({})",
        enblogue_report.recall,
        baseline_report.recall
    );
    assert!(
        baseline_report.recall <= 0.5,
        "baseline should miss most correlation-only events: {}",
        baseline_report.recall
    );
}

#[test]
fn both_systems_run_clean_on_background_only_streams() {
    // No events planted: EnBlogue should stay (almost) silent; this guards
    // against an engine that "wins" by alarming constantly.
    let snapshots = enblogue(&archive(40, 0).docs);

    // Scores that do appear must be background noise: small relative to
    // the scores event streams produce (≈ 0.2+).
    let max_score = snapshots
        .iter()
        .flat_map(|s| s.ranked.iter().map(|&(_, score)| score))
        .fold(0.0f64, f64::max);
    assert!(
        max_score < 0.2,
        "background-only stream should not produce event-grade scores: {max_score}"
    );
}
