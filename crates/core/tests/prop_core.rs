//! Property-based tests for the EnBlogue engine.

use enblogue_core::config::EnBlogueConfig;
use enblogue_core::engine::EnBlogueEngine;
use enblogue_core::stages::StagePipeline;
use enblogue_types::{Document, RankingSnapshot, TagId, Tick, TickSpec, Timestamp};
use proptest::prelude::*;

/// A compact random workload description: per tick, a list of documents,
/// each a list of tag ids drawn from a small universe.
fn workload() -> impl Strategy<Value = Vec<Vec<Vec<u32>>>> {
    proptest::collection::vec(
        proptest::collection::vec(proptest::collection::vec(0u32..12, 1..5), 0..12),
        2..15,
    )
}

fn run_engine(config: EnBlogueConfig, ticks: &[Vec<Vec<u32>>]) -> EnBlogueEngine {
    let mut engine = EnBlogueEngine::new(config);
    let mut id = 0u64;
    for (t, docs) in ticks.iter().enumerate() {
        for tags in docs {
            id += 1;
            let doc = Document::builder(id, Timestamp::from_hours(t as u64))
                .tags(tags.iter().map(|&x| TagId(x)))
                .build();
            engine.process_doc(&doc);
        }
        engine.close_tick(enblogue_types::Tick(t as u64));
    }
    engine
}

fn small_config(max_pairs: usize) -> EnBlogueConfig {
    EnBlogueConfig::builder()
        .tick_spec(TickSpec::hourly())
        .window_ticks(4)
        .seed_count(6)
        .min_seed_count(1)
        .top_k(5)
        .max_tracked_pairs(max_pairs)
        .build()
        .unwrap()
}

/// One closed tick of a late stream: a batch size and the documents fed
/// before the close, each `(hours late, tags)`.
type LateTick = (usize, Vec<(u64, Vec<u32>)>);

/// A random stream with late documents.
fn late_workload() -> impl Strategy<Value = Vec<LateTick>> {
    proptest::collection::vec(
        (
            1usize..8,
            proptest::collection::vec((0u64..3, proptest::collection::vec(0u32..12, 1..5)), 0..16),
        ),
        2..12,
    )
}

/// Feeds `ticks` into a fresh pipeline over `shards` stores — in
/// `process_docs` slices of the drawn batch size, or one `process_doc`
/// at a time — closing each tick after its documents. Returns every
/// ranking and the registry's snapshot bytes.
fn run_late(shards: usize, batched: bool, ticks: &[LateTick]) -> (Vec<RankingSnapshot>, Vec<u8>) {
    let config = EnBlogueConfig { shards, ..small_config(1000) };
    let mut pipeline = StagePipeline::new(config);
    let mut rankings = Vec::new();
    let mut id = 0u64;
    for (t, (batch, docs)) in ticks.iter().enumerate() {
        let docs: Vec<Document> = docs
            .iter()
            .map(|(late, tags)| {
                id += 1;
                let hour = (t as u64).saturating_sub(*late);
                Document::builder(id, Timestamp::from_hours(hour))
                    .tags(tags.iter().map(|&x| TagId(x)))
                    .build()
            })
            .collect();
        for slice in docs.chunks(*batch) {
            if batched {
                pipeline.process_docs(slice);
            } else {
                slice.iter().for_each(|doc| pipeline.process_doc(doc));
            }
        }
        rankings.push(pipeline.close_tick(Tick(t as u64)));
    }
    (rankings, pipeline.state().registry().snapshot_bytes())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Batched feeding applies counted runs; per-document feeding counts
    /// one observation at a time. With late documents inside and across
    /// slices, both must leave byte-identical registries and rankings
    /// under every store count. (Across store counts a late observation
    /// counts into the newest tick of *its* store, which depends on the
    /// pairs sharing that store, so only the feeding modes are compared.)
    #[test]
    fn batched_runs_match_per_document_feeding(ticks in late_workload()) {
        for shards in [1usize, 4, 16] {
            let per_doc = run_late(shards, false, &ticks);
            let batched = run_late(shards, true, &ticks);
            prop_assert_eq!(&batched.1, &per_doc.1, "snapshot bytes, {} stores", shards);
            prop_assert_eq!(&batched.0, &per_doc.0, "rankings, {} stores", shards);
        }
    }

    /// Rankings are sorted descending, scores positive and finite, and
    /// bounded by k.
    #[test]
    fn ranking_invariants(ticks in workload()) {
        let engine = run_engine(small_config(1000), &ticks);
        if let Some(snap) = engine.pipeline().latest_snapshot() {
            prop_assert!(snap.ranked.len() <= 5);
            for w in snap.ranked.windows(2) {
                prop_assert!(w[0].1 >= w[1].1, "ranking not sorted: {:?}", snap.ranked);
            }
            for &(pair, score) in &snap.ranked {
                prop_assert!(score.is_finite() && score > 0.0);
                prop_assert!(pair.lo() < pair.hi(), "pairs canonical");
            }
        }
    }

    /// The tracked-pair cap is a hard bound after every tick.
    #[test]
    fn pair_cap_is_enforced(ticks in workload()) {
        let engine = run_engine(small_config(3), &ticks);
        prop_assert!(engine.metrics().pairs_tracked <= 3);
    }

    /// Identical input produces identical output (bit-for-bit rankings).
    #[test]
    fn engine_is_deterministic(ticks in workload()) {
        let a = run_engine(small_config(100), &ticks);
        let b = run_engine(small_config(100), &ticks);
        prop_assert_eq!(a.pipeline().latest_snapshot(), b.pipeline().latest_snapshot());
        prop_assert_eq!(a.metrics(), b.metrics());
    }

    /// Metrics are internally consistent.
    #[test]
    fn metrics_consistent(ticks in workload()) {
        let engine = run_engine(small_config(100), &ticks);
        let m = engine.metrics();
        let total_docs: u64 = ticks.iter().map(|t| t.len() as u64).sum();
        prop_assert_eq!(m.docs_processed, total_docs);
        prop_assert_eq!(m.ticks_closed, ticks.len() as u64);
        prop_assert!(m.pairs_tracked as u64 <= m.pairs_discovered);
        prop_assert!(m.pairs_evicted <= m.pairs_discovered);
        prop_assert_eq!(
            m.pairs_discovered - m.pairs_evicted,
            m.pairs_tracked as u64,
            "discovered = tracked + evicted"
        );
    }

    /// A document stream with a single tag can never produce a ranking
    /// (there is no pair to correlate).
    #[test]
    fn single_tag_streams_never_rank(per_tick in 1usize..10, ticks in 2usize..12) {
        let workload: Vec<Vec<Vec<u32>>> = (0..ticks).map(|_| vec![vec![1u32]; per_tick]).collect();
        let engine = run_engine(small_config(100), &workload);
        let snap = engine.pipeline().latest_snapshot().unwrap();
        prop_assert!(snap.ranked.is_empty());
        prop_assert_eq!(engine.metrics().pairs_discovered, 0);
    }
}
