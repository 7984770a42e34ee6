//! Property-based tests for the shard partitioner: partitioning must be a
//! lossless, routing-faithful regrouping of the sequential observation
//! stream into counted runs.

use enblogue_ingest::partition::{annotations_of, partition_docs, PairRun, PartitionSpec};
use enblogue_types::{shard_of_packed, Document, TagId, TagPair, Tick, TickSpec, Timestamp};
use proptest::prelude::*;

/// Builds a workload from generated raw material: in generated order
/// (ticks out of order) or timestamp-sorted.
fn build_docs(raw: &[(u64, Vec<u32>, Vec<u32>)], sorted: bool) -> Vec<Document> {
    let mut docs: Vec<Document> = raw
        .iter()
        .enumerate()
        .map(|(id, (hour, tags, entities))| {
            Document::builder(id as u64, Timestamp::from_hours(*hour))
                .tags(tags.iter().map(|&t| TagId(t)))
                .entities(entities.iter().map(|&t| TagId(t + 1000)))
                .build()
        })
        .collect();
    if sorted {
        docs.sort_by_key(|d| d.timestamp);
    }
    docs
}

/// The observation stream a sequential feeder would produce.
fn sequential_observations(docs: &[Document], spec: &PartitionSpec) -> Vec<(Tick, u64)> {
    let mut out = Vec::new();
    let mut buf = Vec::new();
    for doc in docs {
        let tick = spec.tick_spec.tick_of(doc.timestamp);
        let annotations = annotations_of(doc, spec.use_entities, &mut buf);
        for i in 0..annotations.len() {
            for j in i + 1..annotations.len() {
                out.push((tick, TagPair::new(annotations[i], annotations[j]).packed()));
            }
        }
    }
    out
}

/// A bucket's runs expanded back into one entry per observation.
fn expand(bucket: &[PairRun]) -> Vec<(Tick, u64)> {
    bucket
        .iter()
        .flat_map(|run| std::iter::repeat_n((run.tick, run.key), run.count as usize))
        .collect()
}

proptest! {
    /// Every run lands in exactly the bucket its shard routing names, a
    /// bucket's runs are strictly increasing in `(tick, key)` (one per
    /// distinct pair and tick), and their counts are positive and sum to
    /// the raw observation count.
    #[test]
    fn observations_land_on_exactly_one_shard(
        raw in proptest::collection::vec(
            (0u64..48, proptest::collection::vec(0u32..40, 0..6),
             proptest::collection::vec(0u32..20, 0..3)),
            0..60,
        ),
        shards in 1usize..9,
        use_entities in 0u32..2,
        sorted in 0u32..2,
    ) {
        let docs = build_docs(&raw, sorted == 1);
        let spec =
            PartitionSpec { tick_spec: TickSpec::hourly(), use_entities: use_entities == 1, shards };
        let batch = partition_docs(&docs, &spec);
        prop_assert_eq!(batch.shard_count(), shards);
        let mut total = 0u64;
        for (shard, bucket) in batch.buckets().iter().enumerate() {
            for run in bucket {
                prop_assert_eq!(shard_of_packed(run.key, shards), shard);
                prop_assert!(run.count >= 1);
                total += run.count;
            }
            for pair in bucket.windows(2) {
                prop_assert!((pair[0].tick, pair[0].key) < (pair[1].tick, pair[1].key));
            }
        }
        prop_assert_eq!(total, batch.observations as u64);
    }

    /// Expanding a bucket gives exactly the sequential observations
    /// routed to that shard — nothing lost, nothing invented,
    /// multiplicities preserved — with each tick replaced by the newest
    /// tick routed to the shard up to it: the column a sequential
    /// per-observation feed hits on that shard's windowed counter.
    #[test]
    fn bucket_union_equals_sequential_stream(
        raw in proptest::collection::vec(
            (0u64..24, proptest::collection::vec(0u32..30, 0..6),
             proptest::collection::vec(0u32..10, 0..3)),
            0..60,
        ),
        shards in 1usize..9,
        sorted in 0u32..2,
    ) {
        let docs = build_docs(&raw, sorted == 1);
        let spec = PartitionSpec { tick_spec: TickSpec::hourly(), use_entities: true, shards };
        let batch = partition_docs(&docs, &spec);
        let reference = sequential_observations(&docs, &spec);
        prop_assert_eq!(batch.observations, reference.len());
        prop_assert_eq!(batch.docs, docs.len());

        for (shard, bucket) in batch.buckets().iter().enumerate() {
            let mut newest = Tick(0);
            let mut expected: Vec<(Tick, u64)> = reference
                .iter()
                .filter(|&&(_, key)| shard_of_packed(key, shards) == shard)
                .map(|&(tick, key)| {
                    newest = newest.max(tick);
                    (newest, key)
                })
                .collect();
            expected.sort_unstable();
            prop_assert_eq!(expand(bucket), expected);
        }
    }
}
