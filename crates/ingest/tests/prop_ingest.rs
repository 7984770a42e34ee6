//! Property-based tests for the shard partitioner: partitioning must be a
//! lossless, routing-faithful reshuffle of the sequential observation
//! stream.

use enblogue_ingest::partition::{annotations_of, partition_docs, PartitionSpec};
use enblogue_types::{shard_of_packed, Document, TagId, TagPair, Tick, TickSpec, Timestamp};
use proptest::prelude::*;

/// Builds a timestamp-sorted workload from generated raw material.
fn build_docs(raw: &[(u64, Vec<u32>, Vec<u32>)]) -> Vec<Document> {
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
    docs.sort_by_key(|d| d.timestamp);
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

proptest! {
    /// Every observation lands in exactly the bucket its shard routing
    /// names — no leaks across shards.
    #[test]
    fn observations_land_on_exactly_one_shard(
        raw in proptest::collection::vec(
            (0u64..48, proptest::collection::vec(0u32..40, 0..6),
             proptest::collection::vec(0u32..20, 0..3)),
            0..60,
        ),
        shards in 1usize..9,
        use_entities in 0u32..2,
    ) {
        let docs = build_docs(&raw);
        let spec =
            PartitionSpec { tick_spec: TickSpec::hourly(), use_entities: use_entities == 1, shards };
        let batch = partition_docs(&docs, &spec);
        prop_assert_eq!(batch.shard_count(), shards);
        for (shard, bucket) in batch.buckets().iter().enumerate() {
            for &(_, packed) in bucket {
                prop_assert_eq!(shard_of_packed(packed, shards), shard);
            }
        }
    }

    /// The union of all buckets is the sequential observation stream —
    /// nothing lost, nothing invented, multiplicities preserved — and each
    /// bucket preserves the sequential order of its own observations.
    #[test]
    fn bucket_union_equals_sequential_stream(
        raw in proptest::collection::vec(
            (0u64..24, proptest::collection::vec(0u32..30, 0..6),
             proptest::collection::vec(0u32..10, 0..3)),
            0..60,
        ),
        shards in 1usize..9,
    ) {
        let docs = build_docs(&raw);
        let spec = PartitionSpec { tick_spec: TickSpec::hourly(), use_entities: true, shards };
        let batch = partition_docs(&docs, &spec);
        let reference = sequential_observations(&docs, &spec);
        prop_assert_eq!(batch.observations, reference.len());
        prop_assert_eq!(batch.docs, docs.len());

        // Multiset equality of the union.
        let mut merged: Vec<(Tick, u64)> =
            batch.buckets().iter().flat_map(|b| b.iter().copied()).collect();
        let mut sorted_reference = reference.clone();
        merged.sort_unstable();
        sorted_reference.sort_unstable();
        prop_assert_eq!(merged, sorted_reference);

        // Order within each bucket = the sequential subsequence routed to
        // that shard (what makes parallel application order-identical).
        for (shard, bucket) in batch.buckets().iter().enumerate() {
            let expected: Vec<(Tick, u64)> = reference
                .iter()
                .copied()
                .filter(|&(_, packed)| shard_of_packed(packed, shards) == shard)
                .collect();
            prop_assert_eq!(bucket.clone(), expected);
        }
    }
}
