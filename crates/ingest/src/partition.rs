//! The partitioning pre-pass: documents → shard-bucketed pair
//! observations.
//!
//! Pair counting partitions cleanly by the registry's fixed hash split
//! ([`shard_of_packed`]): every co-occurrence `(tick, packed pair)`
//! touches exactly one shard of the pair registry. Tokenizing a batch
//! once and bucketing its observations up front is what lets the
//! application step fan out one writer per shard without any locking —
//! and because the pre-pass preserves document order within each bucket,
//! the per-shard write sequence is identical to sequential feeding.

use enblogue_types::{shard_of_packed, Document, TagId, TagPair, Tick, TickSpec};

/// Everything the partitioner needs to know about the consuming engine.
///
/// Mirrors the relevant slice of `EnBlogueConfig`; sinks hand it out so
/// partitioning workers can run far away from the engine state.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionSpec {
    /// Stream-time discretisation (assigns each document its tick).
    pub tick_spec: TickSpec,
    /// Whether entity annotations join tags in the pair space
    /// ("tag/entity mixtures as emergent topics", §3).
    pub use_entities: bool,
    /// The consuming registry's shard-store pool size (the bucket count).
    pub shards: usize,
}

/// One batch's pair observations, bucketed by pair shard.
///
/// Bucket `i` holds every `(tick, packed)` observation routed to shard
/// `i`, in document order — the exact subsequence of writes a sequential
/// feeder would have sent to that shard.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionedBatch {
    buckets: Vec<Vec<(Tick, u64)>>,
    /// Documents the batch was built from.
    pub docs: usize,
    /// Total pair observations across all buckets.
    pub observations: usize,
}

impl PartitionedBatch {
    /// The per-shard observation buckets (index = shard).
    pub fn buckets(&self) -> &[Vec<(Tick, u64)>] {
        &self.buckets
    }

    /// Number of shards the batch was partitioned for.
    pub fn shard_count(&self) -> usize {
        self.buckets.len()
    }
}

/// The effective annotation set of `doc` under `spec`, appended to `buf`
/// (cleared first). Tags merged with entities when the spec says so —
/// byte-for-byte the set the engine's per-document path uses.
pub fn annotations_of<'a>(
    doc: &Document,
    use_entities: bool,
    buf: &'a mut Vec<TagId>,
) -> &'a [TagId] {
    buf.clear();
    if use_entities {
        buf.extend(doc.annotations());
    } else {
        buf.extend(doc.tags.iter().copied());
    }
    buf
}

/// Calls `f` with the packed key of every unordered annotation pair, in
/// enumeration order (`i < j` over the slice).
///
/// This is *the* definition of a document's pair observations — the
/// sequential counting stage and the partitioning pre-pass both call it,
/// so the two feed paths cannot diverge on pair semantics.
///
/// # Panics
/// Panics if `annotations` contains duplicates (a pair needs two distinct
/// tags; builders deduplicate, manual mutation must `normalize`).
#[inline]
pub fn for_each_pair(annotations: &[TagId], mut f: impl FnMut(u64)) {
    for i in 0..annotations.len() {
        for j in i + 1..annotations.len() {
            f(TagPair::new(annotations[i], annotations[j]).packed());
        }
    }
}

/// Tokenizes and pairs `docs` once, bucketing every co-occurrence
/// observation by its pair shard.
///
/// # Panics
/// Panics if `spec.shards` is zero.
pub fn partition_docs(docs: &[Document], spec: &PartitionSpec) -> PartitionedBatch {
    assert!(spec.shards > 0, "shard count must be positive");
    let mut buckets: Vec<Vec<(Tick, u64)>> = (0..spec.shards).map(|_| Vec::new()).collect();
    let mut observations = 0usize;
    let mut annotation_buf: Vec<TagId> = Vec::with_capacity(16);
    for doc in docs {
        let tick = spec.tick_spec.tick_of(doc.timestamp);
        let annotations = annotations_of(doc, spec.use_entities, &mut annotation_buf);
        for_each_pair(annotations, |packed| {
            buckets[shard_of_packed(packed, spec.shards)].push((tick, packed));
            observations += 1;
        });
    }
    PartitionedBatch { buckets, docs: docs.len(), observations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enblogue_types::Timestamp;

    fn doc(id: u64, hour: u64, tags: &[u32]) -> Document {
        Document::builder(id, Timestamp::from_hours(hour))
            .tags(tags.iter().map(|&t| TagId(t)))
            .build()
    }

    fn spec(shards: usize) -> PartitionSpec {
        PartitionSpec { tick_spec: TickSpec::hourly(), use_entities: true, shards }
    }

    /// The reference observation stream: what a sequential feeder emits.
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

    #[test]
    fn buckets_respect_shard_routing() {
        let docs = vec![doc(1, 0, &[1, 2, 3]), doc(2, 1, &[4, 5]), doc(3, 1, &[1, 5, 9])];
        let s = spec(4);
        let batch = partition_docs(&docs, &s);
        assert_eq!(batch.docs, 3);
        assert_eq!(batch.observations, 3 + 1 + 3);
        for (shard, bucket) in batch.buckets().iter().enumerate() {
            for &(_, packed) in bucket {
                assert_eq!(shard_of_packed(packed, 4), shard, "observation in the wrong bucket");
            }
        }
    }

    #[test]
    fn union_of_buckets_equals_sequential_stream() {
        let docs = vec![doc(1, 0, &[1, 2, 3]), doc(2, 0, &[2, 3]), doc(3, 2, &[1, 2, 3, 4])];
        let s = spec(3);
        let batch = partition_docs(&docs, &s);
        let mut merged: Vec<(Tick, u64)> =
            batch.buckets().iter().flat_map(|b| b.iter().copied()).collect();
        let mut reference = sequential_observations(&docs, &s);
        merged.sort_unstable();
        reference.sort_unstable();
        assert_eq!(merged, reference);
    }

    #[test]
    fn per_shard_order_matches_sequential_subsequence() {
        let docs: Vec<Document> =
            (0..20).map(|i| doc(i, i / 5, &[(i % 7) as u32, (i % 3) as u32 + 10, 42])).collect();
        let s = spec(4);
        let batch = partition_docs(&docs, &s);
        let reference = sequential_observations(&docs, &s);
        for (shard, bucket) in batch.buckets().iter().enumerate() {
            let expected: Vec<(Tick, u64)> = reference
                .iter()
                .copied()
                .filter(|&(_, packed)| shard_of_packed(packed, 4) == shard)
                .collect();
            assert_eq!(*bucket, expected, "shard {shard} order diverged");
        }
    }

    #[test]
    fn entities_follow_the_spec() {
        let mut d = doc(1, 0, &[1]);
        d.entities.push(TagId(99));
        d.normalize();
        let with = partition_docs(std::slice::from_ref(&d), &spec(2));
        assert_eq!(with.observations, 1, "tag/entity pair counted");
        let without = partition_docs(
            std::slice::from_ref(&d),
            &PartitionSpec { use_entities: false, ..spec(2) },
        );
        assert_eq!(without.observations, 0, "entities ignored when disabled");
    }

    #[test]
    fn single_shard_collects_everything_in_order() {
        let docs = vec![doc(1, 0, &[1, 2]), doc(2, 1, &[3, 4])];
        let s = spec(1);
        let batch = partition_docs(&docs, &s);
        assert_eq!(batch.shard_count(), 1);
        assert_eq!(batch.buckets()[0], sequential_observations(&docs, &s));
    }

    #[test]
    #[should_panic(expected = "shard count")]
    fn zero_shards_panics() {
        let _ = partition_docs(&[], &spec(0));
    }
}
