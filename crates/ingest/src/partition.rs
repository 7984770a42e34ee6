//! The partitioning pre-pass: documents → shard-bucketed counted runs of
//! pair observations.
//!
//! Pair counting partitions cleanly by the registry's fixed hash split
//! ([`shard_of_packed`]): every co-occurrence `(tick, packed pair)`
//! touches exactly one shard of the pair registry. Tokenizing a batch
//! once and bucketing its observations up front is what lets the
//! application step fan out one writer per shard without any locking.
//! Each bucket is then aggregated per key before it reaches the
//! registry: duplicates of one `(tick, pair)` collapse into one
//! [`PairRun`], so the apply does one probe per distinct pair instead of
//! one per observation. A windowed count is a sum per (tick column, key),
//! so applying the runs leaves every count exactly where the sequential
//! per-observation feed would have.

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

/// `count` co-occurrences of one pair counted into one tick column: the
/// unit of a shard bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PairRun {
    /// The tick the observations count into (see [`partition_docs`]).
    pub tick: Tick,
    /// The packed pair key.
    pub key: u64,
    /// Observations combined into the run (at least 1).
    pub count: u64,
}

/// One batch's pair observations, bucketed by pair shard.
///
/// Bucket `i` holds the counted runs of every observation routed to
/// shard `i`, sorted by `(tick, key)` with one run per distinct pair and
/// tick — applying them leaves the same windowed counts a sequential
/// feeder would have written to that shard.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionedBatch {
    buckets: Vec<Vec<PairRun>>,
    /// Documents the batch was built from.
    pub docs: usize,
    /// Raw pair observations across all buckets (the sum of the run
    /// counts, not the number of runs).
    pub observations: usize,
}

impl PartitionedBatch {
    /// The per-shard run buckets (index = shard).
    pub fn buckets(&self) -> &[Vec<PairRun>] {
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
/// observation by its pair shard and combining each bucket into counted
/// runs.
///
/// An observation counts into the newest tick routed to its bucket so
/// far in the slice: its document's own tick, unless an earlier document
/// of `docs` routed a later one there. A shard's windowed counter never
/// moves back, so that is the column a sequential per-observation
/// `increment` on the shard would hit, and a late document in an
/// unsorted slice counts where per-document feeding counts it.
///
/// # Panics
/// Panics if `spec.shards` is zero.
pub fn partition_docs(docs: &[Document], spec: &PartitionSpec) -> PartitionedBatch {
    assert!(spec.shards > 0, "shard count must be positive");
    // Per bucket: the routed keys in stream order, and the `(tick, first
    // key index)` at which each newer tick starts. A bucket's ticks never
    // fall, so each segment holds the keys of exactly one run tick.
    let mut keys: Vec<Vec<u64>> = (0..spec.shards).map(|_| Vec::new()).collect();
    let mut segments: Vec<Vec<(Tick, usize)>> = (0..spec.shards).map(|_| Vec::new()).collect();
    let mut observations = 0usize;
    let mut annotation_buf: Vec<TagId> = Vec::with_capacity(16);
    for doc in docs {
        let tick = spec.tick_spec.tick_of(doc.timestamp);
        let annotations = annotations_of(doc, spec.use_entities, &mut annotation_buf);
        for_each_pair(annotations, |key| {
            let shard = shard_of_packed(key, spec.shards);
            if segments[shard].last().is_none_or(|&(newest, _)| tick > newest) {
                segments[shard].push((tick, keys[shard].len()));
            }
            keys[shard].push(key);
            observations += 1;
        });
    }
    let buckets = keys
        .iter_mut()
        .zip(&segments)
        .map(|(keys, segments)| counted_runs(keys, segments))
        .collect();
    PartitionedBatch { buckets, docs: docs.len(), observations }
}

/// Sorts each tick segment of one bucket's `keys` and combines equal
/// keys into runs, in `(tick, key)` order.
fn counted_runs(keys: &mut [u64], segments: &[(Tick, usize)]) -> Vec<PairRun> {
    let mut runs: Vec<PairRun> = Vec::with_capacity(keys.len());
    for (i, &(tick, start)) in segments.iter().enumerate() {
        let end = segments.get(i + 1).map_or(keys.len(), |&(_, next)| next);
        let segment = &mut keys[start..end];
        // Sorting the bare keys moves a third of the bytes that sorting
        // `PairRun`s would.
        segment.sort_unstable();
        for &key in segment.iter() {
            match runs.last_mut() {
                Some(run) if run.tick == tick && run.key == key => run.count += 1,
                _ => runs.push(PairRun { tick, key, count: 1 }),
            }
        }
    }
    runs
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

    /// The observations routed to `shard`, in stream order, each tick
    /// raised to the newest tick routed to that shard before it.
    fn shard_subsequence(
        reference: &[(Tick, u64)],
        shard: usize,
        shards: usize,
    ) -> Vec<(Tick, u64)> {
        let mut newest = Tick(0);
        reference
            .iter()
            .filter(|&&(_, key)| shard_of_packed(key, shards) == shard)
            .map(|&(tick, key)| {
                newest = newest.max(tick);
                (newest, key)
            })
            .collect()
    }

    /// A bucket's runs expanded back into one entry per observation.
    fn expand(bucket: &[PairRun]) -> Vec<(Tick, u64)> {
        bucket
            .iter()
            .flat_map(|run| std::iter::repeat_n((run.tick, run.key), run.count as usize))
            .collect()
    }

    #[test]
    fn buckets_respect_shard_routing() {
        let docs = vec![doc(1, 0, &[1, 2, 3]), doc(2, 1, &[4, 5]), doc(3, 1, &[1, 5, 9])];
        let s = spec(4);
        let batch = partition_docs(&docs, &s);
        assert_eq!(batch.docs, 3);
        assert_eq!(batch.observations, 3 + 1 + 3);
        for (shard, bucket) in batch.buckets().iter().enumerate() {
            for run in bucket {
                assert_eq!(shard_of_packed(run.key, 4), shard, "run in the wrong bucket");
            }
        }
    }

    #[test]
    fn union_of_buckets_equals_sequential_stream() {
        let docs = vec![doc(1, 0, &[1, 2, 3]), doc(2, 0, &[2, 3]), doc(3, 2, &[1, 2, 3, 4])];
        let s = spec(3);
        let batch = partition_docs(&docs, &s);
        let mut merged: Vec<(Tick, u64)> = batch.buckets().iter().flat_map(|b| expand(b)).collect();
        let mut reference = sequential_observations(&docs, &s);
        merged.sort_unstable();
        reference.sort_unstable();
        assert_eq!(merged, reference);
        let runs: usize = batch.buckets().iter().map(Vec::len).sum();
        assert_eq!(runs, reference.len() - 1, "the two tick-0 (2, 3) observations combine");
    }

    #[test]
    fn per_shard_order_matches_sequential_subsequence() {
        // Every fifth document is an hour late: its observations count
        // into the newest tick its shard has already seen.
        let docs: Vec<Document> = (0..20u64)
            .map(|i| {
                let hour = if i % 5 == 4 { (i / 5).saturating_sub(1) } else { i / 5 };
                doc(i, hour, &[(i % 7) as u32, (i % 3) as u32 + 10, 42])
            })
            .collect();
        let s = spec(4);
        let batch = partition_docs(&docs, &s);
        let reference = sequential_observations(&docs, &s);
        for (shard, bucket) in batch.buckets().iter().enumerate() {
            let expected = shard_subsequence(&reference, shard, 4);
            let expanded = expand(bucket);
            let ticks = |obs: &[(Tick, u64)]| obs.iter().map(|&(t, _)| t).collect::<Vec<_>>();
            assert_eq!(ticks(&expanded), ticks(&expected), "shard {shard} tick order diverged");
            let mut sorted = expected;
            sorted.sort_unstable();
            assert_eq!(expanded, sorted, "shard {shard} observations diverged");
        }
    }

    #[test]
    fn duplicates_combine_into_one_sorted_run() {
        let docs = vec![doc(1, 3, &[1, 2]), doc(2, 3, &[7, 8]), doc(3, 3, &[1, 2])];
        let batch = partition_docs(&docs, &spec(1));
        let (a, b) = (TagPair::new(TagId(1), TagId(2)), TagPair::new(TagId(7), TagId(8)));
        let mut expected = vec![
            PairRun { tick: Tick(3), key: a.packed(), count: 2 },
            PairRun { tick: Tick(3), key: b.packed(), count: 1 },
        ];
        expected.sort_unstable();
        assert_eq!(batch.buckets()[0], expected);
        assert_eq!(batch.observations, 3, "observations stay the raw count");
    }

    #[test]
    fn late_documents_count_into_their_bucket_newest_tick() {
        // Doc 2 is late on the shard it shares with doc 1, so it counts
        // into tick 5; on a shard of its own, its tick 4 stands.
        let docs = vec![doc(1, 5, &[1, 2]), doc(2, 4, &[1, 2])];
        let batch = partition_docs(&docs, &spec(1));
        let key = TagPair::new(TagId(1), TagId(2)).packed();
        assert_eq!(batch.buckets()[0], vec![PairRun { tick: Tick(5), key, count: 2 }]);

        let late = TagPair::new(TagId(3), TagId(4)).packed();
        let shards = (2..64)
            .find(|&n| shard_of_packed(key, n) != shard_of_packed(late, n))
            .expect("two keys split over some pool size");
        let docs = vec![doc(1, 5, &[1, 2]), doc(2, 4, &[3, 4])];
        let batch = partition_docs(&docs, &spec(shards));
        let runs = &batch.buckets()[shard_of_packed(late, shards)];
        assert_eq!(runs, &vec![PairRun { tick: Tick(4), key: late, count: 1 }]);
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
        assert_eq!(expand(&batch.buckets()[0]), sequential_observations(&docs, &s));
    }

    #[test]
    #[should_panic(expected = "shard count")]
    fn zero_shards_panics() {
        let _ = partition_docs(&[], &spec(0));
    }
}
