//! Adapters between the `enblogue-ingest` subsystem and the shared stage
//! pipeline.
//!
//! `enblogue-ingest` owns the mechanics (batch planning, the bounded work
//! queue, the partitioning worker pool, deterministic re-sequencing); this
//! module owns the semantics: [`ReplayIngest`] implements
//! [`IngestSink`] over a [`StagePipeline`], so batches land in
//! [`StagePipeline::process_partitioned`] and tick closes run through the
//! shared gap-closing path. Because the stand-alone engine is a thin
//! adapter over the same pipeline, wiring the sink here gives the engine
//! and any bare pipeline host shard-partitioned parallel ingestion.

use crate::stages::StagePipeline;
use enblogue_ingest::partition::{PartitionSpec, PartitionedBatch};
use enblogue_ingest::pipeline::IngestSink;
use enblogue_types::{Document, RankingSnapshot, Tick};

/// An [`IngestSink`] that feeds a stage pipeline and collects the ranking
/// snapshot of every closed tick — the parallel-ingestion counterpart of
/// [`StagePipeline::run_replay`].
pub struct ReplayIngest<'p> {
    pipeline: &'p mut StagePipeline,
    snapshots: Vec<RankingSnapshot>,
}

impl<'p> ReplayIngest<'p> {
    /// A sink around `pipeline`, starting with no collected snapshots.
    pub fn new(pipeline: &'p mut StagePipeline) -> Self {
        ReplayIngest { pipeline, snapshots: Vec::new() }
    }

    /// The snapshots of every tick closed through this sink, in order.
    pub fn into_snapshots(self) -> Vec<RankingSnapshot> {
        self.snapshots
    }
}

impl IngestSink for ReplayIngest<'_> {
    fn partition_spec(&self) -> PartitionSpec {
        self.pipeline.partition_spec()
    }

    fn apply_batch(&mut self, docs: &[Document], partitioned: &PartitionedBatch) {
        // Resume-then-tail-replay: on a pipeline restored from a
        // checkpoint, the first batches arrive without the leading
        // `close_through` a continuous plan would have scheduled — the
        // planner only sees the tail. Close every tick an uninterrupted
        // run would have closed before this batch (a still-open
        // checkpoint tick included) first. For a pipeline that was never
        // restored (or any batch after the first close) this is a no-op:
        // the plan's own close ops keep the cursor one tick behind every
        // batch.
        if let Some(first) = docs.first() {
            let tick = self.pipeline.config().tick_spec.tick_of(first.timestamp);
            if let Some(closed) = self.pipeline.last_closed() {
                assert!(
                    tick > closed,
                    "ingest tail must start after the already-closed tick {closed} (got {tick})"
                );
            }
            let snapshots = &mut self.snapshots;
            self.pipeline.close_gap_before(tick, |snapshot| snapshots.push(snapshot));
        }
        self.pipeline.process_partitioned(docs, partitioned);
    }

    fn close_through(&mut self, tick: Tick) {
        let snapshots = &mut self.snapshots;
        self.pipeline.close_through(tick, |snapshot| snapshots.push(snapshot));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EnBlogueConfig;
    use enblogue_ingest::pipeline::{IngestConfig, IngestPipeline};
    use enblogue_types::{TagId, TickSpec, Timestamp};

    fn config() -> EnBlogueConfig {
        EnBlogueConfig::builder()
            .tick_spec(TickSpec::hourly())
            .window_ticks(6)
            .seed_count(8)
            .min_seed_count(1)
            .top_k(5)
            .min_pair_support(1)
            .shards(4)
            .build()
            .unwrap()
    }

    fn docs() -> Vec<Document> {
        let mut docs = Vec::new();
        let mut id = 0;
        for hour in 0..10u64 {
            for _ in 0..4 {
                for tags in [&[1u32][..], &[2], if hour >= 7 { &[1, 2] } else { &[3] }] {
                    id += 1;
                    docs.push(
                        Document::builder(id, Timestamp::from_hours(hour))
                            .tags(tags.iter().map(|&t| TagId(t)))
                            .build(),
                    );
                }
            }
        }
        docs
    }

    #[test]
    fn ingest_replay_matches_sequential_replay() {
        let docs = docs();
        let mut sequential = StagePipeline::new(config());
        let baseline = sequential.run_replay(&docs);
        assert!(!baseline.is_empty());
        for (batch_size, workers) in [(1usize, 1usize), (7, 2), (64, 4)] {
            let mut pipeline = StagePipeline::new(config());
            let mut sink = ReplayIngest::new(&mut pipeline);
            let stats = IngestPipeline::new(IngestConfig { batch_size, queue_depth: 4, workers })
                .run(&mut sink, &docs);
            assert_eq!(stats.docs, docs.len() as u64);
            assert_eq!(
                sink.into_snapshots(),
                baseline,
                "batch={batch_size} workers={workers} diverged"
            );
            assert_eq!(pipeline.metrics(), sequential.metrics(), "engine counters diverged");
        }
    }
}
