//! Full query plans on the push-based DAG, with multi-plan sharing.
//!
//! §4.1: "The system allows executing multiple query plans in parallel,
//! where overlapping parts, like data sources, sketching operators, entity
//! tagging, and statistics operators are shared for efficiency. It hence
//! allows us to compare emergent topic rankings obtained from different
//! parameter settings in real-time."
//!
//! A [`PipelineBuilder`] assembles: one replay source → (optional, shared)
//! entity tagging → one [`EngineOp`] sink per engine configuration.
//! The `perf_sharing` bin builds the same pipeline with sharing disabled to
//! measure the saved work.

use crate::config::EnBlogueConfig;
use crate::notify::PushBroker;
use crate::ops::{EngineOp, EntityTagOp, SnapshotHandle};
use enblogue_entity::tagger::EntityTagger;
use enblogue_stream::exec::{run_graph, run_graph_threaded, ExecutionStats};
use enblogue_stream::graph::Graph;
use enblogue_stream::source::ReplaySource;
use enblogue_types::{Document, EnBlogueError, TagInterner, TickSpec};
use std::sync::Arc;

/// Builder for a complete EnBlogue query-plan graph.
pub struct PipelineBuilder {
    docs: Vec<Document>,
    tick_spec: TickSpec,
    interner: TagInterner,
    tagger: Option<Arc<EntityTagger>>,
    engines: Vec<(String, EnBlogueConfig, Option<PushBroker>)>,
    share_plans: bool,
}

impl PipelineBuilder {
    /// A pipeline replaying `docs` under `tick_spec`, interning into
    /// `interner` (must be the same interner the workload used).
    pub fn new(docs: Vec<Document>, tick_spec: TickSpec, interner: TagInterner) -> Self {
        PipelineBuilder {
            docs,
            tick_spec,
            interner,
            tagger: None,
            engines: Vec::new(),
            share_plans: true,
        }
    }

    /// Inserts a shared entity-tagging stage before the engines.
    #[must_use]
    pub fn with_entity_tagging(mut self, tagger: Arc<EntityTagger>) -> Self {
        self.tagger = Some(tagger);
        self
    }

    /// Adds one engine (query plan) with its own configuration.
    #[must_use]
    pub fn with_engine(mut self, name: impl Into<String>, config: EnBlogueConfig) -> Self {
        self.engines.push((name.into(), config, None));
        self
    }

    /// Adds an engine whose snapshots are also published to `broker`.
    #[must_use]
    pub fn with_engine_and_broker(
        mut self,
        name: impl Into<String>,
        config: EnBlogueConfig,
        broker: PushBroker,
    ) -> Self {
        self.engines.push((name.into(), config, Some(broker)));
        self
    }

    /// Disables structural plan sharing (the `perf_sharing` baseline: every
    /// plan gets a private copy of each stage).
    #[must_use]
    pub fn without_sharing(mut self) -> Self {
        self.share_plans = false;
        self
    }

    /// Builds the graph; returns it plus one snapshot handle per engine,
    /// in registration order.
    ///
    /// # Errors
    /// Fails if no engine was registered or a configuration is invalid.
    pub fn build(self) -> Result<(Graph, Vec<SnapshotHandle>), EnBlogueError> {
        if self.engines.is_empty() {
            return Err(EnBlogueError::PlanError("a pipeline needs at least one engine".into()));
        }
        for (_, config, _) in &self.engines {
            config.validate()?;
        }
        let mut graph = Graph::new(ReplaySource::new(self.docs, self.tick_spec));
        let mut handles = Vec::with_capacity(self.engines.len());
        for (name, config, broker) in self.engines {
            // Each plan is source → [entity tagging] → engine; with
            // sharing on, equal prefixes collapse into one node.
            let tag_node = self.tagger.as_ref().map(|tagger| {
                let op = EntityTagOp::new(Arc::clone(tagger), self.interner.clone());
                if self.share_plans {
                    graph.attach(None, op)
                } else {
                    graph.attach_unshared(None, op)
                }
            });
            // The engine sink is a thin adapter over the shared stage
            // pipeline — the same implementation the stand-alone
            // `EnBlogueEngine` runs.
            let mut engine_op = EngineOp::from_config(name, config);
            if let Some(broker) = broker {
                engine_op = engine_op.with_broker(broker);
            }
            handles.push(engine_op.handle());
            // Engine signatures are unique, so attach() never merges them.
            graph.attach(tag_node, engine_op);
        }
        Ok((graph, handles))
    }

    /// Builds and runs the pipeline on the synchronous executor.
    pub fn run(self) -> Result<(ExecutionStats, Vec<SnapshotHandle>), EnBlogueError> {
        let (mut graph, handles) = self.build()?;
        let stats = run_graph(&mut graph)?;
        Ok((stats, handles))
    }

    /// Builds and runs the pipeline on the threaded executor (one worker
    /// thread per operator; within each engine sink, tick close can
    /// additionally fan out shard-parallel when its configuration sets
    /// `shards` and `parallel_close`).
    pub fn run_threaded(
        self,
        channel_capacity: usize,
    ) -> Result<(ExecutionStats, Vec<SnapshotHandle>), EnBlogueError> {
        let (graph, handles) = self.build()?;
        let stats = run_graph_threaded(graph, channel_capacity)?;
        Ok((stats, handles))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enblogue_entity::gazetteer::GazetteerBuilder;
    use enblogue_types::{TagKind, Timestamp};

    fn workload(interner: &TagInterner) -> Vec<Document> {
        let a = interner.intern("alpha", TagKind::Hashtag);
        let b = interner.intern("beta", TagKind::Hashtag);
        let mut docs = Vec::new();
        let mut id = 0;
        for hour in 0..10u64 {
            for _ in 0..5 {
                id += 1;
                let tags = if hour >= 8 { vec![a, b] } else { vec![a] };
                docs.push(
                    Document::builder(id, Timestamp::from_hours(hour))
                        .tags(tags)
                        .text("nothing to see")
                        .build(),
                );
            }
        }
        docs
    }

    fn config() -> EnBlogueConfig {
        EnBlogueConfig::builder()
            .window_ticks(4)
            .seed_count(4)
            .min_seed_count(1)
            .top_k(3)
            .build()
            .unwrap()
    }

    fn tagger() -> Arc<EntityTagger> {
        let mut b = GazetteerBuilder::default();
        b.add_title("nothing");
        Arc::new(EntityTagger::new(Arc::new(b.build())))
    }

    #[test]
    fn single_engine_pipeline_produces_snapshots() {
        let interner = TagInterner::new();
        let docs = workload(&interner);
        let (stats, handles) = PipelineBuilder::new(docs, TickSpec::hourly(), interner)
            .with_engine("e1", config())
            .run()
            .unwrap();
        assert_eq!(stats.source_docs, 50);
        let snaps = handles[0].lock().unwrap();
        assert_eq!(snaps.len(), 10, "one snapshot per tick");
        assert!(!snaps[9].ranked.is_empty(), "the correlated pair must emerge");
    }

    #[test]
    fn multi_plan_sharing_dedups_the_tagger() {
        let interner = TagInterner::new();
        let docs = workload(&interner);
        let shared_tagger = tagger();
        let (graph, _handles) =
            PipelineBuilder::new(docs.clone(), TickSpec::hourly(), interner.clone())
                .with_entity_tagging(Arc::clone(&shared_tagger))
                .with_engine("e1", config())
                .with_engine("e2", config())
                .build()
                .unwrap();
        assert_eq!(graph.node_count(), 3, "1 shared tagger + 2 engines");
        assert_eq!(graph.shared_hits(), 1);

        let (graph, _handles) = PipelineBuilder::new(docs, TickSpec::hourly(), interner)
            .with_entity_tagging(shared_tagger)
            .with_engine("e1", config())
            .with_engine("e2", config())
            .without_sharing()
            .build()
            .unwrap();
        assert_eq!(graph.node_count(), 4, "2 taggers + 2 engines without sharing");
    }

    #[test]
    fn shared_and_unshared_produce_identical_rankings() {
        let interner = TagInterner::new();
        let docs = workload(&interner);
        let run = |share: bool| {
            let builder = PipelineBuilder::new(docs.clone(), TickSpec::hourly(), interner.clone())
                .with_entity_tagging(tagger())
                .with_engine("e1", config())
                .with_engine("e2", config());
            let builder = if share { builder } else { builder.without_sharing() };
            let (_, handles) = builder.run().unwrap();
            let out: Vec<Vec<enblogue_types::RankingSnapshot>> =
                handles.iter().map(|h| h.lock().unwrap().clone()).collect();
            out
        };
        assert_eq!(run(true), run(false), "sharing must be a pure optimisation");
    }

    #[test]
    fn sharing_reduces_total_work() {
        let interner = TagInterner::new();
        let docs = workload(&interner);
        let measure = |share: bool| {
            let builder = PipelineBuilder::new(docs.clone(), TickSpec::hourly(), interner.clone())
                .with_entity_tagging(tagger())
                .with_engine("e1", config())
                .with_engine("e2", config())
                .with_engine("e3", config());
            let builder = if share { builder } else { builder.without_sharing() };
            let (stats, _) = builder.run().unwrap();
            stats.total_processed()
        };
        let shared = measure(true);
        let unshared = measure(false);
        assert!(shared < unshared, "sharing must save work: {shared} !< {unshared}");
    }

    #[test]
    fn empty_pipeline_is_rejected() {
        let interner = TagInterner::new();
        let err = PipelineBuilder::new(vec![], TickSpec::hourly(), interner).build().unwrap_err();
        assert!(err.to_string().contains("at least one engine"));
    }

    #[test]
    fn threaded_executor_matches_sync_snapshots() {
        let interner = TagInterner::new();
        let docs = workload(&interner);
        let sync_out = {
            let (_, handles) =
                PipelineBuilder::new(docs.clone(), TickSpec::hourly(), interner.clone())
                    .with_engine("e1", config())
                    .run()
                    .unwrap();
            let out = handles[0].lock().unwrap().clone();
            out
        };
        let threaded_out = {
            let (_, handles) = PipelineBuilder::new(docs, TickSpec::hourly(), interner)
                .with_engine("e1", config())
                .run_threaded(64)
                .unwrap();
            let out = handles[0].lock().unwrap().clone();
            out
        };
        assert_eq!(sync_out, threaded_out, "executor choice must not change rankings");
    }

    #[test]
    fn sharded_plans_match_unsharded_plans() {
        let interner = TagInterner::new();
        let docs = workload(&interner);
        let run = |shards: usize, parallel: bool| {
            let cfg = EnBlogueConfig::builder()
                .window_ticks(4)
                .seed_count(4)
                .min_seed_count(1)
                .top_k(3)
                .shards(shards)
                .parallel_close(parallel)
                .build()
                .unwrap();
            let (_, handles) =
                PipelineBuilder::new(docs.clone(), TickSpec::hourly(), interner.clone())
                    .with_engine("e1", cfg)
                    .run()
                    .unwrap();
            let out = handles[0].lock().unwrap().clone();
            out
        };
        let baseline = run(1, false);
        assert_eq!(run(4, false), baseline);
        assert_eq!(run(16, true), baseline);
    }
}
