//! # EnBlogue — emergent topic detection in Web 2.0 streams
//!
//! A complete Rust implementation of the EnBlogue system (Alvanaki,
//! Michel, Ramamritham, Weikum — SIGMOD 2011): continuous monitoring of
//! document streams for *emergent topics*, i.e. sudden, unpredictable
//! shifts in the correlation of tag pairs — as opposed to mere single-tag
//! burstiness.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`types`] | `enblogue-types` | documents, tags, pairs, ticks, rankings |
//! | [`window`] | `enblogue-window` | sliding windows, sketches, decay, top-k |
//! | [`stats`] | `enblogue-stats` | correlation measures, divergences, predictors |
//! | [`telemetry`] | `enblogue-telemetry` | metrics registry, latency histograms, span tracing, exporters |
//! | [`ingest`] | `enblogue-ingest` | shard-partitioned, batched, backpressured ingestion |
//! | [`entity`] | `enblogue-entity` | gazetteer + ontology entity tagging |
//! | [`core`] | `enblogue-core` | the EnBlogue engine, personalization, the read API |
//! | [`serve`] | `enblogue-serve` | epoch-versioned read snapshots, lock-free concurrent query handle, per-user subscriptions |
//! | [`datagen`] | `enblogue-datagen` | synthetic NYT / Twitter / RSS workloads |
//! | [`baseline`] | `enblogue-baseline` | TwitterMonitor-style burst baseline |
//!
//! The [`prelude`] pulls in the names needed by typical applications; see
//! the `examples/` directory for runnable end-to-end scenarios
//! (`quickstart`, `historic_events`, `live_stream`, `personalization`,
//! `entity_tagging`, `engine_tuning`, `parallel_ingest`).
//!
//! # Architecture: one stage pipeline, many surfaces
//!
//! EnBlogue's systems contribution is *shared shift computation*: however
//! many personalization subscriptions are registered, the expensive
//! per-tick loop runs once. The workspace enforces that with a single
//! implementation of the tick semantics and thin adapters above it:
//!
//! ```text
//!     EnBlogueEngine                     IngestPipeline → ReplayIngest
//!     (process_doc[s] / close_tick /     (bounded queue → partition
//!      run_replay / offer_doc)            workers → re-sequenced apply)
//!           │                                    │
//!           └─────────────────┬──────────────────┘
//!                             ▼
//!        enblogue_core::stages::StagePipeline
//!   seed-select → term-window → pair-count → shift-score → rank-emit
//!        → serve-publish (QueryHandle / Subscription reads)
//!                        │
//!                        ▼
//!        ShardedPairRegistry (pool of hash-shard stores)
//!   key ──shard_of_packed──► store (fixed for the whole run)
//!   store 0 … store N−1: pair states + windowed pair counts
//!   ingest and close fan out over scoped threads, one chunk per core
//! ```
//!
//! Comparing rankings from several parameter settings over one stream
//! (§4.1) is "tag the documents once, then feed N engines": entity
//! tagging ([`entity::EntityTagger::tag_document`]) runs once per
//! document, and each engine replays the same tagged slice.
//!
//! **Which layer owns what:**
//!
//! * `enblogue-types` owns the shard *routing* contract: the fixed hash
//!   [`types::shard_of_packed`] that assigns each pair key its store;
//!   every layer that partitions pair state calls the same function.
//! * `enblogue-window` owns sharded *storage*
//!   ([`window::ShardedWindowedCounter`]): per-shard windowed pair counts,
//!   exact because each key lives in exactly one shard.
//! * `enblogue-stats` owns the scoring math; `stats::ShiftScorer` is
//!   statically asserted `Send + Sync` so one instance is shared by
//!   reference across shard workers.
//! * `enblogue-ingest` owns the *feed path*: the pure partitioning
//!   pre-pass ([`ingest::partition_docs`] buckets each batch's pair
//!   observations by shard) and the backpressured
//!   [`ingest::IngestPipeline`] (bounded work queue, partitioning worker
//!   pool, deterministic re-sequencing), plus
//!   [`ingest::default_parallelism`], the default of every execution
//!   knob. `enblogue-core` implements the sink side over the stage
//!   pipeline.
//! * `enblogue-core` owns the *semantics*: the five
//!   [`core::stages::TickStage`]s, the
//!   [`core::pairs::ShardedPairRegistry`] with its shard fan-out, and the
//!   two adapters ([`core::engine::EnBlogueEngine`],
//!   [`core::ingest::ReplayIngest`]).
//!   Personalization re-ranks the shared snapshot at delivery time — it
//!   never re-runs the pipeline. The [`core::query::QueryView`] trait is
//!   the one read API over closed-tick results: top-k, drill-down, pair
//!   stats/history, seeds, personalization.
//! * `enblogue-serve` owns the *concurrent read path*: an installed
//!   publish stage exports each closed tick into an immutable,
//!   epoch-versioned [`serve::TickView`] behind a lock-free cell;
//!   [`serve::QueryHandle`] clones answer `QueryView` queries from any
//!   number of threads while ingest continues, and per-user
//!   [`serve::Subscription`]s share each publish's engine pass — the one
//!   delivery path.
//!
//! Sharding (`EnBlogueConfig::shards`, which also decides whether apply
//! and close fan out) and the entire ingestion subsystem (batch size,
//! queue depth, worker count) are pure execution knobs:
//! rankings are byte-identical for any setting (enforced by
//! `tests/stage_parity.rs`). Batched ingestion
//! ([`core::engine::EnBlogueEngine::process_docs`], or
//! [`core::engine::EnBlogueEngine::run_replay_ingest`] for the fully
//! parallel path) is the hot entry point for replay drivers; defaults for
//! the execution knobs are derived from `available_parallelism`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use enblogue_baseline as baseline;
pub use enblogue_core as core;
pub use enblogue_datagen as datagen;
pub use enblogue_entity as entity;
pub use enblogue_ingest as ingest;
pub use enblogue_serve as serve;
pub use enblogue_stats as stats;
pub use enblogue_telemetry as telemetry;
pub use enblogue_types as types;
pub use enblogue_window as window;

/// The names most applications need.
pub mod prelude {
    pub use enblogue_core::config::{
        EnBlogueConfig, EventTimeConfig, MeasureKind, SeedStrategy, SnapshotConfig,
        SourceGuardConfig, TelemetryConfig,
    };
    pub use enblogue_core::engine::{EnBlogueEngine, EngineMetrics};
    pub use enblogue_core::ingest::ReplayIngest;
    pub use enblogue_core::pairs::{RegistryStats, ScoringMode, ShardedPairRegistry};
    pub use enblogue_core::personalization::{
        jaccard_at_k, personalize, personalize_shared, resolve_ranked_names, PersonalizedRanking,
        UserProfile,
    };
    pub use enblogue_core::query::{EngineQuery, PublishDetail, QueryView, ViewData};
    pub use enblogue_core::snapshot::{latest_checkpoint, list_checkpoints, SnapshotStats};
    pub use enblogue_core::stages::{StagePipeline, TickStage};
    pub use enblogue_entity::gazetteer::{Gazetteer, GazetteerBuilder};
    pub use enblogue_entity::ontology::{Ontology, OntologyBuilder};
    pub use enblogue_entity::tagger::EntityTagger;
    pub use enblogue_ingest::partition::{partition_docs, PartitionSpec, PartitionedBatch};
    pub use enblogue_ingest::pipeline::{IngestConfig, IngestPipeline, IngestSink, IngestStats};
    pub use enblogue_serve::{QueryHandle, ServeConfig, Subscription, TickView};
    pub use enblogue_stats::correlation::CorrelationMeasure;
    pub use enblogue_stats::predict::PredictorKind;
    pub use enblogue_stats::shift::ErrorNormalization;
    pub use enblogue_telemetry::{EventKind, Telemetry};
    pub use enblogue_types::{
        Document, RankingSnapshot, SourceId, TagId, TagInterner, TagKind, TagPair, Tick, TickSpec,
        Timestamp,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_reaches_everything() {
        use crate::prelude::*;
        let interner = TagInterner::new();
        let _ = interner.intern("smoke", TagKind::Hashtag);
        let config = EnBlogueConfig::builder().build().unwrap();
        let _ = EnBlogueEngine::new(config);
    }
}
