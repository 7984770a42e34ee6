//! The EnBlogue engine: emergent topic detection in Web 2.0 streams.
//!
//! This crate implements the paper's three-stage framework (§3) on top of
//! the substrates in the sibling crates:
//!
//! 1. **Seed tag selection** ([`seeds`]) — popular (or volatile) tags
//!    chosen by sliding-window statistics; candidate topics are tag pairs
//!    containing at least one seed.
//! 2. **Correlation tracking** ([`pairs`], [`termwin`]) — windowed
//!    co-occurrence counts per candidate pair, mapped to a correlation
//!    value by a set-overlap measure or the relative-entropy variant.
//! 3. **Shift detection** ([`pairs`], `enblogue_stats::shift`) — one-step
//!    prediction errors scored through the decayed-max rule with the
//!    paper's ≈2-day half-life; topics ranked, top-k reported.
//!
//! All tick semantics live in **one** place — the [`stages`] module's
//! [`stages::TickStage`] pipeline — and every execution surface is a thin
//! adapter over it:
//!
//! * [`stages`] — the five-phase [`stages::StagePipeline`] with
//!   hash-sharded pair state ([`pairs::ShardedPairRegistry`]) and a
//!   shard-parallel apply and tick close once the work is large enough,
//! * [`engine::EnBlogueEngine`] — the stand-alone engine (feed documents,
//!   close ticks, collect [`RankingSnapshot`]s),
//! * [`ingest::ReplayIngest`] — the sink of `enblogue-ingest`'s parallel
//!   ingestion pipeline,
//! * [`personalization`] — per-user continuous keyword queries and category
//!   preferences re-ranking the topics (§5, Show Case 3),
//! * [`query`] — the unified [`query::QueryView`] read surface shared by
//!   the in-place engine view and the concurrent serving tier
//!   (`enblogue-serve`, whose per-user subscriptions are the push path
//!   standing in for the Ajax Push Engine front-end, §4.2).
//!
//! Comparing rankings from several parameter settings over one stream
//! (§4.1) needs no extra machinery: prepare the documents once — entity
//! tagging included — and feed the same slice to one engine per setting.
//!
//! # Quickstart
//!
//! ```
//! use enblogue_core::config::EnBlogueConfig;
//! use enblogue_core::engine::EnBlogueEngine;
//! use enblogue_types::{Document, TagInterner, TagKind, TickSpec, Timestamp};
//!
//! let interner = TagInterner::new();
//! let volcano = interner.intern("volcano", TagKind::Hashtag);
//! let iceland = interner.intern("iceland", TagKind::Hashtag);
//!
//! let config = EnBlogueConfig::builder()
//!     .tick_spec(TickSpec::hourly())
//!     .window_ticks(6)
//!     .seed_count(10)
//!     .top_k(5)
//!     .build()
//!     .unwrap();
//! let mut engine = EnBlogueEngine::new(config);
//!
//! // Feed a stream: a few hours of background, then a correlated burst.
//! let mut id = 0;
//! for hour in 0..12u64 {
//!     for _ in 0..20 {
//!         id += 1;
//!         let mut doc = Document::builder(id, Timestamp::from_hours(hour)).tag(volcano).build();
//!         if hour >= 9 {
//!             doc.tags.push(iceland);
//!             doc.normalize();
//!         }
//!         engine.process_doc(&doc);
//!     }
//!     engine.close_tick(enblogue_types::Tick(hour));
//! }
//! let ranking = engine.pipeline().latest_snapshot().unwrap();
//! assert!(!ranking.ranked.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod engine;
mod exec;
pub mod ingest;
pub mod pairs;
pub mod personalization;
pub mod query;
pub mod seeds;
pub mod slab;
pub mod snapshot;
pub mod stages;
pub mod termwin;

pub use config::{
    EnBlogueConfig, EventTimeConfig, MeasureKind, SeedStrategy, SnapshotConfig, SourceGuardConfig,
};
pub use enblogue_types::RankingSnapshot;
pub use engine::EnBlogueEngine;
pub use ingest::ReplayIngest;
pub use pairs::{RegistryStats, ScoringMode, ShardedPairRegistry};
pub use personalization::{PersonalizedRanking, UserProfile};
pub use query::{EngineQuery, PublishDetail, QueryView, ViewData};
pub use snapshot::{latest_checkpoint, list_checkpoints, SnapshotStats, SNAPSHOT_VERSION};
pub use stages::{EngineMetrics, StagePipeline, TickStage};
