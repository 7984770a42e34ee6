//! # enblogue-ingest — shard-partitioned parallel ingestion
//!
//! The feed path of EnBlogue: documents arrive in batches, each batch is
//! tokenized into `(tick, packed pair)` co-occurrence observations exactly
//! once, the observations are bucketed by pair shard (the fixed hash
//! split [`enblogue_types::shard_of_packed`] the consuming registry uses),
//! and the buckets are applied to the sharded pair state with one worker
//! per shard. The subsystem has two layers:
//!
//! * [`partition`] — the pure pre-pass: [`partition::partition_docs`]
//!   turns a document slice into a [`partition::PartitionedBatch`] under a
//!   [`partition::PartitionSpec`]. No locks, no threads, no own state;
//!   the per-shard observation order is exactly the order a sequential
//!   feeder would have produced, which is what makes downstream
//!   application order-identical.
//! * [`pipeline`] — the driver: an [`pipeline::IngestPipeline`] splits a
//!   replay into per-tick batches (never spanning a boundary), pushes them
//!   through a bounded work queue to a partitioning worker pool
//!   (backpressure: feeding stalls when the queue is full, counted in
//!   [`pipeline::IngestStats`]), and re-sequences results so the consumer
//!   — any [`pipeline::IngestSink`] — applies batches and tick closes in
//!   deterministic submission order.
//!
//! Two event-time robustness primitives sit in front of that feed path
//! (both pure functions of the document stream, so every execution path
//! reaches byte-identical state; both exactly checkpointable):
//!
//! * [`reorder`] — the bounded watermark buffer: holds out-of-order
//!   arrivals per event tick, seals ticks `bounded_lateness` behind the
//!   maximum event tick seen, re-sequences late documents into their
//!   true tick, and drops anything beyond the bound.
//! * [`guard`] — per-source defenses: an exact-duplicate window keyed by
//!   `(source, doc)` and token-bucket flood caps, so one hostile feed
//!   degrades alone instead of hijacking the rankings.
//!
//! Parallel ingestion is a **pure execution knob**: for any batch size,
//! queue depth, worker count or shard count, the sink observes the exact
//! sequence of applications a sequential replay would perform, so rankings
//! stay byte-identical (pinned by `tests/stage_parity.rs` in the
//! workspace root). `enblogue-core` implements [`pipeline::IngestSink`]
//! for its stage pipeline, which is how the stand-alone engine inherits
//! the subsystem.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod guard;
pub mod partition;
pub mod pipeline;
pub mod reorder;

pub use guard::{GuardSnapshot, GuardVerdict, SourceGuard};
pub use partition::{partition_docs, PartitionSpec, PartitionedBatch};
pub use pipeline::{default_parallelism, IngestConfig, IngestPipeline, IngestSink, IngestStats};
pub use reorder::{PushOutcome, ReorderBuffer, ReorderSnapshot};
