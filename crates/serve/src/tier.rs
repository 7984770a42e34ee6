//! The serving tier: publish stage, shared cell, and the concurrent
//! query handle.

use crate::cell::ViewCell;
use crate::subscription::Subscription;
use crate::view::TickView;
use enblogue_core::engine::EnBlogueEngine;
use enblogue_core::pairs::TrackedPairInfo;
use enblogue_core::personalization::{PersonalizedRanking, UserProfile};
use enblogue_core::query::{PublishDetail, QueryView};
use enblogue_core::stages::{PipelineState, StagePipeline, TickStage};
use enblogue_telemetry::{Counter, EventKind, Gauge, Histogram, Telemetry};
use enblogue_types::{RankingSnapshot, TagId, TagInterner, TagPair, Tick, Timestamp};
use std::sync::Arc;

/// Serving-tier configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// How much per-pair state each published view carries. The default
    /// ([`PublishDetail::Ranked`]) keeps publish cost O(top-k);
    /// [`PublishDetail::Full`] buys whole-population `pair_info` /
    /// `pair_history` parity at O(tracked pairs) per publish.
    pub detail: PublishDetail,
    /// How many retired views the publisher keeps for reuse. Two is
    /// enough for the steady state (one live, one being refilled);
    /// raise it if long-lived readers frequently pin old epochs.
    pub pool: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { detail: PublishDetail::Ranked, pool: 2 }
    }
}

impl ServeConfig {
    /// Sets the publish detail level.
    #[must_use]
    pub fn with_detail(mut self, detail: PublishDetail) -> Self {
        self.detail = detail;
        self
    }

    /// Sets the retired-view pool size.
    #[must_use]
    pub fn with_pool(mut self, pool: usize) -> Self {
        self.pool = pool;
        self
    }
}

/// State shared between the publish stage and every query handle.
pub(crate) struct ServeShared {
    pub(crate) cell: ViewCell<TickView>,
    /// `serve.queries`: one count per answered query. Lock-free
    /// (relaxed atomic), so the read path stays uncontended.
    pub(crate) queries: Counter,
}

/// The tick stage that publishes views. Installed by
/// [`QueryHandle::attach`]; runs after the built-in rank-emit stage, so
/// it exports exactly the state the engine's own accessors answer from.
pub struct PublishStage {
    shared: Arc<ServeShared>,
    interner: TagInterner,
    detail: PublishDetail,
    /// Retired views awaiting reuse. A view re-enters service only when
    /// no reader still holds it (`Arc::strong_count == 1`), at which
    /// point `export_view` refills its columns in place — a warm
    /// publish allocates nothing (pinned by `close_allocs.rs`).
    pool: Vec<Arc<TickView>>,
    pool_cap: usize,
    epoch: u64,
    publish_ns: Histogram,
    epoch_gauge: Gauge,
}

impl TickStage for PublishStage {
    fn name(&self) -> &'static str {
        "serve-publish"
    }

    fn on_close(&mut self, state: &mut PipelineState, tick: Tick, _now: Timestamp) {
        let span = self.publish_ns.start_span();
        self.epoch += 1;
        let mut view = match self.pool.iter().position(|v| Arc::strong_count(v) == 1) {
            Some(i) => self.pool.swap_remove(i),
            None => Arc::new(TickView::default()),
        };
        let fresh = Arc::get_mut(&mut view).expect("pooled view is exclusively owned");
        state.export_view(self.detail, &mut fresh.data);
        fresh.data.epoch = self.epoch;
        let interner = &self.interner;
        fresh.data.resolve_names(|t| interner.name(t));
        let ranked = fresh.data.ranking.as_ref().map_or(0, |s| s.ranked.len());
        if let Some(old) = self.shared.cell.publish(view, self.epoch) {
            if self.pool.len() < self.pool_cap {
                self.pool.push(old);
            }
        }
        self.epoch_gauge.set(self.epoch as i64);
        state.telemetry().journal().record(
            EventKind::ViewPublish,
            tick.0,
            self.epoch,
            ranked as u64,
        );
        span.finish();
    }
}

/// The concurrent query endpoint over the published views.
///
/// Cheap to clone, `Send + Sync`; hand one to every serving thread.
/// All reads answer from the most recently published [`TickView`]
/// through the lock-free cell — no mutex or rwlock is acquired on any
/// query path, and readers never block (or are blocked by) the
/// ingest/close thread. Implements [`QueryView`], the same API the
/// engine's in-place view exposes; `tests/serve_parity.rs` pins the two
/// byte-identical.
#[derive(Clone)]
pub struct QueryHandle {
    shared: Arc<ServeShared>,
}

impl QueryHandle {
    /// Attaches a serving tier to `engine`: installs the publish stage
    /// (so every subsequent tick close publishes a view) and returns
    /// the handle. `interner` must be the interner the documents are
    /// tagged with — names are resolved through it *at publish time*,
    /// so queries never touch it.
    pub fn attach(engine: &mut EnBlogueEngine, interner: TagInterner, config: ServeConfig) -> Self {
        let (handle, stage) = Self::build(engine.telemetry(), interner, config);
        engine.push_stage(Box::new(stage));
        handle
    }

    /// [`QueryHandle::attach`] for a bare [`StagePipeline`] (the ingest
    /// surface).
    pub fn attach_pipeline(
        pipeline: &mut StagePipeline,
        interner: TagInterner,
        config: ServeConfig,
    ) -> Self {
        let (handle, stage) = Self::build(pipeline.telemetry(), interner, config);
        pipeline.push_stage(Box::new(stage));
        handle
    }

    fn build(
        telemetry: &Telemetry,
        interner: TagInterner,
        config: ServeConfig,
    ) -> (Self, PublishStage) {
        let registry = telemetry.registry();
        let shared = Arc::new(ServeShared {
            cell: ViewCell::new(),
            queries: registry.counter("serve.queries"),
        });
        let stage = PublishStage {
            shared: Arc::clone(&shared),
            interner,
            detail: config.detail,
            pool: Vec::new(),
            pool_cap: config.pool.max(1),
            epoch: 0,
            publish_ns: registry.histogram("serve.publish.ns"),
            epoch_gauge: registry.gauge("serve.epoch"),
        };
        (QueryHandle { shared }, stage)
    }

    /// The current published view (`None` before the first tick close).
    /// The returned `Arc` stays valid however many epochs are published
    /// past it.
    pub fn view(&self) -> Option<Arc<TickView>> {
        self.shared.queries.inc();
        self.shared.cell.load()
    }

    /// Registers a persistent per-user subscription over this handle.
    pub fn subscribe(&self, profile: UserProfile) -> Subscription {
        Subscription::new(self.clone(), profile)
    }
}

impl QueryView for QueryHandle {
    fn epoch(&self) -> u64 {
        self.shared.cell.epoch()
    }

    fn tick(&self) -> Option<Tick> {
        self.view().and_then(|v| QueryView::tick(&*v))
    }

    fn ranking(&self) -> Option<RankingSnapshot> {
        self.view().and_then(|v| QueryView::ranking(&*v))
    }

    fn seeds(&self) -> Vec<TagId> {
        self.view().map(|v| QueryView::seeds(&*v)).unwrap_or_default()
    }

    fn is_seed(&self, tag: TagId) -> bool {
        self.view().is_some_and(|v| v.is_seed(tag))
    }

    fn pair_info(&self, pair: TagPair) -> Option<TrackedPairInfo> {
        self.view().and_then(|v| v.pair_info(pair))
    }

    fn pair_history(&self, pair: TagPair) -> Option<Vec<f64>> {
        self.view().and_then(|v| v.pair_history(pair))
    }

    fn tag_name(&self, tag: TagId) -> Option<Arc<str>> {
        self.view().and_then(|v| v.tag_name(tag))
    }

    fn personalized(&self, profile: &UserProfile) -> Option<PersonalizedRanking> {
        self.view().and_then(|v| v.personalized(profile))
    }

    fn top_k(&self, k: usize) -> Vec<(TagPair, f64)> {
        self.view().map(|v| v.top_k(k)).unwrap_or_default()
    }

    fn pairs_with_tag(&self, tag: TagId) -> Vec<(TagPair, f64)> {
        self.view().map(|v| v.pairs_with_tag(tag)).unwrap_or_default()
    }
}
