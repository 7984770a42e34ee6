//! The immutable published snapshot: one closed tick, frozen.

use enblogue_core::pairs::TrackedPairInfo;
use enblogue_core::personalization::{PersonalizedRanking, UserProfile};
use enblogue_core::query::{PublishDetail, QueryView, ViewData};
use enblogue_types::{RankingSnapshot, TagId, TagPair, Tick};
use std::sync::Arc;

/// One epoch's published view: the ranking, seed set, per-pair stats
/// and resolved tag names of a closed tick, self-contained and
/// immutable.
///
/// Built by the publish stage at tick close (from
/// [`enblogue_core::stages::PipelineState::export_view`]) and handed
/// out as `Arc<TickView>` through
/// [`crate::QueryHandle::view`]. Because everything — including the
/// interner snapshot in [`ViewData::names`] — was captured at publish
/// time, answering queries touches no engine state and takes no locks;
/// a reader can hold a view for as long as it likes while ingest
/// publishes newer epochs past it.
#[derive(Debug, Default)]
pub struct TickView {
    pub(crate) data: ViewData,
}

impl TickView {
    /// The raw published payload.
    pub fn data(&self) -> &ViewData {
        &self.data
    }

    /// How much per-pair state this view carries.
    pub fn detail(&self) -> PublishDetail {
        self.data.detail
    }

    /// Number of pairs the per-pair stats cover.
    pub fn covered_pairs(&self) -> usize {
        self.data.covered_pairs()
    }
}

impl QueryView for TickView {
    fn epoch(&self) -> u64 {
        self.data.epoch
    }

    fn tick(&self) -> Option<Tick> {
        QueryView::tick(&self.data)
    }

    fn ranking(&self) -> Option<RankingSnapshot> {
        QueryView::ranking(&self.data)
    }

    fn seeds(&self) -> Vec<TagId> {
        QueryView::seeds(&self.data)
    }

    fn is_seed(&self, tag: TagId) -> bool {
        self.data.is_seed(tag)
    }

    fn pair_info(&self, pair: TagPair) -> Option<TrackedPairInfo> {
        self.data.pair_info(pair)
    }

    fn pair_history(&self, pair: TagPair) -> Option<Vec<f64>> {
        self.data.pair_history(pair)
    }

    fn tag_name(&self, tag: TagId) -> Option<Arc<str>> {
        self.data.tag_name(tag)
    }

    fn personalized(&self, profile: &UserProfile) -> Option<PersonalizedRanking> {
        self.data.personalized(profile)
    }

    fn top_k(&self, k: usize) -> Vec<(TagPair, f64)> {
        self.data.top_k(k)
    }

    fn pairs_with_tag(&self, tag: TagId) -> Vec<(TagPair, f64)> {
        self.data.pairs_with_tag(tag)
    }
}
