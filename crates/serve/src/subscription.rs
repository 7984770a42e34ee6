//! Persistent per-user subscriptions over the serving tier.

use crate::tier::QueryHandle;
use enblogue_core::personalization::{PersonalizedRanking, UserProfile};
use enblogue_core::query::QueryView;

/// A persistent personalized subscription: one user's profile bound to
/// a [`QueryHandle`].
///
/// The multi-tenant contract: the expensive per-snapshot work — the
/// engine pass that produced the ranking, and the name-resolution pass
/// over its member tags — happens **once per publish**, inside the
/// engine and the publish stage. A subscription only re-ranks the
/// shared snapshot against its profile at read time
/// (`personalize_shared` over the view's captured name table), so
/// thousands of subscriptions cost thousands of cheap re-rank loops,
/// never thousands of engine passes or interner scans.
///
/// This is the one per-user delivery path (the in-process stand-in for
/// the demo's Ajax Push Engine front-end, §4.2).
/// [`Subscription::poll`] is edge-triggered (delivers each epoch at
/// most once);
/// [`Subscription::current`] is level-triggered (always answers from
/// the latest view).
#[derive(Clone)]
pub struct Subscription {
    handle: QueryHandle,
    profile: UserProfile,
    top_k: Option<usize>,
    last_epoch: u64,
}

impl Subscription {
    pub(crate) fn new(handle: QueryHandle, profile: UserProfile) -> Self {
        Subscription { handle, profile, top_k: None, last_epoch: 0 }
    }

    /// Truncates every delivery to the best `k` topics.
    #[must_use]
    pub fn with_top_k(mut self, k: usize) -> Self {
        self.top_k = Some(k);
        self
    }

    /// The profile rankings are personalized for.
    pub fn profile(&self) -> &UserProfile {
        &self.profile
    }

    /// The handle this subscription reads through.
    pub fn handle(&self) -> &QueryHandle {
        &self.handle
    }

    /// The last epoch [`Subscription::poll`] delivered (0 = none yet).
    pub fn last_epoch(&self) -> u64 {
        self.last_epoch
    }

    /// The personalized ranking of the latest published view, every
    /// time it is asked (`None` before the first publish).
    pub fn current(&self) -> Option<PersonalizedRanking> {
        let view = self.handle.view()?;
        let mut ranking = view.personalized(&self.profile)?;
        if let Some(k) = self.top_k {
            ranking.ranked.truncate(k);
        }
        Some(ranking)
    }

    /// Delivers `(epoch, personalized ranking)` if a new epoch was
    /// published since the last delivery, else `None`. Never blocks.
    pub fn poll(&mut self) -> Option<(u64, PersonalizedRanking)> {
        let view = self.handle.view()?;
        let epoch = QueryView::epoch(&*view);
        if epoch == self.last_epoch {
            return None;
        }
        let mut ranking = view.personalized(&self.profile)?;
        if let Some(k) = self.top_k {
            ranking.ranked.truncate(k);
        }
        self.last_epoch = epoch;
        Some((epoch, ranking))
    }
}
