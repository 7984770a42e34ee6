//! Personalization: continuous keyword queries and category preferences.
//!
//! §1: "EnBlogue consists also of a personalization component that allows
//! users to register continuous keyword queries or to choose pre-selected
//! topic categories to influence the nature of the emergent topics
//! presented." Show Case 3 demonstrates that different profiles see
//! "completely different or just differently ordered emergent topics".
//!
//! The model: a profile boosts the global emergence score of a topic by
//! its *relevance* — keyword matches against the pair's tag names and
//! membership in preferred categories. With `filter_only`, non-matching
//! topics are removed instead of down-ranked (a strict continuous query).
//!
//! Personalization deliberately sits *behind* the shared stage pipeline:
//! `N` subscriptions are `N` cheap re-rankings of the **same**
//! [`RankingSnapshot`], applied at delivery time (the serving tier's
//! per-user subscriptions). Windowing, pair tracking and shift scoring — the
//! expensive part — run exactly once per tick in the shared
//! [`crate::stages::StagePipeline`] regardless of subscriber count; this
//! is the paper's "shared shift computation" carried to the user-facing
//! layer.

use enblogue_types::{EnBlogueError, RankingSnapshot, TagId, TagInterner, TagPair};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A user's interest profile.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UserProfile {
    /// Stable user identifier.
    pub user_id: String,
    /// Weighted keywords of the continuous query ("term based descriptions
    /// of their field of interest"). Weights are relative; 1.0 is typical.
    pub keywords: Vec<(String, f64)>,
    /// Preferred pre-defined topic categories (interned tag ids).
    pub categories: Vec<TagId>,
    /// Boost strength: personalised score = score × (1 + alpha × relevance).
    pub alpha: f64,
    /// Strict mode: drop topics with zero relevance instead of re-scoring.
    pub filter_only: bool,
}

impl UserProfile {
    /// A neutral profile (no keywords, no categories).
    pub fn new(user_id: impl Into<String>) -> Self {
        UserProfile {
            user_id: user_id.into(),
            keywords: Vec::new(),
            categories: Vec::new(),
            alpha: 1.0,
            filter_only: false,
        }
    }

    /// Adds a keyword with weight 1.
    #[must_use]
    pub fn with_keyword(mut self, keyword: impl Into<String>) -> Self {
        self.keywords.push((keyword.into().to_lowercase(), 1.0));
        self
    }

    /// Adds a weighted keyword, silently clamping the weight into the
    /// valid range (`weight.max(0.0)`, non-finite → 0). Use
    /// [`UserProfile::try_with_weighted_keyword`] when an invalid weight
    /// should be an error instead.
    #[must_use]
    pub fn with_weighted_keyword(mut self, keyword: impl Into<String>, weight: f64) -> Self {
        let weight = if weight.is_finite() { weight.max(0.0) } else { 0.0 };
        self.keywords.push((keyword.into().to_lowercase(), weight));
        self
    }

    /// Adds a weighted keyword, rejecting empty keywords and negative or
    /// non-finite weights.
    pub fn try_with_weighted_keyword(
        mut self,
        keyword: impl Into<String>,
        weight: f64,
    ) -> Result<Self, EnBlogueError> {
        let keyword = keyword.into();
        if keyword.trim().is_empty() {
            return Err(EnBlogueError::invalid_config("keyword", "keyword must be non-empty"));
        }
        if !weight.is_finite() || weight < 0.0 {
            return Err(EnBlogueError::invalid_config(
                "keyword_weight",
                format!("weight must be finite and >= 0, got {weight}"),
            ));
        }
        self.keywords.push((keyword.to_lowercase(), weight));
        Ok(self)
    }

    /// Adds a preferred category.
    #[must_use]
    pub fn with_category(mut self, category: TagId) -> Self {
        self.categories.push(category);
        self
    }

    /// Sets the boost strength, silently clamping into the valid range
    /// (`alpha.max(0.0)`, non-finite → 0). Use
    /// [`UserProfile::try_with_alpha`] when an invalid alpha should be an
    /// error instead.
    #[must_use]
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = if alpha.is_finite() { alpha.max(0.0) } else { 0.0 };
        self
    }

    /// Sets the boost strength, rejecting negative or non-finite values.
    pub fn try_with_alpha(mut self, alpha: f64) -> Result<Self, EnBlogueError> {
        if !alpha.is_finite() || alpha < 0.0 {
            return Err(EnBlogueError::invalid_config(
                "alpha",
                format!("alpha must be finite and >= 0, got {alpha}"),
            ));
        }
        self.alpha = alpha;
        Ok(self)
    }

    /// Enables strict filtering.
    #[must_use]
    pub fn filter_only(mut self) -> Self {
        self.filter_only = true;
        self
    }

    /// Relevance of one tag to this profile, given its resolved name
    /// (keyword + category parts). This is the *only* implementation of
    /// the relevance rule: the interner path and the pre-resolved serving
    /// path both funnel here.
    fn tag_relevance_named(&self, tag: TagId, name: Option<&str>) -> f64 {
        let mut relevance = 0.0;
        if self.categories.contains(&tag) {
            relevance += 1.0;
        }
        if !self.keywords.is_empty() {
            if let Some(name) = name {
                for (keyword, weight) in &self.keywords {
                    if name == keyword {
                        relevance += weight; // exact name match
                    } else if name.contains(keyword.as_str()) {
                        relevance += 0.5 * weight; // substring match
                    }
                }
            }
        }
        relevance
    }

    /// Relevance of a topic (pair) to this profile: the sum over members.
    pub fn relevance(&self, pair: TagPair, interner: &TagInterner) -> f64 {
        let lo = interner.name(pair.lo());
        let hi = interner.name(pair.hi());
        self.tag_relevance_named(pair.lo(), lo.as_deref())
            + self.tag_relevance_named(pair.hi(), hi.as_deref())
    }

    /// [`UserProfile::relevance`] against a pre-resolved, tag-sorted name
    /// table (see [`resolve_ranked_names`]) instead of a live interner.
    pub fn relevance_resolved(&self, pair: TagPair, names: &[(TagId, Arc<str>)]) -> f64 {
        self.tag_relevance_named(pair.lo(), lookup_name(names, pair.lo()))
            + self.tag_relevance_named(pair.hi(), lookup_name(names, pair.hi()))
    }
}

fn lookup_name(names: &[(TagId, Arc<str>)], tag: TagId) -> Option<&str> {
    names.binary_search_by_key(&tag, |&(t, _)| t).ok().map(|i| names[i].1.as_ref())
}

/// A personalised view of a global ranking.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PersonalizedRanking {
    /// The user this view belongs to.
    pub user_id: String,
    /// `(pair, personalised score)`, best first.
    pub ranked: Vec<(TagPair, f64)>,
}

impl PersonalizedRanking {
    /// Rank position (0-based) of `pair`, if present.
    pub fn rank_of(&self, pair: TagPair) -> Option<usize> {
        self.ranked.iter().position(|&(p, _)| p == pair)
    }
}

/// Resolves the names of the distinct member tags of a snapshot's ranked
/// pairs into `out`, sorted by [`TagId`] (tags the lookup cannot name are
/// skipped — they can never match a keyword).
///
/// This is the shared half of the relevance pass: resolve once per
/// snapshot, then re-rank any number of profiles against the same table
/// with [`personalize_shared`]. The serving tier does exactly this at
/// publish time so personalized queries never touch the interner lock.
/// `out` is cleared first and reused (no allocation once its capacity is
/// warm).
pub fn resolve_ranked_names_into(
    snapshot: &RankingSnapshot,
    out: &mut Vec<(TagId, Arc<str>)>,
    mut lookup: impl FnMut(TagId) -> Option<Arc<str>>,
) {
    out.clear();
    for tag in snapshot.member_tags() {
        if out.iter().any(|&(t, _)| t == tag) {
            continue;
        }
        // Unnamed tags stay out of the table: absence means "no name",
        // exactly as a live interner lookup would answer.
        if let Some(name) = lookup(tag) {
            out.push((tag, name));
        }
    }
    out.sort_unstable_by_key(|&(t, _)| t);
}

/// [`resolve_ranked_names_into`] into a fresh table.
pub fn resolve_ranked_names(
    snapshot: &RankingSnapshot,
    lookup: impl FnMut(TagId) -> Option<Arc<str>>,
) -> Vec<(TagId, Arc<str>)> {
    let mut out = Vec::new();
    resolve_ranked_names_into(snapshot, &mut out, lookup);
    out
}

/// Applies `profile` to a global snapshot.
///
/// Scores become `score × (1 + alpha × relevance)`; with `filter_only`,
/// zero-relevance topics are dropped instead. Ties keep the global order
/// (stable sort), so a neutral profile reproduces the global ranking
/// exactly.
///
/// This resolves the ranked tags' names and delegates to
/// [`personalize_shared`] — callers re-ranking many profiles against one
/// snapshot (serving-tier subscriptions) should resolve
/// once and share the table.
pub fn personalize(
    snapshot: &RankingSnapshot,
    profile: &UserProfile,
    interner: &TagInterner,
) -> PersonalizedRanking {
    let names = resolve_ranked_names(snapshot, |t| interner.name(t));
    personalize_shared(snapshot, profile, &names)
}

/// [`personalize`] against a pre-resolved name table (see
/// [`resolve_ranked_names`]). The single implementation of the
/// re-ranking rule; byte-identical to [`personalize`] when `names` was
/// resolved from the same interner.
pub fn personalize_shared(
    snapshot: &RankingSnapshot,
    profile: &UserProfile,
    names: &[(TagId, Arc<str>)],
) -> PersonalizedRanking {
    let mut ranked: Vec<(TagPair, f64)> = Vec::with_capacity(snapshot.ranked.len());
    for &(pair, score) in &snapshot.ranked {
        let relevance = profile.relevance_resolved(pair, names);
        if profile.filter_only {
            if relevance > 0.0 {
                ranked.push((pair, score * (1.0 + profile.alpha * relevance)));
            }
        } else {
            ranked.push((pair, score * (1.0 + profile.alpha * relevance)));
        }
    }
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite scores"));
    PersonalizedRanking { user_id: profile.user_id.clone(), ranked }
}

/// Rank-overlap diagnostics between two personalised rankings (Show Case 3
/// reports how different two users' views are).
pub fn jaccard_at_k(a: &PersonalizedRanking, b: &PersonalizedRanking, k: usize) -> f64 {
    let ka: std::collections::HashSet<TagPair> = a.ranked.iter().take(k).map(|&(p, _)| p).collect();
    let kb: std::collections::HashSet<TagPair> = b.ranked.iter().take(k).map(|&(p, _)| p).collect();
    if ka.is_empty() && kb.is_empty() {
        return 1.0;
    }
    let inter = ka.intersection(&kb).count() as f64;
    let union = ka.union(&kb).count() as f64;
    inter / union
}

#[cfg(test)]
mod tests {
    use super::*;
    use enblogue_types::{TagKind, Tick, Timestamp};

    fn snapshot(ranked: Vec<(TagPair, f64)>) -> RankingSnapshot {
        RankingSnapshot { tick: Tick(1), time: Timestamp::from_hours(1), ranked }
    }

    fn setup() -> (TagInterner, TagId, TagId, TagId, TagId) {
        let interner = TagInterner::new();
        let sports = interner.intern("sports", TagKind::Category);
        let politics = interner.intern("politics", TagKind::Category);
        let playoffs = interner.intern("playoffs", TagKind::Descriptor);
        let election = interner.intern("election night", TagKind::Descriptor);
        (interner, sports, politics, playoffs, election)
    }

    #[test]
    fn neutral_profile_preserves_global_order() {
        let (interner, sports, politics, playoffs, election) = setup();
        let snap = snapshot(vec![
            (TagPair::new(sports, playoffs), 0.9),
            (TagPair::new(politics, election), 0.8),
        ]);
        let neutral = UserProfile::new("u0");
        let view = personalize(&snap, &neutral, &interner);
        assert_eq!(view.ranked[0].0, TagPair::new(sports, playoffs));
        assert_eq!(view.ranked[1].0, TagPair::new(politics, election));
        assert_eq!(view.ranked[0].1, 0.9, "no boost without interests");
    }

    #[test]
    fn category_preference_reorders() {
        let (interner, sports, politics, playoffs, election) = setup();
        let snap = snapshot(vec![
            (TagPair::new(sports, playoffs), 0.9),
            (TagPair::new(politics, election), 0.8),
        ]);
        let wonk = UserProfile::new("wonk").with_category(politics).with_alpha(2.0);
        let view = personalize(&snap, &wonk, &interner);
        assert_eq!(view.ranked[0].0, TagPair::new(politics, election), "preferred category wins");
        assert!(view.ranked[0].1 > 0.8);
    }

    #[test]
    fn keyword_queries_match_names_and_substrings() {
        let (interner, sports, politics, playoffs, election) = setup();
        let profile = UserProfile::new("fan").with_keyword("playoffs").with_keyword("election");
        // Exact name match on "playoffs": weight 1.0.
        assert!(profile.relevance(TagPair::new(sports, playoffs), &interner) >= 1.0);
        // Substring match on "election night": half weight.
        let sub = profile.relevance(TagPair::new(politics, election), &interner);
        assert!(sub > 0.0 && sub < 1.0);
    }

    #[test]
    fn filter_only_drops_irrelevant_topics() {
        let (interner, sports, politics, playoffs, election) = setup();
        let snap = snapshot(vec![
            (TagPair::new(sports, playoffs), 0.9),
            (TagPair::new(politics, election), 0.8),
        ]);
        let strict = UserProfile::new("strict").with_category(politics).filter_only();
        let view = personalize(&snap, &strict, &interner);
        assert_eq!(view.ranked.len(), 1);
        assert_eq!(view.ranked[0].0, TagPair::new(politics, election));
    }

    #[test]
    fn two_profiles_see_different_rankings() {
        let (interner, sports, politics, playoffs, election) = setup();
        let snap = snapshot(vec![
            (TagPair::new(sports, playoffs), 0.85),
            (TagPair::new(politics, election), 0.84),
        ]);
        let fan = UserProfile::new("fan").with_category(sports).with_alpha(1.0);
        let wonk = UserProfile::new("wonk").with_category(politics).with_alpha(1.0);
        let fan_view = personalize(&snap, &fan, &interner);
        let wonk_view = personalize(&snap, &wonk, &interner);
        assert_ne!(fan_view.ranked[0].0, wonk_view.ranked[0].0);
        assert_eq!(jaccard_at_k(&fan_view, &wonk_view, 1), 0.0);
        assert_eq!(jaccard_at_k(&fan_view, &wonk_view, 2), 1.0, "same topics, different order");
    }

    #[test]
    fn jaccard_of_empty_rankings_is_one() {
        let a = PersonalizedRanking { user_id: "a".into(), ranked: vec![] };
        let b = PersonalizedRanking { user_id: "b".into(), ranked: vec![] };
        assert_eq!(jaccard_at_k(&a, &b, 5), 1.0);
    }

    #[test]
    fn weighted_keywords_scale_relevance() {
        let (interner, sports, _, playoffs, _) = setup();
        let light = UserProfile::new("l").with_weighted_keyword("playoffs", 0.5);
        let heavy = UserProfile::new("h").with_weighted_keyword("playoffs", 3.0);
        let pair = TagPair::new(sports, playoffs);
        assert!(heavy.relevance(pair, &interner) > light.relevance(pair, &interner));
    }

    #[test]
    fn plain_builders_clamp_silently() {
        assert_eq!(UserProfile::new("x").with_alpha(-1.0).alpha, 0.0);
        assert_eq!(UserProfile::new("x").with_alpha(f64::NAN).alpha, 0.0);
        assert_eq!(UserProfile::new("x").with_alpha(2.5).alpha, 2.5);
        let p = UserProfile::new("x").with_weighted_keyword("k", -3.0);
        assert_eq!(p.keywords[0].1, 0.0);
        let p = UserProfile::new("x").with_weighted_keyword("k", f64::INFINITY);
        assert_eq!(p.keywords[0].1, 0.0);
    }

    #[test]
    fn try_builders_reject_invalid_inputs() {
        assert!(UserProfile::new("x").try_with_alpha(-1.0).is_err());
        assert!(UserProfile::new("x").try_with_alpha(f64::NAN).is_err());
        assert_eq!(UserProfile::new("x").try_with_alpha(2.5).unwrap().alpha, 2.5);
        assert!(UserProfile::new("x").try_with_weighted_keyword("", 1.0).is_err());
        assert!(UserProfile::new("x").try_with_weighted_keyword("k", -0.5).is_err());
        assert!(UserProfile::new("x").try_with_weighted_keyword("k", f64::NAN).is_err());
        let p = UserProfile::new("x").try_with_weighted_keyword("K", 2.0).unwrap();
        assert_eq!(p.keywords[0], ("k".to_string(), 2.0));
    }

    #[test]
    fn shared_pass_matches_interner_path() {
        let (interner, sports, politics, playoffs, election) = setup();
        let snap = snapshot(vec![
            (TagPair::new(sports, playoffs), 0.9),
            (TagPair::new(politics, election), 0.8),
        ]);
        let names = resolve_ranked_names(&snap, |t| interner.name(t));
        for profile in [
            UserProfile::new("a").with_keyword("playoffs").with_alpha(2.0),
            UserProfile::new("b").with_category(politics).filter_only(),
            UserProfile::new("c").with_weighted_keyword("election", 3.0),
        ] {
            let via_interner = personalize(&snap, &profile, &interner);
            let via_table = personalize_shared(&snap, &profile, &names);
            assert_eq!(via_interner, via_table, "user {}", profile.user_id);
            for &(pair, _) in &snap.ranked {
                assert_eq!(
                    profile.relevance(pair, &interner),
                    profile.relevance_resolved(pair, &names)
                );
            }
        }
    }
}
