//! Themed RSS feed generators.
//!
//! The paper's engine "includes a set of wrappers to consume data from
//! Twitter and several RSS feeds from blogs and online newspapers". Each
//! synthetic feed is *themed*: it draws tags from its own biased slice of
//! the vocabulary (a sports blog mostly emits sports tags), at a moderate
//! per-hour rate. To merge feeds into one stream, concatenate them in feed
//! order and stable-sort by timestamp (ties keep feed order).

use crate::vocab::Vocabulary;
use crate::zipf::Zipf;
use enblogue_types::{Document, TagId, TagInterner, TagKind, Timestamp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for a bundle of themed feeds.
#[derive(Debug, Clone)]
pub struct RssConfig {
    /// Master seed.
    pub seed: u64,
    /// Number of feeds.
    pub feeds: usize,
    /// Stream length in hours.
    pub hours: u64,
    /// Items per feed per hour.
    pub items_per_hour: u64,
    /// Shared tag vocabulary size.
    pub n_tags: usize,
    /// Fraction of each feed's tags drawn from its own theme slice
    /// (the rest from the global vocabulary).
    pub theme_bias: f64,
}

impl Default for RssConfig {
    fn default() -> Self {
        RssConfig {
            seed: 0x0_55,
            feeds: 4,
            hours: 72,
            items_per_hour: 12,
            n_tags: 300,
            theme_bias: 0.7,
        }
    }
}

/// One generated feed.
pub struct RssFeed {
    /// Feed name ("feed-0" …).
    pub name: String,
    /// Items sorted by timestamp.
    pub docs: Vec<Document>,
    /// The theme slice of the vocabulary this feed is biased towards.
    pub theme_tags: Vec<TagId>,
}

/// Generates `config.feeds` themed feeds over one shared vocabulary.
///
/// Returns the feeds plus the shared interner and vocabulary. Documents
/// have globally unique ids across feeds.
pub fn generate_feeds(config: &RssConfig) -> (Vec<RssFeed>, TagInterner, Vocabulary) {
    assert!(config.feeds > 0, "need at least one feed");
    assert!((0.0..=1.0).contains(&config.theme_bias), "bias must be a fraction");
    assert!(config.n_tags >= config.feeds * 4, "vocabulary too small to slice into themes");
    let interner = TagInterner::new();
    let vocab =
        Vocabulary::generate(&interner, TagKind::Category, config.n_tags, config.seed ^ 0x2555);
    let slice = config.n_tags / config.feeds;

    let global_zipf = Zipf::new(config.n_tags, 1.0);
    let theme_zipf = Zipf::new(slice, 0.8);

    let mut feeds = Vec::with_capacity(config.feeds);
    let mut next_id: u64 = 1;
    for f in 0..config.feeds {
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(f as u64 * 0x9E37));
        let theme_tags: Vec<TagId> = (f * slice..(f + 1) * slice).map(|r| vocab.id(r)).collect();
        let mut docs = Vec::with_capacity((config.hours * config.items_per_hour) as usize);
        for hour in 0..config.hours {
            for _ in 0..config.items_per_hour {
                let ts = Timestamp::from_hours(hour).plus(rng.gen_range(0..Timestamp::HOUR));
                let n_tags = rng.gen_range(2..=4);
                let tags: Vec<TagId> = (0..n_tags)
                    .map(|_| {
                        if rng.gen_bool(config.theme_bias) {
                            theme_tags[theme_zipf.sample(&mut rng)]
                        } else {
                            vocab.id(global_zipf.sample(&mut rng))
                        }
                    })
                    .collect();
                docs.push(Document::builder(next_id, ts).tags(tags).build());
                next_id += 1;
            }
        }
        docs.sort_by_key(|d| (d.timestamp, d.id));
        feeds.push(RssFeed { name: format!("feed-{f}"), docs, theme_tags });
    }
    (feeds, interner, vocab)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> RssConfig {
        RssConfig { seed: 9, feeds: 3, hours: 6, items_per_hour: 10, n_tags: 60, theme_bias: 0.8 }
    }

    #[test]
    fn feeds_have_expected_volume_and_order() {
        let (feeds, _, _) = generate_feeds(&small_config());
        assert_eq!(feeds.len(), 3);
        for feed in &feeds {
            assert_eq!(feed.docs.len(), 60);
            for w in feed.docs.windows(2) {
                assert!(w[0].timestamp <= w[1].timestamp);
            }
        }
    }

    #[test]
    fn doc_ids_are_globally_unique() {
        let (feeds, _, _) = generate_feeds(&small_config());
        let mut ids: Vec<u64> = feeds.iter().flat_map(|f| f.docs.iter().map(|d| d.id)).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn feeds_are_theme_biased() {
        let (feeds, _, _) = generate_feeds(&small_config());
        for feed in &feeds {
            let theme: std::collections::HashSet<TagId> = feed.theme_tags.iter().copied().collect();
            let total: usize = feed.docs.iter().map(|d| d.tags.len()).sum();
            let themed: usize =
                feed.docs.iter().map(|d| d.tags.iter().filter(|t| theme.contains(t)).count()).sum();
            let frac = themed as f64 / total as f64;
            assert!(frac > 0.5, "{}: theme fraction {frac} too low", feed.name);
        }
    }

    #[test]
    fn themes_are_disjoint() {
        let (feeds, _, _) = generate_feeds(&small_config());
        let mut all: Vec<TagId> = feeds.iter().flat_map(|f| f.theme_tags.iter().copied()).collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "theme slices must not overlap");
    }

    #[test]
    fn deterministic_generation() {
        let (a, _, _) = generate_feeds(&small_config());
        let (b, _, _) = generate_feeds(&small_config());
        for (fa, fb) in a.iter().zip(&b) {
            assert_eq!(fa.docs.len(), fb.docs.len());
            for (x, y) in fa.docs.iter().zip(&fb.docs) {
                assert_eq!(x.tags, y.tags);
            }
        }
    }
}
