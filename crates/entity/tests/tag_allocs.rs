//! Pins the tagger's allocation profile: `tag_text` allocates its one
//! normalisation buffer and its mentions — nothing per token.
//!
//! A single `#[test]` in a binary of its own: the allocation counters are
//! process-global, so nothing else may allocate while they are read.

use enblogue_entity::gazetteer::GazetteerBuilder;
use enblogue_entity::tagger::EntityTagger;
use std::sync::Arc;

#[global_allocator]
static ALLOC: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc;

/// `tokens` words, none completing a title: filler the vocabulary does not
/// know, mixed case, and "York"/"traffic", which it knows only as the
/// second word of a title (so trie walks start and fail).
fn mention_free_text(tokens: usize) -> String {
    let words = ["The", "quick", "York", "report", "says", "traffic", "Nothing", "was", "found"];
    (0..tokens).map(|i| words[i % words.len()]).collect::<Vec<_>>().join(" ")
}

#[test]
fn tag_text_allocations_do_not_grow_with_the_text() {
    let mut builder = GazetteerBuilder::default();
    builder.add_title("New York");
    builder.add_title("New York City");
    builder.add_redirect("air traffic", "Air traffic control");
    let tagger = EntityTagger::new(Arc::new(builder.build()));

    let short = mention_free_text(1_000);
    let long = mention_free_text(8_000);
    let (mentions, short_allocs) = alloc_counter::measure(|| tagger.tag_text(&short));
    assert!(mentions.is_empty());
    let (mentions, long_allocs) = alloc_counter::measure(|| tagger.tag_text(&long));
    assert!(mentions.is_empty());
    assert_eq!(short_allocs, long_allocs, "allocations must not scale with token count");
    assert!(short_allocs <= 2, "one small buffer, grown at most once: {short_allocs} allocations");

    // With mentions: the buffer plus the mention vector's growth, still
    // nothing per token.
    let text = format!("{short} in New York City, {short} over New York.");
    let (mentions, allocs) = alloc_counter::measure(|| tagger.tag_text(&text));
    assert_eq!(mentions.len(), 2);
    assert!(allocs <= short_allocs + 1, "{allocs} allocations for two mentions");
}
