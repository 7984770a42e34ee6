//! Differential test of the compiled tagger (token vocabulary + phrase
//! trie, one pass over the bytes) against the window-probing tagger it
//! replaced, which lives on here as the oracle: a per-`char` tokeniser, a
//! flat phrase map, and a join-and-probe loop over every window at every
//! token position. The two share no code beyond `GazetteerBuilder`'s ids.

use enblogue_entity::gazetteer::{EntityId, Gazetteer, GazetteerBuilder};
use enblogue_entity::ontology::Ontology;
use enblogue_entity::tagger::{EntityTagger, Mention};
use enblogue_entity::tokenize::{normalize_phrase, tokenize, Token};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The reference normaliser: one `char` at a time, one `String` per token.
fn reference_tokenize(text: &str) -> Vec<Token> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    let mut start = 0usize;
    for (i, ch) in text.char_indices() {
        if matches!(ch, '\'' | '\u{2019}' | '\u{02BC}') {
            // Swallowed inside a word, ignored elsewhere.
        } else if ch.is_alphanumeric() {
            if current.is_empty() {
                start = i;
            }
            current.extend(ch.to_lowercase().filter(|lower| lower.is_alphanumeric()));
        } else if !current.is_empty() {
            tokens.push(Token { text: std::mem::take(&mut current), start, end: i });
        }
    }
    if !current.is_empty() {
        tokens.push(Token { text: current, start, end: text.len() });
    }
    tokens
}

fn reference_normalize(phrase: &str) -> String {
    reference_tokenize(phrase).iter().map(|t| t.text.as_str()).collect::<Vec<_>>().join(" ")
}

/// The reference matcher: at each position join the longest window first
/// and probe the flat phrase map; a filtered-out entity does not block a
/// shorter window; a match consumes its tokens.
fn reference_tag(
    phrases: &HashMap<String, EntityId>,
    gazetteer: &Gazetteer,
    admits: impl Fn(EntityId) -> bool,
    text: &str,
) -> Vec<Mention> {
    let tokens = reference_tokenize(text);
    let max_window = phrases.keys().map(|p| p.split(' ').count()).max().unwrap_or(0);
    let mut mentions = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        let longest = max_window.min(tokens.len() - i);
        let mut matched = 0usize;
        for window in (1..=longest).rev() {
            let words: Vec<&str> = tokens[i..i + window].iter().map(|t| t.text.as_str()).collect();
            match phrases.get(&words.join(" ")) {
                Some(&entity) if admits(entity) => {
                    let name = gazetteer.canonical_name(entity).expect("id from this gazetteer");
                    mentions.push(Mention { entity, name, token_start: i, token_len: window });
                    matched = window;
                    break;
                }
                _ => {}
            }
        }
        i += matched.max(1);
    }
    mentions
}

/// Dictionary words: shared prefixes ("new york" / "new york city" /
/// "new york times"), a Turkish dotted capital, apostrophes of all three
/// kinds, digits, a precomposed and a combining accent (the combining mark
/// splits its word in two).
const WORDS: &[&str] = &[
    "new",
    "york",
    "city",
    "times",
    "air",
    "traffic",
    "control",
    "İstanbul",
    "O'Brien",
    "O\u{2019}Brien",
    "O\u{02BC}Neill",
    "2011",
    "café",
    "e\u{301}cole",
    "obama",
];

fn word() -> impl Strategy<Value = String> {
    prop::sample::select(WORDS.to_vec()).prop_map(str::to_string)
}

fn phrase() -> impl Strategy<Value = String> {
    prop::collection::vec(word(), 1..=4).prop_map(|words| words.join(" "))
}

/// One builder call: a title, or a redirect `alias → canonical`.
fn dictionary_op() -> impl Strategy<Value = (bool, String, String)> {
    (0..3u8, phrase(), phrase()).prop_map(|(kind, a, b)| (kind == 0, a, b))
}

/// Text pieces: mostly dictionary words (some upper-cased), some noise.
fn text() -> impl Strategy<Value = String> {
    let piece = (0..8u8, word(), "\\PC{0,10}").prop_map(|(kind, word, noise)| match kind {
        0 => noise,
        1 => word.to_uppercase(),
        _ => word,
    });
    let separator = prop::sample::select(vec![" ", " ", " ", ", ", "-", "'", "\u{2019}", ""]);
    prop::collection::vec((piece, separator), 0..60)
        .prop_map(|pieces| pieces.into_iter().flat_map(|(p, s)| [p, s.to_string()]).collect())
}

struct Dictionary {
    gazetteer: Arc<Gazetteer>,
    /// The flat map the builder used to hand to the tagger.
    phrases: HashMap<String, EntityId>,
}

/// Feeds `ops` to a builder and mirrors them into the flat reference map
/// (first owner of a phrase keeps it: titles win over later redirects).
fn build_dictionary(ops: &[(bool, String, String)]) -> Dictionary {
    let fits = |p: &str| (1..=Gazetteer::MAX_NGRAM).contains(&reference_tokenize(p).len());
    let mut builder = GazetteerBuilder::default();
    let mut phrases = HashMap::new();
    // Always present: two nested titles, the pair the type filter splits.
    for title in ["New York", "New York City"] {
        phrases.insert(reference_normalize(title), builder.add_title(title));
    }
    for (is_redirect, a, b) in ops {
        if !fits(a) || (*is_redirect && !fits(b)) {
            continue;
        }
        if *is_redirect {
            let entity = builder.add_redirect(a, b);
            phrases.entry(reference_normalize(b)).or_insert(entity);
            phrases.entry(reference_normalize(a)).or_insert(entity);
        } else {
            let entity = builder.add_title(a);
            phrases.entry(reference_normalize(a)).or_insert(entity);
        }
    }
    Dictionary { gazetteer: Arc::new(builder.build()), phrases }
}

proptest! {
    /// The shared scanner normalises exactly like the per-`char` loop.
    #[test]
    fn scanner_matches_the_char_loop(text in text(), noise in "\\PC{0,200}") {
        for text in [&text, &noise] {
            prop_assert_eq!(tokenize(text), reference_tokenize(text));
            prop_assert_eq!(normalize_phrase(text), reference_normalize(text));
        }
    }

    /// The trie resolves exactly the phrases of the flat map.
    #[test]
    fn trie_lookup_matches_the_phrase_map(
        ops in prop::collection::vec(dictionary_op(), 0..16),
        probes in prop::collection::vec(phrase(), 0..16),
    ) {
        let dict = build_dictionary(&ops);
        prop_assert_eq!(dict.gazetteer.phrase_count(), dict.phrases.len());
        for (phrase, &entity) in &dict.phrases {
            prop_assert_eq!(dict.gazetteer.lookup_normalized(phrase), Some(entity));
        }
        for probe in &probes {
            let normalized = reference_normalize(probe);
            prop_assert_eq!(dict.gazetteer.lookup(probe), dict.phrases.get(&normalized).copied());
        }
    }

    /// Identical mentions — entity, name, position, length — with no filter
    /// and with a type filter that rejects the longer of two nested titles.
    #[test]
    fn compiled_tagger_matches_window_probing(
        ops in prop::collection::vec(dictionary_op(), 0..16),
        typed in prop::collection::vec(0..2u8, 40),
        text in text(),
        noise in "\\PC{0,200}",
    ) {
        let dict = build_dictionary(&ops);
        let nested = dict.phrases["new york city"];
        // Every entity is `kept` or `dropped`; "new york city" is dropped
        // and "new york" kept, the rest as drawn.
        let mut ontology = Ontology::builder();
        let kept_type = ontology.add_type("kept");
        let dropped_type = ontology.add_type("dropped");
        let mut kept = HashSet::new();
        for (entity, _) in dict.gazetteer.entities() {
            let keep = entity != nested
                && (entity == dict.phrases["new york"] || typed[entity.index() % typed.len()] == 0);
            ontology.assign(entity, if keep { kept_type } else { dropped_type });
            if keep {
                kept.insert(entity);
            }
        }
        let unfiltered = EntityTagger::new(Arc::clone(&dict.gazetteer));
        let filtered = EntityTagger::new(Arc::clone(&dict.gazetteer))
            .with_ontology(Arc::new(ontology.build()))
            .with_type_filter(vec![kept_type]);

        let nested_text = format!("{text} read it in New York City pages");
        for text in [&text, &noise, &nested_text] {
            let expected = reference_tag(&dict.phrases, &dict.gazetteer, |_| true, text);
            prop_assert_eq!(unfiltered.tag_text(text), expected.clone());
            // `tag_tokens` is the same matcher behind a token slice.
            let tokens = tokenize(text);
            let words: Vec<&str> = tokens.iter().map(|t| t.text.as_str()).collect();
            prop_assert_eq!(unfiltered.tag_tokens(&words), expected);

            let expected =
                reference_tag(&dict.phrases, &dict.gazetteer, |e| kept.contains(&e), text);
            prop_assert_eq!(filtered.tag_text(text), expected);
        }
        let fallback = filtered.tag_text("New York City");
        let first = fallback.first().map(|m| (m.entity, m.token_len));
        prop_assert_eq!(first, Some((dict.phrases["new york"], 2)), "rejected NYC yields NY");
    }
}
