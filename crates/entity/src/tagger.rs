//! The sliding-window entity tagger.
//!
//! §3: "we scan its text content with a sliding window of up to 4
//! successive terms, and check whether substrings of these match the title
//! of a Wikipedia article", with redirect canonicalisation and an optional
//! ontology type filter.

use crate::gazetteer::{EntityId, Gazetteer, TokenId};
use crate::ontology::{Ontology, TypeId};
use crate::tokenize::TokenScanner;
use enblogue_types::{Document, TagInterner, TagKind};
use std::sync::Arc;

/// One recognised entity occurrence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mention {
    /// The canonical entity.
    pub entity: EntityId,
    /// Canonical name (post-redirect).
    pub name: Arc<str>,
    /// Index of the first matched token.
    pub token_start: usize,
    /// Number of matched tokens (1..=4).
    pub token_len: usize,
}

/// Sliding-window, longest-match entity tagger.
///
/// At each token position the tagger takes the longest dictionary phrase
/// (up to min(4, dictionary max) tokens) that starts there; on a hit it
/// emits the mention and continues *after* it (mentions never overlap),
/// matching the greedy behaviour of dictionary annotators. An optional
/// ontology filter restricts output "to focus on particular entity types".
///
/// The text is read once: each token is normalised into one reusable
/// buffer and probed in the gazetteer's vocabulary; a token no phrase
/// contains ends the matter there, any other walks the phrase trie at most
/// 4 deep. Allocations per call are the buffer and the mentions.
#[derive(Debug, Clone)]
pub struct EntityTagger {
    gazetteer: Arc<Gazetteer>,
    ontology: Option<Arc<Ontology>>,
    type_filter: Vec<TypeId>,
}

impl EntityTagger {
    /// A tagger over `gazetteer` with no type filtering.
    pub fn new(gazetteer: Arc<Gazetteer>) -> Self {
        EntityTagger { gazetteer, ontology: None, type_filter: Vec::new() }
    }

    /// Attaches an ontology (needed before [`Self::with_type_filter`]).
    #[must_use]
    pub fn with_ontology(mut self, ontology: Arc<Ontology>) -> Self {
        self.ontology = Some(ontology);
        self
    }

    /// Restricts output to entities matching any of `allowed` types
    /// (transitively).
    ///
    /// # Panics
    /// Panics if no ontology is attached.
    #[must_use]
    pub fn with_type_filter(mut self, allowed: Vec<TypeId>) -> Self {
        assert!(self.ontology.is_some(), "a type filter requires an ontology");
        self.type_filter = allowed;
        self
    }

    /// The underlying dictionary.
    pub fn gazetteer(&self) -> &Gazetteer {
        &self.gazetteer
    }

    fn admits(&self, entity: EntityId) -> bool {
        match (&self.ontology, self.type_filter.is_empty()) {
            (_, true) => true,
            (Some(ont), false) => ont.passes_filter(entity, &self.type_filter),
            (None, false) => {
                unreachable!("type filter without ontology is rejected at construction")
            }
        }
    }

    /// Tags raw text, returning non-overlapping mentions left to right.
    pub fn tag_text(&self, text: &str) -> Vec<Mention> {
        let mut scanner = TokenScanner::new(text);
        self.match_tokens(|| {
            scanner.next_span().map(|_| self.gazetteer.token_id(scanner.normalized()))
        })
    }

    /// Tags an already-tokenised term sequence (terms must be normalised
    /// lowercase, as produced by [`crate::tokenize::tokenize`]).
    pub fn tag_tokens(&self, tokens: &[&str]) -> Vec<Mention> {
        let mut tokens = tokens.iter();
        self.match_tokens(|| tokens.next().map(|token| self.gazetteer.token_id(token)))
    }

    /// Greedy longest-match over a token stream: `next` yields each token's
    /// vocabulary id (`Some(None)` for a token no phrase contains) until
    /// the text ends.
    fn match_tokens(&self, mut next: impl FnMut() -> Option<Option<TokenId>>) -> Vec<Mention> {
        let gazetteer = &*self.gazetteer;
        let mut mentions = Vec::new();
        // Tokens read but not yet passed: `ahead[0]` is token number `at`.
        let mut ahead = [None; Gazetteer::MAX_NGRAM];
        let mut ahead_len = 0usize;
        let mut at = 0usize;
        loop {
            // Walk the trie from `at`, keeping the deepest admitted entity.
            let mut node = Gazetteer::ROOT;
            let mut depth = 0usize;
            let mut best = None;
            while depth < Gazetteer::MAX_NGRAM {
                if depth == ahead_len {
                    let Some(token) = next() else { break };
                    ahead[ahead_len] = token;
                    ahead_len += 1;
                }
                let Some(child) = ahead[depth].and_then(|token| gazetteer.child(node, token))
                else {
                    break;
                };
                node = child;
                depth += 1;
                // A filtered-out entity does not block shorter matches at
                // the same position (e.g. "new york city" typed as location
                // vs "new york" typed as newspaper).
                if let Some(entity) = gazetteer.terminal(node).filter(|&e| self.admits(e)) {
                    best = Some((entity, depth));
                }
            }
            if ahead_len == 0 {
                return mentions;
            }
            let passed = match best {
                Some((entity, token_len)) => {
                    let name = gazetteer.canonical_name(entity).expect("id from this gazetteer");
                    mentions.push(Mention { entity, name, token_start: at, token_len });
                    token_len
                }
                None => 1,
            };
            ahead.copy_within(passed..ahead_len, 0);
            ahead_len -= passed;
            at += passed;
        }
    }

    /// Annotates `doc` from its raw text: each mention's canonical name is
    /// interned into `interner` as a [`TagKind::Entity`] and added to
    /// `doc.entities`, the annotations are normalised, and the text is
    /// dropped to bound memory. Entity tags share the id space of regular
    /// tags, so tag/entity mixtures can emerge as topics (§3). A document
    /// without text is left untouched. Returns the number of mentions.
    pub fn tag_document(&self, interner: &TagInterner, doc: &mut Document) -> usize {
        let Some(text) = doc.text.take() else { return 0 };
        let mentions = self.tag_text(&text);
        for mention in &mentions {
            doc.entities.push(interner.intern(&mention.name, TagKind::Entity));
        }
        doc.normalize();
        mentions.len()
    }

    /// Distinct canonical entities mentioned in `text`, sorted by id.
    pub fn distinct_entities(&self, text: &str) -> Vec<EntityId> {
        let mut ids: Vec<EntityId> = self.tag_text(text).into_iter().map(|m| m.entity).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gazetteer::GazetteerBuilder;

    fn gaz() -> (Arc<Gazetteer>, EntityId, EntityId, EntityId) {
        let mut b = GazetteerBuilder::default();
        let obama = b.add_title("Barack Obama");
        b.add_redirect("Obama", "Barack Obama");
        let iceland = b.add_title("Iceland");
        let volcano_name = b.add_title("Eyjafjallajokull");
        b.add_redirect("Eyjafjallajoekull volcano", "Eyjafjallajokull");
        (Arc::new(b.build()), obama, iceland, volcano_name)
    }

    #[test]
    fn finds_multiword_entities() {
        let (g, obama, ..) = gaz();
        let tagger = EntityTagger::new(g);
        let mentions = tagger.tag_text("President Barack Obama spoke today.");
        assert_eq!(mentions.len(), 1);
        assert_eq!(mentions[0].entity, obama);
        assert_eq!(mentions[0].token_start, 1);
        assert_eq!(mentions[0].token_len, 2);
        assert_eq!(&*mentions[0].name, "barack obama");
    }

    #[test]
    fn redirects_map_to_canonical_entity() {
        let (g, obama, ..) = gaz();
        let tagger = EntityTagger::new(g);
        let mentions = tagger.tag_text("Obama visited Iceland");
        assert_eq!(mentions[0].entity, obama);
        assert_eq!(&*mentions[0].name, "barack obama", "alias resolves to unique name");
    }

    #[test]
    fn longest_match_wins() {
        let mut b = GazetteerBuilder::default();
        let ny = b.add_title("New York");
        let nyc = b.add_title("New York City");
        let tagger = EntityTagger::new(Arc::new(b.build()));
        let mentions = tagger.tag_text("I love New York City!");
        assert_eq!(mentions.len(), 1);
        assert_eq!(mentions[0].entity, nyc);
        let mentions = tagger.tag_text("I love New York!");
        assert_eq!(mentions[0].entity, ny);
    }

    #[test]
    fn mentions_do_not_overlap() {
        let mut b = GazetteerBuilder::default();
        b.add_title("air traffic");
        b.add_title("traffic control");
        let tagger = EntityTagger::new(Arc::new(b.build()));
        let mentions = tagger.tag_text("air traffic control");
        // Greedy: "air traffic" consumes tokens 0-1; "traffic control"
        // cannot start inside it, and token 2 alone matches nothing.
        assert_eq!(mentions.len(), 1);
        assert_eq!(&*mentions[0].name, "air traffic");
    }

    #[test]
    fn multiple_mentions_in_order() {
        let (g, obama, iceland, volcano) = gaz();
        let tagger = EntityTagger::new(g);
        let mentions = tagger.tag_text("Obama on Eyjafjallajokull: Iceland suffers.");
        let ids: Vec<EntityId> = mentions.iter().map(|m| m.entity).collect();
        assert_eq!(ids, vec![obama, volcano, iceland]);
    }

    #[test]
    fn distinct_entities_dedups() {
        let (g, obama, ..) = gaz();
        let tagger = EntityTagger::new(g);
        let ids = tagger.distinct_entities("Obama, Obama, Barack Obama!");
        assert_eq!(ids, vec![obama]);
    }

    #[test]
    fn type_filter_restricts_output() {
        let (g, obama, iceland, _) = gaz();
        let mut ob = Ontology::builder();
        let person = ob.add_type("person");
        let location = ob.add_type("location");
        ob.assign(obama, person);
        ob.assign(iceland, location);
        let ont = Arc::new(ob.build());

        let people_only = EntityTagger::new(Arc::clone(&g))
            .with_ontology(Arc::clone(&ont))
            .with_type_filter(vec![person]);
        let ids = people_only.distinct_entities("Obama visited Iceland");
        assert_eq!(ids, vec![obama]);

        let everything = EntityTagger::new(g).with_ontology(ont);
        let ids = everything.distinct_entities("Obama visited Iceland");
        assert_eq!(ids.len(), 2);
    }

    #[test]
    fn filtered_long_match_falls_back_to_shorter() {
        let mut b = GazetteerBuilder::default();
        let nyc = b.add_title("New York City");
        let ny = b.add_title("New York");
        let mut ob = Ontology::builder();
        let newspaper = ob.add_type("newspaper");
        let location = ob.add_type("location");
        ob.assign(nyc, location);
        ob.assign(ny, newspaper);
        let tagger = EntityTagger::new(Arc::new(b.build()))
            .with_ontology(Arc::new(ob.build()))
            .with_type_filter(vec![newspaper]);
        let mentions = tagger.tag_text("read it in New York City pages");
        assert_eq!(mentions.len(), 1);
        assert_eq!(mentions[0].entity, ny, "filtered NYC yields the shorter NY match");
    }

    #[test]
    fn empty_inputs_yield_nothing() {
        let (g, ..) = gaz();
        let tagger = EntityTagger::new(g);
        assert!(tagger.tag_text("").is_empty());
        assert!(tagger.tag_text("nothing matches here").is_empty());
        let empty = EntityTagger::new(Arc::new(GazetteerBuilder::default().build()));
        assert!(empty.tag_text("Barack Obama").is_empty());
    }

    fn text_doc(id: u64, text: &str) -> Document {
        Document::builder(id, enblogue_types::Timestamp::ZERO).text(text).build()
    }

    #[test]
    fn tag_document_fills_entities_and_drops_text() {
        let (g, ..) = gaz();
        let interner = TagInterner::new();
        let mut doc = text_doc(1, "Obama speaks");
        assert_eq!(EntityTagger::new(g).tag_document(&interner, &mut doc), 1);
        let id = interner.get("barack obama", TagKind::Entity).expect("canonical name interned");
        assert_eq!(doc.entities, vec![id]);
        assert!(doc.text.is_none(), "text dropped after tagging");
    }

    #[test]
    fn tag_document_repeat_mentions_resolve_to_the_interned_tag() {
        let (g, ..) = gaz();
        let tagger = EntityTagger::new(g);
        let interner = TagInterner::new();
        let mut docs = [text_doc(1, "Obama speaks"), text_doc(2, "Barack Obama again, says Obama")];
        let mentions: usize = docs.iter_mut().map(|d| tagger.tag_document(&interner, d)).sum();
        assert_eq!(mentions, 3);
        let tag = interner.get("barack obama", TagKind::Entity).expect("canonical name interned");
        assert_eq!(interner.len(), 1, "one entity, interned once");
        for doc in &docs {
            assert_eq!(doc.entities, vec![tag]);
        }
    }

    #[test]
    fn tag_document_passes_docs_without_text() {
        let (g, ..) = gaz();
        let interner = TagInterner::new();
        let mut doc = Document::builder(1, enblogue_types::Timestamp::ZERO).build();
        assert_eq!(EntityTagger::new(g).tag_document(&interner, &mut doc), 0);
        assert!(doc.entities.is_empty());
        assert!(interner.is_empty());
    }

    #[test]
    fn tag_document_tags_batches() {
        let (g, obama, ..) = gaz();
        let tagger = EntityTagger::new(g);
        let interner = TagInterner::new();
        let mut batch = vec![
            text_doc(1, "Obama on Eyjafjallajokull: Iceland suffers."),
            Document::builder(2, enblogue_types::Timestamp::ZERO).build(),
            text_doc(3, "nothing matches here"),
        ];
        for doc in &mut batch {
            tagger.tag_document(&interner, doc);
        }
        assert_eq!(batch[0].entities.len(), 3);
        assert!(batch[0].entities.windows(2).all(|w| w[0] < w[1]), "annotations normalised");
        let name = tagger.gazetteer().canonical_name(obama).unwrap();
        assert!(batch[0].has_entity(interner.get(&name, TagKind::Entity).unwrap()));
        assert!(batch.iter().all(|d| d.text.is_none()));
        assert!(batch[1].entities.is_empty() && batch[2].entities.is_empty());
    }

    #[test]
    #[should_panic(expected = "requires an ontology")]
    fn type_filter_without_ontology_panics() {
        let (g, ..) = gaz();
        let _ = EntityTagger::new(g).with_type_filter(vec![TypeId(0)]);
    }
}
