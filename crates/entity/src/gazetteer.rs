//! The title dictionary: the Wikipedia substitute.
//!
//! Maps normalised phrases of up to [`Gazetteer::MAX_NGRAM`] terms to
//! canonical entities. Redirects ("map different namings of a single entity
//! to one unique name", §3) are first-class: an alias phrase resolves to
//! the same [`EntityId`] as its canonical title.
//!
//! [`GazetteerBuilder::build`] compiles the phrases into a token
//! vocabulary plus a trie over token ids, so titles and redirects share
//! prefixes and the tagger pays one vocabulary probe per token of text and
//! one trie step per token of a candidate mention — never a string join.

use crate::tokenize::normalize_phrase;
use enblogue_types::FxHashMap;
use std::sync::Arc;

/// Identifier of a canonical entity within a [`Gazetteer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntityId(pub u32);

impl EntityId {
    /// The raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// Dense id of a token that occurs in some phrase.
pub(crate) type TokenId = u32;

/// A node of the phrase trie; [`Gazetteer::ROOT`] is the empty phrase.
pub(crate) type NodeId = u32;

/// Immutable phrase → entity dictionary with redirects.
#[derive(Debug, Clone)]
pub struct Gazetteer {
    /// Every token of every phrase (titles *and* redirect aliases).
    vocabulary: FxHashMap<Box<str>, TokenId>,
    /// The phrase trie: `(node, next token) → node`.
    edges: FxHashMap<(NodeId, TokenId), NodeId>,
    /// By node: the entity whose title or alias ends there.
    terminals: Vec<Option<EntityId>>,
    /// Canonical names by entity id.
    canonical: Vec<Arc<str>>,
    /// Longest phrase (in tokens) present: the depth of the trie.
    max_phrase_len: usize,
    phrase_count: usize,
    redirect_count: usize,
}

impl Gazetteer {
    /// The paper's sliding-window bound: titles of up to 4 successive terms.
    pub const MAX_NGRAM: usize = 4;

    /// Starts building a gazetteer.
    pub fn builder() -> GazetteerBuilder {
        GazetteerBuilder::default()
    }

    /// Number of canonical entities.
    pub fn entity_count(&self) -> usize {
        self.canonical.len()
    }

    /// Number of redirect aliases.
    pub fn redirect_count(&self) -> usize {
        self.redirect_count
    }

    /// Number of lookup keys (titles + redirects).
    pub fn phrase_count(&self) -> usize {
        self.phrase_count
    }

    /// Longest phrase length in tokens (≤ [`Self::MAX_NGRAM`]).
    pub fn max_phrase_len(&self) -> usize {
        self.max_phrase_len
    }

    /// The canonical name of `id`.
    pub fn canonical_name(&self, id: EntityId) -> Option<Arc<str>> {
        self.canonical.get(id.index()).cloned()
    }

    /// Looks up an already-normalised phrase (tokens joined by single
    /// spaces, lowercase). Resolves through redirects.
    pub fn lookup_normalized(&self, phrase: &str) -> Option<EntityId> {
        let mut node = Self::ROOT;
        for token in phrase.split(' ') {
            node = self.child(node, self.token_id(token)?)?;
        }
        self.terminal(node)
    }

    /// Looks up an arbitrary phrase, normalising it first.
    pub fn lookup(&self, phrase: &str) -> Option<EntityId> {
        self.lookup_normalized(&normalize_phrase(phrase))
    }

    /// Iterates canonical names with their ids.
    pub fn entities(&self) -> impl Iterator<Item = (EntityId, &Arc<str>)> {
        self.canonical.iter().enumerate().map(|(i, name)| (EntityId(i as u32), name))
    }

    /// The trie node of the empty phrase.
    pub(crate) const ROOT: NodeId = 0;

    /// The id of a normalised token, if any phrase contains it.
    #[inline]
    pub(crate) fn token_id(&self, token: &str) -> Option<TokenId> {
        self.vocabulary.get(token).copied()
    }

    /// The node reached from `node` by appending `token`.
    #[inline]
    pub(crate) fn child(&self, node: NodeId, token: TokenId) -> Option<NodeId> {
        self.edges.get(&(node, token)).copied()
    }

    /// The entity whose title or alias is exactly the phrase at `node`.
    #[inline]
    pub(crate) fn terminal(&self, node: NodeId) -> Option<EntityId> {
        self.terminals[node as usize]
    }
}

/// Builder for [`Gazetteer`].
#[derive(Debug, Default)]
pub struct GazetteerBuilder {
    phrases: FxHashMap<String, EntityId>,
    canonical: Vec<Arc<str>>,
    max_phrase_len: usize,
    redirect_count: usize,
}

impl GazetteerBuilder {
    /// Adds a canonical article title, returning its entity id.
    ///
    /// Titles longer than [`Gazetteer::MAX_NGRAM`] tokens are rejected:
    /// the tagger's window never probes them, so accepting them would
    /// create dead dictionary weight.
    ///
    /// Adding the same title twice returns the existing id.
    ///
    /// # Panics
    /// Panics if the title normalises to an empty phrase or exceeds the
    /// n-gram bound.
    pub fn add_title(&mut self, title: &str) -> EntityId {
        let normalized = normalize_phrase(title);
        assert!(!normalized.is_empty(), "entity title must contain at least one token");
        let token_len = normalized.split(' ').count();
        assert!(
            token_len <= Gazetteer::MAX_NGRAM,
            "title `{title}` has {token_len} tokens, max is {}",
            Gazetteer::MAX_NGRAM
        );
        if let Some(&id) = self.phrases.get(&normalized) {
            return id;
        }
        let id = EntityId(u32::try_from(self.canonical.len()).expect("too many entities"));
        self.canonical.push(Arc::from(normalized.as_str()));
        self.phrases.insert(normalized, id);
        self.max_phrase_len = self.max_phrase_len.max(token_len);
        id
    }

    /// Adds a redirect: `alias` resolves to the entity of `canonical`.
    ///
    /// The canonical title is added implicitly if absent (Wikipedia dumps
    /// list redirects independent of page order).
    ///
    /// # Panics
    /// Panics on empty or over-long aliases, like [`Self::add_title`].
    pub fn add_redirect(&mut self, alias: &str, canonical: &str) -> EntityId {
        let id = self.add_title(canonical);
        let alias_norm = normalize_phrase(alias);
        assert!(!alias_norm.is_empty(), "redirect alias must contain at least one token");
        let token_len = alias_norm.split(' ').count();
        assert!(
            token_len <= Gazetteer::MAX_NGRAM,
            "alias `{alias}` has {token_len} tokens, max is {}",
            Gazetteer::MAX_NGRAM
        );
        // An alias that is already a canonical title keeps its own entity
        // (titles win over redirects, as in Wikipedia).
        if let std::collections::hash_map::Entry::Vacant(e) = self.phrases.entry(alias_norm) {
            e.insert(id);
            self.redirect_count += 1;
            self.max_phrase_len = self.max_phrase_len.max(token_len);
        }
        id
    }

    /// Finalises the dictionary: compiles the phrases into the token
    /// vocabulary and the phrase trie.
    pub fn build(self) -> Gazetteer {
        let dense = |len: usize| u32::try_from(len).expect("dictionary exceeds u32 ids");
        let mut vocabulary: FxHashMap<Box<str>, TokenId> = FxHashMap::default();
        let mut edges: FxHashMap<(NodeId, TokenId), NodeId> = FxHashMap::default();
        let mut terminals = vec![None]; // the root
        for (phrase, &entity) in &self.phrases {
            let mut node = Gazetteer::ROOT;
            for token in phrase.split(' ') {
                let token_id = match vocabulary.get(token) {
                    Some(&id) => id,
                    None => {
                        let id = dense(vocabulary.len());
                        vocabulary.insert(token.into(), id);
                        id
                    }
                };
                node = *edges.entry((node, token_id)).or_insert_with(|| {
                    terminals.push(None);
                    dense(terminals.len() - 1)
                });
            }
            terminals[node as usize] = Some(entity);
        }
        Gazetteer {
            vocabulary,
            edges,
            terminals,
            canonical: self.canonical,
            max_phrase_len: self.max_phrase_len,
            phrase_count: self.phrases.len(),
            redirect_count: self.redirect_count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn titles_resolve_to_themselves() {
        let mut b = Gazetteer::builder();
        let obama = b.add_title("Barack Obama");
        let g = b.build();
        assert_eq!(g.lookup("barack obama"), Some(obama));
        assert_eq!(g.lookup("Barack  OBAMA"), Some(obama));
        assert_eq!(g.canonical_name(obama).as_deref(), Some("barack obama"));
        assert_eq!(g.entity_count(), 1);
    }

    #[test]
    fn redirects_resolve_to_canonical() {
        let mut b = Gazetteer::builder();
        let id = b.add_redirect("Obama", "Barack Obama");
        let g = b.build();
        assert_eq!(g.lookup("obama"), Some(id));
        assert_eq!(g.lookup("barack obama"), Some(id));
        assert_eq!(g.entity_count(), 1, "redirect does not create an entity");
        assert_eq!(g.redirect_count(), 1);
        assert_eq!(g.phrase_count(), 2);
    }

    #[test]
    fn duplicate_titles_are_idempotent() {
        let mut b = Gazetteer::builder();
        let a = b.add_title("Iceland");
        let b2 = b.add_title("iceland");
        assert_eq!(a, b2);
        assert_eq!(b.build().entity_count(), 1);
    }

    #[test]
    fn titles_win_over_redirects() {
        let mut b = Gazetteer::builder();
        let georgia_state = b.add_title("Georgia");
        let _usa = b.add_redirect("Georgia", "United States"); // conflicting alias
        let g = b.build();
        assert_eq!(g.lookup("georgia"), Some(georgia_state), "existing title is not overwritten");
        assert_eq!(g.redirect_count(), 0);
    }

    #[test]
    fn unknown_phrases_miss() {
        let mut b = Gazetteer::builder();
        b.add_title("volcano");
        let g = b.build();
        assert_eq!(g.lookup("volcanoes"), None);
        assert_eq!(g.lookup(""), None);
    }

    #[test]
    fn max_phrase_len_tracks_longest() {
        let mut b = Gazetteer::builder();
        b.add_title("iceland");
        assert_eq!(b.max_phrase_len, 1);
        b.add_title("icelandic air traffic control");
        let g = b.build();
        assert_eq!(g.max_phrase_len(), 4);
    }

    #[test]
    #[should_panic(expected = "max is 4")]
    fn overlong_title_rejected() {
        let mut b = Gazetteer::builder();
        b.add_title("one two three four five");
    }

    #[test]
    #[should_panic(expected = "at least one token")]
    fn empty_title_rejected() {
        let mut b = Gazetteer::builder();
        b.add_title("!!!");
    }

    #[test]
    fn entities_iterator_is_complete() {
        let mut b = Gazetteer::builder();
        b.add_title("a");
        b.add_title("b");
        b.add_redirect("c", "a");
        let g = b.build();
        let names: Vec<String> = g.entities().map(|(_, n)| n.to_string()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
