//! The stream tuple: documents flowing through the engine.

use crate::tag::{DocId, TagId};
use crate::time::Timestamp;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of the feed/account/host a document arrived from.
///
/// Sources are the unit of *trust* in the ingestion guards: the dedup
/// window keys on `(source, doc)` and the flood caps meter tokens per
/// source, so one hijacked feed cannot drown the shift-scoring signal of
/// everyone else. `SourceId::ANONYMOUS` (`0`) is the default for
/// workloads that never attribute documents — guards still work, they
/// just see one aggregate source.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SourceId(pub u32);

impl SourceId {
    /// The default source for unattributed documents.
    pub const ANONYMOUS: SourceId = SourceId(0);

    /// The raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "src:{}", self.0)
    }
}

/// A document in a Web 2.0 stream.
///
/// This is the paper's tuple `(timestamp, docId, set of tags, set of
/// entities)` (§4.1), extended with:
///
/// * `terms` — interned content terms for the relative-entropy correlation
///   variant of §3(ii),
/// * `text` — the raw body, consumed (and cleared) by entity tagging
///   (`EntityTagger::tag_document` in `enblogue-entity`), which derives
///   `entities` from it.
///
/// `tags` and `entities` are kept **sorted and deduplicated** — documents
/// are set-annotated, and sorted slices let the pair generator emit each
/// co-occurring pair exactly once.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Document {
    /// Unique document identifier within the stream.
    pub id: DocId,
    /// Publication time in *event* time. The tick a document belongs to
    /// is derived from this, never from its arrival position — the two
    /// may disagree on late streams (see `docs/EVENT_TIME.md`).
    pub timestamp: Timestamp,
    /// Feed/account the document arrived from (guards key on it);
    /// [`SourceId::ANONYMOUS`] for unattributed workloads.
    pub source: SourceId,
    /// Set of annotation tags (categories, descriptors, hashtags), sorted.
    pub tags: Vec<TagId>,
    /// Set of named entities (filled by the entity tagger), sorted.
    pub entities: Vec<TagId>,
    /// Interned content terms (bag with duplicates allowed, in text order).
    pub terms: Vec<TagId>,
    /// Raw text, if available; input to the entity tagger.
    pub text: Option<String>,
}

impl Document {
    /// Starts building a document.
    pub fn builder(id: DocId, timestamp: Timestamp) -> DocumentBuilder {
        DocumentBuilder {
            doc: Document {
                id,
                timestamp,
                source: SourceId::ANONYMOUS,
                tags: Vec::new(),
                entities: Vec::new(),
                terms: Vec::new(),
                text: None,
            },
        }
    }

    /// Whether `tag` annotates this document (tags only, not entities).
    #[inline]
    pub fn has_tag(&self, tag: TagId) -> bool {
        self.tags.binary_search(&tag).is_ok()
    }

    /// Whether `entity` was recognised in this document.
    #[inline]
    pub fn has_entity(&self, entity: TagId) -> bool {
        self.entities.binary_search(&entity).is_ok()
    }

    /// Iterates over tags and entities as one combined annotation set.
    ///
    /// The combined view is what the correlation tracker consumes when
    /// configured to detect "tag/entity mixtures as emergent topics" (§3).
    /// Both inputs are sorted; the merge preserves sortedness and skips
    /// duplicates across the two sets.
    pub fn annotations(&self) -> impl Iterator<Item = TagId> + '_ {
        MergeSorted { a: &self.tags, b: &self.entities, i: 0, j: 0 }
    }

    /// Number of distinct annotations (tags ∪ entities).
    pub fn annotation_count(&self) -> usize {
        self.annotations().count()
    }

    /// Drops the raw text (done after entity tagging to bound memory).
    pub fn clear_text(&mut self) {
        self.text = None;
    }

    /// Sorts and deduplicates `tags` and `entities` in place.
    ///
    /// Builders do this automatically; call it after manual mutation.
    pub fn normalize(&mut self) {
        self.tags.sort_unstable();
        self.tags.dedup();
        self.entities.sort_unstable();
        self.entities.dedup();
    }
}

struct MergeSorted<'a> {
    a: &'a [TagId],
    b: &'a [TagId],
    i: usize,
    j: usize,
}

impl Iterator for MergeSorted<'_> {
    type Item = TagId;

    fn next(&mut self) -> Option<TagId> {
        match (self.a.get(self.i), self.b.get(self.j)) {
            (Some(&x), Some(&y)) => {
                if x < y {
                    self.i += 1;
                    Some(x)
                } else if y < x {
                    self.j += 1;
                    Some(y)
                } else {
                    self.i += 1;
                    self.j += 1;
                    Some(x)
                }
            }
            (Some(&x), None) => {
                self.i += 1;
                Some(x)
            }
            (None, Some(&y)) => {
                self.j += 1;
                Some(y)
            }
            (None, None) => None,
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining_a = self.a.len() - self.i;
        let remaining_b = self.b.len() - self.j;
        (remaining_a.max(remaining_b), Some(remaining_a + remaining_b))
    }
}

/// Builder for [`Document`]; normalises tag/entity sets on [`build`](DocumentBuilder::build).
#[derive(Debug)]
pub struct DocumentBuilder {
    doc: Document,
}

impl DocumentBuilder {
    /// Adds one annotation tag.
    #[must_use]
    pub fn tag(mut self, tag: TagId) -> Self {
        self.doc.tags.push(tag);
        self
    }

    /// Adds several annotation tags.
    #[must_use]
    pub fn tags(mut self, tags: impl IntoIterator<Item = TagId>) -> Self {
        self.doc.tags.extend(tags);
        self
    }

    /// Adds one named entity.
    #[must_use]
    pub fn entity(mut self, entity: TagId) -> Self {
        self.doc.entities.push(entity);
        self
    }

    /// Adds several named entities.
    #[must_use]
    pub fn entities(mut self, entities: impl IntoIterator<Item = TagId>) -> Self {
        self.doc.entities.extend(entities);
        self
    }

    /// Adds content terms (order and duplicates preserved).
    #[must_use]
    pub fn terms(mut self, terms: impl IntoIterator<Item = TagId>) -> Self {
        self.doc.terms.extend(terms);
        self
    }

    /// Sets the raw text body.
    #[must_use]
    pub fn text(mut self, text: impl Into<String>) -> Self {
        self.doc.text = Some(text.into());
        self
    }

    /// Attributes the document to a source (defaults to
    /// [`SourceId::ANONYMOUS`]).
    #[must_use]
    pub fn source(mut self, source: SourceId) -> Self {
        self.doc.source = source;
        self
    }

    /// Finishes the document, normalising its annotation sets.
    pub fn build(mut self) -> Document {
        self.doc.normalize();
        self.doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TagId {
        TagId(i)
    }

    #[test]
    fn builder_sorts_and_dedups() {
        let doc = Document::builder(1, Timestamp::from_secs(5))
            .tag(t(3))
            .tag(t(1))
            .tag(t(3))
            .entity(t(9))
            .entity(t(7))
            .entity(t(9))
            .build();
        assert_eq!(doc.tags, vec![t(1), t(3)]);
        assert_eq!(doc.entities, vec![t(7), t(9)]);
    }

    #[test]
    fn membership_uses_binary_search() {
        let doc = Document::builder(1, Timestamp::ZERO).tags([t(2), t(4), t(6)]).build();
        assert!(doc.has_tag(t(4)));
        assert!(!doc.has_tag(t(5)));
        assert!(!doc.has_entity(t(4)));
    }

    #[test]
    fn annotations_merge_without_duplicates() {
        let doc = Document::builder(1, Timestamp::ZERO)
            .tags([t(1), t(3), t(5)])
            .entities([t(3), t(4)])
            .build();
        let merged: Vec<TagId> = doc.annotations().collect();
        assert_eq!(merged, vec![t(1), t(3), t(4), t(5)]);
        assert_eq!(doc.annotation_count(), 4);
    }

    #[test]
    fn annotations_handle_empty_sides() {
        let tags_only = Document::builder(1, Timestamp::ZERO).tags([t(1), t(2)]).build();
        assert_eq!(tags_only.annotations().collect::<Vec<_>>(), vec![t(1), t(2)]);

        let entities_only = Document::builder(2, Timestamp::ZERO).entities([t(8)]).build();
        assert_eq!(entities_only.annotations().collect::<Vec<_>>(), vec![t(8)]);

        let empty = Document::builder(3, Timestamp::ZERO).build();
        assert_eq!(empty.annotation_count(), 0);
    }

    #[test]
    fn text_lifecycle() {
        let mut doc = Document::builder(1, Timestamp::ZERO).text("Eyjafjallajokull erupts").build();
        assert!(doc.text.is_some());
        doc.clear_text();
        assert!(doc.text.is_none());
    }

    #[test]
    fn terms_keep_duplicates_and_order() {
        let doc = Document::builder(1, Timestamp::ZERO).terms([t(5), t(2), t(5)]).build();
        assert_eq!(doc.terms, vec![t(5), t(2), t(5)]);
    }

    #[test]
    fn source_defaults_to_anonymous() {
        let doc = Document::builder(1, Timestamp::ZERO).build();
        assert_eq!(doc.source, SourceId::ANONYMOUS);
        let attributed = Document::builder(2, Timestamp::ZERO).source(SourceId(7)).build();
        assert_eq!(attributed.source, SourceId(7));
        assert_eq!(format!("{}", attributed.source), "src:7");
    }

    #[test]
    fn normalize_after_manual_mutation() {
        let mut doc = Document::builder(1, Timestamp::ZERO).build();
        doc.tags.extend([t(9), t(1), t(9)]);
        doc.normalize();
        assert_eq!(doc.tags, vec![t(1), t(9)]);
    }
}
