//! Tags and the global tag interner.
//!
//! EnBlogue's unit of analysis is the *tag*: editorial categories and
//! descriptors (NYT archive), hashtags (tweets), named entities produced by
//! the entity tagger, and — for the relative-entropy correlation measures —
//! plain content terms. All of them share one id space so that the
//! correlation tracker can form pairs across kinds ("tag/entity mixtures as
//! emergent topics", §3 of the paper).

use crate::fxhash::FxHashMap;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// Identifier of a document in the stream.
pub type DocId = u64;

/// A compact, interned tag identifier.
///
/// `TagId`s are dense `u32`s handed out by a [`TagInterner`]; all hot-path
/// state (tick counters, pair registries) is keyed by them rather than by
/// strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TagId(pub u32);

impl TagId {
    /// The raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TagId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// What kind of annotation a tag is.
///
/// Kinds matter for personalization (users can restrict to categories) and
/// for the entity pipeline (entities can be "handled independently of the
/// regular tags, or combined", §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TagKind {
    /// Editorial category (NYT taxonomy node, pre-defined topic category).
    Category,
    /// Editorial descriptor (NYT fine-grained subject annotation).
    Descriptor,
    /// Social-media hashtag.
    Hashtag,
    /// Named entity produced by the entity tagger (person/org/place…).
    Entity,
    /// Plain content term (used by term-distribution divergence measures).
    Term,
}

impl TagKind {
    /// All kinds, in a stable order (useful for per-kind statistics).
    pub const ALL: [TagKind; 5] =
        [TagKind::Category, TagKind::Descriptor, TagKind::Hashtag, TagKind::Entity, TagKind::Term];

    /// Short label used in experiment output.
    pub const fn label(self) -> &'static str {
        match self {
            TagKind::Category => "cat",
            TagKind::Descriptor => "desc",
            TagKind::Hashtag => "hash",
            TagKind::Entity => "ent",
            TagKind::Term => "term",
        }
    }
}

impl fmt::Display for TagKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[derive(Default)]
struct InternerInner {
    /// One name → id map per kind (indexed by `TagKind as usize`), so a
    /// lookup borrows the caller's `&str`; keys share the `names` entries.
    by_name: [FxHashMap<Arc<str>, TagId>; TagKind::ALL.len()],
    names: Vec<Arc<str>>,
    kinds: Vec<TagKind>,
}

/// Thread-safe string-to-[`TagId`] interner.
///
/// The interner is shared (`Arc`-cloneable via [`TagInterner::clone`])
/// between workload generators, the entity tagger and the engine so that
/// every component speaks the same id space. Interning the same
/// `(name, kind)` twice returns the same id; the same name under two kinds
/// yields two ids (the hashtag `iceland` and the entity `iceland` are
/// distinct signals).
#[derive(Clone, Default)]
pub struct TagInterner {
    inner: Arc<RwLock<InternerInner>>,
}

impl TagInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name` under `kind`, returning its stable id.
    ///
    /// Names are case-normalised to lowercase: Web 2.0 tags are
    /// case-insensitive in practice and the paper's entity tagger maps
    /// different namings of an entity to one unique name.
    ///
    /// A hit takes the read lock only and, for a name that is already
    /// trimmed lowercase, allocates nothing.
    pub fn intern(&self, name: &str, kind: TagKind) -> TagId {
        let normalized = normalize(name);
        if let Some(&id) = self.inner.read().by_name[kind as usize].get(&*normalized) {
            return id;
        }
        let mut inner = self.inner.write();
        // Re-check: another thread may have interned between the locks.
        if let Some(&id) = inner.by_name[kind as usize].get(&*normalized) {
            return id;
        }
        let id = TagId(u32::try_from(inner.names.len()).expect("more than u32::MAX tags interned"));
        let name: Arc<str> = Arc::from(&*normalized);
        inner.names.push(Arc::clone(&name));
        inner.kinds.push(kind);
        inner.by_name[kind as usize].insert(name, id);
        id
    }

    /// Looks up an already-interned tag without creating it.
    pub fn get(&self, name: &str, kind: TagKind) -> Option<TagId> {
        self.inner.read().by_name[kind as usize].get(&*normalize(name)).copied()
    }

    /// The name of `id`, if it was handed out by this interner.
    pub fn name(&self, id: TagId) -> Option<Arc<str>> {
        self.inner.read().names.get(id.index()).cloned()
    }

    /// The kind of `id`, if it was handed out by this interner.
    pub fn kind(&self, id: TagId) -> Option<TagKind> {
        self.inner.read().kinds.get(id.index()).copied()
    }

    /// Human-readable rendering of `id` (`name` or `#raw` if unknown).
    pub fn display(&self, id: TagId) -> String {
        match self.name(id) {
            Some(name) => name.to_string(),
            None => format!("{id}"),
        }
    }

    /// Number of interned tags.
    pub fn len(&self) -> usize {
        self.inner.read().names.len()
    }

    /// Whether no tag has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All ids of the given kind (snapshot; order = interning order).
    pub fn ids_of_kind(&self, kind: TagKind) -> Vec<TagId> {
        let inner = self.inner.read();
        inner
            .kinds
            .iter()
            .enumerate()
            .filter(|(_, k)| **k == kind)
            .map(|(i, _)| TagId(i as u32))
            .collect()
    }
}

impl fmt::Debug for TagInterner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TagInterner").field("len", &self.len()).finish()
    }
}

/// Trimmed and lowercased; borrowed when `name` already is.
fn normalize(name: &str) -> Cow<'_, str> {
    let trimmed = name.trim();
    // `str::to_lowercase` is the identity exactly when every char
    // lowercases to itself. Interning is paid per entity mention, so
    // ASCII names skip the per-char case-mapping iterator.
    let is_lowercase = if trimmed.is_ascii() {
        !trimmed.bytes().any(|b| b.is_ascii_uppercase())
    } else {
        trimmed.chars().all(|c| c.to_lowercase().eq([c]))
    };
    if is_lowercase {
        Cow::Borrowed(trimmed)
    } else {
        Cow::Owned(trimmed.to_lowercase())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let interner = TagInterner::new();
        let a = interner.intern("Volcano", TagKind::Descriptor);
        let b = interner.intern("volcano", TagKind::Descriptor);
        let c = interner.intern("  volcano ", TagKind::Descriptor);
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(interner.len(), 1);
    }

    #[test]
    fn normalize_borrows_exactly_when_lowercasing_is_a_no_op() {
        for name in ["volcano", "  air traffic ", "eyjafjallajökull", "2011", "", "οδος", "ß"]
        {
            assert!(matches!(normalize(name), Cow::Borrowed(_)), "{name:?}");
            assert_eq!(normalize(name), name.trim().to_lowercase());
        }
        // Uppercase, non-ASCII uppercase, a titlecase digraph, final sigma.
        for name in ["Volcano", " ÖL", "ǅ", "İstanbul", "ΟΔΟΣ"] {
            assert!(matches!(normalize(name), Cow::Owned(_)), "{name:?}");
            assert_eq!(normalize(name), name.trim().to_lowercase());
        }
    }

    #[test]
    fn kinds_separate_namespaces() {
        let interner = TagInterner::new();
        let hashtag = interner.intern("iceland", TagKind::Hashtag);
        let entity = interner.intern("iceland", TagKind::Entity);
        assert_ne!(hashtag, entity);
        assert_eq!(interner.kind(hashtag), Some(TagKind::Hashtag));
        assert_eq!(interner.kind(entity), Some(TagKind::Entity));
    }

    #[test]
    fn lookup_without_interning() {
        let interner = TagInterner::new();
        assert_eq!(interner.get("eyjafjallajokull", TagKind::Entity), None);
        let id = interner.intern("eyjafjallajokull", TagKind::Entity);
        assert_eq!(interner.get("Eyjafjallajokull", TagKind::Entity), Some(id));
    }

    #[test]
    fn names_round_trip() {
        let interner = TagInterner::new();
        let id = interner.intern("Air Traffic", TagKind::Category);
        assert_eq!(interner.name(id).as_deref(), Some("air traffic"));
        assert_eq!(interner.display(id), "air traffic");
        assert_eq!(interner.display(TagId(999)), "#999");
        assert_eq!(interner.name(TagId(999)), None);
    }

    #[test]
    fn ids_of_kind_filters() {
        let interner = TagInterner::new();
        let c1 = interner.intern("politics", TagKind::Category);
        let _d = interner.intern("elections", TagKind::Descriptor);
        let c2 = interner.intern("sports", TagKind::Category);
        assert_eq!(interner.ids_of_kind(TagKind::Category), vec![c1, c2]);
    }

    #[test]
    fn shared_across_clones() {
        let interner = TagInterner::new();
        let clone = interner.clone();
        let id = interner.intern("shared", TagKind::Hashtag);
        assert_eq!(clone.get("shared", TagKind::Hashtag), Some(id));
        assert_eq!(clone.len(), 1);
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let interner = TagInterner::new();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let interner = interner.clone();
                std::thread::spawn(move || {
                    (0..100)
                        .map(|i| interner.intern(&format!("tag{i}"), TagKind::Hashtag))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<TagId>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Every thread must observe the same id for the same name.
        for ids in &results[1..] {
            assert_eq!(ids, &results[0]);
        }
        assert_eq!(interner.len(), 100);
    }
}
