//! Core data model for the EnBlogue emergent-topic detection system.
//!
//! EnBlogue (Alvanaki et al., SIGMOD 2011) monitors Web 2.0 document streams
//! and detects *emergent topics*: sudden shifts in the correlation of tag
//! pairs. Every crate in this workspace builds on the vocabulary defined
//! here:
//!
//! * [`Timestamp`] / [`TickSpec`] — stream time and its discretisation into
//!   fixed-width ticks,
//! * [`TagId`] / [`TagInterner`] — interned tags (categories, descriptors,
//!   hashtags, named entities, content terms),
//! * [`TagPair`] — the canonical unordered pair of tags that forms a
//!   candidate topic,
//! * [`Document`] — the stream tuple `(timestamp, docId, tags, entities)`
//!   from §4.1 of the paper, extended with optional raw text (input to the
//!   entity tagger) and interned content terms (input to the
//!   relative-entropy correlation measures),
//! * [`shard_of_packed`] — the fixed hash that assigns every pair key to
//!   one of the registry's shard stores,
//! * [`fxhash`] — a fast, DoS-unsafe hasher for id-keyed hot-path maps.
//!
//! # Example
//!
//! ```
//! use enblogue_types::{Document, TagInterner, TagKind, TagPair, Timestamp};
//!
//! let interner = TagInterner::new();
//! let iceland = interner.intern("iceland", TagKind::Category);
//! let volcano = interner.intern("volcano", TagKind::Descriptor);
//!
//! let doc = Document::builder(7, Timestamp::from_hours(12))
//!     .tag(iceland)
//!     .tag(volcano)
//!     .build();
//! assert!(doc.has_tag(iceland));
//!
//! let pair = TagPair::new(volcano, iceland);
//! assert_eq!(pair, TagPair::new(iceland, volcano), "pairs are unordered");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod doc;
pub mod error;
pub mod fxhash;
pub mod pair;
pub mod ranking;
pub mod tag;
pub mod time;

pub use doc::{Document, DocumentBuilder, SourceId};
pub use error::EnBlogueError;
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use pair::{shard_of_packed, TagPair};
pub use ranking::RankingSnapshot;
pub use tag::{DocId, TagId, TagInterner, TagKind};
pub use time::{Tick, TickSpec, Timestamp};
