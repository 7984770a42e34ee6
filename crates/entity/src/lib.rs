//! Entity tagging substrate for EnBlogue.
//!
//! From §3 of the paper: "When a document arrives, we scan its text content
//! with a sliding window of up to 4 successive terms, and check whether
//! substrings of these match the title of a Wikipedia article. These checks
//! also consider Wikipedia redirects which we use to map different namings
//! of a single entity to one unique name. In addition, we have implemented
//! a second filter consisting of lookups in an ontology (e.g., YAGO), which
//! allows us to focus on particular entity types."
//!
//! * [`mod@tokenize`] — text → normalised term sequence (one normaliser
//!   for text and dictionary keys),
//! * [`gazetteer`] — the title dictionary with redirect canonicalisation
//!   (the Wikipedia substitute; populated synthetically by
//!   `enblogue-datagen`), compiled into a token vocabulary and a phrase
//!   trie,
//! * [`ontology`] — a typed DAG with transitive subtype filtering (the
//!   YAGO substitute),
//! * [`tagger`] — the longest-match tagger combining all three in one
//!   pass over the text; [`EntityTagger::tag_document`] turns a
//!   document's raw text into interned entity annotations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gazetteer;
pub mod ontology;
pub mod tagger;
pub mod tokenize;

pub use gazetteer::{EntityId, Gazetteer, GazetteerBuilder};
pub use ontology::{Ontology, OntologyBuilder, TypeId};
pub use tagger::{EntityTagger, Mention};
pub use tokenize::tokenize;
