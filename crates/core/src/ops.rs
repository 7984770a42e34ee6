//! The EnBlogue components wrapped as stream operators.
//!
//! §4.1: "Data is represented in form of a tuple … consumed by stream
//! operators and pushed along producer-consumer edges in query-processing
//! plans. The filtered and manipulated data items finally arrive at sinks
//! in the operator DAG. One of the sinks is the operator that computes the
//! final rankings of emergent topics and sends them to our Web server for
//! visualization."

use crate::config::EnBlogueConfig;
use crate::engine::EnBlogueEngine;
use crate::notify::PushBroker;
use crate::stages::StagePipeline;
use enblogue_entity::tagger::EntityTagger;
use enblogue_stream::event::Event;
use enblogue_stream::operator::{EventSink, Operator};
use enblogue_types::{Document, RankingSnapshot, TagId, TagInterner, TagKind};
use std::sync::{Arc, Mutex};

/// Shared handle to the snapshots emitted by an [`EngineOp`].
pub type SnapshotHandle = Arc<Mutex<Vec<RankingSnapshot>>>;

/// Entity-tagging operator: scans document text, fills `entities`.
///
/// Canonical entity names are interned under [`TagKind::Entity`] so they
/// live in the same id space as regular tags ("these entity tags can …
/// be combined with regular tags to detect tag/entity mixtures as emergent
/// topics", §3). The raw text is dropped afterwards to bound memory.
///
/// Two `EntityTagOp`s built from the *same* tagger and interner share the
/// same signature and are deduplicated across plans — exactly the paper's
/// "entity tagging … shared for efficiency".
pub struct EntityTagOp {
    tagger: Arc<EntityTagger>,
    interner: TagInterner,
    /// By entity id: the interned tag, resolved on the entity's first
    /// mention so a repeat mention never touches the interner.
    entity_tags: Vec<Option<TagId>>,
    keep_text: bool,
    /// Documents processed (metrics).
    tagged_docs: u64,
    /// Mentions found (metrics).
    mentions: u64,
}

impl EntityTagOp {
    /// An operator around `tagger`, interning into `interner`.
    pub fn new(tagger: Arc<EntityTagger>, interner: TagInterner) -> Self {
        let entity_tags = vec![None; tagger.gazetteer().entity_count()];
        EntityTagOp { tagger, interner, entity_tags, keep_text: false, tagged_docs: 0, mentions: 0 }
    }

    /// Keeps the raw text on documents (for downstream debugging).
    #[must_use]
    pub fn keep_text(mut self) -> Self {
        self.keep_text = true;
        self
    }

    fn tag_doc(&mut self, doc: &mut Document) {
        if let Some(text) = doc.text.as_deref() {
            self.tagged_docs += 1;
            for mention in self.tagger.tag_text(text) {
                self.mentions += 1;
                let id = *self.entity_tags[mention.entity.index()]
                    .get_or_insert_with(|| self.interner.intern(&mention.name, TagKind::Entity));
                doc.entities.push(id);
            }
            doc.normalize();
            if !self.keep_text {
                doc.clear_text();
            }
        }
    }
}

impl Operator for EntityTagOp {
    fn name(&self) -> &str {
        "entity-tag"
    }

    fn signature(&self) -> String {
        // Same dictionary instance ⇒ same function ⇒ shareable.
        format!("entity-tag:{:p}:{}", Arc::as_ptr(&self.tagger), self.keep_text)
    }

    fn process(&mut self, event: Event, out: &mut dyn EventSink) {
        match event {
            Event::Doc(mut doc) => {
                self.tag_doc(&mut doc);
                out.emit(Event::Doc(doc));
            }
            Event::DocBatch(mut docs) => {
                for doc in &mut docs {
                    self.tag_doc(doc);
                }
                out.emit(Event::DocBatch(docs));
            }
            other => out.emit(other),
        }
    }
}

/// The ranking sink: a thin DAG adapter over the shared
/// [`StagePipeline`].
///
/// Documents feed the pipeline, tick boundaries close it through the
/// shared gap-closing path, every snapshot lands in a shared handle and
/// (optionally) a [`PushBroker`]. All EnBlogue semantics live in
/// [`crate::stages`] — this operator only translates stream events, so the
/// DAG executor and the stand-alone engine are guaranteed to agree.
pub struct EngineOp {
    name: String,
    pipeline: StagePipeline,
    snapshots: SnapshotHandle,
    broker: Option<PushBroker>,
}

impl EngineOp {
    /// A sink named `name` around `engine`.
    ///
    /// Names must be unique per plan — the signature embeds the handle, so
    /// two `EngineOp`s are never shared (each owns pipeline state).
    pub fn new(name: impl Into<String>, engine: EnBlogueEngine) -> Self {
        Self::from_pipeline(name, engine.into_pipeline())
    }

    /// A sink named `name` running a fresh standard pipeline for `config`.
    pub fn from_config(name: impl Into<String>, config: EnBlogueConfig) -> Self {
        Self::from_pipeline(name, StagePipeline::new(config))
    }

    /// A sink named `name` around an explicit (possibly extended)
    /// pipeline.
    pub fn from_pipeline(name: impl Into<String>, pipeline: StagePipeline) -> Self {
        EngineOp {
            name: name.into(),
            pipeline,
            snapshots: Arc::new(Mutex::new(Vec::new())),
            broker: None,
        }
    }

    /// Attaches a push broker; every snapshot is published to it.
    #[must_use]
    pub fn with_broker(mut self, broker: PushBroker) -> Self {
        self.broker = Some(broker);
        self
    }

    /// Handle to the emitted snapshots.
    pub fn handle(&self) -> SnapshotHandle {
        Arc::clone(&self.snapshots)
    }

    /// The wrapped pipeline (read access).
    pub fn pipeline(&self) -> &StagePipeline {
        &self.pipeline
    }
}

impl Operator for EngineOp {
    fn name(&self) -> &str {
        &self.name
    }

    fn signature(&self) -> String {
        format!("engine:{}:{:p}", self.name, Arc::as_ptr(&self.snapshots))
    }

    fn process(&mut self, event: Event, out: &mut dyn EventSink) {
        match &event {
            Event::Doc(doc) => self.pipeline.process_doc(doc),
            // Whole tick slices take the batch fast path: one partitioning
            // pre-pass, shard-bucketed pair application.
            Event::DocBatch(docs) => self.pipeline.process_docs(docs),
            Event::TickBoundary(tick) => {
                // Close every tick up to and including the boundary, so gap
                // ticks keep the correlation histories tick-aligned.
                let broker = self.broker.as_ref();
                let snapshots = &self.snapshots;
                self.pipeline.close_through(*tick, |snapshot| {
                    if let Some(broker) = broker {
                        broker.publish(&snapshot);
                    }
                    snapshots.lock().unwrap().push(snapshot);
                });
            }
            Event::Flush => {}
        }
        // Forward everything: downstream sinks (e.g. meters) may follow.
        out.emit(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enblogue_entity::gazetteer::GazetteerBuilder;
    use enblogue_types::{Document, Tick, TickSpec, Timestamp};

    fn tagger() -> Arc<EntityTagger> {
        let mut b = GazetteerBuilder::default();
        b.add_title("Barack Obama");
        b.add_redirect("Obama", "Barack Obama");
        Arc::new(EntityTagger::new(Arc::new(b.build())))
    }

    #[test]
    fn entity_op_fills_entities_and_drops_text() {
        let interner = TagInterner::new();
        let mut op = EntityTagOp::new(tagger(), interner.clone());
        let doc = Document::builder(1, Timestamp::ZERO).text("Obama speaks").build();
        let mut out: Vec<Event> = Vec::new();
        op.process(Event::Doc(doc), &mut out);
        let tagged = out[0].as_doc().unwrap();
        assert_eq!(tagged.entities.len(), 1);
        let id = interner.get("barack obama", TagKind::Entity).expect("canonical name interned");
        assert!(tagged.has_entity(id));
        assert!(tagged.text.is_none(), "text dropped after tagging");
    }

    #[test]
    fn entity_op_repeat_mentions_resolve_to_the_interned_tag() {
        let interner = TagInterner::new();
        let mut op = EntityTagOp::new(tagger(), interner.clone());
        let mut out: Vec<Event> = Vec::new();
        for (id, text) in [(1, "Obama speaks"), (2, "Barack Obama again, says Obama")] {
            op.process(
                Event::Doc(Document::builder(id, Timestamp::ZERO).text(text).build()),
                &mut out,
            );
        }
        let tag = interner.get("barack obama", TagKind::Entity).expect("canonical name interned");
        assert_eq!(interner.len(), 1, "one entity, interned once");
        for event in &out {
            assert_eq!(event.as_doc().unwrap().entities, vec![tag]);
        }
        assert_eq!((op.tagged_docs, op.mentions), (2, 3));
    }

    #[test]
    fn entity_op_keep_text_mode() {
        let mut op = EntityTagOp::new(tagger(), TagInterner::new()).keep_text();
        let doc = Document::builder(1, Timestamp::ZERO).text("Obama speaks").build();
        let mut out: Vec<Event> = Vec::new();
        op.process(Event::Doc(doc), &mut out);
        assert!(out[0].as_doc().unwrap().text.is_some());
    }

    #[test]
    fn entity_op_passes_docs_without_text() {
        let mut op = EntityTagOp::new(tagger(), TagInterner::new());
        let doc = Document::builder(1, Timestamp::ZERO).build();
        let mut out: Vec<Event> = Vec::new();
        op.process(Event::Doc(doc), &mut out);
        assert!(out[0].as_doc().unwrap().entities.is_empty());
    }

    #[test]
    fn entity_op_signature_shares_same_tagger_only() {
        let interner = TagInterner::new();
        let shared = tagger();
        let a = EntityTagOp::new(Arc::clone(&shared), interner.clone());
        let b = EntityTagOp::new(shared, interner.clone());
        let c = EntityTagOp::new(tagger(), interner);
        assert_eq!(a.signature(), b.signature());
        assert_ne!(a.signature(), c.signature());
    }

    fn engine() -> EnBlogueEngine {
        EnBlogueEngine::new(
            EnBlogueConfig::builder()
                .tick_spec(TickSpec::hourly())
                .window_ticks(4)
                .seed_count(4)
                .min_seed_count(1)
                .top_k(3)
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn engine_op_snapshots_per_boundary() {
        let mut op = EngineOp::new("e1", engine());
        let handle = op.handle();
        let mut out: Vec<Event> = Vec::new();
        let doc = Document::builder(1, Timestamp::ZERO).tags([enblogue_types::TagId(1)]).build();
        op.process(Event::Doc(doc), &mut out);
        op.process(Event::TickBoundary(Tick(0)), &mut out);
        op.process(Event::TickBoundary(Tick(3)), &mut out); // gap: closes 1,2,3
        op.process(Event::Flush, &mut out);
        let snaps = handle.lock().unwrap();
        assert_eq!(snaps.len(), 4, "ticks 0..=3 closed");
        assert_eq!(snaps[0].tick, Tick(0));
        assert_eq!(snaps[3].tick, Tick(3));
        assert_eq!(out.len(), 4, "engine op forwards all events");
    }

    #[test]
    fn engine_op_doc_batches_match_per_doc_feeding() {
        let docs: Vec<Document> = (0..40)
            .map(|i| {
                Document::builder(i, Timestamp::from_hours(i / 10))
                    .tags([enblogue_types::TagId((i % 3) as u32), enblogue_types::TagId(7)])
                    .build()
            })
            .collect();
        let run = |batched: bool| {
            let mut op = EngineOp::new("e1", engine());
            let handle = op.handle();
            let mut out: Vec<Event> = Vec::new();
            for t in 0..4u64 {
                let slice: Vec<Document> = docs
                    .iter()
                    .filter(|d| d.timestamp.as_millis() / Timestamp::HOUR == t)
                    .cloned()
                    .collect();
                if batched {
                    op.process(Event::DocBatch(slice), &mut out);
                } else {
                    for d in slice {
                        op.process(Event::Doc(d), &mut out);
                    }
                }
                op.process(Event::TickBoundary(Tick(t)), &mut out);
            }
            op.process(Event::Flush, &mut out);
            let snaps = handle.lock().unwrap().clone();
            snaps
        };
        assert_eq!(run(true), run(false), "batching is invisible in snapshots");
    }

    #[test]
    fn entity_op_tags_batches() {
        let interner = TagInterner::new();
        let mut op = EntityTagOp::new(tagger(), interner.clone());
        let batch = vec![
            Document::builder(1, Timestamp::ZERO).text("Obama speaks").build(),
            Document::builder(2, Timestamp::ZERO).build(),
        ];
        let mut out: Vec<Event> = Vec::new();
        op.process(Event::DocBatch(batch), &mut out);
        let docs = out[0].docs();
        assert_eq!(docs.len(), 2);
        assert_eq!(docs[0].entities.len(), 1);
        assert!(docs[0].text.is_none());
        assert!(docs[1].entities.is_empty());
    }

    #[test]
    fn engine_op_publishes_to_broker() {
        let broker = PushBroker::new(TagInterner::new());
        let rx = broker.subscribe(crate::notify::PushSubscription::new(
            crate::personalization::UserProfile::new("u1"),
            5,
        ));
        let mut op = EngineOp::new("e1", engine()).with_broker(broker);
        let mut out: Vec<Event> = Vec::new();
        // Two correlated tags over several ticks to force a ranking change.
        let mut id = 0;
        for t in 0..4u64 {
            for _ in 0..3 {
                id += 1;
                let d = Document::builder(id, Timestamp::from_hours(t))
                    .tags([enblogue_types::TagId(1)])
                    .build();
                op.process(Event::Doc(d), &mut out);
            }
            op.process(Event::TickBoundary(Tick(t)), &mut out);
        }
        for t in 4..6u64 {
            for _ in 0..3 {
                id += 1;
                let d = Document::builder(id, Timestamp::from_hours(t))
                    .tags([enblogue_types::TagId(1), enblogue_types::TagId(2)])
                    .build();
                op.process(Event::Doc(d), &mut out);
            }
            op.process(Event::TickBoundary(Tick(t)), &mut out);
        }
        let mut updates = 0;
        while rx.try_recv().is_ok() {
            updates += 1;
        }
        assert!(updates >= 1, "the emerging pair must trigger at least one push");
    }

    #[test]
    fn engine_ops_are_never_shared() {
        let a = EngineOp::new("e", engine());
        let b = EngineOp::new("e", engine());
        assert_ne!(a.signature(), b.signature());
    }
}
