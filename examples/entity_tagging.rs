//! Entity tagging end-to-end: gazetteer, redirects, ontology filter, and
//! tag/entity mixture topics.
//!
//! Demonstrates §3's entity pipeline: a ≤4-term sliding window over the
//! text matched against article titles, redirects mapping aliases to one
//! unique name, and a YAGO-style type filter — then a replay where an
//! *entity* pairs with a regular tag to form the emergent topic.
//!
//! Run with: `cargo run --release --example entity_tagging`

use enblogue::prelude::*;
use enblogue_datagen::entities::{EntityClass, EntityUniverse};
use std::sync::Arc;

fn main() {
    // A synthetic Wikipedia/YAGO substitute: titles, aliases, type DAG.
    let universe = EntityUniverse::generate(300, 99);
    println!(
        "Entity universe: {} entities, {} dictionary phrases ({} redirects)\n",
        universe.gazetteer.entity_count(),
        universe.gazetteer.phrase_count(),
        universe.gazetteer.redirect_count(),
    );

    // 1. Plain tagging with redirect resolution.
    let tagger = EntityTagger::new(Arc::clone(&universe.gazetteer));
    let person = universe
        .of_class(EntityClass::Person)
        .find(|e| !e.aliases.is_empty())
        .expect("aliased person");
    let place = universe.of_class(EntityClass::Place).next().expect("a place");
    let text = format!(
        "breaking: {} was seen near {} yesterday — {} declined to comment",
        person.name, place.name, person.aliases[0]
    );
    println!("text: {text}");
    for mention in tagger.tag_text(&text) {
        println!(
            "  tokens {}..{} → `{}`",
            mention.token_start,
            mention.token_start + mention.token_len,
            mention.name
        );
    }
    println!("  (note: the alias `{}` resolved to the canonical name)\n", person.aliases[0]);

    // 2. Ontology-filtered tagging: "focus on particular entity types".
    let person_type = universe.type_of_class(EntityClass::Person);
    let people_only = EntityTagger::new(Arc::clone(&universe.gazetteer))
        .with_ontology(Arc::clone(&universe.ontology))
        .with_type_filter(vec![person_type]);
    let filtered = people_only.tag_text(&text);
    println!("people-only filter finds {} mention(s):", filtered.len());
    for mention in &filtered {
        println!("  `{}`", mention.name);
    }

    // 3. Tag/entity mixtures as emergent topics: a stream where the
    // `protest` hashtag suddenly co-occurs with one specific person.
    let interner = TagInterner::new();
    let protest = interner.intern("protest", TagKind::Hashtag);
    let chatter = interner.intern("chatter", TagKind::Hashtag);
    let mut docs = Vec::new();
    let mut id = 0;
    for hour in 0..24u64 {
        for slot in 0..10u64 {
            id += 1;
            let ts = Timestamp::from_hours(hour).plus(slot * 6 * Timestamp::MINUTE);
            let mention_person = hour >= 18 && slot % 2 == 0;
            let body = if mention_person {
                format!("crowds gather as {} arrives", person.name)
            } else {
                format!("nothing happening near {}", place.name)
            };
            let tag = if slot % 3 == 0 { chatter } else { protest };
            docs.push(Document::builder(id, ts).tag(tag).text(body).build());
        }
    }
    // Tag every document once: mentions become entity annotations, the
    // raw text is dropped.
    let mentions: usize = docs.iter_mut().map(|doc| tagger.tag_document(&interner, doc)).sum();
    println!("\ntagged {} documents: {mentions} entity mentions", docs.len());

    let engine_config = EnBlogueConfig::builder()
        .tick_spec(TickSpec::hourly())
        .window_ticks(8)
        .seed_count(10)
        .min_seed_count(2)
        .top_k(5)
        .build()
        .expect("valid config");
    let snaps = EnBlogueEngine::new(engine_config).run_replay(&docs);
    let last = snaps.last().expect("stream closed at least one tick");
    println!("\nEmergent topics after the hour-18 shift (tag/entity mixtures):");
    for (rank, &(pair, score)) in last.ranked.iter().enumerate() {
        let kind = |t: TagId| interner.kind(t).map(|k| k.label()).unwrap_or("?");
        println!(
            "  #{} [{} ({}) + {} ({})]  score {:.3}",
            rank + 1,
            interner.display(pair.lo()),
            kind(pair.lo()),
            interner.display(pair.hi()),
            kind(pair.hi()),
            score
        );
    }
    let person_entity = interner.get(&person.name, TagKind::Entity).expect("entity was interned");
    let mixture = TagPair::new(protest, person_entity);
    assert!(last.rank_of(mixture).is_some(), "the protest/person mixture must rank: {last:?}");
    println!("\nThe hashtag–person pair ranked — a topic no single-tag view could name.");
}
