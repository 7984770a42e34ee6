//! The four benchmark workloads: inputs generated from the seed, the
//! pinned semantic knobs, and what each one is for.
//!
//! Only *semantic* knobs (tick width, window, seeds, top-k, support, the
//! pair cap, the event-time and guard policy) are set here. Execution
//! knobs (`shards`, `parallel_close`, `ingest_workers`, `scoring_mode`,
//! `IngestConfig`) stay at the library defaults, so every workload prices
//! what a user gets out of the box.

use enblogue::datagen::hostile::{HostileConfig, HostileWorkload};
use enblogue::datagen::nyt::{NytArchive, NytConfig};
use enblogue::datagen::zipf::Zipf;
use enblogue::datagen::{CorrelationEvent, EventScript, RampShape, Vocabulary};
use enblogue::prelude::*;
use enblogue::types::TagKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The default `--seed`; `HELD_OUT_SEED` is never used while developing
/// a change and validates its claim afterwards (see README.md).
pub const DEFAULT_SEED: u64 = 20_110_612;
/// See [`DEFAULT_SEED`].
pub const HELD_OUT_SEED: u64 = 4_294_967_311;

/// Workload names, in the order BENCHMARK.json lists them.
pub const NAMES: [&str; 4] = ["replay-zipf", "wide-close", "live-hostile", "archive-nyt"];

/// Which production feed path a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `IngestPipeline::run` (batched, partition workers) into the stage
    /// pipeline; no reader during ingest.
    Replay,
    /// One arrival at a time through `offer_doc` / `finish_event_stream`
    /// with a concurrent reader thread.
    Live,
    /// Per tick: entity-tag raw text, `process_docs`, `close_tick`, then a
    /// subscription sweep and drill-down reads on the feeder thread.
    Archive,
}

/// Full size (what BENCHMARK.json freezes) or the `--smoke` size that
/// runs all checks in well under a second per workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// One generated workload.
pub struct Workload {
    pub name: &'static str,
    pub driver: Driver,
    /// Engine configuration of the production passes.
    pub config: EnBlogueConfig,
    /// What the feeder hands in, in arrival order (`Live`: late and
    /// duplicated; `Archive`: raw text, no entities yet).
    pub arrivals: Vec<Document>,
    /// The clean, sorted, fully annotated stream the reference replay
    /// runs over, when it differs from `arrivals`.
    pub clean: Option<Vec<Document>>,
    pub interner: TagInterner,
    /// Planted events (ground truth of `planted_recall`).
    pub script: EventScript,
    pub detail: PublishDetail,
    pub tagger: Option<EntityTagger>,
    /// One profile per subscription the readers hold.
    pub profiles: Vec<UserProfile>,
}

impl Workload {
    /// The stream the reference replay and the staged pass's inputs are
    /// judged against.
    pub fn clean_docs(&self) -> &[Document] {
        self.clean.as_deref().unwrap_or(&self.arrivals)
    }

    /// The configuration of the reference replay and of the staged pass:
    /// the production one with the event-time layer off, because the
    /// reference sees the clean stream and the staged pass runs reorder
    /// buffer and guard itself, outside the pipeline.
    pub fn clean_config(&self) -> EnBlogueConfig {
        EnBlogueConfig {
            event_time: EventTimeConfig::disabled(),
            source_guard: SourceGuardConfig::disabled(),
            ..self.config.clone()
        }
    }

    /// Grace period of the recall evaluation: one correlation window.
    pub fn grace_ms(&self) -> u64 {
        self.config.window_ms()
    }
}

/// Generates workload `name` from `seed`. `None` for an unknown name.
pub fn build(name: &str, seed: u64, scale: Scale) -> Option<Workload> {
    let smoke = scale == Scale::Smoke;
    Some(match name {
        "replay-zipf" => replay_zipf(seed, smoke),
        "wide-close" => wide_close(seed, smoke),
        "live-hostile" => live_hostile(seed, smoke),
        "archive-nyt" => archive_nyt(seed, smoke),
        _ => return None,
    })
}

/// Shape of a synthetic Zipf-tagged stream.
struct ZipfShape {
    ticks: u64,
    docs_per_tick: usize,
    tags: usize,
    zipf_s: f64,
    tags_per_doc: usize,
    /// `(first tick, share of documents, cluster size)` of a bursting
    /// tag cluster whose documents draw every tag from the cluster.
    burst: Option<(u64, f64, usize)>,
    /// Planted pair events: `(rank a, rank b, first tick, ticks, docs per
    /// tick)`; that many documents per tick get both tags.
    planted: Vec<(usize, usize, u64, u64, usize)>,
}

/// Zipf background chatter with named tags, an optional bursting cluster
/// (the `perf_rebalance` shape) and planted pair events as ground truth.
fn zipf_stream(shape: &ZipfShape, seed: u64) -> (Vec<Document>, TagInterner, EventScript) {
    let interner = TagInterner::new();
    let cluster_size = shape.burst.map_or(0, |(_, _, n)| n);
    let vocab =
        Vocabulary::generate(&interner, TagKind::Hashtag, shape.tags + cluster_size, seed ^ 0x7A65);
    // The cluster sits just outside the Zipf head so the burst, not the
    // background, is what makes it hot.
    let cluster: Vec<TagId> = (0..cluster_size).map(|i| vocab.id(shape.tags + i)).collect();
    let zipf = Zipf::new(shape.tags, shape.zipf_s);
    let mut rng = StdRng::seed_from_u64(seed);
    let hour = |tick: u64| Timestamp::from_hours(tick);

    let mut script = EventScript::new();
    if let Some((start, _, _)) = shape.burst {
        for i in 0..cluster.len() {
            for j in i + 1..cluster.len() {
                script.push(CorrelationEvent::new(
                    format!("burst-{i}-{j}"),
                    cluster[i],
                    cluster[j],
                    hour(start),
                    hour(shape.ticks),
                    shape.docs_per_tick as f64,
                    RampShape::Step,
                ));
            }
        }
    }
    for (n, &(a, b, start, len, rate)) in shape.planted.iter().enumerate() {
        script.push(CorrelationEvent::new(
            format!("planted-{n}"),
            vocab.id(a),
            vocab.id(b),
            hour(start),
            hour(start + len),
            rate as f64,
            RampShape::Step,
        ));
    }

    let mut docs = Vec::with_capacity(shape.ticks as usize * shape.docs_per_tick);
    let mut id = 0u64;
    for tick in 0..shape.ticks {
        // Planted documents come first in the tick: `(rank a, rank b)`
        // per document still owed.
        let mut owed: Vec<(usize, usize)> = Vec::new();
        for &(a, b, start, len, rate) in &shape.planted {
            if (start..start + len).contains(&tick) {
                owed.extend(std::iter::repeat_n((a, b), rate));
            }
        }
        for n in 0..shape.docs_per_tick {
            id += 1;
            let mut tags: Vec<TagId> = Vec::with_capacity(shape.tags_per_doc);
            if let Some(&(a, b)) = owed.get(n) {
                tags.extend([vocab.id(a), vocab.id(b)]);
            }
            let burst = owed.get(n).is_none()
                && shape
                    .burst
                    .is_some_and(|(start, share, _)| tick >= start && rng.gen_bool(share));
            let mut attempts = 0;
            while tags.len() < shape.tags_per_doc && attempts < 32 {
                attempts += 1;
                let tag = if burst {
                    cluster[rng.gen_range(0..cluster.len())]
                } else {
                    vocab.id(zipf.sample(&mut rng))
                };
                if !tags.contains(&tag) {
                    tags.push(tag);
                }
            }
            docs.push(Document::builder(id, hour(tick)).tags(tags).build());
        }
    }
    (docs, interner, script)
}

/// Subscriber profiles over named tags: each boosts one category tag
/// and one keyword, so every personalised read re-ranks for real.
fn profiles(count: usize, interner: &TagInterner, tags: &[TagId]) -> Vec<UserProfile> {
    (0..count)
        .map(|user| {
            let category = tags[user % tags.len()];
            let keyword = interner.name(tags[(user * 7 + 3) % tags.len()]).expect("interned tag");
            UserProfile::new(format!("user{user}"))
                .with_category(category)
                .with_keyword(keyword.to_string())
        })
        .collect()
}

fn hashtag_profiles(count: usize, interner: &TagInterner) -> Vec<UserProfile> {
    profiles(count, interner, &interner.ids_of_kind(TagKind::Hashtag))
}

fn replay_zipf(seed: u64, smoke: bool) -> Workload {
    let shape = if smoke {
        ZipfShape {
            ticks: 10,
            docs_per_tick: 600,
            tags: 600,
            zipf_s: 1.1,
            tags_per_doc: 4,
            burst: Some((3, 0.4, 5)),
            planted: Vec::new(),
        }
    } else {
        ZipfShape {
            ticks: 48,
            docs_per_tick: 10_000,
            tags: 3_000,
            zipf_s: 1.1,
            tags_per_doc: 4,
            burst: Some((10, 0.4, 5)),
            planted: Vec::new(),
        }
    };
    let (arrivals, interner, script) = zipf_stream(&shape, seed);
    let config = EnBlogueConfig::builder()
        .tick_spec(TickSpec::hourly())
        .window_ticks(6)
        .seed_count(30)
        .min_seed_count(3)
        .min_pair_support(1)
        .top_k(20)
        .max_tracked_pairs(200_000)
        .build()
        .expect("valid replay-zipf config");
    Workload {
        name: "replay-zipf",
        driver: Driver::Replay,
        config,
        profiles: hashtag_profiles(64, &interner),
        arrivals,
        clean: None,
        interner,
        script,
        detail: PublishDetail::Ranked,
        tagger: None,
    }
}

fn wide_close(seed: u64, smoke: bool) -> Workload {
    // Planted pairs couple a mid-head tag (always a seed, but rare
    // enough that the event dominates its volume) with a tail tag that
    // never meets it by chance.
    let shape = if smoke {
        ZipfShape {
            ticks: 12,
            docs_per_tick: 400,
            tags: 2_000,
            zipf_s: 0.7,
            tags_per_doc: 5,
            burst: None,
            planted: vec![(20, 900, 6, 4, 12)],
        }
    } else {
        ZipfShape {
            ticks: 60,
            docs_per_tick: 2_500,
            tags: 20_000,
            zipf_s: 0.7,
            tags_per_doc: 3,
            burst: None,
            planted: vec![
                (40, 9_000, 20, 8, 40),
                (55, 12_000, 30, 8, 40),
                (70, 15_000, 40, 8, 40),
                (85, 18_000, 48, 8, 40),
            ],
        }
    };
    let (arrivals, interner, script) = zipf_stream(&shape, seed);
    let config = EnBlogueConfig::builder()
        .tick_spec(TickSpec::hourly())
        .window_ticks(30)
        .seed_count(2_000)
        .min_seed_count(2)
        .min_pair_support(1)
        // Short memory: the cold-start pairs of the first ticks (two tags
        // seen once, together) must have decayed before the planted
        // events start, or they fill the top-k for the whole run.
        .half_life_ms(6 * Timestamp::HOUR)
        .top_k(20)
        .max_tracked_pairs(if smoke { 4_000 } else { 140_000 })
        .build()
        .expect("valid wide-close config");
    Workload {
        name: "wide-close",
        driver: Driver::Replay,
        config,
        profiles: hashtag_profiles(64, &interner),
        arrivals,
        clean: None,
        interner,
        script,
        detail: PublishDetail::Ranked,
        tagger: None,
    }
}

fn live_hostile(seed: u64, smoke: bool) -> Workload {
    const MAX_DELAY_TICKS: u64 = 3;
    let hostile = if smoke {
        HostileConfig { seed, hours: 60, docs_per_hour: 60, n_tags: 60, n_sources: 12 }
    } else {
        HostileConfig { seed, hours: 2_000, docs_per_hour: 500, n_tags: 400, n_sources: 40 }
    };
    let storm = HostileWorkload::late_arrival_storm(&hostile, MAX_DELAY_TICKS);
    // Re-emit ~15% of the arrivals as exact `(source, doc)` duplicates,
    // each right behind its original (the feed-replay failure).
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD0_0B1E);
    let mut arrivals: Vec<Document> = Vec::with_capacity(storm.arrivals.len() * 116 / 100);
    for doc in storm.arrivals {
        let echo = rng.gen_bool(0.15).then(|| doc.clone());
        arrivals.push(doc);
        arrivals.extend(echo);
    }
    // The cap sits far above any honest source's rate, so only the dedup
    // window ever rejects a document.
    let guard = SourceGuardConfig {
        enabled: true,
        dedup_window_ticks: 4,
        rate_limit_per_tick: 6.0 * hostile.docs_per_hour as f64 / f64::from(hostile.n_sources),
        rate_burst: 0.0,
    };
    let config = EnBlogueConfig::builder()
        .tick_spec(TickSpec::hourly())
        .window_ticks(24)
        .seed_count(20)
        .min_seed_count(2)
        .min_pair_support(2)
        .top_k(10)
        .bounded_lateness(MAX_DELAY_TICKS)
        .source_guard(guard)
        .build()
        .expect("valid live-hostile config");
    Workload {
        name: "live-hostile",
        driver: Driver::Live,
        config,
        profiles: hashtag_profiles(64, &storm.interner),
        arrivals,
        clean: Some(storm.clean),
        interner: storm.interner,
        script: storm.script,
        detail: PublishDetail::Ranked,
        tagger: None,
    }
}

fn archive_nyt(seed: u64, smoke: bool) -> Workload {
    let nyt = if smoke {
        NytConfig {
            seed,
            days: 30,
            docs_per_day: 50,
            n_categories: 10,
            n_descriptors: 80,
            n_entities: 50,
            n_terms: 200,
            historic_events: 3,
        }
    } else {
        NytConfig {
            seed,
            days: 180,
            docs_per_day: 300,
            n_categories: 20,
            n_descriptors: 160,
            n_entities: 120,
            n_terms: 500,
            historic_events: 6,
        }
    };
    let archive = NytArchive::generate(&nyt);
    let tagger = EntityTagger::new(Arc::clone(&archive.universe.gazetteer));
    // The reference stream is the archive tagged once, up front: entity
    // ids are interned here in document order, and every later pass that
    // re-tags from raw text resolves to the same ids.
    let clean: Vec<Document> = archive
        .docs
        .iter()
        .map(|doc| {
            let mut doc = doc.clone();
            tag_entities(&tagger, &archive.interner, &mut doc);
            doc
        })
        .collect();
    // `daily_config` of the bench crate: the Show Case 1 semantics.
    let config = EnBlogueConfig::builder()
        .tick_spec(TickSpec::daily())
        .window_ticks(7)
        .seed_count(30)
        .min_seed_count(3)
        .top_k(10)
        .min_pair_support(3)
        .use_entities(true)
        .build()
        .expect("valid archive-nyt config");
    let categories: Vec<TagId> = archive.categories.ids().to_vec();
    Workload {
        name: "archive-nyt",
        driver: Driver::Archive,
        config,
        profiles: profiles(256, &archive.interner, &categories),
        arrivals: archive.docs,
        clean: Some(clean),
        interner: archive.interner,
        script: archive.script,
        detail: PublishDetail::Full,
        tagger: Some(tagger),
    }
}

/// Tags `doc` from its raw text the way the engine's `EntityTagOp` does:
/// mentions interned as entities, annotations normalised, text dropped.
/// Returns `(text bytes scanned, mentions found)`.
pub fn tag_entities(
    tagger: &EntityTagger,
    interner: &TagInterner,
    doc: &mut Document,
) -> (u64, u64) {
    let Some(text) = doc.text.take() else { return (0, 0) };
    let mentions = tagger.tag_text(&text);
    for mention in &mentions {
        doc.entities.push(interner.intern(&mention.name, TagKind::Entity));
    }
    doc.normalize();
    (text.len() as u64, mentions.len() as u64)
}
