//! The passes: the production drivers that measure end-to-end metrics,
//! and the staged single-threaded pass that attributes time to layers.
//!
//! Everything here goes through the library's public API. A *production
//! pass* feeds a fresh pipeline the way a user of that path would
//! (`IngestPipeline::run` behind a timing sink, `offer_doc` per arrival
//! next to a reader thread, or tag → `process_docs` → close → reads per
//! tick). The *staged pass* does the same job on one thread by calling
//! each layer's public function in turn with a span around every call.
//! Both must emit rankings byte-identical to the reference replay.

use crate::trace::Tracer;
use crate::workloads::{tag_entities, Driver, Workload};
use enblogue::ingest::{GuardVerdict, ReorderBuffer, SourceGuard};
use enblogue::prelude::*;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Named counts and layer times of one pass.
pub type Counts = BTreeMap<&'static str, f64>;

/// Checkpoint/restore round trips timed at the end of every production
/// pass (the staged pass makes one: it attributes time, and repeats
/// would only inflate the snapshot layer's share).
const ROUND_TRIPS: usize = 3;
/// Rounds of the post-ingest read burst on the `Replay` workloads.
const READ_BURST_ROUNDS: usize = 100;
/// Ranking depth every subscription and drill-down asks for.
const READ_TOP_K: usize = 10;

/// Read-side outcome of one pass. The default is a reader that may
/// start before the first publish; [`Reads::after_close`] is one that
/// only ever reads after a close.
#[derive(Debug, Default, Clone)]
pub struct Reads {
    /// Reads completed.
    pub done: u64,
    /// Reads that found no published view yet (before the first close).
    pub empty: u64,
    /// Reads that lost a view they had, saw an epoch go backwards, or
    /// got no answer for a ranked pair.
    pub failed: u64,
    /// Seconds spent reading.
    pub seconds: f64,
    /// A view has been published: from here on a read that finds none
    /// has failed.
    seen_view: bool,
}

impl Reads {
    /// A feeder-thread reader: every read follows a close, so a missing
    /// view is a failure from the first read on.
    fn after_close() -> Self {
        Reads { seen_view: true, ..Reads::default() }
    }
}

/// Everything one pass measured.
#[derive(Default)]
pub struct Pass {
    pub snapshots: Vec<RankingSnapshot>,
    /// Arrivals handed in (including ones guard/reorder later drop).
    pub offered: u64,
    /// First arrival handed in → last snapshot emitted.
    pub ingest_s: f64,
    /// The whole pass, set-up of the pipeline to the last round trip.
    pub wall_s: f64,
    /// Feeder stall of every call that sealed a tick.
    pub close_ms: Vec<f64>,
    pub reads: Reads,
    pub checkpoint_ms: Vec<f64>,
    pub restore_ms: Vec<f64>,
    /// Round trips whose restored engine differed from the original.
    pub round_trips_failed: u64,
    pub counts: Counts,
}

fn bump(counts: &mut Counts, name: &'static str, by: f64) {
    *counts.entry(name).or_default() += by;
}

fn raise(counts: &mut Counts, name: &'static str, to: f64) {
    let slot = counts.entry(name).or_default();
    *slot = slot.max(to);
}

fn ms(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// What every pass starts from: a fresh pipeline, the serving tier
/// attached at the workload's publish detail, one subscription per
/// profile.
struct Rig {
    pipeline: StagePipeline,
    handle: QueryHandle,
    subs: Vec<Subscription>,
}

impl Rig {
    fn new(w: &Workload, config: EnBlogueConfig) -> Self {
        let mut pipeline = StagePipeline::new(config);
        let serve = ServeConfig::default().with_detail(w.detail);
        let handle = QueryHandle::attach_pipeline(&mut pipeline, w.interner.clone(), serve);
        let subs =
            w.profiles.iter().map(|p| handle.subscribe(p.clone()).with_top_k(READ_TOP_K)).collect();
        Rig { pipeline, handle, subs }
    }
}

/// One personalised sweep: every subscription polls for a new epoch and
/// reads its current ranking.
fn sweep(subs: &mut [Subscription], reads: &mut Reads) {
    for sub in subs {
        let before = sub.last_epoch();
        if let Some((epoch, ranking)) = sub.poll() {
            if epoch <= before {
                reads.failed += 1;
            }
            black_box(ranking);
        }
        match sub.current() {
            Some(ranking) => {
                reads.seen_view = true;
                black_box(ranking);
            }
            None if reads.seen_view => reads.failed += 1,
            None => reads.empty += 1,
        }
        reads.done += 2;
    }
}

/// Drill-down reads over the displayed top-k: the tag view, the
/// correlation history and the pair stats of every ranked pair.
fn drill_down(handle: &QueryHandle, reads: &mut Reads) {
    let top = handle.top_k(READ_TOP_K);
    reads.done += 1;
    for &(pair, _) in &top {
        black_box(handle.pairs_with_tag(pair.lo()));
        let history = handle.pair_history(pair);
        let info = handle.pair_info(pair);
        if history.is_none() || info.is_none() {
            reads.failed += 1;
        }
        black_box((history, info));
        reads.done += 3;
    }
}

/// The reads a feeder thread issues right after a close.
fn reads_after_close(
    driver: Driver,
    handle: &QueryHandle,
    subs: &mut [Subscription],
    reads: &mut Reads,
) {
    let started = Instant::now();
    match driver {
        Driver::Replay => return,
        Driver::Live => sweep(subs, reads),
        Driver::Archive => {
            sweep(subs, reads);
            drill_down(handle, reads);
        }
    }
    reads.seconds += started.elapsed().as_secs_f64();
}

/// Index ranges of a tick-sorted slice, one per tick that has documents.
fn tick_ranges(docs: &[Document], spec: TickSpec) -> Vec<(Tick, Range<usize>)> {
    let mut ranges = Vec::new();
    let mut start = 0;
    while start < docs.len() {
        let tick = spec.tick_of(docs[start].timestamp);
        let len = docs[start..].partition_point(|d| spec.tick_of(d.timestamp) == tick);
        ranges.push((tick, start..start + len));
        start += len;
    }
    ranges
}

/// The `IngestSink` of the `Replay` production pass: the stage pipeline
/// behind a stopwatch on every tick close.
struct TimingSink<'a> {
    pipeline: &'a mut StagePipeline,
    tracer: &'a mut Tracer,
    pass: &'a mut Pass,
}

impl IngestSink for TimingSink<'_> {
    fn partition_spec(&self) -> PartitionSpec {
        self.pipeline.partition_spec()
    }

    fn apply_batch(&mut self, docs: &[Document], partitioned: &PartitionedBatch) {
        let span = self.tracer.begin("prod.apply", 0);
        self.pipeline.process_partitioned(docs, partitioned);
        self.tracer.end(span);
    }

    fn close_through(&mut self, tick: Tick) {
        let span = self.tracer.begin("prod.close", tick.0);
        let call = Instant::now();
        let snapshots = &mut self.pass.snapshots;
        self.pipeline.close_through(tick, |snapshot| snapshots.push(snapshot));
        self.pass.close_ms.push(ms(call));
        self.tracer.end(span);
    }
}

/// One production pass of `w` over `arrivals` (all of `w.arrivals`, or a
/// prefix for the warm-up) on a fresh pipeline. With a recording tracer
/// this is the *traced* production pass.
pub fn prod_pass(w: &Workload, arrivals: &[Document], tracer: &mut Tracer, scratch: &Path) -> Pass {
    let wall = Instant::now();
    let mut pass =
        Pass { offered: arrivals.len() as u64, reads: Reads::after_close(), ..Pass::default() };
    let mut rig = Rig::new(w, w.config.clone());
    let Rig { pipeline, handle, subs } = &mut rig;
    let spec = w.config.tick_spec;
    let root = tracer.begin("prod.ingest", 0);
    match w.driver {
        Driver::Replay => {
            let mut driver = IngestPipeline::new(IngestConfig::default());
            driver.attach_telemetry(pipeline.telemetry());
            let started = Instant::now();
            let mut sink = TimingSink { pipeline, tracer: &mut *tracer, pass: &mut pass };
            let stats = driver.run(&mut sink, arrivals);
            pass.ingest_s = started.elapsed().as_secs_f64();
            bump(&mut pass.counts, "ingest.pipeline.batches", stats.batches as f64);
            bump(&mut pass.counts, "ingest.pipeline.stalls", stats.queue_full_stalls as f64);
            bump(&mut pass.counts, "ingest.pipeline.stall_s", stats.stall_micros as f64 / 1e6);
        }
        Driver::Live => {
            let stop = AtomicBool::new(false);
            pass.reads = std::thread::scope(|scope| {
                let reader = scope.spawn(|| {
                    let mut reads = Reads::default();
                    let started = Instant::now();
                    // SeqCst: the flag orders nothing else, one total
                    // order is the simplest thing that is right.
                    while !stop.load(Ordering::SeqCst) {
                        sweep(subs, &mut reads);
                    }
                    reads.seconds = started.elapsed().as_secs_f64();
                    reads
                });
                let started = Instant::now();
                let mut newest: Option<Tick> = None;
                let snapshots = &mut pass.snapshots;
                for doc in arrivals {
                    // Only an arrival that advances the newest event tick
                    // moves the watermark, so only such a call can seal a
                    // tick: the others run without a clock read.
                    let tick = spec.tick_of(doc.timestamp);
                    if newest.is_some_and(|seen| tick <= seen) {
                        pipeline.offer_doc(doc, |s| snapshots.push(s));
                        continue;
                    }
                    newest = Some(tick);
                    let before = snapshots.len();
                    let span = tracer.begin("prod.offer_sealing", tick.0);
                    let call = Instant::now();
                    pipeline.offer_doc(doc, |s| snapshots.push(s));
                    if snapshots.len() > before {
                        pass.close_ms.push(ms(call));
                    }
                    tracer.end(span);
                }
                let span = tracer.begin("prod.offer_sealing", newest.map_or(0, |t| t.0));
                let call = Instant::now();
                pipeline.finish_event_stream(|s| snapshots.push(s));
                pass.close_ms.push(ms(call));
                tracer.end(span);
                pass.ingest_s = started.elapsed().as_secs_f64();
                stop.store(true, Ordering::SeqCst);
                reader.join().expect("reader thread panicked")
            });
        }
        Driver::Archive => {
            let tagger = w.tagger.as_ref().expect("archive workloads carry a tagger");
            // Un-timed: this pass's own copy of the raw documents, so
            // tagging can write entities in place.
            let mut docs = arrivals.to_vec();
            let ranges = tick_ranges(&docs, spec);
            let started = Instant::now();
            for (tick, range) in ranges {
                let span = tracer.begin("prod.tag", tick.0);
                for doc in &mut docs[range.clone()] {
                    tag_entities(tagger, &w.interner, doc);
                }
                tracer.end(span);
                let span = tracer.begin("prod.apply", tick.0);
                pipeline.process_docs(&docs[range]);
                tracer.end(span);
                let span = tracer.begin("prod.close", tick.0);
                let call = Instant::now();
                let snapshots = &mut pass.snapshots;
                pipeline.close_through(tick, |s| snapshots.push(s));
                pass.close_ms.push(ms(call));
                tracer.end(span);
                let span = tracer.begin("prod.reads", tick.0);
                reads_after_close(w.driver, handle, subs, &mut pass.reads);
                tracer.end(span);
            }
            pass.ingest_s = started.elapsed().as_secs_f64();
        }
    }
    tracer.end(root);
    finish(w, &mut rig, tracer, &mut pass, ROUND_TRIPS, scratch);
    pass.wall_s = wall.elapsed().as_secs_f64();
    pass
}

/// The staged pass's moving parts: the pipeline, the benchmark-side
/// event-time layer, and the spans and counts around every call.
struct Staged<'a> {
    w: &'a Workload,
    rig: Rig,
    tracer: &'a mut Tracer,
    pass: Pass,
    /// Documents per partition/apply call: the ingest pipeline's default
    /// batch, so both passes work at the same granularity.
    batch_size: usize,
}

impl Staged<'_> {
    /// Feeds a tick-sorted run of documents the way `offer_doc` feeds
    /// what the reorder buffer releases: per tick, close what an
    /// uninterrupted stream would have closed before it, partition,
    /// apply.
    fn feed_sorted(&mut self, docs: &[Document]) {
        let spec = self.w.config.tick_spec;
        for (tick, range) in tick_ranges(docs, spec) {
            let span = self.tracer.begin("core.close", tick.0);
            let before = self.pass.snapshots.len();
            let snapshots = &mut self.pass.snapshots;
            self.rig.pipeline.close_gap_before(tick, |s| snapshots.push(s));
            let closed = self.pass.snapshots.len() - before;
            self.tracer.end(span);
            if closed > 0 {
                self.after_close(tick.prev());
            }

            let docs = &docs[range];
            for chunk in docs.chunks(self.batch_size) {
                let span = self.tracer.begin("ingest.partition", tick.0);
                let batch = partition_docs(chunk, &self.rig.pipeline.partition_spec());
                self.tracer.end(span);
                let span = self.tracer.begin("core.apply", tick.0);
                self.rig.pipeline.process_partitioned(chunk, &batch);
                self.tracer.end(span);
                let largest = batch.buckets().iter().map(Vec::len).max().unwrap_or(0);
                let counts = &mut self.pass.counts;
                bump(counts, "ingest.partition.docs_in", chunk.len() as f64);
                bump(counts, "ingest.partition.obs_out", batch.observations as f64);
                bump(counts, "ingest.partition.largest_bucket_obs", largest as f64);
            }
        }
    }

    /// Closes through `tick` and issues the feeder-thread reads.
    fn close_through(&mut self, tick: Tick) {
        let span = self.tracer.begin("core.close", tick.0);
        let call = Instant::now();
        let before = self.pass.snapshots.len();
        let snapshots = &mut self.pass.snapshots;
        self.rig.pipeline.close_through(tick, |s| snapshots.push(s));
        let closed = self.pass.snapshots.len() - before;
        self.tracer.end(span);
        if closed > 0 {
            self.pass.close_ms.push(ms(call));
            self.after_close(tick);
        }
    }

    fn after_close(&mut self, tick: Tick) {
        let pairs = self.rig.pipeline.state().registry().len() as f64;
        bump(&mut self.pass.counts, "core.close.pair_closes", pairs);
        raise(&mut self.pass.counts, "core.close.pairs_max", pairs);
        let span = self.tracer.begin("serve.query", tick.0);
        let Rig { handle, subs, .. } = &mut self.rig;
        reads_after_close(self.w.driver, handle, subs, &mut self.pass.reads);
        self.tracer.end(span);
    }
}

/// The staged pass: the same job as [`prod_pass`], single-threaded, one
/// public call per layer per step, a span around every call.
pub fn staged_pass(w: &Workload, tracer: &mut Tracer, scratch: &Path) -> Pass {
    let wall = Instant::now();
    let rig = Rig::new(w, w.clean_config());
    let pass =
        Pass { offered: w.arrivals.len() as u64, reads: Reads::after_close(), ..Pass::default() };
    let batch_size = IngestConfig::default().batch_size;
    let mut staged = Staged { w, rig, tracer, pass, batch_size };
    let spec = w.config.tick_spec;
    let root = staged.tracer.begin("staged", 0);
    let started = Instant::now();
    match w.driver {
        Driver::Replay => {
            for (tick, range) in tick_ranges(&w.arrivals, spec) {
                staged.feed_sorted(&w.arrivals[range]);
                staged.close_through(tick);
            }
        }
        Driver::Live => {
            // The event-time layer the production pipeline runs inside
            // `offer_doc`, here on the benchmark's side of the boundary.
            let (event, g) = (&w.config.event_time, &w.config.source_guard);
            let mut reorder =
                ReorderBuffer::new(spec, event.bounded_lateness, event.max_buffered_docs);
            let mut guard =
                SourceGuard::new(g.dedup_window_ticks, g.rate_limit_per_tick, g.effective_burst());
            let mut judge = |staged: &mut Staged, ready: &mut Vec<Document>| {
                let span = staged.tracer.begin("ingest.guard", 0);
                bump(&mut staged.pass.counts, "ingest.guard.docs_in", ready.len() as f64);
                ready.retain(|d| {
                    let tick = spec.tick_of(d.timestamp);
                    guard.admit(d.source, d.id, tick) == GuardVerdict::Admitted
                });
                staged.tracer.end(span);
            };
            let mut ready: Vec<Document> = Vec::new();
            let mut next = 0;
            while next < w.arrivals.len() {
                // Push arrivals until the watermark seals another tick.
                let sealed = reorder.emitted_through();
                let span = staged.tracer.begin("ingest.reorder", sealed.map_or(0, |t| t.0 + 1));
                while next < w.arrivals.len() && reorder.emitted_through() == sealed {
                    reorder.push(w.arrivals[next].clone());
                    next += 1;
                    reorder.drain_ready(&mut ready);
                    raise(
                        &mut staged.pass.counts,
                        "ingest.reorder.buffered_max",
                        reorder.buffered() as f64,
                    );
                }
                staged.tracer.end(span);
                judge(&mut staged, &mut ready);
                staged.feed_sorted(&ready);
                ready.clear();
                if let Some(sealed) = reorder.emitted_through() {
                    staged.close_through(sealed);
                }
            }
            let span = staged.tracer.begin("ingest.reorder", 0);
            reorder.flush(&mut ready);
            staged.tracer.end(span);
            judge(&mut staged, &mut ready);
            staged.feed_sorted(&ready);
            if let Some(through) = reorder.emitted_through() {
                staged.close_through(through);
            }
            let counts = &mut staged.pass.counts;
            bump(counts, "ingest.reorder.docs_in", reorder.arrivals() as f64);
            bump(counts, "ingest.reorder.late_dropped", reorder.late_dropped() as f64);
            bump(counts, "ingest.reorder.overflow_dropped", reorder.overflow_dropped() as f64);
            bump(counts, "ingest.guard.deduped", guard.deduped() as f64);
            bump(counts, "ingest.guard.rate_capped", guard.rate_capped() as f64);
            bump(counts, "ingest.guard.admitted", guard.admitted() as f64);
        }
        Driver::Archive => {
            let tagger = w.tagger.as_ref().expect("archive workloads carry a tagger");
            let mut docs = w.arrivals.clone();
            for (tick, range) in tick_ranges(&w.arrivals, spec) {
                let span = staged.tracer.begin("entity.tag", tick.0);
                let (mut bytes, mut mentions) = (0, 0);
                for doc in &mut docs[range.clone()] {
                    let (b, m) = tag_entities(tagger, &w.interner, doc);
                    bytes += b;
                    mentions += m;
                }
                staged.tracer.end(span);
                let counts = &mut staged.pass.counts;
                bump(counts, "entity.tag.docs_in", range.len() as f64);
                bump(counts, "entity.tag.bytes_in", bytes as f64);
                bump(counts, "entity.tag.mentions_out", mentions as f64);
                staged.feed_sorted(&docs[range]);
                staged.close_through(tick);
            }
        }
    }
    staged.pass.ingest_s = started.elapsed().as_secs_f64();
    let Staged { mut rig, tracer, mut pass, .. } = staged;
    finish(w, &mut rig, tracer, &mut pass, 1, scratch);
    tracer.end(root);
    pass.wall_s = wall.elapsed().as_secs_f64();
    pass
}

/// The tail every pass shares: the post-ingest read burst of the
/// `Replay` workloads, the checkpoint/restore round trips, and the
/// counters and histogram sums the pipeline exports.
fn finish(
    w: &Workload,
    rig: &mut Rig,
    tracer: &mut Tracer,
    pass: &mut Pass,
    round_trips: usize,
    scratch: &Path,
) {
    let Rig { pipeline, handle, subs } = rig;
    if w.driver == Driver::Replay {
        // No reader runs beside the ingest of these workloads; reads are
        // issued against the final view once the last tick has closed.
        let span = tracer.begin("serve.query", 0);
        let started = Instant::now();
        for _ in 0..READ_BURST_ROUNDS {
            sweep(subs, &mut pass.reads);
            drill_down(handle, &mut pass.reads);
        }
        pass.reads.seconds += started.elapsed().as_secs_f64();
        tracer.end(span);
    }
    let path = scratch.join(format!("{}.snap", w.name));
    for _ in 0..round_trips {
        let span = tracer.begin("core.snapshot.write", 0);
        let started = Instant::now();
        let written = pipeline.checkpoint_to(&path);
        pass.checkpoint_ms.push(ms(started));
        tracer.end(span);
        let span = tracer.begin("core.snapshot.restore", 0);
        let started = Instant::now();
        let restored = EnBlogueEngine::resume(pipeline.config().clone(), &path);
        pass.restore_ms.push(ms(started));
        tracer.end(span);
        let same = match (&written, &restored) {
            (Ok(_), Ok(engine)) => {
                engine.pipeline().last_closed() == pipeline.last_closed()
                    && engine.pipeline().latest_snapshot() == pipeline.latest_snapshot()
                    && engine.metrics().pairs_tracked == pipeline.metrics().pairs_tracked
            }
            _ => false,
        };
        if !same {
            pass.round_trips_failed += 1;
        }
        if let Ok(stats) = written {
            pass.counts.insert("core.snapshot.bytes", stats.bytes as f64);
        }
    }
    let _ = std::fs::remove_file(&path);

    let metrics = pipeline.metrics();
    let stats = pipeline.state().registry().stats();
    let telemetry = pipeline.telemetry();
    let hist = |name: &str| telemetry.registry().histogram(name).sum() as f64 / 1e9;
    let stage = |name: &str| {
        telemetry.registry().histogram_labeled("stage.close.ns", "stage", name).sum() as f64 / 1e9
    };
    let loads: Vec<u64> = stats
        .per_shard_obs
        .iter()
        .zip(&stats.per_shard_pairs)
        .map(|(&obs, &pairs)| obs + enblogue::core::pairs::PAIR_LOAD_WEIGHT * pairs as u64)
        .collect();
    let total_load: u64 = loads.iter().sum();
    let max_load = loads.iter().copied().max().unwrap_or(0);
    let counts = &mut pass.counts;
    for (name, value) in [
        ("core.apply.docs_in", metrics.docs_processed as f64),
        ("core.close.ticks", metrics.ticks_closed as f64),
        ("core.close.pairs_tracked", metrics.pairs_tracked as f64),
        ("core.close.discovered", metrics.pairs_discovered as f64),
        ("core.close.evicted", metrics.pairs_evicted as f64),
        ("core.close.rebalances", metrics.rebalances as f64),
        ("core.close.migrated_pairs", metrics.pairs_migrated as f64),
        ("core.close.max_load_share", max_load as f64 / total_load.max(1) as f64),
        ("core.close.allocs", stats.close_allocs as f64),
        ("core.close.seed_s", stage("seed-select")),
        ("core.close.termwin_s", stage("term-window")),
        ("core.close.paircount_s", stage("pair-count")),
        ("core.close.score_s", hist("close.score.ns")),
        ("core.close.expiry_s", hist("close.expiry.ns")),
        ("core.close.rank_s", hist("close.rank.ns")),
        ("serve.publish.busy_s", hist("serve.publish.ns")),
        ("serve.publish.epochs", handle.epoch() as f64),
        ("serve.publish.covered_pairs", handle.view().map_or(0, |v| v.covered_pairs()) as f64),
        ("ingest.pipeline.stale_repartitions", pipeline.stale_repartitions() as f64),
        ("telemetry.journal_dropped", telemetry.journal().dropped() as f64),
    ] {
        counts.insert(name, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{build, Scale};

    #[test]
    fn tick_ranges_cover_a_sorted_slice_once() {
        let doc = |id: u64, hour: u64| Document::builder(id, Timestamp::from_hours(hour)).build();
        let docs = vec![doc(1, 0), doc(2, 0), doc(3, 2), doc(4, 5), doc(5, 5), doc(6, 5)];
        let ranges = tick_ranges(&docs, TickSpec::hourly());
        assert_eq!(ranges, vec![(Tick(0), 0..2), (Tick(2), 2..3), (Tick(5), 3..6)]);
        assert!(tick_ranges(&[], TickSpec::hourly()).is_empty());
    }

    /// The smoke scale of one workload end to end: reference, traced
    /// production pass, staged pass, trace file.
    fn smoke(name: &str) {
        let w = build(name, 7, Scale::Smoke).expect("known workload");
        let scratch = crate::scratch_dir().join(format!("test-{name}"));
        std::fs::create_dir_all(&scratch).expect("scratch dir");
        let reference = StagePipeline::new(w.clean_config()).run_replay(w.clean_docs());
        assert!(reference.len() >= 10, "{name}: smoke scale closes a few ticks");

        let mut tracer = Tracer::recording();
        let prod = prod_pass(&w, &w.arrivals, &mut tracer, &scratch);
        assert_eq!(prod.snapshots, reference, "{name}: production rankings");
        assert!(!prod.close_ms.is_empty() && prod.close_ms.len() <= reference.len());
        assert!(prod.reads.done > 0 && prod.reads.failed == 0, "{name}: reads");
        assert_eq!(prod.round_trips_failed, 0, "{name}: round trips");
        assert!(tracer.spans().len() > reference.len(), "{name}: traced pass records spans");

        let mut tracer = Tracer::recording();
        let staged = staged_pass(&w, &mut tracer, &scratch);
        assert_eq!(staged.snapshots, reference, "{name}: staged rankings");
        assert_eq!(staged.reads.failed, 0);
        let own = tracer.self_seconds();
        let attributed: f64 = own.iter().filter(|(n, _)| **n != "staged").map(|(_, s)| s).sum();
        assert!(attributed > 0.0 && own["staged"] >= 0.0);
        let trace = scratch.join("smoke.trace.json");
        tracer.write_chrome_trace(&trace).expect("trace file");
        let text = std::fs::read_to_string(&trace).expect("trace readable");
        assert!(text.starts_with("{\"displayTimeUnit\"") && text.trim_end().ends_with("]}"));
        assert!(text.contains("\"name\":\"core.close\""));
        let _ = std::fs::remove_dir_all(&scratch);
    }

    #[test]
    fn smoke_live_hostile() {
        smoke("live-hostile");
    }

    #[test]
    fn smoke_replay_zipf() {
        smoke("replay-zipf");
    }
}
