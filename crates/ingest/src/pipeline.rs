//! The bounded-queue ingestion driver: batches → worker pool →
//! re-sequenced application.
//!
//! Thread layout of one [`IngestPipeline::run`] (scoped; no thread
//! outlives the call):
//!
//! ```text
//!   feeder ──(seq, doc range)──► bounded work queue ──► N partition workers
//!     │                                                        │
//!     └─(seq, tick close)──► bounded done queue ◄──(seq, partitioned)─┘
//!                                    │
//!                        caller thread: re-sequence by seq,
//!                        apply batches / tick closes to the sink
//! ```
//!
//! * **Backpressure** — both queues are bounded; when the work queue is
//!   full the feeder stalls (counted in [`IngestStats::queue_full_stalls`],
//!   timed in [`IngestStats::stall_micros`] and the `ingest.stall.ns`
//!   telemetry histogram) until a worker frees a slot. Instead of parking
//!   on a blocking send — invisible to a profiler and prone to thundering
//!   re-polls — the feeder retries with jittered exponential backoff naps,
//!   each nap recorded in the `ingest.backoff.ns` histogram.
//! * **Determinism** — workers finish out of order, but every operation
//!   carries its submission sequence number and the caller thread applies
//!   strictly in sequence. Batches never span a tick boundary, and tick
//!   closes are ordered between the batches exactly where a sequential
//!   replay would close, so the sink cannot observe the parallelism.

use crate::partition::{partition_docs, PartitionSpec, PartitionedBatch};
use crossbeam::channel::{self, TrySendError};
use enblogue_telemetry::{duration_ns, EventKind, Telemetry};
use enblogue_types::{Document, EnBlogueError, Tick};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// The machine's available parallelism (≥ 1) — the benched default for
/// execution knobs like shard counts and ingest worker pools.
///
/// Resolved once per process: `std::thread::available_parallelism` reads
/// cgroup files on every call, and shard fan-outs ask on every close.
pub fn default_parallelism() -> usize {
    static PARALLELISM: OnceLock<usize> = OnceLock::new();
    *PARALLELISM.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The consumer side of the ingestion pipeline.
///
/// `enblogue-core` implements this for its stage pipeline; tests use
/// recording mocks. All methods are called from the thread that called
/// [`IngestPipeline::run`], in deterministic submission order.
pub trait IngestSink {
    /// The partitioning parameters of the consuming engine.
    fn partition_spec(&self) -> PartitionSpec;

    /// Applies one batch (with its pre-computed shard buckets). The batch
    /// never spans a tick boundary.
    fn apply_batch(&mut self, docs: &[Document], partitioned: &PartitionedBatch);

    /// Closes every unclosed tick up to and including `tick`.
    fn close_through(&mut self, tick: Tick);
}

/// Tuning knobs of the ingestion pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestConfig {
    /// Maximum documents per batch (batches also break at tick
    /// boundaries).
    pub batch_size: usize,
    /// Capacity of the bounded work/done queues (batches in flight).
    pub queue_depth: usize,
    /// Partitioning worker threads; `0` = one per available core.
    pub workers: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig { batch_size: 256, queue_depth: 8, workers: 0 }
    }
}

impl IngestConfig {
    /// Validates parameter ranges (same convention as
    /// `EnBlogueConfig::validate`: callers handling user-supplied tuning
    /// input get an error, not a crash).
    pub fn validate(&self) -> Result<(), EnBlogueError> {
        if self.batch_size == 0 {
            return Err(EnBlogueError::invalid_config(
                "batch_size",
                "ingest batches must hold at least one document",
            ));
        }
        if self.queue_depth == 0 {
            return Err(EnBlogueError::invalid_config(
                "queue_depth",
                "the ingest queue needs at least one slot",
            ));
        }
        Ok(())
    }

    /// The effective worker count (resolves `workers == 0` to the
    /// machine's available parallelism).
    pub fn effective_workers(&self) -> usize {
        if self.workers == 0 {
            default_parallelism()
        } else {
            self.workers
        }
    }
}

/// Throughput counters of one [`IngestPipeline::run`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IngestStats {
    /// Documents ingested.
    pub docs: u64,
    /// Batches partitioned and applied.
    pub batches: u64,
    /// Tick-close operations applied (each may close several gap ticks).
    pub tick_closes: u64,
    /// Times the feeder found the work queue full and had to stall.
    pub queue_full_stalls: u64,
    /// Total wall-clock microseconds the feeder spent blocked on a full
    /// work queue (the *duration* behind `queue_full_stalls`; individual
    /// stall latencies land in the `ingest.stall.ns` telemetry histogram
    /// when one is attached).
    pub stall_micros: u64,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock seconds of the run.
    pub elapsed_secs: f64,
}

impl IngestStats {
    /// Ingested documents per wall-clock second.
    pub fn docs_per_sec(&self) -> f64 {
        self.docs as f64 / self.elapsed_secs.max(1e-9)
    }
}

/// First backoff nap when the work queue is full; each retry doubles it
/// up to [`BACKOFF_MAX_SHIFT`] doublings (20µs → ~1.3ms), so a brief
/// queue hiccup costs microseconds while a saturated queue is polled
/// gently instead of spun on.
const BACKOFF_MIN_NS: u64 = 20_000;
/// Doubling cap for the backoff nap (bounds worst-case added latency).
const BACKOFF_MAX_SHIFT: u32 = 6;

/// What the feeder schedules, in submission order.
enum PlanOp {
    /// Partition and apply `docs[range]` (one tick, ≤ batch_size docs).
    Batch(Range<usize>),
    /// Close every tick up to and including this one.
    Close(Tick),
}

/// What arrives at the applier, keyed by sequence number.
enum DoneOp {
    Batch(Range<usize>, PartitionedBatch),
    Close(Tick),
}

/// The shard-partitioned, backpressured ingestion driver.
pub struct IngestPipeline {
    config: IngestConfig,
    /// Observability hub; disabled by default (see
    /// [`IngestPipeline::attach_telemetry`]).
    telemetry: Telemetry,
}

impl IngestPipeline {
    /// A pipeline with the given tuning knobs.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (validate with
    /// [`IngestConfig::validate`] first to handle the error instead).
    pub fn new(config: IngestConfig) -> Self {
        config.validate().expect("invalid ingest configuration");
        IngestPipeline { config, telemetry: Telemetry::disabled() }
    }

    /// Wires the driver into a [`Telemetry`] hub: backpressure stalls are
    /// timed into the `ingest.stall.ns` histogram (and journaled as
    /// [`EventKind::IngestStall`] events), each backoff nap within a stall
    /// lands in `ingest.backoff.ns`, and the `ingest.queue.depth` gauge
    /// tracks batches in flight between the feeder and the applier.
    /// Handles are resolved once per [`IngestPipeline::run`]; the hot
    /// feeder/applier loops only touch relaxed atomics.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.telemetry = telemetry.clone();
    }

    /// The pipeline's configuration.
    pub fn config(&self) -> &IngestConfig {
        &self.config
    }

    /// Splits `docs` into per-tick batches and the tick closes between
    /// them, in replay order. O(n) over the slice.
    fn plan(&self, docs: &[Document], spec: &PartitionSpec) -> Vec<PlanOp> {
        let mut plan = Vec::new();
        let mut i = 0;
        let mut last_tick: Option<Tick> = None;
        while i < docs.len() {
            let tick = spec.tick_spec.tick_of(docs[i].timestamp);
            if let Some(prev) = last_tick {
                assert!(tick >= prev, "ingest requires timestamp-sorted documents");
                if tick > prev {
                    // Close the finished tick and any gap ticks before the
                    // new tick's documents — exactly where a sequential
                    // replay would close them.
                    plan.push(PlanOp::Close(tick.prev()));
                }
            }
            let mut end = i + 1;
            while end < docs.len() && spec.tick_spec.tick_of(docs[end].timestamp) == tick {
                end += 1;
            }
            while i < end {
                let batch_end = (i + self.config.batch_size).min(end);
                plan.push(PlanOp::Batch(i..batch_end));
                i = batch_end;
            }
            last_tick = Some(tick);
        }
        if let Some(tick) = last_tick {
            plan.push(PlanOp::Close(tick));
        }
        plan
    }

    /// Drives `docs` through the pipeline into `sink` and reports
    /// throughput counters.
    ///
    /// The sink is only touched from the calling thread, in deterministic
    /// submission order; worker panics propagate to the caller.
    pub fn run<S: IngestSink>(&self, sink: &mut S, docs: &[Document]) -> IngestStats {
        let started = Instant::now();
        let spec = sink.partition_spec();
        let plan = self.plan(docs, &spec);
        let total = plan.len() as u64;
        let workers = self.config.effective_workers();
        let stalls = AtomicU64::new(0);
        let stall_ns_total = AtomicU64::new(0);
        // Telemetry handles resolve once here (cold); the loops below only
        // touch relaxed atomics through them — or a single branch when the
        // hub is disabled.
        let stall_hist = self.telemetry.registry().histogram("ingest.stall.ns");
        let backoff_hist = self.telemetry.registry().histogram("ingest.backoff.ns");
        let queue_depth = self.telemetry.registry().gauge("ingest.queue.depth");
        let journal = self.telemetry.journal().clone();
        let mut stats = IngestStats { docs: docs.len() as u64, workers, ..IngestStats::default() };

        let (work_tx, work_rx) = channel::bounded::<(u64, Range<usize>)>(self.config.queue_depth);
        let (done_tx, done_rx) = channel::bounded::<(u64, DoneOp)>(self.config.queue_depth);
        // The stub channel is single-consumer; workers share the receiver
        // behind a mutex (held only across the dequeue, not the work).
        let work_rx = Mutex::new(work_rx);

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers + 1);
            for _ in 0..workers {
                let done_tx = done_tx.clone();
                let work_rx = &work_rx;
                let spec = &spec;
                handles.push(scope.spawn(move || loop {
                    let msg = work_rx.lock().expect("work queue poisoned").recv();
                    match msg {
                        Ok((seq, range)) => {
                            // A panic inside partitioning must not leave the
                            // feeder blocked on a queue nobody drains (and
                            // the applier waiting forever on this worker's
                            // result): drain the queue first, then re-raise
                            // so the scope join propagates the panic to the
                            // caller.
                            let partitioned =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    partition_docs(&docs[range.clone()], spec)
                                }));
                            let partitioned = match partitioned {
                                Ok(partitioned) => partitioned,
                                Err(payload) => {
                                    drop(done_tx); // applier: no result coming
                                    while work_rx
                                        .lock()
                                        .expect("work queue poisoned")
                                        .recv()
                                        .is_ok()
                                    {}
                                    std::panic::resume_unwind(payload);
                                }
                            };
                            if done_tx.send((seq, DoneOp::Batch(range, partitioned))).is_err() {
                                break; // applier gone (it hit an error path)
                            }
                        }
                        Err(_) => break, // feeder done and queue drained
                    }
                }));
            }

            let feeder_done_tx = done_tx.clone();
            let stalls = &stalls;
            let stall_ns_total = &stall_ns_total;
            let feeder_hist = stall_hist.clone();
            let feeder_backoff = backoff_hist.clone();
            let feeder_gauge = queue_depth.clone();
            let feeder_journal = journal.clone();
            handles.push(scope.spawn(move || {
                for (seq, op) in plan.into_iter().enumerate() {
                    let seq = seq as u64;
                    match op {
                        PlanOp::Batch(range) => match work_tx.try_send((seq, range)) {
                            Ok(()) => feeder_gauge.add(1),
                            Err(TrySendError::Full(item)) => {
                                stalls.fetch_add(1, Ordering::Relaxed);
                                // Timing only starts on the (already slow)
                                // blocked path — no clock reads while the
                                // queue keeps up. Retry with jittered
                                // exponential naps (xorshift seeded from
                                // the batch sequence: deterministic per
                                // slot, different across batches) so
                                // stalled feeders neither spin nor wake in
                                // lockstep; each nap is visible in the
                                // `ingest.backoff.ns` histogram.
                                let blocked = Instant::now();
                                let mut item = item;
                                let mut rng = seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                                let mut attempt = 0u32;
                                let sent = loop {
                                    let base = BACKOFF_MIN_NS << attempt.min(BACKOFF_MAX_SHIFT);
                                    rng ^= rng << 13;
                                    rng ^= rng >> 7;
                                    rng ^= rng << 17;
                                    // Nap in [½·base, 1½·base).
                                    let nap = base / 2 + rng % base;
                                    let napped = Instant::now();
                                    std::thread::sleep(Duration::from_nanos(nap));
                                    feeder_backoff.record(duration_ns(napped));
                                    attempt += 1;
                                    match work_tx.try_send(item) {
                                        Ok(()) => break true,
                                        Err(TrySendError::Full(back)) => item = back,
                                        Err(TrySendError::Disconnected(_)) => break false,
                                    }
                                };
                                if !sent {
                                    break;
                                }
                                let ns = duration_ns(blocked);
                                stall_ns_total.fetch_add(ns, Ordering::Relaxed);
                                feeder_hist.record(ns);
                                feeder_journal.record(EventKind::IngestStall, seq, ns / 1_000, 0);
                                feeder_gauge.add(1);
                            }
                            Err(TrySendError::Disconnected(_)) => break,
                        },
                        PlanOp::Close(tick) => {
                            if feeder_done_tx.send((seq, DoneOp::Close(tick))).is_err() {
                                break;
                            }
                        }
                    }
                }
                // Dropping work_tx here lets the workers drain and exit.
            }));
            drop(done_tx);

            // The applier: re-sequence by submission order. Out-of-order
            // completions wait in the map; the sink only ever sees the
            // sequential schedule.
            let mut pending: BTreeMap<u64, DoneOp> = BTreeMap::new();
            let mut next = 0u64;
            while next < total {
                let Ok((seq, op)) = done_rx.recv() else {
                    break; // producer thread died; scope join will re-panic
                };
                pending.insert(seq, op);
                while let Some(op) = pending.remove(&next) {
                    match op {
                        DoneOp::Batch(range, partitioned) => {
                            sink.apply_batch(&docs[range], &partitioned);
                            stats.batches += 1;
                            queue_depth.add(-1);
                        }
                        DoneOp::Close(tick) => {
                            sink.close_through(tick);
                            stats.tick_closes += 1;
                        }
                    }
                    next += 1;
                }
            }
            // Explicit joins so a worker's original panic payload reaches
            // the caller (the scope's implicit join would wrap it in a
            // generic "a scoped thread panicked").
            for handle in handles {
                if let Err(payload) = handle.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });

        stats.queue_full_stalls = stalls.load(Ordering::Relaxed);
        stats.stall_micros = stall_ns_total.load(Ordering::Relaxed) / 1_000;
        stats.elapsed_secs = started.elapsed().as_secs_f64();
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PairRun;
    use enblogue_types::{TagId, TickSpec, Timestamp};

    fn doc(id: u64, hour: u64, tags: &[u32]) -> Document {
        Document::builder(id, Timestamp::from_hours(hour))
            .tags(tags.iter().map(|&t| TagId(t)))
            .build()
    }

    /// Records the exact operation sequence the pipeline applies, and the
    /// per-shard run state at every close.
    struct RecordingSink {
        spec: PartitionSpec,
        ops: Vec<String>,
        observations: usize,
        shard_state: Vec<Vec<PairRun>>,
        snapshots: Vec<Vec<Vec<PairRun>>>,
    }

    impl RecordingSink {
        fn new(shards: usize) -> Self {
            RecordingSink {
                spec: PartitionSpec { tick_spec: TickSpec::hourly(), use_entities: true, shards },
                ops: Vec::new(),
                observations: 0,
                shard_state: vec![Vec::new(); shards],
                snapshots: Vec::new(),
            }
        }
    }

    impl IngestSink for RecordingSink {
        fn partition_spec(&self) -> PartitionSpec {
            self.spec.clone()
        }

        fn apply_batch(&mut self, docs: &[Document], partitioned: &PartitionedBatch) {
            assert_eq!(partitioned.docs, docs.len());
            assert_eq!(partitioned.shard_count(), self.spec.shards);
            self.observations += partitioned.observations;
            for (state, bucket) in self.shard_state.iter_mut().zip(partitioned.buckets()) {
                state.extend_from_slice(bucket);
            }
            let ids: Vec<String> = docs.iter().map(|d| d.id.to_string()).collect();
            self.ops.push(format!("apply[{}]", ids.join(",")));
        }

        fn close_through(&mut self, tick: Tick) {
            self.ops.push(format!("close({})", tick.0));
            self.snapshots.push(self.shard_state.clone());
        }
    }

    fn workload() -> Vec<Document> {
        vec![
            doc(1, 0, &[1, 2]),
            doc(2, 0, &[2, 3]),
            doc(3, 0, &[1, 3]),
            doc(4, 2, &[1, 2]), // gap: tick 1 has no docs
            doc(5, 2, &[4, 5]),
        ]
    }

    #[test]
    fn schedule_is_sequential_replay_order() {
        let mut sink = RecordingSink::new(4);
        let config = IngestConfig { batch_size: 2, queue_depth: 2, workers: 2 };
        let stats = IngestPipeline::new(config).run(&mut sink, &workload());
        assert_eq!(
            sink.ops,
            vec!["apply[1,2]", "apply[3]", "close(1)", "apply[4,5]", "close(2)"],
            "batches split at size and tick boundaries; closes cover gaps"
        );
        assert_eq!(stats.docs, 5);
        assert_eq!(stats.batches, 3);
        assert_eq!(stats.tick_closes, 2);
        assert_eq!(stats.workers, 2);
        assert!(sink.observations > 0);
    }

    #[test]
    fn schedule_is_invariant_under_workers_and_queue_depth() {
        let docs: Vec<Document> =
            (0..200).map(|i| doc(i, i / 37, &[(i % 11) as u32, (i % 5) as u32 + 20])).collect();
        let reference = {
            let mut sink = RecordingSink::new(1);
            IngestPipeline::new(IngestConfig { batch_size: 16, queue_depth: 1, workers: 1 })
                .run(&mut sink, &docs);
            sink.ops
        };
        for workers in [2usize, 4, 8] {
            for queue_depth in [1usize, 4] {
                let mut sink = RecordingSink::new(1);
                IngestPipeline::new(IngestConfig { batch_size: 16, queue_depth, workers })
                    .run(&mut sink, &docs);
                assert_eq!(sink.ops, reference, "workers={workers} depth={queue_depth}");
            }
        }
    }

    #[test]
    fn threaded_executor_matches_sync_snapshots() {
        // The partitioning workers produce the shard buckets; whatever
        // their count, the sink's per-shard state at every close must
        // equal the single-worker run's.
        let docs: Vec<Document> =
            (0..300).map(|i| doc(i, i / 41, &[(i % 13) as u32, (i % 7) as u32 + 30, 99])).collect();
        let run = |workers: usize| {
            let mut sink = RecordingSink::new(4);
            IngestPipeline::new(IngestConfig { batch_size: 8, queue_depth: 2, workers })
                .run(&mut sink, &docs);
            sink.snapshots
        };
        let sync = run(1);
        assert_eq!(sync.len(), 8, "one snapshot per close");
        assert!(sync.last().unwrap().iter().all(|bucket| !bucket.is_empty()));
        for workers in [2usize, 4] {
            assert_eq!(run(workers), sync, "workers={workers}");
        }
    }

    #[test]
    fn sharded_plans_match_unsharded_plans() {
        // The batch/close plan depends only on documents and ticks, never
        // on the sink's shard count; sharding only splits the same
        // observations across buckets.
        let docs: Vec<Document> =
            (0..120).map(|i| doc(i, i / 25, &[(i % 9) as u32, (i % 4) as u32 + 10])).collect();
        let config = IngestConfig { batch_size: 16, queue_depth: 2, workers: 2 };
        let mut unsharded = RecordingSink::new(1);
        IngestPipeline::new(config.clone()).run(&mut unsharded, &docs);
        let mut reference = unsharded.shard_state.concat();
        reference.sort_unstable();
        for shards in [4usize, 16] {
            let mut sink = RecordingSink::new(shards);
            IngestPipeline::new(config.clone()).run(&mut sink, &docs);
            assert_eq!(sink.ops, unsharded.ops, "shards={shards}");
            assert_eq!(sink.observations, unsharded.observations, "shards={shards}");
            let mut observed = sink.shard_state.concat();
            observed.sort_unstable();
            assert_eq!(observed, reference, "shards={shards}");
        }
    }

    #[test]
    fn batch_size_one_degenerates_to_per_doc() {
        let mut sink = RecordingSink::new(2);
        let config = IngestConfig { batch_size: 1, queue_depth: 4, workers: 3 };
        let stats = IngestPipeline::new(config).run(&mut sink, &workload());
        assert_eq!(stats.batches, 5, "one batch per document");
        assert_eq!(sink.ops[0], "apply[1]");
        assert_eq!(*sink.ops.last().unwrap(), "close(2)");
    }

    #[test]
    fn empty_replay_is_a_no_op() {
        let mut sink = RecordingSink::new(2);
        let stats = IngestPipeline::new(IngestConfig::default()).run(&mut sink, &[]);
        assert!(sink.ops.is_empty());
        assert_eq!(stats.docs, 0);
        assert_eq!(stats.batches, 0);
        assert_eq!(stats.tick_closes, 0);
    }

    #[test]
    fn tiny_queue_counts_stalls_but_stays_correct() {
        let docs: Vec<Document> = (0..500).map(|i| doc(i, 0, &[1, 2, 3])).collect();
        let mut sink = RecordingSink::new(4);
        let config = IngestConfig { batch_size: 1, queue_depth: 1, workers: 1 };
        let telemetry = Telemetry::new(64);
        let mut pipeline = IngestPipeline::new(config);
        pipeline.attach_telemetry(&telemetry);
        let stats = pipeline.run(&mut sink, &docs);
        assert_eq!(stats.batches, 500);
        // Not asserting a stall count (timing-dependent) — only that the
        // counters are wired and the run completed despite the 1-slot
        // queue: every stall leaves one histogram sample, and no stalls
        // means no stall time.
        assert_eq!(sink.ops.len(), 501);
        let hist = telemetry.registry().histogram("ingest.stall.ns");
        assert_eq!(hist.count(), stats.queue_full_stalls);
        // Every stall episode naps at least once before its first retry.
        let backoff = telemetry.registry().histogram("ingest.backoff.ns");
        assert!(backoff.count() >= stats.queue_full_stalls);
        if stats.queue_full_stalls == 0 {
            assert_eq!(stats.stall_micros, 0);
        }
        // In-flight gauge drains back to zero once every batch is applied.
        assert_eq!(telemetry.registry().gauge("ingest.queue.depth").value(), 0);
    }

    #[test]
    fn workers_zero_resolves_to_available_parallelism() {
        let config = IngestConfig { workers: 0, ..IngestConfig::default() };
        assert!(config.effective_workers() >= 1);
        let mut sink = RecordingSink::new(2);
        let stats = IngestPipeline::new(config).run(&mut sink, &workload());
        assert_eq!(stats.workers, default_parallelism());
    }

    #[test]
    #[should_panic(expected = "two distinct tags")]
    fn worker_panics_propagate_instead_of_hanging() {
        // A document with a duplicated tag (fields mutated behind the
        // builder's normalization) makes `partition_docs` panic inside a
        // worker. The run must propagate that panic — with the feeder and
        // applier unwound cleanly — not deadlock on the full work queue.
        let mut docs: Vec<Document> = (0..100).map(|i| doc(i, 0, &[1, 2])).collect();
        docs[70].tags = vec![TagId(3), TagId(3)];
        let mut sink = RecordingSink::new(2);
        let config = IngestConfig { batch_size: 1, queue_depth: 1, workers: 1 };
        IngestPipeline::new(config).run(&mut sink, &docs);
    }

    #[test]
    #[should_panic(expected = "timestamp-sorted")]
    fn unsorted_docs_are_rejected() {
        let docs = vec![doc(1, 5, &[1, 2]), doc(2, 3, &[1, 2])];
        let mut sink = RecordingSink::new(2);
        IngestPipeline::new(IngestConfig::default()).run(&mut sink, &docs);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let bad_batch = IngestConfig { batch_size: 0, ..IngestConfig::default() };
        assert!(bad_batch.validate().unwrap_err().to_string().contains("batch_size"));
        let bad_queue = IngestConfig { queue_depth: 0, ..IngestConfig::default() };
        assert!(bad_queue.validate().unwrap_err().to_string().contains("queue_depth"));
        assert!(IngestConfig::default().validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid ingest configuration")]
    fn pipeline_constructor_rejects_invalid_configs() {
        let _ = IngestPipeline::new(IngestConfig { batch_size: 0, ..IngestConfig::default() });
    }

    #[test]
    fn stats_report_throughput() {
        let stats = IngestStats { docs: 1000, elapsed_secs: 0.5, ..IngestStats::default() };
        assert!((stats.docs_per_sec() - 2000.0).abs() < 1e-9);
    }
}
