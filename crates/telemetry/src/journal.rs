//! The bounded ring-buffer event journal.
//!
//! Pipeline milestones (tick closes, evictions, checkpoint
//! writes and failures, ingest stalls, restores) are rare — per tick,
//! not per document — so the journal trades the metric cells' atomics
//! for one short mutexed critical section per event. The ring is
//! preallocated at construction and events are `Copy`, so recording
//! never allocates; when the ring is full the oldest event is
//! overwritten and the drop counter advances, so a reader always knows
//! how much history it lost. Sequence numbers are monotonic across
//! overwrites, which makes journals from two dumps mergeable.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex, OnceLock};

/// What happened. The numeric payload of each kind is documented on the
/// variant (`a` / `b` of [`Event`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A tick closed. `a` = tracked pairs after the close, `b` = ranked
    /// pairs emitted.
    TickClose,
    /// Eviction ran at a tick close. `a` = pairs evicted this tick,
    /// `b` = tracked pairs remaining.
    Eviction,
    /// A checkpoint file was written. `a` = bytes written, `b` = write
    /// micros.
    CheckpointWrite,
    /// A checkpoint write failed. `a` = consecutive failures so far.
    CheckpointFailure,
    /// An ingest feeder blocked on a full worker queue. `a` = stall
    /// micros.
    IngestStall,
    /// The engine restored from a snapshot. `a` = restore micros.
    Restore,
    /// Documents dropped at a tick close for arriving beyond the
    /// event-time lateness bound (or the buffer cap). `a` = drops since
    /// the previous close, `b` = total drops so far.
    LateDrop,
    /// Exact-duplicate documents rejected by the dedup window at a tick
    /// close. `a` = rejections since the previous close, `b` = total.
    DedupDrop,
    /// Documents rejected by a source's token-bucket rate cap at a tick
    /// close. `a` = rejections since the previous close, `b` = total.
    RateCapDrop,
    /// The serving tier published a new epoch-versioned read view at a
    /// tick close. `a` = the published epoch, `b` = ranked pairs in the
    /// view.
    ViewPublish,
}

impl EventKind {
    /// Stable snake_case name (export format).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::TickClose => "tick_close",
            EventKind::Eviction => "eviction",
            EventKind::CheckpointWrite => "checkpoint_write",
            EventKind::CheckpointFailure => "checkpoint_failure",
            EventKind::IngestStall => "ingest_stall",
            EventKind::Restore => "restore",
            EventKind::LateDrop => "late_drop",
            EventKind::DedupDrop => "dedup_drop",
            EventKind::RateCapDrop => "rate_cap_drop",
            EventKind::ViewPublish => "view_publish",
        }
    }
}

/// One journal entry. `Copy` so the ring never owns heap state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Monotonic sequence number (gaps never occur; a reader comparing
    /// `seq` spans across dumps can detect overwritten history).
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
    /// The tick the event belongs to (0 when no tick context exists,
    /// e.g. a restore before the first close).
    pub tick: u64,
    /// Kind-specific payload (see [`EventKind`]).
    pub a: u64,
    /// Kind-specific payload (see [`EventKind`]).
    pub b: u64,
}

struct Ring {
    events: Vec<Event>,
    capacity: usize,
    /// Index of the oldest event when the ring is full.
    head: usize,
    next_seq: u64,
    dropped: u64,
}

impl Ring {
    fn record(&mut self, kind: EventKind, tick: u64, a: u64, b: u64) {
        if self.capacity == 0 {
            self.dropped += 1;
            self.next_seq += 1;
            return;
        }
        let event = Event { seq: self.next_seq, kind, tick, a, b };
        self.next_seq += 1;
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            self.events[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }
}

/// A cheap-to-clone handle to one shared, bounded event journal.
/// Cloning shares the ring, so every pipeline layer can hold its own
/// handle.
#[derive(Clone)]
pub struct Journal {
    enabled: bool,
    ring: Arc<Mutex<Ring>>,
}

impl Journal {
    /// A journal retaining the newest `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Journal {
            enabled: true,
            ring: Arc::new(Mutex::new(Ring {
                events: Vec::with_capacity(capacity),
                capacity,
                head: 0,
                next_seq: 0,
                dropped: 0,
            })),
        }
    }

    /// A no-op handle: records are dropped, readers see nothing. All
    /// disabled handles share one static empty ring.
    pub fn disabled() -> Self {
        static RING: OnceLock<Arc<Mutex<Ring>>> = OnceLock::new();
        let ring = RING.get_or_init(|| {
            Arc::new(Mutex::new(Ring {
                events: Vec::new(),
                capacity: 0,
                head: 0,
                next_seq: 0,
                dropped: 0,
            }))
        });
        Journal { enabled: false, ring: Arc::clone(ring) }
    }

    /// Whether this handle records.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Appends one event (allocation-free; overwrites the oldest entry
    /// when full).
    pub fn record(&self, kind: EventKind, tick: u64, a: u64, b: u64) {
        if !self.enabled {
            return;
        }
        self.ring.lock().unwrap_or_else(|e| e.into_inner()).record(kind, tick, a, b);
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        let ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = Vec::with_capacity(ring.events.len());
        out.extend_from_slice(&ring.events[ring.head..]);
        out.extend_from_slice(&ring.events[..ring.head]);
        out
    }

    /// Total events recorded since construction (including overwritten
    /// ones).
    pub fn recorded(&self) -> u64 {
        self.ring.lock().unwrap_or_else(|e| e.into_inner()).next_seq
    }

    /// Events lost to ring overwrites.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().unwrap_or_else(|e| e.into_inner()).dropped
    }

    /// The retained events as JSON lines (one object per event, oldest
    /// first), preceded by a header line carrying the drop counter.
    pub fn to_jsonl(&self) -> String {
        let (events, recorded, dropped) = {
            let ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
            let mut out = Vec::with_capacity(ring.events.len());
            out.extend_from_slice(&ring.events[ring.head..]);
            out.extend_from_slice(&ring.events[..ring.head]);
            (out, ring.next_seq, ring.dropped)
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"journal\":{{\"recorded\":{recorded},\"retained\":{},\"dropped\":{dropped}}}}}",
            events.len()
        );
        for e in events {
            let _ = writeln!(
                out,
                "{{\"seq\":{},\"kind\":\"{}\",\"tick\":{},\"a\":{},\"b\":{}}}",
                e.seq,
                e.kind.name(),
                e.tick,
                e.a,
                e.b
            );
        }
        out
    }
}
