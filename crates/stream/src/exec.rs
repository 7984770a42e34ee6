//! Executors: deterministic synchronous push, threaded pipeline, and the
//! shard fan-out primitive used for parallel tick close.

use crate::event::Event;
use crate::graph::{Graph, NodeId};
use crate::operator::EventSink;
use enblogue_types::{EnBlogueError, Tick};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-node execution counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeStats {
    /// Operator name.
    pub name: String,
    /// Events processed by the node.
    pub processed: u64,
    /// Events emitted downstream by the node.
    pub emitted: u64,
}

/// Counters for one graph execution.
///
/// `total_processed` is the work measure of the `perf_sharing` bin: with
/// sharing, overlapping plan prefixes process each event once instead of
/// once per plan.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExecutionStats {
    /// Events produced by the source.
    pub source_events: u64,
    /// Documents produced by the source.
    pub source_docs: u64,
    /// Per-node counters, in node-id order.
    pub nodes: Vec<NodeStats>,
}

impl ExecutionStats {
    /// Total events processed across all operator nodes.
    pub fn total_processed(&self) -> u64 {
        self.nodes.iter().map(|n| n.processed).sum()
    }
}

/// Punctuation-deduplication state per node.
///
/// With fan-in, a node would receive the same tick boundary once per
/// parent; operators are written against "exactly one boundary per tick",
/// so executors filter duplicates here.
#[derive(Debug, Clone, Copy, Default)]
struct PunctState {
    last_boundary: Option<Tick>,
    flushed: bool,
}

impl PunctState {
    /// Whether `event` should be delivered to the node.
    fn admit(&mut self, event: &Event) -> bool {
        match event {
            Event::TickBoundary(tick) => {
                if self.last_boundary.is_some_and(|last| *tick <= last) {
                    false
                } else {
                    self.last_boundary = Some(*tick);
                    true
                }
            }
            Event::Flush => !std::mem::replace(&mut self.flushed, true),
            Event::Doc(_) | Event::DocBatch(_) => !self.flushed,
        }
    }
}

/// The machine's available parallelism (≥ 1) — the benched default for
/// execution knobs like shard counts, shard-parallel close and ingest
/// worker pools.
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs the graph to completion on the calling thread.
///
/// Events are dispatched breadth-first in node order, so execution is fully
/// deterministic — the mode used by all correctness tests and experiments.
pub fn run_graph(graph: &mut Graph) -> Result<ExecutionStats, EnBlogueError> {
    graph.topological_order()?; // validates acyclicity up front
    let n = graph.nodes.len();
    let mut processed = vec![0u64; n];
    let mut emitted = vec![0u64; n];
    let mut punct = vec![PunctState::default(); n];
    let mut stats = ExecutionStats::default();

    let mut queue: VecDeque<(NodeId, Event)> = VecDeque::new();
    let mut scratch: Vec<Event> = Vec::new();
    let mut saw_flush = false;

    loop {
        let event = match graph.source_mut().next_event() {
            Some(e) => e,
            None if saw_flush => break,
            None => Event::Flush, // source ended without explicit flush
        };
        stats.source_events += 1;
        stats.source_docs += event.doc_count();
        if event.is_flush() {
            saw_flush = true;
        }
        let is_flush = event.is_flush();

        for &root in &graph.roots {
            queue.push_back((root, event.clone()));
        }
        while let Some((node, event)) = queue.pop_front() {
            if !punct[node.0].admit(&event) {
                continue;
            }
            processed[node.0] += 1;
            scratch.clear();
            graph.nodes[node.0].op.process(event, &mut scratch);
            emitted[node.0] += scratch.len() as u64;
            let children = &graph.nodes[node.0].children;
            if children.is_empty() {
                continue;
            }
            for out_event in scratch.drain(..) {
                // Clone for all children but the last, which takes ownership.
                let (&last, rest) = children.split_last().expect("children checked non-empty");
                for &child in rest {
                    queue.push_back((child, out_event.clone()));
                }
                queue.push_back((last, out_event));
            }
        }
        if is_flush {
            break;
        }
    }

    stats.nodes = (0..n)
        .map(|i| NodeStats {
            name: graph.nodes[i].op.name().to_string(),
            processed: processed[i],
            emitted: emitted[i],
        })
        .collect();
    Ok(stats)
}

/// Runs `work` once per item, optionally fanned out over scoped threads.
///
/// This is the executor primitive behind shard-parallel tick close: the
/// sharded pair registry hands one mutable shard to each worker, so the
/// threaded execution mode drives *shards* instead of whole plans. The
/// work function must be deterministic per item — results may be produced
/// in any order, but each item sees exactly one call with its own index,
/// so serial (`parallel = false`) and threaded runs are observationally
/// identical. Panics in workers propagate to the caller.
///
/// Worker count is capped at the machine's available parallelism: with
/// more items than cores, items are processed in contiguous chunks, one
/// thread per chunk, so 16 shards on a 4-core box spawn 4 threads, not 16.
pub fn fanout<T, F>(items: &mut [T], parallel: bool, work: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    if !parallel || items.len() < 2 {
        for (index, item) in items.iter_mut().enumerate() {
            work(index, item);
        }
        return;
    }
    let workers = default_parallelism().min(items.len());
    let chunk_len = items.len().div_ceil(workers);
    std::thread::scope(|scope| {
        let work = &work;
        let mut handles = Vec::with_capacity(workers);
        for (chunk_index, chunk) in items.chunks_mut(chunk_len).enumerate() {
            let base = chunk_index * chunk_len;
            handles.push(scope.spawn(move || {
                for (offset, item) in chunk.iter_mut().enumerate() {
                    work(base + offset, item);
                }
            }));
        }
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

struct ChannelSink {
    senders: Vec<crossbeam::channel::Sender<Event>>,
    emitted: u64,
}

impl EventSink for ChannelSink {
    fn emit(&mut self, event: Event) {
        self.emitted += 1;
        if let Some((last, rest)) = self.senders.split_last() {
            for s in rest {
                // A receiver hanging up mid-stream only loses that
                // branch's events; ignore.
                let _ = s.send(event.clone());
            }
            let _ = last.send(event);
        }
    }
}

/// Runs the graph with one worker thread per operator, connected by
/// bounded crossbeam channels (the throughput mode; the `stream_ops`
/// criterion bench and `perf_sharing` time it).
///
/// Event order is preserved along every edge; nodes with multiple parents
/// see an interleaving, with duplicate punctuation removed. The graph is
/// consumed: operators move into their threads.
pub fn run_graph_threaded(
    graph: Graph,
    channel_capacity: usize,
) -> Result<ExecutionStats, EnBlogueError> {
    graph.topological_order()?;
    let (mut source, roots, nodes) = graph.into_parts();
    let n = nodes.len();

    // indegree[i] counts stream parents (source counts for roots).
    let mut indegree = vec![0usize; n];
    for &root in &roots {
        indegree[root.0] += 1;
    }
    for node in &nodes {
        for &child in &node.children {
            indegree[child.0] += 1;
        }
    }

    let processed: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
    let emitted: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());

    let mut senders: Vec<crossbeam::channel::Sender<Event>> = Vec::with_capacity(n);
    let mut receivers: Vec<Option<crossbeam::channel::Receiver<Event>>> = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = crossbeam::channel::bounded(channel_capacity.max(1));
        senders.push(tx);
        receivers.push(Some(rx));
    }

    let names: Vec<String> = nodes.iter().map(|node| node.op.name().to_string()).collect();

    let mut handles = Vec::with_capacity(n);
    for (i, node) in nodes.into_iter().enumerate() {
        let rx = receivers[i].take().expect("receiver taken once");
        let child_senders: Vec<_> = node.children.iter().map(|c| senders[c.0].clone()).collect();
        let mut op = node.op;
        let parents = indegree[i].max(1);
        let processed = Arc::clone(&processed);
        let emitted = Arc::clone(&emitted);
        handles.push(std::thread::spawn(move || {
            let mut sink = ChannelSink { senders: child_senders, emitted: 0 };
            let mut punct = PunctState::default();
            let mut flushes_seen = 0usize;
            while let Ok(event) = rx.recv() {
                if event.is_flush() {
                    flushes_seen += 1;
                    // Wait for every parent branch to finish before the
                    // final flush is processed and forwarded.
                    if flushes_seen < parents {
                        continue;
                    }
                }
                if !punct.admit(&event) {
                    continue;
                }
                let done = event.is_flush();
                processed[i].fetch_add(1, Ordering::Relaxed);
                op.process(event, &mut sink);
                if done {
                    break;
                }
            }
            emitted[i].store(sink.emitted, Ordering::Relaxed);
            // Senders drop here, closing downstream channels.
        }));
    }
    // Main thread drives the source.
    let mut stats = ExecutionStats { source_events: 0, source_docs: 0, nodes: Vec::new() };
    let root_senders: Vec<_> = roots.iter().map(|r| senders[r.0].clone()).collect();
    drop(senders);
    let mut saw_flush = false;
    loop {
        let event = match source.next_event() {
            Some(e) => e,
            None if saw_flush => break,
            None => Event::Flush,
        };
        stats.source_events += 1;
        stats.source_docs += event.doc_count();
        if event.is_flush() {
            saw_flush = true;
        }
        let is_flush = event.is_flush();
        for tx in &root_senders {
            let _ = tx.send(event.clone());
        }
        if is_flush {
            break;
        }
    }
    drop(root_senders);
    for handle in handles {
        handle.join().map_err(|_| EnBlogueError::PlanError("operator thread panicked".into()))?;
    }
    stats.nodes = (0..n)
        .map(|i| NodeStats {
            name: names[i].clone(),
            processed: processed[i].load(Ordering::Relaxed),
            emitted: emitted[i].load(Ordering::Relaxed),
        })
        .collect();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{CollectSink, CountingOp, FilterDocs, PassThrough};
    use crate::source::ReplaySource;
    use enblogue_types::{Document, TagId, TickSpec, Timestamp};

    fn doc(id: u64, hour: u64, tags: &[u32]) -> Document {
        Document::builder(id, Timestamp::from_hours(hour))
            .tags(tags.iter().map(|&t| TagId(t)))
            .build()
    }

    fn sample_docs() -> Vec<Document> {
        vec![doc(1, 0, &[1]), doc(2, 0, &[2]), doc(3, 1, &[1, 2]), doc(4, 2, &[3])]
    }

    #[test]
    fn sync_executor_delivers_everything_in_order() {
        let mut g = Graph::new(ReplaySource::new(sample_docs(), TickSpec::hourly()));
        let sink = CollectSink::new("s1");
        let handle = sink.handle();
        g.attach(None, sink);
        let stats = run_graph(&mut g).unwrap();
        assert_eq!(stats.source_docs, 4);
        let collected = handle.lock().unwrap();
        let ids: Vec<u64> = collected.iter().map(|d| d.id).collect();
        assert_eq!(ids, vec![1, 2, 3, 4]);
    }

    #[test]
    fn filters_drop_documents() {
        let mut g = Graph::new(ReplaySource::new(sample_docs(), TickSpec::hourly()));
        let filter =
            g.attach(None, FilterDocs::new("has-tag-1", |d: &Document| d.has_tag(TagId(1))));
        let sink = CollectSink::new("s1");
        let handle = sink.handle();
        g.attach(Some(filter), sink);
        run_graph(&mut g).unwrap();
        let ids: Vec<u64> = handle.lock().unwrap().iter().map(|d| d.id).collect();
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    fn fanout_duplicates_docs_but_not_punctuation() {
        let mut g = Graph::new(ReplaySource::new(sample_docs(), TickSpec::hourly()));
        let a = g.attach(None, PassThrough::new("a"));
        let b = g.attach(None, PassThrough::new("b"));
        let counter = CountingOp::new("join");
        let counts = counter.handle();
        let join = g.attach(Some(a), counter);
        g.connect(b, join).unwrap();
        run_graph(&mut g).unwrap();
        let c = counts.lock().unwrap();
        // Docs arrive twice (once per parent); boundaries and flush once.
        assert_eq!(c.docs, 8);
        assert_eq!(c.boundaries, 3, "ticks 0,1,2 deduplicated");
        assert_eq!(c.flushes, 1);
    }

    #[test]
    fn stats_count_per_node_work() {
        let mut g = Graph::new(ReplaySource::new(sample_docs(), TickSpec::hourly()));
        let a = g.attach(None, PassThrough::new("a"));
        g.attach(Some(a), FilterDocs::new("none", |_| false));
        let stats = run_graph(&mut g).unwrap();
        // 3 tick batches + 3 boundaries + 1 flush = 7 events into each node.
        assert_eq!(stats.source_docs, 4, "batching does not change doc counts");
        assert_eq!(stats.nodes[0].processed, 7);
        assert_eq!(stats.nodes[0].emitted, 7);
        assert_eq!(stats.nodes[1].processed, 7);
        // Filter forwards punctuation but drops all doc batches.
        assert_eq!(stats.nodes[1].emitted, 4);
        assert_eq!(stats.total_processed(), 14);
    }

    #[test]
    fn threaded_executor_matches_sync_results() {
        let build = |shared: bool| {
            let mut g = Graph::new(ReplaySource::new(sample_docs(), TickSpec::hourly()));
            let f = if shared {
                g.attach(None, FilterDocs::new("has-tag-2", |d: &Document| d.has_tag(TagId(2))))
            } else {
                g.attach_unshared(
                    None,
                    FilterDocs::new("has-tag-2", |d: &Document| d.has_tag(TagId(2))),
                )
            };
            let sink = CollectSink::new("s1");
            let handle = sink.handle();
            g.attach(Some(f), sink);
            (g, handle)
        };

        let (mut g1, h1) = build(true);
        run_graph(&mut g1).unwrap();
        let (g2, h2) = build(true);
        run_graph_threaded(g2, 64).unwrap();

        let ids1: Vec<u64> = h1.lock().unwrap().iter().map(|d| d.id).collect();
        let ids2: Vec<u64> = h2.lock().unwrap().iter().map(|d| d.id).collect();
        assert_eq!(ids1, ids2);
        assert_eq!(ids1, vec![2, 3]);
    }

    #[test]
    fn threaded_executor_reports_stats() {
        let mut g = Graph::new(ReplaySource::new(sample_docs(), TickSpec::hourly()));
        let a = g.attach(None, PassThrough::new("a"));
        g.attach(Some(a), PassThrough::new("b"));
        let stats = run_graph_threaded(g, 8).unwrap();
        assert_eq!(stats.source_docs, 4);
        assert_eq!(stats.nodes[0].processed, 7);
        assert_eq!(stats.nodes[1].processed, 7);
    }

    #[test]
    fn empty_stream_still_flushes_sinks() {
        let mut g = Graph::new(ReplaySource::new(vec![], TickSpec::hourly()));
        let counter = CountingOp::new("c");
        let counts = counter.handle();
        g.attach(None, counter);
        run_graph(&mut g).unwrap();
        let c = counts.lock().unwrap();
        assert_eq!(c.docs, 0);
        assert_eq!(c.flushes, 1);
    }

    struct ExplodingSource;
    impl crate::source::Source for ExplodingSource {
        fn next_event(&mut self) -> Option<Event> {
            None // ends immediately without flushing
        }
    }

    #[test]
    fn executor_injects_flush_when_source_forgets() {
        let mut g = Graph::new(ExplodingSource);
        let counter = CountingOp::new("c");
        let counts = counter.handle();
        g.attach(None, counter);
        run_graph(&mut g).unwrap();
        assert_eq!(counts.lock().unwrap().flushes, 1);
    }

    #[test]
    fn fanout_serial_and_parallel_agree() {
        let run = |parallel: bool| {
            let mut items: Vec<(usize, u64)> = (0..8).map(|i| (0usize, i as u64)).collect();
            fanout(&mut items, parallel, |index, item| {
                item.0 = index;
                item.1 = item.1 * 10 + 1;
            });
            items
        };
        let serial = run(false);
        let parallel = run(true);
        assert_eq!(serial, parallel);
        for (i, &(index, value)) in serial.iter().enumerate() {
            assert_eq!(index, i, "each item sees its own index");
            assert_eq!(value, i as u64 * 10 + 1, "work applied exactly once");
        }
    }

    #[test]
    fn fanout_single_item_stays_serial() {
        let mut items = [5u64];
        fanout(&mut items, true, |_, item| *item += 1);
        assert_eq!(items, [6]);
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn fanout_propagates_worker_panics() {
        let mut items = [0u64, 1];
        fanout(&mut items, true, |index, _| {
            if index == 1 {
                panic!("worker boom");
            }
        });
    }
}
