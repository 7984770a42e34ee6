//! The shard fan-out primitive behind shard-parallel apply and tick close.

use enblogue_ingest::default_parallelism;

/// Below this many units of work a phase runs serially: counted runs for
/// the apply, tracked pairs for the close.
///
/// A fan-out spawns fresh scoped threads on every call. Measured on a
/// 2-vCPU box, one scoped spawn + join costs ≈ 35–50 µs at the median
/// and two ≈ 65–80 µs (p90 up to ≈ 125 µs), while a warm serial apply
/// costs ≈ 20–40 ns per run (`cargo bench --bench ingest`, group
/// `apply`) and the close ≈ 100 ns per pair. At 4 096 runs the serial
/// apply is ≈ 120 µs, about what half of it plus one spawn costs, so
/// below this size splitting does not pay: a 256-document pipeline batch
/// (≈ 0.9–1.2k runs) applies serially, a whole-tick batch (≈ 20k runs)
/// fans out. A pure execution threshold: it changes scheduling, never
/// results.
pub const FANOUT_MIN_ITEMS: usize = 4096;

/// Runs `work` once per item, fanned out over scoped threads once the
/// phase holds `work_items` ≥ [`FANOUT_MIN_ITEMS`] units of work.
///
/// The sharded pair registry hands one shard's state to each item, so
/// the threaded mode drives *shards*. The work function must be
/// deterministic per item — results may be produced in any order, but
/// each item sees exactly one call with its own index, so serial and
/// threaded runs are observationally identical. The serial mode neither
/// allocates nor spawns.
///
/// Worker count is capped at the machine's available parallelism: items
/// are processed in contiguous chunks, one per worker, so 16 shards on a
/// 4-core box make 4 chunks, not 16. The calling thread runs the first
/// chunk itself, so a fan-out over `w` workers spawns `w − 1` threads.
pub(crate) fn fanout<I, F>(items: I, work_items: usize, work: F)
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator,
    I::Item: Send,
    F: Fn(usize, I::Item) + Sync,
{
    let items = items.into_iter();
    let workers =
        if work_items < FANOUT_MIN_ITEMS { 1 } else { default_parallelism().min(items.len()) };
    run_chunked(items, workers, &work);
}

/// Runs `work` over `items` in `workers` contiguous chunks: the first on
/// the calling thread, the rest on scoped threads. A panic in a spawned
/// chunk reaches the caller with its own payload; one in the caller's
/// chunk propagates once every spawned chunk has finished (the scope
/// joins them before it unwinds).
fn run_chunked<I, F>(mut items: I, workers: usize, work: &F)
where
    I: ExactSizeIterator,
    I::Item: Send,
    F: Fn(usize, I::Item) + Sync,
{
    if workers < 2 || items.len() < 2 {
        for (index, item) in items.enumerate() {
            work(index, item);
        }
        return;
    }
    let len = items.len();
    let chunk_len = len.div_ceil(workers);
    let own: Vec<I::Item> = items.by_ref().take(chunk_len).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers - 1);
        for base in (chunk_len..len).step_by(chunk_len) {
            let chunk: Vec<I::Item> = items.by_ref().take(chunk_len).collect();
            handles.push(scope.spawn(move || {
                for (offset, item) in chunk.into_iter().enumerate() {
                    work(base + offset, item);
                }
            }));
        }
        for (index, item) in own.into_iter().enumerate() {
            work(index, item);
        }
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Mutex};
    use std::thread;

    #[test]
    fn fanout_serial_and_parallel_agree() {
        let run = |work_items: usize| {
            let mut items: Vec<(usize, u64)> = (0..8).map(|i| (0usize, i as u64)).collect();
            fanout(items.iter_mut(), work_items, |index, item| {
                item.0 = index;
                item.1 = item.1 * 10 + 1;
            });
            items
        };
        let serial = run(0);
        let parallel = run(FANOUT_MIN_ITEMS);
        assert_eq!(serial, parallel);
        for (i, &(index, value)) in serial.iter().enumerate() {
            assert_eq!(index, i, "each item sees its own index");
            assert_eq!(value, i as u64 * 10 + 1, "work applied exactly once");
        }
    }

    #[test]
    fn sync_executor_delivers_everything_in_order() {
        // Below the threshold every item is visited once, in index
        // order, on the calling thread.
        let visits = Mutex::new(Vec::new());
        let caller = thread::current().id();
        let items: Vec<u64> = (0..10).collect();
        fanout(items.iter(), FANOUT_MIN_ITEMS - 1, |index, item| {
            assert_eq!(thread::current().id(), caller);
            visits.lock().unwrap().push((index, *item));
        });
        let expected: Vec<(usize, u64)> = (0..10).map(|i| (i, i as u64)).collect();
        assert_eq!(visits.into_inner().unwrap(), expected);
    }

    #[test]
    fn threaded_executor_matches_sync_results() {
        // More items than workers, with a ragged last chunk: the chunked
        // run must still touch each item exactly once, with its own
        // index, and agree with the serial run.
        let len = 3 * 3 + 1;
        let run = |workers: usize| {
            let mut items: Vec<Vec<usize>> = vec![Vec::new(); len];
            run_chunked(items.iter_mut(), workers, &|index, item: &mut Vec<usize>| {
                item.push(index * index);
            });
            items
        };
        let serial = run(1);
        assert_eq!(run(3), serial);
        assert_eq!(run(default_parallelism()), serial);
        for (i, visits) in serial.iter().enumerate() {
            assert_eq!(visits, &vec![i * i]);
        }
    }

    #[test]
    fn fanout_single_item_stays_serial() {
        let mut items = [5u64];
        let caller = thread::current().id();
        fanout(items.iter_mut(), FANOUT_MIN_ITEMS, |_, item| {
            assert_eq!(thread::current().id(), caller);
            *item += 1;
        });
        assert_eq!(items, [6]);
    }

    #[test]
    fn the_first_chunk_runs_on_the_calling_thread() {
        let caller = thread::current().id();
        let threads = Mutex::new(vec![None; 6]);
        run_chunked(0..6usize, 3, &|index, item| {
            assert_eq!(index, item);
            threads.lock().unwrap()[index] = Some(thread::current().id());
        });
        let threads: Vec<_> =
            threads.into_inner().unwrap().into_iter().map(Option::unwrap).collect();
        assert_eq!(threads[..2], [caller, caller], "chunk 0 (items 0-1) on the caller");
        assert!(threads[2..].iter().all(|&t| t != caller), "chunks 1-2 on spawned threads");
        assert_eq!(threads[2], threads[3]);
        assert_eq!(threads[4], threads[5]);
        assert_ne!(threads[2], threads[4], "one thread per spawned chunk");
    }

    #[test]
    fn a_caller_chunk_panic_waits_for_the_spawned_chunks() {
        // The spawned chunks block until the caller's chunk has panicked
        // (unwinding drops the sender they wait on), so the panic can
        // only surface after both of them finished if the fan-out joins
        // them first.
        let (release, wait) = mpsc::channel::<()>();
        let release = Mutex::new(Some(release));
        let wait = Mutex::new(wait);
        let finished = AtomicUsize::new(0);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_chunked(0..3usize, 3, &|index, _| {
                if index == 0 {
                    let _release = release.lock().unwrap().take();
                    panic!("caller boom");
                }
                let _ = wait.lock().unwrap().recv();
                finished.fetch_add(1, Ordering::SeqCst);
            });
        }));
        let payload = outcome.expect_err("the caller's panic propagates");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"caller boom"), "with its own payload");
        assert_eq!(finished.load(Ordering::SeqCst), 2, "both spawned chunks ran to completion");
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn fanout_propagates_worker_panics() {
        run_chunked(0..2usize, 2, &|index, _| {
            if index == 1 {
                panic!("worker boom");
            }
        });
    }
}
