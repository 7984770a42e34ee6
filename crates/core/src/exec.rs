//! The shard fan-out primitive behind shard-parallel apply and tick close.

use enblogue_ingest::default_parallelism;

/// Runs `work` once per item, optionally fanned out over scoped threads.
///
/// The sharded pair registry hands one mutable shard to each worker, so
/// the threaded mode drives *shards*. The work function must be
/// deterministic per item — results may be produced in any order, but
/// each item sees exactly one call with its own index, so serial
/// (`parallel = false`) and threaded runs are observationally identical.
/// Panics in workers propagate to the caller.
///
/// Worker count is capped at the machine's available parallelism: with
/// more items than cores, items are processed in contiguous chunks, one
/// thread per chunk, so 16 shards on a 4-core box spawn 4 threads, not 16.
pub(crate) fn fanout<T, F>(items: &mut [T], parallel: bool, work: F)
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn sync_executor_delivers_everything_in_order() {
        // Serial mode visits every item once, in index order, on the
        // calling thread.
        let visits = std::sync::Mutex::new(Vec::new());
        let caller = std::thread::current().id();
        let mut items: Vec<u64> = (0..10).collect();
        fanout(&mut items, false, |index, item| {
            assert_eq!(std::thread::current().id(), caller);
            visits.lock().unwrap().push((index, *item));
        });
        let expected: Vec<(usize, u64)> = (0..10).map(|i| (i, i as u64)).collect();
        assert_eq!(visits.into_inner().unwrap(), expected);
    }

    #[test]
    fn threaded_executor_matches_sync_results() {
        // More items than cores, with a ragged last chunk: the chunked
        // threaded run must still touch each item exactly once, with its
        // own index, and agree with the serial run.
        let len = default_parallelism() * 3 + 1;
        let run = |parallel: bool| {
            let mut items: Vec<Vec<usize>> = vec![Vec::new(); len];
            fanout(&mut items, parallel, |index, item| item.push(index * index));
            items
        };
        let serial = run(false);
        assert_eq!(run(true), serial);
        for (i, visits) in serial.iter().enumerate() {
            assert_eq!(visits, &vec![i * i]);
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
