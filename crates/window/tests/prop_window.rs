//! Property-based tests for sliding-window primitives and sketches.

use enblogue_types::Tick;
use enblogue_window::{RingBuffer, SlidingStats, SpaceSaving, TickSeries, TopK, WindowedCounter};
use proptest::prelude::*;
use std::collections::VecDeque;

proptest! {
    /// The ring buffer behaves exactly like a capacity-bounded VecDeque.
    #[test]
    fn ring_matches_vecdeque(capacity in 1usize..16, ops in proptest::collection::vec(0i64..1000, 0..200)) {
        let mut ring = RingBuffer::new(capacity);
        let mut model: VecDeque<i64> = VecDeque::new();
        for v in ops {
            let evicted = ring.push(v);
            model.push_back(v);
            let expected_evicted = if model.len() > capacity { model.pop_front() } else { None };
            prop_assert_eq!(evicted, expected_evicted);
            prop_assert_eq!(ring.len(), model.len());
            prop_assert_eq!(ring.iter().copied().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
            prop_assert_eq!(ring.newest().copied(), model.back().copied());
            prop_assert_eq!(ring.oldest().copied(), model.front().copied());
        }
    }

    /// TickSeries sum always equals the sum of its values, under arbitrary
    /// tick gaps and same-tick accumulation.
    #[test]
    fn tick_series_sum_consistent(
        window in 1usize..12,
        steps in proptest::collection::vec((0u64..4, 0u32..100), 1..100),
    ) {
        let mut series = TickSeries::new(window);
        let mut tick = 0u64;
        for (gap, value) in steps {
            tick += gap; // gap 0 = same-tick accumulate
            series.record(Tick(tick), value as f64);
            let direct: f64 = series.values().sum();
            prop_assert!((series.sum() - direct).abs() < 1e-6);
            prop_assert!(series.len() <= window);
            prop_assert_eq!(series.newest_tick(), Some(Tick(tick)));
        }
    }

    /// WindowedCounter equals brute-force counting over the retained window.
    #[test]
    fn windowed_counter_matches_bruteforce(
        window in 1usize..8,
        events in proptest::collection::vec((0u64..3, 0u32..6), 1..150),
    ) {
        let mut counter: WindowedCounter<u32> = WindowedCounter::new(window);
        let mut history: Vec<(u64, u32)> = Vec::new();
        let mut tick = 0u64;
        for (gap, key) in events {
            tick += gap;
            counter.increment(Tick(tick), key);
            history.push((tick, key));
        }
        let lo = tick.saturating_sub(window as u64 - 1);
        for key in 0u32..6 {
            let expected = history.iter().filter(|&&(t, k)| k == key && t >= lo).count() as u64;
            prop_assert_eq!(counter.count(key), expected, "key {}", key);
        }
        let expected_total = history.iter().filter(|&&(t, _)| t >= lo).count() as u64;
        prop_assert_eq!(counter.total_events(), expected_total);
    }

    /// SlidingStats mean/variance match the textbook formulas on the window.
    #[test]
    fn sliding_stats_match_definition(
        capacity in 1usize..10,
        values in proptest::collection::vec(-100.0f64..100.0, 1..60),
    ) {
        let mut stats = SlidingStats::new(capacity);
        for &v in &values {
            stats.push(v);
        }
        let window: Vec<f64> = values[values.len().saturating_sub(capacity)..].to_vec();
        let n = window.len() as f64;
        let mean = window.iter().sum::<f64>() / n;
        prop_assert!((stats.mean() - mean).abs() < 1e-6);
        if window.len() >= 2 {
            let var = window.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
            prop_assert!((stats.variance() - var).abs() < 1e-6, "{} vs {}", stats.variance(), var);
        }
    }

    /// Space-Saving: monitored estimates upper-bound truth, and
    /// `estimate − error` lower-bounds it.
    #[test]
    fn spacesaving_bounds_truth(capacity in 1usize..16, keys in proptest::collection::vec(0u64..40, 1..400)) {
        let mut ss = SpaceSaving::new(capacity);
        let mut truth = std::collections::HashMap::new();
        for &k in &keys {
            ss.increment(k);
            *truth.entry(k).or_insert(0u64) += 1;
        }
        for (&k, &count) in &truth {
            if let Some(est) = ss.estimate(k) {
                prop_assert!(est >= count, "estimate {} < truth {}", est, count);
                let err = ss.error(k).unwrap();
                prop_assert!(est - err <= count, "lower bound {} > truth {}", est - err, count);
            }
        }
        // Guarantee: any key with count > N/m is monitored.
        let n = keys.len() as u64;
        for (&k, &count) in &truth {
            if count > n / capacity as u64 {
                prop_assert!(ss.estimate(k).is_some(), "heavy hitter {} (count {}) evicted", k, count);
            }
        }
    }

    /// TopK returns exactly the k best entries, best-first, matching a full
    /// sort of the offered items.
    #[test]
    fn topk_matches_full_sort(
        k in 1usize..10,
        items in proptest::collection::vec((0u32..1000, 0.0f64..1.0), 1..80),
    ) {
        // Dedup keys: TopK semantics are per-offer; duplicate keys with
        // different scores are a caller error in the engine, so test the
        // unique-key contract.
        let mut seen = std::collections::HashSet::new();
        let items: Vec<(u32, f64)> = items.into_iter().filter(|(k, _)| seen.insert(*k)).collect();

        let mut topk = TopK::new(k);
        for &(key, score) in &items {
            topk.offer(key, score);
        }
        let got: Vec<u32> = topk.into_sorted().iter().map(|r| r.key).collect();

        let mut expected = items.clone();
        expected.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        expected.truncate(k);
        let expected: Vec<u32> = expected.into_iter().map(|(key, _)| key).collect();
        prop_assert_eq!(got, expected);
    }
}
