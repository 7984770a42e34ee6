//! Detection-quality metrics against planted ground truth.
//!
//! The demo paper could only let visitors "judge whether the rankings would
//! be satisfactory"; with scripted events we can measure: did each planted
//! pair reach the top-k (recall)? how long after its onset (latency)? and
//! how much of the top-k during event windows was truth (precision@k)?

use crate::events::EventScript;
use enblogue_types::{RankingSnapshot, TagPair};
use serde::{Deserialize, Serialize};

/// Per-event detection outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DetectionOutcome {
    /// Event label from the script.
    pub event_name: String,
    /// The ground-truth pair.
    pub pair: TagPair,
    /// Whether the pair entered the top-k during the event window
    /// (+ grace period).
    pub detected: bool,
    /// Stream-time delay between event start and first top-k appearance.
    pub latency_ms: Option<u64>,
    /// Best (lowest) rank reached during the window.
    pub best_rank: Option<usize>,
}

/// Aggregate quality report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvalReport {
    /// Outcomes per event.
    pub outcomes: Vec<DetectionOutcome>,
    /// Fraction of events detected.
    pub recall: f64,
    /// Mean precision@k over snapshots that fall inside ≥ 1 event window.
    pub precision_at_k: f64,
    /// Mean detection latency over detected events, in milliseconds.
    pub mean_latency_ms: f64,
    /// The k used.
    pub k: usize,
}

impl EvalReport {
    /// Mean latency expressed in ticks of `tick_ms`.
    pub fn mean_latency_ticks(&self, tick_ms: u64) -> f64 {
        self.mean_latency_ms / tick_ms as f64
    }
}

/// Evaluates ranking snapshots against a script.
///
/// * `k` — ranking depth that counts as "reported to the user".
/// * `grace_ms` — how long after an event's end a first detection still
///   counts (windowed correlation lags the raw event by design).
///
/// Precision@k counts a top-k entry as correct if it is a truth pair whose
/// event window (+ grace) contains the snapshot time. Snapshots outside
/// all event windows do not contribute to precision (background-only
/// rankings have no truth to match; false alarms on a no-event stream are
/// what `tests/baseline_comparison.rs` bounds). `QUALITY.json` records
/// this report for every row of the design-space matrix.
pub fn evaluate(
    snapshots: &[RankingSnapshot],
    script: &EventScript,
    k: usize,
    grace_ms: u64,
) -> EvalReport {
    assert!(k > 0, "k must be positive");
    let mut outcomes = Vec::with_capacity(script.len());
    for event in script.events() {
        let pair = event.pair();
        let deadline = event.end.plus(grace_ms);
        let mut detected = false;
        let mut latency_ms = None;
        let mut best_rank: Option<usize> = None;
        for snap in snapshots {
            if snap.time < event.start || snap.time > deadline {
                continue;
            }
            if let Some(rank) = snap.rank_of(pair) {
                if rank < k {
                    if !detected {
                        detected = true;
                        latency_ms = Some(snap.time.since(event.start));
                    }
                    best_rank = Some(best_rank.map_or(rank, |b: usize| b.min(rank)));
                }
            }
        }
        outcomes.push(DetectionOutcome {
            event_name: event.name.clone(),
            pair,
            detected,
            latency_ms,
            best_rank,
        });
    }

    let recall = if outcomes.is_empty() {
        1.0
    } else {
        outcomes.iter().filter(|o| o.detected).count() as f64 / outcomes.len() as f64
    };

    // Precision over event-active snapshots.
    let mut precision_sum = 0.0;
    let mut precision_n = 0usize;
    for snap in snapshots {
        let active: Vec<TagPair> = script
            .events()
            .iter()
            .filter(|e| e.start <= snap.time && snap.time <= e.end.plus(grace_ms))
            .map(|e| e.pair())
            .collect();
        if active.is_empty() {
            continue;
        }
        let top: Vec<TagPair> = snap.ranked.iter().take(k).map(|&(p, _)| p).collect();
        if top.is_empty() {
            continue;
        }
        let hits = top.iter().filter(|p| active.contains(p)).count();
        // Cap the denominator: with one active truth pair and k=10, 1/1 is
        // the honest best achievable, not 1/10.
        let denom = top.len().min(active.len()).max(1);
        precision_sum += (hits.min(denom)) as f64 / denom as f64;
        precision_n += 1;
    }
    let precision_at_k = if precision_n == 0 { 0.0 } else { precision_sum / precision_n as f64 };

    let latencies: Vec<u64> = outcomes.iter().filter_map(|o| o.latency_ms).collect();
    let mean_latency_ms = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<u64>() as f64 / latencies.len() as f64
    };

    EvalReport { outcomes, recall, precision_at_k, mean_latency_ms, k }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{CorrelationEvent, RampShape};
    use enblogue_types::{TagId, Tick, Timestamp};

    fn pair(a: u32, b: u32) -> TagPair {
        TagPair::new(TagId(a), TagId(b))
    }

    fn snapshot(tick: u64, hour: u64, ranked: &[(TagPair, f64)]) -> RankingSnapshot {
        RankingSnapshot {
            tick: Tick(tick),
            time: Timestamp::from_hours(hour),
            ranked: ranked.to_vec(),
        }
    }

    fn one_event_script() -> EventScript {
        let mut script = EventScript::new();
        script.push(CorrelationEvent::new(
            "e0",
            TagId(1),
            TagId(2),
            Timestamp::from_hours(10),
            Timestamp::from_hours(20),
            5.0,
            RampShape::Step,
        ));
        script
    }

    #[test]
    fn detection_and_latency() {
        let script = one_event_script();
        let snaps = vec![
            snapshot(9, 9, &[(pair(7, 8), 0.9)]),
            snapshot(12, 12, &[(pair(7, 8), 0.9), (pair(1, 2), 0.5)]),
            snapshot(13, 13, &[(pair(1, 2), 0.9)]),
        ];
        let report = evaluate(&snaps, &script, 5, 0);
        assert_eq!(report.recall, 1.0);
        let o = &report.outcomes[0];
        assert!(o.detected);
        assert_eq!(o.latency_ms, Some(2 * Timestamp::HOUR));
        assert_eq!(o.best_rank, Some(0));
        assert_eq!(report.mean_latency_ticks(Timestamp::HOUR) as u64, 2);
    }

    #[test]
    fn miss_yields_zero_recall() {
        let script = one_event_script();
        let snaps = vec![snapshot(12, 12, &[(pair(7, 8), 0.9)])];
        let report = evaluate(&snaps, &script, 5, 0);
        assert_eq!(report.recall, 0.0);
        assert!(!report.outcomes[0].detected);
        assert_eq!(report.outcomes[0].latency_ms, None);
    }

    #[test]
    fn detection_outside_window_does_not_count() {
        let script = one_event_script();
        // Appears only *before* the event and *after* end + grace.
        let snaps =
            vec![snapshot(5, 5, &[(pair(1, 2), 0.9)]), snapshot(30, 30, &[(pair(1, 2), 0.9)])];
        let report = evaluate(&snaps, &script, 5, Timestamp::HOUR);
        assert_eq!(report.recall, 0.0);
    }

    #[test]
    fn grace_period_extends_the_deadline() {
        let script = one_event_script();
        let snaps = vec![snapshot(21, 21, &[(pair(1, 2), 0.9)])];
        let no_grace = evaluate(&snaps, &script, 5, 0);
        assert_eq!(no_grace.recall, 0.0);
        let with_grace = evaluate(&snaps, &script, 5, 2 * Timestamp::HOUR);
        assert_eq!(with_grace.recall, 1.0);
    }

    #[test]
    fn rank_beyond_k_is_not_a_detection() {
        let script = one_event_script();
        let ranked: Vec<(TagPair, f64)> = (0..5)
            .map(|i| (pair(10 + i, 20 + i), 1.0 - 0.1 * i as f64))
            .chain([(pair(1, 2), 0.1)])
            .collect();
        let snaps = vec![snapshot(12, 12, &ranked)];
        assert_eq!(evaluate(&snaps, &script, 5, 0).recall, 0.0, "rank 5 with k=5 misses");
        assert_eq!(evaluate(&snaps, &script, 6, 0).recall, 1.0);
    }

    #[test]
    fn precision_caps_at_active_truth_count() {
        let script = one_event_script();
        // k=3 but only one active truth pair: top-1 hit ⇒ precision 1.
        let snaps =
            vec![snapshot(12, 12, &[(pair(1, 2), 0.9), (pair(7, 8), 0.8), (pair(9, 10), 0.7)])];
        let report = evaluate(&snaps, &script, 3, 0);
        assert_eq!(report.precision_at_k, 1.0);
        // Truth absent ⇒ precision 0.
        let snaps = vec![snapshot(12, 12, &[(pair(7, 8), 0.9)])];
        assert_eq!(evaluate(&snaps, &script, 3, 0).precision_at_k, 0.0);
    }

    #[test]
    fn snapshots_outside_events_do_not_affect_precision() {
        let script = one_event_script();
        let snaps = vec![
            snapshot(1, 1, &[(pair(7, 8), 0.9)]), // outside any window
            snapshot(12, 12, &[(pair(1, 2), 0.9)]),
        ];
        let report = evaluate(&snaps, &script, 3, 0);
        assert_eq!(report.precision_at_k, 1.0);
    }

    #[test]
    fn empty_script_is_vacuous() {
        let report = evaluate(&[snapshot(1, 1, &[(pair(1, 2), 0.5)])], &EventScript::new(), 3, 0);
        assert_eq!(report.recall, 1.0);
        assert_eq!(report.precision_at_k, 0.0);
        assert!(report.outcomes.is_empty());
    }

    #[test]
    fn snapshot_helpers() {
        let snap = snapshot(1, 1, &[(pair(1, 2), 0.9), (pair(3, 4), 0.5)]);
        assert_eq!(snap.rank_of(pair(3, 4)), Some(1));
        assert_eq!(snap.rank_of(pair(5, 6)), None);
        assert!(snap.contains_in_top(pair(1, 2), 1));
        assert!(!snap.contains_in_top(pair(3, 4), 1));
    }
}
