//! Kleinberg's two-state burst automaton (KDD 2002), batched form.
//!
//! The canonical burst-detection algorithm the trend-detection literature
//! (including TwitterMonitor) builds on: a hidden two-state automaton
//! emits events at base rate `p0` in the quiet state and `s·p0` in the
//! burst state; switching into the burst state costs `gamma`. The optimal
//! state sequence for an observed count series is computed by Viterbi
//! dynamic programming over the batched (enumerating) model: in batch `t`
//! with `d_t` relevant events out of `n_t` total, state `i ∈ {0, 1}` has
//! cost `−ln Binomial(n_t, d_t; p_i)`.
//!
//! Used as a second, stronger per-tag baseline (the `baseline=kleinberg`
//! row of `QUALITY.json`, via [`replay_snapshots`]): unlike the mean+γσ
//! gate it has a principled probabilistic footing — and it is *equally
//! blind* to correlation shifts that leave individual rates flat, which is
//! the point the comparison makes.

use enblogue_types::{
    Document, FxHashMap, FxHashSet, RankingSnapshot, TagId, TagPair, Tick, TickSpec,
};

/// Batched two-state Kleinberg model.
#[derive(Debug, Clone)]
pub struct KleinbergConfig {
    /// Rate multiplier of the burst state (`s > 1`).
    pub s: f64,
    /// Cost of entering the burst state (per transition, in nats).
    pub gamma: f64,
}

impl Default for KleinbergConfig {
    fn default() -> Self {
        KleinbergConfig { s: 2.0, gamma: 1.0 }
    }
}

/// One detected burst interval (batch indices, inclusive start, exclusive
/// end) with its weight (total cost saved vs staying in the quiet state).
#[derive(Debug, Clone, PartialEq)]
pub struct Burst {
    /// First batch inside the burst.
    pub start: usize,
    /// One past the last batch inside the burst.
    pub end: usize,
    /// Burst weight: accumulated log-likelihood advantage of the burst
    /// state over the quiet state across the interval.
    pub weight: f64,
}

/// Detects burst intervals in a batched count series.
///
/// * `relevant` — per-batch counts of the monitored event (e.g. documents
///   carrying one tag),
/// * `totals` — per-batch totals (all documents).
///
/// Returns maximal burst intervals, in order.
///
/// # Panics
/// Panics if the slices differ in length, if any `relevant > total`, or
/// on a degenerate configuration (`s <= 1`, `gamma < 0`).
pub fn detect_bursts(relevant: &[u64], totals: &[u64], config: &KleinbergConfig) -> Vec<Burst> {
    assert_eq!(relevant.len(), totals.len(), "series must align");
    assert!(config.s > 1.0, "burst state must be faster than the base state");
    assert!(config.gamma >= 0.0, "transition cost cannot be negative");
    let n = relevant.len();
    if n == 0 {
        return Vec::new();
    }
    let total_relevant: u64 = relevant.iter().sum();
    let total_all: u64 = totals.iter().sum();
    if total_relevant == 0 || total_all == 0 {
        return Vec::new();
    }
    for (&d, &t) in relevant.iter().zip(totals) {
        assert!(d <= t, "relevant count exceeds total");
    }
    // Base rate p0 = overall share; burst rate p1 = s·p0 capped below 1.
    let p0 = (total_relevant as f64 / total_all as f64).clamp(1e-12, 1.0 - 1e-12);
    let p1 = (config.s * p0).clamp(p0 + 1e-12, 1.0 - 1e-9);

    // Per-batch emission costs: −[d·ln p + (n−d)·ln(1−p)] (the binomial
    // coefficient is state-independent and cancels).
    let cost = |d: u64, t: u64, p: f64| -> f64 {
        let d = d as f64;
        let t = t as f64;
        -(d * p.ln() + (t - d) * (1.0 - p).ln())
    };

    // Viterbi over 2 states; transition cost gamma only for 0 → 1.
    let mut cost0 = cost(relevant[0], totals[0], p0);
    let mut cost1 = cost(relevant[0], totals[0], p1) + config.gamma;
    // Backpointers: prev[t][state].
    let mut prev: Vec<[u8; 2]> = Vec::with_capacity(n);
    prev.push([0, 0]);
    for t in 1..n {
        let e0 = cost(relevant[t], totals[t], p0);
        let e1 = cost(relevant[t], totals[t], p1);
        // Into state 0: from 0 (free) or from 1 (free).
        let (from0, c_into0) = if cost0 <= cost1 { (0u8, cost0) } else { (1u8, cost1) };
        // Into state 1: from 1 (free) or from 0 (pay gamma).
        let (from1, c_into1) =
            if cost1 <= cost0 + config.gamma { (1u8, cost1) } else { (0u8, cost0 + config.gamma) };
        prev.push([from0, from1]);
        cost0 = c_into0 + e0;
        cost1 = c_into1 + e1;
    }
    // Backtrack.
    let mut states = vec![0u8; n];
    states[n - 1] = if cost1 < cost0 { 1 } else { 0 };
    for t in (1..n).rev() {
        states[t - 1] = prev[t][states[t] as usize];
    }

    // Extract maximal burst intervals with their weights.
    let mut bursts = Vec::new();
    let mut t = 0;
    while t < n {
        if states[t] == 1 {
            let start = t;
            let mut weight = 0.0;
            while t < n && states[t] == 1 {
                weight += cost(relevant[t], totals[t], p0) - cost(relevant[t], totals[t], p1);
                t += 1;
            }
            bursts.push(Burst { start, end: t, weight: weight.max(0.0) });
        } else {
            t += 1;
        }
    }
    bursts
}

/// Whether batch `index` lies inside any of `bursts`.
pub fn in_burst(bursts: &[Burst], index: usize) -> bool {
    bursts.iter().any(|b| b.start <= index && index < b.end)
}

/// Ranks tag pairs per tick of `tick_spec` from per-tag Kleinberg bursts,
/// so the automaton is scored with the same metric as EnBlogue. A pair is
/// reported at tick `t` when it co-occurs in a document of `t` and *both*
/// members are inside a burst at `t`, scored by the sum of the two burst
/// weights (top `k` kept). Tags with fewer than `min_count` documents in
/// the whole stream are not modelled. One snapshot per tick from tick 0
/// through the last document's tick.
pub fn replay_snapshots(
    docs: &[Document],
    tick_spec: TickSpec,
    config: &KleinbergConfig,
    min_count: u64,
    k: usize,
) -> Vec<RankingSnapshot> {
    let ticks =
        docs.iter().map(|d| tick_spec.tick_of(d.timestamp).0 as usize + 1).max().unwrap_or(0);
    // Per-tag per-tick counts, per-tick totals and co-occurring pairs.
    let mut per_tag: FxHashMap<TagId, Vec<u64>> = FxHashMap::default();
    let mut totals = vec![0u64; ticks];
    let mut tick_pairs: Vec<Vec<TagPair>> = vec![Vec::new(); ticks];
    for doc in docs {
        let t = tick_spec.tick_of(doc.timestamp).0 as usize;
        totals[t] += 1;
        let tags: Vec<TagId> = doc.annotations().collect();
        for &tag in &tags {
            per_tag.entry(tag).or_insert_with(|| vec![0; ticks])[t] += 1;
        }
        for (i, &a) in tags.iter().enumerate() {
            tick_pairs[t].extend(tags[i + 1..].iter().map(|&b| TagPair::new(a, b)));
        }
    }
    let bursts: FxHashMap<TagId, Vec<Burst>> = per_tag
        .iter()
        .filter(|(_, series)| series.iter().sum::<u64>() >= min_count)
        .map(|(&tag, series)| (tag, detect_bursts(series, &totals, config)))
        .collect();
    let weight_at = |tag: TagId, t: usize| -> Option<f64> {
        bursts.get(&tag)?.iter().find(|b| b.start <= t && t < b.end).map(|b| b.weight)
    };
    let mut seen = FxHashSet::default();
    (0..ticks)
        .map(|t| {
            seen.clear();
            let mut ranked: Vec<(TagPair, f64)> = Vec::new();
            for &pair in &tick_pairs[t] {
                if !seen.insert(pair) {
                    continue;
                }
                if let (Some(wa), Some(wb)) = (weight_at(pair.lo(), t), weight_at(pair.hi(), t)) {
                    ranked.push((pair, wa + wb));
                }
            }
            ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite weights"));
            ranked.truncate(k);
            let tick = Tick(t as u64);
            RankingSnapshot { tick, time: tick_spec.end_of(tick), ranked }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> KleinbergConfig {
        KleinbergConfig { s: 3.0, gamma: 1.0 }
    }

    #[test]
    fn flat_series_has_no_bursts() {
        let relevant = vec![5u64; 30];
        let totals = vec![100u64; 30];
        assert!(detect_bursts(&relevant, &totals, &config()).is_empty());
    }

    #[test]
    fn clear_burst_is_found_with_correct_extent() {
        let mut relevant = vec![5u64; 30];
        for r in relevant.iter_mut().take(20).skip(10) {
            *r = 40;
        }
        let totals = vec![100u64; 30];
        let bursts = detect_bursts(&relevant, &totals, &config());
        assert_eq!(bursts.len(), 1, "{bursts:?}");
        let b = &bursts[0];
        assert!(b.start >= 9 && b.start <= 11, "start {b:?}");
        assert!(b.end >= 19 && b.end <= 21, "end {b:?}");
        assert!(b.weight > 0.0);
        assert!(in_burst(&bursts, 15));
        assert!(!in_burst(&bursts, 5));
    }

    #[test]
    fn two_separate_bursts() {
        let mut relevant = vec![4u64; 40];
        for r in relevant.iter_mut().take(10).skip(5) {
            *r = 30;
        }
        for r in relevant.iter_mut().take(32).skip(25) {
            *r = 30;
        }
        let totals = vec![100u64; 40];
        let bursts = detect_bursts(&relevant, &totals, &config());
        assert_eq!(bursts.len(), 2, "{bursts:?}");
        assert!(bursts[0].end <= bursts[1].start);
    }

    #[test]
    fn gamma_suppresses_marginal_blips() {
        let mut relevant = vec![5u64; 30];
        relevant[15] = 9; // less than the s=3 burst rate
        let totals = vec![100u64; 30];
        let strict = KleinbergConfig { s: 3.0, gamma: 5.0 };
        assert!(detect_bursts(&relevant, &totals, &strict).is_empty());
    }

    #[test]
    fn higher_weight_for_stronger_bursts() {
        let totals = vec![100u64; 20];
        let mut weak = vec![5u64; 20];
        let mut strong = vec![5u64; 20];
        for i in 8..12 {
            weak[i] = 18;
            strong[i] = 50;
        }
        let w = detect_bursts(&weak, &totals, &config());
        let s = detect_bursts(&strong, &totals, &config());
        assert!(!w.is_empty() && !s.is_empty());
        assert!(s[0].weight > w[0].weight);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(detect_bursts(&[], &[], &config()).is_empty());
        assert!(detect_bursts(&[0, 0], &[10, 10], &config()).is_empty(), "no events at all");
        // All mass in one batch of a two-batch series is a burst there.
        let bursts = detect_bursts(&[0, 30], &[100, 100], &config());
        assert!(in_burst(&bursts, 1));
        assert!(!in_burst(&bursts, 0));
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn mismatched_lengths_panic() {
        let _ = detect_bursts(&[1, 2], &[10], &config());
    }

    #[test]
    #[should_panic(expected = "faster than the base state")]
    fn s_must_exceed_one() {
        let _ = detect_bursts(&[1], &[10], &KleinbergConfig { s: 1.0, gamma: 1.0 });
    }
}
