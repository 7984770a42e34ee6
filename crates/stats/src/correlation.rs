//! Set-overlap correlation measures between two tags.
//!
//! Within a sliding window, let `a = |D(t1)|` and `b = |D(t2)|` be the
//! number of documents carrying each tag and `ab = |D(t1) ∩ D(t2)|` the
//! number carrying both (the "intersection size" of Figure 1), out of `n`
//! window documents. Each measure maps these counts to a correlation value;
//! all are normalised to `[0, 1]` so that shift detection and ranking can
//! treat them interchangeably.

use serde::{Deserialize, Serialize};

/// Windowed co-occurrence counts for a tag pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PairCounts {
    /// Documents containing the first tag.
    pub a: u64,
    /// Documents containing the second tag.
    pub b: u64,
    /// Documents containing both tags.
    pub ab: u64,
    /// Total documents in the window.
    pub n: u64,
}

impl PairCounts {
    /// Convenience constructor.
    pub fn new(a: u64, b: u64, ab: u64, n: u64) -> Self {
        PairCounts { a, b, ab, n }
    }

    /// Whether the counts are consistent (`ab ≤ min(a, b)`, `a, b ≤ n`).
    pub fn is_consistent(&self) -> bool {
        self.ab <= self.a.min(self.b) && self.a.max(self.b) <= self.n
    }
}

/// The correlation measure applied to windowed pair counts.
///
/// §3(ii): "There are multiple ways how to calculate a correlation measure
/// that reflects some notion of interestingness." These are the standard
/// set-association measures; the term-distribution variant lives in
/// [`crate::divergence`]. The `measure=` rows of `QUALITY.json` compare
/// their detection quality; the `correlation` criterion bench their cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum CorrelationMeasure {
    /// `|A∩B| / |A∪B|` — the default; symmetric, popularity-robust.
    #[default]
    Jaccard,
    /// `2|A∩B| / (|A|+|B|)` — Dice/Sørensen coefficient.
    Dice,
    /// `|A∩B| / min(|A|,|B|)` — overlap (containment) coefficient; reacts
    /// fastest when a small tag attaches to a big one.
    Overlap,
    /// `|A∩B| / sqrt(|A|·|B|)` — cosine on binary incidence vectors.
    Cosine,
    /// Normalised pointwise mutual information, mapped to `[0,1]`.
    NormalizedPmi,
    /// `|A∩B| / max(|A|,|B|)` — the probability that a document of the
    /// *popular* tag also carries the niche one; the most conservative
    /// measure, dominated by the popular side.
    Conditional,
}

impl CorrelationMeasure {
    /// All measures, for ablation sweeps.
    pub const ALL: [CorrelationMeasure; 6] = [
        CorrelationMeasure::Jaccard,
        CorrelationMeasure::Dice,
        CorrelationMeasure::Overlap,
        CorrelationMeasure::Cosine,
        CorrelationMeasure::NormalizedPmi,
        CorrelationMeasure::Conditional,
    ];

    /// Short identifier for experiment output.
    pub const fn name(self) -> &'static str {
        match self {
            CorrelationMeasure::Jaccard => "jaccard",
            CorrelationMeasure::Dice => "dice",
            CorrelationMeasure::Overlap => "overlap",
            CorrelationMeasure::Cosine => "cosine",
            CorrelationMeasure::NormalizedPmi => "npmi",
            CorrelationMeasure::Conditional => "conditional",
        }
    }

    /// Computes the correlation value in `[0, 1]`.
    ///
    /// Degenerate inputs (empty sets, zero window) yield 0 — an untracked
    /// pair is uncorrelated, never an error.
    pub fn compute(self, counts: PairCounts) -> f64 {
        let PairCounts { a, b, ab, n } = counts;
        if ab == 0 || a == 0 || b == 0 {
            return 0.0;
        }
        let (af, bf, abf) = (a as f64, b as f64, ab as f64);
        match self {
            CorrelationMeasure::Jaccard => {
                let union = af + bf - abf;
                if union <= 0.0 {
                    0.0
                } else {
                    abf / union
                }
            }
            CorrelationMeasure::Dice => 2.0 * abf / (af + bf),
            CorrelationMeasure::Overlap => abf / af.min(bf),
            CorrelationMeasure::Cosine => abf / (af * bf).sqrt(),
            CorrelationMeasure::NormalizedPmi => {
                if n == 0 {
                    return 0.0;
                }
                let nf = n as f64;
                let p_ab = abf / nf;
                let p_a = af / nf;
                let p_b = bf / nf;
                if p_ab >= 1.0 {
                    // All documents carry both tags: perfectly associated.
                    return 1.0;
                }
                let pmi = (p_ab / (p_a * p_b)).ln();
                // npmi ∈ [−1, 1]; clamp the anti-correlated half to 0 so
                // independence sits at ~0 like the other measures (mapping
                // [−1,1] → [0,1] would park independent pairs at 0.5, where
                // sampling drift looks like a shift).
                let npmi = pmi / (-p_ab.ln());
                npmi.clamp(0.0, 1.0)
            }
            CorrelationMeasure::Conditional => abf / af.max(bf),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} !~ {b}");
    }

    #[test]
    fn jaccard_matches_definition() {
        let c = PairCounts::new(10, 5, 3, 100);
        approx(CorrelationMeasure::Jaccard.compute(c), 3.0 / 12.0);
    }

    #[test]
    fn dice_matches_definition() {
        let c = PairCounts::new(10, 5, 3, 100);
        approx(CorrelationMeasure::Dice.compute(c), 6.0 / 15.0);
    }

    #[test]
    fn overlap_matches_definition() {
        let c = PairCounts::new(10, 5, 3, 100);
        approx(CorrelationMeasure::Overlap.compute(c), 3.0 / 5.0);
    }

    #[test]
    fn cosine_matches_definition() {
        let c = PairCounts::new(10, 5, 3, 100);
        approx(CorrelationMeasure::Cosine.compute(c), 3.0 / (50.0f64).sqrt());
    }

    #[test]
    fn all_measures_zero_on_disjoint_sets() {
        let c = PairCounts::new(10, 5, 0, 100);
        for m in CorrelationMeasure::ALL {
            assert_eq!(m.compute(c), 0.0, "{}", m.name());
        }
    }

    #[test]
    fn all_measures_zero_on_empty_window() {
        let c = PairCounts::default();
        for m in CorrelationMeasure::ALL {
            assert_eq!(m.compute(c), 0.0, "{}", m.name());
        }
    }

    #[test]
    fn all_measures_bounded_unit_interval() {
        let cases = [
            PairCounts::new(10, 5, 3, 100),
            PairCounts::new(1, 1, 1, 1),
            PairCounts::new(50, 50, 50, 50),
            PairCounts::new(99, 1, 1, 100),
            PairCounts::new(2, 3, 1, 1000),
        ];
        for c in cases {
            assert!(c.is_consistent());
            for m in CorrelationMeasure::ALL {
                let v = m.compute(c);
                assert!((0.0..=1.0).contains(&v), "{} on {c:?} gave {v}", m.name());
            }
        }
    }

    #[test]
    fn identical_sets_score_one() {
        let c = PairCounts::new(7, 7, 7, 50);
        for m in [
            CorrelationMeasure::Jaccard,
            CorrelationMeasure::Dice,
            CorrelationMeasure::Overlap,
            CorrelationMeasure::Cosine,
            CorrelationMeasure::Conditional,
        ] {
            approx(m.compute(c), 1.0);
        }
        // NPMI of a perfectly-dependent non-universal pair is 1.
        assert!(CorrelationMeasure::NormalizedPmi.compute(c) > 0.99);
    }

    #[test]
    fn npmi_near_zero_for_independence() {
        // p(a)=p(b)=0.5, p(ab)=0.25 ⇒ pmi = 0 ⇒ npmi = 0.
        let c = PairCounts::new(500, 500, 250, 1000);
        approx(CorrelationMeasure::NormalizedPmi.compute(c), 0.0);
    }

    #[test]
    fn npmi_universal_pair_is_one() {
        let c = PairCounts::new(10, 10, 10, 10);
        approx(CorrelationMeasure::NormalizedPmi.compute(c), 1.0);
    }

    #[test]
    fn jaccard_is_popularity_robust_but_overlap_is_not() {
        // Figure 1's point: a peak in the popular tag alone must not move
        // the measure much. Doubling |A| with constant intersection:
        let before = PairCounts::new(100, 10, 5, 1000);
        let after = PairCounts::new(200, 10, 5, 1000);
        let jac_drop = CorrelationMeasure::Jaccard.compute(before)
            - CorrelationMeasure::Jaccard.compute(after);
        assert!(jac_drop > 0.0, "jaccard decreases when only popularity grows");
        // Overlap is completely insensitive to the popular side:
        approx(
            CorrelationMeasure::Overlap.compute(before),
            CorrelationMeasure::Overlap.compute(after),
        );
    }

    #[test]
    fn consistency_check_works() {
        assert!(PairCounts::new(5, 3, 3, 10).is_consistent());
        assert!(!PairCounts::new(5, 3, 4, 10).is_consistent(), "ab > min(a,b)");
        assert!(!PairCounts::new(11, 3, 1, 10).is_consistent(), "a > n");
    }

    #[test]
    fn names_are_unique() {
        let names: std::collections::HashSet<_> =
            CorrelationMeasure::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), CorrelationMeasure::ALL.len());
    }
}
