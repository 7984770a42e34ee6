//! Gates the detection-quality table: every matrix row except
//! `measure=jsd` must render exactly its committed line in `QUALITY.json`
//! (bound 0). `jsd` costs ≈ 2 s per archive even in release, so the CI
//! `quality` bin run covers it. One test per axis, so rows score on
//! parallel test threads.

use enblogue_bench::quality::{committed, matrix, Scores};

/// Scores the rows of `axes` and asserts each line equals its committed
/// line; returns `(row name, scores)`.
fn gate(axes: &[&str]) -> Vec<(String, Scores)> {
    let committed = committed();
    let rows = matrix();
    assert_eq!(
        committed.len(),
        rows.len(),
        "QUALITY.json needs one line per matrix row; regenerate it with \
         `cargo run --release -p enblogue-bench --bin quality -- --write`"
    );
    let mut scored = Vec::new();
    for (row, line) in rows.iter().zip(&committed) {
        if !axes.contains(&row.axis()) || row.name == "measure=jsd" {
            continue;
        }
        let scores = row.score();
        assert_eq!(&row.render(&scores), line, "row `{}` differs from QUALITY.json", row.name);
        scored.push((row.name.clone(), scores));
    }
    assert!(!scored.is_empty(), "no rows on axes {axes:?}");
    scored
}

#[test]
fn default_row_beats_both_burst_baselines() {
    let scored = gate(&["default", "baseline"]);
    let recall = |name: &str| scored.iter().find(|(n, _)| n == name).expect(name).1.recall;
    let default = recall("default");
    // The paper's claim: correlation shifts catch volume-preserving pair
    // events that per-tag burst detectors cannot see.
    assert!(default >= 0.8, "default recall {default}");
    assert!(default > recall("baseline=burst"));
    assert!(default > recall("baseline=kleinberg"));
}

#[test]
fn seed_strategies() {
    gate(&["seeds"]);
}

#[test]
fn correlation_measures() {
    gate(&["measure"]);
}

#[test]
fn predictors_and_normalization() {
    gate(&["predictor", "normalization"]);
}

#[test]
fn half_lives() {
    gate(&["half_life"]);
}

#[test]
fn windows() {
    gate(&["window"]);
}
