//! Experiment SC1 — Show Case 1: revisiting historic events.
//!
//! Replays the synthetic NYT-style archive and reports, per scripted
//! historic event, whether/when/where it ranked, plus aggregate quality —
//! the quantitative version of letting demo visitors "judge whether the
//! rankings would be satisfactory". How the ranking changes with the
//! user-chosen time range is the `window=` axis of `QUALITY.json`.
//!
//! Run: `cargo run --release -p enblogue-bench --bin showcase1`

use enblogue::datagen::eval::evaluate;
use enblogue::prelude::*;
use enblogue_bench::{daily_config, f2, standard_archive, timed, Table};

fn main() {
    let archive = standard_archive();
    println!(
        "SC1 — historic events on an NYT-style archive ({} docs, {} days, {} events)\n",
        archive.len(),
        90,
        archive.script.len()
    );

    let ((snapshots, metrics), secs) = timed(|| {
        let mut engine = EnBlogueEngine::new(daily_config());
        let snaps = engine.run_replay(&archive.docs);
        (snaps, engine.metrics())
    });

    let report = evaluate(&snapshots, &archive.script, 10, 2 * Timestamp::DAY);

    let table = Table::new(&[14, 30, 10, 10, 12, 10]);
    table.header(&["event", "pair", "shape", "start", "peak rank", "latency"]);
    for (event, outcome) in archive.script.events().iter().zip(&report.outcomes) {
        table.row(&[
            &event.name,
            &format!(
                "{} + {}",
                archive.interner.display(event.tag_a),
                archive.interner.display(event.tag_b)
            ),
            event.shape.name(),
            &format!("d{}", event.start.as_millis() / Timestamp::DAY),
            &outcome.best_rank.map_or("miss".into(), |r| format!("#{}", r + 1)),
            &outcome
                .latency_ms
                .map_or("-".into(), |ms| format!("{:.1}d", ms as f64 / Timestamp::DAY as f64)),
        ]);
    }
    println!();
    println!("recall            {}", f2(report.recall));
    println!("precision@10      {}", f2(report.precision_at_k));
    println!("mean latency      {} days", f2(report.mean_latency_ms / Timestamp::DAY as f64));
    println!(
        "replay            {} docs in {:.2}s ({} docs/s), {} pairs discovered, {} tracked",
        metrics.docs_processed,
        secs,
        (metrics.docs_processed as f64 / secs) as u64,
        metrics.pairs_discovered,
        metrics.pairs_tracked
    );
}
