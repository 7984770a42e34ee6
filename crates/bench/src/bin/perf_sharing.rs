//! Multi-plan sharing ablation (§4.1).
//!
//! N parallel query plans (same prefix: source + entity tagging, different
//! engine settings) with and without structural sharing. Reports total
//! operator events processed and wall time; outputs are verified identical.
//!
//! Run: `cargo run --release -p enblogue-bench --bin perf_sharing`
//!
//! Besides the printed table, the run records every row to
//! `BENCH_sharing.json` (flat JSON, written by hand — no serializer in the
//! offline build) so CI and later sessions can diff shared vs unshared
//! processed-event counts.

use enblogue::prelude::*;
use enblogue_bench::{small_archive, timed, Table};
use std::sync::Arc;

/// One measured row of the ablation.
struct Row {
    plans: usize,
    events_shared: u64,
    events_unshared: u64,
    shared_secs: f64,
    unshared_secs: f64,
}

fn write_json(rows: &[Row], path: &str) {
    let mut out = String::from("{\n  \"experiment\": \"P2_plan_sharing\",\n  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"plans\": {}, \"events_shared\": {}, \"events_unshared\": {}, \
             \"shared_secs\": {:.4}, \"unshared_secs\": {:.4}, \"events_saved\": {}}}{}\n",
            row.plans,
            row.events_shared,
            row.events_unshared,
            row.shared_secs,
            row.unshared_secs,
            row.events_unshared - row.events_shared,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    if let Err(err) = std::fs::write(path, out) {
        eprintln!("warning: could not write {path}: {err}");
    } else {
        println!("\nrows recorded to {path}");
    }
}

fn main() {
    let archive = small_archive(0x9A);
    let tagger = Arc::new(EntityTagger::new(Arc::clone(&archive.universe.gazetteer)));
    println!("Plan sharing: {} docs, prefix = source + entity tagging\n", archive.len());

    let build_config = |k: usize| {
        EnBlogueConfig::builder()
            .tick_spec(TickSpec::daily())
            .window_ticks(7)
            .seed_count(25)
            .min_seed_count(3)
            .top_k(k)
            .build()
            .unwrap()
    };

    let table = Table::new(&[8, 16, 16, 12, 12, 10]);
    table.header(&[
        "plans",
        "events shared",
        "events unshared",
        "shared (s)",
        "unshared(s)",
        "speedup",
    ]);
    let mut rows: Vec<Row> = Vec::new();
    for n_plans in [1usize, 2, 4, 8] {
        let run = |share: bool| {
            let mut builder = PipelineBuilder::new(
                archive.docs.clone(),
                TickSpec::daily(),
                archive.interner.clone(),
            )
            .with_entity_tagging(Arc::clone(&tagger));
            for i in 0..n_plans {
                builder = builder.with_engine(format!("plan-{i}"), build_config(5 + i));
            }
            if !share {
                builder = builder.without_sharing();
            }
            timed(|| builder.run().unwrap())
        };
        let ((shared_stats, shared_handles), shared_secs) = run(true);
        let ((unshared_stats, unshared_handles), unshared_secs) = run(false);
        // Sharing must be output-transparent.
        for (a, b) in shared_handles.iter().zip(&unshared_handles) {
            assert_eq!(*a.lock().unwrap(), *b.lock().unwrap(), "sharing changed results!");
        }
        table.row(&[
            &format!("{n_plans}"),
            &format!("{}", shared_stats.total_processed()),
            &format!("{}", unshared_stats.total_processed()),
            &format!("{shared_secs:.2}"),
            &format!("{unshared_secs:.2}"),
            &format!("{:.2}x", unshared_secs / shared_secs.max(1e-9)),
        ]);
        rows.push(Row {
            plans: n_plans,
            events_shared: shared_stats.total_processed(),
            events_unshared: unshared_stats.total_processed(),
            shared_secs,
            unshared_secs,
        });
    }
    println!("\nWith sharing the prefix cost is paid once; without it, once per plan —");
    println!("\"overlapping parts … are shared for efficiency\" (§4.1). Outputs verified equal.");
    write_json(&rows, "BENCH_sharing.json");
}
