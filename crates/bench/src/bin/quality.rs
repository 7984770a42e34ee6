//! Detection quality over the design-space matrix of
//! `enblogue_bench::quality`, checked against the committed `QUALITY.json`.
//!
//! Run: `cargo run --release -p enblogue-bench --bin quality` prints the
//! table and exits non-zero if any row differs from `QUALITY.json`;
//! `-- --write` regenerates the file instead.

use enblogue_bench::quality::{committed, matrix, QUALITY_PATH};
use enblogue_bench::{f2, Table};
use std::process::ExitCode;

fn main() -> ExitCode {
    let write = std::env::args().any(|arg| arg == "--write");
    let committed = committed();
    let table = Table::new(&[24, 8, 8, 8, 8, 8, 6]);
    table.header(&["row", "recall", "p@10", "lead", "worst", "dwell", "gate"]);
    let mut lines = Vec::new();
    let mut diffs = Vec::new();
    for (i, row) in matrix().iter().enumerate() {
        let scores = row.score();
        let line = row.render(&scores);
        let same = committed.get(i) == Some(&line);
        table.row(&[
            &row.name,
            &f2(scores.recall),
            &f2(scores.precision_at_k),
            &f2(scores.mean_lead_ticks),
            &scores.worst_rank.map_or("-".into(), |r| format!("#{r}")),
            &f2(scores.mean_dwell_ticks),
            if same { "ok" } else { "DIFF" },
        ]);
        if !same {
            diffs.push(format!("- {}\n+ {line}", committed.get(i).map_or("(missing)", |l| l)));
        }
        lines.push(line);
    }
    println!("\nlead and dwell in days; worst = worst best-rank of a detected event");
    if write {
        std::fs::write(QUALITY_PATH, lines.join("\n") + "\n").expect("write QUALITY.json");
        println!("wrote {} rows to QUALITY.json", lines.len());
        return ExitCode::SUCCESS;
    }
    if committed.len() > lines.len() {
        diffs.push(format!("QUALITY.json has {} extra lines", committed.len() - lines.len()));
    }
    if diffs.is_empty() {
        println!("all {} rows match QUALITY.json", lines.len());
        return ExitCode::SUCCESS;
    }
    eprintln!("\n{}", diffs.join("\n"));
    eprintln!("QUALITY.json is out of date; if the change is intended, rerun with `-- --write`");
    ExitCode::FAILURE
}
