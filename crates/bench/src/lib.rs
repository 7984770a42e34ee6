//! Shared harness for the EnBlogue experiment binaries in `src/bin/`.
//!
//! [`quality`] is the detection-quality matrix behind the committed
//! `QUALITY.json` (the `quality` bin and `tests/quality.rs` gate it). The
//! remaining bins — the show cases and the per-layer `perf_*` drill-downs
//! listed in `docs/BENCHMARKS.md` — share the standard workloads,
//! wall-clock measurement and fixed-width table rendering below, so the
//! printed rows can be pasted into a report verbatim.

pub mod quality;

use enblogue::datagen::nyt::{NytArchive, NytConfig};
use enblogue::datagen::twitter::{TweetConfig, TweetStream};
use enblogue::prelude::*;
use std::time::Instant;

/// The standard Show-Case-1 archive used across experiments (fixed seed).
pub fn standard_archive() -> NytArchive {
    NytArchive::generate(&NytConfig {
        seed: 0xE_B106,
        days: 90,
        docs_per_day: 150,
        n_categories: 20,
        n_descriptors: 160,
        n_entities: 120,
        n_terms: 500,
        historic_events: 6,
    })
}

/// A smaller archive for sweeps that run many configurations.
pub fn small_archive(seed: u64) -> NytArchive {
    NytArchive::generate(&NytConfig {
        seed,
        days: 60,
        docs_per_day: 120,
        n_categories: 20,
        n_descriptors: 150,
        n_entities: 80,
        n_terms: 400,
        historic_events: 5,
    })
}

/// The standard Show-Case-2 tweet stream (fixed seed, stunt enabled).
pub fn standard_tweets() -> TweetStream {
    TweetStream::generate(&TweetConfig {
        seed: 0x51_60_0d,
        hours: 48,
        tweets_per_minute: 15,
        n_hashtags: 400,
        n_terms: 800,
        planted_events: 3,
        sigmod_stunt: true,
    })
}

/// The engine configuration used for daily-tick archive experiments.
pub fn daily_config() -> EnBlogueConfig {
    EnBlogueConfig::builder()
        .tick_spec(TickSpec::daily())
        .window_ticks(7)
        .seed_count(30)
        .min_seed_count(3)
        .top_k(10)
        .min_pair_support(3)
        .build()
        .expect("valid daily config")
}

/// Times `f`, returning `(result, seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed().as_secs_f64())
}

/// Fixed-width table printer.
pub struct Table {
    widths: Vec<usize>,
}

impl Table {
    /// A table whose columns have the given widths.
    pub fn new(widths: &[usize]) -> Self {
        Table { widths: widths.to_vec() }
    }

    /// Prints the header row followed by a rule.
    pub fn header(&self, cells: &[&str]) {
        self.row(cells);
        println!("{}", "-".repeat(self.widths.iter().sum::<usize>() + 2 * self.widths.len()));
    }

    /// Prints one row (first column left-aligned, rest right-aligned).
    pub fn row(&self, cells: &[&str]) {
        let mut line = String::new();
        for (i, (cell, width)) in cells.iter().zip(&self.widths).enumerate() {
            if i == 0 {
                line.push_str(&format!("{cell:<width$}  "));
            } else {
                line.push_str(&format!("{cell:>width$}  "));
            }
        }
        println!("{}", line.trim_end());
    }
}

/// Formats a float with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a rate (per second) with a unit suffix.
pub fn rate(count: u64, seconds: f64) -> String {
    let r = count as f64 / seconds.max(1e-9);
    if r >= 1e6 {
        format!("{:.2}M/s", r / 1e6)
    } else if r >= 1e3 {
        format!("{:.1}k/s", r / 1e3)
    } else {
        format!("{r:.0}/s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(f2(0.12345), "0.12");
        assert_eq!(rate(1000, 1.0), "1.0k/s");
        assert_eq!(rate(2_000_000, 1.0), "2.00M/s");
        assert_eq!(rate(500, 1.0), "500/s");
    }

    #[test]
    fn timed_measures_something() {
        let (value, secs) = timed(|| 21 * 2);
        assert_eq!(value, 42);
        assert!(secs >= 0.0);
    }
}
