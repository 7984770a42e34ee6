//! TwitterMonitor-style burst-detection baseline.
//!
//! The paper positions EnBlogue against Mathioudakis & Koudas' Twitter
//! Monitor (SIGMOD 2010): "their Twitter Monitor system discovers topic
//! trends in tweets, by detecting bursts of tags or tag groups. Tag groups
//! are formed by clustering co-occurring tags … unlike looking solely for
//! bursty tags, we detect shifts in tag correlations as they dynamically
//! arise."
//!
//! This crate implements that published recipe faithfully enough to serve
//! as the comparator in `tests/figure1.rs` and in the `baseline=burst` /
//! `baseline=kleinberg` rows of `QUALITY.json`:
//!
//! 1. **Burst detection** ([`burst`]) — a tag bursts when its per-tick
//!    arrival count exceeds `mean + γ·stddev` of its own history,
//! 2. **Grouping** ([`grouping`]) — concurrent bursty tags are clustered
//!    by windowed co-occurrence into trends,
//! 3. **Kleinberg automaton** ([`kleinberg`]) — the principled two-state
//!    burst model (KDD 2002) underlying the trend-detection literature,
//!    as a second, stronger per-tag detector.
//!
//! [`burst::replay_snapshots`] and [`kleinberg::replay_snapshots`] turn
//! either detector's output into tick-aligned ranking snapshots, so both
//! are scored with the same metric as EnBlogue.
//!
//! The crucial behavioural difference the experiments expose: a pair whose
//! *intersection* grows while neither member bursts individually (Figure 1)
//! is invisible to both baselines, and a popular tag's solo peaks raise
//! false trends that EnBlogue's correlation shifts ignore.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod burst;
pub mod grouping;
pub mod kleinberg;

pub use burst::{BaselineConfig, BurstBaseline, BurstInfo, Trend};
pub use kleinberg::{detect_bursts, Burst, KleinbergConfig};
