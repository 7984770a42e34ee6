//! Sliding-window primitives and stream synopses for EnBlogue.
//!
//! The paper's engine exposes "plug-in options for sketching operators that
//! map stream items into synopses, statistics operators, …" (§4.1). This
//! crate provides those building blocks:
//!
//! * [`RingBuffer`] — fixed-capacity circular buffer,
//! * [`TickSeries`] — tick-aligned sliding window over per-tick values with
//!   O(1) aggregates,
//! * [`WindowedCounter`] — exact per-key counts over the last *W* ticks
//!   (implements the "sliding-window average on the document stream" used
//!   for seed selection, §3(i)),
//! * [`SlidingStats`] — windowed mean/variance for volatility measures,
//! * [`DecayValue`] — exponentially decaying score with configurable
//!   half-life (the "exponential decline factor with a half life of
//!   approximately 2 days", §3(iii)),
//! * [`SpaceSaving`] — approximate heavy hitters (sketch-based seed
//!   selection alternative; the `seeds=sketch(…)` rows of `QUALITY.json`),
//! * [`HyperLogLog`] — approximate distinct counting in kilobytes,
//! * [`TopK`] — bounded score-ordered ranking maintenance.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counter;
pub mod decay;
pub mod hll;
pub mod ring;
pub mod spacesaving;
pub mod stats;
pub mod tick_series;
pub mod topk;

pub use counter::WindowedCounter;
pub use decay::{DecayMemo, DecayValue};
pub use hll::HyperLogLog;
pub use ring::RingBuffer;
pub use spacesaving::SpaceSaving;
pub use stats::SlidingStats;
pub use tick_series::TickSeries;
pub use topk::TopK;
