//! One-step-ahead forecasters for correlation series.
//!
//! §3(iii): "at any point in time we use the previous correlation values
//! and try to predict the current ones. If a predicted value is far away
//! from the real one then the topic is considered to be emergent and the
//! prediction error is used as a ranking criterion."
//!
//! All predictors are *stateless over the supplied history*: given the
//! window of previous correlation values (oldest → newest, excluding the
//! value being predicted) they return the forecast for the next value.
//! This makes them trivially pluggable as "shift prediction operators"
//! (§4.1) and exactly reproducible.

use serde::{Deserialize, Serialize};

/// A correlation history exposed as up to two contiguous slices (oldest →
/// newest), so ring-resident histories can be read **in place**.
///
/// The slab pair storage keeps every history in a strided arena ring; a
/// full ring is two contiguous runs (`head` = the older run, `tail` = the
/// wrapped newer run). Predictors consume this view directly, which is
/// what lets the tick-close scoring loop run without copying each history
/// into a scratch `Vec` first. A plain slice is the `tail.is_empty()`
/// special case ([`SeriesView::contiguous`]), and every accessor iterates
/// values in exactly the order the equivalent concatenated slice would —
/// predictions are bit-identical between the two representations.
#[derive(Debug, Clone, Copy)]
pub struct SeriesView<'a> {
    head: &'a [f64],
    tail: &'a [f64],
}

impl<'a> SeriesView<'a> {
    /// A view over `head` followed by `tail` (both oldest → newest).
    #[inline]
    pub fn new(head: &'a [f64], tail: &'a [f64]) -> Self {
        SeriesView { head, tail }
    }

    /// A view over one contiguous slice.
    #[inline]
    pub fn contiguous(values: &'a [f64]) -> Self {
        SeriesView { head: values, tail: &[] }
    }

    /// Number of values in the series.
    #[inline]
    pub fn len(self) -> usize {
        self.head.len() + self.tail.len()
    }

    /// Whether the series holds no values.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.head.is_empty() && self.tail.is_empty()
    }

    /// The value `i` steps from the oldest.
    #[inline]
    pub fn get(self, i: usize) -> Option<f64> {
        if i < self.head.len() {
            Some(self.head[i])
        } else {
            self.tail.get(i - self.head.len()).copied()
        }
    }

    /// The newest value.
    #[inline]
    pub fn last(self) -> Option<f64> {
        self.tail.last().or_else(|| self.head.last()).copied()
    }

    /// The view over the newest `n` values (the whole series if shorter).
    #[inline]
    pub fn suffix(self, n: usize) -> SeriesView<'a> {
        let skip = self.len().saturating_sub(n);
        if skip <= self.head.len() {
            SeriesView { head: &self.head[skip..], tail: self.tail }
        } else {
            SeriesView { head: &[], tail: &self.tail[skip - self.head.len()..] }
        }
    }

    /// Iterates oldest → newest.
    #[inline]
    pub fn iter(self) -> impl Iterator<Item = f64> + 'a {
        self.head.iter().chain(self.tail.iter()).copied()
    }

    /// Splits off the oldest value, returning it and the rest.
    #[inline]
    pub fn split_first(self) -> Option<(f64, SeriesView<'a>)> {
        match self.head.split_first() {
            Some((&first, rest)) => Some((first, SeriesView { head: rest, tail: self.tail })),
            None => self
                .tail
                .split_first()
                .map(|(&first, rest)| (first, SeriesView { head: rest, tail: &[] })),
        }
    }
}

/// Number of pair lanes a batched scoring tile holds.
///
/// Eight `f64` lanes are one cache line per time step in the time-major
/// tile layout, and wide enough to fill 2×AVX2 / 1×AVX-512 vectors when
/// the per-lane recurrences autovectorize across lanes.
pub const LANES: usize = 8;

/// A tile of [`LANES`] equal-length histories in **time-major** layout:
/// the value of lane `l` at step `t` (oldest → newest) lives at
/// `values[t * LANES + l]`.
///
/// This is the gather target of the batched tick close: the slab close
/// loop copies up to [`LANES`] ring-resident histories (rotation already
/// normalised away — each lane is written oldest → newest) into one
/// contiguous scratch buffer, then hands the tile to
/// [`Predictor::predict_batch`]. Time-major order is what lets recurrence
/// predictors (EWMA, Holt) vectorize: the time loop stays outer and
/// sequential per lane — preserving the scalar operation order bit for
/// bit — while the inner [`LANES`]-wide loop carries independent lanes.
#[derive(Debug, Clone, Copy)]
pub struct HistoryTile<'a> {
    values: &'a [f64],
    len: usize,
}

impl<'a> HistoryTile<'a> {
    /// A tile over `len` time steps of [`LANES`] lanes each.
    ///
    /// # Panics
    /// Panics unless `values.len() == len * LANES`.
    #[inline]
    pub fn new(values: &'a [f64], len: usize) -> Self {
        assert_eq!(values.len(), len * LANES, "time-major tile must hold len * LANES values");
        HistoryTile { values, len }
    }

    /// Shared history length of every lane.
    #[inline]
    pub fn len(self) -> usize {
        self.len
    }

    /// Whether the lanes hold no values.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// The [`LANES`]-wide row of time step `t` (0 = oldest).
    ///
    /// Returned as a fixed-size array reference so kernel inner loops are
    /// bounds-check-free.
    #[inline]
    pub fn row(self, t: usize) -> &'a [f64; LANES] {
        self.values[t * LANES..(t + 1) * LANES].try_into().expect("row is LANES wide")
    }

    /// The value of `lane` at step `t` — the reference-path accessor.
    #[inline]
    pub fn lane_value(self, t: usize, lane: usize) -> f64 {
        self.values[t * LANES + lane]
    }
}

/// A one-step-ahead forecaster over a correlation series.
pub trait Predictor: Send + Sync {
    /// Predicts the next value from `history` (oldest → newest), supplied
    /// as a possibly-split [`SeriesView`] so ring-buffer histories are read
    /// in place.
    ///
    /// Returns `None` when the history is too short to say anything; the
    /// shift detector treats that as "no alarm" rather than a zero
    /// prediction, so brand-new pairs don't look emergent for free.
    fn predict_view(&self, history: SeriesView<'_>) -> Option<f64>;

    /// [`Predictor::predict_view`] over one contiguous slice.
    fn predict(&self, history: &[f64]) -> Option<f64> {
        self.predict_view(SeriesView::contiguous(history))
    }

    /// Batched [`Predictor::predict_view`] over a time-major tile of
    /// [`LANES`] equal-length histories.
    ///
    /// Writes one prediction per lane into `out` and returns `true`, or
    /// returns `false` — leaving `out` untouched — when the shared
    /// history length is below [`Predictor::min_history`] (the batched
    /// spelling of the scalar path's `None`; lanes share one length, so
    /// the gate is uniform across the tile).
    ///
    /// Contract: `out[l]` must be **bit-identical** to `predict_view`
    /// over lane `l`'s values. Lanes are independent — implementations
    /// vectorize *across* lanes but never reassociate any per-lane
    /// reduction, so tiling is invisible in rankings.
    ///
    /// The default implementation delegates lane by lane to
    /// [`Predictor::predict_view`] through a scratch copy — correct for
    /// any predictor, but allocating; the built-in predictors override it
    /// with lane-parallel kernels.
    fn predict_batch(&self, tile: HistoryTile<'_>, out: &mut [f64; LANES]) -> bool {
        if tile.len() < self.min_history() {
            return false;
        }
        let mut lane_buf = vec![0.0; tile.len()];
        for (lane, out_slot) in out.iter_mut().enumerate() {
            for (t, slot) in lane_buf.iter_mut().enumerate() {
                *slot = tile.lane_value(t, lane);
            }
            match self.predict_view(SeriesView::contiguous(&lane_buf)) {
                Some(v) => *out_slot = v,
                None => return false,
            }
        }
        true
    }

    /// Minimum history length required for a prediction.
    fn min_history(&self) -> usize;

    /// Short identifier for experiment output.
    fn name(&self) -> &'static str;
}

/// Predicts the last observed value (naïve / random-walk forecaster).
#[derive(Debug, Clone, Copy, Default)]
pub struct LastValue;

impl Predictor for LastValue {
    fn predict_view(&self, history: SeriesView<'_>) -> Option<f64> {
        history.last()
    }

    fn predict_batch(&self, tile: HistoryTile<'_>, out: &mut [f64; LANES]) -> bool {
        if tile.is_empty() {
            return false;
        }
        *out = *tile.row(tile.len() - 1);
        true
    }

    fn min_history(&self) -> usize {
        1
    }

    fn name(&self) -> &'static str {
        "last"
    }
}

/// Predicts the mean of the last `window` values.
#[derive(Debug, Clone, Copy)]
pub struct MovingAverage {
    window: usize,
}

impl MovingAverage {
    /// A moving average over `window` trailing values.
    ///
    /// # Panics
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "moving-average window must be positive");
        MovingAverage { window }
    }
}

/// The trailing `window` of `history` and its mean — the window walk
/// shared by [`MovingAverage`] and [`LinearRegression`] (one sequential
/// left-to-right sum, so both stay bit-identical to their batched twins).
#[inline]
fn tail_mean(history: SeriesView<'_>, window: usize) -> (SeriesView<'_>, f64) {
    let tail = history.suffix(window);
    (tail, tail.iter().sum::<f64>() / tail.len() as f64)
}

impl Predictor for MovingAverage {
    fn predict_view(&self, history: SeriesView<'_>) -> Option<f64> {
        if history.is_empty() {
            return None;
        }
        Some(tail_mean(history, self.window).1)
    }

    fn predict_batch(&self, tile: HistoryTile<'_>, out: &mut [f64; LANES]) -> bool {
        if tile.is_empty() {
            return false;
        }
        let take = tile.len().min(self.window);
        let start = tile.len() - take;
        let mut acc = [0.0f64; LANES];
        for t in start..tile.len() {
            let row = tile.row(t);
            for l in 0..LANES {
                acc[l] += row[l];
            }
        }
        let n = take as f64;
        for l in 0..LANES {
            out[l] = acc[l] / n;
        }
        true
    }

    fn min_history(&self) -> usize {
        1
    }

    fn name(&self) -> &'static str {
        "ma"
    }
}

/// Exponentially weighted moving average with smoothing factor `alpha`.
///
/// Higher `alpha` weights recent values more (α = 1 degenerates to
/// [`LastValue`]).
#[derive(Debug, Clone, Copy)]
pub struct Ewma {
    alpha: f64,
}

impl Ewma {
    /// An EWMA with smoothing factor `alpha ∈ (0, 1]`.
    ///
    /// # Panics
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Ewma { alpha }
    }
}

impl Predictor for Ewma {
    fn predict_view(&self, history: SeriesView<'_>) -> Option<f64> {
        let (first, rest) = history.split_first()?;
        let mut level = first;
        for v in rest.iter() {
            level = self.alpha * v + (1.0 - self.alpha) * level;
        }
        Some(level)
    }

    fn predict_batch(&self, tile: HistoryTile<'_>, out: &mut [f64; LANES]) -> bool {
        if tile.is_empty() {
            return false;
        }
        // Time stays the outer, sequential loop — each lane runs the
        // exact scalar recurrence; only the lanes are parallel.
        let mut level = *tile.row(0);
        for t in 1..tile.len() {
            let row = tile.row(t);
            for l in 0..LANES {
                level[l] = self.alpha * row[l] + (1.0 - self.alpha) * level[l];
            }
        }
        *out = level;
        true
    }

    fn min_history(&self) -> usize {
        1
    }

    fn name(&self) -> &'static str {
        "ewma"
    }
}

/// Holt's double exponential smoothing: level + trend.
///
/// Tracks gradual drifts so only *sudden* jumps register as prediction
/// error — exactly the paper's "a shift is sudden if it cannot be
/// predicted using the previous correlation values".
#[derive(Debug, Clone, Copy)]
pub struct Holt {
    alpha: f64,
    beta: f64,
}

impl Holt {
    /// Holt smoothing with level factor `alpha` and trend factor `beta`,
    /// both in `(0, 1]`.
    ///
    /// # Panics
    /// Panics if either factor is outside `(0, 1]`.
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        assert!(beta > 0.0 && beta <= 1.0, "beta must be in (0, 1]");
        Holt { alpha, beta }
    }
}

impl Predictor for Holt {
    fn predict_view(&self, history: SeriesView<'_>) -> Option<f64> {
        if history.len() < 2 {
            return None;
        }
        let first = history.get(0).expect("len checked");
        let second = history.get(1).expect("len checked");
        let mut level = first;
        let mut trend = second - first;
        for v in history.iter().skip(1) {
            let prev_level = level;
            level = self.alpha * v + (1.0 - self.alpha) * (level + trend);
            trend = self.beta * (level - prev_level) + (1.0 - self.beta) * trend;
        }
        Some(level + trend)
    }

    fn predict_batch(&self, tile: HistoryTile<'_>, out: &mut [f64; LANES]) -> bool {
        if tile.len() < 2 {
            return false;
        }
        let first = tile.row(0);
        let second = tile.row(1);
        let mut level = *first;
        let mut trend = [0.0f64; LANES];
        for l in 0..LANES {
            trend[l] = second[l] - first[l];
        }
        // Matches the scalar loop, which starts from index 1 (the second
        // value is smoothed into the state it also initialised).
        for t in 1..tile.len() {
            let row = tile.row(t);
            for l in 0..LANES {
                let prev_level = level[l];
                level[l] = self.alpha * row[l] + (1.0 - self.alpha) * (level[l] + trend[l]);
                trend[l] = self.beta * (level[l] - prev_level) + (1.0 - self.beta) * trend[l];
            }
        }
        for l in 0..LANES {
            out[l] = level[l] + trend[l];
        }
        true
    }

    fn min_history(&self) -> usize {
        2
    }

    fn name(&self) -> &'static str {
        "holt"
    }
}

/// Ordinary least-squares line over the last `window` values, extrapolated
/// one step.
#[derive(Debug, Clone, Copy)]
pub struct LinearRegression {
    window: usize,
}

impl LinearRegression {
    /// OLS over the trailing `window` values (≥ 2).
    ///
    /// # Panics
    /// Panics if `window < 2`.
    pub fn new(window: usize) -> Self {
        assert!(window >= 2, "regression needs at least two points");
        LinearRegression { window }
    }
}

impl Predictor for LinearRegression {
    fn predict_view(&self, history: SeriesView<'_>) -> Option<f64> {
        if history.len() < 2 {
            return None;
        }
        let (tail, y_mean) = tail_mean(history, self.window);
        let n = tail.len() as f64;
        // x = 0..n-1, predict at x = n.
        let x_mean = (n - 1.0) / 2.0;
        let mut sxy = 0.0;
        let mut sxx = 0.0;
        for (i, y) in tail.iter().enumerate() {
            let dx = i as f64 - x_mean;
            sxy += dx * (y - y_mean);
            sxx += dx * dx;
        }
        let slope = if sxx.abs() < f64::EPSILON { 0.0 } else { sxy / sxx };
        Some(y_mean + slope * (n - x_mean))
    }

    fn predict_batch(&self, tile: HistoryTile<'_>, out: &mut [f64; LANES]) -> bool {
        if tile.len() < 2 {
            return false;
        }
        let take = tile.len().min(self.window);
        let start = tile.len() - take;
        let n = take as f64;
        let x_mean = (n - 1.0) / 2.0;
        let mut sum = [0.0f64; LANES];
        for t in start..tile.len() {
            let row = tile.row(t);
            for l in 0..LANES {
                sum[l] += row[l];
            }
        }
        let mut y_mean = [0.0f64; LANES];
        for l in 0..LANES {
            y_mean[l] = sum[l] / n;
        }
        let mut sxy = [0.0f64; LANES];
        // sxx depends only on the window shape, not on the values, so one
        // scalar accumulation serves every lane — the addition sequence is
        // the same one the scalar path interleaves with sxy.
        let mut sxx = 0.0;
        for (i, t) in (start..tile.len()).enumerate() {
            let dx = i as f64 - x_mean;
            let row = tile.row(t);
            for l in 0..LANES {
                sxy[l] += dx * (row[l] - y_mean[l]);
            }
            sxx += dx * dx;
        }
        for l in 0..LANES {
            let slope = if sxx.abs() < f64::EPSILON { 0.0 } else { sxy[l] / sxx };
            out[l] = y_mean[l] + slope * (n - x_mean);
        }
        true
    }

    fn min_history(&self) -> usize {
        2
    }

    fn name(&self) -> &'static str {
        "ols"
    }
}

/// Seasonal-naïve forecaster: predicts the value one period ago.
///
/// News and social streams are strongly periodic (day/night cycles,
/// weekday/weekend). A popular tag's *regular* daily peak is not an
/// emergent topic; predicting "same as this time yesterday" makes
/// periodic structure invisible to shift detection while leaving genuine
/// novelty fully visible. Falls back to the last value while the history
/// is shorter than one period.
#[derive(Debug, Clone, Copy)]
pub struct SeasonalNaive {
    period: usize,
}

impl SeasonalNaive {
    /// A seasonal forecaster with the given period in ticks (e.g. 24 for
    /// daily seasonality over hourly ticks).
    ///
    /// # Panics
    /// Panics if `period == 0`.
    pub fn new(period: usize) -> Self {
        assert!(period > 0, "season period must be positive");
        SeasonalNaive { period }
    }
}

impl Predictor for SeasonalNaive {
    fn predict_view(&self, history: SeriesView<'_>) -> Option<f64> {
        if history.is_empty() {
            return None;
        }
        if history.len() >= self.period {
            // The next value is one period after history[len - period].
            history.get(history.len() - self.period)
        } else {
            history.last()
        }
    }

    fn predict_batch(&self, tile: HistoryTile<'_>, out: &mut [f64; LANES]) -> bool {
        if tile.is_empty() {
            return false;
        }
        let t = if tile.len() >= self.period { tile.len() - self.period } else { tile.len() - 1 };
        *out = *tile.row(t);
        true
    }

    fn min_history(&self) -> usize {
        1
    }

    fn name(&self) -> &'static str {
        "seasonal"
    }
}

/// Serializable predictor selector for engine configuration and ablations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PredictorKind {
    /// [`LastValue`].
    Last,
    /// [`MovingAverage`] over the given window.
    MovingAverage(usize),
    /// [`Ewma`] with the given alpha.
    Ewma(f64),
    /// [`Holt`] with `(alpha, beta)`.
    Holt(f64, f64),
    /// [`LinearRegression`] over the given window.
    LinearRegression(usize),
    /// [`SeasonalNaive`] with the given period in ticks.
    SeasonalNaive(usize),
}

impl Default for PredictorKind {
    /// EWMA with α = 0.3 — smooth enough to ignore noise, fast enough to
    /// adapt after an event ends.
    fn default() -> Self {
        PredictorKind::Ewma(0.3)
    }
}

impl PredictorKind {
    /// One predictor of each family, as compared by the `predictor=` rows
    /// of `QUALITY.json` and the `predictors` criterion bench.
    pub fn ablation_set() -> Vec<PredictorKind> {
        vec![
            PredictorKind::Last,
            PredictorKind::MovingAverage(6),
            PredictorKind::Ewma(0.3),
            PredictorKind::Holt(0.4, 0.2),
            PredictorKind::LinearRegression(6),
            PredictorKind::SeasonalNaive(7),
        ]
    }

    /// Instantiates the predictor.
    pub fn build(self) -> Box<dyn Predictor> {
        match self {
            PredictorKind::Last => Box::new(LastValue),
            PredictorKind::MovingAverage(w) => Box::new(MovingAverage::new(w)),
            PredictorKind::Ewma(alpha) => Box::new(Ewma::new(alpha)),
            PredictorKind::Holt(alpha, beta) => Box::new(Holt::new(alpha, beta)),
            PredictorKind::LinearRegression(w) => Box::new(LinearRegression::new(w)),
            PredictorKind::SeasonalNaive(period) => Box::new(SeasonalNaive::new(period)),
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
    fn last_value_predicts_last() {
        assert_eq!(LastValue.predict(&[]), None);
        assert_eq!(LastValue.predict(&[0.2, 0.7]), Some(0.7));
    }

    #[test]
    fn moving_average_uses_tail_window() {
        let ma = MovingAverage::new(2);
        assert_eq!(ma.predict(&[]), None);
        approx(ma.predict(&[0.4]).unwrap(), 0.4);
        approx(ma.predict(&[100.0, 0.2, 0.4]).unwrap(), 0.3);
    }

    #[test]
    fn ewma_weights_recent_values() {
        let ewma = Ewma::new(0.5);
        assert_eq!(ewma.predict(&[]), None);
        approx(ewma.predict(&[1.0]).unwrap(), 1.0);
        // level = 0.5·0 + 0.5·1 = 0.5; then 0.5·1 + 0.5·0.5 = 0.75
        approx(ewma.predict(&[1.0, 0.0, 1.0]).unwrap(), 0.75);
        // α = 1 degenerates to last-value.
        approx(Ewma::new(1.0).predict(&[0.1, 0.9]).unwrap(), 0.9);
    }

    #[test]
    fn holt_extrapolates_linear_trends() {
        let holt = Holt::new(0.8, 0.8);
        assert_eq!(holt.predict(&[0.5]), None);
        // A clean linear ramp should be predicted almost exactly.
        let ramp: Vec<f64> = (0..10).map(|i| i as f64 * 0.1).collect();
        let pred = holt.predict(&ramp).unwrap();
        assert!((pred - 1.0).abs() < 0.05, "holt on ramp predicted {pred}");
    }

    #[test]
    fn ols_extrapolates_exactly_on_lines() {
        let ols = LinearRegression::new(5);
        let line: Vec<f64> = (0..5).map(|i| 2.0 + 3.0 * i as f64).collect();
        approx(ols.predict(&line).unwrap(), 2.0 + 3.0 * 5.0);
        // Constant series ⇒ predicts the constant.
        approx(ols.predict(&[4.0, 4.0, 4.0]).unwrap(), 4.0);
        assert_eq!(ols.predict(&[1.0]), None);
    }

    #[test]
    fn ols_ignores_history_outside_window() {
        let ols = LinearRegression::new(3);
        // Garbage before the window must not affect the fit.
        let a = ols.predict(&[99.0, -5.0, 1.0, 2.0, 3.0]).unwrap();
        let b = ols.predict(&[1.0, 2.0, 3.0]).unwrap();
        approx(a, b);
    }

    #[test]
    fn flat_series_yields_zero_error_for_all() {
        let flat = vec![0.25; 12];
        for kind in PredictorKind::ablation_set() {
            let p = kind.build();
            let pred = p.predict(&flat).unwrap();
            assert!((pred - 0.25).abs() < 1e-6, "{} drifted on flat series: {pred}", p.name());
        }
    }

    #[test]
    fn sudden_jump_surprises_all_predictors() {
        // History is flat at 0.1; the actual new value is 0.6. Every
        // predictor must under-predict substantially — that *is* the shift
        // signal of the paper.
        let history = vec![0.1; 10];
        for kind in PredictorKind::ablation_set() {
            let p = kind.build();
            let pred = p.predict(&history).unwrap();
            assert!(0.6 - pred > 0.4, "{} failed to be surprised: {pred}", p.name());
        }
    }

    #[test]
    fn kind_builds_expected_names() {
        let names: Vec<&str> =
            PredictorKind::ablation_set().iter().map(|k| k.build().name()).collect();
        assert_eq!(names, vec!["last", "ma", "ewma", "holt", "ols", "seasonal"]);
    }

    #[test]
    fn seasonal_predicts_one_period_back() {
        let seasonal = SeasonalNaive::new(4);
        assert_eq!(seasonal.predict(&[]), None);
        // Short history falls back to last value.
        approx(seasonal.predict(&[0.3, 0.5]).unwrap(), 0.5);
        // Period-aligned: predicts history[len - period].
        let two_periods = vec![0.1, 0.9, 0.1, 0.1, 0.1, 0.9, 0.1, 0.1];
        approx(seasonal.predict(&two_periods).unwrap(), 0.1);
        let at_peak = &two_periods[..5]; // next value is the peak slot
        approx(seasonal.predict(at_peak).unwrap(), 0.9);
    }

    #[test]
    fn seasonal_is_blind_to_periodic_peaks_where_others_alarm() {
        // A perfectly periodic series: peak every 4 ticks. The seasonal
        // predictor has zero error at the next peak; level predictors are
        // surprised every time.
        let mut series = Vec::new();
        for _ in 0..5 {
            series.extend_from_slice(&[0.1, 0.1, 0.1, 0.8]);
        }
        let history = &series[..series.len() - 1]; // next actual: 0.8 (peak)
        let seasonal = SeasonalNaive::new(4);
        let seasonal_err = (0.8 - seasonal.predict(history).unwrap()).max(0.0);
        let ewma_err = (0.8 - Ewma::new(0.3).predict(history).unwrap()).max(0.0);
        assert!(seasonal_err < 1e-9, "periodic peak fully predicted: {seasonal_err}");
        assert!(ewma_err > 0.4, "level predictor must be surprised: {ewma_err}");
    }

    #[test]
    fn split_views_predict_bit_identically_to_contiguous() {
        // Every predictor must produce the exact same bits whether the
        // history arrives as one slice or as any two-way split of it —
        // that is the contract that lets slab storage hand ring segments
        // to the scorer in place.
        let series: Vec<f64> = (0..12).map(|i| 0.07 * i as f64 + ((i % 3) as f64) * 0.11).collect();
        for kind in PredictorKind::ablation_set() {
            let p = kind.build();
            let whole = p.predict(&series);
            for cut in 0..=series.len() {
                let (head, tail) = series.split_at(cut);
                let split = p.predict_view(SeriesView::new(head, tail));
                assert_eq!(
                    whole.map(f64::to_bits),
                    split.map(f64::to_bits),
                    "{} diverged at cut {cut}",
                    p.name()
                );
            }
        }
    }

    #[test]
    fn series_view_accessors_match_concatenation() {
        let head = [1.0, 2.0];
        let tail = [3.0, 4.0, 5.0];
        let v = SeriesView::new(&head, &tail);
        assert_eq!(v.len(), 5);
        assert!(!v.is_empty());
        assert_eq!(v.get(0), Some(1.0));
        assert_eq!(v.get(3), Some(4.0));
        assert_eq!(v.get(5), None);
        assert_eq!(v.last(), Some(5.0));
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(v.suffix(2).iter().collect::<Vec<_>>(), vec![4.0, 5.0]);
        assert_eq!(v.suffix(4).iter().collect::<Vec<_>>(), vec![2.0, 3.0, 4.0, 5.0]);
        assert_eq!(v.suffix(9).len(), 5);
        let (first, rest) = v.split_first().unwrap();
        assert_eq!(first, 1.0);
        assert_eq!(rest.len(), 4);
        let empty = SeriesView::new(&[], &[]);
        assert!(empty.is_empty() && empty.last().is_none() && empty.split_first().is_none());
        let tail_only = SeriesView::new(&[], &tail);
        assert_eq!(tail_only.split_first().unwrap().0, 3.0);
    }

    /// Packs `LANES` equal-length histories into a time-major tile buffer.
    fn pack_tile(lanes: &[Vec<f64>; LANES]) -> (Vec<f64>, usize) {
        let len = lanes[0].len();
        let mut values = vec![0.0; len * LANES];
        for (l, lane) in lanes.iter().enumerate() {
            assert_eq!(lane.len(), len);
            for (t, &v) in lane.iter().enumerate() {
                values[t * LANES + l] = v;
            }
        }
        (values, len)
    }

    fn sample_lanes(len: usize) -> [Vec<f64>; LANES] {
        std::array::from_fn(|l| {
            (0..len).map(|t| 0.05 * (t as f64) + 0.13 * ((l * 7 + t * 3) % 5) as f64).collect()
        })
    }

    #[test]
    fn batch_kernels_are_bit_identical_to_scalar() {
        for len in [0usize, 1, 2, 3, 5, 8, 24] {
            let lanes = sample_lanes(len);
            let (values, len) = pack_tile(&lanes);
            let tile = HistoryTile::new(&values, len);
            for kind in PredictorKind::ablation_set() {
                let p = kind.build();
                let mut out = [f64::NAN; LANES];
                let produced = p.predict_batch(tile, &mut out);
                assert_eq!(
                    produced,
                    len >= p.min_history(),
                    "{} gate disagreed at len {len}",
                    p.name()
                );
                if !produced {
                    continue;
                }
                for (l, lane) in lanes.iter().enumerate() {
                    let scalar = p.predict(lane).expect("scalar must predict past min_history");
                    assert_eq!(
                        scalar.to_bits(),
                        out[l].to_bits(),
                        "{} lane {l} diverged at len {len}",
                        p.name()
                    );
                }
            }
        }
    }

    #[test]
    fn default_batch_impl_delegates_to_predict_view() {
        // A predictor that only implements the scalar path must still get
        // a correct (if slow) batched kernel for free.
        struct Custom;
        impl Predictor for Custom {
            fn predict_view(&self, history: SeriesView<'_>) -> Option<f64> {
                history.last().map(|v| v * 2.0)
            }
            fn min_history(&self) -> usize {
                1
            }
            fn name(&self) -> &'static str {
                "custom"
            }
        }
        let lanes = sample_lanes(6);
        let (values, len) = pack_tile(&lanes);
        let tile = HistoryTile::new(&values, len);
        let mut out = [0.0; LANES];
        assert!(Custom.predict_batch(tile, &mut out));
        for (l, lane) in lanes.iter().enumerate() {
            assert_eq!(out[l].to_bits(), (lane[len - 1] * 2.0).to_bits());
        }
        let empty = HistoryTile::new(&[], 0);
        assert!(!Custom.predict_batch(empty, &mut out), "short history gates the default impl");
    }

    #[test]
    fn batch_kernels_propagate_nan_like_scalar() {
        let mut lanes = sample_lanes(8);
        lanes[2][3] = f64::NAN;
        lanes[5][7] = f64::NAN;
        let (values, len) = pack_tile(&lanes);
        let tile = HistoryTile::new(&values, len);
        for kind in PredictorKind::ablation_set() {
            let p = kind.build();
            let mut out = [0.0; LANES];
            assert!(p.predict_batch(tile, &mut out));
            for (l, lane) in lanes.iter().enumerate() {
                let scalar = p.predict(lane).unwrap();
                assert_eq!(
                    scalar.to_bits(),
                    out[l].to_bits(),
                    "{} lane {l} NaN handling diverged",
                    p.name()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "len * LANES")]
    fn tile_rejects_ragged_buffers() {
        let _ = HistoryTile::new(&[0.0; 9], 1);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn seasonal_rejects_zero_period() {
        let _ = SeasonalNaive::new(0);
    }

    #[test]
    #[should_panic(expected = "alpha must be in")]
    fn ewma_rejects_zero_alpha() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn regression_rejects_window_one() {
        let _ = LinearRegression::new(1);
    }
}
