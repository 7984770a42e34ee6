//! Detection quality as a deterministic, gated table: `QUALITY.json`.
//!
//! One matrix spans the paper's design space (§3(i)–(iii)): the
//! [`daily_config`] default, each semantic axis varied alone (seed
//! strategy, correlation measure, predictor, error normalisation,
//! half-life, window), and the two per-tag burst baselines of
//! `enblogue-baseline`. Every row is scored over the same planted-event
//! archives ([`ARCHIVE_SEEDS`]) with [`evaluate`] at [`K`] and
//! [`GRACE_MS`], and renders as one JSON object on one line. Detection is
//! deterministic for a seed, so the committed file is compared as text:
//! `cargo run --release -p enblogue-bench --bin quality` checks every row,
//! `-- --write` regenerates the file, and `tests/quality.rs` gates every
//! row except `measure=jsd`.

use crate::{daily_config, small_archive};
use enblogue::baseline::burst::{self, BaselineConfig};
use enblogue::baseline::kleinberg::{self, KleinbergConfig};
use enblogue::datagen::eval::evaluate;
use enblogue::datagen::nyt::NytArchive;
use enblogue::prelude::*;
use std::sync::OnceLock;

/// Seeds of the [`small_archive`]s every row is scored over (5 planted
/// events each).
pub const ARCHIVE_SEEDS: [u64; 4] = [0x11, 0x22, 0x33, 0x44];
/// Ranking depth that counts as reported.
pub const K: usize = 10;
/// How long after an event's end a first detection still counts.
pub const GRACE_MS: u64 = 2 * Timestamp::DAY;
/// The committed table.
pub const QUALITY_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../QUALITY.json");

/// Ranks an archive's documents, one snapshot per daily tick.
type Detector = Box<dyn Fn(&[Document]) -> Vec<RankingSnapshot>>;

/// One row of the matrix: a name and its detector. A rival detector joins
/// the table as one more row.
pub struct Row {
    /// `default`, or `axis=value`.
    pub name: String,
    detect: Detector,
}

/// A row's scores: means over the archives, except `worst_rank`.
#[derive(Debug, Clone, Copy)]
pub struct Scores {
    /// Fraction of planted events that reached the top-k in time.
    pub recall: f64,
    /// [`evaluate`]'s precision@k over event-active ticks.
    pub precision_at_k: f64,
    /// Ticks from event start to first top-k appearance.
    pub mean_lead_ticks: f64,
    /// Maximum over detected events of their best rank, 1-based.
    pub worst_rank: Option<usize>,
    /// Ticks from a planted pair's first to last top-k appearance.
    pub mean_dwell_ticks: f64,
}

impl Row {
    fn new(
        name: impl Into<String>,
        detect: impl Fn(&[Document]) -> Vec<RankingSnapshot> + 'static,
    ) -> Self {
        Row { name: name.into(), detect: Box::new(detect) }
    }

    /// The axis the row varies (`default` for the default row).
    pub fn axis(&self) -> &str {
        self.name.split('=').next().unwrap_or_default()
    }

    /// Runs the row over every archive and scores it.
    pub fn score(&self) -> Scores {
        let mut sums = [0.0; 4];
        let mut worst_rank = None;
        for archive in archives() {
            let snaps = (self.detect)(&archive.docs);
            let report = evaluate(&snaps, &archive.script, K, GRACE_MS);
            let lead = report.mean_latency_ticks(Timestamp::DAY);
            let values =
                [report.recall, report.precision_at_k, lead, mean_dwell_ticks(&snaps, archive)];
            for (sum, x) in sums.iter_mut().zip(values) {
                *sum += x;
            }
            let best_ranks = report.outcomes.iter().filter_map(|o| o.best_rank);
            worst_rank = worst_rank.max(best_ranks.max().map(|r| r + 1));
        }
        let n = archives().len() as f64;
        let [recall, precision_at_k, mean_lead_ticks, mean_dwell_ticks] = sums.map(|s| s / n);
        Scores { recall, precision_at_k, mean_lead_ticks, worst_rank, mean_dwell_ticks }
    }

    /// The row's line in `QUALITY.json`. `{}` prints an `f64` as its
    /// shortest round-trip decimal, so equal text means equal bits.
    pub fn render(&self, s: &Scores) -> String {
        let worst = s.worst_rank.map_or("null".to_string(), |r| r.to_string());
        format!(
            "{{\"row\":\"{}\",\"recall\":{},\"precision_at_k\":{},\"mean_lead_ticks\":{},\
             \"worst_rank\":{},\"mean_dwell_ticks\":{}}}",
            self.name, s.recall, s.precision_at_k, s.mean_lead_ticks, worst, s.mean_dwell_ticks
        )
    }
}

/// Mean over the planted pairs that ever reach the top-k of the ticks
/// from their first to their last top-k appearance (how long the decayed
/// score keeps a detected topic visible).
fn mean_dwell_ticks(snaps: &[RankingSnapshot], archive: &NytArchive) -> f64 {
    let dwells: Vec<u64> = archive
        .script
        .events()
        .iter()
        .filter_map(|event| {
            let mut ticks = snaps.iter().filter(|s| s.contains_in_top(event.pair(), K));
            let first = ticks.next()?.tick;
            Some(ticks.next_back().map_or(first, |s| s.tick).since(first) + 1)
        })
        .collect();
    if dwells.is_empty() {
        0.0
    } else {
        dwells.iter().sum::<u64>() as f64 / dwells.len() as f64
    }
}

/// The scored archives, generated once per process.
fn archives() -> &'static [NytArchive] {
    static ARCHIVES: OnceLock<Vec<NytArchive>> = OnceLock::new();
    ARCHIVES.get_or_init(|| ARCHIVE_SEEDS.iter().map(|&seed| small_archive(seed)).collect())
}

/// The matrix, in `QUALITY.json` line order.
pub fn matrix() -> Vec<Row> {
    fn engine(name: String, vary: impl FnOnce(&mut EnBlogueConfig)) -> Row {
        let mut config = daily_config();
        vary(&mut config);
        config.validate().expect("valid matrix row");
        Row::new(name, move |docs| EnBlogueEngine::new(config.clone()).run_replay(docs))
    }
    let mut rows = vec![engine("default".into(), |_| {})];
    let mut seeds = vec![
        ("volatility".to_string(), SeedStrategy::Volatility),
        ("hybrid(0.5)".to_string(), SeedStrategy::Hybrid { popularity_weight: 0.5 }),
    ];
    for capacity in [30, 60, 120, 240] {
        seeds.push((format!("sketch({capacity})"), SeedStrategy::SketchPopularity { capacity }));
    }
    for (label, strategy) in seeds {
        rows.push(engine(format!("seeds={label}"), |c| c.seed_strategy = strategy));
    }
    let measures = CorrelationMeasure::ALL.map(MeasureKind::Set).into_iter();
    for measure in measures.chain([MeasureKind::JsDivergence]) {
        if measure != MeasureKind::default() {
            rows.push(engine(format!("measure={}", measure.name()), |c| c.measure = measure));
        }
    }
    for predictor in PredictorKind::ablation_set() {
        if predictor == PredictorKind::default() {
            continue;
        }
        let label = match predictor {
            PredictorKind::Last => "last".to_string(),
            PredictorKind::Ewma(alpha) => format!("ewma({alpha})"),
            PredictorKind::MovingAverage(w) => format!("ma({w})"),
            PredictorKind::Holt(a, b) => format!("holt({a},{b})"),
            PredictorKind::LinearRegression(w) => format!("ols({w})"),
            PredictorKind::SeasonalNaive(p) => format!("seasonal({p})"),
        };
        rows.push(engine(format!("predictor={label}"), |c| c.predictor = predictor));
    }
    rows.push(engine("normalization=relative".into(), |c| {
        c.normalization = ErrorNormalization::Relative
    }));
    let day = Timestamp::DAY;
    for (label, ms) in [("6h", day / 4), ("1d", day), ("4d", 4 * day), ("8d", 8 * day)] {
        rows.push(engine(format!("half_life={label}"), |c| c.half_life_ms = ms));
    }
    for window in [3, 14, 21] {
        rows.push(engine(format!("window={window}"), |c| c.window_ticks = window));
    }
    rows.push(Row::new("baseline=burst", |docs| {
        burst::replay_snapshots(docs, TickSpec::daily(), BaselineConfig::daily(), K)
    }));
    rows.push(Row::new("baseline=kleinberg", |docs| {
        let config = KleinbergConfig { s: 2.5, gamma: 2.0 };
        kleinberg::replay_snapshots(docs, TickSpec::daily(), &config, 10, K)
    }));
    rows
}

/// The committed `QUALITY.json` lines (none if the file is missing).
pub fn committed() -> Vec<String> {
    std::fs::read_to_string(QUALITY_PATH)
        .map(|text| text.lines().map(str::to_owned).collect())
        .unwrap_or_default()
}
