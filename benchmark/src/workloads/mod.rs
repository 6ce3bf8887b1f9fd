//! The four workloads and what they share.
//!
//! A run is untraced or traced. An untraced run times whole reps
//! through the public APIs and reports the end-to-end metrics. A traced
//! run alternates each untraced rep with a traced replay of the same
//! inputs, checks that the two agree bit for bit, and reports the
//! per-layer metrics of the traced replays, plus the replays' overhead.

mod collect;
mod collection;
mod cv;
mod serve;

use crate::metrics::Report;
use crate::stats::Summary;
use crate::timed::Calls;
use bf_core::{AttackKind, CollectionConfig, ExperimentScale};
use bf_fault::FaultPlan;
use bf_ml::{CrossValResult, Dataset};
use bf_stats::rng::combine_seeds;
use bf_timer::BrowserKind;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CollectLoop,
    CollectSweep,
    CvTrain,
    ServeOnline,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CollectLoop,
        Workload::CollectSweep,
        Workload::CvTrain,
        Workload::ServeOnline,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CollectLoop => "collect_loop",
            Workload::CollectSweep => "collect_sweep",
            Workload::CvTrain => "cv_train",
            Workload::ServeOnline => "serve_online",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Run this workload, filling in `report`. `Err` means the run could
    /// not produce its metrics at all; failed correctness checks are
    /// recorded in the report instead.
    pub fn run(self, spec: &RunSpec, report: &mut Report) -> Result<(), String> {
        match self {
            Workload::CollectLoop => collect::run(AttackKind::LoopCounting, spec, report),
            Workload::CollectSweep => collect::run(AttackKind::SweepCounting, spec, report),
            Workload::CvTrain => cv::run(spec, report),
            Workload::ServeOnline => serve::run(spec, report),
        }
    }
}

/// The inputs of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    pub seed: u64,
    /// How long the timed reps run, at least.
    pub seconds: f64,
    /// The `bf_par` pool size, set explicitly for the whole run.
    pub threads: usize,
}

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Seed of rep `r`.
fn rep_seed(seed: u64, r: usize) -> u64 {
    combine_seeds(seed, r as u64)
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Set up `SETUP_REPEATS` times, report the median time as `setup_s`,
/// and keep the last result. Each set-up's result is dropped before the
/// next starts, so only one is ever held.
fn timed_setup<T>(report: &mut Report, mut setup: impl FnMut() -> T) -> T {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        drop(kept.take());
        let start = Instant::now();
        kept = Some(setup());
        times.push(secs(start));
    }
    report.set_median("setup_s", &times);
    kept.expect("at least one set-up")
}

/// Run `rep(0)`, `rep(1)`, … until `seconds` have passed and at least
/// `min_reps` reps ran. Returns the number of reps.
fn repeat_for(
    seconds: f64,
    min_reps: usize,
    mut rep: impl FnMut(usize) -> Result<(), String>,
) -> Result<usize, String> {
    let start = Instant::now();
    let mut r = 0;
    while r < min_reps || secs(start) < seconds {
        rep(r)?;
        r += 1;
    }
    Ok(r)
}

/// The fault-free collection pipeline every workload collects with:
/// Chrome 92, the default machine, default-scale features (600 samples
/// after 5× downsampling), 3-fold cross-validation.
fn collection_config(attack: AttackKind) -> CollectionConfig {
    CollectionConfig::new(BrowserKind::Chrome, attack)
        .with_scale(ExperimentScale::Default)
        .with_faults(FaultPlan::default())
}

/// Bit-for-bit equality of features and labels.
fn same_dataset(a: &Dataset, b: &Dataset) -> bool {
    a.labels() == b.labels()
        && a.n_classes() == b.n_classes()
        && a.features().len() == b.features().len()
        && a.features().iter().zip(b.features()).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Bit-for-bit equality of cross-validation results.
fn same_cv(a: &CrossValResult, b: &CrossValResult) -> bool {
    a.folds.len() == b.folds.len()
        && a.folds.iter().zip(&b.folds).all(|(x, y)| {
            x.accuracy.to_bits() == y.accuracy.to_bits() && x.top5.to_bits() == y.top5.to_bits()
        })
}

/// `obs.trace_overhead_pct`: how much longer the median traced rep took
/// than the median untraced rep of the same inputs.
fn report_overhead(report: &mut Report, untraced_s: &[f64], traced_s: &[f64]) {
    let (u, t) = (Summary::of(untraced_s).median, Summary::of(traced_s).median);
    report.set("obs.trace_overhead_pct", (t / u - 1.0) * 100.0);
}

/// `ml.fit_s.*` from the fits recorded in `reps` (medians over reps).
fn report_fits(report: &mut Report, reps: &[Calls]) {
    let sums: Vec<f64> = reps.iter().map(|c| c.fit_s.iter().sum()).collect();
    let maxes: Vec<f64> = reps
        .iter()
        .map(|c| c.fit_s.iter().copied().fold(0.0, f64::max))
        .collect();
    report.set_median("ml.fit_s.sum", &sums);
    report.set_median("ml.fit_s.max", &maxes);
}

/// `ml.predict_*` from the prediction calls of the workload's answering
/// model recorded in `reps`: the per-rep total as a median over reps,
/// the per-row and per-call ratios over all reps.
fn report_predicts(report: &mut Report, reps: &[Calls]) {
    let ms: Vec<f64> = reps.iter().map(|c| c.predict_s * 1e3).collect();
    report.set_median("ml.predict_ms.sum", &ms);
    let s: f64 = reps.iter().map(|c| c.predict_s).sum();
    let rows: u64 = reps.iter().map(|c| c.predict_rows).sum();
    let calls: u64 = reps.iter().map(|c| c.predict_calls).sum();
    report.set("ml.predict_us_per_row", s * 1e6 / rows as f64);
    report.set("ml.rows_per_predict_call", rows as f64 / calls as f64);
}

/// One traced cross-validation: each fold's model time (fit plus
/// predict) and the wall time of the whole call.
struct FoldTimes {
    per_fold_s: Vec<f64>,
    wall_s: f64,
}

/// `par.fold_*` as medians over traced cross-validations.
fn report_folds(report: &mut Report, reps: &[FoldTimes], threads: usize) {
    let busy: Vec<f64> = reps
        .iter()
        .map(|r| r.per_fold_s.iter().sum::<f64>() / (threads as f64 * r.wall_s))
        .collect();
    let imbalance: Vec<f64> = reps
        .iter()
        .map(|r| {
            let mean = r.per_fold_s.iter().sum::<f64>() / r.per_fold_s.len() as f64;
            r.per_fold_s.iter().copied().fold(0.0, f64::max) / mean
        })
        .collect();
    report.set_median("par.fold_busy_fraction", &busy);
    report.set_median("par.fold_imbalance", &imbalance);
}

/// Neural-network training work done inside measured spans, read from
/// the `nn.epochs` counter and `nn.epoch_seconds` histogram the library
/// already keeps.
#[derive(Debug, Default)]
struct NnWork {
    epochs: u64,
    seconds: f64,
    spans: u64,
}

impl NnWork {
    fn measure<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let epochs = bf_obs::counter("nn.epochs").get();
        let hist = bf_obs::histogram("nn.epoch_seconds").snapshot();
        let out = f();
        self.epochs += bf_obs::counter("nn.epochs").get() - epochs;
        self.seconds += bf_obs::histogram("nn.epoch_seconds")
            .snapshot()
            .delta_since(&hist)
            .sum;
        self.spans += 1;
        out
    }

    /// Epochs per measured span, and epochs per second of epoch time.
    fn report(&self, report: &mut Report) {
        report.set("nn.epochs", self.epochs as f64 / self.spans.max(1) as f64);
        report.set(
            "nn.epochs_per_s",
            if self.epochs == 0 {
                0.0
            } else {
                self.epochs as f64 / self.seconds
            },
        );
    }
}
