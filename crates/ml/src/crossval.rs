//! The paper's k-fold cross-validation protocol (§4.1), with folds
//! distributed over the deterministic `bf-par` pool (`BF_THREADS`).
//!
//! Every public entry point runs on one **resumable fold engine**: each
//! fold is a pure function of `(dataset, k, seed, fold index)`, so folds
//! can be computed in any order, across any number of process restarts,
//! and reassemble into results bit-identical to an uninterrupted run.
//! When [`ResumeOptions::checkpoint`] is set, completed folds are
//! persisted through [`bf_fault::CvCheckpoint`] after each fold finishes;
//! an interrupted run reloads them and computes only the pending folds.
//!
//! Fold failures do not abort the run: a panicking fold thread is
//! recorded (`ml.fold_failures`) and skipped, and the aggregate result
//! simply carries fewer folds.

use crate::metrics::{accuracy, argmax, top_k_accuracy};
use crate::{Classifier, Dataset};
use bf_fault::checkpoint::{CvCheckpoint, FoldRecord};
use bf_stats::rng::combine_seeds;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// One fold's held-out test metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FoldResult {
    /// Top-1 accuracy on the held-out fold.
    pub accuracy: f64,
    /// Top-5 accuracy on the held-out fold.
    pub top5: f64,
}

/// Aggregated cross-validation metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossValResult {
    /// Per-fold results, in fold order (failed folds are absent).
    pub folds: Vec<FoldResult>,
}

impl CrossValResult {
    /// Mean top-1 accuracy across folds; 0 when no fold completed (an
    /// all-folds-failed run must aggregate to a number, not NaN).
    pub fn mean_accuracy(&self) -> f64 {
        if self.folds.is_empty() {
            return 0.0;
        }
        self.folds.iter().map(|f| f.accuracy).sum::<f64>() / self.folds.len() as f64
    }

    /// Sample standard deviation of fold accuracies (0 for one fold).
    pub fn std_accuracy(&self) -> f64 {
        if self.folds.len() < 2 {
            return 0.0;
        }
        let m = self.mean_accuracy();
        let ss: f64 = self.folds.iter().map(|f| (f.accuracy - m).powi(2)).sum();
        (ss / (self.folds.len() - 1) as f64).sqrt()
    }

    /// Mean top-5 accuracy across folds; 0 when no fold completed.
    pub fn mean_top5(&self) -> f64 {
        if self.folds.is_empty() {
            return 0.0;
        }
        self.folds.iter().map(|f| f.top5).sum::<f64>() / self.folds.len() as f64
    }

    /// Per-fold accuracies as percentages (for t-tests against a
    /// competing attack, §4.2).
    pub fn accuracies_pct(&self) -> Vec<f64> {
        self.folds.iter().map(|f| f.accuracy * 100.0).collect()
    }
}

/// Checkpoint-and-resume knobs for the fold engine. The default (no
/// checkpoint, no snapshots, no fold cap) reproduces plain in-memory
/// cross-validation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResumeOptions {
    /// Persist completed folds to this checkpoint file after each fold,
    /// and reload them on the next run. Unusable checkpoints (corrupt,
    /// truncated, or from a different dataset/seed) are discarded with a
    /// `fault.checkpoint_errors` count, never panicked on.
    pub checkpoint: Option<PathBuf>,
    /// Save each fold's trained network into this directory (via
    /// [`Classifier::save_network`]); the snapshot path is recorded in
    /// the fold's checkpoint record.
    pub snapshot_dir: Option<PathBuf>,
    /// Compute at most this many *new* folds this run, then stop with
    /// `interrupted = true` (simulates a run interruption for
    /// chaos/resume testing).
    pub max_new_folds: Option<usize>,
}

/// A cross-validation outcome plus how it was obtained: how many folds
/// were computed fresh, reused from a checkpoint, or lost to failures,
/// and whether the run stopped early.
#[derive(Debug, Clone, PartialEq)]
pub struct Resumable<T> {
    /// The (possibly partial) result.
    pub value: T,
    /// True when [`ResumeOptions::max_new_folds`] stopped the run before
    /// every fold was complete.
    pub interrupted: bool,
    /// Folds computed by this run.
    pub computed_folds: usize,
    /// Folds reloaded from the checkpoint.
    pub reused_folds: usize,
    /// Folds whose worker thread panicked (skipped and recorded).
    pub failed_folds: usize,
}

/// Fingerprint binding a checkpoint to one `(dataset, k, seed, mode)`
/// combination, so a stale file from a different run is always rejected.
fn run_fingerprint(dataset: &Dataset, k: usize, seed: u64, mode: u64) -> u64 {
    combine_seeds(
        dataset.fingerprint(),
        combine_seeds(seed, combine_seeds(k as u64, mode)),
    )
}

/// Immutable per-run inputs shared by every fold worker.
struct FoldSpec<'a> {
    folds: &'a [Vec<usize>],
    k: usize,
    seed: u64,
    snapshot_dir: Option<&'a Path>,
    keep_probas: bool,
}

/// Train and evaluate one fold. Pure in `(dataset, spec.k, spec.seed,
/// fold)` — never depends on which other folds run in the same process.
fn compute_fold<F>(dataset: &Dataset, spec: &FoldSpec<'_>, fold: usize, builder: &F) -> FoldRecord
where
    F: Fn() -> Box<dyn Classifier> + Sync,
{
    let FoldSpec {
        folds,
        k,
        seed,
        snapshot_dir,
        keep_probas,
    } = *spec;
    let fold_start = std::time::Instant::now();
    let (train_idx, val_idx, test_idx) = dataset.split_for_fold(folds, fold, seed);
    let train = dataset.subset(&train_idx);
    let val = dataset.subset(&val_idx);
    let test = dataset.subset(&test_idx);
    let mut clf = builder();
    clf.fit(&train, &val);
    let probas = clf.predict_proba(test.features());
    bf_obs::histogram("ml.fold_seconds").record(fold_start.elapsed().as_secs_f64());
    let preds: Vec<usize> = probas.iter().map(|row| argmax(row)).collect();
    let acc = accuracy(&preds, test.labels());
    let top5 = top_k_accuracy(&probas, test.labels(), 5);
    let net_path = snapshot_dir.and_then(|dir| {
        let path = dir.join(format!("fold{fold}.net"));
        std::fs::create_dir_all(dir).ok();
        match clf.save_network(&path) {
            Ok(true) => Some(path.display().to_string()),
            Ok(false) => None,
            Err(e) => {
                bf_obs::counter("fault.checkpoint_errors").inc();
                bf_obs::error!("fold {fold}: network snapshot failed: {e}");
                None
            }
        }
    });
    bf_obs::info!(
        "fold {}/{k}: acc {acc:.3} top5 {top5:.3} ({:.2} s)",
        fold + 1,
        fold_start.elapsed().as_secs_f64()
    );
    FoldRecord {
        fold,
        accuracy: acc,
        top5,
        test_idx,
        probas: if keep_probas { probas } else { Vec::new() },
        net_path,
    }
}

/// The shared fold engine: load any usable checkpoint, compute pending
/// folds on parallel threads (each persisting its record as it
/// completes), and return the merged checkpoint plus run statistics.
fn run_folds<F>(
    dataset: &Dataset,
    k: usize,
    seed: u64,
    builder: F,
    opts: &ResumeOptions,
    keep_probas: bool,
    mode: u64,
) -> (CvCheckpoint, bool, usize, usize, usize)
where
    F: Fn() -> Box<dyn Classifier> + Sync,
{
    let fingerprint = run_fingerprint(dataset, k, seed, mode);
    let ckpt = match &opts.checkpoint {
        Some(path) if path.exists() => match CvCheckpoint::load(path, fingerprint, k) {
            Ok(c) => {
                bf_obs::info!(
                    "resuming from {}: {}/{k} folds already done",
                    path.display(),
                    c.completed()
                );
                c
            }
            Err(e) => {
                bf_obs::counter("fault.checkpoint_errors").inc();
                bf_obs::error!(
                    "ignoring unusable checkpoint {}: {e}; starting fresh",
                    path.display()
                );
                CvCheckpoint::new(fingerprint, k)
            }
        },
        _ => CvCheckpoint::new(fingerprint, k),
    };
    let reused = ckpt.completed();
    let mut pending = ckpt.pending();
    let mut interrupted = false;
    if let Some(max) = opts.max_new_folds {
        if pending.len() > max {
            pending.truncate(max);
            interrupted = true;
            bf_obs::info!("simulated interruption: computing only {max} of the pending folds");
        }
    }
    let n_new = pending.len();
    let folds = dataset.stratified_folds(k, seed);
    let shared = Mutex::new(ckpt);
    let spec = FoldSpec {
        folds: &folds,
        k,
        seed,
        snapshot_dir: opts.snapshot_dir.as_deref(),
        keep_probas,
    };
    // Pending folds are distributed over the bf-par pool (BF_THREADS).
    // Each fold is pure in (dataset, k, seed, fold), so scheduling cannot
    // change its record; the checkpoint mutex only serializes recording
    // and saving. A panicking fold surfaces as an `Err` slot and is
    // skipped rather than aborting the run.
    let outcomes = bf_par::try_par_map_indexed(&pending, |_, &fold| {
        let rec = compute_fold(dataset, &spec, fold, &builder);
        let mut guard = shared
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        guard.record(rec);
        if let Some(path) = opts.checkpoint.as_deref() {
            if let Err(e) = guard.save(path) {
                bf_obs::counter("fault.checkpoint_errors").inc();
                bf_obs::error!("checkpoint save failed: {e}");
            }
        }
    });
    let mut failed = 0usize;
    for outcome in &outcomes {
        if outcome.is_err() {
            failed += 1;
            bf_obs::counter("ml.fold_failures").inc();
            bf_obs::error!("fold worker panicked; skipping that fold");
        }
    }
    let ckpt = shared
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    (ckpt, interrupted, n_new - failed, reused, failed)
}

/// Run stratified k-fold cross-validation: for each fold, hold it out as
/// the test set, split the remainder 90/10 into train/validation, train a
/// fresh classifier from `builder`, and measure held-out top-1/top-5
/// accuracy. Folds run on parallel threads; a fold whose thread panics is
/// skipped and recorded rather than aborting the run.
///
/// # Panics
///
/// Panics when `k < 2` or the dataset is too small to stratify.
pub fn cross_validate<F>(dataset: &Dataset, k: usize, seed: u64, builder: F) -> CrossValResult
where
    F: Fn() -> Box<dyn Classifier> + Sync,
{
    cross_validate_resumable(dataset, k, seed, builder, &ResumeOptions::default()).value
}

/// [`cross_validate`] with checkpoint/resume support: completed folds are
/// persisted as they finish and reloaded (bit-identical) on the next run.
///
/// # Panics
///
/// Panics when `k < 2` or the dataset is too small to stratify.
pub fn cross_validate_resumable<F>(
    dataset: &Dataset,
    k: usize,
    seed: u64,
    builder: F,
    opts: &ResumeOptions,
) -> Resumable<CrossValResult>
where
    F: Fn() -> Box<dyn Classifier> + Sync,
{
    bf_obs::info!("cross-validating: {k} folds over {} samples", dataset.len());
    let (ckpt, interrupted, computed, reused, failed) =
        run_folds(dataset, k, seed, builder, opts, false, 1);
    let folds = (0..k)
        .filter_map(|f| ckpt.get(f))
        .map(|r| FoldResult {
            accuracy: r.accuracy,
            top5: r.top5,
        })
        .collect();
    Resumable {
        value: CrossValResult { folds },
        interrupted,
        computed_folds: computed,
        reused_folds: reused,
        failed_folds: failed,
    }
}

/// Out-of-fold predictions: every sample's class probabilities, produced
/// by the fold model that held it out. Enables open-world and top-k
/// metrics over the full dataset (Table 1's open-world columns).
#[derive(Debug, Clone, PartialEq)]
pub struct OofPredictions {
    /// Per-sample probabilities, in dataset order (empty rows for samples
    /// whose fold failed or has not run yet).
    pub probas: Vec<Vec<f32>>,
    /// Fold index that held each sample out.
    pub fold_of: Vec<usize>,
}

impl OofPredictions {
    /// Argmax predictions, in dataset order.
    pub fn predictions(&self) -> Vec<usize> {
        self.probas.iter().map(|row| argmax(row)).collect()
    }

    /// Per-fold [`FoldResult`]s against the given labels.
    pub fn fold_results(&self, labels: &[usize], k_folds: usize) -> CrossValResult {
        let folds = (0..k_folds)
            .map(|f| {
                let idx: Vec<usize> = (0..labels.len())
                    .filter(|&i| self.fold_of[i] == f)
                    .collect();
                let probas: Vec<Vec<f32>> = idx.iter().map(|&i| self.probas[i].clone()).collect();
                let labs: Vec<usize> = idx.iter().map(|&i| labels[i]).collect();
                let preds: Vec<usize> = probas.iter().map(|row| argmax(row)).collect();
                FoldResult {
                    accuracy: accuracy(&preds, &labs),
                    top5: top_k_accuracy(&probas, &labs, 5),
                }
            })
            .collect();
        CrossValResult { folds }
    }
}

/// Like [`cross_validate`], but returns every sample's out-of-fold
/// probability vector instead of only per-fold accuracies.
///
/// # Panics
///
/// Panics when `k < 2`.
pub fn cross_validate_oof<F>(dataset: &Dataset, k: usize, seed: u64, builder: F) -> OofPredictions
where
    F: Fn() -> Box<dyn Classifier> + Sync,
{
    cross_validate_oof_resumable(dataset, k, seed, builder, &ResumeOptions::default()).value
}

/// [`cross_validate_oof`] with checkpoint/resume support. Resumed runs
/// reassemble probability rows bit-identical to an uninterrupted run
/// (checkpoints store raw IEEE-754 bits). When `interrupted` is set, the
/// samples of pending folds have empty probability rows.
///
/// # Panics
///
/// Panics when `k < 2`.
pub fn cross_validate_oof_resumable<F>(
    dataset: &Dataset,
    k: usize,
    seed: u64,
    builder: F,
    opts: &ResumeOptions,
) -> Resumable<OofPredictions>
where
    F: Fn() -> Box<dyn Classifier> + Sync,
{
    bf_obs::info!(
        "cross-validating (OOF): {k} folds over {} samples",
        dataset.len()
    );
    let (ckpt, interrupted, computed, reused, failed) =
        run_folds(dataset, k, seed, builder, opts, true, 2);
    let n = dataset.len();
    let mut probas = vec![Vec::new(); n];
    let mut fold_of = vec![0usize; n];
    for fold in 0..k {
        if let Some(rec) = ckpt.get(fold) {
            for (&i, row) in rec.test_idx.iter().zip(&rec.probas) {
                probas[i] = row.clone();
                fold_of[i] = fold;
            }
        }
    }
    Resumable {
        value: OofPredictions { probas, fold_of },
        interrupted,
        computed_folds: computed,
        reused_folds: reused,
        failed_folds: failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CentroidClassifier;
    use bf_stats::SeedRng;

    fn separable_dataset(per_class: usize, classes: usize, noise: f32, seed: u64) -> Dataset {
        let mut rng = SeedRng::new(seed);
        let mut d = Dataset::new(classes);
        for c in 0..classes {
            for _ in 0..per_class {
                let t: Vec<f32> = (0..20)
                    .map(|i| {
                        let base = if i == c * 2 { 5.0 } else { 0.0 };
                        base + noise * rng.standard_normal() as f32
                    })
                    .collect();
                d.push(t, c);
            }
        }
        d
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("bf_ml_cv_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn separable_data_scores_high() {
        let d = separable_dataset(20, 5, 0.3, 1);
        let r = cross_validate(&d, 5, 7, || Box::new(CentroidClassifier::new(5)));
        assert_eq!(r.folds.len(), 5);
        assert!(r.mean_accuracy() > 0.95, "acc = {}", r.mean_accuracy());
        assert!(r.mean_top5() >= r.mean_accuracy());
    }

    #[test]
    fn noisy_data_scores_lower() {
        let clean = separable_dataset(20, 5, 0.3, 2);
        let noisy = separable_dataset(20, 5, 6.0, 2);
        let rc = cross_validate(&clean, 4, 3, || Box::new(CentroidClassifier::new(5)));
        let rn = cross_validate(&noisy, 4, 3, || Box::new(CentroidClassifier::new(5)));
        assert!(rn.mean_accuracy() < rc.mean_accuracy());
    }

    #[test]
    fn deterministic_given_seed() {
        let d = separable_dataset(10, 4, 1.0, 4);
        let a = cross_validate(&d, 3, 11, || Box::new(CentroidClassifier::new(4)));
        let b = cross_validate(&d, 3, 11, || Box::new(CentroidClassifier::new(4)));
        assert_eq!(a, b);
    }

    #[test]
    fn zero_folds_aggregate_to_zero_not_nan() {
        let r = CrossValResult { folds: Vec::new() };
        assert_eq!(r.mean_accuracy(), 0.0);
        assert_eq!(r.mean_top5(), 0.0);
        assert_eq!(r.std_accuracy(), 0.0);
        assert!(r.accuracies_pct().is_empty());
    }

    #[test]
    fn std_zero_for_identical_folds() {
        let r = CrossValResult {
            folds: vec![
                FoldResult {
                    accuracy: 0.9,
                    top5: 1.0
                };
                4
            ],
        };
        assert_eq!(r.std_accuracy(), 0.0);
        assert_eq!(r.mean_accuracy(), 0.9);
    }

    #[test]
    fn oof_covers_every_sample() {
        let d = separable_dataset(10, 4, 0.5, 6);
        let oof = cross_validate_oof(&d, 4, 13, || Box::new(CentroidClassifier::new(4)));
        assert_eq!(oof.probas.len(), d.len());
        assert!(oof.probas.iter().all(|p| p.len() == 4));
        // Every fold id used.
        let mut folds: Vec<usize> = oof.fold_of.clone();
        folds.sort_unstable();
        folds.dedup();
        assert_eq!(folds, vec![0, 1, 2, 3]);
    }

    #[test]
    fn oof_fold_results_match_direct_cv() {
        let d = separable_dataset(12, 3, 0.5, 8);
        let oof = cross_validate_oof(&d, 3, 21, || Box::new(CentroidClassifier::new(3)));
        let via_oof = oof.fold_results(d.labels(), 3);
        let direct = cross_validate(&d, 3, 21, || Box::new(CentroidClassifier::new(3)));
        assert!((via_oof.mean_accuracy() - direct.mean_accuracy()).abs() < 1e-12);
    }

    #[test]
    fn oof_predictions_are_argmax() {
        let d = separable_dataset(8, 3, 0.3, 9);
        let oof = cross_validate_oof(&d, 2, 5, || Box::new(CentroidClassifier::new(3)));
        let preds = oof.predictions();
        let acc = accuracy(&preds, d.labels());
        assert!(acc > 0.9, "acc = {acc}");
    }

    #[test]
    fn accuracies_pct_scaling() {
        let r = CrossValResult {
            folds: vec![
                FoldResult {
                    accuracy: 0.5,
                    top5: 0.9,
                },
                FoldResult {
                    accuracy: 0.7,
                    top5: 1.0,
                },
            ],
        };
        assert_eq!(r.accuracies_pct(), vec![50.0, 70.0]);
        assert!((r.mean_top5() - 0.95).abs() < 1e-12);
    }

    #[test]
    fn interrupted_run_resumes_bit_identical() {
        let d = separable_dataset(10, 4, 1.0, 30);
        let builder = || Box::new(CentroidClassifier::new(4)) as Box<dyn Classifier>;
        let uninterrupted = cross_validate_oof(&d, 4, 17, builder);

        let dir = temp_dir("resume");
        let opts = ResumeOptions {
            checkpoint: Some(dir.join("cv.bfck")),
            snapshot_dir: None,
            max_new_folds: Some(2),
        };
        let first = cross_validate_oof_resumable(&d, 4, 17, builder, &opts);
        assert!(first.interrupted);
        assert_eq!(first.computed_folds, 2);
        assert_eq!(first.reused_folds, 0);

        let opts = ResumeOptions {
            max_new_folds: None,
            ..opts
        };
        let second = cross_validate_oof_resumable(&d, 4, 17, builder, &opts);
        assert!(!second.interrupted);
        assert_eq!(second.reused_folds, 2);
        assert_eq!(second.computed_folds, 2);

        // Bit-identical to the run that was never interrupted.
        assert_eq!(second.value.fold_of, uninterrupted.fold_of);
        for (a, b) in second.value.probas.iter().zip(&uninterrupted.probas) {
            let ba: Vec<u32> = a.iter().map(|v| v.to_bits()).collect();
            let bb: Vec<u32> = b.iter().map(|v| v.to_bits()).collect();
            assert_eq!(ba, bb);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_checkpoint_degrades_to_fresh_run() {
        let d = separable_dataset(8, 3, 0.5, 31);
        let builder = || Box::new(CentroidClassifier::new(3)) as Box<dyn Classifier>;
        let dir = temp_dir("corrupt_ckpt");
        let path = dir.join("cv.bfck");
        std::fs::write(&path, "this is not a checkpoint").unwrap();
        let opts = ResumeOptions {
            checkpoint: Some(path.clone()),
            ..ResumeOptions::default()
        };
        let r = cross_validate_resumable(&d, 3, 5, builder, &opts);
        assert!(!r.interrupted);
        assert_eq!(r.reused_folds, 0);
        assert_eq!(r.value.folds.len(), 3);
        // The damaged file has been replaced by a valid, complete one.
        let reloaded = cross_validate_resumable(&d, 3, 5, builder, &opts);
        assert_eq!(reloaded.reused_folds, 3);
        assert_eq!(reloaded.computed_folds, 0);
        assert_eq!(reloaded.value, r.value);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_checkpoint_from_other_dataset_rejected() {
        let d1 = separable_dataset(8, 3, 0.5, 32);
        let d2 = separable_dataset(8, 3, 0.5, 33);
        let builder = || Box::new(CentroidClassifier::new(3)) as Box<dyn Classifier>;
        let dir = temp_dir("stale_ckpt");
        let opts = ResumeOptions {
            checkpoint: Some(dir.join("cv.bfck")),
            ..ResumeOptions::default()
        };
        cross_validate_resumable(&d1, 3, 5, builder, &opts);
        // Same path, different dataset: nothing may be reused.
        let r = cross_validate_resumable(&d2, 3, 5, builder, &opts);
        assert_eq!(r.reused_folds, 0);
        assert_eq!(r.computed_folds, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn panicking_fold_is_skipped_not_fatal() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let d = separable_dataset(10, 3, 0.5, 34);
        let calls = AtomicUsize::new(0);
        // Every third classifier build panics (fold threads call the
        // builder once each).
        let r = cross_validate(&d, 3, 5, || {
            if calls.fetch_add(1, Ordering::SeqCst) == 1 {
                panic!("injected fold failure");
            }
            Box::new(CentroidClassifier::new(3))
        });
        assert_eq!(r.folds.len(), 2, "one fold skipped, two kept");
        assert!(r.mean_accuracy() > 0.5);
    }
}
