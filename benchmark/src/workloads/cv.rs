//! `cv_train`: k-fold cross-validation of the CNN+LSTM.
//!
//! Set-up collects one default-shape dataset; every rep then runs
//! `bf_ml::cross_validate_resumable` on it — training and evaluating one
//! network per fold, the folds spread over the pool — so the nn, ml and
//! par layers do all the timed work and simulation none.

use super::collection::CollectionTrace;
use super::{
    collection_config, repeat_for, report_fits, report_folds, report_overhead, report_predicts,
    same_cv, same_dataset, secs, timed_setup, FoldTimes, NnWork, RunSpec,
};
use crate::metrics::{layer_names, Report};
use crate::stats::Summary;
use crate::timed::{CallLog, Timed};
use bf_core::AttackKind;
use bf_ml::{
    cross_validate_resumable, Classifier, CnnLstmClassifier, Dataset, ResumeOptions, TrainConfig,
};
use bf_nn::CnnLstmConfig;
use std::sync::Arc;
use std::time::Instant;

const SITES: usize = 20;
const TRACES_PER_SITE: usize = 20;
/// Every run makes at least this many reps, so a median exists even
/// when one rep outlasts `--seconds`.
const MIN_REPS: usize = 3;
/// Epochs each fold trains: the minimum of the default experiment's
/// early-stopping schedule.
const EPOCHS: usize = 30;

/// The default-scale CNN+LSTM of `CollectionConfig::classifier_for`,
/// trained for exactly `EPOCHS` epochs (keeping the best validation
/// epoch's weights, as early stopping does). Under early stopping the
/// epochs a fold trains, and so a rep's work, change with the seed by up
/// to a third, and that would read as noise in the throughput.
fn classifier(data: &Dataset, seed: u64) -> Box<dyn Classifier> {
    let arch = CnnLstmConfig {
        learning_rate: 0.01,
        dropout: 0.5,
        ..CnnLstmConfig::scaled(data.feature_len(), data.n_classes(), 16)
    };
    let train = TrainConfig {
        max_epochs: EPOCHS,
        batch_size: 32,
        patience: EPOCHS,
        min_epochs: EPOCHS,
        seed,
    };
    Box::new(CnnLstmClassifier::new(arch, train))
}

pub fn run(spec: &RunSpec, report: &mut Report) -> Result<(), String> {
    let cfg = collection_config(AttackKind::LoopCounting);
    let collect = || cfg.collect_closed_world(SITES, TRACES_PER_SITE, spec.seed);
    let data = if report.traced() {
        collect()
    } else {
        timed_setup(report, collect)
    };
    let k = cfg.scale.folds();
    let cross_validate = |builder: &(dyn Fn() -> Box<dyn Classifier> + Sync)| {
        cross_validate_resumable(&data, k, spec.seed, builder, &ResumeOptions::default())
    };

    // Warm-up, and the result every later rep must reproduce exactly.
    let reference = cross_validate(&|| classifier(&data, spec.seed));
    report.check(reference.value.folds.len() == k, || {
        format!(
            "warm-up completed {} of {k} folds",
            reference.value.folds.len()
        )
    });

    let mut layers = CollectionTrace::default();
    if report.traced() {
        let replay = layers.collect(&cfg, SITES, TRACES_PER_SITE, spec.seed);
        report.check(same_dataset(&replay, &data), || {
            "traced collection differs from the set-up's".into()
        });
    }

    let log = Arc::new(CallLog::default());
    let mut nn = NnWork::default();
    let (mut rates, mut untraced_s, mut traced_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut calls, mut folds) = (Vec::new(), Vec::new());
    repeat_for(spec.seconds, MIN_REPS, |r| {
        let start = Instant::now();
        let res = cross_validate(&|| classifier(&data, spec.seed));
        let s = secs(start);
        untraced_s.push(s);
        rates.push(k as f64 / s);
        report.attempted += k as u64;
        report.failed += res.failed_folds as u64;
        report.check(same_cv(&res.value, &reference.value), || {
            format!("rep {r} cross-validation differs from the warm-up's")
        });
        if report.traced() {
            let before = log.snapshot();
            let start = Instant::now();
            let timed = nn.measure(|| {
                cross_validate(&|| Box::new(Timed::new(classifier(&data, spec.seed), log.clone())))
            });
            let wall_s = secs(start);
            traced_s.push(wall_s);
            report.check(same_cv(&timed.value, &reference.value), || {
                format!("traced rep {r} cross-validation differs from the untraced one")
            });
            let delta = log.snapshot().since(&before);
            folds.push(FoldTimes {
                per_fold_s: delta.per_model_s[before.per_model_s.len()..].to_vec(),
                wall_s,
            });
            calls.push(delta);
        }
        Ok(())
    })?;

    if report.traced() {
        report_fits(report, &calls);
        report_predicts(report, &calls);
        report_folds(report, &folds, spec.threads);
        nn.report(report);
        layers.report(report, spec.threads)?;
        report_overhead(report, &untraced_s, &traced_s);
        report.zero_unset(&layer_names());
    } else {
        let accuracy = reference.value.mean_accuracy();
        report.check(accuracy > 3.0 / SITES as f64, || {
            format!("cross-validated accuracy {accuracy:.3} is within three times chance")
        });
        report.set_median("items_per_s", &rates);
        report.set("accuracy", accuracy);
        report.set(
            "ok_fraction",
            1.0 - report.failed as f64 / report.attempted as f64,
        );
        println!(
            "{} reps of {k} folds over {} traces; rep seconds median {:.3}",
            rates.len(),
            data.len(),
            Summary::of(&untraced_s).median
        );
    }
    Ok(())
}
