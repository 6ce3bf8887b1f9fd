//! `collect_loop` and `collect_sweep`: closed-world trace collection.
//!
//! A rep collects every trace of a closed world — victim synthesis,
//! machine simulation, attack replay and featurisation — through
//! `CollectionConfig::collect_closed_world`, rep `r` on seed
//! `combine_seeds(seed, r)`. Models play no part beyond the centroid
//! cross-validation that scores the collected traces.

use super::collection::CollectionTrace;
use super::{
    collection_config, rep_seed, repeat_for, report_fits, report_folds, report_overhead,
    report_predicts, same_cv, same_dataset, secs, timed_setup, FoldTimes, NnWork, RunSpec,
};
use crate::metrics::{layer_names, Report};
use crate::stats::Summary;
use crate::timed::{CallLog, Timed};
use bf_core::AttackKind;
use bf_ml::{cross_validate_resumable, CentroidClassifier, Classifier, Dataset, ResumeOptions};
use std::sync::Arc;
use std::time::Instant;

const SITES: usize = 20;

/// Traces per site per rep, sized so that a rep takes about a second
/// on two threads (a sweep-counting trace costs about twice a
/// loop-counting one), and the number of reps whose traces are pooled
/// for `accuracy`. Every run makes at least that many reps, so the score
/// is a fixed function of the seed; pooling about ten seconds of traces
/// keeps its seed-to-seed spread within a few percent.
fn shape(attack: AttackKind) -> (usize, usize) {
    match attack {
        AttackKind::LoopCounting => (6, 12),
        AttackKind::SweepCounting => (3, 10),
    }
}

pub fn run(attack: AttackKind, spec: &RunSpec, report: &mut Report) -> Result<(), String> {
    let cfg = collection_config(attack);
    let (tps, pooled_reps) = shape(attack);
    let jobs = (SITES * tps) as u64;
    let collect = |r: usize| cfg.collect_closed_world(SITES, tps, rep_seed(spec.seed, r));
    // Set-up collects rep 0, which later reps are checked against; it
    // also fills each worker's simulation arenas before timing starts.
    let reference = if report.traced() {
        collect(0)
    } else {
        timed_setup(report, || collect(0))
    };

    let mut pool = Dataset::new(SITES);
    let (mut rates, mut untraced_s, mut traced_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut layers = CollectionTrace::default();
    repeat_for(spec.seconds, pooled_reps, |r| {
        let start = Instant::now();
        let data = collect(r);
        let s = secs(start);
        untraced_s.push(s);
        rates.push(jobs as f64 / s);
        report.attempted += jobs;
        report.failed += jobs - data.len() as u64;
        if r == 0 {
            report.check(same_dataset(&data, &reference), || {
                "rep 0 differs from the set-up's collection of the same seeds".into()
            });
        }
        if report.traced() {
            let start = Instant::now();
            let replay = layers.collect(&cfg, SITES, tps, rep_seed(spec.seed, r));
            traced_s.push(secs(start));
            report.check(same_dataset(&replay, &data), || {
                format!("traced rep {r} differs from the untraced collection")
            });
        }
        if r < pooled_reps {
            for (x, &y) in data.features().iter().zip(data.labels()) {
                pool.push(x.clone(), y);
            }
        }
        Ok(())
    })?;
    let expected_len = cfg.expected_trace_len() / cfg.effective_downsample();
    report.check(
        pool.features()
            .iter()
            .all(|x| x.len() == expected_len && x.iter().all(|v| v.is_finite())),
        || format!("features are not {expected_len} finite values each"),
    );

    let k = cfg.scale.folds();
    let centroid = || Box::new(CentroidClassifier::new(SITES)) as Box<dyn Classifier>;
    let cv = cross_validate_resumable(&pool, k, spec.seed, centroid, &ResumeOptions::default());
    report.check(cv.failed_folds == 0, || {
        format!("{} of {k} centroid folds failed", cv.failed_folds)
    });

    if report.traced() {
        let log = Arc::new(CallLog::default());
        let start = Instant::now();
        let timed_cv = cross_validate_resumable(
            &pool,
            k,
            spec.seed,
            || Box::new(Timed::new(centroid(), log.clone())) as Box<dyn Classifier>,
            &ResumeOptions::default(),
        );
        let wall_s = secs(start);
        report.check(same_cv(&timed_cv.value, &cv.value), || {
            "centroid cross-validation differs through the timing wrapper".into()
        });
        let calls = log.snapshot();
        report_fits(report, std::slice::from_ref(&calls));
        report_predicts(report, std::slice::from_ref(&calls));
        report_folds(
            report,
            &[FoldTimes {
                per_fold_s: calls.per_model_s,
                wall_s,
            }],
            spec.threads,
        );
        NnWork::default().report(report);
        layers.report(report, spec.threads)?;
        report_overhead(report, &untraced_s, &traced_s);
        report.zero_unset(&layer_names());
    } else {
        let accuracy = cv.value.mean_accuracy();
        report.check(accuracy > 3.0 / SITES as f64, || {
            format!("centroid accuracy {accuracy:.3} is within three times chance")
        });
        report.set_median("items_per_s", &rates);
        report.set("accuracy", accuracy);
        report.set(
            "ok_fraction",
            1.0 - report.failed as f64 / report.attempted as f64,
        );
        println!(
            "{} reps of {jobs} traces; rep seconds median {:.3}",
            rates.len(),
            Summary::of(&untraced_s).median
        );
    }
    Ok(())
}
