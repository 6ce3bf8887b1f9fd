//! `serve_online`: the online service under an open loop.
//!
//! Set-up collects a training corpus and fits the four models of the
//! serving ladder: the CNN+LSTM primary, the centroid fallback, the
//! primary's per-prefix calibrations and a distilled student. A rep is
//! one `Service::run` pass over `REQUESTS` Poisson arrivals at `RATE`
//! requests per thousand virtual units, pass `r` on stream seed
//! `combine_seeds(seed, r)`, under the default chaos plan plus injected
//! slow-model and worker-panic faults and a slow-model storm on requests
//! 5..40. Arrival times are virtual, so the host can never fall behind
//! the schedule; host time is what the passes cost.

use super::collection::CollectionTrace;
use super::{
    collection_config, rep_seed, repeat_for, report_fits, report_overhead, report_predicts,
    same_dataset, secs, timed_setup, NnWork, RunSpec,
};
use crate::metrics::{layer_names, Report};
use crate::stats::{percentile, Summary};
use crate::timed::{CallLog, Calls, Timed};
use bf_core::AttackKind;
use bf_fault::{BackoffPolicy, FaultPlan};
use bf_ml::{
    AnytimeLadder, Calibration, CentroidClassifier, Classifier, Dataset, DistillConfig,
    DistilledClassifier,
};
use bf_serve::{
    open_loop_arrivals, BreakerConfig, Outcome, Resolved, ServeConfig, ServeRequest, Service,
    TierConfig, TierModels,
};
use bf_stats::rng::combine_seeds;
use bf_victim::Catalog;
use std::sync::Arc;
use std::time::Instant;

const SITES: usize = 20;
const TRAIN_TRACES_PER_SITE: usize = 16;
const REQUESTS: usize = 300;
/// Requests per thousand virtual units in the timed passes: below the
/// capacity knee, which lies between 25 and 33 on this configuration.
const RATE: f64 = 25.0;
/// The rates of the capacity sweep (traced runs only), highest first;
/// it stops at the first rate within capacity.
const SWEEP: [f64; 4] = [50.0, 33.0, RATE, 20.0];
/// Passes whose outcomes are pooled for the accuracy and latency
/// figures; every run makes at least this many, so those figures are a
/// fixed function of the seed, and p98 has its ten answers beyond.
const POOLED_PASSES: usize = 3;
/// A rate is within capacity while at most this share goes unanswered.
const CAPACITY_UNANSWERED: f64 = 0.05;

/// The service configuration, every field written out so that a change
/// to a library default does not silently change what is measured.
fn serve_config() -> ServeConfig {
    ServeConfig {
        queue_cap: 32,
        deadline_units: 1_000,
        collect_attempt_units: 100,
        primary_units: 50,
        fallback_units: 5,
        slow_penalty_units: 10_000,
        backoff: BackoffPolicy {
            base_units: 25,
            max_units: 400,
            jitter: 0.5,
        },
        breaker: BreakerConfig {
            open_after: 5,
            cooldown_units: 2_000,
            close_after: 3,
        },
        slow_storm: Some((5, 40)),
        wave_cap: Some(2),
        tiers: TierConfig {
            ladder: true,
            confidence_threshold: 0.85,
            distilled_units: 15,
        },
        batch: 8,
        down_windows: Vec::new(),
    }
}

fn fault_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed: combine_seeds(seed, 0xFA),
        slow_model: 0.02,
        worker_panic: 0.01,
        ..FaultPlan::default_plan()
    }
}

fn stream(seed: u64, r: usize, rate: f64) -> Vec<ServeRequest> {
    open_loop_arrivals(REQUESTS, SITES, 1000.0 / rate, rep_seed(seed, r))
}

/// Fit the serving models on `data` and assemble the service. With
/// `logs`, the primary and the distilled student are wrapped in timing
/// classifiers (primary log, student log).
fn build_service(
    seed: u64,
    data: &Dataset,
    logs: Option<(&Arc<CallLog>, &Arc<CallLog>)>,
) -> Result<Service, String> {
    let cfg = collection_config(AttackKind::LoopCounting);
    let folds = data.stratified_folds(5, seed);
    let train_idx: Vec<usize> = folds[1..].iter().flatten().copied().collect();
    let (train, val) = (data.subset(&train_idx), data.subset(&folds[0]));
    let mut primary = cfg.classifier_for(data, seed);
    if let Some((log, _)) = logs {
        primary = Box::new(Timed::new(primary, log.clone()));
    }
    primary.fit(&train, &val);
    let mut fallback = CentroidClassifier::new(SITES);
    fallback.fit(&train, &val);
    let ladder = AnytimeLadder::fit(&mut *primary, &val);
    let distill = DistillConfig {
        conv_filters: 8,
        temperature: 2.0,
        max_epochs: 12,
        batch_size: 32,
        seed: combine_seeds(seed, 0xD1),
    };
    if !DistilledClassifier::feasible(data.feature_len(), SITES, distill.conv_filters) {
        return Err(format!(
            "{}-sample features admit no distilled student",
            data.feature_len()
        ));
    }
    let mut student = DistilledClassifier::new(data.feature_len(), SITES, distill);
    student.distill(&mut *primary, &train);
    let distilled_calibration =
        Calibration::fit(&student.predict_proba(val.features()), val.labels());
    let mut distilled: Box<dyn Classifier> = Box::new(student);
    if let Some((_, log)) = logs {
        distilled = Box::new(Timed::new(distilled, log.clone()));
    }
    let sites = Catalog::closed_world_subset_with_tuning(SITES, cfg.tuning)
        .sites()
        .to_vec();
    let tiers = TierModels {
        ladder,
        distilled: Some(distilled),
        distilled_calibration,
    };
    Ok(Service::new(
        cfg.with_faults(fault_plan(seed)),
        sites,
        primary,
        fallback,
        serve_config(),
    )
    .with_tiers(tiers))
}

fn answer(r: &Resolved) -> Option<usize> {
    match &r.outcome {
        Outcome::Prediction { class, .. } | Outcome::Degraded { class, .. } => Some(*class),
        _ => None,
    }
}

/// One pass from a fresh breaker and fresh tallies.
fn pass(svc: &mut Service, requests: &[ServeRequest]) -> (Vec<Resolved>, f64) {
    svc.reset();
    let start = Instant::now();
    let resolved = svc.run(requests);
    (resolved, secs(start))
}

/// Every request resolved exactly once, in input order, with its
/// virtual latency split into queue wait and work.
fn check_pass(
    report: &mut Report,
    svc: &Service,
    requests: &[ServeRequest],
    resolved: &[Resolved],
    what: &str,
) {
    let health = svc.health();
    report.check(
        health.submitted == requests.len() as u64 && health.resolved() == health.submitted,
        || {
            format!(
                "{what}: {} of {} submitted requests resolved",
                health.resolved(),
                health.submitted
            )
        },
    );
    report.check(
        resolved.len() == requests.len()
            && resolved.iter().zip(requests).all(|(r, q)| r.id == q.id),
        || {
            format!(
                "{what}: {} records for {} requests, or out of order",
                resolved.len(),
                requests.len()
            )
        },
    );
    report.check(
        resolved
            .iter()
            .all(|r| r.latency_units() == r.queue_units + r.work_units),
        || format!("{what}: a latency is not queue wait plus work"),
    );
    report.check(
        resolved.iter().all(|r| answer(r).is_none_or(|c| c < SITES)),
        || format!("{what}: an answer names no site"),
    );
}

/// Library counters read around each traced pass, as deltas.
const COUNTERS: [&str; 5] = [
    "serve.batch.flushed.full",
    "serve.batch.flushed.deadline",
    "serve.batch.flushed.tier_mismatch",
    "serve.backoff_waits",
    "sim.runs",
];

fn read_counters() -> [u64; 5] {
    COUNTERS.map(|name| bf_obs::counter(name).get())
}

pub fn run(spec: &RunSpec, report: &mut Report) -> Result<(), String> {
    let cfg = collection_config(AttackKind::LoopCounting);
    let seed = spec.seed;
    let setup = || {
        let data = cfg.collect_closed_world(SITES, TRAIN_TRACES_PER_SITE, seed);
        build_service(seed, &data, None).map(|svc| (data, svc))
    };
    let (data, mut svc) = if report.traced() {
        setup()?
    } else {
        timed_setup(report, setup)?
    };

    // Warm-up, and the outcomes pass 0 must reproduce exactly.
    let requests0 = stream(seed, 0, RATE);
    let (reference, _) = pass(&mut svc, &requests0);

    let (primary_log, distilled_log) = (Arc::new(CallLog::default()), Arc::new(CallLog::default()));
    let mut layers = CollectionTrace::default();
    let mut nn = NnWork::default();
    let mut traced_svc = None;
    if report.traced() {
        let replay = layers.collect(&cfg, SITES, TRAIN_TRACES_PER_SITE, seed);
        report.check(same_dataset(&replay, &data), || {
            "traced collection differs from the set-up's".into()
        });
        traced_svc = Some(
            nn.measure(|| build_service(seed, &replay, Some((&primary_log, &distilled_log))))?,
        );
    }
    let setup_fits = primary_log.snapshot();

    let (mut rates, mut untraced_s, mut traced_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut pooled: Vec<Resolved> = Vec::new();
    let (mut predicts, mut non_model) = (Vec::new(), Vec::new());
    let (mut primary_pooled, mut distilled_pooled) = (Calls::default(), Calls::default());
    let mut counters = [0u64; 5];
    let (mut batch_sizes, mut transitions) = (bf_obs::HistogramSnapshot::empty(), 0usize);
    repeat_for(spec.seconds, POOLED_PASSES, |r| {
        let requests = stream(seed, r, RATE);
        let (resolved, s) = pass(&mut svc, &requests);
        check_pass(report, &svc, &requests, &resolved, &format!("pass {r}"));
        if r == 0 {
            report.check(resolved == reference, || {
                "pass 0 differs from the warm-up pass of the same stream".into()
            });
        }
        let answered = resolved.iter().filter(|x| answer(x).is_some()).count();
        untraced_s.push(s);
        rates.push(answered as f64 / s);
        report.attempted += requests.len() as u64;
        let resolved_once = resolved
            .iter()
            .zip(&requests)
            .filter(|(x, q)| x.id == q.id)
            .count();
        report.failed += (requests.len() - resolved_once) as u64;

        if let Some(tsvc) = traced_svc.as_mut() {
            let (p0, d0, c0) = (
                primary_log.snapshot(),
                distilled_log.snapshot(),
                read_counters(),
            );
            let size0 = bf_obs::histogram("serve.batch.size").snapshot();
            let (replay, ts) = pass(tsvc, &requests);
            traced_s.push(ts);
            check_pass(
                report,
                tsvc,
                &requests,
                &replay,
                &format!("traced pass {r}"),
            );
            report.check(replay == resolved, || {
                format!("traced pass {r} differs from the untraced pass")
            });
            let (p, d) = (
                primary_log.snapshot().since(&p0),
                distilled_log.snapshot().since(&d0),
            );
            non_model.push(1.0 - p.with_predicts_of(&d).predict_s / ts);
            if r < POOLED_PASSES {
                let c1 = read_counters();
                for (total, (after, before)) in counters.iter_mut().zip(c1.iter().zip(&c0)) {
                    *total += after - before;
                }
                batch_sizes = batch_sizes.merge(
                    &bf_obs::histogram("serve.batch.size")
                        .snapshot()
                        .delta_since(&size0),
                );
                transitions += tsvc.breaker().transitions().len();
                primary_pooled = primary_pooled.with_predicts_of(&p);
                distilled_pooled = distilled_pooled.with_predicts_of(&d);
            }
            predicts.push(p);
        }
        if r < POOLED_PASSES {
            pooled.extend(resolved);
        }
        Ok(())
    })?;

    let submitted = pooled.len() as f64;
    let answered: Vec<&Resolved> = pooled.iter().filter(|x| answer(x).is_some()).collect();
    let correct = answered
        .iter()
        .filter(|x| answer(x) == Some(x.site))
        .count();
    if !report.traced() {
        report.set_median("items_per_s", &rates);
        report.set("accuracy", correct as f64 / submitted);
        report.set("ok_fraction", answered.len() as f64 / submitted);
        println!(
            "{} passes of {REQUESTS} requests at {RATE} req/kunit; pass seconds median {:.3}",
            rates.len(),
            Summary::of(&untraced_s).median
        );
        return Ok(());
    }

    // Capacity: the highest swept rate at which the service still
    // answers all but CAPACITY_UNANSWERED of stream 0.
    let within = |res: &[Resolved]| {
        res.iter().filter(|x| answer(x).is_none()).count() as f64
            <= CAPACITY_UNANSWERED * res.len() as f64
    };
    let mut capacity = 0.0;
    for rate in SWEEP {
        let ok = if rate == RATE {
            within(&reference)
        } else {
            let requests = stream(seed, 0, rate);
            let (resolved, _) = pass(&mut svc, &requests);
            check_pass(
                report,
                &svc,
                &requests,
                &resolved,
                &format!("sweep at {rate}"),
            );
            within(&resolved)
        };
        if ok {
            capacity = rate;
            break;
        }
    }
    report.set("serve.capacity_per_kunit", capacity);

    let latency: Vec<f64> = answered.iter().map(|x| x.latency_units() as f64).collect();
    let queued: Vec<f64> = pooled
        .iter()
        .filter(|x| x.outcome != Outcome::Shed)
        .map(|x| x.queue_units as f64)
        .collect();
    for (name, xs, p) in [
        ("serve.p50_units", &latency, 50.0),
        ("serve.p98_units", &latency, 98.0),
        ("serve.queue_units.p50", &queued, 50.0),
        ("serve.queue_units.p95", &queued, 95.0),
    ] {
        report.set(name, percentile(xs, p).map_err(|e| format!("{name}: {e}"))?);
    }
    let per_pass = POOLED_PASSES as f64;
    let [full, deadline, tier_mismatch, backoff, sim_runs] = counters.map(|c| c as f64);
    report.set("serve.batch.flushed_full", full / per_pass);
    report.set("serve.batch.flushed_deadline", deadline / per_pass);
    report.set(
        "serve.batch.flushed_tier_mismatch",
        tier_mismatch / per_pass,
    );
    report.set("serve.batch.mean_size", batch_sizes.mean());
    report.set("fault.backoff_waits", backoff / per_pass);
    report.set("serve.collect_attempts_per_request", sim_runs / submitted);
    report.set("serve.breaker_transitions", transitions as f64 / per_pass);
    report.set(
        "ml.primary_rows_per_call",
        primary_pooled.predict_rows as f64 / primary_pooled.predict_calls.max(1) as f64,
    );
    report.set(
        "ml.distilled_calls",
        distilled_pooled.predict_calls as f64 / per_pass,
    );
    report.set_median("serve.non_model_fraction", &non_model);
    report_fits(report, std::slice::from_ref(&setup_fits));
    report_predicts(report, &predicts);
    nn.report(report);
    layers.report(report, spec.threads)?;
    report_overhead(report, &untraced_s, &traced_s);
    report.zero_unset(&layer_names());
    Ok(())
}
