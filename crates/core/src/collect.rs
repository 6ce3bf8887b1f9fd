//! Trace-collection pipeline: victim → (defense) → machine → attacker →
//! dataset.

use crate::scale::ExperimentScale;
use bf_attack::{LoopCountingAttacker, SweepCountingAttacker, Trace};
use bf_defense::Countermeasure;
use bf_fault::validate::clamp_values;
use bf_fault::{
    BackoffPolicy, CancelToken, DeadlineExceeded, FaultPlan, RepairAction, RepairPolicy,
    ResumeConfig, TraceValidator, Violation,
};
use bf_ml::{
    cross_validate_oof_resumable, cross_validate_resumable, CentroidClassifier, Classifier,
    CnnLstmClassifier, CrossValResult, Dataset, OofPredictions, Resumable, ResumeOptions,
    TrainConfig,
};
use bf_nn::CnnLstmConfig;
use bf_sim::{Machine, MachineConfig};
use bf_stats::rng::combine_seeds;
use bf_timer::{BrowserKind, Nanos, Timer};
use bf_victim::{Catalog, LoadEnv, NoiseApp, ProfileTuning, WebsiteProfile};

/// Which attacker program collects the traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackKind {
    /// The paper's loop-counting attack (Fig. 2b).
    LoopCounting,
    /// The sweep-counting / cache-occupancy baseline (Fig. 2a, \[64\]/\[65\]).
    SweepCounting,
}

impl AttackKind {
    /// Label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            AttackKind::LoopCounting => "Loop-Counting",
            AttackKind::SweepCounting => "Sweep-Counting",
        }
    }
}

impl std::fmt::Display for AttackKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Leaf span for one collection attempt on the active trace timeline.
/// `ts`/`dur` are virtual units; inert when tracing is off or no context
/// has been adopted on this thread.
fn trace_attempt(ts: u64, dur: u64, attempt: u32, outcome: &'static str) {
    let mut span = bf_obs::trace::span_at("attempt", ts);
    span.arg_u64("attempt", u64::from(attempt)).arg_str("outcome", outcome);
    span.finish(ts + dur);
}

/// Count a validation violation as `fault.violations.<label>` and return
/// the label for the attempt span: the one place a [`Violation`] maps to
/// both.
fn record_violation(v: &Violation) -> &'static str {
    let label = v.label();
    bf_obs::counter(&format!("fault.violations.{label}")).inc();
    label
}

/// Everything needed to collect one dataset of traces.
#[derive(Debug, Clone)]
pub struct CollectionConfig {
    /// Browser environment (timer model + loop speed + trace duration).
    pub browser: BrowserKind,
    /// Attacker program.
    pub attack: AttackKind,
    /// Machine model (OS, isolation, cores).
    pub machine: MachineConfig,
    /// Active countermeasure.
    pub defense: Countermeasure,
    /// Attacker period `P` (paper default: 5 ms).
    pub period: Nanos,
    /// Background noise applications running alongside (§4.2).
    pub background: Vec<NoiseApp>,
    /// Replace the browser's native timer with a quantized timer of this
    /// resolution (Table 4's "Quantized" row: a Tor-style 100 ms clock in
    /// an otherwise Chrome-like environment).
    pub quantize_timer: Option<Nanos>,
    /// Victim workload tuning (event volumes, run-to-run variation).
    pub tuning: ProfileTuning,
    /// Experiment sizing.
    pub scale: ExperimentScale,
    /// Fault-injection plan applied at the collection boundary
    /// (read from `BF_FAULT_PLAN` by [`CollectionConfig::new`]; inert by
    /// default).
    pub faults: FaultPlan,
}

impl CollectionConfig {
    /// A default-machine configuration for the given browser and attack.
    pub fn new(browser: BrowserKind, attack: AttackKind) -> Self {
        CollectionConfig {
            browser,
            attack,
            machine: MachineConfig::default(),
            defense: Countermeasure::None,
            period: Nanos::from_millis(5),
            background: Vec::new(),
            quantize_timer: None,
            tuning: ProfileTuning::default(),
            scale: ExperimentScale::Default,
            faults: FaultPlan::from_env(),
        }
    }

    /// Replace the fault-injection plan (tests pass explicit plans here
    /// instead of mutating the environment).
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Replace the machine model.
    #[must_use]
    pub fn with_machine(mut self, machine: MachineConfig) -> Self {
        self.machine = machine;
        self
    }

    /// Activate a countermeasure.
    #[must_use]
    pub fn with_defense(mut self, defense: Countermeasure) -> Self {
        self.defense = defense;
        self
    }

    /// Set the experiment scale.
    #[must_use]
    pub fn with_scale(mut self, scale: ExperimentScale) -> Self {
        self.scale = scale;
        self
    }

    /// Add background noise applications.
    #[must_use]
    pub fn with_background(mut self, apps: &[NoiseApp]) -> Self {
        self.background.extend_from_slice(apps);
        self
    }

    /// Collect a single trace of `site` for run `run_seed`.
    pub fn collect_trace(&self, site: &WebsiteProfile, run_seed: u64) -> Trace {
        let _span = bf_obs::span!("trace");
        bf_obs::counter("collect.traces").inc();
        let duration = self.browser.trace_duration();
        let env = if self.browser == BrowserKind::TorBrowser {
            LoadEnv::tor()
        } else {
            LoadEnv::direct()
        };
        let mut workload = site.generate_in_env(duration, run_seed, &env);
        for (i, app) in self.background.iter().enumerate() {
            workload.merge(&app.generate(duration, combine_seeds(run_seed, 0xA0 + i as u64)));
        }
        self.defense
            .apply_to_workload(&mut workload, combine_seeds(run_seed, 0xDEF));
        let machine = Machine::new(self.machine.clone());
        let sim = machine.run(&workload, combine_seeds(run_seed, 0x51));
        let base_timer: Box<dyn Timer> = match self.quantize_timer {
            Some(res) => Box::new(bf_timer::QuantizedTimer::new(res)),
            None => self.browser.timer(combine_seeds(run_seed, 0x71)),
        };
        let mut timer = self.defense.wrap_timer(base_timer, run_seed);
        let trace = match self.attack {
            AttackKind::LoopCounting => {
                let attacker = LoopCountingAttacker::for_browser(self.browser, self.period);
                attacker.collect(&sim, &mut timer)
            }
            AttackKind::SweepCounting => {
                let attacker = SweepCountingAttacker::new(self.period, self.machine.cache);
                attacker.collect(&sim, &mut timer, combine_seeds(run_seed, 0xCC))
            }
        };
        // The attacker is done replaying over the timeline: hand the
        // output's buffers back to this worker's sim workspace so the
        // next trace on this thread runs allocation-free.
        bf_sim::workspace::recycle(sim);
        trace
    }

    /// Trace length the collection geometry implies (periods per trace).
    pub fn expected_trace_len(&self) -> usize {
        (self.browser.trace_duration().as_nanos() / self.period.as_nanos().max(1)) as usize
    }

    /// Collect one trace with fault injection, validation, and bounded
    /// repair. Every trace — faulted or not — passes the
    /// [`TraceValidator`] before entering a dataset; numeric damage is
    /// clamped in place, structural damage triggers bounded re-collection
    /// (fresh attempt seed each time), and a trace that exhausts its
    /// retry budget is quarantined (`None`). All outcomes land in the
    /// `fault.*` counters so run manifests record them.
    ///
    /// This is the degenerate case of
    /// [`CollectionConfig::collect_trace_deadline`]: a budget that never
    /// runs out, one unit per attempt, and immediate retries. One
    /// "collect_trace" span wraps the repair loop; each attempt (and any
    /// fault mark emitted inside it) is a child leaf one virtual unit
    /// wide, so retries read left-to-right in the exported timeline.
    pub fn collect_trace_resilient(&self, site: &WebsiteProfile, run_seed: u64) -> Option<Trace> {
        let token = CancelToken::unlimited();
        let t0 = bf_obs::trace::virtual_offset();
        let mut span = bf_obs::trace::span_at("collect_trace", t0);
        let (trace, result) = self
            .repair_loop(site, run_seed, &token, None, 1)
            .expect("an unlimited budget never runs out");
        // One unit per attempt: the budget used is the attempt count.
        span.arg_u64("attempts", token.used()).arg_str("result", result);
        span.finish(t0 + token.used());
        trace
    }

    /// [`CollectionConfig::collect_trace_resilient`] under a cooperative
    /// deadline: the online-serving collection path. Trace values do not
    /// depend on the budget — attempt seeds are derived identically, so
    /// a trace that survives both paths is byte-identical — but:
    ///
    /// * every collection attempt charges `attempt_units` against
    ///   `token` **before** running, so an exhausted budget cancels at
    ///   the checkpoint instead of burning a full simulation;
    /// * transient faults and structural re-collections first wait out a
    ///   deterministic seeded exponential backoff (`backoff`, charged in
    ///   virtual units against the same token, counted in
    ///   `serve.backoff_waits` and drawn as `backoff` leaves);
    /// * `Err(DeadlineExceeded)` reports cancellation distinctly from
    ///   quarantine (`Ok(None)`), so the caller can resolve the request
    ///   as an explicit timeout rather than a failure;
    /// * no span wraps the loop: the serve worker's "collect" span
    ///   already brackets this call.
    pub fn collect_trace_deadline(
        &self,
        site: &WebsiteProfile,
        run_seed: u64,
        token: &CancelToken,
        backoff: &BackoffPolicy,
        attempt_units: u64,
    ) -> Result<Option<Trace>, DeadlineExceeded> {
        self.repair_loop(site, run_seed, token, Some(backoff), attempt_units)
            .map(|(trace, _)| trace)
    }

    /// The one validate → clamp / re-collect / quarantine loop behind
    /// both collection entry points. Each attempt charges
    /// `attempt_units` against `token` before it runs; each transient
    /// failure and each re-collection first waits out `backoff`'s seeded
    /// delay on the same token, or retries at once when `backoff` is
    /// `None`. Returns the trace (`None` when quarantined) with its
    /// result label: "ok", "clamped" or "quarantined".
    fn repair_loop(
        &self,
        site: &WebsiteProfile,
        run_seed: u64,
        token: &CancelToken,
        backoff: Option<&BackoffPolicy>,
        attempt_units: u64,
    ) -> Result<(Option<Trace>, &'static str), DeadlineExceeded> {
        let validator = TraceValidator::with_expected_len(self.expected_trace_len());
        let policy = RepairPolicy::default();
        // Attempts and backoff waits are leaves placed at
        // `base + token.used()`, i.e. on the same virtual clock the
        // budget runs on.
        let base = bf_obs::trace::virtual_offset();
        let mut waits = 0u32; // backoff waits so far (transient + structural)
        let mut back_off = || -> Result<(), DeadlineExceeded> {
            let Some(backoff) = backoff else { return Ok(()) };
            let wait = backoff.delay_units(self.faults.seed, run_seed, waits);
            waits += 1;
            bf_obs::counter("serve.backoff_waits").inc();
            bf_obs::debug!(
                "trace {run_seed:016x}: backing off {wait} unit(s) before retry {waits}"
            );
            let wait_ts = base + token.used();
            token.charge(wait)?;
            let mut span = bf_obs::trace::span_at("backoff", wait_ts);
            span.arg_u64("wait", u64::from(waits));
            span.finish(wait_ts + wait);
            Ok(())
        };
        for _ in 0..self.faults.transient_failures(run_seed) {
            bf_obs::counter("fault.transient_failures").inc();
            bf_obs::debug!("transient collection failure for trace {run_seed:016x}; retrying");
            back_off()?;
        }
        let mut recollects = 0u32;
        loop {
            let attempt_ts = base + token.used();
            token.charge(attempt_units)?;
            let _attempt_off = bf_obs::trace::offset_add(attempt_ts - base);
            // Re-collections perturb the attempt seed so a faulted draw is
            // not simply replayed; attempt 0 uses `run_seed` itself, which
            // keeps the clean path byte-identical to pre-fault collection.
            let attempt_seed = if recollects == 0 {
                run_seed
            } else {
                combine_seeds(run_seed, 0xF000 + u64::from(recollects))
            };
            let mut values = self.collect_trace(site, attempt_seed).into_values();
            let attempt_id = combine_seeds(run_seed, u64::from(recollects));
            if let Some(kind) = self.faults.fault_for(attempt_id) {
                self.faults.apply(kind, &mut values, attempt_id);
            }
            let violation = match validator.validate(&values) {
                Ok(()) => {
                    trace_attempt(attempt_ts, attempt_units, recollects, "ok");
                    return Ok((Some(Trace::new(self.period, values)), "ok"));
                }
                Err(v) => v,
            };
            let label = record_violation(&violation);
            trace_attempt(attempt_ts, attempt_units, recollects, label);
            match policy.action_for(&violation, recollects) {
                RepairAction::Clamp => {
                    let repaired = clamp_values(&mut values, validator.max_abs);
                    bf_obs::counter("fault.clamped").inc();
                    bf_obs::info!(
                        "trace {run_seed:016x}: {violation}; clamped {repaired} value(s)"
                    );
                    return Ok((Some(Trace::new(self.period, values)), "clamped"));
                }
                RepairAction::Recollect => {
                    recollects += 1;
                    bf_obs::counter("fault.retries").inc();
                    bf_obs::info!(
                        "trace {run_seed:016x}: {violation}; re-collecting \
                         (attempt {recollects}/{})",
                        policy.max_recollects
                    );
                    back_off()?;
                }
                RepairAction::Quarantine => {
                    bf_obs::counter("fault.quarantined").inc();
                    bf_obs::error!(
                        "trace {run_seed:016x}: {violation}; quarantined after \
                         {recollects} re-collection(s)"
                    );
                    return Ok((None, "quarantined"));
                }
            }
        }
    }

    /// The downsampling factor applied before classification: the scale's
    /// base factor, widened when the browser timer is so coarse that
    /// several attacker periods share one observable clock edge (Tor's
    /// 100 ms timer makes 5 ms periods individually meaningless).
    pub fn effective_downsample(&self) -> usize {
        let res = self
            .quantize_timer
            .unwrap_or_else(|| self.browser.timer_resolution())
            .as_nanos();
        let per_edge = (res / self.period.as_nanos().max(1)).max(1) as usize;
        self.scale.downsample().max(per_edge)
    }

    /// Trace → standardized classifier feature vector.
    pub fn featurize(&self, trace: &Trace) -> Vec<f32> {
        let down = trace.downsampled(self.effective_downsample());
        let n = down.len() as f64;
        let mean: f64 = down.iter().sum::<f64>() / n;
        let var: f64 = down.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        let sd = var.sqrt();
        if sd > 0.0 {
            down.iter().map(|v| ((v - mean) / sd) as f32).collect()
        } else {
            vec![0.0; down.len()]
        }
    }

    /// One dataset job: collect `site` for `run_seed` and featurize it
    /// (`None` when quarantined). The trace gets its own deterministic
    /// root (`run_seed` plus `root_index`), placed at job position `pos`
    /// × 8 virtual units on the shared timeline so lanes do not overlap
    /// in the exported view.
    fn collect_job(
        &self,
        site: &WebsiteProfile,
        run_seed: u64,
        root_index: u64,
        pos: usize,
    ) -> Option<Vec<f32>> {
        let tctx = (bf_obs::trace::enabled() && bf_obs::trace::sample_keep(run_seed))
            .then(|| bf_obs::TraceCtx::root(run_seed, root_index));
        let _trace = bf_obs::trace::adopt(tctx, (pos as u64) * 8);
        self.collect_trace_resilient(site, run_seed).map(|trace| self.featurize(&trace))
    }

    /// Collect the closed-world dataset: `n_sites` sites ×
    /// `traces_per_site` runs, labels = catalog order.
    pub fn collect_closed_world(
        &self,
        n_sites: usize,
        traces_per_site: usize,
        seed: u64,
    ) -> Dataset {
        let _span = bf_obs::span!("collect");
        bf_obs::info!(
            "collecting closed world: {n_sites} sites x {traces_per_site} traces \
             ({} / {})",
            self.browser,
            self.attack
        );
        let catalog = Catalog::closed_world_subset_with_tuning(n_sites, self.tuning);
        let sites = catalog.sites();
        for (label, site) in sites.iter().enumerate() {
            bf_obs::info!("site {}/{n_sites}: {}", label + 1, site.hostname());
        }
        // Each trace is a pure function of its per-run seed, so traces can
        // be simulated on any worker. Results are pushed in job order
        // below (quarantined traces skipped in place), which keeps the
        // dataset byte-identical to sequential collection at any thread
        // count.
        let jobs: Vec<(usize, u64)> = (0..sites.len())
            .flat_map(|label| {
                (0..traces_per_site)
                    .map(move |run| (label, combine_seeds(seed, (label * 100_000 + run) as u64)))
            })
            .collect();
        let features = bf_par::par_map_indexed(&jobs, |i, &(label, run_seed)| {
            self.collect_job(&sites[label], run_seed, label as u64, i)
        });
        let mut dataset = Dataset::new(n_sites);
        for ((label, _), feat) in jobs.into_iter().zip(features) {
            if let Some(f) = feat {
                dataset.push(f, label);
            }
        }
        bf_obs::counter("collect.datasets").inc();
        dataset
    }

    /// Collect the open-world dataset: the closed world plus
    /// `open_traces` one-shot non-sensitive sites labeled as one extra
    /// class (class id `n_sites`).
    pub fn collect_open_world(
        &self,
        n_sites: usize,
        traces_per_site: usize,
        open_traces: usize,
        seed: u64,
    ) -> Dataset {
        let closed = self.collect_closed_world(n_sites, traces_per_site, seed);
        let mut dataset = Dataset::new(n_sites + 1);
        for (x, &y) in closed.features().iter().zip(closed.labels()) {
            dataset.push(x.clone(), y);
        }
        let _span = bf_obs::span!("collect_open");
        bf_obs::info!("collecting open world: {open_traces} extra traces");
        // One-shot sites are generated per index inside the closure, so
        // every job stays a pure function of `(seed, i)` — same
        // determinism argument as the closed world.
        let ids: Vec<usize> = (0..open_traces).collect();
        let extra = bf_par::par_map_indexed(&ids, |idx, &i| {
            // Open-world sites span a wider intensity manifold than the
            // curated closed world (the real Alexa tail is far more
            // heterogeneous than the top 100).
            let mut tuning = self.tuning;
            tuning.intensity *= 0.5 + 1.5 * ((i % 17) as f64 / 16.0);
            let site = Catalog::open_world_site_with_tuning(i as u32, tuning);
            self.collect_job(&site, combine_seeds(seed ^ 0x0BE, i as u64), i as u64, idx)
        });
        for f in extra.into_iter().flatten() {
            dataset.push(f, n_sites);
        }
        dataset
    }

    /// Build the scale-appropriate classifier for a dataset. Falls back
    /// to the centroid baseline when the traces are too short for the
    /// CNN's conv/pool stack (coarse attacker periods produce very short
    /// traces, e.g. Table 4's P = 500 ms rows).
    pub fn classifier_for(&self, dataset: &Dataset, seed: u64) -> Box<dyn Classifier> {
        let cnn_feasible = CnnLstmConfig::scaled(
            dataset.feature_len().max(1),
            dataset.n_classes(),
            self.scale.conv_filters(),
        )
        .try_lstm_steps()
        .is_some();
        if self.scale.use_cnn() && cnn_feasible {
            let arch = CnnLstmConfig {
                learning_rate: 0.01,
                dropout: 0.5,
                ..CnnLstmConfig::scaled(
                    dataset.feature_len(),
                    dataset.n_classes(),
                    self.scale.conv_filters(),
                )
            };
            let arch = if self.scale == ExperimentScale::Paper {
                CnnLstmConfig::paper(dataset.feature_len(), dataset.n_classes())
            } else {
                arch
            };
            Box::new(CnnLstmClassifier::new(
                arch,
                TrainConfig {
                    max_epochs: 120,
                    batch_size: 32,
                    patience: 15,
                    min_epochs: 30,
                    seed,
                },
            ))
        } else {
            Box::new(CentroidClassifier::new(dataset.n_classes()))
        }
    }

    /// Run the full closed-world evaluation: collect + k-fold CV.
    pub fn evaluate_closed_world(&self, seed: u64) -> CrossValResult {
        let dataset =
            self.collect_closed_world(self.scale.n_sites(), self.scale.traces_per_site(), seed);
        self.cross_validate(&dataset, seed)
    }

    /// Checkpoint/resume options for cross-validating `dataset`:
    /// honours `BF_RESUME` / `BF_CHECKPOINT_DIR` (checkpoint files are
    /// named after the dataset fingerprint, so a changed dataset never
    /// reuses stale folds) and the fault plan's simulated interruption.
    pub fn resume_options(&self, dataset: &Dataset, seed: u64, tag: &str) -> ResumeOptions {
        let resume = ResumeConfig::from_env();
        let mut opts = ResumeOptions {
            max_new_folds: self.faults.interrupt_folds,
            ..ResumeOptions::default()
        };
        if resume.enabled {
            let stem = format!(
                "{tag}-{:016x}",
                combine_seeds(dataset.fingerprint(), seed)
            );
            opts.checkpoint = Some(resume.checkpoint_path(&stem));
            opts.snapshot_dir = Some(resume.dir.join(format!("{stem}-nets")));
        }
        opts
    }

    /// k-fold cross-validate an already-collected dataset.
    pub fn cross_validate(&self, dataset: &Dataset, seed: u64) -> CrossValResult {
        self.cross_validate_resumable(dataset, seed).value
    }

    /// [`CollectionConfig::cross_validate`] with checkpoint/resume
    /// (enabled via `BF_RESUME=1`) and simulated-interruption support.
    pub fn cross_validate_resumable(
        &self,
        dataset: &Dataset,
        seed: u64,
    ) -> Resumable<CrossValResult> {
        self.resumable("cross_validate", "cv", "cross-validation", dataset, seed, |opts| {
            cross_validate_resumable(
                dataset,
                self.scale.folds(),
                seed,
                || self.classifier_for(dataset, seed),
                opts,
            )
        })
    }

    /// Out-of-fold cross-validation of an already-collected dataset
    /// (resume-aware like [`CollectionConfig::cross_validate`]).
    pub fn cross_validate_oof(&self, dataset: &Dataset, seed: u64) -> OofPredictions {
        self.cross_validate_oof_resumable(dataset, seed).value
    }

    /// [`CollectionConfig::cross_validate_oof`] with checkpoint/resume
    /// and simulated-interruption support.
    pub fn cross_validate_oof_resumable(
        &self,
        dataset: &Dataset,
        seed: u64,
    ) -> Resumable<OofPredictions> {
        self.resumable("cross_validate_oof", "oof", "OOF cross-validation", dataset, seed, |opts| {
            cross_validate_oof_resumable(
                dataset,
                self.scale.folds(),
                seed,
                || self.classifier_for(dataset, seed),
                opts,
            )
        })
    }

    /// Shared body of the resumable cross-validation entry points: run
    /// `cv` inside the wall span `span` with the resume options for
    /// checkpoint tag `tag`, and tell the operator how to continue an
    /// interrupted `what`.
    fn resumable<T>(
        &self,
        span: &str,
        tag: &str,
        what: &str,
        dataset: &Dataset,
        seed: u64,
        cv: impl FnOnce(&ResumeOptions) -> Resumable<T>,
    ) -> Resumable<T> {
        let _span = bf_obs::span!(span);
        let r = cv(&self.resume_options(dataset, seed, tag));
        if r.interrupted {
            bf_obs::info!(
                "{what} interrupted after {} new fold(s); \
                 re-run with BF_RESUME=1 to continue",
                r.computed_folds
            );
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(browser: BrowserKind, attack: AttackKind) -> CollectionConfig {
        CollectionConfig::new(browser, attack).with_scale(ExperimentScale::Smoke)
    }

    #[test]
    fn collect_trace_has_expected_length() {
        let cfg = smoke(BrowserKind::Chrome, AttackKind::LoopCounting);
        let site = WebsiteProfile::for_hostname("github.com");
        let trace = cfg.collect_trace(&site, 1);
        assert_eq!(trace.len(), 3_000); // 15 s / 5 ms
    }

    #[test]
    fn featurize_standardizes_and_downsamples() {
        let cfg = smoke(BrowserKind::Chrome, AttackKind::LoopCounting);
        let site = WebsiteProfile::for_hostname("github.com");
        let f = cfg.featurize(&cfg.collect_trace(&site, 2));
        assert_eq!(f.len(), 300);
        let mean: f32 = f.iter().sum::<f32>() / 300.0;
        assert!(mean.abs() < 1e-4, "mean = {mean}");
    }

    #[test]
    fn closed_world_dataset_shape() {
        let cfg = smoke(BrowserKind::Chrome, AttackKind::LoopCounting);
        let d = cfg.collect_closed_world(3, 2, 7);
        assert_eq!(d.len(), 6);
        assert_eq!(d.n_classes(), 3);
        assert_eq!(d.labels().iter().filter(|&&l| l == 2).count(), 2);
    }

    #[test]
    fn open_world_adds_nonsensitive_class() {
        let cfg = smoke(BrowserKind::Chrome, AttackKind::LoopCounting);
        let d = cfg.collect_open_world(3, 2, 4, 7);
        assert_eq!(d.len(), 10);
        assert_eq!(d.n_classes(), 4);
        assert_eq!(d.labels().iter().filter(|&&l| l == 3).count(), 4);
    }

    #[test]
    fn collection_is_deterministic() {
        let cfg = smoke(BrowserKind::Chrome, AttackKind::LoopCounting);
        let a = cfg.collect_closed_world(2, 2, 3);
        let b = cfg.collect_closed_world(2, 2, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn sweep_attack_produces_small_counts() {
        let cfg = smoke(BrowserKind::Chrome, AttackKind::SweepCounting);
        let site = WebsiteProfile::for_hostname("github.com");
        let trace = cfg.collect_trace(&site, 4);
        // ~32 sweeps per period vs ~27 000 loop iterations.
        assert!(trace.max() < 100.0, "max = {}", trace.max());
    }

    #[test]
    fn resilient_path_with_faults_off_matches_plain_collection() {
        let cfg = smoke(BrowserKind::Chrome, AttackKind::LoopCounting).with_faults(FaultPlan::off());
        let site = WebsiteProfile::for_hostname("github.com");
        let plain = cfg.collect_trace(&site, 9);
        let resilient = cfg.collect_trace_resilient(&site, 9).expect("clean trace kept");
        assert_eq!(plain.values(), resilient.values());
    }

    #[test]
    fn nan_spikes_are_clamped_not_fatal() {
        let plan = FaultPlan {
            nan: 1.0,
            ..FaultPlan::off()
        };
        let cfg = smoke(BrowserKind::Chrome, AttackKind::LoopCounting).with_faults(plan);
        let site = WebsiteProfile::for_hostname("github.com");
        let trace = cfg.collect_trace_resilient(&site, 10).expect("clamped, not dropped");
        assert_eq!(trace.len(), cfg.expected_trace_len());
        assert!(trace.values().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn always_dropped_trace_is_quarantined_after_bounded_retries() {
        let plan = FaultPlan {
            drop: 1.0,
            ..FaultPlan::off()
        };
        let cfg = smoke(BrowserKind::Chrome, AttackKind::LoopCounting).with_faults(plan);
        let site = WebsiteProfile::for_hostname("github.com");
        assert_eq!(cfg.collect_trace_resilient(&site, 11), None);
    }

    #[test]
    fn quarantined_traces_shrink_dataset_without_panicking() {
        let plan = FaultPlan {
            drop: 1.0,
            ..FaultPlan::off()
        };
        let cfg = smoke(BrowserKind::Chrome, AttackKind::LoopCounting).with_faults(plan);
        let d = cfg.collect_closed_world(2, 2, 3);
        assert!(d.is_empty(), "every trace dropped, every retry dropped");
    }

    #[test]
    fn deadline_path_matches_batch_path_on_clean_traces() {
        let cfg = smoke(BrowserKind::Chrome, AttackKind::LoopCounting).with_faults(FaultPlan::off());
        let site = WebsiteProfile::for_hostname("github.com");
        let token = CancelToken::new(10_000);
        let deadline = cfg
            .collect_trace_deadline(&site, 21, &token, &BackoffPolicy::default(), 100)
            .expect("within budget")
            .expect("clean trace kept");
        let batch = cfg.collect_trace_resilient(&site, 21).expect("clean trace kept");
        assert_eq!(deadline.values(), batch.values());
        assert_eq!(token.used(), 100, "one attempt, no backoff");
    }

    #[test]
    fn exhausted_budget_cancels_before_the_attempt() {
        let cfg = smoke(BrowserKind::Chrome, AttackKind::LoopCounting).with_faults(FaultPlan::off());
        let site = WebsiteProfile::for_hostname("github.com");
        let token = CancelToken::new(50);
        let err = cfg
            .collect_trace_deadline(&site, 22, &token, &BackoffPolicy::default(), 100)
            .expect_err("100-unit attempt cannot fit a 50-unit budget");
        assert_eq!(err.limit, 50);
    }

    #[test]
    fn transient_faults_back_off_deterministically_against_the_budget() {
        let plan = FaultPlan {
            seed: 3,
            transient: 1.0,
            max_transient: 2,
            ..FaultPlan::off()
        };
        let cfg = smoke(BrowserKind::Chrome, AttackKind::LoopCounting).with_faults(plan.clone());
        let site = WebsiteProfile::for_hostname("github.com");
        let backoff = BackoffPolicy::default();
        let token = CancelToken::new(10_000);
        cfg.collect_trace_deadline(&site, 23, &token, &backoff, 100)
            .expect("within budget")
            .expect("trace kept");
        // Two transient failures wait out attempts 0 and 1 of the
        // schedule, then one collection attempt runs.
        let expected = backoff.total_units(plan.seed, 23, 2) + 100;
        assert_eq!(token.used(), expected);
        // Replay charges identically (the schedule is pure).
        let token2 = CancelToken::new(10_000);
        cfg.collect_trace_deadline(&site, 23, &token2, &backoff, 100)
            .unwrap()
            .unwrap();
        assert_eq!(token2.used(), expected);
    }

    #[test]
    fn quarantine_under_deadline_is_not_a_timeout() {
        let plan = FaultPlan {
            drop: 1.0,
            ..FaultPlan::off()
        };
        let cfg = smoke(BrowserKind::Chrome, AttackKind::LoopCounting).with_faults(plan);
        let site = WebsiteProfile::for_hostname("github.com");
        let before = bf_obs::counter("fault.quarantined").get();
        let token = CancelToken::new(100_000);
        let out = cfg
            .collect_trace_deadline(&site, 24, &token, &BackoffPolicy::default(), 100)
            .expect("budget was ample — quarantine is a distinct outcome");
        assert_eq!(out, None);
        assert!(bf_obs::counter("fault.quarantined").get() > before);
    }

    #[test]
    fn smoke_end_to_end_classification_beats_chance() {
        let cfg = smoke(BrowserKind::Chrome, AttackKind::LoopCounting);
        let result = cfg.evaluate_closed_world(11);
        // 6 classes: chance = 16.7 %. The centroid classifier on clean
        // traces should be far above it.
        assert!(
            result.mean_accuracy() > 0.5,
            "acc = {}",
            result.mean_accuracy()
        );
    }
}
