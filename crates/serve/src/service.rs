//! The wave-based virtual-time scheduler.
//!
//! [`Service::run`] drains an arrival stream through four stages:
//!
//! 1. **Admission** — arrivals at or before the current tick enter the
//!    bounded queue; overflow is shed immediately.
//! 2. **Dispatch** — up to `wave_cap × batch` queued jobs form a wave
//!    (`wave_cap` follows [`bf_par::threads`] unless pinned); jobs whose
//!    deadline already elapsed resolve as queue timeouts.
//! 3. **Collect** — the wave's trace collections run in parallel
//!    ([`bf_par::par_map_indexed`]), each under a [`CancelToken`]
//!    bounded by its remaining deadline budget; transient faults retry
//!    with seeded exponential backoff charged to the same budget.
//! 4. **Predict** — applied *sequentially* in virtual-completion order
//!    `(collect units, wave position)`, so circuit-breaker bookkeeping
//!    (consecutive failures, cooldown expiry) is independent of OS
//!    scheduling. There is one predict path: consecutive healthy jobs in
//!    that order are grouped into micro-batches of up to `batch`
//!    requests that share one stacked forward pass per rung, each member
//!    charged `ceil(inference / batch_size)` of the model cost. A
//!    fault-flagged job flushes the pending group and runs alone as a
//!    singleton group, so its fault stays contained to its own request.
//!    The clock then advances by the wave's longest job.
//!
//! Parallelism changes wall time only: for a fixed `(stream, config,
//! BF_THREADS)` — the batch capacity included — the outcomes, tick
//! accounting, and breaker transitions are bit-identical from run to
//! run. `batch = 1` is just a capacity of one: every group is a
//! singleton and pays the undivided cost. Batch sizes only differ
//! through the documented shared-cost rule (and the breaker
//! bookkeeping order that cheaper climbs imply).

use crate::breaker::{BreakerState, CircuitBreaker};
use crate::{Outcome, Resolved, ServeConfig, ServeRequest, Stage, Tier};
use bf_core::collect::CollectionConfig;
use bf_fault::CancelToken;
use bf_ml::{metrics::argmax, AnytimeLadder, Calibration, CentroidClassifier, Classifier};
use bf_obs::trace;
use bf_obs::TraceCtx;
use bf_victim::WebsiteProfile;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The root trace context for one request, when tracing keeps it:
/// derived purely from `(seed, id)`, so every stage of the lifecycle —
/// on any thread — recomputes the same tree without passing IDs around.
fn trace_root(req: &ServeRequest) -> Option<TraceCtx> {
    if trace::enabled() && trace::sample_keep(req.id) {
        Some(TraceCtx::root(req.seed, req.id))
    } else {
        None
    }
}

/// The context of the request's top-level `request` span (minted when
/// the request resolves); collect/predict spans parent under it.
fn trace_request_ctx(req: &ServeRequest) -> Option<TraceCtx> {
    trace_root(req).map(|root| trace::first_child_ctx(root, "request"))
}

fn outcome_label(outcome: &Outcome) -> &'static str {
    match outcome {
        Outcome::Prediction { .. } => "prediction",
        Outcome::Degraded { .. } => "degraded",
        Outcome::Timeout { stage: Stage::Queue } => "timeout_queue",
        Outcome::Timeout { stage: Stage::Collect } => "timeout_collect",
        Outcome::Timeout { stage: Stage::Predict } => "timeout_predict",
        Outcome::Shed => "shed",
        Outcome::Failed { .. } => "failed",
        Outcome::ShardDown => "shard_down",
    }
}

/// Whether `tick` falls inside any of the sorted, non-overlapping
/// half-open `[crash, restart)` down windows.
fn down_at(windows: &[(u64, u64)], tick: u64) -> bool {
    windows
        .binary_search_by(|&(start, end)| {
            if tick < start {
                std::cmp::Ordering::Greater
            } else if tick >= end {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Equal
            }
        })
        .is_ok()
}

/// Readiness and terminal-outcome accounting, exposed for health
/// checks and end-of-run invariants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// `true` unless the breaker is open (degraded-only service).
    pub ready: bool,
    /// Current breaker state.
    pub breaker: BreakerState,
    /// Configured queue capacity.
    pub queue_cap: usize,
    /// Requests ever submitted to [`Service::run`].
    pub submitted: u64,
    /// Primary-path predictions returned.
    pub predictions: u64,
    /// Degraded (centroid) predictions returned.
    pub degraded: u64,
    /// Explicit deadline timeouts.
    pub timeouts: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Explicit failures (quarantine, contained panics).
    pub failed: u64,
    /// Requests resolved [`Outcome::ShardDown`] by a shard crash.
    pub shard_down: u64,
    /// Supervised shard restarts performed so far.
    pub restarts: u64,
    /// Worker panics contained by the service.
    pub worker_panics: u64,
}

impl HealthSnapshot {
    /// Sum of the six terminal-outcome counts. The service guarantees
    /// this equals [`HealthSnapshot::submitted`] after every run.
    pub fn resolved(&self) -> u64 {
        self.predictions + self.degraded + self.timeouts + self.shed + self.failed
            + self.shard_down
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Tallies {
    submitted: u64,
    predictions: u64,
    degraded: u64,
    timeouts: u64,
    shed: u64,
    failed: u64,
    shard_down: u64,
    restarts: u64,
    /// Breaker transitions accumulated from breakers discarded by
    /// supervised restarts; [`Service::breaker_flaps`] adds the live
    /// breaker's count on top.
    flaps: u64,
    worker_panics: u64,
}

impl Tallies {
    /// Book one contained worker panic: tally, counter, error event.
    fn worker_panic(&mut self, what: std::fmt::Arguments<'_>) {
        self.worker_panics += 1;
        bf_obs::counter("serve.worker_panics").inc();
        bf_obs::error!("contained {what}");
    }
}

/// A job dispatched into a wave: request index plus the deadline budget
/// remaining at dispatch time.
struct WaveJob {
    idx: usize,
    budget: u64,
}

/// What the parallel collect stage produced for one wave job.
enum Collected {
    Features(Vec<f32>),
    Quarantined,
    Deadline,
    Panicked(String),
}

struct CollectOut {
    pos: usize,
    idx: usize,
    budget: u64,
    /// Units charged by the collect stage, clamped to the budget.
    collect_units: u64,
    token: CancelToken,
    res: Collected,
}

impl CollectOut {
    /// Units charged to the request so far, clamped to its budget.
    fn work(&self) -> u64 {
        self.token.used().min(self.budget)
    }

    /// The collected features; only feature-bearing completions reach
    /// a predict group.
    fn features(&self) -> &Vec<f32> {
        match &self.res {
            Collected::Features(f) => f,
            _ => unreachable!("only feature-bearing jobs reach a predict group"),
        }
    }
}

/// Predict-stage faults injected into one request.
#[derive(Debug, Clone, Copy)]
struct Injected {
    /// The primary call panics (contained before any charge).
    panic: bool,
    /// The primary is slow: its first charge carries
    /// `ServeConfig::slow_penalty_units`.
    slow: bool,
}

impl Injected {
    /// Flagged requests never join a micro-batch: an injected slow
    /// model or panic must charge and fail its own request only, so
    /// fault containment is identical at every batch size.
    fn flagged(self) -> bool {
        self.panic || self.slow
    }
}

/// An answered outcome for `probs` at `tier` — a confident
/// `Prediction`, or a `Degraded` answer — with the argmax class and the
/// max probability as its confidence.
fn answer(probs: Vec<f32>, tier: Tier, confident: bool) -> Outcome {
    let class = argmax(&probs);
    let confidence = probs.iter().copied().fold(0.0f32, f32::max);
    if confident {
        Outcome::Prediction { class, probs, tier, confidence }
    } else {
        Outcome::Degraded { class, probs, tier, confidence }
    }
}

/// Why a pending micro-batch was handed to the predict stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlushReason {
    /// The batch reached `ServeConfig::batch` capacity.
    Full,
    /// A fault-flagged or failed-collect job interrupted the run of
    /// batchable completions; the batch flushes so the interrupting job
    /// resolves *in completion order*.
    TierMismatch,
    /// The wave ended with a partial batch pending.
    Deadline,
}

impl FlushReason {
    fn label(self) -> &'static str {
        match self {
            FlushReason::Full => "full",
            FlushReason::TierMismatch => "tier_mismatch",
            FlushReason::Deadline => "deadline",
        }
    }

    fn counter(self) -> &'static str {
        match self {
            FlushReason::Full => "serve.batch.flushed.full",
            FlushReason::TierMismatch => "serve.batch.flushed.tier_mismatch",
            FlushReason::Deadline => "serve.batch.flushed.deadline",
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_owned())
}

/// The anytime ladder's models, attached via [`Service::with_tiers`]:
/// per-rung calibrations for the primary, and (optionally) a distilled
/// student with its own calibration.
pub struct TierModels {
    /// Per-prefix-length calibrations for the primary classifier.
    pub ladder: AnytimeLadder,
    /// The distilled small student, when one was trained.
    pub distilled: Option<Box<dyn Classifier>>,
    /// Confidence calibration for the distilled student.
    pub distilled_calibration: Calibration,
}

impl Default for TierModels {
    fn default() -> Self {
        TierModels {
            ladder: AnytimeLadder::identity(),
            distilled: None,
            distilled_calibration: Calibration::identity(),
        }
    }
}

/// Per-tier cost estimates in virtual units, published as
/// `serve.tier.cost.*` gauges. Each rung entry is the *incremental*
/// cost of climbing to that rung from the one below (rung 0's
/// collection share is charged by the collect stage). Estimates start
/// at the config formulas and track the running max of successfully
/// charged steps, so the controller's admission check reflects what the
/// tiers actually cost — updated only in the sequential predict stage,
/// keeping them schedule-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TierCosts {
    steps: [u64; bf_ml::PREFIX_PERCENTS.len()],
    distilled: u64,
    centroid: u64,
}

impl TierCosts {
    fn step_gauge(idx: usize) -> &'static str {
        match bf_ml::PREFIX_PERCENTS[idx] {
            25 => "serve.tier.cost.early_exit_25",
            50 => "serve.tier.cost.early_exit_50",
            75 => "serve.tier.cost.early_exit_75",
            _ => "serve.tier.cost.full",
        }
    }

    fn from_config(cfg: &ServeConfig) -> Self {
        let cc4 = (cfg.collect_attempt_units / 4).max(1);
        let mut steps = [0u64; bf_ml::PREFIX_PERCENTS.len()];
        for (i, &level) in bf_ml::PREFIX_PERCENTS.iter().enumerate() {
            let predict = ((cfg.primary_units * level as u64) / 100).max(1);
            steps[i] = if i == 0 { predict } else { cc4 + predict };
        }
        let costs = TierCosts {
            steps,
            distilled: cfg.tiers.distilled_units.max(1),
            centroid: cfg.fallback_units.max(1),
        };
        for (i, &s) in costs.steps.iter().enumerate() {
            bf_obs::gauge(Self::step_gauge(i)).set(s as f64);
        }
        bf_obs::gauge("serve.tier.cost.distilled").set(costs.distilled as f64);
        bf_obs::gauge("serve.tier.cost.centroid").set(costs.centroid as f64);
        costs
    }

    /// Record the actual units a successful rung step charged.
    fn observe_step(&mut self, idx: usize, units: u64) {
        if units > self.steps[idx] {
            self.steps[idx] = units;
            bf_obs::gauge(Self::step_gauge(idx)).set(units as f64);
        }
    }

    fn observe_distilled(&mut self, units: u64) {
        if units > self.distilled {
            self.distilled = units;
            bf_obs::gauge("serve.tier.cost.distilled").set(units as f64);
        }
    }
}

/// The online fingerprinting service. Owns a collection pipeline, a
/// primary classifier, a fitted centroid fallback, and a circuit
/// breaker; see the module docs for scheduling semantics.
pub struct Service {
    collection: CollectionConfig,
    sites: Vec<WebsiteProfile>,
    primary: Box<dyn Classifier>,
    fallback: CentroidClassifier,
    tiers: TierModels,
    cfg: ServeConfig,
    breaker: CircuitBreaker,
    tier_costs: TierCosts,
    tallies: Tallies,
    /// Fleet shard index, when this service runs as one shard of a
    /// [`crate::fleet::Fleet`]: stamped onto every request span so the
    /// Perfetto export can group timelines by shard.
    shard_label: Option<usize>,
}

impl Service {
    /// Assemble a service. `collection.faults` is the serving-time fault
    /// plan (transient retries, slow-model and worker-panic injection).
    ///
    /// # Panics
    ///
    /// Panics when `sites` is empty or `fallback` is not fitted — an
    /// unfitted fallback would turn graceful degradation into a panic
    /// at the worst possible moment.
    pub fn new(
        collection: CollectionConfig,
        sites: Vec<WebsiteProfile>,
        primary: Box<dyn Classifier>,
        fallback: CentroidClassifier,
        cfg: ServeConfig,
    ) -> Self {
        assert!(!sites.is_empty(), "service needs at least one site");
        assert!(
            !fallback.centroids().is_empty(),
            "fallback classifier must be fitted before serving"
        );
        let breaker = CircuitBreaker::new(cfg.breaker);
        let tier_costs = TierCosts::from_config(&cfg);
        Service {
            collection,
            sites,
            primary,
            fallback,
            tiers: TierModels::default(),
            cfg,
            breaker,
            tier_costs,
            tallies: Tallies::default(),
            shard_label: None,
        }
    }

    /// Attach anytime-ladder models (per-rung calibrations and an
    /// optional distilled student). Without this, a ladder-enabled
    /// config still works — calibrations default to identity and the
    /// distilled tier is skipped.
    pub fn with_tiers(mut self, tiers: TierModels) -> Self {
        self.tiers = tiers;
        self
    }

    /// Label this service as fleet shard `shard`: request spans gain a
    /// `shard` argument and the Perfetto export groups them under a
    /// per-shard process lane.
    pub fn with_shard_label(mut self, shard: usize) -> Self {
        self.shard_label = Some(shard);
        self
    }

    /// The service's config.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Swap the service's tuning without refitting any model: breaker
    /// state, tallies, and tier-cost estimates restart from the new
    /// config. This is what lets a deadline sweep reuse one (expensive)
    /// fitted primary across dozens of configurations.
    pub fn reconfigure(&mut self, cfg: ServeConfig) {
        self.cfg = cfg;
        self.reset();
    }

    /// The breaker's transition history (see [`CircuitBreaker`]).
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// Total breaker state transitions over this service's lifetime —
    /// the live breaker's history plus transitions of breakers
    /// discarded by supervised restarts. This is the "breaker flap"
    /// count the fleet SLO report aggregates.
    pub fn breaker_flaps(&self) -> u64 {
        self.tallies.flaps + self.breaker.transitions().len() as u64
    }

    /// Clear breaker state, transition history, and outcome tallies:
    /// a fresh service with the same fitted models and config. Lets a
    /// load generator replay the same stream for determinism checks
    /// without refitting the (expensive) primary.
    pub fn reset(&mut self) {
        self.breaker = CircuitBreaker::new(self.cfg.breaker);
        self.tier_costs = TierCosts::from_config(&self.cfg);
        self.tallies = Tallies::default();
    }

    /// Readiness + outcome accounting across all runs so far.
    pub fn health(&self) -> HealthSnapshot {
        let t = &self.tallies;
        HealthSnapshot {
            ready: self.breaker.state() != BreakerState::Open,
            breaker: self.breaker.state(),
            queue_cap: self.cfg.queue_cap,
            submitted: t.submitted,
            predictions: t.predictions,
            degraded: t.degraded,
            timeouts: t.timeouts,
            shed: t.shed,
            failed: t.failed,
            shard_down: t.shard_down,
            restarts: t.restarts,
            worker_panics: t.worker_panics,
        }
    }

    /// Record breaker history and outcome tallies into a run manifest.
    pub fn record_in_manifest(&self, mb: &mut bf_obs::ManifestBuilder) {
        let t = &self.tallies;
        mb.config("serve.breaker_state", self.breaker.state().label());
        mb.config("serve.breaker_transitions", self.breaker.transitions_summary());
        mb.config(
            "serve.outcomes",
            format!(
                "submitted={} predictions={} degraded={} timeouts={} shed={} failed={} \
                 shard_down={} restarts={} worker_panics={}",
                t.submitted, t.predictions, t.degraded, t.timeouts, t.shed, t.failed,
                t.shard_down, t.restarts, t.worker_panics
            ),
        );
    }

    /// Drain `requests` (sorted internally by `(arrival, id)`) to
    /// terminal outcomes. The returned records are in input order and
    /// there is exactly one per request — see the crate docs for the
    /// exhaustiveness guarantee. The virtual clock starts at 0 for each
    /// call; breaker state and tallies persist across calls.
    pub fn run(&mut self, requests: &[ServeRequest]) -> Vec<Resolved> {
        let n = requests.len();
        self.tallies.submitted += n as u64;
        bf_obs::counter("serve.submitted").add(n as u64);
        let _span = bf_obs::span!("serve.run");

        let mut order: Vec<usize> = (0..n).collect(); // alloc-ok: per-run staging
        order.sort_by_key(|&i| (requests[i].arrival, requests[i].id, i));
        let mut resolved: Vec<Option<Resolved>> = (0..n).map(|_| None).collect(); // alloc-ok: per-run staging
        let mut queue: VecDeque<usize> = VecDeque::new();
        // A wave carries one micro-batch worth of jobs per logical
        // worker: the collect stage fans out across the pool, the
        // predict stage regroups completions into batches.
        let dispatch_cap = self.cfg.wave_cap.unwrap_or_else(bf_par::threads).max(1)
            * self.cfg.batch.max(1);
        let mut now = 0u64;
        let mut next_arrival = 0usize;
        // Supervised outage schedule, local to this run: the virtual
        // clock restarts at 0 per call, so windows are run-relative.
        let windows = self.cfg.down_windows.clone(); // alloc-ok: per-run staging
        let mut next_window = 0usize;

        loop {
            // Idle: jump the clock to the next arrival, or finish.
            if queue.is_empty() {
                match order.get(next_arrival) {
                    Some(&i) => now = now.max(requests[i].arrival),
                    None => break,
                }
            }

            // Supervised crash: when the clock reaches a down window,
            // the shard died at the window's start tick. Everything
            // still queued resolves ShardDown — that is the in-flight
            // set; waves dispatched before the crash already completed
            // (the wave is the crash atom). At the window end the
            // supervisor has restarted the shard: the crashed breaker's
            // transition history rolls into the flap tally and a fresh,
            // closed breaker takes over. Bookkeeping runs exactly once
            // per window, even when an idle clock jump skips it whole.
            while next_window < windows.len() && windows[next_window].0 <= now {
                let (_, end) = windows[next_window];
                next_window += 1;
                while let Some(idx) = queue.pop_front() {
                    let req = requests[idx];
                    resolved[idx] = Some(self.resolve_at(&req, Outcome::ShardDown, now, 0));
                }
                self.tallies.flaps += self.breaker.transitions().len() as u64;
                self.breaker = CircuitBreaker::new(self.cfg.breaker);
                self.tallies.restarts += 1;
                bf_obs::counter("serve.restarts").inc();
                now = now.max(end);
            }

            // Admission: everything that has arrived by `now`. Arrivals
            // that landed inside a down window bounce straight to
            // ShardDown — the shard was not accepting work when they
            // arrived.
            while next_arrival < n && requests[order[next_arrival]].arrival <= now {
                let idx = order[next_arrival];
                next_arrival += 1;
                let req = requests[idx];
                if down_at(&windows, req.arrival) {
                    resolved[idx] =
                        Some(self.resolve_at(&req, Outcome::ShardDown, req.arrival, 0));
                } else if queue.len() >= self.cfg.queue_cap {
                    resolved[idx] = Some(self.resolve_at(&req, Outcome::Shed, req.arrival, 0));
                } else {
                    queue.push_back(idx);
                }
            }
            bf_obs::gauge("serve.queue_depth").set(queue.len() as f64);
            if queue.is_empty() {
                continue;
            }

            // Dispatch a wave, expiring deadlines that lapsed in queue.
            let mut wave: Vec<WaveJob> = Vec::new();
            while wave.len() < dispatch_cap {
                let Some(idx) = queue.pop_front() else { break };
                let req = requests[idx];
                let deadline = req.arrival.saturating_add(self.cfg.deadline_units);
                if now >= deadline {
                    resolved[idx] =
                        Some(self.resolve_at(&req, Outcome::Timeout { stage: Stage::Queue }, now, 0));
                } else {
                    wave.push(WaveJob { idx, budget: deadline - now });
                }
            }
            bf_obs::gauge("serve.queue_depth").set(queue.len() as f64);
            if wave.is_empty() {
                continue;
            }

            // Parallel collect stage. The closure only borrows Sync
            // pieces of the service (collection config, catalog, knobs);
            // panics are contained per job.
            let collection = &self.collection;
            let sites = &self.sites;
            let cfg = &self.cfg;
            // With the ladder on, a collect attempt is only charged for
            // the first rung's prefix share of the trace; climbing a
            // rung later charges another quarter (see the ladder's
            // predict stage). The wall-time collection is unchanged —
            // virtual accounting is what the deadline sees.
            let attempt_units = if cfg.tiers.ladder {
                (cfg.collect_attempt_units / 4).max(1)
            } else {
                cfg.collect_attempt_units
            };
            let dispatch_tick = now;
            let mut outs: Vec<CollectOut> = bf_par::par_map_indexed(&wave, |pos, job| {
                let req = &requests[job.idx];
                // Reconstruct the request's trace tree on whichever
                // worker claimed the job: the collect span parents under
                // the (not-yet-recorded) `request` span, and the virtual
                // clock is offset to the wave's dispatch tick.
                let _trace = trace::adopt(trace_request_ctx(req), dispatch_tick);
                let mut collect_span = trace::span_at("collect", dispatch_tick);
                collect_span.arg_u64("budget", job.budget);
                let token = CancelToken::new(job.budget);
                let res = if req.site >= sites.len() {
                    Collected::Panicked(format!(
                        "unknown site index {} (catalog has {})",
                        req.site,
                        sites.len()
                    ))
                } else {
                    match catch_unwind(AssertUnwindSafe(|| {
                        collection.collect_trace_deadline(
                            &sites[req.site],
                            req.seed,
                            &token,
                            &cfg.backoff,
                            attempt_units,
                        )
                    })) {
                        Ok(Ok(Some(trace))) => Collected::Features(collection.featurize(&trace)),
                        Ok(Ok(None)) => Collected::Quarantined,
                        Ok(Err(_)) => Collected::Deadline,
                        Err(payload) => Collected::Panicked(panic_message(payload)),
                    }
                };
                let collect_units = token.used().min(job.budget);
                collect_span.arg_str(
                    "result",
                    match &res {
                        Collected::Features(_) => "features",
                        Collected::Quarantined => "quarantined",
                        Collected::Deadline => "deadline",
                        Collected::Panicked(_) => "panicked",
                    },
                );
                collect_span.finish(dispatch_tick + collect_units);
                CollectOut { pos, idx: job.idx, budget: job.budget, collect_units, token, res }
            });

            // Sequential predict stage, in virtual-completion order so
            // breaker bookkeeping is schedule-independent; consecutive
            // healthy completions in that order share stacked forward
            // passes in groups of up to `batch`.
            outs.sort_by_key(|o| (o.collect_units, o.pos));
            now += self.predict_wave(requests, outs, now, &mut resolved);
        }
        bf_obs::gauge("serve.queue_depth").set(0.0);

        let done: Vec<Resolved> = resolved
            .into_iter()
            .map(|r| r.expect("scheduler resolved every request"))
            .collect(); // alloc-ok: per-run staging (result assembly)
        debug_assert_eq!(done.len(), n);
        done
    }

    /// Resolve a completion whose collect stage produced no features
    /// (deadline, quarantine, contained panic): nothing reaches a model.
    /// Returns the work units charged (they cap the wave's clock
    /// advance).
    fn resolve_collect_failure(
        &mut self,
        requests: &[ServeRequest],
        out: CollectOut,
        now: u64,
        resolved: &mut [Option<Resolved>],
    ) -> u64 {
        let req = requests[out.idx];
        let work = out.work();
        let outcome = match out.res {
            Collected::Deadline => Outcome::Timeout { stage: Stage::Collect },
            Collected::Quarantined => {
                bf_obs::counter("serve.quarantined").inc();
                Outcome::Failed {
                    reason: "collection quarantined: repair/retry budget exhausted".to_owned(),
                }
            }
            Collected::Panicked(msg) => {
                self.tallies
                    .worker_panic(format_args!("collect panic for request {}: {msg}", req.id));
                Outcome::Failed { reason: format!("collection panicked: {msg}") }
            }
            Collected::Features(_) => unreachable!("feature-bearing completions take the group path"),
        };
        resolved[out.idx] = Some(self.resolve_at(&req, outcome, now, work));
        work
    }

    /// The `path` span argument for a predict outcome.
    fn predict_path_label(o: &Outcome) -> &'static str {
        match o {
            Outcome::Prediction { .. } => "primary",
            Outcome::Degraded { tier: Tier::Distilled, .. } => "distilled",
            Outcome::Degraded { tier: Tier::EarlyExit(_), .. } => "primary",
            Outcome::Degraded { .. } => "fallback",
            _ => "none",
        }
    }

    /// The predict-stage faults the fault plan (or the configured slow
    /// storm) injects into request `id`. A pure function of
    /// `(id, config)`, so batch membership is deterministic.
    fn injected(&self, id: u64) -> Injected {
        let plan = &self.collection.faults;
        Injected {
            panic: plan.worker_panic_for(id),
            slow: plan.slow_model_for(id) || self.cfg.in_slow_storm(id),
        }
    }

    /// The predict stage for one wave: walk completions in
    /// virtual-completion order, accumulating consecutive healthy
    /// feature-bearing jobs into a pending micro-batch. The batch
    /// flushes when it reaches `batch` capacity (`full`), when a
    /// fault-flagged or failed-collect job interrupts the run
    /// (`tier_mismatch`), or when the wave ends (`deadline`). The
    /// interrupting job then resolves in order: a fault-flagged one runs
    /// alone as a singleton group, so an injected slow model or panic
    /// charges and fails its own request only, and a failed collect
    /// resolves without reaching a model. Returns the wave's clock
    /// advance.
    fn predict_wave(
        &mut self,
        requests: &[ServeRequest],
        outs: Vec<CollectOut>,
        now: u64,
        resolved: &mut [Option<Resolved>],
    ) -> u64 {
        let batch = self.cfg.batch.max(1);
        let mut advance = 1u64;
        let mut pending: Vec<CollectOut> = Vec::with_capacity(batch); // alloc-ok: per-wave staging
        for out in outs {
            let has_features = matches!(out.res, Collected::Features(_));
            if has_features && !self.injected(requests[out.idx].id).flagged() {
                pending.push(out);
                if pending.len() == batch {
                    let full = std::mem::take(&mut pending);
                    advance = advance.max(self.predict_group(
                        requests,
                        full,
                        now,
                        Some(FlushReason::Full),
                        resolved,
                    ));
                }
                continue;
            }
            if !pending.is_empty() {
                let cut = std::mem::take(&mut pending);
                advance = advance.max(self.predict_group(
                    requests,
                    cut,
                    now,
                    Some(FlushReason::TierMismatch),
                    resolved,
                ));
            }
            advance = advance.max(if has_features {
                self.predict_group(requests, vec![out], now, None, resolved) // alloc-ok: per-request singleton group
            } else {
                self.resolve_collect_failure(requests, out, now, resolved)
            });
        }
        if !pending.is_empty() {
            advance = advance.max(self.predict_group(
                requests,
                pending,
                now,
                Some(FlushReason::Deadline),
                resolved,
            ));
        }
        advance
    }

    /// Run one group of feature-bearing completions through the (ladder
    /// or plain) predict path and resolve every member: exactly one
    /// outcome per member, in completion order, each with a `predict`
    /// span annotated with its group coordinates. `flush` says why a
    /// micro-batch was handed over; it is `None` for a fault-flagged
    /// singleton, which is no micro-batch — it records no `serve.batch.*`
    /// metrics and no `predict_batch` span. Returns the group's clock
    /// advance.
    fn predict_group(
        &mut self,
        requests: &[ServeRequest],
        members: Vec<CollectOut>,
        now: u64,
        flush: Option<FlushReason>,
        resolved: &mut [Option<Resolved>],
    ) -> u64 {
        debug_assert!(!members.is_empty());
        let outcomes = if self.cfg.tiers.ladder {
            self.predict_batch_ladder(requests, &members, now)
        } else {
            self.predict_batch_plain(requests, &members, now)
        };
        debug_assert_eq!(outcomes.len(), members.len());

        let batch_size = members.len() as u64;
        if let Some(reason) = flush {
            bf_obs::counter("serve.batch.assembled").inc();
            bf_obs::counter(reason.counter()).inc();
            bf_obs::histogram("serve.batch.size").record(batch_size as f64);
            // One `predict_batch` span on the leader's (first
            // completion's) timeline covers the shared forward passes.
            let leader = &members[0];
            let _trace = trace::adopt(trace_request_ctx(&requests[leader.idx]), now);
            let mut batch_span = trace::span_at("predict_batch", now + leader.collect_units);
            batch_span.arg_u64("batch_size", batch_size);
            batch_span.arg_str("flush", reason.label());
            batch_span.finish(now + leader.work());
        }

        let mut advance = 1u64;
        for (pos, (out, outcome)) in members.into_iter().zip(outcomes).enumerate() {
            let req = requests[out.idx];
            let work = out.work();
            {
                let _trace = trace::adopt(trace_request_ctx(&req), now);
                let mut predict_span = trace::span_at("predict", now + out.collect_units);
                predict_span.arg_str("path", Self::predict_path_label(&outcome));
                predict_span.arg_u64("batch_size", batch_size);
                predict_span.arg_u64("batch_pos", pos as u64);
                if let Outcome::Prediction { tier, confidence, .. }
                | Outcome::Degraded { tier, confidence, .. } = &outcome
                {
                    predict_span.arg_str("tier", tier.label());
                    predict_span.arg_f64("confidence", *confidence as f64);
                }
                predict_span.finish(now + work);
            }
            advance = advance.max(work);
            resolved[out.idx] = Some(self.resolve_at(&req, outcome, now, work));
        }
        advance
    }

    /// The anytime-ladder predict path: the group climbs the prefix rungs
    /// of the primary together, one [`AnytimeLadder::classify_at_batch`]
    /// stacked forward pass per rung. Each member exits as soon as its
    /// calibrated confidence clears the configured threshold, and falls
    /// *down* the ladder — best early-exit answer, then the distilled
    /// student, then the centroid — when the budget, the breaker, or a
    /// primary failure cuts its climb short.
    ///
    /// Tier-selection rule per member, in order:
    ///
    /// 1. While the breaker (asked at the member's own completion tick)
    ///    allows the primary, climb rungs whose *estimated* incremental
    ///    cost (collection share + prefix inference, from [`TierCosts`],
    ///    undivided) fits the remaining budget. A rung whose calibrated
    ///    confidence ≥ threshold answers as `Prediction` (tier
    ///    `EarlyExit(level)`, or `Full` at 100%); the 100% rung always
    ///    answers.
    /// 2. If the budget stops the climb after at least one successful
    ///    rung, the best rung so far answers as `Degraded` with its
    ///    `EarlyExit` tier — and still counts as a breaker success: the
    ///    primary model *did* answer, just below the confidence bar.
    /// 3. On primary failure (deadline blown by a slow model, contained
    ///    panic) or an open breaker, the distilled student answers on
    ///    the already-paid prefix if it fits the budget; otherwise
    /// 4. the centroid floor answers; otherwise the request times out
    ///    in the predict stage.
    ///
    /// A rung charges each member it admits `ceil(prefix_inference / b)`,
    /// `b` the number of members admitted to it, plus the per-request
    /// collection share `cc4` above rung 0 (never divided). A
    /// fault-flagged request climbs alone (`b = 1`): an injected panic is
    /// contained after rung-0 admission and before any charge, and the
    /// slow-model penalty is added to its rung-0 charge. All decisions
    /// run in the sequential predict stage, so rung choices, breaker
    /// bookkeeping, and cost-estimate updates are bit-identical for a
    /// fixed `(stream, config)` at any thread count.
    fn predict_batch_ladder(
        &mut self,
        requests: &[ServeRequest],
        members: &[CollectOut],
        now: u64,
    ) -> Vec<Outcome> {
        struct Climb {
            outcome: Option<Outcome>,
            /// Best successful rung so far: calibrated probs and level.
            best: Option<(Vec<f32>, u8)>,
            /// Highest prefix level whose collection has been charged
            /// (the collect stage paid for the first rung's share).
            paid_level: u8,
            climbing: bool,
            primary_failed: bool,
            injected: Injected,
        }
        let features: Vec<&[f32]> = members.iter().map(|m| m.features().as_slice()).collect(); // alloc-ok: per-batch staging
        let injected: Vec<Injected> =
            members.iter().map(|m| self.injected(requests[m.idx].id)).collect(); // alloc-ok: per-batch staging
        let Service { tiers, primary, breaker, tier_costs, tallies, cfg, .. } = self;
        let levels = tiers.ladder.levels();
        let n_levels = levels.len();
        let cc4 = (cfg.collect_attempt_units / 4).max(1);
        let first_level = bf_ml::PREFIX_PERCENTS[0];
        let mut st: Vec<Climb> = members
            .iter()
            .zip(injected)
            .map(|(m, injected)| {
                let climbing = breaker.allow_primary(now + m.collect_units);
                if !climbing {
                    bf_obs::counter("serve.breaker_rejections").inc();
                }
                Climb {
                    outcome: None,
                    best: None,
                    paid_level: first_level,
                    climbing,
                    primary_failed: false,
                    injected,
                }
            })
            .collect(); // alloc-ok: per-batch staging

        for (idx, &level) in levels.iter().enumerate() {
            // Admission per member against the single-request estimate,
            // before any charge: an unaffordable rung must not cancel the
            // token — the cheaper tiers below still get a shot. Members
            // that fall out keep their best-so-far answer.
            let mut admitted: Vec<usize> = (0..members.len())
                .filter(|&i| {
                    st[i].climbing && tier_costs.steps[idx] <= members[i].token.remaining()
                })
                .collect(); // alloc-ok: per-batch staging
            for (i, s) in st.iter_mut().enumerate() {
                if s.climbing && !admitted.contains(&i) {
                    s.climbing = false;
                }
            }
            if idx == 0 {
                // An injected panic strikes the first primary call,
                // before anything is charged.
                admitted.retain(|&i| {
                    if !st[i].injected.panic {
                        return true;
                    }
                    st[i].climbing = false;
                    st[i].primary_failed = true;
                    breaker.record_failure(now + members[i].collect_units);
                    tallies.worker_panic(format_args!(
                        "injected worker panic (request {})",
                        requests[members[i].idx].id
                    ));
                    false
                });
            }
            if admitted.is_empty() {
                break;
            }
            let predict_units = ((cfg.primary_units * level as u64) / 100).max(1);
            let shared = predict_units.div_ceil(admitted.len() as u64);
            let mut charged: Vec<(usize, u64)> = Vec::with_capacity(admitted.len()); // alloc-ok: per-batch staging
            for &i in &admitted {
                let own = if idx > 0 {
                    cc4
                } else if st[i].injected.slow {
                    cfg.slow_penalty_units
                } else {
                    0
                };
                let cost = own + shared;
                if members[i].token.charge(cost).is_ok() {
                    charged.push((i, cost));
                } else {
                    // Mid-climb deadline: this member's climb ends in a
                    // primary failure.
                    st[i].climbing = false;
                    st[i].primary_failed = true;
                    breaker.record_failure(now + members[i].collect_units);
                    bf_obs::counter("serve.primary_timeouts").inc();
                }
            }
            if charged.is_empty() {
                continue;
            }
            let rows: Vec<&[f32]> = charged.iter().map(|&(i, _)| features[i]).collect(); // alloc-ok: per-batch staging
            let ladder = &tiers.ladder;
            let attempt =
                catch_unwind(AssertUnwindSafe(|| ladder.classify_at_batch(&mut **primary, &rows, idx)));
            match attempt {
                Ok(results) => {
                    debug_assert_eq!(results.len(), charged.len());
                    for (&(i, cost), (probs, confidence)) in charged.iter().zip(results) {
                        tier_costs.observe_step(idx, cost);
                        if idx > 0 {
                            st[i].paid_level = level;
                        }
                        let cleared = confidence as f64 >= cfg.tiers.confidence_threshold;
                        if cleared || idx == n_levels - 1 {
                            breaker.record_success(now + members[i].collect_units);
                            let tier =
                                if level >= 100 { Tier::Full } else { Tier::EarlyExit(level) };
                            st[i].outcome = Some(answer(probs, tier, true));
                            st[i].climbing = false;
                        } else {
                            st[i].best = Some((probs, level));
                        }
                    }
                }
                Err(payload) => {
                    // A primary panic fails every member that charged
                    // this rung; each falls down its own ladder below.
                    tallies.worker_panic(format_args!(
                        "batched predict panic: {}",
                        panic_message(payload)
                    ));
                    for &(i, _) in &charged {
                        breaker.record_failure(now + members[i].collect_units);
                        st[i].climbing = false;
                        st[i].primary_failed = true;
                    }
                }
            }
        }

        // Settle the stragglers in completion order: budget-stopped
        // climbs answer with their best rung (a breaker success — the
        // primary did infer), everything else falls down to the
        // distilled/centroid tiers.
        let mut outcomes = Vec::with_capacity(members.len()); // alloc-ok: per-batch result rows
        for (i, m) in members.iter().enumerate() {
            let s = &mut st[i];
            let outcome = match (s.outcome.take(), s.primary_failed, s.best.take()) {
                (Some(o), _, _) => o,
                (None, false, Some((probs, level))) => {
                    self.breaker.record_success(now + m.collect_units);
                    answer(probs, Tier::EarlyExit(level), false)
                }
                _ => {
                    let paid = s.paid_level;
                    self.ladder_fall_down(features[i], &m.token, paid)
                }
            };
            outcomes.push(outcome);
        }
        outcomes
    }

    /// The plain (non-ladder) predict path: every member the breaker
    /// admits charges `ceil(primary_units / b)`, `b` the number of
    /// admitted members, and the group shares one stacked full-trace
    /// forward pass; a member the breaker rejects, or whose primary
    /// charge or call fails, falls back to the centroid. A fault-flagged
    /// request runs alone (`b = 1`): an injected panic is contained
    /// after admission and before any charge, and the slow-model
    /// penalty is added to its primary charge.
    fn predict_batch_plain(
        &mut self,
        requests: &[ServeRequest],
        members: &[CollectOut],
        now: u64,
    ) -> Vec<Outcome> {
        let injected: Vec<Injected> =
            members.iter().map(|m| self.injected(requests[m.idx].id)).collect(); // alloc-ok: per-batch staging
        let mut outcomes: Vec<Option<Outcome>> = (0..members.len()).map(|_| None).collect(); // alloc-ok: per-batch staging
        let Service { primary, breaker, tallies, cfg, .. } = self;
        let mut allowed: Vec<usize> = members
            .iter()
            .enumerate()
            .filter_map(|(i, m)| {
                if breaker.allow_primary(now + m.collect_units) {
                    Some(i)
                } else {
                    bf_obs::counter("serve.breaker_rejections").inc();
                    None
                }
            })
            .collect(); // alloc-ok: per-batch staging
        allowed.retain(|&i| {
            if !injected[i].panic {
                return true;
            }
            breaker.record_failure(now + members[i].collect_units);
            tallies.worker_panic(format_args!(
                "injected worker panic (request {})",
                requests[members[i].idx].id
            ));
            false
        });
        if !allowed.is_empty() {
            let shared = cfg.primary_units.div_ceil(allowed.len() as u64);
            let mut charged: Vec<usize> = Vec::with_capacity(allowed.len()); // alloc-ok: per-batch staging
            for &i in &allowed {
                let slow = if injected[i].slow { cfg.slow_penalty_units } else { 0 };
                if members[i].token.charge(shared + slow).is_ok() {
                    charged.push(i);
                } else {
                    breaker.record_failure(now + members[i].collect_units);
                    bf_obs::counter("serve.primary_timeouts").inc();
                }
            }
            if !charged.is_empty() {
                let rows: Vec<Vec<f32>> =
                    charged.iter().map(|&i| members[i].features().clone()).collect(); // alloc-ok: per-batch staging (trait API takes owned rows)
                let attempt = catch_unwind(AssertUnwindSafe(|| primary.predict_proba(&rows)));
                match attempt {
                    Ok(results) => {
                        debug_assert_eq!(results.len(), charged.len());
                        for (&i, probs) in charged.iter().zip(results) {
                            breaker.record_success(now + members[i].collect_units);
                            outcomes[i] = Some(answer(probs, Tier::Full, true));
                        }
                    }
                    Err(payload) => {
                        tallies.worker_panic(format_args!(
                            "batched predict panic: {}",
                            panic_message(payload)
                        ));
                        for &i in &charged {
                            breaker.record_failure(now + members[i].collect_units);
                        }
                    }
                }
            }
        }
        members
            .iter()
            .zip(outcomes)
            .map(|(m, outcome)| {
                outcome.unwrap_or_else(|| {
                    // The centroid gets its own small charge; a sticky
                    // token (the primary blew the whole budget) fails
                    // here as a predict-stage timeout.
                    if m.token.charge(self.cfg.fallback_units).is_err() {
                        return Outcome::Timeout { stage: Stage::Predict };
                    }
                    self.centroid_floor(std::slice::from_ref(m.features()), &m.token)
                })
            })
            .collect() // alloc-ok: per-batch result rows
    }

    /// The centroid floor on `input`, its charge already paid: a
    /// degraded answer, or a predict-stage timeout when the token is
    /// exhausted.
    fn centroid_floor(&mut self, input: &[Vec<f32>], token: &CancelToken) -> Outcome {
        match self.fallback.predict_proba_deadline(input, token) {
            Ok(mut probs) => answer(probs.pop().unwrap_or_default(), Tier::Centroid, false),
            Err(_) => Outcome::Timeout { stage: Stage::Predict },
        }
    }

    /// Per-tier outcome counter plus a confidence histogram, keyed by
    /// the tier's stable label.
    fn tier_metrics(tier: Tier, confidence: f32) {
        bf_obs::counter(match tier {
            Tier::Full => "serve.tier.full",
            Tier::EarlyExit(25) => "serve.tier.early_exit_25",
            Tier::EarlyExit(50) => "serve.tier.early_exit_50",
            Tier::EarlyExit(75) => "serve.tier.early_exit_75",
            Tier::EarlyExit(_) => "serve.tier.early_exit",
            Tier::Distilled => "serve.tier.distilled",
            Tier::Centroid => "serve.tier.centroid",
        })
        .inc();
        bf_obs::histogram("serve.confidence").record(confidence as f64);
    }

    /// Fall *down* the ladder after a failed or rejected climb. The
    /// distilled student answers on the prefix whose collection has
    /// actually been charged (`paid_level`), then the centroid floor,
    /// then an explicit predict-stage timeout.
    fn ladder_fall_down(
        &mut self,
        features: &[f32],
        token: &CancelToken,
        paid_level: u8,
    ) -> Outcome {
        let prefix = bf_ml::prefix_features(features, paid_level);
        if let Some(distilled) = self.tiers.distilled.as_mut() {
            if self.tier_costs.distilled <= token.remaining()
                && token.charge(self.cfg.tiers.distilled_units).is_ok()
            {
                let mut probs = distilled
                    .predict_proba_prefix(std::slice::from_ref(&prefix))
                    .pop()
                    .unwrap_or_default();
                self.tiers.distilled_calibration.apply_in_place(&mut probs);
                self.tier_costs.observe_distilled(self.cfg.tiers.distilled_units);
                return answer(probs, Tier::Distilled, false);
            }
        }

        // Centroid floor, on the same paid prefix (its distance
        // computation truncates naturally).
        if self.tier_costs.centroid > token.remaining()
            || token.charge(self.cfg.fallback_units).is_err()
        {
            return Outcome::Timeout { stage: Stage::Predict };
        }
        self.centroid_floor(std::slice::from_ref(&prefix), token)
    }

    /// Build the `Resolved` record for a job dispatched at `started`
    /// that charged `work` units. Every terminal outcome is tallied
    /// here and only here: the health tallies, the `serve.*` outcome
    /// counters, the per-tier metrics of answers, and the latency
    /// histograms.
    fn resolve_at(
        &mut self,
        req: &ServeRequest,
        outcome: Outcome,
        started: u64,
        work: u64,
    ) -> Resolved {
        match &outcome {
            Outcome::Prediction { tier, confidence, .. } => {
                self.tallies.predictions += 1;
                bf_obs::counter("serve.predictions").inc();
                Self::tier_metrics(*tier, *confidence);
            }
            Outcome::Degraded { tier, confidence, .. } => {
                self.tallies.degraded += 1;
                bf_obs::counter("serve.degraded").inc();
                Self::tier_metrics(*tier, *confidence);
            }
            Outcome::Shed => {
                self.tallies.shed += 1;
                bf_obs::counter("serve.shed").inc();
            }
            Outcome::Timeout { stage } => {
                self.tallies.timeouts += 1;
                bf_obs::counter("serve.timeouts").inc();
                bf_obs::counter(match stage {
                    Stage::Queue => "serve.timeouts.queue",
                    Stage::Collect => "serve.timeouts.collect",
                    Stage::Predict => "serve.timeouts.predict",
                })
                .inc();
            }
            Outcome::Failed { .. } => {
                self.tallies.failed += 1;
                bf_obs::counter("serve.failed").inc();
            }
            Outcome::ShardDown => {
                self.tallies.shard_down += 1;
                bf_obs::counter("serve.shard_down").inc();
            }
        }
        let queue_units = started.saturating_sub(req.arrival);
        // Tail latencies carry the trace ID as an exemplar, so a p99
        // manifest entry links straight to its timeline (re-runnable at
        // the same seed with BF_TRACE=1 even if tracing was off now).
        let exemplar_id = trace::trace_id_for(req.seed, req.id);
        bf_obs::histogram("serve.units.queue").record(queue_units as f64);
        bf_obs::histogram("serve.units.work").record(work as f64);
        bf_obs::histogram("serve.units.total")
            .record_exemplar((queue_units + work) as f64, exemplar_id);

        // Mint the request's top-level span; collect/predict spans
        // recorded by the workers parent under it by construction.
        if let Some(root) = trace_root(req) {
            let _trace = trace::adopt(Some(root), 0);
            let mut request_span = trace::span_at("request", req.arrival);
            request_span
                .arg_u64("request_id", req.id)
                .arg_u64("site", req.site as u64)
                .arg_str("outcome", outcome_label(&outcome));
            if let Some(shard) = self.shard_label {
                request_span.arg_u64("shard", shard as u64);
            }
            trace::leaf_at("queue", req.arrival, queue_units);
            request_span.finish(started + work);
        }
        Resolved {
            id: req.id,
            site: req.site,
            outcome,
            arrival: req.arrival,
            started,
            completed: started + work,
            queue_units,
            work_units: work,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::open_loop_arrivals;
    use bf_core::collect::{AttackKind, CollectionConfig};
    use bf_core::scale::ExperimentScale;
    use bf_fault::FaultPlan;
    use bf_ml::Dataset;
    use bf_timer::BrowserKind;
    use bf_victim::Catalog;

    /// Serializes tests that override the global thread count.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    const N_SITES: usize = 3;

    fn collection(plan: FaultPlan) -> CollectionConfig {
        CollectionConfig::new(BrowserKind::Chrome, AttackKind::LoopCounting)
            .with_scale(ExperimentScale::Smoke)
            .with_faults(plan)
    }

    /// Collect a tiny clean training set and fit a centroid on it.
    fn fitted_centroid(sites: &[WebsiteProfile]) -> CentroidClassifier {
        let clean = collection(FaultPlan::off());
        let mut data = Dataset::new(sites.len());
        for (label, site) in sites.iter().enumerate() {
            for rep in 0..2u64 {
                let trace = clean.collect_trace(site, 1000 + rep * 31 + label as u64);
                data.push(clean.featurize(&trace), label);
            }
        }
        let mut c = CentroidClassifier::new(sites.len());
        c.fit(&data, &Dataset::new(sites.len()));
        c
    }

    fn service(plan: FaultPlan, cfg: ServeConfig) -> Service {
        let sites = Catalog::closed_world_subset(N_SITES).sites().to_vec();
        let model = fitted_centroid(&sites);
        Service::new(collection(plan), sites, Box::new(model.clone()), model, cfg)
    }

    fn with_one_thread<R>(f: impl FnOnce() -> R) -> R {
        let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        bf_par::set_threads(Some(1));
        let out = f();
        bf_par::set_threads(None);
        out
    }

    #[test]
    fn clean_stream_resolves_every_request_identically_across_runs() {
        // Every run bumps the shared batch counters other tests read.
        let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        let reqs = open_loop_arrivals(8, N_SITES, 200.0, 7);
        let run = || {
            let mut s = service(FaultPlan::off(), ServeConfig::default());
            let out = s.run(&reqs);
            (out, s.health())
        };
        let ((a, ha), (b, hb)) = (run(), run());
        assert_eq!(a, b, "outcomes must replay bit-identically");
        assert_eq!(ha, hb);
        assert_eq!(ha.submitted, 8);
        assert_eq!(ha.resolved(), 8, "every request reaches a terminal outcome");
        assert_eq!(ha.predictions, 8, "clean stream is all primary predictions");
        assert!(ha.ready);
        for (r, q) in a.iter().zip(&reqs) {
            assert_eq!(r.id, q.id, "results are in input order");
            assert_eq!(r.work_units, 150, "one collect attempt + one primary predict");
        }
    }

    #[test]
    fn burst_beyond_queue_capacity_sheds_exactly_the_excess() {
        let cfg = ServeConfig { queue_cap: 4, ..ServeConfig::default() };
        let reqs = open_loop_arrivals(9, N_SITES, 0.0, 3); // burst at tick 0
        let out = with_one_thread(|| service(FaultPlan::off(), cfg).run(&reqs));
        let shed: Vec<u64> =
            out.iter().filter(|r| r.outcome == Outcome::Shed).map(|r| r.id).collect();
        assert_eq!(shed, vec![4, 5, 6, 7, 8], "arrivals past the cap shed in order");
        assert_eq!(out.iter().filter(|r| matches!(r.outcome, Outcome::Prediction { .. })).count(), 4);
    }

    #[test]
    fn tight_deadline_times_out_in_the_right_stage() {
        // 99 units cannot fit one 100-unit collect attempt.
        let cfg = ServeConfig { deadline_units: 99, ..ServeConfig::default() };
        let reqs = open_loop_arrivals(2, N_SITES, 500.0, 5);
        let out = with_one_thread(|| service(FaultPlan::off(), cfg).run(&reqs));
        for r in &out {
            assert_eq!(r.outcome, Outcome::Timeout { stage: Stage::Collect });
            assert_eq!(r.work_units, 99, "budget fully consumed, never exceeded");
        }
        // 120 units fit the collect but not the 50-unit primary; the
        // sticky token then also rejects the fallback: predict timeout.
        let cfg = ServeConfig { deadline_units: 120, ..ServeConfig::default() };
        let out = with_one_thread(|| service(FaultPlan::off(), cfg).run(&reqs));
        for r in &out {
            assert_eq!(r.outcome, Outcome::Timeout { stage: Stage::Predict });
        }
    }

    #[test]
    fn queued_requests_past_their_deadline_time_out_in_queue() {
        // One worker, burst of 6, deadline fits barely one wave of work:
        // later queue entries expire before dispatch.
        let cfg = ServeConfig { deadline_units: 200, ..ServeConfig::default() };
        let reqs = open_loop_arrivals(6, N_SITES, 0.0, 11);
        let out = with_one_thread(|| service(FaultPlan::off(), cfg).run(&reqs));
        let queue_timeouts = out
            .iter()
            .filter(|r| r.outcome == Outcome::Timeout { stage: Stage::Queue })
            .count();
        let timeouts =
            out.iter().filter(|r| matches!(r.outcome, Outcome::Timeout { .. })).count();
        let ok = out.iter().filter(|r| matches!(r.outcome, Outcome::Prediction { .. })).count();
        assert!(queue_timeouts >= 3, "got {queue_timeouts} queue timeouts");
        assert!(ok >= 1, "the first dispatched request should finish in time");
        assert_eq!(timeouts + ok, 6, "exactly one terminal outcome each");
    }

    #[test]
    fn slow_storm_opens_breaker_degrades_then_recovers() {
        // Requests 0..6 hit a 10_000-unit slow penalty: each blows its
        // own deadline (primary timeout), opening the breaker after 5.
        // While open, requests degrade to the centroid. After the
        // cooldown, probes succeed and the breaker closes again.
        let cfg = ServeConfig {
            slow_storm: Some((0, 6)),
            breaker: crate::BreakerConfig { open_after: 5, cooldown_units: 2_000, close_after: 2 },
            ..ServeConfig::default()
        };
        let reqs = open_loop_arrivals(24, N_SITES, 400.0, 13);
        let (out, transitions, health) = with_one_thread(|| {
            let mut s = service(FaultPlan::off(), cfg);
            let out = s.run(&reqs);
            (out, s.breaker().transitions().to_vec(), s.health())
        });
        let labels: Vec<&str> = transitions.iter().map(|t| t.to.label()).collect();
        assert!(
            labels.starts_with(&["open", "half_open", "closed"]),
            "expected a full breaker cycle, got {labels:?}"
        );
        assert!(health.degraded > 0, "open breaker must degrade, not drop");
        assert!(health.timeouts >= 5, "slow storm requests time out explicitly");
        assert_eq!(health.resolved(), 24);
        assert!(
            matches!(out.last().unwrap().outcome, Outcome::Prediction { .. }),
            "recovered service answers on the primary path again"
        );
    }

    #[test]
    fn degraded_predictions_match_the_standalone_centroid() {
        // Breaker thresholds of 1 force: first request opens the
        // breaker (slow), the rest degrade while it cools down.
        let cfg = ServeConfig {
            slow_storm: Some((0, 1)),
            breaker: crate::BreakerConfig {
                open_after: 1,
                cooldown_units: 1_000_000,
                close_after: 1,
            },
            ..ServeConfig::default()
        };
        // Explicit, widely spaced arrivals: no queueing, so every
        // request reaches predict with a full budget.
        let reqs: Vec<ServeRequest> = (0..4u64)
            .map(|i| ServeRequest {
                id: i,
                site: (i as usize) % N_SITES,
                seed: 900 + i,
                arrival: i * 20_000,
            })
            .collect();
        let (out, mut standalone, collectioncfg) = with_one_thread(|| {
            let mut s = service(FaultPlan::off(), cfg);
            let out = s.run(&reqs);
            let sites = Catalog::closed_world_subset(N_SITES).sites().to_vec();
            (out, fitted_centroid(&sites), collection(FaultPlan::off()))
        });
        for (r, q) in out.iter().zip(&reqs).skip(1) {
            let Outcome::Degraded { class, probs, .. } = &r.outcome else {
                panic!("expected degraded outcome, got {:?}", r.outcome);
            };
            let trace = collectioncfg.collect_trace_resilient(
                &Catalog::closed_world_subset(N_SITES).sites()[q.site],
                q.seed,
            );
            let features = collectioncfg.featurize(&trace.expect("clean trace"));
            let want = standalone.predict_proba(&[features]).remove(0);
            let got: Vec<u32> = probs.iter().map(|v| v.to_bits()).collect();
            let exp: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, exp, "degraded output must be bit-identical to the centroid");
            assert_eq!(*class, argmax(&want));
        }
    }

    #[test]
    fn worker_panics_are_contained_and_degrade() {
        let plan = FaultPlan { seed: 5, worker_panic: 1.0, ..FaultPlan::off() };
        let reqs = open_loop_arrivals(3, N_SITES, 400.0, 19);
        let (out, health) = with_one_thread(|| {
            let mut s = service(plan, ServeConfig::default());
            let out = s.run(&reqs);
            (out, s.health())
        });
        assert_eq!(health.worker_panics, 3, "every request's primary panicked");
        assert_eq!(health.resolved(), 3);
        for r in &out {
            assert!(
                matches!(r.outcome, Outcome::Degraded { .. }),
                "a contained panic should degrade, got {:?}",
                r.outcome
            );
        }
    }

    #[test]
    fn quarantined_collection_is_an_explicit_failure() {
        // drop faults always trigger quarantine after the recollect
        // budget, never a hang or a timeout.
        let plan = FaultPlan { seed: 9, drop: 1.0, ..FaultPlan::off() };
        let cfg = ServeConfig { deadline_units: 100_000, ..ServeConfig::default() };
        let reqs = open_loop_arrivals(2, N_SITES, 400.0, 23);
        let out = with_one_thread(|| service(plan, cfg).run(&reqs));
        for r in &out {
            assert!(
                matches!(&r.outcome, Outcome::Failed { reason } if reason.contains("quarantined")),
                "got {:?}",
                r.outcome
            );
        }
    }

    /// A fixed-output primary/distilled stand-in for tier-routing tests.
    #[derive(Debug, Clone)]
    struct ConstClassifier {
        probs: Vec<f32>,
    }

    impl Classifier for ConstClassifier {
        fn fit(&mut self, _train: &Dataset, _val: &Dataset) {}
        fn predict_proba(&mut self, traces: &[Vec<f32>]) -> Vec<Vec<f32>> {
            traces.iter().map(|_| self.probs.clone()).collect()
        }
        fn n_classes(&self) -> usize {
            self.probs.len()
        }
    }

    fn ladder_cfg(threshold: f64) -> ServeConfig {
        ServeConfig {
            tiers: crate::TierConfig {
                ladder: true,
                confidence_threshold: threshold,
                distilled_units: 15,
            },
            ..ServeConfig::default()
        }
    }

    #[test]
    fn ladder_exits_at_the_first_rung_when_the_bar_is_low() {
        let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        // Threshold 0: every successful first rung answers. One collect
        // quarter (25u) plus the 25% prefix inference (12u) is all a
        // request costs — versus 150u on the legacy path.
        let reqs = open_loop_arrivals(6, N_SITES, 5_000.0, 7);
        let run = || {
            let mut s = service(FaultPlan::off(), ladder_cfg(0.0));
            let out = s.run(&reqs);
            (out, s.health())
        };
        let ((a, ha), (b, hb)) = (run(), run());
        assert_eq!(a, b, "ladder outcomes must replay bit-identically");
        assert_eq!(ha, hb);
        assert_eq!(ha.predictions, 6);
        for r in &a {
            let Outcome::Prediction { tier, confidence, .. } = &r.outcome else {
                panic!("expected an early-exit prediction, got {:?}", r.outcome);
            };
            assert_eq!(*tier, Tier::EarlyExit(25));
            assert!(*confidence > 0.0);
            assert_eq!(r.work_units, 37, "quarter collect (25) + quarter inference (12)");
        }
    }

    #[test]
    fn ladder_climbs_to_full_when_the_bar_is_unreachable() {
        // Threshold 2.0 can never be cleared: the climb visits every
        // rung and the full-trace rung answers anyway.
        let reqs = open_loop_arrivals(3, N_SITES, 5_000.0, 9);
        let out = with_one_thread(|| service(FaultPlan::off(), ladder_cfg(2.0)).run(&reqs));
        for r in &out {
            let Outcome::Prediction { tier, .. } = &r.outcome else {
                panic!("expected a full prediction, got {:?}", r.outcome);
            };
            assert_eq!(*tier, Tier::Full);
            // collect 25 + rungs 12 + (25+25) + (25+37) + (25+50).
            assert_eq!(r.work_units, 224, "incremental collection charged per rung");
        }
    }

    #[test]
    fn ladder_budget_cutoff_degrades_to_best_rung_without_tripping_the_breaker() {
        // Deadline 100: collect (25) + rung 25% (12) + rung 50% (50)
        // fit, the 75% rung's estimated 62 does not. The most-informed
        // successful rung answers as Degraded and the breaker records a
        // *success* — the primary did infer.
        let cfg = ServeConfig { deadline_units: 100, ..ladder_cfg(2.0) };
        let reqs = open_loop_arrivals(4, N_SITES, 5_000.0, 11);
        let (out, health, transitions) = with_one_thread(|| {
            let mut s = service(FaultPlan::off(), cfg);
            let out = s.run(&reqs);
            (out, s.health(), s.breaker().transitions().len())
        });
        assert_eq!(health.degraded, 4);
        assert_eq!(transitions, 0, "budget cutoffs are successes, not breaker failures");
        for r in &out {
            let Outcome::Degraded { tier, .. } = &r.outcome else {
                panic!("expected a budget-cutoff degrade, got {:?}", r.outcome);
            };
            assert_eq!(*tier, Tier::EarlyExit(50));
            assert_eq!(r.work_units, 87, "only the affordable rungs were charged");
        }
    }

    #[test]
    fn open_breaker_falls_to_distilled_then_centroid_tiers() {
        // Request 0 hits a slow primary and blows its budget, opening
        // the breaker (open_after 1); the cooldown outlives the run.
        let cfg = ServeConfig {
            slow_storm: Some((0, 1)),
            breaker: crate::BreakerConfig {
                open_after: 1,
                cooldown_units: 1_000_000,
                close_after: 1,
            },
            ..ladder_cfg(0.0)
        };
        let reqs: Vec<ServeRequest> = (0..3u64)
            .map(|i| ServeRequest { id: i, site: (i as usize) % N_SITES, seed: 40 + i, arrival: i * 20_000 })
            .collect();
        // With a distilled student attached, open-breaker requests land
        // on the distilled tier (its calibration applied).
        let distilled_probs = vec![0.1f32, 0.7, 0.2];
        let (with_student, without_student) = with_one_thread(|| {
            let sites = Catalog::closed_world_subset(N_SITES).sites().to_vec();
            let model = fitted_centroid(&sites);
            let mut s = Service::new(
                collection(FaultPlan::off()),
                sites.clone(),
                Box::new(model.clone()),
                model.clone(),
                cfg.clone(),
            )
            .with_tiers(TierModels {
                ladder: bf_ml::AnytimeLadder::identity(),
                distilled: Some(Box::new(ConstClassifier { probs: distilled_probs.clone() })),
                distilled_calibration: bf_ml::Calibration::with_temperature(2.0),
            });
            let with_student = s.run(&reqs);
            let mut plain = Service::new(
                collection(FaultPlan::off()),
                sites,
                Box::new(model.clone()),
                model,
                cfg.clone(),
            );
            (with_student, plain.run(&reqs))
        });
        assert!(
            matches!(with_student[0].outcome, Outcome::Timeout { stage: Stage::Predict }),
            "slow request blows its whole budget, got {:?}",
            with_student[0].outcome
        );
        for r in &with_student[1..] {
            let Outcome::Degraded { tier, probs, .. } = &r.outcome else {
                panic!("expected a distilled degrade, got {:?}", r.outcome);
            };
            assert_eq!(*tier, Tier::Distilled);
            let mut want = distilled_probs.clone();
            bf_ml::Calibration::with_temperature(2.0).apply_in_place(&mut want);
            let got: Vec<u32> = probs.iter().map(|v| v.to_bits()).collect();
            let exp: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, exp, "distilled probs must be calibrated");
        }
        // Without a student, the same requests land on the centroid.
        for r in &without_student[1..] {
            let Outcome::Degraded { tier, .. } = &r.outcome else {
                panic!("expected a centroid degrade, got {:?}", r.outcome);
            };
            assert_eq!(*tier, Tier::Centroid);
        }
    }

    #[test]
    fn reconfigure_swaps_tuning_and_resets_state() {
        let reqs = open_loop_arrivals(3, N_SITES, 5_000.0, 21);
        let (legacy, laddered) = with_one_thread(|| {
            let mut s = service(FaultPlan::off(), ServeConfig::default());
            let legacy = s.run(&reqs);
            s.reconfigure(ladder_cfg(0.0));
            (legacy, s.run(&reqs))
        });
        assert!(legacy.iter().all(|r| r.work_units == 150));
        assert!(laddered.iter().all(|r| r.work_units == 37));
    }

    #[test]
    fn batched_ladder_wave_shares_the_rung_charge_and_matches_single_bits() {
        // Eight simultaneous arrivals, one thread, batch capacity 8: the
        // whole wave climbs as one micro-batch. Rung-0 inference (12u)
        // splits eight ways (ceil -> 2u each), so a request costs
        // collect 25 + 2 = 27 instead of the solo 37 — and the probs it
        // answers with are bit-identical to its solo run.
        let reqs = open_loop_arrivals(8, N_SITES, 0.0, 7);
        let cfg = ServeConfig { batch: 8, ..ladder_cfg(0.0) };
        let (batched, assembled, full_flushes) = with_one_thread(|| {
            let a0 = bf_obs::counter("serve.batch.assembled").get();
            let f0 = bf_obs::counter("serve.batch.flushed.full").get();
            let out = service(FaultPlan::off(), cfg).run(&reqs);
            (
                out,
                bf_obs::counter("serve.batch.assembled").get() - a0,
                bf_obs::counter("serve.batch.flushed.full").get() - f0,
            )
        });
        let solo = with_one_thread(|| service(FaultPlan::off(), ladder_cfg(0.0)).run(&reqs));
        assert_eq!(assembled, 1, "one full wave, one micro-batch");
        assert_eq!(full_flushes, 1);
        for (b, s) in batched.iter().zip(&solo) {
            assert_eq!(b.id, s.id);
            assert_eq!(b.work_units, 27, "quarter collect (25) + shared inference (2)");
            let (Outcome::Prediction { probs: bp, tier: bt, .. },
                 Outcome::Prediction { probs: sp, tier: st, .. }) = (&b.outcome, &s.outcome)
            else {
                panic!("expected predictions, got {:?} / {:?}", b.outcome, s.outcome);
            };
            assert_eq!(bt, st);
            let (bb, sb): (Vec<u32>, Vec<u32>) = (
                bp.iter().map(|v| v.to_bits()).collect(),
                sp.iter().map(|v| v.to_bits()).collect(),
            );
            assert_eq!(bb, sb, "batched probs must be bit-identical to the solo run");
        }
    }

    #[test]
    fn batched_plain_wave_shares_the_primary_charge() {
        // Non-ladder path: the full 50-unit primary splits eight ways
        // (ceil -> 7u), so a request costs collect 100 + 7 = 107 instead
        // of the legacy 150, with bit-identical probs.
        // A generous deadline keeps the solo (batch 1) run from
        // expiring the back of the burst while its waves serialize.
        let reqs = open_loop_arrivals(8, N_SITES, 0.0, 7);
        let cfg = ServeConfig { batch: 8, deadline_units: 10_000, ..ServeConfig::default() };
        let solo_cfg = ServeConfig { deadline_units: 10_000, ..ServeConfig::default() };
        let batched = with_one_thread(|| service(FaultPlan::off(), cfg).run(&reqs));
        let solo = with_one_thread(|| service(FaultPlan::off(), solo_cfg).run(&reqs));
        for (b, s) in batched.iter().zip(&solo) {
            assert_eq!(b.work_units, 107, "full collect (100) + shared primary (7)");
            let (Outcome::Prediction { probs: bp, tier: Tier::Full, .. },
                 Outcome::Prediction { probs: sp, tier: Tier::Full, .. }) =
                (&b.outcome, &s.outcome)
            else {
                panic!("expected full predictions, got {:?} / {:?}", b.outcome, s.outcome);
            };
            let (bb, sb): (Vec<u32>, Vec<u32>) = (
                bp.iter().map(|v| v.to_bits()).collect(),
                sp.iter().map(|v| v.to_bits()).collect(),
            );
            assert_eq!(bb, sb);
        }
    }

    #[test]
    fn a_batch_of_one_charges_exactly_the_legacy_cost() {
        // Widely spaced arrivals never co-occupy a wave, so every
        // micro-batch holds one member and ceil(cost / 1) degenerates to
        // the undivided cost: 25 + 12, at batch capacity 8 or 1 alike.
        let reqs: Vec<ServeRequest> = (0..4u64)
            .map(|i| ServeRequest { id: i, site: (i as usize) % N_SITES, seed: 60 + i, arrival: i * 20_000 })
            .collect();
        let cfg = ServeConfig { batch: 8, ..ladder_cfg(0.0) };
        let (out, deadline_flushes) = with_one_thread(|| {
            let d0 = bf_obs::counter("serve.batch.flushed.deadline").get();
            let out = service(FaultPlan::off(), cfg).run(&reqs);
            (out, bf_obs::counter("serve.batch.flushed.deadline").get() - d0)
        });
        assert_eq!(deadline_flushes, 4, "each singleton wave flushes at wave end");
        for r in &out {
            assert_eq!(r.work_units, 37, "a batch of one costs the legacy 25 + 12");
        }
        // At capacity 1 every request is a full batch of one.
        let (solo, full_flushes) = with_one_thread(|| {
            let f0 = bf_obs::counter("serve.batch.flushed.full").get();
            let out = service(FaultPlan::off(), ladder_cfg(0.0)).run(&reqs);
            (out, bf_obs::counter("serve.batch.flushed.full").get() - f0)
        });
        assert_eq!(full_flushes, 4, "batch 1 serves every request as a full singleton");
        assert_eq!(solo, out, "capacity 1 and capacity 8 agree on singleton waves");
    }

    #[test]
    fn fault_flagged_requests_flush_the_batch_and_keep_their_own_path() {
        // Five simultaneous arrivals; request 2 sits in a slow storm.
        // The batcher flushes {0,1} (tier_mismatch), runs 2 alone as an
        // uncounted singleton group where the slow penalty blows its own
        // budget only, then batches {3,4} at the wave deadline.
        let cfg = ServeConfig { batch: 8, slow_storm: Some((2, 3)), ..ladder_cfg(0.0) };
        let reqs = open_loop_arrivals(5, N_SITES, 0.0, 7);
        let (out, mismatch_flushes, deadline_flushes, assembled) = with_one_thread(|| {
            let m0 = bf_obs::counter("serve.batch.flushed.tier_mismatch").get();
            let d0 = bf_obs::counter("serve.batch.flushed.deadline").get();
            let a0 = bf_obs::counter("serve.batch.assembled").get();
            let out = service(FaultPlan::off(), cfg).run(&reqs);
            (
                out,
                bf_obs::counter("serve.batch.flushed.tier_mismatch").get() - m0,
                bf_obs::counter("serve.batch.flushed.deadline").get() - d0,
                bf_obs::counter("serve.batch.assembled").get() - a0,
            )
        });
        assert_eq!(mismatch_flushes, 1, "the flagged request interrupts one batch");
        assert_eq!(deadline_flushes, 1, "the tail pair flushes at wave end");
        assert_eq!(assembled, 2, "the flagged singleton is not a micro-batch");
        assert_eq!(
            out[2].outcome,
            Outcome::Timeout { stage: Stage::Predict },
            "the slow request pays its penalty alone"
        );
        for r in [&out[0], &out[1], &out[3], &out[4]] {
            assert!(
                matches!(r.outcome, Outcome::Prediction { .. }),
                "healthy batch members answer normally, got {:?}",
                r.outcome
            );
            assert_eq!(r.work_units, 31, "quarter collect (25) + pair-shared inference (6)");
        }
    }

    #[test]
    fn unknown_site_index_fails_explicitly() {
        let reqs =
            [ServeRequest { id: 0, site: N_SITES + 10, seed: 1, arrival: 0 }];
        let out = with_one_thread(|| service(FaultPlan::off(), ServeConfig::default()).run(&reqs));
        assert!(
            matches!(&out[0].outcome, Outcome::Failed { reason } if reason.contains("unknown site")),
            "got {:?}",
            out[0].outcome
        );
    }

    #[test]
    fn down_at_is_a_half_open_interval_lookup() {
        let windows = [(100u64, 200u64), (500, 600)];
        assert!(!down_at(&windows, 99));
        assert!(down_at(&windows, 100));
        assert!(down_at(&windows, 199));
        assert!(!down_at(&windows, 200));
        assert!(down_at(&windows, 550));
        assert!(!down_at(&windows, 600));
        assert!(!down_at(&[], 0));
    }

    #[test]
    fn crash_drains_queue_and_arrivals_in_window_bounce() {
        // Clean request work is 150 units; three requests land before the
        // crash at tick 200 but only the first wave (one request at a
        // single thread, batch 1) dispatches before it. One more arrives
        // mid-window and one after the restart.
        let reqs: Vec<ServeRequest> = [0u64, 10, 20, 400, 1_300]
            .iter()
            .enumerate()
            .map(|(i, &arrival)| ServeRequest {
                id: i as u64,
                site: i % N_SITES,
                seed: 70 + i as u64,
                arrival,
            })
            .collect();
        let cfg = ServeConfig {
            down_windows: vec![(200, 1_200)],
            deadline_units: 100_000,
            ..ServeConfig::default()
        };
        let (out, health) = with_one_thread(|| {
            let mut s = service(FaultPlan::off(), cfg);
            let out = s.run(&reqs);
            (out, s.health())
        });
        // Request 0 dispatched in the first wave and completed normally.
        assert!(matches!(out[0].outcome, Outcome::Prediction { .. }), "got {:?}", out[0].outcome);
        // Request 1's wave was already in flight when the crash tick
        // passed: the wave is the crash atom, so it completes.
        assert!(
            matches!(out[1].outcome, Outcome::Prediction { .. }),
            "in-flight wave survives the crash, got {:?}",
            out[1].outcome
        );
        // Request 2 was still queued when the supervisor processed the
        // crash: drained as ShardDown.
        assert_eq!(out[2].outcome, Outcome::ShardDown, "queued request must drain as ShardDown");
        assert!(out[2].completed >= 200, "drain happens at the crash tick or later");
        // Request 3 arrived mid-window: bounced on arrival.
        assert_eq!(out[3].outcome, Outcome::ShardDown);
        assert_eq!(out[3].completed, out[3].arrival, "mid-window arrivals bounce immediately");
        // Request 4 arrived after the restart and was answered.
        assert!(matches!(out[4].outcome, Outcome::Prediction { .. }), "got {:?}", out[4].outcome);
        assert_eq!(health.shard_down, 2);
        assert_eq!(health.restarts, 1);
        assert_eq!(health.resolved(), reqs.len() as u64);
    }

    #[test]
    fn restart_installs_a_fresh_closed_breaker() {
        // Force the breaker open with guaranteed worker panics, then let
        // the shard crash and restart: the replacement breaker must be
        // closed, and the old breaker's transitions must survive in the
        // flap tally.
        let panic_all = FaultPlan::parse("seed=1,worker_panic=1.0");
        let reqs: Vec<ServeRequest> = (0..8u64)
            .map(|i| ServeRequest { id: i, site: (i as usize) % N_SITES, seed: 80 + i, arrival: i * 200 })
            .collect();
        let late = ServeRequest { id: 99, site: 0, seed: 999, arrival: 60_000 };
        let cfg = ServeConfig {
            down_windows: vec![(30_000, 50_000)],
            ..ServeConfig::default()
        };
        let (ready_after, flaps, restarts) = with_one_thread(|| {
            let mut s = service(panic_all, cfg);
            let mut all = reqs.clone();
            all.push(late);
            s.run(&all);
            (s.health().ready, s.breaker_flaps(), s.health().restarts)
        });
        assert_eq!(restarts, 1);
        assert!(ready_after, "post-restart breaker must admit primary traffic");
        assert!(flaps >= 1, "pre-crash breaker transitions persist in the flap tally");
    }

    #[test]
    fn idle_jump_over_a_whole_window_still_counts_the_restart() {
        // Two requests far apart; the down window sits entirely between
        // them, so the idle clock jump skips it without any queued work.
        let reqs = [
            ServeRequest { id: 0, site: 0, seed: 1, arrival: 0 },
            ServeRequest { id: 1, site: 1, seed: 2, arrival: 100_000 },
        ];
        let cfg = ServeConfig {
            down_windows: vec![(10_000, 12_000)],
            ..ServeConfig::default()
        };
        let (out, health) = with_one_thread(|| {
            let mut s = service(FaultPlan::off(), cfg);
            let out = s.run(&reqs);
            (out, s.health())
        });
        assert!(matches!(out[0].outcome, Outcome::Prediction { .. }));
        assert!(matches!(out[1].outcome, Outcome::Prediction { .. }));
        assert_eq!(health.restarts, 1, "skipped windows still book their restart");
        assert_eq!(health.shard_down, 0);
    }

    #[test]
    fn down_window_runs_are_bit_deterministic() {
        let reqs = open_loop_arrivals(24, N_SITES, 120.0, 23);
        let cfg = ServeConfig {
            down_windows: vec![(400, 2_400), (9_000, 11_000)],
            ..ServeConfig::default()
        };
        let run = || {
            let mut s = service(FaultPlan::off(), cfg.clone());
            s.run(&reqs)
        };
        let (a, b) = with_one_thread(|| (run(), run()));
        assert_eq!(a, b, "down-window scheduling must be a pure function of the stream");
        assert!(
            a.iter().any(|r| r.outcome == Outcome::ShardDown),
            "the windows must actually catch traffic for this test to bite"
        );
    }
}
