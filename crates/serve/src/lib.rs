//! `bf-serve` — a deadline-aware online fingerprinting service.
//!
//! The paper's pipeline is batch-shaped: collect a corpus, train, then
//! cross-validate. This crate wraps the same building blocks —
//! [`bf_core::collect`] for trace acquisition and [`bf_ml`] classifiers
//! for prediction — in an *online* request/response loop with the
//! robustness machinery a long-running service needs:
//!
//! * a **bounded queue** with explicit load shedding when it overflows;
//! * **per-request deadlines** in deterministic virtual work units,
//!   enforced cooperatively via [`bf_fault::CancelToken`] checkpoints
//!   threaded through collection and inference;
//! * **seeded retry with exponential backoff + jitter**
//!   ([`bf_fault::BackoffPolicy`]) for transient collection faults,
//!   charged against the request's deadline budget;
//! * a **circuit breaker** ([`CircuitBreaker`]) around the expensive
//!   primary (CNN+LSTM) inference path, with **graceful degradation**
//!   to the cheap [`bf_ml::CentroidClassifier`] while the breaker is
//!   open;
//! * a [`HealthSnapshot`] readiness/terminal-outcome report, and
//!   `serve.*` metrics plus breaker-state manifest entries through
//!   `bf-obs`.
//!
//! # Virtual time
//!
//! Nothing in the service reads a wall clock. Queueing, deadlines,
//! backoff waits, and breaker cooldowns are all measured in abstract
//! *work units* charged against cancellation tokens, so every outcome is
//! a pure function of `(requests, config, BF_THREADS)` — a chaos storm
//! replays bit-identically, and wall time is observability-only. The
//! scheduler runs lock-step waves of at most [`bf_par::threads`] jobs:
//! collection runs in parallel within a wave, prediction is applied in
//! deterministic virtual-completion order so breaker transitions do not
//! depend on OS thread interleaving.
//!
//! # Terminal outcomes
//!
//! Every submitted request resolves to **exactly one** [`Outcome`]:
//! a primary `Prediction`, a `Degraded` (centroid) prediction, an
//! explicit `Timeout` naming the stage that exhausted the deadline, an
//! explicit `Shed` at admission, an explicit `Failed` (quarantined
//! collection or a contained worker panic), or — when a supervised
//! shard outage window swallows the request — an explicit `ShardDown`.
//! Requests never hang and panics never escape the service.
//!
//! # Fleet
//!
//! The [`fleet`] module scales one service into N supervised shards
//! behind a deterministic router: stable request-id hashing, per-shard
//! fault domains (queue, breaker, tier controller), health-gated
//! failover with optional hedged retry, and shard-kill chaos driven by
//! [`bf_fault::ShardKillPlan`]. See [`fleet::Fleet`].

pub mod breaker;
pub mod fleet;
pub mod service;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker, Transition};
pub use fleet::{route, Fleet, FleetConfig, FleetHealth};
pub use service::{HealthSnapshot, Service, TierModels};

use bf_fault::BackoffPolicy;
use bf_stats::rng::{combine_seeds, SeedRng};

/// A classification job: "collect a trace of `site` and say which site
/// it was". `seed` drives the (simulated) victim visit; `arrival` is the
/// virtual tick at which the request enters the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeRequest {
    /// Caller-chosen identifier, echoed in the [`Resolved`] record and
    /// used to derive per-request fault/jitter streams.
    pub id: u64,
    /// Index into the service's site catalog.
    pub site: usize,
    /// Seed for the simulated visit this request observes.
    pub seed: u64,
    /// Virtual arrival tick.
    pub arrival: u64,
}

/// The pipeline stage that exhausted a request's deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// The deadline elapsed while the request was still queued.
    Queue,
    /// Trace collection (including retry backoff waits) ran out of
    /// budget.
    Collect,
    /// Inference ran out of budget (typically a slow primary model).
    Predict,
}

impl Stage {
    /// Stable lowercase label for metrics and reports.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Queue => "queue",
            Stage::Collect => "collect",
            Stage::Predict => "predict",
        }
    }
}

/// Which rung of the anytime prediction ladder produced an answer.
///
/// Ordered roughly by cost and accuracy: the full primary model, an
/// early exit of the primary model at a trace prefix, the distilled
/// small student, and the centroid floor. Recorded in every answered
/// [`Outcome`] so accuracy-vs-deadline curves can attribute each answer
/// to the tier that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The primary classifier on the full trace.
    Full,
    /// The primary classifier exited at this prefix percentage.
    EarlyExit(u8),
    /// The distilled small student model.
    Distilled,
    /// The centroid fallback.
    Centroid,
}

impl Tier {
    /// Stable lowercase label for metrics and reports. Early exits at
    /// the standard rungs get their own labels so per-tier fractions
    /// survive metric flattening.
    pub fn label(self) -> &'static str {
        match self {
            Tier::Full => "full",
            Tier::EarlyExit(25) => "early_exit_25",
            Tier::EarlyExit(50) => "early_exit_50",
            Tier::EarlyExit(75) => "early_exit_75",
            Tier::EarlyExit(_) => "early_exit",
            Tier::Distilled => "distilled",
            Tier::Centroid => "centroid",
        }
    }
}

/// The single terminal state of a request. See the crate docs for the
/// exhaustiveness guarantee.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The primary classifier answered within the deadline — on the
    /// full trace, or (with the ladder enabled) at a prefix rung whose
    /// calibrated confidence cleared the threshold.
    Prediction {
        /// Argmax class.
        class: usize,
        /// Per-class probabilities (calibrated when the ladder is on).
        probs: Vec<f32>,
        /// Which ladder rung answered.
        tier: Tier,
        /// Calibrated confidence of the answer (max probability).
        confidence: f32,
    },
    /// A degraded answer: the budget cut the ladder short of the
    /// confidence bar (best early-exit answer so far), the distilled
    /// student stood in for a failed/tripped primary, or the centroid
    /// floor answered. The centroid tier is bit-identical to running
    /// the standalone centroid on the same features.
    Degraded {
        /// Argmax class.
        class: usize,
        /// Per-class probabilities.
        probs: Vec<f32>,
        /// Which ladder rung answered.
        tier: Tier,
        /// Confidence of the answer (calibrated for ladder/distilled
        /// tiers, raw max probability for the centroid).
        confidence: f32,
    },
    /// The deadline budget ran out; `stage` says where.
    Timeout {
        /// Stage that exhausted the budget.
        stage: Stage,
    },
    /// Rejected at admission because the bounded queue was full.
    Shed,
    /// Explicit failure: quarantined collection (retry budget
    /// exhausted) or a contained worker panic. Never silent, never
    /// hung.
    Failed {
        /// Human-readable reason.
        reason: String,
    },
    /// The request's shard crashed while the request was queued (or the
    /// request arrived during the outage window): the supervisor
    /// resolves it explicitly rather than letting it hang until the
    /// restart. With fleet hedging on, the router replays such requests
    /// on the next healthy shard.
    ShardDown,
}

impl Outcome {
    /// Stable lowercase label for metrics and reports.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Prediction { .. } => "prediction",
            Outcome::Degraded { .. } => "degraded",
            Outcome::Timeout { .. } => "timeout",
            Outcome::Shed => "shed",
            Outcome::Failed { .. } => "failed",
            Outcome::ShardDown => "shard_down",
        }
    }
}

/// A request paired with its terminal outcome and virtual-time
/// accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct Resolved {
    /// The request's `id`.
    pub id: u64,
    /// The request's site index.
    pub site: usize,
    /// Terminal outcome.
    pub outcome: Outcome,
    /// Arrival tick (copied from the request).
    pub arrival: u64,
    /// Tick at which the request left the queue (equals `arrival` for
    /// sheds).
    pub started: u64,
    /// Tick at which the terminal outcome was reached.
    pub completed: u64,
    /// Units spent waiting in the queue.
    pub queue_units: u64,
    /// Units of collection + inference work charged to the deadline.
    pub work_units: u64,
}

impl Resolved {
    /// End-to-end virtual latency (queue wait + work).
    pub fn latency_units(&self) -> u64 {
        self.completed.saturating_sub(self.arrival)
    }
}

/// Anytime-ladder tuning: whether prefix early-exit is enabled, how
/// confident a rung must be to answer, and what the distilled tier
/// charges. See [`Tier`] and the `service` module docs for the
/// tier-selection rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierConfig {
    /// Enable the anytime ladder. Off, every group runs the plain
    /// full-trace-then-centroid predict path, bit-identical to the
    /// service before the ladder existed.
    pub ladder: bool,
    /// Calibrated confidence a prefix rung must reach to answer early.
    pub confidence_threshold: f64,
    /// Cost charged per distilled-student inference.
    pub distilled_units: u64,
}

impl Default for TierConfig {
    fn default() -> Self {
        TierConfig { ladder: false, confidence_threshold: 0.85, distilled_units: 15 }
    }
}

/// Service tuning. All durations are virtual work units (see the crate
/// docs); wall time never enters the picture.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Bounded-queue capacity; arrivals beyond it are [`Outcome::Shed`].
    pub queue_cap: usize,
    /// Per-request deadline, measured from arrival.
    pub deadline_units: u64,
    /// Cost charged per collection attempt.
    pub collect_attempt_units: u64,
    /// Cost charged per primary (CNN+LSTM) inference.
    pub primary_units: u64,
    /// Cost charged per fallback (centroid) inference.
    pub fallback_units: u64,
    /// Extra cost charged when the fault plan injects a slow model.
    pub slow_penalty_units: u64,
    /// Retry backoff schedule for transient collection faults.
    pub backoff: BackoffPolicy,
    /// Circuit-breaker thresholds.
    pub breaker: BreakerConfig,
    /// Optional deterministic slow-model storm: requests with
    /// `start <= id < end` always hit the slow-model penalty, on top of
    /// the fault plan's random `slow_model` rate. Used by benches and
    /// chaos tests to drive the breaker through a full
    /// open → half-open → closed cycle.
    pub slow_storm: Option<(u64, u64)>,
    /// Logical wave capacity — how many queued jobs dispatch per wave
    /// of the virtual-time scheduler. `None` (the default) follows
    /// [`bf_par::threads`], coupling service capacity to the physical
    /// pool; pinning it makes every outcome, tick, and exported trace
    /// timeline a pure function of `seed` alone, byte-identical at any
    /// `BF_THREADS` (physical threads then only change wall time).
    pub wave_cap: Option<usize>,
    /// Anytime-ladder tuning (off by default).
    pub tiers: TierConfig,
    /// Micro-batch capacity for the predict stage: up to this many
    /// same-wave requests share one stacked forward pass, each charged
    /// its `ceil(inference / batch_size)` share of the model cost (the
    /// collection share of a rung climb is per-request and never
    /// divided). The micro-batch path is the only predict path, so `1`
    /// (the default) is just a capacity of one: every request is a
    /// singleton group paying the undivided cost, bit-identical to the
    /// pre-batching per-request scheduler. Fault-flagged requests
    /// (injected slow model, slow storm, injected panic) are never
    /// batched with others — each runs as an uncounted singleton group,
    /// so a fault stays contained to its own request.
    pub batch: usize,
    /// Supervised shard outage schedule: sorted, non-overlapping
    /// half-open `[crash, restart)` windows in virtual ticks. When the
    /// clock reaches a window the shard crashes at its start tick —
    /// every queued request resolves [`Outcome::ShardDown`], arrivals
    /// inside the window bounce to `ShardDown` immediately, and at the
    /// window end the supervisor has restarted the shard with a fresh
    /// (closed) breaker. Waves dispatched before the crash complete
    /// normally: the wave is the crash atom. Normally derived by
    /// [`fleet::Fleet`] from a [`bf_fault::ShardKillPlan`] and the
    /// configured restart backoff; empty (the default) means the shard
    /// never crashes.
    pub down_windows: Vec<(u64, u64)>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_cap: 32,
            deadline_units: 1_000,
            collect_attempt_units: 100,
            primary_units: 50,
            fallback_units: 5,
            slow_penalty_units: 10_000,
            backoff: BackoffPolicy::default(),
            breaker: BreakerConfig::default(),
            slow_storm: None,
            wave_cap: None,
            tiers: TierConfig::default(),
            batch: 1,
            down_windows: Vec::new(),
        }
    }
}

impl ServeConfig {
    /// Whether `id` falls inside the configured slow-model storm.
    pub fn in_slow_storm(&self, id: u64) -> bool {
        self.slow_storm.is_some_and(|(start, end)| id >= start && id < end)
    }
}

/// Deterministic open-loop arrival stream: `n` requests over `n_sites`
/// sites with exponentially distributed inter-arrival gaps of mean
/// `mean_gap_units` (0 means an instantaneous burst). Arrivals are
/// non-decreasing and the whole stream is a pure function of `seed`.
pub fn open_loop_arrivals(
    n: usize,
    n_sites: usize,
    mean_gap_units: f64,
    seed: u64,
) -> Vec<ServeRequest> {
    assert!(n_sites > 0, "need at least one site");
    let mut rng = SeedRng::new(combine_seeds(seed, 0x5E17E));
    let mut tick = 0u64;
    (0..n as u64)
        .map(|i| {
            if mean_gap_units > 0.0 {
                tick += rng.exponential(mean_gap_units).round() as u64;
            }
            ServeRequest {
                id: i,
                site: rng.int_range(0, n_sites as u64) as usize,
                seed: combine_seeds(seed, i),
                arrival: tick,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_deterministic_monotone_and_in_range() {
        let a = open_loop_arrivals(200, 7, 40.0, 99);
        let b = open_loop_arrivals(200, 7, 40.0, 99);
        assert_eq!(a, b, "stream must be a pure function of the seed");
        assert_eq!(a.len(), 200);
        assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(a.iter().all(|r| r.site < 7));
        let c = open_loop_arrivals(200, 7, 40.0, 100);
        assert_ne!(a, c, "different seeds give different streams");
    }

    #[test]
    fn burst_arrivals_share_tick_zero() {
        let a = open_loop_arrivals(10, 3, 0.0, 1);
        assert!(a.iter().all(|r| r.arrival == 0));
    }

    #[test]
    fn slow_storm_window_is_half_open() {
        let cfg = ServeConfig { slow_storm: Some((10, 20)), ..ServeConfig::default() };
        assert!(!cfg.in_slow_storm(9));
        assert!(cfg.in_slow_storm(10));
        assert!(cfg.in_slow_storm(19));
        assert!(!cfg.in_slow_storm(20));
        assert!(!ServeConfig::default().in_slow_storm(10));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Outcome::Shed.label(), "shed");
        assert_eq!(Outcome::Timeout { stage: Stage::Queue }.label(), "timeout");
        assert_eq!(Stage::Collect.label(), "collect");
        assert_eq!(Stage::Predict.label(), "predict");
        assert_eq!(Outcome::Failed { reason: String::new() }.label(), "failed");
        assert_eq!(Outcome::ShardDown.label(), "shard_down");
        assert_eq!(Tier::Full.label(), "full");
        assert_eq!(Tier::EarlyExit(25).label(), "early_exit_25");
        assert_eq!(Tier::EarlyExit(50).label(), "early_exit_50");
        assert_eq!(Tier::EarlyExit(75).label(), "early_exit_75");
        assert_eq!(Tier::EarlyExit(33).label(), "early_exit");
        assert_eq!(Tier::Distilled.label(), "distilled");
        assert_eq!(Tier::Centroid.label(), "centroid");
    }

    #[test]
    fn latency_is_queue_plus_work() {
        let r = Resolved {
            id: 1,
            site: 0,
            outcome: Outcome::Shed,
            arrival: 10,
            started: 25,
            completed: 40,
            queue_units: 15,
            work_units: 15,
        };
        assert_eq!(r.latency_units(), 30);
    }
}
