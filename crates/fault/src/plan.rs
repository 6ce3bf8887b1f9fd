//! Seeded, deterministic fault-injection plans.
//!
//! A [`FaultPlan`] holds per-class injection rates plus its own seed.
//! Decisions are pure functions of `(plan seed, trace id)`, so the same
//! plan injects the same faults into the same traces on every run —
//! chaos experiments stay replayable and checkpoint-resumable.

use bf_stats::rng::{combine_seeds, SeedRng};

/// One class of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A slice of periods is overwritten with implausibly large spikes
    /// (an interrupt storm swamping the counter).
    Corrupt,
    /// The tail of the trace is cut off (an aborted page load).
    Truncate,
    /// Scattered periods become NaN (a poisoned measurement).
    NanSpike,
    /// The whole trace is lost (collection returned nothing usable).
    Drop,
}

impl FaultKind {
    /// Metric-name suffix (`fault.injected.<label>`).
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Corrupt => "corrupt",
            FaultKind::Truncate => "truncate",
            FaultKind::NanSpike => "nan",
            FaultKind::Drop => "drop",
        }
    }
}

/// A deterministic fault-injection plan applied at the collection
/// boundary.
///
/// Rates are per-trace probabilities in `[0, 1]`; they are evaluated in
/// the fixed order corrupt → truncate → NaN → drop against one uniform
/// draw, so their sum should stay ≤ 1. `transient` is the per-attempt
/// probability that a collection attempt fails before producing a trace
/// (bounded by `max_transient` consecutive failures).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the plan's own RNG stream (independent of experiment
    /// seeds, so enabling faults never perturbs clean-path collection).
    pub seed: u64,
    /// Per-trace probability of value corruption.
    pub corrupt: f64,
    /// Per-trace probability of truncation.
    pub truncate: f64,
    /// Per-trace probability of NaN spikes.
    pub nan: f64,
    /// Per-trace probability the trace is dropped outright.
    pub drop: f64,
    /// Per-attempt probability of a transient collection failure.
    pub transient: f64,
    /// Cap on consecutive transient failures per trace.
    pub max_transient: u32,
    /// Per-request probability that the primary (CNN+LSTM) model runs
    /// implausibly slowly — the serving layer charges a large deadline
    /// penalty for such requests, driving them into timeout and the
    /// circuit breaker toward open.
    pub slow_model: f64,
    /// Per-request probability that a serving worker panics mid-predict;
    /// the service contains the panic and degrades the request.
    pub worker_panic: f64,
    /// Simulated run interruption: stop cross-validation after this many
    /// newly computed folds (checkpoint-resume picks up the rest).
    pub interrupt_folds: Option<usize>,
}

impl FaultPlan {
    /// The inert plan: no faults, no interruption.
    pub fn off() -> Self {
        FaultPlan {
            seed: 0,
            corrupt: 0.0,
            truncate: 0.0,
            nan: 0.0,
            drop: 0.0,
            transient: 0.0,
            max_transient: 2,
            slow_model: 0.0,
            worker_panic: 0.0,
            interrupt_folds: None,
        }
    }

    /// The documented default chaos plan (`BF_FAULT_PLAN=default`):
    /// 5 % corrupt, 3 % truncate, 2 % NaN, 2 % drop, 5 % transient.
    pub fn default_plan() -> Self {
        FaultPlan {
            seed: 0xFA_17,
            corrupt: 0.05,
            truncate: 0.03,
            nan: 0.02,
            drop: 0.02,
            transient: 0.05,
            max_transient: 2,
            slow_model: 0.0,
            worker_panic: 0.0,
            interrupt_folds: None,
        }
    }

    /// Parse from the `BF_FAULT_PLAN` environment variable.
    ///
    /// Unset, empty, or `off` → [`FaultPlan::off`]; `default` →
    /// [`FaultPlan::default_plan`]; otherwise a comma-separated
    /// `key=value` list over the rates `corrupt`, `truncate`, `nan`,
    /// `drop`, `transient`, `slow_model` and `worker_panic`, and `seed`,
    /// `max_transient` and `interrupt_folds` (e.g.
    /// `corrupt=0.1,nan=0.05,seed=7`); a later entry for a key overrides
    /// an earlier one. Unknown keys, out-of-range rates and unparsable
    /// values are reported and ignored rather than aborting the run.
    pub fn from_env() -> Self {
        match std::env::var("BF_FAULT_PLAN") {
            Ok(spec) => Self::parse(&spec),
            Err(_) => Self::off(),
        }
    }

    /// Parse a plan spec (see [`FaultPlan::from_env`] for the grammar).
    pub fn parse(spec: &str) -> Self {
        let spec = spec.trim();
        if spec.is_empty() || spec.eq_ignore_ascii_case("off") {
            return Self::off();
        }
        if spec.eq_ignore_ascii_case("default") {
            return Self::default_plan();
        }
        let mut plan = Self::off();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let Some((key, value)) = part.split_once('=') else {
                bf_obs::error!("BF_FAULT_PLAN: ignoring malformed entry `{part}`");
                continue;
            };
            let (key, value) = (key.trim(), value.trim());
            let rate = |slot: &mut f64| match value.parse::<f64>() {
                Ok(v) if (0.0..=1.0).contains(&v) => *slot = v,
                _ => bf_obs::error!("BF_FAULT_PLAN: invalid rate `{part}` (want 0..=1)"),
            };
            match key {
                "corrupt" => rate(&mut plan.corrupt),
                "truncate" => rate(&mut plan.truncate),
                "nan" => rate(&mut plan.nan),
                "drop" => rate(&mut plan.drop),
                "transient" => rate(&mut plan.transient),
                "slow_model" => rate(&mut plan.slow_model),
                "worker_panic" => rate(&mut plan.worker_panic),
                "seed" => match value.parse() {
                    Ok(v) => plan.seed = v,
                    Err(_) => bf_obs::error!("BF_FAULT_PLAN: invalid seed `{part}`"),
                },
                "max_transient" => match value.parse() {
                    Ok(v) => plan.max_transient = v,
                    Err(_) => bf_obs::error!("BF_FAULT_PLAN: invalid max_transient `{part}`"),
                },
                "interrupt_folds" => match value.parse() {
                    Ok(v) => plan.interrupt_folds = Some(v),
                    Err(_) => bf_obs::error!("BF_FAULT_PLAN: invalid interrupt_folds `{part}`"),
                },
                _ => bf_obs::error!("BF_FAULT_PLAN: ignoring unknown key `{key}`"),
            }
        }
        plan
    }

    /// True when any fault class (or simulated interruption) is enabled.
    pub fn is_active(&self) -> bool {
        self.corrupt > 0.0
            || self.truncate > 0.0
            || self.nan > 0.0
            || self.drop > 0.0
            || self.transient > 0.0
            || self.slow_model > 0.0
            || self.worker_panic > 0.0
            || self.interrupt_folds.is_some()
    }

    /// One-line human summary for banners and manifests.
    pub fn summary(&self) -> String {
        if !self.is_active() {
            return "off".to_owned();
        }
        let mut s = format!(
            "corrupt={} truncate={} nan={} drop={} transient={} seed={}",
            self.corrupt, self.truncate, self.nan, self.drop, self.transient, self.seed
        );
        if self.slow_model > 0.0 {
            s.push_str(&format!(" slow_model={}", self.slow_model));
        }
        if self.worker_panic > 0.0 {
            s.push_str(&format!(" worker_panic={}", self.worker_panic));
        }
        if let Some(k) = self.interrupt_folds {
            s.push_str(&format!(" interrupt_folds={k}"));
        }
        s
    }

    /// The fault (if any) this plan injects into trace `trace_id`.
    /// Deterministic: depends only on `(self.seed, trace_id)`.
    pub fn fault_for(&self, trace_id: u64) -> Option<FaultKind> {
        if !self.is_active() {
            return None;
        }
        let mut rng = SeedRng::new(combine_seeds(self.seed, combine_seeds(0xFA_07, trace_id)));
        let u = rng.uniform();
        let mut edge = self.corrupt;
        if u < edge {
            return Some(FaultKind::Corrupt);
        }
        edge += self.truncate;
        if u < edge {
            return Some(FaultKind::Truncate);
        }
        edge += self.nan;
        if u < edge {
            return Some(FaultKind::NanSpike);
        }
        edge += self.drop;
        if u < edge {
            return Some(FaultKind::Drop);
        }
        None
    }

    /// Number of transient collection failures preceding trace
    /// `trace_id`'s first successful attempt (0 almost always; capped at
    /// `max_transient`). Deterministic in `(self.seed, trace_id)`.
    pub fn transient_failures(&self, trace_id: u64) -> u32 {
        if self.transient <= 0.0 {
            return 0;
        }
        let mut rng = SeedRng::new(combine_seeds(self.seed, combine_seeds(0x7A_45, trace_id)));
        let mut failures = 0;
        while failures < self.max_transient && rng.chance(self.transient) {
            failures += 1;
        }
        failures
    }

    /// Whether serving request `request_id` hits the slow-model fault
    /// (the primary classifier charges a large deadline penalty).
    /// Deterministic in `(self.seed, request_id)`.
    pub fn slow_model_for(&self, request_id: u64) -> bool {
        if self.slow_model <= 0.0 {
            return false;
        }
        let mut rng = SeedRng::new(combine_seeds(self.seed, combine_seeds(0x51_0E, request_id)));
        rng.chance(self.slow_model)
    }

    /// Whether serving request `request_id` panics its worker
    /// mid-predict. Deterministic in `(self.seed, request_id)`.
    pub fn worker_panic_for(&self, request_id: u64) -> bool {
        if self.worker_panic <= 0.0 {
            return false;
        }
        let mut rng = SeedRng::new(combine_seeds(self.seed, combine_seeds(0x9A_1C, request_id)));
        rng.chance(self.worker_panic)
    }

    /// Mutate `values` according to `kind`, reporting the injection to
    /// the metrics registry. [`FaultKind::Drop`] clears the trace; the
    /// caller decides whether to re-collect or quarantine.
    pub fn apply(&self, kind: FaultKind, values: &mut Vec<f64>, trace_id: u64) {
        bf_obs::counter(match kind {
            FaultKind::Corrupt => "fault.injected.corrupt",
            FaultKind::Truncate => "fault.injected.truncate",
            FaultKind::NanSpike => "fault.injected.nan",
            FaultKind::Drop => "fault.injected.drop",
        })
        .inc();
        // Leave a zero-width mark on the active trace timeline (if any),
        // so an injected fault is visible inside the attempt it hit.
        let ts = bf_obs::trace::virtual_offset();
        let mut mark = bf_obs::trace::span_at("fault_injected", ts);
        mark.arg_str("kind", kind.label()).arg_u64("attempt_id", trace_id);
        mark.finish(ts);
        let mut rng = SeedRng::new(combine_seeds(self.seed, combine_seeds(0xA9_91, trace_id)));
        match kind {
            FaultKind::Corrupt => {
                // ~5 % of periods become storm-sized spikes, far outside
                // any plausible per-period count.
                let n = values.len();
                for _ in 0..(n / 20).max(1) {
                    let i = rng.int_range(0, n.max(1) as u64) as usize;
                    values[i] = rng.uniform_range(1e12, 1e15);
                }
            }
            FaultKind::Truncate => {
                let keep = rng.uniform_range(0.25, 0.75);
                let len = (values.len() as f64 * keep) as usize;
                values.truncate(len);
            }
            FaultKind::NanSpike => {
                let n = values.len();
                for _ in 0..(n / 100).max(1) {
                    let i = rng.int_range(0, n.max(1) as u64) as usize;
                    values[i] = f64::NAN;
                }
            }
            FaultKind::Drop => values.clear(),
        }
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::off()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_plan_injects_nothing() {
        let p = FaultPlan::off();
        assert!(!p.is_active());
        for id in 0..200 {
            assert_eq!(p.fault_for(id), None);
            assert_eq!(p.transient_failures(id), 0);
        }
        assert_eq!(p.summary(), "off");
    }

    #[test]
    fn decisions_are_deterministic() {
        let p = FaultPlan::default_plan();
        for id in 0..500 {
            assert_eq!(p.fault_for(id), p.fault_for(id));
            assert_eq!(p.transient_failures(id), p.transient_failures(id));
        }
    }

    #[test]
    fn rates_roughly_respected() {
        let p = FaultPlan {
            corrupt: 0.5,
            ..FaultPlan::off()
        };
        let hits = (0..2_000).filter(|&id| p.fault_for(id).is_some()).count();
        assert!((800..1200).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn parse_grammar() {
        let p = FaultPlan::parse("corrupt=0.1, nan=0.05,seed=7,interrupt_folds=1");
        assert_eq!(p.corrupt, 0.1);
        assert_eq!(p.nan, 0.05);
        assert_eq!(p.seed, 7);
        assert_eq!(p.interrupt_folds, Some(1));
        assert_eq!(p.truncate, 0.0);
        assert_eq!(FaultPlan::parse("off"), FaultPlan::off());
        assert_eq!(FaultPlan::parse(""), FaultPlan::off());
        assert_eq!(FaultPlan::parse("default"), FaultPlan::default_plan());
    }

    #[test]
    fn parse_tolerates_garbage() {
        let p = FaultPlan::parse("corrupt=2.5,bogus=1,whatever,nan=0.5");
        assert_eq!(p.corrupt, 0.0); // out-of-range rate ignored
        assert_eq!(p.nan, 0.5);
    }

    #[test]
    fn apply_produces_detectable_damage() {
        let clean: Vec<f64> = (0..1000).map(|i| i as f64).collect();

        let mut v = clean.clone();
        FaultPlan::off().apply(FaultKind::Corrupt, &mut v, 1);
        assert!(v.iter().any(|x| *x >= 1e12));

        let mut v = clean.clone();
        FaultPlan::off().apply(FaultKind::Truncate, &mut v, 1);
        assert!(v.len() < clean.len());

        let mut v = clean.clone();
        FaultPlan::off().apply(FaultKind::NanSpike, &mut v, 1);
        assert!(v.iter().any(|x| x.is_nan()));

        let mut v = clean;
        FaultPlan::off().apply(FaultKind::Drop, &mut v, 1);
        assert!(v.is_empty());
    }

    #[test]
    fn serving_fault_decisions_are_deterministic_and_rate_bounded() {
        let p = FaultPlan {
            slow_model: 0.25,
            worker_panic: 0.1,
            ..FaultPlan::off()
        };
        assert!(p.is_active());
        for id in 0..300 {
            assert_eq!(p.slow_model_for(id), p.slow_model_for(id));
            assert_eq!(p.worker_panic_for(id), p.worker_panic_for(id));
        }
        let slow = (0..2_000).filter(|&id| p.slow_model_for(id)).count();
        let panics = (0..2_000).filter(|&id| p.worker_panic_for(id)).count();
        assert!((350..650).contains(&slow), "slow = {slow}");
        assert!((120..280).contains(&panics), "panics = {panics}");
        // Off-plan never fires either fault.
        let off = FaultPlan::off();
        assert!((0..500).all(|id| !off.slow_model_for(id) && !off.worker_panic_for(id)));
    }

    #[test]
    fn serving_rates_parse_and_surface_in_summary() {
        let p = FaultPlan::parse("slow_model=0.3,worker_panic=0.05,seed=9");
        assert_eq!(p.slow_model, 0.3);
        assert_eq!(p.worker_panic, 0.05);
        assert_eq!(p.seed, 9);
        assert!(p.summary().contains("slow_model=0.3"), "{}", p.summary());
        assert!(p.summary().contains("worker_panic=0.05"), "{}", p.summary());
        // The batch-only summary stays byte-identical to the pre-serve
        // format when the serving rates are zero.
        assert!(!FaultPlan::default_plan().summary().contains("slow_model"));
    }

    #[test]
    fn transient_failures_bounded() {
        let p = FaultPlan {
            transient: 1.0,
            max_transient: 3,
            ..FaultPlan::off()
        };
        for id in 0..50 {
            assert_eq!(p.transient_failures(id), 3);
        }
    }
}
