//! The native gap-watching attacker of §5.2.
//!
//! "Our attacker is written in Rust and watches for jumps in the local
//! time by repeatedly reading from Linux's CLOCK_MONOTONIC time source."
//! The observed jumps are what the eBPF tool attributes to kernel
//! interrupt events.

use bf_sim::SimOutput;
use bf_timer::Nanos;

/// One user-space-visible execution gap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObservedGap {
    /// Last timer reading before the jump.
    pub start: Nanos,
    /// First timer reading after the jump.
    pub end: Nanos,
}

impl ObservedGap {
    /// Apparent gap length (includes up to one polling iteration of
    /// measurement slack).
    pub fn len(&self) -> Nanos {
        self.end - self.start
    }

    /// Whether this is a zero-length record (never produced by the
    /// watcher).
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// A tight polling loop reading the monotonic clock and reporting every
/// jump larger than a threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GapWatcher {
    /// Cost of one poll iteration (a vDSO `clock_gettime` plus loop
    /// control; ~20 ns on the paper's hardware).
    pub poll_cost: Nanos,
    /// Minimum jump size reported (the paper analyzes gaps >100 ns).
    pub threshold: Nanos,
}

impl Default for GapWatcher {
    fn default() -> Self {
        GapWatcher { poll_cost: Nanos::from_nanos(20), threshold: Nanos::from_nanos(100) }
    }
}

impl GapWatcher {
    /// Create a watcher with explicit polling cost and report threshold.
    ///
    /// # Panics
    ///
    /// Panics when `poll_cost` is zero.
    pub fn new(poll_cost: Nanos, threshold: Nanos) -> Self {
        assert!(poll_cost > Nanos::ZERO, "poll cost must be positive");
        GapWatcher { poll_cost, threshold }
    }

    /// Watch the attacker core for the whole simulation, reporting every
    /// observable execution gap.
    ///
    /// The watcher's view of a kernel gap `[g.start, g.end)` is bracketed
    /// by its last poll before the gap and first poll after it, so each
    /// observed gap is the true gap plus up to one `poll_cost` of slack —
    /// exactly the measurement physics of the real attacker.
    pub fn watch(&self, sim: &SimOutput) -> Vec<ObservedGap> {
        let tl = sim.attacker_timeline();
        let poll = self.poll_cost.as_nanos();
        let mut out = Vec::new();
        for g in tl.gaps() {
            // Last observable reading at or before gap start, aligned to
            // the polling grid the watcher had settled into.
            let before = Nanos(g.start.as_nanos() / poll * poll);
            // First reading after the core resumes: one full poll after.
            let after = g.end + self.poll_cost;
            let observed = ObservedGap { start: before, end: after };
            if observed.len() > self.threshold {
                out.push(observed);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bf_sim::{Machine, MachineConfig, Workload};

    fn quiet_sim() -> SimOutput {
        Machine::new(MachineConfig::default()).run(&Workload::new(Nanos::from_millis(500)), 2)
    }

    #[test]
    fn observes_every_interrupt_gap() {
        let sim = quiet_sim();
        let watcher = GapWatcher::default();
        let gaps = watcher.watch(&sim);
        // All handler gaps exceed 1.5 µs, far above the 100 ns threshold.
        assert_eq!(gaps.len(), sim.attacker_timeline().gaps().len());
    }

    #[test]
    fn observed_gaps_bracket_true_gaps() {
        let sim = quiet_sim();
        let watcher = GapWatcher::default();
        let observed = watcher.watch(&sim);
        for (obs, real) in observed.iter().zip(sim.attacker_timeline().gaps()) {
            assert!(obs.start <= real.start);
            assert!(obs.end >= real.end);
            let slack = obs.len() - real.len();
            assert!(slack <= watcher.poll_cost * 2, "slack = {slack}");
        }
    }

    #[test]
    fn threshold_filters_small_gaps() {
        let sim = quiet_sim();
        let all = GapWatcher::new(Nanos::from_nanos(20), Nanos::ZERO).watch(&sim);
        let only_huge = GapWatcher::new(Nanos::from_nanos(20), Nanos::from_millis(1)).watch(&sim);
        assert!(only_huge.len() <= all.len());
    }

    #[test]
    fn coarse_polling_adds_slack() {
        let sim = quiet_sim();
        let fine = GapWatcher::new(Nanos::from_nanos(20), Nanos::from_nanos(100)).watch(&sim);
        let coarse = GapWatcher::new(Nanos::from_micros(1), Nanos::from_nanos(100)).watch(&sim);
        let sum = |gaps: &[ObservedGap]| gaps.iter().map(|g| g.len().as_nanos()).sum::<u64>();
        assert!(sum(&coarse) >= sum(&fine));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_poll_cost_rejected() {
        GapWatcher::new(Nanos::ZERO, Nanos::ZERO);
    }
}
