//! The loop-counting attacker (Fig. 2b) — the paper's contribution.

use crate::replay::{replay_counting_loop, PeriodRecord};
use crate::trace::Trace;
use bf_sim::SimOutput;
use bf_timer::{BrowserKind, Nanos, Timer};

/// An attacker that repeatedly increments a counter and reads the timer,
/// recording per-period iteration counts. Makes **no memory accesses**;
/// its signal comes entirely from execution gaps and frequency variation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopCountingAttacker {
    /// Period length `P` (the paper defaults to 5 ms).
    pub period: Nanos,
    /// Cost of one `counter++; time()` iteration in reference-ns.
    pub iteration_cost: Nanos,
}

impl LoopCountingAttacker {
    /// Attacker with an explicit iteration cost.
    ///
    /// # Panics
    ///
    /// Panics when either argument is zero.
    pub fn new(period: Nanos, iteration_cost: Nanos) -> Self {
        assert!(period > Nanos::ZERO, "period must be positive");
        assert!(iteration_cost > Nanos::ZERO, "iteration cost must be positive");
        LoopCountingAttacker { period, iteration_cost }
    }

    /// Attacker calibrated for a browser's JavaScript engine (or native
    /// code for [`BrowserKind::Native`]).
    pub fn for_browser(browser: BrowserKind, period: Nanos) -> Self {
        Self::new(period, browser.loop_iteration_cost())
    }

    /// Collect a trace over the attacker core of a simulation.
    pub fn collect(&self, sim: &SimOutput, timer: &mut dyn Timer) -> Trace {
        self.collect_detailed(sim, timer).0
    }

    /// Collect a trace plus per-period records (for Fig. 8).
    pub fn collect_detailed(
        &self,
        sim: &SimOutput,
        timer: &mut dyn Timer,
    ) -> (Trace, Vec<PeriodRecord>) {
        replay_counting_loop(sim.attacker_timeline(), timer, self.period, self.iteration_cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bf_sim::{Machine, MachineConfig, TimedEvent, Workload, WorkloadEvent};
    use bf_timer::PreciseTimer;

    fn sim_with_burst() -> SimOutput {
        let mut w = Workload::new(Nanos::from_secs(1));
        for i in 0..3_000u64 {
            w.push(TimedEvent {
                t: Nanos::from_millis(300) + Nanos::from_micros(i * 60),
                event: WorkloadEvent::NetworkPacket { bytes: 1_400 },
            });
        }
        for i in 0..2_000u64 {
            w.push(TimedEvent {
                t: Nanos::from_millis(300) + Nanos::from_micros(i * 90),
                event: WorkloadEvent::VictimWake,
            });
        }
        Machine::new(MachineConfig::default()).run(&w, 99)
    }

    #[test]
    fn trace_length_is_duration_over_period() {
        let sim = sim_with_burst();
        let atk = LoopCountingAttacker::for_browser(BrowserKind::Chrome, Nanos::from_millis(5));
        let mut timer = PreciseTimer::new();
        let trace = atk.collect(&sim, &mut timer);
        assert_eq!(trace.len(), 200);
    }

    #[test]
    fn burst_period_counts_dip() {
        let sim = sim_with_burst();
        let atk = LoopCountingAttacker::for_browser(BrowserKind::Chrome, Nanos::from_millis(5));
        let mut timer = PreciseTimer::new();
        let trace = atk.collect(&sim, &mut timer);
        let v = trace.values();
        // Compare quiet early window vs the burst window around 300 ms.
        let quiet: f64 = v[10..30].iter().sum::<f64>() / 20.0;
        let burst: f64 = v[60..80].iter().sum::<f64>() / 20.0;
        assert!(burst < quiet * 0.995, "burst {burst} vs quiet {quiet}");
    }

    #[test]
    fn chrome_counts_near_27k() {
        let sim = Machine::new(MachineConfig::default()).run(&Workload::new(Nanos::from_secs(1)), 5);
        let atk = LoopCountingAttacker::for_browser(BrowserKind::Chrome, Nanos::from_millis(5));
        let mut timer = BrowserKind::Chrome.timer(5);
        let trace = atk.collect(&sim, &mut timer);
        let mean = trace.total() / trace.len() as f64;
        assert!((24_000.0..29_000.0).contains(&mean), "mean = {mean}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_period_rejected() {
        LoopCountingAttacker::new(Nanos::ZERO, Nanos(1));
    }
}
