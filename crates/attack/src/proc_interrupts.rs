//! The `/proc/interrupts`-statistics attacker of related work (§7.1).
//!
//! "In Linux, all reported interrupts are counted by the kernel and
//! logged in the system file `/proc/interrupts`, which can be accessed by
//! any process. Several attacks exploit such statistical information...
//! Fortunately, these attacks are easy to mitigate as one could simply
//! disable non-privileged access to the interrupt pseudo-file."
//!
//! This attacker is included as the contrast case: it reads the kernel's
//! own counters instead of timing its own execution, works perfectly when
//! the pseudo-file is readable, and dies completely when access is
//! restricted — unlike the timing attacks, which require no privileges at
//! all.

use crate::trace::Trace;
use bf_sim::SimOutput;
use bf_timer::Nanos;

/// Access policy for the interrupt pseudo-file — the mitigation knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ProcAccess {
    /// World-readable (the Linux default the attacks exploit).
    #[default]
    Unrestricted,
    /// `/proc/interrupts` restricted to root: the attacker reads nothing.
    Restricted,
}

/// An attacker that polls machine-wide interrupt counters every period,
/// recording the per-period delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcInterruptsAttacker {
    /// Sampling period.
    pub period: Nanos,
    /// Whether the pseudo-file is readable.
    pub access: ProcAccess,
}

impl ProcInterruptsAttacker {
    /// An attacker polling at the given period under the given policy.
    ///
    /// # Panics
    ///
    /// Panics when `period` is zero.
    pub fn new(period: Nanos, access: ProcAccess) -> Self {
        assert!(period > Nanos::ZERO, "period must be positive");
        ProcInterruptsAttacker { period, access }
    }

    /// Collect the per-period interrupt-count trace across all cores.
    /// Under [`ProcAccess::Restricted`] the trace is all zeros — the
    /// mitigation is total.
    pub fn collect(&self, sim: &SimOutput) -> Trace {
        let slots = (sim.duration / self.period) as usize;
        let mut values = vec![0.0; slots];
        if self.access == ProcAccess::Restricted {
            return Trace::new(self.period, values);
        }
        for ev in sim.kernel_log().events() {
            if ev.kind.interrupt().is_none() {
                continue;
            }
            let idx = (ev.start / self.period) as usize;
            if idx < slots {
                values[idx] += 1.0;
            }
        }
        Trace::new(self.period, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bf_sim::{Machine, MachineConfig, TimedEvent, Workload, WorkloadEvent};

    fn sim() -> SimOutput {
        let mut w = Workload::new(Nanos::from_secs(1));
        for i in 0..2_000u64 {
            w.push(TimedEvent {
                t: Nanos::from_millis(300) + Nanos::from_micros(i * 80),
                event: WorkloadEvent::NetworkPacket { bytes: 1_000 },
            });
        }
        Machine::new(MachineConfig::default()).run(&w, 21)
    }

    #[test]
    fn counts_track_activity() {
        let sim = sim();
        let atk = ProcInterruptsAttacker::new(Nanos::from_millis(50), ProcAccess::Unrestricted);
        let trace = atk.collect(&sim);
        assert_eq!(trace.len(), 20);
        let quiet = trace.values()[1];
        let busy = trace.values()[7]; // the burst window
        assert!(busy > quiet * 1.5, "busy {busy} quiet {quiet}");
    }

    #[test]
    fn counts_match_kernel_log_totals() {
        let sim = sim();
        let atk = ProcInterruptsAttacker::new(Nanos::from_millis(100), ProcAccess::Unrestricted);
        let trace = atk.collect(&sim);
        let interrupts = sim
            .kernel_log()
            .events()
            .iter()
            .filter(|e| e.kind.interrupt().is_some() && e.start < Nanos::from_secs(1))
            .count();
        assert_eq!(trace.total() as usize, interrupts);
    }

    #[test]
    fn restriction_kills_the_attack() {
        let sim = sim();
        let atk = ProcInterruptsAttacker::new(Nanos::from_millis(50), ProcAccess::Restricted);
        let trace = atk.collect(&sim);
        assert_eq!(trace.total(), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_period_rejected() {
        ProcInterruptsAttacker::new(Nanos::ZERO, ProcAccess::Unrestricted);
    }
}
