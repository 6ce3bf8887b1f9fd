//! Interrupt-activity time series (Fig. 5): percentage of each interval
//! spent in interrupt handlers, split by interrupt class.

use bf_sim::{InterruptClass, SimOutput};
use bf_timer::Nanos;

/// Interrupt-handler time share over consecutive windows, per class.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivitySeries {
    /// Window length.
    pub window: Nanos,
    /// (class, share-per-window) pairs; shares are fractions of window
    /// time spent handling that class.
    pub per_class: Vec<(InterruptClass, Vec<f64>)>,
}

impl ActivitySeries {
    /// Number of windows.
    pub fn windows(&self) -> usize {
        self.per_class.first().map_or(0, |(_, v)| v.len())
    }

    /// Total share (all classes summed) per window.
    pub fn total(&self) -> Vec<f64> {
        let n = self.windows();
        let mut out = vec![0.0; n];
        for (_, shares) in &self.per_class {
            for (o, s) in out.iter_mut().zip(shares) {
                *o += s;
            }
        }
        out
    }

    /// The series for one class, if present.
    pub fn class(&self, class: InterruptClass) -> Option<&[f64]> {
        self.per_class.iter().find(|(c, _)| *c == class).map(|(_, v)| v.as_slice())
    }
}

/// Compute interrupt-time share on a core over consecutive `window`-sized
/// intervals (Fig. 5 uses 100 ms windows).
///
/// # Panics
///
/// Panics when `window` is zero.
pub fn interrupt_activity(sim: &SimOutput, core: usize, window: Nanos) -> ActivitySeries {
    assert!(window > Nanos::ZERO, "window must be positive");
    let n = (sim.duration / window) as usize;
    let mut per_class: Vec<(InterruptClass, Vec<f64>)> =
        InterruptClass::ALL.iter().map(|&c| (c, vec![0.0; n])).collect();
    let w_ns = window.as_nanos() as f64;
    for ev in sim.kernel_log().events_on_core(core) {
        let Some(kind) = ev.kind.interrupt() else { continue };
        let class = kind.class();
        let series = &mut per_class
            .iter_mut()
            .find(|(c, _)| *c == class)
            .expect("all classes pre-registered")
            .1;
        // An event may straddle window boundaries; split its time.
        let mut t = ev.start;
        while t < ev.end {
            let idx = (t / window) as usize;
            if idx >= n {
                break;
            }
            let w_end = window * (idx as u64 + 1);
            let seg_end = ev.end.min(w_end);
            series[idx] += (seg_end - t).as_nanos() as f64 / w_ns;
            t = seg_end;
        }
    }
    ActivitySeries { window, per_class }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bf_sim::{Machine, MachineConfig, TimedEvent, Workload, WorkloadEvent};

    fn burst_sim() -> SimOutput {
        let mut w = Workload::new(Nanos::from_secs(1));
        for i in 0..4_000u64 {
            w.push(TimedEvent {
                t: Nanos::from_millis(300) + Nanos::from_micros(i * 50),
                event: WorkloadEvent::NetworkPacket { bytes: 1_400 },
            });
        }
        let mut cfg = MachineConfig::default();
        cfg.isolation.pin_cores = true;
        Machine::new(cfg).run(&w, 9)
    }

    #[test]
    fn activity_peaks_during_burst() {
        let sim = burst_sim();
        let act = interrupt_activity(&sim, sim.attacker_core, Nanos::from_millis(100));
        let total = act.total();
        assert_eq!(total.len(), 10);
        let burst_max = total[3].max(total[4]);
        let quiet = total[8];
        assert!(burst_max > quiet * 1.5, "burst {burst_max} vs quiet {quiet}");
    }

    #[test]
    fn shares_are_fractions() {
        let sim = burst_sim();
        let act = interrupt_activity(&sim, sim.attacker_core, Nanos::from_millis(100));
        for v in act.total() {
            assert!((0.0..=1.0).contains(&v), "share = {v}");
        }
    }

    #[test]
    fn timer_class_always_present() {
        let sim = burst_sim();
        let act = interrupt_activity(&sim, sim.attacker_core, Nanos::from_millis(100));
        let timer = act.class(InterruptClass::Timer).unwrap();
        assert!(timer.iter().all(|&s| s > 0.0), "ticks occur in every window");
    }

    #[test]
    fn softirq_class_rises_with_network_burst() {
        let sim = burst_sim();
        let act = interrupt_activity(&sim, sim.attacker_core, Nanos::from_millis(100));
        let softirq = act.class(InterruptClass::Softirq).unwrap();
        assert!(softirq[3] + softirq[4] > softirq[8] + softirq[9]);
    }

    #[test]
    fn event_straddling_windows_is_split() {
        // Total share across all windows times window length equals total
        // interrupt time on the core.
        let sim = burst_sim();
        let window = Nanos::from_millis(100);
        let act = interrupt_activity(&sim, sim.attacker_core, window);
        let measured: f64 =
            act.total().iter().sum::<f64>() * window.as_nanos() as f64;
        let truth = sim
            .kernel_log()
            .interrupt_time_on_core(sim.attacker_core, Nanos::ZERO, sim.duration)
            .as_nanos() as f64;
        // Events running past the duration boundary are clipped by the
        // window accounting; allow a small tolerance.
        assert!((measured - truth).abs() / truth < 0.01, "measured {measured} truth {truth}");
    }
}
