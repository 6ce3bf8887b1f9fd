//! Matching attacker-observed gaps to kernel interrupt records.

use crate::probe::ProbeSet;
use bf_attack::ObservedGap;
use bf_sim::{InterruptKind, KernelEvent, SimOutput};
use bf_timer::Nanos;
use std::collections::BTreeMap;

/// What one observed gap was attributed to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GapAttribution {
    /// The gap as the attacker saw it.
    pub gap: ObservedGap,
    /// Probed interrupt kinds whose kernel records overlap the gap
    /// (several per gap is common: softirqs and IRQ work piggyback on
    /// timer ticks).
    pub kinds: Vec<InterruptKind>,
    /// Whether any non-interrupt kernel activity (a context switch)
    /// overlapped instead.
    pub preempted: bool,
}

impl GapAttribution {
    /// True when at least one probed interrupt explains the gap.
    pub fn is_interrupt_caused(&self) -> bool {
        !self.kinds.is_empty()
    }
}

/// The §5.2 analysis result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributionReport {
    /// Per-gap attributions, in gap order.
    pub attributions: Vec<GapAttribution>,
    /// Gap-size threshold used (the paper analyzes gaps >100 ns).
    pub threshold: Nanos,
}

impl AttributionReport {
    /// Number of gaps above the threshold.
    pub fn total_gaps(&self) -> usize {
        self.attributions.len()
    }

    /// Number of gaps attributed to at least one probed interrupt.
    pub fn attributed_gaps(&self) -> usize {
        self.attributions.iter().filter(|a| a.is_interrupt_caused()).count()
    }

    /// Fraction of gaps explained by interrupts — the paper's ">99 %"
    /// number. Returns 1.0 when there are no gaps at all.
    pub fn attributed_fraction(&self) -> f64 {
        if self.attributions.is_empty() {
            return 1.0;
        }
        self.attributed_gaps() as f64 / self.total_gaps() as f64
    }

    /// Count of gaps containing each interrupt kind.
    pub fn kind_counts(&self) -> BTreeMap<String, usize> {
        let mut out = BTreeMap::new();
        for a in &self.attributions {
            for k in &a.kinds {
                *out.entry(k.label().to_owned()).or_insert(0) += 1;
            }
        }
        out
    }

    /// Gaps explained only by scheduler preemption.
    pub fn preemption_only_gaps(&self) -> usize {
        self.attributions
            .iter()
            .filter(|a| !a.is_interrupt_caused() && a.preempted)
            .count()
    }
}

/// Kernel interrupt records on the attacker core, filtered to probe
/// coverage and sorted by start time.
fn probed_events<'a>(
    sim: &'a SimOutput,
    probes: &ProbeSet,
) -> Vec<&'a KernelEvent> {
    sim.attacker_kernel_events()
        .iter()
        .filter(|e| match e.kind.interrupt() {
            Some(k) => probes.covers(k),
            None => true, // context switches are visible to the scheduler tracepoints
        })
        .collect()
}

/// Attribute each observed gap above the watcher's threshold to the
/// kernel records overlapping it.
pub fn attribute_gaps(
    sim: &SimOutput,
    gaps: &[ObservedGap],
    probes: &ProbeSet,
) -> AttributionReport {
    let events = probed_events(sim, probes);
    let mut attributions = Vec::with_capacity(gaps.len());
    let mut cursor = 0usize;
    for gap in gaps {
        // Advance past events that end before this gap starts.
        while cursor < events.len() && events[cursor].end <= gap.start {
            cursor += 1;
        }
        let mut kinds = Vec::new();
        let mut preempted = false;
        let mut i = cursor;
        while i < events.len() && events[i].start < gap.end {
            match events[i].kind.interrupt() {
                Some(k) => {
                    if !kinds.contains(&k) {
                        kinds.push(k);
                    }
                }
                None => preempted = true,
            }
            i += 1;
        }
        attributions.push(GapAttribution { gap: *gap, kinds, preempted });
    }
    AttributionReport { attributions, threshold: Nanos::from_nanos(100) }
}

/// For every probed kernel interrupt record, the total length of the
/// observed gap containing it (Fig. 6 samples). Interrupts falling outside
/// any observed gap (e.g. below the watcher threshold) are skipped.
pub fn gap_length_by_kind(
    sim: &SimOutput,
    gaps: &[ObservedGap],
    probes: &ProbeSet,
) -> Vec<(InterruptKind, Vec<Nanos>)> {
    let events = probed_events(sim, probes);
    let mut out: BTreeMap<&'static str, (InterruptKind, Vec<Nanos>)> = BTreeMap::new();
    let mut gi = 0usize;
    for ev in events {
        let Some(kind) = ev.kind.interrupt() else { continue };
        while gi < gaps.len() && gaps[gi].end <= ev.start {
            gi += 1;
        }
        // The containing gap, if this event lies within one.
        let mut j = gi;
        while j < gaps.len() && gaps[j].start < ev.end {
            if gaps[j].start <= ev.start && ev.end <= gaps[j].end {
                out.entry(kind.label())
                    .or_insert_with(|| (kind, Vec::new()))
                    .1
                    .push(gaps[j].len());
                break;
            }
            j += 1;
        }
    }
    out.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bf_attack::GapWatcher;
    use bf_sim::{Machine, MachineConfig, TimedEvent, Workload, WorkloadEvent};

    fn sim() -> SimOutput {
        let mut w = Workload::new(Nanos::from_millis(500));
        for i in 0..500u64 {
            w.push(TimedEvent {
                t: Nanos::from_millis(50) + Nanos::from_micros(i * 300),
                event: WorkloadEvent::NetworkPacket { bytes: 1_200 },
            });
        }
        for i in 0..300u64 {
            w.push(TimedEvent {
                t: Nanos::from_millis(60) + Nanos::from_micros(i * 500),
                event: WorkloadEvent::VictimWake,
            });
        }
        Machine::new(MachineConfig::default()).run(&w, 5)
    }

    #[test]
    fn full_probes_attribute_over_99_percent() {
        let sim = sim();
        let gaps = GapWatcher::default().watch(&sim);
        let report = attribute_gaps(&sim, &gaps, &ProbeSet::all());
        assert!(report.total_gaps() > 50);
        assert!(
            report.attributed_fraction() > 0.99,
            "fraction = {}",
            report.attributed_fraction()
        );
    }

    #[test]
    fn missing_probe_lowers_attribution() {
        let sim = sim();
        let gaps = GapWatcher::default().watch(&sim);
        let full = attribute_gaps(&sim, &gaps, &ProbeSet::all());
        let partial = attribute_gaps(
            &sim,
            &gaps,
            &ProbeSet::all().without(InterruptKind::TimerTick),
        );
        assert!(partial.attributed_fraction() < full.attributed_fraction());
    }

    #[test]
    fn kind_counts_include_timer_ticks() {
        let sim = sim();
        let gaps = GapWatcher::default().watch(&sim);
        let report = attribute_gaps(&sim, &gaps, &ProbeSet::all());
        let counts = report.kind_counts();
        assert!(counts.get("timer").copied().unwrap_or(0) > 50, "{counts:?}");
    }

    #[test]
    fn no_probes_attribute_nothing() {
        let sim = sim();
        let gaps = GapWatcher::default().watch(&sim);
        let report = attribute_gaps(&sim, &gaps, &ProbeSet::none());
        assert_eq!(report.attributed_gaps(), 0);
        assert!(report.total_gaps() > 0);
    }

    #[test]
    fn empty_gap_list_is_fully_attributed() {
        let sim = sim();
        let report = attribute_gaps(&sim, &[], &ProbeSet::all());
        assert_eq!(report.attributed_fraction(), 1.0);
        assert_eq!(report.total_gaps(), 0);
    }

    #[test]
    fn gap_lengths_exceed_mitigation_floor() {
        // §5.3: all gaps associated with interrupts exceed 1.5 µs.
        let sim = sim();
        let gaps = GapWatcher::default().watch(&sim);
        let samples = gap_length_by_kind(&sim, &gaps, &ProbeSet::all());
        assert!(!samples.is_empty());
        for (kind, lengths) in &samples {
            for len in lengths {
                assert!(*len >= Nanos::from_nanos(1_500), "{kind}: {len}");
            }
        }
    }

    #[test]
    fn turbo_boost_breaks_the_99_percent_claim() {
        // Footnote 4: with Turbo Boost enabled, a significant number of
        // gaps do not correspond to time in the OS — the attribution
        // fraction must visibly drop below the disabled-Turbo result.
        let cfg = MachineConfig { turbo_boost: true, ..Default::default() };
        let mut w = Workload::new(Nanos::from_millis(500));
        for i in 0..500u64 {
            w.push(TimedEvent {
                t: Nanos::from_millis(50) + Nanos::from_micros(i * 300),
                event: WorkloadEvent::NetworkPacket { bytes: 1_200 },
            });
        }
        let sim = Machine::new(cfg).run(&w, 5);
        let gaps = GapWatcher::default().watch(&sim);
        let report = attribute_gaps(&sim, &gaps, &ProbeSet::all());
        assert!(
            report.attributed_fraction() < 0.95,
            "turbo-on fraction = {}",
            report.attributed_fraction()
        );
    }

    #[test]
    fn piggybacked_softirqs_share_timer_gap_lengths() {
        // Fig. 6: the IRQ-work/softirq gap spike matches the timer-tick
        // spike because they run inside the same gap. Verify that some
        // gaps contain multiple kinds.
        let sim = sim();
        let gaps = GapWatcher::default().watch(&sim);
        let report = attribute_gaps(&sim, &gaps, &ProbeSet::all());
        let multi = report.attributions.iter().filter(|a| a.kinds.len() >= 2).count();
        assert!(multi > 0, "expected some gaps containing multiple interrupt kinds");
    }
}
