//! Deferred-work piggybacking analysis (§5.3).
//!
//! "Multiple interrupts can be associated with a single gap in user-space
//! execution. This is particularly common for softirqs and IRQ work
//! because neither can happen on their own, and thus are typically run
//! while processing a timer interrupt. This is visible in Figure 6."
//!
//! This module quantifies that claim: for each interrupt kind, what
//! fraction of its user-visible gaps also contain another interrupt kind?

use bf_attack::ObservedGap;
use bf_sim::{InterruptKind, SimOutput};
use std::collections::BTreeMap;

/// Co-occurrence statistics for one interrupt kind.
#[derive(Debug, Clone, PartialEq)]
pub struct Cohabitation {
    /// The kind under analysis.
    pub kind: InterruptKind,
    /// Gaps containing this kind.
    pub gaps: usize,
    /// Of those, gaps shared with at least one other interrupt kind.
    pub shared: usize,
    /// Kinds this one shares gaps with, with counts.
    pub partners: BTreeMap<String, usize>,
}

impl Cohabitation {
    /// Fraction of this kind's gaps that contain other interrupt kinds.
    pub fn shared_fraction(&self) -> f64 {
        if self.gaps == 0 {
            return 0.0;
        }
        self.shared as f64 / self.gaps as f64
    }

    /// The most frequent gap partner, if any.
    pub fn top_partner(&self) -> Option<(&str, usize)> {
        self.partners.iter().max_by_key(|(_, &c)| c).map(|(k, &c)| (k.as_str(), c))
    }
}

/// Compute per-kind gap co-occurrence over the attacker core.
pub fn cohabitation(sim: &SimOutput, gaps: &[ObservedGap]) -> Vec<Cohabitation> {
    // Kinds present in each observed gap, in gap order.
    let events: Vec<_> = sim
        .attacker_kernel_events()
        .iter()
        .filter_map(|e| e.kind.interrupt().map(|k| (e.start, e.end, k)))
        .collect();
    let mut per_gap: Vec<Vec<InterruptKind>> = vec![Vec::new(); gaps.len()];
    let mut cursor = 0usize;
    for (gi, gap) in gaps.iter().enumerate() {
        while cursor < events.len() && events[cursor].1 <= gap.start {
            cursor += 1;
        }
        let mut i = cursor;
        while i < events.len() && events[i].0 < gap.end {
            if !per_gap[gi].contains(&events[i].2) {
                per_gap[gi].push(events[i].2);
            }
            i += 1;
        }
    }

    let mut out: BTreeMap<&'static str, Cohabitation> = BTreeMap::new();
    for kinds in &per_gap {
        for &k in kinds {
            let entry = out.entry(k.label()).or_insert_with(|| Cohabitation {
                kind: k,
                gaps: 0,
                shared: 0,
                partners: BTreeMap::new(),
            });
            entry.gaps += 1;
            if kinds.len() > 1 {
                entry.shared += 1;
            }
        }
        // Partner counting needs a second pass per gap.
        for &k in kinds {
            for &other in kinds {
                if other != k {
                    let entry = out.get_mut(k.label()).expect("inserted above");
                    *entry.partners.entry(other.label().to_owned()).or_insert(0) += 1;
                }
            }
        }
    }
    out.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bf_attack::GapWatcher;
    use bf_sim::{Machine, MachineConfig, SoftirqKind, TimedEvent, Workload, WorkloadEvent};
    use bf_timer::Nanos;

    fn analyzed() -> Vec<Cohabitation> {
        let mut w = Workload::new(Nanos::from_secs(2));
        for i in 0..3_000u64 {
            w.push(TimedEvent {
                t: Nanos::from_millis(100) + Nanos::from_micros(i * 400),
                event: WorkloadEvent::NetworkPacket { bytes: 1_200 },
            });
        }
        let mut cfg = MachineConfig::default();
        cfg.isolation.pin_cores = true;
        let sim = Machine::new(cfg).run(&w, 3);
        let gaps = GapWatcher::default().watch(&sim);
        cohabitation(&sim, &gaps)
    }

    fn find(stats: &[Cohabitation], kind: InterruptKind) -> Option<&Cohabitation> {
        stats.iter().find(|c| c.kind == kind)
    }

    #[test]
    fn softirqs_share_gaps_more_than_timer_ticks() {
        // §5.3: softirqs ride other interrupts' gaps; plain timer ticks
        // mostly stand alone.
        let stats = analyzed();
        let softirq = find(&stats, InterruptKind::Softirq(SoftirqKind::NetRx))
            .expect("net_rx softirqs present");
        let timer = find(&stats, InterruptKind::TimerTick).expect("ticks present");
        assert!(
            softirq.shared_fraction() > timer.shared_fraction(),
            "softirq {:.2} vs timer {:.2}",
            softirq.shared_fraction(),
            timer.shared_fraction()
        );
    }

    #[test]
    fn every_kind_has_gaps() {
        for c in analyzed() {
            assert!(c.gaps > 0, "{}", c.kind);
            assert!(c.shared <= c.gaps);
        }
    }

    #[test]
    fn partners_are_symmetric_in_presence() {
        let stats = analyzed();
        // If A lists B as a partner, B must list A.
        for a in &stats {
            for partner in a.partners.keys() {
                let b = stats
                    .iter()
                    .find(|c| c.kind.label() == partner)
                    .expect("partner kind present");
                assert!(
                    b.partners.contains_key(a.kind.label()),
                    "{} -> {partner} not symmetric",
                    a.kind
                );
            }
        }
    }

    #[test]
    fn top_partner_reported() {
        let stats = analyzed();
        let softirq = find(&stats, InterruptKind::Softirq(SoftirqKind::NetRx)).unwrap();
        if softirq.shared > 0 {
            assert!(softirq.top_partner().is_some());
        }
    }
}
