//! Fig. 6 — distributions of interrupt handling times (§5.3).
//!
//! Paper: user-space gap lengths per interrupt type over 50 page loads of
//! 10 websites, measured on a core shielded from network IRQs. All gaps
//! exceed 1.5 µs (Meltdown-mitigation context-switch overhead);
//! softirq/IRQ-work spikes line up with the timer-interrupt spike because
//! deferred work rides timer ticks.

use crate::report::FigureSeries;
use crate::scale::ExperimentScale;
use bf_attack::GapWatcher;
use bf_ebpf::{ProbeSet, TraceSession};
use bf_sim::{InterruptKind, Machine, MachineConfig, SoftirqKind};
use bf_stats::Histogram;
use bf_timer::Nanos;
use bf_victim::Catalog;

/// The interrupt kinds plotted by the paper's figure.
pub const FIGURE_KINDS: [InterruptKind; 4] = [
    InterruptKind::Softirq(SoftirqKind::NetRx),
    InterruptKind::TimerTick,
    InterruptKind::IrqWork,
    InterruptKind::NetworkRx,
];

/// One interrupt kind's gap-length distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct KindDistribution {
    /// The interrupt kind.
    pub kind: InterruptKind,
    /// Histogram over gap length, 0–10 µs in 50 bins (as in the figure).
    pub histogram: Histogram,
    /// Number of samples.
    pub samples: usize,
    /// Minimum observed gap.
    pub min_gap: Nanos,
    /// Modal gap length (bin center), µs.
    pub mode_us: f64,
}

/// The regenerated figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure6 {
    /// Distributions in [`FIGURE_KINDS`] order (kinds with no samples are
    /// omitted).
    pub kinds: Vec<KindDistribution>,
    /// Page loads analyzed.
    pub loads: usize,
}

impl Figure6 {
    /// The distribution for a kind, if observed.
    pub fn kind(&self, kind: InterruptKind) -> Option<&KindDistribution> {
        self.kinds.iter().find(|k| k.kind == kind)
    }
}

impl std::fmt::Display for Figure6 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 6: interrupt gap-length distributions ({} loads)",
            self.loads
        )?;
        for k in &self.kinds {
            let series = FigureSeries::new(k.kind.label(), k.histogram.densities());
            writeln!(
                f,
                "{series}  n={} min={} mode={:.1}us",
                k.samples, k.min_gap, k.mode_us
            )?;
        }
        writeln!(
            f,
            "paper: all gaps > 1.5us; IRQ-work spike matches timer spike (~5.5us)"
        )?;
        for k in &self.kinds {
            write!(
                f,
                "\n{} gap-length histogram (µs):\n{}",
                k.kind,
                k.histogram.render(40)
            )?;
        }
        Ok(())
    }
}

/// Collect gap-length distributions over several page loads.
pub fn run(scale: ExperimentScale, seed: u64) -> Figure6 {
    let (n_sites, loads_per_site) = match scale {
        ExperimentScale::Smoke => (3, 2),
        ExperimentScale::Default => (10, 5),
        ExperimentScale::Paper => (10, 5), // the paper's own protocol
    };
    let duration = Nanos::from_secs(15);
    let machine = Machine::new(MachineConfig::default());
    let watcher = GapWatcher::default();
    let session = TraceSession::new(ProbeSet::all());
    let catalog = Catalog::closed_world_subset(n_sites);

    let mut hists: Vec<(InterruptKind, Histogram, Vec<Nanos>)> = FIGURE_KINDS
        .iter()
        .map(|&k| {
            (
                k,
                Histogram::new(0.0, 10.0, 50).expect("valid bins"),
                Vec::new(),
            )
        })
        .collect();

    let _span = bf_obs::span!("figure6");
    bf_obs::info!("figure 6: {n_sites} sites x {loads_per_site} loads");
    for (si, site) in catalog.sites().iter().enumerate() {
        bf_obs::debug!("site {}/{n_sites}: {}", si + 1, site.hostname());
        for l in 0..loads_per_site {
            let run_seed = seed ^ ((si * 1_000 + l) as u64) << 4;
            let workload = site.generate(duration, run_seed);
            let sim = machine.run(&workload, run_seed ^ 0xF166);
            let gaps = watcher.watch(&sim);
            for (kind, lengths) in session.gap_length_samples(&sim, &gaps) {
                if let Some(entry) = hists.iter_mut().find(|(k, _, _)| *k == kind) {
                    for len in lengths {
                        entry.1.record(len.as_micros_f64());
                        entry.2.push(len);
                    }
                }
            }
        }
    }

    let kinds = hists
        .into_iter()
        .filter(|(_, _, lens)| !lens.is_empty())
        .map(|(kind, histogram, lens)| {
            let min_gap = lens.iter().copied().min().expect("non-empty");
            let mode_us = histogram
                .mode_bin()
                .map(|b| histogram.bin_center(b))
                .unwrap_or(f64::NAN);
            KindDistribution {
                kind,
                samples: lens.len(),
                histogram,
                min_gap,
                mode_us,
            }
        })
        .collect();
    Figure6 {
        kinds,
        loads: n_sites * loads_per_site,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_gaps_exceed_mitigation_floor() {
        let fig = run(ExperimentScale::Smoke, 1);
        assert!(!fig.kinds.is_empty());
        for k in &fig.kinds {
            assert!(
                k.min_gap >= Nanos::from_nanos(1_500),
                "{}: min gap {}",
                k.kind,
                k.min_gap
            );
        }
    }

    #[test]
    fn timer_and_softirq_present() {
        let fig = run(ExperimentScale::Smoke, 2);
        assert!(fig.kind(InterruptKind::TimerTick).is_some());
        assert!(fig
            .kind(InterruptKind::Softirq(SoftirqKind::NetRx))
            .is_some());
    }

    #[test]
    fn gap_modes_are_microsecond_scale() {
        let fig = run(ExperimentScale::Smoke, 3);
        for k in &fig.kinds {
            assert!(
                (1.5..10.0).contains(&k.mode_us),
                "{}: mode {} µs",
                k.kind,
                k.mode_us
            );
        }
    }
}
