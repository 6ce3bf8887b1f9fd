//! §5.2 — identifying the underlying side channel via kernel
//! instrumentation.
//!
//! Paper: "our eBPF tool confirms that over 99% of execution gaps longer
//! than 100 nanoseconds are caused by interrupts. We consider this result
//! to serve as a rigorous proof that our loop-counting attacker primarily
//! exploits signals from system interrupts." (Takeaway 4)

use crate::scale::ExperimentScale;
use bf_attack::GapWatcher;
use bf_ebpf::{AttributionReport, ProbeSet, TraceSession};
use bf_sim::{Machine, MachineConfig};
use bf_timer::Nanos;
use bf_victim::Catalog;
use std::collections::BTreeMap;

/// The aggregated attribution analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct LeakageAnalysis {
    /// Total attacker-observed gaps > 100 ns.
    pub total_gaps: usize,
    /// Gaps attributed to at least one probed interrupt.
    pub attributed: usize,
    /// Gaps explained only by scheduler preemption.
    pub preemption_only: usize,
    /// Gaps containing each interrupt kind (by label).
    pub kind_counts: BTreeMap<String, usize>,
    /// Page loads analyzed.
    pub loads: usize,
}

impl LeakageAnalysis {
    /// The fraction of gaps caused by interrupts — the >99 % claim.
    pub fn attributed_fraction(&self) -> f64 {
        if self.total_gaps == 0 {
            return 1.0;
        }
        self.attributed as f64 / self.total_gaps as f64
    }
}

impl std::fmt::Display for LeakageAnalysis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "§5.2 leakage analysis over {} page loads", self.loads)?;
        writeln!(
            f,
            "gaps >100ns: {}; attributed to interrupts: {} ({:.2}%)  [paper: >99%]",
            self.total_gaps,
            self.attributed,
            self.attributed_fraction() * 100.0
        )?;
        writeln!(f, "preemption-only gaps: {}", self.preemption_only)?;
        for (kind, count) in &self.kind_counts {
            writeln!(f, "  {kind:<18} in {count} gaps")?;
        }
        Ok(())
    }
}

/// Run the attribution analysis: loop attacker's observed gaps vs the
/// kernel log, on a core-pinned machine (preemptions excluded so the
/// interrupt claim is tested in its sharpest form).
pub fn run(scale: ExperimentScale, seed: u64) -> LeakageAnalysis {
    let (n_sites, loads_per_site) = match scale {
        ExperimentScale::Smoke => (2, 2),
        ExperimentScale::Default => (6, 4),
        ExperimentScale::Paper => (10, 10),
    };
    let duration = Nanos::from_secs(15);
    let mut cfg = MachineConfig::default();
    cfg.isolation.pin_cores = true;
    let machine = Machine::new(cfg);
    let watcher = GapWatcher::default();
    let session = TraceSession::new(ProbeSet::all());
    let catalog = Catalog::closed_world_subset(n_sites);

    let mut total = 0usize;
    let mut attributed = 0usize;
    let mut preemption_only = 0usize;
    let mut kind_counts: BTreeMap<String, usize> = BTreeMap::new();
    let _span = bf_obs::span!("leakage");
    bf_obs::info!("leakage attribution: {n_sites} sites x {loads_per_site} loads");
    for (si, site) in catalog.sites().iter().enumerate() {
        bf_obs::debug!("site {}/{n_sites}: {}", si + 1, site.hostname());
        for l in 0..loads_per_site {
            let run_seed = seed ^ ((si * 97 + l) as u64) << 5;
            let workload = site.generate(duration, run_seed);
            let sim = machine.run(&workload, run_seed ^ 0x1EAC);
            let gaps = watcher.watch(&sim);
            let report: AttributionReport = session.attribute(&sim, &gaps);
            total += report.total_gaps();
            attributed += report.attributed_gaps();
            preemption_only += report.preemption_only_gaps();
            for (k, c) in report.kind_counts() {
                *kind_counts.entry(k).or_insert(0) += c;
            }
        }
    }
    bf_obs::info!(
        "attribution: {attributed}/{total} gaps interrupt-attributed \
         ({preemption_only} preemption-only)"
    );
    LeakageAnalysis {
        total_gaps: total,
        attributed,
        preemption_only,
        kind_counts,
        loads: n_sites * loads_per_site,
    }
}

/// The §5.2 report: [`run`]'s analysis followed by the footnote-4
/// Turbo Boost check of [`run_turbo_comparison`].
pub fn report(scale: ExperimentScale, seed: u64) -> String {
    let analysis = run(scale, seed);
    let (off, on) = run_turbo_comparison(seed);
    format!(
        "{analysis}\nfootnote 4 check - attribution with Turbo Boost disabled: {:.2}%, \
         enabled: {:.2}%\n(the paper disables Turbo Boost for exactly this reason)",
        off * 100.0,
        on * 100.0
    )
}

/// Footnote-4 comparison: attribution fraction with Turbo Boost disabled
/// (the paper's analysis setting) vs enabled. Returns
/// `(fraction_turbo_off, fraction_turbo_on)`.
pub fn run_turbo_comparison(seed: u64) -> (f64, f64) {
    let duration = Nanos::from_secs(10);
    let site = Catalog::closed_world_subset(1).sites()[0].clone();
    let watcher = GapWatcher::default();
    let session = TraceSession::new(ProbeSet::all());
    let fraction = |turbo: bool| {
        let mut cfg = MachineConfig::default();
        cfg.isolation.pin_cores = true;
        cfg.turbo_boost = turbo;
        let workload = site.generate(duration, seed);
        let sim = Machine::new(cfg).run(&workload, seed ^ 0x7B0);
        let gaps = watcher.watch(&sim);
        session.attribute(&sim, &gaps).attributed_fraction()
    };
    (fraction(false), fraction(true))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn turbo_comparison_reproduces_footnote4() {
        let (off, on) = run_turbo_comparison(9);
        assert!(off > 0.99, "turbo off: {off}");
        assert!(on < off - 0.03, "turbo on {on} should visibly lag {off}");
    }

    #[test]
    fn over_99_percent_of_gaps_are_interrupts() {
        let a = run(ExperimentScale::Smoke, 1);
        assert!(a.total_gaps > 1_000, "total = {}", a.total_gaps);
        assert!(
            a.attributed_fraction() > 0.99,
            "fraction = {:.4}",
            a.attributed_fraction()
        );
    }

    #[test]
    fn nonmovable_kinds_dominate_the_counts() {
        let a = run(ExperimentScale::Smoke, 2);
        let get = |k: &str| a.kind_counts.get(k).copied().unwrap_or(0);
        // Takeaway 5: softirqs and rescheduling IPIs are major leakage
        // sources.
        assert!(get("timer") > 0);
        assert!(get("softirq_net_rx") + get("softirq_timer") + get("softirq_rcu") > 0);
        assert!(get("resched_ipi") > 0);
    }

    #[test]
    fn display_cites_the_claim() {
        let a = run(ExperimentScale::Smoke, 3);
        assert!(a.to_string().contains("paper: >99%"));
    }
}
