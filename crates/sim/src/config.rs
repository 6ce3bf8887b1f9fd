//! Machine and experiment configuration.

use crate::routing::RoutingPolicy;
use bf_timer::Nanos;

/// Operating systems evaluated in Table 1.
///
/// The OS determines the scheduler tick period, the background housekeeping
/// interrupt volume, and the default IRQ distribution policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OsKind {
    /// Ubuntu 20.04-like Linux (CONFIG_HZ=250, irqbalance available).
    Linux,
    /// Windows 10: 1 ms multimedia timer while a browser is active.
    Windows,
    /// macOS Big Sur.
    MacOs,
}

impl OsKind {
    /// All OSes in the Table 1 grid.
    pub const ALL: [OsKind; 3] = [OsKind::Linux, OsKind::Windows, OsKind::MacOs];

    /// Scheduler timer-tick period on a busy core.
    pub fn tick_period(self) -> Nanos {
        match self {
            OsKind::Linux => Nanos::from_millis(4), // CONFIG_HZ=250
            OsKind::Windows => Nanos::from_millis(1),
            OsKind::MacOs => Nanos::from_millis(1),
        }
    }

    /// Baseline rate (events/second, whole machine) of background
    /// housekeeping activity: kworker wakeups, RCU callbacks, NTP, daemons.
    pub fn background_noise_rate(self) -> f64 {
        match self {
            OsKind::Linux => 120.0,
            OsKind::Windows => 220.0,
            OsKind::MacOs => 160.0,
        }
    }

    /// Label for reports.
    pub fn label(self) -> &'static str {
        match self {
            OsKind::Linux => "Linux",
            OsKind::Windows => "Windows",
            OsKind::MacOs => "macOS",
        }
    }
}

impl std::fmt::Display for OsKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Virtual-machine placement of the attacker and victim (§5.1, Table 3
/// row 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VmMode {
    /// Attacker and victim share the host OS directly.
    #[default]
    None,
    /// Attacker and victim run in two separate virtual machines. Interrupts
    /// delivered to a VM core pay host *and* guest handling: VM exits and
    /// entries amplify every gap the attacker observes, which is the
    /// paper's explanation for Table 3's accuracy *increase* under VM
    /// isolation.
    SeparateVms,
}

/// CPU frequency scaling (DVFS) model.
///
/// §5.1 ("Disable Frequency Scaling"): the paper's machine runs at
/// 1.6–3 GHz and is pinned to 2.5 GHz with `cpufreq-set` for the second
/// Table 3 row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrequencyConfig {
    /// Whether the governor may vary the clock.
    pub scaling_enabled: bool,
    /// Fraction by which all-core activity depresses the attacker core's
    /// effective frequency (turbo budget sharing), e.g. 0.08 = up to 8 %.
    pub activity_droop: f64,
    /// Standard deviation of slow multiplicative frequency noise.
    pub noise_std: f64,
    /// Interval between governor re-evaluations.
    pub update_period: Nanos,
}

impl Default for FrequencyConfig {
    fn default() -> Self {
        FrequencyConfig {
            scaling_enabled: true,
            activity_droop: 0.06,
            noise_std: 0.004,
            update_period: Nanos::from_millis(20),
        }
    }
}

impl FrequencyConfig {
    /// A fixed-frequency configuration (`cpufreq-set` pinning).
    pub fn pinned() -> Self {
        FrequencyConfig { scaling_enabled: false, ..Self::default() }
    }
}

/// Last-level cache model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Total LLC size in cache lines (6 MiB / 64 B = 98 304 for the
    /// paper's Core i5).
    pub lines: u32,
    /// Time to touch one resident (hit) line during a sweep.
    pub hit_time: Nanos,
    /// Additional penalty for a line that must be refetched from DRAM.
    pub miss_penalty: Nanos,
    /// Fraction of the attacker's own buffer that self-evicts between
    /// sweeps even on an idle machine (set-associativity conflicts and
    /// prefetcher churn) — the sweep attacker's self-noise floor.
    pub self_eviction_rate: f64,
    /// Fraction of victim cache-line loads that actually displace
    /// attacker lines visibly: set-associative placement, replacement
    /// policy luck, and the attacker's own sweeping keep the
    /// cache-occupancy channel far from perfect.
    pub victim_visibility: f64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            lines: 98_304,
            hit_time: Nanos::from_nanos(1),
            miss_penalty: Nanos::from_nanos(14),
            self_eviction_rate: 0.04,
            victim_visibility: 0.12,
        }
    }
}

/// Isolation mechanisms, applied cumulatively in Table 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IsolationConfig {
    /// `cpufreq-set`: pin the clock (row 2).
    pub pin_frequency: bool,
    /// `taskset`: pin attacker and victim to disjoint cores (row 3).
    pub pin_cores: bool,
    /// `irqbalance`: bind all movable IRQs to core 0 (row 4).
    pub confine_movable_irqs: bool,
    /// Run attacker and victim in separate VMs (row 5).
    pub vm: VmMode,
}

impl Default for IsolationConfig {
    fn default() -> Self {
        IsolationConfig {
            pin_frequency: false,
            pin_cores: false,
            confine_movable_irqs: false,
            vm: VmMode::None,
        }
    }
}

impl IsolationConfig {
    /// The five cumulative configurations of Table 3, in row order.
    pub fn table3_ladder() -> Vec<(&'static str, IsolationConfig)> {
        let mut cfg = IsolationConfig::default();
        let mut out = vec![("Default", cfg)];
        cfg.pin_frequency = true;
        out.push(("+ Disable frequency scaling", cfg));
        cfg.pin_cores = true;
        out.push(("+ Pin to separate cores", cfg));
        cfg.confine_movable_irqs = true;
        out.push(("+ Remove IRQ interrupts", cfg));
        cfg.vm = VmMode::SeparateVms;
        out.push(("+ Run in separate VMs", cfg));
        out
    }
}

/// Full machine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of physical cores (the paper's desktops: 4, no SMT).
    pub num_cores: usize,
    /// Operating system model.
    pub os: OsKind,
    /// Device-IRQ routing policy. `None` derives the OS default
    /// (spread), or the irqbalance confinement when
    /// `isolation.confine_movable_irqs` is set.
    pub routing: Option<RoutingPolicy>,
    /// Frequency scaling model.
    pub frequency: FrequencyConfig,
    /// LLC parameters.
    pub cache: CacheConfig,
    /// Isolation mechanisms in effect.
    pub isolation: IsolationConfig,
    /// Fixed per-interrupt kernel entry/exit overhead. §5.3: all observed
    /// gaps exceed 1.5 µs "due to the high overhead of context switches
    /// caused by mitigations for Meltdown".
    pub mitigation_overhead: Nanos,
    /// Handler-time multiplier applied inside a VM (host + guest handling,
    /// VM exits/entries). Only used when `isolation.vm` is
    /// [`VmMode::SeparateVms`].
    pub vm_amplification: f64,
    /// Fixed extra VM-exit/entry cost per interrupt in VM mode.
    pub vm_exit_cost: Nanos,
    /// Model Intel Turbo Boost being enabled: adds hardware-level
    /// frequency-transition stalls that pause user code with **no**
    /// kernel-side record (paper footnote 4). The paper runs its §5.2
    /// attribution analysis with Turbo Boost disabled, which is the
    /// default here.
    pub turbo_boost: bool,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            num_cores: 4,
            os: OsKind::Linux,
            routing: None,
            frequency: FrequencyConfig::default(),
            cache: CacheConfig::default(),
            isolation: IsolationConfig::default(),
            mitigation_overhead: Nanos::from_nanos(1_500),
            vm_amplification: 1.9,
            vm_exit_cost: Nanos::from_nanos(2_500),
            turbo_boost: false,
        }
    }
}

impl MachineConfig {
    /// Configuration for one Table 1 cell: default isolation on the given
    /// OS.
    pub fn for_os(os: OsKind) -> Self {
        MachineConfig { os, ..Self::default() }
    }

    /// Apply an isolation ladder entry (Table 3), adjusting the frequency
    /// and routing models to match.
    pub fn with_isolation(mut self, isolation: IsolationConfig) -> Self {
        self.isolation = isolation;
        if isolation.pin_frequency {
            self.frequency = FrequencyConfig::pinned();
        }
        self
    }

    /// The core the attacker runs on (the highest-numbered core; core 0 is
    /// the irqbalance target).
    pub fn attacker_core(&self) -> usize {
        self.num_cores - 1
    }

    /// The effective device-IRQ routing policy.
    pub fn effective_routing(&self) -> RoutingPolicy {
        if let Some(r) = self.routing {
            return r;
        }
        if self.isolation.confine_movable_irqs {
            RoutingPolicy::PinnedTo(0)
        } else {
            RoutingPolicy::Spread
        }
    }

    /// Validate structural invariants.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_cores < 2 {
            return Err("need at least 2 cores (attacker + victim)".into());
        }
        if let Some(RoutingPolicy::PinnedTo(c)) = self.routing {
            if c >= self.num_cores {
                return Err(format!("routing target core {c} out of range"));
            }
        }
        if self.vm_amplification < 1.0 {
            return Err("vm_amplification must be >= 1.0".into());
        }
        if self.cache.lines == 0 {
            return Err("cache must have at least one line".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert_eq!(MachineConfig::default().validate(), Ok(()));
    }

    #[test]
    fn attacker_core_is_last() {
        let c = MachineConfig::default();
        assert_eq!(c.attacker_core(), 3);
    }

    #[test]
    fn tick_periods_by_os() {
        assert_eq!(OsKind::Linux.tick_period(), Nanos::from_millis(4));
        assert_eq!(OsKind::Windows.tick_period(), Nanos::from_millis(1));
    }

    #[test]
    fn irqbalance_pins_routing_to_core0() {
        let mut c = MachineConfig::default();
        assert_eq!(c.effective_routing(), RoutingPolicy::Spread);
        c.isolation.confine_movable_irqs = true;
        assert_eq!(c.effective_routing(), RoutingPolicy::PinnedTo(0));
    }

    #[test]
    fn explicit_routing_wins() {
        let mut c = MachineConfig::default();
        c.isolation.confine_movable_irqs = true;
        c.routing = Some(RoutingPolicy::Spread);
        assert_eq!(c.effective_routing(), RoutingPolicy::Spread);
    }

    #[test]
    fn table3_ladder_is_cumulative() {
        let ladder = IsolationConfig::table3_ladder();
        assert_eq!(ladder.len(), 5);
        assert_eq!(ladder[0].1, IsolationConfig::default());
        assert!(ladder[1].1.pin_frequency && !ladder[1].1.pin_cores);
        assert!(ladder[2].1.pin_cores && !ladder[2].1.confine_movable_irqs);
        assert!(ladder[3].1.confine_movable_irqs);
        assert_eq!(ladder[4].1.vm, VmMode::SeparateVms);
        // every earlier mechanism stays on
        assert!(ladder[4].1.pin_frequency && ladder[4].1.pin_cores);
    }

    #[test]
    fn with_isolation_pins_frequency() {
        let iso = IsolationConfig { pin_frequency: true, ..Default::default() };
        let c = MachineConfig::default().with_isolation(iso);
        assert!(!c.frequency.scaling_enabled);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let c = MachineConfig { num_cores: 1, ..Default::default() };
        assert!(c.validate().is_err());

        let c = MachineConfig {
            routing: Some(RoutingPolicy::PinnedTo(9)),
            ..Default::default()
        };
        assert!(c.validate().is_err());

        let c = MachineConfig { vm_amplification: 0.5, ..Default::default() };
        assert!(c.validate().is_err());
    }
}
