//! Device-IRQ routing policies (§2.2 "Device Interrupts").
//!
//! "Operating systems have various policies for how they balance device
//! interrupts between different cores, but often interrupts are either
//! routed to one specific core based on the interrupt source or distributed
//! among all cores equally."

use crate::interrupt::InterruptKind;
use bf_stats::rng::combine_seeds;

/// How movable device IRQs are assigned to cores.
///
/// Non-movable interrupts (ticks, IPIs, softirqs, IRQ work) never consult
/// this policy — that asymmetry is the paper's Takeaway 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutingPolicy {
    /// Distribute interrupts across all cores (hash of source and
    /// sequence number — models MSI-X spreading / default irqbalance).
    Spread,
    /// Route each device's interrupts to the core its source is bound to
    /// (source-affine, like `/proc/irq/N/smp_affinity` pinning per device).
    BySource,
    /// Bind *all* movable IRQs to one core — the paper's
    /// `irqbalance` configuration isolating the attacker (§5.1).
    PinnedTo(usize),
}

impl RoutingPolicy {
    /// Pick the core that services the `seq`-th interrupt of `kind`.
    ///
    /// Deterministic: the same (policy, kind, seq, num_cores) always maps
    /// to the same core, so simulations replay exactly.
    ///
    /// # Panics
    ///
    /// Panics when `num_cores` is zero or a pinned target is out of range.
    pub fn route(self, kind: InterruptKind, seq: u64, num_cores: usize) -> usize {
        assert!(num_cores > 0, "route needs at least one core");
        debug_assert!(kind.is_movable(), "only movable IRQs are routed by policy");
        match self {
            RoutingPolicy::Spread => {
                let n = num_cores as u64;
                let h = combine_seeds(source_id(kind), seq);
                // Hot path: the modulo picks the core, and core counts are
                // almost always powers of two — mask instead of a 64-bit
                // divide. Identical result either way.
                if n.is_power_of_two() {
                    (h & (n - 1)) as usize
                } else {
                    (h % n) as usize
                }
            }
            RoutingPolicy::BySource => (source_id(kind) % num_cores as u64) as usize,
            RoutingPolicy::PinnedTo(core) => {
                assert!(core < num_cores, "pinned routing target out of range");
                core
            }
        }
    }
}

/// Stable per-device-source identifier.
fn source_id(kind: InterruptKind) -> u64 {
    match kind {
        InterruptKind::NetworkRx => 0x11,
        InterruptKind::Disk => 0x22,
        InterruptKind::Graphics => 0x33,
        InterruptKind::Usb => 0x44,
        // Non-movable kinds never reach `route` in release builds; give
        // them distinct ids anyway for defense in depth.
        InterruptKind::TimerTick => 0x55,
        InterruptKind::RescheduleIpi => 0x66,
        InterruptKind::TlbShootdown => 0x77,
        InterruptKind::Softirq(_) => 0x88,
        InterruptKind::IrqWork => 0x99,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_always_hits_target() {
        let p = RoutingPolicy::PinnedTo(0);
        for seq in 0..100 {
            assert_eq!(p.route(InterruptKind::NetworkRx, seq, 4), 0);
            assert_eq!(p.route(InterruptKind::Graphics, seq, 4), 0);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pinned_out_of_range_panics() {
        RoutingPolicy::PinnedTo(5).route(InterruptKind::Disk, 0, 4);
    }

    #[test]
    fn spread_touches_every_core() {
        let p = RoutingPolicy::Spread;
        let mut seen = [false; 4];
        for seq in 0..200 {
            seen[p.route(InterruptKind::NetworkRx, seq, 4)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn spread_is_roughly_uniform() {
        let p = RoutingPolicy::Spread;
        let mut counts = [0u32; 4];
        for seq in 0..4_000 {
            counts[p.route(InterruptKind::Disk, seq, 4)] += 1;
        }
        for &c in &counts {
            assert!((800..1_200).contains(&c), "counts = {counts:?}");
        }
    }

    #[test]
    fn by_source_is_constant_per_device() {
        let p = RoutingPolicy::BySource;
        let c0 = p.route(InterruptKind::NetworkRx, 0, 4);
        for seq in 1..100 {
            assert_eq!(p.route(InterruptKind::NetworkRx, seq, 4), c0);
        }
    }

    #[test]
    fn routing_is_deterministic() {
        let p = RoutingPolicy::Spread;
        for seq in 0..50 {
            assert_eq!(
                p.route(InterruptKind::Usb, seq, 8),
                p.route(InterruptKind::Usb, seq, 8)
            );
        }
    }
}
