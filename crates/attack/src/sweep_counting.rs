//! The sweep-counting attacker (Fig. 2a) — Shusterman et al.'s
//! cache-occupancy attack, reimplemented as the baseline.

use crate::replay::{replay_stepped_loop, PeriodRecord};
use crate::trace::Trace;
use bf_sim::{CacheConfig, SimOutput};
use bf_stats::SeedRng;
use bf_timer::{Nanos, Timer};

/// An attacker that sweeps an LLC-sized buffer inside its counting loop.
///
/// Each loop iteration touches every line of a buffer the size of the
/// last-level cache, so one iteration costs ~150 µs and the per-period
/// counter only reaches ~32 (vs ~27 000 for the loop-counting attacker).
/// The sweep time is modulated by how many of the attacker's lines the
/// victim evicted since the previous sweep — the cache-occupancy signal —
/// but the count *also* shrinks whenever interrupts steal the core, which
/// is the coupling the paper exposes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepCountingAttacker {
    /// Period length `P`.
    pub period: Nanos,
    /// Cache geometry and timing.
    pub cache: CacheConfig,
    /// Per-iteration loop overhead besides the sweep itself (timer read,
    /// counter increment, loop control).
    pub loop_overhead: Nanos,
    /// Sigma of the slowly varying memory-latency multiplier (DRAM bank
    /// contention, refresh scheduling, prefetcher phase — correlated on
    /// tens-of-milliseconds timescales, so it does *not* average out the
    /// way per-sweep noise does). This is the mechanism behind §4.3's
    /// finding that "the extensive memory accesses made by the
    /// sweep-counting attack actually inhibit its performance".
    pub memory_noise_sigma: f64,
}

impl SweepCountingAttacker {
    /// Attacker with the given period and cache model.
    ///
    /// # Panics
    ///
    /// Panics when `period` is zero or the cache has no lines.
    pub fn new(period: Nanos, cache: CacheConfig) -> Self {
        assert!(period > Nanos::ZERO, "period must be positive");
        assert!(cache.lines > 0, "cache must have lines");
        SweepCountingAttacker {
            period,
            cache,
            loop_overhead: Nanos::from_nanos(250),
            memory_noise_sigma: 0.008,
        }
    }

    /// Expected sweep time on an idle machine (all hits plus the
    /// self-eviction noise floor) — useful for calibration.
    pub fn idle_sweep_cost(&self) -> Nanos {
        let lines = self.cache.lines as u64;
        let self_miss = (self.cache.lines as f64 * self.cache.self_eviction_rate) as u64;
        self.cache.hit_time * lines + self.cache.miss_penalty * self_miss + self.loop_overhead
    }

    /// Collect a trace over the attacker core of a simulation.
    ///
    /// `seed` drives the attacker-side measurement noise (self-eviction
    /// variation); the victim signal comes from `sim.llc_loads`.
    pub fn collect(&self, sim: &SimOutput, timer: &mut dyn Timer, seed: u64) -> Trace {
        self.collect_detailed(sim, timer, seed).0
    }

    /// Collect a trace plus per-period records.
    pub fn collect_detailed(
        &self,
        sim: &SimOutput,
        timer: &mut dyn Timer,
        seed: u64,
    ) -> (Trace, Vec<PeriodRecord>) {
        let mut rng = SeedRng::new(seed);
        let mut loads = sim.llc_loads.cursor();
        let lines = self.cache.lines as f64;
        let hit = self.cache.hit_time.as_nanos() as f64;
        let miss = self.cache.miss_penalty.as_nanos() as f64;
        let overhead = self.loop_overhead.as_nanos() as f64;
        let base_self = lines * self.cache.self_eviction_rate;
        let mut last_sweep_loads = 0.0f64;
        let visibility = self.cache.victim_visibility;
        // Slowly varying memory-latency multiplier: AR(1) over 20 ms
        // steps.
        let mem_noise = {
            let steps = (sim.duration.as_nanos() / 20_000_000 + 2) as usize;
            let mut series = Vec::with_capacity(steps); // alloc-ok: one per trace, ~750 levels
            let mut level = 0.0f64;
            for _ in 0..steps {
                level = 0.6 * level + rng.normal(0.0, self.memory_noise_sigma);
                series.push(level.exp());
            }
            series
        };
        replay_stepped_loop(sim.attacker_timeline(), timer, self.period, |now| {
            let cum = loads.value_at(now.as_nanos());
            let victim_loads = (cum - last_sweep_loads).max(0.0);
            last_sweep_loads = cum;
            // Only part of the victim's traffic displaces attacker lines,
            // and how much varies sweep to sweep with placement luck.
            let victim_evictions =
                (victim_loads * visibility * rng.log_normal(0.0, 0.45)).min(lines);
            let self_evictions = base_self * rng.log_normal(0.0, 0.45);
            let misses = (victim_evictions + self_evictions).min(lines);
            let mem = mem_noise[(now.as_nanos() / 20_000_000) as usize];
            (lines * hit + misses * miss) * mem + overhead
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bf_sim::{Machine, MachineConfig, TimedEvent, Workload, WorkloadEvent};
    use bf_timer::PreciseTimer;

    fn attacker() -> SweepCountingAttacker {
        SweepCountingAttacker::new(Nanos::from_millis(5), CacheConfig::default())
    }

    #[test]
    fn idle_counts_near_32_per_period() {
        // §3.3: "about 32 for the sweep-counting attacker".
        let sim =
            Machine::new(MachineConfig::default()).run(&Workload::new(Nanos::from_secs(1)), 3);
        let mut timer = PreciseTimer::new();
        let trace = attacker().collect(&sim, &mut timer, 1);
        let mean = trace.total() / trace.len() as f64;
        assert!((25.0..40.0).contains(&mean), "mean = {mean}");
    }

    #[test]
    fn victim_cache_activity_slows_sweeps() {
        let mut w = Workload::new(Nanos::from_secs(1));
        // Heavy cache churn from 400 ms to 600 ms.
        let mut t = Nanos::from_millis(400);
        while t < Nanos::from_millis(600) {
            w.push(TimedEvent { t, event: WorkloadEvent::CacheLoad { lines: 80_000 } });
            t += Nanos::from_millis(3);
        }
        let sim = Machine::new(MachineConfig::default()).run(&w, 4);
        let mut timer = PreciseTimer::new();
        let trace = attacker().collect(&sim, &mut timer, 2);
        let v = trace.values();
        let quiet: f64 = v[20..60].iter().sum::<f64>() / 40.0;
        let busy: f64 = v[82..118].iter().sum::<f64>() / 36.0;
        assert!(busy < quiet * 0.95, "busy {busy} vs quiet {quiet}");
    }

    #[test]
    fn interrupts_also_reduce_sweep_counts() {
        // No cache activity at all — pure interrupt burst still dips the
        // sweep counter (the paper's central observation).
        let mut w = Workload::new(Nanos::from_secs(1));
        for i in 0..8_000u64 {
            w.push(TimedEvent {
                t: Nanos::from_millis(400) + Nanos::from_micros(i * 25),
                event: WorkloadEvent::NetworkPacket { bytes: 1_400 },
            });
        }
        let sim = Machine::new(MachineConfig::default()).run(&w, 5);
        let mut timer = PreciseTimer::new();
        let trace = attacker().collect(&sim, &mut timer, 3);
        let v = trace.values();
        let quiet: f64 = v[20..60].iter().sum::<f64>() / 40.0;
        let busy: f64 = v[82..118].iter().sum::<f64>() / 36.0;
        assert!(busy < quiet * 0.97, "busy {busy} vs quiet {quiet}");
    }

    #[test]
    fn idle_sweep_cost_matches_observed_rate() {
        let a = attacker();
        let cost = a.idle_sweep_cost().as_nanos() as f64;
        let per_period = Nanos::from_millis(5).as_nanos() as f64 / cost;
        assert!((25.0..40.0).contains(&per_period), "per period = {per_period}");
    }

    #[test]
    fn deterministic_per_seed() {
        let sim =
            Machine::new(MachineConfig::default()).run(&Workload::new(Nanos::from_millis(200)), 8);
        let mut t1 = PreciseTimer::new();
        let mut t2 = PreciseTimer::new();
        let a = attacker().collect(&sim, &mut t1, 7);
        let b = attacker().collect(&sim, &mut t2, 7);
        assert_eq!(a, b);
        let mut t3 = PreciseTimer::new();
        let c = attacker().collect(&sim, &mut t3, 8);
        assert_ne!(a, c);
    }
}
