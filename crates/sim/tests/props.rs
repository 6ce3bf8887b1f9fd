//! Property-based invariants for the machine simulator.

use bf_sim::{
    CoreTimeline, Gap, GapCause, InterruptKind, IsolationConfig, KernelEvent, KernelEventKind,
    Machine, MachineConfig, OsKind, RoutingPolicy, TimedEvent, VmMode, Workload, WorkloadEvent,
};
use bf_stats::StepSeries;
use bf_timer::Nanos;
use proptest::prelude::*;

/// Sorted, disjoint gaps over a 10 ms window, some touching (merged by
/// `CoreTimeline::new`).
fn gaps_strategy() -> impl Strategy<Value = Vec<Gap>> {
    proptest::collection::vec((0u64..10_000_000, 1u64..60_000), 0..80).prop_map(|mut raw| {
        raw.sort_unstable();
        let mut gaps = Vec::new();
        let mut free_from = 0u64;
        for (start, len) in raw {
            let start = start.max(free_from);
            gaps.push(Gap {
                start: Nanos(start),
                end: Nanos(start + len),
                cause: GapCause::Interrupt(InterruptKind::TimerTick),
            });
            free_from = start + len;
        }
        gaps
    })
}

/// Frequency change points with strictly increasing times.
fn freq_strategy() -> impl Strategy<Value = Vec<(u64, f64)>> {
    proptest::collection::vec((1u64..10_000_000, 0.5f64..1.5), 0..40).prop_map(|mut points| {
        points.sort_by_key(|&(t, _)| t);
        points.dedup_by_key(|&mut (t, _)| t);
        points
    })
}

/// Linear-scan references for the timeline queries, over the merged gaps
/// and the frequency change points (initial multiplier 1.0). Float
/// operations run in the same order as the library's.
struct Reference<'a> {
    gaps: &'a [Gap],
    freq: &'a [(u64, f64)],
}

impl Reference<'_> {
    fn value_at(&self, t: u64) -> f64 {
        self.freq.iter().rev().find(|p| p.0 <= t).map_or(1.0, |p| p.1)
    }

    fn next_change_after(&self, t: u64) -> Option<u64> {
        self.freq.iter().map(|p| p.0).find(|&pt| pt > t)
    }

    fn integrate(&self, a: u64, b: u64) -> f64 {
        if a == b {
            return 0.0;
        }
        let mut acc = 0.0;
        let mut t = a;
        let mut v = self.value_at(a);
        for &(pt, pv) in self.freq.iter().filter(|p| a < p.0 && p.0 < b) {
            acc += v * (pt - t) as f64;
            t = pt;
            v = pv;
        }
        acc + v * (b - t) as f64
    }

    fn next_runnable(&self, t: Nanos) -> Nanos {
        self.gaps.iter().find(|g| g.start <= t && t < g.end).map_or(t, |g| g.end)
    }

    fn work_between(&self, a: Nanos, b: Nanos) -> f64 {
        let mut work = self.integrate(a.as_nanos(), b.as_nanos());
        for g in self.gaps {
            let (lo, hi) = (g.start.max(a), g.end.min(b));
            if hi > lo {
                work -= self.integrate(lo.as_nanos(), hi.as_nanos());
            }
        }
        work.max(0.0)
    }

    fn real_time_after_work(&self, t: Nanos, work: f64) -> Nanos {
        let mut now = self.next_runnable(t).as_nanos();
        let mut remaining = work;
        // Each busy segment ends where a gap starts; an open-ended one
        // follows the last gap.
        let ahead = self.gaps.iter().map(|g| (g.start.as_nanos(), g.end.as_nanos()));
        for (seg_end, resume) in ahead.chain([(u64::MAX, u64::MAX)]) {
            if seg_end <= now {
                continue;
            }
            while now < seg_end {
                let m = self.value_at(now).max(1e-9);
                let next = self.next_change_after(now).map_or(seg_end, |c| c.min(seg_end));
                let capacity = (next - now) as f64 * m;
                if capacity >= remaining {
                    return Nanos(now + (remaining / m).ceil() as u64);
                }
                remaining -= capacity;
                now = next;
            }
            now = resume;
        }
        unreachable!("finite work fits in the open-ended segment")
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// One timeline cursor answering a mostly-forward query sequence, with
    /// occasional backward jumps, agrees bit for bit with a linear scan.
    #[test]
    fn timeline_cursor_matches_linear_scan(
        gaps in gaps_strategy(),
        freq in freq_strategy(),
        queries in proptest::collection::vec(
            (0u8..3, 0u8..8, 0u64..11_000_000, 0u64..300_000, 0.0f64..400_000.0),
            1..80,
        ),
    ) {
        let series = StepSeries::from_points(1.0, freq.clone()).unwrap();
        let tl = CoreTimeline::new(Nanos(10_000_000), gaps, series);
        let reference = Reference { gaps: tl.gaps(), freq: &freq };
        let mut cursor = tl.cursor();
        let mut t = Nanos::ZERO;
        for (kind, jump, anywhere, step, amount) in queries {
            t = if jump == 0 { Nanos(anywhere) } else { t + Nanos(step) };
            match kind {
                0 => prop_assert_eq!(cursor.next_runnable(t), reference.next_runnable(t)),
                1 => {
                    let b = t + Nanos(amount as u64);
                    prop_assert_eq!(
                        cursor.work_between(t, b).to_bits(),
                        reference.work_between(t, b).to_bits()
                    );
                    t = b;
                }
                _ => {
                    let done = cursor.real_time_after_work(t, amount);
                    prop_assert_eq!(done, reference.real_time_after_work(t, amount));
                    t = done;
                }
            }
        }
    }
}

/// One event of each kind by index; `magnitude` sizes packets, TLB
/// shootdowns and cache loads, `burst` is a CPU burst's length in ns.
fn event(kind: u8, magnitude: u32, burst: u64) -> WorkloadEvent {
    match kind {
        0 => WorkloadEvent::NetworkPacket { bytes: magnitude },
        1 => WorkloadEvent::VictimWake,
        2 => WorkloadEvent::TlbShootdown { pages: magnitude },
        3 => WorkloadEvent::GraphicsFrame,
        4 => WorkloadEvent::CacheLoad { lines: magnitude },
        5 => WorkloadEvent::DiskCompletion,
        6 => WorkloadEvent::KeyPress,
        7 => WorkloadEvent::SpuriousInterrupt,
        _ => WorkloadEvent::CpuBurst { duration: Nanos(burst) },
    }
}

/// Random workloads of every event kind over at most 1 s (`Machine::run`
/// sizes its activity buckets from the duration), zero one time in
/// eight. Magnitudes are 0 or `u32::MAX` one time in eight each, CPU
/// bursts 0 or `u64::MAX` ns likewise, and about one event in five falls
/// at or after the duration. Two times in three a packet burst ends in
/// a long silence with no packet, so its NIC batch stays open while the
/// events after it queue behind it — the cascade's deepest buffer.
fn workload_strategy() -> impl Strategy<Value = Workload> {
    (
        (0u8..8, 1u64..=1_000_000_000),
        proptest::collection::vec(
            (0u64..1_250_000, 0u8..9, 0u8..8, any::<u32>(), any::<u64>()),
            0..60,
        ),
        (0u8..3, 0u64..1_000_000, 1usize..40, 1u64..30_000),
        proptest::collection::vec((0u64..1_000_000, 1u8..9), 0..200),
    )
        .prop_map(|((zero, duration), evs, (burst, start, packets, spacing), silence)| {
            let duration = if zero == 0 { 0 } else { duration };
            let mut w = Workload::new(Nanos(duration));
            // Millionths of the duration; past 1.2 M, exactly the duration.
            let at = |pos: u64| {
                if pos >= 1_200_000 {
                    duration
                } else {
                    (u128::from(duration) * u128::from(pos) / 1_000_000) as u64
                }
            };
            for (pos, kind, size, raw32, raw64) in evs {
                let (magnitude, burst) = match size {
                    0 => (0, 0),
                    1 => (u32::MAX, u64::MAX),
                    2 => (raw32, raw64),
                    _ => (raw32 % 2_000 + 1, (raw64 % 5_000 + 1) * 1_000),
                };
                w.push(TimedEvent { t: Nanos(at(pos)), event: event(kind, magnitude, burst) });
            }
            if burst > 0 {
                let mut t = at(start);
                for _ in 0..packets {
                    w.push_at(Nanos(t), WorkloadEvent::NetworkPacket { bytes: 1_500 });
                    t += spacing;
                }
                let rest = duration.saturating_sub(t);
                for (pos, kind) in silence {
                    let t = Nanos(t + (u128::from(rest) * u128::from(pos) / 1_000_000) as u64);
                    w.push(TimedEvent { t, event: event(kind, 64, 2_000_000) });
                }
            }
            w
        })
}

/// Machine configurations across OS kinds, core counts, the isolation
/// knobs (frequency and core pinning, irqbalance, VM mode), explicit IRQ
/// re-routing (including onto the attacker core) and turbo boost.
fn config_strategy() -> impl Strategy<Value = MachineConfig> {
    (
        (0u8..3, 2usize..7, 0u8..5),
        (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
    )
        .prop_map(|((os, num_cores, routing), (pin_freq, pin_cores, confine, vm, turbo))| {
            let os = [OsKind::Linux, OsKind::Windows, OsKind::MacOs][os as usize];
            let isolation = IsolationConfig {
                pin_frequency: pin_freq,
                pin_cores,
                confine_movable_irqs: confine,
                vm: if vm { VmMode::SeparateVms } else { VmMode::None },
            };
            let mut cfg = MachineConfig { num_cores, ..MachineConfig::for_os(os) }
                .with_isolation(isolation);
            cfg.routing = match routing {
                0 => None,
                1 => Some(RoutingPolicy::Spread),
                2 => Some(RoutingPolicy::BySource),
                3 => Some(RoutingPolicy::PinnedTo(0)),
                _ => Some(RoutingPolicy::PinnedTo(cfg.attacker_core())),
            };
            cfg.turbo_boost = turbo;
            cfg
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Simulation is a pure function of (workload, seed).
    #[test]
    fn simulation_is_deterministic(w in workload_strategy(), seed in 0u64..1_000) {
        let m = Machine::new(MachineConfig::default());
        let a = m.run(&w, seed);
        let b = m.run(&w, seed);
        prop_assert_eq!(a.attacker_timeline().gaps(), b.attacker_timeline().gaps());
        prop_assert_eq!(a.kernel_log().events(), b.kernel_log().events());
    }

    /// Gaps on every core are sorted, disjoint, and non-empty.
    #[test]
    fn gaps_well_formed(w in workload_strategy(), seed in 0u64..1_000) {
        let m = Machine::new(MachineConfig::default());
        let out = m.run(&w, seed);
        for tl in out.cores() {
            for g in tl.gaps() {
                prop_assert!(g.end > g.start);
            }
            for pair in tl.gaps().windows(2) {
                prop_assert!(pair[1].start > pair[0].end);
            }
        }
    }

    /// Kernel interrupt time on a core is fully contained in that core's
    /// gap set (every handler interval pauses user code).
    #[test]
    fn kernel_time_is_inside_gaps(w in workload_strategy(), seed in 0u64..1_000) {
        let mut cfg = MachineConfig::default();
        cfg.isolation.pin_cores = true;
        let m = Machine::new(cfg);
        let out = m.run(&w, seed);
        let core = out.attacker_core;
        let tl = out.attacker_timeline();
        for ev in out.kernel_log().events_on_core(core) {
            if ev.kind == KernelEventKind::ContextSwitch {
                continue;
            }
            // The handler interval must lie within the gap set.
            let covered = tl.gap_time_between(ev.start, ev.end);
            prop_assert_eq!(covered, ev.len(), "event {:?} not covered", ev);
        }
    }

    /// The LLC load series is non-decreasing.
    #[test]
    fn llc_series_monotone(w in workload_strategy(), seed in 0u64..1_000) {
        let m = Machine::new(MachineConfig::default());
        let out = m.run(&w, seed);
        let mut last = 0.0;
        for &(_, v) in out.llc_loads.points() {
            prop_assert!(v >= last);
            last = v;
        }
    }

    /// irqbalance guarantees: no movable IRQ ever lands on a non-target
    /// core.
    #[test]
    fn irqbalance_confines_movable(w in workload_strategy(), seed in 0u64..1_000) {
        let mut cfg = MachineConfig::default();
        cfg.isolation.confine_movable_irqs = true;
        let m = Machine::new(cfg);
        let out = m.run(&w, seed);
        for ev in out.kernel_log().events() {
            if let Some(kind) = ev.kind.interrupt() {
                if kind.is_movable() {
                    prop_assert_eq!(ev.core, 0, "{} on core {}", kind, ev.core);
                }
            }
        }
    }

    /// Pinned cores mean no preemption gaps on the attacker core.
    #[test]
    fn pinning_removes_preemption(w in workload_strategy(), seed in 0u64..1_000) {
        let mut cfg = MachineConfig::default();
        cfg.isolation.pin_cores = true;
        let m = Machine::new(cfg);
        let out = m.run(&w, seed);
        for g in out.attacker_timeline().gaps() {
            prop_assert!(g.cause != GapCause::Preemption);
        }
    }

    /// The merged event stream is non-decreasing in time: the kernel log
    /// comes out of the streamed engine already ordered by (start, core),
    /// with no finalize pass.
    #[test]
    fn kernel_log_sorted_without_finalize(w in workload_strategy(), seed in 0u64..1_000) {
        let m = Machine::new(MachineConfig::default());
        let out = m.run(&w, seed);
        for pair in out.kernel_log().events().windows(2) {
            prop_assert!(
                (pair[0].start, pair[0].core) <= (pair[1].start, pair[1].core),
                "out of order: {:?} then {:?}", pair[0], pair[1]
            );
        }
    }

    /// Every output surface — kernel log, per-core gaps, LLC series,
    /// frequency series — is identical across reruns, and identical
    /// whether the workload streams sorted or through the stable index.
    #[test]
    fn full_output_deterministic(w in workload_strategy(), seed in 0u64..1_000) {
        let m = Machine::new(MachineConfig::default());
        let a = m.run(&w, seed);
        let b = m.run(&w, seed);
        let mut sorted = w.clone();
        sorted.finalize();
        let c = m.run(&sorted, seed);
        for other in [&b, &c] {
            prop_assert_eq!(a.kernel_log().events(), other.kernel_log().events());
            prop_assert_eq!(&a.llc_loads, &other.llc_loads);
            prop_assert_eq!(a.cores().len(), other.cores().len());
            for (x, y) in a.cores().iter().zip(other.cores()) {
                prop_assert_eq!(x, y);
            }
        }
    }

    /// The attacker's view — its timeline, its kernel events and the LLC
    /// series — is complete before anything else is built, and equals the
    /// built output's. Building through `kernel_log()`, through another
    /// core's `core(i)`, or on a clone taken before building gives one
    /// all-core view.
    #[test]
    fn attacker_view_matches_materialized_output(
        w in workload_strategy(),
        seed in 0u64..1_000,
        cfg in config_strategy(),
    ) {
        let m = Machine::new(cfg.clone());
        let out = m.run(&w, seed);
        prop_assert!(!out.is_materialized());
        let attacker = out.attacker_core;
        let timeline = out.attacker_timeline().clone();
        let events = out.attacker_kernel_events().to_vec();
        let llc = out.llc_loads.clone();
        let cloned = out.clone();

        // Built through the kernel log first.
        let log = out.kernel_log();
        prop_assert!(out.is_materialized());
        let on_attacker: Vec<KernelEvent> = log.events_on_core(attacker).copied().collect();
        prop_assert_eq!(&events, &on_attacker);
        prop_assert_eq!(out.cores().len(), cfg.num_cores);
        prop_assert_eq!(&out.cores()[attacker], &timeline);
        prop_assert_eq!(out.core(attacker), &timeline);
        prop_assert_eq!(out.attacker_timeline(), &timeline);
        prop_assert_eq!(&out.llc_loads, &llc);

        // Built through another core's timeline first.
        let other = m.run(&w, seed);
        prop_assert_eq!(other.attacker_timeline(), &timeline);
        prop_assert_eq!(other.attacker_kernel_events(), &events[..]);
        prop_assert_eq!(other.core(0), &out.cores()[0]);
        prop_assert!(other.is_materialized());
        prop_assert_eq!(other.cores(), out.cores());
        prop_assert_eq!(other.kernel_log(), log);

        // A clone taken before building builds the same view.
        prop_assert!(!cloned.is_materialized());
        prop_assert_eq!(cloned.cores(), out.cores());
        prop_assert_eq!(cloned.kernel_log(), log);
        prop_assert_eq!(cloned.attacker_kernel_events(), &events[..]);
    }
}
