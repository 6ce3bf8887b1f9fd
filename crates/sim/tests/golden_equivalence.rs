//! Golden-equivalence suite: the streamed k-way-merge engine must
//! reproduce the retired materialize-then-sort engine **bit-identically**
//! across the full configuration matrix — OS kinds, the Table 3 isolation
//! ladder, turbo boost, VM mode, kernel-tuning variants, and several
//! seeds — including unsorted workloads and duplicate-instant cache
//! loads. Any divergence in the kernel log, gap lists, LLC series, or
//! frequency series is a correctness bug in the merge order or RNG
//! stream assignment, not a tolerance question. The attacker's view is
//! compared first, before the streamed output builds its other cores and
//! kernel log, then the full output. Every configuration runs two
//! workload shapes: a mixed one spread over the whole run, and a deep
//! one that keeps the cascade's reorder buffer thousands of emissions
//! deep behind an open NIC batch.

#[path = "support/legacy_engine.rs"]
mod legacy;

use bf_sim::engine::KernelTuning;
use bf_sim::{
    IsolationConfig, KernelEvent, Machine, MachineConfig, OsKind, SimOutput, VmMode, Workload,
    WorkloadEvent,
};
use bf_stats::SeedRng;
use bf_timer::Nanos;

/// A busy, varied workload exercising every event kind, deliberately left
/// unsorted (events are pushed kind-major, not time-major).
fn mixed_workload(duration: Nanos, seed: u64) -> Workload {
    let mut rng = SeedRng::new(seed);
    let mut w = Workload::new(duration);
    let span = duration.as_nanos();
    for _ in 0..120 {
        w.push_at(
            Nanos::from_nanos(rng.int_range(0, span)),
            WorkloadEvent::NetworkPacket {
                bytes: rng.int_range(60, 9_000) as u32,
            },
        );
    }
    for _ in 0..40 {
        w.push_at(
            Nanos::from_nanos(rng.int_range(0, span)),
            WorkloadEvent::VictimWake,
        );
    }
    for _ in 0..20 {
        w.push_at(
            Nanos::from_nanos(rng.int_range(0, span)),
            WorkloadEvent::CacheLoad {
                lines: rng.int_range(1, 50_000) as u32,
            },
        );
        w.push_at(
            Nanos::from_nanos(rng.int_range(0, span)),
            WorkloadEvent::DiskCompletion,
        );
        w.push_at(
            Nanos::from_nanos(rng.int_range(0, span)),
            WorkloadEvent::GraphicsFrame,
        );
    }
    for _ in 0..10 {
        w.push_at(
            Nanos::from_nanos(rng.int_range(0, span)),
            WorkloadEvent::TlbShootdown {
                pages: rng.int_range(1, 700) as u32,
            },
        );
        w.push_at(
            Nanos::from_nanos(rng.int_range(0, span)),
            WorkloadEvent::CpuBurst {
                duration: Nanos::from_nanos(rng.int_range(10_000, 3_000_000)),
            },
        );
        w.push_at(
            Nanos::from_nanos(rng.int_range(0, span)),
            WorkloadEvent::KeyPress,
        );
        w.push_at(
            Nanos::from_nanos(rng.int_range(0, span)),
            WorkloadEvent::SpuriousInterrupt,
        );
    }
    // A few events at or past the duration boundary: the engine must
    // ignore them without desynchronizing any RNG stream.
    w.push_at(duration, WorkloadEvent::DiskCompletion);
    w.push_at(duration + Nanos::from_millis(5), WorkloadEvent::KeyPress);
    w
}

/// The deep-buffer shape: each of two packet bursts ends with its NIC
/// batch open, and the batch holds back every emission until the next
/// packet closes it. In between come thousands of wakes, frames, TLB
/// broadcasts (several emissions at one instant), key presses and CPU
/// bursts (emissions stamped after their event), on a 1 µs grid so
/// events share instants. Pushed kind-major, so left unsorted.
fn deep_lane_workload(duration: Nanos, seed: u64) -> Workload {
    let mut rng = SeedRng::new(seed);
    let mut w = Workload::new(duration);
    let span = duration.as_nanos();
    for (start, end) in [(span / 20, span * 9 / 20), (span / 2, span * 19 / 20)] {
        let mut t = start;
        for _ in 0..24 {
            let bytes = rng.int_range(60, 9_000) as u32;
            w.push_at(Nanos::from_nanos(t), WorkloadEvent::NetworkPacket { bytes });
            // Inside the default 20 µs coalescing window.
            t += rng.int_range(1_000, 15_000);
        }
        let quiet = |rng: &mut SeedRng| Nanos::from_micros(rng.int_range(t, end) / 1_000);
        for _ in 0..1_500 {
            w.push_at(quiet(&mut rng), WorkloadEvent::VictimWake);
        }
        for _ in 0..300 {
            w.push_at(quiet(&mut rng), WorkloadEvent::GraphicsFrame);
        }
        for _ in 0..200 {
            let pages = rng.int_range(1, 700) as u32;
            w.push_at(quiet(&mut rng), WorkloadEvent::TlbShootdown { pages });
        }
        for _ in 0..150 {
            w.push_at(quiet(&mut rng), WorkloadEvent::KeyPress);
        }
        for _ in 0..100 {
            let duration = Nanos::from_nanos(rng.int_range(1_000_000, 3_000_000));
            w.push_at(quiet(&mut rng), WorkloadEvent::CpuBurst { duration });
        }
        for _ in 0..50 {
            w.push_at(quiet(&mut rng), WorkloadEvent::SpuriousInterrupt);
            let lines = rng.int_range(1, 50_000) as u32;
            w.push_at(quiet(&mut rng), WorkloadEvent::CacheLoad { lines });
        }
        w.push_at(Nanos::from_nanos(end), WorkloadEvent::NetworkPacket { bytes: 1_500 });
    }
    w
}

/// Both workload shapes drawn from one seed.
fn shapes(duration: Nanos, seed: u64) -> [(&'static str, Workload); 2] {
    [
        ("mixed", mixed_workload(duration, seed)),
        ("deep lane", deep_lane_workload(duration, seed)),
    ]
}

fn assert_identical(new: &SimOutput, old: &SimOutput, label: &str) {
    assert_eq!(new.duration, old.duration, "{label}: duration");
    assert_eq!(new.attacker_core, old.attacker_core, "{label}: attacker core");
    assert_eq!(
        new.kernel_log().events(),
        old.kernel_log().events(),
        "{label}: kernel log"
    );
    assert_eq!(new.llc_loads, old.llc_loads, "{label}: llc series");
    assert_eq!(new.cores().len(), old.cores().len(), "{label}: core count");
    for (core, (n, o)) in new.cores().iter().zip(old.cores()).enumerate() {
        assert_eq!(n, o, "{label}: core {core} timeline");
    }
}

/// What an attacker replay reads, compared before `new` builds its other
/// cores and kernel log.
fn assert_attacker_view_identical(new: &SimOutput, old: &SimOutput, label: &str) {
    assert!(!new.is_materialized(), "{label}: built before any all-core read");
    assert_eq!(new.attacker_core, old.attacker_core, "{label}: attacker core");
    assert_eq!(
        new.attacker_timeline(),
        &old.cores()[old.attacker_core],
        "{label}: attacker timeline"
    );
    let old_events: Vec<KernelEvent> = old
        .kernel_log()
        .events_on_core(old.attacker_core)
        .copied()
        .collect();
    assert_eq!(
        new.attacker_kernel_events(),
        &old_events[..],
        "{label}: attacker kernel events"
    );
    assert_eq!(new.llc_loads, old.llc_loads, "{label}: llc series");
    assert!(!new.is_materialized(), "{label}: attacker view built the rest");
}

fn check(cfg: MachineConfig, tuning: KernelTuning, workload: &Workload, seed: u64, label: &str) {
    let new = Machine::with_tuning(cfg.clone(), tuning).run(workload, seed);
    let old = legacy::legacy_run(&cfg, &tuning, workload, seed);
    assert_attacker_view_identical(&new, &old, label);
    assert_identical(&new, &old, label);
}

#[test]
fn os_kinds_match_legacy() {
    for os in [OsKind::Linux, OsKind::Windows, OsKind::MacOs] {
        let cfg = MachineConfig::for_os(os);
        for seed in [1, 42, 0xDEAD] {
            for (shape, w) in &shapes(Nanos::from_millis(150), seed ^ 0x5EED) {
                check(
                    cfg.clone(),
                    KernelTuning::default(),
                    w,
                    seed,
                    &format!("{os:?}/seed {seed}/{shape}"),
                );
            }
        }
    }
}

#[test]
fn isolation_ladder_matches_legacy() {
    let shapes = shapes(Nanos::from_millis(150), 99);
    for (name, iso) in IsolationConfig::table3_ladder() {
        let cfg = MachineConfig::default().with_isolation(iso);
        for seed in [7, 1234] {
            for (shape, w) in &shapes {
                check(
                    cfg.clone(),
                    KernelTuning::default(),
                    w,
                    seed,
                    &format!("ladder {name}/seed {seed}/{shape}"),
                );
            }
        }
    }
}

#[test]
fn turbo_and_vm_modes_match_legacy() {
    let shapes = shapes(Nanos::from_millis(150), 3);
    for turbo in [false, true] {
        for vm in [VmMode::None, VmMode::SeparateVms] {
            let mut cfg = MachineConfig { turbo_boost: turbo, ..Default::default() };
            cfg.isolation.vm = vm;
            for (shape, w) in &shapes {
                check(
                    cfg.clone(),
                    KernelTuning::default(),
                    w,
                    17,
                    &format!("turbo {turbo}/vm {vm:?}/{shape}"),
                );
            }
        }
    }
}

#[test]
fn frequency_pinning_matches_legacy() {
    let mut cfg = MachineConfig::default();
    cfg.frequency.scaling_enabled = false;
    for (shape, w) in &shapes(Nanos::from_millis(150), 5) {
        check(cfg.clone(), KernelTuning::default(), w, 21, &format!("frequency pinned/{shape}"));
    }
}

#[test]
fn tuning_variants_match_legacy() {
    let shapes = shapes(Nanos::from_millis(150), 8);
    let aggressive = KernelTuning {
        nic_coalesce_window: Nanos::from_micros(200),
        nic_coalesce_max: 64,
        softirq_local_prob: 0.1,
        wake_ipi_prob: 1.0,
        preemption_rate_busy: 30.0,
        preemption_rate_idle: 1.0,
        preemption_slice: Nanos::from_micros(500),
        tlb_page_cost: Nanos::from_nanos(70),
        tlb_page_cap: 128,
    };
    let no_coalesce = KernelTuning {
        nic_coalesce_window: Nanos::ZERO,
        nic_coalesce_max: 1,
        ..Default::default()
    };
    for (shape, w) in &shapes {
        let cfg = MachineConfig::default();
        check(cfg.clone(), aggressive, w, 31, &format!("aggressive tuning/{shape}"));
        check(cfg, no_coalesce, w, 32, &format!("no nic coalescing/{shape}"));
    }
}

#[test]
fn sorted_and_unsorted_workloads_match_legacy() {
    for (shape, unsorted) in shapes(Nanos::from_millis(150), 12) {
        assert!(!unsorted.is_sorted());
        check(
            MachineConfig::default(),
            KernelTuning::default(),
            &unsorted,
            55,
            &format!("unsorted workload/{shape}"),
        );
        let mut sorted = unsorted.clone();
        sorted.finalize();
        assert!(sorted.is_sorted());
        check(
            MachineConfig::default(),
            KernelTuning::default(),
            &sorted,
            55,
            &format!("finalized workload/{shape}"),
        );
    }
}

#[test]
fn duplicate_instant_cache_loads_match_legacy() {
    let t = Nanos::from_millis(40);
    let mut w = Workload::new(Nanos::from_millis(100));
    for lines in [100, 200, 300] {
        w.push_at(t, WorkloadEvent::CacheLoad { lines });
    }
    w.push_at(t, WorkloadEvent::NetworkPacket { bytes: 1_500 });
    w.push_at(t + Nanos::from_nanos(1), WorkloadEvent::CacheLoad { lines: 50 });
    check(
        MachineConfig::default(),
        KernelTuning::default(),
        &w,
        77,
        "duplicate-instant cache loads",
    );
}

#[test]
fn empty_and_tiny_workloads_match_legacy() {
    let empty = Workload::new(Nanos::from_millis(80));
    check(
        MachineConfig::default(),
        KernelTuning::default(),
        &empty,
        2,
        "empty workload",
    );
    let mut tiny = Workload::new(Nanos::from_micros(50));
    tiny.push_at(Nanos::from_micros(10), WorkloadEvent::KeyPress);
    check(
        MachineConfig::default(),
        KernelTuning::default(),
        &tiny,
        2,
        "tiny workload",
    );
}

#[test]
fn two_core_machine_matches_legacy() {
    let cfg = MachineConfig { num_cores: 2, ..Default::default() };
    for (shape, w) in &shapes(Nanos::from_millis(120), 64) {
        check(cfg.clone(), KernelTuning::default(), w, 91, &format!("two cores/{shape}"));
    }
}

#[test]
fn many_core_machine_matches_legacy() {
    let cfg = MachineConfig { num_cores: 12, ..Default::default() };
    for (shape, w) in &shapes(Nanos::from_millis(120), 65) {
        check(cfg.clone(), KernelTuning::default(), w, 92, &format!("twelve cores/{shape}"));
    }
}
