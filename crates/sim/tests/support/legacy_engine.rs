//! The pre-streaming (materialize-then-sort) simulation engine, kept as
//! the golden reference for the streamed k-way-merge engine.
//!
//! This is a line-faithful port of the engine this repository shipped
//! before the streaming rearchitecture, expressed over `bf-sim`'s public
//! API only, with exactly one deliberate change: LLC accumulation uses
//! [`StepSeries::push_or_update`] instead of the old `push(t + 1, …)`
//! same-instant kludge, because that semantic fix landed in the same PR
//! and the equivalence suite compares both engines under the new
//! semantics.
//!
//! The streamed engine must reproduce this implementation's `SimOutput`
//! **bit-identically** — same gaps, same kernel log, same LLC and
//! frequency series — for every configuration in the golden matrix.

use bf_sim::engine::KernelTuning;
use bf_sim::interrupt::HandlerTimeModel;
use bf_sim::{
    CoreTimeline, Gap, GapCause, InterruptKind, KernelEvent, KernelEventKind, KernelLog,
    MachineConfig, SimOutput, SoftirqKind, VmMode, Workload, WorkloadEvent,
};
use bf_stats::{SeedRng, StepSeries};
use bf_timer::Nanos;

#[derive(Debug, Clone, Copy)]
struct Arrival {
    t: Nanos,
    core: usize,
    kind: InterruptKind,
    units: u32,
}

#[derive(Debug, Clone, Copy)]
struct Preemption {
    t: Nanos,
    len: Nanos,
}

/// Run `workload` through the legacy engine. Deterministic in
/// `(config, tuning, workload, seed)`, exactly like `Machine::run`.
pub fn legacy_run(
    cfg: &MachineConfig,
    tuning: &KernelTuning,
    workload: &Workload,
    seed: u64,
) -> SimOutput {
    let duration = workload.duration();
    let root = SeedRng::new(seed);
    let mut handler_rng = root.fork(2);
    let mut background_rng = root.fork(3);
    let mut softirq_rng = root.fork(4);
    let mut preempt_rng = root.fork(5);
    let mut freq_rng = root.fork(6);

    let mut events = workload.clone();
    events.finalize();

    let mut arrivals: Vec<Arrival> = Vec::with_capacity(events.len() * 2 + 4096);
    let mut llc = StepSeries::new(0.0);
    let mut llc_cum = 0.0f64;

    generate_timer_ticks(cfg, duration, &mut arrivals);
    generate_background(cfg, duration, &mut background_rng, &mut arrivals);
    // Ambient LLC churn from the rest of the system (fork 7).
    {
        let mut rng = root.fork(7);
        let mut t = Nanos::ZERO;
        loop {
            t += Nanos::from_nanos(rng.exponential(3.3e6) as u64 + 1); // ~300/s
            if t >= duration {
                break;
            }
            let lines = rng.log_normal((3_000.0f64).ln(), 1.0) as u32;
            events.push_at(
                t,
                WorkloadEvent::CacheLoad {
                    lines: lines.min(98_304),
                },
            );
        }
        events.finalize();
    }

    let freq_period = cfg.frequency.update_period.as_nanos().max(1);
    let n_buckets = (duration.as_nanos() / freq_period + 1) as usize;
    let mut activity = vec![0.0f64; n_buckets];
    let note_activity = |t: Nanos, amount_ns: f64, activity: &mut Vec<f64>| {
        let idx = (t.as_nanos() / freq_period) as usize;
        if let Some(slot) = activity.get_mut(idx) {
            *slot += amount_ns;
        }
    };

    let mut seq: u64 = 0;
    let mut nic_pending: u32 = 0;
    let mut nic_first: Nanos = Nanos::ZERO;
    let mut nic_last: Nanos = Nanos::ZERO;

    let flush_nic = |first: Nanos,
                     pending: u32,
                     seq: &mut u64,
                     softirq_rng: &mut SeedRng,
                     arrivals: &mut Vec<Arrival>| {
        if pending == 0 {
            return;
        }
        let irq_core = cfg
            .effective_routing()
            .route(InterruptKind::NetworkRx, *seq, cfg.num_cores);
        *seq += 1;
        arrivals.push(Arrival {
            t: first,
            core: irq_core,
            kind: InterruptKind::NetworkRx,
            units: 0,
        });
        let local = softirq_rng.chance(tuning.softirq_local_prob);
        let soft_core = if local {
            irq_core
        } else {
            softirq_rng.int_range(0, cfg.num_cores as u64) as usize
        };
        let delay = Nanos::from_nanos(1_000 + softirq_rng.int_range(0, 4_000));
        arrivals.push(Arrival {
            t: first + delay,
            core: soft_core,
            kind: InterruptKind::Softirq(SoftirqKind::NetRx),
            units: pending,
        });
    };

    for ev in events.events() {
        if ev.t >= duration {
            continue;
        }
        match ev.event {
            WorkloadEvent::NetworkPacket { bytes } => {
                let units = 1 + bytes / 4_096;
                if nic_pending > 0
                    && ev.t.saturating_sub(nic_last) <= tuning.nic_coalesce_window
                    && nic_pending < tuning.nic_coalesce_max
                {
                    nic_pending += units;
                    nic_last = ev.t;
                } else {
                    flush_nic(nic_first, nic_pending, &mut seq, &mut softirq_rng, &mut arrivals);
                    nic_pending = units;
                    nic_first = ev.t;
                    nic_last = ev.t;
                }
                note_activity(ev.t, 2_000.0, &mut activity);
            }
            WorkloadEvent::DiskCompletion => {
                let core = cfg
                    .effective_routing()
                    .route(InterruptKind::Disk, seq, cfg.num_cores);
                seq += 1;
                arrivals.push(Arrival { t: ev.t, core, kind: InterruptKind::Disk, units: 0 });
                note_activity(ev.t, 2_000.0, &mut activity);
            }
            WorkloadEvent::GraphicsFrame => {
                let core = cfg
                    .effective_routing()
                    .route(InterruptKind::Graphics, seq, cfg.num_cores);
                seq += 1;
                arrivals.push(Arrival { t: ev.t, core, kind: InterruptKind::Graphics, units: 0 });
                let w_core = softirq_rng.int_range(0, cfg.num_cores as u64) as usize;
                arrivals.push(Arrival {
                    t: ev.t + Nanos::from_micros(2),
                    core: w_core,
                    kind: InterruptKind::IrqWork,
                    units: 0,
                });
                if softirq_rng.chance(0.5) {
                    let t_core = softirq_rng.int_range(0, cfg.num_cores as u64) as usize;
                    arrivals.push(Arrival {
                        t: ev.t + Nanos::from_micros(5),
                        core: t_core,
                        kind: InterruptKind::Softirq(SoftirqKind::Tasklet),
                        units: 1,
                    });
                }
                note_activity(ev.t, 8_000.0, &mut activity);
            }
            WorkloadEvent::VictimWake => {
                if softirq_rng.chance(tuning.wake_ipi_prob) {
                    let core = softirq_rng.int_range(0, cfg.num_cores as u64) as usize;
                    arrivals.push(Arrival {
                        t: ev.t,
                        core,
                        kind: InterruptKind::RescheduleIpi,
                        units: 0,
                    });
                }
                note_activity(ev.t, 1_500.0, &mut activity);
            }
            WorkloadEvent::TlbShootdown { pages } => {
                let initiator = softirq_rng.int_range(0, cfg.num_cores as u64) as usize;
                let units = pages.min(tuning.tlb_page_cap);
                for core in 0..cfg.num_cores {
                    if core != initiator {
                        arrivals.push(Arrival {
                            t: ev.t,
                            core,
                            kind: InterruptKind::TlbShootdown,
                            units,
                        });
                    }
                }
                note_activity(ev.t, 3_000.0, &mut activity);
            }
            WorkloadEvent::CacheLoad { lines } => {
                llc_cum += lines as f64;
                llc.push_or_update(ev.t.as_nanos(), llc_cum);
            }
            WorkloadEvent::CpuBurst { duration: d } => {
                note_activity(ev.t, d.as_nanos() as f64, &mut activity);
                if d >= Nanos::from_millis(1) && softirq_rng.chance(0.3) {
                    let core = softirq_rng.int_range(0, cfg.num_cores as u64) as usize;
                    arrivals.push(Arrival {
                        t: ev.t + d / 2,
                        core,
                        kind: InterruptKind::Softirq(SoftirqKind::Timer),
                        units: 1,
                    });
                }
            }
            WorkloadEvent::KeyPress => {
                let core = cfg
                    .effective_routing()
                    .route(InterruptKind::Usb, 0, cfg.num_cores);
                arrivals.push(Arrival { t: ev.t, core, kind: InterruptKind::Usb, units: 0 });
                let release = ev.t + Nanos::from_micros(80 + softirq_rng.int_range(0, 170));
                arrivals.push(Arrival { t: release, core, kind: InterruptKind::Usb, units: 0 });
                if softirq_rng.chance(0.8) {
                    let wake_core = softirq_rng.int_range(0, cfg.num_cores as u64) as usize;
                    arrivals.push(Arrival {
                        t: ev.t + Nanos::from_micros(30),
                        core: wake_core,
                        kind: InterruptKind::RescheduleIpi,
                        units: 0,
                    });
                }
                note_activity(ev.t, 1_000.0, &mut activity);
            }
            WorkloadEvent::SpuriousInterrupt => {
                let core = softirq_rng.int_range(0, cfg.num_cores as u64) as usize;
                arrivals.push(Arrival {
                    t: ev.t,
                    core,
                    kind: InterruptKind::RescheduleIpi,
                    units: 0,
                });
                let core2 = softirq_rng.int_range(0, cfg.num_cores as u64) as usize;
                arrivals.push(Arrival {
                    t: ev.t + Nanos::from_micros(3),
                    core: core2,
                    kind: InterruptKind::Softirq(SoftirqKind::Timer),
                    units: 2,
                });
                note_activity(ev.t, 2_000.0, &mut activity);
            }
        }
    }
    flush_nic(nic_first, nic_pending, &mut seq, &mut softirq_rng, &mut arrivals);

    let cap = freq_period as f64 * cfg.num_cores as f64;
    for a in &mut activity {
        *a = (*a / cap).min(1.0);
    }

    let freq = frequency_series(cfg, duration, &activity, &mut freq_rng);
    let preemptions = generate_preemptions(cfg, tuning, duration, &activity, &mut preempt_rng);
    let turbo_stalls = generate_turbo_stalls(cfg, duration, &mut freq_rng);

    arrivals.sort_by_key(|a| a.t);
    let handler = HandlerTimeModel {
        base_overhead: cfg.mitigation_overhead,
        amplification: if cfg.isolation.vm == VmMode::SeparateVms {
            cfg.vm_amplification
        } else {
            1.0
        },
        vm_exit_cost: cfg.vm_exit_cost,
    };

    let mut kernel_log = KernelLog::new();
    let mut per_core_gaps: Vec<Vec<Gap>> = vec![Vec::new(); cfg.num_cores];
    let mut busy_until = vec![Nanos::ZERO; cfg.num_cores];

    let attacker = cfg.attacker_core();
    let mut pre_iter = preemptions.iter().peekable();

    let serve = |core: usize,
                 t: Nanos,
                 len: Nanos,
                 kind: KernelEventKind,
                 busy_until: &mut Vec<Nanos>,
                 per_core_gaps: &mut Vec<Vec<Gap>>,
                 kernel_log: &mut KernelLog| {
        let start = t.max(busy_until[core]);
        let end = start + len;
        busy_until[core] = end;
        kernel_log.record(KernelEvent { core, start, end, kind });
        let cause = match kind {
            KernelEventKind::Interrupt(k) => GapCause::Interrupt(k),
            KernelEventKind::ContextSwitch => GapCause::Preemption,
        };
        let gaps = &mut per_core_gaps[core];
        match gaps.last_mut() {
            Some(last) if start <= last.end => last.end = last.end.max(end),
            _ => gaps.push(Gap { start, end, cause }),
        }
    };

    for a in &arrivals {
        while let Some(&&p) = pre_iter.peek() {
            if p.t <= a.t {
                serve(
                    attacker,
                    p.t,
                    p.len,
                    KernelEventKind::ContextSwitch,
                    &mut busy_until,
                    &mut per_core_gaps,
                    &mut kernel_log,
                );
                pre_iter.next();
            } else {
                break;
            }
        }
        let len = handler.sample(a.kind, a.units, &mut handler_rng);
        serve(
            a.core,
            a.t,
            len,
            KernelEventKind::Interrupt(a.kind),
            &mut busy_until,
            &mut per_core_gaps,
            &mut kernel_log,
        );
    }
    for &p in pre_iter {
        serve(
            attacker,
            p.t,
            p.len,
            KernelEventKind::ContextSwitch,
            &mut busy_until,
            &mut per_core_gaps,
            &mut kernel_log,
        );
    }

    kernel_log.finalize();

    if !turbo_stalls.is_empty() {
        let gaps = &mut per_core_gaps[attacker];
        for stall in turbo_stalls {
            let pos = gaps.partition_point(|g| g.end <= stall.start);
            let clear_after = gaps.get(pos).is_none_or(|g| g.start >= stall.end);
            if clear_after {
                gaps.insert(pos, stall);
            }
        }
    }

    let cores = per_core_gaps
        .into_iter()
        .enumerate()
        .map(|(core, gaps)| {
            let f = if core == attacker {
                freq.clone()
            } else {
                StepSeries::new(1.0)
            };
            CoreTimeline::new(duration, gaps, f)
        })
        .collect();

    SimOutput::from_materialized(cores, kernel_log, llc, attacker, duration)
}

fn generate_timer_ticks(cfg: &MachineConfig, duration: Nanos, arrivals: &mut Vec<Arrival>) {
    let period = cfg.os.tick_period();
    for core in 0..cfg.num_cores {
        let phase = period * core as u64 / cfg.num_cores as u64;
        let mut t = phase;
        while t < duration {
            arrivals.push(Arrival { t, core, kind: InterruptKind::TimerTick, units: 0 });
            t += period;
        }
    }
}

fn generate_background(
    cfg: &MachineConfig,
    duration: Nanos,
    rng: &mut SeedRng,
    arrivals: &mut Vec<Arrival>,
) {
    let rate = cfg.os.background_noise_rate();
    let mean_gap = 1e9 / rate;
    let mut t = Nanos::ZERO;
    let mut seq = 0xB000u64;
    loop {
        t += Nanos::from_nanos(rng.exponential(mean_gap) as u64 + 1);
        if t >= duration {
            break;
        }
        let core = rng.int_range(0, cfg.num_cores as u64) as usize;
        let roll = rng.uniform();
        if roll < 0.45 {
            arrivals.push(Arrival { t, core, kind: InterruptKind::RescheduleIpi, units: 0 });
        } else if roll < 0.75 {
            arrivals.push(Arrival {
                t,
                core,
                kind: InterruptKind::Softirq(SoftirqKind::Rcu),
                units: 1,
            });
        } else if roll < 0.9 {
            arrivals.push(Arrival {
                t,
                core,
                kind: InterruptKind::Softirq(SoftirqKind::Timer),
                units: 1,
            });
        } else {
            let kind = if rng.chance(0.5) {
                InterruptKind::Disk
            } else {
                InterruptKind::Usb
            };
            let core = cfg.effective_routing().route(kind, seq, cfg.num_cores);
            seq += 1;
            arrivals.push(Arrival { t, core, kind, units: 0 });
        }
    }
}

fn frequency_series(
    cfg: &MachineConfig,
    duration: Nanos,
    activity: &[f64],
    rng: &mut SeedRng,
) -> StepSeries {
    let fc = &cfg.frequency;
    if !fc.scaling_enabled {
        return StepSeries::new(1.0);
    }
    let period = fc.update_period.as_nanos().max(1);
    let mut series = StepSeries::new(1.0 + fc.activity_droop / 2.0);
    let mut ewma = 0.0;
    for (i, &a) in activity.iter().enumerate() {
        let t = (i as u64) * period;
        if t >= duration.as_nanos() {
            break;
        }
        ewma = 0.6 * ewma + 0.4 * a;
        let mult =
            1.0 + fc.activity_droop / 2.0 - fc.activity_droop * ewma + rng.normal(0.0, fc.noise_std);
        if t == 0 {
            continue; // initial value covers bucket 0
        }
        series.push(t, mult.clamp(0.5, 1.5));
    }
    series
}

fn generate_turbo_stalls(cfg: &MachineConfig, duration: Nanos, rng: &mut SeedRng) -> Vec<Gap> {
    if !cfg.turbo_boost {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut t = Nanos::ZERO;
    loop {
        t += Nanos::from_nanos(rng.exponential(4e6) as u64 + 1); // ~250/s
        if t >= duration {
            break;
        }
        let len = Nanos::from_nanos(rng.log_normal((900.0f64).ln(), 0.5) as u64 + 200);
        out.push(Gap { start: t, end: t + len, cause: GapCause::Hardware });
        t += len;
    }
    out
}

fn generate_preemptions(
    cfg: &MachineConfig,
    tuning: &KernelTuning,
    duration: Nanos,
    activity: &[f64],
    rng: &mut SeedRng,
) -> Vec<Preemption> {
    if cfg.isolation.pin_cores {
        return Vec::new();
    }
    let period = cfg.frequency.update_period.as_nanos().max(1);
    let mut out = Vec::new();
    let mut t = Nanos::ZERO;
    loop {
        let bucket = (t.as_nanos() / period) as usize;
        let act = activity.get(bucket).copied().unwrap_or(0.0);
        let rate = tuning.preemption_rate_idle
            + (tuning.preemption_rate_busy - tuning.preemption_rate_idle) * act.min(1.0);
        let gap = rng.exponential(1e9 / rate.max(1e-6));
        t += Nanos::from_nanos(gap as u64 + 1);
        if t >= duration {
            break;
        }
        let len_ns = rng.log_normal((tuning.preemption_slice.as_nanos() as f64).ln(), 0.8);
        out.push(Preemption { t, len: Nanos::from_nanos(len_ns as u64) });
    }
    out
}
