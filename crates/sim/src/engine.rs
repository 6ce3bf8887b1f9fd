//! The discrete-event simulation engine.
//!
//! [`Machine::run`] turns a victim [`Workload`] into per-core execution
//! timelines and a kernel log:
//!
//! 1. **Arrival generation** — periodic timer ticks per core, OS
//!    background housekeeping, and the interrupt cascade implied by each
//!    workload event (NIC IRQ → `NET_RX` softirq, wake → rescheduling IPI,
//!    unmap → TLB-shootdown broadcast, frame → graphics IRQ + IRQ work).
//! 2. **Routing** — movable device IRQs follow the configured
//!    [`RoutingPolicy`](crate::routing::RoutingPolicy); non-movable work (ticks, IPIs, softirqs, IRQ work)
//!    lands wherever the kernel put it, which no isolation knob controls.
//! 3. **Service** — per core, arrivals are served FIFO with sampled
//!    handler times; back-to-back service merges into single user-visible
//!    execution gaps, exactly what the attacker perceives.
//!
//! Everything is derived deterministically from the run seed.
//!
//! # Observer-driven materialization
//!
//! An attacker observes only its own core (plus LLC occupancy), so `run`
//! serves only the attacker core: its arrivals, preemptions and turbo
//! stalls. Every other arrival still takes its turn in the merge and its
//! slot in the handler-time normal stream ([`bf_stats::NormalSlots`]), so
//! every RNG stream advances exactly as if it were served; it is pushed,
//! slot and all, onto a deferred buffer. The first read of
//! [`SimOutput::cores`], [`SimOutput::core`] or [`SimOutput::kernel_log`]
//! serves the deferred arrivals per core with the same server and the
//! same slot-to-handler-time function, then merges the kernel log — so
//! the all-core view is bit-identical to serving everything up front.
//! Non-attacker cores have no preemptions or stalls, and a core's service
//! depends only on its own arrivals, so serving them later changes
//! nothing.
//!
//! # Streaming architecture
//!
//! Arrivals are never materialized into one big vector. Each generator —
//! timer ticks, background housekeeping, and the workload interrupt
//! cascade — is a pull-based stream with its own forked RNG, and the
//! service loop consumes a k-way merge of their heads ordered by
//! `(t, source rank)` with ranks `ticks < background < cascade`. That
//! tie-break reproduces, event for event, the order the retired
//! materialize-then-stable-sort engine produced (ticks were inserted
//! first, then background, then the cascade, and `sort_by_key(t)` is
//! stable), so every downstream RNG draw — handler times above all — sees
//! the same sequence and the output stays bit-identical.
//!
//! The cascade is the one source whose raw emissions are not time-sorted
//! (NIC coalescing flushes a batch at its *first* packet's timestamp,
//! after later packets have been seen, and some arms stamp follow-ups
//! after their event). It reorders internally by `(t, emission seq)` and
//! only releases an arrival when no future emission can precede it: the
//! next unprocessed workload event's time, or the pending NIC batch's
//! start, whichever binds. An open batch holds thousands of emissions
//! back, but nearly all of them are stamped at their own event's time
//! and so arrive in key order: they queue on a FIFO lane, and only the
//! rest (a flush behind later keys, the delayed follow-ups) go through a
//! binary heap. Release takes the smaller of the two fronts, which is
//! the order one heap over everything would pop.
//!
//! Per-core kernel logs are built already sorted (service start times are
//! strictly increasing per core) and k-way merged by `(start, core)` when
//! the kernel log is first read, replacing the old global sort. All
//! scratch and output buffers
//! come from the thread-local [`workspace`](crate::workspace) pool, so a
//! steady-state run performs zero heap allocations (see the
//! `alloc_regression` test).

use crate::config::{MachineConfig, VmMode};
use crate::interrupt::{HandlerTimeModel, InterruptKind, SoftirqKind};
use crate::kernel::{KernelEvent, KernelEventKind, KernelLog};
use crate::timeline::{CoreTimeline, Gap, GapCause};
use crate::workload::{TimedEvent, Workload, WorkloadEvent};
use crate::workspace;
use bf_stats::{NormalSlot, NormalSlots, SeedRng, StepSeries};
use bf_timer::Nanos;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::OnceLock;

/// Kernel-behavior tuning knobs (deferral probabilities, coalescing,
/// preemption model). The defaults model an Ubuntu-20.04-like kernel; the
/// ablation benches vary them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelTuning {
    /// NIC interrupt-coalescing window: packets arriving within this span
    /// share one receive IRQ and one softirq batch.
    pub nic_coalesce_window: Nanos,
    /// Maximum packets coalesced into one IRQ.
    pub nic_coalesce_max: u32,
    /// Probability a softirq runs immediately on the IRQ's core; otherwise
    /// it is deferred to ksoftirqd/timer context on a *random* core —
    /// the non-movable leakage path of §5.2.
    pub softirq_local_prob: f64,
    /// Probability a victim wake sends a rescheduling IPI at all (wakes on
    /// an already-running core need none).
    pub wake_ipi_prob: f64,
    /// Mean preemption rate on the attacker core while the machine is
    /// busy, when cores are not pinned (events per second).
    pub preemption_rate_busy: f64,
    /// Preemption rate when idle.
    pub preemption_rate_idle: f64,
    /// Median preemption slice length.
    pub preemption_slice: Nanos,
    /// Per-page incremental handler cost of a TLB shootdown.
    pub tlb_page_cost: Nanos,
    /// Cap on pages accounted per shootdown IPI.
    pub tlb_page_cap: u32,
}

impl Default for KernelTuning {
    fn default() -> Self {
        KernelTuning {
            nic_coalesce_window: Nanos::from_micros(20),
            nic_coalesce_max: 16,
            softirq_local_prob: 0.75,
            wake_ipi_prob: 0.7,
            preemption_rate_busy: 3.0,
            preemption_rate_idle: 0.05,
            preemption_slice: Nanos::from_micros(1_500),
            tlb_page_cost: Nanos::from_nanos(35),
            tlb_page_cap: 512,
        }
    }
}

/// The simulated machine.
#[derive(Debug, Clone)]
pub struct Machine {
    config: MachineConfig,
    tuning: KernelTuning,
}

/// Everything a simulation produces.
///
/// The attacker core is served during [`Machine::run`]: its timeline
/// ([`SimOutput::attacker_timeline`]), its kernel events
/// ([`SimOutput::attacker_kernel_events`]) and the LLC series are ready
/// when `run` returns, and they are all an attacker replay reads. The
/// other cores' timelines and the all-core kernel log are ground truth for
/// the eBPF analyses only; `run` records those cores' arrivals (with their
/// handler-time draws) and [`SimOutput::cores`], [`SimOutput::core`] and
/// [`SimOutput::kernel_log`] serve them on first read, once. Either way
/// the values are bit-identical.
#[derive(Debug, Clone)]
pub struct SimOutput {
    /// Cumulative count of victim cache-line loads over time (the sweep
    /// attacker differences this to see evictions).
    pub llc_loads: StepSeries,
    /// The core the attacker is pinned to / settled on.
    pub attacker_core: usize,
    /// Simulated duration.
    pub duration: Nanos,
    pub(crate) attacker: CoreTimeline,
    /// The attacker core's kernel events, in start order.
    pub(crate) attacker_events: Vec<KernelEvent>,
    /// Arrivals on every other core, in merge order.
    pub(crate) deferred: Vec<DeferredArrival>,
    pub(crate) handler: HandlerTimeModel,
    pub(crate) num_cores: usize,
    pub(crate) full: OnceLock<Materialized>,
}

/// The all-core view of a run, built on first read.
#[derive(Debug, Clone)]
pub(crate) struct Materialized {
    pub(crate) cores: Vec<CoreTimeline>,
    pub(crate) kernel_log: KernelLog,
}

impl SimOutput {
    /// An output whose every core and kernel log are already built — for
    /// reference engines and hand-made fixtures. `cores[attacker_core]`
    /// becomes the attacker timeline.
    ///
    /// # Panics
    ///
    /// Panics when `attacker_core` is not an index into `cores`.
    pub fn from_materialized(
        cores: Vec<CoreTimeline>,
        kernel_log: KernelLog,
        llc_loads: StepSeries,
        attacker_core: usize,
        duration: Nanos,
    ) -> Self {
        assert!(attacker_core < cores.len(), "attacker core {attacker_core} out of range");
        let attacker_events: Vec<KernelEvent> =
            kernel_log.events_on_core(attacker_core).copied().collect(); // alloc-ok: fixture constructor
        SimOutput {
            llc_loads,
            attacker_core,
            duration,
            attacker: cores[attacker_core].clone(),
            attacker_events,
            deferred: Vec::new(),
            // Never consulted: there is nothing left to serve.
            handler: HandlerTimeModel {
                base_overhead: Nanos::ZERO,
                amplification: 1.0,
                vm_exit_cost: Nanos::ZERO,
            },
            num_cores: cores.len(),
            full: OnceLock::from(Materialized { cores, kernel_log }),
        }
    }

    /// The attacker core's timeline.
    pub fn attacker_timeline(&self) -> &CoreTimeline {
        &self.attacker
    }

    /// The attacker core's kernel events, in start order — the attacker
    /// core's slice of [`SimOutput::kernel_log`], available without
    /// building the rest.
    pub fn attacker_kernel_events(&self) -> &[KernelEvent] {
        &self.attacker_events
    }

    /// One core's timeline. The attacker core's is always ready; any other
    /// builds every core and the kernel log on first read.
    ///
    /// # Panics
    ///
    /// Panics when `core` is out of range.
    pub fn core(&self, core: usize) -> &CoreTimeline {
        if core == self.attacker_core {
            &self.attacker
        } else {
            &self.cores()[core]
        }
    }

    /// One timeline per core; index = core id. Builds every core and the
    /// kernel log on first read.
    pub fn cores(&self) -> &[CoreTimeline] {
        &self.full().cores
    }

    /// Ground-truth kernel activity on every core, ordered by
    /// `(start, core)`. Builds every core and the kernel log on first
    /// read.
    pub fn kernel_log(&self) -> &KernelLog {
        &self.full().kernel_log
    }

    /// Whether the all-core view has been built (read, or built by
    /// construction).
    pub fn is_materialized(&self) -> bool {
        self.full.get().is_some()
    }

    fn full(&self) -> &Materialized {
        self.full.get_or_init(|| self.materialize())
    }

    /// Serve the deferred arrivals FIFO per core with the same server and
    /// handler-time function the attacker core used during the run, then
    /// merge every core's log by `(start, core)`.
    fn materialize(&self) -> Materialized {
        let attacker = self.attacker_core;
        let tally = bf_obs::enabled(bf_obs::Level::Error);
        let mut handler_ns = bf_obs::LocalHistogram::new();
        let mut core_logs = workspace::take_event_list();
        let mut per_core_gaps = workspace::take_gap_list();
        for _ in 0..self.num_cores {
            core_logs.push(workspace::take_events());
            per_core_gaps.push(workspace::take_gaps());
        }
        let mut busy_until = workspace::take_nanos();
        busy_until.resize(self.num_cores, Nanos::ZERO);
        for d in &self.deferred {
            let core = d.core as usize;
            let len = self.handler.from_standard_normal(d.kind, d.units, d.slot.value());
            if tally {
                handler_ns.record(len.as_nanos() as f64);
            }
            serve(
                core,
                d.t,
                len,
                KernelEventKind::Interrupt(d.kind),
                &mut busy_until[core],
                &mut per_core_gaps[core],
                &mut core_logs[core],
            );
        }
        workspace::give_nanos(busy_until);
        bf_obs::histogram("sim.handler_ns").merge_local(&handler_ns);

        core_logs[attacker].extend_from_slice(&self.attacker_events);
        let kernel_log = merge_core_logs(&core_logs);
        workspace::give_event_list(core_logs);

        let mut cores = workspace::take_timelines();
        for (core, gaps) in per_core_gaps.drain(..).enumerate() {
            cores.push(if core == attacker {
                self.attacker.clone_in(gaps, workspace::take_points())
            } else {
                CoreTimeline::new(self.duration, gaps, StepSeries::new(1.0))
            });
        }
        workspace::give_gap_list(per_core_gaps);
        Materialized { cores, kernel_log }
    }
}

/// Serve one kernel entry FIFO on `core`: it starts once it has arrived
/// and the core is free, is logged, and extends the core's last gap when
/// it starts before that gap ends. Per-core starts are strictly
/// increasing (`start >= previous end > previous start`), so each core's
/// log is born sorted.
#[inline]
fn serve(
    core: usize,
    t: Nanos,
    len: Nanos,
    kind: KernelEventKind,
    busy_until: &mut Nanos,
    gaps: &mut Vec<Gap>,
    log: &mut Vec<KernelEvent>,
) {
    let start = t.max(*busy_until);
    let end = start + len;
    *busy_until = end;
    log.push(KernelEvent {
        core,
        start,
        end,
        kind,
    });
    let cause = match kind {
        KernelEventKind::Interrupt(k) => GapCause::Interrupt(k),
        KernelEventKind::ContextSwitch => GapCause::Preemption,
    };
    match gaps.last_mut() {
        Some(last) if start <= last.end => last.end = last.end.max(end),
        _ => gaps.push(Gap { start, end, cause }),
    }
}

/// Merge born-sorted per-core logs by `(start, core)` — the composite keys
/// are unique (per-core starts strictly increase), so this equals the
/// retired engine's stable global sort.
fn merge_core_logs(core_logs: &[Vec<KernelEvent>]) -> KernelLog {
    let mut merged = workspace::take_events();
    merged.reserve(core_logs.iter().map(|l| l.len()).sum());
    let mut cursors = workspace::take_usizes();
    cursors.resize(core_logs.len(), 0);
    // Cache each core's head start (MAX = exhausted) so one round scans a
    // short array instead of re-indexing every log; strict `<` keeps the
    // lowest core on ties, i.e. (start, core) order.
    let mut heads = workspace::take_nanos();
    for log in core_logs {
        heads.push(log.first().map_or(Nanos::MAX, |e| e.start));
    }
    loop {
        let mut best_core = usize::MAX;
        let mut best_t = Nanos::MAX;
        for (core, &h) in heads.iter().enumerate() {
            if h < best_t {
                best_t = h;
                best_core = core;
            }
        }
        if best_core == usize::MAX {
            break;
        }
        let cur = cursors[best_core];
        merged.push(core_logs[best_core][cur]);
        cursors[best_core] = cur + 1;
        heads[best_core] = core_logs[best_core]
            .get(cur + 1)
            .map_or(Nanos::MAX, |e| e.start);
    }
    workspace::give_nanos(heads);
    workspace::give_usizes(cursors);
    KernelLog::from_sorted_events(merged)
}

/// An arrival on a core the attacker does not observe, recorded during
/// the run together with its draw from the handler-time normal stream.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DeferredArrival {
    t: Nanos,
    slot: NormalSlot,
    core: u32,
    units: u32,
    kind: InterruptKind,
}

/// A pending interrupt arrival (pre-service).
#[derive(Debug, Clone, Copy)]
struct Arrival {
    t: Nanos,
    core: usize,
    kind: InterruptKind,
    /// Batched work units (packets, pages, expired timers).
    units: u32,
}

/// A scheduled preemption window on the attacker core.
#[derive(Debug, Clone, Copy)]
struct Preemption {
    t: Nanos,
    len: Nanos,
}

/// A cascade emission waiting for release, keyed `(t, seq)` where `seq`
/// is the emission index — exactly the key the retired engine's stable
/// sort ordered cascade arrivals by. The key is packed into one `u128`
/// (`t` in the high half, `seq` in the low) so a comparison reads a
/// single word; `seq` is unique, so key order is exactly `(t, seq)`
/// lexicographic order. `Ord` is key order *reversed*, so
/// `std::collections::BinaryHeap`, a max-heap, pops the smallest key.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingArrival {
    key: u128,
    core: u32,
    units: u32,
    kind: InterruptKind,
}

impl PendingArrival {
    #[inline]
    fn t(&self) -> Nanos {
        Nanos::from_nanos((self.key >> 64) as u64)
    }
}

impl PartialEq for PendingArrival {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for PendingArrival {}

impl PartialOrd for PendingArrival {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PendingArrival {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

/// The cascade's reorder buffer: two lanes, each holding its keys in
/// ascending order.
///
/// Most emissions are stamped at their own event's time, and event times
/// only grow, so they arrive in key order and queue on a FIFO `lane`.
/// The rest go to a min-`heap`: a NIC flush stamped at its batch's first
/// packet, behind keys already queued, and the follow-ups stamped after
/// their event (graphics IRQ work and tasklets, key releases, burst
/// timer softirqs, most NET_RX softirqs). The smaller of the two fronts is
/// the smallest key buffered, so pops come out in the unique ascending
/// key order — the order one heap over every emission gave.
struct ReorderBuffer {
    lane: VecDeque<PendingArrival>,
    heap: BinaryHeap<PendingArrival>,
}

impl ReorderBuffer {
    /// Both lanes take their storage from the workspace pool: the lane
    /// here, the heap on its first push, so a run that never needs the
    /// heap leaves the pooled buffer for one that does.
    fn new() -> Self {
        ReorderBuffer {
            lane: VecDeque::from(workspace::take_pending()),
            heap: BinaryHeap::new(),
        }
    }

    /// Buffer `e`, emitted while processing an event at `now`.
    #[inline]
    fn push(&mut self, now: Nanos, e: PendingArrival) {
        if e.t() <= now && self.lane.back().is_none_or(|back| back.key < e.key) {
            self.lane.push_back(e); // alloc-ok: pooled buffer, amortized by reuse across runs
        } else {
            if self.heap.capacity() == 0 {
                self.heap = BinaryHeap::from(workspace::take_pending());
            }
            self.heap.push(e); // alloc-ok: pooled buffer, amortized by reuse across runs
        }
    }

    /// Whether the smallest buffered key heads the heap, not the lane.
    #[inline]
    fn heap_leads(&self) -> bool {
        match (self.lane.front(), self.heap.peek()) {
            (Some(l), Some(h)) => h.key < l.key,
            (l, _) => l.is_none(),
        }
    }

    /// The smallest buffered key.
    #[inline]
    fn peek(&self) -> Option<&PendingArrival> {
        if self.heap_leads() {
            self.heap.peek()
        } else {
            self.lane.front()
        }
    }

    /// Remove and return the smallest buffered key.
    #[inline]
    fn pop(&mut self) -> Option<PendingArrival> {
        if self.heap_leads() {
            self.heap.pop()
        } else {
            self.lane.pop_front()
        }
    }

    fn is_empty(&self) -> bool {
        self.lane.is_empty() && self.heap.is_empty()
    }

    /// Pool the storage in reverse take order: the pool is LIFO, so the
    /// next run's lane gets this run's lane buffer back (in take order,
    /// the two would swap on every run and both grow to the lane's size).
    fn finish(self) {
        workspace::give_pending(self.heap.into_vec());
        workspace::give_pending(self.lane.into());
    }
}

/// Per-core periodic scheduler ticks, merged across cores on the fly.
///
/// Tick `(k, core)` fires at `phase(core) + k * period` with
/// `phase(core) = period * core / num_cores`; phases are non-decreasing
/// in the core id and strictly below one period, so emitting in
/// `(k, core)` lexicographic order yields a time-sorted stream whose
/// equal-time ties keep core order — the retired engine's insertion
/// order (core-major) under its stable sort.
struct TickStream {
    period: u64,
    num_cores: u64,
    duration: u64,
    core: u64,
    /// Start of round `k`: `k * period`.
    base: u64,
    /// `floor(period * core / num_cores)`, advanced incrementally
    /// (quotient plus running remainder — no division per tick).
    phase: u64,
    phase_rem: u64,
    /// `period / num_cores` and `period % num_cores`, hoisted.
    step_q: u64,
    step_r: u64,
}

impl TickStream {
    fn new(cfg: &MachineConfig, duration: Nanos) -> Self {
        let period = cfg.os.tick_period().as_nanos();
        let num_cores = cfg.num_cores as u64;
        TickStream {
            period,
            num_cores,
            duration: duration.as_nanos(),
            core: 0,
            base: 0,
            phase: 0,
            phase_rem: 0,
            step_q: period / num_cores,
            step_r: period % num_cores,
        }
    }

    fn next(&mut self) -> Option<Arrival> {
        let t = self.base + self.phase;
        if t >= self.duration {
            // The stream is globally non-decreasing: nothing later fits.
            return None;
        }
        let arrival = Arrival {
            t: Nanos::from_nanos(t),
            core: self.core as usize,
            kind: InterruptKind::TimerTick,
            units: 0,
        };
        self.core += 1;
        if self.core == self.num_cores {
            self.core = 0;
            self.base += self.period;
            self.phase = 0;
            self.phase_rem = 0;
        } else {
            // phase(core+1) = phase(core) + period/n, carrying the
            // fractional part: exactly floor(period * core / n) at every
            // step because both remainders stay below n.
            self.phase += self.step_q;
            self.phase_rem += self.step_r;
            if self.phase_rem >= self.num_cores {
                self.phase += 1;
                self.phase_rem -= self.num_cores;
            }
        }
        Some(arrival)
    }
}

/// OS housekeeping noise floor: RCU softirqs, daemon wakeups, occasional
/// disk/net activity. Inter-arrival times are strictly increasing, so the
/// stream is sorted as generated.
struct BackgroundStream<'a> {
    cfg: &'a MachineConfig,
    duration: Nanos,
    mean_gap: f64,
    rng: SeedRng,
    t: Nanos,
    seq: u64,
    done: bool,
}

impl<'a> BackgroundStream<'a> {
    fn new(cfg: &'a MachineConfig, duration: Nanos, rng: SeedRng) -> Self {
        BackgroundStream {
            cfg,
            duration,
            mean_gap: 1e9 / cfg.os.background_noise_rate(),
            rng,
            t: Nanos::ZERO,
            seq: 0xB000,
            done: false,
        }
    }

    fn next(&mut self) -> Option<Arrival> {
        if self.done {
            return None;
        }
        self.t += Nanos::from_nanos(self.rng.exponential(self.mean_gap) as u64 + 1);
        if self.t >= self.duration {
            self.done = true;
            return None;
        }
        let core = self.rng.int_range(0, self.cfg.num_cores as u64) as usize;
        let roll = self.rng.uniform();
        Some(if roll < 0.45 {
            Arrival {
                t: self.t,
                core,
                kind: InterruptKind::RescheduleIpi,
                units: 0,
            }
        } else if roll < 0.75 {
            Arrival {
                t: self.t,
                core,
                kind: InterruptKind::Softirq(SoftirqKind::Rcu),
                units: 1,
            }
        } else if roll < 0.9 {
            Arrival {
                t: self.t,
                core,
                kind: InterruptKind::Softirq(SoftirqKind::Timer),
                units: 1,
            }
        } else {
            let kind = if self.rng.chance(0.5) {
                InterruptKind::Disk
            } else {
                InterruptKind::Usb
            };
            let core = self
                .cfg
                .effective_routing()
                .route(kind, self.seq, self.cfg.num_cores);
            self.seq += 1;
            Arrival {
                t: self.t,
                core,
                kind,
                units: 0,
            }
        })
    }
}

/// The workload interrupt cascade: a two-way merge of the (sorted) victim
/// workload with the lazily generated ambient LLC-churn stream, expanded
/// event by event into interrupt arrivals.
///
/// Emissions are not time-sorted at the source — a NIC coalescing flush
/// lands at the batch's *first* packet time, after later packets were
/// seen, and some arms stamp follow-ups after their event — so they
/// buffer in a [`ReorderBuffer`] keyed `(t, seq)` and are released only
/// once no future emission can precede them (every arm emits at or after
/// its event's time, and a pending NIC batch can only flush at
/// `nic_first`). The release bound keeps the buffer deep while a batch
/// is open, but nearly all of it is in-order emissions on the FIFO lane.
struct Cascade<'a> {
    cfg: &'a MachineConfig,
    tuning: &'a KernelTuning,
    duration: Nanos,
    /// The victim workload's events, in push order.
    events: &'a [TimedEvent],
    /// Stable `(t, index)` order over `events` when they are not already
    /// sorted; `None` streams the slice directly.
    order: Option<Vec<(u64, u32)>>,
    pos: usize,
    /// `events[pos]` (through `order`), cached so the release-bound check
    /// in [`Cascade::next`] costs a register read, not slice indexing.
    wl_head: Option<TimedEvent>,
    ambient_rng: SeedRng,
    ambient_t: Nanos,
    ambient_head: Option<TimedEvent>,
    softirq_rng: SeedRng,
    /// Device-IRQ sequence number for routing.
    route_seq: u64,
    // NIC coalescing state.
    nic_pending: u32,
    nic_first: Nanos,
    nic_last: Nanos,
    final_flushed: bool,
    /// Time of the event being processed: emissions stamped at or before
    /// it may join the FIFO lane.
    now: Nanos,
    pending: ReorderBuffer,
    emit_seq: u64,
    llc: StepSeries,
    llc_cum: f64,
}

impl<'a> Cascade<'a> {
    fn new(
        cfg: &'a MachineConfig,
        tuning: &'a KernelTuning,
        workload: &'a Workload,
        softirq_rng: SeedRng,
        ambient_rng: SeedRng,
    ) -> Self {
        let duration = workload.duration();
        let order = if workload.is_sorted() {
            None
        } else {
            debug_assert!(u32::try_from(workload.len()).is_ok());
            let mut order = workspace::take_index();
            for (i, ev) in workload.events().iter().enumerate() {
                order.push((ev.t.as_nanos(), i as u32));
            }
            // Unique composite keys make the unstable (allocation-free)
            // sort equivalent to the stable sort-by-time the workload's
            // own `finalize` would perform.
            order.sort_unstable();
            Some(order)
        };
        let mut cascade = Cascade {
            cfg,
            tuning,
            duration,
            events: workload.events(),
            order,
            pos: 0,
            wl_head: None,
            ambient_rng,
            ambient_t: Nanos::ZERO,
            ambient_head: None,
            softirq_rng,
            route_seq: 0,
            nic_pending: 0,
            nic_first: Nanos::ZERO,
            nic_last: Nanos::ZERO,
            final_flushed: false,
            now: Nanos::ZERO,
            pending: ReorderBuffer::new(),
            emit_seq: 0,
            llc: StepSeries::new_in(0.0, workspace::take_points()),
            llc_cum: 0.0,
        };
        cascade.advance_ambient();
        cascade.refill_workload();
        cascade
    }

    /// Background LLC traffic from the rest of the system: the browser
    /// process itself, other tabs, the OS page cache, daemons. Real
    /// machines stream megabytes through the LLC every second whether
    /// or not the victim tab does anything — this uncontrolled churn
    /// is why the paper finds the cache-occupancy channel noisier than
    /// the interrupt channel (§4.3).
    fn advance_ambient(&mut self) {
        self.ambient_t += Nanos::from_nanos(self.ambient_rng.exponential(3.3e6) as u64 + 1); // ~300/s
        if self.ambient_t >= self.duration {
            // Exhausted: the caller never asks to advance again, so the
            // RNG draw sequence ends exactly where the eager loop's did.
            self.ambient_head = None;
            return;
        }
        let lines = self.ambient_rng.log_normal((3_000.0f64).ln(), 1.0) as u32;
        self.ambient_head = Some(TimedEvent {
            t: self.ambient_t,
            event: WorkloadEvent::CacheLoad {
                lines: lines.min(98_304),
            },
        });
    }

    /// Re-cache `events[pos]` into `wl_head`. The stream is sorted, so
    /// the first out-of-range event ends it.
    fn refill_workload(&mut self) {
        let ev = match &self.order {
            None => self.events.get(self.pos).copied(),
            Some(order) => order.get(self.pos).map(|&(_, i)| self.events[i as usize]),
        };
        self.wl_head = ev.filter(|ev| ev.t < self.duration);
    }

    /// Pop the next event in merged time order; the victim workload wins
    /// ties (it preceded the appended ambient events under the retired
    /// engine's stable sort).
    fn next_event(&mut self) -> Option<TimedEvent> {
        match (self.wl_head, self.ambient_head) {
            (Some(we), Some(ae)) if we.t <= ae.t => {
                self.pos += 1;
                self.refill_workload();
                Some(we)
            }
            (_, Some(ae)) => {
                self.advance_ambient();
                Some(ae)
            }
            (Some(we), None) => {
                self.pos += 1;
                self.refill_workload();
                Some(we)
            }
            (None, None) => None,
        }
    }

    /// Earliest unprocessed event time, if any.
    fn peek_event_t(&self) -> Option<Nanos> {
        match (self.wl_head, self.ambient_head) {
            (Some(w), Some(a)) => Some(w.t.min(a.t)),
            (Some(w), None) => Some(w.t),
            (None, Some(a)) => Some(a.t),
            (None, None) => None,
        }
    }

    fn emit(&mut self, t: Nanos, core: usize, kind: InterruptKind, units: u32) {
        let e = PendingArrival {
            key: ((t.as_nanos() as u128) << 64) | self.emit_seq as u128,
            core: core as u32,
            units,
            kind,
        };
        self.pending.push(self.now, e);
        self.emit_seq += 1;
    }

    fn flush_nic(&mut self, first: Nanos, pending_units: u32) {
        if pending_units == 0 {
            return;
        }
        let irq_core =
            self.cfg
                .effective_routing()
                .route(InterruptKind::NetworkRx, self.route_seq, self.cfg.num_cores);
        self.route_seq += 1;
        self.emit(first, irq_core, InterruptKind::NetworkRx, 0);
        // Bottom half: NET_RX softirq, local or deferred to a random
        // core (non-movable either way).
        let local = self.softirq_rng.chance(self.tuning.softirq_local_prob);
        let soft_core = if local {
            irq_core
        } else {
            self.softirq_rng.int_range(0, self.cfg.num_cores as u64) as usize
        };
        let delay = Nanos::from_nanos(1_000 + self.softirq_rng.int_range(0, 4_000));
        self.emit(
            first + delay,
            soft_core,
            InterruptKind::Softirq(SoftirqKind::NetRx),
            pending_units,
        );
    }

    fn process(&mut self, ev: TimedEvent) {
        self.now = ev.t;
        let num_cores = self.cfg.num_cores;
        match ev.event {
            WorkloadEvent::NetworkPacket { bytes } => {
                let units = 1 + bytes / 4_096; // big payloads = more work
                if self.nic_pending > 0
                    && ev.t.saturating_sub(self.nic_last) <= self.tuning.nic_coalesce_window
                    && self.nic_pending < self.tuning.nic_coalesce_max
                {
                    self.nic_pending += units;
                    self.nic_last = ev.t;
                } else {
                    let (first, pending_units) = (self.nic_first, self.nic_pending);
                    self.flush_nic(first, pending_units);
                    self.nic_pending = units;
                    self.nic_first = ev.t;
                    self.nic_last = ev.t;
                }
            }
            WorkloadEvent::DiskCompletion => {
                let core =
                    self.cfg
                        .effective_routing()
                        .route(InterruptKind::Disk, self.route_seq, num_cores);
                self.route_seq += 1;
                self.emit(ev.t, core, InterruptKind::Disk, 0);
            }
            WorkloadEvent::GraphicsFrame => {
                let core = self.cfg.effective_routing().route(
                    InterruptKind::Graphics,
                    self.route_seq,
                    num_cores,
                );
                self.route_seq += 1;
                self.emit(ev.t, core, InterruptKind::Graphics, 0);
                // GPU completion queues IRQ work / tasklets on a
                // kernel-chosen core (§5.2: softirqs help launch GPU
                // operations and may land on the attacker's core).
                let w_core = self.softirq_rng.int_range(0, num_cores as u64) as usize;
                self.emit(
                    ev.t + Nanos::from_micros(2),
                    w_core,
                    InterruptKind::IrqWork,
                    0,
                );
                if self.softirq_rng.chance(0.5) {
                    let t_core = self.softirq_rng.int_range(0, num_cores as u64) as usize;
                    self.emit(
                        ev.t + Nanos::from_micros(5),
                        t_core,
                        InterruptKind::Softirq(SoftirqKind::Tasklet),
                        1,
                    );
                }
            }
            WorkloadEvent::VictimWake => {
                if self.softirq_rng.chance(self.tuning.wake_ipi_prob) {
                    let core = self.softirq_rng.int_range(0, num_cores as u64) as usize;
                    self.emit(ev.t, core, InterruptKind::RescheduleIpi, 0);
                }
            }
            WorkloadEvent::TlbShootdown { pages } => {
                // Broadcast to every core but the initiator.
                let initiator = self.softirq_rng.int_range(0, num_cores as u64) as usize;
                let units = pages.min(self.tuning.tlb_page_cap);
                for core in 0..num_cores {
                    if core != initiator {
                        self.emit(ev.t, core, InterruptKind::TlbShootdown, units);
                    }
                }
            }
            WorkloadEvent::CacheLoad { lines } => {
                self.llc_cum += lines as f64;
                self.llc.push_or_update(ev.t.as_nanos(), self.llc_cum);
            }
            WorkloadEvent::CpuBurst { duration: d } => {
                // Heavy bursts expire timers: TIMER softirq on the
                // burst core.
                if d >= Nanos::from_millis(1) && self.softirq_rng.chance(0.3) {
                    let core = self.softirq_rng.int_range(0, num_cores as u64) as usize;
                    self.emit(
                        ev.t + d / 2,
                        core,
                        InterruptKind::Softirq(SoftirqKind::Timer),
                        1,
                    );
                }
            }
            WorkloadEvent::KeyPress => {
                // HID press interrupt, then a release interrupt
                // 80–250 µs later (keyboards report both edges), then
                // the focused app wakes. USB interrupts are
                // source-affine: every keystroke hits the same core
                // unless irqbalance moves it.
                let core = self
                    .cfg
                    .effective_routing()
                    .route(InterruptKind::Usb, 0, num_cores);
                self.emit(ev.t, core, InterruptKind::Usb, 0);
                let release =
                    ev.t + Nanos::from_micros(80 + self.softirq_rng.int_range(0, 170));
                self.emit(release, core, InterruptKind::Usb, 0);
                if self.softirq_rng.chance(0.8) {
                    let wake_core = self.softirq_rng.int_range(0, num_cores as u64) as usize;
                    self.emit(
                        ev.t + Nanos::from_micros(30),
                        wake_core,
                        InterruptKind::RescheduleIpi,
                        0,
                    );
                }
            }
            WorkloadEvent::SpuriousInterrupt => {
                // §6.2: activity bursts + network pings at random.
                let core = self.softirq_rng.int_range(0, num_cores as u64) as usize;
                self.emit(ev.t, core, InterruptKind::RescheduleIpi, 0);
                let core2 = self.softirq_rng.int_range(0, num_cores as u64) as usize;
                self.emit(
                    ev.t + Nanos::from_micros(3),
                    core2,
                    InterruptKind::Softirq(SoftirqKind::Timer),
                    2,
                );
            }
        }
    }

    fn next(&mut self) -> Option<Arrival> {
        loop {
            // Fast path: nothing buffered, so no release-bound to check —
            // chew through events (most are LLC loads and coalesced NIC
            // packets that emit nothing) until one buffers an emission.
            if let Some(top) = self.pending.peek() {
                // A buffered emission is releasable once nothing still to
                // come can sort before it: future emissions happen at or
                // after the next event's time, except a pending NIC batch,
                // which can flush as early as `nic_first`. Later emissions
                // at an equal time carry a larger `seq`, so `<=` is safe.
                let bound = if self.nic_pending > 0 {
                    Some(self.nic_first)
                } else {
                    self.peek_event_t()
                };
                if bound.is_none_or(|b| top.t() <= b) {
                    let p = self.pending.pop().expect("peeked above");
                    return Some(Arrival {
                        t: p.t(),
                        core: p.core as usize,
                        kind: p.kind,
                        units: p.units,
                    });
                }
            }
            if let Some(ev) = self.next_event() {
                self.process(ev);
            } else if !self.final_flushed {
                self.final_flushed = true;
                let (first, pending_units) = (self.nic_first, self.nic_pending);
                self.nic_pending = 0;
                self.flush_nic(first, pending_units);
            } else {
                debug_assert!(self.pending.is_empty());
                return None;
            }
        }
    }

    /// Dismantle the cascade: hand the LLC series to the caller and pool
    /// the scratch storage.
    fn finish(self) -> StepSeries {
        let Cascade {
            order, pending, llc, ..
        } = self;
        if let Some(order) = order {
            workspace::give_index(order);
        }
        pending.finish();
        llc
    }
}

/// Lazily generated scheduler preemptions of the attacker core (unpinned
/// configurations only): the load balancer sometimes places a victim
/// thread on the attacker's core. Times are strictly increasing, so the
/// stream is sorted as generated.
struct PreemptStream<'a> {
    activity: &'a [f64],
    period: u64,
    duration: Nanos,
    rate_busy: f64,
    rate_idle: f64,
    slice_ln: f64,
    rng: SeedRng,
    t: Nanos,
    done: bool,
}

impl<'a> PreemptStream<'a> {
    fn new(
        cfg: &MachineConfig,
        tuning: &KernelTuning,
        duration: Nanos,
        activity: &'a [f64],
        rng: SeedRng,
    ) -> Self {
        PreemptStream {
            activity,
            period: cfg.frequency.update_period.as_nanos().max(1),
            duration,
            rate_busy: tuning.preemption_rate_busy,
            rate_idle: tuning.preemption_rate_idle,
            slice_ln: (tuning.preemption_slice.as_nanos() as f64).ln(),
            rng,
            t: Nanos::ZERO,
            // Pinned cores never get preempted — and the RNG is never
            // drawn, matching the retired engine's early return.
            done: cfg.isolation.pin_cores,
        }
    }

    fn next(&mut self) -> Option<Preemption> {
        if self.done {
            return None;
        }
        let bucket = (self.t.as_nanos() / self.period) as usize;
        let act = self.activity.get(bucket).copied().unwrap_or(0.0);
        let rate = self.rate_idle + (self.rate_busy - self.rate_idle) * act.min(1.0);
        let gap = self.rng.exponential(1e9 / rate.max(1e-6));
        self.t += Nanos::from_nanos(gap as u64 + 1);
        if self.t >= self.duration {
            self.done = true;
            return None;
        }
        let len_ns = self.rng.log_normal(self.slice_ln, 0.8);
        Some(Preemption {
            t: self.t,
            len: Nanos::from_nanos(len_ns as u64),
        })
    }
}

/// Per-bucket activity surcharge a workload event contributes (ns of
/// implied CPU work), for the frequency governor and preemption models.
fn activity_cost(event: WorkloadEvent) -> f64 {
    match event {
        WorkloadEvent::NetworkPacket { .. } | WorkloadEvent::DiskCompletion => 2_000.0,
        WorkloadEvent::GraphicsFrame => 8_000.0,
        WorkloadEvent::VictimWake => 1_500.0,
        WorkloadEvent::TlbShootdown { .. } => 3_000.0,
        WorkloadEvent::CacheLoad { .. } => 0.0,
        WorkloadEvent::CpuBurst { duration } => duration.as_nanos() as f64,
        WorkloadEvent::KeyPress => 1_000.0,
        WorkloadEvent::SpuriousInterrupt => 2_000.0,
    }
}

impl Machine {
    /// Create a machine with default kernel tuning.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid (see
    /// [`MachineConfig::validate`]).
    pub fn new(config: MachineConfig) -> Self {
        Machine::with_tuning(config, KernelTuning::default())
    }

    /// Create a machine with explicit kernel tuning (ablation studies).
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid.
    pub fn with_tuning(config: MachineConfig, tuning: KernelTuning) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid machine config: {e}");
        }
        Machine { config, tuning }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Run the workload, producing timelines, kernel log, and cache/freq
    /// series. Fully deterministic in `(config, tuning, workload, seed)`.
    ///
    /// Every arrival source is merged and every RNG stream advances in
    /// full, but only arrivals routed to the attacker core get a handler
    /// time and service here; the others are recorded with their
    /// handler-time draw and served when the output's
    /// [`cores`](SimOutput::cores) or [`kernel_log`](SimOutput::kernel_log)
    /// is first read (see [`SimOutput`]).
    ///
    /// Steady-state runs allocate nothing: every buffer comes from the
    /// thread-local [`workspace`](crate::workspace) pool, and passing the
    /// finished output to [`workspace::recycle`](crate::workspace::recycle)
    /// returns its storage for the next run.
    pub fn run(&self, workload: &Workload, seed: u64) -> SimOutput {
        let cfg = &self.config;
        let duration = workload.duration();
        let root = SeedRng::new(seed);
        let mut handler_slots = NormalSlots::new(root.fork(2));
        let background_rng = root.fork(3);
        let softirq_rng = root.fork(4);
        let preempt_rng = root.fork(5);
        let mut freq_rng = root.fork(6);
        let ambient_rng = root.fork(7);

        let mut cascade = Cascade::new(cfg, &self.tuning, workload, softirq_rng, ambient_rng);

        // Activity accounting for the frequency governor and the
        // preemption model: CPU-burst time plus a per-interrupt surcharge,
        // bucketed by governor period. Ambient cache churn carries no
        // surcharge, so this pass walks only the (time-ordered) victim
        // events — the same per-bucket addition order the event loop used
        // when it interleaved them, which keeps the float sums bit-exact.
        let freq_period = cfg.frequency.update_period.as_nanos().max(1);
        let n_buckets = (duration.as_nanos() / freq_period + 1) as usize;
        let mut activity = workspace::take_f64s();
        activity.resize(n_buckets, 0.0);
        {
            let events = workload.events();
            // Events arrive time-sorted, so the bucket index is monotone:
            // advance it by comparison instead of dividing per event.
            let mut bucket = 0usize;
            let mut bucket_end = freq_period;
            let mut add = |ev: TimedEvent| {
                if ev.t >= duration {
                    return false;
                }
                let t = ev.t.as_nanos();
                while t >= bucket_end {
                    bucket += 1;
                    bucket_end += freq_period;
                }
                if let Some(slot) = activity.get_mut(bucket) {
                    *slot += activity_cost(ev.event);
                }
                true
            };
            match &cascade.order {
                None => {
                    for &ev in events {
                        if !add(ev) {
                            break;
                        }
                    }
                }
                Some(order) => {
                    for &(_, i) in order {
                        if !add(events[i as usize]) {
                            break;
                        }
                    }
                }
            }
        }
        // Normalize activity to a 0..1 utilization estimate per bucket.
        let cap = freq_period as f64 * cfg.num_cores as f64;
        for a in &mut activity {
            *a = (*a / cap).min(1.0);
        }

        let freq = if cfg.frequency.scaling_enabled {
            self.frequency_series(duration, &activity, &mut freq_rng, workspace::take_points())
        } else {
            StepSeries::new(1.0)
        };
        let mut turbo_stalls = workspace::take_gaps();
        self.generate_turbo_stalls(duration, &mut freq_rng, &mut turbo_stalls);
        let mut preempt = PreemptStream::new(cfg, &self.tuning, duration, &activity, preempt_rng);

        let mut ticks = TickStream::new(cfg, duration);
        let mut background = BackgroundStream::new(cfg, duration, background_rng);

        // Attacker-core service. Instrumentation tallies locally (plain
        // integers, no atomics) and flushes to the bf-obs registry once
        // after the loop. Even the local tallies are measurable at this
        // event rate, so `BF_LOG=off` skips them entirely — one branch on
        // a register-cached bool per arrival.
        let tally = bf_obs::enabled(bf_obs::Level::Error);
        let mut kind_counts = [0u64; InterruptKind::COUNT];
        let mut handler_ns = bf_obs::LocalHistogram::new();
        let handler = HandlerTimeModel {
            base_overhead: cfg.mitigation_overhead,
            amplification: if cfg.isolation.vm == VmMode::SeparateVms {
                cfg.vm_amplification
            } else {
                1.0
            },
            vm_exit_cost: cfg.vm_exit_cost,
        };

        let attacker = cfg.attacker_core();
        let mut busy_until = Nanos::ZERO;
        let mut gaps = workspace::take_gaps();
        let mut attacker_events = workspace::take_events();
        let mut deferred = workspace::take_deferred();

        // The k-way merge: pick the earliest head each round; equal times
        // resolve ticks < background < cascade, reproducing the retired
        // engine's insertion order under its stable sort. Attacker-core
        // preemptions interleave in time order, preemption first on ties.
        let mut tick_head = ticks.next();
        let mut bg_head = background.next();
        let mut cascade_head = cascade.next();
        let mut preempt_head = preempt.next();
        let mut n_arrivals: u64 = 0;
        let mut n_preemptions: u64 = 0;
        let head_t = |h: &Option<Arrival>| h.map_or(Nanos::MAX, |a| a.t);
        loop {
            let (tt, tb, tc) = (head_t(&tick_head), head_t(&bg_head), head_t(&cascade_head));
            let a = if tt <= tb && tt <= tc {
                if tick_head.is_none() {
                    break; // all three streams exhausted
                }
                let a = tick_head.take().expect("checked above");
                tick_head = ticks.next();
                a
            } else if tb <= tc {
                let a = bg_head.take().expect("tb < MAX implies a head");
                bg_head = background.next();
                a
            } else {
                let a = cascade_head.take().expect("tc < MAX implies a head");
                cascade_head = cascade.next();
                a
            };
            while let Some(p) = preempt_head {
                if p.t > a.t {
                    break;
                }
                serve(
                    attacker,
                    p.t,
                    p.len,
                    KernelEventKind::ContextSwitch,
                    &mut busy_until,
                    &mut gaps,
                    &mut attacker_events,
                );
                n_preemptions += 1;
                preempt_head = preempt.next();
            }
            // Every arrival takes its place in the handler-time stream;
            // only the attacker core's pays for the value now.
            let slot = handler_slots.next_slot();
            if tally {
                kind_counts[a.kind.index()] += 1;
            }
            if a.core == attacker {
                let len = handler.from_standard_normal(a.kind, a.units, slot.value());
                if tally {
                    handler_ns.record(len.as_nanos() as f64);
                }
                serve(
                    attacker,
                    a.t,
                    len,
                    KernelEventKind::Interrupt(a.kind),
                    &mut busy_until,
                    &mut gaps,
                    &mut attacker_events,
                );
            } else {
                deferred.push(DeferredArrival {
                    t: a.t,
                    slot,
                    core: a.core as u32,
                    units: a.units,
                    kind: a.kind,
                });
            }
            n_arrivals += 1;
        }
        while let Some(p) = preempt_head {
            serve(
                attacker,
                p.t,
                p.len,
                KernelEventKind::ContextSwitch,
                &mut busy_until,
                &mut gaps,
                &mut attacker_events,
            );
            n_preemptions += 1;
            preempt_head = preempt.next();
        }
        let llc = cascade.finish();

        // Flush the run's tallies into the global metrics registry.
        bf_obs::counter("sim.runs").inc();
        bf_obs::counter("sim.events_dispatched").add(n_arrivals + n_preemptions);
        bf_obs::counter("sim.preemptions").add(n_preemptions);
        bf_obs::counter("sim.turbo_stalls").add(turbo_stalls.len() as u64);
        for kind in InterruptKind::ALL {
            let n = kind_counts[kind.index()];
            if n > 0 {
                bf_obs::counter(kind.counter_name()).add(n);
            }
        }
        bf_obs::histogram("sim.handler_ns").merge_local(&handler_ns);
        bf_obs::debug!(
            "sim run: {} arrivals, {} preemptions, {} turbo stalls over {} ms",
            n_arrivals,
            n_preemptions,
            turbo_stalls.len(),
            duration.as_nanos() / 1_000_000
        );

        // Turbo Boost stalls pause user code with no kernel record
        // (footnote 4): splice them into the attacker core's gap list
        // wherever they do not collide with an existing gap.
        for stall in turbo_stalls.drain(..) {
            let pos = gaps.partition_point(|g| g.end <= stall.start);
            let clear_after = gaps.get(pos).is_none_or(|g| g.start >= stall.end);
            if clear_after {
                gaps.insert(pos, stall);
            }
        }
        workspace::give_gaps(turbo_stalls);
        workspace::give_f64s(activity);

        SimOutput {
            llc_loads: llc,
            attacker_core: attacker,
            duration,
            attacker: CoreTimeline::new(duration, gaps, freq),
            attacker_events,
            deferred,
            handler,
            num_cores: cfg.num_cores,
            full: OnceLock::new(),
        }
    }

    /// The attacker core's effective-speed curve. Only called when
    /// frequency scaling is enabled.
    fn frequency_series(
        &self,
        duration: Nanos,
        activity: &[f64],
        rng: &mut SeedRng,
        storage: Vec<(u64, f64)>,
    ) -> StepSeries {
        let fc = &self.config.frequency;
        let period = fc.update_period.as_nanos().max(1);
        // Idle turbo headroom: attacker spinning alone runs slightly above
        // nominal; machine-wide activity shares the turbo budget.
        let mut series = StepSeries::new_in(1.0 + fc.activity_droop / 2.0, storage);
        let mut ewma = 0.0;
        for (i, &a) in activity.iter().enumerate() {
            let t = (i as u64) * period;
            if t >= duration.as_nanos() {
                break;
            }
            ewma = 0.6 * ewma + 0.4 * a;
            let mult = 1.0 + fc.activity_droop / 2.0 - fc.activity_droop * ewma
                + rng.normal(0.0, fc.noise_std);
            if t == 0 {
                continue; // initial value covers bucket 0
            }
            series.push(t, mult.clamp(0.5, 1.5));
        }
        series
    }

    /// Hardware stalls when Turbo Boost is enabled (footnote 4):
    /// frequency-transition/SMM pauses on the attacker core that leave no
    /// kernel-side record, so the eBPF attribution cannot explain them.
    fn generate_turbo_stalls(&self, duration: Nanos, rng: &mut SeedRng, out: &mut Vec<Gap>) {
        if !self.config.turbo_boost {
            return;
        }
        let mut t = Nanos::ZERO;
        loop {
            t += Nanos::from_nanos(rng.exponential(4e6) as u64 + 1); // ~250/s
            if t >= duration {
                break;
            }
            let len = Nanos::from_nanos(rng.log_normal((900.0f64).ln(), 0.5) as u64 + 200);
            out.push(Gap {
                start: t,
                end: t + len,
                cause: GapCause::Hardware,
            });
            t += len;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{IsolationConfig, OsKind};
    use crate::workload::TimedEvent;
    use proptest::prelude::*;

    fn quick_workload(duration: Nanos) -> Workload {
        let mut w = Workload::new(duration);
        // A burst of packets at 100 ms.
        for i in 0..200u64 {
            w.push(TimedEvent {
                t: Nanos::from_millis(100) + Nanos::from_micros(i * 30),
                event: WorkloadEvent::NetworkPacket { bytes: 1_500 },
            });
        }
        for i in 0..100u64 {
            w.push(TimedEvent {
                t: Nanos::from_millis(150) + Nanos::from_micros(i * 100),
                event: WorkloadEvent::VictimWake,
            });
        }
        w.push_at(
            Nanos::from_millis(200),
            WorkloadEvent::TlbShootdown { pages: 64 },
        );
        w.push_at(
            Nanos::from_millis(210),
            WorkloadEvent::CacheLoad { lines: 10_000 },
        );
        w.push_at(
            Nanos::from_millis(220),
            WorkloadEvent::CpuBurst {
                duration: Nanos::from_millis(5),
            },
        );
        w.push_at(Nanos::from_millis(300), WorkloadEvent::GraphicsFrame);
        w
    }

    #[test]
    fn run_is_deterministic() {
        let m = Machine::new(MachineConfig::default());
        let w = quick_workload(Nanos::from_millis(500));
        let a = m.run(&w, 7);
        let b = m.run(&w, 7);
        assert_eq!(a.attacker_timeline().gaps(), b.attacker_timeline().gaps());
        assert_eq!(a.kernel_log().events(), b.kernel_log().events());
    }

    #[test]
    fn different_seeds_differ() {
        let m = Machine::new(MachineConfig::default());
        let w = quick_workload(Nanos::from_millis(500));
        let a = m.run(&w, 1);
        let b = m.run(&w, 2);
        assert_ne!(a.attacker_timeline().gaps(), b.attacker_timeline().gaps());
    }

    #[test]
    fn unsorted_workload_matches_finalized() {
        let m = Machine::new(MachineConfig::default());
        let unsorted = quick_workload(Nanos::from_millis(500));
        assert!(!unsorted.is_sorted());
        let mut sorted = unsorted.clone();
        sorted.finalize();
        assert!(sorted.is_sorted());
        let a = m.run(&unsorted, 7);
        let b = m.run(&sorted, 7);
        assert_eq!(a.kernel_log().events(), b.kernel_log().events());
        assert_eq!(a.llc_loads.points(), b.llc_loads.points());
        for (x, y) in a.cores().iter().zip(b.cores()) {
            assert_eq!(x.gaps(), y.gaps());
            assert_eq!(x.freq().points(), y.freq().points());
        }
    }

    #[test]
    fn kernel_log_is_sorted_without_finalize() {
        let m = Machine::new(MachineConfig::default());
        let out = m.run(&quick_workload(Nanos::from_millis(500)), 7);
        let events = out.kernel_log().events();
        assert!(events
            .windows(2)
            .all(|w| (w[0].start, w[0].core) <= (w[1].start, w[1].core)));
    }

    #[test]
    fn duplicate_instant_cache_loads_do_not_shift_time() {
        let t = Nanos::from_millis(10);
        let mut w = Workload::new(Nanos::from_millis(50));
        w.push_at(t, WorkloadEvent::CacheLoad { lines: 100 });
        w.push_at(t, WorkloadEvent::CacheLoad { lines: 200 });
        w.push_at(t, WorkloadEvent::CacheLoad { lines: 300 });
        let out = Machine::new(MachineConfig::default()).run(&w, 37);
        // All three loads land on one point at exactly t — no displaced
        // t+1 / t+2 points like the old same-instant kludge produced.
        let at_t: Vec<_> = out
            .llc_loads
            .points()
            .iter()
            .filter(|&&(pt, _)| pt >= t.as_nanos() && pt < t.as_nanos() + 3)
            .collect();
        assert_eq!(at_t.len(), 1, "expected one coalesced point: {at_t:?}");
        let before = out.llc_loads.value_at(t.as_nanos() - 1);
        let after = out.llc_loads.value_at(t.as_nanos());
        assert_eq!(after - before, 600.0);
    }

    #[test]
    fn timer_ticks_reach_every_core() {
        let m = Machine::new(MachineConfig::default());
        let w = Workload::new(Nanos::from_millis(100));
        let out = m.run(&w, 3);
        for core in 0..4 {
            let ticks = out
                .kernel_log()
                .events_on_core(core)
                .filter(|e| e.kind == KernelEventKind::Interrupt(InterruptKind::TimerTick))
                .count();
            // 100 ms / 4 ms = 25 ticks.
            assert!((24..=26).contains(&ticks), "core {core}: {ticks}");
        }
    }

    #[test]
    fn gaps_are_sorted_and_disjoint() {
        let m = Machine::new(MachineConfig::default());
        let out = m.run(&quick_workload(Nanos::from_millis(500)), 11);
        for tl in out.cores() {
            let gaps = tl.gaps();
            for w in gaps.windows(2) {
                assert!(w[0].end <= w[1].start);
                assert!(w[0].start < w[1].start);
            }
        }
    }

    #[test]
    fn network_burst_shows_up_as_interrupt_time() {
        let m = Machine::new(MachineConfig::default());
        let out = m.run(&quick_workload(Nanos::from_millis(500)), 13);
        let tl = out.attacker_timeline();
        let burst = tl.interrupt_share(Nanos::from_millis(100), Nanos::from_millis(160));
        let quiet = tl.interrupt_share(Nanos::from_millis(400), Nanos::from_millis(460));
        assert!(burst > quiet, "burst {burst} <= quiet {quiet}");
    }

    #[test]
    fn irqbalance_removes_movable_irqs_from_attacker_core() {
        let mut cfg = MachineConfig::default();
        cfg.isolation.confine_movable_irqs = true;
        let m = Machine::new(cfg);
        let out = m.run(&quick_workload(Nanos::from_millis(500)), 17);
        let movable_on_attacker = out
            .kernel_log()
            .events_on_core(out.attacker_core)
            .filter_map(|e| e.kind.interrupt())
            .filter(|k| k.is_movable())
            .count();
        assert_eq!(movable_on_attacker, 0);
        // But non-movable work still lands there.
        let nonmovable = out
            .kernel_log()
            .events_on_core(out.attacker_core)
            .filter_map(|e| e.kind.interrupt())
            .filter(|k| !k.is_movable())
            .count();
        assert!(nonmovable > 0);
    }

    #[test]
    fn pinning_cores_removes_preemptions() {
        let mut cfg = MachineConfig::default();
        cfg.isolation.pin_cores = true;
        let m = Machine::new(cfg);
        let out = m.run(&quick_workload(Nanos::from_millis(500)), 19);
        let preemptions = out
            .attacker_timeline()
            .gaps()
            .iter()
            .filter(|g| g.cause == GapCause::Preemption)
            .count();
        assert_eq!(preemptions, 0);
    }

    #[test]
    fn vm_mode_lengthens_gaps() {
        let w = quick_workload(Nanos::from_millis(500));
        let base = Machine::new(MachineConfig::default()).run(&w, 23);
        let mut cfg = MachineConfig::default();
        cfg.isolation.vm = VmMode::SeparateVms;
        let vm = Machine::new(cfg).run(&w, 23);
        let mean = |o: &SimOutput| {
            let gaps = o.attacker_timeline().gaps();
            gaps.iter().map(|g| g.len().as_nanos()).sum::<u64>() as f64 / gaps.len() as f64
        };
        assert!(
            mean(&vm) > mean(&base) * 1.4,
            "vm {} base {}",
            mean(&vm),
            mean(&base)
        );
    }

    #[test]
    fn frequency_pinning_yields_flat_series() {
        let mut cfg = MachineConfig::default();
        cfg.frequency.scaling_enabled = false;
        let m = Machine::new(cfg);
        let out = m.run(&quick_workload(Nanos::from_millis(500)), 29);
        assert!(out.attacker_timeline().freq().is_empty());
    }

    #[test]
    fn frequency_scaling_produces_variation() {
        let m = Machine::new(MachineConfig::default());
        let out = m.run(&quick_workload(Nanos::from_millis(500)), 31);
        assert!(!out.attacker_timeline().freq().is_empty());
    }

    #[test]
    fn cache_loads_accumulate_monotonically() {
        let mut w = Workload::new(Nanos::from_millis(100));
        w.push_at(
            Nanos::from_millis(10),
            WorkloadEvent::CacheLoad { lines: 100 },
        );
        w.push_at(
            Nanos::from_millis(20),
            WorkloadEvent::CacheLoad { lines: 50 },
        );
        let out = Machine::new(MachineConfig::default()).run(&w, 37);
        // Ambient background LLC traffic is always present, so check the
        // workload's contribution on top of a monotone baseline instead of
        // exact totals.
        let v5 = out.llc_loads.value_at(Nanos::from_millis(5).as_nanos());
        let v15 = out.llc_loads.value_at(Nanos::from_millis(15).as_nanos());
        let v25 = out.llc_loads.value_at(Nanos::from_millis(25).as_nanos());
        assert!(v5 >= 0.0);
        assert!(v15 >= v5 + 100.0, "v5 {v5} v15 {v15}");
        assert!(v25 >= v15 + 50.0, "v15 {v15} v25 {v25}");
    }

    #[test]
    fn tlb_shootdown_broadcasts_to_other_cores() {
        let mut w = Workload::new(Nanos::from_millis(50));
        w.push_at(
            Nanos::from_millis(10),
            WorkloadEvent::TlbShootdown { pages: 8 },
        );
        let out = Machine::new(MachineConfig::default()).run(&w, 41);
        let receiving_cores: std::collections::HashSet<usize> = out
            .kernel_log()
            .events()
            .iter()
            .filter(|e| e.kind == KernelEventKind::Interrupt(InterruptKind::TlbShootdown))
            .map(|e| e.core)
            .collect();
        assert_eq!(receiving_cores.len(), 3, "one initiator, three receivers");
    }

    #[test]
    fn kernel_log_matches_gap_time_on_attacker_core() {
        // Total interrupt gap time ~= total interrupt handler time on the
        // attacker core (they merge but never overlap).
        let mut cfg = MachineConfig::default();
        cfg.isolation.pin_cores = true; // no preemption gaps
        let m = Machine::new(cfg);
        let out = m.run(&quick_workload(Nanos::from_millis(500)), 43);
        let tl = out.attacker_timeline();
        let gap_total: u64 = tl.gaps().iter().map(|g| g.len().as_nanos()).sum();
        let handler_total = out
            .kernel_log()
            .interrupt_time_on_core(out.attacker_core, Nanos::ZERO, Nanos::MAX)
            .as_nanos();
        assert_eq!(gap_total, handler_total);
    }

    #[test]
    fn windows_ticks_more_often_than_linux() {
        let w = Workload::new(Nanos::from_millis(200));
        let linux = Machine::new(MachineConfig::for_os(OsKind::Linux)).run(&w, 47);
        let windows = Machine::new(MachineConfig::for_os(OsKind::Windows)).run(&w, 47);
        let count = |o: &SimOutput| {
            o.kernel_log()
                .events()
                .iter()
                .filter(|e| e.kind == KernelEventKind::Interrupt(InterruptKind::TimerTick))
                .count()
        };
        assert!(count(&windows) > count(&linux) * 3);
    }

    #[test]
    fn table3_ladder_configs_all_run() {
        let w = quick_workload(Nanos::from_millis(200));
        for (name, iso) in IsolationConfig::table3_ladder() {
            let cfg = MachineConfig::default().with_isolation(iso);
            let out = Machine::new(cfg).run(&w, 53);
            assert!(!out.kernel_log().is_empty(), "{name}");
        }
    }

    #[test]
    fn turbo_boost_adds_unlogged_hardware_gaps() {
        let cfg = MachineConfig {
            turbo_boost: true,
            ..Default::default()
        };
        let out = Machine::new(cfg).run(&quick_workload(Nanos::from_millis(500)), 61);
        let hardware = out
            .attacker_timeline()
            .gaps()
            .iter()
            .filter(|g| g.cause == GapCause::Hardware)
            .count();
        // ~250/s over 0.5 s ≈ 125 stalls (minus collisions).
        assert!(hardware > 50, "hardware gaps = {hardware}");
        // And none of them appear in the kernel log: total interrupt time
        // is strictly less than total gap time.
        let tl = out.attacker_timeline();
        let gap_total: u64 = tl.gaps().iter().map(|g| g.len().as_nanos()).sum();
        let handler_total = out
            .kernel_log()
            .interrupt_time_on_core(out.attacker_core, Nanos::ZERO, Nanos::MAX)
            .as_nanos();
        assert!(
            gap_total > handler_total,
            "gap {gap_total} handler {handler_total}"
        );
    }

    #[test]
    fn turbo_disabled_by_default_means_no_hardware_gaps() {
        let out = Machine::new(MachineConfig::default())
            .run(&quick_workload(Nanos::from_millis(300)), 67);
        assert!(out
            .attacker_timeline()
            .gaps()
            .iter()
            .all(|g| g.cause != GapCause::Hardware));
    }

    #[test]
    #[should_panic(expected = "invalid machine config")]
    fn invalid_config_panics() {
        Machine::new(MachineConfig {
            num_cores: 0,
            ..Default::default()
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random interleavings of pushes stamped at `now` (the lane's
        /// case, ties included), pushes stamped before it (a NIC flush)
        /// or after it (a delayed follow-up), and releases: the two
        /// lanes peek and pop exactly the ascending key order of a
        /// sorted reference.
        #[test]
        fn reorder_buffer_pops_in_key_order(
            ops in proptest::collection::vec((0u8..4, any::<bool>(), 0u64..100), 0..400),
        ) {
            let mut buf = ReorderBuffer::new();
            let mut reference = std::collections::BTreeSet::new();
            let (mut now, mut seq) = (1_000u64, 0u64);
            for (op, step, dt) in ops {
                let dt = if step { dt } else { 0 };
                let t = match op {
                    0 => {
                        now += dt;
                        now
                    }
                    1 => now - dt,
                    2 => now + dt,
                    _ => {
                        let want = reference.pop_first();
                        prop_assert_eq!(buf.peek().map(|e| e.key), want);
                        prop_assert_eq!(buf.pop().map(|e| e.key), want);
                        continue;
                    }
                };
                let key = ((t as u128) << 64) | seq as u128;
                let e = PendingArrival { key, core: 0, units: 0, kind: InterruptKind::TimerTick };
                seq += 1;
                buf.push(Nanos::from_nanos(now), e);
                reference.insert(e.key);
            }
            while let Some(want) = reference.pop_first() {
                prop_assert_eq!(buf.peek().map(|e| e.key), Some(want));
                prop_assert_eq!(buf.pop().map(|e| e.key), Some(want));
            }
            prop_assert!(buf.is_empty() && buf.pop().is_none());
            buf.finish();
        }
    }

    /// A run leaves the lane's buffer on top of the LIFO pool, so the next
    /// run's lane gets it back and the heap the heap's; pooled in take
    /// order, the two would trade places on every run.
    #[test]
    fn reorder_lanes_get_their_own_storage_back() {
        workspace::clear_thread();
        let cfg = MachineConfig::default();
        let tuning = KernelTuning::default();
        let w = quick_workload(Nanos::from_millis(500));
        let cascade = || Cascade::new(&cfg, &tuning, &w, SeedRng::new(4), SeedRng::new(7));
        let mut first = cascade();
        while first.next().is_some() {}
        let lane_cap = first.pending.lane.capacity();
        let heap_cap = first.pending.heap.capacity();
        assert!(lane_cap > heap_cap && heap_cap > 0, "lane {lane_cap}, heap {heap_cap}");
        first.finish();
        let second = cascade();
        assert_eq!(second.pending.lane.capacity(), lane_cap);
        // The heap takes its storage on its first push: the pool's top.
        let heap_storage = workspace::take_pending();
        assert_eq!(heap_storage.capacity(), heap_cap);
        workspace::give_pending(heap_storage);
        second.finish();
    }
}
