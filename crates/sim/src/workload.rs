//! The workload interface between victim models and the machine simulator.
//!
//! `bf-victim` compiles a website-load (or noise process) into a
//! time-ordered stream of [`WorkloadEvent`]s; the engine turns those into
//! interrupts, cache traffic, and CPU load.

use bf_timer::Nanos;

/// One unit of victim activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadEvent {
    /// A network packet arrives at the NIC: a receive IRQ plus deferred
    /// `NET_RX` softirq work proportional to the backlog.
    NetworkPacket {
        /// Payload size (larger packets mean more softirq work).
        bytes: u32,
    },
    /// A disk/NVMe completion interrupt.
    DiskCompletion,
    /// A GPU frame/fence completion: graphics IRQ, plus tasklet/IRQ-work
    /// follow-up.
    GraphicsFrame,
    /// The victim wakes a thread (event-loop dispatch, promise resolution,
    /// worker message): the scheduler may send a rescheduling IPI to
    /// another core.
    VictimWake,
    /// The victim's memory manager unmaps/remaps pages (GC, allocator):
    /// TLB-shootdown IPIs broadcast to other cores.
    TlbShootdown {
        /// Number of pages invalidated (batched into one IPI round).
        pages: u32,
    },
    /// The victim brings `lines` cache lines into the LLC (render, parse,
    /// decode activity) — feeds the sweep-counting attacker's signal.
    CacheLoad {
        /// Cache lines loaded.
        lines: u32,
    },
    /// The victim burns CPU for `duration` (JS execution, layout): drives
    /// the frequency governor and, when cores are shared, preemption.
    CpuBurst {
        /// Length of the burst.
        duration: Nanos,
    },
    /// A defense-injected spurious interrupt (§6.2): delivered to a
    /// uniformly random core as a short burst of wakeups/pings.
    SpuriousInterrupt,
    /// A keyboard key press: a USB/HID interrupt plus the woken
    /// application's dispatch. Used by the §7.1 keystroke-timing attack
    /// demonstration.
    KeyPress,
}

/// A workload event stamped with its virtual arrival time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedEvent {
    /// Arrival time.
    pub t: Nanos,
    /// The activity.
    pub event: WorkloadEvent,
}

/// A complete victim workload over a fixed duration.
///
/// Events may be pushed in any order; [`Workload::finalize`] (called
/// automatically by the engine) sorts them by time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Workload {
    duration: Nanos,
    events: Vec<TimedEvent>,
    sorted: bool,
}

impl Workload {
    /// An empty workload covering `[0, duration)`.
    pub fn new(duration: Nanos) -> Self {
        Workload { duration, events: Vec::new(), sorted: true }
    }

    /// Total duration the simulation will cover.
    pub fn duration(&self) -> Nanos {
        self.duration
    }

    /// Add one event. Events at or beyond `duration` are kept (the engine
    /// ignores them) so composition never silently drops work.
    pub fn push(&mut self, ev: TimedEvent) {
        self.sorted = false;
        self.events.push(ev);
    }

    /// Add a plain event at time `t`.
    pub fn push_at(&mut self, t: Nanos, event: WorkloadEvent) {
        self.push(TimedEvent { t, event });
    }

    /// Merge another workload's events into this one (durations must
    /// match; used to overlay noise processes onto a website load).
    ///
    /// # Panics
    ///
    /// Panics when durations differ.
    pub fn merge(&mut self, other: &Workload) {
        assert_eq!(
            self.duration, other.duration,
            "can only merge workloads of equal duration"
        );
        self.events.extend_from_slice(&other.events);
        self.sorted = false;
    }

    /// Sort events by time (stable, so equal-time events keep insertion
    /// order).
    pub fn finalize(&mut self) {
        if !self.sorted {
            self.events.sort_by_key(|e| e.t);
            self.sorted = true;
        }
    }

    /// The events; call [`Workload::finalize`] first if ordering matters.
    pub fn events(&self) -> &[TimedEvent] {
        &self.events
    }

    /// True when the events are known to be sorted by time. The engine
    /// uses this to stream a finalized workload directly instead of
    /// building a sorted index over it.
    pub fn is_sorted(&self) -> bool {
        self.sorted
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events have been pushed.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Count events matching a predicate (test and report helper).
    pub fn count_matching(&self, mut pred: impl FnMut(&WorkloadEvent) -> bool) -> usize {
        self.events.iter().filter(|e| pred(&e.event)).count()
    }
}

impl Extend<TimedEvent> for Workload {
    fn extend<I: IntoIterator<Item = TimedEvent>>(&mut self, iter: I) {
        self.events.extend(iter);
        self.sorted = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_finalize_sorts() {
        let mut w = Workload::new(Nanos::from_secs(1));
        w.push_at(Nanos::from_millis(5), WorkloadEvent::VictimWake);
        w.push_at(Nanos::from_millis(1), WorkloadEvent::DiskCompletion);
        w.finalize();
        assert_eq!(w.events()[0].t, Nanos::from_millis(1));
        assert_eq!(w.events()[1].t, Nanos::from_millis(5));
    }

    #[test]
    fn finalize_is_stable_for_equal_times() {
        let mut w = Workload::new(Nanos::from_secs(1));
        let t = Nanos::from_millis(3);
        w.push_at(t, WorkloadEvent::NetworkPacket { bytes: 1 });
        w.push_at(t, WorkloadEvent::NetworkPacket { bytes: 2 });
        w.finalize();
        assert_eq!(w.events()[0].event, WorkloadEvent::NetworkPacket { bytes: 1 });
        assert_eq!(w.events()[1].event, WorkloadEvent::NetworkPacket { bytes: 2 });
    }

    #[test]
    fn merge_combines_events() {
        let mut a = Workload::new(Nanos::from_secs(1));
        a.push_at(Nanos::from_millis(1), WorkloadEvent::VictimWake);
        let mut b = Workload::new(Nanos::from_secs(1));
        b.push_at(Nanos::from_millis(2), WorkloadEvent::DiskCompletion);
        a.merge(&b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    #[should_panic(expected = "equal duration")]
    fn merge_rejects_mismatched_durations() {
        let mut a = Workload::new(Nanos::from_secs(1));
        let b = Workload::new(Nanos::from_secs(2));
        a.merge(&b);
    }

    #[test]
    fn count_matching_filters() {
        let mut w = Workload::new(Nanos::from_secs(1));
        w.push_at(Nanos::from_millis(1), WorkloadEvent::VictimWake);
        w.push_at(Nanos::from_millis(2), WorkloadEvent::NetworkPacket { bytes: 100 });
        w.push_at(Nanos::from_millis(3), WorkloadEvent::NetworkPacket { bytes: 200 });
        assert_eq!(
            w.count_matching(|e| matches!(e, WorkloadEvent::NetworkPacket { .. })),
            2
        );
    }

    #[test]
    fn extend_marks_unsorted() {
        let mut w = Workload::new(Nanos::from_secs(1));
        w.extend([
            TimedEvent { t: Nanos::from_millis(9), event: WorkloadEvent::VictimWake },
            TimedEvent { t: Nanos::from_millis(1), event: WorkloadEvent::VictimWake },
        ]);
        w.finalize();
        assert!(w.events()[0].t < w.events()[1].t);
    }

    #[test]
    fn empty_workload() {
        let w = Workload::new(Nanos::from_secs(1));
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
        assert_eq!(w.duration(), Nanos::from_secs(1));
    }
}
