//! The kernel-side ground-truth event log.
//!
//! The simulator records every kernel entry — interrupt handlers,
//! scheduler preemptions — with exact start/end timestamps on the shared
//! monotonic clock. `bf-ebpf` consumes this log exactly the way the
//! paper's eBPF tool consumes kprobe/tracepoint output: it is the "kernel
//! view" matched against the attacker's user-space view.

use crate::interrupt::InterruptKind;
use bf_timer::Nanos;

/// What the kernel was doing during a logged interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelEventKind {
    /// An interrupt handler ran.
    Interrupt(InterruptKind),
    /// The scheduler context-switched this core to another task.
    ContextSwitch,
}

impl KernelEventKind {
    /// The interrupt kind, if this event is an interrupt.
    pub fn interrupt(self) -> Option<InterruptKind> {
        match self {
            KernelEventKind::Interrupt(k) => Some(k),
            KernelEventKind::ContextSwitch => None,
        }
    }
}

/// One kernel-mode interval on one core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelEvent {
    /// Core the handler ran on.
    pub core: usize,
    /// Handler entry time.
    pub start: Nanos,
    /// Handler exit time (exclusive).
    pub end: Nanos,
    /// What ran.
    pub kind: KernelEventKind,
}

impl KernelEvent {
    /// Handler runtime.
    pub fn len(&self) -> Nanos {
        self.end - self.start
    }

    /// True for degenerate zero-length records.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// Time-ordered log of kernel activity across all cores.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct KernelLog {
    events: Vec<KernelEvent>,
    sorted: bool,
}

impl KernelLog {
    /// An empty log.
    pub fn new() -> Self {
        KernelLog { events: Vec::new(), sorted: true }
    }

    /// Adopt a pre-sorted event vector (ascending `(start, core)`)
    /// without re-sorting — the streamed engine merges per-core logs
    /// itself, and a redundant `finalize` would allocate a sort buffer.
    ///
    /// Order is debug-asserted; an unsorted vector in release builds
    /// yields a log whose order-dependent queries are wrong.
    pub fn from_sorted_events(events: Vec<KernelEvent>) -> Self {
        debug_assert!(
            events.windows(2).all(|w| (w[0].start, w[0].core) <= (w[1].start, w[1].core)),
            "from_sorted_events requires (start, core) order"
        );
        KernelLog { events, sorted: true }
    }

    /// Dismantle the log into its event storage so the vector can be
    /// pooled and reused.
    pub fn into_events(self) -> Vec<KernelEvent> {
        self.events
    }

    /// Append one event (any order; sorted lazily).
    pub fn record(&mut self, ev: KernelEvent) {
        debug_assert!(!ev.is_empty(), "zero-length kernel event");
        self.events.push(ev);
        self.sorted = false;
    }

    /// Sort events by (start, core).
    pub fn finalize(&mut self) {
        if !self.sorted {
            self.events.sort_by_key(|e| (e.start, e.core));
            self.sorted = true;
        }
    }

    /// All events (call [`KernelLog::finalize`] first for time order).
    pub fn events(&self) -> &[KernelEvent] {
        &self.events
    }

    /// Events on a specific core, in log order.
    pub fn events_on_core(&self, core: usize) -> impl Iterator<Item = &KernelEvent> {
        self.events.iter().filter(move |e| e.core == core)
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was logged.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total kernel time on a core attributable to interrupts, within
    /// `[a, b)`.
    pub fn interrupt_time_on_core(&self, core: usize, a: Nanos, b: Nanos) -> Nanos {
        self.events_on_core(core)
            .filter(|e| matches!(e.kind, KernelEventKind::Interrupt(_)))
            .map(|e| {
                let lo = e.start.max(a);
                let hi = e.end.min(b);
                hi.saturating_sub(lo)
            })
            .sum()
    }
}

impl Extend<KernelEvent> for KernelLog {
    fn extend<I: IntoIterator<Item = KernelEvent>>(&mut self, iter: I) {
        self.events.extend(iter);
        self.sorted = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(core: usize, start: u64, end: u64, kind: KernelEventKind) -> KernelEvent {
        KernelEvent { core, start: Nanos(start), end: Nanos(end), kind }
    }

    #[test]
    fn record_and_finalize_orders_by_time() {
        let mut log = KernelLog::new();
        log.record(ev(0, 50, 60, KernelEventKind::ContextSwitch));
        log.record(ev(1, 10, 20, KernelEventKind::Interrupt(InterruptKind::TimerTick)));
        log.finalize();
        assert_eq!(log.events()[0].start, Nanos(10));
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn from_sorted_events_skips_resort() {
        let events = vec![
            ev(1, 10, 20, KernelEventKind::Interrupt(InterruptKind::TimerTick)),
            ev(0, 50, 60, KernelEventKind::ContextSwitch),
        ];
        let log = KernelLog::from_sorted_events(events.clone());
        assert_eq!(log.events(), &events[..]);
        let recovered = log.into_events();
        assert_eq!(recovered, events);
    }

    #[test]
    fn events_on_core_filters() {
        let mut log = KernelLog::new();
        log.record(ev(0, 0, 10, KernelEventKind::ContextSwitch));
        log.record(ev(2, 5, 15, KernelEventKind::Interrupt(InterruptKind::NetworkRx)));
        assert_eq!(log.events_on_core(2).count(), 1);
        assert_eq!(log.events_on_core(1).count(), 0);
    }

    #[test]
    fn interrupt_time_excludes_context_switches() {
        let mut log = KernelLog::new();
        log.record(ev(0, 0, 100, KernelEventKind::ContextSwitch));
        log.record(ev(0, 200, 230, KernelEventKind::Interrupt(InterruptKind::TimerTick)));
        assert_eq!(log.interrupt_time_on_core(0, Nanos(0), Nanos(1_000)), Nanos(30));
    }

    #[test]
    fn interrupt_time_clips_to_window() {
        let mut log = KernelLog::new();
        log.record(ev(0, 100, 200, KernelEventKind::Interrupt(InterruptKind::Disk)));
        assert_eq!(log.interrupt_time_on_core(0, Nanos(150), Nanos(400)), Nanos(50));
        assert_eq!(log.interrupt_time_on_core(0, Nanos(300), Nanos(400)), Nanos::ZERO);
    }

    #[test]
    fn event_len() {
        let e = ev(0, 10, 25, KernelEventKind::ContextSwitch);
        assert_eq!(e.len(), Nanos(15));
        assert!(!e.is_empty());
    }

    #[test]
    fn kind_interrupt_accessor() {
        assert_eq!(
            KernelEventKind::Interrupt(InterruptKind::Usb).interrupt(),
            Some(InterruptKind::Usb)
        );
        assert_eq!(KernelEventKind::ContextSwitch.interrupt(), None);
    }
}
