//! KUtrace-style execution-timeline reconstruction.
//!
//! §5.2: "Truly understanding the causal relationship between non-movable
//! interrupts and other system events would require instrumenting the
//! kernel at a more in-depth level than allowed by eBPF. KUtrace is a
//! good example of such a tool." This module provides that deeper view
//! over the simulator: a complete, nanosecond-exact span timeline per
//! core (user execution / each interrupt kind / context switches), with
//! utilization summaries and a CSV export for external visualization.

use bf_sim::{KernelEventKind, SimOutput};
use bf_timer::Nanos;
use std::collections::BTreeMap;

/// What a core was doing during one span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// User code ran (the attacker's loop, a victim thread...).
    User,
    /// A kernel handler ran; the label is the interrupt kind.
    Kernel(&'static str),
    /// The scheduler ran another task.
    Switched,
}

impl SpanKind {
    /// Column label for exports.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::User => "user",
            SpanKind::Kernel(k) => k,
            SpanKind::Switched => "context_switch",
        }
    }
}

/// One contiguous span on one core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Span start.
    pub start: Nanos,
    /// Span end (exclusive).
    pub end: Nanos,
    /// Activity during the span.
    pub kind: SpanKind,
}

impl Span {
    /// Span length.
    pub fn len(&self) -> Nanos {
        self.end - self.start
    }

    /// True for degenerate spans (never produced by the builder).
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// The reconstructed timeline of one core.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreTrace {
    /// Core id.
    pub core: usize,
    /// Contiguous spans covering `[0, duration)`.
    pub spans: Vec<Span>,
}

impl CoreTrace {
    /// Total time per span label.
    pub fn utilization(&self) -> BTreeMap<&'static str, Nanos> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.kind.label()).or_insert(Nanos::ZERO) += s.len();
        }
        out
    }

    /// Fraction of the trace spent in user code.
    pub fn user_fraction(&self) -> f64 {
        let total: u64 = self.spans.iter().map(|s| s.len().as_nanos()).sum();
        if total == 0 {
            return 1.0;
        }
        let user: u64 = self
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::User)
            .map(|s| s.len().as_nanos())
            .sum();
        user as f64 / total as f64
    }

    /// CSV rows `start_ns,end_ns,kind` for external plotting.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("start_ns,end_ns,kind\n");
        for s in &self.spans {
            out.push_str(&format!("{},{},{}\n", s.start.as_nanos(), s.end.as_nanos(), s.kind.label()));
        }
        out
    }
}

/// Reconstruct the full span timeline of one core from the kernel log:
/// kernel spans come from the log, and everything between them is user
/// execution.
///
/// # Panics
///
/// Panics when `core` is out of range.
pub fn reconstruct(sim: &SimOutput, core: usize) -> CoreTrace {
    assert!(core < sim.cores().len(), "core out of range");
    let mut spans = Vec::new();
    let mut cursor = Nanos::ZERO;
    for ev in sim.kernel_log().events_on_core(core) {
        let start = ev.start.min(sim.duration);
        let end = ev.end.min(sim.duration);
        if start > cursor {
            spans.push(Span { start: cursor, end: start, kind: SpanKind::User });
        }
        if end > start {
            let kind = match ev.kind {
                KernelEventKind::Interrupt(k) => SpanKind::Kernel(k.label()),
                KernelEventKind::ContextSwitch => SpanKind::Switched,
            };
            spans.push(Span { start, end, kind });
        }
        cursor = cursor.max(end);
        if cursor >= sim.duration {
            break;
        }
    }
    if cursor < sim.duration {
        spans.push(Span { start: cursor, end: sim.duration, kind: SpanKind::User });
    }
    CoreTrace { core, spans }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bf_sim::{Machine, MachineConfig, TimedEvent, Workload, WorkloadEvent};

    fn sim() -> SimOutput {
        let mut w = Workload::new(Nanos::from_millis(200));
        for i in 0..200u64 {
            w.push(TimedEvent {
                t: Nanos::from_millis(40) + Nanos::from_micros(i * 200),
                event: WorkloadEvent::NetworkPacket { bytes: 1_000 },
            });
        }
        let mut cfg = MachineConfig::default();
        cfg.isolation.pin_cores = true;
        Machine::new(cfg).run(&w, 13)
    }

    #[test]
    fn spans_are_contiguous_and_cover_duration() {
        let sim = sim();
        let trace = reconstruct(&sim, sim.attacker_core);
        assert_eq!(trace.spans.first().unwrap().start, Nanos::ZERO);
        assert_eq!(trace.spans.last().unwrap().end, sim.duration);
        for pair in trace.spans.windows(2) {
            assert_eq!(pair[0].end, pair[1].start, "gap between spans");
        }
        assert!(trace.spans.iter().all(|s| !s.is_empty()));
    }

    #[test]
    fn user_fraction_matches_timeline_busy_time() {
        let sim = sim();
        let trace = reconstruct(&sim, sim.attacker_core);
        let tl = sim.attacker_timeline();
        let busy = tl.busy_time_between(Nanos::ZERO, sim.duration).as_nanos() as f64
            / sim.duration.as_nanos() as f64;
        assert!(
            (trace.user_fraction() - busy).abs() < 1e-9,
            "trace {} vs timeline {}",
            trace.user_fraction(),
            busy
        );
    }

    #[test]
    fn utilization_sums_to_duration() {
        let sim = sim();
        let trace = reconstruct(&sim, sim.attacker_core);
        let total: Nanos = trace.utilization().values().copied().sum();
        assert_eq!(total, sim.duration);
    }

    #[test]
    fn kernel_spans_match_log_kinds() {
        let sim = sim();
        let trace = reconstruct(&sim, sim.attacker_core);
        let util = trace.utilization();
        assert!(util.contains_key("timer"));
        assert!(util.contains_key("user"));
    }

    #[test]
    fn csv_has_one_row_per_span() {
        let sim = sim();
        let trace = reconstruct(&sim, 0);
        let csv = trace.to_csv();
        assert_eq!(csv.lines().count(), trace.spans.len() + 1);
        assert!(csv.starts_with("start_ns,end_ns,kind"));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_core_panics() {
        let sim = sim();
        reconstruct(&sim, 99);
    }
}
