//! `bf-ebpf` — simulated kernel instrumentation and gap attribution.
//!
//! §5.2 of the paper instruments the Linux kernel with eBPF kprobes and
//! tracepoints to log "the timestamp and root cause of various types of
//! interrupts arriving at a specific core", then compares them "to the
//! gaps observed by a user-space attacker pinned to the same CPU core".
//! Both sides read the same monotonic clock, so kernel records and
//! user-space gaps can be matched exactly.
//!
//! This crate plays the same role against the simulator:
//!
//! * [`ProbeSet`] — which interrupt kinds the tool can hook. Like real
//!   eBPF, coverage can be incomplete (the paper notes Linux restricts
//!   which functions may be traced); untraced kinds simply produce no
//!   kernel records, letting us reproduce the "unattributed gap"
//!   methodology honestly.
//! * [`TraceSession`] — runs the probes over a simulation's kernel log and
//!   an attacker's observed gaps, producing an [`AttributionReport`]
//!   (the ">99 % of gaps >100 ns are caused by interrupts" claim),
//!   per-kind gap-length histograms (Fig. 6), and interrupt-activity
//!   time series (Fig. 5).
//!
//! # Example
//!
//! ```
//! use bf_ebpf::{ProbeSet, TraceSession};
//! use bf_attack::GapWatcher;
//! use bf_sim::{Machine, MachineConfig, Workload};
//! use bf_timer::Nanos;
//!
//! let sim = Machine::new(MachineConfig::default())
//!     .run(&Workload::new(Nanos::from_millis(500)), 11);
//! let gaps = GapWatcher::default().watch(&sim);
//! let session = TraceSession::new(ProbeSet::all());
//! let report = session.attribute(&sim, &gaps);
//! assert!(report.attributed_fraction() > 0.99);
//! ```

pub mod activity;
pub mod attribution;
pub mod piggyback;
pub mod probe;

pub use activity::{interrupt_activity, ActivitySeries};
pub use attribution::{AttributionReport, GapAttribution};
pub use piggyback::{cohabitation, Cohabitation};
pub use probe::ProbeSet;

use bf_attack::ObservedGap;
use bf_sim::SimOutput;
use bf_timer::Nanos;

/// An instrumentation session: a probe set plus the analyses of §5.2/§5.3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSession {
    probes: ProbeSet,
}

impl TraceSession {
    /// Create a session using the given probe coverage.
    pub fn new(probes: ProbeSet) -> Self {
        TraceSession { probes }
    }

    /// The probe set in use.
    pub fn probes(&self) -> &ProbeSet {
        &self.probes
    }

    /// Attribute attacker-observed gaps to kernel interrupt records
    /// (§5.2's headline analysis).
    pub fn attribute(&self, sim: &SimOutput, gaps: &[ObservedGap]) -> AttributionReport {
        attribution::attribute_gaps(sim, gaps, &self.probes)
    }

    /// Per-interrupt-kind distributions of the *total user-visible gap
    /// length* containing each interrupt (Fig. 6: "the x-axis reflects the
    /// total gap length observed by the attacker rather than just the
    /// amount of time spent processing that particular interrupt").
    pub fn gap_length_samples(
        &self,
        sim: &SimOutput,
        gaps: &[ObservedGap],
    ) -> Vec<(bf_sim::InterruptKind, Vec<Nanos>)> {
        attribution::gap_length_by_kind(sim, gaps, &self.probes)
    }
}

impl Default for TraceSession {
    fn default() -> Self {
        TraceSession::new(ProbeSet::all())
    }
}
