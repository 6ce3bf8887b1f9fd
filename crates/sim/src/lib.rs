//! `bf-sim` — a deterministic discrete-event machine simulator.
//!
//! This crate is the substrate that replaces the paper's physical testbed
//! (Intel Core-i5/Xeon machines running Linux, Windows, and macOS). It
//! simulates exactly the mechanisms the paper shows the attack depends on:
//!
//! * **CPU cores** executing user code, whose instruction throughput is the
//!   attacker's only sensor;
//! * **system interrupts** — device IRQs (network, disk, graphics), local
//!   timer ticks, inter-processor interrupts (rescheduling, TLB
//!   shootdowns), and the Linux deferral mechanisms (softirqs, IRQ work)
//!   that make some interrupt work *non-movable* (§2.2, §5.2);
//! * **IRQ routing policies**, including the `irqbalance` configuration
//!   the paper uses to move all movable IRQs off the attacker core (§5.1);
//! * **frequency scaling** (a candidate leakage source the paper rules
//!   out), **core pinning**, and **virtual-machine boundaries** whose
//!   VM-exit amplification explains Table 3's counterintuitive accuracy
//!   *increase* under VM isolation;
//! * an **LLC occupancy model** feeding the sweep-counting attacker.
//!
//! # Architecture
//!
//! Simulation is two-phase (DESIGN.md §5.1):
//!
//! 1. [`Machine::run`] consumes a [`Workload`] (a time-ordered list of
//!    victim activity events, produced by `bf-victim`) and produces a
//!    [`SimOutput`]: per-core [`CoreTimeline`]s of execution *gaps* with
//!    causes, a ground-truth [`KernelLog`], the LLC load series, and the
//!    attacker core's frequency curve. Only the attacker core is served
//!    during the run; the other cores and the kernel log are built, bit
//!    for bit the same, on their first read.
//! 2. Attackers (in `bf-attack`) then *replay* deterministically over the
//!    timeline; the eBPF tool (in `bf-ebpf`) cross-references the kernel
//!    log against attacker-observed gaps.
//!
//! # Example
//!
//! ```
//! use bf_sim::{Machine, MachineConfig, Workload, TimedEvent, WorkloadEvent};
//! use bf_timer::Nanos;
//!
//! let machine = Machine::new(MachineConfig::default());
//! let mut workload = Workload::new(Nanos::from_secs(1));
//! workload.push(TimedEvent {
//!     t: Nanos::from_millis(100),
//!     event: WorkloadEvent::NetworkPacket { bytes: 1500 },
//! });
//! let out = machine.run(&workload, 42);
//! assert!(!out.kernel_log().events().is_empty());
//! ```

pub mod config;
pub mod engine;
pub mod interrupt;
pub mod kernel;
pub mod routing;
pub mod timeline;
pub mod workload;
pub mod workspace;

pub use config::{CacheConfig, FrequencyConfig, IsolationConfig, MachineConfig, OsKind, VmMode};
pub use engine::{Machine, SimOutput};
pub use interrupt::{InterruptClass, InterruptKind, SoftirqKind};
pub use kernel::{KernelEvent, KernelEventKind, KernelLog};
pub use routing::RoutingPolicy;
pub use timeline::{CoreTimeline, Gap, GapCause, TimelineCursor};
pub use workload::{TimedEvent, Workload, WorkloadEvent};
pub use workspace::WorkspaceStats;
