//! `bf-attack` — the attacker programs of the paper.
//!
//! Three attackers are implemented, each replayed deterministically over a
//! simulated core timeline from `bf-sim`:
//!
//! * [`LoopCountingAttacker`] — the paper's contribution (Fig. 2b): a loop
//!   containing only `counter++` and a `time()` read. Each trace element
//!   records how many iterations completed in one period `P`. No memory is
//!   touched; all signal comes from execution gaps (interrupts) and
//!   frequency variation.
//! * [`SweepCountingAttacker`] — the prior state of the art (Fig. 2a,
//!   Shusterman et al.): the loop additionally sweeps an LLC-sized buffer,
//!   so its per-period count is small (~32 vs ~27 000) and modulated by
//!   cache occupancy.
//! * [`GapWatcher`] — the native Rust attacker of §5.2 that polls
//!   `CLOCK_MONOTONIC` and records every observable execution gap; its
//!   output is what the eBPF tool cross-references against the kernel log.
//!
//! # Replay model
//!
//! Attackers never step through individual loop iterations (a 15 s Chrome
//! trace would be ~80 M iterations). Instead the replay engine uses two
//! exact queries: [`bf_timer::Timer::earliest_at_or_above`] finds the real
//! time at which the `while (time() - t_begin < P)` condition first turns
//! true, and [`bf_sim::TimelineCursor::work_between`] integrates how much
//! user work (hence how many iterations) fit in between, skipping
//! interrupt gaps and honoring DVFS. The two views are exactly consistent
//! with an iteration-by-iteration simulation up to one iteration of
//! rounding. The sweep-counting attacker, whose iterations cost ~150 µs
//! each, steps them one [`bf_sim::TimelineCursor::real_time_after_work`]
//! at a time instead.
//!
//! Each replay keeps one [`bf_sim::TimelineCursor`] (and the sweep
//! attacker one [`bf_stats::StepCursor`] over the victim's LLC loads) for
//! the whole trace. Replay time only moves forward, so every query resumes
//! where the last one landed and costs amortised `O(1)`, not a binary
//! search over the trace's ~20 k gaps and ~750 frequency steps.
//!
//! # Example
//!
//! ```
//! use bf_attack::LoopCountingAttacker;
//! use bf_sim::{Machine, MachineConfig, Workload};
//! use bf_timer::{BrowserKind, Nanos};
//!
//! let machine = Machine::new(MachineConfig::default());
//! let sim = machine.run(&Workload::new(Nanos::from_secs(1)), 7);
//! let attacker = LoopCountingAttacker::for_browser(BrowserKind::Chrome, Nanos::from_millis(5));
//! let mut timer = BrowserKind::Chrome.timer(7);
//! let trace = attacker.collect(&sim, &mut timer);
//! assert_eq!(trace.len(), 200); // 1 s / 5 ms
//! ```

pub mod gap_watcher;
pub mod keystroke;
pub mod loop_counting;
pub mod proc_interrupts;
pub mod replay;
pub mod sweep_counting;
pub mod trace;

pub use gap_watcher::{GapWatcher, ObservedGap};
pub use keystroke::{DetectionReport, KeystrokeDetector};
pub use loop_counting::LoopCountingAttacker;
pub use proc_interrupts::{ProcAccess, ProcInterruptsAttacker};
pub use sweep_counting::SweepCountingAttacker;
pub use trace::Trace;
