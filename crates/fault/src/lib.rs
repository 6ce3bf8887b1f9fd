//! `bf-fault` — resilience substrate for the collection → training
//! pipeline.
//!
//! Real-hardware traces are messy: interrupt storms corrupt counters,
//! Tor's 100 ms quantization truncates observations, page loads abort
//! mid-collection, and multi-hour bench runs get killed. This crate makes
//! the synthetic pipeline tolerate — and *prove* it tolerates — exactly
//! that mess, with three pieces:
//!
//! 1. **[`plan`]** — a seeded, deterministic fault-injection plan
//!    ([`FaultPlan`], parsed from `BF_FAULT_PLAN`). Given a trace id it
//!    decides, reproducibly, whether that trace is corrupted, truncated,
//!    NaN-spiked, dropped, or preceded by transient collection failures.
//!    The same seed always injects the same faults, so chaos runs are as
//!    replayable as clean ones.
//! 2. **[`validate`]** — trace validation and repair at the collection
//!    boundary: finite-value / length / magnitude checks
//!    ([`TraceValidator`]), and a bounded repair policy
//!    ([`RepairPolicy`]: clamp, re-collect with bounded retry, or
//!    quarantine). Every decision is counted through `bf-obs`
//!    (`fault.injected.*`, `fault.clamped`, `fault.retries`,
//!    `fault.quarantined`) so run manifests record what the pipeline
//!    survived.
//! 3. **[`checkpoint`]** — a resumable cross-validation checkpoint file
//!    ([`CvCheckpoint`]) with typed errors and bit-exact float
//!    round-tripping (hex-encoded IEEE bits, not decimal), plus the
//!    `BF_RESUME`/`BF_CHECKPOINT_DIR` knobs ([`ResumeConfig`]). A run
//!    interrupted after fold *k* resumes to results bit-identical to an
//!    uninterrupted run.
//!
//! The crate sits low in the workspace (only `bf-obs` and `bf-stats`), so
//! both `bf-ml` (resumable CV) and `bf-core` (collection boundary) can
//! build on it.

pub mod backoff;
pub mod cancel;
pub mod checkpoint;
pub mod plan;
pub mod shard;
pub mod validate;

pub use backoff::BackoffPolicy;
pub use cancel::{CancelToken, DeadlineExceeded};
pub use checkpoint::{CheckpointError, CvCheckpoint, FoldRecord, ResumeConfig};
pub use plan::{FaultKind, FaultPlan};
pub use shard::{ShardKill, ShardKillPlan};
pub use validate::{RepairAction, RepairPolicy, TraceValidator, Violation};
