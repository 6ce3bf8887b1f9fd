//! `bf-bench` — the benchmark and regeneration harness.
//!
//! # Regenerating the paper's tables and figures
//!
//! The `experiments` binary prints each named table/figure with the
//! paper's reference values inline, or all of them in sequence when given
//! no name. `BF_SCALE` selects `smoke` (seconds), `default` (minutes, the
//! committed EXPERIMENTS.md numbers), or `paper` (the full protocol).
//!
//! ```sh
//! BF_SCALE=default cargo run --release -p bf-bench --bin experiments -- table1 figure6
//! cargo run --release -p bf-bench --bin experiments   # everything in sequence
//! ```
//!
//! # Criterion micro-benchmarks
//!
//! `cargo bench -p bf-bench` measures the pipeline's building blocks:
//! machine simulation, attack replay, timer queries, NN training steps,
//! and end-to-end trace collection.

pub mod load;
pub mod serving;

pub use load::{open_system_requests, LoadConfig};
pub use serving::{tier_slot, BatchMark, BatchStats, ServingStack, Tally, TIER_LABELS};

use bf_core::ExperimentScale;
use bf_fault::{FaultPlan, ResumeConfig};
use bf_obs::metrics::MetricValue;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;

/// Error type regeneration binaries may bubble up through [`run_bin`].
pub type BinError = Box<dyn std::error::Error + Send + Sync>;

/// Scale from `BF_SCALE`, seed from `BF_SEED` (default 42, the seed
/// behind the committed EXPERIMENTS.md numbers). A malformed `BF_SEED`
/// falls back to 42 after a one-shot `bf_obs::error!` naming the
/// rejected value.
fn scale_and_seed() -> (ExperimentScale, u64) {
    let seed = bf_obs::env::parse_or("BF_SEED", 42, "a 64-bit unsigned integer");
    (ExperimentScale::from_env(), seed)
}

/// Resolve the output path of a benchmark artifact: the value of
/// `env_key` when set and non-empty, else `default`. Every bin that
/// writes a `BENCH_*.json` resolves its destination through this one
/// helper instead of hand-rolling the `std::env::var(..).unwrap_or(..)`
/// dance.
pub fn artifact_path(env_key: &str, default: &str) -> String {
    std::env::var(env_key)
        .ok()
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| default.to_owned())
}

/// Rounds [`time_rounds`] times each row; odd, so the median is one
/// round.
pub const ROUNDS: usize = 5;

/// One row's timings over [`ROUNDS`] rounds: the median and the fastest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundTimes {
    /// The median round, in seconds.
    pub median_s: f64,
    /// The fastest round, in seconds.
    pub fastest_s: f64,
}

impl RoundTimes {
    /// `(median, fastest)` rates of a round that did `count` operations.
    pub fn per_sec(self, count: f64) -> (f64, f64) {
        (count / self.median_s.max(1e-12), count / self.fastest_s.max(1e-12))
    }
}

/// Time `rows` rows over [`ROUNDS`] alternating rounds: each round calls
/// `time(row)` for rows `0..rows` in order, and `time` returns the
/// seconds its timed section took. A slow window on a shared host then
/// falls on every row alike, and the median and fastest round of a row
/// tell its rate apart from one fast or slow window, which a single
/// timing cannot.
pub fn time_rounds(rows: usize, mut time: impl FnMut(usize) -> f64) -> Vec<RoundTimes> {
    let mut secs = vec![[0.0f64; ROUNDS]; rows];
    for round in 0..ROUNDS {
        for (row, row_secs) in secs.iter_mut().enumerate() {
            row_secs[round] = time(row);
        }
    }
    secs.into_iter()
        .map(|mut row_secs| {
            row_secs.sort_by(f64::total_cmp);
            RoundTimes { median_s: row_secs[ROUNDS / 2], fastest_s: row_secs[0] }
        })
        .collect()
}

/// Print a standard header for a regeneration binary.
fn banner(what: &str, scale: ExperimentScale) {
    println!("=== bigger-fish reproduction: {what} (scale: {scale}) ===\n");
}

/// Full entry point for a regeneration binary: reads scale/seed from the
/// environment, prints the banner, records the active fault plan
/// (`BF_FAULT_PLAN`) and resume knobs (`BF_RESUME`, `BF_CHECKPOINT_DIR`)
/// in the run manifest, contains any panic from the experiment body, and
/// always finishes and writes the manifest — so even a crashed run leaves
/// its fault/repair counters on disk.
///
/// The returned [`ExitCode`] is non-zero when the body panicked or
/// returned an error, making the bins honest CI citizens.
pub fn run_bin(
    title: &str,
    name: &str,
    f: impl FnOnce(&mut bf_obs::ManifestBuilder, ExperimentScale, u64) -> Result<(), BinError>,
) -> ExitCode {
    if run_bin_inner(title, name, f) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// [`run_bin`] body returning plain success/failure (testable — `ExitCode`
/// has no `PartialEq`).
fn run_bin_inner(
    title: &str,
    name: &str,
    f: impl FnOnce(&mut bf_obs::ManifestBuilder, ExperimentScale, u64) -> Result<(), BinError>,
) -> bool {
    let (scale, seed) = scale_and_seed();
    banner(title, scale);

    let faults = FaultPlan::from_env();
    let resume = ResumeConfig::from_env();
    let mut builder = bf_obs::ManifestBuilder::new(name, &scale.to_string(), seed);
    builder.config("scale", scale);
    builder.config("seed", seed);
    record_thread_pool(&mut builder);
    builder.config("fault_plan", faults.summary());
    builder.config("resume", if resume.enabled { "on" } else { "off" });
    if resume.enabled {
        builder.config("checkpoint_dir", resume.dir.display());
        println!(
            "resume enabled: checkpoints under {}\n",
            resume.dir.display()
        );
    }
    if faults.is_active() {
        println!("fault plan active: {}\n", faults.summary());
    }

    let outcome = catch_unwind(AssertUnwindSafe(|| f(&mut builder, scale, seed)));

    // Flush any causal trace the run produced (`BF_TRACE=1`) before the
    // manifest goes out, so a crashed run still leaves its timeline.
    if let Some(path) = bf_obs::export::write_if_enabled(name) {
        println!("trace timeline -> {}", path.display());
    }

    let manifest = builder.finish();
    let dest = match manifest.write() {
        Ok(path) => format!(" -> {}", path.display()),
        Err(e) => format!(" (write failed: {e})"),
    };
    println!(
        "\nrun manifest: {} phase(s), {} metric(s), {:.1} s total{dest}",
        manifest.phases.len(),
        manifest.metrics.len(),
        manifest.total_seconds,
    );
    print_resilience_summary(&manifest.metrics);

    match outcome {
        Ok(Ok(())) => true,
        Ok(Err(e)) => {
            eprintln!("error: {e}");
            false
        }
        Err(payload) => {
            eprintln!("panic contained: {}", panic_message(&payload));
            false
        }
    }
}

/// Record the resolved `bf-par` pool size in the manifest (config entry
/// and `par.threads` gauge), so every run documents the parallelism it
/// ran at — results are thread-count-invariant, wall times are not.
fn record_thread_pool(builder: &mut bf_obs::ManifestBuilder) {
    let threads = bf_par::threads();
    builder.config("threads", threads);
    bf_obs::gauge("par.threads").set(threads as f64);
}

/// Print every fault/resilience counter the run touched, so operators
/// see injections, repairs and quarantines without opening the manifest.
fn print_resilience_summary(metrics: &bf_obs::metrics::MetricsSnapshot) {
    let interesting = metrics.iter().filter_map(|(name, value)| match value {
        MetricValue::Counter(n)
            if *n > 0 && (name.starts_with("fault.") || name.starts_with("ml.fold_failures")) =>
        {
            Some((name, *n))
        }
        _ => None,
    });
    let mut any = false;
    for (name, n) in interesting {
        if !any {
            println!("resilience counters:");
            any = true;
        }
        println!("  {name} = {n}");
    }
}

/// Best-effort human-readable panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("<non-string panic payload>")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests that touch `BF_SEED` share the process environment.
    static ENV_SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn scale_comes_from_env_with_fixed_seed() {
        let _lock = ENV_SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let (_, seed) = scale_and_seed();
        assert_eq!(seed, 42);
    }

    #[test]
    fn malformed_seed_warns_and_falls_back() {
        let _lock = ENV_SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        std::env::set_var("BF_SEED", "forty-two");
        bf_obs::env::reset_warnings();
        bf_obs::begin_capture();
        let (_, seed) = scale_and_seed();
        let (_, seed_again) = scale_and_seed();
        let lines = bf_obs::end_capture();
        assert_eq!(seed, 42);
        assert_eq!(seed_again, 42);
        let warnings: Vec<_> = lines.iter().filter(|l| l.contains("BF_SEED")).collect();
        assert_eq!(warnings.len(), 1, "one-shot, not per-read: {lines:?}");
        assert!(warnings[0].contains("`forty-two`"), "{warnings:?}");
        std::env::remove_var("BF_SEED");
        bf_obs::env::reset_warnings();
    }

    #[test]
    fn artifact_path_prefers_env_then_default() {
        std::env::remove_var("BF_TEST_ARTIFACT_OUT");
        assert_eq!(artifact_path("BF_TEST_ARTIFACT_OUT", "out.json"), "out.json");
        std::env::set_var("BF_TEST_ARTIFACT_OUT", "/tmp/custom.json");
        assert_eq!(artifact_path("BF_TEST_ARTIFACT_OUT", "out.json"), "/tmp/custom.json");
        std::env::set_var("BF_TEST_ARTIFACT_OUT", "   ");
        assert_eq!(
            artifact_path("BF_TEST_ARTIFACT_OUT", "out.json"),
            "out.json",
            "blank overrides fall back to the default"
        );
        std::env::remove_var("BF_TEST_ARTIFACT_OUT");
    }

    #[test]
    fn time_rounds_alternates_rows_and_keeps_median_and_fastest() {
        let mut calls = Vec::new();
        // Row 0 takes 5, 1, 4, 2, 3 s over the rounds; row 1 ten times that.
        let secs = [5.0, 1.0, 4.0, 2.0, 3.0];
        let times = time_rounds(2, |row| {
            let round = calls.len() / 2;
            calls.push(row);
            secs[round] * if row == 0 { 1.0 } else { 10.0 }
        });
        assert_eq!(calls, [0, 1, 0, 1, 0, 1, 0, 1, 0, 1], "each round times every row in order");
        assert_eq!(times[0], RoundTimes { median_s: 3.0, fastest_s: 1.0 });
        assert_eq!(times[1], RoundTimes { median_s: 30.0, fastest_s: 10.0 });
        assert_eq!(times[0].per_sec(6.0), (2.0, 6.0));
    }

    #[test]
    fn banner_prints_without_panicking() {
        banner("unit test", ExperimentScale::Smoke);
    }

    #[test]
    fn run_bin_contains_panics_and_reports_failure() {
        let ok = run_bin_inner("panic containment test", "bench-panic-test", |_, _, _| {
            panic!("simulated crash")
        });
        assert!(!ok);
    }

    #[test]
    fn run_bin_propagates_errors_as_failure() {
        let ok = run_bin_inner("error path test", "bench-error-test", |_, _, _| {
            Err("deliberate".into())
        });
        assert!(!ok);
    }

    #[test]
    fn run_bin_success_is_zero_exit() {
        let ok = run_bin_inner("success path test", "bench-ok-test", |m, _, _| {
            m.phase("noop", || {});
            Ok(())
        });
        assert!(ok);
    }

    #[test]
    fn panic_messages_are_extracted() {
        let payload: Box<dyn std::any::Any + Send> = Box::new("static str");
        assert_eq!(panic_message(payload.as_ref()), "static str");
        let payload: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_message(payload.as_ref()), "owned");
        let payload: Box<dyn std::any::Any + Send> = Box::new(17u32);
        assert_eq!(panic_message(payload.as_ref()), "<non-string panic payload>");
    }
}
