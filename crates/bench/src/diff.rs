//! Regression diffing for `BENCH_*.json` artifacts.
//!
//! [`diff`] flattens two benchmark artifacts into dotted metric paths
//! (`runs[1].p99_latency_units`), classifies each numeric metric by its
//! name (higher-better throughput, lower-better latency, or
//! informational), and flags regressions beyond a per-metric noise
//! threshold:
//!
//! * **deterministic / virtual-unit metrics** (latency units,
//!   throughput per kunit, outcome counts) get a tight 0.5% band —
//!   they are pure functions of `(seed, threads)` and any drift is a
//!   real behaviour change;
//! * **wall-clock metrics** (`*_ns`, `*_seconds`, `steps_per_sec`, and
//!   the sim-throughput rates `runs_per_sec` / `events_per_sec`) get a
//!   loose 25% band, wide enough for same-machine run-to-run noise but
//!   narrow enough to catch a real slowdown;
//! * config echoes (`seed`, `threads`, `batch`, …) and anything not
//!   matching a direction rule are reported but never fail.
//!
//! The `bench_diff` binary wraps this into a CI gate with a
//! `--synthetic PCT` self-test mode that moves every guarded metric `PCT`
//! percent past its band and asserts the gate trips.

use bf_obs::Json;

/// Which direction is an improvement for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Bigger is better (throughput, accuracy).
    HigherBetter,
    /// Smaller is better (latency, timeouts, ns/step).
    LowerBetter,
    /// No direction: config echoes, counts without a quality meaning.
    Info,
}

/// One metric compared across the two artifacts.
#[derive(Debug, Clone)]
pub struct MetricDelta {
    /// Flattened dotted path, e.g. `runs[0].p99_latency_units`.
    pub path: String,
    pub old: f64,
    pub new: f64,
    pub direction: Direction,
    /// Relative tolerance applied (0.005 or 0.25).
    pub tolerance: f64,
    /// Signed relative change `(new - old) / max(|old|, eps)`.
    pub rel_change: f64,
    /// True when the change exceeds the tolerance in the bad direction.
    pub regressed: bool,
}

/// Full comparison result.
#[derive(Debug, Default)]
pub struct DiffReport {
    /// All metrics present in both artifacts, in path order.
    pub deltas: Vec<MetricDelta>,
    /// Guarded metric paths present in `old` but absent from `new`
    /// (schema breakage — treated as a regression by [`DiffReport::ok`]).
    pub missing: Vec<String>,
    /// Paths present only in `new` (informational; schemas may grow).
    pub added: Vec<String>,
}

impl DiffReport {
    /// The deltas that tripped their threshold.
    pub fn regressions(&self) -> impl Iterator<Item = &MetricDelta> {
        self.deltas.iter().filter(|d| d.regressed)
    }

    /// Gate verdict: no regressed metric and no guarded metric missing.
    pub fn ok(&self) -> bool {
        self.missing.is_empty() && self.regressions().next().is_none()
    }
}

/// Tight band for deterministic virtual-unit metrics.
pub const TOL_VIRTUAL: f64 = 0.005;
/// Loose band for wall-clock metrics (same-machine run-to-run noise).
pub const TOL_WALL: f64 = 0.25;

/// Flatten an artifact into `(dotted.path, value)` pairs, array
/// elements indexed positionally (`runs[0].shed`). Strings, bools, and
/// nulls are skipped — only numbers can regress.
pub fn flatten(json: &Json) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    flatten_into(json, String::new(), &mut out);
    out
}

fn flatten_into(json: &Json, prefix: String, out: &mut Vec<(String, f64)>) {
    match json {
        Json::Object(map) => {
            for (k, v) in map {
                let path = if prefix.is_empty() { k.clone() } else { format!("{prefix}.{k}") };
                flatten_into(v, path, out);
            }
        }
        Json::Array(items) => {
            for (i, v) in items.iter().enumerate() {
                flatten_into(v, format!("{prefix}[{i}]"), out);
            }
        }
        Json::UInt(n) => out.push((prefix, *n as f64)),
        Json::Int(n) => out.push((prefix, *n as f64)),
        Json::Float(f) => out.push((prefix, *f)),
        Json::Null | Json::Bool(_) | Json::Str(_) => {}
    }
}

/// Does the final path segment name a wall-clock quantity?
fn is_wall(path: &str) -> bool {
    let leaf = path.rsplit('.').next().unwrap_or(path);
    ["_ns", "_seconds", "_per_sec"].iter().any(|s| leaf.ends_with(s))
        || leaf == "ns_per_step"
        || leaf.starts_with("wall")
}

/// Classify a flattened path. Config echoes are pinned to `Info` first
/// so e.g. `requests` or `threads` never count as a throughput.
pub fn direction_for(path: &str) -> Direction {
    let leaf = path.rsplit('.').next().unwrap_or(path);
    let leaf = leaf.split('[').next().unwrap_or(leaf);
    const CONFIG: &[&str] = &[
        "seed", "threads", "par_threads", "hardware_threads", "requests", "batch", "filters",
        "n_classes", "trace_len", "warmup_steps", "timed_steps", "mean_gap_units", "scale",
        "shards", "session_gap_units", "mean_visits", "think_units", "zipf_exponent",
    ];
    if CONFIG.contains(&leaf) {
        return Direction::Info;
    }
    // Raw wall duration of a *virtual-time* run is ambient-load trivia;
    // the virtual metrics next to it are the guarded signal. Wall-based
    // rates (`*_per_sec`, `ns_per_step`) stay guarded — they ARE the
    // benchmark in the sim- and training-throughput artifacts.
    // Micro-batch shape (`batch_assembled`, `batch_flushed_*`,
    // `mean_batch_size`) describes the workload, not its quality — and
    // `flushed` must not match the `shed` rule below.
    if leaf == "wall_seconds" || leaf.starts_with("batch_") || leaf == "mean_batch_size" {
        return Direction::Info;
    }
    const HIGHER: &[&str] = &["throughput", "_per_sec", "predictions", "accuracy", "answered"];
    const LOWER: &[&str] = &[
        "p50", "p99", "latency", "ns_per_step", "median_ns", "min_ns", "timeouts", "shed",
        "failed", "makespan", "quarantined", "degraded", "seconds", "shard_down",
    ];
    if HIGHER.iter().any(|s| leaf.contains(s)) {
        Direction::HigherBetter
    } else if LOWER.iter().any(|s| leaf.contains(s)) {
        Direction::LowerBetter
    } else {
        Direction::Info
    }
}

/// Per-metric relative tolerance: loose for wall-clock, tight for
/// deterministic virtual-unit metrics.
pub fn tolerance_for(path: &str) -> f64 {
    if is_wall(path) {
        TOL_WALL
    } else {
        TOL_VIRTUAL
    }
}

/// Compare one metric; `Info` metrics never regress.
fn delta(path: &str, old: f64, new: f64) -> MetricDelta {
    let direction = direction_for(path);
    let tolerance = tolerance_for(path);
    let rel_change = (new - old) / old.abs().max(1e-12);
    let regressed = match direction {
        Direction::HigherBetter => rel_change < -tolerance,
        Direction::LowerBetter => rel_change > tolerance,
        Direction::Info => false,
    };
    MetricDelta {
        path: path.to_owned(),
        old,
        new,
        direction,
        tolerance,
        rel_change,
        regressed,
    }
}

/// Diff two already-flattened artifacts (see [`flatten`]).
pub fn diff_flat(old: &[(String, f64)], new: &[(String, f64)]) -> DiffReport {
    let new_map: std::collections::BTreeMap<&str, f64> =
        new.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let old_keys: std::collections::BTreeSet<&str> =
        old.iter().map(|(k, _)| k.as_str()).collect();
    let mut report = DiffReport::default();
    for (path, old_v) in old {
        match new_map.get(path.as_str()) {
            Some(&new_v) => report.deltas.push(delta(path, *old_v, new_v)),
            None if direction_for(path) != Direction::Info => report.missing.push(path.clone()),
            None => {}
        }
    }
    for (path, _) in new {
        if !old_keys.contains(path.as_str()) {
            report.added.push(path.clone());
        }
    }
    report
}

/// Diff two parsed artifacts.
pub fn diff(old: &Json, new: &Json) -> DiffReport {
    diff_flat(&flatten(old), &flatten(new))
}

/// Move every *guarded* metric of a flattened artifact `pct` percent past
/// its own band in its bad direction (throughputs shrink, latencies grow).
/// The `bench_diff --synthetic` self-test feeds this back through
/// [`diff_flat`] and demands the gate trips.
pub fn perturb_worse(flat: &[(String, f64)], pct: f64) -> Vec<(String, f64)> {
    flat.iter()
        .map(|(path, v)| {
            let f = tolerance_for(path) + pct / 100.0;
            let v = match direction_for(path) {
                Direction::HigherBetter => v * (1.0 - f),
                Direction::LowerBetter => v * (1.0 + f) + f, // `+ f` moves zeros too
                Direction::Info => *v,
            };
            (path.clone(), v)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Json {
        Json::parse(text).expect("test artifact parses")
    }

    #[test]
    fn flatten_indexes_arrays_and_skips_strings() {
        let j = parse(r#"{"runs":[{"p99":7,"note":"x"},{"p99":9}],"seed":42}"#);
        let flat = flatten(&j);
        assert_eq!(
            flat,
            vec![
                ("runs[0].p99".to_owned(), 7.0),
                ("runs[1].p99".to_owned(), 9.0),
                ("seed".to_owned(), 42.0),
            ]
        );
    }

    #[test]
    fn direction_rules_classify_known_metrics() {
        assert_eq!(direction_for("runs[0].throughput_per_kunit"), Direction::HigherBetter);
        assert_eq!(direction_for("rows[2].steps_per_sec"), Direction::HigherBetter);
        assert_eq!(direction_for("runs[0].p99_latency_units"), Direction::LowerBetter);
        assert_eq!(direction_for("rows[0].ns_per_step"), Direction::LowerBetter);
        assert_eq!(direction_for("runs[1].timeouts"), Direction::LowerBetter);
        assert_eq!(direction_for("runs[0].shard_down_rate"), Direction::LowerBetter);
        // Fleet topology and load-model knobs are config echoes, not
        // quality signals — `shards` is not a throughput and the Zipf
        // exponent is an input.
        assert_eq!(direction_for("runs[0].shards"), Direction::Info);
        assert_eq!(direction_for("zipf_exponent"), Direction::Info);
        assert_eq!(direction_for("session_gap_units"), Direction::Info);
        // Restart/flap/hedge counts are fault-injection echoes: their
        // magnitude is set by the kill plan, not by code quality.
        assert_eq!(direction_for("runs[0].restarts"), Direction::Info);
        assert_eq!(direction_for("runs[0].breaker_flaps"), Direction::Info);
        assert_eq!(direction_for("runs[0].hedged"), Direction::Info);
        // Config echoes are informational even when their names smell
        // directional (`threads` is not a throughput).
        assert_eq!(direction_for("runs[0].threads"), Direction::Info);
        assert_eq!(direction_for("seed"), Direction::Info);
        assert_eq!(direction_for("requests"), Direction::Info);
        assert_eq!(direction_for("runs[0].wall_seconds"), Direction::Info);
        assert_eq!(direction_for("runs[0].batch_flushed_full"), Direction::Info);
        assert_eq!(direction_for("cells[3].mean_batch_size"), Direction::Info);
        // Every `*_per_sec` leaf is a guarded wall rate, whatever its
        // prefix.
        assert_eq!(direction_for("rows[0].runs_per_sec"), Direction::HigherBetter);
        assert_eq!(direction_for("rows[0].events_per_sec"), Direction::HigherBetter);
        assert_eq!(direction_for("rows[0].cold_arena_steps_per_sec"), Direction::HigherBetter);
    }

    #[test]
    fn wall_metrics_get_the_loose_band() {
        assert_eq!(tolerance_for("rows[0].ns_per_step"), TOL_WALL);
        assert_eq!(tolerance_for("runs[0].wall_seconds"), TOL_WALL);
        assert_eq!(tolerance_for("rows[0].steps_per_sec"), TOL_WALL);
        assert_eq!(tolerance_for("rows[0].runs_per_sec"), TOL_WALL);
        assert_eq!(tolerance_for("rows[0].events_per_sec"), TOL_WALL);
        assert_eq!(tolerance_for("runs[0].p99_latency_units"), TOL_VIRTUAL);
        assert_eq!(tolerance_for("runs[0].throughput_per_kunit"), TOL_VIRTUAL);
    }

    #[test]
    fn identical_artifacts_pass() {
        let j = parse(r#"{"runs":[{"p99_latency_units":900,"throughput_per_kunit":17.8}]}"#);
        let report = diff(&j, &j);
        assert!(report.ok(), "{report:?}");
        assert_eq!(report.deltas.len(), 2);
    }

    #[test]
    fn regressions_trip_in_the_bad_direction_only() {
        let old = parse(r#"{"throughput_per_kunit":100.0,"p99_latency_units":1000}"#);
        let better = parse(r#"{"throughput_per_kunit":150.0,"p99_latency_units":500}"#);
        assert!(diff(&old, &better).ok(), "improvements must pass");
        let worse = parse(r#"{"throughput_per_kunit":89.0,"p99_latency_units":1000}"#);
        let report = diff(&old, &worse);
        assert!(!report.ok());
        let paths: Vec<_> = report.regressions().map(|d| d.path.as_str()).collect();
        assert_eq!(paths, ["throughput_per_kunit"]);
    }

    #[test]
    fn wall_noise_passes_but_real_slowdowns_fail() {
        let old = parse(r#"{"rows":[{"ns_per_step":1000000.0}]}"#);
        let noisy = parse(r#"{"rows":[{"ns_per_step":1150000.0}]}"#); // +15% < 25% band
        assert!(diff(&old, &noisy).ok());
        let slow = parse(r#"{"rows":[{"ns_per_step":1400000.0}]}"#); // +40%
        assert!(!diff(&old, &slow).ok());
    }

    #[test]
    fn halved_sim_throughput_row_fails_the_gate() {
        let row = |runs: f64, events: f64| {
            parse(&format!(
                r#"{{"rows":[{{"duration_ms":2000,"events_per_sec":{events},
                    "mode":"cold","runs_per_sec":{runs},"threads":1,"timed_runs":40}}]}}"#
            ))
        };
        let old = row(300.0, 6.0e6);
        assert!(diff(&old, &row(255.0, 5.1e6)).ok(), "15% wall noise stays inside the band");
        let report = diff(&old, &row(150.0, 3.0e6));
        let paths: Vec<_> = report.regressions().map(|d| d.path.as_str()).collect();
        assert_eq!(paths, ["rows[0].events_per_sec", "rows[0].runs_per_sec"]);
    }

    #[test]
    fn missing_guarded_metric_is_a_failure_added_is_not() {
        let old = parse(r#"{"p99_latency_units":900}"#);
        let new = parse(r#"{"answered":55}"#);
        let report = diff(&old, &new);
        assert_eq!(report.missing, ["p99_latency_units"]);
        assert_eq!(report.added, ["answered"]);
        assert!(!report.ok());
        // A vanished config echo is fine (schemas may drop Info fields).
        let report = diff(&parse(r#"{"seed":42}"#), &parse("{}"));
        assert!(report.ok(), "{report:?}");
    }

    /// A committed artifact that is not a deterministic replay holds
    /// wall-clock numbers only (raw measurements, or ratios whose base was
    /// measured in the same run), so every leaf the gate guards there
    /// must get the wall band.
    #[test]
    fn committed_wall_clock_artifacts_guard_every_leaf_at_the_wall_band() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let (mut artifacts, mut narrow) = (0, Vec::new());
        for entry in std::fs::read_dir(root).expect("workspace root lists") {
            let path = entry.expect("directory entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            let json = parse(&std::fs::read_to_string(&path).expect("artifact reads"));
            if json.get("deterministic") == Some(&Json::Bool(true)) {
                continue;
            }
            artifacts += 1;
            for (leaf, _) in flatten(&json) {
                if direction_for(&leaf) != Direction::Info && tolerance_for(&leaf) != TOL_WALL {
                    narrow.push(format!("{name}: {leaf}"));
                }
            }
        }
        assert!(artifacts > 0, "no wall-clock BENCH_*.json under {root}");
        assert!(narrow.is_empty(), "wall-clock leaves under the virtual band: {narrow:#?}");
    }

    #[test]
    fn synthetic_perturbation_always_trips_the_gate() {
        let j = parse(
            r#"{"runs":[{"p99_latency_units":900,"throughput_per_kunit":17.8,
                "timeouts":0,"threads":4,"runs_per_sec":300.0}],"seed":42}"#,
        );
        let flat = flatten(&j);
        let report = diff_flat(&flat, &perturb_worse(&flat, 10.0));
        // Every guarded metric leaves its band, the wall rate's 25% one
        // included; zero-valued lower-better counts regress too, and
        // config echoes stay untouched.
        let paths: Vec<_> = report.regressions().map(|d| d.path.as_str()).collect();
        assert_eq!(
            paths,
            [
                "runs[0].p99_latency_units",
                "runs[0].runs_per_sec",
                "runs[0].throughput_per_kunit",
                "runs[0].timeouts",
            ]
        );
    }
}
