//! `bench_diff` — the benchmark regression gate.
//!
//! ```sh
//! bench_diff OLD.json NEW.json              # exit 1 on regression
//! bench_diff BASE.json BASE.json --synthetic 10
//! ```
//!
//! Compares two `BENCH_*.json` artifacts metric-by-metric with
//! per-metric noise thresholds (see [`bf_bench::diff`]): tight 0.5%
//! bands on deterministic virtual-unit metrics, loose 25% bands on
//! wall-clock metrics, config echoes ignored. Exit status is non-zero
//! when any guarded metric regressed or disappeared.
//!
//! `--synthetic PCT` is the gate's self-test: it ignores the second
//! file, moves every guarded metric of the first `PCT` percent past its
//! band in its bad direction, and exits 0 **iff** the gate trips — so CI
//! proves the alarm still rings before trusting its silence.

use bf_bench::diff::{diff_flat, flatten, perturb_worse, Direction, MetricDelta};
use bf_obs::Json;
use std::process::ExitCode;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn arrow(d: &MetricDelta) -> &'static str {
    match d.direction {
        Direction::HigherBetter => "higher-better",
        Direction::LowerBetter => "lower-better",
        Direction::Info => "info",
    }
}

fn print_delta(d: &MetricDelta, verdict: &str) {
    println!(
        "  {verdict:<4} {:<44} {:>14.4} -> {:>14.4}  ({:+.2}%, band {:.1}%, {})",
        d.path,
        d.old,
        d.new,
        d.rel_change * 100.0,
        d.tolerance * 100.0,
        arrow(d),
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bench_diff: {e}");
            eprintln!("usage: bench_diff OLD.json NEW.json [--synthetic PCT]");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let (old_path, new_path) = match (args.first(), args.get(1)) {
        (Some(a), Some(b)) => (a.as_str(), b.as_str()),
        _ => return Err("need two artifact paths".into()),
    };
    let synthetic: Option<f64> = match args.get(2).map(String::as_str) {
        None => None,
        Some("--synthetic") => Some(
            args.get(3)
                .ok_or("--synthetic needs a percentage")?
                .parse()
                .map_err(|e| format!("--synthetic: {e}"))?,
        ),
        Some(other) => return Err(format!("unknown argument `{other}`")),
    };

    let old_flat = flatten(&load(old_path)?);
    if let Some(pct) = synthetic {
        // Self-test: a regression PCT% past every band MUST trip.
        let report = diff_flat(&old_flat, &perturb_worse(&old_flat, pct));
        let tripped: Vec<_> = report.regressions().collect();
        println!(
            "synthetic {pct}% regression on {old_path}: {} guarded metric(s) flagged",
            tripped.len()
        );
        for d in tripped.iter().take(8) {
            print_delta(d, "FAIL");
        }
        return if tripped.is_empty() {
            eprintln!("bench_diff: synthetic regression was NOT flagged — gate is broken");
            Ok(ExitCode::FAILURE)
        } else {
            Ok(ExitCode::SUCCESS)
        };
    }

    let report = diff_flat(&old_flat, &flatten(&load(new_path)?));
    println!("bench_diff: {old_path} -> {new_path}");
    let mut guarded = 0usize;
    for d in &report.deltas {
        if d.direction == Direction::Info {
            continue;
        }
        guarded += 1;
        if d.regressed {
            print_delta(d, "FAIL");
        } else if d.rel_change.abs() > d.tolerance {
            print_delta(d, "ok"); // improvement beyond the band: show it
        }
    }
    for path in &report.missing {
        println!("  FAIL {path:<44} missing from {new_path}");
    }
    for path in &report.added {
        println!("  note {path:<44} new in {new_path}");
    }
    let n_regressed = report.regressions().count();
    println!(
        "{guarded} guarded metric(s): {n_regressed} regressed, {} missing, {} added",
        report.missing.len(),
        report.added.len()
    );
    Ok(if report.ok() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}
