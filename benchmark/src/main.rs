//! `benchmark` — the repository benchmark: four workloads on the public
//! APIs of the workspace crates, end-to-end metrics from untraced runs,
//! per-layer metrics from traced runs, and a comparison gate. See
//! README.md beside this package's manifest.

mod compare;
mod metrics;
mod rss;
mod stats;
mod timed;
mod workloads;

use bf_obs::Json;
use metrics::Report;
use std::ffi::OsString;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{RunSpec, Workload};

/// `--seconds` when none is given: `run_seconds` of BENCHMARK.json.
pub const DEFAULT_SECONDS: f64 = 15.0;

const USAGE: &str = "usage:
  benchmark [run] --workload <collect_loop|collect_sweep|cv_train|serve_online> --seed <n>
                  [--seconds <s>] [--trace 0|1] [--out <file.json>]
  benchmark compare --parent <run.json>... (--change <run.json>... | --synthetic <pct>)
                    [--config <BENCHMARK.json>]";

#[derive(Debug, PartialEq)]
struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut out) =
        (None, None, DEFAULT_SECONDS, false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag} {value}: invalid value");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        out,
    })
}

/// The `BF_*` variables in `vars` other than `BF_LOG`, sorted. Every
/// other knob (`BF_THREADS`, `BF_PAR_MIN_UNITS`, `BF_SERVE_*`,
/// `BF_FAULT_PLAN`, `BF_TRACE`, …) would silently change the program
/// being measured; `BF_LOG` only changes what reaches stderr.
fn foreign_knobs(vars: impl IntoIterator<Item = (OsString, OsString)>) -> Vec<String> {
    let mut found: Vec<String> = vars
        .into_iter()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .filter(|k| k.starts_with("BF_") && k != "BF_LOG")
        .collect();
    found.sort();
    found
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("run") => run(&args[1..]),
        _ => run(&args),
    }
}

fn run(args: &[String]) -> ExitCode {
    let args = match parse_run_args(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let knobs = foreign_knobs(std::env::vars_os());
    if !knobs.is_empty() {
        eprintln!(
            "benchmark: refusing to start: {} set; these change the program being measured \
             (only BF_LOG may be set)",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }
    // The pool size is set, never inherited; two threads at most, so
    // every run fits a two-core host.
    let hardware_threads = std::thread::available_parallelism().map_or(1, usize::from);
    let threads = hardware_threads.min(2);
    bf_par::set_threads(Some(threads));
    if std::env::var_os("BF_LOG").is_none() {
        bf_obs::set_level(Some(bf_obs::Level::Error));
    }
    // One line per panic, whatever RUST_BACKTRACE says: serve_online
    // injects contained worker panics, and printing backtraces for them
    // would add host time that depends on the environment.
    std::panic::set_hook(Box::new(|info| {
        let payload = info.payload();
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("<non-string payload>");
        let at = info
            .location()
            .map(|l| format!(" at {}:{}", l.file(), l.line()))
            .unwrap_or_default();
        eprintln!("panic{at}: {message}");
    }));

    let name = args.workload.name();
    println!(
        "benchmark {name}: seed {} trace {} seconds {} threads {threads} of {hardware_threads}",
        args.seed,
        u8::from(args.trace),
        args.seconds
    );
    let spec = RunSpec {
        seed: args.seed,
        seconds: args.seconds,
        threads,
    };
    let mut report = Report::new(args.trace);
    if let Err(e) = args.workload.run(&spec, &mut report) {
        eprintln!("benchmark {name}: {e}");
        return ExitCode::FAILURE;
    }
    if !args.trace {
        report.set("peak_rss_mb", rss::peak_rss_mb());
    }
    print!("{}", report.table());
    for failure in report.failures() {
        eprintln!("benchmark {name}: check failed: {failure}");
    }
    let result = report.result_json();
    if let Some(path) = &args.out {
        let doc = Json::object([
            ("workload", Json::from(name)),
            ("seed", Json::UInt(args.seed)),
            ("trace", Json::Bool(args.trace)),
            ("seconds", Json::Float(args.seconds)),
            ("threads", Json::from(threads)),
            ("hardware_threads", Json::from(hardware_threads)),
            ("result", result.clone()),
            ("detail", report.detail_json()),
        ]);
        if let Err(e) = std::fs::write(path, doc.to_pretty_string()) {
            eprintln!("benchmark {name}: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", result.to_compact_string());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn os(pairs: &[(&str, &str)]) -> Vec<(OsString, OsString)> {
        pairs
            .iter()
            .map(|(k, v)| (OsString::from(k), OsString::from(v)))
            .collect()
    }

    #[test]
    fn bf_knobs_other_than_bf_log_are_refused() {
        assert!(foreign_knobs(os(&[
            ("PATH", "/usr/bin"),
            ("BF_LOG", "info"),
            ("XBF_THREADS", "1")
        ]))
        .is_empty());
        assert_eq!(
            foreign_knobs(os(&[
                ("BF_SERVE_BATCH", "4"),
                ("BF_LOG", "off"),
                ("BF_PAR_MIN_UNITS", "0")
            ])),
            ["BF_PAR_MIN_UNITS", "BF_SERVE_BATCH"]
        );
        assert_eq!(
            foreign_knobs(os(&[("BF_FAULT_PLAN", "default")])),
            ["BF_FAULT_PLAN"]
        );
        assert_eq!(foreign_knobs(os(&[("BF_THREADS", "")])), ["BF_THREADS"]);
    }

    #[test]
    fn run_arguments_parse_with_defaults() {
        let s = |v: &[&str]| v.iter().map(|a| (*a).to_owned()).collect::<Vec<_>>();
        let a = parse_run_args(&s(&["--workload", "cv_train", "--seed", "7"])).expect("valid");
        assert_eq!(
            a,
            RunArgs {
                workload: Workload::CvTrain,
                seed: 7,
                seconds: DEFAULT_SECONDS,
                trace: false,
                out: None
            }
        );
        let a = parse_run_args(&s(&[
            "--seed",
            "1",
            "--workload",
            "serve_online",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert!(a.trace && a.seconds == 3.0);
        assert!(parse_run_args(&s(&["--workload", "nope", "--seed", "1"])).is_err());
        assert!(parse_run_args(&s(&["--workload", "cv_train"])).is_err());
        assert!(parse_run_args(&s(&[
            "--workload",
            "cv_train",
            "--seed",
            "1",
            "--trace",
            "2"
        ]))
        .is_err());
        assert!(parse_run_args(&s(&["--workload", "cv_train", "--seed"])).is_err());
        assert!(parse_run_args(&s(&[
            "--workload",
            "cv_train",
            "--seed",
            "1",
            "--seconds",
            "0"
        ]))
        .is_err());
    }
}
