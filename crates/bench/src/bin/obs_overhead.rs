//! `obs_overhead` — what the instrumentation on measured paths costs per
//! call.
//!
//! Times the two primitives that sit inside the timed pipeline: a
//! `bf_obs::span!` guard (entered and dropped; `BF_LOG` does not gate
//! it) and a `bf_obs::trace::span_at(..).finish(..)` pair, the pair once
//! with tracing off and once on under an adopted root (sampling 1), the
//! record buffer drained between rounds. Each is timed over [`ROUNDS`]
//! rounds of [`CALLS`] calls, and the artifact keeps the fastest and the
//! median round's ns per call. Ambient load only adds time, so the
//! fastest round is the steadiest estimate of the cost itself; the
//! median shows the load. Both sides of the tracing comparison run in this process, so no
//! number needs a baseline from another run.
//!
//! ```sh
//! cargo run --release -p bf-bench --bin obs_overhead
//! ```
//!
//! Results land in `BENCH_obs_overhead.json` (override with
//! `BF_OBS_OVERHEAD_OUT`).

use bf_obs::{trace, Json, TraceCtx};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

/// Calls per timed round.
const CALLS: u64 = 1_000;
/// Timed rounds per primitive, after [`WARMUP_ROUNDS`] untimed ones.
const ROUNDS: usize = 2_001;
const WARMUP_ROUNDS: usize = 20;

/// Mean wall ns per call of `f` over one round of [`CALLS`] calls.
fn round_ns(f: impl Fn(u64)) -> f64 {
    let t = Instant::now();
    for i in 0..CALLS {
        f(black_box(i));
    }
    t.elapsed().as_nanos() as f64 / CALLS as f64
}

fn trace_span_pair(i: u64) {
    trace::span_at("obs_overhead_probe", i).finish(i + 1);
}

fn main() -> ExitCode {
    bf_obs::set_level(None);
    // `adopt` installs a root only while tracing is on.
    trace::set_enabled(true);
    trace::set_sample(1);
    let _root = trace::adopt(Some(TraceCtx::root(42, 0)), 0);
    trace::set_enabled(false);

    // The three primitives take turns round by round, so a shift in
    // ambient load lands on all of them alike.
    let mut samples: [Vec<f64>; 3] = Default::default();
    for round in 0..WARMUP_ROUNDS + ROUNDS {
        let span_guard = round_ns(|_| drop(bf_obs::span!("obs_overhead_probe")));
        let trace_off = round_ns(trace_span_pair);
        trace::set_enabled(true);
        let trace_on = round_ns(trace_span_pair);
        trace::set_enabled(false);
        drop(trace::drain());
        if round >= WARMUP_ROUNDS {
            for (rounds, ns) in samples.iter_mut().zip([span_guard, trace_off, trace_on]) {
                rounds.push(ns);
            }
        }
    }

    println!("=== instrumentation cost per call ({ROUNDS} rounds of {CALLS} calls) ===\n");
    println!("primitive          min ns   median ns");
    let mut rows = Vec::new();
    for (name, rounds) in ["span_guard", "trace_span_off", "trace_span_on"]
        .into_iter()
        .zip(&mut samples)
    {
        rounds.sort_by(f64::total_cmp);
        let (min, median) = (rounds[0], rounds[rounds.len() / 2]);
        println!("{name:<16} {min:>8.1} {median:>11.1}");
        rows.push(Json::object([
            ("primitive", Json::Str(name.into())),
            ("min_ns", Json::Float(min)),
            ("median_ns", Json::Float(median)),
        ]));
    }

    let json = Json::object([
        (
            "note",
            Json::Str(
                "wall ns per call of the instrumentation on measured paths: a span! guard \
                 (enter + drop), and a trace::span_at(..).finish(..) pair with tracing off \
                 and on (adopted root, sampling 1, buffer drained between rounds). Fastest \
                 and median round, the three taking turns round by round in one process."
                    .into(),
            ),
        ),
        ("calls_per_round", Json::UInt(CALLS)),
        ("rounds", Json::UInt(ROUNDS as u64)),
        (
            "hardware_threads",
            Json::UInt(std::thread::available_parallelism().map_or(1, |n| n.get() as u64)),
        ),
        ("primitives", Json::Array(rows)),
    ]);
    let out = bf_bench::artifact_path("BF_OBS_OVERHEAD_OUT", "BENCH_obs_overhead.json");
    if let Err(e) = std::fs::write(&out, json.to_pretty_string()) {
        eprintln!("obs_overhead: {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("\nwrote {out}");
    ExitCode::SUCCESS
}
