//! Training-step throughput for the zero-allocation hot path.
//!
//! Times steady-state `CnnLstm::train_batch` steps at paper-relevant
//! shapes, sequentially (1 thread) and on the configured pool, and
//! writes a `BENCH_train_throughput.json` summary. Each configuration
//! also re-times the same steps with the workspace arena cleared before
//! every step, isolating how much of the win comes from buffer reuse
//! versus the unrolled kernels.
//!
//! At the smoke shape the pool must run at least [`POOL_FLOOR`] times one
//! thread's rate, measured in the same run: its kernels sit under
//! `bf_par::DEFAULT_MIN_UNITS` and must run inline rather than pay
//! dispatch overhead for sub-threshold slices (before that minimum-work
//! gate existed, the 2-thread row ran at 0.58x). The check takes the
//! fastest of [`FLOOR_ROUNDS`] alternating 1-thread / pool timings per
//! side, so one slow window on a shared host cannot decide it.
//!
//! ```sh
//! BF_SCALE=smoke   cargo run --release -p bf-bench --bin train_throughput
//! BF_SCALE=default cargo run --release -p bf-bench --bin train_throughput
//! ```

use bf_bench::run_bin;
use bf_core::ExperimentScale;
use bf_nn::{CnnLstm, CnnLstmConfig, Tensor};
use bf_obs::Json;
use bf_stats::SeedRng;
use std::process::ExitCode;
use std::time::Instant;

/// One benchmark shape.
struct Shape {
    name: &'static str,
    trace_len: usize,
    n_classes: usize,
    filters: usize,
    batch: usize,
}

const SHAPES: &[Shape] = &[
    Shape {
        name: "smoke",
        trace_len: 300,
        n_classes: 4,
        filters: 16,
        batch: 8,
    },
    Shape {
        name: "default",
        trace_len: 1000,
        n_classes: 10,
        filters: 32,
        batch: 16,
    },
];

const WARMUP_STEPS: usize = 3;
const TIMED_STEPS: usize = 30;
const FLOOR_ROUNDS: usize = 5;
/// Lowest smoke-shape pool / 1-thread rate ratio the run accepts.
const POOL_FLOOR: f64 = 0.75;

/// Steady-state steps/sec for one shape at the current thread setting.
/// `cold_arena` clears the thread's workspace pool before every step,
/// forcing each buffer to be reallocated (the reuse-ablation mode).
fn measure(shape: &Shape, cold_arena: bool) -> f64 {
    let mut cfg = CnnLstmConfig::scaled(shape.trace_len, shape.n_classes, shape.filters);
    cfg.dropout = 0.3;
    cfg.learning_rate = 0.01;
    let mut net = CnnLstm::new(cfg, 42);
    let mut rng = SeedRng::new(7);
    let data: Vec<f32> = (0..shape.batch * shape.trace_len)
        .map(|_| rng.standard_normal() as f32)
        .collect();
    let labels: Vec<usize> = (0..shape.batch).map(|i| i % shape.n_classes).collect();
    let x = Tensor::new(&[shape.batch, 1, shape.trace_len], data);

    for _ in 0..WARMUP_STEPS {
        if cold_arena {
            bf_nn::workspace::clear_thread();
        }
        net.train_batch(&x, &labels);
    }
    let t = Instant::now();
    for _ in 0..TIMED_STEPS {
        if cold_arena {
            bf_nn::workspace::clear_thread();
        }
        net.train_batch(&x, &labels);
    }
    let secs = t.elapsed().as_secs_f64();
    TIMED_STEPS as f64 / secs.max(1e-12)
}

/// Pool rate over 1-thread rate, each the fastest of [`FLOOR_ROUNDS`]
/// timings taken in turns.
fn best_pool_ratio(shape: &Shape, par_threads: usize) -> f64 {
    let (mut seq, mut par) = (0.0f64, 0.0f64);
    for _ in 0..FLOOR_ROUNDS {
        for (threads, best) in [(1, &mut seq), (par_threads, &mut par)] {
            bf_par::set_threads(Some(threads));
            *best = best.max(measure(shape, false));
        }
    }
    bf_par::set_threads(None);
    par / seq
}

fn main() -> ExitCode {
    run_bin(
        "training-step throughput",
        "train_throughput",
        |m, scale, _seed| {
            let par_threads = bf_par::threads().max(2);
            m.config("par_threads", par_threads);
            // Smoke keeps CI fast with the small shape only; larger
            // scales also time the paper-sized default shape.
            let shapes: &[Shape] = if scale == ExperimentScale::Smoke {
                &SHAPES[..1]
            } else {
                SHAPES
            };

            println!("shape     threads   steps/s    ns/step    cold-arena");
            let mut rows = Vec::new();
            for shape in shapes {
                for (mode, threads) in [("seq", 1usize), ("par", par_threads)] {
                    bf_par::set_threads(Some(threads));
                    let label = format!("{}_{mode}", shape.name);
                    let steps_per_sec = m.phase(&label, || measure(shape, false));
                    let cold_steps_per_sec = measure(shape, true);
                    bf_par::set_threads(None);
                    let ns_per_step = 1e9 / steps_per_sec;
                    println!(
                        "{:<9} {:<9} {:>8.2}  {:>9.0}   {:>8.2}/s",
                        shape.name, threads, steps_per_sec, ns_per_step, cold_steps_per_sec,
                    );
                    bf_obs::gauge("train.steps_per_sec").set(steps_per_sec);
                    rows.push(Json::object([
                        ("shape", Json::Str(shape.name.into())),
                        ("threads", Json::UInt(threads as u64)),
                        ("trace_len", Json::UInt(shape.trace_len as u64)),
                        ("n_classes", Json::UInt(shape.n_classes as u64)),
                        ("filters", Json::UInt(shape.filters as u64)),
                        ("batch", Json::UInt(shape.batch as u64)),
                        ("steps_per_sec", Json::Float(steps_per_sec)),
                        ("ns_per_step", Json::Float(ns_per_step)),
                        ("cold_arena_steps_per_sec", Json::Float(cold_steps_per_sec)),
                    ]));
                }
            }
            let ratio = best_pool_ratio(&SHAPES[0], par_threads);
            println!("smoke pool / 1-thread, best of {FLOOR_ROUNDS} rounds: {ratio:.2}x");
            assert!(
                ratio >= POOL_FLOOR,
                "smoke shape at {par_threads} threads ran at {ratio:.2}x its 1-thread rate \
                 (floor {POOL_FLOOR:.2}x)"
            );

            let json = Json::object([
                (
                    "note",
                    Json::Str(
                        "steady-state CnnLstm::train_batch throughput. cold_arena re-times \
                         with the workspace pool cleared before every step (isolates reuse vs \
                         kernel wins)."
                            .into(),
                    ),
                ),
                ("scale", Json::Str(scale.to_string())),
                ("warmup_steps", Json::UInt(WARMUP_STEPS as u64)),
                ("timed_steps", Json::UInt(TIMED_STEPS as u64)),
                ("par_threads", Json::UInt(par_threads as u64)),
                (
                    "hardware_threads",
                    Json::UInt(std::thread::available_parallelism().map_or(1, |n| n.get() as u64)),
                ),
                ("rows", Json::Array(rows)),
            ]);
            let out =
                bf_bench::artifact_path("BF_TRAIN_THROUGHPUT_OUT", "BENCH_train_throughput.json");
            std::fs::write(&out, json.to_pretty_string())?;
            println!("\nwrote {out}");
            Ok(())
        },
    )
}
