//! Training-step throughput for the zero-allocation hot path.
//!
//! Times steady-state `CnnLstm::train_batch` steps at paper-relevant
//! shapes and writes a `BENCH_train_throughput.json` summary. Each shape
//! is also re-timed with the workspace arena cleared before every step,
//! isolating how much of the win comes from buffer reuse versus the
//! unrolled kernels. Every kernel runs on the calling thread, so the
//! `bf_par` pool size does not enter.
//!
//! A shape's warm and cold-arena timings alternate over
//! [`bf_bench::ROUNDS`] rounds ([`bf_bench::time_rounds`]), so a slow
//! window on a shared host falls on both. Each row records the median
//! and the fastest round (the cold-arena rate as a median): one 30-step
//! timing alone cannot be told apart from a fast or slow window.
//!
//! ```sh
//! BF_SCALE=smoke   cargo run --release -p bf-bench --bin train_throughput
//! BF_SCALE=default cargo run --release -p bf-bench --bin train_throughput
//! ```

use bf_bench::{run_bin, time_rounds, ROUNDS};
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

/// Seconds for [`TIMED_STEPS`] steady-state steps of one shape.
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
    t.elapsed().as_secs_f64()
}

fn main() -> ExitCode {
    run_bin(
        "training-step throughput",
        "train_throughput",
        |m, scale, _seed| {
            // Smoke keeps CI fast with the small shape only; larger
            // scales also time the paper-sized default shape.
            let shapes: &[Shape] = if scale == ExperimentScale::Smoke {
                &SHAPES[..1]
            } else {
                SHAPES
            };

            println!("shape     median/s   fastest/s   cold-arena median/s");
            let mut rows = Vec::new();
            for shape in shapes {
                // Rows 0 and 1: the warm and the cold-arena timing.
                let times = m.phase(shape.name, || time_rounds(2, |row| measure(shape, row == 1)));
                let (median, fastest) = times[0].per_sec(TIMED_STEPS as f64);
                let (cold_median, _) = times[1].per_sec(TIMED_STEPS as f64);
                println!(
                    "{:<9} {:>8.2}  {:>10.2}   {:>8.2}",
                    shape.name, median, fastest, cold_median,
                );
                bf_obs::gauge("train.steps_per_sec").set(median);
                rows.push(Json::object([
                    ("shape", Json::Str(shape.name.into())),
                    ("trace_len", Json::UInt(shape.trace_len as u64)),
                    ("n_classes", Json::UInt(shape.n_classes as u64)),
                    ("filters", Json::UInt(shape.filters as u64)),
                    ("batch", Json::UInt(shape.batch as u64)),
                    ("median_steps_per_sec", Json::Float(median)),
                    ("fastest_steps_per_sec", Json::Float(fastest)),
                    ("median_cold_arena_steps_per_sec", Json::Float(cold_median)),
                ]));
            }

            let json = Json::object([
                (
                    "note",
                    Json::Str(
                        "steady-state CnnLstm::train_batch throughput over `rounds` rounds, \
                         each timing the warm arena then the cold one: the median and the \
                         fastest round per shape. cold_arena re-times with the workspace pool \
                         cleared before every step (isolates reuse vs kernel wins)."
                            .into(),
                    ),
                ),
                ("scale", Json::Str(scale.to_string())),
                ("warmup_steps", Json::UInt(WARMUP_STEPS as u64)),
                ("timed_steps", Json::UInt(TIMED_STEPS as u64)),
                ("rounds", Json::UInt(ROUNDS as u64)),
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
