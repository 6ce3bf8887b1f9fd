//! Training-step throughput for the zero-allocation hot path.
//!
//! Times steady-state `CnnLstm::train_batch` steps at paper-relevant
//! shapes, sequentially (1 thread) and on the configured pool, and
//! writes a `BENCH_train_throughput.json` summary. Each configuration
//! also re-times the same steps with the workspace arena cleared before
//! every step, isolating how much of the win comes from buffer reuse
//! versus the unrolled kernels.
//!
//! A shape's two rows are timed over [`FLOOR_ROUNDS`] rounds, each round
//! timing the 1-thread row and then the pool row, so a slow window on a
//! shared host falls on both. Each row records the median and the
//! fastest round (the cold-arena rate as a median): one 30-step timing
//! alone cannot be told apart from a fast or slow window.
//!
//! At the smoke shape the pool must run at least [`POOL_FLOOR`] times one
//! thread's rate, measured in the same run: its kernels sit under
//! `bf_par::DEFAULT_MIN_UNITS` and must run inline rather than pay
//! dispatch overhead for sub-threshold slices (before that minimum-work
//! gate existed, the 2-thread row ran at 0.58x). The check compares the
//! two smoke rows' fastest rounds, so one slow window cannot decide it.
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
/// Alternating rounds per shape; odd, so the median is one round.
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

/// The median and the fastest of a row's rates.
fn median_and_fastest(mut rates: [f64; FLOOR_ROUNDS]) -> (f64, f64) {
    rates.sort_by(f64::total_cmp);
    (rates[FLOOR_ROUNDS / 2], rates[FLOOR_ROUNDS - 1])
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

            println!("shape     threads   median/s   fastest/s   cold-arena median/s");
            let mut rows = Vec::new();
            let mut smoke_fastest = [0.0f64; 2];
            for shape in shapes {
                // `[1 thread, pool]` rates per round; each round times
                // both sides, so they share the host's windows.
                let sides = [1usize, par_threads];
                let mut rates = [[0.0f64; FLOOR_ROUNDS]; 2];
                let mut cold = [[0.0f64; FLOOR_ROUNDS]; 2];
                m.phase(shape.name, || {
                    for round in 0..FLOOR_ROUNDS {
                        for (side, &threads) in sides.iter().enumerate() {
                            bf_par::set_threads(Some(threads));
                            rates[side][round] = measure(shape, false);
                            cold[side][round] = measure(shape, true);
                        }
                    }
                    bf_par::set_threads(None);
                });
                for (side, &threads) in sides.iter().enumerate() {
                    let (median, fastest) = median_and_fastest(rates[side]);
                    let (cold_median, _) = median_and_fastest(cold[side]);
                    if shape.name == SHAPES[0].name {
                        smoke_fastest[side] = fastest;
                    }
                    println!(
                        "{:<9} {:<9} {:>8.2}  {:>10.2}   {:>8.2}",
                        shape.name, threads, median, fastest, cold_median,
                    );
                    bf_obs::gauge("train.steps_per_sec").set(median);
                    rows.push(Json::object([
                        ("shape", Json::Str(shape.name.into())),
                        ("threads", Json::UInt(threads as u64)),
                        ("trace_len", Json::UInt(shape.trace_len as u64)),
                        ("n_classes", Json::UInt(shape.n_classes as u64)),
                        ("filters", Json::UInt(shape.filters as u64)),
                        ("batch", Json::UInt(shape.batch as u64)),
                        ("median_steps_per_sec", Json::Float(median)),
                        ("fastest_steps_per_sec", Json::Float(fastest)),
                        ("median_cold_arena_steps_per_sec", Json::Float(cold_median)),
                    ]));
                }
            }
            let ratio = smoke_fastest[1] / smoke_fastest[0];
            println!("smoke pool / 1-thread, fastest of {FLOOR_ROUNDS} rounds each: {ratio:.2}x");
            assert!(
                ratio >= POOL_FLOOR,
                "smoke shape at {par_threads} threads ran at {ratio:.2}x its 1-thread rate \
                 (floor {POOL_FLOOR:.2}x)"
            );

            let json = Json::object([
                (
                    "note",
                    Json::Str(
                        "steady-state CnnLstm::train_batch throughput over `rounds` rounds, \
                         each timing the 1-thread row then the pool row: the median and the \
                         fastest round per row. cold_arena re-times with the workspace pool \
                         cleared before every step (isolates reuse vs kernel wins)."
                            .into(),
                    ),
                ),
                ("scale", Json::Str(scale.to_string())),
                ("warmup_steps", Json::UInt(WARMUP_STEPS as u64)),
                ("timed_steps", Json::UInt(TIMED_STEPS as u64)),
                ("rounds", Json::UInt(FLOOR_ROUNDS as u64)),
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
