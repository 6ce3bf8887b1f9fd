//! Simulation-engine throughput at collect-phase shapes.
//!
//! Times steady-state `Machine::run` over real website workloads (the
//! same `WebsiteProfile` fixtures `collect_trace` feeds the engine),
//! sequentially (1 thread) and fanned out across seeds on the
//! configured `bf_par` pool, and writes a `BENCH_sim_throughput.json`
//! summary. Each configuration also re-times the same runs with the sim
//! workspace cleared before every run, isolating how much of the win
//! comes from buffer reuse versus the streamed merge itself.
//!
//! A shape's four modes alternate over [`bf_bench::ROUNDS`] rounds
//! ([`bf_bench::time_rounds`]), so a slow window on a shared host falls
//! on all of them, and each row records the median and the fastest
//! round.
//!
//! Runs are consumed the way `collect_trace` consumes them: only the
//! attacker core's timeline is read, so the other cores and the kernel
//! log are never built. The `materialized` rows also read the kernel log,
//! which serves every deferred arrival — the price the eBPF analyses pay.
//! Events/sec counts dispatched arrivals and preemptions
//! (`sim.events_dispatched`), the same in every mode.
//!
//! ```sh
//! BF_SCALE=smoke   cargo run --release -p bf-bench --bin sim_throughput
//! BF_SCALE=default cargo run --release -p bf-bench --bin sim_throughput
//! ```

use bf_bench::{run_bin, time_rounds, ROUNDS};
use bf_core::ExperimentScale;
use bf_sim::{Machine, MachineConfig, SimOutput, Workload};
use bf_obs::Json;
use bf_stats::rng::combine_seeds;
use bf_timer::Nanos;
use bf_victim::{LoadEnv, WebsiteProfile};
use std::process::ExitCode;
use std::time::Instant;

/// One benchmark shape.
struct Shape {
    name: &'static str,
    hostname: &'static str,
    /// Simulated trace duration (the default shape matches the Chrome
    /// collect-phase trace length used by `collect_trace`).
    duration_ms: u64,
    timed_runs: usize,
}

const SHAPES: &[Shape] = &[
    Shape {
        name: "smoke",
        hostname: "github.com",
        duration_ms: 2_000,
        timed_runs: 40,
    },
    Shape {
        name: "default",
        hostname: "github.com",
        duration_ms: 15_000,
        timed_runs: 30,
    },
];

const WARMUP_RUNS: usize = 3;

/// Consume a run's output the way `collect_trace` does — read the
/// attacker core's timeline — and, when `materialize`, also read the
/// kernel log the way the eBPF analyses do. Then either recycle it into
/// the pool (steady state) or drop it (cold).
fn finish_run(out: SimOutput, warm: bool, materialize: bool) {
    std::hint::black_box(out.attacker_timeline().gaps().len());
    if materialize {
        std::hint::black_box(out.kernel_log().len());
    }
    if warm {
        bf_sim::workspace::recycle(out);
    }
}

/// `sim.events_dispatched` so far: a timed section's delta is the number
/// of arrivals and preemptions its runs dispatched.
fn events_dispatched() -> u64 {
    bf_obs::counter("sim.events_dispatched").get()
}

/// The collect-phase workload for a shape: a direct (non-Tor) page load
/// of the shape's site, exactly what `collect_trace` hands the engine.
fn shape_workload(shape: &Shape, seed: u64) -> Workload {
    WebsiteProfile::for_hostname(shape.hostname).generate_in_env(
        Nanos::from_millis(shape.duration_ms),
        seed,
        &LoadEnv::direct(),
    )
}

/// Seconds and dispatched events for one shape's timed runs on this
/// thread. `warm` runs on recycled workspace arenas (steady state, zero
/// allocation); cold clears the pool before every run, isolating the
/// streamed merge from buffer reuse. `materialize` also builds every
/// core and the kernel log.
fn measure_seq(
    machine: &Machine,
    workload: &Workload,
    shape: &Shape,
    warm: bool,
    materialize: bool,
) -> (f64, u64) {
    bf_sim::workspace::clear_thread();
    for i in 0..WARMUP_RUNS {
        finish_run(machine.run(workload, combine_seeds(0xBEEF, i as u64)), warm, materialize);
    }
    let events0 = events_dispatched();
    let t = Instant::now();
    for i in 0..shape.timed_runs {
        if !warm {
            bf_sim::workspace::clear_thread();
        }
        finish_run(machine.run(workload, combine_seeds(42, i as u64)), warm, materialize);
    }
    (t.elapsed().as_secs_f64(), events_dispatched() - events0)
}

/// Fan the same runs out across the `bf_par` pool (one sim per seed —
/// the collect-phase parallelism shape) and report their seconds and
/// dispatched events. Each worker recycles into its own thread-local
/// arena.
fn measure_par(machine: &Machine, workload: &Workload, shape: &Shape) -> (f64, u64) {
    let seeds: Vec<u64> = (0..shape.timed_runs as u64)
        .map(|i| combine_seeds(42, i))
        .collect();
    // Warm every worker's thread-local state.
    bf_par::par_map_indexed(&seeds[..seeds.len().min(4)], |_, &s| {
        finish_run(machine.run(workload, s), true, false)
    });
    let events0 = events_dispatched();
    let t = Instant::now();
    bf_par::par_map_indexed(&seeds, |_, &s| finish_run(machine.run(workload, s), true, false));
    (t.elapsed().as_secs_f64(), events_dispatched() - events0)
}

fn main() -> ExitCode {
    run_bin(
        "simulation throughput",
        "sim_throughput",
        |m, scale, _seed| {
            let par_threads = bf_par::threads().max(2);
            m.config("par_threads", par_threads);
            // Smoke keeps CI fast with the short trace only; larger
            // scales also time the collect-phase 15 s default shape.
            let shapes: &[Shape] = if scale == ExperimentScale::Smoke {
                &SHAPES[..1]
            } else {
                SHAPES
            };

            println!(
                "shape     mode         threads   median runs/s  fastest runs/s  events/s     ms/run"
            );
            let modes = [("steady", 1usize), ("cold", 1), ("par", par_threads), ("materialized", 1)];
            let mut rows = Vec::new();
            for shape in shapes {
                let machine = Machine::new(MachineConfig::default());
                let workload = shape_workload(shape, 7);
                // The timed runs' seeds are fixed, so every round of a
                // mode dispatches the same events.
                let mut events = modes.map(|_| 0u64);
                let times = m.phase(shape.name, || {
                    time_rounds(modes.len(), |row| {
                        let (mode, threads) = modes[row];
                        bf_par::set_threads(Some(threads));
                        let (secs, dispatched) = match mode {
                            "steady" => measure_seq(&machine, &workload, shape, true, false),
                            "cold" => measure_seq(&machine, &workload, shape, false, false),
                            "materialized" => measure_seq(&machine, &workload, shape, true, true),
                            _ => measure_par(&machine, &workload, shape),
                        };
                        bf_par::set_threads(None);
                        events[row] = dispatched;
                        secs
                    })
                });
                for ((&(mode, threads), time), &dispatched) in modes.iter().zip(&times).zip(&events) {
                    let (median, fastest) = time.per_sec(shape.timed_runs as f64);
                    let (events_per_sec, _) = time.per_sec(dispatched as f64);
                    println!(
                        "{:<9} {:<12} {:<9} {:>12.2}  {:>14.2}  {:>10.0}  {:>8.2}",
                        shape.name, mode, threads, median, fastest, events_per_sec, 1e3 / median,
                    );
                    bf_obs::gauge("sim.runs_per_sec").set(median);
                    rows.push(Json::object([
                        ("shape", Json::Str(shape.name.into())),
                        ("mode", Json::Str(mode.into())),
                        ("threads", Json::UInt(threads as u64)),
                        ("duration_ms", Json::UInt(shape.duration_ms)),
                        ("timed_runs", Json::UInt(shape.timed_runs as u64)),
                        ("median_runs_per_sec", Json::Float(median)),
                        ("fastest_runs_per_sec", Json::Float(fastest)),
                        ("median_events_per_sec", Json::Float(events_per_sec)),
                    ]));
                }
            }

            let json = Json::object([
                (
                    "note",
                    Json::Str(
                        "Machine::run throughput over collect-phase website workloads, \
                         consumed as collection does (attacker timeline only), over `rounds` \
                         rounds that each time every mode: the median and the fastest round \
                         per row. Modes: \
                         steady = recycled workspace arenas (zero-alloc path), cold = pool \
                         cleared before every run, par = one sim per seed on the bf_par \
                         pool, materialized = steady plus a kernel-log read that builds \
                         every core. median_events_per_sec counts sim.events_dispatched."
                            .into(),
                    ),
                ),
                ("scale", Json::Str(scale.to_string())),
                ("warmup_runs", Json::UInt(WARMUP_RUNS as u64)),
                ("rounds", Json::UInt(ROUNDS as u64)),
                ("par_threads", Json::UInt(par_threads as u64)),
                (
                    "hardware_threads",
                    Json::UInt(std::thread::available_parallelism().map_or(1, |n| n.get() as u64)),
                ),
                ("rows", Json::Array(rows)),
            ]);
            let out = bf_bench::artifact_path("BF_SIM_THROUGHPUT_OUT", "BENCH_sim_throughput.json");
            std::fs::write(&out, json.to_pretty_string())?;
            println!("\nwrote {out}");
            Ok(())
        },
    )
}
