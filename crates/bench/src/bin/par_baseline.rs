//! Sequential-vs-parallel baseline for the `bf-par` execution layer.
//!
//! Runs the two parallelized pipeline layers — trace collection (one
//! trace per item) and k-fold cross-validation (one fold per item) — on
//! a single thread and on the configured pool, asserts every run's
//! results bit-identical (the whole point of the deterministic pool),
//! and writes a `BENCH_par_baseline.json` summary next to the manifest
//! output. A layer's two rows alternate over [`bf_bench::ROUNDS`] rounds
//! ([`bf_bench::time_rounds`]), so a slow window on a shared host falls
//! on both, and each row records the median and the fastest round.
//!
//! Speedup is hardware-bound: on a single-core host both runs use one
//! worker's worth of CPU and the ratio hovers around 1×; on a multi-core
//! runner both layers scale with the pool.

use bf_bench::{run_bin, time_rounds, RoundTimes, ROUNDS};
use bf_core::{AttackKind, CollectionConfig};
use bf_obs::Json;
use bf_timer::BrowserKind;
use std::process::ExitCode;
use std::time::Instant;

/// Bits of a `f32` feature matrix, for exact comparison.
fn feature_bits(features: &[Vec<f32>]) -> Vec<Vec<u32>> {
    features
        .iter()
        .map(|row| row.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// Bits of every fold's accuracy and top-5 accuracy.
fn fold_bits(r: &bf_ml::CrossValResult) -> Vec<(u64, u64)> {
    r.folds
        .iter()
        .map(|f| (f.accuracy.to_bits(), f.top5.to_bits()))
        .collect()
}

/// Time `run` at 1 thread (row 0) and at `par_threads` (row 1) over
/// [`ROUNDS`] alternating rounds. Every run's `bits` must equal the
/// first run's; returns the first run's output and both rows' times.
fn seq_and_par<R, B: PartialEq + std::fmt::Debug>(
    what: &str,
    par_threads: usize,
    run: impl Fn() -> R,
    bits: impl Fn(&R) -> B,
) -> (R, Vec<RoundTimes>) {
    let mut first: Option<(R, B)> = None;
    let times = time_rounds(2, |row| {
        bf_par::set_threads(Some(if row == 0 { 1 } else { par_threads }));
        let t = Instant::now();
        let out = run();
        let secs = t.elapsed().as_secs_f64();
        match &first {
            Some((_, expected)) => {
                assert_eq!(&bits(&out), expected, "{what} not bit-identical across thread counts");
            }
            None => {
                let expected = bits(&out);
                first = Some((out, expected));
            }
        }
        secs
    });
    bf_par::set_threads(None);
    (first.expect("at least one round").0, times)
}

fn main() -> ExitCode {
    run_bin(
        "sequential vs parallel baseline",
        "par_baseline",
        |m, scale, seed| {
            // On a single-core host the resolved pool is 1; force at
            // least 2 workers so the parallel path (work claiming,
            // ordered merge) is genuinely exercised either way.
            let par_threads = bf_par::threads().max(2);
            m.config("par_threads", par_threads);
            let cfg = CollectionConfig::new(BrowserKind::Chrome, AttackKind::LoopCounting)
                .with_scale(scale);
            let (n_sites, tps) = (scale.n_sites(), scale.traces_per_site());

            let (dataset, collect) = m.phase("collect", || {
                seq_and_par(
                    "collection",
                    par_threads,
                    || cfg.collect_closed_world(n_sites, tps, seed),
                    |d| (d.labels().to_vec(), feature_bits(d.features())),
                )
            });
            let (_, crossval) = m.phase("crossval", || {
                seq_and_par(
                    "fold metrics",
                    par_threads,
                    || cfg.cross_validate(&dataset, seed),
                    fold_bits,
                )
            });

            println!("phase      threads  median (s)  fastest (s)");
            let mut rows = Vec::new();
            for (phase, times) in [("collect", collect), ("crossval", crossval)] {
                for (time, threads) in times.iter().zip([1, par_threads]) {
                    println!(
                        "{phase:<10} {threads:<8} {:>10.3}  {:>11.3}",
                        time.median_s, time.fastest_s
                    );
                    rows.push(Json::object([
                        ("phase", Json::Str(phase.into())),
                        ("threads", Json::UInt(threads as u64)),
                        ("median_seconds", Json::Float(time.median_s)),
                        ("fastest_seconds", Json::Float(time.fastest_s)),
                    ]));
                }
                let speedup = times[0].median_s / times[1].median_s.max(1e-12);
                println!("{phase:<10} median speedup {speedup:.2}x at {par_threads} threads");
                bf_obs::gauge(&format!("par.speedup.{phase}")).set(speedup);
            }

            let json = Json::object([
                (
                    "note",
                    Json::Str(
                        "seq (1 thread) vs par wall times for the bf-par layers over `rounds` \
                         rounds that each time both rows: the median and the fastest round per \
                         row; every run's results asserted bit-identical. Speedup (seq/par) is \
                         bounded by hardware_threads — ~1x on a single-core host."
                            .into(),
                    ),
                ),
                ("scale", Json::Str(scale.to_string())),
                ("seed", Json::UInt(seed)),
                ("rounds", Json::UInt(ROUNDS as u64)),
                ("par_threads", Json::UInt(par_threads as u64)),
                (
                    "hardware_threads",
                    Json::UInt(std::thread::available_parallelism().map_or(1, |n| n.get() as u64)),
                ),
                ("bit_identical", Json::Bool(true)),
                ("rows", Json::Array(rows)),
            ]);
            let out = bf_bench::artifact_path("BF_PAR_BASELINE_OUT", "BENCH_par_baseline.json");
            std::fs::write(&out, json.to_pretty_string())?;
            println!("\nwrote {out}");
            Ok(())
        },
    )
}
