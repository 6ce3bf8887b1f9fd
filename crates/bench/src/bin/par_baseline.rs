//! Sequential-vs-parallel baseline for the `bf-par` execution layer.
//!
//! Runs the three parallelized pipeline layers — trace collection,
//! k-fold cross-validation, and the CNN kernels — once on a single
//! thread and once on the configured pool, asserts the results are
//! bit-identical (the whole point of the deterministic pool), records
//! per-phase wall times and speedups in the run manifest, and writes a
//! `BENCH_par_baseline.json` summary next to the manifest output.
//!
//! Speedup is hardware-bound: on a single-core host both runs use one
//! worker's worth of CPU and the ratio hovers around 1×; on a multi-core
//! runner the collect/crossval phases scale with the pool.

use bf_bench::run_bin;
use bf_core::{AttackKind, CollectionConfig};
use bf_nn::{Conv1d, Layer, Tensor};
use bf_obs::Json;
use bf_stats::SeedRng;
use bf_timer::BrowserKind;
use std::process::ExitCode;
use std::time::Instant;

/// One layer's sequential/parallel timing pair.
struct PhasePair {
    name: &'static str,
    seq_seconds: f64,
    par_seconds: f64,
}

impl PhasePair {
    fn speedup(&self) -> f64 {
        if self.par_seconds > 0.0 {
            self.seq_seconds / self.par_seconds
        } else {
            1.0
        }
    }
}

/// Bits of a `f32` feature matrix, for exact comparison.
fn feature_bits(features: &[Vec<f32>]) -> Vec<Vec<u32>> {
    features
        .iter()
        .map(|row| row.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// One CNN kernel pass: conv forward + backward over a paper-shaped
/// batch (32 standardized traces into the first conv layer).
fn conv_pass(batch: usize, len: usize) -> f64 {
    let mut rng = SeedRng::new(7);
    let mut conv = Conv1d::new(1, 32, 8, 3, &mut rng);
    let x = Tensor::new(
        &[batch, 1, len],
        (0..batch * len).map(|i| (i as f32 * 0.37).sin()).collect(),
    );
    let y = conv.forward(&x, true);
    let grad = Tensor::new(
        y.shape(),
        (0..y.len()).map(|i| (i as f32 * 0.11).cos()).collect(),
    );
    let dx = conv.backward(&grad);
    f64::from(dx.data()[0])
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
            let mut pairs = Vec::new();

            // Layer 1: trace collection.
            bf_par::set_threads(Some(1));
            let t = Instant::now();
            let d_seq = m.phase("collect_seq", || cfg.collect_closed_world(n_sites, tps, seed));
            let seq_seconds = t.elapsed().as_secs_f64();
            bf_par::set_threads(Some(par_threads));
            let t = Instant::now();
            let d_par = m.phase("collect_par", || cfg.collect_closed_world(n_sites, tps, seed));
            let par_seconds = t.elapsed().as_secs_f64();
            assert_eq!(d_seq.labels(), d_par.labels(), "collection labels diverged");
            assert_eq!(
                feature_bits(d_seq.features()),
                feature_bits(d_par.features()),
                "collection features not bit-identical across thread counts"
            );
            pairs.push(PhasePair {
                name: "collect",
                seq_seconds,
                par_seconds,
            });

            // Layer 2: cross-validation.
            bf_par::set_threads(Some(1));
            let t = Instant::now();
            let cv_seq = m.phase("crossval_seq", || cfg.cross_validate(&d_seq, seed));
            let seq_seconds = t.elapsed().as_secs_f64();
            bf_par::set_threads(Some(par_threads));
            let t = Instant::now();
            let cv_par = m.phase("crossval_par", || cfg.cross_validate(&d_seq, seed));
            let par_seconds = t.elapsed().as_secs_f64();
            let bits = |r: &bf_ml::CrossValResult| -> Vec<(u64, u64)> {
                r.folds
                    .iter()
                    .map(|f| (f.accuracy.to_bits(), f.top5.to_bits()))
                    .collect()
            };
            assert_eq!(
                bits(&cv_seq),
                bits(&cv_par),
                "fold metrics not bit-identical across thread counts"
            );
            pairs.push(PhasePair {
                name: "crossval",
                seq_seconds,
                par_seconds,
            });

            // Layer 3: CNN kernels (conv forward + backward, batch 32).
            let len = d_seq.feature_len().max(256);
            bf_par::set_threads(Some(1));
            let t = Instant::now();
            let k_seq = m.phase("kernels_seq", || conv_pass(32, len));
            let seq_seconds = t.elapsed().as_secs_f64();
            bf_par::set_threads(Some(par_threads));
            let t = Instant::now();
            let k_par = m.phase("kernels_par", || conv_pass(32, len));
            let par_seconds = t.elapsed().as_secs_f64();
            assert_eq!(
                k_seq.to_bits(),
                k_par.to_bits(),
                "kernel outputs not bit-identical across thread counts"
            );
            pairs.push(PhasePair {
                name: "kernels",
                seq_seconds,
                par_seconds,
            });
            bf_par::set_threads(None);

            println!("phase         seq (s)    par (s)    speedup (x{par_threads} threads)");
            for p in &pairs {
                println!(
                    "{:<12} {:>8.3}   {:>8.3}    {:>5.2}x",
                    p.name,
                    p.seq_seconds,
                    p.par_seconds,
                    p.speedup()
                );
                bf_obs::gauge(&format!("par.speedup.{}", p.name)).set(p.speedup());
            }

            let json = Json::object([
                (
                    "note",
                    Json::Str(
                        "seq (1 thread) vs par wall times for the bf-par layers; results \
                         asserted bit-identical across thread counts. Speedup (seq/par) is \
                         bounded by hardware_threads — ~1x on a single-core host."
                            .into(),
                    ),
                ),
                ("scale", Json::Str(scale.to_string())),
                ("seed", Json::UInt(seed)),
                ("par_threads", Json::UInt(par_threads as u64)),
                (
                    "hardware_threads",
                    Json::UInt(std::thread::available_parallelism().map_or(1, |n| n.get() as u64)),
                ),
                ("bit_identical", Json::Bool(true)),
                (
                    "phases",
                    Json::Array(
                        pairs
                            .iter()
                            .map(|p| {
                                Json::object([
                                    ("phase", Json::Str(p.name.into())),
                                    ("seq_seconds", Json::Float(p.seq_seconds)),
                                    ("par_seconds", Json::Float(p.par_seconds)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]);
            let out = bf_bench::artifact_path("BF_PAR_BASELINE_OUT", "BENCH_par_baseline.json");
            std::fs::write(&out, json.to_pretty_string())?;
            println!("\nwrote {out}");
            Ok(())
        },
    )
}
