//! Open-loop load generator for the `bf-serve` online service.
//!
//! Trains a scale-appropriate primary (CNN+LSTM at paper scales, the
//! centroid baseline at smoke scale) plus a centroid fallback on clean
//! traces, fits the anytime prediction ladder (per-prefix calibration
//! plus a distilled student), then replays a deterministic open-loop
//! arrival stream through [`bf_serve::Service`] under the default chaos
//! plan plus injected slow-model and worker-panic faults, once at 1
//! thread and once at 4.
//!
//! An early slow-model storm (requests 5..40) drives the circuit
//! breaker through a full open → half-open → closed cycle, so the run
//! manifest always carries breaker-state transitions. Each configuration
//! is run twice and asserted bit-identical — outcomes, tick accounting,
//! and breaker history are pure functions of `(seed, thread count)`.
//!
//! The service is configured in code: micro-batch capacity 8 and the
//! anytime ladder on, every other setting at its `ServeConfig` default.
//! The predict stage shares each rung's stacked forward pass across up
//! to 8 same-wave completions; per-run `batch_*` fields record how many
//! batches assembled, why they flushed, and their mean size. At the
//! full 1000-request stream the run asserts the 1-thread batched path
//! answers >= 75% of requests with <= 25% timeouts.
//!
//! Writes `BENCH_serve_baseline.json` (override with
//! `BF_SERVE_BASELINE_OUT`): virtual-time throughput, p50/p99 latency,
//! shed rate, degraded fraction, and per-tier answer fractions (full /
//! early-exit@k / distilled / centroid over the `answered` denominator)
//! per thread count. The stream holds 1000 requests, 200 at
//! `BF_SCALE=smoke`.

use bf_bench::{run_bin, BatchMark, BatchStats, ServingStack, Tally, TIER_LABELS};
use bf_core::ExperimentScale;
use bf_fault::FaultPlan;
use bf_obs::Json;
use bf_serve::{open_loop_arrivals, ServeConfig, TierConfig};
use bf_stats::rng::combine_seeds;
use std::process::ExitCode;

/// Mean virtual inter-arrival gap: well under the ~150-unit per-request
/// service cost, so a single worker saturates (shedding visible) while
/// four workers keep up.
const MEAN_GAP_UNITS: f64 = 40.0;

/// Micro-batch capacity of the predict stage.
const BATCH: usize = 8;

struct RunStats {
    threads: usize,
    tally: Tally,
    transitions: String,
    batch: BatchStats,
}

impl RunStats {
    fn to_json(&self) -> Json {
        let t = &self.tally;
        Json::object([
            ("threads", Json::UInt(self.threads as u64)),
            ("makespan_units", Json::UInt(t.makespan_units)),
            ("p50_latency_units", Json::UInt(t.latency(0.50))),
            ("p99_latency_units", Json::UInt(t.latency(0.99))),
            ("throughput_per_kunit", Json::Float(t.throughput_per_kunit())),
            ("predictions", Json::UInt(t.predictions)),
            ("degraded", Json::UInt(t.degraded)),
            ("timeouts", Json::UInt(t.timeouts)),
            ("shed", Json::UInt(t.shed)),
            ("failed", Json::UInt(t.failed)),
            // Explicit denominator for `degraded_fraction` (and the
            // numerator of `throughput_per_kunit`): without it, readers
            // had to know the fraction is over answered requests, not all
            // resolved ones.
            ("answered", Json::UInt(t.answered())),
            ("answered_fraction", Json::Float(t.answered_fraction())),
            ("shed_rate", Json::Float(t.rate(t.shed))),
            ("degraded_fraction", Json::Float(t.degraded_fraction())),
            // `degraded_fraction` broken down by answer tier: what share
            // of answered requests came from each ladder rung. Same
            // `answered` denominator on every entry.
            (
                "tier_fractions",
                Json::object(
                    TIER_LABELS
                        .iter()
                        .enumerate()
                        .map(|(i, label)| (*label, Json::Float(t.tier_fraction(i)))),
                ),
            ),
            ("breaker_transitions", Json::Str(self.transitions.clone())),
            // Micro-batch shape of the predict stage: deterministic per
            // (seed, threads, batch), echoed so the frontier artifact can
            // be cross-checked against this run.
            ("batch_assembled", Json::UInt(self.batch.assembled)),
            ("batch_flushed_full", Json::UInt(self.batch.flushed_full)),
            ("batch_flushed_deadline", Json::UInt(self.batch.flushed_deadline)),
            ("batch_flushed_tier_mismatch", Json::UInt(self.batch.flushed_tier_mismatch)),
            ("mean_batch_size", Json::Float(self.batch.mean_size)),
        ])
    }
}

fn main() -> ExitCode {
    run_bin("online serving load baseline", "serve_load", |m, scale, seed| {
        let n_requests = if scale == ExperimentScale::Smoke { 200 } else { 1000 };
        m.config("serve.requests", n_requests);
        m.config("serve.mean_gap_units", MEAN_GAP_UNITS);

        // Offline phase: clean training corpus + fitted models.
        let stack = ServingStack::train(m, scale, seed);
        let n_sites = stack.n_sites;

        // Online phase: default chaos plan + serving faults, plus an
        // early deterministic slow storm to exercise the breaker.
        let plan = FaultPlan {
            seed: combine_seeds(seed, 0xFA),
            slow_model: 0.02,
            worker_panic: 0.01,
            ..FaultPlan::default_plan()
        };
        m.config("serve.fault_plan", plan.summary());
        let serve_cfg = ServeConfig {
            slow_storm: Some((5, 40)),
            tiers: TierConfig { ladder: true, ..TierConfig::default() },
            batch: BATCH,
            ..ServeConfig::default()
        };
        m.config("serve.batch", BATCH);
        let requests = open_loop_arrivals(n_requests, n_sites, MEAN_GAP_UNITS, seed);
        let mut svc = stack.into_service(plan, serve_cfg);

        let mut runs = Vec::new();
        for threads in [1usize, 4] {
            bf_par::set_threads(Some(threads));
            let mut replay = None;
            for pass in 0..2 {
                svc.reset();
                let mark = BatchMark::take();
                let resolved =
                    m.phase(&format!("serve_t{threads}_pass{pass}"), || svc.run(&requests));

                let health = svc.health();
                assert_eq!(
                    health.resolved(),
                    n_requests as u64,
                    "every request must reach exactly one terminal outcome"
                );
                assert_eq!(resolved.len(), n_requests);
                // At 1 thread the service is in overload collapse and
                // storm requests mostly expire in queue before reaching
                // the model, so only the keeping-up 4-thread run is
                // guaranteed a full breaker cycle.
                if threads == 4 {
                    let summary = svc.breaker().transitions_summary();
                    for needle in ["->open@", "->half_open@", "->closed@"] {
                        assert!(
                            summary.contains(needle),
                            "expected a full breaker cycle in {summary:?}"
                        );
                    }
                }
                match replay.take() {
                    None => {
                        m.config(
                            &format!("serve.breaker_transitions.t{threads}"),
                            svc.breaker().transitions_summary(),
                        );
                        m.config(
                            &format!("serve.outcomes.t{threads}"),
                            format!(
                                "predictions={} degraded={} timeouts={} shed={} failed={}",
                                health.predictions,
                                health.degraded,
                                health.timeouts,
                                health.shed,
                                health.failed
                            ),
                        );
                        runs.push(RunStats {
                            threads,
                            tally: Tally::new(&resolved),
                            transitions: svc.breaker().transitions_summary(),
                            batch: mark.since(),
                        });
                        replay = Some(resolved);
                    }
                    Some(first) => {
                        assert_eq!(
                            first, resolved,
                            "serving outcomes must be bit-deterministic for fixed \
                             (seed, BF_THREADS)"
                        );
                    }
                }
            }
        }
        bf_par::set_threads(None);
        svc.record_in_manifest(m);

        // Availability floor for the micro-batched fast path at the
        // full default stream: a single worker sharing rung charges
        // across BATCH-sized groups must answer at least 75% of
        // requests and leave at most 25% in timeout (the pre-batching
        // baseline sat at 600 answered / 384 timed out of 1000).
        // Short CI smoke streams are exempt.
        if n_requests >= 1000 {
            let t1 = &runs.iter().find(|r| r.threads == 1).expect("1-thread run recorded").tally;
            assert!(
                t1.answered() * 4 >= 3 * n_requests as u64,
                "1-thread batched serving must answer >= 75% of the stream, got {}/{}",
                t1.answered(),
                n_requests
            );
            assert!(
                t1.timeouts * 4 <= n_requests as u64,
                "1-thread batched serving must time out <= 25% of the stream, got {}/{}",
                t1.timeouts,
                n_requests
            );
        }

        println!(
            "\nthreads   throughput/kunit   p50      p99      shed%    degraded%   breaker"
        );
        for r in &runs {
            let t = &r.tally;
            println!(
                "{:<9} {:>14.2}   {:>6} {:>8}   {:>6.2}   {:>9.2}   {}",
                r.threads,
                t.throughput_per_kunit(),
                t.latency(0.50),
                t.latency(0.99),
                t.rate(t.shed) * 100.0,
                t.degraded_fraction() * 100.0,
                r.transitions
            );
            bf_obs::gauge(&format!("serve.throughput.t{}", r.threads))
                .set(t.throughput_per_kunit());
        }
        for r in &runs {
            let tiers: Vec<String> = TIER_LABELS
                .iter()
                .zip(r.tally.tier_counts)
                .map(|(label, n)| format!("{label}={n}"))
                .collect();
            println!("t{} answer tiers: {}", r.threads, tiers.join(" "));
            let b = &r.batch;
            println!(
                "t{} batches: assembled={} mean_size={:.2} flushed full={} deadline={} \
                 tier_mismatch={}",
                r.threads,
                b.assembled,
                b.mean_size,
                b.flushed_full,
                b.flushed_deadline,
                b.flushed_tier_mismatch
            );
        }

        let json = Json::object([
            (
                "note",
                Json::Str(
                    "open-loop serving baseline: deterministic virtual-time scheduler under \
                     the default chaos plan + slow-model/worker-panic injection; every \
                     request resolves to exactly one terminal outcome and replays are \
                     bit-identical per (seed, threads). Latencies/throughput are virtual \
                     work units, not wall time."
                        .into(),
                ),
            ),
            ("scale", Json::Str(scale.to_string())),
            ("seed", Json::UInt(seed)),
            ("requests", Json::UInt(n_requests as u64)),
            ("mean_gap_units", Json::Float(MEAN_GAP_UNITS)),
            ("batch", Json::UInt(BATCH as u64)),
            ("deterministic", Json::Bool(true)),
            ("runs", Json::Array(runs.iter().map(RunStats::to_json).collect())),
        ]);
        let out = bf_bench::artifact_path("BF_SERVE_BASELINE_OUT", "BENCH_serve_baseline.json");
        std::fs::write(&out, json.to_pretty_string())?;
        println!("\nwrote {out}");
        Ok(())
    })
}
