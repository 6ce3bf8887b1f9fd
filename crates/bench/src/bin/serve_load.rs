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
//! The predict stage micro-batches up to `BF_SERVE_BATCH` completions
//! per wave (default 8 from the environment), sharing each rung's
//! stacked forward pass across the batch; per-run `batch_*` fields
//! record how many batches assembled, why they flushed, and their mean
//! size. At the full 1000-request stream the run asserts the 1-thread
//! batched path answers >= 75% of requests with <= 25% timeouts.
//!
//! Writes `BENCH_serve_baseline.json` (override with
//! `BF_SERVE_BASELINE_OUT`): virtual-time throughput, p50/p99 latency,
//! shed rate, degraded fraction, and per-tier answer fractions (full /
//! early-exit@k / distilled / centroid over the `answered` denominator)
//! per thread count. Request count is `BF_SERVE_REQUESTS` (default
//! 1000; CI smoke uses a smaller stream).

use bf_bench::{quantile, run_bin, ServingStack};
use bf_fault::FaultPlan;
use bf_obs::Json;
use bf_serve::{open_loop_arrivals, Outcome, Resolved, ServeConfig, Service};
use bf_stats::rng::combine_seeds;
use std::process::ExitCode;
use std::time::Instant;

/// Mean virtual inter-arrival gap: well under the ~150-unit per-request
/// service cost, so a single worker saturates (shedding visible) while
/// four workers keep up.
const MEAN_GAP_UNITS: f64 = 40.0;

/// Answer tiers in ladder order, matching [`bf_serve::Tier::label`].
const TIER_LABELS: [&str; 6] = [
    "full",
    "early_exit_25",
    "early_exit_50",
    "early_exit_75",
    "distilled",
    "centroid",
];

struct RunStats {
    threads: usize,
    wall_seconds: f64,
    makespan_units: u64,
    p50_units: u64,
    p99_units: u64,
    predictions: u64,
    degraded: u64,
    timeouts: u64,
    shed: u64,
    failed: u64,
    tier_counts: [u64; TIER_LABELS.len()],
    transitions: String,
    /// Micro-batches assembled by the predict stage this run.
    batch_assembled: u64,
    /// Flush-reason breakdown: capacity, wave end, fault interruption.
    batch_flushed_full: u64,
    batch_flushed_deadline: u64,
    batch_flushed_tier_mismatch: u64,
    /// Mean members per assembled micro-batch (0 when batch is 1).
    mean_batch_size: f64,
}

impl RunStats {
    fn total(&self) -> u64 {
        self.predictions + self.degraded + self.timeouts + self.shed + self.failed
    }

    fn shed_rate(&self) -> f64 {
        self.shed as f64 / self.total().max(1) as f64
    }

    /// Requests that got an answer (primary prediction or degraded
    /// fallback) — the denominator of `degraded_fraction` and the
    /// numerator of `throughput_per_kunit`.
    fn answered(&self) -> u64 {
        self.predictions + self.degraded
    }

    fn degraded_fraction(&self) -> f64 {
        self.degraded as f64 / self.answered().max(1) as f64
    }

    /// Answered requests per 1000 virtual units.
    fn throughput_per_kunit(&self) -> f64 {
        self.answered() as f64 * 1000.0 / self.makespan_units.max(1) as f64
    }

    fn to_json(&self) -> Json {
        Json::object([
            ("threads", Json::UInt(self.threads as u64)),
            ("wall_seconds", Json::Float(self.wall_seconds)),
            ("makespan_units", Json::UInt(self.makespan_units)),
            ("p50_latency_units", Json::UInt(self.p50_units)),
            ("p99_latency_units", Json::UInt(self.p99_units)),
            ("throughput_per_kunit", Json::Float(self.throughput_per_kunit())),
            ("predictions", Json::UInt(self.predictions)),
            ("degraded", Json::UInt(self.degraded)),
            ("timeouts", Json::UInt(self.timeouts)),
            ("shed", Json::UInt(self.shed)),
            ("failed", Json::UInt(self.failed)),
            // Explicit denominator for `degraded_fraction` (and the
            // numerator of `throughput_per_kunit`): without it, readers
            // had to know the fraction is over answered requests, not all
            // resolved ones.
            ("answered", Json::UInt(self.answered())),
            ("answered_fraction", Json::Float(self.answered() as f64 / self.total().max(1) as f64)),
            ("shed_rate", Json::Float(self.shed_rate())),
            ("degraded_fraction", Json::Float(self.degraded_fraction())),
            // `degraded_fraction` broken down by answer tier: what share
            // of answered requests came from each ladder rung. Same
            // `answered` denominator on every entry.
            (
                "tier_fractions",
                Json::object(TIER_LABELS.iter().zip(self.tier_counts).map(|(label, n)| {
                    (*label, Json::Float(n as f64 / self.answered().max(1) as f64))
                })),
            ),
            ("breaker_transitions", Json::Str(self.transitions.clone())),
            // Micro-batch shape of the predict stage (Info metrics:
            // deterministic per (seed, threads, batch), echoed so the
            // frontier artifact can be cross-checked against this run).
            ("batch_assembled", Json::UInt(self.batch_assembled)),
            ("batch_flushed_full", Json::UInt(self.batch_flushed_full)),
            ("batch_flushed_deadline", Json::UInt(self.batch_flushed_deadline)),
            ("batch_flushed_tier_mismatch", Json::UInt(self.batch_flushed_tier_mismatch)),
            ("mean_batch_size", Json::Float(self.mean_batch_size)),
        ])
    }
}

/// Counter/histogram state of the `serve.batch.*` metrics, captured
/// before a pass so the pass's deltas can be attributed to it.
struct BatchMetricsMark {
    assembled: u64,
    full: u64,
    deadline: u64,
    tier_mismatch: u64,
    size: bf_obs::HistogramSnapshot,
}

impl BatchMetricsMark {
    fn take() -> Self {
        BatchMetricsMark {
            assembled: bf_obs::counter("serve.batch.assembled").get(),
            full: bf_obs::counter("serve.batch.flushed.full").get(),
            deadline: bf_obs::counter("serve.batch.flushed.deadline").get(),
            tier_mismatch: bf_obs::counter("serve.batch.flushed.tier_mismatch").get(),
            size: bf_obs::histogram("serve.batch.size").snapshot(),
        }
    }

    fn apply_delta(&self, stats: &mut RunStats) {
        stats.batch_assembled = bf_obs::counter("serve.batch.assembled").get() - self.assembled;
        stats.batch_flushed_full = bf_obs::counter("serve.batch.flushed.full").get() - self.full;
        stats.batch_flushed_deadline =
            bf_obs::counter("serve.batch.flushed.deadline").get() - self.deadline;
        stats.batch_flushed_tier_mismatch =
            bf_obs::counter("serve.batch.flushed.tier_mismatch").get() - self.tier_mismatch;
        stats.mean_batch_size =
            bf_obs::histogram("serve.batch.size").snapshot().delta_since(&self.size).mean();
    }
}

fn stats_for(threads: usize, wall_seconds: f64, resolved: &[Resolved], svc: &Service) -> RunStats {
    let mut answered: Vec<u64> = resolved
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Prediction { .. } | Outcome::Degraded { .. }))
        .map(Resolved::latency_units)
        .collect();
    answered.sort_unstable();
    let count = |f: fn(&Outcome) -> bool| resolved.iter().filter(|r| f(&r.outcome)).count() as u64;
    let mut tier_counts = [0u64; TIER_LABELS.len()];
    for r in resolved {
        let tier = match &r.outcome {
            Outcome::Prediction { tier, .. } | Outcome::Degraded { tier, .. } => tier,
            _ => continue,
        };
        let slot = TIER_LABELS
            .iter()
            .position(|l| *l == tier.label())
            .unwrap_or_else(|| panic!("unknown answer tier {:?}", tier.label()));
        tier_counts[slot] += 1;
    }
    RunStats {
        threads,
        wall_seconds,
        makespan_units: resolved.iter().map(|r| r.completed).max().unwrap_or(0),
        p50_units: quantile(&answered, 0.50),
        p99_units: quantile(&answered, 0.99),
        predictions: count(|o| matches!(o, Outcome::Prediction { .. })),
        degraded: count(|o| matches!(o, Outcome::Degraded { .. })),
        timeouts: count(|o| matches!(o, Outcome::Timeout { .. })),
        shed: count(|o| matches!(o, Outcome::Shed)),
        failed: count(|o| matches!(o, Outcome::Failed { .. })),
        tier_counts,
        transitions: svc.breaker().transitions_summary(),
        batch_assembled: 0,
        batch_flushed_full: 0,
        batch_flushed_deadline: 0,
        batch_flushed_tier_mismatch: 0,
        mean_batch_size: 0.0,
    }
}

fn main() -> ExitCode {
    run_bin("online serving load baseline", "serve_load", |m, scale, seed| {
        let n_requests: usize =
            bf_obs::env::parse_or("BF_SERVE_REQUESTS", 1000, "a positive request count").max(1);
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
        let serve_cfg = ServeConfig { slow_storm: Some((5, 40)), ..ServeConfig::from_env() };
        let batch = serve_cfg.batch;
        m.config("serve.batch", batch);
        let requests = open_loop_arrivals(n_requests, n_sites, MEAN_GAP_UNITS, seed);
        let mut svc = stack.into_service(plan, serve_cfg);

        let mut runs = Vec::new();
        for threads in [1usize, 4] {
            bf_par::set_threads(Some(threads));
            let mut replay = None;
            for pass in 0..2 {
                svc.reset();
                let mark = BatchMetricsMark::take();
                let t = Instant::now();
                let resolved =
                    m.phase(&format!("serve_t{threads}_pass{pass}"), || svc.run(&requests));
                let wall = t.elapsed().as_secs_f64();

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
                        let mut stats = stats_for(threads, wall, &resolved, &svc);
                        mark.apply_delta(&mut stats);
                        runs.push(stats);
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
        // across BF_SERVE_BATCH-sized waves must answer at least 75% of
        // requests and leave at most 25% in timeout (the pre-batching
        // baseline sat at 600 answered / 384 timed out of 1000).
        // Short CI smoke streams and explicit batch=1 runs are exempt.
        if n_requests >= 1000 && batch >= 8 {
            let t1 = runs.iter().find(|r| r.threads == 1).expect("1-thread run recorded");
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
            println!(
                "{:<9} {:>14.2}   {:>6} {:>8}   {:>6.2}   {:>9.2}   {}",
                r.threads,
                r.throughput_per_kunit(),
                r.p50_units,
                r.p99_units,
                r.shed_rate() * 100.0,
                r.degraded_fraction() * 100.0,
                r.transitions
            );
            bf_obs::gauge(&format!("serve.throughput.t{}", r.threads))
                .set(r.throughput_per_kunit());
        }
        for r in &runs {
            let tiers: Vec<String> = TIER_LABELS
                .iter()
                .zip(r.tier_counts)
                .map(|(label, n)| format!("{label}={n}"))
                .collect();
            println!("t{} answer tiers: {}", r.threads, tiers.join(" "));
            println!(
                "t{} batches: assembled={} mean_size={:.2} flushed full={} deadline={} \
                 tier_mismatch={}",
                r.threads,
                r.batch_assembled,
                r.mean_batch_size,
                r.batch_flushed_full,
                r.batch_flushed_deadline,
                r.batch_flushed_tier_mismatch
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
            ("batch", Json::UInt(batch as u64)),
            ("deterministic", Json::Bool(true)),
            ("runs", Json::Array(runs.iter().map(RunStats::to_json).collect())),
        ]);
        let out = bf_bench::artifact_path("BF_SERVE_BASELINE_OUT", "BENCH_serve_baseline.json");
        std::fs::write(&out, json.to_pretty_string())?;
        println!("\nwrote {out}");
        Ok(())
    })
}
