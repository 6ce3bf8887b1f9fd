//! Batch-size × deadline frontier for the micro-batched predict stage.
//!
//! Trains the same primary / fallback / ladder / distilled-student stack
//! as `serve_load`, then sweeps `ServeConfig::batch` against the
//! per-request deadline over a contended single-worker request stream
//! (`wave_cap` pinned, `BF_THREADS` forced to 1 for the sweep, so every
//! cell is a pure function of the seed). Each cell records answered
//! fraction, end-to-end accuracy, p50/p99 latency, and the assembled
//! micro-batch shape.
//!
//! The point of the artifact: batching is the axis that buys back
//! deadline headroom. At batch 1 a saturated worker spends the whole
//! budget queueing and times out; as the batch capacity grows, each
//! member's share of the stacked forward pass shrinks
//! (`ceil(inference / b)`), waves drain faster, and the answered
//! fraction climbs — without moving any per-request probability bits
//! (the batched forward pass is bit-identical to the solo one; only the
//! documented cost-sharing rule changes outcomes). At non-smoke scales
//! the run asserts the answered fraction is monotone (within slack)
//! in the batch capacity at every deadline.
//!
//! Writes `BENCH_serve_batch_frontier.json` (override with
//! `BF_BATCH_FRONTIER_OUT`). The stream holds 400 requests, 60 at
//! `BF_SCALE=smoke`.

use bf_bench::{run_bin, BatchMark, BatchStats, ServingStack, Tally};
use bf_core::ExperimentScale;
use bf_fault::FaultPlan;
use bf_obs::Json;
use bf_serve::{open_loop_arrivals, ServeConfig};
use bf_stats::rng::combine_seeds;
use std::process::ExitCode;

/// Tight gaps: a single worker saturates at batch 1, so the sweep
/// measures what batching buys back under real contention.
const MEAN_GAP_UNITS: f64 = 40.0;

/// Micro-batch capacities swept (`ServeConfig::batch`).
const BATCHES: [usize; 5] = [1, 2, 4, 8, 16];

/// Per-request deadlines swept (virtual units): from "one queued wave
/// already eats most of the budget" to the default serving deadline.
const DEADLINES: [u64; 4] = [150, 300, 600, 1000];

/// Adjacent cells may differ by a request or two on knife-edge budgets;
/// the monotonicity gate allows this much answered-fraction slack.
const MONOTONE_SLACK: f64 = 0.02;

/// One sweep cell.
struct Cell {
    batch: usize,
    deadline: u64,
    tally: Tally,
    shape: BatchStats,
}

impl Cell {
    fn to_json(&self) -> Json {
        let t = &self.tally;
        Json::object([
            ("batch", Json::UInt(self.batch as u64)),
            ("deadline_units", Json::UInt(self.deadline)),
            ("answered", Json::UInt(t.answered())),
            ("answered_fraction", Json::Float(t.answered_fraction())),
            ("accuracy", Json::Float(t.accuracy())),
            ("timeouts", Json::UInt(t.timeouts)),
            ("shed", Json::UInt(t.shed)),
            ("p50_latency_units", Json::UInt(t.latency(0.50))),
            ("p99_latency_units", Json::UInt(t.latency(0.99))),
            ("batch_assembled", Json::UInt(self.shape.assembled)),
            ("mean_batch_size", Json::Float(self.shape.mean_size)),
        ])
    }
}

fn main() -> ExitCode {
    run_bin("micro-batch deadline frontier", "batch_frontier", |m, scale, seed| {
        let n_requests = if scale == ExperimentScale::Smoke { 60 } else { 400 };
        m.config("frontier.requests", n_requests);
        m.config("frontier.mean_gap_units", MEAN_GAP_UNITS);

        // Offline phase — the shared serving stack: primary + centroid
        // fallback + anytime ladder + distilled student.
        let stack = ServingStack::train(m, scale, seed);
        let n_sites = stack.n_sites;

        // Online phase: default chaos plan, a single worker, wave_cap
        // pinned — each cell varies only (batch, deadline).
        let plan = FaultPlan { seed: combine_seeds(seed, 0xFB), ..FaultPlan::default_plan() };
        m.config("frontier.fault_plan", plan.summary());
        let cfg_for = |batch: usize, deadline: u64| ServeConfig {
            batch,
            deadline_units: deadline,
            wave_cap: Some(1),
            tiers: bf_serve::TierConfig {
                ladder: true,
                confidence_threshold: 0.85,
                ..bf_serve::TierConfig::default()
            },
            ..ServeConfig::default()
        };
        let requests = open_loop_arrivals(n_requests, n_sites, MEAN_GAP_UNITS, seed);
        let mut svc = stack.into_service(plan, cfg_for(1, DEADLINES[0]));

        bf_par::set_threads(Some(1));
        let mut cells: Vec<Cell> = Vec::new();
        let mid = (BATCHES.len() / 2, DEADLINES.len() / 2);
        for (bi, &batch) in BATCHES.iter().enumerate() {
            for (di, &deadline) in DEADLINES.iter().enumerate() {
                svc.reconfigure(cfg_for(batch, deadline));
                let mark = BatchMark::take();
                let label = format!("sweep_b{batch}_d{deadline}");
                let resolved = m.phase(&label, || svc.run(&requests));
                let shape = mark.since();
                assert_eq!(resolved.len(), n_requests);
                if (bi, di) == mid {
                    // Rerun one representative cell: outcomes and batch
                    // shape must be bit-deterministic for a fixed seed.
                    svc.reconfigure(cfg_for(batch, deadline));
                    let mark = BatchMark::take();
                    let again = m.phase(&format!("{label}_replay"), || svc.run(&requests));
                    assert_eq!(
                        resolved, again,
                        "frontier outcomes must be bit-deterministic for a fixed seed"
                    );
                    assert_eq!(shape, mark.since(), "the replay must assemble the same batches");
                }
                cells.push(Cell { batch, deadline, tally: Tally::new(&resolved), shape });
            }
        }
        bf_par::set_threads(None);
        svc.record_in_manifest(m);

        println!("\nbatch   deadline   answered   accuracy   p99    mean batch");
        for c in &cells {
            println!(
                "{:>5} {:>10} {:>10} {:>10.4} {:>6} {:>11.2}",
                c.batch,
                c.deadline,
                c.tally.answered(),
                c.tally.accuracy(),
                c.tally.latency(0.99),
                c.shape.mean_size
            );
        }

        // Gate (skipped at smoke scale, where cells hold too few
        // requests to be statistical): at every deadline, growing the
        // batch capacity must not cost answered requests.
        if scale != ExperimentScale::Smoke {
            for &deadline in &DEADLINES {
                let curve: Vec<f64> = cells
                    .iter()
                    .filter(|c| c.deadline == deadline)
                    .map(|c| c.tally.answered_fraction())
                    .collect();
                for w in curve.windows(2) {
                    assert!(
                        w[1] >= w[0] - MONOTONE_SLACK,
                        "answered fraction must not regress as the batch grows \
                         (deadline {deadline}): {curve:?}"
                    );
                }
            }
        }

        let json = Json::object([
            (
                "note",
                Json::Str(
                    "micro-batch deadline frontier: answered fraction and accuracy vs \
                     ServeConfig::batch at four per-request deadlines, single worker, \
                     wave_cap pinned so every cell is a pure function of the seed. The \
                     batched forward pass is bit-identical per request; only the \
                     documented ceil(inference/batch) cost share moves outcomes. \
                     Deadlines/latencies are virtual work units, not wall time."
                        .into(),
                ),
            ),
            ("scale", Json::Str(scale.to_string())),
            ("seed", Json::UInt(seed)),
            ("requests", Json::UInt(n_requests as u64)),
            ("mean_gap_units", Json::Float(MEAN_GAP_UNITS)),
            ("deterministic", Json::Bool(true)),
            ("cells", Json::Array(cells.iter().map(Cell::to_json).collect())),
        ]);
        let out =
            bf_bench::artifact_path("BF_BATCH_FRONTIER_OUT", "BENCH_serve_batch_frontier.json");
        std::fs::write(&out, json.to_pretty_string())?;
        println!("\nwrote {out}");
        Ok(())
    })
}
