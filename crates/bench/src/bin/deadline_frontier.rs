//! Accuracy-vs-deadline frontier for the anytime prediction ladder.
//!
//! Trains the same primary / fallback / ladder / distilled-student stack
//! as `serve_load`, then sweeps the per-request deadline against the
//! early-exit confidence threshold over a low-contention request stream
//! (wide arrival gaps, `wave_cap` pinned to 4, so every outcome is a
//! pure function of the seed at any `BF_THREADS`). Each sweep cell
//! records end-to-end accuracy — a request that sheds or times out
//! counts as wrong — plus per-tier answer fractions and per-tier
//! conditional accuracy.
//!
//! The point of the artifact: with the ladder on, tightening the
//! deadline slides answers down the rungs (full → early-exit@k →
//! distilled → centroid) and accuracy degrades smoothly instead of
//! cliff-dropping to zero; at generous deadlines the curve approaches
//! the primary's offline accuracy. At non-smoke scales the run asserts
//! the curve is monotone (within a small tolerance) and that every
//! rung's *confident* exits beat the centroid tier's accuracy measured
//! on the same chaos-corrupted stream (forced budget-cutoff answers are
//! expected to sit near that floor — smooth degradation, not free
//! accuracy).
//!
//! Writes `BENCH_deadline_frontier.json` (override with
//! `BF_DEADLINE_FRONTIER_OUT`). The stream holds 400 requests, 120 at
//! `BF_SCALE=smoke`.

use bf_bench::{run_bin, tier_slot, ServingStack, Tally, TIER_LABELS};
use bf_core::ExperimentScale;
use bf_fault::FaultPlan;
use bf_ml::{metrics::argmax, Classifier, Dataset};
use bf_obs::Json;
use bf_serve::{open_loop_arrivals, ServeConfig, Tier};
use bf_stats::rng::combine_seeds;
use std::process::ExitCode;

/// Wide gaps: requests rarely queue, so the deadline budget is spent on
/// collection + inference, not on waiting — the sweep measures the
/// ladder, not the queue.
const MEAN_GAP_UNITS: f64 = 400.0;

/// Per-request deadlines swept (virtual units). With the default cost
/// model the ladder's clean paths land at ~37 (first rung) through ~224
/// (full climb), so the grid spans "only the cheapest rung fits" to
/// "everything fits with slack".
const DEADLINES: [u64; 6] = [40, 60, 90, 130, 180, 320];

/// Early-exit confidence thresholds swept (calibrated probability).
const THRESHOLDS: [f64; 3] = [0.70, 0.85, 0.95];

/// A rung's aggregate conditional accuracy is only compared against the
/// centroid floor once it has answered this many requests across the
/// whole sweep; rarely-hit rungs are reported but not gated.
const MIN_RUNG_SAMPLES: u64 = 25;

/// Adjacent sweep cells may differ by a request or two on knife-edge
/// budgets; the monotonicity gate allows this much accuracy slack.
const MONOTONE_SLACK: f64 = 0.02;

/// `f(slot)` for every answer tier, keyed by its label.
fn per_tier(f: impl Fn(usize) -> f64) -> Json {
    Json::object(TIER_LABELS.iter().enumerate().map(|(i, label)| (*label, Json::Float(f(i)))))
}

/// One sweep cell's artifact entry. `tier_accuracy` covers every answer
/// at a rung, forced budget-cutoff answers included.
fn cell_json(deadline: u64, threshold: f64, t: &Tally) -> Json {
    Json::object([
        ("deadline_units", Json::UInt(deadline)),
        ("confidence_threshold", Json::Float(threshold)),
        ("answered", Json::UInt(t.answered())),
        ("answered_fraction", Json::Float(t.answered_fraction())),
        ("accuracy", Json::Float(t.accuracy())),
        ("tier_fractions", per_tier(|i| t.tier_fraction(i))),
        ("tier_accuracy", per_tier(|i| t.tier_accuracy(i))),
    ])
}

/// Offline accuracy of a classifier on a labelled dataset (argmax).
fn offline_accuracy(model: &mut dyn Classifier, data: &Dataset) -> f64 {
    let probs = model.predict_proba(data.features());
    let correct =
        probs.iter().zip(data.labels()).filter(|(row, &label)| argmax(row) == label).count();
    correct as f64 / data.len().max(1) as f64
}

fn main() -> ExitCode {
    run_bin("anytime ladder deadline frontier", "deadline_frontier", |m, scale, seed| {
        let n_requests = if scale == ExperimentScale::Smoke { 120 } else { 400 };
        m.config("frontier.requests", n_requests);
        m.config("frontier.mean_gap_units", MEAN_GAP_UNITS);

        // Offline phase — the shared serving stack: primary + centroid
        // fallback + anytime ladder + distilled student.
        let mut stack = ServingStack::train(m, scale, seed);
        let n_sites = stack.n_sites;

        // The floor every rung is measured against: the standalone
        // centroid's offline accuracy on the held-out fold.
        let centroid_floor = offline_accuracy(&mut stack.fallback, &stack.val);
        let primary_offline = offline_accuracy(&mut *stack.primary, &stack.val);
        m.config("frontier.centroid_floor", centroid_floor);
        m.config("frontier.primary_offline_accuracy", primary_offline);

        // Online phase: default chaos plan, no storms — the sweep varies
        // only (deadline, threshold). wave_cap pinned so every cell is a
        // pure function of the seed, bit-identical at any BF_THREADS.
        let plan = FaultPlan { seed: combine_seeds(seed, 0xFB), ..FaultPlan::default_plan() };
        m.config("frontier.fault_plan", plan.summary());
        let cfg_for = |deadline: u64, threshold: f64| ServeConfig {
            deadline_units: deadline,
            wave_cap: Some(4),
            tiers: bf_serve::TierConfig {
                ladder: true,
                confidence_threshold: threshold,
                ..bf_serve::TierConfig::default()
            },
            ..ServeConfig::default()
        };
        let requests = open_loop_arrivals(n_requests, n_sites, MEAN_GAP_UNITS, seed);
        let mut svc = stack.into_service(plan, cfg_for(DEADLINES[0], THRESHOLDS[0]));

        let mut cells = Vec::new();
        // Every record of the sweep, for the per-rung totals.
        let mut swept = Vec::with_capacity(n_requests * DEADLINES.len() * THRESHOLDS.len());
        let mid = (DEADLINES.len() / 2, THRESHOLDS.len() / 2);
        for (ti, &threshold) in THRESHOLDS.iter().enumerate() {
            for (di, &deadline) in DEADLINES.iter().enumerate() {
                svc.reconfigure(cfg_for(deadline, threshold));
                let label = format!("sweep_d{deadline}_t{}", (threshold * 100.0) as u64);
                let resolved = m.phase(&label, || svc.run(&requests));
                assert_eq!(resolved.len(), n_requests);
                if (di, ti) == mid {
                    // Rerun one representative cell: the sweep must be
                    // bit-deterministic for a fixed seed.
                    svc.reconfigure(cfg_for(deadline, threshold));
                    let again = m.phase(&format!("{label}_replay"), || svc.run(&requests));
                    assert_eq!(
                        resolved, again,
                        "frontier outcomes must be bit-deterministic for a fixed seed"
                    );
                }
                cells.push((deadline, threshold, Tally::new(&resolved)));
                swept.extend(resolved);
            }
        }
        let rungs = Tally::new(&swept);
        svc.record_in_manifest(m);

        // Report the frontier.
        println!("\ncentroid floor (offline, val) = {centroid_floor:.4}");
        println!("primary offline accuracy (val) = {primary_offline:.4}\n");
        println!("threshold   deadline   answered   accuracy");
        for (deadline, threshold, cell) in &cells {
            println!(
                "{threshold:>9.2} {deadline:>10} {:>10} {:>10.4}",
                cell.answered(),
                cell.accuracy()
            );
        }
        println!("\nrung                 answers   accuracy   confident   conf accuracy");
        for (i, label) in TIER_LABELS.iter().enumerate() {
            println!(
                "{label:<20} {:>7} {:>10.4} {:>11} {:>15.4}",
                rungs.tier_counts[i],
                rungs.tier_accuracy(i),
                rungs.conf_counts[i],
                rungs.confident_accuracy(i)
            );
        }

        // Gates (skipped at smoke scale, where the 6-site centroid
        // stack leaves too few requests per cell to be statistical).
        let smoke = scale == ExperimentScale::Smoke;
        if !smoke {
            for &threshold in &THRESHOLDS {
                let curve: Vec<f64> = cells
                    .iter()
                    .filter(|(_, t, _)| *t == threshold)
                    .map(|(_, _, c)| c.accuracy())
                    .collect();
                for w in curve.windows(2) {
                    assert!(
                        w[1] >= w[0] - MONOTONE_SLACK,
                        "accuracy must degrade monotonically as deadlines tighten \
                         (threshold {threshold}): {curve:?}"
                    );
                }
            }
            // The floor is the centroid tier's *online* accuracy on this
            // very stream (same chaos plan, same paid prefixes) — the
            // offline clean-trace floor above is info, not a gate; the
            // serving path never sees clean full traces. Every rung's
            // confident exits must beat it; forced budget-cutoff answers
            // are expected to sit near it, that's the smooth-degradation
            // deal.
            let centroid = tier_slot(Tier::Centroid);
            if rungs.tier_counts[centroid] >= MIN_RUNG_SAMPLES {
                let online_floor = rungs.tier_accuracy(centroid);
                for (i, label) in TIER_LABELS.iter().enumerate() {
                    if i == centroid || rungs.conf_counts[i] < MIN_RUNG_SAMPLES {
                        continue;
                    }
                    let acc = rungs.confident_accuracy(i);
                    assert!(
                        acc >= online_floor,
                        "rung {label}'s confident exits ({acc:.4} over {} answers) must \
                         beat the online centroid floor {online_floor:.4}",
                        rungs.conf_counts[i]
                    );
                }
            } else {
                println!(
                    "note: centroid tier answered only {} request(s); rung-vs-floor \
                     gate skipped",
                    rungs.tier_counts[centroid]
                );
            }
        }

        let json = Json::object([
            (
                "note",
                Json::Str(
                    "anytime-ladder deadline frontier: accuracy vs per-request deadline at \
                     three early-exit confidence thresholds, wave_cap pinned so every cell \
                     is a pure function of the seed. Accuracy counts sheds/timeouts as \
                     wrong; tier_accuracy is conditional on answering at that rung. \
                     Deadlines are virtual work units, not wall time."
                        .into(),
                ),
            ),
            ("scale", Json::Str(scale.to_string())),
            ("seed", Json::UInt(seed)),
            ("requests", Json::UInt(n_requests as u64)),
            ("mean_gap_units", Json::Float(MEAN_GAP_UNITS)),
            ("deterministic", Json::Bool(true)),
            ("centroid_floor_accuracy", Json::Float(centroid_floor)),
            ("primary_offline_accuracy", Json::Float(primary_offline)),
            (
                "rung_accuracy",
                Json::object(TIER_LABELS.iter().enumerate().map(|(i, label)| {
                    (
                        *label,
                        Json::object([
                            ("answers", Json::UInt(rungs.tier_counts[i])),
                            ("accuracy", Json::Float(rungs.tier_accuracy(i))),
                            ("confident_answers", Json::UInt(rungs.conf_counts[i])),
                            ("confident_accuracy", Json::Float(rungs.confident_accuracy(i))),
                        ]),
                    )
                })),
            ),
            ("cells", Json::Array(cells.iter().map(|(d, t, c)| cell_json(*d, *t, c)).collect())),
        ]);
        let out =
            bf_bench::artifact_path("BF_DEADLINE_FRONTIER_OUT", "BENCH_deadline_frontier.json");
        std::fs::write(&out, json.to_pretty_string())?;
        println!("\nwrote {out}");
        Ok(())
    })
}
