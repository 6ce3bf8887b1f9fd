//! Chaos suite for the `bf-serve` online service: fault storms, slow
//! models, and worker panics must never lose a request — every job ends
//! in exactly one of {prediction, degraded prediction, explicit
//! timeout, explicit shed, explicit failure} and replays are
//! bit-identical for a fixed `(seed, BF_THREADS)`.
//!
//! Run alone via `cargo test -p bf-core --test serve_chaos`; CI runs it
//! under `BF_THREADS=1` and `BF_THREADS=4`.

use bf_core::collect::{AttackKind, CollectionConfig};
use bf_core::scale::ExperimentScale;
use bf_fault::FaultPlan;
use bf_ml::{CentroidClassifier, Classifier, Dataset};
use bf_serve::{
    open_loop_arrivals, BreakerConfig, Outcome, Resolved, ServeConfig, ServeRequest, Service,
    Stage, Tier, TierConfig,
};
use bf_timer::BrowserKind;
use bf_victim::{Catalog, WebsiteProfile};
use std::collections::BTreeSet;

/// Serializes tests: the service mutates process-global state (thread
/// pool override in one test, shared metric counters in another).
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

const N_SITES: usize = 3;

fn collection(plan: FaultPlan) -> CollectionConfig {
    CollectionConfig::new(BrowserKind::Chrome, AttackKind::LoopCounting)
        .with_scale(ExperimentScale::Smoke)
        .with_faults(plan)
}

fn sites() -> Vec<WebsiteProfile> {
    Catalog::closed_world_subset(N_SITES).sites().to_vec()
}

/// Fit a centroid on a small clean corpus (used as both the primary and
/// the degradation fallback — the service treats the primary as opaque).
fn fitted_centroid() -> CentroidClassifier {
    let clean = collection(FaultPlan::off());
    let mut data = Dataset::new(N_SITES);
    for (label, site) in sites().iter().enumerate() {
        for rep in 0..2u64 {
            let trace = clean.collect_trace(site, 4_000 + rep * 17 + label as u64);
            data.push(clean.featurize(&trace), label);
        }
    }
    let mut c = CentroidClassifier::new(N_SITES);
    c.fit(&data, &Dataset::new(N_SITES));
    c
}

fn service(plan: FaultPlan, cfg: ServeConfig) -> Service {
    let model = fitted_centroid();
    Service::new(collection(plan), sites(), Box::new(model.clone()), model, cfg)
}

/// Widely spaced arrivals: no queueing, so behavior is identical at any
/// thread count (each wave holds a single job).
fn spaced(n: u64, gap: u64) -> Vec<ServeRequest> {
    (0..n)
        .map(|i| ServeRequest {
            id: i,
            site: (i as usize) % N_SITES,
            seed: 7_000 + i,
            arrival: i * gap,
        })
        .collect()
}

/// Invariant check: one terminal outcome per request, ids preserved,
/// tallies consistent with the resolved records.
fn assert_all_resolved(resolved: &[Resolved], svc: &Service, n: usize) {
    assert_eq!(resolved.len(), n, "one record per request");
    let ids: BTreeSet<u64> = resolved.iter().map(|r| r.id).collect();
    assert_eq!(ids.len(), n, "no duplicate or lost request ids");
    let health = svc.health();
    assert_eq!(health.resolved(), n as u64, "tally sum must equal submissions");
    assert_eq!(health.submitted, n as u64);
    // The full outcome multiset, not just the sum: a tally bug that
    // booked a shed as a failure (or double-counted one label while
    // dropping another) balances the total and slips past a sum check.
    let count =
        |label: &str| resolved.iter().filter(|r| r.outcome.label() == label).count() as u64;
    assert_eq!(count("prediction"), health.predictions, "prediction tally matches records");
    assert_eq!(count("degraded"), health.degraded, "degraded tally matches records");
    assert_eq!(count("timeout"), health.timeouts, "timeout tally matches records");
    assert_eq!(count("shed"), health.shed, "shed tally matches records");
    assert_eq!(count("failed"), health.failed, "failed tally matches records");
    assert_eq!(count("shard_down"), health.shard_down, "shard_down tally matches records");
    for r in resolved {
        assert!(r.completed >= r.started && r.started >= r.arrival, "sane tick ordering");
    }
}

#[test]
fn fault_storm_never_loses_a_request_and_replays_bit_identically() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    // Everything at once: validation faults, transient retries, slow
    // models, worker panics — under an overloading arrival rate.
    let plan = FaultPlan {
        seed: 77,
        slow_model: 0.05,
        worker_panic: 0.05,
        ..FaultPlan::default_plan()
    };
    let requests = open_loop_arrivals(60, N_SITES, 30.0, 4242);
    let run = || {
        let mut svc = service(plan.clone(), ServeConfig::default());
        let resolved = svc.run(&requests);
        assert_all_resolved(&resolved, &svc, 60);
        resolved
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "fault storms must replay bit-identically at a fixed BF_THREADS");
    // The storm must actually exercise multiple terminal paths.
    let labels: BTreeSet<&str> = first.iter().map(|r| r.outcome.label()).collect();
    assert!(labels.len() >= 2, "expected a mix of terminal outcomes, got {labels:?}");
}

#[test]
fn breaker_runs_a_full_cycle_and_degraded_output_matches_the_standalone_centroid() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    // Requests 0..5 always hit a slow primary: five consecutive predict
    // failures open the breaker. Request 5 lands in the cooldown and
    // degrades; requests 6..8 are half-open probes (primary answers);
    // the third probe closes the breaker for the rest.
    let cfg = ServeConfig {
        slow_storm: Some((0, 5)),
        breaker: BreakerConfig { open_after: 5, cooldown_units: 2_000, close_after: 3 },
        ..ServeConfig::default()
    };
    let requests = spaced(12, 1_500);
    let mut svc = service(FaultPlan::off(), cfg);
    let resolved = svc.run(&requests);
    assert_all_resolved(&resolved, &svc, 12);

    let to_labels: Vec<&str> = svc.breaker().transitions().iter().map(|t| t.to.label()).collect();
    assert_eq!(
        to_labels,
        ["open", "half_open", "closed"],
        "expected exactly one full breaker cycle"
    );
    for r in &resolved[..5] {
        assert_eq!(
            r.outcome,
            Outcome::Timeout { stage: Stage::Predict },
            "slow-storm requests blow their budget in predict (request {})",
            r.id
        );
    }
    assert!(
        matches!(resolved[5].outcome, Outcome::Degraded { .. }),
        "cooldown-era request must degrade, got {:?}",
        resolved[5].outcome
    );
    for r in &resolved[6..] {
        assert!(
            matches!(r.outcome, Outcome::Prediction { .. }),
            "probe/recovered request {} should use the primary, got {:?}",
            r.id,
            r.outcome
        );
    }

    // Degraded output is bit-identical to the standalone centroid on
    // the same trace.
    let Outcome::Degraded { class, probs, .. } = &resolved[5].outcome else { unreachable!() };
    let clean = collection(FaultPlan::off());
    let req = &requests[5];
    let trace = clean
        .collect_trace_resilient(&sites()[req.site], req.seed)
        .expect("clean trace kept");
    let features = clean.featurize(&trace);
    let want = fitted_centroid().predict_proba(&[features]).remove(0);
    let got_bits: Vec<u32> = probs.iter().map(|v| v.to_bits()).collect();
    let want_bits: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
    assert_eq!(got_bits, want_bits, "degradation must not change centroid outputs");
    assert_eq!(*class, want.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0);
}

#[test]
fn half_open_probes_close_on_degraded_tier_successes_under_deadline_pressure() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    // Sustained deadline pressure: a 100-unit budget affords the ladder
    // only its 25% and 50% rungs (collect 25 + 12 + 50 = 87 units), and
    // an unreachable confidence bar means every answer is a
    // budget-cutoff `Degraded { tier: EarlyExit(50) }` — the primary
    // model *infers successfully* but never gets to a full answer.
    // Requests 0..3 additionally hit a slow primary and blow their
    // budget outright, opening the breaker. The regression being
    // pinned: half-open probes that resolve as Degraded-tier successes
    // must count toward closing — a breaker that only credits full-tier
    // predictions would stay open forever under this load.
    let cfg = ServeConfig {
        deadline_units: 100,
        slow_storm: Some((0, 3)),
        breaker: BreakerConfig { open_after: 3, cooldown_units: 2_000, close_after: 2 },
        tiers: TierConfig { ladder: true, confidence_threshold: 2.0, distilled_units: 15 },
        ..ServeConfig::default()
    };
    let requests = spaced(10, 1_500);
    let mut svc = service(FaultPlan::off(), cfg);
    let resolved = svc.run(&requests);
    assert_all_resolved(&resolved, &svc, 10);

    let to_labels: Vec<&str> = svc.breaker().transitions().iter().map(|t| t.to.label()).collect();
    assert_eq!(
        to_labels,
        ["open", "half_open", "closed"],
        "degraded-tier probe successes must walk the breaker back to closed"
    );
    for r in &resolved[..3] {
        assert_eq!(
            r.outcome,
            Outcome::Timeout { stage: Stage::Predict },
            "slow-storm request {} blows its budget",
            r.id
        );
    }
    // Everything after the cooldown answers at the 50% rung — degraded,
    // never a timeout: the deadline pressure degrades accuracy, not
    // availability.
    let mut early_exits = 0usize;
    for r in &resolved[3..] {
        match &r.outcome {
            Outcome::Degraded { tier: Tier::EarlyExit(50), confidence, .. } => {
                early_exits += 1;
                assert!(*confidence > 0.0 && *confidence <= 1.0);
            }
            Outcome::Degraded { tier: Tier::Centroid, .. } => {
                // Cooldown-era requests take the centroid floor.
            }
            other => panic!("request {} should degrade, got {other:?}", r.id),
        }
    }
    assert!(early_exits >= 4, "probes and recovered requests answer at the 50% rung");
    assert!(svc.health().ready, "breaker must end the run closed");
}

#[test]
fn exhausted_retries_quarantine_with_an_explicit_failure_never_a_hang() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    // Every collection attempt drops its trace: the repair policy
    // recollects, exhausts its budget, and quarantines. The service
    // must surface that as an explicit Failed outcome and account for
    // it in the fault.quarantined counter.
    let plan = FaultPlan { seed: 91, drop: 1.0, ..FaultPlan::off() };
    let cfg = ServeConfig { deadline_units: 100_000, ..ServeConfig::default() };
    let requests = spaced(3, 200_000);
    let before = bf_obs::counter("fault.quarantined").get();
    let mut svc = service(plan, cfg);
    let resolved = svc.run(&requests);
    assert_all_resolved(&resolved, &svc, 3);
    for r in &resolved {
        assert!(
            matches!(&r.outcome, Outcome::Failed { reason } if reason.contains("quarantined")),
            "request {} must fail explicitly, got {:?}",
            r.id,
            r.outcome
        );
    }
    assert!(
        bf_obs::counter("fault.quarantined").get() >= before + 3,
        "each exhausted retry chain lands in fault.quarantined"
    );
    assert_eq!(svc.health().failed, 3);
}

#[test]
fn worker_panics_are_contained_and_requests_still_resolve() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let plan = FaultPlan { seed: 13, worker_panic: 1.0, ..FaultPlan::off() };
    let requests = spaced(4, 2_000);
    let mut svc = service(plan, ServeConfig::default());
    let resolved = svc.run(&requests);
    assert_all_resolved(&resolved, &svc, 4);
    assert_eq!(svc.health().worker_panics, 4, "every primary call panicked");
    for r in &resolved {
        assert!(
            matches!(r.outcome, Outcome::Degraded { .. }),
            "a contained panic degrades to the fallback, got {:?}",
            r.outcome
        );
    }
    assert!(svc.health().ready, "isolated panics must not trip the breaker below its threshold");
}

#[test]
fn admission_burst_sheds_exactly_the_overflow() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    // 40 simultaneous arrivals against a 32-slot queue: exactly 8 shed,
    // regardless of thread count (admission happens before any wave).
    let requests = open_loop_arrivals(40, N_SITES, 0.0, 5);
    let mut svc = service(FaultPlan::off(), ServeConfig::default());
    let resolved = svc.run(&requests);
    assert_all_resolved(&resolved, &svc, 40);
    let shed: Vec<u64> =
        resolved.iter().filter(|r| r.outcome == Outcome::Shed).map(|r| r.id).collect();
    assert_eq!(shed, (32..40).collect::<Vec<u64>>(), "overflow sheds in arrival order");
    for r in resolved.iter().filter(|r| r.outcome == Outcome::Shed) {
        assert_eq!(r.work_units, 0, "shed requests consume no budget");
        assert_eq!(r.completed, r.arrival, "shed is immediate");
    }
}

/// FNV-1a 64 over a stream of 32-bit words (little-endian bytes), the
/// fingerprint idiom of the golden tests in `par_determinism.rs`.
fn fnv1a(words: impl Iterator<Item = u32>) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Fingerprint of every field of every resolved record: ids, ticks,
/// unit accounting, the outcome variant and its payload (probabilities
/// and confidence as `f32` bit patterns, tier and stage tags, failure
/// reasons byte by byte).
fn resolved_hash(resolved: &[Resolved]) -> u64 {
    fn u64_words(v: u64) -> [u32; 2] {
        [v as u32, (v >> 32) as u32]
    }
    fn tier_words(tier: Tier) -> [u32; 2] {
        match tier {
            Tier::Full => [0, 0],
            Tier::EarlyExit(level) => [1, level as u32],
            Tier::Distilled => [2, 0],
            Tier::Centroid => [3, 0],
        }
    }
    let mut words: Vec<u32> = Vec::new();
    for r in resolved {
        words.extend(u64_words(r.id));
        words.extend(u64_words(r.site as u64));
        match &r.outcome {
            Outcome::Prediction { class, probs, tier, confidence }
            | Outcome::Degraded { class, probs, tier, confidence } => {
                words.push(if matches!(r.outcome, Outcome::Prediction { .. }) { 0 } else { 1 });
                words.extend(u64_words(*class as u64));
                words.push(probs.len() as u32);
                words.extend(probs.iter().map(|p| p.to_bits()));
                words.extend(tier_words(*tier));
                words.push(confidence.to_bits());
            }
            Outcome::Timeout { stage } => {
                words.push(2);
                words.push(match stage {
                    Stage::Queue => 0,
                    Stage::Collect => 1,
                    Stage::Predict => 2,
                });
            }
            Outcome::Shed => words.push(3),
            Outcome::Failed { reason } => {
                words.push(4);
                words.push(reason.len() as u32);
                words.extend(reason.bytes().map(u32::from));
            }
            Outcome::ShardDown => words.push(5),
        }
        for v in [r.arrival, r.started, r.completed, r.queue_units, r.work_units] {
            words.extend(u64_words(v));
        }
    }
    fnv1a(words.into_iter())
}

/// `(ladder, batch, threads) -> resolved_hash` for every cell of the
/// replay matrix, recorded on the scheduler that still had a separate
/// per-request predict path. Routing every request through the
/// micro-batch path must reproduce them bit for bit.
const GOLDEN_MATRIX: [(bool, usize, usize, u64); 12] = [
    (false, 1, 1, 0x86b7ccf47a3c4f8e),
    (false, 1, 4, 0xbb50585be0ef90fd),
    (false, 4, 1, 0xc75a136fb1c5ad15),
    (false, 4, 4, 0xc3dfd6a059fed07e),
    (false, 16, 1, 0xc3dfd6a059fed07e),
    (false, 16, 4, 0x1aeb3adc9f9774b2),
    (true, 1, 1, 0xda276c51ef27972b),
    (true, 1, 4, 0x16417073b8defe13),
    (true, 4, 1, 0xc2ea271a68715b85),
    (true, 4, 4, 0xbd4e267b85c62556),
    (true, 16, 1, 0xd757a8051c5a2ed8),
    (true, 16, 4, 0x09dbbaf78cc174e2),
];

#[test]
fn batched_replay_matrix_is_bit_identical_at_every_batch_and_thread_count() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    // The full configuration matrix: the anytime ladder off and on
    // (`TierConfig::ladder`), micro-batch capacity
    // (`ServeConfig::batch`) in {1, 4, 16}, and BF_THREADS in {1, 4},
    // under an active fault storm plus a slow storm, so
    // fault-flagged requests reach both the plain and the ladder
    // predict path. Every cell must replay bit-identically — batching
    // regroups the predict stage but never introduces ordering or cost
    // nondeterminism — every request still lands on exactly one
    // terminal outcome, and every cell matches its golden fingerprint.
    let plan = FaultPlan {
        seed: 77,
        slow_model: 0.05,
        worker_panic: 0.05,
        ..FaultPlan::default_plan()
    };
    let requests = open_loop_arrivals(40, N_SITES, 30.0, 4242);
    let mut mismatches = Vec::new();
    for &(ladder, batch, threads, golden) in &GOLDEN_MATRIX {
        bf_par::set_threads(Some(threads));
        let run = || {
            let cfg = ServeConfig {
                batch,
                slow_storm: Some((5, 8)),
                breaker: BreakerConfig { cooldown_units: 300, ..BreakerConfig::default() },
                tiers: TierConfig { ladder, ..TierConfig::default() },
                ..ServeConfig::default()
            };
            let mut svc = service(plan.clone(), cfg);
            let resolved = svc.run(&requests);
            assert_all_resolved(&resolved, &svc, 40);
            resolved
        };
        let (first, second) = (run(), run());
        bf_par::set_threads(None);
        assert_eq!(
            first, second,
            "ladder={ladder} batch={batch} threads={threads} must replay bit-identically"
        );
        let got = resolved_hash(&first);
        if got != golden {
            mismatches.push(format!(
                "(ladder={ladder}, batch={batch}, threads={threads}): got {got:#018x}, \
                 golden {golden:#018x}"
            ));
        }
    }
    assert!(mismatches.is_empty(), "golden matrix cells moved:\n{}", mismatches.join("\n"));
}

#[test]
fn mid_batch_deadline_and_faults_account_each_request_exactly_once() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    // A tight deadline stops the shared ladder climb mid-batch (the
    // budget admits the 25% and 50% rungs, never the 75%), a slow storm
    // inside the burst keeps two requests out of every micro-batch, and
    // the second wave dispatches against an almost-spent deadline. No
    // path may drop or double-resolve a request.
    bf_par::set_threads(Some(1));
    let cfg = ServeConfig {
        batch: 8,
        deadline_units: 100,
        slow_storm: Some((3, 5)),
        tiers: TierConfig { ladder: true, confidence_threshold: 2.0, distilled_units: 15 },
        ..ServeConfig::default()
    };
    let requests = open_loop_arrivals(12, N_SITES, 0.0, 31);
    let run = || {
        let mut svc = service(FaultPlan::off(), cfg.clone());
        let resolved = svc.run(&requests);
        assert_all_resolved(&resolved, &svc, 12);
        resolved
    };
    let (first, second) = (run(), run());
    bf_par::set_threads(None);
    assert_eq!(first, second, "mid-batch cutoffs must replay bit-identically");
    for r in &first[3..5] {
        assert_eq!(
            r.outcome,
            Outcome::Timeout { stage: Stage::Predict },
            "slow-storm request {} blows its own budget, never the batch's",
            r.id
        );
    }
    let degraded = first
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Degraded { tier: Tier::EarlyExit(50), .. }))
        .count();
    assert!(
        degraded >= 6,
        "healthy batch members degrade to the 50% rung under the tight budget, got {degraded}"
    );
}

#[test]
fn queued_requests_expire_as_explicit_queue_timeouts() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    // Two workers, a burst of 8, and a deadline that exactly fits one
    // wave of work: the first wave answers, everything behind it
    // expires in queue — explicitly, never silently.
    bf_par::set_threads(Some(2));
    let cfg = ServeConfig { deadline_units: 150, ..ServeConfig::default() };
    let requests = open_loop_arrivals(8, N_SITES, 0.0, 9);
    let mut svc = service(FaultPlan::off(), cfg);
    let resolved = svc.run(&requests);
    bf_par::set_threads(None);
    assert_all_resolved(&resolved, &svc, 8);
    let ok = resolved.iter().filter(|r| matches!(r.outcome, Outcome::Prediction { .. })).count();
    let expired = resolved
        .iter()
        .filter(|r| r.outcome == Outcome::Timeout { stage: Stage::Queue })
        .count();
    assert_eq!(ok, 2, "the first wave fits the deadline exactly");
    assert_eq!(expired, 6, "everything queued behind it expires explicitly");
}
