//! Golden fingerprints of the collection repair loop.
//!
//! Batch collection (`collect_trace_resilient`, reached through
//! `collect_closed_world` / `collect_open_world`) and deadline collection
//! (`collect_trace_deadline`) share one validate → clamp / re-collect /
//! quarantine loop. These fixed-seed goldens were recorded when the two
//! paths still had separate loops; any change to the loop that moves a
//! trace value, a `fault.*` / `serve.*` counter, a budget charge or an
//! exported span fails here.
//!
//! Run alone via `cargo test -p bf-core --test collect_golden`.

use bf_core::collect::{AttackKind, CollectionConfig};
use bf_core::scale::ExperimentScale;
use bf_fault::{BackoffPolicy, CancelToken, FaultPlan};
use bf_ml::Dataset;
use bf_obs::metrics::{snapshot_delta, MetricValue};
use bf_obs::trace;
use bf_timer::BrowserKind;
use bf_victim::Catalog;

/// Tracing state, the trace sink and the global counters are
/// process-wide; the goldens take turns.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// FNV-1a 64 over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn dataset_hash(d: &Dataset) -> u64 {
    let mut bytes = Vec::new();
    for (row, &label) in d.features().iter().zip(d.labels()) {
        bytes.extend((label as u64).to_le_bytes());
        bytes.extend((row.len() as u64).to_le_bytes());
        bytes.extend(row.iter().flat_map(|v| v.to_bits().to_le_bytes()));
    }
    fnv1a(bytes)
}

fn values_hash(values: &[f64]) -> u64 {
    fnv1a(values.iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

fn cfg(plan: FaultPlan) -> CollectionConfig {
    CollectionConfig::new(BrowserKind::Chrome, AttackKind::LoopCounting)
        .with_scale(ExperimentScale::Smoke)
        .with_faults(plan)
}

/// Every repair action fires under this plan: NaN spikes are clamped,
/// drops and truncations are re-collected and (when every attempt is
/// hit) quarantined, and transient failures precede some attempts.
fn batch_plan() -> FaultPlan {
    FaultPlan {
        seed: 13,
        truncate: 0.25,
        nan: 0.2,
        drop: 0.35,
        transient: 0.5,
        max_transient: 2,
        ..FaultPlan::off()
    }
}

/// Run `work` and return its result with the non-zero `fault.*` /
/// `serve.*` counter deltas it caused, one `name=delta` line each, in
/// name order.
fn counter_deltas<R>(work: impl FnOnce() -> R) -> (R, String) {
    let before = bf_obs::metrics::global().snapshot();
    let out = work();
    let after = bf_obs::metrics::global().snapshot();
    let deltas = snapshot_delta(&after, &before)
        .into_iter()
        .filter(|(name, _)| name.starts_with("fault.") || name.starts_with("serve."))
        .filter_map(|(name, v)| match v {
            MetricValue::Counter(n) if n > 0 => Some(format!("{name}={n}\n")),
            _ => None,
        })
        .collect();
    (out, deltas)
}

/// Run `work` with tracing fully on and return its result with the
/// rendered timeline's FNV-1a.
fn timeline_of<R>(work: impl FnOnce() -> R) -> (R, u64) {
    trace::set_enabled(true);
    trace::set_sample(1);
    trace::drain();
    let out = work();
    let records = trace::drain();
    trace::set_enabled(false);
    assert!(!records.is_empty(), "a traced run must leave span records");
    (out, fnv1a(bf_obs::export::render(records, false).bytes()))
}

const GOLDEN_CLOSED_DATASET: u64 = 0x72fa8a9d55727ec9;
const GOLDEN_OPEN_DATASET: u64 = 0x951519e16464ab4f;
const GOLDEN_BATCH_TIMELINE: u64 = 0x06a0ce98370c19ba;
/// The batch path retries immediately: no `serve.backoff_waits`.
const GOLDEN_BATCH_COUNTERS: &str = "\
fault.clamped=8
fault.injected.drop=14
fault.injected.nan=8
fault.injected.truncate=10
fault.quarantined=2
fault.retries=22
fault.transient_failures=8
fault.violations.empty=14
fault.violations.non_finite=8
fault.violations.wrong_length=10
";

#[test]
fn batch_path_matches_its_goldens() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let c = cfg(batch_plan());
    let ((closed, open), counters) = counter_deltas(|| {
        (c.collect_closed_world(3, 4, 2024), c.collect_open_world(2, 2, 4, 2025))
    });
    for key in ["fault.clamped", "fault.retries", "fault.quarantined", "fault.transient_failures"]
    {
        assert!(counters.contains(key), "plan must exercise `{key}`:\n{counters}");
    }
    let (traced, timeline) = timeline_of(|| c.collect_closed_world(3, 4, 2024));
    assert_eq!(traced, closed, "tracing must not move the dataset");
    let got = (dataset_hash(&closed), dataset_hash(&open), timeline);
    assert_eq!(
        (got, counters.as_str()),
        (
            (GOLDEN_CLOSED_DATASET, GOLDEN_OPEN_DATASET, GOLDEN_BATCH_TIMELINE),
            GOLDEN_BATCH_COUNTERS
        ),
        "batch goldens moved: (closed, open, timeline) = {got:#018x?}"
    );
}

/// Deadline requests: `(seed, budget)`. The tight budgets cancel some
/// requests part-way through their backoff schedule.
const DEADLINE_CASES: [(u64, u64); 8] = [
    (1, 5_000),
    (2, 5_000),
    (3, 5_000),
    (4, 5_000),
    (5, 5_000),
    (6, 5_000),
    (7, 90),
    (8, 150),
];

/// `(token.used(), outcome)` per deadline case, where outcome is the
/// FNV-1a of the trace values, 1 for quarantine, or 2 for a deadline.
const GOLDEN_DEADLINE: [(u64, u64); 8] = [
    (101, 0x5c252096e29046bc),
    (197, 1),
    (482, 1),
    (300, 1),
    (266, 0xdada70f27c794958),
    (229, 0xb95e85483fbc4a8a),
    (68, 0x3727dad4b3f3eff9),
    (213, 2),
];
const GOLDEN_DEADLINE_TIMELINE: u64 = 0xd2fa875c15c5d05e;
const GOLDEN_DEADLINE_COUNTERS: &str = "\
fault.clamped=2
fault.injected.drop=8
fault.injected.nan=2
fault.injected.truncate=6
fault.quarantined=3
fault.retries=11
fault.transient_failures=9
fault.violations.empty=8
fault.violations.non_finite=2
fault.violations.wrong_length=6
serve.backoff_waits=20
";

#[test]
fn deadline_path_matches_its_goldens() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let c = cfg(FaultPlan { seed: 29, ..batch_plan() });
    let sites = Catalog::closed_world_subset(3).sites().to_vec();
    let backoff = BackoffPolicy { base_units: 20, max_units: 160, jitter: 0.5 };
    let run = |traced: bool| {
        DEADLINE_CASES
            .iter()
            .map(|&(seed, budget)| {
                let _trace = trace::adopt(traced.then(|| bf_obs::TraceCtx::root(seed, 0)), 0);
                let token = CancelToken::new(budget);
                let site = &sites[seed as usize % sites.len()];
                let outcome = match c.collect_trace_deadline(site, seed, &token, &backoff, 40) {
                    Ok(Some(t)) => values_hash(t.values()),
                    Ok(None) => 1,
                    Err(_) => 2,
                };
                (token.used(), outcome)
            })
            .collect::<Vec<_>>()
    };
    let (got, counters) = counter_deltas(|| run(false));
    let (traced, timeline) = timeline_of(|| run(true));
    assert_eq!(traced, got, "tracing must not move outcomes");
    assert!(counters.contains("serve.backoff_waits"), "plan must back off:\n{counters}");
    assert_eq!(
        (got.as_slice(), timeline, counters.as_str()),
        (GOLDEN_DEADLINE.as_slice(), GOLDEN_DEADLINE_TIMELINE, GOLDEN_DEADLINE_COUNTERS),
        "deadline goldens moved: timeline = {timeline:#018x}, cases = {got:#x?}"
    );
}
