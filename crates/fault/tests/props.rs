//! Property-based invariants for fault plans, validation, and
//! checkpoint round-tripping.

use bf_fault::checkpoint::{CvCheckpoint, FoldRecord};
use bf_fault::validate::{clamp_values, TraceValidator};
use bf_fault::{BackoffPolicy, FaultPlan};
use proptest::prelude::*;
use std::sync::Mutex;

/// The `BF_FAULT_PLAN` keys whose value is a rate in `[0, 1]`.
const RATE_KEYS: [&str; 7] =
    ["corrupt", "truncate", "nan", "drop", "transient", "slow_model", "worker_panic"];

/// The field a [`RATE_KEYS`] entry sets.
fn rate_field(plan: &mut FaultPlan, key: usize) -> &mut f64 {
    match key {
        0 => &mut plan.corrupt,
        1 => &mut plan.truncate,
        2 => &mut plan.nan,
        3 => &mut plan.drop,
        4 => &mut plan.transient,
        5 => &mut plan.slow_model,
        _ => &mut plan.worker_panic,
    }
}

/// What one comma-separated part of a plan spec should do.
#[derive(Debug, Clone)]
enum Effect {
    /// Nothing: an empty part, or one the parser must reject and report.
    Ignored,
    Rate(usize, f64),
    Seed(u64),
    MaxTransient(u32),
    InterruptFolds(usize),
}

/// One part of a plan spec with the effect it should have: a valid
/// value for a key, an out-of-range or unparsable value, an unknown key
/// (keys are case-sensitive), a part with no `=`, or an empty part.
/// `kind` picks the shape; `bits`, `rate` and `pick` fill it in.
fn plan_part((kind, bits, rate, pick): (u8, u64, f64, usize)) -> (String, Effect) {
    let key = RATE_KEYS[pick % RATE_KEYS.len()];
    let choose = |values: &[&str]| values[pick % values.len()].to_owned();
    match kind {
        0 => (format!("{key}={rate}"), Effect::Rate(pick % RATE_KEYS.len(), rate)),
        1 => (format!("{key} = 1.{}", 1 + bits % 999), Effect::Ignored),
        2 => (format!("{key}=-0.{}", 1 + bits % 999), Effect::Ignored),
        3 => {
            let value = choose(&["nan", "inf", "-inf", "half", ""]);
            (format!("{key}={value}"), Effect::Ignored)
        }
        4 => (format!("seed={bits}"), Effect::Seed(bits)),
        5 => {
            let value = choose(&["-1", "1.5", "0x2a", "18446744073709551616"]);
            (format!("seed={value}"), Effect::Ignored)
        }
        6 => (format!(" max_transient={}", bits as u32), Effect::MaxTransient(bits as u32)),
        7 => {
            let value = choose(&["-1", "4294967296", "two"]);
            (format!("max_transient={value}"), Effect::Ignored)
        }
        8 => {
            let folds = (bits % 1000) as usize;
            (format!("interrupt_folds={folds}"), Effect::InterruptFolds(folds))
        }
        9 => {
            let value = choose(&["-1", "1.5", "once"]);
            (format!("interrupt_folds={value}"), Effect::Ignored)
        }
        10 => (choose(&["bogus=1", "Corrupt=0.1", "SEED=7", "rate=0.5", "=0.5"]), Effect::Ignored),
        _ => (choose(&["whatever", "corrupt", "", "  "]), Effect::Ignored),
    }
}

/// The parser reports rejected parts through the process-wide event
/// sink, which the grammar tests capture one at a time.
static EVENTS: Mutex<()> = Mutex::new(());

/// Parse `spec` with its reports captured: the plan and the report lines.
fn parse_captured(spec: &str) -> (FaultPlan, Vec<String>) {
    let _lock = EVENTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    bf_obs::begin_capture();
    let plan = FaultPlan::parse(spec);
    (plan, bf_obs::end_capture())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fault decisions are pure functions of (plan seed, trace id).
    #[test]
    fn plan_decisions_deterministic(seed in 0u64..1_000_000, id in 0u64..1_000_000) {
        let plan = FaultPlan { seed, ..FaultPlan::default_plan() };
        prop_assert_eq!(plan.fault_for(id), plan.fault_for(id));
        prop_assert_eq!(plan.transient_failures(id), plan.transient_failures(id));
    }

    /// The backoff schedule is a pure function of
    /// `(plan seed, trace id, attempt)` — replayed chaos waits exactly as
    /// long as the original run — and is bounded by the documented
    /// jitter band around the capped exponential.
    #[test]
    fn backoff_schedule_is_pure_and_bounded(
        plan_seed in 0u64..1_000_000,
        trace_id in 0u64..1_000_000,
        attempt in 0u32..16,
        base in 1u64..200,
        max in 1u64..2_000,
        jitter in 0.0f64..1.0,
    ) {
        let p = BackoffPolicy { base_units: base, max_units: max, jitter };
        let d = p.delay_units(plan_seed, trace_id, attempt);
        // Purity: recomputing (fresh RNG, any call order) is identical.
        prop_assert_eq!(d, p.delay_units(plan_seed, trace_id, attempt));
        let _ = p.delay_units(plan_seed ^ 1, trace_id, attempt); // interleave another stream
        prop_assert_eq!(d, p.delay_units(plan_seed, trace_id, attempt));
        // Bounds: at least the capped exponential, at most its jitter band.
        let exp = base.saturating_mul(1u64.checked_shl(attempt.min(63)).unwrap_or(u64::MAX)).min(max);
        prop_assert!(d >= exp);
        prop_assert!((d as f64) <= exp as f64 * (1.0 + jitter) + 1.0);
    }

    /// Aggregate wait of an exhausted retry budget equals the sum of the
    /// per-attempt schedule (the service charges them one checkpoint at a
    /// time; the quarantine report charges the total).
    #[test]
    fn backoff_totals_match_per_attempt_sums(
        plan_seed in 0u64..100_000,
        trace_id in 0u64..100_000,
        attempts in 0u32..8,
    ) {
        let p = BackoffPolicy::default();
        let total: u64 = (0..attempts).map(|a| p.delay_units(plan_seed, trace_id, a)).sum();
        prop_assert_eq!(total, p.total_units(plan_seed, trace_id, attempts));
    }

    /// Whatever fault is injected, clamping afterwards always yields a
    /// finite, in-range trace (possibly empty).
    #[test]
    fn clamp_always_restores_finiteness(seed in 0u64..100_000, id in 0u64..10_000) {
        let plan = FaultPlan {
            seed,
            corrupt: 0.4,
            truncate: 0.3,
            nan: 0.2,
            drop: 0.1,
            ..FaultPlan::off()
        };
        let mut values: Vec<f64> = (0..500).map(|i| (i % 37) as f64).collect();
        if let Some(kind) = plan.fault_for(id) {
            plan.apply(kind, &mut values, id);
        }
        clamp_values(&mut values, 1e9);
        prop_assert!(values.iter().all(|v| v.is_finite() && v.abs() <= 1e9));
    }

    /// A validated-clean trace is exactly what went in: validation never
    /// mutates, and clean traces never trip any check.
    #[test]
    fn clean_traces_always_pass(len in 50usize..400, scale in 1.0f64..10_000.0) {
        let values: Vec<f64> = (0..len).map(|i| (i as f64).sin().abs() * scale).collect();
        let v = TraceValidator::with_expected_len(len);
        prop_assert_eq!(v.validate(&values), Ok(()));
    }

    /// Checkpoint text serialization round-trips bit-exactly for
    /// arbitrary float payloads, including worst-case decimals.
    #[test]
    fn checkpoint_roundtrip_bit_exact(
        acc_bits in proptest::collection::vec(0u64..u64::MAX, 1..5),
        proba_bits in proptest::collection::vec(0u32..u32::MAX, 0..40),
    ) {
        let k = acc_bits.len();
        let mut ckpt = CvCheckpoint::new(0xABCD, k);
        for (fold, &bits) in acc_bits.iter().enumerate() {
            let probas: Vec<Vec<f32>> = proba_bits
                .chunks(4)
                .map(|c| c.iter().map(|&b| f32::from_bits(b)).collect())
                .collect();
            let test_idx: Vec<usize> = (0..probas.len()).collect();
            ckpt.record(FoldRecord {
                fold,
                accuracy: f64::from_bits(bits),
                top5: f64::from_bits(bits.rotate_left(17)),
                test_idx,
                probas,
                net_path: if fold % 2 == 0 { Some(format!("n{fold}.net")) } else { None },
            });
        }
        let back = CvCheckpoint::from_text(&ckpt.to_text()).expect("roundtrip");
        for fold in 0..k {
            let (a, b) = (ckpt.get(fold).unwrap(), back.get(fold).unwrap());
            prop_assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits());
            prop_assert_eq!(a.top5.to_bits(), b.top5.to_bits());
            prop_assert_eq!(&a.test_idx, &b.test_idx);
            prop_assert_eq!(a.probas.len(), b.probas.len());
            for (ra, rb) in a.probas.iter().zip(&b.probas) {
                let ba: Vec<u32> = ra.iter().map(|v| v.to_bits()).collect();
                let bb: Vec<u32> = rb.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(ba, bb);
            }
            prop_assert_eq!(&a.net_path, &b.net_path);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// No spec makes the parser panic, and no spec sets a rate outside
    /// `[0, 1]`.
    #[test]
    fn any_plan_spec_parses_to_rates_in_range(
        (grammar_like, chars, ascii) in (
            any::<bool>(),
            proptest::collection::vec(0u32..0x11_0000, 0..48),
            "[a-z_=,. 0-9-]{0,48}",
        ),
    ) {
        // Any Unicode scalar values (surrogates become U+FFFD), or text
        // over the grammar's own alphabet.
        let spec: String = if grammar_like {
            ascii
        } else {
            chars.into_iter().map(|c| char::from_u32(c).unwrap_or('\u{FFFD}')).collect()
        };
        let (plan, _) = parse_captured(&spec);
        for rate in [
            plan.corrupt,
            plan.truncate,
            plan.nan,
            plan.drop,
            plan.transient,
            plan.slow_model,
            plan.worker_panic,
        ] {
            prop_assert!((0.0..=1.0).contains(&rate), "rate {rate} from {spec:?}");
        }
    }

    /// Each field of a parsed `key=value` list holds the last valid
    /// entry for its key, or the off plan's value when there is none,
    /// and every rejected part is reported once.
    #[test]
    fn plan_fields_hold_the_last_valid_entry(
        draws in proptest::collection::vec(
            (0u8..12, any::<u64>(), 0.0f64..=1.0, 0usize..60),
            0..12,
        ),
    ) {
        let parts: Vec<(String, Effect)> = draws.into_iter().map(plan_part).collect();
        let spec = parts.iter().map(|(text, _)| text.as_str()).collect::<Vec<_>>().join(",");
        let mut expected = FaultPlan::off();
        for (_, effect) in &parts {
            match *effect {
                Effect::Ignored => {}
                Effect::Rate(key, v) => *rate_field(&mut expected, key) = v,
                Effect::Seed(v) => expected.seed = v,
                Effect::MaxTransient(v) => expected.max_transient = v,
                Effect::InterruptFolds(v) => expected.interrupt_folds = Some(v),
            }
        }
        let (plan, reports) = parse_captured(&spec);
        prop_assert_eq!(&plan, &expected, "spec {:?}", spec);
        if bf_obs::enabled(bf_obs::Level::Error) {
            let rejected = parts
                .iter()
                .filter(|(text, effect)| {
                    matches!(effect, Effect::Ignored) && !text.trim().is_empty()
                })
                .count();
            prop_assert_eq!(reports.len(), rejected, "spec {:?}: {:?}", spec, reports);
        }
    }
}
