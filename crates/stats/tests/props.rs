//! Property-based invariants for the statistics substrate.

use bf_stats::describe::{mean, quantile};
use bf_stats::normalize::{downsample_mean, max_normalize, zscore};
use bf_stats::rng::{combine_seeds, hash64};
use bf_stats::series::partition_point_from;
use bf_stats::{pearson, Histogram, NormalSlot, NormalSlots, SeedRng, StepSeries};
use proptest::prelude::*;

fn finite_vec(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1e6f64..1e6, len)
}

/// Change points with strictly increasing times.
fn points_strategy() -> impl Strategy<Value = Vec<(u64, f64)>> {
    proptest::collection::vec((1u64..1_000_000, -5.0f64..5.0), 0..50).prop_map(|mut points| {
        points.sort_by_key(|&(t, _)| t);
        points.dedup_by_key(|&mut (t, _)| t);
        points
    })
}

/// Linear-scan reference for `StepSeries::value_at`.
fn ref_value(points: &[(u64, f64)], initial: f64, t: u64) -> f64 {
    points.iter().rev().find(|p| p.0 <= t).map_or(initial, |p| p.1)
}

/// Linear-scan reference for `StepSeries::integrate`, summing in the same
/// order.
fn ref_integrate(points: &[(u64, f64)], initial: f64, a: u64, b: u64) -> f64 {
    if a == b {
        return 0.0;
    }
    let mut acc = 0.0;
    let mut t = a;
    let mut v = ref_value(points, initial, a);
    for &(pt, pv) in points.iter().filter(|p| a < p.0 && p.0 < b) {
        acc += v * (pt - t) as f64;
        t = pt;
        v = pv;
    }
    acc + v * (b - t) as f64
}

proptest! {
    #[test]
    fn quantile_stays_within_range(xs in finite_vec(1..100), q in 0.0f64..=1.0) {
        let v = quantile(&xs, q).unwrap();
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= min - 1e-9 && v <= max + 1e-9);
    }

    #[test]
    fn quantile_is_monotone_in_q(xs in finite_vec(1..60), a in 0.0f64..=1.0, b in 0.0f64..=1.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(quantile(&xs, lo).unwrap() <= quantile(&xs, hi).unwrap() + 1e-9);
    }

    #[test]
    fn pearson_bounded(xs in finite_vec(2..80), ys in finite_vec(2..80)) {
        let n = xs.len().min(ys.len());
        if let Ok(r) = pearson(&xs[..n], &ys[..n]) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r), "r = {r}");
        }
    }

    #[test]
    fn pearson_self_correlation_is_one(xs in finite_vec(2..80)) {
        if let Ok(r) = pearson(&xs, &xs) {
            prop_assert!((r - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn histogram_conserves_count(xs in finite_vec(0..300), bins in 1usize..40) {
        let mut h = Histogram::new(-10.0, 10.0, bins).unwrap();
        h.record_all(xs.iter().copied());
        let in_range: u64 = h.counts().iter().sum();
        prop_assert_eq!(h.total(), xs.len() as u64);
        prop_assert_eq!(in_range + h.underflow() + h.overflow(), h.total());
    }

    #[test]
    fn zscore_empirical_moments(xs in finite_vec(2..100)) {
        let z = zscore(&xs).unwrap();
        let m = mean(&z).unwrap();
        prop_assert!(m.abs() < 1e-6, "mean = {m}");
    }

    #[test]
    fn max_normalize_peak_is_one(xs in proptest::collection::vec(1e-3f64..1e6, 1..100)) {
        let v = max_normalize(&xs).unwrap();
        let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!((max - 1.0).abs() < 1e-12);
        prop_assert!(v.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn downsample_conserves_mass(xs in finite_vec(1..200), factor in 1usize..20) {
        let d = downsample_mean(&xs, factor).unwrap();
        // Each chunk mean times its chunk length sums to the total.
        let mut mass = 0.0;
        for (i, chunk) in xs.chunks(factor).enumerate() {
            mass += d[i] * chunk.len() as f64;
        }
        let total: f64 = xs.iter().sum();
        prop_assert!((mass - total).abs() < 1e-6 * (1.0 + total.abs()));
    }

    #[test]
    fn step_series_integral_is_additive(
        points in points_strategy(),
        a in 0u64..1_000_000,
        b in 0u64..1_000_000,
        c in 0u64..1_000_000,
    ) {
        let s = StepSeries::from_points(1.0, points).unwrap();
        let mut ts = [a, b, c];
        ts.sort_unstable();
        let [a, b, c] = ts;
        let whole = s.integrate(a, c);
        let split = s.integrate(a, b) + s.integrate(b, c);
        prop_assert!((whole - split).abs() < 1e-6 * (1.0 + whole.abs()));
    }

    /// One cursor answering a mostly-forward query sequence, with
    /// occasional backward jumps, agrees bit for bit with a linear scan.
    #[test]
    fn step_cursor_matches_linear_scan(
        points in points_strategy(),
        initial in -5.0f64..5.0,
        queries in proptest::collection::vec(
            (0u8..3, 0u8..8, 0u64..1_100_000, 0u64..30_000, 0u64..60_000),
            1..80,
        ),
    ) {
        let s = StepSeries::from_points(initial, points.clone()).unwrap();
        let mut cursor = s.cursor();
        let mut t = 0u64;
        for (kind, jump, anywhere, step, len) in queries {
            t = if jump == 0 { anywhere } else { t + step };
            match kind {
                0 => prop_assert_eq!(
                    cursor.value_at(t).to_bits(),
                    ref_value(&points, initial, t).to_bits()
                ),
                1 => {
                    prop_assert_eq!(
                        cursor.integrate(t, t + len).to_bits(),
                        ref_integrate(&points, initial, t, t + len).to_bits()
                    );
                    t += len;
                }
                _ => prop_assert_eq!(
                    cursor.next_change_after(t),
                    points.iter().map(|p| p.0).find(|&pt| pt > t)
                ),
            }
        }
    }

    /// A hinted search finds `partition_point`'s answer from any hint.
    #[test]
    fn partition_point_from_ignores_its_hint(
        mut xs in proptest::collection::vec(0u32..1_000, 0..40),
        hint in 0usize..=40,
        bound in 0u32..1_100,
    ) {
        xs.sort_unstable();
        let hint = hint.min(xs.len());
        prop_assert_eq!(
            partition_point_from(&xs, hint, |&x| x < bound),
            xs.partition_point(|&x| x < bound)
        );
    }

    #[test]
    fn rng_uniform_range_respects_bounds(seed in 0u64.., lo in -100.0f64..100.0, span in 0.0f64..50.0) {
        let mut r = SeedRng::new(seed);
        for _ in 0..50 {
            let v = r.uniform_range(lo, lo + span);
            prop_assert!(v >= lo && v <= lo + span);
        }
    }

    #[test]
    fn hash_and_combine_are_deterministic(data in proptest::collection::vec(any::<u8>(), 0..64), a in 0u64.., b in 0u64..) {
        prop_assert_eq!(hash64(&data), hash64(&data));
        prop_assert_eq!(combine_seeds(a, b), combine_seeds(a, b));
    }

    #[test]
    fn fork_streams_are_reproducible(seed in 0u64.., stream in 0u64..) {
        let parent = SeedRng::new(seed);
        let mut a = parent.fork(stream);
        let mut b = parent.fork(stream);
        for _ in 0..10 {
            prop_assert_eq!(a.next_raw(), b.next_raw());
        }
    }

    /// Slot `i` of a `NormalSlots` stream evaluates to the `i`-th
    /// `standard_normal()` draw of the same generator bit for bit, in
    /// whatever order (or subset) the slots are evaluated, and both
    /// streams stay in step afterwards.
    #[test]
    fn normal_slots_replay_standard_normal(
        seed in any::<u64>(),
        n in 0usize..300,
        keep in proptest::collection::vec(any::<bool>(), 300),
    ) {
        let mut direct = SeedRng::new(seed);
        let mut slots = NormalSlots::new(SeedRng::new(seed));
        let drawn: Vec<NormalSlot> = (0..n).map(|_| slots.next_slot()).collect();
        let want: Vec<f64> = (0..n).map(|_| direct.standard_normal()).collect();
        for (i, (slot, want)) in drawn.iter().zip(&want).enumerate().rev() {
            if keep[i] {
                prop_assert_eq!(slot.value().to_bits(), want.to_bits(), "draw {}", i);
            }
        }
        for _ in 0..3 {
            prop_assert_eq!(slots.next_slot().value().to_bits(), direct.standard_normal().to_bits());
        }
    }
}
