//! Property-based invariants for the fleet-load samplers (Zipf site
//! popularity, Poisson session arrivals): bit-determinism per seed,
//! rank-frequency monotonicity, and empirical-mean calibration.

use bf_stats::{SeedRng, Zipf};
use proptest::prelude::*;

proptest! {
    /// The full draw stream is a pure function of the seed.
    #[test]
    fn zipf_bit_deterministic_per_seed(
        seed in any::<u64>(),
        n in 1usize..200,
        s in 0.0f64..3.0,
    ) {
        let z = Zipf::new(n, s).unwrap();
        let draw = |seed: u64| -> Vec<usize> {
            let mut rng = SeedRng::new(seed);
            (0..128).map(|_| z.sample(&mut rng)).collect()
        };
        prop_assert_eq!(draw(seed), draw(seed));
    }

    /// Every draw lands inside the support.
    #[test]
    fn zipf_draws_in_support(seed in any::<u64>(), n in 1usize..100, s in 0.0f64..3.0) {
        let z = Zipf::new(n, s).unwrap();
        let mut rng = SeedRng::new(seed);
        for _ in 0..256 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    /// The probability mass function never increases with rank, for any
    /// exponent — the defining rank-frequency shape of a Zipf law.
    #[test]
    fn zipf_pmf_monotone_in_rank(n in 2usize..300, s in 0.0f64..4.0) {
        let z = Zipf::new(n, s).unwrap();
        let mut prev = f64::INFINITY;
        for k in 0..n {
            let p = z.pmf(k).unwrap();
            prop_assert!(p <= prev + 1e-15, "pmf rose at rank {k}: {p} > {prev}");
            prev = p;
        }
    }

    /// Empirical rank frequencies are monotone over the head of the
    /// distribution once the exponent is large enough to separate ranks
    /// clearly at this sample size.
    #[test]
    fn zipf_empirical_head_monotone(seed in any::<u64>(), s in 1.0f64..2.5) {
        let z = Zipf::new(20, s).unwrap();
        let mut rng = SeedRng::new(seed);
        let mut counts = [0u64; 20];
        for _ in 0..30_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for k in 0..3 {
            prop_assert!(
                counts[k] > counts[k + 1],
                "head rank {} ({}) not above rank {} ({}) at s={s}",
                k, counts[k], k + 1, counts[k + 1]
            );
        }
    }

    /// Poisson draws are a pure function of the seed.
    #[test]
    fn poisson_bit_deterministic_per_seed(seed in any::<u64>(), lambda in 0.1f64..60.0) {
        let draw = |seed: u64| -> Vec<u64> {
            let mut rng = SeedRng::new(seed);
            (0..128).map(|_| rng.poisson(lambda)).collect()
        };
        prop_assert_eq!(draw(seed), draw(seed));
    }

    /// Exponential inter-arrival gaps (the continuous dual of the Poisson
    /// process used for session arrivals) are seed-pure as well.
    #[test]
    fn exponential_bit_deterministic_per_seed(seed in any::<u64>(), mean in 0.1f64..1e4) {
        let draw = |seed: u64| -> Vec<u64> {
            let mut rng = SeedRng::new(seed);
            (0..128).map(|_| rng.exponential(mean).to_bits()).collect()
        };
        prop_assert_eq!(draw(seed), draw(seed));
    }
}

/// Poisson empirical mean within tolerance at fixed seeds — deterministic
/// spot checks rather than a proptest so the tolerance can be tight without
/// flaking: the draw stream is frozen by the seed.
#[test]
fn poisson_empirical_mean_within_tolerance_at_fixed_seeds() {
    for (seed, lambda) in [(42u64, 4.0f64), (7, 12.5), (1234, 30.0)] {
        let mut rng = SeedRng::new(seed);
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| rng.poisson(lambda)).sum();
        let mean = sum as f64 / n as f64;
        let tol = 3.0 * (lambda / n as f64).sqrt(); // 3 sigma of the sample mean
        assert!(
            (mean - lambda).abs() < tol,
            "seed {seed}: empirical mean {mean} vs lambda {lambda} (tol {tol})"
        );
    }
}

/// Zipf empirical head mass matches the analytic pmf at a fixed seed.
#[test]
fn zipf_empirical_mass_matches_pmf_at_fixed_seed() {
    let z = Zipf::new(100, 1.1).unwrap();
    let mut rng = SeedRng::new(42);
    let n = 50_000;
    let mut counts = vec![0u64; 100];
    for _ in 0..n {
        counts[z.sample(&mut rng)] += 1;
    }
    for (k, &count) in counts[..5].iter().enumerate() {
        let expected = z.pmf(k).unwrap();
        let observed = count as f64 / n as f64;
        assert!(
            (observed - expected).abs() < 0.01,
            "rank {k}: observed {observed} vs pmf {expected}"
        );
    }
}
