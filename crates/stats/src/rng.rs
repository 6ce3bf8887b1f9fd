//! Deterministic random-number machinery.
//!
//! Reproducibility is a first-class requirement: every website profile,
//! every run, and every interrupt arrival in this repo is derived from
//! explicit 64-bit seeds so experiments replay bit-for-bit. [`SeedRng`] is a
//! small, fast xoshiro256++ generator with the distribution samplers the
//! simulator needs (normal, log-normal, exponential, Poisson, Pareto).

/// SplitMix64 step, used for seed expansion and as a stable string/stream
/// hash combiner.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stable 64-bit FNV-1a hash of a byte string. Website profiles are seeded
/// with `hash64(hostname)` so "nytimes.com" always produces the same
/// fingerprint.
pub fn hash64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Combine two seeds into a new independent seed (order-sensitive).
pub fn combine_seeds(a: u64, b: u64) -> u64 {
    let mut s = a ^ b.rotate_left(32) ^ 0x9E37_79B9_7F4A_7C15;
    splitmix64(&mut s)
}

/// Deterministic xoshiro256++ PRNG with distribution samplers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedRng {
    s: [u64; 4],
    /// Cached second output of the Box–Muller transform.
    gauss_spare: Option<u64>,
}

impl SeedRng {
    /// Create a generator from a 64-bit seed (expanded via SplitMix64).
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SeedRng { s, gauss_spare: None }
    }

    /// Derive an independent child generator labeled by `stream`; children
    /// with different labels produce uncorrelated streams.
    pub fn fork(&self, stream: u64) -> Self {
        SeedRng::new(combine_seeds(self.s[0] ^ self.s[3], stream))
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_raw(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform f64 in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform f64 in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics when `lo > hi`.
    #[inline]
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "uniform_range needs lo <= hi");
        lo + self.uniform() * (hi - lo)
    }

    /// Uniform integer in `[lo, hi)` via Lemire-style rejection-free scaling.
    ///
    /// # Panics
    ///
    /// Panics when `lo >= hi`.
    #[inline]
    pub fn int_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "int_range needs lo < hi");
        let span = hi - lo;
        lo + (((self.next_raw() as u128 * span as u128) >> 64) as u64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// Standard normal draw (Box–Muller with spare caching).
    #[inline]
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(bits) = self.gauss_spare.take() {
            return f64::from_bits(bits);
        }
        let (u1, u2) = self.box_muller_uniforms();
        let (r, theta) = box_muller_polar(u1, u2);
        self.gauss_spare = Some((r * theta.sin()).to_bits());
        r * theta.cos()
    }

    /// The two uniforms one Box–Muller pair consumes, drawing until `u1`
    /// is safely non-zero.
    #[inline]
    fn box_muller_uniforms(&mut self) -> (f64, f64) {
        let mut u1 = self.uniform();
        while u1 <= f64::MIN_POSITIVE {
            u1 = self.uniform();
        }
        (u1, self.uniform())
    }

    /// Normal draw with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics when `std < 0`.
    #[inline]
    pub fn normal(&mut self, mean: f64, std: f64) -> f64 {
        assert!(std >= 0.0, "normal std must be non-negative");
        mean + std * self.standard_normal()
    }

    /// Log-normal draw parameterized by the *underlying* normal's mu/sigma.
    /// Interrupt handler times in the simulator are log-normal (Fig. 6's
    /// long right tails).
    #[inline]
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Exponential draw with the given mean (inter-arrival times of
    /// Poisson interrupt processes).
    ///
    /// # Panics
    ///
    /// Panics when `mean <= 0`.
    #[inline]
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        let mut u = self.uniform();
        while u <= f64::MIN_POSITIVE {
            u = self.uniform();
        }
        -mean * u.ln()
    }

    /// Poisson draw (Knuth's algorithm for small lambda, normal
    /// approximation above 30).
    ///
    /// # Panics
    ///
    /// Panics when `lambda < 0`.
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        assert!(lambda >= 0.0, "poisson lambda must be non-negative");
        if lambda == 0.0 {
            return 0;
        }
        if lambda > 30.0 {
            let x = self.normal(lambda, lambda.sqrt());
            return x.max(0.0).round() as u64;
        }
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.uniform();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }

    /// Pareto draw with scale `xm` and shape `alpha` — heavy-tailed burst
    /// sizes in the website workload generator.
    ///
    /// # Panics
    ///
    /// Panics when `xm <= 0` or `alpha <= 0`.
    pub fn pareto(&mut self, xm: f64, alpha: f64) -> f64 {
        assert!(xm > 0.0 && alpha > 0.0, "pareto parameters must be positive");
        let mut u = self.uniform();
        while u <= f64::MIN_POSITIVE {
            u = self.uniform();
        }
        xm / u.powf(1.0 / alpha)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.int_range(0, (i + 1) as u64) as usize;
            xs.swap(i, j);
        }
    }

    /// Choose one element uniformly, or `None` for an empty slice.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> Option<&'a T> {
        if xs.is_empty() {
            None
        } else {
            Some(&xs[self.int_range(0, xs.len() as u64) as usize])
        }
    }
}

/// Box–Muller radius and angle for one uniform pair.
#[inline]
fn box_muller_polar(u1: f64, u2: f64) -> (f64, f64) {
    ((-2.0 * u1.ln()).sqrt(), 2.0 * std::f64::consts::PI * u2)
}

/// One [`SeedRng::standard_normal`] draw, captured before its
/// transcendental math runs: the Box–Muller uniform pair and which half
/// of the pair (cosine or sine) the draw is.
///
/// Drawing a slot costs only the uniforms; [`NormalSlot::value`] pays for
/// the logarithm, square root and cosine/sine when — and if — the value
/// is needed. A consumer that needs only some draws of a stream can skip
/// the rest and still advance the generator exactly as
/// `standard_normal` would.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormalSlot {
    u1: f64,
    u2: f64,
    sin: bool,
}

impl NormalSlot {
    /// The draw's value, bit-identical to what `standard_normal` returns
    /// at the same position of the same stream.
    #[inline]
    pub fn value(self) -> f64 {
        let (r, theta) = box_muller_polar(self.u1, self.u2);
        if self.sin {
            r * theta.sin()
        } else {
            r * theta.cos()
        }
    }
}

/// A generator's stream of [`SeedRng::standard_normal`] draws as
/// [`NormalSlot`]s.
///
/// The `n`-th slot's value is bit-identical to the `n`-th
/// `standard_normal()` draw of the wrapped generator, and both consume the
/// same uniforms in the same order (including the `u1 <= MIN_POSITIVE`
/// rejection loop): each pair of slots shares one uniform pair, cosine
/// half first.
#[derive(Debug, Clone)]
pub struct NormalSlots {
    rng: SeedRng,
    /// The sine half of the last pair, not yet handed out.
    spare: Option<(f64, f64)>,
}

impl NormalSlots {
    /// Wrap `rng`, whose next `standard_normal` draw becomes the first
    /// slot.
    ///
    /// # Panics
    ///
    /// Panics when `rng` holds a cached Box–Muller spare (an odd number
    /// of `standard_normal` draws so far), whose uniforms are gone. A
    /// generator fresh from [`SeedRng::new`] or [`SeedRng::fork`] never
    /// does.
    pub fn new(rng: SeedRng) -> Self {
        assert!(
            rng.gauss_spare.is_none(),
            "NormalSlots needs a generator without a cached normal spare"
        );
        NormalSlots { rng, spare: None }
    }

    /// The next draw's slot.
    #[inline]
    pub fn next_slot(&mut self) -> NormalSlot {
        if let Some((u1, u2)) = self.spare.take() {
            return NormalSlot { u1, u2, sin: true };
        }
        let (u1, u2) = self.rng.box_muller_uniforms();
        self.spare = Some((u1, u2));
        NormalSlot { u1, u2, sin: false }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SeedRng::new(42);
        let mut b = SeedRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_raw(), b.next_raw());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SeedRng::new(1);
        let mut b = SeedRng::new(2);
        let same = (0..64).filter(|_| a.next_raw() == b.next_raw()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forks_are_independent_of_parent_consumption() {
        let parent = SeedRng::new(7);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(1);
        assert_eq!(c1.next_raw(), c2.next_raw());
        let mut c3 = parent.fork(2);
        assert_ne!(c1.next_raw(), c3.next_raw());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = SeedRng::new(3);
        for _ in 0..10_000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_near_half() {
        let mut r = SeedRng::new(4);
        let mean: f64 = (0..50_000).map(|_| r.uniform()).sum::<f64>() / 50_000.0;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn int_range_covers_all_values() {
        let mut r = SeedRng::new(5);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            seen[r.int_range(0, 10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn int_range_respects_bounds() {
        let mut r = SeedRng::new(6);
        for _ in 0..1_000 {
            let v = r.int_range(5, 8);
            assert!((5..8).contains(&v));
        }
    }

    #[test]
    fn normal_moments() {
        let mut r = SeedRng::new(8);
        let xs: Vec<f64> = (0..50_000).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean = {mean}");
        assert!((var - 4.0).abs() < 0.15, "var = {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut r = SeedRng::new(9);
        let xs: Vec<f64> = (0..50_000).map(|_| r.exponential(3.0)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean = {mean}");
        assert!(xs.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn poisson_mean_small_lambda() {
        let mut r = SeedRng::new(10);
        let xs: Vec<f64> = (0..20_000).map(|_| r.poisson(4.0) as f64).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean = {mean}");
    }

    #[test]
    fn poisson_large_lambda_uses_normal_approx() {
        let mut r = SeedRng::new(11);
        let xs: Vec<f64> = (0..20_000).map(|_| r.poisson(100.0) as f64).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 100.0).abs() < 1.0, "mean = {mean}");
    }

    #[test]
    fn poisson_zero_lambda() {
        let mut r = SeedRng::new(12);
        assert_eq!(r.poisson(0.0), 0);
    }

    #[test]
    fn pareto_exceeds_scale() {
        let mut r = SeedRng::new(13);
        for _ in 0..1_000 {
            assert!(r.pareto(2.0, 1.5) >= 2.0);
        }
    }

    #[test]
    fn lognormal_positive() {
        let mut r = SeedRng::new(14);
        for _ in 0..1_000 {
            assert!(r.log_normal(0.0, 1.0) > 0.0);
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SeedRng::new(15);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn choose_empty_is_none() {
        let mut r = SeedRng::new(16);
        assert_eq!(r.choose::<u8>(&[]), None);
        assert_eq!(r.choose(&[42]), Some(&42));
    }

    #[test]
    fn hash64_stable_and_distinct() {
        assert_eq!(hash64(b"nytimes.com"), hash64(b"nytimes.com"));
        assert_ne!(hash64(b"nytimes.com"), hash64(b"amazon.com"));
        assert_ne!(hash64(b""), hash64(b"\0"));
    }

    #[test]
    fn normal_slots_replay_standard_normal_bit_for_bit() {
        let mut direct = SeedRng::new(19);
        let mut slots = NormalSlots::new(SeedRng::new(19));
        for _ in 0..1_001 {
            let want = direct.standard_normal();
            assert_eq!(slots.next_slot().value().to_bits(), want.to_bits());
        }
        // Both consumed the same uniforms, so the raw streams line up.
        direct.standard_normal(); // drop the pending spare
        slots.next_slot();
        assert_eq!(slots.rng.next_raw(), direct.next_raw());
    }

    #[test]
    #[should_panic(expected = "cached normal spare")]
    fn normal_slots_reject_a_pending_spare() {
        let mut rng = SeedRng::new(20);
        rng.standard_normal();
        NormalSlots::new(rng);
    }

    #[test]
    fn gauss_spare_keeps_stream_deterministic() {
        let mut a = SeedRng::new(18);
        let mut b = SeedRng::new(18);
        let xs: Vec<f64> = (0..9).map(|_| a.standard_normal()).collect();
        let ys: Vec<f64> = (0..9).map(|_| b.standard_normal()).collect();
        assert_eq!(xs, ys);
    }
}
