//! The four timer models compared in §6.1 / Fig. 7 / Fig. 8 / Table 4.

use crate::{Nanos, Timer};
use bf_stats::rng::{combine_seeds, splitmix64, SeedRng};

/// A perfect-resolution timer (the native attacker's `CLOCK_MONOTONIC`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PreciseTimer;

impl PreciseTimer {
    /// Create a precise timer.
    pub fn new() -> Self {
        PreciseTimer
    }
}

impl Timer for PreciseTimer {
    fn observe(&mut self, real: Nanos) -> Nanos {
        real
    }

    fn earliest_at_or_above(&mut self, from: Nanos, target: Nanos) -> Nanos {
        from.max(target)
    }

    fn resolution(&self) -> Nanos {
        Nanos::ZERO
    }

    fn name(&self) -> &'static str {
        "precise"
    }
}

/// A quantized timer: `T_secure = floor(T_real / Δ) · Δ`.
///
/// Tor Browser uses Δ = 100 ms; Firefox and Safari use Δ = 1 ms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantizedTimer {
    resolution: Nanos,
}

impl QuantizedTimer {
    /// Create a quantized timer with resolution `Δ`.
    ///
    /// # Panics
    ///
    /// Panics when `resolution` is zero.
    pub fn new(resolution: Nanos) -> Self {
        assert!(resolution > Nanos::ZERO, "quantized timer needs a positive resolution");
        QuantizedTimer { resolution }
    }
}

impl Timer for QuantizedTimer {
    fn observe(&mut self, real: Nanos) -> Nanos {
        real.floor_to(self.resolution)
    }

    fn earliest_at_or_above(&mut self, from: Nanos, target: Nanos) -> Nanos {
        // floor(t/Δ)·Δ >= target  ⇔  t >= ceil(target/Δ)·Δ
        from.max(target.ceil_to(self.resolution))
    }

    fn resolution(&self) -> Nanos {
        self.resolution
    }

    fn name(&self) -> &'static str {
        "quantized"
    }
}

/// Chrome's jittered timer: quantization plus a deterministic per-slot
/// perturbation ε ∈ {0, Δ}.
///
/// Chrome computes ε with a hash function (not a raw random draw) so the
/// clock stays monotonic. We reproduce that structure: each Δ-slot gets a
/// pseudo-random threshold `θ ∈ [0, Δ)` derived by hashing the slot index
/// with the seed; readings in the slot before θ return `q`, readings at or
/// after θ return `q + Δ`. Within a slot the output is non-decreasing, and
/// across slot boundaries it can only grow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JitteredTimer {
    resolution: Nanos,
    seed: u64,
}

impl JitteredTimer {
    /// Create a jittered timer with resolution `Δ` and a jitter seed.
    ///
    /// # Panics
    ///
    /// Panics when `resolution` is zero.
    pub fn new(resolution: Nanos, seed: u64) -> Self {
        assert!(resolution > Nanos::ZERO, "jittered timer needs a positive resolution");
        JitteredTimer { resolution, seed }
    }

    /// The jitter threshold for a quantization slot.
    fn slot_threshold(&self, slot: u64) -> Nanos {
        let mut h = combine_seeds(self.seed, slot);
        let r = splitmix64(&mut h);
        Nanos::from_nanos(r % self.resolution.as_nanos())
    }
}

impl Timer for JitteredTimer {
    fn observe(&mut self, real: Nanos) -> Nanos {
        let q = real.floor_to(self.resolution);
        let slot = real / self.resolution;
        let in_slot = real - q;
        if in_slot >= self.slot_threshold(slot) {
            q + self.resolution
        } else {
            q
        }
    }

    fn earliest_at_or_above(&mut self, from: Nanos, target: Nanos) -> Nanos {
        let delta = self.resolution;
        let mut slot = from / delta;
        // The answer is at most `target` slots ahead; this loop runs
        // O((target - from)/Δ + 2) times.
        loop {
            let q = delta * slot;
            let slot_end = q + delta;
            let lo = from.max(q);
            if q >= target {
                // Any reading in this slot observes >= q >= target.
                return lo;
            }
            if q + delta >= target {
                // Readings at/after the jitter threshold observe q + Δ.
                let cand = lo.max(q + self.slot_threshold(slot));
                if cand < slot_end {
                    return cand;
                }
            }
            slot += 1;
        }
    }

    fn resolution(&self) -> Nanos {
        self.resolution
    }

    fn name(&self) -> &'static str {
        "jittered"
    }
}

/// Parameters of the paper's randomized timer (§6.1).
///
/// Every Δ the defense draws integers α and β uniformly from
/// `[alpha_lo, alpha_hi]`. While the returned value trails real time by at
/// most α·Δ it is left unchanged; once the lag exceeds α·Δ the value jumps
/// by β·Δ; and if the lag somehow exceeds `threshold` the value snaps to
/// real time plus β·Δ. The paper's evaluation uses α, β ~ U\[5, 25\],
/// Δ = 1 ms, threshold = 100 ms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomizedTimerConfig {
    /// Update period Δ.
    pub delta: Nanos,
    /// Lower bound (inclusive) of the uniform integer draws for α and β.
    pub alpha_lo: u64,
    /// Upper bound (inclusive) of the uniform integer draws for α and β.
    pub alpha_hi: u64,
    /// Maximum allowed lag before the timer resynchronizes to real time.
    pub threshold: Nanos,
}

impl Default for RandomizedTimerConfig {
    fn default() -> Self {
        RandomizedTimerConfig {
            delta: Nanos::from_millis(1),
            alpha_lo: 5,
            alpha_hi: 25,
            threshold: Nanos::from_millis(100),
        }
    }
}

/// The paper's proposed randomized timer (§6.1): monotonic, with random
/// increments at random intervals. Drops the loop-counting attack from
/// 96.6 % to 1.0 % top-1 accuracy (Table 4).
#[derive(Debug, Clone)]
pub struct RandomizedTimer {
    config: RandomizedTimerConfig,
    rng: SeedRng,
    /// Index of the next Δ-epoch to process.
    next_epoch: u64,
    /// Current secure (returned) value.
    secure: Nanos,
}

impl RandomizedTimer {
    /// Create a randomized timer from a config and seed.
    ///
    /// # Panics
    ///
    /// Panics when Δ is zero or `alpha_lo > alpha_hi`.
    pub fn new(config: RandomizedTimerConfig, seed: u64) -> Self {
        assert!(config.delta > Nanos::ZERO, "randomized timer needs a positive delta");
        assert!(config.alpha_lo <= config.alpha_hi, "alpha_lo must be <= alpha_hi");
        assert!(config.alpha_hi >= 1, "alpha_hi must be >= 1 so the clock can advance");
        RandomizedTimer {
            config,
            rng: SeedRng::new(seed),
            next_epoch: 0,
            secure: Nanos::ZERO,
        }
    }

    /// Create with the paper's default parameters (Δ=1 ms, U\[5,25\],
    /// threshold=100 ms).
    pub fn with_defaults(seed: u64) -> Self {
        RandomizedTimer::new(RandomizedTimerConfig::default(), seed)
    }

    fn draw(&mut self) -> u64 {
        self.rng.int_range(self.config.alpha_lo, self.config.alpha_hi + 1)
    }

    /// Process the single next Δ-epoch update; returns its epoch time.
    fn step_epoch(&mut self) -> Nanos {
        let epoch_time = self.config.delta * self.next_epoch;
        let alpha = self.draw();
        let beta = self.draw();
        let lag = epoch_time.saturating_sub(self.secure);
        let alpha_window = self.config.delta * alpha;
        if lag < alpha_window {
            // within tolerance: unchanged
        } else if lag <= self.config.threshold {
            self.secure += self.config.delta * beta;
        } else {
            // resynchronize: snap toward real time (monotonically)
            self.secure = self.secure.max(epoch_time) + self.config.delta * beta;
        }
        self.next_epoch += 1;
        epoch_time
    }

    /// Run all Δ-epoch updates up to and including real time `real`.
    fn advance_epochs(&mut self, real: Nanos) {
        let target_epoch = real / self.config.delta;
        while self.next_epoch <= target_epoch {
            self.step_epoch();
        }
    }
}

impl Timer for RandomizedTimer {
    fn observe(&mut self, real: Nanos) -> Nanos {
        self.advance_epochs(real);
        self.secure
    }

    fn earliest_at_or_above(&mut self, from: Nanos, target: Nanos) -> Nanos {
        self.advance_epochs(from);
        if self.secure >= target {
            return from;
        }
        // The secure value only changes at Δ-epoch boundaries; step until
        // it crosses the target. Termination: once the lag exceeds the
        // threshold the timer resynchronizes past the epoch time, which
        // grows without bound.
        loop {
            let epoch_time = self.step_epoch();
            if self.secure >= target {
                return from.max(epoch_time);
            }
        }
    }

    fn resolution(&self) -> Nanos {
        self.config.delta
    }

    fn name(&self) -> &'static str {
        "randomized"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> Nanos {
        Nanos::from_millis(x)
    }

    #[test]
    fn precise_is_identity() {
        let mut t = PreciseTimer::new();
        assert_eq!(t.observe(Nanos(12_345)), Nanos(12_345));
        assert_eq!(t.resolution(), Nanos::ZERO);
    }

    #[test]
    fn quantized_floors() {
        let mut t = QuantizedTimer::new(ms(100));
        assert_eq!(t.observe(ms(0)), ms(0));
        assert_eq!(t.observe(ms(99)), ms(0));
        assert_eq!(t.observe(ms(100)), ms(100));
        assert_eq!(t.observe(ms(250)), ms(200));
    }

    #[test]
    #[should_panic(expected = "positive resolution")]
    fn quantized_rejects_zero_resolution() {
        QuantizedTimer::new(Nanos::ZERO);
    }

    #[test]
    fn jittered_within_two_delta_of_real() {
        // Paper: |T_secure - T_real| < 2Δ for Chrome's jitter.
        let delta = Nanos::from_millis_f64(0.1);
        let mut t = JitteredTimer::new(delta, 7);
        for i in 0..10_000u64 {
            let real = Nanos(i * 37_000); // 37 µs steps
            let obs = t.observe(real);
            let diff = if obs >= real { obs - real } else { real - obs };
            assert!(diff < delta * 2, "diff {diff} at {real}");
        }
    }

    #[test]
    fn jittered_is_monotonic() {
        let mut t = JitteredTimer::new(Nanos::from_micros(100), 99);
        let mut last = Nanos::ZERO;
        for i in 0..50_000u64 {
            let obs = t.observe(Nanos(i * 11_113));
            assert!(obs >= last, "non-monotonic at step {i}");
            last = obs;
        }
    }

    #[test]
    fn jittered_output_is_multiple_of_delta() {
        let delta = Nanos::from_micros(100);
        let mut t = JitteredTimer::new(delta, 3);
        for i in 0..1_000u64 {
            let obs = t.observe(Nanos(i * 53_101));
            assert_eq!(obs % delta, Nanos::ZERO);
        }
    }

    #[test]
    fn jittered_actually_jitters() {
        // Some readings must round up, some down, else it's just quantized.
        let delta = Nanos::from_micros(100);
        let mut t = JitteredTimer::new(delta, 5);
        let mut up = 0;
        let mut down = 0;
        for i in 0..1_000u64 {
            let real = Nanos(i * 97_003);
            let obs = t.observe(real);
            if obs > real {
                up += 1;
            } else {
                down += 1;
            }
        }
        assert!(up > 100, "up = {up}");
        assert!(down > 100, "down = {down}");
    }

    #[test]
    fn jittered_deterministic_per_seed() {
        let mut a = JitteredTimer::new(Nanos::from_micros(100), 11);
        let mut b = JitteredTimer::new(Nanos::from_micros(100), 11);
        for i in 0..1_000u64 {
            let real = Nanos(i * 71_111);
            assert_eq!(a.observe(real), b.observe(real));
        }
    }

    #[test]
    fn randomized_is_monotonic() {
        let mut t = RandomizedTimer::with_defaults(42);
        let mut last = Nanos::ZERO;
        for i in 0..200_000u64 {
            let obs = t.observe(Nanos(i * 10_007));
            assert!(obs >= last);
            last = obs;
        }
    }

    #[test]
    fn randomized_tracks_real_time_loosely() {
        // Over 10 s the secure clock must advance (it jumps by β·Δ when the
        // lag exceeds α·Δ) and stay within the threshold-governed envelope.
        let cfg = RandomizedTimerConfig::default();
        let mut t = RandomizedTimer::new(cfg, 1);
        let real = Nanos::from_secs(10);
        let obs = t.observe(real);
        assert!(obs > Nanos::from_secs(9), "obs = {obs}");
        // Can overshoot by at most threshold + beta_max*delta-ish.
        assert!(obs < real + ms(200), "obs = {obs}");
    }

    #[test]
    fn randomized_holds_value_between_jumps() {
        // Immediately consecutive readings inside one α-window are equal.
        let mut t = RandomizedTimer::with_defaults(3);
        let a = t.observe(Nanos::from_micros(100));
        let b = t.observe(Nanos::from_micros(200));
        assert_eq!(a, b);
    }

    #[test]
    fn randomized_jumps_are_delta_multiples() {
        let cfg = RandomizedTimerConfig::default();
        let delta = cfg.delta;
        let mut t = RandomizedTimer::new(cfg, 9);
        let mut last = t.observe(Nanos::ZERO);
        for i in 1..20_000u64 {
            let obs = t.observe(Nanos(i * 100_000));
            if obs != last {
                assert_eq!((obs - last) % delta, Nanos::ZERO);
            }
            last = obs;
        }
    }

    #[test]
    fn randomized_error_can_reach_tens_of_ms() {
        // Fig. 8c: a 5 ms attacker period can correspond to 0..100 ms of
        // real time — the lag must reach far beyond the 5 ms Chrome jitter.
        let mut t = RandomizedTimer::with_defaults(17);
        let mut max_lag = Nanos::ZERO;
        for i in 0..500_000u64 {
            let real = Nanos(i * 20_000); // 20 µs steps over 10 s
            let obs = t.observe(real);
            let lag = real.saturating_sub(obs);
            max_lag = max_lag.max(lag);
        }
        assert!(max_lag >= ms(5), "max lag only {max_lag}");
    }

    #[test]
    fn randomized_deterministic_per_seed() {
        let mut a = RandomizedTimer::with_defaults(5);
        let mut b = RandomizedTimer::with_defaults(5);
        for i in 0..10_000u64 {
            let real = Nanos(i * 123_457);
            assert_eq!(a.observe(real), b.observe(real));
        }
    }

    /// Check the inverse-query contract by brute force on a fine grid:
    /// observe(result) >= target and observe(t) < target for sampled
    /// t in [from, result).
    fn check_earliest<T: Timer + Clone>(timer: &T, from: Nanos, target: Nanos, grid: u64) {
        let result = timer.clone().earliest_at_or_above(from, target);
        assert!(result >= from, "result {result} < from {from}");
        let obs = timer.clone().observe(result);
        assert!(obs >= target, "observe(result)={obs} < target {target}");
        if result > from {
            let span = result - from;
            for i in 0..grid {
                let t = from + span * i / grid;
                if t < result {
                    let o = timer.clone().observe(t);
                    assert!(o < target, "observe({t})={o} >= target {target} before result {result}");
                }
            }
        }
    }

    #[test]
    fn earliest_precise() {
        let t = PreciseTimer::new();
        check_earliest(&t, Nanos(100), Nanos(500), 16);
        check_earliest(&t, Nanos(700), Nanos(500), 16);
    }

    #[test]
    fn earliest_quantized() {
        let t = QuantizedTimer::new(ms(100));
        check_earliest(&t, Nanos::ZERO, ms(5), 64);
        check_earliest(&t, ms(150), ms(250), 64);
        check_earliest(&t, ms(300), ms(300), 4);
        // already satisfied
        assert_eq!(t.clone().earliest_at_or_above(ms(500), ms(200)), ms(500));
    }

    #[test]
    fn earliest_jittered_contract_fuzz() {
        let delta = Nanos::from_micros(100);
        let t = JitteredTimer::new(delta, 77);
        let mut rng_state = 12345u64;
        for _ in 0..200 {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let from = Nanos(rng_state % 10_000_000);
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let target = from + Nanos(rng_state % 5_000_000);
            check_earliest(&t, from, target, 32);
        }
    }

    #[test]
    fn earliest_randomized_contract() {
        // RandomizedTimer is stateful: check the contract against a fresh
        // clone that replays the same epoch stream.
        let base = RandomizedTimer::with_defaults(21);
        for (from_ms, ahead_ms) in [(0u64, 5u64), (10, 5), (50, 100), (200, 1)] {
            let from = ms(from_ms);
            let mut probe = base.clone();
            let target = probe.observe(from) + ms(ahead_ms);
            let mut solver = base.clone();
            let result = solver.earliest_at_or_above(from, target);
            assert!(result >= from);
            let mut verify = base.clone();
            assert!(verify.observe(result) >= target);
            if result > from {
                let mut verify = base.clone();
                let just_before = result - Nanos(1);
                assert!(verify.observe(just_before) < target);
            }
        }
    }

    #[test]
    fn boxed_timer_dispatch() {
        let mut t: Box<dyn Timer> = Box::new(QuantizedTimer::new(ms(1)));
        assert_eq!(t.observe(ms(5) + Nanos(3)), ms(5));
        assert_eq!(t.name(), "quantized");
    }
}
