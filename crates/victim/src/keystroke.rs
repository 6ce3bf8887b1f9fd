//! A typing victim for the §7.1 keystroke-timing scenario.
//!
//! Related work (Lipp et al., ESORICS'17 and others) uses interrupt
//! timing to recover keystroke instants. The paper notes these attacks
//! "only consider a simplistic scenario that, as a result, can easily be
//! defeated by handling the keyboard interrupts on a different core than
//! the attacker" — both the attack and that defense are demonstrated by
//! this module plus [`bf_attack::KeystrokeDetector`].
//!
//! [`bf_attack::KeystrokeDetector`]: https://docs.rs/bf-attack

use bf_sim::{TimedEvent, Workload, WorkloadEvent};
use bf_stats::rng::combine_seeds;
use bf_stats::SeedRng;
use bf_timer::Nanos;

/// A user typing at a given speed on an otherwise mostly idle machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeystrokeSession {
    /// Typing speed in words per minute (≈5 keys per word).
    pub wpm: f64,
    /// Pause probability after each key (thinking pauses).
    pub pause_prob: f64,
}

impl Default for KeystrokeSession {
    fn default() -> Self {
        KeystrokeSession {
            wpm: 55.0,
            pause_prob: 0.04,
        }
    }
}

impl KeystrokeSession {
    /// A session typing at `wpm` words per minute.
    ///
    /// # Panics
    ///
    /// Panics when `wpm` is not positive.
    pub fn new(wpm: f64) -> Self {
        assert!(wpm > 0.0, "typing speed must be positive");
        KeystrokeSession {
            wpm,
            ..Default::default()
        }
    }

    /// Generate the typing workload over `duration`, returning the
    /// workload plus the ground-truth key-press instants.
    pub fn generate(&self, duration: Nanos, run_seed: u64) -> (Workload, Vec<Nanos>) {
        let mut rng = SeedRng::new(combine_seeds(0x4B59, run_seed));
        let mut w = Workload::new(duration);
        let mut truth = Vec::new();
        // Mean inter-key interval: 60 s / (wpm * 5 keys).
        let mean_gap = 60.0 / (self.wpm * 5.0);
        let mut t = rng.uniform_range(0.1, 0.5);
        let horizon = duration.as_secs_f64();
        while t < horizon {
            let at = Nanos::from_secs_f64(t);
            truth.push(at);
            w.push(TimedEvent {
                t: at,
                event: WorkloadEvent::KeyPress,
            });
            // Log-normal inter-key times around the mean, plus occasional
            // long thinking pauses.
            t += mean_gap * rng.log_normal(0.0, 0.35);
            if rng.chance(self.pause_prob) {
                t += rng.uniform_range(0.8, 3.0);
            }
        }
        w.finalize();
        (w, truth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_rate_matches_wpm() {
        let s = KeystrokeSession::new(60.0); // 5 keys/s
        let (_, truth) = s.generate(Nanos::from_secs(20), 1);
        // ~100 keys expected, minus thinking pauses; the exact count is
        // seed-dependent, so bound it loosely around the nominal rate.
        assert!((45..=120).contains(&truth.len()), "keys = {}", truth.len());
    }

    #[test]
    fn workload_matches_truth() {
        let s = KeystrokeSession::default();
        let (w, truth) = s.generate(Nanos::from_secs(10), 2);
        let presses = w.count_matching(|e| matches!(e, WorkloadEvent::KeyPress));
        assert_eq!(presses, truth.len());
    }

    #[test]
    fn deterministic_per_seed() {
        let s = KeystrokeSession::default();
        let (a, ta) = s.generate(Nanos::from_secs(5), 3);
        let (b, tb) = s.generate(Nanos::from_secs(5), 3);
        assert_eq!(a.events(), b.events());
        assert_eq!(ta, tb);
        let (_, tc) = s.generate(Nanos::from_secs(5), 4);
        assert_ne!(ta, tc);
    }

    #[test]
    fn inter_key_gaps_are_human_scale() {
        let s = KeystrokeSession::new(50.0);
        let (_, truth) = s.generate(Nanos::from_secs(30), 5);
        for pair in truth.windows(2) {
            let gap = (pair[1] - pair[0]).as_secs_f64();
            assert!(gap > 0.02, "gap = {gap}s");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_wpm_rejected() {
        KeystrokeSession::new(0.0);
    }
}
