//! Browser presets for Table 1.
//!
//! Each browser in the paper's evaluation exposes a different timer to
//! JavaScript; the loop executed by the attacker also runs at a
//! browser-characteristic speed (the paper's Chrome attacker completes
//! ~27 000 iterations per 5 ms period, i.e. ~185 ns per iteration of
//! `counter++; performance.now()`).

use crate::models::{JitteredTimer, PreciseTimer, QuantizedTimer};
use crate::{Nanos, Timer};

/// The browsers evaluated in Table 1, plus a native (non-browser) attacker
/// environment used for Table 3's Python attacker and §5.2's Rust gap
/// watcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BrowserKind {
    /// Chrome 92: 0.1 ms timer with hash jitter.
    Chrome,
    /// Firefox 91: 1 ms timer with jitter.
    Firefox,
    /// Safari 14: 1 ms quantized timer.
    Safari,
    /// Tor Browser 10: 100 ms quantized timer.
    TorBrowser,
    /// Native code reading `CLOCK_MONOTONIC` / `time.time()`.
    Native,
}

impl BrowserKind {
    /// All browser environments of Table 1 (excluding [`BrowserKind::Native`]).
    pub const TABLE1: [BrowserKind; 4] = [
        BrowserKind::Chrome,
        BrowserKind::Firefox,
        BrowserKind::Safari,
        BrowserKind::TorBrowser,
    ];

    /// The timer resolution this browser exposes to `performance.now()`.
    pub fn timer_resolution(self) -> Nanos {
        match self {
            BrowserKind::Chrome => Nanos::from_millis_f64(0.1),
            BrowserKind::Firefox | BrowserKind::Safari => Nanos::from_millis(1),
            BrowserKind::TorBrowser => Nanos::from_millis(100),
            BrowserKind::Native => Nanos::ZERO,
        }
    }

    /// Whether the browser adds jitter on top of quantization.
    pub fn has_jitter(self) -> bool {
        matches!(self, BrowserKind::Chrome | BrowserKind::Firefox)
    }

    /// Construct this browser's timer model. `seed` feeds the jitter hash
    /// where applicable.
    pub fn timer(self, seed: u64) -> Box<dyn Timer> {
        match self {
            BrowserKind::Chrome | BrowserKind::Firefox => {
                Box::new(JitteredTimer::new(self.timer_resolution(), seed))
            }
            BrowserKind::Safari | BrowserKind::TorBrowser => {
                Box::new(QuantizedTimer::new(self.timer_resolution()))
            }
            BrowserKind::Native => Box::new(PreciseTimer::new()),
        }
    }

    /// Cost of one attacker loop iteration (`counter++` plus a timer read)
    /// in this environment. Calibrated so the loop-counting attacker
    /// matches the paper's observed iteration counts: ~27 000 per 5 ms in
    /// Chrome (§3.3), and so the native Python attacker of Table 3 runs a
    /// similar-throughput loop.
    pub fn loop_iteration_cost(self) -> Nanos {
        match self {
            // 5 ms / 27 000 ≈ 185 ns per JS iteration.
            BrowserKind::Chrome => Nanos::from_nanos(185),
            BrowserKind::Firefox => Nanos::from_nanos(195),
            BrowserKind::Safari => Nanos::from_nanos(180),
            // Tor is Firefox-derived with extra instrumentation overhead.
            BrowserKind::TorBrowser => Nanos::from_nanos(240),
            // Python `while` loop with time.time(): ~150 ns/iter on the
            // paper's Core i5; Rust gap watcher is faster but shares the
            // preset (the replay engine overrides cost where needed).
            BrowserKind::Native => Nanos::from_nanos(150),
        }
    }

    /// Trace duration used by the paper for this browser: 50 s for Tor
    /// Browser, 15 s everywhere else (§4.1).
    pub fn trace_duration(self) -> Nanos {
        match self {
            BrowserKind::TorBrowser => Nanos::from_secs(50),
            _ => Nanos::from_secs(15),
        }
    }

    /// Display label matching the paper's Table 1 rows.
    pub fn label(self) -> &'static str {
        match self {
            BrowserKind::Chrome => "Chrome 92",
            BrowserKind::Firefox => "Firefox 91",
            BrowserKind::Safari => "Safari 14",
            BrowserKind::TorBrowser => "Tor Browser 10",
            BrowserKind::Native => "Native",
        }
    }
}

impl std::fmt::Display for BrowserKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolutions_match_paper_table1() {
        assert_eq!(BrowserKind::Chrome.timer_resolution(), Nanos::from_micros(100));
        assert_eq!(BrowserKind::Firefox.timer_resolution(), Nanos::from_millis(1));
        assert_eq!(BrowserKind::Safari.timer_resolution(), Nanos::from_millis(1));
        assert_eq!(BrowserKind::TorBrowser.timer_resolution(), Nanos::from_millis(100));
        assert_eq!(BrowserKind::Native.timer_resolution(), Nanos::ZERO);
    }

    #[test]
    fn jitter_flags() {
        assert!(BrowserKind::Chrome.has_jitter());
        assert!(BrowserKind::Firefox.has_jitter());
        assert!(!BrowserKind::Safari.has_jitter());
        assert!(!BrowserKind::TorBrowser.has_jitter());
    }

    #[test]
    fn timer_construction_respects_resolution() {
        for b in BrowserKind::TABLE1 {
            let t = b.timer(1);
            assert_eq!(t.resolution(), b.timer_resolution(), "{b}");
        }
        assert_eq!(BrowserKind::Native.timer(0).resolution(), Nanos::ZERO);
    }

    #[test]
    fn chrome_loop_count_matches_paper() {
        // ~27 000 iterations per 5 ms period (§3.3).
        let per_period = Nanos::from_millis(5) / BrowserKind::Chrome.loop_iteration_cost();
        assert!((26_000..28_500).contains(&per_period), "got {per_period}");
    }

    #[test]
    fn tor_uses_long_traces() {
        assert_eq!(BrowserKind::TorBrowser.trace_duration(), Nanos::from_secs(50));
        assert_eq!(BrowserKind::Chrome.trace_duration(), Nanos::from_secs(15));
    }

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<&str> = BrowserKind::TABLE1.iter().map(|b| b.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 4);
    }
}
