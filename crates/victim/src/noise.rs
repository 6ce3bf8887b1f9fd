//! Background noise applications (§4.2 "Robustness to Background Noise")
//! and generic noise processes.
//!
//! The paper measures the loop-counting attack while Slack and Spotify
//! (playing music) run alongside the attacker, observing a drop from
//! 96.6 % to 93.4 % accuracy.

use bf_sim::{TimedEvent, Workload, WorkloadEvent};
use bf_stats::rng::combine_seeds;
use bf_stats::SeedRng;
use bf_timer::Nanos;

/// Background applications modeled for the noise-robustness experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NoiseApp {
    /// Slack: periodic websocket traffic, rendering of message updates,
    /// event-loop timers.
    Slack,
    /// Spotify playing music: steady audio-device interrupts, periodic
    /// stream prefetch bursts, visualizer rendering.
    Spotify,
}

impl NoiseApp {
    /// Both apps used in §4.2.
    pub const ALL: [NoiseApp; 2] = [NoiseApp::Slack, NoiseApp::Spotify];

    /// Stable per-app seed stream label.
    fn stream(self) -> u64 {
        match self {
            NoiseApp::Slack => 0x51AC,
            NoiseApp::Spotify => 0x590F,
        }
    }

    /// Generate this app's background workload over `duration`.
    pub fn generate(self, duration: Nanos, run_seed: u64) -> Workload {
        let mut rng = SeedRng::new(combine_seeds(self.stream(), run_seed));
        let mut w = Workload::new(duration);
        let horizon = duration.as_secs_f64();
        match self {
            NoiseApp::Slack => {
                // Heartbeat websocket traffic every few seconds.
                let mut t = rng.uniform_range(0.0, 3.0);
                while t < horizon {
                    for i in 0..rng.int_range(2, 12) {
                        push_secs(&mut w, t + i as f64 * 0.002, WorkloadEvent::NetworkPacket {
                            bytes: 500,
                        });
                    }
                    push_secs(&mut w, t + 0.01, WorkloadEvent::VictimWake);
                    t += rng.uniform_range(1.5, 6.0);
                }
                // Event-loop timers at a modest rate.
                let mut t = 0.0;
                while t < horizon {
                    t += rng.exponential(1.0 / 40.0);
                    push_secs(&mut w, t, WorkloadEvent::VictimWake);
                }
            }
            NoiseApp::Spotify => {
                // Audio interrupts: ~90 buffer completions per second.
                let mut t = 0.0;
                while t < horizon {
                    t += rng.exponential(1.0 / 90.0);
                    push_secs(&mut w, t, WorkloadEvent::DiskCompletion);
                    if rng.chance(0.3) {
                        push_secs(&mut w, t + 0.000_5, WorkloadEvent::VictimWake);
                    }
                }
                // Stream prefetch: a burst of packets every ~10 s.
                let mut t = rng.uniform_range(0.0, 10.0);
                while t < horizon {
                    for i in 0..rng.int_range(40, 220) {
                        push_secs(&mut w, t + i as f64 * 0.000_2, WorkloadEvent::NetworkPacket {
                            bytes: 1_400,
                        });
                    }
                    t += rng.uniform_range(6.0, 14.0);
                }
                // Light visualizer rendering.
                let mut t = 0.0;
                while t < horizon {
                    t += 1.0 / 30.0;
                    if rng.chance(0.5) {
                        push_secs(&mut w, t, WorkloadEvent::GraphicsFrame);
                    }
                }
            }
        }
        w.finalize();
        w
    }
}

/// Generic stochastic noise processes used by the defense evaluation and
/// robustness tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NoiseProcess {
    /// Poisson spurious-interrupt noise at `rate` events/second (the §6.2
    /// countermeasure's mechanism, also usable as an attack stressor).
    SpuriousInterrupts {
        /// Events per second.
        rate: f64,
    },
    /// Cache-sweeping noise: a process repeatedly evicting the whole LLC
    /// (the countermeasure of \[65\]); `sweeps_per_second` full-LLC sweeps,
    /// each loading `lines_per_sweep` lines.
    CacheSweeps {
        /// Full-buffer sweeps per second.
        sweeps_per_second: f64,
        /// Lines evicted per sweep.
        lines_per_sweep: u32,
    },
}

impl NoiseProcess {
    /// Generate the noise workload over `duration`.
    pub fn generate(self, duration: Nanos, run_seed: u64) -> Workload {
        let mut rng = SeedRng::new(combine_seeds(0x9A7_0153, run_seed));
        let mut w = Workload::new(duration);
        let horizon = duration.as_secs_f64();
        match self {
            NoiseProcess::SpuriousInterrupts { rate } => {
                // §6.2: "scheduling thousands of activity bursts and
                // network pings at random intervals". Events arrive in
                // dense bursts, not uniformly: the bursts create random
                // page-load-like dips in the attacker's trace, which is
                // what actually confuses the classifier.
                let mean_burst = 120.0;
                let burst_rate = rate.max(1e-9) / mean_burst;
                let mut t = 0.0;
                while t < horizon {
                    t += rng.exponential(1.0 / burst_rate);
                    if t >= horizon {
                        break;
                    }
                    let size = rng.int_range(60, 180);
                    let span = rng.uniform_range(0.01, 0.08);
                    for _ in 0..size {
                        let et = t + rng.uniform() * span;
                        push_secs(&mut w, et, WorkloadEvent::SpuriousInterrupt);
                    }
                    // The burst also burns CPU (a JS activity burst),
                    // perturbing the frequency governor and scheduler.
                    push_secs(
                        &mut w,
                        t,
                        WorkloadEvent::CpuBurst {
                            duration: Nanos::from_secs_f64(span * rng.uniform_range(0.3, 0.9)),
                        },
                    );
                }
            }
            NoiseProcess::CacheSweeps { sweeps_per_second, lines_per_sweep } => {
                let mut t = 0.0;
                while t < horizon {
                    t += 1.0 / sweeps_per_second.max(1e-9);
                    push_secs(&mut w, t, WorkloadEvent::CacheLoad { lines: lines_per_sweep });
                    // The sweeping process is CPU-bound: it occasionally
                    // trips scheduler activity but generates few
                    // interrupts — that asymmetry is Table 2's point.
                    if rng.chance(0.02) {
                        push_secs(&mut w, t, WorkloadEvent::VictimWake);
                    }
                }
            }
        }
        w.finalize();
        w
    }
}

fn push_secs(w: &mut Workload, t: f64, event: WorkloadEvent) {
    if t.is_finite() && t >= 0.0 && Nanos::from_secs_f64(t) < w.duration() {
        w.push(TimedEvent { t: Nanos::from_secs_f64(t), event });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DUR: Nanos = Nanos(15_000_000_000);

    #[test]
    fn noise_apps_generate_activity() {
        for app in NoiseApp::ALL {
            let w = app.generate(DUR, 1);
            assert!(w.len() > 100, "{app:?} too quiet: {}", w.len());
        }
    }

    #[test]
    fn spotify_has_steady_audio_interrupts() {
        let w = NoiseApp::Spotify.generate(DUR, 2);
        let disk = w.count_matching(|e| matches!(e, WorkloadEvent::DiskCompletion));
        // ~90/s over 15 s.
        assert!((900..2_200).contains(&disk), "disk = {disk}");
    }

    #[test]
    fn noise_is_deterministic() {
        let a = NoiseApp::Slack.generate(DUR, 3);
        let b = NoiseApp::Slack.generate(DUR, 3);
        assert_eq!(a.events(), b.events());
    }

    #[test]
    fn spurious_interrupt_rate_respected() {
        let w = NoiseProcess::SpuriousInterrupts { rate: 1_000.0 }.generate(DUR, 4);
        let n = w.count_matching(|e| matches!(e, WorkloadEvent::SpuriousInterrupt));
        assert!((13_000..17_000).contains(&n), "n = {n}");
    }

    #[test]
    fn cache_sweeps_mostly_cache_loads() {
        let w = NoiseProcess::CacheSweeps { sweeps_per_second: 30.0, lines_per_sweep: 98_304 }
            .generate(DUR, 5);
        let loads = w.count_matching(|e| matches!(e, WorkloadEvent::CacheLoad { .. }));
        let other = w.len() - loads;
        assert!(loads > 400, "loads = {loads}");
        assert!(other < loads / 10, "too many non-cache events: {other}");
    }

    #[test]
    fn events_stay_within_duration() {
        let w = NoiseApp::Spotify.generate(Nanos::from_secs(2), 6);
        assert!(w.events().iter().all(|e| e.t < Nanos::from_secs(2)));
    }
}
