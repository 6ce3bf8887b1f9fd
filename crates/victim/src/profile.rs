//! Parametric website-load workload models.

use bf_sim::{TimedEvent, Workload, WorkloadEvent};
use bf_stats::rng::{combine_seeds, hash64};
use bf_stats::SeedRng;
use bf_timer::Nanos;

/// Global knobs for workload synthesis, used by calibration and ablation
/// studies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileTuning {
    /// Multiplier on all event volumes (packets, wakes, shootdowns).
    pub intensity: f64,
    /// Scale of run-to-run variation (1.0 = realistic; 0.0 = perfectly
    /// repeatable loads).
    pub run_jitter: f64,
}

impl Default for ProfileTuning {
    fn default() -> Self {
        ProfileTuning { intensity: 1.0, run_jitter: 1.0 }
    }
}

/// The network/browsing environment a load happens in.
///
/// Tor Browser routes every request through the Tor network: loads take
/// several times longer and their timing varies wildly between runs
/// (which is why the paper collects 50-second traces for Tor). The
/// environment stretches and delays the generated activity accordingly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadEnv {
    /// Median multiplicative time stretch applied to all activity
    /// (1.0 = direct connection).
    pub time_stretch: f64,
    /// Sigma of the per-run log-normal stretch variation.
    pub stretch_sigma: f64,
    /// Maximum uniformly random start delay before the load begins
    /// (seconds).
    pub start_delay_max: f64,
}

impl Default for LoadEnv {
    fn default() -> Self {
        LoadEnv { time_stretch: 1.0, stretch_sigma: 0.0, start_delay_max: 0.0 }
    }
}

impl LoadEnv {
    /// A direct (non-anonymized) connection.
    pub fn direct() -> Self {
        Self::default()
    }

    /// A Tor-circuit environment: ~2.2× slower loads with ±15 % per-run
    /// variation and up to 1.5 s of circuit-setup delay.
    pub fn tor() -> Self {
        LoadEnv { time_stretch: 2.2, stretch_sigma: 0.15, start_delay_max: 1.5 }
    }

    /// Whether this environment modifies the load at all.
    pub fn is_identity(&self) -> bool {
        self.time_stretch == 1.0 && self.stretch_sigma == 0.0 && self.start_delay_max == 0.0
    }
}

/// One network/activity wave of a page load (document fetch, subresource
/// waves, late ad/analytics bursts).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Wave {
    /// Wave start, seconds after navigation.
    start: f64,
    /// Wave length in seconds.
    duration: f64,
    /// Packets fetched during the wave.
    packets: u32,
    /// Mean payload size.
    bytes_per_packet: u32,
    /// Fraction of packets that also hit disk (cache writes).
    disk_frac: f64,
}

/// Site-characteristic parameters, derived deterministically from the
/// hostname.
#[derive(Debug, Clone, PartialEq)]
struct SiteParams {
    waves: Vec<Wave>,
    /// Event-loop wake rate during active phases (wakes/second).
    js_wake_rate: f64,
    /// Fraction of active time spent in CPU bursts.
    js_cpu_frac: f64,
    /// TLB-shootdown rounds per second during active phases (GC and
    /// allocator churn).
    gc_rate: f64,
    /// Pages per shootdown round.
    gc_pages: u32,
    /// Rendering frame rate while painting.
    render_fps: f64,
    /// Rendering continues until this time (seconds).
    render_until: f64,
    /// LLC lines loaded per second during active phases.
    cache_rate: f64,
    /// Main activity ends here (seconds).
    load_end: f64,
    /// Post-load animation/ads timer rate (events/second; 0 = quiescent).
    steady_timer_rate: f64,
    /// Post-load beacon period in seconds (0 = none).
    steady_net_period: f64,
}

/// A synthetic website whose load produces a stable, site-characteristic
/// interrupt and cache-activity fingerprint.
#[derive(Debug, Clone, PartialEq)]
pub struct WebsiteProfile {
    hostname: String,
    params: SiteParams,
    tuning: ProfileTuning,
}

impl WebsiteProfile {
    /// Derive the profile for a hostname with default tuning.
    pub fn for_hostname(hostname: &str) -> Self {
        Self::with_tuning(hostname, ProfileTuning::default())
    }

    /// Derive the profile for a hostname with explicit tuning.
    pub fn with_tuning(hostname: &str, tuning: ProfileTuning) -> Self {
        let seed = hash64(hostname.as_bytes());
        let mut rng = SeedRng::new(seed);
        let params = SiteParams::derive(&mut rng);
        WebsiteProfile { hostname: hostname.to_owned(), params, tuning }
    }

    /// The hostname this profile models.
    pub fn hostname(&self) -> &str {
        &self.hostname
    }

    /// Number of network/activity waves in the load.
    pub fn wave_count(&self) -> usize {
        self.params.waves.len()
    }

    /// When the main load activity ends (navigation-relative).
    pub fn load_end(&self) -> Nanos {
        Nanos::from_secs_f64(self.params.load_end)
    }

    /// Synthesize one load in an explicit environment: times are
    /// stretched by a per-run factor and shifted by a circuit-setup delay
    /// before simulation (see [`LoadEnv`]).
    pub fn generate_in_env(&self, duration: Nanos, run_seed: u64, env: &LoadEnv) -> Workload {
        if env.is_identity() {
            return self.generate(duration, run_seed);
        }
        let site_seed = hash64(self.hostname.as_bytes());
        let mut env_rng = SeedRng::new(combine_seeds(site_seed ^ 0xE9_17, run_seed));
        let stretch = env.time_stretch * lognormal_jitter(&mut env_rng, env.stretch_sigma);
        let delay = Nanos::from_secs_f64(env_rng.uniform() * env.start_delay_max);
        let base = self.generate(duration, run_seed);
        let mut out = Workload::new(duration);
        for ev in base.events() {
            let t = delay + ev.t.mul_f64(stretch.max(0.05));
            if t < duration {
                out.push(TimedEvent { t, event: ev.event });
            }
        }
        out.finalize();
        out
    }

    /// Synthesize one load: the workload of a single victim visit of
    /// length `duration`, with per-run variation drawn from `run_seed`.
    pub fn generate(&self, duration: Nanos, run_seed: u64) -> Workload {
        let site_seed = hash64(self.hostname.as_bytes());
        let mut rng = SeedRng::new(combine_seeds(site_seed, run_seed));
        let mut w = Workload::new(duration);
        let p = &self.params;
        let horizon = duration.as_secs_f64();

        // Run-level global modifiers: network latency shift and bandwidth.
        let shift = rng.normal(0.0, 0.06) * self.tuning.run_jitter;
        let scale = lognormal_jitter(&mut rng, 0.10 * self.tuning.run_jitter);

        let mut active_windows: Vec<(f64, f64)> = Vec::new();
        for wave in &p.waves {
            let start = (wave.start + shift + rng.normal(0.0, 0.03) * self.tuning.run_jitter)
                .clamp(0.0, horizon);
            let dur = (wave.duration * lognormal_jitter(&mut rng, 0.12 * self.tuning.run_jitter))
                .max(0.02);
            let end = (start + dur).min(horizon);
            if end <= start {
                continue;
            }
            active_windows.push((start, (end + 0.25).min(horizon)));
            self.emit_wave(&mut w, &mut rng, wave, start, end, scale);
        }
        // The JS/GC window spans navigation to load end.
        let load_end = ((p.load_end + shift) * lognormal_jitter(&mut rng, 0.06)).clamp(0.2, horizon);
        let js_start = active_windows.first().map_or(0.05, |w| w.0);
        self.emit_js_activity(&mut w, &mut rng, js_start, load_end, scale);
        self.emit_rendering(&mut w, &mut rng, js_start, (p.render_until + shift).min(horizon));
        self.emit_steady_state(&mut w, &mut rng, load_end, horizon);

        w.finalize();
        w
    }

    /// Packets, disk completions, and decode cache traffic for one wave.
    fn emit_wave(
        &self,
        w: &mut Workload,
        rng: &mut SeedRng,
        wave: &Wave,
        start: f64,
        end: f64,
        scale: f64,
    ) {
        let packets =
            ((wave.packets as f64) * scale * self.tuning.intensity).round().max(1.0) as u32;
        // Packets arrive in sub-bursts (TCP windows / HTTP2 streams).
        let n_bursts = 3 + rng.int_range(0, 6) as usize;
        let dur = end - start;
        let mut remaining = packets;
        for b in 0..n_bursts {
            let b_packets = if b == n_bursts - 1 {
                remaining
            } else {
                let share = remaining / (n_bursts - b) as u32;
                rng.int_range(0, (share as u64 * 2).max(1)) as u32
            }
            .min(remaining);
            remaining -= b_packets;
            let b_start = start + rng.uniform() * dur * 0.9;
            // Packets within a sub-burst arrive back-to-back at line rate
            // with exponential spacing.
            let mut t = b_start;
            for _ in 0..b_packets {
                t += rng.exponential(0.000_05); // mean 50 µs spacing
                if t >= end + 0.1 {
                    break;
                }
                let bytes = (wave.bytes_per_packet as f64 * lognormal_jitter(rng, 0.3)) as u32;
                push_at_secs(w, t, WorkloadEvent::NetworkPacket { bytes: bytes.clamp(60, 64_000) });
                if rng.chance(wave.disk_frac) {
                    push_at_secs(w, t + 0.000_3, WorkloadEvent::DiskCompletion);
                }
            }
        }
        // Decode/parse cache traffic rides the wave.
        let mut t = start;
        while t < end + 0.2 {
            let lines = (self.params.cache_rate * 0.01 * scale * self.tuning.intensity) as u32;
            if lines > 0 {
                push_at_secs(w, t, WorkloadEvent::CacheLoad { lines });
            }
            t += 0.01;
        }
    }

    /// Event-loop wakes, CPU bursts, and GC TLB shootdowns.
    fn emit_js_activity(
        &self,
        w: &mut Workload,
        rng: &mut SeedRng,
        start: f64,
        end: f64,
        scale: f64,
    ) {
        let p = &self.params;
        // Wakes: Poisson with site rate, intensity-modulated by a slow
        // envelope so early load is busier than the tail.
        let rate = p.js_wake_rate * scale * self.tuning.intensity;
        let mut t = start;
        while t < end {
            t += rng.exponential(1.0 / rate.max(1.0));
            let envelope = 1.0 - 0.6 * ((t - start) / (end - start).max(0.01)).clamp(0.0, 1.0);
            if rng.chance(envelope) {
                push_at_secs(w, t, WorkloadEvent::VictimWake);
            }
        }
        // CPU bursts.
        let mut t = start;
        while t < end {
            let gap = rng.uniform_range(0.015, 0.07);
            t += gap;
            let burst = gap * p.js_cpu_frac * lognormal_jitter(rng, 0.3);
            push_at_secs(
                w,
                t,
                WorkloadEvent::CpuBurst { duration: Nanos::from_secs_f64(burst.max(0.000_1)) },
            );
        }
        // GC / allocator TLB shootdowns.
        let mut t = start;
        while t < end {
            t += rng.exponential(1.0 / (p.gc_rate * self.tuning.intensity).max(0.1));
            if t >= end {
                break;
            }
            let pages = (p.gc_pages as f64 * lognormal_jitter(rng, 0.5)).max(1.0) as u32;
            push_at_secs(w, t, WorkloadEvent::TlbShootdown { pages });
        }
    }

    /// Compositor frames and raster cache traffic.
    fn emit_rendering(&self, w: &mut Workload, rng: &mut SeedRng, start: f64, until: f64) {
        let fps = self.params.render_fps;
        if fps <= 0.0 || until <= start {
            return;
        }
        let frame = 1.0 / fps;
        let mut t = start + frame;
        while t < until {
            if rng.chance(0.9) {
                push_at_secs(w, t, WorkloadEvent::GraphicsFrame);
                let lines = (self.params.cache_rate * 0.004 * self.tuning.intensity) as u32;
                if lines > 0 {
                    push_at_secs(w, t + 0.002, WorkloadEvent::CacheLoad { lines });
                }
            }
            t += frame * lognormal_jitter(rng, 0.05);
        }
    }

    /// Post-load animations, ad rotations, beacons.
    fn emit_steady_state(&self, w: &mut Workload, rng: &mut SeedRng, start: f64, horizon: f64) {
        let p = &self.params;
        if p.steady_timer_rate > 0.0 {
            let mut t = start;
            while t < horizon {
                t += rng.exponential(1.0 / p.steady_timer_rate);
                if t >= horizon {
                    break;
                }
                push_at_secs(w, t, WorkloadEvent::VictimWake);
                if rng.chance(0.25) {
                    push_at_secs(
                        w,
                        t + 0.001,
                        WorkloadEvent::CpuBurst { duration: Nanos::from_millis_f64(0.5) },
                    );
                }
                if rng.chance(0.15) {
                    push_at_secs(w, t + 0.002, WorkloadEvent::GraphicsFrame);
                }
            }
        }
        if p.steady_net_period > 0.0 {
            let mut t = start + p.steady_net_period * rng.uniform();
            while t < horizon {
                let n = 2 + rng.int_range(0, 8);
                for i in 0..n {
                    push_at_secs(
                        w,
                        t + i as f64 * 0.001,
                        WorkloadEvent::NetworkPacket { bytes: 600 },
                    );
                }
                t += p.steady_net_period * lognormal_jitter(rng, 0.2);
            }
        }
    }
}

impl SiteParams {
    /// Draw site-characteristic parameters from the hostname-seeded RNG.
    fn derive(rng: &mut SeedRng) -> Self {
        let n_waves = 2 + rng.int_range(0, 4) as usize;
        let mut waves = Vec::with_capacity(n_waves + 1);
        let mut t = rng.uniform_range(0.05, 0.30);
        for _ in 0..n_waves {
            let duration = rng.uniform_range(0.15, 0.80);
            waves.push(Wave {
                start: t,
                duration,
                packets: rng.int_range(1_000, 7_500) as u32,
                bytes_per_packet: rng.int_range(400, 1_500) as u32,
                disk_frac: rng.uniform_range(0.01, 0.08),
            });
            t += duration + rng.uniform_range(0.10, 1.20);
        }
        // Some sites fire late ad/analytics spikes (amazon-like bursts at
        // 5 s and 10 s in Fig. 3).
        if rng.chance(0.45) {
            let start = rng.uniform_range(4.0, 11.0);
            waves.push(Wave {
                start,
                duration: rng.uniform_range(0.1, 0.5),
                packets: rng.int_range(600, 3_500) as u32,
                bytes_per_packet: rng.int_range(400, 1_200) as u32,
                disk_frac: 0.02,
            });
        }
        let last_end = waves.iter().map(|w| w.start + w.duration).fold(0.0, f64::max);
        let load_end = (t.min(last_end.max(t * 0.8)) + rng.uniform_range(0.5, 2.0)).min(12.0);
        SiteParams {
            waves,
            js_wake_rate: rng.uniform_range(4_000.0, 14_000.0),
            js_cpu_frac: rng.uniform_range(0.15, 0.75),
            gc_rate: rng.uniform_range(80.0, 350.0),
            gc_pages: rng.int_range(8, 96) as u32,
            render_fps: rng.uniform_range(15.0, 60.0),
            render_until: load_end + rng.uniform_range(0.0, 3.0),
            cache_rate: rng.uniform_range(5e5, 4e6),
            load_end,
            steady_timer_rate: if rng.chance(0.5) { rng.uniform_range(5.0, 110.0) } else { 0.0 },
            steady_net_period: if rng.chance(0.5) { rng.uniform_range(1.0, 8.0) } else { 0.0 },
        }
    }
}

/// Multiplicative log-normal jitter with unit median.
fn lognormal_jitter(rng: &mut SeedRng, sigma: f64) -> f64 {
    if sigma <= 0.0 {
        return 1.0;
    }
    rng.log_normal(0.0, sigma)
}

/// Push an event at a time given in seconds, dropping negatives.
fn push_at_secs(w: &mut Workload, t: f64, event: WorkloadEvent) {
    if t >= 0.0 && t.is_finite() {
        w.push(TimedEvent { t: Nanos::from_secs_f64(t), event });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DUR: Nanos = Nanos(15_000_000_000);

    #[test]
    fn profiles_are_deterministic_per_hostname() {
        let a = WebsiteProfile::for_hostname("nytimes.com");
        let b = WebsiteProfile::for_hostname("nytimes.com");
        assert_eq!(a, b);
    }

    #[test]
    fn different_hostnames_differ() {
        let a = WebsiteProfile::for_hostname("nytimes.com");
        let b = WebsiteProfile::for_hostname("amazon.com");
        assert_ne!(a.params, b.params);
    }

    #[test]
    fn generation_is_deterministic_per_run_seed() {
        let p = WebsiteProfile::for_hostname("weather.com");
        let a = p.generate(DUR, 5);
        let b = p.generate(DUR, 5);
        assert_eq!(a.events(), b.events());
    }

    #[test]
    fn runs_vary_but_share_scale() {
        let p = WebsiteProfile::for_hostname("weather.com");
        let a = p.generate(DUR, 1);
        let b = p.generate(DUR, 2);
        assert_ne!(a.events(), b.events());
        let ratio = a.len() as f64 / b.len() as f64;
        assert!((0.5..2.0).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn events_sorted_and_in_range() {
        let p = WebsiteProfile::for_hostname("github.com");
        let w = p.generate(DUR, 3);
        let mut last = Nanos::ZERO;
        for ev in w.events() {
            assert!(ev.t >= last);
            last = ev.t;
        }
    }

    #[test]
    fn workload_has_all_major_event_classes() {
        let p = WebsiteProfile::for_hostname("youtube.com");
        let w = p.generate(DUR, 4);
        let count = |pred: fn(&WorkloadEvent) -> bool| w.count_matching(pred);
        assert!(count(|e| matches!(e, WorkloadEvent::NetworkPacket { .. })) > 100);
        assert!(count(|e| matches!(e, WorkloadEvent::VictimWake)) > 100);
        assert!(count(|e| matches!(e, WorkloadEvent::TlbShootdown { .. })) > 10);
        assert!(count(|e| matches!(e, WorkloadEvent::GraphicsFrame)) > 10);
        assert!(count(|e| matches!(e, WorkloadEvent::CacheLoad { .. })) > 10);
        assert!(count(|e| matches!(e, WorkloadEvent::CpuBurst { .. })) > 10);
    }

    #[test]
    fn activity_concentrates_early() {
        // Most load activity happens before load_end (§3.2: nytimes does
        // most of its activity in the first seconds).
        let p = WebsiteProfile::for_hostname("nytimes.com");
        let w = p.generate(DUR, 6);
        let end = p.load_end() + Nanos::from_secs(3);
        let early = w.events().iter().filter(|e| e.t < end).count();
        assert!(
            early as f64 > w.len() as f64 * 0.6,
            "early = {early} of {} (load_end = {})",
            w.len(),
            p.load_end()
        );
    }

    #[test]
    fn intensity_scales_event_volume() {
        let quiet = WebsiteProfile::with_tuning(
            "example.com",
            ProfileTuning { intensity: 0.3, run_jitter: 1.0 },
        );
        let loud = WebsiteProfile::with_tuning(
            "example.com",
            ProfileTuning { intensity: 3.0, run_jitter: 1.0 },
        );
        let a = quiet.generate(DUR, 1).len();
        let b = loud.generate(DUR, 1).len();
        assert!(b as f64 > a as f64 * 2.0, "a={a} b={b}");
    }

    #[test]
    fn zero_run_jitter_still_varies_by_poisson_draws() {
        // run_jitter=0 removes the systematic modifiers, but the event
        // processes still resample; the generator must not degenerate.
        let p = WebsiteProfile::with_tuning(
            "example.org",
            ProfileTuning { intensity: 1.0, run_jitter: 0.0 },
        );
        let a = p.generate(DUR, 1);
        let b = p.generate(DUR, 2);
        assert_ne!(a.events(), b.events());
    }

    #[test]
    fn short_durations_clamp_activity() {
        let p = WebsiteProfile::for_hostname("cnn.com");
        let w = p.generate(Nanos::from_secs(2), 9);
        assert!(w.events().iter().all(|e| e.t < Nanos::from_secs(3)));
        assert!(!w.is_empty());
    }

    #[test]
    fn tor_env_stretches_and_delays() {
        let p = WebsiteProfile::for_hostname("nytimes.com");
        let direct = p.generate_in_env(Nanos::from_secs(50), 1, &LoadEnv::direct());
        let tor = p.generate_in_env(Nanos::from_secs(50), 1, &LoadEnv::tor());
        assert_eq!(direct.events(), p.generate(Nanos::from_secs(50), 1).events());
        // Median event time must shift substantially later under Tor.
        let median_t = |w: &Workload| w.events()[w.len() / 2].t;
        assert!(median_t(&tor) > median_t(&direct), "tor load must be slower");
    }

    #[test]
    fn tor_env_varies_across_runs() {
        let p = WebsiteProfile::for_hostname("nytimes.com");
        let a = p.generate_in_env(Nanos::from_secs(50), 1, &LoadEnv::tor());
        let b = p.generate_in_env(Nanos::from_secs(50), 2, &LoadEnv::tor());
        let first_t = |w: &Workload| w.events()[0].t;
        assert_ne!(first_t(&a), first_t(&b));
    }

    #[test]
    fn env_identity_check() {
        assert!(LoadEnv::direct().is_identity());
        assert!(!LoadEnv::tor().is_identity());
    }

    #[test]
    fn wave_count_in_expected_range() {
        for host in ["a.com", "b.com", "c.com", "d.com", "e.com"] {
            let p = WebsiteProfile::for_hostname(host);
            assert!((2..=6).contains(&p.wave_count()), "{host}: {}", p.wave_count());
        }
    }
}
