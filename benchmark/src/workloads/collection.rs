//! Traced closed-world collection: the jobs of
//! [`CollectionConfig::collect_closed_world`], replayed through
//! [`bf_par::par_map_indexed`] with a timer around each layer's public
//! call. The replay must produce the untraced dataset bit for bit; the
//! callers check that it does.

use super::secs;
use crate::metrics::Report;
use crate::stats::{percentile, Summary};
use bf_attack::{LoopCountingAttacker, SweepCountingAttacker, Trace};
use bf_core::{AttackKind, CollectionConfig};
use bf_fault::TraceValidator;
use bf_ml::Dataset;
use bf_sim::Machine;
use bf_stats::rng::combine_seeds;
use bf_timer::{BrowserKind, Timer};
use bf_victim::{Catalog, LoadEnv, WebsiteProfile};
use std::time::Instant;

/// Wall seconds one trace spent in each layer.
#[derive(Debug, Clone, Copy, Default)]
struct LayerTimes {
    /// Victim workload synthesis (`WebsiteProfile::generate_in_env`).
    generate: f64,
    /// Machine simulation (`Machine::new` + `run` + workspace recycle).
    sim: f64,
    /// Browser timer plus the attacker's replay over the timelines.
    replay: f64,
    /// `CollectionConfig::featurize`.
    featurize: f64,
    /// The whole trace, from job start to features.
    total: f64,
}

/// Layer timings accumulated over one or more traced collections.
#[derive(Debug, Default)]
pub struct CollectionTrace {
    traces: Vec<LayerTimes>,
    /// Job time summed over all traces, and wall time of the parallel
    /// maps that ran them.
    busy_s: f64,
    wall_s: f64,
    sim_runs: u64,
    sim_events: u64,
}

impl CollectionTrace {
    /// Collect `n_sites × traces_per_site` traces the way
    /// `collect_closed_world(n_sites, traces_per_site, seed)` does,
    /// timing each layer, and add the timings to `self`.
    ///
    /// # Panics
    ///
    /// Panics when `cfg` injects faults: the replay mirrors the
    /// fault-free path, which is the only one the workloads collect on.
    pub fn collect(
        &mut self,
        cfg: &CollectionConfig,
        n_sites: usize,
        traces_per_site: usize,
        seed: u64,
    ) -> Dataset {
        assert!(
            !cfg.faults.is_active(),
            "traced collection mirrors the fault-free path"
        );
        let catalog = Catalog::closed_world_subset_with_tuning(n_sites, cfg.tuning);
        let sites = catalog.sites();
        let jobs: Vec<(usize, u64)> = (0..sites.len())
            .flat_map(|label| {
                (0..traces_per_site)
                    .map(move |run| (label, combine_seeds(seed, (label * 100_000 + run) as u64)))
            })
            .collect();
        let runs0 = bf_obs::counter("sim.runs").get();
        let events0 = bf_obs::counter("sim.events_dispatched").get();
        let start = Instant::now();
        let out = bf_par::par_map_indexed(&jobs, |_, &(label, run_seed)| {
            traced_trace(cfg, &sites[label], run_seed)
        });
        self.wall_s += secs(start);
        self.sim_runs += bf_obs::counter("sim.runs").get() - runs0;
        self.sim_events += bf_obs::counter("sim.events_dispatched").get() - events0;
        let mut dataset = Dataset::new(n_sites);
        for ((label, _), (features, times)) in jobs.into_iter().zip(out) {
            self.busy_s += times.total;
            self.traces.push(times);
            if let Some(f) = features {
                dataset.push(f, label);
            }
        }
        dataset
    }

    /// The collection-layer metrics of a traced run.
    pub fn report(&self, report: &mut Report, threads: usize) -> Result<(), String> {
        let ms = |f: fn(&LayerTimes) -> f64| -> Vec<f64> {
            self.traces.iter().map(|t| f(t) * 1e3).collect()
        };
        let (generate, sim, replay, total) = (
            ms(|t| t.generate),
            ms(|t| t.sim),
            ms(|t| t.replay),
            ms(|t| t.total),
        );
        let featurize_us: Vec<f64> = self.traces.iter().map(|t| t.featurize * 1e6).collect();
        for (name, xs, p) in [
            ("victim.generate_ms.p50", &generate, 50.0),
            ("victim.generate_ms.p95", &generate, 95.0),
            ("sim.run_ms.p50", &sim, 50.0),
            ("sim.run_ms.p95", &sim, 95.0),
            ("attack.replay_ms.p50", &replay, 50.0),
            ("attack.replay_ms.p95", &replay, 95.0),
            ("core.featurize_us.p50", &featurize_us, 50.0),
            ("core.trace_ms.p50", &total, 50.0),
            ("core.trace_ms.p95", &total, 95.0),
        ] {
            report.set(name, percentile(xs, p).map_err(|e| format!("{name}: {e}"))?);
        }
        let median = |xs: &[f64]| Summary::of(xs).median;
        report.set(
            "core.layer_coverage",
            (median(&generate) + median(&sim) + median(&replay) + median(&featurize_us) / 1e3)
                / median(&total),
        );
        let n = self.traces.len() as f64;
        report.set("sim.events_per_trace", self.sim_events as f64 / n);
        report.set(
            "sim.ns_per_event",
            sim.iter().sum::<f64>() * 1e6 / self.sim_events as f64,
        );
        report.set("fault.attempts_per_trace", self.sim_runs as f64 / n);
        report.set(
            "par.collect_busy_fraction",
            self.busy_s / (threads as f64 * self.wall_s),
        );
        Ok(())
    }
}

/// One job of `collect_closed_world`, layer by layer: the body of
/// `CollectionConfig::collect_trace` followed by the validation and
/// featurisation of the fault-free `collect_trace_resilient` path.
fn traced_trace(
    cfg: &CollectionConfig,
    site: &WebsiteProfile,
    run_seed: u64,
) -> (Option<Vec<f32>>, LayerTimes) {
    let job = Instant::now();
    let mut t = LayerTimes::default();
    let duration = cfg.browser.trace_duration();
    let env = if cfg.browser == BrowserKind::TorBrowser {
        LoadEnv::tor()
    } else {
        LoadEnv::direct()
    };

    let start = Instant::now();
    let mut workload = site.generate_in_env(duration, run_seed, &env);
    for (i, app) in cfg.background.iter().enumerate() {
        workload.merge(&app.generate(duration, combine_seeds(run_seed, 0xA0 + i as u64)));
    }
    cfg.defense
        .apply_to_workload(&mut workload, combine_seeds(run_seed, 0xDEF));
    t.generate = secs(start);

    let start = Instant::now();
    let sim = Machine::new(cfg.machine.clone()).run(&workload, combine_seeds(run_seed, 0x51));
    t.sim = secs(start);

    let start = Instant::now();
    let base_timer: Box<dyn Timer> = match cfg.quantize_timer {
        Some(res) => Box::new(bf_timer::QuantizedTimer::new(res)),
        None => cfg.browser.timer(combine_seeds(run_seed, 0x71)),
    };
    let mut timer = cfg.defense.wrap_timer(base_timer, run_seed);
    let trace = match cfg.attack {
        AttackKind::LoopCounting => {
            LoopCountingAttacker::for_browser(cfg.browser, cfg.period).collect(&sim, &mut timer)
        }
        AttackKind::SweepCounting => SweepCountingAttacker::new(cfg.period, cfg.machine.cache)
            .collect(&sim, &mut timer, combine_seeds(run_seed, 0xCC)),
    };
    t.replay = secs(start);

    let start = Instant::now();
    bf_sim::workspace::recycle(sim);
    t.sim += secs(start);

    let values = trace.into_values();
    let trace = if TraceValidator::with_expected_len(cfg.expected_trace_len())
        .validate(&values)
        .is_ok()
    {
        Some(Trace::new(cfg.period, values))
    } else {
        // A trace the validator rejects goes through the library's own
        // repair loop (clamp, re-collect or quarantine), untimed by layer.
        cfg.collect_trace_resilient(site, run_seed)
    };

    let start = Instant::now();
    let features = trace.map(|tr| cfg.featurize(&tr));
    t.featurize = secs(start);
    t.total = secs(job);
    (features, t)
}
