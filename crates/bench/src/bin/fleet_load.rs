//! Fleet-scale serving benchmark: supervised shards under an
//! open-system population load.
//!
//! Trains one centroid model pair per shard (the fleet's routing,
//! fault-domain, and supervision dynamics are the object of study, not
//! model quality), then replays a deterministic open-system stream —
//! Poisson session arrivals, per-session think-gap visit trains, Zipf
//! site popularity over the catalog (see [`bf_bench::load`]) — through
//! a [`bf_serve::Fleet`], at 1 and 4 threads, in three scenarios:
//!
//! 1. **baseline** — every shard healthy for the whole run;
//! 2. **kill** — two mid-stream kills of the last shard; the supervisor
//!    restarts it after the restart backoff and queued/arriving
//!    requests resolve `ShardDown`;
//! 3. **kill+hedge** (fleets with ≥ 2 shards) — same kills with hedged
//!    retry on: `ShardDown` requests replay on the next healthy shard.
//!
//! The fleet is configured in code: each shard serves with micro-batch
//! capacity 8 and the anytime ladder on, the restart backoff and the
//! load model are the `FleetConfig` and `LoadConfig` defaults. Only the
//! shard count comes from the environment: `BF_FLEET_SHARDS` (default
//! 4; `0` is rejected with a warning and keeps the default).
//!
//! Every configuration runs twice and is asserted bit-identical, kill
//! runs included — outcomes are pure functions of
//! `(seed, BF_THREADS, BF_FLEET_SHARDS, kill plan)`. The kill scenario
//! additionally asserts *fault-domain isolation*: requests routed to
//! surviving shards resolve bit-identically to the no-kill baseline.
//!
//! Writes `BENCH_fleet.json` (override with `BF_FLEET_OUT`): per-run
//! fleet SLOs — p50/p99/p99.9 latency, throughput, shed / degraded /
//! shard-down rates, restart and breaker-flap counts, hedged-retry
//! volume — plus a per-shard breakdown. The stream holds 600 requests,
//! 150 at `BF_SCALE=smoke`.

use bf_bench::{run_bin, LoadConfig, Tally};
use bf_core::{AttackKind, CollectionConfig, ExperimentScale};
use bf_fault::{FaultPlan, ShardKillPlan};
use bf_ml::{CentroidClassifier, Classifier};
use bf_obs::Json;
use bf_serve::{route, Fleet, FleetConfig, Outcome, Resolved, ServeConfig, TierConfig};
use bf_stats::rng::combine_seeds;
use bf_timer::BrowserKind;
use bf_victim::Catalog;
use std::process::ExitCode;

/// Shard health that the fleet's own snapshot counts: each shard's
/// answers and outages as it executed them, hedge replays included.
struct ShardStats {
    answered: u64,
    shard_down: u64,
    restarts: u64,
    flaps: u64,
    /// Answer latency p99 of the requests routed to the shard.
    p99_units: u64,
}

struct RunStats {
    threads: usize,
    scenario: &'static str,
    tally: Tally,
    restarts: u64,
    flaps: u64,
    hedged: u64,
    per_shard: Vec<ShardStats>,
}

impl RunStats {
    fn new(threads: usize, scenario: &'static str, resolved: &[Resolved], fleet: &Fleet) -> Self {
        let health = fleet.health();
        let per_shard = (0..fleet.shards())
            .map(|k| {
                let routed = resolved.iter().filter(|r| route(r.id, fleet.shards()) == k);
                ShardStats {
                    answered: health.shards[k].predictions + health.shards[k].degraded,
                    shard_down: health.shards[k].shard_down,
                    restarts: health.shards[k].restarts,
                    flaps: health.flaps[k],
                    p99_units: Tally::new(routed).latency(0.99),
                }
            })
            .collect();
        RunStats {
            threads,
            scenario,
            tally: Tally::new(resolved),
            restarts: health.total(|s| s.restarts),
            flaps: health.flaps.iter().sum(),
            hedged: health.hedged,
            per_shard,
        }
    }

    /// Breaker flaps per 1000 virtual units — the SLO-facing view of
    /// breaker churn (raw counts scale with the stream length).
    fn flap_rate_per_kunit(&self) -> f64 {
        self.flaps as f64 * 1000.0 / self.tally.makespan_units.max(1) as f64
    }

    fn to_json(&self) -> Json {
        let t = &self.tally;
        Json::object([
            ("threads", Json::UInt(self.threads as u64)),
            ("scenario", Json::Str(self.scenario.to_owned())),
            ("makespan_units", Json::UInt(t.makespan_units)),
            ("p50_latency_units", Json::UInt(t.latency(0.50))),
            ("p99_latency_units", Json::UInt(t.latency(0.99))),
            ("p999_latency_units", Json::UInt(t.latency(0.999))),
            ("throughput_per_kunit", Json::Float(t.throughput_per_kunit())),
            ("predictions", Json::UInt(t.predictions)),
            ("degraded", Json::UInt(t.degraded)),
            ("timeouts", Json::UInt(t.timeouts)),
            ("shed", Json::UInt(t.shed)),
            ("failed", Json::UInt(t.failed)),
            ("shard_down", Json::UInt(t.shard_down)),
            ("answered", Json::UInt(t.answered())),
            ("answered_fraction", Json::Float(t.answered_fraction())),
            ("shed_rate", Json::Float(t.rate(t.shed))),
            ("degraded_fraction", Json::Float(t.degraded_fraction())),
            ("shard_down_rate", Json::Float(t.rate(t.shard_down))),
            // Fault-injection echoes: their scale is set by the kill
            // plan, not by serving quality.
            ("restarts", Json::UInt(self.restarts)),
            ("breaker_flaps", Json::UInt(self.flaps)),
            ("flap_rate_per_kunit", Json::Float(self.flap_rate_per_kunit())),
            ("hedged", Json::UInt(self.hedged)),
            (
                "per_shard",
                Json::Array(
                    self.per_shard
                        .iter()
                        .map(|s| {
                            Json::object([
                                ("answered", Json::UInt(s.answered)),
                                ("shard_down", Json::UInt(s.shard_down)),
                                ("restarts", Json::UInt(s.restarts)),
                                ("breaker_flaps", Json::UInt(s.flaps)),
                                ("p99_latency_units", Json::UInt(s.p99_units)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn main() -> ExitCode {
    run_bin("fleet serving under open-system load", "fleet_load", |m, scale, seed| {
        let n_requests = if scale == ExperimentScale::Smoke { 150 } else { 600 };
        let default_shards = FleetConfig::default().shards;
        let shards: usize = match bf_obs::env::parse("BF_FLEET_SHARDS", "a positive shard count") {
            // A zero-shard fleet cannot serve: reject it, don't clamp.
            Some(0) => {
                bf_obs::env::warn_invalid("BF_FLEET_SHARDS", "0", "a positive shard count");
                default_shards
            }
            Some(n) => n,
            None => default_shards,
        };
        let fleet_cfg = FleetConfig {
            shards,
            serve: ServeConfig {
                tiers: TierConfig { ladder: true, ..TierConfig::default() },
                batch: 8,
                ..ServeConfig::default()
            },
            ..FleetConfig::default()
        };
        let load_cfg = LoadConfig::default();
        // Two mid-stream kills of the last shard, far enough apart that
        // the first restart completes.
        let victim = shards - 1;
        let kills = ShardKillPlan::new([(victim, 4_000), (victim, 12_000)]);
        m.config("fleet.shards", fleet_cfg.shards);
        m.config("fleet.requests", n_requests);
        m.config("fleet.kill_plan", kills.summary());
        m.config("fleet.restart_backoff", fleet_cfg.restart_backoff.base_units);
        m.config("load.session_gap_units", load_cfg.session_gap_units);
        m.config("load.mean_visits", load_cfg.mean_visits);
        m.config("load.think_units", load_cfg.think_units);
        m.config("load.zipf_exponent", load_cfg.zipf_exponent);

        // Offline phase: one clean corpus, one fitted centroid pair;
        // every shard gets clones (fleet dynamics, not model quality,
        // are under test here).
        let clean = CollectionConfig::new(BrowserKind::Chrome, AttackKind::LoopCounting)
            .with_scale(scale);
        let (n_sites, tps) = (scale.n_sites(), scale.traces_per_site());
        let data = m.phase("train_collect", || clean.collect_closed_world(n_sites, tps, seed));
        let folds = data.stratified_folds(5, seed);
        let train_idx: Vec<usize> = folds[1..].iter().flatten().copied().collect();
        let (train, val) = (data.subset(&train_idx), data.subset(&folds[0]));
        let mut model = CentroidClassifier::new(data.n_classes());
        m.phase("train_model", || model.fit(&train, &val));

        let plan = FaultPlan {
            seed: combine_seeds(seed, 0xFA),
            slow_model: 0.02,
            worker_panic: 0.01,
            ..FaultPlan::default_plan()
        };
        m.config("fleet.fault_plan", plan.summary());
        let serving = clean.clone().with_faults(plan);
        let sites = Catalog::closed_world_subset_with_tuning(n_sites, clean.tuning)
            .sites()
            .to_vec();
        let requests =
            bf_bench::open_system_requests(&load_cfg, n_requests, n_sites, seed);

        let build_fleet = |cfg: &FleetConfig, kills: &ShardKillPlan| {
            Fleet::new(cfg, kills, |_| {
                bf_serve::Service::new(
                    serving.clone(),
                    sites.clone(),
                    Box::new(model.clone()),
                    model.clone(),
                    cfg.serve.clone(),
                )
            })
        };
        let hedged_cfg = FleetConfig { hedge: true, ..fleet_cfg.clone() };
        let scenarios: Vec<(&'static str, &FleetConfig, ShardKillPlan)> = {
            let mut s = vec![
                ("baseline", &fleet_cfg, ShardKillPlan::off()),
                ("kill", &fleet_cfg, kills.clone()),
            ];
            if fleet_cfg.shards > 1 {
                s.push(("kill_hedged", &hedged_cfg, kills.clone()));
            }
            s
        };

        let mut runs = Vec::new();
        for threads in [1usize, 4] {
            bf_par::set_threads(Some(threads));
            let mut baseline: Option<Vec<Resolved>> = None;
            for (name, cfg, kill_plan) in &scenarios {
                let mut fleet = build_fleet(cfg, kill_plan);
                let mut replay = None;
                for pass in 0..2 {
                    fleet.reset();
                    let resolved = m
                        .phase(&format!("fleet_{name}_t{threads}_pass{pass}"), || {
                            fleet.run(&requests)
                        });
                    assert_eq!(resolved.len(), n_requests);
                    let health = fleet.health();
                    assert_eq!(
                        health.total(|s| s.resolved()),
                        // The hedge pass re-submits ShardDown requests,
                        // so shard tallies count those twice.
                        n_requests as u64 + health.hedged,
                        "every request reaches exactly one terminal outcome"
                    );
                    match replay.take() {
                        None => {
                            runs.push(RunStats::new(threads, name, &resolved, &fleet));
                            replay = Some(resolved);
                        }
                        Some(first) => {
                            assert_eq!(
                                first, resolved,
                                "fleet outcomes must be bit-deterministic for fixed \
                                 (seed, BF_THREADS, BF_FLEET_SHARDS, kill plan)"
                            );
                            replay = Some(first);
                        }
                    }
                }
                let resolved = replay.expect("two passes ran");
                if *name == "baseline" {
                    assert!(
                        resolved.iter().all(|r| r.outcome != Outcome::ShardDown),
                        "no shard may go down without a kill plan"
                    );
                    baseline = Some(resolved);
                } else if kill_plan.is_active() {
                    if *name == "kill" {
                        // Fault-domain isolation: requests routed to
                        // surviving shards resolve bit-identically to
                        // the no-kill baseline.
                        let killed: std::collections::BTreeSet<usize> =
                            kill_plan.kills().iter().map(|k| k.shard).collect();
                        let base = baseline.as_ref().expect("baseline ran first");
                        for (b, k) in base.iter().zip(&resolved) {
                            if !killed.contains(&route(b.id, cfg.shards)) {
                                assert_eq!(b, k, "sibling shards must not observe a kill");
                            }
                        }
                        let down = runs.last().expect("stats recorded");
                        assert!(
                            down.tally.shard_down > 0 && down.restarts > 0,
                            "the kill plan must actually bite: {} down / {} restarts",
                            down.tally.shard_down,
                            down.restarts
                        );
                    } else {
                        let hedged = runs.last().expect("stats recorded");
                        assert!(
                            hedged.hedged > 0,
                            "hedging must replay the killed shard's requests"
                        );
                    }
                }
            }
        }
        bf_par::set_threads(None);

        println!(
            "\nthreads scenario      p50      p99     p99.9   shed%  down%  restarts flaps hedged"
        );
        for r in &runs {
            let t = &r.tally;
            println!(
                "{:<7} {:<12} {:>6} {:>8} {:>9}   {:>5.2}  {:>5.2}  {:>8} {:>5} {:>6}",
                r.threads,
                r.scenario,
                t.latency(0.50),
                t.latency(0.99),
                t.latency(0.999),
                t.rate(t.shed) * 100.0,
                t.rate(t.shard_down) * 100.0,
                r.restarts,
                r.flaps,
                r.hedged,
            );
        }

        let json = Json::object([
            (
                "note",
                Json::Str(
                    "supervised shard fleet under open-system Zipf/Poisson load: \
                     deterministic routing, contained shard crashes with supervised \
                     restart, optional hedged retry. All latencies/throughput are \
                     virtual work units; outcomes replay bit-identically per \
                     (seed, threads, shards, kill plan)."
                        .into(),
                ),
            ),
            ("scale", Json::Str(scale.to_string())),
            ("seed", Json::UInt(seed)),
            ("requests", Json::UInt(n_requests as u64)),
            ("shards", Json::UInt(fleet_cfg.shards as u64)),
            ("kill_plan", Json::Str(kills.summary())),
            ("session_gap_units", Json::Float(load_cfg.session_gap_units)),
            ("mean_visits", Json::Float(load_cfg.mean_visits)),
            ("think_units", Json::Float(load_cfg.think_units)),
            ("zipf_exponent", Json::Float(load_cfg.zipf_exponent)),
            ("deterministic", Json::Bool(true)),
            ("runs", Json::Array(runs.iter().map(RunStats::to_json).collect())),
        ]);
        let out = bf_bench::artifact_path("BF_FLEET_OUT", "BENCH_fleet.json");
        std::fs::write(&out, json.to_pretty_string())?;
        println!("\nwrote {out}");
        Ok(())
    })
}
