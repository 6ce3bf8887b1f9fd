//! The supervised multi-shard serving fleet.
//!
//! A [`Fleet`] owns N independent [`Service`] shards, each with its own
//! admission queue, circuit breaker, tier controller, and fault domain,
//! fronted by a deterministic router:
//!
//! * **Routing** — [`route`] maps a request id to a shard by a stable
//!   hash; the assignment depends on nothing but `(id, shards)`.
//! * **Fault domains** — a shard crash (scheduled by a
//!   [`bf_fault::ShardKillPlan`]) is contained: the supervisor converts
//!   each kill into a bounded down window (crash tick → restart tick,
//!   with exponential backoff for repeated kills of the same shard),
//!   queued and arriving requests inside the window resolve
//!   [`Outcome::ShardDown`], and the restarted shard comes back with a
//!   fresh, closed breaker. Sibling shards never observe the crash:
//!   their outcomes are bit-identical with or without it.
//! * **Hedged retry** — with [`FleetConfig::hedge`] on, requests that
//!   resolved `ShardDown` replay on the next shard (by index) that was
//!   healthy at their arrival tick, in a second deterministic pass that
//!   runs only after every shard finished its primary pass — so hedging
//!   can never perturb a sibling's primary outcomes either.
//!
//! Shards execute sequentially, each using the full `bf_par` pool for
//! its parallel collect stage; every outcome is therefore a pure
//! function of `(stream, fleet config, BF_THREADS)` — and per shard, of
//! that shard's slice of the stream alone. Wall time is the only thing
//! parallelism changes.
//!
//! The fleet config and the kill plan are plain values the caller
//! builds in code ([`FleetConfig`], [`ShardKillPlan::new`]); the fleet
//! reads nothing from the environment.

use crate::service::{HealthSnapshot, Service};
use crate::{Outcome, Resolved, ServeConfig, ServeRequest};
use bf_fault::{BackoffPolicy, ShardKillPlan};
use bf_stats::rng::combine_seeds;

/// Routing salt: decouples shard assignment from every other use of the
/// request id as a seed.
const ROUTE_SALT: u64 = 0x5AAD_F1EE;

/// Seed of the restart-backoff jitter stream (per-shard streams fork
/// off it by shard index).
const RESTART_SEED: u64 = 0xF1EE_7B00;

/// Deterministic router: stable hash of the request id → shard index.
/// A pure function of `(id, shards)`; every caller — admission, hedge
/// pass, tests — computes the same assignment.
pub fn route(id: u64, shards: usize) -> usize {
    (combine_seeds(id, ROUTE_SALT) % shards.max(1) as u64) as usize
}

/// Fleet tuning.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Number of independent service shards (≥ 1).
    pub shards: usize,
    /// Replay `ShardDown` requests on the next healthy shard in a
    /// second deterministic pass.
    pub hedge: bool,
    /// Restart backoff for killed shards: the k-th consecutive kill of
    /// a shard keeps it down for `delay_units(..., attempt = k)`.
    pub restart_backoff: BackoffPolicy,
    /// Per-shard service tuning (each shard gets a copy, plus its own
    /// down windows derived from the kill plan).
    pub serve: ServeConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: 4,
            hedge: false,
            restart_backoff: BackoffPolicy { base_units: 2_000, max_units: 16_000, jitter: 0.0 },
            serve: ServeConfig::default(),
        }
    }
}

/// Per-shard and fleet-level health, aggregated by [`Fleet::health`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetHealth {
    /// One snapshot per shard, in shard order.
    pub shards: Vec<HealthSnapshot>,
    /// Lifetime breaker flap count per shard (transitions of live and
    /// restart-discarded breakers).
    pub flaps: Vec<u64>,
    /// Requests replayed by the hedge pass so far.
    pub hedged: u64,
}

impl FleetHealth {
    /// Sum a per-shard count over the fleet.
    pub fn total(&self, f: impl Fn(&HealthSnapshot) -> u64) -> u64 {
        self.shards.iter().map(f).sum()
    }
}

/// The supervised shard fleet. See the module docs for semantics.
pub struct Fleet {
    shards: Vec<Service>,
    /// Down windows per shard, derived once from the kill plan: the
    /// router's health gate and the hedge pass both consult them.
    windows: Vec<Vec<(u64, u64)>>,
    hedge: bool,
    hedged: u64,
    kill_summary: String,
}

impl Fleet {
    /// Assemble a fleet of `cfg.shards` services. `make(k)` builds the
    /// shard's models (collection pipeline, primary, fallback, tiers);
    /// the fleet then applies the shard's serve config — `cfg.serve`
    /// plus the down windows its kills imply — and the shard span
    /// label. Each shard gets its own fault domain: nothing is shared
    /// between the returned services.
    pub fn new(cfg: &FleetConfig, kills: &ShardKillPlan, mut make: impl FnMut(usize) -> Service) -> Self {
        let n = cfg.shards.max(1);
        bf_obs::gauge("fleet.shards").set(n as f64);
        let windows: Vec<Vec<(u64, u64)>> = (0..n)
            .map(|k| down_windows(&kills.kills_for(k), &cfg.restart_backoff, k))
            .collect();
        let shards = (0..n)
            .map(|k| {
                let mut svc = make(k).with_shard_label(k);
                let mut scfg = cfg.serve.clone();
                scfg.down_windows = windows[k].clone();
                svc.reconfigure(scfg);
                svc
            })
            .collect();
        Fleet { shards, windows, hedge: cfg.hedge, hedged: 0, kill_summary: kills.summary() }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Borrow one shard (read-only), e.g. for its breaker history.
    pub fn shard(&self, k: usize) -> &Service {
        &self.shards[k]
    }

    /// The down windows the supervisor derived for shard `k`.
    pub fn down_windows_for(&self, k: usize) -> &[(u64, u64)] {
        &self.windows[k]
    }

    /// Reset every shard (breaker state, tallies, tier costs) and the
    /// hedge counter — a fresh fleet with the same fitted models, for
    /// double-pass determinism checks.
    pub fn reset(&mut self) {
        for shard in &mut self.shards {
            shard.reset();
        }
        self.hedged = 0;
    }

    /// Drain `requests` through the fleet: route each request to its
    /// shard, run the shards sequentially (each shard sees only its own
    /// slice, so its outcomes cannot depend on a sibling), then — with
    /// hedging on — replay `ShardDown` requests on the next shard that
    /// was healthy at their arrival tick. Returns exactly one record
    /// per request, in input order.
    pub fn run(&mut self, requests: &[ServeRequest]) -> Vec<Resolved> {
        let n_shards = self.shards.len();
        bf_obs::counter("fleet.requests").add(requests.len() as u64);
        let mut parts: Vec<Vec<ServeRequest>> = vec![Vec::new(); n_shards];
        let mut idxs: Vec<Vec<usize>> = vec![Vec::new(); n_shards];
        for (i, req) in requests.iter().enumerate() {
            let k = route(req.id, n_shards);
            parts[k].push(*req);
            idxs[k].push(i);
        }
        let mut results: Vec<Option<Resolved>> = (0..requests.len()).map(|_| None).collect();
        for k in 0..n_shards {
            if parts[k].is_empty() {
                continue;
            }
            let out = self.shards[k].run(&parts[k]);
            debug_assert_eq!(out.len(), idxs[k].len());
            for (&i, r) in idxs[k].iter().zip(out) {
                results[i] = Some(r);
            }
        }

        if self.hedge {
            self.hedge_pass(requests, &mut results);
        }

        results
            .into_iter()
            .map(|r| r.expect("fleet resolved every request"))
            .collect()
    }

    /// The hedged-retry pass: requests the primary pass resolved
    /// `ShardDown` replay on the next healthy shard. Runs strictly
    /// after every shard's primary pass, so it can only *replace
    /// ShardDown records* — sibling outcomes are already sealed.
    fn hedge_pass(&mut self, requests: &[ServeRequest], results: &mut [Option<Resolved>]) {
        let n_shards = self.shards.len();
        let mut retry_parts: Vec<Vec<ServeRequest>> = vec![Vec::new(); n_shards];
        let mut retry_idxs: Vec<Vec<usize>> = vec![Vec::new(); n_shards];
        for (i, req) in requests.iter().enumerate() {
            let down = matches!(
                results[i],
                Some(Resolved { outcome: Outcome::ShardDown, .. })
            );
            if !down {
                continue;
            }
            let home = route(req.id, n_shards);
            if let Some(target) = self.next_healthy(home, req.arrival) {
                retry_parts[target].push(*req);
                retry_idxs[target].push(i);
            }
        }
        for k in 0..n_shards {
            if retry_parts[k].is_empty() {
                continue;
            }
            self.hedged += retry_parts[k].len() as u64;
            bf_obs::counter("fleet.hedged").add(retry_parts[k].len() as u64);
            let out = self.shards[k].run(&retry_parts[k]);
            for (&i, r) in retry_idxs[k].iter().zip(out) {
                results[i] = Some(r);
            }
        }
    }

    /// The first shard after `home` (wrapping, excluding `home`) with
    /// no down window covering `tick`. `None` when every other shard is
    /// down at that tick (or the fleet has one shard).
    fn next_healthy(&self, home: usize, tick: u64) -> Option<usize> {
        let n = self.shards.len();
        (1..n)
            .map(|step| (home + step) % n)
            .find(|&k| !self.windows[k].iter().any(|&(start, end)| tick >= start && tick < end))
    }

    /// Aggregate per-shard health, publishing `fleet.*` gauges.
    pub fn health(&self) -> FleetHealth {
        let shards: Vec<HealthSnapshot> = self.shards.iter().map(Service::health).collect();
        let flaps: Vec<u64> = self.shards.iter().map(Service::breaker_flaps).collect();
        let health = FleetHealth { shards, flaps, hedged: self.hedged };
        bf_obs::gauge("fleet.shard_down").set(health.total(|s| s.shard_down) as f64);
        bf_obs::gauge("fleet.restarts").set(health.total(|s| s.restarts) as f64);
        bf_obs::gauge("fleet.flaps").set(health.flaps.iter().sum::<u64>() as f64);
        bf_obs::gauge("fleet.hedged").set(health.hedged as f64);
        health
    }

    /// Record fleet topology and per-shard breaker/outcome state into a
    /// run manifest.
    pub fn record_in_manifest(&self, mb: &mut bf_obs::ManifestBuilder) {
        mb.config("fleet.shards", self.shards.len().to_string());
        mb.config("fleet.kill_plan", self.kill_summary.clone());
        mb.config("fleet.hedged", self.hedged.to_string());
        for (k, shard) in self.shards.iter().enumerate() {
            let h = shard.health();
            mb.config(
                &format!("fleet.shard{k}.breaker_transitions"),
                shard.breaker().transitions_summary(),
            );
            mb.config(
                &format!("fleet.shard{k}.outcomes"),
                format!(
                    "submitted={} predictions={} degraded={} timeouts={} shed={} failed={} \
                     shard_down={} restarts={} flaps={}",
                    h.submitted,
                    h.predictions,
                    h.degraded,
                    h.timeouts,
                    h.shed,
                    h.failed,
                    h.shard_down,
                    h.restarts,
                    shard.breaker_flaps()
                ),
            );
        }
    }
}

/// Convert one shard's ascending kill ticks into sorted, non-overlapping
/// half-open down windows. Consecutive kills back off exponentially
/// (attempt index grows per *observed* kill); a kill landing inside an
/// earlier window is coalesced — the shard was already down.
fn down_windows(kills: &[u64], backoff: &BackoffPolicy, shard: usize) -> Vec<(u64, u64)> {
    let mut windows: Vec<(u64, u64)> = Vec::new();
    let mut attempt = 0u32;
    for &kill in kills {
        if let Some(&(_, end)) = windows.last() {
            if kill < end {
                continue;
            }
        }
        let delay = backoff.delay_units(RESTART_SEED, shard as u64, attempt).max(1);
        windows.push((kill, kill.saturating_add(delay)));
        attempt += 1;
    }
    windows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_is_stable_and_in_range() {
        for shards in [1usize, 2, 4, 7] {
            for id in 0..500u64 {
                let k = route(id, shards);
                assert!(k < shards);
                assert_eq!(k, route(id, shards), "routing must be pure");
            }
        }
        // The hash spreads load: with 4 shards and 1000 ids, every
        // shard sees a meaningful share.
        let mut counts = [0usize; 4];
        for id in 0..1000u64 {
            counts[route(id, 4)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 150), "skewed routing: {counts:?}");
    }

    #[test]
    fn down_windows_back_off_exponentially_and_coalesce() {
        let backoff = BackoffPolicy { base_units: 100, max_units: 800, jitter: 0.0 };
        // Second kill lands inside the first window: coalesced. Third
        // kill is a genuine second outage: doubled delay.
        let w = down_windows(&[1_000, 1_050, 5_000, 20_000], &backoff, 0);
        assert_eq!(w, vec![(1_000, 1_100), (5_000, 5_200), (20_000, 20_400)]);
        assert!(down_windows(&[], &backoff, 0).is_empty());
    }

    #[test]
    fn down_windows_respect_the_cap() {
        let backoff = BackoffPolicy { base_units: 100, max_units: 150, jitter: 0.0 };
        let w = down_windows(&[0, 1_000, 2_000], &backoff, 3);
        assert_eq!(w[0].1 - w[0].0, 100);
        assert_eq!(w[1].1 - w[1].0, 150, "exponential delay is capped");
        assert_eq!(w[2].1 - w[2].0, 150);
    }
}
