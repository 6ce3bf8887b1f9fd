//! Chaos suite for the `bf-serve` fleet: shard crashes are *fault
//! domains*, not outages. Killing shard k must (1) resolve that shard's
//! queued and arriving requests as explicit `ShardDown`, (2) leave every
//! sibling's outcomes bit-identical to a no-fault run, (3) restart the
//! shard within the configured backoff with a fresh closed breaker, and
//! (4) replay bit-identically for a fixed
//! `(seed, BF_THREADS, BF_FLEET_SHARDS, kill plan)`.
//!
//! Run alone via `cargo test -p bf-core --test fleet_chaos`; CI runs it
//! under `BF_THREADS=1` and `BF_THREADS=4`.

use bf_core::collect::{AttackKind, CollectionConfig};
use bf_core::scale::ExperimentScale;
use bf_fault::{BackoffPolicy, FaultPlan, ShardKillPlan};
use bf_ml::{CentroidClassifier, Classifier, Dataset};
use bf_serve::{
    open_loop_arrivals, route, Fleet, FleetConfig, Outcome, ServeConfig, Service,
};
use bf_timer::BrowserKind;
use bf_victim::{Catalog, WebsiteProfile};

/// Serializes tests: fleets mutate process-global metric counters.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

const N_SITES: usize = 3;
const N_SHARDS: usize = 4;

fn collection(plan: FaultPlan) -> CollectionConfig {
    CollectionConfig::new(BrowserKind::Chrome, AttackKind::LoopCounting)
        .with_scale(ExperimentScale::Smoke)
        .with_faults(plan)
}

fn sites() -> Vec<WebsiteProfile> {
    Catalog::closed_world_subset(N_SITES).sites().to_vec()
}

fn fitted_centroid() -> CentroidClassifier {
    let clean = collection(FaultPlan::off());
    let mut data = Dataset::new(N_SITES);
    for (label, site) in sites().iter().enumerate() {
        for rep in 0..2u64 {
            let trace = clean.collect_trace(site, 4_000 + rep * 17 + label as u64);
            data.push(clean.featurize(&trace), label);
        }
    }
    let mut c = CentroidClassifier::new(N_SITES);
    c.fit(&data, &Dataset::new(N_SITES));
    c
}

/// 300-unit restart backoff, no jitter: window lengths are exact.
fn fleet_config() -> FleetConfig {
    FleetConfig {
        shards: N_SHARDS,
        hedge: false,
        restart_backoff: BackoffPolicy { base_units: 300, max_units: 2_400, jitter: 0.0 },
        serve: ServeConfig::default(),
    }
}

fn fleet(cfg: &FleetConfig, kills: &ShardKillPlan) -> Fleet {
    let model = fitted_centroid();
    Fleet::new(cfg, kills, |_| {
        Service::new(
            collection(FaultPlan::off()),
            sites(),
            Box::new(model.clone()),
            model.clone(),
            cfg.serve.clone(),
        )
    })
}

/// An arrival stream long and dense enough that every shard sees
/// traffic before, during, and after the kill window.
fn requests() -> Vec<bf_serve::ServeRequest> {
    open_loop_arrivals(120, N_SITES, 30.0, 4242)
}

#[test]
fn killing_one_shard_leaves_every_sibling_bit_identical() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let cfg = fleet_config();
    let reqs = requests();
    let clean = fleet(&cfg, &ShardKillPlan::off()).run(&reqs);
    assert!(clean.iter().all(|r| r.outcome != Outcome::ShardDown));

    let kills = ShardKillPlan::new([(1, 800)]);
    let mut chaos_fleet = fleet(&cfg, &kills);
    let chaos = chaos_fleet.run(&reqs);
    assert_eq!(chaos.len(), reqs.len());

    let mut downed = 0usize;
    let mut changed_elsewhere = Vec::new();
    for (c, k) in clean.iter().zip(&chaos) {
        let shard = route(c.id, N_SHARDS);
        if shard == 1 {
            if k.outcome == Outcome::ShardDown {
                downed += 1;
            }
        } else if c != k {
            changed_elsewhere.push(c.id);
        }
    }
    assert!(
        changed_elsewhere.is_empty(),
        "a shard-1 crash leaked into siblings' outcomes: requests {changed_elsewhere:?}"
    );
    assert!(downed > 0, "the kill must catch at least one shard-1 request");

    // The supervisor derived exactly one window of exactly the
    // configured backoff, and booked exactly one restart.
    assert_eq!(chaos_fleet.down_windows_for(1), &[(800, 1_100)]);
    let health = chaos_fleet.health();
    assert_eq!(health.shards[1].restarts, 1);
    assert!(
        (0..N_SHARDS).filter(|&k| k != 1).all(|k| health.shards[k].restarts == 0),
        "siblings never restart"
    );
    // Post-restart, shard 1 serves again: some shard-1 request arriving
    // after the window resolves normally, and the fresh breaker admits
    // primary traffic.
    let recovered = chaos
        .iter()
        .filter(|r| route(r.id, N_SHARDS) == 1 && r.arrival >= 1_100)
        .all(|r| matches!(r.outcome, Outcome::Prediction { .. } | Outcome::Degraded { .. }));
    assert!(recovered, "shard 1 must serve normally after its restart");
    assert!(health.shards[1].ready, "the restarted shard's breaker is closed");
}

#[test]
fn kill_runs_replay_bit_identically_even_with_repeated_kills() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let cfg = fleet_config();
    // Two kills of shard 2 (backoff doubles) plus one of shard 0.
    let kills = ShardKillPlan::new([(2, 500), (2, 1_500), (0, 900)]);
    let reqs = requests();
    let mut f = fleet(&cfg, &kills);
    let first = f.run(&reqs);
    f.reset();
    let second = f.run(&reqs);
    assert_eq!(first, second, "reset + rerun must be bit-identical");
    // A freshly built fleet replays identically too (no hidden state in
    // the factory path).
    let third = fleet(&cfg, &kills).run(&reqs);
    assert_eq!(first, third);
    // Exponential backoff shows up in the derived windows.
    assert_eq!(f.down_windows_for(2), &[(500, 800), (1_500, 2_100)]);
    assert_eq!(f.down_windows_for(0), &[(900, 1_200)]);
    let health = f.health();
    assert_eq!(health.shards[2].restarts, 2);
    assert_eq!(health.shards[0].restarts, 1);
}

#[test]
fn hedged_retry_recovers_shard_down_requests_without_touching_siblings() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let cfg = fleet_config();
    let kills = ShardKillPlan::new([(1, 800)]);
    let reqs = requests();
    let plain = fleet(&cfg, &kills).run(&reqs);
    let hedge_cfg = FleetConfig { hedge: true, ..cfg };
    let mut hedged_fleet = fleet(&hedge_cfg, &kills);
    let hedged = hedged_fleet.run(&reqs);

    let mut recovered = 0usize;
    for (p, h) in plain.iter().zip(&hedged) {
        if p.outcome == Outcome::ShardDown {
            assert_ne!(
                h.outcome,
                Outcome::ShardDown,
                "request {} must be replayed on a healthy shard",
                p.id
            );
            recovered += 1;
        } else {
            assert_eq!(p, h, "hedging may only replace ShardDown records");
        }
    }
    assert!(recovered > 0, "the kill must produce hedgeable requests");
    assert_eq!(hedged_fleet.health().hedged, recovered as u64);
    // Hedged replays are deterministic like everything else.
    hedged_fleet.reset();
    assert_eq!(hedged_fleet.run(&reqs), hedged);
}

#[test]
fn every_request_resolves_exactly_once_across_the_fleet() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let cfg = fleet_config();
    let kills = ShardKillPlan::new([(3, 600)]);
    let reqs = requests();
    let mut f = fleet(&cfg, &kills);
    let resolved = f.run(&reqs);
    assert_eq!(resolved.len(), reqs.len());
    // Records come back in input order with ids preserved.
    for (req, r) in reqs.iter().zip(&resolved) {
        assert_eq!(req.id, r.id);
        assert_eq!(req.arrival, r.arrival);
    }
    // Per-shard tallies cover the stream exactly once.
    let health = f.health();
    let tallied: u64 = health.total(|s| s.resolved());
    assert_eq!(tallied, reqs.len() as u64);
    let submitted: u64 = health.total(|s| s.submitted);
    assert_eq!(submitted, reqs.len() as u64);
    // And the routing actually spread the stream (no degenerate shard).
    let per_shard: Vec<usize> = (0..N_SHARDS)
        .map(|k| reqs.iter().filter(|r| route(r.id, N_SHARDS) == k).count())
        .collect();
    assert!(per_shard.iter().all(|&n| n > 0), "router starved a shard: {per_shard:?}");
}

#[test]
fn outcomes_are_stable_across_thread_counts_per_shard_slice() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    // The wave cap depends on the thread count, so outcomes are only
    // guaranteed stable per fixed BF_THREADS — but a *spaced* stream
    // (single-request waves) must be thread-invariant even through a
    // kill window. This pins the fleet layer adding no thread-shaped
    // nondeterminism of its own.
    // One long outage covering every shard-1 arrival: with 500-unit
    // spacing the queue is empty at any crash tick, so a short window
    // could fall between two shard-1 arrivals and catch nothing.
    let cfg = FleetConfig {
        restart_backoff: BackoffPolicy { base_units: 30_000, max_units: 30_000, jitter: 0.0 },
        ..fleet_config()
    };
    let kills = ShardKillPlan::new([(1, 0)]);
    let reqs: Vec<bf_serve::ServeRequest> = (0..40u64)
        .map(|i| bf_serve::ServeRequest {
            id: i,
            site: (i as usize) % N_SITES,
            seed: 7_000 + i,
            arrival: i * 500,
        })
        .collect();
    let mut by_threads = Vec::new();
    for threads in [1usize, 4] {
        bf_par::set_threads(Some(threads));
        let resolved = fleet(&cfg, &kills).run(&reqs);
        bf_par::set_threads(None);
        by_threads.push(resolved);
    }
    assert_eq!(
        by_threads[0], by_threads[1],
        "spaced fleet streams must be identical at 1 and 4 threads"
    );
    assert!(by_threads[0].iter().any(|r| r.outcome == Outcome::ShardDown));
}
