//! Open-system load model for fleet-scale serving benchmarks.
//!
//! The closed-loop `open_loop_arrivals` stream draws one request at a
//! time with exponential gaps — fine for exercising a single service,
//! but population-scale traffic is *open-system*: victims arrive as a
//! Poisson process, browse a handful of sites with think-time gaps
//! between visits, and leave. Site popularity follows a Zipf law over
//! the Appendix-A catalog (a few head sites dominate, a long tail gets
//! occasional hits).
//!
//! [`open_system_requests`] generates exactly that, deterministically:
//!
//! * **Session arrivals** — a Poisson process (exponential inter-start
//!   gaps of mean [`LoadConfig::session_gap_units`]) on the main stream.
//! * **Session shape** — each session draws its visit count
//!   (Poisson around [`LoadConfig::mean_visits`], floored at one) and
//!   per-visit think gaps (exponential of mean
//!   [`LoadConfig::think_units`]) from its own forked stream, so one
//!   session's length never perturbs its neighbours.
//! * **Site choice** — each visit samples a [`bf_stats::Zipf`] rank
//!   with exponent [`LoadConfig::zipf_exponent`] over the catalog.
//!
//! Every draw comes from [`SeedRng`] streams forked off the input seed:
//! the emitted request vector is a pure function of
//! `(cfg, n_requests, n_sites, seed)`, byte-identical across runs,
//! machines, and thread counts.

use bf_serve::ServeRequest;
use bf_stats::rng::{combine_seeds, SeedRng};
use bf_stats::Zipf;

/// Stream id of the session-arrival process.
const ARRIVALS_SEED: u64 = 0x10AD_5E55;

/// Shape of the open-system arrival process.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadConfig {
    /// Mean virtual units between session starts (Poisson arrivals).
    pub session_gap_units: f64,
    /// Mean visits per session (Poisson, floored at one visit).
    pub mean_visits: f64,
    /// Mean think gap between a session's consecutive visits, in
    /// virtual units.
    pub think_units: f64,
    /// Zipf popularity exponent over the site catalog: `0` is uniform,
    /// larger skews harder toward the head.
    pub zipf_exponent: f64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            // Sessions every ~300 units with ~6 visits of ~150-unit
            // work each: a 4-shard fleet keeps up, a single shard
            // visibly saturates.
            session_gap_units: 300.0,
            mean_visits: 6.0,
            think_units: 100.0,
            zipf_exponent: 1.1,
        }
    }
}

/// Generate the first `n_requests` visits of an open-system population:
/// Poisson session arrivals, per-session think-gap visit trains, and
/// Zipf site popularity over `n_sites` catalog entries. Requests come
/// back sorted by `(arrival, id)` with ids `0..n_requests` assigned in
/// that order; each request's trace seed is `combine_seeds(seed, id)`.
///
/// # Panics
///
/// Panics when `n_sites == 0`, a rate is not positive, or the Zipf
/// exponent is not a finite non-negative number.
pub fn open_system_requests(
    cfg: &LoadConfig,
    n_requests: usize,
    n_sites: usize,
    seed: u64,
) -> Vec<ServeRequest> {
    assert!(
        cfg.session_gap_units > 0.0 && cfg.mean_visits > 0.0 && cfg.think_units > 0.0,
        "load rates must be positive: {cfg:?}"
    );
    let zipf = Zipf::new(n_sites, cfg.zipf_exponent).expect("valid Zipf popularity law");
    let mut arrivals = SeedRng::new(combine_seeds(seed, ARRIVALS_SEED));
    // (arrival, session, visit, site): the session/visit components
    // break arrival ties deterministically before ids are assigned.
    let mut visits: Vec<(u64, u64, u64, usize)> = Vec::with_capacity(n_requests * 2);
    let mut session_start = 0.0f64;
    let mut session_idx = 0u64;
    while visits.len() < n_requests {
        session_start += arrivals.exponential(cfg.session_gap_units);
        // Independent per-session stream: a session's visit train is
        // invariant to every other session.
        let mut session = arrivals.fork(session_idx);
        let n_visits = session.poisson(cfg.mean_visits).max(1);
        let mut at = session_start;
        for visit in 0..n_visits {
            if visit > 0 {
                at += session.exponential(cfg.think_units);
            }
            visits.push((at as u64, session_idx, visit, zipf.sample(&mut session)));
        }
        session_idx += 1;
    }
    visits.sort_unstable();
    visits.truncate(n_requests);
    visits
        .into_iter()
        .enumerate()
        .map(|(id, (arrival, _, _, site))| ServeRequest {
            id: id as u64,
            site,
            seed: combine_seeds(seed, id as u64),
            arrival,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_bit_deterministic_and_sorted() {
        let cfg = LoadConfig::default();
        let a = open_system_requests(&cfg, 200, 10, 7);
        let b = open_system_requests(&cfg, 200, 10, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 200);
        assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival), "sorted by arrival");
        assert!(a.iter().enumerate().all(|(i, r)| r.id == i as u64), "ids follow arrival order");
        assert!(a.iter().all(|r| r.site < 10), "sites stay inside the catalog");
        let c = open_system_requests(&cfg, 200, 10, 8);
        assert_ne!(a, c, "different seeds give different streams");
    }

    #[test]
    fn zipf_head_dominates_the_tail() {
        let cfg = LoadConfig { zipf_exponent: 1.3, ..LoadConfig::default() };
        let reqs = open_system_requests(&cfg, 3_000, 20, 11);
        let mut counts = vec![0usize; 20];
        for r in &reqs {
            counts[r.site] += 1;
        }
        assert!(
            counts[0] > counts[10] && counts[0] > counts[19],
            "rank 0 must dominate the tail: {counts:?}"
        );
    }

    #[test]
    fn sessions_cluster_visits_in_time() {
        // With think gaps far below the session gap, consecutive
        // requests are mostly intra-session: the mean gap of the merged
        // stream sits well under the session gap.
        let cfg = LoadConfig {
            session_gap_units: 10_000.0,
            mean_visits: 8.0,
            think_units: 50.0,
            ..LoadConfig::default()
        };
        let reqs = open_system_requests(&cfg, 400, 5, 3);
        let gaps: Vec<u64> = reqs.windows(2).map(|w| w[1].arrival - w[0].arrival).collect();
        let mean_gap = gaps.iter().sum::<u64>() as f64 / gaps.len() as f64;
        assert!(
            mean_gap < 5_000.0,
            "visit trains must cluster well below the session gap, got {mean_gap}"
        );
    }
}
