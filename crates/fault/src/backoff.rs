//! Deterministic seeded retry backoff.
//!
//! The collection repair loop in `bf-core` retries transient faults and
//! structural re-collections. Offline collection retries at once; an
//! online service must instead *wait* between attempts so a struggling
//! collector is not hammered, so the serving path hands the loop a
//! [`BackoffPolicy`] and charges each wait against the request's
//! [`crate::CancelToken`]. The delay schedule is the classic exponential
//! backoff with jitter, but fully deterministic: the jitter for attempt
//! `k` of trace `t` under plan seed `s` is a pure function of
//! `(s, t, k)`, so a replayed chaos run waits exactly as long (in
//! virtual work units) as the original and lands on the same deadline
//! verdicts.

use bf_stats::rng::{combine_seeds, SeedRng};

/// Stream label separating backoff jitter from every other consumer of
/// the plan seed.
const BACKOFF_STREAM: u64 = 0xB0FF;

/// An exponential-backoff-with-jitter schedule, measured in the same
/// virtual work units as [`crate::CancelToken`] budgets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackoffPolicy {
    /// Delay before the first retry (attempt 0), pre-jitter.
    pub base_units: u64,
    /// Cap on the pre-jitter exponential delay.
    pub max_units: u64,
    /// Jitter amplitude as a fraction of the capped delay: the jittered
    /// delay is `d + uniform[0, jitter * d)`. 0 disables jitter.
    pub jitter: f64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy { base_units: 25, max_units: 400, jitter: 0.5 }
    }
}

impl BackoffPolicy {
    /// The delay (in work units) to wait before retry `attempt` of trace
    /// `trace_id` under `plan_seed`: `min(base · 2^attempt, max)` plus
    /// seeded jitter. **Pure**: depends only on `(plan_seed, trace_id,
    /// attempt)` and the policy's own fields — never on wall clock,
    /// thread, or call order.
    pub fn delay_units(&self, plan_seed: u64, trace_id: u64, attempt: u32) -> u64 {
        let exp = self
            .base_units
            .saturating_mul(1u64.checked_shl(attempt.min(63)).unwrap_or(u64::MAX))
            .min(self.max_units);
        if self.jitter <= 0.0 || exp == 0 {
            return exp;
        }
        let mut rng = SeedRng::new(combine_seeds(
            plan_seed,
            combine_seeds(BACKOFF_STREAM, combine_seeds(trace_id, u64::from(attempt))),
        ));
        let jitter = (exp as f64 * self.jitter * rng.uniform()).floor() as u64;
        exp.saturating_add(jitter)
    }

    /// Total delay across retries `0..attempts` (what a request that
    /// exhausted `attempts` retries waited in aggregate).
    pub fn total_units(&self, plan_seed: u64, trace_id: u64, attempts: u32) -> u64 {
        (0..attempts).map(|a| self.delay_units(plan_seed, trace_id, a)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_exponential_before_jitter() {
        let p = BackoffPolicy { base_units: 10, max_units: 1_000, jitter: 0.0 };
        assert_eq!(p.delay_units(1, 2, 0), 10);
        assert_eq!(p.delay_units(1, 2, 1), 20);
        assert_eq!(p.delay_units(1, 2, 2), 40);
        assert_eq!(p.delay_units(1, 2, 10), 1_000, "capped at max_units");
        assert_eq!(p.delay_units(1, 2, 63), 1_000, "shift overflow saturates at the cap");
    }

    #[test]
    fn jitter_stays_within_the_documented_band() {
        let p = BackoffPolicy { base_units: 100, max_units: 400, jitter: 0.5 };
        for trace in 0..200u64 {
            for attempt in 0..4 {
                let exp = (100u64 << attempt).min(400);
                let d = p.delay_units(7, trace, attempt);
                assert!(d >= exp, "jitter never shortens the delay");
                assert!((d as f64) < exp as f64 * 1.5 + 1.0, "d = {d}, exp = {exp}");
            }
        }
    }

    #[test]
    fn distinct_traces_get_distinct_jitter() {
        let p = BackoffPolicy::default();
        let delays: std::collections::BTreeSet<u64> =
            (0..64).map(|t| p.delay_units(1, t, 1)).collect();
        assert!(delays.len() > 8, "jitter must decorrelate traces: {delays:?}");
    }

    #[test]
    fn total_units_sums_the_schedule() {
        let p = BackoffPolicy { base_units: 10, max_units: 1_000, jitter: 0.0 };
        assert_eq!(p.total_units(3, 4, 3), 10 + 20 + 40);
        assert_eq!(p.total_units(3, 4, 0), 0);
    }
}
