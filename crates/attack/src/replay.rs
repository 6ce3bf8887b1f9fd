//! The shared attack-replay engine.
//!
//! Implements the counting loop of Fig. 2 exactly, but in closed form per
//! period instead of per iteration (see the crate docs for the argument
//! that the two are equivalent).

use crate::trace::Trace;
use bf_sim::CoreTimeline;
use bf_timer::{Nanos, Timer};

/// Detailed per-period record, used by Fig. 8 (period-duration
/// distributions) and by debugging tools.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeriodRecord {
    /// Real time at which the period's first iteration started.
    pub start_real: Nanos,
    /// Real time at which the attacker observed the period boundary.
    pub end_real: Nanos,
    /// Observed (timer) start value.
    pub start_observed: Nanos,
    /// Iterations counted.
    pub count: f64,
}

impl PeriodRecord {
    /// The real-time length of this attacker loop (Fig. 8's x-axis).
    pub fn real_duration(&self) -> Nanos {
        self.end_real - self.start_real
    }
}

/// Deposit one period's count into the trace, split proportionally over
/// the slots its *observed* span `[start_obs, end_obs)` covers.
///
/// The Fig. 2 pseudo-code writes `Trace[t_begin] = counter`, but period
/// starts drift (each loop overshoots its boundary by up to one
/// iteration — ~150 µs for a cache sweep), so literal last-write-wins
/// indexing leaves pseudo-random empty slots that are measurement
/// artifacts, not signal. Real attack pipelines bin by time exactly as
/// done here.
fn deposit(values: &mut [f64], period: Nanos, start_obs: Nanos, end_obs: Nanos, count: f64) {
    let slots = values.len();
    if end_obs <= start_obs {
        let idx = (start_obs / period) as usize;
        if idx < slots {
            values[idx] += count;
        }
        return;
    }
    let span = (end_obs - start_obs).as_nanos() as f64;
    let first = (start_obs / period) as usize;
    let last = ((end_obs - Nanos(1)) / period) as usize;
    #[allow(clippy::needless_range_loop)] // indices are time-slot ids, not positions
    for idx in first..=last {
        if idx >= slots {
            break;
        }
        let slot_start = period * idx as u64;
        let slot_end = slot_start + period;
        let lo = start_obs.max(slot_start);
        let hi = end_obs.min(slot_end);
        if hi > lo {
            values[idx] += count * (hi - lo).as_nanos() as f64 / span;
        }
    }
}

/// Replay a constant-cost counting loop (the loop-counting attacker, and
/// the inner mechanics of the Python/native attacker).
///
/// * `timeline` — the attacker core's gap/frequency timeline;
/// * `timer` — the clock the attacker is allowed to read;
/// * `period` — the attacker parameter `P`;
/// * `iteration_cost` — reference-nanoseconds per `counter++; time()`
///   iteration.
///
/// Returns the trace plus per-period records.
///
/// # Panics
///
/// Panics when `period` or `iteration_cost` is zero.
pub fn replay_counting_loop(
    timeline: &CoreTimeline,
    timer: &mut dyn Timer,
    period: Nanos,
    iteration_cost: Nanos,
) -> (Trace, Vec<PeriodRecord>) {
    assert!(period > Nanos::ZERO, "period must be positive");
    assert!(iteration_cost > Nanos::ZERO, "iteration cost must be positive");
    let duration = timeline.duration();
    let slots = (duration / period) as usize;
    let mut values = vec![0.0; slots]; // alloc-ok: the returned trace
    let mut records = Vec::with_capacity(slots); // alloc-ok: the returned records
    let cost = iteration_cost.as_nanos() as f64;

    let mut cursor = timeline.cursor();
    let mut now = cursor.next_runnable(Nanos::ZERO);
    let mut carry = 0.0;
    while now < duration {
        let start_observed = timer.observe(now);
        let target = start_observed + period;
        let exit = timer.earliest_at_or_above(now, target);
        // The attacker only notices the boundary at an iteration end; if
        // the crossing lands inside a gap, user code resumes at gap end.
        let end_real = cursor.next_runnable(exit).max(now);
        if end_real >= duration {
            break; // partial final period is discarded, as in the paper
        }
        let work = cursor.work_between(now, end_real) + carry;
        let count = (work / cost).floor();
        carry = work - count * cost;
        let end_observed = timer.observe(end_real);
        deposit(&mut values, period, start_observed, end_observed, count);
        records.push(PeriodRecord { start_real: now, end_real, start_observed, count });
        // Guarantee forward progress even if the timer jumped a whole
        // period ahead instantaneously.
        now = if end_real > now { end_real } else { now + iteration_cost };
    }

    (Trace::new(period, values), records)
}

/// Replay a counting loop whose iteration cost varies per iteration (the
/// sweep-counting attacker: each "iteration" is a full LLC sweep whose
/// duration depends on victim cache activity). Iterations are stepped
/// individually, one [`bf_sim::TimelineCursor::real_time_after_work`]
/// query each. A ~150 µs sweep moves the cursor past a gap or a
/// frequency step only now and then, so a step costs amortised `O(1)`
/// and a trace costs time linear in its sweeps.
///
/// `sweep_cost` receives the real time at which the sweep begins and
/// returns its cost in reference-nanoseconds.
///
/// # Panics
///
/// Panics when `period` is zero.
pub fn replay_stepped_loop(
    timeline: &CoreTimeline,
    timer: &mut dyn Timer,
    period: Nanos,
    mut sweep_cost: impl FnMut(Nanos) -> f64,
) -> (Trace, Vec<PeriodRecord>) {
    assert!(period > Nanos::ZERO, "period must be positive");
    let duration = timeline.duration();
    let slots = (duration / period) as usize;
    let mut values = vec![0.0; slots]; // alloc-ok: the returned trace
    let mut records = Vec::with_capacity(slots); // alloc-ok: the returned records

    let mut cursor = timeline.cursor();
    let mut now = cursor.next_runnable(Nanos::ZERO);
    'outer: while now < duration {
        let start_real = now;
        let start_observed = timer.observe(now);
        let target = start_observed + period;
        let mut count = 0.0;
        loop {
            let cost = sweep_cost(now).max(1.0);
            let end = cursor.real_time_after_work(now, cost);
            if end >= duration {
                break 'outer;
            }
            count += 1.0;
            now = end;
            if timer.observe(now) >= target {
                break;
            }
        }
        let end_observed = timer.observe(now);
        deposit(&mut values, period, start_observed, end_observed, count);
        records.push(PeriodRecord { start_real, end_real: now, start_observed, count });
    }

    (Trace::new(period, values), records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bf_sim::{Gap, GapCause, InterruptKind};
    use bf_stats::StepSeries;
    use bf_timer::PreciseTimer;

    fn idle(ms: u64) -> CoreTimeline {
        CoreTimeline::idle(Nanos::from_millis(ms))
    }

    #[test]
    fn idle_machine_counts_match_closed_form() {
        let tl = idle(100);
        let mut timer = PreciseTimer::new();
        let (trace, recs) =
            replay_counting_loop(&tl, &mut timer, Nanos::from_millis(5), Nanos::from_nanos(185));
        assert_eq!(trace.len(), 20);
        // 5 ms / 185 ns = 27 027.03 per period.
        for &v in &trace.values()[..19] {
            assert!((v - 27_027.0).abs() <= 1.0, "v = {v}");
        }
        assert_eq!(recs.len(), 19); // final period discarded at boundary
    }

    #[test]
    fn gaps_reduce_counts() {
        // One 1 ms interrupt gap inside the second period.
        let gaps = vec![Gap {
            start: Nanos::from_millis(6),
            end: Nanos::from_millis(7),
            cause: GapCause::Interrupt(InterruptKind::TimerTick),
        }];
        let tl = CoreTimeline::new(Nanos::from_millis(100), gaps, StepSeries::new(1.0));
        let mut timer = PreciseTimer::new();
        let (trace, _) =
            replay_counting_loop(&tl, &mut timer, Nanos::from_millis(5), Nanos::from_nanos(185));
        let v = trace.values();
        // Period 1 lost 1 ms of its 5 ms: counts ~ 4/5 of baseline.
        assert!((v[1] / v[0] - 0.8).abs() < 0.01, "ratio = {}", v[1] / v[0]);
        assert!((v[2] - v[0]).abs() <= 2.0);
    }

    #[test]
    fn total_counts_conserved_under_gap_placement() {
        // Moving a gap around changes which period dips, not the total.
        let mk = |gap_at_ms: u64| {
            let gaps = vec![Gap {
                start: Nanos::from_millis(gap_at_ms),
                end: Nanos::from_millis(gap_at_ms + 2),
                cause: GapCause::Interrupt(InterruptKind::TimerTick),
            }];
            let tl = CoreTimeline::new(Nanos::from_millis(200), gaps, StepSeries::new(1.0));
            let mut timer = PreciseTimer::new();
            let (trace, _) =
                replay_counting_loop(&tl, &mut timer, Nanos::from_millis(5), Nanos::from_nanos(200));
            trace.total()
        };
        let a = mk(20);
        let b = mk(120);
        assert!((a - b).abs() <= 2.0, "a={a} b={b}");
    }

    #[test]
    fn frequency_droop_reduces_counts() {
        let mut freq = StepSeries::new(1.0);
        freq.push(Nanos::from_millis(50).as_nanos(), 0.9);
        let tl = CoreTimeline::new(Nanos::from_millis(100), Vec::new(), freq);
        let mut timer = PreciseTimer::new();
        let (trace, _) =
            replay_counting_loop(&tl, &mut timer, Nanos::from_millis(5), Nanos::from_nanos(185));
        let early = trace.values()[2];
        let late = trace.values()[15];
        assert!((late / early - 0.9).abs() < 0.01, "ratio = {}", late / early);
    }

    #[test]
    fn period_records_cover_duration() {
        let tl = idle(50);
        let mut timer = PreciseTimer::new();
        let (_, recs) =
            replay_counting_loop(&tl, &mut timer, Nanos::from_millis(5), Nanos::from_nanos(185));
        for w in recs.windows(2) {
            assert_eq!(w[0].end_real, w[1].start_real);
        }
        for r in &recs {
            assert_eq!(r.real_duration(), Nanos::from_millis(5));
        }
    }

    #[test]
    fn stepped_loop_counts_sweeps() {
        let tl = idle(100);
        let mut timer = PreciseTimer::new();
        // Constant 150 µs sweeps: ~33 per 5 ms period.
        let (trace, _) = replay_stepped_loop(&tl, &mut timer, Nanos::from_millis(5), |_| 150_000.0);
        for &v in &trace.values()[..19] {
            assert!((33.0..35.0).contains(&v), "v = {v}");
        }
    }

    #[test]
    fn stepped_loop_slow_sweeps_lower_counts() {
        let tl = idle(100);
        let mut t1 = PreciseTimer::new();
        let (fast, _) = replay_stepped_loop(&tl, &mut t1, Nanos::from_millis(5), |_| 150_000.0);
        let mut t2 = PreciseTimer::new();
        let (slow, _) = replay_stepped_loop(&tl, &mut t2, Nanos::from_millis(5), |_| 250_000.0);
        assert!(slow.values()[5] < fast.values()[5]);
    }

    #[test]
    fn coarse_timer_loses_fine_temporal_resolution() {
        // A 100 ms quantized timer with P = 5 ms: the attacker cannot see
        // 5 ms boundaries, so each loop runs ~100 ms (paper §6.1 /
        // Fig. 8a) and its count is spread uniformly over the ~20 slots
        // the observed span covers — per-slot values carry only 100 ms
        // granularity.
        use bf_timer::QuantizedTimer;
        let tl = idle(1_000);
        let mut timer = QuantizedTimer::new(Nanos::from_millis(100));
        let (trace, recs) =
            replay_counting_loop(&tl, &mut timer, Nanos::from_millis(5), Nanos::from_nanos(185));
        for r in &recs {
            assert!(r.real_duration() >= Nanos::from_millis(95));
        }
        // Slots inside a covered window are uniform at ~27k/slot.
        let v = trace.values();
        let covered: Vec<f64> = v.iter().copied().filter(|&x| x > 0.0).collect();
        assert!(covered.len() >= 150, "covered = {}", covered.len());
        let mean: f64 = covered.iter().sum::<f64>() / covered.len() as f64;
        assert!((26_000.0..28_500.0).contains(&mean), "mean = {mean}");
        for w in covered.windows(2).take(15) {
            assert!((w[0] - w[1]).abs() < mean * 0.1, "{} vs {}", w[0], w[1]);
        }
    }

    #[test]
    fn randomized_timer_destroys_period_measurement() {
        use bf_timer::RandomizedTimer;
        let tl = idle(2_000);
        let mut timer = RandomizedTimer::with_defaults(3);
        let (_, recs) =
            replay_counting_loop(&tl, &mut timer, Nanos::from_millis(5), Nanos::from_nanos(185));
        // Real durations of "5 ms" loops must vary wildly (Fig. 8c).
        let durations: Vec<f64> =
            recs.iter().map(|r| r.real_duration().as_millis_f64()).collect();
        let min = durations.iter().copied().fold(f64::INFINITY, f64::min);
        let max = durations.iter().copied().fold(0.0, f64::max);
        assert!(max > min * 3.0, "min={min} max={max}");
        assert!(max > 15.0, "max={max}");
    }

    #[test]
    fn replay_is_deterministic() {
        let tl = idle(100);
        let mut t1 = bf_timer::JitteredTimer::new(Nanos::from_micros(100), 9);
        let mut t2 = bf_timer::JitteredTimer::new(Nanos::from_micros(100), 9);
        let (a, _) =
            replay_counting_loop(&tl, &mut t1, Nanos::from_millis(5), Nanos::from_nanos(185));
        let (b, _) =
            replay_counting_loop(&tl, &mut t2, Nanos::from_millis(5), Nanos::from_nanos(185));
        assert_eq!(a, b);
    }
}
