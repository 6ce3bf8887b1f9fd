//! Per-core execution timelines: when user code ran, and when it was
//! paused by the kernel.
//!
//! A [`CoreTimeline`] is the attacker-facing product of a simulation: a
//! sorted set of non-overlapping [`Gap`]s (intervals where the core was
//! executing kernel handlers or another task) plus the core's effective
//! frequency curve. The attack replays execute user work over the busy-free
//! intervals through a [`TimelineCursor`], whose queries cost amortised
//! `O(1)` while replay time moves forward; the eBPF tooling
//! cross-references gaps against the kernel log.

use crate::interrupt::InterruptKind;
use bf_stats::series::partition_point_from;
use bf_stats::{StepCursor, StepSeries};
use bf_timer::Nanos;

/// Why user code was not running during a gap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GapCause {
    /// An interrupt handler (possibly with further handlers queued
    /// back-to-back; the kernel log holds the full decomposition).
    Interrupt(InterruptKind),
    /// The scheduler ran another task on this core.
    Preemption,
    /// A hardware-level stall with no kernel-side record: Turbo Boost
    /// frequency transitions / SMM. The paper's footnote 4 observes
    /// exactly these — "a significant number of execution gaps that
    /// don't seem to correspond with time spent in the OS" — when Turbo
    /// Boost is enabled, and disables it for the §5.2 analysis.
    Hardware,
}

impl GapCause {
    /// True when the gap was caused by interrupt handling of any kind.
    pub fn is_interrupt(self) -> bool {
        matches!(self, GapCause::Interrupt(_))
    }
}

/// One interval during which user code on a core did not execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gap {
    /// Gap start (user code pauses).
    pub start: Nanos,
    /// Gap end (user code resumes), exclusive.
    pub end: Nanos,
    /// Cause of the *first* pause in this gap.
    pub cause: GapCause,
}

impl Gap {
    /// Gap length.
    pub fn len(&self) -> Nanos {
        self.end - self.start
    }

    /// True for zero-length gaps (filtered out during construction).
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// Overlap between this gap and `[a, b)`, in nanoseconds.
    pub fn overlap(&self, a: Nanos, b: Nanos) -> Nanos {
        let lo = self.start.max(a);
        let hi = self.end.min(b);
        hi.saturating_sub(lo)
    }
}

/// The execution timeline of one core over a simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreTimeline {
    duration: Nanos,
    /// Sorted, non-overlapping, non-empty.
    gaps: Vec<Gap>,
    /// Effective speed multiplier over time (1.0 = nominal frequency).
    freq: StepSeries,
}

impl CoreTimeline {
    /// Build a timeline. Gaps must be sorted by start and non-overlapping;
    /// zero-length gaps are dropped, and adjacent gaps that touch exactly
    /// are merged (the attacker cannot observe a zero-length resumption).
    ///
    /// # Panics
    ///
    /// Panics when gaps are unsorted or overlap.
    pub fn new(duration: Nanos, mut gaps: Vec<Gap>, freq: StepSeries) -> Self {
        // Merge in place (gaps are `Copy`): the construction runs once
        // per core per simulation, so it must not allocate a scratch
        // vector of its own.
        let mut w = 0usize;
        for r in 0..gaps.len() {
            let g = gaps[r];
            if g.is_empty() {
                continue;
            }
            if w > 0 {
                let last = &mut gaps[w - 1];
                assert!(
                    g.start >= last.end,
                    "gaps must be sorted and non-overlapping: {:?} then {:?}",
                    last,
                    g
                );
                if g.start == last.end {
                    last.end = g.end;
                    continue;
                }
            }
            gaps[w] = g;
            w += 1;
        }
        gaps.truncate(w);
        CoreTimeline { duration, gaps, freq }
    }

    /// Dismantle the timeline into `(duration, gaps, freq)` so the gap
    /// and frequency-point storage can be pooled and reused.
    pub fn into_parts(self) -> (Nanos, Vec<Gap>, StepSeries) {
        (self.duration, self.gaps, self.freq)
    }

    /// A copy of this timeline backed by `gaps` and `freq_points`'
    /// storage (both cleared first), so copies can live on pooled
    /// buffers.
    pub fn clone_in(&self, mut gaps: Vec<Gap>, freq_points: Vec<(u64, f64)>) -> Self {
        gaps.clear();
        gaps.extend_from_slice(&self.gaps);
        CoreTimeline {
            duration: self.duration,
            gaps,
            freq: self.freq.clone_in(freq_points),
        }
    }

    /// An always-runnable timeline at nominal frequency (unit tests,
    /// idle-machine baselines).
    pub fn idle(duration: Nanos) -> Self {
        CoreTimeline { duration, gaps: Vec::new(), freq: StepSeries::new(1.0) }
    }

    /// Simulated duration.
    pub fn duration(&self) -> Nanos {
        self.duration
    }

    /// All gaps, sorted by start.
    pub fn gaps(&self) -> &[Gap] {
        &self.gaps
    }

    /// The core's frequency multiplier curve.
    pub fn freq(&self) -> &StepSeries {
        &self.freq
    }

    /// Index of the first gap whose end is after `t`.
    fn first_gap_after(&self, t: Nanos) -> usize {
        self.gaps.partition_point(|g| g.end <= t)
    }

    /// Total gap time inside `[a, b)`.
    ///
    /// # Panics
    ///
    /// Panics when `a > b`.
    pub fn gap_time_between(&self, a: Nanos, b: Nanos) -> Nanos {
        assert!(a <= b, "gap_time_between needs a <= b");
        let mut total = Nanos::ZERO;
        for g in &self.gaps[self.first_gap_after(a)..] {
            if g.start >= b {
                break;
            }
            total += g.overlap(a, b);
        }
        total
    }

    /// User execution time inside `[a, b)` (interval length minus gaps).
    pub fn busy_time_between(&self, a: Nanos, b: Nanos) -> Nanos {
        (b - a) - self.gap_time_between(a, b)
    }

    /// A cursor over this timeline, positioned at time zero.
    pub fn cursor(&self) -> TimelineCursor<'_> {
        TimelineCursor { gaps: &self.gaps, gap: 0, freq: self.freq.cursor() }
    }

    /// User *work* accomplished in `[a, b)`; see
    /// [`TimelineCursor::work_between`].
    ///
    /// # Panics
    ///
    /// Panics when `a > b`.
    pub fn work_between(&self, a: Nanos, b: Nanos) -> f64 {
        self.cursor().work_between(a, b)
    }

    /// The gap containing `t`, if any.
    pub fn gap_containing(&self, t: Nanos) -> Option<&Gap> {
        let i = self.first_gap_after(t);
        self.gaps.get(i).filter(|g| g.start <= t && t < g.end)
    }

    /// The earliest instant at or after `t` when user code runs (skips
    /// over a containing gap).
    pub fn next_runnable(&self, t: Nanos) -> Nanos {
        self.cursor().next_runnable(t)
    }

    /// The earliest real time ≥ `t` by which `work` reference-ns of user
    /// work has been accomplished; see
    /// [`TimelineCursor::real_time_after_work`].
    ///
    /// # Panics
    ///
    /// Panics when `work` is negative, NaN or infinite.
    pub fn real_time_after_work(&self, t: Nanos, work: f64) -> Nanos {
        self.cursor().real_time_after_work(t, work)
    }

    /// Fraction of `[a, b)` spent in interrupt-caused gaps (Fig. 5 helper).
    ///
    /// # Panics
    ///
    /// Panics when `a >= b`.
    pub fn interrupt_share(&self, a: Nanos, b: Nanos) -> f64 {
        assert!(a < b, "interrupt_share needs a < b");
        let mut total = Nanos::ZERO;
        for g in &self.gaps[self.first_gap_after(a)..] {
            if g.start >= b {
                break;
            }
            if g.cause.is_interrupt() {
                total += g.overlap(a, b);
            }
        }
        total.as_nanos() as f64 / (b - a).as_nanos() as f64
    }
}

/// A [`CoreTimeline`] plus where its last query landed: the gap index and
/// a frequency [`StepCursor`]. An attack replay keeps one for a whole
/// trace. Queries may come in any order; each moves forward a few gaps and
/// frequency steps at amortised `O(1)` cost, and a backward query
/// re-seeks by binary search. The timeline's stateless queries each run
/// on a fresh cursor, so both give bit-identical answers.
#[derive(Debug, Clone, Copy)]
pub struct TimelineCursor<'a> {
    gaps: &'a [Gap],
    /// A seek hint: the index of the first gap ending after the last
    /// queried time.
    gap: usize,
    freq: StepCursor<'a>,
}

impl TimelineCursor<'_> {
    /// Move to `t`; returns the index of the first gap ending after it.
    fn seek_gap(&mut self, t: Nanos) -> usize {
        self.gap = partition_point_from(self.gaps, self.gap, |g| g.end <= t);
        self.gap
    }

    /// The earliest instant at or after `t` when user code runs (skips
    /// over a containing gap).
    pub fn next_runnable(&mut self, t: Nanos) -> Nanos {
        match self.gaps.get(self.seek_gap(t)) {
            Some(g) if g.start <= t => g.end,
            _ => t,
        }
    }

    /// User *work* accomplished in `[a, b)`: the integral of the frequency
    /// multiplier over non-gap time, in reference-nanoseconds. An attacker
    /// iteration costing `c` reference-ns completes every `c` units of
    /// work.
    ///
    /// # Panics
    ///
    /// Panics when `a > b`.
    pub fn work_between(&mut self, a: Nanos, b: Nanos) -> f64 {
        assert!(a <= b, "work_between needs a <= b");
        // The whole-span integral runs on a copy of the frequency cursor,
        // so the per-gap integrals below start behind every gap they visit.
        let mut whole = self.freq;
        let mut work = whole.integrate(a.as_nanos(), b.as_nanos());
        let first = self.seek_gap(a);
        let mut i = first;
        while let Some(g) = self.gaps.get(i) {
            if g.start >= b {
                break;
            }
            let lo = g.start.max(a);
            let hi = g.end.min(b);
            if hi > lo {
                work -= self.freq.integrate(lo.as_nanos(), hi.as_nanos());
            }
            i += 1;
        }
        // Leave the gap hint at `b`: of the gaps visited, only the last
        // can end after it.
        self.gap = if i > first && self.gaps[i - 1].end > b { i - 1 } else { i };
        work.max(0.0)
    }

    /// The earliest real time ≥ `t` by which `work` reference-ns of user
    /// work has been accomplished. Inverse of
    /// [`TimelineCursor::work_between`]; used by attack replays to find
    /// when an iteration batch finishes.
    ///
    /// # Panics
    ///
    /// Panics when `work` is negative, NaN or infinite.
    pub fn real_time_after_work(&mut self, t: Nanos, work: f64) -> Nanos {
        assert!(
            work.is_finite() && work >= 0.0,
            "real_time_after_work needs finite, non-negative work, got {work}"
        );
        let start = self.next_runnable(t);
        let mut idx = self.seek_gap(start);
        let mut now = start.as_nanos();
        let mut remaining = work;
        loop {
            // Busy segment [now, seg_end); the frequency may step inside
            // it, so walk its change points too.
            let seg_end = self.gaps.get(idx).map_or(u64::MAX, |g| g.start.as_nanos());
            while now < seg_end {
                let m = self.freq.value_at(now).max(1e-9);
                let next = self.freq.next_change_after(now).map_or(seg_end, |c| c.min(seg_end));
                let capacity = (next - now) as f64 * m;
                if capacity >= remaining {
                    self.gap = idx;
                    return Nanos(now + (remaining / m).ceil() as u64);
                }
                remaining -= capacity;
                now = next;
            }
            let Some(g) = self.gaps.get(idx) else {
                // The segment after the last gap never ends, so it absorbs
                // any finite work at a realistic frequency.
                unreachable!("work not consumed on open-ended busy segment");
            };
            now = g.end.as_nanos();
            idx += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gap(start: u64, end: u64) -> Gap {
        Gap {
            start: Nanos(start),
            end: Nanos(end),
            cause: GapCause::Interrupt(InterruptKind::TimerTick),
        }
    }

    fn tl(gaps: Vec<Gap>) -> CoreTimeline {
        CoreTimeline::new(Nanos(1_000), gaps, StepSeries::new(1.0))
    }

    #[test]
    fn empty_gaps_dropped_and_touching_merged() {
        let t = tl(vec![gap(10, 10), gap(20, 30), gap(30, 40), gap(50, 60)]);
        assert_eq!(t.gaps().len(), 2);
        assert_eq!(t.gaps()[0], gap(20, 40));
        assert_eq!(t.gaps()[1], gap(50, 60));
    }

    #[test]
    #[should_panic(expected = "non-overlapping")]
    fn overlapping_gaps_panic() {
        tl(vec![gap(10, 30), gap(20, 40)]);
    }

    #[test]
    fn into_parts_roundtrips() {
        let t = tl(vec![gap(10, 20), gap(20, 30), gap(50, 60)]);
        let (duration, gaps, freq) = t.clone().into_parts();
        assert_eq!(duration, Nanos(1_000));
        assert_eq!(gaps, t.gaps());
        assert_eq!(CoreTimeline::new(duration, gaps, freq), t);
    }

    #[test]
    fn gap_time_between_sums_overlaps() {
        let t = tl(vec![gap(10, 20), gap(50, 70)]);
        assert_eq!(t.gap_time_between(Nanos(0), Nanos(100)), Nanos(30));
        assert_eq!(t.gap_time_between(Nanos(15), Nanos(60)), Nanos(15));
        assert_eq!(t.gap_time_between(Nanos(20), Nanos(50)), Nanos::ZERO);
        assert_eq!(t.gap_time_between(Nanos(55), Nanos(55)), Nanos::ZERO);
    }

    #[test]
    fn busy_time_complements_gap_time() {
        let t = tl(vec![gap(10, 20), gap(50, 70)]);
        assert_eq!(t.busy_time_between(Nanos(0), Nanos(100)), Nanos(70));
    }

    #[test]
    fn work_equals_busy_time_at_unit_frequency() {
        let t = tl(vec![gap(10, 20)]);
        assert_eq!(t.work_between(Nanos(0), Nanos(100)), 90.0);
    }

    #[test]
    fn work_scales_with_frequency() {
        let mut freq = StepSeries::new(1.0);
        freq.push(50, 0.5);
        let t = CoreTimeline::new(Nanos(1_000), vec![gap(10, 20)], freq);
        // [0,100): busy 0-10 (10 @1.0) + 20-50 (30 @1.0) + 50-100 (50 @0.5)
        assert_eq!(t.work_between(Nanos(0), Nanos(100)), 10.0 + 30.0 + 25.0);
    }

    #[test]
    fn next_runnable_skips_gap() {
        let t = tl(vec![gap(10, 20)]);
        assert_eq!(t.next_runnable(Nanos(5)), Nanos(5));
        assert_eq!(t.next_runnable(Nanos(10)), Nanos(20));
        assert_eq!(t.next_runnable(Nanos(15)), Nanos(20));
        assert_eq!(t.next_runnable(Nanos(20)), Nanos(20));
    }

    #[test]
    fn gap_containing_boundaries() {
        let t = tl(vec![gap(10, 20)]);
        assert!(t.gap_containing(Nanos(9)).is_none());
        assert!(t.gap_containing(Nanos(10)).is_some());
        assert!(t.gap_containing(Nanos(19)).is_some());
        assert!(t.gap_containing(Nanos(20)).is_none());
    }

    #[test]
    fn real_time_after_work_without_gaps() {
        let t = tl(vec![]);
        assert_eq!(t.real_time_after_work(Nanos(0), 100.0), Nanos(100));
    }

    #[test]
    fn real_time_after_work_skips_gaps() {
        let t = tl(vec![gap(10, 30)]);
        // 15 units of work: 10 before the gap, 5 after -> finish at 35.
        assert_eq!(t.real_time_after_work(Nanos(0), 15.0), Nanos(35));
    }

    #[test]
    fn real_time_after_work_starting_inside_gap() {
        let t = tl(vec![gap(10, 30)]);
        assert_eq!(t.real_time_after_work(Nanos(15), 5.0), Nanos(35));
    }

    #[test]
    fn real_time_after_work_roundtrips_with_work_between() {
        let t = tl(vec![gap(10, 30), gap(100, 120), gap(300, 305)]);
        for &w in &[1.0, 25.0, 73.0, 400.0] {
            let fin = t.real_time_after_work(Nanos(0), w);
            let back = t.work_between(Nanos(0), fin);
            assert!((back - w).abs() <= 1.0, "w={w} fin={fin} back={back}");
        }
    }

    #[test]
    fn real_time_after_work_with_frequency_steps() {
        let mut freq = StepSeries::new(1.0);
        freq.push(10, 2.0);
        let t = CoreTimeline::new(Nanos(1_000), vec![], freq);
        // 30 work: 10 at 1.0 (10 ns), then 20 at 2.0 (10 ns) -> t=20.
        assert_eq!(t.real_time_after_work(Nanos(0), 30.0), Nanos(20));
    }

    #[test]
    #[should_panic(expected = "finite, non-negative work")]
    fn real_time_after_work_rejects_nan() {
        tl(vec![gap(10, 30)]).real_time_after_work(Nanos(0), f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite, non-negative work")]
    fn real_time_after_work_rejects_negative() {
        tl(vec![gap(10, 30)]).real_time_after_work(Nanos(0), -1.0);
    }

    #[test]
    #[should_panic(expected = "finite, non-negative work")]
    fn real_time_after_work_rejects_infinity() {
        tl(vec![gap(10, 30)]).cursor().real_time_after_work(Nanos(0), f64::INFINITY);
    }

    #[test]
    fn interrupt_share_ignores_preemption() {
        let gaps = vec![
            Gap { start: Nanos(0), end: Nanos(10), cause: GapCause::Preemption },
            Gap {
                start: Nanos(50),
                end: Nanos(60),
                cause: GapCause::Interrupt(InterruptKind::TimerTick),
            },
        ];
        let t = CoreTimeline::new(Nanos(100), gaps, StepSeries::new(1.0));
        assert!((t.interrupt_share(Nanos(0), Nanos(100)) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn idle_timeline_is_all_busy() {
        let t = CoreTimeline::idle(Nanos(500));
        assert!(t.gaps().is_empty());
        assert_eq!(t.busy_time_between(Nanos(0), Nanos(500)), Nanos(500));
    }
}
