//! Piecewise-constant time series.
//!
//! The simulator communicates slowly varying quantities — LLC occupancy,
//! CPU frequency — to the attacker replay layer as [`StepSeries`]: a sorted
//! list of `(time, value)` change points. Integration over an interval is
//! exact. Every query runs on a [`StepCursor`], which remembers where the
//! last query landed: a one-off lookup is `O(log n)`, and a run of queries
//! that moves forward a few change points at a time costs amortised
//! `O(1)` each.

use crate::{Result, StatsError};

/// Linear probes a seek makes before binary-searching the rest.
const PROBES: usize = 4;

/// `items.partition_point(pred)`, searched from `hint` — typically the
/// answer to an earlier query. As for `partition_point`, `pred` must hold
/// on a prefix of `items` and on nothing after it. A forward move probes a
/// few items past the hint, then binary-searches the remaining tail; a
/// backward move binary-searches the prefix. The answer never depends on
/// the hint.
///
/// # Panics
///
/// Panics when `hint > items.len()`.
pub fn partition_point_from<T>(items: &[T], hint: usize, pred: impl Fn(&T) -> bool) -> usize {
    if hint > 0 && !pred(&items[hint - 1]) {
        return items[..hint].partition_point(pred);
    }
    let mut i = hint;
    for _ in 0..PROBES {
        match items.get(i) {
            Some(x) if pred(x) => i += 1,
            _ => return i,
        }
    }
    i + items[i..].partition_point(pred)
}

/// A right-continuous step function of `u64` time (nanoseconds in the
/// simulator) to `f64` values.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StepSeries {
    /// Change points sorted by time; value holds from its time (inclusive)
    /// until the next change point.
    points: Vec<(u64, f64)>,
    /// Value before the first change point.
    initial: f64,
}

impl StepSeries {
    /// A series that is `initial` everywhere until change points are pushed.
    pub fn new(initial: f64) -> Self {
        StepSeries { points: Vec::new(), initial }
    }

    /// Build from pre-sorted change points.
    ///
    /// # Errors
    ///
    /// [`StatsError::InvalidParameter`] when times are not strictly
    /// increasing.
    pub fn from_points(initial: f64, points: Vec<(u64, f64)>) -> Result<Self> {
        for w in points.windows(2) {
            if w[0].0 >= w[1].0 {
                return Err(StatsError::InvalidParameter(
                    "step series change points must be strictly increasing",
                ));
            }
        }
        Ok(StepSeries { points, initial })
    }

    /// A series that is `initial` everywhere, backed by `storage`'s
    /// capacity (cleared first). Lets callers build series on pooled
    /// buffers instead of allocating per run.
    pub fn new_in(initial: f64, mut storage: Vec<(u64, f64)>) -> Self {
        storage.clear();
        StepSeries { points: storage, initial }
    }

    /// A copy of this series backed by `storage`'s capacity (cleared
    /// first), like [`StepSeries::new_in`].
    pub fn clone_in(&self, mut storage: Vec<(u64, f64)>) -> Self {
        storage.clear();
        storage.extend_from_slice(&self.points);
        StepSeries { points: storage, initial: self.initial }
    }

    /// Dismantle the series into `(initial, points)` so the point storage
    /// can be pooled and reused via [`StepSeries::new_in`].
    pub fn into_parts(self) -> (f64, Vec<(u64, f64)>) {
        (self.initial, self.points)
    }

    /// Append a change point; `t` must be strictly after the last point.
    ///
    /// # Panics
    ///
    /// Panics when change points are pushed out of order.
    pub fn push(&mut self, t: u64, value: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(t > last, "step series points must be pushed in increasing time order");
        }
        self.points.push((t, value));
    }

    /// Append a change point, or overwrite the last point's value when it
    /// is at the same time `t` — the natural operation for accumulating
    /// series where several contributions can land on one instant.
    ///
    /// # Panics
    ///
    /// Panics when `t` is before the last change point.
    pub fn push_or_update(&mut self, t: u64, value: f64) {
        match self.points.last_mut() {
            Some(last) if last.0 == t => last.1 = value,
            Some(&mut (last_t, _)) => {
                assert!(t > last_t, "step series points must be pushed in increasing time order");
                self.points.push((t, value));
            }
            None => self.points.push((t, value)),
        }
    }

    /// A cursor over this series, positioned before its first change point.
    pub fn cursor(&self) -> StepCursor<'_> {
        StepCursor { series: self, idx: 0 }
    }

    /// Value at time `t`.
    pub fn value_at(&self, t: u64) -> f64 {
        self.cursor().value_at(t)
    }

    /// Exact integral of the series over `[a, b)` (in value × time units).
    ///
    /// # Panics
    ///
    /// Panics when `a > b`.
    pub fn integrate(&self, a: u64, b: u64) -> f64 {
        self.cursor().integrate(a, b)
    }

    /// Mean value over `[a, b)`.
    ///
    /// # Panics
    ///
    /// Panics when `a >= b`.
    pub fn mean_over(&self, a: u64, b: u64) -> f64 {
        assert!(a < b, "mean_over needs a < b");
        self.integrate(a, b) / (b - a) as f64
    }

    /// Number of change points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the series has no change points (constant everywhere).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The change points, sorted by time.
    pub fn points(&self) -> &[(u64, f64)] {
        &self.points
    }

    /// Sample the series at uniform spacing `dt` starting at `t0`,
    /// producing `n` samples. Used when exporting figure data.
    pub fn sample(&self, t0: u64, dt: u64, n: usize) -> Vec<f64> {
        let mut cursor = self.cursor();
        (0..n).map(|i| cursor.value_at(t0 + dt * i as u64)).collect() // alloc-ok: the returned samples
    }
}

/// A [`StepSeries`] plus the change-point index where the last query
/// landed. Queries may come in any order; moving forward a few change
/// points costs amortised `O(1)`, and a backward query re-seeks by binary
/// search. The series' stateless queries each run on a fresh cursor, so
/// both give bit-identical answers.
#[derive(Debug, Clone, Copy)]
pub struct StepCursor<'a> {
    series: &'a StepSeries,
    /// A seek hint: the number of change points at or before the last
    /// queried time.
    idx: usize,
}

impl StepCursor<'_> {
    /// Move to `t`; returns the number of change points at or before it.
    fn seek(&mut self, t: u64) -> usize {
        self.idx = partition_point_from(&self.series.points, self.idx, |&(pt, _)| pt <= t);
        self.idx
    }

    /// Value at time `t`.
    pub fn value_at(&mut self, t: u64) -> f64 {
        match self.seek(t) {
            0 => self.series.initial,
            i => self.series.points[i - 1].1,
        }
    }

    /// Time of the first change point strictly after `t`, if any.
    pub fn next_change_after(&mut self, t: u64) -> Option<u64> {
        let i = self.seek(t);
        self.series.points.get(i).map(|&(pt, _)| pt)
    }

    /// Exact integral of the series over `[a, b)` (in value × time units).
    /// Leaves the cursor at the first change point at or after `b`.
    ///
    /// # Panics
    ///
    /// Panics when `a > b`.
    pub fn integrate(&mut self, a: u64, b: u64) -> f64 {
        assert!(a <= b, "integrate needs a <= b");
        if a == b {
            return 0.0;
        }
        let mut acc = 0.0;
        let mut t = a;
        let mut v = self.value_at(a);
        let points = &self.series.points;
        let mut i = self.idx;
        while let Some(&(pt, pv)) = points.get(i) {
            if pt >= b {
                break;
            }
            acc += v * (pt - t) as f64;
            t = pt;
            v = pv;
            i += 1;
        }
        self.idx = i;
        acc += v * (b - t) as f64;
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> StepSeries {
        // 1.0 on [0,10), 3.0 on [10,20), 2.0 from 20 on
        let mut s = StepSeries::new(1.0);
        s.push(10, 3.0);
        s.push(20, 2.0);
        s
    }

    #[test]
    fn value_lookup() {
        let s = series();
        assert_eq!(s.value_at(0), 1.0);
        assert_eq!(s.value_at(9), 1.0);
        assert_eq!(s.value_at(10), 3.0);
        assert_eq!(s.value_at(15), 3.0);
        assert_eq!(s.value_at(20), 2.0);
        assert_eq!(s.value_at(1_000), 2.0);
    }

    #[test]
    fn integrate_within_one_segment() {
        let s = series();
        assert_eq!(s.integrate(2, 8), 6.0);
    }

    #[test]
    fn integrate_across_segments() {
        let s = series();
        // [5,25) = 5*1 + 10*3 + 5*2 = 45
        assert_eq!(s.integrate(5, 25), 45.0);
    }

    #[test]
    fn integrate_empty_interval_is_zero() {
        assert_eq!(series().integrate(7, 7), 0.0);
    }

    #[test]
    fn integrate_starting_on_change_point() {
        let s = series();
        assert_eq!(s.integrate(10, 20), 30.0);
    }

    #[test]
    fn mean_over_interval() {
        let s = series();
        assert_eq!(s.mean_over(0, 20), 2.0);
    }

    #[test]
    #[should_panic(expected = "increasing")]
    fn push_out_of_order_panics() {
        let mut s = StepSeries::new(0.0);
        s.push(10, 1.0);
        s.push(10, 2.0);
    }

    #[test]
    fn push_or_update_overwrites_same_instant() {
        let mut s = StepSeries::new(0.0);
        s.push_or_update(10, 1.0);
        s.push_or_update(10, 3.0);
        s.push_or_update(20, 4.0);
        assert_eq!(s.points(), &[(10, 3.0), (20, 4.0)]);
        assert_eq!(s.value_at(10), 3.0);
    }

    #[test]
    #[should_panic(expected = "increasing")]
    fn push_or_update_rejects_time_travel() {
        let mut s = StepSeries::new(0.0);
        s.push_or_update(10, 1.0);
        s.push_or_update(5, 2.0);
    }

    #[test]
    fn new_in_reuses_storage_and_roundtrips() {
        let mut s = StepSeries::new_in(1.0, vec![(99, 9.9); 8]);
        assert!(s.is_empty());
        s.push(10, 2.0);
        let (initial, points) = s.into_parts();
        assert_eq!(initial, 1.0);
        assert_eq!(points, vec![(10, 2.0)]);
        assert!(points.capacity() >= 8, "storage capacity must survive");
    }

    #[test]
    fn from_points_validates_order() {
        assert!(StepSeries::from_points(0.0, vec![(5, 1.0), (3, 2.0)]).is_err());
        assert!(StepSeries::from_points(0.0, vec![(3, 1.0), (5, 2.0)]).is_ok());
    }

    #[test]
    fn sample_uniform_grid() {
        let s = series();
        assert_eq!(s.sample(0, 10, 3), vec![1.0, 3.0, 2.0]);
    }

    #[test]
    fn constant_series() {
        let s = StepSeries::new(4.0);
        assert!(s.is_empty());
        assert_eq!(s.value_at(123), 4.0);
        assert_eq!(s.integrate(0, 10), 40.0);
    }
}
