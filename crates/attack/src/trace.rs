//! The traces attackers collect: per-period iteration counts.

use bf_timer::Nanos;

/// One collected side-channel trace: `values[i]` is the attacker's counter
/// for the period whose *observed* start time was `i · P` (Fig. 2:
/// `Trace[t_begin] = counter`). Periods the attacker never began (because
/// a coarse timer skipped over them) hold 0, exactly as in the paper's
/// array-indexed implementation.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    period: Nanos,
    values: Vec<f64>,
}

impl Trace {
    /// Create a trace from raw per-period counts.
    ///
    /// # Panics
    ///
    /// Panics when `period` is zero.
    pub fn new(period: Nanos, values: Vec<f64>) -> Self {
        assert!(period > Nanos::ZERO, "trace period must be positive");
        Trace { period, values }
    }

    /// The attacker's period length `P`.
    pub fn period(&self) -> Nanos {
        self.period
    }

    /// Number of periods.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the trace has no periods.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Raw counter values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Consume into the raw values.
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }

    /// Largest counter value (0 for an empty trace).
    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    /// Values divided by the trace maximum (Fig. 4's normalization).
    /// Returns all zeros when the maximum is zero.
    pub fn normalized(&self) -> Vec<f64> {
        let m = self.max();
        if m <= 0.0 {
            return vec![0.0; self.values.len()];
        }
        self.values.iter().map(|v| v / m).collect()
    }

    /// Mean-downsample by `factor` (see
    /// [`bf_stats::normalize::downsample_mean`]); adjacent-period
    /// averaging also cancels the anti-correlated quantization noise a
    /// coarse timer introduces.
    ///
    /// # Panics
    ///
    /// Panics when `factor` is zero.
    pub fn downsampled(&self, factor: usize) -> Vec<f64> {
        bf_stats::normalize::downsample_mean(&self.values, factor)
            .expect("factor validated by caller")
    }

    /// Total iterations across the whole trace.
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> Trace {
        Trace::new(Nanos::from_millis(5), vec![10.0, 20.0, 40.0, 30.0])
    }

    #[test]
    fn accessors() {
        let t = trace();
        assert_eq!(t.len(), 4);
        assert_eq!(t.period(), Nanos::from_millis(5));
        assert_eq!(t.max(), 40.0);
        assert_eq!(t.total(), 100.0);
        assert!(!t.is_empty());
    }

    #[test]
    fn normalized_peaks_at_one() {
        assert_eq!(trace().normalized(), vec![0.25, 0.5, 1.0, 0.75]);
    }

    #[test]
    fn normalized_zero_trace_is_zeros() {
        let t = Trace::new(Nanos::MILLI, vec![0.0, 0.0]);
        assert_eq!(t.normalized(), vec![0.0, 0.0]);
    }

    #[test]
    fn downsample_halves_length() {
        assert_eq!(trace().downsampled(2), vec![15.0, 35.0]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_period_rejected() {
        Trace::new(Nanos::ZERO, vec![]);
    }

    #[test]
    fn into_values_roundtrip() {
        let t = trace();
        let v = t.clone().into_values();
        assert_eq!(v, t.values());
    }
}
