//! Order statistics for timings and run-to-run comparison.

/// Median, quartiles and sample count of a set of measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Quartiles by the rule of Python's `statistics.quantiles(xs, n=4)`
    /// (the default "exclusive" method), so the spreads this tool prints
    /// match the ones an outside check computes from the same values.
    /// One value is its own quartiles.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn of(xs: &[f64]) -> Summary {
        assert!(!xs.is_empty(), "no measurements to summarise");
        let mut s = xs.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        if n == 1 {
            return Summary {
                q1: s[0],
                median: s[0],
                q3: s[0],
                n,
            };
        }
        let m = n + 1;
        let cut = |i: usize| {
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 / 4.0 - j as f64;
            s[j - 1] + (s[j] - s[j - 1]) * delta
        };
        Summary {
            q1: cut(1),
            median: cut(2),
            q3: cut(3),
            n,
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// Nearest-rank percentile `p` (0 < p < 100) of `xs`, refused (`Err`)
/// when fewer than ten samples lie beyond it: a tail percentile with
/// fewer is one or two outliers, not a measurement.
pub fn percentile(xs: &[f64], p: f64) -> Result<f64, String> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} out of range");
    let n = xs.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n < rank + 10 {
        return Err(format!(
            "p{p} of {n} samples leaves {} beyond it; at least 10 are needed",
            n.saturating_sub(rank)
        ));
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    Ok(s[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&xs);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        let one = Summary::of(&[4.0]);
        assert_eq!((one.q1, one.median, one.q3), (4.0, 4.0, 4.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Ok(50.0));
        assert_eq!(percentile(&xs, 90.0), Ok(90.0));
        // p95 of 100 leaves only 5 beyond it.
        assert!(percentile(&xs, 95.0).is_err());
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 95.0), Ok(190.0));
        assert!(percentile(&xs[..199], 95.0).is_err());
        // p50 of 19 leaves 9 beyond it.
        assert!(percentile(&xs[..19], 50.0).is_err());
        assert_eq!(percentile(&xs[..20], 50.0), Ok(10.0));
    }
}
