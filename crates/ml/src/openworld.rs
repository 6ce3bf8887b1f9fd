//! Open-world threshold analysis.
//!
//! Table 1 reports accuracy at the classifier's argmax operating point.
//! Website-fingerprinting practice (and the base-rate discussion in
//! §4.2's "open-world results") cares about the trade-off: how many
//! sensitive-site visits are caught vs how often innocent browsing is
//! falsely flagged as a sensitive site. Sweeping a confidence threshold
//! on the "non-sensitive" probability traces out that curve.

/// One operating point of the open-world detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Threshold on the non-sensitive-class probability: predictions
    /// with `p(non-sensitive) >= tau` are reported as non-sensitive.
    pub tau: f64,
    /// Fraction of sensitive visits identified with the *correct* site.
    pub sensitive_recall: f64,
    /// Fraction of non-sensitive visits falsely reported as some
    /// sensitive site.
    pub false_positive_rate: f64,
}

/// The threshold sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdCurve {
    /// Points in increasing `tau` order.
    pub points: Vec<OperatingPoint>,
}

impl ThresholdCurve {
    /// Sweep thresholds over out-of-fold probabilities.
    ///
    /// # Panics
    ///
    /// Panics when inputs are empty or lengths differ, or either side of
    /// the sensitive split is empty.
    pub fn sweep(
        probas: &[Vec<f32>],
        labels: &[usize],
        non_sensitive_class: usize,
        steps: usize,
    ) -> Self {
        assert_eq!(probas.len(), labels.len(), "probability/label length mismatch");
        assert!(!probas.is_empty(), "threshold sweep needs samples");
        assert!(steps >= 2, "need at least two thresholds");
        let s_total = labels.iter().filter(|&&l| l != non_sensitive_class).count();
        let n_total = labels.len() - s_total;
        assert!(s_total > 0, "no sensitive samples");
        assert!(n_total > 0, "no non-sensitive samples");
        let points = (0..steps)
            .map(|i| {
                let tau = i as f64 / (steps - 1) as f64;
                let mut s_hit = 0usize;
                let mut n_fp = 0usize;
                for (row, &label) in probas.iter().zip(labels) {
                    let p_ns = f64::from(row[non_sensitive_class]);
                    let flagged_ns = p_ns >= tau;
                    // Best sensitive class by probability.
                    let best_sensitive = row
                        .iter()
                        .enumerate()
                        .filter(|(c, _)| *c != non_sensitive_class)
                        .max_by(|a, b| a.1.partial_cmp(b.1).expect("NaN probability"))
                        .map(|(c, _)| c)
                        .expect("at least one sensitive class");
                    if label == non_sensitive_class {
                        if !flagged_ns {
                            n_fp += 1;
                        }
                    } else if !flagged_ns && best_sensitive == label {
                        s_hit += 1;
                    }
                }
                OperatingPoint {
                    tau,
                    sensitive_recall: s_hit as f64 / s_total as f64,
                    false_positive_rate: n_fp as f64 / n_total as f64,
                }
            })
            .collect();
        ThresholdCurve { points }
    }

    /// The highest sensitive recall achievable with a false-positive rate
    /// at or below `max_fpr`, if any threshold achieves it.
    pub fn recall_at_fpr(&self, max_fpr: f64) -> Option<f64> {
        self.points
            .iter()
            .filter(|p| p.false_positive_rate <= max_fpr)
            .map(|p| p.sensitive_recall)
            .fold(None, |acc, r| Some(acc.map_or(r, |a: f64| a.max(r))))
    }

    /// CSV export (`tau,sensitive_recall,false_positive_rate`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("tau,sensitive_recall,false_positive_rate\n");
        for p in &self.points {
            out.push_str(&format!(
                "{},{},{}\n",
                p.tau, p.sensitive_recall, p.false_positive_rate
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two sensitive classes (0, 1) and non-sensitive class 2.
    fn toy() -> (Vec<Vec<f32>>, Vec<usize>) {
        let probas = vec![
            vec![0.8, 0.1, 0.1], // sensitive 0, confident
            vec![0.1, 0.5, 0.4], // sensitive 1, borderline
            vec![0.1, 0.1, 0.8], // non-sensitive, confident
            vec![0.4, 0.2, 0.4], // non-sensitive, borderline
        ];
        let labels = vec![0, 1, 2, 2];
        (probas, labels)
    }

    #[test]
    fn extreme_thresholds_behave() {
        let (p, l) = toy();
        let curve = ThresholdCurve::sweep(&p, &l, 2, 11);
        // tau = 0: everything flagged non-sensitive -> no FPs, no recall.
        let first = curve.points.first().unwrap();
        assert_eq!(first.sensitive_recall, 0.0);
        assert_eq!(first.false_positive_rate, 0.0);
        // tau = 1: nothing flagged -> all non-sensitive become FPs.
        let last = curve.points.last().unwrap();
        assert_eq!(last.false_positive_rate, 1.0);
        assert_eq!(last.sensitive_recall, 1.0);
    }

    #[test]
    fn fpr_is_monotone_in_tau() {
        let (p, l) = toy();
        let curve = ThresholdCurve::sweep(&p, &l, 2, 21);
        for w in curve.points.windows(2) {
            assert!(w[1].false_positive_rate >= w[0].false_positive_rate);
        }
    }

    #[test]
    fn recall_at_fpr_picks_best_feasible() {
        let (p, l) = toy();
        let curve = ThresholdCurve::sweep(&p, &l, 2, 101);
        // At zero FPR we can still catch the confident sensitive sample.
        let r = curve.recall_at_fpr(0.0).unwrap();
        assert!(r >= 0.5, "recall at FPR 0 = {r}");
        assert_eq!(curve.recall_at_fpr(1.0), Some(1.0));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let (p, l) = toy();
        let curve = ThresholdCurve::sweep(&p, &l, 2, 5);
        let csv = curve.to_csv();
        assert_eq!(csv.lines().count(), 6);
    }

    #[test]
    #[should_panic(expected = "no sensitive samples")]
    fn needs_both_sides() {
        let probas = vec![vec![0.5f32, 0.5]];
        let labels = vec![1usize];
        ThresholdCurve::sweep(&probas, &labels, 1, 3);
    }
}
