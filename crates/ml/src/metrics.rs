//! Classification metrics, including the paper's open-world report.

/// NaN-tolerant argmax over a probability row.
///
/// Uses [`f32::total_cmp`], so a NaN probability can never panic; under
/// total order NaN sorts above every number, so a poisoned row yields a
/// degenerate (but deterministic) prediction. Each such row is recorded
/// under the `ml.nan_probas` counter so run manifests surface how many
/// predictions were degenerate. Empty rows predict class 0.
pub fn argmax(row: &[f32]) -> usize {
    if row.iter().any(|v| v.is_nan()) {
        bf_obs::counter("ml.nan_probas").inc();
    }
    row.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// Fraction of predictions equal to their label.
///
/// # Panics
///
/// Panics when lengths differ or the inputs are empty.
pub fn accuracy(preds: &[usize], labels: &[usize]) -> f64 {
    assert_eq!(preds.len(), labels.len(), "prediction/label length mismatch");
    assert!(!preds.is_empty(), "accuracy of an empty set is undefined");
    let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
    correct as f64 / preds.len() as f64
}

/// Fraction of samples whose label appears among the top-`k` classes by
/// probability (the paper reports top-5 for Tor Browser).
///
/// # Panics
///
/// Panics when `k` is zero, inputs are empty, or lengths differ.
pub fn top_k_accuracy(probas: &[Vec<f32>], labels: &[usize], k: usize) -> f64 {
    assert!(k >= 1, "k must be at least 1");
    assert_eq!(probas.len(), labels.len(), "probability/label length mismatch");
    assert!(!probas.is_empty(), "top-k accuracy of an empty set is undefined");
    let mut hits = 0usize;
    for (row, &label) in probas.iter().zip(labels) {
        let mut order: Vec<usize> = (0..row.len()).collect();
        order.sort_by(|&a, &b| row[b].total_cmp(&row[a]));
        if order.iter().take(k).any(|&c| c == label) {
            hits += 1;
        }
    }
    hits as f64 / probas.len() as f64
}

/// The open-world evaluation of Table 1: classes `0..n-1` are sensitive
/// sites; class `n-1` (the last one) is the aggregate "non-sensitive"
/// class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenWorldReport {
    /// Accuracy on traces whose true class is a sensitive site.
    pub sensitive_accuracy: f64,
    /// Accuracy on non-sensitive traces (predicting "non-sensitive").
    pub non_sensitive_accuracy: f64,
    /// Accuracy over the combined test set (the paper's "combined
    /// accuracy").
    pub combined_accuracy: f64,
}

impl OpenWorldReport {
    /// Compute from predictions, with `non_sensitive_class` holding all
    /// open-world traffic.
    ///
    /// # Panics
    ///
    /// Panics when inputs are empty, lengths differ, or either side of
    /// the split has no samples.
    pub fn from_predictions(
        preds: &[usize],
        labels: &[usize],
        non_sensitive_class: usize,
    ) -> Self {
        assert_eq!(preds.len(), labels.len(), "prediction/label length mismatch");
        assert!(!preds.is_empty(), "open-world report needs samples");
        let mut s_total = 0usize;
        let mut s_hit = 0usize;
        let mut n_total = 0usize;
        let mut n_hit = 0usize;
        for (&p, &l) in preds.iter().zip(labels) {
            if l == non_sensitive_class {
                n_total += 1;
                if p == l {
                    n_hit += 1;
                }
            } else {
                s_total += 1;
                if p == l {
                    s_hit += 1;
                }
            }
        }
        assert!(s_total > 0, "no sensitive samples in test set");
        assert!(n_total > 0, "no non-sensitive samples in test set");
        OpenWorldReport {
            sensitive_accuracy: s_hit as f64 / s_total as f64,
            non_sensitive_accuracy: n_hit as f64 / n_total as f64,
            combined_accuracy: (s_hit + n_hit) as f64 / (s_total + n_total) as f64,
        }
    }

    /// Top-`k` variant computed from probability vectors (the paper's
    /// Tor Browser "top 5" row spans the open-world columns too).
    ///
    /// # Panics
    ///
    /// Same conditions as [`OpenWorldReport::from_predictions`], plus
    /// `k == 0`.
    pub fn from_probas_top_k(
        probas: &[Vec<f32>],
        labels: &[usize],
        non_sensitive_class: usize,
        k: usize,
    ) -> Self {
        assert!(k >= 1, "k must be at least 1");
        assert_eq!(probas.len(), labels.len(), "probability/label length mismatch");
        assert!(!probas.is_empty(), "open-world report needs samples");
        let mut s_total = 0usize;
        let mut s_hit = 0usize;
        let mut n_total = 0usize;
        let mut n_hit = 0usize;
        for (row, &l) in probas.iter().zip(labels) {
            let mut order: Vec<usize> = (0..row.len()).collect();
            order.sort_by(|&a, &b| row[b].total_cmp(&row[a]));
            let hit = order.iter().take(k).any(|&c| c == l);
            if l == non_sensitive_class {
                n_total += 1;
                n_hit += hit as usize;
            } else {
                s_total += 1;
                s_hit += hit as usize;
            }
        }
        assert!(s_total > 0, "no sensitive samples in test set");
        assert!(n_total > 0, "no non-sensitive samples in test set");
        OpenWorldReport {
            sensitive_accuracy: s_hit as f64 / s_total as f64,
            non_sensitive_accuracy: n_hit as f64 / n_total as f64,
            combined_accuracy: (s_hit + n_hit) as f64 / (s_total + n_total) as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_picks_largest_and_survives_nan() {
        assert_eq!(argmax(&[0.1, 0.7, 0.2]), 1);
        assert_eq!(argmax(&[]), 0);
        // NaN sorts above every number under total order: degenerate but
        // deterministic, and crucially no panic.
        assert_eq!(argmax(&[0.3, f32::NAN, 0.4]), 1);
        assert_eq!(argmax(&[f32::NEG_INFINITY, -0.0, 0.0]), 2);
    }

    #[test]
    fn top_k_tolerates_nan_rows() {
        let probas = vec![vec![f32::NAN, 0.5, 0.2], vec![0.1, 0.2, 0.7]];
        let labels = [1, 2];
        // No panic; the NaN row ranks NaN first, label 1 second.
        assert_eq!(top_k_accuracy(&probas, &labels, 2), 1.0);
    }

    #[test]
    fn accuracy_basic() {
        assert_eq!(accuracy(&[0, 1, 2, 0], &[0, 1, 1, 0]), 0.75);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn accuracy_length_mismatch() {
        accuracy(&[0], &[0, 1]);
    }

    #[test]
    fn top_k_includes_lower_ranked_hits() {
        let probas = vec![
            vec![0.5, 0.3, 0.2], // label 1: top-1 miss, top-2 hit
            vec![0.1, 0.2, 0.7], // label 2: top-1 hit
        ];
        let labels = [1, 2];
        assert_eq!(top_k_accuracy(&probas, &labels, 1), 0.5);
        assert_eq!(top_k_accuracy(&probas, &labels, 2), 1.0);
    }

    #[test]
    fn top_1_equals_argmax_accuracy() {
        let probas = vec![vec![0.9, 0.1], vec![0.2, 0.8], vec![0.6, 0.4]];
        let labels = [0, 1, 1];
        let preds: Vec<usize> =
            probas.iter().map(|r| if r[0] >= r[1] { 0 } else { 1 }).collect();
        assert_eq!(top_k_accuracy(&probas, &labels, 1), accuracy(&preds, &labels));
    }

    #[test]
    fn open_world_report_splits_correctly() {
        // 3 classes; class 2 = non-sensitive.
        let preds = [0, 1, 0, 2, 2, 1];
        let labels = [0, 0, 0, 2, 2, 2];
        let r = OpenWorldReport::from_predictions(&preds, &labels, 2);
        assert!((r.sensitive_accuracy - 2.0 / 3.0).abs() < 1e-12);
        assert!((r.non_sensitive_accuracy - 2.0 / 3.0).abs() < 1e-12);
        assert!((r.combined_accuracy - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no non-sensitive samples")]
    fn open_world_needs_both_sides() {
        OpenWorldReport::from_predictions(&[0], &[0], 2);
    }
}
