//! Nearest-centroid baseline classifier.
//!
//! Not part of the paper's pipeline — a fast, deterministic baseline used
//! for smoke-scale experiments and as a sanity check on dataset
//! separability before spending time on CNN+LSTM training.

use crate::{Classifier, Dataset};

/// Classifies a trace by the nearest class-mean in Euclidean distance,
/// with distances converted to probabilities via a softmax over negative
/// distances.
#[derive(Debug, Clone, PartialEq)]
pub struct CentroidClassifier {
    n_classes: usize,
    centroids: Vec<Vec<f32>>,
}

impl CentroidClassifier {
    /// An unfitted classifier over `n_classes` classes.
    ///
    /// # Panics
    ///
    /// Panics when `n_classes` is zero.
    pub fn new(n_classes: usize) -> Self {
        assert!(n_classes > 0, "need at least one class");
        CentroidClassifier { n_classes, centroids: Vec::new() }
    }

    /// The fitted class centroids (empty before [`Classifier::fit`]).
    pub fn centroids(&self) -> &[Vec<f32>] {
        &self.centroids
    }
}

impl Classifier for CentroidClassifier {
    fn fit(&mut self, train: &Dataset, _val: &Dataset) {
        assert_eq!(train.n_classes(), self.n_classes, "class count mismatch");
        assert!(!train.is_empty(), "cannot fit on an empty dataset");
        let dim = train.feature_len();
        let mut sums = vec![vec![0.0f64; dim]; self.n_classes];
        let mut counts = vec![0usize; self.n_classes];
        for (x, &y) in train.features().iter().zip(train.labels()) {
            counts[y] += 1;
            for (s, v) in sums[y].iter_mut().zip(x) {
                *s += *v as f64;
            }
        }
        self.centroids = sums
            .into_iter()
            .zip(&counts)
            .map(|(s, &c)| {
                if c == 0 {
                    // An absent class sits infinitely far away.
                    vec![f32::MAX / 4.0; dim]
                } else {
                    s.into_iter().map(|v| (v / c as f64) as f32).collect()
                }
            })
            .collect();
    }

    fn predict_proba(&mut self, traces: &[Vec<f32>]) -> Vec<Vec<f32>> {
        assert!(!self.centroids.is_empty(), "classifier not fitted");
        traces
            .iter()
            .map(|x| {
                let dists: Vec<f64> = self
                    .centroids
                    .iter()
                    .map(|c| {
                        c.iter()
                            .zip(x)
                            .map(|(a, b)| (*a as f64 - *b as f64).powi(2))
                            .sum::<f64>()
                            .sqrt()
                    })
                    .collect();
                // Scale-normalized softmax over negative distances.
                let min = dists.iter().copied().fold(f64::INFINITY, f64::min);
                let scale = dists.iter().copied().fold(0.0f64, f64::max).max(1e-12);
                let exps: Vec<f64> =
                    dists.iter().map(|d| (-(d - min) / scale * 10.0).exp()).collect();
                let sum: f64 = exps.iter().sum();
                exps.into_iter().map(|e| (e / sum) as f32).collect()
            })
            .collect()
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let mut d = Dataset::new(3);
        for i in 0..5 {
            d.push(vec![10.0 + i as f32 * 0.1, 0.0], 0);
            d.push(vec![0.0, 10.0 + i as f32 * 0.1], 1);
            d.push(vec![-10.0, -10.0], 2);
        }
        d
    }

    #[test]
    fn fits_and_classifies_separable_data() {
        let mut c = CentroidClassifier::new(3);
        c.fit(&toy(), &Dataset::new(3));
        let preds = c.predict(&[
            vec![9.0, 0.5],
            vec![0.5, 9.0],
            vec![-8.0, -11.0],
        ]);
        assert_eq!(preds, vec![0, 1, 2]);
    }

    #[test]
    fn probabilities_sum_to_one_and_rank_correctly() {
        let mut c = CentroidClassifier::new(3);
        c.fit(&toy(), &Dataset::new(3));
        let p = &c.predict_proba(&[vec![10.0, 0.0]])[0];
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(p[0] > p[1] && p[0] > p[2]);
    }

    #[test]
    fn centroids_are_class_means() {
        let mut c = CentroidClassifier::new(3);
        c.fit(&toy(), &Dataset::new(3));
        assert!((c.centroids()[0][0] - 10.2).abs() < 1e-5);
        assert_eq!(c.centroids()[2], vec![-10.0, -10.0]);
    }

    #[test]
    fn missing_class_never_wins() {
        let mut d = Dataset::new(3);
        for _ in 0..3 {
            d.push(vec![1.0], 0);
            d.push(vec![-1.0], 1);
            // class 2 has no samples
        }
        let mut c = CentroidClassifier::new(3);
        c.fit(&d, &Dataset::new(3));
        let preds = c.predict(&[vec![100.0], vec![-100.0]]);
        assert!(preds.iter().all(|&p| p != 2));
    }

    #[test]
    fn deadline_predict_matches_plain_predict_and_respects_cancellation() {
        let mut c = CentroidClassifier::new(3);
        c.fit(&toy(), &Dataset::new(3));
        let traces = vec![vec![9.0, 0.5], vec![-8.0, -11.0]];
        let token = bf_fault::CancelToken::unlimited();
        let viaded = c.predict_proba_deadline(&traces, &token).expect("unlimited budget");
        let plain = c.predict_proba(&traces);
        let a: Vec<Vec<u32>> =
            viaded.iter().map(|r| r.iter().map(|v| v.to_bits()).collect()).collect();
        let b: Vec<Vec<u32>> =
            plain.iter().map(|r| r.iter().map(|v| v.to_bits()).collect()).collect();
        assert_eq!(a, b, "deadline path must be bit-identical when never cancelled");

        let exhausted = bf_fault::CancelToken::new(1);
        exhausted.charge(2).unwrap_err();
        assert!(c.predict_proba_deadline(&traces, &exhausted).is_err());
    }

    #[test]
    #[should_panic(expected = "not fitted")]
    fn predict_before_fit_panics() {
        CentroidClassifier::new(2).predict_proba(&[vec![0.0]]);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn fit_empty_panics() {
        CentroidClassifier::new(2).fit(&Dataset::new(2), &Dataset::new(2));
    }
}
