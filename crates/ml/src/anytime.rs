//! Anytime (early-exit) prefix classification.
//!
//! The paper's Table 1 shows accuracy is a smooth function of trace
//! length: 25/50/75% prefixes already carry most of the signal. This
//! module turns that curve into an *anytime* inference ladder: classify
//! the shortest prefix first, read off a per-prefix-length calibrated
//! confidence ([`Calibration`], temperature scaling fit on held-out
//! folds), and stop as soon as the confidence clears a threshold — or
//! whenever the caller's budget runs out, at which point the best
//! answer so far is still a usable (if less accurate) prediction. The
//! rungs live here; the climb itself is `bf-serve`'s
//! `Service::predict_batch_ladder`, which adds deadlines and the
//! circuit breaker.
//!
//! Prefix features are defined once here and shared by training-time
//! calibration fitting and the online serving path, so the calibration
//! is fit on exactly the distribution it will see: truncate the
//! standardized trace to the prefix and re-standardize over the prefix
//! alone (standardization is affine-invariant, so this equals
//! featurizing a prefix-only collection of the same trace).

use crate::calibrate::Calibration;
use crate::{Classifier, Dataset};

/// The ladder's rungs, as percentages of the full trace. The last rung
/// is always the full trace.
pub const PREFIX_PERCENTS: [u8; 4] = [25, 50, 75, 100];

/// Samples in a `percent` prefix of a `full_len`-sample trace (at least
/// one sample, so degenerate traces still classify).
pub fn prefix_len(full_len: usize, percent: u8) -> usize {
    ((full_len * percent as usize) / 100).max(1).min(full_len)
}

/// The first `percent`% of a standardized feature vector,
/// re-standardized over the prefix alone (f64 accumulation, matching
/// `CollectionConfig::featurize`). At 100% the input is returned
/// unchanged, bit-for-bit, so the full rung equals full-trace
/// classification exactly.
pub fn prefix_features(features: &[f32], percent: u8) -> Vec<f32> {
    if percent >= 100 {
        return features.to_vec(); // alloc-ok: per-request staging (full rung passthrough)
    }
    let n = prefix_len(features.len(), percent);
    let prefix = &features[..n];
    let mean: f64 = prefix.iter().map(|&v| v as f64).sum::<f64>() / n as f64;
    let var: f64 =
        prefix.iter().map(|&v| (v as f64 - mean) * (v as f64 - mean)).sum::<f64>() / n as f64;
    let sd = var.sqrt();
    let mut out = vec![0.0f32; n]; // alloc-ok: per-request staging (prefix slice)
    if sd > 0.0 {
        for (o, &v) in out.iter_mut().zip(prefix) {
            *o = ((v as f64 - mean) / sd) as f32;
        }
    }
    out
}

/// Per-prefix-length calibrations for one model: the rungs of the
/// anytime ladder, one per [`PREFIX_PERCENTS`] entry. Fit once offline
/// and held by the serving tiers, so serving never refits confidence
/// maps.
#[derive(Debug, Clone, PartialEq)]
pub struct AnytimeLadder {
    calibrations: [Calibration; PREFIX_PERCENTS.len()],
}

impl Default for AnytimeLadder {
    fn default() -> Self {
        AnytimeLadder::identity()
    }
}

impl AnytimeLadder {
    /// An uncalibrated ladder over [`PREFIX_PERCENTS`]: every rung uses
    /// the identity map, so confidence is the raw max probability.
    pub fn identity() -> Self {
        AnytimeLadder { calibrations: [Calibration::identity(); PREFIX_PERCENTS.len()] }
    }

    /// The rung percentages, shortest first.
    pub fn levels(&self) -> &[u8] {
        &PREFIX_PERCENTS
    }

    /// Fit one temperature per rung on held-out data: classify every
    /// validation trace at each prefix length and scale that rung's
    /// confidences by NLL. Deterministic for a fixed `(model, val)`.
    ///
    /// # Panics
    ///
    /// Panics when `val` is empty.
    pub fn fit(model: &mut dyn Classifier, val: &Dataset) -> Self {
        assert!(!val.is_empty(), "cannot fit a ladder on an empty validation set");
        let calibrations = PREFIX_PERCENTS.map(|level| {
            let prefixes: Vec<Vec<f32>> = val
                .features()
                .iter()
                .map(|f| prefix_features(f, level))
                .collect(); // alloc-ok: fit-time (offline)
            let probs = model.predict_proba_prefix(&prefixes);
            Calibration::fit(&probs, val.labels())
        });
        AnytimeLadder { calibrations }
    }

    /// Classify `features` at rung `idx`: prefix, predict, calibrate.
    /// Returns the calibrated distribution and its confidence.
    pub fn classify_at(
        &self,
        model: &mut dyn Classifier,
        features: &[f32],
        idx: usize,
    ) -> (Vec<f32>, f32) {
        let prefix = prefix_features(features, PREFIX_PERCENTS[idx]);
        let mut probs = model
            .predict_proba_prefix(std::slice::from_ref(&prefix))
            .pop()
            .unwrap_or_default();
        self.calibrations[idx].apply_in_place(&mut probs);
        let confidence = probs.iter().copied().fold(0.0f32, f32::max);
        (probs, confidence)
    }

    /// Classify a micro-batch of requests at rung `idx` in one stacked
    /// forward pass: every row is prefixed, the model sees them as a
    /// single `predict_proba_prefix` call (one im2col/matmul per layer
    /// for the whole group), and each row is calibrated independently.
    /// Row `i` of the result is bit-identical to
    /// [`AnytimeLadder::classify_at`] on `features[i]` alone — batching
    /// changes where the flops run, never what they compute (pinned by
    /// `tests/anytime_props.rs` and the serve replay matrix).
    pub fn classify_at_batch(
        &self,
        model: &mut dyn Classifier,
        features: &[&[f32]],
        idx: usize,
    ) -> Vec<(Vec<f32>, f32)> {
        let prefixes: Vec<Vec<f32>> = features
            .iter()
            .map(|f| prefix_features(f, PREFIX_PERCENTS[idx]))
            .collect(); // alloc-ok: per-batch staging (request rows)
        let probs = model.predict_proba_prefix(&prefixes);
        probs
            .into_iter()
            .map(|mut p| {
                self.calibrations[idx].apply_in_place(&mut p);
                let confidence = p.iter().copied().fold(0.0f32, f32::max);
                (p, confidence)
            })
            .collect() // alloc-ok: per-batch result rows
    }

    /// Mean calibrated confidence per rung over a dataset — the
    /// training-distribution signal behind early exit (and the property
    /// test that confidence does not decrease with prefix length).
    pub fn mean_confidences(&self, model: &mut dyn Classifier, data: &Dataset) -> Vec<f64> {
        (0..PREFIX_PERCENTS.len())
            .map(|idx| {
                let total: f64 = data
                    .features()
                    .iter()
                    .map(|f| self.classify_at(model, f, idx).1 as f64)
                    .sum();
                total / data.len().max(1) as f64
            })
            .collect() // alloc-ok: diagnostics (offline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CentroidClassifier;
    use bf_stats::SeedRng;

    /// Class = where the dips sit; longer prefixes see more dips, so
    /// confidence grows with prefix length by construction.
    fn toy(per_class: usize, seed: u64) -> Dataset {
        let mut rng = SeedRng::new(seed);
        let mut d = Dataset::new(3);
        for c in 0..3usize {
            for _ in 0..per_class {
                let mut t = vec![0.0f32; 200];
                for v in t.iter_mut() {
                    *v = 0.3 * rng.standard_normal() as f32;
                }
                for rep in 0..4 {
                    let dip = rep * 50 + c * 12;
                    for v in &mut t[dip..dip + 10] {
                        *v -= 2.0;
                    }
                }
                d.push(t, c);
            }
        }
        d
    }

    #[test]
    fn prefix_features_are_standardized_and_full_is_identity() {
        let f: Vec<f32> = (0..100).map(|i| (i as f32).sin()).collect();
        let full = prefix_features(&f, 100);
        assert_eq!(
            full.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            f.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "100% prefix must be bit-identical to the input"
        );
        let half = prefix_features(&f, 50);
        assert_eq!(half.len(), 50);
        let mean: f32 = half.iter().sum::<f32>() / 50.0;
        assert!(mean.abs() < 1e-4, "prefix mean {mean}");
    }

    #[test]
    fn prefix_len_clamps_sanely() {
        assert_eq!(prefix_len(300, 25), 75);
        assert_eq!(prefix_len(300, 100), 300);
        assert_eq!(prefix_len(2, 25), 1);
        assert_eq!(prefix_len(1, 25), 1);
    }

    #[test]
    fn identity_ladder_confidence_is_raw_max_prob() {
        let train = toy(6, 5);
        let mut model = CentroidClassifier::new(3);
        model.fit(&train, &Dataset::new(3));
        let ladder = AnytimeLadder::identity();
        let f = &train.features()[0];
        let (probs, conf) = ladder.classify_at(&mut model, f, 3);
        let raw = model.predict_proba(std::slice::from_ref(&prefix_features(f, 100))).remove(0);
        let raw_max = raw.iter().copied().fold(0.0f32, f32::max);
        assert!((conf - raw_max).abs() < 1e-6);
        assert_eq!(probs.len(), 3);
    }
}
