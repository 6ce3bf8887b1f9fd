//! Temperature-scaling confidence calibration.
//!
//! A classifier's raw max-probability is a poor confidence signal: the
//! CNN+LSTM is over-confident on short prefixes and the centroid's
//! softmax-over-distances is arbitrarily peaked. Temperature scaling
//! (Guo et al.'s one-parameter recipe) refits only the sharpness of the
//! predictive distribution: probabilities are mapped through
//! `softmax(log p / T)` with a single `T > 0` chosen to minimize
//! negative log-likelihood on *held-out* data, so argmax — and the full
//! ranking of classes — is preserved exactly for every input.
//!
//! The fit is a deterministic golden-grid search over `log T` (no RNG,
//! f64 accumulation), so a calibration is a pure function of its fitting
//! set, and the applied map is monotone in the raw logit by
//! construction: `l_a > l_b  ⇒  l_a/T > l_b/T  ⇒  q_a > q_b`.

/// Floor for `log p` so that a zero probability stays finite.
const LOG_FLOOR: f64 = 1e-12;

/// A fitted temperature-scaling map. `T = 1` is the identity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    temperature: f64,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration::identity()
    }
}

impl Calibration {
    /// The identity map (`T = 1`): calibrated probabilities equal raw
    /// ones bit-for-bit through [`Calibration::confidence`]'s f64 path.
    pub fn identity() -> Self {
        Calibration { temperature: 1.0 }
    }

    /// A map with an explicit temperature (also used to temper teacher
    /// probabilities for distillation).
    ///
    /// # Panics
    ///
    /// Panics when `temperature` is not strictly positive and finite.
    pub fn with_temperature(temperature: f64) -> Self {
        assert!(
            temperature.is_finite() && temperature > 0.0,
            "temperature must be positive and finite, got {temperature}"
        );
        Calibration { temperature }
    }

    /// The fitted temperature.
    pub fn temperature(&self) -> f64 {
        self.temperature
    }

    /// Fit `T` on held-out predictions: `probs[i]` is the model's raw
    /// distribution for a sample whose true class is `labels[i]`. The
    /// search walks a fixed geometric grid over `T ∈ [0.05, 20]` and
    /// keeps the NLL-minimizing temperature (first winner on ties), so
    /// the result is a pure function of the inputs.
    ///
    /// # Panics
    ///
    /// Panics on empty input, length mismatch, or an out-of-range label.
    pub fn fit(probs: &[Vec<f32>], labels: &[usize]) -> Self {
        assert!(!probs.is_empty(), "cannot calibrate on an empty validation set");
        assert_eq!(probs.len(), labels.len(), "one label per prediction");
        const GRID: usize = 129;
        let (lo, hi) = (0.05f64.ln(), 20.0f64.ln());
        let mut best_t = 1.0f64;
        let mut best_nll = f64::INFINITY;
        for g in 0..GRID {
            let t = (lo + (hi - lo) * g as f64 / (GRID - 1) as f64).exp();
            let mut nll = 0.0f64;
            for (p, &y) in probs.iter().zip(labels) {
                assert!(y < p.len(), "label {y} out of range for {} classes", p.len());
                // logsumexp of l/T with l = log p; max(l) corresponds to
                // max(p), so normalize against it for stability.
                let pmax = p.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let lmax = (pmax as f64).max(LOG_FLOOR).ln();
                let mut sum = 0.0f64;
                for &v in p {
                    sum += (((v as f64).max(LOG_FLOOR).ln() - lmax) / t).exp();
                }
                let ly = (p[y] as f64).max(LOG_FLOOR).ln();
                nll -= (ly - lmax) / t - sum.ln();
            }
            if nll < best_nll {
                best_nll = nll;
                best_t = t;
            }
        }
        Calibration { temperature: best_t }
    }

    /// Calibrated probabilities, written in place over the raw ones:
    /// `q = softmax(log p / T)`. f64 accumulation, no allocation — this
    /// runs on the serving hot path once per answered request.
    pub fn apply_in_place(&self, probs: &mut [f32]) {
        if probs.is_empty() {
            return;
        }
        let t = self.temperature;
        let lmax = probs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let lmax = (lmax as f64).max(LOG_FLOOR).ln();
        let mut sum = 0.0f64;
        for &v in probs.iter() {
            sum += (((v as f64).max(LOG_FLOOR).ln() - lmax) / t).exp();
        }
        for v in probs.iter_mut() {
            *v = (((((*v as f64).max(LOG_FLOOR).ln() - lmax) / t).exp()) / sum) as f32;
        }
    }

    /// Calibrated confidence: the max of the tempered distribution,
    /// computed without materializing it (two passes, no allocation).
    pub fn confidence(&self, probs: &[f32]) -> f32 {
        if probs.is_empty() {
            return 0.0;
        }
        let t = self.temperature;
        let lmax = probs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let lmax = (lmax as f64).max(LOG_FLOOR).ln();
        let mut sum = 0.0f64;
        for &v in probs {
            sum += (((v as f64).max(LOG_FLOOR).ln() - lmax) / t).exp();
        }
        // The max raw probability stays the max after tempering (the map
        // is monotone), and its tempered logit is exactly lmax.
        (1.0 / sum) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Over-confident predictions: correct class at 0.9 but only right
    /// 60% of the time. The fitted temperature must soften (T > 1).
    fn overconfident() -> (Vec<Vec<f32>>, Vec<usize>) {
        let mut probs = Vec::new();
        let mut labels = Vec::new();
        for i in 0..50usize {
            probs.push(vec![0.9, 0.07, 0.03]);
            labels.push(if i % 5 < 3 { 0 } else { 1 });
        }
        (probs, labels)
    }

    #[test]
    fn fit_softens_overconfident_predictions() {
        let (probs, labels) = overconfident();
        let cal = Calibration::fit(&probs, &labels);
        assert!(cal.temperature() > 1.0, "T = {}", cal.temperature());
        let conf = cal.confidence(&probs[0]);
        assert!(conf < 0.9, "calibrated confidence {conf} must drop below raw 0.9");
    }

    #[test]
    fn fit_is_deterministic() {
        let (probs, labels) = overconfident();
        let a = Calibration::fit(&probs, &labels);
        let b = Calibration::fit(&probs, &labels);
        assert_eq!(a.temperature().to_bits(), b.temperature().to_bits());
    }

    #[test]
    fn identity_keeps_well_formed_probs() {
        let cal = Calibration::identity();
        let mut p = vec![0.7f32, 0.2, 0.1];
        cal.apply_in_place(&mut p);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!((p[0] - 0.7).abs() < 1e-5, "identity map must preserve probabilities");
    }

    #[test]
    fn map_preserves_ranking_and_normalization() {
        for t in [0.1f64, 0.5, 1.0, 3.0, 10.0] {
            let cal = Calibration::with_temperature(t);
            let mut p = vec![0.5f32, 0.3, 0.15, 0.05];
            cal.apply_in_place(&mut p);
            let sum: f32 = p.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "T={t}: sum {sum}");
            assert!(p[0] > p[1] && p[1] > p[2] && p[2] > p[3], "T={t}: order broken {p:?}");
        }
    }

    #[test]
    fn confidence_equals_max_of_applied_map() {
        let cal = Calibration::with_temperature(2.5);
        let raw = vec![0.6f32, 0.25, 0.15];
        let conf = cal.confidence(&raw);
        let mut mapped = raw.clone();
        cal.apply_in_place(&mut mapped);
        let max = mapped.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        assert_eq!(conf.to_bits(), max.to_bits(), "confidence must be the mapped max");
    }

    #[test]
    #[should_panic(expected = "empty validation set")]
    fn empty_fit_panics() {
        Calibration::fit(&[], &[]);
    }
}
