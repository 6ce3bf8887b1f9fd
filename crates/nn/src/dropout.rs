//! Inverted dropout.

use crate::tensor::Tensor;
use crate::workspace;
use bf_stats::SeedRng;

/// Inverted dropout: at train time each element is zeroed with
/// probability `rate` and survivors are scaled by `1/(1-rate)`; at eval
/// time the layer is the identity. The paper uses rate = 0.7.
///
/// Outputs are pooled [`workspace`] tensors and the mask is a
/// persistent buffer refilled in place, so steady-state steps never
/// allocate here. The RNG is consulted once per element in data order
/// regardless of buffering, keeping the draw sequence (and therefore
/// every masked bit) identical to the original implementation.
#[derive(Debug, Clone)]
pub struct Dropout {
    rate: f64,
    rng: SeedRng,
    mask: Vec<f32>,
    /// Whether `mask` reflects the most recent forward (false after an
    /// eval-mode or rate-0 forward, which are identity in backward too).
    mask_active: bool,
}

impl Dropout {
    /// A dropout layer with drop probability `rate`.
    ///
    /// # Panics
    ///
    /// Panics when `rate` is outside `[0, 1)`.
    pub fn new(rate: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&rate), "dropout rate must be in [0, 1)");
        Dropout { rate, rng: SeedRng::new(seed), mask: Vec::new(), mask_active: false }
    }

    /// `x` with the dropout mask applied in training mode; a copy of
    /// `x` otherwise.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if !train || self.rate == 0.0 {
            self.mask_active = false;
            return workspace::tensor_copy_of(x);
        }
        let keep = 1.0 - self.rate;
        let scale = (1.0 / keep) as f32;
        let mut out = workspace::tensor_copy_of(x);
        self.mask.clear();
        for v in out.data_mut() {
            let m = if self.rng.chance(keep) { scale } else { 0.0 };
            *v *= m;
            self.mask.push(m);
        }
        self.mask_active = true;
        out
    }

    /// ∂loss/∂input: `grad` through the last forward's mask (a copy of
    /// `grad` after an inference or rate-0 forward).
    pub fn backward(&mut self, grad: &Tensor) -> Tensor {
        if !self.mask_active {
            return workspace::tensor_copy_of(grad); // eval-mode or rate-0 forward
        }
        assert_eq!(self.mask.len(), grad.len(), "gradient shape mismatch");
        let mut dx = workspace::tensor_copy_of(grad);
        for (v, &m) in dx.data_mut().iter_mut().zip(&self.mask) {
            *v *= m;
        }
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_mode_is_identity() {
        let mut d = Dropout::new(0.7, 1);
        let x = Tensor::new(&[1, 4], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(d.forward(&x, false).data(), x.data());
    }

    #[test]
    fn train_mode_zeroes_roughly_rate_fraction() {
        let mut d = Dropout::new(0.7, 2);
        let x = Tensor::new(&[1, 10_000], vec![1.0; 10_000]);
        let y = d.forward(&x, true);
        let zeros = y.data().iter().filter(|&&v| v == 0.0).count();
        assert!((6_500..7_500).contains(&zeros), "zeros = {zeros}");
    }

    #[test]
    fn survivors_scaled_to_preserve_expectation() {
        let mut d = Dropout::new(0.5, 3);
        let x = Tensor::new(&[1, 10_000], vec![1.0; 10_000]);
        let y = d.forward(&x, true);
        let mean: f32 = y.data().iter().sum::<f32>() / 10_000.0;
        assert!((mean - 1.0).abs() < 0.05, "mean = {mean}");
        let nonzero = y.data().iter().find(|&&v| v != 0.0).copied().unwrap();
        assert_eq!(nonzero, 2.0);
    }

    #[test]
    fn backward_applies_same_mask() {
        let mut d = Dropout::new(0.5, 4);
        let x = Tensor::new(&[1, 8], vec![1.0; 8]);
        let y = d.forward(&x, true);
        let dx = d.backward(&Tensor::new(&[1, 8], vec![1.0; 8]));
        assert_eq!(y.data(), dx.data());
    }

    #[test]
    fn eval_forward_deactivates_stale_mask() {
        let mut d = Dropout::new(0.5, 7);
        let x = Tensor::new(&[1, 8], vec![1.0; 8]);
        let _ = d.forward(&x, true);
        let _ = d.forward(&x, false);
        let g = Tensor::new(&[1, 8], vec![2.0; 8]);
        assert_eq!(d.backward(&g).data(), g.data());
    }

    #[test]
    fn rate_zero_never_drops() {
        let mut d = Dropout::new(0.0, 5);
        let x = Tensor::new(&[1, 100], vec![1.0; 100]);
        assert_eq!(d.forward(&x, true).data(), x.data());
    }

    #[test]
    #[should_panic(expected = "in [0, 1)")]
    fn rate_one_rejected() {
        Dropout::new(1.0, 6);
    }
}
