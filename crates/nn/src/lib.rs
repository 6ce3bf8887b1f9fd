//! `bf-nn` — a from-scratch neural-network library implementing the
//! paper's classifier.
//!
//! §4.1, footnote 2: *"LSTM (32 units, sigmoid activation) with 2 pairs of
//! convolutional layers (256 filters, stride = 3, ReLU activation) and max
//! pooling layers (pool size = 4), a dropout layer (rate = 0.7), and a
//! fully connected classification layer (output size = 100, softmax
//! activation). We use the Adam optimizer with learning rate = 0.001."*
//!
//! The sanctioned offline crate set has no deep-learning framework, so
//! this crate implements the pieces directly: a contiguous f32 [`Tensor`],
//! the [`Layer`] abstraction with hand-derived backward passes
//! ([`ConvPool1d`], the conv stage: convolution, ReLU and max or average
//! pooling in one layer; [`Lstm`], [`Dropout`], [`Dense`]), softmax
//! cross-entropy, the [`Adam`] optimizer, and the assembled [`CnnLstm`]
//! architecture. Every layer's gradient is validated against finite
//! differences in the test suite.
//!
//! # Example
//!
//! ```
//! use bf_nn::{CnnLstm, CnnLstmConfig, Tensor};
//!
//! let cfg = CnnLstmConfig::scaled(300, 5, 8); // trace len 300, 5 classes, 8 filters
//! let mut net = CnnLstm::new(cfg, 42);
//! let x = Tensor::zeros(&[2, 1, 300]); // batch of 2 traces
//! let logits = net.forward(&x, false);
//! assert_eq!(logits.shape(), &[2, 5]);
//! ```

mod conv;
pub mod dense;
pub mod dropout;
pub mod loss;
pub mod lstm;
pub mod network;
pub mod optim;
pub mod param;
pub mod serialize;
pub mod stage;
pub mod tensor;
pub mod workspace;

pub use dense::Dense;
pub use dropout::Dropout;
pub use loss::{softmax_cross_entropy, softmax_cross_entropy_soft};
pub use lstm::{Lstm, LstmActivation};
pub use network::{CnnLstm, CnnLstmConfig};
pub use optim::Adam;
pub use param::Param;
pub use serialize::{load_network, read_params, save_network, write_params, CheckpointError};
pub use stage::{ConvPool1d, PoolKind};
pub use tensor::Tensor;
pub use workspace::{Workspace, WorkspaceStats};

/// A differentiable network layer.
///
/// Layers cache whatever they need during [`Layer::forward`] and consume
/// it in [`Layer::backward`]; training drives them strictly in
/// forward-then-backward pairs on a single thread (fold-level parallelism
/// happens above this crate).
pub trait Layer: std::fmt::Debug + Send {
    /// Compute the layer output. `train` enables stochastic behavior
    /// (dropout).
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor;

    /// Given ∂loss/∂output, accumulate parameter gradients and return
    /// ∂loss/∂input.
    ///
    /// # Panics
    ///
    /// Implementations panic if called without a preceding
    /// [`Layer::forward`] in training mode.
    fn backward(&mut self, grad: &Tensor) -> Tensor;

    /// [`Layer::backward`] for a caller that needs only the parameter
    /// gradients: [`CnnLstm`]'s training step calls it on the network's
    /// first layer, whose ∂loss/∂input (the gradient with respect to the
    /// traces) nothing reads. The default runs `backward` and recycles
    /// the result; [`ConvPool1d`] overrides it to skip its conv's
    /// input-gradient pass, which leaves every parameter-gradient bit
    /// unchanged.
    ///
    /// # Panics
    ///
    /// As [`Layer::backward`].
    fn backward_params(&mut self, grad: &Tensor) {
        workspace::recycle(self.backward(grad));
    }

    /// Mutable access to the layer's parameters (empty for stateless
    /// layers).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Visit each parameter in the same stable order as
    /// [`Layer::params_mut`], without materializing a list — the
    /// allocation-free form the optimizer hot path uses. The default
    /// delegates to `params_mut` (whose empty default never allocates);
    /// parameterized layers override it to hand out field references
    /// directly.
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for p in self.params_mut() {
            f(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bf_stats::SeedRng;

    fn grad_bits(layer: &mut dyn Layer) -> Vec<Vec<u32>> {
        let mut out = Vec::new();
        layer.for_each_param(&mut |p| out.push(p.grad.iter().map(|v| v.to_bits()).collect()));
        out
    }

    /// After one training forward, `backward_params` on a clone leaves
    /// the parameter gradients `backward` leaves, bit for bit.
    fn assert_params_only_matches(mut layer: impl Layer + Clone, x: &Tensor, g: &Tensor) {
        let y = layer.forward(x, true);
        assert_eq!(y.shape(), g.shape());
        let mut params_only = layer.clone();
        let _ = layer.backward(g);
        params_only.backward_params(g);
        assert_eq!(grad_bits(&mut params_only), grad_bits(&mut layer));
    }

    #[test]
    fn default_backward_params_leaves_the_gradients_backward_leaves() {
        let mut rng = SeedRng::new(31);
        let mut fill = |len: usize| (0..len).map(|_| rng.normal(0.0, 1.0) as f32).collect();
        let (x, g) = (Tensor::new(&[3, 5], fill(15)), Tensor::new(&[3, 4], fill(12)));
        let (xs, gs) = (Tensor::new(&[3, 2, 6], fill(36)), Tensor::new(&[3, 4], fill(12)));
        let mut rng = SeedRng::new(32);
        assert_params_only_matches(Dense::new(5, 4, &mut rng), &x, &g);
        assert_params_only_matches(Lstm::new(2, 4, &mut rng), &xs, &gs);
    }
}
