//! Fully connected layer.
//!
//! Forward runs one row of the shared [`matmul`] per sample, with the
//! weights transposed into pooled scratch on every call so the SIMD
//! lanes run across output features; backward splits into a parameter
//! pass (one output unit at a time) and an input-gradient pass (one
//! sample at a time). Both directions keep the sequential per-element
//! accumulation order, and every scratch buffer comes from the
//! [`workspace`] arena, so a steady-state step never allocates here.

use crate::param::Param;
use crate::tensor::{axpy_unrolled, matmul, transpose_into, Tensor};
use crate::workspace::{self, ScratchBuf};
use crate::Layer;
use bf_stats::SeedRng;

/// `y = x·Wᵀ + b`, mapping `(N, in)` to `(N, out)`.
#[derive(Debug, Clone)]
pub struct Dense {
    in_features: usize,
    out_features: usize,
    /// Weights, laid out `(out, in)` row-major.
    weight: Param,
    bias: Param,
    cached_input: Option<Tensor>,
}

impl Dense {
    /// A Glorot-initialized dense layer.
    pub fn new(in_features: usize, out_features: usize, rng: &mut SeedRng) -> Self {
        Dense {
            in_features,
            out_features,
            weight: Param::glorot(in_features * out_features, in_features, out_features, rng),
            bias: Param::zeros(out_features),
            cached_input: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }
}

impl Layer for Dense {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        assert_eq!(x.shape().len(), 2, "dense expects (N, features)");
        assert_eq!(x.shape()[1], self.in_features, "dense input width mismatch");
        let (n, in_f, out_f) = (x.batch(), self.in_features, self.out_features);
        let mut out = workspace::tensor(&[n, out_f]);
        let xdata = x.data();
        // The weights read k-major, so the lanes run across output
        // features: transposed on every call, so an optimizer step can
        // leave no stale copy.
        let mut wt = ScratchBuf::of_len(in_f * out_f);
        transpose_into(&self.weight.value, out_f, in_f, &mut wt);
        let wt = &*wt;
        // Each row is one `m = 1` matmul, each output starting from its
        // bias and adding its products in input order.
        for (i, row) in out.data_mut().chunks_mut(out_f).enumerate() {
            let xi = &xdata[i * in_f..(i + 1) * in_f];
            matmul(xi, wt, 1, out_f, in_f, None, Some(&self.bias.value), row);
        }
        if train {
            match &mut self.cached_input {
                Some(c) => c.copy_from(x),
                None => self.cached_input = Some(x.clone()),
            }
        }
        out
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let x = self.cached_input.as_ref().expect("backward without forward");
        let n = x.batch();
        assert_eq!(grad.shape(), &[n, self.out_features]);
        let (in_f, out_f) = (self.in_features, self.out_features);

        // Parameter pass, one output unit at a time: the unit's slab
        // holds its weight-row partial and its bias partial, accumulated
        // over samples in index order (the sequential loop's per-element
        // order) and added in unit order — so pre-existing gradient bits
        // receive each partial exactly once, after its sample loop.
        let mut slab = ScratchBuf::of_len(in_f + 1);
        for o in 0..out_f {
            slab.fill(0.0);
            let (wg, bg) = slab.split_at_mut(in_f);
            for i in 0..n {
                let g = grad.data()[i * out_f + o];
                bg[0] += g;
                axpy_unrolled(wg, g, &x.data()[i * in_f..(i + 1) * in_f]);
            }
            let grow = &mut self.weight.grad[o * in_f..(o + 1) * in_f];
            for (dst, src) in grow.iter_mut().zip(&*wg) {
                *dst += src;
            }
            self.bias.grad[o] += bg[0];
        }
        drop(slab); // back to the arena before the input-gradient pass takes dx

        // Input-gradient pass, one sample at a time: disjoint dx rows,
        // each accumulated over output units in index order, written
        // straight into the zeroed workspace tensor.
        let mut dx = workspace::tensor(&[n, in_f]);
        let weight = &self.weight.value;
        for (i, dxi) in dx.data_mut().chunks_mut(in_f).enumerate() {
            for o in 0..out_f {
                let g = grad.data()[i * out_f + o];
                axpy_unrolled(dxi, g, &weight[o * in_f..(o + 1) * in_f]);
            }
        }
        dx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias] // alloc-ok: cold path (save/restore)
    }

    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::softmax_cross_entropy;

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = SeedRng::new(1);
        let mut d = Dense::new(3, 2, &mut rng);
        d.bias.value = vec![1.0, -1.0];
        let x = Tensor::zeros(&[4, 3]);
        let y = d.forward(&x, false);
        assert_eq!(y.shape(), &[4, 2]);
        assert_eq!(y.data()[0], 1.0);
        assert_eq!(y.data()[1], -1.0);
    }

    #[test]
    fn forward_matches_hand_computation() {
        let mut rng = SeedRng::new(2);
        let mut d = Dense::new(2, 2, &mut rng);
        d.weight.value = vec![1.0, 2.0, 3.0, 4.0]; // rows: out0=[1,2], out1=[3,4]
        d.bias.value = vec![0.5, -0.5];
        let x = Tensor::new(&[1, 2], vec![10.0, 20.0]);
        let y = d.forward(&x, false);
        assert_eq!(y.data(), &[10.0 + 40.0 + 0.5, 30.0 + 80.0 - 0.5]);
    }

    #[test]
    fn forward_matches_the_textbook_loop() {
        // Output widths below, at and past the lane tile, and odd ones.
        for (seed, (in_f, out_f)) in (40u64..).zip([(32, 20), (7, 16), (33, 1), (5, 100), (1, 37)]) {
            let mut rng = SeedRng::new(seed);
            let mut d = Dense::new(in_f, out_f, &mut rng);
            d.bias.value = (0..out_f).map(|_| rng.normal(0.0, 0.5) as f32).collect();
            let n = 5;
            let x: Vec<f32> = (0..n * in_f).map(|_| rng.normal(0.0, 1.0) as f32).collect();
            let mut want = vec![0.0f32; n * out_f];
            for i in 0..n {
                for o in 0..out_f {
                    let mut acc = d.bias.value[o];
                    for f in 0..in_f {
                        acc += x[i * in_f + f] * d.weight.value[o * in_f + f];
                    }
                    want[i * out_f + o] = acc;
                }
            }
            let y = d.forward(&Tensor::new(&[n, in_f], x), false);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
            assert_eq!(bits(y.data()), bits(&want), "{in_f} -> {out_f}");
        }
    }

    /// Finite-difference gradient check through a real loss.
    #[test]
    fn gradient_check() {
        let mut rng = SeedRng::new(3);
        let mut d = Dense::new(4, 3, &mut rng);
        let x = Tensor::new(&[2, 4], (0..8).map(|i| 0.1 * i as f32).collect());
        let labels = [0usize, 2];

        let y = d.forward(&x, true);
        let (_, grad) = softmax_cross_entropy(&y, &labels);
        let dx = d.backward(&grad);

        let eps = 1e-3;
        // Check weight gradients at a few indices.
        for &wi in &[0usize, 5, 11] {
            let orig = d.weight.value[wi];
            d.weight.value[wi] = orig + eps;
            let (lp, _) = softmax_cross_entropy(&d.forward(&x, false), &labels);
            d.weight.value[wi] = orig - eps;
            let (lm, _) = softmax_cross_entropy(&d.forward(&x, false), &labels);
            d.weight.value[wi] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = d.weight.grad[wi];
            assert!(
                (numeric - analytic).abs() < 1e-2 * (1.0 + numeric.abs()),
                "w[{wi}]: numeric {numeric} analytic {analytic}"
            );
        }
        // Check input gradients.
        for &xi in &[0usize, 3, 7] {
            let mut xp = x.clone();
            xp.data_mut()[xi] += eps;
            let (lp, _) = softmax_cross_entropy(&d.forward(&xp, false), &labels);
            let mut xm = x.clone();
            xm.data_mut()[xi] -= eps;
            let (lm, _) = softmax_cross_entropy(&d.forward(&xm, false), &labels);
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = dx.data()[xi];
            assert!(
                (numeric - analytic).abs() < 1e-2 * (1.0 + numeric.abs()),
                "x[{xi}]: numeric {numeric} analytic {analytic}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "backward without forward")]
    fn backward_requires_forward() {
        let mut rng = SeedRng::new(4);
        let mut d = Dense::new(2, 2, &mut rng);
        d.backward(&Tensor::zeros(&[1, 2]));
    }
}
