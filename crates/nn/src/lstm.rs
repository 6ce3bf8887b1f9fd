//! LSTM layer returning the final hidden state.
//!
//! The paper's model uses "LSTM (32 units, sigmoid activation)": the
//! candidate and cell-output activations are sigmoid (Keras
//! `LSTM(32, activation="sigmoid")`), while the gates use the standard
//! sigmoid as well.
//!
//! Samples are independent through time, so both passes process one
//! sample end-to-end, one after another: the forward writes each
//! sample's per-step cache, and the backward fills one reused slab with
//! a sample's parameter-gradient and input-gradient partials and adds
//! it in before the next sample starts. Within a sample
//! the input contribution to every timestep's gate pre-activations is
//! hoisted into a single [`matmul`] against `w_ih`; only the recurrent
//! term, a one-row [`matmul`] against `w_hh`, stays in the time loop.
//! Both read their weights k-major (transposed into pooled scratch on
//! every forward call), so the SIMD lanes run across the 4H gate rows.
//! The forward caches act(c), so the backward makes no transcendental
//! call, and each backward step accumulates its input gradient into one
//! contiguous row. Per-element accumulation order matches the
//! sequential reference, so forward outputs and input gradients are
//! bit-identical to it, and parameter-gradient partials are reduced in
//! sample order.
//!
//! The per-sample caches (one set for training, one for inference) are
//! persistent fields reset in place each forward, and all remaining
//! scratch comes from the [`workspace`] arena — a steady-state step
//! performs no heap allocation here.

use crate::param::Param;
use crate::tensor::{axpy_unrolled, matmul, transpose_into, Tensor};
use crate::workspace::{self, ScratchBuf};
use bf_stats::SeedRng;

#[inline]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Candidate/output activation of the LSTM cell. Gates always use
/// sigmoid. Keras's default is tanh; the paper's "(32 units, sigmoid
/// activation)" reads as the sigmoid variant, which this crate supports
/// exactly — but tanh trains far better on long sequences and is used by
/// the scaled experiment configs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LstmActivation {
    /// Hyperbolic tangent (Keras default).
    #[default]
    Tanh,
    /// Logistic sigmoid (the paper's footnote wording).
    Sigmoid,
}

impl LstmActivation {
    #[inline]
    fn apply(self, x: f32) -> f32 {
        match self {
            LstmActivation::Tanh => x.tanh(),
            LstmActivation::Sigmoid => sigmoid(x),
        }
    }

    /// Derivative expressed in terms of the activation value `a`.
    #[inline]
    fn grad_from_value(self, a: f32) -> f32 {
        match self {
            LstmActivation::Tanh => 1.0 - a * a,
            LstmActivation::Sigmoid => a * (1.0 - a),
        }
    }
}

/// Per-sample values cached for backpropagation through time. The
/// buffers are reset in place between steps, so a warm cache never
/// reallocates.
#[derive(Debug, Clone, Default)]
struct SampleCache {
    /// The sample's input gathered time-major, `(steps, F)`.
    xs: Vec<f32>,
    /// Gate activations i, f, g, o — each `(steps, H)`.
    i: Vec<f32>,
    f: Vec<f32>,
    g: Vec<f32>,
    o: Vec<f32>,
    /// Cell state after each step, `(steps, H)`.
    c: Vec<f32>,
    /// act(c) after each step, `(steps, H)`: the forward's value, so
    /// the backward needs no second libm call per unit and step.
    ac: Vec<f32>,
    /// Hidden state after each step, `(steps, H)`.
    h: Vec<f32>,
}

impl SampleCache {
    /// Resize every buffer for a `(feat, steps)` sample, keeping
    /// capacity. Contents are fully overwritten by the forward pass.
    fn reset(&mut self, feat: usize, steps: usize, h: usize) {
        fn fit(v: &mut Vec<f32>, len: usize) {
            v.clear();
            v.resize(len, 0.0);
        }
        fit(&mut self.xs, steps * feat);
        fit(&mut self.i, steps * h);
        fit(&mut self.f, steps * h);
        fit(&mut self.g, steps * h);
        fit(&mut self.o, steps * h);
        fit(&mut self.c, steps * h);
        fit(&mut self.ac, steps * h);
        fit(&mut self.h, steps * h);
    }
}

/// An LSTM over the length axis of a `(N, C, L)` tensor (time = L,
/// features = C), producing the final hidden state `(N, H)`.
#[derive(Debug, Clone)]
pub struct Lstm {
    input_size: usize,
    hidden: usize,
    activation: LstmActivation,
    /// Input weights, `(4H, F)` row-major, gate order `[i, f, g, o]`.
    w_ih: Param,
    /// Recurrent weights, `(4H, H)`.
    w_hh: Param,
    /// Gate biases, `(4H)`.
    bias: Param,
    /// Persistent per-sample caches, reset in place each training
    /// forward; the backward pass reads them.
    caches: Vec<SampleCache>,
    /// The same for inference forwards, so an inference pass between a
    /// training forward and its backward leaves the BPTT state alone.
    eval_caches: Vec<SampleCache>,
    /// `(feat, steps, n)` of the last training forward; `None` until
    /// one has run.
    cache_meta: Option<(usize, usize, usize)>,
}

impl Lstm {
    /// A Glorot-initialized LSTM with the default (tanh) activation. The
    /// forget-gate bias starts at 1.0 (standard practice for trainable
    /// long-range memory).
    pub fn new(input_size: usize, hidden: usize, rng: &mut SeedRng) -> Self {
        Self::with_activation(input_size, hidden, LstmActivation::default(), rng)
    }

    /// A Glorot-initialized LSTM with an explicit candidate/output
    /// activation.
    pub fn with_activation(
        input_size: usize,
        hidden: usize,
        activation: LstmActivation,
        rng: &mut SeedRng,
    ) -> Self {
        let mut bias = Param::zeros(4 * hidden);
        for b in &mut bias.value[hidden..2 * hidden] {
            *b = 1.0;
        }
        Lstm {
            input_size,
            hidden,
            activation,
            w_ih: Param::glorot(4 * hidden * input_size, input_size, hidden, rng),
            w_hh: Param::glorot(4 * hidden * hidden, hidden, hidden, rng),
            bias,
            caches: Vec::new(),
            eval_caches: Vec::new(),
            cache_meta: None,
        }
    }

    /// Run one sample `(feat, steps)` through the recurrence, leaving
    /// the per-step values in `cache` (the final hidden state is its
    /// last `h` row). `w_ih_t` and `w_hh_t` are the input and recurrent
    /// weights read k-major, `(F, 4H)` and `(H, 4H)`. `zx` must hold
    /// `steps * 4H` elements, `z` `4H`, and `c_prev`/`h_prev` `H` each;
    /// all scratch contents are overwritten. Pure in the sample and the
    /// layer parameters.
    #[allow(clippy::too_many_arguments)]
    fn forward_sample_into(
        &self,
        sample: &[f32],
        (w_ih_t, w_hh_t): (&[f32], &[f32]),
        feat: usize,
        steps: usize,
        cache: &mut SampleCache,
        zx: &mut [f32],
        z: &mut [f32],
        c_prev: &mut [f32],
        h_prev: &mut [f32],
    ) {
        let h = self.hidden;
        let h4 = 4 * h;
        cache.reset(feat, steps, h);
        // Gather time-major (steps, F) so the input term of every
        // timestep's pre-activation becomes one matmul.
        transpose_into(sample, feat, steps, &mut cache.xs);
        // zx[t, row] = bias[row] + Σ_f x_t[f] · w_ih[row, f]: the
        // bias-then-input prefix of the gate pre-activation, hoisted out
        // of the time loop with the reference accumulation order intact.
        // The lanes run across the 4H gate rows.
        matmul(&cache.xs, w_ih_t, steps, h4, feat, None, Some(&self.bias.value), zx);
        c_prev.fill(0.0);
        h_prev.fill(0.0);
        for t in 0..steps {
            // Recurrent term: one matvec per step, lanes across the gate
            // rows. Each row's accumulator starts at its `zx` entry and
            // adds its `h` products in index order — the reference's
            // row-then-k order exactly.
            matmul(h_prev, w_hh_t, 1, h4, h, None, Some(&zx[t * h4..(t + 1) * h4]), z);
            for u in 0..h {
                let i_g = sigmoid(z[u]);
                let f_g = sigmoid(z[h + u]);
                let g_g = self.activation.apply(z[2 * h + u]);
                let o_g = sigmoid(z[3 * h + u]);
                let c_new = f_g * c_prev[u] + i_g * g_g;
                let ac = self.activation.apply(c_new);
                let h_new = o_g * ac;
                let idx = t * h + u;
                cache.i[idx] = i_g;
                cache.f[idx] = f_g;
                cache.g[idx] = g_g;
                cache.o[idx] = o_g;
                cache.c[idx] = c_new;
                cache.ac[idx] = ac;
                cache.h[idx] = h_new;
                c_prev[u] = c_new;
                h_prev[u] = h_new;
            }
        }
    }

    /// One sample's BPTT chain. `dh` must arrive holding the sample's
    /// output gradient; `dwih`/`dwhh`/`dbias`/`dxs`/`dc`/`dh_prev` must
    /// arrive zeroed. `dxs` is the input gradient time-major, `(steps,
    /// F)`: each step accumulates into one contiguous row. Every element
    /// receives the same products in the same order as the sequential
    /// reference loop, which scattered into `(F, steps)`.
    #[allow(clippy::too_many_arguments)]
    fn backward_sample(
        &self,
        cache: &SampleCache,
        feat: usize,
        steps: usize,
        dwih: &mut [f32],
        dwhh: &mut [f32],
        dbias: &mut [f32],
        dxs: &mut [f32],
        dh: &mut [f32],
        dh_prev: &mut [f32],
        dc: &mut [f32],
    ) {
        // Reborrow under one local lifetime so the per-step swap of the
        // two buffers' roles type-checks.
        let mut dh = &mut dh[..];
        let mut dh_prev = &mut dh_prev[..];
        let h = self.hidden;
        for t in (0..steps).rev() {
            dh_prev.fill(0.0);
            let xs_t = &cache.xs[t * feat..(t + 1) * feat];
            let dx_t = &mut dxs[t * feat..(t + 1) * feat];
            for u in 0..h {
                let idx = t * h + u;
                let i_g = cache.i[idx];
                let f_g = cache.f[idx];
                let g_g = cache.g[idx];
                let o_g = cache.o[idx];
                let ac = cache.ac[idx];
                let c_prev_v = if t == 0 { 0.0 } else { cache.c[idx - h] };
                // h = o * act(c)
                let dz_o = dh[u] * ac * o_g * (1.0 - o_g);
                let dc_total = dc[u] + dh[u] * o_g * self.activation.grad_from_value(ac);
                let dz_i = dc_total * g_g * i_g * (1.0 - i_g);
                let dz_g = dc_total * i_g * self.activation.grad_from_value(g_g);
                let dz_f = dc_total * c_prev_v * f_g * (1.0 - f_g);
                dc[u] = dc_total * f_g;

                let gate_rows = [u, h + u, 2 * h + u, 3 * h + u];
                let dzs = [dz_i, dz_f, dz_g, dz_o];
                for (row, dz) in gate_rows.into_iter().zip(dzs) {
                    if dz == 0.0 {
                        continue;
                    }
                    dbias[row] += dz;
                    // The accumulation targets are disjoint arrays, so
                    // splitting the reference's fused loops into one
                    // (vectorizable) pass per target reorders nothing
                    // within any element's chain.
                    let wbase = row * feat;
                    axpy_unrolled(&mut dwih[wbase..wbase + feat], dz, xs_t);
                    axpy_unrolled(dx_t, dz, &self.w_ih.value[wbase..wbase + feat]);
                    let ubase = row * h;
                    if t > 0 {
                        axpy_unrolled(
                            &mut dwhh[ubase..ubase + h],
                            dz,
                            &cache.h[(t - 1) * h..t * h],
                        );
                    }
                    axpy_unrolled(dh_prev, dz, &self.w_hh.value[ubase..ubase + h]);
                }
            }
            std::mem::swap(&mut dh, &mut dh_prev);
        }
    }

    /// The final hidden state `(N, H)` of the recurrence over `x`'s
    /// length axis; a training forward keeps the per-step caches for the
    /// backward.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        assert_eq!(x.shape().len(), 3, "lstm expects (N, C, L)");
        assert_eq!(x.shape()[1], self.input_size, "lstm feature width mismatch");
        let (n, feat, steps) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        let h = self.hidden;
        let h4 = 4 * h;
        let sample_len = feat * steps;
        let mut out = workspace::tensor(&[n, h]);
        if sample_len == 0 || n == 0 {
            if train {
                self.caches.clear();
                self.cache_meta = Some((feat, steps, 0));
            }
            return out;
        }
        // Each sample owns one persistent cache (grown, never shrunk, so
        // a warm pass reallocates nothing); the scratch is pooled. The
        // caches are taken out of `self` (and put back below) so each
        // sample's pass can read `self` while it writes its cache.
        let caches = if train { &mut self.caches } else { &mut self.eval_caches };
        if caches.len() < n {
            caches.resize_with(n, SampleCache::default);
        }
        let mut caches = std::mem::take(caches);
        // Both weight matrices read k-major, so the lanes run across the
        // gate rows: transposed on every call, so an optimizer step can
        // leave no stale copy.
        let mut w_ih_t = ScratchBuf::of_len(h4 * feat);
        transpose_into(&self.w_ih.value, h4, feat, &mut w_ih_t);
        let mut w_hh_t = ScratchBuf::of_len(h4 * h);
        transpose_into(&self.w_hh.value, h4, h, &mut w_hh_t);
        let weights_t = (&*w_ih_t, &*w_hh_t);
        let mut zx = ScratchBuf::of_len(steps * h4);
        let mut z = ScratchBuf::of_len(h4);
        let mut c_prev = ScratchBuf::of_len(h);
        let mut h_prev = ScratchBuf::of_len(h);
        for (cache, sample) in caches[..n].iter_mut().zip(x.data().chunks(sample_len)) {
            self.forward_sample_into(
                sample, weights_t, feat, steps, cache, &mut zx, &mut z, &mut c_prev, &mut h_prev,
            );
        }
        for (row, cache) in out.data_mut().chunks_mut(h).zip(&caches) {
            row.copy_from_slice(&cache.h[(steps - 1) * h..]);
        }
        if train {
            self.caches = caches;
            self.cache_meta = Some((feat, steps, n));
        } else {
            self.eval_caches = caches;
        }
        out
    }

    /// Given ∂loss/∂output of the last training forward, accumulate the
    /// parameter gradients and return ∂loss/∂input.
    ///
    /// # Panics
    ///
    /// Panics without a preceding training forward.
    pub fn backward(&mut self, grad: &Tensor) -> Tensor {
        let (feat, steps, n) = self.cache_meta.expect("backward without forward");
        assert_eq!(grad.shape(), &[n, self.hidden]);
        let h = self.hidden;
        let h4 = 4 * h;
        let slab_x = feat * steps;
        let mut dx = workspace::tensor(&[n, feat, steps]);
        // One reused slab: a sample's `w_ih`, `w_hh` and bias partials,
        // then its time-major dx slab, which is transposed into the
        // sample's `(F, steps)` slab of dx. The partials are added in
        // sample order, each right after its sample's chain.
        let (len_ih, len_hh) = (h4 * feat, h4 * h);
        let mut slab = ScratchBuf::of_len(len_ih + len_hh + h4 + slab_x);
        let mut dh = ScratchBuf::of_len(h);
        let mut dh_prev = ScratchBuf::of_len(h);
        let mut dc = ScratchBuf::of_len(h);
        for s in 0..n {
            slab.fill(0.0);
            let (dwih, rest) = slab.split_at_mut(len_ih);
            let (dwhh, rest) = rest.split_at_mut(len_hh);
            let (dbias, dxs) = rest.split_at_mut(h4);
            dh.copy_from_slice(&grad.data()[s * h..(s + 1) * h]);
            dc.fill(0.0);
            self.backward_sample(
                &self.caches[s], feat, steps, dwih, dwhh, dbias, dxs, &mut dh, &mut dh_prev, &mut dc,
            );
            let grads = [&mut self.w_ih.grad, &mut self.w_hh.grad, &mut self.bias.grad];
            for (g, part) in grads.into_iter().zip([&*dwih, &*dwhh, &*dbias]) {
                for (dst, src) in g.iter_mut().zip(part) {
                    *dst += src;
                }
            }
            transpose_into(dxs, steps, feat, &mut dx.data_mut()[s * slab_x..(s + 1) * slab_x]);
        }
        dx
    }

    /// `w_ih`, `w_hh` and the bias, in checkpoint order.
    pub fn params_mut(&mut self) -> [&mut Param; 3] {
        [&mut self.w_ih, &mut self.w_hh, &mut self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::softmax_cross_entropy;

    #[test]
    fn forward_shape() {
        let mut rng = SeedRng::new(1);
        let mut l = Lstm::new(3, 5, &mut rng);
        let x = Tensor::zeros(&[2, 3, 7]);
        let y = l.forward(&x, false);
        assert_eq!(y.shape(), &[2, 5]);
    }

    #[test]
    fn outputs_bounded_by_activation() {
        // h = o·tanh(c) with o ∈ (0,1), tanh(c) ∈ (−1,1).
        let mut rng = SeedRng::new(2);
        let mut l = Lstm::new(2, 4, &mut rng);
        let x = Tensor::new(&[1, 2, 9], (0..18).map(|i| (i as f32).sin() * 3.0).collect());
        let y = l.forward(&x, false);
        for &v in y.data() {
            assert!((-1.0..1.0).contains(&v), "v = {v}");
        }
    }

    #[test]
    fn state_accumulates_over_time() {
        let mut rng = SeedRng::new(3);
        let mut l = Lstm::new(1, 3, &mut rng);
        let short = l.forward(&Tensor::new(&[1, 1, 1], vec![1.0]), false);
        let long = l.forward(&Tensor::new(&[1, 1, 10], vec![1.0; 10]), false);
        assert_ne!(short.data(), long.data());
    }

    #[test]
    fn warm_caches_match_cold_forward() {
        // Reusing the persistent caches and pooled scratch must not
        // change a single bit versus a fresh layer.
        let mut rng = SeedRng::new(21);
        let mut l = Lstm::new(2, 4, &mut rng);
        let mut fresh = l.clone();
        let x = Tensor::new(&[3, 2, 6], (0..36).map(|i| (i as f32 * 0.11).sin()).collect());
        // Warm up on a different shape first, then on the target shape.
        let _ = l.forward(&Tensor::zeros(&[2, 2, 9]), true);
        let _ = l.forward(&x, true);
        let warm = l.forward(&x, true);
        let cold = fresh.forward(&x, true);
        assert_eq!(warm.data(), cold.data());
        let g = Tensor::new(&[3, 4], (0..12).map(|i| 0.1 * i as f32 - 0.5).collect());
        let dwarm = l.backward(&g);
        let dcold = fresh.backward(&g);
        assert_eq!(dwarm.data(), dcold.data());
        assert_eq!(l.w_ih.grad, fresh.w_ih.grad);
        assert_eq!(l.w_hh.grad, fresh.w_hh.grad);
        assert_eq!(l.bias.grad, fresh.bias.grad);
    }

    #[test]
    fn gradient_check() {
        let mut rng = SeedRng::new(4);
        let mut l = Lstm::new(2, 3, &mut rng);
        let x = Tensor::new(&[2, 2, 4], (0..16).map(|i| (i as f32 * 0.37).cos()).collect());
        let labels = [1usize, 0];

        let y = l.forward(&x, true);
        let (_, g) = softmax_cross_entropy(&y, &labels);
        let dx = l.backward(&g);

        let eps = 1e-2;
        let loss_at = |l: &mut Lstm, x: &Tensor| {
            let y = l.forward(x, false);
            softmax_cross_entropy(&y, &labels).0
        };
        // Spot-check each parameter tensor.
        for (pname, pick) in [("w_ih", 0usize), ("w_ih", 13), ("w_hh", 5), ("bias", 2), ("bias", 7)]
        {
            let (val, grad): (&mut Vec<f32>, f32) = match pname {
                "w_ih" => {
                    let g = l.w_ih.grad[pick];
                    (&mut l.w_ih.value, g)
                }
                "w_hh" => {
                    let g = l.w_hh.grad[pick];
                    (&mut l.w_hh.value, g)
                }
                _ => {
                    let g = l.bias.grad[pick];
                    (&mut l.bias.value, g)
                }
            };
            let orig = val[pick];
            val[pick] = orig + eps;
            let lp = loss_at(&mut l, &x);
            let val: &mut Vec<f32> = match pname {
                "w_ih" => &mut l.w_ih.value,
                "w_hh" => &mut l.w_hh.value,
                _ => &mut l.bias.value,
            };
            val[pick] = orig - eps;
            let lm = loss_at(&mut l, &x);
            let val: &mut Vec<f32> = match pname {
                "w_ih" => &mut l.w_ih.value,
                "w_hh" => &mut l.w_hh.value,
                _ => &mut l.bias.value,
            };
            val[pick] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grad).abs() < 2e-2 * (1.0 + numeric.abs()),
                "{pname}[{pick}]: numeric {numeric} analytic {grad}"
            );
        }
        // Input gradients.
        for &xi in &[0usize, 7, 15] {
            let mut xp = x.clone();
            xp.data_mut()[xi] += eps;
            let lp = loss_at(&mut l, &xp);
            let mut xm = x.clone();
            xm.data_mut()[xi] -= eps;
            let lm = loss_at(&mut l, &xm);
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = dx.data()[xi];
            assert!(
                (numeric - analytic).abs() < 2e-2 * (1.0 + numeric.abs()),
                "x[{xi}]: numeric {numeric} analytic {analytic}"
            );
        }
    }

    #[test]
    fn gradient_check_sigmoid_variant() {
        let mut rng = SeedRng::new(11);
        let mut l = Lstm::with_activation(2, 3, LstmActivation::Sigmoid, &mut rng);
        let x = Tensor::new(&[1, 2, 5], (0..10).map(|i| (i as f32 * 0.29).sin()).collect());
        let labels = [2usize];
        let y = l.forward(&x, true);
        let (_, g) = softmax_cross_entropy(&y, &labels);
        let dx = l.backward(&g);
        let eps = 1e-2;
        for &xi in &[0usize, 4, 9] {
            let mut xp = x.clone();
            xp.data_mut()[xi] += eps;
            let lp = softmax_cross_entropy(&l.forward(&xp, false), &labels).0;
            let mut xm = x.clone();
            xm.data_mut()[xi] -= eps;
            let lm = softmax_cross_entropy(&l.forward(&xm, false), &labels).0;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = dx.data()[xi];
            assert!(
                (numeric - analytic).abs() < 2e-2 * (1.0 + numeric.abs()),
                "x[{xi}]: numeric {numeric} analytic {analytic}"
            );
        }
    }

    #[test]
    fn sigmoid_outputs_bounded_unit_interval() {
        let mut rng = SeedRng::new(12);
        let mut l = Lstm::with_activation(2, 4, LstmActivation::Sigmoid, &mut rng);
        let x = Tensor::new(&[1, 2, 9], (0..18).map(|i| (i as f32).sin() * 3.0).collect());
        let y = l.forward(&x, false);
        for &v in y.data() {
            assert!((0.0..1.0).contains(&v), "v = {v}");
        }
    }

    /// Bits with every NaN read as one value: Rust leaves NaN payloads
    /// unspecified, so only NaN-ness is part of the contract.
    fn canon(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() }).collect()
    }

    /// The forward's contract as the textbook loop: each gate
    /// pre-activation starts at its bias, adds its input products in
    /// feature order, then its recurrent products in unit order.
    fn reference_forward(l: &Lstm, x: &Tensor) -> Vec<f32> {
        let (n, feat, steps) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        let h = l.hidden;
        let mut out = vec![0.0f32; n * h];
        for s in 0..n {
            let (mut c, mut hs, mut z) = (vec![0.0f32; h], vec![0.0f32; h], vec![0.0f32; 4 * h]);
            for t in 0..steps {
                for (row, zv) in z.iter_mut().enumerate() {
                    let mut acc = l.bias.value[row];
                    for f in 0..feat {
                        acc += x.data()[(s * feat + f) * steps + t] * l.w_ih.value[row * feat + f];
                    }
                    for (hv, w) in hs.iter().zip(&l.w_hh.value[row * h..(row + 1) * h]) {
                        acc += hv * w;
                    }
                    *zv = acc;
                }
                for u in 0..h {
                    let c_new =
                        sigmoid(z[h + u]) * c[u] + sigmoid(z[u]) * l.activation.apply(z[2 * h + u]);
                    hs[u] = sigmoid(z[3 * h + u]) * l.activation.apply(c_new);
                    c[u] = c_new;
                }
            }
            out[s * h..(s + 1) * h].copy_from_slice(&hs);
        }
        out
    }

    #[test]
    fn forward_matches_the_textbook_loop() {
        // (feat, hidden, steps, n): the cv_train shape, gate counts (4H)
        // off the lane tile, and the one-unit degenerate case.
        let shapes = [(16, 32, 3, 4), (3, 5, 7, 3), (5, 9, 4, 2), (1, 1, 1, 1)];
        for activation in [LstmActivation::Tanh, LstmActivation::Sigmoid] {
            for (seed, (feat, h, steps, n)) in (60u64..).zip(shapes) {
                let mut rng = SeedRng::new(seed);
                let mut l = Lstm::with_activation(feat, h, activation, &mut rng);
                let x: Vec<f32> = (0..n * feat * steps).map(|_| rng.normal(0.0, 1.0) as f32).collect();
                let x = Tensor::new(&[n, feat, steps], x);
                let want = reference_forward(&l, &x);
                for train in [false, true] {
                    let y = l.forward(&x, train);
                    assert_eq!(canon(y.data()), canon(&want), "{activation:?} {feat}x{h}x{steps}");
                }
            }
        }
    }

    /// The per-row BPTT loop as it stood before act(c) was cached: it
    /// recomputes act(c) at every unit and step, and scatters the input
    /// gradient into `(feat, steps)` with stride `steps`. Returns the
    /// sample's `w_ih`, `w_hh`, bias and input-gradient partials.
    fn reference_backward_sample(
        l: &Lstm,
        cache: &SampleCache,
        feat: usize,
        steps: usize,
        grad_row: &[f32],
    ) -> [Vec<f32>; 4] {
        let h = l.hidden;
        let (mut dwih, mut dwhh) = (vec![0.0f32; 4 * h * feat], vec![0.0f32; 4 * h * h]);
        let (mut dbias, mut dxs) = (vec![0.0f32; 4 * h], vec![0.0f32; feat * steps]);
        let (mut dh, mut dh_prev, mut dc) = (grad_row.to_vec(), vec![0.0f32; h], vec![0.0f32; h]);
        for t in (0..steps).rev() {
            dh_prev.fill(0.0);
            for u in 0..h {
                let idx = t * h + u;
                let i_g = cache.i[idx];
                let f_g = cache.f[idx];
                let g_g = cache.g[idx];
                let o_g = cache.o[idx];
                let c_v = cache.c[idx];
                let c_prev_v = if t == 0 { 0.0 } else { cache.c[idx - h] };
                let ac = l.activation.apply(c_v);
                let dz_o = dh[u] * ac * o_g * (1.0 - o_g);
                let dc_total = dc[u] + dh[u] * o_g * l.activation.grad_from_value(ac);
                let dz_i = dc_total * g_g * i_g * (1.0 - i_g);
                let dz_g = dc_total * i_g * l.activation.grad_from_value(g_g);
                let dz_f = dc_total * c_prev_v * f_g * (1.0 - f_g);
                dc[u] = dc_total * f_g;
                let gate_rows = [u, h + u, 2 * h + u, 3 * h + u];
                for (row, dz) in gate_rows.into_iter().zip([dz_i, dz_f, dz_g, dz_o]) {
                    if dz == 0.0 {
                        continue;
                    }
                    dbias[row] += dz;
                    for ci in 0..feat {
                        dwih[row * feat + ci] += dz * cache.xs[t * feat + ci];
                    }
                    for ci in 0..feat {
                        dxs[ci * steps + t] += dz * l.w_ih.value[row * feat + ci];
                    }
                    if t > 0 {
                        for k in 0..h {
                            dwhh[row * h + k] += dz * cache.h[(t - 1) * h + k];
                        }
                    }
                    for (d, w) in dh_prev.iter_mut().zip(&l.w_hh.value[row * h..(row + 1) * h]) {
                        *d += dz * w;
                    }
                }
            }
            std::mem::swap(&mut dh, &mut dh_prev);
        }
        [dwih, dwhh, dbias, dxs]
    }

    #[test]
    fn backward_matches_the_per_row_reference() {
        let (n, feat, h, steps) = (3, 5, 6, 4);
        for (seed, activation) in [(70u64, LstmActivation::Tanh), (71, LstmActivation::Sigmoid)] {
            let mut rng = SeedRng::new(seed);
            let mut l = Lstm::with_activation(feat, h, activation, &mut rng);
            let x: Vec<f32> = (0..n * feat * steps).map(|_| rng.normal(0.0, 1.0) as f32).collect();
            let _ = l.forward(&Tensor::new(&[n, feat, steps], x), true);
            // At step 1 every even unit's gates sit exactly saturated, so
            // all four of its gate gradients are exactly 0; the step's
            // cached input and the hidden state it reads hold ±inf and
            // NaN. Only the zero skip keeps `0 · inf` out of the weight
            // gradients (the accumulators start at +0, so a finite
            // operand could not tell a skipped zero from an added one).
            for cache in &mut l.caches[..n] {
                for u in (0..h).step_by(2) {
                    let idx = h + u;
                    (cache.i[idx], cache.f[idx], cache.g[idx], cache.o[idx]) = (1.0, 0.0, 1.0, 1.0);
                }
                cache.xs[feat..feat + 3].copy_from_slice(&[f32::INFINITY, f32::NEG_INFINITY, f32::NAN]);
                cache.h[1] = f32::INFINITY;
                cache.h[2] = f32::NAN;
            }
            // Gradients already accumulated by an earlier batch.
            l.w_ih.grad = (0..4 * h * feat).map(|_| rng.normal(0.0, 0.1) as f32).collect();
            l.w_hh.grad = (0..4 * h * h).map(|_| rng.normal(0.0, 0.1) as f32).collect();
            l.bias.grad = (0..4 * h).map(|_| rng.normal(0.0, 0.1) as f32).collect();
            // Some output gradients exactly 0 as well.
            let g: Vec<f32> =
                (0..n * h).map(|t| if t % 3 == 0 { 0.0 } else { rng.normal(0.0, 1.0) as f32 }).collect();

            let mut want =
                [l.w_ih.grad.clone(), l.w_hh.grad.clone(), l.bias.grad.clone(), Vec::new()];
            for s in 0..n {
                let parts = reference_backward_sample(&l, &l.caches[s], feat, steps, &g[s * h..(s + 1) * h]);
                for (acc, part) in want.iter_mut().zip(&parts).take(3) {
                    for (dst, src) in acc.iter_mut().zip(part) {
                        *dst += src;
                    }
                }
                want[3].extend_from_slice(&parts[3]);
            }
            let dx = l.backward(&Tensor::new(&[n, h], g));
            let got = [&l.w_ih.grad[..], &l.w_hh.grad[..], &l.bias.grad[..], dx.data()];
            for (name, (got, want)) in ["w_ih", "w_hh", "bias", "dx"].iter().zip(got.iter().zip(&want)) {
                assert_eq!(canon(got), canon(want), "{activation:?}: {name}");
            }
            assert!(l.w_ih.grad.iter().any(|v| v.is_nan()), "the fixture reaches a non-finite input");
        }
    }

    #[test]
    fn forget_bias_initialized_to_one() {
        let mut rng = SeedRng::new(5);
        let l = Lstm::new(2, 4, &mut rng);
        assert!(l.bias.value[4..8].iter().all(|&b| b == 1.0));
        assert!(l.bias.value[0..4].iter().all(|&b| b == 0.0));
    }
}
