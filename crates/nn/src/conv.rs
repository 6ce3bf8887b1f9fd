//! 1-D convolution.
//!
//! The forward unfolds each sample (im2col) and runs one [`matmul`] on
//! it, one sample after another on the calling thread. The matmul's
//! SIMD lanes run along the longer output axis, picked from the layer's
//! shape ([`Conv1d::forward_path`]): across output positions when the
//! output row is at least as long as the channel count (the sample
//! unfolded k-major, `W · colsᵀ`), else across output channels (the
//! weights transposed into pooled scratch on every call, `cols · Wᵀ`,
//! and the product transposed into the output). Every output element
//! accumulates its terms in the same order as the original quadruple
//! loop — bias first, then `(ci, k)`-major — so results are
//! bit-identical to the scalar path. Tiny shapes skip the im2col detour
//! and take a hoisted scalar path instead.
//!
//! The parameter-gradient sweep walks, per output channel, each
//! sample's gradient row (and, on the im2col paths, that sample's block
//! of im2col rows): the flat loop's `(i, p)` order, with no index
//! division per element. Its zero skip lists each row block's nonzero
//! positions without a branch per entry (`for_each_nonzero`).
//! [`Layer::backward_params`] runs the same backward body without the
//! input-gradient pass: the network's first layer has no reader for it.

use crate::param::Param;
use crate::tensor::{
    axpy2_unrolled, axpy_unrolled, dot_unrolled_from, im2col_into, im2col_kmajor_into, matmul,
    transpose_into, Tensor,
};
use crate::workspace::{self, ScratchBuf};
use crate::Layer;
use bf_stats::SeedRng;

/// Below this many multiply-adds per sample the im2col buffer costs more
/// than it saves; take the scalar path. Both paths produce identical
/// bits, so the threshold only affects speed.
const IM2COL_MIN_FLOPS: usize = 8 * 1024;

/// Calls `f(p, row[p])` for every entry of `row` that is not `±0` (a
/// NaN counts), in index order: the weight-gradient sweep's zero skip,
/// exactly as `if g == 0.0 { continue }` would skip. Each block of 64
/// entries is first scanned without a per-entry branch into a stack
/// list of its nonzero positions. Gradients behind a ReLU and a
/// max-pool are mostly zero in no pattern a branch predictor learns, so
/// a branch per entry would mispredict often.
#[inline]
fn for_each_nonzero(row: &[f32], mut f: impl FnMut(usize, f32)) {
    const BLOCK: usize = 64;
    let mut nonzero = [0u8; BLOCK];
    for (b, block) in row.chunks(BLOCK).enumerate() {
        let mut m = 0;
        for (p, &g) in block.iter().enumerate() {
            // Written unconditionally, kept only when `g` is nonzero.
            nonzero[m] = p as u8;
            m += usize::from(g != 0.0);
        }
        for &p in &nonzero[..m] {
            let p = usize::from(p);
            f(b * BLOCK + p, block[p]);
        }
    }
}

/// The forward's kernel for one layer shape ([`Conv1d::forward_path`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    /// The hoisted scalar loop, for shapes too small to unfold.
    Scalar,
    /// `W · colsᵀ`: lanes across output positions.
    Positions,
    /// `(cols · Wᵀ)ᵀ`: lanes across output channels.
    Channels,
}

/// Strided valid 1-D convolution mapping `(N, C_in, L)` to
/// `(N, C_out, L_out)` with `L_out = (L - kernel) / stride + 1`.
#[derive(Debug, Clone)]
pub struct Conv1d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    /// Weights laid out `(C_out, C_in, K)` row-major.
    weight: Param,
    bias: Param,
    cached_input: Option<Tensor>,
}

impl Conv1d {
    /// A Glorot-initialized convolution.
    ///
    /// # Panics
    ///
    /// Panics when kernel or stride is zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        rng: &mut SeedRng,
    ) -> Self {
        assert!(kernel > 0 && stride > 0, "kernel and stride must be positive");
        let fan_in = in_channels * kernel;
        Conv1d {
            in_channels,
            out_channels,
            kernel,
            stride,
            weight: Param::glorot(out_channels * fan_in, fan_in, out_channels, rng),
            bias: Param::zeros(out_channels),
            cached_input: None,
        }
    }

    /// Output length for an input of length `l`.
    ///
    /// # Panics
    ///
    /// Panics when `l < kernel` (no valid window).
    pub fn out_len(&self, l: usize) -> usize {
        assert!(l >= self.kernel, "input length {l} shorter than kernel {}", self.kernel);
        (l - self.kernel) / self.stride + 1
    }

    #[inline]
    fn w(&self, co: usize, ci: usize, k: usize) -> usize {
        (co * self.in_channels + ci) * self.kernel + k
    }

    /// Per-sample multiply-add count, the im2col-vs-scalar gate.
    fn sample_flops(&self, lo: usize) -> usize {
        self.out_channels * lo * self.in_channels * self.kernel
    }

    /// How the forward computes an output of `lo` positions: scalar
    /// below the im2col gate, else one [`matmul`] whose lanes run along
    /// the longer output axis. A row at least as long as the channel
    /// count puts positions in the lanes; a shorter row puts channels
    /// there, leaving fewer lanes idle in the last tile.
    fn forward_path(&self, lo: usize) -> Path {
        if self.sample_flops(lo) < IM2COL_MIN_FLOPS {
            Path::Scalar
        } else if lo >= self.out_channels {
            Path::Positions
        } else {
            Path::Channels
        }
    }

    /// Scalar fallback for one sample: bias hoisted out of the position
    /// loop, weight/input rows sliced once per `(co, ci)`. Accumulation
    /// per output element is bias-first then `(ci, k)`-major — identical
    /// to the im2col path.
    fn forward_sample_scalar(&self, sample: &[f32], l: usize, lo: usize, out: &mut [f32]) {
        for co in 0..self.out_channels {
            let bias = self.bias.value[co];
            let orow = &mut out[co * lo..(co + 1) * lo];
            orow.fill(bias);
            for ci in 0..self.in_channels {
                let wbase = self.w(co, ci, 0);
                let ws = &self.weight.value[wbase..wbase + self.kernel];
                let xrow = &sample[ci * l..(ci + 1) * l];
                for (p, ov) in orow.iter_mut().enumerate() {
                    let start = p * self.stride;
                    *ov = dot_unrolled_from(*ov, &xrow[start..start + self.kernel], ws);
                }
            }
        }
    }

    /// One channel's parameter-gradient partial, accumulated over
    /// `(i, p)` in index order (the per-element order of the sequential
    /// quadruple loop): samples in order, and within a sample the
    /// nonzero entries of the channel's gradient row in position order.
    /// `cols` is the batch's im2col matrix when the im2col gate is open
    /// (sample `i`'s `lo` rows of `ck` start at row `i * lo`); `wg` must
    /// arrive zeroed.
    #[allow(clippy::too_many_arguments)]
    fn backward_channel(
        &self,
        co: usize,
        x: &Tensor,
        grad: &Tensor,
        cols: Option<&[f32]>,
        n: usize,
        l: usize,
        lo: usize,
        wg: &mut [f32],
        bg: &mut f32,
    ) {
        let (cin, k, stride) = (self.in_channels, self.kernel, self.stride);
        let ck = cin * k;
        let sample_len = cin * l;
        let grad_row = |i: usize| {
            let base = (i * self.out_channels + co) * lo;
            &grad.data()[base..base + lo]
        };
        if let Some(cols) = cols {
            let sample_cols = |i: usize| &cols[i * lo * ck..(i + 1) * lo * ck];
            if ck <= 16 {
                // Narrow rows (e.g. a 1-channel first conv): keep the
                // whole partial in a stack accumulator so the `(i, p)`
                // sweep never re-reads `wg` from memory. Each element
                // still receives its nonzero-`g` products strictly in
                // `(i, p)` order.
                let mut acc = [0.0f32; 16];
                let acc = &mut acc[..ck];
                for i in 0..n {
                    let icols = sample_cols(i);
                    for_each_nonzero(grad_row(i), |p, g| {
                        *bg += g;
                        for (av, cv) in acc.iter_mut().zip(&icols[p * ck..(p + 1) * ck]) {
                            *av += g * cv;
                        }
                    });
                }
                wg.copy_from_slice(acc);
            } else {
                // Wide rows: fuse pairs of nonzero-`g` updates (a pair
                // may straddle two samples) so each sweep over `wg`
                // applies two products per element — same per-element
                // order, half the row traffic.
                let mut pending: Option<(f32, &[f32])> = None;
                for i in 0..n {
                    let icols = sample_cols(i);
                    for_each_nonzero(grad_row(i), |p, g| {
                        *bg += g;
                        let colrow = &icols[p * ck..(p + 1) * ck];
                        match pending.take() {
                            Some((g0, row0)) => axpy2_unrolled(wg, g0, row0, g, colrow),
                            None => pending = Some((g, colrow)),
                        }
                    });
                }
                if let Some((g0, row0)) = pending {
                    axpy_unrolled(wg, g0, row0);
                }
            }
            return;
        }
        for i in 0..n {
            let sample = &x.data()[i * sample_len..(i + 1) * sample_len];
            for_each_nonzero(grad_row(i), |p, g| {
                *bg += g;
                let start = p * stride;
                for ci in 0..cin {
                    let xs = &sample[ci * l + start..ci * l + start + k];
                    axpy_unrolled(&mut wg[ci * k..(ci + 1) * k], g, xs);
                }
            });
        }
    }

    /// One sample's input-gradient slab, accumulated in `(co, p, ci, k)`
    /// order as the sequential loop did. `dxi` must arrive zeroed.
    fn backward_sample_dx(&self, i: usize, grad: &Tensor, l: usize, lo: usize, dxi: &mut [f32]) {
        let (cin, k, stride) = (self.in_channels, self.kernel, self.stride);
        let ck = cin * k;
        for co in 0..self.out_channels {
            let wrow_base = co * ck;
            let grow = &grad.data()[(i * self.out_channels + co) * lo..(i * self.out_channels + co + 1) * lo];
            for (p, &g) in grow.iter().enumerate() {
                if g == 0.0 {
                    continue;
                }
                let start = p * stride;
                if k == 8 {
                    // The paper's kernel width: a fixed-size window lets
                    // the eight independent multiply-adds compile to
                    // straight-line SIMD with no per-call loop setup.
                    for ci in 0..cin {
                        let wbase = wrow_base + ci * k;
                        let ws: &[f32; 8] =
                            self.weight.value[wbase..wbase + 8].try_into().expect("k == 8");
                        let base = ci * l + start;
                        let d: &mut [f32; 8] =
                            (&mut dxi[base..base + 8]).try_into().expect("k == 8");
                        d[0] += g * ws[0];
                        d[1] += g * ws[1];
                        d[2] += g * ws[2];
                        d[3] += g * ws[3];
                        d[4] += g * ws[4];
                        d[5] += g * ws[5];
                        d[6] += g * ws[6];
                        d[7] += g * ws[7];
                    }
                } else {
                    for ci in 0..cin {
                        let ws = &self.weight.value[wrow_base + ci * k..wrow_base + (ci + 1) * k];
                        axpy_unrolled(&mut dxi[ci * l + start..ci * l + start + k], g, ws);
                    }
                }
            }
        }
    }

    /// The one backward body: pass A accumulates the parameter
    /// gradients, then pass B builds ∂loss/∂input when `input_grad` is
    /// set. Pass B reads only the weights and `grad`, so skipping it
    /// leaves every parameter-gradient bit as it was.
    fn backward_pass(&mut self, grad: &Tensor, input_grad: bool) -> Option<Tensor> {
        let x = self.cached_input.as_ref().expect("backward without forward");
        let n = x.shape()[0];
        let l = x.shape()[2];
        let lo = self.out_len(l);
        assert_eq!(grad.shape(), &[n, self.out_channels, lo]);
        let (cin, k, stride) = (self.in_channels, self.kernel, self.stride);
        let ck = cin * k;
        let sample_len = cin * l;

        // The whole batch's im2col matrix, built once and read by every
        // channel's sweep.
        let use_im2col = self.sample_flops(lo) >= IM2COL_MIN_FLOPS;
        let mut col_buf = ScratchBuf::of_len(if use_im2col { n * lo * ck } else { 0 });
        if use_im2col {
            for (i, sample) in x.data().chunks(sample_len).enumerate() {
                im2col_into(sample, cin, l, k, stride, &mut col_buf[i * lo * ck..(i + 1) * lo * ck]);
            }
        }
        let cols: Option<&[f32]> = use_im2col.then_some(&col_buf);

        // Pass A — parameter gradients, one output channel at a time:
        // the channel's slab holds its `weight.grad` row partial and its
        // bias partial, accumulated over `(i, p)` in index order (the
        // same per-element order as the sequential quadruple loop) and
        // added in channel order.
        let mut slab = ScratchBuf::of_len(ck + 1);
        for co in 0..self.out_channels {
            slab.fill(0.0);
            let (wg, bg) = slab.split_at_mut(ck);
            self.backward_channel(co, x, grad, cols, n, l, lo, wg, &mut bg[0]);
            for (dst, src) in self.weight.grad[co * ck..(co + 1) * ck].iter_mut().zip(&*wg) {
                *dst += src;
            }
            self.bias.grad[co] += bg[0];
        }
        drop(slab); // back to the arena before the input-gradient pass takes dx

        // Pass B — input gradients, one sample at a time: each sample's
        // dx slab is disjoint, accumulated in `(co, p, ci, k)` order as
        // the sequential loop did. Skipped for `backward_params`.
        input_grad.then(|| {
            let mut dx = workspace::tensor(&[n, cin, l]);
            for (i, dxi) in dx.data_mut().chunks_mut(sample_len).enumerate() {
                self.backward_sample_dx(i, grad, l, lo, dxi);
            }
            dx
        })
    }
}

impl Layer for Conv1d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        assert_eq!(x.shape().len(), 3, "conv1d expects (N, C, L)");
        assert_eq!(x.shape()[1], self.in_channels, "channel mismatch");
        let n = x.shape()[0];
        let l = x.shape()[2];
        let lo = self.out_len(l);
        let (cin, cout, k, stride) = (self.in_channels, self.out_channels, self.kernel, self.stride);
        let mut out = workspace::tensor(&[n, cout, lo]);
        let path = self.forward_path(lo);
        let ck = cin * k;
        let sample_len = cin * l;
        let xdata = x.data();
        // Lanes across channels read the weights k-major: transposed on
        // every call, so an optimizer step can leave no stale copy.
        let mut wt = ScratchBuf::of_len(if path == Path::Channels { ck * cout } else { 0 });
        if path == Path::Channels {
            transpose_into(&self.weight.value, cout, ck, &mut wt);
        }
        let wt = &*wt;
        // Each sample owns a disjoint slab of `out`; the scratch is the
        // unfolded sample and, across channels, the `(lo, C_out)` product
        // before its transpose (pooled, so a steady-state step never
        // allocates here).
        let mut col = ScratchBuf::of_len(if path == Path::Scalar { 0 } else { lo * ck });
        let mut product = ScratchBuf::of_len(if path == Path::Channels { lo * cout } else { 0 });
        for (i, chunk) in out.data_mut().chunks_mut(cout * lo).enumerate() {
            let sample = &xdata[i * sample_len..(i + 1) * sample_len];
            match path {
                Path::Positions => {
                    im2col_kmajor_into(sample, cin, l, k, stride, &mut col);
                    let (w, b) = (&self.weight.value, &self.bias.value);
                    matmul(w, &col, cout, lo, ck, Some(b), None, chunk);
                }
                Path::Channels => {
                    im2col_into(sample, cin, l, k, stride, &mut col);
                    matmul(&col, wt, lo, cout, ck, None, Some(&self.bias.value), &mut product);
                    transpose_into(&product, lo, cout, chunk);
                }
                Path::Scalar => self.forward_sample_scalar(sample, l, lo, chunk),
            }
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
        self.backward_pass(grad, true).expect("input gradient requested")
    }

    fn backward_params(&mut self, grad: &Tensor) {
        self.backward_pass(grad, false);
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
    fn out_len_formula() {
        let mut rng = SeedRng::new(1);
        let c = Conv1d::new(1, 4, 8, 3, &mut rng);
        assert_eq!(c.out_len(300), 98);
        assert_eq!(c.out_len(8), 1);
    }

    #[test]
    fn identity_kernel_passes_signal() {
        let mut rng = SeedRng::new(2);
        let mut c = Conv1d::new(1, 1, 1, 1, &mut rng);
        c.weight.value = vec![2.0];
        c.bias.value = vec![1.0];
        let x = Tensor::new(&[1, 1, 3], vec![1.0, 2.0, 3.0]);
        let y = c.forward(&x, false);
        assert_eq!(y.data(), &[3.0, 5.0, 7.0]);
    }

    #[test]
    fn stride_downsamples() {
        let mut rng = SeedRng::new(3);
        let mut c = Conv1d::new(1, 1, 2, 2, &mut rng);
        c.weight.value = vec![1.0, 1.0];
        c.bias.value = vec![0.0];
        let x = Tensor::new(&[1, 1, 6], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let y = c.forward(&x, false);
        assert_eq!(y.data(), &[3.0, 7.0, 11.0]);
    }

    #[test]
    fn multi_channel_sums_contributions() {
        let mut rng = SeedRng::new(4);
        let mut c = Conv1d::new(2, 1, 1, 1, &mut rng);
        c.weight.value = vec![1.0, 10.0];
        c.bias.value = vec![0.0];
        let x = Tensor::new(&[1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let y = c.forward(&x, false);
        assert_eq!(y.data(), &[31.0, 42.0]);
    }

    #[test]
    fn gradient_check() {
        let mut rng = SeedRng::new(5);
        let mut c = Conv1d::new(2, 3, 3, 2, &mut rng);
        let x = Tensor::new(&[1, 2, 9], (0..18).map(|i| (i as f32 * 0.13).sin()).collect());
        // Loss: flatten conv output through softmax CE with a fake label.
        let lo = c.out_len(9);
        let flat = |t: Tensor| t.reshaped(&[1, 3 * lo]);
        let y = c.forward(&x, true);
        let (_, g) = softmax_cross_entropy(&flat(y), &[2]);
        let g3 = g.reshaped(&[1, 3, lo]);
        let dx = c.backward(&g3);

        let eps = 1e-2;
        let loss_at = |c: &mut Conv1d, x: &Tensor| {
            let y = c.forward(x, false);
            let (l, _) = softmax_cross_entropy(&y.reshaped(&[1, 3 * lo]), &[2]);
            l
        };
        for &wi in &[0usize, 7, 17] {
            let orig = c.weight.value[wi];
            c.weight.value[wi] = orig + eps;
            let lp = loss_at(&mut c, &x);
            c.weight.value[wi] = orig - eps;
            let lm = loss_at(&mut c, &x);
            c.weight.value[wi] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = c.weight.grad[wi];
            assert!(
                (numeric - analytic).abs() < 2e-2 * (1.0 + numeric.abs()),
                "w[{wi}]: numeric {numeric} analytic {analytic}"
            );
        }
        for &xi in &[0usize, 8, 17] {
            let mut xp = x.clone();
            xp.data_mut()[xi] += eps;
            let lp = loss_at(&mut c, &xp);
            let mut xm = x.clone();
            xm.data_mut()[xi] -= eps;
            let lm = loss_at(&mut c, &xm);
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = dx.data()[xi];
            assert!(
                (numeric - analytic).abs() < 2e-2 * (1.0 + numeric.abs()),
                "x[{xi}]: numeric {numeric} analytic {analytic}"
            );
        }
    }

    /// The sweep's contract, written as the flat quadruple loop: each
    /// channel's partial summed over `(i, p)` in index order with zero
    /// gradients skipped, then added to the gradient already held.
    fn reference_param_grads(c: &Conv1d, x: &Tensor, grad: &Tensor) -> (Vec<f32>, Vec<f32>) {
        let (n, cin, l) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        let (cout, k, lo) = (c.out_channels, c.kernel, c.out_len(l));
        let mut wgrad = c.weight.grad.clone();
        let mut bgrad = c.bias.grad.clone();
        for co in 0..cout {
            let mut wp = vec![0.0f32; cin * k];
            let mut bp = 0.0f32;
            for i in 0..n {
                for p in 0..lo {
                    let g = grad.data()[(i * cout + co) * lo + p];
                    if g == 0.0 {
                        continue;
                    }
                    bp += g;
                    for ci in 0..cin {
                        for kk in 0..k {
                            wp[ci * k + kk] += g * x.data()[(i * cin + ci) * l + p * c.stride + kk];
                        }
                    }
                }
            }
            for (w, v) in wgrad[co * cin * k..(co + 1) * cin * k].iter_mut().zip(&wp) {
                *w += v;
            }
            bgrad[co] += bp;
        }
        (wgrad, bgrad)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The forward's contract, written as the textbook loop: each output
    /// starts at its channel's bias and adds its `(ci, k)` products in
    /// index order.
    fn reference_forward(c: &Conv1d, x: &Tensor) -> Vec<f32> {
        let (n, cin, l) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        let (cout, k, lo) = (c.out_channels, c.kernel, c.out_len(l));
        let mut out = vec![0.0f32; n * cout * lo];
        for i in 0..n {
            for co in 0..cout {
                for p in 0..lo {
                    let mut acc = c.bias.value[co];
                    for ci in 0..cin {
                        for kk in 0..k {
                            acc += c.weight.value[c.w(co, ci, kk)]
                                * x.data()[(i * cin + ci) * l + p * c.stride + kk];
                        }
                    }
                    out[(i * cout + co) * lo + p] = acc;
                }
            }
        }
        out
    }

    #[test]
    fn forward_matches_the_textbook_loop_on_every_path() {
        use Path::{Channels, Positions, Scalar};
        // (label, in, out, kernel, stride, length, path): output rows on
        // both sides of the lanes switch (`lo` against `C_out`).
        let cases = [
            ("long row (cv_train conv1)", 1, 16, 8, 3, 600, Positions),
            ("row one longer than the channels", 8, 16, 8, 3, 56, Positions),
            ("row as long as the channels", 8, 16, 8, 3, 53, Positions),
            ("row one shorter than the channels", 8, 16, 8, 3, 50, Channels),
            ("short row (cv_train conv2)", 16, 16, 8, 3, 49, Channels),
            ("odd channel count, long row", 3, 21, 5, 2, 61, Positions),
            ("odd channel count, short row", 6, 21, 5, 2, 43, Channels),
            ("scalar", 2, 3, 3, 2, 20, Scalar),
        ];
        let n = 3;
        for (seed, (label, cin, cout, k, stride, l, path)) in (31u64..).zip(cases) {
            let mut rng = SeedRng::new(seed);
            let mut c = Conv1d::new(cin, cout, k, stride, &mut rng);
            let lo = c.out_len(l);
            assert_eq!(c.forward_path(lo), path, "{label}");
            c.bias.value = (0..cout).map(|_| rng.normal(0.0, 0.5) as f32).collect();
            let x: Vec<f32> = (0..n * cin * l).map(|_| rng.normal(0.0, 1.0) as f32).collect();
            let x = Tensor::new(&[n, cin, l], x);
            let want = reference_forward(&c, &x);
            let y = c.forward(&x, false);
            assert_eq!(y.shape(), &[n, cout, lo]);
            assert_eq!(bits(y.data()), bits(&want), "{label}");
        }
    }

    #[test]
    fn for_each_nonzero_visits_what_the_zero_skip_keeps_in_order() {
        for len in [0usize, 1, 63, 64, 65, 200] {
            let row: Vec<f32> = (0..len)
                .map(|p| match p % 5 {
                    0 => 0.0,
                    1 => -0.0,
                    2 if p % 3 == 0 => f32::NAN,
                    _ => p as f32 - 7.5,
                })
                .collect();
            let want: Vec<(usize, u32)> = (row.iter().enumerate())
                .filter(|(_, g)| **g != 0.0)
                .map(|(p, g)| (p, g.to_bits()))
                .collect();
            let mut got = Vec::new();
            for_each_nonzero(&row, |p, g| got.push((p, g.to_bits())));
            assert_eq!(got, want, "len {len}");
        }
    }

    #[test]
    fn param_grads_match_the_ordered_reference_on_every_path() {
        // (label, in, out, kernel, stride, length, im2col, ck <= 16)
        let cases = [
            ("narrow im2col", 1, 16, 8, 3, 301, true, true),
            ("wide im2col", 16, 16, 8, 3, 61, true, false),
            ("scalar", 2, 3, 3, 2, 20, false, true),
        ];
        let n = 3;
        for (seed, (path, cin, cout, k, stride, l, im2col, narrow)) in (7u64..).zip(cases) {
            let mut rng = SeedRng::new(seed);
            let mut c = Conv1d::new(cin, cout, k, stride, &mut rng);
            let lo = c.out_len(l);
            assert_eq!(c.sample_flops(lo) >= IM2COL_MIN_FLOPS, im2col, "{path}: gate");
            assert_eq!(cin * k <= 16, narrow, "{path}: row width");
            let mut normal = |std: f64| rng.normal(0.0, std) as f32;
            let x = Tensor::new(&[n, cin, l], (0..n * cin * l).map(|_| normal(1.0)).collect());
            // Gradients already accumulated by an earlier batch.
            c.weight.grad = (0..cout * cin * k).map(|_| normal(0.1)).collect();
            c.bias.grad = (0..cout).map(|_| normal(0.1)).collect();
            // Mostly zeros, as behind a ReLU and a max-pool.
            let g: Vec<f32> = (0..n * cout * lo)
                .map(|t| if t % 4 == 1 || t % 7 == 0 { normal(1.0) } else { 0.0 })
                .collect();
            let g = Tensor::new(&[n, cout, lo], g);

            let _ = c.forward(&x, true);
            let (want_w, want_b) = reference_param_grads(&c, &x, &g);
            let mut params_only = c.clone();
            let dx = c.backward(&g);
            assert_eq!(dx.shape(), &[n, cin, l]);
            assert_eq!(bits(&c.weight.grad), bits(&want_w), "{path}: weight.grad");
            assert_eq!(bits(&c.bias.grad), bits(&want_b), "{path}: bias.grad");
            params_only.backward_params(&g);
            let only = (bits(&params_only.weight.grad), bits(&params_only.bias.grad));
            assert_eq!(only, (bits(&c.weight.grad), bits(&c.bias.grad)), "{path}: backward_params");
        }
    }

    #[test]
    #[should_panic(expected = "shorter than kernel")]
    fn too_short_input_panics() {
        let mut rng = SeedRng::new(6);
        let mut c = Conv1d::new(1, 1, 8, 3, &mut rng);
        c.forward(&Tensor::zeros(&[1, 1, 4]), false);
    }
}
