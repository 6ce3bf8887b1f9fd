//! 1-D convolution: the kernel inside each conv stage
//! ([`ConvPool1d`](crate::ConvPool1d)).
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
//! The backward visits only the output entries that carry gradient: the
//! stage hands it, per `(sample, channel)` row, the row's nonzero
//! `(position, value)` entries in position order ([`RowLists`]). The
//! parameter-gradient pass walks, per output channel, each sample's
//! entries — the flat loop's `(i, p)` order with its zero skip — reading
//! each window straight from the input when the unfolded row is narrow,
//! else from the batch's im2col matrix. The input-gradient pass walks the
//! same entries per sample, and is skipped for the network's first
//! layer, whose input gradient nothing reads.

use crate::param::Param;
use crate::tensor::{
    axpy2_unrolled, axpy_unrolled, dot_unrolled_from, im2col_into, im2col_kmajor_into, matmul,
    transpose_into, Tensor,
};
use crate::workspace::{self, ScratchBuf};
use bf_stats::SeedRng;

/// Below this many multiply-adds per sample the im2col buffer costs more
/// than it saves; the forward takes the scalar path. Both paths produce
/// identical bits, so the threshold only affects speed.
const IM2COL_MIN_FLOPS: usize = 8 * 1024;

/// Unfolded rows at most this wide (`C_in · K`, e.g. the 1-channel first
/// conv's 8) keep a channel's weight-gradient partial in a stack
/// accumulator and read each window straight from the input.
const NARROW_ROW: usize = 16;

/// Per-row lists of `(position, value)` pairs: one row per
/// `(sample, channel)` in row-major order, stored back to back in one
/// buffer that its owner reuses in place, so a warm list never
/// allocates. Rows are appended in order with [`RowLists::push_row`].
#[derive(Debug, Clone, Default)]
pub(crate) struct RowLists<T> {
    items: Vec<(u32, T)>,
    len: usize,
    /// `ends[r]` is one past row `r`'s last item.
    ends: Vec<usize>,
}

impl<T: Copy + Default> RowLists<T> {
    /// Empty every row, with room for `max_items` items in all.
    pub(crate) fn clear(&mut self, max_items: usize) {
        if self.items.len() < max_items {
            self.items.resize(max_items, (0, T::default()));
        }
        self.len = 0;
        self.ends.clear();
    }

    /// Append a row: `fill` writes its items to the front of the free
    /// slots and returns how many it wrote. A filler that compacts
    /// without a branch writes every candidate and advances its count
    /// only past the kept ones, so keep patterns a branch predictor
    /// cannot learn (ReLU signs, gradient zeros) cost no mispredictions.
    #[inline(always)]
    pub(crate) fn push_row(&mut self, fill: impl FnOnce(&mut [(u32, T)]) -> usize) {
        self.len += fill(&mut self.items[self.len..]);
        self.ends.push(self.len);
    }

    /// Number of rows.
    pub(crate) fn rows(&self) -> usize {
        self.ends.len()
    }

    /// Items in all rows.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Row `r`'s items, in the order they were written.
    pub(crate) fn row(&self, r: usize) -> &[(u32, T)] {
        let start = if r == 0 { 0 } else { self.ends[r - 1] };
        &self.items[start..self.ends[r]]
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
pub(crate) struct Conv1d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    /// Weights laid out `(C_out, C_in, K)` row-major.
    pub(crate) weight: Param,
    pub(crate) bias: Param,
    cached_input: Option<Tensor>,
}

impl Conv1d {
    /// A Glorot-initialized convolution.
    ///
    /// # Panics
    ///
    /// Panics when kernel or stride is zero.
    pub(crate) fn new(
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
    pub(crate) fn out_len(&self, l: usize) -> usize {
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

    /// The convolution of `x`; a training forward keeps `x` for the
    /// backward.
    pub(crate) fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
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

    /// One channel's parameter-gradient partial, accumulated over its
    /// entries in `(i, p)` order (the per-element order of the
    /// sequential quadruple loop): samples in order, and within a sample
    /// the channel's row entries in position order. `cols` is the
    /// batch's im2col matrix for wide rows (sample `i`'s `lo` rows of
    /// `ck` start at row `i * lo`), `None` for narrow ones; `wg` must
    /// arrive zeroed.
    #[allow(clippy::too_many_arguments)]
    fn backward_channel(
        &self,
        co: usize,
        x: &Tensor,
        entries: &RowLists<f32>,
        cols: Option<&[f32]>,
        n: usize,
        l: usize,
        lo: usize,
        wg: &mut [f32],
        bg: &mut f32,
    ) {
        let (cin, k, stride) = (self.in_channels, self.kernel, self.stride);
        let ck = cin * k;
        let row = |i: usize| entries.row(i * self.out_channels + co);
        let Some(cols) = cols else {
            // Narrow rows (e.g. the 1-channel first conv): keep the whole
            // partial in a stack accumulator and read each listed window
            // straight from the input. Each element still receives its
            // products strictly in `(i, p)` order.
            let mut acc = [0.0f32; NARROW_ROW];
            let acc = &mut acc[..ck];
            for (i, sample) in x.data().chunks_exact(cin * l).enumerate() {
                for &(p, g) in row(i) {
                    *bg += g;
                    let start = p as usize * stride;
                    for (a, xrow) in acc.chunks_exact_mut(k).zip(sample.chunks_exact(l)) {
                        for (av, xv) in a.iter_mut().zip(&xrow[start..start + k]) {
                            *av += g * xv;
                        }
                    }
                }
            }
            wg.copy_from_slice(acc);
            return;
        };
        // Wide rows: fuse pairs of updates (a pair may straddle two
        // samples) so each sweep over `wg` applies two products per
        // element — same per-element order, half the row traffic.
        let mut pending: Option<(f32, &[f32])> = None;
        for i in 0..n {
            let icols = &cols[i * lo * ck..(i + 1) * lo * ck];
            for &(p, g) in row(i) {
                *bg += g;
                let p = p as usize;
                let colrow = &icols[p * ck..(p + 1) * ck];
                match pending.take() {
                    Some((g0, row0)) => axpy2_unrolled(wg, g0, row0, g, colrow),
                    None => pending = Some((g, colrow)),
                }
            }
        }
        if let Some((g0, row0)) = pending {
            axpy_unrolled(wg, g0, row0);
        }
    }

    /// One sample's input-gradient slab, accumulated over its entries in
    /// `(co, p, ci, k)` order as the sequential loop did. `dxi` must
    /// arrive zeroed.
    fn backward_sample_dx(&self, i: usize, entries: &RowLists<f32>, l: usize, dxi: &mut [f32]) {
        let (cin, k, stride) = (self.in_channels, self.kernel, self.stride);
        let ck = cin * k;
        for co in 0..self.out_channels {
            let wrow_base = co * ck;
            for &(p, g) in entries.row(i * self.out_channels + co) {
                let start = p as usize * stride;
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

    /// The one backward body, over the output gradient's nonzero
    /// entries: `entries` holds one row per `(sample, channel)` of the
    /// last training forward's output, each with its `(position, value)`
    /// pairs in position order and no `±0` value. Pass A accumulates the
    /// parameter gradients, then pass B builds ∂loss/∂input when
    /// `input_grad` is set. Pass B reads only the weights and the
    /// entries, so skipping it leaves every parameter-gradient bit as it
    /// was.
    pub(crate) fn backward(&mut self, entries: &RowLists<f32>, input_grad: bool) -> Option<Tensor> {
        let x = self.cached_input.as_ref().expect("backward without forward");
        let n = x.shape()[0];
        let l = x.shape()[2];
        let lo = self.out_len(l);
        assert_eq!(entries.rows(), n * self.out_channels, "gradient rows mismatch");
        let (cin, k, stride) = (self.in_channels, self.kernel, self.stride);
        let ck = cin * k;
        let sample_len = cin * l;

        // Wide rows read the whole batch's im2col matrix, built once and
        // shared by every channel's sweep.
        let wide = ck > NARROW_ROW;
        let mut col_buf = ScratchBuf::of_len(if wide { n * lo * ck } else { 0 });
        if wide {
            for (i, sample) in x.data().chunks(sample_len).enumerate() {
                im2col_into(sample, cin, l, k, stride, &mut col_buf[i * lo * ck..(i + 1) * lo * ck]);
            }
        }
        let cols: Option<&[f32]> = wide.then_some(&col_buf);

        // Pass A — parameter gradients, one output channel at a time:
        // the channel's slab holds its `weight.grad` row partial and its
        // bias partial, accumulated over `(i, p)` in index order (the
        // same per-element order as the sequential quadruple loop) and
        // added in channel order.
        let mut slab = ScratchBuf::of_len(ck + 1);
        for co in 0..self.out_channels {
            slab.fill(0.0);
            let (wg, bg) = slab.split_at_mut(ck);
            self.backward_channel(co, x, entries, cols, n, l, lo, wg, &mut bg[0]);
            for (dst, src) in self.weight.grad[co * ck..(co + 1) * ck].iter_mut().zip(&*wg) {
                *dst += src;
            }
            self.bias.grad[co] += bg[0];
        }
        drop(slab); // back to the arena before the input-gradient pass takes dx
        drop(col_buf);

        // Pass B — input gradients, one sample at a time: each sample's
        // dx slab is disjoint, accumulated in `(co, p, ci, k)` order as
        // the sequential loop did. Skipped for the first layer.
        input_grad.then(|| {
            let mut dx = workspace::tensor(&[n, cin, l]);
            for (i, dxi) in dx.data_mut().chunks_mut(sample_len).enumerate() {
                self.backward_sample_dx(i, entries, l, dxi);
            }
            dx
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

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

    /// The sweep's contract, written as the flat quadruple loop: each
    /// channel's partial summed over `(i, p)` in index order with zero
    /// gradients skipped, then added to the gradient already held.
    pub(crate) fn reference_param_grads(
        c: &Conv1d,
        x: &Tensor,
        grad: &Tensor,
    ) -> (Vec<f32>, Vec<f32>) {
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

    /// The input-gradient pass's contract, written as the flat loop:
    /// per sample, `(co, p, ci, k)` in index order with zero gradients
    /// skipped.
    pub(crate) fn reference_input_grad(c: &Conv1d, x: &Tensor, grad: &Tensor) -> Vec<f32> {
        let (n, cin, l) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        let (cout, k, lo) = (c.out_channels, c.kernel, c.out_len(l));
        let mut dx = vec![0.0f32; n * cin * l];
        for i in 0..n {
            for co in 0..cout {
                for p in 0..lo {
                    let g = grad.data()[(i * cout + co) * lo + p];
                    if g == 0.0 {
                        continue;
                    }
                    for ci in 0..cin {
                        for kk in 0..k {
                            let w = c.weight.value[c.w(co, ci, kk)];
                            dx[(i * cin + ci) * l + p * c.stride + kk] += g * w;
                        }
                    }
                }
            }
        }
        dx
    }

    /// The entries a dense gradient holds: each row's nonzero values in
    /// position order.
    fn entries_of(grad: &Tensor) -> RowLists<f32> {
        let mut entries = RowLists::default();
        entries.clear(grad.len());
        for row in grad.data().chunks_exact(grad.shape()[2]) {
            entries.push_row(|slots| {
                let nonzero = row.iter().enumerate().filter(|(_, &g)| g != 0.0);
                slots.iter_mut().zip(nonzero).map(|(slot, (p, &g))| *slot = (p as u32, g)).count()
            });
        }
        entries
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The forward's contract, written as the textbook loop: each output
    /// starts at its channel's bias and adds its `(ci, k)` products in
    /// index order.
    pub(crate) fn reference_forward(c: &Conv1d, x: &Tensor) -> Vec<f32> {
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
    fn backward_matches_the_ordered_reference_on_every_path() {
        // (label, in, out, kernel, stride, length, im2col gate, ck <= 16)
        let cases = [
            ("narrow (cv_train conv1)", 1, 16, 8, 3, 301, true, true),
            ("wide (cv_train conv2)", 16, 16, 8, 3, 61, true, false),
            ("narrow, scalar forward", 2, 3, 3, 2, 20, false, true),
            ("wide, scalar forward", 4, 3, 5, 1, 30, false, false),
        ];
        let n = 3;
        for (seed, (path, cin, cout, k, stride, l, im2col, narrow)) in (7u64..).zip(cases) {
            let mut rng = SeedRng::new(seed);
            let mut c = Conv1d::new(cin, cout, k, stride, &mut rng);
            let lo = c.out_len(l);
            assert_eq!(c.sample_flops(lo) >= IM2COL_MIN_FLOPS, im2col, "{path}: gate");
            assert_eq!(cin * k <= NARROW_ROW, narrow, "{path}: row width");
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
            let want_dx = reference_input_grad(&c, &x, &g);
            let mut params_only = c.clone();
            let entries = entries_of(&g);
            let dx = c.backward(&entries, true).expect("input gradient");
            assert_eq!(dx.shape(), &[n, cin, l]);
            assert_eq!(bits(dx.data()), bits(&want_dx), "{path}: input gradient");
            assert_eq!(bits(&c.weight.grad), bits(&want_w), "{path}: weight.grad");
            assert_eq!(bits(&c.bias.grad), bits(&want_b), "{path}: bias.grad");
            assert!(params_only.backward(&entries, false).is_none());
            let only = (bits(&params_only.weight.grad), bits(&params_only.bias.grad));
            assert_eq!(only, (bits(&c.weight.grad), bits(&c.bias.grad)), "{path}: parameters only");
        }
    }

    #[test]
    fn row_lists_hold_each_row_as_written() {
        let mut lists = RowLists::default();
        for max_items in [6, 3] {
            // A reused list must not show the previous fill's items.
            lists.clear(max_items);
            lists.push_row(|slots| {
                slots[..2].copy_from_slice(&[(4, 1.0f32), (5, 2.0)]);
                1
            });
            lists.push_row(|_| 0);
            lists.push_row(|slots| {
                slots[0] = (1, 3.0);
                1
            });
            assert_eq!(lists.rows(), 3);
            assert_eq!(lists.len(), 2);
            assert_eq!(lists.row(0), &[(4, 1.0)]);
            assert!(lists.row(1).is_empty());
            assert_eq!(lists.row(2), &[(1, 3.0)]);
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
