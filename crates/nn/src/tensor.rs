//! A minimal contiguous f32 tensor, plus the shared kernel primitives
//! the Conv1d/Dense/LSTM layers build their forward and backward passes
//! on: im2col unfolding (row-major and k-major), a transpose, the
//! elementwise `axpy` updates, an in-order dot product and one matmul.
//!
//! [`matmul`] reads its right operand k-major, so each SIMD lane holds
//! one output element and adds that element's products in `k` order,
//! starting from its init value. The lanes run across independent
//! outputs, never across one output's sum, so every result is
//! bit-identical to the textbook triple loop. A caller whose right
//! operand is a weight matrix stored row-major transposes it into
//! pooled scratch on every call ([`transpose_into`]).

/// A dense, row-major f32 tensor with a dynamic shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Create a tensor from a shape and matching data.
    ///
    /// # Panics
    ///
    /// Panics when `data.len()` does not equal the product of `shape`.
    pub fn new(shape: &[usize], data: Vec<f32>) -> Self {
        let expected: usize = shape.iter().product();
        assert_eq!(data.len(), expected, "shape {shape:?} wants {expected} elements");
        Tensor { shape: shape.to_vec(), data } // alloc-ok: owned constructor
    }

    /// All-zeros tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor { shape: shape.to_vec(), data: vec![0.0; shape.iter().product()] } // alloc-ok: owned constructor
    }

    /// All-zeros tensor drawing its storage from a workspace arena
    /// instead of the allocator — the hot-path counterpart of
    /// [`Tensor::zeros`].
    pub fn zeroed_in(ws: &mut crate::workspace::Workspace, shape: &[usize]) -> Self {
        ws.tensor(shape)
    }

    /// Assemble a tensor from already-owned parts (workspace recycling).
    ///
    /// # Panics
    ///
    /// Panics when `data.len()` does not equal the product of `shape`.
    pub(crate) fn from_raw(shape: Vec<usize>, data: Vec<f32>) -> Self {
        let expected: usize = shape.iter().product();
        assert_eq!(data.len(), expected, "shape {shape:?} wants {expected} elements");
        Tensor { shape, data }
    }

    /// Dismantle into `(shape, data)` so a workspace can pool both.
    pub(crate) fn into_raw(self) -> (Vec<usize>, Vec<f32>) {
        (self.shape, self.data)
    }

    /// Make this tensor an exact copy of `src`, reusing existing
    /// capacity instead of allocating when it suffices.
    pub fn copy_from(&mut self, src: &Tensor) {
        if self.shape.len() == src.shape.len() {
            self.shape.copy_from_slice(&src.shape);
        } else {
            self.shape.clear();
            self.shape.extend_from_slice(&src.shape);
        }
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// The shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable element storage.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable element storage.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the raw storage.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Reinterpret with a new shape of equal element count.
    ///
    /// # Panics
    ///
    /// Panics when the element counts differ.
    pub fn reshaped(mut self, shape: &[usize]) -> Self {
        let expected: usize = shape.iter().product();
        assert_eq!(self.data.len(), expected, "reshape to {shape:?} mismatches");
        // Rewrite the existing shape vector in place: reshapes on the
        // training hot path keep the rank (and thus the capacity), so no
        // reallocation happens there.
        if self.shape.len() == shape.len() {
            self.shape.copy_from_slice(shape);
        } else {
            self.shape.clear();
            self.shape.extend_from_slice(shape);
        }
        self
    }

    /// Flat index for a 2-D coordinate.
    #[inline]
    pub fn idx2(&self, a: usize, b: usize) -> usize {
        debug_assert_eq!(self.shape.len(), 2);
        debug_assert!(a < self.shape[0] && b < self.shape[1]);
        a * self.shape[1] + b
    }

    /// Batch size (first dimension).
    ///
    /// # Panics
    ///
    /// Panics on rank-0 tensors.
    pub fn batch(&self) -> usize {
        self.shape[0]
    }
}

/// Unfold one sample's channels `(C, L)` (row-major, channel-major as in
/// a `(N, C, L)` tensor) into an im2col matrix of shape
/// `(L_out, C * K)` with `L_out = (L - kernel) / stride + 1`: row `p`
/// holds the window starting at `p * stride`, laid out channel-major
/// `(ci, k)` — exactly the layout of a `Conv1d` weight row, so a
/// convolution output becomes one contiguous dot product per `(co, p)`.
///
/// Appends into `out` (cleared first) so callers can reuse one buffer
/// across samples.
///
/// # Panics
///
/// Panics when `sample.len() != channels * len`, `kernel == 0`,
/// `stride == 0`, or `len < kernel`.
pub fn im2col(
    sample: &[f32],
    channels: usize,
    len: usize,
    kernel: usize,
    stride: usize,
    out: &mut Vec<f32>,
) -> usize {
    assert!(kernel > 0 && stride > 0, "kernel and stride must be positive");
    assert!(len >= kernel, "input length {len} shorter than kernel {kernel}");
    let lo = (len - kernel) / stride + 1;
    out.clear();
    out.resize(lo * channels * kernel, 0.0);
    im2col_into(sample, channels, len, kernel, stride, out)
}

/// [`im2col`] writing into an exactly-sized pre-allocated slice — the
/// workspace-arena form used by the zero-allocation training path.
///
/// # Panics
///
/// Panics on the same shape violations as [`im2col`], or when
/// `out.len()` is not exactly `L_out * channels * kernel`.
pub fn im2col_into(
    sample: &[f32],
    channels: usize,
    len: usize,
    kernel: usize,
    stride: usize,
    out: &mut [f32],
) -> usize {
    assert_eq!(sample.len(), channels * len, "sample shape mismatch");
    assert!(kernel > 0 && stride > 0, "kernel and stride must be positive");
    assert!(len >= kernel, "input length {len} shorter than kernel {kernel}");
    let lo = (len - kernel) / stride + 1;
    assert_eq!(out.len(), lo * channels * kernel, "im2col output size mismatch");
    let mut dst = 0;
    for p in 0..lo {
        let start = p * stride;
        for ci in 0..channels {
            let base = ci * len + start;
            out[dst..dst + kernel].copy_from_slice(&sample[base..base + kernel]);
            dst += kernel;
        }
    }
    lo
}

/// [`im2col_into`] laid out k-major: `out` is `(channels * kernel,
/// L_out)`, the transpose of the im2col matrix. Row `ci * kernel + k`
/// holds tap `k` of channel `ci` at every window position, which is the
/// right operand a convolution hands [`matmul`] when its lanes run
/// across output positions.
///
/// # Panics
///
/// Panics on the same shape violations as [`im2col_into`].
pub fn im2col_kmajor_into(
    sample: &[f32],
    channels: usize,
    len: usize,
    kernel: usize,
    stride: usize,
    out: &mut [f32],
) -> usize {
    assert_eq!(sample.len(), channels * len, "sample shape mismatch");
    assert!(kernel > 0 && stride > 0, "kernel and stride must be positive");
    assert!(len >= kernel, "input length {len} shorter than kernel {kernel}");
    let lo = (len - kernel) / stride + 1;
    assert_eq!(out.len(), lo * channels * kernel, "im2col output size mismatch");
    for (ci, xrow) in sample.chunks_exact(len).enumerate() {
        for k in 0..kernel {
            let orow = &mut out[(ci * kernel + k) * lo..(ci * kernel + k + 1) * lo];
            for (p, o) in orow.iter_mut().enumerate() {
                *o = xrow[k + p * stride];
            }
        }
    }
    lo
}

/// `init + Σ a[i]·b[i]` with a fixed-width (8-lane) unrolled inner loop.
///
/// Determinism contract: the eight products of a block are independent
/// (instruction-level parallelism for the FPU), but they are **added to
/// the accumulator strictly in index order**, so the result is
/// bit-identical to the naive `for i { acc += a[i] * b[i] }` loop — the
/// unrolling buys ILP on the multiplies without touching the
/// floating-point reduction order that `par_determinism` pins.
///
/// # Panics
///
/// Debug-panics when lengths differ.
#[inline]
pub fn dot_unrolled_from(init: f32, a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dot operand length mismatch");
    let n8 = a.len() / 8 * 8;
    let (a8, a_tail) = a.split_at(n8);
    let (b8, b_tail) = b.split_at(n8);
    let mut acc = init;
    for (ca, cb) in a8.chunks_exact(8).zip(b8.chunks_exact(8)) {
        let p0 = ca[0] * cb[0];
        let p1 = ca[1] * cb[1];
        let p2 = ca[2] * cb[2];
        let p3 = ca[3] * cb[3];
        let p4 = ca[4] * cb[4];
        let p5 = ca[5] * cb[5];
        let p6 = ca[6] * cb[6];
        let p7 = ca[7] * cb[7];
        acc += p0;
        acc += p1;
        acc += p2;
        acc += p3;
        acc += p4;
        acc += p5;
        acc += p6;
        acc += p7;
    }
    for (av, bv) in a_tail.iter().zip(b_tail) {
        acc += av * bv;
    }
    acc
}

/// `Σ a[i]·b[i]` — [`dot_unrolled_from`] with a zero seed.
#[inline]
pub fn dot_unrolled(a: &[f32], b: &[f32]) -> f32 {
    dot_unrolled_from(0.0, a, b)
}

/// `y[i] += a·x[i]`. Purely elementwise, so evaluation order cannot
/// affect any bit; the plain zip body is what LLVM's auto-vectorizer
/// turns into packed SIMD (a hand-unrolled version of this loop
/// measured ~4× *slower* — the manual unroll defeated vectorization).
///
/// # Panics
///
/// Debug-panics when lengths differ.
#[inline]
pub fn axpy_unrolled(y: &mut [f32], a: f32, x: &[f32]) {
    debug_assert_eq!(y.len(), x.len(), "axpy operand length mismatch");
    for (yv, xv) in y.iter_mut().zip(x) {
        *yv += a * xv;
    }
}

/// `y[i] = (y[i] + a0·x0[i]) + a1·x1[i]` — two fused [`axpy_unrolled`]
/// steps. The parenthesization matches two sequential axpy calls
/// exactly (Rust's `+` is left-associative), so the fusion changes no
/// bit; it exists to halve the read-modify-write traffic on `y` when a
/// caller has two updates queued for the same row.
///
/// # Panics
///
/// Debug-panics when lengths differ.
#[inline]
pub fn axpy2_unrolled(y: &mut [f32], a0: f32, x0: &[f32], a1: f32, x1: &[f32]) {
    debug_assert_eq!(y.len(), x0.len(), "axpy operand length mismatch");
    debug_assert_eq!(y.len(), x1.len(), "axpy operand length mismatch");
    for ((yv, xv0), xv1) in y.iter_mut().zip(x0).zip(x1) {
        *yv = *yv + a0 * xv0 + a1 * xv1;
    }
}

/// Output lanes in one register tile: four 4-wide SSE vectors per row.
const TILE: usize = 16;

/// `out = init + a·b` for `a: (m, k)` and `b: (k, n)`, both row-major:
/// `out[i * n + j] = init(i, j) + Σ_t a[i * k + t] · b[t * n + j]`.
///
/// `row_init` seeds every element of output row `i` with `row_init[i]`;
/// `col_init` seeds element `(i, j)` with `col_init[j]` (at most one may
/// be given — both panic).
///
/// The right operand is read k-major, so a run of adjacent outputs of
/// one row, `out[i][j..j + 16]`, reads a run of adjacent `b` entries at
/// every `t`: each output sits in its own SIMD lane. Lanes hold
/// *independent* outputs; within a lane the products are added one at a
/// time in `t` order, starting from the init value. No output's sum is
/// ever split or reassociated, so every element is bit-identical to the
/// textbook triple loop, however the tiles are laid out.
///
/// Tiles: two rows × 16 lanes (eight accumulator vectors), then a last
/// odd row, then 4-lane and 1-lane tiles for the columns left over.
///
/// # Panics
///
/// Panics on shape mismatches or when both inits are provided.
#[allow(clippy::too_many_arguments)]
pub fn matmul(
    a: &[f32],
    b: &[f32],
    m: usize,
    n: usize,
    k: usize,
    row_init: Option<&[f32]>,
    col_init: Option<&[f32]>,
    out: &mut [f32],
) {
    assert_eq!(a.len(), m * k, "lhs shape mismatch");
    assert_eq!(b.len(), k * n, "rhs shape mismatch");
    assert_eq!(out.len(), m * n, "output shape mismatch");
    assert!(row_init.is_none() || col_init.is_none(), "at most one init vector");
    if let Some(init) = row_init {
        assert_eq!(init.len(), m, "row init length mismatch");
    }
    if let Some(init) = col_init {
        assert_eq!(init.len(), n, "col init length mismatch");
    }
    let mut i = 0;
    while i < m {
        let rows = if i + 2 <= m { 2 } else { 1 };
        let mut j = 0;
        while j < n {
            let lanes = match n - j {
                r if r >= TILE => TILE,
                r if r >= 4 => 4,
                _ => 1,
            };
            match (rows, lanes) {
                (2, TILE) => tile::<2, TILE>(a, b, i, j, n, k, row_init, col_init, out),
                (2, 4) => tile::<2, 4>(a, b, i, j, n, k, row_init, col_init, out),
                (2, _) => tile::<2, 1>(a, b, i, j, n, k, row_init, col_init, out),
                (_, TILE) => tile::<1, TILE>(a, b, i, j, n, k, row_init, col_init, out),
                (_, 4) => tile::<1, 4>(a, b, i, j, n, k, row_init, col_init, out),
                _ => tile::<1, 1>(a, b, i, j, n, k, row_init, col_init, out),
            }
            j += lanes;
        }
        i += rows;
    }
}

/// One `R × W` output tile of [`matmul`] at rows `i0..i0 + R`, columns
/// `j0..j0 + W`. The `W` lanes of an accumulator row are independent:
/// each takes its products in `t` order, starting from its init.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn tile<const R: usize, const W: usize>(
    a: &[f32],
    b: &[f32],
    i0: usize,
    j0: usize,
    n: usize,
    k: usize,
    row_init: Option<&[f32]>,
    col_init: Option<&[f32]>,
    out: &mut [f32],
) {
    let mut acc = [[0.0f32; W]; R];
    for (r, lanes) in acc.iter_mut().enumerate() {
        match (row_init, col_init) {
            (Some(init), _) => *lanes = [init[i0 + r]; W],
            (_, Some(init)) => lanes.copy_from_slice(&init[j0..j0 + W]),
            _ => {}
        }
    }
    let arows: [&[f32]; R] = std::array::from_fn(|r| &a[(i0 + r) * k..(i0 + r + 1) * k]);
    for (t, brow) in b.chunks_exact(n).enumerate() {
        let bt: &[f32; W] = brow[j0..j0 + W].try_into().expect("tile within the row");
        for (lanes, arow) in acc.iter_mut().zip(&arows) {
            let av = arow[t];
            for (acc, bv) in lanes.iter_mut().zip(bt) {
                *acc += av * bv;
            }
        }
    }
    for (r, lanes) in acc.iter().enumerate() {
        let base = (i0 + r) * n + j0;
        out[base..base + W].copy_from_slice(lanes);
    }
}

/// `dst = srcᵀ` for a row-major `(rows, cols)` `src`: `dst` is
/// `(cols, rows)`. The callers of [`matmul`] use it to read a weight
/// matrix k-major, into pooled scratch on every call, so no cached copy
/// can go stale after an optimizer step.
///
/// # Panics
///
/// Panics when either length is not `rows * cols`.
pub fn transpose_into(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    assert_eq!(src.len(), rows * cols, "transpose source size mismatch");
    assert_eq!(dst.len(), rows * cols, "transpose target size mismatch");
    for (r, srow) in src.chunks_exact(cols.max(1)).enumerate() {
        for (c, &v) in srow.iter().enumerate() {
            dst[c * rows + r] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_length() {
        let t = Tensor::new(&[2, 3], vec![0.0; 6]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.len(), 6);
    }

    #[test]
    #[should_panic(expected = "elements")]
    fn new_rejects_bad_length() {
        Tensor::new(&[2, 3], vec![0.0; 5]);
    }

    #[test]
    fn zeros_is_zero() {
        let t = Tensor::zeros(&[4]);
        assert!(t.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn idx2_row_major() {
        let t = Tensor::zeros(&[3, 5]);
        assert_eq!(t.idx2(2, 4), 14);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::new(&[2, 3], (0..6).map(|x| x as f32).collect());
        let r = t.clone().reshaped(&[3, 2]);
        assert_eq!(r.data(), t.data());
        assert_eq!(r.shape(), &[3, 2]);
    }

    #[test]
    #[should_panic(expected = "mismatches")]
    fn reshape_rejects_bad_count() {
        Tensor::zeros(&[2, 3]).reshaped(&[7]);
    }

    #[test]
    fn im2col_unfolds_windows_channel_major() {
        // 2 channels, length 5, kernel 2, stride 2 -> lo = 2.
        let sample = [1.0, 2.0, 3.0, 4.0, 5.0, 10.0, 20.0, 30.0, 40.0, 50.0];
        let mut col = Vec::new();
        let lo = im2col(&sample, 2, 5, 2, 2, &mut col);
        assert_eq!(lo, 2);
        #[rustfmt::skip]
        assert_eq!(
            col,
            vec![
                1.0, 2.0, 10.0, 20.0, // p = 0: (ci0 k0 k1)(ci1 k0 k1)
                3.0, 4.0, 30.0, 40.0, // p = 1
            ]
        );
    }

    #[test]
    fn im2col_reuses_buffer() {
        let sample = [1.0, 2.0, 3.0];
        let mut col = vec![99.0; 64];
        let lo = im2col(&sample, 1, 3, 3, 1, &mut col);
        assert_eq!(lo, 1);
        assert_eq!(col, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "shorter than kernel")]
    fn im2col_rejects_short_input() {
        im2col(&[0.0; 2], 1, 2, 3, 1, &mut Vec::new());
    }

    /// The textbook triple loop [`matmul`] must equal bit for bit.
    fn naive_matmul(
        a: &[f32],
        b: &[f32],
        (m, n, k): (usize, usize, usize),
        row_init: Option<&[f32]>,
        col_init: Option<&[f32]>,
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = match (row_init, col_init) {
                    (Some(init), _) => init[i],
                    (_, Some(init)) => init[j],
                    _ => 0.0,
                };
                for t in 0..k {
                    acc += a[i * k + t] * b[t * n + j];
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    /// Bits with every NaN read as one value: Rust leaves NaN payloads
    /// unspecified, so only NaN-ness is part of the contract.
    fn canon(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() }).collect()
    }

    #[test]
    fn matmul_matches_naive_triple_loop() {
        let (m, n, k) = (5, 7, 11);
        let a: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.31).sin()).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.17).cos()).collect();
        let bias: Vec<f32> = (0..m).map(|i| i as f32 * 0.5).collect();
        let mut out = vec![0.0; m * n];
        matmul(&a, &b, m, n, k, Some(&bias), None, &mut out);
        for i in 0..m {
            for j in 0..n {
                let mut acc = bias[i];
                for kk in 0..k {
                    acc += a[i * k + kk] * b[kk * n + j];
                }
                // Bit-exact: same accumulation order as the kernel.
                assert_eq!(acc.to_bits(), out[i * n + j].to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn matmul_col_init_seeds_columns() {
        let a = [1.0, 0.0, 0.0, 1.0]; // 2x2 identity
        let b = [2.0, 3.0, 4.0, 5.0]; // rows [2,3], [4,5]
        let cb = [100.0, 200.0];
        let mut out = vec![0.0; 4];
        matmul(&a, &b, 2, 2, 2, None, Some(&cb), &mut out);
        assert_eq!(out, vec![102.0, 203.0, 104.0, 205.0]);
    }

    #[test]
    fn matmul_tiles_are_bit_stable_across_shapes() {
        // Columns straddling the 16-, 4- and 1-lane tiles, an odd row
        // count and a long `k` must agree element-wise with the
        // untiled reference.
        let (m, n, k) = (3, 40, 300);
        let a: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.013).sin()).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.007).cos()).collect();
        let mut out = vec![0.0; m * n];
        matmul(&a, &b, m, n, k, None, None, &mut out);
        assert_eq!(canon(&out), canon(&naive_matmul(&a, &b, (m, n, k), None, None)));
    }

    #[test]
    fn matmul_matches_naive_bit_for_bit_over_random_shapes() {
        let mut rng = bf_stats::SeedRng::new(0x3A7);
        // Mostly normal entries; about one in twelve is NaN or ±inf.
        let entry = |rng: &mut bf_stats::SeedRng| match rng.next_raw() % 36 {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            _ => rng.normal(0.0, 1.0) as f32,
        };
        for m in [1usize, 2, 3, 5] {
            for n in [1usize, 3, 4, 5, 15, 16, 17, 21, 33, 128] {
                for k in [0usize, 1, 2, 8, 17] {
                    let a: Vec<f32> = (0..m * k).map(|_| entry(&mut rng)).collect();
                    let b: Vec<f32> = (0..k * n).map(|_| entry(&mut rng)).collect();
                    let rows: Vec<f32> = (0..m).map(|_| entry(&mut rng)).collect();
                    let cols: Vec<f32> = (0..n).map(|_| entry(&mut rng)).collect();
                    for (label, row_init, col_init) in
                        [("zero", None, None), ("row", Some(&rows[..]), None), ("col", None, Some(&cols[..]))]
                    {
                        let mut out = vec![f32::NAN; m * n];
                        matmul(&a, &b, m, n, k, row_init, col_init, &mut out);
                        let want = naive_matmul(&a, &b, (m, n, k), row_init, col_init);
                        assert_eq!(canon(&out), canon(&want), "{m}x{n}x{k}, {label} init");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most one init vector")]
    fn matmul_rejects_two_inits() {
        matmul(&[1.0], &[1.0], 1, 1, 1, Some(&[0.0]), Some(&[0.0]), &mut [0.0]);
    }

    #[test]
    fn transpose_into_swaps_the_axes() {
        let src = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // (2, 3)
        let mut dst = [0.0; 6];
        transpose_into(&src, 2, 3, &mut dst);
        assert_eq!(dst, [1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn im2col_kmajor_is_the_transposed_im2col() {
        for (channels, len, kernel, stride) in [(1, 600, 8, 3), (2, 15, 4, 2), (3, 9, 9, 1), (4, 20, 1, 5)] {
            let sample: Vec<f32> = (0..channels * len).map(|i| i as f32).collect();
            let mut rows = Vec::new();
            let lo = im2col(&sample, channels, len, kernel, stride, &mut rows);
            let mut want = vec![0.0; rows.len()];
            transpose_into(&rows, lo, channels * kernel, &mut want);
            let mut got = vec![-1.0; rows.len()];
            assert_eq!(im2col_kmajor_into(&sample, channels, len, kernel, stride, &mut got), lo);
            assert_eq!(got, want, "{channels}x{len}, kernel {kernel}, stride {stride}");
        }
    }

    #[test]
    fn dot_unrolled_matches_naive_bitwise() {
        for n in [0usize, 1, 7, 8, 9, 16, 23, 300] {
            let a: Vec<f32> = (0..n).map(|i| (i as f32 * 0.31).sin()).collect();
            let b: Vec<f32> = (0..n).map(|i| (i as f32 * 0.17).cos()).collect();
            let mut naive = 0.25f32;
            for (av, bv) in a.iter().zip(&b) {
                naive += av * bv;
            }
            let fast = dot_unrolled_from(0.25, &a, &b);
            assert_eq!(naive.to_bits(), fast.to_bits(), "n = {n}");
            assert_eq!(dot_unrolled(&a, &b).to_bits(), dot_unrolled_from(0.0, &a, &b).to_bits());
        }
    }

    #[test]
    fn axpy_unrolled_matches_naive_bitwise() {
        for n in [0usize, 1, 7, 8, 9, 16, 23, 300] {
            let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.13).sin()).collect();
            let mut y1: Vec<f32> = (0..n).map(|i| (i as f32 * 0.07).cos()).collect();
            let mut y2 = y1.clone();
            for (yv, xv) in y1.iter_mut().zip(&x) {
                *yv += -0.37 * xv;
            }
            axpy_unrolled(&mut y2, -0.37, &x);
            let b1: Vec<u32> = y1.iter().map(|v| v.to_bits()).collect();
            let b2: Vec<u32> = y2.iter().map(|v| v.to_bits()).collect();
            assert_eq!(b1, b2, "n = {n}");
        }
    }

    #[test]
    fn im2col_into_matches_vec_variant() {
        let sample: Vec<f32> = (0..30).map(|i| i as f32).collect();
        let mut v = Vec::new();
        let lo = im2col(&sample, 2, 15, 4, 2, &mut v);
        let mut s = vec![9.0f32; v.len()];
        let lo2 = im2col_into(&sample, 2, 15, 4, 2, &mut s);
        assert_eq!(lo, lo2);
        assert_eq!(v, s);
    }

    #[test]
    #[should_panic(expected = "output size mismatch")]
    fn im2col_into_rejects_wrong_output_len() {
        im2col_into(&[0.0; 8], 1, 8, 2, 2, &mut [0.0; 3]);
    }

    #[test]
    fn copy_from_reuses_capacity_and_matches() {
        let src = Tensor::new(&[2, 3], (0..6).map(|x| x as f32).collect());
        let mut dst = Tensor::zeros(&[3, 2]);
        let cap = dst.data.capacity();
        dst.copy_from(&src);
        assert_eq!(dst.shape(), src.shape());
        assert_eq!(dst.data(), src.data());
        assert_eq!(dst.data.capacity(), cap, "same-size copy must not reallocate");
    }

    #[test]
    fn zeroed_in_draws_from_workspace() {
        let mut ws = crate::workspace::Workspace::new();
        let t = Tensor::zeroed_in(&mut ws, &[2, 4]);
        assert_eq!(t.shape(), &[2, 4]);
        assert!(t.data().iter().all(|&v| v == 0.0));
        ws.recycle(t);
        let t = Tensor::zeroed_in(&mut ws, &[4, 2]);
        assert_eq!(ws.stats().hits, 1);
        assert_eq!(t.len(), 8);
    }
}
