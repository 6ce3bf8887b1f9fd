//! One conv stage of the paper's classifier: a convolution, then ReLU
//! and pooling in one pass over its output.
//!
//! §4.1 pairs each convolution (ReLU activation) with a max pooling
//! layer (pool size 4); average pooling is the ablation. The stage runs
//! the conv forward unchanged, then walks each `(sample, channel)` row
//! of the conv output once:
//!
//! - **Max.** `relu(max(w)) == max(relu(w))` bit for bit: ties keep the
//!   first index, a NaN never wins a window, and a window whose max is
//!   not positive (all NaN included) gives `+0.0` either way. So the pass
//!   pools the raw conv row and applies ReLU to each window's winner
//!   only. The window max is a branch-free select, compiled once for the
//!   paper's width 4 and once for a width known only at run time.
//! - **Avg.** The ReLU'd window values, summed in order, times `1/size`.
//!
//! A window's trailing remainder is dropped, as in Keras.
//!
//! A training forward also lists, per row, the conv positions that a
//! gradient can reach: the winner of each window whose max is positive,
//! or (avg) each window position whose conv output is positive. The
//! backward turns that list into the row's `(position, value)` entries,
//! the ones a dense chain of pool backward, ReLU mask and the conv's
//! zero skip would reach, with the same positions, order and values:
//!
//! - max: `0.0 + g` at the winner, where `g` is the window's gradient;
//! - avg: `0.0 + g · (1/size)` at each listed position;
//! - an entry whose value is `±0` is dropped, a NaN is kept.
//!
//! The conv's one backward body reads only those entries, so a step
//! never scans the ~80 % of conv outputs that the pooling or the ReLU
//! gives no gradient.

use crate::conv::{Conv1d, RowLists};
use crate::param::Param;
use crate::tensor::Tensor;
use crate::workspace;
use bf_stats::SeedRng;

/// Pooling operator of a conv stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PoolKind {
    /// Max pooling (the paper's model).
    #[default]
    Max,
    /// Average pooling (ablation).
    Avg,
}

/// The paper's pool width, compiled as a constant into the max pass.
const PAPER_POOL: usize = 4;

/// A strided valid 1-D convolution, ReLU and non-overlapping pooling
/// over the length axis: `(N, C_in, L)` → `(N, C_out, L_conv / size)`
/// with `L_conv = (L - kernel) / stride + 1`.
#[derive(Debug, Clone)]
pub struct ConvPool1d {
    conv: Conv1d,
    kind: PoolKind,
    size: usize,
    /// Pooled output shape of the last training forward.
    trained_shape: Option<[usize; 3]>,
    /// From the last training forward, per row: each conv position a
    /// gradient can reach, with the pooled window it reads it from.
    reach: RowLists<u32>,
    /// The backward's per-row `(conv position, value)` entries.
    entries: RowLists<f32>,
}

impl ConvPool1d {
    /// A stage with a Glorot-initialized convolution.
    ///
    /// # Panics
    ///
    /// Panics when kernel, stride or pool size is zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        kind: PoolKind,
        size: usize,
        rng: &mut SeedRng,
    ) -> Self {
        assert!(size > 0, "pool size must be positive");
        ConvPool1d {
            conv: Conv1d::new(in_channels, out_channels, kernel, stride, rng),
            kind,
            size,
            trained_shape: None,
            reach: RowLists::default(),
            entries: RowLists::default(),
        }
    }

    /// Output length for an input of length `l`.
    ///
    /// # Panics
    ///
    /// Panics when `l` is shorter than the kernel.
    pub fn out_len(&self, l: usize) -> usize {
        self.conv.out_len(l) / self.size
    }

    /// The pooled ReLU of the convolution of `x`; a training forward
    /// also keeps what the backward needs.
    ///
    /// # Panics
    ///
    /// Panics when `x` is not `(N, C_in, L)` or is too short for one
    /// pooled output.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        assert_eq!(x.shape().len(), 3, "conv stage expects (N, C, L)");
        let lc = self.conv.out_len(x.shape()[2]);
        let lo = lc / self.size;
        assert!(lo > 0, "conv output length {lc} shorter than pool window {}", self.size);
        let y = self.conv.forward(x, train);
        let (n, c) = (y.shape()[0], y.shape()[1]);
        let mut out = workspace::tensor(&[n, c, lo]);
        let (kind, size) = (self.kind, self.size);
        let mut reach = train.then_some(&mut self.reach);
        if let Some(reach) = reach.as_deref_mut() {
            let per_window = if kind == PoolKind::Max { 1 } else { size };
            reach.clear(n * c * lo * per_window);
            self.trained_shape = Some([n, c, lo]);
        }
        for (row, orow) in y.data().chunks_exact(lc).zip(out.data_mut().chunks_exact_mut(lo)) {
            let mut pool = |slots: Option<&mut [(u32, u32)]>| match (kind, size) {
                (PoolKind::Max, PAPER_POOL) => max_row(row, PAPER_POOL, orow, slots),
                (PoolKind::Max, _) => max_row(row, size, orow, slots),
                (PoolKind::Avg, _) => avg_row(row, size, orow, slots),
            };
            match reach.as_deref_mut() {
                Some(reach) => reach.push_row(|slots| pool(Some(slots))),
                None => {
                    pool(None);
                }
            }
        }
        workspace::recycle(y);
        out
    }

    /// Given ∂loss/∂output of the last training forward, accumulate the
    /// conv's parameter gradients and, when `input_grad` is set, return
    /// ∂loss/∂input. The network's first stage passes `false`: nothing
    /// reads the gradient with respect to the traces, and skipping it
    /// leaves every parameter-gradient bit unchanged.
    ///
    /// # Panics
    ///
    /// Panics without a preceding training forward, or when `grad`'s
    /// shape is not that forward's output shape.
    pub fn backward(&mut self, grad: &Tensor, input_grad: bool) -> Option<Tensor> {
        let shape = self.trained_shape.expect("backward without forward");
        assert_eq!(grad.shape(), &shape, "gradient shape mismatch");
        let (kind, inv) = (self.kind, 1.0 / self.size as f32);
        self.entries.clear(self.reach.len());
        for (r, grow) in grad.data().chunks_exact(shape[2]).enumerate() {
            let reach = self.reach.row(r);
            self.entries.push_row(|slots| {
                let mut kept = 0;
                for &(pos, window) in reach {
                    let g = grow[window as usize];
                    // The pool backward's add into a zeroed buffer.
                    let value = match kind {
                        PoolKind::Max => 0.0 + g,
                        PoolKind::Avg => 0.0 + g * inv,
                    };
                    slots[kept] = (pos, value);
                    kept += usize::from(value != 0.0);
                }
                kept
            });
        }
        self.conv.backward(&self.entries, input_grad)
    }

    /// The conv's weight and bias, in checkpoint order.
    pub fn params_mut(&mut self) -> [&mut Param; 2] {
        [&mut self.conv.weight, &mut self.conv.bias]
    }
}

/// Max-pools one conv row into `out` with ReLU applied to each window's
/// winner. When `reach` is given, writes there the `(position, window)`
/// of the winner of every window whose max is positive and returns how
/// many. The fold keeps the first of tied maxima and never lets a NaN
/// win (`v > best` is false for it), and takes no branch per element.
#[inline(always)]
fn max_row(
    row: &[f32],
    size: usize,
    out: &mut [f32],
    mut reach: Option<&mut [(u32, u32)]>,
) -> usize {
    let mut kept = 0;
    for (p, (window, o)) in row.chunks_exact(size).zip(out.iter_mut()).enumerate() {
        let (mut at, mut best) = (0, f32::NEG_INFINITY);
        for (k, &v) in window.iter().enumerate() {
            let wins = v > best;
            at = if wins { k } else { at };
            best = if wins { v } else { best };
        }
        let live = best > 0.0;
        *o = if live { best } else { 0.0 };
        if let Some(reach) = reach.as_deref_mut() {
            reach[kept] = ((p * size + at) as u32, p as u32);
            kept += usize::from(live);
        }
    }
    kept
}

/// Average-pools one conv row's ReLU'd values into `out`. When `reach`
/// is given, writes there the `(position, window)` of every window
/// position whose conv output is positive and returns how many.
#[inline(always)]
fn avg_row(
    row: &[f32],
    size: usize,
    out: &mut [f32],
    mut reach: Option<&mut [(u32, u32)]>,
) -> usize {
    let inv = 1.0 / size as f32;
    let mut kept = 0;
    for (p, (window, o)) in row.chunks_exact(size).zip(out.iter_mut()).enumerate() {
        let sum: f32 = window.iter().map(|&v| if v > 0.0 { v } else { 0.0 }).sum();
        *o = sum * inv;
        if let Some(reach) = reach.as_deref_mut() {
            for (k, &v) in window.iter().enumerate() {
                reach[kept] = ((p * size + k) as u32, p as u32);
                kept += usize::from(v > 0.0);
            }
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::tests::{reference_forward, reference_input_grad, reference_param_grads};
    use crate::loss::softmax_cross_entropy;

    /// Bits with every NaN read as one value: Rust leaves NaN payloads
    /// unspecified, so only NaN-ness is part of the contract.
    fn canon(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() }).collect()
    }

    /// What the three layers the stage replaced computed.
    struct Chain {
        out: Vec<f32>,
        weight_grad: Vec<f32>,
        bias_grad: Vec<f32>,
        input_grad: Vec<f32>,
    }

    /// The conv stage as it ran before it was one layer: the textbook
    /// conv; the ReLU layer's select and mask; the pool layer's forward
    /// (a `fold` keeping the first strict maximum, or `iter().sum()`
    /// times `1/size`) and its backward, an add into a zeroed buffer;
    /// the ReLU mask on that; and the conv's zero-skipping gradient
    /// loops over the result.
    fn reference_chain(stage: &ConvPool1d, x: &Tensor, grad: &[f32]) -> Chain {
        let (conv, size) = (&stage.conv, stage.size);
        let (n, l) = (x.shape()[0], x.shape()[2]);
        let y = reference_forward(conv, x);
        let lc = conv.out_len(l);
        let (rows, lo) = (y.len() / lc, lc / size);
        let inv = 1.0 / size as f32;
        let mask: Vec<bool> = y.iter().map(|&v| v > 0.0).collect();
        let relu: Vec<f32> = y.iter().map(|&v| if v > 0.0 { v } else { 0.0 }).collect();
        let mut out = vec![0.0f32; rows * lo];
        let mut argmax = vec![0usize; rows * lo];
        for r in 0..rows {
            for p in 0..lo {
                let start = r * lc + p * size;
                let window = &relu[start..start + size];
                out[r * lo + p] = match stage.kind {
                    PoolKind::Max => {
                        let (best_k, best_v) = window.iter().enumerate().fold(
                            (0usize, f32::NEG_INFINITY),
                            |(bk, bv), (k, &v)| if v > bv { (k, v) } else { (bk, bv) },
                        );
                        argmax[r * lo + p] = start + best_k;
                        best_v
                    }
                    PoolKind::Avg => {
                        let sum: f32 = window.iter().sum();
                        sum * inv
                    }
                };
            }
        }
        let mut d = vec![0.0f32; rows * lc];
        match stage.kind {
            PoolKind::Max => {
                for (gi, &src) in argmax.iter().enumerate() {
                    d[src] += grad[gi];
                }
            }
            PoolKind::Avg => {
                for r in 0..rows {
                    for p in 0..lo {
                        let g = grad[r * lo + p] * inv;
                        for k in 0..size {
                            d[r * lc + p * size + k] += g;
                        }
                    }
                }
            }
        }
        for (v, &pass) in d.iter_mut().zip(&mask) {
            *v = if pass { *v } else { 0.0 };
        }
        let d = Tensor::new(&[n, rows / n, lc], d);
        let (weight_grad, bias_grad) = reference_param_grads(conv, x, &d);
        let input_grad = reference_input_grad(conv, x, &d);
        Chain { out, weight_grad, bias_grad, input_grad }
    }

    /// Standard-normal input with, per sample: a plateau (tied conv
    /// outputs), a run of zeros (windows left at the bias, so all
    /// negative or all zero in some channels), and in the second sample
    /// a NaN, in the third a `+inf` and a `-inf`.
    fn special_input(rng: &mut SeedRng, n: usize, cin: usize, l: usize) -> Tensor {
        let mut x = Vec::with_capacity(n * cin * l);
        for i in 0..n {
            for _ in 0..cin {
                for t in 0..l {
                    x.push(match (i, t) {
                        (_, t) if (l / 4..l / 4 + 10).contains(&t) => 0.75,
                        (_, t) if (l / 2..l / 2 + 10).contains(&t) => 0.0,
                        (1, t) if t == 3 * l / 4 => f32::NAN,
                        (2, t) if t == 3 * l / 4 => f32::INFINITY,
                        (2, t) if t == l - 2 => f32::NEG_INFINITY,
                        _ => rng.normal(0.0, 1.0) as f32,
                    });
                }
            }
        }
        Tensor::new(&[n, cin, l], x)
    }

    #[test]
    fn stage_matches_the_three_layer_chain_bit_for_bit() {
        // (label, in, out, kernel, stride, length): each conv output is
        // 61 or 13 long, one past a multiple of every window size 2..=5,
        // so each size leaves a remainder.
        let cases = [
            ("scalar forward, narrow backward", 1, 3, 3, 2, 123),
            ("scalar forward, wide backward", 4, 3, 5, 1, 65),
            ("positions, narrow (cv_train conv1)", 1, 16, 8, 3, 188),
            ("positions, wide", 8, 16, 8, 3, 188),
            ("channels, narrow", 2, 64, 8, 1, 68),
            ("channels, wide (cv_train conv2)", 16, 16, 8, 3, 44),
        ];
        let n = 3;
        let (mut ties, mut dead, mut nan_windows, mut inf_windows) = (0, 0, 0, 0);
        for (seed, (label, cin, cout, k, stride, l)) in (40u64..).zip(cases) {
            for kind in [PoolKind::Max, PoolKind::Avg] {
                for size in 1..=5 {
                    let mut rng = SeedRng::new(seed * 10 + size as u64);
                    let mut stage = ConvPool1d::new(cin, cout, k, stride, kind, size, &mut rng);
                    let case = format!("{label}, {kind:?} {size}");
                    // Biases of both signs and zero.
                    stage.conv.bias.value = (0..cout).map(|c| [0.4, -0.3, 0.0][c % 3]).collect();
                    // Gradients already accumulated by an earlier batch.
                    let mut normal = |std: f64| rng.normal(0.0, std) as f32;
                    stage.conv.weight.grad = (0..cout * cin * k).map(|_| normal(0.1)).collect();
                    stage.conv.bias.grad = (0..cout).map(|_| normal(0.1)).collect();
                    let x = special_input(&mut rng, n, cin, l);
                    let lo = stage.out_len(l);
                    let g: Vec<f32> = (0..n * cout * lo)
                        .map(|t| match t % 23 {
                            0 => 0.0,
                            5 => -0.0,
                            11 => f32::NAN,
                            _ => rng.normal(0.0, 1.0) as f32,
                        })
                        .collect();

                    let y = stage.forward(&x, true);
                    assert_eq!(y.shape(), &[n, cout, lo], "{case}");
                    let want = reference_chain(&stage, &x, &g);
                    assert_eq!(canon(y.data()), canon(&want.out), "{case}: output");
                    let g = Tensor::new(&[n, cout, lo], g);
                    let mut params_only = stage.clone();
                    let dx = stage.backward(&g, true).expect("input gradient");
                    assert_eq!(
                        canon(&stage.conv.weight.grad),
                        canon(&want.weight_grad),
                        "{case}: weight.grad"
                    );
                    assert_eq!(
                        canon(&stage.conv.bias.grad),
                        canon(&want.bias_grad),
                        "{case}: bias.grad"
                    );
                    assert_eq!(canon(dx.data()), canon(&want.input_grad), "{case}: input gradient");
                    assert!(params_only.backward(&g, false).is_none(), "{case}");
                    assert_eq!(
                        (canon(&params_only.conv.weight.grad), canon(&params_only.conv.bias.grad)),
                        (canon(&stage.conv.weight.grad), canon(&stage.conv.bias.grad)),
                        "{case}: parameters only"
                    );

                    // Count the windows that exercise the max contract.
                    let conv = reference_forward(&stage.conv, &x);
                    let lc = stage.conv.out_len(l);
                    for row in conv.chunks_exact(lc) {
                        for w in
                            row.chunks_exact(size).filter(|_| kind == PoolKind::Max && size > 1)
                        {
                            let max =
                                w.iter().fold(f32::NEG_INFINITY, |m, &v| if v > m { v } else { m });
                            ties += usize::from(
                                max > 0.0 && w.iter().filter(|&&v| v == max).count() > 1,
                            );
                            dead += usize::from(max <= 0.0);
                            nan_windows += usize::from(w.iter().any(|v| v.is_nan()));
                            inf_windows += usize::from(w.iter().any(|v| v.is_infinite()));
                        }
                    }
                }
            }
        }
        assert!(
            ties > 0 && dead > 0 && nan_windows > 0 && inf_windows > 0,
            "{ties} {dead} {nan_windows} {inf_windows}"
        );
    }

    #[test]
    fn finite_differences_agree_for_both_pool_kinds() {
        for kind in [PoolKind::Max, PoolKind::Avg] {
            let mut rng = SeedRng::new(5);
            let mut s = ConvPool1d::new(2, 3, 3, 2, kind, 2, &mut rng);
            let x =
                Tensor::new(&[1, 2, 21], (0..42).map(|i| (i as f32 * 0.13).sin() + 0.3).collect());
            let lo = s.out_len(21);
            let flat = |t: Tensor| t.reshaped(&[1, 3 * lo]);
            let y = s.forward(&x, true);
            let (_, g) = softmax_cross_entropy(&flat(y), &[2]);
            let dx = s.backward(&g.reshaped(&[1, 3, lo]), true).unwrap();

            let eps = 1e-2;
            let loss_at = |s: &mut ConvPool1d, x: &Tensor| {
                let y = s.forward(x, false);
                softmax_cross_entropy(&y.reshaped(&[1, 3 * lo]), &[2]).0
            };
            let close = |numeric: f32, analytic: f32| {
                (numeric - analytic).abs() < 2e-2 * (1.0 + numeric.abs())
            };
            for &wi in &[0usize, 7, 17] {
                let orig = s.conv.weight.value[wi];
                s.conv.weight.value[wi] = orig + eps;
                let lp = loss_at(&mut s, &x);
                s.conv.weight.value[wi] = orig - eps;
                let lm = loss_at(&mut s, &x);
                s.conv.weight.value[wi] = orig;
                let (numeric, analytic) = ((lp - lm) / (2.0 * eps), s.conv.weight.grad[wi]);
                assert!(
                    close(numeric, analytic),
                    "{kind:?} w[{wi}]: numeric {numeric} analytic {analytic}"
                );
            }
            for &xi in &[0usize, 8, 17, 30] {
                let mut xp = x.clone();
                xp.data_mut()[xi] += eps;
                let lp = loss_at(&mut s, &xp);
                let mut xm = x.clone();
                xm.data_mut()[xi] -= eps;
                let lm = loss_at(&mut s, &xm);
                let (numeric, analytic) = ((lp - lm) / (2.0 * eps), dx.data()[xi]);
                assert!(
                    close(numeric, analytic),
                    "{kind:?} x[{xi}]: numeric {numeric} analytic {analytic}"
                );
            }
        }
    }

    /// A stage whose conv passes each of its `channels` through: kernel
    /// 1, stride 1, identity weights, zero bias.
    fn identity(channels: usize, kind: PoolKind, size: usize) -> ConvPool1d {
        let mut s = ConvPool1d::new(channels, channels, 1, 1, kind, size, &mut SeedRng::new(1));
        s.conv.weight.value = (0..channels * channels)
            .map(|t| if t / channels == t % channels { 1.0 } else { 0.0 })
            .collect();
        s
    }

    fn row(v: &[f32]) -> Tensor {
        Tensor::new(&[1, 1, v.len()], v.to_vec())
    }

    #[test]
    fn max_takes_the_window_max() {
        let y = identity(1, PoolKind::Max, 2).forward(&row(&[1.0, 5.0, 2.0, 2.0, 9.0, 0.0]), false);
        assert_eq!(y.data(), &[5.0, 2.0, 9.0]);
    }

    #[test]
    fn remainder_dropped() {
        let y = identity(1, PoolKind::Max, 4).forward(&row(&[1.0; 7]), false);
        assert_eq!(y.shape(), &[1, 1, 1]);
    }

    #[test]
    fn max_backward_routes_to_the_winner() {
        let mut s = identity(1, PoolKind::Max, 3);
        let _ = s.forward(&row(&[1.0, 7.0, 2.0, 4.0, 4.5, 3.0]), true);
        let dx = s.backward(&row(&[10.0, 20.0]), true).unwrap();
        assert_eq!(dx.data(), &[0.0, 10.0, 0.0, 0.0, 20.0, 0.0]);
    }

    #[test]
    fn ties_go_to_first() {
        let mut s = identity(1, PoolKind::Max, 2);
        let _ = s.forward(&row(&[3.0, 3.0]), true);
        assert_eq!(s.backward(&row(&[1.0]), true).unwrap().data(), &[1.0, 0.0]);
    }

    #[test]
    fn non_positive_and_nan_windows_give_positive_zero_and_no_gradient() {
        let mut s = identity(1, PoolKind::Max, 2);
        let y =
            s.forward(&row(&[-1.0, -2.0, f32::NAN, f32::NAN, f32::NAN, -3.0, f32::NAN, 3.0]), true);
        assert_eq!(canon(y.data()), canon(&[0.0, 0.0, 0.0, 3.0]));
        let dx = s.backward(&row(&[1.0, 1.0, 1.0, 1.0]), true).unwrap();
        assert_eq!(dx.data(), &[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn channels_pool_independently() {
        let x = Tensor::new(&[1, 2, 2], vec![1.0, 2.0, 30.0, 4.0]);
        assert_eq!(identity(2, PoolKind::Max, 2).forward(&x, false).data(), &[2.0, 30.0]);
    }

    #[test]
    fn cache_reuse_across_shapes() {
        let mut s = identity(1, PoolKind::Max, 2);
        let _ = s.forward(&row(&[1.0, 5.0, 2.0, 2.0, 9.0, 0.0]), true);
        // A shorter input after a longer one must not read stale lists.
        let _ = s.forward(&row(&[4.0, 1.0, 0.0, 8.0]), true);
        assert_eq!(s.backward(&row(&[1.0, 2.0]), true).unwrap().data(), &[1.0, 0.0, 0.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "shorter than pool window")]
    fn too_short_panics() {
        identity(1, PoolKind::Max, 4).forward(&row(&[0.0; 3]), false);
    }

    #[test]
    fn avg_takes_the_window_mean() {
        let y = identity(1, PoolKind::Avg, 2).forward(&row(&[1.0, 5.0, 2.0, 2.0, 9.0, 1.0]), false);
        assert_eq!(y.data(), &[3.0, 2.0, 5.0]);
    }

    #[test]
    fn avg_backward_spreads_gradient_uniformly() {
        let mut s = identity(1, PoolKind::Avg, 3);
        let _ = s.forward(&row(&[1.0; 6]), true);
        assert_eq!(
            s.backward(&row(&[3.0, 6.0]), true).unwrap().data(),
            &[1.0, 1.0, 1.0, 2.0, 2.0, 2.0]
        );
    }

    #[test]
    fn avg_gradient_mass_conserved() {
        let mut s = identity(3, PoolKind::Avg, 4);
        let _ = s.forward(&Tensor::new(&[2, 3, 8], vec![0.5; 48]), true);
        let g = Tensor::new(&[2, 3, 2], (0..12).map(|i| i as f32).collect());
        let dx = s.backward(&g, true).unwrap();
        let (g_sum, dx_sum): (f32, f32) = (g.data().iter().sum(), dx.data().iter().sum());
        assert!((g_sum - dx_sum).abs() < 1e-4);
    }

    #[test]
    fn relu_clamps_negatives() {
        for kind in [PoolKind::Max, PoolKind::Avg] {
            let y = identity(1, kind, 1).forward(&row(&[-1.0, 0.0, 2.0, -3.0]), false);
            assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0], "{kind:?}");
        }
    }

    #[test]
    fn relu_masks_gradient() {
        for kind in [PoolKind::Max, PoolKind::Avg] {
            let mut s = identity(1, kind, 1);
            let _ = s.forward(&row(&[-1.0, 0.5, 2.0, -3.0]), true);
            assert_eq!(
                s.backward(&row(&[1.0; 4]), true).unwrap().data(),
                &[0.0, 1.0, 1.0, 0.0],
                "{kind:?}"
            );
        }
    }

    #[test]
    fn zero_input_blocks_gradient() {
        let mut s = identity(1, PoolKind::Max, 1);
        let _ = s.forward(&row(&[0.0]), true);
        assert_eq!(s.backward(&row(&[5.0]), true).unwrap().data(), &[0.0]);
    }

    #[test]
    #[should_panic(expected = "backward without forward")]
    fn backward_requires_training_forward() {
        let mut s = identity(1, PoolKind::Max, 1);
        let _ = s.forward(&row(&[1.0]), false);
        let _ = s.backward(&row(&[1.0]), true).unwrap();
    }
}
