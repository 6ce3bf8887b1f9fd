//! NN kernel microbenchmarks at the paper's shapes: 5 000-sample traces,
//! batch 32, the §4.1 architecture's layer geometry (conv 256 filters
//! k=8 s=3, LSTM 32 units over 256-channel/34-step input, dense 32→100).
//!
//! These isolate the layer kernels from end-to-end training: the
//! im2col unfolding and the one `bf_nn::tensor::matmul`, whose SIMD
//! lanes hold independent outputs (conv positions or channels, LSTM
//! gate rows, dense features) while each output adds its products in
//! order. They measure the kernels' wins over the naive loops; every
//! kernel runs on the calling thread, so `BF_THREADS` does not enter.

use bf_nn::{Conv1d, Dense, Layer, Lstm, Tensor};
use bf_stats::SeedRng;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn signal(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = SeedRng::new(seed);
    (0..n).map(|_| rng.standard_normal() as f32).collect()
}

/// The pre-im2col conv forward (the seed's naive (i, co, p, ci, k)
/// loop), kept here verbatim as the reference the kernel rewrite is
/// measured against.
#[allow(clippy::too_many_arguments)]
fn conv_forward_naive(
    x: &Tensor,
    weight: &[f32],
    bias: &[f32],
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
) -> Tensor {
    let (n, l) = (x.shape()[0], x.shape()[2]);
    let lo = (l - kernel) / stride + 1;
    let mut out = Tensor::zeros(&[n, out_channels, lo]);
    for i in 0..n {
        for (co, &b) in bias[..out_channels].iter().enumerate() {
            for p in 0..lo {
                let start = p * stride;
                let mut acc = b;
                for ci in 0..in_channels {
                    let xbase = x.idx3(i, ci, start);
                    let wbase = (co * in_channels + ci) * kernel;
                    let xs = &x.data()[xbase..xbase + kernel];
                    let ws = &weight[wbase..wbase + kernel];
                    for (xv, wv) in xs.iter().zip(ws) {
                        acc += xv * wv;
                    }
                }
                let oi = out.idx3(i, co, p);
                out.data_mut()[oi] = acc;
            }
        }
    }
    out
}

fn bench_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernels");
    g.sample_size(10);

    // First conv layer at paper scale: (32, 1, 5000) -> (32, 256, 1665).
    let x_conv = Tensor::new(&[32, 1, 5_000], signal(32 * 5_000, 1));
    g.bench_function("conv1d_forward_32x5000_256f_naive", |b| {
        let weight = signal(256 * 8, 13);
        let bias = signal(256, 14);
        b.iter(|| {
            black_box(conv_forward_naive(
                black_box(&x_conv),
                &weight,
                &bias,
                1,
                256,
                8,
                3,
            ))
        })
    });
    g.bench_function("conv1d_forward_32x5000_256f", |b| {
        let mut rng = SeedRng::new(2);
        let mut conv = Conv1d::new(1, 256, 8, 3, &mut rng);
        b.iter(|| black_box(conv.forward(black_box(&x_conv), false)))
    });
    g.bench_function("conv1d_backward_32x5000_256f", |b| {
        let mut rng = SeedRng::new(3);
        let mut conv = Conv1d::new(1, 256, 8, 3, &mut rng);
        let y = conv.forward(&x_conv, true);
        let grad = Tensor::new(y.shape(), signal(y.len(), 4));
        b.iter(|| black_box(conv.backward(black_box(&grad))))
    });

    // Second conv layer geometry: (32, 256, 416) -> (32, 256, 137).
    // This is where im2col pays: the naive loop strides across 256
    // channel rows per output element, the unfolded column is one
    // contiguous 2048-float dot.
    let x_conv2 = Tensor::new(&[32, 256, 416], signal(32 * 256 * 416, 15));
    g.bench_function("conv1d_forward_32x256x416_256f_naive", |b| {
        let weight = signal(256 * 256 * 8, 16);
        let bias = signal(256, 17);
        b.iter(|| {
            black_box(conv_forward_naive(
                black_box(&x_conv2),
                &weight,
                &bias,
                256,
                256,
                8,
                3,
            ))
        })
    });
    g.bench_function("conv1d_forward_32x256x416_256f", |b| {
        let mut rng = SeedRng::new(18);
        let mut conv = Conv1d::new(256, 256, 8, 3, &mut rng);
        b.iter(|| black_box(conv.forward(black_box(&x_conv2), false)))
    });
    g.bench_function("conv1d_backward_32x256x416_256f", |b| {
        let mut rng = SeedRng::new(19);
        let mut conv = Conv1d::new(256, 256, 8, 3, &mut rng);
        let y = conv.forward(&x_conv2, true);
        let grad = Tensor::new(y.shape(), signal(y.len(), 20));
        b.iter(|| black_box(conv.backward(black_box(&grad))))
    });

    // LSTM over the conv/pool stack's output geometry: 256 channels,
    // 34 timesteps, 32 hidden units.
    let x_lstm = Tensor::new(&[32, 256, 34], signal(32 * 256 * 34, 5));
    g.bench_function("lstm_forward_32x256x34_32h", |b| {
        let mut rng = SeedRng::new(6);
        let mut lstm = Lstm::new(256, 32, &mut rng);
        b.iter(|| black_box(lstm.forward(black_box(&x_lstm), false)))
    });
    g.bench_function("lstm_backward_32x256x34_32h", |b| {
        let mut rng = SeedRng::new(7);
        let mut lstm = Lstm::new(256, 32, &mut rng);
        let y = lstm.forward(&x_lstm, true);
        let grad = Tensor::new(y.shape(), signal(y.len(), 8));
        b.iter(|| black_box(lstm.backward(black_box(&grad))))
    });

    // Classifier head: 32 hidden units -> 100 closed-world classes.
    let x_dense = Tensor::new(&[32, 32], signal(32 * 32, 9));
    g.bench_function("dense_forward_32x32_100c", |b| {
        let mut rng = SeedRng::new(10);
        let mut dense = Dense::new(32, 100, &mut rng);
        b.iter(|| black_box(dense.forward(black_box(&x_dense), false)))
    });
    g.bench_function("dense_backward_32x32_100c", |b| {
        let mut rng = SeedRng::new(11);
        let mut dense = Dense::new(32, 100, &mut rng);
        let y = dense.forward(&x_dense, true);
        let grad = Tensor::new(y.shape(), signal(y.len(), 12));
        b.iter(|| black_box(dense.backward(black_box(&grad))))
    });

    g.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
