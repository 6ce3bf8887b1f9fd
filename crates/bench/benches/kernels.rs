//! NN kernel microbenchmarks at the paper's shapes: 5 000-sample traces,
//! batch 32, the §4.1 architecture's layer geometry (conv stages of 256
//! filters k=8 s=3 with max pooling 4, LSTM 32 units over
//! 256-channel/34-step input, dense 32→100).
//!
//! These isolate the layer kernels from end-to-end training: each conv
//! stage's conv (im2col and the one `bf_nn::tensor::matmul`, whose SIMD
//! lanes hold independent outputs while each output adds its products
//! in order) with its ReLU and pooling pass, and its backward over the
//! entries the pooling sends gradient to; the LSTM and the dense head.
//! Every kernel runs on the calling thread, so `BF_THREADS` does not
//! enter.

use bf_nn::{ConvPool1d, Dense, Layer, Lstm, PoolKind, Tensor};
use bf_stats::SeedRng;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn signal(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = SeedRng::new(seed);
    (0..n).map(|_| rng.standard_normal() as f32).collect()
}

fn bench_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernels");
    g.sample_size(10);

    // First stage at paper scale: (32, 1, 5000) -> conv (32, 256, 1665)
    // -> pooled (32, 256, 416). The network's first layer computes no
    // input gradient, so its backward is `backward_params`.
    let x_stage1 = Tensor::new(&[32, 1, 5_000], signal(32 * 5_000, 1));
    g.bench_function("conv_stage1_forward_32x5000_256f", |b| {
        let mut stage = ConvPool1d::new(1, 256, 8, 3, PoolKind::Max, 4, &mut SeedRng::new(2));
        b.iter(|| black_box(stage.forward(black_box(&x_stage1), false)))
    });
    g.bench_function("conv_stage1_backward_32x5000_256f", |b| {
        let mut stage = ConvPool1d::new(1, 256, 8, 3, PoolKind::Max, 4, &mut SeedRng::new(3));
        let y = stage.forward(&x_stage1, true);
        let grad = Tensor::new(y.shape(), signal(y.len(), 4));
        b.iter(|| stage.backward_params(black_box(&grad)))
    });

    // Second stage: (32, 256, 416) -> conv (32, 256, 137) -> pooled
    // (32, 256, 34), the LSTM's input.
    let x_stage2 = Tensor::new(&[32, 256, 416], signal(32 * 256 * 416, 15));
    g.bench_function("conv_stage2_forward_32x256x416_256f", |b| {
        let mut stage = ConvPool1d::new(256, 256, 8, 3, PoolKind::Max, 4, &mut SeedRng::new(18));
        b.iter(|| black_box(stage.forward(black_box(&x_stage2), false)))
    });
    g.bench_function("conv_stage2_backward_32x256x416_256f", |b| {
        let mut stage = ConvPool1d::new(256, 256, 8, 3, PoolKind::Max, 4, &mut SeedRng::new(19));
        let y = stage.forward(&x_stage2, true);
        let grad = Tensor::new(y.shape(), signal(y.len(), 20));
        b.iter(|| black_box(stage.backward(black_box(&grad))))
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
