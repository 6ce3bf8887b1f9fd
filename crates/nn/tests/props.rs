//! Property-based invariants for the neural-network layers and the
//! checkpoint reader.

use bf_nn::{
    read_params, write_params, CheckpointError, CnnLstm, CnnLstmConfig, ConvPool1d, Dense,
    PoolKind, Tensor,
};
use bf_stats::SeedRng;
use proptest::prelude::*;

fn tensor3(n: usize, c: usize, l: usize, seed: u64) -> Tensor {
    let mut rng = SeedRng::new(seed);
    Tensor::new(
        &[n, c, l],
        (0..n * c * l).map(|_| rng.standard_normal() as f32).collect(),
    )
}

/// A conv stage whose conv passes each of its `channels` through:
/// kernel 1, stride 1, identity weights, zero bias.
fn identity(channels: usize, kind: PoolKind, size: usize) -> ConvPool1d {
    let mut stage = ConvPool1d::new(channels, channels, 1, 1, kind, size, &mut SeedRng::new(1));
    let [weight, _] = stage.params_mut();
    for (t, w) in weight.value.iter_mut().enumerate() {
        *w = if t / channels == t % channels { 1.0 } else { 0.0 };
    }
    stage
}

/// A network whose checkpoint is ~500 bytes: 2 filters, 2 LSTM units.
fn tiny_net() -> CnnLstm {
    let mut cfg = CnnLstmConfig::scaled(300, 4, 2);
    cfg.lstm_units = 2;
    CnnLstm::new(cfg, 3)
}

fn checkpoint(params: &[Vec<f32>]) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_params(&mut bytes, params).expect("writing to a Vec cannot fail");
    bytes
}

fn bits(params: &[Vec<f32>]) -> Vec<Vec<u32>> {
    params.iter().map(|p| p.iter().map(|v| v.to_bits()).collect()).collect()
}

/// Reads `bytes` as a checkpoint and restores what decodes into `net`.
/// The reader either decodes or reports a read error; a snapshot that
/// does not fit `net` is refused with every parameter bit left as it
/// was, and one that fits is restored bit for bit.
fn read_and_restore(net: &mut CnnLstm, bytes: &[u8]) {
    let snapshot = match read_params(bytes) {
        Ok(snapshot) => snapshot,
        Err(e) => {
            assert!(matches!(e, CheckpointError::Io(_) | CheckpointError::Format(_)), "{e}");
            return;
        }
    };
    let before = net.save_params();
    let fits = snapshot.len() == before.len()
        && snapshot.iter().zip(&before).all(|(s, p)| s.len() == p.len());
    let restored = net.try_restore_params(&snapshot);
    assert_eq!(restored.is_ok(), fits, "{restored:?}");
    let want = if fits { &snapshot } else { &before };
    assert_eq!(bits(&net.save_params()), bits(want));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes (bare, after the magic, or after the magic and
    /// version), a truncation and a single-byte flip of a real
    /// checkpoint, and a well-formed checkpoint one tensor or one value
    /// off the network's shape.
    #[test]
    fn checkpoint_reader_never_panics_and_a_misfit_leaves_the_network_alone(
        noise in proptest::collection::vec(any::<u8>(), 0..96),
        header in 0usize..3,
        cut in 0usize..4096,
        flip_at in 0usize..4096,
        flip in 1u8..=255,
        misfit in 0usize..4,
    ) {
        let mut net = tiny_net();
        let good = checkpoint(&net.save_params());
        let mut arbitrary = good[..[0, 8, 12][header]].to_vec();
        arbitrary.extend_from_slice(&noise);
        let mut flipped = good.clone();
        flipped[flip_at % good.len()] ^= flip;
        let mut reshaped = net.save_params();
        match misfit {
            0 => reshaped.truncate(8),
            1 => reshaped.push(vec![0.5]),
            2 => {
                reshaped[4].pop();
            }
            _ => reshaped[8].push(0.5),
        }
        let reshaped = checkpoint(&reshaped);
        for bytes in [&arbitrary[..], &good[..cut % good.len()], &flipped, &reshaped] {
            read_and_restore(&mut net, bytes);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Stage output geometry always matches the closed form: the conv's
    /// `(l - k) / stride + 1` positions, pooled `size` at a time with the
    /// remainder dropped.
    #[test]
    fn stage_output_geometry(
        n in 1usize..3,
        cin in 1usize..3,
        cout in 1usize..4,
        k in 1usize..6,
        stride in 1usize..4,
        size in 1usize..5,
        avg in any::<bool>(),
        extra in 0usize..20,
        seed in 0u64..1_000,
    ) {
        let l = k + (size - 1) * stride + extra;
        let mut rng = SeedRng::new(seed);
        let kind = if avg { PoolKind::Avg } else { PoolKind::Max };
        let mut stage = ConvPool1d::new(cin, cout, k, stride, kind, size, &mut rng);
        let x = tensor3(n, cin, l, seed);
        let y = stage.forward(&x, false);
        prop_assert_eq!(stage.out_len(l), ((l - k) / stride + 1) / size);
        prop_assert_eq!(y.shape(), &[n, cout, stage.out_len(l)]);
    }

    /// Max pooling behind a ReLU: every output is `+0.0` or a positive
    /// value of its window, and the backward routes exactly the gradient
    /// mass of the windows whose max is positive.
    #[test]
    fn maxpool_routes_gradient_mass(
        n in 1usize..3,
        c in 1usize..3,
        windows in 1usize..6,
        size in 1usize..5,
        seed in 0u64..1_000,
    ) {
        let l = windows * size;
        let mut stage = identity(c, PoolKind::Max, size);
        let x = tensor3(n, c, l, seed);
        let y = stage.forward(&x, true);
        for (window, &v) in x.data().chunks_exact(size).zip(y.data()) {
            prop_assert!(v.to_bits() == 0 || (v > 0.0 && window.contains(&v)));
        }
        let g = tensor3(n, c, windows, seed ^ 1);
        let dx = stage.backward(&g, true).unwrap();
        let live_windows = g.data().iter().zip(y.data()).filter(|(_, &v)| v > 0.0);
        let live: f32 = live_windows.map(|(g, _)| g).sum();
        let dx_sum: f32 = dx.data().iter().sum();
        prop_assert!((live - dx_sum).abs() < 1e-4 * (1.0 + live.abs()));
    }

    /// The ReLU's gradient mask: with a pool of one, the backward zeroes
    /// exactly the positions the forward zeroed.
    #[test]
    fn relu_mask_consistency(
        n in 1usize..4,
        f in 1usize..20,
        avg in any::<bool>(),
        seed in 0u64..1_000,
    ) {
        let kind = if avg { PoolKind::Avg } else { PoolKind::Max };
        let mut stage = identity(1, kind, 1);
        let x = tensor3(n, 1, f, seed);
        let y = stage.forward(&x, true);
        let dx = stage.backward(&Tensor::new(&[n, 1, f], vec![1.0; n * f]), true).unwrap();
        for i in 0..n * f {
            prop_assert_eq!(dx.data()[i] != 0.0, y.data()[i] > 0.0);
        }
    }

    /// Dense layers are affine: f(a+b) - f(b) = f(a) - f(0).
    #[test]
    fn dense_is_affine(fin in 1usize..8, fout in 1usize..6, seed in 0u64..1_000) {
        let mut rng = SeedRng::new(seed);
        let mut d = Dense::new(fin, fout, &mut rng);
        let mut gen = SeedRng::new(seed ^ 77);
        let a: Vec<f32> = (0..fin).map(|_| gen.standard_normal() as f32).collect();
        let b: Vec<f32> = (0..fin).map(|_| gen.standard_normal() as f32).collect();
        let ab: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let run = |d: &mut Dense, v: &[f32]| {
            d.forward(&Tensor::new(&[1, v.len()], v.to_vec()), false).into_data()
        };
        let f_ab = run(&mut d, &ab);
        let f_a = run(&mut d, &a);
        let f_b = run(&mut d, &b);
        let f_0 = run(&mut d, &vec![0.0; fin]);
        for i in 0..fout {
            let lhs = f_ab[i] - f_b[i];
            let rhs = f_a[i] - f_0[i];
            prop_assert!((lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()), "{lhs} vs {rhs}");
        }
    }
}
