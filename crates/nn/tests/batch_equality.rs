//! Batch-vs-single bit-equality for the batched inference fast path.
//!
//! `CnnLstm::predict_proba_batch` stacks B rows into one forward pass;
//! every kernel gives each sample a disjoint output slab and a fixed
//! per-sample accumulation order, so row `i` of a batched result must be
//! bit-identical to classifying row `i` alone — at any batch size and
//! for any mix of full-length and zero-padded prefix rows. These
//! properties are what let the serving layer group requests into
//! micro-batches without perturbing outcomes.

use bf_nn::{CnnLstm, CnnLstmConfig};
use bf_stats::SeedRng;
use proptest::prelude::*;

/// The issue's batch sizes: singleton, small, odd, full wave.
const BATCH_SIZES: [usize; 4] = [1, 2, 7, 16];

/// A network with a random (but geometry-valid) shape. Lengths ≥ 210
/// keep the two conv/pool stages non-degenerate for kernel 8 / stride 3
/// / pool 4.
fn net_for(input_len: usize, n_classes: usize, filters: usize, seed: u64) -> CnnLstm {
    let mut cfg = CnnLstmConfig::scaled(input_len, n_classes, filters);
    cfg.dropout = 0.0;
    CnnLstm::new(cfg, seed)
}

/// Random rows: a mix of full-length traces and shorter prefixes that
/// `prefix_batch` zero-pads to `input_len`.
fn random_rows(n: usize, input_len: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = SeedRng::new(seed);
    (0..n)
        .map(|i| {
            // Every fourth row is a strict prefix (padded path); the
            // rest are full length.
            let len = if i % 4 == 3 {
                1 + (rng.next_raw() as usize) % input_len.max(2)
            } else {
                input_len
            };
            (0..len).map(|_| rng.standard_normal() as f32).collect()
        })
        .collect()
}

fn row_bits(p: &bf_nn::Tensor, i: usize, k: usize) -> Vec<u32> {
    p.data()[i * k..(i + 1) * k].iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Each row of a batched prediction is bit-identical to predicting
    /// that row alone, for every issue batch size and random shapes.
    #[test]
    fn batched_rows_match_single_rows(
        input_len in 210usize..380,
        n_classes in 2usize..5,
        filters in 2usize..7,
        seed in 0u64..1_000,
    ) {
        let mut net = net_for(input_len, n_classes, filters, seed);
        let rows = random_rows(16, input_len, seed ^ 0xBA7C4);
        let singles: Vec<Vec<u32>> = rows
            .iter()
            .map(|r| {
                let p = net.predict_proba_batch(std::slice::from_ref(r));
                let bits = row_bits(&p, 0, n_classes);
                bf_nn::workspace::recycle(p);
                bits
            })
            .collect();
        for &b in &BATCH_SIZES {
            let p = net.predict_proba_batch(&rows[..b]);
            prop_assert_eq!(p.shape(), &[b, n_classes]);
            for (i, single) in singles[..b].iter().enumerate() {
                prop_assert_eq!(
                    &row_bits(&p, i, n_classes),
                    single,
                    "row {} diverges at batch size {}", i, b
                );
            }
            bf_nn::workspace::recycle(p);
        }
    }
}

/// A padded prefix row classifies identically whether it arrives alone
/// or sandwiched between full-length rows — batch composition never
/// leaks across sample slabs.
#[test]
fn padded_prefix_rows_are_independent_of_neighbors() {
    let mut net = net_for(300, 4, 6, 11);
    let mut rng = SeedRng::new(23);
    let full: Vec<f32> = (0..300).map(|_| rng.standard_normal() as f32).collect();
    let prefix: Vec<f32> = full[..75].to_vec();
    let alone = net.predict_proba_batch(std::slice::from_ref(&prefix));
    let alone_bits = row_bits(&alone, 0, 4);
    bf_nn::workspace::recycle(alone);
    let mixed = net.predict_proba_batch(&[full.clone(), prefix.clone(), full]);
    assert_eq!(row_bits(&mixed, 1, 4), alone_bits);
    bf_nn::workspace::recycle(mixed);
}
