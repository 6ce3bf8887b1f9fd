//! The assembled CNN+LSTM classifier of §4.1 (footnote 2).

use crate::dense::Dense;
use crate::dropout::Dropout;
use crate::loss::{softmax, softmax_cross_entropy, softmax_cross_entropy_soft};
use crate::lstm::{Lstm, LstmActivation};
use crate::optim::Adam;
use crate::param::Param;
use crate::stage::{ConvPool1d, PoolKind};
use crate::tensor::Tensor;
use crate::workspace;
use bf_stats::SeedRng;

/// Architecture hyperparameters.
///
/// [`CnnLstmConfig::paper`] reproduces the published model exactly;
/// [`CnnLstmConfig::scaled`] shrinks the filter count for CI-scale runs
/// while keeping the architecture shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CnnLstmConfig {
    /// Trace length fed to the network.
    pub input_len: usize,
    /// Number of output classes.
    pub n_classes: usize,
    /// Convolution filters per conv layer (paper: 256).
    pub conv_filters: usize,
    /// Convolution kernel width.
    pub conv_kernel: usize,
    /// Convolution stride (paper: 3).
    pub conv_stride: usize,
    /// Max-pool window (paper: 4).
    pub pool_size: usize,
    /// Pooling operator: the paper's model uses max pooling; average
    /// pooling is provided for the ablation bench.
    pub pool_kind: PoolKind,
    /// LSTM hidden units (paper: 32).
    pub lstm_units: usize,
    /// LSTM candidate/output activation. The paper's footnote says
    /// "sigmoid activation"; Keras's default (and the variant that trains
    /// reliably on long sequences) is tanh. [`CnnLstmConfig::paper`] uses
    /// sigmoid verbatim, [`CnnLstmConfig::scaled`] uses tanh.
    pub lstm_activation: LstmActivation,
    /// Dropout rate (paper: 0.7).
    pub dropout: f64,
    /// Adam learning rate (paper: 0.001).
    pub learning_rate: f32,
}

impl CnnLstmConfig {
    /// The paper's exact hyperparameters for a given trace length and
    /// class count.
    pub fn paper(input_len: usize, n_classes: usize) -> Self {
        CnnLstmConfig {
            input_len,
            n_classes,
            conv_filters: 256,
            conv_kernel: 8,
            conv_stride: 3,
            pool_size: 4,
            pool_kind: PoolKind::Max,
            lstm_units: 32,
            lstm_activation: LstmActivation::Sigmoid,
            dropout: 0.7,
            learning_rate: 0.001,
        }
    }

    /// A filter-scaled variant for fast experiments; identical
    /// architecture with `conv_filters` filters instead of 256 and the
    /// tanh LSTM variant.
    pub fn scaled(input_len: usize, n_classes: usize, conv_filters: usize) -> Self {
        CnnLstmConfig {
            conv_filters,
            lstm_activation: LstmActivation::Tanh,
            ..Self::paper(input_len, n_classes)
        }
    }

    /// Sequence length after both conv/pool stages (the LSTM's step
    /// count), or `None` when `input_len` is too short for the stack.
    pub fn try_lstm_steps(&self) -> Option<usize> {
        if self.input_len < self.conv_kernel {
            return None;
        }
        let c1 = (self.input_len - self.conv_kernel) / self.conv_stride + 1;
        let p1 = c1 / self.pool_size;
        if p1 < self.conv_kernel {
            return None;
        }
        let c2 = (p1 - self.conv_kernel) / self.conv_stride + 1;
        let p2 = c2 / self.pool_size;
        if p2 < 1 {
            return None;
        }
        Some(p2)
    }

    /// Sequence length after both conv/pool stages (the LSTM's step
    /// count).
    ///
    /// # Panics
    ///
    /// Panics when `input_len` is too short for the stack (see
    /// [`CnnLstmConfig::try_lstm_steps`]).
    pub fn lstm_steps(&self) -> usize {
        self.try_lstm_steps().expect("input too short for the conv/pool stack")
    }
}

/// The paper's classifier: 2 × [Conv1d + ReLU + MaxPool] → LSTM →
/// Dropout → Dense, trained with softmax cross-entropy and Adam. Each
/// conv/ReLU/pool triple is one layer, a [`ConvPool1d`] stage.
#[derive(Debug)]
pub struct CnnLstm {
    config: CnnLstmConfig,
    conv1: ConvPool1d,
    conv2: ConvPool1d,
    lstm: Lstm,
    dropout: Dropout,
    dense: Dense,
    optimizer: Adam,
}

impl CnnLstm {
    /// Build the network with Glorot initialization from `seed`.
    ///
    /// # Panics
    ///
    /// Panics when `input_len` is too short for the conv/pool stack
    /// (see [`CnnLstmConfig::lstm_steps`]).
    pub fn new(config: CnnLstmConfig, seed: u64) -> Self {
        let _ = config.lstm_steps(); // validate geometry eagerly
        let mut rng = SeedRng::new(seed);
        let f = config.conv_filters;
        let (k, s) = (config.conv_kernel, config.conv_stride);
        let (pool, size) = (config.pool_kind, config.pool_size);
        // Built in this order, so each layer draws its initial weights
        // from the same point of the seed's stream.
        let conv1 = ConvPool1d::new(1, f, k, s, pool, size, &mut rng);
        let conv2 = ConvPool1d::new(f, f, k, s, pool, size, &mut rng);
        let lstm = Lstm::with_activation(f, config.lstm_units, config.lstm_activation, &mut rng);
        let dropout = Dropout::new(config.dropout, rng.next_raw());
        let dense = Dense::new(config.lstm_units, config.n_classes, &mut rng);
        let optimizer = Adam::new(config.learning_rate);
        CnnLstm { config, conv1, conv2, lstm, dropout, dense, optimizer }
    }

    /// Forward pass: traces `(N, 1, input_len)` → logits `(N, classes)`.
    ///
    /// Intermediate activations come from — and are recycled back into —
    /// the thread's [`workspace`](crate::workspace) arena, so a warm
    /// pass does not allocate. The returned logits are pooled storage
    /// too; callers on the hot path recycle them when done (dropping
    /// them instead is safe, just a pool re-warm).
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        assert_eq!(x.shape().len(), 3, "input must be (N, 1, L)");
        assert_eq!(x.shape()[1], 1, "input must have one channel");
        assert_eq!(x.shape()[2], self.config.input_len, "trace length mismatch");
        let h1 = self.conv1.forward(x, train);
        let h2 = self.conv2.forward(&h1, train);
        workspace::recycle(h1);
        let h3 = self.lstm.forward(&h2, train);
        workspace::recycle(h2);
        let h4 = self.dropout.forward(&h3, train);
        workspace::recycle(h3);
        let logits = self.dense.forward(&h4, train);
        workspace::recycle(h4);
        logits
    }

    /// One training step on a batch; returns the batch loss.
    ///
    /// Steady-state steps are allocation-free: activations, gradients,
    /// and every layer's scratch are pooled, and the optimizer walks the
    /// network's fixed parameter array (asserted end-to-end by
    /// `tests/alloc_regression.rs`).
    pub fn train_batch(&mut self, x: &Tensor, labels: &[usize]) -> f32 {
        self.train_step(x, |logits| softmax_cross_entropy(logits, labels))
    }

    /// One training step against *soft* target distributions `(N, K)` —
    /// the knowledge-distillation path. Same backward/optimizer plumbing
    /// as [`CnnLstm::train_batch`] (steady-state steps are
    /// allocation-free), only the loss differs: soft cross-entropy via
    /// [`softmax_cross_entropy_soft`].
    pub fn train_batch_soft(&mut self, x: &Tensor, targets: &Tensor) -> f32 {
        self.train_step(x, |logits| softmax_cross_entropy_soft(logits, targets))
    }

    /// The step both training entry points share: a training forward,
    /// `loss_fn` on the logits (returning the loss and ∂loss/∂logits),
    /// the backward through every layer with each gradient recycled, and
    /// one Adam update. The first stage computes no input gradient: the
    /// gradient with respect to the traces has no reader.
    fn train_step(&mut self, x: &Tensor, loss_fn: impl FnOnce(&Tensor) -> (f32, Tensor)) -> f32 {
        let logits = self.forward(x, true);
        let (loss, g5) = loss_fn(&logits);
        workspace::recycle(logits);
        let g4 = self.dense.backward(&g5);
        workspace::recycle(g5);
        let g3 = self.dropout.backward(&g4);
        workspace::recycle(g4);
        let g2 = self.lstm.backward(&g3);
        workspace::recycle(g3);
        let g1 = self.conv2.backward(&g2, true).expect("input gradient requested");
        workspace::recycle(g2);
        self.conv1.backward(&g1, false);
        workspace::recycle(g1);
        let (params, optimizer) = self.params_mut();
        optimizer.step(params);
        loss
    }

    /// Every parameter in checkpoint order (each stage's conv weight and
    /// bias, the LSTM's `w_ih`, `w_hh` and bias, the dense weight and
    /// bias): the one list that Adam, [`CnnLstm::save_params`] and
    /// [`CnnLstm::try_restore_params`] walk. The optimizer comes with
    /// it, borrowed apart from the layers.
    fn params_mut(&mut self) -> ([&mut Param; 9], &mut Adam) {
        let CnnLstm { conv1, conv2, lstm, dense, optimizer, .. } = self;
        let [w1, b1] = conv1.params_mut();
        let [w2, b2] = conv2.params_mut();
        let [w_ih, w_hh, b_lstm] = lstm.params_mut();
        let [w_dense, b_dense] = dense.params_mut();
        ([w1, b1, w2, b2, w_ih, w_hh, b_lstm, w_dense, b_dense], optimizer)
    }

    /// Gather trace *prefixes* into a `(N, 1, input_len)` batch: each
    /// row's leading `rows[i].len()` samples are copied and the tail
    /// stays zero (workspace tensors hand out zeroed storage), so a
    /// shorter-than-`input_len` trace runs through the fixed-geometry
    /// conv/LSTM stack unchanged. Pooled storage — the caller recycles
    /// the tensor after the forward pass, keeping the anytime inference
    /// path allocation-free on a warm thread.
    ///
    /// # Panics
    ///
    /// Panics when a row is longer than `input_len`.
    pub fn prefix_batch(&self, rows: &[Vec<f32>]) -> Tensor {
        let len = self.config.input_len;
        let mut x = workspace::tensor(&[rows.len(), 1, len]);
        for (bi, row) in rows.iter().enumerate() {
            assert!(
                row.len() <= len,
                "prefix length {} exceeds input_len {len}",
                row.len()
            );
            x.data_mut()[bi * len..bi * len + row.len()].copy_from_slice(row);
        }
        x
    }

    /// Class probabilities for a batch of traces.
    pub fn predict_proba(&mut self, x: &Tensor) -> Tensor {
        let logits = self.forward(x, false);
        let p = softmax(&logits);
        workspace::recycle(logits);
        p
    }

    /// Class probabilities for a batch of trace *prefixes*, stacked into
    /// one forward pass: the rows are zero-padded into a single pooled
    /// `(B, 1, input_len)` tensor ([`CnnLstm::prefix_batch`]) and every
    /// layer runs exactly once over the whole batch — one im2col/matmul
    /// invocation per conv stage instead of one per row. Because each
    /// sample owns a disjoint output slab in every kernel and per-sample
    /// accumulation order is fixed, row `i` of the result is
    /// bit-identical to running [`CnnLstm::predict_proba`] on row `i`
    /// alone at any batch size (pinned by `tests/batch_equality.rs`).
    ///
    /// All intermediate storage is pooled, so a warm call performs no
    /// heap allocation; the returned `(B, classes)` tensor is pooled
    /// too — hot-path callers recycle it when done.
    ///
    /// # Panics
    ///
    /// Panics when a row is longer than `input_len`.
    pub fn predict_proba_batch(&mut self, rows: &[Vec<f32>]) -> Tensor {
        let x = self.prefix_batch(rows);
        let p = self.predict_proba(&x);
        workspace::recycle(x);
        p
    }

    /// Snapshot all parameter values (early-stopping checkpoints).
    pub fn save_params(&mut self) -> Vec<Vec<f32>> {
        self.params_mut().0.into_iter().map(|p| p.value.clone()).collect() // alloc-ok: cold path (checkpoints)
    }

    /// Restore parameters from a snapshot.
    ///
    /// # Panics
    ///
    /// Panics when the snapshot does not match this network's shape;
    /// callers restoring untrusted snapshots (e.g. checkpoint files)
    /// should use [`CnnLstm::try_restore_params`] instead.
    pub fn restore_params(&mut self, snapshot: &[Vec<f32>]) {
        self.try_restore_params(snapshot)
            .unwrap_or_else(|e| panic!("snapshot mismatch: {e}"));
    }

    /// Restore parameters from a snapshot, rejecting shape mismatches
    /// without touching the network.
    ///
    /// # Errors
    ///
    /// Describes the first tensor-count or tensor-size disagreement.
    pub fn try_restore_params(&mut self, snapshot: &[Vec<f32>]) -> Result<(), String> {
        let (params, _) = self.params_mut();
        if params.len() != snapshot.len() {
            return Err(format!(
                "snapshot has {} tensors, network has {}",
                snapshot.len(),
                params.len()
            ));
        }
        if let Some((i, (p, s))) = params
            .iter()
            .zip(snapshot)
            .enumerate()
            .find(|(_, (p, s))| p.len() != s.len())
        {
            return Err(format!(
                "snapshot tensor {i} has {} values, network expects {}",
                s.len(),
                p.len()
            ));
        }
        for (p, s) in params.into_iter().zip(snapshot) {
            p.value.copy_from_slice(s);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CnnLstm {
        // Unit-test variant: fewer filters, lighter dropout, faster lr
        // (the paper hyperparameters are exercised at experiment scale).
        let mut cfg = CnnLstmConfig::scaled(300, 4, 6);
        cfg.dropout = 0.2;
        cfg.learning_rate = 0.01;
        CnnLstm::new(cfg, 7)
    }

    fn toy_batch(n_per_class: usize) -> (Tensor, Vec<usize>) {
        // Four synthetic classes with a dip at a class-specific position.
        let len = 300;
        let mut data = Vec::new();
        let mut labels = Vec::new();
        let mut rng = SeedRng::new(9);
        for class in 0..4usize {
            for _ in 0..n_per_class {
                // Standardized traces (the ml pipeline z-scores inputs).
                let dip = 30 + class * 65;
                for i in 0..len {
                    let mut v = 0.1 * rng.standard_normal() as f32;
                    if (dip..dip + 30).contains(&i) {
                        v -= 3.0;
                    }
                    data.push(v);
                }
                labels.push(class);
            }
        }
        let n = labels.len();
        (Tensor::new(&[n, 1, len], data), labels)
    }

    #[test]
    fn geometry_matches_hand_computation() {
        // A 300-sample trace: 300 -> 98 -> 24 -> 6 -> 1 LSTM step; the
        // paper's 3000-sample traces give 20 steps.
        let cfg = CnnLstmConfig::paper(3_000, 100);
        // 3000 -> (3000-8)/3+1 = 998 -> /4 = 249 -> (249-8)/3+1 = 81 -> /4 = 20
        assert_eq!(cfg.lstm_steps(), 20);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn too_short_input_rejected() {
        CnnLstm::new(CnnLstmConfig::scaled(40, 4, 6), 1);
    }

    #[test]
    fn forward_shape() {
        let mut net = tiny();
        let x = Tensor::zeros(&[3, 1, 300]);
        let y = net.forward(&x, false);
        assert_eq!(y.shape(), &[3, 4]);
    }

    #[test]
    fn training_reduces_loss_and_fits_toy_data() {
        let mut net = tiny();
        let (x, labels) = toy_batch(6);
        let first = net.train_batch(&x, &labels);
        let mut last = first;
        for _ in 0..60 {
            last = net.train_batch(&x, &labels);
        }
        assert!(last < first * 0.5, "first {first} last {last}");
        let p = net.predict_proba(&x);
        let argmax =
            |row: &[f32]| (0..row.len()).fold(0, |b, j| if row[j] > row[b] { j } else { b });
        let preds = p.data().chunks_exact(4).map(argmax);
        let correct = preds.zip(&labels).filter(|(p, l)| p == *l).count();
        assert!(
            correct as f64 >= labels.len() as f64 * 0.9,
            "correct {correct}/{}",
            labels.len()
        );
    }

    #[test]
    fn predict_proba_rows_sum_to_one() {
        let mut net = tiny();
        let (x, _) = toy_batch(1);
        let p = net.predict_proba(&x);
        for i in 0..p.batch() {
            let s: f32 = p.data()[i * 4..(i + 1) * 4].iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn save_restore_roundtrip() {
        let mut net = tiny();
        let (x, labels) = toy_batch(2);
        let snapshot = net.save_params();
        let before = net.predict_proba(&x);
        for _ in 0..5 {
            net.train_batch(&x, &labels);
        }
        let after = net.predict_proba(&x);
        assert_ne!(before.data(), after.data());
        net.restore_params(&snapshot);
        let restored = net.predict_proba(&x);
        assert_eq!(before.data(), restored.data());
    }

    #[test]
    fn deterministic_initialization() {
        let mut a = CnnLstm::new(CnnLstmConfig::scaled(300, 4, 6), 42);
        let mut b = CnnLstm::new(CnnLstmConfig::scaled(300, 4, 6), 42);
        assert_eq!(a.save_params(), b.save_params());
        let mut c = CnnLstm::new(CnnLstmConfig::scaled(300, 4, 6), 43);
        assert_ne!(a.save_params(), c.save_params());
    }
}
