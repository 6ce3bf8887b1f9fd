//! The paper's CNN+LSTM classifier with its training protocol.

use crate::{Classifier, Dataset};
use bf_nn::{CnnLstm, CnnLstmConfig, Tensor};
use bf_stats::SeedRng;

/// Training-loop hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Maximum epochs (early stopping usually ends sooner).
    pub max_epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Early-stopping patience: stop after this many epochs without a new
    /// best validation accuracy ("stop training when the validation
    /// accuracy starts decreasing", §4.1).
    pub patience: usize,
    /// No early stopping before this epoch. The sigmoid-activation LSTM
    /// has a long warm-up plateau; stopping inside it would freeze the
    /// network at its untrained constant prediction.
    pub min_epochs: usize,
    /// Seed for weight init, batch shuffling, and dropout.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            max_epochs: 60,
            batch_size: 32,
            patience: 8,
            min_epochs: 15,
            seed: 0,
        }
    }
}

/// The paper's classifier: [`bf_nn::CnnLstm`] plus standardization,
/// minibatch Adam training, and validation-based early stopping.
#[derive(Debug)]
pub struct CnnLstmClassifier {
    arch: CnnLstmConfig,
    train_cfg: TrainConfig,
    net: Option<CnnLstm>,
}

impl CnnLstmClassifier {
    /// A classifier with explicit architecture and training config.
    pub fn new(arch: CnnLstmConfig, train_cfg: TrainConfig) -> Self {
        CnnLstmClassifier {
            arch,
            train_cfg,
            net: None,
        }
    }

    /// The architecture configuration.
    pub fn arch(&self) -> &CnnLstmConfig {
        &self.arch
    }

    /// Accuracy on a dataset (helper for training and tests).
    pub fn evaluate(&mut self, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let preds = self.predict(data.features());
        crate::metrics::accuracy(&preds, data.labels())
    }

    /// Gather a minibatch into a pooled workspace tensor (the caller
    /// recycles it after the step, so the steady-state loop never
    /// allocates batch storage).
    fn batch_tensor(features: &[Vec<f32>], indices: &[usize], len: usize) -> Tensor {
        let mut x = bf_nn::workspace::tensor(&[indices.len(), 1, len]);
        for (bi, &i) in indices.iter().enumerate() {
            x.data_mut()[bi * len..(bi + 1) * len].copy_from_slice(&features[i]);
        }
        x
    }
}

impl Classifier for CnnLstmClassifier {
    fn fit(&mut self, train: &Dataset, val: &Dataset) {
        assert!(!train.is_empty(), "cannot fit on an empty dataset");
        assert_eq!(
            train.feature_len(),
            self.arch.input_len,
            "dataset trace length must match architecture input_len"
        );
        let mut net = CnnLstm::new(self.arch, self.train_cfg.seed);
        let mut rng = SeedRng::new(self.train_cfg.seed ^ 0x7A1);
        let n = train.len();
        let mut order: Vec<usize> = (0..n).collect(); // alloc-ok: fit-time (offline)
        let mut best_acc = -1.0f64;
        let mut best_params: Option<Vec<Vec<f32>>> = None;
        let mut since_best = 0usize;
        let _span = bf_obs::span!("fit");
        let mut stop_reason = "max_epochs";
        let mut labels: Vec<usize> = Vec::with_capacity(self.train_cfg.batch_size.max(1)); // alloc-ok: fit-time (offline)
        for epoch in 0..self.train_cfg.max_epochs {
            let epoch_start = std::time::Instant::now();
            rng.shuffle(&mut order);
            let mut loss_sum = 0.0f64;
            let mut batches = 0u32;
            for chunk in order.chunks(self.train_cfg.batch_size.max(1)) {
                let x = Self::batch_tensor(train.features(), chunk, self.arch.input_len);
                labels.clear();
                labels.extend(chunk.iter().map(|&i| train.labels()[i]));
                loss_sum += net.train_batch(&x, &labels) as f64;
                bf_nn::workspace::recycle(x);
                batches += 1;
            }
            let train_secs = epoch_start.elapsed().as_secs_f64();
            let mean_loss = loss_sum / batches.max(1) as f64;
            bf_obs::counter("nn.epochs").inc();
            bf_obs::gauge("nn.loss").set(mean_loss);
            bf_obs::histogram("nn.epoch_seconds").record(train_secs);
            if train_secs > 0.0 {
                bf_obs::gauge("train.steps_per_sec").set(batches as f64 / train_secs);
            }
            // Early stopping on validation accuracy (when provided).
            if val.is_empty() {
                bf_obs::debug!("epoch {}: loss {mean_loss:.4} (no validation)", epoch + 1);
                continue;
            }
            self.net = Some(net);
            let acc = self.evaluate(val);
            net = self.net.take().expect("net stored above");
            bf_obs::debug!(
                "epoch {}: loss {mean_loss:.4} val acc {acc:.3} best {best_acc:.3} \
                 ({:.2} s)",
                epoch + 1,
                epoch_start.elapsed().as_secs_f64()
            );
            if acc > best_acc {
                best_acc = acc;
                best_params = Some(net.save_params());
                since_best = 0;
            } else {
                since_best += 1;
                if epoch + 1 >= self.train_cfg.min_epochs && since_best >= self.train_cfg.patience {
                    stop_reason = "patience_exhausted";
                    break;
                }
            }
        }
        bf_obs::gauge("nn.val_accuracy").set(best_acc.max(0.0));
        bf_obs::info!(
            "training stopped ({stop_reason}) after best val acc {:.3}",
            best_acc.max(0.0)
        );
        if let Some(params) = best_params {
            net.restore_params(&params);
        }
        self.net = Some(net);
    }

    /// Full-length rows only: every row's length is checked, then the
    /// rows run through [`Classifier::predict_proba_prefix`], where a
    /// full-length row is copied unpadded.
    fn predict_proba(&mut self, traces: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let len = self.arch.input_len;
        for t in traces {
            assert_eq!(t.len(), len, "trace length mismatch");
        }
        self.predict_proba_prefix(traces)
    }

    /// Inference over rows up to `input_len` long, the one path behind
    /// both predict entry points. Rows shorter than `input_len` (the
    /// anytime ladder's prefixes) are zero-padded into the pooled input
    /// tensor via [`CnnLstm::prefix_batch`] (workspace tensors are handed
    /// out zeroed, so padding is free). Bounded batches keep activation
    /// memory flat; batch and probability tensors are pooled workspace
    /// storage, and every chunk runs the one stacked forward pass of
    /// [`CnnLstm::predict_proba_batch`].
    fn predict_proba_prefix(&mut self, traces: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let net = self.net.as_mut().expect("classifier not fitted");
        predict_rows(net, self.arch.n_classes, traces)
    }

    /// Deadline-aware inference: checkpoints the token before every
    /// 64-trace chunk, so a cancelled request stops after the chunk in
    /// flight instead of finishing the whole batch. Identical outputs to
    /// [`Classifier::predict_proba`] when never cancelled (same chunking,
    /// same kernels).
    fn predict_proba_deadline(
        &mut self,
        traces: &[Vec<f32>],
        token: &bf_fault::CancelToken,
    ) -> Result<Vec<Vec<f32>>, bf_fault::DeadlineExceeded> {
        let mut out = Vec::with_capacity(traces.len()); // alloc-ok: per-request result rows (trait API)
        for chunk in traces.chunks(64) {
            token.check()?;
            out.extend(self.predict_proba(chunk));
        }
        token.check()?;
        Ok(out)
    }

    fn n_classes(&self) -> usize {
        self.arch.n_classes
    }

    fn save_network(&mut self, path: &std::path::Path) -> Result<bool, String> {
        save_fitted(self.net.as_mut(), path)
    }
}

/// Class probabilities of rows up to `net`'s input length: bounded
/// 64-row chunks, each one stacked forward pass of
/// [`CnnLstm::predict_proba_batch`] whose pooled probability tensor is
/// recycled. The one inference path of the CNN+LSTM and the distilled
/// student.
pub(crate) fn predict_rows(
    net: &mut CnnLstm,
    n_classes: usize,
    traces: &[Vec<f32>],
) -> Vec<Vec<f32>> {
    let mut out = Vec::with_capacity(traces.len()); // alloc-ok: per-request result rows (trait API)
    for chunk in traces.chunks(64) {
        let p = net.predict_proba_batch(chunk);
        for row in p.data().chunks_exact(n_classes).take(chunk.len()) {
            out.push(row.to_vec()); // alloc-ok: per-request result rows (trait API)
        }
        bf_nn::workspace::recycle(p);
    }
    out
}

/// [`Classifier::save_network`] for a network that exists once fitted:
/// `Ok(false)` before then.
pub(crate) fn save_fitted(
    net: Option<&mut CnnLstm>,
    path: &std::path::Path,
) -> Result<bool, String> {
    match net {
        Some(net) => bf_nn::save_network(net, path).map(|()| true).map_err(|e| e.to_string()),
        None => Ok(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic dataset: class = position of a dip in a standardized
    /// trace.
    fn toy_dataset(per_class: usize, seed: u64) -> Dataset {
        let mut rng = SeedRng::new(seed);
        let mut d = Dataset::new(3);
        for c in 0..3usize {
            for _ in 0..per_class {
                let mut t = vec![0.0f32; 300];
                for v in t.iter_mut() {
                    *v = 0.15 * rng.standard_normal() as f32;
                }
                let dip = 40 + c * 80;
                for v in &mut t[dip..dip + 30] {
                    *v -= 3.0;
                }
                d.push(t, c);
            }
        }
        d
    }

    fn fast_arch() -> CnnLstmConfig {
        let mut a = CnnLstmConfig::scaled(300, 3, 8);
        a.dropout = 0.2;
        a.learning_rate = 0.01;
        a
    }

    #[test]
    fn learns_separable_toy_data() {
        let train = toy_dataset(8, 1);
        let val = toy_dataset(2, 2);
        let test = toy_dataset(4, 3);
        let mut clf = CnnLstmClassifier::new(
            fast_arch(),
            TrainConfig {
                max_epochs: 40,
                batch_size: 8,
                patience: 6,
                min_epochs: 10,
                seed: 5,
            },
        );
        clf.fit(&train, &val);
        let acc = clf.evaluate(&test);
        assert!(acc >= 0.8, "accuracy = {acc}");
    }

    #[test]
    fn deadline_predict_is_bit_identical_and_cancels_between_chunks() {
        let train = toy_dataset(6, 7);
        let mut clf = CnnLstmClassifier::new(
            fast_arch(),
            TrainConfig {
                max_epochs: 3,
                batch_size: 8,
                patience: 2,
                min_epochs: 1,
                seed: 8,
            },
        );
        clf.fit(&train, &Dataset::new(3));
        // 70 traces span two 64-trace chunks, exercising the mid-batch
        // checkpoint.
        let traces: Vec<Vec<f32>> = (0..70).map(|i| train.features()[i % train.len()].clone()).collect();
        let token = bf_fault::CancelToken::unlimited();
        let deadline = clf.predict_proba_deadline(&traces, &token).expect("unlimited");
        let plain = clf.predict_proba(&traces);
        assert_eq!(deadline.len(), plain.len());
        for (a, b) in deadline.iter().zip(&plain) {
            let (ab, bb): (Vec<u32>, Vec<u32>) =
                (a.iter().map(|v| v.to_bits()).collect(), b.iter().map(|v| v.to_bits()).collect());
            assert_eq!(ab, bb);
        }
        let exhausted = bf_fault::CancelToken::new(0);
        exhausted.charge(1).unwrap_err();
        assert!(clf.predict_proba_deadline(&traces, &exhausted).is_err());
    }

    #[test]
    fn early_stopping_restores_best() {
        let train = toy_dataset(6, 4);
        let val = toy_dataset(2, 5);
        let mut clf = CnnLstmClassifier::new(
            fast_arch(),
            TrainConfig {
                max_epochs: 30,
                batch_size: 8,
                patience: 2,
                min_epochs: 5,
                seed: 6,
            },
        );
        clf.fit(&train, &val);
        // Whatever was restored must predict at least as well on val as a
        // freshly trained single epoch would by chance.
        let acc = clf.evaluate(&val);
        assert!(acc > 0.34, "val accuracy = {acc}");
    }

    #[test]
    fn predict_proba_shape_and_normalization() {
        let train = toy_dataset(4, 7);
        let mut clf = CnnLstmClassifier::new(
            fast_arch(),
            TrainConfig {
                max_epochs: 2,
                batch_size: 8,
                patience: 2,
                min_epochs: 0,
                seed: 8,
            },
        );
        clf.fit(&train, &Dataset::new(3));
        let p = clf.predict_proba(&train.features()[..5]);
        assert_eq!(p.len(), 5);
        for row in &p {
            assert_eq!(row.len(), 3);
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    #[should_panic(expected = "not fitted")]
    fn predict_before_fit_panics() {
        let mut clf = CnnLstmClassifier::new(fast_arch(), TrainConfig::default());
        clf.predict_proba(&[vec![0.0; 300]]);
    }

    #[test]
    #[should_panic(expected = "must match architecture")]
    fn wrong_trace_length_rejected() {
        let mut d = Dataset::new(3);
        d.push(vec![0.0; 100], 0);
        let mut clf = CnnLstmClassifier::new(fast_arch(), TrainConfig::default());
        clf.fit(&d, &Dataset::new(3));
    }
}
