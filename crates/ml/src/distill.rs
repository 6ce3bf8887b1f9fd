//! Knowledge distillation: a small student CNN trained on the full
//! model's soft labels.
//!
//! The anytime ladder needs a tier between "run the big CNN+LSTM" and
//! "nearest centroid": cheap enough to fit a nearly-exhausted deadline,
//! accurate enough to beat the centroid floor. Distillation (Hinton et
//! al.) gets there by training a reduced-width [`CnnLstm`] against the
//! teacher's *tempered* predictive distribution — the dark knowledge in
//! the teacher's near-miss probabilities — via
//! [`bf_nn::softmax_cross_entropy_soft`].
//!
//! Training is single-threaded and seeded (weight init, shuffling,
//! dropout all from `SeedRng`), so a distilled student is a pure
//! function of `(teacher predictions, DistillConfig)` — the property
//! test asserts bit-identical students across `BF_THREADS` settings.
//! Inference goes through [`CnnLstm::prefix_batch`], so the student
//! accepts prefix-length rows natively (zero-padded into the pooled
//! workspace tensor, which is handed out zeroed).

use crate::calibrate::Calibration;
use crate::{Classifier, Dataset};
use bf_nn::{CnnLstm, CnnLstmConfig};
use bf_stats::SeedRng;

/// Distillation hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistillConfig {
    /// Convolution filters per conv layer of the student (teacher uses
    /// the paper's 256 at full scale).
    pub conv_filters: usize,
    /// Softening temperature applied to the teacher's probabilities
    /// before they become training targets.
    pub temperature: f64,
    /// Fixed epoch count (no early stopping: the soft targets already
    /// regularize, and a fixed count keeps the fit deterministic even
    /// without a validation set).
    pub max_epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Seed for weight init, shuffling, and dropout.
    pub seed: u64,
}

impl Default for DistillConfig {
    fn default() -> Self {
        DistillConfig {
            conv_filters: 8,
            temperature: 2.0,
            max_epochs: 25,
            batch_size: 32,
            seed: 0,
        }
    }
}

/// The distilled student: a reduced-width [`CnnLstm`] plus its
/// distillation protocol.
#[derive(Debug)]
pub struct DistilledClassifier {
    arch: CnnLstmConfig,
    cfg: DistillConfig,
    net: Option<CnnLstm>,
}

impl DistilledClassifier {
    /// A student for `input_len`-sample traces over `n_classes` classes.
    ///
    /// # Panics
    ///
    /// Panics when the conv/pool stack does not fit `input_len` (check
    /// [`DistilledClassifier::feasible`] first).
    pub fn new(input_len: usize, n_classes: usize, cfg: DistillConfig) -> Self {
        let mut arch = CnnLstmConfig::scaled(input_len, n_classes, cfg.conv_filters);
        // Small nets want less regularization and a larger step than the
        // paper's full-width defaults.
        arch.dropout = 0.2;
        arch.learning_rate = 0.01;
        assert!(
            arch.try_lstm_steps().is_some(),
            "input_len {input_len} too short for the student conv/pool stack"
        );
        DistilledClassifier { arch, cfg, net: None }
    }

    /// Whether a student of this geometry can be built at all.
    pub fn feasible(input_len: usize, n_classes: usize, conv_filters: usize) -> bool {
        CnnLstmConfig::scaled(input_len, n_classes, conv_filters)
            .try_lstm_steps()
            .is_some()
    }

    /// The distillation configuration.
    pub fn config(&self) -> &DistillConfig {
        &self.cfg
    }

    /// Train the student against the teacher's predictions on `train`:
    /// query the teacher once for soft labels, temper them, then run the
    /// seeded minibatch loop over [`CnnLstm::train_batch_soft`].
    ///
    /// # Panics
    ///
    /// Panics when `train` is empty or its trace length disagrees with
    /// the student's `input_len`.
    pub fn distill(&mut self, teacher: &mut dyn Classifier, train: &Dataset) {
        assert!(!train.is_empty(), "cannot distill on an empty dataset");
        let mut targets = teacher.predict_proba(train.features());
        let soften = Calibration::with_temperature(self.cfg.temperature);
        for row in targets.iter_mut() {
            soften.apply_in_place(row);
        }
        self.train_on_targets(train.features(), &targets);
    }

    /// The shared training loop behind [`DistilledClassifier::distill`]
    /// and the degenerate one-hot [`Classifier::fit`].
    fn train_on_targets(&mut self, features: &[Vec<f32>], targets: &[Vec<f32>]) {
        assert_eq!(features.len(), targets.len(), "one target row per trace");
        assert_eq!(
            features[0].len(),
            self.arch.input_len,
            "dataset trace length must match architecture input_len"
        );
        let k = self.arch.n_classes;
        let mut net = CnnLstm::new(self.arch, self.cfg.seed);
        let mut rng = SeedRng::new(self.cfg.seed ^ 0xD157);
        let mut order: Vec<usize> = (0..features.len()).collect(); // alloc-ok: fit-time (offline)
        let _span = bf_obs::span!("distill");
        for _epoch in 0..self.cfg.max_epochs {
            rng.shuffle(&mut order);
            let mut loss_sum = 0.0f64;
            let mut batches = 0u32;
            for chunk in order.chunks(self.cfg.batch_size.max(1)) {
                let mut x = bf_nn::workspace::tensor(&[chunk.len(), 1, self.arch.input_len]);
                let mut t = bf_nn::workspace::tensor(&[chunk.len(), k]);
                for (bi, &i) in chunk.iter().enumerate() {
                    let len = self.arch.input_len;
                    x.data_mut()[bi * len..(bi + 1) * len].copy_from_slice(&features[i]);
                    t.data_mut()[bi * k..(bi + 1) * k].copy_from_slice(&targets[i]);
                }
                loss_sum += net.train_batch_soft(&x, &t) as f64;
                bf_nn::workspace::recycle(x);
                bf_nn::workspace::recycle(t);
                batches += 1;
            }
            bf_obs::counter("distill.epochs").inc();
            bf_obs::gauge("distill.loss").set(loss_sum / batches.max(1) as f64);
        }
        self.net = Some(net);
    }
}

impl Classifier for DistilledClassifier {
    /// Degenerate distillation against a perfect teacher: one-hot
    /// targets. Real deployments call [`DistilledClassifier::distill`];
    /// this keeps the student usable wherever a plain [`Classifier`] is
    /// expected. `val` is unused (fixed epochs, no early stopping).
    fn fit(&mut self, train: &Dataset, _val: &Dataset) {
        assert!(!train.is_empty(), "cannot fit on an empty dataset");
        let k = self.arch.n_classes;
        let targets: Vec<Vec<f32>> = train
            .labels()
            .iter()
            .map(|&y| {
                let mut row = vec![0.0f32; k]; // alloc-ok: fit-time (offline)
                row[y] = 1.0;
                row
            })
            .collect(); // alloc-ok: fit-time (offline)
        self.train_on_targets(train.features(), &targets);
    }

    /// Rows may be *any* length up to `input_len`: the student always
    /// predicts through [`CnnLstm::prefix_batch`], zero-padding shorter
    /// rows, so full-trace and prefix inference share one code path.
    fn predict_proba(&mut self, traces: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let net = self.net.as_mut().expect("classifier not fitted");
        crate::cnn::predict_rows(net, self.arch.n_classes, traces)
    }

    fn predict_proba_prefix(&mut self, traces: &[Vec<f32>]) -> Vec<Vec<f32>> {
        self.predict_proba(traces)
    }

    fn n_classes(&self) -> usize {
        self.arch.n_classes
    }

    fn save_network(&mut self, path: &std::path::Path) -> Result<bool, String> {
        crate::cnn::save_fitted(self.net.as_mut(), path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CentroidClassifier;

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

    fn small_cfg(seed: u64) -> DistillConfig {
        DistillConfig {
            conv_filters: 8,
            max_epochs: 12,
            batch_size: 8,
            seed,
            ..DistillConfig::default()
        }
    }

    #[test]
    fn distilled_student_learns_from_centroid_teacher() {
        let train = toy_dataset(8, 11);
        let test = toy_dataset(4, 12);
        let mut teacher = CentroidClassifier::new(3);
        teacher.fit(&train, &Dataset::new(3));
        let mut student = DistilledClassifier::new(300, 3, small_cfg(3));
        student.distill(&mut teacher, &train);
        let preds = student.predict(test.features());
        let acc = crate::metrics::accuracy(&preds, test.labels());
        assert!(acc >= 0.7, "student accuracy = {acc}");
    }

    #[test]
    fn distillation_is_bit_deterministic() {
        let train = toy_dataset(5, 21);
        let mut teacher = CentroidClassifier::new(3);
        teacher.fit(&train, &Dataset::new(3));
        let probe: Vec<Vec<f32>> = train.features()[..4].to_vec();
        let mut runs = Vec::new();
        for _ in 0..2 {
            let mut s = DistilledClassifier::new(300, 3, small_cfg(9));
            s.distill(&mut teacher, &train);
            runs.push(s.predict_proba(&probe));
        }
        for (a, b) in runs[0].iter().zip(&runs[1]) {
            let (ab, bb): (Vec<u32>, Vec<u32>) =
                (a.iter().map(|v| v.to_bits()).collect(), b.iter().map(|v| v.to_bits()).collect());
            assert_eq!(ab, bb, "same seed must reproduce the same student bitwise");
        }
    }

    #[test]
    fn prefix_rows_are_accepted_and_full_rows_match_exact_length() {
        let train = toy_dataset(5, 31);
        let mut student = DistilledClassifier::new(300, 3, small_cfg(4));
        student.fit(&train, &Dataset::new(3));
        let full = &train.features()[0];
        let half: Vec<f32> = full[..150].to_vec();
        let p = student.predict_proba(&[full.clone(), half]);
        assert_eq!(p.len(), 2);
        for row in &p {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn feasibility_check_matches_constructor() {
        assert!(DistilledClassifier::feasible(300, 3, 8));
        assert!(!DistilledClassifier::feasible(10, 3, 8));
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn infeasible_geometry_panics() {
        DistilledClassifier::new(10, 3, DistillConfig::default());
    }
}
