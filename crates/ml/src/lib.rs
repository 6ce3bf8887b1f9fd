//! `bf-ml` — the classification pipeline of §4.1.
//!
//! The paper's attack is two-phase: offline, the attacker collects labeled
//! traces and trains a classifier; online, the trained classifier predicts
//! which website produced a fresh trace. This crate provides:
//!
//! * [`Dataset`] — labeled trace collections with per-trace
//!   standardization and stratified splitting;
//! * [`Classifier`] — the common interface over the paper's
//!   [`CnnLstmClassifier`] and the fast [`CentroidClassifier`] baseline
//!   used for smoke-scale runs;
//! * [`metrics`] — top-1/top-k accuracy and the open-world
//!   sensitive/non-sensitive/combined report of Table 1;
//! * [`crossval`] — the paper's 10-fold cross-validation protocol
//!   (per fold: one held-out test fold, with the remainder split 90/10
//!   into train/validation and early stopping on validation accuracy),
//!   with folds evaluated on parallel threads.
//!
//! # Example
//!
//! ```
//! use bf_ml::{CentroidClassifier, Classifier, Dataset};
//!
//! // Two classes with an obvious mean difference.
//! let mut d = Dataset::new(2);
//! for i in 0..20 {
//!     let v = if i % 2 == 0 { 1.0 } else { -1.0 };
//!     d.push(vec![v; 8], (i % 2) as usize);
//! }
//! let mut c = CentroidClassifier::new(2);
//! c.fit(&d, &Dataset::new(2));
//! let p = c.predict_proba(&[vec![0.9; 8]]);
//! assert!(p[0][0] > p[0][1]);
//! ```

pub mod anytime;
pub mod calibrate;
pub mod centroid;
pub mod cnn;
pub mod crossval;
pub mod dataset;
pub mod distill;
pub mod metrics;

pub use anytime::{prefix_features, prefix_len, AnytimeLadder, PREFIX_PERCENTS};
pub use calibrate::Calibration;
pub use centroid::CentroidClassifier;
pub use cnn::{CnnLstmClassifier, TrainConfig};
pub use distill::{DistillConfig, DistilledClassifier};
pub use crossval::{
    cross_validate, cross_validate_oof, cross_validate_oof_resumable, cross_validate_resumable,
    CrossValResult, FoldResult, OofPredictions, Resumable, ResumeOptions,
};
pub use dataset::Dataset;
pub use metrics::{accuracy, argmax, top_k_accuracy, OpenWorldReport};

/// A trainable trace classifier.
pub trait Classifier: Send {
    /// Train on `train`, using `val` for early stopping (may be empty for
    /// models that do not need validation).
    fn fit(&mut self, train: &Dataset, val: &Dataset);

    /// Per-class probabilities for each input trace.
    fn predict_proba(&mut self, traces: &[Vec<f32>]) -> Vec<Vec<f32>>;

    /// [`Classifier::predict_proba`] under a cooperative deadline: the
    /// online-serving inference path. The default checkpoints the token
    /// once before predicting (sufficient for cheap models); expensive
    /// models override this to checkpoint *during* inference so a
    /// mid-flight cancellation stops work promptly (the CNN+LSTM checks
    /// between input chunks). Implementations must return bit-identical
    /// probabilities to [`Classifier::predict_proba`] when the token
    /// never cancels — graceful-degradation comparisons rely on it.
    fn predict_proba_deadline(
        &mut self,
        traces: &[Vec<f32>],
        token: &bf_fault::CancelToken,
    ) -> Result<Vec<Vec<f32>>, bf_fault::DeadlineExceeded> {
        token.check()?;
        Ok(self.predict_proba(traces))
    }

    /// [`Classifier::predict_proba`] over *prefix* rows: each trace may
    /// be any length up to the model's expected input length (the
    /// anytime ladder's early-exit rungs, see [`anytime`]). The default
    /// forwards to `predict_proba` — correct for models whose distance
    /// or feature computation naturally truncates (the centroid zips
    /// against the shorter row); fixed-input networks override this to
    /// zero-pad into their input tensor. At full length the result must
    /// be bit-identical to `predict_proba`.
    fn predict_proba_prefix(&mut self, traces: &[Vec<f32>]) -> Vec<Vec<f32>> {
        self.predict_proba(traces)
    }

    /// Argmax class predictions (NaN-tolerant, see [`metrics::argmax`]).
    fn predict(&mut self, traces: &[Vec<f32>]) -> Vec<usize> {
        self.predict_proba(traces)
            .into_iter()
            .map(|row| metrics::argmax(&row))
            .collect()
    }

    /// Snapshot the trained model to `path`, when the model supports it.
    /// Returns `Ok(true)` if a snapshot was written, `Ok(false)` if this
    /// classifier has nothing to snapshot (the default), and `Err` with a
    /// human-readable message on I/O failure.
    fn save_network(&mut self, _path: &std::path::Path) -> Result<bool, String> {
        Ok(false)
    }

    /// Number of classes this model distinguishes.
    fn n_classes(&self) -> usize;
}
