//! A [`Classifier`] that forwards every call to the model it wraps and
//! records how long each call took. It is how the traced passes time the
//! ml layer from outside: the program being measured is unchanged, only
//! the box around its models differs.

use bf_fault::{CancelToken, DeadlineExceeded};
use bf_ml::{Classifier, Dataset};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Calls recorded by every [`Timed`] model sharing one [`CallLog`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Calls {
    /// Wall seconds of each `fit`, in completion order.
    pub fit_s: Vec<f64>,
    /// Wall seconds spent in prediction calls of any kind.
    pub predict_s: f64,
    pub predict_calls: u64,
    pub predict_rows: u64,
    /// Wall seconds of fit plus prediction, per wrapped model, in the
    /// order the models were wrapped.
    pub per_model_s: Vec<f64>,
}

impl Calls {
    /// What was recorded after `earlier`, a snapshot of the same log.
    pub fn since(&self, earlier: &Calls) -> Calls {
        let mut per_model_s = self.per_model_s.clone();
        for (now, before) in per_model_s.iter_mut().zip(&earlier.per_model_s) {
            *now -= before;
        }
        Calls {
            fit_s: self.fit_s[earlier.fit_s.len()..].to_vec(),
            predict_s: self.predict_s - earlier.predict_s,
            predict_calls: self.predict_calls - earlier.predict_calls,
            predict_rows: self.predict_rows - earlier.predict_rows,
            per_model_s,
        }
    }

    /// The prediction calls of `self` and `other` together (two logs
    /// that timed different models over the same span).
    pub fn with_predicts_of(&self, other: &Calls) -> Calls {
        Calls {
            predict_s: self.predict_s + other.predict_s,
            predict_calls: self.predict_calls + other.predict_calls,
            predict_rows: self.predict_rows + other.predict_rows,
            ..self.clone()
        }
    }
}

/// Shared record of the calls into a group of wrapped models. Wrapped
/// models may run on several threads at once (cross-validation folds).
#[derive(Debug, Default)]
pub struct CallLog(Mutex<Calls>);

impl CallLog {
    pub fn snapshot(&self) -> Calls {
        self.lock().clone()
    }

    fn lock(&self) -> MutexGuard<'_, Calls> {
        // Nothing panics while the guard is held: model calls run
        // before the lock is taken.
        self.0.lock().expect("call log lock poisoned")
    }

    fn register(&self) -> usize {
        let mut calls = self.lock();
        calls.per_model_s.push(0.0);
        calls.per_model_s.len() - 1
    }
}

/// A model whose calls are timed into a [`CallLog`].
pub struct Timed {
    inner: Box<dyn Classifier>,
    log: Arc<CallLog>,
    slot: usize,
}

impl Timed {
    pub fn new(inner: Box<dyn Classifier>, log: Arc<CallLog>) -> Self {
        let slot = log.register();
        Timed { inner, log, slot }
    }

    fn record_predict(&self, rows: usize, start: Instant) {
        let s = start.elapsed().as_secs_f64();
        let mut calls = self.log.lock();
        calls.predict_s += s;
        calls.predict_calls += 1;
        calls.predict_rows += rows as u64;
        calls.per_model_s[self.slot] += s;
    }
}

impl Classifier for Timed {
    fn fit(&mut self, train: &Dataset, val: &Dataset) {
        let start = Instant::now();
        self.inner.fit(train, val);
        let s = start.elapsed().as_secs_f64();
        let mut calls = self.log.lock();
        calls.fit_s.push(s);
        calls.per_model_s[self.slot] += s;
    }

    fn predict_proba(&mut self, traces: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let start = Instant::now();
        let out = self.inner.predict_proba(traces);
        self.record_predict(traces.len(), start);
        out
    }

    fn predict_proba_deadline(
        &mut self,
        traces: &[Vec<f32>],
        token: &CancelToken,
    ) -> Result<Vec<Vec<f32>>, DeadlineExceeded> {
        let start = Instant::now();
        let out = self.inner.predict_proba_deadline(traces, token);
        self.record_predict(traces.len(), start);
        out
    }

    fn predict_proba_prefix(&mut self, traces: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let start = Instant::now();
        let out = self.inner.predict_proba_prefix(traces);
        self.record_predict(traces.len(), start);
        out
    }

    fn predict(&mut self, traces: &[Vec<f32>]) -> Vec<usize> {
        let start = Instant::now();
        let out = self.inner.predict(traces);
        self.record_predict(traces.len(), start);
        out
    }

    fn save_network(&mut self, path: &Path) -> Result<bool, String> {
        self.inner.save_network(path)
    }

    fn n_classes(&self) -> usize {
        self.inner.n_classes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bf_ml::{
        CentroidClassifier, CnnLstmClassifier, DistillConfig, DistilledClassifier, TrainConfig,
    };
    use bf_nn::CnnLstmConfig;

    const LEN: usize = 300;
    const CLASSES: usize = 3;

    /// Class `c` has a bump at a class-specific offset, plus noise.
    fn dataset(per_class: usize, seed: u64) -> Dataset {
        let mut rng = bf_stats::rng::SeedRng::new(seed);
        let mut d = Dataset::new(CLASSES);
        for i in 0..per_class * CLASSES {
            let c = i % CLASSES;
            let x = (0..LEN)
                .map(|t| {
                    let bump = if (t / 50) == 2 * c { 2.0 } else { 0.0 };
                    (bump + rng.uniform_range(-0.5, 0.5)) as f32
                })
                .collect();
            d.push(x, c);
        }
        d
    }

    fn cnn() -> Box<dyn Classifier> {
        let arch = CnnLstmConfig::scaled(LEN, CLASSES, 8);
        assert!(
            arch.try_lstm_steps().is_some(),
            "test shape must fit the CNN"
        );
        let train = TrainConfig {
            max_epochs: 3,
            batch_size: 8,
            patience: 2,
            min_epochs: 1,
            seed: 5,
        };
        Box::new(CnnLstmClassifier::new(arch, train))
    }

    fn bits(rows: &[Vec<f32>]) -> Vec<Vec<u32>> {
        rows.iter()
            .map(|r| r.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    /// Runs every trait method on `plain` and on `wrapped` (a second,
    /// identically built model), asserting bit-identical results.
    fn assert_forwards(mut plain: Box<dyn Classifier>, mut wrapped: Timed, data: &Dataset) {
        let rows = data.features();
        let prefixes: Vec<Vec<f32>> = rows.iter().map(|r| r[..LEN / 2].to_vec()).collect();
        assert_eq!(
            bits(&plain.predict_proba(rows)),
            bits(&wrapped.predict_proba(rows))
        );
        assert_eq!(
            bits(&plain.predict_proba_prefix(&prefixes)),
            bits(&wrapped.predict_proba_prefix(&prefixes))
        );
        assert_eq!(plain.predict(rows), wrapped.predict(rows));
        let open = CancelToken::unlimited();
        assert_eq!(
            bits(
                &plain
                    .predict_proba_deadline(rows, &open)
                    .expect("never cancels")
            ),
            bits(
                &wrapped
                    .predict_proba_deadline(rows, &open)
                    .expect("never cancels")
            )
        );
        let (a, b) = (CancelToken::new(1), CancelToken::new(1));
        let _ = (a.charge(5), b.charge(5));
        assert_eq!(
            plain
                .predict_proba_deadline(rows, &a)
                .expect_err("cancelled"),
            wrapped
                .predict_proba_deadline(rows, &b)
                .expect_err("cancelled")
        );
        assert_eq!(plain.n_classes(), wrapped.n_classes());
        let nowhere = Path::new("no-such-directory/model.net");
        assert_eq!(plain.save_network(nowhere), wrapped.save_network(nowhere));
    }

    #[test]
    fn cnn_and_centroid_calls_are_forwarded_bit_identically() {
        let (train, val, test) = (dataset(8, 1), dataset(2, 2), dataset(3, 3));
        let log = Arc::new(CallLog::default());
        for make in [cnn as fn() -> Box<dyn Classifier>, || {
            Box::new(CentroidClassifier::new(CLASSES))
        }] {
            let mut plain = make();
            let mut wrapped = Timed::new(make(), log.clone());
            plain.fit(&train, &val);
            wrapped.fit(&train, &val);
            assert_forwards(plain, wrapped, &test);
        }
        let calls = log.snapshot();
        assert_eq!(calls.fit_s.len(), 2);
        // Per model: predict_proba, prefix, predict, and two deadline calls.
        assert_eq!(calls.predict_calls, 10);
        assert_eq!(calls.predict_rows, 10 * test.len() as u64);
        assert_eq!(calls.per_model_s.len(), 2);
        assert!(calls.per_model_s.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn distilled_student_calls_are_forwarded_bit_identically() {
        let (train, val, test) = (dataset(8, 4), dataset(2, 5), dataset(3, 6));
        let mut teacher = cnn();
        teacher.fit(&train, &val);
        let cfg = DistillConfig {
            max_epochs: 2,
            seed: 9,
            ..DistillConfig::default()
        };
        assert!(DistilledClassifier::feasible(
            LEN,
            CLASSES,
            cfg.conv_filters
        ));
        let mut student = || {
            let mut s = DistilledClassifier::new(LEN, CLASSES, cfg);
            s.distill(&mut *teacher, &train);
            Box::new(s) as Box<dyn Classifier>
        };
        let log = Arc::new(CallLog::default());
        let plain = student();
        assert_forwards(plain, Timed::new(student(), log.clone()), &test);
        assert!(
            log.snapshot().fit_s.is_empty(),
            "distillation is not a fit call"
        );
    }

    #[test]
    fn since_subtracts_an_earlier_snapshot() {
        let log = Arc::new(CallLog::default());
        let mut m = Timed::new(Box::new(CentroidClassifier::new(CLASSES)), log.clone());
        m.fit(&dataset(2, 7), &Dataset::new(CLASSES));
        let before = log.snapshot();
        let rows = dataset(1, 8);
        m.predict_proba(rows.features());
        let delta = log.snapshot().since(&before);
        assert!(delta.fit_s.is_empty());
        assert_eq!(
            (delta.predict_calls, delta.predict_rows),
            (1, CLASSES as u64)
        );
        assert!(delta.per_model_s[0] > 0.0 && delta.per_model_s[0] <= delta.predict_s + 1e-12);
    }
}
