//! Labeled trace datasets and splitting.

use bf_stats::SeedRng;

/// A labeled collection of fixed-length traces.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    features: Vec<Vec<f32>>,
    labels: Vec<usize>,
    n_classes: usize,
}

impl Dataset {
    /// An empty dataset over `n_classes` classes.
    ///
    /// # Panics
    ///
    /// Panics when `n_classes` is zero.
    pub fn new(n_classes: usize) -> Self {
        assert!(n_classes > 0, "need at least one class");
        Dataset { features: Vec::new(), labels: Vec::new(), n_classes }
    }

    /// Add one labeled trace.
    ///
    /// # Panics
    ///
    /// Panics when the label is out of range or the trace length differs
    /// from earlier traces.
    pub fn push(&mut self, trace: Vec<f32>, label: usize) {
        assert!(label < self.n_classes, "label {label} out of range");
        if let Some(first) = self.features.first() {
            assert_eq!(first.len(), trace.len(), "trace length mismatch");
        }
        self.features.push(trace);
        self.labels.push(label);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// True when no samples have been added.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Trace length (0 for an empty dataset).
    pub fn feature_len(&self) -> usize {
        self.features.first().map_or(0, Vec::len)
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// The traces.
    pub fn features(&self) -> &[Vec<f32>] {
        &self.features
    }

    /// The labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Standardize every trace to zero mean and unit variance in place
    /// (constant traces become all-zero). Matching what the training
    /// pipeline feeds the CNN.
    pub fn zscore_traces(&mut self) {
        for trace in &mut self.features {
            let n = trace.len() as f32;
            if n == 0.0 {
                continue;
            }
            let mean: f32 = trace.iter().sum::<f32>() / n;
            let var: f32 = trace.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
            let sd = var.sqrt();
            if sd > 0.0 {
                for v in trace.iter_mut() {
                    *v = (*v - mean) / sd;
                }
            } else {
                for v in trace.iter_mut() {
                    *v = 0.0;
                }
            }
        }
    }

    /// Content fingerprint: FNV-1a over every feature's IEEE-754 bits,
    /// every label, and the class count. Binds resumable cross-validation
    /// checkpoints to the exact dataset that produced them — any change
    /// to a single bit of any trace yields a different fingerprint.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(&(self.n_classes as u64).to_le_bytes());
        eat(&(self.features.len() as u64).to_le_bytes());
        for (trace, &label) in self.features.iter().zip(&self.labels) {
            eat(&(label as u64).to_le_bytes());
            for v in trace {
                eat(&v.to_bits().to_le_bytes());
            }
        }
        h
    }

    /// The subset at the given indices (cloned).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let mut out = Dataset::new(self.n_classes);
        for &i in indices {
            out.push(self.features[i].clone(), self.labels[i]);
        }
        out
    }

    /// Per-class sample indices.
    fn by_class(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.n_classes];
        for (i, &l) in self.labels.iter().enumerate() {
            out[l].push(i);
        }
        out
    }

    /// Stratified k-fold partitions: each fold holds ~1/k of every class.
    /// Returns `k` disjoint index sets covering the dataset.
    ///
    /// # Panics
    ///
    /// Panics when `k < 2`.
    pub fn stratified_folds(&self, k: usize, seed: u64) -> Vec<Vec<usize>> {
        assert!(k >= 2, "need at least two folds");
        let mut rng = SeedRng::new(seed);
        let mut folds = vec![Vec::new(); k];
        for mut class_indices in self.by_class() {
            rng.shuffle(&mut class_indices);
            for (j, idx) in class_indices.into_iter().enumerate() {
                folds[j % k].push(idx);
            }
        }
        folds
    }

    /// The paper's per-fold protocol: with fold `f` held out as the test
    /// set, split the remainder 90/10 into train/validation. Returns
    /// `(train, val, test)` index sets.
    ///
    /// # Panics
    ///
    /// Panics when `fold >= k` or `k < 2`.
    pub fn split_for_fold(
        &self,
        folds: &[Vec<usize>],
        fold: usize,
        seed: u64,
    ) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
        assert!(fold < folds.len(), "fold out of range");
        let test = folds[fold].clone();
        let mut rest: Vec<usize> = folds
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != fold)
            .flat_map(|(_, f)| f.iter().copied())
            .collect();
        let mut rng = SeedRng::new(seed ^ fold as u64);
        rng.shuffle(&mut rest);
        let n_val = rest.len() / 10;
        let val = rest.split_off(rest.len() - n_val);
        (rest, val, test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset(per_class: usize, classes: usize) -> Dataset {
        let mut d = Dataset::new(classes);
        for c in 0..classes {
            for i in 0..per_class {
                d.push(vec![c as f32, i as f32], c);
            }
        }
        d
    }

    #[test]
    fn push_and_accessors() {
        let d = dataset(3, 2);
        assert_eq!(d.len(), 6);
        assert_eq!(d.feature_len(), 2);
        assert_eq!(d.n_classes(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_label_rejected() {
        let mut d = Dataset::new(2);
        d.push(vec![0.0], 2);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn ragged_traces_rejected() {
        let mut d = Dataset::new(2);
        d.push(vec![0.0, 1.0], 0);
        d.push(vec![0.0], 1);
    }

    #[test]
    fn zscore_standardizes() {
        let mut d = Dataset::new(1);
        d.push(vec![1.0, 2.0, 3.0, 4.0], 0);
        d.zscore_traces();
        let t = &d.features()[0];
        let mean: f32 = t.iter().sum::<f32>() / 4.0;
        let var: f32 = t.iter().map(|v| v * v).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-6);
        assert!((var - 1.0).abs() < 1e-5);
    }

    #[test]
    fn zscore_constant_trace_becomes_zero() {
        let mut d = Dataset::new(1);
        d.push(vec![7.0; 4], 0);
        d.zscore_traces();
        assert!(d.features()[0].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn stratified_folds_are_disjoint_and_cover() {
        let d = dataset(10, 4);
        let folds = d.stratified_folds(5, 1);
        let mut all: Vec<usize> = folds.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..40).collect::<Vec<_>>());
        // Each fold has 2 samples of each class.
        for f in &folds {
            let sub = d.subset(f);
            for c in 0..4 {
                let n = sub.labels().iter().filter(|&&l| l == c).count();
                assert_eq!(n, 2);
            }
        }
    }

    #[test]
    fn split_for_fold_partitions_everything() {
        let d = dataset(10, 4);
        let folds = d.stratified_folds(5, 2);
        let (train, val, test) = d.split_for_fold(&folds, 1, 7);
        assert_eq!(test.len(), 8);
        assert_eq!(val.len(), 3); // 32 / 10
        assert_eq!(train.len(), 29);
        let mut all: Vec<usize> = train.iter().chain(&val).chain(&test).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 40);
    }

    #[test]
    fn folds_deterministic_per_seed() {
        let d = dataset(6, 3);
        assert_eq!(d.stratified_folds(3, 9), d.stratified_folds(3, 9));
        assert_ne!(d.stratified_folds(3, 9), d.stratified_folds(3, 10));
    }

    #[test]
    fn fingerprint_sensitive_to_any_change() {
        let d = dataset(3, 2);
        assert_eq!(d.fingerprint(), d.fingerprint());
        let mut d2 = d.clone();
        d2.push(vec![9.0, 9.0], 0);
        assert_ne!(d.fingerprint(), d2.fingerprint());
        // A single-bit flip in one value changes the fingerprint.
        let mut d3 = d.clone();
        d3.features[0][0] = f32::from_bits(d3.features[0][0].to_bits() ^ 1);
        assert_ne!(d.fingerprint(), d3.fingerprint());
        // Same samples, different label layout.
        let mut a = Dataset::new(2);
        a.push(vec![1.0], 0);
        a.push(vec![1.0], 1);
        let mut b = Dataset::new(2);
        b.push(vec![1.0], 1);
        b.push(vec![1.0], 0);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn subset_preserves_labels() {
        let d = dataset(2, 3);
        let s = d.subset(&[0, 3, 5]);
        assert_eq!(s.labels(), &[0, 1, 2]);
    }
}
