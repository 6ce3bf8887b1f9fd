//! Thread-count determinism suite: every result the pipeline produces —
//! collected datasets, cross-validation fold metrics, trained CNN
//! weights — must be bit-identical (`f32::to_bits`/`f64::to_bits`) at
//! `BF_THREADS=1` and `BF_THREADS=4`, including while a fault-injection
//! plan is active. This is the contract the `bf-par` execution layer
//! exists to uphold.
//!
//! Run alone via `cargo test -p bf-core --test par_determinism`.

use bf_core::collect::{AttackKind, CollectionConfig};
use bf_core::scale::ExperimentScale;
use bf_fault::FaultPlan;
use bf_ml::{
    prefix_features, CentroidClassifier, Classifier, CnnLstmClassifier, CrossValResult, Dataset,
    DistillConfig, DistilledClassifier, TrainConfig,
};
use bf_nn::{CnnLstmConfig, PoolKind};
use bf_timer::BrowserKind;
use std::sync::Mutex;

/// `bf_par::set_threads` is process-global; tests take turns.
static SERIAL: Mutex<()> = Mutex::new(());

/// Run `f` once at 1 thread and once at 4, restoring the default after.
fn at_thread_counts<R>(f: impl Fn() -> R) -> (R, R) {
    let _lock = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    bf_par::set_threads(Some(1));
    let seq = f();
    bf_par::set_threads(Some(4));
    let par = f();
    bf_par::set_threads(None);
    (seq, par)
}

fn smoke_cfg(plan: FaultPlan) -> CollectionConfig {
    CollectionConfig::new(BrowserKind::Chrome, AttackKind::LoopCounting)
        .with_scale(ExperimentScale::Smoke)
        .with_faults(plan)
}

fn dataset_bits(d: &Dataset) -> (Vec<Vec<u32>>, Vec<usize>) {
    let features = d
        .features()
        .iter()
        .map(|row| row.iter().map(|v| v.to_bits()).collect())
        .collect();
    (features, d.labels().to_vec())
}

fn fold_bits(r: &CrossValResult) -> Vec<(u64, u64)> {
    r.folds
        .iter()
        .map(|f| (f.accuracy.to_bits(), f.top5.to_bits()))
        .collect()
}

#[test]
fn collection_bits_identical_across_thread_counts() {
    let (seq, par) = at_thread_counts(|| {
        let d = smoke_cfg(FaultPlan::off()).collect_closed_world(3, 4, 41);
        dataset_bits(&d)
    });
    assert!(!seq.1.is_empty());
    assert_eq!(seq, par);
}

#[test]
fn open_world_collection_bits_identical_across_thread_counts() {
    let (seq, par) = at_thread_counts(|| {
        let d = smoke_cfg(FaultPlan::off()).collect_open_world(2, 3, 5, 43);
        dataset_bits(&d)
    });
    assert_eq!(seq.1.iter().filter(|&&l| l == 2).count(), 5);
    assert_eq!(seq, par);
}

#[test]
fn collection_under_fault_plan_bits_identical_across_thread_counts() {
    // Active chaos: corruption, NaN spikes, drops — repairs, retries and
    // quarantines must all land on the same traces at any thread count.
    let plan = FaultPlan {
        seed: 9,
        corrupt: 0.3,
        nan: 0.2,
        drop: 0.15,
        ..FaultPlan::off()
    };
    let (seq, par) = at_thread_counts(|| {
        let d = smoke_cfg(plan.clone()).collect_closed_world(3, 4, 47);
        dataset_bits(&d)
    });
    assert_eq!(seq, par);
}

#[test]
fn warm_sim_workspace_collection_is_bit_stable() {
    // `collect_trace` recycles every `SimOutput` into the worker's
    // thread-local sim workspace, so the second sweep here replays the
    // exact same traces on warm arenas (every buffer a pool hit). Pool
    // state must be invisible in the bits — sequentially and under the
    // parallel per-trace split, with an active fault plan stirring
    // retries into the mix.
    let plan = FaultPlan {
        seed: 5,
        corrupt: 0.2,
        drop: 0.1,
        ..FaultPlan::off()
    };
    for plan in [FaultPlan::off(), plan] {
        let (seq, par) = at_thread_counts(|| {
            let cfg = smoke_cfg(plan.clone());
            let first = dataset_bits(&cfg.collect_closed_world(3, 4, 71));
            let again = dataset_bits(&cfg.collect_closed_world(3, 4, 71));
            assert_eq!(first, again, "warm sim pools perturbed trace bits");
            first
        });
        assert!(!seq.1.is_empty());
        assert_eq!(seq, par, "sim-recycling collection diverged across thread counts");
    }
}

#[test]
fn fold_metrics_bits_identical_across_thread_counts() {
    let cfg = smoke_cfg(FaultPlan::off());
    let dataset = cfg.collect_closed_world(4, 6, 53);
    let (seq, par) = at_thread_counts(|| fold_bits(&cfg.cross_validate(&dataset, 53)));
    assert!(!seq.is_empty());
    assert_eq!(seq, par);
}

/// FNV-1a 64 over a stream of `f32::to_bits` words (little-endian
/// bytes) — the weight-snapshot fingerprint used by the golden tests.
fn fnv1a(words: impl Iterator<Item = u32>) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// The golden training fixture: `scaled(input_len, 4, filters)` with
/// `pool_kind`, dropout 0.3 and lr 0.01, net seed 1234, a
/// 12×`input_len` standard-normal batch from `SeedRng(77)` with labels
/// `i % 4`, trained `steps` batches. Returns the FNV-1a fingerprint of
/// every trained weight's bits. `input_len` 300 gives the LSTM one
/// step, 1000 six.
fn golden_train_hash(input_len: usize, filters: usize, steps: usize, pool_kind: PoolKind) -> u64 {
    use bf_nn::{CnnLstm, Tensor};
    use bf_stats::SeedRng;
    let mut cfg = CnnLstmConfig::scaled(input_len, 4, filters);
    cfg.pool_kind = pool_kind;
    cfg.dropout = 0.3;
    cfg.learning_rate = 0.01;
    let mut net = CnnLstm::new(cfg, 1234);
    let mut rng = SeedRng::new(77);
    let data: Vec<f32> = (0..12 * input_len).map(|_| rng.standard_normal() as f32).collect();
    let labels: Vec<usize> = (0..12).map(|i| i % 4).collect();
    let x = Tensor::new(&[12, 1, input_len], data);
    for _ in 0..steps {
        net.train_batch(&x, &labels);
    }
    fnv1a(net.save_params().iter().flat_map(|p| p.iter().map(|v| v.to_bits())))
}

/// Weight fingerprints captured on the pre-workspace implementation
/// (naive per-element loops, allocate-every-step buffers). The
/// unrolled kernels and arena reuse must reproduce them exactly.
const GOLDEN_IM2COL_16F: u64 = 0x16643925f9b9ef5b;
const GOLDEN_SCALAR_4F: u64 = 0x90909a245530d3da;

/// The same fixture at `input_len` 1000 with 16 filters: six LSTM steps
/// instead of one, so the recurrent backward chain runs across time.
/// Recorded on the kernels that kept separate inline and fan-out arms.
const GOLDEN_LSTM6_16F: u64 = 0x5b8b5783c75fd4a4;

/// The `GOLDEN_IM2COL_16F` fixture with average pooling, the `ablation`
/// bin's "avg pool + tanh LSTM" row. Recorded on the three-layer conv
/// stages (Conv1d, then ReLU, then AvgPool1d, each a layer of its own).
const GOLDEN_AVG_16F: u64 = 0x35d4810741bd20a6;

#[test]
fn trained_weights_match_pre_workspace_golden_hashes() {
    // 16 filters drives the im2col/matmul path in both convs; 4 filters
    // drives the scalar fallback. Both must match the hashes recorded
    // before the zero-allocation refactor, at every thread count.
    let (seq, par) = at_thread_counts(|| {
        (golden_train_hash(300, 16, 4, PoolKind::Max), golden_train_hash(300, 4, 4, PoolKind::Max))
    });
    assert_eq!(seq.0, GOLDEN_IM2COL_16F, "im2col path diverged from pre-workspace bits (t=1)");
    assert_eq!(seq.1, GOLDEN_SCALAR_4F, "scalar path diverged from pre-workspace bits (t=1)");
    assert_eq!(par.0, GOLDEN_IM2COL_16F, "im2col path diverged from pre-workspace bits (t=4)");
    assert_eq!(par.1, GOLDEN_SCALAR_4F, "scalar path diverged from pre-workspace bits (t=4)");
}

#[test]
fn multi_step_lstm_golden_holds_across_thread_counts() {
    let (seq, par) = at_thread_counts(|| golden_train_hash(1000, 16, 4, PoolKind::Max));
    assert_eq!(seq, GOLDEN_LSTM6_16F, "six-step LSTM fixture diverged (t=1)");
    assert_eq!(par, GOLDEN_LSTM6_16F, "six-step LSTM fixture diverged (t=4)");
}

#[test]
fn avg_pool_golden_holds_across_thread_counts() {
    let (seq, par) = at_thread_counts(|| golden_train_hash(300, 16, 4, PoolKind::Avg));
    assert_eq!(seq, GOLDEN_AVG_16F, "avg-pool fixture diverged (t=1)");
    assert_eq!(par, GOLDEN_AVG_16F, "avg-pool fixture diverged (t=4)");
}

#[test]
fn warm_workspace_pool_is_bit_stable() {
    // The second run executes entirely on a warm arena (every take is a
    // pool hit); recycled buffers must be indistinguishable from fresh
    // ones.
    let _lock = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    bf_par::set_threads(Some(1));
    let cold = golden_train_hash(300, 16, 4, PoolKind::Max);
    let warm = golden_train_hash(300, 16, 4, PoolKind::Max);
    bf_par::set_threads(None);
    assert_eq!(cold, GOLDEN_IM2COL_16F);
    assert_eq!(warm, cold, "warm-pool training diverged from cold-pool training");
}

#[test]
fn trained_cnn_weights_bits_identical_across_thread_counts() {
    // A small CNN+LSTM fit: every parallelized kernel (conv, dense,
    // lstm, forward and backward) runs many times over the training
    // loop; a single non-deterministic accumulation anywhere would
    // diverge the weights.
    let cfg = smoke_cfg(FaultPlan::off());
    let dataset = cfg.collect_closed_world(3, 6, 59);
    let dir = std::env::temp_dir().join(format!("bf_par_det_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (seq, par) = at_thread_counts(|| {
        let arch = CnnLstmConfig::scaled(dataset.feature_len(), dataset.n_classes(), 4);
        let mut clf = CnnLstmClassifier::new(
            arch,
            TrainConfig {
                max_epochs: 3,
                batch_size: 8,
                patience: 3,
                min_epochs: 1,
                seed: 61,
            },
        );
        clf.fit(&dataset, &dataset);
        // The network snapshot serializes every weight's raw bits, so
        // byte-equal files mean bit-equal trained parameters.
        let path = dir.join(format!("net_{}.net", bf_par::threads()));
        assert!(clf.save_network(&path).expect("snapshot written"));
        let weight_bytes = std::fs::read(&path).unwrap();
        let proba_bits: Vec<Vec<u32>> = clf
            .predict_proba(dataset.features())
            .iter()
            .map(|row| row.iter().map(|v| v.to_bits()).collect())
            .collect();
        (weight_bytes, proba_bits)
    });
    std::fs::remove_dir_all(&dir).ok();
    assert!(!seq.0.is_empty());
    assert_eq!(seq.0, par.0, "trained weights diverged across thread counts");
    assert_eq!(seq.1, par.1, "predictions diverged across thread counts");
}

#[test]
fn batched_serve_waves_bits_identical_across_thread_counts() {
    // The micro-batched serve path with a *pinned* wave capacity: wave
    // assembly no longer depends on the worker count, so the entire run
    // — batch grouping, shared rung charges, outcomes, tick accounting
    // — must be bit-identical at BF_THREADS=1 and 4. (Without a pinned
    // wave_cap the wave size tracks the thread count by design and only
    // per-cell replay equality holds; see the serve_chaos matrix.)
    use bf_serve::{open_loop_arrivals, ServeConfig, Service, TierConfig};
    use bf_victim::Catalog;

    let sites = Catalog::closed_world_subset(3).sites().to_vec();
    let clean = smoke_cfg(FaultPlan::off());
    let mut data = Dataset::new(3);
    for (label, site) in sites.iter().enumerate() {
        for rep in 0..2u64 {
            let trace = clean.collect_trace(site, 4_000 + rep * 17 + label as u64);
            data.push(clean.featurize(&trace), label);
        }
    }
    let requests = open_loop_arrivals(24, 3, 50.0, 97);
    let (seq, par) = at_thread_counts(|| {
        let mut model = CentroidClassifier::new(3);
        model.fit(&data, &Dataset::new(3));
        let cfg = ServeConfig {
            wave_cap: Some(4),
            batch: 4,
            tiers: TierConfig { ladder: true, confidence_threshold: 0.6, distilled_units: 15 },
            ..ServeConfig::default()
        };
        let mut svc = Service::new(
            smoke_cfg(FaultPlan::off()),
            sites.clone(),
            Box::new(model.clone()),
            model,
            cfg,
        );
        svc.run(&requests)
    });
    assert_eq!(seq.len(), 24);
    assert_eq!(seq, par, "pinned-wave batched serving diverged across thread counts");
}

#[test]
fn distilled_student_training_and_predictions_bits_identical_across_thread_counts() {
    // The anytime ladder's distilled tier: teacher soft labels, the
    // seeded soft-target training loop, and prefix-padded inference
    // must all be bit-stable at any thread count — the serving path
    // relies on the student answering identically wherever it runs.
    let cfg = smoke_cfg(FaultPlan::off());
    let dataset = cfg.collect_closed_world(3, 6, 67);
    let (seq, par) = at_thread_counts(|| {
        let mut teacher = CentroidClassifier::new(dataset.n_classes());
        teacher.fit(&dataset, &Dataset::new(dataset.n_classes()));
        let mut student = DistilledClassifier::new(
            dataset.feature_len(),
            dataset.n_classes(),
            DistillConfig { conv_filters: 4, max_epochs: 3, batch_size: 8, seed: 71, ..DistillConfig::default() },
        );
        student.distill(&mut teacher, &dataset);
        // Probe on full rows and on every ladder prefix of the first
        // trace, mirroring what the tier controller feeds the student.
        let mut probe: Vec<Vec<f32>> = dataset.features()[..4].to_vec();
        for &percent in &bf_ml::PREFIX_PERCENTS {
            probe.push(prefix_features(&dataset.features()[0], percent));
        }
        let bits: Vec<Vec<u32>> = student
            .predict_proba(&probe)
            .iter()
            .map(|row| row.iter().map(|v| v.to_bits()).collect())
            .collect();
        bits
    });
    assert!(!seq.is_empty());
    assert_eq!(seq, par, "distilled tier diverged across thread counts");
}
