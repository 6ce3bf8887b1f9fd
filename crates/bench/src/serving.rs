//! What the serving bins share: the trained model stack `serve_load`,
//! `deadline_frontier` and `batch_frontier` put behind a
//! [`bf_serve::Service`], and the one outcome [`Tally`] and
//! [`BatchMark`] from which all four serving bins, `fleet_load`
//! included, fill their artifacts.

use bf_core::{AttackKind, CollectionConfig, ExperimentScale};
use bf_fault::FaultPlan;
use bf_ml::{
    AnytimeLadder, Calibration, CentroidClassifier, Classifier, Dataset, DistillConfig,
    DistilledClassifier,
};
use bf_serve::{Outcome, Resolved, ServeConfig, Service, Tier, TierModels};
use bf_stats::rng::combine_seeds;
use bf_timer::BrowserKind;
use bf_victim::Catalog;

/// A scale-appropriate primary (CNN+LSTM at paper scales, the centroid
/// baseline at smoke scale), a centroid fallback, and the anytime
/// ladder's models, all fit on one clean closed-world corpus.
pub struct ServingStack {
    /// The clean collection config the models were trained on.
    pub clean: CollectionConfig,
    /// Sites in the closed world (the arrival streams' site count).
    pub n_sites: usize,
    /// The held-out fold the ladder and student were calibrated on.
    pub val: Dataset,
    /// The primary classifier.
    pub primary: Box<dyn Classifier>,
    /// The fitted centroid fallback.
    pub fallback: CentroidClassifier,
    /// Per-prefix calibrations plus the distilled student, when one is
    /// feasible at this feature length.
    pub tiers: TierModels,
}

impl ServingStack {
    /// Collect a clean Chrome loop-counting corpus and fit the stack:
    /// fold 0 of a 5-way stratified split is held out for validation
    /// and calibration, the rest trains. Each step is a manifest phase
    /// (`train_collect`, `train_primary`, `train_fallback`, `fit_ladder`,
    /// `distill_student`, `calibrate_student`).
    pub fn train(m: &mut bf_obs::ManifestBuilder, scale: ExperimentScale, seed: u64) -> Self {
        let clean = CollectionConfig::new(BrowserKind::Chrome, AttackKind::LoopCounting)
            .with_scale(scale);
        let (n_sites, tps) = (scale.n_sites(), scale.traces_per_site());
        let data = m.phase("train_collect", || clean.collect_closed_world(n_sites, tps, seed));
        let folds = data.stratified_folds(5, seed);
        let train_idx: Vec<usize> = folds[1..].iter().flatten().copied().collect();
        let (train, val) = (data.subset(&train_idx), data.subset(&folds[0]));
        let mut primary = clean.classifier_for(&data, seed);
        m.phase("train_primary", || primary.fit(&train, &val));
        let mut fallback = CentroidClassifier::new(data.n_classes());
        m.phase("train_fallback", || fallback.fit(&train, &val));

        // Anytime ladder: per-prefix-length calibration for the primary,
        // plus a distilled student (soft labels from the primary) with
        // its own calibration, all fit on the same held-out fold.
        let ladder = m.phase("fit_ladder", || AnytimeLadder::fit(&mut *primary, &val));
        let distill_cfg = DistillConfig {
            max_epochs: 12,
            seed: combine_seeds(seed, 0xD1),
            ..DistillConfig::default()
        };
        let tiers = if DistilledClassifier::feasible(
            data.feature_len(),
            data.n_classes(),
            distill_cfg.conv_filters,
        ) {
            let mut student =
                DistilledClassifier::new(data.feature_len(), data.n_classes(), distill_cfg);
            m.phase("distill_student", || student.distill(&mut *primary, &train));
            let cal = m.phase("calibrate_student", || {
                Calibration::fit(&student.predict_proba(val.features()), val.labels())
            });
            TierModels { ladder, distilled: Some(Box::new(student)), distilled_calibration: cal }
        } else {
            TierModels { ladder, ..TierModels::default() }
        };
        ServingStack { clean, n_sites, val, primary, fallback, tiers }
    }

    /// A service over the stack's closed-world catalog, collecting under
    /// the serving-time fault `plan`.
    pub fn into_service(self, plan: FaultPlan, cfg: ServeConfig) -> Service {
        let sites = Catalog::closed_world_subset_with_tuning(self.n_sites, self.clean.tuning)
            .sites()
            .to_vec();
        Service::new(self.clean.with_faults(plan), sites, self.primary, self.fallback, cfg)
            .with_tiers(self.tiers)
    }
}

/// Answer tiers in ladder order, matching [`bf_serve::Tier::label`]:
/// the slots of [`Tally`]'s per-tier arrays.
pub const TIER_LABELS: [&str; 6] = [
    "full",
    "early_exit_25",
    "early_exit_50",
    "early_exit_75",
    "distilled",
    "centroid",
];

/// The [`TIER_LABELS`] slot of an answer tier.
///
/// # Panics
///
/// Panics on a tier without a slot (an early exit off the standard
/// rungs), which no fitted ladder emits.
pub fn tier_slot(tier: Tier) -> usize {
    TIER_LABELS
        .iter()
        .position(|l| *l == tier.label())
        .unwrap_or_else(|| panic!("unknown answer tier {:?}", tier.label()))
}

/// Outcome counts over a set of resolved requests: the one tally behind
/// every outcome count, tier fraction, accuracy and latency quantile in
/// the serving artifacts.
#[derive(Debug, Default)]
pub struct Tally {
    /// Confident primary answers ([`Outcome::Prediction`]).
    pub predictions: u64,
    /// Degraded answers ([`Outcome::Degraded`]).
    pub degraded: u64,
    /// Deadline misses at any stage.
    pub timeouts: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Quarantined collections and contained panics.
    pub failed: u64,
    /// Requests swallowed by a shard outage.
    pub shard_down: u64,
    /// Answers whose class is the request's site.
    pub correct: u64,
    /// Answers per [`TIER_LABELS`] slot.
    pub tier_counts: [u64; TIER_LABELS.len()],
    /// Correct answers per slot.
    pub tier_correct: [u64; TIER_LABELS.len()],
    /// Confident answers ([`Outcome::Prediction`]) per slot; forced
    /// budget-cutoff answers ([`Outcome::Degraded`]) are left out.
    pub conf_counts: [u64; TIER_LABELS.len()],
    /// Correct confident answers per slot.
    pub conf_correct: [u64; TIER_LABELS.len()],
    /// Latest completion tick.
    pub makespan_units: u64,
    /// End-to-end latencies of the answered requests, ascending.
    latencies: Vec<u64>,
}

impl Tally {
    /// Tally `resolved`.
    pub fn new<'a>(resolved: impl IntoIterator<Item = &'a Resolved>) -> Self {
        let mut t = Tally::default();
        for r in resolved {
            t.makespan_units = t.makespan_units.max(r.completed);
            let (class, tier, confident) = match &r.outcome {
                Outcome::Prediction { class, tier, .. } => (*class, *tier, true),
                Outcome::Degraded { class, tier, .. } => (*class, *tier, false),
                Outcome::Timeout { .. } => {
                    t.timeouts += 1;
                    continue;
                }
                Outcome::Shed => {
                    t.shed += 1;
                    continue;
                }
                Outcome::Failed { .. } => {
                    t.failed += 1;
                    continue;
                }
                Outcome::ShardDown => {
                    t.shard_down += 1;
                    continue;
                }
            };
            let slot = tier_slot(tier);
            let hit = (class == r.site) as u64;
            if confident {
                t.predictions += 1;
                t.conf_counts[slot] += 1;
                t.conf_correct[slot] += hit;
            } else {
                t.degraded += 1;
            }
            t.correct += hit;
            t.tier_counts[slot] += 1;
            t.tier_correct[slot] += hit;
            t.latencies.push(r.latency_units());
        }
        t.latencies.sort_unstable();
        t
    }

    /// Requests tallied: every request resolves to exactly one outcome.
    pub fn total(&self) -> u64 {
        self.answered() + self.timeouts + self.shed + self.failed + self.shard_down
    }

    /// Requests answered, confidently or degraded.
    pub fn answered(&self) -> u64 {
        self.predictions + self.degraded
    }

    /// `n` over all tallied requests.
    pub fn rate(&self, n: u64) -> f64 {
        n as f64 / self.total().max(1) as f64
    }

    /// Share of all requests answered.
    pub fn answered_fraction(&self) -> f64 {
        self.rate(self.answered())
    }

    /// End-to-end accuracy: an unanswered request counts as wrong.
    pub fn accuracy(&self) -> f64 {
        self.rate(self.correct)
    }

    /// Share of the answers that are degraded.
    pub fn degraded_fraction(&self) -> f64 {
        self.degraded as f64 / self.answered().max(1) as f64
    }

    /// Share of the answers given at tier `slot`.
    pub fn tier_fraction(&self, slot: usize) -> f64 {
        self.tier_counts[slot] as f64 / self.answered().max(1) as f64
    }

    /// Accuracy of the answers given at tier `slot`.
    pub fn tier_accuracy(&self, slot: usize) -> f64 {
        self.tier_correct[slot] as f64 / self.tier_counts[slot].max(1) as f64
    }

    /// Accuracy of the confident answers given at tier `slot`.
    pub fn confident_accuracy(&self, slot: usize) -> f64 {
        self.conf_correct[slot] as f64 / self.conf_counts[slot].max(1) as f64
    }

    /// Answers per 1000 virtual units of makespan.
    pub fn throughput_per_kunit(&self) -> f64 {
        self.answered() as f64 * 1000.0 / self.makespan_units.max(1) as f64
    }

    /// Nearest-rank latency quantile `q` of the answered requests, in
    /// virtual units (0 when nothing was answered).
    pub fn latency(&self, q: f64) -> u64 {
        if self.latencies.is_empty() {
            return 0;
        }
        self.latencies[((self.latencies.len() - 1) as f64 * q).round() as usize]
    }
}

/// The micro-batch shape of a serving pass, from the `serve.batch.*`
/// metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchStats {
    /// Micro-batches assembled.
    pub assembled: u64,
    /// Batches flushed at capacity.
    pub flushed_full: u64,
    /// Batches flushed at the end of a wave.
    pub flushed_deadline: u64,
    /// Batches flushed by a fault-flagged request.
    pub flushed_tier_mismatch: u64,
    /// Mean members per assembled batch (0 when none assembled).
    pub mean_size: f64,
}

/// The `serve.batch.*` counters, in [`BatchStats`] field order.
const BATCH_COUNTERS: [&str; 4] = [
    "serve.batch.assembled",
    "serve.batch.flushed.full",
    "serve.batch.flushed.deadline",
    "serve.batch.flushed.tier_mismatch",
];

/// The `serve.batch.*` metrics at one instant: take a mark before a
/// pass, and [`BatchMark::since`] gives the pass's [`BatchStats`].
pub struct BatchMark {
    counts: [u64; BATCH_COUNTERS.len()],
    size: bf_obs::HistogramSnapshot,
}

impl BatchMark {
    /// Record the metrics now.
    pub fn take() -> Self {
        BatchMark {
            counts: BATCH_COUNTERS.map(|name| bf_obs::counter(name).get()),
            size: bf_obs::histogram("serve.batch.size").snapshot(),
        }
    }

    /// What the metrics gained since the mark.
    pub fn since(&self) -> BatchStats {
        let now = BatchMark::take();
        let [assembled, flushed_full, flushed_deadline, flushed_tier_mismatch] =
            std::array::from_fn(|i| now.counts[i] - self.counts[i]);
        BatchStats {
            assembled,
            flushed_full,
            flushed_deadline,
            flushed_tier_mismatch,
            mean_size: now.size.delta_since(&self.size).mean(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bf_serve::Stage;

    /// A resolved request for site 1 that arrived at tick 0 and
    /// completed at `done`.
    fn resolved(outcome: Outcome, done: u64) -> Resolved {
        Resolved {
            id: 0,
            site: 1,
            outcome,
            arrival: 0,
            started: 0,
            completed: done,
            queue_units: 0,
            work_units: done,
        }
    }

    fn answer(confident: bool, tier: Tier, class: usize, done: u64) -> Resolved {
        let (probs, confidence) = (vec![0.5, 0.5], 0.5);
        let outcome = if confident {
            Outcome::Prediction { class, probs, tier, confidence }
        } else {
            Outcome::Degraded { class, probs, tier, confidence }
        };
        resolved(outcome, done)
    }

    #[test]
    fn tally_counts_every_outcome_tier_and_latency() {
        let records = vec![
            answer(true, Tier::Full, 1, 100),
            answer(true, Tier::EarlyExit(25), 0, 40),
            answer(true, Tier::EarlyExit(50), 1, 60),
            answer(false, Tier::EarlyExit(75), 1, 80),
            answer(false, Tier::Distilled, 0, 30),
            answer(false, Tier::Centroid, 1, 20),
            answer(true, Tier::Full, 1, 120),
            resolved(Outcome::Timeout { stage: Stage::Collect }, 1_000),
            resolved(Outcome::Timeout { stage: Stage::Queue }, 900),
            resolved(Outcome::Shed, 5),
            resolved(Outcome::Failed { reason: "quarantined".into() }, 300),
            resolved(Outcome::ShardDown, 1_500),
        ];
        let t = Tally::new(&records);
        assert_eq!(
            (t.predictions, t.degraded, t.timeouts, t.shed, t.failed, t.shard_down),
            (4, 3, 2, 1, 1, 1)
        );
        assert_eq!((t.total(), t.answered(), t.correct), (12, 7, 5));
        assert_eq!(t.tier_counts, [2, 1, 1, 1, 1, 1]);
        assert_eq!(t.tier_correct, [2, 0, 1, 1, 0, 1]);
        assert_eq!(t.conf_counts, [2, 1, 1, 0, 0, 0], "degraded answers are not confident");
        assert_eq!(t.conf_correct, [2, 0, 1, 0, 0, 0]);
        assert_eq!(t.makespan_units, 1_500, "every outcome's completion counts");
        assert_eq!(t.answered_fraction(), 7.0 / 12.0);
        assert_eq!(t.accuracy(), 5.0 / 12.0);
        assert_eq!(t.rate(t.shard_down), 1.0 / 12.0);
        assert_eq!(t.degraded_fraction(), 3.0 / 7.0);
        assert_eq!(t.tier_fraction(0), 2.0 / 7.0);
        assert_eq!(t.tier_accuracy(1), 0.0);
        assert_eq!(t.confident_accuracy(2), 1.0);
        assert_eq!(t.confident_accuracy(5), 0.0, "an empty slot reads 0, not NaN");
        assert_eq!(t.throughput_per_kunit(), 7.0 * 1000.0 / 1_500.0);
        // Answered latencies only, ascending: 20 30 40 60 80 100 120.
        assert_eq!(t.latency(0.0), 20);
        assert_eq!(t.latency(0.5), 60);
        assert_eq!(t.latency(0.99), 120);
        assert_eq!(Tally::new(std::iter::empty()).latency(0.5), 0);
    }

    #[test]
    fn every_emittable_tier_has_a_label_slot() {
        let ladder = bf_ml::PREFIX_PERCENTS
            .iter()
            .map(|&p| if p >= 100 { Tier::Full } else { Tier::EarlyExit(p) });
        let tiers: Vec<Tier> = ladder.chain([Tier::Distilled, Tier::Centroid]).collect();
        let mut slots: Vec<usize> = tiers.iter().map(|&t| tier_slot(t)).collect();
        slots.sort_unstable();
        assert_eq!(slots, (0..TIER_LABELS.len()).collect::<Vec<_>>(), "one slot per tier");
    }

    #[test]
    #[should_panic(expected = "unknown answer tier")]
    fn an_off_ladder_early_exit_has_no_slot() {
        tier_slot(Tier::EarlyExit(33));
    }
}
