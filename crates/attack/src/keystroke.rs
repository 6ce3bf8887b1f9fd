//! Keystroke-timing detection from observed execution gaps (§7.1
//! related work).
//!
//! On a mostly idle machine, every key press delivers a USB/HID interrupt
//! whose handler pauses the attacker's busy loop for a few microseconds.
//! A gap-watching attacker can recover keystroke instants — until the
//! keyboard IRQ is moved to another core, which kills this attack
//! completely (unlike the paper's loop-counting attack, which survives
//! `irqbalance` because it feeds on *non-movable* interrupts).

use crate::gap_watcher::ObservedGap;
use bf_timer::Nanos;

/// Detection quality against ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionReport {
    /// Detected events matching a true keystroke within tolerance.
    pub true_positives: usize,
    /// Detected events with no matching keystroke.
    pub false_positives: usize,
    /// Keystrokes with no matching detection.
    pub false_negatives: usize,
}

impl DetectionReport {
    /// Precision = TP / (TP + FP); 1.0 when nothing was detected.
    pub fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            return 1.0;
        }
        self.true_positives as f64 / denom as f64
    }

    /// Recall = TP / (TP + FN); 1.0 when there was nothing to detect.
    pub fn recall(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            return 1.0;
        }
        self.true_positives as f64 / denom as f64
    }

    /// Harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// Detects keystrokes by their gap *signature*: a short HID-handler gap
/// followed within tens of microseconds by the woken application's
/// rescheduling-IPI gap. Single gaps in the same length band (timer
/// ticks, RCU softirqs) do not pair up, which is what separates key
/// presses from the idle noise floor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeystrokeDetector {
    /// Smallest gap treated as a candidate key press.
    pub min_gap: Nanos,
    /// Largest gap treated as a candidate key press (longer gaps are
    /// softirq batches, preemptions, etc.).
    pub max_gap: Nanos,
    /// The follow-up gap must start within this window after the
    /// candidate ends.
    pub pair_min: Nanos,
    /// Upper bound of the pairing window.
    pub pair_max: Nanos,
    /// Candidates closer together than this are merged (key press +
    /// release pairs, handler + wake).
    pub debounce: Nanos,
}

impl Default for KeystrokeDetector {
    fn default() -> Self {
        KeystrokeDetector {
            min_gap: Nanos::from_nanos(1_800),
            max_gap: Nanos::from_micros(8),
            pair_min: Nanos::from_micros(30),
            pair_max: Nanos::from_micros(500),
            debounce: Nanos::from_millis(15),
        }
    }
}

impl KeystrokeDetector {
    /// Candidate keystroke instants from observed gaps.
    pub fn detect(&self, gaps: &[ObservedGap]) -> Vec<Nanos> {
        let mut out: Vec<Nanos> = Vec::new();
        for (i, g) in gaps.iter().enumerate() {
            let len = g.len();
            if len < self.min_gap || len > self.max_gap {
                continue;
            }
            // Signature: a second short gap follows almost immediately
            // (the app wake-up after the HID handler).
            let paired = gaps[i + 1..]
                .iter()
                .take_while(|n| n.start.saturating_sub(g.end) <= self.pair_max)
                .any(|n| {
                    let d = n.start.saturating_sub(g.end);
                    d >= self.pair_min && n.len() <= self.max_gap
                });
            if !paired {
                continue;
            }
            if let Some(&last) = out.last() {
                if g.start.saturating_sub(last) < self.debounce {
                    continue;
                }
            }
            out.push(g.start);
        }
        out
    }

    /// Score detections against ground truth with a matching tolerance.
    /// Each true keystroke matches at most one detection.
    pub fn score(detections: &[Nanos], truth: &[Nanos], tolerance: Nanos) -> DetectionReport {
        let mut used = vec![false; detections.len()];
        let mut tp = 0usize;
        for &key in truth {
            let lo = key.saturating_sub(tolerance);
            let hi = key + tolerance;
            if let Some((i, _)) = detections
                .iter()
                .enumerate()
                .find(|(i, &d)| !used[*i] && d >= lo && d <= hi)
            {
                used[i] = true;
                tp += 1;
            }
        }
        DetectionReport {
            true_positives: tp,
            false_positives: detections.len() - tp,
            false_negatives: truth.len() - tp,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gap_watcher::GapWatcher;
    use bf_sim::{Machine, MachineConfig};
    use bf_victim::KeystrokeSession;

    fn run_detection(confine_irqs: bool) -> DetectionReport {
        let session = KeystrokeSession::new(60.0);
        let (workload, truth) = session.generate(Nanos::from_secs(10), 7);
        let mut cfg = MachineConfig::default();
        cfg.isolation.pin_cores = true;
        if confine_irqs {
            // §7.1's defense: keyboard IRQs handled away from the
            // attacker.
            cfg.isolation.confine_movable_irqs = true;
        } else {
            // The attacker pins itself to the core that receives the
            // keyboard's source-affine interrupts.
            cfg.routing = Some(bf_sim::RoutingPolicy::PinnedTo(cfg.attacker_core()));
        }
        let sim = Machine::new(cfg).run(&workload, 7);
        let gaps = GapWatcher::default().watch(&sim);
        let detector = KeystrokeDetector::default();
        let detections = detector.detect(&gaps);
        KeystrokeDetector::score(&detections, &truth, Nanos::from_millis(2))
    }

    #[test]
    fn detects_keystrokes_on_idle_machine() {
        let report = run_detection(false);
        assert!(report.recall() > 0.5, "recall = {:.2}", report.recall());
    }

    #[test]
    fn moving_keyboard_irqs_defeats_the_attack() {
        // §7.1: "easily defeated by handling the keyboard interrupts on a
        // different core than the attacker".
        let with_irqs = run_detection(false);
        let confined = run_detection(true);
        assert!(
            confined.recall() < with_irqs.recall() * 0.3,
            "confined recall {:.2} vs open {:.2}",
            confined.recall(),
            with_irqs.recall()
        );
    }

    #[test]
    fn score_counts_matches_once() {
        let detections = [Nanos::from_millis(10), Nanos::from_millis(11)];
        let truth = [Nanos::from_millis(10)];
        let r = KeystrokeDetector::score(&detections, &truth, Nanos::from_millis(2));
        assert_eq!(r.true_positives, 1);
        assert_eq!(r.false_positives, 1);
        assert_eq!(r.false_negatives, 0);
    }

    #[test]
    fn report_metrics() {
        let r = DetectionReport { true_positives: 8, false_positives: 2, false_negatives: 2 };
        assert!((r.precision() - 0.8).abs() < 1e-12);
        assert!((r.recall() - 0.8).abs() < 1e-12);
        assert!((r.f1() - 0.8).abs() < 1e-12);
        let empty = DetectionReport { true_positives: 0, false_positives: 0, false_negatives: 0 };
        assert_eq!(empty.precision(), 1.0);
        assert_eq!(empty.recall(), 1.0);
    }

    #[test]
    fn debounce_merges_bursts() {
        let d = KeystrokeDetector::default();
        // Pairs of gaps (press + release, 150 µs apart), bursts 1 ms
        // apart — inside the debounce window.
        let mut gaps = Vec::new();
        for i in 0..5u64 {
            let base = Nanos::from_millis(i);
            gaps.push(ObservedGap { start: base, end: base + Nanos::from_micros(3) });
            gaps.push(ObservedGap {
                start: base + Nanos::from_micros(153),
                end: base + Nanos::from_micros(156),
            });
        }
        let detections = d.detect(&gaps);
        assert_eq!(detections.len(), 1, "burst should debounce to one keystroke");
    }

    #[test]
    fn unpaired_gaps_are_ignored() {
        let d = KeystrokeDetector::default();
        // Isolated gaps 4 ms apart (timer ticks): no pairs, no detections.
        let gaps: Vec<ObservedGap> = (0..10)
            .map(|i| ObservedGap {
                start: Nanos::from_millis(4 * i),
                end: Nanos::from_millis(4 * i) + Nanos::from_micros(3),
            })
            .collect();
        assert!(d.detect(&gaps).is_empty());
    }
}
