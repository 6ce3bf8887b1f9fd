//! Table 2 — noise-injection study (§4.3, §6.2) plus the §4.2
//! background-noise robustness check.
//!
//! Paper (Chrome 100 / Ubuntu 20.04, closed world):
//!
//! | Attack              | No Noise | Cache-Sweep Noise | Interrupt Noise |
//! |---------------------|---------:|------------------:|----------------:|
//! | Loop-Counting       |   95.7 % |            92.6 % |          62.0 % |
//! | Sweep-Counting \[64\] |   78.4 % |            76.2 % |          55.3 % |
//!
//! The asymmetry is the paper's second argument: cache-sweep noise barely
//! dents either attack (−3.1 / −2.2 points) while interrupt noise cripples
//! both (−33.7 / −23.1 points), so the shared channel must be interrupts.
//! §4.2 additionally reports 96.6 % → 93.4 % under Slack+Spotify load.

use crate::collect::{AttackKind, CollectionConfig};
use crate::report::ReportTable;
use crate::scale::ExperimentScale;
use bf_defense::Countermeasure;
use bf_ml::CrossValResult;
use bf_timer::BrowserKind;
use bf_victim::NoiseApp;

/// Paper-reference accuracies, `[attack][noise]` with noise order
/// none / cache-sweep / interrupt.
pub const PAPER: [[f64; 3]; 2] = [[95.7, 92.6, 62.0], [78.4, 76.2, 55.3]];

/// Paper-reference §4.2 background-noise accuracies (baseline, with
/// Slack+Spotify).
pub const PAPER_BACKGROUND: (f64, f64) = (96.6, 93.4);

/// Results for one attack row.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Which attacker.
    pub attack: AttackKind,
    /// CV results in noise order none / cache-sweep / interrupt.
    pub results: [CrossValResult; 3],
    /// Paper references for the same cells.
    pub paper: [f64; 3],
}

impl Table2Row {
    /// Accuracy drop (percentage points) from no-noise to cache-sweep
    /// noise.
    pub fn cache_noise_drop(&self) -> f64 {
        (self.results[0].mean_accuracy() - self.results[1].mean_accuracy()) * 100.0
    }

    /// Accuracy drop (percentage points) from no-noise to interrupt
    /// noise.
    pub fn interrupt_noise_drop(&self) -> f64 {
        (self.results[0].mean_accuracy() - self.results[2].mean_accuracy()) * 100.0
    }
}

/// The regenerated table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2 {
    /// Loop-counting and sweep-counting rows.
    pub rows: Vec<Table2Row>,
    /// §4.2 background-noise result: (baseline, with Slack+Spotify).
    pub background: (CrossValResult, CrossValResult),
    /// Scale the experiment ran at.
    pub scale: ExperimentScale,
}

impl Table2 {
    /// Render with paper references.
    pub fn to_table(&self) -> ReportTable {
        let mut t = ReportTable::new(
            format!(
                "Table 2: accuracy under injected noise (scale: {})",
                self.scale
            ),
            &["Attack", "No Noise", "Cache-Sweep Noise", "Interrupt Noise"],
        );
        for row in &self.rows {
            t.push_row(vec![
                row.attack.label().to_owned(),
                format!(
                    "{:.1}% (paper {:.1}%)",
                    row.results[0].mean_accuracy() * 100.0,
                    row.paper[0]
                ),
                format!(
                    "{:.1}% (paper {:.1}%)",
                    row.results[1].mean_accuracy() * 100.0,
                    row.paper[1]
                ),
                format!(
                    "{:.1}% (paper {:.1}%)",
                    row.results[2].mean_accuracy() * 100.0,
                    row.paper[2]
                ),
            ]);
        }
        let (base, noisy) = &self.background;
        t.push_note(format!(
            "§4.2 background noise (Slack+Spotify): {:.1}% -> {:.1}% (paper {:.1}% -> {:.1}%)",
            base.mean_accuracy() * 100.0,
            noisy.mean_accuracy() * 100.0,
            PAPER_BACKGROUND.0,
            PAPER_BACKGROUND.1
        ));
        for row in &self.rows {
            t.push_note(format!(
                "{}: cache noise costs {:.1} pts, interrupt noise {:.1} pts (paper: {:.1} / {:.1})",
                row.attack,
                row.cache_noise_drop(),
                row.interrupt_noise_drop(),
                row.paper[0] - row.paper[1],
                row.paper[0] - row.paper[2],
            ));
        }
        t
    }
}

impl std::fmt::Display for Table2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_table())
    }
}

/// Evaluate one (attack, countermeasure) cell on Chrome/Linux; the model
/// is trained on traces collected while the noise runs, as in §6.2.
fn cell(
    attack: AttackKind,
    defense: Countermeasure,
    scale: ExperimentScale,
    seed: u64,
) -> CrossValResult {
    CollectionConfig::new(BrowserKind::Chrome, attack)
        .with_defense(defense)
        .with_scale(scale)
        .evaluate_closed_world(seed)
}

/// Run the noise study and the §4.2 Slack+Spotify comparison (one extra
/// pair of evaluations).
pub fn run(scale: ExperimentScale, seed: u64) -> Table2 {
    let noises = [
        Countermeasure::None,
        Countermeasure::cache_sweep_default(),
        Countermeasure::spurious_interrupts_default(),
    ];
    let rows = [AttackKind::LoopCounting, AttackKind::SweepCounting]
        .into_iter()
        .enumerate()
        .map(|(ai, attack)| {
            let results: Vec<CrossValResult> = noises
                .iter()
                .enumerate()
                .map(|(ni, d)| cell(attack, *d, scale, seed ^ ((ai * 10 + ni) as u64) << 8))
                .collect();
            Table2Row {
                attack,
                results: results.try_into().expect("three noise settings"),
                paper: PAPER[ai],
            }
        })
        .collect();
    let base = cell(
        AttackKind::LoopCounting,
        Countermeasure::None,
        scale,
        seed ^ 0xB0,
    );
    let noisy = CollectionConfig::new(BrowserKind::Chrome, AttackKind::LoopCounting)
        .with_background(&NoiseApp::ALL)
        .with_scale(scale)
        .evaluate_closed_world(seed ^ 0xB1);
    Table2 {
        rows,
        background: (base, noisy),
        scale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    // Runs a full smoke-scale experiment (tens of seconds); exercised
    // end-to-end by `cargo run -p bf-bench --bin experiments -- table2`.
    #[ignore = "slow in debug (~30-120 s); CI runs it in release via the experiments step, or use `cargo run -p bf-bench --bin experiments -- table2`"]
    fn interrupt_noise_hurts_more_than_cache_noise() {
        let t = run(ExperimentScale::Smoke, 5);
        for row in &t.rows {
            // At smoke scale (6 classes × 8 traces, 2 folds) fold noise is
            // several points; the default-scale run asserts the strict
            // ordering.
            assert!(
                row.interrupt_noise_drop() > row.cache_noise_drop() - 5.0,
                "{}: interrupt drop {:.1} vs cache drop {:.1}",
                row.attack,
                row.interrupt_noise_drop(),
                row.cache_noise_drop()
            );
        }
        // The loop attack matches or beats sweep without noise (exact
        // ordering is asserted by the default-scale run; smoke-scale fold
        // noise at 6 classes is ±10+ points).
        assert!(
            t.rows[0].results[0].mean_accuracy() + 0.15 >= t.rows[1].results[0].mean_accuracy(),
            "loop {} vs sweep {}",
            t.rows[0].results[0].mean_accuracy(),
            t.rows[1].results[0].mean_accuracy()
        );
    }

    #[test]
    // Runs a full smoke-scale experiment (tens of seconds); exercised
    // end-to-end by `cargo run -p bf-bench --bin experiments -- table2`.
    #[ignore = "slow in debug (~30-120 s); CI runs it in release via the experiments step, or use `cargo run -p bf-bench --bin experiments -- table2`"]
    fn renders_with_notes() {
        let t = run(ExperimentScale::Smoke, 6);
        let text = t.to_table().to_string();
        assert!(text.contains("No Noise"));
        assert!(text.contains("paper 95.7%"));
        assert!(text.contains("pts"));
    }
}
