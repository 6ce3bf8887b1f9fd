//! Table 4 — classification accuracy under different timer defenses
//! (§6.1).
//!
//! Paper (Chrome/Linux, closed world, Python attacker):
//!
//! | Timer      | Δ      | P      | Top-1 | Top-5 |
//! |------------|--------|--------|------:|------:|
//! | Jittered   | 0.1 ms | 5 ms   | 96.6 % | 99.4 % |
//! | Quantized  | 100 ms | 5 ms   | 86.0 % | 96.9 % |
//! | Randomized | 1 ms   | 5 ms   |  1.0 % |  5.1 % |
//! | Randomized | 1 ms   | 100 ms |  1.9 % |  6.9 % |
//! | Randomized | 1 ms   | 500 ms |  5.2 % | 13.7 % |
//!
//! The randomized timer collapses the attack to chance even when the
//! attacker adapts with much longer periods.

use crate::collect::{AttackKind, CollectionConfig};
use crate::report::ReportTable;
use crate::scale::ExperimentScale;
use bf_defense::Countermeasure;
use bf_ml::CrossValResult;
use bf_timer::{BrowserKind, Nanos};

/// One timer configuration evaluated by the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerSetting {
    /// Chrome's default jittered timer (Δ = 0.1 ms).
    Jittered,
    /// A Tor-style quantized timer (Δ = 100 ms).
    Quantized,
    /// The paper's randomized timer, with the attacker period it is
    /// evaluated against.
    Randomized {
        /// Attacker period `P`.
        period: Nanos,
    },
}

impl TimerSetting {
    /// Timer label for the table.
    pub fn label(self) -> &'static str {
        match self {
            TimerSetting::Jittered => "Jittered",
            TimerSetting::Quantized => "Quantized",
            TimerSetting::Randomized { .. } => "Randomized",
        }
    }

    /// Δ column value in milliseconds.
    pub fn delta_ms(self) -> f64 {
        match self {
            TimerSetting::Jittered => 0.1,
            TimerSetting::Quantized => 100.0,
            TimerSetting::Randomized { .. } => 1.0,
        }
    }

    /// Attacker period for this row.
    pub fn period(self) -> Nanos {
        match self {
            TimerSetting::Jittered | TimerSetting::Quantized => Nanos::from_millis(5),
            TimerSetting::Randomized { period } => period,
        }
    }
}

/// The five Table 4 rows with (top-1, top-5) paper references.
pub fn paper_rows() -> Vec<(TimerSetting, (f64, f64))> {
    vec![
        (TimerSetting::Jittered, (96.6, 99.4)),
        (TimerSetting::Quantized, (86.0, 96.9)),
        (
            TimerSetting::Randomized {
                period: Nanos::from_millis(5),
            },
            (1.0, 5.1),
        ),
        (
            TimerSetting::Randomized {
                period: Nanos::from_millis(100),
            },
            (1.9, 6.9),
        ),
        (
            TimerSetting::Randomized {
                period: Nanos::from_millis(500),
            },
            (5.2, 13.7),
        ),
    ]
}

/// One row's measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4Row {
    /// Timer configuration.
    pub setting: TimerSetting,
    /// Measured CV result.
    pub result: CrossValResult,
    /// Paper (top-1, top-5) reference.
    pub paper: (f64, f64),
}

/// The regenerated table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4 {
    /// Rows in paper order.
    pub rows: Vec<Table4Row>,
    /// Scale the experiment ran at.
    pub scale: ExperimentScale,
}

impl Table4 {
    /// Jittered-timer (undefended) accuracy.
    pub fn undefended_accuracy(&self) -> f64 {
        self.rows[0].result.mean_accuracy()
    }

    /// Best accuracy the attacker achieves against the randomized timer
    /// at any period.
    pub fn best_randomized_accuracy(&self) -> f64 {
        self.rows[2..]
            .iter()
            .map(|r| r.result.mean_accuracy())
            .fold(0.0, f64::max)
    }

    /// Render with paper references.
    pub fn to_table(&self) -> ReportTable {
        let mut t = ReportTable::new(
            format!(
                "Table 4: accuracy under timer defenses (scale: {})",
                self.scale
            ),
            &[
                "Timer",
                "Δ (ms)",
                "P (ms)",
                "Top-1 Accuracy",
                "Top-5 Accuracy",
            ],
        );
        for row in &self.rows {
            t.push_row(vec![
                row.setting.label().to_owned(),
                format!("{}", row.setting.delta_ms()),
                format!("{}", row.setting.period().as_millis_f64()),
                format!(
                    "{:.1}% (paper {:.1}%)",
                    row.result.mean_accuracy() * 100.0,
                    row.paper.0
                ),
                format!(
                    "{:.1}% (paper {:.1}%)",
                    row.result.mean_top5() * 100.0,
                    row.paper.1
                ),
            ]);
        }
        t.push_note(format!(
            "randomized timer caps the attack at {:.1}% (undefended: {:.1}%)",
            self.best_randomized_accuracy() * 100.0,
            self.undefended_accuracy() * 100.0
        ));
        t
    }
}

impl std::fmt::Display for Table4 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_table())
    }
}

/// Run the timer-defense sweep on Chrome/Linux.
pub fn run(scale: ExperimentScale, seed: u64) -> Table4 {
    let rows = paper_rows()
        .into_iter()
        .enumerate()
        .map(|(i, (setting, paper))| {
            let mut cfg = CollectionConfig::new(BrowserKind::Chrome, AttackKind::LoopCounting)
                .with_scale(scale);
            cfg.period = setting.period();
            if let TimerSetting::Randomized { .. } = setting {
                cfg = cfg.with_defense(Countermeasure::randomized_timer_default());
            }
            if setting == TimerSetting::Quantized {
                cfg.quantize_timer = Some(Nanos::from_millis(100));
            }
            let result = cfg.evaluate_closed_world(seed ^ (i as u64));
            Table4Row {
                setting,
                result,
                paper,
            }
        })
        .collect();
    Table4 { rows, scale }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    // Runs a full smoke-scale experiment (tens of seconds); exercised
    // end-to-end by `cargo run -p bf-bench --bin experiments -- table4`.
    #[ignore = "slow in debug (~30-120 s); CI runs it in release via the experiments step, or use `cargo run -p bf-bench --bin experiments -- table4`"]
    fn randomized_timer_collapses_accuracy() {
        let t = run(ExperimentScale::Smoke, 9);
        assert_eq!(t.rows.len(), 5);
        let undefended = t.undefended_accuracy();
        let defended = t.rows[2].result.mean_accuracy();
        assert!(
            defended < undefended * 0.6,
            "defended {defended} vs undefended {undefended}"
        );
        // Near chance (1/6 at smoke scale, allow noise).
        assert!(defended < 0.45, "defended = {defended}");
    }

    #[test]
    // Runs a full smoke-scale experiment (tens of seconds); exercised
    // end-to-end by `cargo run -p bf-bench --bin experiments -- table4`.
    #[ignore = "slow in debug (~30-120 s); CI runs it in release via the experiments step, or use `cargo run -p bf-bench --bin experiments -- table4`"]
    fn quantized_sits_between() {
        let t = run(ExperimentScale::Smoke, 10);
        let jittered = t.rows[0].result.mean_accuracy();
        let quantized = t.rows[1].result.mean_accuracy();
        let randomized = t.rows[2].result.mean_accuracy();
        assert!(
            quantized <= jittered + 0.1,
            "quantized {quantized} vs jittered {jittered}"
        );
        assert!(
            quantized > randomized,
            "quantized {quantized} vs randomized {randomized}"
        );
    }

    #[test]
    // Runs a full smoke-scale experiment (tens of seconds); exercised
    // end-to-end by `cargo run -p bf-bench --bin experiments -- table4`.
    #[ignore = "slow in debug (~30-120 s); CI runs it in release via the experiments step, or use `cargo run -p bf-bench --bin experiments -- table4`"]
    fn renders_all_rows() {
        let t = run(ExperimentScale::Smoke, 11);
        let text = t.to_table().to_string();
        assert!(text.contains("Jittered"));
        assert!(text.contains("Quantized"));
        assert!(text.contains("Randomized"));
        assert!(text.contains("500"));
    }
}
