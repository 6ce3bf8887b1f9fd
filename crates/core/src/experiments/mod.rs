//! One runner per table/figure of the paper's evaluation.
//!
//! | Module      | Reproduces |
//! |-------------|------------|
//! | [`figure3`] | Fig. 3 — example loop-counting traces |
//! | [`figure4`] | Fig. 4 — loop vs sweep trace correlation |
//! | [`table1`]  | Table 1 — closed/open-world accuracy grid |
//! | [`table2`]  | Table 2 — noise-injection study (+ §4.2 background noise) |
//! | [`table3`]  | Table 3 — isolation-mechanism ladder |
//! | [`leakage`] | §5.2 — eBPF gap attribution (>99 % claim, footnote 4) |
//! | [`figure5`] | Fig. 5 — interrupt-time share over page loads |
//! | [`figure6`] | Fig. 6 — per-type interrupt gap distributions |
//! | [`figure7`] | Fig. 7 — timer staircase examples |
//! | [`figure8`] | Fig. 8 — attacker-period duration distributions |
//! | [`table4`]  | Table 4 — timer-defense accuracy |
//!
//! [`ALL`] names each runner and renders its report; the `experiments`
//! binary of `bf-bench` runs them from that one table.

use crate::scale::ExperimentScale;

pub mod figure3;
pub mod figure4;
pub mod figure5;
pub mod figure6;
pub mod figure7;
pub mod figure8;
pub mod leakage;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;

/// The three example sites of Fig. 3/4/5. `weather.com` is not in the
/// Appendix-A closed world but is modeled the same way.
pub const EXAMPLE_SITES: [&str; 3] = ["nytimes.com", "amazon.com", "weather.com"];

/// Runs one experiment at a scale and seed and renders its report.
pub type Report = fn(ExperimentScale, u64) -> String;

/// Every experiment by name with its report, in the module table's
/// order (the order a full regeneration runs them in).
pub const ALL: [(&str, Report); 11] = [
    ("figure3", |scale, seed| figure3::run(scale, seed).to_string()),
    ("figure4", |scale, seed| figure4::run(scale, seed).to_string()),
    ("table1", |scale, seed| table1::run(scale, seed).to_string()),
    ("table2", |scale, seed| table2::run(scale, seed).to_string()),
    ("table3", |scale, seed| table3::run(scale, seed).to_string()),
    ("leakage", leakage::report),
    ("figure5", |scale, seed| figure5::run(scale, seed).to_string()),
    ("figure6", |scale, seed| figure6::run(scale, seed).to_string()),
    ("figure7", |scale, seed| figure7::run(scale, seed).to_string()),
    ("figure8", |scale, seed| figure8::run(scale, seed).to_string()),
    ("table4", |scale, seed| table4::run(scale, seed).to_string()),
];
