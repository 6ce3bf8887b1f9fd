//! Table 1 — closed- and open-world website-fingerprinting accuracy of
//! the loop-counting attack vs the cache-occupancy (sweep-counting)
//! baseline, across browsers and operating systems.
//!
//! Paper headline: the loop-counting attack, which makes **no memory
//! accesses**, beats the cache-based state of the art in every
//! configuration except Tor Browser (where they tie).

use crate::collect::{AttackKind, CollectionConfig};
use crate::report::ReportTable;
use crate::scale::ExperimentScale;
use bf_ml::{CrossValResult, OpenWorldReport};
use bf_sim::{MachineConfig, OsKind};
use bf_stats::welch_t_test;
use bf_timer::BrowserKind;

/// Paper-reference numbers for one grid row (percent accuracies; `None`
/// where the paper has no measurement).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperRow {
    /// Browser.
    pub browser: BrowserKind,
    /// Operating system.
    pub os: OsKind,
    /// Closed-world loop-counting accuracy.
    pub closed_loop: f64,
    /// Closed-world cache-occupancy accuracy (\[65\]).
    pub closed_cache: Option<f64>,
    /// Open-world loop attack: sensitive accuracy.
    pub ow_sensitive: f64,
    /// Open-world loop attack: non-sensitive accuracy.
    pub ow_non_sensitive: f64,
    /// Open-world loop attack: combined accuracy.
    pub ow_combined: f64,
    /// Open-world cache attack combined accuracy (\[65\]).
    pub ow_cache_combined: Option<f64>,
}

/// All Table 1 rows (top-1; the Tor top-5 row is derived from the same
/// Tor run).
#[rustfmt::skip]
pub const PAPER_ROWS: [PaperRow; 8] = [
    PaperRow { browser: BrowserKind::Chrome, os: OsKind::Linux, closed_loop: 96.6, closed_cache: Some(91.4), ow_sensitive: 95.8, ow_non_sensitive: 99.4, ow_combined: 97.2, ow_cache_combined: Some(86.4) },
    PaperRow { browser: BrowserKind::Chrome, os: OsKind::Windows, closed_loop: 92.5, closed_cache: Some(80.0), ow_sensitive: 91.4, ow_non_sensitive: 99.2, ow_combined: 94.5, ow_cache_combined: Some(86.1) },
    PaperRow { browser: BrowserKind::Chrome, os: OsKind::MacOs, closed_loop: 94.4, closed_cache: None, ow_sensitive: 92.4, ow_non_sensitive: 97.6, ow_combined: 94.3, ow_cache_combined: None },
    PaperRow { browser: BrowserKind::Firefox, os: OsKind::Linux, closed_loop: 95.3, closed_cache: Some(80.0), ow_sensitive: 95.2, ow_non_sensitive: 99.9, ow_combined: 96.4, ow_cache_combined: Some(87.4) },
    PaperRow { browser: BrowserKind::Firefox, os: OsKind::Windows, closed_loop: 91.9, closed_cache: Some(87.7), ow_sensitive: 90.9, ow_non_sensitive: 99.6, ow_combined: 93.7, ow_cache_combined: Some(87.7) },
    PaperRow { browser: BrowserKind::Firefox, os: OsKind::MacOs, closed_loop: 94.4, closed_cache: None, ow_sensitive: 93.5, ow_non_sensitive: 98.6, ow_combined: 95.0, ow_cache_combined: None },
    PaperRow { browser: BrowserKind::Safari, os: OsKind::MacOs, closed_loop: 96.6, closed_cache: Some(72.6), ow_sensitive: 95.1, ow_non_sensitive: 99.0, ow_combined: 96.7, ow_cache_combined: Some(80.5) },
    PaperRow { browser: BrowserKind::TorBrowser, os: OsKind::Linux, closed_loop: 49.8, closed_cache: Some(46.7), ow_sensitive: 46.2, ow_non_sensitive: 89.8, ow_combined: 62.9, ow_cache_combined: Some(62.9) },
];

/// Paper-reference Tor top-5 numbers: (loop, cache, ow sensitive, ow
/// non-sensitive, ow combined, ow cache combined).
pub const PAPER_TOR_TOP5: (f64, f64, f64, f64, f64, f64) = (86.4, 71.9, 86.2, 97.5, 90.7, 82.7);

/// Measured results for one grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Cell {
    /// The paper's reference numbers for this cell.
    pub paper: PaperRow,
    /// Closed-world loop-counting CV result.
    pub closed_loop: CrossValResult,
    /// Closed-world sweep-counting CV result.
    pub closed_sweep: CrossValResult,
    /// Open-world loop-counting report (top-1).
    pub open_world: OpenWorldReport,
    /// Open-world loop-counting report (top-5).
    pub open_world_top5: OpenWorldReport,
    /// Two-sided p-value of the loop vs sweep fold-accuracy comparison
    /// (§4.2's t-test), when computable.
    pub p_value: Option<f64>,
}

/// The regenerated table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1 {
    /// One cell per evaluated row, in [`PAPER_ROWS`] order.
    pub cells: Vec<Table1Cell>,
    /// Scale the experiment ran at.
    pub scale: ExperimentScale,
}

impl Table1 {
    /// Number of cells where the loop attack beats the sweep attack
    /// (closed world) — the paper's "all but one configuration".
    pub fn loop_wins(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.closed_loop.mean_accuracy() > c.closed_sweep.mean_accuracy())
            .count()
    }

    /// Render with paper references.
    pub fn to_table(&self) -> ReportTable {
        let mut t = ReportTable::new(
            format!(
                "Table 1: closed/open-world accuracy (scale: {})",
                self.scale
            ),
            &[
                "Browser",
                "OS",
                "Loop (closed)",
                "Sweep (closed)",
                "OW sens.",
                "OW non-sens.",
                "OW combined",
                "p(loop vs sweep)",
            ],
        );
        let cell_fmt = |measured: f64, paper: Option<f64>| match paper {
            Some(p) => format!("{:.1}% (paper {p:.1}%)", measured * 100.0),
            None => format!("{:.1}% (paper -)", measured * 100.0),
        };
        for c in &self.cells {
            let p = &c.paper;
            t.push_row(vec![
                p.browser.label().to_owned(),
                p.os.label().to_owned(),
                cell_fmt(c.closed_loop.mean_accuracy(), Some(p.closed_loop)),
                cell_fmt(c.closed_sweep.mean_accuracy(), p.closed_cache),
                cell_fmt(c.open_world.sensitive_accuracy, Some(p.ow_sensitive)),
                cell_fmt(
                    c.open_world.non_sensitive_accuracy,
                    Some(p.ow_non_sensitive),
                ),
                cell_fmt(c.open_world.combined_accuracy, Some(p.ow_combined)),
                c.p_value.map_or("-".to_owned(), |p| format!("{p:.4}")),
            ]);
        }
        if let Some(tor) = self
            .cells
            .iter()
            .find(|c| c.paper.browser == BrowserKind::TorBrowser)
        {
            let (l5, c5, s5, n5, comb5, _) = PAPER_TOR_TOP5;
            t.push_row(vec![
                "Tor Browser 10 (top 5)".to_owned(),
                "Linux".to_owned(),
                cell_fmt(tor.closed_loop.mean_top5(), Some(l5)),
                cell_fmt(tor.closed_sweep.mean_top5(), Some(c5)),
                cell_fmt(tor.open_world_top5.sensitive_accuracy, Some(s5)),
                cell_fmt(tor.open_world_top5.non_sensitive_accuracy, Some(n5)),
                cell_fmt(tor.open_world_top5.combined_accuracy, Some(comb5)),
                "-".to_owned(),
            ]);
        }
        t.push_note(format!(
            "loop-counting beats sweep-counting in {}/{} configurations (paper: all but Tor)",
            self.loop_wins(),
            self.cells.len()
        ));
        t
    }
}

impl std::fmt::Display for Table1 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_table())
    }
}

/// Evaluate one grid cell.
pub fn run_cell(paper: PaperRow, scale: ExperimentScale, seed: u64) -> Table1Cell {
    let machine = MachineConfig::for_os(paper.os);
    let loop_cfg = CollectionConfig::new(paper.browser, AttackKind::LoopCounting)
        .with_machine(machine.clone())
        .with_scale(scale);
    let sweep_cfg = CollectionConfig::new(paper.browser, AttackKind::SweepCounting)
        .with_machine(machine)
        .with_scale(scale);

    let closed_loop = loop_cfg.evaluate_closed_world(seed);
    let closed_sweep = sweep_cfg.evaluate_closed_world(seed ^ 0x5EE9);

    let ow = loop_cfg.collect_open_world(
        scale.n_sites(),
        scale.traces_per_site(),
        scale.open_world_traces(),
        seed ^ 0x09EA,
    );
    let oof = loop_cfg.cross_validate_oof(&ow, seed);
    let ns_class = scale.n_sites();
    let open_world = OpenWorldReport::from_predictions(&oof.predictions(), ow.labels(), ns_class);
    let open_world_top5 = OpenWorldReport::from_probas_top_k(&oof.probas, ow.labels(), ns_class, 5);

    let p_value = welch_t_test(
        &closed_loop.accuracies_pct(),
        &closed_sweep.accuracies_pct(),
    )
    .ok()
    .map(|t| t.p_two_sided);

    Table1Cell {
        paper,
        closed_loop,
        closed_sweep,
        open_world,
        open_world_top5,
        p_value,
    }
}

/// Run the grid. At [`ExperimentScale::Smoke`] only the first
/// (Chrome/Linux) and last (Tor/Linux) rows are evaluated to keep tests
/// fast; larger scales run all eight.
pub fn run(scale: ExperimentScale, seed: u64) -> Table1 {
    let rows: Vec<PaperRow> = match scale {
        ExperimentScale::Smoke => vec![PAPER_ROWS[0], PAPER_ROWS[7]],
        _ => PAPER_ROWS.to_vec(),
    };
    let cells = rows.into_iter().map(|r| run_cell(r, scale, seed)).collect();
    Table1 { cells, scale }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    // Runs a full smoke-scale experiment (tens of seconds); exercised
    // end-to-end by `cargo run -p bf-bench --bin experiments -- table1`.
    #[ignore = "slow in debug (~30-120 s); CI runs it in release via the experiments step, or use `cargo run -p bf-bench --bin experiments -- table1`"]
    fn smoke_grid_reproduces_orderings() {
        let t = run(ExperimentScale::Smoke, 2);
        assert_eq!(t.cells.len(), 2);
        let chrome = &t.cells[0];
        let tor = &t.cells[1];
        // Loop attack beats chance massively on Chrome (chance = 1/6).
        assert!(
            chrome.closed_loop.mean_accuracy() > 0.5,
            "chrome loop = {}",
            chrome.closed_loop.mean_accuracy()
        );
        // Tor's 100 ms timer degrades the attack relative to Chrome.
        assert!(
            tor.closed_loop.mean_accuracy() < chrome.closed_loop.mean_accuracy(),
            "tor {} vs chrome {}",
            tor.closed_loop.mean_accuracy(),
            chrome.closed_loop.mean_accuracy()
        );
        assert!(tor.closed_loop.mean_top5() >= tor.closed_loop.mean_accuracy());
    }

    #[test]
    // Runs a full smoke-scale experiment (tens of seconds); exercised
    // end-to-end by `cargo run -p bf-bench --bin experiments -- table1`.
    #[ignore = "slow in debug (~30-120 s); CI runs it in release via the experiments step, or use `cargo run -p bf-bench --bin experiments -- table1`"]
    fn table_renders_with_paper_refs() {
        let t = run(ExperimentScale::Smoke, 3);
        let text = t.to_table().to_string();
        assert!(text.contains("paper 96.6%"), "{text}");
        assert!(text.contains("Tor Browser 10 (top 5)"), "{text}");
    }
}
