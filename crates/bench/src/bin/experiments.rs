//! Regenerate the paper's tables and figures: `experiments [name…]`.
//!
//! With no argument every experiment in `bf_core::experiments::ALL` runs,
//! in that table's order, and the run manifest is named `all`
//! (EXPERIMENTS.md's source). Names run those experiments in the order
//! given, and the manifest is named after them: `experiments table4`
//! writes `manifests/table4-<scale>-seed<seed>.json`. An unknown name
//! exits non-zero before anything runs and lists the valid ones.
//!
//! Each experiment runs as a manifest phase of its own name inside its
//! own panic guard, so a crash in one still lets the rest regenerate;
//! the bin then exits non-zero listing the failed phases.
use bf_bench::run_bin;
use bf_core::experiments::{Report, ALL};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let mut chosen: Vec<(&str, Report)> = Vec::with_capacity(names.len());
    for name in &names {
        match ALL.iter().find(|(known, _)| known == name) {
            Some(&experiment) => chosen.push(experiment),
            None => {
                let valid: Vec<&str> = ALL.iter().map(|(known, _)| *known).collect();
                eprintln!("unknown experiment `{name}`; valid: {}", valid.join(", "));
                return ExitCode::FAILURE;
            }
        }
    }
    let (title, manifest) = if chosen.is_empty() {
        chosen = ALL.to_vec();
        ("all tables and figures".to_owned(), "all".to_owned())
    } else {
        (names.join(", "), names.join("+"))
    };
    run_bin(&title, &manifest, |m, scale, seed| {
        let mut failed = Vec::new();
        for (name, report) in chosen {
            match catch_unwind(AssertUnwindSafe(|| m.phase(name, || report(scale, seed)))) {
                Ok(text) => println!("{text}\n"),
                Err(_) => {
                    eprintln!("phase {name} panicked; continuing with the rest\n");
                    failed.push(name);
                }
            }
        }
        if failed.is_empty() {
            Ok(())
        } else {
            Err(format!("{} phase(s) failed: {}", failed.len(), failed.join(", ")).into())
        }
    })
}
