//! Source-level allocation lint for the training, serving, simulation
//! and attack-replay hot paths.
//!
//! The `alloc_regression` test proves the steady state allocates
//! nothing at runtime; this lint keeps the *sources* honest between
//! runs. Every allocation-shaped expression (`vec!`,
//! `Vec::with_capacity`, `.to_vec(`, `.collect(`) inside a hot module
//! must carry an `// alloc-ok: <reason>` annotation stating why it is
//! off the steady-state path (constructor, pool miss, checkpointing,
//! first step). An unannotated hit fails the test with
//! the file, line, and offending code. The scan reads each module's
//! source through `include_str!`, so it runs wherever the bf-nn suite
//! does.

/// Modules whose bodies constitute the training hot path, plus the
/// bf-obs primitives that run inside it (span guards, counters, trace
/// context) — instrumentation is not exempt from its own budget.
const HOT_MODULES: &[(&str, &str)] = &[
    ("conv.rs", include_str!("../src/conv.rs")),
    ("stage.rs", include_str!("../src/stage.rs")),
    ("dense.rs", include_str!("../src/dense.rs")),
    ("lstm.rs", include_str!("../src/lstm.rs")),
    ("dropout.rs", include_str!("../src/dropout.rs")),
    ("network.rs", include_str!("../src/network.rs")),
    ("loss.rs", include_str!("../src/loss.rs")),
    ("optim.rs", include_str!("../src/optim.rs")),
    ("tensor.rs", include_str!("../src/tensor.rs")),
    ("workspace.rs", include_str!("../src/workspace.rs")),
    ("obs/span.rs", include_str!("../../obs/src/span.rs")),
    ("obs/metrics.rs", include_str!("../../obs/src/metrics.rs")),
    ("obs/trace.rs", include_str!("../../obs/src/trace.rs")),
    ("obs/level.rs", include_str!("../../obs/src/level.rs")),
    ("obs/event.rs", include_str!("../../obs/src/event.rs")),
    // The anytime ladder's serving-side models: calibration and the
    // distilled student run per request inside the deadline budget.
    ("ml/anytime.rs", include_str!("../../ml/src/anytime.rs")),
    ("ml/calibrate.rs", include_str!("../../ml/src/calibrate.rs")),
    ("ml/distill.rs", include_str!("../../ml/src/distill.rs")),
    // The batched inference fast path: the primary classifier's predict
    // plumbing and the serving scheduler that assembles micro-batches.
    ("ml/cnn.rs", include_str!("../../ml/src/cnn.rs")),
    ("serve/service.rs", include_str!("../../serve/src/service.rs")),
    // The streamed simulation engine: every collected trace runs its
    // merge loop, and steady-state runs must stay pool-backed.
    ("sim/engine.rs", include_str!("../../sim/src/engine.rs")),
    ("sim/workspace.rs", include_str!("../../sim/src/workspace.rs")),
    // Every arrival draws a handler-time slot; the attacker core's (and,
    // on first read, every other core's) turn into handler times.
    ("sim/interrupt.rs", include_str!("../../sim/src/interrupt.rs")),
    ("stats/rng.rs", include_str!("../../stats/src/rng.rs")),
    // The attack replay: every collected trace steps its timeline and
    // step-series cursors, which must allocate nothing; only the
    // per-trace outputs may.
    ("sim/timeline.rs", include_str!("../../sim/src/timeline.rs")),
    ("stats/series.rs", include_str!("../../stats/src/series.rs")),
    ("attack/replay.rs", include_str!("../../attack/src/replay.rs")),
    ("attack/sweep_counting.rs", include_str!("../../attack/src/sweep_counting.rs")),
];

const ALLOC_PATTERNS: &[&str] = &["vec!", "Vec::with_capacity", ".to_vec(", ".collect("];

#[test]
fn hot_modules_annotate_every_allocation() {
    let mut violations = Vec::new();
    for (name, source) in HOT_MODULES {
        for (lineno, line) in source.lines().enumerate() {
            // Test modules sit at the bottom of each file; everything
            // after the first `#[cfg(test)]` is out of scope.
            if line.trim_start().starts_with("#[cfg(test)]") {
                break;
            }
            let trimmed = line.trim_start();
            if trimmed.starts_with("//") {
                continue; // prose, not code
            }
            if !ALLOC_PATTERNS.iter().any(|p| line.contains(p)) {
                continue;
            }
            if line.contains("// alloc-ok:") {
                continue;
            }
            violations.push(format!("{name}:{}: {}", lineno + 1, trimmed));
        }
    }
    assert!(
        violations.is_empty(),
        "unannotated allocations in hot modules (add the code to the \
         arena/scratch path, or justify with `// alloc-ok: <reason>`):\n{}",
        violations.join("\n")
    );
}
