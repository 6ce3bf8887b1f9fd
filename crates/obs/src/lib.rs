//! # bf-obs — observability for the bigger-fish pipeline
//!
//! One small crate gives every layer of the simulation → collection →
//! training pipeline the same three primitives:
//!
//! 1. **Leveled events and hierarchical spans** — `info!`/`debug!`/… macros
//!    filtered by the `BF_LOG` environment variable
//!    (`off|error|info|debug|trace`, default `info`), and [`span!`] guards
//!    that time scopes and nest into dotted paths (`table2.collect.site`).
//!    A disabled event costs one relaxed atomic load; nothing is formatted.
//!    Each span's wall time lands in the registry histogram `span.<path>`.
//! 2. **A thread-safe metrics registry** — counters, gauges, and base-2
//!    log-scale histograms, e.g. `sim.events_dispatched`,
//!    `sim.interrupts{kind=timer}`, `collect.traces`, `nn.epochs`,
//!    `ml.fold_seconds`. Hot loops tally locally
//!    ([`metrics::LocalHistogram`], plain integers) and flush once so the
//!    instrumented simulator stays within noise of the uninstrumented one.
//! 3. **Run manifests** — every experiment runner records config, seed,
//!    scale, per-phase wall-clock timing, and the metric delta of the
//!    run (span timings included), then writes JSON to `$BF_MANIFEST_DIR`
//!    (default `manifests/`) via [`manifest::ManifestBuilder`].
//!
//! The crate depends only on `parking_lot`, keeping it safe to pull into
//! every other workspace crate.

pub mod env;
pub mod event;
pub mod export;
pub mod json;
pub mod level;
pub mod manifest;
pub mod metrics;
pub mod span;
pub mod trace;

pub use event::{begin_capture, end_capture};
pub use json::Json;
pub use level::{enabled, max_level, set_level, Level};
pub use manifest::{ManifestBuilder, PhaseTiming, RunManifest};
pub use metrics::{
    counter, gauge, histogram, Counter, Exemplar, Gauge, HistogramSnapshot, LocalHistogram,
    LogHistogram, MetricsSnapshot, Registry,
};
pub use span::{span, SpanGuard};
pub use trace::TraceCtx;

#[cfg(test)]
mod tests {
    use super::*;

    // These tests mutate the process-wide level filter and sink.
    static SERIAL: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

    /// Level filtering, event capture, and span nesting interact through
    /// global state, so exercise them in one test to avoid interleaving.
    #[test]
    fn level_filter_gates_events_and_spans_nest() {
        let _lock = SERIAL.lock();
        begin_capture();

        set_level(Some(Level::Info));
        info!("kept");
        debug!("dropped");
        error!("also kept");

        set_level(Some(Level::Debug));
        {
            let _outer = span!("lvl_test");
            let _inner = span!("inner");
            debug!("now visible at {}", span::current_path().unwrap());
        }

        set_level(None); // off
        error!("silenced");

        set_level(Some(Level::Info)); // restore default-ish
        let lines = end_capture();
        assert!(lines.iter().any(|l| l.contains("[info] kept")), "{lines:?}");
        assert!(lines.iter().any(|l| l.contains("[error] also kept")));
        assert!(!lines.iter().any(|l| l.contains("dropped")));
        assert!(!lines.iter().any(|l| l.contains("silenced")));
        assert!(
            lines
                .iter()
                .any(|l| l.contains("lvl_test.inner") && l.contains("now visible")),
            "span path missing: {lines:?}"
        );
    }

    #[test]
    fn disabled_levels_report_not_enabled() {
        let _lock = SERIAL.lock();
        set_level(Some(Level::Error));
        assert!(enabled(Level::Error));
        assert!(!enabled(Level::Trace));
        assert_eq!(max_level(), Some(Level::Error));
        set_level(Some(Level::Info));
    }
}
