//! Run manifests: a JSON record of what an experiment runner did —
//! config, seed, scale, per-phase wall-clock timing, and a delta snapshot
//! of every metric touched during the run (span timings included, as the
//! `span.<path>` histograms).
//!
//! Builders take a metrics snapshot at construction and subtract it at
//! [`ManifestBuilder::finish`], so several runs in one process each
//! report only their own activity.

use crate::json::Json;
use crate::metrics::{self, HistogramSnapshot, MetricValue, MetricsSnapshot};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Wall-clock timing of one named phase of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTiming {
    /// Phase name (`collect`, `train`, `evaluate`, …).
    pub name: String,
    /// Elapsed wall-clock seconds.
    pub seconds: f64,
}

/// The complete record of one experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Runner name (`table2`, `figure6`, …).
    pub name: String,
    /// Experiment scale label (`smoke`, `default`, `paper`).
    pub scale: String,
    /// Base RNG seed.
    pub seed: u64,
    /// Free-form configuration key/value pairs.
    pub config: BTreeMap<String, String>,
    /// Unix timestamp (seconds) when the run started.
    pub started_unix: u64,
    /// Total wall-clock seconds.
    pub total_seconds: f64,
    /// Per-phase wall-clock timings, in execution order.
    pub phases: Vec<PhaseTiming>,
    /// Delta of every metric over the run (counters/histograms are
    /// run-local; gauges report their final value).
    pub metrics: MetricsSnapshot,
}

impl RunManifest {
    /// Render as a JSON value.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("name", Json::from(self.name.as_str())),
            ("scale", Json::from(self.scale.as_str())),
            ("seed", Json::UInt(self.seed)),
            (
                "config",
                Json::Object(
                    self.config
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(v.as_str())))
                        .collect(),
                ),
            ),
            ("started_unix", Json::UInt(self.started_unix)),
            ("total_seconds", Json::Float(self.total_seconds)),
            (
                "phases",
                Json::Array(
                    self.phases
                        .iter()
                        .map(|p| {
                            Json::object([
                                ("name", Json::from(p.name.as_str())),
                                ("seconds", Json::Float(p.seconds)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "metrics",
                Json::Object(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), metric_to_json(v)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Pretty-printed JSON text.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_pretty_string()
    }

    /// Write the manifest under `dir` as `<name>-<scale>-seed<seed>.json`,
    /// creating the directory if needed. Returns the written path.
    pub fn write_to_dir(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!(
            "{}-{}-seed{}.json",
            self.name, self.scale, self.seed
        ));
        std::fs::write(&path, self.to_json_string())?;
        Ok(path)
    }

    /// Write to the directory named by `BF_MANIFEST_DIR` (default
    /// `manifests/`). Returns the written path.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let dir = std::env::var("BF_MANIFEST_DIR").unwrap_or_else(|_| "manifests".to_owned());
        self.write_to_dir(Path::new(&dir))
    }
}

fn histogram_to_json(h: &HistogramSnapshot) -> Json {
    let nonzero: BTreeMap<String, Json> = h
        .buckets
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(i, &c)| {
            (
                format!("{:.3e}", metrics::bucket_lower_edge(i)),
                Json::UInt(c),
            )
        })
        .collect();
    let exemplars: Vec<Json> = h
        .exemplars
        .iter()
        .map(|e| {
            Json::object([
                ("value", Json::Float(e.value)),
                ("trace_id", Json::Str(format!("{:#018x}", e.trace_id))),
            ])
        })
        .collect();
    Json::object([
        ("count", Json::UInt(h.count)),
        ("sum", Json::Float(h.sum)),
        ("mean", Json::Float(h.mean())),
        ("min", h.min.into()),
        ("max", h.max.into()),
        ("p50", h.quantile(0.5).into()),
        ("p99", h.quantile(0.99).into()),
        ("buckets", Json::Object(nonzero)),
        ("exemplars", Json::Array(exemplars)),
    ])
}

fn metric_to_json(v: &MetricValue) -> Json {
    match v {
        MetricValue::Counter(n) => Json::UInt(*n),
        MetricValue::Gauge(x) => Json::Float(*x),
        MetricValue::Histogram(h) => histogram_to_json(h),
    }
}

/// Accumulates one run's manifest; create at runner start, call
/// [`finish`](Self::finish) at the end.
#[derive(Debug)]
pub struct ManifestBuilder {
    name: String,
    scale: String,
    seed: u64,
    config: BTreeMap<String, String>,
    started_unix: u64,
    start: Instant,
    baseline: MetricsSnapshot,
    phases: Vec<PhaseTiming>,
}

impl ManifestBuilder {
    /// Start building a manifest for runner `name`. Takes the metrics
    /// baseline snapshot so the manifest covers only this run.
    pub fn new(name: &str, scale: &str, seed: u64) -> Self {
        ManifestBuilder {
            name: name.to_owned(),
            scale: scale.to_owned(),
            seed,
            config: BTreeMap::new(),
            started_unix: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            start: Instant::now(),
            baseline: metrics::global().snapshot(),
            phases: Vec::new(),
        }
    }

    /// Record a configuration key/value pair.
    pub fn config(&mut self, key: &str, value: impl std::fmt::Display) -> &mut Self {
        self.config.insert(key.to_owned(), value.to_string());
        self
    }

    /// Run `f` as a named phase, timing it and opening a span of the
    /// same name.
    pub fn phase<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let _span = crate::span::span(name);
        crate::info!("phase `{name}` starting");
        let start = Instant::now();
        let out = f();
        let seconds = start.elapsed().as_secs_f64();
        crate::info!("phase `{name}` done in {seconds:.3} s");
        self.phases.push(PhaseTiming {
            name: name.to_owned(),
            seconds,
        });
        out
    }

    /// Close the run: compute the metric delta against the baseline.
    pub fn finish(self) -> RunManifest {
        let now = metrics::global().snapshot();
        RunManifest {
            name: self.name,
            scale: self.scale,
            seed: self.seed,
            config: self.config,
            started_unix: self.started_unix,
            total_seconds: self.start.elapsed().as_secs_f64(),
            phases: self.phases,
            metrics: metrics::snapshot_delta(&now, &self.baseline),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Builders diff the global registry, so tests that build manifests
    // must not interleave.
    static SERIAL: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

    #[test]
    fn manifest_reports_run_local_metric_delta() {
        let _lock = SERIAL.lock();
        metrics::counter("manifest_test.pre").add(100);
        let mut b = ManifestBuilder::new("unit", "smoke", 7);
        b.config("sites", 3);
        let out = b.phase("work", || {
            metrics::counter("manifest_test.pre").add(5);
            metrics::counter("manifest_test.inner").inc();
            21 * 2
        });
        assert_eq!(out, 42);
        let m = b.finish();
        assert_eq!(m.name, "unit");
        assert_eq!(m.seed, 7);
        assert_eq!(m.config.get("sites").map(String::as_str), Some("3"));
        assert_eq!(m.phases.len(), 1);
        assert_eq!(m.phases[0].name, "work");
        match m.metrics.get("manifest_test.pre") {
            Some(MetricValue::Counter(n)) => assert_eq!(*n, 5),
            other => panic!("unexpected: {other:?}"),
        }
        match m.metrics.get("span.work") {
            Some(MetricValue::Histogram(h)) => assert_eq!(h.count, 1),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn manifest_json_contains_required_fields() {
        let _lock = SERIAL.lock();
        let mut b = ManifestBuilder::new("jsonny", "default", 42);
        b.phase("only", || ());
        let text = b.finish().to_json_string();
        for needle in [
            "\"name\": \"jsonny\"",
            "\"scale\": \"default\"",
            "\"seed\": 42",
            "\"phases\"",
        ] {
            assert!(text.contains(needle), "missing {needle} in {text}");
        }
    }

    #[test]
    fn manifest_writes_to_dir() {
        let _lock = SERIAL.lock();
        let dir = std::env::temp_dir().join("bf_obs_manifest_test");
        let b = ManifestBuilder::new("writer", "smoke", 1);
        let m = b.finish();
        let path = m.write_to_dir(&dir).expect("write");
        let text = std::fs::read_to_string(&path).expect("read back");
        assert!(text.contains("\"writer\""));
        let _ = std::fs::remove_file(path);
    }
}
