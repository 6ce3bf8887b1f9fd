//! The metric table and the report a run fills in.
//!
//! Every workload reports every metric of its mode: the untraced run
//! the end-to-end metrics, the traced run the per-layer ones. A layer a
//! workload does not exercise reads 0; those metrics are counts, shares
//! or virtual units, never wall times, so every wall time printed is a
//! measurement. `BENCHMARK.json` lists the same names, units, directions
//! and kinds (a unit test holds the two together) and adds each
//! end-to-end metric's regression bound.

use crate::stats::Summary;
use bf_obs::Json;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    EndToEnd,
    Layer,
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

use Better::{Higher, Lower};

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        kind: Kind::EndToEnd,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        kind: Kind::Layer,
    }
}

pub const METRICS: &[Metric] = &[
    e2e("setup_s", "s", Lower),
    e2e("items_per_s", "1/s", Higher),
    e2e("accuracy", "fraction", Higher),
    e2e("ok_fraction", "fraction", Higher),
    e2e("peak_rss_mb", "MB", Lower),
    // Collection layers, per traced trace.
    layer("victim.generate_ms.p50", "ms", Lower),
    layer("victim.generate_ms.p95", "ms", Lower),
    layer("sim.run_ms.p50", "ms", Lower),
    layer("sim.run_ms.p95", "ms", Lower),
    layer("sim.events_per_trace", "count", Lower),
    layer("sim.ns_per_event", "ns", Lower),
    layer("attack.replay_ms.p50", "ms", Lower),
    layer("attack.replay_ms.p95", "ms", Lower),
    layer("core.featurize_us.p50", "us", Lower),
    layer("core.trace_ms.p50", "ms", Lower),
    layer("core.trace_ms.p95", "ms", Lower),
    layer("core.layer_coverage", "fraction", Higher),
    layer("fault.attempts_per_trace", "count", Lower),
    layer("par.collect_busy_fraction", "fraction", Higher),
    // Models, through the timing wrapper.
    layer("ml.fit_s.sum", "s", Lower),
    layer("ml.fit_s.max", "s", Lower),
    layer("ml.predict_ms.sum", "ms", Lower),
    layer("ml.predict_us_per_row", "us", Lower),
    layer("ml.rows_per_predict_call", "count", Higher),
    layer("ml.primary_rows_per_call", "count", Higher),
    layer("ml.distilled_calls", "count", Lower),
    layer("nn.epochs", "count", Lower),
    layer("nn.epochs_per_s", "1/s", Higher),
    layer("par.fold_busy_fraction", "fraction", Higher),
    layer("par.fold_imbalance", "ratio", Lower),
    // Serving, in virtual units and counts.
    layer("serve.non_model_fraction", "fraction", Lower),
    layer("serve.batch.mean_size", "count", Higher),
    layer("serve.batch.flushed_full", "count", Higher),
    layer("serve.batch.flushed_deadline", "count", Lower),
    layer("serve.batch.flushed_tier_mismatch", "count", Lower),
    layer("serve.queue_units.p50", "units", Lower),
    layer("serve.queue_units.p95", "units", Lower),
    layer("serve.collect_attempts_per_request", "count", Lower),
    layer("serve.breaker_transitions", "count", Lower),
    layer("fault.backoff_waits", "count", Lower),
    layer("serve.p50_units", "units", Lower),
    layer("serve.p98_units", "units", Lower),
    layer("serve.capacity_per_kunit", "req/kunit", Higher),
    layer("obs.trace_overhead_pct", "%", Lower),
];

fn lookup(name: &str) -> &'static Metric {
    METRICS
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("`{name}` is not in the metric table"))
}

/// One reported value, with the spread of the samples it summarises
/// when it is a median of several.
#[derive(Debug, Clone, Copy)]
struct Measured {
    value: f64,
    summary: Option<Summary>,
}

/// What one run measured and checked.
#[derive(Debug)]
pub struct Report {
    kind: Kind,
    values: BTreeMap<&'static str, Measured>,
    /// Operations the measured reps performed (traces, folds, requests).
    pub attempted: u64,
    /// Operations among them that did not produce a result.
    pub failed: u64,
    failures: Vec<String>,
}

impl Report {
    pub fn new(trace: bool) -> Self {
        Report {
            kind: if trace { Kind::Layer } else { Kind::EndToEnd },
            values: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    pub fn traced(&self) -> bool {
        self.kind == Kind::Layer
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.insert(
            name,
            Measured {
                value,
                summary: None,
            },
        );
    }

    /// Report the median of `samples`, keeping their quartiles and count.
    pub fn set_median(&mut self, name: &'static str, samples: &[f64]) {
        let s = Summary::of(samples);
        self.insert(
            name,
            Measured {
                value: s.median,
                summary: Some(s),
            },
        );
    }

    /// Set every metric in `names` that has no value yet to 0: the
    /// layers this workload does not exercise.
    pub fn zero_unset(&mut self, names: &[&'static str]) {
        for &name in names {
            if !self.values.contains_key(name) {
                self.set(name, 0.0);
            }
        }
    }

    fn insert(&mut self, name: &'static str, m: Measured) {
        let metric = lookup(name);
        assert_eq!(
            metric.kind, self.kind,
            "`{name}` does not belong in this run's report"
        );
        assert!(m.value.is_finite(), "`{name}` measured {}", m.value);
        assert!(
            self.values.insert(name, m).is_none(),
            "`{name}` reported twice"
        );
    }

    /// Record a correctness check; a failed one fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    fn expected(&self) -> impl Iterator<Item = &'static Metric> + '_ {
        METRICS.iter().filter(move |m| m.kind == self.kind)
    }

    /// Human-readable table: value, unit, and quartiles with the sample
    /// count where the value is a median.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in self.expected() {
            let Some(v) = self.values.get(m.name) else {
                continue;
            };
            let better = m.better.label();
            out.push_str(&format!(
                "{:<36} {:>14.6} {:<10} {better:<7}",
                m.name, v.value, m.unit
            ));
            if let Some(s) = v.summary {
                out.push_str(&format!(" q1 {:.6} q3 {:.6} n {}", s.q1, s.q3, s.n));
            }
            out.push('\n');
        }
        out
    }

    /// The result object: `correct`, `attempted`, `failed`, and every
    /// metric of this run's kind with its unit.
    ///
    /// # Panics
    ///
    /// Panics when a metric of the run's kind was never reported: a
    /// workload that forgets one is a bug in this benchmark.
    pub fn result_json(&self) -> Json {
        let metrics = self
            .expected()
            .map(|m| {
                let v = self
                    .values
                    .get(m.name)
                    .unwrap_or_else(|| panic!("`{}` not reported", m.name));
                let entry = Json::object([
                    ("value", Json::Float(v.value)),
                    ("unit", Json::from(m.unit)),
                ]);
                (m.name.to_owned(), entry)
            })
            .collect();
        Json::object([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            ("metrics", Json::Object(metrics)),
        ])
    }

    /// Per-metric detail for `--out`: value, unit, and the quartiles of
    /// the samples behind a median.
    pub fn detail_json(&self) -> Json {
        let entries = self
            .values
            .iter()
            .map(|(name, v)| {
                let mut fields = vec![
                    ("value", Json::Float(v.value)),
                    ("unit", Json::from(lookup(name).unit)),
                ];
                if let Some(s) = v.summary {
                    fields.extend([
                        ("q1", Json::Float(s.q1)),
                        ("q3", Json::Float(s.q3)),
                        ("n", Json::UInt(s.n as u64)),
                    ]);
                }
                ((*name).to_owned(), Json::object(fields))
            })
            .collect();
        Json::Object(entries)
    }
}

/// Names of every per-layer metric, for [`Report::zero_unset`].
pub fn layer_names() -> Vec<&'static str> {
    METRICS
        .iter()
        .filter(|m| m.kind == Kind::Layer)
        .map(|m| m.name)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::{Config, Spec};
    use crate::workloads::Workload;
    use crate::DEFAULT_SECONDS;

    fn table(kind: Kind) -> Vec<(String, String, Better)> {
        METRICS
            .iter()
            .filter(|m| m.kind == kind)
            .map(|m| (m.name.to_owned(), m.unit.to_owned(), m.better))
            .collect()
    }

    fn listed(specs: &[Spec]) -> Vec<(String, String, Better)> {
        specs
            .iter()
            .map(|s| (s.name.clone(), s.unit.clone(), s.better))
            .collect()
    }

    #[test]
    fn table_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let cfg = Config::load(std::path::Path::new(path)).expect("BENCHMARK.json is valid");
        assert_eq!(listed(&cfg.end_to_end), table(Kind::EndToEnd));
        assert_eq!(listed(&cfg.per_layer), table(Kind::Layer));
        assert_eq!(cfg.workloads, Workload::ALL.map(|w| w.name().to_owned()));
        assert_eq!(cfg.run_seconds, DEFAULT_SECONDS);
        let setup = cfg
            .end_to_end
            .iter()
            .find(|s| s.name == "setup_s")
            .expect("setup_s listed");
        assert!(
            cfg.end_to_end
                .iter()
                .all(|s| s.name == "setup_s" || s.bound < setup.bound),
            "setup_s carries the largest bound"
        );
    }

    #[test]
    fn names_are_well_formed_and_within_limits() {
        let ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        for m in METRICS {
            assert!(ok(m.name), "bad metric name `{}`", m.name);
            assert!(
                m.name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{}",
                m.name
            );
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit `{}`",
                m.unit
            );
        }
        for w in Workload::ALL {
            assert!(ok(w.name()), "bad workload name `{}`", w.name());
        }
        let mut names: Vec<&str> = METRICS.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), METRICS.len(), "metric names must be unique");
        assert!(table(Kind::EndToEnd).len() <= 16);
        assert!(table(Kind::Layer).len() <= 128);
    }

    #[test]
    fn result_lists_every_metric_of_the_run_kind() {
        let mut r = Report::new(false);
        for m in METRICS.iter().filter(|m| m.kind == Kind::EndToEnd) {
            r.set(m.name, 1.5);
        }
        r.attempted = 3;
        let json = r.result_json();
        assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
        let Some(Json::Object(metrics)) = json.get("metrics") else {
            panic!()
        };
        assert_eq!(metrics.len(), table(Kind::EndToEnd).len());
        r.check(false, || "broken".into());
        assert_eq!(r.result_json().get("correct"), Some(&Json::Bool(false)));
    }

    #[test]
    #[should_panic(expected = "does not belong")]
    fn layer_metric_is_refused_in_an_untraced_run() {
        Report::new(false).set("sim.run_ms.p50", 1.0);
    }
}
