//! Thread-safe metrics: counters, gauges, and log-scale histograms, kept
//! in a registry whose snapshots feed [`crate::manifest::RunManifest`].
//!
//! Counters and gauges are single relaxed atomics — always on, cheap
//! enough for per-event accounting. Histograms use base-2 log-scale
//! buckets so one fixed-size array covers nanoseconds to hours. Hot loops
//! that dispatch millions of events should tally into a
//! [`LocalHistogram`] / plain integers and flush once (see the `bf-sim`
//! engine), which makes instrumentation overhead unmeasurable.

use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Number of log-scale buckets: exponents `2^-32 .. 2^31` around 1.0.
pub const HISTOGRAM_BUCKETS: usize = 64;
/// Exponent offset: bucket index = floor(log2(value)) + OFFSET.
const EXP_OFFSET: i32 = 32;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Create a counter at zero.
    pub const fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value-wins floating-point gauge.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Create a gauge at zero.
    pub const fn new() -> Self {
        Gauge {
            bits: AtomicU64::new(0),
        }
    }

    /// Set the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Map an f64 to a u64 whose unsigned ordering matches the float's total
/// ordering (sign bit flipped for positives, all bits for negatives), so
/// atomic `fetch_min`/`fetch_max` work on encoded values.
#[inline]
fn order_encode(value: f64) -> u64 {
    let bits = value.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

#[inline]
fn order_decode(enc: u64) -> f64 {
    if enc >> 63 == 1 {
        f64::from_bits(enc & !(1 << 63))
    } else {
        f64::from_bits(!enc)
    }
}

#[inline]
fn bucket_of(value: f64) -> usize {
    if value <= 0.0 || !value.is_finite() {
        return 0;
    }
    // floor(log2(x)) for normal positive x is the unbiased exponent;
    // subnormals have biased exponent 0 and clamp to bucket 0, same as
    // the analytic result. Avoids a libm log2 call on the record path.
    let exp = ((value.to_bits() >> 52) & 0x7ff) as i32 - 1023 + EXP_OFFSET;
    exp.clamp(0, HISTOGRAM_BUCKETS as i32 - 1) as usize
}

/// Lower edge of bucket `i` (`2^(i - EXP_OFFSET)`).
pub fn bucket_lower_edge(i: usize) -> f64 {
    ((i as i32 - EXP_OFFSET) as f64).exp2()
}

/// How many exemplars a histogram retains (the largest observations, so
/// the set covers the p99+ tail of any realistically sized run).
pub const EXEMPLAR_CAP: usize = 4;

/// A tail observation annotated with the trace that produced it, linking
/// a histogram's p99+ entries back to their [`crate::trace`] timelines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exemplar {
    /// The observed value.
    pub value: f64,
    /// Trace ID of the request that recorded it (never 0).
    pub trace_id: u64,
}

/// Canonical exemplar order: largest value first, trace_id as the
/// deterministic tie-break — so the retained set is independent of
/// observation order and thread interleaving.
fn sort_exemplars(xs: &mut Vec<Exemplar>) {
    xs.sort_by(|a, b| {
        b.value
            .total_cmp(&a.value)
            .then_with(|| a.trace_id.cmp(&b.trace_id))
    });
    xs.dedup_by(|a, b| a.trace_id == b.trace_id && a.value == b.value);
    xs.truncate(EXEMPLAR_CAP);
}

/// A thread-safe histogram with base-2 log-scale buckets.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    /// Sum in f64 bits, updated by CAS (low contention by design).
    sum_bits: AtomicU64,
    /// Min/max in total-order-comparable bit patterns (values are >= 0).
    min_bits: AtomicU64,
    max_bits: AtomicU64,
    /// Top-[`EXEMPLAR_CAP`] observations by value, tagged with trace IDs.
    exemplars: Mutex<Vec<Exemplar>>,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(order_encode(f64::INFINITY)),
            max_bits: AtomicU64::new(order_encode(f64::NEG_INFINITY)),
            exemplars: Mutex::new(Vec::new()),
        }
    }

    /// [`record`](Self::record), additionally retaining `(value,
    /// trace_id)` as an exemplar when it ranks among the top
    /// [`EXEMPLAR_CAP`] observations. A `trace_id` of 0 (no active
    /// trace) records the value without an exemplar.
    pub fn record_exemplar(&self, value: f64, trace_id: u64) {
        self.record(value);
        if trace_id == 0 || !value.is_finite() {
            return;
        }
        let mut xs = self.exemplars.lock();
        if xs.len() >= EXEMPLAR_CAP {
            if let Some(last) = xs.last() {
                if value < last.value {
                    return;
                }
            }
        }
        xs.push(Exemplar { value, trace_id });
        sort_exemplars(&mut xs);
    }

    /// Record one observation (negative / non-finite values land in the
    /// lowest bucket; the sum ignores non-finite values).
    pub fn record(&self, value: f64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        if value.is_finite() {
            let mut cur = self.sum_bits.load(Ordering::Relaxed);
            loop {
                let next = (f64::from_bits(cur) + value).to_bits();
                match self.sum_bits.compare_exchange_weak(
                    cur,
                    next,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(actual) => cur = actual,
                }
            }
            // A plain load first: most values move neither bound, and a
            // read-modify-write costs a locked instruction even then.
            let enc = order_encode(value);
            if enc < self.min_bits.load(Ordering::Relaxed) {
                self.min_bits.fetch_min(enc, Ordering::Relaxed);
            }
            if enc > self.max_bits.load(Ordering::Relaxed) {
                self.max_bits.fetch_max(enc, Ordering::Relaxed);
            }
        }
    }

    /// Fold a thread-local tally into this histogram in one pass.
    pub fn merge_local(&self, local: &LocalHistogram) {
        if local.count == 0 {
            return;
        }
        for (i, &c) in local.buckets.iter().enumerate() {
            if c > 0 {
                self.buckets[i].fetch_add(c, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(local.count, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + local.sum).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        if local.min.is_finite() {
            self.min_bits
                .fetch_min(order_encode(local.min), Ordering::Relaxed);
        }
        if local.max.is_finite() {
            self.max_bits
                .fetch_max(order_encode(local.max), Ordering::Relaxed);
        }
    }

    /// An immutable copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect(); // alloc-ok: snapshot path, manifest-time, not per-record
        let min = order_decode(self.min_bits.load(Ordering::Relaxed));
        let max = order_decode(self.max_bits.load(Ordering::Relaxed));
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            min: if min.is_finite() { Some(min) } else { None },
            max: if max.is_finite() { Some(max) } else { None },
            exemplars: self.exemplars.lock().clone(),
        }
    }
}

/// Single-threaded histogram tally for hot loops; fold into a shared
/// [`LogHistogram`] with [`LogHistogram::merge_local`] when done.
#[derive(Debug, Clone)]
pub struct LocalHistogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for LocalHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalHistogram {
    /// Create an empty tally.
    pub fn new() -> Self {
        LocalHistogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&mut self, value: f64) {
        self.buckets[bucket_of(value)] += 1;
        self.count += 1;
        if value.is_finite() {
            self.sum += value;
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }
}

/// Immutable histogram state, mergeable across threads / processes.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (`HISTOGRAM_BUCKETS` log-scale buckets).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of finite observations.
    pub sum: f64,
    /// Smallest finite observation, if any.
    pub min: Option<f64>,
    /// Largest finite observation, if any.
    pub max: Option<f64>,
    /// Top observations by value, tagged with the trace that produced
    /// them (empty unless recorded via [`LogHistogram::record_exemplar`]).
    pub exemplars: Vec<Exemplar>,
}

impl HistogramSnapshot {
    /// An empty snapshot (the identity element of [`merge`](Self::merge)).
    pub fn empty() -> Self {
        HistogramSnapshot {
            buckets: vec![0; HISTOGRAM_BUCKETS], // alloc-ok: empty-snapshot constructor, manifest path
            count: 0,
            sum: 0.0,
            min: None,
            max: None,
            exemplars: Vec::new(),
        }
    }

    /// Combine two snapshots: bucket-wise addition; min/max widen. The
    /// operation is associative and count-preserving (the bucket counts
    /// and `count` combine exactly; `sum` is float addition, associative
    /// up to rounding).
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let n = self.buckets.len().max(other.buckets.len());
        let mut buckets = vec![0u64; n]; // alloc-ok: merge runs at snapshot time
        for (i, slot) in buckets.iter_mut().enumerate() {
            *slot = self.buckets.get(i).copied().unwrap_or(0)
                + other.buckets.get(i).copied().unwrap_or(0);
        }
        let mut exemplars: Vec<Exemplar> = self
            .exemplars
            .iter()
            .chain(other.exemplars.iter())
            .copied()
            .collect(); // alloc-ok: merge runs at snapshot time
        sort_exemplars(&mut exemplars);
        HistogramSnapshot {
            buckets,
            count: self.count + other.count,
            sum: self.sum + other.sum,
            min: match (self.min, other.min) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            },
            max: match (self.max, other.max) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            },
            exemplars,
        }
    }

    /// Mean of finite observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Approximate quantile from the log-scale buckets (geometric bucket
    /// midpoint), `q` in `[0, 1]`. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                let lo = bucket_lower_edge(i);
                return Some(lo * std::f64::consts::SQRT_2);
            }
        }
        self.max
    }

    /// The counts-only difference `self - earlier` (for per-run deltas of
    /// cumulative histograms). Min/max/sum are taken from `self` when the
    /// counts differ, as an upper-bound approximation.
    pub fn delta_since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let n = self.buckets.len();
        let mut buckets = vec![0u64; n]; // alloc-ok: per-run delta, manifest path
        for (i, slot) in buckets.iter_mut().enumerate() {
            *slot = self.buckets[i].saturating_sub(earlier.buckets.get(i).copied().unwrap_or(0));
        }
        HistogramSnapshot {
            buckets,
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum - earlier.sum,
            min: self.min,
            max: self.max,
            // Exemplars are a cumulative top-K; the current set is the
            // best available answer for "which traces own the tail".
            exemplars: self.exemplars.clone(),
        }
    }
}

/// One metric's snapshot value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

/// A point-in-time copy of every metric in a registry.
pub type MetricsSnapshot = BTreeMap<String, MetricValue>;

/// Counts-only delta of `now - before` (gauges keep their current value).
pub fn snapshot_delta(now: &MetricsSnapshot, before: &MetricsSnapshot) -> MetricsSnapshot {
    now.iter()
        .map(|(name, value)| {
            let delta = match (value, before.get(name)) {
                (MetricValue::Counter(n), Some(MetricValue::Counter(b))) => {
                    MetricValue::Counter(n.saturating_sub(*b))
                }
                (MetricValue::Histogram(n), Some(MetricValue::Histogram(b))) => {
                    MetricValue::Histogram(n.delta_since(b))
                }
                (v, _) => v.clone(),
            };
            (name.clone(), delta)
        })
        .collect() // alloc-ok: registry-wide delta, manifest path
}

/// A named collection of metrics. Most code uses the process-wide
/// [`global`] registry; tests can build private ones.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<LogHistogram>>>,
}

impl Registry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.counters.read().get(name) {
            return Arc::clone(c);
        }
        Arc::clone(self.counters.write().entry(name.to_owned()).or_default())
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = self.gauges.read().get(name) {
            return Arc::clone(g);
        }
        Arc::clone(self.gauges.write().entry(name.to_owned()).or_default())
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<LogHistogram> {
        if let Some(h) = self.histograms.read().get(name) {
            return Arc::clone(h);
        }
        Arc::clone(self.histograms.write().entry(name.to_owned()).or_default())
    }

    /// Copy every metric's current value.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::new();
        for (name, c) in self.counters.read().iter() {
            out.insert(name.clone(), MetricValue::Counter(c.get()));
        }
        for (name, g) in self.gauges.read().iter() {
            out.insert(name.clone(), MetricValue::Gauge(g.get()));
        }
        for (name, h) in self.histograms.read().iter() {
            out.insert(name.clone(), MetricValue::Histogram(h.snapshot()));
        }
        out
    }
}

/// The process-wide registry that instrumented code reports into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Get or create a counter in the [`global`] registry.
pub fn counter(name: &str) -> Arc<Counter> {
    global().counter(name)
}

/// Get or create a gauge in the [`global`] registry.
pub fn gauge(name: &str) -> Arc<Gauge> {
    global().gauge(name)
}

/// Get or create a histogram in the [`global`] registry.
pub fn histogram(name: &str) -> Arc<LogHistogram> {
    global().histogram(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("x");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("x").get(), 5);
        let g = r.gauge("y");
        g.set(2.5);
        assert_eq!(r.gauge("y").get(), 2.5);
    }

    #[test]
    fn histogram_buckets_are_log_scale() {
        assert_eq!(bucket_of(1.0), EXP_OFFSET as usize);
        assert_eq!(bucket_of(2.0), EXP_OFFSET as usize + 1);
        assert_eq!(bucket_of(0.5), EXP_OFFSET as usize - 1);
        assert_eq!(bucket_of(0.0), 0);
        assert_eq!(bucket_of(f64::INFINITY), 0);
        // ~1 ns in seconds lands within range.
        assert!(bucket_of(1e-9) > 0);
    }

    #[test]
    fn histogram_snapshot_stats() {
        let h = LogHistogram::new();
        for v in [0.5, 1.5, 3.0, 3.0] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.min, Some(0.5));
        assert_eq!(s.max, Some(3.0));
        assert!((s.mean() - 2.0).abs() < 1e-12);
        assert!(s.quantile(0.5).is_some());
    }

    #[test]
    fn local_histogram_merges_exactly() {
        let shared = LogHistogram::new();
        let mut local = LocalHistogram::new();
        for i in 1..=100 {
            local.record(i as f64);
        }
        shared.merge_local(&local);
        let s = shared.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.min, Some(1.0));
        assert_eq!(s.max, Some(100.0));
        assert!((s.sum - 5_050.0).abs() < 1e-9);
    }

    #[test]
    fn snapshot_delta_subtracts_counters() {
        let r = Registry::new();
        r.counter("n").add(10);
        let before = r.snapshot();
        r.counter("n").add(7);
        r.gauge("g").set(1.25);
        let after = r.snapshot();
        let d = snapshot_delta(&after, &before);
        assert_eq!(d.get("n"), Some(&MetricValue::Counter(7)));
        assert_eq!(d.get("g"), Some(&MetricValue::Gauge(1.25)));
    }

    #[test]
    fn exemplars_keep_the_tail_deterministically() {
        let h = LogHistogram::new();
        for i in 1..=100u64 {
            h.record_exemplar(i as f64, 1000 + i);
        }
        h.record_exemplar(500.0, 0); // no trace context → value only
        let s = h.snapshot();
        assert_eq!(s.count, 101);
        assert_eq!(s.exemplars.len(), EXEMPLAR_CAP);
        let values: Vec<f64> = s.exemplars.iter().map(|e| e.value).collect();
        assert_eq!(values, vec![100.0, 99.0, 98.0, 97.0]);
        assert_eq!(s.exemplars[0].trace_id, 1100);
        // Merging is canonical: same set in, same set out.
        let merged = s.merge(&s);
        assert_eq!(merged.exemplars, s.exemplars);
    }

    #[test]
    fn quantile_orders_buckets() {
        let h = LogHistogram::new();
        for _ in 0..90 {
            h.record(1.0);
        }
        for _ in 0..10 {
            h.record(1000.0);
        }
        let s = h.snapshot();
        assert!(s.quantile(0.5).unwrap() < 3.0);
        assert!(s.quantile(0.99).unwrap() > 500.0);
    }
}
