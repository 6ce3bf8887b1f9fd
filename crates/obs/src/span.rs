//! Hierarchical spans: scoped wall-clock timers that nest into dotted
//! paths (`table2.collect.site` …) and feed per-span aggregate timing
//! statistics into the run manifest.
//!
//! A [`SpanGuard`] pushes its *interned path ID* onto a thread-local
//! stack on entry and pops on drop, recording the elapsed wall-clock
//! time under the full dotted path. Paths are interned in a process-wide
//! trie keyed by (parent ID, name), so the steady-state enter/exit path
//! performs **no heap allocation**: strings are built once, the first
//! time a path is seen, and thereafter a span is a `u32` push plus a
//! stats update. Stats accumulate per path ID, which
//! [`drain_span_stats`] snapshots for manifests.

use crate::level::{enabled, Level};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

thread_local! {
    static SPAN_STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Fixed log-scale bucket count for per-span latency spread.
pub const SPAN_HIST_BUCKETS: usize = 40;
/// Bucket index = floor(log2(seconds)) + offset: covers ~1 ns to ~17 min.
const SPAN_EXP_OFFSET: i32 = 30;

#[inline]
fn span_bucket_of(secs: f64) -> usize {
    if secs <= 0.0 || !secs.is_finite() {
        return 0;
    }
    let exp = ((secs.to_bits() >> 52) & 0x7ff) as i32 - 1023 + SPAN_EXP_OFFSET;
    exp.clamp(0, SPAN_HIST_BUCKETS as i32 - 1) as usize
}

/// Lower edge of span-histogram bucket `i`, in seconds.
pub fn span_bucket_lower_edge(i: usize) -> f64 {
    ((i as i32 - SPAN_EXP_OFFSET) as f64).exp2()
}

/// Aggregate wall-clock statistics for one span path: count, total,
/// min/max, and a fixed-bucket log histogram for streaming p50/p99.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SpanStats {
    /// Number of completed spans at this path.
    pub count: u64,
    /// Total wall-clock seconds across all completions.
    pub total_seconds: f64,
    /// Longest single completion, in seconds.
    pub max_seconds: f64,
    /// Shortest single completion, in seconds (0 when no completions).
    pub min_seconds: f64,
    /// Base-2 log-scale latency buckets ([`SPAN_HIST_BUCKETS`] wide).
    pub buckets: Vec<u64>,
}

impl Default for SpanStats {
    fn default() -> Self {
        Self::empty()
    }
}

impl SpanStats {
    /// Stats with no completions.
    pub fn empty() -> Self {
        SpanStats {
            count: 0,
            total_seconds: 0.0,
            max_seconds: 0.0,
            min_seconds: 0.0,
            buckets: vec![0; SPAN_HIST_BUCKETS], // alloc-ok: once per distinct span path
        }
    }

    fn record(&mut self, elapsed: Duration) {
        let secs = elapsed.as_secs_f64();
        self.min_seconds = if self.count == 0 {
            secs
        } else {
            self.min_seconds.min(secs)
        };
        self.count += 1;
        self.total_seconds += secs;
        self.max_seconds = self.max_seconds.max(secs);
        self.buckets[span_bucket_of(secs)] += 1;
    }

    /// Approximate quantile in seconds from the log buckets (geometric
    /// bucket midpoint), `q` in `[0, 1]`. `None` when empty.
    pub fn quantile_seconds(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(span_bucket_lower_edge(i) * std::f64::consts::SQRT_2);
            }
        }
        Some(self.max_seconds)
    }

    /// Streaming median estimate (0 when empty).
    pub fn p50_seconds(&self) -> f64 {
        self.quantile_seconds(0.5).unwrap_or(0.0)
    }

    /// Streaming p99 estimate (0 when empty).
    pub fn p99_seconds(&self) -> f64 {
        self.quantile_seconds(0.99).unwrap_or(0.0)
    }
}

/// One node of the span-path trie: full dotted path, child lookup by
/// name, and accumulated stats. Node 0 is the root sentinel.
struct PathNode {
    path: String,
    children: HashMap<String, u32>,
    stats: SpanStats,
}

struct PathTable {
    nodes: Vec<PathNode>,
}

impl PathTable {
    fn new() -> Self {
        PathTable {
            nodes: vec![PathNode { // alloc-ok: table construction, once per process
                path: String::new(),
                children: HashMap::new(),
                stats: SpanStats::empty(),
            }],
        }
    }

    /// Child of `parent` named `name`, interning on first sight. The
    /// hit path (steady state) allocates nothing: the name is looked up
    /// by `&str` against the interned `String` keys.
    fn child_of(&mut self, parent: u32, name: &str) -> u32 {
        if let Some(&id) = self.nodes[parent as usize].children.get(name) {
            return id;
        }
        let parent_path = &self.nodes[parent as usize].path;
        let path = if parent_path.is_empty() {
            name.to_owned()
        } else {
            format!("{parent_path}.{name}")
        };
        let id = self.nodes.len() as u32;
        self.nodes.push(PathNode {
            path,
            children: HashMap::new(),
            stats: SpanStats::empty(),
        });
        self.nodes[parent as usize]
            .children
            .insert(name.to_owned(), id);
        id
    }
}

fn span_table() -> &'static Mutex<PathTable> {
    static TABLE: OnceLock<Mutex<PathTable>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(PathTable::new()))
}

fn collect_stats(table: &mut PathTable, drain: bool) -> BTreeMap<String, SpanStats> {
    table
        .nodes
        .iter_mut()
        .filter(|n| n.stats.count > 0)
        .map(|n| {
            let stats = if drain {
                std::mem::take(&mut n.stats)
            } else {
                n.stats.clone()
            };
            (n.path.clone(), stats)
        })
        .collect() // alloc-ok: manifest snapshot path, not per-span
}

/// Snapshot the accumulated per-path span statistics.
pub fn span_stats() -> BTreeMap<String, SpanStats> {
    collect_stats(&mut span_table().lock(), false)
}

/// Snapshot and clear the accumulated span statistics (used by manifest
/// builders so consecutive experiments in one process don't bleed into
/// each other). Interned paths persist; only the stats reset.
pub fn drain_span_stats() -> BTreeMap<String, SpanStats> {
    collect_stats(&mut span_table().lock(), true)
}

/// The dotted path of the innermost active span on this thread, if any.
pub fn current_path() -> Option<String> {
    let id = SPAN_STACK.with(|s| s.borrow().last().copied())?;
    Some(span_table().lock().nodes[id as usize].path.clone())
}

/// RAII guard for one span. Created by [`span`] or the `span!` macro.
#[derive(Debug)]
pub struct SpanGuard {
    id: u32,
    start: Instant,
}

/// Enter a span named `name`, nested under the thread's current span.
/// Steady-state cost is one mutex-guarded trie lookup and a `u32` push —
/// no heap allocation after the first time a path is seen.
pub fn span(name: &str) -> SpanGuard {
    let parent = SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
    let id = span_table().lock().child_of(parent, name);
    SPAN_STACK.with(|s| s.borrow_mut().push(id));
    if enabled(Level::Trace) {
        crate::event::emit(Level::Trace, &path_of(id), "enter");
    }
    SpanGuard {
        id,
        start: Instant::now(),
    }
}

fn path_of(id: u32) -> String {
    span_table().lock().nodes[id as usize].path.clone()
}

impl SpanGuard {
    /// The full dotted path of this span.
    pub fn path(&self) -> String {
        path_of(self.id)
    }

    /// Elapsed wall-clock time since entry.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        SPAN_STACK.with(|s| {
            s.borrow_mut().pop();
        });
        span_table().lock().nodes[self.id as usize]
            .stats
            .record(elapsed);
        if enabled(Level::Trace) {
            crate::event::emit(
                Level::Trace,
                &path_of(self.id),
                &format!("exit ({:.3} ms)", elapsed.as_secs_f64() * 1e3),
            );
        }
    }
}

/// Enter a span; the guard keeps it open until dropped.
///
/// ```
/// let _span = bf_obs::span!("collect");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::span($name)
    };
    ($fmt:expr, $($arg:tt)+) => {
        $crate::span::span(&format!($fmt, $($arg)+))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_into_dotted_paths() {
        let _a = span("outer_test_span");
        assert_eq!(current_path().as_deref(), Some("outer_test_span"));
        {
            let b = span("inner");
            assert_eq!(b.path(), "outer_test_span.inner");
            assert_eq!(current_path().as_deref(), Some("outer_test_span.inner"));
        }
        assert_eq!(current_path().as_deref(), Some("outer_test_span"));
    }

    #[test]
    fn stats_accumulate_per_path() {
        // Other tests (and manifest builders) may drain the global table
        // concurrently, so retry until a snapshot observes our records.
        let mut observed = None;
        for _ in 0..8 {
            for _ in 0..3 {
                let _s = span("stats_accumulate_probe");
                std::hint::black_box(0u64);
            }
            if let Some(s) = span_stats().get("stats_accumulate_probe") {
                observed = Some(s.clone());
                break;
            }
        }
        let s = observed.expect("recorded");
        assert!(s.count >= 1);
        assert!(s.total_seconds >= 0.0);
        assert!(s.max_seconds <= s.total_seconds + 1e-9);
        assert!(s.min_seconds <= s.max_seconds);
        assert_eq!(s.buckets.iter().sum::<u64>(), s.count);
        assert!(s.p50_seconds() >= 0.0);
        assert!(s.p99_seconds() >= s.p50_seconds() - 1e-12);
    }

    #[test]
    fn span_quantiles_track_distribution() {
        let mut s = SpanStats::empty();
        for _ in 0..90 {
            s.record(Duration::from_micros(100));
        }
        for _ in 0..10 {
            s.record(Duration::from_millis(100));
        }
        assert_eq!(s.count, 100);
        assert!((s.min_seconds - 1e-4).abs() < 1e-6);
        let p50 = s.p50_seconds();
        let p99 = s.p99_seconds();
        assert!(p50 < 1e-3, "p50 {p50} should sit near 100 µs");
        assert!(p99 > 5e-2, "p99 {p99} should sit near 100 ms");
    }

    #[test]
    fn interned_paths_are_stable_across_drain() {
        let mut drained = false;
        for _ in 0..8 {
            {
                let _s = span("drain_probe");
            }
            if drain_span_stats().contains_key("drain_probe") {
                drained = true;
                break;
            }
        }
        assert!(drained, "drain should observe the recorded path");
        let mut seen_again = false;
        for _ in 0..8 {
            {
                let _s = span("drain_probe");
            }
            if span_stats().contains_key("drain_probe") {
                seen_again = true;
                break;
            }
        }
        assert!(seen_again, "path must be re-recordable after drain");
    }
}
