//! Hierarchical spans: scoped wall-clock timers that nest into dotted
//! paths (`table2.collect.site` …) and record each completion into the
//! metrics registry histogram `span.<dotted path>`.
//!
//! A [`SpanGuard`] pushes its *interned path ID* onto a thread-local
//! stack on entry and pops on drop, recording the elapsed wall-clock
//! seconds into its path's histogram. Paths are interned in a
//! process-wide trie keyed by (parent ID, name); the path string and its
//! histogram are built once, the first time a path is seen, so the
//! steady-state enter/exit path performs **no heap allocation**: a span
//! is one trie lookup and a `u32` push on entry and an atomic histogram
//! record on exit. Run manifests report span timings in their metrics
//! delta, like every other histogram.
//!
//! A worker thread starts with an empty stack; `bf_par` has it [`adopt`]
//! its spawner's innermost span, so paths match at every thread count.

use crate::level::{enabled, Level};
use crate::metrics::{self, LogHistogram};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

thread_local! {
    static SPAN_STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// One node of the span-path trie: full dotted path, child lookup by
/// name, and the path's registry histogram (interned paths live as long
/// as the process, so their handles are leaked once). Node 0 is the root
/// sentinel; it is never entered, so its histogram is a detached one that
/// nothing records into.
struct PathNode {
    path: String,
    children: HashMap<String, u32>,
    hist: &'static LogHistogram,
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
                hist: Box::leak(Box::default()),
            }],
        }
    }

    /// Child of `parent` named `name` and its histogram, interning on
    /// first sight. The hit path (steady state) allocates nothing: the
    /// name is looked up by `&str` against the interned `String` keys.
    fn child_of(&mut self, parent: u32, name: &str) -> (u32, &'static LogHistogram) {
        if let Some(&id) = self.nodes[parent as usize].children.get(name) {
            return (id, self.nodes[id as usize].hist);
        }
        let parent_path = &self.nodes[parent as usize].path;
        let path = if parent_path.is_empty() {
            name.to_owned()
        } else {
            format!("{parent_path}.{name}")
        };
        let metric = format!("span.{path}"); // alloc-ok: once per new path
        let hist: &'static LogHistogram = Box::leak(Box::new(metrics::histogram(&metric)));
        let id = self.nodes.len() as u32;
        self.nodes.push(PathNode {
            path,
            children: HashMap::new(),
            hist,
        });
        self.nodes[parent as usize]
            .children
            .insert(name.to_owned(), id);
        (id, hist)
    }
}

fn span_table() -> &'static Mutex<PathTable> {
    static TABLE: OnceLock<Mutex<PathTable>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(PathTable::new()))
}

/// The dotted path of the innermost active span on this thread, if any.
pub fn current_path() -> Option<String> {
    Some(path_of(current().0?))
}

/// The innermost active span on one thread, as a handle another thread
/// can [`adopt`].
#[derive(Debug, Clone, Copy)]
pub struct SpanParent(Option<u32>);

/// This thread's innermost active span.
pub fn current() -> SpanParent {
    SpanParent(SPAN_STACK.with(|s| s.borrow().last().copied()))
}

/// Nest the spans this thread opens under `parent` until the guard
/// drops (no guard when no span was open). A parallel map hands its
/// spawner's [`current`] span to each worker this way, so a span path
/// does not depend on which thread ran it.
pub fn adopt(parent: SpanParent) -> Option<ParentGuard> {
    let id = parent.0?;
    SPAN_STACK.with(|s| s.borrow_mut().push(id));
    Some(ParentGuard(()))
}

/// Guard returned by [`adopt`]; pops the adopted parent on drop.
#[derive(Debug)]
pub struct ParentGuard(());

impl Drop for ParentGuard {
    fn drop(&mut self) {
        SPAN_STACK.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// RAII guard for one span. Created by [`span`] or the `span!` macro.
#[derive(Debug)]
pub struct SpanGuard {
    id: u32,
    hist: &'static LogHistogram,
    start: Instant,
}

/// Enter a span named `name`, nested under the thread's current span.
/// Steady-state cost is one mutex-guarded trie lookup and a `u32` push —
/// no heap allocation after the first time a path is seen.
pub fn span(name: &str) -> SpanGuard {
    let parent = current().0.unwrap_or(0);
    let (id, hist) = span_table().lock().child_of(parent, name);
    SPAN_STACK.with(|s| s.borrow_mut().push(id));
    if enabled(Level::Trace) {
        crate::event::emit(Level::Trace, &path_of(id), "enter");
    }
    SpanGuard {
        id,
        hist,
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
        self.hist.record(elapsed.as_secs_f64());
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
    fn adopted_parent_nests_another_threads_spans() {
        let in_worker = |parent: SpanParent| {
            std::thread::spawn(move || {
                let _adopted = adopt(parent);
                let b = span("child");
                (current_path(), b.path())
            })
            .join()
            .expect("worker")
        };
        {
            let _a = span("adopt_probe");
            let (path, child) = in_worker(current());
            assert_eq!(path.as_deref(), Some("adopt_probe.child"));
            assert_eq!(child, "adopt_probe.child");
        }
        // With no span open there is nothing to adopt.
        let (_, child) = in_worker(current());
        assert_eq!(child, "child");
    }

    #[test]
    fn stats_accumulate_per_path() {
        for _ in 0..3 {
            let _s = span("stats_accumulate_probe");
            std::hint::black_box(0u64);
        }
        let s = metrics::histogram("span.stats_accumulate_probe").snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.buckets.iter().sum::<u64>(), s.count);
        let (min, max) = (s.min.expect("recorded"), s.max.expect("recorded"));
        assert!(0.0 <= min && min <= max && max <= s.sum + 1e-9);
        assert!(s.quantile(0.99) >= s.quantile(0.5));
    }
}
