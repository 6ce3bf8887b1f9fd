//! # bf-par — deterministic fork-join work distribution
//!
//! The pipeline's parallel layers — per-trace simulation in collection,
//! per-fold cross-validation, the collect stage of a serve wave — are
//! embarrassingly parallel *by construction*: each work item is a pure
//! function of its index and inputs. This crate distributes such items over a scoped thread pool
//! while guaranteeing that **results are returned in input order and are
//! bit-identical regardless of thread count or scheduling**.
//!
//! The contract callers must uphold for that guarantee: the closure
//! passed to [`par_map_indexed`] must depend only on `(index, item)` —
//! never on execution order, shared mutable state, or which worker runs
//! it. Every call site in this workspace derives per-item RNG streams
//! from the item index (`combine_seeds(seed, index)`-style), which is
//! exactly this property.
//!
//! Thread count resolution (first match wins):
//! 1. a programmatic [`set_threads`] override (used by tests and the
//!    speedup harness),
//! 2. the `BF_THREADS` environment variable (resolved once per process;
//!    see [`reload_env`]),
//! 3. [`std::thread::available_parallelism`].
//!
//! With one thread the map degenerates to an inline sequential loop: no
//! threads are spawned and no synchronization happens, so `BF_THREADS=1`
//! is byte-for-byte the pre-parallel code path.
//!
//! ## Items, not kernels
//!
//! Parallelism lives at the item level only. A map's items are whole
//! traces, folds or serve jobs, and everything one item runs — the
//! `bf-nn` kernels included — is a plain loop on the worker that claimed
//! it. No map runs inside another, so a map over `n` items simply takes
//! `min(threads(), n)` workers; there is no budget to split between
//! nesting levels and no per-call work threshold to tune. (A map nested
//! inside another would multiply the workers, never change a result.)

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Panic payload carried out of [`try_par_map_indexed`].
pub type Panic = Box<dyn std::any::Any + Send + 'static>;

/// Programmatic thread-count override; 0 = unset (fall through to the
/// environment).
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Cached resolution of `BF_THREADS` / `available_parallelism`.
/// `std::env::var` allocates a `String` on every call, so the
/// environment is read once and memoized rather than on every map.
static ENV_THREADS: AtomicUsize = AtomicUsize::new(ENV_UNINIT);
const ENV_UNINIT: usize = usize::MAX;

/// Override the pool size for this process, taking precedence over
/// `BF_THREADS`. `None` removes the override. Intended for tests and
/// benchmarks that compare thread counts in-process; production code
/// should let operators steer via the environment.
pub fn set_threads(n: Option<usize>) {
    OVERRIDE.store(n.unwrap_or(0), Ordering::SeqCst);
}

/// Drop the memoized `BF_THREADS` resolution so the next [`threads`]
/// call re-reads the environment. Only needed by tests that mutate the
/// variable at runtime; processes configured at launch never call this.
pub fn reload_env() {
    ENV_THREADS.store(ENV_UNINIT, Ordering::SeqCst);
}

fn env_threads() -> usize {
    let cached = ENV_THREADS.load(Ordering::Relaxed);
    if cached != ENV_UNINIT {
        return cached;
    }
    let resolved = std::env::var("BF_THREADS")
        .ok()
        .and_then(|s| {
            let trimmed = s.trim();
            match trimmed.parse::<usize>() {
                Ok(n) if n > 0 => Some(n),
                // 0 and non-numeric are both misconfigurations: report the
                // rejected value once, then fall back to autodetection.
                _ => {
                    bf_obs::env::warn_invalid(
                        "BF_THREADS",
                        trimmed,
                        "a positive integer worker count",
                    );
                    None
                }
            }
        })
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from));
    ENV_THREADS.store(resolved, Ordering::Relaxed);
    resolved
}

/// The process-wide pool size: the [`set_threads`] override, else
/// `BF_THREADS`, else the machine's available parallelism. Always at
/// least 1; a malformed or zero `BF_THREADS` is reported once (via
/// `bf_obs::error!`) and then ignored.
pub fn threads() -> usize {
    let o = OVERRIDE.load(Ordering::SeqCst);
    if o > 0 {
        return o;
    }
    env_threads()
}

/// The worker count a map over `n_items` uses: `min(threads(), n_items)`,
/// at least 1.
fn plan(n_items: usize) -> usize {
    threads().min(n_items).max(1)
}

/// Map `f` over `items` on up to [`threads`] workers, returning results
/// **in input order**. Items are claimed dynamically (an atomic cursor),
/// so uneven item costs still balance, but each result lands in the slot
/// of its input index — scheduling never reorders outputs.
///
/// Runs inline (no threads, no locks) when one worker suffices.
///
/// # Panics
///
/// Propagates a panic from `f`. Use [`try_par_map_indexed`] to survive
/// per-item panics.
pub fn par_map_indexed<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = plan(n);
    // Capture the spawner's trace context once; whichever worker claims
    // item `i` restores it with branch namespace `i`, so spans traced
    // inside `f` mint identical IDs at every thread count (including the
    // inline path below). A `None` context makes the guards no-ops. Each
    // worker likewise adopts the spawner's innermost `span!`, so the
    // span paths `f` opens nest as they do inline.
    let tctx = bf_obs::trace::current();
    let toff = bf_obs::trace::virtual_offset();
    let sparent = bf_obs::span::current();
    if workers <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let _trace = bf_obs::trace::adopt_branch(tctx, toff, i as u64);
                f(i, t)
            })
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    let f = &f;
    let collected: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let _span = bf_obs::span::adopt(sparent);
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let _trace = bf_obs::trace::adopt_branch(tctx, toff, i as u64);
                        local.push((i, f(i, &items[i])));
                    }
                    local
                })
            })
            .collect();
        let mut all = Vec::with_capacity(n);
        let mut panic: Option<Panic> = None;
        for h in handles {
            match h.join() {
                Ok(local) => all.extend(local),
                Err(p) => panic = Some(p),
            }
        }
        if let Some(p) = panic {
            std::panic::resume_unwind(p);
        }
        all
    });
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in collected {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index claimed exactly once"))
        .collect()
}

/// Like [`par_map_indexed`] but a panicking item yields `Err(payload)` in
/// its slot instead of tearing down the whole map — the fold engine uses
/// this to skip a crashed fold while keeping the rest.
pub fn try_par_map_indexed<T, R, F>(items: &[T], f: F) -> Vec<Result<R, Panic>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_indexed(items, |i, t| catch_unwind(AssertUnwindSafe(|| f(i, t))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex;

    /// Tests mutate the process-wide override.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
        set_threads(Some(n));
        let r = f();
        set_threads(None);
        r
    }

    #[test]
    fn results_are_in_input_order() {
        let _lock = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let items: Vec<u64> = (0..100).collect();
        let out = with_threads(4, || {
            par_map_indexed(&items, |i, &v| {
                // Uneven cost: late items finish first.
                if i % 7 == 0 {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                v * 3
            })
        });
        assert_eq!(out, items.iter().map(|v| v * 3).collect::<Vec<_>>());
    }

    #[test]
    fn identical_across_thread_counts() {
        let _lock = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let items: Vec<u64> = (0..64).collect();
        let f = |i: usize, v: &u64| (i as f32 * 0.37).sin() + (*v as f32).cos();
        let seq = with_threads(1, || par_map_indexed(&items, f));
        let par = with_threads(4, || par_map_indexed(&items, f));
        let sb: Vec<u32> = seq.iter().map(|v| v.to_bits()).collect();
        let pb: Vec<u32> = par.iter().map(|v| v.to_bits()).collect();
        assert_eq!(sb, pb);
    }

    #[test]
    fn trace_context_propagates_identically_across_thread_counts() {
        let _lock = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        bf_obs::trace::set_enabled(true);
        let items: Vec<u64> = (0..32).collect();
        let run = || {
            let root = bf_obs::TraceCtx::root(77, 0);
            let _adopt = bf_obs::trace::adopt(Some(root), 0);
            let spans = par_map_indexed(&items, |i, &v| {
                let s = bf_obs::trace::span_at("item", i as u64);
                let ctx = s.ctx().expect("context restored in worker");
                assert_eq!(ctx.trace_id, root.trace_id);
                s.finish(i as u64 + v);
                ctx.span_id
            });
            drop(_adopt);
            let _ = bf_obs::trace::drain();
            spans
        };
        let seq = with_threads(1, run);
        let par = with_threads(4, run);
        bf_obs::trace::set_enabled(false);
        assert_eq!(seq, par, "span IDs must not depend on the thread count");
        let mut unique = seq.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), items.len(), "branch namespaces must not collide");
    }

    #[test]
    fn workers_nest_spans_under_the_spawners_span() {
        let _lock = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let items = [0u8; 8];
        for threads in [1, 4] {
            let _outer = bf_obs::span!("outer");
            let paths = with_threads(threads, || {
                par_map_indexed(&items, |_, _| bf_obs::span::current_path())
            });
            assert!(
                paths.iter().all(|p| p.as_deref() == Some("outer")),
                "{threads} thread(s): {paths:?}"
            );
        }
    }

    #[test]
    fn single_thread_runs_inline() {
        let _lock = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let main_id = std::thread::current().id();
        let ids = with_threads(1, || {
            par_map_indexed(&[0u8; 8], |_, _| std::thread::current().id())
        });
        assert!(ids.iter().all(|&id| id == main_id));
    }

    #[test]
    fn every_item_processed_exactly_once() {
        let _lock = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let count = AtomicU64::new(0);
        let items: Vec<usize> = (0..1000).collect();
        let out = with_threads(4, || {
            par_map_indexed(&items, |i, &v| {
                count.fetch_add(1, Ordering::Relaxed);
                assert_eq!(i, v);
                i
            })
        });
        assert_eq!(count.load(Ordering::Relaxed), 1000);
        assert_eq!(out.len(), 1000);
    }

    #[test]
    fn try_variant_isolates_panicking_items() {
        let _lock = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let items: Vec<usize> = (0..10).collect();
        let out = with_threads(3, || {
            try_par_map_indexed(&items, |i, _| {
                if i == 4 {
                    panic!("item 4 exploded");
                }
                i * 2
            })
        });
        assert_eq!(out.len(), 10);
        for (i, r) in out.iter().enumerate() {
            if i == 4 {
                assert!(r.is_err());
            } else {
                assert_eq!(*r.as_ref().unwrap(), i * 2);
            }
        }
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn plain_variant_propagates_panics() {
        let _lock = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        set_threads(Some(2));
        let result = std::panic::catch_unwind(|| {
            par_map_indexed(&[0u8; 4], |i, _| {
                if i == 2 {
                    panic!("boom");
                }
                i
            })
        });
        set_threads(None);
        match result {
            Ok(_) => (),
            Err(p) => std::panic::resume_unwind(p),
        }
    }

    #[test]
    fn env_var_is_honoured_when_no_override() {
        let _lock = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        set_threads(None);
        std::env::set_var("BF_THREADS", "3");
        reload_env();
        assert_eq!(threads(), 3);
        std::env::set_var("BF_THREADS", "not a number");
        reload_env();
        assert!(threads() >= 1);
        std::env::remove_var("BF_THREADS");
        bf_obs::env::reset_warnings();
        reload_env();
        set_threads(Some(5));
        assert_eq!(threads(), 5);
        set_threads(None);
        reload_env();
    }

    #[test]
    fn env_resolution_is_memoized_until_reload() {
        let _lock = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        set_threads(None);
        std::env::set_var("BF_THREADS", "3");
        reload_env();
        assert_eq!(threads(), 3);
        // A runtime change without reload_env() is invisible: the
        // resolution is cached so the hot path never calls env::var.
        std::env::set_var("BF_THREADS", "7");
        assert_eq!(threads(), 3);
        reload_env();
        assert_eq!(threads(), 7);
        std::env::remove_var("BF_THREADS");
        reload_env();
    }

    #[test]
    fn malformed_env_threads_warns_once_and_falls_back() {
        let _lock = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        set_threads(None);
        std::env::set_var("BF_THREADS", "fuor");
        bf_obs::env::reset_warnings();
        bf_obs::begin_capture();
        reload_env();
        assert!(threads() >= 1, "malformed value must fall back, not abort");
        reload_env();
        let _ = threads(); // second resolution must stay silent
        let lines = bf_obs::end_capture();
        let warnings: Vec<_> = lines.iter().filter(|l| l.contains("BF_THREADS")).collect();
        assert_eq!(warnings.len(), 1, "{lines:?}");
        assert!(warnings[0].contains("`fuor`"), "{warnings:?}");
        assert!(warnings[0].contains("positive integer"), "{warnings:?}");

        // Zero workers is equally invalid and equally loud.
        std::env::set_var("BF_THREADS", "0");
        bf_obs::env::reset_warnings();
        bf_obs::begin_capture();
        reload_env();
        assert!(threads() >= 1);
        let lines = bf_obs::end_capture();
        assert!(lines.iter().any(|l| l.contains("BF_THREADS") && l.contains("`0`")), "{lines:?}");

        std::env::remove_var("BF_THREADS");
        bf_obs::env::reset_warnings();
        reload_env();
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let _lock = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let out: Vec<u32> = with_threads(4, || par_map_indexed(&[] as &[u8], |_, _| 1u32));
        assert!(out.is_empty());
    }

    #[test]
    fn plan_matches_map_sizing() {
        let _lock = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        with_threads(4, || {
            assert_eq!(plan(16), 4);
            assert_eq!(plan(3), 3);
            assert_eq!(plan(0), 1);
        });
        with_threads(1, || {
            assert_eq!(plan(1000), 1);
        });
    }
}
