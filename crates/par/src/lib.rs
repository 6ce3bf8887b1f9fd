//! # bf-par — deterministic fork-join work distribution
//!
//! Every hot path in the pipeline — per-trace simulation, per-fold
//! cross-validation, intra-batch NN kernels — is embarrassingly parallel
//! *by construction*: each work item is a pure function of its index and
//! inputs. This crate distributes such items over a scoped thread pool
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
//! ## Parallelism budget
//!
//! Nested parallel maps used to *multiply*: `BF_THREADS=4` crossval
//! folds each spawning 4-way batch kernels put 16 runnable threads on a
//! 4-way host, and the oversubscription showed up as a 0.47x crossval
//! "speedup" in `BENCH_par_baseline.json`. Parallelism is now a
//! *budget* that nesting levels **split instead of multiply**: a map
//! that fans out over `w` workers hands each worker `available() / w`
//! slots, so the outer level (folds) takes priority and inner levels
//! (intra-batch kernels) parallelize only when slots remain. The budget
//! is thread-local, costs nothing to read, and never changes results —
//! only where items run. [`plan`] exposes the same sizing decision the
//! maps make so callers can pick between an inline and a parallel code
//! path (e.g. a zero-allocation sequential kernel vs a buffered
//! fan-out) without second-guessing the pool.
//!
//! ## Minimum-work threshold
//!
//! Fork-join has a fixed price (scoped thread spawn + join) that tiny
//! work items cannot amortize: the 2-thread smoke-shape training
//! regression in `BENCH_train_throughput.json` came entirely from
//! forking kernels whose per-item work was a few thousand multiply-adds.
//! Callers that can estimate their per-item cost pass it to
//! [`plan_units`] / [`par_chunks_mut_scratch_units`]; items below
//! [`min_units`] (the `BF_PAR_MIN_UNITS` knob, default
//! [`DEFAULT_MIN_UNITS`]) run inline, so fork-join is never a
//! pessimization. Like the grain and the budget, the threshold only
//! changes *where* items run — never their results or order.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Panic payload carried out of [`try_par_map_indexed`].
pub type Panic = Box<dyn std::any::Any + Send + 'static>;

/// Programmatic thread-count override; 0 = unset (fall through to the
/// environment).
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Cached resolution of `BF_THREADS` / `available_parallelism`.
/// `std::env::var` allocates a `String` on every call, which would put
/// the allocator back on the per-step hot path the workspace arenas
/// exist to clear — so the environment is read once and memoized.
static ENV_THREADS: AtomicUsize = AtomicUsize::new(ENV_UNINIT);
const ENV_UNINIT: usize = usize::MAX;

/// Cached resolution of `BF_PAR_MIN_UNITS` (same memoization rationale
/// as [`ENV_THREADS`]: the hot path must never call `env::var`).
static ENV_MIN_UNITS: AtomicUsize = AtomicUsize::new(ENV_UNINIT);

/// Default per-item work threshold for the units-aware entry points, in
/// caller-estimated work units (the NN kernels pass multiply-add
/// counts). Chosen so the CI smoke shape's kernels (≈6–13k MACs per
/// sample) stay inline while the default experiment shape (≈40–200k)
/// still fans out.
pub const DEFAULT_MIN_UNITS: usize = 16 * 1024;

thread_local! {
    /// Remaining parallelism budget for maps issued from this thread;
    /// 0 = unset (the thread owns the full pool).
    static BUDGET: Cell<usize> = const { Cell::new(0) };
}

/// Override the pool size for this process, taking precedence over
/// `BF_THREADS`. `None` removes the override. Intended for tests and
/// benchmarks that compare thread counts in-process; production code
/// should let operators steer via the environment.
pub fn set_threads(n: Option<usize>) {
    OVERRIDE.store(n.unwrap_or(0), Ordering::SeqCst);
}

/// Drop the memoized `BF_THREADS` / `BF_PAR_MIN_UNITS` resolutions so
/// the next [`threads`] / [`min_units`] call re-reads the environment.
/// Only needed by tests that mutate those variables at runtime;
/// processes configured at launch never call this.
pub fn reload_env() {
    ENV_THREADS.store(ENV_UNINIT, Ordering::SeqCst);
    ENV_MIN_UNITS.store(ENV_UNINIT, Ordering::SeqCst);
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

/// The parallelism still available to *this thread*: [`threads`] at the
/// top level, or this worker's share of the budget inside a parallel
/// map. Inner maps size themselves off this, which is what stops nested
/// levels from multiplying.
pub fn available() -> usize {
    BUDGET.with(|b| match b.get() {
        0 => threads(),
        n => n,
    })
}

fn set_budget(n: usize) {
    BUDGET.with(|b| b.set(n));
}

/// The worker count a parallel map over `n_items` with the given grain
/// would use right now: `min(available(), n_items / min_per_worker)`,
/// at least 1. Callers use `plan(n, g) <= 1` to choose an inline code
/// path (and skip building parallel-only scratch) without duplicating
/// the sizing rule.
pub fn plan(n_items: usize, min_per_worker: usize) -> usize {
    available()
        .min(n_items / min_per_worker.max(1))
        .min(n_items)
        .max(1)
}

/// The minimum per-item work (in caller-estimated units) below which
/// the units-aware entry points run inline: `BF_PAR_MIN_UNITS` when
/// set and parseable, else [`DEFAULT_MIN_UNITS`]. `0` disables the
/// threshold entirely (every eligible workload forks); a malformed
/// value is reported once and falls back to the default.
pub fn min_units() -> usize {
    let cached = ENV_MIN_UNITS.load(Ordering::Relaxed);
    if cached != ENV_UNINIT {
        return cached;
    }
    let resolved = std::env::var("BF_PAR_MIN_UNITS")
        .ok()
        .and_then(|s| {
            let trimmed = s.trim();
            match trimmed.parse::<usize>() {
                Ok(n) if n != ENV_UNINIT => Some(n),
                _ => {
                    bf_obs::env::warn_invalid(
                        "BF_PAR_MIN_UNITS",
                        trimmed,
                        "a per-item work threshold (0 disables it)",
                    );
                    None
                }
            }
        })
        .unwrap_or(DEFAULT_MIN_UNITS);
    ENV_MIN_UNITS.store(resolved, Ordering::Relaxed);
    resolved
}

/// [`plan`] with a per-item work estimate: items cheaper than
/// [`min_units`] always plan inline (1 worker), because the fixed
/// fork-join cost would dwarf the work itself. Callers use
/// `plan_units(n, g, u) <= 1` exactly like `plan(n, g) <= 1` to pick
/// between inline and parallel arms.
pub fn plan_units(n_items: usize, min_per_worker: usize, units_per_item: usize) -> usize {
    if units_per_item < min_units() {
        return 1;
    }
    plan(n_items, min_per_worker)
}

/// [`par_chunks_mut_scratch`] with a per-chunk work estimate: chunks
/// cheaper than [`min_units`] run on a plain inline loop with a single
/// scratch (no threads spawned), regardless of the pool size.
///
/// # Panics
///
/// Panics if `chunk_len == 0`; propagates panics from `f`.
pub fn par_chunks_mut_scratch_units<T, S, M, F>(
    data: &mut [T],
    chunk_len: usize,
    min_per_worker: usize,
    units_per_chunk: usize,
    mk_scratch: M,
    f: F,
) where
    T: Send,
    S: Send,
    M: Fn() -> S + Sync,
    F: Fn(usize, &mut [T], &mut S) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    if units_per_chunk < min_units() {
        let mut scratch = mk_scratch();
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk, &mut scratch);
        }
        return;
    }
    par_chunks_mut_scratch(data, chunk_len, min_per_worker, mk_scratch, f)
}

/// Map `f` over `items` on up to [`available`] workers, returning
/// results **in input order**. Items are claimed dynamically (an atomic
/// cursor), so uneven item costs still balance, but each result lands
/// in the slot of its input index — scheduling never reorders outputs.
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
    par_map_indexed_grained(items, 1, f)
}

/// [`par_map_indexed`] with a minimum number of items per worker: the
/// pool is sized `min(available, items / min_per_worker)`, so
/// fine-grained workloads (tiny dense layers, short batches) stay
/// inline instead of paying thread spawn cost that dwarfs the work.
/// Each spawned worker inherits `available() / workers` budget slots,
/// so maps nested inside `f` split the pool instead of multiplying it.
/// Determinism is unaffected — the grain and the budget only change
/// *where* items run, never their results or order.
pub fn par_map_indexed_grained<T, R, F>(items: &[T], min_per_worker: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = plan(n, min_per_worker);
    // Capture the spawner's trace context once; whichever worker claims
    // item `i` restores it with branch namespace `i`, so spans traced
    // inside `f` mint identical IDs at every thread count (including the
    // inline path below). A `None` context makes the guards no-ops.
    let tctx = bf_obs::trace::current();
    let toff = bf_obs::trace::virtual_offset();
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
    let child_budget = (available() / workers).max(1);
    let cursor = AtomicUsize::new(0);
    let f = &f;
    let collected: Vec<(usize, R)> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let cursor = &cursor;
                scope.spawn(move |_| {
                    set_budget(child_budget);
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
    })
    .expect("bf-par scope");
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in collected {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index claimed exactly once"))
        .collect()
}

/// Run `f` over the `chunk_len`-sized chunks of `data` in parallel,
/// giving each worker one reusable `scratch` value (from `mk_scratch`)
/// for all the chunks it processes. Chunks are distributed round-robin
/// (chunk `i` → worker `i % workers`), which is deterministic and fair
/// for the uniform chunk costs of NN batch kernels. The final chunk may
/// be shorter than `chunk_len`.
///
/// This is the writer-side counterpart of [`par_map_indexed_grained`]:
/// instead of collecting per-item return values it hands each closure a
/// disjoint `&mut` window of the output, so batch kernels can write
/// results in place without per-item result buffers. Inline (one
/// worker) it is a plain loop with a single scratch — no threads, no
/// allocation beyond what `mk_scratch` does.
///
/// # Panics
///
/// Panics if `chunk_len == 0`; propagates panics from `f`.
pub fn par_chunks_mut_scratch<T, S, M, F>(
    data: &mut [T],
    chunk_len: usize,
    min_per_worker: usize,
    mk_scratch: M,
    f: F,
) where
    T: Send,
    S: Send,
    M: Fn() -> S + Sync,
    F: Fn(usize, &mut [T], &mut S) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let n = data.len().div_ceil(chunk_len);
    let workers = plan(n, min_per_worker);
    if workers <= 1 {
        let mut scratch = mk_scratch();
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk, &mut scratch);
        }
        return;
    }
    let child_budget = (available() / workers).max(1);
    let mut buckets: Vec<Vec<(usize, &mut [T])>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
        buckets[i % workers].push((i, chunk));
    }
    let mk_scratch = &mk_scratch;
    let f = &f;
    crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = buckets
            .into_iter()
            .map(|bucket| {
                scope.spawn(move |_| {
                    set_budget(child_budget);
                    let mut scratch = mk_scratch();
                    for (i, chunk) in bucket {
                        f(i, chunk, &mut scratch);
                    }
                })
            })
            .collect();
        let mut panic: Option<Panic> = None;
        for h in handles {
            if let Err(p) = h.join() {
                panic = Some(p);
            }
        }
        if let Some(p) = panic {
            std::panic::resume_unwind(p);
        }
    })
    .expect("bf-par scope");
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
    fn single_thread_runs_inline() {
        let _lock = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let main_id = std::thread::current().id();
        let ids = with_threads(1, || {
            par_map_indexed(&[0u8; 8], |_, _| std::thread::current().id())
        });
        assert!(ids.iter().all(|&id| id == main_id));
    }

    #[test]
    fn grain_keeps_small_batches_inline() {
        let _lock = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let main_id = std::thread::current().id();
        let ids = with_threads(8, || {
            par_map_indexed_grained(&[0u8; 8], 16, |_, _| std::thread::current().id())
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
    fn nested_maps_split_the_budget_instead_of_multiplying() {
        let _lock = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let outer: Vec<usize> = (0..4).collect();
        let inner_avail = with_threads(4, || {
            par_map_indexed(&outer, |_, _| {
                // Four outer workers split a 4-slot budget: each sees 1
                // slot, so inner maps run inline on the worker thread.
                let avail = available();
                let tid = std::thread::current().id();
                let inner_ids = par_map_indexed(&[0u8; 8], |_, _| std::thread::current().id());
                assert!(inner_ids.iter().all(|&id| id == tid));
                avail
            })
        });
        assert!(inner_avail.iter().all(|&a| a == 1));
    }

    #[test]
    fn partial_fanout_leaves_slots_for_inner_levels() {
        let _lock = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let outer: Vec<usize> = (0..2).collect();
        let inner_avail = with_threads(8, || {
            par_map_indexed(&outer, |_, _| available())
        });
        // Two outer workers over an 8-slot budget: 4 slots each remain.
        assert_eq!(inner_avail, vec![4, 4]);
    }

    #[test]
    fn budget_resets_between_top_level_maps() {
        let _lock = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        with_threads(4, || {
            let _ = par_map_indexed(&[0u8; 4], |_, _| ());
            // The caller thread never had its budget clipped by the
            // fan-out it issued.
            assert_eq!(available(), 4);
        });
    }

    #[test]
    fn plan_matches_map_sizing() {
        let _lock = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        with_threads(4, || {
            assert_eq!(plan(16, 1), 4);
            assert_eq!(plan(16, 8), 2);
            assert_eq!(plan(3, 1), 3);
            assert_eq!(plan(0, 1), 1);
            assert_eq!(plan(16, 0), 4);
        });
        with_threads(1, || {
            assert_eq!(plan(1000, 1), 1);
        });
    }

    fn with_min_units<R>(v: &str, f: impl FnOnce() -> R) -> R {
        std::env::set_var("BF_PAR_MIN_UNITS", v);
        reload_env();
        let r = f();
        std::env::remove_var("BF_PAR_MIN_UNITS");
        bf_obs::env::reset_warnings();
        reload_env();
        r
    }

    #[test]
    fn min_units_defaults_and_reads_env() {
        let _lock = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        std::env::remove_var("BF_PAR_MIN_UNITS");
        reload_env();
        assert_eq!(min_units(), DEFAULT_MIN_UNITS);
        with_min_units("512", || assert_eq!(min_units(), 512));
        with_min_units("0", || assert_eq!(min_units(), 0));
        // Malformed values fall back to the default (and warn once).
        with_min_units("lots", || assert_eq!(min_units(), DEFAULT_MIN_UNITS));
    }

    #[test]
    fn plan_units_keeps_cheap_items_inline() {
        let _lock = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        with_threads(4, || {
            with_min_units("1000", || {
                assert_eq!(plan_units(16, 1, 999), 1, "below the threshold: inline");
                assert_eq!(plan_units(16, 1, 1000), 4, "at the threshold: the plain plan");
                assert_eq!(plan_units(16, 8, 5000), 2, "grain still applies above it");
            });
            with_min_units("0", || {
                assert_eq!(plan_units(16, 1, 1), 4, "0 disables the threshold");
            });
        });
    }

    #[test]
    fn chunks_units_variant_stays_inline_below_threshold() {
        let _lock = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let main_id = std::thread::current().id();
        with_threads(8, || {
            with_min_units("1000", || {
                let mut cheap = vec![std::thread::current().id(); 32];
                par_chunks_mut_scratch_units(&mut cheap, 4, 1, 999, || (), |_, chunk, ()| {
                    chunk.fill(std::thread::current().id());
                });
                assert!(cheap.iter().all(|&id| id == main_id), "cheap chunks run inline");
                let mut costly = vec![std::thread::current().id(); 32];
                par_chunks_mut_scratch_units(&mut costly, 4, 1, 1000, || (), |_, chunk, ()| {
                    chunk.fill(std::thread::current().id());
                });
                assert!(
                    costly.iter().any(|&id| id != main_id),
                    "chunks at the threshold fan out"
                );
            });
        });
    }

    #[test]
    fn units_variants_are_bit_identical_to_the_parallel_path() {
        let _lock = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let fill = |min_units: &str| {
            with_threads(4, || {
                with_min_units(min_units, || {
                    let mut data = vec![0f32; 64];
                    par_chunks_mut_scratch_units(&mut data, 8, 1, 100, || (), |i, chunk, ()| {
                        for (j, v) in chunk.iter_mut().enumerate() {
                            // `black_box` keeps LLVM from constant-folding
                            // `sin` on one arm only, which would compare
                            // compile-time folding against runtime `sinf`.
                            *v = std::hint::black_box((i * 8 + j) as f32 * 0.37).sin();
                        }
                    });
                    data.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
                })
            })
        };
        assert_eq!(fill("1000000"), fill("0"), "the threshold never changes results");
    }

    #[test]
    fn chunks_mut_scratch_writes_every_chunk_in_place() {
        let _lock = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        // 10 chunks of 3 over a 29-element buffer: final chunk is short.
        let mut data = vec![0u64; 29];
        with_threads(4, || {
            par_chunks_mut_scratch(
                &mut data,
                3,
                1,
                || 0usize,
                |i, chunk, seen| {
                    *seen += 1;
                    for (j, v) in chunk.iter_mut().enumerate() {
                        *v = (i * 100 + j) as u64;
                    }
                },
            );
        });
        for (i, chunk) in data.chunks(3).enumerate() {
            for (j, &v) in chunk.iter().enumerate() {
                assert_eq!(v, (i * 100 + j) as u64);
            }
        }
    }

    #[test]
    fn chunks_mut_scratch_is_identical_across_thread_counts() {
        let _lock = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let fill = |threads: usize| {
            let mut data = vec![0f32; 64];
            with_threads(threads, || {
                par_chunks_mut_scratch(
                    &mut data,
                    8,
                    1,
                    || (),
                    |i, chunk, ()| {
                        for (j, v) in chunk.iter_mut().enumerate() {
                            // `black_box` keeps LLVM from constant-folding
                            // `sin` on one arm only, which would compare
                            // compile-time folding against runtime `sinf`.
                            *v = std::hint::black_box((i * 8 + j) as f32 * 0.37).sin();
                        }
                    },
                );
            });
            data.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
        };
        assert_eq!(fill(1), fill(4));
    }

    #[test]
    fn chunks_mut_scratch_reuses_scratch_inline() {
        let _lock = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let made = AtomicU64::new(0);
        let mut data = vec![0u8; 32];
        with_threads(1, || {
            par_chunks_mut_scratch(
                &mut data,
                4,
                1,
                || {
                    made.fetch_add(1, Ordering::Relaxed);
                },
                |_, _, _| {},
            );
        });
        // One worker → one scratch for all 8 chunks.
        assert_eq!(made.load(Ordering::Relaxed), 1);
    }
}
