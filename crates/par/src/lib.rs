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
//! only where items run.
//!
//! ## Kernel primitives
//!
//! The NN kernels are written once against two primitives that decide
//! internally whether to run inline or fan out:
//!
//! - [`par_chunks_mut_scratch`] hands each item a disjoint `&mut` window
//!   of one output buffer (per-sample activations, input gradients);
//! - [`par_map_merge`] maps items into per-item slabs and merges them
//!   **in index order** on the calling thread (parameter gradients
//!   reduced over channels or samples).
//!
//! Inline, both reuse one scratch value and, for the merge, one slab, so
//! a warm inline call allocates nothing beyond what the caller's
//! closures do. Fanned out, they spawn workers and the merge waits for
//! the join. Which one runs changes only where items execute, never a
//! result bit.
//!
//! ## Minimum-work threshold
//!
//! Fork-join has a fixed price (scoped thread spawn + join) that tiny
//! work items cannot amortize: the 2-thread smoke-shape training
//! regression in `BENCH_train_throughput.json` came entirely from
//! forking kernels whose per-item work was a few thousand multiply-adds.
//! The kernel primitives take a per-item cost estimate; items below
//! [`min_units`] ([`DEFAULT_MIN_UNITS`] unless a test lowers it with
//! [`set_min_units`]) run inline, so fork-join is never a
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

/// Default per-item work threshold for the kernel primitives, in
/// caller-estimated work units (the NN kernels pass multiply-add
/// counts). Chosen so the CI smoke shape's kernels (≈6–13k MACs per
/// sample) stay inline while the default experiment shape (≈40–200k)
/// still fans out.
pub const DEFAULT_MIN_UNITS: usize = 16 * 1024;

/// The threshold [`min_units`] returns: [`DEFAULT_MIN_UNITS`] unless
/// [`set_min_units`] overrides it.
static MIN_UNITS: AtomicUsize = AtomicUsize::new(DEFAULT_MIN_UNITS);

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

/// Override the kernel primitives' minimum per-item work for this
/// process; `None` restores [`DEFAULT_MIN_UNITS`]. Tests pass `Some(0)`
/// to make every eligible kernel fan out.
pub fn set_min_units(n: Option<usize>) {
    MIN_UNITS.store(n.unwrap_or(DEFAULT_MIN_UNITS), Ordering::SeqCst);
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

/// The worker count a map over `n_items` uses right now:
/// `min(available(), n_items / min_per_worker)`, at least 1 — and
/// exactly 1 when each item is cheaper than [`min_units`] (by the
/// caller's `units_per_item` estimate), because the fixed fork-join
/// cost would dwarf the work itself.
fn plan(n_items: usize, min_per_worker: usize, units_per_item: usize) -> usize {
    if units_per_item < min_units() {
        return 1;
    }
    available()
        .min(n_items / min_per_worker.max(1))
        .min(n_items)
        .max(1)
}

/// The minimum per-item work (in caller-estimated units) below which
/// the kernel primitives run inline: [`DEFAULT_MIN_UNITS`], or the
/// [`set_min_units`] override. `0` disables the threshold entirely
/// (every eligible workload forks).
pub fn min_units() -> usize {
    MIN_UNITS.load(Ordering::Relaxed)
}

/// Map `f` over `items` on up to [`available`] workers, returning
/// results **in input order**. Items are claimed dynamically (an atomic
/// cursor), so uneven item costs still balance, but each result lands
/// in the slot of its input index — scheduling never reorders outputs.
///
/// Runs inline (no threads, no locks) when one worker suffices. Each
/// spawned worker inherits `available() / workers` budget slots, so maps
/// nested inside `f` split the pool instead of multiplying it.
/// Determinism is unaffected — the budget only changes *where* items
/// run, never their results or order.
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
    let workers = plan(n, 1, usize::MAX);
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
    let child_budget = (available() / workers).max(1);
    let cursor = AtomicUsize::new(0);
    let f = &f;
    let collected: Vec<(usize, R)> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let cursor = &cursor;
                scope.spawn(move |_| {
                    set_budget(child_budget);
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

/// Run `f` over the `chunk_len`-sized chunks of `data`, giving each
/// worker one reusable `scratch` value (from `mk_scratch`) for all the
/// chunks it processes. The final chunk may be shorter than
/// `chunk_len`.
///
/// This is the writer-side counterpart of [`par_map_indexed`]: instead
/// of collecting per-item return values it hands each closure a
/// disjoint `&mut` window of the output, so batch kernels can write
/// results in place without per-item result buffers.
///
/// The pool is sized `min(available, chunks / min_per_worker)`, and
/// chunks cheaper than [`min_units`] (by the caller's
/// `units_per_chunk` estimate) never fork. Inline (one worker) it is a
/// plain loop with a single scratch — no threads, no allocation beyond
/// what `mk_scratch` does. Fanned out, chunks are distributed
/// round-robin (chunk `i` → worker `i % workers`), which is
/// deterministic and fair for the uniform chunk costs of NN batch
/// kernels.
///
/// # Panics
///
/// Panics if `chunk_len == 0`; propagates panics from `f`.
pub fn par_chunks_mut_scratch<T, S, M, F>(
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
    let workers = plan(data.len().div_ceil(chunk_len), min_per_worker, units_per_chunk);
    chunks_on(workers, data, chunk_len, mk_scratch, f);
}

/// The body of [`par_chunks_mut_scratch`] for an already-planned worker
/// count.
fn chunks_on<T, S, M, F>(workers: usize, data: &mut [T], chunk_len: usize, mk_scratch: M, f: F)
where
    T: Send,
    S: Send,
    M: Fn() -> S + Sync,
    F: Fn(usize, &mut [T], &mut S) + Sync,
{
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

/// Map `n` items into zeroed `slab_len`-element slabs, then hand every
/// slab to `merge` **in index order** on the calling thread: the ordered
/// reduction behind the NN kernels' parameter gradients, where each
/// item's partial must be added in a fixed order to stay bit-stable.
///
/// `map(i, slab, scratch)` fills item `i`'s slab; each worker owns one
/// `scratch` value from `mk_scratch`. `slab(len)` supplies the slab
/// storage (`len` elements; contents are overwritten), so a caller can
/// back it with a pooled buffer.
///
/// The pool is planned exactly as [`par_chunks_mut_scratch`] plans its
/// chunks. Inline, one slab is reused: item `i` is mapped and merged
/// before item `i + 1` is mapped, so the working set is one slab.
/// Fanned out, one `n × slab_len` buffer holds every item's slab,
/// workers fill them in place, and the merges run after the join. Either
/// way `merge(i, ..)` sees exactly the bits `map(i, ..)` left, in the
/// same order, so the result does not depend on which path ran.
///
/// # Panics
///
/// Panics if `slab_len == 0`; propagates panics from `map` and `merge`.
#[allow(clippy::too_many_arguments)]
pub fn par_map_merge<T, B, S, K, F, G>(
    n: usize,
    slab_len: usize,
    min_per_worker: usize,
    units_per_item: usize,
    slab: impl FnOnce(usize) -> B,
    mk_scratch: K,
    map: F,
    mut merge: G,
) where
    T: Copy + Default + Send,
    B: std::ops::DerefMut<Target = [T]>,
    S: Send,
    K: Fn() -> S + Sync,
    F: Fn(usize, &mut [T], &mut S) + Sync,
    G: FnMut(usize, &[T]),
{
    assert!(slab_len > 0, "slab_len must be positive");
    let workers = plan(n, min_per_worker, units_per_item);
    if workers <= 1 {
        let mut one = slab(slab_len);
        let mut scratch = mk_scratch();
        for i in 0..n {
            one.fill(T::default());
            map(i, &mut one, &mut scratch);
            merge(i, &one);
        }
        return;
    }
    let mut all = slab(n * slab_len);
    chunks_on(workers, &mut all, slab_len, mk_scratch, |i, one, scratch| {
        one.fill(T::default());
        map(i, one, scratch);
    });
    for (i, one) in all.chunks(slab_len).enumerate() {
        merge(i, one);
    }
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
    fn grain_keeps_small_batches_inline() {
        let _lock = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let main_id = std::thread::current().id();
        let mut ids = vec![main_id; 8];
        with_threads(8, || {
            with_min_units(0, || {
                par_chunks_mut_scratch(&mut ids, 1, 16, 1, || (), |_, chunk, ()| {
                    chunk[0] = std::thread::current().id();
                });
            })
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
        // Items far above any threshold: only the pool and grain decide.
        let sized = |n, grain| plan(n, grain, usize::MAX);
        with_threads(4, || {
            assert_eq!(sized(16, 1), 4);
            assert_eq!(sized(16, 8), 2);
            assert_eq!(sized(3, 1), 3);
            assert_eq!(sized(0, 1), 1);
            assert_eq!(sized(16, 0), 4);
        });
        with_threads(1, || {
            assert_eq!(sized(1000, 1), 1);
        });
    }

    fn with_min_units<R>(n: usize, f: impl FnOnce() -> R) -> R {
        set_min_units(Some(n));
        let r = f();
        set_min_units(None);
        r
    }

    #[test]
    fn min_units_defaults_and_takes_the_override() {
        let _lock = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        assert_eq!(min_units(), DEFAULT_MIN_UNITS);
        with_min_units(512, || assert_eq!(min_units(), 512));
        with_min_units(0, || assert_eq!(min_units(), 0));
        assert_eq!(min_units(), DEFAULT_MIN_UNITS, "None restores the default");
    }

    #[test]
    fn plan_keeps_cheap_items_inline() {
        let _lock = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        with_threads(4, || {
            with_min_units(1000, || {
                assert_eq!(plan(16, 1, 999), 1, "below the threshold: inline");
                assert_eq!(plan(16, 1, 1000), 4, "at the threshold: the plain plan");
                assert_eq!(plan(16, 8, 5000), 2, "grain still applies above it");
            });
            with_min_units(0, || {
                assert_eq!(plan(16, 1, 1), 4, "0 disables the threshold");
            });
        });
    }

    #[test]
    fn chunks_stay_inline_below_threshold() {
        let _lock = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let main_id = std::thread::current().id();
        with_threads(8, || {
            with_min_units(1000, || {
                let mut cheap = vec![std::thread::current().id(); 32];
                par_chunks_mut_scratch(&mut cheap, 4, 1, 999, || (), |_, chunk, ()| {
                    chunk.fill(std::thread::current().id());
                });
                assert!(cheap.iter().all(|&id| id == main_id), "cheap chunks run inline");
                let mut costly = vec![std::thread::current().id(); 32];
                par_chunks_mut_scratch(&mut costly, 4, 1, 1000, || (), |_, chunk, ()| {
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
    fn threshold_is_bit_identical_to_the_parallel_path() {
        let _lock = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let fill = |min_units: usize| {
            with_threads(4, || {
                with_min_units(min_units, || {
                    let mut data = vec![0f32; 64];
                    par_chunks_mut_scratch(&mut data, 8, 1, 100, || (), |i, chunk, ()| {
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
        assert_eq!(fill(1_000_000), fill(0), "the threshold never changes results");
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
                usize::MAX,
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
                    usize::MAX,
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
                usize::MAX,
                || {
                    made.fetch_add(1, Ordering::Relaxed);
                },
                |_, _, _| {},
            );
        });
        // One worker → one scratch for all 8 chunks.
        assert_eq!(made.load(Ordering::Relaxed), 1);
    }

    /// A sum-of-sines reduction through [`par_map_merge`]: item `i`
    /// writes `slab_len` values (plus a stale-data probe), and the merge
    /// adds each slab into an accumulator in the order it is handed
    /// over. Returns the accumulator bits, the merge order, and every
    /// storage length requested.
    fn merge_run(min_units: usize, threads: usize) -> (Vec<u32>, Vec<usize>, Vec<usize>) {
        with_threads(threads, || {
            with_min_units(min_units, || {
                let mut acc = [0f32; 5];
                let mut order = Vec::new();
                let mut requested = Vec::new();
                par_map_merge(
                    24,
                    5,
                    1,
                    100,
                    |len| {
                        requested.push(len);
                        vec![f32::NAN; len]
                    },
                    || (),
                    |i, slab: &mut [f32], ()| {
                        assert!(slab.iter().all(|&v| v == 0.0), "slab {i} not zeroed");
                        for (j, v) in slab.iter_mut().enumerate() {
                            // `black_box` keeps LLVM from constant-folding
                            // `sin` on one path only.
                            *v = std::hint::black_box((i * 5 + j) as f32 * 0.37).sin() * 1e3;
                        }
                    },
                    |i, slab| {
                        order.push(i);
                        for (a, v) in acc.iter_mut().zip(slab) {
                            *a += v;
                        }
                    },
                );
                (acc.iter().map(|v| v.to_bits()).collect(), order, requested)
            })
        })
    }

    #[test]
    fn map_merge_is_bit_identical_inline_and_fanned_out() {
        let _lock = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let (inline_bits, inline_order, inline_len) = merge_run(1000, 4);
        let (fanned_bits, fanned_order, fanned_len) = merge_run(0, 4);
        let (single_bits, _, single_len) = merge_run(0, 1);
        let in_order: Vec<usize> = (0..24).collect();
        assert_eq!(inline_order, in_order, "inline merges run in index order");
        assert_eq!(fanned_order, in_order, "fanned-out merges run in index order");
        assert_eq!(inline_bits, fanned_bits, "the path never changes results");
        assert_eq!(inline_bits, single_bits);
        // Inline (threshold or one worker) reuses one slab; fanned out,
        // one buffer holds every item's slab.
        assert_eq!(inline_len, vec![5]);
        assert_eq!(single_len, vec![5]);
        assert_eq!(fanned_len, vec![24 * 5]);
    }

    #[test]
    fn map_merge_inline_merges_each_item_before_mapping_the_next() {
        let _lock = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let events = Mutex::new(Vec::new());
        let main_id = std::thread::current().id();
        with_threads(1, || {
            par_map_merge(
                3,
                2,
                1,
                usize::MAX,
                |len| vec![0u64; len],
                || (),
                |i, slab: &mut [u64], ()| {
                    assert_eq!(std::thread::current().id(), main_id);
                    slab[0] = i as u64;
                    events.lock().unwrap().push(format!("map{i}"));
                },
                |i, slab| {
                    assert_eq!(slab, [i as u64, 0]);
                    events.lock().unwrap().push(format!("merge{i}"));
                },
            );
        });
        assert_eq!(
            events.into_inner().unwrap(),
            ["map0", "merge0", "map1", "merge1", "map2", "merge2"]
        );
    }

    #[test]
    fn map_merge_fans_out_over_workers_with_one_scratch_each() {
        let _lock = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let made = AtomicU64::new(0);
        let main_id = std::thread::current().id();
        let mut ran_on = Vec::new();
        with_threads(4, || {
            with_min_units(0, || {
                par_map_merge(
                    16,
                    1,
                    1,
                    1,
                    |len| vec![0u8; len],
                    || {
                        made.fetch_add(1, Ordering::Relaxed);
                    },
                    |_, _: &mut [u8], ()| {
                        assert_ne!(std::thread::current().id(), main_id);
                    },
                    |i, _| {
                        assert_eq!(std::thread::current().id(), main_id, "merges run on the caller");
                        ran_on.push(i);
                    },
                );
            })
        });
        assert_eq!(made.load(Ordering::Relaxed), 4, "one scratch per worker");
        assert_eq!(ran_on, (0..16).collect::<Vec<_>>());
    }
}
