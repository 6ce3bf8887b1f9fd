//! The zero-allocation contract: once the workspace arena is warm, a
//! steady-state training step performs no heap allocations at all.
//!
//! A counting wrapper around the system allocator is installed as the
//! test binary's `#[global_allocator]`; after five warm-up steps (which
//! populate the arena, the optimizer's moment buffers, and every layer
//! cache) counting is switched on for one more step, which must report
//! zero allocations and zero deallocations. Only the measuring thread's
//! calls count: a sibling test's thread that exits inside the window
//! frees its own arena, and that is not the step's doing.
//!
//! Every kernel runs on the thread that calls it, so the contract does
//! not depend on the `bf-par` pool size: one leg trains at the
//! `cv_train` shape under a 4-thread pool.

use bf_nn::{CnnLstm, CnnLstmConfig, Tensor};
use bf_stats::SeedRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The counters are process-global; the tests below must not observe
/// each other's windows.
static SERIAL: Mutex<()> = Mutex::new(());

/// Pass-through allocator that counts calls made by a thread whose
/// `TRACKING` flag is set.
struct CountingAlloc;

thread_local! {
    /// Set by [`counted`] on the measuring thread only. The test harness
    /// runs sibling tests on other threads, and one of them exiting
    /// inside the window (dropping its thread-local arenas) is not the
    /// measured step's allocation. `const`-initialised with no
    /// destructor, so reading it from the allocator never allocates.
    static TRACKING: Cell<bool> = const { Cell::new(false) };
}

fn tracking() -> bool {
    TRACKING.try_with(Cell::get).unwrap_or(false)
}

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static DEALLOCS: AtomicUsize = AtomicUsize::new(0);
static REALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if tracking() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if tracking() {
            DEALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if tracking() {
            REALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `f` with counting enabled on this thread and return
/// `(allocs, deallocs, reallocs)`.
fn counted<R>(f: impl FnOnce() -> R) -> (R, (usize, usize, usize)) {
    ALLOCS.store(0, Ordering::SeqCst);
    DEALLOCS.store(0, Ordering::SeqCst);
    REALLOCS.store(0, Ordering::SeqCst);
    TRACKING.with(|t| t.set(true));
    let out = f();
    TRACKING.with(|t| t.set(false));
    (
        out,
        (
            ALLOCS.load(Ordering::SeqCst),
            DEALLOCS.load(Ordering::SeqCst),
            REALLOCS.load(Ordering::SeqCst),
        ),
    )
}

/// Train a `scaled(input_len, n_classes, filters)` network (dropout
/// 0.3, lr 0.01) on one fixed batch of `batch` rows for five warm-up
/// steps, then assert that a sixth step touches the heap not at all.
fn assert_steady_training_step_does_not_allocate(
    input_len: usize,
    n_classes: usize,
    filters: usize,
    batch: usize,
) {
    let mut cfg = CnnLstmConfig::scaled(input_len, n_classes, filters);
    cfg.dropout = 0.3;
    cfg.learning_rate = 0.01;
    let mut net = CnnLstm::new(cfg, 42);

    let mut rng = SeedRng::new(7);
    let data: Vec<f32> = (0..batch * input_len).map(|_| rng.standard_normal() as f32).collect();
    let labels: Vec<usize> = (0..batch).map(|i| i % n_classes).collect();
    let x = Tensor::new(&[batch, 1, input_len], data);

    // Warm-up: arena buffers, layer caches, and Adam moments all settle
    // within the first step; a few extra guard against lazy growth.
    for _ in 0..5 {
        net.train_batch(&x, &labels);
    }

    let (loss, (allocs, deallocs, reallocs)) = counted(|| net.train_batch(&x, &labels));

    assert!(loss.is_finite(), "training step produced non-finite loss");
    assert_eq!(
        (allocs, deallocs, reallocs),
        (0, 0, 0),
        "steady-state train_batch at input {input_len}, {filters} filters, batch {batch} \
         touched the heap: {allocs} allocs, {deallocs} deallocs, {reallocs} reallocs"
    );
}

#[test]
fn steady_state_training_step_does_not_allocate() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Paper-shaped smoke network: both convs, pooling, LSTM, dense head,
    // dropout, and the im2col gate all exercised.
    assert_steady_training_step_does_not_allocate(300, 4, 16, 8);
}

#[test]
fn steady_state_training_step_does_not_allocate_at_any_pool_size() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // The `cv_train` shape, whose first conv costs 25 344 multiply-adds
    // per sample, on a 4-thread pool: no kernel reads the pool size, so
    // the step stays on this thread and on its warm arena.
    bf_par::set_threads(Some(4));
    assert_steady_training_step_does_not_allocate(600, 20, 16, 32);
    bf_par::set_threads(None);
}

#[test]
fn steady_state_batched_predict_does_not_allocate() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());

    // Same smoke shape as the training case; a full serving micro-batch
    // of 8 rows, including zero-padded prefixes (the anytime rungs).
    let mut cfg = CnnLstmConfig::scaled(300, 4, 16);
    cfg.dropout = 0.3;
    cfg.learning_rate = 0.01;
    let mut net = CnnLstm::new(cfg, 42);

    let mut rng = SeedRng::new(11);
    let rows: Vec<Vec<f32>> = (0..8)
        .map(|i| {
            let len = if i % 2 == 0 { 300 } else { 75 + i * 20 };
            (0..len).map(|_| rng.standard_normal() as f32).collect()
        })
        .collect();

    // Warm-up settles the arena's batch, activation, and probability
    // tensors at this batch geometry.
    for _ in 0..5 {
        let p = net.predict_proba_batch(&rows);
        bf_nn::workspace::recycle(p);
    }

    let (p, (allocs, deallocs, reallocs)) = counted(|| net.predict_proba_batch(&rows));

    assert_eq!(p.shape(), &[8, 4]);
    assert!(p.data().iter().all(|v| v.is_finite()));
    bf_nn::workspace::recycle(p);
    assert_eq!(
        (allocs, deallocs, reallocs),
        (0, 0, 0),
        "steady-state predict_proba_batch touched the heap: \
         {allocs} allocs, {deallocs} deallocs, {reallocs} reallocs"
    );
}
