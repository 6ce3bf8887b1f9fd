//! The zero-allocation contract for the simulation engine: once the
//! thread-local workspace is warm, a steady-state `Machine::run` performs
//! no heap allocations at all. The replay cursors that walk its output
//! allocate nothing either.
//!
//! A counting wrapper around the system allocator is installed as the
//! test binary's `#[global_allocator]`; after five warm-up runs (each
//! recycled back into the pool, which also registers every bf-obs
//! counter the run flushes) counting is switched on for one more run,
//! which must report zero allocations and zero deallocations. That holds
//! both for a run whose other cores and kernel log are never built (the
//! collection path) and for one that builds them on first read. Only the
//! measuring thread's calls count, so a sibling test's thread exiting
//! inside the window cannot fail the run.

use bf_sim::{workspace, Machine, MachineConfig, Workload, WorkloadEvent};
use bf_timer::Nanos;
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

/// A workload exercising every cascade arm: NIC coalescing, device IRQs,
/// wake IPIs, TLB broadcasts, cache loads (including a same-instant
/// pair), CPU bursts, keystrokes, and spurious interrupts.
fn busy_workload(duration: Nanos) -> Workload {
    let mut w = Workload::new(duration);
    for i in 0..300u64 {
        w.push_at(
            Nanos::from_millis(20) + Nanos::from_micros(i * 37),
            WorkloadEvent::NetworkPacket { bytes: 1_500 },
        );
    }
    for i in 0..80u64 {
        w.push_at(
            Nanos::from_millis(50) + Nanos::from_micros(i * 130),
            WorkloadEvent::VictimWake,
        );
        w.push_at(
            Nanos::from_millis(60) + Nanos::from_micros(i * 170),
            WorkloadEvent::CacheLoad { lines: 5_000 },
        );
    }
    w.push_at(Nanos::from_millis(70), WorkloadEvent::CacheLoad { lines: 10 });
    w.push_at(Nanos::from_millis(70), WorkloadEvent::CacheLoad { lines: 20 });
    for i in 0..20u64 {
        w.push_at(
            Nanos::from_millis(80) + Nanos::from_micros(i * 450),
            WorkloadEvent::TlbShootdown { pages: 64 },
        );
        w.push_at(
            Nanos::from_millis(90) + Nanos::from_micros(i * 777),
            WorkloadEvent::GraphicsFrame,
        );
        w.push_at(
            Nanos::from_millis(100) + Nanos::from_micros(i * 333),
            WorkloadEvent::DiskCompletion,
        );
        w.push_at(
            Nanos::from_millis(110) + Nanos::from_micros(i * 211),
            WorkloadEvent::KeyPress,
        );
        w.push_at(
            Nanos::from_millis(120) + Nanos::from_micros(i * 101),
            WorkloadEvent::SpuriousInterrupt,
        );
    }
    w.push_at(
        Nanos::from_millis(130),
        WorkloadEvent::CpuBurst {
            duration: Nanos::from_millis(4),
        },
    );
    w
}

#[test]
fn steady_state_run_does_not_allocate() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    workspace::clear_thread();

    let machine = Machine::new(MachineConfig::default());
    let workload = busy_workload(Nanos::from_millis(200));

    // Warm-up: every pool fills, every bf-obs counter the run flushes is
    // registered, and buffer capacities settle at this workload size.
    for _ in 0..5 {
        workspace::recycle(machine.run(&workload, 42));
    }

    let (out, (allocs, deallocs, reallocs)) = counted(|| machine.run(&workload, 42));
    assert!(!out.kernel_log().is_empty());
    workspace::recycle(out);
    assert_eq!(
        (allocs, deallocs, reallocs),
        (0, 0, 0),
        "steady-state Machine::run touched the heap: \
         {allocs} allocs, {deallocs} deallocs, {reallocs} reallocs"
    );
}

#[test]
fn replay_cursor_queries_do_not_allocate() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let out = Machine::new(MachineConfig::default()).run(&busy_workload(Nanos::from_millis(200)), 3);
    let timeline = out.attacker_timeline();

    // The sweep replay's query pattern: one timeline cursor and one LLC
    // cursor stepped across the whole run.
    let (steps, (allocs, deallocs, reallocs)) = counted(|| {
        let mut cursor = timeline.cursor();
        let mut loads = out.llc_loads.cursor();
        let mut now = cursor.next_runnable(Nanos::ZERO);
        let mut steps = 0usize;
        while now < out.duration {
            let cost = 150_000.0 + loads.value_at(now.as_nanos()) * 1e-3;
            let end = cursor.real_time_after_work(now, cost);
            assert!(cursor.work_between(now, end) > 0.0);
            now = end;
            steps += 1;
        }
        steps
    });
    assert!(steps > 1_000);
    assert_eq!(
        (allocs, deallocs, reallocs),
        (0, 0, 0),
        "cursor queries touched the heap: \
         {allocs} allocs, {deallocs} deallocs, {reallocs} reallocs"
    );
}

#[test]
fn steady_state_run_and_recycle_do_not_allocate() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    workspace::clear_thread();

    // The collection loop's real shape: run, replay over the attacker
    // core, recycle — the other cores and the kernel log are never built,
    // and the recycle itself must also stay off the heap.
    let machine = Machine::new(MachineConfig::default());
    let workload = busy_workload(Nanos::from_millis(200));
    for _ in 0..5 {
        workspace::recycle(machine.run(&workload, 7));
    }

    let (attacker_gaps, (allocs, deallocs, reallocs)) = counted(|| {
        let out = machine.run(&workload, 7);
        let gaps = out.attacker_timeline().gaps().len() + out.llc_loads.len();
        assert!(!out.is_materialized());
        workspace::recycle(out);
        gaps
    });
    assert!(attacker_gaps > 0);
    assert_eq!(
        (allocs, deallocs, reallocs),
        (0, 0, 0),
        "steady-state run+recycle touched the heap: \
         {allocs} allocs, {deallocs} deallocs, {reallocs} reallocs"
    );
}

#[test]
fn materialized_run_and_recycle_do_not_allocate() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    workspace::clear_thread();

    // The eBPF analyses' shape: every core and the kernel log are built
    // on first read, from the same pool, and recycled with the output.
    let machine = Machine::new(MachineConfig::default());
    let workload = busy_workload(Nanos::from_millis(200));
    for _ in 0..5 {
        let out = machine.run(&workload, 7);
        out.kernel_log();
        workspace::recycle(out);
    }

    let (total_gaps, (allocs, deallocs, reallocs)) = counted(|| {
        let out = machine.run(&workload, 7);
        let gaps: usize = out.cores().iter().map(|c| c.gaps().len()).sum();
        assert!(!out.kernel_log().is_empty());
        workspace::recycle(out);
        gaps
    });
    assert!(total_gaps > 0);
    assert_eq!(
        (allocs, deallocs, reallocs),
        (0, 0, 0),
        "steady-state materialized run+recycle touched the heap: \
         {allocs} allocs, {deallocs} deallocs, {reallocs} reallocs"
    );
}
