//! Thread-local buffer pooling for the simulation engine.
//!
//! A collection run simulates thousands of machine runs back to back, and
//! every [`Machine::run`](crate::Machine::run) needs the same family of
//! scratch and output buffers: per-core gap lists, kernel-event vectors,
//! step-series point storage, activity buckets, the cascade's pending
//! heap, the deferred-arrival buffer. Allocating them per run puts the
//! allocator on the hot path and
//! fragments the heap across a fleet-scale sweep; this module keeps the
//! buffers in thread-local free lists so a steady-state run performs no
//! heap allocation at all (enforced by the `alloc_regression` test).
//!
//! # Ownership rules
//!
//! Returning storage to the pool is an *optimization*, never a
//! correctness requirement. Dropping a buffer (or a whole [`SimOutput`])
//! instead of recycling it merely costs a future pool miss. Buffers
//! handed out by `take_*` are always empty (`len == 0`); `give_*` clears
//! before pooling and silently drops zero-capacity vectors, which carry
//! nothing worth keeping.
//!
//! The pool is thread-local, so `bf-par` workers each build a private
//! arena and never contend on a lock. Call [`clear_thread`] to release a
//! worker's arena when a phase finishes.
//!
//! # Determinism
//!
//! Pooling never affects simulation output: buffers are cleared on
//! `give`, and the engine writes every element it later reads. Pool hits
//! and misses change only where the backing memory comes from.

use crate::engine::{DeferredArrival, Materialized, PendingArrival};
use crate::kernel::KernelEvent;
use crate::timeline::{CoreTimeline, Gap};
use crate::SimOutput;
use bf_timer::Nanos;
use std::cell::RefCell;

/// Max buffers retained per free list; excess returns to the allocator.
const MAX_POOLED: usize = 64;

/// Pool hit/miss counters for one thread's workspace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// `take_*` calls served from the pool.
    pub hits: u64,
    /// `take_*` calls that fell through to a fresh (empty) vector.
    pub misses: u64,
}

#[derive(Default)]
struct Workspace {
    points: Vec<Vec<(u64, f64)>>,
    f64s: Vec<Vec<f64>>,
    nanos: Vec<Vec<Nanos>>,
    usizes: Vec<Vec<usize>>,
    gaps: Vec<Vec<Gap>>,
    events: Vec<Vec<KernelEvent>>,
    pending: Vec<Vec<PendingArrival>>,
    deferred: Vec<Vec<DeferredArrival>>,
    indices: Vec<Vec<(u64, u32)>>,
    gap_lists: Vec<Vec<Vec<Gap>>>,
    event_lists: Vec<Vec<Vec<KernelEvent>>>,
    timelines: Vec<Vec<CoreTimeline>>,
    stats: WorkspaceStats,
}

thread_local! {
    static WS: RefCell<Workspace> = RefCell::new(Workspace::default());
}

macro_rules! pool_accessors {
    ($take:ident, $give:ident, $field:ident, $elem:ty) => {
        pub(crate) fn $take() -> Vec<$elem> {
            WS.with(|ws| {
                let mut ws = ws.borrow_mut();
                match ws.$field.pop() {
                    Some(buf) => {
                        ws.stats.hits += 1;
                        buf
                    }
                    None => {
                        ws.stats.misses += 1;
                        Vec::new()
                    }
                }
            })
        }

        pub(crate) fn $give(mut buf: Vec<$elem>) {
            if buf.capacity() == 0 {
                return;
            }
            buf.clear();
            WS.with(|ws| {
                let mut ws = ws.borrow_mut();
                if ws.$field.len() < MAX_POOLED {
                    ws.$field.push(buf);
                }
            });
        }
    };
}

pool_accessors!(take_points, give_points, points, (u64, f64));
pool_accessors!(take_f64s, give_f64s, f64s, f64);
pool_accessors!(take_nanos, give_nanos, nanos, Nanos);
pool_accessors!(take_usizes, give_usizes, usizes, usize);
pool_accessors!(take_gaps, give_gaps, gaps, Gap);
pool_accessors!(take_events, give_events, events, KernelEvent);
pool_accessors!(take_pending, give_pending, pending, PendingArrival);
pool_accessors!(take_deferred, give_deferred, deferred, DeferredArrival);
pool_accessors!(take_index, give_index, indices, (u64, u32));
pool_accessors!(take_gap_list, give_gap_list_raw, gap_lists, Vec<Gap>);
pool_accessors!(take_event_list, give_event_list_raw, event_lists, Vec<KernelEvent>);
pool_accessors!(take_timelines, give_timelines, timelines, CoreTimeline);

/// Return a per-core gap container: inner vectors drain to the gap pool,
/// then the outer container is pooled.
pub(crate) fn give_gap_list(mut list: Vec<Vec<Gap>>) {
    for inner in list.drain(..) {
        give_gaps(inner);
    }
    give_gap_list_raw(list);
}

/// Return a per-core kernel-event container: inner vectors drain to the
/// event pool, then the outer container is pooled.
pub(crate) fn give_event_list(mut list: Vec<Vec<KernelEvent>>) {
    for inner in list.drain(..) {
        give_events(inner);
    }
    give_event_list_raw(list);
}

/// Dismantle a finished [`SimOutput`] and return its backing storage to
/// this thread's pool, so the next [`Machine::run`](crate::Machine::run)
/// on this thread allocates nothing. The deferred arrivals and, when the
/// output was materialized, every core and the kernel log go back too.
///
/// Call this once the output (and anything borrowing from it) is no
/// longer needed — e.g. after the attacker has replayed over the trace.
pub fn recycle(out: SimOutput) {
    let SimOutput {
        llc_loads,
        attacker,
        attacker_events,
        deferred,
        full,
        ..
    } = out;
    let (_, llc_points) = llc_loads.into_parts();
    give_points(llc_points);
    give_timeline(attacker);
    give_events(attacker_events);
    give_deferred(deferred);
    if let Some(Materialized { mut cores, kernel_log }) = full.into_inner() {
        give_events(kernel_log.into_events());
        for timeline in cores.drain(..) {
            give_timeline(timeline);
        }
        give_timelines(cores);
    }
}

fn give_timeline(timeline: CoreTimeline) {
    let (_, gaps, freq) = timeline.into_parts();
    give_gaps(gaps);
    let (_, freq_points) = freq.into_parts();
    give_points(freq_points);
}

/// This thread's pool hit/miss counters.
pub fn stats() -> WorkspaceStats {
    WS.with(|ws| ws.borrow().stats)
}

/// Release every pooled buffer on this thread back to the allocator.
/// Stats are preserved.
pub fn clear_thread() {
    WS.with(|ws| {
        let mut ws = ws.borrow_mut();
        let stats = ws.stats;
        *ws = Workspace::default();
        ws.stats = stats;
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_give_roundtrip_reuses_storage() {
        clear_thread();
        let mut buf = take_gaps();
        buf.reserve(32);
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        give_gaps(buf);
        let again = take_gaps();
        assert_eq!(again.capacity(), cap);
        assert_eq!(again.as_ptr(), ptr);
        assert!(again.is_empty());
        give_gaps(again);
    }

    #[test]
    fn give_drops_zero_capacity_buffers() {
        clear_thread();
        give_points(Vec::new());
        let before = stats();
        let buf = take_points();
        assert_eq!(buf.capacity(), 0, "empty vec must not have been pooled");
        assert_eq!(stats().misses, before.misses + 1);
    }

    #[test]
    fn nested_lists_drain_to_inner_pools() {
        clear_thread();
        let mut list = take_gap_list();
        for _ in 0..3 {
            let mut inner = take_gaps();
            inner.reserve(8);
            list.push(inner);
        }
        give_gap_list(list);
        // All three inner vectors are individually poolable again.
        let a = take_gaps();
        let b = take_gaps();
        let c = take_gaps();
        assert!(a.capacity() >= 8 && b.capacity() >= 8 && c.capacity() >= 8);
        give_gaps(a);
        give_gaps(b);
        give_gaps(c);
    }

    #[test]
    fn recycle_feeds_subsequent_runs() {
        use crate::{Machine, MachineConfig, Workload, WorkloadEvent};

        clear_thread();
        let machine = Machine::new(MachineConfig::default());
        let mut w = Workload::new(Nanos::from_millis(50));
        w.push_at(Nanos::from_millis(10), WorkloadEvent::NetworkPacket { bytes: 1500 });
        let cold = machine.run(&w, 7);
        let expected = cold.kernel_log().clone();
        // Two recycled runs fill every free list (scratch buffers that
        // start at zero capacity are dropped on the first give).
        recycle(cold);
        recycle(machine.run(&w, 7));
        let misses_before = stats().misses;
        let warm = machine.run(&w, 7);
        let stats_after = stats();
        assert!(
            stats_after.hits > 0,
            "recycled storage should produce pool hits: {stats_after:?}"
        );
        assert_eq!(
            stats_after.misses, misses_before,
            "warm run should not miss the pool"
        );
        // Pooling must not perturb the output.
        assert_eq!(warm.kernel_log().events(), expected.events());
        recycle(warm);
    }

    #[test]
    fn clear_thread_releases_buffers() {
        clear_thread();
        let mut buf = take_f64s();
        buf.reserve(16);
        give_f64s(buf);
        clear_thread();
        let fresh = take_f64s();
        assert_eq!(fresh.capacity(), 0);
    }
}
