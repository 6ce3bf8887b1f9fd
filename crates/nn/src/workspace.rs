//! Per-thread scratch arenas for the training hot path.
//!
//! Every forward/backward pass needs short-lived f32 buffers — im2col
//! matrices, layer outputs, gradient partials. Allocating them fresh
//! each step put the allocator, not the FPU, on the critical path. A
//! [`Workspace`] is a small free-list pool of `Vec<f32>` storage (plus
//! `Vec<usize>` shape vectors): [`Workspace::take`] hands out a zeroed
//! buffer, reusing pooled capacity when any fits, and
//! [`Workspace::give`] returns storage for the next taker. After one
//! warm-up step the pool satisfies every request and a steady-state
//! training step performs **zero heap allocations** (asserted by the
//! counting-allocator test in `tests/alloc_regression.rs`).
//!
//! ## Ownership rules
//!
//! - Buffers are plain `Vec<f32>` / [`Tensor`] values: taking one moves
//!   it out of the pool, so there is no aliasing and no lifetime tie to
//!   the workspace. Returning storage (`give` / [`recycle`]) is an
//!   *optimization, never a correctness requirement* — a tensor that
//!   escapes (e.g. logits handed to a caller) is simply dropped and the
//!   pool re-warms on the next step.
//! - The pool is **thread-local** (one arena per thread, reached through
//!   the free functions below), so `bf-par` workers (one cross-validation
//!   fold each, say) get private arenas and never share buffers. Every
//!   kernel runs on the thread that calls it, so a training thread's
//!   arena serves its whole step and stays warm at any pool size.
//! - `take` always returns a buffer of *exactly* the requested length,
//!   zero-filled — callers never see stale data.
//!
//! ## Determinism
//!
//! Pooling cannot change results: buffers are zeroed on `take`, so a
//! recycled buffer is indistinguishable from a fresh `vec![0.0; len]`.
//! The determinism contract lives in the kernels (`tensor.rs`), not
//! here.

use crate::tensor::Tensor;
use std::cell::RefCell;

/// Cap on pooled buffers per arena. Bounds worst-case retention when a
/// caller churns through many distinct sizes; a training step needs far
/// fewer live buffers than this.
const MAX_POOLED: usize = 64;

/// Cumulative take statistics, for diagnostics and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Takes satisfied from the pool.
    pub hits: u64,
    /// Takes that had to allocate.
    pub misses: u64,
}

/// A size-classed free-list pool of scratch storage.
#[derive(Debug, Default)]
pub struct Workspace {
    bufs: Vec<Vec<f32>>,
    shapes: Vec<Vec<usize>>,
    stats: WorkspaceStats,
}

impl Workspace {
    /// An empty workspace.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// A zeroed buffer of exactly `len` elements, reusing the pooled
    /// buffer with the smallest sufficient capacity (best fit) when one
    /// exists.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        if len == 0 {
            return Vec::new();
        }
        let mut best: Option<usize> = None;
        for (i, b) in self.bufs.iter().enumerate() {
            let cap = b.capacity();
            if cap >= len && best.is_none_or(|j: usize| cap < self.bufs[j].capacity()) {
                best = Some(i);
            }
        }
        match best {
            Some(i) => {
                self.stats.hits += 1;
                let mut b = self.bufs.swap_remove(i);
                b.clear();
                b.resize(len, 0.0);
                b
            }
            None => {
                self.stats.misses += 1;
                vec![0.0; len] // alloc-ok: pool miss (cold)
            }
        }
    }

    /// Return a buffer's storage to the pool (contents are discarded).
    pub fn give(&mut self, mut buf: Vec<f32>) {
        if buf.capacity() == 0 || self.bufs.len() >= MAX_POOLED {
            return;
        }
        buf.clear();
        self.bufs.push(buf);
    }

    /// A zeroed tensor of the given shape with pooled storage (both the
    /// data and the shape vector come from the pool).
    pub fn tensor(&mut self, shape: &[usize]) -> Tensor {
        let len = shape.iter().product();
        let mut sv = self.take_shape();
        sv.extend_from_slice(shape);
        Tensor::from_raw(sv, self.take(len))
    }

    /// Dismantle a tensor and pool its storage.
    pub fn recycle(&mut self, t: Tensor) {
        let (shape, data) = t.into_raw();
        self.give_shape(shape);
        self.give(data);
    }

    fn take_shape(&mut self) -> Vec<usize> {
        match self.shapes.pop() {
            Some(mut s) => {
                s.clear();
                s
            }
            None => Vec::with_capacity(4), // alloc-ok: pool miss (cold)
        }
    }

    fn give_shape(&mut self, mut shape: Vec<usize>) {
        if shape.capacity() == 0 || self.shapes.len() >= MAX_POOLED {
            return;
        }
        shape.clear();
        self.shapes.push(shape);
    }

    /// Cumulative hit/miss counters.
    pub fn stats(&self) -> WorkspaceStats {
        self.stats
    }

    /// Drop all pooled storage (counters are kept).
    pub fn clear(&mut self) {
        self.bufs.clear();
        self.shapes.clear();
    }
}

thread_local! {
    static WS: RefCell<Workspace> = RefCell::new(Workspace::new());
}

/// [`Workspace::take`] on this thread's arena.
pub fn take(len: usize) -> Vec<f32> {
    WS.with(|w| w.borrow_mut().take(len))
}

/// [`Workspace::give`] on this thread's arena.
pub fn give(buf: Vec<f32>) {
    WS.with(|w| w.borrow_mut().give(buf));
}

/// [`Workspace::tensor`] on this thread's arena.
pub fn tensor(shape: &[usize]) -> Tensor {
    WS.with(|w| w.borrow_mut().tensor(shape))
}

/// A tensor with `src`'s shape and contents, backed by pooled storage.
pub fn tensor_copy_of(src: &Tensor) -> Tensor {
    let mut t = tensor(src.shape());
    t.data_mut().copy_from_slice(src.data());
    t
}

/// [`Workspace::recycle`] on this thread's arena.
pub fn recycle(t: Tensor) {
    WS.with(|w| w.borrow_mut().recycle(t));
}

/// This thread's arena counters.
pub fn stats() -> WorkspaceStats {
    WS.with(|w| w.borrow().stats())
}

/// Drop this thread's pooled storage (bench harness: emulates the
/// pre-workspace allocate-every-step behaviour).
pub fn clear_thread() {
    WS.with(|w| w.borrow_mut().clear());
}

/// A pooled scratch buffer that returns its storage to the owning
/// thread's arena on drop — the RAII form of [`take`]/[`give`], used
/// for a kernel's scratch and reused slabs, which go back to the arena
/// when the kernel returns.
#[derive(Debug)]
pub struct ScratchBuf {
    buf: Vec<f32>,
}

impl ScratchBuf {
    /// A zeroed pooled buffer of exactly `len` elements.
    pub fn of_len(len: usize) -> Self {
        ScratchBuf { buf: take(len) }
    }
}

impl Drop for ScratchBuf {
    fn drop(&mut self) {
        give(std::mem::take(&mut self.buf));
    }
}

impl std::ops::Deref for ScratchBuf {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        &self.buf
    }
}

impl std::ops::DerefMut for ScratchBuf {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_zeroed_exact_length() {
        let mut ws = Workspace::new();
        let mut b = ws.take(10);
        b.iter_mut().for_each(|v| *v = 7.0);
        ws.give(b);
        let b = ws.take(6);
        assert_eq!(b.len(), 6);
        assert!(b.iter().all(|&v| v == 0.0));
        assert_eq!(ws.stats(), WorkspaceStats { hits: 1, misses: 1 });
    }

    #[test]
    fn take_prefers_best_fit() {
        let mut ws = Workspace::new();
        let big = ws.take(1000);
        let small = ws.take(8);
        ws.give(big);
        ws.give(small);
        // A request for 5 must reuse the 8-capacity buffer, keeping the
        // large one free for large requests.
        let b = ws.take(5);
        assert!(b.capacity() < 1000, "best fit picked cap {}", b.capacity());
        let b2 = ws.take(900);
        assert!(b2.capacity() >= 1000);
        assert_eq!(ws.stats().misses, 2); // only the two cold takes
    }

    #[test]
    fn zero_len_takes_never_touch_the_pool() {
        let mut ws = Workspace::new();
        ws.give(ws_buf(64));
        let b = ws.take(0);
        assert_eq!(b.capacity(), 0);
        assert_eq!(ws.stats(), WorkspaceStats::default());
    }

    fn ws_buf(len: usize) -> Vec<f32> {
        vec![0.0; len]
    }

    #[test]
    fn pool_is_bounded() {
        let mut ws = Workspace::new();
        for _ in 0..(MAX_POOLED + 10) {
            ws.give(ws_buf(4));
        }
        assert!(ws.bufs.len() <= MAX_POOLED);
    }

    #[test]
    fn tensor_roundtrip_reuses_storage() {
        let mut ws = Workspace::new();
        let t = ws.tensor(&[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert!(t.data().iter().all(|&v| v == 0.0));
        ws.recycle(t);
        let t2 = ws.tensor(&[3, 2]);
        assert_eq!(t2.shape(), &[3, 2]);
        assert_eq!(ws.stats().hits, 1);
        assert_eq!(ws.stats().misses, 1);
    }

    #[test]
    fn thread_local_helpers_warm_up() {
        // Not shared with other tests' threads: each test thread has its
        // own arena.
        clear_thread();
        let t = tensor(&[4, 4]);
        recycle(t);
        let before = stats();
        let t = tensor(&[4, 4]);
        recycle(t);
        let after = stats();
        assert_eq!(after.misses, before.misses, "warm take must not miss");
        assert!(after.hits > before.hits);
    }

    #[test]
    fn scratch_buf_returns_storage_on_drop() {
        clear_thread();
        {
            let _s = ScratchBuf::of_len(32);
        }
        let before = stats();
        {
            let s = ScratchBuf::of_len(32);
            assert_eq!(s.len(), 32);
        }
        assert_eq!(stats().misses, before.misses);
        assert_eq!(stats().hits, before.hits + 1);
    }

    #[test]
    fn tensor_copy_of_matches_source() {
        clear_thread();
        let src = Tensor::new(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let cp = tensor_copy_of(&src);
        assert_eq!(cp.shape(), src.shape());
        assert_eq!(cp.data(), src.data());
    }
}
