//! `bf_nn::read_params` reserves memory only for the payload it has
//! read. A checkpoint header is untrusted until its payload arrives: a
//! 24-byte file that declares one tensor of `u32::MAX` floats must end
//! in `CheckpointError::Io`, not in a 17 GB request.
//!
//! The allocator below refuses every request over 1 GiB, and Rust
//! aborts the process on a refused request instead of unwinding. That
//! is why these tests have a test binary of their own: a reader that
//! reserves by the header's word takes only this binary down.

use bf_nn::{read_params, write_params, CheckpointError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Largest single request a crafted header may cause.
const BOUND: usize = 1 << 20;

/// Requests above this are refused (null), on every thread.
const REFUSE_ABOVE: usize = 1 << 30;

/// Pass-through allocator that refuses huge requests and records the
/// largest request made by a thread whose `TRACKING` flag is set.
struct RefusingAlloc;

thread_local! {
    /// Set by [`largest_request`] on the measuring thread only.
    /// `const`-initialised with no destructor, so reading it from the
    /// allocator never allocates.
    static TRACKING: Cell<bool> = const { Cell::new(false) };
}

static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) -> bool {
    if TRACKING.try_with(Cell::get).unwrap_or(false) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
    size <= REFUSE_ABOVE
}

unsafe impl GlobalAlloc for RefusingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if !note(layout.size()) {
            return std::ptr::null_mut();
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if !note(layout.size()) {
            return std::ptr::null_mut();
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if !note(new_size) {
            return std::ptr::null_mut();
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: RefusingAlloc = RefusingAlloc;

/// Run `f` with tracking on for this thread; return its result and the
/// largest single request it made.
fn largest_request<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LARGEST.store(0, Ordering::SeqCst);
    TRACKING.with(|t| t.set(true));
    let out = f();
    TRACKING.with(|t| t.set(false));
    (out, LARGEST.load(Ordering::SeqCst))
}

/// A well-formed checkpoint of `params` with one header word replaced:
/// `patch` bytes written at `offset`.
fn crafted(params: &[Vec<f32>], offset: usize, patch: &[u8]) -> Vec<u8> {
    let mut file = Vec::new();
    write_params(&mut file, params).expect("in-memory write");
    file[offset..offset + patch.len()].copy_from_slice(patch);
    file
}

#[test]
fn a_huge_declared_tensor_reserves_only_what_arrives() {
    // Magic (8) + version (4) + tensor count (4) + one length (8): the
    // length now declares `u32::MAX` floats, followed by one real float.
    let file = crafted(&[vec![1.5]], 16, &u64::from(u32::MAX).to_le_bytes());
    assert_eq!(file.len(), 24 + 4);
    let (result, largest) = largest_request(|| read_params(&file[..]));
    assert!(matches!(result, Err(CheckpointError::Io(_))), "{result:?}");
    assert!(largest <= BOUND, "largest single request {largest} bytes (bound {BOUND})");
}

#[test]
fn a_huge_declared_tensor_count_reserves_only_what_arrives() {
    // A count at the plausibility limit, with no lengths behind it.
    let file = crafted(&[], 12, &1_000_000u32.to_le_bytes());
    assert_eq!(file.len(), 16);
    let (result, largest) = largest_request(|| read_params(&file[..]));
    assert!(matches!(result, Err(CheckpointError::Io(_))), "{result:?}");
    assert!(largest <= BOUND, "largest single request {largest} bytes (bound {BOUND})");
}

#[test]
fn a_well_formed_checkpoint_still_reads_back() {
    let params = vec![(0..200_000).map(|i| i as f32 * 0.5).collect::<Vec<f32>>(), vec![], vec![-2.0]];
    let mut file = Vec::new();
    write_params(&mut file, &params).expect("in-memory write");
    assert_eq!(read_params(&file[..]).expect("round trip"), params);
}
