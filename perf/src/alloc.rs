//! Counting global allocator for `hwsim.allocs_per_pkt`.
//!
//! The count is per thread (a const-initialised `thread_local!` `Cell`,
//! no lock, no lazy initialisation that could itself allocate), so a
//! window read on the benchmark thread sees only that thread's
//! allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator with a per-thread count of `alloc`/`realloc` calls.
pub struct Counting;

fn bump() {
    // `try_with`: the allocator may run while the thread's locals are
    // being torn down; those allocations are simply not counted.
    let _ = ALLOCS.try_with(|c| c.set(c.get().wrapping_add(1)));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only addition is a thread-local counter bump, which
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: same contract as `GlobalAlloc::alloc`, forwarded as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: same contract as `GlobalAlloc::alloc_zeroed`, forwarded as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: same contract as `GlobalAlloc::realloc`, forwarded as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as `GlobalAlloc::dealloc`, forwarded as is.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations made by the calling thread so far.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}
