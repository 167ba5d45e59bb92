//! A counting global allocator for the tests that bound real heap traffic
//! (not just the library's own payload-allocation counter). A test binary
//! that includes this file installs it with
//! `#[global_allocator] static GLOBAL: Counting = Counting;`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Heap allocations made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Heap allocations (and reallocations) this thread has made so far.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

pub struct Counting;

// SAFETY: defers every request to `System` unchanged; the only addition is
// a thread-local counter with a const initialiser and no destructor, which
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
