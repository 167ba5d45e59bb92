//! A counting global allocator for the tests that bound real heap traffic
//! (not just the library's own payload-allocation counter). A test binary
//! that includes this file installs it with
//! `#[global_allocator] static GLOBAL: Counting = Counting;`.
//!
//! It counts per rank, not per thread: the count lives with the rank's
//! instruction counters (`litempi_instr::note_heap_alloc`), which a rank
//! takes along when ranks share a worker thread as tasks.

use std::alloc::{GlobalAlloc, Layout, System};

/// Heap allocations (and reallocations) the running rank — or, outside a
/// job, this thread — has made so far.
pub fn allocs() -> u64 {
    litempi_instr::heap_alloc_count()
}

pub struct Counting;

// SAFETY: defers every request to `System` unchanged; the only addition is
// a thread-local counter with a const initialiser and no destructor, which
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        litempi_instr::note_heap_alloc();
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        litempi_instr::note_heap_alloc();
        // SAFETY: the caller's contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
