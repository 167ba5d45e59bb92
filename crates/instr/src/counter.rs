//! Per-rank instruction counters.
//!
//! The counters live in thread-local storage, and belong to the rank that
//! runs on the thread: a rank that runs as a user-level task on a shared
//! worker thread takes its counters with it when it switches out
//! ([`swap_rank_counters`]). So a counter corresponds to a per-core SDE
//! trace in the paper's methodology. It is an array of `Cell<u64>`
//! indexed by [`Category`] — a plain unsynchronized increment, cheap enough
//! to leave enabled in release builds (mirroring how SDE measures an
//! uninstrumented binary from the outside).

use crate::category::Category;
use crate::report::Report;
use std::cell::Cell;

thread_local! {
    static COUNTS: [Cell<u64>; Category::COUNT] =
        const { [const { Cell::new(0) }; Category::COUNT] };

    /// Heap allocations performed to build wire payloads (the eager /
    /// rendezvous payload pipeline), on this thread. A separate dimension
    /// from the instruction categories: the paper attributes instructions
    /// to MPI-standard requirements, while this counter exists to verify
    /// the pooled payload pipeline's zero-allocation steady state (and to
    /// let `msgrate` report allocs/op alongside instructions/op).
    static PAYLOAD_ALLOCS: Cell<u64> = const { Cell::new(0) };

    /// Every heap allocation of this rank, fed only by a counting global
    /// allocator (tests that bound real heap traffic install one).
    static HEAP_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// One rank's counters while another rank's are in the thread-locals:
/// what [`swap_rank_counters`] exchanges. `Default` is a fresh rank.
#[derive(Debug, Clone, Default)]
pub struct RankCounters {
    counts: [u64; Category::COUNT],
    payload_allocs: u64,
    heap_allocs: u64,
}

/// Exchange the calling thread's counters with `saved`: the running rank's
/// counters go into `saved`, and the ones in `saved` become the thread's.
/// A task runtime calls it when it switches ranks on one thread.
pub fn swap_rank_counters(saved: &mut RankCounters) {
    COUNTS.with(|c| {
        for (cell, v) in c.iter().zip(saved.counts.iter_mut()) {
            *v = cell.replace(*v);
        }
    });
    saved.payload_allocs = PAYLOAD_ALLOCS.with(|c| c.replace(saved.payload_allocs));
    saved.heap_allocs = HEAP_ALLOCS.with(|c| c.replace(saved.heap_allocs));
}

/// Record one heap allocation of the running rank. For a counting
/// `#[global_allocator]`: it touches one thread-local with a const
/// initialiser and no destructor, so it never allocates.
#[inline]
pub fn note_heap_alloc() {
    HEAP_ALLOCS.with(|c| c.set(c.get() + 1));
}

/// Heap allocations [`note_heap_alloc`] recorded for the running rank.
#[inline]
pub fn heap_alloc_count() -> u64 {
    HEAP_ALLOCS.with(Cell::get)
}

/// Charge `n` instructions to `category` on the current thread (rank).
#[inline]
pub fn charge(category: Category, n: u64) {
    COUNTS.with(|c| {
        let cell = &c[category.index()];
        cell.set(cell.get() + n);
    });
}

/// Record `n` heap allocations made while building a wire payload on the
/// current thread (rank). Charged by the payload pipeline's slow paths:
/// pool misses and point-to-point rendezvous staging buffers. The pooled
/// fast path charges nothing in steady state.
#[inline]
pub fn note_alloc(n: u64) {
    PAYLOAD_ALLOCS.with(|c| c.set(c.get() + n));
}

/// Payload-pipeline allocations recorded on the current thread since the
/// last [`reset`].
#[inline]
pub fn alloc_count() -> u64 {
    PAYLOAD_ALLOCS.with(|c| c.get())
}

/// Reset all counters on the current thread.
pub fn reset() {
    COUNTS.with(|c| {
        for cell in c {
            cell.set(0);
        }
    });
    PAYLOAD_ALLOCS.with(|c| c.set(0));
}

/// Snapshot the current thread's counters.
pub fn snapshot() -> Report {
    COUNTS.with(|c| {
        let mut counts = [0u64; Category::COUNT];
        for (dst, cell) in counts.iter_mut().zip(c.iter()) {
            *dst = cell.get();
        }
        Report::from_counts(counts)
    })
}

/// Begin a measurement probe on the current thread. The probe's
/// [`Probe::finish`] returns the instructions charged since creation,
/// analogous to bracketing a code region with SDE start/stop markers.
pub fn probe() -> Probe {
    Probe {
        start: snapshot(),
        start_allocs: alloc_count(),
    }
}

/// RAII-style measurement region (see [`probe`]).
#[derive(Debug, Clone)]
pub struct Probe {
    start: Report,
    start_allocs: u64,
}

impl Probe {
    /// Instructions charged since the probe was created.
    pub fn finish(&self) -> Report {
        snapshot().diff(&self.start)
    }

    /// Payload-pipeline heap allocations recorded since the probe was
    /// created (see [`note_alloc`]).
    pub fn allocs(&self) -> u64 {
        alloc_count().saturating_sub(self.start_allocs)
    }
}

/// Run `f` and return its result together with the instructions it charged.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Report) {
    let p = probe();
    let out = f();
    (out, p.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_accumulates() {
        reset();
        charge(Category::ErrorChecking, 10);
        charge(Category::ErrorChecking, 5);
        charge(Category::MatchBits, 2);
        let r = snapshot();
        assert_eq!(r.get(Category::ErrorChecking), 15);
        assert_eq!(r.get(Category::MatchBits), 2);
        assert_eq!(r.total(), 17);
    }

    #[test]
    fn probe_measures_only_its_region() {
        reset();
        charge(Category::NetmodIssue, 100);
        let p = probe();
        charge(Category::NetmodIssue, 23);
        let r = p.finish();
        assert_eq!(r.get(Category::NetmodIssue), 23);
        assert_eq!(r.total(), 23);
    }

    #[test]
    fn reset_clears_everything() {
        charge(Category::Progress, 7);
        reset();
        assert_eq!(snapshot().total(), 0);
    }

    #[test]
    fn counters_are_thread_local() {
        reset();
        charge(Category::FunctionCall, 9);
        let handle = std::thread::spawn(|| {
            // Fresh thread starts at zero.
            assert_eq!(snapshot().total(), 0);
            charge(Category::FunctionCall, 1);
            snapshot().total()
        });
        assert_eq!(handle.join().unwrap(), 1);
        // Our own count is unaffected by the other thread.
        assert_eq!(snapshot().get(Category::FunctionCall), 9);
    }

    #[test]
    fn alloc_counter_is_a_separate_dimension() {
        reset();
        note_alloc(3);
        // Allocations never contaminate the instruction categories the
        // paper-calibrated tests assert exactly.
        assert_eq!(snapshot().total(), 0);
        assert_eq!(alloc_count(), 3);
        let p = probe();
        note_alloc(2);
        assert_eq!(p.allocs(), 2);
        assert_eq!(p.finish().total(), 0);
        reset();
        assert_eq!(alloc_count(), 0);
    }

    #[test]
    fn a_swap_carries_every_counter_and_swaps_back() {
        reset();
        charge(Category::Progress, 4);
        note_alloc(2);
        note_heap_alloc();
        let mut other = RankCounters::default();
        swap_rank_counters(&mut other);
        // A fresh rank runs: nothing of the first one shows.
        assert_eq!(
            (snapshot().total(), alloc_count(), heap_alloc_count()),
            (0, 0, 0)
        );
        charge(Category::Progress, 1);
        swap_rank_counters(&mut other);
        assert_eq!(snapshot().get(Category::Progress), 4);
        assert_eq!((alloc_count(), heap_alloc_count()), (2, 1));
        assert_eq!(other.counts[Category::Progress.index()], 1);
    }

    #[test]
    fn measure_returns_value_and_report() {
        reset();
        let (v, r) = measure(|| {
            charge(Category::RequestManagement, 10);
            42
        });
        assert_eq!(v, 42);
        assert_eq!(r.total(), 10);
    }
}
