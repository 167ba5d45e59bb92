//! Size-classed payload buffer pool: the single-copy eager pipeline's
//! allocator.
//!
//! Before this pool existed, every eager send paid two heap allocations and
//! two full payload copies before the fabric saw the message: the MPI layer
//! copied the user buffer into a staging `Vec`, then the envelope encoder
//! copied that `Vec` into a freshly allocated wire buffer. The pool inverts
//! the pipeline: a sender *takes* a recycled wire buffer (a
//! [`PayloadBuf`]), writes the 1-byte protocol envelope, and copies (or
//! packs) the user data directly into it — exactly one copy, and in steady
//! state zero heap allocations, because the receiver *releases* consumed
//! buffers back to the freelists. This mirrors how production MPI
//! implementations recycle pre-registered eager buffers / packet headers
//! instead of calling `malloc` per message (the per-message allocation cost
//! the paper's instruction accounting makes visible).
//!
//! ## Recycling safety
//!
//! Storage is only ever reused when its `Arc` is uniquely owned:
//! [`PayloadPool::release`] quietly drops storage that still has readers
//! (an `iprobe` peek clone, an in-flight wildcard receive), and
//! [`PayloadBuf`] writes through `Arc::get_mut`, which the type system
//! guarantees cannot alias another in-flight message. One buffer may have
//! several readers — a collective fan-out injects `Arc` clones of a single
//! staged payload to every destination — and each of them releases: all
//! but the last find the storage shared and back off, the last finds it
//! unique and recycles it. Every channel releases what it consumes (pt2pt
//! receive completion, the collective channel's receive lease, schedule
//! vertices, rendezvous staging buffers included), which is what makes the
//! steady state allocation-free; but the pool never *requires* a release —
//! storage dropped without one is simply freed by its last `Arc`.

use bytes::{BufMut, Bytes};
use litempi_trace::EventKind;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Freelist size classes in bytes, ascending. A request takes the smallest
/// class that fits (so every recycled buffer's capacity is predictable),
/// and a released buffer files under the largest class its capacity covers.
pub const CLASS_SIZES: &[usize] = &[
    64,
    128,
    256,
    512,
    1024,
    2 * 1024,
    4 * 1024,
    8 * 1024,
    16 * 1024,
    32 * 1024,
    64 * 1024,
    128 * 1024,
    256 * 1024,
];

/// Maximum buffers retained per size class; beyond this, releases free.
const CLASS_DEPTH: usize = 64;

/// Smallest class index whose size is ≥ `cap`, or `None` when `cap`
/// exceeds every class (the request is served unpooled).
fn class_fitting(cap: usize) -> Option<usize> {
    CLASS_SIZES.iter().position(|&s| s >= cap)
}

/// Largest class index whose size is ≤ `capacity`, or `None` when the
/// buffer is smaller than the smallest class.
fn class_covered(capacity: usize) -> Option<usize> {
    match CLASS_SIZES.iter().position(|&s| s > capacity) {
        Some(0) => None,
        Some(i) => Some(i - 1),
        None => Some(CLASS_SIZES.len() - 1),
    }
}

/// A per-fabric pool of recycled wire buffers (see the module docs).
#[derive(Debug, Default)]
pub struct PayloadPool {
    classes: [Mutex<Vec<Arc<Vec<u8>>>>; CLASS_SIZES.len()],
    // Relaxed atomics: statistics, not synchronization. Exactly one of
    // hits/misses is bumped per take, keeping the hot path to a single
    // counter update.
    hits: AtomicU64,
    misses: AtomicU64,
    recycled: AtomicU64,
    dropped: AtomicU64,
    /// Hoisted from the profile's trace opt-in at fabric construction;
    /// when false, lease/recycle event sites cost one branch.
    traced: bool,
}

#[inline]
fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

impl PayloadPool {
    /// An empty pool.
    pub fn new() -> Self {
        PayloadPool::default()
    }

    /// An empty pool that records lease/recycle trace events when
    /// `traced` (the fabric passes its profile's trace opt-in).
    pub fn with_tracing(traced: bool) -> Self {
        PayloadPool {
            traced,
            ..PayloadPool::default()
        }
    }

    /// Take a writable buffer with room for at least `cap` bytes.
    ///
    /// Hits pop a recycled buffer from the matching freelist (no heap
    /// traffic); misses allocate fresh storage and charge the
    /// payload-allocation counter. Requests larger than the biggest size
    /// class are served unpooled.
    pub fn take(&self, cap: usize) -> PayloadBuf {
        let class = class_fitting(cap);
        if let Some(class) = class {
            if let Some(mut storage) = self.classes[class].lock().pop() {
                // Freelisted storage is uniquely owned: `release` files a
                // buffer only after an `Arc::get_mut` check, and nothing
                // can clone it while the pool holds it. That invariant
                // lets the hot path skip `get_mut`'s compare-exchange and
                // derive the write pointer directly.
                debug_assert!(Arc::get_mut(&mut storage).is_some());
                let vec = Arc::as_ptr(&storage) as *mut Vec<u8>;
                // SAFETY (deref): unique ownership per the invariant
                // above; see also `PayloadBuf::vec`.
                unsafe { (*vec).clear() };
                bump(&self.hits);
                if self.traced {
                    litempi_trace::emit(EventKind::PoolLease, class as u64, 1);
                }
                return PayloadBuf {
                    storage,
                    vec,
                    recycled: true,
                };
            }
        }
        bump(&self.misses);
        if self.traced {
            litempi_trace::emit(
                EventKind::PoolLease,
                class.map_or(u64::MAX, |c| c as u64),
                0,
            );
        }
        // Miss: one allocation for the buffer, one for the Arc control
        // block — both recovered on recycle, hence counted here only.
        litempi_instr::note_alloc(2);
        let cap = class.map_or(cap, |c| CLASS_SIZES[c]);
        let storage = Arc::new(Vec::with_capacity(cap));
        let vec = Arc::as_ptr(&storage) as *mut Vec<u8>;
        PayloadBuf {
            storage,
            vec,
            recycled: false,
        }
    }

    /// Offer a consumed payload's storage back to the pool.
    ///
    /// Recycles only when the storage is uniquely owned (no peek clone or
    /// zero-copy slice still reads it) and fits a size class with room;
    /// otherwise the storage is freed here.
    pub fn release(&self, payload: Bytes) {
        let mut storage = payload.into_storage();
        if Arc::get_mut(&mut storage).is_none() {
            return; // still shared: the other readers keep it alive
        }
        match class_covered(storage.capacity()) {
            Some(class) => {
                let mut list = self.classes[class].lock();
                if list.len() < CLASS_DEPTH {
                    list.push(storage);
                    bump(&self.recycled);
                    if self.traced {
                        litempi_trace::emit(EventKind::PoolRecycle, class as u64, 0);
                    }
                } else {
                    bump(&self.dropped);
                }
            }
            None => bump(&self.dropped),
        }
    }

    /// Counter snapshot (monotonic since fabric creation).
    pub fn stats(&self) -> PoolStats {
        let hits = self.hits.load(Ordering::Relaxed);
        PoolStats {
            takes: hits + self.misses.load(Ordering::Relaxed),
            hits,
            recycled: self.recycled.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }
}

/// Monotonic counters describing pool behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers requested via [`PayloadPool::take`].
    pub takes: u64,
    /// Takes served from a freelist (no allocation).
    pub hits: u64,
    /// Released buffers accepted back into a freelist.
    pub recycled: u64,
    /// Released buffers freed instead (over-depth or unclassifiable).
    pub dropped: u64,
}

impl PoolStats {
    /// Takes that had to allocate.
    pub fn misses(&self) -> u64 {
        self.takes - self.hits
    }

    /// Fraction of takes served without allocating, when any occurred.
    pub fn hit_rate(&self) -> Option<f64> {
        (self.takes > 0).then(|| self.hits as f64 / self.takes as f64)
    }
}

/// A uniquely owned, writable wire buffer leased from a [`PayloadPool`].
///
/// Write the envelope and payload through the [`BufMut`] methods, then
/// [`freeze`](Self::freeze) into an immutable [`Bytes`] for injection —
/// no copy at the boundary, the storage is simply republished read-only.
#[derive(Debug)]
pub struct PayloadBuf {
    storage: Arc<Vec<u8>>,
    /// Unique-access pointer into `storage`, cached at construction.
    ///
    /// SAFETY invariant: `storage` is this lease's *only* `Arc` reference
    /// (verified with `Arc::get_mut` when the pointer is created) and no
    /// clone can be made until [`freeze`](Self::freeze) consumes `self`,
    /// so dereferencing `vec` is exclusive for the lease's lifetime. The
    /// cache exists because `Arc::get_mut` costs a compare-exchange on the
    /// weak count — too hot for the per-message write path. The raw
    /// pointer also makes `PayloadBuf` `!Send`, which is correct: a lease
    /// is written and frozen on the issuing rank's thread.
    vec: *mut Vec<u8>,
    recycled: bool,
}

impl PayloadBuf {
    /// Did this lease reuse a recycled buffer (pool hit)?
    pub fn was_recycled(&self) -> bool {
        self.recycled
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        // SAFETY: see the `vec` field invariant.
        unsafe { (*self.vec).len() }
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Extend the buffer by `len` zeroed bytes and return the window just
    /// added, for engines that fill a region in place — the datatype
    /// gather writes the packed layout straight into this window, giving
    /// a single-copy pack with no per-segment call through [`BufMut`].
    /// (The zeroing is a contiguous memset of recycled capacity; the
    /// caller overwrites every byte.)
    pub fn put_zeroed(&mut self, len: usize) -> &mut [u8] {
        // SAFETY: see the `vec` field invariant.
        unsafe {
            let v = &mut *self.vec;
            let start = v.len();
            v.resize(start + len, 0);
            &mut v[start..]
        }
    }

    /// Publish the written bytes as an immutable shared [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from_storage(self.storage)
    }
}

impl BufMut for PayloadBuf {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        // SAFETY: see the `vec` field invariant.
        unsafe { (*self.vec).extend_from_slice(src) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_write_freeze_round_trip() {
        let pool = PayloadPool::new();
        let mut b = pool.take(8);
        b.put_u8(0);
        b.put_slice(b"payload");
        assert_eq!(b.len(), 8);
        let frozen = b.freeze();
        assert_eq!(&frozen[..], b"\0payload");
    }

    #[test]
    fn reuse_after_release_recycles() {
        let pool = PayloadPool::new();
        let first = pool.take(100);
        assert!(!first.was_recycled(), "empty pool must miss");
        let frozen = first.freeze();
        let storage_ptr = frozen.as_ref().as_ptr();
        pool.release(frozen);
        let second = pool.take(100);
        assert!(second.was_recycled(), "released buffer must be reused");
        let s = pool.stats();
        assert_eq!((s.takes, s.hits, s.recycled), (2, 1, 1));
        assert_eq!(s.hit_rate(), Some(0.5));
        // Same backing storage, now empty and writable again.
        let mut second = second;
        second.put_slice(b"x");
        assert_eq!(second.freeze().as_ref().as_ptr(), storage_ptr);
    }

    #[test]
    fn shared_storage_is_never_recycled() {
        let pool = PayloadPool::new();
        let mut b = pool.take(16);
        b.put_slice(b"abcd");
        let frozen = b.freeze();
        let peek = frozen.clone(); // e.g. an iprobe peek still reading
        pool.release(frozen);
        assert_eq!(pool.stats().recycled, 0);
        assert_eq!(&peek[..], b"abcd", "reader is unaffected");
        // Once the last reader drops, a later release may recycle.
        pool.release(peek);
        assert_eq!(pool.stats().recycled, 1);
    }

    #[test]
    fn no_aliasing_between_in_flight_buffers() {
        let pool = PayloadPool::new();
        let mut a = pool.take(32);
        let mut b = pool.take(32);
        a.put_slice(b"aaaa");
        b.put_slice(b"bbbb");
        let (fa, fb) = (a.freeze(), b.freeze());
        assert_ne!(fa.as_ref().as_ptr(), fb.as_ref().as_ptr());
        assert_eq!(&fa[..], b"aaaa");
        assert_eq!(&fb[..], b"bbbb");
    }

    #[test]
    fn size_classes_round_up_and_file_down() {
        assert_eq!(class_fitting(0), Some(0));
        assert_eq!(class_fitting(64), Some(0));
        assert_eq!(class_fitting(65), Some(1));
        assert_eq!(class_fitting(1025), Some(5));
        assert_eq!(class_fitting(256 * 1024), Some(CLASS_SIZES.len() - 1));
        assert_eq!(class_fitting(256 * 1024 + 1), None);
        assert_eq!(class_covered(63), None);
        assert_eq!(class_covered(64), Some(0));
        assert_eq!(class_covered(200), Some(1));
        assert_eq!(class_covered(usize::MAX), Some(CLASS_SIZES.len() - 1));
    }

    #[test]
    fn oversize_requests_are_served_unpooled() {
        let pool = PayloadPool::new();
        let huge = 1024 * 1024;
        let mut b = pool.take(huge);
        assert!(!b.was_recycled());
        b.put_slice(&vec![7u8; huge]);
        let frozen = b.freeze();
        assert_eq!(frozen.len(), huge);
        pool.release(frozen);
        // Capacity exceeds every class ceiling? No: class_covered files it
        // under the largest class, so it is retained for big messages.
        assert_eq!(pool.stats().recycled, 1);
    }

    #[test]
    fn class_depth_bounds_retention() {
        let pool = PayloadPool::new();
        let bufs: Vec<_> = (0..CLASS_DEPTH + 5).map(|_| pool.take(64)).collect();
        for b in bufs {
            pool.release(b.freeze());
        }
        let s = pool.stats();
        assert_eq!(s.recycled, CLASS_DEPTH as u64);
        assert_eq!(s.dropped, 5);
    }

    #[test]
    fn steady_state_take_release_never_allocates() {
        let pool = PayloadPool::new();
        // Warm one buffer, then loop take → write → release.
        pool.release(pool.take(1024).freeze());
        litempi_instr::reset();
        for i in 0..100u32 {
            let mut b = pool.take(1024);
            b.put_u32_le(i);
            b.put_slice(&[0u8; 1000]);
            pool.release(b.freeze());
        }
        assert_eq!(litempi_instr::alloc_count(), 0);
        assert_eq!(pool.stats().hit_rate(), Some(100.0 / 101.0));
    }
}
