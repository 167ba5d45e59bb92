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
//! (an `iprobe` peek clone, an in-flight wildcard receive). The check is
//! an Acquire read of the strong count, not `Arc::get_mut`'s
//! compare-exchange on the weak count: pool storage never has a `Weak`
//! (nothing downgrades a payload's `Arc`; a `debug_assert` holds that),
//! so a strong count of one means no other handle exists or can appear,
//! and the Acquire orders every former reader's last access before the
//! buffer is written again. [`PayloadBuf`] writes through a pointer taken
//! from such a unique `Arc`, which therefore cannot alias another
//! in-flight message. One buffer may have several readers — a collective
//! fan-out injects `Arc` clones of a single staged payload to every
//! destination — and each of them releases: all but the last find the
//! storage shared and back off, the last finds it unique and recycles it.
//! Every channel releases what it consumes (pt2pt receive completion, the
//! collective channel's receive lease, schedule vertices, rendezvous
//! staging buffers included), which is what makes the steady state
//! allocation-free; but the pool never *requires* a release — storage
//! dropped without one is simply freed by its last `Arc`.
//!
//! ## The thread cache
//!
//! In front of each size class's shared list (a lock and a `Vec`) every
//! thread keeps a cache of its own: one entry, for the pool it used last.
//! The library builds one pool per fabric (`Fabric::new`) and a worker
//! thread serves one job, so a thread meets one live pool at a time; a
//! take or release for another pool replaces the entry, and the old one
//! hands its buffers to its own pool's shared lists, where that pool's
//! next take on this thread finds them. A take pops the cache first and
//! falls back to the shared list,
//! so storage released on another thread is still reused; a release
//! keeps the buffer in the cache while there is room and files it on the
//! shared list otherwise. The cache follows the rule
//! of the receive-slot lists ([`PeakList`]): a thread keeps at most as
//! many buffers of a class as it once had taken at the same time, capped
//! so that its cache and the shared list together hold at most
//! [`CLASS_DEPTH`] — the retention a pool had before it had caches. A
//! thread with none of its own takes out is returning buffers that other
//! threads took: its release goes to the shared list and takes the cache
//! along, so a thread that receives what another sends never holds back
//! buffers that the sender needs for its next window. On a thread whose
//! ranks send and receive (every rank of a job on one worker), a message's
//! take and release touch only that thread's cache: no lock and no
//! lock-prefixed instruction.
//!
//! An entry names its pool by a `Weak` to the pool's shared state, so a
//! later pool cannot take over a dropped pool's address while an entry
//! still names it, and storage cached for one pool is never served to
//! another (per-fabric [`PoolStats`] stay exact). Storage cached for a
//! pool that is gone is freed: on the dropping thread at once, on other
//! threads when another pool replaces their entry or they exit. An entry
//! that is dropped while its pool lives (its thread exits, or another
//! pool replaces it) hands its buffers to the shared lists.
//!
//! The counters are per-thread tallies too, one per entry, written only by
//! their thread (a load and a store) and summed by
//! [`PayloadPool::stats`]: exact whenever their writers are quiescent.

use bytes::{BufMut, Bytes};
use litempi_trace::EventKind;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

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

/// Maximum buffers of one class a thread sees retained — its cache and the
/// shared list together; beyond this, releases free.
const CLASS_DEPTH: usize = 64;

const N_CLASSES: usize = CLASS_SIZES.len();

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

/// Released items a thread keeps for its own next leases: at most as many
/// as it once had leased at the same time (`peak`), so the list needs no
/// size limit of its own. A thread whose window of leases rises and drains
/// to the same depth again finds every item it needs here, and items
/// released by a thread that did not lease them (a buffer or receive
/// handed to another thread) go elsewhere. The payload pool's thread cache
/// and the receive-slot lists (`packet.rs`) both follow this rule.
#[derive(Debug)]
pub(crate) struct PeakList<T> {
    items: Vec<T>,
    /// Leases begun on this thread and not yet ended on it.
    leased: usize,
    /// The most `leased` has been.
    peak: usize,
}

impl<T> PeakList<T> {
    pub(crate) const fn new() -> Self {
        PeakList {
            items: Vec::new(),
            leased: 0,
            peak: 0,
        }
    }

    /// A lease begins: count it, and hand out a kept item if there is one.
    #[inline]
    pub(crate) fn lease(&mut self) -> Option<T> {
        self.leased += 1;
        self.peak = self.peak.max(self.leased);
        self.items.pop()
    }

    /// A lease ends: count it, and keep `item` (what it releases, if that
    /// can be reused) while fewer than `peak`, and fewer than `cap`, are
    /// kept. What is not kept is handed back.
    #[inline]
    pub(crate) fn release(&mut self, item: Option<T>, cap: usize) -> Option<T> {
        self.leased = self.leased.saturating_sub(1);
        match item {
            Some(item) if self.items.len() < self.peak.min(cap) => {
                self.items.push(item);
                None
            }
            other => other,
        }
    }

    /// Items kept.
    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }
}

/// One size class's shared list.
#[derive(Debug, Default)]
struct Class {
    list: Mutex<Vec<Arc<Vec<u8>>>>,
    /// `list.len()`, stored under the lock, read without it by a thread
    /// cache bounding its own retention. It publishes nothing, so Relaxed.
    len: AtomicUsize,
}

impl Class {
    fn pop(&self) -> Option<Arc<Vec<u8>>> {
        let mut list = self.list.lock();
        let storage = list.pop();
        self.len.store(list.len(), Ordering::Relaxed);
        storage
    }

    /// File `storage` while the list and the caller's cache (`cached`)
    /// together hold fewer than [`CLASS_DEPTH`]; otherwise hand it back.
    fn push(&self, storage: Arc<Vec<u8>>, cached: usize) -> Option<Arc<Vec<u8>>> {
        let mut list = self.list.lock();
        if list.len() + cached >= CLASS_DEPTH {
            return Some(storage);
        }
        list.push(storage);
        self.len.store(list.len(), Ordering::Relaxed);
        None
    }
}

/// A pool's state shared with the thread caches.
#[derive(Debug, Default)]
struct Shared {
    classes: [Class; N_CLASSES],
    tallies: Mutex<Tallies>,
}

/// Every tally of one pool: those of live thread-cache entries, and the sum
/// of those whose entries are gone.
#[derive(Debug, Default)]
struct Tallies {
    live: Vec<Arc<Tally>>,
    retired: Counts,
}

/// One thread's counters for one pool. Only the thread of the entry that
/// owns it writes it, so a bump is a load and a store, not a lock-prefixed
/// add; Relaxed, because the counts publish nothing. Aligned to its own
/// cache line so that threads' tallies never share one.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Tally {
    hits: AtomicU64,
    misses: AtomicU64,
    recycled: AtomicU64,
    dropped: AtomicU64,
}

impl Tally {
    /// One more on `counter`, from its only writer.
    #[inline]
    fn bump(counter: &AtomicU64) {
        counter.store(counter.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }

    fn read(&self) -> Counts {
        Counts {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            recycled: self.recycled.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    hits: u64,
    misses: u64,
    recycled: u64,
    dropped: u64,
}

impl std::ops::AddAssign for Counts {
    fn add_assign(&mut self, o: Counts) {
        self.hits += o.hits;
        self.misses += o.misses;
        self.recycled += o.recycled;
        self.dropped += o.dropped;
    }
}

/// One thread's cache for one pool (see the module docs).
#[derive(Debug)]
struct Entry {
    pool: Weak<Shared>,
    classes: [PeakList<Arc<Vec<u8>>>; N_CLASSES],
    tally: Arc<Tally>,
}

impl Entry {
    fn new(pool: &Arc<Shared>) -> Entry {
        let tally = Arc::new(Tally::default());
        pool.tallies.lock().live.push(Arc::clone(&tally));
        Entry {
            pool: Arc::downgrade(pool),
            classes: std::array::from_fn(|_| PeakList::new()),
            tally,
        }
    }

    #[inline]
    fn serves(&self, pool: &Arc<Shared>) -> bool {
        std::ptr::eq(self.pool.as_ptr(), Arc::as_ptr(pool))
    }

    /// A recycled buffer of `class` for a take (`None`: unpooled), or
    /// `None` for a miss; counts the take.
    #[inline]
    fn take(&mut self, pool: &Shared, class: Option<usize>) -> Option<Arc<Vec<u8>>> {
        let found = class.and_then(|c| self.classes[c].lease().or_else(|| pool.classes[c].pop()));
        Tally::bump(if found.is_some() {
            &self.tally.hits
        } else {
            &self.tally.misses
        });
        found
    }

    /// Keep uniquely owned `storage` of `class` (`None`: too small for any)
    /// in the cache, or on the shared list, or free it; counts the release
    /// and says whether the storage was kept.
    #[inline]
    fn release(&mut self, pool: &Shared, class: Option<usize>, storage: Arc<Vec<u8>>) -> bool {
        let kept = class.is_some_and(|c| {
            let shared = &pool.classes[c];
            let cache = &mut self.classes[c];
            if cache.leased == 0 {
                // None of this thread's own takes is out: it returns
                // buffers other threads took, and hands them its cache as
                // well, so that a thread receiving what another sends never
                // strands buffers the sender needs for its next window.
                for cached in cache.items.drain(..) {
                    drop(shared.push(cached, 0));
                }
                return shared.push(storage, 0).is_none();
            }
            if cache.items.capacity() == 0 {
                // Room for the most a cache holds, reserved at its first
                // use: how deep it gets depends on timing, and a list that
                // grew in steady state would allocate on the message path.
                cache.items.reserve_exact(CLASS_DEPTH);
            }
            let room = CLASS_DEPTH.saturating_sub(shared.len.load(Ordering::Relaxed));
            match cache.release(Some(storage), room) {
                None => true,
                Some(storage) => shared.push(storage, cache.len()).is_none(),
            }
        });
        Tally::bump(if kept {
            &self.tally.recycled
        } else {
            &self.tally.dropped
        });
        kept
    }
}

impl Drop for Entry {
    fn drop(&mut self) {
        // A pool that is gone takes no storage back: it is freed with
        // `self`.
        let Some(pool) = self.pool.upgrade() else {
            return;
        };
        for (class, cache) in pool.classes.iter().zip(&mut self.classes) {
            for storage in cache.items.drain(..) {
                drop(class.push(storage, 0));
            }
        }
        let mut tallies = pool.tallies.lock();
        tallies.live.retain(|t| !Arc::ptr_eq(t, &self.tally));
        tallies.retired += self.tally.read();
    }
}

/// This thread's cache entry, for the pool it used last. It lives in the
/// thread-local block, so installing one allocates nothing large: a 2 KiB
/// heap table of entries, allocated on a worker thread at its first take,
/// once split the hole a freed 1 MiB RMA window had left in that thread's
/// malloc arena, and the next window grew the heap (`rma_mix` peak RSS
/// +20 %).
struct ThreadCache {
    entry: Option<Entry>,
}

impl ThreadCache {
    /// `pool`'s entry, which replaces this thread's entry for another pool.
    #[inline]
    fn entry(&mut self, pool: &Arc<Shared>) -> &mut Entry {
        if !self.entry.as_ref().is_some_and(|e| e.serves(pool)) {
            self.install(pool);
        }
        self.entry.as_mut().expect("installed above")
    }

    #[cold]
    fn install(&mut self, pool: &Arc<Shared>) {
        // The old entry goes first: its buffers return to its pool's
        // shared lists, or are freed if that pool is gone.
        self.entry = None;
        self.entry = Some(Entry::new(pool));
    }
}

thread_local! {
    static CACHE: RefCell<ThreadCache> = const { RefCell::new(ThreadCache { entry: None }) };
}

/// Run `f` on this thread's entry for `pool`; a thread tearing down its
/// locals uses a transient entry, which hands its buffers to the shared
/// lists when it is dropped.
#[inline]
fn with_entry<R>(pool: &Arc<Shared>, f: impl FnOnce(&mut Entry) -> R) -> R {
    let mut f = Some(f);
    let done = CACHE.try_with(|cache| {
        let f = f.take().expect("called once");
        f(cache.borrow_mut().entry(pool))
    });
    match done {
        Ok(r) => r,
        Err(_) => (f.take().expect("not called"))(&mut Entry::new(pool)),
    }
}

/// A per-fabric pool of recycled wire buffers (see the module docs).
#[derive(Debug, Default)]
pub struct PayloadPool {
    shared: Arc<Shared>,
    /// Hoisted from the profile's trace opt-in at fabric construction;
    /// when false, lease/recycle event sites cost one branch.
    traced: bool,
}

impl Drop for PayloadPool {
    fn drop(&mut self) {
        // Free what this thread caches for the pool now; other threads
        // free theirs when another pool replaces their entry or they exit.
        let _ = CACHE.try_with(|cache| {
            if let Ok(mut cache) = cache.try_borrow_mut() {
                if cache.entry.as_ref().is_some_and(|e| e.serves(&self.shared)) {
                    cache.entry = None;
                }
            }
        });
    }
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
            shared: Arc::default(),
            traced,
        }
    }

    /// Take a writable buffer with room for at least `cap` bytes.
    ///
    /// Hits pop a recycled buffer from this thread's cache or the shared
    /// list (no heap traffic); misses allocate fresh storage and charge
    /// the payload-allocation counter. Requests larger than the biggest
    /// size class are served unpooled.
    pub fn take(&self, cap: usize) -> PayloadBuf {
        let class = class_fitting(cap);
        if let Some(mut storage) = with_entry(&self.shared, |e| e.take(&self.shared, class)) {
            // Pooled storage is uniquely owned: `release` keeps a buffer
            // only after the strong-count check, and nothing can clone it
            // while the pool holds it. That invariant lets the hot path
            // skip `get_mut`'s compare-exchange and derive the write
            // pointer directly.
            debug_assert!(Arc::get_mut(&mut storage).is_some());
            let vec = Arc::as_ptr(&storage) as *mut Vec<u8>;
            // SAFETY (deref): unique ownership per the invariant above;
            // see also `PayloadBuf::vec`.
            unsafe { (*vec).clear() };
            if self.traced {
                litempi_trace::emit(EventKind::PoolLease, class.map_or(0, |c| c as u64), 1);
            }
            return PayloadBuf {
                storage,
                vec,
                recycled: true,
            };
        }
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
        let storage = payload.into_storage();
        // Pool storage never has a `Weak` (see "Recycling safety"), so a
        // strong count of one is unique ownership. The fence pairs with
        // the Release decrement of every other handle's drop.
        debug_assert_eq!(Arc::weak_count(&storage), 0, "pool storage has a Weak");
        if Arc::strong_count(&storage) != 1 {
            return; // still shared: the other readers keep it alive
        }
        fence(Ordering::Acquire);
        let class = class_covered(storage.capacity());
        let kept = with_entry(&self.shared, |e| e.release(&self.shared, class, storage));
        if kept && self.traced {
            litempi_trace::emit(EventKind::PoolRecycle, class.map_or(0, |c| c as u64), 0);
        }
    }

    /// Counter snapshot (monotonic since fabric creation): the sum of the
    /// per-thread tallies, exact whenever their writers are quiescent.
    pub fn stats(&self) -> PoolStats {
        let tallies = self.shared.tallies.lock();
        let mut sum = tallies.retired;
        for tally in &tallies.live {
            sum += tally.read();
        }
        PoolStats {
            takes: sum.hits + sum.misses,
            hits: sum.hits,
            recycled: sum.recycled,
            dropped: sum.dropped,
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
impl PayloadPool {
    /// Buffers of `class` this thread's cache holds for the pool.
    fn cached(&self, class: usize) -> usize {
        CACHE.with(|cache| {
            let cache = cache.borrow();
            let entry = cache.entry.as_ref().filter(|e| e.serves(&self.shared));
            entry.map_or(0, |e| e.classes[class].len())
        })
    }

    /// Buffers of `class` on the shared list.
    fn listed(&self, class: usize) -> usize {
        self.shared.classes[class].list.lock().len()
    }
}

/// Does this thread hold a cache entry (for a live pool or a gone one)?
#[cfg(test)]
fn entry_here() -> bool {
    CACHE.with(|cache| cache.borrow().entry.is_some())
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

    use std::sync::Barrier;

    /// The address of a payload's storage, for identity checks across
    /// threads.
    fn addr(b: &Bytes) -> usize {
        b.as_ref().as_ptr() as usize
    }

    #[test]
    fn a_buffer_released_on_another_thread_is_taken_without_allocating() {
        let pool = PayloadPool::new();
        let mut b = pool.take(64);
        b.put_u8(1);
        let b = b.freeze();
        let first = addr(&b);
        // Released by a thread that never took: it has no cache share, so
        // the buffer goes to the shared list, where this thread takes it
        // while the releasing thread still runs.
        let (released, taken) = (Barrier::new(2), Barrier::new(2));
        let (recycled, allocs, at) = std::thread::scope(|s| {
            s.spawn(|| {
                pool.release(b);
                released.wait();
                taken.wait();
            });
            released.wait();
            litempi_instr::reset();
            let mut again = pool.take(64);
            let allocs = litempi_instr::alloc_count();
            let recycled = again.was_recycled();
            again.put_u8(2);
            taken.wait();
            (recycled, allocs, addr(&again.freeze()))
        });
        assert!(recycled);
        assert_eq!((allocs, at), (0, first));
        // A thread that took and released keeps the buffer in its cache
        // while it runs and hands it to the shared list when it exits.
        let second = std::thread::scope(|s| {
            s.spawn(|| {
                let mut b = pool.take(128);
                b.put_u8(3);
                let b = b.freeze();
                let at = addr(&b);
                pool.release(b);
                assert_eq!(pool.cached(1), 1);
                at
            })
            .join()
            .expect("cached")
        });
        assert_eq!(pool.listed(1), 1);
        litempi_instr::reset();
        let mut again = pool.take(128);
        assert!(again.was_recycled());
        assert_eq!(litempi_instr::alloc_count(), 0);
        again.put_u8(4);
        assert_eq!(addr(&again.freeze()), second);
    }

    #[test]
    fn a_receiving_thread_strands_no_buffer_its_sender_needs() {
        // This thread sends windows of the class depth; a receiver releases
        // each window and answers it with one or two buffers of its own,
        // which this thread releases before its next window. Once warm,
        // the windows are served from what the two threads return.
        const WARM_UP: usize = 4;
        let pool = PayloadPool::new();
        let (to_receiver, windows) = std::sync::mpsc::channel::<Vec<Bytes>>();
        let (to_sender, answers) = std::sync::mpsc::channel::<Vec<Bytes>>();
        let allocs = std::thread::scope(|s| {
            s.spawn(|| {
                for (round, window) in windows.into_iter().enumerate() {
                    window.into_iter().for_each(|b| pool.release(b));
                    let answer = (0..1 + round % 2).map(|_| pool.take(8).freeze()).collect();
                    to_sender.send(answer).expect("sender waits");
                }
            });
            let mut allocs = 0;
            for round in 0..WARM_UP + 16 {
                litempi_instr::reset();
                let window = (0..CLASS_DEPTH).map(|_| pool.take(8).freeze()).collect();
                if round >= WARM_UP {
                    allocs += litempi_instr::alloc_count();
                }
                to_receiver.send(window).expect("receiver waits");
                let answer = answers.recv().expect("an answer");
                answer.into_iter().for_each(|b| pool.release(b));
            }
            drop(to_receiver);
            allocs
        });
        assert_eq!(allocs, 0);
    }

    #[test]
    fn a_thread_switching_pools_hands_the_old_entrys_buffers_to_its_pool() {
        let (a, b) = (PayloadPool::new(), PayloadPool::new());
        let first = a.take(64).freeze();
        let at = addr(&first);
        a.release(first);
        assert_eq!(
            (a.cached(0), a.listed(0)),
            (1, 0),
            "kept in this thread's cache"
        );
        // `b` replaces the entry: `a`'s buffer goes to `a`'s shared list.
        b.release(b.take(64).freeze());
        assert_eq!((a.cached(0), a.listed(0)), (0, 1));
        assert_eq!((b.cached(0), b.listed(0)), (1, 0));
        // Back on `a`, the take finds it there without allocating, and
        // `b`'s buffer goes to `b`'s list in turn.
        litempi_instr::reset();
        let again = a.take(64);
        assert!(again.was_recycled());
        assert_eq!(litempi_instr::alloc_count(), 0);
        assert_eq!(addr(&again.freeze()), at);
        assert_eq!((b.cached(0), b.listed(0)), (0, 1));
        // The tallies of replaced entries still count.
        let s = a.stats();
        assert_eq!((s.takes, s.hits, s.recycled), (2, 1, 1));
        let s = b.stats();
        assert_eq!((s.takes, s.hits, s.recycled), (1, 0, 1));
    }

    #[test]
    fn a_new_pool_is_never_served_another_pools_storage_and_gets_the_cache() {
        // On a thread of its own: the test looks at this thread's entry.
        std::thread::spawn(|| {
            use crate::{Fabric, ProviderProfile, Topology};
            // The fabric's pool, then a pool of its own, on one thread.
            let fabric = Fabric::new(2, ProviderProfile::ofi(), Topology::single_node(2));
            let mut b = fabric.pool().take(64);
            b.put_u8(1);
            let b = b.freeze();
            let old = addr(&b);
            fabric.pool().release(b);
            assert_eq!(fabric.pool().cached(0), 1);
            // While the fabric's pool lives, another pool does not see its
            // buffer.
            let other = PayloadPool::new();
            let mut b = other.take(64);
            assert!(!b.was_recycled());
            b.put_u8(2);
            assert_ne!(addr(&b.freeze()), old);
            drop(other);
            // Dropping a pool frees what this thread cached for it.
            drop(fabric);
            assert!(!entry_here());
            let pool = PayloadPool::new();
            let b = pool.take(64);
            assert!(!b.was_recycled(), "a fresh pool has nothing to serve");
            pool.release(b.freeze());
            assert_eq!((pool.cached(0), pool.listed(0)), (1, 0), "the fast path");
            assert!(pool.take(64).was_recycled());
            let s = pool.stats();
            assert_eq!((s.takes, s.hits, s.recycled), (2, 1, 1));
            // A pool dropped on another thread: this thread's entry for it
            // stays until the next pool replaces it, which is served none
            // of its storage.
            let elsewhere = PayloadPool::new();
            elsewhere.release(elsewhere.take(64).freeze());
            std::thread::scope(|s| s.spawn(move || drop(elsewhere)).join().expect("dropped"));
            assert!(entry_here());
            let third = PayloadPool::new();
            assert!(!third.take(64).was_recycled());
        })
        .join()
        .expect("no assertion failed");
    }

    #[test]
    fn retention_per_thread_and_class_stays_within_class_depth() {
        let pool = PayloadPool::new();
        let retained = || pool.cached(0) + pool.listed(0);
        // One thread takes twice the depth at once and releases it all.
        let bufs: Vec<_> = (0..2 * CLASS_DEPTH)
            .map(|_| pool.take(64).freeze())
            .collect();
        for b in bufs {
            pool.release(b);
        }
        assert_eq!(retained(), CLASS_DEPTH);
        // Another thread fills the shared list; this thread's cache then
        // keeps none of what it releases.
        let mut far: Vec<_> = (0..2 * CLASS_DEPTH)
            .map(|_| pool.take(64).freeze())
            .collect();
        let near = far.split_off(CLASS_DEPTH);
        std::thread::scope(|s| {
            s.spawn(|| far.into_iter().for_each(|b| pool.release(b)))
                .join()
                .expect("released")
        });
        assert_eq!(pool.listed(0), CLASS_DEPTH);
        for b in near {
            pool.release(b);
        }
        assert_eq!(retained(), CLASS_DEPTH);
        let s = pool.stats();
        assert_eq!(
            (s.recycled, s.dropped),
            (2 * CLASS_DEPTH as u64, 2 * CLASS_DEPTH as u64)
        );
    }
}
