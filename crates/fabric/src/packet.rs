//! Wire-level message types carried by the simulated fabric.

use crate::addr::NetAddr;
use crate::pool::PeakList;
use bytes::Bytes;
use std::cell::{RefCell, UnsafeCell};
use std::mem::ManuallyDrop;
use std::ops::Deref;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

/// A tagged two-sided message as delivered to a matching receive.
///
/// `match_bits` are opaque to the fabric: the MPI layer encodes
/// (context id, source rank, tag) into them, exactly as the CH4/OFI netmod
/// packs MPI matching semantics into libfabric's 64-bit tag space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaggedMessage {
    /// Physical address of the sender.
    pub src: NetAddr,
    /// The sender's 64-bit match bits.
    pub match_bits: u64,
    /// Payload (eager data, or rendezvous control information).
    pub data: Bytes,
}

impl TaggedMessage {
    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// An active message: a handler id plus header and payload.
///
/// This is the transport for the CH4 core's fallback path ("if it does not
/// have a network-specific method ... it simply falls back to the
/// active-message-based implementation provided by the ch4 core", paper §2)
/// and for the CH3-like baseline's RMA emulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AmMessage {
    /// Physical address of the sender.
    pub src: NetAddr,
    /// Which registered handler should process this message.
    pub handler: u16,
    /// Small fixed-size header (operation parameters).
    pub header: [u8; 32],
    /// Bulk payload.
    pub data: Bytes,
}

/// A posted (not yet matched) tagged receive inside an endpoint.
///
/// Public so the core, `prop_matching` and `benchmark/src/layers.rs` can drive
/// [`matching::MatchEngine`](crate::matching::MatchEngine) directly; not a
/// stable API for fabric consumers.
#[derive(Debug)]
pub struct PostedRecv {
    /// The receive's 64-bit match bits.
    pub match_bits: u64,
    /// Bits set in `ignore` are wildcards (libfabric convention).
    pub ignore: u64,
    /// Completion slot filled when the receive matches.
    pub slot: Arc<RecvSlot>,
}

impl PostedRecv {
    /// Does an incoming message's match bits satisfy this posted receive?
    #[inline]
    pub fn matches(&self, incoming: u64) -> bool {
        (incoming | self.ignore) == (self.match_bits | self.ignore)
    }
}

/// Completion slot a blocked/polling receiver watches.
///
/// A lock-free single-shot cell rather than a mutex: [`fill`](Self::fill)
/// runs on the sender's critical path (inside the matching engine, under
/// the receiver's tag lock), so completion costs one state transition plus
/// a release store — and a receiver polling [`take`](Self::take) or
/// [`is_filled`](Self::is_filled) before delivery costs a single acquire
/// load, never a lock the sender could contend on.
#[derive(Debug, Default)]
pub struct RecvSlot {
    /// EMPTY → FILLING → FULL → TAKEN; the only writer of the cell holds
    /// the FILLING state, the only reader wins the FULL → TAKEN race.
    state: AtomicU8,
    /// The delivered message, once matched.
    message: UnsafeCell<Option<TaggedMessage>>,
}

/// States of [`RecvSlot::state`].
const EMPTY: u8 = 0;
const FILLING: u8 = 1;
const FULL: u8 = 2;
const TAKEN: u8 = 3;

// SAFETY: the `state` protocol serializes all access to `message`: the
// cell is written only between a successful EMPTY→FILLING transition and
// the FULL release store, and read only after winning the FULL→TAKEN
// transition (which acquires that store).
unsafe impl Send for RecvSlot {}
unsafe impl Sync for RecvSlot {}

impl RecvSlot {
    /// Deposit a matched message (panics on double fill).
    pub fn fill(&self, msg: TaggedMessage) {
        if self
            .state
            .compare_exchange(EMPTY, FILLING, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            panic!("recv slot filled twice");
        }
        // SAFETY: the EMPTY→FILLING transition makes this the cell's only
        // accessor until the FULL store below publishes it.
        unsafe { *self.message.get() = Some(msg) };
        self.state.store(FULL, Ordering::Release);
    }

    /// Consume the delivered message, if any.
    pub fn take(&self) -> Option<TaggedMessage> {
        // Cheap rejection first: polling an incomplete receive is the hot
        // case in wait loops and must not write shared state.
        if self.state.load(Ordering::Acquire) != FULL {
            return None;
        }
        if self
            .state
            .compare_exchange(FULL, TAKEN, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return None;
        }
        // SAFETY: winning FULL→TAKEN grants exclusive access to the cell,
        // and the acquire pairs with `fill`'s release store.
        unsafe { (*self.message.get()).take() }
    }

    /// Has a message been delivered (and not yet taken)?
    pub fn is_filled(&self) -> bool {
        self.state.load(Ordering::Acquire) == FULL
    }

    /// Empty the slot for another receive, if nothing can write it any
    /// more: the caller holds its only handle (`sole`), or it has been
    /// filled, which a receive is only after it has left the engine's
    /// queues (the engine's handle may still be on its way to being
    /// dropped). A message never taken is dropped here. `false`: the
    /// engine may still fill it.
    fn recycle(&self, sole: bool) -> bool {
        let state = self.state.load(Ordering::Acquire);
        if !(sole || state == FULL || state == TAKEN) {
            return false;
        }
        drop(self.take());
        self.state.store(EMPTY, Ordering::Release);
        true
    }
}

thread_local! {
    /// Released slots this thread keeps for its next posted receives
    /// ([`SlotLease`]), by the peak rule of [`PeakList`]: a thread whose
    /// window of receives rises and drains to the same depth again
    /// allocates no slot, and slots released by a thread that did not lease
    /// them (a request handed to another thread) are freed beyond that.
    static FREE: RefCell<PeakList<Arc<RecvSlot>>> = const { RefCell::new(PeakList::new()) };
}

/// The completion slot of one posted receive, held by whoever posted it;
/// the matching engine holds a [`share`](SlotLease::share) until the
/// receive matches or is cancelled. A warm receive allocates no slot: a
/// new lease takes one that an earlier lease on this thread released, and
/// a dropped lease releases its slot once the engine can no longer write
/// it — it has filled it or let go of it (otherwise the slot is freed when
/// the engine drops it).
#[derive(Debug)]
pub struct SlotLease(ManuallyDrop<Arc<RecvSlot>>);

impl SlotLease {
    /// An empty slot: a released one, or a new one.
    pub fn new() -> SlotLease {
        let reused = FREE.with(|free| free.borrow_mut().lease());
        SlotLease(ManuallyDrop::new(reused.unwrap_or_default()))
    }

    /// The handle the matching engine fills.
    pub fn share(&self) -> Arc<RecvSlot> {
        Arc::clone(&self.0)
    }
}

impl Default for SlotLease {
    fn default() -> Self {
        SlotLease::new()
    }
}

impl Deref for SlotLease {
    type Target = Arc<RecvSlot>;

    fn deref(&self) -> &Arc<RecvSlot> {
        &self.0
    }
}

impl Drop for SlotLease {
    fn drop(&mut self) {
        // SAFETY: this is the lease's drop; `self.0` is not used again.
        let slot = unsafe { ManuallyDrop::take(&mut self.0) };
        // Reset outside the free list's borrow. A receiver that sees its
        // slot filled may drop the lease before the filling thread drops
        // the engine's handle, so a filled slot is reused even while that
        // handle lives; an unfilled one only when this is the last handle
        // (a receive dropped while posted stays with the engine).
        let reusable = slot.recycle(Arc::strong_count(&slot) == 1);
        // Ignore a thread that is tearing down its locals: the slot is
        // freed as usual.
        let _ = FREE.try_with(|free| {
            let unkept = free
                .borrow_mut()
                .release(reusable.then_some(slot), usize::MAX);
            drop(unkept);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(bits: u64) -> TaggedMessage {
        TaggedMessage {
            src: NetAddr(0),
            match_bits: bits,
            data: Bytes::from_static(b"x"),
        }
    }

    #[test]
    fn exact_match() {
        let p = PostedRecv {
            match_bits: 0xABCD,
            ignore: 0,
            slot: Arc::new(RecvSlot::default()),
        };
        assert!(p.matches(0xABCD));
        assert!(!p.matches(0xABCE));
    }

    #[test]
    fn ignore_mask_is_wildcard() {
        // Low 16 bits wild (e.g. MPI_ANY_TAG with tag in the low bits).
        let p = PostedRecv {
            match_bits: 0xFF0000,
            ignore: 0xFFFF,
            slot: Arc::new(RecvSlot::default()),
        };
        assert!(p.matches(0xFF0000));
        assert!(p.matches(0xFF1234));
        assert!(!p.matches(0xEE1234));
    }

    #[test]
    fn full_wildcard_matches_anything() {
        let p = PostedRecv {
            match_bits: 0,
            ignore: u64::MAX,
            slot: Arc::new(RecvSlot::default()),
        };
        assert!(p.matches(0));
        assert!(p.matches(u64::MAX));
        assert!(p.matches(0xDEADBEEF));
    }

    #[test]
    fn slot_fill_take() {
        let s = RecvSlot::default();
        assert!(!s.is_filled());
        s.fill(msg(1));
        assert!(s.is_filled());
        let m = s.take().unwrap();
        assert_eq!(m.match_bits, 1);
        assert!(!s.is_filled());
    }

    #[test]
    fn slot_take_is_single_shot() {
        let s = RecvSlot::default();
        assert!(s.take().is_none());
        s.fill(msg(2));
        assert!(s.take().is_some());
        assert!(s.take().is_none(), "a message is consumed exactly once");
        assert!(!s.is_filled());
    }

    #[test]
    #[should_panic(expected = "recv slot filled twice")]
    fn slot_double_fill_panics() {
        let s = RecvSlot::default();
        s.fill(msg(1));
        s.fill(msg(2));
    }

    #[test]
    fn a_released_slot_is_reused_empty_once_the_engine_cannot_write_it() {
        // Still posted: the engine may fill it, so the next lease cannot
        // have it.
        let lease = SlotLease::new();
        let engine = lease.share();
        let first = Arc::as_ptr(&lease);
        drop(lease);
        let other = SlotLease::new();
        assert_ne!(Arc::as_ptr(&other), first);
        drop(engine);
        drop(other);
        // Filled, the engine's handle not yet dropped, the message never
        // taken: reused, empty.
        let lease = SlotLease::new();
        let engine = lease.share();
        engine.fill(msg(2));
        let first = Arc::as_ptr(&lease);
        drop(lease);
        let again = SlotLease::new();
        assert_eq!(Arc::as_ptr(&again), first, "reused");
        drop(engine);
        assert!(!again.is_filled() && again.take().is_none());
        again.share().fill(msg(3));
        assert_eq!(again.take().map(|m| m.match_bits), Some(3));
    }

    #[test]
    fn a_thread_keeps_no_more_slots_than_it_once_leased_at_once() {
        let kept = || FREE.with(|free| free.borrow().len());
        std::thread::spawn(move || {
            let window: Vec<_> = (0..64).map(|_| SlotLease::new()).collect();
            let first: Vec<_> = window.iter().map(|l| Arc::as_ptr(l)).collect();
            drop(window);
            assert_eq!(kept(), 64);
            // The same window again takes every slot from the list.
            let window: Vec<_> = (0..64).map(|_| SlotLease::new()).collect();
            assert!(window.iter().all(|l| first.contains(&Arc::as_ptr(l))));
            assert_eq!(kept(), 0);
            // Slots leased elsewhere and released here are freed: this
            // thread never had more than 64 at once.
            let elsewhere = std::thread::spawn(|| (0..64).map(|_| SlotLease::new()).collect());
            let elsewhere: Vec<SlotLease> = elsewhere.join().expect("leases");
            drop(window);
            drop(elsewhere);
            assert_eq!(kept(), 64);
        })
        .join()
        .expect("no assertion failed");
    }

    #[test]
    fn tagged_message_len() {
        let m = msg(0);
        assert_eq!(m.len(), 1);
        assert!(!m.is_empty());
    }
}
