//! Tag-matching engines: the hash-bucketed fast path and the linear
//! reference matcher.
//!
//! The paper identifies receiver-side matching as one of the instruction
//! sinks on the pt2pt critical path (§3.1's MPI_ISEND/IRECV breakdown
//! charges a `MatchBits` category). A linear scan of the posted-receive and
//! unexpected-message queues is the classic implementation — and the classic
//! scaling hazard: cost grows with queue depth, which Fig 5's depth sweeps
//! make visible. This module provides two engines behind one interface:
//!
//! * [`BucketedMatcher`] — the default. Fully-specified entries (posted
//!   receives with `ignore == 0`, and every unexpected message) live in
//!   per-match-bits hash buckets, so the common exact-tag case is O(1)
//!   regardless of depth. Wildcard receives (nonzero `ignore`) go to a
//!   sequence-ordered overflow list. Monotonic per-endpoint sequence
//!   numbers — one counter for posts, one for arrivals — arbitrate between
//!   a bucket hit and an older wildcard entry, so MPI's matching order is
//!   bit-for-bit identical to the linear scan.
//! * [`LinearMatcher`] — the original O(depth) scan: the reference the
//!   equivalence test (`tests/prop_matching.rs`) holds the bucketed
//!   engine to. No endpoint runs it.
//!
//! ## Why bucket removal is O(1)
//!
//! Every lookup that consumes an entry takes the *globally oldest* matching
//! one (MPI's FIFO rule). All entries in one bucket carry identical match
//! bits, so if any entry of a bucket matches a probe, its front does too —
//! and the front is the oldest. Hence any order-respecting consumer only
//! ever removes bucket *fronts*, which is a `pop_front`. The one exception
//! is [`cancel`](MatchEngine::cancel), which may excise a middle entry; it
//! is rare and allowed to be O(bucket).
//!
//! ## Warm matching allocates nothing
//!
//! A bucket that empties is parked on a spare list with its capacity, and
//! the next new bucket takes it from there. A new bucket is made only when
//! the list is empty, so the list never holds more buckets than the engine
//! once had live at the same time: it is bounded by the engine's own
//! high-water mark, not by a constant. A warm engine whose queues rise and
//! drain to the same shape again (a window of receives from any number of
//! peers, a burst of early arrivals) makes no heap allocation, as long as
//! no bucket grows past 256 entries (`SPARE_CAPACITY`): a bucket that did is
//! freed when it empties rather than pinned.
//!
//! Unexpected messages live in their buckets, tagged with their arrival
//! sequence. A wildcard probe walks a log of `(seq, bits)` in arrival order
//! and stops at the first entry that matches and is still queued, so the
//! usual `ANY_SOURCE` drain, which takes the oldest message, costs O(1).
//! Entries of messages taken by an exact probe are dropped lazily; the log
//! is compacted (in place, capacity kept) whenever it grows past twice the
//! queue, so it costs amortised O(1) per message.
//!
//! ## Counter discipline
//!
//! Matching statistics live in [`MatchCounters`] as plain `u64`s owned by
//! the engine: every mutation already happens under the endpoint's tag
//! lock, so atomic RMWs — which cost more than the bucket operation they
//! would account — are reserved for counters written outside that lock
//! (sends, RDMA, AM; see [`EndpointStats`](crate::stats::EndpointStats)).
//!
//! This module is public so the core's AM matching, `prop_matching` and
//! `benchmark/src/layers.rs` (engine cost without endpoint lock/event
//! overhead) drive an engine directly; it is not a stable API for fabric
//! consumers, who should go through [`Endpoint`](crate::endpoint::Endpoint).
//!
//! [`Endpoint`]: crate::endpoint::Endpoint

use crate::cost::MatcherKind;
use crate::packet::{PostedRecv, RecvSlot, TaggedMessage};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasherDefault;
use std::sync::Arc;

/// Multiply-shift hasher for the 64-bit match-bits keys.
///
/// The default SipHash costs more than the entire bucket operation it
/// guards; match bits are program-chosen (not attacker-controlled), so a
/// single Fibonacci multiply — which pushes key entropy into the high bits
/// the table's probe sequence uses — is sufficient and ~an order of
/// magnitude cheaper.
#[derive(Debug, Default, Clone, Copy)]
struct BitsHasher(u64);

impl std::hash::Hasher for BitsHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("match-bits maps hash only u64 keys");
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A hash map keyed by match bits.
type BitsMap<V> = HashMap<u64, V, BuildHasherDefault<BitsHasher>>;

/// Matching-side statistics: plain (non-atomic) counters owned by the
/// engine because every write site runs under the endpoint's tag lock.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MatchCounters {
    /// Tagged messages handed to a receive (matched deliveries, satisfied
    /// posts, and matched-probe dequeues).
    pub msgs_received: u64,
    /// Payload bytes across `msgs_received`.
    pub bytes_received: u64,
    /// Messages that arrived before a matching receive was posted.
    pub unexpected: u64,
    /// Matches resolved on the exact (fully-specified) path: O(1) bucket
    /// hits in the bucketed engine, `ignore == 0` receives in the linear
    /// one.
    pub bucket_hits: u64,
    /// Matches resolved against a wildcard (nonzero `ignore`) receive.
    pub wildcard_matches: u64,
    /// High-water mark of the posted-receive queue depth.
    pub max_posted_depth: u64,
    /// High-water mark of the unexpected-message queue depth.
    pub max_unexpected_depth: u64,
}

impl MatchCounters {
    #[inline]
    fn raise_max(slot: &mut u64, v: u64) {
        if v > *slot {
            *slot = v;
        }
    }
}

/// A posted receive plus the post-order sequence number that arbitrates
/// between the exact buckets and the wildcard overflow list.
#[derive(Debug)]
struct PostedEntry {
    seq: u64,
    recv: PostedRecv,
}

/// The engine interface the endpoint drives: one of the two matcher
/// implementations plus the counters both feed. Enum dispatch on the inner
/// implementation keeps both selectable at fabric construction with zero
/// dynamic allocation on the hot path.
#[derive(Debug)]
pub struct MatchEngine {
    counters: MatchCounters,
    imp: EngineImpl,
}

#[derive(Debug)]
enum EngineImpl {
    Bucketed(BucketedMatcher),
    Linear(LinearMatcher),
}

impl MatchEngine {
    /// Construct the engine selected by the provider profile.
    pub fn new(kind: MatcherKind) -> MatchEngine {
        let imp = match kind {
            MatcherKind::Bucketed => EngineImpl::Bucketed(BucketedMatcher::default()),
            MatcherKind::Linear => EngineImpl::Linear(LinearMatcher::default()),
        };
        MatchEngine {
            counters: MatchCounters::default(),
            imp,
        }
    }

    /// The matching-side statistics accumulated so far.
    pub fn counters(&self) -> MatchCounters {
        self.counters
    }

    /// Deliver an incoming message: fill the oldest matching posted receive
    /// or append to the unexpected queue. Returns `true` if it matched.
    pub fn deliver(&mut self, msg: TaggedMessage) -> bool {
        let c = &mut self.counters;
        match &mut self.imp {
            EngineImpl::Bucketed(m) => m.deliver(msg, c),
            EngineImpl::Linear(m) => m.deliver(msg, c),
        }
    }

    /// Post a receive: satisfy it immediately from the oldest matching
    /// unexpected message (returned), or enqueue it.
    pub fn post(&mut self, probe: PostedRecv) -> Option<TaggedMessage> {
        let c = &mut self.counters;
        let hit = match &mut self.imp {
            EngineImpl::Bucketed(m) => m.post(probe, c),
            EngineImpl::Linear(m) => m.post(probe, c),
        };
        if let Some(msg) = &hit {
            self.counters.msgs_received += 1;
            self.counters.bytes_received += msg.data.len() as u64;
        }
        hit
    }

    /// Oldest unexpected message matching `(bits, ignore)`, unconsumed.
    pub fn peek(&self, bits: u64, ignore: u64) -> Option<&TaggedMessage> {
        match &self.imp {
            EngineImpl::Bucketed(m) => m.peek(bits, ignore),
            EngineImpl::Linear(m) => m.peek(bits, ignore),
        }
    }

    /// Remove and return the oldest matching unexpected message (the
    /// matched-probe path, so a hit counts as a receive).
    pub fn dequeue(&mut self, bits: u64, ignore: u64) -> Option<TaggedMessage> {
        let hit = match &mut self.imp {
            EngineImpl::Bucketed(m) => m.dequeue(bits, ignore),
            EngineImpl::Linear(m) => m.dequeue(bits, ignore),
        };
        if let Some(msg) = &hit {
            self.counters.msgs_received += 1;
            self.counters.bytes_received += msg.data.len() as u64;
        }
        hit
    }

    /// Remove a posted receive by its completion slot. `true` if it was
    /// still queued (i.e. cancelled before matching).
    pub fn cancel(&mut self, slot: &Arc<RecvSlot>) -> bool {
        match &mut self.imp {
            EngineImpl::Bucketed(m) => m.cancel(slot),
            EngineImpl::Linear(m) => m.cancel(slot),
        }
    }

    /// Number of queued posted receives.
    pub fn posted_len(&self) -> usize {
        match &self.imp {
            EngineImpl::Bucketed(m) => m.posted_count,
            EngineImpl::Linear(m) => m.posted.len(),
        }
    }

    /// Number of queued unexpected messages.
    pub fn unexpected_len(&self) -> usize {
        match &self.imp {
            EngineImpl::Bucketed(m) => m.unexpected_count,
            EngineImpl::Linear(m) => m.unexpected.len(),
        }
    }
}

/// Complete a match: account the delivery and hand the message to the
/// receive's slot.
fn fill(recv: PostedRecv, msg: TaggedMessage, c: &mut MatchCounters) {
    c.msgs_received += 1;
    c.bytes_received += msg.data.len() as u64;
    recv.slot.fill(msg);
}

// ---------------------------------------------------------------- bucketed

/// The largest capacity a spare bucket keeps: a one-off burst's queue is
/// freed, not pinned. No benchmark workload comes near it: the deepest
/// bucket any of them builds holds 64 entries (EXPERIMENTS.md,
/// "Reliability timers at cycle-counter cost", review round).
const SPARE_CAPACITY: usize = 256;

/// Emptied buckets, capacity kept, for the next bucket to reuse. Every
/// spare was a live bucket and a bucket is made only when there is no
/// spare, so spares plus live buckets never exceed the most buckets that
/// were ever live at once.
#[derive(Debug)]
struct Spares<T>(Vec<VecDeque<T>>);

impl<T> Default for Spares<T> {
    fn default() -> Self {
        Spares(Vec::new())
    }
}

impl<T> Spares<T> {
    /// An empty bucket: a spare, or a new one.
    fn take(&mut self) -> VecDeque<T> {
        self.0.pop().unwrap_or_default()
    }

    /// Park an emptied bucket, unless a burst made it too big.
    fn put(&mut self, bucket: VecDeque<T>) {
        debug_assert!(bucket.is_empty());
        if bucket.capacity() <= SPARE_CAPACITY {
            self.0.push(bucket);
        }
    }
}

/// O(1) hash-bucketed matcher. See the module docs for the invariants.
#[derive(Debug, Default)]
pub struct BucketedMatcher {
    /// Next post-order sequence number.
    post_seq: u64,
    /// Next arrival-order sequence number.
    arrival_seq: u64,
    /// Fully-specified posted receives (`ignore == 0`), bucketed by match
    /// bits; each bucket is FIFO in post order.
    exact: BitsMap<VecDeque<PostedEntry>>,
    /// Wildcard posted receives, FIFO in post order.
    wild: VecDeque<PostedEntry>,
    /// Total posted receives across `exact` and `wild` — kept as a running
    /// count so depth bookkeeping stays O(1) (summing bucket lengths would
    /// reintroduce an O(buckets) walk on the critical path).
    posted_count: usize,
    /// Unexpected messages with their arrival seqs, bucketed by match
    /// bits; each bucket is FIFO in arrival order.
    unexpected: BitsMap<VecDeque<(u64, TaggedMessage)>>,
    /// Unexpected messages across `unexpected`'s buckets (a running count,
    /// like `posted_count`).
    unexpected_count: usize,
    /// `(seq, bits)` of every unexpected arrival, oldest first, for
    /// wildcard probes. Entries whose message was taken are dropped lazily
    /// ([`queued`] tells them apart); after every take at most half of
    /// the log is such dead entries.
    arrivals: VecDeque<(u64, u64)>,
    /// Emptied buckets of `exact` and of `unexpected`.
    spare_posted: Spares<PostedEntry>,
    spare_unexpected: Spares<(u64, TaggedMessage)>,
}

impl BucketedMatcher {
    fn deliver(&mut self, msg: TaggedMessage, c: &mut MatchCounters) -> bool {
        // Candidate 2 first (cheap when `wild` is empty, the common case):
        // the oldest wildcard receive that matches.
        let wild_hit = self
            .wild
            .iter()
            .position(|e| e.recv.matches(msg.match_bits))
            .map(|i| (i, self.wild[i].seq));
        // Candidate 1: front of the exact bucket for these bits (oldest
        // fully-specified receive that matches). One hash lookup serves
        // the check, the pop, and the empty-bucket cleanup.
        let entry = match self.exact.entry(msg.match_bits) {
            Entry::Occupied(mut bucket) => {
                let exact_seq = bucket.get().front().expect("buckets are never empty").seq;
                match wild_hit {
                    // Both match: the older post (lower seq) wins, per MPI
                    // order.
                    Some((wi, ws)) if ws < exact_seq => {
                        c.wildcard_matches += 1;
                        self.wild.remove(wi).expect("index valid")
                    }
                    _ => {
                        c.bucket_hits += 1;
                        let entry = bucket.get_mut().pop_front().expect("front exists");
                        if bucket.get().is_empty() {
                            self.spare_posted.put(bucket.remove());
                        }
                        entry
                    }
                }
            }
            Entry::Vacant(_) => match wild_hit {
                Some((wi, _)) => {
                    c.wildcard_matches += 1;
                    self.wild.remove(wi).expect("index valid")
                }
                None => {
                    c.unexpected += 1;
                    let seq = self.arrival_seq;
                    self.arrival_seq += 1;
                    let spares = &mut self.spare_unexpected;
                    self.arrivals.push_back((seq, msg.match_bits));
                    (self.unexpected.entry(msg.match_bits))
                        .or_insert_with(|| spares.take())
                        .push_back((seq, msg));
                    self.unexpected_count += 1;
                    MatchCounters::raise_max(
                        &mut c.max_unexpected_depth,
                        self.unexpected_count as u64,
                    );
                    return false;
                }
            },
        };
        self.posted_count -= 1;
        fill(entry.recv, msg, c);
        true
    }

    fn post(&mut self, probe: PostedRecv, c: &mut MatchCounters) -> Option<TaggedMessage> {
        if let Some(bits) = self.find_unexpected(probe.match_bits, probe.ignore) {
            if probe.ignore == 0 {
                c.bucket_hits += 1;
            } else {
                c.wildcard_matches += 1;
            }
            return Some(self.take_unexpected(bits));
        }
        let seq = self.post_seq;
        self.post_seq += 1;
        let entry = PostedEntry { seq, recv: probe };
        if entry.recv.ignore == 0 {
            let spares = &mut self.spare_posted;
            (self.exact.entry(entry.recv.match_bits))
                .or_insert_with(|| spares.take())
                .push_back(entry);
        } else {
            self.wild.push_back(entry);
        }
        self.posted_count += 1;
        MatchCounters::raise_max(&mut c.max_posted_depth, self.posted_count as u64);
        None
    }

    fn peek(&self, bits: u64, ignore: u64) -> Option<&TaggedMessage> {
        let bits = self.find_unexpected(bits, ignore)?;
        self.unexpected[&bits].front().map(|(_, m)| m)
    }

    fn dequeue(&mut self, bits: u64, ignore: u64) -> Option<TaggedMessage> {
        let bits = self.find_unexpected(bits, ignore)?;
        Some(self.take_unexpected(bits))
    }

    /// The match bits of the bucket whose front is the oldest unexpected
    /// message matching the probe.
    fn find_unexpected(&self, bits: u64, ignore: u64) -> Option<u64> {
        if ignore == 0 {
            // Exact probe: the bucket front is the oldest with these bits.
            self.unexpected.contains_key(&bits).then_some(bits)
        } else {
            // Wildcard probe: the first queued match in arrival order. Its
            // bucket's front is that very message (fronts are taken first).
            (self.arrivals.iter())
                .find(|&&(seq, b)| {
                    (b | ignore) == (bits | ignore) && queued(&self.unexpected, seq, b)
                })
                .map(|&(_, b)| b)
        }
    }

    /// Remove the front of the unexpected bucket for `bits`, chosen by
    /// [`Self::find_unexpected`]: order-respecting consumption only ever
    /// takes bucket fronts (see module docs).
    fn take_unexpected(&mut self, bits: u64) -> TaggedMessage {
        let Entry::Occupied(mut bucket) = self.unexpected.entry(bits) else {
            unreachable!("a found bucket is present");
        };
        let (seq, msg) = bucket
            .get_mut()
            .pop_front()
            .expect("buckets are never empty");
        if bucket.get().is_empty() {
            self.spare_unexpected.put(bucket.remove());
        }
        self.unexpected_count -= 1;
        // The oldest message goes first in an arrival-order drain; any other
        // leaves a dead entry behind, swept once they outnumber the queue.
        if self.arrivals.front().is_some_and(|&(s, _)| s == seq) {
            self.arrivals.pop_front();
        }
        if self.arrivals.len() > 2 * self.unexpected_count {
            let unexpected = &self.unexpected;
            self.arrivals.retain(|&(s, b)| queued(unexpected, s, b));
        }
        msg
    }

    fn cancel(&mut self, slot: &Arc<RecvSlot>) -> bool {
        if let Some(i) = self
            .wild
            .iter()
            .position(|e| Arc::ptr_eq(&e.recv.slot, slot))
        {
            self.wild.remove(i);
            self.posted_count -= 1;
            return true;
        }
        let mut hit = None;
        for (&bits, bucket) in self.exact.iter_mut() {
            if let Some(i) = bucket.iter().position(|e| Arc::ptr_eq(&e.recv.slot, slot)) {
                bucket.remove(i);
                hit = Some((bits, bucket.is_empty()));
                break;
            }
        }
        match hit {
            Some((bits, emptied)) => {
                if emptied {
                    let bucket = self.exact.remove(&bits).expect("hit in this bucket");
                    self.spare_posted.put(bucket);
                }
                self.posted_count -= 1;
                true
            }
            None => false,
        }
    }
}

/// Whether the unexpected message that arrived as `seq` with match bits
/// `bits` is still queued: buckets are consumed from the front, so it is
/// iff its bucket exists and the front is no newer than it.
fn queued(unexpected: &BitsMap<VecDeque<(u64, TaggedMessage)>>, seq: u64, bits: u64) -> bool {
    (unexpected.get(&bits)).is_some_and(|q| q.front().is_some_and(|&(s, _)| s <= seq))
}

// ------------------------------------------------------------------ linear

/// The original O(depth) matcher: posted receives in a post-order vector,
/// unexpected messages in an arrival-order deque, every lookup a scan.
#[derive(Debug, Default)]
pub struct LinearMatcher {
    posted: Vec<PostedRecv>,
    unexpected: VecDeque<TaggedMessage>,
}

impl LinearMatcher {
    fn deliver(&mut self, msg: TaggedMessage, c: &mut MatchCounters) -> bool {
        if let Some(pos) = self.posted.iter().position(|p| p.matches(msg.match_bits)) {
            let posted = self.posted.remove(pos);
            if posted.ignore == 0 {
                c.bucket_hits += 1;
            } else {
                c.wildcard_matches += 1;
            }
            fill(posted, msg, c);
            true
        } else {
            c.unexpected += 1;
            self.unexpected.push_back(msg);
            MatchCounters::raise_max(&mut c.max_unexpected_depth, self.unexpected.len() as u64);
            false
        }
    }

    fn post(&mut self, probe: PostedRecv, c: &mut MatchCounters) -> Option<TaggedMessage> {
        if let Some(pos) = self
            .unexpected
            .iter()
            .position(|m| probe.matches(m.match_bits))
        {
            if probe.ignore == 0 {
                c.bucket_hits += 1;
            } else {
                c.wildcard_matches += 1;
            }
            return Some(self.unexpected.remove(pos).expect("position valid"));
        }
        self.posted.push(probe);
        MatchCounters::raise_max(&mut c.max_posted_depth, self.posted.len() as u64);
        None
    }

    fn peek(&self, bits: u64, ignore: u64) -> Option<&TaggedMessage> {
        self.unexpected
            .iter()
            .find(|m| (m.match_bits | ignore) == (bits | ignore))
    }

    fn dequeue(&mut self, bits: u64, ignore: u64) -> Option<TaggedMessage> {
        let pos = self
            .unexpected
            .iter()
            .position(|m| (m.match_bits | ignore) == (bits | ignore))?;
        self.unexpected.remove(pos)
    }

    fn cancel(&mut self, slot: &Arc<RecvSlot>) -> bool {
        if let Some(pos) = self.posted.iter().position(|p| Arc::ptr_eq(&p.slot, slot)) {
            self.posted.remove(pos);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::NetAddr;
    use bytes::Bytes;

    fn msg(bits: u64, payload: &'static [u8]) -> TaggedMessage {
        TaggedMessage {
            src: NetAddr(0),
            match_bits: bits,
            data: Bytes::from_static(payload),
        }
    }

    fn recv(bits: u64, ignore: u64) -> PostedRecv {
        PostedRecv {
            match_bits: bits,
            ignore,
            slot: Arc::new(RecvSlot::default()),
        }
    }

    fn engines() -> [MatchEngine; 2] {
        [
            MatchEngine::new(MatcherKind::Bucketed),
            MatchEngine::new(MatcherKind::Linear),
        ]
    }

    #[test]
    fn exact_match_is_fifo_within_bucket() {
        for mut e in engines() {
            let r1 = recv(5, 0);
            let s1 = r1.slot.clone();
            let r2 = recv(5, 0);
            let s2 = r2.slot.clone();
            assert!(e.post(r1).is_none());
            assert!(e.post(r2).is_none());
            assert!(e.deliver(msg(5, b"a")));
            assert!(e.deliver(msg(5, b"b")));
            assert_eq!(&s1.take().unwrap().data[..], b"a");
            assert_eq!(&s2.take().unwrap().data[..], b"b");
        }
    }

    #[test]
    fn older_wildcard_beats_newer_exact() {
        for mut e in engines() {
            let wild = recv(0, u64::MAX);
            let ws = wild.slot.clone();
            let exact = recv(7, 0);
            let es = exact.slot.clone();
            assert!(e.post(wild).is_none());
            assert!(e.post(exact).is_none());
            // The wildcard was posted first, so it must win the message.
            assert!(e.deliver(msg(7, b"x")));
            assert!(ws.is_filled());
            assert!(!es.is_filled());
        }
    }

    #[test]
    fn older_exact_beats_newer_wildcard() {
        for mut e in engines() {
            let exact = recv(7, 0);
            let es = exact.slot.clone();
            let wild = recv(0, u64::MAX);
            let ws = wild.slot.clone();
            assert!(e.post(exact).is_none());
            assert!(e.post(wild).is_none());
            assert!(e.deliver(msg(7, b"x")));
            assert!(es.is_filled());
            assert!(!ws.is_filled());
        }
    }

    #[test]
    fn unexpected_consumed_in_arrival_order() {
        for mut e in engines() {
            assert!(!e.deliver(msg(3, b"first")));
            assert!(!e.deliver(msg(9, b"mid")));
            assert!(!e.deliver(msg(3, b"second")));
            // Wildcard post takes the globally oldest.
            let got = e.post(recv(0, u64::MAX)).unwrap();
            assert_eq!(&got.data[..], b"first");
            // Exact post skips the nonmatching tag-9 message.
            let got = e.post(recv(3, 0)).unwrap();
            assert_eq!(&got.data[..], b"second");
            assert_eq!(e.unexpected_len(), 1);
        }
    }

    #[test]
    fn peek_and_dequeue_agree_and_respect_masks() {
        for mut e in engines() {
            e.deliver(msg(0xAB12, b"m"));
            assert!(e.peek(0xFF00, 0xFF).is_none());
            assert_eq!(e.peek(0xAB00, 0xFF).unwrap().match_bits, 0xAB12);
            assert!(e.dequeue(0xFF00, 0xFF).is_none());
            assert_eq!(e.dequeue(0xAB00, 0xFF).unwrap().match_bits, 0xAB12);
            assert_eq!(e.unexpected_len(), 0);
        }
    }

    #[test]
    fn cancel_removes_only_the_target() {
        for mut e in engines() {
            let keep = recv(1, 0);
            let keep_slot = keep.slot.clone();
            let gone_exact = recv(1, 0);
            let gone_exact_slot = gone_exact.slot.clone();
            let gone_wild = recv(0, u64::MAX);
            let gone_wild_slot = gone_wild.slot.clone();
            e.post(keep);
            e.post(gone_exact);
            e.post(gone_wild);
            assert!(e.cancel(&gone_exact_slot));
            assert!(e.cancel(&gone_wild_slot));
            assert!(!e.cancel(&gone_exact_slot), "already cancelled");
            assert_eq!(e.posted_len(), 1);
            assert!(e.deliver(msg(1, b"z")));
            assert!(keep_slot.is_filled());
        }
    }

    #[test]
    fn bucketed_internal_maps_do_not_leak_empty_buckets() {
        let mut c = MatchCounters::default();
        let mut m = BucketedMatcher::default();
        for i in 0..64u64 {
            assert!(m.post(recv(i, 0), &mut c).is_none());
        }
        for i in 0..64u64 {
            assert!(m.deliver(msg(i, b""), &mut c));
        }
        assert!(m.exact.is_empty());
        assert_eq!(m.posted_count, 0);
        for i in 0..64u64 {
            assert!(!m.deliver(msg(i, b""), &mut c));
        }
        for i in 0..64u64 {
            assert!(m.dequeue(i, 0).is_some());
        }
        assert!(m.unexpected.is_empty());
        assert_eq!(m.unexpected_count, 0);
        assert!(m.arrivals.is_empty());
        // Every bucket that was live is parked, and no more.
        assert_eq!(m.spare_posted.0.len(), 64);
        assert_eq!(m.spare_unexpected.0.len(), 64);
    }

    #[test]
    fn a_warm_window_from_many_peers_makes_no_new_bucket() {
        // One bucket per peer, as when the source rank is in the match bits:
        // the second round must take every bucket from the spares.
        let mut c = MatchCounters::default();
        let mut m = BucketedMatcher::default();
        let peers = 4 * 64u64;
        let bits = |p: u64, tag: u64| (p << 32) | tag;
        for _round in 0..2 {
            for p in 0..peers {
                assert!(m.post(recv(bits(p, 7), 0), &mut c).is_none());
                assert!(!m.deliver(msg(bits(p, 8), b""), &mut c));
            }
            assert_eq!(m.spare_posted.0.len(), 0);
            assert_eq!(m.spare_unexpected.0.len(), 0);
            for p in 0..peers {
                assert!(m.deliver(msg(bits(p, 7), b""), &mut c));
                let any_source = m.dequeue(8, !0 << 32).map(|m| m.match_bits);
                assert_eq!(any_source, Some(bits(p, 8)), "oldest first");
            }
            assert_eq!(m.spare_posted.0.len(), peers as usize);
            assert_eq!(m.spare_unexpected.0.len(), peers as usize);
        }
        // A burst past the capacity bound is freed, not parked.
        for _ in 0..=SPARE_CAPACITY {
            m.deliver(msg(3, b""), &mut c);
        }
        for _ in 0..=SPARE_CAPACITY {
            assert!(m.dequeue(3, 0).is_some());
        }
        assert_eq!(m.spare_unexpected.0.len(), peers as usize - 1);
    }

    #[test]
    fn wildcard_probes_skip_messages_taken_by_exact_probes() {
        let mut c = MatchCounters::default();
        let mut m = BucketedMatcher::default();
        for i in 0..100u64 {
            assert!(!m.deliver(msg(i, b""), &mut c));
        }
        // Take the even messages but the first by their exact bits, newest
        // first: each leaves a dead log entry that is not at the front.
        for i in (1..50u64).rev().map(|k| 2 * k) {
            assert!(m.dequeue(i, 0).is_some());
        }
        assert!(m.arrivals.len() <= 2 * m.unexpected_count, "swept");
        // A wildcard probe still sees the rest in arrival order, and a
        // message that arrives later with bits 2 is newer than all of them.
        assert!(!m.deliver(msg(2, b""), &mut c));
        for i in std::iter::once(0).chain((1..100u64).step_by(2)) {
            assert_eq!(m.peek(0, !0).map(|m| m.match_bits), Some(i));
            assert_eq!(m.dequeue(0, !0).map(|m| m.match_bits), Some(i));
        }
        assert_eq!(m.dequeue(0, !0).map(|m| m.match_bits), Some(2));
        assert!(m.arrivals.is_empty() && m.unexpected.is_empty());
    }

    #[test]
    fn counters_classify_bucket_vs_wildcard() {
        let mut m = MatchEngine::new(MatcherKind::Bucketed);
        m.post(recv(1, 0));
        m.deliver(msg(1, b"")); // bucket hit
        m.post(recv(0, u64::MAX));
        m.deliver(msg(2, b"")); // wildcard match
        m.deliver(msg(3, b"")); // unexpected
        m.post(recv(3, 0)); // bucket hit from unexpected
        let c = m.counters();
        assert_eq!(c.bucket_hits, 2);
        assert_eq!(c.wildcard_matches, 1);
        assert_eq!(c.unexpected, 1);
        assert_eq!(c.max_unexpected_depth, 1);
        assert_eq!(c.max_posted_depth, 1);
        assert_eq!(c.msgs_received, 3);
    }
}
