//! Endpoints: the per-rank handle onto the fabric.
//!
//! An [`Endpoint`] corresponds to a libfabric endpoint bound to completion
//! and receive queues. The transport is an in-process mailbox per endpoint.
//! Matching happens *sender-side under the receiver's tag lock*, which
//! models a NIC/firmware doing receiver-side matching without waking the
//! host thread — the PSM2 behaviour the CH4/OFI netmod depends on.
//!
//! ## Locking
//!
//! Endpoint state is split across independent mutexes so unrelated traffic
//! classes never contend (the paper's "fast-path critical section"
//! discipline, §3.6), and the whole tagged-channel lock set is replicated
//! per *virtual communication interface* ([VCI](crate::vci)) so injector
//! threads driving different communicators never share a lock either:
//!
//! * **tag** (per VCI) — the tag-matching engine (posted receives +
//!   unexpected messages). The pt2pt critical path takes only this lock.
//! * **am** (endpoint-wide) — the active-message queue. The progress
//!   engine's `am_poll` spins here without slowing tagged traffic. AMs
//!   carry RMA and PSCW control traffic whose per-pair FIFO the layers
//!   above rely on, so the queue is deliberately *not* sharded; all AM
//!   packets travel on VCI 0.
//! * **jitter** (per VCI) — the deferred-delivery state of the jitter
//!   stress mode. Untouched when jitter is off (the common case): every
//!   entry point checks a cached `jitter_enabled` flag first, so
//!   production profiles pay a single predictable branch, not a lock
//!   acquisition.
//! * **relia** (per VCI) — the reliability/fault state. Each VCI is its
//!   own reliability domain with independent per-link sequence spaces;
//!   ACKs return on the VCI that carried the data packet.
//!
//! Lock order where two are needed: **relia → jitter → tag** and
//! **relia → am**, everywhere, always within a single VCI. The
//! reliability window delivers what it releases under its own lock, and a
//! jitter flush holds the jitter lock across the tag-side delivery: both
//! keep release-then-deliver atomic with respect to other senders,
//! preserving per-(src,dst) FIFO. Locks of different VCIs are never held
//! simultaneously.
//!
//! With `num_vcis == 1` (the default) every operation maps to VCI 0 and
//! the endpoint is byte-for-byte the paper's single serialized channel:
//! same lock count, same seeds, same charges, and the per-VCI contention
//! counters are never touched.
//!
//! ## Completion events
//!
//! Every change that can complete something a rank waits on bumps the
//! event count (`event_count.rs`) of the waiter's endpoint: a tagged
//! delivery (one that jitter holds back too — the receiver's progress
//! releases it), an AM arrival, a peer declared dead, the kill switch, a
//! job-wide countdown or abort, and, through [`Endpoint::signal_peer`],
//! what the layers above complete without a packet (a rendezvous pull, a
//! freed RMA lock word, active messages handled by another thread of the
//! rank, a revocation). An event count is an epoch and a count of
//! sleepers. A bump that finds no sleeper is an atomic add and a load; only
//! one that finds a sleeper takes a lock and makes the wake-up system call
//! ([`StatsSnapshot::event_wakes`] counts those). No message-passing
//! workload of the repo benchmark parks, so a delivery enters the kernel
//! for nobody. Every blocking call waits for them in
//! [`Endpoint::wait_until`] (`wait.rs`), and a sleep ends only at an event
//! or at a timer.
//!
//! ## Reliability timers
//!
//! A VCI's reliability work is driven by ticks (`tick_relia`): after
//! every reliable send, on every progress pass, and in the waits. Each
//! VCI keeps an earliest-due word beside its `relia` lock, a lower bound
//! on when the next retransmit timer, owed ACK or reorder stash falls due,
//! so a tick before it costs an atomic load and takes no lock. A tick that
//! does lock stores the exact next deadline at the end of its locked
//! section. Every site that makes work due lowers the word under the same
//! lock before releasing it: a send that arms an idle link's timer, an ACK
//! that re-arms a timer one RTO out, a delivery or duplicate that leaves
//! ACK debt, and a reorder stash. The event that announces such work is
//! raised after the lowering, so a tick that read a stale word is followed
//! by one that does not. Time comes from `Fabric::now_us`, the
//! cycle-counter clock of `fabric.rs`; a cumulative ACK reads it only when
//! it retires something (`LinkTx::retires`), which a piggybacked ACK
//! usually does not.

use crate::addr::NetAddr;
use crate::event_count::EventCount;
use crate::fabric::{Fabric, KillVerdict};
use crate::health::{HealthAction, HealthMonitor, HealthState};
use crate::matching::MatchEngine;
use crate::packet::{AmMessage, PostedRecv, SlotLease, TaggedMessage};
use crate::region::{MemoryRegion, RdmaAtomicOp, RegionKey, RegistrationCache};
use crate::reliability::{Link, PacketBody, Pending, ReliaState, RxVerdict, TxTick, WirePacket};
use crate::stats::{EndpointStats, StatsSnapshot};
use bytes::Bytes;
use litempi_instr::{charge, cost as icost, Category};
use litempi_trace::EventKind;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::cost::{MatcherKind, ProviderProfile};

/// Upper bound on registrations the per-endpoint pin-down cache holds
/// (bounded pinned-memory footprint, as in real registration caches).
const REG_CACHE_CAPACITY: usize = 32;

/// One virtual communication interface: a full copy of the tagged-channel
/// state (matching engine, jitter, completion epoch, reliability domain).
/// The endpoint owns `n_vcis` of these; traffic is mapped onto them by
/// [`vci_for_bits`](crate::vci::vci_for_bits).
#[derive(Debug)]
pub(crate) struct VciState {
    /// Tag-matching engine (posted receives + unexpected messages).
    tag: Mutex<MatchEngine>,
    /// Jitter-mode deferred-delivery state.
    jitter: Mutex<JitterState>,
    /// Completion events: the epoch bumped on every delivery/arrival on
    /// this VCI, and the waiters parked on it.
    pub(crate) events: EventCount,
    /// Lossy/reliable-path state (fault RNGs, link state machines). Empty
    /// and never locked when `routed` is false.
    pub(crate) relia: Mutex<ReliaState>,
    /// Earliest-due word: a lower bound (fabric µs) on when `relia` next
    /// needs a tick, `0` for work due at once, `u64::MAX` for none. A tick
    /// before it takes no lock ([`tick_relia`]), and a waiter sizes its
    /// sleep by it ([`VciState::relia_due_at`]). Written only under the
    /// `relia` lock: a tick stores [`ReliaState::next_deadline`] at the end
    /// of its locked section, and every site that makes work due lowers
    /// it ([`VciState::lower_due`]) before releasing the lock. It
    /// publishes no data (the lock does), so it is read and written
    /// relaxed: a reader that sees a stale value is followed by one that
    /// does not, because the event that announces the work is raised after
    /// the store and read before the next look.
    relia_due: AtomicU64,
}

impl VciState {
    /// Work on this VCI's reliability state falls due at `due` (fabric µs).
    /// The caller holds the `relia` lock.
    #[inline]
    fn lower_due(&self, due: u64) {
        if due < self.relia_due.load(Ordering::Relaxed) {
            self.relia_due.store(due, Ordering::Relaxed);
        }
    }

    /// When `relia` next needs a tick, at `now` (fabric µs; `None`: no
    /// work pending), for a waiter's sleep budget. This is the earliest-due
    /// word: exact after a tick that took the lock, otherwise early, so a
    /// sleep it sizes may end early but never late. Only a word that says
    /// "due" is re-derived under the lock: a lowering may have been for
    /// work that is gone since (an owed ACK that a send piggybacked), and
    /// a sleeper that believed it would not sleep at all.
    pub(crate) fn relia_due_at(&self, now: u64) -> Option<u64> {
        let mut due = self.relia_due.load(Ordering::Relaxed);
        if due <= now {
            let st = self.relia.lock();
            due = st.next_deadline(now).unwrap_or(u64::MAX);
            self.relia_due.store(due, Ordering::Relaxed);
        }
        (due != u64::MAX).then_some(due)
    }
}

/// Shared state of one endpoint (owned by the fabric).
#[derive(Debug)]
pub(crate) struct EndpointShared {
    /// The sharded tagged-channel state. Always at least one entry; entry 0
    /// is the paper's original single channel.
    pub(crate) vcis: Box<[VciState]>,
    /// `vcis.len()`, hoisted (the VCI hash divides by it on every op).
    n_vcis: usize,
    /// `n_vcis > 1`, hoisted like `jitter_enabled`: the single-VCI fast
    /// path pays one predictable branch for the whole VCI feature.
    multi_vci: bool,
    /// Pending active messages, in arrival order. Endpoint-wide: AMs carry
    /// RMA/PSCW control traffic whose FIFO must not be sharded.
    am: Mutex<VecDeque<AmMessage>>,
    /// Cached `profile.jitter_seed.is_some()` — the hoisted check that
    /// keeps jitter bookkeeping entirely off the non-jitter fast path.
    jitter_enabled: bool,
    /// Cached `profile.reliability.enabled`.
    relia_enabled: bool,
    /// Cached `!profile.faults.is_none()`.
    lossy_enabled: bool,
    /// `relia_enabled || lossy_enabled` — the single hoisted branch the
    /// default fast path pays, mirroring `jitter_enabled`.
    pub(crate) routed: bool,
    /// Hoisted from the profile's trace opt-in, mirroring
    /// `jitter_enabled`: event sites cost one predictable branch when
    /// tracing is off.
    trace_enabled: bool,
    /// Cached `profile.health.enabled` — the hoisted check that keeps the
    /// failure detector entirely off the fault-free fast path.
    pub(crate) health_enabled: bool,
    /// The heartbeat failure detector. Empty and never locked when
    /// `health_enabled` is false.
    pub(crate) health: Mutex<HealthMonitor>,
    /// Retry-exhaustion verdicts on any VCI, bumped under that VCI's
    /// `relia` lock where a link is marked dead. Zero in a healthy job, so
    /// [`Endpoint::peer_unreachable`] locks no VCI until it moves.
    relia_deaths: AtomicU32,
    /// Per-peer pin-down cache for RDMA transport buffers (rendezvous
    /// staging). Touched only by the large-message path — eager traffic
    /// never reaches it.
    reg_cache: RegistrationCache,
    /// The idle event of the worker thread hosting this endpoint's rank
    /// among others (`task.rs`), bumped by every event that finds a waiter.
    host: Mutex<Option<Arc<EventCount>>>,
    pub(crate) stats: EndpointStats,
}

#[derive(Debug, Default)]
struct JitterState {
    /// Messages whose delivery is deferred (insertion order).
    deferred: Vec<TaggedMessage>,
    /// xorshift64 state for the jitter decision.
    rng: u64,
}

impl JitterState {
    fn next_rand(&mut self) -> u64 {
        // xorshift64: deterministic, seeded per endpoint.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// Remove and return deferred messages from `src` (or all, if `src` is
    /// `None`), preserving insertion order within the taken subset.
    fn take_deferred(&mut self, src: Option<NetAddr>) -> Vec<TaggedMessage> {
        if self.deferred.is_empty() {
            return Vec::new();
        }
        match src {
            None => std::mem::take(&mut self.deferred),
            Some(s) => {
                // Partition by move: deferred payloads must not be cloned
                // just to change queues.
                let (taken, kept) = std::mem::take(&mut self.deferred)
                    .into_iter()
                    .partition(|m| m.src == s);
                self.deferred = kept;
                taken
            }
        }
    }
}

impl EndpointShared {
    pub(crate) fn new(profile: &ProviderProfile, addr: NetAddr, n: usize, n_vcis: usize) -> Self {
        let n_vcis = n_vcis.max(1);
        let base_rng = profile
            .jitter_seed
            .map(|s| s ^ (addr.0 as u64).wrapping_mul(0x9E3779B97F4A7C15))
            .unwrap_or(0);
        let relia_enabled = profile.reliability.enabled;
        let lossy_enabled = !profile.faults.is_none();
        let vcis = (0..n_vcis)
            .map(|vci| {
                // VCI 0 seeds exactly as the unsharded endpoint did, keeping
                // `num_vcis == 1` byte-identical to the original; higher VCIs
                // mix the shard index in (nonzero-guarded for xorshift).
                let rng = if vci == 0 {
                    base_rng
                } else {
                    (base_rng ^ (vci as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1
                };
                VciState {
                    tag: Mutex::new(MatchEngine::new(MatcherKind::Bucketed)),
                    jitter: Mutex::new(JitterState {
                        deferred: Vec::new(),
                        rng,
                    }),
                    events: EventCount::new(),
                    relia: Mutex::new(ReliaState::new_vci(profile, addr, vci)),
                    relia_due: AtomicU64::new(u64::MAX),
                }
            })
            .collect();
        EndpointShared {
            vcis,
            n_vcis,
            multi_vci: n_vcis > 1,
            am: Mutex::new(VecDeque::new()),
            jitter_enabled: profile.jitter_seed.is_some(),
            relia_enabled,
            lossy_enabled,
            routed: relia_enabled || lossy_enabled,
            trace_enabled: profile.trace.enabled,
            health_enabled: profile.health.enabled,
            health: Mutex::new(HealthMonitor::new(profile.health, addr.index(), n)),
            relia_deaths: AtomicU32::new(0),
            reg_cache: RegistrationCache::new(REG_CACHE_CAPACITY),
            host: Mutex::new(None),
            stats: EndpointStats::default(),
        }
    }

    /// The VCI this match-bits pattern lives on.
    #[inline]
    fn vci_of(&self, bits: u64) -> usize {
        crate::vci::vci_for_bits(bits, self.n_vcis)
    }

    /// Acquire `vci`'s tag lock, counting acquisitions and shard-level
    /// contention when more than one VCI exists. The single-VCI path is the
    /// original bare `lock()` — no counter traffic, no extra branches past
    /// the hoisted `multi_vci` check.
    fn lock_tag(&self, vci: usize) -> parking_lot::MutexGuard<'_, MatchEngine> {
        let st = &self.vcis[vci];
        if !self.multi_vci {
            return st.tag.lock();
        }
        EndpointStats::bump(&self.stats.vci_acquires[vci], 1);
        match st.tag.try_lock() {
            Some(g) => g,
            None => {
                EndpointStats::bump(&self.stats.vci_contended[vci], 1);
                if self.trace_enabled {
                    litempi_trace::emit(EventKind::VciContend, vci as u64, 1);
                }
                st.tag.lock()
            }
        }
    }

    /// Announce that something completion-worthy happened on `vci`.
    fn bump_event(&self, vci: usize) {
        let mut wakes = u64::from(self.vcis[vci].events.bump());
        if self.multi_vci && vci != 0 {
            // Endpoint-wide waiters (progress loops watching the summed
            // epoch) park on VCI 0; wake them too.
            wakes += u64::from(self.vcis[0].events.notify());
        }
        if wakes != 0 {
            EndpointStats::bump(&self.stats.event_wakes, wakes);
            // The waiter may be the idle worker hosting this endpoint's
            // rank ([`Self::watch_events`]).
            if let Some(host) = &*self.host.lock() {
                host.bump();
            }
        }
    }

    /// Hand events on this endpoint on to `idle`, the event its hosting
    /// worker sleeps on when it is idle.
    pub(crate) fn set_host(&self, idle: Arc<EventCount>) {
        *self.host.lock() = Some(idle);
    }

    /// Count (`on`) or stop counting the hosting worker as a waiter on this
    /// endpoint's events, so that each one also bumps the host's idle
    /// event. VCI 0 suffices: a bump on any VCI also notifies it.
    pub(crate) fn watch_events(&self, on: bool) {
        self.vcis[0].events.watch(on);
    }

    /// Wake every VCI's waiters (used for endpoint-global state changes
    /// such as a peer being declared dead).
    pub(crate) fn bump_event_all(&self) {
        for vci in 0..self.n_vcis {
            self.bump_event(vci);
        }
    }

    /// The endpoint-wide completion epoch: VCI 0's epoch in the common
    /// single-VCI case, the sum over shards otherwise (monotonic, since
    /// each per-VCI epoch only grows).
    pub(crate) fn event_epoch(&self) -> u64 {
        if !self.multi_vci {
            return self.vcis[0].events.epoch();
        }
        self.vcis.iter().map(|v| v.events.epoch()).sum()
    }

    /// Deliver `vci`'s jitter-deferred messages from `src` (or all). No-op
    /// when jitter is off — the hoisted `jitter_enabled` check means
    /// disabled profiles never touch the jitter lock.
    fn flush_deferred(&self, vci: usize, src: Option<NetAddr>) {
        if !self.jitter_enabled {
            return;
        }
        let jit = self.vcis[vci].jitter.lock();
        self.flush_deferred_locked(vci, jit, src);
    }

    /// Flush every VCI's deferred queue (progress paths that are not
    /// shard-specific).
    fn flush_deferred_all(&self, src: Option<NetAddr>) {
        if !self.jitter_enabled {
            return;
        }
        for vci in 0..self.n_vcis {
            self.flush_deferred(vci, src);
        }
    }

    /// Flush with `vci`'s jitter lock already held (lock order: jitter →
    /// tag, within one VCI).
    fn flush_deferred_locked(
        &self,
        vci: usize,
        mut jit: parking_lot::MutexGuard<'_, JitterState>,
        src: Option<NetAddr>,
    ) {
        let flush = jit.take_deferred(src);
        if flush.is_empty() {
            return;
        }
        let mut tag = self.lock_tag(vci);
        for m in flush {
            self.engine_deliver(&mut tag, m);
        }
        drop(tag);
        drop(jit);
        self.bump_event(vci);
    }

    /// Deliver a tagged message into `vci`'s matching engine, honoring
    /// jitter mode (which may defer it). Either way the event is raised: a
    /// deferred message is the receiver's progress away from its engine.
    /// Runs on the *sender's* thread, modeling NIC-side matching. The
    /// caller derives `vci` from the message's match bits, so a message
    /// and the receive that matches it always meet in the same engine.
    fn deliver_tagged(&self, vci: usize, msg: TaggedMessage) {
        if self.jitter_enabled {
            // Jitter mode: maybe hold this message back to let later
            // messages from *other* sources overtake it (legal for MPI —
            // only per-pair order is guaranteed).
            let mut jit = self.vcis[vci].jitter.lock();
            if jit.next_rand() & 1 == 0 {
                jit.deferred.push(msg);
            } else {
                // Deliver: first release anything older from the same
                // source so per-pair FIFO is preserved. The jitter lock is
                // held across the tag-side delivery (jitter → tag) so no
                // concurrent sender can interleave between flush and
                // deliver.
                let flush = jit.take_deferred(Some(msg.src));
                let mut tag = self.lock_tag(vci);
                for m in flush {
                    self.engine_deliver(&mut tag, m);
                }
                self.engine_deliver(&mut tag, msg);
            }
        } else {
            self.engine_deliver(&mut self.lock_tag(vci), msg);
        }
        self.bump_event(vci);
    }

    /// Deliver into the matching engine, emitting the match-outcome
    /// trace event (hit with posted depth, or unexpected with queue
    /// depth) when tracing is on. Events land on the executing thread's
    /// ring — the sender's for NIC-side matching, per the onload model.
    fn engine_deliver(&self, tag: &mut MatchEngine, msg: TaggedMessage) {
        if !self.trace_enabled {
            tag.deliver(msg);
            return;
        }
        let bits = msg.match_bits;
        if tag.deliver(msg) {
            litempi_trace::emit(EventKind::MatchHit, bits, tag.posted_len() as u64);
        } else {
            litempi_trace::emit(
                EventKind::MatchUnexpected,
                bits,
                tag.unexpected_len() as u64,
            );
        }
    }

    /// Deliver an active message into this endpoint's AM queue. AMs are
    /// not sharded; their completion event lands on VCI 0 (the shard all
    /// AM packets travel on).
    fn deliver_am(&self, msg: AmMessage) {
        self.am.lock().push_back(msg);
        self.bump_event(0);
    }
}

// ---------------------------------------------------------- packet path
//
// When a profile enables fault injection and/or the reliability protocol,
// tagged and active messages travel as [`WirePacket`]s through the
// functions below instead of being handed straight to the peer's queues.
// These are free functions over `&Fabric` (not `Endpoint` methods) so the
// blocking wait loops can drive retransmission too.
//
// Lock discipline: at most one endpoint's `relia` mutex is ever held, and
// nothing is transmitted while holding it; what the window releases is
// delivered into the receiver's queues under it. ACK processing retires
// retransmit entries; the fast resends a SACK calls for are picked under
// the lock and go out after it is released. The sender→receiver→ACK→sender
// chain terminates without lock cycles: a hole is fast-resent at most once
// per recovery episode, and a gap's immediate ACK answers data, never an
// ACK.

/// Sender-side entry: run the reliability protocol (if enabled) on `vci`'s
/// reliability domain, then hand the packet to the fault layer. The VCI is
/// stamped into the wire packet so the receiver's window and the returning
/// ACK stay on the same shard.
fn send_packet(fabric: &Fabric, src: NetAddr, dst: NetAddr, vci: usize, body: PacketBody) {
    let my = fabric.shared(src);
    let now = fabric.now_us();
    let pkt = if my.relia_enabled {
        let v = &my.vcis[vci];
        let mut st = v.relia.lock();
        if st.is_dead(dst) {
            // The peer has been declared unreachable; injections toward it
            // are black-holed (callers observe `peer_unreachable`).
            return;
        }
        charge(Category::Reliability, icost::relia::TX_HEADER);
        let crc_on = st.cfg.crc;
        let crc = if crc_on {
            charge(
                Category::Reliability,
                icost::relia::CRC_BASE
                    + icost::relia::CRC_PER_WORD * (body.payload_len() as u64).div_ceil(8),
            );
            Some(body.checksum())
        } else {
            None
        };
        let link = st.link_mut(dst);
        let seq = link.tx.prepare(body.clone(), crc, now);
        if let Some(due) = link.tx.due_at() {
            // The send armed an idle link's timer (or found it armed).
            v.lower_due(due);
        }
        charge(Category::Reliability, icost::relia::RETRANSMIT_ENQUEUE);
        // Piggyback the cumulative and selective ACK for the reverse link.
        let ack = Some(link.rx.take_ack());
        WirePacket {
            src,
            vci,
            seq,
            ack,
            sack: link.rx.sack(),
            crc,
            body: Some(body),
        }
    } else {
        // Raw lossy mode: the packet is just a carrier for the fault layer.
        WirePacket {
            src,
            vci,
            seq: 0,
            ack: None,
            sack: 0,
            crc: None,
            body: Some(body),
        }
    };
    transmit(fabric, src, dst, pkt);
    if my.relia_enabled {
        // Blocking send loops never reach the progress engine, so the
        // injection path itself must advance the retransmit clock.
        tick_relia(fabric, src, vci, now);
    }
}

/// Fault layer: decide this packet's fate with the sender's per-(VCI,link)
/// RNG, then deliver whatever survives.
fn transmit(fabric: &Fabric, src: NetAddr, dst: NetAddr, pkt: WirePacket) {
    match fabric.kill_packet(src, dst) {
        KillVerdict::Pass => transmit_live(fabric, src, dst, pkt),
        KillVerdict::Last => {
            transmit_live(fabric, src, dst, pkt);
            fabric.trip_kill();
        }
        KillVerdict::Dead => {
            EndpointStats::bump(&fabric.shared(src).stats.faults_dropped, 1);
        }
    }
}

/// [`transmit`] past the kill switch.
fn transmit_live(fabric: &Fabric, src: NetAddr, dst: NetAddr, pkt: WirePacket) {
    let sender = fabric.shared(src);
    if !sender.lossy_enabled {
        deliver_packet(fabric, dst, pkt);
        return;
    }
    let mut out: Vec<WirePacket> = Vec::new();
    let (vci, mut held_back) = (pkt.vci, false);
    {
        let mut st = sender.vcis[vci].relia.lock();
        let link = st.link_mut(dst);
        let spec = link.spec;
        if let Some(flap) = spec.flap {
            if !flap.is_up(fabric.now_us()) {
                // The link is in a flap outage window: the packet vanishes
                // on the floor. Anything parked in the reorder stash stays
                // parked (the next on-link event or timer tick flushes it).
                EndpointStats::bump(&sender.stats.faults_dropped, 1);
                return;
            }
        }
        // Any packet event on the link releases the reorder stash — the
        // overtaking it was parked for has now happened.
        let stashed = link.stash.take();
        let rng = &mut link.fault_rng;
        if rng.chance(spec.drop) {
            EndpointStats::bump(&sender.stats.faults_dropped, 1);
        } else {
            let pkt = if pkt.body.is_some() && rng.chance(spec.corrupt) {
                let pick = rng.next_u64();
                WirePacket {
                    body: pkt.body.as_ref().map(|b| b.corrupted(pick)),
                    ..pkt
                }
            } else {
                pkt
            };
            let dup = rng.chance(spec.duplicate);
            if stashed.is_none() && rng.chance(spec.reorder) {
                // Hold back until the next packet on this link (or the
                // next timer tick) so a later packet overtakes this one.
                link.stash = Some(pkt);
                held_back = true;
                sender.vcis[vci].lower_due(0);
            } else {
                if dup {
                    out.push(pkt.clone());
                }
                out.push(pkt);
            }
        }
        out.extend(stashed);
    }
    if held_back {
        // A timer armed on the sender, maybe from another thread (an ACK
        // or a probe answer goes out on the thread that delivered what it
        // answers): its owner's tick flushes it, so wake the owner.
        sender.bump_event(vci);
    }
    for p in out {
        deliver_packet(fabric, dst, p);
    }
}

/// Receiver side: integrity check, dedup/reorder window, in-order release
/// into the real queues, and ACK generation. Runs on the sending thread
/// (onload model — the paper's PSM2 provider does receiver-side protocol
/// work on whichever core touches the fabric).
fn deliver_packet(fabric: &Fabric, dst: NetAddr, pkt: WirePacket) {
    let peer = fabric.shared(dst);
    let vci = pkt.vci;
    if peer.health_enabled {
        // Piggybacked liveness: any delivered packet proves its sender
        // alive. Probes live outside the reliability sequence space (like
        // standalone ACKs), so answer and return before the window sees
        // them.
        note_peer_alive(fabric, dst, pkt.src);
        match pkt.body {
            Some(PacketBody::Probe(nonce)) => {
                charge(Category::FaultTolerance, icost::ft::PROBE_ACK);
                let reply = WirePacket {
                    src: dst,
                    vci,
                    seq: 0,
                    ack: None,
                    sack: 0,
                    crc: None,
                    body: Some(PacketBody::ProbeAck(nonce)),
                };
                transmit(fabric, dst, pkt.src, reply);
                return;
            }
            Some(PacketBody::ProbeAck(_)) => return,
            _ => {}
        }
    }
    if !peer.relia_enabled {
        // Raw lossy mode: deliver whatever survived the fault layer.
        match pkt.body {
            Some(PacketBody::Tagged(m)) => peer.deliver_tagged(vci, m),
            Some(PacketBody::Am(m)) => peer.deliver_am(m),
            Some(PacketBody::Probe(_)) | Some(PacketBody::ProbeAck(_)) | None => {}
        }
        return;
    }
    let s = pkt.src.index();
    let src = pkt.src;
    let mut delivered = false;
    let mut standalone_ack: Option<(u32, u64)> = None;
    let mut owes_ack = false;
    {
        let v = &peer.vcis[vci];
        let mut st = v.relia.lock();
        let cfg = st.cfg;
        let link = st.link_mut(src);
        if let Some(cum) = pkt.ack {
            // The piggybacked (or standalone) cumulative ACK retires our
            // retransmit entries for the reverse link. Most retire nothing,
            // and for those `on_ack` does nothing: only one that retires
            // reads the clock (its RTT sample and the re-armed timer).
            charge(Category::Reliability, icost::relia::ACK_PROCESS);
            if link.tx.retires(cum) {
                link.tx.on_ack(cum, fabric.now_us());
                if let Some(due) = link.tx.due_at() {
                    // Progress re-arms the timer one RTO out, which can be
                    // sooner than a backed-off deadline.
                    v.lower_due(due);
                }
            }
            if peer.trace_enabled {
                litempi_trace::emit(EventKind::AckProcessed, s as u64, cum as u64);
            }
        }
        if let Some(body) = pkt.body {
            let crc_ok = if cfg.crc {
                charge(
                    Category::Reliability,
                    icost::relia::CRC_BASE
                        + icost::relia::CRC_PER_WORD * (body.payload_len() as u64).div_ceil(8),
                );
                pkt.crc == Some(body.checksum())
            } else {
                true
            };
            if !crc_ok {
                // Treated as a drop: the retransmission recovers the
                // original bytes.
                EndpointStats::bump(&peer.stats.crc_failures, 1);
            } else {
                charge(Category::Reliability, icost::relia::RX_WINDOW);
                // Release into the queues before the window's lock goes: the
                // window has already moved past these, and another thread's
                // arrival on this link would otherwise be delivered ahead of
                // them.
                let verdict = link.rx.receive(pkt.seq, body, |b| {
                    // A delivery leaves ACK debt for the receiver's tick
                    // (unless it completes a standalone ACK below): due
                    // before the delivery's event announces it.
                    v.lower_due(0);
                    match b {
                        PacketBody::Tagged(m) => peer.deliver_tagged(vci, m),
                        PacketBody::Am(m) => peer.deliver_am(m),
                        // Probes never enter the sequence space, so they
                        // cannot be released by the window; the arms keep
                        // the match exhaustive.
                        PacketBody::Probe(_) | PacketBody::ProbeAck(_) => {}
                    }
                });
                let gap = match verdict {
                    RxVerdict::Deliver(_) => {
                        delivered = true;
                        false
                    }
                    RxVerdict::Duplicate => {
                        EndpointStats::bump(&peer.stats.dup_dropped, 1);
                        if peer.trace_enabled {
                            litempi_trace::emit(EventKind::DupDropped, s as u64, pkt.seq as u64);
                        }
                        false
                    }
                    // A gap: tell the sender at once what is missing, so it
                    // need not wait for its retransmit timer.
                    RxVerdict::Buffered => true,
                    RxVerdict::Overflow => false,
                };
                if gap || link.rx.ack_owed >= cfg.ack_every {
                    standalone_ack = Some((link.rx.take_ack(), link.rx.sack()));
                }
                owes_ack = link.rx.ack_owed > 0;
            }
        }
        if owes_ack && !delivered {
            // Nothing delivered, but the receiver now owes an ACK, which
            // its own tick sends: wake it to re-read its timers.
            v.lower_due(0);
            peer.bump_event(vci);
        }
    }
    if let (Some(cum), sack @ 1..) = (pkt.ack, pkt.sack) {
        fast_resend(fabric, dst, src, vci, cum, sack);
    }
    if let Some((cum, sack)) = standalone_ack {
        send_ack(fabric, dst, src, vci, cum, sack);
    }
}

/// Apply the SACK bitmap of an ACK for `cum` from `src` to `dst`'s link
/// toward it, and transmit at once the holes it reveals as lost. Only a
/// link with a gap sends a SACK, so the fault-free path never gets here.
fn fast_resend(fabric: &Fabric, dst: NetAddr, src: NetAddr, vci: usize, cum: u32, sack: u64) {
    let my = fabric.shared(dst);
    let mut resends = Vec::new();
    {
        let mut st = my.vcis[vci].relia.lock();
        let link = st.link_mut(src);
        let lost = link.tx.on_sack(cum, sack, fabric.now_us());
        if lost.is_empty() {
            return;
        }
        wrap_resends(my, dst, vci, src, link, lost, &mut resends);
    }
    for (to, p) in resends {
        transmit(fabric, dst, to, p);
    }
}

/// Charge, count and trace the re-issue of `pending` from `addr` to `to`,
/// and wrap each for the wire with the reverse link's current cumulative
/// and selective ACK. Runs under `link`'s lock; the caller transmits
/// after releasing it.
fn wrap_resends(
    my: &EndpointShared,
    addr: NetAddr,
    vci: usize,
    to: NetAddr,
    link: &Link,
    pending: Vec<Pending>,
    out: &mut Vec<(NetAddr, WirePacket)>,
) {
    let n = pending.len() as u64;
    charge(Category::Reliability, icost::relia::RETRANSMIT * n);
    EndpointStats::bump(&my.stats.retransmits, n);
    if my.trace_enabled {
        litempi_trace::emit(EventKind::Retransmit, to.0 as u64, n);
    }
    let (ack, sack) = (Some(link.rx.cum_ack()), link.rx.sack());
    out.extend(pending.into_iter().map(|p| {
        let pkt = WirePacket {
            src: addr,
            vci,
            seq: p.seq,
            ack,
            sack,
            crc: p.crc,
            body: Some(p.body),
        };
        (to, pkt)
    }));
}

/// Emit a standalone cumulative and selective ACK from `from` back to
/// `to`, on the VCI that carried the data it acknowledges. ACKs are not
/// sequenced or retransmitted: a lost ACK is recovered by the data
/// sender's retransmission, which re-raises the receiver's ACK debt.
fn send_ack(fabric: &Fabric, from: NetAddr, to: NetAddr, vci: usize, cum: u32, sack: u64) {
    charge(Category::Reliability, icost::relia::ACK_BUILD);
    EndpointStats::bump(&fabric.shared(from).stats.acks_sent, 1);
    if fabric.shared(from).trace_enabled {
        litempi_trace::emit(EventKind::AckSent, to.0 as u64, cum as u64);
    }
    let pkt = WirePacket {
        src: from,
        vci,
        seq: 0,
        ack: Some(cum),
        sack,
        crc: None,
        body: None,
    };
    transmit(fabric, from, to, pkt);
}

/// Refresh `src`'s liveness in `dst`'s failure detector (piggybacked on
/// every packet delivery). A `Suspect → Alive` recovery — the flap-healed
/// transition — is counted, traced, and announced to waiters.
fn note_peer_alive(fabric: &Fabric, dst: NetAddr, src: NetAddr) {
    let peer = fabric.shared(dst);
    let recovered = peer.health.lock().note_alive(src.index(), fabric.now_us());
    if recovered {
        charge(Category::FaultTolerance, icost::ft::DETECT_TRANSITION);
        EndpointStats::bump(&peer.stats.peers_recovered, 1);
        if peer.trace_enabled {
            litempi_trace::emit(EventKind::PeerAlive, src.index() as u64, 0);
        }
        peer.bump_event_all();
    }
}

/// Advance `addr`'s failure detector: demote peers that have gone quiet,
/// declare corpses, and probe idle links. Detector decisions are made
/// under the health lock; the wire work (probe transmits) runs after it is
/// released, matching the endpoint-wide lock discipline.
fn tick_health(fabric: &Fabric, addr: NetAddr, now: u64) {
    let my = fabric.shared(addr);
    let actions = my.health.lock().tick(now);
    if actions.is_empty() {
        return;
    }
    let mut died = false;
    let mut probes: Vec<(NetAddr, u64)> = Vec::new();
    for a in actions {
        match a {
            HealthAction::Probe { peer, nonce } => {
                charge(Category::FaultTolerance, icost::ft::PROBE);
                EndpointStats::bump(&my.stats.probes_sent, 1);
                if my.trace_enabled {
                    litempi_trace::emit(EventKind::ProbeSent, peer as u64, nonce);
                }
                probes.push((NetAddr(peer as u32), nonce));
            }
            HealthAction::Suspected(peer) => {
                charge(Category::FaultTolerance, icost::ft::DETECT_TRANSITION);
                EndpointStats::bump(&my.stats.peers_suspected, 1);
                if my.trace_enabled {
                    litempi_trace::emit(EventKind::PeerSuspect, peer as u64, 0);
                }
            }
            HealthAction::Died(peer) => {
                charge(Category::FaultTolerance, icost::ft::DETECT_TRANSITION);
                EndpointStats::bump(&my.stats.peers_died, 1);
                if my.trace_enabled {
                    litempi_trace::emit(EventKind::PeerDead, peer as u64, 0);
                }
                died = true;
            }
        }
    }
    for (dst, nonce) in probes {
        let pkt = WirePacket {
            src: addr,
            vci: 0,
            seq: 0,
            ack: None,
            sack: 0,
            crc: None,
            body: Some(PacketBody::Probe(nonce)),
        };
        transmit(fabric, addr, dst, pkt);
    }
    if died {
        // A dead peer is endpoint-global state: wake every shard's waiters
        // so they can observe `peer_unreachable`.
        my.bump_event_all();
    }
}

/// Advance one VCI of `addr`'s reliability clock: fire due retransmit
/// timers, flush reorder stashes, emit owed standalone ACKs, and mark peers
/// dead when their retry budget is exhausted. Called from the progress path
/// ([`Endpoint::pump`]), from the injection path, and from blocking wait
/// loops. Before the VCI's earliest-due word it takes no lock.
fn tick_relia(fabric: &Fabric, addr: NetAddr, vci: usize, now: u64) {
    let my = fabric.shared(addr);
    let v = &my.vcis[vci];
    if now < v.relia_due.load(Ordering::Relaxed) {
        // Every site that makes work due must have lowered the word under
        // the lock (see `relia_due`); one that did not loses the work until
        // the word's time comes.
        #[cfg(debug_assertions)]
        {
            let st = v.relia.lock();
            let due = v.relia_due.load(Ordering::Relaxed);
            if let Some(exact) = st.next_deadline(now) {
                assert!(
                    exact >= due,
                    "relia work due at {exact} µs, before the earliest-due word ({due} µs)"
                );
            }
        }
        return;
    }
    let mut stash_flush: Vec<(NetAddr, WirePacket)> = Vec::new();
    let mut resends: Vec<(NetAddr, WirePacket)> = Vec::new();
    let mut acks: Vec<(NetAddr, u32, u64)> = Vec::new();
    let mut newly_dead: Vec<usize> = Vec::new();
    {
        let mut st = v.relia.lock();
        let relia_on = st.cfg.enabled;
        // Only resident links can carry work: a peer with no link has no
        // stash, no retransmit queue, and no ACK debt — so the tick is
        // O(active peers), not O(ranks). `BTreeMap` iteration is ascending
        // by peer, the same order the dense sweep used.
        for (d, link) in st.links_mut() {
            if let Some(p) = link.stash.take() {
                // Already passed its fault rolls; deliver directly.
                stash_flush.push((d, p));
            }
            if !relia_on {
                continue;
            }
            match link.tx.tick(now) {
                TxTick::Idle => {}
                TxTick::Resend(pending) => {
                    wrap_resends(my, addr, vci, d, link, pending, &mut resends)
                }
                TxTick::Dead => {
                    link.dead = true;
                    my.relia_deaths.fetch_add(1, Ordering::Release);
                    newly_dead.push(d.index());
                }
            }
            if link.rx.ack_owed > 0 {
                acks.push((d, link.rx.take_ack(), link.rx.sack()));
            }
        }
        v.relia_due
            .store(st.next_deadline(now).unwrap_or(u64::MAX), Ordering::Relaxed);
    }
    for (d, p) in stash_flush {
        deliver_packet(fabric, d, p);
    }
    for (d, p) in resends {
        transmit(fabric, addr, d, p);
    }
    for (d, cum, sack) in acks {
        send_ack(fabric, addr, d, vci, cum, sack);
    }
    if !newly_dead.is_empty() {
        // Retry exhaustion is authoritative failure evidence: feed it to
        // the detector so health state and reliability state agree.
        if my.health_enabled {
            let mut h = my.health.lock();
            for &d in &newly_dead {
                if h.declare_dead(d) {
                    charge(Category::FaultTolerance, icost::ft::DETECT_TRANSITION);
                    EndpointStats::bump(&my.stats.peers_died, 1);
                    if my.trace_enabled {
                        litempi_trace::emit(EventKind::PeerDead, d as u64, 1);
                    }
                }
            }
        }
        // A dead peer is endpoint-global state: wake every shard's waiters
        // so they can observe `peer_unreachable`.
        my.bump_event_all();
    }
}

/// [`Endpoint::pump`] of `addr`: every shard, since the caller may be the
/// only thread driving this endpoint and its unacked sends can live on any.
fn pump(fabric: &Fabric, addr: NetAddr) {
    let my = fabric.shared(addr);
    my.flush_deferred_all(None);
    if my.routed {
        tick_relia_all(fabric, addr, fabric.now_us());
    }
    if my.health_enabled {
        tick_health(fabric, addr, fabric.now_us());
    }
}

/// Advance every VCI's reliability clock (shard-agnostic progress paths).
fn tick_relia_all(fabric: &Fabric, addr: NetAddr, now: u64) {
    for vci in 0..fabric.shared(addr).n_vcis {
        tick_relia(fabric, addr, vci, now);
    }
}

/// A rank's handle onto the fabric. Cheap to clone.
#[derive(Clone)]
pub struct Endpoint {
    fabric: Arc<Fabric>,
    addr: NetAddr,
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("addr", &self.addr)
            .finish()
    }
}

impl Endpoint {
    pub(crate) fn new(fabric: Arc<Fabric>, addr: NetAddr) -> Self {
        Endpoint { fabric, addr }
    }

    /// This endpoint's physical address.
    pub fn addr(&self) -> NetAddr {
        self.addr
    }

    /// The fabric this endpoint is bound to.
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// Traffic counters for this endpoint: the cross-thread atomics merged
    /// with every VCI's tag-lock-domain matching counters (one brief tag
    /// lock acquisition per VCI — stats are off the critical path).
    pub fn stats(&self) -> StatsSnapshot {
        let shared = self.shared(self.addr);
        let mut matching = crate::matching::MatchCounters::default();
        for vci in &shared.vcis {
            let c = vci.tag.lock().counters();
            matching.msgs_received += c.msgs_received;
            matching.bytes_received += c.bytes_received;
            matching.unexpected += c.unexpected;
            matching.bucket_hits += c.bucket_hits;
            matching.wildcard_matches += c.wildcard_matches;
            matching.max_posted_depth = matching.max_posted_depth.max(c.max_posted_depth);
            matching.max_unexpected_depth =
                matching.max_unexpected_depth.max(c.max_unexpected_depth);
        }
        // The per-peer memory gauge: bytes pinned by resident link state
        // across every VCI. O(active peers) by construction — the scale
        // tests assert it stays orders of magnitude under the dense
        // all-pairs baseline.
        let resident_link_bytes = if shared.routed {
            shared
                .vcis
                .iter()
                .map(|v| v.relia.lock().resident_link_bytes())
                .sum()
        } else {
            0
        };
        shared.stats.snapshot(&matching, resident_link_bytes)
    }

    /// The number of virtual communication interfaces this endpoint's
    /// fabric runs (1 = the paper's single serialized channel).
    pub fn n_vcis(&self) -> usize {
        self.shared(self.addr).n_vcis
    }

    /// Record one acquisition of a layer-above per-VCI critical section
    /// (litempi-core's `with_cs`) in this endpoint's shard-contention
    /// counters, so fabric-level and core-level contention aggregate in
    /// one place. No-op with a single VCI, mirroring the tag-lock path's
    /// accounting (`contended` marks an acquisition that found the lock
    /// held by another thread).
    pub fn note_vci_acquire(&self, vci: usize, contended: bool) {
        let shared = self.shared(self.addr);
        if !shared.multi_vci {
            return;
        }
        EndpointStats::bump(&shared.stats.vci_acquires[vci], 1);
        if contended {
            EndpointStats::bump(&shared.stats.vci_contended[vci], 1);
            if shared.trace_enabled {
                litempi_trace::emit(EventKind::VciContend, vci as u64, 0);
            }
        }
    }

    fn shared(&self, addr: NetAddr) -> &EndpointShared {
        self.fabric.shared(addr)
    }

    // -------------------------------------------------------------- events

    /// Current completion-event epoch. Pair with [`Self::wait_event`] to
    /// park a progress loop without missing completions.
    pub fn event_epoch(&self) -> u64 {
        self.shared(self.addr).event_epoch()
    }

    /// Block until this endpoint's event epoch moves past `seen` (a value
    /// previously read with [`Self::event_epoch`]) or `timeout` elapses.
    pub fn wait_event(&self, seen: u64, timeout: Duration) {
        self.shared(self.addr).wait_event(None, seen, timeout);
    }

    /// Block until `poll` yields a value, calling `progress` after every
    /// fruitless poll. The one blocking policy of the stack (`wait.rs`). A
    /// rank that shares its worker thread with other ranks (`task.rs`)
    /// hands the thread to another one after each fruitless poll, and its
    /// worker decides when to sleep. A rank alone on its thread spins: the
    /// first `WAIT_SPINS` polls only yield the CPU now and then (the common
    /// case completes within a few polls, and on a shared CPU the yield is
    /// what lets the peer produce the completion); after that it sleeps on
    /// this endpoint's completion-event epoch between polls, until the
    /// epoch moves or just before this endpoint's next timer. `poll` must
    /// look at everything that can complete the wait, including the reasons
    /// to give up (a dead peer, a revoked communicator), and each of those
    /// must raise an event here when it changes; debug builds fail a wait
    /// that completes unannounced, naming the caller.
    #[track_caller]
    pub fn wait_until<T>(&self, progress: impl FnMut(), poll: impl FnMut() -> Option<T>) -> T {
        self.shared(self.addr)
            .wait_until(&self.fabric, None, progress, poll)
    }

    /// Raise a completion event on `peer`'s endpoint: this rank changed,
    /// without a packet, something `peer` may be parked on (the RDMA read
    /// that completes `peer`'s rendezvous send, a lock word it released).
    /// The completion a NIC delivers for it; without it the waiter would
    /// sleep on.
    pub fn signal_peer(&self, peer: NetAddr) {
        self.shared(peer).bump_event(0);
    }

    // ---------------------------------------------------------------- tagged

    /// Inject a tagged message toward `dst`. Fire-and-forget: eager
    /// semantics, with the payload copied (via `Bytes`) at injection time.
    /// Delivery is FIFO per (src, dst) pair.
    pub fn tsend(&self, dst: NetAddr, match_bits: u64, data: Bytes) {
        let my = self.shared(self.addr);
        let vci = my.vci_of(match_bits);
        EndpointStats::bump(&my.stats.msgs_sent, 1);
        EndpointStats::bump(&my.stats.bytes_sent, data.len() as u64);
        if my.trace_enabled {
            litempi_trace::emit(EventKind::SendBegin, match_bits, data.len() as u64);
        }

        let msg = TaggedMessage {
            src: self.addr,
            match_bits,
            data,
        };
        if my.routed {
            send_packet(&self.fabric, self.addr, dst, vci, PacketBody::Tagged(msg));
        } else {
            self.shared(dst).deliver_tagged(vci, msg);
        }
        if my.trace_enabled {
            litempi_trace::emit(EventKind::SendComplete, match_bits, 0);
        }
    }

    /// Post a receive for `match_bits` (bits set in `ignore` are wildcards)
    /// and block until it is satisfied.
    pub fn trecv_blocking(&self, match_bits: u64, ignore: u64) -> TaggedMessage {
        self.trecv_post(match_bits, ignore).wait()
    }

    /// Post a nonblocking receive; the returned handle is polled or waited.
    ///
    /// The receive lands on the VCI its match bits hash to — the same
    /// shard every message it could match also lands on (the hash ignores
    /// the source and, on the user channel, the tag, so wildcard ignore
    /// masks cannot straddle shards).
    pub fn trecv_post(&self, match_bits: u64, ignore: u64) -> RecvHandle {
        let peer = self.shared(self.addr);
        let vci = peer.vci_of(match_bits);
        // Only this shard's deferred messages can match this receive.
        peer.flush_deferred(vci, None);
        if peer.trace_enabled {
            litempi_trace::emit(EventKind::RecvPost, match_bits, ignore);
        }
        let slot = SlotLease::new();
        let probe = PostedRecv {
            match_bits,
            ignore,
            slot: slot.share(),
        };
        // First satisfy from the unexpected queue, in arrival order.
        {
            let mut tag = peer.lock_tag(vci);
            if let Some(msg) = tag.post(probe) {
                if peer.trace_enabled {
                    litempi_trace::emit(
                        EventKind::MatchFromUnexpected,
                        match_bits,
                        tag.unexpected_len() as u64,
                    );
                }
                slot.fill(msg);
            }
        }
        RecvHandle {
            fabric: self.fabric.clone(),
            addr: self.addr,
            bits: match_bits,
            vci,
            slot,
        }
    }

    /// Nonblocking check of the unexpected queue (the substrate for
    /// `MPI_IPROBE`): returns a *clone* of the first matching message
    /// without consuming it.
    pub fn tpeek(&self, match_bits: u64, ignore: u64) -> Option<TaggedMessage> {
        let peer = self.shared(self.addr);
        let vci = peer.vci_of(match_bits);
        peer.flush_deferred(vci, None);
        peer.lock_tag(vci).peek(match_bits, ignore).cloned()
    }

    /// Remove and return the first unexpected message matching
    /// `(match_bits, ignore)` — the substrate for `MPI_MPROBE`/`MPI_MRECV`:
    /// the message leaves the matching queues so no other receive can
    /// claim it. Returns `None` when nothing has arrived yet.
    pub fn tdequeue(&self, match_bits: u64, ignore: u64) -> Option<TaggedMessage> {
        let peer = self.shared(self.addr);
        let vci = peer.vci_of(match_bits);
        peer.flush_deferred(vci, None);
        peer.lock_tag(vci).dequeue(match_bits, ignore)
    }

    /// Deliver any jitter-deferred messages destined to this endpoint and
    /// advance the reliability clock (retransmits, reorder-stash flushes,
    /// owed ACKs). A no-op outside jitter/fault/reliable modes. Progress
    /// engines above the fabric call this from their polling loops so
    /// deferred traffic cannot stall a posted receive that is being polled
    /// (rather than blocked) on.
    pub fn pump(&self) {
        pump(&self.fabric, self.addr);
    }

    /// Has the reliability layer, the failure detector, or the fabric's
    /// kill switch declared `peer` unreachable from this endpoint — or has
    /// the job been aborted ([`Fabric::abort_job`]), which makes every peer
    /// unreachable? Always `false` on a perfect fabric in a healthy job.
    /// With sharded reliability domains, a peer whose retry budget expired
    /// on *any* VCI is unreachable — death is per peer, not per channel.
    pub fn peer_unreachable(&self, peer: NetAddr) -> bool {
        if self.fabric.job_aborted() || self.fabric.endpoint_killed(peer) {
            return true;
        }
        let my = self.shared(self.addr);
        if my.health_enabled && my.health.lock().state_of(peer.index()) == HealthState::Dead {
            return true;
        }
        my.relia_enabled
            && my.relia_deaths.load(Ordering::Acquire) > 0
            && my.vcis.iter().any(|v| v.relia.lock().is_dead(peer))
    }

    /// The local failure detector's judgment of `peer`. Always
    /// [`HealthState::Alive`] when the profile does not enable health
    /// monitoring.
    pub fn peer_health(&self, peer: NetAddr) -> HealthState {
        let my = self.shared(self.addr);
        if !my.health_enabled {
            return HealthState::Alive;
        }
        my.health.lock().state_of(peer.index())
    }

    /// Adopt external evidence that `peer` has failed (e.g. a revocation
    /// notice naming it, or another rank's agreed dead set): force the
    /// local detector straight to `Dead`. A no-op when health monitoring
    /// is off.
    pub fn declare_peer_dead(&self, peer: NetAddr) {
        let my = self.shared(self.addr);
        if !my.health_enabled {
            return;
        }
        if my.health.lock().declare_dead(peer.index()) {
            charge(Category::FaultTolerance, icost::ft::DETECT_TRANSITION);
            EndpointStats::bump(&my.stats.peers_died, 1);
            if my.trace_enabled {
                litempi_trace::emit(EventKind::PeerDead, peer.index() as u64, 1);
            }
            my.bump_event_all();
        }
    }

    /// Is the software reliability protocol active on this fabric?
    pub fn reliability_enabled(&self) -> bool {
        self.shared(self.addr).relia_enabled
    }

    /// Drive the reliability layer until, on **every** VCI, none of this
    /// endpoint's injected packets await acknowledgment (or their peers
    /// are dead), no reorder stash is pending, and no ACK debt is owed to
    /// any peer. A no-op on a perfect fabric. Ranks call this before
    /// tearing down so locally-completed eager sends reach their
    /// destination — the delivery guarantee MPI requires of its transport
    /// — and so peers still draining are not starved of the ACKs they
    /// need to stop retransmitting.
    pub fn quiesce(&self) {
        let my = self.shared(self.addr);
        if !my.routed {
            return;
        }
        loop {
            if self.fabric.job_aborted() {
                // Nobody is left to acknowledge anything.
                return;
            }
            tick_relia_all(&self.fabric, self.addr, self.fabric.now_us());
            let busy = my.vcis.iter().any(|v| {
                let st = v.relia.lock();
                let busy = st.links().any(|(d, link)| {
                    (!link.dead && !self.fabric.endpoint_killed(d) && link.tx.in_flight() > 0)
                        || link.stash.is_some()
                        || link.rx.ack_owed > 0
                });
                busy
            });
            if !busy {
                // Drained: shrink every idle link back to a memento so a
                // long-lived endpoint's footprint tracks its *current*
                // working set, not every peer it ever talked to.
                for v in &my.vcis {
                    v.relia.lock().reclaim_idle();
                }
                return;
            }
            // A polling loop, not an event wait: the ACK that retires the
            // last packet in flight raises no event, so a worker must not
            // sleep while one of its ranks drains.
            if !crate::task::pause(true) {
                std::thread::yield_now();
            }
        }
    }

    // -------------------------------------------------------------------- AM

    /// Inject an active message. All AM traffic travels on VCI 0: the AM
    /// queue carries RMA and PSCW control messages whose per-pair FIFO the
    /// layers above rely on, so it is never sharded.
    pub fn am_send(&self, dst: NetAddr, handler: u16, header: [u8; 32], data: Bytes) {
        let my = self.shared(self.addr);
        EndpointStats::bump(&my.stats.am_sent, 1);
        let msg = AmMessage {
            src: self.addr,
            handler,
            header,
            data,
        };
        if my.routed {
            send_packet(&self.fabric, self.addr, dst, 0, PacketBody::Am(msg));
            return;
        }
        self.shared(dst).deliver_am(msg);
    }

    /// Nonblocking poll for a pending active message.
    pub fn am_poll(&self) -> Option<AmMessage> {
        self.shared(self.addr).am.lock().pop_front()
    }

    /// Block until an active message arrives (its completion event lands
    /// on VCI 0, like the packet).
    #[track_caller]
    pub fn am_wait(&self) -> AmMessage {
        self.shared(self.addr)
            .wait_until(&self.fabric, Some(0), || {}, || self.am_poll())
    }

    // ------------------------------------------------------------------ RDMA

    /// Register `len` bytes of remotely accessible memory on this endpoint.
    pub fn register(&self, len: usize) -> MemoryRegion {
        self.fabric.register(len)
    }

    /// Deregister (invalidate) a region.
    pub fn deregister(&self, key: RegionKey) {
        self.fabric.deregister(key);
    }

    /// Acquire a registered transport region covering `len` bytes of RDMA
    /// traffic toward `peer`, reusing this endpoint's pin-down cache when a
    /// same-class registration is available (Liu et al.'s registration
    /// cache). The returned region's length is the bin's power-of-two
    /// class, never less than `len`.
    pub fn reg_acquire(&self, peer: NetAddr, len: usize) -> MemoryRegion {
        let shared = self.shared(self.addr);
        if let Some(region) = shared.reg_cache.take(peer.0 as u64, len) {
            EndpointStats::bump(&shared.stats.reg_cache_hits, 1);
            charge(Category::Rma, icost::rma::REG_CACHE_HIT);
            region
        } else {
            EndpointStats::bump(&shared.stats.reg_cache_misses, 1);
            charge(Category::Rma, icost::rma::REG_CACHE_MISS);
            let class = RegistrationCache::size_class(len);
            self.fabric.register(RegistrationCache::class_len(class))
        }
    }

    /// Return a region obtained from [`Self::reg_acquire`] to the cache;
    /// deregisters it instead when the cache is at capacity.
    pub fn reg_release(&self, peer: NetAddr, region: MemoryRegion) {
        let shared = self.shared(self.addr);
        if let Some(evicted) = shared.reg_cache.put(peer.0 as u64, region) {
            self.fabric.deregister(evicted.key());
        }
    }

    /// Record one-sided window operations issued into an access epoch.
    pub fn note_win_ops_issued(&self, n: u64) {
        EndpointStats::bump(&self.shared(self.addr).stats.win_ops_issued, n);
    }

    /// Record one-sided window operations completed (passive-target puts
    /// and accumulates: when a flush/unlock retires them).
    pub fn note_win_ops_completed(&self, n: u64) {
        EndpointStats::bump(&self.shared(self.addr).stats.win_ops_completed, n);
    }

    /// Record one window flush synchronization call.
    pub fn note_win_flush(&self) {
        EndpointStats::bump(&self.shared(self.addr).stats.win_flushes, 1);
    }

    /// One-sided write into a remote region. The initiator holds the
    /// region handle — resolved once from its key ([`Fabric::region`]), the
    /// way a real initiator caches the rkey and address handle it was sent
    /// — so the operation itself looks nothing up. `dst` is the owning
    /// endpoint (for accounting).
    pub fn rdma_put(&self, _dst: NetAddr, region: &MemoryRegion, offset: usize, data: &[u8]) {
        let my = self.shared(self.addr);
        EndpointStats::bump(&my.stats.rdma_puts, 1);
        EndpointStats::bump(&my.stats.rdma_bytes, data.len() as u64);
        if my.trace_enabled {
            litempi_trace::emit(EventKind::PutBegin, region.key().0, data.len() as u64);
        }
        region.write(offset, data);
        if my.trace_enabled {
            litempi_trace::emit(EventKind::PutComplete, region.key().0, 0);
        }
    }

    /// One-sided read from a remote region: `f` is lent the bytes and
    /// places them (copy, unpack) where they belong.
    pub fn rdma_get<R>(
        &self,
        _dst: NetAddr,
        region: &MemoryRegion,
        offset: usize,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> R {
        let my = self.shared(self.addr);
        EndpointStats::bump(&my.stats.rdma_gets, 1);
        EndpointStats::bump(&my.stats.rdma_bytes, len as u64);
        if my.trace_enabled {
            litempi_trace::emit(EventKind::GetBegin, region.key().0, len as u64);
        }
        let out = region.read_with(offset, len, f);
        if my.trace_enabled {
            litempi_trace::emit(EventKind::GetComplete, region.key().0, 0);
        }
        out
    }

    /// One-sided read-modify-write on a remote region, holding the region
    /// lock across the update (element-wise atomicity for accumulates).
    pub fn rdma_update(
        &self,
        _dst: NetAddr,
        region: &MemoryRegion,
        offset: usize,
        len: usize,
        f: impl FnOnce(&mut [u8]),
    ) {
        let my = self.shared(self.addr);
        EndpointStats::bump(&my.stats.rdma_atomics, 1);
        EndpointStats::bump(&my.stats.rdma_bytes, len as u64);
        region.update(offset, len, f);
    }

    /// One-sided 8-byte atomic; returns the previous value.
    pub fn rdma_atomic(
        &self,
        _dst: NetAddr,
        region: &MemoryRegion,
        offset: usize,
        op: RdmaAtomicOp,
        operand: u64,
        compare: u64,
    ) -> u64 {
        let my = self.shared(self.addr);
        EndpointStats::bump(&my.stats.rdma_atomics, 1);
        EndpointStats::bump(&my.stats.rdma_bytes, 8);
        region.atomic(offset, op, operand, compare)
    }
}

/// Handle for a posted nonblocking receive.
pub struct RecvHandle {
    fabric: Arc<Fabric>,
    addr: NetAddr,
    /// Posted match bits, kept so the completion event pairs with the
    /// `RecvPost` that opened the span (wildcard receives may complete
    /// with different message bits).
    bits: u64,
    /// The shard this receive was posted on; waits park precisely on this
    /// VCI's completion epoch.
    vci: usize,
    slot: SlotLease,
}

impl std::fmt::Debug for RecvHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecvHandle")
            .field("addr", &self.addr)
            .finish()
    }
}

impl RecvHandle {
    /// Nonblocking: take the message if it has arrived.
    pub fn poll(&self) -> Option<TaggedMessage> {
        let m = self.slot.take()?;
        if self.fabric.shared(self.addr).trace_enabled {
            litempi_trace::emit(EventKind::RecvComplete, self.bits, m.data.len() as u64);
        }
        Some(m)
    }

    /// `true` once the message has arrived (without consuming it).
    pub fn is_complete(&self) -> bool {
        self.slot.is_filled()
    }

    /// Block until the message arrives, parking on the posting VCI's
    /// completion-event epoch (a message that can match this receive
    /// always completes on the same shard it was posted on).
    #[track_caller]
    pub fn wait(self) -> TaggedMessage {
        let (fabric, addr) = (&self.fabric, self.addr);
        let progress = || pump(fabric, addr);
        (fabric.shared(addr)).wait_until(fabric, Some(self.vci), progress, || self.poll())
    }

    /// Cancel the posted receive. Returns `true` if it was cancelled before
    /// matching, `false` if a message already matched it (in which case the
    /// message can still be polled).
    pub fn cancel(&self) -> bool {
        let shared = self.fabric.shared(self.addr);
        shared.lock_tag(self.vci).cancel(&self.slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::ProviderProfile;
    use crate::topology::Topology;

    fn fabric(n: usize) -> Arc<Fabric> {
        Fabric::new(n, ProviderProfile::infinite(), Topology::single_node(n))
    }

    #[test]
    fn tsend_then_trecv() {
        let f = fabric(2);
        let a = f.endpoint(NetAddr(0));
        let b = f.endpoint(NetAddr(1));
        a.tsend(NetAddr(1), 0x42, Bytes::from_static(b"hello"));
        let m = b.trecv_blocking(0x42, 0);
        assert_eq!(&m.data[..], b"hello");
        assert_eq!(m.src, NetAddr(0));
    }

    #[test]
    fn trecv_posted_before_send() {
        let f = fabric(2);
        let a = f.endpoint(NetAddr(0));
        let b = f.endpoint(NetAddr(1));
        let h = b.trecv_post(7, 0);
        assert!(!h.is_complete());
        a.tsend(NetAddr(1), 7, Bytes::from_static(b"x"));
        assert!(h.is_complete());
        assert_eq!(h.poll().unwrap().match_bits, 7);
    }

    #[test]
    fn unexpected_queue_preserves_arrival_order() {
        let f = fabric(2);
        let a = f.endpoint(NetAddr(0));
        let b = f.endpoint(NetAddr(1));
        a.tsend(NetAddr(1), 1, Bytes::from_static(b"first"));
        a.tsend(NetAddr(1), 1, Bytes::from_static(b"second"));
        let m1 = b.trecv_blocking(1, 0);
        let m2 = b.trecv_blocking(1, 0);
        assert_eq!(&m1.data[..], b"first");
        assert_eq!(&m2.data[..], b"second");
    }

    #[test]
    fn wildcard_recv_via_ignore_mask() {
        let f = fabric(2);
        let a = f.endpoint(NetAddr(0));
        let b = f.endpoint(NetAddr(1));
        a.tsend(NetAddr(1), 0xAB12, Bytes::new());
        // Wildcard the low 16 bits.
        let m = b.trecv_blocking(0xAB00, 0xFF);
        assert_eq!(m.match_bits, 0xAB12);
    }

    #[test]
    fn nonmatching_message_stays_queued() {
        let f = fabric(2);
        let a = f.endpoint(NetAddr(0));
        let b = f.endpoint(NetAddr(1));
        a.tsend(NetAddr(1), 5, Bytes::new());
        let h = b.trecv_post(6, 0);
        assert!(!h.is_complete());
        assert!(h.cancel());
        // The tag-5 message is still retrievable.
        assert_eq!(b.trecv_blocking(5, 0).match_bits, 5);
    }

    #[test]
    fn tpeek_does_not_consume() {
        let f = fabric(2);
        let a = f.endpoint(NetAddr(0));
        let b = f.endpoint(NetAddr(1));
        a.tsend(NetAddr(1), 9, Bytes::from_static(b"peek"));
        assert!(b.tpeek(9, 0).is_some());
        assert!(b.tpeek(9, 0).is_some());
        assert_eq!(&b.trecv_blocking(9, 0).data[..], b"peek");
        assert!(b.tpeek(9, 0).is_none());
    }

    #[test]
    fn blocking_recv_wakes_on_send() {
        let f = fabric(2);
        let b = f.endpoint(NetAddr(1));
        let f2 = f.clone();
        let t = std::thread::spawn(move || {
            let a = f2.endpoint(NetAddr(0));
            std::thread::sleep(std::time::Duration::from_millis(10));
            a.tsend(NetAddr(1), 3, Bytes::from_static(b"late"));
        });
        let m = b.trecv_blocking(3, 0);
        assert_eq!(&m.data[..], b"late");
        t.join().unwrap();
    }

    #[test]
    fn am_send_poll_wait() {
        let f = fabric(2);
        let a = f.endpoint(NetAddr(0));
        let b = f.endpoint(NetAddr(1));
        assert!(b.am_poll().is_none());
        let mut hdr = [0u8; 32];
        hdr[0] = 0xEE;
        a.am_send(NetAddr(1), 4, hdr, Bytes::from_static(b"am"));
        let m = b.am_wait();
        assert_eq!(m.handler, 4);
        assert_eq!(m.header[0], 0xEE);
        assert_eq!(&m.data[..], b"am");
    }

    #[test]
    fn rdma_roundtrip() {
        let f = fabric(2);
        let a = f.endpoint(NetAddr(0));
        let b = f.endpoint(NetAddr(1));
        let region = b.register(64);
        a.rdma_put(NetAddr(1), &region, 8, &[9, 9, 9]);
        assert_eq!(
            a.rdma_get(NetAddr(1), &region, 8, 3, <[u8]>::to_vec),
            vec![9, 9, 9]
        );
        // Target sees it too, with no target-side code having run.
        assert_eq!(region.read(8, 3), vec![9, 9, 9]);
    }

    #[test]
    fn stats_count_traffic() {
        let f = fabric(2);
        let a = f.endpoint(NetAddr(0));
        let b = f.endpoint(NetAddr(1));
        a.tsend(NetAddr(1), 1, Bytes::from_static(b"abcd"));
        let s = a.stats();
        assert_eq!(s.msgs_sent, 1);
        assert_eq!(s.bytes_sent, 4);
        // Arrived unexpected (no receive posted yet).
        assert_eq!(b.stats().unexpected, 1);
        b.trecv_blocking(1, 0);
        assert_eq!(b.stats().msgs_received, 1);
        assert_eq!(b.stats().bytes_received, 4);
    }

    #[test]
    fn stats_track_match_paths_and_depths() {
        let f = fabric(2);
        let a = f.endpoint(NetAddr(0));
        let b = f.endpoint(NetAddr(1));
        let h1 = b.trecv_post(1, 0);
        let h2 = b.trecv_post(2, 0);
        a.tsend(NetAddr(1), 1, Bytes::new());
        a.tsend(NetAddr(1), 2, Bytes::new());
        a.tsend(NetAddr(1), 3, Bytes::new());
        let _ = b.trecv_blocking(0, u64::MAX);
        let s = b.stats();
        assert_eq!(s.bucket_hits, 2);
        assert_eq!(s.wildcard_matches, 1);
        assert_eq!(s.max_posted_depth, 2);
        assert_eq!(s.max_unexpected_depth, 1);
        assert_eq!(s.bucket_hit_rate(), Some(2.0 / 3.0));
        drop(h1);
        drop(h2);
    }

    /// A duplicate delivers nothing but leaves its receiver owing an ACK,
    /// which only the receiver's own tick sends: its epoch moves, so a
    /// receiver asleep without a timer wakes and re-reads its timers.
    #[test]
    fn a_packet_that_leaves_an_ack_owed_moves_the_receivers_epoch() {
        let profile = ProviderProfile::infinite().reliable();
        let f = Fabric::new(2, profile, Topology::single_node(2));
        let (a, b) = (f.endpoint(NetAddr(0)), f.endpoint(NetAddr(1)));
        a.tsend(NetAddr(1), 7, Bytes::from_static(b"x"));
        let body = PacketBody::Tagged(TaggedMessage {
            src: NetAddr(0),
            match_bits: 7,
            data: Bytes::from_static(b"x"),
        });
        let before = b.event_epoch();
        let again = WirePacket {
            src: NetAddr(0),
            vci: 0,
            seq: 0,
            ack: None,
            sack: 0,
            crc: Some(body.checksum()),
            body: Some(body),
        };
        deliver_packet(&f, NetAddr(1), again);
        assert!(b.event_epoch() > before, "a duplicate owes an ACK");
        assert_eq!(b.stats().dup_dropped, 1);
    }

    /// A packet held back in its sender's reorder stash waits for the
    /// sender's next tick: the sender's epoch moves (the stash may have
    /// been filled by another thread, answering on the sender's behalf).
    #[test]
    fn a_packet_held_in_the_reorder_stash_moves_its_senders_epoch() {
        let always = FaultPlan::uniform(1, FaultSpec::percent(0, 0, 100, 0));
        let f = Fabric::new(
            2,
            ProviderProfile::infinite().with_faults(always),
            Topology::single_node(2),
        );
        let (a, b) = (f.endpoint(NetAddr(0)), f.endpoint(NetAddr(1)));
        let before = a.event_epoch();
        a.tsend(NetAddr(1), 7, Bytes::new());
        assert!(b.tpeek(7, 0).is_none(), "the packet is held back");
        assert!(a.event_epoch() > before);
    }

    #[test]
    fn event_epoch_moves_on_delivery() {
        let f = fabric(2);
        let a = f.endpoint(NetAddr(0));
        let b = f.endpoint(NetAddr(1));
        let before = b.event_epoch();
        a.tsend(NetAddr(1), 1, Bytes::new());
        assert!(b.event_epoch() > before);
        // A stale epoch returns immediately instead of sleeping out the
        // full timeout.
        let t0 = std::time::Instant::now();
        b.wait_event(before, Duration::from_secs(5));
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn signal_peer_moves_the_peers_event_epoch_only() {
        let f = fabric(2);
        let a = f.endpoint(NetAddr(0));
        let b = f.endpoint(NetAddr(1));
        let (mine, theirs) = (a.event_epoch(), b.event_epoch());
        a.signal_peer(NetAddr(1));
        assert_eq!(a.event_epoch(), mine);
        assert!(b.event_epoch() > theirs);
        let t0 = std::time::Instant::now();
        b.wait_event(theirs, Duration::from_secs(5));
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    // A delivery to an endpoint nobody sleeps on notifies nobody — no lock,
    // no system call — and the counter that proves it stays put.

    #[test]
    fn event_wakes_is_zero_over_tagged_messages_nobody_parks_for() {
        let f = fabric(2);
        let a = f.endpoint(NetAddr(0));
        let b = f.endpoint(NetAddr(1));
        for i in 0..10_000u64 {
            let h = b.trecv_post(i, 0);
            a.tsend(NetAddr(1), i, Bytes::new());
            assert_eq!(h.wait().match_bits, i);
        }
        assert_eq!(b.event_epoch(), 10_000, "every delivery is an event");
        assert_eq!(b.stats().event_wakes, 0);
        assert_eq!(a.stats().event_wakes, 0);
    }

    #[test]
    fn event_wakes_is_zero_over_active_messages_nobody_parks_for() {
        let f = fabric(2);
        let a = f.endpoint(NetAddr(0));
        let b = f.endpoint(NetAddr(1));
        for _ in 0..1_000 {
            a.am_send(NetAddr(1), 4, [0u8; 32], Bytes::new());
            assert!(b.am_poll().is_some());
        }
        assert_eq!(b.event_epoch(), 1_000, "every arrival is an event");
        assert_eq!(b.stats().event_wakes, 0);
    }

    #[test]
    fn event_wakes_counts_the_delivery_that_finds_a_parked_waiter() {
        let f = fabric(2);
        let a = f.endpoint(NetAddr(0));
        let b = f.endpoint(NetAddr(1));
        let seen = b.event_epoch();
        let waiter = {
            let b = b.clone();
            std::thread::spawn(move || {
                let t0 = std::time::Instant::now();
                b.wait_event(seen, Duration::from_secs(5));
                t0.elapsed()
            })
        };
        while f.shared(NetAddr(1)).vcis[0].events.waiters() == 0 {
            std::thread::yield_now();
        }
        a.tsend(NetAddr(1), 1, Bytes::new());
        let slept = waiter.join().unwrap();
        assert!(slept < Duration::from_secs(5), "the waiter was not woken");
        assert_eq!(b.stats().event_wakes, 1);
        // The sender's own endpoint saw no event at all.
        assert_eq!(a.stats().event_wakes, 0);
    }

    #[test]
    fn tdequeue_removes_from_matching() {
        let f = fabric(2);
        let a = f.endpoint(NetAddr(0));
        let b = f.endpoint(NetAddr(1));
        a.tsend(NetAddr(1), 5, Bytes::from_static(b"first"));
        a.tsend(NetAddr(1), 5, Bytes::from_static(b"second"));
        let m = b.tdequeue(5, 0).expect("message queued");
        assert_eq!(&m.data[..], b"first");
        // The dequeued message is gone; a receive gets the second one.
        assert_eq!(&b.trecv_blocking(5, 0).data[..], b"second");
        assert!(b.tdequeue(5, 0).is_none());
    }

    #[test]
    fn tdequeue_respects_ignore_mask() {
        let f = fabric(2);
        let a = f.endpoint(NetAddr(0));
        let b = f.endpoint(NetAddr(1));
        a.tsend(NetAddr(1), 0xAB12, Bytes::new());
        assert!(b.tdequeue(0xFF00, 0xFF).is_none(), "high bits must match");
        assert!(b.tdequeue(0xAB00, 0xFF).is_some());
    }

    #[test]
    fn jitter_preserves_pair_fifo() {
        let profile = ProviderProfile::infinite().with_jitter(0xFEED);
        let f = Fabric::new(2, profile, Topology::single_node(2));
        let a = f.endpoint(NetAddr(0));
        let b = f.endpoint(NetAddr(1));
        for i in 0..100u64 {
            a.tsend(
                NetAddr(1),
                100 + i,
                Bytes::copy_from_slice(&i.to_le_bytes()),
            );
        }
        // Receive in posted order with exact tags: per-pair FIFO means
        // payload i always carries value i.
        for i in 0..100u64 {
            let m = b.trecv_blocking(100 + i, 0);
            assert_eq!(u64::from_le_bytes(m.data[..].try_into().unwrap()), i);
        }
    }

    #[test]
    fn jitter_wildcard_sees_all_messages() {
        let profile = ProviderProfile::infinite().with_jitter(7);
        let f = Fabric::new(3, profile, Topology::single_node(3));
        let a = f.endpoint(NetAddr(0));
        let c = f.endpoint(NetAddr(2));
        let b = f.endpoint(NetAddr(1));
        for i in 0..20u64 {
            a.tsend(NetAddr(1), i, Bytes::new());
            c.tsend(NetAddr(1), 1000 + i, Bytes::new());
        }
        let mut seen = Vec::new();
        for _ in 0..40 {
            seen.push(b.trecv_blocking(0, u64::MAX).match_bits);
        }
        seen.sort_unstable();
        let mut expect: Vec<u64> = (0..20).chain(1000..1020).collect();
        expect.sort_unstable();
        assert_eq!(seen, expect);
    }

    // ------------------------------------------------------- lossy/reliable

    use crate::fault::{FaultPlan, FaultSpec};
    use crate::reliability::ReliabilityConfig;

    fn chaotic_profile(seed: u64) -> ProviderProfile {
        ProviderProfile::infinite()
            .with_faults(FaultPlan::uniform(seed, FaultSpec::percent(20, 10, 30, 0)))
            .reliable()
    }

    /// Drain `n` tag-`base+i` messages in order while pumping both sides
    /// (drives retransmit timers on a single thread).
    fn pumped_recv_all(a: &Endpoint, b: &Endpoint, base: u64, n: u64) -> Vec<TaggedMessage> {
        (0..n)
            .map(|i| {
                let h = b.trecv_post(base + i, 0);
                loop {
                    if let Some(m) = h.poll() {
                        break m;
                    }
                    a.pump();
                    b.pump();
                    std::thread::yield_now();
                }
            })
            .collect()
    }

    /// The fault-free reliable path charges what it did before selective
    /// ACKs: nothing on it computes a SACK or answers a gap. Windows of 64
    /// messages of 8 B each way, on one thread; the timer is long enough
    /// that no preemption fires it (no charge reads it).
    #[test]
    fn a_fault_free_reliable_exchange_charges_the_same_per_message() {
        let slow_timer = ReliabilityConfig::on()
            .with_retries(8, 1_000_000)
            .with_rto_bounds(1_000_000, 1_000_000);
        let f = Fabric::new(
            2,
            ProviderProfile::infinite().with_reliability(slow_timer),
            Topology::single_node(2),
        );
        let (a, b) = (f.endpoint(NetAddr(0)), f.endpoint(NetAddr(1)));
        let probe = litempi_instr::probe();
        for round in 0..4u64 {
            for (from, to) in [(&a, &b), (&b, &a)] {
                for i in 0..64u64 {
                    let bits = round * 64 + i;
                    from.tsend(to.addr, bits, Bytes::copy_from_slice(&bits.to_le_bytes()));
                }
                for i in 0..64u64 {
                    to.trecv_blocking(round * 64 + i, 0);
                }
            }
        }
        let relia = probe.finish().get(Category::Reliability);
        assert_eq!(a.stats().retransmits + b.stats().retransmits, 0);
        // 43.75 per message, the same before selective ACKs.
        assert_eq!(relia, 22_400, "{} per message", relia as f64 / 512.0);
    }

    #[test]
    fn reliable_path_transparent_without_faults() {
        let f = Fabric::new(
            2,
            ProviderProfile::infinite().reliable(),
            Topology::single_node(2),
        );
        let a = f.endpoint(NetAddr(0));
        let b = f.endpoint(NetAddr(1));
        for i in 0..50u64 {
            a.tsend(
                NetAddr(1),
                100 + i,
                Bytes::copy_from_slice(&i.to_le_bytes()),
            );
        }
        for i in 0..50u64 {
            let m = b.trecv_blocking(100 + i, 0);
            assert_eq!(u64::from_le_bytes(m.data[..].try_into().unwrap()), i);
        }
        assert_eq!(a.stats().retransmits, 0);
        assert_eq!(b.stats().dup_dropped, 0);
    }

    /// 200 messages one way over `profile` (a `chaotic_profile(seed)`),
    /// drained in order while both sides pump, checked exactly once and in
    /// order; the two endpoints' counters after quiescing.
    fn chaos_exchange(seed: u64, profile: ProviderProfile) -> (StatsSnapshot, StatsSnapshot) {
        let f = Fabric::new(2, profile, Topology::single_node(2));
        let a = f.endpoint(NetAddr(0));
        let b = f.endpoint(NetAddr(1));
        const N: u64 = 200;
        for i in 0..N {
            a.tsend(
                NetAddr(1),
                1000 + i,
                Bytes::copy_from_slice(&i.to_le_bytes()),
            );
        }
        let msgs = pumped_recv_all(&a, &b, 1000, N);
        for (i, m) in msgs.iter().enumerate() {
            assert_eq!(
                u64::from_le_bytes(m.data[..].try_into().unwrap()),
                i as u64,
                "seed {seed:#x}"
            );
        }
        // Exactly once: nothing left over anywhere.
        a.quiesce();
        b.quiesce();
        assert!(b.tpeek(0, u64::MAX).is_none(), "duplicate delivery escaped");
        (a.stats(), b.stats())
    }

    const CHAOS_SEEDS: [u64; 2] = [0xC0FFEE, 0x5EED];

    #[test]
    fn chaos_delivers_exactly_once_in_order() {
        for seed in CHAOS_SEEDS {
            let (sa, sb) = chaos_exchange(seed, chaotic_profile(seed));
            // The plan really was injecting faults.
            assert!(sa.faults_dropped > 0, "seed {seed:#x} dropped nothing");
            assert!(sa.retransmits > 0, "seed {seed:#x} never retransmitted");
            assert!(sb.dup_dropped > 0, "seed {seed:#x} deduped nothing");
        }
    }

    /// Selective ACKs resend what the link lost, not the window behind
    /// it: packets re-issued stay within 2 × the packets lost. Blind
    /// go-back-N resent up to 16 per timer round, most of them already
    /// held in the receiver's reorder buffer. The timer is a fixed 20 ms
    /// so that a test thread preempted between its pumps (one CPU, a busy
    /// suite) fires no timer round the protocol did not need; the count
    /// then repeats run to run. The burst of 200 overruns the 64-packet
    /// reorder buffer, and those drops, which the fault counters do not
    /// count, are resent too.
    #[test]
    fn chaos_recovery_resends_about_what_was_lost() {
        let slow_timer = ReliabilityConfig::on()
            .with_retries(8, 20_000)
            .with_adaptive_rto(false);
        for seed in CHAOS_SEEDS {
            let profile = chaotic_profile(seed).with_reliability(slow_timer);
            let (sa, sb) = chaos_exchange(seed, profile);
            let lost = sa.faults_dropped + sb.faults_dropped + sa.crc_failures + sb.crc_failures;
            let resent = sa.retransmits + sb.retransmits;
            // Go-back-N on the timer alone: 329 for 128 and 344 for 122.
            // Selective ACKs: 192 for 127 and 94 for 91.
            assert!(
                resent <= 2 * lost,
                "seed {seed:#x}: {resent} resent for {lost} lost"
            );
        }
    }

    #[test]
    fn corruption_is_detected_and_recovered_with_crc() {
        let plan = FaultPlan::uniform(42, FaultSpec::percent(0, 0, 0, 40));
        let profile = ProviderProfile::infinite().with_faults(plan).reliable();
        let f = Fabric::new(2, profile, Topology::single_node(2));
        let a = f.endpoint(NetAddr(0));
        let b = f.endpoint(NetAddr(1));
        const N: u64 = 100;
        for i in 0..N {
            a.tsend(NetAddr(1), 7000 + i, Bytes::copy_from_slice(&[i as u8; 16]));
        }
        let msgs = pumped_recv_all(&a, &b, 7000, N);
        for (i, m) in msgs.iter().enumerate() {
            assert_eq!(&m.data[..], &[i as u8; 16], "payload corrupted");
        }
        assert!(b.stats().crc_failures > 0, "corruption never hit");
    }

    #[test]
    fn raw_lossy_mode_loses_messages() {
        // Faults without the reliability protocol: the fabric visibly
        // misbehaves (this is the mode the chaos tests protect against).
        let plan = FaultPlan::uniform(3, FaultSpec::percent(50, 0, 0, 0));
        let profile = ProviderProfile::infinite().with_faults(plan);
        let f = Fabric::new(2, profile, Topology::single_node(2));
        let a = f.endpoint(NetAddr(0));
        let b = f.endpoint(NetAddr(1));
        for i in 0..100u64 {
            a.tsend(NetAddr(1), i, Bytes::new());
        }
        let delivered = (0..100u64)
            .filter(|_| b.trecv_post(0, u64::MAX).poll().is_some())
            .count();
        assert!(delivered < 100, "50% drop lost nothing");
        assert!(a.stats().faults_dropped > 0);
    }

    #[test]
    fn one_directional_traffic_drains_via_standalone_acks() {
        let f = Fabric::new(
            2,
            ProviderProfile::infinite().reliable(),
            Topology::single_node(2),
        );
        let a = f.endpoint(NetAddr(0));
        let b = f.endpoint(NetAddr(1));
        // b never sends, so every ACK back to a must be standalone.
        for i in 0..10u64 {
            a.tsend(NetAddr(1), i, Bytes::from_static(b"one-way"));
        }
        for i in 0..10u64 {
            let _ = b.trecv_blocking(i, 0);
        }
        b.pump(); // receiver flushes its ACK debt
        a.quiesce();
        assert!(b.stats().acks_sent > 0, "no standalone ACKs generated");
    }

    #[test]
    fn kill_switch_makes_peer_unreachable() {
        let plan = FaultPlan::none().with_kill(1, 5);
        let profile = ProviderProfile::infinite()
            .with_faults(plan)
            .with_reliability(ReliabilityConfig::on().with_retries(3, 50));
        let f = Fabric::new(2, profile, Topology::single_node(2));
        let a = f.endpoint(NetAddr(0));
        let b = f.endpoint(NetAddr(1));
        assert!(!a.peer_unreachable(NetAddr(1)));
        // The first packets get through...
        for i in 0..3u64 {
            a.tsend(NetAddr(1), i, Bytes::new());
        }
        let _ = pumped_recv_all(&a, &b, 0, 3);
        // ...then the victim dies mid-run (ACK traffic counts against the
        // budget too), and the sender's retry budget expires.
        for i in 3..20u64 {
            a.tsend(NetAddr(1), i, Bytes::new());
        }
        let t0 = std::time::Instant::now();
        while !a.peer_unreachable(NetAddr(1)) {
            a.pump();
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "retry budget never expired"
            );
            std::thread::yield_now();
        }
        assert!(f.endpoint_killed(NetAddr(1)));
    }

    /// Retry exhaustion on a VCI above 0 makes the peer unreachable on the
    /// very next call — `peer_unreachable` locks no VCI until a verdict is
    /// counted, so the count must move with the verdict — and the verdict
    /// outlives the link's reclamation into a memento.
    #[test]
    fn retry_exhaustion_on_a_higher_vci_is_seen_at_once_and_survives_reclaim() {
        // Link 0 -> 1 is down for good (a flap with a 0 % duty cycle);
        // nothing kills the peer, and no detector runs.
        let plan = FaultPlan::none().with_link(0, 1, FaultSpec::NONE.with_flap(1_000_000, 0));
        let profile = ProviderProfile::infinite()
            .with_vcis(4)
            .with_faults(plan)
            .with_reliability(ReliabilityConfig::on().with_retries(2, 50));
        let f = Fabric::new(2, profile, Topology::single_node(2));
        let a = f.endpoint(NetAddr(0));
        let (peer, bits) = (NetAddr(1), 1u64 << 48); // context 1
        assert_eq!(crate::vci::vci_for_bits(bits, 4), 1);
        a.tsend(peer, bits, Bytes::new());
        let my = f.shared(NetAddr(0));
        let t0 = std::time::Instant::now();
        while !my.vcis[1].relia.lock().is_dead(peer) {
            assert!(!a.peer_unreachable(peer), "unreachable before a verdict");
            a.pump();
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "retry budget never expired"
            );
            std::thread::yield_now();
        }
        assert!(!my.vcis[0].relia.lock().is_dead(peer));
        assert!(a.peer_unreachable(peer));
        a.quiesce();
        assert_eq!(my.vcis[1].relia.lock().n_links(), 0, "not reclaimed");
        assert!(a.peer_unreachable(peer), "the memento forgot the verdict");
    }

    // ---------------------------------------------------------------- health

    use crate::health::HealthConfig;

    #[test]
    fn detector_declares_killed_peer_dead_without_traffic() {
        // Kill endpoint 1 immediately; endpoint 0 never sends data, so
        // only the detector's idle-link probes can discover the death.
        let plan = FaultPlan::none().with_kill(1, 0);
        let profile = ProviderProfile::infinite()
            .reliable()
            .with_faults(plan)
            .with_health(HealthConfig::on().with_timing(100, 400, 2_000));
        let f = Fabric::new(2, profile, Topology::single_node(2));
        let a = f.endpoint(NetAddr(0));
        assert_eq!(a.peer_health(NetAddr(1)), HealthState::Alive);
        let t0 = std::time::Instant::now();
        while a.peer_health(NetAddr(1)) != HealthState::Dead {
            a.pump();
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "detector never declared the killed peer dead"
            );
            std::thread::yield_now();
        }
        assert!(a.peer_unreachable(NetAddr(1)));
        let s = a.stats();
        assert!(s.probes_sent > 0, "death was declared without probing");
        assert!(s.peers_suspected >= 1, "dead without passing suspect");
        assert_eq!(s.peers_died, 1);
    }

    #[test]
    fn flapping_link_suspects_then_recovers() {
        // 3 ms period, 50% duty: 1.5 ms up, 1.5 ms down. Suspect after
        // 400 µs of silence (inside every outage), dead only after a full
        // second (never reached), so the detector must walk
        // Alive → Suspect → Alive at least once.
        let plan = FaultPlan::uniform(0, FaultSpec::NONE.with_flap(3_000, 50));
        let profile = ProviderProfile::infinite()
            .reliable()
            .with_faults(plan)
            .with_health(HealthConfig::on().with_timing(100, 400, 1_000_000));
        let f = Fabric::new(2, profile, Topology::single_node(2));
        let a = f.endpoint(NetAddr(0));
        let b = f.endpoint(NetAddr(1));
        let mut saw_suspect = false;
        let t0 = std::time::Instant::now();
        let mut i = 0u64;
        while t0.elapsed() < Duration::from_secs(20) {
            // Keep data flowing so the up-windows carry proof of life.
            a.tsend(NetAddr(1), 50_000 + (i & 0x3FF), Bytes::new());
            i += 1;
            a.pump();
            b.pump();
            if b.peer_health(NetAddr(0)) == HealthState::Suspect {
                saw_suspect = true;
            }
            if saw_suspect && b.stats().peers_recovered > 0 {
                assert_eq!(b.peer_health(NetAddr(0)), HealthState::Alive);
                assert!(b.stats().peers_suspected > 0);
                assert!(!b.peer_unreachable(NetAddr(0)), "flap is not death");
                return;
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        panic!("flap never produced a suspect -> alive recovery");
    }

    #[test]
    fn declare_peer_dead_adopts_external_evidence() {
        let profile = ProviderProfile::infinite()
            .reliable()
            .with_health(HealthConfig::on());
        let f = Fabric::new(3, profile, Topology::single_node(3));
        let a = f.endpoint(NetAddr(0));
        assert!(!a.peer_unreachable(NetAddr(2)));
        a.declare_peer_dead(NetAddr(2));
        assert_eq!(a.peer_health(NetAddr(2)), HealthState::Dead);
        assert!(a.peer_unreachable(NetAddr(2)));
        assert_eq!(a.stats().peers_died, 1);
        // Idempotent: a second declaration counts nothing new.
        a.declare_peer_dead(NetAddr(2));
        assert_eq!(a.stats().peers_died, 1);
        // Other peers unaffected.
        assert_eq!(a.peer_health(NetAddr(1)), HealthState::Alive);
    }

    #[test]
    fn health_disabled_profile_keeps_detector_inert() {
        let f = Fabric::new(
            2,
            ProviderProfile::infinite().reliable(),
            Topology::single_node(2),
        );
        let a = f.endpoint(NetAddr(0));
        let b = f.endpoint(NetAddr(1));
        a.tsend(NetAddr(1), 1, Bytes::new());
        let _ = b.trecv_blocking(1, 0);
        for _ in 0..50 {
            a.pump();
            b.pump();
        }
        let s = a.stats();
        assert_eq!(s.probes_sent, 0);
        assert_eq!(s.peers_suspected, 0);
        assert_eq!(s.peers_died, 0);
        assert_eq!(a.peer_health(NetAddr(1)), HealthState::Alive);
    }

    // ------------------------------------------------------------- multi-VCI

    /// Match bits in litempi-core's layout: ctx in 63..48, src in 47..24,
    /// tag in 23..0.
    fn mb(ctx: u64, src: u64, tag: u64) -> u64 {
        (ctx << 48) | (src << 24) | tag
    }

    #[test]
    fn multi_vci_roundtrip_and_wildcard() {
        let f = Fabric::new(
            2,
            ProviderProfile::infinite().with_vcis(4),
            Topology::single_node(2),
        );
        let a = f.endpoint(NetAddr(0));
        let b = f.endpoint(NetAddr(1));
        // Four communicator channels, spread over shards; per-channel FIFO
        // and wildcard receives (source+tag wildcarded, concrete ctx) must
        // behave exactly as on the single channel.
        for ctx in 1..=4u64 {
            for i in 0..10u64 {
                a.tsend(
                    NetAddr(1),
                    mb(ctx, 0, i),
                    Bytes::copy_from_slice(&i.to_le_bytes()),
                );
            }
        }
        for ctx in 1..=4u64 {
            for i in 0..10u64 {
                // Wildcard everything below the context id.
                let m = b.trecv_blocking(mb(ctx, 0, 0), (1u64 << 48) - 1);
                assert_eq!(
                    u64::from_le_bytes(m.data[..].try_into().unwrap()),
                    i,
                    "ctx {ctx} out of order"
                );
            }
        }
    }

    #[test]
    fn multi_vci_chaos_exactly_once_per_channel() {
        let f = Fabric::new(
            2,
            chaotic_profile(0xC0FFEE).with_vcis(4),
            Topology::single_node(2),
        );
        let a = f.endpoint(NetAddr(0));
        let b = f.endpoint(NetAddr(1));
        const N: u64 = 50;
        for i in 0..N {
            for ctx in 1..=4u64 {
                a.tsend(
                    NetAddr(1),
                    mb(ctx, 0, i),
                    Bytes::copy_from_slice(&i.to_le_bytes()),
                );
            }
        }
        for ctx in 1..=4u64 {
            for i in 0..N {
                let h = b.trecv_post(mb(ctx, 0, i), 0);
                let m = loop {
                    if let Some(m) = h.poll() {
                        break m;
                    }
                    a.pump();
                    b.pump();
                    std::thread::yield_now();
                };
                assert_eq!(u64::from_le_bytes(m.data[..].try_into().unwrap()), i);
            }
        }
        a.quiesce();
        b.quiesce();
        assert!(b.tpeek(0, u64::MAX).is_none(), "duplicate escaped");
        assert!(a.stats().retransmits > 0, "chaos never bit");
    }

    #[test]
    fn quiesce_drains_all_vcis_on_teardown() {
        // Post-PR-7 sharding audit: traffic on ctx 1..=3 hashes onto VCIs
        // 1–3 of a 4-VCI endpoint, so nothing is in flight on VCI 0.
        // `quiesce()` must still drain every shard's retransmit queue and
        // ACK debt before teardown.
        let f = Fabric::new(
            2,
            chaotic_profile(0xBEEF).with_vcis(4),
            Topology::single_node(2),
        );
        // (`LITEMPI_VCIS` may override the shard count; the drain property
        // below must hold at any width.)
        let a = f.endpoint(NetAddr(0));
        let b = f.endpoint(NetAddr(1));
        const N: u64 = 20;
        for ctx in 1..=3u64 {
            for i in 0..N {
                a.tsend(
                    NetAddr(1),
                    mb(ctx, 0, i),
                    Bytes::copy_from_slice(&i.to_le_bytes()),
                );
            }
        }
        // Tear down with traffic still in flight on VCIs 1–3.
        a.quiesce();
        b.quiesce();
        for addr in [NetAddr(0), NetAddr(1)] {
            let sh = f.shared(addr);
            for (vci, v) in sh.vcis.iter().enumerate() {
                let st = v.relia.lock();
                for (d, link) in st.links() {
                    assert_eq!(
                        link.tx.in_flight(),
                        0,
                        "ep {addr:?} vci {vci} still has unacked packets to {d:?}"
                    );
                    assert_eq!(
                        link.rx.ack_owed, 0,
                        "ep {addr:?} vci {vci} still owes ACKs to {d:?}"
                    );
                    assert!(link.stash.is_none());
                }
            }
        }
        // The delivery guarantee held: every eager send arrived.
        for ctx in 1..=3u64 {
            for i in 0..N {
                let m = b.trecv_blocking(mb(ctx, 0, i), 0);
                assert_eq!(u64::from_le_bytes(m.data[..].try_into().unwrap()), i);
            }
        }
    }

    #[test]
    fn vci_counters_track_acquisitions_only_when_sharded() {
        let f1 = fabric(2);
        let a1 = f1.endpoint(NetAddr(0));
        a1.tsend(NetAddr(1), mb(1, 0, 0), Bytes::new());
        let _ = f1.endpoint(NetAddr(1)).trecv_blocking(mb(1, 0, 0), 0);
        let s = f1.endpoint(NetAddr(1)).stats();
        // `LITEMPI_VCIS` overrides the profile, so only assert the
        // zero-overhead half when the fabric really resolved to one shard.
        if f1.n_vcis() == 1 {
            assert!(s.vci_acquires.iter().all(|&c| c == 0), "single-VCI bumped");
        }

        let f4 = Fabric::new(
            2,
            ProviderProfile::infinite().with_vcis(4),
            Topology::single_node(2),
        );
        let a4 = f4.endpoint(NetAddr(0));
        let b4 = f4.endpoint(NetAddr(1));
        a4.tsend(NetAddr(1), mb(1, 0, 0), Bytes::new());
        let _ = b4.trecv_blocking(mb(1, 0, 0), 0);
        let s = b4.stats();
        assert!(s.vci_acquires.iter().sum::<u64>() > 0, "no acquisitions");
        b4.note_vci_acquire(2, true);
        let s = b4.stats();
        assert_eq!(s.vci_contended[2], 1);
    }

    #[test]
    fn multi_vci_events_wake_endpoint_waiters() {
        let f = Fabric::new(
            2,
            ProviderProfile::infinite().with_vcis(4),
            Topology::single_node(2),
        );
        let b = f.endpoint(NetAddr(1));
        let before = b.event_epoch();
        let f2 = f.clone();
        let t = std::thread::spawn(move || {
            let a = f2.endpoint(NetAddr(0));
            while f2.shared(NetAddr(1)).vcis[0].events.waiters() == 0 {
                std::thread::yield_now();
            }
            // ctx 3 hashes off VCI 0 at 4 shards; the bump must still wake
            // an endpoint-wide waiter parked on the summed epoch.
            a.tsend(NetAddr(1), mb(3, 0, 0), Bytes::new());
        });
        let t0 = std::time::Instant::now();
        while b.event_epoch() == before {
            b.wait_event(before, Duration::from_secs(5));
            assert!(t0.elapsed() < Duration::from_secs(5), "never woke");
        }
        assert!(b.event_epoch() > before);
        t.join().unwrap();
        assert_eq!(b.stats().event_wakes, 1, "the cross-shard notify");
    }

    // ------------------------------------------------ the earliest-due word
    //
    // One case per site that makes work due: each drives the next tick with
    // no other traffic, and fails if that site does not lower the word.

    /// Two endpoints on the reliable path, and the VCI tag 7 travels on.
    /// Every packet from 1 to 0 is lost, so 1's ACKs never reach 0.
    fn reliable_pair() -> (Arc<Fabric>, Endpoint, Endpoint, usize) {
        let acks_lost = FaultPlan::none().with_link(1, 0, FaultSpec::percent(100, 0, 0, 0));
        let f = Fabric::new(
            2,
            ProviderProfile::infinite()
                .with_faults(acks_lost)
                .with_reliability(ReliabilityConfig::on()),
            Topology::single_node(2),
        );
        let (a, b) = (f.endpoint(NetAddr(0)), f.endpoint(NetAddr(1)));
        let vci = f.shared(NetAddr(0)).vci_of(7);
        (f, a, b, vci)
    }

    #[test]
    fn relia_tick_word_acts_on_a_timer_armed_by_a_send() {
        let (f, a, _b, _) = reliable_pair();
        // Delivered, and unacknowledged: ACKs go every fourth delivery.
        a.tsend(NetAddr(1), 7, Bytes::from_static(b"x"));
        tick_relia_all(&f, NetAddr(0), f.now_us() + 1_000_000);
        assert_eq!(a.stats().retransmits, 1, "the armed timer fires");
    }

    #[test]
    fn relia_tick_word_acts_on_ack_debt_left_by_a_delivery() {
        let (f, a, b, _) = reliable_pair();
        a.tsend(NetAddr(1), 7, Bytes::from_static(b"x"));
        tick_relia_all(&f, NetAddr(1), f.now_us());
        assert_eq!(b.stats().acks_sent, 1, "the owed ACK goes out");
    }

    #[test]
    fn relia_tick_word_acts_on_ack_debt_left_by_a_duplicate() {
        let (f, a, b, _) = reliable_pair();
        a.tsend(NetAddr(1), 7, Bytes::from_static(b"x"));
        tick_relia_all(&f, NetAddr(1), f.now_us());
        assert_eq!(b.stats().acks_sent, 1);
        // The ACK is lost, so the sender's timer resends: the receiver
        // drops the duplicate and owes another ACK.
        tick_relia_all(&f, NetAddr(0), f.now_us() + 1_000_000);
        assert_eq!(b.stats().dup_dropped, 1);
        tick_relia_all(&f, NetAddr(1), f.now_us());
        assert_eq!(b.stats().acks_sent, 2, "the owed ACK goes out");
    }

    #[test]
    fn relia_tick_word_acts_on_a_timer_an_ack_rearms_sooner() {
        let (f, a, _b, vci) = reliable_pair();
        a.tsend(NetAddr(1), 7, Bytes::from_static(b"x"));
        a.tsend(NetAddr(1), 7, Bytes::from_static(b"y"));
        // A timer round backs the deadline off to a second from now ...
        let late = f.now_us() + 1_000_000;
        tick_relia_all(&f, NetAddr(0), late);
        assert_eq!(a.stats().retransmits, 2);
        // ... and an ACK for the first packet re-arms it one RTO out.
        let ack = WirePacket {
            src: NetAddr(1),
            vci,
            seq: 0,
            ack: Some(1),
            sack: 0,
            crc: None,
            body: None,
        };
        deliver_packet(&f, NetAddr(0), ack);
        tick_relia_all(&f, NetAddr(0), f.now_us() + 10_000);
        assert_eq!(a.stats().retransmits, 3, "the re-armed timer fires");
    }

    #[test]
    fn relia_tick_word_acts_on_a_reorder_stash() {
        // Faults without the protocol: the stash is the only work a tick
        // can find.
        let always = FaultPlan::uniform(1, FaultSpec::percent(0, 0, 100, 0));
        let f = Fabric::new(
            2,
            ProviderProfile::infinite().with_faults(always),
            Topology::single_node(2),
        );
        let (a, b) = (f.endpoint(NetAddr(0)), f.endpoint(NetAddr(1)));
        a.tsend(NetAddr(1), 7, Bytes::from_static(b"x"));
        assert!(b.tpeek(7, 0).is_none(), "held back");
        tick_relia_all(&f, NetAddr(0), f.now_us());
        assert!(b.tpeek(7, 0).is_some(), "the tick flushes the stash");
    }
}
