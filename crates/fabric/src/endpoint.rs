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
//! discipline, §3.6). The endpoint is one serialized channel, the paper's:
//!
//! * **tag** — the tag-matching engine (posted receives + unexpected
//!   messages). The pt2pt critical path takes only this lock.
//! * **am** — the active-message queue. Beside the lock sits a pending
//!   count, stored under it on every push and pop: the progress engine's
//!   `am_poll`, which runs on every progress pass, reads the count
//!   (Acquire) and takes the lock only when it is not 0. On `ofi` no
//!   point-to-point workload sends an AM, so its progress passes never lock
//!   the queue. A poll that reads 0 just before a push misses nothing:
//!   `deliver_am` stores the count before it raises the event, so a waiter
//!   that read the epoch before polling either sees the count or sleeps on
//!   an epoch that the push then moves.
//! * **relia** — the reliability/fault state, with an independent sequence
//!   space per link.
//!
//! Lock order where two are needed: **relia → tag** and **relia → am**,
//! everywhere. The reliability window delivers what it releases under its
//! own lock, which keeps release-then-deliver atomic with respect to other
//! senders and so preserves per-(src,dst) FIFO.
//!
//! ## Completion events
//!
//! Every change that can complete something a rank waits on bumps the
//! event count (`event_count.rs`) of the waiter's endpoint: a tagged
//! delivery, an AM arrival, a peer declared dead, the kill switch, a
//! job-wide countdown or abort, the ACK that retires a link's last packet
//! in flight (what [`Endpoint::quiesce`] waits for), and, through
//! [`Endpoint::signal_peer`],
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
//! ## Routing
//!
//! An endpoint is either unrouted — the perfect provider: a send hands the
//! message straight to the peer's queues — or routed over the reliable
//! link (sequence numbers, ACKs, retransmission, CRC), which a profile
//! asks for with [`ProviderProfile::reliable`] or by carrying a fault plan.
//! A fault plan's drops, duplicates, reorders and corruptions happen
//! beneath the protocol, which repairs them; its kill switch counts the
//! first transmissions of data packets to or from its victim. A plan's
//! `reorder` parks a data packet (never a standalone ACK) in its sender's
//! stash, where the next packet on the same link overtakes it (the
//! receiver's window buffers the gap and SACKs it), and the sender's next
//! tick releases it otherwise.
//!
//! ## Reliability timers
//!
//! The endpoint's reliability work is driven by ticks (`tick_relia`): in
//! every reliable send, before its packet goes out, on every progress pass,
//! and in the waits. It keeps an earliest-due word beside its `relia` lock,
//! a lower bound on when the next retransmit timer, owed ACK or reorder
//! stash falls due, so a tick before it costs an atomic load and takes no
//! lock. A tick that does lock stores the exact next deadline at the end of
//! its locked section. Every site that makes work due lowers the word under
//! the same lock before releasing it: a send that arms an idle link's
//! timer, an ACK that re-arms a timer one RTO out, a delivery or a window
//! overflow that leaves ACK debt, and a reorder stash. The event that
//! announces such work is raised after the lowering, so a tick that read a
//! stale word is followed by one that does not. Time comes from `Fabric::now_us`, the
//! cycle-counter clock of `fabric.rs`, and is read once per flight, not
//! per message. A link times one packet per flight (`LinkTx::timed`,
//! RFC 6298 §3), so a send reads the clock only when its link has no
//! timed packet, which includes the send that arms an idle link's timer,
//! or when the earliest-due word says work is due at once; only a send
//! that read it runs its tick. A cumulative ACK reads it only when it
//! retires something (`LinkTx::retires`), which a piggybacked ACK usually
//! does not; the ACK that retires the timed packet gives the flight's RTT
//! sample, unless a timer round or a fast resend came after its send
//! (Karn). A progress pass reads it once, and the core's completion calls
//! drive one pass per call.

use crate::addr::NetAddr;
use crate::event_count::EventCount;
use crate::fabric::{Fabric, KillVerdict};
use crate::fault::FaultPlan;
use crate::matching::MatchEngine;
use crate::packet::{AmMessage, PostedRecv, SlotLease, TaggedMessage};
use crate::region::{MemoryRegion, RegionKey, RegistrationCache};
use crate::reliability::{
    Link, PacketBody, Pending, ReliaState, RxVerdict, TxTick, WirePacket, ACK_EVERY,
};
use crate::stats::{EndpointStats, StatsSnapshot};
use bytes::Bytes;
use litempi_instr::{charge, cost as icost, Category};
use litempi_trace::EventKind;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::cost::{MatcherKind, ProviderProfile};

/// Upper bound on registrations the per-endpoint pin-down cache holds
/// (bounded pinned-memory footprint, as in real registration caches).
const REG_CACHE_CAPACITY: usize = 32;

/// Shared state of one endpoint (owned by the fabric).
#[derive(Debug)]
pub(crate) struct EndpointShared {
    /// Tag-matching engine (posted receives + unexpected messages).
    tag: Mutex<MatchEngine>,
    /// Completion events: the epoch bumped on every delivery/arrival, and
    /// the waiters parked on it.
    pub(crate) events: EventCount,
    /// Reliable-link state (link state machines, fault RNGs). Empty and
    /// never locked when `routed` is false.
    pub(crate) relia: Mutex<ReliaState>,
    /// Earliest-due word: a lower bound (fabric µs) on when `relia` next
    /// needs a tick, `0` for work due at once, `u64::MAX` for none. A tick
    /// before it takes no lock ([`tick_relia`]), and a waiter sizes its
    /// sleep by it ([`EndpointShared::relia_due_at`]). Written only under
    /// the `relia` lock: a tick stores [`ReliaState::next_deadline`] at the
    /// end of its locked section, and every site that makes work due lowers
    /// it ([`EndpointShared::lower_due`]) before releasing the lock. It
    /// publishes no data (the lock does), so it is read and written
    /// relaxed: a reader that sees a stale value is followed by one that
    /// does not, because the event that announces the work is raised after
    /// the store and read before the next look.
    relia_due: AtomicU64,
    /// Pending active messages, in arrival order.
    am: Mutex<VecDeque<AmMessage>>,
    /// `am.len()`, stored under the `am` lock (Release) by every push and
    /// pop, so that [`Endpoint::am_poll`] finds an empty queue with one
    /// Acquire load and no lock.
    am_pending: AtomicUsize,
    /// Does the fault plan alter packets (a drop, duplicate, reorder or
    /// corrupt chance on some link)? When not, a transmission skips the
    /// fault lock. The kill switch alone alters none.
    lossy: bool,
    /// Packets travel over the reliable link: the profile turns the
    /// protocol on or carries a fault plan. The single hoisted branch the
    /// default fast path pays.
    pub(crate) routed: bool,
    /// Hoisted from the profile's trace opt-in: event sites cost one
    /// predictable branch when tracing is off.
    trace_enabled: bool,
    /// Per-peer pin-down cache for RDMA transport buffers (rendezvous
    /// staging). Touched only by the large-message path — eager traffic
    /// never reaches it.
    reg_cache: RegistrationCache,
    /// The idle event of the worker thread hosting this endpoint's rank
    /// among others (`task.rs`), bumped by every event that finds a waiter.
    host: Mutex<Option<Arc<EventCount>>>,
    pub(crate) stats: EndpointStats,
}

impl EndpointShared {
    pub(crate) fn new(profile: &ProviderProfile, addr: NetAddr) -> Self {
        let faults = profile.faults;
        let lossy = !FaultPlan {
            kill: None,
            ..faults
        }
        .is_none();
        EndpointShared {
            tag: Mutex::new(MatchEngine::new(MatcherKind::Bucketed)),
            events: EventCount::new(),
            relia: Mutex::new(ReliaState::new(profile, addr)),
            relia_due: AtomicU64::new(u64::MAX),
            am: Mutex::new(VecDeque::new()),
            am_pending: AtomicUsize::new(0),
            lossy,
            routed: profile.reliability.enabled || !faults.is_none(),
            trace_enabled: profile.trace.enabled,
            reg_cache: RegistrationCache::new(REG_CACHE_CAPACITY),
            host: Mutex::new(None),
            stats: EndpointStats::default(),
        }
    }

    /// Work on the reliability state falls due at `due` (fabric µs). The
    /// caller holds the `relia` lock.
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

    /// Announce that something completion-worthy happened.
    pub(crate) fn bump_event(&self) {
        if self.events.bump() {
            EndpointStats::bump(&self.stats.event_wakes, 1);
            // The waiter may be the idle worker hosting this endpoint's
            // rank, which watches `events` while it sleeps (`task.rs`).
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

    /// Deliver a tagged message into the matching engine and raise the
    /// event. Runs on the *sender's* thread, modeling NIC-side matching.
    fn deliver_tagged(&self, msg: TaggedMessage) {
        self.engine_deliver(&mut self.tag.lock(), msg);
        self.bump_event();
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

    /// Deliver an active message into this endpoint's AM queue.
    fn deliver_am(&self, msg: AmMessage) {
        let mut am = self.am.lock();
        am.push_back(msg);
        // Before the event: a poll after it must find the count raised.
        self.am_pending.store(am.len(), Ordering::Release);
        drop(am);
        self.bump_event();
    }

    /// The oldest pending active message; no lock while none is pending.
    fn pop_am(&self) -> Option<AmMessage> {
        if self.am_pending.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut am = self.am.lock();
        let msg = am.pop_front();
        self.am_pending.store(am.len(), Ordering::Release);
        msg
    }
}

// ---------------------------------------------------------- packet path
//
// When a profile turns the reliability protocol on or carries a fault
// plan, tagged and active messages travel as [`WirePacket`]s over the
// reliable link through the functions below instead of being handed
// straight to the peer's queues. These are free functions over `&Fabric`
// (not `Endpoint` methods) so the blocking wait loops can drive
// retransmission too.
//
// Lock discipline: at most one endpoint's `relia` mutex is ever held, and
// nothing is transmitted or checksummed while holding it; what the window
// releases is delivered into the receiver's queues under it. ACK
// processing retires retransmit entries; the fast resends a SACK calls for
// are picked under the lock and go out after it is released. The
// sender→receiver→ACK→sender chain terminates without lock cycles: a hole
// is fast-resent at most once per recovery episode, and a gap's immediate
// ACK answers data, never an ACK.

/// Charge one checksum pass over `body` (the protocol's CRC: once at
/// send, once at verify). The CRC itself is computed before the `relia`
/// lock is taken, so another thread's ACK or delivery on the endpoint
/// never waits out a pass over the bytes; the charge is made under the
/// lock, after the dead-peer check, so a black-holed send charges none.
fn charge_checksum(body: &PacketBody) {
    charge(
        Category::Reliability,
        icost::relia::CRC_BASE
            + icost::relia::CRC_PER_WORD * (body.payload_len() as u64).div_ceil(8),
    );
}

/// Sender-side entry: run the reliability protocol, then hand the packet
/// to the fault layer as its first transmission.
fn send_packet(fabric: &Fabric, src: NetAddr, dst: NetAddr, body: PacketBody) {
    let my = fabric.shared(src);
    let crc = Some(body.checksum());
    let (pkt, now) = {
        let mut st = my.relia.lock();
        if st.is_dead(dst) || fabric.endpoint_killed(src) || fabric.endpoint_killed(dst) {
            // The peer is unreachable, or this endpoint is: injections
            // are black-holed (callers observe `peer_unreachable`), and
            // nothing enters the retransmit queue.
            return;
        }
        charge(Category::Reliability, icost::relia::TX_HEADER);
        charge_checksum(&body);
        let link = st.link_mut(dst);
        // The clock is read for the flight's timed packet (which arms an
        // idle link's timer), and for a tick of work due at once.
        let now = (link.tx.needs_clock() || my.relia_due.load(Ordering::Relaxed) == 0)
            .then(|| fabric.now_us());
        let seq = link.tx.prepare(body.clone(), crc, now);
        if let Some(due) = link.tx.due_at() {
            // The send armed an idle link's timer (or found it armed).
            my.lower_due(due);
        }
        charge(Category::Reliability, icost::relia::RETRANSMIT_ENQUEUE);
        // Piggyback the cumulative and selective ACK for the reverse link.
        let ack = Some(link.rx.take_ack());
        let pkt = WirePacket {
            src,
            seq,
            ack,
            sack: link.rx.sack(),
            crc,
            body: Some(body),
        };
        (pkt, now)
    };
    // Blocking send loops never reach the progress engine, so the
    // injection path itself advances the retransmit clock whenever it has
    // read it. It does so before the packet goes out, and leaves the
    // reorder stash toward `dst` to `transmit_live`, which delivers this
    // packet ahead of it: a packet the stash holds is overtaken by the
    // next one on its link.
    if let Some(now) = now {
        tick_relia(fabric, src, now, Some(dst));
    }
    transmit(fabric, src, dst, pkt, true);
}

/// Fault layer: decide this packet's fate with the sender's per-link RNG,
/// then deliver whatever survives. The kill switch counts `first`
/// transmissions of data packets only — not resends, not ACKs — so that
/// no timer or ACK schedule moves the packet that trips it; once it has
/// tripped, every packet to or from the victim vanishes.
fn transmit(fabric: &Fabric, src: NetAddr, dst: NetAddr, pkt: WirePacket, first: bool) {
    match fabric.kill_packet(src, dst, first) {
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
    if !sender.lossy {
        deliver_packet(fabric, dst, pkt);
        return;
    }
    let mut out: Vec<WirePacket> = Vec::new();
    let mut held_back = false;
    {
        let mut st = sender.relia.lock();
        let link = st.link_mut(dst);
        let spec = link.spec;
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
            // The reorder draw comes before the packet's class is looked
            // at, so that a chaos seed keeps its fault stream; only a data
            // packet is held back. A standalone ACK would wait for its
            // sender's next packet or tick, which a receiver that neither
            // sends nor progresses never makes.
            if stashed.is_none() && rng.chance(spec.reorder) && pkt.body.is_some() {
                // Hold back until the next packet on this link, which
                // goes out ahead of it, or the sender's next tick (a send
                // to another peer, a progress pass or a wait).
                link.stash = Some(pkt);
                held_back = true;
                sender.lower_due(0);
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
        // goes out on the thread that delivered what it answers): its
        // owner's tick flushes it, so wake the owner.
        sender.bump_event();
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
    let s = pkt.src.index();
    let src = pkt.src;
    let mut delivered = false;
    let mut drained = false;
    let mut standalone_ack: Option<(u32, u64)> = None;
    let mut owes_ack = false;
    let crc = pkt.body.as_ref().map(PacketBody::checksum);
    {
        let mut st = peer.relia.lock();
        let link = st.link_mut(src);
        if let Some(cum) = pkt.ack {
            // The piggybacked (or standalone) cumulative ACK retires our
            // retransmit entries for the reverse link. Most retire nothing,
            // and for those `on_ack` does nothing: only one that retires
            // reads the clock (its RTT sample and the re-armed timer).
            charge(Category::Reliability, icost::relia::ACK_PROCESS);
            if link.tx.retires(cum) {
                link.tx.on_ack(cum, fabric.now_us());
                match link.tx.due_at() {
                    // Progress re-arms the timer one RTO out, which can be
                    // sooner than a backed-off deadline.
                    Some(due) => peer.lower_due(due),
                    // The link's last packet in flight is acknowledged,
                    // which a `quiesce` may be waiting for.
                    None => drained = true,
                }
            }
            if peer.trace_enabled {
                litempi_trace::emit(EventKind::AckProcessed, s as u64, cum as u64);
            }
        }
        if let Some(body) = pkt.body {
            charge_checksum(&body);
            if pkt.crc != crc {
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
                    peer.lower_due(0);
                    match b {
                        PacketBody::Tagged(m) => peer.deliver_tagged(m),
                        PacketBody::Am(m) => peer.deliver_am(m),
                    }
                });
                // A gap or a duplicate is answered at once (RFC 5681 §4.2,
                // RFC 793's reply to an unacceptable segment): a gap tells
                // the sender what is missing before its retransmit timer
                // fires, and a duplicate says the sender missed an ACK. A
                // receiver that is not ticking (busy, or past its last
                // call) answers every resend that reaches it, so the
                // sender makes progress instead of running its retry budget
                // down on ACKs that wait for the receiver's next tick.
                let answer_now = match verdict {
                    RxVerdict::Deliver(_) => {
                        delivered = true;
                        false
                    }
                    RxVerdict::Duplicate => {
                        EndpointStats::bump(&peer.stats.dup_dropped, 1);
                        if peer.trace_enabled {
                            litempi_trace::emit(EventKind::DupDropped, s as u64, pkt.seq as u64);
                        }
                        true
                    }
                    RxVerdict::Buffered => true,
                    RxVerdict::Overflow => false,
                };
                if answer_now || link.rx.ack_owed >= ACK_EVERY {
                    standalone_ack = Some((link.rx.take_ack(), link.rx.sack()));
                }
                owes_ack = link.rx.ack_owed > 0;
            }
        }
        if !delivered && (owes_ack || drained) {
            // Nothing delivered, so no delivery raised the event: the
            // receiver now owes an ACK, which its own tick sends (wake it
            // to re-read its timers), or its link has drained.
            if owes_ack {
                peer.lower_due(0);
            }
            peer.bump_event();
        }
    }
    if let (Some(cum), sack @ 1..) = (pkt.ack, pkt.sack) {
        fast_resend(fabric, dst, src, cum, sack);
    }
    if let Some((cum, sack)) = standalone_ack {
        send_ack(fabric, dst, src, cum, sack);
    }
}

/// Apply the SACK bitmap of an ACK for `cum` from `src` to `dst`'s link
/// toward it, and transmit at once the holes it reveals as lost. Only a
/// link with a gap sends a SACK, so the fault-free path never gets here.
fn fast_resend(fabric: &Fabric, dst: NetAddr, src: NetAddr, cum: u32, sack: u64) {
    let my = fabric.shared(dst);
    let mut resends = Vec::new();
    {
        let mut st = my.relia.lock();
        let link = st.link_mut(src);
        let lost = link.tx.on_sack(cum, sack);
        if lost.is_empty() {
            return;
        }
        wrap_resends(my, dst, src, link, lost, &mut resends);
    }
    for (to, p) in resends {
        transmit(fabric, dst, to, p, false);
    }
}

/// Charge, count and trace the re-issue of `pending` from `addr` to `to`,
/// and wrap each for the wire with the reverse link's current cumulative
/// and selective ACK. Runs under `link`'s lock; the caller transmits
/// after releasing it.
fn wrap_resends(
    my: &EndpointShared,
    addr: NetAddr,
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
/// `to`. ACKs are not sequenced or retransmitted: a lost ACK is recovered
/// by the data sender's retransmission, which re-raises the receiver's ACK
/// debt.
fn send_ack(fabric: &Fabric, from: NetAddr, to: NetAddr, cum: u32, sack: u64) {
    charge(Category::Reliability, icost::relia::ACK_BUILD);
    EndpointStats::bump(&fabric.shared(from).stats.acks_sent, 1);
    if fabric.shared(from).trace_enabled {
        litempi_trace::emit(EventKind::AckSent, to.0 as u64, cum as u64);
    }
    let pkt = WirePacket {
        src: from,
        seq: 0,
        ack: Some(cum),
        sack,
        crc: None,
        body: None,
    };
    transmit(fabric, from, to, pkt, false);
}

/// Advance `addr`'s reliability clock: fire due retransmit timers, flush
/// reorder stashes (except the one toward `keep_stash`, which the caller's
/// next packet overtakes), emit owed standalone ACKs, and mark peers dead
/// when their retry budget is exhausted. Called from the progress path
/// ([`Endpoint::pump`]), from the injection path, and from blocking wait
/// loops. Before the earliest-due word it takes no lock.
fn tick_relia(fabric: &Fabric, addr: NetAddr, now: u64, keep_stash: Option<NetAddr>) {
    let my = fabric.shared(addr);
    if now < my.relia_due.load(Ordering::Relaxed) {
        // Every site that makes work due must have lowered the word under
        // the lock (see `relia_due`); one that did not loses the work until
        // the word's time comes.
        #[cfg(debug_assertions)]
        {
            let st = my.relia.lock();
            let due = my.relia_due.load(Ordering::Relaxed);
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
    let mut newly_dead: Vec<NetAddr> = Vec::new();
    {
        let mut st = my.relia.lock();
        // Only resident links can carry work: a peer with no link has no
        // stash, no retransmit queue, and no ACK debt — so the tick is
        // O(active peers), not O(ranks). `BTreeMap` iteration is ascending
        // by peer, the same order the dense sweep used.
        for (d, link) in st.links_mut() {
            if fabric.endpoint_killed(addr) || fabric.endpoint_killed(d) {
                // Nothing reaches a killed end: resending to it would
                // charge every timer round until retry exhaustion, for a
                // verdict the kill switch has already given.
                link.tx.abandon();
            }
            if keep_stash != Some(d) {
                if let Some(p) = link.stash.take() {
                    // Already passed its fault rolls; deliver directly.
                    stash_flush.push((d, p));
                }
            }
            match link.tx.tick(now) {
                TxTick::Idle => {}
                TxTick::Resend(pending) => wrap_resends(my, addr, d, link, pending, &mut resends),
                // A link reports its death once: a dead sender never ticks.
                TxTick::Dead => {
                    fabric.note_fault();
                    newly_dead.push(d);
                }
            }
            if link.rx.ack_owed > 0 {
                acks.push((d, link.rx.take_ack(), link.rx.sack()));
            }
        }
        my.relia_due
            .store(st.next_deadline(now).unwrap_or(u64::MAX), Ordering::Relaxed);
    }
    for (d, p) in stash_flush {
        deliver_packet(fabric, d, p);
    }
    for (d, p) in resends {
        transmit(fabric, addr, d, p, false);
    }
    for (d, cum, sack) in acks {
        send_ack(fabric, addr, d, cum, sack);
    }
    if !newly_dead.is_empty() {
        EndpointStats::bump(&my.stats.peers_died, newly_dead.len() as u64);
        if my.trace_enabled {
            for d in &newly_dead {
                litempi_trace::emit(EventKind::PeerDead, d.0 as u64, 1);
            }
        }
        // Wake the waiters so they can observe `peer_unreachable`.
        my.bump_event();
    }
}

/// [`Endpoint::pump`] of `addr`.
fn pump(fabric: &Fabric, addr: NetAddr) {
    if fabric.shared(addr).routed {
        tick_relia(fabric, addr, fabric.now_us(), None);
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
    /// with the tag-lock-domain matching counters (one brief tag lock
    /// acquisition — stats are off the critical path).
    pub fn stats(&self) -> StatsSnapshot {
        let shared = self.shared(self.addr);
        let matching = shared.tag.lock().counters();
        // The per-peer memory gauge: bytes pinned by resident link state.
        // O(active peers) by construction — the scale tests assert it
        // stays orders of magnitude under the dense all-pairs baseline.
        let resident_link_bytes = if shared.routed {
            shared.relia.lock().resident_link_bytes()
        } else {
            0
        };
        shared.stats.snapshot(&matching, resident_link_bytes)
    }

    fn shared(&self, addr: NetAddr) -> &EndpointShared {
        self.fabric.shared(addr)
    }

    // -------------------------------------------------------------- events

    /// Current completion-event epoch. Pair with [`Self::wait_event`] to
    /// park a progress loop without missing completions.
    pub fn event_epoch(&self) -> u64 {
        self.shared(self.addr).events.epoch()
    }

    /// Block until this endpoint's event epoch moves past `seen` (a value
    /// previously read with [`Self::event_epoch`]) or `timeout` elapses.
    pub fn wait_event(&self, seen: u64, timeout: Duration) {
        self.shared(self.addr).wait_event(seen, timeout);
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
            .wait_until(&self.fabric, progress, poll)
    }

    /// Raise a completion event on `peer`'s endpoint: this rank changed,
    /// without a packet, something `peer` may be parked on (the RDMA read
    /// that completes `peer`'s rendezvous send, a lock word it released).
    /// The completion a NIC delivers for it; without it the waiter would
    /// sleep on.
    pub fn signal_peer(&self, peer: NetAddr) {
        self.shared(peer).bump_event();
    }

    // ---------------------------------------------------------------- tagged

    /// Inject a tagged message toward `dst`. Fire-and-forget: eager
    /// semantics, with the payload copied (via `Bytes`) at injection time.
    /// Delivery is FIFO per (src, dst) pair.
    pub fn tsend(&self, dst: NetAddr, match_bits: u64, data: Bytes) {
        let my = self.shared(self.addr);
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
            send_packet(&self.fabric, self.addr, dst, PacketBody::Tagged(msg));
        } else {
            self.shared(dst).deliver_tagged(msg);
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
    pub fn trecv_post(&self, match_bits: u64, ignore: u64) -> RecvHandle {
        let peer = self.shared(self.addr);
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
            let mut tag = peer.tag.lock();
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
            slot,
        }
    }

    /// Nonblocking check of the unexpected queue (the substrate for
    /// `MPI_IPROBE`): returns a *clone* of the first matching message
    /// without consuming it.
    pub fn tpeek(&self, match_bits: u64, ignore: u64) -> Option<TaggedMessage> {
        let peer = self.shared(self.addr);
        peer.tag.lock().peek(match_bits, ignore).cloned()
    }

    /// Remove and return the first unexpected message matching
    /// `(match_bits, ignore)` — the substrate for `MPI_MPROBE`/`MPI_MRECV`:
    /// the message leaves the matching queues so no other receive can
    /// claim it. Returns `None` when nothing has arrived yet.
    pub fn tdequeue(&self, match_bits: u64, ignore: u64) -> Option<TaggedMessage> {
        let peer = self.shared(self.addr);
        peer.tag.lock().dequeue(match_bits, ignore)
    }

    /// Advance the reliability clock (retransmits, reorder-stash flushes,
    /// owed ACKs). A no-op on an unrouted endpoint. Progress engines
    /// above the fabric call this from their polling loops: what this
    /// endpoint holds back — a packet in its reorder stash, an owed ACK —
    /// goes out only on its own tick, so a peer's posted receive can wait
    /// on it.
    pub fn pump(&self) {
        pump(&self.fabric, self.addr);
    }

    /// Is `peer` unreachable from this endpoint? Three routes say so: the
    /// job was aborted ([`Fabric::abort_job`]), which makes every peer
    /// unreachable; the fabric's kill switch took `peer` down, which every
    /// endpoint sees the instant it trips, with or without traffic to it;
    /// or the reliability layer's retry budget toward `peer` ran out.
    /// While nothing has failed in the job it is one load of the fabric's
    /// fault word ([`Fabric::fault_free`]).
    pub fn peer_unreachable(&self, peer: NetAddr) -> bool {
        !self.fabric.fault_free()
            && (self.fabric.job_aborted()
                || self.fabric.endpoint_killed(peer)
                || self.shared(self.addr).relia.lock().is_dead(peer))
    }

    /// Drive the reliability layer until none of this endpoint's injected
    /// packets await acknowledgment (or their peers are dead), no reorder
    /// stash is pending, and no ACK debt is owed to any peer. A no-op on a
    /// perfect fabric, and on an endpoint the kill switch took down (or in
    /// an aborted job): nothing it sends can be acknowledged. Ranks call
    /// this before tearing down so locally-completed eager sends reach
    /// their destination — the delivery guarantee MPI requires of its
    /// transport — and so peers still draining are not starved of the ACKs
    /// they need to stop retransmitting. It waits like any blocking call:
    /// the ACK that retires a link's last packet in flight raises this
    /// endpoint's event, and its retransmit timers bound every sleep. It
    /// changes no link: every link lives as long as the endpoint, so
    /// traffic after a `quiesce` continues both sequence spaces and the
    /// fault stream where they stopped.
    #[track_caller]
    pub fn quiesce(&self) {
        let (fabric, addr) = (&self.fabric, self.addr);
        let my = self.shared(addr);
        if !my.routed {
            return;
        }
        let gone = || fabric.job_aborted() || fabric.endpoint_killed(addr);
        let busy = || {
            my.relia.lock().links().any(|(d, link)| {
                (!link.tx.dead && !fabric.endpoint_killed(d) && link.tx.in_flight() > 0)
                    || link.stash.is_some()
                    || link.rx.ack_owed > 0
            })
        };
        let tick = || tick_relia(fabric, addr, fabric.now_us(), None);
        tick();
        my.wait_until(fabric, tick, || (gone() || !busy()).then_some(()));
    }

    // -------------------------------------------------------------------- AM

    /// Inject an active message. The AM queue carries RMA and PSCW control
    /// messages whose per-pair FIFO the layers above rely on.
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
            send_packet(&self.fabric, self.addr, dst, PacketBody::Am(msg));
            return;
        }
        self.shared(dst).deliver_am(msg);
    }

    /// Nonblocking poll for a pending active message.
    pub fn am_poll(&self) -> Option<AmMessage> {
        self.shared(self.addr).pop_am()
    }

    /// Block until an active message arrives.
    #[track_caller]
    pub fn am_wait(&self) -> AmMessage {
        self.shared(self.addr)
            .wait_until(&self.fabric, || {}, || self.am_poll())
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
}

/// Handle for a posted nonblocking receive.
pub struct RecvHandle {
    fabric: Arc<Fabric>,
    addr: NetAddr,
    /// Posted match bits, kept so the completion event pairs with the
    /// `RecvPost` that opened the span (wildcard receives may complete
    /// with different message bits).
    bits: u64,
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

    /// Block until the message arrives, parking on the endpoint's
    /// completion-event epoch.
    #[track_caller]
    pub fn wait(self) -> TaggedMessage {
        let (fabric, addr) = (&self.fabric, self.addr);
        let progress = || pump(fabric, addr);
        (fabric.shared(addr)).wait_until(fabric, progress, || self.poll())
    }

    /// Cancel the posted receive. Returns `true` if it was cancelled before
    /// matching, `false` if a message already matched it (in which case the
    /// message can still be polled).
    pub fn cancel(&self) -> bool {
        let shared = self.fabric.shared(self.addr);
        shared.tag.lock().cancel(&self.slot)
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
    fn am_queue_concurrent_senders_arrive_once_in_order() {
        // Four senders push 10 000 AMs at one endpoint while its owner
        // drains: every message arrives exactly once and in its sender's
        // order, whether the owner found it by `am_poll` (which skips the
        // lock on an empty queue) or slept for it in `am_wait`.
        const SENDERS: usize = 4;
        const PER_SENDER: u32 = 2_500;
        let f = fabric(SENDERS + 1);
        let owner = f.endpoint(NetAddr(SENDERS as u32));
        let start = std::sync::Barrier::new(SENDERS + 1);
        std::thread::scope(|s| {
            for sender in 0..SENDERS {
                let (f, start) = (&f, &start);
                s.spawn(move || {
                    let ep = f.endpoint(NetAddr(sender as u32));
                    start.wait();
                    for seq in 0..PER_SENDER {
                        let mut hdr = [0u8; 32];
                        hdr[..4].copy_from_slice(&seq.to_le_bytes());
                        ep.am_send(NetAddr(SENDERS as u32), sender as u16, hdr, Bytes::new());
                        if seq % 64 == 0 {
                            std::thread::yield_now();
                        }
                    }
                });
            }
            start.wait();
            let mut next = [0u32; SENDERS];
            for i in 0..SENDERS as u32 * PER_SENDER {
                let m = if i % 2 == 0 {
                    owner.am_wait()
                } else {
                    loop {
                        if let Some(m) = owner.am_poll() {
                            break m;
                        }
                        std::hint::spin_loop();
                    }
                };
                let sender = usize::from(m.handler);
                assert_eq!(m.src, NetAddr(sender as u32));
                let seq = u32::from_le_bytes(m.header[..4].try_into().expect("4 bytes"));
                assert_eq!(seq, next[sender], "sender {sender} out of order");
                next[sender] += 1;
            }
            assert_eq!(next, [PER_SENDER; SENDERS]);
        });
        assert!(owner.am_poll().is_none(), "no message twice");
        let shared = owner.shared(owner.addr);
        assert_eq!(shared.am_pending.load(Ordering::SeqCst), 0);
        assert!(shared.am.lock().is_empty());
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

    /// The packet of seq `seq` with tag `bits` from `src`, as it goes on
    /// the wire, for tests that deliver packets by hand.
    fn data_packet(src: NetAddr, seq: u32, bits: u64) -> WirePacket {
        let body = PacketBody::Tagged(TaggedMessage {
            src,
            match_bits: bits,
            data: Bytes::from_static(b"x"),
        });
        WirePacket {
            src,
            seq,
            ack: None,
            sack: 0,
            crc: Some(body.checksum()),
            body: Some(body),
        }
    }

    /// An arrival beyond the receive window delivers nothing but leaves its
    /// receiver owing an ACK, which only the receiver's own tick sends: its
    /// epoch moves, so a receiver asleep without a timer wakes and re-reads
    /// its timers.
    #[test]
    fn a_packet_that_leaves_an_ack_owed_moves_the_receivers_epoch() {
        let profile = ProviderProfile::infinite().reliable();
        let f = Fabric::new(2, profile, Topology::single_node(2));
        let b = f.endpoint(NetAddr(1));
        for seq in 1..=64 {
            deliver_packet(&f, NetAddr(1), data_packet(NetAddr(0), seq, u64::from(seq)));
        }
        let before = b.event_epoch();
        deliver_packet(&f, NetAddr(1), data_packet(NetAddr(0), 65, 65));
        assert!(b.event_epoch() > before, "an overflow owes an ACK");
        let relia = f.shared(NetAddr(1)).relia.lock();
        assert_eq!(relia.link(NetAddr(0)).unwrap().rx.ack_owed, 1);
    }

    /// A duplicate is answered at once, not left as ACK debt for the
    /// receiver's tick: the sender resends because it missed an ACK, and a
    /// receiver that is not ticking would otherwise let it run its retry
    /// budget down. Two deliveries and a duplicate owe less than a
    /// standalone ACK waits for; the duplicate sends one, and it retires
    /// both packets.
    #[test]
    fn a_duplicate_on_a_reliable_link_is_answered_at_once() {
        let profile = ProviderProfile::infinite().reliable();
        let f = Fabric::new(2, profile, Topology::single_node(2));
        let (a, b) = (f.endpoint(NetAddr(0)), f.endpoint(NetAddr(1)));
        for bits in 0..2 {
            a.tsend(NetAddr(1), bits, Bytes::from_static(b"x"));
        }
        assert_eq!(b.stats().acks_sent, 0);
        deliver_packet(&f, NetAddr(1), data_packet(NetAddr(0), 0, 0));
        assert_eq!(b.stats().dup_dropped, 1);
        assert_eq!(b.stats().acks_sent, 1, "the duplicate was not answered");
        let relia = f.shared(NetAddr(0)).relia.lock();
        assert_eq!(relia.link(NetAddr(1)).unwrap().tx.in_flight(), 0);
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
        while f.shared(NetAddr(1)).events.waiters() == 0 {
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

    // ------------------------------------------------------- lossy/reliable

    use crate::fault::{FaultPlan, FaultSpec};
    use crate::reliability::ReliabilityConfig;

    fn chaotic_profile(seed: u64) -> ProviderProfile {
        ProviderProfile::infinite()
            .with_faults(FaultPlan::uniform(seed, FaultSpec::percent(20, 10, 30, 0)))
            .reliable()
    }

    /// A reliable link whose only fault is the reorder stash: 30 % of the
    /// packets wait in their sender's stash for its next tick.
    fn reordering_profile(seed: u64) -> ProviderProfile {
        ProviderProfile::infinite()
            .with_faults(FaultPlan::uniform(seed, FaultSpec::percent(0, 0, 30, 0)))
            .reliable()
    }

    /// How long [`pumped_recv`] waits before it fails.
    const PUMPED_RECV_DEADLINE: Duration = Duration::from_secs(10);

    /// One line per resident link of `e`: what a wait on it can be stuck
    /// behind.
    fn link_state(e: &Endpoint) -> String {
        let st = e.shared(e.addr).relia.lock();
        st.links()
            .map(|(d, link)| {
                format!(
                    "  {:?} -> {d:?}: in flight {}, timed {}, stash {}, ACK debt {}, dead {}\n",
                    e.addr,
                    link.tx.in_flight(),
                    !link.tx.needs_clock(),
                    link.stash.is_some(),
                    link.rx.ack_owed,
                    link.tx.dead,
                )
            })
            .collect()
    }

    /// Receive one message matching `(bits, ignore)` at `b`, pumping `b`
    /// and every sender in `from` while it waits (drives retransmit timers
    /// and reorder stashes on a single thread: a stashed packet goes out
    /// only on its sender's tick). Fails after [`PUMPED_RECV_DEADLINE`]
    /// with every endpoint's link state: an unexpected death verdict then
    /// fails its test instead of spinning.
    fn pumped_recv(from: &[&Endpoint], b: &Endpoint, bits: u64, ignore: u64) -> TaggedMessage {
        let h = b.trecv_post(bits, ignore);
        let t0 = std::time::Instant::now();
        loop {
            if let Some(m) = h.poll() {
                break m;
            }
            if t0.elapsed() > PUMPED_RECV_DEADLINE {
                let links: String = from.iter().chain([&b]).map(|e| link_state(e)).collect();
                panic!(
                    "no message for bits {bits:#x} (ignore {ignore:#x}) at {:?} within \
                     {PUMPED_RECV_DEADLINE:?}; links:\n{links}",
                    b.addr
                );
            }
            from.iter().for_each(|e| e.pump());
            b.pump();
            std::thread::yield_now();
        }
    }

    /// Drain `n` tag-`base+i` messages from `a` in order, pumping both.
    fn pumped_recv_all(a: &Endpoint, b: &Endpoint, base: u64, n: u64) -> Vec<TaggedMessage> {
        (0..n).map(|i| pumped_recv(&[a], b, base + i, 0)).collect()
    }

    #[test]
    fn reorder_preserves_pair_fifo() {
        let f = Fabric::new(2, reordering_profile(0xFEED), Topology::single_node(2));
        let a = f.endpoint(NetAddr(0));
        let b = f.endpoint(NetAddr(1));
        for i in 0..100u64 {
            a.tsend(NetAddr(1), 7, Bytes::copy_from_slice(&i.to_le_bytes()));
        }
        // One tag: the receives match in arrival order, so per-pair FIFO
        // means payload i always carries value i.
        for i in 0..100u64 {
            let m = pumped_recv(&[&a], &b, 7, 0);
            assert_eq!(u64::from_le_bytes(m.data[..].try_into().unwrap()), i);
        }
    }

    /// The next packet on a link overtakes the one its stash holds, so the
    /// receiver's window buffers an out-of-order arrival (its reorder
    /// buffer keeps the allocation it took for it) and still releases
    /// every message once and in order. The injection tick must leave the
    /// stash toward the send's destination alone for that.
    #[test]
    fn reorder_lets_a_links_next_packet_overtake_its_stash() {
        let f = Fabric::new(2, reordering_profile(0xFEED), Topology::single_node(2));
        let a = f.endpoint(NetAddr(0));
        let b = f.endpoint(NetAddr(1));
        const N: u64 = 200;
        for i in 0..N {
            a.tsend(NetAddr(1), 7, Bytes::copy_from_slice(&i.to_le_bytes()));
        }
        let window = || {
            let st = f.shared(NetAddr(1)).relia.lock();
            st.link(NetAddr(0)).map_or(0, |l| l.rx.resident_bytes())
        };
        assert!(window() > 0, "no arrival was ever buffered out of order");
        for i in 0..N {
            let m = pumped_recv(&[&a], &b, 7, 0);
            assert_eq!(u64::from_le_bytes(m.data[..].try_into().unwrap()), i);
        }
        a.quiesce();
        b.quiesce();
        assert!(b.tpeek(0, u64::MAX).is_none(), "a message arrived twice");
    }

    #[test]
    fn reorder_wildcard_sees_all_messages() {
        let f = Fabric::new(3, reordering_profile(7), Topology::single_node(3));
        let a = f.endpoint(NetAddr(0));
        let c = f.endpoint(NetAddr(2));
        let b = f.endpoint(NetAddr(1));
        for i in 0..20u64 {
            a.tsend(NetAddr(1), i, Bytes::new());
            c.tsend(NetAddr(1), 1000 + i, Bytes::new());
        }
        let mut seen: Vec<u64> = (0..40)
            .map(|_| pumped_recv(&[&a, &c], &b, 0, u64::MAX).match_bits)
            .collect();
        seen.sort_unstable();
        let expect: Vec<u64> = (0..20).chain(1000..1020).collect();
        assert_eq!(seen, expect);
    }

    /// Two senders interleave their sends to one receiver, which drains
    /// them with wildcard receives in arrival order. A packet held in its
    /// sender's reorder stash until that sender's next tick lets the other
    /// source's next message overtake it; each source's own messages still
    /// arrive in order. Each source spreads its messages over three tags,
    /// so a matcher that breaks a source's order across its tags, or within
    /// one tag when the other source's arrivals come between, fails here
    /// too.
    #[test]
    fn a_reordered_packet_on_a_reliable_link_lets_another_source_overtake() {
        const N: u64 = 200;
        let f = Fabric::new(3, reordering_profile(0xC0DE), Topology::single_node(3));
        let senders = [f.endpoint(NetAddr(0)), f.endpoint(NetAddr(2))];
        let b = f.endpoint(NetAddr(1));
        // The payload is the global send index: source s's i-th is 2i + s.
        for i in 0..N {
            for (s, e) in (0..).zip(&senders) {
                let (bits, g) = ((s << 8) | (i % 3), 2 * i + s);
                e.tsend(NetAddr(1), bits, Bytes::copy_from_slice(&g.to_le_bytes()));
            }
        }
        let from = [&senders[0], &senders[1]];
        let arrivals: Vec<u64> = (0..2 * N)
            .map(|_| {
                let m = pumped_recv(&from, &b, 0, u64::MAX);
                u64::from_le_bytes(m.data[..].try_into().unwrap())
            })
            .collect();
        // An overtake: an arrival sent before the other source's arrival
        // just ahead of it. A FIFO violation: one sent before its own
        // source's previous arrival.
        let (mut overtakes, mut fifo_violations) = (0, 0);
        let mut last = [None::<u64>; 2];
        for (k, &g) in arrivals.iter().enumerate() {
            let s = (g % 2) as usize;
            if last[s].is_some_and(|x| g < x) {
                fifo_violations += 1;
            }
            last[s] = Some(g);
            if k > 0 && arrivals[k - 1] > g && arrivals[k - 1] % 2 != g % 2 {
                overtakes += 1;
            }
        }
        let mut sorted = arrivals.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..2 * N).collect::<Vec<_>>(), "exactly once");
        assert_eq!(
            fifo_violations, 0,
            "a source's messages overtook each other"
        );
        assert!(overtakes > 0, "no message overtook another source's");
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
        // A timer no preemption of a debug test thread can outlast: the
        // adaptive RTO's 50 µs floor fired now and then on a busy host.
        let slow_timer = ReliabilityConfig::on()
            .with_retries(8, 1_000_000)
            .with_rto_bounds(1_000_000, 1_000_000);
        let f = Fabric::new(
            2,
            ProviderProfile::infinite().with_reliability(slow_timer),
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
            .with_rto_bounds(20_000, 20_000);
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
    fn corruption_is_detected_by_the_crc_and_recovered() {
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
    fn reliable_16k_bodies_survive_corruption() {
        // 16 KiB bodies, checksummed by the CRC's wide stage where the
        // host has one: a flip anywhere in them fails the check, and the
        // resend arrives once and intact.
        let plan = FaultPlan::uniform(42, FaultSpec::percent(0, 0, 0, 40));
        let profile = ProviderProfile::infinite().with_faults(plan).reliable();
        let f = Fabric::new(2, profile, Topology::single_node(2));
        let a = f.endpoint(NetAddr(0));
        let b = f.endpoint(NetAddr(1));
        const N: u64 = 24;
        let body = |i: u64| -> Vec<u8> {
            (0..16u64 << 10)
                .map(|j| ((j * 131) ^ (i * 7)) as u8)
                .collect()
        };
        for i in 0..N {
            a.tsend(NetAddr(1), 9000 + i, Bytes::from(body(i)));
        }
        let msgs = pumped_recv_all(&a, &b, 9000, N);
        for (i, m) in msgs.iter().enumerate() {
            assert!(m.data[..] == body(i as u64)[..], "message {i} corrupted");
        }
        a.quiesce();
        b.quiesce();
        assert!(
            b.trecv_post(0, u64::MAX).poll().is_none(),
            "a message arrived twice"
        );
        assert!(b.stats().crc_failures > 0, "corruption never hit");
    }

    /// A fault plan without `.reliable()` runs the reliable link: there is
    /// no mode that injects faults and leaves them unrepaired.
    #[test]
    fn a_fault_plan_alone_rides_the_reliable_link() {
        let plan = FaultPlan::uniform(3, FaultSpec::percent(50, 0, 0, 0));
        let profile = ProviderProfile::infinite().with_faults(plan);
        let f = Fabric::new(2, profile, Topology::single_node(2));
        let a = f.endpoint(NetAddr(0));
        let b = f.endpoint(NetAddr(1));
        const TAG: u64 = 5;
        for i in 0..100u64 {
            a.tsend(NetAddr(1), TAG, Bytes::copy_from_slice(&i.to_le_bytes()));
        }
        // One tag: the receives match in arrival order.
        for i in 0..100u64 {
            let m = pumped_recv(&[&a], &b, TAG, 0);
            assert_eq!(u64::from_le_bytes(m.data[..].try_into().unwrap()), i);
        }
        a.quiesce();
        b.quiesce();
        assert!(b.tpeek(0, u64::MAX).is_none(), "a message arrived twice");
        assert!(a.stats().faults_dropped > 0, "the plan dropped nothing");
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

    /// The switch counts first transmissions of data packets only, so no
    /// retransmit or ACK can trip it early: it trips on the fifth data
    /// packet, the second of the second burst.
    #[test]
    fn kill_switch_makes_peer_unreachable() {
        let plan = FaultPlan::none().with_kill(1, 5);
        let profile = ProviderProfile::infinite().with_faults(plan);
        let f = Fabric::new(2, profile, Topology::single_node(2));
        let a = f.endpoint(NetAddr(0));
        let b = f.endpoint(NetAddr(1));
        assert!(!a.peer_unreachable(NetAddr(1)));
        // The first packets get through...
        for i in 0..3u64 {
            a.tsend(NetAddr(1), i, Bytes::new());
        }
        let _ = pumped_recv_all(&a, &b, 0, 3);
        // ...then the victim dies mid-run, and the sender sees it.
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

    /// Endpoint 0 sees a peer killed by traffic it took no part in at
    /// once, without a pump and without a packet of its own: the kill
    /// switch is fabric-wide, the way a real provider surfaces a downed
    /// port.
    #[test]
    fn kill_switch_reaches_a_peer_that_never_exchanged_a_packet() {
        let plan = FaultPlan::none().with_kill(1, 1);
        let profile = ProviderProfile::infinite().with_faults(plan).reliable();
        let f = Fabric::new(3, profile, Topology::single_node(3));
        let (a, b, c) = (
            f.endpoint(NetAddr(0)),
            f.endpoint(NetAddr(1)),
            f.endpoint(NetAddr(2)),
        );
        assert!(!a.peer_unreachable(NetAddr(1)));
        // Rank 1's first packet, to rank 2, is its last.
        b.tsend(NetAddr(2), 1, Bytes::new());
        assert_eq!(c.trecv_blocking(1, 0).src, NetAddr(1));
        assert!(f.endpoint_killed(NetAddr(1)), "the switch never tripped");
        assert!(a.peer_unreachable(NetAddr(1)));
        assert!(!a.peer_unreachable(NetAddr(2)));
        assert_eq!(a.stats().msgs_sent, 0, "endpoint 0 sent a packet");
        assert_eq!(a.stats().acks_sent, 0, "endpoint 0 sent a packet");
    }

    /// Sends toward a killed peer are black-holed, like sends toward one
    /// its retry budget gave up on: nothing enters the retransmit queue,
    /// and what was in flight when the switch tripped is dropped at the
    /// next tick instead of resent every timer round until exhaustion.
    /// The kill is no retry exhaustion, so `peers_died` stays 0.
    #[test]
    fn kill_switch_black_holes_sends_without_resending_them() {
        let plan = FaultPlan::none().with_kill(1, 1);
        let f = Fabric::new(
            2,
            ProviderProfile::infinite().with_faults(plan),
            Topology::single_node(2),
        );
        let a = f.endpoint(NetAddr(0));
        // The first send trips the switch; its ACK never comes back.
        for i in 0..10u64 {
            a.tsend(NetAddr(1), i, Bytes::from_static(b"x"));
        }
        assert!(f.endpoint_killed(NetAddr(1)));
        let t0 = std::time::Instant::now();
        while t0.elapsed() < Duration::from_millis(100) {
            a.pump();
            std::thread::yield_now();
        }
        let st = a.stats();
        assert_eq!(st.retransmits, 0, "sends to a killed peer were resent");
        assert_eq!(st.peers_died, 0, "a kill counted as a retry exhaustion");
        let my = f.shared(NetAddr(0));
        let relia = my.relia.lock();
        let (_, link) = relia.links().next().expect("the first send built a link");
        assert_eq!(link.tx.in_flight(), 0);
    }

    /// Retry exhaustion makes the peer unreachable on the very next call —
    /// `peer_unreachable` takes no lock until the fabric's fault word
    /// moves, so the word must move with the verdict — counts one death
    /// however often the dead peer is sent to afterwards, and outlives
    /// `quiesce`.
    #[test]
    fn retry_exhaustion_is_seen_at_once_and_survives_quiesce() {
        // Link 0 -> 1 drops every packet, and nothing kills the peer.
        let plan = FaultPlan::none().with_link(0, 1, FaultSpec::percent(100, 0, 0, 0));
        let profile = ProviderProfile::infinite()
            .with_faults(plan)
            .with_reliability(ReliabilityConfig::on().with_retries(2, 50));
        let f = Fabric::new(2, profile, Topology::single_node(2));
        let a = f.endpoint(NetAddr(0));
        let peer = NetAddr(1);
        a.tsend(peer, 1, Bytes::new());
        let my = f.shared(NetAddr(0));
        let t0 = std::time::Instant::now();
        while !my.relia.lock().is_dead(peer) {
            assert!(!a.peer_unreachable(peer), "unreachable before a verdict");
            a.pump();
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "retry budget never expired"
            );
            std::thread::yield_now();
        }
        assert!(a.peer_unreachable(peer));
        assert_eq!(a.stats().peers_died, 1);
        // Later sends to the dead peer are black-holed, not a second death.
        a.tsend(peer, 2, Bytes::new());
        a.pump();
        assert_eq!(a.stats().peers_died, 1, "one death counted twice");
        a.quiesce();
        assert!(a.peer_unreachable(peer), "quiesce forgot the verdict");
    }

    // ----------------------------------------------------- the fault word
    //
    // One case per failure source: each fails if its source stops bumping
    // the fabric's fault word, because `peer_unreachable` then answers from
    // the word alone.

    #[test]
    fn fault_word_moves_on_an_abort() {
        let f = fabric(2);
        let a = f.endpoint(NetAddr(0));
        assert!(f.fault_free() && !a.peer_unreachable(NetAddr(1)));
        f.abort_job();
        assert!(!f.fault_free());
        assert!(a.peer_unreachable(NetAddr(1)));
    }

    #[test]
    fn fault_word_moves_on_a_kill_trip() {
        let plan = FaultPlan::none().with_kill(1, 1);
        let f = Fabric::new(
            2,
            ProviderProfile::infinite().with_faults(plan),
            Topology::single_node(2),
        );
        let (a, b) = (f.endpoint(NetAddr(0)), f.endpoint(NetAddr(1)));
        assert!(f.fault_free() && !a.peer_unreachable(NetAddr(1)));
        // The victim's first data packet is its last.
        b.tsend(NetAddr(0), 1, Bytes::new());
        assert!(!f.fault_free());
        assert!(a.peer_unreachable(NetAddr(1)));
        assert!(!b.peer_unreachable(NetAddr(0)), "only the victim is dead");
    }

    #[test]
    fn fault_word_moves_on_a_retry_exhaustion_verdict() {
        let plan = FaultPlan::none().with_link(0, 1, FaultSpec::percent(100, 0, 0, 0));
        let profile = ProviderProfile::infinite()
            .with_faults(plan)
            .with_reliability(ReliabilityConfig::on().with_retries(2, 50));
        let f = Fabric::new(2, profile, Topology::single_node(2));
        let (a, b) = (f.endpoint(NetAddr(0)), f.endpoint(NetAddr(1)));
        a.tsend(NetAddr(1), 1, Bytes::new());
        let t0 = std::time::Instant::now();
        while !f.shared(NetAddr(0)).relia.lock().is_dead(NetAddr(1)) {
            assert!(f.fault_free(), "the word moved before a verdict");
            a.pump();
            assert!(t0.elapsed() < Duration::from_secs(10), "no verdict");
            std::thread::yield_now();
        }
        assert!(!f.fault_free());
        assert!(a.peer_unreachable(NetAddr(1)));
        // The word is job-wide; the verdict stays the verdict's endpoint's.
        assert!(!b.peer_unreachable(NetAddr(0)));
    }

    /// A fault-free run of a lossy plan — every loss repaired, no peer
    /// declared dead — leaves the word at zero.
    #[test]
    fn fault_word_stays_zero_through_a_repaired_lossy_run() {
        let lossy = FaultPlan::uniform(0x5EED, FaultSpec::percent(1, 1, 1, 1));
        let f = Fabric::new(
            2,
            ProviderProfile::infinite().with_faults(lossy),
            Topology::single_node(2),
        );
        let (a, b) = (f.endpoint(NetAddr(0)), f.endpoint(NetAddr(1)));
        for i in 0..500u64 {
            a.tsend(NetAddr(1), i, Bytes::copy_from_slice(&i.to_le_bytes()));
            b.tsend(NetAddr(0), i, Bytes::copy_from_slice(&i.to_le_bytes()));
        }
        for i in 0..500u64 {
            pumped_recv(&[&a], &b, i, 0);
            pumped_recv(&[&b], &a, i, 0);
        }
        a.quiesce();
        b.quiesce();
        let lost = a.stats().faults_dropped + b.stats().faults_dropped;
        assert!(lost > 0, "the plan lost nothing");
        assert!(f.fault_free(), "a repaired loss moved the fault word");
        assert!(!a.peer_unreachable(NetAddr(1)) && !b.peer_unreachable(NetAddr(0)));
    }

    /// A fault plan's `reorder` holds back data packets only. Here every
    /// packet the receiver sends is drawn for its stash, and the receiver
    /// takes its messages but never ticks and sends no data: its
    /// standalone ACK still reaches the sender at once, so the sender's
    /// `quiesce` returns without waiting out its 2 s retransmit timer.
    #[test]
    fn reorder_never_holds_back_a_standalone_ack() {
        let slow_timer = ReliabilityConfig::on()
            .with_retries(8, 2_000_000)
            .with_rto_bounds(2_000_000, 2_000_000);
        let acks_reordered = FaultPlan::none().with_link(1, 0, FaultSpec::percent(0, 0, 100, 0));
        let f = Fabric::new(
            2,
            ProviderProfile::infinite()
                .with_faults(acks_reordered)
                .with_reliability(slow_timer),
            Topology::single_node(2),
        );
        let (a, b) = (f.endpoint(NetAddr(0)), f.endpoint(NetAddr(1)));
        for i in 0..u64::from(ACK_EVERY) {
            a.tsend(NetAddr(1), i, Bytes::from_static(b"x"));
        }
        for i in 0..u64::from(ACK_EVERY) {
            assert!(b.tdequeue(i, 0).is_some(), "message {i} not delivered");
        }
        let t0 = std::time::Instant::now();
        a.quiesce();
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "quiesce waited {:?} for an ACK",
            t0.elapsed()
        );
        assert_eq!(a.stats().retransmits, 0);
        assert_eq!(b.stats().acks_sent, 1);
        let st = f.shared(NetAddr(1)).relia.lock();
        assert!(st.link(NetAddr(0)).is_some_and(|l| l.stash.is_none()));
    }

    #[test]
    fn quiesce_drains_the_channel_on_teardown() {
        // `quiesce()` must drain the retransmit queue and ACK debt of
        // traffic still in flight on a chaotic link before teardown, and
        // leave the link usable: a second burst after it continues the
        // sequence spaces and the fault stream.
        let f = Fabric::new(2, chaotic_profile(0xBEEF), Topology::single_node(2));
        let a = f.endpoint(NetAddr(0));
        let b = f.endpoint(NetAddr(1));
        const N: u64 = 60;
        for i in 0..N {
            a.tsend(NetAddr(1), i, Bytes::copy_from_slice(&i.to_le_bytes()));
        }
        a.quiesce();
        b.quiesce();
        for addr in [NetAddr(0), NetAddr(1)] {
            let st = f.shared(addr).relia.lock();
            for (d, link) in st.links() {
                assert_eq!(
                    link.tx.in_flight(),
                    0,
                    "ep {addr:?} still has unacked packets to {d:?}"
                );
                assert_eq!(link.rx.ack_owed, 0, "ep {addr:?} still owes ACKs to {d:?}");
                assert!(link.stash.is_none());
            }
        }
        // The delivery guarantee held: every eager send arrived.
        for i in 0..N {
            let m = b.trecv_blocking(i, 0);
            assert_eq!(u64::from_le_bytes(m.data[..].try_into().unwrap()), i);
        }
        // The second burst goes under one tag, so the receives match in
        // arrival order: a duplicate or an overtaking shows in the payloads.
        const TAG: u64 = 1 << 20;
        for i in N..2 * N {
            a.tsend(NetAddr(1), TAG, Bytes::copy_from_slice(&i.to_le_bytes()));
        }
        for i in N..2 * N {
            let m = &pumped_recv_all(&a, &b, TAG, 1)[0];
            assert_eq!(u64::from_le_bytes(m.data[..].try_into().unwrap()), i);
        }
        a.quiesce();
        b.quiesce();
        assert!(
            b.trecv_post(0, u64::MAX).poll().is_none(),
            "a message arrived twice"
        );
    }

    /// A rank blocked in the endpoint-wide wait (`wait_until`, past its
    /// spins and asleep on the epoch) wakes on a tagged delivery its poll
    /// looks for, with exactly one wake-up.
    #[test]
    fn an_endpoint_wide_waiter_wakes_on_a_tagged_delivery() {
        let f = fabric(2);
        let b = f.endpoint(NetAddr(1));
        let f2 = f.clone();
        let t = std::thread::spawn(move || {
            let a = f2.endpoint(NetAddr(0));
            while f2.shared(NetAddr(1)).events.waiters() == 0 {
                std::thread::yield_now();
            }
            a.tsend(NetAddr(1), 3, Bytes::new());
        });
        let m = b.wait_until(|| {}, || b.tdequeue(3, 0));
        assert_eq!(m.match_bits, 3);
        t.join().unwrap();
        assert_eq!(b.stats().event_wakes, 1);
    }

    /// The clock is read once per flight on each side: for the send that
    /// times a packet, and for the ACK that retires it. A fault-free
    /// exchange of 64 eight-byte messages each way, whose receives find
    /// their messages waiting (no progress pass, so no tick), reads it
    /// twice per standalone ACK — not once per send as well.
    #[test]
    fn a_fault_free_reliable_exchange_reads_the_clock_twice_per_flight() {
        let slow_timer = ReliabilityConfig::on()
            .with_retries(8, 1_000_000)
            .with_rto_bounds(1_000_000, 1_000_000);
        let f = Fabric::new(
            2,
            ProviderProfile::infinite().with_reliability(slow_timer),
            Topology::single_node(2),
        );
        let (a, b) = (f.endpoint(NetAddr(0)), f.endpoint(NetAddr(1)));
        let before = f.clock_reads.load(Ordering::Relaxed);
        for (from, to) in [(&a, &b), (&b, &a)] {
            for i in 0..64u64 {
                from.tsend(to.addr, i, Bytes::copy_from_slice(&i.to_le_bytes()));
            }
            for i in 0..64u64 {
                to.trecv_blocking(i, 0);
            }
        }
        let reads = f.clock_reads.load(Ordering::Relaxed) - before;
        let flights = 2 * 64 / u64::from(ACK_EVERY);
        assert_eq!(a.stats().acks_sent + b.stats().acks_sent, flights);
        assert!(reads <= 2 * flights, "{reads} clock reads for 128 messages");
    }

    // ------------------------------------------------ the earliest-due word
    //
    // One case per site that makes work due: each drives the next tick with
    // no other traffic, and fails if that site does not lower the word.

    /// Two endpoints on the reliable path. Every packet from 1 to 0 is
    /// lost, so 1's ACKs never reach 0.
    fn reliable_pair() -> (Arc<Fabric>, Endpoint, Endpoint) {
        let acks_lost = FaultPlan::none().with_link(1, 0, FaultSpec::percent(100, 0, 0, 0));
        let f = Fabric::new(
            2,
            ProviderProfile::infinite()
                .with_faults(acks_lost)
                .with_reliability(ReliabilityConfig::on()),
            Topology::single_node(2),
        );
        let (a, b) = (f.endpoint(NetAddr(0)), f.endpoint(NetAddr(1)));
        (f, a, b)
    }

    #[test]
    fn relia_tick_word_acts_on_a_timer_armed_by_a_send() {
        let (f, a, _b) = reliable_pair();
        // Delivered, and unacknowledged: ACKs go every fourth delivery.
        a.tsend(NetAddr(1), 7, Bytes::from_static(b"x"));
        tick_relia(&f, NetAddr(0), f.now_us() + 1_000_000, None);
        assert_eq!(a.stats().retransmits, 1, "the armed timer fires");
    }

    #[test]
    fn relia_tick_word_acts_on_ack_debt_left_by_a_delivery() {
        let (f, a, b) = reliable_pair();
        a.tsend(NetAddr(1), 7, Bytes::from_static(b"x"));
        tick_relia(&f, NetAddr(1), f.now_us(), None);
        assert_eq!(b.stats().acks_sent, 1, "the owed ACK goes out");
    }

    #[test]
    fn relia_tick_word_acts_on_ack_debt_left_by_an_overflow() {
        let (f, _a, b) = reliable_pair();
        // Seq 0 is missing, 1 to 64 fill the reorder buffer, 65 overflows
        // it. Each buffered arrival is answered at once; the overflow owes.
        for seq in 1..=65 {
            deliver_packet(&f, NetAddr(1), data_packet(NetAddr(0), seq, u64::from(seq)));
        }
        assert_eq!(b.stats().acks_sent, 64);
        tick_relia(&f, NetAddr(1), f.now_us(), None);
        assert_eq!(b.stats().acks_sent, 65, "the owed ACK goes out");
    }

    #[test]
    fn relia_tick_word_acts_on_a_timer_an_ack_rearms_sooner() {
        let (f, a, _b) = reliable_pair();
        a.tsend(NetAddr(1), 7, Bytes::from_static(b"x"));
        a.tsend(NetAddr(1), 7, Bytes::from_static(b"y"));
        // A timer round backs the deadline off to a second from now ...
        let late = f.now_us() + 1_000_000;
        tick_relia(&f, NetAddr(0), late, None);
        assert_eq!(a.stats().retransmits, 2);
        // ... and an ACK for the first packet re-arms it one RTO out.
        let ack = WirePacket {
            src: NetAddr(1),
            seq: 0,
            ack: Some(1),
            sack: 0,
            crc: None,
            body: None,
        };
        deliver_packet(&f, NetAddr(0), ack);
        tick_relia(&f, NetAddr(0), f.now_us() + 10_000, None);
        assert_eq!(a.stats().retransmits, 3, "the re-armed timer fires");
    }

    #[test]
    fn relia_tick_word_acts_on_a_reorder_stash() {
        // A reorder-only plan: the stash is the only work due at once.
        let always = FaultPlan::uniform(1, FaultSpec::percent(0, 0, 100, 0));
        let f = Fabric::new(
            2,
            ProviderProfile::infinite().with_faults(always),
            Topology::single_node(2),
        );
        let (a, b) = (f.endpoint(NetAddr(0)), f.endpoint(NetAddr(1)));
        a.tsend(NetAddr(1), 7, Bytes::from_static(b"x"));
        assert!(b.tpeek(7, 0).is_none(), "held back");
        tick_relia(&f, NetAddr(0), f.now_us(), None);
        assert!(b.tpeek(7, 0).is_some(), "the tick flushes the stash");
    }
}
