//! Per-rank process state and the progress engine.
//!
//! A [`Process`] is what the application closure receives from
//! [`Universe::run`](crate::universe::Universe::run): the rank's identity,
//! its fabric endpoint, the build configuration, and the progress engine
//! that services active messages (the CH4 core's fallback machinery and
//! the CH3-like baseline's RMA emulation both ride on it).

use crate::comm::Communicator;
use crate::config::BuildConfig;
use crate::error::{MpiError, MpiResult};
use crate::op::Op;
use crate::proto;
use crate::universe::UnivShared;
use bytes::Bytes;
use litempi_datatype::{Datatype, Predefined};
use litempi_fabric::endpoint::RecvHandle;
use litempi_fabric::matching::MatchEngine;
use litempi_fabric::packet::{PostedRecv, SlotLease};
use litempi_fabric::{AmMessage, Endpoint, MatcherKind, NetAddr, TaggedMessage};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of precreated communicator handles (`MPI_COMM_1`..`MPI_COMM_8`)
/// provided by the §3.3 extension.
pub const NUM_PREDEF_COMMS: usize = 8;

/// Slot an AM get/get_accumulate reply lands in (filled by progress).
pub(crate) type ReplySlot = Arc<Mutex<Option<Vec<u8>>>>;

// ------------------------------------------------------ posted receives

/// A posted receive: the one place a rank's pending receives live, and the
/// one receive-side reader of `caps.native_tagged`. A netmod that matches
/// takes the receive itself; for one that cannot, "it simply falls back to
/// the active-message-based implementation provided by the ch4 core"
/// (paper §2) — the core's own [`MatchEngine`], which `AM_PT2PT` deliveries
/// feed and which completes the same lock-free slot the fabric uses.
pub(crate) enum Posted {
    /// In the netmod's matching queues.
    Fabric(RecvHandle),
    /// In the core's engine, or already filled from its unexpected queue.
    Core(SlotLease),
}

impl Posted {
    pub(crate) fn post(proc: &ProcInner, bits: u64, ignore: u64) -> Posted {
        if proc.native_tagged() {
            return Posted::Fabric(proc.endpoint.trecv_post(bits, ignore));
        }
        let slot = SlotLease::new();
        let hit = proc.core_match.lock().post(PostedRecv {
            match_bits: bits,
            ignore,
            slot: slot.share(),
        });
        if let Some(msg) = hit {
            slot.fill(msg);
        }
        Posted::Core(slot)
    }

    /// The matched message, once.
    pub(crate) fn poll(&self) -> Option<TaggedMessage> {
        match self {
            Posted::Fabric(handle) => handle.poll(),
            Posted::Core(slot) => slot.take(),
        }
    }

    /// Withdraw it, so the posted slot can't swallow later traffic. `true`
    /// if it had not matched yet.
    pub(crate) fn cancel(&self, proc: &ProcInner) -> bool {
        match self {
            Posted::Fabric(handle) => handle.cancel(),
            Posted::Core(slot) => proc.core_match.lock().cancel(slot),
        }
    }
}

// ------------------------------------------------------------- ProcInner

/// All per-rank state. `Communicator`, `Window`, and `Request` hold an
/// `Arc<ProcInner>`.
pub struct ProcInner {
    pub(crate) rank: usize,
    pub(crate) size: usize,
    pub(crate) endpoint: Endpoint,
    pub(crate) config: BuildConfig,
    pub(crate) univ: Arc<UnivShared>,
    /// The critical section `MPI_THREAD_MULTIPLE` builds take around every
    /// thread-checked operation: the paper's single global lock.
    pub(crate) crit: Mutex<()>,
    /// The CH4 core's matching engine (AM-only providers); see [`Posted`].
    pub(crate) core_match: Mutex<MatchEngine>,
    /// This rank's side of the windows it participates in, by window id
    /// (progress applies incoming one-sided AMs and PSCW notices there).
    pub(crate) my_windows: Mutex<HashMap<u64, Arc<crate::rma::WinTarget>>>,
    /// Outstanding get/get_accumulate replies, by op id.
    pub(crate) pending_replies: Mutex<HashMap<u64, ReplySlot>>,
    /// Op-id allocator for AM request/reply correlation.
    pub(crate) next_op_id: AtomicU64,
    /// Precreated communicator slots (§3.3 extension).
    pub(crate) predef_comms: [Mutex<Option<Arc<crate::comm::CommShared>>>; NUM_PREDEF_COMMS],
    /// Attached buffered-send buffer: `Some(capacity_bytes)` when attached
    /// (`MPI_BUFFER_ATTACH`). Our eager transport copies at injection, so
    /// the buffer never holds live data — only the capacity check is
    /// semantically observable, exactly as with a fast eager path in C.
    pub(crate) bsend_buffer: Mutex<Option<usize>>,
    /// Raw context ids revoked on this rank (ULFM `MPI_Comm_revoke`). A
    /// revocation marks both a communicator's user-channel context and its
    /// collective twin, so gates can test whatever ctx their match bits
    /// carry. Read only once the fabric's fault word has moved
    /// ([`ProcInner::first_failure`]).
    pub(crate) revoked: Mutex<HashSet<u16>>,
}

impl ProcInner {
    pub(crate) fn new(
        rank: usize,
        size: usize,
        endpoint: Endpoint,
        config: BuildConfig,
        univ: Arc<UnivShared>,
    ) -> ProcInner {
        // Arm this rank's trace recorder when the profile opts in:
        // the ring is preallocated here, before any traffic, so event
        // sites never allocate. Stamped against the fabric epoch so all
        // ranks share one clock.
        let trace = endpoint.fabric().profile().trace;
        if trace.enabled {
            litempi_trace::enable(rank, trace.ring_capacity, endpoint.fabric().epoch());
            // One-shot provenance record: which kernel tier this process
            // runs its per-byte hot paths on, so exported evidence is
            // self-describing.
            litempi_trace::emit(
                litempi_trace::EventKind::KernelTier,
                litempi_simd::active().id(),
                litempi_simd::active_crc(),
            );
        }
        ProcInner {
            rank,
            size,
            endpoint,
            config,
            univ,
            crit: Mutex::new(()),
            core_match: Mutex::new(MatchEngine::new(MatcherKind::Bucketed)),
            my_windows: Mutex::new(HashMap::new()),
            pending_replies: Mutex::new(HashMap::new()),
            next_op_id: AtomicU64::new(1),
            predef_comms: Default::default(),
            bsend_buffer: Mutex::new(None),
            revoked: Mutex::new(HashSet::new()),
        }
    }

    /// The ULFM gate: the first failure among a revoked context in `ctxs`
    /// (`Revoked`) and an unreachable world rank in `peers`
    /// (`PeerUnreachable`), in that order. Every send, receive post,
    /// request poll, schedule step and one-sided op passes it, each asking
    /// by what it passes. Uncharged, so the paper's charge identity holds:
    /// while nothing has failed in the job it is one load of the fabric's
    /// fault word ([`Fabric::fault_free`](litempi_fabric::Fabric::fault_free)).
    #[inline]
    pub(crate) fn first_failure(&self, ctxs: &[u16], peers: &[usize]) -> MpiResult<()> {
        if self.endpoint.fabric().fault_free() {
            return Ok(());
        }
        self.first_failure_slow(ctxs, peers)
    }

    #[cold]
    #[inline(never)]
    fn first_failure_slow(&self, ctxs: &[u16], peers: &[usize]) -> MpiResult<()> {
        if ctxs.iter().any(|ctx| self.revoked.lock().contains(ctx)) {
            return Err(MpiError::Revoked);
        }
        match (peers.iter()).find(|&&p| self.endpoint.peer_unreachable(self.addr_of_world(p))) {
            Some(&peer) => Err(MpiError::PeerUnreachable { peer }),
            None => Ok(()),
        }
    }

    #[inline]
    fn native_tagged(&self) -> bool {
        self.endpoint.fabric().profile().caps.native_tagged
    }

    /// The oldest unexpected message matching `(bits, ignore)`, left in
    /// place (`MPI_IPROBE`).
    pub(crate) fn peek_unexpected(&self, bits: u64, ignore: u64) -> Option<TaggedMessage> {
        if self.native_tagged() {
            self.endpoint.tpeek(bits, ignore)
        } else {
            self.core_match.lock().peek(bits, ignore).cloned()
        }
    }

    /// The same, removed from the queues so no receive can claim it
    /// (`MPI_IMPROBE`).
    pub(crate) fn dequeue_unexpected(&self, bits: u64, ignore: u64) -> Option<TaggedMessage> {
        if self.native_tagged() {
            self.endpoint.tdequeue(bits, ignore)
        } else {
            self.core_match.lock().dequeue(bits, ignore)
        }
    }

    /// Mark a communicator (by user-channel context id) revoked on this
    /// rank. Returns `true` on the first marking — the caller then owns
    /// forwarding the notice. Idempotent; charges the FT bookkeeping and
    /// emits the `CommRevoked` trace instant only on the transition.
    pub(crate) fn mark_revoked(&self, ctx: u16, local: bool) -> bool {
        use litempi_instr::{charge, cost, Category};
        let mut set = self.revoked.lock();
        if !set.insert(ctx) {
            return false;
        }
        // The collective twin shares the verdict: in-flight collective
        // receives poll their own (collective-channel) ctx.
        set.insert(crate::match_bits::ContextId(ctx).collective().0);
        drop(set);
        self.endpoint.fabric().note_fault();
        // A wait of this rank on the communicator ends with `Revoked`.
        self.endpoint.signal_peer(self.endpoint.addr());
        charge(Category::FaultTolerance, cost::ft::REVOKE_NOTICE);
        if self.endpoint.fabric().trace_enabled() {
            litempi_trace::emit(
                litempi_trace::EventKind::CommRevoked,
                ctx as u64,
                local as u64,
            );
        }
        true
    }

    /// Forward a revocation notice for `ctx` to every member of the
    /// communicator (world ranks in `members`) except this rank and
    /// `skip`, routing around peers already known dead. Shared by the
    /// local `revoke()` origin and the AM-handler re-forward.
    pub(crate) fn forward_revoke(&self, ctx: u16, members: &[u8], skip: Option<usize>) {
        use litempi_instr::{charge, cost, Category};
        for m in members.chunks_exact(4) {
            let world = u32::from_le_bytes(m.try_into().unwrap()) as usize;
            if world == self.rank || skip == Some(world) {
                continue;
            }
            let addr = self.addr_of_world(world);
            if self.endpoint.peer_unreachable(addr) {
                continue;
            }
            charge(Category::FaultTolerance, cost::ft::REVOKE_NOTICE);
            self.endpoint.am_send(
                addr,
                proto::AM_COMM_REVOKE,
                proto::header(ctx as u64, 0, 0, self.rank as u64),
                Bytes::copy_from_slice(members),
            );
        }
    }

    /// Drain and handle all pending active messages. Returns how many were
    /// processed. Called from every blocking loop in the library. What the
    /// handlers change (a core-matched receive, a reply slot, a window's
    /// applied count or PSCW notices, a revocation) is announced on this
    /// rank's endpoint, for a wait on another thread of the rank.
    pub(crate) fn progress(&self) -> usize {
        // Advance the endpoint's reliability clock first (a no-op on a
        // fault-free fabric): this rank's retransmits, owed ACKs and reorder
        // stash go out only on its own tick.
        self.endpoint.pump();
        let mut n = 0;
        while let Some(am) = self.endpoint.am_poll() {
            self.handle_am(am);
            n += 1;
        }
        if n > 0 {
            self.endpoint.signal_peer(self.endpoint.addr());
        }
        n
    }

    fn handle_am(&self, am: AmMessage) {
        use litempi_instr::{charge, cost, Category};
        charge(Category::Progress, cost::progress::AM_HANDLER);
        let (h0, h1, h2, h3) = proto::parse_header(&am.header);
        match am.handler {
            proto::AM_PT2PT => {
                self.core_match.lock().deliver(TaggedMessage {
                    src: am.src,
                    match_bits: h0,
                    data: am.data,
                });
            }
            proto::AM_RMA_PUT => {
                // h0=win, h1=offset, h2=len, h3=ack op id (0 = no ack).
                let win = self.window(h0);
                win.region.write(h1 as usize, &am.data);
                debug_assert_eq!(h2 as usize, am.data.len());
                win.applied.fetch_add(1, Ordering::AcqRel);
                if h3 != 0 {
                    self.endpoint.am_send(
                        am.src,
                        proto::AM_RMA_GET_REPLY,
                        proto::header(h3, 0, 0, 0),
                        Bytes::new(),
                    );
                }
            }
            proto::AM_RMA_ACC => {
                // h0=win, h1=offset, h2=len, h3=op+type.
                let win = self.window(h0);
                let (op_code, type_idx) = proto::decode_acc(h3);
                let (op, ty) = decode_acc_op(op_code, type_idx);
                win.region.update(h1 as usize, h2 as usize, |dst| {
                    op.apply(&ty, dst, &am.data)
                        .expect("acc op legality checked at origin");
                });
                win.applied.fetch_add(1, Ordering::AcqRel);
            }
            proto::AM_RMA_GET_REQ => {
                // h0=win, h1=offset, h2=len, h3=op id.
                let win = self.window(h0);
                let data = win.region.read(h1 as usize, h2 as usize);
                self.endpoint.am_send(
                    am.src,
                    proto::AM_RMA_GET_REPLY,
                    proto::header(h3, 0, 0, 0),
                    Bytes::from(data),
                );
                win.applied.fetch_add(1, Ordering::AcqRel);
            }
            proto::AM_RMA_GETACC_REQ => {
                // h0=win, h1=offset, h2=len, h3 low=op id; operand type and
                // op code ride in the first 16 payload bytes.
                let win = self.window(h0);
                let acc = u64::from_le_bytes(am.data[0..8].try_into().unwrap());
                let (op_code, type_idx) = proto::decode_acc(acc);
                let (op, ty) = decode_acc_op(op_code, type_idx);
                let operand = &am.data[8..];
                let mut old = Vec::new();
                win.region.update(h1 as usize, h2 as usize, |dst| {
                    old = dst.to_vec();
                    op.apply(&ty, dst, operand)
                        .expect("acc op legality checked at origin");
                });
                self.endpoint.am_send(
                    am.src,
                    proto::AM_RMA_GET_REPLY,
                    proto::header(h3, 0, 0, 0),
                    Bytes::from(old),
                );
                win.applied.fetch_add(1, Ordering::AcqRel);
            }
            proto::AM_RMA_GET_REPLY => {
                let slot = self
                    .pending_replies
                    .lock()
                    .remove(&h0)
                    .expect("reply for unknown op id");
                *slot.lock() = Some(am.data.to_vec());
            }
            proto::AM_PSCW_POST | proto::AM_PSCW_COMPLETE => {
                // h0=win, h3=sender's window rank. A notice for a window
                // this rank no longer has is dropped.
                let Some(win) = self.my_windows.lock().get(&h0).cloned() else {
                    return;
                };
                let mut pscw = win.pscw.lock();
                if am.handler == proto::AM_PSCW_POST {
                    pscw.posts.push(h3 as usize);
                } else {
                    pscw.completes += 1;
                }
            }
            proto::AM_COMM_REVOKE => {
                // h0 = user-channel ctx, h3 = sender's world rank; payload
                // is the membership (u32 LE world ranks). Forward-once: the
                // first time this rank learns of the revocation it floods
                // the notice to the other members, so the broadcast
                // completes as long as the survivor graph is connected.
                if self.mark_revoked(h0 as u16, false) {
                    self.forward_revoke(h0 as u16, &am.data, Some(h3 as usize));
                }
            }
            other => panic!("unknown AM handler id {other}"),
        }
    }

    fn window(&self, id: u64) -> Arc<crate::rma::WinTarget> {
        self.my_windows
            .lock()
            .get(&id)
            .expect("AM for unknown window")
            .clone()
    }

    /// Run `f` inside the process's critical section if this build grants
    /// `MPI_THREAD_MULTIPLE`; charge the runtime thread-safety check if the
    /// build carries one. `check_cost` is the per-op check cost (isend vs
    /// put). This is the single entry point for every thread-checked
    /// operation — pt2pt, persistent starts, and RMA all route through it.
    #[inline]
    pub(crate) fn with_cs<T>(&self, check_cost: u64, f: impl FnOnce() -> T) -> T {
        use crate::config::ThreadLevel;
        use litempi_instr::{charge, Category};
        if self.config.thread_check {
            charge(Category::ThreadCheck, check_cost);
            if self.config.thread_level == ThreadLevel::Multiple {
                let _guard = self.crit.lock();
                return f();
            }
        }
        f()
    }

    /// Release a consumed wire payload back into the fabric's arena
    /// (uncharged — the paper's release path carries no extra
    /// instructions).
    #[inline]
    pub(crate) fn pool_release(&self, payload: Bytes) {
        self.endpoint.fabric().pool().release(payload);
    }

    /// World rank → physical address (identity in our fabric).
    #[inline]
    pub(crate) fn addr_of_world(&self, world: usize) -> NetAddr {
        NetAddr(world as u32)
    }
}

/// Reconstruct (op, datatype) from an accumulate AM header.
fn decode_acc_op(op_code: u64, type_idx: usize) -> (Op, Datatype) {
    let pre: Predefined = Predefined::ALL[type_idx];
    let op = match op_code {
        proto::acc_op::REPLACE => Op::Replace,
        proto::acc_op::SUM => Op::Sum,
        proto::acc_op::MIN => Op::Min,
        proto::acc_op::MAX => Op::Max,
        proto::acc_op::PROD => Op::Prod,
        proto::acc_op::BOR => Op::Bor,
        proto::acc_op::NO_OP => Op::NoOp,
        other => panic!("unknown accumulate op code {other}"),
    };
    (op, Datatype::basic(pre))
}

/// Map an [`Op`] to its AM op code (origin side). `None` for ops that
/// cannot travel over the AM accumulate path (user ops).
pub(crate) fn acc_code_of(op: &Op) -> Option<u64> {
    Some(match op {
        Op::Replace => proto::acc_op::REPLACE,
        Op::Sum => proto::acc_op::SUM,
        Op::Min => proto::acc_op::MIN,
        Op::Max => proto::acc_op::MAX,
        Op::Prod => proto::acc_op::PROD,
        Op::Bor => proto::acc_op::BOR,
        Op::NoOp => proto::acc_op::NO_OP,
        _ => return None,
    })
}

// --------------------------------------------------------------- Process

/// A rank's handle on the job — the owner of `MPI_COMM_WORLD`.
#[derive(Clone)]
pub struct Process {
    pub(crate) inner: Arc<ProcInner>,
}

impl Process {
    pub(crate) fn new(inner: Arc<ProcInner>) -> Process {
        Process { inner }
    }

    /// This process's rank in `MPI_COMM_WORLD`.
    pub fn rank(&self) -> usize {
        self.inner.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.inner.size
    }

    /// The build configuration this job runs under.
    pub fn config(&self) -> BuildConfig {
        self.inner.config
    }

    /// `MPI_COMM_WORLD`.
    pub fn world(&self) -> Communicator {
        Communicator::world(self.inner.clone())
    }

    /// Drive the progress engine once (mostly useful in tests; the library
    /// calls it from every blocking loop).
    pub fn poke_progress(&self) -> usize {
        self.inner.progress()
    }

    /// `MPI_BUFFER_ATTACH`: provide `size` bytes for buffered sends.
    /// Errors if a buffer is already attached.
    pub fn buffer_attach(&self, size: usize) -> crate::error::MpiResult<()> {
        let mut buf = self.inner.bsend_buffer.lock();
        if buf.is_some() {
            return Err(crate::error::MpiError::ExtensionMisuse(
                "a bsend buffer is already attached",
            ));
        }
        *buf = Some(size);
        Ok(())
    }

    /// `MPI_BUFFER_DETACH`: release the buffered-send buffer, returning
    /// its size. Errors if none is attached.
    pub fn buffer_detach(&self) -> crate::error::MpiResult<usize> {
        self.inner
            .bsend_buffer
            .lock()
            .take()
            .ok_or(crate::error::MpiError::ExtensionMisuse(
                "no bsend buffer attached",
            ))
    }

    /// Fabric traffic counters for this rank (messages/bytes sent and
    /// received, RDMA ops, unexpected-queue hits). Applications diff two
    /// snapshots to produce the per-iteration communication traces the
    /// performance models consume.
    pub fn comm_stats(&self) -> litempi_fabric::stats::StatsSnapshot {
        self.inner.endpoint.stats()
    }

    /// Payload-pool counters for this job's fabric (takes, hits, recycled,
    /// dropped). Tests assert pool reuse and hit rates through this.
    pub fn pool_stats(&self) -> litempi_fabric::PoolStats {
        self.inner.endpoint.fabric().pool().stats()
    }

    #[cfg(test)]
    pub(crate) fn univ(&self) -> Arc<UnivShared> {
        self.inner.univ.clone()
    }
}

impl std::fmt::Debug for Process {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Process")
            .field("rank", &self.inner.rank)
            .field("size", &self.inner.size)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;

    #[test]
    fn a_pscw_notice_for_a_window_this_rank_does_not_have_is_dropped() {
        Universe::run_default(1, |proc| {
            for handler in [proto::AM_PSCW_POST, proto::AM_PSCW_COMPLETE] {
                proc.inner.handle_am(AmMessage {
                    src: NetAddr(0),
                    handler,
                    header: proto::header(u64::MAX, 0, 0, 0),
                    data: Bytes::new(),
                });
            }
        });
    }
}
