//! Nonblocking collectives on a schedule-based progress engine.
//!
//! Each `MPI_I*` collective call *compiles* the corresponding blocking
//! algorithm (dissemination barrier, binomial bcast/reduce, recursive-
//! doubling allreduce/allgather, ring allgather, pairwise alltoall) into a
//! small DAG of vertices — isend, irecv, local reduce, local copy —
//! grouped into *phases*: every vertex of phase `p` must retire before
//! phase `p+1` issues, exactly mirroring the round structure of the
//! blocking code so results are byte-identical. This is the MPICH
//! TSP-style generic scheduler architecture (see PAPERS.md) scaled to the
//! algorithms litempi already has.
//!
//! The schedule is driven incrementally from `test`/`wait` on the
//! returned [`CollRequest`]: each poll issues any newly-ready phase
//! (sends inject immediately, receives post to the fabric's native
//! matching or the CH4 core matcher), drains completed receives into
//! their destination spans, and advances the phase cursor. Phase 0 is
//! issued at call time, so communication is on the wire before the caller
//! returns — that's what makes communication/compute overlap possible.
//!
//! Bookkeeping charges go to `Category::Schedule` (`cost::schedule::*`),
//! which is *outside* the paper's injection-path accounting: the sends a
//! schedule issues still charge their own injection categories, and the
//! calibrated blocking totals (221/215/59/253) are untouched.

use crate::coll::binomial_children;
use crate::comm::{Communicator, Errhandler};
use crate::error::{MpiError, MpiResult};
use crate::match_bits::{self, ContextId};
use crate::op::Op;
use crate::process::{CoreSlot, ProcInner};
use crate::proto::{self, DecodedPayload};
use crate::request::{check_peer, Request};
use crate::status::Status;
use bytes::Bytes;
use litempi_datatype::{Datatype, MpiPrimitive};
use litempi_fabric::endpoint::RecvHandle;
use litempi_instr::{charge, cost, Category};
use litempi_trace::{event::coll_op, EventKind};
use parking_lot::Mutex;
use std::sync::Arc;

/// Which schedule-owned buffer a [`Span`] points into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Buf {
    /// The accumulator / result buffer (also the bcast payload).
    Acc,
    /// Scratch for incoming reduction operands.
    Tmp,
    /// Immutable snapshot of the caller's send buffer (alltoall).
    Input,
}

/// A byte range inside one of the schedule's buffers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Span {
    buf: Buf,
    start: usize,
    len: usize,
}

impl Span {
    fn acc(start: usize, len: usize) -> Span {
        Span {
            buf: Buf::Acc,
            start,
            len,
        }
    }
    fn tmp(start: usize, len: usize) -> Span {
        Span {
            buf: Buf::Tmp,
            start,
            len,
        }
    }
    fn input(start: usize, len: usize) -> Span {
        Span {
            buf: Buf::Input,
            start,
            len,
        }
    }
}

/// One DAG vertex. `peer` is a rank in the collective's communicator;
/// `tag` is the collective-channel tag assigned at compile time.
enum Vertex {
    /// Inject a message (eager or rendezvous). `src: None` sends an empty
    /// payload (barrier). The payload is materialized at issue time, so a
    /// later phase may freely mutate the source span. Adjacent sends of
    /// one span (a fan-out) share one staged payload.
    Send {
        peer: usize,
        tag: i32,
        src: Option<Span>,
    },
    /// Post a matched receive. `dst: None` discards the payload (barrier).
    Recv {
        peer: usize,
        tag: i32,
        dst: Option<Span>,
    },
    /// `dst = dst OP src` with the schedule's reduction op — operand order
    /// matches the blocking algorithms, so non-commutative user ops and
    /// floating-point rounding behave identically.
    Reduce { src: Span, dst: Span },
    /// Local copy between buffers (alltoall's self block).
    Copy { src: Span, dst: Span },
}

impl Vertex {
    /// The peer of a `Send` of exactly this tag and span: the test that
    /// extends a fan-out run in `issue_phase`.
    fn fan_out_peer(&self, tag: i32, src: Option<Span>) -> Option<usize> {
        match self {
            Vertex::Send {
                peer,
                tag: t,
                src: s,
            } if (*t, *s) == (tag, src) => Some(*peer),
            _ => None,
        }
    }
}

/// An issued, not-yet-completed receive vertex.
enum LiveRecv {
    /// Posted to the fabric's native tagged matching.
    Fabric {
        handle: RecvHandle,
        dst: Option<Span>,
        /// Peer's world rank, for dead-peer detection.
        peer: usize,
    },
    /// Posted to the CH4 core matcher (AM-only provider).
    Core {
        slot: Arc<CoreSlot>,
        dst: Option<Span>,
        peer: usize,
    },
}

enum SchedState {
    Running,
    Done,
    Failed(MpiError),
}

/// A compiled collective schedule plus its progress cursor. Owned by the
/// issuing rank; driven from `test`/`wait` via [`SchedShared`].
pub(crate) struct Schedule {
    /// This rank in the collective's communicator.
    rank: usize,
    /// Communicator rank → world rank.
    world: Vec<usize>,
    /// The communicator's collective-channel context.
    ctx: ContextId,
    /// Reduction op + element datatype, when the schedule reduces.
    op: Option<(Op, Datatype)>,
    /// Trace collective-op id (`coll_op::*`).
    op_id: u64,
    traced: bool,
    phases: Vec<Vec<Vertex>>,
    cur: usize,
    issued: bool,
    /// Accumulator / result bytes; taken by [`CollOutput`] on completion.
    acc: Vec<u8>,
    tmp: Vec<u8>,
    input: Vec<u8>,
    live: Vec<LiveRecv>,
    /// Does this rank produce a result (`false` on non-root for ireduce)?
    produce_output: bool,
    state: SchedState,
}

/// Shared handle: the `Request` half drives progress, the [`CollOutput`]
/// half extracts the result after completion.
pub(crate) struct SchedShared {
    pub(crate) inner: Mutex<Schedule>,
}

impl Schedule {
    fn base(comm: &Communicator, op_id: u64) -> Schedule {
        Schedule {
            rank: comm.rank(),
            world: (0..comm.size()).map(|r| comm.world_rank_of(r)).collect(),
            ctx: comm.context_id().collective(),
            op: None,
            op_id,
            traced: comm.proc.endpoint.fabric().trace_enabled(),
            phases: Vec::new(),
            cur: 0,
            issued: false,
            acc: Vec::new(),
            tmp: Vec::new(),
            input: Vec::new(),
            live: Vec::new(),
            produce_output: true,
            state: SchedState::Running,
        }
    }

    fn span(&self, s: &Span) -> &[u8] {
        let b = match s.buf {
            Buf::Acc => &self.acc,
            Buf::Tmp => &self.tmp,
            Buf::Input => &self.input,
        };
        &b[s.start..s.start + s.len]
    }

    fn span_mut(&mut self, s: &Span) -> &mut [u8] {
        let b = match s.buf {
            Buf::Acc => &mut self.acc,
            Buf::Tmp => &mut self.tmp,
            Buf::Input => &mut self.input,
        };
        &mut b[s.start..s.start + s.len]
    }

    fn status(&self) -> Status {
        Status {
            source: match_bits::PROC_NULL,
            tag: 0,
            bytes: if self.produce_output {
                self.acc.len()
            } else {
                0
            },
        }
    }

    /// Drive the schedule: issue ready phases, drain completed receives,
    /// advance. `Ok(Some(status))` once every phase has retired. The
    /// caller pumps `proc.progress()`; this only polls schedule state.
    pub(crate) fn progress(&mut self, proc: &ProcInner) -> MpiResult<Option<Status>> {
        match &self.state {
            SchedState::Done => return Ok(Some(self.status())),
            SchedState::Failed(e) => return Err(e.clone()),
            SchedState::Running => {
                // ULFM gate: a revocation landing mid-schedule fails the
                // DAG (cancelling its posted receives) instead of letting
                // it wait forever on ranks that already bailed out.
                if proc.is_ctx_revoked(self.ctx.0) {
                    return self.fail(proc, MpiError::Revoked);
                }
            }
        }
        loop {
            if self.cur == self.phases.len() {
                self.state = SchedState::Done;
                if self.traced {
                    litempi_trace::emit(EventKind::CollEnd, self.op_id, 0);
                }
                return Ok(Some(self.status()));
            }
            if !self.issued {
                if let Err(e) = self.issue_phase(proc) {
                    return self.fail(proc, e);
                }
            }
            if let Err(e) = self.poll_live(proc) {
                return self.fail(proc, e);
            }
            if !self.live.is_empty() {
                return Ok(None);
            }
            charge(Category::Schedule, cost::schedule::PHASE_ADVANCE);
            if self.traced {
                litempi_trace::emit(EventKind::SchedPhaseComplete, self.op_id, self.cur as u64);
            }
            self.cur += 1;
            self.issued = false;
        }
    }

    /// Error the schedule: cancel outstanding receives (so their posted
    /// slots can't swallow later traffic), close the trace span, and latch
    /// the error for subsequent `test`/`wait` calls.
    fn fail(&mut self, proc: &ProcInner, e: MpiError) -> MpiResult<Option<Status>> {
        for l in self.live.drain(..) {
            match l {
                LiveRecv::Fabric { handle, .. } => {
                    handle.cancel();
                }
                LiveRecv::Core { slot, .. } => {
                    proc.core_match.cancel(&slot);
                }
            }
        }
        if self.traced {
            litempi_trace::emit(EventKind::CollEnd, self.op_id, 0);
        }
        self.state = SchedState::Failed(e.clone());
        Err(e)
    }

    fn issue_phase(&mut self, proc: &ProcInner) -> MpiResult<()> {
        if self.traced {
            litempi_trace::emit(EventKind::SchedPhaseBegin, self.op_id, self.cur as u64);
        }
        let mut phase = std::mem::take(&mut self.phases[self.cur])
            .into_iter()
            .peekable();
        while let Some(v) = phase.next() {
            charge(Category::Schedule, cost::schedule::VERTEX_ISSUE);
            match v {
                Vertex::Send { peer, tag, src } => {
                    // Mirror of `coll::csend_all`: this send plus the run
                    // of sends of the same span that follows it.
                    let run = std::iter::from_fn(|| {
                        let peer = phase.peek()?.fan_out_peer(tag, src)?;
                        phase.next();
                        charge(Category::Schedule, cost::schedule::VERTEX_ISSUE);
                        Some(peer)
                    });
                    let dests = std::iter::once(peer).chain(run).map(|p| self.world[p]);
                    let bits = match_bits::encode(self.ctx, self.rank, tag);
                    let data = src.as_ref().map_or(&[][..], |s| self.span(s));
                    crate::coll::send_staged(proc, bits, data, dests);
                }
                Vertex::Recv { peer, tag, dst } => {
                    let bits = match_bits::encode(self.ctx, peer, tag);
                    let peer_world = self.world[peer];
                    if proc.endpoint.fabric().profile().caps.native_tagged {
                        let handle = proc.endpoint.trecv_post(bits, 0);
                        self.live.push(LiveRecv::Fabric {
                            handle,
                            dst,
                            peer: peer_world,
                        });
                    } else {
                        let slot = proc.core_match.post(bits, 0);
                        self.live.push(LiveRecv::Core {
                            slot,
                            dst,
                            peer: peer_world,
                        });
                    }
                }
                Vertex::Reduce { src, dst } => {
                    debug_assert_eq!(src.buf, Buf::Tmp);
                    debug_assert_eq!(dst.buf, Buf::Acc);
                    let (op, ty) = self.op.as_ref().expect("reduce vertex without op");
                    let input = &self.tmp[src.start..src.start + src.len];
                    let inout = &mut self.acc[dst.start..dst.start + dst.len];
                    op.apply(ty, inout, input)?;
                }
                Vertex::Copy { src, dst } => {
                    debug_assert_eq!(src.buf, Buf::Input);
                    debug_assert_eq!(dst.buf, Buf::Acc);
                    let input = &self.input[src.start..src.start + src.len];
                    self.acc[dst.start..dst.start + dst.len].copy_from_slice(input);
                }
            }
        }
        self.issued = true;
        Ok(())
    }

    fn poll_entry(&self, i: usize) -> Option<(u64, Bytes)> {
        match &self.live[i] {
            LiveRecv::Fabric { handle, .. } => handle.poll().map(|m| (m.match_bits, m.data)),
            LiveRecv::Core { slot, .. } => slot.filled.lock().take().map(|m| (m.bits, m.payload)),
        }
    }

    fn poll_live(&mut self, proc: &ProcInner) -> MpiResult<()> {
        let mut i = 0;
        while i < self.live.len() {
            match self.poll_entry(i) {
                Some((bits, payload)) => {
                    let dst = match self.live.swap_remove(i) {
                        LiveRecv::Fabric { dst, .. } | LiveRecv::Core { dst, .. } => dst,
                    };
                    charge(Category::Schedule, cost::schedule::VERTEX_COMPLETE);
                    self.deliver(proc, bits, payload, dst)?;
                }
                None => {
                    let peer = match &self.live[i] {
                        LiveRecv::Fabric { peer, .. } | LiveRecv::Core { peer, .. } => *peer,
                    };
                    if let Err(e) = check_peer(proc, Some(peer), false, Some(self.ctx.0)) {
                        // Death may race an in-flight delivery: take it if
                        // it landed (same re-poll as the blocking paths).
                        if let Some((bits, payload)) = self.poll_entry(i) {
                            let dst = match self.live.swap_remove(i) {
                                LiveRecv::Fabric { dst, .. } | LiveRecv::Core { dst, .. } => dst,
                            };
                            charge(Category::Schedule, cost::schedule::VERTEX_COMPLETE);
                            self.deliver(proc, bits, payload, dst)?;
                            continue;
                        }
                        return Err(e);
                    }
                    i += 1;
                }
            }
        }
        Ok(())
    }

    /// Copy a matched message (eager or rendezvous) from its wire or
    /// staging buffer straight into its destination span, then recycle
    /// what carried it: the envelope and, for a rendezvous, the sender's
    /// staging buffer (both back to their home-VCI arena).
    fn deliver(
        &mut self,
        proc: &ProcInner,
        bits: u64,
        payload: Bytes,
        dst: Option<Span>,
    ) -> MpiResult<()> {
        match proto::try_decode(&payload)?.1 {
            DecodedPayload::Eager(data) => self.fill(dst, data)?,
            DecodedPayload::Rts { rndv_id, .. } => {
                let staged = proc.univ.pull_rndv(rndv_id).ok_or(MpiError::Integrity(
                    "rendezvous entry vanished (damaged or replayed RTS descriptor)",
                ))?;
                self.fill(dst, &staged)?;
                proc.pool_release(bits, Bytes::from_storage(staged));
            }
            DecodedPayload::RtsRma { rndv_id, len, key } => {
                // Schedule sends stage through the pull table today; handle
                // the RDMA descriptor anyway so a mixed-path schedule stays
                // correct.
                let data = crate::request::fetch_rndv_rma(proc, rndv_id, len, key)?;
                self.fill(dst, &data)?;
            }
        }
        proc.pool_release(bits, payload);
        Ok(())
    }

    /// `dst` (when the vertex keeps its payload) takes exactly `data`.
    fn fill(&mut self, dst: Option<Span>, data: &[u8]) -> MpiResult<()> {
        let Some(s) = dst else {
            return Ok(());
        };
        if data.len() != s.len {
            return Err(MpiError::Truncate {
                message: data.len(),
                buffer: s.len,
            });
        }
        self.span_mut(&s).copy_from_slice(data);
        Ok(())
    }
}

/// A nonblocking-collective handle: a [`Request`]-compatible completion
/// object plus the typed result.
///
/// Use [`CollRequest::wait`]/[`CollRequest::test`] directly, or
/// [`CollRequest::split`] to hand the raw request to the
/// `waitall`/`waitany`/`waitsome`/`testall` combinators and extract the
/// result from the [`CollOutput`] afterwards.
pub struct CollRequest<T> {
    req: Request<'static>,
    out: CollOutput<T>,
}

/// The result half of a split [`CollRequest`]: redeemable once the
/// corresponding request has completed.
pub struct CollOutput<T> {
    sched: Arc<SchedShared>,
    #[allow(clippy::type_complexity)]
    extract: Box<dyn FnOnce(Vec<u8>, bool) -> T + Send>,
}

impl<T> CollRequest<T> {
    /// `MPI_WAIT` + result extraction: block until the collective
    /// completes on this rank, then return its typed output.
    pub fn wait(self) -> MpiResult<T> {
        self.req.wait()?;
        self.out.take()
    }

    /// `MPI_TEST`: drive the schedule one poll; `true` once complete
    /// (after which [`CollRequest::wait`] returns immediately).
    pub fn test(&mut self) -> MpiResult<bool> {
        Ok(self.req.test()?.is_some())
    }

    /// Has the schedule already completed (without driving progress)?
    pub fn is_done(&self) -> bool {
        self.req.is_done()
    }

    /// Split into the raw [`Request`] (for the multi-request combinators)
    /// and the [`CollOutput`] result handle.
    pub fn split(self) -> (Request<'static>, CollOutput<T>) {
        (self.req, self.out)
    }
}

impl<T> CollOutput<T> {
    /// Redeem the collective's result. Errors with `InvalidRequest` if the
    /// schedule has not completed (wait on the request half first).
    pub fn take(self) -> MpiResult<T> {
        let mut s = self.sched.inner.lock();
        if !matches!(s.state, SchedState::Done) {
            return Err(MpiError::InvalidRequest("collective schedule not complete"));
        }
        let acc = std::mem::take(&mut s.acc);
        let produced = s.produce_output;
        drop(s);
        Ok((self.extract)(acc, produced))
    }
}

/// Little-endian wire bytes → a typed vector (the inverse of
/// `T::as_bytes`, same pattern as the blocking collectives).
fn bytes_to_vec<T: MpiPrimitive>(bytes: &[u8]) -> Vec<T> {
    let elem = T::PREDEFINED.size();
    debug_assert!(bytes.len().is_multiple_of(elem));
    let mut out = crate::coll::zeroed::<T>(bytes.len() / elem);
    T::as_bytes_mut(&mut out).copy_from_slice(bytes);
    out
}

/// Wrap a compiled schedule in a [`CollRequest`]: charge the compile,
/// open the trace span, and kick phase 0 onto the wire.
fn begin_request<T>(
    comm: &Communicator,
    sched: Schedule,
    extract: impl FnOnce(Vec<u8>, bool) -> T + Send + 'static,
) -> MpiResult<CollRequest<T>> {
    let mut sched = sched;
    charge(Category::Schedule, cost::schedule::BUILD);
    if sched.traced {
        litempi_trace::emit(EventKind::CollBegin, sched.op_id, 0);
    }
    let proc = Arc::clone(&comm.proc);
    let fatal = matches!(comm.errhandler(), Errhandler::ErrorsAreFatal);
    // Issue phase 0 at call time: sends leave now, receives are posted
    // before any peer's data can arrive — overlap starts here, not at the
    // first test/wait.
    let first = sched.progress(&proc);
    let shared = Arc::new(SchedShared {
        inner: Mutex::new(sched),
    });
    let req = match first {
        Ok(Some(s)) => Request::done(s),
        Ok(None) => Request::coll(proc, Arc::clone(&shared), fatal),
        Err(e) => return comm.handle_error(Err(e)),
    };
    Ok(CollRequest {
        req,
        out: CollOutput {
            sched: shared,
            extract: Box::new(extract),
        },
    })
}

/// `MPI_IBARRIER`: nonblocking barrier — hierarchical phases on
/// multi-node topologies, dissemination otherwise.
pub fn ibarrier(comm: &Communicator) -> MpiResult<CollRequest<()>> {
    let size = comm.size();
    let rank = comm.rank();
    let mut s = Schedule::base(comm, coll_op::BARRIER);
    if size > 1 {
        let tag = comm.next_coll_tag();
        if let Some(plan) = crate::hier::plan(comm) {
            push_hier_barrier(&mut s, plan, tag);
        } else {
            let mut k = 1usize;
            while k < size {
                s.phases.push(vec![
                    Vertex::Send {
                        peer: (rank + k) % size,
                        tag,
                        src: None,
                    },
                    Vertex::Recv {
                        peer: (rank + size - k) % size,
                        tag,
                        dst: None,
                    },
                ]);
                k <<= 1;
            }
        }
    }
    begin_request(comm, s, |_, _| ())
}

/// `MPI_IBCAST`: every rank receives the root's buffer — hierarchical
/// phases on multi-node topologies, binomial tree otherwise. Takes the
/// payload by shared slice and returns the broadcast data, so non-root
/// ranks pass their (same-length) staging buffer.
pub fn ibcast<T: MpiPrimitive>(
    comm: &Communicator,
    buf: &[T],
    root: usize,
) -> MpiResult<CollRequest<Vec<T>>> {
    let size = comm.size();
    if root >= size {
        return Err(MpiError::InvalidRank {
            rank: root as i32,
            size,
        });
    }
    let rank = comm.rank();
    let mut s = Schedule::base(comm, coll_op::BCAST);
    s.acc = T::as_bytes(buf).to_vec();
    let n = s.acc.len();
    if size > 1 {
        let tag = comm.next_coll_tag();
        if let Some(plan) = crate::hier::plan(comm) {
            push_hier_bcast(&mut s, plan, root, tag, n, rank);
        } else {
            let full = Span::acc(0, n);
            let vrank = (rank + size - root) % size;
            if vrank != 0 {
                let parent = crate::coll::parent_of(vrank);
                s.phases.push(vec![Vertex::Recv {
                    peer: (parent + root) % size,
                    tag,
                    dst: Some(full),
                }]);
            }
            let children = binomial_children(vrank, size).map(|c| (c + root) % size);
            push_fan_out(&mut s, children, tag, full);
        }
    }
    begin_request(comm, s, |acc, _| bytes_to_vec::<T>(&acc))
}

/// `MPI_IREDUCE`: the root's output resolves to `Some(result)`, everyone
/// else's to `None` — hierarchical phases on multi-node topologies,
/// binomial tree otherwise.
pub fn ireduce<T: MpiPrimitive>(
    comm: &Communicator,
    sendbuf: &[T],
    op: &Op,
    root: usize,
) -> MpiResult<CollRequest<Option<Vec<T>>>> {
    let size = comm.size();
    if root >= size {
        return Err(MpiError::InvalidRank {
            rank: root as i32,
            size,
        });
    }
    let rank = comm.rank();
    let plan = crate::hier::plan(comm);
    let mut s = Schedule::base(comm, coll_op::REDUCE);
    let tag = comm.next_coll_tag();
    s.acc = T::as_bytes(sendbuf).to_vec();
    let n = s.acc.len();
    s.tmp = vec![0u8; n * plan.map_or(1, |p| (p.members.len() - 1).max(1))];
    s.op = Some((op.clone(), T::DATATYPE));
    s.produce_output = rank == root;
    if let Some(plan) = plan {
        push_hier_fan_in(&mut s, plan, tag, n);
        let root_leader = plan.leader_of[root];
        if let Some(li) = plan.leader_slot {
            let root_slot = plan
                .leaders
                .iter()
                .position(|&l| l == root_leader)
                .expect("root's leader is a leader");
            push_subset_reduce(&mut s, &plan.leaders, li, root_slot, tag, n);
        }
        // Hand the finished reduction from the root's node leader to the
        // root itself when they differ.
        if root != root_leader {
            if rank == root_leader {
                s.phases.push(vec![Vertex::Send {
                    peer: root,
                    tag,
                    src: Some(Span::acc(0, n)),
                }]);
            } else if rank == root {
                s.phases.push(vec![Vertex::Recv {
                    peer: root_leader,
                    tag,
                    dst: Some(Span::acc(0, n)),
                }]);
            }
        }
    } else {
        push_binomial_reduce(&mut s, size, (rank + size - root) % size, root, tag, n);
    }
    begin_request(comm, s, |acc, produced| {
        produced.then(|| bytes_to_vec::<T>(&acc))
    })
}

/// One phase sending `src` to every rank in `peers` (no peers, no phase).
/// The engine stages the span once for the whole run — see `issue_phase`.
fn push_fan_out(s: &mut Schedule, peers: impl Iterator<Item = usize>, tag: i32, src: Span) {
    let sends: Vec<Vertex> = peers
        .map(|peer| Vertex::Send {
            peer,
            tag,
            src: Some(src),
        })
        .collect();
    if !sends.is_empty() {
        s.phases.push(sends);
    }
}

/// Binomial reduce-to-root phases, shared by `ireduce` and the non-power-
/// of-two `iallreduce` composition. Step k: vranks with bit k set send
/// their partial accumulator to `vrank - 2^k` and drop out; the rest
/// receive and fold.
fn push_binomial_reduce(
    s: &mut Schedule,
    size: usize,
    vrank: usize,
    root: usize,
    tag: i32,
    n: usize,
) {
    let acc = Span::acc(0, n);
    let tmp = Span::tmp(0, n);
    let mut k = 1usize;
    while k < size {
        if vrank & k != 0 {
            s.phases.push(vec![Vertex::Send {
                peer: ((vrank - k) + root) % size,
                tag,
                src: Some(acc),
            }]);
            break;
        } else if vrank + k < size {
            s.phases.push(vec![Vertex::Recv {
                peer: ((vrank + k) + root) % size,
                tag,
                dst: Some(tmp),
            }]);
            s.phases.push(vec![Vertex::Reduce { src: tmp, dst: acc }]);
        }
        k <<= 1;
    }
}

/// Intra-node fan-in phases of a hierarchical reduction: members send
/// their accumulator to the node leader; the leader receives all of them
/// in parallel (into per-member `tmp` slots — the caller sizes `tmp` to
/// `(members - 1) * n`) and then folds them in ascending member order.
/// The fold order matches the blocking fan-in in `hier`, so floats are
/// bitwise-identical across the blocking and nonblocking paths.
fn push_hier_fan_in(s: &mut Schedule, plan: &crate::hier::HierPlan, tag: i32, n: usize) {
    let acc = Span::acc(0, n);
    if plan.my_slot != 0 {
        s.phases.push(vec![Vertex::Send {
            peer: plan.leader(),
            tag,
            src: Some(acc),
        }]);
        return;
    }
    let m = plan.members.len() - 1;
    if m == 0 {
        return;
    }
    s.phases.push(
        (0..m)
            .map(|j| Vertex::Recv {
                peer: plan.members[j + 1],
                tag,
                dst: Some(Span::tmp(j * n, n)),
            })
            .collect(),
    );
    s.phases.push(
        (0..m)
            .map(|j| Vertex::Reduce {
                src: Span::tmp(j * n, n),
                dst: acc,
            })
            .collect(),
    );
}

/// Intra-node fan-out phases: the leader pushes the finished accumulator
/// to its members.
fn push_hier_fan_out(s: &mut Schedule, plan: &crate::hier::HierPlan, tag: i32, n: usize) {
    let acc = Span::acc(0, n);
    if plan.my_slot == 0 {
        push_fan_out(s, plan.members[1..].iter().copied(), tag, acc);
    } else {
        s.phases.push(vec![Vertex::Recv {
            peer: plan.leader(),
            tag,
            dst: Some(acc),
        }]);
    }
}

/// Binomial reduce phases over an explicit rank subset (the node
/// leaders), rooted at `ranks[root_idx]` — the schedule twin of
/// `hier`'s `reduce_subset`, same fold order.
fn push_subset_reduce(
    s: &mut Schedule,
    ranks: &[usize],
    my_idx: usize,
    root_idx: usize,
    tag: i32,
    n: usize,
) {
    let g = ranks.len();
    let acc = Span::acc(0, n);
    let tmp = Span::tmp(0, n);
    let v = (my_idx + g - root_idx) % g;
    let mut k = 1usize;
    while k < g {
        if v & k != 0 {
            s.phases.push(vec![Vertex::Send {
                peer: ranks[((v - k) + root_idx) % g],
                tag,
                src: Some(acc),
            }]);
            break;
        } else if v + k < g {
            s.phases.push(vec![Vertex::Recv {
                peer: ranks[((v + k) + root_idx) % g],
                tag,
                dst: Some(tmp),
            }]);
            s.phases.push(vec![Vertex::Reduce { src: tmp, dst: acc }]);
        }
        k <<= 1;
    }
}

/// Binomial broadcast phases over an explicit rank subset, rooted at
/// `ranks[root_idx]` — the schedule twin of `hier`'s `bcast_subset`.
fn push_subset_bcast(
    s: &mut Schedule,
    ranks: &[usize],
    my_idx: usize,
    root_idx: usize,
    tag: i32,
    n: usize,
) {
    let g = ranks.len();
    if g <= 1 {
        return;
    }
    let full = Span::acc(0, n);
    let v = (my_idx + g - root_idx) % g;
    if v != 0 {
        s.phases.push(vec![Vertex::Recv {
            peer: ranks[(crate::coll::parent_of(v) + root_idx) % g],
            tag,
            dst: Some(full),
        }]);
    }
    let children = binomial_children(v, g).map(|c| ranks[(c + root_idx) % g]);
    push_fan_out(s, children, tag, full);
}

/// Hierarchical `MPI_IBARRIER` phases: members check in with their node
/// leader, leaders run a dissemination barrier, leaders release members.
fn push_hier_barrier(s: &mut Schedule, plan: &crate::hier::HierPlan, tag: i32) {
    let leader = plan.leader();
    if plan.my_slot != 0 {
        s.phases.push(vec![Vertex::Send {
            peer: leader,
            tag,
            src: None,
        }]);
        s.phases.push(vec![Vertex::Recv {
            peer: leader,
            tag,
            dst: None,
        }]);
        return;
    }
    if plan.members.len() > 1 {
        s.phases.push(
            plan.members[1..]
                .iter()
                .map(|&m| Vertex::Recv {
                    peer: m,
                    tag,
                    dst: None,
                })
                .collect(),
        );
    }
    let li = plan.leader_slot.expect("members[0] is the leader");
    let g = plan.leaders.len();
    let mut k = 1usize;
    while k < g {
        s.phases.push(vec![
            Vertex::Send {
                peer: plan.leaders[(li + k) % g],
                tag,
                src: None,
            },
            Vertex::Recv {
                peer: plan.leaders[(li + g - k) % g],
                tag,
                dst: None,
            },
        ]);
        k <<= 1;
    }
    if plan.members.len() > 1 {
        s.phases.push(
            plan.members[1..]
                .iter()
                .map(|&m| Vertex::Send {
                    peer: m,
                    tag,
                    src: None,
                })
                .collect(),
        );
    }
}

/// Hierarchical `MPI_IBCAST` phases: root hands off to its node leader,
/// leaders run a binomial broadcast, leaders fan out to members (the root
/// already holds the payload and is skipped).
fn push_hier_bcast(
    s: &mut Schedule,
    plan: &crate::hier::HierPlan,
    root: usize,
    tag: i32,
    n: usize,
    me: usize,
) {
    let full = Span::acc(0, n);
    let root_leader = plan.leader_of[root];
    if root != root_leader {
        if me == root {
            s.phases.push(vec![Vertex::Send {
                peer: root_leader,
                tag,
                src: Some(full),
            }]);
        } else if me == root_leader {
            s.phases.push(vec![Vertex::Recv {
                peer: root,
                tag,
                dst: Some(full),
            }]);
        }
    }
    if let Some(li) = plan.leader_slot {
        let root_slot = plan
            .leaders
            .iter()
            .position(|&l| l == root_leader)
            .expect("root's leader is a leader");
        push_subset_bcast(s, &plan.leaders, li, root_slot, tag, n);
    }
    if plan.my_slot == 0 {
        let members = plan.members[1..].iter().copied().filter(|&m| m != root);
        push_fan_out(s, members, tag, full);
    } else if me != root {
        s.phases.push(vec![Vertex::Recv {
            peer: plan.leader(),
            tag,
            dst: Some(full),
        }]);
    }
}

/// `MPI_IALLREDUCE`: hierarchical phases on multi-node topologies;
/// otherwise recursive doubling for power-of-two sizes or the blocking
/// path's reduce-to-zero + binomial-broadcast composition.
pub fn iallreduce<T: MpiPrimitive>(
    comm: &Communicator,
    sendbuf: &[T],
    op: &Op,
) -> MpiResult<CollRequest<Vec<T>>> {
    let size = comm.size();
    let rank = comm.rank();
    let plan = crate::hier::plan(comm);
    let mut s = Schedule::base(comm, coll_op::ALLREDUCE);
    s.acc = T::as_bytes(sendbuf).to_vec();
    let n = s.acc.len();
    // The hierarchical fan-in receives all node members in parallel, one
    // tmp slot each; every other shape needs a single slot.
    s.tmp = vec![0u8; n * plan.map_or(1, |p| (p.members.len() - 1).max(1))];
    s.op = Some((op.clone(), T::DATATYPE));
    let acc = Span::acc(0, n);
    let tmp = Span::tmp(0, n);
    if let Some(plan) = plan {
        let tag = comm.next_coll_tag();
        push_hier_fan_in(&mut s, plan, tag, n);
        if let Some(li) = plan.leader_slot {
            push_subset_reduce(&mut s, &plan.leaders, li, 0, tag, n);
            push_subset_bcast(&mut s, &plan.leaders, li, 0, tag, n);
        }
        push_hier_fan_out(&mut s, plan, tag, n);
    } else if size.is_power_of_two() && size > 1 {
        let tag = comm.next_coll_tag();
        let mut k = 1usize;
        while k < size {
            let partner = rank ^ k;
            s.phases.push(vec![
                Vertex::Send {
                    peer: partner,
                    tag,
                    src: Some(acc),
                },
                Vertex::Recv {
                    peer: partner,
                    tag,
                    dst: Some(tmp),
                },
            ]);
            s.phases.push(vec![Vertex::Reduce { src: tmp, dst: acc }]);
            k <<= 1;
        }
    } else {
        // Reduce to rank 0, then binomial-broadcast the result — two
        // collectives, two tags, matching the blocking composition.
        let t1 = comm.next_coll_tag();
        push_binomial_reduce(&mut s, size, rank, 0, t1, n);
        if size > 1 {
            let t2 = comm.next_coll_tag();
            if rank != 0 {
                let parent = crate::coll::parent_of(rank);
                s.phases.push(vec![Vertex::Recv {
                    peer: parent % size,
                    tag: t2,
                    dst: Some(acc),
                }]);
            }
            push_fan_out(&mut s, binomial_children(rank, size), t2, acc);
        }
    }
    begin_request(comm, s, |acc, _| bytes_to_vec::<T>(&acc))
}

/// `MPI_IALLGATHER`: recursive doubling for power-of-two sizes, ring
/// otherwise — receives land directly in their rank-ordered output slots.
pub fn iallgather<T: MpiPrimitive>(
    comm: &Communicator,
    sendbuf: &[T],
) -> MpiResult<CollRequest<Vec<T>>> {
    let size = comm.size();
    let rank = comm.rank();
    let mut s = Schedule::base(comm, coll_op::ALLGATHER);
    let tag = comm.next_coll_tag();
    let block = std::mem::size_of_val(sendbuf);
    s.acc = vec![0u8; block * size];
    s.acc[rank * block..(rank + 1) * block].copy_from_slice(T::as_bytes(sendbuf));
    if size.is_power_of_two() && size > 1 {
        let mut k = 1usize;
        while k < size {
            let partner = rank ^ k;
            let my_base = (rank / k) * k;
            let partner_base = (partner / k) * k;
            s.phases.push(vec![
                Vertex::Send {
                    peer: partner,
                    tag,
                    src: Some(Span::acc(my_base * block, k * block)),
                },
                Vertex::Recv {
                    peer: partner,
                    tag,
                    dst: Some(Span::acc(partner_base * block, k * block)),
                },
            ]);
            k <<= 1;
        }
    } else if size > 1 {
        let right = (rank + 1) % size;
        let left = (rank + size - 1) % size;
        for step in 0..size - 1 {
            let send_origin = (rank + size - step) % size;
            let recv_origin = (rank + size - step - 1) % size;
            s.phases.push(vec![
                Vertex::Send {
                    peer: right,
                    tag,
                    src: Some(Span::acc(send_origin * block, block)),
                },
                Vertex::Recv {
                    peer: left,
                    tag,
                    dst: Some(Span::acc(recv_origin * block, block)),
                },
            ]);
        }
    }
    begin_request(comm, s, |acc, _| bytes_to_vec::<T>(&acc))
}

/// `MPI_IALLTOALL` (windowed pairwise exchange): the slot sequence —
/// node-aware on multi-node topologies, classic pairwise otherwise — is
/// chunked into phases of at most the cost-model issue window, so a rank
/// never has more than O(window) sends and receives posted at once. The
/// old compiler emitted one wide phase with all `N − 1` exchanges, which
/// at 1024 ranks meant 1023 posted requests per rank and an O(ranks)
/// matching queue at every receiver. Phase barriers are the windowing
/// mechanism: every rank walks the same global slot order, so phase `q`'s
/// receives match sends issued no later than their sender's phase `q`.
pub fn ialltoall<T: MpiPrimitive>(
    comm: &Communicator,
    sendbuf: &[T],
    block: usize,
) -> MpiResult<CollRequest<Vec<T>>> {
    let size = comm.size();
    let rank = comm.rank();
    if sendbuf.len() != block * size {
        return Err(MpiError::BufferTooSmall {
            needed: block * size * T::PREDEFINED.size(),
            provided: sendbuf.len() * T::PREDEFINED.size(),
        });
    }
    let mut s = Schedule::base(comm, coll_op::ALLTOALL);
    let tag = comm.next_coll_tag();
    let blockb = block * T::PREDEFINED.size();
    s.input = T::as_bytes(sendbuf).to_vec();
    s.acc = vec![0u8; blockb * size];
    let slots = crate::hier::alltoall_slots(comm);
    let w = crate::coll::issue_window(comm, blockb);
    let mut phase = vec![Vertex::Copy {
        src: Span::input(rank * blockb, blockb),
        dst: Span::acc(rank * blockb, blockb),
    }];
    for (i, slot) in slots.iter().enumerate() {
        if let Some(to) = slot.send_to {
            phase.push(Vertex::Send {
                peer: to,
                tag,
                src: Some(Span::input(to * blockb, blockb)),
            });
        }
        if let Some(from) = slot.recv_from {
            phase.push(Vertex::Recv {
                peer: from,
                tag,
                dst: Some(Span::acc(from * blockb, blockb)),
            });
        }
        if (i + 1) % w == 0 && !phase.is_empty() {
            s.phases.push(std::mem::take(&mut phase));
        }
    }
    if !phase.is_empty() {
        s.phases.push(phase);
    }
    begin_request(comm, s, |acc, _| bytes_to_vec::<T>(&acc))
}

impl Communicator {
    /// `MPI_IBARRIER` — see [`ibarrier`].
    pub fn ibarrier(&self) -> MpiResult<CollRequest<()>> {
        ibarrier(self)
    }

    /// `MPI_IBCAST` — see [`ibcast`].
    pub fn ibcast<T: MpiPrimitive>(
        &self,
        buf: &[T],
        root: usize,
    ) -> MpiResult<CollRequest<Vec<T>>> {
        ibcast(self, buf, root)
    }

    /// `MPI_IREDUCE` — see [`ireduce`].
    pub fn ireduce<T: MpiPrimitive>(
        &self,
        sendbuf: &[T],
        op: &Op,
        root: usize,
    ) -> MpiResult<CollRequest<Option<Vec<T>>>> {
        ireduce(self, sendbuf, op, root)
    }

    /// `MPI_IALLREDUCE` — see [`iallreduce`].
    pub fn iallreduce<T: MpiPrimitive>(
        &self,
        sendbuf: &[T],
        op: &Op,
    ) -> MpiResult<CollRequest<Vec<T>>> {
        iallreduce(self, sendbuf, op)
    }

    /// `MPI_IALLGATHER` — see [`iallgather`].
    pub fn iallgather<T: MpiPrimitive>(&self, sendbuf: &[T]) -> MpiResult<CollRequest<Vec<T>>> {
        iallgather(self, sendbuf)
    }

    /// `MPI_IALLTOALL` — see [`ialltoall`].
    pub fn ialltoall<T: MpiPrimitive>(
        &self,
        sendbuf: &[T],
        block: usize,
    ) -> MpiResult<CollRequest<Vec<T>>> {
        ialltoall(self, sendbuf, block)
    }
}
