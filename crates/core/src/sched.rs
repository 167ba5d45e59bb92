//! Collective schedules: the one encoding of every collective — barrier,
//! bcast, reduce, allreduce, allgather, alltoall, gather, gatherv, scatter,
//! scan, exscan, reduce_scatter_block and the two neighbourhood
//! collectives.
//!
//! A compiler (`Schedule::barrier`, `Schedule::bcast`, …) turns one
//! collective call into a small DAG of vertices — send, receive, local
//! reduce, local copy — grouped into *phases*: every vertex of phase `p`
//! retires before phase `p+1` issues. Algorithm choice lives in the
//! compilers and nowhere else: node-aware (`hier::plan`) or flat,
//! recursive doubling or ring, power-of-two or not, tree or scatter +
//! allgather for a long broadcast. This is the MPICH TSP-style generic
//! scheduler architecture (see PAPERS.md) scaled to the algorithms litempi
//! has. No function outside this module posts a receive or injects a send
//! for a collective; the one traffic on the collective channel that is not
//! a schedule is the FT agreement protocol's ([`crate::ft`]), which has to
//! run on a revoked communicator and a schedule refuses to.
//!
//! Two drivers run a compiled schedule over the same engine
//! (`Schedule::progress`: issue the ready phase — sends inject at once,
//! receives post to the fabric's native matching or the CH4 core matcher —
//! drain completed receives, advance):
//!
//! * the blocking collectives in [`crate::coll`] and
//!   [`crate::neighborhood`] run it *inline* (`Schedule::run`): on the
//!   caller's stack, over the caller's buffers (the result is folded in
//!   the vector that is returned), to completion under the library's one
//!   wait loop;
//! * the `MPI_I*` collectives below (the first six have one) *defer* it:
//!   schedule and buffers move behind a shared handle that `test`/`wait`
//!   on the returned [`CollRequest`] drive. Phase 0 is issued at call
//!   time, so communication is on the wire before the caller returns —
//!   that is what makes communication/compute overlap possible.
//!
//! Both produce the same bytes, the same messages and, with tracing on, the
//! same `SchedPhase*` events. Bookkeeping charges go to
//! `Category::Schedule` (`cost::schedule::*`), which prices *deferred*
//! execution: an inline run charges none of it, and either way the sends a
//! schedule issues charge their own injection categories, so the calibrated
//! totals (221/215/59/253) are untouched.

use crate::coll::{
    binomial_children, copy_exact, issue_window, parent_of, send_staged, zeroed,
    BCAST_LONG_MSG_BYTES,
};
use crate::comm::{CommShared, Communicator};
use crate::error::{MpiError, MpiResult};
use crate::group::Group;
use crate::hier::{self, HierPlan};
use crate::match_bits::{self, ContextId, PROC_NULL};
use crate::op::Op;
use crate::process::{Posted, ProcInner};
use crate::proto::{self, Opened};
use crate::request::{poll_or_death, wait_for, Request};
use crate::status::Status;
use litempi_datatype::{Datatype, MpiPrimitive};
use litempi_fabric::TaggedMessage;
use litempi_instr::{charge, cost, Category};
use litempi_trace::{event::coll_op, EventKind};
use parking_lot::Mutex;
use std::ops::Range;
use std::sync::Arc;

/// A byte range of the accumulator — the result buffer, which starts as
/// this rank's contribution (also the bcast payload).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Span {
    start: usize,
    len: usize,
}

impl Span {
    fn new(start: usize, len: usize) -> Span {
        Span { start, len }
    }

    fn range(self) -> Range<usize> {
        self.start..self.start + self.len
    }
}

/// What a `Send` vertex sends.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Src {
    /// An empty payload (barrier).
    Nothing,
    Acc(Span),
    /// A range of the caller's send buffer, read only (alltoall, the
    /// rooted and neighbourhood collectives).
    Input(Span),
}

/// The second operand of a `Reduce` vertex.
#[derive(Clone, Copy)]
enum Operand {
    /// The message a `Sink::Hold` receive left in this slot.
    Held(usize),
    /// A range of the caller's send buffer (scan: the prefix received into
    /// the accumulator, folded with this rank's contribution — in that
    /// order).
    Input(Span),
}

/// What a `Recv` vertex does with the message it matched.
#[derive(Clone, Copy)]
enum Sink {
    /// Drop it (barrier).
    Discard,
    /// Copy it into this span of the accumulator.
    Into(Span),
    /// Keep it, uncopied, in this operand slot until a `Reduce` vertex of
    /// a later phase folds it — the fold reads the wire or staging buffer
    /// itself — or, never folded, until the run hands it back
    /// (`Schedule::run_holding`: gatherv sizes its output by what arrived).
    Hold(usize),
}

/// One DAG vertex. `peer` is a rank in the collective's communicator;
/// `tag` is the collective-channel tag assigned at compile time.
#[derive(Clone, Copy)]
enum Vertex {
    /// Inject a message (eager or rendezvous). The payload is materialized
    /// at issue time, so a later phase may freely mutate the source span.
    /// Adjacent sends of one source (a fan-out) share one staged payload.
    Send { peer: usize, tag: i32, src: Src },
    /// Post a matched receive.
    Recv { peer: usize, tag: i32, dst: Sink },
    /// `dst = dst OP src` with the schedule's reduction op. Which operand
    /// is folded when is fixed at compile time, never by arrival order, so
    /// floating-point rounding repeats from run to run and is the same
    /// inline and deferred.
    Reduce { src: Operand, dst: Span },
    /// Copy one span of the accumulator onto another (exscan: the prefix
    /// received is both the result and what the forwarded value folds
    /// from).
    Copy { src: Span, dst: Span },
    /// Closes a phase: what follows issues once everything before it has
    /// retired.
    Fence,
}

impl Vertex {
    /// The peer of a `Send` of exactly this tag and source: the test that
    /// extends a fan-out run in `issue_phase`.
    fn fan_out_peer(&self, tag: i32, src: Src) -> Option<usize> {
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
struct LiveRecv {
    post: Posted,
    dst: Sink,
    /// Peer's world rank, for dead-peer detection.
    peer: usize,
}

enum SchedState {
    Running,
    Done,
    Failed(MpiError),
}

/// What a schedule runs over, lent for one `Schedule::progress` call:
/// the communicator's group (rank → world rank), the accumulator its
/// spans index and the send buffer. The inline driver lends the caller's
/// own memory; a deferred schedule's handle owns all three.
pub(crate) struct Mem<'a> {
    group: &'a Group,
    acc: &'a mut [u8],
    input: &'a [u8],
}

impl Mem<'_> {
    fn bytes(&self, src: Src) -> &[u8] {
        match src {
            Src::Nothing => &[],
            Src::Acc(s) => &self.acc[s.range()],
            Src::Input(s) => &self.input[s.range()],
        }
    }
}

/// The ranks a tree or dissemination pattern runs over: the whole
/// communicator, or an explicit ascending list (the node leaders).
#[derive(Clone, Copy)]
enum Ranks<'a> {
    All(usize),
    Of(&'a [usize]),
}

impl Ranks<'_> {
    fn len(self) -> usize {
        match self {
            Ranks::All(n) => n,
            Ranks::Of(r) => r.len(),
        }
    }

    /// The communicator rank at position `i`.
    fn at(self, i: usize) -> usize {
        match self {
            Ranks::All(_) => i,
            Ranks::Of(r) => r[i],
        }
    }
}

/// A compiled collective schedule plus its progress cursor, owned by the
/// issuing rank. Vertices live in one arena, a [`Vertex::Fence`] after
/// each phase.
pub(crate) struct Schedule {
    /// This rank in the collective's communicator.
    rank: usize,
    /// The communicator's collective-channel context.
    ctx: ContextId,
    /// Reduction op + element datatype, when the schedule reduces.
    op: Option<(Op, Datatype)>,
    /// Trace collective-op id (`coll_op::*`).
    op_id: u64,
    traced: bool,
    /// Set by the deferred driver: charge `Category::Schedule`.
    deferred: bool,
    verts: Vec<Vertex>,
    /// The first vertex not yet issued.
    next: usize,
    /// The phase being issued or awaited, for the trace.
    cur: usize,
    issued: bool,
    /// Reduction operands received (`Sink::Hold`) and not yet folded.
    held: Vec<Option<Opened>>,
    live: Vec<LiveRecv>,
    /// Bytes of result this rank ends up with (0 off-root for reduce):
    /// what a deferred schedule's `Status` reports.
    result_bytes: usize,
    state: SchedState,
}

impl Schedule {
    fn new(comm: &Communicator, op_id: u64) -> Schedule {
        Schedule {
            rank: comm.rank(),
            ctx: comm.context_id().collective(),
            op: None,
            op_id,
            traced: comm.proc.endpoint.fabric().trace_enabled(),
            deferred: false,
            // Most schedules fit without regrowing.
            verts: Vec::with_capacity(24),
            next: 0,
            cur: 0,
            issued: false,
            held: Vec::new(),
            live: Vec::new(),
            result_bytes: 0,
            state: SchedState::Running,
        }
    }

    /// Append one phase; an empty one (a fan-out to nobody) is no phase.
    fn phase(&mut self, verts: impl IntoIterator<Item = Vertex>) {
        self.verts.extend(verts);
        self.fence();
    }

    /// Close the phase the vertices pushed since the last fence make up.
    fn fence(&mut self) {
        if !matches!(self.verts.last(), None | Some(Vertex::Fence)) {
            self.verts.push(Vertex::Fence);
        }
    }

    fn charge(&self, units: u64) {
        if self.deferred {
            charge(Category::Schedule, units);
        }
    }

    /// Open the collective: the compile charge when deferred, the trace
    /// span either way.
    fn begin(&mut self, deferred: bool) {
        self.deferred = deferred;
        self.charge(cost::schedule::BUILD);
        if self.traced {
            litempi_trace::emit(EventKind::CollBegin, self.op_id, 0);
        }
    }

    /// Run to completion in place — the blocking collectives. `acc` starts
    /// as this rank's contribution and ends as its result; `input` is the
    /// send buffer of a schedule that reads one (alltoall). A failure
    /// (dead peer, revocation, damaged descriptor) goes through the
    /// communicator's errhandler.
    pub(crate) fn run(self, comm: &Communicator, acc: &mut [u8], input: &[u8]) -> MpiResult<()> {
        self.run_holding(comm, acc, input).map(drop)
    }

    /// [`run`](Schedule::run), handing back the operand slots: the messages
    /// `Sink::Hold` receives matched and no `Reduce` vertex folded, opened
    /// and unread.
    pub(crate) fn run_holding(
        mut self,
        comm: &Communicator,
        acc: &mut [u8],
        input: &[u8],
    ) -> MpiResult<Vec<Option<Opened>>> {
        let proc = &*comm.proc;
        self.begin(false);
        let mut mem = Mem {
            group: comm.group(),
            acc,
            input,
        };
        let done = wait_for(proc, || self.progress(proc, &mut mem).transpose());
        comm.handle_error(done.map(|_| self.held))
    }

    fn status(&self) -> Status {
        Status {
            source: match_bits::PROC_NULL,
            tag: 0,
            bytes: self.result_bytes,
        }
    }

    /// Drive the schedule: issue ready phases, drain completed receives,
    /// advance. `Ok(Some(status))` once every phase has retired. The
    /// caller pumps `proc.progress()`; this only polls schedule state.
    pub(crate) fn progress(
        &mut self,
        proc: &ProcInner,
        mem: &mut Mem<'_>,
    ) -> MpiResult<Option<Status>> {
        match &self.state {
            SchedState::Done => return Ok(Some(self.status())),
            SchedState::Failed(e) => return Err(e.clone()),
            SchedState::Running => {
                // ULFM gate: a revocation, before the first phase or
                // mid-schedule, fails the DAG (cancelling its posted
                // receives) instead of letting it wait forever on ranks
                // that already bailed out. Uncharged — one load in a
                // healthy job.
                if let Err(e) = proc.first_failure(&[self.ctx.0], &[]) {
                    return self.fail(proc, e);
                }
            }
        }
        loop {
            if !self.issued {
                if self.next == self.verts.len() {
                    self.state = SchedState::Done;
                    if self.traced {
                        litempi_trace::emit(EventKind::CollEnd, self.op_id, 0);
                    }
                    return Ok(Some(self.status()));
                }
                if let Err(e) = self.issue_phase(proc, mem) {
                    return self.fail(proc, e);
                }
            }
            if let Err(e) = self.poll_live(proc, mem) {
                return self.fail(proc, e);
            }
            if !self.live.is_empty() {
                return Ok(None);
            }
            self.charge(cost::schedule::PHASE_ADVANCE);
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
            l.post.cancel(proc);
        }
        self.held.clear();
        if self.traced {
            litempi_trace::emit(EventKind::CollEnd, self.op_id, 0);
        }
        self.state = SchedState::Failed(e.clone());
        Err(e)
    }

    fn issue_phase(&mut self, proc: &ProcInner, mem: &mut Mem<'_>) -> MpiResult<()> {
        if self.traced {
            litempi_trace::emit(EventKind::SchedPhaseBegin, self.op_id, self.cur as u64);
        }
        let mut i = self.next;
        loop {
            let mut next = i + 1;
            match self.verts[i] {
                Vertex::Fence => break,
                Vertex::Send { tag, src, .. } => {
                    // This send plus the run of sends of the same span that
                    // follows it: one staged payload for the whole fan-out.
                    while self.verts[next].fan_out_peer(tag, src).is_some() {
                        next += 1;
                    }
                    let group = mem.group;
                    let dests = self.verts[i..next]
                        .iter()
                        .filter_map(|v| v.fan_out_peer(tag, src))
                        .map(|p| group.world_rank(p));
                    let bits = match_bits::encode(self.ctx, self.rank, tag);
                    send_staged(proc, bits, mem.bytes(src), dests);
                }
                Vertex::Recv { peer, tag, dst } => {
                    let bits = match_bits::encode(self.ctx, peer, tag);
                    self.live.push(LiveRecv {
                        post: Posted::post(proc, bits, 0),
                        dst,
                        peer: mem.group.world_rank(peer),
                    });
                }
                Vertex::Reduce { src, dst } => {
                    let (op, ty) = self.op.as_ref().expect("reduce vertex without op");
                    let inout = &mut mem.acc[dst.range()];
                    match src {
                        Operand::Held(slot) => self.held[slot]
                            .take()
                            .expect("reduce vertex ahead of its receive")
                            .read(proc, |data| op.apply(ty, inout, data))?,
                        Operand::Input(s) => op.apply(ty, inout, &mem.input[s.range()])?,
                    }
                }
                Vertex::Copy { src, dst } => mem.acc.copy_within(src.range(), dst.start),
            }
            self.charge((next - i) as u64 * cost::schedule::VERTEX_ISSUE);
            i = next;
        }
        self.next = i + 1;
        self.issued = true;
        Ok(())
    }

    fn poll_live(&mut self, proc: &ProcInner, mem: &mut Mem<'_>) -> MpiResult<()> {
        let mut i = 0;
        while i < self.live.len() {
            let live = &self.live[i];
            let arrived =
                poll_or_death(proc, Some(live.peer), Some(self.ctx.0), || live.post.poll());
            let Some(msg) = arrived.transpose()? else {
                i += 1;
                continue;
            };
            let dst = self.live.swap_remove(i).dst;
            self.charge(cost::schedule::VERTEX_COMPLETE);
            self.deliver(proc, mem, msg, dst)?;
        }
        Ok(())
    }

    /// Hand a matched message (eager or rendezvous) to its sink. A copying
    /// sink reads the wire or staging buffer straight into its span; a
    /// holding sink keeps the opened message, unread, for the `Reduce`
    /// vertex to fold from.
    fn deliver(
        &mut self,
        proc: &ProcInner,
        mem: &mut Mem<'_>,
        msg: TaggedMessage,
        dst: Sink,
    ) -> MpiResult<()> {
        let msg = proto::open(proc, msg)?;
        match dst {
            Sink::Discard => msg.read(proc, |_| Ok(())),
            Sink::Into(s) => msg.read(proc, |data| copy_exact(data, &mut mem.acc[s.range()])),
            Sink::Hold(slot) => {
                if self.held.len() <= slot {
                    self.held.resize_with(slot + 1, || None);
                }
                self.held[slot] = Some(msg);
                Ok(())
            }
        }
    }
}

// ------------------------------------------------------------ the compilers

fn send(peer: usize, tag: i32, src: Src) -> Vertex {
    Vertex::Send { peer, tag, src }
}

fn recv(peer: usize, tag: i32, dst: Sink) -> Vertex {
    Vertex::Recv { peer, tag, dst }
}

/// `dst = dst OP` the message held in `slot`.
fn fold(slot: usize, dst: Span) -> Vertex {
    let src = Operand::Held(slot);
    Vertex::Reduce { src, dst }
}

impl Schedule {
    /// `MPI_BARRIER`: node-aware on a multi-node topology (members check in
    /// with their node leader, leaders disseminate, leaders release their
    /// members), otherwise dissemination over the whole communicator.
    pub(crate) fn barrier(comm: &Communicator) -> Schedule {
        let mut s = Schedule::new(comm, coll_op::BARRIER);
        if comm.size() == 1 {
            return s;
        }
        let tag = comm.next_coll_tag();
        let Some(plan) = hier::plan(comm) else {
            s.push_dissemination(Ranks::All(comm.size()), comm.rank(), tag);
            return s;
        };
        let members = plan.members[1..].iter().copied();
        let recv_from = |peer| recv(peer, tag, Sink::Discard);
        let send_to = |peer| send(peer, tag, Src::Nothing);
        match plan.leader_slot {
            None => {
                s.phase([send_to(plan.leader())]);
                s.phase([recv_from(plan.leader())]);
            }
            Some(li) => {
                s.phase(members.clone().map(recv_from));
                s.push_dissemination(Ranks::Of(&plan.leaders), li, tag);
                s.phase(members.map(send_to));
            }
        }
        s
    }

    /// `MPI_BCAST` of `n` bytes from `root`. On a multi-node topology a
    /// binomial tree over the node leaders, between a hand-off from the root
    /// to its leader and each leader's fan-out to its members. Otherwise a
    /// binomial tree over the whole communicator (latency-optimal, but the
    /// full payload travels log P times) or, for a payload longer than
    /// [`BCAST_LONG_MSG_BYTES`] that divides into one block per rank, van
    /// de Geijn's scatter + allgather (about twice the payload per rank in
    /// total): the root deals block `i` to rank `i`, everyone allgathers.
    pub(crate) fn bcast(comm: &Communicator, n: usize, root: usize) -> MpiResult<Schedule> {
        comm.group().check_rank(root as i32)?;
        let mut s = Schedule::new(comm, coll_op::BCAST);
        s.result_bytes = n;
        let size = comm.size();
        if size == 1 {
            return Ok(s);
        }
        let tag = comm.next_coll_tag();
        let full = Span::new(0, n);
        let Some(plan) = hier::plan(comm) else {
            if n > BCAST_LONG_MSG_BYTES && size > 2 && n.is_multiple_of(size) {
                let block = n / size;
                let mine = Span::new(s.rank * block, block);
                s.push_scatter(size, root, tag, block, Src::Acc, mine);
                // Two patterns, two tags.
                s.push_allgather(size, comm.next_coll_tag(), block);
            } else {
                s.push_tree_bcast(Ranks::All(size), s.rank, root, tag, n);
            }
            return Ok(s);
        };
        s.push_hand_off(root, plan.leader_of[root], tag, full);
        if let Some(li) = plan.leader_slot {
            let leaders = Ranks::Of(&plan.leaders);
            s.push_tree_bcast(leaders, li, plan.leader_slot_of(root), tag, n);
            // The root already holds the payload.
            let members = plan.members[1..].iter().copied().filter(|&m| m != root);
            s.push_fan_out(members, tag, full);
        } else if s.rank != root {
            s.phase([recv(plan.leader(), tag, Sink::Into(full))]);
        }
        Ok(s)
    }

    /// `MPI_REDUCE` of `n` bytes to `root`: binomial tree — on a multi-node
    /// topology an intra-node fan-in first, the tree over the node leaders
    /// rooted at the root's leader, then a hand-off to the root.
    pub(crate) fn reduce(
        comm: &Communicator,
        n: usize,
        op: &Op,
        ty: Datatype,
        root: usize,
    ) -> MpiResult<Schedule> {
        comm.group().check_rank(root as i32)?;
        let mut s = Schedule::new(comm, coll_op::REDUCE);
        s.op = Some((op.clone(), ty));
        s.result_bytes = if s.rank == root { n } else { 0 };
        let tag = comm.next_coll_tag();
        let Some(plan) = hier::plan(comm) else {
            s.push_tree_reduce(Ranks::All(comm.size()), s.rank, root, tag, n);
            return Ok(s);
        };
        s.push_hier_fan_in(plan, tag, n);
        if let Some(li) = plan.leader_slot {
            let leaders = Ranks::Of(&plan.leaders);
            s.push_tree_reduce(leaders, li, plan.leader_slot_of(root), tag, n);
        }
        s.push_hand_off(plan.leader_of[root], root, tag, Span::new(0, n));
        Ok(s)
    }

    /// `MPI_ALLREDUCE` of `n` bytes. Multi-node topology: intra-node
    /// fan-in, binomial reduce + broadcast across the node leaders,
    /// intra-node fan-out. Otherwise recursive doubling for power-of-two
    /// sizes, else reduce to rank 0 + binomial broadcast.
    pub(crate) fn allreduce(comm: &Communicator, n: usize, op: &Op, ty: Datatype) -> Schedule {
        let size = comm.size();
        let mut s = Schedule::new(comm, coll_op::ALLREDUCE);
        s.op = Some((op.clone(), ty));
        s.result_bytes = n;
        let rank = s.rank;
        let acc = Span::new(0, n);
        if let Some(plan) = hier::plan(comm) {
            let tag = comm.next_coll_tag();
            s.push_hier_fan_in(plan, tag, n);
            if let Some(li) = plan.leader_slot {
                let leaders = Ranks::Of(&plan.leaders);
                s.push_tree_reduce(leaders, li, 0, tag, n);
                s.push_tree_bcast(leaders, li, 0, tag, n);
                s.push_fan_out(plan.members[1..].iter().copied(), tag, acc);
            } else {
                s.phase([recv(plan.leader(), tag, Sink::Into(acc))]);
            }
        } else if size.is_power_of_two() && size > 1 {
            let tag = comm.next_coll_tag();
            let mut k = 1usize;
            while k < size {
                let partner = rank ^ k;
                s.phase([
                    send(partner, tag, Src::Acc(acc)),
                    recv(partner, tag, Sink::Hold(0)),
                ]);
                s.phase([fold(0, acc)]);
                k <<= 1;
            }
        } else {
            // Two trees, two tags.
            let all = Ranks::All(size);
            s.push_tree_reduce(all, rank, 0, comm.next_coll_tag(), n);
            if size > 1 {
                s.push_tree_bcast(all, rank, 0, comm.next_coll_tag(), n);
            }
        }
        s
    }

    /// `MPI_ALLGATHER` of `block` bytes per rank — see
    /// [`push_allgather`](Schedule::push_allgather).
    pub(crate) fn allgather(comm: &Communicator, block: usize) -> Schedule {
        let size = comm.size();
        let mut s = Schedule::new(comm, coll_op::ALLGATHER);
        s.result_bytes = block * size;
        s.push_allgather(size, comm.next_coll_tag(), block);
        s
    }

    /// `MPI_ALLTOALL` (windowed pairwise exchange) of `block`-byte blocks
    /// out of a `send_bytes` send buffer, which `acc` starts as a copy of
    /// (so this rank's own block is in place). The slot sequence —
    /// node-aware on multi-node topologies, classic pairwise otherwise, see
    /// [`hier::alltoall_slots`] — is chunked into phases of at most the
    /// cost-model issue window, so a rank never has more than O(window)
    /// sends and receives posted at once; one wide phase would mean
    /// `N − 1` posted requests per rank and an O(ranks) matching queue at
    /// every receiver. Phase boundaries are the windowing mechanism: every
    /// rank walks the same global slot order, so phase `q`'s receives match
    /// sends issued no later than their sender's phase `q`.
    pub(crate) fn alltoall(
        comm: &Communicator,
        send_bytes: usize,
        block: usize,
    ) -> MpiResult<Schedule> {
        let size = comm.size();
        if send_bytes != block * size {
            return Err(MpiError::BufferTooSmall {
                needed: block * size,
                provided: send_bytes,
            });
        }
        let mut s = Schedule::new(comm, coll_op::ALLTOALL);
        s.result_bytes = send_bytes;
        let tag = comm.next_coll_tag();
        let nth = |r: usize| Span::new(r * block, block);
        for chunk in hier::alltoall_slots(comm).chunks(issue_window(comm, block)) {
            for slot in chunk {
                if let Some(to) = slot.send_to {
                    s.verts.push(send(to, tag, Src::Input(nth(to))));
                }
                if let Some(from) = slot.recv_from {
                    s.verts.push(recv(from, tag, Sink::Into(nth(from))));
                }
            }
            s.fence();
        }
        Ok(s)
    }

    /// `MPI_GATHER` / `MPI_GATHERV` (linear) of this rank's `n` bytes to
    /// `root`: everyone else sends its buffer, the root receives them in
    /// phases of at most the issue window, so it never has O(ranks)
    /// receives posted. `gather` lands rank `r`'s block at `r · n` of the
    /// root's accumulator (its own is in place); `variable` (gatherv), where
    /// only arrival tells a length, holds rank `r`'s message in operand slot
    /// `r` for the caller to size its output by
    /// ([`run_holding`](Schedule::run_holding)).
    pub(crate) fn gather(
        comm: &Communicator,
        n: usize,
        root: usize,
        variable: bool,
    ) -> MpiResult<Schedule> {
        comm.group().check_rank(root as i32)?;
        let mut s = Schedule::new(comm, coll_op::GATHER);
        let tag = comm.next_coll_tag();
        if s.rank != root {
            s.phase([send(root, tag, Src::Input(Span::new(0, n)))]);
            return Ok(s);
        }
        let sink = |r: usize| {
            if variable {
                Sink::Hold(r)
            } else {
                Sink::Into(Span::new(r * n, n))
            }
        };
        let peers: Vec<usize> = (0..comm.size()).filter(|&r| r != root).collect();
        for chunk in peers.chunks(issue_window(comm, n)) {
            s.phase(chunk.iter().map(|&peer| recv(peer, tag, sink(peer))));
        }
        Ok(s)
    }

    /// `MPI_SCATTER` (linear) of `block`-byte blocks from `root`, whose
    /// send buffer (`send_bytes` long; read at the root only) holds one per
    /// rank: block `r` goes to rank `r`'s accumulator; the root's own is in
    /// place. A missing or mis-sized root buffer is `MPI_ERR_BUFFER`, as in
    /// point-to-point.
    pub(crate) fn scatter(
        comm: &Communicator,
        send_bytes: Option<usize>,
        block: usize,
        root: usize,
    ) -> MpiResult<Schedule> {
        comm.group().check_rank(root as i32)?;
        let size = comm.size();
        let mut s = Schedule::new(comm, coll_op::SCATTER);
        if s.rank == root && send_bytes != Some(block * size) {
            return Err(MpiError::BufferTooSmall {
                needed: block * size,
                provided: send_bytes.unwrap_or(0),
            });
        }
        let tag = comm.next_coll_tag();
        s.push_scatter(size, root, tag, block, Src::Input, Span::new(0, block));
        Ok(s)
    }

    /// `MPI_SCAN` / `MPI_EXSCAN` (`exclusive`) of `n` bytes, a chain: rank
    /// `r` receives the prefix over ranks `0..r`, folds its own
    /// contribution into it — prefix first, so a non-commutative op reads
    /// left to right — and sends the result on. The accumulator starts as
    /// this rank's contribution (rank 0's inclusive prefix). Inclusive, the
    /// folded prefix is the result. Exclusive, the prefix as received is
    /// (bytes `0..n`; rank 0 has none), so the fold works on a copy of it in
    /// bytes `n..2n`.
    pub(crate) fn scan(
        comm: &Communicator,
        n: usize,
        op: &Op,
        ty: Datatype,
        exclusive: bool,
    ) -> Schedule {
        let mut s = Schedule::new(comm, coll_op::SCAN);
        s.op = Some((op.clone(), ty));
        let tag = comm.next_coll_tag();
        let rank = s.rank;
        let last = rank + 1 == comm.size();
        let mine = Span::new(0, n);
        let (prefix, folded) = (mine, Span::new(if exclusive { n } else { 0 }, n));
        if rank > 0 {
            s.phase([recv(rank - 1, tag, Sink::Into(prefix))]);
            // The last rank of an exclusive scan has nobody to fold for.
            if !(exclusive && last) {
                let copy = Vertex::Copy {
                    src: prefix,
                    dst: folded,
                };
                let src = Operand::Input(mine);
                s.verts.extend(exclusive.then_some(copy));
                s.phase([Vertex::Reduce { src, dst: folded }]);
            }
        }
        if !last {
            let src = if rank > 0 {
                Src::Acc(folded)
            } else {
                Src::Input(mine)
            };
            s.phase([send(rank + 1, tag, src)]);
        }
        s
    }

    /// `MPI_REDUCE_SCATTER_BLOCK` (pairwise exchange) of `block`-byte
    /// blocks: at offset `d` a rank sends block `rank + d` of its send
    /// buffer to that rank and folds the block it receives from `rank − d`
    /// into the accumulator, which starts as its own block of its own
    /// buffer — P − 1 block-sized messages per rank, no root. Offsets go out
    /// a window at a time, each received block in an operand slot of its
    /// own, and are folded in ascending `d` whatever order they arrived in.
    /// Requires a commutative op (all predefined ops are).
    pub(crate) fn reduce_scatter_block(
        comm: &Communicator,
        block: usize,
        op: &Op,
        ty: Datatype,
    ) -> Schedule {
        let size = comm.size();
        let mut s = Schedule::new(comm, coll_op::REDUCE_SCATTER);
        s.op = Some((op.clone(), ty));
        let tag = comm.next_coll_tag();
        let rank = s.rank;
        let offsets: Vec<usize> = (1..size).collect();
        for chunk in offsets.chunks(issue_window(comm, block)) {
            s.phase(chunk.iter().enumerate().flat_map(|(slot, d)| {
                let (to, from) = ((rank + d) % size, (rank + size - d) % size);
                [
                    send(to, tag, Src::Input(Span::new(to * block, block))),
                    recv(from, tag, Sink::Hold(slot)),
                ]
            }));
            s.phase((0..chunk.len()).map(|slot| fold(slot, Span::new(0, block))));
        }
        s
    }

    /// `MPI_NEIGHBOR_ALLGATHER` / `MPI_NEIGHBOR_ALLTOALL` (`per_neighbor`)
    /// of `block` bytes on a Cartesian communicator: one phase, a send to
    /// and a receive from each of the ≤ 2·ndims neighbours
    /// (`neighbors[d]` = the negative and the positive one along dimension
    /// `d`; a `PROC_NULL` one compiles to nothing). Slot `2d` of the
    /// accumulator is the negative neighbour's block, `2d + 1` the positive
    /// one's; allgather sends the whole send buffer each way, alltoall slot
    /// `i` of it to neighbour `i`. Each direction of travel has a tag of
    /// its own: along a periodic dimension of extent 2 both neighbours are
    /// one rank (of extent 1, this rank), and only the direction says which
    /// slot a block belongs in.
    pub(crate) fn neighbor(
        comm: &Communicator,
        neighbors: &[(i32, i32)],
        block: usize,
        per_neighbor: bool,
    ) -> Schedule {
        let op_id = if per_neighbor {
            coll_op::NEIGHBOR_ALLTOALL
        } else {
            coll_op::NEIGHBOR_ALLGATHER
        };
        let mut s = Schedule::new(comm, op_id);
        for (d, &(neg, pos)) in neighbors.iter().enumerate() {
            let (down, up) = (comm.next_coll_tag(), comm.next_coll_tag());
            for (slot, peer, out_tag, in_tag) in
                [(2 * d, neg, down, up), (2 * d + 1, pos, up, down)]
            {
                if peer == PROC_NULL {
                    continue;
                }
                let here = Span::new(slot * block, block);
                let out = if per_neighbor {
                    here
                } else {
                    Span::new(0, block)
                };
                s.verts.push(send(peer as usize, out_tag, Src::Input(out)));
                s.verts.push(recv(peer as usize, in_tag, Sink::Into(here)));
            }
        }
        s.fence();
        s
    }

    /// Linear scatter of `block`-byte blocks from `root`: the root sends
    /// block `r` of `src` to every other rank `r`, which receives it into
    /// `into`.
    fn push_scatter(
        &mut self,
        size: usize,
        root: usize,
        tag: i32,
        block: usize,
        src: fn(Span) -> Src,
        into: Span,
    ) {
        if self.rank != root {
            self.phase([recv(root, tag, Sink::Into(into))]);
            return;
        }
        let peers = (0..size).filter(|&r| r != root);
        self.phase(peers.map(|r| send(r, tag, src(Span::new(r * block, block)))));
    }

    /// Allgather of the accumulator's `size` rank-ordered `block`-byte
    /// blocks, this rank's own in place: recursive doubling for
    /// power-of-two sizes (log P steps; at step k, partners `rank ^ 2^k`
    /// swap their accumulated 2^k-block runs), ring otherwise (P−1 steps,
    /// bandwidth-friendly). Receives land in their output slots; one send
    /// and one receive are outstanding per step.
    fn push_allgather(&mut self, size: usize, tag: i32, block: usize) {
        let rank = self.rank;
        // Runs of whole blocks of the rank-ordered output.
        let blocks = |first: usize, count: usize| Span::new(first * block, count * block);
        let swap = |to, out, from, into| {
            [
                send(to, tag, Src::Acc(out)),
                recv(from, tag, Sink::Into(into)),
            ]
        };
        if size.is_power_of_two() {
            let mut k = 1usize;
            while k < size {
                let partner = rank ^ k;
                // Each side owns the run of k blocks at its k-aligned base.
                let (mine, theirs) = (blocks(rank / k * k, k), blocks(partner / k * k, k));
                self.phase(swap(partner, mine, partner, theirs));
                k <<= 1;
            }
        } else {
            // In step `step` forward the block that originated `step`
            // ranks to the left.
            let (right, left) = ((rank + 1) % size, (rank + size - 1) % size);
            for step in 0..size - 1 {
                let origin = (rank + size - step) % size;
                let before = (origin + size - 1) % size;
                self.phase(swap(right, blocks(origin, 1), left, blocks(before, 1)));
            }
        }
    }

    /// One phase sending `src` to every rank in `peers`. The engine stages
    /// the span once for the whole run — see `issue_phase`.
    fn push_fan_out(&mut self, peers: impl Iterator<Item = usize>, tag: i32, src: Span) {
        self.phase(peers.map(|peer| send(peer, tag, Src::Acc(src))));
    }

    /// `span` moves from rank `from` to rank `to` when they differ (root
    /// to its node leader, or back); every other rank compiles nothing.
    fn push_hand_off(&mut self, from: usize, to: usize, tag: i32, span: Span) {
        if from == to {
            return;
        }
        if self.rank == from {
            self.push_fan_out(std::iter::once(to), tag, span);
        } else if self.rank == to {
            self.phase([recv(from, tag, Sink::Into(span))]);
        }
    }

    /// Dissemination barrier over `ranks`, from position `my_idx`:
    /// ⌈log₂ g⌉ rounds, each sending to `+2^k` and receiving from `−2^k`.
    fn push_dissemination(&mut self, ranks: Ranks<'_>, my_idx: usize, tag: i32) {
        let g = ranks.len();
        let mut k = 1usize;
        while k < g {
            self.phase([
                send(ranks.at((my_idx + k) % g), tag, Src::Nothing),
                recv(ranks.at((my_idx + g - k) % g), tag, Sink::Discard),
            ]);
            k <<= 1;
        }
    }

    /// Binomial reduce of the `n`-byte accumulator over `ranks`, rooted at
    /// position `root_idx`. Step k: virtual ranks with bit k set send their
    /// partial to `v − 2^k` and drop out; the rest receive and fold — the
    /// child at distance `2^k` is folded at step `k`.
    fn push_tree_reduce(
        &mut self,
        ranks: Ranks<'_>,
        my_idx: usize,
        root_idx: usize,
        tag: i32,
        n: usize,
    ) {
        let g = ranks.len();
        let acc = Span::new(0, n);
        let v = (my_idx + g - root_idx) % g;
        let at = |v: usize| ranks.at((v + root_idx) % g);
        let mut k = 1usize;
        while k < g {
            if v & k != 0 {
                self.phase([send(at(v - k), tag, Src::Acc(acc))]);
                break;
            } else if v + k < g {
                self.phase([recv(at(v + k), tag, Sink::Hold(0))]);
                self.phase([fold(0, acc)]);
            }
            k <<= 1;
        }
    }

    /// Binomial broadcast of the `n`-byte accumulator over `ranks`, rooted
    /// at position `root_idx`: receive from the tree parent, then one
    /// fan-out to the children.
    fn push_tree_bcast(
        &mut self,
        ranks: Ranks<'_>,
        my_idx: usize,
        root_idx: usize,
        tag: i32,
        n: usize,
    ) {
        let g = ranks.len();
        let full = Span::new(0, n);
        let v = (my_idx + g - root_idx) % g;
        let at = |v: usize| ranks.at((v + root_idx) % g);
        if v != 0 {
            self.phase([recv(at(parent_of(v)), tag, Sink::Into(full))]);
        }
        self.push_fan_out(binomial_children(v, g).map(at), tag, full);
    }

    /// Intra-node fan-in of a node-aware reduction: members send their
    /// accumulator to the node leader; the leader receives all of them in
    /// parallel, one operand slot each, and then folds them in ascending
    /// member order whatever order they arrived in.
    fn push_hier_fan_in(&mut self, plan: &HierPlan, tag: i32, n: usize) {
        let acc = Span::new(0, n);
        if plan.my_slot != 0 {
            self.push_fan_out(std::iter::once(plan.leader()), tag, acc);
            return;
        }
        let members = plan.members[1..].iter().enumerate();
        self.phase(members.map(|(j, &peer)| recv(peer, tag, Sink::Hold(j))));
        self.phase((1..plan.members.len()).map(|j| fold(j - 1, acc)));
    }
}

// ------------------------------------------------- the deferred (MPI_I*) driver

/// A deferred schedule with the memory it runs over: what the `Request`
/// half drives and the [`CollOutput`] half takes the result from.
pub(crate) struct SchedShared {
    inner: Mutex<Deferred>,
    /// For the group: shared with the communicator, not copied.
    comm: Arc<CommShared>,
}

struct Deferred {
    sched: Schedule,
    /// Accumulator / result bytes; taken by [`CollOutput`] on completion.
    acc: Vec<u8>,
    input: Vec<u8>,
}

impl SchedShared {
    /// One `Schedule::progress` poll.
    pub(crate) fn progress(&self, proc: &ProcInner) -> MpiResult<Option<Status>> {
        let d = &mut *self.inner.lock();
        let mut mem = Mem {
            group: &self.comm.group,
            acc: &mut d.acc,
            input: &d.input,
        };
        d.sched.progress(proc, &mut mem)
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
    extract: Box<dyn FnOnce(Vec<u8>) -> T + Send>,
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
        let mut d = self.sched.inner.lock();
        if !matches!(d.sched.state, SchedState::Done) {
            return Err(MpiError::InvalidRequest("collective schedule not complete"));
        }
        let acc = std::mem::take(&mut d.acc);
        drop(d);
        Ok((self.extract)(acc))
    }
}

/// Little-endian wire bytes → a typed vector (the inverse of
/// `T::as_bytes`).
fn bytes_to_vec<T: MpiPrimitive>(bytes: Vec<u8>) -> Vec<T> {
    let elem = T::PREDEFINED.size();
    debug_assert!(bytes.len().is_multiple_of(elem));
    let mut out = zeroed::<T>(bytes.len() / elem);
    T::as_bytes_mut(&mut out).copy_from_slice(&bytes);
    out
}

/// Defer a compiled schedule behind a [`CollRequest`]: charge the compile,
/// open the trace span, and kick phase 0 onto the wire — sends leave now,
/// receives are posted before any peer's data can arrive, so overlap
/// starts here, not at the first test/wait.
fn begin_request<T>(
    comm: &Communicator,
    mut sched: Schedule,
    acc: Vec<u8>,
    input: Vec<u8>,
    extract: impl FnOnce(Vec<u8>) -> T + Send + 'static,
) -> MpiResult<CollRequest<T>> {
    sched.begin(true);
    let shared = Arc::new(SchedShared {
        inner: Mutex::new(Deferred { sched, acc, input }),
        comm: Arc::clone(&comm.shared),
    });
    let proc = Arc::clone(&comm.proc);
    let fatal = comm.errors_are_fatal();
    let req = match shared.progress(&proc) {
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

impl Communicator {
    /// `MPI_IBARRIER` — `Schedule::barrier`, deferred.
    pub fn ibarrier(&self) -> MpiResult<CollRequest<()>> {
        begin_request(
            self,
            Schedule::barrier(self),
            Vec::new(),
            Vec::new(),
            |_| (),
        )
    }

    /// `MPI_IBCAST` — `Schedule::bcast`, deferred. Takes the payload by
    /// shared slice and returns the broadcast data, so non-root ranks pass
    /// their (same-length) staging buffer.
    pub fn ibcast<T: MpiPrimitive>(
        &self,
        buf: &[T],
        root: usize,
    ) -> MpiResult<CollRequest<Vec<T>>> {
        let acc = T::as_bytes(buf).to_vec();
        let sched = Schedule::bcast(self, acc.len(), root)?;
        begin_request(self, sched, acc, Vec::new(), bytes_to_vec::<T>)
    }

    /// `MPI_IREDUCE` — `Schedule::reduce`, deferred: the root's output
    /// resolves to `Some(result)`, everyone else's to `None`.
    pub fn ireduce<T: MpiPrimitive>(
        &self,
        sendbuf: &[T],
        op: &Op,
        root: usize,
    ) -> MpiResult<CollRequest<Option<Vec<T>>>> {
        let acc = T::as_bytes(sendbuf).to_vec();
        let sched = Schedule::reduce(self, acc.len(), op, T::DATATYPE, root)?;
        let at_root = self.rank() == root;
        begin_request(self, sched, acc, Vec::new(), move |acc| {
            at_root.then(|| bytes_to_vec::<T>(acc))
        })
    }

    /// `MPI_IALLREDUCE` — `Schedule::allreduce`, deferred.
    pub fn iallreduce<T: MpiPrimitive>(
        &self,
        sendbuf: &[T],
        op: &Op,
    ) -> MpiResult<CollRequest<Vec<T>>> {
        let acc = T::as_bytes(sendbuf).to_vec();
        let sched = Schedule::allreduce(self, acc.len(), op, T::DATATYPE);
        begin_request(self, sched, acc, Vec::new(), bytes_to_vec::<T>)
    }

    /// `MPI_IALLGATHER` — `Schedule::allgather`, deferred.
    pub fn iallgather<T: MpiPrimitive>(&self, sendbuf: &[T]) -> MpiResult<CollRequest<Vec<T>>> {
        let mine = T::as_bytes(sendbuf);
        let sched = Schedule::allgather(self, mine.len());
        // My block in every slot; every other slot is overwritten.
        let acc = mine.repeat(self.size());
        begin_request(self, sched, acc, Vec::new(), bytes_to_vec::<T>)
    }

    /// `MPI_IALLTOALL` — `Schedule::alltoall`, deferred.
    pub fn ialltoall<T: MpiPrimitive>(
        &self,
        sendbuf: &[T],
        block: usize,
    ) -> MpiResult<CollRequest<Vec<T>>> {
        let input = T::as_bytes(sendbuf).to_vec();
        let sched = Schedule::alltoall(self, input.len(), block * T::PREDEFINED.size())?;
        begin_request(self, sched, input.clone(), input, bytes_to_vec::<T>)
    }
}
