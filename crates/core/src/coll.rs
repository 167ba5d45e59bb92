//! Machine-independent collectives (the MPI-layer algorithms of Fig 1).
//!
//! Like MPICH's collectives, these are built on the device's injection
//! path, not on the public `MPI_Isend` (so they pay device costs but not
//! repeated MPI-layer validation), and they run on the communicator's
//! *collective context* — a twin context id that isolates internal traffic
//! from user point-to-point traffic on the same communicator.
//!
//! Barrier, bcast, reduce, allreduce, allgather and alltoall have one
//! encoding each: the schedule compiled in [`crate::sched`], which the
//! entry points here run inline (`Schedule::run`) and the `MPI_I*` entry
//! points defer. The rest are written out below over the channel's
//! `csend`/`crecv`: linear gather/gatherv/scatter, chained scan/exscan,
//! pairwise reduce_scatter_block, and the long-message (scatter +
//! allgather) bcast.

use crate::comm::Communicator;
use crate::error::{MpiError, MpiResult};
use crate::hier;
use crate::match_bits;
use crate::op::Op;
use crate::process::{Posted, ProcInner};
use crate::proto::{self, Opened};
use crate::pt2pt::{inject, SendMode, SendOpts};
use crate::request::{poll_or_death, wait_loop};
use crate::sched::Schedule;
use litempi_datatype::{Datatype, MpiPrimitive};
use litempi_trace::{event::coll_op, EventKind};

/// RAII span emitting `CollBegin`/`CollEnd` around one collective when
/// tracing is on (one branch when off). Drop-based so error returns still
/// close the span.
pub(crate) struct CollSpan {
    traced: bool,
    op: u64,
}

impl CollSpan {
    pub(crate) fn begin(comm: &Communicator, op: u64) -> CollSpan {
        let traced = comm.proc.endpoint.fabric().trace_enabled();
        if traced {
            litempi_trace::emit(EventKind::CollBegin, op, 0);
        }
        CollSpan { traced, op }
    }
}

impl Drop for CollSpan {
    fn drop(&mut self) {
        if self.traced {
            litempi_trace::emit(EventKind::CollEnd, self.op, 0);
        }
    }
}

/// ULFM gate at the head of every collective written out in this module
/// (a schedule carries its own): an operation on a revoked communicator
/// fails with `Revoked` (through the errhandler) instead of deadlocking
/// against ranks that already know. Uncharged — in
/// the fault-free case this is one relaxed load, so the paper's calibrated
/// charge totals are untouched.
pub(crate) fn ft_gate(comm: &Communicator) -> MpiResult<()> {
    if comm.proc.is_ctx_revoked(comm.context_id().0) {
        return comm.handle_error(Err(MpiError::Revoked));
    }
    Ok(())
}

/// Fire-and-forget send of `data` under `bits` to every world rank in
/// `dests`, in order: staged once ([`proto::stage`] — one pool lease and
/// one copy of `data` in total, eager or rendezvous), one injection per
/// destination. The blocking collectives, the schedule engine's `Send`
/// vertices and the inter-communicator all come through here.
pub(crate) fn send_staged(
    proc: &ProcInner,
    bits: u64,
    data: &[u8],
    dests: impl IntoIterator<Item = usize>,
) {
    let mut dests = dests.into_iter();
    let Some(mut dest) = dests.next() else {
        return;
    };
    let vci = proc.vci_of_bits(bits);
    let (ty, mode) = (Datatype::BYTE, SendMode::Standard);
    let staged = proto::stage(proc, vci, &ty, data.len(), data, mode, None);
    let opts = SendOpts::default();
    for next in dests {
        inject(proc, dest, bits, staged.clone().into_wire(proc, vci), &opts);
        dest = next;
    }
    inject(proc, dest, bits, staged.into_wire(proc, vci), &opts);
}

/// Internal collective-channel send of one payload to several peers
/// (communicator ranks) — a binomial node's children, a leader's node
/// members. See [`send_staged`].
pub(crate) fn csend_all(
    comm: &Communicator,
    dests: impl IntoIterator<Item = usize>,
    tag: i32,
    data: &[u8],
) {
    let bits = match_bits::encode(comm.context_id().collective(), comm.rank, tag);
    let dests = dests.into_iter().map(|d| comm.world_rank_of(d));
    send_staged(&comm.proc, bits, data, dests);
}

/// Internal collective-channel send: fire-and-forget, eager or rendezvous.
pub(crate) fn csend(comm: &Communicator, dest: usize, tag: i32, data: &[u8]) {
    csend_all(comm, [dest], tag, data);
}

/// Internal collective-channel receive from a specific peer: the message,
/// opened, for the caller to [`read`](Opened::read).
///
/// Fallible: over a lossy fabric the sender can die mid-collective, and a
/// damaged or replayed RTS descriptor can name a rendezvous entry that is
/// not there. Both surface as comm-failure `MpiError`s routed through
/// the communicator's errhandler, so `MPI_ERRORS_RETURN` gets an `Err`
/// and `MPI_ERRORS_ARE_FATAL` panics — never an unconditional panic.
pub(crate) fn crecv(comm: &Communicator, src: usize, tag: i32) -> MpiResult<Opened> {
    comm.handle_error(crecv_gated(comm, src, tag, Some(comm.context_id().0)))
}

/// FT-internal receive for the agreement protocol ([`crate::ft`]): like
/// [`crecv`], but exempt from revocation gates (ULFM requires `agree` to
/// work on a revoked communicator) and never routed through the
/// communicator's errhandler — the protocol turns peer death into
/// protocol state (a dead-mask bit), not an application error.
pub(crate) fn crecv_ft(comm: &Communicator, src: usize, tag: i32) -> MpiResult<Opened> {
    crecv_gated(comm, src, tag, None)
}

/// Copy a message into `dst`. A message of any other length is
/// `MPI_ERR_TRUNCATE`, not a slice-length panic.
pub(crate) fn copy_exact(data: &[u8], dst: &mut [u8]) -> MpiResult<()> {
    if data.len() != dst.len() {
        return Err(MpiError::Truncate {
            message: data.len(),
            buffer: dst.len(),
        });
    }
    dst.copy_from_slice(data);
    Ok(())
}

/// [`crecv`] straight into `dst`.
pub(crate) fn crecv_into(
    comm: &Communicator,
    src: usize,
    tag: i32,
    dst: &mut [u8],
) -> MpiResult<()> {
    crecv(comm, src, tag)?.read(&comm.proc, |data| copy_exact(data, dst))
}

/// Blocking matched receive on the collective channel. The poll closure
/// checks the sender's world rank for death on every pass, so a
/// kill-switch firing mid-collective turns the wait into `PeerUnreachable`
/// instead of a hang. `revoke_ctx` (the owning communicator's user-channel
/// context, or `None` for FT-internal traffic) additionally turns a
/// revocation into `Revoked`.
fn crecv_gated(
    comm: &Communicator,
    src: usize,
    tag: i32,
    revoke_ctx: Option<u16>,
) -> MpiResult<Opened> {
    let proc = &*comm.proc;
    let bits = match_bits::encode(comm.context_id().collective(), src, tag);
    let peer = Some(comm.world_rank_of(src));
    let posted = Posted::post(proc, bits, 0);
    let polled = wait_loop(proc, || {
        poll_or_death(proc, peer, false, revoke_ctx, || posted.poll())
    });
    if polled.is_err() {
        posted.cancel(proc);
    }
    proto::open(proc, polled?)
}

/// `MPI_BARRIER` — see `Schedule::barrier`.
pub fn barrier(comm: &Communicator) -> MpiResult<()> {
    Schedule::barrier(comm).run(comm, &mut [], &[])
}

/// Message-size threshold (bytes) above which a flat `bcast` switches from
/// the binomial tree (latency-optimal, but sends the full payload log P
/// times) to scatter+allgather (bandwidth-optimal, van de Geijn). MPICH
/// uses the same structure with a similar crossover.
pub const BCAST_LONG_MSG_BYTES: usize = 32 * 1024;

/// `MPI_BCAST`: [`bcast_scatter_allgather`] for a long, block-divisible
/// payload on a topology without a node hierarchy, otherwise the tree of
/// `Schedule::bcast`.
pub fn bcast<T: MpiPrimitive>(comm: &Communicator, buf: &mut [T], root: usize) -> MpiResult<()> {
    let bytes = std::mem::size_of_val(buf);
    if bytes > BCAST_LONG_MSG_BYTES
        && comm.size() > 2
        && buf.len().is_multiple_of(comm.size())
        && hier::plan(comm).is_none()
    {
        let _span = CollSpan::begin(comm, coll_op::BCAST);
        return bcast_scatter_allgather(comm, buf, root);
    }
    Schedule::bcast(comm, bytes, root)?.run(comm, T::as_bytes_mut(buf), &[])
}

/// Binomial-tree parent of a (nonzero) virtual rank:
/// `parent(v) = v - 2^⌊log₂ v⌋` (clear the highest set bit). Children of
/// `v` are `v + 2^k` for every `2^k` at least the next power of two
/// above `v` — together these tile 0..P into a binomial tree.
pub(crate) fn parent_of(vrank: usize) -> usize {
    debug_assert!(vrank > 0);
    let high = usize::BITS - 1 - vrank.leading_zeros();
    vrank - (1 << high)
}

/// `n` elements of `T` with all-zero wire bytes: a typed buffer a receive
/// is about to overwrite.
pub(crate) fn zeroed<T: MpiPrimitive>(n: usize) -> Vec<T> {
    vec![T::from_wire(&[0u8; 16][..T::PREDEFINED.size()]); n]
}

/// Binomial-tree children of virtual rank `v` among `g` ranks, nearest
/// first: `v + 2^k` for every `2^k` above `v`'s highest set bit.
pub(crate) fn binomial_children(v: usize, g: usize) -> impl Iterator<Item = usize> {
    std::iter::successors(Some((v + 1).next_power_of_two()), |k| Some(k << 1))
        .map(move |k| v + k)
        .take_while(move |&c| c < g)
}

/// Long-message broadcast (van de Geijn): scatter the payload's blocks
/// down a binomial tree's natural block ownership, then allgather the
/// blocks. Moves ~2x the data of one tree *level* instead of log P copies
/// of the whole payload. Requires `buf.len() % size == 0` (the selector
/// guarantees it).
pub fn bcast_scatter_allgather<T: MpiPrimitive>(
    comm: &Communicator,
    buf: &mut [T],
    root: usize,
) -> MpiResult<()> {
    ft_gate(comm)?;
    comm.group().check_rank(root as i32)?;
    let size = comm.size();
    if size == 1 {
        return Ok(());
    }
    let block = buf.len() / size;
    // The `bcast` selector guarantees divisibility, but this algorithm is
    // public API: a mismatched buffer must be `MPI_ERR_COUNT`, not a
    // truncated release-mode broadcast.
    if block * size != buf.len() {
        return Err(MpiError::InvalidCount(buf.len() as i64));
    }
    // Phase 1: scatter blocks from root (linear scatter of the payload's
    // `size` blocks; block i is destined to rank i).
    let my_block = {
        let send = if comm.rank() == root {
            Some(&buf[..])
        } else {
            None
        };
        scatter(comm, send, block, root)?
    };
    // Phase 2: allgather the blocks back into everyone's buffer.
    let gathered = allgather(comm, &my_block)?;
    buf.copy_from_slice(&gathered);
    Ok(())
}

/// `MPI_REDUCE` — see `Schedule::reduce`. Returns `Some(result)` at
/// `root`, `None` elsewhere.
pub fn reduce<T: MpiPrimitive>(
    comm: &Communicator,
    sendbuf: &[T],
    op: &Op,
    root: usize,
) -> MpiResult<Option<Vec<T>>> {
    let sched = Schedule::reduce(comm, std::mem::size_of_val(sendbuf), op, T::DATATYPE, root)?;
    // Fold in the buffer the root returns: no separate accumulator.
    let mut out = sendbuf.to_vec();
    sched.run(comm, T::as_bytes_mut(&mut out), &[])?;
    Ok((comm.rank() == root).then_some(out))
}

/// `MPI_ALLREDUCE` — see `Schedule::allreduce`.
pub fn allreduce<T: MpiPrimitive>(
    comm: &Communicator,
    sendbuf: &[T],
    op: &Op,
) -> MpiResult<Vec<T>> {
    let sched = Schedule::allreduce(comm, std::mem::size_of_val(sendbuf), op, T::DATATYPE);
    let mut out = sendbuf.to_vec();
    sched.run(comm, T::as_bytes_mut(&mut out), &[])?;
    Ok(out)
}

/// `MPI_GATHER` (linear): root receives `sendbuf` from every rank,
/// concatenated in rank order. Returns `Some` at root.
pub fn gather<T: MpiPrimitive>(
    comm: &Communicator,
    sendbuf: &[T],
    root: usize,
) -> MpiResult<Option<Vec<T>>> {
    ft_gate(comm)?;
    comm.group().check_rank(root as i32)?;
    let _span = CollSpan::begin(comm, coll_op::GATHER);
    let size = comm.size();
    let rank = comm.rank();
    let tag = comm.next_coll_tag();
    if rank == root {
        let block = sendbuf.len();
        // My block in every slot; every other slot is overwritten below.
        let mut out = sendbuf.repeat(size);
        for src in (0..size).filter(|&r| r != root) {
            let dst = &mut out[src * block..(src + 1) * block];
            crecv_into(comm, src, tag, T::as_bytes_mut(dst))?;
        }
        Ok(Some(out))
    } else {
        csend(comm, root, tag, T::as_bytes(sendbuf));
        Ok(None)
    }
}

/// `MPI_GATHERV` (linear, variable block sizes). Root receives each rank's
/// slice; returns `Some((data, counts))` at root with per-rank element
/// counts.
pub fn gatherv<T: MpiPrimitive>(
    comm: &Communicator,
    sendbuf: &[T],
    root: usize,
) -> MpiResult<Option<(Vec<T>, Vec<usize>)>> {
    ft_gate(comm)?;
    comm.group().check_rank(root as i32)?;
    let _span = CollSpan::begin(comm, coll_op::GATHER);
    let size = comm.size();
    let rank = comm.rank();
    let tag = comm.next_coll_tag();
    if rank == root {
        // Sizes are only known on arrival: hold every peer's message,
        // unread (`None` stands for the root's own block), until the output
        // can be sized.
        let mut blocks: Vec<Option<Opened>> = Vec::with_capacity(size);
        for src in 0..size {
            blocks.push(if src == root {
                None
            } else {
                Some(crecv(comm, src, tag)?)
            });
        }
        let (mine, elem) = (T::as_bytes(sendbuf), T::PREDEFINED.size());
        let counts: Vec<usize> = (blocks.iter())
            .map(|b| b.as_ref().map_or(mine.len(), Opened::len) / elem)
            .collect();
        let mut out = zeroed::<T>(counts.iter().sum());
        let mut rest = T::as_bytes_mut(&mut out);
        for (b, n) in blocks.into_iter().zip(&counts) {
            let (dst, tail) = rest.split_at_mut(n * elem);
            match b {
                None => dst.copy_from_slice(mine),
                Some(b) => b.read(&comm.proc, |data| copy_exact(data, dst))?,
            }
            rest = tail;
        }
        Ok(Some((out, counts)))
    } else {
        csend(comm, root, tag, T::as_bytes(sendbuf));
        Ok(None)
    }
}

/// `MPI_SCATTER` (linear): root distributes consecutive blocks of
/// `sendbuf`; every rank returns its block. `sendbuf` is read at root only.
pub fn scatter<T: MpiPrimitive>(
    comm: &Communicator,
    sendbuf: Option<&[T]>,
    block: usize,
    root: usize,
) -> MpiResult<Vec<T>> {
    ft_gate(comm)?;
    comm.group().check_rank(root as i32)?;
    let _span = CollSpan::begin(comm, coll_op::SCATTER);
    let size = comm.size();
    let rank = comm.rank();
    let tag = comm.next_coll_tag();
    if rank == root {
        // User-argument validation: errors, not panics — a missing or
        // short-sized root buffer is `MPI_ERR_BUFFER`, same as pt2pt.
        let send = sendbuf.ok_or(MpiError::BufferTooSmall {
            needed: block * size * T::PREDEFINED.size(),
            provided: 0,
        })?;
        if send.len() != block * size {
            return Err(MpiError::BufferTooSmall {
                needed: block * size * T::PREDEFINED.size(),
                provided: send.len() * T::PREDEFINED.size(),
            });
        }
        for dst in (0..size).filter(|&r| r != root) {
            csend(
                comm,
                dst,
                tag,
                T::as_bytes(&send[dst * block..(dst + 1) * block]),
            );
        }
        Ok(send[root * block..(root + 1) * block].to_vec())
    } else {
        let mut out = zeroed::<T>(block);
        crecv_into(comm, root, tag, T::as_bytes_mut(&mut out))?;
        Ok(out)
    }
}

/// `MPI_ALLGATHER` — see `Schedule::allgather`.
pub fn allgather<T: MpiPrimitive>(comm: &Communicator, sendbuf: &[T]) -> MpiResult<Vec<T>> {
    let sched = Schedule::allgather(comm, std::mem::size_of_val(sendbuf));
    // My block in every slot; every other slot is overwritten.
    let mut out = sendbuf.repeat(comm.size());
    sched.run(comm, T::as_bytes_mut(&mut out), &[])?;
    Ok(out)
}

/// Upper bound on the pairwise-exchange issue window: how many exchange
/// slots a rank may run ahead of its oldest outstanding receive. The old
/// code effectively used `size - 1` — at 1024 ranks that is 1023 posted
/// sends per rank and an O(ranks) matching queue at every receiver, which
/// is exactly the unbounded-posting bug this bounds. 16 keeps the pipe
/// full at BDP for small blocks on every calibrated provider profile
/// while pinning per-rank outstanding traffic to O(window).
pub const COLL_ISSUE_WINDOW: usize = 16;

/// Cost-model-tuned issue window for a pairwise exchange of `msg_bytes`
/// messages: enough slots in flight to cover the provider's
/// bandwidth-delay product, clamped to `1..=COLL_ISSUE_WINDOW`. Zero
/// latency or unbounded bandwidth (the `infinite` profile) means the BDP
/// argument degenerates, so the full window is used.
pub(crate) fn issue_window(comm: &Communicator, msg_bytes: usize) -> usize {
    let cost = comm.proc.endpoint.fabric().profile().cost;
    if cost.latency_ns <= 0.0 || !cost.bandwidth_gib_s.is_finite() {
        return COLL_ISSUE_WINDOW;
    }
    let bdp = cost.latency_ns * 1e-9 * cost.bandwidth_gib_s * (1u64 << 30) as f64;
    let slots = (bdp / msg_bytes.max(64) as f64).ceil() as usize;
    slots.clamp(1, COLL_ISSUE_WINDOW)
}

/// `MPI_ALLTOALL`: `sendbuf` holds `size` blocks of `block` elements;
/// block `i` goes to rank `i` — see `Schedule::alltoall`.
pub fn alltoall<T: MpiPrimitive>(
    comm: &Communicator,
    sendbuf: &[T],
    block: usize,
) -> MpiResult<Vec<T>> {
    let send = T::as_bytes(sendbuf);
    let sched = Schedule::alltoall(comm, send.len(), block * T::PREDEFINED.size())?;
    // Every block but my own is overwritten by its sender's.
    let mut out = sendbuf.to_vec();
    sched.run(comm, T::as_bytes_mut(&mut out), send)?;
    Ok(out)
}

/// `MPI_SCAN` (inclusive prefix reduction, linear chain).
pub fn scan<T: MpiPrimitive>(comm: &Communicator, sendbuf: &[T], op: &Op) -> MpiResult<Vec<T>> {
    ft_gate(comm)?;
    let _span = CollSpan::begin(comm, coll_op::SCAN);
    let size = comm.size();
    let rank = comm.rank();
    let tag = comm.next_coll_tag();
    let mine = T::as_bytes(sendbuf);
    // Rank 0's prefix is its own contribution; everyone else folds into
    // the received prefix, placed directly in the buffer returned.
    let out = if rank > 0 {
        let mut out = zeroed::<T>(sendbuf.len());
        let acc = T::as_bytes_mut(&mut out);
        crecv_into(comm, rank - 1, tag, acc)?;
        // acc = prefix(0..rank-1) OP mine — order matters for
        // non-commutative user ops: previous prefix first.
        op.apply(&T::DATATYPE, acc, mine)?;
        out
    } else {
        sendbuf.to_vec()
    };
    if rank + 1 < size {
        csend(comm, rank + 1, tag, T::as_bytes(&out));
    }
    Ok(out)
}

/// `MPI_EXSCAN` (exclusive prefix): rank 0 gets `None`.
pub fn exscan<T: MpiPrimitive>(
    comm: &Communicator,
    sendbuf: &[T],
    op: &Op,
) -> MpiResult<Option<Vec<T>>> {
    ft_gate(comm)?;
    let _span = CollSpan::begin(comm, coll_op::SCAN);
    let size = comm.size();
    let rank = comm.rank();
    let tag = comm.next_coll_tag();
    let mine = T::as_bytes(sendbuf);
    // Receive the exclusive prefix straight into the buffer returned, then
    // forward prefix OP mine (rank 0 forwards its contribution as is).
    let prefix = if rank > 0 {
        let mut out = zeroed::<T>(sendbuf.len());
        crecv_into(comm, rank - 1, tag, T::as_bytes_mut(&mut out))?;
        Some(out)
    } else {
        None
    };
    if rank + 1 < size {
        match &prefix {
            Some(p) => {
                let mut fwd = p.clone();
                op.apply(&T::DATATYPE, T::as_bytes_mut(&mut fwd), mine)?;
                csend(comm, rank + 1, tag, T::as_bytes(&fwd));
            }
            None => csend(comm, rank + 1, tag, mine),
        }
    }
    Ok(prefix)
}

/// `MPI_REDUCE_SCATTER_BLOCK` (pairwise exchange): in step d each rank
/// sends its contribution to block `(rank+d) % P` and folds in the
/// contribution it receives for its own block — P−1 small messages, no
/// root bottleneck. Requires a commutative op (all predefined ops are).
pub fn reduce_scatter_block<T: MpiPrimitive>(
    comm: &Communicator,
    sendbuf: &[T],
    op: &Op,
) -> MpiResult<Vec<T>> {
    ft_gate(comm)?;
    let _span = CollSpan::begin(comm, coll_op::REDUCE_SCATTER);
    let size = comm.size();
    if !sendbuf.len().is_multiple_of(size) {
        return Err(MpiError::InvalidCount(sendbuf.len() as i64));
    }
    let block = sendbuf.len() / size;
    let rank = comm.rank();
    let tag = comm.next_coll_tag();
    let mut out = sendbuf[rank * block..(rank + 1) * block].to_vec();
    let acc = T::as_bytes_mut(&mut out);
    for d in 1..size {
        let to = (rank + d) % size;
        let from = (rank + size - d) % size;
        csend(
            comm,
            to,
            tag,
            T::as_bytes(&sendbuf[to * block..(to + 1) * block]),
        );
        crecv(comm, from, tag)?.read(&comm.proc, |data| op.apply(&T::DATATYPE, acc, data))?;
    }
    Ok(out)
}

/// Reference reduce-then-scatter implementation (kept for the algorithm-
/// equivalence tests and as the non-commutative-op fallback).
pub fn reduce_scatter_block_naive<T: MpiPrimitive>(
    comm: &Communicator,
    sendbuf: &[T],
    op: &Op,
) -> MpiResult<Vec<T>> {
    let size = comm.size();
    if !sendbuf.len().is_multiple_of(size) {
        return Err(MpiError::InvalidCount(sendbuf.len() as i64));
    }
    let block = sendbuf.len() / size;
    let reduced = reduce(comm, sendbuf, op, 0)?;
    scatter(comm, reduced.as_deref(), block, 0)
}

/// Fixed-size `i32` allgather used internally by `comm_split`. Fallible:
/// over a lossy fabric the exchange can observe a dead peer, and under
/// `MPI_ERRORS_RETURN` the caller must see that, not a panic.
///
/// Bounded-issue by construction: both [`allgather`] algorithms
/// (recursive doubling and ring) keep at most one send and one receive
/// outstanding per step, so this never posts O(ranks) requests — the
/// depth-pin test in `coll_window.rs` holds it to that.
pub(crate) fn allgather_plain(comm: &Communicator, mine: &[i32]) -> MpiResult<Vec<i32>> {
    allgather(comm, mine)
}

// --------------------------------------------------- Communicator methods

impl Communicator {
    /// `MPI_BARRIER`.
    pub fn barrier(&self) -> MpiResult<()> {
        barrier(self)
    }

    /// `MPI_BCAST`.
    pub fn bcast<T: MpiPrimitive>(&self, buf: &mut [T], root: usize) -> MpiResult<()> {
        bcast(self, buf, root)
    }

    /// `MPI_REDUCE`.
    pub fn reduce<T: MpiPrimitive>(
        &self,
        sendbuf: &[T],
        op: &Op,
        root: usize,
    ) -> MpiResult<Option<Vec<T>>> {
        reduce(self, sendbuf, op, root)
    }

    /// `MPI_ALLREDUCE`.
    pub fn allreduce<T: MpiPrimitive>(&self, sendbuf: &[T], op: &Op) -> MpiResult<Vec<T>> {
        allreduce(self, sendbuf, op)
    }

    /// `MPI_GATHER`.
    pub fn gather<T: MpiPrimitive>(&self, sendbuf: &[T], root: usize) -> MpiResult<Option<Vec<T>>> {
        gather(self, sendbuf, root)
    }

    /// `MPI_GATHERV`.
    pub fn gatherv<T: MpiPrimitive>(
        &self,
        sendbuf: &[T],
        root: usize,
    ) -> MpiResult<Option<(Vec<T>, Vec<usize>)>> {
        gatherv(self, sendbuf, root)
    }

    /// `MPI_SCATTER`.
    pub fn scatter<T: MpiPrimitive>(
        &self,
        sendbuf: Option<&[T]>,
        block: usize,
        root: usize,
    ) -> MpiResult<Vec<T>> {
        scatter(self, sendbuf, block, root)
    }

    /// `MPI_ALLGATHER`.
    pub fn allgather<T: MpiPrimitive>(&self, sendbuf: &[T]) -> MpiResult<Vec<T>> {
        allgather(self, sendbuf)
    }

    /// `MPI_ALLTOALL`.
    pub fn alltoall<T: MpiPrimitive>(&self, sendbuf: &[T], block: usize) -> MpiResult<Vec<T>> {
        alltoall(self, sendbuf, block)
    }

    /// `MPI_SCAN`.
    pub fn scan<T: MpiPrimitive>(&self, sendbuf: &[T], op: &Op) -> MpiResult<Vec<T>> {
        scan(self, sendbuf, op)
    }

    /// `MPI_EXSCAN`.
    pub fn exscan<T: MpiPrimitive>(&self, sendbuf: &[T], op: &Op) -> MpiResult<Option<Vec<T>>> {
        exscan(self, sendbuf, op)
    }

    /// `MPI_REDUCE_SCATTER_BLOCK`.
    pub fn reduce_scatter_block<T: MpiPrimitive>(
        &self,
        sendbuf: &[T],
        op: &Op,
    ) -> MpiResult<Vec<T>> {
        reduce_scatter_block(self, sendbuf, op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;

    #[test]
    fn scatter_root_without_buffer_is_an_error() {
        Universe::run_default(1, |proc| {
            let world = proc.world();
            let e = world.scatter::<u8>(None, 2, 0).unwrap_err();
            assert!(matches!(e, MpiError::BufferTooSmall { provided: 0, .. }));
        });
    }

    #[test]
    fn scatter_short_root_buffer_is_an_error() {
        Universe::run_default(1, |proc| {
            let world = proc.world();
            let e = world.scatter(Some(&[1u8][..]), 2, 0).unwrap_err();
            assert!(matches!(
                e,
                MpiError::BufferTooSmall {
                    needed: 2,
                    provided: 1
                }
            ));
        });
    }

    #[test]
    fn alltoall_missized_buffer_is_an_error() {
        // Validation fires before any traffic, so every rank errors locally.
        Universe::run_default(2, |proc| {
            let world = proc.world();
            let e = world.alltoall(&[1u8, 2, 3], 2).unwrap_err();
            assert!(matches!(
                e,
                MpiError::BufferTooSmall {
                    needed: 4,
                    provided: 3
                }
            ));
        });
    }

    #[test]
    fn reduce_scatter_indivisible_buffer_is_an_error() {
        Universe::run_default(3, |proc| {
            let world = proc.world();
            let e = world
                .reduce_scatter_block(&[1i64, 2], &Op::Sum)
                .unwrap_err();
            assert!(matches!(e, MpiError::InvalidCount(2)));
        });
    }

    #[test]
    fn barrier_completes_at_various_sizes() {
        for n in [1, 2, 3, 4, 5, 8] {
            Universe::run_default(n, |proc| {
                let world = proc.world();
                for _ in 0..3 {
                    world.barrier().unwrap();
                }
            });
        }
    }

    #[test]
    fn bcast_from_each_root() {
        for n in [2, 3, 4, 7] {
            for root in 0..n {
                let out = Universe::run_default(n, move |proc| {
                    let world = proc.world();
                    let mut buf = if proc.rank() == root {
                        [42u64, 7]
                    } else {
                        [0, 0]
                    };
                    world.bcast(&mut buf, root).unwrap();
                    buf
                });
                assert!(out.iter().all(|b| *b == [42, 7]), "n={n} root={root}");
            }
        }
    }

    #[test]
    fn reduce_sum_to_each_root() {
        for n in [2, 4, 5] {
            for root in 0..n {
                let out = Universe::run_default(n, move |proc| {
                    let world = proc.world();
                    let mine = [proc.rank() as i64, 1];
                    world.reduce(&mine, &Op::Sum, root).unwrap()
                });
                let expect: i64 = (0..n as i64).sum();
                for (r, o) in out.iter().enumerate() {
                    if r == root {
                        assert_eq!(o.as_ref().unwrap(), &vec![expect, n as i64]);
                    } else {
                        assert!(o.is_none());
                    }
                }
            }
        }
    }

    #[test]
    fn allreduce_matches_sequential_reference() {
        for n in [2, 3, 4, 8] {
            let out = Universe::run_default(n, |proc| {
                let world = proc.world();
                let mine = [proc.rank() as f64 + 1.0, (proc.rank() as f64) * 0.5];
                world.allreduce(&mine, &Op::Sum).unwrap()
            });
            let e0: f64 = (0..n).map(|r| r as f64 + 1.0).sum();
            let e1: f64 = (0..n).map(|r| r as f64 * 0.5).sum();
            for o in out {
                assert!(
                    (o[0] - e0).abs() < 1e-12 && (o[1] - e1).abs() < 1e-12,
                    "n={n}"
                );
            }
        }
    }

    #[test]
    fn allreduce_min_max() {
        let out = Universe::run_default(4, |proc| {
            let world = proc.world();
            let mine = [proc.rank() as i32];
            let mn = world.allreduce(&mine, &Op::Min).unwrap();
            let mx = world.allreduce(&mine, &Op::Max).unwrap();
            (mn[0], mx[0])
        });
        assert!(out.iter().all(|&(a, b)| a == 0 && b == 3));
    }

    #[test]
    fn gather_concatenates_in_rank_order() {
        let out = Universe::run_default(4, |proc| {
            let world = proc.world();
            let mine = [proc.rank() as u32, proc.rank() as u32 * 10];
            world.gather(&mine, 2).unwrap()
        });
        assert_eq!(out[2].as_ref().unwrap(), &vec![0, 0, 1, 10, 2, 20, 3, 30]);
        assert!(out[0].is_none());
    }

    #[test]
    fn gatherv_variable_sizes() {
        let out = Universe::run_default(3, |proc| {
            let world = proc.world();
            let mine: Vec<u16> = (0..=proc.rank() as u16).collect();
            world.gatherv(&mine, 0).unwrap()
        });
        let (data, counts) = out[0].as_ref().unwrap();
        assert_eq!(counts, &vec![1, 2, 3]);
        assert_eq!(data, &vec![0u16, 0, 1, 0, 1, 2]);
    }

    #[test]
    fn scatter_distributes_blocks() {
        let out = Universe::run_default(3, |proc| {
            let world = proc.world();
            let send: Option<Vec<i32>> = (proc.rank() == 1).then(|| (0..6).collect());
            world.scatter(send.as_deref(), 2, 1).unwrap()
        });
        assert_eq!(out, vec![vec![0, 1], vec![2, 3], vec![4, 5]]);
    }

    #[test]
    fn allgather_all_ranks_see_all_blocks() {
        for n in [2, 3, 5] {
            let out = Universe::run_default(n, |proc| {
                let world = proc.world();
                let mine = [proc.rank() as u64 * 100];
                world.allgather(&mine).unwrap()
            });
            let expect: Vec<u64> = (0..n as u64).map(|r| r * 100).collect();
            assert!(out.iter().all(|o| *o == expect), "n={n}");
        }
    }

    #[test]
    fn alltoall_transposes() {
        let n = 4;
        let out = Universe::run_default(n, |proc| {
            let world = proc.world();
            // Block j of rank i carries i*10 + j.
            let send: Vec<i32> = (0..n as i32).map(|j| proc.rank() as i32 * 10 + j).collect();
            world.alltoall(&send, 1).unwrap()
        });
        for (i, o) in out.iter().enumerate() {
            let expect: Vec<i32> = (0..n as i32).map(|j| j * 10 + i as i32).collect();
            assert_eq!(o, &expect, "rank {i}");
        }
    }

    #[test]
    fn scan_inclusive_prefix() {
        let out = Universe::run_default(4, |proc| {
            let world = proc.world();
            world.scan(&[proc.rank() as i64 + 1], &Op::Sum).unwrap()
        });
        assert_eq!(out, vec![vec![1], vec![3], vec![6], vec![10]]);
    }

    #[test]
    fn exscan_exclusive_prefix() {
        let out = Universe::run_default(4, |proc| {
            let world = proc.world();
            world.exscan(&[proc.rank() as i64 + 1], &Op::Sum).unwrap()
        });
        assert_eq!(out[0], None);
        assert_eq!(out[1].as_ref().unwrap(), &vec![1]);
        assert_eq!(out[3].as_ref().unwrap(), &vec![6]);
    }

    #[test]
    fn reduce_scatter_block_splits_reduction() {
        let n = 4;
        let out = Universe::run_default(n, |proc| {
            let world = proc.world();
            // Everyone contributes [r, r, r, r] → sum = [6, 6, 6, 6];
            // rank i gets element i.
            let send = vec![proc.rank() as i32; n];
            world.reduce_scatter_block(&send, &Op::Sum).unwrap()
        });
        assert_eq!(out, vec![vec![6]; 4]);
    }

    #[test]
    fn concurrent_collectives_on_dup_are_isolated() {
        // Two communicators with the same membership run collectives whose
        // internal traffic must not cross-match.
        let out = Universe::run_default(4, |proc| {
            let world = proc.world();
            let dup = world.dup();
            let a = world.allreduce(&[1i64], &Op::Sum).unwrap();
            let b = dup.allreduce(&[10i64], &Op::Sum).unwrap();
            (a[0], b[0])
        });
        assert!(out.iter().all(|&(a, b)| a == 4 && b == 40));
    }

    #[test]
    fn bcast_delivers_the_root_buffer_on_both_sides_of_the_selection() {
        // Per rank count: 4 u64s (tree) and 1024 u64s — 24 KiB total at
        // n = 3, the tree still; 32 KiB at 4 is not *above* the threshold;
        // 40 and 64 KiB at 5 and 8 take scatter + allgather.
        for n in [3, 4, 5, 8] {
            for root in [0, n - 1] {
                for per_rank in [4, 1024] {
                    let len = n * per_rank;
                    let want: Vec<u64> = (0..len as u64).map(|i| 7000 + i).collect();
                    let expect = want.clone();
                    let out = Universe::run_default(n, move |proc| {
                        let world = proc.world();
                        let mut buf = if proc.rank() == root {
                            want.clone()
                        } else {
                            vec![0; len]
                        };
                        world.bcast(&mut buf, root).unwrap();
                        buf
                    });
                    for got in out {
                        assert_eq!(got, expect, "n={n} root={root} len={len}");
                    }
                }
            }
        }
    }

    #[test]
    fn bcast_selects_long_algorithm_for_big_payloads() {
        // > 32 KiB and divisible by size → van de Geijn path; result must
        // still be correct.
        let n = 4;
        let out = Universe::run_default(n, |proc| {
            let world = proc.world();
            let len = 16 * 1024; // u64s → 128 KiB
            let mut buf = if proc.rank() == 2 {
                (0..len as u64).collect::<Vec<u64>>()
            } else {
                vec![0; len]
            };
            world.bcast(&mut buf, 2).unwrap();
            buf[len - 1]
        });
        assert!(out.iter().all(|&v| v == 16 * 1024 - 1));
    }

    #[test]
    fn allgather_is_rank_ordered_on_both_sides_of_the_selection() {
        // Power-of-two sizes take recursive doubling, the rest the ring.
        for n in [2, 3, 4, 6, 8] {
            let out = Universe::run_default(n, |proc| {
                let world = proc.world();
                let mine = [proc.rank() as u64 * 3 + 1, proc.rank() as u64];
                world.allgather(&mine).unwrap()
            });
            let expect: Vec<u64> = (0..n as u64).flat_map(|r| [r * 3 + 1, r]).collect();
            for got in out {
                assert_eq!(got, expect, "n={n}");
            }
        }
    }

    #[test]
    fn reduce_scatter_pairwise_matches_naive() {
        for n in [2, 3, 4, 5] {
            let out = Universe::run_default(n, |proc| {
                let world = proc.world();
                let send: Vec<i64> = (0..n as i64 * 2)
                    .map(|j| proc.rank() as i64 * 10 + j)
                    .collect();
                let pairwise = world.reduce_scatter_block(&send, &Op::Sum).unwrap();
                let naive = super::reduce_scatter_block_naive(&world, &send, &Op::Sum).unwrap();
                (pairwise, naive)
            });
            for (p, q) in out {
                assert_eq!(p, q, "n={n}");
            }
        }
    }

    #[test]
    fn issue_window_tracks_the_bandwidth_delay_product() {
        use litempi_fabric::{ProviderProfile, Topology};
        let window_on = |profile: ProviderProfile, msg_bytes: usize| -> usize {
            Universe::run(
                1,
                crate::config::BuildConfig::ch4_default(),
                profile,
                Topology::single_node(1),
                move |proc| issue_window(&proc.world(), msg_bytes),
            )[0]
        };
        // Zero-latency fabric: BDP degenerates, full window.
        assert_eq!(window_on(ProviderProfile::infinite(), 8), COLL_ISSUE_WINDOW);
        // Small messages on a network provider need many slots to cover
        // the BDP — clamped at the cap.
        assert_eq!(window_on(ProviderProfile::ofi(), 8), COLL_ISSUE_WINDOW);
        // A megabyte block alone covers any calibrated BDP: window 1.
        assert_eq!(window_on(ProviderProfile::ofi(), 1 << 20), 1);
        // In between, the window shrinks monotonically with block size.
        let mid = window_on(ProviderProfile::ofi(), 4096);
        assert!((1..=COLL_ISSUE_WINDOW).contains(&mid));
        assert!(mid <= window_on(ProviderProfile::ofi(), 512));
    }

    #[test]
    fn peeked_fanout_payload_is_never_recycled() {
        // Rank 0 fans ONE staged payload out to ranks 1..4. Rank 1 holds a
        // peek clone of its copy (what `iprobe` takes) across every lease
        // drop and a churn of same-class traffic: had any release recycled
        // the shared storage, the churn would have overwritten it.
        let data = [0xABu8; 200];
        Universe::run_default(4, move |proc| {
            let world = proc.world();
            let rank = world.rank();
            let tag = world.next_coll_tag();
            let mut peek = None;
            if rank == 0 {
                csend_all(&world, 1..4, tag, &data);
            } else {
                if rank == 1 {
                    let bits = match_bits::encode(world.context_id().collective(), 0, tag);
                    peek = Some(wait_loop(&world.proc, || world.proc.endpoint.tpeek(bits, 0)).data);
                }
                let got = crecv(&world, 0, tag).unwrap();
                got.read(&world.proc, |got| assert_eq!(got, data));
            }
            world.barrier().unwrap();
            for _ in 0..8 {
                world.allgather(&[rank as u8; 200]).unwrap();
            }
            if let Some(peek) = peek {
                assert_eq!(peek[1..], data, "peeked storage was reused");
            }
        });
    }

    #[test]
    fn large_payload_collectives_use_rendezvous() {
        // Bigger than the shm eager limit would be; on the infinite
        // provider max_eager is huge, so force smaller via OFI profile.
        use litempi_fabric::{ProviderProfile, Topology};
        let out = Universe::run(
            2,
            crate::config::BuildConfig::ch4_default(),
            ProviderProfile::ofi(),
            Topology::one_per_node(2),
            |proc| {
                let world = proc.world();
                let mut buf = if proc.rank() == 0 {
                    vec![7u8; 100_000]
                } else {
                    vec![0u8; 100_000]
                };
                world.bcast(&mut buf, 0).unwrap();
                buf.iter().all(|&b| b == 7)
            },
        );
        assert!(out.iter().all(|&ok| ok));
    }
}
