//! Requests — MPI's per-operation completion objects (paper §3.5).
//!
//! A [`Request`] borrows the receive buffer it will fill, so Rust's borrow
//! checker statically enforces the MPI rule that a buffer handed to
//! `MPI_IRECV` must not be touched until the request completes. Send
//! requests own no buffer (the data was captured at injection).
//!
//! Blocking completion runs a progress loop: poll the completion source,
//! drive the process's active-message progress engine, yield or sleep.
//! Every blocking call in the library is a [`Request`] wait or a
//! [`wait_for`], so that AM-fallback traffic (and the CH3-like baseline's
//! RMA emulation) always makes progress no matter where a rank blocks, a
//! dead peer or a revoked communicator ends the wait, and the wait sleeps
//! until an event: whatever completes it raises one on this rank's
//! endpoint. A polling call that answers "not yet" ([`Request::test`],
//! [`testall`], [`testany`]) lets another rank sharing this rank's thread
//! run ([`not_yet`]), so a user's `while !req.test()? {}` completes when
//! every rank runs on one thread.

use crate::error::{MpiError, MpiResult};
use crate::match_bits;
use crate::process::{Posted, ProcInner};
use crate::proto;
use crate::status::Status;
use crate::universe::Storage;
use litempi_datatype::{pack, Datatype};
use litempi_fabric::TaggedMessage;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Block until `poll` yields, driving this rank's progress engine between
/// polls: the one wait of the library. How long to spin and when to sleep
/// is the fabric's one blocking policy
/// ([`Endpoint::wait_until`](litempi_fabric::Endpoint::wait_until)): on a
/// real machine the MPICH progress-wait loop with its spin-then-yield
/// replaced by spin-then-park. A wait a dead peer or a revocation can
/// strand polls through [`poll_or_death`] or [`poll_or_failure`], which
/// name the peers it depends on; every change `poll` can see raises an
/// event on this rank's endpoint.
#[track_caller]
pub(crate) fn wait_for<T>(proc: &ProcInner, poll: impl FnMut() -> Option<T>) -> T {
    proc.endpoint.wait_until(
        || {
            proc.progress();
        },
        poll,
    )
}

/// A polling call is about to answer "not yet": hand the thread to another
/// rank that shares it, if any (see [`litempi_fabric::task::pause`]).
/// Internal sweeps poll and never yield.
pub(crate) fn not_yet() {
    litempi_fabric::task::pause(true);
}

/// Where a receive lands: the user buffer and how to interpret it.
pub(crate) struct RecvDest<'buf> {
    pub buf: &'buf mut [u8],
    pub ty: Datatype,
    pub count: usize,
}

impl RecvDest<'_> {
    /// Deliver wire bytes into the user buffer, honoring the datatype
    /// layout. Returns the delivered byte count.
    pub(crate) fn deliver(&mut self, wire: &[u8]) -> MpiResult<usize> {
        let capacity = pack::packed_size(&self.ty, self.count);
        if wire.len() > capacity {
            return Err(MpiError::Truncate {
                message: wire.len(),
                buffer: capacity,
            });
        }
        if self.ty.is_contiguous() {
            self.buf[..wire.len()].copy_from_slice(wire);
        } else {
            let elem = self.ty.size();
            if elem == 0 || !wire.len().is_multiple_of(elem) {
                return Err(MpiError::InvalidCount(wire.len() as i64));
            }
            pack::unpack(&self.ty, wire.len() / elem, wire, self.buf);
        }
        Ok(wire.len())
    }
}

/// Resolve a matched message (eager or rendezvous) into the destination
/// buffer, producing the receive status.
pub(crate) fn complete_recv(
    proc: &ProcInner,
    msg: TaggedMessage,
    dest: &mut RecvDest<'_>,
) -> MpiResult<Status> {
    use litempi_instr::{charge, cost, Category};
    let (bits, src) = (msg.match_bits, msg.src);
    let opened = proto::open(proc, msg)?;
    // The receiver's half of a rendezvous, by where the body waits: one
    // RDMA read whatever the size, or the pull protocol — one request and
    // one deliver step per eager-sized bounce chunk, through the progress
    // engine.
    match opened.body.rndv().map(|entry| &entry.storage) {
        None => {}
        Some(Storage::Region(_)) => charge(Category::Rma, cost::rma::RNDV_GET),
        Some(Storage::Pooled(_)) => charge(
            Category::Progress,
            2 * cost::progress::rndv_chunks(opened.len()) * cost::progress::RNDV_STEP,
        ),
    }
    let bytes = opened.read(proc, |wire| dest.deliver(wire))?;
    let source = if match_bits::is_nomatch(bits) {
        // No source bits on the nomatch channel; report the physical
        // sender's world rank (documented extension semantics).
        src.index() as i32
    } else {
        match_bits::decode_src(bits) as i32
    };
    let tag = if match_bits::is_nomatch(bits) {
        0
    } else {
        match_bits::decode_tag(bits)
    };
    Ok(Status { source, tag, bytes })
}

enum ReqInner<'buf> {
    /// Completed at creation (eager send, PROC_NULL, immediate match).
    Done(Status),
    /// Rendezvous send waiting for the receiver's pull.
    SendRndv {
        proc: Arc<ProcInner>,
        done: Arc<AtomicBool>,
        /// World rank of the peer, for dead-peer detection.
        peer: Option<usize>,
        /// Snapshot of `MPI_ERRORS_ARE_FATAL` at request creation.
        fatal: bool,
        /// Context id of the owning communicator, for revocation checks.
        ctx: u16,
    },
    /// A posted receive.
    Recv {
        proc: Arc<ProcInner>,
        posted: Posted,
        dest: RecvDest<'buf>,
        /// `None` for wildcard (`MPI_ANY_SOURCE`) receives.
        peer: Option<usize>,
        fatal: bool,
        /// Context id of the owning communicator, for revocation checks.
        ctx: u16,
    },
    /// Nonblocking-collective schedule (see [`crate::sched`]); each poll
    /// drives the schedule's phase engine until every vertex retires.
    Coll {
        proc: Arc<ProcInner>,
        sched: Arc<crate::sched::SchedShared>,
        fatal: bool,
    },
    /// A one-sided op waiting for its target's active-message answer: the
    /// one place such an answer is awaited, by the request forms (`rput`,
    /// `rget`, `raccumulate`, `rget_accumulate`) and, never fatal, by the
    /// blocking `get`, `get_accumulate` and `fetch_and_op` on the
    /// AM fallback. A dead target is `ProcessFailed`, a revoked window
    /// (its duplicate communicator or the parent) `Revoked` — what the
    /// window's own liveness check says; this rank's own death is
    /// `PeerUnreachable`, as for every request. The entry in
    /// `pending_replies` is deliberately *not* removed when the request
    /// errors: a reply that raced past a peer-death verdict must find its
    /// slot (the AM handler treats an unknown op id as a protocol bug).
    Rma {
        proc: Arc<ProcInner>,
        slot: crate::process::ReplySlot,
        /// `Some` for fetching ops: where the reply payload lands. `None`
        /// for an acknowledged put or accumulate, whose reply is discarded.
        dest: Option<RecvDest<'buf>>,
        /// World rank of the target.
        peer: usize,
        fatal: bool,
        /// Context ids of the window's communicator and of its parent.
        ctxs: [u16; 2],
    },
    /// Consumed (waited, cancelled, or errored); kept so `test` can be
    /// called on a completed request without double-delivery.
    Consumed,
}

/// One poll of a completion a peer's death can strand: the completion if
/// it is there, else the first failure ([`ProcInner::first_failure`]): a
/// revoked communicator (`revoke_ctx` names its context; `None` exempts
/// FT-internal traffic) is `Revoked`, an unreachable peer
/// `PeerUnreachable`, so wait/test return instead of hanging. This rank's
/// own world rank is asked about first: when its own kill switch has
/// fired, its pending operations fail too. A real dead process is simply
/// gone; the in-process harness simulates that by erroring the victim's
/// blocking calls so the rank can unwind instead of waiting on peers that
/// have (correctly) stopped talking to a corpse.
pub(crate) fn poll_or_death<M>(
    proc: &ProcInner,
    peer: Option<usize>,
    revoke_ctx: Option<u16>,
    poll: impl FnMut() -> Option<M>,
) -> Option<MpiResult<M>> {
    // A wildcard receive watches no peer but this rank.
    let peers = [proc.rank, peer.unwrap_or(proc.rank)];
    let alive = || proc.first_failure(revoke_ctx.as_slice(), &peers);
    poll_or_failure(proc, alive, poll)
}

/// [`poll_or_death`] with the liveness check given: the completion if it
/// is there, else the failure `alive` reports, if any — after one more
/// look, because the two race. The message that trips a kill switch is
/// still delivered, and a rank that polled just before it landed and
/// checked liveness just after would otherwise fail a receive whose
/// message sits in its slot. The failure is returned: the caller applies
/// its errhandler ([`fatal_filter`]).
pub(crate) fn poll_or_failure<M>(
    proc: &ProcInner,
    alive: impl FnOnce() -> MpiResult<()>,
    mut poll: impl FnMut() -> Option<M>,
) -> Option<MpiResult<M>> {
    if let Some(m) = poll() {
        return Some(Ok(m));
    }
    let death = alive().err()?;
    // On the AM-only provider the message may still sit in the AM queue.
    proc.progress();
    if let Some(m) = poll() {
        return Some(Ok(m));
    }
    Some(Err(death))
}

/// The errhandler rule, and the one place it is written: under
/// `MPI_ERRORS_ARE_FATAL` (`fatal`, a snapshot or the handler now) a
/// communication failure — a dead peer, a revoked communicator, an
/// integrity fault in the delivered envelope — aborts the rank;
/// argument-level errors such as truncation always return, as does
/// everything under `MPI_ERRORS_RETURN`.
pub(crate) fn fatal_filter<T>(r: MpiResult<T>, fatal: bool) -> MpiResult<T> {
    if let Err(e) = &r {
        if fatal && e.is_comm_failure() {
            panic!("MPI_ERRORS_ARE_FATAL: {e}");
        }
    }
    r
}

/// Settle a posted receive whose [`poll_or_death`] came back: deliver the
/// message into `dest`, or — the peer died or the communicator was revoked
/// — withdraw the receive and pass the error on.
fn finish_recv(
    proc: &ProcInner,
    posted: &Posted,
    polled: MpiResult<TaggedMessage>,
    dest: &mut RecvDest<'_>,
) -> MpiResult<Status> {
    match polled {
        Ok(msg) => complete_recv(proc, msg, dest),
        Err(e) => {
            posted.cancel(proc);
            Err(e)
        }
    }
}

/// A nonblocking-operation handle.
pub struct Request<'buf> {
    inner: ReqInner<'buf>,
}

impl<'buf> Request<'buf> {
    pub(crate) fn done(status: Status) -> Request<'static> {
        Request {
            inner: ReqInner::Done(status),
        }
    }

    pub(crate) fn send_rndv(
        proc: Arc<ProcInner>,
        done: Arc<AtomicBool>,
        peer: Option<usize>,
        fatal: bool,
        ctx: u16,
    ) -> Request<'static> {
        Request {
            inner: ReqInner::SendRndv {
                proc,
                done,
                peer,
                fatal,
                ctx,
            },
        }
    }

    pub(crate) fn recv(
        proc: Arc<ProcInner>,
        posted: Posted,
        dest: RecvDest<'buf>,
        peer: Option<usize>,
        fatal: bool,
        ctx: u16,
    ) -> Request<'buf> {
        Request {
            inner: ReqInner::Recv {
                proc,
                posted,
                dest,
                peer,
                fatal,
                ctx,
            },
        }
    }

    pub(crate) fn coll(
        proc: Arc<ProcInner>,
        sched: Arc<crate::sched::SchedShared>,
        fatal: bool,
    ) -> Request<'static> {
        Request {
            inner: ReqInner::Coll { proc, sched, fatal },
        }
    }

    pub(crate) fn rma(
        proc: Arc<ProcInner>,
        slot: crate::process::ReplySlot,
        dest: Option<RecvDest<'buf>>,
        peer: usize,
        fatal: bool,
        ctxs: [u16; 2],
    ) -> Request<'buf> {
        Request {
            inner: ReqInner::Rma {
                proc,
                slot,
                dest,
                peer,
                fatal,
                ctxs,
            },
        }
    }

    /// One look at the operation: `None` while it is pending, else its
    /// outcome, which also settles the request — a completed one stays
    /// `Done` (later `wait`/`test` calls return the same status), an
    /// errored one stays `Consumed` (drained, per FT semantics) once the
    /// errhandler snapshot has had its say ([`fatal_filter`]). Each
    /// variant checks completion first, then peer liveness, so a message
    /// that raced ahead of the death notice still lands.
    fn poll(&mut self) -> Option<MpiResult<Status>> {
        let outcome = match &mut self.inner {
            ReqInner::Done(s) => return Some(Ok(*s)),
            ReqInner::Consumed => {
                return Some(Err(MpiError::InvalidRequest("request already consumed")))
            }
            ReqInner::SendRndv {
                proc,
                done,
                peer,
                ctx,
                ..
            } => poll_or_death(proc, *peer, Some(*ctx), || {
                done.load(Ordering::Acquire).then_some(())
            })?
            .map(|()| Status::send()),
            ReqInner::Recv {
                proc,
                posted,
                dest,
                peer,
                ctx,
                ..
            } => {
                let polled = poll_or_death(proc, *peer, Some(*ctx), || posted.poll())?;
                finish_recv(proc, posted, polled, dest)
            }
            // A failed schedule has latched the error and cancelled its
            // receives.
            ReqInner::Coll { proc, sched, .. } => sched.progress(proc).transpose()?,
            // On an error the reply slot stays registered (see the variant
            // doc): a racing reply is absorbed, never a protocol fault.
            ReqInner::Rma {
                proc,
                slot,
                dest,
                peer,
                ctxs,
                ..
            } => {
                let alive = || {
                    proc.first_failure(&[], &[proc.rank])?;
                    crate::rma::target_alive(proc, ctxs, *peer)
                };
                let reply = poll_or_failure(proc, alive, || slot.lock().take())?;
                reply.and_then(|data| {
                    proc.endpoint.note_win_ops_completed(1);
                    // Fetching ops deliver the reply into the caller's
                    // buffer; acknowledged stores complete like a send.
                    let Some(dest) = dest else {
                        return Ok(Status::send());
                    };
                    dest.deliver(&data).map(|bytes| Status {
                        source: *peer as i32,
                        tag: 0,
                        bytes,
                    })
                })
            }
        };
        let outcome = fatal_filter(outcome, self.fatal());
        self.inner = match outcome {
            Ok(s) => ReqInner::Done(s),
            Err(_) => ReqInner::Consumed,
        };
        Some(outcome)
    }

    /// `MPI_WAIT`: block until the operation completes. Waiting on a
    /// pending operation drives progress before the first look, found
    /// complete or not: a rank whose messages have always arrived by the
    /// time it waits would otherwise never run its retransmit timers or
    /// answer an active message (`p2p_lossy` reads +26 % without it).
    #[track_caller]
    pub fn wait(mut self) -> MpiResult<Status> {
        if let Some(status) = self.look()? {
            return Ok(status);
        }
        let proc = self
            .proc()
            .expect("a pending request has a process")
            .clone();
        wait_for(&proc, || self.poll())
    }

    /// `MPI_TEST`: nonblocking completion check. On completion the request
    /// transitions to `Done` and subsequent `wait`/`test` return the same
    /// status.
    pub fn test(&mut self) -> MpiResult<Option<Status>> {
        let got = self.look()?;
        if got.is_none() {
            not_yet();
        }
        Ok(got)
    }

    /// [`Request::test`] without yielding: drive progress once, then poll.
    fn look(&mut self) -> MpiResult<Option<Status>> {
        if let Some(proc) = self.proc() {
            proc.progress();
        }
        self.poll().transpose()
    }

    /// `MPI_CANCEL` (receives only): `true` if cancelled before matching.
    pub fn cancel(self) -> bool {
        match self.inner {
            ReqInner::Recv { proc, posted, .. } => posted.cancel(&proc),
            _ => false,
        }
    }

    /// Has the request already completed (without driving progress)?
    pub fn is_done(&self) -> bool {
        matches!(self.inner, ReqInner::Done(_))
    }

    /// The `MPI_ERRORS_ARE_FATAL` snapshot a pending request took at
    /// creation. It lives in each variant, where it fits in padding: a
    /// field on `Request` would add 8 bytes to every request the send
    /// path returns.
    fn fatal(&self) -> bool {
        match self.inner {
            ReqInner::SendRndv { fatal, .. }
            | ReqInner::Recv { fatal, .. }
            | ReqInner::Coll { fatal, .. }
            | ReqInner::Rma { fatal, .. } => fatal,
            ReqInner::Done(_) | ReqInner::Consumed => false,
        }
    }

    /// The process a pending request belongs to (None once settled) — lets
    /// multi-request wait loops park on that rank's endpoint.
    fn proc(&self) -> Option<&Arc<ProcInner>> {
        match &self.inner {
            ReqInner::SendRndv { proc, .. }
            | ReqInner::Recv { proc, .. }
            | ReqInner::Coll { proc, .. }
            | ReqInner::Rma { proc, .. } => Some(proc),
            ReqInner::Done(_) | ReqInner::Consumed => None,
        }
    }
}

/// Drive this rank's progress engine once for a completion call over
/// `reqs`, the way [`Request::wait`] does for one request: before the first
/// look, found complete or not. The requests of one call belong to one
/// rank, so the first pending one names it; a call over settled requests
/// only has none to drive.
fn progress_once(reqs: &[Request<'_>]) {
    if let Some(proc) = reqs.iter().find_map(Request::proc) {
        proc.progress();
    }
}

/// Drive a multi-request wait loop (`waitany`/`waitsome`): `sweep` looks at
/// the requests and returns `Some` once it has a completion to report. The
/// first sweep follows one progress pass; fruitless sweeps are [`wait_for`]
/// polls on the endpoint of the first pending request, whose events are
/// the ones that wake the loop.
fn sweep_until<'b, T>(
    reqs: &mut Vec<Request<'b>>,
    mut sweep: impl FnMut(&mut Vec<Request<'b>>) -> MpiResult<Option<T>>,
) -> MpiResult<T> {
    progress_once(reqs);
    if let Some(v) = sweep(reqs)? {
        return Ok(v);
    }
    // A settled request would have been reported (or have failed the
    // sweep), so one of them is still pending.
    let proc = (reqs.iter().find_map(Request::proc))
        .expect("a fruitless sweep leaves a pending request")
        .clone();
    wait_for(&proc, || sweep(reqs).transpose())
}

impl std::fmt::Debug for Request<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = match &self.inner {
            ReqInner::Done(_) => "done",
            ReqInner::SendRndv { .. } => "send-rndv",
            ReqInner::Recv { .. } => "recv",
            ReqInner::Coll { .. } => "coll",
            ReqInner::Rma { .. } => "rma",
            ReqInner::Consumed => "consumed",
        };
        write!(f, "Request({state})")
    }
}

/// `MPI_WAITALL`: complete every request, in order, collecting statuses.
/// One progress pass precedes the first look, as in [`Request::wait`];
/// a request found pending then waits like [`Request::wait`] past its
/// first look.
pub fn waitall(reqs: Vec<Request<'_>>) -> MpiResult<Vec<Status>> {
    progress_once(&reqs);
    reqs.into_iter()
        .map(|mut r| match r.poll() {
            Some(outcome) => outcome,
            None => {
                let proc = r.proc().expect("a pending request has a process").clone();
                wait_for(&proc, || r.poll())
            }
        })
        .collect()
}

/// `MPI_WAITANY`: complete one request; returns (index, status, rest).
/// The remaining requests are returned so callers can keep waiting.
/// An empty list is `MPI_ERR_COUNT`: nothing could ever complete.
pub fn waitany<'b>(mut reqs: Vec<Request<'b>>) -> MpiResult<(usize, Status, Vec<Request<'b>>)> {
    if reqs.is_empty() {
        return Err(MpiError::InvalidCount(0));
    }
    let (i, s) = sweep_until(&mut reqs, |reqs| Ok(sweep_complete(reqs, true)?.pop()))?;
    Ok((i, s, reqs))
}

/// `MPI_TESTALL`: `Some(statuses)` iff *every* request is complete;
/// otherwise `None` with all requests untouched (partially completed ones
/// cache their status internally, per MPI semantics).
pub fn testall(reqs: &mut [Request<'_>]) -> MpiResult<Option<Vec<Status>>> {
    progress_once(reqs);
    let mut statuses = Vec::with_capacity(reqs.len());
    for r in reqs.iter_mut() {
        match r.poll().transpose()? {
            Some(s) => statuses.push(s),
            None => {
                not_yet();
                return Ok(None);
            }
        }
    }
    Ok(Some(statuses))
}

/// One deflating completion sweep shared by `testany`, `waitany` and
/// `waitsome`: look at each request in place (the caller drives progress),
/// remove the complete ones, and report each as
/// `(index, status)` where the index is the position the request held in
/// `reqs` *at the start of this call* (MPI's array-position semantics).
/// After a sweep that removed requests, the survivors shift down, so a
/// subsequent call indexes into the deflated vector. With
/// `stop_after_first` the sweep returns at the first completion (TESTANY).
fn sweep_complete(
    reqs: &mut Vec<Request<'_>>,
    stop_after_first: bool,
) -> MpiResult<Vec<(usize, Status)>> {
    let mut done = Vec::new();
    let mut i = 0;
    let mut original = 0;
    while i < reqs.len() {
        if let Some(s) = reqs[i].poll().transpose()? {
            reqs.remove(i);
            done.push((original, s));
            if stop_after_first {
                break;
            }
        } else {
            i += 1;
        }
        original += 1;
    }
    Ok(done)
}

/// `MPI_TESTANY`: `Some((index, status))` for the first complete request
/// found, removing it from the vector; `None` if none are ready (or the
/// list is empty). The index refers to the request's position in `reqs`
/// as passed to *this* call — the same original-index semantics as
/// [`waitsome`] — so across repeated deflating calls it indexes the
/// already-deflated vector.
pub fn testany(reqs: &mut Vec<Request<'_>>) -> MpiResult<Option<(usize, Status)>> {
    progress_once(reqs);
    let got = sweep_complete(reqs, true)?.pop();
    if got.is_none() {
        not_yet();
    }
    Ok(got)
}

/// `MPI_WAITSOME`: block until at least one request completes, then return
/// every currently-complete request's (original index, status) — indices
/// are positions in `reqs` as passed to this call. The incomplete
/// remainder stays in `reqs` (with positions shifted, as with
/// `MPI_WAITSOME`'s deflation in C). An empty list completes immediately
/// with no statuses, per MPI (`MPI_WAITSOME` with `incount = 0`).
pub fn waitsome(reqs: &mut Vec<Request<'_>>) -> MpiResult<Vec<(usize, Status)>> {
    if reqs.is_empty() {
        return Ok(Vec::new());
    }
    sweep_until(reqs, |reqs| {
        let done = sweep_complete(reqs, false)?;
        Ok((!done.is_empty()).then_some(done))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn done_request_wait_and_test() {
        let s = Status {
            source: 1,
            tag: 2,
            bytes: 3,
        };
        let mut r = Request::done(s);
        assert!(r.is_done());
        assert_eq!(r.test().unwrap(), Some(s));
        assert_eq!(r.wait().unwrap(), s);
    }

    #[test]
    fn a_completion_that_raced_the_death_notice_wins() {
        use crate::comm::Errhandler;
        use crate::config::BuildConfig;
        use crate::universe::Universe;
        use litempi_fabric::{FaultPlan, ProviderProfile, Topology};
        // Rank 1's only packet trips its kill switch. Rank 0 waits until it
        // sees the death — the message is in by then — and polls a source
        // that comes up empty on the first look, as a receive slot does
        // when the delivery lands between the poll and the liveness check.
        let profile = ProviderProfile::infinite().with_faults(FaultPlan::none().with_kill(1, 1));
        Universe::run(
            2,
            BuildConfig::ch4_default(),
            profile,
            Topology::single_node(2),
            |proc| {
                let world = proc.world();
                if proc.rank() == 1 {
                    world.send(&[9u8], 0, 0).unwrap();
                    return;
                }
                let p = &world.proc;
                let ctx = world.context_id().0;
                while !p.endpoint.peer_unreachable(p.addr_of_world(1)) {
                    // Rank 1 may share this thread: let it run.
                    if !litempi_fabric::task::pause(true) {
                        std::thread::yield_now();
                    }
                }
                let mut looks = 0;
                let got = poll_or_death(p, Some(1), Some(ctx), || {
                    looks += 1;
                    (looks == 2).then_some(looks)
                });
                assert!(matches!(got, Some(Ok(2))), "{got:?}");
                // The message the victim got out before it died is received.
                world.set_errhandler(Errhandler::ErrorsReturn);
                let mut buf = [0u8; 1];
                world.recv_into(&mut buf, 1, 0).unwrap();
                assert_eq!(buf, [9]);
                // With nothing to take, the death is the answer.
                let got = poll_or_death(p, Some(1), Some(ctx), || None::<()>);
                assert!(matches!(
                    got,
                    Some(Err(MpiError::PeerUnreachable { peer: 1 }))
                ));
            },
        );
    }

    #[test]
    fn recv_dest_contiguous_delivery() {
        let mut buf = [0u8; 8];
        let mut dest = RecvDest {
            buf: &mut buf,
            ty: Datatype::BYTE,
            count: 8,
        };
        let n = dest.deliver(&[1, 2, 3]).unwrap();
        assert_eq!(n, 3);
        assert_eq!(&buf[..3], &[1, 2, 3]);
    }

    #[test]
    fn recv_dest_truncation_detected() {
        let mut buf = [0u8; 2];
        let mut dest = RecvDest {
            buf: &mut buf,
            ty: Datatype::BYTE,
            count: 2,
        };
        let e = dest.deliver(&[1, 2, 3]).unwrap_err();
        assert!(matches!(
            e,
            MpiError::Truncate {
                message: 3,
                buffer: 2
            }
        ));
    }

    #[test]
    fn recv_dest_noncontiguous_unpack() {
        let ty = Datatype::vector(2, 1, 2, &Datatype::BYTE).unwrap().commit();
        let mut buf = [0xFFu8; 4];
        let mut dest = RecvDest {
            buf: &mut buf,
            ty,
            count: 1,
        };
        dest.deliver(&[7, 9]).unwrap();
        assert_eq!(buf, [7, 0xFF, 9, 0xFF]);
    }
}
