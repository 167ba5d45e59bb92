//! Persistent communication requests (`MPI_SEND_INIT` / `MPI_RECV_INIT` /
//! `MPI_START`).
//!
//! Persistent operations are the *standard-conforming* cousin of the
//! paper's §3 proposals: the argument validation, communicator-object
//! dereference, rank translation, and match-bit assembly happen **once**
//! at init time; each `start` pays only request re-arming and the netmod
//! issue. Comparing a persistent start (33 instructions on the optimized
//! build) with the classic path (59) and the fused `_ALL_OPTS` path (16)
//! quantifies how much of the §3 savings MPI-3.1 already offers to
//! applications with fixed communication patterns — and how much only a
//! standard change can unlock (the per-`start` request management and the
//! heavier generic netmod path remain).
//!
//! A started operation is an ordinary [`Request`]: a send keeps the one
//! `start` built (complete if the body went eager, else waiting for the
//! receiver's pull), a receive wraps its posted receive in one over the
//! bound buffer when it is waited on. Waiting is `Request::wait` — progress
//! first, then the poll that sees a dead peer or a revoked communicator.

use crate::comm::Communicator;
use crate::error::{MpiError, MpiResult};
use crate::match_bits;
use crate::process::{Posted, ProcInner};
use crate::pt2pt::{send_gates, send_tail, Entry, SendMode, SendTo};
use crate::request::{fatal_filter, RecvDest, Request};
use crate::status::Status;
use litempi_datatype::{Datatype, MpiPrimitive};
use litempi_instr::{charge, cost, Category};
use std::sync::Arc;

/// `MPI_WAIT` on a persistent request that was not started.
const INACTIVE: MpiError = MpiError::InvalidRequest("wait on inactive persistent request");

/// A persistent send (`MPI_SEND_INIT`). Borrows the user buffer for its
/// whole lifetime — re-`start`s always read the current buffer contents,
/// per the standard.
pub struct PersistentSend<'a> {
    proc: Arc<ProcInner>,
    buf: &'a [u8],
    ty: Datatype,
    count: usize,
    /// Where each start goes, bound at init (with the errhandler
    /// snapshot); `None` for `MPI_PROC_NULL`.
    to: Option<SendTo>,
    /// The started transfer; `None` while inactive.
    started: Option<Request<'static>>,
}

/// A persistent receive (`MPI_RECV_INIT`). Owns the buffer mutably for
/// its lifetime; [`PersistentRecv::wait`] deposits each message into it.
pub struct PersistentRecv<'a> {
    proc: Arc<ProcInner>,
    buf: &'a mut [u8],
    ty: Datatype,
    count: usize,
    proc_null: bool,
    /// The source's world rank; `None` for `MPI_ANY_SOURCE`.
    peer: Option<usize>,
    bits: u64,
    ignore: u64,
    /// Snapshot of `MPI_ERRORS_ARE_FATAL` at init.
    fatal: bool,
    /// Context id of the owning communicator, for revocation checks.
    ctx: u16,
    /// `Some` while started: the posted receive, or `None` for a start on
    /// `MPI_PROC_NULL`, which posts nothing.
    started: Option<Option<Posted>>,
}

impl Communicator {
    /// `MPI_SEND_INIT`: bind arguments once; transfer with
    /// [`PersistentSend::start`].
    pub fn send_init<'a, T: MpiPrimitive>(
        &self,
        data: &'a [T],
        dest: i32,
        tag: i32,
    ) -> MpiResult<PersistentSend<'a>> {
        let proc = &self.proc;
        // Init-time (one-time) costs: the removable MPI-layer overheads
        // plus the §3 mandatory ones that persistence hoists.
        if proc.config.error_checking {
            charge(Category::ErrorChecking, cost::isend::ERROR_CHECKING);
            match_bits::check_tag(tag)?;
            if dest != match_bits::PROC_NULL {
                self.group().check_rank(dest)?;
            }
        }
        charge(Category::ProcNullCheck, cost::isend::PROC_NULL_CHECK);
        charge(Category::ObjectDeref, cost::isend::OBJECT_DEREF);
        let dest_world = if dest == match_bits::PROC_NULL {
            None
        } else {
            charge(
                Category::CommRankTranslation,
                cost::isend::COMM_RANK_TRANSLATION,
            );
            Some(self.world_rank_of(dest as usize))
        };
        charge(Category::MatchBits, cost::isend::MATCH_BITS);
        let bits = match_bits::encode(self.context_id(), self.rank, tag.max(0));
        let to = dest_world.map(|dest_world| SendTo {
            dest_world,
            bits,
            ctx: self.context_id().0,
            fatal: self.errors_are_fatal(),
        });
        Ok(PersistentSend {
            proc: proc.clone(),
            buf: T::as_bytes(data),
            ty: T::DATATYPE,
            count: data.len(),
            to,
            started: None,
        })
    }

    /// `MPI_RECV_INIT`.
    pub fn recv_init<'a, T: MpiPrimitive>(
        &self,
        buf: &'a mut [T],
        source: i32,
        tag: i32,
    ) -> MpiResult<PersistentRecv<'a>> {
        let proc = &self.proc;
        if proc.config.error_checking {
            charge(Category::ErrorChecking, cost::isend::ERROR_CHECKING);
            match_bits::check_recv_tag(tag)?;
            if source != match_bits::PROC_NULL && source != match_bits::ANY_SOURCE {
                self.group().check_rank(source)?;
            }
        }
        charge(Category::ProcNullCheck, cost::isend::PROC_NULL_CHECK);
        charge(Category::ObjectDeref, cost::isend::OBJECT_DEREF);
        charge(
            Category::CommRankTranslation,
            cost::isend::COMM_RANK_TRANSLATION,
        );
        charge(Category::MatchBits, cost::isend::MATCH_BITS);
        let (bits, ignore) = match_bits::recv_bits(self.context_id(), source, tag);
        let count = buf.len();
        Ok(PersistentRecv {
            proc: proc.clone(),
            buf: T::as_bytes_mut(buf),
            ty: T::DATATYPE,
            count,
            proc_null: source == match_bits::PROC_NULL,
            peer: (source >= 0).then(|| self.world_rank_of(source as usize)),
            bits,
            ignore,
            fatal: self.errors_are_fatal(),
            ctx: self.context_id().0,
            started: None,
        })
    }
}

impl PersistentSend<'_> {
    /// `MPI_START`: issue one transfer of the *current* buffer contents.
    /// Errors if the previous start has not completed (`MPI_ERR_REQUEST`).
    pub fn start(&mut self) -> MpiResult<()> {
        if self.started.is_some() {
            return Err(MpiError::InvalidRequest("persistent start while active"));
        }
        let proc = &self.proc;
        proc.with_cs(cost::isend::THREAD_CHECK, || {
            if !proc.config.ipo {
                charge(Category::FunctionCall, cost::isend::FUNCTION_CALL);
            }
            if crate::pt2pt::redundant_checks_remain(&proc.config, true) {
                charge(Category::RedundantChecks, cost::isend::REDUNDANT_CHECKS);
            }
            // Per-start mandatory cost: re-arming the request. Everything
            // else was hoisted to init.
            charge(Category::RequestManagement, cost::isend::REQUEST_MANAGEMENT);
            let Some(to) = &self.to else {
                self.started = Some(Request::done(Status::send()));
                return Ok(());
            };
            send_gates(proc, to.ctx, to.dest_world, to.fatal)?;
            let (ty, mode) = (&self.ty, SendMode::Standard);
            let done = send_tail(proc, to, ty, self.count, self.buf, mode, Entry::Typed);
            self.started = Some(to.request(proc, done));
            Ok(())
        })
    }

    /// `MPI_WAIT` on the started operation; resets to inactive.
    pub fn wait(&mut self) -> MpiResult<Status> {
        self.started.take().ok_or(INACTIVE)?.wait()
    }

    /// `MPI_TEST`: drive progress once; `true` once the started operation
    /// has completed (after which [`PersistentSend::wait`] returns at
    /// once). An inactive request counts as complete.
    pub fn test(&mut self) -> MpiResult<bool> {
        match &mut self.started {
            Some(req) => Ok(req.test()?.is_some()),
            None => Ok(true),
        }
    }
}

impl PersistentRecv<'_> {
    /// `MPI_START`: post the receive.
    pub fn start(&mut self) -> MpiResult<()> {
        if self.started.is_some() {
            return Err(MpiError::InvalidRequest("persistent start while active"));
        }
        let proc = &self.proc;
        proc.with_cs(cost::isend::THREAD_CHECK, || {
            if !proc.config.ipo {
                charge(Category::FunctionCall, cost::isend::FUNCTION_CALL);
            }
            if crate::pt2pt::redundant_checks_remain(&proc.config, true) {
                charge(Category::RedundantChecks, cost::isend::REDUNDANT_CHECKS);
            }
            charge(Category::RequestManagement, cost::isend::REQUEST_MANAGEMENT);
            if self.proc_null {
                self.started = Some(None);
                return Ok(());
            }
            // ULFM gate (uncharged), as in `irecv_impl`: no receive posts
            // into a context no peer will send on again.
            fatal_filter(proc.first_failure(&[self.ctx], &[]), self.fatal)?;
            charge(Category::NetmodIssue, cost::isend::NETMOD_ISSUE);
            self.started = Some(Some(Posted::post(proc, self.bits, self.ignore)));
            Ok(())
        })
    }

    /// `MPI_WAIT`: complete into the bound buffer; resets to inactive.
    pub fn wait(&mut self) -> MpiResult<Status> {
        let Some(posted) = self.started.take().ok_or(INACTIVE)? else {
            return Ok(Status::proc_null());
        };
        let dest = RecvDest {
            buf: self.buf,
            ty: self.ty.clone(),
            count: self.count,
        };
        let (proc, peer) = (self.proc.clone(), self.peer);
        Request::recv(proc, posted, dest, peer, self.fatal, self.ctx).wait()
    }
}

impl std::fmt::Debug for PersistentSend<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistentSend")
            .field("bytes", &self.buf.len())
            .field("active", &self.started.is_some())
            .finish()
    }
}

impl std::fmt::Debug for PersistentRecv<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistentRecv")
            .field("bytes", &self.buf.len())
            .field("active", &self.started.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;

    #[test]
    fn persistent_roundtrip_many_starts() {
        Universe::run_default(2, |proc| {
            let world = proc.world();
            if proc.rank() == 0 {
                let mut data = [0u64; 2];
                let mut send = world.send_init(&data, 1, 5).unwrap();
                for round in 0..8u64 {
                    // MPI semantics: start() reads the *current* buffer.
                    // (Interior mutability isn't modeled; rebuild instead.)
                    drop(send);
                    data = [round, round * 10];
                    send = world.send_init(&data, 1, 5).unwrap();
                    send.start().unwrap();
                    send.wait().unwrap();
                }
            } else {
                let mut buf = [0u64; 2];
                let mut recv = world.recv_init(&mut buf, 0, 5).unwrap();
                for _ in 0..8 {
                    recv.start().unwrap();
                    let st = recv.wait().unwrap();
                    assert_eq!(st.source, 0);
                }
                drop(recv);
                assert_eq!(buf, [7, 70]);
            }
        });
    }

    #[test]
    fn double_start_is_error() {
        Universe::run_default(2, |proc| {
            let world = proc.world();
            if proc.rank() == 0 {
                let big = vec![1u8; 1];
                let mut send = world.send_init(&big, 1, 0).unwrap();
                send.start().unwrap();
                // Eager send completes immediately, so re-start after wait
                // is fine, but double-start without wait is an error.
                let e = send.start().unwrap_err();
                assert!(matches!(e, MpiError::InvalidRequest(_)));
                send.wait().unwrap();
                world.barrier().unwrap();
            } else {
                let mut b = [0u8; 1];
                world.recv_into(&mut b, 0, 0).unwrap();
                world.barrier().unwrap();
            }
        });
    }

    #[test]
    fn wait_without_start_is_error() {
        Universe::run_default(1, |proc| {
            let world = proc.world();
            let data = [1u8];
            let mut send = world.send_init(&data, 0, 0).unwrap();
            // dest 0 == self; still inactive until started.
            let e = send.wait().unwrap_err();
            assert!(matches!(e, MpiError::InvalidRequest(_)));
        });
    }

    #[test]
    fn persistent_to_proc_null() {
        Universe::run_default(1, |proc| {
            let world = proc.world();
            let data = [9u8];
            let mut send = world
                .send_init(&data, crate::match_bits::PROC_NULL, 0)
                .unwrap();
            send.start().unwrap();
            send.wait().unwrap();
            let mut buf = [0u8; 1];
            let mut recv = world
                .recv_init(&mut buf, crate::match_bits::PROC_NULL, 0)
                .unwrap();
            recv.start().unwrap();
            let st = recv.wait().unwrap();
            assert_eq!(st.source, crate::match_bits::PROC_NULL);
        });
    }

    #[test]
    fn persistent_rendezvous_payload() {
        use litempi_fabric::{ProviderProfile, Topology};
        Universe::run(
            2,
            crate::config::BuildConfig::ch4_default(),
            ProviderProfile::ofi(), // 16 KiB eager cap → rendezvous
            Topology::one_per_node(2),
            |proc| {
                let world = proc.world();
                if proc.rank() == 0 {
                    let big = vec![0xCDu8; 64 * 1024];
                    let mut send = world.send_init(&big, 1, 1).unwrap();
                    for _ in 0..3 {
                        send.start().unwrap();
                        while !send.test().unwrap() {}
                        send.wait().unwrap();
                    }
                } else {
                    let mut buf = vec![0u8; 64 * 1024];
                    let mut recv = world.recv_init(&mut buf, 0, 1).unwrap();
                    for _ in 0..3 {
                        recv.start().unwrap();
                        let st = recv.wait().unwrap();
                        assert_eq!(st.bytes, 64 * 1024);
                    }
                    drop(recv);
                    assert!(buf.iter().all(|&b| b == 0xCD));
                }
            },
        );
    }
}
