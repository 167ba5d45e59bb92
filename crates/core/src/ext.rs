//! Proposed MPI-standard extensions (paper §3).
//!
//! Each routine here implements one of the paper's proposals and skips
//! exactly the mandatory overhead that proposal eliminates (see the
//! instruction-savings quotes in `litempi_instr::cost`):
//!
//! | Routine                         | Proposal | Skips                         |
//! |---------------------------------|----------|-------------------------------|
//! | [`Communicator::isend_global`]  | §3.1     | communicator-rank translation |
//! | [`Window::put_virtual_addr`]    | §3.2     | offset → address translation  |
//! | [`Communicator::dup_predefined`]| §3.3     | dynamic-object dereference    |
//! | [`Communicator::isend_npn`]     | §3.4     | `MPI_PROC_NULL` branch        |
//! | [`Communicator::isend_noreq`]   | §3.5     | request allocation            |
//! | [`Communicator::isend_nomatch`] | §3.6     | source/tag match bits         |
//! | [`Communicator::isend_all_opts`]| §3.7     | all of the above, fused       |
//!
//! The send routines are thin entry points over the one send body in
//! `pt2pt.rs`: each is one [`Communicator::isend_typed`] call whose
//! [`SendOptions`] set its proposal's flag. `isend_all_opts` is the preset
//! with all four set on the fused entry kind, which also drops the
//! communicator-object dereference and takes the lean netmod residue.
//! `irecv_global` is a rank translation followed by the ordinary typed
//! receive.

use crate::comm::Communicator;
use crate::error::{MpiError, MpiResult};
use crate::pt2pt::{CallOpts, SendMode};
use crate::request::Request;
use crate::rma::{Blocking, Call, VirtAddr, Window};
use crate::status::Status;
use litempi_datatype::MpiPrimitive;

/// A public, composable selection of the §3 proposals for one send —
/// the building block of Fig 6's cumulative ladder (each bar enables one
/// more proposal), and the one place the four flags are declared. The
/// fully fused §3.7 path ([`Communicator::isend_all_opts`]) sends with
/// all four set and changes the netmod residue itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SendOptions {
    /// §3.4: caller promises the destination is not `MPI_PROC_NULL`.
    pub no_proc_null: bool,
    /// §3.1: destination is a world rank.
    pub global_rank: bool,
    /// §3.6: arrival-order matching (receive with `irecv_nomatch`).
    pub no_match: bool,
    /// §3.5: no request object (complete via `comm_waitall`).
    pub no_request: bool,
}

impl SendOptions {
    /// No proposal: the classic path.
    pub(crate) const NONE: SendOptions = SendOptions {
        no_proc_null: false,
        global_rank: false,
        no_match: false,
        no_request: false,
    };
    /// Every proposal, as §3.7 fuses them.
    pub(crate) const ALL: SendOptions = SendOptions {
        no_proc_null: true,
        global_rank: true,
        no_match: true,
        no_request: true,
    };
}

impl Communicator {
    /// §3.1 `MPI_ISEND_GLOBAL`: `dest` is a rank in `MPI_COMM_WORLD`
    /// (obtained once via `Group::translate_ranks`); the communicator still
    /// provides context isolation, but the per-send rank translation is
    /// gone. Not intercommunicator-safe, exactly as the paper notes.
    pub fn isend_global<T: MpiPrimitive>(
        &self,
        data: &[T],
        dest_world: i32,
        tag: i32,
    ) -> MpiResult<Request<'static>> {
        let opts = CallOpts::typed(SendOptions {
            global_rank: true,
            ..SendOptions::NONE
        });
        self.isend_typed(data, dest_world, tag, SendMode::Standard, opts)
    }

    /// §3.1 receive-side companion: `source` is a world rank.
    ///
    /// Matching note: classic sends encode the sender's *communicator* rank
    /// in the match bits, so a `_GLOBAL` receive must name a sender whose
    /// communicator rank equals its world rank translation; we translate
    /// once here (the receive-side analogue of the paper's "translate once,
    /// store four neighbor ranks" pattern) and receive as
    /// [`Communicator::irecv`] does.
    pub fn irecv_global<'buf, T: MpiPrimitive>(
        &self,
        buf: &'buf mut [T],
        source_world: i32,
        tag: i32,
    ) -> MpiResult<Request<'buf>> {
        let source = if source_world >= 0 {
            self.group()
                .local_rank(source_world as usize)
                .ok_or(MpiError::InvalidComm(
                    "source world rank not in communicator",
                ))? as i32
        } else {
            source_world
        };
        self.irecv_typed(buf, source, tag, CallOpts::TYPED)
    }

    /// §3.4 `MPI_ISEND_NPN`: the caller guarantees `dest != MPI_PROC_NULL`,
    /// removing the comparison+branch from the critical path. Passing
    /// `MPI_PROC_NULL` is erroneous (caught only by error-checking builds).
    pub fn isend_npn<T: MpiPrimitive>(
        &self,
        data: &[T],
        dest: i32,
        tag: i32,
    ) -> MpiResult<Request<'static>> {
        let opts = CallOpts::typed(SendOptions {
            no_proc_null: true,
            ..SendOptions::NONE
        });
        self.isend_typed(data, dest, tag, SendMode::Standard, opts)
    }

    /// §3.5 `MPI_ISEND_NOREQ`: no request object is returned; the
    /// implementation keeps (at most) a counter and completion flags.
    /// Complete with [`Communicator::comm_waitall`].
    pub fn isend_noreq<T: MpiPrimitive>(&self, data: &[T], dest: i32, tag: i32) -> MpiResult<()> {
        let opts = CallOpts::typed(SendOptions {
            no_request: true,
            ..SendOptions::NONE
        });
        self.isend_typed(data, dest, tag, SendMode::Standard, opts)
            .map(drop)
    }

    /// §3.5 `MPI_COMM_WAITALL`: complete every requestless operation issued
    /// on this communicator. Each pending send is waited on as the request
    /// it never had, so a receiver that dies, a revoked communicator or an
    /// aborted job ends the wait through the communicator's errhandler.
    pub fn comm_waitall(&self) -> MpiResult<()> {
        let pending = std::mem::take(&mut *self.noreq.lock());
        let (fatal, ctx) = (self.errors_are_fatal(), self.context_id().0);
        for (done, peer) in pending {
            Request::send_rndv(self.proc.clone(), done, Some(peer), fatal, ctx).wait()?;
        }
        Ok(())
    }

    /// §3.6 `MPI_ISEND_NOMATCH`: no source/tag match bits; messages are
    /// matched to `irecv_nomatch` buffers in arrival order. Communicator
    /// isolation is retained (the paper keeps the communicator bits).
    pub fn isend_nomatch<T: MpiPrimitive>(
        &self,
        data: &[T],
        dest: i32,
    ) -> MpiResult<Request<'static>> {
        let opts = CallOpts::typed(SendOptions {
            no_match: true,
            ..SendOptions::NONE
        });
        self.isend_typed(data, dest, 0, SendMode::Standard, opts)
    }

    /// §3.6 receive side: next nomatch message on this communicator, in
    /// arrival order. The status source is the sender's world rank.
    pub fn irecv_nomatch<'buf, T: MpiPrimitive>(
        &self,
        buf: &'buf mut [T],
    ) -> MpiResult<Request<'buf>> {
        let opts = CallOpts::typed(SendOptions {
            no_match: true,
            ..SendOptions::NONE
        });
        let (source, tag) = (crate::match_bits::ANY_SOURCE, crate::match_bits::ANY_TAG);
        self.irecv_typed(buf, source, tag, opts)
    }

    /// §3.7 `MPI_ISEND_ALL_OPTS`: every proposal fused — world-rank
    /// addressing, no `PROC_NULL` check, no match bits (arrival-order
    /// matching), no request object (complete via
    /// [`Communicator::comm_waitall`]), and the leaner fused netmod path
    /// (16 instructions end to end on an IPO build).
    pub fn isend_all_opts<T: MpiPrimitive>(&self, data: &[T], dest_world: i32) -> MpiResult<()> {
        self.isend_typed(data, dest_world, 0, SendMode::Standard, CallOpts::FUSED)
            .map(drop)
    }

    /// Blocking convenience over [`Communicator::irecv_nomatch`].
    pub fn recv_nomatch<T: MpiPrimitive>(&self, buf: &mut [T]) -> MpiResult<Status> {
        self.irecv_nomatch(buf)?.wait()
    }

    /// Composable extension send: enable any subset of the §3 proposals
    /// (see [`SendOptions`]). With `no_request` the returned request is
    /// already complete and completion happens via
    /// [`Communicator::comm_waitall`]; with `no_match` the tag is forced
    /// to the nomatch channel. `dest` is a world rank iff `global_rank`.
    pub fn isend_with_options<T: MpiPrimitive>(
        &self,
        data: &[T],
        dest: i32,
        tag: i32,
        options: SendOptions,
    ) -> MpiResult<Request<'static>> {
        let tag = if options.no_match { 0 } else { tag };
        let opts = CallOpts::typed(options);
        self.isend_typed(data, dest, tag, SendMode::Standard, opts)
    }
}

impl Window {
    /// §3.2 `MPI_PUT_VIRTUAL_ADDR`: the application supplies the remote
    /// virtual address directly (from [`Window::base_addr`] or
    /// [`Window::attach`]), eliminating the offset→address translation and
    /// the window-kind check. Usable on *all* window kinds — the proposal's
    /// fix for the dynamic-window drawbacks.
    pub fn put_virtual_addr<T: MpiPrimitive>(
        &self,
        data: &[T],
        target: i32,
        addr: VirtAddr,
    ) -> MpiResult<()> {
        let call = Call::virtual_addr(target, addr, false);
        self.put_inner::<Blocking>(T::as_bytes(data), &T::DATATYPE, data.len(), call)
    }

    /// §3.2 `MPI_GET_VIRTUAL_ADDR`.
    pub fn get_virtual_addr<T: MpiPrimitive>(
        &self,
        buf: &mut [T],
        target: i32,
        addr: VirtAddr,
    ) -> MpiResult<()> {
        let (count, call) = (buf.len(), Call::virtual_addr(target, addr, false));
        self.get_inner::<Blocking>(T::as_bytes_mut(buf), &T::DATATYPE, count, call)
    }

    /// §3.7 put with every applicable proposal fused: pre-translated
    /// address, no `PROC_NULL` check, no per-op validation — only the RDMA
    /// descriptor marshalling remains (19 instructions).
    pub fn put_all_opts<T: MpiPrimitive>(
        &self,
        data: &[T],
        target: i32,
        addr: VirtAddr,
    ) -> MpiResult<()> {
        let call = Call::virtual_addr(target, addr, true);
        self.put_inner::<Blocking>(T::as_bytes(data), &T::DATATYPE, data.len(), call)
    }
}
