//! Point-to-point communication — the paper's `MPI_ISEND` critical path.
//!
//! The injection path mirrors the CH4 stack layer by layer (paper §2):
//!
//! 1. **MPI layer**: error checking (removable), thread-safety check
//!    (removable), function-call + redundant-runtime-check overheads
//!    (removed by IPO builds).
//! 2. **Device**: locality check, then netmod/shmmod selection. The
//!    `original` device adds real dynamic dispatch and a real heap-allocated
//!    request descriptor, plus the CH3 layering instruction surcharge.
//! 3. **Netmod**: match-bits assembly and descriptor marshalling into the
//!    fabric's tagged API — or the active-message fallback when the
//!    provider lacks native matching.
//!
//! Every `charge` site corresponds to one row of the paper's Table 1 or
//! one §3 mandatory overhead; extension entry points (in `ext.rs`) reuse
//! [`isend_impl`]/[`irecv_impl`] with [`SendOpts`]/[`RecvOpts`] that skip
//! exactly the work their proposal eliminates.

use crate::comm::Communicator;
use crate::error::{MpiError, MpiResult};
use crate::match_bits::{self, ANY_SOURCE, PROC_NULL};
use crate::process::{Posted, ProcInner};
use crate::proto::{self, Body};
use crate::request::{wait_loop, RecvDest, Request};
use crate::status::Status;
use crate::universe::Storage;
use bytes::Bytes;
use litempi_datatype::{pack, Datatype, MpiPrimitive};
use litempi_instr::{charge, cost, Category};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Send mode (`MPI_SEND` family).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendMode {
    /// Standard: eager below the provider threshold, rendezvous above.
    Standard,
    /// Synchronous (`MPI_SSEND`): completes only after the receiver has
    /// matched — always rendezvous.
    Synchronous,
    /// Ready (`MPI_RSEND`): the application guarantees a posted receive;
    /// always eager.
    Ready,
    /// Buffered (`MPI_BSEND`): always eager (the library buffers).
    Buffered,
}

/// Which §3 fast-path options are active on a send.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SendOpts {
    /// §3.4 `_NPN`: caller promises `dest != MPI_PROC_NULL`.
    pub no_proc_null: bool,
    /// §3.1 `_GLOBAL`: `dest` is a world rank; skip group translation.
    pub global_rank: bool,
    /// §3.6 `_NOMATCH`: arrival-order matching; skip match-bit assembly.
    pub no_match: bool,
    /// §3.5 `_NOREQ`: no request object; completion via `comm_waitall`.
    pub no_request: bool,
    /// §3.7 `_ALL_OPTS`: the fused path (implies all of the above and a
    /// leaner netmod residue).
    pub all_opts: bool,
    /// §2.2 datatype class: `true` when the datatype is a compile-time
    /// constant at the call site ("Class 2", the typed API), `false` for
    /// runtime datatype handles ("Class 3", the byte-level API). Decides
    /// whether library-only IPO can fold the redundant size checks.
    pub static_type: bool,
}

/// Receive-side options (mirrors [`SendOpts`] where meaningful).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RecvOpts {
    /// Receive from the `_NOMATCH` channel in arrival order.
    pub no_match: bool,
    /// `source` is a world rank (pairs with `_GLOBAL` sends; affects only
    /// validation — matching uses the sender-encoded bits).
    pub global_rank: bool,
    /// §2.2 datatype class (see [`SendOpts::static_type`]).
    pub static_type: bool,
}

// ------------------------------------------------------------- validation

fn validate_send(
    comm: &Communicator,
    buf_len: usize,
    ty: &Datatype,
    count: usize,
    dest: i32,
    tag: i32,
    opts: &SendOpts,
) -> MpiResult<()> {
    if !ty.is_committed() {
        return Err(MpiError::InvalidDatatype(
            litempi_datatype::TypeError::NotCommitted,
        ));
    }
    match_bits::check_tag(tag)?;
    if dest != PROC_NULL {
        if opts.global_rank || opts.all_opts {
            if dest < 0 || dest as usize >= comm.proc.size {
                return Err(MpiError::InvalidRank {
                    rank: dest,
                    size: comm.proc.size,
                });
            }
        } else {
            comm.group().check_rank(dest)?;
        }
    } else if opts.no_proc_null || opts.all_opts {
        return Err(MpiError::ExtensionMisuse(
            "MPI_PROC_NULL passed to an _NPN routine",
        ));
    }
    let needed = pack::span(ty, count);
    if buf_len < needed {
        return Err(MpiError::BufferTooSmall {
            needed,
            provided: buf_len,
        });
    }
    Ok(())
}

fn validate_recv(
    comm: &Communicator,
    buf_len: usize,
    ty: &Datatype,
    count: usize,
    source: i32,
    tag: i32,
    opts: &RecvOpts,
) -> MpiResult<()> {
    if !ty.is_committed() {
        return Err(MpiError::InvalidDatatype(
            litempi_datatype::TypeError::NotCommitted,
        ));
    }
    match_bits::check_recv_tag(tag)?;
    if source != PROC_NULL && source != ANY_SOURCE {
        if opts.global_rank {
            if source < 0 || source as usize >= comm.proc.size {
                return Err(MpiError::InvalidRank {
                    rank: source,
                    size: comm.proc.size,
                });
            }
        } else {
            comm.group().check_rank(source)?;
        }
    }
    let needed = pack::span(ty, count);
    if buf_len < needed {
        return Err(MpiError::BufferTooSmall {
            needed,
            provided: buf_len,
        });
    }
    Ok(())
}

/// §2.2 decision: does this call still pay the "redundant runtime checks"?
/// Without IPO: always. With library IPO: only runtime-handle (Class 3)
/// datatypes pay, unless whole-program IPO subsumed the application too.
#[inline]
pub(crate) fn redundant_checks_remain(
    config: &crate::config::BuildConfig,
    static_type: bool,
) -> bool {
    if !config.ipo {
        return true;
    }
    !static_type && !config.ipo_whole_program
}

// ---------------------------------------------------------------- devices

/// The CH3-like baseline's operations vtable. The indirection is real: the
/// `original` device routes every injection through this trait object,
/// reproducing the dynamic-dispatch layering the paper's CH4 removed.
pub(crate) trait OriginalOps: Send + Sync {
    fn inject_tagged(&self, proc: &ProcInner, dst_world: usize, bits: u64, payload: Bytes);
    fn inject_am(
        &self,
        proc: &ProcInner,
        dst_world: usize,
        handler: u16,
        header: [u8; 32],
        payload: Bytes,
    );
}

struct OriginalDevice;

impl OriginalOps for OriginalDevice {
    fn inject_tagged(&self, proc: &ProcInner, dst_world: usize, bits: u64, payload: Bytes) {
        proc.endpoint
            .tsend(proc.addr_of_world(dst_world), bits, payload);
    }

    fn inject_am(
        &self,
        proc: &ProcInner,
        dst_world: usize,
        handler: u16,
        header: [u8; 32],
        payload: Bytes,
    ) {
        proc.endpoint
            .am_send(proc.addr_of_world(dst_world), handler, header, payload);
    }
}

/// The process-wide baseline device instance (one vtable, like a loaded
/// CH3 device).
pub(crate) fn original_device() -> &'static dyn OriginalOps {
    static DEV: OriginalDevice = OriginalDevice;
    &DEV
}

/// A send descriptor — in the `original` device this is heap-allocated per
/// operation (CH3 allocates a request for every send), which the request
/// ablation bench measures.
struct SendDesc {
    #[allow(dead_code)]
    bits: u64,
    #[allow(dead_code)]
    dst_world: usize,
    #[allow(dead_code)]
    bytes: usize,
}

/// Inject a tagged message through whichever device/netmod path the build
/// selects; charges the device-specific overheads.
pub(crate) fn inject(
    proc: &ProcInner,
    dst_world: usize,
    bits: u64,
    payload: Bytes,
    opts: &SendOpts,
) {
    use crate::config::DeviceKind;
    let native_tagged = proc.endpoint.fabric().profile().caps.native_tagged;
    match proc.config.device {
        DeviceKind::Ch4 => {
            charge(
                Category::NetmodIssue,
                if opts.all_opts {
                    cost::isend::ALL_OPTS_NETMOD
                } else {
                    cost::isend::NETMOD_ISSUE
                },
            );
            if native_tagged {
                proc.endpoint
                    .tsend(proc.addr_of_world(dst_world), bits, payload);
            } else {
                // CH4-core active-message fallback: the netmod cannot match,
                // so matching happens in the core at the receiver.
                proc.endpoint.am_send(
                    proc.addr_of_world(dst_world),
                    proto::AM_PT2PT,
                    proto::header(bits, 0, 0, proc.rank as u64),
                    payload,
                );
            }
        }
        DeviceKind::Original => {
            charge(Category::NetmodIssue, cost::isend::NETMOD_ISSUE);
            charge(Category::OriginalLayering, cost::isend::ORIGINAL_LAYERING);
            // Real allocation + real dynamic dispatch: the CH3 structure.
            litempi_instr::note_alloc(1);
            let desc = Box::new(SendDesc {
                bits,
                dst_world,
                bytes: payload.len(),
            });
            let dev = original_device();
            if native_tagged {
                dev.inject_tagged(proc, desc.dst_world, desc.bits, payload);
            } else {
                dev.inject_am(
                    proc,
                    desc.dst_world,
                    proto::AM_PT2PT,
                    proto::header(bits, 0, 0, proc.rank as u64),
                    payload,
                );
            }
        }
    }
}

// -------------------------------------------------------------- send path

/// The shared `MPI_ISEND`-family implementation.
#[allow(clippy::too_many_arguments)] // mirrors the MPI_Isend C signature
pub(crate) fn isend_impl(
    comm: &Communicator,
    buf: &[u8],
    ty: &Datatype,
    count: usize,
    dest: i32,
    tag: i32,
    mode: SendMode,
    opts: SendOpts,
) -> MpiResult<Request<'static>> {
    let proc = &comm.proc;

    // ---- MPI layer -------------------------------------------------------
    if proc.config.error_checking {
        charge(Category::ErrorChecking, cost::isend::ERROR_CHECKING);
        validate_send(comm, buf.len(), ty, count, dest, tag, &opts)?;
    }
    // The communicator's home VCI: known from the context id alone, before
    // the final match bits exist (the user-channel hash ignores src/tag).
    let vci = proc.vci_of_ctx(comm.context_id());
    proc.with_cs(vci, cost::isend::THREAD_CHECK, || {
        if !proc.config.ipo {
            // Function-call overhead: removed by library link-time inlining.
            charge(Category::FunctionCall, cost::isend::FUNCTION_CALL);
        }
        if redundant_checks_remain(&proc.config, opts.static_type) {
            // The runtime datatype-size lookup. Library IPO folds it only
            // for compile-time-constant datatypes (the paper's §2.2
            // Class 2); Class-3 runtime handles need whole-program IPO.
            charge(Category::RedundantChecks, cost::isend::REDUNDANT_CHECKS);
        }

        // ---- device / mandatory overheads ---------------------------------
        if opts.all_opts {
            // §3.7: every proposal fused; only the lean netmod residue
            // remains (charged inside `inject`).
        } else {
            if !opts.no_proc_null {
                charge(Category::ProcNullCheck, cost::isend::PROC_NULL_CHECK);
                if dest == PROC_NULL {
                    return Ok(Request::done(Status::send()));
                }
            }
            if !comm.is_predef {
                // §3.3: dereference into the dynamically allocated
                // communicator object (skipped for precreated handles).
                charge(Category::ObjectDeref, cost::isend::OBJECT_DEREF);
            }
        }

        let dest_world = if opts.global_rank || opts.all_opts {
            dest as usize
        } else {
            charge(
                Category::CommRankTranslation,
                cost::isend::COMM_RANK_TRANSLATION,
            );
            comm.group().world_rank(dest as usize)
        };

        // ULFM gate: a revoked communicator fails all new point-to-point
        // traffic immediately (no charge — the flag is one relaxed load in
        // the fault-free case, keeping the paper's charge identity).
        if proc.is_ctx_revoked(comm.context_id().0) {
            return comm.handle_error(Err(MpiError::Revoked));
        }

        // FT pre-check: injecting toward a known-dead peer fails fast (the
        // provider's analogue of a link-down completion error) instead of
        // retrying into a black hole. Routed through the communicator's
        // error handler: fatal by default, `Err` under MPI_ERRORS_RETURN.
        if proc
            .endpoint
            .peer_unreachable(proc.addr_of_world(dest_world))
        {
            return comm.handle_error(Err(MpiError::PeerUnreachable { peer: dest_world }));
        }

        let bits = if opts.no_match || opts.all_opts {
            match_bits::encode_nomatch(comm.context_id())
        } else {
            charge(Category::MatchBits, cost::isend::MATCH_BITS);
            match_bits::encode(comm.context_id(), comm.rank, tag)
        };

        if !(opts.no_request || opts.all_opts) {
            charge(Category::RequestManagement, cost::isend::REQUEST_MANAGEMENT);
        }

        // ---- protocol ------------------------------------------------------
        let staged = proto::stage(proc, vci, ty, count, buf, mode, Some(dest_world));
        let done = charge_rndv_send(&staged);
        inject(proc, dest_world, bits, staged.into_wire(proc, vci), &opts);
        if opts.no_request || opts.all_opts {
            let mut state = comm.noreq.lock();
            state.issued += 1;
            state.pending.extend(done.map(|done| (done, dest_world)));
            return Ok(Request::done(Status::send()));
        }
        Ok(match done {
            None => Request::done(Status::send()),
            Some(done) => Request::send_rndv(
                proc.clone(),
                done,
                Some(dest_world),
                comm.errhandler() == crate::comm::Errhandler::ErrorsAreFatal,
                comm.context_id().0,
            ),
        })
    })
}

/// Charge the sender's half of a rendezvous, by where [`proto::stage`] put
/// the body, and return the completion flag the receiver will set (`None`:
/// the send was eager and is complete). A registered region is the
/// foMPI-style RDMA rendezvous: the receiver reads it at match time, no
/// round trip through the progress engine. A pooled staging buffer drains
/// through eager-sized bounce chunks: the RTS plus one serve step per
/// chunk here, the receiver's half (request + deliver per chunk) at match
/// time.
pub(crate) fn charge_rndv_send(staged: &Body) -> Option<Arc<AtomicBool>> {
    let entry = staged.rndv()?;
    match entry.storage {
        Storage::Region(_) => charge(Category::Rma, cost::rma::RNDV_EXPOSE),
        Storage::Pooled(_) => charge(
            Category::Progress,
            (1 + cost::progress::rndv_chunks(entry.len)) * cost::progress::RNDV_STEP,
        ),
    }
    entry.done.clone()
}

// -------------------------------------------------------------- recv path

/// The shared `MPI_IRECV`-family implementation. The paper omits IRECV
/// from its analysis ("the software path is largely identical to
/// MPI_ISEND for network APIs that support matching"); we charge the
/// isend cost table symmetrically.
pub(crate) fn irecv_impl<'buf>(
    comm: &Communicator,
    buf: &'buf mut [u8],
    ty: &Datatype,
    count: usize,
    source: i32,
    tag: i32,
    opts: RecvOpts,
) -> MpiResult<Request<'buf>> {
    let proc = &comm.proc;

    if proc.config.error_checking {
        charge(Category::ErrorChecking, cost::isend::ERROR_CHECKING);
        validate_recv(comm, buf.len(), ty, count, source, tag, &opts)?;
    }
    let vci = proc.vci_of_ctx(comm.context_id());
    proc.with_cs(vci, cost::isend::THREAD_CHECK, || {
        if !proc.config.ipo {
            charge(Category::FunctionCall, cost::isend::FUNCTION_CALL);
        }
        if redundant_checks_remain(&proc.config, opts.static_type) {
            charge(Category::RedundantChecks, cost::isend::REDUNDANT_CHECKS);
        }
        charge(Category::ProcNullCheck, cost::isend::PROC_NULL_CHECK);
        if source == PROC_NULL {
            return Ok(Request::done(Status::proc_null()));
        }
        // ULFM gate (uncharged): receives on a revoked communicator fail
        // instead of posting into a context no peer will send on again.
        if proc.is_ctx_revoked(comm.context_id().0) {
            return comm.handle_error(Err(MpiError::Revoked));
        }
        if !comm.is_predef {
            charge(Category::ObjectDeref, cost::isend::OBJECT_DEREF);
        }

        // Encoding the (possibly wildcard) source into the matching
        // structures is the receive-side twin of the sender's rank
        // translation — the paper: "the software path is largely identical
        // to MPI_ISEND for network APIs that support matching".
        charge(
            Category::CommRankTranslation,
            cost::isend::COMM_RANK_TRANSLATION,
        );
        let (bits, ignore) = if opts.no_match {
            (match_bits::encode_nomatch(comm.context_id()), 0)
        } else {
            charge(Category::MatchBits, cost::isend::MATCH_BITS);
            match_bits::recv_bits(comm.context_id(), source, tag)
        };
        charge(Category::RequestManagement, cost::isend::REQUEST_MANAGEMENT);
        // Marshalling the receive descriptor into the fabric's posted queue.
        charge(Category::NetmodIssue, cost::isend::NETMOD_ISSUE);

        let dest = RecvDest {
            buf,
            ty: ty.clone(),
            count,
        };
        // Dead-peer detection needs the source's world rank; wildcard
        // receives have no single peer to watch (FT semantics: ANY_SOURCE
        // against a failed process is the application's problem).
        let peer = if source == ANY_SOURCE {
            None
        } else if opts.global_rank {
            Some(source as usize)
        } else {
            Some(comm.group().world_rank(source as usize))
        };
        let fatal = comm.errhandler() == crate::comm::Errhandler::ErrorsAreFatal;
        Ok(Request::recv(
            proc.clone(),
            Posted::post(proc, bits, ignore),
            dest,
            peer,
            fatal,
            comm.context_id().0,
        ))
    })
}

// ------------------------------------------------------------- public API

impl Communicator {
    /// `MPI_ISEND` on raw bytes with an explicit datatype.
    pub fn isend_bytes(
        &self,
        buf: &[u8],
        ty: &Datatype,
        count: usize,
        dest: i32,
        tag: i32,
    ) -> MpiResult<Request<'static>> {
        isend_impl(
            self,
            buf,
            ty,
            count,
            dest,
            tag,
            SendMode::Standard,
            SendOpts::default(),
        )
    }

    /// `MPI_IRECV` on raw bytes with an explicit datatype.
    pub fn irecv_bytes<'buf>(
        &self,
        buf: &'buf mut [u8],
        ty: &Datatype,
        count: usize,
        source: i32,
        tag: i32,
    ) -> MpiResult<Request<'buf>> {
        irecv_impl(self, buf, ty, count, source, tag, RecvOpts::default())
    }

    /// `MPI_ISEND` of a typed slice (datatype inferred — the paper's
    /// "Class 2" compile-time-constant usage).
    pub fn isend<T: MpiPrimitive>(
        &self,
        data: &[T],
        dest: i32,
        tag: i32,
    ) -> MpiResult<Request<'static>> {
        isend_impl(
            self,
            T::as_bytes(data),
            &T::DATATYPE,
            data.len(),
            dest,
            tag,
            SendMode::Standard,
            SendOpts {
                static_type: true,
                ..SendOpts::default()
            },
        )
    }

    /// `MPI_IRECV` into a typed slice.
    pub fn irecv<'buf, T: MpiPrimitive>(
        &self,
        buf: &'buf mut [T],
        source: i32,
        tag: i32,
    ) -> MpiResult<Request<'buf>> {
        let count = buf.len();
        irecv_impl(
            self,
            T::as_bytes_mut(buf),
            &T::DATATYPE,
            count,
            source,
            tag,
            RecvOpts {
                static_type: true,
                ..RecvOpts::default()
            },
        )
    }

    /// Blocking `MPI_SEND`.
    pub fn send<T: MpiPrimitive>(&self, data: &[T], dest: i32, tag: i32) -> MpiResult<()> {
        self.isend(data, dest, tag)?.wait().map(|_| ())
    }

    /// Blocking `MPI_SSEND` (synchronous mode).
    pub fn ssend<T: MpiPrimitive>(&self, data: &[T], dest: i32, tag: i32) -> MpiResult<()> {
        isend_impl(
            self,
            T::as_bytes(data),
            &T::DATATYPE,
            data.len(),
            dest,
            tag,
            SendMode::Synchronous,
            SendOpts {
                static_type: true,
                ..SendOpts::default()
            },
        )?
        .wait()
        .map(|_| ())
    }

    /// Blocking `MPI_RSEND` (ready mode — receiver must already be posted).
    pub fn rsend<T: MpiPrimitive>(&self, data: &[T], dest: i32, tag: i32) -> MpiResult<()> {
        isend_impl(
            self,
            T::as_bytes(data),
            &T::DATATYPE,
            data.len(),
            dest,
            tag,
            SendMode::Ready,
            SendOpts {
                static_type: true,
                ..SendOpts::default()
            },
        )?
        .wait()
        .map(|_| ())
    }

    /// Per-message bookkeeping overhead of a buffered send
    /// (`MPI_BSEND_OVERHEAD`).
    pub const BSEND_OVERHEAD: usize = 64;

    /// Blocking `MPI_BSEND` (buffered mode — completes locally). Requires
    /// an attached buffer (`Process::buffer_attach`) large enough for the
    /// message plus [`Communicator::BSEND_OVERHEAD`].
    pub fn bsend<T: MpiPrimitive>(&self, data: &[T], dest: i32, tag: i32) -> MpiResult<()> {
        if self.proc.config.error_checking {
            let needed = std::mem::size_of_val(data) + Self::BSEND_OVERHEAD;
            let attached = self.proc.bsend_buffer.lock();
            match *attached {
                None => {
                    return Err(MpiError::ExtensionMisuse(
                        "MPI_BSEND without an attached buffer",
                    ))
                }
                Some(cap) if cap < needed => {
                    return Err(MpiError::BufferTooSmall {
                        needed,
                        provided: cap,
                    })
                }
                Some(_) => {}
            }
        }
        isend_impl(
            self,
            T::as_bytes(data),
            &T::DATATYPE,
            data.len(),
            dest,
            tag,
            SendMode::Buffered,
            SendOpts {
                static_type: true,
                ..SendOpts::default()
            },
        )?
        .wait()
        .map(|_| ())
    }

    /// Blocking `MPI_RECV` into a typed slice.
    pub fn recv_into<T: MpiPrimitive>(
        &self,
        buf: &mut [T],
        source: i32,
        tag: i32,
    ) -> MpiResult<Status> {
        self.irecv(buf, source, tag)?.wait()
    }

    /// Blocking `MPI_RECV` returning a freshly allocated vector of exactly
    /// the received element count.
    pub fn recv_vec<T: MpiPrimitive>(
        &self,
        max_count: usize,
        source: i32,
        tag: i32,
    ) -> MpiResult<(Vec<T>, Status)> {
        let mut buf = vec![T::from_wire(&vec![0u8; T::PREDEFINED.size()]); max_count];
        let status = self.recv_into(&mut buf, source, tag)?;
        let n = status.count(T::PREDEFINED.size()).unwrap_or(0);
        buf.truncate(n);
        Ok((buf, status))
    }

    /// `MPI_SENDRECV`: combined send and receive (deadlock-free pairwise
    /// exchange).
    pub fn sendrecv<T: MpiPrimitive>(
        &self,
        send: &[T],
        dest: i32,
        send_tag: i32,
        recv: &mut [T],
        source: i32,
        recv_tag: i32,
    ) -> MpiResult<Status> {
        let rreq = self.irecv(recv, source, recv_tag)?;
        let sreq = self.isend(send, dest, send_tag)?;
        let status = rreq.wait()?;
        sreq.wait()?;
        Ok(status)
    }

    /// `MPI_SENDRECV_REPLACE`: exchange with a peer reusing one buffer.
    pub fn sendrecv_replace<T: MpiPrimitive>(
        &self,
        buf: &mut [T],
        dest: i32,
        send_tag: i32,
        source: i32,
        recv_tag: i32,
    ) -> MpiResult<Status> {
        // The send captures the buffer eagerly (or into the rendezvous
        // table), so receiving into the same storage afterwards is safe.
        let sreq = self.isend(buf, dest, send_tag)?;
        let rreq = self.irecv(buf, source, recv_tag)?;
        let status = rreq.wait()?;
        sreq.wait()?;
        Ok(status)
    }

    /// `MPI_IPROBE`: nonblocking check for a matching message.
    pub fn iprobe(&self, source: i32, tag: i32) -> MpiResult<Option<Status>> {
        let got = self.peek(source, tag);
        if matches!(got, Ok(None)) {
            crate::request::not_yet();
        }
        got
    }

    /// [`Communicator::iprobe`] without yielding.
    fn peek(&self, source: i32, tag: i32) -> MpiResult<Option<Status>> {
        if self.proc.config.error_checking {
            match_bits::check_recv_tag(tag)?;
            if source != ANY_SOURCE && source != PROC_NULL {
                self.group().check_rank(source)?;
            }
        }
        if source == PROC_NULL {
            return Ok(Some(Status::proc_null()));
        }
        self.proc.progress();
        // Probing builds and matches the same bits as MPI_IRECV, so it
        // charges the same matching cost — an MPI_IPROBE polling loop pays
        // per poll, exactly like repeated matching-queue walks in MPICH.
        charge(Category::MatchBits, cost::isend::MATCH_BITS);
        let (bits, ignore) = match_bits::recv_bits(self.context_id(), source, tag);
        let Some(msg) = self.proc.peek_unexpected(bits, ignore) else {
            return Ok(None);
        };
        // Wire bytes: a damaged envelope is an error, not a panic.
        let bytes = self.handle_error(proto::message_len(&msg.data))?;
        Ok(Some(Status {
            source: match_bits::decode_src(msg.match_bits) as i32,
            tag: match_bits::decode_tag(msg.match_bits),
            bytes,
        }))
    }

    /// `MPI_PROBE`: block until a matching message is available.
    pub fn probe(&self, source: i32, tag: i32) -> MpiResult<Status> {
        wait_loop(&self.proc, || self.peek(source, tag).transpose())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::match_bits::ANY_TAG;
    use crate::universe::Universe;

    #[test]
    fn send_opts_default_is_classic_path() {
        let o = SendOpts::default();
        assert!(!o.no_proc_null && !o.global_rank && !o.no_match && !o.no_request && !o.all_opts);
    }

    #[test]
    fn blocking_send_recv_pair() {
        let out = Universe::run_default(2, |proc| {
            let world = proc.world();
            if proc.rank() == 0 {
                world.send(&[1.5f64, 2.5], 1, 7).unwrap();
                0.0
            } else {
                let mut buf = [0.0f64; 2];
                let st = world.recv_into(&mut buf, 0, 7).unwrap();
                assert_eq!(st.source, 0);
                assert_eq!(st.tag, 7);
                assert_eq!(st.count(8), Some(2));
                buf[0] + buf[1]
            }
        });
        assert_eq!(out[1], 4.0);
    }

    #[test]
    fn proc_null_send_and_recv_complete_immediately() {
        Universe::run_default(1, |proc| {
            let world = proc.world();
            world.send(&[1u8], PROC_NULL, 0).unwrap();
            let mut buf = [0u8; 1];
            let st = world.recv_into(&mut buf, PROC_NULL, 0).unwrap();
            assert_eq!(st.source, PROC_NULL);
            assert_eq!(st.bytes, 0);
        });
    }

    #[test]
    fn any_source_any_tag() {
        let out = Universe::run_default(3, |proc| {
            let world = proc.world();
            if proc.rank() == 0 {
                let mut got = Vec::new();
                for _ in 0..2 {
                    let mut buf = [0u32; 1];
                    let st = world.recv_into(&mut buf, ANY_SOURCE, ANY_TAG).unwrap();
                    got.push((st.source, st.tag, buf[0]));
                }
                got.sort_unstable();
                got
            } else {
                let r = proc.rank() as u32;
                world.send(&[r * 10], 0, proc.rank() as i32).unwrap();
                Vec::new()
            }
        });
        assert_eq!(out[0], vec![(1, 1, 10), (2, 2, 20)]);
    }

    #[test]
    fn message_ordering_same_src_tag() {
        let out = Universe::run_default(2, |proc| {
            let world = proc.world();
            if proc.rank() == 0 {
                for i in 0..16u64 {
                    world.send(&[i], 1, 3).unwrap();
                }
                Vec::new()
            } else {
                let mut got = Vec::new();
                for _ in 0..16 {
                    let mut buf = [0u64; 1];
                    world.recv_into(&mut buf, 0, 3).unwrap();
                    got.push(buf[0]);
                }
                got
            }
        });
        assert_eq!(out[1], (0..16).collect::<Vec<u64>>());
    }

    #[test]
    fn invalid_rank_rejected_when_checking() {
        Universe::run_default(1, |proc| {
            let world = proc.world();
            let e = world.send(&[0u8], 5, 0).unwrap_err();
            assert!(matches!(e, MpiError::InvalidRank { rank: 5, size: 1 }));
            let e = world.send(&[0u8], 0, -9).unwrap_err();
            assert!(matches!(e, MpiError::InvalidTag(-9)));
        });
    }

    #[test]
    fn truncation_is_an_error() {
        Universe::run_default(2, |proc| {
            let world = proc.world();
            if proc.rank() == 0 {
                world.send(&[1u8, 2, 3, 4], 1, 0).unwrap();
            } else {
                let mut small = [0u8; 2];
                let e = world.recv_into(&mut small, 0, 0).unwrap_err();
                assert!(matches!(e, MpiError::Truncate { .. }));
            }
        });
    }

    #[test]
    fn shorter_message_than_buffer_is_fine() {
        Universe::run_default(2, |proc| {
            let world = proc.world();
            if proc.rank() == 0 {
                world.send(&[9u8], 1, 0).unwrap();
            } else {
                let mut buf = [0u8; 16];
                let st = world.recv_into(&mut buf, 0, 0).unwrap();
                assert_eq!(st.bytes, 1);
                assert_eq!(buf[0], 9);
            }
        });
    }

    #[test]
    fn sendrecv_ring_rotation() {
        let n = 4;
        let out = Universe::run_default(n, |proc| {
            let world = proc.world();
            let rank = proc.rank();
            let right = ((rank + 1) % n) as i32;
            let left = ((rank + n - 1) % n) as i32;
            let mut recv = [0u64; 1];
            world
                .sendrecv(&[rank as u64], right, 0, &mut recv, left, 0)
                .unwrap();
            recv[0] as usize
        });
        assert_eq!(out, vec![3, 0, 1, 2]);
    }

    #[test]
    fn probe_reports_size_before_recv() {
        Universe::run_default(2, |proc| {
            let world = proc.world();
            if proc.rank() == 0 {
                world.send(&[1u64, 2, 3], 1, 5).unwrap();
            } else {
                let st = world.probe(0, 5).unwrap();
                assert_eq!(st.bytes, 24);
                assert_eq!(st.tag, 5);
                let (v, _) = world.recv_vec::<u64>(3, 0, 5).unwrap();
                assert_eq!(v, vec![1, 2, 3]);
            }
        });
    }

    #[test]
    fn iprobe_returns_none_without_message() {
        Universe::run_default(1, |proc| {
            let world = proc.world();
            assert!(world.iprobe(ANY_SOURCE, ANY_TAG).unwrap().is_none());
        });
    }

    #[test]
    fn iprobe_charges_matching_cost_per_poll() {
        Universe::run_default(1, |proc| {
            let world = proc.world();
            let probe = litempi_instr::probe();
            for _ in 0..3 {
                let _ = world.iprobe(ANY_SOURCE, ANY_TAG).unwrap();
            }
            let report = probe.finish();
            // Each poll pays the same matching cost as an MPI_IRECV.
            assert_eq!(report.get(Category::MatchBits), 3 * cost::isend::MATCH_BITS);
        });
    }
}
