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
//! one §3 mandatory overhead. There is one send body ([`isend_impl`]) and
//! one receive body ([`irecv_impl`]); what goes into either besides the
//! call's arguments is one [`CallOpts`] value — the four §3 flags
//! ([`SendOptions`], declared once in `ext.rs`) and the [`Entry`] kind
//! (byte API, typed API, or the fused §3.7 path). Every typed entry point,
//! here and in `ext.rs`, is one call through
//! [`Communicator::isend_typed`] or [`Communicator::irecv_typed`].
//!
//! What comes out goes through one rule: a communication failure aborts
//! the rank under `MPI_ERRORS_ARE_FATAL` and is the `Err` under
//! `MPI_ERRORS_RETURN` ([`fatal_filter`], applied by the send gate,
//! [`Communicator::handle_error`] and a request when it settles).

use crate::comm::Communicator;
use crate::error::{MpiError, MpiResult};
use crate::ext::SendOptions;
use crate::match_bits::{self, ANY_SOURCE, PROC_NULL};
use crate::process::{Posted, ProcInner};
use crate::proto::{self, Body};
use crate::request::{fatal_filter, poll_or_death, wait_for, RecvDest, Request};
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

/// The entry point a call came in through: what the §3 flags
/// ([`SendOptions`]) do not decide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Entry {
    /// §2.2 Class 3, the byte API (`isend_bytes`, `irecv_bytes`): a
    /// runtime datatype handle, whose redundant size checks only
    /// whole-program IPO folds.
    Bytes,
    /// §2.2 Class 2, the typed API: the datatype is a compile-time
    /// constant at the call site, so library IPO folds them too.
    Typed,
    /// §3.7 `_ALL_OPTS`: the typed API with every proposal fused, which
    /// also drops the communicator-object dereference and leaves only the
    /// lean netmod residue.
    Fused,
}

/// What goes into one point-to-point call besides its arguments: the §3
/// flags and the entry kind. A receive reads only `no_match` of the flags.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CallOpts {
    pub(crate) flags: SendOptions,
    pub(crate) entry: Entry,
}

impl CallOpts {
    /// The byte API, no proposal.
    pub(crate) const BYTES: CallOpts = CallOpts {
        flags: SendOptions::NONE,
        entry: Entry::Bytes,
    };
    /// The typed API, no proposal.
    pub(crate) const TYPED: CallOpts = CallOpts::typed(SendOptions::NONE);
    /// §3.7: every proposal, fused.
    pub(crate) const FUSED: CallOpts = CallOpts {
        flags: SendOptions::ALL,
        entry: Entry::Fused,
    };

    /// The typed API with `flags`.
    pub(crate) const fn typed(flags: SendOptions) -> CallOpts {
        CallOpts {
            flags,
            entry: Entry::Typed,
        }
    }
}

// ------------------------------------------------------------- validation

fn validate_send(
    comm: &Communicator,
    buf_len: usize,
    ty: &Datatype,
    count: usize,
    dest: i32,
    tag: i32,
    flags: &SendOptions,
) -> MpiResult<()> {
    if !ty.is_committed() {
        return Err(MpiError::InvalidDatatype(
            litempi_datatype::TypeError::NotCommitted,
        ));
    }
    match_bits::check_tag(tag)?;
    if dest != PROC_NULL {
        if flags.global_rank {
            if dest < 0 || dest as usize >= comm.proc.size {
                return Err(MpiError::InvalidRank {
                    rank: dest,
                    size: comm.proc.size,
                });
            }
        } else {
            comm.group().check_rank(dest)?;
        }
    } else if flags.no_proc_null {
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
) -> MpiResult<()> {
    if !ty.is_committed() {
        return Err(MpiError::InvalidDatatype(
            litempi_datatype::TypeError::NotCommitted,
        ));
    }
    match_bits::check_recv_tag(tag)?;
    if source != PROC_NULL && source != ANY_SOURCE {
        comm.group().check_rank(source)?;
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

/// Inject a tagged message through whichever device/netmod path the build
/// selects; charges the device-specific overheads.
pub(crate) fn inject(proc: &ProcInner, dst_world: usize, bits: u64, payload: Bytes, entry: Entry) {
    use crate::config::DeviceKind;
    match proc.config.device {
        DeviceKind::Ch4 => charge(
            Category::NetmodIssue,
            if entry == Entry::Fused {
                cost::isend::ALL_OPTS_NETMOD
            } else {
                cost::isend::NETMOD_ISSUE
            },
        ),
        DeviceKind::Original => {
            // The CH3 layering and the request CH3 allocates for every
            // send are charged, not executed: the injection is CH4's.
            charge(Category::NetmodIssue, cost::isend::NETMOD_ISSUE);
            charge(Category::OriginalLayering, cost::isend::ORIGINAL_LAYERING);
            litempi_instr::note_alloc(1);
        }
    }
    let dst = proc.addr_of_world(dst_world);
    if proc.endpoint.fabric().profile().caps.native_tagged {
        proc.endpoint.tsend(dst, bits, payload);
    } else {
        // CH4-core active-message fallback: the netmod cannot match, so
        // matching happens in the core at the receiver.
        let header = proto::header(bits, 0, 0, proc.rank as u64);
        proc.endpoint.am_send(dst, proto::AM_PT2PT, header, payload);
    }
}

// -------------------------------------------------------------- send path

/// The shared `MPI_ISEND`-family implementation: every send entry point
/// is this body with its [`CallOpts`].
#[allow(clippy::too_many_arguments)] // mirrors the MPI_Isend C signature
pub(crate) fn isend_impl(
    comm: &Communicator,
    buf: &[u8],
    ty: &Datatype,
    count: usize,
    dest: i32,
    tag: i32,
    mode: SendMode,
    opts: CallOpts,
) -> MpiResult<Request<'static>> {
    let proc = &comm.proc;
    let flags = opts.flags;

    // ---- MPI layer -------------------------------------------------------
    if proc.config.error_checking {
        charge(Category::ErrorChecking, cost::isend::ERROR_CHECKING);
        validate_send(comm, buf.len(), ty, count, dest, tag, &flags)?;
    }
    proc.with_cs(cost::isend::THREAD_CHECK, || {
        if !proc.config.ipo {
            // Function-call overhead: removed by library link-time inlining.
            charge(Category::FunctionCall, cost::isend::FUNCTION_CALL);
        }
        if redundant_checks_remain(&proc.config, opts.entry != Entry::Bytes) {
            // The runtime datatype-size lookup. Library IPO folds it only
            // for compile-time-constant datatypes (the paper's §2.2
            // Class 2); Class-3 runtime handles need whole-program IPO.
            charge(Category::RedundantChecks, cost::isend::REDUNDANT_CHECKS);
        }

        // ---- device / mandatory overheads ---------------------------------
        if !flags.no_proc_null {
            charge(Category::ProcNullCheck, cost::isend::PROC_NULL_CHECK);
            if dest == PROC_NULL {
                return Ok(Request::done(Status::send()));
            }
        }
        if !comm.is_predef && opts.entry != Entry::Fused {
            // §3.3: dereference into the dynamically allocated
            // communicator object (skipped for precreated handles, and
            // fused away by §3.7).
            charge(Category::ObjectDeref, cost::isend::OBJECT_DEREF);
        }

        let dest_world = if flags.global_rank {
            dest as usize
        } else {
            charge(
                Category::CommRankTranslation,
                cost::isend::COMM_RANK_TRANSLATION,
            );
            comm.group().world_rank(dest as usize)
        };

        let ctx = comm.context_id().0;
        let fatal = comm.errors_are_fatal();
        send_gates(proc, ctx, dest_world, fatal)?;

        let bits = if flags.no_match {
            match_bits::encode_nomatch(comm.context_id())
        } else {
            charge(Category::MatchBits, cost::isend::MATCH_BITS);
            match_bits::encode(comm.context_id(), comm.rank, tag)
        };

        if !flags.no_request {
            charge(Category::RequestManagement, cost::isend::REQUEST_MANAGEMENT);
        }

        // ---- protocol ------------------------------------------------------
        let to = SendTo {
            dest_world,
            bits,
            ctx,
            fatal,
        };
        let done = send_tail(proc, &to, ty, count, buf, mode, opts.entry);
        if !flags.no_request {
            return Ok(to.request(proc, done));
        }
        // §3.5: an eager send is complete; a rendezvous leaves its flag
        // for `comm_waitall`.
        if let Some(done) = done {
            comm.noreq.lock().push((done, dest_world));
        }
        Ok(Request::done(Status::send()))
    })
}

/// Where a two-sided send goes and how its failures report: the world rank
/// and match bits, and the communicator's context id and
/// `MPI_ERRORS_ARE_FATAL` (a snapshot, for persistent sends).
pub(crate) struct SendTo {
    pub(crate) dest_world: usize,
    pub(crate) bits: u64,
    pub(crate) ctx: u16,
    pub(crate) fatal: bool,
}

impl SendTo {
    /// The request of a send [`send_tail`] issued: complete if the body
    /// went eagerly (`done` is `None`), else waiting for the receiver to
    /// take it.
    pub(crate) fn request(
        &self,
        proc: &Arc<ProcInner>,
        done: Option<Arc<AtomicBool>>,
    ) -> Request<'static> {
        match done {
            None => Request::done(Status::send()),
            Some(done) => Request::send_rndv(
                proc.clone(),
                done,
                Some(self.dest_world),
                self.fatal,
                self.ctx,
            ),
        }
    }
}

/// The ULFM gates every two-sided send passes before it charges its match
/// bits or request — `isend_impl` and `PersistentSend::start`: a revoked
/// communicator fails all new point-to-point traffic, and a send toward a
/// known-dead peer fails fast (the provider's analogue of a link-down
/// completion error) instead of retrying into a black hole. Either is
/// fatal under `MPI_ERRORS_ARE_FATAL` and the `Err` under
/// `MPI_ERRORS_RETURN` ([`ProcInner::first_failure`]: uncharged, one load
/// in a healthy job).
pub(crate) fn send_gates(
    proc: &ProcInner,
    ctx: u16,
    dest_world: usize,
    fatal: bool,
) -> MpiResult<()> {
    fatal_filter(proc.first_failure(&[ctx], &[dest_world]), fatal)
}

/// The tail every two-sided send shares once it has passed
/// [`send_gates`] and knows its match bits: the body is staged
/// ([`proto::stage`]), its rendezvous half charged and the wire payload
/// injected. Returns the rendezvous completion flag (`None`: sent eagerly,
/// complete).
pub(crate) fn send_tail(
    proc: &ProcInner,
    to: &SendTo,
    ty: &Datatype,
    count: usize,
    buf: &[u8],
    mode: SendMode,
    entry: Entry,
) -> Option<Arc<AtomicBool>> {
    let staged = proto::stage(proc, ty, count, buf, mode, Some(to.dest_world));
    let done = charge_rndv_send(&staged);
    inject(proc, to.dest_world, to.bits, staged.into_wire(proc), entry);
    done
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
    opts: CallOpts,
) -> MpiResult<Request<'buf>> {
    let proc = &comm.proc;

    if proc.config.error_checking {
        charge(Category::ErrorChecking, cost::isend::ERROR_CHECKING);
        validate_recv(comm, buf.len(), ty, count, source, tag)?;
    }
    proc.with_cs(cost::isend::THREAD_CHECK, || {
        if !proc.config.ipo {
            charge(Category::FunctionCall, cost::isend::FUNCTION_CALL);
        }
        if redundant_checks_remain(&proc.config, opts.entry != Entry::Bytes) {
            charge(Category::RedundantChecks, cost::isend::REDUNDANT_CHECKS);
        }
        charge(Category::ProcNullCheck, cost::isend::PROC_NULL_CHECK);
        if source == PROC_NULL {
            return Ok(Request::done(Status::proc_null()));
        }
        // ULFM gate (uncharged): receives on a revoked communicator fail
        // instead of posting into a context no peer will send on again.
        if let Err(e) = proc.first_failure(&[comm.context_id().0], &[]) {
            return comm.handle_error(Err(e));
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
        let (bits, ignore) = if opts.flags.no_match {
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
        let peer = (source != ANY_SOURCE).then(|| comm.group().world_rank(source as usize));
        Ok(Request::recv(
            proc.clone(),
            Posted::post(proc, bits, ignore),
            dest,
            peer,
            comm.errors_are_fatal(),
            comm.context_id().0,
        ))
    })
}

// ------------------------------------------------------------- public API

impl Communicator {
    /// The typed API's one send (§2.2 Class 2): every typed send entry
    /// point, here and in `ext.rs`, is this call with its mode and options.
    pub(crate) fn isend_typed<T: MpiPrimitive>(
        &self,
        data: &[T],
        dest: i32,
        tag: i32,
        mode: SendMode,
        opts: CallOpts,
    ) -> MpiResult<Request<'static>> {
        let buf = T::as_bytes(data);
        isend_impl(self, buf, &T::DATATYPE, data.len(), dest, tag, mode, opts)
    }

    /// The typed API's one receive, as [`Communicator::isend_typed`].
    pub(crate) fn irecv_typed<'buf, T: MpiPrimitive>(
        &self,
        buf: &'buf mut [T],
        source: i32,
        tag: i32,
        opts: CallOpts,
    ) -> MpiResult<Request<'buf>> {
        let count = buf.len();
        let buf = T::as_bytes_mut(buf);
        irecv_impl(self, buf, &T::DATATYPE, count, source, tag, opts)
    }

    /// `MPI_ISEND` on raw bytes with an explicit datatype.
    pub fn isend_bytes(
        &self,
        buf: &[u8],
        ty: &Datatype,
        count: usize,
        dest: i32,
        tag: i32,
    ) -> MpiResult<Request<'static>> {
        let (mode, opts) = (SendMode::Standard, CallOpts::BYTES);
        isend_impl(self, buf, ty, count, dest, tag, mode, opts)
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
        irecv_impl(self, buf, ty, count, source, tag, CallOpts::BYTES)
    }

    /// `MPI_ISEND` of a typed slice (datatype inferred — the paper's
    /// "Class 2" compile-time-constant usage).
    pub fn isend<T: MpiPrimitive>(
        &self,
        data: &[T],
        dest: i32,
        tag: i32,
    ) -> MpiResult<Request<'static>> {
        self.isend_typed(data, dest, tag, SendMode::Standard, CallOpts::TYPED)
    }

    /// `MPI_IRECV` into a typed slice.
    pub fn irecv<'buf, T: MpiPrimitive>(
        &self,
        buf: &'buf mut [T],
        source: i32,
        tag: i32,
    ) -> MpiResult<Request<'buf>> {
        self.irecv_typed(buf, source, tag, CallOpts::TYPED)
    }

    /// Blocking `MPI_SEND`.
    pub fn send<T: MpiPrimitive>(&self, data: &[T], dest: i32, tag: i32) -> MpiResult<()> {
        self.isend(data, dest, tag)?.wait().map(|_| ())
    }

    /// Blocking `MPI_SSEND` (synchronous mode).
    pub fn ssend<T: MpiPrimitive>(&self, data: &[T], dest: i32, tag: i32) -> MpiResult<()> {
        let mode = SendMode::Synchronous;
        self.isend_typed(data, dest, tag, mode, CallOpts::TYPED)?
            .wait()
            .map(|_| ())
    }

    /// Blocking `MPI_RSEND` (ready mode — receiver must already be posted).
    pub fn rsend<T: MpiPrimitive>(&self, data: &[T], dest: i32, tag: i32) -> MpiResult<()> {
        let mode = SendMode::Ready;
        self.isend_typed(data, dest, tag, mode, CallOpts::TYPED)?
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
        let mode = SendMode::Buffered;
        self.isend_typed(data, dest, tag, mode, CallOpts::TYPED)?
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

    /// `MPI_PROBE`: block until a matching message is available. A dead
    /// `source` ends the wait ([`Communicator::wait_for_source`]).
    pub fn probe(&self, source: i32, tag: i32) -> MpiResult<Status> {
        self.wait_for_source(source, || self.peek(source, tag).transpose())?
    }

    /// Wait for `poll`, a probe of messages from `source`: a dead source
    /// (not `MPI_ANY_SOURCE`) or a revoked communicator ends the wait
    /// through the errhandler.
    pub(crate) fn wait_for_source<M>(
        &self,
        source: i32,
        mut poll: impl FnMut() -> Option<M>,
    ) -> MpiResult<M> {
        let peer = (usize::try_from(source).ok())
            .filter(|&s| s < self.size())
            .map(|s| self.world_rank_of(s));
        let (fatal, ctx) = (self.errors_are_fatal(), Some(self.context_id().0));
        let polled = wait_for(&self.proc, || {
            poll_or_death(&self.proc, peer, ctx, &mut poll)
        });
        fatal_filter(polled, fatal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Errhandler;
    use crate::match_bits::ANY_TAG;
    use crate::universe::Universe;

    /// The eager envelope `[0, 7]` with one bit of its kind byte flipped:
    /// what a corrupting link without a CRC handed the decoders (kind 1 is
    /// a truncated rendezvous descriptor, every other kind is unknown).
    fn damaged_envelopes() -> impl Iterator<Item = (i32, Bytes)> {
        (0..8).map(|bit| (bit, Bytes::from(vec![1u8 << bit, 7])))
    }

    /// Put `payload` in the one rank's own matching queue under `tag` on
    /// `world`, past the send path that would have framed it.
    fn inject_damaged(world: &Communicator, tag: i32, payload: Bytes) {
        let bits = match_bits::encode(world.context_id(), world.rank(), tag);
        let proc = &world.proc;
        proc.endpoint.tsend(proc.addr_of_world(0), bits, payload);
    }

    fn assert_integrity<T: std::fmt::Debug>(got: MpiResult<T>, what: &str, tag: i32) {
        assert!(
            matches!(got, Err(MpiError::Integrity(_))),
            "{what} of damaged envelope {tag}: {got:?}"
        );
    }

    #[test]
    fn a_damaged_envelope_is_an_integrity_error_on_receive() {
        Universe::run_default(1, |proc| {
            let world = proc.world();
            world.set_errhandler(Errhandler::ErrorsReturn);
            for (tag, payload) in damaged_envelopes() {
                inject_damaged(&world, tag, payload);
                let mut buf = [0u8; 1];
                assert_integrity(world.recv_into(&mut buf, 0, tag), "recv", tag);
            }
        });
    }

    /// The probes read the envelope too: `iprobe` leaves a damaged message
    /// queued (the receive then reports it as well), `mprobe` consumes it.
    #[test]
    fn probes_of_a_damaged_envelope_are_integrity_errors() {
        Universe::run_default(1, |proc| {
            let world = proc.world();
            world.set_errhandler(Errhandler::ErrorsReturn);
            for (tag, payload) in damaged_envelopes() {
                inject_damaged(&world, tag, payload);
                let mut buf = [0u8; 1];
                if tag % 2 == 0 {
                    assert_integrity(world.iprobe(0, tag), "iprobe", tag);
                    assert_integrity(world.recv_into(&mut buf, 0, tag), "recv", tag);
                } else {
                    let got = world.mprobe(0, tag).and_then(|m| m.mrecv(&mut buf));
                    assert_integrity(got, "mprobe", tag);
                }
                assert!(
                    world.iprobe(0, tag).unwrap().is_none(),
                    "tag {tag} left queued"
                );
            }
        });
    }

    #[test]
    fn send_opts_default_is_classic_path() {
        let o = SendOptions::default();
        assert!(!o.no_proc_null && !o.global_rank && !o.no_match && !o.no_request);
        assert_eq!(o, CallOpts::TYPED.flags);
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
