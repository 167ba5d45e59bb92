//! One-sided communication (RMA) — the paper's `MPI_PUT` critical path.
//!
//! The fast path mirrors CH4: when the provider has native RDMA and the
//! origin layout is contiguous, a put is a single descriptor handed to the
//! fabric — the 44-instruction path of Table 1. Non-contiguous layouts and
//! RDMA-less providers take the CH4 core's active-message fallback; the
//! `original` device *always* emulates RMA over active messages, which is
//! precisely why the paper measures 1342 instructions for CH3's `MPI_PUT`.
//!
//! Synchronization is built the way foMPI builds it. Every rank's region
//! handle is resolved once, at window creation, so no operation looks a
//! key up. A passive-target operation goes at the target's region when it
//! is issued, straight from the user buffer — MPI-3.1 §11.5 *guarantees*
//! completion at `flush`/`unlock` and forbids nothing earlier — so
//! `flush`/`unlock` are a check of two per-target counters
//! (`TargetEpoch`), a lock is one atomic word per target
//! (`TargetLock`), and a fence whose epoch used only native operations
//! is a single `allreduce` ([`Window::fence`]).
//!
//! Each data-moving operation — put, get, accumulate, fetch-and-op — has
//! one body, which both of its forms call: `put` and `rput` alike pass
//! through `put_inner`, with the same prologue, the same native-or-AM
//! choice and the same AM send. The body's type argument, a `Form`, says
//! how the caller completes the op, and the body decides from it the
//! three things that differ: a request is charged `REQUEST_MANAGEMENT` and
//! no flush retires it, an AM put or accumulate issued as a request is
//! acknowledged, and only a request hands a failure to the errhandler.
//! What is left to wait for — nothing, or the target's AM answer — goes
//! back through the form, and an answer is awaited in one place,
//! `Request::rma`, so a dead target or a revoked window reads the same
//! from `get` as from `rget`. Each body is compiled once per form: the
//! blocking form builds no request on the native path, and its code is
//! what it would be written alone.
//!
//! §3.2's proposal is implemented as the `*_virtual_addr` operations on
//! [`VirtAddr`] handles (usable on *all* window kinds, removing the dynamic
//! -window disadvantage the paper describes); §3.3's precreated-handle idea
//! appears as the `all_opts` put variant in `ext.rs`.

use crate::comm::Communicator;
use crate::error::{MpiError, MpiResult};
use crate::match_bits::PROC_NULL;
use crate::op::Op;
use crate::process::{acc_code_of, ProcInner, ReplySlot};
use crate::proto;
use crate::request::{poll_or_failure, wait_for, RecvDest, Request};
use crate::status::Status;
use bytes::Bytes;
use litempi_datatype::{pack, Datatype, MpiPrimitive};
use litempi_fabric::{MemoryRegion, NetAddr, RegionKey};
use litempi_instr::{charge, cost, Category};
use parking_lot::Mutex;
use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A remotely accessible virtual address (§3.2): names a registered region
/// and a byte offset within it. Obtained from [`Window::base_addr`] or
/// [`Window::attach`], then offset with [`VirtAddr::byte_offset`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VirtAddr {
    pub(crate) key: RegionKey,
    pub(crate) byte: usize,
}

impl VirtAddr {
    /// Displace the address by `delta` bytes. Checked: an offset that
    /// overflows the address space is an RMA range error, not a debug
    /// panic (or a silent wrap in release that would alias byte 0).
    pub fn byte_offset(self, delta: usize) -> MpiResult<VirtAddr> {
        let byte = self
            .byte
            .checked_add(delta)
            .ok_or(MpiError::InvalidWin("virtual-address offset overflows"))?;
        Ok(VirtAddr {
            key: self.key,
            byte,
        })
    }

    /// Serialize for the wire (applications exchange window addresses with
    /// peers, e.g. after `MPI_WIN_ATTACH` on a dynamic window — the MPI
    /// analogue is sending an `MPI_Aint`).
    pub fn to_raw(self) -> (u64, u64) {
        (self.key.0, self.byte as u64)
    }

    /// Reconstruct an address received from a peer.
    pub fn from_raw(key: u64, byte: u64) -> VirtAddr {
        VirtAddr {
            key: RegionKey(key),
            byte: byte as usize,
        }
    }
}

/// `MPI_LOCK_SHARED` / `MPI_LOCK_EXCLUSIVE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockType {
    /// Multiple concurrent origins allowed.
    Shared,
    /// Single origin.
    Exclusive,
}

/// Passive-target lock word of one target rank, in foMPI's layout: the top
/// bit is the exclusive holder, the bits below count the shared holders.
/// Acquiring is a compare-and-swap on the word — from zero for exclusive,
/// adding one while the writer bit is clear for shared — retried while the
/// waiter drives progress, so it sees a dead or revoked target as an
/// error; a failed attempt leaves the word as it was. Beside the word, the
/// number of origins waiting for it: a release that finds one announces
/// itself.
#[derive(Debug, Default)]
pub(crate) struct TargetLock {
    word: AtomicU64,
    waiting: AtomicU64,
}

impl TargetLock {
    const WRITER: u64 = 1 << 63;

    // The word's accesses and `waiting`'s are `SeqCst` (on x86 the same
    // instructions as weaker orders): a waiter counts itself, then tries
    // the word; a releaser frees the word, then reads the count — so
    // either the try sees the word free or the release sees the waiter.
    fn try_acquire(&self, kind: LockType) -> bool {
        match kind {
            LockType::Exclusive => self
                .word
                .compare_exchange(0, Self::WRITER, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok(),
            LockType::Shared => (self.word)
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |w| {
                    (w & Self::WRITER == 0).then_some(w + 1)
                })
                .is_ok(),
        }
    }

    /// Free the word; `true` if an origin waits for it.
    fn release(&self, kind: LockType) -> bool {
        let held = match kind {
            LockType::Exclusive => Self::WRITER,
            LockType::Shared => 1,
        };
        let before = self.word.fetch_sub(held, Ordering::SeqCst);
        debug_assert!(match kind {
            LockType::Exclusive => before & Self::WRITER != 0,
            LockType::Shared => before & !Self::WRITER != 0,
        });
        self.waiting.load(Ordering::SeqCst) != 0
    }
}

thread_local! {
    /// Passive-target locks the calling thread holds, as (window handle,
    /// target, kind). A lock epoch belongs to the thread that opened it:
    /// injector threads sharing one [`Window`] each lock, issue and unlock
    /// on their own, and a second thread asking for a target its sibling
    /// holds waits for it like any other origin.
    static HELD: RefCell<Vec<(u64, usize, LockType)>> = const { RefCell::new(Vec::new()) };
}

/// Names a [`Window`] handle in [`HELD`]; unique for the process lifetime,
/// so an entry left behind by a dropped window can never match a new one.
static NEXT_HANDLE: AtomicU64 = AtomicU64::new(0);

/// Window kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WinKind {
    /// `MPI_WIN_CREATE` / `MPI_WIN_ALLOCATE`: offset-addressed.
    Static,
    /// `MPI_WIN_CREATE_DYNAMIC`: address-based only (§3.2 discussion).
    Dynamic,
}

/// State shared by all ranks of a window. Every rank's region handle is
/// resolved here once, at creation, so no operation looks a key up.
pub(crate) struct WinShared {
    pub id: u64,
    pub regions: Vec<MemoryRegion>,
    pub lens: Vec<usize>,
    pub disp_units: Vec<usize>,
    pub locks: Vec<TargetLock>,
}

/// One rank's side of a window as its AM progress engine sees it: the
/// memory it exposes, how many AM-fallback ops it has applied there (what
/// `fence` waits on) and the PSCW notices that named it (what `start` and
/// `wait` wait on).
pub(crate) struct WinTarget {
    pub region: MemoryRegion,
    pub applied: AtomicU64,
    pub pscw: Mutex<PscwCounters>,
}

/// PSCW notices one window has received.
#[derive(Debug, Default)]
pub(crate) struct PscwCounters {
    /// Ranks whose "post" we have received (we are an origin in `start`).
    pub posts: Vec<usize>,
    /// Number of "complete" notices received (we are a target in `wait`).
    pub completes: usize,
}

/// Which access epoch an operation is issued under. It routes the AM
/// fallback: in an exposure-driven epoch (`Fence`, `Start`) a non-native op
/// travels as an active message the target applies; in a `Passive` epoch
/// the target may never enter the library, so every op goes straight at its
/// region — a device-offloaded handler, in the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EpochKind {
    Fence,
    Start,
    Passive,
}

/// Per-target epoch words, lock-free: `issued` counts the puts and
/// accumulates issued under a passive-target epoch, `completed` is the
/// watermark `flush`/`unlock` raise to it — so a flush is a counter check:
/// read one word, raise the other, retire the difference. (Everything
/// else — gets, fetching atomics, active-target ops — is complete when its
/// call returns and has no business here.)
#[derive(Debug, Default)]
struct TargetEpoch {
    issued: AtomicU64,
    completed: AtomicU64,
}

/// How the caller of an operation body completes the op: [`Blocking`] or
/// [`Requested`]. The two forms share the prologue, the native-or-AM choice
/// and the AM send; they differ in three things, each decided in the body
/// from `REQUEST`, and in what the call returns. The body is compiled once
/// per form, so the blocking form's code is what it would be written alone.
pub(crate) trait Form {
    /// A request form: `REQUEST_MANAGEMENT` is charged, the op is complete
    /// at return or at the target's answer and no flush retires it, an AM
    /// put or accumulate is acknowledged, and the window's errhandler
    /// applies when the request completes.
    const REQUEST: bool;
    /// What the call returns.
    type Out<'buf>;
    /// Nothing is left to wait for: the op had no target, or was complete
    /// at return; `status` is what its request reports.
    fn done<'buf>(status: Status) -> Self::Out<'buf>;
    /// The target's AM answer is left, awaited by `reply`.
    fn reply(reply: Request<'_>) -> MpiResult<Self::Out<'_>>;
}

/// `MPI_PUT` & co. return once the op is complete. A passive put or
/// accumulate is counted for the flush (`OP_QUEUE`, then `FLUSH_OP`); an AM
/// put or accumulate asks for no acknowledgement (the fence counts it in);
/// a failure is returned, never handed to the errhandler.
pub(crate) struct Blocking;

impl Form for Blocking {
    const REQUEST: bool = false;
    type Out<'buf> = ();
    fn done<'buf>(_: Status) -> Self::Out<'buf> {}
    fn reply(reply: Request<'_>) -> MpiResult<()> {
        reply.wait().map(drop)
    }
}

/// `MPI_RPUT` & co. return a request (see [`Form::REQUEST`]).
pub(crate) struct Requested;

impl Form for Requested {
    const REQUEST: bool = true;
    type Out<'buf> = Request<'buf>;
    fn done<'buf>(status: Status) -> Request<'buf> {
        Request::done(status)
    }
    fn reply(reply: Request<'_>) -> MpiResult<Request<'_>> {
        Ok(reply)
    }
}

/// How an operation was called: where it goes, and which of the paper's
/// shortcuts the entry point takes.
#[derive(Clone, Copy)]
pub(crate) struct Call {
    target: i32,
    /// Element displacement (unused with `vaddr`).
    disp: usize,
    /// §3.2: the pre-translated address, when the caller used the
    /// extension.
    vaddr: Option<VirtAddr>,
    /// §3.7: the fused path, which skips the mandatory §3 overheads.
    skip_checks: bool,
    /// §2.2 Class 2: the datatype is a compile-time constant.
    static_type: bool,
}

impl Call {
    /// A typed call at `target`'s element displacement `disp`.
    fn typed(target: i32, disp: usize) -> Call {
        Call {
            target,
            disp,
            vaddr: None,
            skip_checks: false,
            static_type: true,
        }
    }

    /// A typed call through a §3.2 address; `fused` is §3.7's put with
    /// every applicable proposal.
    pub(crate) fn virtual_addr(target: i32, addr: VirtAddr, fused: bool) -> Call {
        let mut call = Call::typed(target, 0);
        (call.vaddr, call.skip_checks) = (Some(addr), fused);
        call
    }
}

/// Where an operation lands, as resolved by the prologue.
struct Access<'w> {
    /// Target rank in the window and its fabric address.
    t: usize,
    dst: NetAddr,
    /// The window-resident handle, or the one looked up for an address
    /// that names some other region (dynamic windows).
    region: Cow<'w, MemoryRegion>,
    byte: usize,
    epoch: EpochKind,
}

impl Access<'_> {
    /// The status of a fetching op of `bytes` that was complete at return.
    fn fetched(&self, bytes: usize) -> Status {
        let source = self.t as i32;
        Status {
            source,
            tag: 0,
            bytes,
        }
    }
}

/// An RMA window.
///
/// `Window` is `Sync`: passive-target operations may be injected from
/// multiple threads through one handle. All
/// synchronization state is either atomic (lock words, epoch flags and
/// counters), thread-local (which locks the caller holds) or behind
/// short-lived mutexes that are never held across fabric calls.
pub struct Window {
    shared: Arc<WinShared>,
    mine: Arc<WinTarget>,
    comm: Communicator,
    /// Context id of the communicator the window was created over. The
    /// window runs on a private dup, but ULFM revocation of the parent
    /// must still poison the window's epochs.
    parent_ctx: u16,
    kind: WinKind,
    /// This handle's name in [`HELD`].
    handle: u64,
    fence_active: AtomicBool,
    start_group: Mutex<Option<Vec<usize>>>,
    post_group: Mutex<Option<Vec<usize>>>,
    lock_all: AtomicBool,
    /// AM ops sent per target since the last fence (fence completion).
    sent_am: Vec<AtomicU64>,
    /// Per-target epoch words.
    epochs: Vec<TargetEpoch>,
    /// Regions attached after creation (dynamic windows).
    attached: Mutex<Vec<MemoryRegion>>,
}

impl Window {
    fn proc(&self) -> &Arc<ProcInner> {
        &self.comm.proc
    }

    /// `MPI_WIN_CREATE`/`MPI_WIN_ALLOCATE` (collective): expose `len` bytes
    /// with the given displacement unit. (Both MPI functions map here: the
    /// window memory lives in the fabric's registered-region store, which
    /// is what `MPI_WIN_ALLOCATE` does on RDMA networks.)
    pub fn create(comm: &Communicator, len: usize, disp_unit: usize) -> MpiResult<Window> {
        if disp_unit == 0 {
            return Err(MpiError::InvalidWin("displacement unit must be positive"));
        }
        Window::build(comm, len, disp_unit, WinKind::Static)
    }

    /// `MPI_WIN_CREATE_DYNAMIC` (collective): no initial memory; use
    /// [`Window::attach`] and address-based operations.
    pub fn create_dynamic(comm: &Communicator) -> MpiResult<Window> {
        Window::build(comm, 0, 1, WinKind::Dynamic)
    }

    fn build(
        comm: &Communicator,
        len: usize,
        disp_unit: usize,
        kind: WinKind,
    ) -> MpiResult<Window> {
        let wcomm = comm.dup();
        let proc = wcomm.proc.clone();
        let region = proc.endpoint.register(len);
        let mine = [region.key().0, len as u64, disp_unit as u64];
        let all = wcomm.allgather(&mine)?;
        let size = wcomm.size();
        let univ = &proc.univ;
        let ctx = wcomm.context_id().0;
        let shared = univ.meet.meet((ctx, u64::MAX, 0), size, || WinShared {
            id: univ.next_win.fetch_add(1, Ordering::Relaxed),
            regions: (0..size)
                .map(|r| univ.fabric.region(RegionKey(all[3 * r])))
                .collect(),
            lens: (0..size).map(|r| all[3 * r + 1] as usize).collect(),
            disp_units: (0..size).map(|r| all[3 * r + 2] as usize).collect(),
            locks: (0..size).map(|_| TargetLock::default()).collect(),
        });
        let mine = Arc::new(WinTarget {
            region,
            applied: AtomicU64::new(0),
            pscw: Mutex::new(PscwCounters::default()),
        });
        proc.my_windows.lock().insert(shared.id, mine.clone());
        let win = Window {
            shared,
            mine,
            parent_ctx: comm.context_id().0,
            kind,
            handle: NEXT_HANDLE.fetch_add(1, Ordering::Relaxed),
            fence_active: AtomicBool::new(false),
            start_group: Mutex::new(None),
            post_group: Mutex::new(None),
            lock_all: AtomicBool::new(false),
            sent_am: (0..size).map(|_| AtomicU64::new(0)).collect(),
            epochs: (0..size).map(|_| TargetEpoch::default()).collect(),
            attached: Mutex::new(Vec::new()),
            comm: wcomm,
        };
        // Ensure every rank has registered the window with its progress
        // engine before anyone issues one-sided traffic at it.
        win.comm.barrier()?;
        Ok(win)
    }

    /// `MPI_WIN_FREE` (collective).
    pub fn free(self) -> MpiResult<()> {
        self.comm.barrier()?;
        let proc = self.proc().clone();
        proc.my_windows.lock().remove(&self.shared.id);
        proc.endpoint.deregister(self.mine.region.key());
        Ok(())
    }

    /// Number of ranks in the window.
    pub fn size(&self) -> usize {
        self.comm.size()
    }

    /// My rank in the window's communicator.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// Exposed length (bytes) at `rank`.
    pub fn len_at(&self, rank: usize) -> usize {
        self.shared.lens[rank]
    }

    /// Displacement unit at `rank`.
    pub fn disp_unit_at(&self, rank: usize) -> usize {
        self.shared.disp_units[rank]
    }

    /// The base virtual address of `rank`'s exposed memory (§3.2: the
    /// application can store these and use address-based operations).
    pub fn base_addr(&self, rank: usize) -> VirtAddr {
        VirtAddr {
            key: self.shared.regions[rank].key(),
            byte: 0,
        }
    }

    /// `MPI_WIN_ATTACH` (dynamic windows): expose `len` more bytes; returns
    /// their base address, valid on any rank.
    pub fn attach(&self, len: usize) -> MpiResult<VirtAddr> {
        if self.kind != WinKind::Dynamic {
            return Err(MpiError::InvalidWin("attach on a static window"));
        }
        let region = self.proc().endpoint.register(len);
        let addr = VirtAddr {
            key: region.key(),
            byte: 0,
        };
        self.attached.lock().push(region);
        Ok(addr)
    }

    /// Read my own exposed memory (the target side of a test).
    pub fn read_local(&self, offset: usize, len: usize) -> Vec<u8> {
        self.mine.region.read(offset, len)
    }

    /// Write my own exposed memory directly (initialization).
    pub fn write_local(&self, offset: usize, data: &[u8]) {
        self.mine.region.write(offset, data);
    }

    // ------------------------------------------------------------- epochs

    /// The lock the calling thread holds on `target` through this handle.
    fn held(&self, target: usize) -> Option<LockType> {
        HELD.with_borrow(|h| {
            h.iter()
                .find(|&&(w, t, _)| w == self.handle && t == target)
                .map(|&(_, _, kind)| kind)
        })
    }

    fn epoch_for(&self, target: usize) -> Option<EpochKind> {
        if self.lock_all.load(Ordering::Acquire) || self.held(target).is_some() {
            Some(EpochKind::Passive)
        } else if self
            .start_group
            .lock()
            .as_ref()
            .is_some_and(|g| g.contains(&target))
        {
            Some(EpochKind::Start)
        } else if self.fence_active.load(Ordering::Acquire) {
            Some(EpochKind::Fence)
        } else {
            None
        }
    }

    /// `MPI_WIN_FENCE`: close the previous fence epoch and open the next,
    /// in one collective when the epoch's ops were all native.
    ///
    /// Summing every rank's per-target AM-op counts is both the barrier
    /// (nobody leaves before everybody arrived, and a native op is applied
    /// when its call returns) and the count exchange: my column of the sum
    /// is how many AM-fallback ops were sent at me. Only when some rank
    /// sent one is there more to do — wait until mine are applied, then a
    /// barrier, because a rank that left now could start the next epoch
    /// with a native put that overtakes an AM op still on its way to the
    /// same target.
    pub fn fence(&self) -> MpiResult<()> {
        let sent: Vec<u64> = self
            .sent_am
            .iter()
            .map(|c| c.swap(0, Ordering::AcqRel))
            .collect();
        let sent = self.comm.allreduce(&sent, &Op::Sum)?;
        if sent.iter().any(|&n| n != 0) {
            let (me, due) = (self.comm.rank(), sent[self.comm.rank()]);
            let applied = &self.mine.applied;
            let alive = || self.check_target_alive(me);
            let ready = || (applied.load(Ordering::Acquire) >= due).then_some(());
            self.wait_for(alive, ready)?;
            applied.fetch_sub(due, Ordering::AcqRel);
            self.comm.barrier()?;
        }
        self.fence_active.store(true, Ordering::Release);
        Ok(())
    }

    /// `MPI_WIN_POST`: open an exposure epoch toward `origins` (window
    /// ranks).
    pub fn post(&self, origins: &[usize]) -> MpiResult<()> {
        if self.post_group.lock().is_some() {
            return Err(MpiError::RmaSync("post inside an exposure epoch"));
        }
        self.notify(origins, proto::AM_PSCW_POST);
        *self.post_group.lock() = Some(origins.to_vec());
        Ok(())
    }

    /// Send a PSCW notice (post or complete) to each of `peers`.
    fn notify(&self, peers: &[usize], handler: u16) {
        let proc = self.proc();
        for &p in peers {
            proc.endpoint.am_send(
                proc.addr_of_world(self.comm.world_rank_of(p)),
                handler,
                proto::header(self.shared.id, 0, 0, self.comm.rank() as u64),
                Bytes::new(),
            );
        }
    }

    /// Wait on this window's PSCW counters until `ready` consumes what it
    /// was waiting for; a dead or revoked peer among `peers` ends the wait.
    fn pscw_wait(
        &self,
        peers: &[usize],
        mut ready: impl FnMut(&mut PscwCounters) -> bool,
    ) -> MpiResult<()> {
        self.wait_for(
            || peers.iter().try_for_each(|&p| self.check_target_alive(p)),
            || ready(&mut self.mine.pscw.lock()).then_some(()),
        )
    }

    /// `MPI_WIN_START`: open an access epoch toward `targets`, waiting for
    /// their posts.
    pub fn start(&self, targets: &[usize]) -> MpiResult<()> {
        if self.start_group.lock().is_some() {
            return Err(MpiError::RmaSync("start inside an access epoch"));
        }
        self.pscw_wait(targets, |c| {
            let all = targets.iter().all(|t| c.posts.contains(t));
            if all {
                c.posts.retain(|r| !targets.contains(r));
            }
            all
        })?;
        *self.start_group.lock() = Some(targets.to_vec());
        Ok(())
    }

    /// `MPI_WIN_COMPLETE`: close the access epoch; per-pair FIFO guarantees
    /// targets apply our ops before seeing the completion notice.
    pub fn complete(&self) -> MpiResult<()> {
        let targets = self
            .start_group
            .lock()
            .take()
            .ok_or(MpiError::RmaSync("complete without start"))?;
        self.notify(&targets, proto::AM_PSCW_COMPLETE);
        Ok(())
    }

    /// `MPI_WIN_WAIT`: close the exposure epoch once every origin has
    /// completed.
    pub fn wait(&self) -> MpiResult<()> {
        let origins = self
            .post_group
            .lock()
            .take()
            .ok_or(MpiError::RmaSync("wait without post"))?;
        let n = origins.len();
        self.pscw_wait(&origins, |c| {
            let all = c.completes >= n;
            if all {
                c.completes -= n;
            }
            all
        })
    }

    /// Take `target`'s lock word, or learn why that cannot happen. A dead
    /// or revoked target fails the call even while its word is free.
    fn acquire(&self, target: usize, kind: LockType) -> MpiResult<()> {
        self.check_target_alive(target)?;
        let lock = &self.shared.locks[target];
        if lock.try_acquire(kind) {
            return Ok(());
        }
        lock.waiting.fetch_add(1, Ordering::SeqCst);
        let got = self.wait_for(
            || self.check_target_alive(target),
            || lock.try_acquire(kind).then_some(()),
        );
        lock.waiting.fetch_sub(1, Ordering::SeqCst);
        got
    }

    /// Free `target`'s lock word, waking the origins parked on it: a word
    /// in another rank's window changes without a packet, so its releaser
    /// raises the event, on every rank of the window.
    fn release(&self, target: usize, kind: LockType) {
        if self.shared.locks[target].release(kind) {
            let proc = self.proc();
            for r in 0..self.size() {
                let rank = proc.addr_of_world(self.comm.world_rank_of(r));
                proc.endpoint.signal_peer(rank);
            }
        }
    }

    /// `MPI_WIN_LOCK`. A thread that asks again for a target it already
    /// holds is in error; one whose sibling holds it waits its turn.
    pub fn lock(&self, kind: LockType, target: usize) -> MpiResult<()> {
        if self.lock_all.load(Ordering::Acquire) {
            return Err(MpiError::RmaSync("lock inside lock_all"));
        }
        if self.held(target).is_some() {
            return Err(MpiError::RmaSync("lock already held for target"));
        }
        self.acquire(target, kind)?;
        HELD.with_borrow_mut(|h| h.push((self.handle, target, kind)));
        Ok(())
    }

    /// `MPI_WIN_UNLOCK`: complete the epoch's operations at the target,
    /// *then* release the lock — another origin acquiring it next must see
    /// our updates (MPI-3 §11.5.3).
    pub fn unlock(&self, target: usize) -> MpiResult<()> {
        let kind = HELD
            .with_borrow_mut(|h| {
                let pos = h
                    .iter()
                    .position(|&(w, t, _)| w == self.handle && t == target)?;
                Some(h.swap_remove(pos).2)
            })
            .ok_or(MpiError::RmaSync("unlock without lock"))?;
        self.retire(target);
        self.release(target, kind);
        Ok(())
    }

    /// `MPI_WIN_LOCK_ALL` (shared lock on every target).
    pub fn lock_all(&self) -> MpiResult<()> {
        if self.lock_all.load(Ordering::Acquire) {
            return Err(MpiError::RmaSync("lock_all inside lock_all"));
        }
        if HELD.with_borrow(|h| h.iter().any(|&(w, ..)| w == self.handle)) {
            return Err(MpiError::RmaSync("lock_all inside lock"));
        }
        for t in 0..self.size() {
            if let Err(e) = self.acquire(t, LockType::Shared) {
                for held in 0..t {
                    self.release(held, LockType::Shared);
                }
                return Err(e);
            }
        }
        self.lock_all.store(true, Ordering::Release);
        Ok(())
    }

    /// `MPI_WIN_UNLOCK_ALL`: complete every target's operations, then
    /// release.
    pub fn unlock_all(&self) -> MpiResult<()> {
        if !self.lock_all.load(Ordering::Acquire) {
            return Err(MpiError::RmaSync("unlock_all without lock_all"));
        }
        for t in 0..self.size() {
            self.retire(t);
        }
        for t in 0..self.size() {
            self.release(t, LockType::Shared);
        }
        self.lock_all.store(false, Ordering::Release);
        Ok(())
    }

    /// The fixed part of every flush call.
    fn flush_base(&self) {
        charge(Category::Rma, cost::rma::FLUSH_BASE);
        self.proc().endpoint.note_win_flush();
        self.proc().progress();
    }

    /// `MPI_WIN_FLUSH`: complete all outstanding operations to `target`,
    /// at both origin and target — make the target's epoch words meet.
    pub fn flush(&self, target: usize) -> MpiResult<()> {
        self.check_target_alive(target)?;
        self.retire(target);
        self.flush_base();
        Ok(())
    }

    /// `MPI_WIN_FLUSH_ALL`.
    pub fn flush_all(&self) -> MpiResult<()> {
        for t in 0..self.size() {
            self.retire(t);
        }
        self.flush_base();
        Ok(())
    }

    /// `MPI_WIN_FLUSH_LOCAL`: complete outstanding operations to `target`
    /// at the *origin* only. An operation has read its origin buffer by
    /// the time its call returns, so only the synchronization cost is
    /// left; retiring the epoch's ops stays with [`Window::flush`] /
    /// [`Window::unlock`].
    pub fn flush_local(&self, target: usize) -> MpiResult<()> {
        self.check_target_alive(target)?;
        self.flush_base();
        Ok(())
    }

    /// `MPI_WIN_FLUSH_LOCAL_ALL`.
    pub fn flush_local_all(&self) -> MpiResult<()> {
        self.flush_base();
        Ok(())
    }

    /// Number of passive-target puts and accumulates issued toward
    /// `target` that no flush has retired yet (exposed for tests and
    /// diagnostics). Zero after a flush.
    pub fn pending_ops(&self, target: usize) -> u64 {
        let e = &self.epochs[target];
        let completed = e.completed.load(Ordering::Acquire);
        e.issued.load(Ordering::Acquire).saturating_sub(completed)
    }

    // ------------------------------------------------- passive-target core

    /// [`target_alive`] for window rank `target`. Its world rank is looked
    /// up only once something in the job has failed: in a healthy job the
    /// check is the one load.
    fn check_target_alive(&self, target: usize) -> MpiResult<()> {
        let proc = self.proc();
        if proc.endpoint.fabric().fault_free() {
            return Ok(());
        }
        target_alive(proc, &self.ctxs(), self.comm.world_rank_of(target))
    }

    /// Wait until `ready` yields or `alive` reports a dead or revoked peer.
    #[track_caller]
    fn wait_for<M>(
        &self,
        mut alive: impl FnMut() -> MpiResult<()>,
        mut ready: impl FnMut() -> Option<M>,
    ) -> MpiResult<M> {
        let proc = self.proc();
        wait_for(proc, || poll_or_failure(proc, &mut alive, &mut ready))
    }

    /// Context ids of the window's communicator and of its parent.
    fn ctxs(&self) -> [u16; 2] {
        [self.comm.context_id().0, self.parent_ctx]
    }

    /// The completion point of `flush`/`unlock` toward `target`. Every
    /// store is in the target's memory when its call returns, so there is
    /// nothing to wait for (a fabric with asynchronous writes would wait
    /// on its completion counter here): raise the watermark to what was
    /// issued and retire the difference. `fetch_max` hands each op to
    /// exactly one of several sibling threads flushing at once.
    fn retire(&self, target: usize) {
        let e = &self.epochs[target];
        let issued = e.issued.load(Ordering::Acquire);
        let n = issued.saturating_sub(e.completed.fetch_max(issued, Ordering::AcqRel));
        if n > 0 {
            charge(Category::Rma, n * cost::rma::FLUSH_OP);
            self.proc().endpoint.note_win_ops_completed(n);
        }
    }

    /// Account one one-sided op that is complete when its call returns.
    /// Stats only — no instruction charge, so the calibrated injection
    /// pins are untouched.
    fn note_sync_op(&self) {
        let ep = &self.proc().endpoint;
        ep.note_win_ops_issued(1);
        ep.note_win_ops_completed(1);
    }

    /// Account one put or accumulate that is done at return. A blocking
    /// one under a passive-target epoch carries the model's issue charge
    /// and stays outstanding until a flush retires it (and is charged for
    /// that); a request form carries its own completion, so no flush
    /// retires it.
    fn note_store<F: Form>(&self, a: &Access<'_>) {
        if a.epoch == EpochKind::Passive && !F::REQUEST {
            charge(Category::Rma, cost::rma::OP_QUEUE);
            self.epochs[a.t].issued.fetch_add(1, Ordering::AcqRel);
            self.proc().endpoint.note_win_ops_issued(1);
        } else {
            self.note_sync_op();
        }
    }

    // ---------------------------------------------------------- prologue

    /// MPI-layer + mandatory-overhead prologue for the put-family path:
    /// an op of `bytes` of `ty`, called as `call` says. Returns `None` for
    /// `MPI_PROC_NULL` targets.
    fn rma_prologue<F: Form>(
        &self,
        bytes: usize,
        ty: &Datatype,
        call: Call,
    ) -> MpiResult<Option<Access<'_>>> {
        let proc = self.proc();
        let (target, skip_checks) = (call.target, call.skip_checks);
        // Build-config overheads (Table 1 rows 1–4) apply to every put-
        // family entry point; `skip_checks` (the §3.7 fused path) removes
        // only the *mandatory* §3 overheads below.
        if proc.config.error_checking {
            charge(Category::ErrorChecking, cost::put::ERROR_CHECKING);
            if !ty.is_committed() {
                return Err(MpiError::InvalidDatatype(
                    litempi_datatype::TypeError::NotCommitted,
                ));
            }
            if target != PROC_NULL && !skip_checks {
                self.comm.group().check_rank(target)?;
            }
        }
        proc.with_cs(cost::put::THREAD_CHECK, || ());
        if !proc.config.ipo {
            charge(Category::FunctionCall, cost::put::FUNCTION_CALL);
        }
        if crate::pt2pt::redundant_checks_remain(&proc.config, call.static_type) {
            charge(Category::RedundantChecks, cost::put::REDUNDANT_CHECKS);
        }
        if !skip_checks {
            charge(Category::ProcNullCheck, cost::put::PROC_NULL_CHECK);
        }
        if target == PROC_NULL {
            return Ok(None);
        }
        let t = target as usize;
        // ULFM wiring: fail fast (uncharged — not part of the paper's
        // fault-free injection counts) instead of issuing at a dead or
        // revoked target, where the op would hang or apply silently.
        self.check_target_alive(t)?;
        let epoch = self
            .epoch_for(t)
            .ok_or(MpiError::RmaSync("RMA operation outside an access epoch"))?;
        if !skip_checks {
            // §3.3: dereference into the window object.
            charge(Category::ObjectDeref, cost::put::OBJECT_DEREF);
            // §3.1: target rank → network address.
            charge(
                Category::CommRankTranslation,
                cost::put::COMM_RANK_TRANSLATION,
            );
        }
        let checked = proc.config.error_checking && !skip_checks;
        let beyond = || MpiError::InvalidWin("access beyond exposed window");
        let resident = &self.shared.regions[t];
        let (region, byte, extent) = match call.vaddr {
            // §3.2 pre-translated address into the window's own region.
            Some(a) if a.key == resident.key() => {
                (Cow::Borrowed(resident), a.byte, self.shared.lens[t])
            }
            // An address naming some other region (attached to a dynamic
            // window): the one place an operation looks a key up.
            Some(a) => {
                let fabric = proc.endpoint.fabric();
                let extent = match fabric.region_len(a.key) {
                    Some(len) => len,
                    None if checked => {
                        return Err(MpiError::InvalidWin("RMA through a stale region key"))
                    }
                    None => 0,
                };
                (Cow::Owned(fabric.region(a.key)), a.byte, extent)
            }
            None => {
                if self.kind == WinKind::Dynamic {
                    return Err(MpiError::InvalidWin(
                        "offset-based RMA on a dynamic window (use *_virtual_addr)",
                    ));
                }
                if !skip_checks {
                    // §3.2: offset + displacement unit → virtual address.
                    charge(
                        Category::WinOffsetTranslation,
                        cost::put::WIN_OFFSET_TRANSLATION,
                    );
                }
                let unit = self.shared.disp_units[t];
                let byte = if checked {
                    call.disp.checked_mul(unit).ok_or_else(beyond)?
                } else {
                    call.disp * unit
                };
                (Cow::Borrowed(resident), byte, self.shared.lens[t])
            }
        };
        // Range-check against the region's extent (the NIC would fault
        // here; we return `MPI_ERR_WIN` instead of wrapping or panicking).
        if checked && byte.checked_add(bytes).is_none_or(|end| end > extent) {
            return Err(beyond());
        }
        if F::REQUEST {
            // §3.5: the request object.
            charge(Category::RequestManagement, cost::isend::REQUEST_MANAGEMENT);
        }
        Ok(Some(Access {
            t,
            dst: proc.addr_of_world(self.comm.world_rank_of(t)),
            region,
            byte,
            epoch,
        }))
    }

    /// Netmod decision: native RDMA fast path vs AM fallback, with the
    /// device-specific charges. Returns `true` when the caller should take
    /// the native path.
    fn native_path(&self, ty: &Datatype) -> bool {
        use crate::config::DeviceKind;
        let caps = self.proc().endpoint.fabric().profile().caps;
        self.proc().config.device == DeviceKind::Ch4 && caps.native_rdma && ty.is_contiguous()
    }

    fn charge_netmod(&self, native: bool) {
        use crate::config::DeviceKind;
        if self.proc().config.device == DeviceKind::Original {
            // CH3: RMA is emulated over pt2pt active messages.
            charge(Category::NetmodIssue, cost::put::NETMOD_ISSUE);
            charge(Category::OriginalLayering, cost::put::ORIGINAL_LAYERING);
        } else if native {
            charge(Category::NetmodIssue, cost::put::NETMOD_ISSUE);
        } else {
            charge(Category::NetmodIssue, cost::put::AM_FALLBACK);
        }
    }

    // ------------------------------------------------------- AM fallback

    /// Send one AM-fallback op to `a`'s target, `h3` the header's last
    /// word, and count it for the next fence.
    fn am_post(&self, a: &Access<'_>, handler: u16, len: usize, h3: u64, payload: Bytes) {
        let header = proto::header(self.shared.id, a.byte as u64, len as u64, h3);
        let ep = &self.proc().endpoint;
        ep.am_send(a.dst, handler, header, payload);
        self.sent_am[a.t].fetch_add(1, Ordering::AcqRel);
    }

    /// Send an AM-fallback op the target answers (get, get-accumulate,
    /// acknowledged put): its op id rides in `h3`, and what is left is the
    /// answer — landing in `dest` for a fetching op — awaited by
    /// `Request::rma` in either form. Issued now, completed at the answer.
    fn am_request<'buf, F: Form>(
        &self,
        a: &Access<'_>,
        handler: u16,
        len: usize,
        payload: Bytes,
        dest: Option<RecvDest<'buf>>,
    ) -> MpiResult<F::Out<'buf>> {
        let proc = self.proc();
        let op_id = proc.next_op_id.fetch_add(1, Ordering::Relaxed);
        let slot: ReplySlot = Arc::new(Mutex::new(None));
        proc.pending_replies.lock().insert(op_id, slot.clone());
        self.am_post(a, handler, len, op_id, payload);
        proc.endpoint.note_win_ops_issued(1);
        // A blocking call returns its error; only a request consults the
        // errhandler.
        let fatal = F::REQUEST && self.comm.errors_are_fatal();
        let (peer, ctxs) = (self.comm.world_rank_of(a.t), self.ctxs());
        F::reply(Request::rma(proc.clone(), slot, dest, peer, fatal, ctxs))
    }

    // -------------------------------------------------------------- ops

    /// `MPI_PUT` on raw bytes: write `count` elements of `ty` from `buf`
    /// to `target` at element displacement `disp`.
    pub fn put_bytes(
        &self,
        buf: &[u8],
        ty: &Datatype,
        count: usize,
        target: i32,
        disp: usize,
    ) -> MpiResult<()> {
        let mut call = Call::typed(target, disp);
        call.static_type = false;
        self.put_inner::<Blocking>(buf, ty, count, call)
    }

    /// The one body of `MPI_PUT` and `MPI_RPUT`, and of §3.2's and §3.7's
    /// puts.
    pub(crate) fn put_inner<F: Form>(
        &self,
        buf: &[u8],
        ty: &Datatype,
        count: usize,
        call: Call,
    ) -> MpiResult<F::Out<'static>> {
        let bytes = pack::packed_size(ty, count);
        let Some(a) = self.rma_prologue::<F>(bytes, ty, call)? else {
            return Ok(F::done(Status::send()));
        };
        let ep = &self.proc().endpoint;
        let native = self.native_path(ty);
        self.charge_netmod(native);
        if native || a.epoch == EpochKind::Passive {
            // One descriptor, no target involvement, straight from the
            // user buffer; a strided layout packs into the region itself.
            if ty.is_contiguous() {
                ep.rdma_put(a.dst, &a.region, a.byte, &buf[..bytes]);
            } else {
                ep.rdma_update(a.dst, &a.region, a.byte, bytes, |dst| {
                    pack::pack_into(ty, count, buf, dst);
                });
            }
        } else {
            // AM put stages one wire buffer; `Bytes::from` then moves it
            // (no second copy).
            litempi_instr::note_alloc(1);
            let packed = Bytes::from(if ty.is_contiguous() {
                buf[..bytes].to_vec()
            } else {
                pack::pack(ty, count, buf)
            });
            if F::REQUEST {
                // The target acknowledges once the put is applied.
                return self.am_request::<F>(&a, proto::AM_RMA_PUT, bytes, packed, None);
            }
            self.am_post(&a, proto::AM_RMA_PUT, bytes, 0, packed);
        }
        self.note_store::<F>(&a);
        Ok(F::done(Status::send()))
    }

    /// Typed `MPI_PUT` (a §2.2 Class-2 call: the datatype is a
    /// compile-time constant, so library IPO folds the size checks).
    pub fn put<T: MpiPrimitive>(&self, data: &[T], target: i32, disp: usize) -> MpiResult<()> {
        let call = Call::typed(target, disp);
        self.put_inner::<Blocking>(T::as_bytes(data), &T::DATATYPE, data.len(), call)
    }

    /// `MPI_GET` on raw bytes.
    pub fn get_bytes(
        &self,
        buf: &mut [u8],
        ty: &Datatype,
        count: usize,
        target: i32,
        disp: usize,
    ) -> MpiResult<()> {
        let mut call = Call::typed(target, disp);
        call.static_type = false;
        self.get_inner::<Blocking>(buf, ty, count, call)
    }

    /// The one body of `MPI_GET` and `MPI_RGET`, and of §3.2's get.
    pub(crate) fn get_inner<'buf, F: Form>(
        &self,
        buf: &'buf mut [u8],
        ty: &Datatype,
        count: usize,
        call: Call,
    ) -> MpiResult<F::Out<'buf>> {
        let bytes = pack::packed_size(ty, count);
        let Some(a) = self.rma_prologue::<F>(bytes, ty, call)? else {
            return Ok(F::done(Status::proc_null()));
        };
        let native = self.native_path(ty);
        self.charge_netmod(native);
        if native || a.epoch == EpochKind::Passive {
            // Region → user buffer, the one copy.
            let ep = &self.proc().endpoint;
            ep.rdma_get(a.dst, &a.region, a.byte, bytes, |wire| {
                unpack_into(ty, count, wire, buf)
            });
            self.note_sync_op();
            return Ok(F::done(a.fetched(bytes)));
        }
        // AM get: request/reply through the target's progress engine.
        let dest = RecvDest {
            buf,
            ty: ty.clone(),
            count,
        };
        self.am_request::<F>(&a, proto::AM_RMA_GET_REQ, bytes, Bytes::new(), Some(dest))
    }

    /// Typed `MPI_GET` (Class-2: compile-time-constant datatype).
    pub fn get<T: MpiPrimitive>(&self, buf: &mut [T], target: i32, disp: usize) -> MpiResult<()> {
        let (count, call) = (buf.len(), Call::typed(target, disp));
        self.get_inner::<Blocking>(T::as_bytes_mut(buf), &T::DATATYPE, count, call)
    }

    /// Checks shared by the accumulate family. A zero-count accumulate has
    /// no defined target element to touch; the AM/reply machinery (and
    /// `fetch_and_op`'s single-element contract) would otherwise index
    /// into an empty operand.
    fn check_acc<T: MpiPrimitive>(&self, data: &[T], op: &Op) -> MpiResult<()> {
        if data.is_empty() {
            return Err(MpiError::InvalidCount(0));
        }
        if self.proc().config.error_checking && !op.legal_on(T::PREDEFINED) {
            return Err(MpiError::InvalidOp("op not defined for this datatype"));
        }
        Ok(())
    }

    /// The one body of `MPI_ACCUMULATE` and `MPI_RACCUMULATE`.
    fn accumulate_op<T: MpiPrimitive, F: Form>(
        &self,
        data: &[T],
        op: &Op,
        call: Call,
    ) -> MpiResult<F::Out<'static>> {
        let ty = T::DATATYPE;
        self.check_acc(data, op)?;
        let wire = T::as_bytes(data);
        let Some(a) = self.rma_prologue::<F>(wire.len(), &ty, call)? else {
            return Ok(F::done(Status::send()));
        };
        let native = self.native_path(&ty);
        self.charge_netmod(native);
        let mut res = Ok(());
        if native || a.epoch == EpochKind::Passive {
            // Element-wise atomic under the region lock ("hardware"
            // atomics / offloaded handler).
            let ep = &self.proc().endpoint;
            ep.rdma_update(a.dst, &a.region, a.byte, wire.len(), |dst| {
                res = op.apply(&ty, dst, wire)
            });
        } else if F::REQUEST {
            // The accumulate header has no room for an op id: ride the
            // get-accumulate request/reply so the target's application is
            // acknowledged; the fetched payload is discarded.
            let payload = getacc_payload::<T>(op, wire)?;
            return self.am_request::<F>(&a, proto::AM_RMA_GETACC_REQ, wire.len(), payload, None);
        } else {
            let code = proto::encode_acc(acc_code(op)?, predef_index::<T>());
            // One staged operand buffer for the AM handler.
            litempi_instr::note_alloc(1);
            let operand = Bytes::copy_from_slice(wire);
            self.am_post(&a, proto::AM_RMA_ACC, wire.len(), code, operand);
        }
        self.note_store::<F>(&a);
        res.map(|()| F::done(Status::send()))
    }

    /// `MPI_ACCUMULATE` (element-wise atomic at the target).
    pub fn accumulate<T: MpiPrimitive>(
        &self,
        data: &[T],
        target: i32,
        disp: usize,
        op: &Op,
    ) -> MpiResult<()> {
        self.accumulate_op::<T, Blocking>(data, op, Call::typed(target, disp))
    }

    /// The one body of `MPI_GET_ACCUMULATE`, `MPI_FETCH_AND_OP` and
    /// `MPI_RGET_ACCUMULATE`: fetch-then-apply, atomically at the target;
    /// the pre-op values land in `fetched` (left alone for
    /// `MPI_PROC_NULL`).
    fn fetch_op<'buf, T: MpiPrimitive, F: Form>(
        &self,
        data: &[T],
        fetched: &'buf mut [T],
        op: &Op,
        call: Call,
    ) -> MpiResult<F::Out<'buf>> {
        if fetched.len() != data.len() {
            return Err(MpiError::InvalidCount(fetched.len() as i64));
        }
        let ty = T::DATATYPE;
        self.check_acc(data, op)?;
        let wire = T::as_bytes(data);
        let bytes = wire.len();
        let Some(a) = self.rma_prologue::<F>(bytes, &ty, call)? else {
            return Ok(F::done(Status::proc_null()));
        };
        let native = self.native_path(&ty);
        self.charge_netmod(native);
        let buf = T::as_bytes_mut(fetched);
        if native || a.epoch == EpochKind::Passive {
            let mut res = Ok(());
            let ep = &self.proc().endpoint;
            ep.rdma_update(a.dst, &a.region, a.byte, bytes, |dst| {
                buf.copy_from_slice(dst);
                res = op.apply(&ty, dst, wire);
            });
            res?;
            self.note_sync_op();
            return Ok(F::done(a.fetched(bytes)));
        }
        let payload = getacc_payload::<T>(op, wire)?;
        let count = data.len();
        let dest = Some(RecvDest { buf, ty, count });
        self.am_request::<F>(&a, proto::AM_RMA_GETACC_REQ, bytes, payload, dest)
    }

    /// `MPI_GET_ACCUMULATE`: fetch the target data, then apply `op`.
    /// Returns the fetched (pre-op) values.
    pub fn get_accumulate<T: MpiPrimitive>(
        &self,
        data: &[T],
        target: i32,
        disp: usize,
        op: &Op,
    ) -> MpiResult<Vec<T>> {
        let mut fetched = data.to_vec();
        let call = Call::typed(target, disp);
        self.fetch_op::<T, Blocking>(data, &mut fetched, op, call)?;
        Ok(fetched)
    }

    /// `MPI_FETCH_AND_OP` (single element).
    pub fn fetch_and_op<T: MpiPrimitive>(
        &self,
        value: T,
        target: i32,
        disp: usize,
        op: &Op,
    ) -> MpiResult<T> {
        let mut fetched = [value];
        let call = Call::typed(target, disp);
        self.fetch_op::<T, Blocking>(&[value], &mut fetched, op, call)?;
        Ok(fetched[0])
    }

    /// `MPI_COMPARE_AND_SWAP` (single element): stores `new` iff the target
    /// equals `compare`; returns the previous value.
    pub fn compare_and_swap<T: MpiPrimitive>(
        &self,
        new: T,
        compare: T,
        target: i32,
        disp: usize,
    ) -> MpiResult<T> {
        let ty = T::DATATYPE;
        let call = Call::typed(target, disp);
        let Some(a) = self.rma_prologue::<Blocking>(ty.size(), &ty, call)? else {
            return Ok(compare);
        };
        self.charge_netmod(true);
        let mut old = [compare];
        let ep = &self.proc().endpoint;
        ep.rdma_update(a.dst, &a.region, a.byte, ty.size(), |dst| {
            T::as_bytes_mut(&mut old).copy_from_slice(dst);
            if *dst == *T::as_bytes(&[compare]) {
                dst.copy_from_slice(T::as_bytes(&[new]));
            }
        });
        self.note_sync_op();
        Ok(old[0])
    }

    // ------------------------------------------------- request-based RMA

    /// `MPI_RPUT`: put with a per-operation request. The request completes
    /// when the target has applied the data (stronger than the standard's
    /// local-completion minimum).
    pub fn rput<T: MpiPrimitive>(
        &self,
        data: &[T],
        target: i32,
        disp: usize,
    ) -> MpiResult<Request<'static>> {
        let call = Call::typed(target, disp);
        self.put_inner::<Requested>(T::as_bytes(data), &T::DATATYPE, data.len(), call)
    }

    /// `MPI_RGET`: get with a per-operation request; the request's
    /// completion delivers the fetched bytes into `buf`.
    pub fn rget<'buf, T: MpiPrimitive>(
        &self,
        buf: &'buf mut [T],
        target: i32,
        disp: usize,
    ) -> MpiResult<Request<'buf>> {
        let (count, call) = (buf.len(), Call::typed(target, disp));
        self.get_inner::<Requested>(T::as_bytes_mut(buf), &T::DATATYPE, count, call)
    }

    /// `MPI_RACCUMULATE`: accumulate with a per-operation request.
    pub fn raccumulate<T: MpiPrimitive>(
        &self,
        data: &[T],
        target: i32,
        disp: usize,
        op: &Op,
    ) -> MpiResult<Request<'static>> {
        self.accumulate_op::<T, Requested>(data, op, Call::typed(target, disp))
    }

    /// `MPI_RGET_ACCUMULATE`: get-accumulate with a per-operation request;
    /// the pre-op target values land in `result` at completion.
    pub fn rget_accumulate<'buf, T: MpiPrimitive>(
        &self,
        data: &[T],
        result: &'buf mut [T],
        target: i32,
        disp: usize,
        op: &Op,
    ) -> MpiResult<Request<'buf>> {
        let call = Call::typed(target, disp);
        self.fetch_op::<T, Requested>(data, result, op, call)
    }
}

/// ULFM wiring for one-sided traffic ([`ProcInner::first_failure`]): a
/// revoked window (its communicator or the parent, `ctxs`) or a dead
/// target (`world`) fails fast instead of hanging in an epoch that can
/// never close. A dead target is `ProcessFailed`.
pub(crate) fn target_alive(proc: &ProcInner, ctxs: &[u16; 2], world: usize) -> MpiResult<()> {
    match proc.first_failure(ctxs, &[world]) {
        Err(MpiError::PeerUnreachable { peer }) => Err(MpiError::ProcessFailed { peer }),
        r => r,
    }
}

/// Land `count` elements of `ty` arriving as packed `wire` bytes in `buf`.
fn unpack_into(ty: &Datatype, count: usize, wire: &[u8], buf: &mut [u8]) {
    if ty.is_contiguous() {
        buf[..wire.len()].copy_from_slice(wire);
    } else {
        pack::unpack(ty, count, wire, buf);
    }
}

/// `op`'s code on the AM accumulate path.
fn acc_code(op: &Op) -> MpiResult<u64> {
    acc_code_of(op).ok_or(MpiError::InvalidOp(
        "user-defined op not supported on the AM path",
    ))
}

/// The get-accumulate AM request body: op and type code, then the operand.
fn getacc_payload<T: MpiPrimitive>(op: &Op, operand: &[u8]) -> MpiResult<Bytes> {
    let code = acc_code(op)?;
    // One staged request buffer, moved into `Bytes`.
    litempi_instr::note_alloc(1);
    let mut payload = proto::encode_acc(code, predef_index::<T>())
        .to_le_bytes()
        .to_vec();
    payload.extend_from_slice(operand);
    Ok(Bytes::from(payload))
}

/// Index of `T`'s predefined type in `Predefined::ALL` (AM encoding).
fn predef_index<T: MpiPrimitive>() -> usize {
    use litempi_datatype::Predefined;
    Predefined::ALL
        .iter()
        .position(|p| *p == T::PREDEFINED)
        .expect("every primitive's predefined type is in ALL")
}

/// A shared-memory window (`MPI_WIN_ALLOCATE_SHARED`): every rank's
/// segment is directly load/store-accessible to every other rank on the
/// node — the shmmod's one-sided fast path, where even the RDMA descriptor
/// disappears.
pub struct SharedWindow {
    win: Window,
}

impl std::fmt::Debug for SharedWindow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedWindow")
            .field("win", &self.win)
            .finish()
    }
}

impl SharedWindow {
    /// `MPI_WIN_ALLOCATE_SHARED` (collective): allocate `len` bytes per
    /// rank, directly accessible node-wide. Errors unless every rank of
    /// `comm` lives on the same node (the standard's precondition).
    pub fn allocate(comm: &Communicator, len: usize, disp_unit: usize) -> MpiResult<SharedWindow> {
        let topo = comm.proc.endpoint.fabric().topology();
        let me = comm.proc.endpoint.addr();
        for r in 0..comm.size() {
            let peer = NetAddr(comm.world_rank_of(r) as u32);
            if !topo.same_node(me, peer) {
                return Err(MpiError::InvalidWin(
                    "win_allocate_shared requires a single-node communicator",
                ));
            }
        }
        Ok(SharedWindow {
            win: Window::create(comm, len, disp_unit)?,
        })
    }

    /// The regular window view (for RMA operations and synchronization).
    pub fn window(&self) -> &Window {
        &self.win
    }

    /// `MPI_WIN_SHARED_QUERY` + a direct store: write into `rank`'s
    /// segment as a CPU store (no epoch needed; pair with
    /// [`SharedWindow::sync`] + a barrier, as with real shared memory).
    pub fn write_direct(&self, rank: usize, offset: usize, data: &[u8]) {
        self.win.shared.regions[rank].write(offset, data);
    }

    /// Direct load from `rank`'s segment.
    pub fn read_direct(&self, rank: usize, offset: usize, len: usize) -> Vec<u8> {
        self.win.shared.regions[rank].read(offset, len)
    }

    /// `MPI_WIN_SYNC`: memory barrier between direct accesses. Our region
    /// store is lock-synchronized, so this is ordering documentation plus
    /// a progress poke.
    pub fn sync(&self) {
        self.win.proc().progress();
    }

    /// `MPI_WIN_FENCE` passthrough for mixed direct/RMA usage.
    pub fn fence(&self) -> MpiResult<()> {
        self.win.fence()
    }
}

impl std::fmt::Debug for Window {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Window")
            .field("id", &self.shared.id)
            .field("rank", &self.comm.rank())
            .field("size", &self.comm.size())
            .finish()
    }
}
