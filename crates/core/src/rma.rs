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
//! §3.2's proposal is implemented as the `*_virtual_addr` operations on
//! [`VirtAddr`] handles (usable on *all* window kinds, removing the dynamic
//! -window disadvantage the paper describes); §3.3's precreated-handle idea
//! appears as the `all_opts` put variant in `ext.rs`.

use crate::comm::{Communicator, Errhandler};
use crate::error::{MpiError, MpiResult};
use crate::match_bits::PROC_NULL;
use crate::op::Op;
use crate::process::{acc_code_of, ProcInner, PscwCounters, ReplySlot};
use crate::proto;
use crate::request::{wait_loop, RecvDest, Request};
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
/// Acquiring is one atomic on the word — a compare-and-swap from zero for
/// exclusive, a fetch-and-add (withdrawn if the writer bit was set) for
/// shared — retried inside [`wait_loop`], so a waiter keeps driving progress
/// and sees a dead or revoked target as an error.
#[derive(Debug, Default)]
pub(crate) struct TargetLock(AtomicU64);

impl TargetLock {
    const WRITER: u64 = 1 << 63;

    fn try_acquire(&self, kind: LockType) -> bool {
        match kind {
            LockType::Exclusive => self
                .0
                .compare_exchange(0, Self::WRITER, Ordering::Acquire, Ordering::Relaxed)
                .is_ok(),
            LockType::Shared => {
                if self.0.fetch_add(1, Ordering::Acquire) & Self::WRITER == 0 {
                    return true;
                }
                // Never held, so nothing to publish. (The moment between
                // the two can fail an exclusive attempt that would have
                // succeeded; it retries.)
                self.0.fetch_sub(1, Ordering::Relaxed);
                false
            }
        }
    }

    fn release(&self, kind: LockType) {
        let held = match kind {
            LockType::Exclusive => Self::WRITER,
            LockType::Shared => 1,
        };
        let before = self.0.fetch_sub(held, Ordering::Release);
        debug_assert!(match kind {
            LockType::Exclusive => before & Self::WRITER != 0,
            LockType::Shared => before & !Self::WRITER != 0,
        });
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
/// memory it exposes and how many AM-fallback ops it has applied there
/// (what `fence` waits on).
pub(crate) struct WinTarget {
    pub region: MemoryRegion,
    pub applied: AtomicU64,
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

/// An RMA window.
///
/// `Window` is `Sync`: passive-target operations may be injected from
/// multiple threads (one per VCI-bound injector) through one handle. All
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
            let due = sent[self.comm.rank()];
            let applied = &self.mine.applied;
            wait_loop(self.proc(), || {
                if applied.load(Ordering::Acquire) >= due {
                    return Some(Ok(()));
                }
                self.check_target_alive(self.comm.rank()).err().map(Err)
            })?;
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
        let proc = self.proc();
        wait_loop(proc, || {
            if ready(proc.pscw.lock().entry(self.shared.id).or_default()) {
                return Some(Ok(()));
            }
            (peers.iter().find_map(|&p| self.check_target_alive(p).err())).map(Err)
        })
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

    /// Take `target`'s lock word, or learn why that cannot happen.
    fn acquire(&self, target: usize, kind: LockType) -> MpiResult<()> {
        let word = &self.shared.locks[target];
        wait_loop(self.proc(), || match self.check_target_alive(target) {
            Ok(()) => word.try_acquire(kind).then_some(Ok(())),
            Err(e) => Some(Err(e)),
        })
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
        self.shared.locks[target].release(kind);
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
                for word in &self.shared.locks[..t] {
                    word.release(LockType::Shared);
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
        for word in &self.shared.locks {
            word.release(LockType::Shared);
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

    /// ULFM wiring for one-sided traffic: a revoked window communicator or
    /// a dead target fails fast instead of hanging in an epoch that can
    /// never close.
    fn check_target_alive(&self, target: usize) -> MpiResult<()> {
        let proc = self.proc();
        if proc.is_ctx_revoked(self.comm.context_id().0) || proc.is_ctx_revoked(self.parent_ctx) {
            return Err(MpiError::Revoked);
        }
        let world = self.comm.world_rank_of(target);
        if proc.endpoint.peer_unreachable(proc.addr_of_world(world)) {
            return Err(MpiError::ProcessFailed { peer: world });
        }
        Ok(())
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

    /// Account one put or accumulate. Under a passive-target epoch it
    /// carries the model's issue charge and stays outstanding until a
    /// flush retires it (and is charged for that); otherwise it is done.
    fn note_store(&self, a: &Access<'_>) {
        if a.epoch == EpochKind::Passive {
            charge(Category::Rma, cost::rma::OP_QUEUE);
            self.epochs[a.t].issued.fetch_add(1, Ordering::AcqRel);
            self.proc().endpoint.note_win_ops_issued(1);
        } else {
            self.note_sync_op();
        }
    }

    // ---------------------------------------------------------- prologue

    /// MPI-layer + mandatory-overhead prologue for the put-family path.
    /// Returns `None` for `MPI_PROC_NULL` targets. `vaddr` carries the
    /// §3.2 pre-translated address when the caller used the extension.
    #[allow(clippy::too_many_arguments)] // mirrors the MPI_Put C signature
    fn rma_prologue(
        &self,
        target: i32,
        disp: usize,
        bytes: usize,
        ty: &Datatype,
        vaddr: Option<VirtAddr>,
        skip_checks: bool,
        static_type: bool,
    ) -> MpiResult<Option<Access<'_>>> {
        let proc = self.proc();
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
        // RMA traffic rides the AM/native-RDMA path, which lives on VCI 0.
        proc.with_cs(0, cost::put::THREAD_CHECK, || ());
        if !proc.config.ipo {
            charge(Category::FunctionCall, cost::put::FUNCTION_CALL);
        }
        if crate::pt2pt::redundant_checks_remain(&proc.config, static_type) {
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
        let (region, byte, extent) = match vaddr {
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
                    disp.checked_mul(unit).ok_or_else(beyond)?
                } else {
                    disp * unit
                };
                (Cow::Borrowed(resident), byte, self.shared.lens[t])
            }
        };
        // Range-check against the region's extent (the NIC would fault
        // here; we return `MPI_ERR_WIN` instead of wrapping or panicking).
        if checked && byte.checked_add(bytes).is_none_or(|end| end > extent) {
            return Err(beyond());
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

    /// Send an AM the target answers (get, get-accumulate, acknowledged
    /// put): register the reply slot under a fresh op id, send, and count
    /// the op for the next fence.
    fn am_request(&self, a: &Access<'_>, handler: u16, len: usize, payload: Bytes) -> ReplySlot {
        let proc = self.proc();
        let op_id = proc.next_op_id.fetch_add(1, Ordering::Relaxed);
        let slot: ReplySlot = Arc::new(Mutex::new(None));
        proc.pending_replies.lock().insert(op_id, slot.clone());
        proc.endpoint.am_send(
            a.dst,
            handler,
            proto::header(self.shared.id, a.byte as u64, len as u64, op_id),
            payload,
        );
        self.sent_am[a.t].fetch_add(1, Ordering::AcqRel);
        slot
    }

    /// Block for the answer to [`Window::am_request`]. A target that dies
    /// first ends the wait; the slot stays registered, so a reply that
    /// raced the verdict is absorbed.
    fn await_reply(&self, a: &Access<'_>, slot: &ReplySlot) -> MpiResult<Vec<u8>> {
        wait_loop(self.proc(), || {
            let reply = slot.lock().take();
            match reply {
                Some(wire) => Some(Ok(wire)),
                None => self.check_target_alive(a.t).err().map(Err),
            }
        })
    }

    /// The request that completes when the target answers `slot`; a
    /// fetching op's reply lands in `dest`.
    fn reply_request<'buf>(
        &self,
        a: &Access<'_>,
        slot: ReplySlot,
        dest: Option<RecvDest<'buf>>,
    ) -> Request<'buf> {
        self.proc().endpoint.note_win_ops_issued(1);
        Request::rma(
            self.proc().clone(),
            slot,
            dest,
            Some(self.comm.world_rank_of(a.t)),
            self.comm.errhandler() == Errhandler::ErrorsAreFatal,
            self.comm.context_id().0,
        )
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
        self.put_inner(buf, ty, count, target, disp, None, false, false)
    }

    #[allow(clippy::too_many_arguments)] // mirrors the MPI_Put C signature
    pub(crate) fn put_inner(
        &self,
        buf: &[u8],
        ty: &Datatype,
        count: usize,
        target: i32,
        disp: usize,
        vaddr: Option<VirtAddr>,
        skip_checks: bool,
        static_type: bool,
    ) -> MpiResult<()> {
        let bytes = pack::packed_size(ty, count);
        let Some(a) =
            self.rma_prologue(target, disp, bytes, ty, vaddr, skip_checks, static_type)?
        else {
            return Ok(());
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
            let packed = if ty.is_contiguous() {
                buf[..bytes].to_vec()
            } else {
                pack::pack(ty, count, buf)
            };
            ep.am_send(
                a.dst,
                proto::AM_RMA_PUT,
                proto::header(self.shared.id, a.byte as u64, bytes as u64, 0),
                Bytes::from(packed),
            );
            self.sent_am[a.t].fetch_add(1, Ordering::AcqRel);
        }
        self.note_store(&a);
        Ok(())
    }

    /// Typed `MPI_PUT` (a §2.2 Class-2 call: the datatype is a
    /// compile-time constant, so library IPO folds the size checks).
    pub fn put<T: MpiPrimitive>(&self, data: &[T], target: i32, disp: usize) -> MpiResult<()> {
        self.put_inner(
            T::as_bytes(data),
            &T::DATATYPE,
            data.len(),
            target,
            disp,
            None,
            false,
            true,
        )
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
        self.get_inner(buf, ty, count, target, disp, None, false, false)
    }

    #[allow(clippy::too_many_arguments)] // mirrors the MPI_Get C signature
    pub(crate) fn get_inner(
        &self,
        buf: &mut [u8],
        ty: &Datatype,
        count: usize,
        target: i32,
        disp: usize,
        vaddr: Option<VirtAddr>,
        skip_checks: bool,
        static_type: bool,
    ) -> MpiResult<()> {
        let bytes = pack::packed_size(ty, count);
        let Some(a) =
            self.rma_prologue(target, disp, bytes, ty, vaddr, skip_checks, static_type)?
        else {
            return Ok(());
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
        } else {
            // AM get: request/reply through the target's progress engine.
            let slot = self.am_request(&a, proto::AM_RMA_GET_REQ, bytes, Bytes::new());
            self.note_sync_op();
            unpack_into(ty, count, &self.await_reply(&a, &slot)?, buf);
        }
        Ok(())
    }

    /// Typed `MPI_GET` (Class-2: compile-time-constant datatype).
    pub fn get<T: MpiPrimitive>(&self, buf: &mut [T], target: i32, disp: usize) -> MpiResult<()> {
        let count = buf.len();
        self.get_inner(
            T::as_bytes_mut(buf),
            &T::DATATYPE,
            count,
            target,
            disp,
            None,
            false,
            true,
        )
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

    /// `MPI_ACCUMULATE` (element-wise atomic at the target).
    pub fn accumulate<T: MpiPrimitive>(
        &self,
        data: &[T],
        target: i32,
        disp: usize,
        op: &Op,
    ) -> MpiResult<()> {
        let ty = T::DATATYPE;
        self.check_acc(data, op)?;
        let wire = T::as_bytes(data);
        let Some(a) = self.rma_prologue(target, disp, wire.len(), &ty, None, false, true)? else {
            return Ok(());
        };
        let ep = &self.proc().endpoint;
        let native = self.native_path(&ty);
        self.charge_netmod(native);
        if native || a.epoch == EpochKind::Passive {
            // Element-wise atomic under the region lock ("hardware"
            // atomics / offloaded handler).
            let mut res = Ok(());
            ep.rdma_update(a.dst, &a.region, a.byte, wire.len(), |dst| {
                res = op.apply(&ty, dst, wire)
            });
            self.note_store(&a);
            return res;
        }
        let code = acc_code_of(op).ok_or(MpiError::InvalidOp(
            "user-defined op not supported on the AM path",
        ))?;
        // One staged operand buffer for the AM handler.
        litempi_instr::note_alloc(1);
        ep.am_send(
            a.dst,
            proto::AM_RMA_ACC,
            proto::header(
                self.shared.id,
                a.byte as u64,
                wire.len() as u64,
                proto::encode_acc(code, predef_index::<T>()),
            ),
            Bytes::copy_from_slice(wire),
        );
        self.sent_am[a.t].fetch_add(1, Ordering::AcqRel);
        self.note_store(&a);
        Ok(())
    }

    /// Fetch-then-apply at the target's region, atomically under its lock;
    /// the pre-op bytes land in `fetched`.
    fn fetch_apply(
        &self,
        a: &Access<'_>,
        op: &Op,
        ty: &Datatype,
        operand: &[u8],
        fetched: &mut [u8],
    ) -> MpiResult<()> {
        let mut res = Ok(());
        let ep = &self.proc().endpoint;
        ep.rdma_update(a.dst, &a.region, a.byte, operand.len(), |dst| {
            fetched.copy_from_slice(dst);
            res = op.apply(ty, dst, operand);
        });
        res?;
        self.note_sync_op();
        Ok(())
    }

    /// The body of `get_accumulate` and `fetch_and_op`: the pre-op target
    /// values land in `fetched` (left alone for `MPI_PROC_NULL`).
    fn fetch_op<T: MpiPrimitive>(
        &self,
        data: &[T],
        fetched: &mut [T],
        target: i32,
        disp: usize,
        op: &Op,
    ) -> MpiResult<()> {
        let ty = T::DATATYPE;
        self.check_acc(data, op)?;
        let wire = T::as_bytes(data);
        let Some(a) = self.rma_prologue(target, disp, wire.len(), &ty, None, false, true)? else {
            return Ok(());
        };
        let native = self.native_path(&ty);
        self.charge_netmod(native);
        let fetched = T::as_bytes_mut(fetched);
        if native || a.epoch == EpochKind::Passive {
            return self.fetch_apply(&a, op, &ty, wire, fetched);
        }
        let payload = getacc_payload::<T>(op, wire)?;
        let slot = self.am_request(&a, proto::AM_RMA_GETACC_REQ, wire.len(), payload);
        self.note_sync_op();
        fetched.copy_from_slice(&self.await_reply(&a, &slot)?);
        Ok(())
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
        self.fetch_op(data, &mut fetched, target, disp, op)?;
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
        self.fetch_op(&[value], &mut fetched, target, disp, op)?;
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
        let Some(a) = self.rma_prologue(target, disp, ty.size(), &ty, None, false, true)? else {
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
    /// local-completion minimum). Request-based ops carry their own
    /// completion unit: a flush is not charged for retiring them.
    pub fn rput<T: MpiPrimitive>(
        &self,
        data: &[T],
        target: i32,
        disp: usize,
    ) -> MpiResult<Request<'static>> {
        let ty = T::DATATYPE;
        let wire = T::as_bytes(data);
        let Some(a) = self.rma_prologue(target, disp, wire.len(), &ty, None, false, true)? else {
            return Ok(Request::done(Status::send()));
        };
        let native = self.native_path(&ty);
        self.charge_netmod(native);
        charge(Category::RequestManagement, cost::isend::REQUEST_MANAGEMENT);
        if native || a.epoch == EpochKind::Passive {
            let ep = &self.proc().endpoint;
            ep.rdma_put(a.dst, &a.region, a.byte, wire);
            self.note_sync_op();
            return Ok(Request::done(Status::send()));
        }
        // AM path: the target acknowledges once the put is applied.
        litempi_instr::note_alloc(1);
        let payload = Bytes::copy_from_slice(wire);
        let slot = self.am_request(&a, proto::AM_RMA_PUT, wire.len(), payload);
        Ok(self.reply_request(&a, slot, None))
    }

    /// `MPI_RGET`: get with a per-operation request; the request's
    /// completion delivers the fetched bytes into `buf`.
    pub fn rget<'buf, T: MpiPrimitive>(
        &self,
        buf: &'buf mut [T],
        target: i32,
        disp: usize,
    ) -> MpiResult<Request<'buf>> {
        let ty = T::DATATYPE;
        let count = buf.len();
        let buf = T::as_bytes_mut(buf);
        let bytes = buf.len();
        let Some(a) = self.rma_prologue(target, disp, bytes, &ty, None, false, true)? else {
            return Ok(Request::done(Status {
                source: PROC_NULL,
                tag: 0,
                bytes: 0,
            }));
        };
        let native = self.native_path(&ty);
        self.charge_netmod(native);
        charge(Category::RequestManagement, cost::isend::REQUEST_MANAGEMENT);
        if native || a.epoch == EpochKind::Passive {
            let ep = &self.proc().endpoint;
            ep.rdma_get(a.dst, &a.region, a.byte, bytes, |wire| {
                buf.copy_from_slice(wire)
            });
            self.note_sync_op();
            return Ok(Request::done(Status {
                source: a.t as i32,
                tag: 0,
                bytes,
            }));
        }
        let slot = self.am_request(&a, proto::AM_RMA_GET_REQ, bytes, Bytes::new());
        Ok(self.reply_request(&a, slot, Some(RecvDest { buf, ty, count })))
    }

    /// `MPI_RACCUMULATE`: accumulate with a per-operation request.
    pub fn raccumulate<T: MpiPrimitive>(
        &self,
        data: &[T],
        target: i32,
        disp: usize,
        op: &Op,
    ) -> MpiResult<Request<'static>> {
        let ty = T::DATATYPE;
        self.check_acc(data, op)?;
        let wire = T::as_bytes(data);
        let Some(a) = self.rma_prologue(target, disp, wire.len(), &ty, None, false, true)? else {
            return Ok(Request::done(Status::send()));
        };
        let native = self.native_path(&ty);
        self.charge_netmod(native);
        charge(Category::RequestManagement, cost::isend::REQUEST_MANAGEMENT);
        if native || a.epoch == EpochKind::Passive {
            let mut res = Ok(());
            let ep = &self.proc().endpoint;
            ep.rdma_update(a.dst, &a.region, a.byte, wire.len(), |dst| {
                res = op.apply(&ty, dst, wire)
            });
            res?;
            self.note_sync_op();
            return Ok(Request::done(Status::send()));
        }
        // AM path: ride the get-accumulate request/reply so the target's
        // application is acknowledged; the fetched payload is discarded.
        let payload = getacc_payload::<T>(op, wire)?;
        let slot = self.am_request(&a, proto::AM_RMA_GETACC_REQ, wire.len(), payload);
        Ok(self.reply_request(&a, slot, None))
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
        let ty = T::DATATYPE;
        if result.len() != data.len() {
            return Err(MpiError::InvalidCount(result.len() as i64));
        }
        self.check_acc(data, op)?;
        let count = data.len();
        let wire = T::as_bytes(data);
        let bytes = wire.len();
        let Some(a) = self.rma_prologue(target, disp, bytes, &ty, None, false, true)? else {
            return Ok(Request::done(Status {
                source: PROC_NULL,
                tag: 0,
                bytes: 0,
            }));
        };
        let native = self.native_path(&ty);
        self.charge_netmod(native);
        charge(Category::RequestManagement, cost::isend::REQUEST_MANAGEMENT);
        let buf = T::as_bytes_mut(result);
        if native || a.epoch == EpochKind::Passive {
            self.fetch_apply(&a, op, &ty, wire, buf)?;
            return Ok(Request::done(Status {
                source: a.t as i32,
                tag: 0,
                bytes,
            }));
        }
        let payload = getacc_payload::<T>(op, wire)?;
        let slot = self.am_request(&a, proto::AM_RMA_GETACC_REQ, bytes, payload);
        Ok(self.reply_request(&a, slot, Some(RecvDest { buf, ty, count })))
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

/// The get-accumulate AM request body: op and type code, then the operand.
fn getacc_payload<T: MpiPrimitive>(op: &Op, operand: &[u8]) -> MpiResult<Bytes> {
    let code = acc_code_of(op).ok_or(MpiError::InvalidOp(
        "user-defined op not supported on the AM path",
    ))?;
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
