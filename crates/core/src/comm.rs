//! Communicators.
//!
//! A communicator pairs an isolated matching context with a group (rank →
//! world-rank map). Communicator creation is collective; in-process, the
//! participating ranks rendezvous on the universe's meet table and share
//! one [`CommShared`], which mirrors how real ranks agree on a context id.
//!
//! Two of the paper's §3 proposals live here:
//! * §3.1 `MPI_GROUP_TRANSLATE_RANKS` is available via [`crate::group::Group`],
//!   and the `_GLOBAL` send routines (see `ext.rs`) take world ranks directly.
//! * §3.3 precreated communicator handles: [`Communicator::dup_predefined`]
//!   populates a compile-time-constant slot; sends through the resulting
//!   handle skip the dynamic-object dereference.

use crate::error::{MpiError, MpiResult};
use crate::group::Group;
use crate::hier::{ExchangeSlot, HierPlan};
use crate::match_bits::ContextId;
use crate::process::{ProcInner, Process, NUM_PREDEF_COMMS};
use crate::request::fatal_filter;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

/// State shared by all ranks of one communicator.
pub(crate) struct CommShared {
    pub ctx: ContextId,
    pub group: Group,
}

/// A precreated communicator handle (§3.3's `MPI_COMM_1`…`MPI_COMM_8`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredefHandle {
    /// `MPI_COMM_1`
    Comm1,
    /// `MPI_COMM_2`
    Comm2,
    /// `MPI_COMM_3`
    Comm3,
    /// `MPI_COMM_4`
    Comm4,
    /// `MPI_COMM_5`
    Comm5,
    /// `MPI_COMM_6`
    Comm6,
    /// `MPI_COMM_7`
    Comm7,
    /// `MPI_COMM_8`
    Comm8,
}

impl PredefHandle {
    /// Slot index (a compile-time constant at call sites — the property the
    /// paper's proposal exploits to turn the communicator dereference into
    /// a global-array access).
    pub const fn index(self) -> usize {
        self as usize
    }

    /// All handles.
    pub const ALL: [PredefHandle; NUM_PREDEF_COMMS] = [
        PredefHandle::Comm1,
        PredefHandle::Comm2,
        PredefHandle::Comm3,
        PredefHandle::Comm4,
        PredefHandle::Comm5,
        PredefHandle::Comm6,
        PredefHandle::Comm7,
        PredefHandle::Comm8,
    ];
}

/// `MPI_UNDEFINED` for `split`.
pub const UNDEFINED: i32 = -32766;

/// Communicator error handler (`MPI_Errhandler` subset).
///
/// The handler governs **communication failures only** —
/// [`MpiError::is_comm_failure`] errors such as an unreachable peer or a
/// wire-integrity fault. Argument-validation errors are always returned to
/// the caller regardless of the handler, so error-checking builds keep
/// their `Result`-based API.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Errhandler {
    /// `MPI_ERRORS_ARE_FATAL` (the MPI default): a communication failure
    /// aborts the rank (panics, which the universe surfaces as job failure).
    #[default]
    ErrorsAreFatal,
    /// `MPI_ERRORS_RETURN`: communication failures come back as `Err`, so
    /// the application can degrade gracefully (skip the dead peer, drain
    /// outstanding requests, checkpoint, …).
    ErrorsReturn,
}

/// A communicator handle, owned by one rank.
///
/// Not `Clone`: duplicate explicitly with [`Communicator::dup`] (which is
/// collective, like `MPI_COMM_DUP`).
pub struct Communicator {
    pub(crate) proc: Arc<ProcInner>,
    pub(crate) shared: Arc<CommShared>,
    pub(crate) rank: usize,
    /// Per-rank collective sequence number: collectives are ordered, so
    /// equal on all ranks at each collective call site. Atomic so a
    /// communicator (and any window built on it) is `Sync` — passive-target
    /// RMA injects from multiple threads through one handle.
    pub(crate) coll_seq: AtomicU64,
    /// Per-rank derivation counter for meet keys (dup/split/create order).
    derive_seq: AtomicU64,
    /// §3.5 requestless-send state: the in-flight requestless rendezvous
    /// sends — the completion flag the receiver's pull sets, and the
    /// receiver's world rank, so that `comm_waitall` can tell a slow
    /// receiver from a dead one. An eager one leaves nothing here.
    pub(crate) noreq: Mutex<Vec<(Arc<AtomicBool>, usize)>>,
    /// Was this handle obtained through a precreated slot (§3.3)?
    pub(crate) is_predef: bool,
    /// Error handler for communication failures (`MPI_Comm_set_errhandler`),
    /// stored as its discriminant so reads stay a single atomic load.
    pub(crate) errhandler: AtomicU8,
    /// ULFM `MPI_Comm_failure_ack` state: bitmask (by communicator rank)
    /// of failures this handle has acknowledged. Local, per-handle — like
    /// the standard's ack, it only silences `agree`'s failure reporting.
    pub(crate) acked_failures: AtomicU64,
    /// Per-rank agreement sequence number: `agree`/`shrink` are collective
    /// and ordered, so equal on all participants at each call site — it
    /// keys the protocol's tag space so overlapping agreements (and
    /// retries after a coordinator death) cannot cross-match.
    pub(crate) agree_seq: AtomicU64,
    /// Node-aware collective plan (`None` inside: the flat algorithms
    /// run), built by the first collective that asks — see `hier::plan`.
    /// Membership and topology never change under a handle.
    pub(crate) hier_plan: OnceLock<Option<HierPlan>>,
    /// This rank's alltoall exchange order — see `hier::alltoall_slots`.
    pub(crate) alltoall_slots: OnceLock<Vec<ExchangeSlot>>,
}

impl Errhandler {
    pub(crate) fn to_u8(self) -> u8 {
        match self {
            Errhandler::ErrorsAreFatal => 0,
            Errhandler::ErrorsReturn => 1,
        }
    }

    pub(crate) fn from_u8(v: u8) -> Errhandler {
        match v {
            0 => Errhandler::ErrorsAreFatal,
            _ => Errhandler::ErrorsReturn,
        }
    }
}

impl Communicator {
    pub(crate) fn world(proc: Arc<ProcInner>) -> Communicator {
        let size = proc.size;
        let rank = proc.rank;
        Communicator {
            proc,
            shared: Arc::new(CommShared {
                ctx: ContextId(0),
                group: Group::world(size),
            }),
            rank,
            coll_seq: AtomicU64::new(0),
            derive_seq: AtomicU64::new(0),
            noreq: Mutex::new(Vec::new()),
            is_predef: false,
            errhandler: AtomicU8::new(Errhandler::default().to_u8()),
            acked_failures: AtomicU64::new(0),
            agree_seq: AtomicU64::new(0),
            hier_plan: OnceLock::new(),
            alltoall_slots: OnceLock::new(),
        }
    }

    /// Crate-internal constructor used by intercommunicator merge.
    pub(crate) fn from_shared_crate(proc: Arc<ProcInner>, shared: Arc<CommShared>) -> Communicator {
        Communicator::from_shared(proc, shared, false)
    }

    fn from_shared(proc: Arc<ProcInner>, shared: Arc<CommShared>, is_predef: bool) -> Communicator {
        let rank = shared
            .group
            .local_rank(proc.rank)
            .expect("process not a member of this communicator");
        Communicator {
            proc,
            shared,
            rank,
            coll_seq: AtomicU64::new(0),
            derive_seq: AtomicU64::new(0),
            noreq: Mutex::new(Vec::new()),
            is_predef,
            errhandler: AtomicU8::new(Errhandler::default().to_u8()),
            acked_failures: AtomicU64::new(0),
            agree_seq: AtomicU64::new(0),
            hier_plan: OnceLock::new(),
            alltoall_slots: OnceLock::new(),
        }
    }

    /// `MPI_Comm_set_errhandler` (local).
    pub fn set_errhandler(&self, eh: Errhandler) {
        self.errhandler.store(eh.to_u8(), Ordering::Relaxed);
    }

    /// `MPI_Comm_get_errhandler` (local).
    pub fn errhandler(&self) -> Errhandler {
        Errhandler::from_u8(self.errhandler.load(Ordering::Relaxed))
    }

    /// Is the handler [`Errhandler::ErrorsAreFatal`]? The snapshot a
    /// request, a persistent operation or an inter-communicator takes when
    /// it is made, for [`fatal_filter`] to apply when it settles.
    pub(crate) fn errors_are_fatal(&self) -> bool {
        self.errhandler() == Errhandler::ErrorsAreFatal
    }

    /// Route an error through the communicator's handler now
    /// ([`fatal_filter`] with the current handler).
    pub(crate) fn handle_error<T>(&self, r: MpiResult<T>) -> MpiResult<T> {
        fatal_filter(r, self.errors_are_fatal())
    }

    /// My rank in this communicator.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of processes in this communicator.
    pub fn size(&self) -> usize {
        self.shared.group.size()
    }

    /// The communicator's group.
    pub fn group(&self) -> &Group {
        &self.shared.group
    }

    /// The matching context id (exposed for tests).
    pub fn context_id(&self) -> ContextId {
        self.shared.ctx
    }

    /// The owning process.
    pub fn process(&self) -> Process {
        Process::new(self.proc.clone())
    }

    /// Translate a communicator rank to a world rank
    /// (`MPI_GROUP_TRANSLATE_RANKS` against the world group).
    pub fn world_rank_of(&self, rank: usize) -> usize {
        self.shared.group.world_rank(rank)
    }

    /// Next collective sequence number (used to tag internal collective
    /// traffic so overlapping collectives cannot cross-match).
    pub(crate) fn next_coll_tag(&self) -> i32 {
        let s = self.coll_seq.fetch_add(1, Ordering::Relaxed);
        (s % (1 << 20)) as i32
    }

    pub(crate) fn next_derive_seq(&self) -> u64 {
        self.derive_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// `MPI_COMM_DUP` (collective): same group, fresh context.
    pub fn dup(&self) -> Communicator {
        let seq = self.next_derive_seq();
        let group = self.shared.group.clone();
        let univ = &self.proc.univ;
        let shared = univ
            .meet
            .meet((self.shared.ctx.0, seq, u64::MAX), self.size(), || {
                CommShared {
                    ctx: ContextId(univ.next_ctx.fetch_add(1, Ordering::Relaxed)),
                    group,
                }
            });
        let dup = Communicator::from_shared(self.proc.clone(), shared, false);
        dup.set_errhandler(self.errhandler());
        dup
    }

    /// `MPI_COMM_SPLIT` (collective). `color == UNDEFINED` (negative)
    /// yields `Ok(None)`. Members of each color are ordered by (key, rank).
    /// Fallible: the exchange is a real allgather, so a peer dying
    /// mid-split surfaces as `Err` under `MPI_ERRORS_RETURN` instead of a
    /// panic (or a hang).
    pub fn split(&self, color: i32, key: i32) -> MpiResult<Option<Communicator>> {
        let seq = self.next_derive_seq();
        // Exchange (color, key) with everyone — the collective part.
        let mine = [color, key];
        let all: Vec<i32> = self.allgather(&mine)?;
        if color < 0 {
            return Ok(None);
        }
        // Members of my color, ordered by (key, rank).
        let mut members: Vec<(i32, usize)> = (0..self.size())
            .filter(|&r| all[2 * r] == color)
            .map(|r| (all[2 * r + 1], r))
            .collect();
        members.sort_unstable();
        let world_ranks: Vec<u32> = members
            .iter()
            .map(|&(_, r)| self.world_rank_of(r) as u32)
            .collect();
        let group = Group::from_world_ranks(&world_ranks);
        let univ = &self.proc.univ;
        let shared = univ.meet.meet(
            (self.shared.ctx.0, seq, color as u64),
            members.len(),
            || CommShared {
                ctx: ContextId(univ.next_ctx.fetch_add(1, Ordering::Relaxed)),
                group,
            },
        );
        let sub = Communicator::from_shared(self.proc.clone(), shared, false);
        sub.set_errhandler(self.errhandler());
        Ok(Some(sub))
    }

    /// `MPI_COMM_SPLIT_TYPE(MPI_COMM_TYPE_SHARED)` (collective): split into
    /// per-node communicators — the standard prelude to
    /// `MPI_WIN_ALLOCATE_SHARED` and to hierarchical (node+network)
    /// algorithms. The node id comes from the fabric topology, exactly the
    /// locality information the CH4 core's shmmod/netmod branch uses.
    pub fn split_type_shared(&self) -> MpiResult<Communicator> {
        let topo = self.proc.endpoint.fabric().topology();
        let my_world = litempi_fabric::NetAddr(self.proc.rank as u32);
        let node = topo.node_of(my_world).0 as i32;
        Ok(self
            .split(node, self.rank as i32)?
            .expect("node color is never MPI_UNDEFINED"))
    }

    /// `MPI_COMM_CREATE` (collective over `self`): a new communicator over
    /// `group` (a subgroup of this communicator's group, expressed in world
    /// ranks). Non-members receive `Ok(None)`.
    pub fn create(&self, group: &Group) -> MpiResult<Option<Communicator>> {
        let seq = self.next_derive_seq();
        // Cheap stable discriminator for the meet key.
        let mut h: u64 = 0xcbf29ce484222325;
        for r in 0..group.size() {
            h = (h ^ group.world_rank(r) as u64).wrapping_mul(0x100000001b3);
        }
        let member = group.local_rank(self.proc.rank).is_some();
        // Everyone participates in a barrier-like agreement so ordering
        // stays collective even for non-members.
        self.barrier()?;
        if !member {
            return Ok(None);
        }
        let univ = &self.proc.univ;
        let group = group.clone();
        let expected = group.size();
        let shared = univ
            .meet
            .meet((self.shared.ctx.0, seq, h), expected, || CommShared {
                ctx: ContextId(univ.next_ctx.fetch_add(1, Ordering::Relaxed)),
                group,
            });
        let sub = Communicator::from_shared(self.proc.clone(), shared, false);
        sub.set_errhandler(self.errhandler());
        Ok(Some(sub))
    }

    /// §3.3 `MPI_COMM_DUP_PREDEFINED` (collective): duplicate this
    /// communicator *into* the precreated slot `handle`. The handle is an
    /// input, not an output — the communicator properties are dynamically
    /// assigned to a statically known handle.
    pub fn dup_predefined(&self, handle: PredefHandle) -> MpiResult<()> {
        let dup = self.dup();
        let mut slot = self.proc.predef_comms[handle.index()].lock();
        if slot.is_some() {
            return Err(MpiError::InvalidComm("predefined handle already populated"));
        }
        *slot = Some(dup.shared.clone());
        Ok(())
    }

    /// Open a populated precreated handle (local, cheap — the paper's
    /// global-array lookup).
    pub fn predefined(proc: &Process, handle: PredefHandle) -> MpiResult<Communicator> {
        let slot = proc.inner.predef_comms[handle.index()].lock();
        let shared = slot
            .as_ref()
            .ok_or(MpiError::InvalidComm("predefined handle not populated"))?
            .clone();
        drop(slot);
        Ok(Communicator::from_shared(proc.inner.clone(), shared, true))
    }

    /// §3.5: number of requestless operations still pending completion.
    pub fn noreq_pending(&self) -> usize {
        self.noreq
            .lock()
            .iter()
            .filter(|(done, _)| !done.load(Ordering::Acquire))
            .count()
    }
}

impl std::fmt::Debug for Communicator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Communicator")
            .field("ctx", &self.shared.ctx.0)
            .field("rank", &self.rank)
            .field("size", &self.size())
            .finish()
    }
}
