//! The job runtime: ranks as user-level tasks over one shared fabric.
//!
//! [`Universe::run`] plays the role of `mpiexec`: it hands each of `n`
//! ranks a [`Process`](crate::process::Process) (its `MPI_COMM_WORLD`
//! view), runs the application closure on it, and collects per-rank
//! results. The ranks run as tasks on worker threads
//! ([`litempi_fabric::task`]): under `MPI_THREAD_SINGLE` one worker per
//! CPU the process may run on, and a rank that blocks hands its worker to
//! another rank with a stack switch; under `MPI_THREAD_MULTIPLE`, whose
//! ranks may block their thread on threads of their own, one worker per
//! rank. A rank whose closure has returned keeps driving its endpoint
//! until every rank's has, then drains its reliability state, then keeps
//! acknowledging until every rank has drained: no rank leaves while a peer
//! may still need it.
//!
//! Shared-by-construction state that a real MPI job would negotiate over
//! the network (context-id agreement, collective object creation) lives in
//! [`UnivShared`] — see each field for the real-MPI mechanism it stands for.

use crate::config::{BuildConfig, ThreadLevel};
use crate::error::{MpiError, MpiResult};
use crate::process::{ProcInner, Process};
use crate::request::wait_loop;
use litempi_fabric::{task, Fabric, NetAddr, ProviderProfile, Topology};
use parking_lot::Mutex;
use std::any::Any;
use std::collections::hash_map::{Entry, HashMap};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU16, AtomicU64, Ordering};
use std::sync::Arc;

/// Where a rendezvous body waits for its receiver (`proto::stage` picks).
#[derive(Clone)]
pub(crate) enum Storage {
    /// A registered region leased from the sender's per-peer pin-down
    /// cache: the receiver RDMA-reads it and hands it back to that cache.
    Region(litempi_fabric::MemoryRegion),
    /// A pooled staging buffer the receiver reads in place and recycles; a
    /// fan-out parks `Arc` clones of one buffer under an id per reader.
    Pooled(Arc<Vec<u8>>),
}

/// A rendezvous-table entry: a body staged by a sender until the receiver
/// its RTS descriptor went to opens it.
#[derive(Clone)]
pub(crate) struct RndvEntry {
    pub storage: Storage,
    /// Message length — a region is as long as its size class.
    pub len: usize,
    /// The sender's completion flag; absent for fire-and-forget
    /// (collective-channel) sends, which never look at it.
    pub done: Option<Arc<AtomicBool>>,
}

impl RndvEntry {
    /// What the RTS descriptor carries beside id and length: the region's
    /// remote key, 0 (no region has it) for a pooled body.
    pub(crate) fn key(&self) -> u64 {
        match &self.storage {
            Storage::Region(region) => region.key().0,
            Storage::Pooled(_) => 0,
        }
    }
}

/// Key for collective object creation: (parent context, per-communicator
/// derivation sequence, color/discriminator).
pub(crate) type MeetKey = (u16, u64, u64);

struct MeetEntry {
    value: Arc<dyn Any + Send + Sync>,
    fetched: usize,
    expected: usize,
}

/// Rendezvous point for collectively created objects (communicators,
/// windows). In a real MPI these are created by an agreement protocol over
/// the network (e.g. context-id allocation via allreduce over a bitmask);
/// in-process, the first participant constructs the object and the others
/// retrieve the same `Arc`. The *decision to call* remains collective and
/// ordered, so misuse (mismatched collective order) deadlocks here just as
/// it would on a cluster.
pub(crate) struct MeetTable {
    inner: Mutex<HashMap<MeetKey, MeetEntry>>,
}

impl MeetTable {
    fn new() -> Self {
        MeetTable {
            inner: Mutex::new(HashMap::new()),
        }
    }

    /// Join the rendezvous at `key` among `expected` participants. The
    /// first arrival runs `make`; everyone receives the same value. The
    /// entry is removed once all participants have fetched it.
    pub(crate) fn meet<T: Send + Sync + 'static>(
        &self,
        key: MeetKey,
        expected: usize,
        make: impl FnOnce() -> T,
    ) -> Arc<T> {
        let mut inner = self.inner.lock();
        let entry = inner.entry(key).or_insert_with(|| {
            let value: Arc<dyn Any + Send + Sync> = Arc::new(make());
            MeetEntry {
                value,
                fetched: 0,
                expected,
            }
        });
        entry.fetched += 1;
        let value = entry.value.clone();
        if entry.fetched == entry.expected {
            inner.remove(&key);
        }
        drop(inner);
        value
            .downcast::<T>()
            .expect("meet type confusion: mismatched collective calls")
    }
}

/// Universe-wide shared state.
pub(crate) struct UnivShared {
    /// The simulated network.
    pub fabric: Arc<Fabric>,
    /// Context-id allocator. Real MPICH agrees on context ids with a
    /// collective bitmask allreduce; here a shared atomic gives the same
    /// uniqueness guarantee (allocation still happens inside a collective
    /// `meet`, so all members see the same id).
    pub next_ctx: AtomicU16,
    /// Rendezvous table: the bodies of large and synchronous sends.
    pub rndv: Mutex<HashMap<u64, RndvEntry>>,
    /// Rendezvous id allocator.
    pub next_rndv: AtomicU64,
    /// Window id allocator.
    pub next_win: AtomicU64,
    /// Collective object rendezvous.
    pub meet: MeetTable,
}

impl UnivShared {
    /// Park a staged body until its receiver takes it; the id goes into
    /// the RTS descriptor.
    pub(crate) fn park_rndv(&self, entry: RndvEntry) -> u64 {
        let id = self.next_rndv.fetch_add(1, Ordering::Relaxed);
        self.rndv.lock().insert(id, entry);
        id
    }

    /// Receiver side: claim the entry an RTS descriptor names — if the
    /// descriptor describes it. A damaged or replayed descriptor (unknown
    /// id, wrong key, wrong length) is an integrity error and consumes
    /// nothing: the entry it happened to name stays for its own receiver.
    pub(crate) fn take_rndv(&self, id: u64, key: u64, len: usize) -> MpiResult<RndvEntry> {
        let mut table = self.rndv.lock();
        let Entry::Occupied(slot) = table.entry(id) else {
            return Err(MpiError::Integrity(
                "rendezvous entry vanished (damaged or replayed RTS descriptor)",
            ));
        };
        if slot.get().key() != key {
            return Err(MpiError::Integrity(
                "rendezvous descriptor names the wrong region",
            ));
        }
        if slot.get().len != len {
            return Err(MpiError::Integrity(
                "rendezvous descriptor length differs from the staged body",
            ));
        }
        Ok(slot.remove())
    }
}

/// Entry point: run an `n`-rank MPI job.
pub struct Universe;

impl Universe {
    /// Run `f` on `n` ranks with full control over build configuration,
    /// provider, and placement. Returns each rank's result, in rank order.
    /// A panic on any rank aborts the job (`MPI_ABORT`): its peers' waits
    /// end in `ProcessFailed` / `MPI_ERRORS_ARE_FATAL` instead of hanging,
    /// and the panic that happened first propagates.
    pub fn run<T, F>(
        n: usize,
        config: BuildConfig,
        profile: ProviderProfile,
        topology: Topology,
        f: F,
    ) -> Vec<T>
    where
        T: Send,
        F: Fn(Process) -> T + Send + Sync,
    {
        assert!(n > 0, "universe needs at least one rank");
        let fabric = Fabric::new(n, profile, topology);
        let univ = Arc::new(UnivShared {
            fabric,
            next_ctx: AtomicU16::new(1), // 0 is MPI_COMM_WORLD
            rndv: Mutex::new(HashMap::new()),
            next_rndv: AtomicU64::new(1),
            next_win: AtomicU64::new(1),
            meet: MeetTable::new(),
        });

        let f = &f;
        let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
        // The first panic in time: the ones after it are its peers tripping
        // over the abort.
        let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        let bodies = (results.iter_mut().enumerate())
            .map(|(rank, slot)| {
                let (univ, first_panic) = (univ.clone(), &first_panic);
                Box::new(move || {
                    let endpoint = univ.fabric.endpoint(NetAddr(rank as u32));
                    let fabric = univ.fabric.clone();
                    let inner = Arc::new(ProcInner::new(rank, n, endpoint, config, univ));
                    let proc = Process::new(inner.clone());
                    match catch_unwind(AssertUnwindSafe(|| f(proc))) {
                        Ok(v) => *slot = Some(v),
                        Err(p) => {
                            first_panic.lock().get_or_insert(p);
                            fabric.abort_job();
                        }
                    }
                    // Linger: a peer still running may need this rank's
                    // ACKs, retransmits or active-message handling.
                    fabric.rank_returned();
                    wait_loop(&inner, || fabric.all_returned().then_some(()));
                    // MPI's delivery guarantee: a locally-completed eager
                    // send must still arrive. With the reliability layer
                    // on, the rank's fire-and-forget traffic may still be
                    // unacknowledged here, so drain it, then keep answering
                    // the peers that are still draining theirs.
                    let ep = &inner.endpoint;
                    ep.quiesce();
                    fabric.rank_drained();
                    ep.wait_until(|| ep.pump(), || fabric.all_drained().then_some(()));
                }) as task::Body<'_>
            })
            .collect();
        let shared = config.thread_level == ThreadLevel::Single;
        task::run(&univ.fabric, bodies, shared);
        if let Some(p) = first_panic.into_inner() {
            resume_unwind(p);
        }
        results
            .into_iter()
            .map(|r| r.expect("rank produced no result"))
            .collect()
    }

    /// Convenience: default CH4 build on an infinitely fast single-node
    /// fabric — the configuration for functional tests and examples.
    pub fn run_default<T, F>(n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Process) -> T + Send + Sync,
    {
        Universe::run(
            n,
            BuildConfig::ch4_default(),
            ProviderProfile::infinite(),
            Topology::single_node(n),
            f,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_see_their_identity() {
        let out = Universe::run_default(4, |proc| (proc.rank(), proc.size()));
        assert_eq!(out, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn single_rank_universe() {
        let out = Universe::run_default(1, |proc| proc.rank());
        assert_eq!(out, vec![0]);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panics() {
        let _ = Universe::run_default(0, |_| ());
    }

    #[test]
    #[should_panic(expected = "rank 2 exploded")]
    fn rank_panic_propagates() {
        let _ = Universe::run_default(4, |proc| {
            if proc.rank() == 2 {
                panic!("rank 2 exploded");
            }
        });
    }

    /// Run a 4-rank job in which rank 2 panics with "rank 2 exploded"
    /// while its peers wait on it: the job must come down with *that*
    /// panic — not a peer's secondary `MPI_ERRORS_ARE_FATAL` — and soon.
    fn expect_abort_by_rank_2(f: impl Fn(Process) + Send + Sync) {
        let t0 = std::time::Instant::now();
        let panic = catch_unwind(AssertUnwindSafe(|| Universe::run_default(4, f)))
            .expect_err("the job must not survive a panicking rank");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"rank 2 exploded"));
        assert!(t0.elapsed() < std::time::Duration::from_secs(2), "hung");
    }

    #[test]
    fn rank_panic_aborts_peers_waiting_in_a_barrier() {
        expect_abort_by_rank_2(|proc| {
            if proc.rank() == 2 {
                std::thread::sleep(std::time::Duration::from_millis(10));
                panic!("rank 2 exploded");
            }
            proc.world().barrier().unwrap();
        });
    }

    #[test]
    fn rank_panic_aborts_a_peer_waiting_for_its_lock() {
        use crate::rma::{LockType, Window};
        expect_abort_by_rank_2(|proc| {
            let world = proc.world();
            let win = Window::create(&world, 8, 1).unwrap();
            if proc.rank() == 2 {
                win.lock(LockType::Exclusive, 1).unwrap();
            }
            world.barrier().unwrap();
            match proc.rank() {
                // Blocks on the word rank 2 holds; the abort frees it with
                // an error (which this `unwrap` turns into a later panic).
                0 => win.lock(LockType::Exclusive, 1).unwrap(),
                2 => {
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    panic!("rank 2 exploded");
                }
                _ => {}
            }
            world.barrier().unwrap();
        });
    }

    #[test]
    fn meet_returns_same_object_to_all() {
        let table = MeetTable::new();
        let made = AtomicU64::new(0);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let v = table.meet((0, 1, 0), 4, || {
                            made.fetch_add(1, Ordering::Relaxed);
                            42usize
                        });
                        Arc::as_ptr(&v) as usize
                    })
                })
                .collect();
            let ptrs: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            assert!(
                ptrs.windows(2).all(|w| w[0] == w[1]),
                "all got the same Arc"
            );
        });
        assert_eq!(made.load(Ordering::Relaxed), 1, "make ran exactly once");
        // Entry removed after all fetched: the same key can be reused.
        let v = table.meet((0, 1, 0), 1, || 7usize);
        assert_eq!(*v, 7);
    }

    #[test]
    fn rndv_take_checks_the_descriptor_then_consumes_the_entry() {
        let out = Universe::run_default(1, |proc| {
            let univ = proc.univ();
            let id = univ.park_rndv(RndvEntry {
                storage: Storage::Pooled(Arc::new(vec![1, 2, 3])),
                len: 3,
                done: None,
            });
            // Wrong key, wrong length, unknown id: errors, entry untouched.
            assert!(univ.take_rndv(id, 9, 3).is_err());
            assert!(univ.take_rndv(id, 0, 4).is_err());
            assert!(univ.take_rndv(id + 1, 0, 3).is_err());
            let entry = univ.take_rndv(id, 0, 3).expect("entry present");
            assert!(matches!(entry.storage, Storage::Pooled(data) if *data == [1, 2, 3]));
            assert!(univ.take_rndv(id, 0, 3).is_err(), "take consumes the entry");
            true
        });
        assert!(out[0]);
    }
}
