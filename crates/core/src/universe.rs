//! The job runtime: ranks as threads over one shared fabric.
//!
//! [`Universe::run`] plays the role of `mpiexec`: it spawns `n` OS threads,
//! hands each a [`Process`](crate::process::Process) (its `MPI_COMM_WORLD`
//! view), runs the application closure, and collects per-rank results.
//! Shared-by-construction state that a real MPI job would negotiate over
//! the network (context-id agreement, collective object creation) lives in
//! [`UnivShared`] — see each field for the real-MPI mechanism it stands for.

use crate::config::BuildConfig;
use crate::process::{ProcInner, Process};
use litempi_fabric::{Fabric, NetAddr, ProviderProfile, Topology};
use parking_lot::Mutex;
use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU16, AtomicU64, Ordering};
use std::sync::Arc;

/// A rendezvous-table entry: data exposed by a sender for the receiver to
/// pull (RDMA-read rendezvous), plus the sender's completion flag — absent
/// for fire-and-forget collective sends, which never look at it.
pub(crate) struct RndvEntry {
    pub data: Arc<Vec<u8>>,
    pub done: Option<Arc<AtomicBool>>,
}

/// An RDMA-rendezvous entry: the sender staged the wire bytes in a
/// registered region and the receiver RDMA-reads them directly (foMPI-style
/// one-sided rendezvous). The entry tracks the staged region so the
/// receiver can return it to the *origin's* registration cache after the
/// read, plus the sender's completion flag and the origin's world rank.
pub(crate) struct RmaRndvEntry {
    pub region: litempi_fabric::MemoryRegion,
    pub done: Arc<AtomicBool>,
    pub origin: usize,
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
    /// Rendezvous (RTS/pull) table for large and synchronous sends.
    pub rndv: Mutex<HashMap<u64, RndvEntry>>,
    /// RDMA-rendezvous table: entries whose payload lives in a registered
    /// region instead of a staged heap buffer (shares the id space with
    /// `rndv` via `next_rndv`).
    pub rndv_rma: Mutex<HashMap<u64, RmaRndvEntry>>,
    /// Rendezvous id allocator.
    pub next_rndv: AtomicU64,
    /// Window id allocator.
    pub next_win: AtomicU64,
    /// Collective object rendezvous.
    pub meet: MeetTable,
}

impl UnivShared {
    /// Park `data` in the rendezvous table until the receiver pulls it.
    /// Takes the payload by move — the table holds the only copy.
    pub(crate) fn alloc_rndv(&self, data: Vec<u8>) -> (u64, Arc<AtomicBool>) {
        let done = Arc::new(AtomicBool::new(false));
        // The shared handle for the staged payload.
        litempi_instr::note_alloc(1);
        let id = self.park_rndv(Arc::new(data), Some(done.clone()));
        (id, done)
    }

    /// Expose already-staged storage (see `proto::stage_rndv`) for one
    /// receiver to pull, fire-and-forget: no completion flag, and nothing
    /// allocated here — a fan-out calls this once per destination with
    /// clones of one staging buffer.
    pub(crate) fn expose_rndv(&self, data: Arc<Vec<u8>>) -> u64 {
        self.park_rndv(data, None)
    }

    fn park_rndv(&self, data: Arc<Vec<u8>>, done: Option<Arc<AtomicBool>>) -> u64 {
        let id = self.next_rndv.fetch_add(1, Ordering::Relaxed);
        self.rndv.lock().insert(id, RndvEntry { data, done });
        id
    }

    /// Receiver side of the rendezvous pull: take the staged data out of
    /// the table (no copy), signal the sender. Returns `None` when no
    /// entry exists — a damaged or replayed RTS descriptor, which the
    /// receive path surfaces as an integrity error rather than a panic.
    pub(crate) fn pull_rndv(&self, id: u64) -> Option<Arc<Vec<u8>>> {
        let entry = self.rndv.lock().remove(&id)?;
        if let Some(done) = entry.done {
            done.store(true, Ordering::Release);
        }
        Some(entry.data)
    }

    /// Park a registered region holding staged wire bytes in the
    /// RDMA-rendezvous table. `origin` is the sender's world rank — the
    /// receiver returns the region to that endpoint's registration cache
    /// once the RDMA read completes.
    pub(crate) fn alloc_rndv_rma(
        &self,
        region: litempi_fabric::MemoryRegion,
        origin: usize,
    ) -> (u64, Arc<AtomicBool>) {
        let id = self.next_rndv.fetch_add(1, Ordering::Relaxed);
        let done = Arc::new(AtomicBool::new(false));
        litempi_instr::note_alloc(1);
        self.rndv_rma.lock().insert(
            id,
            RmaRndvEntry {
                region,
                done: done.clone(),
                origin,
            },
        );
        (id, done)
    }

    /// Receiver side of the RDMA rendezvous: claim the entry naming the
    /// sender's staged region. The caller performs the RDMA read, returns
    /// the region to the origin's registration cache, and signals `done`.
    /// `None` means a damaged or replayed descriptor — an integrity error
    /// upstream, never a panic.
    pub(crate) fn take_rndv_rma(&self, id: u64) -> Option<RmaRndvEntry> {
        self.rndv_rma.lock().remove(&id)
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
            rndv_rma: Mutex::new(HashMap::new()),
            next_rndv: AtomicU64::new(1),
            next_win: AtomicU64::new(1),
            meet: MeetTable::new(),
        });

        let f = &f;
        let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
        // The first panic in time: the ones after it are its peers tripping
        // over the abort.
        let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        std::thread::scope(|scope| {
            let handles: Vec<_> = results
                .iter_mut()
                .enumerate()
                .map(|(rank, slot)| {
                    let (univ, first_panic) = (univ.clone(), &first_panic);
                    let endpoint = univ.fabric.endpoint(NetAddr(rank as u32));
                    scope.spawn(move || {
                        let inner = Arc::new(ProcInner::new(rank, n, endpoint, config, univ));
                        let proc = Process::new(inner.clone());
                        match catch_unwind(AssertUnwindSafe(|| f(proc))) {
                            Ok(v) => *slot = Some(v),
                            Err(p) => {
                                first_panic.lock().get_or_insert(p);
                                inner.endpoint.fabric().abort_job();
                                return;
                            }
                        }
                        // MPI's delivery guarantee: a locally-completed eager
                        // send must still arrive. With the reliability layer
                        // on, the rank's fire-and-forget traffic may still be
                        // unacknowledged here, so drain it before teardown.
                        inner.endpoint.quiesce();
                    })
                })
                .collect();
            // Join each thread rather than let the scope wait for the
            // closures: a joined thread has given its allocator arena
            // back, so the next job on this process reuses it (measured:
            // +0.8 to +4 MiB peak RSS over five jobs otherwise).
            for h in handles {
                if let Err(p) = h.join() {
                    first_panic.lock().get_or_insert(p);
                }
            }
        });
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
    fn rndv_alloc_and_pull() {
        let out = Universe::run_default(1, |proc| {
            let univ = proc.univ();
            let (id, done) = univ.alloc_rndv(vec![1, 2, 3]);
            assert!(!done.load(Ordering::Acquire));
            let data = univ.pull_rndv(id).expect("entry present");
            assert_eq!(&*data, &vec![1, 2, 3]);
            assert!(done.load(Ordering::Acquire));
            assert!(univ.pull_rndv(id).is_none(), "pull consumes the entry");
            // A fan-out exposes one staging buffer under an id per reader;
            // the last handle standing is unique again (recyclable).
            let staged = Arc::new(vec![7u8; 4]);
            let (a, b) = (univ.expose_rndv(staged.clone()), univ.expose_rndv(staged));
            let first = univ.pull_rndv(a).expect("first reader");
            let mut last = univ.pull_rndv(b).expect("second reader");
            assert!(Arc::ptr_eq(&first, &last));
            drop(first);
            assert!(Arc::get_mut(&mut last).is_some());
            true
        });
        assert!(out[0]);
    }
}
