//! The fabric: the set of endpoints, the region table, and the provider
//! profile shared by one simulated job.
//!
//! ## The reliability clock
//!
//! Retransmit timers and RTT samples run on one microsecond clock,
//! `Fabric::now_us`, read a few times per reliable message. On x86-64,
//! where CPUID reports an invariant time-stamp counter, it is the TSC
//! scaled to microseconds by a factor calibrated once per process
//! against `Instant` (about 1.5 ms, at the first fabric's construction),
//! the way UCX's `ucs_get_time` and MPICH's MPL cycle timer time their
//! protocols: a read costs about half an `Instant` read through the vDSO.
//! On every other CPU or platform the clock is `Instant`. The RTO floor is
//! 50 µs, so microsecond resolution suffices. [`Fabric::epoch`] and the
//! trace clock stay on `Instant`.

use crate::addr::NetAddr;
use crate::cost::ProviderProfile;
use crate::endpoint::{Endpoint, EndpointShared};
use crate::pool::PayloadPool;
use crate::region::{MemoryRegion, RegionKey};
use crate::topology::Topology;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// One simulated network: `n` endpoints, a registered-memory table, a
/// topology, and a provider profile. Create once per job (`Universe`).
#[derive(Debug)]
pub struct Fabric {
    profile: ProviderProfile,
    topology: Topology,
    endpoints: Vec<EndpointShared>,
    regions: RwLock<HashMap<RegionKey, MemoryRegion>>,
    next_rkey: AtomicU64,
    /// The wire-buffer arena ([`Fabric::pool`]).
    pool: PayloadPool,
    /// The reliability layer's clock ([`Fabric::now_us`]), zero at the
    /// fabric's creation instant ([`Fabric::epoch`]).
    clock: Clock,
    /// Data packets sent by or to the kill-switch victim so far (first
    /// transmissions only: [`Fabric::kill_packet`]).
    kill_count: AtomicU64,
    /// Set once the kill switch has fired (the victim is off the fabric).
    kill_tripped: AtomicBool,
    /// Set by [`Fabric::abort_job`]: the whole job is going down.
    aborted: AtomicBool,
    /// The job's fault word: zero while nothing has failed anywhere in the
    /// job, bumped (Release) by every failure source after it has recorded
    /// its own state ([`Fabric::note_fault`]). Every ULFM gate tests it
    /// first ([`Fabric::fault_free`]), so a healthy job pays one load per
    /// gate and the slow paths behind it stay exact.
    faults: AtomicU64,
    /// Ranks whose body has not returned yet ([`Fabric::rank_returned`]).
    running: AtomicUsize,
    /// Ranks that have not drained their reliability state yet
    /// ([`Fabric::rank_drained`]).
    draining: AtomicUsize,
    /// Hoisted from `profile.trace.enabled`, same as the endpoint's
    /// reliability flags: a disabled trace costs one predictable
    /// branch at each event site.
    trace_enabled: bool,
    /// Reads of [`Fabric::now_us`] so far, for the tests that bound them.
    #[cfg(test)]
    pub(crate) clock_reads: AtomicU64,
}

/// What the kill switch says about one packet ([`Fabric::kill_packet`]).
pub(crate) enum KillVerdict {
    /// Not the victim's, or the victim still has packets to live.
    Pass,
    /// The victim's last packet: it still goes through, and death starts
    /// once it has been delivered ([`Fabric::trip_kill`]) — not before, so
    /// that whoever sees the death can also see the message.
    Last,
    /// The victim is dead; the packet vanishes.
    Dead,
}

impl Fabric {
    /// Build a fabric with `n` endpoints.
    pub fn new(n: usize, profile: ProviderProfile, topology: Topology) -> Arc<Fabric> {
        assert_eq!(topology.n_ranks(), n, "topology must cover exactly n ranks");
        let endpoints = (0..n)
            .map(|i| EndpointShared::new(&profile, NetAddr(i as u32)))
            .collect();
        let pool = PayloadPool::with_tracing(profile.trace.enabled);
        Arc::new(Fabric {
            profile,
            topology,
            endpoints,
            regions: RwLock::new(HashMap::new()),
            next_rkey: AtomicU64::new(1),
            pool,
            clock: Clock::new(tsc_scale()),
            kill_count: AtomicU64::new(0),
            kill_tripped: AtomicBool::new(false),
            aborted: AtomicBool::new(false),
            faults: AtomicU64::new(0),
            running: AtomicUsize::new(n),
            draining: AtomicUsize::new(n),
            trace_enabled: profile.trace.enabled,
            #[cfg(test)]
            clock_reads: AtomicU64::new(0),
        })
    }

    /// Microseconds since fabric creation (the reliability layer's clock;
    /// see the module docs).
    #[inline]
    pub(crate) fn now_us(&self) -> u64 {
        #[cfg(test)]
        self.clock_reads.fetch_add(1, Ordering::Relaxed);
        self.clock.now_us()
    }

    /// The fabric's creation instant — the shared clock origin trace
    /// recorders stamp events against, so every rank's track aligns.
    pub fn epoch(&self) -> Instant {
        self.clock.t0
    }

    /// Is event tracing on for this fabric? Hoisted at construction; the
    /// layers above consult this (never the profile) on hot paths.
    #[inline]
    pub fn trace_enabled(&self) -> bool {
        self.trace_enabled
    }

    /// Account one packet against the kill switch. Only a data packet's
    /// `first` transmission counts; a resend or an ACK passes until the
    /// switch has tripped, and vanishes after.
    pub(crate) fn kill_packet(&self, src: NetAddr, dst: NetAddr, first: bool) -> KillVerdict {
        let Some(k) = self.profile.faults.kill else {
            return KillVerdict::Pass;
        };
        if src.0 != k.endpoint && dst.0 != k.endpoint {
            return KillVerdict::Pass;
        }
        if self.kill_tripped.load(Ordering::Acquire) {
            return KillVerdict::Dead;
        }
        if !first {
            return KillVerdict::Pass;
        }
        let n = self.kill_count.fetch_add(1, Ordering::AcqRel) + 1;
        if n >= k.after_packets {
            KillVerdict::Last
        } else {
            KillVerdict::Pass
        }
    }

    /// The packet [`KillVerdict::Last`] was said of has been handed over:
    /// the victim is dead from here on, and every endpoint's event epoch
    /// moves so that a rank waiting on it sees the death.
    pub(crate) fn trip_kill(&self) {
        if !self.kill_tripped.swap(true, Ordering::AcqRel) {
            self.note_fault();
            self.bump_all();
        }
    }

    /// Has the kill switch fired for `addr`? Modeled as a fabric-wide
    /// link-down event: peers can observe it without exchanging packets
    /// with the corpse (the way a real provider surfaces a downed port).
    pub fn endpoint_killed(&self, addr: NetAddr) -> bool {
        match self.profile.faults.kill {
            Some(k) => addr.0 == k.endpoint && self.kill_tripped.load(Ordering::Acquire),
            None => false,
        }
    }

    /// `MPI_ABORT`: take the whole job down. Every endpoint then reports
    /// every peer unreachable, and every endpoint's event epoch moves so
    /// that parked waiters re-poll at once and see it. Idempotent.
    pub fn abort_job(&self) {
        self.aborted.store(true, Ordering::Release);
        self.note_fault();
        self.bump_all();
    }

    /// Has nothing failed in this job yet: no abort, no kill, no death
    /// verdict, no revocation on any rank? One Acquire load, the whole of
    /// every ULFM gate in a healthy job. When it reads `false`, a gate runs
    /// its exact checks, which the failure source recorded before its
    /// [`Fabric::note_fault`] made this load see it.
    #[inline]
    pub fn fault_free(&self) -> bool {
        self.faults.load(Ordering::Acquire) == 0
    }

    /// Record that something failed, after the caller has stored what
    /// failed (the abort flag, the kill switch, a link's death, a revoked
    /// context): the Release pairs with [`Fabric::fault_free`]'s Acquire.
    pub fn note_fault(&self) {
        self.faults.fetch_add(1, Ordering::Release);
    }

    /// Move every endpoint's event epoch: job-wide state changed.
    fn bump_all(&self) {
        for ep in self.endpoints.iter() {
            ep.bump_event();
        }
    }

    /// Has [`Fabric::abort_job`] been called?
    pub(crate) fn job_aborted(&self) -> bool {
        self.aborted.load(Ordering::Acquire)
    }

    /// A rank's body has returned. Until every rank's has
    /// ([`Fabric::all_returned`]) it keeps driving its endpoint — ACKs,
    /// retransmits, active messages — because a peer still running may
    /// need them. The last one moves every endpoint's event epoch.
    pub fn rank_returned(&self) {
        self.count_down(&self.running);
    }

    /// Has every rank's body returned, or the job been aborted?
    pub fn all_returned(&self) -> bool {
        self.job_aborted() || self.running.load(Ordering::Acquire) == 0
    }

    /// A rank has drained its own unacknowledged traffic
    /// ([`Endpoint::quiesce`]). Until every rank has
    /// ([`Fabric::all_drained`]) it keeps acknowledging its peers'
    /// retransmits. The last one moves every endpoint's event epoch.
    pub fn rank_drained(&self) {
        self.count_down(&self.draining);
    }

    /// Has every rank drained, or the job been aborted?
    pub fn all_drained(&self) -> bool {
        self.job_aborted() || self.draining.load(Ordering::Acquire) == 0
    }

    fn count_down(&self, left: &AtomicUsize) {
        if left.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.bump_all();
        }
    }

    /// Number of endpoints.
    pub fn n_endpoints(&self) -> usize {
        self.endpoints.len()
    }

    /// The provider profile (capabilities + cost table).
    pub fn profile(&self) -> &ProviderProfile {
        &self.profile
    }

    /// The rank placement.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The shared wire-buffer pool senders take from and receivers release
    /// consumed payloads back into (the single-copy payload pipeline).
    pub fn pool(&self) -> &PayloadPool {
        &self.pool
    }

    /// Open the endpoint at `addr`.
    pub fn endpoint(self: &Arc<Self>, addr: NetAddr) -> Endpoint {
        assert!(
            addr.index() < self.endpoints.len(),
            "no such endpoint: {addr}"
        );
        Endpoint::new(self.clone(), addr)
    }

    pub(crate) fn shared(&self, addr: NetAddr) -> &EndpointShared {
        &self.endpoints[addr.index()]
    }

    /// Register `len` bytes of remotely accessible memory; returns the
    /// region handle (its key is the fabric-wide rkey).
    pub fn register(&self, len: usize) -> MemoryRegion {
        let key = RegionKey(self.next_rkey.fetch_add(1, Ordering::Relaxed));
        let region = MemoryRegion::new(key, len);
        self.regions.write().insert(key, region.clone());
        region
    }

    /// Invalidate a region key. Subsequent access through the fabric panics
    /// (protection error), though existing `MemoryRegion` clones keep the
    /// storage alive.
    pub fn deregister(&self, key: RegionKey) {
        self.regions.write().remove(&key);
    }

    /// Look up a registered region by key (initiator side of RDMA; also
    /// used by MPI layers above to reach their own exposed window memory).
    /// Panics on an unregistered key, like a NIC protection error.
    pub fn region(&self, key: RegionKey) -> MemoryRegion {
        self.regions
            .read()
            .get(&key)
            .cloned()
            .unwrap_or_else(|| panic!("rdma access to unregistered region {key:?}"))
    }

    /// Is a region currently registered?
    pub fn is_registered(&self, key: RegionKey) -> bool {
        self.regions.read().contains_key(&key)
    }

    /// Length of a registered region, or `None` if the key is stale — the
    /// non-panicking lookup the RMA range checks use.
    pub fn region_len(&self, key: RegionKey) -> Option<usize> {
        self.regions.read().get(&key).map(|r| r.len())
    }
}

/// A microsecond clock that starts at zero: the time-stamp counter scaled
/// by a calibrated factor, or `Instant` where there is none.
#[derive(Debug, Clone, Copy)]
struct Clock {
    t0: Instant,
    /// The counter at `t0` and µs per tick × 2^[`TSC_SHIFT`], or `None`:
    /// `Instant`.
    tsc: Option<(u64, u64)>,
}

/// Fraction bits of the µs-per-tick factor: at 5 GHz a tick is 2^-12.3
/// µs, so the factor keeps 27 significant bits.
const TSC_SHIFT: u32 = 40;

impl Clock {
    /// A clock on the TSC with µs-per-tick factor `tsc` ([`tsc_scale`]),
    /// or on `Instant` for `None`.
    fn new(tsc: Option<u64>) -> Clock {
        Clock {
            t0: Instant::now(),
            tsc: tsc.map(|scale| (rdtsc(), scale)),
        }
    }

    #[inline]
    fn now_us(&self) -> u64 {
        match self.tsc {
            Some((at_t0, us_per_tick)) => {
                // Saturating: a thread whose core's counter trails the one
                // that read `at_t0` reads zero, not a wrapped time.
                let ticks = rdtsc().saturating_sub(at_t0);
                ((u128::from(ticks) * u128::from(us_per_tick)) >> TSC_SHIFT) as u64
            }
            None => self.t0.elapsed().as_micros() as u64,
        }
    }
}

/// The calibrated TSC factor of this process, or `None` where the CPU
/// reports no invariant TSC (or the platform has none).
fn tsc_scale() -> Option<u64> {
    static SCALE: OnceLock<Option<u64>> = OnceLock::new();
    *SCALE.get_or_init(|| invariant_tsc().then(calibrate_tsc).flatten())
}

/// How long [`calibrate_tsc`] measures the counter against `Instant`.
const TSC_CALIBRATION: Duration = Duration::from_micros(1_500);

/// Count TSC ticks over [`TSC_CALIBRATION`] of `Instant` time. Each end is
/// the `Instant` read with the narrowest counter bracket of a few tries,
/// so a preemption mid-read costs nothing.
fn calibrate_tsc() -> Option<u64> {
    fn pair() -> (Instant, u64) {
        (0..8)
            .map(|_| {
                let before = rdtsc();
                let at = Instant::now();
                let after = rdtsc();
                (after.wrapping_sub(before), at, before / 2 + after / 2)
            })
            .min_by_key(|&(width, ..)| width)
            .map(|(_, at, tsc)| (at, tsc))
            .expect("eight tries")
    }
    let (i0, c0) = pair();
    while i0.elapsed() < TSC_CALIBRATION {
        std::hint::spin_loop();
    }
    let (i1, c1) = pair();
    let ticks = c1.checked_sub(c0).filter(|&t| t > 0)?;
    let us = (i1 - i0).as_nanos() as f64 / 1e3;
    Some((us / ticks as f64 * (1u64 << TSC_SHIFT) as f64) as u64)
}

/// Does CPUID report an invariant TSC (one that ticks at a constant rate
/// in every P-, C- and T-state: leaf 0x8000_0007, EDX bit 8)?
#[cfg(target_arch = "x86_64")]
fn invariant_tsc() -> bool {
    use std::arch::x86_64::__cpuid;
    __cpuid(0x8000_0000).eax >= 0x8000_0007 && __cpuid(0x8000_0007).edx & (1 << 8) != 0
}

#[cfg(not(target_arch = "x86_64"))]
fn invariant_tsc() -> bool {
    false
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn rdtsc() -> u64 {
    // SAFETY: RDTSC is part of the x86-64 baseline; it reads a counter and
    // touches no memory.
    unsafe { std::arch::x86_64::_rdtsc() }
}

/// Never called: [`invariant_tsc`] is false off x86-64.
#[cfg(not(target_arch = "x86_64"))]
fn rdtsc() -> u64 {
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The TSC clock where this CPU has one, and the `Instant` clock.
    fn clocks() -> Vec<Clock> {
        assert_eq!(
            tsc_scale().is_some(),
            invariant_tsc(),
            "an invariant TSC is calibrated"
        );
        [tsc_scale(), None].into_iter().map(Clock::new).collect()
    }

    #[test]
    fn relia_clock_never_decreases_across_two_threads() {
        for clock in clocks() {
            let (tx, rx) = std::sync::mpsc::channel::<u64>();
            std::thread::scope(|s| {
                // Each thread's own reads never go back, and a reading
                // handed to the other thread is never ahead of the other
                // thread's next one.
                s.spawn(move || {
                    let mut last = 0;
                    for i in 0..200_000 {
                        let t = clock.now_us();
                        assert!(t >= last, "{t} after {last}");
                        last = t;
                        if i % 1_000 == 0 {
                            tx.send(t).expect("the reader outlives the sender");
                        }
                    }
                });
                s.spawn(move || {
                    let mut last = 0;
                    for sent in rx {
                        let t = clock.now_us();
                        assert!(t >= sent && t >= last, "{t} after {sent} and {last}");
                        last = t;
                    }
                });
            });
        }
    }

    /// A reading of `clock` and the `Instant` halfway between two reads
    /// around it, from the narrowest of several tries: a preemption inside
    /// one try widens only that try.
    fn bracketed(clock: Clock) -> (u64, Instant) {
        (0..16)
            .map(|_| {
                let before = Instant::now();
                let us = clock.now_us();
                let width = before.elapsed();
                (width, us, before + width / 2)
            })
            .min_by_key(|&(width, ..)| width)
            .map(|(_, us, at)| (us, at))
            .expect("sixteen tries")
    }

    #[test]
    fn relia_clock_agrees_with_instant_within_one_percent() {
        for clock in clocks() {
            let (c0, i0) = bracketed(clock);
            std::thread::sleep(Duration::from_millis(25));
            let (c1, i1) = bracketed(clock);
            let want = (i1 - i0).as_micros() as f64;
            let got = (c1 - c0) as f64;
            assert!(
                want >= 20_000.0 && (got - want).abs() <= want / 100.0,
                "{got} µs by the clock against {want} µs by Instant ({clock:?})"
            );
        }
    }

    #[test]
    fn construction_and_accessors() {
        let f = Fabric::new(4, ProviderProfile::ofi(), Topology::blocked(4, 2));
        assert_eq!(f.n_endpoints(), 4);
        assert_eq!(f.profile().kind, crate::ProviderKind::Ofi);
        assert!(f.topology().same_node(NetAddr(0), NetAddr(1)));
        assert!(!f.topology().same_node(NetAddr(1), NetAddr(2)));
    }

    #[test]
    #[should_panic(expected = "topology must cover")]
    fn topology_size_mismatch_panics() {
        Fabric::new(4, ProviderProfile::ofi(), Topology::single_node(3));
    }

    #[test]
    #[should_panic(expected = "no such endpoint")]
    fn bad_endpoint_panics() {
        let f = Fabric::new(2, ProviderProfile::infinite(), Topology::single_node(2));
        let _ = f.endpoint(NetAddr(5));
    }

    #[test]
    fn the_last_rank_to_leave_ends_each_countdown() {
        let f = Fabric::new(2, ProviderProfile::infinite(), Topology::single_node(2));
        let epoch = |f: &Fabric| f.shared(NetAddr(1)).events.epoch();
        let before = epoch(&f);
        f.rank_returned();
        assert!(!f.all_returned());
        assert_eq!(epoch(&f), before, "only the last one wakes everyone");
        f.rank_returned();
        assert!(f.all_returned() && !f.all_drained());
        assert!(epoch(&f) > before);
        f.abort_job();
        assert!(f.all_drained(), "an aborted job waits for nobody");
    }

    #[test]
    fn register_deregister() {
        let f = Fabric::new(1, ProviderProfile::infinite(), Topology::single_node(1));
        let r = f.register(32);
        assert!(f.is_registered(r.key()));
        f.deregister(r.key());
        assert!(!f.is_registered(r.key()));
    }

    #[test]
    #[should_panic(expected = "unregistered region")]
    fn access_after_deregister_panics() {
        let f = Fabric::new(1, ProviderProfile::infinite(), Topology::single_node(1));
        let r = f.register(32);
        f.deregister(r.key());
        let _ = f.region(r.key());
    }

    #[test]
    fn rkeys_are_unique() {
        let f = Fabric::new(1, ProviderProfile::infinite(), Topology::single_node(1));
        let a = f.register(8);
        let b = f.register(8);
        assert_ne!(a.key(), b.key());
    }
}
