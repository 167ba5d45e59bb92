//! The fabric: the set of endpoints, the region table, and the provider
//! profile shared by one simulated job.

use crate::addr::NetAddr;
use crate::cost::ProviderProfile;
use crate::endpoint::{Endpoint, EndpointShared};
use crate::pool::PayloadPool;
use crate::region::{MemoryRegion, RegionKey};
use crate::topology::Topology;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One simulated network: `n` endpoints, a registered-memory table, a
/// topology, and a provider profile. Create once per job (`Universe`).
#[derive(Debug)]
pub struct Fabric {
    profile: ProviderProfile,
    topology: Topology,
    endpoints: Vec<EndpointShared>,
    regions: RwLock<HashMap<RegionKey, MemoryRegion>>,
    next_rkey: AtomicU64,
    /// One wire-buffer arena per VCI, so concurrent injectors on different
    /// shards never contend on pool free lists. Entry 0 is the original
    /// single arena; with one VCI nothing changes.
    pools: Box<[PayloadPool]>,
    /// Resolved VCI count ([`Fabric::resolve_vcis`]); every endpoint runs
    /// this many shards.
    n_vcis: usize,
    /// Epoch for the retransmit-timer clock ([`Fabric::now_us`]).
    t0: Instant,
    /// Packets the kill-switch victim has touched so far.
    kill_count: AtomicU64,
    /// Set once the kill switch has fired (the victim is off the fabric).
    kill_tripped: AtomicBool,
    /// Set by [`Fabric::abort_job`]: the whole job is going down.
    aborted: AtomicBool,
    /// Ranks whose body has not returned yet ([`Fabric::rank_returned`]).
    running: AtomicUsize,
    /// Ranks that have not drained their reliability state yet
    /// ([`Fabric::rank_drained`]).
    draining: AtomicUsize,
    /// Hoisted from `profile.trace.enabled`, same as the endpoint's
    /// reliability/jitter flags: a disabled trace costs one predictable
    /// branch at each event site.
    trace_enabled: bool,
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
        let n_vcis = Self::resolve_vcis(&profile);
        let endpoints = (0..n)
            .map(|i| EndpointShared::new(&profile, NetAddr(i as u32), n, n_vcis))
            .collect();
        let pools = (0..n_vcis)
            .map(|_| PayloadPool::with_tracing(profile.trace.enabled))
            .collect();
        Arc::new(Fabric {
            profile,
            topology,
            endpoints,
            regions: RwLock::new(HashMap::new()),
            next_rkey: AtomicU64::new(1),
            pools,
            n_vcis,
            t0: Instant::now(),
            kill_count: AtomicU64::new(0),
            kill_tripped: AtomicBool::new(false),
            aborted: AtomicBool::new(false),
            running: AtomicUsize::new(n),
            draining: AtomicUsize::new(n),
            trace_enabled: profile.trace.enabled,
        })
    }

    /// Resolve the VCI count for a fabric: the `LITEMPI_VCIS` environment
    /// variable when set (and parseable) takes precedence over the
    /// profile's `num_vcis`, letting CI and ablation runs re-shard a build
    /// without code changes. Either source is clamped to
    /// `1..=`[`MAX_VCIS`](crate::vci::MAX_VCIS).
    fn resolve_vcis(profile: &ProviderProfile) -> usize {
        let requested = std::env::var("LITEMPI_VCIS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(profile.num_vcis);
        requested.clamp(1, crate::vci::MAX_VCIS)
    }

    /// Microseconds since fabric creation (the reliability layer's clock).
    pub(crate) fn now_us(&self) -> u64 {
        self.t0.elapsed().as_micros() as u64
    }

    /// The fabric's creation instant — the shared clock origin trace
    /// recorders stamp events against, so every rank's track aligns.
    pub fn epoch(&self) -> Instant {
        self.t0
    }

    /// Is event tracing on for this fabric? Hoisted at construction; the
    /// layers above consult this (never the profile) on hot paths.
    #[inline]
    pub fn trace_enabled(&self) -> bool {
        self.trace_enabled
    }

    /// Account one packet against the kill switch.
    pub(crate) fn kill_packet(&self, src: NetAddr, dst: NetAddr) -> KillVerdict {
        let Some(k) = self.profile.faults.kill else {
            return KillVerdict::Pass;
        };
        if src.0 != k.endpoint && dst.0 != k.endpoint {
            return KillVerdict::Pass;
        }
        if self.kill_tripped.load(Ordering::Acquire) {
            return KillVerdict::Dead;
        }
        let n = self.kill_count.fetch_add(1, Ordering::AcqRel) + 1;
        if n >= k.after_packets {
            KillVerdict::Last
        } else {
            KillVerdict::Pass
        }
    }

    /// The packet [`KillVerdict::Last`] was said of has been handed over:
    /// the victim is dead from here on.
    pub(crate) fn trip_kill(&self) {
        self.kill_tripped.store(true, Ordering::Release);
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
        for ep in self.endpoints.iter() {
            ep.bump_event_all();
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
            for ep in self.endpoints.iter() {
                ep.bump_event_all();
            }
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
    /// With multiple VCIs this is VCI 0's arena; shard-aware callers use
    /// [`Fabric::pool_vci`].
    pub fn pool(&self) -> &PayloadPool {
        &self.pools[0]
    }

    /// The wire-buffer arena owned by one VCI.
    pub fn pool_vci(&self, vci: usize) -> &PayloadPool {
        &self.pools[vci]
    }

    /// The number of virtual communication interfaces each endpoint runs
    /// (1 = the unsharded configuration the paper analyzes).
    pub fn n_vcis(&self) -> usize {
        self.n_vcis
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

#[cfg(test)]
mod tests {
    use super::*;

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
        let epoch = |f: &Fabric| f.shared(NetAddr(1)).event_epoch();
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
