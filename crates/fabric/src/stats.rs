//! Per-endpoint traffic statistics.
//!
//! The application models for Figs 7–8 need *communication traces*: how many
//! messages and bytes each rank moves per iteration. Rather than instrument
//! the applications, the fabric counts traffic at the point of injection —
//! the same place a NIC's hardware counters would.
//!
//! Counters are split by locking domain. Send-side and one-sided counters
//! are updated *outside* the receiver's tag lock (any thread may inject),
//! so they live here as relaxed atomics. Matching-side counters are only
//! ever written under the tag lock, so they live in the matching engine as
//! plain integers ([`MatchCounters`](crate::matching::MatchCounters)) — an
//! atomic RMW costs more than the O(1) bucket operation it would account.
//! [`snapshot`](EndpointStats::snapshot) merges both into one
//! [`StatsSnapshot`].

use crate::matching::MatchCounters;
use crate::vci::MAX_VCIS;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic cross-thread traffic counters for one endpoint. All counters
/// use relaxed atomics: they are statistics, not synchronization.
#[derive(Debug, Default)]
pub struct EndpointStats {
    /// Tagged (two-sided) messages injected.
    pub msgs_sent: AtomicU64,
    /// Payload bytes injected via tagged sends.
    pub bytes_sent: AtomicU64,
    /// One-sided RDMA writes initiated.
    pub rdma_puts: AtomicU64,
    /// One-sided RDMA reads initiated.
    pub rdma_gets: AtomicU64,
    /// One-sided RDMA atomics initiated.
    pub rdma_atomics: AtomicU64,
    /// Bytes moved by this endpoint's initiated RDMA operations.
    pub rdma_bytes: AtomicU64,
    /// Active messages injected.
    pub am_sent: AtomicU64,
    /// Packets re-issued by the reliability layer: by its retransmit timer
    /// or, when a selective ACK reveals them lost, at once.
    pub retransmits: AtomicU64,
    /// Duplicate packets dropped by the dedup window (receiver side).
    pub dup_dropped: AtomicU64,
    /// Packets failing the CRC integrity check (receiver side).
    pub crc_failures: AtomicU64,
    /// Standalone ACK packets sent by this endpoint.
    pub acks_sent: AtomicU64,
    /// Packets the fault plan dropped (or killed) on this endpoint's sends.
    pub faults_dropped: AtomicU64,
    /// Liveness probes sent to quiet peers by the failure detector.
    pub probes_sent: AtomicU64,
    /// Peers this endpoint's detector moved to `Suspect`.
    pub peers_suspected: AtomicU64,
    /// Peers this endpoint declared `Dead` (heartbeat timeout or retry
    /// exhaustion in the reliability layer).
    pub peers_died: AtomicU64,
    /// Suspected peers that proved alive again (flapping links).
    pub peers_recovered: AtomicU64,
    /// Window (one-sided) operations issued into an access epoch.
    pub win_ops_issued: AtomicU64,
    /// Window operations completed: a passive-target put or accumulate
    /// when a flush/unlock retires it, everything else at issue — so the
    /// two counters diverge between issue and synchronization.
    pub win_ops_completed: AtomicU64,
    /// `flush`/`flush_local`/`flush_all` synchronization calls.
    pub win_flushes: AtomicU64,
    /// Registration-cache hits (region handle reused without re-pinning).
    pub reg_cache_hits: AtomicU64,
    /// Registration-cache misses (fresh pin-down registration).
    pub reg_cache_misses: AtomicU64,
    /// Completion events on this endpoint that found somebody parked and
    /// had to notify (lock + wake-up system call). An event nobody sleeps
    /// on — every delivery to a rank that is still polling — is not one.
    pub event_wakes: AtomicU64,
    /// Times this endpoint's rank, running as a user-level task, handed its
    /// worker thread to another rank (`task.rs`).
    pub task_switches: AtomicU64,
    /// Per-VCI lock acquisitions (critical section + tag engine). Only
    /// bumped when the endpoint runs more than one VCI, so the single-VCI
    /// fast path pays nothing for them.
    pub vci_acquires: [AtomicU64; MAX_VCIS],
    /// Per-VCI acquisitions that found the lock held by another thread —
    /// the shard-level contention the VCI design exists to eliminate.
    pub vci_contended: [AtomicU64; MAX_VCIS],
}

impl EndpointStats {
    #[inline]
    pub(crate) fn bump(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Snapshot all counters, merging the matching engine's tag-lock-domain
    /// counters with this endpoint's atomics. `resident_link_bytes` is the
    /// caller-computed gauge of per-peer reliability state currently in
    /// memory (the fabric sums it across VCIs under their locks — it is a
    /// point-in-time measurement, not a monotonic counter, so it has no
    /// atomic here).
    pub fn snapshot(&self, matching: &MatchCounters, resident_link_bytes: u64) -> StatsSnapshot {
        StatsSnapshot {
            resident_link_bytes,
            msgs_sent: self.msgs_sent.load(Ordering::Relaxed),
            msgs_received: matching.msgs_received,
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            bytes_received: matching.bytes_received,
            rdma_puts: self.rdma_puts.load(Ordering::Relaxed),
            rdma_gets: self.rdma_gets.load(Ordering::Relaxed),
            rdma_atomics: self.rdma_atomics.load(Ordering::Relaxed),
            rdma_bytes: self.rdma_bytes.load(Ordering::Relaxed),
            am_sent: self.am_sent.load(Ordering::Relaxed),
            retransmits: self.retransmits.load(Ordering::Relaxed),
            dup_dropped: self.dup_dropped.load(Ordering::Relaxed),
            crc_failures: self.crc_failures.load(Ordering::Relaxed),
            acks_sent: self.acks_sent.load(Ordering::Relaxed),
            faults_dropped: self.faults_dropped.load(Ordering::Relaxed),
            probes_sent: self.probes_sent.load(Ordering::Relaxed),
            peers_suspected: self.peers_suspected.load(Ordering::Relaxed),
            peers_died: self.peers_died.load(Ordering::Relaxed),
            peers_recovered: self.peers_recovered.load(Ordering::Relaxed),
            win_ops_issued: self.win_ops_issued.load(Ordering::Relaxed),
            win_ops_completed: self.win_ops_completed.load(Ordering::Relaxed),
            win_flushes: self.win_flushes.load(Ordering::Relaxed),
            reg_cache_hits: self.reg_cache_hits.load(Ordering::Relaxed),
            reg_cache_misses: self.reg_cache_misses.load(Ordering::Relaxed),
            event_wakes: self.event_wakes.load(Ordering::Relaxed),
            task_switches: self.task_switches.load(Ordering::Relaxed),
            unexpected: matching.unexpected,
            bucket_hits: matching.bucket_hits,
            wildcard_matches: matching.wildcard_matches,
            max_posted_depth: matching.max_posted_depth,
            max_unexpected_depth: matching.max_unexpected_depth,
            vci_acquires: load_array(&self.vci_acquires),
            vci_contended: load_array(&self.vci_contended),
        }
    }
}

fn load_array(a: &[AtomicU64; MAX_VCIS]) -> [u64; MAX_VCIS] {
    let mut out = [0u64; MAX_VCIS];
    for (dst, src) in out.iter_mut().zip(a.iter()) {
        *dst = src.load(Ordering::Relaxed);
    }
    out
}

fn diff_array(a: &[u64; MAX_VCIS], b: &[u64; MAX_VCIS]) -> [u64; MAX_VCIS] {
    let mut out = [0u64; MAX_VCIS];
    for (dst, (x, y)) in out.iter_mut().zip(a.iter().zip(b.iter())) {
        *dst = x - y;
    }
    out
}

/// A point-in-time copy of one endpoint's counters ([`EndpointStats`]
/// merged with its engine's [`MatchCounters`]), with plain integer fields.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct StatsSnapshot {
    pub msgs_sent: u64,
    pub msgs_received: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
    pub rdma_puts: u64,
    pub rdma_gets: u64,
    pub rdma_atomics: u64,
    pub rdma_bytes: u64,
    pub am_sent: u64,
    pub retransmits: u64,
    pub dup_dropped: u64,
    pub crc_failures: u64,
    pub acks_sent: u64,
    pub faults_dropped: u64,
    pub probes_sent: u64,
    pub peers_suspected: u64,
    pub peers_died: u64,
    pub peers_recovered: u64,
    pub win_ops_issued: u64,
    pub win_ops_completed: u64,
    pub win_flushes: u64,
    pub reg_cache_hits: u64,
    pub reg_cache_misses: u64,
    pub event_wakes: u64,
    pub task_switches: u64,
    pub unexpected: u64,
    pub bucket_hits: u64,
    pub wildcard_matches: u64,
    pub max_posted_depth: u64,
    pub max_unexpected_depth: u64,
    pub vci_acquires: [u64; MAX_VCIS],
    pub vci_contended: [u64; MAX_VCIS],
    /// Bytes pinned by resident per-peer link state across all VCIs — a
    /// gauge (current value), not a counter. O(active peers) by design;
    /// the scale tests compare it against the dense all-pairs baseline.
    pub resident_link_bytes: u64,
}

impl StatsSnapshot {
    /// Difference `self - earlier` (per-interval trace). The depth
    /// high-water marks are not differentiable, so the later snapshot's
    /// values carry through unchanged.
    pub fn diff(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            msgs_sent: self.msgs_sent - earlier.msgs_sent,
            msgs_received: self.msgs_received - earlier.msgs_received,
            bytes_sent: self.bytes_sent - earlier.bytes_sent,
            bytes_received: self.bytes_received - earlier.bytes_received,
            rdma_puts: self.rdma_puts - earlier.rdma_puts,
            rdma_gets: self.rdma_gets - earlier.rdma_gets,
            rdma_atomics: self.rdma_atomics - earlier.rdma_atomics,
            rdma_bytes: self.rdma_bytes - earlier.rdma_bytes,
            am_sent: self.am_sent - earlier.am_sent,
            retransmits: self.retransmits - earlier.retransmits,
            dup_dropped: self.dup_dropped - earlier.dup_dropped,
            crc_failures: self.crc_failures - earlier.crc_failures,
            acks_sent: self.acks_sent - earlier.acks_sent,
            faults_dropped: self.faults_dropped - earlier.faults_dropped,
            probes_sent: self.probes_sent - earlier.probes_sent,
            peers_suspected: self.peers_suspected - earlier.peers_suspected,
            peers_died: self.peers_died - earlier.peers_died,
            peers_recovered: self.peers_recovered - earlier.peers_recovered,
            win_ops_issued: self.win_ops_issued - earlier.win_ops_issued,
            win_ops_completed: self.win_ops_completed - earlier.win_ops_completed,
            win_flushes: self.win_flushes - earlier.win_flushes,
            reg_cache_hits: self.reg_cache_hits - earlier.reg_cache_hits,
            reg_cache_misses: self.reg_cache_misses - earlier.reg_cache_misses,
            event_wakes: self.event_wakes - earlier.event_wakes,
            task_switches: self.task_switches - earlier.task_switches,
            unexpected: self.unexpected - earlier.unexpected,
            bucket_hits: self.bucket_hits - earlier.bucket_hits,
            wildcard_matches: self.wildcard_matches - earlier.wildcard_matches,
            max_posted_depth: self.max_posted_depth,
            max_unexpected_depth: self.max_unexpected_depth,
            vci_acquires: diff_array(&self.vci_acquires, &earlier.vci_acquires),
            vci_contended: diff_array(&self.vci_contended, &earlier.vci_contended),
            // A gauge, like the depth high-water marks: the later value
            // carries through.
            resident_link_bytes: self.resident_link_bytes,
        }
    }

    /// Fraction of matches that took the exact-bits fast path, or `None`
    /// when nothing has matched yet.
    pub fn bucket_hit_rate(&self) -> Option<f64> {
        let total = self.bucket_hits + self.wildcard_matches;
        (total > 0).then(|| self.bucket_hits as f64 / total as f64)
    }

    /// Total two-sided + one-sided operations initiated.
    pub fn total_ops(&self) -> u64 {
        self.msgs_sent + self.rdma_puts + self.rdma_gets + self.rdma_atomics + self.am_sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_and_snapshot() {
        let s = EndpointStats::default();
        EndpointStats::bump(&s.msgs_sent, 3);
        EndpointStats::bump(&s.bytes_sent, 300);
        let snap = s.snapshot(&MatchCounters::default(), 0);
        assert_eq!(snap.msgs_sent, 3);
        assert_eq!(snap.bytes_sent, 300);
        assert_eq!(snap.total_ops(), 3);
    }

    #[test]
    fn diff_gives_interval() {
        let s = EndpointStats::default();
        let m = MatchCounters::default();
        EndpointStats::bump(&s.rdma_puts, 2);
        let a = s.snapshot(&m, 0);
        EndpointStats::bump(&s.rdma_puts, 5);
        EndpointStats::bump(&s.task_switches, 7);
        let b = s.snapshot(&m, 0);
        let d = b.diff(&a);
        assert_eq!((d.rdma_puts, d.task_switches), (5, 7));
    }

    #[test]
    fn default_snapshot_is_zero() {
        let snap = EndpointStats::default().snapshot(&MatchCounters::default(), 0);
        assert_eq!(snap, StatsSnapshot::default());
    }

    #[test]
    fn snapshot_merges_matching_counters() {
        let s = EndpointStats::default();
        let m = MatchCounters {
            msgs_received: 4,
            bytes_received: 64,
            unexpected: 1,
            bucket_hits: 3,
            wildcard_matches: 1,
            max_posted_depth: 5,
            max_unexpected_depth: 2,
        };
        let snap = s.snapshot(&m, 0);
        assert_eq!(snap.msgs_received, 4);
        assert_eq!(snap.bytes_received, 64);
        assert_eq!(snap.max_posted_depth, 5);
        assert_eq!(snap.bucket_hit_rate(), Some(0.75));
    }

    #[test]
    fn vci_counters_snapshot_and_diff() {
        let s = EndpointStats::default();
        EndpointStats::bump(&s.vci_acquires[2], 10);
        EndpointStats::bump(&s.vci_contended[2], 4);
        let a = s.snapshot(&MatchCounters::default(), 0);
        assert_eq!(a.vci_acquires[2], 10);
        assert_eq!(a.vci_contended[2], 4);
        EndpointStats::bump(&s.vci_acquires[2], 1);
        let b = s.snapshot(&MatchCounters::default(), 0);
        assert_eq!(b.diff(&a).vci_acquires[2], 1);
        assert_eq!(b.diff(&a).vci_contended[2], 0);
    }

    #[test]
    fn win_and_reg_cache_counters_snapshot_and_diff() {
        let s = EndpointStats::default();
        EndpointStats::bump(&s.win_ops_issued, 4);
        EndpointStats::bump(&s.win_ops_completed, 4);
        EndpointStats::bump(&s.win_flushes, 1);
        EndpointStats::bump(&s.reg_cache_misses, 1);
        let a = s.snapshot(&MatchCounters::default(), 0);
        assert_eq!(a.win_ops_issued, 4);
        assert_eq!(a.win_flushes, 1);
        EndpointStats::bump(&s.reg_cache_hits, 2);
        let b = s.snapshot(&MatchCounters::default(), 0);
        assert_eq!(b.diff(&a).reg_cache_hits, 2);
        assert_eq!(b.diff(&a).reg_cache_misses, 0);
    }

    #[test]
    fn resident_gauge_carries_through_diff() {
        let s = EndpointStats::default();
        let a = s.snapshot(&MatchCounters::default(), 4096);
        let b = s.snapshot(&MatchCounters::default(), 128);
        assert_eq!(a.resident_link_bytes, 4096);
        // A gauge, not a counter: the later (smaller, post-reclaim) value
        // survives the diff instead of underflowing.
        assert_eq!(b.diff(&a).resident_link_bytes, 128);
    }

    #[test]
    fn bucket_hit_rate() {
        let mut snap = StatsSnapshot::default();
        assert_eq!(snap.bucket_hit_rate(), None);
        snap.bucket_hits = 3;
        snap.wildcard_matches = 1;
        assert_eq!(snap.bucket_hit_rate(), Some(0.75));
    }
}
