//! Provider profiles: capabilities and cycle-cost tables.
//!
//! The paper evaluates four network configurations: Intel Omni-Path with
//! PSM2 through the OFI netmod (the "IT" cluster), Mellanox EDR through the
//! UCX netmod (the "Gomez" cluster), the IBM BG/Q torus (application runs
//! on Cetus/Mira), and a modified "infinitely fast" build in which the
//! library performs all work *except* the actual network transmission
//! (§4.2). A profile bundles what `litempi-core`'s netmod needs to know to
//! choose fast path vs. fallback (capabilities) with what `litempi-model`
//! needs to turn instruction counts into rates and application time
//! (the [`NetCost`] table).
//!
//! ## Calibration of the cost tables
//!
//! The per-message hardware injection cost is chosen so that the modeled
//! message-rate figures reproduce the paper's observations on real fabrics:
//! "nearly a 50% increase in the message rate for `MPI_ISEND` and close to
//! a fourfold increase in the message rate for `MPI_PUT`" between
//! MPICH/Original and the fully optimized CH4 build (§4.2, Figs 3–4), with
//! absolute rates in the single-digit millions of messages per second.
//! Latency/bandwidth figures are public specifications of the respective
//! fabrics and feed the LogGP application models (Figs 7–8).

use crate::fault::FaultPlan;
use crate::reliability::ReliabilityConfig;
use litempi_trace::TraceConfig;

/// Which simulated provider this is (selects netmod code paths and labels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProviderKind {
    /// OFI/libfabric over Intel Omni-Path + PSM2 (paper's "IT" cluster).
    Ofi,
    /// UCX over Mellanox EDR InfiniBand (paper's "Gomez" cluster).
    Ucx,
    /// IBM Blue Gene/Q torus (paper's Cetus/Mira application platforms).
    Bgq,
    /// The paper's modified library: full software stack, zero network cost.
    Infinite,
    /// A deliberately feature-poor provider with neither native tagged
    /// matching nor native RDMA, forcing every operation through the CH4
    /// core's active-message fallback. Not in the paper; used to exercise
    /// the fallback paths the paper's architecture description mandates.
    AmOnly,
}

impl ProviderKind {
    /// Display label used in harness output.
    pub const fn label(self) -> &'static str {
        match self {
            ProviderKind::Ofi => "ofi/psm2",
            ProviderKind::Ucx => "ucx/edr",
            ProviderKind::Bgq => "bgq/torus",
            ProviderKind::Infinite => "infinite",
            ProviderKind::AmOnly => "am-only",
        }
    }
}

/// Which tag-matching engine a [`MatchEngine`](crate::matching::MatchEngine)
/// runs (see the `matching` module for the two implementations). Endpoints
/// always run the bucketed one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MatcherKind {
    /// Hash-bucketed O(1) matching with a sequence-arbitrated wildcard
    /// overflow list — the default.
    #[default]
    Bucketed,
    /// The original linear-scan matcher, kept as an ablation baseline for
    /// the depth-sweep benchmarks.
    Linear,
}

/// Per-message / per-byte hardware costs of a provider, used analytically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetCost {
    /// CPU cycles the NIC doorbell + descriptor hand-off adds to one
    /// two-sided message injection, beyond the MPI software instructions.
    pub inject_cycles_send: f64,
    /// Same for a one-sided RDMA operation (RDMA descriptors are larger).
    pub inject_cycles_rdma: f64,
    /// End-to-end small-message latency in nanoseconds (LogGP `L`).
    pub latency_ns: f64,
    /// Sustained point-to-point bandwidth in GiB/s (LogGP `1/G`).
    pub bandwidth_gib_s: f64,
}

impl NetCost {
    /// Zero-cost network (the paper's "infinitely fast" configuration).
    pub const ZERO: NetCost = NetCost {
        inject_cycles_send: 0.0,
        inject_cycles_rdma: 0.0,
        latency_ns: 0.0,
        bandwidth_gib_s: f64::INFINITY,
    };

    /// Seconds to move `bytes` once injected (the G·k term of LogGP).
    #[inline]
    pub fn transfer_seconds(&self, bytes: usize) -> f64 {
        if self.bandwidth_gib_s.is_infinite() {
            0.0
        } else {
            bytes as f64 / (self.bandwidth_gib_s * 1024.0 * 1024.0 * 1024.0)
        }
    }
}

/// Capability flags steering the netmod's fast-path decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capabilities {
    /// Provider matches tagged messages natively (PSM2-style). When false,
    /// the CH4 core must run its own matching over active messages.
    pub native_tagged: bool,
    /// Provider implements contiguous RDMA put/get/atomic natively. When
    /// false, RMA falls back to active messages.
    pub native_rdma: bool,
    /// Largest message sent eagerly (copied at injection); larger messages
    /// use a rendezvous protocol.
    pub max_eager: usize,
}

/// A complete provider description: identity + capabilities + costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProviderProfile {
    /// Which fabric this models.
    pub kind: ProviderKind,
    /// Fast-path capability flags.
    pub caps: Capabilities,
    /// Analytic cost table.
    pub cost: NetCost,
    /// Deterministic fault-injection plan; [`FaultPlan::NONE`] (the
    /// default) leaves delivery byte- and charge-identical to a fabric
    /// without fault support, and any other plan runs the reliability
    /// protocol.
    pub faults: FaultPlan,
    /// Software reliability protocol (seq/ack/retransmit); off by default,
    /// and on whenever `faults` is not empty.
    pub reliability: ReliabilityConfig,
    /// Event-tracing opt-in; [`TraceConfig::OFF`] (the default) keeps
    /// every event site down to one predictable branch, with charges and
    /// wire bytes bit-identical to an untraced build.
    pub trace: TraceConfig,
}

impl ProviderProfile {
    /// OFI/PSM2 on Intel Omni-Path, as on the paper's 2.2 GHz "IT" cluster.
    /// 100 Gb/s fabric, ~1 µs small-message latency. Injection costs are
    /// calibrated per the module docs.
    pub const fn ofi() -> Self {
        ProviderProfile {
            kind: ProviderKind::Ofi,
            caps: Capabilities {
                native_tagged: true,
                native_rdma: true,
                max_eager: 16 * 1024,
            },
            cost: NetCost {
                inject_cycles_send: 330.0,
                inject_cycles_rdma: 430.0,
                latency_ns: 1100.0,
                bandwidth_gib_s: 11.0,
            },
            faults: FaultPlan::NONE,
            reliability: ReliabilityConfig::OFF,
            trace: TraceConfig::OFF,
        }
    }

    /// UCX on Mellanox EDR, as on the paper's 2.5 GHz "Gomez" cluster.
    pub const fn ucx() -> Self {
        ProviderProfile {
            kind: ProviderKind::Ucx,
            caps: Capabilities {
                native_tagged: true,
                native_rdma: true,
                max_eager: 8 * 1024,
            },
            cost: NetCost {
                inject_cycles_send: 380.0,
                inject_cycles_rdma: 470.0,
                latency_ns: 900.0,
                bandwidth_gib_s: 11.3,
            },
            faults: FaultPlan::NONE,
            reliability: ReliabilityConfig::OFF,
            trace: TraceConfig::OFF,
        }
    }

    /// IBM BG/Q torus (Cetus/Mira): 1.6 GHz A2 cores, ~2 GB/s per link,
    /// multi-microsecond MPI small-message latency. Used by the Fig 7/8
    /// application models.
    pub const fn bgq() -> Self {
        ProviderProfile {
            kind: ProviderKind::Bgq,
            caps: Capabilities {
                native_tagged: true,
                native_rdma: true,
                max_eager: 4 * 1024,
            },
            cost: NetCost {
                inject_cycles_send: 800.0,
                inject_cycles_rdma: 900.0,
                latency_ns: 2200.0,
                bandwidth_gib_s: 1.8,
            },
            faults: FaultPlan::NONE,
            reliability: ReliabilityConfig::OFF,
            trace: TraceConfig::OFF,
        }
    }

    /// The paper's "infinitely fast network": the stack runs in full but
    /// transmission costs nothing (§4.2, Figs 5–6).
    pub const fn infinite() -> Self {
        ProviderProfile {
            kind: ProviderKind::Infinite,
            caps: Capabilities {
                native_tagged: true,
                native_rdma: true,
                max_eager: usize::MAX,
            },
            cost: NetCost::ZERO,
            faults: FaultPlan::NONE,
            reliability: ReliabilityConfig::OFF,
            trace: TraceConfig::OFF,
        }
    }

    /// Feature-poor provider forcing the CH4 active-message fallback
    /// everywhere (see [`ProviderKind::AmOnly`]).
    pub const fn am_only() -> Self {
        ProviderProfile {
            kind: ProviderKind::AmOnly,
            caps: Capabilities {
                native_tagged: false,
                native_rdma: false,
                max_eager: 16 * 1024,
            },
            cost: NetCost {
                inject_cycles_send: 330.0,
                inject_cycles_rdma: 430.0,
                latency_ns: 1100.0,
                bandwidth_gib_s: 11.0,
            },
            faults: FaultPlan::NONE,
            reliability: ReliabilityConfig::OFF,
            trace: TraceConfig::OFF,
        }
    }

    /// Copy of this profile with the given fault-injection plan active.
    /// Any plan but [`FaultPlan::NONE`] (a kill switch alone included)
    /// routes every packet over the reliable link, as [`Self::reliable`]
    /// does, at the knobs of `reliability`: the faults are ones the
    /// protocol repairs, never delivered raw.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Copy of this profile with the given reliability configuration.
    pub fn with_reliability(mut self, reliability: ReliabilityConfig) -> Self {
        self.reliability = reliability;
        self
    }

    /// Copy of this profile with the reliable path on at default knobs.
    pub fn reliable(self) -> Self {
        self.with_reliability(ReliabilityConfig::on())
    }

    /// Copy of this profile with the given event-tracing configuration.
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Copy of this profile with event tracing on at the default ring
    /// capacity.
    pub fn traced(self) -> Self {
        self.with_trace(TraceConfig::on())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infinite_costs_nothing() {
        let p = ProviderProfile::infinite();
        assert_eq!(p.cost.inject_cycles_send, 0.0);
        assert_eq!(p.cost.transfer_seconds(1 << 30), 0.0);
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let c = ProviderProfile::ofi().cost;
        let one = c.transfer_seconds(1024);
        let two = c.transfer_seconds(2048);
        assert!((two - 2.0 * one).abs() < 1e-12);
        // 1 GiB at 11 GiB/s ≈ 1/11 s.
        assert!((c.transfer_seconds(1 << 30) - 1.0 / 11.0).abs() < 1e-6);
    }

    #[test]
    fn am_only_lacks_fast_paths() {
        let p = ProviderProfile::am_only();
        assert!(!p.caps.native_tagged);
        assert!(!p.caps.native_rdma);
    }

    #[test]
    fn labels_are_distinct() {
        let kinds = [
            ProviderKind::Ofi,
            ProviderKind::Ucx,
            ProviderKind::Bgq,
            ProviderKind::Infinite,
            ProviderKind::AmOnly,
        ];
        let mut labels: Vec<_> = kinds.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), kinds.len());
    }

    #[test]
    fn faults_and_reliability_default_off() {
        let p = ProviderProfile::ofi();
        assert!(p.faults.is_none());
        assert!(!p.reliability.enabled);
        let q = p
            .with_faults(FaultPlan::uniform(
                9,
                crate::fault::FaultSpec::percent(5, 0, 0, 0),
            ))
            .reliable();
        assert!(!q.faults.is_none());
        assert!(q.reliability.enabled);
    }

    #[test]
    fn trace_defaults_off_and_builders_compose() {
        let p = ProviderProfile::ofi();
        assert!(!p.trace.enabled);
        let q = p.traced();
        assert!(q.trace.enabled);
        assert_eq!(q.trace.ring_capacity, TraceConfig::DEFAULT_CAPACITY);
        let r = ProviderProfile::infinite()
            .with_trace(TraceConfig::with_capacity(128))
            .reliable();
        assert!(r.trace.enabled);
        assert_eq!(r.trace.ring_capacity, 128);
        assert!(r.reliability.enabled);
    }

    #[test]
    fn bgq_is_slower_than_ofi() {
        // Sanity for the application models: BG/Q links are slower and
        // higher latency than Omni-Path.
        let bgq = ProviderProfile::bgq().cost;
        let ofi = ProviderProfile::ofi().cost;
        assert!(bgq.latency_ns > ofi.latency_ns);
        assert!(bgq.bandwidth_gib_s < ofi.bandwidth_gib_s);
    }
}
