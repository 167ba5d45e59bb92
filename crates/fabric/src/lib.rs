//! # litempi-fabric — a simulated low-level network fabric
//!
//! The paper's MPICH/CH4 stack bottoms out in one of several *netmods*
//! (OFI/libfabric over Intel Omni-Path + PSM2, UCX over Mellanox EDR,
//! Portals) or a *shmmod* for intra-node peers, plus an "infinitely fast
//! network" configuration used for the instruction-limited experiments
//! (paper §4.2, Figs 5–6). None of that hardware is available here, so this
//! crate provides an in-process simulated fabric with the same API *shape*
//! as libfabric's performance-critical subset:
//!
//! * **Tagged messaging** with 64-bit match bits and an ignore mask
//!   (`tsend`/`trecv`), with native receiver-side matching and an
//!   unexpected-message queue — the facility PSM2 exposes and on which the
//!   CH4/OFI netmod relies ("network APIs that support matching", §2.1).
//! * **RDMA** (`rdma_put`/`rdma_get`/`rdma_update`) into registered
//!   [`MemoryRegion`]s, performed as true one-sided memory access with no
//!   involvement of the target rank's thread — the semantics of real NIC
//!   RDMA that make the CH4 `MPI_PUT` fast path possible.
//! * **Active messages** (`am_send`/`am_poll`) — the transport for the CH4
//!   core's active-message fallback and for the CH3-like baseline device's
//!   RMA-over-pt2pt emulation.
//!
//! Providers differ in two ways, both captured by [`ProviderProfile`]:
//! *capabilities* (whether tagged matching / native RDMA exist, eager-size
//! limits) which steer the netmod's fast-path-vs-fallback branches in
//! `litempi-core`, and a *cost table* ([`NetCost`]) consumed by
//! `litempi-model` to convert instruction counts into message rates and
//! application time (Figs 3, 4, 7, 8).
//!
//! Delivery guarantees match what MPI requires of its transports: per
//! (source, destination) FIFO ordering. A [`FaultPlan`] whose `reorder`
//! holds packets back on a reliable link lets messages from different
//! sources overtake each other, which stress-tests the matching logic
//! above.

#![warn(missing_docs)]

pub mod addr;
pub mod cost;
pub mod endpoint;
mod event_count;
pub mod fabric;
pub mod fault;
pub mod matching;
pub mod packet;
pub mod pool;
pub mod region;
pub mod reliability;
pub mod stats;
pub mod task;
pub mod topology;
mod wait;

pub use addr::NetAddr;
pub use cost::{MatcherKind, NetCost, ProviderKind, ProviderProfile};
pub use endpoint::Endpoint;
pub use fabric::Fabric;
pub use fault::{FaultPlan, FaultSpec, KillSwitch, LinkOverride};
pub use litempi_trace::TraceConfig;
pub use packet::{AmMessage, TaggedMessage};
pub use pool::{PayloadBuf, PayloadPool, PoolStats};
pub use region::{MemoryRegion, RegionKey};
pub use reliability::{crc32, ReliabilityConfig};
pub use stats::EndpointStats;
pub use topology::{NodeId, Topology};
