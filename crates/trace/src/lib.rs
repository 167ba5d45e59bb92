//! # litempi-trace — structured event tracing and metrics
//!
//! The paper's method is *attribution*: every instruction between the MPI
//! call and the low-level network API is traced and charged to a Table-1
//! requirement. `litempi-instr` answers *how many* instructions each
//! category costs; this crate answers *when* and *where* the work happens.
//! Each rank owns a fixed-capacity ring of typed [`TraceEvent`]s
//! (send/recv/put begin+complete with match bits and sizes, match-queue
//! hits and unexpected arrivals with queue depths, payload-pool leases and
//! recycles, retransmit/ACK/dedup activity from the reliability engine,
//! collective phase boundaries). Exporters turn drained rings into a
//! chrome://tracing JSON timeline (one track per rank), per-category
//! log-bucketed latency histograms, and a plaintext summary the
//! benchmarks print alongside instructions/op.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when off.** Recording is an opt-in on the provider
//!    profile; every event site in the fabric and core is guarded by a
//!    bool hoisted at endpoint construction, so a disabled trace costs one
//!    predictable branch and touches neither the instruction counters nor
//!    the wire. The calibrated injection-path totals are bit-identical
//!    with tracing compiled in and switched off — or switched *on*:
//!    recording charges nothing to any [`litempi-instr`] category; it is a
//!    separate observability dimension, like the allocation counter.
//! 2. **Never blocks, never allocates at an event site.** The ring is
//!    preallocated when the rank enables tracing; once full it overwrites
//!    the oldest event and bumps a dropped-events counter. Each rank
//!    thread records into thread-local storage, so there is no lock and no
//!    cross-thread contention on the critical path.
//!
//! [`litempi-instr`]: https://example.invalid/litempi

#![warn(missing_docs)]

pub mod chrome;
pub mod event;
pub mod hist;
pub mod recorder;
pub mod summary;

pub use chrome::chrome_trace_json;
pub use event::{EventKind, TraceEvent};
pub use hist::LatencyHistogram;
pub use recorder::{
    disable, drain, emit, enable, is_enabled, record, swap_recorder, RankTrace, SavedRecorder,
    TraceConfig,
};
pub use summary::{latency_histograms, summarize};
