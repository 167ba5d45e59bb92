//! SDE-calibrated instruction-cost table.
//!
//! Every constant here is the instruction cost of one critical-path region of
//! the `litempi-core` implementation. The *structure* (which region executes
//! under which build configuration / API variant) is decided by real control
//! flow in `litempi-core`; the *magnitudes* are calibrated so that the region
//! sums reproduce the paper's published counts. Each constant cites its
//! provenance.
//!
//! Ground truth used for calibration:
//!
//! * Paper Table 1 (default CH4 build):
//!   `MPI_ISEND` = 74 + 6 + 23 + 59 + 59 = **221**,
//!   `MPI_PUT`   = 72 + 14 + 25 + 62 + 44 = 217 (Table 1) but **215** per
//!   Figure 2. The paper's Table 1 and Figure 2 disagree by 2 for `MPI_PUT`;
//!   we follow Figure 2 (the summary figure) and calibrate the redundant-
//!   checks region to 60.
//! * Figure 2 build ladder: Original 253/1342 → CH4 default 221/215 →
//!   no-err 147/143 → no-thread-check 141/129 → IPO 59/44.
//! * §3 per-proposal savings: ~10 (global rank), 3–4 (virtual address),
//!   8 (precreated handles), 3 (no PROC_NULL), ~10 (no request), 5 (no match
//!   bits); §3.7: `MPI_ISEND_ALL_OPTS` = **16** instructions total.

/// Costs for the `MPI_ISEND` critical path (paper Table 1, Fig 2, §3).
pub mod isend {
    /// "Error checking": argument validation, object liveness, rank-in-range.
    /// Table 1: 74 instructions.
    pub const ERROR_CHECKING: u64 = 74;
    /// "Thread-safety check": runtime branch to the thread-safe path.
    /// Table 1: 6 instructions.
    pub const THREAD_CHECK: u64 = 6;
    /// "MPI function call": stack/register setup for the black-box call.
    /// Table 1: 23 instructions (the paper quotes 16–18 for the bare call
    /// plus spill/reload).
    pub const FUNCTION_CALL: u64 = 23;
    /// "Redundant runtime checks": datatype-size lookup etc. that IPO
    /// constant-folds away. Table 1: 59 instructions.
    pub const REDUNDANT_CHECKS: u64 = 59;
    /// §3.1: communicator-rank → network-address translation.
    /// "a reduction of around 10 instructions" for `MPI_ISEND_GLOBAL`.
    pub const COMM_RANK_TRANSLATION: u64 = 10;
    /// §3.3: dereference into the dynamically allocated communicator object.
    /// "eliminates 8 instructions".
    pub const OBJECT_DEREF: u64 = 8;
    /// §3.4: `MPI_PROC_NULL` comparison + branch. "can save 3 instructions".
    pub const PROC_NULL_CHECK: u64 = 3;
    /// §3.5: request-object allocation/initialization.
    /// "saves approximately 10 instructions".
    pub const REQUEST_MANAGEMENT: u64 = 10;
    /// §3.6: assembling source/tag match bits. "eliminates 5 instructions".
    pub const MATCH_BITS: u64 = 5;
    /// Residue: marshalling into the network API. Calibrated so the
    /// mandatory bucket totals 59 (Table 1): 59 − 10 − 8 − 3 − 10 − 5 = 23.
    pub const NETMOD_ISSUE: u64 = 23;
    /// §3.7: when *all* proposals are fused into `MPI_ISEND_ALL_OPTS` the
    /// residue itself shrinks (e.g. §3.6+§3.3 let the communicator match
    /// bits be a single load): total = **16** instructions, all of them the
    /// netmod issue itself.
    pub const ALL_OPTS_NETMOD: u64 = 16;
    /// §3.7 headline: `MPI_ISEND_ALL_OPTS` = 16 instructions.
    pub const ALL_OPTS_TOTAL: u64 = ALL_OPTS_NETMOD;
    /// Extra layering charged by the CH3-like `original` device: dynamic
    /// dispatch through the device vtable plus generalized marshalling.
    /// Calibrated: Fig 2 Original `MPI_ISEND` 253 − CH4 default 221 = 32.
    pub const ORIGINAL_LAYERING: u64 = 32;

    /// Mandatory bucket total (Table 1 row "MPI mandatory overheads" = 59).
    pub const MANDATORY_TOTAL: u64 = COMM_RANK_TRANSLATION
        + OBJECT_DEREF
        + PROC_NULL_CHECK
        + REQUEST_MANAGEMENT
        + MATCH_BITS
        + NETMOD_ISSUE;
    /// CH4 default-build total (Fig 2: 221).
    pub const CH4_DEFAULT_TOTAL: u64 =
        ERROR_CHECKING + THREAD_CHECK + FUNCTION_CALL + REDUNDANT_CHECKS + MANDATORY_TOTAL;
    /// Original-device default-build total (Fig 2: 253).
    pub const ORIGINAL_TOTAL: u64 = CH4_DEFAULT_TOTAL + ORIGINAL_LAYERING;
}

/// Costs for the `MPI_PUT` critical path (paper Table 1, Fig 2, §3).
pub mod put {
    /// Table 1: 72 instructions.
    pub const ERROR_CHECKING: u64 = 72;
    /// Table 1: 14 instructions.
    pub const THREAD_CHECK: u64 = 14;
    /// Table 1: 25 instructions.
    pub const FUNCTION_CALL: u64 = 25;
    /// Table 1 says 62 but Figure 2's totals (215/143/129/44) imply 60;
    /// we follow Figure 2. See module docs.
    pub const REDUNDANT_CHECKS: u64 = 60;
    /// §3.1 applies to RMA too: target rank → network address.
    pub const COMM_RANK_TRANSLATION: u64 = 10;
    /// §3.2: window offset + displacement unit → virtual address;
    /// "eliminates 3–4 instructions, including an expensive memory access".
    pub const WIN_OFFSET_TRANSLATION: u64 = 4;
    /// §3.3: dereference into the window object (same mechanism as the
    /// communicator dereference): 8 instructions.
    pub const OBJECT_DEREF: u64 = 8;
    /// §3.4: `MPI_PROC_NULL` target check: 3 instructions.
    pub const PROC_NULL_CHECK: u64 = 3;
    /// Residue: RDMA descriptor setup. Calibrated so the mandatory bucket
    /// totals 44 (Table 1): 44 − 10 − 4 − 8 − 3 = 19.
    pub const NETMOD_ISSUE: u64 = 19;
    /// Fused `put_all_opts` path: only the residue remains.
    pub const ALL_OPTS_TOTAL: u64 = NETMOD_ISSUE;
    /// CH3-like RMA is emulated over pt2pt active messages, which is why
    /// Fig 2 reports 1342 instructions. Calibrated: 1342 − 215 = 1127.
    pub const ORIGINAL_LAYERING: u64 = 1127;
    /// CH4's own active-message fallback (taken when the provider lacks
    /// native RMA or the datatype is non-contiguous). Not published in the
    /// paper; modeled as a lean header + handler dispatch, far below CH3's
    /// full emulation but far above the native path.
    pub const AM_FALLBACK: u64 = 310;

    /// Mandatory bucket total (Table 1: 44).
    pub const MANDATORY_TOTAL: u64 = COMM_RANK_TRANSLATION
        + WIN_OFFSET_TRANSLATION
        + OBJECT_DEREF
        + PROC_NULL_CHECK
        + NETMOD_ISSUE;
    /// CH4 default-build total (Fig 2: 215).
    pub const CH4_DEFAULT_TOTAL: u64 =
        ERROR_CHECKING + THREAD_CHECK + FUNCTION_CALL + REDUNDANT_CHECKS + MANDATORY_TOTAL;
    /// Original-device default-build total (Fig 2: 1342).
    pub const ORIGINAL_TOTAL: u64 = CH4_DEFAULT_TOTAL + ORIGINAL_LAYERING;
}

/// Receiver-side / progress-engine costs. These are *not* part of the
/// paper's injection-path counts (the paper omits `MPI_IRECV`, noting its
/// path is largely identical to `MPI_ISEND` for matching-capable networks);
/// they are tracked under [`crate::Category::Progress`] so tests can prove
/// they never contaminate the injection-path totals.
pub mod progress {
    /// Walking the posted-receive queue per candidate element.
    pub const MATCH_ATTEMPT: u64 = 12;
    /// Enqueue into the unexpected-message queue.
    pub const UNEXPECTED_ENQUEUE: u64 = 9;
    /// Completion-counter / request completion processing.
    pub const COMPLETION: u64 = 7;
    /// Active-message handler dispatch at the target.
    pub const AM_HANDLER: u64 = 25;
    /// Rendezvous control messages (RTS/CTS) per protocol step.
    pub const RNDV_STEP: u64 = 30;
    /// Staged-pull bounce-buffer granularity: without RDMA the receiver
    /// drains a rendezvous payload through eager-sized (16 KiB) chunks,
    /// paying protocol steps per chunk.
    pub const RNDV_CHUNK_BYTES: u64 = 16 * 1024;

    /// Pull chunks needed for a `len`-byte rendezvous payload.
    pub fn rndv_chunks(len: usize) -> u64 {
        (len as u64).max(1).div_ceil(RNDV_CHUNK_BYTES)
    }
}

/// Software-reliability protocol costs, charged to
/// [`crate::Category::Reliability`] when a provider profile enables the
/// reliable path (PSM2-style onload transport).
///
/// The paper does not publish per-instruction reliability numbers — on OPA
/// the PSM2 reliability engine is folded into the provider's injection cost.
/// These magnitudes are modeled (roughly: a handful of ALU ops plus one or
/// two queue touches per action) so the ablation reports a plausible,
/// self-consistent per-message overhead; the *structure* of when each region
/// executes is decided by real control flow in `litempi-fabric`.
pub mod relia {
    /// Sender side: assign a per-link sequence number, stamp the wire
    /// header, and piggyback the cumulative ACK for the reverse link.
    pub const TX_HEADER: u64 = 9;
    /// Sender side: clone the payload handle into the retransmit queue and
    /// arm the timeout.
    pub const RETRANSMIT_ENQUEUE: u64 = 7;
    /// One retransmission (timeout fired): dequeue walk + re-issue.
    pub const RETRANSMIT: u64 = 21;
    /// Receiver side: dedup/reorder window check and in-order release.
    pub const RX_WINDOW: u64 = 8;
    /// Build a standalone ACK packet (one-directional traffic).
    pub const ACK_BUILD: u64 = 6;
    /// Process an incoming (piggybacked or standalone) cumulative ACK:
    /// retire retransmit-queue entries.
    pub const ACK_PROCESS: u64 = 5;
    /// CRC32 integrity check, charged per 8-byte word of payload (software
    /// table-less CRC; dominates for large frames exactly as on real onload
    /// providers).
    pub const CRC_PER_WORD: u64 = 2;
    /// Fixed CRC setup/finalize cost per packet when CRC is enabled.
    pub const CRC_BASE: u64 = 4;

    /// Minimum per-message reliable-send overhead (empty payload, CRC off):
    /// TX header + retransmit-queue arm at the sender plus the receiver
    /// window check.
    pub const MIN_PER_SEND: u64 = TX_HEADER + RETRANSMIT_ENQUEUE + RX_WINDOW;
}

/// Nonblocking-collective schedule engine (`Category::Schedule`).
///
/// Modeled costs (not paper-measured): the paper only counts the blocking
/// injection path, so these mirror the bookkeeping an MPICH TSP-style
/// generic scheduler performs — compile the algorithm into a phase DAG
/// once per call, then touch each vertex twice (issue, retire) and each
/// phase boundary once. They are kept separate from the injection-path
/// categories so the calibrated 221/215 totals are unaffected.
pub mod schedule {
    /// Compile one collective call into its phase DAG (vertex allocation,
    /// tag assignment, buffer setup).
    pub const BUILD: u64 = 18;
    /// Issue one vertex: readiness check + dispatch to send/recv/local op.
    pub const VERTEX_ISSUE: u64 = 7;
    /// Retire one communication vertex on completion (poll hit, payload
    /// delivery bookkeeping).
    pub const VERTEX_COMPLETE: u64 = 5;
    /// Advance a phase boundary: confirm all vertices retired, release the
    /// successor phase.
    pub const PHASE_ADVANCE: u64 = 4;
}

/// Fault-tolerance machinery (`Category::FaultTolerance`).
///
/// Modeled costs (not paper-measured): the paper's builds have no recovery
/// protocol, so everything here executes strictly off the injection path —
/// the ULFM verbs (`revoke`/`shrink`/`agree`) run only when the application
/// invokes them, so `FaultPlan::none()` steady-state traffic charges
/// none of it.
pub mod ft {
    /// Process one revocation notice: mark the context revoked and fan the
    /// notice out over surviving links (per-peer forward charge applied by
    /// the broadcast loop itself).
    pub const REVOKE_NOTICE: u64 = 15;
    /// One round of the fault-tolerant agreement protocol per participant:
    /// contribution merge + dead-mask fold.
    pub const AGREE_ROUND: u64 = 13;
    /// Build the survivor group during `shrink()`: dead-mask filter + rank
    /// compaction per member slot.
    pub const SHRINK_MEMBER: u64 = 5;
}

/// One-sided transport machinery (`Category::Rma`).
///
/// Modeled costs (not paper-measured): foMPI-style scalable RMA
/// (Gerstenberger et al.) and the registration cache of Liu et al.
/// (MPICH2 over InfiniBand) add work the paper's minimal PUT never
/// executed — none of it on the send-side injection path, so the
/// calibrated 221/215/59/253 pins stay untouched.
pub mod rma {
    /// Registration-cache hit: hash the (peer, size-class) bin, pop the
    /// cached region handle.
    pub const REG_CACHE_HIT: u64 = 6;
    /// Registration-cache miss: pin-down (register) a fresh region and
    /// insert the bin entry; an order of magnitude above a hit, as on
    /// real InfiniBand memory registration.
    pub const REG_CACHE_MISS: u64 = 120;
    /// Sender-side RMA-rendezvous exposure: write the payload into the
    /// registered region and build the 25-byte RTS-RMA descriptor.
    pub const RNDV_EXPOSE: u64 = 18;
    /// Receiver-side RMA-rendezvous completion: validate the remote key,
    /// issue one RDMA get for the whole payload, signal the sender's
    /// done flag. One step regardless of size — the point of bypassing
    /// the tag-match engine.
    pub const RNDV_GET: u64 = 22;
    /// Issue one passive-target put or accumulate: bump the target's
    /// epoch word, hand the descriptor over. (Named for the queue such an
    /// op once waited in until the flush; the modelled cost is the same.)
    pub const OP_QUEUE: u64 = 7;
    /// Per-op completion work at `flush`/`unlock`: check it off, retire.
    pub const FLUSH_OP: u64 = 9;
    /// Fixed `flush`/`flush_all` entry cost: epoch-word reads + fence.
    pub const FLUSH_BASE: u64 = 11;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 1, `MPI_ISEND` column.
    #[test]
    fn isend_table1_totals() {
        assert_eq!(isend::MANDATORY_TOTAL, 59);
        assert_eq!(isend::CH4_DEFAULT_TOTAL, 221);
        assert_eq!(isend::ORIGINAL_TOTAL, 253);
    }

    /// Fig 2 build ladder for `MPI_ISEND`: 221 → 147 → 141 → 59.
    #[test]
    fn isend_fig2_ladder() {
        let no_err = isend::CH4_DEFAULT_TOTAL - isend::ERROR_CHECKING;
        assert_eq!(no_err, 147);
        let no_thread = no_err - isend::THREAD_CHECK;
        assert_eq!(no_thread, 141);
        let ipo = no_thread - isend::FUNCTION_CALL - isend::REDUNDANT_CHECKS;
        assert_eq!(ipo, 59);
    }

    /// Table 1 / Fig 2, `MPI_PUT` column (Fig 2 totals).
    #[test]
    fn put_fig2_ladder() {
        assert_eq!(put::MANDATORY_TOTAL, 44);
        assert_eq!(put::CH4_DEFAULT_TOTAL, 215);
        assert_eq!(put::ORIGINAL_TOTAL, 1342);
        let no_err = put::CH4_DEFAULT_TOTAL - put::ERROR_CHECKING;
        assert_eq!(no_err, 143);
        let no_thread = no_err - put::THREAD_CHECK;
        assert_eq!(no_thread, 129);
        let ipo = no_thread - put::FUNCTION_CALL - put::REDUNDANT_CHECKS;
        assert_eq!(ipo, 44);
    }

    /// §3.7: all proposals fused = 16 instructions, a 94% reduction vs
    /// MPICH/Original and 73% vs the best standard-conforming CH4 build.
    #[test]
    fn all_opts_headline_reductions() {
        assert_eq!(isend::ALL_OPTS_TOTAL, 16);
        let vs_original = 1.0 - isend::ALL_OPTS_TOTAL as f64 / isend::ORIGINAL_TOTAL as f64;
        assert!(vs_original > 0.93 && vs_original < 0.95, "{vs_original}");
        let ipo = 59u64;
        let vs_ch4 = 1.0 - isend::ALL_OPTS_TOTAL as f64 / ipo as f64;
        assert!(vs_ch4 > 0.72 && vs_ch4 < 0.74, "{vs_ch4}");
    }

    /// §2.1: CH4 is a 13% (isend) and 84% (put) reduction over Original.
    #[test]
    fn ch4_vs_original_reductions() {
        let isend_red = 1.0 - isend::CH4_DEFAULT_TOTAL as f64 / isend::ORIGINAL_TOTAL as f64;
        assert!((isend_red - 0.13).abs() < 0.01, "{isend_red}");
        let put_red = 1.0 - put::CH4_DEFAULT_TOTAL as f64 / put::ORIGINAL_TOTAL as f64;
        assert!((put_red - 0.84).abs() < 0.01, "{put_red}");
    }

    /// The reliable path must stay an order of magnitude below the CH4
    /// injection cost (the paper's point: reliability is real work, but the
    /// MPI layering above it dominates).
    #[test]
    fn relia_overhead_is_modest() {
        assert_eq!(relia::MIN_PER_SEND, 24);
        const { assert!(relia::MIN_PER_SEND < isend::MANDATORY_TOTAL) };
        const { assert!(relia::RETRANSMIT < isend::ERROR_CHECKING) };
    }

    /// The RMA-rendezvous fixed cost (expose + get + one cache hit) must
    /// stay below a single tag-match rendezvous protocol step pair — the
    /// whole point of the RDMA-backed protocol is that one get replaces a
    /// per-chunk control-message exchange.
    #[test]
    fn rma_rendezvous_is_cheaper_than_protocol_steps() {
        let rma_fixed = rma::RNDV_EXPOSE + rma::RNDV_GET + rma::REG_CACHE_HIT;
        assert!(rma_fixed < 2 * progress::RNDV_STEP, "{rma_fixed}");
        const { assert!(rma::REG_CACHE_HIT < rma::REG_CACHE_MISS) };
    }

    /// Overall reductions quoted in §2.3: 77% for ISEND and 97% for PUT
    /// (fully optimized CH4 vs the default MPICH/Original build).
    #[test]
    fn section_2_3_summary_reductions() {
        let isend_red = 1.0 - 59.0 / isend::ORIGINAL_TOTAL as f64;
        assert!((isend_red - 0.77).abs() < 0.01, "{isend_red}");
        let put_red = 1.0 - 44.0 / put::ORIGINAL_TOTAL as f64;
        assert!((put_red - 0.97).abs() < 0.01, "{put_red}");
    }
}
