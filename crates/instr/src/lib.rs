//! # litempi-instr — instruction accounting for the MPI critical path
//!
//! The SC17 paper *"Why Is MPI So Slow?"* measures, with the Intel SDE
//! binary-instrumentation tool, how many x86 instructions the MPICH software
//! stack contributes between the application's call to `MPI_Isend`/`MPI_Put`
//! and the low-level network API, and attributes every instruction to a
//! *requirement of the MPI standard* (paper Table 1 and §3).
//!
//! This crate is the Rust-side replacement for the SDE: a set of per-rank
//! counters that the `litempi-core` critical path *charges* as it executes.
//! Two properties make this a faithful reproduction rather than hard-coded
//! output:
//!
//! 1. **Charges are tied to control flow.** A category is only charged by the
//!    code that performs the corresponding work. Building the library with
//!    error checking disabled removes the `charge(ErrorChecking, ..)` sites
//!    from the executed path, exactly as compiling MPICH with
//!    `--enable-error-checking=no` removes those instructions.
//! 2. **Region costs are calibrated, with provenance.** Rust code compiled by
//!    LLVM would not produce the same raw instruction counts as the paper's C
//!    code, so each charge site uses a cost constant from [`cost`], each of
//!    which is documented against the paper's published number.
//!
//! The crate also provides [`CostModel`], which converts instruction counts
//! into cycles/time for the message-rate figures (paper Figs 3–6).

#![warn(missing_docs)]

pub mod category;
pub mod cost;
pub mod counter;
pub mod report;

pub use category::Category;
pub use counter::{
    alloc_count, charge, heap_alloc_count, note_alloc, note_heap_alloc, probe, reset, snapshot,
    swap_rank_counters, Probe, RankCounters,
};
pub use report::Report;

/// Converts instruction counts into cycles and seconds.
///
/// The paper runs its instruction-count experiments on the "IT" cluster
/// (Intel E5-2699 v4, 2.2 GHz, dynamic frequency scaling disabled) and the
/// "Gomez" cluster (E7-8867 v3, 2.5 GHz). A message rate on an infinitely
/// fast network is then `freq / (instructions * CPI)`; the paper's peak of
/// 132.8 M msg/s for the 16-instruction `MPI_ISEND_ALL_OPTS` path at 2.2 GHz
/// corresponds to a CPI of ~1.035, which we adopt as the default.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Core clock frequency in GHz.
    pub freq_ghz: f64,
    /// Average cycles per instruction on the MPI critical path.
    pub cpi: f64,
}

impl CostModel {
    /// IT cluster model: 2.2 GHz Intel E5-2699 v4 (paper §4.1).
    pub const IT_CLUSTER: CostModel = CostModel {
        freq_ghz: 2.2,
        cpi: 1.035,
    };
    /// Gomez cluster model: 2.5 GHz Intel E7-8867 v3 (paper §4.1).
    pub const GOMEZ_CLUSTER: CostModel = CostModel {
        freq_ghz: 2.5,
        cpi: 1.035,
    };

    /// Cycles consumed by `instructions` instructions.
    #[inline]
    pub fn cycles(&self, instructions: u64) -> f64 {
        instructions as f64 * self.cpi
    }

    /// Wall-clock seconds consumed by `instructions` instructions.
    #[inline]
    pub fn seconds(&self, instructions: u64) -> f64 {
        self.cycles(instructions) / (self.freq_ghz * 1e9)
    }

    /// Messages per second achievable if each message costs
    /// `instructions` software instructions plus `extra_cycles` of
    /// network-hardware injection cost.
    #[inline]
    pub fn msg_rate(&self, instructions: u64, extra_cycles: f64) -> f64 {
        let cycles = self.cycles(instructions) + extra_cycles;
        self.freq_ghz * 1e9 / cycles
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::IT_CLUSTER
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_model_reproduces_peak_rate() {
        // Paper §4.2: MPI_ISEND_ALL_OPTS (16 instructions) peaks at
        // ~132.8 M msg/s on an infinitely fast network.
        let m = CostModel::IT_CLUSTER;
        let rate = m.msg_rate(cost::isend::ALL_OPTS_TOTAL, 0.0);
        assert!((rate - 132.8e6).abs() / 132.8e6 < 0.01, "rate = {rate}");
    }

    #[test]
    fn seconds_scale_linearly() {
        let m = CostModel::default();
        let one = m.seconds(100);
        let two = m.seconds(200);
        assert!((two - 2.0 * one).abs() < 1e-15);
    }

    #[test]
    fn gomez_is_faster_clock() {
        let it = CostModel::IT_CLUSTER.msg_rate(100, 0.0);
        let gz = CostModel::GOMEZ_CLUSTER.msg_rate(100, 0.0);
        assert!(gz > it);
    }
}
