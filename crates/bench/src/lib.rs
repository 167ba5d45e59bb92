//! # litempi-bench — the paper's evaluation harness
//!
//! One binary per table/figure of the SC17 paper (see `src/bin/`), plus two
//! wall-clock drivers: `osu_micro` (latency, bandwidth, §4.2 issue rates,
//! §3 send paths, NBC overlap) and `scale` (strong scaling of the mini-apps).
//! This library holds the shared machinery: instruction-count measurement
//! of live code paths ([`measure`]) and figure-series builders ([`figs`])
//! that combine those measurements with the fabric cost model.

#![warn(missing_docs)]

pub mod figs;
pub mod measure;
