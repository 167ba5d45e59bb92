//! The repo's benchmark. See `README.md` for what it measures and why it
//! measures it this way, `/BENCHMARK.json` for the contract.

pub mod cli;
pub mod harness;
pub mod json;
pub mod layers;
pub mod pin;
pub mod probe;
pub mod seed;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
