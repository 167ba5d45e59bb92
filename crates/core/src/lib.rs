//! # litempi-core — a lightweight MPI-3.1 subset with a CH4-style device
//!
//! This crate is the Rust reproduction of the system in *"Why Is MPI So
//! Slow? Analyzing the Fundamental Limits in Implementing MPI-3.1"*
//! (SC '17): a from-scratch MPI implementation architected like MPICH/CH4
//! (MPI layer → device → netmod/shmmod with an active-message fallback),
//! an instruction-accounted critical path reproducing the paper's Table 1
//! and Figure 2, a CH3-like `original` baseline device, and the paper's
//! §3 proposed standard extensions (`_GLOBAL`, `_VIRTUAL_ADDR`, precreated
//! communicator handles, `_NPN`, `_NOREQ` + `COMM_WAITALL`, `_NOMATCH`,
//! `_ALL_OPTS`).
//!
//! ## Quick start
//!
//! ```
//! use litempi_core::{Universe, Op};
//!
//! let sums = Universe::run_default(4, |proc| {
//!     let world = proc.world();
//!     // Everybody contributes its rank; allreduce with SUM.
//!     world.allreduce(&[proc.rank() as u64], &Op::Sum).unwrap()[0]
//! });
//! assert_eq!(sums, vec![6, 6, 6, 6]);
//! ```
//!
//! ## Architecture map (paper Fig 1 → modules)
//!
//! | Paper component             | Module |
//! |-----------------------------|--------|
//! | MPI layer (checks, objects) | [`pt2pt`], [`rma`], [`comm`], [`error`] |
//! | Machine-independent colls   | [`coll`], [`neighborhood`] over [`sched`] |
//! | Derived datatypes           | `litempi-datatype` |
//! | Group management            | [`group`] |
//! | CH4 core + netmods/shmmods  | [`pt2pt`]/[`rma`] over `litempi-fabric` |
//! | Active-message fallback     | [`process`] (progress engine), [`proto`] |
//! | CH3 baseline ("Original")   | the `original` device paths |
//! | §3 standard extensions      | [`ext`] |

#![warn(missing_docs)]

pub mod cart;
pub mod coll;
pub mod comm;
pub mod config;
pub mod error;
pub mod ext;
pub mod ft;
pub mod group;
pub(crate) mod hier;
pub mod info;
pub mod intercomm;
pub mod match_bits;
pub mod mprobe;
pub mod neighborhood;
pub mod op;
pub mod persist;
pub mod process;
pub mod proto;
pub mod pt2pt;
pub mod request;
pub mod rma;
pub mod sched;
pub mod status;
pub mod universe;

pub use cart::CartComm;
pub use comm::{Communicator, Errhandler, PredefHandle, UNDEFINED};
pub use config::{BuildConfig, DeviceKind, ThreadLevel};
pub use error::{error_string, MpiError, MpiResult};
pub use ft::MAX_FT_RANKS;
pub use group::{Group, GroupRelation, RankMap};
pub use info::Info;
pub use intercomm::InterComm;
pub use match_bits::{ANY_SOURCE, ANY_TAG, PROC_NULL, TAG_UB};
pub use mprobe::MatchedMessage;
pub use op::Op;
pub use persist::{PersistentRecv, PersistentSend};
pub use process::Process;
pub use pt2pt::SendMode;
pub use request::{testall, testany, waitall, waitany, waitsome, Request};
pub use rma::{LockType, SharedWindow, VirtAddr, Window};
pub use sched::{CollOutput, CollRequest};
pub use status::Status;
pub use universe::Universe;
