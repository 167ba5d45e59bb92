//! # litempi-apps — the paper's evaluation applications as mini-apps
//!
//! The SC17 paper evaluates its MPI stack with two applications at their
//! strong-scaling limit (§4.3–§4.4): the Nek5000 mass-matrix-inversion
//! model problem and a LAMMPS Lennard-Jones strong-scaling run. This crate
//! implements both as self-contained mini-apps over `litempi-core`, plus
//! the 5-point Jacobi stencil the paper's §3.1 uses to motivate
//! world-rank addressing:
//!
//! * [`nekbone`] — spectral-element mass-matrix CG: tensor-product brick
//!   mesh of E elements of order N on the unit cube, gather-scatter
//!   (`dssum`) over shared element boundaries, conjugate-gradient solve of
//!   `B u = f`. Reported metric: gridpoint-iterations per processor-second.
//! * [`minimd`] — Lennard-Jones molecular dynamics: FCC lattice, 3-D
//!   spatial decomposition, cell lists, velocity-Verlet, per-step halo
//!   exchange and atom migration. Reported metric: timesteps per second.
//! * [`stencil`] — 2-D Jacobi with Cartesian halo exchange, in classic and
//!   `_GLOBAL`-extension flavors.
//!
//! Each app exposes a communication trace (messages/bytes per iteration,
//! from the fabric's hardware-style counters) that `litempi-model`
//! consumes to extrapolate the paper's BG/Q-scale figures.

#![warn(missing_docs)]

pub mod minimd;
pub mod msgrate;
pub mod nekbone;
pub mod pingpong;
pub mod stencil;
pub mod trace;

pub use minimd::{MdConfig, MdReport};
pub use msgrate::{render_report, RateReport};
pub use nekbone::{NekConfig, NekReport};
pub use pingpong::SizePoint;
pub use stencil::{StencilConfig, StencilReport};
pub use trace::IterTrace;
