//! `apps64`: the three mini-apps, one round each per batch, on 64
//! thread-per-rank ranks over four nodes.

use crate::harness::{Body, OrDie};
use crate::trace::{Sp, Tracer};
use litempi::apps::minimd::{self, MdConfig};
use litempi::apps::nekbone::{self, NekConfig};
use litempi::apps::stencil::{self, HaloFlavor, StencilConfig};
use litempi::prelude::*;

/// Field sum (local until `verify`), CG residual, final energy, atoms.
type Checksums = [f64; 4];

pub struct Apps64 {
    proc: Process,
    world: Communicator,
    /// This round's results, filled by `batch`.
    round: Checksums,
    /// Round 1's, agreed by every rank: later rounds must equal them bit
    /// for bit.
    first: Option<[u64; 4]>,
}

impl Apps64 {
    pub const RANKS: usize = 64;
    /// One round of the three apps.
    pub const OPS: u64 = 1;

    const STENCIL: StencilConfig = StencilConfig {
        local: [128 / 8, 128 / 8],
        rank_grid: [8, 8],
        iterations: 100,
        flavor: HaloFlavor::Classic,
    };
    const NEKBONE: NekConfig = NekConfig {
        elems: [16, 8, 8],
        order: 3,
        iterations: 20,
        rank_grid: [4, 4, 4],
    };
    const MINIMD: MdConfig = MdConfig {
        cells: [16, 8, 8],
        rank_grid: [4, 4, 4],
        steps: 4,
        dt: 0.005,
        cutoff: 2.5,
        density: 0.8442,
    };
}

impl Body for Apps64 {
    fn setup(proc: &Process, _seed: u64) -> Apps64 {
        // The apps build their own inputs from their configurations; the
        // seed has nothing to vary here.
        Apps64 {
            proc: proc.clone(),
            world: proc.world(),
            round: [0.0; 4],
            first: None,
        }
    }

    fn batch<T: Tracer>(&mut self, t: &T, _batch: u64) -> u64 {
        let proc = &self.proc;
        let s = t.span(Sp::Stencil, 0, || {
            stencil::run(proc, &Apps64::STENCIL).or_die("stencil")
        });
        let n = t.span(Sp::Nekbone, 0, || {
            nekbone::run(proc, &Apps64::NEKBONE).or_die("nekbone")
        });
        let m = t.span(Sp::Minimd, 0, || {
            minimd::run(proc, &Apps64::MINIMD).or_die("minimd")
        });
        self.round = [
            s.field.iter().sum(),
            n.residual,
            m.energy_final,
            m.atoms_global as f64,
        ];
        0
    }

    /// Every rank must hold the same four numbers, and the same ones as
    /// after round 1.
    fn verify(&mut self, _batch: u64) -> u64 {
        let world = &self.world;
        let field = world
            .allreduce(&self.round[..1], &Op::Sum)
            .or_die("allreduce(field sum)");
        self.round[0] = field[0];
        let lo = world
            .allreduce(&self.round, &Op::Min)
            .or_die("allreduce(min)");
        let hi = world
            .allreduce(&self.round, &Op::Max)
            .or_die("allreduce(max)");
        let bits = lo.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let agreed = lo.iter().all(|v| v.is_finite())
            && hi.iter().map(|v| v.to_bits()).eq(bits.iter().copied());
        let first = *self
            .first
            .get_or_insert([bits[0], bits[1], bits[2], bits[3]]);
        let atoms = 4 * Apps64::MINIMD.cells.iter().product::<usize>();
        let ok = agreed && bits == first && self.round[3] == atoms as f64;
        // One op per batch, counted once: rank 0 reports for everyone
        // (every rank computed the same verdict from the same allreduces).
        (!ok && self.proc.rank() == 0) as u64
    }
}
