//! Strong-scaling driver: the three mini-apps at 16, 64, 256 and 1024
//! ranks over a 16-rank-per-node blocked topology, then the stencil's
//! three halo flavours on one 4-rank node.
//!
//! Each app keeps its *global* problem fixed while the rank count grows:
//!
//! * `stencil` — 128×128-point Jacobi; halo exchange + delta allreduce.
//! * `nekbone` — 1024 spectral elements at order 3; CG with nearest-
//!   neighbor gather/scatter + dot-product allreduces.
//! * `minimd`  — 32768-atom LJ melt; 6-way ghost exchange + migration.
//!
//! Rank 0 times a fixed number of iterations inside the universe (thread
//! spawn and teardown excluded, the app's own setup included) and prints
//! ns per iteration beside the run's global checksum (field sum / CG
//! residual / final energy). Before a line is printed every rank checks
//! that its checksum is finite and bitwise equal to the minimum and the
//! maximum over all ranks, minimd that no atom was lost, and the halo
//! flavours that they computed the same field: a corrupt run posts no time.

use litempi_apps::minimd::{self, MdConfig};
use litempi_apps::nekbone::{self, NekConfig};
use litempi_apps::stencil::{self, HaloFlavor, StencilConfig};
use litempi_core::{BuildConfig, Op, Process, Universe};
use litempi_fabric::{ProviderProfile, Topology};
use std::time::{Duration, Instant};

/// Ranks per simulated node.
const RPN: usize = 16;

/// The four strong-scaling points with their 2-D and 3-D rank grids.
const SCALES: [(usize, [usize; 2], [usize; 3]); 4] = [
    (16, [4, 4], [4, 2, 2]),
    (64, [8, 8], [4, 4, 4]),
    (256, [16, 16], [8, 8, 4]),
    (1024, [32, 32], [16, 8, 8]),
];

/// Stencil sweeps, CG iterations and MD steps, the same at every scale so
/// the checksums compare across rank counts. nekbone's CG stops once its
/// residual underflows (about 45 iterations on this problem), so it runs 40.
const ITERS: [usize; 3] = [500, 40, 20];

/// Halo-flavour sweeps on the 4-rank node: the field decays toward zero,
/// and 50 000 sweeps keep it clear of subnormal floats.
const HALO_ITERS: usize = 50_000;

/// Run `f` (returning its elapsed time and checksum) on `ranks` ranks and
/// return rank 0's ns per iteration and the checksum all ranks agree on.
fn timed_on<F>(ranks: usize, iters: usize, f: F) -> (f64, f64)
where
    F: Fn(&Process) -> (Duration, f64) + Send + Sync,
{
    let out = Universe::run(
        ranks,
        BuildConfig::ch4_default(),
        ProviderProfile::infinite(),
        Topology::blocked(ranks, RPN),
        move |proc| {
            let world = proc.world();
            world.barrier().unwrap();
            let (dt, checksum) = f(&proc);
            let lo = world.allreduce(&[checksum], &Op::Min).unwrap();
            let hi = world.allreduce(&[checksum], &Op::Max).unwrap();
            assert!(checksum.is_finite(), "checksum not finite");
            assert_eq!(
                lo[0].to_bits(),
                hi[0].to_bits(),
                "ranks disagree on the checksum"
            );
            let ns = dt.as_nanos() as f64 / iters as f64;
            (proc.rank() == 0).then_some((ns, checksum))
        },
    );
    out.into_iter().flatten().next().expect("rank 0 reports")
}

/// `iters` Jacobi sweeps of an `edge`×`edge` grid split over `grid`; the
/// checksum is the global field sum.
fn stencil_run(
    ranks: usize,
    grid: [usize; 2],
    edge: usize,
    iters: usize,
    flavor: HaloFlavor,
) -> (f64, f64) {
    let local = [edge / grid[0], edge / grid[1]];
    timed_on(ranks, iters, move |proc| {
        let cfg = StencilConfig {
            local,
            rank_grid: grid,
            iterations: iters,
            flavor,
        };
        let t0 = Instant::now();
        let report = stencil::run(proc, &cfg).unwrap();
        let dt = t0.elapsed();
        let local_sum: f64 = report.field.iter().sum();
        (
            dt,
            proc.world().allreduce(&[local_sum], &Op::Sum).unwrap()[0],
        )
    })
}

/// `iters` CG iterations; the residual is a global norm, so it doubles as
/// the checksum.
fn nekbone_run(ranks: usize, grid: [usize; 3], iters: usize) -> (f64, f64) {
    timed_on(ranks, iters, move |proc| {
        let cfg = NekConfig {
            elems: [16, 8, 8],
            order: 3,
            iterations: iters,
            rank_grid: grid,
        };
        let t0 = Instant::now();
        let report = nekbone::run(proc, &cfg).unwrap();
        (t0.elapsed(), report.residual)
    })
}

/// `iters` MD steps; the checksum is the final energy.
fn minimd_run(ranks: usize, grid: [usize; 3], iters: usize) -> (f64, f64) {
    timed_on(ranks, iters, move |proc| {
        let cfg = MdConfig {
            cells: [32, 16, 16],
            rank_grid: grid,
            steps: iters,
            dt: 0.005,
            cutoff: 2.5,
            density: 0.8442,
        };
        let t0 = Instant::now();
        let report = minimd::run(proc, &cfg).unwrap();
        let dt = t0.elapsed();
        assert_eq!(report.atoms_global, 4 * 32 * 16 * 16, "atoms not conserved");
        (dt, report.energy_final)
    })
}

fn row(app: &str, ranks: usize, iters: usize, (ns, checksum): (f64, f64)) {
    println!("{app:<12} {ranks:>6} {iters:>7} {ns:>16.0} {checksum:>16.9e}");
}

fn main() {
    println!("strong scaling, {RPN} ranks per node (ns per iteration, setup included)");
    println!(
        "{:<12} {:>6} {:>7} {:>16} {:>16}",
        "app", "ranks", "iters", "ns/iter", "checksum"
    );
    let [st, nek, md] = ITERS;
    for (ranks, grid2, grid3) in SCALES {
        row(
            "stencil",
            ranks,
            st,
            stencil_run(ranks, grid2, 128, st, HaloFlavor::Classic),
        );
        row("nekbone", ranks, nek, nekbone_run(ranks, grid3, nek));
        row("minimd", ranks, md, minimd_run(ranks, grid3, md));
    }

    println!();
    println!("stencil halo flavours, 4 ranks on one node (2x2 ranks of 16x16 points)");
    let mut classic = None;
    for (label, flavor) in [
        ("classic", HaloFlavor::Classic),
        ("global_rank", HaloFlavor::GlobalRank),
        ("rma", HaloFlavor::Rma),
    ] {
        let (ns, checksum) = stencil_run(4, [2, 2], 32, HALO_ITERS, flavor);
        let first = *classic.get_or_insert(checksum.to_bits());
        assert_eq!(
            first,
            checksum.to_bits(),
            "{label} halos computed another field"
        );
        row(label, 4, HALO_ITERS, (ns, checksum));
    }
}
