//! 1024-rank application smoke: the issue's "stencil iteration inside
//! the CI budget" pin. One Jacobi sweep on a 32x32 rank grid exercises
//! halo exchange with 4 neighbors plus the hierarchical delta allreduce;
//! the global checksum makes silent data corruption at scale fail loudly.

use litempi_apps::stencil::{self, HaloFlavor, StencilConfig};
use litempi_core::{BuildConfig, Op, Universe};
use litempi_fabric::{ProviderProfile, Topology};

#[test]
fn stencil_iteration_completes_at_1024_ranks() {
    let n = 1024;
    let sums = Universe::run(
        n,
        BuildConfig::ch4_default(),
        ProviderProfile::infinite(),
        Topology::blocked(n, 32),
        |proc| {
            let cfg = StencilConfig {
                local: [4, 4],
                rank_grid: [32, 32],
                iterations: 1,
                flavor: HaloFlavor::Classic,
            };
            let report = stencil::run(&proc, &cfg).unwrap();
            assert!(report.delta.is_finite());
            let local: f64 = report.field.iter().sum();
            assert!(local.is_finite());
            // Global checksum over the fabric: every rank must agree.
            let world = proc.world();
            let global = world.allreduce(&[local], &Op::Sum).unwrap();
            assert!(global[0].is_finite());
            global[0]
        },
    );
    let first = sums[0];
    assert!(
        sums.iter().all(|s| *s == first),
        "ranks disagree on the global checksum"
    );
}
