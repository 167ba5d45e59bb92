//! One-sided communication benchmarks: put/get message rate against
//! two-sided send/recv, the RDMA-get rendezvous at 64 KiB, and the
//! halo-exchange-over-RMA stencil variant.
//!
//! `rma_msgrate` and `rndv_64k` report the **modeled time per message**
//! on the paper's IT cluster (2.2 GHz, CPI 1.035), derived from measured
//! instruction charges — the platform-independent quantity; wall clock on
//! the bench host would measure the simulator, not the MPI software. The
//! `stencil_halo` group is wall clock: it compares whole application
//! iterations where the compute kernel dominates identically in both
//! flavors.
//!
//! `rndv_64k/rma_get` is one exposed registration and one remote get per
//! message (18 + 6-hit/120-miss + 22 charged to the Rma category). The
//! staged pull it was measured against (391 vs 230 modeled ns per message,
//! EXPERIMENTS.md) runs only where the provider has no native RDMA.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use litempi_apps::stencil::{self, HaloFlavor, StencilConfig};
use litempi_core::{BuildConfig, Universe, Window};
use litempi_fabric::{ProviderProfile, Topology};
use litempi_instr::CostModel;
use std::time::Duration;

const SIZES: [usize; 4] = [8, 1024, 16384, 65536];

fn modeled(instr: u64) -> Duration {
    Duration::from_secs_f64(CostModel::IT_CLUSTER.seconds(instr))
}

/// Origin-side modeled time for `iters` one-sided ops of `size` bytes
/// under a fence epoch on the native-RDMA path.
fn onesided_batch(size: usize, get: bool, iters: u64) -> Duration {
    let instr = Universe::run(
        2,
        BuildConfig::ch4_default(),
        ProviderProfile::infinite(),
        Topology::single_node(2),
        move |proc| {
            let world = proc.world();
            let win = Window::create(&world, size, 1).unwrap();
            win.fence().unwrap();
            let out = if proc.rank() == 0 {
                let data = vec![7u8; size];
                let mut buf = vec![0u8; size];
                let probe = litempi_instr::probe();
                for _ in 0..iters {
                    if get {
                        win.get(&mut buf, 1, 0).unwrap();
                    } else {
                        win.put(&data, 1, 0).unwrap();
                    }
                }
                Some(probe.finish().total())
            } else {
                None
            };
            win.fence().unwrap();
            out
        },
    );
    modeled(instr.into_iter().flatten().next().unwrap())
}

/// Two-sided baseline: sender + receiver modeled instruction load for
/// `iters` messages of `size` bytes (same provider/topology as the
/// one-sided batches).
fn sendrecv_batch(size: usize, iters: u64) -> Duration {
    let out = Universe::run(
        2,
        BuildConfig::ch4_default(),
        ProviderProfile::infinite(),
        Topology::single_node(2),
        move |proc| {
            let world = proc.world();
            world.barrier().unwrap();
            let probe = litempi_instr::probe();
            if proc.rank() == 0 {
                let data = vec![7u8; size];
                for _ in 0..iters {
                    world.send(&data, 1, 0).unwrap();
                }
            } else {
                let mut buf = vec![0u8; size];
                for _ in 0..iters {
                    world.recv_into(&mut buf, 0, 0).unwrap();
                }
            }
            probe.finish().total()
        },
    );
    modeled(out.into_iter().sum())
}

fn bench_msgrate(c: &mut Criterion) {
    let mut g = c.benchmark_group("rma_msgrate");
    g.sample_size(10).measurement_time(Duration::from_secs(1));
    for size in SIZES {
        g.bench_function(BenchmarkId::new("put", size), |b| {
            b.iter_custom(|iters| onesided_batch(size, false, iters.max(1)));
        });
        g.bench_function(BenchmarkId::new("get", size), |b| {
            b.iter_custom(|iters| onesided_batch(size, true, iters.max(1)));
        });
        g.bench_function(BenchmarkId::new("sendrecv", size), |b| {
            b.iter_custom(|iters| sendrecv_batch(size, iters.max(1)));
        });
    }
    g.finish();
}

/// 64 KiB rendezvous sends on the OFI profile (16 KiB eager ceiling,
/// inter-node): sender + receiver instruction load summed.
fn rndv_batch(iters: u64) -> Duration {
    let out = Universe::run(
        2,
        BuildConfig::ch4_default(),
        ProviderProfile::ofi(),
        Topology::one_per_node(2),
        move |proc| {
            let world = proc.world();
            world.barrier().unwrap();
            let probe = litempi_instr::probe();
            if proc.rank() == 0 {
                let data = vec![5u8; 65536];
                for _ in 0..iters {
                    world.send(&data, 1, 0).unwrap();
                }
            } else {
                let mut buf = vec![0u8; 65536];
                for _ in 0..iters {
                    world.recv_into(&mut buf, 0, 0).unwrap();
                }
            }
            probe.finish().total()
        },
    );
    modeled(out.into_iter().sum())
}

fn bench_rndv(c: &mut Criterion) {
    let mut g = c.benchmark_group("rndv_64k");
    g.sample_size(10).measurement_time(Duration::from_secs(1));
    g.bench_function(BenchmarkId::from_parameter("rma_get"), |b| {
        b.iter_custom(|iters| rndv_batch(iters.max(1)));
    });
    g.finish();
}

/// Whole stencil iterations (wall clock): classic sendrecv halos vs
/// one-sided fence-epoch halos, identical compute.
fn stencil_batch(flavor: HaloFlavor, iters: u64) -> Duration {
    let out = Universe::run_default(4, move |proc| {
        stencil::run(
            &proc,
            &StencilConfig {
                local: [16, 16],
                rank_grid: [2, 2],
                iterations: iters as usize,
                flavor,
            },
        )
        .unwrap()
        .iters_per_sec
    });
    Duration::from_secs_f64(iters as f64 / out[0])
}

fn bench_stencil(c: &mut Criterion) {
    let mut g = c.benchmark_group("stencil_halo");
    g.sample_size(10).measurement_time(Duration::from_secs(1));
    for (label, flavor) in [("classic", HaloFlavor::Classic), ("rma", HaloFlavor::Rma)] {
        g.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter_custom(|iters| stencil_batch(flavor, iters.max(1)));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_msgrate, bench_rndv, bench_stencil);
criterion_main!(benches);
