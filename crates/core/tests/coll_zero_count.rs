//! Count 0 is legal MPI: every collective, blocking and nonblocking, must
//! complete and return an empty result — on the flat algorithms (one
//! node) and on the hierarchical ones (several multi-rank nodes). The
//! result buffers used to be built as `vec![sendbuf[0]; n]`, which indexes
//! an empty slice: `allreduce::<f64>(&[], ..)` panicked.

use litempi_core::{BuildConfig, Op, Process, Universe};
use litempi_fabric::{ProviderProfile, Topology};

fn every_collective_with_count_zero(proc: Process) {
    let world = proc.world();
    let n = world.size();
    let none: [f64; 0] = [];
    for root in [0, n - 1] {
        // Blocking.
        assert_eq!(world.allreduce(&none, &Op::Sum).unwrap(), vec![]);
        let at_root = (world.rank() == root).then(Vec::new);
        assert_eq!(world.reduce(&none, &Op::Sum, root).unwrap(), at_root);
        let mut buf: [f64; 0] = [];
        world.bcast(&mut buf, root).unwrap();
        assert_eq!(world.gather(&none, root).unwrap(), at_root);
        let (data, counts) = match world.gatherv(&none, root).unwrap() {
            Some(v) => v,
            None => (vec![], vec![0; n]),
        };
        assert_eq!((data, counts), (vec![], vec![0; n]));
        let send = (world.rank() == root).then_some(&none[..]);
        assert_eq!(world.scatter(send, 0, root).unwrap(), vec![]);
        // Nonblocking (schedule engine).
        assert_eq!(world.ibcast(&none, root).unwrap().wait().unwrap(), vec![]);
        let reduced = world.ireduce(&none, &Op::Sum, root).unwrap().wait();
        assert_eq!(reduced.unwrap(), at_root);
    }
    assert_eq!(world.allgather(&none).unwrap(), vec![]);
    assert_eq!(world.alltoall(&none, 0).unwrap(), vec![]);
    assert_eq!(world.scan(&none, &Op::Sum).unwrap(), vec![]);
    let exclusive = (world.rank() > 0).then(Vec::new);
    assert_eq!(world.exscan(&none, &Op::Sum).unwrap(), exclusive);
    assert_eq!(world.reduce_scatter_block(&none, &Op::Sum).unwrap(), vec![]);
    world.barrier().unwrap();
    world.ibarrier().unwrap().wait().unwrap();
    let summed = world.iallreduce(&none, &Op::Sum).unwrap().wait();
    assert_eq!(summed.unwrap(), vec![]);
    assert_eq!(world.iallgather(&none).unwrap().wait().unwrap(), vec![]);
    assert_eq!(world.ialltoall(&none, 0).unwrap().wait().unwrap(), vec![]);
}

#[test]
fn count_zero_on_a_flat_topology() {
    Universe::run_default(4, every_collective_with_count_zero);
}

#[test]
fn count_zero_on_a_hierarchical_topology() {
    // 2 nodes x 3 ranks: `1 < nodes < size`, so the hierarchy is selected.
    Universe::run(
        6,
        BuildConfig::ch4_default(),
        ProviderProfile::infinite(),
        Topology::blocked(6, 3),
        every_collective_with_count_zero,
    );
}

/// The reported case, as reported: two ranks, `f64`, `MPI_SUM`.
#[test]
fn empty_allreduce_on_two_ranks_returns_empty() {
    let out = Universe::run_default(2, |proc| {
        proc.world().allreduce::<f64>(&[], &Op::Sum).unwrap()
    });
    assert_eq!(out, vec![vec![], vec![]]);
}
