//! Node-aware collectives against the oracle.
//!
//! On a multi-node topology the compilers emit the leader-based hierarchy
//! (`hier` module). Its results must be the oracle's bytes (`common`) on
//! every topology, through the blocking AND the nonblocking entry point —
//! under clean fabrics, reordering fabrics, and lossy chaos fabrics alike.
//! The collectives whose compilers never look at the topology run in the
//! same sweep, on the same placements and fault plans.
//! Reduction data is exact (integers, and floats holding small integers,
//! whose sums are exactly representable), so the hierarchy's fold order
//! cannot excuse a byte difference from the oracle's left-to-right fold.
//!
//! For *inexact* float data no order-free oracle exists; there the suite
//! holds the hierarchy to its determinism contract instead: ascending
//! members, then binomial leaders, fixed at compile time — so two runs, and
//! the two entry points, are bitwise-identical even when arithmetic rounds.

mod common;

use common::{bits, check_blocking_only, fold, gathered, transposed};
use litempi_core::{BuildConfig, Op, Process, Universe};
use litempi_fabric::{FaultPlan, FaultSpec, NodeId, ProviderProfile, Topology};
use proptest::prelude::*;

/// One full sweep: every collective, through every entry point it has,
/// against the oracle.
fn check_against_oracle(proc: &Process, len: usize) {
    let world = proc.world();
    let n = world.size();
    let rank = world.rank();
    let ints = |r: usize| -> Vec<i64> { (0..len as i64).map(|i| r as i64 * 131 + i * 7).collect() };
    // Small integers in f64: sums across <= a few hundred ranks are exact,
    // so every fold order must agree bitwise.
    let floats = |r: usize| -> Vec<f64> { ints(r).iter().map(|&v| v as f64).collect() };

    // --- allreduce ---
    type Fold = fn(i64, i64) -> i64;
    let ops: [(Op, Fold); 5] = [
        (Op::Sum, |a, b| a + b),
        (Op::Min, i64::min),
        (Op::Max, i64::max),
        (Op::Band, |a, b| a & b),
        (Op::Bxor, |a, b| a ^ b),
    ];
    for (op, f) in ops {
        let want = fold(n, ints, f);
        assert_eq!(world.allreduce(&ints(rank), &op).unwrap(), want, "{op:?}");
        let nbc = world.iallreduce(&ints(rank), &op).unwrap();
        assert_eq!(nbc.wait().unwrap(), want, "i{op:?}");
    }
    let want = bits(&fold(n, floats, |a, b| a + b));
    let sum = world.allreduce(&floats(rank), &Op::Sum).unwrap();
    assert_eq!(bits(&sum), want, "allreduce f64 diverged");
    let nbc = world.iallreduce(&floats(rank), &Op::Sum).unwrap();
    assert_eq!(bits(&nbc.wait().unwrap()), want, "iallreduce f64 diverged");

    // --- reduce and bcast, at three roots ---
    let sum = fold(n, ints, |a, b| a + b);
    for root in [0, n / 2, n - 1] {
        let at_root = (rank == root).then(|| sum.clone());
        let got = world.reduce(&ints(rank), &Op::Sum, root).unwrap();
        assert_eq!(got, at_root, "reduce to {root} diverged");
        let nbc = world.ireduce(&ints(rank), &Op::Sum, root).unwrap();
        assert_eq!(nbc.wait().unwrap(), at_root, "ireduce to {root} diverged");

        let mut buf = ints(rank);
        world.bcast(&mut buf, root).unwrap();
        assert_eq!(buf, ints(root), "bcast from {root} diverged");
        let nbc = world.ibcast(&ints(rank), root).unwrap();
        assert_eq!(
            nbc.wait().unwrap(),
            ints(root),
            "ibcast from {root} diverged"
        );
    }

    // --- barrier (must complete through both) ---
    world.barrier().unwrap();
    world.ibarrier().unwrap().wait().unwrap();

    // --- allgather (topology-blind, but split() rides on it) ---
    let all = gathered(n, ints);
    assert_eq!(world.allgather(&ints(rank)).unwrap(), all);
    let nbc = world.iallgather(&ints(rank)).unwrap();
    assert_eq!(nbc.wait().unwrap(), all, "iallgather diverged");

    // --- alltoall: the node-aware slot order is still a transpose ---
    let block = len.max(1);
    let send =
        |r: usize| -> Vec<i32> { (0..n * block).map(|j| (r * 100_000 + j) as i32).collect() };
    let want = transposed(n, rank, block, send);
    assert_eq!(world.alltoall(&send(rank), block).unwrap(), want);
    let nbc = world.ialltoall(&send(rank), block).unwrap();
    assert_eq!(nbc.wait().unwrap(), want, "ialltoall diverged");

    // --- inexact floats: same bits run to run and entry point to entry
    //     point (the fold order is compiled, not arrival-driven) ---
    let inexact: Vec<f64> = (0..len)
        .map(|i| 0.1 * (rank + 1) as f64 + i as f64 * 0.3)
        .collect();
    let first = bits(&world.allreduce(&inexact, &Op::Sum).unwrap());
    assert_eq!(bits(&world.allreduce(&inexact, &Op::Sum).unwrap()), first);
    let nbc = world.iallreduce(&inexact, &Op::Sum).unwrap();
    assert_eq!(
        bits(&nbc.wait().unwrap()),
        first,
        "iallreduce fp order diverged"
    );

    let root = n - 1;
    let first = world.reduce(&inexact, &Op::Sum, root).unwrap();
    assert_eq!(first.is_some(), rank == root);
    let first = first.map(|v| bits(&v));
    let again = world.reduce(&inexact, &Op::Sum, root).unwrap();
    assert_eq!(again.map(|v| bits(&v)), first, "reduce fp order diverged");
    let nbc = world.ireduce(&inexact, &Op::Sum, root).unwrap();
    let nbc = nbc.wait().unwrap();
    assert_eq!(nbc.map(|v| bits(&v)), first, "ireduce fp order diverged");

    // --- the topology-blind eight: linear rooted trees, chain scans,
    //     pairwise reduce-scatter, the neighbourhood pair ---
    check_blocking_only(proc, len, &[0, n / 2, n - 1]);
}

/// Deterministic pseudo-random node assignment (splitmix64 over the seed)
/// so irregular placements — interleaved nodes, unequal node sizes — get
/// coverage, not just the blocked layout.
fn random_topology(n: usize, n_nodes: usize, seed: u64) -> Topology {
    let mut s = seed;
    let nodes = (0..n)
        .map(|_| {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            NodeId((z ^ (z >> 31)) as u32 % n_nodes as u32)
        })
        .collect();
    Topology::from_nodes(nodes)
}

#[test]
fn hier_matches_the_oracle_on_blocked_topologies() {
    for (n, rpn) in [(6, 2), (8, 4), (12, 3), (9, 3), (15, 4)] {
        Universe::run(
            n,
            BuildConfig::ch4_default(),
            ProviderProfile::infinite(),
            Topology::blocked(n, rpn),
            |proc| check_against_oracle(&proc, 5),
        );
    }
}

#[test]
fn hier_matches_the_oracle_under_coffee_chaos() {
    // The fixed chaos seed from the issue: lossy, duplicating, reordering
    // links on the reliable transport must not change any result.
    let plan = FaultPlan::uniform(0xC0FFEE, FaultSpec::percent(20, 10, 30, 0));
    let profile = ProviderProfile::ofi().with_faults(plan).reliable();
    Universe::run(
        6,
        BuildConfig::ch4_default(),
        profile,
        Topology::blocked(6, 2),
        |proc| check_against_oracle(&proc, 4),
    );
}

#[test]
fn hier_collectives_on_split_subcommunicators() {
    // Hierarchy must key on the *members'* placement, not world's: split
    // world into odds/evens so node groups interleave across comms.
    Universe::run(
        8,
        BuildConfig::ch4_default(),
        ProviderProfile::infinite(),
        Topology::blocked(8, 4),
        |proc| {
            let world = proc.world();
            let sub = world.split((world.rank() % 2) as i32, 0).unwrap().unwrap();
            let mine = [sub.rank() as i64 + 1];
            let sum = sub.allreduce(&mine, &Op::Sum).unwrap();
            assert_eq!(sum[0], (1..=sub.size() as i64).sum::<i64>());
            let nbc = sub.iallreduce(&mine, &Op::Sum).unwrap();
            assert_eq!(nbc.wait().unwrap(), sum);
        },
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random topologies spanning the issue's 1–64 nodes x 1–16
    /// ranks-per-node grid (total ranks capped so a case stays a sane
    /// thread count), random payload lengths, optional reordering: the
    /// hierarchy never changes a byte.
    #[test]
    fn hier_equivalence_randomized(
        nodes_pick in 1usize..=64,
        rpn in 1usize..=16,
        len in 1usize..12,
        assign_seed in any::<u64>(),
        reorder in proptest::option::of(any::<u64>()),
        blocked in any::<bool>(),
    ) {
        let nodes = nodes_pick.min((48 / rpn).max(1));
        let n = (nodes * rpn).max(2);
        let topo = if blocked {
            Topology::blocked(n, rpn)
        } else {
            random_topology(n, nodes, assign_seed)
        };
        let mut profile = ProviderProfile::infinite();
        if let Some(seed) = reorder {
            let plan = FaultPlan::uniform(seed, FaultSpec::percent(0, 0, 30, 0));
            profile = profile.with_faults(plan).reliable();
        }
        Universe::run(n, BuildConfig::ch4_default(), profile, topo, move |proc| {
            check_against_oracle(&proc, len);
        });
    }

    /// Random chaos seeds on a multi-node topology: the reliable
    /// transport under loss/duplication/reordering still yields the
    /// oracle's bytes on every hierarchical path.
    #[test]
    fn hier_equivalence_under_chaos_randomized(seed in any::<u64>()) {
        let plan = FaultPlan::uniform(seed, FaultSpec::percent(20, 10, 30, 0));
        let profile = ProviderProfile::ofi().with_faults(plan).reliable();
        Universe::run(
            6,
            BuildConfig::ch4_default(),
            profile,
            Topology::blocked(6, 3),
            |proc| check_against_oracle(&proc, 3),
        );
    }
}
