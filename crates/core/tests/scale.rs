//! 1024-rank scale evidence.
//!
//! The issue's acceptance bar: per-endpoint state must not grow O(ranks)
//! when the communication pattern is sparse, the hierarchical collectives
//! must stay correct at four-digit rank counts, and a real application
//! iteration (stencil halo exchange + allreduce) must complete inside the
//! CI budget. These tests are the executable form of that bar.

use litempi_core::{BuildConfig, Op, Universe};
use litempi_fabric::{ProviderProfile, Topology};

#[path = "common/one_cpu.rs"]
mod one_cpu;

/// Dense-extrapolation factor the sparse link state must beat.
const SPARSITY_FACTOR: u64 = 50;

#[test]
fn resident_link_state_is_sparse_at_1024_ranks() {
    // Step 1: measure the empirical per-link footprint on a small dense
    // job. At 8 ranks an alltoall touches all 7 peers, so each rank holds
    // exactly 7 materialized links; resident / 7 is the per-link cost
    // (protocol struct + any retransmit bookkeeping) on this build.
    let dense_n = 8;
    let dense_resident = Universe::run(
        dense_n,
        BuildConfig::ch4_default(),
        ProviderProfile::infinite().reliable(),
        Topology::single_node(dense_n),
        |proc| {
            let world = proc.world();
            let rank = world.rank();
            let send: Vec<i64> = (0..dense_n as i64).map(|j| rank as i64 * 100 + j).collect();
            let out = world.alltoall(&send, 1).unwrap();
            let expect: Vec<i64> = (0..dense_n as i64).map(|j| j * 100 + rank as i64).collect();
            assert_eq!(out, expect);
            proc.comm_stats().resident_link_bytes
        },
    );
    let max_dense = *dense_resident.iter().max().unwrap();
    assert!(max_dense > 0, "dense run materialized no links");
    let per_link = max_dense.div_ceil((dense_n - 1) as u64);

    // Step 2: a 1024-rank job with a 2-neighbor ring pattern. A dense
    // per-peer table would cost per_link * 1023 at every endpoint; the
    // lazily-materialized sparse state must only pay for the ring links
    // actually touched.
    let n = 1024;
    let ring_resident = Universe::run(
        n,
        BuildConfig::ch4_default(),
        ProviderProfile::infinite().reliable(),
        Topology::blocked(n, 32),
        |proc| {
            let world = proc.world();
            let rank = world.rank() as i32;
            let right = (rank + 1) % n as i32;
            let left = (rank + n as i32 - 1) % n as i32;
            let mut from_left = [0i64; 1];
            let mut from_right = [0i64; 1];
            world
                .sendrecv(&[rank as i64], right, 7, &mut from_left, left, 7)
                .unwrap();
            world
                .sendrecv(&[rank as i64], left, 8, &mut from_right, right, 8)
                .unwrap();
            assert_eq!(from_left[0], left as i64);
            assert_eq!(from_right[0], right as i64);
            // The gauge of this rank's links, read while it still runs.
            proc.comm_stats().resident_link_bytes
        },
    );
    let max_ring = *ring_resident.iter().max().unwrap();
    assert!(max_ring > 0, "ring run materialized no links");

    let dense_baseline = per_link * (n - 1) as u64;
    assert!(
        dense_baseline >= SPARSITY_FACTOR * max_ring,
        "sparse link state not sparse enough: dense baseline {dense_baseline}B \
         (per_link {per_link}B x {} peers) vs resident {max_ring}B — ratio {:.1} < {SPARSITY_FACTOR}",
        n - 1,
        dense_baseline as f64 / max_ring as f64,
    );
}

#[test]
fn hierarchical_collectives_agree_at_1024_ranks() {
    // 64 nodes x 16 ranks: the hierarchical path (fan-in, binomial across
    // leaders, fan-out) must produce exact results at a scale where the
    // flat reference would already be painful to eyeball.
    let n: usize = 1024;
    Universe::run(
        n,
        BuildConfig::ch4_default(),
        ProviderProfile::infinite(),
        Topology::blocked(n, 16),
        |proc| {
            let world = proc.world();
            let rank = world.rank() as i64;

            let mine = [rank + 1, rank * 3, 1];
            let sum = world.allreduce(&mine, &Op::Sum).unwrap();
            let s: i64 = (0..n as i64).sum();
            assert_eq!(sum, vec![s + n as i64, 3 * s, n as i64]);

            let max = world.allreduce(&mine, &Op::Max).unwrap();
            assert_eq!(max[0], n as i64);

            let mut buf = if rank == 513 {
                [0xBEEFi64, 513]
            } else {
                [0, 0]
            };
            world.bcast(&mut buf, 513).unwrap();
            assert_eq!(buf, [0xBEEF, 513]);

            let red = world.reduce(&mine, &Op::Sum, 1000).unwrap();
            if world.rank() == 1000 {
                assert_eq!(red.unwrap()[1], 3 * s);
            } else {
                assert!(red.is_none());
            }

            world.barrier().unwrap();
        },
    );
}

#[test]
fn barrier_and_allreduce_complete_with_4096_ranks_on_one_worker() {
    // Pinned to one CPU, every rank is a task on one worker thread.
    let _cpu = one_cpu::one_cpu();
    let n: usize = 4096;
    let sums = Universe::run(
        n,
        BuildConfig::ch4_default(),
        ProviderProfile::infinite(),
        Topology::blocked(n, 64),
        |proc| {
            let world = proc.world();
            world.barrier().unwrap();
            world.allreduce(&[1u64], &Op::Sum).unwrap()[0]
        },
    );
    assert!(sums.iter().all(|&s| s == n as u64));
}
