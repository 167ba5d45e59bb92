//! `MPI_WIN_FENCE` as one collective: the message count it is pinned to,
//! the incoming-op count it derives from the reduction, and the ordering
//! the conditional trailing barrier still has to guarantee.

use litempi_core::{BuildConfig, Op, Universe, Window};
use litempi_datatype::{Datatype, MpiPrimitive};
use litempi_fabric::{FaultPlan, FaultSpec, ProviderProfile, Topology};

fn word(win: &Window, w: usize) -> u64 {
    u64::from_le_bytes(win.read_local(w * 8, 8).try_into().unwrap())
}

#[test]
fn fence_is_one_collective_when_all_ops_are_native() {
    // Every put below is a native RDMA write, so closing the epoch is one
    // allreduce: at most ⌈log₂P⌉ sends and as many receives per rank,
    // where the count exchange used to cost P−1 more.
    for p in [2usize, 8, 64] {
        let log2 = p.next_power_of_two().trailing_zeros() as u64;
        let stats = Universe::run_default(p, |proc| {
            let world = proc.world();
            let win = Window::create(&world, 8, 8).unwrap();
            win.fence().unwrap();
            let before = proc.comm_stats();
            let next = (proc.rank() + 1) % p;
            win.put(&[proc.rank() as u64 + 1], next as i32, 0).unwrap();
            win.fence().unwrap();
            let d = proc.comm_stats().diff(&before);
            assert_eq!(word(&win, 0), ((proc.rank() + p - 1) % p) as u64 + 1);
            world.barrier().unwrap();
            d
        });
        for (rank, d) in stats.iter().enumerate() {
            assert!(
                d.msgs_sent + d.msgs_received <= 2 * log2,
                "P = {p}, rank {rank}: {} sent + {} received per fence",
                d.msgs_sent,
                d.msgs_received
            );
            assert_eq!(d.am_sent, 0, "no op took the AM fallback");
        }
    }
}

/// How many accumulates rank `r` sends at rank `t` in epoch `e` — any
/// uneven function of the three will do.
fn sends(r: usize, t: usize, e: usize) -> u64 {
    ((r * 7 + t * 3 + e) % 4) as u64
}

#[test]
fn fence_waits_for_exactly_the_am_ops_sent_at_this_rank() {
    // On an AM-only provider every accumulate is an active message the
    // target applies. Each one adds 1, so when the fence returns a rank's
    // counter must hold what the all-to-all count exchange used to tell it
    // to wait for: the column sum of `sends`, computed here locally.
    const P: usize = 8;
    Universe::run(
        P,
        BuildConfig::ch4_default(),
        ProviderProfile::am_only(),
        Topology::single_node(P),
        |proc| {
            let world = proc.world();
            let win = Window::create(&world, 8, 8).unwrap();
            let me = proc.rank();
            win.fence().unwrap();
            let mut expect = 0;
            for e in 0..6 {
                for t in 0..P {
                    for _ in 0..sends(me, t, e) {
                        win.accumulate(&[1u64], t as i32, 0, &Op::Sum).unwrap();
                    }
                }
                win.fence().unwrap();
                expect += (0..P).map(|r| sends(r, me, e)).sum::<u64>();
                assert_eq!(word(&win, 0), expect, "epoch {e}, rank {me}");
                // An op of the next epoch may land as soon as its origin
                // has left the fence: hold everyone until all have read.
                world.barrier().unwrap();
            }
        },
    );
}

#[test]
fn a_put_of_the_next_epoch_never_loses_to_an_am_op_of_the_last() {
    // Rank 0 puts X at rank 2's word in epoch n over the AM fallback; rank
    // 1 puts Y at the same word in epoch n+1. Rank 2 must read Y. The last
    // two stacks are the dangerous ones: X is a strided put (an AM even on
    // a native provider) and Y a native write that lands the moment it is
    // issued — only the fence's trailing barrier keeps a late X from
    // overwriting it. On the lossy link X is late whenever its first copy
    // is dropped.
    let strided = Datatype::vector(2, 1, 2, &Datatype::UINT64)
        .unwrap()
        .commit();
    let reordering = |p: ProviderProfile, seed| {
        p.with_faults(FaultPlan::uniform(seed, FaultSpec::percent(0, 0, 30, 0)))
            .reliable()
    };
    let lossy_to_target = |p: ProviderProfile, seed| {
        let drop_third = FaultSpec::percent(33, 0, 0, 0);
        p.with_faults(FaultPlan::uniform(seed, FaultSpec::NONE).with_link(0, 2, drop_third))
            .reliable()
    };
    type Shape<'a> = &'a dyn Fn(ProviderProfile, u64) -> ProviderProfile;
    let stacks: [(BuildConfig, ProviderProfile, Shape<'_>); 4] = [
        (
            BuildConfig::original(),
            ProviderProfile::infinite(),
            &reordering,
        ),
        (
            BuildConfig::ch4_default(),
            ProviderProfile::am_only(),
            &reordering,
        ),
        (
            BuildConfig::ch4_default(),
            ProviderProfile::infinite(),
            &reordering,
        ),
        (
            BuildConfig::ch4_default(),
            ProviderProfile::infinite(),
            &lossy_to_target,
        ),
    ];
    for (config, profile, shape) in stacks {
        for seed in 1..=200u64 {
            let strided = &strided;
            Universe::run(
                3,
                config,
                shape(profile, seed),
                Topology::single_node(3),
                |proc| {
                    let world = proc.world();
                    let win = Window::create(&world, 16, 8).unwrap();
                    let (x, y) = (seed, seed + 1000);
                    win.fence().unwrap();
                    if proc.rank() == 0 {
                        // Words 0 and 2 of the origin buffer → words 0, 1.
                        let buf = [x, 0, x];
                        win.put_bytes(u64::as_bytes(&buf), strided, 1, 2, 0)
                            .unwrap();
                    }
                    win.fence().unwrap();
                    if proc.rank() == 1 {
                        win.put(&[y], 2, 0).unwrap();
                    }
                    win.fence().unwrap();
                    if proc.rank() == 2 {
                        assert_eq!(word(&win, 0), y, "seed {seed}");
                    }
                    world.barrier().unwrap();
                },
            );
        }
    }
}
