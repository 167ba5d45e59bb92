//! Error paths on the collective hot path: argument validation that is
//! real (not `debug_assert!`), and comm failures under `MPI_ERRORS_RETURN`
//! that surface as `Err` instead of a hang or an unconditional panic.

use litempi_core::{BuildConfig, Errhandler, MpiError, Op, Universe};
use litempi_fabric::{FaultPlan, ProviderProfile, Topology};

#[test]
fn bcast_out_of_range_root_is_invalid_rank() {
    Universe::run_default(2, |proc| {
        let world = proc.world();
        let mut buf = [0u64; 4];
        let e = world.bcast(&mut buf, 7).unwrap_err();
        assert!(matches!(e, MpiError::InvalidRank { rank: 7, size: 2 }));
    });
}

#[test]
fn bcast_validates_root_on_a_node_aware_plan_too() {
    Universe::run(
        6,
        BuildConfig::ch4_default(),
        ProviderProfile::infinite(),
        Topology::blocked(6, 3),
        |proc| {
            let world = proc.world();
            let mut buf = [0u32; 2];
            let e = world.bcast(&mut buf, 9).unwrap_err();
            assert!(matches!(e, MpiError::InvalidRank { rank: 9, size: 6 }));
            let e = world.ibcast(&buf, 6).err().unwrap();
            assert!(matches!(e, MpiError::InvalidRank { rank: 6, size: 6 }));
        },
    );
}

/// Every rooted collective rejects `root >= size` with `MPI_ERR_RANK`, on
/// every rank and before any traffic: a root taken modulo the size used to
/// drop the reduction's result on all ranks, and at size 1 `reduce` and
/// `gather` overflowed or indexed out of range instead.
#[test]
fn out_of_range_root_is_invalid_rank_in_every_rooted_collective() {
    for n in [1usize, 2] {
        Universe::run_default(n, move |proc| {
            let world = proc.world();
            let bad = n + 5;
            let is_bad_root = |e: MpiError| matches!(e, MpiError::InvalidRank { rank, size } if rank == bad as i32 && size == n);
            assert!(is_bad_root(
                world.reduce(&[1u64], &Op::Sum, bad).unwrap_err()
            ));
            assert!(is_bad_root(
                world.ireduce(&[1u64], &Op::Sum, bad).err().unwrap()
            ));
            assert!(is_bad_root(world.gather(&[1u8], bad).unwrap_err()));
            assert!(is_bad_root(world.gatherv(&[1u8], bad).unwrap_err()));
            let send = vec![0u8; n];
            assert!(is_bad_root(
                world.scatter(Some(&send[..]), 1, bad).unwrap_err()
            ));
            // Nothing was sent: the communicator is still in step.
            assert_eq!(
                world.reduce(&[1u64], &Op::Sum, n - 1).unwrap(),
                (world.rank() == n - 1).then(|| vec![n as u64])
            );
        });
    }
}

#[test]
fn long_bcast_of_a_non_divisible_buffer_takes_the_tree() {
    // Scatter + allgather needs a block per rank. It is no entry point of
    // its own any more, so a long payload that does not divide is not an
    // error to reject: the compiler keeps it on the binomial tree — P − 1
    // messages in all where the long path sends P − 1 and an allgather.
    let n = 4;
    for (len, msgs) in [((48 << 10) + 1, 3), (48 << 10, 3 + 4 * 2)] {
        let sent = Universe::run_default(n, move |proc| {
            let world = proc.world();
            let mut buf = vec![world.rank() as u8; len];
            world.barrier().unwrap();
            let before = proc.comm_stats().msgs_sent;
            world.bcast(&mut buf, 2).unwrap();
            let sent = proc.comm_stats().msgs_sent - before;
            assert!(buf.iter().all(|&b| b == 2));
            let e = world.bcast(&mut buf, 5).unwrap_err();
            assert!(matches!(e, MpiError::InvalidRank { rank: 5, size: 4 }));
            sent
        });
        assert_eq!(sent.iter().sum::<u64>(), msgs, "len {len}");
    }
}

/// Rank 1 sends two warm-up messages (arming the kill switch) and then
/// deserts; rank 0, under `MPI_ERRORS_RETURN`, runs a collective that must
/// receive from the corpse and gets `PeerUnreachable` back — the
/// collective analogue of the pt2pt kill-switch tests.
fn run_with_dead_rank_1(
    coll: impl Fn(&litempi_core::Communicator) -> Result<(), MpiError> + Send + Sync + 'static,
) -> MpiError {
    let profile = ProviderProfile::infinite().with_faults(FaultPlan::none().with_kill(1, 2));
    let out = Universe::run(
        2,
        BuildConfig::ch4_default(),
        profile,
        Topology::single_node(2),
        move |proc| {
            let world = proc.world();
            if proc.rank() == 0 {
                world.set_errhandler(Errhandler::ErrorsReturn);
                let mut buf = [0u8; 1];
                world.recv_into(&mut buf, 1, 0).unwrap();
                world.recv_into(&mut buf, 1, 1).unwrap();
                Some(coll(&world).unwrap_err())
            } else {
                // Two packets touch endpoint 1, tripping the kill switch;
                // then the victim stops participating.
                world.send(&[1u8], 0, 0).unwrap();
                world.send(&[2u8], 0, 1).unwrap();
                None
            }
        },
    );
    out.into_iter().flatten().next().expect("rank 0 error")
}

#[test]
fn killed_peer_fails_bcast_under_errors_return() {
    let e = run_with_dead_rank_1(|world| {
        let mut buf = [0u8; 8];
        // Root 1 is dead: rank 0 must receive from it.
        world.bcast(&mut buf, 1)
    });
    assert!(matches!(e, MpiError::PeerUnreachable { peer: 1 }));
}

#[test]
fn killed_peer_fails_allgather_under_errors_return() {
    let e = run_with_dead_rank_1(|world| world.allgather(&[0u32]).map(|_| ()));
    assert!(matches!(e, MpiError::PeerUnreachable { peer: 1 }));
}

#[test]
fn killed_peer_fails_barrier_and_split_under_errors_return() {
    let e = run_with_dead_rank_1(|world| world.barrier());
    assert!(matches!(e, MpiError::PeerUnreachable { peer: 1 }));
    // comm_split rides on the allgather, so it is fallible too.
    let e = run_with_dead_rank_1(|world| world.split(0, 0).map(|_| ()));
    assert!(matches!(e, MpiError::PeerUnreachable { peer: 1 }));
}

#[test]
fn killed_peer_fails_the_rooted_collectives_under_errors_return() {
    // Rank 0 waits on the corpse — as the root of a gather, as a leaf of
    // a scatter, as its partner in a reduce-scatter: the schedule fails,
    // cancelling the receive it had posted.
    let e = run_with_dead_rank_1(|world| world.gather(&[0u32], 0).map(|_| ()));
    assert!(matches!(e, MpiError::PeerUnreachable { peer: 1 }));
    let e = run_with_dead_rank_1(|world| world.gatherv(&[0u32], 0).map(|_| ()));
    assert!(matches!(e, MpiError::PeerUnreachable { peer: 1 }));
    let e = run_with_dead_rank_1(|world| world.scatter::<u32>(None, 1, 1).map(|_| ()));
    assert!(matches!(e, MpiError::PeerUnreachable { peer: 1 }));
    let e =
        run_with_dead_rank_1(|world| world.reduce_scatter_block(&[0u32; 2], &Op::Sum).map(|_| ()));
    assert!(matches!(e, MpiError::PeerUnreachable { peer: 1 }));
}

/// Rank 1 of three dies after its warm-up messages; ranks 0 and 2, under
/// `MPI_ERRORS_RETURN`, run `coll` and report how it ended. A survivor
/// whose part of the collective never touches the corpse may succeed; one
/// that waits on it must get an `MpiError`, never hang.
fn survivors_of_dead_rank_1(
    coll: impl Fn(&litempi_core::Communicator) -> Result<(), MpiError> + Send + Sync + 'static,
) -> Vec<Result<(), MpiError>> {
    let profile = ProviderProfile::infinite().with_faults(FaultPlan::none().with_kill(1, 2));
    let out = Universe::run(
        3,
        BuildConfig::ch4_default(),
        profile,
        Topology::single_node(3),
        move |proc| {
            let world = proc.world();
            if proc.rank() == 1 {
                world.send(&[1u8], 0, 0).unwrap();
                world.send(&[2u8], 0, 1).unwrap();
                return None;
            }
            world.set_errhandler(Errhandler::ErrorsReturn);
            if proc.rank() == 0 {
                let mut buf = [0u8; 1];
                world.recv_into(&mut buf, 1, 0).unwrap();
                world.recv_into(&mut buf, 1, 1).unwrap();
            }
            Some(coll(&world))
        },
    );
    out.into_iter().flatten().collect()
}

#[test]
fn killed_peer_fails_the_survivor_that_waits_on_it_and_no_other() {
    // 0 → 1 → 2: rank 0 only sends (to the corpse — fire and forget) and
    // finishes; rank 2 waits on the corpse and must be told.
    for exclusive in [false, true] {
        let ends = survivors_of_dead_rank_1(move |world| {
            if exclusive {
                world.exscan(&[1u64], &Op::Sum).map(|_| ())
            } else {
                world.scan(&[1u64], &Op::Sum).map(|_| ())
            }
        });
        assert!(matches!(ends[0], Ok(())));
        assert!(matches!(
            ends[1],
            Err(MpiError::PeerUnreachable { peer: 1 })
        ));
    }
    // A gather to the last rank: the root waits on the corpse, rank 0 has
    // nothing to wait for.
    let ends = survivors_of_dead_rank_1(|world| world.gather(&[1u64], 2).map(|_| ()));
    assert!(matches!(ends[0], Ok(())));
    assert!(matches!(
        ends[1],
        Err(MpiError::PeerUnreachable { peer: 1 })
    ));
}

#[test]
#[should_panic(expected = "MPI_ERRORS_ARE_FATAL")]
fn killed_peer_aborts_collective_under_default_errhandler() {
    let profile = ProviderProfile::infinite().with_faults(FaultPlan::none().with_kill(1, 2));
    Universe::run(
        2,
        BuildConfig::ch4_default(),
        profile,
        Topology::single_node(2),
        |proc| {
            let world = proc.world();
            if proc.rank() == 0 {
                let mut buf = [0u8; 1];
                world.recv_into(&mut buf, 1, 0).unwrap();
                world.recv_into(&mut buf, 1, 1).unwrap();
                let mut data = [0u8; 8];
                // Default errhandler: the dead root aborts the rank.
                let _ = world.bcast(&mut data, 1);
            } else {
                world.send(&[1u8], 0, 0).unwrap();
                world.send(&[2u8], 0, 1).unwrap();
            }
        },
    );
}
