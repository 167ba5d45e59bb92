//! Error paths on the collective hot path: argument validation that is
//! real (not `debug_assert!`), and comm failures under `MPI_ERRORS_RETURN`
//! that surface as `Err` instead of a hang or an unconditional panic.

use litempi_core::{BuildConfig, Communicator, Errhandler, MpiError, Op, Universe, Window};
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

// ------------------------------------- the errhandler rule, per request kind

/// Rank 0's side of a job: the world, a window on it, and `go` (below).
type Killed = fn(&Communicator, &Window, &dyn Fn()) -> Result<(), MpiError>;
/// Either rank's side of a job on the world.
type OnWorld = fn(&Communicator) -> Result<(), MpiError>;

/// A pending-request kind: rank 0 issues it toward rank 1, the victim.
struct PendingKind {
    name: &'static str,
    /// `rget` waits for an answer only on the active-message fallback;
    /// a rendezvous needs a finite eager threshold.
    profile: ProviderProfile,
    /// Rank 0: issue the operation (the victim is alive: it is a pending
    /// request), let the victim die (`go`, where the operation's own
    /// packets do not kill it), wait on the request.
    killed: Killed,
    /// Packets to or from rank 1 from the end of the setup on — the
    /// operation's own, then `go`'s: the last one trips its kill switch.
    trip: u64,
    /// What a killed peer reads as under `MPI_ERRORS_RETURN`.
    err: MpiError,
    /// Both ranks' halves of a truncating receive of this kind (`None`:
    /// the reply a `rget` waits for is the size it asked for).
    truncating: Option<OnWorld>,
}

fn pending_kinds() -> [PendingKind; 4] {
    const RNDV: usize = 64 << 10;
    const ALIVE: &str = "issued while the victim lives";
    [
        PendingKind {
            name: "rendezvous send",
            profile: ProviderProfile::ofi(),
            killed: |world, _, go| {
                let req = world.isend(&vec![7u8; RNDV], 1, 9).expect(ALIVE);
                go();
                req.wait().map(drop)
            },
            trip: 2,
            err: MpiError::PeerUnreachable { peer: 1 },
            truncating: Some(|world| {
                if world.rank() == 1 {
                    return world.send(&vec![7u8; RNDV], 0, 9);
                }
                world.recv_into(&mut [0u8; 1024], 1, 9).map(drop)
            }),
        },
        PendingKind {
            name: "posted receive",
            profile: ProviderProfile::infinite(),
            killed: |world, _, go| {
                let mut buf = [0u8; 1];
                let req = world.irecv(&mut buf, 1, 9).expect(ALIVE);
                go();
                req.wait().map(drop)
            },
            trip: 1,
            err: MpiError::PeerUnreachable { peer: 1 },
            truncating: Some(|world| {
                if world.rank() == 1 {
                    return world.send(&[1u8, 2, 3, 4], 0, 9);
                }
                world.recv_into(&mut [0u8; 2], 1, 9).map(drop)
            }),
        },
        PendingKind {
            name: "deferred collective (iallreduce)",
            profile: ProviderProfile::infinite(),
            killed: |world, _, go| {
                let req = world.iallreduce(&[1u64], &Op::Sum).expect(ALIVE);
                go();
                req.wait().map(drop)
            },
            trip: 2,
            err: MpiError::PeerUnreachable { peer: 1 },
            // The ranks disagree on the count: rank 0 receives root 1's
            // two elements into one (a reduction reads a mismatch as
            // `InvalidCount` before any copy, so the copy is a bcast's).
            truncating: Some(|world| {
                let mine = vec![1u64; world.rank() + 1];
                world.ibcast(&mine, 1)?.wait().map(drop)
            }),
        },
        PendingKind {
            name: "rget",
            profile: ProviderProfile::am_only(),
            killed: |_, win, _| win.rget(&mut [0u64], 1, 0).expect(ALIVE).wait().map(drop),
            trip: 1,
            err: MpiError::ProcessFailed { peer: 1 },
            truncating: None,
        },
    ]
}

/// The setup every kind runs on: the world under `eh`, and a window of
/// eight bytes on it inside a fence epoch.
fn fenced_window(proc: &litempi_core::Process, eh: Errhandler) -> (Communicator, Window) {
    let world = proc.world();
    world.set_errhandler(eh);
    let win = Window::create(&world, 8, 1).unwrap();
    win.fence().unwrap();
    (world, win)
}

/// Run `kind` against a victim killed after its setup: rank 1 sets up and
/// returns, rank 0 issues, waits and reports — or panics, which
/// `Universe::run` re-raises here.
fn kill_during(kind: &PendingKind, eh: Errhandler) -> std::thread::Result<Result<(), MpiError>> {
    let (ch4, topo) = (BuildConfig::ch4_default(), Topology::single_node(2));
    let setup: u64 = Universe::run(2, ch4, kind.profile, topo.clone(), |proc| {
        let _win = fenced_window(&proc, eh);
        let sent = proc.comm_stats();
        sent.am_sent + sent.msgs_sent
    })
    .iter()
    .sum();
    let kill = FaultPlan::none().with_kill(1, setup + kind.trip);
    let profile = kind.profile.with_faults(kill);
    let killed = kind.killed;
    std::panic::catch_unwind(move || {
        let out = Universe::run(2, ch4, profile, topo, move |proc| {
            let (world, win) = fenced_window(&proc, eh);
            let go = || world.send(&[0u8], 1, 100).unwrap();
            (proc.rank() == 0).then(|| killed(&world, &win, &go))
        });
        out.into_iter().flatten().next().expect("rank 0 reported")
    })
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    (payload.downcast_ref::<String>().map(String::as_str))
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("")
}

#[test]
fn the_errhandler_rule_holds_for_every_pending_request_kind() {
    for kind in pending_kinds() {
        let name = kind.name;
        // MPI_ERRORS_RETURN: the death is the request's `Err`.
        let got = kill_during(&kind, Errhandler::ErrorsReturn).expect("no panic");
        assert_eq!(got, Err(kind.err.clone()), "{name} under ERRORS_RETURN");
        // MPI_ERRORS_ARE_FATAL (the default): the same death aborts.
        let got = kill_during(&kind, Errhandler::ErrorsAreFatal);
        let payload = got.expect_err("a fatal death panics");
        let message = panic_message(&*payload);
        assert!(
            message.starts_with("MPI_ERRORS_ARE_FATAL"),
            "{name} under ERRORS_ARE_FATAL panicked with {message:?}"
        );
        // A truncating receive is the caller's error, not a failure of
        // communication: it returns under MPI_ERRORS_ARE_FATAL too.
        let Some(truncating) = kind.truncating else {
            continue;
        };
        let out = Universe::run(
            2,
            BuildConfig::ch4_default(),
            kind.profile,
            Topology::single_node(2),
            move |proc| truncating(&proc.world()),
        );
        assert!(
            matches!(out[0], Err(MpiError::Truncate { .. })),
            "{name}: a truncating receive read {:?}",
            out[0]
        );
    }
}
