//! ULFM-style fault tolerance, end to end: revoke floods that unhang
//! pending operations, fault-tolerant `agree` with uniform unacknowledged-
//! failure reporting, `shrink` after a mid-collective process death, and
//! the canonical revoke → ack → agree → shrink → continue recovery
//! sequence on a shrunken communicator.

use std::time::{Duration, Instant};

use litempi_core::{BuildConfig, Errhandler, MpiError, Op, Universe};
use litempi_fabric::{FaultPlan, ProviderProfile, Topology};

/// Spin until this rank has observed the revocation flood (pumping the
/// progress engine through `iprobe`), with a hang-proof deadline.
fn await_revoked(world: &litempi_core::Communicator) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !world.is_revoked() {
        let _ = world.iprobe(litempi_core::ANY_SOURCE, 0x3FF);
        assert!(Instant::now() < deadline, "revoke flood never arrived");
        std::hint::spin_loop();
    }
}

#[test]
fn revoke_floods_to_peers_and_fails_new_operations_everywhere() {
    Universe::run_default(2, |proc| {
        let world = proc.world();
        world.set_errhandler(Errhandler::ErrorsReturn);
        if proc.rank() == 0 {
            world.revoke();
            // Local effect is immediate and idempotent.
            assert!(world.is_revoked());
            world.revoke();
        } else {
            await_revoked(&world);
        }
        // Every new operation on the revoked communicator fails with
        // MPI_ERR_REVOKED (class 16) on *both* ranks — sends, receives,
        // and blocking collectives alike.
        let peer = 1 - proc.rank() as i32;
        let e = world.send(&[1u8], peer, 3).unwrap_err();
        assert!(matches!(e, MpiError::Revoked));
        assert_eq!(e.error_class(), 16);
        let mut buf = [0u8; 1];
        let e = world.recv_into(&mut buf, peer, 3).unwrap_err();
        assert!(matches!(e, MpiError::Revoked));
        let e = world.allreduce(&[1u64], &Op::Sum).unwrap_err();
        assert!(matches!(e, MpiError::Revoked));
        let e = world.barrier().unwrap_err();
        assert!(matches!(e, MpiError::Revoked));
        // Every collective is a schedule, and a schedule's first look is at
        // the revocation flag.
        let two = [1u64, 2];
        let revoked: [Result<(), MpiError>; 10] = [
            world.bcast(&mut [0u64], 0),
            world.reduce(&two, &Op::Sum, 0).map(drop),
            world.allgather(&two).map(drop),
            world.alltoall(&two, 1).map(drop),
            world.gather(&two, 0).map(drop),
            world.gatherv(&two, 0).map(drop),
            world.scatter(Some(&two[..]), 1, 0).map(drop),
            world.scan(&two, &Op::Sum).map(drop),
            world.exscan(&two, &Op::Sum).map(drop),
            world.reduce_scatter_block(&two, &Op::Sum).map(drop),
        ];
        for (i, r) in revoked.into_iter().enumerate() {
            assert!(matches!(r, Err(MpiError::Revoked)), "collective {i}: {r:?}");
        }
        // ...but agreement and shrink still work: that is the whole point
        // of revoke. With nobody dead, shrink rebuilds a full-size comm.
        let shrunk = world.shrink().unwrap();
        assert_eq!(shrunk.size(), 2);
        assert!(!shrunk.is_revoked());
        let sum = shrunk.allreduce(&[proc.rank() as u64], &Op::Sum).unwrap();
        assert_eq!(sum[0], 1);
        // The neighbourhood pair, on a Cartesian communicator of its own.
        let ring = litempi_core::CartComm::create(&shrunk, &[2], &[true]);
        let ring = ring.unwrap().unwrap();
        if proc.rank() == 0 {
            ring.comm().revoke();
        } else {
            await_revoked(ring.comm());
        }
        let e = ring.neighbor_allgather(&[1u64]).unwrap_err();
        assert!(matches!(e, MpiError::Revoked));
        let e = ring.neighbor_alltoall(&[1u64, 2], 1).unwrap_err();
        assert!(matches!(e, MpiError::Revoked));
    });
}

/// A revocation moves the job's fault word, so the gates see it: on a
/// revoked sub-communicator the revoker's own send, receive and
/// collective fail at once, the other member's after the flood, while the
/// parent communicator, whose gates now take the slow path on every
/// rank, still carries traffic.
#[test]
fn fault_word_moves_on_a_revoke_of_a_sub_communicator() {
    Universe::run_default(3, |proc| {
        let world = proc.world();
        world.set_errhandler(Errhandler::ErrorsReturn);
        let pair = proc.rank() < 2;
        let sub = world.split(pair as i32, 0).unwrap().unwrap();
        sub.set_errhandler(Errhandler::ErrorsReturn);
        if pair {
            if proc.rank() == 0 {
                sub.revoke();
            } else {
                await_revoked(&sub);
            }
            let peer = 1 - proc.rank() as i32;
            let e = sub.send(&[1u8], peer, 3).unwrap_err();
            assert!(matches!(e, MpiError::Revoked));
            let mut buf = [0u8; 1];
            let e = sub.recv_into(&mut buf, peer, 3).unwrap_err();
            assert!(matches!(e, MpiError::Revoked));
            assert!(matches!(sub.barrier(), Err(MpiError::Revoked)));
        } else {
            assert!(!sub.is_revoked());
        }
        assert!(!world.is_revoked());
        let sum = world.allreduce(&[1u64], &Op::Sum).unwrap();
        assert_eq!(sum[0], 3);
    });
}

#[test]
fn revoke_fails_a_pending_irecv_instead_of_hanging() {
    Universe::run_default(2, |proc| {
        let world = proc.world();
        world.set_errhandler(Errhandler::ErrorsReturn);
        if proc.rank() == 0 {
            // Let rank 1 post its receive first, then revoke. (If the
            // flood raced ahead, the entry gate fails the post instead —
            // same observable class either way.)
            world.barrier().unwrap();
            std::thread::sleep(Duration::from_millis(20));
            world.revoke();
        } else {
            world.barrier().unwrap();
            // Nothing will ever match this receive; only the revocation
            // can unblock it.
            let mut buf = [0u64; 1];
            match world.irecv(&mut buf, 0, 77) {
                Ok(req) => {
                    let e = req.wait().unwrap_err();
                    assert!(matches!(e, MpiError::Revoked));
                }
                Err(e) => assert!(matches!(e, MpiError::Revoked)),
            }
        }
    });
}

#[test]
fn revoke_fails_a_nonblocking_collective_schedule() {
    Universe::run_default(2, |proc| {
        let world = proc.world();
        world.set_errhandler(Errhandler::ErrorsReturn);
        world.barrier().unwrap();
        if proc.rank() == 0 {
            std::thread::sleep(Duration::from_millis(20));
            world.revoke();
        } else {
            // Rank 0 never joins this collective: the schedule's DAG can
            // only finish through the revocation check in its progress
            // loop (or the entry gate, if the flood won the race).
            match world.iallreduce(&[7u64], &Op::Sum) {
                Ok(req) => {
                    let e = req.wait().unwrap_err();
                    assert!(matches!(e, MpiError::Revoked));
                }
                Err(e) => assert!(matches!(e, MpiError::Revoked)),
            }
        }
    });
}

#[test]
fn killed_peer_fails_persistent_waits_instead_of_hanging() {
    // The kill switch counts packets to and from rank 1: its two warm-up
    // packets, then the RTS of rank 0's persistent send, which trips it.
    // `ofi`: 64 KiB is above the eager ceiling, so the started send waits
    // on a pull that will not come.
    let profile = ProviderProfile::ofi().with_faults(FaultPlan::none().with_kill(1, 3));
    let out = Universe::run(
        2,
        BuildConfig::ch4_default(),
        profile,
        Topology::single_node(2),
        |proc| {
            let world = proc.world();
            if proc.rank() == 1 {
                world.send(&[1u8], 0, 0).unwrap();
                world.send(&[2u8], 0, 1).unwrap();
                // Rank 1 is dead once the RTS is here; it never pulls.
                world.probe(0, 3).unwrap();
                return Vec::new();
            }
            world.set_errhandler(Errhandler::ErrorsReturn);
            let mut buf = [0u8; 1];
            world.recv_into(&mut buf, 1, 0).unwrap();
            world.recv_into(&mut buf, 1, 1).unwrap();
            let big = vec![3u8; 64 * 1024];
            let mut send = world.send_init(&big, 1, 3).unwrap();
            // The death is not known yet: the start gets through.
            send.start().unwrap();
            let send_err = send.wait().unwrap_err();
            let mut recv = world.recv_init(&mut buf, 1, 2).unwrap();
            recv.start().unwrap();
            let recv_err = recv.wait().unwrap_err();
            vec![send_err, recv_err]
        },
    );
    assert_eq!(out[0].len(), 2);
    for e in &out[0] {
        assert!(matches!(e, MpiError::PeerUnreachable { peer: 1 }), "{e}");
    }
}

/// A persistent start passes the gates `isend` passes: toward a peer the
/// kill switch took down, the 8-byte send that `isend` refuses does not
/// start either.
#[test]
fn a_persistent_send_to_a_killed_peer_fails_at_start_like_isend() {
    let profile = ProviderProfile::infinite().with_faults(FaultPlan::none().with_kill(1, 1));
    let out = Universe::run(
        2,
        BuildConfig::ch4_default(),
        profile,
        Topology::single_node(2),
        |proc| {
            let world = proc.world();
            world.set_errhandler(Errhandler::ErrorsReturn);
            if proc.rank() == 1 {
                // Its one packet trips the kill switch.
                world.send(&[7u8], 0, 3).unwrap();
                return Vec::new();
            }
            world.recv_into(&mut [0u8], 1, 3).unwrap();
            let data = [5u8; 8];
            let isend = world.isend(&data, 1, 4).map(drop);
            let mut send = world.send_init(&data, 1, 4).unwrap();
            let start = send.start();
            vec![isend, start]
        },
    );
    assert_eq!(out[0].len(), 2);
    for r in &out[0] {
        assert!(
            matches!(r, Err(MpiError::PeerUnreachable { peer: 1 })),
            "{r:?}"
        );
    }
}

/// After a revocation, persistent starts fail like `isend` and `irecv`:
/// neither a send nor a receive is issued on the revoked communicator.
#[test]
fn persistent_starts_on_a_revoked_communicator_fail_like_isend() {
    Universe::run_default(2, |proc| {
        let world = proc.world();
        world.set_errhandler(Errhandler::ErrorsReturn);
        if proc.rank() == 0 {
            world.revoke();
        } else {
            await_revoked(&world);
        }
        let peer = 1 - proc.rank() as i32;
        let data = [5u8; 8];
        let e = world.isend(&data, peer, 4).map(drop).unwrap_err();
        assert!(matches!(e, MpiError::Revoked));
        let mut send = world.send_init(&data, peer, 4).unwrap();
        let r = send.start().and_then(|()| send.wait().map(drop));
        assert!(matches!(r, Err(MpiError::Revoked)), "send: {r:?}");
        let mut buf = [0u8; 8];
        let mut recv = world.recv_init(&mut buf, peer, 4).unwrap();
        let r = recv.start();
        assert!(matches!(r, Err(MpiError::Revoked)), "recv: {r:?}");
    });
}

#[test]
fn killed_peer_fails_an_intercomm_receive_instead_of_hanging() {
    // Rank 1 dies somewhere inside its stream of intercommunicator
    // messages (the kill switch counts the packets that built the
    // intercommunicator too); rank 0's receive of the first one that never
    // left must return the death, not wait for it.
    const STREAM: usize = 64;
    let profile = ProviderProfile::infinite().with_faults(FaultPlan::none().with_kill(1, 24));
    let out = Universe::run(
        2,
        BuildConfig::ch4_default(),
        profile,
        Topology::single_node(2),
        |proc| {
            let world = proc.world();
            let me = proc.rank();
            let alone = world.split(me as i32, 0).unwrap().unwrap();
            // The intercommunicator inherits the handler.
            alone.set_errhandler(Errhandler::ErrorsReturn);
            let inter = alone.intercomm_create(0, &world, 1 - me, 9).unwrap();
            let mut outcomes = Vec::new();
            for k in 0..STREAM as u64 {
                if me == 1 {
                    inter.send(&[k], 0, 4).unwrap();
                    continue;
                }
                let mut word = [u64::MAX];
                let got = inter.recv_into(&mut word, 0, 4).map(|_| word[0]);
                let failed = got.is_err();
                outcomes.push(got);
                if failed {
                    break;
                }
            }
            outcomes
        },
    );
    let (last, delivered) = out[0].split_last().expect("rank 0 received");
    assert!(!delivered.is_empty() && delivered.len() < STREAM);
    for (k, got) in delivered.iter().enumerate() {
        assert_eq!(got.as_ref().ok(), Some(&(k as u64)));
    }
    assert!(
        matches!(last, Err(MpiError::PeerUnreachable { peer: 1 })),
        "{last:?}"
    );
}

#[test]
fn agree_reports_unacked_failure_uniformly_then_converges_after_ack() {
    // Rank 2 dies after its two warm-up packets. Both survivors' first
    // agree must fail with MPI_ERR_PROC_FAILED naming rank 2 — on *both*
    // ranks, because the acked-masks travel with the contributions and
    // the unacknowledged-failure decision is evaluated against the agreed
    // state. After failure_ack, the retry agrees on the AND of the
    // survivors' flags.
    let profile = ProviderProfile::infinite().with_faults(FaultPlan::none().with_kill(2, 2));
    Universe::run(
        3,
        BuildConfig::ch4_default(),
        profile,
        Topology::single_node(3),
        |proc| {
            let world = proc.world();
            world.set_errhandler(Errhandler::ErrorsReturn);
            if proc.rank() == 2 {
                // Two packets trip the kill switch; the victim is gone.
                world.send(&[1u8], 0, 0).unwrap();
                world.send(&[1u8], 1, 0).unwrap();
                return;
            }
            let mut buf = [0u8; 1];
            world.recv_into(&mut buf, 2, 0).unwrap();
            let e = world.agree(0b11).unwrap_err();
            assert!(matches!(e, MpiError::ProcessFailed { peer: 2 }));
            assert_eq!(e.error_class(), 15);
            let acked = world.ack_failed();
            assert_eq!(acked & (1 << 2), 1 << 2);
            let flag = if proc.rank() == 0 { 0b01 } else { 0b11 };
            assert_eq!(world.agree(flag).unwrap(), 0b01);
            // Shrink drops the corpse and the remainder still computes.
            let shrunk = world.shrink().unwrap();
            assert_eq!(shrunk.size(), 2);
            let sum = shrunk.allreduce(&[proc.rank() as u64], &Op::Sum).unwrap();
            assert_eq!(sum[0], 1);
        },
    );
}

#[test]
fn agree_retries_under_next_coordinator_when_the_lowest_rank_is_dead() {
    // Kill rank 0 — the rank every participant would elect coordinator.
    // Survivors must detect the death (possibly only after addressing the
    // corpse once) and re-run the round under rank 1.
    let profile = ProviderProfile::infinite().with_faults(FaultPlan::none().with_kill(0, 2));
    Universe::run(
        3,
        BuildConfig::ch4_default(),
        profile,
        Topology::single_node(3),
        |proc| {
            let world = proc.world();
            world.set_errhandler(Errhandler::ErrorsReturn);
            if proc.rank() == 0 {
                world.send(&[1u8], 1, 0).unwrap();
                world.send(&[1u8], 2, 0).unwrap();
                return;
            }
            let mut buf = [0u8; 1];
            world.recv_into(&mut buf, 0, 0).unwrap();
            let e = world.agree(1).unwrap_err();
            assert!(matches!(e, MpiError::ProcessFailed { peer: 0 }));
            world.ack_failed();
            assert_eq!(world.agree(1).unwrap(), 1);
            let shrunk = world.shrink().unwrap();
            assert_eq!(shrunk.size(), 2);
            // World ranks 1 and 2 become shrunken ranks 0 and 1, order
            // preserved.
            assert_eq!(shrunk.rank(), proc.rank() - 1);
            let sum = shrunk.allreduce(&[proc.rank() as u64], &Op::Sum).unwrap();
            assert_eq!(sum[0], 3);
        },
    );
}

/// The ISSUE acceptance scenario: a fixed-seed kill mid-allreduce, after
/// which every survivor detects the failure, revokes, agrees, shrinks,
/// and completes a checksum-verified allreduce on the shrunken
/// communicator — no hang, no panic.
#[test]
fn kill_mid_allreduce_then_revoke_shrink_agree_and_continue() {
    // The kill switch counts every packet touching the victim's endpoint
    // (sent *or* received). The 4-rank dissemination barrier accounts for
    // exactly 4 of them, so a budget of 5 admits the whole warm-up plus
    // one allreduce packet: rank 3 dies *inside* the collective.
    let profile = ProviderProfile::infinite().with_faults(FaultPlan::none().with_kill(3, 5));
    let sums = Universe::run(
        4,
        BuildConfig::ch4_default(),
        profile,
        Topology::single_node(4),
        |proc| {
            let world = proc.world();
            world.set_errhandler(Errhandler::ErrorsReturn);
            // Tolerant of where exactly the death lands (algorithm packet
            // counts may shift): any error in the warm-up + allreduce
            // sequence is the recovery trigger.
            let r = world
                .barrier()
                .and_then(|()| world.allreduce(&[proc.rank() as u64], &Op::Sum));
            if proc.rank() == 3 {
                // The victim's own kill switch fails its remaining
                // operations (the harness's stand-in for process death);
                // it must not reach the recovery protocol.
                assert!(r.is_err());
                return None;
            }
            // Survivors: any error means the collective is compromised —
            // revoke so every pending peer unhangs, acknowledge what we
            // saw, agree (retrying through the ack cycle if the failure
            // was still unacknowledged), then shrink and continue.
            if r.is_err() {
                world.revoke();
            }
            world.ack_failed();
            let mut agreed = None;
            for _ in 0..4 {
                match world.agree(1) {
                    Ok(v) => {
                        agreed = Some(v);
                        break;
                    }
                    Err(MpiError::ProcessFailed { .. }) => {
                        world.ack_failed();
                    }
                    Err(e) => panic!("agree failed unrecoverably: {e}"),
                }
            }
            assert_eq!(agreed, Some(1));
            let shrunk = world.shrink().unwrap();
            assert_eq!(shrunk.size(), 3);
            assert_eq!(shrunk.rank(), proc.rank());
            assert!(!shrunk.is_revoked());
            let sum = shrunk.allreduce(&[proc.rank() as u64], &Op::Sum).unwrap();
            Some(sum[0])
        },
    );
    // Checksum: every survivor agreed on the sum of survivor ranks.
    let survivors: Vec<u64> = sums.into_iter().flatten().collect();
    assert_eq!(survivors, vec![3, 3, 3]);
}

#[test]
fn shrink_of_a_healthy_comm_is_a_working_full_copy() {
    Universe::run_default(4, |proc| {
        let world = proc.world();
        let shrunk = world.shrink().unwrap();
        assert_eq!(shrunk.size(), 4);
        assert_eq!(shrunk.rank(), proc.rank());
        // Fresh context: traffic on the shrunken comm cannot cross-match
        // the parent's.
        let sum = shrunk.allreduce(&[1u64], &Op::Sum).unwrap();
        assert_eq!(sum[0], 4);
        let sum = world.allreduce(&[2u64], &Op::Sum).unwrap();
        assert_eq!(sum[0], 8);
    });
}

/// Rank 1 sends one message, and that packet trips its kill switch. Rank
/// 0 takes it with `take`, then asks `again` for another one from rank 1:
/// the wait must end with the death.
fn killed_source_fails(
    take: impl Fn(&litempi_core::Communicator) -> Result<(), MpiError> + Send + Sync,
    again: impl Fn(&litempi_core::Communicator) -> Result<(), MpiError> + Send + Sync,
) {
    let profile = ProviderProfile::infinite().with_faults(FaultPlan::none().with_kill(1, 1));
    let out = Universe::run(
        2,
        BuildConfig::ch4_default(),
        profile,
        Topology::single_node(2),
        |proc| {
            let world = proc.world();
            world.set_errhandler(Errhandler::ErrorsReturn);
            if proc.rank() == 1 {
                return world.send(&[7u8], 0, 3);
            }
            take(&world)?;
            again(&world)
        },
    );
    assert!(out[1].is_ok());
    assert!(
        matches!(out[0], Err(MpiError::PeerUnreachable { peer: 1 })),
        "{:?}",
        out[0]
    );
}

#[test]
fn killed_peer_fails_a_probe_instead_of_hanging() {
    killed_source_fails(
        |world| {
            assert_eq!(world.probe(1, 3)?.bytes, 1);
            world.recv_into(&mut [0u8], 1, 3).map(drop)
        },
        |world| world.probe(1, 3).map(drop),
    );
}

#[test]
fn killed_peer_fails_an_mprobe_instead_of_hanging() {
    killed_source_fails(
        |world| world.mprobe(1, 3)?.mrecv(&mut [0u8]).map(drop),
        |world| world.mprobe(1, 3).map(drop),
    );
}
