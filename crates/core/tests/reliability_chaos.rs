//! End-to-end tests for the lossy-fabric fault injection + software
//! reliability layer, at the public MPI API level.
//!
//! Three properties are pinned here:
//!
//! 1. **Equivalence**: a profile carrying `FaultPlan::none()` (and the
//!    reliability layer off) is byte- and charge-identical to the pre-fault
//!    fabric — the fault hooks cost nothing when unused.
//! 2. **Chaos survival**: under seeded drop + duplicate + reorder faults,
//!    mixed eager / rendezvous / wildcard traffic and AM-emulated RMA
//!    complete with exactly the payloads a perfect fabric delivers.
//! 3. **Graceful degradation**: killing a peer mid-run surfaces
//!    `MpiError::PeerUnreachable` under `MPI_ERRORS_RETURN` within the
//!    retry budget (and aborts under the default `MPI_ERRORS_ARE_FATAL`)
//!    instead of hanging.
//!
//! A damaged envelope that reaches the decoders surfaces as
//! `MpiError::Integrity`, not a panic; `pt2pt`'s unit tests inject one
//! (on a fabric every fault rides the CRC-checked reliable link, so no
//! corruption reaches them from the wire).

use litempi_core::{waitall, BuildConfig, Errhandler, MpiError, Universe, Window, ANY_SOURCE};
use litempi_fabric::{FaultPlan, FaultSpec, ProviderProfile, ReliabilityConfig, Topology};

/// One rank's observation of the traffic replay: every byte it received
/// (sorted for wildcard-order independence) and the instruction charges of
/// its deterministic send-issuance region.
type RankTrace = (Vec<Vec<u8>>, litempi_instr::Report);

const LARGE: usize = 50_000; // > ofi max_eager: forces rendezvous

/// Replay a mixed workload — small eager sends, a large rendezvous send,
/// and a synchronous send received through a wildcard — under `profile`.
fn replay_mixed_traffic(profile: ProviderProfile) -> Vec<RankTrace> {
    Universe::run(
        3,
        BuildConfig::ch4_default(),
        profile,
        Topology::single_node(3),
        |proc| {
            let world = proc.world();
            let me = proc.rank() as u8;
            let mut received: Vec<Vec<u8>> = Vec::new();
            if proc.rank() == 0 {
                let issue = litempi_instr::probe().finish();
                for src in 1..3i32 {
                    let mut small = [0u8; 16];
                    world.recv_into(&mut small, src, 1).unwrap();
                    received.push(small.to_vec());
                    let mut large = vec![0u8; LARGE];
                    world.recv_into(&mut large, src, 2).unwrap();
                    received.push(large);
                }
                for _ in 0..2 {
                    let mut sync = [0u8; 8];
                    world.recv_into(&mut sync, ANY_SOURCE, 3).unwrap();
                    received.push(sync.to_vec());
                }
                received.sort();
                (received, issue)
            } else {
                let probe = litempi_instr::probe();
                let small = [me; 16];
                let large = vec![me ^ 0xA5; LARGE];
                let reqs = vec![
                    world.isend(&small, 0, 1).unwrap(),
                    world.isend(&large, 0, 2).unwrap(),
                ];
                let issue = probe.finish();
                waitall(reqs).unwrap();
                world.ssend(&[me; 8], 0, 3).unwrap();
                (received, issue)
            }
        },
    )
}

/// What a perfect fabric delivers to rank 0 in [`replay_mixed_traffic`].
fn expected_rank0_payloads() -> Vec<Vec<u8>> {
    let mut expect: Vec<Vec<u8>> = Vec::new();
    for me in [1u8, 2] {
        expect.push(vec![me; 16]);
        expect.push(vec![me ^ 0xA5; LARGE]);
        expect.push(vec![me; 8]);
    }
    expect.sort();
    expect
}

#[test]
fn fault_free_plan_is_byte_and_charge_identical() {
    let baseline = replay_mixed_traffic(ProviderProfile::ofi());
    let hooked = replay_mixed_traffic(ProviderProfile::ofi().with_faults(FaultPlan::none()));
    for (rank, (b, h)) in baseline.iter().zip(hooked.iter()).enumerate() {
        assert_eq!(b.0, h.0, "rank {rank}: received bytes must be identical");
        assert_eq!(
            b.1, h.1,
            "rank {rank}: instruction charges must be identical"
        );
    }
    assert_eq!(baseline[0].0, expected_rank0_payloads());
}

#[test]
fn chaos_traffic_delivers_identical_payloads() {
    // Two fixed seeds (the same ones CI pins) so failures reproduce.
    for seed in [0xC0FFEE_u64, 0x5EED] {
        let plan = FaultPlan::uniform(seed, FaultSpec::percent(20, 10, 30, 0));
        let chaotic = replay_mixed_traffic(ProviderProfile::ofi().with_faults(plan).reliable());
        assert_eq!(
            chaotic[0].0,
            expected_rank0_payloads(),
            "seed {seed:#x}: chaos must not change delivered bytes"
        );
    }
}

#[test]
fn chaos_rma_over_am_completes() {
    // The AM-only provider emulates RMA over active messages, so puts and
    // fence collectives all ride the lossy packet path.
    for seed in [0xC0FFEE_u64, 0x5EED] {
        let plan = FaultPlan::uniform(seed, FaultSpec::percent(20, 10, 30, 0));
        let out = Universe::run(
            2,
            BuildConfig::ch4_default(),
            ProviderProfile::am_only().with_faults(plan).reliable(),
            Topology::single_node(2),
            |proc| {
                let world = proc.world();
                let win = Window::create(&world, 8, 1).unwrap();
                win.fence().unwrap();
                if proc.rank() == 0 {
                    win.put(&[42u8; 8], 1, 0).unwrap();
                }
                win.fence().unwrap();
                let local = win.read_local(0, 8);
                win.fence().unwrap();
                local
            },
        );
        assert_eq!(out[1], vec![42u8; 8], "seed {seed:#x}");
    }
}

#[test]
fn killed_peer_returns_peer_unreachable_under_errors_return() {
    let profile = ProviderProfile::infinite()
        .with_faults(FaultPlan::none().with_kill(1, 6))
        .with_reliability(ReliabilityConfig::on().with_retries(3, 50));
    let out = Universe::run(
        2,
        BuildConfig::ch4_default(),
        profile,
        Topology::single_node(2),
        |proc| {
            let world = proc.world();
            if proc.rank() == 0 {
                world.set_errhandler(Errhandler::ErrorsReturn);
                assert_eq!(world.errhandler(), Errhandler::ErrorsReturn);
                // The first two messages beat the kill switch...
                world.send(&[1u8], 1, 0).unwrap();
                world.send(&[2u8], 1, 1).unwrap();
                // ...then the victim drops off the fabric. Within the retry
                // budget the send path reports it instead of hanging.
                for i in 0..10_000u32 {
                    match world.send(&[i as u8], 1, 2) {
                        Ok(()) => std::thread::yield_now(),
                        Err(MpiError::PeerUnreachable { peer }) => {
                            assert_eq!(peer, 1);
                            return true;
                        }
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
                false
            } else {
                let mut buf = [0u8; 1];
                world.recv_into(&mut buf, 0, 0).unwrap();
                world.recv_into(&mut buf, 0, 1).unwrap();
                // The victim stops participating here; its endpoint dies.
                true
            }
        },
    );
    assert_eq!(out, vec![true, true]);
}

#[test]
#[should_panic(expected = "MPI_ERRORS_ARE_FATAL")]
fn killed_peer_aborts_under_default_errhandler() {
    let profile = ProviderProfile::infinite()
        .with_faults(FaultPlan::none().with_kill(1, 4))
        .with_reliability(ReliabilityConfig::on().with_retries(2, 50));
    Universe::run(
        2,
        BuildConfig::ch4_default(),
        profile,
        Topology::single_node(2),
        |proc| {
            let world = proc.world();
            if proc.rank() == 0 {
                world.send(&[9u8], 1, 0).unwrap();
                // MPI_ERRORS_ARE_FATAL is the default: once the peer dies,
                // a send aborts the rank (and the whole in-process job).
                for _ in 0..10_000u32 {
                    let _ = world.send(&[0u8], 1, 1);
                    std::thread::yield_now();
                }
            } else {
                let mut buf = [0u8; 1];
                world.recv_into(&mut buf, 0, 0).unwrap();
            }
        },
    );
}

#[test]
fn errhandler_is_inherited_by_derived_communicators() {
    Universe::run_default(2, |proc| {
        let world = proc.world();
        assert_eq!(world.errhandler(), Errhandler::ErrorsAreFatal);
        world.set_errhandler(Errhandler::ErrorsReturn);
        let dup = world.dup();
        assert_eq!(dup.errhandler(), Errhandler::ErrorsReturn);
        let split = world.split(0, proc.rank() as i32).unwrap().unwrap();
        assert_eq!(split.errhandler(), Errhandler::ErrorsReturn);
        // Setting the child back does not touch the parent.
        split.set_errhandler(Errhandler::ErrorsAreFatal);
        assert_eq!(world.errhandler(), Errhandler::ErrorsReturn);
    });
}
