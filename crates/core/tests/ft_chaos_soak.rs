//! Bounded-time chaos soak for the ULFM recovery path: 8 ranks, a
//! seed-derived victim killed mid-collective, and every survivor required
//! to reach `shrink()` and a checksum-verified allreduce on the shrunken
//! communicator — across a fixed seed matrix, inside a wall-clock budget.
//!
//! CI runs the full matrix nightly and a fixed seed in the PR gate (the
//! whole matrix is cheap enough to keep in tier-1 too).

use std::time::{Duration, Instant};

use litempi_core::{BuildConfig, Errhandler, MpiError, Op, Universe};
use litempi_fabric::{FaultPlan, ProviderProfile, Topology};

const RANKS: usize = 8;

/// One soak iteration: derive the victim and its packet budget from the
/// seed, kill it mid-traffic, and require full recovery from every
/// survivor. Returns the shrunken-comm checksums (one per survivor).
fn soak(seed: u64) -> Vec<u64> {
    let victim = 1 + (seed % (RANKS as u64 - 1)) as usize;
    // The 8-rank dissemination barrier touches the victim 6 times
    // (3 sends + 3 receives); anything past that lands the death inside
    // the allreduce loop. The exact packet is seed-jittered so the matrix
    // covers different rounds and roles.
    let budget = 7 + seed % 11;
    let profile =
        ProviderProfile::infinite().with_faults(FaultPlan::none().with_kill(victim as u32, budget));
    let out = Universe::run(
        RANKS,
        BuildConfig::ch4_default(),
        profile,
        Topology::single_node(RANKS),
        move |proc| {
            let world = proc.world();
            world.set_errhandler(Errhandler::ErrorsReturn);
            // Warm-up plus a stream of collectives; the first error —
            // PeerUnreachable from the corpse or Revoked from a survivor
            // that saw it first — is the recovery trigger.
            let mut failed = false;
            if world.barrier().is_err() {
                failed = true;
            }
            let mut iters = 0;
            while !failed && iters < 24 {
                iters += 1;
                if world
                    .allreduce(&[proc.rank() as u64 * iters], &Op::Sum)
                    .is_err()
                {
                    failed = true;
                }
            }
            assert!(failed, "seed {seed:#x}: the kill never surfaced");
            if proc.rank() == victim {
                // The harness fails a dead endpoint's own operations so
                // the rank can unwind; the victim takes no part in
                // recovery.
                return None;
            }
            // Canonical ULFM recovery: revoke (unhang everyone), ack,
            // agree until the failure set is acknowledged, shrink,
            // continue.
            world.revoke();
            world.ack_failed();
            let mut agreed = false;
            for _ in 0..8 {
                match world.agree(1) {
                    Ok(1) => {
                        agreed = true;
                        break;
                    }
                    Ok(v) => panic!("seed {seed:#x}: agree produced {v}"),
                    Err(MpiError::ProcessFailed { .. }) => {
                        world.ack_failed();
                    }
                    Err(e) => panic!("seed {seed:#x}: agree failed: {e}"),
                }
            }
            assert!(agreed, "seed {seed:#x}: agree never converged");
            let shrunk = world.shrink().unwrap();
            assert_eq!(shrunk.size(), RANKS - 1);
            assert!(!shrunk.is_revoked());
            // The shrunken communicator must be fully functional: three
            // checksum-verified rounds.
            let expect: u64 = (0..RANKS as u64).sum::<u64>() - victim as u64;
            for round in 1..=3u64 {
                let sum = shrunk
                    .allreduce(&[proc.rank() as u64 * round], &Op::Sum)
                    .unwrap();
                assert_eq!(sum[0], expect * round, "seed {seed:#x} round {round}");
            }
            Some(expect)
        },
    );
    out.into_iter().flatten().collect()
}

#[test]
fn chaos_soak_seed_matrix_recovers_within_budget() {
    let started = Instant::now();
    for seed in [0xC0FFEE_u64, 0x5EED, 0xDEAD] {
        let victim = 1 + (seed % (RANKS as u64 - 1)) as usize;
        let expect: u64 = (0..RANKS as u64).sum::<u64>() - victim as u64;
        let sums = soak(seed);
        // Every survivor recovered and agreed on the same checksum.
        assert_eq!(sums, vec![expect; RANKS - 1], "seed {seed:#x}");
    }
    // The satellite's bounded-time requirement: detection, revocation,
    // agreement, and shrink for the whole matrix must finish well inside
    // a minute even on a loaded CI box.
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(60),
        "chaos soak blew its wall-clock budget: {elapsed:?}"
    );
}
