//! Scalable one-sided communication, end to end: request-based RMA,
//! passive-target flush semantics under concurrency, RDMA-backed
//! rendezvous, and the fault/chaos regressions for all of the above.

use std::time::{Duration, Instant};

use litempi_core::{
    waitall, BuildConfig, Errhandler, LockType, MpiError, Op, Process, Universe, Window,
};
use litempi_fabric::{FaultPlan, FaultSpec, ProviderProfile, ReliabilityConfig, Topology};
use proptest::prelude::*;

fn run_all_stacks(f: impl Fn(litempi_core::Process) + Send + Sync + Copy) {
    // CH4 on a full-featured provider, CH4 forced through the AM fallback,
    // and the CH3-like baseline.
    for (config, profile) in [
        (BuildConfig::ch4_default(), ProviderProfile::infinite()),
        (BuildConfig::ch4_default(), ProviderProfile::am_only()),
        (BuildConfig::original(), ProviderProfile::infinite()),
    ] {
        Universe::run(2, config, profile, Topology::single_node(2), f);
    }
}

// ------------------------------------------------------ request-based RMA

#[test]
fn request_based_rma_roundtrip_all_stacks() {
    run_all_stacks(|proc| {
        let world = proc.world();
        let win = Window::create(&world, 32, 1).unwrap();
        win.fence().unwrap();
        if proc.rank() == 0 {
            // Issue a put and an accumulate as requests, complete both at
            // once, then read the results back through request-based gets.
            let reqs = vec![
                win.rput(&[0x11AAu64], 1, 0).unwrap(),
                win.raccumulate(&[5u64], 1, 8, &Op::Sum).unwrap(),
            ];
            waitall(reqs).unwrap();
            let mut got = [0u64; 1];
            win.rget(&mut got, 1, 0).unwrap().wait().unwrap();
            assert_eq!(got[0], 0x11AA);
            let mut old = [0u64; 1];
            win.rget_accumulate(&[1u64], &mut old, 1, 8, &Op::Sum)
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(old[0], 5, "rget_accumulate returns the pre-op value");
        }
        win.fence().unwrap();
        if proc.rank() == 1 {
            let v = u64::from_le_bytes(win.read_local(0, 8).try_into().unwrap());
            assert_eq!(v, 0x11AA);
            let acc = u64::from_le_bytes(win.read_local(8, 8).try_into().unwrap());
            assert_eq!(acc, 6, "accumulate(5) then rget_accumulate(+1)");
        }
        world.barrier().unwrap();
    });
}

#[test]
fn request_based_rma_test_polls_to_completion() {
    run_all_stacks(|proc| {
        let world = proc.world();
        let win = Window::create(&world, 8, 1).unwrap();
        win.fence().unwrap();
        if proc.rank() == 0 {
            let mut req = win.rput(&[0xBEEFu64], 1, 0).unwrap();
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                if req.test().unwrap().is_some() {
                    break;
                }
                assert!(Instant::now() < deadline, "rput never completed");
            }
        }
        win.fence().unwrap();
        if proc.rank() == 1 {
            let v = u64::from_le_bytes(win.read_local(0, 8).try_into().unwrap());
            assert_eq!(v, 0xBEEF);
        }
        world.barrier().unwrap();
    });
}

#[test]
fn request_based_rma_under_passive_lock() {
    run_all_stacks(|proc| {
        let world = proc.world();
        let win = Window::create(&world, 16, 1).unwrap();
        world.barrier().unwrap();
        if proc.rank() == 1 {
            win.lock(LockType::Exclusive, 0).unwrap();
            win.rput(&[77u64], 0, 0).unwrap().wait().unwrap();
            let mut check = [0u64; 1];
            win.rget(&mut check, 0, 0).unwrap().wait().unwrap();
            assert_eq!(check[0], 77);
            win.unlock(0).unwrap();
        }
        world.barrier().unwrap();
        if proc.rank() == 0 {
            let v = u64::from_le_bytes(win.read_local(0, 8).try_into().unwrap());
            assert_eq!(v, 77);
        }
        world.barrier().unwrap();
    });
}

// --------------------------------------------- passive-target flush rules

#[test]
fn passive_ops_are_complete_by_flush() {
    // What MPI-3.1 §11.5 guarantees — not when the library happens to
    // move the bytes: after `flush`, under the lock, a `get` sees the last
    // put and nothing is outstanding; after `unlock` and a barrier the
    // target's own loads see it.
    Universe::run_default(2, |proc| {
        let world = proc.world();
        let win = Window::create(&world, 8, 1).unwrap();
        world.barrier().unwrap();
        if proc.rank() == 0 {
            win.lock(LockType::Exclusive, 1).unwrap();
            win.put(&[1u64], 1, 0).unwrap();
            win.put(&[2u64], 1, 0).unwrap();
            win.put(&[3u64], 1, 0).unwrap();
            win.flush(1).unwrap();
            assert_eq!(win.pending_ops(1), 0, "flush leaves nothing outstanding");
            let mut v = [0u64; 1];
            win.get(&mut v, 1, 0).unwrap();
            assert_eq!(v[0], 3);
            win.unlock(1).unwrap();
        }
        world.barrier().unwrap();
        if proc.rank() == 1 {
            let v = u64::from_le_bytes(win.read_local(0, 8).try_into().unwrap());
            assert_eq!(v, 3);
        }
        world.barrier().unwrap();
    });
}

#[test]
fn window_op_counters_track_issue_completion_and_flush() {
    Universe::run_default(2, |proc| {
        let world = proc.world();
        let win = Window::create(&world, 8, 1).unwrap();
        world.barrier().unwrap();
        if proc.rank() == 0 {
            let before = proc.comm_stats();
            win.lock(LockType::Shared, 1).unwrap();
            win.put(&[9u64], 1, 0).unwrap();
            win.flush(1).unwrap();
            win.flush_local_all().unwrap();
            win.unlock(1).unwrap();
            let d = proc.comm_stats().diff(&before);
            assert!(d.win_ops_issued >= 1, "put issuance is counted");
            assert_eq!(
                d.win_ops_issued, d.win_ops_completed,
                "every issued op completed by unlock"
            );
            assert!(d.win_flushes >= 2, "flush and flush_local_all counted");
        }
        world.barrier().unwrap();
    });
}

// ------------------------------------------------- epoch/lock misuse rules

#[test]
fn lock_nesting_violations_are_sync_errors() {
    Universe::run_default(2, |proc| {
        let world = proc.world();
        let win = Window::create(&world, 8, 1).unwrap();
        world.barrier().unwrap();
        if proc.rank() == 0 {
            // lock() while holding a lock on the same target.
            win.lock(LockType::Shared, 1).unwrap();
            let e = win.lock(LockType::Exclusive, 1).unwrap_err();
            assert!(matches!(e, MpiError::RmaSync(_)));
            // lock_all() while holding a per-target lock.
            let e = win.lock_all().unwrap_err();
            assert!(matches!(e, MpiError::RmaSync(_)));
            win.unlock(1).unwrap();
            // lock() inside lock_all().
            win.lock_all().unwrap();
            let e = win.lock(LockType::Shared, 1).unwrap_err();
            assert!(matches!(e, MpiError::RmaSync(_)));
            let e = win.lock_all().unwrap_err();
            assert!(matches!(e, MpiError::RmaSync(_)));
            win.unlock_all().unwrap();
        }
        world.barrier().unwrap();
    });
}

#[test]
fn zero_count_accumulate_family_is_invalid_count() {
    Universe::run_default(2, |proc| {
        let world = proc.world();
        let win = Window::create(&world, 8, 8).unwrap();
        win.fence().unwrap();
        if proc.rank() == 0 {
            let empty: [u64; 0] = [];
            let e = win.accumulate(&empty, 1, 0, &Op::Sum).unwrap_err();
            assert!(matches!(e, MpiError::InvalidCount(0)));
            let e = win.get_accumulate(&empty, 1, 0, &Op::Sum).unwrap_err();
            assert!(matches!(e, MpiError::InvalidCount(_)));
            let e = win.raccumulate(&empty, 1, 0, &Op::Sum).unwrap_err();
            assert!(matches!(e, MpiError::InvalidCount(0)));
            // Mismatched result buffer on the request-based variant.
            let mut result = [0u64; 2];
            let e = win
                .rget_accumulate(&[1u64], &mut result, 1, 0, &Op::Sum)
                .unwrap_err();
            assert!(matches!(e, MpiError::InvalidCount(2)));
        }
        win.fence().unwrap();
    });
}

// ----------------------------------------------------- fault regressions

#[test]
fn rma_at_dead_peer_fails_with_process_failed() {
    // Rank 1's kill budget admits window creation, the fence, and its two
    // farewell sends; rank 0's detection loop then burns the remainder
    // (the first transmission of every data packet to or from the victim
    // counts) and trips the switch, after which every RMA path —
    // including lock acquisition and request-based ops — reports the
    // dead target instead of hanging.
    let profile = ProviderProfile::infinite()
        .with_faults(FaultPlan::none().with_kill(1, 64))
        .with_reliability(ReliabilityConfig::on().with_retries(3, 50));
    Universe::run(
        2,
        BuildConfig::ch4_default(),
        profile,
        Topology::single_node(2),
        |proc| {
            let world = proc.world();
            world.set_errhandler(Errhandler::ErrorsReturn);
            let win = Window::create(&world, 8, 1).unwrap();
            win.fence().unwrap();
            if proc.rank() == 1 {
                world.send(&[1u8], 0, 0).unwrap();
                world.send(&[1u8], 0, 0).unwrap();
                return;
            }
            let mut buf = [0u8; 1];
            world.recv_into(&mut buf, 1, 0).unwrap();
            let _ = world.recv_into(&mut buf, 1, 0);
            // Send toward the corpse until the fabric reports it
            // unreachable.
            let deadline = Instant::now() + Duration::from_secs(20);
            loop {
                match world.send(&[9u8], 1, 1) {
                    Err(MpiError::PeerUnreachable { .. }) | Err(MpiError::ProcessFailed { .. }) => {
                        break
                    }
                    _ => {}
                }
                assert!(Instant::now() < deadline, "peer death never detected");
            }
            let e = win.put(&[7u64], 1, 0).unwrap_err();
            assert!(matches!(e, MpiError::ProcessFailed { peer: 1 }));
            let e = win.rput(&[7u64], 1, 0).unwrap_err();
            assert!(matches!(e, MpiError::ProcessFailed { peer: 1 }));
            let e = win.lock(LockType::Exclusive, 1).unwrap_err();
            assert!(matches!(e, MpiError::ProcessFailed { peer: 1 }));
            let e = win.flush(1).unwrap_err();
            assert!(matches!(e, MpiError::ProcessFailed { peer: 1 }));
        },
    );
}

/// A window of eight bytes on `proc`'s world, inside a fence epoch, with
/// `MPI_ERRORS_RETURN`.
fn fenced_window(proc: &Process) -> Window {
    let world = proc.world();
    world.set_errhandler(Errhandler::ErrorsReturn);
    let win = Window::create(&world, 8, 1).unwrap();
    win.fence().unwrap();
    win
}

#[test]
fn an_am_target_that_dies_before_it_answers_fails_both_forms_alike() {
    // `am_only`: every fetching op of a fence epoch is an active message
    // the target answers. Rank 1's kill switch trips on the request itself
    // — a fault-free run first counts the packets that built the window
    // and opened the epoch (in a two-rank job, every packet touches rank
    // 1) — and rank 1 never progresses again. The blocking form and the
    // request form must both name the dead target, and neither may wait
    // for the answer.
    type Call = fn(&Window) -> Result<(), MpiError>;
    let calls: [(&str, Call); 4] = [
        ("get", |w| w.get(&mut [0u64], 1, 0)),
        ("rget", |w| w.rget(&mut [0u64], 1, 0)?.wait().map(drop)),
        ("get_accumulate", |w| {
            w.get_accumulate(&[1u64], 1, 0, &Op::Sum).map(drop)
        }),
        ("rget_accumulate", |w| {
            let mut old = [0u64];
            let req = w.rget_accumulate(&[1u64], &mut old, 1, 0, &Op::Sum)?;
            req.wait().map(drop)
        }),
    ];
    let topo = Topology::single_node(2);
    let ch4 = BuildConfig::ch4_default();
    let setup: u64 = Universe::run(2, ch4, ProviderProfile::am_only(), topo.clone(), |proc| {
        let _win = fenced_window(&proc);
        let sent = proc.comm_stats();
        sent.am_sent + sent.msgs_sent
    })
    .iter()
    .sum();
    for (name, call) in calls {
        let kill = FaultPlan::none().with_kill(1, setup + 1);
        let profile = ProviderProfile::am_only().with_faults(kill);
        let out = Universe::run(2, ch4, profile, topo.clone(), |proc| {
            let win = fenced_window(&proc);
            (proc.rank() == 0).then(|| call(&win))
        });
        let got = out.into_iter().next().flatten().expect("rank 0 called");
        assert!(
            matches!(got, Err(MpiError::ProcessFailed { peer: 1 })),
            "{name}: {got:?}"
        );
    }
}

#[test]
fn rma_on_revoked_communicator_fails_with_revoked() {
    Universe::run_default(2, |proc| {
        let world = proc.world();
        world.set_errhandler(Errhandler::ErrorsReturn);
        let win = Window::create(&world, 8, 1).unwrap();
        win.fence().unwrap();
        if proc.rank() == 0 {
            world.revoke();
        } else {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !world.is_revoked() {
                let _ = world.iprobe(litempi_core::ANY_SOURCE, 0x3FF);
                assert!(Instant::now() < deadline, "revoke flood never arrived");
                std::hint::spin_loop();
            }
        }
        let peer = (1 - proc.rank()) as i32;
        let e = win.put(&[1u64], peer, 0).unwrap_err();
        assert!(matches!(e, MpiError::Revoked));
        let e = win.rget(&mut [0u64; 1], peer, 0).unwrap_err();
        assert!(matches!(e, MpiError::Revoked));
        let e = win.lock(LockType::Shared, peer as usize).unwrap_err();
        assert!(matches!(e, MpiError::Revoked));
    });
}

// --------------------------------------------------------- chaos identity

/// Passive-target read-modify-write traffic plus a fence-epoch put; the
/// returned bytes are rank 0's final window contents.
fn passive_target_workload(profile: ProviderProfile) -> Vec<u8> {
    let out = Universe::run(
        3,
        BuildConfig::ch4_default(),
        profile,
        Topology::single_node(3),
        |proc| {
            let world = proc.world();
            let win = Window::create(&world, 24, 1).unwrap();
            world.barrier().unwrap();
            if proc.rank() != 0 {
                win.lock(LockType::Exclusive, 0).unwrap();
                let mut cur = [0u64; 1];
                win.get(&mut cur, 0, 0).unwrap();
                win.put(&[cur[0] + proc.rank() as u64], 0, 0).unwrap();
                win.flush(0).unwrap();
                win.accumulate(&[proc.rank() as u64], 0, 8, &Op::Sum)
                    .unwrap();
                win.unlock(0).unwrap();
            }
            world.barrier().unwrap();
            // Fence-epoch traffic on top (AM or native, per provider).
            win.fence().unwrap();
            if proc.rank() == 1 {
                win.put(&[0x5Eu64], 0, 16).unwrap();
            }
            win.fence().unwrap();
            if proc.rank() == 0 {
                Some(win.read_local(0, 24))
            } else {
                None
            }
        },
    );
    out.into_iter().flatten().next().expect("rank 0 contents")
}

#[test]
fn passive_target_chaos_is_byte_identical() {
    // Fault-free references per provider (the AM fallback and the native
    // path produce the same window contents by construction).
    let clean_ofi = passive_target_workload(ProviderProfile::ofi());
    let clean_am = passive_target_workload(ProviderProfile::am_only());
    assert_eq!(clean_ofi, clean_am);
    for seed in [0xC0FFEE_u64, 0x5EED] {
        let plan = FaultPlan::uniform(seed, FaultSpec::percent(20, 10, 30, 0));
        assert_eq!(
            passive_target_workload(ProviderProfile::ofi().with_faults(plan).reliable()),
            clean_ofi,
            "seed {seed:#x}: chaos must not change window contents (ofi)"
        );
        assert_eq!(
            passive_target_workload(ProviderProfile::am_only().with_faults(plan).reliable()),
            clean_am,
            "seed {seed:#x}: chaos must not change window contents (am)"
        );
    }
}

// ------------------------------------------------------- RDMA rendezvous

const LARGE: usize = 50_000; // > ofi max_eager: forces rendezvous

/// `ofi`'s (and `am_only`'s) eager ceiling, and message sizes on both
/// sides of it.
const MAX_EAGER: usize = 16 * 1024;
const SIZES: [usize; 4] = [MAX_EAGER - 1, MAX_EAGER, MAX_EAGER + 1, 256 * 1024];

/// Ship every size once by `send` and once by a persistent `start`, then a
/// synchronous 8-byte message (rendezvous whatever its size), and return
/// what rank 1 received.
fn large_roundtrip(config: BuildConfig, profile: ProviderProfile) -> Vec<Vec<u8>> {
    let pattern = |len: usize, salt: u8| -> Vec<u8> {
        (0..len)
            .map(|i| (i % 251) as u8 ^ salt)
            .collect::<Vec<u8>>()
    };
    let out = Universe::run(2, config, profile, Topology::single_node(2), |proc| {
        let world = proc.world();
        let mut got = Vec::new();
        for (k, len) in SIZES.into_iter().enumerate() {
            let tag = 10 * k as i32;
            if proc.rank() == 0 {
                world.send(&pattern(len, 0xA1), 1, tag).unwrap();
                // Wait for the ack, so that the next large message finds the
                // registration this one used back in the cache.
                world.recv_into(&mut [0u8], 1, tag + 1).unwrap();
                let data = pattern(len, 0xB2);
                let mut send = world.send_init(&data, 1, tag + 2).unwrap();
                send.start().unwrap();
                send.wait().unwrap();
            } else {
                for (tag, persistent) in [(tag, false), (tag + 2, true)] {
                    let mut buf = vec![0u8; len];
                    if persistent {
                        let mut recv = world.recv_init(&mut buf, 0, tag).unwrap();
                        recv.start().unwrap();
                        assert_eq!(recv.wait().unwrap().bytes, len);
                    } else {
                        world.recv_into(&mut buf, 0, tag).unwrap();
                        world.send(&[1u8], 0, tag + 1).unwrap();
                    }
                    got.push(buf);
                }
            }
        }
        if proc.rank() == 0 {
            world.ssend(&[0xC3u8; 8], 1, 99).unwrap();
        } else {
            let mut buf = vec![0u8; 8];
            world.recv_into(&mut buf, 0, 99).unwrap();
            got.push(buf);
        }
        got
    });
    let got = out.into_iter().nth(1).expect("rank 1 payloads");
    for (k, len) in SIZES.into_iter().enumerate() {
        assert_eq!(got[2 * k], pattern(len, 0xA1), "send of {len} bytes");
        assert_eq!(got[2 * k + 1], pattern(len, 0xB2), "start of {len} bytes");
    }
    assert_eq!(got[2 * SIZES.len()], [0xC3u8; 8]);
    got
}

#[test]
fn rma_rendezvous_is_byte_identical_to_pull_rendezvous() {
    let ch4 = BuildConfig::ch4_default();
    let rdma = large_roundtrip(ch4, ProviderProfile::ofi());
    // No native RDMA: the pull protocol, matched by the core's own engine;
    // no eager ceiling: nothing but the `ssend` is a rendezvous; and the
    // CH3-like device over the RDMA rendezvous.
    for (config, profile) in [
        (ch4, ProviderProfile::am_only()),
        (ch4, ProviderProfile::infinite()),
        (BuildConfig::original(), ProviderProfile::ofi()),
    ] {
        assert!(
            large_roundtrip(config, profile) == rdma,
            "{:?}",
            profile.kind
        );
    }
}

#[test]
fn rma_rendezvous_reads_remote_and_reuses_registrations() {
    let stats = Universe::run(
        2,
        BuildConfig::ch4_default(),
        ProviderProfile::ofi(),
        Topology::single_node(2),
        |proc| {
            let world = proc.world();
            let large = vec![7u8; LARGE];
            // Each followed by a handshake, so that the registration is
            // back in the cache, and the statistics are read, after it.
            if proc.rank() == 0 {
                let mut ack = [0u8; 1];
                let mut persistent = world.send_init(&large, 1, 1).unwrap();
                for round in 0..2 {
                    world.send(&large, 1, 1).unwrap();
                    world.recv_into(&mut ack, 1, 2).unwrap();
                    persistent.start().unwrap();
                    persistent.wait().unwrap();
                    world.recv_into(&mut ack, 1, 2).unwrap();
                    world.ssend(&[round as u64], 1, 1).unwrap();
                    world.recv_into(&mut ack, 1, 2).unwrap();
                }
            } else {
                let mut buf = vec![0u8; LARGE];
                for round in 0..2 {
                    for _ in 0..2 {
                        world.recv_into(&mut buf, 0, 1).unwrap();
                        assert_eq!(buf, vec![7u8; LARGE]);
                        world.send(&[1u8], 0, 2).unwrap();
                    }
                    let mut word = [u64::MAX];
                    world.recv_into(&mut word, 0, 1).unwrap();
                    assert_eq!(word, [round]);
                    world.send(&[1u8], 0, 2).unwrap();
                }
            }
            proc.comm_stats()
        },
    );
    // The receiver fetched all six bodies — a `send`, a persistent `start`
    // and an 8-byte `ssend`, twice — with one-sided reads.
    assert_eq!(
        stats[1].rdma_gets, 6,
        "every rendezvous body must move via RDMA read"
    );
    // The sender registered once per size class, for the first large and
    // the first small body; the other four found the region their
    // predecessor's receiver had handed back.
    assert_eq!(
        (stats[0].reg_cache_misses, stats[0].reg_cache_hits),
        (2, 4),
        "a later rendezvous must reuse the cached registration"
    );
}

// ------------------------------------------- concurrent passive target

/// One locked read-modify-write of the counter at rank 1's word 0.
fn locked_increment(win: &Window) {
    let mut cur = [0u64; 1];
    win.get(&mut cur, 1, 0).unwrap();
    win.put(&[cur[0] + 1], 1, 0).unwrap();
}

/// The root cause of the intermittent hang of the proptest below: a thread
/// asking for a target its sibling holds through the same handle got
/// `RmaSync("lock already held")`, its `unwrap` killed rank 0, and rank 1
/// sat in the barrier forever. The sibling must wait, as any origin would.
#[test]
fn sibling_thread_waits_for_a_held_lock() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let out = Universe::run(
        2,
        BuildConfig::ch4_thread_multiple(),
        ProviderProfile::infinite(),
        Topology::single_node(2),
        |proc| {
            let world = proc.world();
            let win = Window::create(&world, 8, 1).unwrap();
            world.barrier().unwrap();
            if proc.rank() == 0 {
                let (held, is_held) = std::sync::mpsc::channel();
                let released = AtomicBool::new(false);
                let (win, released) = (&win, &released);
                std::thread::scope(|s| {
                    s.spawn(move || {
                        win.lock(LockType::Exclusive, 1).unwrap();
                        held.send(()).unwrap();
                        locked_increment(win);
                        std::thread::sleep(Duration::from_millis(5));
                        released.store(true, Ordering::SeqCst);
                        win.unlock(1).unwrap();
                    });
                    s.spawn(move || {
                        is_held.recv().unwrap();
                        win.lock(LockType::Exclusive, 1)
                            .expect("a sibling's lock is waited for, not an error");
                        assert!(
                            released.load(Ordering::SeqCst),
                            "got the lock while the sibling still held it"
                        );
                        locked_increment(win);
                        win.unlock(1).unwrap();
                    });
                });
            }
            world.barrier().unwrap();
            let v = u64::from_le_bytes(win.read_local(0, 8).try_into().unwrap());
            world.barrier().unwrap();
            v
        },
    );
    assert_eq!(out[1], 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Four injector threads on rank 0 hammer rank 1's window with
    /// lock/get/put/flush/unlock sequences chosen by proptest. Exclusive
    /// locks make the read-modify-write atomic, so the final counter must
    /// equal the total number of increments — under any thread
    /// interleaving.
    #[test]
    fn concurrent_lock_flush_unlock_linearizes(ops in proptest::collection::vec(0u8..3, 4..12)) {
        let per_thread = ops.len() as u64;
        let out = Universe::run(
            2,
            BuildConfig::ch4_thread_multiple(),
            ProviderProfile::infinite(),
            Topology::single_node(2),
            move |proc| {
                let world = proc.world();
                let win = Window::create(&world, 8, 1).unwrap();
                world.barrier().unwrap();
                if proc.rank() == 0 {
                    let winref = &win;
                    let ops = ops.clone();
                    std::thread::scope(|s| {
                        for _ in 0..4 {
                            let ops = ops.clone();
                            s.spawn(move || {
                                for step in &ops {
                                    winref.lock(LockType::Exclusive, 1).unwrap();
                                    locked_increment(winref);
                                    match step {
                                        0 => winref.flush(1).unwrap(),
                                        1 => winref.flush_local(1).unwrap(),
                                        _ => {}
                                    }
                                    winref.unlock(1).unwrap();
                                }
                            });
                        }
                    });
                }
                world.barrier().unwrap();
                let v = u64::from_le_bytes(win.read_local(0, 8).try_into().unwrap());
                world.barrier().unwrap();
                v
            },
        );
        prop_assert_eq!(out[1], 4 * per_thread);
    }
}
