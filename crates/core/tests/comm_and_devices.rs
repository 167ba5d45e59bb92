//! Communicator management and cross-device/provider equivalence: the same
//! program must produce identical results on the CH4 fast path, the CH4
//! active-message fallback, the CH3-like baseline, every build config, and
//! on reliable links whose reorder stash lets sources overtake each other.

use litempi_core::{BuildConfig, Op, Universe, UNDEFINED};
use litempi_fabric::{FaultPlan, FaultSpec, ProviderProfile, Topology};

// ------------------------------------------------------ comm management

#[test]
fn dup_creates_fresh_context_same_group() {
    Universe::run_default(3, |proc| {
        let world = proc.world();
        let dup = world.dup();
        assert_eq!(dup.size(), world.size());
        assert_eq!(dup.rank(), world.rank());
        assert_ne!(dup.context_id(), world.context_id());
    });
}

#[test]
fn nested_dups_are_all_distinct() {
    Universe::run_default(2, |proc| {
        let world = proc.world();
        let a = world.dup();
        let b = world.dup();
        let c = a.dup();
        let mut ids = [
            world.context_id().0,
            a.context_id().0,
            b.context_id().0,
            c.context_id().0,
        ];
        ids.sort_unstable();
        ids.windows(2).for_each(|w| assert_ne!(w[0], w[1]));
    });
}

#[test]
fn split_by_parity() {
    let out = Universe::run_default(6, |proc| {
        let world = proc.world();
        let sub = world
            .split((proc.rank() % 2) as i32, proc.rank() as i32)
            .unwrap()
            .unwrap();
        (sub.rank(), sub.size(), sub.world_rank_of(sub.rank()))
    });
    // Evens: world 0,2,4 → ranks 0,1,2. Odds: world 1,3,5 → ranks 0,1,2.
    assert_eq!(out[0], (0, 3, 0));
    assert_eq!(out[2], (1, 3, 2));
    assert_eq!(out[4], (2, 3, 4));
    assert_eq!(out[1], (0, 3, 1));
    assert_eq!(out[5], (2, 3, 5));
}

#[test]
fn split_key_reorders_ranks() {
    let out = Universe::run_default(4, |proc| {
        let world = proc.world();
        // Reverse order via descending keys.
        let sub = world.split(0, -(proc.rank() as i32)).unwrap().unwrap();
        sub.rank()
    });
    assert_eq!(out, vec![3, 2, 1, 0]);
}

#[test]
fn split_undefined_gets_none() {
    let out = Universe::run_default(4, |proc| {
        let world = proc.world();
        let color = if proc.rank() == 2 { UNDEFINED } else { 0 };
        world.split(color, 0).unwrap().is_none()
    });
    assert_eq!(out, vec![false, false, true, false]);
}

#[test]
fn split_subcommunicator_collectives_work() {
    let out = Universe::run_default(6, |proc| {
        let world = proc.world();
        let sub = world
            .split((proc.rank() / 3) as i32, proc.rank() as i32)
            .unwrap()
            .unwrap();
        sub.allreduce(&[proc.rank() as u64], &Op::Sum).unwrap()[0]
    });
    assert_eq!(out, vec![3, 3, 3, 12, 12, 12]);
}

#[test]
fn comm_create_from_subgroup() {
    let out = Universe::run_default(4, |proc| {
        let world = proc.world();
        let group = world.group().filter(|r| r != 1);
        match world.create(&group).unwrap() {
            Some(sub) => {
                let total = sub.allreduce(&[1u64], &Op::Sum).unwrap()[0];
                Some((sub.rank(), total))
            }
            None => None,
        }
    });
    assert_eq!(out[0], Some((0, 3)));
    assert_eq!(out[1], None);
    assert_eq!(out[2], Some((1, 3)));
    assert_eq!(out[3], Some((2, 3)));
}

#[test]
fn deep_communicator_hierarchy() {
    Universe::run_default(8, |proc| {
        let world = proc.world();
        let mut comm = world.dup();
        // Repeatedly halve: 8 → 4 → 2 → 1 ranks.
        while comm.size() > 1 {
            let half = (comm.rank() >= comm.size() / 2) as i32;
            let next = comm.split(half, comm.rank() as i32).unwrap().unwrap();
            // Sanity collective at every level.
            let n = next.allreduce(&[1u64], &Op::Sum).unwrap()[0];
            assert_eq!(n as usize, next.size());
            comm = next;
        }
    });
}

// -------------------------------------------------- device equivalence

/// A small mixed workload touching pt2pt, wildcards, collectives, and a
/// derived datatype; returns a per-rank digest.
fn workload(proc: litempi_core::Process) -> u64 {
    let world = proc.world();
    let rank = proc.rank();
    let size = proc.size();
    let mut digest: u64 = 0;

    // Ring sendrecv.
    let right = ((rank + 1) % size) as i32;
    let left = ((rank + size - 1) % size) as i32;
    let mut got = [0u64; 1];
    world
        .sendrecv(&[rank as u64], right, 1, &mut got, left, 1)
        .unwrap();
    digest = digest.wrapping_add(got[0]);

    // Wildcard gather at rank 0.
    if rank == 0 {
        for _ in 1..size {
            let mut buf = [0u64; 1];
            let st = world
                .recv_into(&mut buf, litempi_core::ANY_SOURCE, litempi_core::ANY_TAG)
                .unwrap();
            digest = digest.wrapping_add(buf[0] * st.source as u64);
        }
    } else {
        world.send(&[rank as u64 * 7], 0, rank as i32).unwrap();
    }

    // Collectives.
    let sum = world.allreduce(&[rank as u64 + 1], &Op::Sum).unwrap()[0];
    digest = digest.wrapping_add(sum);
    let all = world.allgather(&[rank as u64]).unwrap();
    digest = digest.wrapping_add(all.iter().sum::<u64>());

    // Derived datatype roundtrip between 0 and 1.
    if size >= 2 {
        let ty = litempi_datatype::Datatype::vector(2, 2, 3, &litempi_datatype::Datatype::BYTE)
            .unwrap()
            .commit();
        if rank == 0 {
            let src: Vec<u8> = (0..9).collect();
            world
                .isend_bytes(&src, &ty, 1, 1, 9)
                .unwrap()
                .wait()
                .unwrap();
        } else if rank == 1 {
            let mut dst = vec![0u8; 9];
            world
                .irecv_bytes(&mut dst, &ty, 1, 0, 9)
                .unwrap()
                .wait()
                .unwrap();
            digest = digest.wrapping_add(dst.iter().map(|&b| b as u64).sum::<u64>());
        }
    }
    world.barrier().unwrap();
    digest
}

#[test]
fn all_stacks_produce_identical_results() {
    let reference = Universe::run_default(4, workload);
    let stacks: Vec<(&str, BuildConfig, ProviderProfile, Topology)> = vec![
        (
            "ch4/ofi",
            BuildConfig::ch4_default(),
            ProviderProfile::ofi(),
            Topology::blocked(4, 2),
        ),
        (
            "ch4/ucx",
            BuildConfig::ch4_default(),
            ProviderProfile::ucx(),
            Topology::blocked(4, 2),
        ),
        (
            "ch4/am-only",
            BuildConfig::ch4_default(),
            ProviderProfile::am_only(),
            Topology::single_node(4),
        ),
        (
            "original",
            BuildConfig::original(),
            ProviderProfile::infinite(),
            Topology::single_node(4),
        ),
        (
            "ipo",
            BuildConfig::ch4_no_err_single_ipo(),
            ProviderProfile::infinite(),
            Topology::single_node(4),
        ),
        (
            "reorder",
            BuildConfig::ch4_default(),
            ProviderProfile::infinite()
                .with_faults(FaultPlan::uniform(0xBEEF, FaultSpec::percent(0, 0, 30, 0)))
                .reliable(),
            Topology::single_node(4),
        ),
    ];
    for (name, config, profile, topo) in stacks {
        let out = Universe::run(4, config, profile, topo, workload);
        assert_eq!(out, reference, "stack {name} diverged");
    }
}

#[test]
fn thread_multiple_build_works() {
    let config = BuildConfig {
        thread_level: litempi_core::ThreadLevel::Multiple,
        ..BuildConfig::ch4_default()
    };
    let out = Universe::run(
        4,
        config,
        ProviderProfile::infinite(),
        Topology::single_node(4),
        workload,
    );
    assert_eq!(out, Universe::run_default(4, workload));
}

#[test]
fn large_messages_cross_device() {
    for config in [BuildConfig::ch4_default(), BuildConfig::original()] {
        Universe::run(
            2,
            config,
            ProviderProfile::ofi(),
            Topology::one_per_node(2),
            |proc| {
                let world = proc.world();
                let n = 200_000usize;
                if proc.rank() == 0 {
                    let data: Vec<u64> = (0..n as u64).collect();
                    world.send(&data, 1, 0).unwrap();
                } else {
                    let mut buf = vec![0u64; n];
                    let st = world.recv_into(&mut buf, 0, 0).unwrap();
                    assert_eq!(st.bytes, n * 8);
                    assert!(buf.iter().enumerate().all(|(i, &v)| v == i as u64));
                }
            },
        );
    }
}

#[test]
fn ssend_blocks_until_matched() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    let flag = Arc::new(AtomicBool::new(false));
    let flag2 = flag.clone();
    Universe::run_default(2, move |proc| {
        let world = proc.world();
        if proc.rank() == 0 {
            world.ssend(&[1u8], 1, 0).unwrap();
            // At ssend completion the receiver must have matched.
            assert!(
                flag.load(Ordering::SeqCst),
                "ssend completed before the match"
            );
        } else {
            std::thread::sleep(std::time::Duration::from_millis(20));
            flag2.store(true, Ordering::SeqCst);
            let mut buf = [0u8; 1];
            world.recv_into(&mut buf, 0, 0).unwrap();
        }
    });
}

#[test]
fn request_test_and_cancel() {
    Universe::run_default(2, |proc| {
        let world = proc.world();
        if proc.rank() == 0 {
            let mut buf = [0u8; 1];
            let mut req = world.irecv(&mut buf, 1, 42).unwrap();
            assert!(req.test().unwrap().is_none());
            world.barrier().unwrap(); // let rank 1 send
            let mut st = None;
            while st.is_none() {
                st = req.test().unwrap();
            }
            assert_eq!(st.unwrap().tag, 42);
            // A second receive that never matches gets cancelled.
            let mut buf2 = [0u8; 1];
            let req2 = world.irecv(&mut buf2, 1, 43).unwrap();
            assert!(req2.cancel());
        } else {
            world.barrier().unwrap();
            world.send(&[9u8], 0, 42).unwrap();
        }
        world.barrier().unwrap();
    });
}

#[test]
fn bsend_requires_attached_buffer() {
    Universe::run_default(2, |proc| {
        let world = proc.world();
        if proc.rank() == 0 {
            // No buffer attached → error.
            let e = world.bsend(&[1u8], 1, 0).unwrap_err();
            assert!(matches!(e, litempi_core::MpiError::ExtensionMisuse(_)));
            // Too-small buffer → MPI_ERR_BUFFER.
            proc.buffer_attach(8).unwrap();
            let big = vec![0u8; 256];
            let e = world.bsend(&big, 1, 0).unwrap_err();
            assert!(matches!(e, litempi_core::MpiError::BufferTooSmall { .. }));
            assert_eq!(proc.buffer_detach().unwrap(), 8);
            // Adequate buffer → delivered.
            proc.buffer_attach(4096).unwrap();
            world.bsend(&[0xEEu8; 16], 1, 7).unwrap();
            proc.buffer_detach().unwrap();
            // Double attach / double detach are errors.
            proc.buffer_attach(64).unwrap();
            assert!(proc.buffer_attach(64).is_err());
            proc.buffer_detach().unwrap();
            assert!(proc.buffer_detach().is_err());
        } else {
            let mut buf = [0u8; 16];
            let st = world.recv_into(&mut buf, 0, 7).unwrap();
            assert_eq!(st.bytes, 16);
            assert!(buf.iter().all(|&b| b == 0xEE));
        }
        world.barrier().unwrap();
    });
}

#[test]
fn sendrecv_replace_swaps_in_place() {
    let out = Universe::run_default(2, |proc| {
        let world = proc.world();
        let peer = (1 - proc.rank()) as i32;
        let mut buf = [proc.rank() as u64 * 100 + 7];
        world.sendrecv_replace(&mut buf, peer, 0, peer, 0).unwrap();
        buf[0]
    });
    assert_eq!(out, vec![107, 7]);
}

#[test]
fn testall_and_testany() {
    Universe::run_default(2, |proc| {
        let world = proc.world();
        if proc.rank() == 0 {
            let mut b1 = [0u8; 1];
            let mut b2 = [0u8; 1];
            let r1 = world.irecv(&mut b1, 1, 1).unwrap();
            let r2 = world.irecv(&mut b2, 1, 2).unwrap();
            let mut reqs = vec![r1, r2];
            assert!(litempi_core::request::testall(&mut reqs).unwrap().is_none());
            world.barrier().unwrap(); // rank 1 sends tag 1 only
                                      // Spin until testany claims the tag-1 request.
            let (idx, st) = loop {
                if let Some(hit) = litempi_core::request::testany(&mut reqs).unwrap() {
                    break hit;
                }
                std::thread::yield_now();
            };
            assert_eq!(idx, 0);
            assert_eq!(st.tag, 1);
            world.barrier().unwrap(); // rank 1 sends tag 2
            let sts = loop {
                if let Some(s) = litempi_core::request::testall(&mut reqs).unwrap() {
                    break s;
                }
                std::thread::yield_now();
            };
            assert_eq!(sts.len(), 1);
            assert_eq!(sts[0].tag, 2);
        } else {
            world.barrier().unwrap();
            world.send(&[1u8], 0, 1).unwrap();
            world.barrier().unwrap();
            world.send(&[2u8], 0, 2).unwrap();
        }
    });
}

#[test]
fn waitsome_returns_ready_subset() {
    Universe::run_default(2, |proc| {
        let world = proc.world();
        if proc.rank() == 0 {
            let mut b1 = [0u8; 1];
            let mut b2 = [0u8; 1];
            let mut b3 = [0u8; 1];
            let r1 = world.irecv(&mut b1, 1, 1).unwrap();
            let r2 = world.irecv(&mut b2, 1, 2).unwrap();
            let r3 = world.irecv(&mut b3, 1, 3).unwrap();
            let mut reqs = vec![r1, r2, r3];
            world.barrier().unwrap(); // rank 1 sends tags 1 and 3
                                      // Eventually both tag-1 and tag-3 complete; collect until the
                                      // pending set shrinks to just tag 2.
            let mut got = Vec::new();
            while reqs.len() > 1 {
                got.extend(
                    litempi_core::request::waitsome(&mut reqs)
                        .unwrap()
                        .into_iter()
                        .map(|(_, s)| s.tag),
                );
            }
            got.sort_unstable();
            assert_eq!(got, vec![1, 3]);
            world.barrier().unwrap(); // rank 1 sends tag 2
            let rest = litempi_core::request::waitsome(&mut reqs).unwrap();
            assert_eq!(rest[0].1.tag, 2);
            assert!(reqs.is_empty());
        } else {
            world.barrier().unwrap();
            world.send(&[1u8], 0, 1).unwrap();
            world.send(&[3u8], 0, 3).unwrap();
            world.barrier().unwrap();
            world.send(&[2u8], 0, 2).unwrap();
        }
    });
}

#[test]
fn waitany_returns_first_completion() {
    Universe::run_default(2, |proc| {
        let world = proc.world();
        if proc.rank() == 0 {
            let mut b1 = [0u8; 1];
            let mut b2 = [0u8; 1];
            let r1 = world.irecv(&mut b1, 1, 1).unwrap();
            let r2 = world.irecv(&mut b2, 1, 2).unwrap();
            let (_, st, rest) = litempi_core::waitany(vec![r1, r2]).unwrap();
            assert_eq!(st.tag, 2, "tag-2 message was sent first");
            // Only now may rank 1 send the message `r1` waits for.
            world.send(&[0u8], 1, 9).unwrap();
            let sts = litempi_core::waitall(rest).unwrap();
            assert_eq!(sts[0].tag, 1);
        } else {
            world.send(&[2u8], 0, 2).unwrap();
            world.recv_into(&mut [0u8], 0, 9).unwrap();
            world.send(&[1u8], 0, 1).unwrap();
        }
    });
}
