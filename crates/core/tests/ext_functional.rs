//! Functional tests of the §3 extension APIs: the fast paths must move
//! data correctly, not just cheaply — including equivalence with the
//! classic APIs they replace.

use litempi_core::{
    BuildConfig, Communicator, Errhandler, MpiError, PredefHandle, Universe, PROC_NULL,
};
use litempi_fabric::{FaultPlan, ProviderProfile, Topology};

#[test]
fn isend_global_delivers_like_isend() {
    // Use a split communicator so world ranks differ from comm ranks —
    // the case where translation actually matters.
    Universe::run_default(4, |proc| {
        let world = proc.world();
        // Evens and odds.
        let sub = world
            .split((proc.rank() % 2) as i32, proc.rank() as i32)
            .unwrap()
            .unwrap();
        if sub.size() < 2 {
            return;
        }
        if sub.rank() == 0 {
            // Translate my peer's comm rank to a world rank once (§3.1).
            let peer_world = sub.world_rank_of(1) as i32;
            sub.isend_global(&[0xAAu8], peer_world, 7)
                .unwrap()
                .wait()
                .unwrap();
        } else if sub.rank() == 1 {
            let mut buf = [0u8; 1];
            let st = sub.recv_into(&mut buf, 0, 7).unwrap();
            assert_eq!(buf[0], 0xAA);
            assert_eq!(st.source, 0, "source reported in communicator ranks");
        }
    });
}

#[test]
fn irecv_global_translates_source() {
    Universe::run_default(4, |proc| {
        let world = proc.world();
        let sub = world
            .split((proc.rank() % 2) as i32, proc.rank() as i32)
            .unwrap()
            .unwrap();
        if sub.size() < 2 {
            return;
        }
        if sub.rank() == 1 {
            sub.send(&[5u32], 0, 3).unwrap();
        } else if sub.rank() == 0 {
            let src_world = sub.world_rank_of(1) as i32;
            let mut buf = [0u32; 1];
            sub.irecv_global(&mut buf, src_world, 3)
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(buf[0], 5);
        }
    });
}

#[test]
fn npn_rejects_proc_null_under_error_checking() {
    Universe::run_default(2, |proc| {
        let world = proc.world();
        let e = world.isend_npn(&[1u8], PROC_NULL, 0).unwrap_err();
        assert!(matches!(e, MpiError::ExtensionMisuse(_)));
    });
}

#[test]
fn noreq_sends_complete_via_comm_waitall() {
    // Large messages → rendezvous → real pending completions to wait on.
    Universe::run(
        2,
        BuildConfig::ch4_default(),
        ProviderProfile::ofi(), // 16 KiB eager limit
        Topology::one_per_node(2),
        |proc| {
            let world = proc.world();
            if proc.rank() == 0 {
                let big = vec![7u8; 64 * 1024];
                for tag in 0..4 {
                    // Requestless interface: no handle to track.
                    let _ = tag;
                    world.isend_noreq(&big, 1, tag).unwrap();
                }
                assert!(world.noreq_pending() > 0, "rendezvous sends still pending");
                // Receiver hasn't posted yet — waitall must block until
                // the data is pulled.
                world.comm_waitall().unwrap();
                assert_eq!(world.noreq_pending(), 0);
            } else {
                let mut buf = vec![0u8; 64 * 1024];
                for tag in 0..4 {
                    let st = world.recv_into(&mut buf, 0, tag).unwrap();
                    assert_eq!(st.bytes, 64 * 1024);
                    assert!(buf.iter().all(|&b| b == 7));
                }
            }
        },
    );
}

#[test]
fn comm_waitall_returns_the_death_of_a_receiver_instead_of_hanging() {
    // `ofi`: 64 KiB is above the eager ceiling, so the requestless send
    // waits for the receiver's pull. Its RTS is the first packet to touch
    // rank 1 and trips rank 1's kill switch; rank 1 never receives.
    let profile = ProviderProfile::ofi().with_faults(FaultPlan::none().with_kill(1, 1));
    let out = Universe::run(
        2,
        BuildConfig::ch4_default(),
        profile,
        Topology::single_node(2),
        |proc| {
            let world = proc.world();
            if proc.rank() == 1 {
                return None;
            }
            world.set_errhandler(Errhandler::ErrorsReturn);
            world.isend_noreq(&vec![7u8; 64 * 1024], 1, 0).unwrap();
            Some(world.comm_waitall())
        },
    );
    let got = out.into_iter().next().flatten().expect("rank 0 waited");
    assert!(
        matches!(&got, Err(e) if e.is_comm_failure()),
        "comm_waitall must report the dead receiver: {got:?}"
    );
}

#[test]
fn nomatch_messages_arrive_in_order() {
    Universe::run_default(2, |proc| {
        let world = proc.world();
        if proc.rank() == 0 {
            for i in 0..10u64 {
                world.isend_nomatch(&[i], 1).unwrap().wait().unwrap();
            }
        } else {
            for i in 0..10u64 {
                let mut buf = [0u64; 1];
                let st = world.recv_nomatch(&mut buf).unwrap();
                assert_eq!(buf[0], i, "arrival order preserved");
                assert_eq!(st.source, 0, "nomatch reports world rank");
            }
        }
    });
}

#[test]
fn nomatch_interleaves_sources_by_arrival() {
    // With two senders, the receiver drains 2N messages with no matching —
    // each sender's stream stays internally ordered.
    let n = 8u64;
    Universe::run_default(3, |proc| {
        let world = proc.world();
        if proc.rank() == 0 {
            let mut last_seen = [0u64, 0];
            for _ in 0..2 * n {
                let mut buf = [0u64; 1];
                let st = world.recv_nomatch(&mut buf).unwrap();
                let src = st.source as usize - 1;
                assert!(buf[0] >= last_seen[src], "per-source FIFO violated");
                last_seen[src] = buf[0];
            }
        } else {
            for i in 0..n {
                world.isend_nomatch(&[i], 0).unwrap().wait().unwrap();
            }
        }
    });
}

#[test]
fn nomatch_does_not_cross_communicators() {
    Universe::run_default(2, |proc| {
        let world = proc.world();
        let dup = world.dup();
        if proc.rank() == 0 {
            world.isend_nomatch(&[1u8], 1).unwrap().wait().unwrap();
            dup.isend_nomatch(&[2u8], 1).unwrap().wait().unwrap();
        } else {
            // Receive on dup first: must get the dup message (2), not the
            // world message — communicator isolation is retained (§3.6).
            let mut buf = [0u8; 1];
            dup.recv_nomatch(&mut buf).unwrap();
            assert_eq!(buf[0], 2);
            world.recv_nomatch(&mut buf).unwrap();
            assert_eq!(buf[0], 1);
        }
    });
}

#[test]
fn nomatch_does_not_steal_classic_messages() {
    Universe::run_default(2, |proc| {
        let world = proc.world();
        if proc.rank() == 0 {
            world.send(&[0x11u8], 1, 5).unwrap();
            world.isend_nomatch(&[0x22u8], 1).unwrap().wait().unwrap();
        } else {
            let mut buf = [0u8; 1];
            // Nomatch recv must skip the classic tagged message.
            world.recv_nomatch(&mut buf).unwrap();
            assert_eq!(buf[0], 0x22);
            world.recv_into(&mut buf, 0, 5).unwrap();
            assert_eq!(buf[0], 0x11);
        }
    });
}

#[test]
fn all_opts_end_to_end() {
    Universe::run_default(2, |proc| {
        let world = proc.world();
        if proc.rank() == 0 {
            for i in 0..5u32 {
                world.isend_all_opts(&[i * 3], 1).unwrap();
            }
            world.comm_waitall().unwrap();
        } else {
            for i in 0..5u32 {
                let mut buf = [0u32; 1];
                world.recv_nomatch(&mut buf).unwrap();
                assert_eq!(buf[0], i * 3);
            }
        }
    });
}

#[test]
fn predefined_comm_handles_behave_like_dups() {
    Universe::run_default(3, |proc| {
        let world = proc.world();
        world.dup_predefined(PredefHandle::Comm1).unwrap();
        world.dup_predefined(PredefHandle::Comm2).unwrap();
        let c1 = Communicator::predefined(&proc, PredefHandle::Comm1).unwrap();
        let c2 = Communicator::predefined(&proc, PredefHandle::Comm2).unwrap();
        assert_ne!(c1.context_id(), c2.context_id());
        assert_ne!(c1.context_id(), world.context_id());
        // Traffic on c1 and c2 is isolated.
        if proc.rank() == 0 {
            c1.send(&[1u8], 1, 0).unwrap();
            c2.send(&[2u8], 1, 0).unwrap();
        } else if proc.rank() == 1 {
            let mut buf = [0u8; 1];
            c2.recv_into(&mut buf, 0, 0).unwrap();
            assert_eq!(buf[0], 2);
            c1.recv_into(&mut buf, 0, 0).unwrap();
            assert_eq!(buf[0], 1);
        }
    });
}

#[test]
fn predefined_handle_double_populate_is_error() {
    Universe::run_default(1, |proc| {
        let world = proc.world();
        world.dup_predefined(PredefHandle::Comm3).unwrap();
        let e = world.dup_predefined(PredefHandle::Comm3).unwrap_err();
        assert!(matches!(e, MpiError::InvalidComm(_)));
    });
}

#[test]
fn unpopulated_predefined_handle_is_error() {
    Universe::run_default(1, |proc| {
        let e = Communicator::predefined(&proc, PredefHandle::Comm8).unwrap_err();
        assert!(matches!(e, MpiError::InvalidComm(_)));
    });
}

#[test]
fn extensions_work_on_am_only_provider() {
    // The fallback path must honor the extension semantics too.
    Universe::run(
        2,
        BuildConfig::ch4_default(),
        ProviderProfile::am_only(),
        Topology::single_node(2),
        |proc| {
            let world = proc.world();
            if proc.rank() == 0 {
                world.isend_all_opts(&[0xC0FFEEu64], 1).unwrap();
                world.comm_waitall().unwrap();
            } else {
                let mut buf = [0u64; 1];
                world.recv_nomatch(&mut buf).unwrap();
                assert_eq!(buf[0], 0xC0FFEE);
            }
        },
    );
}

#[test]
fn stencil_neighbor_pattern_with_global_ranks() {
    // The paper's §3.1 motivating pattern: store world ranks of Cartesian
    // neighbors, then communicate with the `_GLOBAL` routine.
    Universe::run_default(4, |proc| {
        let world = proc.world();
        let cart = litempi_core::CartComm::create(&world, &[2, 2], &[true, true])
            .unwrap()
            .unwrap();
        let neighbors = cart.neighbor_world_ranks();
        let me = cart.rank() as u64;
        // Send my rank to the +x neighbor; receive from the -x neighbor.
        let (src_world, dst_world) = neighbors[0];
        let comm = cart.comm();
        let req = comm.isend_global(&[me], dst_world, 0).unwrap();
        let src_comm_rank = comm.group().local_rank(src_world as usize).unwrap() as i32;
        let mut buf = [0u64; 1];
        comm.recv_into(&mut buf, src_comm_rank, 0).unwrap();
        req.wait().unwrap();
        // With periodic 2x2 grid, my -x neighbor's rank is deterministic.
        let coords = cart.coords_of(cart.rank());
        let expect = cart
            .rank_of(&[coords[0] as isize - 1, coords[1] as isize])
            .unwrap() as u64;
        assert_eq!(buf[0], expect);
    });
}
