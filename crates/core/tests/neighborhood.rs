//! Neighbourhood collectives as collectives: their traffic stays off the
//! user channel, a user argument is never a panic, and the slot order of
//! the standard holds when both neighbours along a dimension are one rank
//! — on both providers.
//! Each of (a)–(c) fails at `7a37baa`, where the pair was a row of
//! `MPI_Sendrecv`s with tags 400 + d and 600 + d on the user channel.

use litempi_core::{BuildConfig, CartComm, MpiError, Process, Universe, ANY_SOURCE, ANY_TAG};
use litempi_fabric::{ProviderProfile, Topology};

/// On the fabric's native matching and on the CH4 core's AM-fallback
/// engine, where a collective-channel receive is least exercised.
fn on_both_providers(n: usize, f: impl Fn(Process) + Send + Sync + Copy) {
    for profile in [ProviderProfile::infinite(), ProviderProfile::am_only()] {
        let (config, topo) = (BuildConfig::ch4_default(), Topology::single_node(n));
        Universe::run(n, config, profile, topo, f);
    }
}

/// (a) A wildcard receive posted on the Cartesian communicator before the
/// collective matches the user message sent after it, not a neighbour's
/// block (at the parent it takes the block and the collective parks).
#[test]
fn a_wildcard_receive_does_not_capture_collective_traffic() {
    let n = 4;
    on_both_providers(n, move |proc| {
        let world = proc.world();
        let ring = CartComm::create(&world, &[n], &[true]).unwrap().unwrap();
        let me = ring.rank();
        let (left, right) = ((me + n - 1) % n, (me + 1) % n);
        let mut inbox = [0u64; 1];
        let wildcard = ring.comm().irecv(&mut inbox, ANY_SOURCE, ANY_TAG).unwrap();
        let (blocks, present) = ring.neighbor_allgather(&[me as u64]).unwrap();
        assert_eq!(blocks, [left as u64, right as u64], "rank {me}");
        assert_eq!(present, [true, true]);
        ring.comm()
            .send(&[1000 + me as u64], right as i32, 400)
            .unwrap();
        let status = wildcard.wait().unwrap();
        assert_eq!((status.source, status.tag), (left as i32, 400));
        assert_eq!(inbox, [1000 + left as u64]);
    });
}

/// (b) Count 0 is legal: empty data, the `present` flags still right.
#[test]
fn count_zero_returns_empty_blocks() {
    on_both_providers(3, |proc| {
        let world = proc.world();
        let line = CartComm::create(&world, &[3], &[false]).unwrap().unwrap();
        let present = [line.rank() > 0, line.rank() < 2];
        let (data, got) = line.neighbor_allgather::<f64>(&[]).unwrap();
        assert_eq!((data, &got[..]), (vec![], &present[..]));
        let (data, got) = line.neighbor_alltoall::<f64>(&[], 0).unwrap();
        assert_eq!((data, &got[..]), (vec![], &present[..]));
    });
}

/// (c) A send buffer that is not one block per neighbour is
/// `MPI_ERR_BUFFER` on every rank, before any traffic.
#[test]
fn missized_alltoall_buffer_is_an_error() {
    on_both_providers(4, |proc| {
        let world = proc.world();
        let grid = CartComm::create(&world, &[2, 2], &[true, true])
            .unwrap()
            .unwrap();
        let e = grid.neighbor_alltoall(&[1u32, 2, 3], 1).unwrap_err();
        assert!(matches!(
            e,
            MpiError::BufferTooSmall {
                needed: 16,
                provided: 12
            }
        ));
        // Nothing was sent: the communicator is still in step.
        let (data, _) = grid.neighbor_alltoall(&[7u32; 4], 1).unwrap();
        assert_eq!(data, [7; 4]);
    });
}

/// (d) Along a periodic dimension of extent 2 both neighbours are the
/// same rank, along one of extent 1 they are this rank: the block from the
/// negative side still comes before the block from the positive side, and
/// what arrives from a side is what that neighbour sent *towards* this one.
#[test]
fn slot_order_holds_when_both_neighbours_are_one_rank() {
    on_both_providers(2, |proc| {
        let world = proc.world();
        // Dimension 0 has extent 2 (the other rank twice), dimension 1
        // extent 1 (myself twice).
        let grid = CartComm::create(&world, &[2, 1], &[true, true])
            .unwrap()
            .unwrap();
        let (me, peer) = (grid.rank() as u32, 1 - grid.rank() as u32);
        assert_eq!(
            grid.neighbors(),
            vec![(peer as i32, peer as i32), (me as i32, me as i32)]
        );
        let (data, present) = grid.neighbor_allgather(&[me]).unwrap();
        assert_eq!((data, present), (vec![peer, peer, me, me], vec![true; 4]));
        // Slot i of rank r's buffer: 10·r + i — towards −0, +0, −1, +1.
        let send: Vec<u32> = (0..4).map(|i| 10 * me + i).collect();
        let (data, present) = grid.neighbor_alltoall(&send, 1).unwrap();
        // From the negative side comes what that neighbour sent in the
        // positive direction (its slot 2d + 1), and the other way round.
        let want = vec![10 * peer + 1, 10 * peer, 10 * me + 3, 10 * me + 2];
        assert_eq!((data, present), (want, vec![true; 4]));
    });
}
