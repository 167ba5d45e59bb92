//! Stress tests: deep unexpected queues, many outstanding requests,
//! interleaved communicators, and messages from different sources
//! overtaking each other — the matching engine and progress machinery
//! under load.

use litempi_core::{waitall, BuildConfig, Op, Universe};
use litempi_fabric::{FaultPlan, FaultSpec, ProviderProfile, Topology};

/// 512 messages with adversarial posting order: receiver posts in reverse
/// tag order, so early messages sit deep in the unexpected queue.
#[test]
fn deep_unexpected_queue_reverse_posting() {
    let n_msgs = 512;
    Universe::run_default(2, move |proc| {
        let world = proc.world();
        if proc.rank() == 0 {
            for tag in 0..n_msgs {
                world.isend(&[tag as u64], 1, tag).unwrap().wait().unwrap();
            }
        } else {
            // Wait until everything is queued, then drain backwards.
            while world.iprobe(0, n_msgs - 1).unwrap().is_none() {
                std::thread::yield_now();
            }
            for tag in (0..n_msgs).rev() {
                let mut buf = [0u64; 1];
                let st = world.recv_into(&mut buf, 0, tag).unwrap();
                assert_eq!(buf[0], tag as u64);
                assert_eq!(st.tag, tag);
            }
        }
    });
}

/// Hundreds of outstanding irecvs completed by waitall in posted order.
#[test]
fn many_outstanding_requests() {
    let n = 256usize;
    Universe::run_default(2, move |proc| {
        let world = proc.world();
        if proc.rank() == 1 {
            let mut bufs: Vec<[u64; 1]> = vec![[0]; n];
            let reqs: Vec<_> = bufs
                .iter_mut()
                .enumerate()
                .map(|(i, b)| world.irecv(b, 0, i as i32).unwrap())
                .collect();
            world.barrier().unwrap(); // go
            let statuses = waitall(reqs).unwrap();
            assert_eq!(statuses.len(), n);
            for (i, b) in bufs.iter().enumerate() {
                assert_eq!(b[0], (i * 3) as u64);
            }
        } else {
            world.barrier().unwrap();
            // Send in a scrambled order: matching is by tag, not arrival.
            let mut order: Vec<usize> = (0..n).collect();
            let mut x = 0x12345u64;
            for i in (1..n).rev() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                order.swap(i, (x as usize) % (i + 1));
            }
            for i in order {
                world
                    .isend(&[(i * 3) as u64], 1, i as i32)
                    .unwrap()
                    .wait()
                    .unwrap();
            }
        }
    });
}

/// Four communicators used round-robin from four ranks, on reliable links
/// whose reorder stash lets sources overtake each other, checked against
/// per-communicator sums.
#[test]
fn interleaved_communicators_under_reorder() {
    let rounds = 40u64;
    let out = Universe::run(
        4,
        BuildConfig::ch4_default(),
        ProviderProfile::infinite()
            .with_faults(FaultPlan::uniform(0xDECAF, FaultSpec::percent(0, 0, 30, 0)))
            .reliable(),
        Topology::single_node(4),
        move |proc| {
            let world = proc.world();
            let comms = [world.dup(), world.dup(), world.dup(), world.dup()];
            let mut totals = [0u64; 4];
            for round in 0..rounds {
                let c = &comms[(round % 4) as usize];
                // All-to-one on rotating roots, one comm at a time.
                let root = (round % 4) as usize;
                let contribution = [round + proc.rank() as u64];
                if let Some(sum) = c.reduce(&contribution, &Op::Sum, root).unwrap() {
                    totals[round as usize % 4] += sum[0];
                }
            }
            totals
        },
    );
    // Every round's reduction landed at exactly one root with the right sum.
    let mut grand = 0u64;
    for t in &out {
        grand += t.iter().sum::<u64>();
    }
    let expect: u64 = (0..rounds).map(|r| 4 * r + 6).sum();
    assert_eq!(grand, expect);
}

/// Rendezvous storm: many large messages in flight at once.
#[test]
fn rendezvous_storm() {
    let n = 24usize;
    let len = 64 * 1024usize; // beyond the OFI eager limit
    Universe::run(
        2,
        BuildConfig::ch4_default(),
        ProviderProfile::ofi(),
        Topology::one_per_node(2),
        move |proc| {
            let world = proc.world();
            if proc.rank() == 0 {
                let payloads: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; len]).collect();
                let reqs: Vec<_> = payloads
                    .iter()
                    .enumerate()
                    .map(|(i, p)| world.isend(p, 1, i as i32).unwrap())
                    .collect();
                waitall(reqs).unwrap();
            } else {
                // Drain out of order.
                for i in (0..n).rev() {
                    let mut buf = vec![0u8; len];
                    let st = world.recv_into(&mut buf, 0, i as i32).unwrap();
                    assert_eq!(st.bytes, len);
                    assert!(buf.iter().all(|&b| b == i as u8));
                }
            }
        },
    );
}

/// Mixed pt2pt + collectives + RMA in every round, all providers.
#[test]
fn kitchen_sink_rounds() {
    for profile in [ProviderProfile::infinite(), ProviderProfile::am_only()] {
        Universe::run(
            4,
            BuildConfig::ch4_default(),
            profile,
            Topology::single_node(4),
            |proc| {
                let world = proc.world();
                let win = litempi_core::Window::create(&world, 32, 8).unwrap();
                win.fence().unwrap();
                for round in 0..10u64 {
                    // pt2pt ring.
                    let right = ((proc.rank() + 1) % 4) as i32;
                    let left = ((proc.rank() + 3) % 4) as i32;
                    let mut got = [0u64; 1];
                    world
                        .sendrecv(&[round], right, 1, &mut got, left, 1)
                        .unwrap();
                    assert_eq!(got[0], round);
                    // collective.
                    let s = world.allreduce(&[round], &Op::Sum).unwrap()[0];
                    assert_eq!(s, 4 * round);
                    // one-sided accumulate into rank 0.
                    win.accumulate(&[1u64], 0, 0, &Op::Sum).unwrap();
                    win.fence().unwrap();
                }
                if proc.rank() == 0 {
                    let total = u64::from_le_bytes(win.read_local(0, 8).try_into().unwrap());
                    assert_eq!(total, 40);
                }
                world.barrier().unwrap();
            },
        );
    }
}
