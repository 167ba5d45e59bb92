//! Multi-request combinator semantics: empty request lists complete
//! immediately (MPI's `incount = 0` case — previously a panic in
//! `waitsome`), and `testany`/`waitsome` report *original* indices (the
//! position each request held in the vector passed to that call) while
//! deflating completed entries out of the vector.

use litempi_core::{testall, testany, waitall, waitany, waitsome, MpiError, Request, Universe};

#[test]
fn empty_request_lists_complete_immediately() {
    // MPI_WAITSOME/MPI_WAITALL/MPI_TESTALL/MPI_TESTANY with incount = 0:
    // no-ops, not assertions. waitsome used to panic here.
    let mut none: Vec<Request<'static>> = Vec::new();
    assert!(waitsome(&mut none).unwrap().is_empty());
    assert!(waitall(Vec::new()).unwrap().is_empty());
    assert_eq!(testall(&mut []).unwrap(), Some(Vec::new()));
    assert!(testany(&mut none).unwrap().is_none());
}

/// `MPI_WAITANY` must name one completed request, which an empty list
/// cannot supply: `MPI_ERR_COUNT`, where it used to `assert!`-panic.
#[test]
fn waitany_on_an_empty_list_is_an_error() {
    let e = waitany(Vec::new()).unwrap_err();
    assert!(matches!(e, MpiError::InvalidCount(0)));
}

/// Three posted receives completed out of order by the peer, driven one
/// completion at a time via a go-message handshake: each combinator call
/// must report the index the request held in the vector *it was given*,
/// then deflate.
#[test]
fn mixed_completion_reports_deflated_original_indices() {
    Universe::run_default(2, |proc| {
        let world = proc.world();
        if proc.rank() == 0 {
            let mut b1 = [0u8; 1];
            let mut b2 = [0u8; 1];
            let mut b3 = [0u8; 1];
            let mut reqs = vec![
                world.irecv(&mut b1, 1, 10).unwrap(),
                world.irecv(&mut b2, 1, 20).unwrap(),
                world.irecv(&mut b3, 1, 30).unwrap(),
            ];

            // Nothing sent yet: testany finds nothing and removes nothing.
            assert!(testany(&mut reqs).unwrap().is_none());
            assert_eq!(reqs.len(), 3);

            // Peer sends tag 20 → original index 1 of [r10, r20, r30].
            world.send(&[0u8], 1, 99).unwrap();
            let done = waitsome(&mut reqs).unwrap();
            assert_eq!(done.len(), 1);
            assert_eq!(done[0].0, 1);
            assert_eq!(done[0].1.tag, 20);
            assert_eq!(reqs.len(), 2);

            // Peer sends tag 30 → the vector is now [r10, r30], so the
            // reported index is 1 again: positions are relative to the
            // deflated vector passed to *this* call.
            world.send(&[1u8], 1, 99).unwrap();
            let done = waitsome(&mut reqs).unwrap();
            assert_eq!(done.len(), 1);
            assert_eq!(done[0].0, 1);
            assert_eq!(done[0].1.tag, 30);
            assert_eq!(reqs.len(), 1);

            // Peer sends tag 10 → only [r10] remains; testany deflates it
            // at index 0 under the same index semantics as waitsome.
            world.send(&[2u8], 1, 99).unwrap();
            let got = loop {
                if let Some(found) = testany(&mut reqs).unwrap() {
                    break found;
                }
                std::thread::yield_now();
            };
            assert_eq!(got.0, 0);
            assert_eq!(got.1.tag, 10);
            assert!(reqs.is_empty());
        } else {
            let mut go = [0u8; 1];
            for tag in [20i32, 30, 10] {
                world.recv_into(&mut go, 0, 99).unwrap();
                world.send(&[tag as u8], 0, tag).unwrap();
            }
        }
    });
}

/// Two requests completing before one sweep: waitsome reports both with
/// their original positions in the same call.
#[test]
fn waitsome_reports_multiple_original_indices_in_one_call() {
    Universe::run_default(2, |proc| {
        let world = proc.world();
        if proc.rank() == 0 {
            let mut b1 = [0u8; 1];
            let mut b2 = [0u8; 1];
            let mut b3 = [0u8; 1];
            let mut reqs = vec![
                world.irecv(&mut b1, 1, 10).unwrap(),
                world.irecv(&mut b2, 1, 20).unwrap(),
                world.irecv(&mut b3, 1, 30).unwrap(),
            ];
            // Peer sends tags 10 and 30, then both ranks barrier. Per-link
            // FIFO delivery means the barrier completing on this rank
            // implies both payloads already matched their posted receives.
            world.barrier().unwrap();
            let mut done = waitsome(&mut reqs).unwrap();
            done.sort_by_key(|(i, _)| *i);
            let idx: Vec<usize> = done.iter().map(|(i, _)| *i).collect();
            let tags: Vec<i32> = done.iter().map(|(_, s)| s.tag).collect();
            assert_eq!(idx, vec![0, 2], "original positions, not compacted");
            assert_eq!(tags, vec![10, 30]);
            assert_eq!(reqs.len(), 1);

            // The survivor deflated to position 0.
            world.send(&[9u8], 1, 99).unwrap();
            let done = waitsome(&mut reqs).unwrap();
            assert_eq!(done.len(), 1);
            assert_eq!(done[0].0, 0);
            assert_eq!(done[0].1.tag, 20);
        } else {
            world.send(&[1u8], 0, 10).unwrap();
            world.send(&[3u8], 0, 30).unwrap();
            world.barrier().unwrap();
            let mut go = [0u8; 1];
            world.recv_into(&mut go, 0, 99).unwrap();
            world.send(&[2u8], 0, 20).unwrap();
        }
    });
}

/// A completion call drives progress before its first look even when
/// every request it is given has already completed, as `Request::wait`
/// does: a rank whose messages have always arrived by the time it waits
/// would otherwise never send the ACKs it owes, nor run its retransmit
/// timers (`p2p_lossy` read +26 % when `wait` polled first). Here the
/// receiver owes an ACK for three messages, fewer than a standalone ACK
/// waits for, and only its own progress pass sends it.
#[test]
fn waitall_over_completed_receives_sends_the_ack_they_owe() {
    use litempi_core::BuildConfig;
    use litempi_fabric::{ProviderProfile, ReliabilityConfig, Topology};
    // A timer that no preemption outlasts: a resend would raise the ACK
    // debt to a standalone ACK's threshold.
    let slow_timer = ReliabilityConfig::on()
        .with_retries(8, 10_000_000)
        .with_rto_bounds(10_000_000, 10_000_000);
    let profile = ProviderProfile::infinite().with_reliability(slow_timer);
    Universe::run(
        2,
        BuildConfig::ch4_default(),
        profile,
        Topology::single_node(2),
        |proc| {
            let world = proc.world();
            if proc.rank() == 0 {
                let mut token = [0u8; 1];
                world.recv_into(&mut token, 1, 0).unwrap();
                for tag in 1..=3 {
                    world.send(&[tag as u8], 1, tag).unwrap();
                }
                return;
            }
            let mut bufs = [[0u8; 1]; 3];
            let reqs: Vec<Request<'_>> = (bufs.iter_mut().zip(1..))
                .map(|(b, tag)| world.irecv(b, 0, tag).unwrap())
                .collect();
            world.send(&[0u8], 0, 0).unwrap();
            // Wait for the three deliveries without driving progress.
            while proc.comm_stats().msgs_received < 3 {
                if !litempi_fabric::task::pause(true) {
                    std::thread::yield_now();
                }
            }
            let acks = proc.comm_stats().acks_sent;
            let tags: Vec<i32> = waitall(reqs).unwrap().iter().map(|s| s.tag).collect();
            assert_eq!(tags, vec![1, 2, 3]);
            assert_eq!(
                proc.comm_stats().acks_sent,
                acks + 1,
                "waitall over completed receives sent no ACK"
            );
            assert_eq!(bufs, [[1], [2], [3]]);
        },
    );
}
