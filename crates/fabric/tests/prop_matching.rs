//! Property tests on the fabric's native matching engine (the PSM2-style
//! facility the CH4 netmod relies on): per-pair FIFO, wildcard masks, and
//! posted-before/after symmetry under random interleavings.

use bytes::Bytes;
use litempi_fabric::endpoint::RecvHandle;
use litempi_fabric::matching::MatchEngine;
use litempi_fabric::packet::{PostedRecv, RecvSlot};
use litempi_fabric::{
    Endpoint, Fabric, FaultPlan, FaultSpec, MatcherKind, NetAddr, ProviderProfile, TaggedMessage,
    Topology,
};
use proptest::prelude::*;
use std::sync::Arc;

/// `n` endpoints; with a seed, on reliable links that hold 30 % of the
/// packets back in their sender's reorder stash until its next tick.
fn fabric(n: usize, reorder: Option<u64>) -> Arc<Fabric> {
    let mut profile = ProviderProfile::infinite();
    if let Some(seed) = reorder {
        let plan = FaultPlan::uniform(seed, FaultSpec::percent(0, 0, 30, 0));
        profile = profile.with_faults(plan).reliable();
    }
    Fabric::new(n, profile, Topology::single_node(n))
}

/// Wait for `h` on one thread, pumping the sender `tx` too: a packet in
/// its reorder stash goes out only on its own tick.
fn pumped_wait(tx: &Endpoint, rx: &Endpoint, h: RecvHandle) -> TaggedMessage {
    loop {
        if let Some(m) = h.poll() {
            return m;
        }
        tx.pump();
        rx.pump();
        std::thread::yield_now();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Messages with identical match bits are received in send order, no
    /// matter how receives interleave with sends (post-first vs arrive-
    /// first), with or without a reordering fabric.
    #[test]
    fn same_bits_fifo(
        n_msgs in 1usize..24,
        post_first in proptest::collection::vec(any::<bool>(), 24),
        reorder in proptest::option::of(any::<u64>()),
    ) {
        let f = fabric(2, reorder);
        let tx = f.endpoint(NetAddr(0));
        let rx = f.endpoint(NetAddr(1));
        let mut pending = std::collections::VecDeque::new();
        let mut received = Vec::new();
        for (i, &post) in post_first.iter().enumerate().take(n_msgs) {
            if post {
                // Post the receive before this message is sent.
                pending.push_back(rx.trecv_post(7, 0));
            }
            tx.tsend(NetAddr(1), 7, Bytes::copy_from_slice(&(i as u64).to_le_bytes()));
        }
        // Drain: posted handles first (they matched in post order), then
        // blocking receives for the remainder.
        while let Some(h) = pending.pop_front() {
            received.push(pumped_wait(&tx, &rx, h));
        }
        while received.len() < n_msgs {
            received.push(pumped_wait(&tx, &rx, rx.trecv_post(7, 0)));
        }
        // Two receive phases each preserve send order within themselves;
        // together they form a merge of two increasing subsequences of the
        // send order. The *set* must be exact and each phase monotone.
        let values: Vec<u64> = received
            .iter()
            .map(|m| u64::from_le_bytes(m.data[..].try_into().unwrap()))
            .collect();
        let mut sorted = values.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n_msgs as u64).collect::<Vec<_>>());
        let n_posted = post_first[..n_msgs].iter().filter(|&&b| b).count();
        prop_assert!(values[..n_posted].windows(2).all(|w| w[0] < w[1]));
        prop_assert!(values[n_posted..].windows(2).all(|w| w[0] < w[1]));
    }

    /// A wildcard receive (full ignore mask on the low bits) picks up the
    /// earliest-arrived matching message; exact receives never steal from
    /// other bit patterns.
    #[test]
    fn wildcard_vs_exact_isolation(
        tags in proptest::collection::vec(0u64..8, 1..16),
    ) {
        let f = fabric(2, None);
        let tx = f.endpoint(NetAddr(0));
        let rx = f.endpoint(NetAddr(1));
        let ctx = 0xAA00u64;
        for (i, &t) in tags.iter().enumerate() {
            tx.tsend(NetAddr(1), ctx | t, Bytes::copy_from_slice(&[i as u8]));
        }
        // Exact receive for the first occurrence of each distinct tag.
        let mut seen = std::collections::BTreeSet::new();
        for &t in &tags {
            if seen.insert(t) {
                let m = rx.trecv_blocking(ctx | t, 0);
                let idx = m.data[0] as usize;
                prop_assert_eq!(tags[idx], t, "exact receive got its own tag");
                let first = tags.iter().position(|&x| x == t).unwrap();
                prop_assert_eq!(idx, first, "earliest message of that tag");
            }
        }
        // Wildcard drains the rest in arrival order.
        let remaining = tags.len() - seen.len();
        let mut last_idx = None;
        for _ in 0..remaining {
            let m = rx.trecv_blocking(ctx, 0xFF);
            let idx = m.data[0] as usize;
            if let Some(prev) = last_idx {
                prop_assert!(idx > prev, "wildcard preserves arrival order");
            }
            last_idx = Some(idx);
        }
        prop_assert!(rx.tpeek(ctx, 0xFF).is_none(), "queue fully drained");
    }

    /// The bucketed engine is a drop-in replacement for the linear scan:
    /// any interleaving of exact and wildcard posts with deliveries produces
    /// the *identical* match assignment and the identical leftover
    /// unexpected queue. This is the MPI matching-order contract the
    /// bucket/seq arbitration must uphold bit-for-bit. (A reordering
    /// fabric only permutes the order of `deliver` calls, which the
    /// generated sequence already ranges over.)
    #[test]
    fn bucketed_matches_linear_exactly(
        ops in proptest::collection::vec((0u64..6, any::<bool>(), 0u8..3), 1..48),
    ) {
        const CTX: u64 = 0xC0FF_EE00;
        let value = |m: TaggedMessage| u64::from_le_bytes(m.data[..].try_into().unwrap());
        // Replay the same op sequence against each engine.
        let run = |kind: MatcherKind| {
            let mut engine = MatchEngine::new(kind);
            let mut slots = Vec::new();
            let mut seq = 0u64;
            for &(tag, is_send, recv_kind) in &ops {
                if is_send {
                    engine.deliver(TaggedMessage {
                        src: NetAddr(0),
                        match_bits: CTX | tag,
                        data: Bytes::copy_from_slice(&seq.to_le_bytes()),
                    });
                    seq += 1;
                } else {
                    let (match_bits, ignore) = match recv_kind {
                        0 => (CTX | tag, 0),          // exact
                        1 => (CTX, 0x7),              // tag-wildcard
                        _ => (0, u64::MAX),           // full wildcard
                    };
                    let slot = Arc::new(RecvSlot::default());
                    let probe = PostedRecv { match_bits, ignore, slot: slot.clone() };
                    if let Some(msg) = engine.post(probe) {
                        slot.fill(msg);
                    }
                    slots.push(slot);
                }
            }
            // Which message (by send seq) each posted receive got, and the
            // arrival order of the unmatched leftovers.
            let matched: Vec<Option<u64>> = slots.iter().map(|s| s.take().map(value)).collect();
            let mut leftover = Vec::new();
            while let Some(m) = engine.dequeue(0, u64::MAX) {
                leftover.push(value(m));
            }
            (matched, leftover)
        };
        prop_assert_eq!(run(MatcherKind::Bucketed), run(MatcherKind::Linear));
    }

    /// tdequeue (the mprobe substrate) removes exactly one message and
    /// leaves the rest receivable.
    #[test]
    fn dequeue_is_surgical(count in 2usize..12, pick in any::<prop::sample::Index>()) {
        let f = fabric(2, None);
        let tx = f.endpoint(NetAddr(0));
        let rx = f.endpoint(NetAddr(1));
        for i in 0..count {
            tx.tsend(NetAddr(1), 100 + i as u64, Bytes::new());
        }
        let target = 100 + pick.index(count) as u64;
        let m = rx.tdequeue(target, 0).unwrap();
        prop_assert_eq!(m.match_bits, target);
        prop_assert!(rx.tdequeue(target, 0).is_none(), "only one copy existed");
        // Everything else is intact, in arrival order via wildcard.
        let mut rest = Vec::new();
        for _ in 0..count - 1 {
            rest.push(rx.trecv_blocking(0, u64::MAX).match_bits);
        }
        let expect: Vec<u64> =
            (0..count as u64).map(|i| 100 + i).filter(|&b| b != target).collect();
        prop_assert_eq!(rest, expect);
    }
}
