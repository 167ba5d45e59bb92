//! End-to-end tests for the pooled single-copy payload pipeline.
//!
//! Pinned here, at the public-API level:
//!
//! 1. **Steady state**: once the pool is warm, small eager traffic makes
//!    zero per-message heap allocations (the pooled fast path is
//!    allocation-free and copies user data exactly once), and neither do
//!    its receives, posted early or late, from one peer or from many, by a
//!    counting global allocator.
//! 2. **Recycling**: delivered payload buffers flow back into the pool,
//!    which tests observe as a high hit rate through `Process::pool_stats`.
//! 3. **Collectives too**: the collective channel — blocking and
//!    schedule-driven, eager and rendezvous, flat and hierarchical — holds
//!    properties 1 and 2, as does the inter-communicator's channel, and a
//!    payload staged once for several receivers stays byte-correct when
//!    one receiver's copy is corrupted in flight.
//! 4. **Large user sends too**: a warm rendezvous send — `isend` or a
//!    persistent `start`, contiguous or strided, over a registered region
//!    or a pooled staging buffer — allocates its completion flag and
//!    nothing else, and its receive nothing, by the same allocator.

use litempi_core::{BuildConfig, Op, Universe, ANY_SOURCE};
use litempi_datatype::{Datatype, MpiPrimitive};
use litempi_fabric::{FaultPlan, FaultSpec, ProviderProfile, Topology};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

#[global_allocator]
static GLOBAL: counting_alloc::Counting = counting_alloc::Counting;

#[test]
fn warm_pool_eager_sends_allocate_nothing() {
    let allocs = Universe::run_default(2, |proc| {
        let world = proc.world();
        let me = proc.rank();
        let mut buf = vec![0u8; 1024];
        let msg = vec![me as u8 + 1; 1024];
        // Ping-pong so each round's buffers are delivered (and released
        // back to the pool) before the next round takes them.
        let mut round = |probe_zone: bool| -> u64 {
            let probe = litempi_instr::probe();
            if me == 0 {
                world.send(&msg, 1, 7).unwrap();
                world.recv_into(&mut buf, 1, 7).unwrap();
            } else {
                world.recv_into(&mut buf, 0, 7).unwrap();
                world.send(&msg, 0, 7).unwrap();
            }
            if probe_zone {
                probe.allocs()
            } else {
                0
            }
        };
        // Warm-up: first rounds may miss the (cold) pool.
        for _ in 0..4 {
            round(false);
        }
        let mut total = 0;
        for _ in 0..32 {
            total += round(true);
        }
        total
    });
    assert_eq!(
        allocs,
        vec![0, 0],
        "steady-state eager traffic must make zero per-message allocations"
    );
}

#[test]
fn warm_eager_windows_make_no_heap_allocation() {
    // Windows of 64 `isend`s of 8 B against 64 `irecv`s, and a reply, on
    // the netmod's matching engine (`ofi`) and on the core's (`am_only`).
    // Each window's receives are posted before its messages leave (a token
    // says so: posted arrivals), or after its last message has arrived (a
    // probe says so: unexpected arrivals). A window fills the payload
    // pool's 64 buffers of its size class, so the token never travels
    // beside one. Under `am_only` a window first waits in rank 1's
    // active-message queue, which grows (allocates) whenever it reaches a
    // new depth, and how deep it gets depends on when rank 1 polls: in the
    // warm-up rank 1 holds back until the whole window is queued, so the
    // queue has held its deepest window before the counting starts.
    const W: usize = 64;
    const WARM_UP: usize = 4;
    const ROUNDS: usize = 16;
    const DATA: i32 = 1;
    const LAST: i32 = 2;
    const TOKEN: i32 = 3;
    let tag = |i: usize| if i + 1 == W { LAST } else { DATA };
    for profile in [ProviderProfile::ofi(), ProviderProfile::am_only()] {
        let name = profile.kind;
        let allocs = Universe::run(
            2,
            BuildConfig::ch4_default(),
            profile,
            Topology::one_per_node(2),
            |proc| {
                let world = proc.world();
                let me = proc.rank();
                let peer = 1 - me as i32;
                let mut inbox = [0u64; W];
                let mut token = [0u64];
                // Rank 0 takes each token once it has arrived, so its own
                // engine sees the same path every round.
                let token_in = |token: &mut [u64; 1]| {
                    world.probe(peer, TOKEN).unwrap();
                    world.recv_into(token, peer, TOKEN).unwrap();
                };
                // This rank's heap allocations over the warm windows, with
                // posted and with unexpected arrivals.
                let mut allocs = [0u64; 2];
                for round in 0..WARM_UP + ROUNDS {
                    let words: [u64; W] = std::array::from_fn(|i| (round * W + i) as u64);
                    for (kind, posted) in [(0, true), (1, false)] {
                        let before = counting_alloc::allocs();
                        if me == 0 {
                            if posted {
                                token_in(&mut token);
                            }
                            for (i, w) in words.iter().enumerate() {
                                let req = world.isend(std::slice::from_ref(w), peer, tag(i));
                                req.unwrap().wait().unwrap();
                            }
                            token_in(&mut token);
                        } else {
                            let hold_back = || {
                                if round < WARM_UP {
                                    std::thread::sleep(std::time::Duration::from_millis(10));
                                }
                            };
                            if !posted {
                                hold_back();
                                world.probe(peer, LAST).unwrap();
                            }
                            let mut slots = inbox.chunks_mut(1).enumerate();
                            let reqs: [_; W] = std::array::from_fn(|_| {
                                let (i, slot) = slots.next().expect("one slot per receive");
                                world.irecv(slot, peer, tag(i)).unwrap()
                            });
                            if posted {
                                world.send(&token, peer, TOKEN).unwrap();
                                hold_back();
                            }
                            for req in reqs {
                                req.wait().unwrap();
                            }
                            assert_eq!(inbox, words, "{name:?} round {round}");
                            world.send(&token, peer, TOKEN).unwrap();
                        }
                        if round >= WARM_UP {
                            allocs[kind] += counting_alloc::allocs() - before;
                        }
                    }
                }
                allocs
            },
        );
        assert_eq!(
            allocs,
            vec![[0, 0]; 2],
            "{name:?}: heap allocations of ranks 0 and 1 over {ROUNDS} warm windows, with \
             posted and with unexpected arrivals"
        );
    }
}

#[test]
fn warm_windows_from_many_peers_make_no_heap_allocation() {
    // Sixteen peers each send a window of 4 × 8 B to rank 0 and wait for
    // its answer. Rank 0 takes a window by source, posted before its
    // messages leave (a token says so: posted arrivals), or once every
    // peer's last message has arrived (probes say so: unexpected
    // arrivals), by source or by `ANY_SOURCE`. The source is in the match
    // bits, so rank 0's engine keeps a bucket per peer and tag, 32 live at
    // once. On the netmod's engine (`ofi`) only: under `am_only` every
    // message first waits in rank 0's active-message queue, whose depth
    // depends on when rank 0 polls, so its high-water mark (one growth of
    // that queue) can fall after any warm-up.
    const PEERS: usize = 16;
    const W: usize = 4;
    const N: usize = PEERS * W;
    const WARM_UP: usize = 4;
    const ROUNDS: usize = 16;
    const DATA: i32 = 1;
    const LAST: i32 = 2;
    const TOKEN: i32 = 3;
    let tag = |i: usize| if i + 1 == W { LAST } else { DATA };
    // Message `k` of a window: from peer `1 + k / W`, its `k % W`th.
    let from = |k: usize| (1 + k / W, k % W);
    let allocs = Universe::run(
        PEERS + 1,
        BuildConfig::ch4_default(),
        ProviderProfile::ofi(),
        Topology::one_per_node(PEERS + 1),
        |proc| {
            let world = proc.world();
            let me = proc.rank();
            let mut token = [0u64];
            // A peer takes each token once it has arrived, so its own
            // engine sees the same path every round.
            let token_in = |token: &mut [u64; 1]| {
                world.probe(0, TOKEN).unwrap();
                world.recv_into(token, 0, TOKEN).unwrap();
            };
            // This rank's heap allocations over the warm windows, with
            // posted arrivals, unexpected ones taken by source, and
            // unexpected ones taken by `ANY_SOURCE`.
            let mut allocs = [0u64; 3];
            for round in 0..WARM_UP + ROUNDS {
                let word = |(src, i): (usize, usize)| ((round * (PEERS + 1) + src) * W + i) as u64;
                let words: [u64; N] = std::array::from_fn(|k| word(from(k)));
                for (kind, posted, any) in [(0, true, false), (1, false, false), (2, false, true)] {
                    let before = counting_alloc::allocs();
                    if me != 0 {
                        if posted {
                            token_in(&mut token);
                        }
                        for i in 0..W {
                            let v = word((me, i));
                            let req = world.isend(std::slice::from_ref(&v), 0, tag(i));
                            req.unwrap().wait().unwrap();
                        }
                        token_in(&mut token);
                    } else {
                        let mut inbox = [0u64; N];
                        if !posted {
                            for p in 1..=PEERS as i32 {
                                world.probe(p, LAST).unwrap();
                            }
                        }
                        let mut slots = inbox.chunks_mut(1).enumerate();
                        let reqs: [_; N] = std::array::from_fn(|_| {
                            let (k, slot) = slots.next().expect("one slot per receive");
                            let (p, i) = from(k);
                            let src = if any { ANY_SOURCE } else { p as i32 };
                            world.irecv(slot, src, tag(i)).unwrap()
                        });
                        if posted {
                            for p in 1..=PEERS as i32 {
                                world.send(&token, p, TOKEN).unwrap();
                            }
                        }
                        for req in reqs {
                            req.wait().unwrap();
                        }
                        // `ANY_SOURCE` takes the messages in arrival order;
                        // the multiset is the same.
                        inbox.sort_unstable();
                        assert_eq!(inbox, words, "round {round}");
                        for p in 1..=PEERS as i32 {
                            world.send(&token, p, TOKEN).unwrap();
                        }
                    }
                    if round >= WARM_UP {
                        allocs[kind] += counting_alloc::allocs() - before;
                    }
                }
            }
            allocs
        },
    );
    assert_eq!(
        allocs,
        vec![[0; 3]; PEERS + 1],
        "heap allocations of each rank over {ROUNDS} warm windows, with posted arrivals, \
         unexpected by source and unexpected by ANY_SOURCE"
    );
}

#[test]
fn delivered_payloads_are_recycled() {
    let stats = Universe::run_default(2, |proc| {
        let world = proc.world();
        let mut buf = [0u64; 8];
        let msg = [proc.rank() as u64; 8];
        for _ in 0..50 {
            if proc.rank() == 0 {
                world.send(&msg, 1, 0).unwrap();
                world.recv_into(&mut buf, 1, 0).unwrap();
            } else {
                world.recv_into(&mut buf, 0, 0).unwrap();
                world.send(&msg, 0, 0).unwrap();
            }
        }
        world.barrier().unwrap();
        proc.pool_stats()
    });
    let s = &stats[0];
    assert!(s.takes >= 100, "every eager send leases from the pool");
    assert!(
        s.hit_rate().unwrap() > 0.9,
        "released payloads must be reused: {s:?}"
    );
    assert!(s.recycled > 0, "receive completion returns buffers");
}

#[test]
fn warm_pool_collectives_allocate_nothing() {
    // The benchmark's `coll_mix` call mix on its topology: 8 ranks on 2
    // nodes (hierarchical algorithms), `ofi` (8192 f64 = 64 KiB is above
    // the 16 KiB eager ceiling, so that allreduce stages rendezvous
    // payloads; everything else is eager).
    const WARM_UP: usize = 2;
    const ROUNDS: usize = 20;
    // The pool is warm once every arena (one per VCI) holds the peak
    // number of buffers in flight per size class (e.g. all 56 alltoall
    // blocks sent before any is received). Thread scheduling decides in
    // which round that peak first happens, so a fixed warm-up cannot
    // promise it: the properties are asserted on the first window of
    // `ROUNDS` rounds that starts warm, which must come within `WINDOWS`
    // (seen on 2 CPUs: within 6 at one VCI, within 14 at four).
    const WINDOWS: usize = 50;
    let out = Universe::run(
        8,
        BuildConfig::ch4_default(),
        ProviderProfile::ofi(),
        Topology::blocked(8, 4),
        |proc| {
            let world = proc.world();
            let (me, n) = (world.rank(), world.size());
            let small = vec![me as f64 + 1.0; 64];
            let large = vec![me as f64 + 1.0; 8192];
            let sum = (n * (n + 1) / 2) as f64;
            let a2a: Vec<u32> = (0..n * 16).map(|k| (me * n + k / 16) as u32).collect();
            let round = |root: usize| {
                assert_eq!(world.allreduce(&small, &Op::Sum).unwrap(), vec![sum; 64]);
                let mut word = [if me == root { 77u64 } else { 0 }; 128];
                world.bcast(&mut word, root).unwrap();
                assert_eq!(word, [77; 128]);
                assert_eq!(world.allreduce(&large, &Op::Sum).unwrap(), vec![sum; 8192]);
                let got = world.alltoall(&a2a, 16).unwrap();
                assert!((0..n * 16).all(|k| got[k] == ((k / 16) * n + me) as u32));
                world.barrier().unwrap();
                let nbc = world.iallreduce(&small, &Op::Sum).unwrap();
                assert_eq!(nbc.wait().unwrap(), vec![sum; 64]);
                let nbc = world.ibcast(&word, root).unwrap();
                assert_eq!(nbc.wait().unwrap(), vec![77; 128]);
            };
            for r in 0..WARM_UP {
                round(r % n);
            }
            for _ in 0..WINDOWS {
                // The pool is job-wide: fence the window so every rank's
                // snapshot brackets the same traffic.
                world.barrier().unwrap();
                let before = proc.pool_stats();
                let probe = litempi_instr::probe();
                for r in 0..ROUNDS {
                    round(r % n);
                }
                let allocs = probe.allocs();
                world.barrier().unwrap();
                let after = proc.pool_stats();
                if world.allreduce(&[allocs], &Op::Max).unwrap() == [0] {
                    return Some((after.takes - before.takes, after.hits - before.hits));
                }
            }
            None
        },
    );
    for (rank, warm_window) in out.into_iter().enumerate() {
        let (takes, hits) = warm_window.unwrap_or_else(|| {
            panic!("rank {rank}: every one of {WINDOWS} windows of {ROUNDS} rounds allocated")
        });
        assert!(takes > 0, "rank {rank}: collectives lease from the pool");
        assert!(
            hits as f64 >= 0.95 * takes as f64,
            "rank {rank}: pool hit rate {hits}/{takes} below 0.95"
        );
    }
}

#[test]
fn warm_pool_large_intercomm_messages_allocate_nothing() {
    // 64 KiB on `ofi` is above the 16 KiB eager ceiling: each message is a
    // staged rendezvous, whose staging buffer and RTS envelope both have to
    // come from the pool and go back to it.
    const LEN: usize = 64 * 1024;
    let allocs = Universe::run(
        2,
        BuildConfig::ch4_default(),
        ProviderProfile::ofi(),
        Topology::one_per_node(2),
        |proc| {
            let world = proc.world();
            let me = proc.rank();
            let alone = world.split(me as i32, 0).unwrap().unwrap();
            let inter = alone.intercomm_create(0, &world, 1 - me, 9).unwrap();
            let msg = vec![me as u8 + 1; LEN];
            let mut buf = vec![0u8; LEN];
            let mut round = || {
                if me == 0 {
                    inter.send(&msg, 0, 3).unwrap();
                    inter.recv_into(&mut buf, 0, 3).unwrap();
                } else {
                    inter.recv_into(&mut buf, 0, 3).unwrap();
                    inter.send(&msg, 0, 3).unwrap();
                }
            };
            for _ in 0..4 {
                round();
            }
            let probe = litempi_instr::probe();
            for _ in 0..16 {
                round();
            }
            let allocs = probe.allocs();
            assert!(buf.iter().all(|&b| b == 2 - me as u8));
            allocs
        },
    );
    assert_eq!(allocs, vec![0, 0]);
}

#[test]
fn warm_large_sends_stage_without_the_heap() {
    // The benchmark's `p2p_large` rendezvous messages: 256 KiB contiguous
    // and 64 KiB as 1024 blocks of 64 bytes in every other slot. `ofi`
    // stages them in a registered region, `am_only` in a pooled buffer.
    const CONTIG: usize = 256 << 10;
    const SPAN: usize = 2 * 1024 * 64;
    const KINDS: [&str; 3] = ["256 KiB isend", "64 KiB strided isend", "256 KiB start"];
    const READY: i32 = 9;
    const WARM_UP: u8 = 4;
    const ROUNDS: u8 = 8;
    /// Heap allocations this thread makes inside `f`.
    fn count<T>(f: impl FnOnce() -> T) -> (u64, T) {
        let before = counting_alloc::allocs();
        let out = f();
        (counting_alloc::allocs() - before, out)
    }
    for profile in [ProviderProfile::ofi(), ProviderProfile::am_only()] {
        let name = profile.kind;
        let worst = Universe::run(
            2,
            BuildConfig::ch4_default(),
            profile,
            Topology::one_per_node(2),
            |proc| {
                let world = proc.world();
                let me = proc.rank();
                let peer = 1 - me as i32;
                let vector = Datatype::vector(1024, 64, 128, &u8::DATATYPE)
                    .unwrap()
                    .commit();
                let fill = |from: usize, round: u8| from as u8 * 100 + round;
                let fixed = vec![fill(me, 0); CONTIG];
                let mut inbox_fixed = vec![0u8; CONTIG];
                let mut psend = world.send_init(&fixed, peer, 3).unwrap();
                let mut precv = world.recv_init(&mut inbox_fixed, peer, 3).unwrap();
                let mut out = vec![0u8; CONTIG];
                let mut inbox = vec![0u8; CONTIG];
                let mut strided = vec![0u8; SPAN];
                let mut inbox_strided = vec![0u8; SPAN];
                // Worst allocation count per kind of message, of its send
                // and of its receive.
                let mut worst = [[0u64; 2]; 3];
                for round in 0..WARM_UP + ROUNDS {
                    out.fill(fill(me, round));
                    strided.fill(fill(me, round));
                    for (sender, kind) in [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)] {
                        // The receive is posted before the message leaves
                        // (the receiver says so), so the matching engine
                        // queues the receive, on the receiver's thread, and
                        // never the message, on the sender's. The sender
                        // takes that word once it has arrived: it may come
                        // while the sender still waits on its previous
                        // send, and its path through the sender's engine
                        // is then the same every round.
                        let allocs = if sender == me {
                            world.probe(peer, READY).unwrap();
                            world.recv_into(&mut [0u8], peer, READY).unwrap();
                            let (allocs, status) = count(|| match kind {
                                0 => world.isend(&out, peer, 1)?.wait(),
                                1 => world.isend_bytes(&strided, &vector, 1, peer, 2)?.wait(),
                                _ => psend.start().and_then(|()| psend.wait()),
                            });
                            status.unwrap();
                            allocs
                        } else {
                            let (posting, req) = count(|| match kind {
                                0 => world.irecv(&mut inbox, peer, 1).map(Some),
                                1 => (world.irecv_bytes(&mut inbox_strided, &vector, 1, peer, 2))
                                    .map(Some),
                                _ => precv.start().map(|()| None),
                            });
                            let req = req.unwrap();
                            world.send(&[0u8], peer, READY).unwrap();
                            let (waiting, status) = count(|| match req {
                                Some(req) => req.wait(),
                                None => precv.wait(),
                            });
                            status.unwrap();
                            posting + waiting
                        };
                        if round >= WARM_UP {
                            let side = &mut worst[kind][(sender != me) as usize];
                            *side = (*side).max(allocs);
                        }
                    }
                    let want = fill(1 - me, round);
                    assert!(inbox.iter().all(|&b| b == want), "{name:?} round {round}");
                    // Only the strided blocks arrive; the gaps stay zero.
                    assert!(inbox_strided
                        .chunks(64)
                        .enumerate()
                        .all(|(slot, block)| block == [if slot % 2 == 0 { want } else { 0 }; 64]));
                }
                drop(precv);
                assert!(
                    inbox_fixed.iter().all(|&b| b == fill(1 - me, 0)),
                    "{name:?}"
                );
                worst
            },
        );
        for (rank, worst) in worst.into_iter().enumerate() {
            for (kind, [send, recv]) in KINDS.into_iter().zip(worst) {
                // A warm receive reuses its slot and its queue bucket.
                assert!(
                    send <= 1 && recv == 0,
                    "{name:?} rank {rank}, {kind}: a warm send made {send} allocations (its \
                     completion flag only), its receive {recv}"
                );
            }
        }
    }
}

#[test]
fn shared_fanout_payload_is_isolated() {
    // 2 nodes x 4 ranks: each node leader fans a broadcast out to its
    // three members from ONE staged payload (`Arc` clones). Every packet
    // has a 1-in-5 chance of a flipped bit; the CRC rejects the damaged
    // copy and the retransmission must deliver the original bytes — which
    // it can only do if corrupting one receiver's copy never wrote through
    // to the storage its siblings (and the retransmit queue) still share.
    let profile = ProviderProfile::ofi()
        .reliable()
        .with_faults(FaultPlan::uniform(
            0xC0FFEE,
            FaultSpec::percent(0, 0, 0, 20),
        ));
    let stats = Universe::run(
        8,
        BuildConfig::ch4_default(),
        profile,
        Topology::blocked(8, 4),
        |proc| {
            let world = proc.world();
            let n = world.size();
            // Eager (1 KiB) and rendezvous (64 KiB) fan-outs, blocking and
            // compiled, from every root.
            for round in 0..2 * n as u64 {
                let root = round as usize % n;
                for len in [128usize, 8192] {
                    let want: Vec<u64> = (0..len as u64).map(|i| i * 31 + round).collect();
                    let mut buf = if world.rank() == root {
                        want.clone()
                    } else {
                        vec![0; len]
                    };
                    world.bcast(&mut buf, root).unwrap();
                    assert_eq!(buf, want, "bcast len {len} round {round}");
                    let got = world.ibcast(&buf, root).unwrap().wait().unwrap();
                    assert_eq!(got, want, "ibcast len {len} round {round}");
                }
            }
            world.barrier().unwrap();
            proc.comm_stats()
        },
    );
    let crc_failures: u64 = stats.iter().map(|s| s.crc_failures).sum();
    assert!(crc_failures > 0, "the corruption fault never fired");
}
