//! Matching-engine microbenchmarks: posted-queue and unexpected-queue
//! search costs as queue depth grows — the mechanism behind the
//! `q·P` matching term in the Fig 8 model (CH3-era single-queue matching
//! degrades at scale; cf. the "matching misery" literature the paper
//! cites).

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use litempi_core::{BuildConfig, Universe};
use litempi_fabric::matching::MatchEngine;
use litempi_fabric::packet::{PostedRecv, RecvSlot};
use litempi_fabric::{Fabric, MatcherKind, NetAddr, ProviderProfile, Topology};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Depth-`depth` unexpected queue: rank 0 sends `depth` non-matching
/// messages, then the timed message; rank 1's receive must scan past the
/// queue to find it.
fn unexpected_depth(depth: usize, iters: u64) -> Duration {
    let out = Universe::run(
        2,
        BuildConfig::ch4_default(),
        ProviderProfile::infinite(),
        Topology::single_node(2),
        move |proc| {
            let world = proc.world();
            if proc.rank() == 0 {
                for round in 0..iters.max(1) {
                    let _ = round;
                    for t in 0..depth as i32 {
                        world.isend(&[0u8], 1, 1000 + t).unwrap().wait().unwrap();
                    }
                    world.isend(&[1u8], 1, 7).unwrap().wait().unwrap();
                    world.barrier().unwrap();
                }
                None
            } else {
                let mut total = Duration::ZERO;
                for _ in 0..iters.max(1) {
                    // Let the queue build up.
                    while world.iprobe(0, 7).unwrap().is_none() {
                        std::thread::yield_now();
                    }
                    let mut buf = [0u8; 1];
                    let t0 = Instant::now();
                    world.recv_into(&mut buf, 0, 7).unwrap();
                    total += t0.elapsed();
                    // Drain the decoys.
                    for t in 0..depth as i32 {
                        world.recv_into(&mut buf, 0, 1000 + t).unwrap();
                    }
                    world.barrier().unwrap();
                }
                Some(total)
            }
        },
    );
    out.into_iter().flatten().next().unwrap()
}

fn bench_unexpected_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("recv_vs_unexpected_depth");
    g.sample_size(10).measurement_time(Duration::from_secs(2));
    for depth in [0usize, 16, 128, 512] {
        g.bench_function(BenchmarkId::from_parameter(depth), |b| {
            b.iter_custom(|iters| unexpected_depth(depth, iters));
        });
    }
    g.finish();
}

/// Wildcard receives are the worst case for match-bit filtering.
fn bench_wildcard_vs_exact(c: &mut Criterion) {
    let mut g = c.benchmark_group("match_wildcard_vs_exact");
    g.sample_size(10).measurement_time(Duration::from_secs(2));
    for (label, any) in [("exact", false), ("wildcard", true)] {
        g.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter_custom(|iters| {
                let out = Universe::run(
                    2,
                    BuildConfig::ch4_default(),
                    ProviderProfile::infinite(),
                    Topology::single_node(2),
                    move |proc| {
                        let world = proc.world();
                        if proc.rank() == 0 {
                            for _ in 0..iters.max(1) {
                                world.isend(&[1u8], 1, 3).unwrap().wait().unwrap();
                            }
                            None
                        } else {
                            let (src, tag) = if any {
                                (litempi_core::ANY_SOURCE, litempi_core::ANY_TAG)
                            } else {
                                (0, 3)
                            };
                            let mut buf = [0u8; 1];
                            let t0 = Instant::now();
                            for _ in 0..iters.max(1) {
                                world.recv_into(&mut buf, src, tag).unwrap();
                            }
                            Some(t0.elapsed())
                        }
                    },
                );
                out.into_iter().flatten().next().unwrap()
            });
        });
    }
    g.finish();
}

/// Time the *deliver* side of `tsend` while `depth` standing decoy
/// receives (distinct exact tags, never matched) clog the posted queue.
/// The endpoint's bucketed matcher hashes straight to the live tag's
/// bucket, so its cost should be flat in `depth`.
///
/// This drives the fabric endpoints directly from one thread (no MPI
/// layer, no progress threads) and keeps the receive posting and the
/// completion drain *outside* the timed region, so the measured delta is
/// the matcher walk itself — the `q·P` term the paper's Fig 8 model
/// charges — not spin/park overhead.
fn matcher_posted_depth(depth: usize, iters: u64) -> Duration {
    let fabric = Fabric::new(2, ProviderProfile::infinite(), Topology::single_node(2));
    let tx = fabric.endpoint(NetAddr(0));
    let rx = fabric.endpoint(NetAddr(1));
    // Decoys occupy a disjoint tag range so the timed traffic never
    // matches them; holding the handles keeps them posted.
    const DECOY_BASE: u64 = 1 << 40;
    const LIVE: u64 = 7;
    const BATCH: u64 = 64;
    let decoys: Vec<_> = (0..depth)
        .map(|i| rx.trecv_post(DECOY_BASE + i as u64, 0))
        .collect();
    let mut total = Duration::ZERO;
    let mut done = 0u64;
    while done < iters.max(1) {
        let n = BATCH.min(iters.max(1) - done);
        // Untimed: pre-post the live receives (all on one tag, FIFO).
        let handles: Vec<_> = (0..n).map(|_| rx.trecv_post(LIVE, 0)).collect();
        // Timed: each send must find its receive behind `depth` decoys.
        let t0 = Instant::now();
        for _ in 0..n {
            tx.tsend(NetAddr(1), LIVE, Bytes::from_static(b"x"));
        }
        total += t0.elapsed();
        // Untimed: drain completions (already filled; wait() is a poll hit).
        for h in handles {
            let _ = h.wait();
        }
        done += n;
    }
    drop(decoys);
    total
}

/// Raw engine ablation: the matching data structure alone, no endpoint
/// locks, no completion events. `depth` standing decoy receives, then each
/// timed `deliver` must locate the live receive: a full scan for the linear
/// engine, one hash probe for the bucketed one. This is the isolated `q·P`
/// matching term.
fn matcher_engine_depth(kind: MatcherKind, depth: usize, iters: u64) -> Duration {
    const DECOY_BASE: u64 = 1 << 40;
    const LIVE: u64 = 7;
    const BATCH: u64 = 64;
    let src = NetAddr(0);
    let mut eng = MatchEngine::new(kind);
    let recv = |bits| PostedRecv {
        match_bits: bits,
        ignore: 0,
        slot: Arc::new(RecvSlot::default()),
    };
    for i in 0..depth {
        assert!(eng.post(recv(DECOY_BASE + i as u64)).is_none());
    }
    let mut total = Duration::ZERO;
    let mut done = 0u64;
    while done < iters.max(1) {
        let n = BATCH.min(iters.max(1) - done);
        // Untimed: pre-post the live receives (one bucket, FIFO within it)
        // and pre-build the incoming messages.
        let slots: Vec<_> = (0..n)
            .map(|_| {
                let r = recv(LIVE);
                let slot = r.slot.clone();
                assert!(eng.post(r).is_none());
                slot
            })
            .collect();
        let msgs: Vec<_> = (0..n)
            .map(|_| litempi_fabric::TaggedMessage {
                src,
                match_bits: LIVE,
                data: Bytes::from_static(b"x"),
            })
            .collect();
        // Timed: the matcher walk itself.
        let t0 = Instant::now();
        for msg in msgs {
            criterion::black_box(eng.deliver(msg));
        }
        total += t0.elapsed();
        for slot in slots {
            assert!(slot.take().is_some());
        }
        done += n;
    }
    total
}

/// Raw engine: `sources` peers each leave one early message (the source
/// is in the match bits, so one bucket each), then a timed `ANY_SOURCE`
/// drain takes them all, oldest first. An arrival-ordered lookup keeps
/// each take O(1); scanning every bucket would make the drain quadratic.
fn matcher_engine_any_source_drain(kind: MatcherKind, sources: u64, iters: u64) -> Duration {
    const TAG: u64 = 7;
    const ANY_SOURCE: u64 = !0 << 32;
    let mut eng = MatchEngine::new(kind);
    let mut total = Duration::ZERO;
    let mut done = 0u64;
    while done < iters.max(1) {
        // Untimed: the early arrivals.
        for src in 0..sources {
            let msg = litempi_fabric::TaggedMessage {
                src: NetAddr(src as u32),
                match_bits: (src << 32) | TAG,
                data: Bytes::from_static(b"x"),
            };
            assert!(!eng.deliver(msg));
        }
        // Timed: one wildcard dequeue per message.
        let t0 = Instant::now();
        for _ in 0..sources {
            criterion::black_box(eng.dequeue(TAG, ANY_SOURCE));
        }
        total += t0.elapsed();
        done += sources;
    }
    // Per message, like the other groups' per-op times.
    total * iters.max(1) as u32 / done as u32
}

fn bench_any_source_drain(c: &mut Criterion) {
    let mut g = c.benchmark_group("matcher_any_source_drain");
    g.sample_size(10).measurement_time(Duration::from_secs(1));
    for sources in [8u64, 64, 512] {
        for (label, kind) in [
            ("bucketed", MatcherKind::Bucketed),
            ("linear", MatcherKind::Linear),
        ] {
            g.bench_function(BenchmarkId::new(label, sources), |b| {
                b.iter_custom(|iters| matcher_engine_any_source_drain(kind, sources, iters));
            });
        }
    }
    g.finish();
}

fn bench_matcher_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("matcher_ablation_posted_depth");
    g.sample_size(10).measurement_time(Duration::from_secs(1));
    for depth in [1usize, 16, 256, 4096] {
        for (label, kind) in [
            ("bucketed", MatcherKind::Bucketed),
            ("linear", MatcherKind::Linear),
        ] {
            g.bench_function(BenchmarkId::new(label, depth), |b| {
                b.iter_custom(|iters| matcher_engine_depth(kind, depth, iters));
            });
        }
    }
    g.finish();
}

/// The same depths through the full endpoint path (`tsend` → lock → deliver
/// → event), as real traffic sees the matcher.
fn bench_tsend_posted_depth(c: &mut Criterion) {
    let mut g = c.benchmark_group("tsend_path_posted_depth");
    g.sample_size(10).measurement_time(Duration::from_secs(1));
    for depth in [1usize, 16, 256, 4096] {
        g.bench_function(BenchmarkId::new("bucketed", depth), |b| {
            b.iter_custom(|iters| matcher_posted_depth(depth, iters));
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_unexpected_queue,
    bench_wildcard_vs_exact,
    bench_matcher_ablation,
    bench_any_source_drain,
    bench_tsend_posted_depth
);
criterion_main!(benches);
