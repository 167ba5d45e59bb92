//! Direct layer timings: each layer's public entry points driven from
//! this one thread, no `Universe`, no ranks.
//!
//! Every timing is the median over [`SAMPLES`] samples of a fixed number
//! of iterations, so a run does the same work every time.

use crate::probe::{to_reference, Probe};
use crate::seed::Rng;
use litempi::datatype::pack;
use litempi::fabric::matching::MatchEngine;
use litempi::fabric::packet::{PostedRecv, RecvSlot, TaggedMessage};
use litempi::fabric::{Fabric, MatcherKind, NetAddr, PayloadPool, ProviderProfile, Topology};
use litempi::simd::reduce::{ROp, RType};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const SAMPLES: usize = 15;

/// The closed set of names `measure` reports, with units.
pub const METRICS: &[(&str, &str)] = &[
    ("fabric.endpoint.tsend_trecv_ns", "ns"),
    ("fabric.endpoint.tsend_trecv_reliable_ns", "ns"),
    ("fabric.matching.post_deliver_d1_ns", "ns"),
    ("fabric.matching.post_deliver_d256_ns", "ns"),
    ("fabric.pool.take_release_64B_ns", "ns"),
    ("fabric.pool.take_release_64KiB_ns", "ns"),
    ("fabric.region.reg_acquire_release_ns", "ns"),
    ("simd.crc.ns_per_KiB", "ns/KiB"),
    ("simd.reduce.sum_f64_64_ns", "ns"),
    ("simd.reduce.sum_f64_8192_ns", "ns"),
    ("simd.pack.gather_ns_per_KiB", "ns/KiB"),
    ("datatype.pack.vector_ns_per_KiB", "ns/KiB"),
];

/// Median nanoseconds per iteration of `f` over `SAMPLES` samples of
/// `iters` iterations each, after one untimed sample; every sample in
/// reference time (the host's speed scaled out, see `probe`).
fn per_iter_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut probe = Probe::default();
    let mut speed = probe.sample();
    let mut samples = Vec::with_capacity(SAMPLES);
    for s in 0..=SAMPLES {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        let ns = t0.elapsed().as_nanos() as f64 / iters as f64;
        let speed_before = std::mem::replace(&mut speed, probe.sample());
        if s > 0 {
            samples.push(ns * to_reference(speed_before, speed));
        }
    }
    crate::stats::median(&samples)
}

/// One tagged message through a 2-endpoint fabric: post the receive,
/// lease and fill an 8-byte payload, send, complete, recycle.
fn tsend_trecv(profile: ProviderProfile) -> f64 {
    let fabric = Fabric::new(2, profile, Topology::single_node(2));
    let (tx, rx) = (fabric.endpoint(NetAddr(0)), fabric.endpoint(NetAddr(1)));
    let ns = per_iter_ns(20_000, || {
        let handle = rx.trecv_post(7, 0);
        let mut buf = fabric.pool().take(8);
        buf.put_zeroed(8).copy_from_slice(&7u64.to_le_bytes());
        tx.tsend(NetAddr(1), 7, buf.freeze());
        fabric.pool().release(handle.wait().data);
    });
    // Acknowledge what the reliable link still holds before it is dropped.
    tx.quiesce();
    rx.quiesce();
    ns
}

/// Post one receive and deliver its message with `depth - 1` other
/// receives resident in the engine.
fn post_deliver(depth: u64, payload: &litempi::fabric::PayloadPool) -> f64 {
    let mut engine = MatchEngine::new(MatcherKind::Bucketed);
    let post = |engine: &mut MatchEngine, bits: u64| {
        let slot = Arc::new(RecvSlot::default());
        engine.post(PostedRecv {
            match_bits: bits,
            ignore: 0,
            slot: slot.clone(),
        });
        slot
    };
    let _resident: Vec<_> = (1..depth).map(|bits| post(&mut engine, bits)).collect();
    let data = payload.take(8).freeze();
    per_iter_ns(50_000, || {
        let slot = post(&mut engine, 0);
        let matched = engine.deliver(TaggedMessage {
            src: NetAddr(0),
            match_bits: 0,
            data: data.clone(),
        });
        black_box((matched, slot.take()));
    })
}

fn take_release(pool: &PayloadPool, bytes: usize) -> f64 {
    per_iter_ns(50_000, || {
        pool.release(black_box(pool.take(bytes)).freeze())
    })
}

/// Every metric in [`METRICS`], in that order.
pub fn measure(seed: u64) -> Vec<(&'static str, f64)> {
    let mut rng = Rng::new(seed, 90);
    let pool = PayloadPool::new();

    let fabric = Fabric::new(2, ProviderProfile::ofi(), Topology::single_node(2));
    let ep = fabric.endpoint(NetAddr(0));
    let reg = per_iter_ns(20_000, || {
        let region = ep.reg_acquire(NetAddr(1), 256 << 10);
        ep.reg_release(NetAddr(1), black_box(region));
    });

    let block = rng.bytes(64 << 10);
    let crc = per_iter_ns(200, || {
        black_box(litempi::simd::crc::crc32(black_box(&block)));
    }) / 64.0;

    let tier = litempi::simd::active();
    let mut reduce = |elems: usize, iters: usize| {
        let input = rng.bytes(elems * 8);
        let mut inout = vec![0u8; elems * 8];
        per_iter_ns(iters, || {
            litempi::simd::reduce::reduce(
                tier,
                ROp::Sum,
                RType::F64,
                &mut inout,
                black_box(&input),
            );
        })
    };
    let (sum64, sum8192) = (reduce(64, 100_000), reduce(8192, 2_000));

    // The strided layout `p2p_large` sends: 1024 blocks of 64 bytes at
    // every other slot, 64 KiB of payload.
    let strided = rng.bytes(128 << 10);
    let mut packed = vec![0u8; 64 << 10];
    let gather = per_iter_ns(500, || {
        let segs = (0..1024).map(|b| (b * 128, 64));
        black_box(litempi::simd::pack::gather(
            tier,
            &strided,
            &mut packed,
            segs,
        ));
    }) / 64.0;
    let vector = crate::workloads::p2p::Large::vector_type();
    let pack_vector = per_iter_ns(500, || {
        black_box(pack::pack_into(&vector, 1, &strided, &mut packed));
    }) / 64.0;

    let values = [
        tsend_trecv(ProviderProfile::ofi()),
        tsend_trecv(ProviderProfile::ofi().reliable()),
        post_deliver(1, &pool),
        post_deliver(256, &pool),
        take_release(&pool, 64),
        take_release(&pool, 64 << 10),
        reg,
        crc,
        sum64,
        sum8192,
        gather,
        pack_vector,
    ];
    METRICS.iter().map(|(name, _)| *name).zip(values).collect()
}
