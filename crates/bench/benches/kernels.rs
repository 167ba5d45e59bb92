//! Kernel-layer ablation: scalar baseline vs the runtime-dispatched tier
//! for each per-byte hot path, at the four calibrated payload sizes the
//! other ablations use (0, 64, 1024, 65536 bytes).
//!
//! Three families:
//!
//! * `reduce_*`  — elementwise f64 SUM (the allreduce inner loop);
//! * `pack_*`    — strided gather of 8-byte segments with 8-byte gaps
//!   (the vector-datatype worst case: maximum per-segment dispatch);
//! * `crc_*`     — the CRC32 ladder: the original bit-at-a-time loop,
//!   the slice-by-8 table baseline, the four-lane carryless-multiply
//!   fold, and the same fold behind its 512-bit first stage (equal to
//!   the four-lane fold on a host without AVX-512 `VPCLMULQDQ`).
//!
//! Everything here is pure kernel time — no fabric, no charges — so the
//! deltas are exactly the wall-clock effect the `reliability_ablation`
//! and collective benches inherit. The dispatched tier is whatever
//! [`litempi_simd::detect`] picks on the host (recorded in the bench name
//! would break baseline diffing, so it stays `dispatched`; the trace
//! layer's `KernelTier` event is the provenance record).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use litempi_simd::reduce::{reduce, ROp, RType};
use litempi_simd::{crc, detect, pack, Tier};
use std::time::Duration;

const SIZES: [usize; 4] = [0, 64, 1024, 65536];

fn bytes(seed: u64, n: usize) -> Vec<u8> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        })
        .collect()
}

fn bench_reduce(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernels");
    g.sample_size(20).measurement_time(Duration::from_secs(1));
    for size in SIZES {
        let input = bytes(0xFEED, size);
        let inout0 = bytes(0xBEEF, size);
        for (label, tier) in [
            ("reduce_scalar", Tier::Scalar),
            ("reduce_dispatched", detect()),
        ] {
            let mut inout = inout0.clone();
            g.bench_function(BenchmarkId::new(label, size), |b| {
                b.iter(|| {
                    reduce(
                        tier,
                        ROp::Sum,
                        RType::F64,
                        black_box(&mut inout),
                        black_box(&input),
                    )
                });
            });
        }
    }
    g.finish();
}

fn bench_pack(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernels");
    g.sample_size(20).measurement_time(Duration::from_secs(1));
    for size in SIZES {
        // 8-byte segments every 16 bytes: a vector<1 double, stride 2>.
        let segs: Vec<(usize, usize)> = (0..size / 8).map(|i| (i * 16, 8)).collect();
        let src = bytes(0xF00D, size * 2);
        for (label, tier) in [("pack_scalar", Tier::Scalar), ("pack_dispatched", detect())] {
            let mut dst = vec![0u8; size];
            g.bench_function(BenchmarkId::new(label, size), |b| {
                b.iter(|| {
                    pack::gather(
                        tier,
                        black_box(&src),
                        black_box(&mut dst),
                        segs.iter().copied(),
                    )
                });
            });
        }
    }
    g.finish();
}

fn bench_crc(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernels");
    g.sample_size(20).measurement_time(Duration::from_secs(1));
    type Kernel = fn(u32, &[u8]) -> u32;
    for size in SIZES {
        let data = bytes(0xCCCC, size);
        let ladder: [(&str, Kernel); 4] = [
            ("crc_bitwise", crc::update_bitwise),
            ("crc_slice8", crc::update_slice8),
            ("crc_clmul", crc::update_clmul),
            ("crc_wide", crc::update_wide),
        ];
        for (label, f) in ladder {
            g.bench_function(BenchmarkId::new(label, size), |b| {
                b.iter(|| black_box(f(crc::INIT, black_box(&data))));
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_reduce, bench_pack, bench_crc);
criterion_main!(benches);
