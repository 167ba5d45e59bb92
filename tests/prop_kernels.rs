//! Property tests pinning the kernel layer's bit-exactness contract:
//! every runnable SIMD tier must produce *byte-identical* results to the
//! scalar reference for every predefined op × type — including float
//! buffers salted with NaN payloads — at remainder-tail lengths (0, 1,
//! width−1, width+1 elements) and at unaligned buffer offsets. The same
//! contract is pinned for the gather/scatter pack kernels and the CRC32
//! ladder (bitwise → slice-by-8 → carryless multiply).
//!
//! These tests are what the CI forced-scalar job re-runs under
//! `LITEMPI_KERNEL_TIER=scalar`: the explicit-tier sweep below is independent
//! of the process-wide selection, while the wired-in paths (`Op::apply`,
//! pack, reliability CRC) follow the pinned tier — both must agree with
//! scalar either way.

use litempi::simd::crc;
use litempi::simd::pack::{gather, scatter};
use litempi::simd::reduce::{legal, reduce, ALL_OPS, ALL_TYPES};
use litempi::simd::Tier;
use proptest::prelude::*;

/// Deterministic byte stream for a case.
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

/// Salt float buffers with exotic IEEE payloads: quiet/signaling NaNs
/// with distinct payload bits, infinities, and signed zeros, so the
/// "deterministic even for NaN payloads" claim is actually exercised.
fn salt_floats(data: &mut [u8], width: usize, seed: u64) {
    let specials32: [u32; 6] = [
        0x7FC0_0001, // quiet NaN, payload 1
        0xFFC7_7777, // negative quiet NaN, distinct payload
        0x7F80_0001, // signaling NaN
        0x7F80_0000, // +inf
        0xFF80_0000, // -inf
        0x8000_0000, // -0.0
    ];
    let specials64: [u64; 6] = [
        0x7FF8_0000_0000_0001,
        0xFFF8_DEAD_BEEF_0001,
        0x7FF0_0000_0000_0001,
        0x7FF0_0000_0000_0000,
        0xFFF0_0000_0000_0000,
        0x8000_0000_0000_0000,
    ];
    let mut x = seed | 1;
    for (i, el) in data.chunks_exact_mut(width).enumerate() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // Roughly every third element becomes a special value.
        if x.is_multiple_of(3) {
            let pick = (x >> 8) as usize % 6;
            if width == 4 {
                el.copy_from_slice(&specials32[pick].to_le_bytes());
            } else {
                el.copy_from_slice(&specials64[pick].to_le_bytes());
            }
        }
        let _ = i;
    }
}

/// Copy `data` into a fresh buffer at byte offset `off` (0..16) so the
/// kernel sees an unaligned slice, run `f` on the window.
fn at_offset<R>(data: &[u8], off: usize, f: impl FnOnce(&mut [u8]) -> R) -> R {
    let mut storage = vec![0u8; data.len() + 16];
    storage[off..off + data.len()].copy_from_slice(data);
    f(&mut storage[off..off + data.len()])
}

/// The core check: for one (op, type, element count, offsets) case, every
/// runnable tier must equal the scalar fold byte-for-byte.
fn check_reduce_case(seed: u64, elems: usize, a_off: usize, b_off: usize) {
    for ty in ALL_TYPES {
        let w = ty.width();
        let n = elems * w;
        let mut a0 = bytes(seed, n);
        let mut b0 = bytes(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15), n);
        if ty.is_float() {
            salt_floats(&mut a0, w, seed ^ 0xA5A5);
            salt_floats(&mut b0, w, seed ^ 0x5A5A);
        }
        for op in ALL_OPS {
            if !legal(op, ty) {
                continue;
            }
            let mut want = a0.clone();
            reduce(Tier::Scalar, op, ty, &mut want, &b0);
            for tier in Tier::all_runnable() {
                let got = at_offset(&a0, a_off, |a| {
                    at_offset(&b0, b_off, |b| {
                        reduce(tier, op, ty, a, b);
                        a.to_vec()
                    })
                });
                assert_eq!(
                    got, want,
                    "{op:?} on {ty:?}: tier {tier:?} diverged from scalar \
                     (elems {elems}, offsets {a_off}/{b_off})"
                );
            }
        }
    }
}

#[test]
fn remainder_tails_all_ops_all_types() {
    // 0, 1, width−1, width+1 elements relative to every vector width in
    // play (16- and 32-byte blocks → 2..33 elements depending on type),
    // plus a buffer long enough to hit the unrolled body.
    for elems in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100] {
        check_reduce_case(0xC0FF_EE00 + elems as u64, elems, 0, 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random element counts and unaligned offsets for the whole matrix.
    #[test]
    fn reduce_equivalence(seed in any::<u64>(), elems in 0usize..70,
                          a_off in 0usize..16, b_off in 0usize..16) {
        check_reduce_case(seed, elems, a_off, b_off);
    }

    /// Gather/scatter kernels agree with segment-wise copying for random
    /// strided layouts at random offsets.
    #[test]
    fn pack_equivalence(seed in any::<u64>(), nsegs in 1usize..20, off in 0usize..16) {
        let mut x = seed | 1;
        let mut segs = Vec::new();
        let mut cursor = off;
        for _ in 0..nsegs {
            x ^= x << 13; x ^= x >> 7; x ^= x << 17;
            let len = 1 + (x as usize % 70);
            let gap = (x >> 32) as usize % 9;
            segs.push((cursor, len));
            cursor += len + gap;
        }
        let src = bytes(seed ^ 0xF00D, cursor + 8);
        let total: usize = segs.iter().map(|s| s.1).sum();

        let mut want = Vec::new();
        for &(o, l) in &segs {
            want.extend_from_slice(&src[o..o + l]);
        }
        for tier in Tier::all_runnable() {
            let mut dst = vec![0u8; total];
            let n = gather(tier, &src, &mut dst, segs.iter().copied());
            prop_assert_eq!(n, total);
            prop_assert_eq!(&dst, &want, "gather tier {:?}", tier);

            // Scatter back: data lands where it came from, gaps keep 0xEE.
            let mut back = vec![0xEEu8; src.len()];
            scatter(tier, &want, &mut back, segs.iter().copied());
            for (i, &bb) in back.iter().enumerate() {
                let in_seg = segs.iter().any(|&(o, l)| i >= o && i < o + l);
                prop_assert_eq!(bb, if in_seg { src[i] } else { 0xEE },
                                "scatter tier {:?} byte {}", tier, i);
            }
        }
    }

    /// The CRC ladder agrees with the bit-at-a-time reference at random
    /// lengths up to 16 KiB + 15 — short ones around the fold and wide
    /// thresholds as often as long ones through many four-lane and wide
    /// steps — from misaligned starts, and streamed through a random
    /// split.
    #[test]
    fn crc_equivalence(
        seed in any::<u64>(),
        len in prop_oneof![0usize..600, 0usize..(16 << 10) + 16],
        start in 0usize..16,
        split_at in 0usize..(16 << 10) + 16,
    ) {
        let buf = bytes(seed ^ 0xCCCC, start + len);
        let data = &buf[start..];
        let split = split_at % (len + 1);
        let want = crc::update_bitwise(crc::INIT, data);
        prop_assert_eq!(crc::update_slice8(crc::INIT, data), want);
        prop_assert_eq!(crc::update_clmul(crc::INIT, data), want);
        prop_assert_eq!(crc::update_wide(crc::INIT, data), want);
        // Streaming equivalence at an arbitrary split.
        let s = crc::update_clmul(crc::INIT, &data[..split]);
        prop_assert_eq!(crc::update_clmul(s, &data[split..]), want);
        let s = crc::update_wide(crc::INIT, &data[..split]);
        prop_assert_eq!(crc::update_wide(s, &data[split..]), want);
        let s = crc::update_slice8(crc::INIT, &data[..split]);
        prop_assert_eq!(crc::update_slice8(s, &data[split..]), want);
    }
}

/// Streaming through a split at every offset of a 320-byte message, from
/// a misaligned start: every residue mod 64 lands on both pieces while
/// each crosses the 64-byte fold threshold, where one four-lane load
/// gives way to four-lane steps and the leftover 16-byte folds, and the
/// 256-byte threshold of the wide stage.
#[test]
fn crc_streaming_splits_at_every_offset() {
    let buf = bytes(0x5EED, 320 + 3);
    let data = &buf[3..];
    let want = crc::update_bitwise(crc::INIT, data);
    for split in 0..=data.len() {
        for f in [crc::update_clmul, crc::update_wide, crc::update] {
            let s = f(crc::INIT, &data[..split]);
            assert_eq!(f(s, &data[split..]), want, "split at {split}");
        }
    }
}

/// The wired-in path: `Op::apply` (used by collectives and the schedule
/// engine) must agree with an explicit scalar kernel run, whatever tier
/// the process selected — this is the test the forced-scalar CI job runs
/// with `LITEMPI_KERNEL_TIER=scalar` to prove the fallback is live.
#[test]
fn op_apply_matches_scalar_kernel() {
    use litempi::datatype::{Datatype, Predefined};
    use litempi::prelude::Op;
    use litempi::simd::reduce::{ROp, RType};

    let cases: [(Predefined, RType); 5] = [
        (Predefined::Int32, RType::I32),
        (Predefined::Int64, RType::I64),
        (Predefined::UInt8, RType::U8),
        (Predefined::Float32, RType::F32),
        (Predefined::Float64, RType::F64),
    ];
    let ops: [(Op, ROp); 4] = [
        (Op::Sum, ROp::Sum),
        (Op::Prod, ROp::Prod),
        (Op::Min, ROp::Min),
        (Op::Max, ROp::Max),
    ];
    for (pre, rty) in cases {
        let w = rty.width();
        let mut a0 = bytes(0xAB, 37 * w);
        let b0 = bytes(0xCD, 37 * w);
        if rty.is_float() {
            salt_floats(&mut a0, w, 7);
        }
        for (op, rop) in &ops {
            let dt = Datatype::basic(pre);
            let mut via_apply = a0.clone();
            op.apply(&dt, &mut via_apply, &b0).unwrap();
            let mut via_kernel = a0.clone();
            reduce(Tier::Scalar, *rop, rty, &mut via_kernel, &b0);
            assert_eq!(via_apply, via_kernel, "{op:?} on {pre:?}");
        }
    }
}
