//! CRC32 (IEEE, reflected, polynomial `0xEDB88320`) kernels.
//!
//! Four implementations of the same function, fastest first:
//!
//! * **wide carryless-multiply stage** — on x86-64 hosts with AVX-512F and
//!   `VPCLMULQDQ`, inputs of 256 bytes and more first fold 256 bytes per
//!   step into four `__m512i` accumulators (sixteen 128-bit lanes, one
//!   instruction doing four lanes' multiplies), merge them into one
//!   `__m512i` and hand its four lanes to the four-lane fold below as its
//!   state. About 14 ns per KiB on a 2-CPU x86-64 host (the benchmark's
//!   traced `simd.crc.ns_per_KiB`), against about 38 for the four-lane
//!   fold alone (EXPERIMENTS.md, "The CRC at vector width").
//! * **carryless-multiply fold** — folds 64 bytes per step into four
//!   independent 128-bit lanes with the CPU's polynomial multiplier
//!   (x86-64 `PCLMULQDQ`, aarch64 `PMULL`), merges the lanes, folds any
//!   leftover 16-byte blocks, then finishes the 16 accumulator bytes plus
//!   the tail through the table path. Four lanes keep four multiplies in
//!   flight, so a step does not wait on the previous one: about 38 ns per
//!   KiB, against about 135 for one lane (EXPERIMENTS.md, "Four-lane CRC
//!   fold").
//! * **slice-by-8 tables** — the portable baseline: one 8-byte word per
//!   step through eight 256-entry tables (built at compile time by a
//!   `const fn`). ~8× fewer steps than byte-at-a-time and ~64× fewer
//!   than the bit-at-a-time loop it replaces in the reliability layer.
//! * **bit-at-a-time** — the original reference loop, kept for
//!   equivalence testing.
//!
//! All four produce identical values for every input; the equivalence
//! tests pin that, plus the standard check value
//! `crc32(b"123456789") == 0xCBF4_3926`.
//!
//! The fold is written once, over a small per-architecture 128-bit lane
//! primitive (`lane`: `__m128i` with `_mm_clmulepi64_si128` on x86-64,
//! `uint64x2_t` with `vmull_p64` on aarch64), so the accumulators stay in
//! vector registers and the x86-64 test run validates the fold the
//! aarch64 build executes — only the lane leaf differs. The wide stage
//! (`wide`) is a prefix of that fold, not a second kernel: the 64-byte
//! steps, the lane merge and the table finish exist once. It runs only
//! at the AVX2 tier ([`crate::active_crc`]), so an input under 256 bytes
//! never issues a 512-bit instruction, `LITEMPI_KERNEL_TIER=sse2` runs
//! the four-lane fold at every length and `scalar` the tables.

/// Running-state initializer (`!0`); the final CRC is the bitwise NOT of
/// the final state, matching the reliability layer's convention.
pub const INIT: u32 = 0xFFFF_FFFF;

/// IEEE 802.3 polynomial, reflected.
pub const POLY: u32 = 0xEDB8_8320;

/// Bit-at-a-time reference (8 iterations per byte). This is the loop the
/// reliability layer shipped with; kept as the equivalence oracle.
pub fn update_bitwise(mut crc: u32, data: &[u8]) -> u32 {
    for &byte in data {
        crc ^= byte as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (POLY & mask);
        }
    }
    crc
}

/// Eight 256-entry tables: `TABLES[k][b]` is the CRC contribution of byte
/// `b` positioned `k` bytes before the end of an 8-byte word.
const fn make_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            let mask = (c & 1).wrapping_neg();
            c = (c >> 1) ^ (POLY & mask);
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[j - 1][i];
            t[j][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    t
}

static TABLES: [[u32; 256]; 8] = make_tables();

/// Portable slice-by-8 table kernel — the scalar baseline.
pub fn update_slice8(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().unwrap()) ^ crc as u64;
        crc = TABLES[7][(word & 0xFF) as usize]
            ^ TABLES[6][((word >> 8) & 0xFF) as usize]
            ^ TABLES[5][((word >> 16) & 0xFF) as usize]
            ^ TABLES[4][((word >> 24) & 0xFF) as usize]
            ^ TABLES[3][((word >> 32) & 0xFF) as usize]
            ^ TABLES[2][((word >> 40) & 0xFF) as usize]
            ^ TABLES[1][((word >> 48) & 0xFF) as usize]
            ^ TABLES[0][(word >> 56) as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    crc
}

/// Fold constants, in the pre-shifted reflected form every PCLMULQDQ
/// CRC implementation uses (Gopal et al., 2009; zlib's `k1k2`/`k3k4`).
/// `K1 = x^(4·128+32) mod P` and `K2 = x^(4·128−32) mod P` carry one lane
/// across the 64 bytes of a four-lane step; `K3 = x^(128+32) mod P` and
/// `K4 = x^(128−32) mod P` carry the accumulator across one 16-byte block.
/// Each pair multiplies the low and the high half of a 128-bit lane.
const K1: u64 = 0x0000_0001_5444_2bd4;
const K2: u64 = 0x0000_0001_c6e4_1596;
const K3: u64 = 0x0000_0001_7519_97d0;
const K4: u64 = 0x0000_0000_ccaa_009e;

/// The 128-bit lane primitive the fold is written over, held in a vector
/// register: load, XOR, and the two-multiply fold `lo(x)·k_lo ⊕ hi(x)·k_hi`
/// (x86-64 `PCLMULQDQ` on `__m128i`). Every function needs the CPU
/// feature [`crate::clmul_runnable`] checks.
#[cfg(target_arch = "x86_64")]
mod lane {
    use core::arch::x86_64::*;

    pub(super) type Lane = __m128i;

    /// `[k_lo, k_hi]` as one lane, for [`fold`].
    #[target_feature(enable = "pclmulqdq")]
    #[inline]
    pub(super) fn keys(k_lo: u64, k_hi: u64) -> Lane {
        _mm_set_epi64x(k_hi as i64, k_lo as i64)
    }

    /// The first 16 bytes of `b` (any alignment).
    #[target_feature(enable = "pclmulqdq")]
    #[inline]
    pub(super) fn load(b: &[u8]) -> Lane {
        let b = &b[..16];
        // SAFETY: `b` is 16 readable bytes; the load is unaligned.
        unsafe { _mm_loadu_si128(b.as_ptr().cast()) }
    }

    /// `state` in the low 32 bits, zero above.
    #[target_feature(enable = "pclmulqdq")]
    #[inline]
    pub(super) fn from_u32(state: u32) -> Lane {
        _mm_cvtsi32_si128(state as i32)
    }

    #[target_feature(enable = "pclmulqdq")]
    #[inline]
    pub(super) fn xor(a: Lane, b: Lane) -> Lane {
        _mm_xor_si128(a, b)
    }

    #[target_feature(enable = "pclmulqdq")]
    #[inline]
    pub(super) fn fold(x: Lane, k: Lane) -> Lane {
        _mm_xor_si128(
            _mm_clmulepi64_si128(x, k, 0x00),
            _mm_clmulepi64_si128(x, k, 0x11),
        )
    }

    #[target_feature(enable = "pclmulqdq")]
    #[inline]
    pub(super) fn to_bytes(x: Lane) -> [u8; 16] {
        let mut out = [0u8; 16];
        // SAFETY: `out` is 16 writable bytes; the store is unaligned.
        unsafe { _mm_storeu_si128(out.as_mut_ptr().cast(), x) };
        out
    }
}

/// The same primitive on aarch64 (`PMULL` via `vmull_p64` on
/// `uint64x2_t`).
#[cfg(target_arch = "aarch64")]
mod lane {
    use core::arch::aarch64::*;

    pub(super) type Lane = uint64x2_t;

    /// `[k_lo, k_hi]` as one lane, for [`fold`].
    #[target_feature(enable = "neon", enable = "aes")]
    #[inline]
    pub(super) fn keys(k_lo: u64, k_hi: u64) -> Lane {
        vcombine_u64(vcreate_u64(k_lo), vcreate_u64(k_hi))
    }

    /// The first 16 bytes of `b` (any alignment).
    #[target_feature(enable = "neon", enable = "aes")]
    #[inline]
    pub(super) fn load(b: &[u8]) -> Lane {
        let b = &b[..16];
        // SAFETY: `b` is 16 readable bytes; the load is unaligned.
        unsafe { vreinterpretq_u64_u8(vld1q_u8(b.as_ptr())) }
    }

    /// `state` in the low 32 bits, zero above.
    #[target_feature(enable = "neon", enable = "aes")]
    #[inline]
    pub(super) fn from_u32(state: u32) -> Lane {
        vcombine_u64(vcreate_u64(state as u64), vcreate_u64(0))
    }

    #[target_feature(enable = "neon", enable = "aes")]
    #[inline]
    pub(super) fn xor(a: Lane, b: Lane) -> Lane {
        veorq_u64(a, b)
    }

    #[target_feature(enable = "neon", enable = "aes")]
    #[inline]
    pub(super) fn fold(x: Lane, k: Lane) -> Lane {
        let lo = vmull_p64(vgetq_lane_u64::<0>(x), vgetq_lane_u64::<0>(k));
        let hi = vmull_p64(vgetq_lane_u64::<1>(x), vgetq_lane_u64::<1>(k));
        veorq_u64(vreinterpretq_u64_p128(lo), vreinterpretq_u64_p128(hi))
    }

    #[target_feature(enable = "neon", enable = "aes")]
    #[inline]
    pub(super) fn to_bytes(x: Lane) -> [u8; 16] {
        let mut out = [0u8; 16];
        // SAFETY: `out` is 16 writable bytes; the store is unaligned.
        unsafe { vst1q_u8(out.as_mut_ptr(), vreinterpretq_u8_u64(x)) };
        out
    }
}

/// The fold: XOR the running state into the first block, fold 64 bytes
/// per step into four independent lanes (so the multiplies of one step
/// overlap instead of each waiting on the last), merge the lanes, then
/// fold the leftover 16-byte blocks one at a time. Returns the 16
/// accumulator bytes and how many input bytes were consumed; the caller
/// finishes with the table kernel, using the invariant
/// `update(state, data[..used]) == update(0, acc_bytes)`. Needs
/// `data.len() >= CLMUL_MIN` and, like the lane primitive, the CPU
/// feature [`crate::clmul_runnable`] checks.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
#[cfg_attr(target_arch = "x86_64", target_feature(enable = "pclmulqdq"))]
#[cfg_attr(
    target_arch = "aarch64",
    target_feature(enable = "neon", enable = "aes")
)]
fn fold(state: u32, data: &[u8]) -> ([u8; 16], usize) {
    use lane::*;
    let x = [
        xor(load(data), from_u32(state)),
        load(&data[16..]),
        load(&data[32..]),
        load(&data[48..]),
    ];
    fold_lanes(x, data, CLMUL_MIN)
}

/// The four-lane fold from lanes `x` that already hold `data[..used]`
/// (`used` a multiple of 64): 64-byte steps, the lane merge, the
/// leftover 16-byte blocks. Returns what [`fold`] returns. Both the
/// four-lane entry and the wide stage end here, so this is the one copy
/// of the loop, the merge and the block folds.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
#[cfg_attr(target_arch = "x86_64", target_feature(enable = "pclmulqdq"))]
#[cfg_attr(
    target_arch = "aarch64",
    target_feature(enable = "neon", enable = "aes")
)]
#[inline]
fn fold_lanes(mut x: [lane::Lane; 4], data: &[u8], used: usize) -> ([u8; 16], usize) {
    use lane::*;
    let k12 = keys(K1, K2);
    let mut steps = data[used..].chunks_exact(64);
    for step in &mut steps {
        for (i, xi) in x.iter_mut().enumerate() {
            *xi = xor(lane::fold(*xi, k12), load(&step[16 * i..]));
        }
    }
    let k34 = keys(K3, K4);
    let mut acc = x[0];
    for xi in &x[1..] {
        acc = xor(lane::fold(acc, k34), *xi);
    }
    let mut blocks = steps.remainder().chunks_exact(16);
    for block in &mut blocks {
        acc = xor(lane::fold(acc, k34), load(block));
    }
    (to_bytes(acc), data.len() - blocks.remainder().len())
}

/// Bulk threshold below which folding cannot win: the four lanes load
/// 64 bytes before the first fold, and the table finish of the 16
/// accumulator bytes is paid on top.
const CLMUL_MIN: usize = 64;

/// The wide stage: the same fold at four times the width, as a prefix
/// of the four-lane one. Four `__m512i` accumulators of four 128-bit
/// lanes each fold 256 bytes per step, so one `VPCLMULQDQ` does the work
/// of four `PCLMULQDQ`; they are merged into one `__m512i` with `K1`/`K2`
/// (a 64-byte shift, as between the four-lane fold's lanes), whose four
/// lanes are exactly the four-lane fold's state after the same bytes.
/// [`fold_lanes`] takes it from there.
#[cfg(target_arch = "x86_64")]
mod wide {
    use core::arch::x86_64::*;

    /// `x^(2048+32) mod P` and `x^(2048−32) mod P`, the pre-shifted
    /// reflected constants that carry a lane across one 256-byte step
    /// (low and high half of the lane, as `K1`/`K2` are for 64 bytes).
    const KW_LO: u64 = 0x0000_0001_1542_778a;
    const KW_HI: u64 = 0x0000_0001_322d_1430;

    /// Bulk threshold: the four accumulators load 256 bytes before the
    /// first fold.
    pub(super) const WIDE_MIN: usize = 256;

    /// `[k_lo, k_hi]` in each of the four lanes.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn keys(k_lo: u64, k_hi: u64) -> __m512i {
        _mm512_broadcast_i32x4(_mm_set_epi64x(k_hi as i64, k_lo as i64))
    }

    /// The first 64 bytes of `b` (any alignment).
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn load(b: &[u8]) -> __m512i {
        let b = &b[..64];
        // SAFETY: `b` is 64 readable bytes; the load is unaligned.
        unsafe { _mm512_loadu_si512(b.as_ptr().cast()) }
    }

    /// `lo(x)·k_lo ⊕ hi(x)·k_hi` in each lane.
    #[target_feature(enable = "avx512f", enable = "vpclmulqdq")]
    #[inline]
    fn fold(x: __m512i, k: __m512i) -> __m512i {
        _mm512_xor_si512(
            _mm512_clmulepi64_epi128(x, k, 0x00),
            _mm512_clmulepi64_epi128(x, k, 0x11),
        )
    }

    /// Fold every whole 256-byte step of `data` (`len >= WIDE_MIN`), the
    /// running state XORed into the first bytes, and return the four
    /// 128-bit lanes of the merged accumulator with the bytes consumed.
    #[target_feature(enable = "avx512f", enable = "vpclmulqdq", enable = "pclmulqdq")]
    pub(super) fn stage(state: u32, data: &[u8]) -> ([__m128i; 4], usize) {
        let (head, body) = data.split_at(WIDE_MIN);
        let mut x = [
            _mm512_xor_si512(
                load(head),
                _mm512_zextsi128_si512(_mm_cvtsi32_si128(state as i32)),
            ),
            load(&head[64..]),
            load(&head[128..]),
            load(&head[192..]),
        ];
        let kw = keys(KW_LO, KW_HI);
        let mut steps = body.chunks_exact(WIDE_MIN);
        for step in &mut steps {
            for (i, xi) in x.iter_mut().enumerate() {
                *xi = _mm512_xor_si512(fold(*xi, kw), load(&step[64 * i..]));
            }
        }
        let k12 = keys(super::K1, super::K2);
        let mut acc = x[0];
        for xi in &x[1..] {
            acc = _mm512_xor_si512(fold(acc, k12), *xi);
        }
        let lanes = [
            _mm512_extracti32x4_epi32::<0>(acc),
            _mm512_extracti32x4_epi32::<1>(acc),
            _mm512_extracti32x4_epi32::<2>(acc),
            _mm512_extracti32x4_epi32::<3>(acc),
        ];
        (lanes, data.len() - steps.remainder().len())
    }

    /// [`super::fold`] with the wide stage in front: same result, same
    /// contract, for `data.len() >= WIDE_MIN` on a host where
    /// [`crate::wide_clmul_runnable`] holds.
    #[target_feature(enable = "avx512f", enable = "vpclmulqdq", enable = "pclmulqdq")]
    pub(super) fn fold_wide(state: u32, data: &[u8]) -> ([u8; 16], usize) {
        let (x, used) = stage(state, data);
        super::fold_lanes(x, data, used)
    }
}

/// Carryless-multiply kernel (the four-lane fold at every length). Falls
/// back to [`update_slice8`] for short inputs or when the host lacks a
/// polynomial multiplier, so it is always safe to call.
pub fn update_clmul(state: u32, data: &[u8]) -> u32 {
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    if data.len() >= CLMUL_MIN && crate::clmul_runnable() {
        // SAFETY: clmul_runnable() confirmed the required CPU feature.
        let (acc, used) = unsafe { fold(state, data) };
        return update_slice8(update_slice8(0, &acc), &data[used..]);
    }
    update_slice8(state, data)
}

/// Carryless-multiply kernel with the 512-bit first stage for inputs of
/// 256 bytes and more. Falls back to [`update_clmul`] for shorter inputs
/// or when the host cannot run the wide stage, so it is always safe to
/// call, and an input under 256 bytes never issues a 512-bit
/// instruction.
pub fn update_wide(state: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= wide::WIDE_MIN && crate::wide_clmul_runnable() {
        // SAFETY: wide_clmul_runnable() confirmed the required CPU features.
        let (acc, used) = unsafe { wide::fold_wide(state, data) };
        return update_slice8(update_slice8(0, &acc), &data[used..]);
    }
    update_clmul(state, data)
}

/// Streaming update with the process-wide active configuration
/// ([`crate::active_crc`]): the wide stage in front of the four-lane fold
/// on an AVX-512 host at the AVX2 tier, the four-lane fold on other
/// vectorized tiers with a polynomial multiplier, the slice-by-8
/// baseline otherwise (including under `LITEMPI_KERNEL_TIER=scalar`).
/// Inputs too short to fold go straight to the tables, so an 8-byte
/// header pays no dispatch.
pub fn update(state: u32, data: &[u8]) -> u32 {
    if data.len() < CLMUL_MIN {
        return update_slice8(state, data);
    }
    match crate::active_crc() {
        0 => update_slice8(state, data),
        1 => update_clmul(state, data),
        _ => update_wide(state, data),
    }
}

/// One-shot CRC32 of `data` (init `!0`, final inversion).
pub fn crc32(data: &[u8]) -> u32 {
    !update(INIT, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oneshot(update: fn(u32, &[u8]) -> u32, data: &[u8]) -> u32 {
        !update(INIT, data)
    }

    #[test]
    fn check_value_all_kernels() {
        for f in [
            update_bitwise,
            update_slice8,
            update_clmul,
            update_wide,
            update,
        ] {
            assert_eq!(oneshot(f, b"123456789"), 0xCBF4_3926);
            assert_eq!(oneshot(f, b""), 0);
        }
    }

    #[test]
    fn kernels_agree_on_all_lengths() {
        // Every residue mod 256 past two wide steps and the four-lane steps
        // behind them, so each length meets the wide merge, 0–3 four-lane
        // steps, the lane merge and 0–3 leftover 16-byte folds, with byte
        // values exercising all 8 bits, from every start offset mod 64 and
        // from the initial state as well as a state mid-stream. The
        // reference grows one byte at a time.
        const MAX: usize = 832;
        let data: Vec<u8> = (0..(64 + MAX) as u32)
            .map(|i| (i.wrapping_mul(167) >> 3) as u8)
            .collect();
        for state in [INIT, 0x0BAD_F00D] {
            for start in 0..64 {
                let mut want = state;
                for len in 0..=MAX {
                    let d = &data[start..start + len];
                    if len > 0 {
                        want = update_bitwise(want, &d[len - 1..]);
                    }
                    assert_eq!(update_slice8(state, d), want, "slice8 len {len} at {start}");
                    assert_eq!(update_clmul(state, d), want, "clmul len {len} at {start}");
                    assert_eq!(update_wide(state, d), want, "wide len {len} at {start}");
                }
            }
        }
    }

    #[test]
    fn streaming_split_equivalence() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 31 + 7) as u8).collect();
        let want = update_bitwise(INIT, &data);
        let splits = [
            0, 1, 7, 8, 15, 16, 63, 64, 65, 255, 256, 257, 500, 511, 512, 999, 1000,
        ];
        for split in splits {
            for f in [update_slice8, update_clmul, update_wide, update] {
                let s = f(INIT, &data[..split]);
                assert_eq!(f(s, &data[split..]), want, "split at {split}");
            }
        }
    }

    #[test]
    fn clmul_runs_the_fast_path_when_available() {
        // Not an equivalence test — just makes sure the fold actually
        // executes (length over threshold) on hosts with the multiplier,
        // so CI on x86-64 genuinely covers the fold arithmetic.
        let data = vec![0xA5u8; 4096];
        assert_eq!(update_clmul(INIT, &data), update_bitwise(INIT, &data));
        if crate::clmul_runnable() {
            // SAFETY: feature-checked on the line above.
            let (acc, used) = unsafe { fold(INIT, &data) };
            assert_eq!(used, 4096);
            assert_eq!(update_slice8(0, &acc), update_bitwise(INIT, &data));
        }
    }

    #[test]
    fn wide_stage_runs_when_available() {
        // The same for the 512-bit stage: on a host that can run it, the
        // stage consumes every whole 256-byte step and the four-lane fold
        // behind it the rest down to the table tail. 1000 bytes: three
        // wide steps (768), three four-lane steps (192), two 16-byte
        // blocks (32), 8 bytes left for the tables.
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 131 + 5) as u8).collect();
        let want = update_bitwise(INIT, &data);
        assert_eq!(update_wide(INIT, &data), want);
        if !crate::wide_clmul_runnable() {
            eprintln!("wide CRC stage not runnable here (needs AVX-512F + VPCLMULQDQ)");
            return;
        }
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: feature-checked above.
            let (_, wide_used) = unsafe { wide::stage(INIT, &data) };
            assert_eq!(wide_used, 768);
            // SAFETY: as above.
            let (acc, used) = unsafe { wide::fold_wide(INIT, &data) };
            assert_eq!(used, 992);
            assert_eq!(update_slice8(update_slice8(0, &acc), &data[used..]), want);
        }
    }
}
