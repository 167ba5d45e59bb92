//! Vectorized elementwise reduction kernels.
//!
//! One kernel is `inout[i] = inout[i] OP input[i]` over `n` packed
//! elements — the inner loop of `MPI_REDUCE`/`MPI_ALLREDUCE` for
//! predefined ops, both in the blocking collectives (`Op::apply`) and in
//! the schedule engine's `Reduce` vertices.
//!
//! ## Bit-exactness argument
//!
//! Elementwise two-buffer combination **reassociates nothing**: lane `i`
//! of the output depends only on lane `i` of the two inputs, in the same
//! single operation the scalar loop performs. Vectorizing the loop changes
//! which lanes execute in the same instruction, never the arithmetic of a
//! lane, so integer results are trivially identical, and float add/mul
//! give identical values (no reassociation, no FMA contraction — Rust
//! never enables fast-math). What IEEE leaves open is which NaN payload
//! survives, and signed-zero ties. x86 keeps the first operand's NaN,
//! and the compiler may commute `a + b` and `a * b` in one tier and not
//! another, so with two NaN inputs the bare operators differ between
//! tiers in release builds. Every float kernel therefore uses one
//! explicit, fully deterministic formula in *every* tier: `sum` and
//! `prod` return a NaN `b` itself, so two NaNs keep `b`'s payload (with
//! one NaN input, that NaN is the only one the operation can return,
//! whichever operand order runs); `min`/`max` let `NaN` lose to any
//! number, keep the input (`b`) payload for two `NaN`s, and keep the
//! accumulator on exact ties (`+0 == -0`).
//! The scalar tier runs the very same generic loop without the
//! `#[target_feature]` attribute, so "scalar vs SIMD" differs only in
//! instruction selection — which the proptest equivalence suite then pins
//! across every op × type × tail-length × alignment, in debug and release
//! builds.
//!
//! Wire representation is little-endian, as everywhere in litempi; loads
//! and stores go through `from_le`/`to_le` so the kernels stay correct on
//! big-endian hosts (a no-op on x86-64/aarch64).

use crate::Tier;

/// The predefined reduction operators the kernel layer implements.
/// (`MINLOC`/`MAXLOC` operate on pair types and stay in `litempi-core`;
/// `REPLACE`/`NO_OP` are memcpy/no-op, not arithmetic.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ROp {
    /// `MPI_SUM` (wrapping for integers, IEEE add for floats).
    Sum,
    /// `MPI_PROD` (wrapping for integers, IEEE mul for floats).
    Prod,
    /// `MPI_MIN`.
    Min,
    /// `MPI_MAX`.
    Max,
    /// `MPI_BAND`.
    Band,
    /// `MPI_BOR`.
    Bor,
    /// `MPI_BXOR`.
    Bxor,
    /// `MPI_LAND` (nonzero = true, result 0/1).
    Land,
    /// `MPI_LOR`.
    Lor,
}

/// The predefined element types the kernel layer implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum RType {
    I8,
    I16,
    I32,
    I64,
    U8,
    U16,
    U32,
    U64,
    F32,
    F64,
}

impl RType {
    /// Element width in bytes.
    pub fn width(self) -> usize {
        match self {
            RType::I8 | RType::U8 => 1,
            RType::I16 | RType::U16 => 2,
            RType::I32 | RType::U32 | RType::F32 => 4,
            RType::I64 | RType::U64 | RType::F64 => 8,
        }
    }

    /// Is this a float type (on which bitwise/logical ops are illegal)?
    pub fn is_float(self) -> bool {
        matches!(self, RType::F32 | RType::F64)
    }
}

/// Is `op` defined on `ty` at the kernel level? (Mirrors the standard's
/// op/type matrix for the types the kernels carry; `litempi-core` checks
/// the full matrix first.)
pub fn legal(op: ROp, ty: RType) -> bool {
    match op {
        ROp::Sum | ROp::Prod | ROp::Min | ROp::Max => true,
        ROp::Band | ROp::Bor | ROp::Bxor | ROp::Land | ROp::Lor => !ty.is_float(),
    }
}

/// One packed element: unaligned little-endian load/store plus the nine
/// operator definitions. Implementations are macro-generated; float types
/// reject the bitwise/logical operators (the caller's legality check makes
/// those paths unreachable).
trait Elem: Copy {
    /// # Safety
    /// `p + i` must be readable for `size_of::<Self>()` bytes.
    unsafe fn load(p: *const u8, i: usize) -> Self;
    /// # Safety
    /// `p + i` must be writable for `size_of::<Self>()` bytes.
    unsafe fn store(p: *mut u8, i: usize, v: Self);
    fn sum(a: Self, b: Self) -> Self;
    fn prod(a: Self, b: Self) -> Self;
    fn min(a: Self, b: Self) -> Self;
    fn max(a: Self, b: Self) -> Self;
    fn band(a: Self, b: Self) -> Self;
    fn bor(a: Self, b: Self) -> Self;
    fn bxor(a: Self, b: Self) -> Self;
    fn land(a: Self, b: Self) -> Self;
    fn lor(a: Self, b: Self) -> Self;
}

macro_rules! int_elem {
    ($($t:ty),*) => {$(
        impl Elem for $t {
            #[inline(always)]
            unsafe fn load(p: *const u8, i: usize) -> Self {
                <$t>::from_le(p.add(i * size_of::<$t>()).cast::<$t>().read_unaligned())
            }
            #[inline(always)]
            unsafe fn store(p: *mut u8, i: usize, v: Self) {
                p.add(i * size_of::<$t>()).cast::<$t>().write_unaligned(v.to_le())
            }
            #[inline(always)]
            fn sum(a: Self, b: Self) -> Self { a.wrapping_add(b) }
            #[inline(always)]
            fn prod(a: Self, b: Self) -> Self { a.wrapping_mul(b) }
            #[inline(always)]
            fn min(a: Self, b: Self) -> Self { Ord::min(a, b) }
            #[inline(always)]
            fn max(a: Self, b: Self) -> Self { Ord::max(a, b) }
            #[inline(always)]
            fn band(a: Self, b: Self) -> Self { a & b }
            #[inline(always)]
            fn bor(a: Self, b: Self) -> Self { a | b }
            #[inline(always)]
            fn bxor(a: Self, b: Self) -> Self { a ^ b }
            #[inline(always)]
            fn land(a: Self, b: Self) -> Self { ((a != 0) && (b != 0)) as $t }
            #[inline(always)]
            fn lor(a: Self, b: Self) -> Self { ((a != 0) || (b != 0)) as $t }
        }
    )*};
}
int_elem!(i8, i16, i32, i64, u8, u16, u32, u64);

macro_rules! float_elem {
    ($($t:ty => $bits:ty),*) => {$(
        impl Elem for $t {
            #[inline(always)]
            unsafe fn load(p: *const u8, i: usize) -> Self {
                <$t>::from_bits(<$bits>::from_le(
                    p.add(i * size_of::<$t>()).cast::<$bits>().read_unaligned(),
                ))
            }
            #[inline(always)]
            unsafe fn store(p: *mut u8, i: usize, v: Self) {
                p.add(i * size_of::<$t>()).cast::<$bits>().write_unaligned(v.to_bits().to_le())
            }
            /// IEEE add, except that a NaN input `b` is the result,
            /// payload and all: two NaNs keep `b`'s payload.
            #[inline(always)]
            fn sum(a: Self, b: Self) -> Self {
                if b.is_nan() { b } else { a + b }
            }
            /// IEEE multiply, with [`sum`](Elem::sum)'s NaN rule.
            #[inline(always)]
            fn prod(a: Self, b: Self) -> Self {
                if b.is_nan() { b } else { a * b }
            }
            /// Deterministic IEEE minimum: NaN loses, two NaNs keep `b`'s
            /// payload, exact ties keep the accumulator `a`.
            #[inline(always)]
            fn min(a: Self, b: Self) -> Self {
                if a.is_nan() { b } else if b.is_nan() { a } else if b < a { b } else { a }
            }
            #[inline(always)]
            fn max(a: Self, b: Self) -> Self {
                if a.is_nan() { b } else if b.is_nan() { a } else if b > a { b } else { a }
            }
            fn band(_: Self, _: Self) -> Self { unreachable!("bitwise op on float") }
            fn bor(_: Self, _: Self) -> Self { unreachable!("bitwise op on float") }
            fn bxor(_: Self, _: Self) -> Self { unreachable!("bitwise op on float") }
            fn land(_: Self, _: Self) -> Self { unreachable!("logical op on float") }
            fn lor(_: Self, _: Self) -> Self { unreachable!("logical op on float") }
        }
    )*};
}
float_elem!(f32 => u32, f64 => u64);

/// The element loop every tier runs. `#[inline(always)]` so the
/// `#[target_feature]` leaves absorb it and vectorize it under their
/// feature set.
///
/// # Safety
/// `io` and `inp` must each cover `n` elements of `T` (any alignment).
#[inline(always)]
unsafe fn fold<T: Elem>(op: ROp, io: *mut u8, inp: *const u8, n: usize) {
    macro_rules! run {
        ($f:expr) => {{
            for i in 0..n {
                let a = T::load(io, i);
                let b = T::load(inp, i);
                T::store(io, i, $f(a, b));
            }
        }};
    }
    match op {
        ROp::Sum => run!(T::sum),
        ROp::Prod => run!(T::prod),
        ROp::Min => run!(T::min),
        ROp::Max => run!(T::max),
        ROp::Band => run!(T::band),
        ROp::Bor => run!(T::bor),
        ROp::Bxor => run!(T::bxor),
        ROp::Land => run!(T::land),
        ROp::Lor => run!(T::lor),
    }
}

/// `#[target_feature]` leaves: same loop, wider instruction selection.
/// All `unsafe` in this module bottoms out here and in the unaligned
/// element accessors.
mod leaves {
    use super::{fold, Elem, ROp};

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn fold_sse2<T: Elem>(op: ROp, io: *mut u8, inp: *const u8, n: usize) {
        fold::<T>(op, io, inp, n)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fold_avx2<T: Elem>(op: ROp, io: *mut u8, inp: *const u8, n: usize) {
        fold::<T>(op, io, inp, n)
    }

    #[cfg(target_arch = "aarch64")]
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn fold_neon<T: Elem>(op: ROp, io: *mut u8, inp: *const u8, n: usize) {
        fold::<T>(op, io, inp, n)
    }
}

fn go<T: Elem>(tier: Tier, op: ROp, io: *mut u8, inp: *const u8, n: usize) {
    // SAFETY: `reduce` checked that both buffers cover exactly `n`
    // elements; a tier is only dispatched when the host can run it
    // (re-checked defensively — an unrunnable tier degrades to scalar).
    unsafe {
        match tier {
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 if Tier::Avx2.runnable() => leaves::fold_avx2::<T>(op, io, inp, n),
            #[cfg(target_arch = "x86_64")]
            Tier::Sse2 => leaves::fold_sse2::<T>(op, io, inp, n),
            #[cfg(target_arch = "aarch64")]
            Tier::Neon if Tier::Neon.runnable() => leaves::fold_neon::<T>(op, io, inp, n),
            _ => fold::<T>(op, io, inp, n),
        }
    }
}

/// Apply `inout[i] = inout[i] OP input[i]` over packed elements of `ty`.
///
/// Both slices must be the same length and a whole number of elements
/// (the caller — `Op::apply` — validates and reports `InvalidCount`
/// before dispatching here), and `op` must be legal on `ty`. Buffers may
/// be arbitrarily misaligned; every tier performs unaligned accesses.
pub fn reduce(tier: Tier, op: ROp, ty: RType, inout: &mut [u8], input: &[u8]) {
    assert_eq!(
        inout.len(),
        input.len(),
        "kernel buffer length mismatch (validated by the caller)"
    );
    let w = ty.width();
    assert_eq!(
        inout.len() % w,
        0,
        "kernel buffer is not a whole number of elements (validated by the caller)"
    );
    debug_assert!(legal(op, ty), "illegal op/type combination {op:?}/{ty:?}");
    let n = inout.len() / w;
    let io = inout.as_mut_ptr();
    let inp = input.as_ptr();
    match ty {
        RType::I8 => go::<i8>(tier, op, io, inp, n),
        RType::I16 => go::<i16>(tier, op, io, inp, n),
        RType::I32 => go::<i32>(tier, op, io, inp, n),
        RType::I64 => go::<i64>(tier, op, io, inp, n),
        RType::U8 => go::<u8>(tier, op, io, inp, n),
        RType::U16 => go::<u16>(tier, op, io, inp, n),
        RType::U32 => go::<u32>(tier, op, io, inp, n),
        RType::U64 => go::<u64>(tier, op, io, inp, n),
        RType::F32 => go::<f32>(tier, op, io, inp, n),
        RType::F64 => go::<f64>(tier, op, io, inp, n),
    }
}

/// Every op, for sweeps in tests and benches.
pub const ALL_OPS: [ROp; 9] = [
    ROp::Sum,
    ROp::Prod,
    ROp::Min,
    ROp::Max,
    ROp::Band,
    ROp::Bor,
    ROp::Bxor,
    ROp::Land,
    ROp::Lor,
];

/// Every type, for sweeps in tests and benches.
pub const ALL_TYPES: [RType; 10] = [
    RType::I8,
    RType::I16,
    RType::I32,
    RType::I64,
    RType::U8,
    RType::U16,
    RType::U32,
    RType::U64,
    RType::F32,
    RType::F64,
];

#[cfg(test)]
mod tests {
    use super::*;

    fn f64s(xs: &[f64]) -> Vec<u8> {
        xs.iter().flat_map(|x| x.to_le_bytes()).collect()
    }

    #[test]
    fn sum_f64_all_tiers() {
        let a0 = f64s(&[1.0, 2.5, -3.0, 1e300, f64::MIN_POSITIVE]);
        let b = f64s(&[0.5, 0.25, 3.0, 1e300, f64::MIN_POSITIVE]);
        let mut want = a0.clone();
        reduce(Tier::Scalar, ROp::Sum, RType::F64, &mut want, &b);
        for tier in Tier::all_runnable() {
            let mut got = a0.clone();
            reduce(tier, ROp::Sum, RType::F64, &mut got, &b);
            assert_eq!(got, want, "tier {tier:?}");
        }
    }

    #[test]
    fn min_max_nan_and_tie_semantics_are_deterministic() {
        // A quiet NaN with a distinctive payload.
        let nan1 = f64::from_bits(0x7FF8_0000_0000_0001);
        let nan2 = f64::from_bits(0x7FF8_0000_0000_0002);
        let cases: Vec<(f64, f64)> = vec![
            (nan1, 5.0),  // NaN accumulator loses
            (5.0, nan1),  // NaN input loses
            (nan1, nan2), // two NaNs: input payload wins
            (0.0, -0.0),  // exact tie: accumulator wins
            (-0.0, 0.0),
        ];
        let a0: Vec<u8> = f64s(&cases.iter().map(|c| c.0).collect::<Vec<_>>());
        let b: Vec<u8> = f64s(&cases.iter().map(|c| c.1).collect::<Vec<_>>());
        for op in [ROp::Min, ROp::Max] {
            let mut want = a0.clone();
            reduce(Tier::Scalar, op, RType::F64, &mut want, &b);
            // Pinned semantics, element by element.
            let out: Vec<f64> = want
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                .collect();
            assert_eq!(out[0], 5.0);
            assert_eq!(out[1], 5.0);
            assert_eq!(out[2].to_bits(), nan2.to_bits(), "input NaN payload kept");
            assert_eq!(out[3].to_bits(), 0.0f64.to_bits(), "tie keeps accumulator");
            assert_eq!(out[4].to_bits(), (-0.0f64).to_bits());
            for tier in Tier::all_runnable() {
                let mut got = a0.clone();
                reduce(tier, op, RType::F64, &mut got, &b);
                assert_eq!(got, want, "tier {tier:?} op {op:?}");
            }
        }
    }

    #[test]
    fn integer_ops_wrap_and_saturate_nothing() {
        let a0: Vec<u8> = [i32::MAX, -7, 0, 1]
            .iter()
            .flat_map(|x| x.to_le_bytes())
            .collect();
        let b: Vec<u8> = [2i32, 3, 0, 0]
            .iter()
            .flat_map(|x| x.to_le_bytes())
            .collect();
        let mut sum = a0.clone();
        reduce(detect_best(), ROp::Sum, RType::I32, &mut sum, &b);
        let got: Vec<i32> = sum
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(got, vec![i32::MAX.wrapping_add(2), -4, 0, 1]);

        let mut land = a0.clone();
        reduce(detect_best(), ROp::Land, RType::I32, &mut land, &b);
        let got: Vec<i32> = land
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(got, vec![1, 1, 0, 0]);
    }

    fn detect_best() -> Tier {
        *Tier::all_runnable().last().unwrap()
    }

    #[test]
    fn unaligned_buffers_match_aligned() {
        // Same payload at offsets 0 and 1 within a larger allocation.
        let n = 257usize; // odd tail on every vector width
        let payload_a: Vec<u8> = (0..n * 4).map(|i| (i * 37 + 11) as u8).collect();
        let payload_b: Vec<u8> = (0..n * 4).map(|i| (i * 53 + 5) as u8).collect();
        let mut want = payload_a.clone();
        reduce(Tier::Scalar, ROp::Max, RType::I32, &mut want, &payload_b);
        for tier in Tier::all_runnable() {
            let mut shifted_a = vec![0u8; n * 4 + 1];
            let mut shifted_b = vec![0u8; n * 4 + 1];
            shifted_a[1..].copy_from_slice(&payload_a);
            shifted_b[1..].copy_from_slice(&payload_b);
            reduce(
                tier,
                ROp::Max,
                RType::I32,
                &mut shifted_a[1..],
                &shifted_b[1..],
            );
            assert_eq!(&shifted_a[1..], &want[..], "tier {tier:?}");
        }
    }

    #[test]
    fn legality_matrix() {
        for ty in ALL_TYPES {
            for op in ALL_OPS {
                let want = !(ty.is_float()
                    && matches!(op, ROp::Band | ROp::Bor | ROp::Bxor | ROp::Land | ROp::Lor));
                assert_eq!(legal(op, ty), want, "{op:?} on {ty:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut a = vec![0u8; 8];
        reduce(Tier::Scalar, ROp::Sum, RType::I32, &mut a, &[0u8; 4]);
    }
}
