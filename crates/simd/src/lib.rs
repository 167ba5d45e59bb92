//! Runtime-dispatched SIMD kernels for the per-byte hot paths.
//!
//! The paper's thesis is that MPI's critical path is dominated by avoidable
//! *software* overhead. PRs 1–5 made the per-*message* path lean; what
//! remained was per-*byte* work executed scalar: reduction ops combined
//! elements one `from_le_bytes` at a time, the datatype engine packed
//! strided layouts one `copy_from_slice` per tiny segment, and the
//! reliability layer's CRC32 was a bit-at-a-time loop (8 iterations per
//! byte on every reliable packet). This crate is the kernel layer that
//! pushes that work down to hardware-shaped code while keeping the
//! portable API — and the produced bytes — identical.
//!
//! ## Dispatch architecture
//!
//! A [`Tier`] is selected **once** per process ([`active`]) by runtime CPU
//! feature detection: AVX2 then SSE2 on x86-64, NEON on aarch64, scalar
//! everywhere else. Every kernel entry point also accepts an *explicit*
//! tier so the equivalence tests (`tests/prop_kernels.rs`) can drive any tier
//! that is runnable on the host ([`Tier::runnable`]) without touching
//! process state.
//!
//! `unsafe` is confined to `#[target_feature]` leaf functions (plus the
//! unaligned loads/stores they are built from). The leaves contain plain
//! element loops; enabling the target feature lets the compiler emit
//! vector code for them, and the *scalar* tier runs the same loop without
//! the feature — which is what makes bit-exactness an argument about
//! arithmetic, not about code shape (see the module docs of [`reduce`]).
//!
//! The scalar fallback is always available and force-selectable for
//! testing: `LITEMPI_KERNEL_TIER=scalar|sse2|avx2|neon` selects a specific
//! tier (falling back to scalar when the host cannot run it), so
//! `LITEMPI_KERNEL_TIER=scalar` pins the process to [`Tier::Scalar`]. The
//! CI forced-scalar job runs the whole equivalence suite under this pin
//! so the fallback path can never rot.
//!
//! ## What lives where
//!
//! * [`reduce`] — elementwise two-buffer combination for the predefined
//!   reduction ops (`litempi-core`'s `Op::apply` and the schedule
//!   engine's `Reduce` vertices).
//! * [`pack`] — strided gather/scatter segment copies (`litempi-datatype`'s
//!   pack/unpack engine, feeding pooled wire buffers directly).
//! * [`crc`] — table-based slice-by-8 CRC32 baseline plus a four-lane
//!   carryless-multiply fold (PCLMULQDQ / ARM PMULL), with a 512-bit
//!   `VPCLMULQDQ` first stage for inputs of 256 B and more on AVX-512
//!   hosts (`litempi-fabric`'s reliability layer).
//!
//! Kernels change wall-clock time only. Instruction *charges* live in the
//! layers above (`litempi-instr` categories, `cost::relia` CRC charges)
//! and are a model of the work's size, not of the kernel implementation,
//! so every calibrated pin is unchanged by construction.

#![warn(missing_docs)]

pub mod crc;
pub mod pack;
pub mod reduce;

use std::sync::OnceLock;

/// One rung of the kernel ladder. Ordering is meaningful per architecture
/// (`Sse2 < Avx2` on x86-64); `Scalar` is runnable everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tier {
    /// Portable scalar loops — always available, the reference semantics.
    Scalar,
    /// x86-64 SSE2 (baseline on every x86-64; 16-byte vectors).
    Sse2,
    /// x86-64 AVX2 (32-byte vectors).
    Avx2,
    /// aarch64 NEON (baseline on every aarch64; 16-byte vectors).
    Neon,
}

impl Tier {
    /// Stable display name (also the `LITEMPI_KERNEL_TIER` spelling).
    pub fn name(self) -> &'static str {
        match self {
            Tier::Scalar => "scalar",
            Tier::Sse2 => "sse2",
            Tier::Avx2 => "avx2",
            Tier::Neon => "neon",
        }
    }

    /// Stable numeric id for trace events (`a` field of `KernelTier`).
    pub fn id(self) -> u64 {
        match self {
            Tier::Scalar => 0,
            Tier::Sse2 => 1,
            Tier::Avx2 => 2,
            Tier::Neon => 3,
        }
    }

    /// Parse a `LITEMPI_KERNEL_TIER` spelling.
    pub fn parse(s: &str) -> Option<Tier> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(Tier::Scalar),
            "sse2" => Some(Tier::Sse2),
            "avx2" => Some(Tier::Avx2),
            "neon" => Some(Tier::Neon),
            _ => None,
        }
    }

    /// Can the host CPU execute this tier's kernels?
    pub fn runnable(self) -> bool {
        match self {
            Tier::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Tier::Sse2 => true, // architectural baseline on x86-64
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "aarch64")]
            Tier::Neon => std::arch::is_aarch64_feature_detected!("neon"),
            #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
            _ => false,
            #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
            _ => false,
        }
    }

    /// Every tier the host can execute, scalar first — the sweep the
    /// equivalence tests iterate.
    pub fn all_runnable() -> Vec<Tier> {
        [Tier::Scalar, Tier::Sse2, Tier::Avx2, Tier::Neon]
            .into_iter()
            .filter(|t| t.runnable())
            .collect()
    }
}

/// Best tier the hardware supports, ignoring environment overrides.
pub fn detect() -> Tier {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return Tier::Avx2;
        }
        return Tier::Sse2;
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            return Tier::Neon;
        }
    }
    #[allow(unreachable_code)]
    Tier::Scalar
}

/// Is a carryless-multiply CRC unit available (x86-64 PCLMULQDQ, or
/// aarch64 PMULL)? Independent of the elementwise [`Tier`]: the CRC
/// fast path gates on this *and* on the active tier being non-scalar, so
/// `LITEMPI_KERNEL_TIER=scalar` pins the CRC to the slice-by-8 baseline
/// too (see [`active_crc`]).
pub fn clmul_runnable() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        return std::arch::is_x86_feature_detected!("pclmulqdq");
    }
    #[cfg(target_arch = "aarch64")]
    {
        return std::arch::is_aarch64_feature_detected!("aes");
    }
    #[allow(unreachable_code)]
    false
}

fn select_from_env() -> Tier {
    if let Ok(v) = std::env::var("LITEMPI_KERNEL_TIER") {
        return match Tier::parse(&v) {
            Some(t) if t.runnable() => t,
            // Unknown or not runnable here: the safe fallback, never a
            // crash — the point of runtime dispatch.
            _ => Tier::Scalar,
        };
    }
    detect()
}

/// The process-wide kernel tier: detected (or forced via environment)
/// once, then cached. This is what the wired-in call sites use.
pub fn active() -> Tier {
    static ACTIVE: OnceLock<Tier> = OnceLock::new();
    *ACTIVE.get_or_init(select_from_env)
}

/// Is the 512-bit first stage of the CRC fold runnable (x86-64 AVX-512F
/// with `VPCLMULQDQ`, on top of [`clmul_runnable`])? Always false off
/// x86-64.
pub fn wide_clmul_runnable() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        return clmul_runnable()
            && std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("vpclmulqdq");
    }
    #[allow(unreachable_code)]
    false
}

/// Which CRC kernel the *active* configuration runs on long inputs:
/// 0 the slice-by-8 tables, 1 the four-lane carryless-multiply fold,
/// 2 the fold behind its 512-bit first stage (`b` field of the
/// `KernelTier` trace event). The wide stage needs the AVX2 tier, so
/// `LITEMPI_KERNEL_TIER=sse2` keeps the four-lane fold and `scalar` the
/// tables.
pub fn active_crc() -> u64 {
    static LEVEL: OnceLock<u64> = OnceLock::new();
    *LEVEL.get_or_init(|| match active() {
        Tier::Scalar => 0,
        _ if !clmul_runnable() => 0,
        Tier::Avx2 if wide_clmul_runnable() => 2,
        _ => 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_runnable() {
        assert!(Tier::Scalar.runnable());
        assert_eq!(Tier::all_runnable()[0], Tier::Scalar);
    }

    #[test]
    fn detect_is_runnable_and_cached_active_is_too() {
        assert!(detect().runnable());
        assert!(active().runnable());
        assert_eq!(active(), active(), "cached selection is stable");
    }

    #[test]
    fn tier_names_round_trip() {
        for t in [Tier::Scalar, Tier::Sse2, Tier::Avx2, Tier::Neon] {
            assert_eq!(Tier::parse(t.name()), Some(t));
        }
        assert_eq!(Tier::parse("AVX2"), Some(Tier::Avx2));
        assert_eq!(Tier::parse("riscv-v"), None);
    }

    #[test]
    fn ids_are_distinct_and_stable() {
        assert_eq!(
            [Tier::Scalar, Tier::Sse2, Tier::Avx2, Tier::Neon].map(Tier::id),
            [0, 1, 2, 3]
        );
    }

    #[test]
    fn crc_level_follows_the_active_tier() {
        let level = active_crc();
        assert_eq!(level == 0, active() == Tier::Scalar || !clmul_runnable());
        assert_eq!(level == 2, active() == Tier::Avx2 && wide_clmul_runnable());
        assert!(level <= 2);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn x86_64_baseline_includes_sse2() {
        assert!(Tier::Sse2.runnable());
        assert!(detect() >= Tier::Sse2);
        assert!(!Tier::Neon.runnable());
    }
}
