//! Pack/unpack engine (`MPI_PACK` / `MPI_UNPACK` and the internal engine
//! the netmod uses when a non-contiguous layout must travel as a
//! contiguous wire buffer — the paper's active-message fallback case).
//!
//! The byte movement itself is delegated to `litempi-simd`'s
//! runtime-dispatched gather/scatter kernels ([`litempi_simd::pack`]):
//! this module owns layout traversal and bounds validation, the kernel
//! layer owns how each contiguous segment is copied. [`pack_into`] is the
//! fast path — it gathers straight into an exactly-sized destination
//! (e.g. a pooled wire buffer) with no intermediate staging and no
//! per-segment closure dispatch.

use crate::derived::Datatype;
use crate::flatten::FlatLayout;

/// Validated `(buffer_offset, len)` segment stream for `count` elements:
/// the input to the kernel-layer gather/scatter. Bounds are asserted
/// here, as segments are yielded, with the engine's diagnostics; `what`
/// names the operation and `buf_len` the strided buffer being checked.
fn segments<'a>(
    layout: &'a FlatLayout,
    count: usize,
    buf_len: usize,
    what: &'static str,
) -> impl Iterator<Item = (usize, usize)> + 'a {
    (0..count).flat_map(move |i| {
        let base = i as isize * layout.extent;
        layout.segments.iter().map(move |seg| {
            let start = base + seg.offset;
            assert!(
                start >= 0,
                "{what}: segment offset {start} before buffer start"
            );
            let start = start as usize;
            let end = start + seg.len;
            assert!(
                end <= buf_len,
                "{what}: segment [{start},{end}) beyond buffer {buf_len}"
            );
            (start, seg.len)
        })
    })
}

/// Number of bytes `count` elements of `ty` occupy on the wire.
pub fn packed_size(ty: &Datatype, count: usize) -> usize {
    ty.size() * count
}

/// Number of bytes `count` elements of `ty` span in memory.
///
/// For a positive-extent type this is `extent * (count-1) + true_extent`;
/// we require the buffer to cover `extent * count` for simplicity (always
/// sufficient; equals the MPI span for types without a shrunken extent).
pub fn span(ty: &Datatype, count: usize) -> usize {
    (ty.extent().unsigned_abs()) * count
}

/// Pack `count` elements of `ty` from `src` into a contiguous `Vec`.
///
/// `src` must be at least [`span`] bytes. Negative segment offsets (legal
/// in MPI via `hindexed`) are supported as long as they stay within `src`
/// when added to the element base.
pub fn pack(ty: &Datatype, count: usize, src: &[u8]) -> Vec<u8> {
    let mut out = vec![0u8; packed_size(ty, count)];
    pack_into(ty, count, src, &mut out);
    out
}

/// Pack `count` elements of `ty` from `src` into `dst`, which must be
/// **exactly** [`packed_size`] bytes (the kernel-layer gather owns every
/// byte of the destination; see [`litempi_simd::pack::gather`]). Returns
/// the bytes written. This is the zero-staging path the payload pipeline
/// uses to gather a non-contiguous layout straight into a pooled wire
/// buffer.
pub fn pack_into(ty: &Datatype, count: usize, src: &[u8], dst: &mut [u8]) -> usize {
    let need = packed_size(ty, count);
    assert_eq!(
        dst.len(),
        need,
        "pack_into: destination must be exactly the packed size"
    );
    let layout = ty.flat();
    litempi_simd::pack::gather(
        litempi_simd::active(),
        src,
        dst,
        segments(&layout, count, src.len(), "pack"),
    )
}

/// Pack `count` elements of `ty` from `src` directly into a writer, one
/// contiguous segment at a time — the pack-into-writer entry point the
/// single-copy payload pipeline uses to gather a non-contiguous layout
/// straight into a pooled wire buffer, with no intermediate staging `Vec`.
///
/// Bounds requirements match [`pack`].
pub fn pack_with(ty: &Datatype, count: usize, src: &[u8], mut sink: impl FnMut(&[u8])) {
    let layout = ty.flat();
    for i in 0..count {
        let base = i as isize * layout.extent;
        for seg in &layout.segments {
            let start = base + seg.offset;
            assert!(
                start >= 0,
                "pack: segment offset {start} before buffer start"
            );
            let start = start as usize;
            let end = start + seg.len;
            assert!(
                end <= src.len(),
                "pack: segment [{start},{end}) beyond buffer {}",
                src.len()
            );
            sink(&src[start..end]);
        }
    }
}

/// Unpack a contiguous wire buffer into `count` elements of `ty` at `dst`.
/// Returns the number of wire bytes consumed.
pub fn unpack(ty: &Datatype, count: usize, wire: &[u8], dst: &mut [u8]) -> usize {
    let layout = ty.flat();
    // The scatter kernel never writes outside the yielded segments, so
    // the datatype's gaps in `dst` are preserved, as the standard
    // requires.
    litempi_simd::pack::scatter(
        litempi_simd::active(),
        wire,
        dst,
        segments(&layout, count, dst.len(), "unpack"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derived::ArrayOrder;

    #[test]
    fn contiguous_pack_is_identity() {
        let src: Vec<u8> = (0..32).collect();
        let packed = pack(&Datatype::BYTE, 32, &src);
        assert_eq!(packed, src);
        let mut dst = vec![0u8; 32];
        let used = unpack(&Datatype::BYTE, 32, &packed, &mut dst);
        assert_eq!(used, 32);
        assert_eq!(dst, src);
    }

    #[test]
    fn vector_pack_gathers_strided() {
        // Bytes 0..16; vector of 4 blocks of 1 int32-sized block, stride 2.
        let src: Vec<u8> = (0..32).collect();
        let t = Datatype::vector(4, 1, 2, &Datatype::INT32)
            .unwrap()
            .commit();
        let packed = pack(&t, 1, &src);
        assert_eq!(packed.len(), 16);
        // Elements 0, 2, 4, 6 → bytes 0..4, 8..12, 16..20, 24..28.
        assert_eq!(&packed[0..4], &[0, 1, 2, 3]);
        assert_eq!(&packed[4..8], &[8, 9, 10, 11]);
        assert_eq!(&packed[12..16], &[24, 25, 26, 27]);
    }

    #[test]
    fn vector_roundtrip_restores_layout() {
        let src: Vec<u8> = (0..40).collect();
        let t = Datatype::vector(2, 2, 5, &Datatype::INT32)
            .unwrap()
            .commit();
        let packed = pack(&t, 1, &src);
        let mut dst = vec![0xFFu8; 40];
        unpack(&t, 1, &packed, &mut dst);
        // Data positions restored, gaps untouched (0xFF).
        assert_eq!(&dst[0..8], &src[0..8]);
        assert!(dst[8..20].iter().all(|&b| b == 0xFF));
        assert_eq!(&dst[20..28], &src[20..28]);
    }

    #[test]
    fn multi_count_strides_by_extent() {
        // Resized int32 with extent 8: two elements live at offsets 0 and 8.
        let t = Datatype::resized(&Datatype::INT32, 0, 8).unwrap().commit();
        let src: Vec<u8> = (0..16).collect();
        let packed = pack(&t, 2, &src);
        assert_eq!(packed, vec![0, 1, 2, 3, 8, 9, 10, 11]);
        let mut dst = vec![0u8; 16];
        let used = unpack(&t, 2, &packed, &mut dst);
        assert_eq!(used, 8);
        assert_eq!(&dst[0..4], &[0, 1, 2, 3]);
        assert_eq!(&dst[8..12], &[8, 9, 10, 11]);
    }

    #[test]
    fn subarray_pack_extracts_block() {
        // 4x4 byte matrix with values = linear index; extract middle 2x2.
        let src: Vec<u8> = (0..16).collect();
        let t = Datatype::subarray(&[4, 4], &[2, 2], &[1, 1], ArrayOrder::C, &Datatype::BYTE)
            .unwrap()
            .commit();
        let packed = pack(&t, 1, &src);
        assert_eq!(packed, vec![5, 6, 9, 10]);
    }

    #[test]
    fn pack_with_matches_pack() {
        let src: Vec<u8> = (0..32).collect();
        let t = Datatype::vector(4, 1, 2, &Datatype::INT32)
            .unwrap()
            .commit();
        let mut streamed = Vec::new();
        let mut segments = 0;
        pack_with(&t, 1, &src, |seg| {
            segments += 1;
            streamed.extend_from_slice(seg);
        });
        assert_eq!(streamed, pack(&t, 1, &src));
        assert_eq!(segments, 4, "one sink call per contiguous segment");
    }

    #[test]
    fn pack_into_matches_pack() {
        let t = Datatype::vector(5, 3, 8, &Datatype::INT32)
            .unwrap()
            .commit();
        let src: Vec<u8> = (0..span(&t, 4)).map(|i| (i * 37 + 11) as u8).collect();
        for count in [1usize, 2, 4] {
            let want = pack(&t, count, &src);
            let mut dst = vec![0xEEu8; packed_size(&t, count)];
            let n = pack_into(&t, count, &src, &mut dst);
            assert_eq!(n, dst.len());
            assert_eq!(dst, want);
        }
    }

    #[test]
    #[should_panic(expected = "exactly the packed size")]
    fn pack_into_wrong_dst_size_panics() {
        let src = vec![0u8; 16];
        let mut dst = vec![0u8; 3];
        pack_into(&Datatype::INT32, 1, &src, &mut dst);
    }

    #[test]
    fn packed_size_and_span() {
        let t = Datatype::vector(3, 2, 4, &Datatype::DOUBLE)
            .unwrap()
            .commit();
        assert_eq!(packed_size(&t, 2), 2 * 48);
        assert_eq!(span(&t, 1), t.extent() as usize);
    }

    #[test]
    #[should_panic(expected = "beyond buffer")]
    fn pack_out_of_bounds_panics() {
        let t = Datatype::vector(4, 1, 4, &Datatype::INT32)
            .unwrap()
            .commit();
        let src = vec![0u8; 8]; // far too small
        let _ = pack(&t, 1, &src);
    }

    #[test]
    fn struct_roundtrip() {
        let t = Datatype::structured(&[1, 1], &[0, 8], &[Datatype::INT32, Datatype::DOUBLE])
            .unwrap()
            .commit();
        let mut src = vec![0u8; 16];
        src[0..4].copy_from_slice(&7i32.to_le_bytes());
        src[8..16].copy_from_slice(&3.25f64.to_le_bytes());
        let packed = pack(&t, 1, &src);
        assert_eq!(packed.len(), 12);
        let mut dst = vec![0u8; 16];
        unpack(&t, 1, &packed, &mut dst);
        assert_eq!(i32::from_le_bytes(dst[0..4].try_into().unwrap()), 7);
        assert_eq!(f64::from_le_bytes(dst[8..16].try_into().unwrap()), 3.25);
    }
}
