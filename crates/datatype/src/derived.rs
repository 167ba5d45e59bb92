//! Derived datatype constructors and the `Datatype` handle.
//!
//! The full MPI-3.1 type-constructor family relevant to data layout:
//! contiguous, vector, hvector, indexed, hindexed, indexed_block, struct,
//! subarray, and resized. Types must be committed before use in
//! communication, mirroring `MPI_TYPE_COMMIT` — commit is when the flat
//! layout is built and cached.

use crate::flatten::{FlatLayout, Segment};
use crate::predefined::Predefined;
use std::borrow::Cow;
use std::sync::Arc;

/// Errors raised by type construction and use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeError {
    /// A count/blocklength was invalid for the constructor.
    InvalidCount(&'static str),
    /// Mismatched argument array lengths (e.g. blocklens vs displacements).
    LengthMismatch(&'static str),
    /// The type was used in communication without being committed.
    NotCommitted,
    /// `subarray` arguments out of range.
    InvalidSubarray(&'static str),
}

impl std::fmt::Display for TypeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TypeError::InvalidCount(what) => write!(f, "invalid count: {what}"),
            TypeError::LengthMismatch(what) => write!(f, "argument length mismatch: {what}"),
            TypeError::NotCommitted => write!(f, "datatype used before MPI_TYPE_COMMIT"),
            TypeError::InvalidSubarray(what) => write!(f, "invalid subarray: {what}"),
        }
    }
}

impl std::error::Error for TypeError {}

/// Array storage order for `subarray`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrayOrder {
    /// Row-major (`MPI_ORDER_C`).
    C,
    /// Column-major (`MPI_ORDER_FORTRAN`).
    Fortran,
}

#[derive(Debug, PartialEq, Eq)]
struct Inner {
    layout: FlatLayout,
    committed: bool,
}

/// An MPI datatype handle. Cheap to clone (predefined types are inline;
/// derived types share an `Arc`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Datatype {
    inner: DatatypeRepr,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum DatatypeRepr {
    Basic(Predefined),
    Derived(Arc<Inner>),
}

impl Datatype {
    // ------------------------------------------------------------ predefined

    /// Wrap a predefined type (always committed).
    pub const fn basic(p: Predefined) -> Datatype {
        Datatype {
            inner: DatatypeRepr::Basic(p),
        }
    }

    /// `MPI_BYTE`.
    pub const BYTE: Datatype = Datatype::basic(Predefined::Byte);
    /// `MPI_INT32_T`.
    pub const INT32: Datatype = Datatype::basic(Predefined::Int32);
    /// `MPI_INT64_T`.
    pub const INT64: Datatype = Datatype::basic(Predefined::Int64);
    /// `MPI_UINT64_T`.
    pub const UINT64: Datatype = Datatype::basic(Predefined::UInt64);
    /// `MPI_FLOAT`.
    pub const FLOAT: Datatype = Datatype::basic(Predefined::Float32);
    /// `MPI_DOUBLE`.
    pub const DOUBLE: Datatype = Datatype::basic(Predefined::Float64);

    /// The predefined type inside, if this is a basic handle.
    pub fn as_predefined(&self) -> Option<Predefined> {
        match &self.inner {
            DatatypeRepr::Basic(p) => Some(*p),
            DatatypeRepr::Derived(_) => None,
        }
    }

    // ----------------------------------------------------------- constructors

    fn from_layout(mut layout: FlatLayout) -> Datatype {
        layout.coalesce();
        Datatype {
            inner: DatatypeRepr::Derived(Arc::new(Inner {
                layout,
                committed: false,
            })),
        }
    }

    /// `MPI_TYPE_CONTIGUOUS`.
    pub fn contiguous(count: usize, inner: &Datatype) -> Result<Datatype, TypeError> {
        Ok(Datatype::from_layout(inner.layout().repeat(count)))
    }

    /// `MPI_TYPE_VECTOR`: `count` blocks of `blocklen` elements, stride in
    /// *elements* of the inner type.
    pub fn vector(
        count: usize,
        blocklen: usize,
        stride: isize,
        inner: &Datatype,
    ) -> Result<Datatype, TypeError> {
        let ext = inner.layout().extent;
        Datatype::hvector(count, blocklen, stride * ext, inner)
    }

    /// `MPI_TYPE_CREATE_HVECTOR`: stride in *bytes*.
    pub fn hvector(
        count: usize,
        blocklen: usize,
        stride_bytes: isize,
        inner: &Datatype,
    ) -> Result<Datatype, TypeError> {
        let block = inner.layout().repeat(blocklen);
        let mut segments = Vec::with_capacity(block.segments.len() * count);
        for i in 0..count {
            let shift = i as isize * stride_bytes;
            for s in &block.segments {
                segments.push(Segment {
                    offset: s.offset + shift,
                    len: s.len,
                });
            }
        }
        let extent = if count == 0 {
            0
        } else {
            // MPI extent of a vector: from lb of first block to ub of last.
            (count as isize - 1) * stride_bytes + block.extent
        };
        Ok(Datatype::from_layout(FlatLayout {
            segments,
            lb: 0,
            extent,
        }))
    }

    /// `MPI_TYPE_INDEXED`: displacements in elements of the inner type.
    pub fn indexed(
        blocklens: &[usize],
        displacements: &[isize],
        inner: &Datatype,
    ) -> Result<Datatype, TypeError> {
        if blocklens.len() != displacements.len() {
            return Err(TypeError::LengthMismatch(
                "indexed blocklens vs displacements",
            ));
        }
        let ext = inner.layout().extent;
        let byte_displs: Vec<isize> = displacements.iter().map(|d| d * ext).collect();
        Datatype::hindexed(blocklens, &byte_displs, inner)
    }

    /// `MPI_TYPE_CREATE_INDEXED_BLOCK`: like `indexed` with one shared
    /// block length.
    pub fn indexed_block(
        blocklen: usize,
        displacements: &[isize],
        inner: &Datatype,
    ) -> Result<Datatype, TypeError> {
        let blocklens = vec![blocklen; displacements.len()];
        Datatype::indexed(&blocklens, displacements, inner)
    }

    /// `MPI_TYPE_CREATE_HINDEXED`: displacements in bytes.
    pub fn hindexed(
        blocklens: &[usize],
        byte_displacements: &[isize],
        inner: &Datatype,
    ) -> Result<Datatype, TypeError> {
        if blocklens.len() != byte_displacements.len() {
            return Err(TypeError::LengthMismatch(
                "hindexed blocklens vs displacements",
            ));
        }
        let mut segments = Vec::new();
        let mut ub = 0isize;
        let mut lb = 0isize;
        let mut first = true;
        for (&bl, &disp) in blocklens.iter().zip(byte_displacements) {
            let block = inner.layout().repeat(bl);
            for s in &block.segments {
                segments.push(Segment {
                    offset: s.offset + disp,
                    len: s.len,
                });
            }
            if first {
                lb = disp;
                ub = disp + block.extent;
                first = false;
            } else {
                lb = lb.min(disp);
                ub = ub.max(disp + block.extent);
            }
        }
        Ok(Datatype::from_layout(FlatLayout {
            segments,
            lb,
            extent: ub - lb,
        }))
    }

    /// `MPI_TYPE_CREATE_STRUCT`: heterogeneous members at byte offsets.
    pub fn structured(
        blocklens: &[usize],
        byte_displacements: &[isize],
        types: &[Datatype],
    ) -> Result<Datatype, TypeError> {
        if blocklens.len() != byte_displacements.len() || blocklens.len() != types.len() {
            return Err(TypeError::LengthMismatch("struct argument arrays"));
        }
        let mut segments = Vec::new();
        let mut lb = 0isize;
        let mut ub = 0isize;
        let mut first = true;
        for ((&bl, &disp), ty) in blocklens.iter().zip(byte_displacements).zip(types) {
            let block = ty.layout().repeat(bl);
            for s in &block.segments {
                segments.push(Segment {
                    offset: s.offset + disp,
                    len: s.len,
                });
            }
            if first {
                lb = disp;
                ub = disp + block.extent;
                first = false;
            } else {
                lb = lb.min(disp);
                ub = ub.max(disp + block.extent);
            }
        }
        Ok(Datatype::from_layout(FlatLayout {
            segments,
            lb,
            extent: ub - lb,
        }))
    }

    /// `MPI_TYPE_CREATE_SUBARRAY`: an n-dimensional sub-block of an
    /// n-dimensional array of `inner` elements.
    pub fn subarray(
        sizes: &[usize],
        subsizes: &[usize],
        starts: &[usize],
        order: ArrayOrder,
        inner: &Datatype,
    ) -> Result<Datatype, TypeError> {
        let nd = sizes.len();
        if subsizes.len() != nd || starts.len() != nd {
            return Err(TypeError::LengthMismatch("subarray argument arrays"));
        }
        if nd == 0 {
            return Err(TypeError::InvalidSubarray("zero dimensions"));
        }
        for d in 0..nd {
            if subsizes[d] == 0 || subsizes[d] + starts[d] > sizes[d] {
                return Err(TypeError::InvalidSubarray("subsize+start exceeds size"));
            }
        }
        // Normalize to row-major (C) dimension order.
        let (sizes, subsizes, starts): (Vec<usize>, Vec<usize>, Vec<usize>) = match order {
            ArrayOrder::C => (sizes.to_vec(), subsizes.to_vec(), starts.to_vec()),
            ArrayOrder::Fortran => (
                sizes.iter().rev().copied().collect(),
                subsizes.iter().rev().copied().collect(),
                starts.iter().rev().copied().collect(),
            ),
        };
        let ext = inner.layout().extent;
        // Row-major strides in elements.
        let mut stride = vec![1usize; nd];
        for d in (0..nd - 1).rev() {
            stride[d] = stride[d + 1] * sizes[d + 1];
        }
        // Enumerate rows of the innermost dimension.
        let mut segments = Vec::new();
        let mut idx = starts[..nd - 1].to_vec();
        'outer: loop {
            let mut elem = starts[nd - 1];
            for d in 0..nd - 1 {
                elem += idx[d] * stride[d];
            }
            let base = elem as isize * ext;
            let row = inner.layout().repeat(subsizes[nd - 1]);
            for s in &row.segments {
                segments.push(Segment {
                    offset: s.offset + base,
                    len: s.len,
                });
            }
            // Advance the multi-index over the outer dims.
            if nd == 1 {
                break;
            }
            let mut d = nd - 2;
            loop {
                idx[d] += 1;
                if idx[d] < starts[d] + subsizes[d] {
                    break;
                }
                idx[d] = starts[d];
                if d == 0 {
                    break 'outer;
                }
                d -= 1;
            }
        }
        let total_elems: usize = sizes.iter().product();
        segments.sort_by_key(|s| s.offset);
        Ok(Datatype::from_layout(FlatLayout {
            segments,
            lb: 0,
            extent: total_elems as isize * ext,
        }))
    }

    /// `MPI_TYPE_CREATE_RESIZED`: override lb/extent.
    pub fn resized(inner: &Datatype, lb: isize, extent: isize) -> Result<Datatype, TypeError> {
        let mut layout = inner.layout();
        layout.lb = lb;
        layout.extent = extent;
        Ok(Datatype::from_layout(layout))
    }

    // ----------------------------------------------------------------- state

    /// `MPI_TYPE_COMMIT`. Predefined types are born committed; derived types
    /// return a *new committed handle* (handles are immutable values here,
    /// unlike C MPI's in-place commit).
    pub fn commit(&self) -> Datatype {
        match &self.inner {
            DatatypeRepr::Basic(_) => self.clone(),
            DatatypeRepr::Derived(inner) => Datatype {
                inner: DatatypeRepr::Derived(Arc::new(Inner {
                    layout: inner.layout.clone(),
                    committed: true,
                })),
            },
        }
    }

    /// Is the type usable in communication?
    pub fn is_committed(&self) -> bool {
        match &self.inner {
            DatatypeRepr::Basic(_) => true,
            DatatypeRepr::Derived(inner) => inner.committed,
        }
    }

    /// The flat layout of one element.
    pub fn layout(&self) -> FlatLayout {
        self.flat().into_owned()
    }

    /// [`Self::layout`] borrowed from a derived type, which caches it: the
    /// per-message paths (size, extent, pack, unpack) read it in place
    /// instead of copying a segment list as long as the type is strided.
    pub(crate) fn flat(&self) -> Cow<'_, FlatLayout> {
        match &self.inner {
            DatatypeRepr::Basic(p) => Cow::Owned(FlatLayout::contiguous(p.size())),
            DatatypeRepr::Derived(inner) => Cow::Borrowed(&inner.layout),
        }
    }

    /// MPI "size": bytes of actual data per element.
    pub fn size(&self) -> usize {
        match &self.inner {
            DatatypeRepr::Basic(p) => p.size(),
            _ => self.flat().size(),
        }
    }

    /// MPI "extent": stride between consecutive elements.
    pub fn extent(&self) -> isize {
        match &self.inner {
            DatatypeRepr::Basic(p) => p.size() as isize,
            _ => self.flat().extent,
        }
    }

    /// Eligible for the netmod's contiguous fast path?
    pub fn is_contiguous(&self) -> bool {
        match &self.inner {
            DatatypeRepr::Basic(_) => true,
            _ => self.flat().is_contiguous(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predefined_handles() {
        assert_eq!(Datatype::DOUBLE.size(), 8);
        assert!(Datatype::DOUBLE.is_committed());
        assert!(Datatype::DOUBLE.is_contiguous());
        assert_eq!(Datatype::DOUBLE.as_predefined(), Some(Predefined::Float64));
    }

    #[test]
    fn contiguous_of_double() {
        let t = Datatype::contiguous(4, &Datatype::DOUBLE).unwrap();
        assert!(!t.is_committed());
        let t = t.commit();
        assert!(t.is_committed());
        assert_eq!(t.size(), 32);
        assert_eq!(t.extent(), 32);
        assert!(t.is_contiguous());
    }

    #[test]
    fn vector_with_gaps() {
        // 3 blocks of 2 doubles, stride 4 doubles: |XX..|XX..|XX|
        let t = Datatype::vector(3, 2, 4, &Datatype::DOUBLE)
            .unwrap()
            .commit();
        assert_eq!(t.size(), 48);
        assert_eq!(t.extent(), (2 * 4 + 2) as isize * 8); // (count-1)*stride + blocklen
        assert!(!t.is_contiguous());
        assert_eq!(t.layout().segments.len(), 3);
    }

    #[test]
    fn vector_unit_stride_is_contiguous() {
        let t = Datatype::vector(5, 1, 1, &Datatype::INT32)
            .unwrap()
            .commit();
        assert!(t.is_contiguous());
        assert_eq!(t.size(), 20);
    }

    #[test]
    fn hvector_byte_stride() {
        let t = Datatype::hvector(2, 1, 16, &Datatype::INT32)
            .unwrap()
            .commit();
        let l = t.layout();
        assert_eq!(l.segments[0].offset, 0);
        assert_eq!(l.segments[1].offset, 16);
        assert_eq!(t.extent(), 20);
    }

    #[test]
    fn indexed_matches_manual_layout() {
        let t = Datatype::indexed(&[2, 1], &[0, 4], &Datatype::INT32)
            .unwrap()
            .commit();
        let l = t.layout();
        // Blocks at elements 0..2 and 4..5 → bytes [0,8) and [16,20).
        assert_eq!(
            l.segments,
            vec![
                Segment { offset: 0, len: 8 },
                Segment { offset: 16, len: 4 }
            ]
        );
        assert_eq!(t.size(), 12);
        assert_eq!(t.extent(), 20);
    }

    #[test]
    fn indexed_length_mismatch_is_error() {
        let e = Datatype::indexed(&[1, 2], &[0], &Datatype::INT32).unwrap_err();
        assert!(matches!(e, TypeError::LengthMismatch(_)));
    }

    #[test]
    fn indexed_block_shares_blocklen() {
        let a = Datatype::indexed_block(2, &[0, 4, 9], &Datatype::INT32)
            .unwrap()
            .commit();
        let b = Datatype::indexed(&[2, 2, 2], &[0, 4, 9], &Datatype::INT32)
            .unwrap()
            .commit();
        assert_eq!(a.layout(), b.layout());
        assert_eq!(a.size(), 24);
    }

    #[test]
    fn structured_heterogeneous() {
        // struct { int32 a; double b; } with C-like padding to 16 bytes.
        let t = Datatype::structured(&[1, 1], &[0, 8], &[Datatype::INT32, Datatype::DOUBLE])
            .unwrap()
            .commit();
        assert_eq!(t.size(), 12);
        assert_eq!(t.extent(), 16);
        assert!(!t.is_contiguous());
    }

    #[test]
    fn subarray_2d_c_order() {
        // 4x4 array of int32, take the 2x2 block starting at (1,1).
        let t = Datatype::subarray(&[4, 4], &[2, 2], &[1, 1], ArrayOrder::C, &Datatype::INT32)
            .unwrap()
            .commit();
        let l = t.layout();
        // Rows 1 and 2, columns 1..3 → element offsets {5,6} and {9,10}.
        assert_eq!(
            l.segments,
            vec![
                Segment { offset: 20, len: 8 },
                Segment { offset: 36, len: 8 }
            ]
        );
        assert_eq!(t.size(), 16);
        assert_eq!(t.extent(), 64);
    }

    #[test]
    fn subarray_fortran_order_transposes() {
        let c =
            Datatype::subarray(&[4, 4], &[2, 2], &[1, 1], ArrayOrder::C, &Datatype::INT32).unwrap();
        let f = Datatype::subarray(
            &[4, 4],
            &[2, 2],
            &[1, 1],
            ArrayOrder::Fortran,
            &Datatype::INT32,
        )
        .unwrap();
        // A symmetric subarray of a symmetric array has the same layout in
        // both orders.
        assert_eq!(c.layout(), f.layout());
    }

    #[test]
    fn subarray_full_block_is_contiguous() {
        let t = Datatype::subarray(&[3, 5], &[3, 5], &[0, 0], ArrayOrder::C, &Datatype::BYTE)
            .unwrap()
            .commit();
        assert!(t.is_contiguous());
        assert_eq!(t.size(), 15);
    }

    #[test]
    fn subarray_validation() {
        let e = Datatype::subarray(&[4], &[3], &[2], ArrayOrder::C, &Datatype::BYTE).unwrap_err();
        assert!(matches!(e, TypeError::InvalidSubarray(_)));
    }

    #[test]
    fn resized_overrides_extent() {
        let t = Datatype::resized(&Datatype::INT32, 0, 16).unwrap().commit();
        assert_eq!(t.size(), 4);
        assert_eq!(t.extent(), 16);
        assert!(!t.is_contiguous());
        // Two elements stride 16 bytes apart.
        let two = Datatype::contiguous(2, &t).unwrap().commit();
        assert_eq!(two.layout().segments[1].offset, 16);
    }

    #[test]
    fn nested_vector_of_struct() {
        let rec =
            Datatype::structured(&[1, 1], &[0, 8], &[Datatype::INT32, Datatype::DOUBLE]).unwrap();
        let v = Datatype::vector(2, 1, 2, &rec).unwrap().commit();
        assert_eq!(v.size(), 24);
        // Stride of 2 records = 32 bytes.
        assert_eq!(
            v.layout().segments.iter().map(|s| s.offset).max().unwrap(),
            40
        );
    }

    #[test]
    fn commit_required_flag() {
        let t = Datatype::vector(2, 1, 2, &Datatype::BYTE).unwrap();
        assert!(!t.is_committed());
        assert!(t.commit().is_committed());
    }
}
