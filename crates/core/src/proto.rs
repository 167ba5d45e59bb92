//! Wire protocol: payload envelopes, active-message handler ids, and
//! header encodings shared by the devices.
//!
//! Two-sided payloads start with a one-byte kind: eager data travels
//! inline; large or synchronous-mode sends travel as an RTS (ready-to-send)
//! descriptor whose data the receiver *pulls* from the rendezvous table —
//! the RDMA-read rendezvous protocol used by modern MPI stacks.

use crate::error::{MpiError, MpiResult};
use bytes::{BufMut, Bytes};
use litempi_datatype::{pack, Datatype};
use litempi_fabric::Fabric;
use std::sync::Arc;

/// Payload kind for tagged messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadKind {
    /// Inline eager data.
    Eager,
    /// Rendezvous RTS: payload is `[rndv_id: u64][len: u64]`.
    Rts,
    /// RDMA rendezvous RTS: payload is `[rndv_id: u64][len: u64][key: u64]`.
    /// The sender has staged the wire bytes in a registered region (`key`);
    /// the receiver RDMA-reads them directly, bypassing the pull-based
    /// rendezvous table (foMPI-style one-sided rendezvous).
    RtsRma,
}

/// Build an eager payload for contiguous `data`, leasing the wire buffer
/// from `vci`'s arena (arena 0 unless the fabric runs multiple VCIs): the
/// envelope byte, then the user data copied in exactly once — zero heap
/// allocations when the pool is warm.
pub fn eager_payload(fabric: &Fabric, vci: usize, data: &[u8]) -> Bytes {
    let mut buf = fabric.pool_vci(vci).take(1 + data.len());
    buf.put_u8(0);
    buf.put_slice(data);
    buf.freeze()
}

/// Build an eager payload for `count` elements of `ty` at `buf`,
/// packing a non-contiguous layout directly into the wire buffer
/// (single copy).
pub fn eager_packed(fabric: &Fabric, vci: usize, ty: &Datatype, count: usize, buf: &[u8]) -> Bytes {
    let wire_len = pack::packed_size(ty, count);
    if ty.is_contiguous() {
        return eager_payload(fabric, vci, &buf[..wire_len]);
    }
    let mut wire = fabric.pool_vci(vci).take(1 + wire_len);
    wire.put_u8(0);
    // The SIMD gather fills the pooled window in place, no per-segment
    // sink dispatch.
    pack::pack_into(ty, count, buf, wire.put_zeroed(wire_len));
    wire.freeze()
}

/// Build an RTS payload. The 17-byte envelope is pooled too: rendezvous
/// control traffic recycles like eager data.
pub fn rts_payload(fabric: &Fabric, vci: usize, rndv_id: u64, len: usize) -> Bytes {
    let mut buf = fabric.pool_vci(vci).take(17);
    buf.put_u8(1);
    buf.put_u64_le(rndv_id);
    buf.put_u64_le(len as u64);
    buf.freeze()
}

/// Stage `data` for a pull rendezvous: the one copy a collective message
/// above the eager ceiling pays. The staging buffer is leased from `vci`'s
/// arena — no envelope byte, the storage goes into the rendezvous table as
/// is — and the receiver's lease recycles it, so large collective traffic
/// allocates nothing once the pool is warm. Several destinations share one
/// staging (`Arc` clones); the last reader to release it is the recycler.
pub fn stage_rndv(fabric: &Fabric, vci: usize, data: &[u8]) -> Arc<Vec<u8>> {
    let mut buf = fabric.pool_vci(vci).take(data.len());
    buf.put_slice(data);
    buf.freeze().into_storage()
}

/// Build an RDMA-rendezvous RTS payload: the 25-byte descriptor names the
/// registered region (`key`) the receiver reads the message body from.
pub fn rts_rma_payload(fabric: &Fabric, vci: usize, rndv_id: u64, len: usize, key: u64) -> Bytes {
    let mut buf = fabric.pool_vci(vci).take(25);
    buf.put_u8(2);
    buf.put_u64_le(rndv_id);
    buf.put_u64_le(len as u64);
    buf.put_u64_le(key);
    buf.freeze()
}

/// Decode a tagged payload, surfacing damage as [`MpiError::Integrity`]
/// instead of panicking — the entry point the reliability-aware receive
/// path uses so a corrupted envelope degrades gracefully.
pub fn try_decode(payload: &Bytes) -> MpiResult<(PayloadKind, DecodedPayload<'_>)> {
    match payload.first() {
        Some(0) => Ok((PayloadKind::Eager, DecodedPayload::Eager(&payload[1..]))),
        Some(1) => {
            if payload.len() < 17 {
                return Err(MpiError::Integrity("rts header shorter than 17 bytes"));
            }
            let rndv_id = u64::from_le_bytes(payload[1..9].try_into().expect("len checked"));
            let len = u64::from_le_bytes(payload[9..17].try_into().expect("len checked")) as usize;
            Ok((PayloadKind::Rts, DecodedPayload::Rts { rndv_id, len }))
        }
        Some(2) => {
            if payload.len() < 25 {
                return Err(MpiError::Integrity("rts-rma header shorter than 25 bytes"));
            }
            let rndv_id = u64::from_le_bytes(payload[1..9].try_into().expect("len checked"));
            let len = u64::from_le_bytes(payload[9..17].try_into().expect("len checked")) as usize;
            let key = u64::from_le_bytes(payload[17..25].try_into().expect("len checked"));
            Ok((
                PayloadKind::RtsRma,
                DecodedPayload::RtsRma { rndv_id, len, key },
            ))
        }
        _ => Err(MpiError::Integrity("unknown payload envelope kind")),
    }
}

/// Length of the message a tagged payload carries (eager) or announces
/// (rendezvous) — what a probe reports.
pub(crate) fn message_len(payload: &Bytes) -> MpiResult<usize> {
    Ok(match try_decode(payload)?.1 {
        DecodedPayload::Eager(data) => data.len(),
        DecodedPayload::Rts { len, .. } | DecodedPayload::RtsRma { len, .. } => len,
    })
}

/// Decoded view of a tagged payload.
#[derive(Debug)]
pub enum DecodedPayload<'a> {
    /// Eager data slice.
    Eager(&'a [u8]),
    /// Rendezvous descriptor.
    Rts {
        /// Rendezvous-table key.
        rndv_id: u64,
        /// Full message length.
        len: usize,
    },
    /// RDMA-rendezvous descriptor: the receiver reads `len` bytes from the
    /// sender's registered region `key`, then acknowledges via the
    /// rendezvous table entry `rndv_id`.
    RtsRma {
        /// Rendezvous-table key (completion tracking at the sender).
        rndv_id: u64,
        /// Full message length.
        len: usize,
        /// Sender-side registered-region key holding the wire bytes.
        key: u64,
    },
}

// ------------------------------------------------------------------ AM ids

/// Pt2pt message carried over active messages (AM-only provider: the CH4
/// core runs its own matching).
pub const AM_PT2PT: u16 = 1;
/// One-sided put applied by the target's progress engine.
pub const AM_RMA_PUT: u16 = 2;
/// One-sided get request (reply expected).
pub const AM_RMA_GET_REQ: u16 = 3;
/// Reply to a get/get_accumulate request.
pub const AM_RMA_GET_REPLY: u16 = 4;
/// One-sided accumulate.
pub const AM_RMA_ACC: u16 = 5;
/// Get-accumulate (fetch then op; reply expected).
pub const AM_RMA_GETACC_REQ: u16 = 6;
/// PSCW: exposure-epoch "post" notification.
pub const AM_PSCW_POST: u16 = 7;
/// PSCW: access-epoch "complete" notification.
pub const AM_PSCW_COMPLETE: u16 = 8;
/// ULFM communicator revocation notice: the sender has revoked the
/// communicator whose (user-channel) context id rides in h0. The payload
/// carries the communicator's membership as world ranks (`u32` LE each);
/// a receiver that learns of the revocation for the first time re-forwards
/// the notice to every other member it can still reach, so the broadcast
/// survives the failure of any subset of ranks that leaves the survivor
/// graph connected (forward-once reliable broadcast).
pub const AM_COMM_REVOKE: u16 = 9;

/// Fixed-size AM header layout helpers. The 32-byte header carries four
/// u64 fields; their meaning depends on the handler id:
///
/// | handler            | h0          | h1      | h2    | h3         |
/// |--------------------|-------------|---------|-------|------------|
/// | `AM_PT2PT`         | match_bits  | —       | —     | src world  |
/// | `AM_RMA_PUT`       | win id      | offset  | len   | ack op id (0 = none) |
/// | `AM_RMA_ACC`       | win id      | offset  | len   | op code    |
/// | `AM_RMA_GET_REQ`   | win id      | offset  | len   | op id      |
/// | `AM_RMA_GETACC_REQ`| win id      | offset  | len   | op id      |
/// | `AM_RMA_GET_REPLY` | op id       | —       | —     | —          |
/// | `AM_PSCW_*`        | win id      | —       | —     | src rank   |
/// | `AM_COMM_REVOKE`   | context id  | —       | —     | src world  |
pub fn header(h0: u64, h1: u64, h2: u64, h3: u64) -> [u8; 32] {
    let mut out = [0u8; 32];
    out[0..8].copy_from_slice(&h0.to_le_bytes());
    out[8..16].copy_from_slice(&h1.to_le_bytes());
    out[16..24].copy_from_slice(&h2.to_le_bytes());
    out[24..32].copy_from_slice(&h3.to_le_bytes());
    out
}

/// Decode the four u64 header fields.
pub fn parse_header(h: &[u8; 32]) -> (u64, u64, u64, u64) {
    (
        u64::from_le_bytes(h[0..8].try_into().unwrap()),
        u64::from_le_bytes(h[8..16].try_into().unwrap()),
        u64::from_le_bytes(h[16..24].try_into().unwrap()),
        u64::from_le_bytes(h[24..32].try_into().unwrap()),
    )
}

/// Op codes for accumulate-family AM headers (h3 of `AM_RMA_ACC`).
pub mod acc_op {
    /// `MPI_REPLACE` (plain put semantics under accumulate atomicity).
    pub const REPLACE: u64 = 0;
    /// `MPI_SUM`.
    pub const SUM: u64 = 1;
    /// `MPI_MIN`.
    pub const MIN: u64 = 2;
    /// `MPI_MAX`.
    pub const MAX: u64 = 3;
    /// `MPI_PROD`.
    pub const PROD: u64 = 4;
    /// `MPI_BOR`.
    pub const BOR: u64 = 5;
    /// `MPI_NO_OP` (get_accumulate fetch-only).
    pub const NO_OP: u64 = 6;
}

/// Encode an accumulate op + operand type into the h3 header field:
/// low 32 bits = op code, high 32 bits = index into
/// `litempi_datatype::Predefined::ALL` (the operand's predefined type).
pub fn encode_acc(op: u64, type_idx: usize) -> u64 {
    op | ((type_idx as u64) << 32)
}

/// Decode an accumulate h3 field into (op code, predefined type index).
pub fn decode_acc(h3: u64) -> (u64, usize) {
    (h3 & 0xFFFF_FFFF, (h3 >> 32) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    /// A wire payload built on the heap: what the pooled builders produce,
    /// without a fabric to lease from.
    fn framed(kind: u8, words: &[u64], data: &[u8]) -> Bytes {
        let mut buf = BytesMut::with_capacity(1 + 8 * words.len() + data.len());
        buf.put_u8(kind);
        for &w in words {
            buf.put_u64_le(w);
        }
        buf.put_slice(data);
        buf.freeze()
    }

    fn eager(data: &[u8]) -> Bytes {
        framed(0, &[], data)
    }

    fn rts(rndv_id: u64, len: usize) -> Bytes {
        framed(1, &[rndv_id, len as u64], &[])
    }

    fn rts_rma(rndv_id: u64, len: usize, key: u64) -> Bytes {
        framed(2, &[rndv_id, len as u64, key], &[])
    }

    /// [`try_decode`] for payloads a test built itself.
    fn decode(payload: &Bytes) -> (PayloadKind, DecodedPayload<'_>) {
        try_decode(payload).unwrap_or_else(|e| panic!("corrupt payload envelope: {e}"))
    }

    #[test]
    fn eager_roundtrip() {
        let p = eager(b"payload");
        match decode(&p) {
            (PayloadKind::Eager, DecodedPayload::Eager(d)) => assert_eq!(d, b"payload"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_eager() {
        let p = eager(b"");
        match decode(&p) {
            (PayloadKind::Eager, DecodedPayload::Eager(d)) => assert!(d.is_empty()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rts_roundtrip() {
        let p = rts(0xDEAD_BEEF, 1 << 20);
        match decode(&p) {
            (PayloadKind::Rts, DecodedPayload::Rts { rndv_id, len }) => {
                assert_eq!(rndv_id, 0xDEAD_BEEF);
                assert_eq!(len, 1 << 20);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rts_rma_roundtrip() {
        let p = rts_rma(0xC0FFEE, 1 << 16, 0xABCD);
        match decode(&p) {
            (PayloadKind::RtsRma, DecodedPayload::RtsRma { rndv_id, len, key }) => {
                assert_eq!((rndv_id, len, key), (0xC0FFEE, 1 << 16, 0xABCD));
            }
            other => panic!("{other:?}"),
        }
        // Truncated descriptor degrades to an integrity error, not a panic.
        let e = try_decode(&Bytes::from_static(&[2, 1, 2, 3])).unwrap_err();
        assert!(matches!(e, MpiError::Integrity(_)));
    }

    #[test]
    fn pooled_rts_rma_round_trips() {
        use litempi_fabric::{ProviderProfile, Topology};
        let fabric = Fabric::new(1, ProviderProfile::infinite(), Topology::single_node(1));
        let p = rts_rma_payload(&fabric, 0, 11, 4096, 77);
        match decode(&p) {
            (PayloadKind::RtsRma, DecodedPayload::RtsRma { rndv_id, len, key }) => {
                assert_eq!((rndv_id, len, key), (11, 4096, 77));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn pooled_builders_round_trip_and_recycle() {
        use litempi_fabric::{ProviderProfile, Topology};
        let fabric = Fabric::new(1, ProviderProfile::infinite(), Topology::single_node(1));
        let p = eager_payload(&fabric, 0, b"data");
        match decode(&p) {
            (PayloadKind::Eager, DecodedPayload::Eager(d)) => assert_eq!(d, b"data"),
            other => panic!("{other:?}"),
        }
        fabric.pool().release(p);
        let p2 = eager_payload(&fabric, 0, b"next");
        assert_eq!(fabric.pool().stats().hits, 1, "second build reuses storage");
        let r = rts_payload(&fabric, 0, 7, 99);
        match decode(&r) {
            (PayloadKind::Rts, DecodedPayload::Rts { rndv_id, len }) => {
                assert_eq!((rndv_id, len), (7, 99));
            }
            other => panic!("{other:?}"),
        }
        drop(p2);
    }

    #[test]
    fn staged_rendezvous_storage_recycles_through_the_pool() {
        use litempi_fabric::{ProviderProfile, Topology};
        let fabric = Fabric::new(1, ProviderProfile::infinite(), Topology::single_node(1));
        let staged = stage_rndv(&fabric, 0, &[5u8; 40_000]);
        assert_eq!(staged[..], [5u8; 40_000], "no envelope byte, data only");
        // What a receiver's lease does once it has copied the data out.
        fabric.pool().release(Bytes::from_storage(staged));
        litempi_instr::reset();
        let again = stage_rndv(&fabric, 0, &[6u8; 40_000]);
        assert_eq!(litempi_instr::alloc_count(), 0, "warm pool: no allocation");
        assert_eq!(again[..], [6u8; 40_000]);
    }

    #[test]
    fn try_decode_reports_damage_as_integrity_errors() {
        // Unknown envelope kind byte (e.g. corrupted in flight, CRC off).
        let e = try_decode(&Bytes::from_static(&[9, 9, 9])).unwrap_err();
        assert!(matches!(e, MpiError::Integrity(_)));
        // RTS kind byte with a truncated descriptor.
        let e = try_decode(&Bytes::from_static(&[1, 0, 0])).unwrap_err();
        assert!(matches!(e, MpiError::Integrity(_)));
        // Intact payloads still decode.
        assert!(try_decode(&eager(b"ok")).is_ok());
    }

    #[test]
    fn header_roundtrip() {
        let h = header(1, u64::MAX, 42, 7);
        assert_eq!(parse_header(&h), (1, u64::MAX, 42, 7));
    }

    #[test]
    fn acc_encoding_roundtrip() {
        let h3 = encode_acc(acc_op::SUM, 8);
        assert_eq!(decode_acc(h3), (acc_op::SUM, 8));
        let h3 = encode_acc(acc_op::REPLACE, 12);
        assert_eq!(decode_acc(h3), (acc_op::REPLACE, 12));
    }
}
