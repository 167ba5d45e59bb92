//! Wire protocol: how a message body travels, active-message handler ids,
//! and header encodings shared by the devices.
//!
//! Every two-sided payload starts with a one-byte kind. Eager data travels
//! inline behind it. A large or synchronous-mode send travels as a 25-byte
//! RTS (ready-to-send) descriptor, `[rndv_id][len][key]`, naming an entry
//! of the one rendezvous table (`UnivShared::rndv`) where the body waits
//! for the receiver — the RDMA-read rendezvous of modern MPI stacks.
//!
//! This module is the only one that knows the rest. [`stage`] is the send
//! side: it decides eager or rendezvous and copies (or packs) the user
//! buffer exactly once, into the pooled wire buffer or into rendezvous
//! storage. [`open`] is the receive side: it checks a descriptor against
//! the entry it names before consuming it, and [`Opened::read`] lends the
//! bytes to the caller, then recycles the storage and releases the sender.
//! Rendezvous storage is one of two kinds, chosen from what `stage` can
//! observe: a registered region from the per-peer pin-down cache when the
//! provider has RDMA and the body goes to one peer that tracks it (the
//! receiver reads it one-sidedly and returns it to that cache), a pooled
//! staging buffer otherwise (a fan-out shares one by `Arc`).

use crate::error::{MpiError, MpiResult};
use crate::process::ProcInner;
use crate::pt2pt::SendMode;
use crate::universe::{RndvEntry, Storage};
use bytes::{BufMut, Bytes};
use litempi_datatype::{pack, Datatype};
use litempi_fabric::{NetAddr, PayloadBuf, TaggedMessage};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Payload kind for tagged messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadKind {
    /// Inline eager data.
    Eager,
    /// Rendezvous RTS: payload is `[rndv_id: u64][len: u64][key: u64]`.
    Rts,
}

// ------------------------------------------------------------------ send

/// One message body, on either side of the wire: what [`stage`] built for
/// any number of destinations, what [`open`] claimed for this rank.
#[derive(Clone)]
pub(crate) enum Body {
    /// The pooled wire buffer: envelope byte, then the data.
    Eager(Bytes),
    /// A rendezvous entry: parked in the table once per destination,
    /// taken from it by the receiver its descriptor went to.
    Rndv(RndvEntry),
}

/// Append `count` elements of `ty` at `buf` to a pooled buffer: the one
/// copy a pooled body costs, a gather for a non-contiguous layout.
fn fill(dst: &mut PayloadBuf, ty: &Datatype, count: usize, buf: &[u8], len: usize) {
    if ty.is_contiguous() {
        dst.put_slice(&buf[..len]);
    } else {
        pack::pack_into(ty, count, buf, dst.put_zeroed(len));
    }
}

/// Stage `count` elements of `ty` at `buf` for sending in `mode`: eager
/// (buffered mode always — the library owns a copy; otherwise up to the
/// provider's eager ceiling, unless synchronous mode must observe the
/// match) or rendezvous. `tracked_peer` is the destination's world rank
/// when the body goes to that one peer and the sender waits for it to be
/// taken (the entry then carries a completion flag); `None` is
/// fire-and-forget, to any number of peers. Either way the user data is
/// copied once and, with a warm pool and registration cache, nothing is
/// allocated but that flag.
pub(crate) fn stage(
    proc: &ProcInner,
    vci: usize,
    ty: &Datatype,
    count: usize,
    buf: &[u8],
    mode: SendMode,
    tracked_peer: Option<usize>,
) -> Body {
    let fabric = proc.endpoint.fabric();
    let caps = &fabric.profile().caps;
    let len = pack::packed_size(ty, count);
    if mode == SendMode::Buffered || (len <= caps.max_eager && mode != SendMode::Synchronous) {
        let mut wire = fabric.pool_vci(vci).take(1 + len);
        wire.put_u8(0);
        fill(&mut wire, ty, count, buf, len);
        return Body::Eager(wire.freeze());
    }
    let storage = match tracked_peer {
        Some(peer) if caps.native_rdma => {
            let region = proc.endpoint.reg_acquire(proc.addr_of_world(peer), len);
            if ty.is_contiguous() {
                region.write(0, &buf[..len]);
            } else {
                region.update(0, len, |dst| {
                    pack::pack_into(ty, count, buf, dst);
                });
            }
            Storage::Region(region)
        }
        _ => {
            let mut staging = fabric.pool_vci(vci).take(len);
            fill(&mut staging, ty, count, buf, len);
            Storage::Pooled(staging.freeze().into_storage())
        }
    };
    let done = tracked_peer.map(|_| {
        litempi_instr::note_alloc(1);
        Arc::new(AtomicBool::new(false))
    });
    Body::Rndv(RndvEntry { storage, len, done })
}

impl Body {
    /// The wire payload for one destination: the eager bytes themselves,
    /// or a fresh RTS naming a new table entry over the staged body. A
    /// fan-out clones for all destinations but the last and moves for
    /// that one, so the sender keeps no handle and whichever receiver
    /// releases last finds the storage unique and recycles it.
    pub(crate) fn into_wire(self, proc: &ProcInner, vci: usize) -> Bytes {
        match self {
            Body::Eager(wire) => wire,
            Body::Rndv(entry) => {
                let (len, key) = (entry.len, entry.key());
                let rndv_id = proc.univ.park_rndv(entry);
                // The descriptor is pooled too: rendezvous control traffic
                // recycles like eager data.
                let mut rts = proc.endpoint.fabric().pool_vci(vci).take(25);
                rts.put_u8(1);
                rts.put_u64_le(rndv_id);
                rts.put_u64_le(len as u64);
                rts.put_u64_le(key);
                rts.freeze()
            }
        }
    }

    /// The rendezvous entry, if the body travels by rendezvous — what a
    /// call site prices its half of the protocol by.
    pub(crate) fn rndv(&self) -> Option<&RndvEntry> {
        match self {
            Body::Eager(_) => None,
            Body::Rndv(entry) => Some(entry),
        }
    }
}

// --------------------------------------------------------------- receive

/// Decode a tagged payload, surfacing damage as [`MpiError::Integrity`]
/// instead of panicking — the entry point the reliability-aware receive
/// path uses so a corrupted envelope degrades gracefully.
pub fn try_decode(payload: &Bytes) -> MpiResult<(PayloadKind, DecodedPayload<'_>)> {
    match payload.first() {
        Some(0) => Ok((PayloadKind::Eager, DecodedPayload::Eager(&payload[1..]))),
        Some(1) => {
            if payload.len() < 25 {
                return Err(MpiError::Integrity("rts header shorter than 25 bytes"));
            }
            let word = |at: usize| {
                u64::from_le_bytes(payload[at..at + 8].try_into().expect("len checked"))
            };
            let (rndv_id, len, key) = (word(1), word(9) as usize, word(17));
            Ok((PayloadKind::Rts, DecodedPayload::Rts { rndv_id, len, key }))
        }
        _ => Err(MpiError::Integrity("unknown payload envelope kind")),
    }
}

/// Length of the message a tagged payload carries (eager) or announces
/// (rendezvous) — what a probe reports.
pub(crate) fn message_len(payload: &Bytes) -> MpiResult<usize> {
    Ok(match try_decode(payload)?.1 {
        DecodedPayload::Eager(data) => data.len(),
        DecodedPayload::Rts { len, .. } => len,
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
        /// Remote key of the registered region holding the body; 0 when it
        /// waits in a pooled staging buffer.
        key: u64,
    },
}

/// A matched message whose body this rank now owns: the eager wire buffer,
/// or the rendezvous entry its descriptor named.
pub(crate) struct Opened {
    bits: u64,
    src: NetAddr,
    pub(crate) body: Body,
}

/// Open a matched message. An RTS descriptor is checked against the table
/// entry it names before that entry is claimed: damage (short header,
/// unknown kind, unknown id, wrong key, wrong length) is
/// [`MpiError::Integrity`], never a panic, and consumes nothing.
pub(crate) fn open(proc: &ProcInner, msg: TaggedMessage) -> MpiResult<Opened> {
    let body = match try_decode(&msg.data)?.1 {
        DecodedPayload::Eager(_) => Body::Eager(msg.data),
        DecodedPayload::Rts { rndv_id, len, key } => {
            let entry = proc.univ.take_rndv(rndv_id, key, len)?;
            // The descriptor is consumed: recycle its wire buffer.
            proc.pool_release(msg.match_bits, msg.data);
            Body::Rndv(entry)
        }
    };
    Ok(Opened {
        bits: msg.match_bits,
        src: msg.src,
        body,
    })
}

impl Opened {
    /// The message length in bytes.
    pub(crate) fn len(&self) -> usize {
        match &self.body {
            Body::Eager(wire) => wire.len() - 1,
            Body::Rndv(entry) => entry.len,
        }
    }

    /// Lend the message bytes to `f` where they lie — the wire buffer, the
    /// staging buffer, or the sender's region through one RDMA read — then
    /// finish the message: pooled storage goes back to its home-VCI pool
    /// (which is what keeps every channel allocation-free), a region back
    /// to the *origin's* pin-down cache, keyed by this rank, so the
    /// sender's next large message to us is a registration-cache hit; and
    /// a sender that tracks the body is told.
    pub(crate) fn read<R>(self, proc: &ProcInner, f: impl FnOnce(&[u8]) -> R) -> R {
        let RndvEntry { storage, len, done } = match self.body {
            Body::Eager(wire) => {
                let out = f(&wire[1..]);
                proc.pool_release(self.bits, wire);
                return out;
            }
            Body::Rndv(entry) => entry,
        };
        let out = match storage {
            Storage::Pooled(data) => {
                let out = f(&data);
                proc.pool_release(self.bits, Bytes::from_storage(data));
                out
            }
            Storage::Region(region) => {
                let out = proc.endpoint.rdma_get(self.src, &region, 0, len, f);
                (proc.endpoint.fabric().endpoint(self.src))
                    .reg_release(proc.addr_of_world(proc.rank), region);
                out
            }
        };
        if let Some(done) = done {
            done.store(true, Ordering::Release);
            // Raise the completion event on the sender's endpoint — nothing
            // else announces the flag, and a sender parked on it would
            // sleep out the park time-out — and let it run: it has waited
            // since its RTS, and on a shared CPU it would otherwise wait on
            // until this rank next blocks, however much this rank computes
            // first.
            proc.endpoint.signal_peer(self.src);
            if !litempi_fabric::task::pause(true) {
                std::thread::yield_now();
            }
        }
        out
    }
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
    use crate::config::BuildConfig;
    use crate::universe::Universe;
    use bytes::BytesMut;
    use litempi_fabric::{ProviderProfile, Topology};

    /// A wire payload built on the heap: what [`stage`] produces, without
    /// a fabric to lease from.
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

    fn rts(rndv_id: u64, len: usize, key: u64) -> Bytes {
        framed(1, &[rndv_id, len as u64, key], &[])
    }

    /// The fields of an RTS descriptor a test built or staged itself.
    fn rts_fields(payload: &Bytes) -> (u64, usize, u64) {
        match try_decode(payload) {
            Ok((PayloadKind::Rts, DecodedPayload::Rts { rndv_id, len, key })) => {
                (rndv_id, len, key)
            }
            other => panic!("not an RTS descriptor: {other:?}"),
        }
    }

    /// Run `f` as the one rank of a job on `profile`.
    fn on_one_rank(profile: ProviderProfile, f: impl Fn(&ProcInner) + Send + Sync) {
        let config = BuildConfig::ch4_default();
        Universe::run(1, config, profile, Topology::single_node(1), |proc| {
            f(&proc.inner)
        });
    }

    /// [`stage`] for a byte slice in standard mode.
    fn stage_bytes(proc: &ProcInner, data: &[u8], tracked_peer: Option<usize>) -> Body {
        let mode = SendMode::Standard;
        stage(
            proc,
            0,
            &Datatype::BYTE,
            data.len(),
            data,
            mode,
            tracked_peer,
        )
    }

    /// A message from this rank to itself, as the matching engine hands it
    /// to a receive.
    fn matched(data: Bytes) -> TaggedMessage {
        TaggedMessage {
            src: NetAddr(0),
            match_bits: 0,
            data,
        }
    }

    #[test]
    fn eager_roundtrip() {
        for data in [&b"payload"[..], b""] {
            match try_decode(&eager(data)) {
                Ok((PayloadKind::Eager, DecodedPayload::Eager(d))) => assert_eq!(d, data),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn rts_roundtrip() {
        let p = rts(0xC0FFEE, 1 << 16, 0xABCD);
        assert_eq!(rts_fields(&p), (0xC0FFEE, 1 << 16, 0xABCD));
        assert_eq!(message_len(&p).unwrap(), 1 << 16);
    }

    #[test]
    fn try_decode_reports_damage_as_integrity_errors() {
        // Unknown envelope kind byte (e.g. corrupted in flight, CRC off) —
        // the retired second RTS kind included.
        for bad in [&[9u8, 9, 9][..], &[2; 25]] {
            let e = try_decode(&Bytes::copy_from_slice(bad)).unwrap_err();
            assert!(matches!(e, MpiError::Integrity(_)));
        }
        // RTS kind byte with a truncated descriptor.
        let e = try_decode(&Bytes::from_static(&[1; 24])).unwrap_err();
        assert!(matches!(e, MpiError::Integrity(_)));
        // Intact payloads still decode.
        assert!(try_decode(&eager(b"ok")).is_ok());
    }

    #[test]
    fn staged_eager_bodies_round_trip_and_recycle() {
        on_one_rank(ProviderProfile::ofi(), |proc| {
            let before = proc.endpoint.fabric().pool().stats().hits;
            for data in [&b"data"[..], b"next"] {
                let Body::Eager(wire) = stage_bytes(proc, data, Some(0)) else {
                    panic!("four bytes are eager")
                };
                let opened = open(proc, matched(wire)).unwrap();
                assert!(opened.body.rndv().is_none());
                assert_eq!(opened.len(), 4);
                opened.read(proc, |got| assert_eq!(got, data));
            }
            let hits = proc.endpoint.fabric().pool().stats().hits - before;
            assert_eq!(hits, 1, "the second build reuses the first's storage");
            // Synchronous mode must see the match, whatever the size;
            // buffered mode never waits for one.
            let (ty, data) = (Datatype::BYTE, [7u8; 20_000]);
            let sync = stage(proc, 0, &ty, 4, &data, SendMode::Synchronous, Some(0));
            assert!(matches!(sync, Body::Rndv(_)));
            let buffered = stage(proc, 0, &ty, data.len(), &data, SendMode::Buffered, Some(0));
            assert!(matches!(buffered, Body::Eager(_)));
        });
    }

    #[test]
    fn a_fan_out_shares_one_staging_buffer_and_its_last_reader_recycles_it() {
        on_one_rank(ProviderProfile::ofi(), |proc| {
            let data = [5u8; 40_000];
            let fan_out = |data: &[u8]| {
                let staged = stage_bytes(proc, data, None);
                [staged.clone().into_wire(proc, 0), staged.into_wire(proc, 0)]
            };
            let read_all = |wires: [Bytes; 2], want: &[u8]| {
                for wire in wires {
                    let opened = open(proc, matched(wire)).unwrap();
                    let entry = opened.body.rndv().expect("above the eager ceiling");
                    // Untracked: pooled even where the provider has RDMA.
                    assert!(matches!(entry.storage, Storage::Pooled(_)) && entry.done.is_none());
                    opened.read(proc, |got| assert_eq!(got, want));
                }
            };
            let wires = fan_out(&data);
            let (a, b) = (rts_fields(&wires[0]), rts_fields(&wires[1]));
            assert_ne!(a.0, b.0, "one table entry per destination");
            assert_eq!((a.1, a.2), (40_000, 0));
            read_all(wires, &data);
            assert!(proc.univ.rndv.lock().is_empty());
            // Staging buffer and both descriptors came back to the pool.
            litempi_instr::reset();
            read_all(fan_out(&[6u8; 40_000]), &[6u8; 40_000]);
            assert_eq!(litempi_instr::alloc_count(), 0, "warm pool: no allocation");
        });
    }

    #[test]
    fn a_damaged_descriptor_consumes_nothing() {
        // A tracked body waits in a registered region where the provider has
        // RDMA, in a pooled staging buffer where it does not.
        for (profile, in_region) in [
            (ProviderProfile::ofi(), true),
            (ProviderProfile::am_only(), false),
        ] {
            on_one_rank(profile, |proc| {
                let data: Vec<u8> = (0..50_000u32).map(|i| i as u8).collect();
                let staged = stage_bytes(proc, &data, Some(0));
                let entry = staged.rndv().expect("above the eager ceiling");
                assert_eq!(matches!(entry.storage, Storage::Region(_)), in_region);
                let done = entry.done.clone().expect("a tracked body carries a flag");
                let wire = staged.into_wire(proc, 0);
                let (id, len, key) = rts_fields(&wire);
                assert_eq!((len, key != 0), (data.len(), in_region));
                for damaged in [
                    rts(id, len, key ^ 1),
                    rts(id, 1 << 20, key),
                    rts(id, len - 1, key),
                    rts(id + 99, len, key),
                ] {
                    let e = open(proc, matched(damaged)).err();
                    assert!(matches!(e, Some(MpiError::Integrity(_))), "{e:?}");
                    assert!(proc.univ.rndv.lock().contains_key(&id), "entry consumed");
                    assert!(!done.load(Ordering::Acquire));
                }
                // The rightful receiver still completes, and tells the sender.
                let opened = open(proc, matched(wire)).unwrap();
                assert_eq!(opened.len(), data.len());
                opened.read(proc, |got| assert_eq!(got, data));
                assert!(done.load(Ordering::Acquire));
                assert!(proc.univ.rndv.lock().is_empty());
                // A replayed descriptor finds nothing.
                let e = open(proc, matched(rts(id, len, key))).err();
                assert!(matches!(e, Some(MpiError::Integrity(_))));
            });
        }
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
