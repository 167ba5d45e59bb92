//! Match-bits encoding.
//!
//! The CH4/OFI netmod packs MPI's (communicator, source, tag) matching
//! triplet into libfabric's 64-bit tag space; we use the same technique:
//!
//! ```text
//! bits 63..48   context id  (16 bits; bit 15 = collective channel)
//! bits 47..24   source rank in the communicator (24 bits)
//! bits 23..0    user tag    (24 bits)
//! ```
//!
//! Wildcards become ignore masks; the §3.6 `_NOMATCH` extension reserves a
//! source value so that senders and receivers agree on a single
//! "no matching" channel per communicator while retaining communicator
//! isolation (the paper explicitly keeps the communicator bits).

use crate::error::{MpiError, MpiResult};

/// `MPI_ANY_SOURCE`.
pub const ANY_SOURCE: i32 = -1;
/// `MPI_ANY_TAG`.
pub const ANY_TAG: i32 = -2;
/// `MPI_PROC_NULL`.
pub const PROC_NULL: i32 = -3;

/// Highest user tag (`MPI_TAG_UB`): 24 bits minus the reserved top values.
pub const TAG_UB: i32 = (1 << 24) - 2;

/// Reserved source-field value for the `_NOMATCH` channel.
const NOMATCH_SRC: u64 = (1 << 24) - 1;

const TAG_SHIFT: u32 = 0;
const SRC_SHIFT: u32 = 24;
pub(crate) const CTX_SHIFT: u32 = 48;

const TAG_MASK: u64 = 0x0000_0000_00FF_FFFF;
const SRC_MASK: u64 = 0x0000_FFFF_FF00_0000;

/// A communicator's matching context (16 bits). Bit 15 separates the
/// point-to-point and collective channels so that user traffic can never
/// match internal collective traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ContextId(pub u16);

impl ContextId {
    /// The collective-channel twin of this context.
    pub const fn collective(self) -> ContextId {
        ContextId(self.0 | 0x8000)
    }

    /// Is this a collective-channel context?
    pub const fn is_collective(self) -> bool {
        self.0 & 0x8000 != 0
    }
}

/// Encode sender-side match bits (source and tag must be concrete).
#[inline]
pub fn encode(ctx: ContextId, src_rank: usize, tag: i32) -> u64 {
    debug_assert!((0..=TAG_UB).contains(&tag), "tag {tag} out of range");
    debug_assert!(
        (src_rank as u64) < NOMATCH_SRC,
        "rank {src_rank} too large for match bits"
    );
    ((ctx.0 as u64) << CTX_SHIFT) | ((src_rank as u64) << SRC_SHIFT) | ((tag as u64) << TAG_SHIFT)
}

/// Encode the `_NOMATCH` channel bits for a communicator: fixed source
/// field and zero tag, so every nomatch message on the communicator
/// occupies a single matching slot and is therefore matched in arrival
/// order (§3.6).
#[inline]
pub fn encode_nomatch(ctx: ContextId) -> u64 {
    ((ctx.0 as u64) << CTX_SHIFT) | (NOMATCH_SRC << SRC_SHIFT)
}

/// Build receiver-side (match bits, ignore mask) honoring wildcards.
#[inline]
pub fn recv_bits(ctx: ContextId, source: i32, tag: i32) -> (u64, u64) {
    let mut bits = (ctx.0 as u64) << CTX_SHIFT;
    let mut ignore = 0u64;
    if source == ANY_SOURCE {
        ignore |= SRC_MASK;
    } else {
        bits |= (source as u64) << SRC_SHIFT;
    }
    if tag == ANY_TAG {
        ignore |= TAG_MASK;
    } else {
        bits |= (tag as u64) << TAG_SHIFT;
    }
    (bits, ignore)
}

/// Decode the source rank encoded in match bits.
#[inline]
pub fn decode_src(bits: u64) -> usize {
    ((bits & SRC_MASK) >> SRC_SHIFT) as usize
}

/// Decode the user tag encoded in match bits.
#[inline]
pub fn decode_tag(bits: u64) -> i32 {
    (bits & TAG_MASK) as i32
}

/// Decode the context id.
#[inline]
pub fn decode_ctx(bits: u64) -> ContextId {
    ContextId((bits >> CTX_SHIFT) as u16)
}

/// Was this message sent on the `_NOMATCH` channel?
#[inline]
pub fn is_nomatch(bits: u64) -> bool {
    decode_src(bits) as u64 == NOMATCH_SRC
}

/// Error-checking validation of a send tag.
pub fn check_tag(tag: i32) -> MpiResult<()> {
    if !(0..=TAG_UB).contains(&tag) {
        return Err(MpiError::InvalidTag(tag));
    }
    Ok(())
}

/// Error-checking validation of a receive tag (wildcards allowed).
pub fn check_recv_tag(tag: i32) -> MpiResult<()> {
    if tag == ANY_TAG {
        return Ok(());
    }
    check_tag(tag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let bits = encode(ContextId(7), 1234, 99);
        assert_eq!(decode_ctx(bits), ContextId(7));
        assert_eq!(decode_src(bits), 1234);
        assert_eq!(decode_tag(bits), 99);
        assert!(!is_nomatch(bits));
    }

    #[test]
    fn exact_recv_matches_only_exact_send() {
        let send = encode(ContextId(3), 5, 10);
        let (bits, ignore) = recv_bits(ContextId(3), 5, 10);
        assert_eq!(send | ignore, bits | ignore);
        let other_tag = encode(ContextId(3), 5, 11);
        assert_ne!(other_tag | ignore, bits | ignore);
        let other_src = encode(ContextId(3), 6, 10);
        assert_ne!(other_src | ignore, bits | ignore);
        let other_ctx = encode(ContextId(4), 5, 10);
        assert_ne!(other_ctx | ignore, bits | ignore);
    }

    #[test]
    fn any_source_wildcard() {
        let (bits, ignore) = recv_bits(ContextId(1), ANY_SOURCE, 10);
        for src in [0usize, 7, 1 << 20] {
            let send = encode(ContextId(1), src, 10);
            assert_eq!(send | ignore, bits | ignore, "src {src} should match");
        }
        let wrong_tag = encode(ContextId(1), 0, 11);
        assert_ne!(wrong_tag | ignore, bits | ignore);
    }

    #[test]
    fn any_tag_wildcard() {
        let (bits, ignore) = recv_bits(ContextId(1), 3, ANY_TAG);
        for tag in [0, 1, TAG_UB] {
            let send = encode(ContextId(1), 3, tag);
            assert_eq!(send | ignore, bits | ignore, "tag {tag} should match");
        }
    }

    #[test]
    fn both_wildcards_still_respect_context() {
        let (bits, ignore) = recv_bits(ContextId(2), ANY_SOURCE, ANY_TAG);
        let same_ctx = encode(ContextId(2), 9, 9);
        assert_eq!(same_ctx | ignore, bits | ignore);
        let other_ctx = encode(ContextId(5), 9, 9);
        assert_ne!(other_ctx | ignore, bits | ignore);
    }

    #[test]
    fn collective_channel_isolated_from_pt2pt() {
        let user = encode(ContextId(2), 0, 0);
        let coll = encode(ContextId(2).collective(), 0, 0);
        assert_ne!(user, coll);
        assert!(ContextId(2).collective().is_collective());
        assert!(!ContextId(2).is_collective());
    }

    #[test]
    fn nomatch_channel() {
        let bits = encode_nomatch(ContextId(6));
        assert!(is_nomatch(bits));
        assert_eq!(decode_ctx(bits), ContextId(6));
        // A receiver posting the same nomatch bits matches exactly.
        assert_eq!(bits, encode_nomatch(ContextId(6)));
        // Different communicator → no match (isolation retained, §3.6).
        assert_ne!(bits, encode_nomatch(ContextId(7)));
    }

    #[test]
    fn tag_validation() {
        assert!(check_tag(0).is_ok());
        assert!(check_tag(TAG_UB).is_ok());
        assert!(check_tag(-1).is_err());
        assert!(check_tag(TAG_UB + 1).is_err());
        assert!(check_recv_tag(ANY_TAG).is_ok());
        assert!(check_recv_tag(-5).is_err());
    }
}
