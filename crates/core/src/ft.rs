//! ULFM-style fault tolerance (MPI User-Level Failure Mitigation).
//!
//! The recovery API the ULFM proposal layers on MPI-3.1, built on the
//! fabric's one liveness oracle,
//! [`Endpoint::peer_unreachable`](litempi_fabric::Endpoint::peer_unreachable):
//! the kill switch, a job abort, or the reliability layer's retry
//! exhaustion declares a peer dead, and nothing else does:
//!
//! * [`Communicator::revoke`] — `MPI_Comm_revoke`: a reliable,
//!   forward-once flood over surviving links that marks the communicator
//!   unusable on every reachable member. Pending and future point-to-point
//!   operations, blocking collectives, and nonblocking-collective schedule
//!   DAGs on a revoked communicator fail with [`MpiError::Revoked`]
//!   instead of hanging against ranks that already bailed out.
//! * [`Communicator::ack_failed`] — `MPI_Comm_failure_ack`: acknowledge
//!   the locally observed failures so [`Communicator::agree`] stops
//!   reporting them.
//! * [`Communicator::agree`] — `MPI_Comm_agree`: fault-tolerant bitwise-AND
//!   agreement that completes even when members die mid-operation.
//! * [`Communicator::shrink`] — `MPI_Comm_shrink`: build a replacement
//!   communicator over the agreed survivor set.
//!
//! # Agreement protocol
//!
//! `agree`/`shrink` run a coordinator-based protocol sized for the
//! repo's in-process scale (≤ [`MAX_FT_RANKS`] ranks, a `u64` dead-mask):
//! the coordinator is the lowest communicator rank each participant
//! believes alive. Participants send `(flag, local dead-mask, local
//! acked-mask)` contributions; the coordinator ANDs the flags, ORs the
//! dead-masks (folding in any death it observes mid-collection), ANDs
//! the acked-masks, and broadcasts the verdict.
//! If the coordinator itself dies, participants detect it through the
//! transport's liveness verdict, mark it dead, and retry with the next
//! lowest survivor. The protocol's tag is keyed by *(sequence,
//! coordinator)* — not by retry round — so ranks that discover a
//! coordinator death at different times still converge on the same tag.
//!
//! Known limitation (documented in DESIGN.md §13): if a coordinator dies
//! *mid-result-broadcast*, participants that already received the verdict
//! return while the rest retry under the next coordinator — the two sets
//! can decide different dead-masks. The seeded fault plans in the test
//! matrix kill ranks before/inside user collectives, not inside `agree`,
//! where the protocol is exact. A full ULFM agreement needs an extra
//! uniform-broadcast phase this model intentionally omits.

use crate::coll::{crecv_ft, csend};
use crate::comm::CommShared;
use crate::comm::Communicator;
use crate::error::{MpiError, MpiResult};
use crate::group::Group;
use crate::match_bits::ContextId;
use litempi_instr::{charge, cost, Category};
use std::sync::atomic::Ordering;

/// Largest communicator size `agree`/`shrink` support: the protocol's
/// failure bookkeeping is a `u64` bitmask indexed by communicator rank.
pub const MAX_FT_RANKS: usize = 64;

/// First tag of the FT-protocol region of the collective channel's tag
/// space. User collectives tag with `coll_seq % 2^20`, so everything at or
/// above `0x40_0000` is reserved for the agreement protocol.
const AGREE_TAG_BASE: i32 = 0x40_0000;

/// The agreement tag for one `(sequence, coordinator)` pair. Keyed by the
/// coordinator's rank — not the retry round — so participants whose local
/// failure knowledge lags (they still address an already-dead coordinator)
/// converge on the same tag once they observe the death.
fn agree_tag(seq: u64, size: usize, coord: usize) -> i32 {
    AGREE_TAG_BASE + ((seq * size as u64 + coord as u64) % (1 << 22)) as i32
}

/// Wire form of one agreement contribution (and of the coordinator's
/// verdict): `flag` (u32 LE), the dead-mask (u64 LE), then the
/// acknowledged-failure mask (u64 LE). Carrying `acked` through the
/// agreement makes the "unacknowledged failure" error decision *uniform*:
/// every rank errors iff `dead & !acked_all != 0` against the agreed
/// masks, never against its private view — otherwise only some ranks
/// would retry an `agree` and deadlock against the ones that returned.
fn encode_contrib(flag: u32, dead: u64, acked: u64) -> [u8; 20] {
    let mut out = [0u8; 20];
    out[..4].copy_from_slice(&flag.to_le_bytes());
    out[4..12].copy_from_slice(&dead.to_le_bytes());
    out[12..].copy_from_slice(&acked.to_le_bytes());
    out
}

fn decode_contrib(data: &[u8]) -> MpiResult<(u32, u64, u64)> {
    if data.len() != 20 {
        return Err(MpiError::Integrity(
            "agreement contribution is not 20 bytes",
        ));
    }
    let flag = u32::from_le_bytes(data[..4].try_into().unwrap());
    let dead = u64::from_le_bytes(data[4..12].try_into().unwrap());
    let acked = u64::from_le_bytes(data[12..].try_into().unwrap());
    Ok((flag, dead, acked))
}

impl Communicator {
    /// `MPI_Comm_revoke`: mark this communicator unusable everywhere.
    ///
    /// Local effect is immediate: every pending and future operation on
    /// the communicator (point-to-point, blocking collectives, schedule
    /// DAGs) fails with [`MpiError::Revoked`] — routed through the
    /// errhandler, so `MPI_ERRORS_RETURN` callers get `Err` and can
    /// proceed to [`Communicator::shrink`]. Remote members learn through a
    /// forward-once reliable flood: the first notice a rank receives is
    /// re-forwarded to every member except the sender, so the revocation
    /// survives any set of link/process failures that leaves the survivor
    /// graph connected. Not collective; any member may call it, and
    /// repeated calls are idempotent.
    pub fn revoke(&self) {
        if !self.proc.mark_revoked(self.shared.ctx.0, true) {
            return;
        }
        // Membership payload: every member's world rank, u32 LE each —
        // receivers use it to re-flood without holding the communicator.
        let mut members = Vec::with_capacity(self.size() * 4);
        for r in 0..self.size() {
            members.extend_from_slice(&(self.world_rank_of(r) as u32).to_le_bytes());
        }
        self.proc.forward_revoke(self.shared.ctx.0, &members, None);
    }

    /// Has this communicator been revoked (locally observed)? Local and
    /// constant-time; a remote revocation is visible once its flood
    /// notice has been drained by this rank's progress engine.
    pub fn is_revoked(&self) -> bool {
        self.proc.first_failure(&[self.shared.ctx.0], &[]).is_err()
    }

    /// `MPI_Comm_failure_ack`: acknowledge every member failure this rank
    /// has observed so far, so [`Communicator::agree`] stops reporting
    /// them as errors. Local; returns the cumulative acknowledged mask
    /// (bit *i* = communicator rank *i*).
    pub fn ack_failed(&self) -> u64 {
        let acked = self.acked_failures.load(Ordering::Relaxed) | self.local_dead_mask();
        self.acked_failures.store(acked, Ordering::Relaxed);
        acked
    }

    /// `MPI_Comm_agree`: fault-tolerant agreement on the bitwise AND of
    /// every live participant's `flag`.
    ///
    /// Completes even when members die mid-operation (their contribution
    /// is excluded; the survivors still agree). If the agreement observes
    /// a failure that some participant has not acknowledged via
    /// [`Communicator::ack_failed`], it returns
    /// [`MpiError::ProcessFailed`] (through the errhandler) naming one
    /// such rank — the ULFM contract that makes silent exclusion
    /// impossible. The decision is *uniform*: the acked-masks travel with
    /// the contributions, so every survivor evaluates the same
    /// `dead & !acked_all` and either all error or all succeed (which is
    /// what lets "ack and retry" converge instead of deadlocking). Works
    /// on a revoked communicator: agreement is exactly the operation
    /// recovery needs after a revoke.
    pub fn agree(&self, flag: u32) -> MpiResult<u32> {
        let (out, dead, acked_all) =
            self.agree_inner(flag, self.acked_failures.load(Ordering::Relaxed))?;
        let unacked = dead & !acked_all;
        if unacked != 0 {
            let r = unacked.trailing_zeros() as usize;
            return self.handle_error(Err(MpiError::ProcessFailed {
                peer: self.world_rank_of(r),
            }));
        }
        Ok(out)
    }

    /// `MPI_Comm_shrink`: build a new communicator over the agreed
    /// survivor set (fresh context id, same relative rank order, inherited
    /// errhandler). Works on a revoked communicator — revoke → shrink →
    /// continue is the canonical ULFM recovery sequence. Collective over
    /// the survivors; failed ranks are excluded by agreement, so every
    /// survivor constructs an identical group.
    pub fn shrink(&self) -> MpiResult<Communicator> {
        // Ack state is irrelevant to shrink (ULFM: shrink never raises
        // PROC_FAILED for the ranks it is excluding), so contribute a
        // full acked-mask and ignore the agreed one.
        let (_, mask, _) = self.agree_inner(u32::MAX, u64::MAX)?;
        let survivors: Vec<u32> = (0..self.size())
            .filter(|&r| mask & (1 << r) == 0)
            .map(|r| self.world_rank_of(r) as u32)
            .collect();
        charge(
            Category::FaultTolerance,
            cost::ft::SHRINK_MEMBER * survivors.len() as u64,
        );
        let group = Group::from_world_ranks(&survivors);
        let seq = self.next_derive_seq();
        let univ = &self.proc.univ;
        // The agreed dead-mask is part of the meet key (top bit
        // distinguishes shrink from split colors), so survivors rendezvous
        // on exactly the verdict they agreed on.
        let shared = univ.meet.meet(
            (self.shared.ctx.0, seq, (1u64 << 63) | mask),
            survivors.len(),
            || CommShared {
                ctx: ContextId(univ.next_ctx.fetch_add(1, Ordering::Relaxed)),
                group,
            },
        );
        let sub = Communicator::from_shared_crate(self.proc.clone(), shared);
        sub.set_errhandler(self.errhandler());
        Ok(sub)
    }

    /// Locally observed member failures as a communicator-rank bitmask:
    /// bit *i* set iff rank *i*'s endpoint is unreachable from here (kill
    /// switch fired, job aborted, or retransmit budget exhausted).
    pub fn local_dead_mask(&self) -> u64 {
        let mut mask = 0u64;
        for r in 0..self.size().min(MAX_FT_RANKS) {
            if r == self.rank {
                continue;
            }
            let w = self.world_rank_of(r);
            if self
                .proc
                .endpoint
                .peer_unreachable(self.proc.addr_of_world(w))
            {
                mask |= 1 << r;
            }
        }
        mask
    }

    /// The agreement protocol: returns `(AND of live flags, agreed
    /// dead-mask, AND of live acked-masks)`. See the module docs for the
    /// design and its known coordinator-mid-broadcast limitation.
    fn agree_inner(&self, flag: u32, acked: u64) -> MpiResult<(u32, u64, u64)> {
        let size = self.size();
        if size > MAX_FT_RANKS {
            return Err(MpiError::InvalidComm(
                "agree/shrink support at most 64 ranks",
            ));
        }
        let seq = self.agree_seq.fetch_add(1, Ordering::Relaxed);
        if size == 1 {
            return Ok((flag, 0, acked));
        }
        let mut known_dead = self.local_dead_mask();
        loop {
            charge(Category::FaultTolerance, cost::ft::AGREE_ROUND);
            let coord = (0..size)
                .find(|&r| known_dead & (1 << r) == 0)
                .expect("agreement with every rank dead, including self");
            let tag = agree_tag(seq, size, coord);
            if coord == self.rank {
                // Coordinator: fold every contribution I can still get.
                // A participant dying mid-protocol becomes a dead-mask
                // bit, not an error — agreement must survive it.
                let mut mask = known_dead;
                let mut out = flag;
                let mut acked_all = acked;
                for r in (0..size).filter(|&r| r != self.rank) {
                    if mask & (1 << r) != 0 {
                        continue;
                    }
                    match crecv_ft(self, r, tag) {
                        Ok(c) => {
                            let (f, m, a) = c.read(&self.proc, decode_contrib)?;
                            out &= f;
                            mask |= m;
                            acked_all &= a;
                        }
                        Err(_) => mask |= 1 << r,
                    }
                }
                mask &= !(1u64 << self.rank);
                let verdict = encode_contrib(out, mask, acked_all);
                for r in (0..size).filter(|&r| r != self.rank) {
                    if mask & (1 << r) != 0 {
                        continue;
                    }
                    csend(self, r, tag, &verdict);
                }
                return Ok((out, mask, acked_all));
            }
            // Participant: contribute, then await the verdict. Same tag
            // both ways — match bits carry the source rank, so the two
            // directions cannot cross-match.
            csend(self, coord, tag, &encode_contrib(flag, known_dead, acked));
            match crecv_ft(self, coord, tag) {
                Ok(c) => return c.read(&self.proc, decode_contrib),
                Err(_) => {
                    // Coordinator died mid-agreement: record it and rerun
                    // under the next-lowest survivor (fresh tag, so any
                    // straggling traffic for the dead coordinator cannot
                    // confuse the retry).
                    known_dead |= 1 << coord;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contribution_roundtrip() {
        let wire = encode_contrib(0xDEAD_BEEF, 0x8000_0000_0000_0001, 0x00F0);
        let (f, d, a) = decode_contrib(&wire).unwrap();
        assert_eq!(f, 0xDEAD_BEEF);
        assert_eq!(d, 0x8000_0000_0000_0001);
        assert_eq!(a, 0x00F0);
        assert!(decode_contrib(&wire[..12]).is_err());
    }

    #[test]
    fn agree_tags_live_above_the_user_collective_region() {
        // User collective tags are coll_seq % 2^20 < AGREE_TAG_BASE.
        for seq in [0u64, 1, 977, u64::from(u32::MAX)] {
            for size in [2usize, 8, 64] {
                for coord in 0..size.min(4) {
                    let t = agree_tag(seq, size, coord);
                    assert!(t >= AGREE_TAG_BASE);
                    assert!(t <= crate::match_bits::TAG_UB);
                }
            }
        }
    }

    #[test]
    fn coordinator_keyed_tags_agree_across_divergent_retry_paths() {
        // Rank A retries 0→2 directly; rank B retries 0→1→2. Both must
        // land on the same tag once they address coordinator 2.
        let t_direct = agree_tag(5, 8, 2);
        let t_stepped = agree_tag(5, 8, 2);
        assert_eq!(t_direct, t_stepped);
        // ...and different coordinators never share a tag within a seq.
        assert_ne!(agree_tag(5, 8, 1), agree_tag(5, 8, 2));
    }
}
