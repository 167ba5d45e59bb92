//! Matched probe (`MPI_MPROBE` / `MPI_IMPROBE` / `MPI_MRECV`) — MPI-3's
//! fix for the probe/recv race in multithreaded receivers.
//!
//! A plain `MPI_PROBE` tells you a message exists, but another thread's
//! receive can steal it before your `MPI_RECV` runs. `MPI_MPROBE`
//! *removes* the message from the matching queues and hands back an
//! [`MatchedMessage`] that only `mrecv` can complete — per-message
//! ownership, enforced here by Rust's move semantics (an `MatchedMessage`
//! can be received exactly once, and dropping it without receiving is a
//! compile-visible decision).

use crate::comm::Communicator;
use crate::error::MpiResult;
use crate::match_bits::{self, ANY_SOURCE, PROC_NULL};
use crate::process::ProcInner;
use crate::proto;
use crate::request::{wait_loop, RecvDest};
use crate::status::Status;
use bytes::Bytes;
use litempi_datatype::MpiPrimitive;
use litempi_fabric::{NetAddr, TaggedMessage};
use litempi_instr::{charge, cost, Category};
use std::sync::Arc;

/// A message claimed by `improbe`/`mprobe`, awaiting its `mrecv`.
pub struct MatchedMessage {
    proc: Arc<ProcInner>,
    msg: TaggedMessage,
    /// The message's length, decoded when it was claimed.
    bytes: usize,
}

impl std::fmt::Debug for MatchedMessage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MatchedMessage")
            .field("status", &self.status())
            .finish()
    }
}

impl MatchedMessage {
    /// The message's envelope, without receiving it.
    pub fn status(&self) -> Status {
        Status {
            source: match_bits::decode_src(self.msg.match_bits) as i32,
            tag: match_bits::decode_tag(self.msg.match_bits),
            bytes: self.bytes,
        }
    }

    /// `MPI_MRECV`: complete this specific message into `buf`.
    pub fn mrecv<T: MpiPrimitive>(self, buf: &mut [T]) -> MpiResult<Status> {
        let count = buf.len();
        let mut dest = RecvDest {
            buf: T::as_bytes_mut(buf),
            ty: T::DATATYPE,
            count,
        };
        crate::request::complete_recv(&self.proc, self.msg, &mut dest)
    }
}

impl Communicator {
    /// `MPI_IMPROBE`: nonblocking matched probe. On a hit, the message is
    /// removed from the matching queues and owned by the returned handle.
    /// A message whose envelope arrived damaged is consumed too, and is
    /// `MpiError::Integrity` through the communicator's error handler.
    pub fn improbe(&self, source: i32, tag: i32) -> MpiResult<Option<MatchedMessage>> {
        let got = self.claim(source, tag);
        if matches!(got, Ok(None)) {
            crate::request::not_yet();
        }
        got
    }

    /// [`Communicator::improbe`] without yielding.
    fn claim(&self, source: i32, tag: i32) -> MpiResult<Option<MatchedMessage>> {
        if self.proc.config.error_checking {
            match_bits::check_recv_tag(tag)?;
            if source != ANY_SOURCE && source != PROC_NULL {
                self.group().check_rank(source)?;
            }
        }
        if source == PROC_NULL {
            // The standard: a PROC_NULL improbe "matches" a null message.
            return Ok(Some(MatchedMessage {
                proc: self.proc.clone(),
                msg: TaggedMessage {
                    src: NetAddr(0),
                    match_bits: match_bits::encode(self.context_id(), 0, 0),
                    // An empty eager payload: the envelope byte alone.
                    data: Bytes::from_static(&[0]),
                },
                bytes: 0,
            }));
        }
        self.proc.progress();
        // A matched probe builds and matches the same bits as MPI_IRECV, so
        // it charges the same matching cost (polling loops over improbe pay
        // per poll, like a real matching-queue walk).
        charge(Category::MatchBits, cost::isend::MATCH_BITS);
        let (bits, ignore) = match_bits::recv_bits(self.context_id(), source, tag);
        let Some(msg) = self.proc.dequeue_unexpected(bits, ignore) else {
            return Ok(None);
        };
        let bytes = self.handle_error(proto::message_len(&msg.data))?;
        Ok(Some(MatchedMessage {
            proc: self.proc.clone(),
            msg,
            bytes,
        }))
    }

    /// `MPI_MPROBE`: blocking matched probe.
    pub fn mprobe(&self, source: i32, tag: i32) -> MpiResult<MatchedMessage> {
        wait_loop(&self.proc, || self.claim(source, tag).transpose())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;

    #[test]
    fn mprobe_claims_exactly_one_message() {
        Universe::run_default(2, |proc| {
            let world = proc.world();
            if proc.rank() == 0 {
                world.send(&[11u32], 1, 5).unwrap();
                world.send(&[22u32], 1, 5).unwrap();
            } else {
                let msg = world.mprobe(0, 5).unwrap();
                assert_eq!(msg.status().bytes, 4);
                // The claimed message is invisible to ordinary receives:
                // the next recv gets the *second* message.
                let mut buf = [0u32; 1];
                world.recv_into(&mut buf, 0, 5).unwrap();
                assert_eq!(buf[0], 22);
                // And mrecv completes the claimed one.
                let st = msg.mrecv(&mut buf).unwrap();
                assert_eq!(buf[0], 11);
                assert_eq!(st.source, 0);
                assert_eq!(st.tag, 5);
            }
        });
    }

    #[test]
    fn improbe_none_when_empty() {
        Universe::run_default(1, |proc| {
            let world = proc.world();
            assert!(world
                .improbe(crate::match_bits::ANY_SOURCE, 0)
                .unwrap()
                .is_none());
        });
    }

    #[test]
    fn improbe_charges_matching_cost_per_poll() {
        Universe::run_default(1, |proc| {
            let world = proc.world();
            let probe = litempi_instr::probe();
            for _ in 0..3 {
                let _ = world.improbe(ANY_SOURCE, 0).unwrap();
            }
            let report = probe.finish();
            assert_eq!(report.get(Category::MatchBits), 3 * cost::isend::MATCH_BITS);
        });
    }

    #[test]
    fn improbe_with_wildcards() {
        Universe::run_default(3, |proc| {
            let world = proc.world();
            if proc.rank() > 0 {
                world
                    .send(&[proc.rank() as u8], 0, proc.rank() as i32)
                    .unwrap();
            } else {
                let mut seen = Vec::new();
                for _ in 0..2 {
                    let m = world
                        .mprobe(ANY_SOURCE, crate::match_bits::ANY_TAG)
                        .unwrap();
                    let mut b = [0u8; 1];
                    let st = m.mrecv(&mut b).unwrap();
                    seen.push((st.source, b[0]));
                }
                seen.sort_unstable();
                assert_eq!(seen, vec![(1, 1), (2, 2)]);
            }
        });
    }

    #[test]
    fn mprobe_works_on_am_only_provider() {
        use litempi_fabric::{ProviderProfile, Topology};
        Universe::run(
            2,
            crate::config::BuildConfig::ch4_default(),
            ProviderProfile::am_only(),
            Topology::single_node(2),
            |proc| {
                let world = proc.world();
                if proc.rank() == 0 {
                    world.send(&[7u64], 1, 3).unwrap();
                } else {
                    let m = world.mprobe(0, 3).unwrap();
                    let mut b = [0u64; 1];
                    m.mrecv(&mut b).unwrap();
                    assert_eq!(b[0], 7);
                }
            },
        );
    }

    #[test]
    fn mprobe_rendezvous_message() {
        use litempi_fabric::{ProviderProfile, Topology};
        Universe::run(
            2,
            crate::config::BuildConfig::ch4_default(),
            ProviderProfile::ofi(),
            Topology::one_per_node(2),
            |proc| {
                let world = proc.world();
                let n = 50_000usize;
                if proc.rank() == 0 {
                    let data = vec![3u8; n];
                    world.send(&data, 1, 0).unwrap();
                } else {
                    let m = world.mprobe(0, 0).unwrap();
                    assert_eq!(m.status().bytes, n, "RTS probe reports full length");
                    let mut buf = vec![0u8; n];
                    let st = m.mrecv(&mut buf).unwrap();
                    assert_eq!(st.bytes, n);
                    assert!(buf.iter().all(|&b| b == 3));
                }
            },
        );
    }

    #[test]
    fn proc_null_improbe_yields_null_message() {
        Universe::run_default(1, |proc| {
            let world = proc.world();
            let m = world.improbe(PROC_NULL, 0).unwrap().unwrap();
            let mut b = [0u8; 4];
            let st = m.mrecv(&mut b).unwrap();
            assert_eq!(st.bytes, 0);
        });
    }
}
