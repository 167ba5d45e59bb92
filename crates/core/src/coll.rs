//! Machine-independent collectives (the MPI-layer algorithms of Fig 1).
//!
//! Like MPICH's collectives, these are built on the device's injection
//! path, not on the public `MPI_Isend` (so they pay device costs but not
//! repeated MPI-layer validation), and they run on the communicator's
//! *collective context* — a twin context id that isolates internal traffic
//! from user point-to-point traffic on the same communicator.
//!
//! Every collective has one encoding: the schedule compiled in
//! [`crate::sched`]. An entry point here validates what the compiler
//! cannot see, sizes the result, compiles, and runs the schedule inline
//! (`Schedule::run`) over the caller's buffers; the `MPI_I*` entry points
//! in `sched` defer the same schedule. What is left in this module beside
//! them is what a schedule is made of ([`send_staged`], the binomial-tree
//! arithmetic, the issue window) and the fault-tolerance protocol's own
//! send and receive ([`csend`], [`crecv_ft`]).

use crate::comm::Communicator;
use crate::error::{MpiError, MpiResult};
use crate::match_bits;
use crate::op::Op;
use crate::process::{Posted, ProcInner};
use crate::proto::{self, Opened};
use crate::pt2pt::{inject, Entry, SendMode};
use crate::request::{poll_or_death, wait_for};
use crate::sched::Schedule;
use litempi_datatype::{Datatype, MpiPrimitive};

/// Fire-and-forget send of `data` under `bits` to every world rank in
/// `dests`, in order: staged once ([`proto::stage`] — one pool lease and
/// one copy of `data` in total, eager or rendezvous), one injection per
/// destination. The schedule engine's `Send` vertices, the FT protocol and
/// the inter-communicator all come through here.
pub(crate) fn send_staged(
    proc: &ProcInner,
    bits: u64,
    data: &[u8],
    dests: impl IntoIterator<Item = usize>,
) {
    let mut dests = dests.into_iter();
    let Some(mut dest) = dests.next() else {
        return;
    };
    let (ty, mode) = (Datatype::BYTE, SendMode::Standard);
    let staged = proto::stage(proc, &ty, data.len(), data, mode, None);
    for next in dests {
        let wire = staged.clone().into_wire(proc);
        inject(proc, dest, bits, wire, Entry::Bytes);
        dest = next;
    }
    inject(proc, dest, bits, staged.into_wire(proc), Entry::Bytes);
}

/// FT-internal collective-channel send for the agreement protocol
/// ([`crate::ft`]): fire-and-forget, eager or rendezvous.
pub(crate) fn csend(comm: &Communicator, dest: usize, tag: i32, data: &[u8]) {
    let bits = match_bits::encode(comm.context_id().collective(), comm.rank, tag);
    send_staged(&comm.proc, bits, data, [comm.world_rank_of(dest)]);
}

/// FT-internal blocking receive from a specific peer on the collective
/// channel: the message, opened, for the caller to [`read`](Opened::read).
/// The agreement protocol's traffic is the one kind on this channel that is
/// not a schedule: ULFM requires `agree` to work on a revoked communicator,
/// so nothing here looks at the revocation flag, and nothing is routed
/// through the communicator's errhandler — the protocol turns peer death
/// (the poll checks the sender's world rank on every pass, so a kill
/// switch ends the wait with `PeerUnreachable` instead of a hang) into
/// protocol state, a dead-mask bit, not an application error.
pub(crate) fn crecv_ft(comm: &Communicator, src: usize, tag: i32) -> MpiResult<Opened> {
    let proc = &*comm.proc;
    let bits = match_bits::encode(comm.context_id().collective(), src, tag);
    let peer = Some(comm.world_rank_of(src));
    let posted = Posted::post(proc, bits, 0);
    let polled = wait_for(proc, || poll_or_death(proc, peer, None, || posted.poll()));
    if polled.is_err() {
        posted.cancel(proc);
    }
    proto::open(proc, polled?)
}

/// Copy a message into `dst`. A message of any other length is
/// `MPI_ERR_TRUNCATE`, not a slice-length panic.
pub(crate) fn copy_exact(data: &[u8], dst: &mut [u8]) -> MpiResult<()> {
    if data.len() != dst.len() {
        return Err(MpiError::Truncate {
            message: data.len(),
            buffer: dst.len(),
        });
    }
    dst.copy_from_slice(data);
    Ok(())
}

/// Message-size threshold (bytes) above which a flat `bcast` switches from
/// the binomial tree (latency-optimal, but sends the full payload log P
/// times) to scatter+allgather (bandwidth-optimal, van de Geijn) — read by
/// `Schedule::bcast`. MPICH uses the same structure with a similar
/// crossover.
pub const BCAST_LONG_MSG_BYTES: usize = 32 * 1024;

/// Binomial-tree parent of a (nonzero) virtual rank:
/// `parent(v) = v - 2^⌊log₂ v⌋` (clear the highest set bit). Children of
/// `v` are `v + 2^k` for every `2^k` at least the next power of two
/// above `v` — together these tile 0..P into a binomial tree.
pub(crate) fn parent_of(vrank: usize) -> usize {
    debug_assert!(vrank > 0);
    let high = usize::BITS - 1 - vrank.leading_zeros();
    vrank - (1 << high)
}

/// `n` elements of `T` with all-zero wire bytes: a typed buffer a receive
/// is about to overwrite.
pub(crate) fn zeroed<T: MpiPrimitive>(n: usize) -> Vec<T> {
    vec![T::from_wire(&[0u8; 16][..T::PREDEFINED.size()]); n]
}

/// Binomial-tree children of virtual rank `v` among `g` ranks, nearest
/// first: `v + 2^k` for every `2^k` above `v`'s highest set bit.
pub(crate) fn binomial_children(v: usize, g: usize) -> impl Iterator<Item = usize> {
    std::iter::successors(Some((v + 1).next_power_of_two()), |k| Some(k << 1))
        .map(move |k| v + k)
        .take_while(move |&c| c < g)
}

/// Upper bound on the issue window: how many exchange slots of a pairwise
/// exchange a rank may run ahead of its oldest outstanding receive, how
/// many receives a linear root posts at once. The old
/// code effectively used `size - 1` — at 1024 ranks that is 1023 posted
/// sends per rank and an O(ranks) matching queue at every receiver, which
/// is exactly the unbounded-posting bug this bounds. 16 keeps the pipe
/// full at BDP for small blocks on every calibrated provider profile
/// while pinning per-rank outstanding traffic to O(window).
pub const COLL_ISSUE_WINDOW: usize = 16;

/// Cost-model-tuned issue window for an exchange of `msg_bytes`
/// messages: enough slots in flight to cover the provider's
/// bandwidth-delay product, clamped to `1..=COLL_ISSUE_WINDOW`. Zero
/// latency or unbounded bandwidth (the `infinite` profile) means the BDP
/// argument degenerates, so the full window is used.
pub(crate) fn issue_window(comm: &Communicator, msg_bytes: usize) -> usize {
    let cost = comm.proc.endpoint.fabric().profile().cost;
    if cost.latency_ns <= 0.0 || !cost.bandwidth_gib_s.is_finite() {
        return COLL_ISSUE_WINDOW;
    }
    let bdp = cost.latency_ns * 1e-9 * cost.bandwidth_gib_s * (1u64 << 30) as f64;
    let slots = (bdp / msg_bytes.max(64) as f64).ceil() as usize;
    slots.clamp(1, COLL_ISSUE_WINDOW)
}

impl Communicator {
    /// `MPI_BARRIER` — see `Schedule::barrier`.
    pub fn barrier(&self) -> MpiResult<()> {
        Schedule::barrier(self).run(self, &mut [], &[])
    }

    /// `MPI_BCAST` — see `Schedule::bcast`.
    pub fn bcast<T: MpiPrimitive>(&self, buf: &mut [T], root: usize) -> MpiResult<()> {
        let sched = Schedule::bcast(self, std::mem::size_of_val(buf), root)?;
        sched.run(self, T::as_bytes_mut(buf), &[])
    }

    /// `MPI_REDUCE` — see `Schedule::reduce`. Returns `Some(result)` at
    /// `root`, `None` elsewhere.
    pub fn reduce<T: MpiPrimitive>(
        &self,
        sendbuf: &[T],
        op: &Op,
        root: usize,
    ) -> MpiResult<Option<Vec<T>>> {
        let sched = Schedule::reduce(self, std::mem::size_of_val(sendbuf), op, T::DATATYPE, root)?;
        // Fold in the buffer the root returns: no separate accumulator.
        let mut out = sendbuf.to_vec();
        sched.run(self, T::as_bytes_mut(&mut out), &[])?;
        Ok((self.rank() == root).then_some(out))
    }

    /// `MPI_ALLREDUCE` — see `Schedule::allreduce`.
    pub fn allreduce<T: MpiPrimitive>(&self, sendbuf: &[T], op: &Op) -> MpiResult<Vec<T>> {
        let sched = Schedule::allreduce(self, std::mem::size_of_val(sendbuf), op, T::DATATYPE);
        let mut out = sendbuf.to_vec();
        sched.run(self, T::as_bytes_mut(&mut out), &[])?;
        Ok(out)
    }

    /// `MPI_GATHER` (linear): root receives `sendbuf` from every rank,
    /// concatenated in rank order — see `Schedule::gather`. Returns `Some`
    /// at root.
    pub fn gather<T: MpiPrimitive>(&self, sendbuf: &[T], root: usize) -> MpiResult<Option<Vec<T>>> {
        let send = T::as_bytes(sendbuf);
        let sched = Schedule::gather(self, send.len(), root, false)?;
        let at_root = self.rank() == root;
        // My block in every slot; every other slot is overwritten.
        let mut out = sendbuf.repeat(if at_root { self.size() } else { 0 });
        sched.run(self, T::as_bytes_mut(&mut out), send)?;
        Ok(at_root.then_some(out))
    }

    /// `MPI_GATHERV` (linear, variable block sizes) — see
    /// `Schedule::gather`. Root receives each rank's slice; returns
    /// `Some((data, counts))` at root with per-rank element counts.
    pub fn gatherv<T: MpiPrimitive>(
        &self,
        sendbuf: &[T],
        root: usize,
    ) -> MpiResult<Option<(Vec<T>, Vec<usize>)>> {
        let (mine, elem) = (T::as_bytes(sendbuf), T::PREDEFINED.size());
        let sched = Schedule::gather(self, mine.len(), root, true)?;
        // Sizes are only known on arrival: the schedule hands back every
        // peer's message unread, in rank order (nothing in the root's own
        // slot), and the output is sized by them.
        let mut held = sched.run_holding(self, &mut [], mine)?;
        if self.rank() != root {
            return Ok(None);
        }
        held.resize_with(self.size(), || None);
        let counts: Vec<usize> = (held.iter())
            .map(|b| b.as_ref().map_or(mine.len(), Opened::len) / elem)
            .collect();
        let mut out = zeroed::<T>(counts.iter().sum());
        let mut rest = T::as_bytes_mut(&mut out);
        for (b, n) in held.into_iter().zip(&counts) {
            let (dst, tail) = rest.split_at_mut(n * elem);
            match b {
                None => dst.copy_from_slice(mine),
                Some(b) => self.handle_error(b.read(&self.proc, |data| copy_exact(data, dst)))?,
            }
            rest = tail;
        }
        Ok(Some((out, counts)))
    }

    /// `MPI_SCATTER` (linear): root distributes consecutive blocks of
    /// `sendbuf`; every rank returns its block — see `Schedule::scatter`.
    /// `sendbuf` is read at root only.
    pub fn scatter<T: MpiPrimitive>(
        &self,
        sendbuf: Option<&[T]>,
        block: usize,
        root: usize,
    ) -> MpiResult<Vec<T>> {
        let send = sendbuf.map_or(&[][..], T::as_bytes);
        let sent = sendbuf.map(|_| send.len());
        let sched = Schedule::scatter(self, sent, block * T::PREDEFINED.size(), root)?;
        let mut out = match sendbuf {
            Some(s) if self.rank() == root => s[root * block..(root + 1) * block].to_vec(),
            _ => zeroed::<T>(block),
        };
        sched.run(self, T::as_bytes_mut(&mut out), send)?;
        Ok(out)
    }

    /// `MPI_ALLGATHER` — see `Schedule::allgather`.
    pub fn allgather<T: MpiPrimitive>(&self, sendbuf: &[T]) -> MpiResult<Vec<T>> {
        let sched = Schedule::allgather(self, std::mem::size_of_val(sendbuf));
        // My block in every slot; every other slot is overwritten.
        let mut out = sendbuf.repeat(self.size());
        sched.run(self, T::as_bytes_mut(&mut out), &[])?;
        Ok(out)
    }

    /// `MPI_ALLTOALL`: `sendbuf` holds `size` blocks of `block` elements;
    /// block `i` goes to rank `i` — see `Schedule::alltoall`.
    pub fn alltoall<T: MpiPrimitive>(&self, sendbuf: &[T], block: usize) -> MpiResult<Vec<T>> {
        let send = T::as_bytes(sendbuf);
        let sched = Schedule::alltoall(self, send.len(), block * T::PREDEFINED.size())?;
        // Every block but my own is overwritten by its sender's.
        let mut out = sendbuf.to_vec();
        sched.run(self, T::as_bytes_mut(&mut out), send)?;
        Ok(out)
    }

    /// `MPI_SCAN` (inclusive prefix reduction, linear chain) — see
    /// `Schedule::scan`.
    pub fn scan<T: MpiPrimitive>(&self, sendbuf: &[T], op: &Op) -> MpiResult<Vec<T>> {
        let send = T::as_bytes(sendbuf);
        let sched = Schedule::scan(self, send.len(), op, T::DATATYPE, false);
        // Rank 0's prefix is its own contribution.
        let mut out = sendbuf.to_vec();
        sched.run(self, T::as_bytes_mut(&mut out), send)?;
        Ok(out)
    }

    /// `MPI_EXSCAN` (exclusive prefix): rank 0 gets `None` — see
    /// `Schedule::scan`.
    pub fn exscan<T: MpiPrimitive>(&self, sendbuf: &[T], op: &Op) -> MpiResult<Option<Vec<T>>> {
        let send = T::as_bytes(sendbuf);
        let sched = Schedule::scan(self, send.len(), op, T::DATATYPE, true);
        // The prefix as received, then the copy of it that is folded with
        // my contribution and sent on.
        let mut out = zeroed::<T>(2 * sendbuf.len());
        sched.run(self, T::as_bytes_mut(&mut out), send)?;
        out.truncate(sendbuf.len());
        Ok((self.rank() > 0).then_some(out))
    }

    /// `MPI_REDUCE_SCATTER_BLOCK` (pairwise exchange): `sendbuf` holds one
    /// block per rank; rank `i` returns the reduction of everyone's block
    /// `i` — see `Schedule::reduce_scatter_block`.
    pub fn reduce_scatter_block<T: MpiPrimitive>(
        &self,
        sendbuf: &[T],
        op: &Op,
    ) -> MpiResult<Vec<T>> {
        if !sendbuf.len().is_multiple_of(self.size()) {
            return Err(MpiError::InvalidCount(sendbuf.len() as i64));
        }
        let block = sendbuf.len() / self.size();
        let sched =
            Schedule::reduce_scatter_block(self, block * T::PREDEFINED.size(), op, T::DATATYPE);
        // Fold into my own block of my own contribution.
        let mut out = sendbuf[self.rank() * block..(self.rank() + 1) * block].to_vec();
        sched.run(self, T::as_bytes_mut(&mut out), T::as_bytes(sendbuf))?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;

    #[test]
    fn scatter_root_without_buffer_is_an_error() {
        Universe::run_default(1, |proc| {
            let world = proc.world();
            let e = world.scatter::<u8>(None, 2, 0).unwrap_err();
            assert!(matches!(e, MpiError::BufferTooSmall { provided: 0, .. }));
        });
    }

    #[test]
    fn scatter_short_root_buffer_is_an_error() {
        Universe::run_default(1, |proc| {
            let world = proc.world();
            let e = world.scatter(Some(&[1u8][..]), 2, 0).unwrap_err();
            assert!(matches!(
                e,
                MpiError::BufferTooSmall {
                    needed: 2,
                    provided: 1
                }
            ));
        });
    }

    #[test]
    fn alltoall_missized_buffer_is_an_error() {
        // Validation fires before any traffic, so every rank errors locally.
        Universe::run_default(2, |proc| {
            let world = proc.world();
            let e = world.alltoall(&[1u8, 2, 3], 2).unwrap_err();
            assert!(matches!(
                e,
                MpiError::BufferTooSmall {
                    needed: 4,
                    provided: 3
                }
            ));
        });
    }

    #[test]
    fn reduce_scatter_indivisible_buffer_is_an_error() {
        Universe::run_default(3, |proc| {
            let world = proc.world();
            let e = world
                .reduce_scatter_block(&[1i64, 2], &Op::Sum)
                .unwrap_err();
            assert!(matches!(e, MpiError::InvalidCount(2)));
        });
    }

    #[test]
    fn barrier_completes_at_various_sizes() {
        for n in [1, 2, 3, 4, 5, 8] {
            Universe::run_default(n, |proc| {
                let world = proc.world();
                for _ in 0..3 {
                    world.barrier().unwrap();
                }
            });
        }
    }

    #[test]
    fn bcast_from_each_root() {
        for n in [2, 3, 4, 7] {
            for root in 0..n {
                let out = Universe::run_default(n, move |proc| {
                    let world = proc.world();
                    let mut buf = if proc.rank() == root {
                        [42u64, 7]
                    } else {
                        [0, 0]
                    };
                    world.bcast(&mut buf, root).unwrap();
                    buf
                });
                assert!(out.iter().all(|b| *b == [42, 7]), "n={n} root={root}");
            }
        }
    }

    #[test]
    fn reduce_sum_to_each_root() {
        for n in [2, 4, 5] {
            for root in 0..n {
                let out = Universe::run_default(n, move |proc| {
                    let world = proc.world();
                    let mine = [proc.rank() as i64, 1];
                    world.reduce(&mine, &Op::Sum, root).unwrap()
                });
                let expect: i64 = (0..n as i64).sum();
                for (r, o) in out.iter().enumerate() {
                    if r == root {
                        assert_eq!(o.as_ref().unwrap(), &vec![expect, n as i64]);
                    } else {
                        assert!(o.is_none());
                    }
                }
            }
        }
    }

    #[test]
    fn allreduce_matches_sequential_reference() {
        for n in [2, 3, 4, 8] {
            let out = Universe::run_default(n, |proc| {
                let world = proc.world();
                let mine = [proc.rank() as f64 + 1.0, (proc.rank() as f64) * 0.5];
                world.allreduce(&mine, &Op::Sum).unwrap()
            });
            let e0: f64 = (0..n).map(|r| r as f64 + 1.0).sum();
            let e1: f64 = (0..n).map(|r| r as f64 * 0.5).sum();
            for o in out {
                assert!(
                    (o[0] - e0).abs() < 1e-12 && (o[1] - e1).abs() < 1e-12,
                    "n={n}"
                );
            }
        }
    }

    #[test]
    fn allreduce_min_max() {
        let out = Universe::run_default(4, |proc| {
            let world = proc.world();
            let mine = [proc.rank() as i32];
            let mn = world.allreduce(&mine, &Op::Min).unwrap();
            let mx = world.allreduce(&mine, &Op::Max).unwrap();
            (mn[0], mx[0])
        });
        assert!(out.iter().all(|&(a, b)| a == 0 && b == 3));
    }

    #[test]
    fn gather_concatenates_in_rank_order() {
        let out = Universe::run_default(4, |proc| {
            let world = proc.world();
            let mine = [proc.rank() as u32, proc.rank() as u32 * 10];
            world.gather(&mine, 2).unwrap()
        });
        assert_eq!(out[2].as_ref().unwrap(), &vec![0, 0, 1, 10, 2, 20, 3, 30]);
        assert!(out[0].is_none());
    }

    #[test]
    fn gatherv_variable_sizes() {
        let out = Universe::run_default(3, |proc| {
            let world = proc.world();
            let mine: Vec<u16> = (0..=proc.rank() as u16).collect();
            world.gatherv(&mine, 0).unwrap()
        });
        let (data, counts) = out[0].as_ref().unwrap();
        assert_eq!(counts, &vec![1, 2, 3]);
        assert_eq!(data, &vec![0u16, 0, 1, 0, 1, 2]);
    }

    #[test]
    fn scatter_distributes_blocks() {
        let out = Universe::run_default(3, |proc| {
            let world = proc.world();
            let send: Option<Vec<i32>> = (proc.rank() == 1).then(|| (0..6).collect());
            world.scatter(send.as_deref(), 2, 1).unwrap()
        });
        assert_eq!(out, vec![vec![0, 1], vec![2, 3], vec![4, 5]]);
    }

    #[test]
    fn allgather_all_ranks_see_all_blocks() {
        for n in [2, 3, 5] {
            let out = Universe::run_default(n, |proc| {
                let world = proc.world();
                let mine = [proc.rank() as u64 * 100];
                world.allgather(&mine).unwrap()
            });
            let expect: Vec<u64> = (0..n as u64).map(|r| r * 100).collect();
            assert!(out.iter().all(|o| *o == expect), "n={n}");
        }
    }

    #[test]
    fn alltoall_transposes() {
        let n = 4;
        let out = Universe::run_default(n, |proc| {
            let world = proc.world();
            // Block j of rank i carries i*10 + j.
            let send: Vec<i32> = (0..n as i32).map(|j| proc.rank() as i32 * 10 + j).collect();
            world.alltoall(&send, 1).unwrap()
        });
        for (i, o) in out.iter().enumerate() {
            let expect: Vec<i32> = (0..n as i32).map(|j| j * 10 + i as i32).collect();
            assert_eq!(o, &expect, "rank {i}");
        }
    }

    #[test]
    fn scan_inclusive_prefix() {
        let out = Universe::run_default(4, |proc| {
            let world = proc.world();
            world.scan(&[proc.rank() as i64 + 1], &Op::Sum).unwrap()
        });
        assert_eq!(out, vec![vec![1], vec![3], vec![6], vec![10]]);
    }

    #[test]
    fn exscan_exclusive_prefix() {
        let out = Universe::run_default(4, |proc| {
            let world = proc.world();
            world.exscan(&[proc.rank() as i64 + 1], &Op::Sum).unwrap()
        });
        assert_eq!(out[0], None);
        assert_eq!(out[1].as_ref().unwrap(), &vec![1]);
        assert_eq!(out[3].as_ref().unwrap(), &vec![6]);
    }

    #[test]
    fn reduce_scatter_block_splits_reduction() {
        let n = 4;
        let out = Universe::run_default(n, |proc| {
            let world = proc.world();
            // Everyone contributes [r, r, r, r] → sum = [6, 6, 6, 6];
            // rank i gets element i.
            let send = vec![proc.rank() as i32; n];
            world.reduce_scatter_block(&send, &Op::Sum).unwrap()
        });
        assert_eq!(out, vec![vec![6]; 4]);
    }

    #[test]
    fn concurrent_collectives_on_dup_are_isolated() {
        // Two communicators with the same membership run collectives whose
        // internal traffic must not cross-match.
        let out = Universe::run_default(4, |proc| {
            let world = proc.world();
            let dup = world.dup();
            let a = world.allreduce(&[1i64], &Op::Sum).unwrap();
            let b = dup.allreduce(&[10i64], &Op::Sum).unwrap();
            (a[0], b[0])
        });
        assert!(out.iter().all(|&(a, b)| a == 4 && b == 40));
    }

    #[test]
    fn bcast_delivers_the_root_buffer_on_both_sides_of_the_selection() {
        // Per rank count: 4 u64s (tree) and 1024 u64s — 24 KiB total at
        // n = 3, the tree still; 32 KiB at 4 is not *above* the threshold;
        // 40 and 64 KiB at 5 and 8 take scatter + allgather.
        for n in [3, 4, 5, 8] {
            for root in [0, n - 1] {
                for per_rank in [4, 1024] {
                    let len = n * per_rank;
                    let want: Vec<u64> = (0..len as u64).map(|i| 7000 + i).collect();
                    let expect = want.clone();
                    let out = Universe::run_default(n, move |proc| {
                        let world = proc.world();
                        let mut buf = if proc.rank() == root {
                            want.clone()
                        } else {
                            vec![0; len]
                        };
                        world.bcast(&mut buf, root).unwrap();
                        buf
                    });
                    for got in out {
                        assert_eq!(got, expect, "n={n} root={root} len={len}");
                    }
                }
            }
        }
    }

    #[test]
    fn bcast_selects_long_algorithm_for_big_payloads() {
        // > 32 KiB and divisible by size → van de Geijn path; result must
        // still be correct.
        let n = 4;
        let out = Universe::run_default(n, |proc| {
            let world = proc.world();
            let len = 16 * 1024; // u64s → 128 KiB
            let mut buf = if proc.rank() == 2 {
                (0..len as u64).collect::<Vec<u64>>()
            } else {
                vec![0; len]
            };
            world.bcast(&mut buf, 2).unwrap();
            buf[len - 1]
        });
        assert!(out.iter().all(|&v| v == 16 * 1024 - 1));
    }

    #[test]
    fn allgather_is_rank_ordered_on_both_sides_of_the_selection() {
        // Power-of-two sizes take recursive doubling, the rest the ring.
        for n in [2, 3, 4, 6, 8] {
            let out = Universe::run_default(n, |proc| {
                let world = proc.world();
                let mine = [proc.rank() as u64 * 3 + 1, proc.rank() as u64];
                world.allgather(&mine).unwrap()
            });
            let expect: Vec<u64> = (0..n as u64).flat_map(|r| [r * 3 + 1, r]).collect();
            for got in out {
                assert_eq!(got, expect, "n={n}");
            }
        }
    }

    #[test]
    fn reduce_scatter_matches_reduce_then_scatter() {
        for n in [2, 3, 4, 5] {
            let out = Universe::run_default(n, |proc| {
                let world = proc.world();
                let send: Vec<i64> = (0..n as i64 * 2)
                    .map(|j| proc.rank() as i64 * 10 + j)
                    .collect();
                let pairwise = world.reduce_scatter_block(&send, &Op::Sum).unwrap();
                let reduced = world.reduce(&send, &Op::Sum, 0).unwrap();
                let naive = world.scatter(reduced.as_deref(), 2, 0).unwrap();
                (pairwise, naive)
            });
            for (p, q) in out {
                assert_eq!(p, q, "n={n}");
            }
        }
    }

    #[test]
    fn issue_window_tracks_the_bandwidth_delay_product() {
        use litempi_fabric::{ProviderProfile, Topology};
        let window_on = |profile: ProviderProfile, msg_bytes: usize| -> usize {
            Universe::run(
                1,
                crate::config::BuildConfig::ch4_default(),
                profile,
                Topology::single_node(1),
                move |proc| issue_window(&proc.world(), msg_bytes),
            )[0]
        };
        // Zero-latency fabric: BDP degenerates, full window.
        assert_eq!(window_on(ProviderProfile::infinite(), 8), COLL_ISSUE_WINDOW);
        // Small messages on a network provider need many slots to cover
        // the BDP — clamped at the cap.
        assert_eq!(window_on(ProviderProfile::ofi(), 8), COLL_ISSUE_WINDOW);
        // A megabyte block alone covers any calibrated BDP: window 1.
        assert_eq!(window_on(ProviderProfile::ofi(), 1 << 20), 1);
        // In between, the window shrinks monotonically with block size.
        let mid = window_on(ProviderProfile::ofi(), 4096);
        assert!((1..=COLL_ISSUE_WINDOW).contains(&mid));
        assert!(mid <= window_on(ProviderProfile::ofi(), 512));
    }

    #[test]
    fn peeked_fanout_payload_is_never_recycled() {
        // Rank 0's broadcast fans ONE staged payload out to its binomial
        // children, ranks 1 and 2. Rank 1 holds a peek clone of its copy
        // (what `iprobe` takes) across every lease drop and a churn of
        // same-class traffic: had any release recycled the shared storage,
        // the churn would have overwritten it.
        let data = [0xABu8; 200];
        Universe::run_default(4, move |proc| {
            let world = proc.world();
            let rank = world.rank();
            let mut peek = None;
            if rank == 1 {
                // The job's first collective-channel message from rank 0.
                let ctx = world.context_id().collective();
                let (bits, ignore) = match_bits::recv_bits(ctx, 0, match_bits::ANY_TAG);
                let seen = wait_for(&world.proc, || world.proc.endpoint.tpeek(bits, ignore));
                peek = Some(seen.data);
            }
            let mut got = if rank == 0 { data } else { [0; 200] };
            world.bcast(&mut got, 0).unwrap();
            assert_eq!(got, data);
            world.barrier().unwrap();
            for _ in 0..8 {
                world.allgather(&[rank as u8; 200]).unwrap();
            }
            if let Some(peek) = peek {
                assert_eq!(peek[1..], data, "peeked storage was reused");
            }
        });
    }

    #[test]
    fn large_payload_collectives_use_rendezvous() {
        // Bigger than the shm eager limit would be; on the infinite
        // provider max_eager is huge, so force smaller via OFI profile.
        use litempi_fabric::{ProviderProfile, Topology};
        let out = Universe::run(
            2,
            crate::config::BuildConfig::ch4_default(),
            ProviderProfile::ofi(),
            Topology::one_per_node(2),
            |proc| {
                let world = proc.world();
                let mut buf = if proc.rank() == 0 {
                    vec![7u8; 100_000]
                } else {
                    vec![0u8; 100_000]
                };
                world.bcast(&mut buf, 0).unwrap();
                buf.iter().all(|&b| b == 7)
            },
        );
        assert!(out.iter().all(|&ok| ok));
    }
}
