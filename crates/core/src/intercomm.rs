//! Intercommunicators (`MPI_INTERCOMM_CREATE` / `MPI_INTERCOMM_MERGE`).
//!
//! An intercommunicator connects two disjoint groups; point-to-point
//! ranks name processes in the *remote* group. They matter to this
//! reproduction because the paper's §3.1 proposal is explicitly **not**
//! intercommunicator-safe ("one could not use this function for
//! communicating across processes that belong to different
//! MPI_COMM_WORLD communicators") — accordingly, [`InterComm`] exposes
//! only the classic addressed operations, and the type system enforces
//! the restriction the paper could only state in prose: there is no
//! `isend_global` on an intercommunicator.

use crate::comm::Communicator;
use crate::error::{MpiError, MpiResult};
use crate::group::Group;
use crate::match_bits::{self, ContextId};
use crate::process::{Posted, ProcInner};
use crate::request::{RecvDest, Request};
use crate::status::Status;
use litempi_datatype::MpiPrimitive;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// State shared by all ranks (both sides) of an intercommunicator.
pub(crate) struct InterShared {
    ctx: ContextId,
    /// The two groups, indexed by side (0 = the side whose leader had the
    /// smaller world rank — a stable, symmetric convention).
    groups: [Group; 2],
}

/// An intercommunicator handle (one rank's view).
pub struct InterComm {
    proc: Arc<ProcInner>,
    shared: Arc<InterShared>,
    /// Which side of `shared.groups` is my local group.
    side: usize,
    /// My rank within my local group.
    local_rank: usize,
    /// `MPI_ERRORS_ARE_FATAL`, inherited from the local communicator when
    /// the intercommunicator was created.
    fatal: bool,
}

impl Communicator {
    /// `MPI_INTERCOMM_CREATE` (collective over the local communicator):
    /// connect `self`'s group with a remote group. `local_leader` is a
    /// rank in `self`; `peer_comm` is a communicator containing both
    /// leaders (typically the world); `remote_leader` is the remote
    /// leader's rank in `peer_comm`. The two groups must be disjoint.
    pub fn intercomm_create(
        &self,
        local_leader: usize,
        peer_comm: &Communicator,
        remote_leader: usize,
        tag: i32,
    ) -> MpiResult<InterComm> {
        if self.proc.config.error_checking {
            self.group().check_rank(local_leader as i32)?;
            peer_comm.group().check_rank(remote_leader as i32)?;
        }
        // 1. Leaders swap group membership over the peer communicator.
        let my_group_worlds: Vec<u64> = (0..self.size())
            .map(|r| self.world_rank_of(r) as u64)
            .collect();
        let mut remote_worlds: Vec<u64> = Vec::new();
        if self.rank() == local_leader {
            let mut remote_len = [0u64; 1];
            peer_comm.sendrecv(
                &[my_group_worlds.len() as u64],
                remote_leader as i32,
                tag,
                &mut remote_len,
                remote_leader as i32,
                tag,
            )?;
            remote_worlds = vec![0u64; remote_len[0] as usize];
            peer_comm.sendrecv(
                &my_group_worlds,
                remote_leader as i32,
                tag + 1,
                &mut remote_worlds,
                remote_leader as i32,
                tag + 1,
            )?;
        }
        // 2. Leader broadcasts the remote membership within the local comm.
        let mut remote_len = [remote_worlds.len() as u64];
        self.bcast(&mut remote_len, local_leader)?;
        remote_worlds.resize(remote_len[0] as usize, 0);
        self.bcast(&mut remote_worlds, local_leader)?;

        let remote_group =
            Group::from_world_ranks(&remote_worlds.iter().map(|&w| w as u32).collect::<Vec<_>>());
        if self.proc.config.error_checking {
            for r in 0..remote_group.size() {
                if self
                    .group()
                    .local_rank(remote_group.world_rank(r))
                    .is_some()
                {
                    return Err(MpiError::InvalidComm("intercomm groups must be disjoint"));
                }
            }
        }

        // 3. All participants agree on a context id (and a canonical side
        // order) via the meet table, keyed by the leader pair + tag.
        let my_leader_world = self.world_rank_of(local_leader);
        let remote_leader_world = {
            // First member of the remote group is not necessarily its
            // leader; recover the leader's world rank via peer_comm.
            peer_comm.world_rank_of(remote_leader)
        };
        let lo = my_leader_world.min(remote_leader_world) as u64;
        let hi = my_leader_world.max(remote_leader_world) as u64;
        let my_side_is_low = my_leader_world < remote_leader_world;
        let total = self.size() + remote_group.size();
        let univ = &self.proc.univ;
        let local_group = self.group().clone();
        let shared = univ.meet.meet((0xFFFF ^ (tag as u16), lo, hi), total, || {
            let groups = if my_side_is_low {
                [local_group.clone(), remote_group.clone()]
            } else {
                [remote_group.clone(), local_group.clone()]
            };
            InterShared {
                ctx: ContextId(univ.next_ctx.fetch_add(1, Ordering::Relaxed)),
                groups,
            }
        });
        let side = usize::from(!my_side_is_low);
        Ok(InterComm {
            proc: self.proc.clone(),
            shared,
            side,
            local_rank: self.rank(),
            fatal: self.errors_are_fatal(),
        })
    }
}

impl InterComm {
    /// My rank in the local group.
    pub fn rank(&self) -> usize {
        self.local_rank
    }

    /// Size of my local group (`MPI_COMM_SIZE` on an intercomm).
    pub fn local_size(&self) -> usize {
        self.shared.groups[self.side].size()
    }

    /// Size of the remote group (`MPI_COMM_REMOTE_SIZE`).
    pub fn remote_size(&self) -> usize {
        self.shared.groups[1 - self.side].size()
    }

    fn remote_group(&self) -> &Group {
        &self.shared.groups[1 - self.side]
    }

    /// Blocking send to `dest` — a rank in the **remote** group.
    pub fn send<T: MpiPrimitive>(&self, data: &[T], dest: usize, tag: i32) -> MpiResult<()> {
        if self.proc.config.error_checking {
            match_bits::check_tag(tag)?;
            self.remote_group().check_rank(dest as i32)?;
        }
        let dest_world = self.remote_group().world_rank(dest);
        // Sender encodes its *local* rank: that is the rank by which the
        // receiver (whose remote group is our local group) names us.
        let bits = match_bits::encode(self.shared.ctx, self.local_rank, tag);
        crate::coll::send_staged(&self.proc, bits, T::as_bytes(data), [dest_world]);
        Ok(())
    }

    /// Blocking receive from `source` — a rank in the **remote** group
    /// (or `ANY_SOURCE`).
    pub fn recv_into<T: MpiPrimitive>(
        &self,
        buf: &mut [T],
        source: i32,
        tag: i32,
    ) -> MpiResult<Status> {
        if self.proc.config.error_checking {
            match_bits::check_recv_tag(tag)?;
            if source != match_bits::ANY_SOURCE {
                self.remote_group().check_rank(source)?;
            }
        }
        let (bits, ignore) = match_bits::recv_bits(self.shared.ctx, source, tag);
        let count = buf.len();
        let dest = RecvDest {
            buf: T::as_bytes_mut(buf),
            ty: T::DATATYPE,
            count,
        };
        // A wildcard receive has no single peer to watch, as in `irecv`.
        let peer = (source != match_bits::ANY_SOURCE)
            .then(|| self.remote_group().world_rank(source as usize));
        let posted = Posted::post(&self.proc, bits, ignore);
        let ctx = self.shared.ctx.0;
        Request::recv(self.proc.clone(), posted, dest, peer, self.fatal, ctx).wait()
    }

    /// `MPI_INTERCOMM_MERGE`: fuse both groups into one intracommunicator.
    ///
    /// Simplification vs the C API: *all* ranks (both sides) must pass the
    /// same `high` flag. `high = false` orders the low side (the group
    /// whose leader had the smaller world rank) first; `high = true`
    /// orders it last. (The C API's per-side flags add a flag exchange
    /// that changes nothing about the communicator machinery under test.)
    pub fn merge(&self, high: bool) -> MpiResult<Communicator> {
        let first_side = usize::from(high);
        let (a, b) = (
            &self.shared.groups[first_side],
            &self.shared.groups[1 - first_side],
        );
        let union = a.union(b);
        let univ = &self.proc.univ;
        let total = union.size();
        let ctx = self.shared.ctx.0;
        let union2 = union.clone();
        let shared = univ.meet.meet((ctx, u64::MAX - 1, high as u64), total, || {
            crate::comm::CommShared {
                ctx: ContextId(univ.next_ctx.fetch_add(1, Ordering::Relaxed)),
                group: union2,
            }
        });
        Ok(Communicator::from_shared_crate(self.proc.clone(), shared))
    }
}

impl std::fmt::Debug for InterComm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InterComm")
            .field("ctx", &self.shared.ctx.0)
            .field("local_rank", &self.local_rank)
            .field("local_size", &self.local_size())
            .field("remote_size", &self.remote_size())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;

    /// Evens and odds build an intercomm over the world, exchange, merge.
    fn split_intercomm(proc: &crate::process::Process) -> (Communicator, InterComm) {
        let world = proc.world();
        let parity = proc.rank() % 2;
        let local = world
            .split(parity as i32, proc.rank() as i32)
            .unwrap()
            .unwrap();
        // Leaders: world rank 0 (evens) and 1 (odds).
        let remote_leader = if parity == 0 { 1 } else { 0 };
        let inter = local
            .intercomm_create(0, &world, remote_leader, 77)
            .unwrap();
        (world, inter)
    }

    #[test]
    fn create_and_sizes() {
        Universe::run_default(6, |proc| {
            let (_world, inter) = split_intercomm(&proc);
            assert_eq!(inter.local_size(), 3);
            assert_eq!(inter.remote_size(), 3);
            assert_eq!(inter.rank(), proc.rank() / 2);
        });
    }

    #[test]
    fn pt2pt_names_remote_ranks() {
        Universe::run_default(4, |proc| {
            let (_world, inter) = split_intercomm(&proc);
            // Even rank k sends to odd rank k (remote rank k) and vice
            // versa receives.
            let me = inter.rank();
            if proc.rank() % 2 == 0 {
                inter.send(&[proc.rank() as u64 * 7], me, 3).unwrap();
            } else {
                let mut buf = [0u64; 1];
                let st = inter.recv_into(&mut buf, me as i32, 3).unwrap();
                // Sender was even world rank 2*me.
                assert_eq!(buf[0], (2 * me as u64) * 7);
                assert_eq!(st.source, me as i32, "source named in remote-group ranks");
            }
        });
    }

    #[test]
    fn disjoint_groups_enforced() {
        Universe::run_default(2, |proc| {
            let world = proc.world();
            let dup = world.dup();
            // Same membership on both sides → must be rejected.
            let e = dup.intercomm_create(0, &world, 0, 5).unwrap_err();
            assert!(matches!(e, MpiError::InvalidComm(_)));
        });
    }

    #[test]
    fn merge_restores_full_communicator() {
        Universe::run_default(4, |proc| {
            let (_world, inter) = split_intercomm(&proc);
            let merged = inter.merge(false).unwrap();
            assert_eq!(merged.size(), 4);
            // Collective over the merged comm covers both original groups.
            let total = merged.allreduce(&[1u64], &crate::op::Op::Sum).unwrap()[0];
            assert_eq!(total, 4);
            // Low group (evens, leader world 0) orders first.
            if proc.rank() % 2 == 0 {
                assert!(merged.rank() < 2);
            } else {
                assert!(merged.rank() >= 2);
            }
        });
    }

    #[test]
    fn any_source_across_the_bridge() {
        Universe::run_default(4, |proc| {
            let (_world, inter) = split_intercomm(&proc);
            if proc.rank() % 2 == 0 {
                inter
                    .send(&[inter.rank() as u32 + 1], inter.rank(), 9)
                    .unwrap();
            } else {
                let mut buf = [0u32; 1];
                let st = inter
                    .recv_into(&mut buf, match_bits::ANY_SOURCE, 9)
                    .unwrap();
                assert_eq!(buf[0] as i32, st.source + 1);
            }
        });
    }
}
