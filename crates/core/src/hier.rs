//! Node-aware plans for the collective compilers.
//!
//! A flat algorithm treats every peer as equidistant, but the fabric's
//! [`Topology`](litempi_fabric::Topology) says otherwise: intra-node
//! traffic rides the shmmod (shared memory) while inter-node traffic pays
//! the netmod's network latency. At 1024 ranks spread over dozens of
//! nodes, a flat recursive-doubling allreduce sends `P·log P` messages
//! across the network; a leader-based hierarchy sends `P − N` cheap
//! intra-node messages plus `N·log N` network messages (`N` = node count)
//! — the classic MPICH/SMP-aware structure.
//!
//! This module only *describes* that structure: [`plan`] groups a
//! communicator's ranks by node and names one leader per node, and
//! [`alltoall_slots`] orders the pairwise exchange so intra-node pairs go
//! first. The schedule compilers in [`crate::sched`] turn either into
//! messages.
//!
//! ## Cost model / selection
//!
//! [`plan`] keys on the topology's node map. The hierarchy is selected
//! exactly when `1 < n_nodes < size`: with one node everything is shmmod
//! traffic and the flat algorithm is already optimal (`plan` returns `None`
//! without charging anything); with one rank per node there is no
//! intra-node level to exploit. In between, both levels shrink: the
//! intra-node fan-in/fan-out replaces `log P` network rounds per member
//! with one shm round-trip, and the inter-node phase runs on `N ≪ P`
//! leaders.
//!
//! ## Determinism
//!
//! A node-aware reduction folds its operands in a fixed order (ascending
//! member order within a node, binomial child order across leaders), so
//! repeated runs are bitwise-identical, floating point included. Against a
//! flat tree the fold order differs, so the two agree on the
//! commutative-and-exact cases (integers, bitwise ops, exactly
//! representable floats) — which is what the equivalence suite pins with
//! its sequential oracle. All predefined ops are commutative; user-defined
//! ops are assumed commutative (see [`crate::op`]).

use crate::comm::Communicator;
use litempi_fabric::NetAddr;

/// Node-aware execution plan for one communicator, derived from the
/// fabric topology. Membership and topology are immutable, so the plan is
/// built once per communicator handle (one `O(size)` scan, on the first
/// collective that asks) and borrowed by every call after that.
pub(crate) struct HierPlan {
    /// Communicator ranks on my node, ascending. `members[0]` is the
    /// node's leader.
    pub members: Vec<usize>,
    /// My index in `members`.
    pub my_slot: usize,
    /// Leader (lowest communicator rank) of every node, ascending.
    pub leaders: Vec<usize>,
    /// My index in `leaders` when I am a leader.
    pub leader_slot: Option<usize>,
    /// Communicator rank → its node's leader rank.
    pub leader_of: Vec<usize>,
}

impl HierPlan {
    /// My node's leader.
    pub fn leader(&self) -> usize {
        self.members[0]
    }

    /// Position in `leaders` of the leader of `rank`'s node.
    pub fn leader_slot_of(&self, rank: usize) -> usize {
        self.leaders
            .binary_search(&self.leader_of[rank])
            .expect("every node's leader is in `leaders`")
    }
}

/// The communicator's hierarchical plan, or `None` when the flat
/// algorithms should run (single node, one rank per node, or a tiny
/// communicator). See the module docs for the cost-model argument.
pub(crate) fn plan(comm: &Communicator) -> Option<&HierPlan> {
    comm.hier_plan.get_or_init(|| build_plan(comm)).as_ref()
}

fn build_plan(comm: &Communicator) -> Option<HierPlan> {
    let size = comm.size();
    if size < 3 {
        return None;
    }
    let fabric = comm.proc.endpoint.fabric();
    let topo = fabric.topology();
    // One pass: first rank seen on each node becomes that node's leader.
    let mut leaders: Vec<usize> = Vec::new();
    let mut node_leaders: Vec<(litempi_fabric::NodeId, usize)> = Vec::new();
    let mut leader_of: Vec<usize> = Vec::with_capacity(size);
    for r in 0..size {
        let nid = topo.node_of(NetAddr(comm.world_rank_of(r) as u32));
        let l = match node_leaders.iter().find(|(n, _)| *n == nid) {
            Some(&(_, l)) => l,
            None => {
                node_leaders.push((nid, r));
                leaders.push(r);
                r
            }
        };
        leader_of.push(l);
    }
    let n_nodes = leaders.len();
    if n_nodes <= 1 || n_nodes >= size {
        return None;
    }
    let me = comm.rank();
    let my_leader = leader_of[me];
    let members: Vec<usize> = (0..size).filter(|&r| leader_of[r] == my_leader).collect();
    let my_slot = members
        .iter()
        .position(|&r| r == me)
        .expect("rank missing from its own node group");
    let leader_slot = if my_leader == me {
        Some(
            leaders
                .iter()
                .position(|&l| l == me)
                .expect("leader missing from leader list"),
        )
    } else {
        None
    };
    Some(HierPlan {
        members,
        my_slot,
        leaders,
        leader_slot,
        leader_of,
    })
}

// ------------------------------------------------- windowed pairwise exchange

/// One step of the windowed pairwise exchange: at most one send and one
/// receive partner (communicator ranks).
#[derive(Clone, Copy, Debug)]
pub(crate) struct ExchangeSlot {
    pub send_to: Option<usize>,
    pub recv_from: Option<usize>,
}

/// The classic pairwise schedule: one pass over offsets `1..size` — send
/// to `rank+p`, receive from `rank−p`.
fn pairwise_slots(size: usize, rank: usize) -> Vec<ExchangeSlot> {
    (1..size)
        .map(|p| ExchangeSlot {
            send_to: Some((rank + p) % size),
            recv_from: Some((rank + size - p) % size),
        })
        .collect()
}

/// The pairwise-exchange slot sequence for this rank's alltoall, computed
/// once per communicator handle (like [`plan`], it depends only on the
/// immutable membership and topology).
///
/// Flat (no [`plan`]): [`pairwise_slots`].
///
/// Node-aware (the communicator has a [`plan`]): two passes over the same
/// offsets, intra-node pairs first, then inter-node pairs. The skip test is
/// `same_node` on the *pair*, which both endpoints evaluate identically,
/// so every rank walks the same global `(pass, offset)` sequence and the
/// windowed schedule ([`crate::sched::Schedule::alltoall`]) cannot
/// deadlock: the send for slot position `t` is issued once its sender has
/// completed receives through position `t − W`, which induction over `t`
/// shows always happens.
/// Slots empty for this rank are dropped — that only *advances* its sends
/// relative to the global schedule, which is always safe for
/// fire-and-forget sends. The message set is identical to the flat
/// schedule (each pair exchanges exactly once), so results and injection
/// charges are unchanged; only the order puts cheap shmmod traffic first.
pub(crate) fn alltoall_slots(comm: &Communicator) -> &[ExchangeSlot] {
    comm.alltoall_slots.get_or_init(|| build_slots(comm))
}

fn build_slots(comm: &Communicator) -> Vec<ExchangeSlot> {
    let size = comm.size();
    let rank = comm.rank();
    if plan(comm).is_none() {
        return pairwise_slots(size, rank);
    }
    let fabric = comm.proc.endpoint.fabric();
    let topo = fabric.topology();
    let addr = |r: usize| NetAddr(comm.world_rank_of(r) as u32);
    let my_addr = addr(rank);
    let mut slots = Vec::with_capacity(size.saturating_sub(1));
    for local_pass in [true, false] {
        for p in 1..size {
            let to = (rank + p) % size;
            let from = (rank + size - p) % size;
            let send_to = (topo.same_node(my_addr, addr(to)) == local_pass).then_some(to);
            let recv_from = (topo.same_node(my_addr, addr(from)) == local_pass).then_some(from);
            if send_to.is_some() || recv_from.is_some() {
                slots.push(ExchangeSlot { send_to, recv_from });
            }
        }
    }
    slots
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;
    use litempi_fabric::{NodeId, ProviderProfile, Topology};

    fn run_on<T: Send>(
        n: usize,
        topo: Topology,
        f: impl Fn(crate::process::Process) -> T + Send + Sync,
    ) -> Vec<T> {
        Universe::run(
            n,
            crate::config::BuildConfig::ch4_default(),
            ProviderProfile::infinite(),
            topo,
            f,
        )
    }

    #[test]
    fn plan_is_none_on_single_node_and_one_per_node() {
        let out = run_on(4, Topology::single_node(4), |proc| {
            plan(&proc.world()).is_none()
        });
        assert!(out.iter().all(|&flat| flat));
        let out = run_on(4, Topology::one_per_node(4), |proc| {
            plan(&proc.world()).is_none()
        });
        assert!(out.iter().all(|&flat| flat));
    }

    #[test]
    fn plan_groups_blocked_topology() {
        let out = run_on(6, Topology::blocked(6, 2), |proc| {
            let world = proc.world();
            let p = plan(&world).expect("3 nodes x 2 ranks is hierarchical");
            (
                p.members.clone(),
                p.my_slot,
                p.leaders.clone(),
                p.leader_slot,
                p.leader_of.clone(),
            )
        });
        for (r, (members, my_slot, leaders, leader_slot, leader_of)) in out.iter().enumerate() {
            let node = r / 2;
            assert_eq!(members, &vec![2 * node, 2 * node + 1], "rank {r}");
            assert_eq!(*my_slot, r % 2);
            assert_eq!(leaders, &vec![0, 2, 4]);
            assert_eq!(*leader_slot, (r % 2 == 0).then_some(node));
            assert_eq!(leader_of, &vec![0, 0, 2, 2, 4, 4]);
        }
    }

    #[test]
    fn plan_handles_irregular_placement() {
        // Nodes interleaved: {0, 2} on node 7, {1, 3} on node 9.
        let topo = Topology::from_nodes(vec![NodeId(7), NodeId(9), NodeId(7), NodeId(9)]);
        let out = run_on(4, topo, |proc| {
            let world = proc.world();
            let p = plan(&world).expect("2 nodes x 2 ranks");
            (p.members.clone(), p.leaders.clone(), p.leader())
        });
        assert_eq!(out[0].0, vec![0, 2]);
        assert_eq!(out[1].0, vec![1, 3]);
        assert_eq!(out[2].2, 0);
        assert_eq!(out[3].2, 1);
        assert!(out.iter().all(|(_, leaders, _)| leaders == &vec![0, 1]));
    }

    #[test]
    fn alltoall_slots_cover_every_pair_once() {
        for node_aware in [false, true] {
            let out = run_on(6, Topology::blocked(6, 3), move |proc| {
                let world = proc.world();
                if node_aware {
                    alltoall_slots(&world).to_vec()
                } else {
                    pairwise_slots(world.size(), world.rank())
                }
            });
            for (r, slots) in out.iter().enumerate() {
                let mut sends: Vec<usize> = slots.iter().filter_map(|s| s.send_to).collect();
                let mut recvs: Vec<usize> = slots.iter().filter_map(|s| s.recv_from).collect();
                sends.sort_unstable();
                recvs.sort_unstable();
                let expect: Vec<usize> = (0..6).filter(|&q| q != r).collect();
                assert_eq!(sends, expect, "rank {r} sends");
                assert_eq!(recvs, expect, "rank {r} recvs");
            }
        }
    }

    #[test]
    fn node_aware_slots_put_local_pairs_first() {
        let out = run_on(6, Topology::blocked(6, 3), |proc| {
            let world = proc.world();
            let rank = world.rank();
            let local: Vec<bool> = alltoall_slots(&world)
                .iter()
                .filter_map(|s| s.send_to)
                .map(|q| q / 3 == rank / 3)
                .collect();
            local
        });
        for (r, locals) in out.iter().enumerate() {
            // Once the first remote send appears, no local sends follow.
            let first_remote = locals.iter().position(|&l| !l).unwrap();
            assert!(
                locals[first_remote..].iter().all(|&l| !l),
                "rank {r}: local sends after remote ones: {locals:?}"
            );
            assert_eq!(locals.iter().filter(|&&l| l).count(), 2, "rank {r}");
        }
    }
}
