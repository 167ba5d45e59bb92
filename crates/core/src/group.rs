//! Process groups and compressed rank maps.
//!
//! A group maps communicator-local ranks to world ranks (and from there to
//! physical network addresses). The paper's §3.1 identifies this
//! translation as a mandatory overhead and cites Guo et al. [IPDPS'17] for
//! memory-compressed representations that trade a couple of instructions
//! for O(1) memory on regular groups. We implement the same three-level
//! scheme: identity (`WORLD` and duplicates), strided (regular subsets such
//! as `comm_split` by parity), and a direct lookup table for irregular
//! groups.

use crate::error::{MpiError, MpiResult};
use std::sync::Arc;

/// How local ranks map to world ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RankMap {
    /// `local == world` (MPI_COMM_WORLD and its duplicates). Zero memory.
    Identity {
        /// Group size.
        size: usize,
    },
    /// `world = offset + stride * local`. Zero memory; ~2 extra arithmetic
    /// instructions per translation (the 11-instruction path of §3.1).
    Strided {
        /// World rank of local rank 0.
        offset: usize,
        /// Distance between consecutive members' world ranks.
        stride: usize,
        /// Group size.
        size: usize,
    },
    /// Arbitrary table: O(P) memory, one dereference per translation.
    Direct {
        /// `world[local]`.
        world: Arc<[u32]>,
    },
}

/// An ordered set of processes (subset of the world).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    map: RankMap,
}

impl Group {
    /// The world group of `size` processes.
    pub fn world(size: usize) -> Group {
        Group {
            map: RankMap::Identity { size },
        }
    }

    /// Build a group from an explicit world-rank list, auto-compressing to
    /// the cheapest representation (the Guo-et-al. optimization).
    pub fn from_world_ranks(ranks: &[u32]) -> Group {
        if ranks.is_empty() {
            return Group {
                map: RankMap::Direct {
                    world: Arc::from([]),
                },
            };
        }
        // Identity?
        if ranks.iter().enumerate().all(|(i, &w)| w as usize == i) {
            return Group {
                map: RankMap::Identity { size: ranks.len() },
            };
        }
        // Strided?
        if ranks.len() >= 2 {
            let offset = ranks[0] as usize;
            let stride = (ranks[1] as isize - ranks[0] as isize) as usize;
            let strided = ranks[1] > ranks[0]
                && ranks
                    .iter()
                    .enumerate()
                    .all(|(i, &w)| w as usize == offset + stride * i);
            if strided {
                return Group {
                    map: RankMap::Strided {
                        offset,
                        stride,
                        size: ranks.len(),
                    },
                };
            }
        } else {
            // Single member: strided with arbitrary stride.
            return Group {
                map: RankMap::Strided {
                    offset: ranks[0] as usize,
                    stride: 1,
                    size: 1,
                },
            };
        }
        Group {
            map: RankMap::Direct {
                world: Arc::from(ranks),
            },
        }
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        match &self.map {
            RankMap::Identity { size } => *size,
            RankMap::Strided { size, .. } => *size,
            RankMap::Direct { world } => world.len(),
        }
    }

    /// The representation chosen (exposed for the representation tests
    /// in this module).
    pub fn map(&self) -> &RankMap {
        &self.map
    }

    /// Translate a local rank to a world rank. This is the §3.1 hot path.
    #[inline]
    pub fn world_rank(&self, local: usize) -> usize {
        debug_assert!(
            local < self.size(),
            "rank {local} out of group of {}",
            self.size()
        );
        match &self.map {
            RankMap::Identity { .. } => local,
            RankMap::Strided { offset, stride, .. } => offset + stride * local,
            RankMap::Direct { world } => world[local] as usize,
        }
    }

    /// Inverse translation: which local rank is `world`? `None` if the
    /// process is not in the group (`MPI_UNDEFINED`).
    pub fn local_rank(&self, world: usize) -> Option<usize> {
        match &self.map {
            RankMap::Identity { size } => (world < *size).then_some(world),
            RankMap::Strided {
                offset,
                stride,
                size,
            } => {
                if world < *offset {
                    return None;
                }
                let d = world - offset;
                (d.is_multiple_of(*stride) && d / stride < *size).then_some(d / stride)
            }
            RankMap::Direct { world: table } => table.iter().position(|&w| w as usize == world),
        }
    }

    /// `MPI_GROUP_TRANSLATE_RANKS`: translate ranks of `self` into ranks of
    /// `other` (`None` where a member is absent from `other`). This is the
    /// function the paper's §3.1 proposal leans on: applications translate
    /// once and then use `_GLOBAL` routines.
    pub fn translate_ranks(&self, ranks: &[usize], other: &Group) -> Vec<Option<usize>> {
        ranks
            .iter()
            .map(|&r| other.local_rank(self.world_rank(r)))
            .collect()
    }

    /// Validate that `rank` names a member (error-checking path).
    pub fn check_rank(&self, rank: i32) -> MpiResult<usize> {
        if rank < 0 || rank as usize >= self.size() {
            return Err(MpiError::InvalidRank {
                rank,
                size: self.size(),
            });
        }
        Ok(rank as usize)
    }

    /// Subgroup keeping members whose local rank satisfies `keep`, in order.
    pub fn filter(&self, keep: impl Fn(usize) -> bool) -> Group {
        let ranks: Vec<u32> = (0..self.size())
            .filter(|&r| keep(r))
            .map(|r| self.world_rank(r) as u32)
            .collect();
        Group::from_world_ranks(&ranks)
    }

    /// `MPI_GROUP_INCL`: subgroup of the listed local ranks, in the given
    /// order.
    pub fn include(&self, ranks: &[usize]) -> MpiResult<Group> {
        let mut world = Vec::with_capacity(ranks.len());
        for &r in ranks {
            if r >= self.size() {
                return Err(MpiError::InvalidRank {
                    rank: r as i32,
                    size: self.size(),
                });
            }
            world.push(self.world_rank(r) as u32);
        }
        Ok(Group::from_world_ranks(&world))
    }

    /// `MPI_GROUP_EXCL`: subgroup of everyone *not* listed, in group order.
    pub fn exclude(&self, ranks: &[usize]) -> MpiResult<Group> {
        for &r in ranks {
            if r >= self.size() {
                return Err(MpiError::InvalidRank {
                    rank: r as i32,
                    size: self.size(),
                });
            }
        }
        Ok(self.filter(|r| !ranks.contains(&r)))
    }

    /// `MPI_GROUP_RANGE_INCL` with a single `(first, last, stride)` triple.
    pub fn range_include(&self, first: usize, last: usize, stride: usize) -> MpiResult<Group> {
        if stride == 0 || first > last || last >= self.size() {
            return Err(MpiError::InvalidRank {
                rank: last as i32,
                size: self.size(),
            });
        }
        let ranks: Vec<usize> = (first..=last).step_by(stride).collect();
        self.include(&ranks)
    }

    /// `MPI_GROUP_UNION`: members of `self`, then members of `other` not
    /// already present (standard ordering).
    pub fn union(&self, other: &Group) -> Group {
        let mut world: Vec<u32> = (0..self.size())
            .map(|r| self.world_rank(r) as u32)
            .collect();
        for r in 0..other.size() {
            let w = other.world_rank(r) as u32;
            if self.local_rank(w as usize).is_none() {
                world.push(w);
            }
        }
        Group::from_world_ranks(&world)
    }

    /// `MPI_GROUP_INTERSECTION`: members of `self` also in `other`, in
    /// `self`'s order.
    pub fn intersection(&self, other: &Group) -> Group {
        self.filter(|r| other.local_rank(self.world_rank(r)).is_some())
    }

    /// `MPI_GROUP_DIFFERENCE`: members of `self` not in `other`, in
    /// `self`'s order.
    pub fn difference(&self, other: &Group) -> Group {
        self.filter(|r| other.local_rank(self.world_rank(r)).is_none())
    }

    /// `MPI_GROUP_COMPARE`: identical (same members, same order), similar
    /// (same members, different order), or unequal.
    pub fn compare(&self, other: &Group) -> GroupRelation {
        if self.size() != other.size() {
            return GroupRelation::Unequal;
        }
        let ident = (0..self.size()).all(|r| self.world_rank(r) == other.world_rank(r));
        if ident {
            return GroupRelation::Identical;
        }
        let similar = (0..self.size()).all(|r| other.local_rank(self.world_rank(r)).is_some());
        if similar {
            GroupRelation::Similar
        } else {
            GroupRelation::Unequal
        }
    }
}

/// Result of `MPI_GROUP_COMPARE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupRelation {
    /// `MPI_IDENT`: same members in the same order.
    Identical,
    /// `MPI_SIMILAR`: same members, different order.
    Similar,
    /// `MPI_UNEQUAL`.
    Unequal,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_group_is_identity() {
        let g = Group::world(8);
        assert!(matches!(g.map(), RankMap::Identity { .. }));
        assert_eq!(g.size(), 8);
        assert_eq!(g.world_rank(5), 5);
        assert_eq!(g.local_rank(5), Some(5));
        assert_eq!(g.local_rank(8), None);
    }

    #[test]
    fn identity_detected_from_explicit_ranks() {
        let g = Group::from_world_ranks(&[0, 1, 2, 3]);
        assert!(matches!(g.map(), RankMap::Identity { .. }));
    }

    #[test]
    fn stride_detected() {
        // Even ranks of an 8-process world.
        let g = Group::from_world_ranks(&[0, 2, 4, 6]);
        assert!(matches!(
            g.map(),
            RankMap::Strided {
                offset: 0,
                stride: 2,
                size: 4
            }
        ));
        assert_eq!(g.world_rank(3), 6);
        assert_eq!(g.local_rank(4), Some(2));
        assert_eq!(g.local_rank(3), None); // odd world rank not a member
        assert_eq!(g.local_rank(8), None); // beyond the group
    }

    #[test]
    fn offset_stride_detected() {
        let g = Group::from_world_ranks(&[3, 5, 7]);
        assert!(matches!(
            g.map(),
            RankMap::Strided {
                offset: 3,
                stride: 2,
                size: 3
            }
        ));
        assert_eq!(g.local_rank(1), None); // below offset
    }

    #[test]
    fn irregular_uses_direct_table() {
        let g = Group::from_world_ranks(&[0, 1, 5]);
        assert!(matches!(g.map(), RankMap::Direct { .. }));
        assert_eq!(g.world_rank(2), 5);
        assert_eq!(g.local_rank(5), Some(2));
        assert_eq!(g.local_rank(2), None);
    }

    #[test]
    fn single_member_group() {
        let g = Group::from_world_ranks(&[9]);
        assert_eq!(g.size(), 1);
        assert_eq!(g.world_rank(0), 9);
    }

    #[test]
    fn empty_group() {
        let g = Group::from_world_ranks(&[]);
        assert_eq!(g.size(), 0);
        assert_eq!(g.local_rank(0), None);
    }

    #[test]
    fn translate_ranks_between_groups() {
        let world = Group::world(8);
        let evens = Group::from_world_ranks(&[0, 2, 4, 6]);
        // World ranks 0..4 in the evens group.
        let t = world.translate_ranks(&[0, 1, 2, 3], &evens);
        assert_eq!(t, vec![Some(0), None, Some(1), None]);
        // Evens ranks back into world.
        let t = evens.translate_ranks(&[0, 1, 2, 3], &world);
        assert_eq!(t, vec![Some(0), Some(2), Some(4), Some(6)]);
    }

    #[test]
    fn check_rank_errors() {
        let g = Group::world(4);
        assert_eq!(g.check_rank(3), Ok(3));
        assert!(g.check_rank(4).is_err());
        assert!(g.check_rank(-1).is_err());
    }

    #[test]
    fn filter_builds_subgroup() {
        let g = Group::world(6);
        let odd = g.filter(|r| r % 2 == 1);
        assert_eq!(odd.size(), 3);
        assert_eq!(odd.world_rank(0), 1);
        assert!(matches!(odd.map(), RankMap::Strided { .. }));
    }

    #[test]
    fn include_exclude() {
        let g = Group::world(6);
        let inc = g.include(&[4, 1, 3]).unwrap();
        assert_eq!(inc.size(), 3);
        // Order preserved: local 0 → world 4.
        assert_eq!(inc.world_rank(0), 4);
        assert_eq!(inc.world_rank(2), 3);
        assert!(g.include(&[9]).is_err());
        let exc = g.exclude(&[0, 5]).unwrap();
        assert_eq!(exc.size(), 4);
        assert_eq!(exc.world_rank(0), 1);
        assert!(g.exclude(&[7]).is_err());
    }

    #[test]
    fn range_include() {
        let g = Group::world(10);
        let r = g.range_include(1, 9, 3).unwrap();
        assert_eq!(r.size(), 3);
        assert_eq!(r.world_rank(2), 7);
        assert!(matches!(r.map(), RankMap::Strided { .. }));
        assert!(g.range_include(0, 10, 1).is_err());
        assert!(g.range_include(0, 4, 0).is_err());
    }

    #[test]
    fn set_operations() {
        let a = Group::from_world_ranks(&[0, 2, 4]);
        let b = Group::from_world_ranks(&[2, 3, 4, 5]);
        let u = a.union(&b);
        assert_eq!(
            (0..u.size()).map(|r| u.world_rank(r)).collect::<Vec<_>>(),
            vec![0, 2, 4, 3, 5]
        );
        let i = a.intersection(&b);
        assert_eq!(
            (0..i.size()).map(|r| i.world_rank(r)).collect::<Vec<_>>(),
            vec![2, 4]
        );
        let d = a.difference(&b);
        assert_eq!(
            (0..d.size()).map(|r| d.world_rank(r)).collect::<Vec<_>>(),
            vec![0]
        );
        let d2 = b.difference(&a);
        assert_eq!(
            (0..d2.size()).map(|r| d2.world_rank(r)).collect::<Vec<_>>(),
            vec![3, 5]
        );
    }

    #[test]
    fn set_ops_with_empty() {
        let a = Group::from_world_ranks(&[1, 2]);
        let empty = Group::from_world_ranks(&[]);
        assert_eq!(a.union(&empty).size(), 2);
        assert_eq!(a.intersection(&empty).size(), 0);
        assert_eq!(a.difference(&empty).size(), 2);
        assert_eq!(empty.difference(&a).size(), 0);
    }

    #[test]
    fn compare_relations() {
        let a = Group::from_world_ranks(&[1, 3, 5]);
        let same = Group::from_world_ranks(&[1, 3, 5]);
        let shuffled = Group::from_world_ranks(&[5, 1, 3]);
        let other = Group::from_world_ranks(&[1, 3, 7]);
        let smaller = Group::from_world_ranks(&[1, 3]);
        assert_eq!(a.compare(&same), GroupRelation::Identical);
        assert_eq!(a.compare(&shuffled), GroupRelation::Similar);
        assert_eq!(a.compare(&other), GroupRelation::Unequal);
        assert_eq!(a.compare(&smaller), GroupRelation::Unequal);
    }

    #[test]
    fn translation_roundtrip_property() {
        // For any representation: local_rank(world_rank(r)) == r.
        for g in [
            Group::world(16),
            Group::from_world_ranks(&[1, 3, 5, 7, 9]),
            Group::from_world_ranks(&[2, 3, 5, 8, 13]),
        ] {
            for r in 0..g.size() {
                assert_eq!(g.local_rank(g.world_rank(r)), Some(r));
            }
        }
    }
}
