//! Neighborhood collectives on Cartesian topologies
//! (`MPI_NEIGHBOR_ALLGATHER` / `MPI_NEIGHBOR_ALLTOALL`).
//!
//! MPI-3's neighborhood collectives express exactly the halo pattern the
//! paper's stencil example uses, and hand the implementation the whole
//! exchange at once. Here that is one compiled schedule
//! (`Schedule::neighbor`): a single phase with a send to and a receive
//! from every neighbour, on the Cartesian communicator's *collective*
//! context — so no point-to-point receive the application has posted on
//! that communicator, wildcard or not, can match a block of it — and
//! through the device's injection path, not `MPI_Sendrecv`. The neighbour
//! ranks are worked out per call ([`CartComm::neighbors`]).

use crate::cart::CartComm;
use crate::coll::zeroed;
use crate::error::{MpiError, MpiResult};
use crate::match_bits::PROC_NULL;
use crate::sched::Schedule;
use litempi_datatype::MpiPrimitive;

impl CartComm {
    /// Neighbor order per the MPI standard: for each dimension, the
    /// negative-direction neighbor then the positive-direction neighbor.
    /// `PROC_NULL` entries appear at non-periodic boundaries (their block
    /// in the result buffers is left untouched, per the standard).
    pub fn neighbors(&self) -> Vec<(i32, i32)> {
        (0..self.dims().len()).map(|d| self.shift(d, 1)).collect()
    }

    /// `MPI_NEIGHBOR_ALLGATHER`: send `sendbuf` to every neighbor; receive
    /// one block per neighbor, in standard neighbor order. Returns
    /// `(data, present)` where `present[i]` is false for `PROC_NULL`
    /// neighbors (whose block is zero-filled).
    pub fn neighbor_allgather<T: MpiPrimitive>(
        &self,
        sendbuf: &[T],
    ) -> MpiResult<(Vec<T>, Vec<bool>)> {
        self.neighbor_exchange(sendbuf, sendbuf.len(), false)
    }

    /// `MPI_NEIGHBOR_ALLTOALL`: block `i` of `sendbuf` goes to neighbor
    /// `i` (standard neighbor order); the result's block `i` comes from
    /// neighbor `i`. A `sendbuf` that is not one `block` per neighbor is
    /// `MPI_ERR_BUFFER`.
    pub fn neighbor_alltoall<T: MpiPrimitive>(
        &self,
        sendbuf: &[T],
        block: usize,
    ) -> MpiResult<(Vec<T>, Vec<bool>)> {
        let (elem, slots) = (T::PREDEFINED.size(), 2 * self.dims().len());
        if sendbuf.len() != block * slots {
            return Err(MpiError::BufferTooSmall {
                needed: block * slots * elem,
                provided: sendbuf.len() * elem,
            });
        }
        self.neighbor_exchange(sendbuf, block, true)
    }

    /// Both collectives: `block` elements from each neighbor, slot by slot.
    fn neighbor_exchange<T: MpiPrimitive>(
        &self,
        sendbuf: &[T],
        block: usize,
        per_neighbor: bool,
    ) -> MpiResult<(Vec<T>, Vec<bool>)> {
        let neighbors = self.neighbors();
        let present: Vec<bool> = (neighbors.iter())
            .flat_map(|&(neg, pos)| [neg != PROC_NULL, pos != PROC_NULL])
            .collect();
        let bytes = block * T::PREDEFINED.size();
        let sched = Schedule::neighbor(self.comm(), &neighbors, bytes, per_neighbor);
        let mut out = zeroed::<T>(block * present.len());
        sched.run(self.comm(), T::as_bytes_mut(&mut out), T::as_bytes(sendbuf))?;
        Ok((out, present))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;

    #[test]
    fn neighbor_allgather_periodic_ring() {
        let n = 4;
        let out = Universe::run_default(n, |proc| {
            let world = proc.world();
            let cart = CartComm::create(&world, &[n], &[true]).unwrap().unwrap();
            let (data, present) = cart.neighbor_allgather(&[cart.rank() as u64]).unwrap();
            assert_eq!(present, vec![true, true]);
            data
        });
        for (r, d) in out.iter().enumerate() {
            let left = (r + n - 1) % n;
            let right = (r + 1) % n;
            assert_eq!(d, &vec![left as u64, right as u64], "rank {r}");
        }
    }

    #[test]
    fn neighbor_allgather_nonperiodic_boundary() {
        let out = Universe::run_default(3, |proc| {
            let world = proc.world();
            let cart = CartComm::create(&world, &[3], &[false]).unwrap().unwrap();
            cart.neighbor_allgather(&[cart.rank() as u64 + 10]).unwrap()
        });
        // Rank 0 has no negative neighbor; rank 2 no positive one.
        assert_eq!(out[0].1, vec![false, true]);
        assert_eq!(out[0].0[1], 11);
        assert_eq!(out[2].1, vec![true, false]);
        assert_eq!(out[2].0[0], 11);
        assert_eq!(out[1].1, vec![true, true]);
        assert_eq!(out[1].0, vec![10, 12]);
    }

    #[test]
    fn neighbor_allgather_2d() {
        Universe::run_default(4, |proc| {
            let world = proc.world();
            let cart = CartComm::create(&world, &[2, 2], &[true, true])
                .unwrap()
                .unwrap();
            let (data, present) = cart.neighbor_allgather(&[cart.rank() as u32]).unwrap();
            assert_eq!(present, vec![true; 4]);
            let me = cart.coords_of(cart.rank());
            let expect = |dx: isize, dy: isize| {
                cart.rank_of(&[me[0] as isize + dx, me[1] as isize + dy])
                    .unwrap() as u32
            };
            assert_eq!(
                data,
                vec![expect(-1, 0), expect(1, 0), expect(0, -1), expect(0, 1)]
            );
        });
    }

    #[test]
    fn neighbor_alltoall_directional_blocks() {
        let n = 4;
        let out = Universe::run_default(n, |proc| {
            let world = proc.world();
            let cart = CartComm::create(&world, &[n], &[true]).unwrap().unwrap();
            // Block 0 (to the left neighbor) = rank*10; block 1 (right) =
            // rank*10+1.
            let send = [cart.rank() as u64 * 10, cart.rank() as u64 * 10 + 1];
            let (data, present) = cart.neighbor_alltoall(&send, 1).unwrap();
            assert_eq!(present, vec![true, true]);
            data
        });
        for (r, d) in out.iter().enumerate() {
            let left = (r + n - 1) % n;
            let right = (r + 1) % n;
            // From my left neighbor I get its right-bound block (x*10+1);
            // from my right neighbor its left-bound block (x*10).
            assert_eq!(
                d,
                &vec![left as u64 * 10 + 1, right as u64 * 10],
                "rank {r}"
            );
        }
    }
}
