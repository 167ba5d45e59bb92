//! `coll_mix`: blocking and schedule-driven collectives on 8 ranks over
//! two nodes, each result checked against its closed form.

use crate::harness::{Body, OrDie};
use crate::seed::{word, Rng};
use crate::trace::{Sp, Tracer, NO_OP};
use litempi::prelude::*;

pub struct CollMix {
    world: Communicator,
    me: usize,
    n: usize,
    seed: u64,
    /// My contribution to the allreduces: `(me + 1) × base[i]`, with small
    /// integer bases so the sum is exact; element 0 is stamped per call.
    mine64: Vec<f64>,
    mine8192: Vec<f64>,
    /// The sums every rank must get (element 0 likewise).
    want64: Vec<f64>,
    want8192: Vec<f64>,
    bcast: Vec<u64>,
    a2a_send: Vec<u32>,
    a2a_want: Vec<u32>,
}

impl CollMix {
    pub const RANKS: usize = 8;
    pub const ROUNDS: usize = 8;
    pub const CALLS_PER_ROUND: usize = 7;
    pub const NBC_PER_ROUND: usize = 2;
    /// Collective calls rank 0 makes per batch.
    pub const OPS: u64 = (Self::ROUNDS * Self::CALLS_PER_ROUND) as u64;
    const A2A_BLOCK: usize = 16;

    /// What rank `src` sends rank `dst` in an alltoall, before stamping.
    fn a2a_word(seed: u64, src: usize, dst: usize, i: usize) -> u32 {
        word(seed, 60, (src * Self::RANKS + dst) as u64, i as u64) as u32
    }
}

/// `Σ (r + 1)` over the ranks: what an allreduce multiplies each base by.
fn rank_weight(n: usize) -> f64 {
    (n * (n + 1) / 2) as f64
}

impl Body for CollMix {
    fn setup(proc: &Process, seed: u64) -> CollMix {
        let (me, n) = (proc.rank(), proc.size());
        let mut rng = Rng::new(seed, 61);
        let base: Vec<f64> = (0..8192).map(|_| rng.below(1 << 20) as f64).collect();
        let scaled = |len: usize, k: f64| base[..len].iter().map(|b| b * k).collect::<Vec<f64>>();
        let block = CollMix::A2A_BLOCK;
        CollMix {
            world: proc.world(),
            me,
            n,
            seed,
            mine64: scaled(64, (me + 1) as f64),
            mine8192: scaled(8192, (me + 1) as f64),
            want64: scaled(64, rank_weight(n)),
            want8192: scaled(8192, rank_weight(n)),
            bcast: vec![0; 128],
            a2a_send: (0..n * block)
                .map(|k| CollMix::a2a_word(seed, me, k / block, k % block))
                .collect(),
            a2a_want: (0..n * block)
                .map(|k| CollMix::a2a_word(seed, k / block, me, k % block))
                .collect(),
        }
    }

    fn batch<T: Tracer>(&mut self, t: &T, batch: u64) -> u64 {
        let world = &self.world;
        let (me, n) = (self.me, self.n);
        let mut bad = 0u64;
        for round in 0..CollMix::ROUNDS {
            let op = (round * CollMix::CALLS_PER_ROUND) as u32;
            // Distinct per call, and small enough to stay exact.
            let stamp = (batch % (1 << 20)) * CollMix::ROUNDS as u64 + round as u64;
            let root = round % n;
            t.span(Sp::PhaseRound, NO_OP, || {
                let stamp_sum = |mine: &mut [f64], want: &mut [f64], k: u64| {
                    mine[0] = ((stamp + k) * (me as u64 + 1)) as f64;
                    want[0] = (stamp + k) as f64 * rank_weight(n);
                };

                stamp_sum(&mut self.mine64, &mut self.want64, 0);
                let got = t.span(Sp::Allreduce64, op, || {
                    world
                        .allreduce(&self.mine64, &Op::Sum)
                        .or_die("allreduce(64)")
                });
                bad += (got != self.want64) as u64;

                t.span(Sp::Inline, NO_OP, || {
                    if me == root {
                        for (i, w) in self.bcast.iter_mut().enumerate() {
                            *w = word(self.seed, 62, i as u64, stamp);
                        }
                    }
                });
                t.span(Sp::Bcast128, op + 1, || {
                    world.bcast(&mut self.bcast, root).or_die("bcast(128)")
                });
                bad += t.span(Sp::Inline, NO_OP, || {
                    let ok = (self.bcast.iter().enumerate())
                        .all(|(i, &w)| w == word(self.seed, 62, i as u64, stamp));
                    !ok as u64
                });

                stamp_sum(&mut self.mine8192, &mut self.want8192, 1);
                let got = t.span(Sp::Allreduce8192, op + 2, || {
                    world
                        .allreduce(&self.mine8192, &Op::Sum)
                        .or_die("allreduce(8192)")
                });
                bad += t.span(Sp::Inline, NO_OP, || (got != self.want8192) as u64);

                // Stamp word 0 of every block, both what I send and what
                // I expect (the stamp is the same on every rank).
                let stamp32 = stamp as u32;
                for k in (0..n * CollMix::A2A_BLOCK).step_by(CollMix::A2A_BLOCK) {
                    self.a2a_send[k] ^= stamp32;
                    self.a2a_want[k] ^= stamp32;
                }
                let got = t.span(Sp::Alltoall16, op + 3, || {
                    world
                        .alltoall(&self.a2a_send, CollMix::A2A_BLOCK)
                        .or_die("alltoall(16)")
                });
                bad += (got != self.a2a_want) as u64;
                for k in (0..n * CollMix::A2A_BLOCK).step_by(CollMix::A2A_BLOCK) {
                    self.a2a_send[k] ^= stamp32;
                    self.a2a_want[k] ^= stamp32;
                }

                t.span(Sp::Barrier, op + 4, || world.barrier().or_die("barrier"));

                stamp_sum(&mut self.mine64, &mut self.want64, 2);
                let req = t.span(Sp::Iallreduce64Issue, op + 5, || {
                    world
                        .iallreduce(&self.mine64, &Op::Sum)
                        .or_die("iallreduce(64)")
                });
                let got = t.span(Sp::Iallreduce64Wait, op + 5, || {
                    req.wait().or_die("wait(iallreduce)")
                });
                bad += (got != self.want64) as u64;

                t.span(Sp::Inline, NO_OP, || {
                    if me == root {
                        for (i, w) in self.bcast.iter_mut().enumerate() {
                            *w = word(self.seed, 63, i as u64, stamp);
                        }
                    }
                });
                let got = t.span(Sp::Ibcast128, op + 6, || {
                    world
                        .ibcast(&self.bcast, root)
                        .and_then(|req| req.wait())
                        .or_die("ibcast(128)")
                });
                bad += t.span(Sp::Inline, NO_OP, || {
                    let ok = (got.iter().enumerate())
                        .all(|(i, &w)| w == word(self.seed, 63, i as u64, stamp));
                    !ok as u64
                });
            });
        }
        bad
    }
}
