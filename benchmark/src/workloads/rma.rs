//! `rma_mix`: passive-target and fence epochs on one 1 MiB window.

use crate::harness::{Body, OrDie};
use crate::seed::{word, Rng};
use crate::trace::{InstrProbe, Sp, Tracer, NO_OP};
use litempi::prelude::*;

/// The window, in u64 words (the displacement unit is 8 bytes).
const WORDS: usize = (1 << 20) / 8;
/// 1 KiB in words.
const KIB: usize = 128;
/// Words `0..SMALL_AREA` take the 8-byte puts.
const SMALL_AREA: usize = WORDS / 2;
/// Then one 1 KiB slot per passive epoch, one per fence epoch, and the
/// counter `fetch_and_op` adds to.
const PASSIVE_SLOTS: usize = SMALL_AREA;
const FENCE_SLOTS: usize = PASSIVE_SLOTS + RmaMix::PASSIVE_EPOCHS * KIB;
const COUNTER: usize = WORDS - 1;

pub struct RmaMix {
    win: Window,
    me: usize,
    seed: u64,
    /// Distinct target words of the 8-byte puts, six per passive epoch.
    small_disp: Vec<usize>,
    /// 1 KiB of fill; word 0 is stamped per put.
    kib: Vec<u64>,
    got: Vec<u64>,
    /// What the counter holds (rank 0's view).
    counter: u64,
}

impl RmaMix {
    pub const PASSIVE_EPOCHS: usize = 64;
    pub const SMALL_PUTS: usize = 6;
    pub const FENCE_EPOCHS: usize = 8;
    /// Puts, gets and atomics rank 0 issues per batch.
    pub const OPS: u64 =
        (Self::PASSIVE_EPOCHS * (Self::SMALL_PUTS + 3) + Self::FENCE_EPOCHS) as u64;

    /// Does my window hold the block the peer put into `slot`?
    fn block_ok(&self, base: usize, stream: u64, slot: usize, batch: u64) -> bool {
        let bytes = self.win.read_local((base + slot * KIB) * 8, KIB * 8);
        let first = word(self.seed, stream, slot as u64, batch).to_le_bytes();
        bytes[..8] == first && bytes[8..] == *u64::as_bytes(&self.kib[1..])
    }
}

impl Body for RmaMix {
    fn setup(proc: &Process, seed: u64) -> RmaMix {
        let win = Window::create(&proc.world(), WORDS * 8, 8).or_die("Window::create");
        let mut rng = Rng::new(seed, 50);
        // Distinct displacements: a seeded pick inside consecutive strides.
        let n = RmaMix::PASSIVE_EPOCHS * RmaMix::SMALL_PUTS;
        let stride = SMALL_AREA / n;
        let mut small_disp: Vec<usize> = (0..n).map(|i| i * stride + rng.below(stride)).collect();
        rng.shuffle(&mut small_disp);
        RmaMix {
            win,
            me: proc.rank(),
            seed,
            small_disp,
            kib: (0..KIB).map(|_| rng.next_u64()).collect(),
            got: vec![0; KIB],
            counter: 0,
        }
    }

    fn batch<T: Tracer>(&mut self, t: &T, batch: u64) -> u64 {
        let mut bad = 0;
        let win = &self.win;
        if self.me == 0 {
            for e in 0..RmaMix::PASSIVE_EPOCHS {
                let op = (e * (RmaMix::SMALL_PUTS + 3)) as u32;
                let slot = PASSIVE_SLOTS + e * KIB;
                self.kib[0] = word(self.seed, 52, e as u64, batch);
                t.span(Sp::PhasePassive, NO_OP, || {
                    t.span(Sp::Lock, NO_OP, || {
                        win.lock(LockType::Shared, 1).or_die("lock")
                    });
                    t.instr(InstrProbe::Put, RmaMix::SMALL_PUTS as u64, || {
                        for k in 0..RmaMix::SMALL_PUTS {
                            let i = e * RmaMix::SMALL_PUTS + k;
                            let v = word(self.seed, 51, i as u64, batch);
                            t.span(Sp::Put8, op + k as u32, || {
                                win.put(&[v], 1, self.small_disp[i]).or_die("put(8 B)")
                            });
                        }
                    });
                    t.span(Sp::Put1k, op + 6, || {
                        win.put(&self.kib, 1, slot).or_die("put(1 KiB)")
                    });
                    t.span(Sp::Flush, NO_OP, || win.flush(1).or_die("flush"));
                    t.span(Sp::Get1k, op + 7, || {
                        win.get(&mut self.got, 1, slot).or_die("get(1 KiB)")
                    });
                    let add = e as u64 + 1;
                    let old = t.span(Sp::FetchAndOp, op + 8, || {
                        win.fetch_and_op(add, 1, COUNTER, &Op::Sum)
                            .or_die("fetch_and_op")
                    });
                    t.span(Sp::Unlock, NO_OP, || win.unlock(1).or_die("unlock"));
                    bad += (self.got != self.kib) as u64 + (old != self.counter) as u64;
                    self.counter += add;
                });
            }
        }
        // Rank 1 has nothing to do in the passive epochs — that is the
        // point of them — and waits in the opening fence.
        t.span(Sp::Fence, NO_OP, || win.fence().or_die("fence"));
        let op0 = (RmaMix::PASSIVE_EPOCHS * (RmaMix::SMALL_PUTS + 3)) as u32;
        for f in 0..RmaMix::FENCE_EPOCHS {
            self.kib[0] = word(self.seed, 53 + self.me as u64, f as u64, batch);
            t.span(Sp::PhaseFence, NO_OP, || {
                t.span(Sp::Put1kFence, op0 + f as u32, || {
                    win.put(&self.kib, 1 - self.me as i32, FENCE_SLOTS + f * KIB)
                        .or_die("put(1 KiB, fence)")
                });
                t.span(Sp::Fence, NO_OP, || win.fence().or_die("fence"));
            });
        }
        bad
    }

    /// Window contents: every put of the batch must be in the target's
    /// memory, and nothing else changed the counter.
    fn verify(&mut self, batch: u64) -> u64 {
        let mut bad = 0;
        let peer_stream = 53 + (1 - self.me) as u64;
        for f in 0..RmaMix::FENCE_EPOCHS {
            bad += !self.block_ok(FENCE_SLOTS, peer_stream, f, batch) as u64;
        }
        if self.me == 1 {
            for e in 0..RmaMix::PASSIVE_EPOCHS {
                bad += !self.block_ok(PASSIVE_SLOTS, 52, e, batch) as u64;
            }
            for (i, &disp) in self.small_disp.iter().enumerate() {
                let got = self.win.read_local(disp * 8, 8);
                bad += (got != word(self.seed, 51, i as u64, batch).to_le_bytes()) as u64;
            }
            // Rank 0 added 1 + 2 + … + 64 once more.
            let n = RmaMix::PASSIVE_EPOCHS as u64;
            self.counter += n * (n + 1) / 2;
            let got = self.win.read_local(COUNTER * 8, 8);
            bad += (got != self.counter.to_le_bytes()) as u64;
        }
        bad
    }
}
