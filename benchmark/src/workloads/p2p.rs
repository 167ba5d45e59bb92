//! The two-rank point-to-point workloads.
//!
//! Pre-posting is guaranteed by causality, never by timing: the rank that
//! receives the next window posts its `irecv`s before it sends what the
//! peer is waiting for, so when the peer may send, the receives are
//! posted. The same chain makes the last message of every batch arrive at
//! rank 0, so rank 0's clock covers both ranks' work.

use crate::harness::{Body, OrDie};
use crate::seed::{word, Rng};
use crate::trace::{InstrProbe, Sp, Tracer, NO_OP};
use litempi::core::waitall;
use litempi::prelude::*;

const TAG_PING: i32 = 1;
const TAG_WINDOW: i32 = 2;
const TAG_BURST: i32 = 3;
const TAG_BURST_LAST: i32 = 4;
const TAG_TOKEN: i32 = 5;
/// `p2p_large` tags are `TAG_ITEM + item index`.
const TAG_ITEM: i32 = 100;

/// Messages per window and per burst.
pub const WINDOW: usize = 64;

/// Compare a received 8-byte message with its seeded word.
fn check(got: u64, want: u64) -> u64 {
    (got != want) as u64
}

/// Buffers of a rank that sends and receives windows of `WINDOW` messages.
struct WindowBufs {
    /// Send data, `words` u64 per message: every message alike except
    /// its first word, which is the message's seeded word.
    send: Vec<u64>,
    /// One buffer per window this rank receives, checked after the batch.
    recv: Vec<Vec<u64>>,
}

impl WindowBufs {
    /// `sizes[w]` is the u64 words per message of window `w`, which goes
    /// from rank `w % 2` to the other one.
    fn new(rng: &mut Rng, me: usize, sizes: &[usize]) -> WindowBufs {
        let max_words = sizes.iter().copied().max().unwrap_or(1);
        WindowBufs {
            send: (0..max_words).map(|_| rng.next_u64()).collect(),
            recv: sizes
                .iter()
                .enumerate()
                .filter(|(w, _)| w % 2 != me)
                .map(|(_, &words)| vec![0; WINDOW * words])
                .collect(),
        }
    }

    /// Compare every received window with what the peer sent. `stream0 +
    /// w` is window `w`'s word stream.
    fn check(&self, me: usize, sizes: &[usize], seed: u64, stream0: u64, batch: u64) -> u64 {
        let mut bad = 0;
        for (j, recv) in self.recv.iter().enumerate() {
            let w = 2 * j + (1 - me);
            let words = sizes[w];
            for (i, m) in recv.chunks(words).enumerate() {
                let first = word(seed, stream0 + w as u64, i as u64, batch);
                bad += (m[0] != first || m[1..] != self.send[1..words]) as u64;
            }
        }
        bad
    }
}

/// Post `WINDOW` receives of `recv.len() / WINDOW` u64 each.
fn post_window<'b, T: Tracer>(
    t: &T,
    world: &Communicator,
    recv: &'b mut [u64],
    peer: i32,
    op0: u32,
) -> Vec<Request<'b>> {
    let words = recv.len() / WINDOW;
    let mut reqs = Vec::with_capacity(WINDOW);
    for (i, buf) in recv.chunks_mut(words).enumerate() {
        reqs.push(t.span(Sp::Irecv, op0 + i as u32, || {
            world.irecv(buf, peer, TAG_WINDOW).or_die("irecv")
        }));
    }
    reqs
}

/// Send `WINDOW` messages of `words` u64 and complete them.
#[allow(clippy::too_many_arguments)]
fn send_window<T: Tracer>(
    t: &T,
    world: &Communicator,
    send: &mut [u64],
    words: usize,
    peer: i32,
    op0: u32,
    seed: u64,
    stream: u64,
    batch: u64,
) {
    let mut reqs = Vec::with_capacity(WINDOW);
    t.instr(InstrProbe::Isend, WINDOW as u64, || {
        for i in 0..WINDOW {
            send[0] = word(seed, stream, i as u64, batch);
            reqs.push(t.span(Sp::Isend, op0 + i as u32, || {
                world
                    .isend(&send[..words], peer, TAG_WINDOW)
                    .or_die("isend")
            }));
        }
    });
    t.span_n(Sp::Waitall, op0, WINDOW as u32, || {
        waitall(reqs).or_die("waitall(sends)")
    });
}

// ------------------------------------------------------------------ small

/// `p2p_small`: 768 eight-byte messages per batch.
pub struct Small {
    world: Communicator,
    me: usize,
    seed: u64,
    bufs: WindowBufs,
}

impl Small {
    pub const ROUND_TRIPS: usize = 128;
    pub const WINDOWS: [usize; 4] = [1; 4];
    pub const BURSTS: usize = 4;
    pub const OPS: u64 =
        (2 * Self::ROUND_TRIPS + (Self::WINDOWS.len() + Self::BURSTS) * WINDOW) as u64;
    /// Word streams: 1 ping, 2 pong, then windows, then bursts.
    const WINDOW_STREAM: u64 = 3;
    const BURST_STREAM: u64 = 7;
}

impl Body for Small {
    fn setup(proc: &Process, seed: u64) -> Small {
        let me = proc.rank();
        Small {
            world: proc.world(),
            me,
            seed,
            bufs: WindowBufs::new(&mut Rng::new(seed, 10), me, &Small::WINDOWS),
        }
    }

    fn batch<T: Tracer>(&mut self, t: &T, batch: u64) -> u64 {
        let (world, me, seed) = (&self.world, self.me, self.seed);
        let peer = 1 - me as i32;
        let send = &mut self.bufs.send;
        let mut inboxes = self.bufs.recv.iter_mut();
        let mut bad = 0;
        let mut op = 0u32;

        // Window 0's receiver is rank 1: it posts before its last pong.
        let mut posted = None;
        t.span(Sp::PhasePingpong, NO_OP, || {
            for i in 0..Small::ROUND_TRIPS as u64 {
                let ping = word(seed, 1, i, batch);
                let pong = word(seed, 2, i, batch);
                let mut got = [0u64];
                if me == 0 {
                    t.span_n(Sp::PingpongRtt, op, 2, || {
                        world.send(&[ping], peer, TAG_PING).or_die("send(ping)");
                        world
                            .recv_into(&mut got, peer, TAG_PING)
                            .or_die("recv(pong)");
                    });
                    bad += check(got[0], pong);
                } else {
                    if i + 1 == Small::ROUND_TRIPS as u64 {
                        let inbox = inboxes.next().expect("a buffer per received window");
                        posted = Some(post_window(t, world, inbox, peer, op + 2));
                    }
                    t.span_n(Sp::PingpongEcho, op, 2, || {
                        world
                            .recv_into(&mut got, peer, TAG_PING)
                            .or_die("recv(ping)");
                        world.send(&[pong], peer, TAG_PING).or_die("send(pong)");
                    });
                    bad += check(got[0], ping);
                }
                op += 2;
            }
        });

        for w in 0..Small::WINDOWS.len() {
            t.span(Sp::PhaseWindow8, NO_OP, || {
                if me == w % 2 {
                    // Sender now, receiver of window w + 1 (if any).
                    let next = inboxes
                        .next()
                        .map(|inbox| post_window(t, world, inbox, peer, op + WINDOW as u32));
                    let stream = Small::WINDOW_STREAM + w as u64;
                    send_window(t, world, send, 1, peer, op, seed, stream, batch);
                    posted = next;
                } else {
                    let reqs = posted.take().expect("window receives were posted");
                    t.span_n(Sp::WaitallRecv, op, WINDOW as u32, || {
                        waitall(reqs).or_die("waitall(recvs)")
                    });
                }
            });
            op += WINDOW as u32;
        }

        // Burst b goes from rank b % 2 and must land before any receive is
        // posted: the receiver first waits for the burst's *last* message
        // (its own tag; per-pair FIFO puts the other 63 in the unexpected
        // queue by then), then drains them.
        for b in 0..Small::BURSTS {
            let stream = Small::BURST_STREAM + b as u64;
            t.span(Sp::PhaseBurst, NO_OP, || {
                if me == b % 2 {
                    for i in 0..WINDOW {
                        let tag = if i + 1 == WINDOW {
                            TAG_BURST_LAST
                        } else {
                            TAG_BURST
                        };
                        let data = [word(seed, stream, i as u64, batch)];
                        t.span(Sp::IsendBurst, op + i as u32, || {
                            world.send(&data, peer, tag).or_die("send(burst)")
                        });
                    }
                } else {
                    let mut got = [0u64];
                    let last = WINDOW - 1;
                    t.span(Sp::Token, op + last as u32, || {
                        world
                            .recv_into(&mut got, peer, TAG_BURST_LAST)
                            .or_die("recv(burst last)")
                    });
                    bad += check(got[0], word(seed, stream, last as u64, batch));
                    for i in 0..last {
                        t.span(Sp::RecvUnexpected, op + i as u32, || {
                            world
                                .recv_into(&mut got, peer, TAG_BURST)
                                .or_die("recv(burst)")
                        });
                        bad += check(got[0], word(seed, stream, i as u64, batch));
                    }
                }
            });
            op += WINDOW as u32;
        }
        bad
    }

    fn verify(&mut self, batch: u64) -> u64 {
        let stream0 = Small::WINDOW_STREAM;
        self.bufs
            .check(self.me, &Small::WINDOWS, self.seed, stream0, batch)
    }
}

// ---------------------------------------------------------------- windows

/// `p2p_reliable` / `p2p_lossy` (and their comparison phases on other links):
/// 16 pre-posted windows of 64 — twelve of 8 B, three of 1 KiB, one of
/// 16 KiB — in alternating directions.
pub struct Windows {
    world: Communicator,
    me: usize,
    seed: u64,
    bufs: WindowBufs,
}

impl Windows {
    /// u64 words per message, per window.
    pub const SIZES: [usize; 16] = [1, 1, 1, 128, 1, 1, 1, 128, 1, 1, 1, 2048, 1, 1, 1, 128];
    pub const OPS: u64 = (Self::SIZES.len() * WINDOW) as u64;
    const STREAM: u64 = 30;

    fn phase(words: usize) -> Sp {
        match words {
            1 => Sp::PhaseWindow8,
            128 => Sp::PhaseWindow1k,
            _ => Sp::PhaseWindow16k,
        }
    }
}

impl Body for Windows {
    fn setup(proc: &Process, seed: u64) -> Windows {
        let me = proc.rank();
        Windows {
            world: proc.world(),
            me,
            seed,
            bufs: WindowBufs::new(&mut Rng::new(seed, 20), me, &Windows::SIZES),
        }
    }

    fn batch<T: Tracer>(&mut self, t: &T, batch: u64) -> u64 {
        let (world, me, seed) = (&self.world, self.me, self.seed);
        let peer = 1 - me as i32;
        let send = &mut self.bufs.send;
        let mut inboxes = self.bufs.recv.iter_mut();
        let mut bad = 0;

        // Window 0 goes from rank 0. Nothing precedes it in the batch, so
        // one uncounted 8-byte token from rank 1 says "posted".
        let mut posted = None;
        if me == 1 {
            let inbox = inboxes.next().expect("a buffer per received window");
            posted = Some(post_window(t, world, inbox, peer, 0));
            t.span(Sp::Token, NO_OP, || {
                world.send(&[batch], peer, TAG_TOKEN).or_die("send(token)")
            });
        } else {
            let mut token = [0u64];
            t.span(Sp::Token, NO_OP, || {
                world
                    .recv_into(&mut token, peer, TAG_TOKEN)
                    .or_die("recv(token)")
            });
            bad += check(token[0], batch);
        }

        for (w, &words) in Windows::SIZES.iter().enumerate() {
            let op = (w * WINDOW) as u32;
            t.span(Windows::phase(words), NO_OP, || {
                if me == w % 2 {
                    let next = inboxes
                        .next()
                        .map(|inbox| post_window(t, world, inbox, peer, op + WINDOW as u32));
                    let stream = Windows::STREAM + w as u64;
                    send_window(t, world, send, words, peer, op, seed, stream, batch);
                    posted = next;
                } else {
                    let reqs = posted.take().expect("window receives were posted");
                    t.span_n(Sp::WaitallRecv, op, WINDOW as u32, || {
                        waitall(reqs).or_die("waitall(recvs)")
                    });
                }
            });
        }
        bad
    }

    fn verify(&mut self, batch: u64) -> u64 {
        let stream0 = Windows::STREAM;
        self.bufs
            .check(self.me, &Windows::SIZES, self.seed, stream0, batch)
    }
}

// ------------------------------------------------------------------ large

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Item {
    /// 16 KiB, the largest eager message, from the given rank.
    Eager { from: usize },
    /// 256 KiB both ways at once (RDMA-read rendezvous).
    Exchange,
    /// 64 KiB of payload in 1024 strided blocks, from the given rank.
    Vector { from: usize },
}

/// `p2p_large`: 56 large messages per batch, in seeded order.
pub struct Large {
    world: Communicator,
    me: usize,
    /// The batch, in the order both ranks walk it.
    items: Vec<Item>,
    vector: Datatype,
    eager_out: Vec<u8>,
    exchange_out: Vec<u8>,
    /// Strided source: payload blocks at even 64-byte slots.
    vector_out: Vec<u8>,
    /// What this rank expects from its peer, same three shapes.
    eager_want: Vec<u8>,
    exchange_want: Vec<u8>,
    vector_want: Vec<u8>,
    /// One receive buffer per item (empty where this rank only sends).
    inbox: Vec<Vec<u8>>,
}

impl Large {
    pub const EAGER: usize = 32;
    pub const EXCHANGES: usize = 8;
    pub const VECTORS: usize = 8;
    pub const OPS: u64 = (Self::EAGER + 2 * Self::EXCHANGES + Self::VECTORS) as u64;
    pub const EAGER_BYTES: usize = 16 << 10;
    pub const EXCHANGE_BYTES: usize = 256 << 10;
    pub const VECTOR_BLOCKS: usize = 1024;
    pub const VECTOR_BLOCK_BYTES: usize = 64;
    /// Payload bytes one batch moves.
    pub const PAYLOAD_BYTES: u64 = (Self::EAGER * Self::EAGER_BYTES
        + 2 * Self::EXCHANGES * Self::EXCHANGE_BYTES
        + Self::VECTORS * Self::VECTOR_BLOCKS * Self::VECTOR_BLOCK_BYTES)
        as u64;

    /// The strided type: 1024 blocks of 64 bytes, every other slot.
    pub fn vector_type() -> Datatype {
        Datatype::vector(
            Self::VECTOR_BLOCKS,
            Self::VECTOR_BLOCK_BYTES,
            2 * Self::VECTOR_BLOCK_BYTES as isize,
            &u8::DATATYPE,
        )
        .expect("valid vector type")
        .commit()
    }

    const VECTOR_SPAN: usize = 2 * Self::VECTOR_BLOCKS * Self::VECTOR_BLOCK_BYTES;

    /// The batch order: a seeded shuffle, then a message *to* rank 0 moved
    /// last so rank 0's clock stops after rank 1's last receive.
    fn order(seed: u64) -> Vec<Item> {
        let mut items = Vec::new();
        items.extend((0..Self::EAGER).map(|k| Item::Eager { from: k % 2 }));
        items.extend((0..Self::EXCHANGES).map(|_| Item::Exchange));
        items.extend((0..Self::VECTORS).map(|k| Item::Vector { from: k % 2 }));
        Rng::new(seed, 40).shuffle(&mut items);
        let last = items
            .iter()
            .rposition(|i| matches!(i, Item::Eager { from: 1 } | Item::Vector { from: 1 }))
            .expect("half the one-way items go to rank 0");
        let item = items.remove(last);
        items.push(item);
        items
    }
}

/// Stamp the batch number over a buffer's first 8 bytes.
fn stamp(buf: &mut [u8], batch: u64) {
    buf[..8].copy_from_slice(&batch.to_le_bytes());
}

impl Body for Large {
    fn setup(proc: &Process, seed: u64) -> Large {
        let me = proc.rank();
        // Stream 41 + r is what rank r sends.
        let gen = |from: usize| {
            let mut rng = Rng::new(seed, 41 + from as u64);
            let eager = rng.bytes(Large::EAGER_BYTES);
            let exchange = rng.bytes(Large::EXCHANGE_BYTES);
            let vector = rng.bytes(Large::VECTOR_SPAN);
            (eager, exchange, vector)
        };
        let (eager_out, exchange_out, vector_out) = gen(me);
        let (eager_want, exchange_want, vector_want) = gen(1 - me);
        let items = Large::order(seed);
        let inbox = items
            .iter()
            .map(|item| match *item {
                Item::Eager { from } if from != me => vec![0; Large::EAGER_BYTES],
                Item::Vector { from } if from != me => vec![0; Large::VECTOR_SPAN],
                Item::Exchange => vec![0; Large::EXCHANGE_BYTES],
                _ => Vec::new(),
            })
            .collect();
        Large {
            world: proc.world(),
            me,
            items,
            vector: Large::vector_type(),
            eager_out,
            exchange_out,
            vector_out,
            eager_want,
            exchange_want,
            vector_want,
            inbox,
        }
    }

    fn batch<T: Tracer>(&mut self, t: &T, batch: u64) -> u64 {
        let (world, me) = (&self.world, self.me);
        let peer = 1 - me as i32;
        stamp(&mut self.eager_out, batch);
        stamp(&mut self.exchange_out, batch);
        stamp(&mut self.vector_out, batch);
        for (k, (item, inbox)) in self.items.iter().zip(&mut self.inbox).enumerate() {
            let (op, tag) = (k as u32, TAG_ITEM + k as i32);
            match *item {
                Item::Eager { from } if from == me => t.span(Sp::SendEager16k, op, || {
                    world
                        .send(&self.eager_out, peer, tag)
                        .or_die("send(16 KiB)")
                }),
                Item::Eager { .. } => t.span(Sp::RecvEager16k, op, || {
                    world.recv_into(inbox, peer, tag).or_die("recv(16 KiB)");
                }),
                Item::Exchange => t.span_n(Sp::Rndv256k, op, 2, || {
                    let r = world.irecv(inbox, peer, tag).or_die("irecv(256 KiB)");
                    let s = world
                        .isend(&self.exchange_out, peer, tag)
                        .or_die("isend(256 KiB)");
                    waitall(vec![r, s]).or_die("waitall(256 KiB)");
                }),
                Item::Vector { from } if from == me => t.span(Sp::SendVector64k, op, || {
                    world
                        .isend_bytes(&self.vector_out, &self.vector, 1, peer, tag)
                        .and_then(Request::wait)
                        .or_die("send(vector)");
                }),
                Item::Vector { .. } => t.span(Sp::RecvVector64k, op, || {
                    world
                        .irecv_bytes(inbox, &self.vector, 1, peer, tag)
                        .and_then(Request::wait)
                        .or_die("recv(vector)");
                }),
            }
        }
        0
    }

    fn verify(&mut self, batch: u64) -> u64 {
        stamp(&mut self.eager_want, batch);
        stamp(&mut self.exchange_want, batch);
        stamp(&mut self.vector_want, batch);
        let mut bad = 0;
        for (item, inbox) in self.items.iter().zip(&mut self.inbox) {
            let ok = match *item {
                _ if inbox.is_empty() => continue,
                Item::Eager { .. } => *inbox == self.eager_want,
                Item::Exchange => *inbox == self.exchange_want,
                // Only the strided blocks arrive; the gaps stay zero.
                Item::Vector { .. } => inbox
                    .chunks(Large::VECTOR_BLOCK_BYTES)
                    .zip(self.vector_want.chunks(Large::VECTOR_BLOCK_BYTES))
                    .enumerate()
                    .all(|(slot, (got, want))| {
                        if slot % 2 == 0 {
                            got == want
                        } else {
                            got.iter().all(|&b| b == 0)
                        }
                    }),
            };
            bad += !ok as u64;
            // A stale buffer must not pass the next batch's check.
            inbox[..8].fill(0);
        }
        bad
    }
}
