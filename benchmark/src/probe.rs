//! The host-speed probe: a fixed kernel timed next to every batch, so
//! that the host's speed at that moment can be scaled out of the batch.
//!
//! The hosts this runs on are shared. For minutes at a time everything on
//! the pinned CPU — this kernel, an 8-byte `isend`, a 64-rank stencil —
//! runs 1.3 to 1.45 times slower, by the same factor, and then recovers
//! (README.md, "Scaling out the host"). A library change cannot move the
//! kernel, so dividing a batch's time by the kernel's time next to it
//! keeps every change of the library and drops the host's. Times are
//! reported as if the kernel took [`NOMINAL_NS`]: its time on the idle
//! host the bounds were fixed on.
//!
//! `p2p_lossy` is the exception. Its pace is set by retransmit timers,
//! which run on wall time: in the same episodes its time per message
//! moved by 4 % while the kernel's moved by 39 %. Its plan switches the
//! probe off and its times are wall time.

use std::hint::black_box;
use std::time::Instant;

/// What one kernel run takes on the reference host when nothing else
/// contends for the core. Frozen: it defines the unit of every time the
/// benchmark reports.
pub const NOMINAL_NS: f64 = 8060.0;

const WORDS: usize = 512;
const PASSES: usize = 12;

/// Throughput-bound integer work on 4 KiB: independent element updates
/// the compiler vectorizes, with one data-dependent step. (A dependent
/// multiply chain does not work as a probe: it waits on latency, a busy
/// sibling thread barely slows it, and the library is slowed 1.4 times.)
fn kernel(a: &mut [u64; WORDS]) {
    for _ in 0..PASSES {
        for (i, v) in a.iter_mut().enumerate() {
            *v = (*v ^ (*v >> 7)).wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1;
            if *v & 0x100 != 0 {
                *v = v.rotate_left(9);
            }
        }
    }
}

/// The kernel's state, one per thread that probes.
pub struct Probe {
    a: [u64; WORDS],
}

impl Default for Probe {
    fn default() -> Self {
        Probe { a: [1; WORDS] }
    }
}

impl Probe {
    /// Nanoseconds one kernel run takes right now: the fastest of three,
    /// the first of which also brings the 4 KiB back into the cache.
    pub fn sample(&mut self) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t0 = Instant::now();
            kernel(black_box(&mut self.a));
            best = best.min(t0.elapsed().as_nanos() as f64);
        }
        best
    }
}

/// The factor that turns a duration measured between two probe samples
/// into reference time: nominal ÷ the mean of the two.
pub fn to_reference(probe_before_ns: f64, probe_after_ns: f64) -> f64 {
    NOMINAL_NS / ((probe_before_ns + probe_after_ns) / 2.0)
}
