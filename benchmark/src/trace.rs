//! Spans around every call the harness makes into the library.
//!
//! Batch code is generic over [`Tracer`]: with [`NoTrace`] a span is the
//! bare call (the end-to-end numbers come from that instantiation), with
//! [`SpanTrace`] it is recorded as name, start, end, parent, op id. A
//! span starts at the last timestamp the tracer took and reads the clock
//! once, when it ends, so consecutive call spans tile their parent: the
//! few nanoseconds of harness loop code between two calls belong to the
//! later call, and every span carries one clock read (`span_floor_ns` in
//! the provenance block). Spans inside the library are a later change.

use crate::probe::{to_reference, Probe};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// What a span encloses; only `Call` spans count as library time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Batch,
    Phase,
    /// One call (or one fixed pair of calls) into the library.
    Call,
    /// Harness work inside the timed batch: filling a send buffer,
    /// checking a result.
    Harness,
}

macro_rules! spans {
    ($($variant:ident = $name:literal, $kind:ident;)*) => {
        /// Every span name the harness records.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum Sp { $($variant,)* }

        impl Sp {
            pub const ALL: &'static [Sp] = &[$(Sp::$variant,)*];

            pub fn name(self) -> &'static str {
                match self { $(Sp::$variant => $name,)* }
            }

            pub fn kind(self) -> Kind {
                match self { $(Sp::$variant => Kind::$kind,)* }
            }
        }
    };
}

spans! {
    Batch = "batch", Batch;
    Inline = "harness.inline", Harness;

    PhasePingpong = "phase.pingpong", Phase;
    PhaseWindow8 = "phase.window8", Phase;
    PhaseWindow1k = "phase.window1k", Phase;
    PhaseWindow16k = "phase.window16k", Phase;
    PhaseBurst = "phase.burst", Phase;
    Token = "core.pt2pt.token", Call;
    PingpongRtt = "core.pt2pt.pingpong_rtt", Call;
    PingpongEcho = "core.pt2pt.pingpong_echo", Call;
    Isend = "core.pt2pt.isend", Call;
    Irecv = "core.pt2pt.irecv", Call;
    // Sends complete at issue: what a wait costs with nothing to wait for.
    Waitall = "core.request.wait", Call;
    // Includes the peer's whole turn: on one CPU it runs while we block.
    WaitallRecv = "core.request.wait_recv", Call;
    IsendBurst = "core.pt2pt.isend_burst", Call;
    RecvUnexpected = "core.pt2pt.recv_unexpected", Call;

    SendEager16k = "core.pt2pt.send_eager16k", Call;
    RecvEager16k = "core.pt2pt.recv_eager16k", Call;
    Rndv256k = "core.proto.rndv256k", Call;
    SendVector64k = "datatype.pack.send_vector64k", Call;
    RecvVector64k = "datatype.pack.recv_vector64k", Call;

    PhasePassive = "phase.passive_epoch", Phase;
    PhaseFence = "phase.fence_epoch", Phase;
    Lock = "core.rma.lock", Call;
    Unlock = "core.rma.unlock", Call;
    Put8 = "core.rma.put8", Call;
    Put1k = "core.rma.put1k", Call;
    Get1k = "core.rma.get1k", Call;
    FetchAndOp = "core.rma.fetch_and_op", Call;
    Flush = "core.rma.flush", Call;
    Fence = "core.rma.fence", Call;
    Put1kFence = "core.rma.put1k_fence", Call;

    PhaseRound = "phase.round", Phase;
    Allreduce64 = "core.coll.allreduce64", Call;
    Allreduce8192 = "core.coll.allreduce8192", Call;
    Bcast128 = "core.coll.bcast128", Call;
    Alltoall16 = "core.coll.alltoall16", Call;
    Barrier = "core.coll.barrier", Call;
    Iallreduce64Issue = "core.sched.iallreduce64_issue", Call;
    Iallreduce64Wait = "core.sched.iallreduce64_wait", Call;
    Ibcast128 = "core.sched.ibcast128", Call;

    Stencil = "apps.stencil.round", Call;
    Nekbone = "apps.nekbone.round", Call;
    Minimd = "apps.minimd.round", Call;
}

/// "No op id": phases and batches.
pub const NO_OP: u32 = u32::MAX;
const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: Sp,
    /// Index of the enclosing span in the same batch.
    pub parent: u32,
    /// Which op of the batch this call serves.
    pub op: u32,
    /// How many ops the call completes (a `waitall` over 64 requests).
    pub div: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Instruction-count probes: the calibrated charges of one call kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstrProbe {
    Isend = 0,
    Put = 1,
}

/// The interface batch code is written against.
pub trait Tracer {
    /// Run `f` inside a span that completes `div` ops.
    fn span_n<R>(&self, name: Sp, op: u32, div: u32, f: impl FnOnce() -> R) -> R;

    fn span<R>(&self, name: Sp, op: u32, f: impl FnOnce() -> R) -> R {
        self.span_n(name, op, 1, f)
    }

    /// Run `f`, which issues `calls` calls of one kind, and record the
    /// injection-path instructions the library charged for them.
    fn instr<R>(&self, probe: InstrProbe, calls: u64, f: impl FnOnce() -> R) -> R;
}

/// Tracing off: a span is the call itself.
pub struct NoTrace;

impl Tracer for NoTrace {
    #[inline(always)]
    fn span_n<R>(&self, _: Sp, _: u32, _: u32, f: impl FnOnce() -> R) -> R {
        f()
    }

    #[inline(always)]
    fn instr<R>(&self, _: InstrProbe, _: u64, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// Samples kept per span name; beyond it the median is of the first
/// this-many (about 16 MiB per name on rank 0).
const SAMPLE_CAP: usize = 4 << 20;

/// Traced batches whose spans are written out in full, per rank.
pub const DUMP_BATCHES: usize = 8;

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    stack: Vec<u32>,
    last_ns: u64,
    /// (injection-path instructions, calls) per [`InstrProbe`].
    instr: [(u64, u64); 2],
    samples: Vec<Vec<u32>>,
    /// Per traced batch: call-span time ÷ batch-span time.
    coverage: Vec<f64>,
    dumped: Vec<(u64, Vec<Span>)>,
}

/// Tracing on: spans of the batch in progress, plus what survives it.
pub struct SpanTrace {
    epoch: Instant,
    /// Rank 0 keeps per-name duration samples for the medians.
    keep_samples: bool,
    state: RefCell<State>,
}

impl SpanTrace {
    pub fn new(epoch: Instant, keep_samples: bool) -> SpanTrace {
        let state = State {
            samples: vec![Vec::new(); Sp::ALL.len()],
            ..State::default()
        };
        SpanTrace {
            epoch,
            keep_samples,
            state: RefCell::new(state),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Forget the previous batch and take the timestamp the next span
    /// starts at.
    pub fn start_batch(&self) {
        let now = self.now_ns();
        let mut s = self.state.borrow_mut();
        s.spans.clear();
        s.stack.clear();
        s.last_ns = now;
    }

    /// Fold the finished batch into the samples, each duration times
    /// `to_reference` (the host's speed scaled out, see `probe`), and keep
    /// its spans, as recorded, if it is one of the first
    /// [`DUMP_BATCHES`]. Untimed.
    pub fn finish_batch(&self, batch: u64, to_reference: f64) {
        let mut s = self.state.borrow_mut();
        let s = &mut *s;
        if self.keep_samples {
            let mut calls = 0u64;
            for span in &s.spans {
                if span.name.kind() == Kind::Call {
                    calls += span.dur_ns();
                }
                let sample = &mut s.samples[span.name as usize];
                if sample.len() < SAMPLE_CAP {
                    let ns = span.dur_ns() as f64 * to_reference / span.div as f64;
                    sample.push(ns.min(u32::MAX as f64) as u32);
                }
            }
            if let Some(batch_span) = s.spans.first() {
                s.coverage
                    .push(calls as f64 / batch_span.dur_ns().max(1) as f64);
            }
        }
        if s.dumped.len() < DUMP_BATCHES {
            s.dumped.push((batch, s.spans.clone()));
        }
    }

    /// Median duration of an empty span, in reference time: the clock
    /// read every span carries.
    pub fn floor_ns(epoch: Instant) -> f64 {
        let mut probe = Probe::default();
        let speed_before = probe.sample();
        let t = SpanTrace::new(epoch, true);
        t.start_batch();
        for _ in 0..10_001 {
            t.span(Sp::Inline, NO_OP, || ());
        }
        t.finish_batch(0, to_reference(speed_before, probe.sample()));
        t.into_parts().median_ns(Sp::Inline)
    }

    pub fn into_parts(self) -> TraceParts {
        let s = self.state.into_inner();
        TraceParts {
            samples: s.samples,
            coverage: s.coverage,
            dumped: s.dumped,
            instr: s.instr,
        }
    }
}

impl Tracer for SpanTrace {
    fn span_n<R>(&self, name: Sp, op: u32, div: u32, f: impl FnOnce() -> R) -> R {
        let idx = {
            let mut s = self.state.borrow_mut();
            let idx = s.spans.len() as u32;
            let span = Span {
                name,
                parent: s.stack.last().copied().unwrap_or(NO_PARENT),
                op,
                div,
                start_ns: s.last_ns,
                end_ns: 0,
            };
            s.spans.push(span);
            s.stack.push(idx);
            idx
        };
        let out = f();
        let now = self.now_ns();
        let mut s = self.state.borrow_mut();
        s.spans[idx as usize].end_ns = now;
        s.last_ns = now;
        s.stack.pop();
        out
    }

    fn instr<R>(&self, probe: InstrProbe, calls: u64, f: impl FnOnce() -> R) -> R {
        let p = litempi::instr::probe();
        let out = f();
        let charged = p.finish().injection_total();
        let slot = &mut self.state.borrow_mut().instr[probe as usize];
        slot.0 += charged;
        slot.1 += calls;
        out
    }
}

/// What one rank's tracer hands back when the run ends.
#[derive(Default)]
pub struct TraceParts {
    samples: Vec<Vec<u32>>,
    pub coverage: Vec<f64>,
    pub dumped: Vec<(u64, Vec<Span>)>,
    instr: [(u64, u64); 2],
}

impl TraceParts {
    /// Median per-op duration of `name`'s spans; 0 when it never ran.
    pub fn median_ns(&self, name: Sp) -> f64 {
        let v: Vec<f64> = self.samples[name as usize]
            .iter()
            .map(|&ns| ns as f64)
            .collect();
        crate::stats::median(&v)
    }

    pub fn count(&self, name: Sp) -> usize {
        self.samples[name as usize].len()
    }

    /// Injection-path instructions per call of `probe`'s kind.
    pub fn instr_per_call(&self, probe: InstrProbe) -> f64 {
        let (charged, calls) = self.instr[probe as usize];
        charged as f64 / calls.max(1) as f64
    }
}

/// Append one rank's dumped spans to `out` as JSON lines.
pub fn spans_jsonl(out: &mut String, rank: usize, dumped: &[(u64, Vec<Span>)]) {
    for (batch, spans) in dumped {
        for (id, s) in spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"rank\":{rank},\"batch\":{batch},\"id\":{id},\"name\":\"{}\",",
                s.name.name()
            );
            if s.parent != NO_PARENT {
                let _ = write!(out, "\"parent\":{},", s.parent);
            }
            if s.op != NO_OP {
                let _ = write!(out, "\"op\":{},", s.op);
            }
            let _ = writeln!(out, "\"start_ns\":{},\"end_ns\":{}}}", s.start_ns, s.end_ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_tile() {
        let t = SpanTrace::new(Instant::now(), true);
        t.start_batch();
        t.span(Sp::Batch, NO_OP, || {
            t.span(Sp::PhaseWindow8, NO_OP, || {
                t.span(Sp::Isend, 0, || ());
                t.span_n(Sp::Waitall, 1, 64, || ());
            });
        });
        t.finish_batch(3, 1.0);
        let parts = t.into_parts();
        let (batch, spans) = &parts.dumped[0];
        assert_eq!(*batch, 3);
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 1);
        assert_eq!(spans[3].parent, 1);
        // Children tile the parent: each starts where the last one ended.
        assert_eq!(spans[2].start_ns, spans[1].start_ns);
        assert_eq!(spans[3].start_ns, spans[2].end_ns);
        assert!(spans[0].end_ns >= spans[3].end_ns);
        assert_eq!(parts.count(Sp::Waitall), 1);
        assert_eq!(parts.coverage.len(), 1);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = Sp::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Sp::ALL.len());
    }
}
