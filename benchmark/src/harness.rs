//! The closed loop every workload runs in.
//!
//! One batch is outstanding per rank. A batch is a fixed sequence of
//! operations; rank 0 times it, then — untimed — every rank checks what
//! it received and one allreduce on a control communicator carries the
//! failure counts to everyone and rank 0's decision whether another batch
//! follows. The only threads are the rank threads `Universe::run` spawns.

use crate::probe::{to_reference, Probe, NOMINAL_NS};
use crate::trace::{NoTrace, Sp, SpanTrace, TraceParts, Tracer, NO_OP};
use litempi::fabric::stats::StatsSnapshot;
use litempi::instr::Report;
use litempi::prelude::*;
use std::time::{Duration, Instant};

/// Complete set-ups per run; the measurement follows the last one and
/// `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Batch durations rank 0 has room for before its vectors reallocate.
const BATCH_ROOM: usize = 1 << 20;

/// An `MpiError` cannot be counted and skipped: the peer would wait for
/// the lost operation forever. Say which call failed and end the process.
pub trait OrDie<T> {
    fn or_die(self, what: &str) -> T;
}

impl<T> OrDie<T> for MpiResult<T> {
    fn or_die(self, what: &str) -> T {
        self.unwrap_or_else(|e| {
            eprintln!("litempi-benchmark: {what} failed: {e}");
            std::process::exit(1);
        })
    }
}

/// When the measured loop ends.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After the first batch that ends past this much measured time.
    After(Duration),
    /// After exactly this many batches (comparison phases).
    Batches(u64),
}

/// How one universe is run.
#[derive(Debug, Clone)]
pub struct Plan {
    pub ranks: usize,
    pub topology: Topology,
    pub profile: ProviderProfile,
    pub seed: u64,
    pub warmup_batches: u64,
    pub setups: usize,
    pub stop: Stop,
    /// Record spans on every second batch.
    pub traced: bool,
    /// Report reference time (the host's speed scaled out, see `probe`);
    /// wall time otherwise.
    pub reference_time: bool,
}

/// One rank's half of a workload.
pub trait Body: Sized {
    /// Collective: communicators, windows, datatypes, buffers.
    fn setup(proc: &Process, seed: u64) -> Self;

    /// One batch. Returns the ops whose cheap inline check failed.
    fn batch<T: Tracer>(&mut self, t: &T, batch: u64) -> u64;

    /// Untimed: compare what the batch left behind (large buffers, window
    /// contents) with the seeded pattern. Returns the ops that failed.
    fn verify(&mut self, _batch: u64) -> u64 {
        0
    }
}

/// Counters diffed at the boundaries of traced batches and summed.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub stats: StatsSnapshot,
    pub instr: Report,
    pub allocs: u64,
    pub pool_takes: u64,
    pub pool_hits: u64,
}

struct Snap {
    stats: StatsSnapshot,
    instr: Report,
    allocs: u64,
    pool: litempi::fabric::PoolStats,
}

impl Snap {
    fn take(proc: &Process) -> Snap {
        Snap {
            stats: proc.comm_stats(),
            instr: litempi::instr::snapshot(),
            allocs: litempi::instr::alloc_count(),
            pool: proc.pool_stats(),
        }
    }
}

impl Counts {
    fn add_interval(&mut self, before: &Snap, after: &Snap) {
        self.add_stats(&after.stats.diff(&before.stats));
        self.instr = self.instr.merge(&after.instr.diff(&before.instr));
        self.allocs += after.allocs - before.allocs;
        self.pool_takes += after.pool.takes - before.pool.takes;
        self.pool_hits += after.pool.hits - before.pool.hits;
    }

    /// Sum the counters the metrics use; gauges take the larger value.
    fn add_stats(&mut self, d: &StatsSnapshot) {
        let s = &mut self.stats;
        s.msgs_sent += d.msgs_sent;
        s.bytes_sent += d.bytes_sent;
        s.am_sent += d.am_sent;
        s.rdma_puts += d.rdma_puts;
        s.rdma_gets += d.rdma_gets;
        s.rdma_atomics += d.rdma_atomics;
        s.retransmits += d.retransmits;
        s.dup_dropped += d.dup_dropped;
        s.crc_failures += d.crc_failures;
        s.acks_sent += d.acks_sent;
        s.faults_dropped += d.faults_dropped;
        s.win_flushes += d.win_flushes;
        s.reg_cache_hits += d.reg_cache_hits;
        s.reg_cache_misses += d.reg_cache_misses;
        s.unexpected += d.unexpected;
        s.bucket_hits += d.bucket_hits;
        s.wildcard_matches += d.wildcard_matches;
        s.max_unexpected_depth = s.max_unexpected_depth.max(d.max_unexpected_depth);
        s.resident_link_bytes = s.resident_link_bytes.max(d.resident_link_bytes);
    }

    pub fn merge(&mut self, other: &Counts) {
        self.add_stats(&other.stats);
        self.instr = self.instr.merge(&other.instr);
        self.allocs += other.allocs;
        // Pool counters are fabric-wide: every rank saw the same ones.
        self.pool_takes = self.pool_takes.max(other.pool_takes);
        self.pool_hits = self.pool_hits.max(other.pool_hits);
    }
}

/// What one rank returns from the last universe of a run.
#[derive(Default)]
pub struct RankOut {
    /// Durations of untraced batches in reference nanoseconds (the
    /// host's speed scaled out, see `probe`), rank 0 only.
    pub plain_ns: Vec<f64>,
    /// The same for traced batches.
    pub traced_ns: Vec<f64>,
    /// Per measured batch, reference time ÷ wall time: 1 on the idle
    /// reference host, less when the host is slower.
    pub host_speed: Vec<f64>,
    /// Failed ops over all ranks (the control allreduce sums them).
    pub failed: u64,
    pub counts: Counts,
    pub trace: Option<TraceParts>,
}

/// A finished run.
pub struct RunOut {
    /// `Universe::run` entry → end of warm-up on rank 0, per set-up, in
    /// reference seconds.
    pub setup_s: Vec<f64>,
    /// `Universe::run` entry → rank 0 leaves its first barrier, per
    /// set-up, in reference seconds.
    pub spawn_s: Vec<f64>,
    /// Failed ops over all ranks and all set-ups, warm-up included.
    pub failed: u64,
    /// Per-rank results of the last, measured universe.
    pub ranks: Vec<RankOut>,
}

impl RunOut {
    pub fn batches(&self) -> u64 {
        (self.ranks[0].plain_ns.len() + self.ranks[0].traced_ns.len()) as u64
    }

    /// Traced-batch counters summed over ranks.
    pub fn counts(&self) -> Counts {
        let mut all = Counts::default();
        for r in &self.ranks {
            all.merge(&r.counts);
        }
        all
    }

    pub fn trace0(&self) -> &TraceParts {
        self.ranks[0].trace.as_ref().expect("traced run")
    }
}

/// Run `plan.setups` universes of workload `B`; measure in the last.
pub fn run<B: Body>(plan: &Plan, epoch: Instant) -> RunOut {
    let mut out = RunOut {
        setup_s: Vec::new(),
        spawn_s: Vec::new(),
        failed: 0,
        ranks: Vec::new(),
    };
    for rep in 0..plan.setups {
        let measure = rep + 1 == plan.setups;
        let speed_at_entry = match plan.reference_time {
            true => Probe::default().sample(),
            false => NOMINAL_NS,
        };
        let entered = Instant::now();
        let ranks = Universe::run(
            plan.ranks,
            BuildConfig::ch4_default(),
            plan.profile,
            plan.topology.clone(),
            |proc| rank_main::<B>(&proc, plan, (entered, speed_at_entry), epoch, measure),
        );
        let (spawn, setup) = ranks[0].0;
        out.spawn_s.push(spawn);
        out.setup_s.push(setup);
        out.failed += ranks[0].1.failed;
        out.ranks = ranks.into_iter().map(|(_, r)| r).collect();
    }
    out
}

/// The control step between batches: sum the failure counts, spread rank
/// 0's stop decision. Untimed.
fn control(ctl: &Communicator, failed: u64, stop: bool) -> (u64, bool) {
    let v = ctl
        .allreduce(&[failed, stop as u64], &Op::Sum)
        .or_die("control allreduce");
    (v[0], v[1] != 0)
}

fn rank_main<B: Body>(
    proc: &Process,
    plan: &Plan,
    (entered, speed_at_entry): (Instant, f64),
    epoch: Instant,
    measure: bool,
) -> ((f64, f64), RankOut) {
    // Only rank 0 times anything, so only rank 0 probes the host's speed.
    let lead = proc.rank() == 0;
    let mut probe = Probe::default();
    let mut sample = || match lead && plan.reference_time {
        true => probe.sample(),
        false => NOMINAL_NS,
    };

    let world = proc.world();
    let ctl = world.dup();
    world.barrier().or_die("first barrier");
    let spawn_s = entered.elapsed().as_secs_f64();

    let mut body = B::setup(proc, plan.seed);
    let mut out = RankOut::default();
    let mut batch = 0u64;
    while batch < plan.warmup_batches {
        let bad = body.batch(&NoTrace, batch) + body.verify(batch);
        out.failed += control(&ctl, bad, false).0;
        batch += 1;
    }
    let setup_s = entered.elapsed().as_secs_f64();
    let mut speed = sample();
    let spawn_s = spawn_s * to_reference(speed_at_entry, speed_at_entry);
    let setup_s = setup_s * to_reference(speed_at_entry, speed);
    if !measure {
        return ((spawn_s, setup_s), out);
    }

    if lead {
        // Room for every batch of the longest window, so that the vectors
        // never move: untouched pages cost no memory, a reallocation
        // would show in `peak_rss_MiB` at a batch count that varies.
        out.plain_ns.reserve(BATCH_ROOM);
        out.traced_ns
            .reserve(if plan.traced { BATCH_ROOM } else { 0 });
        out.host_speed.reserve(BATCH_ROOM);
    }
    let tracer = plan.traced.then(|| SpanTrace::new(epoch, lead));
    let window = Instant::now();
    let mut measured = 0u64;
    loop {
        let traced = tracer.as_ref().filter(|_| measured % 2 == 1);
        let before = traced.map(|_| Snap::take(proc));
        let t0 = Instant::now();
        let bad = match traced {
            None => body.batch(&NoTrace, batch),
            Some(t) => {
                t.start_batch();
                t.span(Sp::Batch, NO_OP, || body.batch(t, batch))
            }
        };
        let ns = t0.elapsed().as_nanos() as f64;
        // The batch ran between the previous probe sample and this one.
        let speed_before = std::mem::replace(&mut speed, sample());
        let scale = to_reference(speed_before, speed);
        if let (Some(t), Some(before)) = (traced, &before) {
            t.finish_batch(batch, scale);
            out.counts.add_interval(before, &Snap::take(proc));
        }
        let bad = bad + body.verify(batch);
        batch += 1;
        measured += 1;
        let mut stop = false;
        if lead {
            match traced {
                None => out.plain_ns.push(ns * scale),
                Some(_) => out.traced_ns.push(ns * scale),
            }
            out.host_speed.push(scale);
            // A traced run ends on a traced batch: every untraced batch
            // has its traced twin.
            let paired = !plan.traced || measured.is_multiple_of(2);
            stop = paired
                && match plan.stop {
                    Stop::After(limit) => window.elapsed() >= limit,
                    Stop::Batches(n) => measured >= n,
                };
        }
        let (bad, stop) = control(&ctl, bad, stop);
        out.failed += bad;
        if stop {
            break;
        }
    }
    out.trace = tracer.map(SpanTrace::into_parts);
    ((spawn_s, setup_s), out)
}
