//! The seven workloads: what each runs, why, and which numbers it yields.

pub mod apps;
pub mod coll;
pub mod p2p;
pub mod rma;

use crate::harness::{self, Counts, Plan, RunOut, Stop, SETUPS};
use crate::stats::{median, percentile};
use crate::trace::{InstrProbe, Sp, SpanTrace, TraceParts};
use litempi::instr::Category;
use litempi::prelude::*;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    P2pSmall,
    P2pLarge,
    P2pReliable,
    P2pLossy,
    RmaMix,
    CollMix,
    Apps64,
}

/// `(name, unit)`.
pub type MetricDef = (&'static str, &'static str);

/// The end-to-end metrics, reported for every workload by an untraced run.
pub const END_TO_END: &[MetricDef] = &[
    ("op_ns_p50", "ns"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_MiB", "MiB"),
];

/// Per-layer metrics every workload's traced run reports.
pub const COMMON: &[MetricDef] = &[
    ("core.universe.spawn_s", "s"),
    ("tail.op_ns_p90", "ns"),
    ("harness.trace_overhead_frac", "ratio"),
    ("harness.span_coverage_frac", "ratio"),
];

const P2P_SMALL: &[MetricDef] = &[
    ("core.pt2pt.isend_ns", "ns"),
    ("core.pt2pt.irecv_ns", "ns"),
    ("core.request.wait_ns", "ns"),
    ("core.pt2pt.recv_unexpected_ns", "ns"),
    ("core.pt2pt.pingpong_rtt_ns", "ns"),
    ("core.request.wake_ns", "ns"),
    ("core.pt2pt.over_fabric_ns", "ns"),
    ("instr.injection_per_isend", "instr"),
    ("instr.allocs_per_msg", "count"),
    ("fabric.pool.hit_rate", "ratio"),
    ("fabric.matching.bucket_hit_rate", "ratio"),
    ("fabric.matching.unexpected_per_msg", "ratio"),
    ("fabric.matching.max_unexpected_depth", "count"),
];

const P2P_LARGE: &[MetricDef] = &[
    ("core.pt2pt.send_eager16k_ns", "ns"),
    ("core.proto.rndv256k_ns", "ns"),
    ("datatype.pack.send_vector64k_ns", "ns"),
    ("fabric.region.reg_cache_hit_rate", "ratio"),
    ("fabric.pool.hit_rate_large", "ratio"),
    ("core.proto.payload_MiB_per_s", "MiB/s"),
];

/// Shared by `p2p_reliable` and `p2p_lossy`.
const RELIABILITY: &[MetricDef] = &[
    ("instr.reliability_per_msg", "instr"),
    ("fabric.reliability.acks_per_msg", "ratio"),
    ("fabric.reliability.resident_link_bytes", "B"),
    ("fabric.reliability.retransmits_per_kmsg", "1/kmsg"),
    ("fabric.reliability.dup_dropped_per_kmsg", "1/kmsg"),
    ("fabric.reliability.crc_failures_per_kmsg", "1/kmsg"),
    ("fabric.fault.dropped_per_kmsg", "1/kmsg"),
];
const TAX: MetricDef = ("fabric.reliability.tax_ns", "ns");
const RECOVERY: MetricDef = ("fabric.reliability.recovery_ns", "ns");

const RMA_MIX: &[MetricDef] = &[
    ("core.rma.put8_ns", "ns"),
    ("core.rma.put1k_ns", "ns"),
    ("core.rma.get1k_ns", "ns"),
    ("core.rma.fetch_and_op_ns", "ns"),
    ("core.rma.lock_unlock_ns", "ns"),
    ("core.rma.flush_ns", "ns"),
    ("core.rma.fence_ns", "ns"),
    ("instr.injection_per_put", "instr"),
    ("fabric.stats.win_flushes_per_epoch", "count"),
];

const COLL_MIX: &[MetricDef] = &[
    ("core.coll.allreduce64_ns", "ns"),
    ("core.coll.allreduce8192_ns", "ns"),
    ("core.coll.bcast128_ns", "ns"),
    ("core.coll.alltoall16_ns", "ns"),
    ("core.coll.barrier_ns", "ns"),
    ("core.sched.iallreduce64_issue_ns", "ns"),
    ("core.sched.iallreduce64_wait_ns", "ns"),
    ("core.sched.ibcast128_ns", "ns"),
    ("core.coll.msgs_per_call", "count"),
    ("instr.schedule_per_nbc", "instr"),
];

const APPS64: &[MetricDef] = &[
    ("apps.stencil.round_ns", "ns"),
    ("apps.nekbone.round_ns", "ns"),
    ("apps.minimd.round_ns", "ns"),
    ("apps.msgs_per_round", "count"),
    ("apps.bytes_per_round", "B"),
];

/// Batches a comparison phase runs (half of them traced).
const COMPARISON_BATCHES: u64 = 400;

impl Workload {
    pub const ALL: [Workload; 7] = [
        Workload::P2pSmall,
        Workload::P2pLarge,
        Workload::P2pReliable,
        Workload::P2pLossy,
        Workload::RmaMix,
        Workload::CollMix,
        Workload::Apps64,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::P2pSmall => "p2p_small",
            Workload::P2pLarge => "p2p_large",
            Workload::P2pReliable => "p2p_reliable",
            Workload::P2pLossy => "p2p_lossy",
            Workload::RmaMix => "rma_mix",
            Workload::CollMix => "coll_mix",
            Workload::Apps64 => "apps64",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line: why this workload is in the set.
    pub fn why(self) -> &'static str {
        match self {
            Workload::P2pSmall => "8-byte messages: the per-message software path is all of the time, payload bytes none",
            Workload::P2pLarge => "16 KiB to 256 KiB messages: copies, pack, rendezvous and registration dominate, the per-message path is a few percent",
            Workload::P2pReliable => "pre-posted windows over the seq/ack/CRC layer on a fault-free link: the reliability tax on the fast path",
            Workload::P2pLossy => "the same windows over a link that drops, duplicates, reorders and corrupts 1% each: recovery does the work",
            Workload::RmaMix => "passive-target and fence epochs side by side on one window: the MPI_Put path and the epoch machinery",
            Workload::CollMix => "blocking and schedule-driven collectives on 8 ranks over 2 nodes: coll, sched, hier and the reduce kernels",
            Workload::Apps64 => "stencil, nekbone and minimd on 64 thread-per-rank ranks: time to solution, every layer at once",
        }
    }

    pub fn ranks(self) -> usize {
        match self {
            Workload::CollMix => coll::CollMix::RANKS,
            Workload::Apps64 => apps::Apps64::RANKS,
            _ => 2,
        }
    }

    fn topology(self) -> Topology {
        match self {
            Workload::CollMix => Topology::blocked(coll::CollMix::RANKS, 4),
            Workload::Apps64 => Topology::blocked(apps::Apps64::RANKS, 16),
            _ => Topology::single_node(2),
        }
    }

    /// The paper's primary configuration everywhere; two workloads add the
    /// reliability layer, one of them a seeded faulty link.
    fn profile(self, seed: u64) -> ProviderProfile {
        let ofi = ProviderProfile::ofi();
        match self {
            Workload::P2pReliable => ofi.reliable(),
            Workload::P2pLossy => ofi
                .reliable()
                .with_faults(FaultPlan::uniform(seed, FaultSpec::percent(1, 1, 1, 1))),
            _ => ofi,
        }
    }

    pub fn profile_label(self) -> &'static str {
        match self {
            Workload::P2pReliable => "ofi+reliable",
            Workload::P2pLossy => "ofi+reliable+faults(1%,1%,1%,1%)",
            _ => "ofi",
        }
    }

    /// Frozen: sized so that one set-up takes about a third of a second on the
    /// host the bounds were fixed on.
    pub fn warmup_batches(self) -> u64 {
        match self {
            Workload::P2pSmall => 450,
            Workload::P2pLarge => 220,
            Workload::P2pReliable => 200,
            Workload::P2pLossy => 70,
            Workload::RmaMix => 1750,
            Workload::CollMix => 72,
            Workload::Apps64 => 2,
        }
    }

    pub fn ops_per_batch(self) -> u64 {
        match self {
            Workload::P2pSmall => p2p::Small::OPS,
            Workload::P2pLarge => p2p::Large::OPS,
            Workload::P2pReliable | Workload::P2pLossy => p2p::Windows::OPS,
            Workload::RmaMix => rma::RmaMix::OPS,
            Workload::CollMix => coll::CollMix::OPS,
            Workload::Apps64 => apps::Apps64::OPS,
        }
    }

    /// The per-layer metrics this workload measures itself, besides
    /// [`COMMON`] and the direct layer timings.
    pub fn layer_metrics(self) -> Vec<MetricDef> {
        match self {
            Workload::P2pSmall => P2P_SMALL.to_vec(),
            Workload::P2pLarge => P2P_LARGE.to_vec(),
            Workload::P2pReliable => [&[TAX], RELIABILITY].concat(),
            Workload::P2pLossy => [RELIABILITY, &[RECOVERY]].concat(),
            Workload::RmaMix => RMA_MIX.to_vec(),
            Workload::CollMix => COLL_MIX.to_vec(),
            Workload::Apps64 => APPS64.to_vec(),
        }
    }

    fn plan(self, seed: u64, stop: Stop, traced: bool) -> Plan {
        Plan {
            ranks: self.ranks(),
            topology: self.topology(),
            profile: self.profile(seed),
            seed,
            warmup_batches: self.warmup_batches(),
            setups: SETUPS,
            stop,
            traced,
            // Retransmit timers set the lossy link's pace, not the core.
            reference_time: self != Workload::P2pLossy,
        }
    }

    fn execute(self, plan: &Plan, epoch: Instant) -> RunOut {
        match self {
            Workload::P2pSmall => harness::run::<p2p::Small>(plan, epoch),
            Workload::P2pLarge => harness::run::<p2p::Large>(plan, epoch),
            Workload::P2pReliable | Workload::P2pLossy => harness::run::<p2p::Windows>(plan, epoch),
            Workload::RmaMix => harness::run::<rma::RmaMix>(plan, epoch),
            Workload::CollMix => harness::run::<coll::CollMix>(plan, epoch),
            Workload::Apps64 => harness::run::<apps::Apps64>(plan, epoch),
        }
    }
}

/// Every per-layer name any run can report, in output order.
pub fn all_layer_metrics() -> Vec<MetricDef> {
    let mut all = COMMON.to_vec();
    for w in Workload::ALL {
        for m in w.layer_metrics() {
            if !all.contains(&m) {
                all.push(m);
            }
        }
    }
    all.extend_from_slice(crate::layers::METRICS);
    all
}

/// What a run measured.
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    /// Batches in the measured window (the sample count of `op_ns_p50`
    /// in an untraced run; half of it in a traced one).
    pub batches: u64,
    /// [`END_TO_END`] values for an untraced run; for a traced one
    /// [`COMMON`], the workload's own, then the direct layer timings.
    pub metrics: Vec<(&'static str, f64)>,
    /// Median duration of an empty span (traced runs; 0 otherwise).
    pub span_floor_ns: f64,
    /// Median over the measured batches of the factor that turned wall
    /// time into reference time: 1 on the idle reference host.
    pub host_speed: f64,
    /// The run itself, for the trace file.
    pub run: RunOut,
}

/// Nanoseconds per op of each batch.
fn op_ns(batch_ns: &[f64], ops: u64) -> Vec<f64> {
    batch_ns.iter().map(|&ns| ns / ops as f64).collect()
}

/// Ops completed per second of batch time: the window is cut into
/// [`SLICES`] runs of consecutive batches, each slice's rate is its ops ÷
/// its summed batch time, and the median slice is reported. A stall the
/// per-batch median hides (one batch in fifty waiting on a timer) sits in
/// every slice and shows; a burst of interference from the host sits in a
/// few and does not.
fn ops_per_s(batch_ns: &[f64], ops: u64) -> f64 {
    let slices = SLICES.min(batch_ns.len());
    let rates: Vec<f64> = (0..slices)
        .map(|i| {
            let slice = &batch_ns[i * batch_ns.len() / slices..(i + 1) * batch_ns.len() / slices];
            let ns: f64 = slice.iter().sum();
            (slice.len() as u64 * ops) as f64 / (ns / 1e9)
        })
        .collect();
    median(&rates)
}

const SLICES: usize = 20;

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// Run `w` for `seconds` and derive its metrics. A traced run goes on to
/// take the direct layer timings, in this process but after the workload,
/// so that they cannot disturb it.
pub fn run(w: Workload, seed: u64, seconds: f64, traced: bool, epoch: Instant) -> Measured {
    let stop = Stop::After(Duration::from_secs_f64(seconds));
    let out = w.execute(&w.plan(seed, stop, traced), epoch);
    let ops = w.ops_per_batch();
    let lead = &out.ranks[0];
    let plain = op_ns(&lead.plain_ns, ops);
    let p50 = median(&plain);

    let mut span_floor_ns = 0.0;
    let metrics = if traced {
        span_floor_ns = SpanTrace::floor_ns(epoch);
        let layers = crate::layers::measure(seed);
        let mut m = vec![
            ("core.universe.spawn_s", median(&out.spawn_s)),
            ("tail.op_ns_p90", percentile(&plain, 0.9)),
            (
                "harness.trace_overhead_frac",
                median(&op_ns(&lead.traced_ns, ops)) / p50 - 1.0,
            ),
            ("harness.span_coverage_frac", median(&out.trace0().coverage)),
        ];
        let fabric_ns = layers[0].1;
        m.extend(layer_values(
            w,
            &out,
            seed,
            epoch,
            p50,
            span_floor_ns,
            fabric_ns,
        ));
        m.extend(layers);
        m
    } else {
        vec![
            ("op_ns_p50", p50),
            ("ops_per_s", ops_per_s(&lead.plain_ns, ops)),
            ("setup_s", median(&out.setup_s)),
            ("peak_rss_MiB", peak_rss_mib()),
        ]
    };
    Measured {
        attempted: out.batches() * ops,
        failed: out.failed,
        batches: out.batches(),
        metrics,
        span_floor_ns,
        host_speed: median(&lead.host_speed),
        run: out,
    }
}

/// A comparison phase: `w`'s batch (a window workload's) on another link
/// and in the same kind of time, for the numbers a difference is taken
/// against.
fn comparison(w: Workload, profile: ProviderProfile, seed: u64, epoch: Instant) -> RunOut {
    let mut plan = w.plan(seed, Stop::Batches(COMPARISON_BATCHES), true);
    plan.profile = profile;
    plan.setups = 1;
    harness::run::<p2p::Windows>(&plan, epoch)
}

/// The workload's own per-layer metrics, in `layer_metrics` order.
/// `floor` is the clock read every span carries and the calls do not;
/// `fabric_ns` the direct `tsend`/`trecv` timing.
fn layer_values(
    w: Workload,
    out: &RunOut,
    seed: u64,
    epoch: Instant,
    p50: f64,
    floor: f64,
    fabric_ns: f64,
) -> Vec<(&'static str, f64)> {
    let t = out.trace0();
    let c: Counts = out.counts();
    let s = &c.stats;
    let traced_batches = out.ranks[0].traced_ns.len() as u64;
    let ns = |sp: Sp| t.median_ns(sp);
    let values: Vec<f64> = match w {
        Workload::P2pSmall => {
            let (isend, irecv, wait) = (ns(Sp::Isend), ns(Sp::Irecv), ns(Sp::Waitall));
            // A round trip is two messages; `PingpongRtt` is per message.
            let rtt = 2.0 * ns(Sp::PingpongRtt);
            let per_msg = (isend - floor) + (irecv - floor) + wait;
            vec![
                isend,
                irecv,
                wait,
                ns(Sp::RecvUnexpected),
                rtt,
                ((rtt - floor) - 2.0 * per_msg) / 2.0,
                per_msg - fabric_ns,
                t.instr_per_call(InstrProbe::Isend),
                ratio(c.allocs, s.msgs_sent),
                ratio(c.pool_hits, c.pool_takes),
                ratio(s.bucket_hits, s.bucket_hits + s.wildcard_matches),
                ratio(s.unexpected, s.msgs_sent),
                s.max_unexpected_depth as f64,
            ]
        }
        Workload::P2pLarge => {
            let batch_s = p50 * w.ops_per_batch() as f64 / 1e9;
            vec![
                ns(Sp::SendEager16k),
                ns(Sp::Rndv256k),
                ns(Sp::SendVector64k),
                ratio(s.reg_cache_hits, s.reg_cache_hits + s.reg_cache_misses),
                ratio(c.pool_hits, c.pool_takes),
                p2p::Large::PAYLOAD_BYTES as f64 / (1 << 20) as f64 / batch_s,
            ]
        }
        Workload::P2pReliable | Workload::P2pLossy => {
            let msgs = traced_batches * p2p::Windows::OPS;
            let kmsg = msgs as f64 / 1000.0;
            let shared = [
                ratio(c.instr.get(Category::Reliability), msgs),
                ratio(s.acks_sent, msgs),
                s.resident_link_bytes as f64,
                s.retransmits as f64 / kmsg,
                s.dup_dropped as f64 / kmsg,
                s.crc_failures as f64 / kmsg,
                s.faults_dropped as f64 / kmsg,
            ];
            // Per message of an 8-byte window: the phase span over its 64.
            let window8 = |t: &TraceParts| t.median_ns(Sp::PhaseWindow8) / 64.0;
            if w == Workload::P2pReliable {
                let plain = comparison(w, ProviderProfile::ofi(), seed, epoch);
                let tax = window8(t) - window8(plain.trace0());
                [&[tax], &shared[..]].concat()
            } else {
                let fault_free = comparison(w, ProviderProfile::ofi().reliable(), seed, epoch);
                let r = op_ns(&fault_free.ranks[0].plain_ns, p2p::Windows::OPS);
                [&shared[..], &[p50 - median(&r)]].concat()
            }
        }
        Workload::RmaMix => vec![
            ns(Sp::Put8),
            ns(Sp::Put1k),
            ns(Sp::Get1k),
            ns(Sp::FetchAndOp),
            ns(Sp::Lock) + ns(Sp::Unlock),
            ns(Sp::Flush),
            ns(Sp::Fence),
            t.instr_per_call(InstrProbe::Put),
            ratio(
                s.win_flushes,
                traced_batches * rma::RmaMix::PASSIVE_EPOCHS as u64,
            ),
        ],
        Workload::CollMix => vec![
            ns(Sp::Allreduce64),
            ns(Sp::Allreduce8192),
            ns(Sp::Bcast128),
            ns(Sp::Alltoall16),
            ns(Sp::Barrier),
            ns(Sp::Iallreduce64Issue),
            ns(Sp::Iallreduce64Wait),
            ns(Sp::Ibcast128),
            ratio(s.msgs_sent + s.am_sent, traced_batches * coll::CollMix::OPS),
            ratio(
                c.instr.get(Category::Schedule),
                traced_batches
                    * (coll::CollMix::ROUNDS * coll::CollMix::NBC_PER_ROUND * coll::CollMix::RANKS)
                        as u64,
            ),
        ],
        Workload::Apps64 => vec![
            ns(Sp::Stencil),
            ns(Sp::Nekbone),
            ns(Sp::Minimd),
            ratio(s.msgs_sent + s.am_sent, traced_batches),
            ratio(s.bytes_sent, traced_batches),
        ],
    };
    let names = w.layer_metrics();
    assert_eq!(
        names.len(),
        values.len(),
        "{}: one value per name",
        w.name()
    );
    names
        .into_iter()
        .map(|(name, _)| name)
        .zip(values)
        .collect()
}
