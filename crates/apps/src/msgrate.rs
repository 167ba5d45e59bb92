//! The paper's §4.2 microbenchmark: single-core message-issue rate.
//!
//! "The benchmark is designed to demonstrate the maximum rate at which a
//! single core can inject data into the network. All performance numbers
//! are shown for a single byte of data transfer." Rank 0 issues a batch of
//! 1-byte operations as fast as it can; this module reports both the
//! wall-clock rate (host-machine relative numbers) and the *instructions
//! per operation* (the paper's platform-independent quantity, which the
//! rate figures derive from).

use litempi_core::{waitall, Communicator, MpiResult, Process, Window};
use litempi_fabric::MAX_VCIS;
use litempi_instr::{counter, Category, CostModel};
use litempi_trace::RankTrace;
use std::time::Instant;

/// Result of one message-rate measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateReport {
    /// Operations issued.
    pub ops: usize,
    /// Wall-clock operations per second on the host machine.
    pub wall_rate: f64,
    /// Measured injection-path instructions per operation.
    pub instr_per_op: f64,
    /// Per-message heap allocations per operation (payload-pipeline
    /// counter — a separate dimension from the instruction categories, so
    /// the paper's instruction counts are untouched). With the pooled
    /// pipeline warm this is ~0 for eager traffic.
    pub allocs_per_op: f64,
    /// Per-operation instructions charged to the software reliability
    /// protocol ([`Category::Reliability`]: seq/ack/retransmit bookkeeping,
    /// CRC). Exactly 0 when the provider profile runs without the reliable
    /// transport — the ablation's control condition.
    pub relia_per_op: f64,
    /// Times rank 0 handed its worker thread to another rank during the
    /// measured loop (ranks run as user-level tasks; 0 when each rank has
    /// a thread of its own).
    pub task_switches: u64,
    /// Sleeps of rank 0 or its idle worker during the measured loop that
    /// ran their full park time-out (a completion nobody announced).
    pub park_timeouts: u64,
    /// Multithreaded-injector detail ([`isend_rate_mt`]); `None` for the
    /// single-threaded measurements.
    pub vci: Option<VciReport>,
}

/// VCI-level detail of one multithreaded-injector measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VciReport {
    /// Shard count the fabric resolved (`LITEMPI_VCIS` / profile).
    pub n_vcis: usize,
    /// Concurrent injector threads on rank 0.
    pub threads: usize,
    /// Per-VCI critical-section acquisitions on rank 0's endpoint
    /// (entries past `n_vcis` are zero).
    pub acquires: [u64; MAX_VCIS],
    /// How many of those acquisitions found the lock already held.
    pub contended: [u64; MAX_VCIS],
    /// Modeled aggregate message rate (msg/s) on the paper's IT-cluster
    /// cost model. Each thread's injection-path instructions are measured
    /// (thread-local counters); ops on the same VCI serialize behind its
    /// critical section while distinct VCIs proceed concurrently, so the
    /// modeled wall time is the *largest per-VCI instruction load* — the
    /// critical path. With one VCI that is the sum over all threads (the
    /// paper's single-lock collapse); with per-thread VCIs it is the
    /// per-thread load, scaling the rate with the thread count. This is
    /// the platform-independent quantity; `wall_rate` stays host-relative
    /// (and on a single-core host cannot show the parallelism).
    pub modeled_rate: f64,
}

/// `MPI_ISEND` issue rate: rank 0 fires `ops` one-byte sends at rank 1 in
/// windows of `window`, waiting per window; rank 1 sinks them. Returns a
/// report on rank 0, `None` elsewhere.
pub fn isend_rate(
    proc: &Process,
    comm: &Communicator,
    ops: usize,
    window: usize,
) -> MpiResult<Option<RateReport>> {
    assert!(comm.size() >= 2, "need a sink rank");
    let me = comm.rank();
    comm.barrier()?;
    let out = if me == 0 {
        let data = [1u8];
        counter::reset();
        let before = proc.comm_stats();
        let probe = counter::probe();
        let t0 = Instant::now();
        let mut issued = 0;
        while issued < ops {
            let batch = window.min(ops - issued);
            let reqs: Vec<_> = (0..batch)
                .map(|_| comm.isend(&data, 1, 0))
                .collect::<MpiResult<_>>()?;
            waitall(reqs)?;
            issued += batch;
        }
        let dt = t0.elapsed().as_secs_f64();
        let allocs = probe.allocs();
        let report = probe.finish();
        let delta = proc.comm_stats().diff(&before);
        Some(RateReport {
            ops,
            wall_rate: ops as f64 / dt.max(1e-12),
            instr_per_op: report.injection_total() as f64 / ops as f64,
            allocs_per_op: allocs as f64 / ops as f64,
            relia_per_op: report.get(Category::Reliability) as f64 / ops as f64,
            task_switches: delta.task_switches,
            park_timeouts: delta.park_timeouts,
            vci: None,
        })
    } else if me == 1 {
        let mut buf = [0u8; 1];
        for _ in 0..ops {
            comm.recv_into(&mut buf, 0, 0)?;
        }
        None
    } else {
        None
    };
    comm.barrier()?;
    Ok(out)
}

/// `MPI_ISEND` issue rate under `MPI_THREAD_MULTIPLE`: `threads` injector
/// threads on rank 0 each fire `ops_per_thread` one-byte sends at rank 1,
/// every thread on its own dup'd communicator — sequential context ids,
/// so with `n_vcis > 1` the threads land on distinct shards and with one
/// VCI they all collapse onto the single critical section. Rank 1 sinks
/// each thread's traffic on a matching thread. Collective over `comm`
/// (the dups are); returns the report on rank 0, `None` elsewhere.
///
/// Instruction charges are thread-local, so each injector measures its own
/// injection path exactly; the [`VciReport`] in the result carries the
/// modeled critical-path rate (see its docs) alongside the host wall rate.
pub fn isend_rate_mt(
    proc: &Process,
    comm: &Communicator,
    ops_per_thread: usize,
    window: usize,
    threads: usize,
) -> MpiResult<Option<RateReport>> {
    assert!(comm.size() >= 2, "need a sink rank");
    assert!((1..=MAX_VCIS).contains(&threads), "1..=MAX_VCIS threads");
    let me = comm.rank();
    let n_vcis = proc.n_vcis();
    // Collective part: mint one communicator per injector thread.
    let comms: Vec<Communicator> = (0..threads).map(|_| comm.dup()).collect();
    comm.barrier()?;
    let total_ops = ops_per_thread * threads;
    let out = if me == 0 {
        let before = proc.comm_stats();
        let t0 = Instant::now();
        let per_thread: Vec<(usize, u64, u64, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|c| {
                    s.spawn(move || {
                        // Thread-local counters: this thread's charges only.
                        counter::reset();
                        let probe = counter::probe();
                        let data = [1u8];
                        let mut issued = 0;
                        while issued < ops_per_thread {
                            let batch = window.min(ops_per_thread - issued);
                            let reqs: Vec<_> = (0..batch)
                                .map(|_| c.isend(&data, 1, 0))
                                .collect::<MpiResult<_>>()?;
                            waitall(reqs)?;
                            issued += batch;
                        }
                        let allocs = probe.allocs();
                        let report = probe.finish();
                        let home = litempi_core::match_bits::vci_of_ctx(c.context_id(), n_vcis);
                        Ok((
                            home,
                            report.injection_total(),
                            report.get(Category::Reliability),
                            allocs,
                        ))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("injector thread panicked"))
                .collect::<MpiResult<_>>()
        })?;
        let dt = t0.elapsed().as_secs_f64();
        let delta = proc.comm_stats().diff(&before);
        let mut vci_instr = [0u64; MAX_VCIS];
        let (mut serial, mut relia, mut allocs) = (0u64, 0u64, 0u64);
        for &(home, instr, r, a) in &per_thread {
            vci_instr[home] += instr;
            serial += instr;
            relia += r;
            allocs += a;
        }
        // Critical path: per-VCI loads run concurrently, ops within a VCI
        // serialize. One VCI ⇒ every thread homes to shard 0 ⇒ the max IS
        // the serialized sum.
        let critical = vci_instr.iter().copied().max().unwrap_or(0);
        let modeled_rate = total_ops as f64 / CostModel::IT_CLUSTER.seconds(critical).max(1e-12);
        Some(RateReport {
            ops: total_ops,
            wall_rate: total_ops as f64 / dt.max(1e-12),
            instr_per_op: serial as f64 / total_ops as f64,
            allocs_per_op: allocs as f64 / total_ops as f64,
            relia_per_op: relia as f64 / total_ops as f64,
            task_switches: delta.task_switches,
            park_timeouts: delta.park_timeouts,
            vci: Some(VciReport {
                n_vcis,
                threads,
                acquires: delta.vci_acquires,
                contended: delta.vci_contended,
                modeled_rate,
            }),
        })
    } else if me == 1 {
        std::thread::scope(|s| {
            for c in comms {
                s.spawn(move || {
                    let mut buf = [0u8; 1];
                    for _ in 0..ops_per_thread {
                        c.recv_into(&mut buf, 0, 0).expect("sink recv failed");
                    }
                });
            }
        });
        None
    } else {
        None
    };
    comm.barrier()?;
    Ok(out)
}

/// `MPI_PUT` issue rate under one fence epoch pair.
pub fn put_rate(proc: &Process, comm: &Communicator, ops: usize) -> MpiResult<Option<RateReport>> {
    assert!(comm.size() >= 2, "need a target rank");
    let win = Window::create(comm, 8, 1)?;
    win.fence()?;
    let out = if comm.rank() == 0 {
        let data = [1u8];
        counter::reset();
        let before = proc.comm_stats();
        let probe = counter::probe();
        let t0 = Instant::now();
        for _ in 0..ops {
            win.put(&data, 1, 0)?;
        }
        let dt = t0.elapsed().as_secs_f64();
        let allocs = probe.allocs();
        let report = probe.finish();
        let delta = proc.comm_stats().diff(&before);
        Some(RateReport {
            ops,
            wall_rate: ops as f64 / dt.max(1e-12),
            instr_per_op: report.injection_total() as f64 / ops as f64,
            allocs_per_op: allocs as f64 / ops as f64,
            relia_per_op: report.get(Category::Reliability) as f64 / ops as f64,
            task_switches: delta.task_switches,
            park_timeouts: delta.park_timeouts,
            vci: None,
        })
    } else {
        None
    };
    win.fence()?;
    Ok(out)
}

/// Result of one communication/compute overlap measurement.
///
/// The schedule-based nonblocking collectives put phase 0 on the wire at
/// call time, so compute issued between `MPI_I*` and the wait can hide
/// communication latency. This report quantifies how much: `serial` is
/// the do-nothing-clever baseline (blocking collective, then compute);
/// `overlapped` runs the same work with the collective outstanding. The
/// fraction is the share of the smaller phase that was hidden.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlapReport {
    /// Seconds for the blocking collectives alone.
    pub comm_alone: f64,
    /// Seconds for the compute kernel alone.
    pub compute_alone: f64,
    /// `comm_alone + compute_alone` — the no-overlap reference.
    pub serial: f64,
    /// Seconds for the nonblocking collective with the compute kernel
    /// interleaved (test-polled between compute chunks, then waited).
    pub overlapped: f64,
    /// `(serial − overlapped) / min(comm_alone, compute_alone)`, clamped
    /// to `[0, 1]`: 1.0 means the smaller phase was fully hidden.
    pub overlap_fraction: f64,
    /// Instructions charged to the schedule engine
    /// ([`Category::Schedule`]) during the overlapped condition — the
    /// bookkeeping price of overlap, kept out of the injection totals.
    pub sched_instr: u64,
}

/// A deterministic compute kernel standing in for application work: the
/// returned value is data-dependent so the optimizer can't elide it.
fn compute_kernel(units: usize) -> u64 {
    let mut acc = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..units {
        acc = acc
            .wrapping_mul(6364136223846793005)
            .wrapping_add(i as u64)
            .rotate_left(17);
    }
    std::hint::black_box(acc)
}

/// Communication/compute overlap microbenchmark: every rank measures
/// (1) `iters` blocking allreduces of `len` `u64`s, (2) the compute
/// kernel alone, and (3) the same allreduce issued nonblocking with the
/// compute kernel chunk-interleaved against `test` before the final
/// `wait`. Collective, so every rank participates; the report is
/// returned on rank 0.
pub fn nbc_overlap(
    comm: &Communicator,
    len: usize,
    iters: usize,
    compute_units: usize,
) -> MpiResult<Option<OverlapReport>> {
    let rank = comm.rank();
    let data: Vec<u64> = (0..len as u64).map(|i| rank as u64 * 977 + i).collect();
    let op = litempi_core::Op::Sum;
    const CHUNKS: usize = 8;

    // Condition 1: blocking communication alone.
    comm.barrier()?;
    let t0 = Instant::now();
    for _ in 0..iters {
        comm.allreduce(&data, &op)?;
    }
    let comm_alone = t0.elapsed().as_secs_f64();

    // Condition 2: compute alone.
    let t0 = Instant::now();
    for _ in 0..iters {
        compute_kernel(compute_units);
    }
    let compute_alone = t0.elapsed().as_secs_f64();

    // Condition 3: nonblocking collective with the compute interleaved.
    comm.barrier()?;
    counter::reset();
    let probe = counter::probe();
    let t0 = Instant::now();
    for _ in 0..iters {
        let mut req = comm.iallreduce(&data, &op)?;
        for _ in 0..CHUNKS {
            compute_kernel(compute_units / CHUNKS);
            req.test()?;
        }
        req.wait()?;
    }
    let overlapped = t0.elapsed().as_secs_f64();
    let report = probe.finish();
    comm.barrier()?;

    let serial = comm_alone + compute_alone;
    let hidden = (serial - overlapped) / comm_alone.min(compute_alone).max(1e-12);
    Ok((rank == 0).then_some(OverlapReport {
        comm_alone,
        compute_alone,
        serial,
        overlapped,
        overlap_fraction: hidden.clamp(0.0, 1.0),
        sched_instr: report.get(Category::Schedule),
    }))
}

/// Render an overlap measurement for the drivers.
pub fn render_overlap(label: &str, r: &OverlapReport) -> String {
    format!(
        "{label}: comm {:.3}ms + compute {:.3}ms serial {:.3}ms, overlapped {:.3}ms, {:.0}% of the smaller phase hidden, {} schedule instr\n",
        r.comm_alone * 1e3,
        r.compute_alone * 1e3,
        r.serial * 1e3,
        r.overlapped * 1e3,
        r.overlap_fraction * 100.0,
        r.sched_instr
    )
}

/// Render one measurement the way the drivers print it: the paper's
/// instructions/op line, followed — when the run was traced — by the
/// plaintext trace summary (event totals, queue/pool/reliability activity,
/// per-operation latency histograms).
pub fn render_report(label: &str, r: &RateReport, traces: &[RankTrace]) -> String {
    let mut out = format!(
        "{label}: {} ops, {:.1} instructions/op, {:.3} allocs/op, {:.1} reliability instr/op, {:.0} ops/s\n",
        r.ops, r.instr_per_op, r.allocs_per_op, r.relia_per_op, r.wall_rate
    );
    out.push_str(&format!(
        "runtime: {} task switches, {} park time-outs\n",
        r.task_switches, r.park_timeouts
    ));
    out.push_str(&format!(
        "kernel tier: {}{}\n",
        litempi_simd::active().name(),
        if litempi_simd::active_clmul() {
            " (+clmul crc)"
        } else {
            ""
        }
    ));
    if let Some(v) = &r.vci {
        out.push_str(&format!(
            "vci: {} shard(s), {} injector thread(s), modeled {:.2} M msg/s, acquires {:?}, contended {:?}\n",
            v.n_vcis,
            v.threads,
            v.modeled_rate / 1e6,
            &v.acquires[..v.n_vcis],
            &v.contended[..v.n_vcis],
        ));
    }
    if !traces.is_empty() {
        out.push_str(&litempi_trace::summarize(traces));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use litempi_core::{BuildConfig, Universe};
    use litempi_fabric::{ProviderProfile, Topology};

    /// The tentpole's zero-overhead contract, half one: with tracing
    /// *enabled*, the instruction charges and the byte-level wire behaviour
    /// are identical to an untraced run — recording is a separate
    /// observability dimension that never touches the counters or the wire.
    #[test]
    fn tracing_on_is_charge_and_wire_identical() {
        let run = |profile: ProviderProfile| {
            Universe::run(
                2,
                BuildConfig::ch4_default(),
                profile,
                Topology::single_node(2),
                |proc| {
                    let world = proc.world();
                    let report = isend_rate(&proc, &world, 100, 16).unwrap();
                    let stats = proc.comm_stats();
                    let trace = litempi_trace::drain();
                    (report, stats, trace)
                },
            )
        };
        let plain = run(ProviderProfile::ofi());
        let traced = run(ProviderProfile::ofi().traced());
        // The deterministic wire-level counters. Matching-side stats
        // (unexpected hits, queue depths) are scheduling-dependent and
        // legitimately vary between two runs, traced or not.
        let wire = |s: &litempi_fabric::stats::StatsSnapshot| {
            [
                s.msgs_sent,
                s.msgs_received,
                s.bytes_sent,
                s.bytes_received,
                s.rdma_puts,
                s.rdma_gets,
                s.rdma_atomics,
                s.rdma_bytes,
                s.am_sent,
                s.retransmits,
                s.dup_dropped,
                s.crc_failures,
                s.acks_sent,
                s.faults_dropped,
            ]
        };
        for rank in 0..2 {
            let (pr, ps, pt) = &plain[rank];
            let (tr, ts, tt) = &traced[rank];
            // Same wire bytes, message counts, and instruction charges.
            assert_eq!(
                wire(ps),
                wire(ts),
                "rank {rank} wire stats diverge under tracing"
            );
            // allocs_per_op is excluded: pool hit rate depends on how
            // quickly the sink's leases recycle, which is scheduling
            // noise present with or without tracing.
            assert_eq!(
                pr.map(|r| (r.ops, r.instr_per_op, r.relia_per_op)),
                tr.map(|r| (r.ops, r.instr_per_op, r.relia_per_op)),
                "rank {rank} charges diverge under tracing"
            );
            // The untraced run recorded nothing; the traced run recorded
            // real events on every rank.
            assert!(pt.is_none());
            let t = tt.as_ref().unwrap();
            assert!(!t.events.is_empty());
            assert_eq!(t.rank, rank);
        }
        // The calibrated total stays pinned with the recorder armed.
        let r = traced[0].0.unwrap();
        assert!((r.instr_per_op - 221.0).abs() < 1e-9, "{}", r.instr_per_op);
    }

    /// chrome://tracing export golden: valid JSON shape, one named track
    /// per rank, paired begin/end phases, and per-rank monotonic
    /// timestamps.
    #[test]
    fn traced_msgrate_exports_chrome_json_and_histograms() {
        let out = Universe::run(
            2,
            BuildConfig::ch4_default(),
            ProviderProfile::ofi().traced(),
            Topology::single_node(2),
            |proc| {
                let world = proc.world();
                isend_rate(&proc, &world, 50, 8).unwrap();
                litempi_trace::drain().expect("tracing was enabled")
            },
        );
        for t in &out {
            // Rings record in order: timestamps are monotonic per rank.
            assert!(
                t.events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns),
                "rank {} timestamps not monotonic",
                t.rank
            );
            assert_eq!(t.dropped, 0, "default ring must not drop here");
        }
        let json = litempi_trace::chrome_trace_json(&out);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\""));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"name\":\"thread_name\""));
        assert!(json.contains("\"ph\":\"b\"") && json.contains("\"ph\":\"e\""));
        assert!(json.contains("\"name\":\"send\""));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON braces"
        );
        // Latency histograms derive from the same spans.
        let hists = litempi_trace::latency_histograms(&out);
        assert!(hists
            .iter()
            .any(|(name, h)| *name == "send" && h.count() > 0));
        // And the plaintext summary carries the headline totals.
        let report = RateReport {
            ops: 50,
            wall_rate: 1.0,
            instr_per_op: 221.0,
            allocs_per_op: 0.0,
            relia_per_op: 0.0,
            task_switches: 3,
            park_timeouts: 0,
            vci: None,
        };
        let summary = render_report("isend", &report, &out);
        assert!(summary.contains("instructions/op"));
        assert!(summary.contains("runtime: 3 task switches, 0 park time-outs"));
        assert!(summary.contains("events recorded"));
        assert!(summary.contains("latency (ns, log-bucketed):"));
        // Evidence is self-describing: the selected kernel tier is named,
        // and every traced rank carries the one-shot provenance event.
        let tier = litempi_simd::active();
        assert!(summary.contains(&format!("kernel tier: {}", tier.name())));
        for t in &out {
            let ev = t
                .events
                .iter()
                .find(|e| e.kind == litempi_trace::EventKind::KernelTier)
                .expect("KernelTier event recorded at startup");
            assert_eq!(ev.a, tier.id());
            assert_eq!(ev.b, litempi_simd::active_clmul() as u64);
        }
    }

    #[test]
    fn isend_rate_reports_paper_instruction_count() {
        let out = Universe::run_default(2, |proc| {
            let world = proc.world();
            isend_rate(&proc, &world, 100, 16).unwrap()
        });
        let r = out[0].unwrap();
        assert_eq!(r.ops, 100);
        assert!(r.wall_rate > 0.0);
        // Default ch4 build: 221 instructions per isend, exactly.
        assert!((r.instr_per_op - 221.0).abs() < 1e-9, "{}", r.instr_per_op);
        // Pooled pipeline: even a cold pool (2 allocs per miss) beats the
        // legacy path's 3 staged allocations per eager message.
        assert!(r.allocs_per_op < 3.0, "{}", r.allocs_per_op);
        // Perfect fabric: the reliability protocol charges nothing.
        assert_eq!(r.relia_per_op, 0.0);
        assert!(out[1].is_none());
    }

    #[test]
    fn reliable_transport_shows_per_message_overhead() {
        let out = Universe::run(
            2,
            BuildConfig::ch4_default(),
            ProviderProfile::infinite().reliable(),
            Topology::single_node(2),
            |proc| {
                let world = proc.world();
                isend_rate(&proc, &world, 100, 16).unwrap()
            },
        );
        let r = out[0].unwrap();
        // The software reliability protocol (seq/ack/retransmit + CRC) now
        // costs real instructions on every message...
        assert!(r.relia_per_op > 0.0, "{}", r.relia_per_op);
        // ...and they show up in the injection total on top of the default
        // build's exact 221-instruction path.
        assert!(r.instr_per_op > 221.0, "{}", r.instr_per_op);
    }

    #[test]
    fn nbc_overlap_charges_schedule_only_in_nonblocking_condition() {
        // `Category::Schedule` prices deferred execution. The blocking
        // collectives — all fourteen — run the same compiled schedules
        // inline and charge none of it, flat algorithms (one node) or
        // node-aware (two).
        use litempi_core::{CartComm, Op};
        for topo in [Topology::single_node(4), Topology::blocked(4, 2)] {
            let blocking_sched = Universe::run(
                4,
                BuildConfig::ch4_default(),
                ProviderProfile::infinite(),
                topo,
                |proc| {
                    let world = proc.world();
                    let ring = CartComm::create(&world, &[4], &[true]).unwrap().unwrap();
                    counter::reset();
                    let probe = counter::probe();
                    world.barrier().unwrap();
                    world.bcast(&mut [7u64, 8], 1).unwrap();
                    world.reduce(&[1u64, 2], &Op::Sum, 2).unwrap();
                    world.allreduce(&[1u64, 2], &Op::Sum).unwrap();
                    world.allgather(&[1u64, 2]).unwrap();
                    world.alltoall(&[1u64; 8], 2).unwrap();
                    world.gather(&[1u64, 2], 1).unwrap();
                    world.gatherv(&[1u64, 2][..proc.rank() % 2], 1).unwrap();
                    let dealt = (proc.rank() == 1).then_some([1u64; 8]);
                    let dealt = dealt.as_ref().map(|d| &d[..]);
                    world.scatter(dealt, 2, 1).unwrap();
                    world.scan(&[1u64, 2], &Op::Sum).unwrap();
                    world.exscan(&[1u64, 2], &Op::Sum).unwrap();
                    world.reduce_scatter_block(&[1u64; 8], &Op::Sum).unwrap();
                    ring.neighbor_allgather(&[1u64, 2]).unwrap();
                    ring.neighbor_alltoall(&[1u64, 2], 1).unwrap();
                    probe.finish().get(Category::Schedule)
                },
            );
            assert_eq!(
                blocking_sched, [0; 4],
                "blocking path must not charge Schedule"
            );
        }
        let out = Universe::run_default(2, |proc| {
            nbc_overlap(&proc.world(), 256, 4, 20_000).unwrap()
        });
        let r = out[0].unwrap();
        // The overlapped condition runs real schedules: builds, vertex
        // issues/completions, and phase advances all charged.
        assert!(r.sched_instr > 0, "{}", r.sched_instr);
        assert!((0.0..=1.0).contains(&r.overlap_fraction));
        assert!(r.comm_alone > 0.0 && r.compute_alone > 0.0 && r.overlapped > 0.0);
        assert!((r.serial - (r.comm_alone + r.compute_alone)).abs() < 1e-12);
        let line = render_overlap("overlap", &r);
        assert!(line.contains("schedule instr"));
        assert!(out[1].is_none());
    }

    /// Multithreaded injectors: the paper-calibrated per-op injection cost
    /// is unchanged per thread, the modeled critical-path rate scales with
    /// the shard count, and the contention counters see the single-lock
    /// collapse only in the unsharded configuration.
    #[test]
    fn mt_injectors_scale_modeled_rate_with_vcis() {
        let run = |n_vcis: usize| {
            Universe::run(
                2,
                BuildConfig::ch4_thread_multiple(),
                ProviderProfile::infinite().with_vcis(n_vcis),
                Topology::single_node(2),
                |proc| {
                    let world = proc.world();
                    isend_rate_mt(&proc, &world, 50, 8, 4).unwrap()
                },
            )
        };
        let sharded = run(4)[0].unwrap();
        let single = run(1)[0].unwrap();
        for r in [&single, &sharded] {
            assert_eq!(r.ops, 200);
            // Per-thread injection path is the calibrated 221 regardless of
            // sharding: VCI bookkeeping lives outside the injection totals.
            assert!((r.instr_per_op - 221.0).abs() < 1e-9, "{}", r.instr_per_op);
        }
        let (s1, s4) = (single.vci.unwrap(), sharded.vci.unwrap());
        assert_eq!(s1.threads, 4);
        assert_eq!(s4.threads, 4);
        // `LITEMPI_VCIS` overrides the profile (the CI matrix leans on
        // that), so gate each half on the count the fabric really resolved.
        if s1.n_vcis == 1 {
            // Unsharded: no per-VCI accounting, serialized critical path.
            assert!(s1.acquires.iter().all(|&c| c == 0));
        }
        if s4.n_vcis == 4 {
            // Four dup'd comms land on four distinct shards; every op
            // acquires its own VCI's critical section.
            assert!(s4.acquires.iter().filter(|&&c| c > 0).count() >= 4);
        }
        if s1.n_vcis == 1 && s4.n_vcis == 4 {
            let speedup = s4.modeled_rate / s1.modeled_rate;
            assert!(
                speedup >= 2.5,
                "4 VCIs should scale the modeled rate, got {speedup:.2}x"
            );
        }
        let line = render_report("isend_mt", &sharded, &[]);
        assert!(line.contains("vci:"), "{line}");
        assert!(line.contains("injector thread(s)"), "{line}");
    }

    #[test]
    fn put_rate_reports_paper_instruction_count() {
        let out = Universe::run_default(2, |proc| {
            let world = proc.world();
            put_rate(&proc, &world, 50).unwrap()
        });
        let r = out[0].unwrap();
        assert!((r.instr_per_op - 215.0).abs() < 1e-9, "{}", r.instr_per_op);
    }

    #[test]
    fn optimized_build_is_cheaper_per_op() {
        let per_op = |config: BuildConfig| {
            let out = Universe::run(
                2,
                config,
                ProviderProfile::infinite(),
                Topology::single_node(2),
                |proc| {
                    let world = proc.world();
                    isend_rate(&proc, &world, 64, 8).unwrap()
                },
            );
            out[0].unwrap().instr_per_op
        };
        let default = per_op(BuildConfig::ch4_default());
        let ipo = per_op(BuildConfig::ch4_no_err_single_ipo());
        let original = per_op(BuildConfig::original());
        assert_eq!(default, 221.0);
        assert_eq!(ipo, 59.0);
        assert_eq!(original, 253.0);
    }
}
