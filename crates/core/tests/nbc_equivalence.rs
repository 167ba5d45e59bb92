//! The blocking and the nonblocking entry point of a collective run one
//! compiled schedule, so on the same inputs both must produce the oracle's
//! bytes (`common`) on every rank — on the clean fabric, on reliable links
//! whose reorder stash lets sources overtake each other, and under packet
//! chaos on the reliable transport. Completion style (wait immediately, test-poll loop,
//! out-of-order waits, split + combinators) must not change results
//! either. The collectives that have no nonblocking form are held to the
//! same oracle in the same sweep.

mod common;

use common::{bits, check_blocking_only, fold, gathered, transposed};
use litempi_core::{BuildConfig, CollRequest, Op, Universe};
use litempi_fabric::{FaultPlan, FaultSpec, ProviderProfile, Topology};
use proptest::prelude::*;

/// How a test drives an NBC request to completion.
#[derive(Clone, Copy)]
enum Mode {
    /// `wait()` right away (still overlappable: phase 0 issued at call).
    WaitNow,
    /// Spin on `test()` until it reports completion, then redeem.
    PollLoop,
}

fn finish<T>(req: CollRequest<T>, mode: Mode) -> T {
    match mode {
        Mode::WaitNow => req.wait().unwrap(),
        Mode::PollLoop => {
            let mut req = req;
            while !req.test().unwrap() {
                std::thread::yield_now();
            }
            req.wait().unwrap()
        }
    }
}

/// Run every collective through both entry points on one communicator and
/// hold each result to the oracle. Sequential blocking/nonblocking calls
/// advance the collective tag identically on every rank, so the two
/// families can interleave freely on the same communicator.
fn check_all_ops(proc: &litempi_core::Process, len: usize, root: usize, mode: Mode) {
    let world = proc.world();
    let rank = world.rank();
    let n = world.size();
    let data = |r: usize| -> Vec<u64> { (0..len as u64).map(|i| r as u64 * 1000 + i).collect() };
    let mine = data(rank);

    world.barrier().unwrap();
    finish(world.ibarrier().unwrap(), mode);

    let mut buf = mine.clone();
    world.bcast(&mut buf, root).unwrap();
    assert_eq!(buf, data(root), "bcast");
    assert_eq!(finish(world.ibcast(&mine, root).unwrap(), mode), data(root));

    let sum = fold(n, data, |a, b| a + b);
    let at_root = (rank == root).then(|| sum.clone());
    assert_eq!(world.reduce(&mine, &Op::Sum, root).unwrap(), at_root);
    let nbc = world.ireduce(&mine, &Op::Sum, root).unwrap();
    assert_eq!(finish(nbc, mode), at_root);

    assert_eq!(world.allreduce(&mine, &Op::Sum).unwrap(), sum);
    let nbc = world.iallreduce(&mine, &Op::Sum).unwrap();
    assert_eq!(finish(nbc, mode), sum);

    let all = gathered(n, data);
    assert_eq!(world.allgather(&mine).unwrap(), all);
    assert_eq!(finish(world.iallgather(&mine).unwrap(), mode), all);

    let a2a = |r: usize| -> Vec<u64> {
        (0..(len * n) as u64)
            .map(|i| r as u64 * 100_000 + i)
            .collect()
    };
    let transpose = transposed(n, rank, len, a2a);
    assert_eq!(world.alltoall(&a2a(rank), len).unwrap(), transpose);
    let nbc = world.ialltoall(&a2a(rank), len).unwrap();
    assert_eq!(finish(nbc, mode), transpose);

    // Floating point is sensitive to reduction *order*, not just operand
    // sets. The order is fixed when the schedule is compiled, never by
    // arrival, so inexact sums repeat bit for bit from run to run and
    // across the two entry points...
    let inexact: Vec<f64> = (0..len)
        .map(|i| (rank + 1) as f64 * 0.1 + i as f64 * 1e-7)
        .collect();
    let first = bits(&world.allreduce(&inexact, &Op::Sum).unwrap());
    assert_eq!(bits(&world.allreduce(&inexact, &Op::Sum).unwrap()), first);
    for _ in 0..2 {
        let nbc = world.iallreduce(&inexact, &Op::Sum).unwrap();
        assert_eq!(
            bits(&finish(nbc, mode)),
            first,
            "fp reduction order diverged"
        );
    }
    // ...and on exactly representable values any order gives the oracle's.
    let exact = |r: usize| -> Vec<f64> { data(r).iter().map(|&v| v as f64).collect() };
    let want = bits(&fold(n, exact, |a, b| a + b));
    assert_eq!(
        bits(&world.allreduce(&exact(rank), &Op::Sum).unwrap()),
        want
    );
    let nbc = world.iallreduce(&exact(rank), &Op::Sum).unwrap();
    assert_eq!(bits(&finish(nbc, mode)), want);

    // The collectives with a blocking entry point only.
    check_blocking_only(proc, len, &[root]);
}

#[test]
fn both_entry_points_match_the_oracle_at_all_sizes() {
    // 2 and 4 exercise the power-of-two paths (recursive doubling), 3 the
    // non-power-of-two ones (ring allgather, reduce+bcast allreduce), 1
    // the trivial early-outs.
    for n in [1usize, 2, 3, 4] {
        Universe::run_default(n, move |proc| {
            check_all_ops(&proc, 8, n - 1, Mode::WaitNow);
        });
    }
}

#[test]
fn both_entry_points_match_the_oracle_under_reorder() {
    let profile = ProviderProfile::infinite()
        .with_faults(FaultPlan::uniform(0xBEEF, FaultSpec::percent(0, 0, 30, 0)))
        .reliable();
    for n in [3usize, 4] {
        let p = profile;
        Universe::run(
            n,
            BuildConfig::ch4_default(),
            p,
            Topology::single_node(n),
            |proc| {
                check_all_ops(&proc, 8, 0, Mode::PollLoop);
            },
        );
    }
}

#[test]
fn both_entry_points_match_the_oracle_under_chaos() {
    // Same fixed seeds and fault mix the reliability chaos tests pin.
    for seed in [0xC0FFEE_u64, 0x5EED] {
        let plan = FaultPlan::uniform(seed, FaultSpec::percent(20, 10, 30, 0));
        for n in [3usize, 4] {
            let profile = ProviderProfile::ofi().with_faults(plan).reliable();
            Universe::run(
                n,
                BuildConfig::ch4_default(),
                profile,
                Topology::single_node(n),
                |proc| {
                    check_all_ops(&proc, 8, 0, Mode::WaitNow);
                },
            );
        }
    }
}

#[test]
fn nbc_large_payload_takes_rendezvous_path() {
    // 10_000 u64 = 80 KB per message, far past every profile's eager
    // ceiling, so schedule sends go RTS/rendezvous.
    Universe::run_default(2, |proc| {
        let world = proc.world();
        let rank = world.rank();
        let data =
            |r: usize| -> Vec<u64> { (0..10_000u64).map(|i| r as u64 * 1_000_000 + i).collect() };
        let mine = data(rank);
        let mut buf = mine.clone();
        world.bcast(&mut buf, 0).unwrap();
        assert_eq!(buf, data(0));
        assert_eq!(world.ibcast(&mine, 0).unwrap().wait().unwrap(), data(0));
        let max = fold(2, data, u64::max);
        assert_eq!(world.allreduce(&mine, &Op::Max).unwrap(), max);
        let nbc = world.iallreduce(&mine, &Op::Max).unwrap();
        assert_eq!(nbc.wait().unwrap(), max);
    });
}

#[test]
fn long_bcast_matches_the_root_buffer_through_both_entry_points() {
    // 40 KiB on 5 ranks and 64 KiB on 8 are past the long-message
    // threshold and divide into a block per rank: scatter, then the ring
    // allgather (5) or recursive doubling (8). One byte more does not
    // divide and stays on the binomial tree. `ibcast` compiles the same
    // schedule.
    for (n, len) in [
        (5, 40 << 10),
        (5, (40 << 10) + 1),
        (8, 64 << 10),
        (8, (64 << 10) + 1),
    ] {
        for root in [0, n - 1] {
            Universe::run_default(n, move |proc| {
                let world = proc.world();
                let payload =
                    |r: usize| -> Vec<u8> { (0..len).map(|i| (i * 7 + r) as u8).collect() };
                let mut buf = payload(world.rank());
                world.bcast(&mut buf, root).unwrap();
                assert!(buf == payload(root), "bcast n={n} len={len} root={root}");
                let nbc = world.ibcast(&payload(world.rank()), root).unwrap();
                assert!(
                    nbc.wait().unwrap() == payload(root),
                    "ibcast n={n} len={len} root={root}"
                );
            });
        }
    }
}

#[test]
fn every_collective_traces_one_span_of_schedule_phases() {
    // With tracing on, each of the fourteen collectives is one
    // `CollBegin` … `CollEnd` span holding at least one
    // `SchedPhaseBegin`/`SchedPhaseComplete` pair and no other span — a
    // long bcast included, which used to nest scatter's and allgather's
    // spans inside its own. Four ranks, rooted at 1: every rank sends or
    // receives in every one of them.
    use litempi_core::CartComm;
    use litempi_trace::{event::coll_op as id, EventKind};
    let expected = [
        id::BARRIER,
        id::BCAST,
        id::BCAST,
        id::REDUCE,
        id::ALLREDUCE,
        id::ALLGATHER,
        id::ALLTOALL,
        id::GATHER,
        id::GATHER,
        id::SCATTER,
        id::SCAN,
        id::SCAN,
        id::REDUCE_SCATTER,
        id::NEIGHBOR_ALLGATHER,
        id::NEIGHBOR_ALLTOALL,
    ];
    let traces = Universe::run(
        4,
        BuildConfig::ch4_default(),
        ProviderProfile::infinite().traced(),
        Topology::single_node(4),
        |proc| {
            let world = proc.world();
            let ring = CartComm::create(&world, &[4], &[true]).unwrap().unwrap();
            let mine = [world.rank() as u64, 1];
            world.barrier().unwrap();
            world.bcast(&mut [0u64; 2], 1).unwrap();
            world.bcast(&mut vec![0u64; 6 << 10], 1).unwrap();
            world.reduce(&mine, &Op::Sum, 1).unwrap();
            world.allreduce(&mine, &Op::Sum).unwrap();
            world.allgather(&mine).unwrap();
            world.alltoall(&[0u64; 8], 2).unwrap();
            world.gather(&mine, 1).unwrap();
            world.gatherv(&mine[..world.rank() % 2 + 1], 1).unwrap();
            let dealt = (world.rank() == 1).then_some([0u64; 8]);
            let dealt = dealt.as_ref().map(|d| &d[..]);
            world.scatter(dealt, 2, 1).unwrap();
            world.scan(&mine, &Op::Sum).unwrap();
            world.exscan(&mine, &Op::Sum).unwrap();
            world.reduce_scatter_block(&[1u64; 8], &Op::Sum).unwrap();
            ring.neighbor_allgather(&mine).unwrap();
            ring.neighbor_alltoall(&mine, 1).unwrap();
            litempi_trace::drain().expect("tracing was enabled")
        },
    );
    for t in traces {
        assert_eq!(t.dropped, 0);
        // Each span as (op, phases completed inside it).
        let mut spans: Vec<(u64, usize)> = Vec::new();
        let mut open: Option<(u64, usize)> = None;
        let mut phase: Option<u64> = None;
        for ev in &t.events {
            match ev.kind {
                EventKind::CollBegin => {
                    assert!(open.is_none(), "rank {}: a span inside a span", t.rank);
                    open = Some((ev.a, 0));
                }
                EventKind::SchedPhaseBegin => {
                    assert_eq!(open.map(|o| o.0), Some(ev.a), "phase outside its span");
                    assert!(phase.replace(ev.b).is_none(), "phases overlap");
                }
                EventKind::SchedPhaseComplete => {
                    assert_eq!(phase.take(), Some(ev.b), "phase closed out of turn");
                    open.as_mut().expect("phase outside a span").1 += 1;
                }
                EventKind::CollEnd => {
                    let span = open.take().expect("end without a begin");
                    assert_eq!((span.0, phase), (ev.a, None));
                    spans.push(span);
                }
                _ => {}
            }
        }
        assert!(open.is_none());
        // Before them: whatever set-up ran (`CartComm::create` is a split).
        let ours = &spans[spans.len() - expected.len()..];
        let ops: Vec<u64> = ours.iter().map(|s| s.0).collect();
        assert_eq!(ops, expected, "rank {}", t.rank);
        assert!(ours.iter().all(|s| s.1 >= 1), "rank {}: {ours:?}", t.rank);
    }
}

#[test]
fn nbc_out_of_order_wait() {
    // Two outstanding schedules per rank, completed in reverse issue
    // order. Distinct collective tags keep them independent, so the late
    // wait on the first must still deliver the right bytes.
    Universe::run_default(4, |proc| {
        let world = proc.world();
        let rank = world.rank();
        let data = |r: usize| -> Vec<u64> { (0..8u64).map(|i| r as u64 * 7 + i).collect() };
        let expect_red = fold(4, data, |a, b| a + b);
        let expect_gat = gathered(4, data);

        let red = world.iallreduce(&data(rank), &Op::Sum).unwrap();
        let gat = world.iallgather(&data(rank)).unwrap();
        // Second first.
        assert_eq!(gat.wait().unwrap(), expect_gat);
        assert_eq!(red.wait().unwrap(), expect_red);
    });
}

#[test]
fn nbc_split_drives_through_combinators() {
    // The Request half of a split CollRequest must be a first-class
    // citizen of waitall/waitsome; the CollOutput half redeems afterwards.
    Universe::run_default(4, |proc| {
        let world = proc.world();
        let rank = world.rank();
        let contrib = |r: usize| -> Vec<u64> { (0..6u64).map(|i| r as u64 * 31 + i).collect() };
        let data = contrib(rank);
        let expect_red = fold(4, contrib, |a, b| a + b);
        let expect_gat = gathered(4, contrib);

        let (r1, o1) = world.iallreduce(&data, &Op::Sum).unwrap().split();
        let (r2, o2) = world.iallgather(&data).unwrap().split();
        let (r3, o3) = world.ibarrier().unwrap().split();
        litempi_core::waitall(vec![r1, r2, r3]).unwrap();
        assert_eq!(o1.take().unwrap(), expect_red);
        assert_eq!(o2.take().unwrap(), expect_gat);
        o3.take().unwrap();

        // waitsome drains a mixed batch too.
        let (r1, o1) = world.iallreduce(&data, &Op::Max).unwrap().split();
        let (r2, o2) = world.ibarrier().unwrap().split();
        let mut reqs = vec![r1, r2];
        let mut completions = 0;
        while !reqs.is_empty() {
            completions += litempi_core::waitsome(&mut reqs).unwrap().len();
        }
        assert_eq!(completions, 2);
        assert_eq!(o1.take().unwrap(), fold(4, contrib, u64::max));
        o2.take().unwrap();
    });
}

#[test]
fn coll_output_before_completion_is_invalid_request() {
    Universe::run_default(2, |proc| {
        let world = proc.world();
        let data = [proc.rank() as u64];
        let (req, out) = world.iallreduce(&data, &Op::Sum).unwrap().split();
        if !req.is_done() {
            // Redeeming early must error rather than hand back garbage.
            let e = out.take().unwrap_err();
            assert!(matches!(e, litempi_core::MpiError::InvalidRequest(_)));
            req.wait().unwrap();
        } else {
            // Tiny schedules can finish at issue on a fast fabric; then
            // redemption succeeds immediately.
            req.wait().unwrap();
            out.take().unwrap();
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random sizes, payload lengths, roots, and reorder seeds: both entry
    /// points of every collective stay on the oracle.
    #[test]
    fn nbc_equivalence_randomized(
        n in 2usize..=4,
        len in 1usize..24,
        root_pick in 0usize..4,
        reorder in proptest::option::of(any::<u64>()),
    ) {
        let root = root_pick % n;
        let mut profile = ProviderProfile::infinite();
        if let Some(seed) = reorder {
            let plan = FaultPlan::uniform(seed, FaultSpec::percent(0, 0, 30, 0));
            profile = profile.with_faults(plan).reliable();
        }
        Universe::run(
            n,
            BuildConfig::ch4_default(),
            profile,
            Topology::single_node(n),
            move |proc| {
                check_all_ops(&proc, len, root, Mode::WaitNow);
            },
        );
    }

    /// Chaos with random fixed seeds on the reliable transport: lossy,
    /// duplicating, reordering links must not change collective results.
    #[test]
    fn nbc_equivalence_under_chaos_randomized(seed in any::<u64>()) {
        let plan = FaultPlan::uniform(seed, FaultSpec::percent(20, 10, 30, 0));
        let profile = ProviderProfile::ofi().with_faults(plan).reliable();
        Universe::run(
            3,
            BuildConfig::ch4_default(),
            profile,
            Topology::single_node(3),
            |proc| {
                check_all_ops(&proc, 5, 1, Mode::PollLoop);
            },
        );
    }
}
