//! Ranks as user-level tasks on one worker thread.
//!
//! Every test here pins its own thread to one CPU first, so
//! `Universe::run` derives one worker for an `MPI_THREAD_SINGLE` job and
//! every rank of the job runs on that one thread, switching at its waits.
//! Nothing else selects the worker count.

use litempi_core::{
    testall, testany, BuildConfig, Communicator, LockType, Op, Process, Universe, Window,
    ANY_SOURCE,
};
use litempi_fabric::{ProviderProfile, Topology};
use litempi_instr::{counter, Category, Report};
use litempi_trace::EventKind;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

#[path = "common/one_cpu.rs"]
mod one_cpu;

use one_cpu::one_cpu;

fn run<T: Send>(
    n: usize,
    profile: ProviderProfile,
    f: impl Fn(Process) -> T + Send + Sync,
) -> Vec<T> {
    Universe::run(
        n,
        BuildConfig::ch4_default(),
        profile,
        Topology::single_node(n),
        f,
    )
}

// ------------------------------------------------------------ (a) pins

/// The instructions `op` charges on rank 0 of a 4-rank job on one worker.
fn charged(op: impl Fn(&Communicator, &Window) + Send + Sync) -> Report {
    let out = run(4, ProviderProfile::infinite(), |proc| {
        let world = proc.world();
        let win = Window::create(&world, 64, 1).unwrap();
        win.fence().unwrap();
        let report = (proc.rank() == 0).then(|| {
            counter::reset();
            let probe = counter::probe();
            op(&world, &win);
            probe.finish()
        });
        if proc.rank() == 1 {
            // Rank 0's one send, if it made one, arrives during the fence.
            let _ = world.iprobe(0, 0).unwrap();
        }
        win.fence().unwrap();
        if proc.rank() == 1 && world.iprobe(0, 0).unwrap().is_some() {
            world.recv_into(&mut [0u8], 0, 0).unwrap();
        }
        world.barrier().unwrap();
        report
    });
    out.into_iter().flatten().next().expect("rank 0 reports")
}

#[test]
fn instruction_pins_hold_with_four_ranks_on_one_worker() {
    let _cpu = one_cpu();
    let isend = charged(|world, _| drop(world.isend(&[1u8], 1, 0).unwrap().wait()));
    assert_eq!(isend.injection_total(), 221, "MPI_ISEND");
    let put = charged(|_, win| win.put(&[1u8, 2, 3], 1, 0).unwrap());
    assert_eq!(put.injection_total(), 215, "MPI_PUT");
}

/// Messages and instructions of one call of each collective, summed over 4
/// ranks on one worker: `collective_call_costs_are_pinned`'s 4-rank rows.
#[test]
fn collective_call_costs_hold_on_one_worker() {
    let _cpu = one_cpu();
    type Call = fn(&Communicator);
    let calls: [(&str, Call); 9] = [
        ("gather", |w| drop(w.gather(&[1u64, 2], 1).unwrap())),
        ("gatherv", |w| {
            drop(w.gatherv(&vec![7u32; w.rank() + 1], 1).unwrap())
        }),
        ("scatter", |w| {
            let send = vec![3u64; 2 * w.size()];
            drop(
                w.scatter((w.rank() == 1).then_some(&send[..]), 2, 1)
                    .unwrap(),
            )
        }),
        ("scan", |w| drop(w.scan(&[1u64, 2], &Op::Sum).unwrap())),
        ("exscan", |w| drop(w.exscan(&[1u64, 2], &Op::Sum).unwrap())),
        ("reduce_scatter_block", |w| {
            let send = vec![1u64; 2 * w.size()];
            drop(w.reduce_scatter_block(&send, &Op::Sum).unwrap())
        }),
        ("bcast 64 B", |w| w.bcast(&mut [5u64; 8], 1).unwrap()),
        ("bcast 48 KiB", |w| {
            w.bcast(&mut vec![5u64; 6 * 1024], 1).unwrap()
        }),
        ("allgather", |w| drop(w.allgather(&[1u64, 2]).unwrap())),
    ];
    let pins: [(usize, [u64; 9]); 2] = [
        (4, [3, 3, 3, 3, 3, 12, 3, 11, 8]),
        (2, [3, 3, 3, 3, 3, 12, 3, 3, 8]),
    ];
    for (rpn, want) in pins {
        let per_rank = Universe::run(
            4,
            BuildConfig::ch4_default(),
            ProviderProfile::infinite(),
            Topology::blocked(4, rpn),
            |proc| {
                let world = proc.world();
                let costs: Vec<(u64, Report)> = (calls.iter())
                    .map(|(_, call)| {
                        world.barrier().unwrap();
                        let before = proc.comm_stats().msgs_sent;
                        let probe = counter::probe();
                        call(&world);
                        (proc.comm_stats().msgs_sent - before, probe.finish())
                    })
                    .collect();
                world.barrier().unwrap();
                costs
            },
        );
        for (i, ((name, _), want)) in calls.iter().zip(want).enumerate() {
            let msgs: u64 = per_rank.iter().map(|r| r[i].0).sum();
            let netmod: u64 = (per_rank.iter())
                .map(|r| r[i].1.get(Category::NetmodIssue))
                .sum();
            assert_eq!((msgs, netmod), (want, 23 * want), "{name}, {rpn} per node");
        }
    }
}

// ----------------------------------------------------- (b) determinism

/// Every rank's trace events, timestamps left out.
fn traced_job() -> Vec<Vec<(EventKind, u64, u64)>> {
    run(4, ProviderProfile::ofi().traced(), |proc| {
        let world = proc.world();
        let (me, n) = (world.rank(), world.size());
        let right = ((me + 1) % n) as i32;
        let left = ((me + n - 1) % n) as i32;
        for round in 0..8u64 {
            let mut got = [0u64; 4];
            let recv = world.irecv(&mut got, left, 1).unwrap();
            world.send(&[round; 4], right, 1).unwrap();
            recv.wait().unwrap();
            world.allreduce(&[round, me as u64], &Op::Sum).unwrap();
            world.bcast(&mut [round; 16], (round % 4) as usize).unwrap();
        }
        let mut big = vec![me as u8; 64 * 1024];
        if me == 0 {
            world.send(&big, 1, 2).unwrap();
        } else if me == 1 {
            world.recv_into(&mut big, 0, 2).unwrap();
        }
        let win = Window::create(&world, 64, 1).unwrap();
        world.barrier().unwrap();
        let target = (me + 2) % n;
        win.lock(LockType::Exclusive, target).unwrap();
        win.put(&[me as u8; 8], target as i32, 0).unwrap();
        win.unlock(target).unwrap();
        world.barrier().unwrap();
        drop(win);
        let trace = litempi_trace::drain().expect("traced");
        (trace.events.iter())
            .map(|e| (e.kind, e.a, e.b))
            .collect::<Vec<_>>()
    })
}

#[test]
fn one_seed_on_one_worker_gives_one_event_sequence() {
    let _cpu = one_cpu();
    let first = traced_job();
    let second = traced_job();
    assert!(first.iter().all(|events| events.len() > 20));
    for (rank, (a, b)) in first.iter().zip(&second).enumerate() {
        assert_eq!(a, b, "rank {rank}'s events differ between two runs");
    }
}

// --------------------------------------------------- (c) polling loops

/// A user's polling loop — no yield of its own — completes when every rank
/// shares one thread: each "not yet" lets the peer run.
#[test]
fn polling_loops_complete_on_one_worker() {
    let _cpu = one_cpu();
    run(2, ProviderProfile::infinite(), |proc| {
        let world = proc.world();
        let peer = 1 - world.rank() as i32;
        // The receiver polls first, so every loop spins at least once.
        let spin_first = world.rank() == 0;

        // test
        let mut got = [0u32];
        if spin_first {
            let mut req = world.irecv(&mut got, peer, 1).unwrap();
            while req.test().unwrap().is_none() {}
        } else {
            world.send(&[7u32], peer, 1).unwrap();
        }

        // testany and testall
        let mut a = [0u32];
        let mut b = [0u32];
        if spin_first {
            let mut reqs = vec![world.irecv(&mut a, peer, 2).unwrap()];
            while testany(&mut reqs).unwrap().is_none() {}
            let mut reqs = vec![world.irecv(&mut b, peer, 3).unwrap()];
            while testall(&mut reqs).unwrap().is_none() {}
        } else {
            world.send(&[1u32], peer, 2).unwrap();
            world.send(&[2u32], peer, 3).unwrap();
        }

        // iprobe
        if spin_first {
            while world.iprobe(ANY_SOURCE, 4).unwrap().is_none() {}
            world.recv_into(&mut [0u32], peer, 4).unwrap();
        } else {
            world.send(&[3u32], peer, 4).unwrap();
        }

        // CollRequest::test
        let mut req = world.iallreduce(&[1u64], &Op::Sum).unwrap();
        while !req.test().unwrap() {}
        assert_eq!(req.wait().unwrap(), vec![2]);

        if spin_first {
            assert_eq!((got, a, b), ([7], [1], [2]));
        }
    });
    // rget's test on the active-message path: the answer needs the
    // target's progress, which only runs when the origin's loop yields.
    run(2, ProviderProfile::am_only(), |proc| {
        let world = proc.world();
        let win = Window::create(&world, 8, 1).unwrap();
        win.fence().unwrap();
        if world.rank() == 1 {
            win.put(&[9u8; 8], 1, 0).unwrap();
        }
        win.fence().unwrap();
        if world.rank() == 0 {
            win.lock(LockType::Shared, 1).unwrap();
            let mut buf = [0u8; 8];
            let mut req = win.rget(&mut buf, 1, 0).unwrap();
            while req.test().unwrap().is_none() {}
            drop(req);
            win.unlock(1).unwrap();
            assert_eq!(buf, [9; 8]);
        }
        world.barrier().unwrap();
    });
}

// ------------------------------------------------------------ (d) panic

/// A 4-rank job on one worker whose rank 2 panics while its peers wait on
/// it comes down with that panic, and soon.
fn expect_abort_by_rank_2(f: impl Fn(Process) + Send + Sync) {
    let _cpu = one_cpu();
    let t0 = Instant::now();
    let panic = catch_unwind(AssertUnwindSafe(|| {
        run(4, ProviderProfile::infinite(), f);
    }))
    .expect_err("the job must not survive a panicking rank");
    assert_eq!(panic.downcast_ref::<&str>(), Some(&"rank 2 exploded"));
    assert!(t0.elapsed() < Duration::from_secs(2), "hung");
}

#[test]
fn a_panicking_task_aborts_peers_parked_in_a_barrier() {
    expect_abort_by_rank_2(|proc| {
        if proc.rank() == 2 {
            // Let the others reach the barrier first.
            for _ in 0..16 {
                let _ = proc.world().iprobe(ANY_SOURCE, 0);
            }
            panic!("rank 2 exploded");
        }
        proc.world().barrier().unwrap();
    });
}

#[test]
fn a_panicking_task_aborts_a_peer_waiting_for_its_lock() {
    expect_abort_by_rank_2(|proc| {
        let world = proc.world();
        let win = Window::create(&world, 8, 1).unwrap();
        if proc.rank() == 2 {
            win.lock(LockType::Exclusive, 1).unwrap();
        }
        world.barrier().unwrap();
        match proc.rank() {
            0 => win.lock(LockType::Exclusive, 1).unwrap(),
            2 => {
                for _ in 0..16 {
                    let _ = world.iprobe(ANY_SOURCE, 0);
                }
                panic!("rank 2 exploded");
            }
            _ => {}
        }
        world.barrier().unwrap();
    });
}

// -------------------------------------------------------- idle workers

/// Ranks on one worker that wait only for each other's messages never
/// sleep out a park time-out: somebody is always runnable.
#[test]
fn message_waits_on_one_worker_never_time_out() {
    let _cpu = one_cpu();
    let counters = |proc: &Process| {
        let s = proc.comm_stats();
        (s.park_timeouts, s.task_switches)
    };
    let pingpong = run(2, ProviderProfile::infinite(), |proc| {
        let world = proc.world();
        let peer = 1 - world.rank() as i32;
        let mut got = [0u64];
        for i in 0..2000u64 {
            if world.rank() == 0 {
                world.send(&[i], peer, 0).unwrap();
                world.recv_into(&mut got, peer, 0).unwrap();
            } else {
                world.recv_into(&mut got, peer, 0).unwrap();
                world.send(&got, peer, 0).unwrap();
            }
        }
        counters(&proc)
    });
    let allreduce = run(8, ProviderProfile::infinite(), |proc| {
        let world = proc.world();
        for i in 0..500u64 {
            let sum = world.allreduce(&[i], &Op::Sum).unwrap();
            assert_eq!(sum, [8 * i]);
        }
        counters(&proc)
    });
    for (job, out) in [("ping-pong", pingpong), ("allreduce", allreduce)] {
        let timeouts: u64 = out.iter().map(|c| c.0).sum();
        assert_eq!(timeouts, 0, "{job}: park time-outs");
        assert!(out.iter().all(|c| c.1 > 0), "{job}: every rank switched");
    }
}
