//! Integration tests reproducing the paper's instruction-count results
//! from the *actual executed code paths* (Table 1, Figure 2, and the §3
//! per-proposal savings). These are the load-bearing numbers of the
//! reproduction: if a code path stops executing (or double-charges), these
//! tests fail.

use litempi_core::{
    BuildConfig, Communicator, LockType, Op, PredefHandle, Process, Universe, Window,
};
use litempi_fabric::{ProviderProfile, Topology};
use litempi_instr::{counter, Category, Report};

/// Run a 2-rank universe and measure the instructions charged by `op` on
/// rank 0's injection path. Rank 1 drains matching receives afterwards.
fn measure_isend(config: BuildConfig, op: impl Fn(&Communicator) + Send + Sync) -> Report {
    let reports = Universe::run(
        2,
        config,
        ProviderProfile::infinite(),
        Topology::single_node(2),
        |proc| {
            let world = proc.world();
            if proc.rank() == 0 {
                counter::reset();
                let probe = counter::probe();
                op(&world);
                let report = probe.finish();
                // Let rank 1 receive whatever `op` sent.
                world.barrier().unwrap();
                Some(report)
            } else {
                let mut buf = [0u8; 64];
                // Drain exactly one message of any kind (classic or
                // nomatch) — `op` sends exactly one.
                let classic =
                    world.irecv(&mut buf, litempi_core::ANY_SOURCE, litempi_core::ANY_TAG);
                let req = classic.unwrap();
                // Nomatch messages don't match the wildcard (reserved src
                // bits differ) — so also post a nomatch receive and accept
                // whichever completes, cancelling the other.
                let mut buf2 = [0u8; 64];
                let nreq = world.irecv_nomatch(&mut buf2).unwrap();
                let mut a = req;
                let mut b = nreq;
                loop {
                    if a.test().unwrap().is_some() {
                        b.cancel();
                        break;
                    }
                    if b.test().unwrap().is_some() {
                        a.cancel();
                        break;
                    }
                    std::thread::yield_now();
                }
                world.barrier().unwrap();
                None
            }
        },
    );
    reports
        .into_iter()
        .flatten()
        .next()
        .expect("rank 0 produced a report")
}

/// Measure one `op` against an established window (fence epoch already
/// open; counters reset after setup).
fn measure_put(config: BuildConfig, op: impl Fn(&Window) + Send + Sync) -> Report {
    let reports = Universe::run(
        2,
        config,
        ProviderProfile::infinite(),
        Topology::single_node(2),
        |proc| {
            let world = proc.world();
            let win = Window::create(&world, 256, 1).unwrap();
            win.fence().unwrap();
            let out = if proc.rank() == 0 {
                counter::reset();
                let probe = counter::probe();
                op(&win);
                Some(probe.finish())
            } else {
                None
            };
            win.fence().unwrap();
            out
        },
    );
    reports
        .into_iter()
        .flatten()
        .next()
        .expect("rank 0 produced a report")
}

fn send_one(world: &Communicator) {
    world.isend(&[1u8], 1, 0).unwrap().wait().unwrap();
}

// ------------------------------------------------------------- Table 1

#[test]
fn table1_isend_breakdown_matches_paper() {
    let r = measure_isend(BuildConfig::ch4_default(), send_one);
    assert_eq!(r.get(Category::ErrorChecking), 74);
    assert_eq!(r.get(Category::ThreadCheck), 6);
    assert_eq!(r.get(Category::FunctionCall), 23);
    assert_eq!(r.get(Category::RedundantChecks), 59);
    assert_eq!(r.mandatory_total(), 59);
    assert_eq!(r.injection_total(), 221, "paper Table 1: MPI_ISEND = 221");
}

#[test]
fn table1_put_breakdown_matches_paper() {
    let r = measure_put(BuildConfig::ch4_default(), |win| {
        win.put(&[1u8, 2, 3], 1, 0).unwrap();
    });
    assert_eq!(r.get(Category::ErrorChecking), 72);
    assert_eq!(r.get(Category::ThreadCheck), 14);
    assert_eq!(r.get(Category::FunctionCall), 25);
    assert_eq!(r.get(Category::RedundantChecks), 60);
    assert_eq!(r.mandatory_total(), 44);
    assert_eq!(r.injection_total(), 215, "paper Fig 2: MPI_PUT = 215");
}

// ------------------------------------------------------------- Figure 2

#[test]
fn fig2_isend_build_ladder() {
    let totals: Vec<u64> = BuildConfig::FIG2_LADDER
        .iter()
        .map(|(_, cfg)| measure_isend(*cfg, send_one).injection_total())
        .collect();
    assert_eq!(
        totals,
        vec![253, 221, 147, 141, 59],
        "paper Fig 2, MPI_ISEND bars"
    );
}

#[test]
fn fig2_put_build_ladder() {
    let totals: Vec<u64> = BuildConfig::FIG2_LADDER
        .iter()
        .map(|(_, cfg)| {
            measure_put(*cfg, |win| win.put(&[0u8; 8], 1, 0).unwrap()).injection_total()
        })
        .collect();
    assert_eq!(
        totals,
        vec![1342, 215, 143, 129, 44],
        "paper Fig 2, MPI_PUT bars"
    );
}

// ----------------------------------------------------- §3 extension savings

fn ipo() -> BuildConfig {
    BuildConfig::ch4_no_err_single_ipo()
}

#[test]
fn sec31_global_rank_saves_about_10() {
    let base = measure_isend(ipo(), send_one).injection_total();
    let global = measure_isend(ipo(), |w| {
        w.isend_global(&[1u8], 1, 0).unwrap().wait().unwrap();
    })
    .injection_total();
    assert_eq!(base, 59);
    assert_eq!(base - global, 10, "paper §3.1: ~10 instructions");
}

#[test]
fn sec33_predefined_comm_saves_8() {
    let reports = Universe::run(
        2,
        ipo(),
        ProviderProfile::infinite(),
        Topology::single_node(2),
        |proc: Process| {
            let world = proc.world();
            world.dup_predefined(PredefHandle::Comm1).unwrap();
            let pre = Communicator::predefined(&proc, PredefHandle::Comm1).unwrap();
            if proc.rank() == 0 {
                counter::reset();
                let probe = counter::probe();
                pre.isend(&[1u8], 1, 0).unwrap().wait().unwrap();
                let r = probe.finish();
                world.barrier().unwrap();
                Some(r.injection_total())
            } else {
                let mut buf = [0u8; 8];
                pre.recv_into(&mut buf, 0, 0).unwrap();
                world.barrier().unwrap();
                None
            }
        },
    );
    let total = reports.into_iter().flatten().next().unwrap();
    assert_eq!(59 - total, 8, "paper §3.3: 8 instructions");
}

#[test]
fn sec34_npn_saves_3() {
    let npn = measure_isend(ipo(), |w| {
        w.isend_npn(&[1u8], 1, 0).unwrap().wait().unwrap();
    })
    .injection_total();
    assert_eq!(59 - npn, 3, "paper §3.4: 3 instructions");
}

#[test]
fn sec35_noreq_saves_about_10() {
    let noreq = measure_isend(ipo(), |w| {
        w.isend_noreq(&[1u8], 1, 0).unwrap();
        w.comm_waitall().unwrap();
    })
    .injection_total();
    assert_eq!(59 - noreq, 10, "paper §3.5: ~10 instructions");
}

#[test]
fn sec36_nomatch_saves_5() {
    let nomatch = measure_isend(ipo(), |w| {
        w.isend_nomatch(&[1u8], 1).unwrap().wait().unwrap();
    })
    .injection_total();
    assert_eq!(59 - nomatch, 5, "paper §3.6: 5 instructions");
}

#[test]
fn sec37_all_opts_is_16_instructions() {
    let all = measure_isend(ipo(), |w| {
        w.isend_all_opts(&[1u8], 1).unwrap();
        w.comm_waitall().unwrap();
    })
    .injection_total();
    assert_eq!(all, 16, "paper §3.7: MPI_ISEND_ALL_OPTS = 16 instructions");
}

#[test]
fn sec32_put_virtual_addr_saves_4() {
    let base = measure_put(ipo(), |win| win.put(&[0u8; 8], 1, 0).unwrap()).injection_total();
    let vaddr = measure_put(ipo(), |win| {
        let addr = win.base_addr(1);
        win.put_virtual_addr(&[0u8; 8], 1, addr).unwrap();
    })
    .injection_total();
    assert_eq!(base, 44);
    assert_eq!(base - vaddr, 4, "paper §3.2: 3–4 instructions");
}

#[test]
fn put_all_opts_is_netmod_residue_only() {
    let all = measure_put(ipo(), |win| {
        let addr = win.base_addr(1);
        win.put_all_opts(&[0u8; 8], 1, addr).unwrap();
    });
    assert_eq!(all.injection_total(), 19);
    assert_eq!(all.get(Category::NetmodIssue), 19);
}

/// §2.2's datatype-usage classes: library IPO removes the redundant
/// datatype-size checks only when the datatype is a compile-time constant
/// at the call site (Class 2 — the typed API). Runtime datatype handles
/// (Class 3 — LULESH's `baseType` pattern, our byte-level API) keep
/// paying until link-time inlining subsumes the whole application.
#[test]
fn datatype_class_2_vs_class_3_under_ipo() {
    let class2 = measure_isend(ipo(), |w| {
        // Typed call: the datatype is `MPI_DOUBLE` at the call site.
        w.isend(&[1.0f64], 1, 0).unwrap().wait().unwrap();
    })
    .injection_total();
    let class3 = measure_isend(ipo(), |w| {
        // Runtime handle: the compiler cannot see through it.
        let ty = litempi_datatype::Datatype::DOUBLE;
        let data = [1.0f64];
        w.isend_bytes(
            litempi_datatype::MpiPrimitive::as_bytes(&data[..]),
            &ty,
            1,
            1,
            0,
        )
        .unwrap()
        .wait()
        .unwrap();
    })
    .injection_total();
    assert_eq!(class2, 59, "Class 2 folds the size checks");
    assert_eq!(class3, 59 + 59, "Class 3 still pays the redundant checks");

    // Whole-program IPO (§2.2: "expanding the scope of link-time inlining
    // to subsume the entire application") folds Class 3 too.
    let whole = measure_isend(BuildConfig::ch4_ipo_whole_program(), |w| {
        let ty = litempi_datatype::Datatype::DOUBLE;
        let data = [1.0f64];
        w.isend_bytes(
            litempi_datatype::MpiPrimitive::as_bytes(&data[..]),
            &ty,
            1,
            1,
            0,
        )
        .unwrap()
        .wait()
        .unwrap();
    })
    .injection_total();
    assert_eq!(whole, 59);
}

/// Persistent operations (standard MPI-3.1) hoist most of the mandatory
/// overheads to init time: each `start` pays only request re-arming plus
/// the netmod issue (33 instructions on the optimized build) — between
/// the 59-instruction classic path and the 16-instruction `_ALL_OPTS`
/// path, quantifying what the §3 proposals add beyond what the current
/// standard already offers.
#[test]
fn persistent_start_amortizes_mandatory_overheads() {
    let reports = Universe::run(
        2,
        ipo(),
        ProviderProfile::infinite(),
        Topology::single_node(2),
        |proc| {
            let world = proc.world();
            if proc.rank() == 0 {
                let data = [1u8];
                counter::reset();
                let init_probe = counter::probe();
                let mut send = world.send_init(&data, 1, 0).unwrap();
                let init_cost = init_probe.finish().injection_total();
                let start_probe = counter::probe();
                send.start().unwrap();
                send.wait().unwrap();
                let start_cost = start_probe.finish().injection_total();
                world.barrier().unwrap();
                Some((init_cost, start_cost))
            } else {
                let mut buf = [0u8; 1];
                world.recv_into(&mut buf, 0, 0).unwrap();
                world.barrier().unwrap();
                None
            }
        },
    );
    let (init_cost, start_cost) = reports.into_iter().flatten().next().unwrap();
    // Init: proc-null 3 + object deref 8 + translation 10 + match bits 5.
    assert_eq!(init_cost, 26);
    // Start: request management 10 + netmod issue 23.
    assert_eq!(start_cost, 33);
    assert!(start_cost < 59, "cheaper than the classic path");
    assert!(start_cost > 16, "still dearer than MPI_ISEND_ALL_OPTS");
}

// ----------------------------------------------- structural sanity checks

#[test]
fn am_fallback_put_costs_more_than_native() {
    // A non-contiguous origin layout forces the CH4 AM fallback.
    let native = measure_put(ipo(), |win| win.put(&[0u8; 16], 1, 0).unwrap());
    let fallback = measure_put(ipo(), |win| {
        let ty = litempi_datatype::Datatype::vector(2, 1, 2, &litempi_datatype::Datatype::DOUBLE)
            .unwrap()
            .commit();
        let buf = [0u8; 32];
        win.put_bytes(&buf, &ty, 1, 1, 0).unwrap();
    });
    assert!(
        fallback.injection_total() > 5 * native.injection_total(),
        "AM fallback ({}) should dwarf the native path ({})",
        fallback.injection_total(),
        native.injection_total()
    );
}

#[test]
fn original_put_is_84_percent_worse_than_ch4() {
    let orig = measure_put(BuildConfig::original(), |win| {
        win.put(&[0u8; 8], 1, 0).unwrap()
    })
    .injection_total();
    let ch4 = measure_put(BuildConfig::ch4_default(), |win| {
        win.put(&[0u8; 8], 1, 0).unwrap()
    })
    .injection_total();
    let reduction = 1.0 - ch4 as f64 / orig as f64;
    assert!(
        (reduction - 0.84).abs() < 0.01,
        "paper §2.1: 84% reduction, got {reduction}"
    );
}

#[test]
fn progress_charges_never_pollute_injection_path() {
    let r = measure_isend(BuildConfig::ch4_default(), send_one);
    // Rank 0's own probe window contains no receive; all progress work
    // happens on rank 1.
    assert_eq!(r.injection_total() + r.get(Category::Progress), r.total());
}

#[test]
fn recv_path_mirrors_send_path_cost() {
    // Paper: "We omit analysis of MPI_IRECV, as the software path is
    // largely identical to MPI_ISEND".
    let reports = Universe::run(
        2,
        BuildConfig::ch4_default(),
        ProviderProfile::infinite(),
        Topology::single_node(2),
        |proc| {
            let world = proc.world();
            if proc.rank() == 0 {
                world.send(&[1u8], 1, 0).unwrap();
                world.barrier().unwrap();
                None
            } else {
                // Make sure the message has landed so recv cost excludes
                // waiting-progress noise.
                while world.iprobe(0, 0).unwrap().is_none() {
                    std::thread::yield_now();
                }
                counter::reset();
                let probe = counter::probe();
                let mut buf = [0u8; 1];
                world.recv_into(&mut buf, 0, 0).unwrap();
                let r = probe.finish();
                world.barrier().unwrap();
                Some(r.injection_total())
            }
        },
    );
    let recv_total = reports.into_iter().flatten().next().unwrap();
    assert_eq!(recv_total, 221, "irecv charged with the isend cost table");
}

/// What one call of each collective costs, summed over the ranks: messages
/// injected and instructions charged, in the order of `calls`.
fn coll_call_costs(n: usize, rpn: usize) -> Vec<(&'static str, u64, Report)> {
    use litempi_core::CartComm;
    type Call = fn(&Communicator, &CartComm);
    let calls: [(&str, Call); 11] = [
        ("gather", |w, _| drop(w.gather(&[1u64, 2], 1).unwrap())),
        ("gatherv", |w, _| {
            drop(w.gatherv(&vec![7u32; w.rank() + 1], 1).unwrap())
        }),
        ("scatter", |w, _| {
            let send = vec![3u64; 2 * w.size()];
            let send = (w.rank() == 1).then_some(&send[..]);
            drop(w.scatter(send, 2, 1).unwrap())
        }),
        ("scan", |w, _| drop(w.scan(&[1u64, 2], &Op::Sum).unwrap())),
        ("exscan", |w, _| {
            drop(w.exscan(&[1u64, 2], &Op::Sum).unwrap())
        }),
        ("reduce_scatter_block", |w, _| {
            let send = vec![1u64; 2 * w.size()];
            drop(w.reduce_scatter_block(&send, &Op::Sum).unwrap())
        }),
        ("bcast 64 B", |w, _| w.bcast(&mut [5u64; 8], 1).unwrap()),
        ("bcast 48 KiB", |w, _| {
            w.bcast(&mut vec![5u64; 6 * 1024], 1).unwrap()
        }),
        ("allgather", |w, _| drop(w.allgather(&[1u64, 2]).unwrap())),
        ("neighbor_allgather", |_, c| {
            drop(c.neighbor_allgather(&[1u64, 2]).unwrap())
        }),
        ("neighbor_alltoall", |_, c| {
            drop(c.neighbor_alltoall(&[1u64, 2, 3, 4], 2).unwrap())
        }),
    ];
    let per_rank = Universe::run(
        n,
        BuildConfig::ch4_default(),
        ProviderProfile::infinite(),
        Topology::blocked(n, rpn),
        move |proc| {
            let world = proc.world();
            let ring = CartComm::create(&world, &[n], &[true]).unwrap().unwrap();
            let measured: Vec<(u64, Report)> = (calls.iter())
                .map(|(_, call)| {
                    world.barrier().unwrap();
                    let before = proc.comm_stats().msgs_sent;
                    let probe = counter::probe();
                    call(&world, &ring);
                    (proc.comm_stats().msgs_sent - before, probe.finish())
                })
                .collect();
            world.barrier().unwrap();
            measured
        },
    );
    (calls.iter().enumerate())
        .map(|(i, (name, _))| {
            let msgs = per_rank.iter().map(|r| r[i].0).sum();
            let instr = (per_rank.iter()).fold(Report::default(), |acc, r| acc.merge(&r[i].1));
            (*name, msgs, instr)
        })
        .collect()
}

/// One one-sided call from rank 0 at rank 1's window.
type RmaCall = fn(&Window);

/// The one-sided calls of [`rma_op_costs_are_pinned`], in its order. A
/// request form is measured through its `wait`, so that a reply the
/// target sends is inside the reading.
const RMA_OPS: [(&str, RmaCall); 9] = [
    ("put", |w| w.put(&[1u64], 1, 0).unwrap()),
    ("get", |w| w.get(&mut [0u64], 1, 0).unwrap()),
    ("accumulate", |w| {
        w.accumulate(&[1u64], 1, 0, &Op::Sum).unwrap()
    }),
    ("get_accumulate", |w| {
        w.get_accumulate(&[1u64], 1, 0, &Op::Sum).unwrap();
    }),
    ("fetch_and_op", |w| {
        w.fetch_and_op(1u64, 1, 0, &Op::Sum).unwrap();
    }),
    ("rput", |w| {
        w.rput(&[1u64], 1, 0).unwrap().wait().unwrap();
    }),
    ("rget", |w| {
        w.rget(&mut [0u64], 1, 0).unwrap().wait().unwrap();
    }),
    ("raccumulate", |w| {
        w.raccumulate(&[1u64], 1, 0, &Op::Sum)
            .unwrap()
            .wait()
            .unwrap();
    }),
    ("rget_accumulate", |w| {
        let mut old = [0u64];
        let req = w.rget_accumulate(&[1u64], &mut old, 1, 0, &Op::Sum);
        req.unwrap().wait().unwrap();
    }),
];

/// What every one of [`RMA_OPS`] pays before it reaches the netmod, on
/// every stack and in every epoch: the MPI-layer rows of Table 1 and the
/// §3 overheads of `MPI_PUT`, 196 of its 215.
const RMA_PROLOGUE: [(Category, u64); 8] = [
    (Category::ErrorChecking, 72),
    (Category::ThreadCheck, 14),
    (Category::FunctionCall, 25),
    (Category::RedundantChecks, 60),
    (Category::CommRankTranslation, 10),
    (Category::WinOffsetTranslation, 4),
    (Category::ObjectDeref, 8),
    (Category::ProcNullCheck, 3),
];

/// What each of [`RMA_OPS`] costs rank 0 under one kind of access epoch
/// toward rank 1 (`"fence"`, `"start"` or `"lock"`), beyond
/// [`RMA_PROLOGUE`] (asserted here): the other categories it charges,
/// then `| issued completed am msgs` — the window ops
/// it issued and completed and the active messages and messages it sent.
/// While rank 0 measures, rank 1 sends nothing but answers: it sits in a
/// receive (or in `MPI_WIN_WAIT`), never in a collective whose traffic
/// rank 0 could progress by accident.
fn rma_op_costs(config: BuildConfig, profile: ProviderProfile, epoch: &'static str) -> Vec<String> {
    let per_rank = Universe::run(2, config, profile, Topology::single_node(2), |proc| {
        let world = proc.world();
        let win = Window::create(&world, 64, 1).unwrap();
        let mut lines = Vec::new();
        for (name, op) in RMA_OPS {
            match (epoch, proc.rank()) {
                ("fence", _) => win.fence().unwrap(),
                ("start", 0) => win.start(&[1]).unwrap(),
                ("start", _) => win.post(&[0]).unwrap(),
                (_, 0) => win.lock(LockType::Exclusive, 1).unwrap(),
                _ => {}
            }
            if proc.rank() == 0 {
                let before = proc.comm_stats();
                let probe = counter::probe();
                op(&win);
                let instr = probe.finish();
                let d = proc.comm_stats().diff(&before);
                let (prologue, rest): (Vec<_>, Vec<_>) =
                    (instr.nonzero()).partition(|(c, _)| RMA_PROLOGUE.iter().any(|(p, _)| p == c));
                assert_eq!(prologue, RMA_PROLOGUE, "{name} under {epoch}");
                let rest: Vec<_> = (rest.iter())
                    .map(|(c, n)| format!("{} {n}", c.label()))
                    .collect();
                lines.push(format!(
                    "{} | {} {} {} {}",
                    rest.join(", "),
                    d.win_ops_issued,
                    d.win_ops_completed,
                    d.am_sent,
                    d.msgs_sent
                ));
            }
            match (epoch, proc.rank()) {
                ("start", 0) => win.complete().unwrap(),
                ("start", _) => win.wait().unwrap(),
                (_, 0) => world.send(&[0u8], 1, 0).unwrap(),
                _ => {
                    world.recv_into(&mut [0u8], 0, 0).unwrap();
                }
            }
            match (epoch, proc.rank()) {
                ("fence", _) => win.fence().unwrap(),
                ("lock", 0) => win.unlock(1).unwrap(),
                _ => {}
            }
            world.barrier().unwrap();
        }
        win.free().unwrap();
        lines
    });
    per_rank.into_iter().next().expect("rank 0 measured")
}

/// One call of each of `put`, `get`, `accumulate`, `get_accumulate`,
/// `fetch_and_op` and the four request forms, on the three stacks of
/// `rma_scalable` (native RDMA, the CH4 core's active-message fallback and
/// the CH3-like device) under a fence, a PSCW `start` and a passive `lock`
/// epoch, read as [`rma_op_costs`] says. Taken at `03e23b7` with this test
/// body, before put, get, accumulate and fetch-and-op became one body each
/// (EXPERIMENTS.md, "One body per one-sided operation"). A request form
/// costs its blocking twin's instructions plus `request_management` 10;
/// an active-message reply costs `progress` 25 to open, and the request
/// forms of put and accumulate wait for one; a blocking passive put or
/// accumulate stays issued, not completed (`rma` 7 is its queue charge),
/// until a flush retires it. 215 is the native `put`.
#[test]
fn rma_op_costs_are_pinned() {
    const ACTIVE: [&str; 2] = ["fence", "start"];
    const PASSIVE: [&str; 1] = ["lock"];
    let native = "netmod_issue 19";
    let am = "netmod_issue 310";
    let original = "netmod_issue 19, original_layering 1127";
    let req = "request_management 10, ";
    let stacks = [
        (
            BuildConfig::ch4_default(),
            ProviderProfile::infinite(),
            native,
        ),
        (BuildConfig::ch4_default(), ProviderProfile::am_only(), am),
        (
            BuildConfig::original(),
            ProviderProfile::infinite(),
            original,
        ),
    ];
    for (config, profile, netmod) in stacks {
        // Active target: native RDMA completes at return; the fallback
        // sends one active message, answered for all but the blocking
        // put and accumulate.
        let (store, answered) = if netmod == native {
            let done = format!("{netmod} | 1 1 0 0");
            (done.clone(), done)
        } else {
            let sent = format!("{netmod} | 1 1 1 0");
            (sent, format!("{netmod}, progress 25 | 1 1 1 0"))
        };
        let active = [
            store.clone(),
            answered.clone(),
            store,
            answered.clone(),
            answered.clone(),
            format!("{req}{answered}"),
            format!("{req}{answered}"),
            format!("{req}{answered}"),
            format!("{req}{answered}"),
        ];
        // Passive target: every op goes at the region; a blocking store
        // waits for the flush.
        let queued = format!("{netmod}, rma 7 | 1 0 0 0");
        let done = format!("{netmod} | 1 1 0 0");
        let passive = [
            queued.clone(),
            done.clone(),
            queued,
            done.clone(),
            done.clone(),
            format!("{req}{done}"),
            format!("{req}{done}"),
            format!("{req}{done}"),
            format!("{req}{done}"),
        ];
        for (epochs, want) in [(&ACTIVE[..], active), (&PASSIVE[..], passive)] {
            for &epoch in epochs {
                let got = rma_op_costs(config, profile, epoch);
                for ((name, _), (got, want)) in RMA_OPS.iter().zip(got.iter().zip(&want)) {
                    assert_eq!(got, want, "{name} under {epoch}, {netmod}");
                }
            }
        }
    }
}

/// One call of each collective that became a compiled schedule in PR 21
/// (plus `allgather`, whose phase builder the long broadcast now shares)
/// sends the messages its hand-written loop sent, and charges what they
/// charged: 23 instructions of netmod issue per message and nothing else —
/// no MPI-layer category, no `Category::Schedule` for an inline run.
/// Message counts were taken at `7a37baa` (EXPERIMENTS.md, "Every
/// collective a schedule"). They are topology-blind except the 48 KiB
/// broadcast: scatter + allgather on one node (P − 1 messages, then
/// P·log₂P by recursive doubling or P·(P − 1) round the ring), the
/// node-aware tree on two. The neighbourhood pair sends what it sent
/// (2 per rank on a periodic ring) but through the device path, where
/// `MPI_Sendrecv` charged each message the 221 of an `MPI_Isend` and
/// another 221 for its `MPI_Irecv`.
#[test]
fn collective_call_costs_are_pinned() {
    let pins: [(usize, usize, [u64; 11]); 4] = [
        (4, 4, [3, 3, 3, 3, 3, 12, 3, 11, 8, 8, 8]),
        (4, 2, [3, 3, 3, 3, 3, 12, 3, 3, 8, 8, 8]),
        (6, 6, [5, 5, 5, 5, 5, 30, 5, 35, 30, 12, 12]),
        (6, 3, [5, 5, 5, 5, 5, 30, 5, 5, 30, 12, 12]),
    ];
    for (n, rpn, want) in pins {
        for ((name, msgs, instr), want) in coll_call_costs(n, rpn).into_iter().zip(want) {
            let at = format!("{name} on {n} ranks, {rpn} per node");
            assert_eq!(msgs, want, "{at}: messages");
            let charged: Vec<_> = instr.nonzero().collect();
            assert_eq!(charged, [(Category::NetmodIssue, 23 * want)], "{at}");
        }
    }
}
