//! Live instruction-count measurement (the harness's SDE stand-in).
//!
//! Each function spins up a 2-rank universe on the infinitely fast
//! provider, executes exactly one operation on rank 0 inside an
//! instruction probe, and returns the per-category report. These are the
//! numbers every figure builder consumes — nothing in the harness is
//! hard-coded from the paper; the `litempi-instr` cost table is the single
//! calibrated source and the *executed path* decides what is charged.

use litempi_core::ext::SendOptions;
use litempi_core::{BuildConfig, Communicator, PredefHandle, Universe, Window};
use litempi_fabric::{ProviderProfile, Topology};
use litempi_instr::{counter, Report};

/// Measure the instructions charged by `op` (one send-like call) on rank 0.
/// Rank 1 drains one message from either the classic or nomatch channel.
pub fn measure_send(config: BuildConfig, op: impl Fn(&Communicator) + Send + Sync) -> Report {
    let reports = Universe::run(
        2,
        config,
        ProviderProfile::infinite(),
        Topology::single_node(2),
        |proc| {
            let world = proc.world();
            // Populate the predefined slot so predef-handle variants work.
            world.dup_predefined(PredefHandle::Comm1).ok();
            if proc.rank() == 0 {
                counter::reset();
                let probe = counter::probe();
                op(&world);
                let report = probe.finish();
                world.barrier().unwrap();
                Some(report)
            } else {
                drain_one(&proc, &world);
                world.barrier().unwrap();
                None
            }
        },
    );
    reports.into_iter().flatten().next().expect("rank 0 report")
}

/// Rank 1 helper: receive exactly one message that may arrive on the
/// classic tagged channel, the nomatch channel, or the predefined-comm
/// channel — whichever `op` used.
fn drain_one(proc: &litempi_core::Process, world: &Communicator) {
    let pre = Communicator::predefined(proc, PredefHandle::Comm1).unwrap();
    let mut b1 = [0u8; 64];
    let mut b2 = [0u8; 64];
    let mut b3 = [0u8; 64];
    let mut b4 = [0u8; 64];
    let mut classic = world
        .irecv(&mut b1, litempi_core::ANY_SOURCE, litempi_core::ANY_TAG)
        .unwrap();
    let mut nomatch = world.irecv_nomatch(&mut b2).unwrap();
    let mut pre_classic = pre
        .irecv(&mut b3, litempi_core::ANY_SOURCE, litempi_core::ANY_TAG)
        .unwrap();
    let mut pre_nomatch = pre.irecv_nomatch(&mut b4).unwrap();
    loop {
        if classic.test().unwrap().is_some() {
            nomatch.cancel();
            pre_classic.cancel();
            pre_nomatch.cancel();
            return;
        }
        if nomatch.test().unwrap().is_some() {
            classic.cancel();
            pre_classic.cancel();
            pre_nomatch.cancel();
            return;
        }
        if pre_classic.test().unwrap().is_some() {
            classic.cancel();
            nomatch.cancel();
            pre_nomatch.cancel();
            return;
        }
        if pre_nomatch.test().unwrap().is_some() {
            classic.cancel();
            nomatch.cancel();
            pre_classic.cancel();
            return;
        }
        std::thread::yield_now();
    }
}

/// Measure one put-family operation against an open fence epoch.
pub fn measure_put(config: BuildConfig, op: impl Fn(&Window) + Send + Sync) -> Report {
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
    reports.into_iter().flatten().next().expect("rank 0 report")
}

/// Classic `MPI_ISEND` instructions under `config`.
pub fn isend_instr(config: BuildConfig) -> u64 {
    measure_send(config, |w| {
        w.isend(&[1u8], 1, 0).unwrap().wait().unwrap();
    })
    .injection_total()
}

/// Classic `MPI_PUT` instructions under `config`.
pub fn put_instr(config: BuildConfig) -> u64 {
    measure_put(config, |win| win.put(&[1u8], 1, 0).unwrap()).injection_total()
}

/// One rung of the Fig 6 ladder: `MPI_ISEND` with the given §3 options
/// enabled, on the fully optimized (IPO) build. `predef` additionally
/// routes through a precreated communicator handle (§3.3), which the
/// figure's `glob_rank` rung includes (both remove communicator-object
/// work).
pub fn isend_opts_instr(options: SendOptions, predef: bool) -> u64 {
    measure_send(BuildConfig::ch4_no_err_single_ipo(), move |w| {
        let dest = if options.global_rank {
            w.world_rank_of(1) as i32
        } else {
            1
        };
        if predef {
            let pre = Communicator::predefined(&w.process(), PredefHandle::Comm1).unwrap();
            pre.isend_with_options(&[1u8], dest, 0, options)
                .unwrap()
                .wait()
                .unwrap();
            if options.no_request {
                pre.comm_waitall().unwrap();
            }
        } else {
            w.isend_with_options(&[1u8], dest, 0, options)
                .unwrap()
                .wait()
                .unwrap();
            if options.no_request {
                w.comm_waitall().unwrap();
            }
        }
    })
    .injection_total()
}

/// The fused §3.7 `MPI_ISEND_ALL_OPTS` instruction count.
pub fn isend_all_opts_instr() -> u64 {
    measure_send(BuildConfig::ch4_no_err_single_ipo(), |w| {
        w.isend_all_opts(&[1u8], 1).unwrap();
        w.comm_waitall().unwrap();
    })
    .injection_total()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_counts_match_paper() {
        assert_eq!(isend_instr(BuildConfig::ch4_default()), 221);
        assert_eq!(put_instr(BuildConfig::ch4_default()), 215);
        assert_eq!(isend_instr(BuildConfig::original()), 253);
        assert_eq!(put_instr(BuildConfig::original()), 1342);
    }

    #[test]
    fn ladder_is_monotone() {
        let minimal = isend_opts_instr(SendOptions::default(), false);
        let noreq = isend_opts_instr(
            SendOptions {
                no_request: true,
                ..Default::default()
            },
            false,
        );
        let nomatch = isend_opts_instr(
            SendOptions {
                no_request: true,
                no_match: true,
                ..Default::default()
            },
            false,
        );
        let glob = isend_opts_instr(
            SendOptions {
                no_request: true,
                no_match: true,
                global_rank: true,
                ..Default::default()
            },
            true,
        );
        let npn = isend_opts_instr(
            SendOptions {
                no_request: true,
                no_match: true,
                global_rank: true,
                no_proc_null: true,
            },
            true,
        );
        let all = isend_all_opts_instr();
        assert_eq!(minimal, 59);
        assert_eq!(noreq, 49);
        assert_eq!(nomatch, 44);
        assert_eq!(glob, 26);
        assert_eq!(npn, 23);
        assert_eq!(all, 16);
    }

    /// The match bits of the one tagged send `isend_with_options` puts on
    /// the wire (its `SendBegin` trace event), sent as [`isend_opts_instr`]
    /// sends it, on the world or on `MPI_COMM_1`.
    fn wire_bits(options: SendOptions, predef: bool) -> u64 {
        use litempi_trace::EventKind;
        let traced = ProviderProfile::infinite().traced();
        let out = Universe::run(
            2,
            BuildConfig::ch4_no_err_single_ipo(),
            traced,
            Topology::single_node(2),
            |proc| {
                let world = proc.world();
                world.dup_predefined(PredefHandle::Comm1).ok();
                if proc.rank() == 1 {
                    drain_one(&proc, &world);
                    world.barrier().unwrap();
                    return None;
                }
                let pre = Communicator::predefined(&proc, PredefHandle::Comm1).unwrap();
                let comm = if predef { &pre } else { &world };
                // Rank 1 is world rank 1 on either communicator.
                let (dest, tag) = (1, 0);
                // Only the send's own events: re-arm the ring around it.
                let epoch = std::time::Instant::now();
                litempi_trace::drain();
                litempi_trace::enable(0, 64, epoch);
                let req = comm.isend_with_options(&[1u8], dest, tag, options);
                req.unwrap().wait().unwrap();
                if options.no_request {
                    comm.comm_waitall().unwrap();
                }
                let trace = litempi_trace::drain().expect("armed above");
                world.barrier().unwrap();
                let sent: Vec<u64> = (trace.events.iter())
                    .filter(|e| e.kind == EventKind::SendBegin)
                    .map(|e| e.a)
                    .collect();
                assert_eq!(sent.len(), 1, "{options:?}: {sent:x?}");
                Some(sent[0])
            },
        );
        out.into_iter().flatten().next().expect("rank 0 sent")
    }

    /// Subset `i` of the four §3 flags, bit 0 first.
    fn subset(i: usize) -> SendOptions {
        SendOptions {
            no_proc_null: i & 1 != 0,
            global_rank: i & 2 != 0,
            no_match: i & 4 != 0,
            no_request: i & 8 != 0,
        }
    }

    /// Every subset of the four §3 flags through `isend_with_options`, in
    /// [`subset`] order: the injection total and the wire match bits on the
    /// world, then the same on `MPI_COMM_1` (context id 1 in the top 16
    /// bits; the nomatch channel sets the 24 source bits below it).
    const OPTION_SPACE: [(u64, u64, u64, u64); 16] = [
        (59, 0x0000_0000_0000_0000, 51, 0x0001_0000_0000_0000),
        (56, 0x0000_0000_0000_0000, 48, 0x0001_0000_0000_0000),
        (49, 0x0000_0000_0000_0000, 41, 0x0001_0000_0000_0000),
        (46, 0x0000_0000_0000_0000, 38, 0x0001_0000_0000_0000),
        (54, 0x0000_ffff_ff00_0000, 46, 0x0001_ffff_ff00_0000),
        (51, 0x0000_ffff_ff00_0000, 43, 0x0001_ffff_ff00_0000),
        (44, 0x0000_ffff_ff00_0000, 36, 0x0001_ffff_ff00_0000),
        (41, 0x0000_ffff_ff00_0000, 33, 0x0001_ffff_ff00_0000),
        (49, 0x0000_0000_0000_0000, 41, 0x0001_0000_0000_0000),
        (46, 0x0000_0000_0000_0000, 38, 0x0001_0000_0000_0000),
        (39, 0x0000_0000_0000_0000, 31, 0x0001_0000_0000_0000),
        (36, 0x0000_0000_0000_0000, 28, 0x0001_0000_0000_0000),
        (44, 0x0000_ffff_ff00_0000, 36, 0x0001_ffff_ff00_0000),
        (41, 0x0000_ffff_ff00_0000, 33, 0x0001_ffff_ff00_0000),
        (34, 0x0000_ffff_ff00_0000, 26, 0x0001_ffff_ff00_0000),
        (31, 0x0000_ffff_ff00_0000, 23, 0x0001_ffff_ff00_0000),
    ];

    #[test]
    fn every_send_option_subset_keeps_its_charge_and_its_wire_bits() {
        for (i, &(world, world_bits, predef, predef_bits)) in OPTION_SPACE.iter().enumerate() {
            let options = subset(i);
            for (on_predef, total, bits) in
                [(false, world, world_bits), (true, predef, predef_bits)]
            {
                let got = (
                    isend_opts_instr(options, on_predef),
                    wire_bits(options, on_predef),
                );
                assert_eq!(got, (total, bits), "{options:?}, predefined: {on_predef}");
            }
        }
    }
}
