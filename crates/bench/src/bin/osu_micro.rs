//! OSU-style microbenchmarks (latency / bandwidth) across devices —
//! wall-clock numbers from the real code paths, complementing the modeled
//! message-rate figures — followed by three §4.2 measurements over the
//! library's own `msgrate` functions: the 1-byte isend/put rate per build,
//! the wall cost of the §3 send paths, and nonblocking-collective overlap.

use litempi_apps::{msgrate, pingpong};
use litempi_core::{BuildConfig, Communicator, MpiResult, Process, Universe};
use litempi_fabric::{ProviderProfile, Topology};
use std::time::Instant;

/// Operations per rate measurement and per §3 send path.
const RATE_OPS: usize = 200_000;
/// Allreduces per overlap measurement.
const OVERLAP_ITERS: usize = 500;

/// Rank 0's value of `f` on a 2-rank, one-node universe.
fn on_pair<T: Send>(
    config: BuildConfig,
    profile: ProviderProfile,
    f: impl Fn(&Process, &Communicator) -> Option<T> + Send + Sync,
) -> T {
    Universe::run(2, config, profile, Topology::single_node(2), |proc| {
        f(&proc, &proc.world())
    })
    .into_iter()
    .flatten()
    .next()
    .expect("rank 0 reports")
}

/// One 1-byte send of rank 0 to rank 1 through a §3 send path.
type SendPath = fn(&Communicator) -> MpiResult<()>;

/// Wall ns per 1-byte message of one §3 send path on the optimized build;
/// rank 1 receives on the tagged or the nomatch channel.
fn ext_ns(send: SendPath, nomatch: bool) -> f64 {
    let config = BuildConfig::ch4_no_err_single_ipo();
    on_pair(config, ProviderProfile::infinite(), move |proc, world| {
        let mut buf = [0u8; 1];
        let out = if proc.rank() == 0 {
            let t0 = Instant::now();
            for _ in 0..RATE_OPS {
                send(world).unwrap();
            }
            world.comm_waitall().unwrap();
            Some(t0.elapsed().as_nanos() as f64 / RATE_OPS as f64)
        } else {
            for _ in 0..RATE_OPS {
                if nomatch {
                    world.recv_nomatch(&mut buf).unwrap();
                } else {
                    world.recv_into(&mut buf, 0, 0).unwrap();
                }
            }
            None
        };
        world.barrier().unwrap();
        out
    })
}

fn main() {
    let sizes = [1usize, 64, 1024, 16 * 1024, 256 * 1024];
    println!("osu_latency-style half-round-trip (us), 2 ranks, in-process fabric");
    println!("{:>10} {:>14} {:>14}", "bytes", "original", "ch4");
    let lat = |config: BuildConfig| {
        Universe::run(
            2,
            config,
            ProviderProfile::ofi(),
            Topology::one_per_node(2),
            move |proc| {
                let world = proc.world();
                pingpong::latency(&proc, &world, &sizes, 200).unwrap()
            },
        )
        .remove(0)
    };
    let orig = lat(BuildConfig::original());
    let ch4 = lat(BuildConfig::ch4_default());
    for (o, c) in orig.iter().zip(&ch4) {
        println!("{:>10} {:>14.2} {:>14.2}", o.bytes, o.value, c.value);
    }

    println!();
    println!("osu_bw-style windowed bandwidth (MiB/s), window 32");
    println!("{:>10} {:>14}", "bytes", "ch4");
    let bw = Universe::run(
        2,
        BuildConfig::ch4_default(),
        ProviderProfile::ofi(),
        Topology::one_per_node(2),
        move |proc| {
            let world = proc.world();
            pingpong::bandwidth(&proc, &world, &sizes, 32, 20).unwrap()
        },
    )
    .remove(0);
    for p in &bw {
        println!("{:>10} {:>14.1}", p.bytes, p.value);
    }

    println!();
    println!("1-byte issue rate per build ({RATE_OPS} ops, 2 ranks, one node)");
    println!("{:<30} {:>14} {:>12}", "op / build", "ops/s", "instr/op");
    let (native, am_only) = (ProviderProfile::infinite(), ProviderProfile::am_only());
    let orig = BuildConfig::original();
    let (ch4, ipo) = (
        BuildConfig::ch4_default(),
        BuildConfig::ch4_no_err_single_ipo(),
    );
    let rows = [
        ("isend original", orig, native, false),
        ("isend ch4_default", ch4, native, false),
        ("isend ch4_no_err_single_ipo", ipo, native, false),
        ("put original", orig, native, true),
        ("put ch4_default", ch4, native, true),
        ("put ch4_no_err_single_ipo", ipo, native, true),
        ("put ch4_default am_only", ch4, am_only, true),
    ];
    for (label, config, profile, put) in rows {
        let r = on_pair(config, profile, |proc, world| {
            let r = if put {
                msgrate::put_rate(proc, world, RATE_OPS)
            } else {
                msgrate::isend_rate(proc, world, RATE_OPS, 64)
            };
            r.unwrap()
        });
        println!("{label:<30} {:>14.0} {:>12.1}", r.wall_rate, r.instr_per_op);
    }

    println!();
    println!("§3 send paths on ch4_no_err_single_ipo (wall ns per 1-byte message)");
    let paths: [(&str, SendPath, bool); 5] = [
        (
            "isend (classic)",
            |w| w.isend(&[1u8], 1, 0)?.wait().map(drop),
            false,
        ),
        (
            "isend_global",
            |w| w.isend_global(&[1u8], 1, 0)?.wait().map(drop),
            false,
        ),
        (
            "isend_nomatch",
            |w| w.isend_nomatch(&[1u8], 1)?.wait().map(drop),
            true,
        ),
        ("isend_noreq", |w| w.isend_noreq(&[1u8], 1, 0), false),
        ("isend_all_opts", |w| w.isend_all_opts(&[1u8], 1), true),
    ];
    for (label, send, nomatch) in paths {
        println!("{label:<30} {:>10.1}", ext_ns(send, nomatch));
    }

    println!();
    println!("allreduce/compute overlap, 4 ranks, {OVERLAP_ITERS} iterations");
    for len in [64usize, 1024, 8192] {
        // Compute grows with the payload so the two phases stay comparable.
        let r = Universe::run_default(4, move |proc| {
            msgrate::nbc_overlap(&proc.world(), len, OVERLAP_ITERS, (len * 4).max(1024))
        })
        .remove(0)
        .unwrap()
        .expect("rank 0 reports");
        print!("{}", msgrate::render_overlap(&format!("{len} u64"), &r));
    }

    println!();
    println!(
        "Note: these are wall-clock numbers of the simulation running on the \
         host CPU — useful for relative comparisons (device vs device, size \
         scaling), not as absolute fabric performance."
    );
}
