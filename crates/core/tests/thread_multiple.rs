//! `MPI_THREAD_MULTIPLE`: concurrent injector threads, one critical
//! section per process, must never change what applications observe.
//!
//! The contract has three faces, each pinned here:
//!
//! 1. **Byte identity.** Concurrent injector threads deliver exactly the
//!    bytes a single-threaded run delivers, per stream and in stream
//!    order — including under seeded packet chaos (whose reorder stash
//!    lets sources overtake each other) and with event tracing armed.
//! 2. **Ordering and wildcard semantics.** Per-(communicator, tag)
//!    ordering survives concurrent injection on dup'd communicators, and
//!    wildcard receives still match everything on their channel.
//! 3. **Charge identity.** The unified `with_cs` helper charges the
//!    paper's exact thread-check costs (6 for the isend family, 14 for
//!    the put family) whether the granted level is `Single` or
//!    `Multiple`, and the full injection paths stay pinned at 221/215.

use litempi_core::{BuildConfig, Communicator, Universe, Window, ANY_SOURCE, ANY_TAG};
use litempi_fabric::{FaultPlan, FaultSpec, ProviderProfile, Topology};
use litempi_instr::{counter, Category};
use proptest::prelude::*;

const INJECTORS: usize = 4;
const MSGS: usize = 30;

/// Deterministic payload for message `i` of stream `t`: length and bytes
/// both derive from the pair, so a swapped, dropped, or duplicated
/// delivery cannot produce the expected sequence.
fn payload(t: usize, i: usize) -> Vec<u8> {
    let len = 1 + (t * 7 + i) % 13;
    (0..len).map(|k| (t * 31 + i * 3 + k) as u8).collect()
}

/// The profile test 1 runs under: the reliability chaos suite's
/// fixed-seed fault mix (its 30 % reorder is the reordering the other
/// suites run alone) and event tracing armed.
fn chaotic_traced() -> ProviderProfile {
    ProviderProfile::ofi()
        .with_faults(FaultPlan::uniform(
            0xC0FFEE,
            FaultSpec::percent(20, 10, 30, 0),
        ))
        .reliable()
        .traced()
}

/// Run the injector workload and collect, on rank 1, the delivered bytes
/// of every stream in arrival order. `mt` issues each stream from its own
/// thread on rank 0; otherwise one thread interleaves the streams
/// round-robin. Returns rank 1's per-stream transcript.
fn run_streams(profile: ProviderProfile, mt: bool) -> Vec<Vec<Vec<u8>>> {
    let out = Universe::run(
        2,
        BuildConfig::ch4_thread_multiple(),
        profile,
        Topology::single_node(2),
        move |proc| {
            let world = proc.world();
            let comms: Vec<Communicator> = (0..INJECTORS).map(|_| world.dup()).collect();
            world.barrier().unwrap();
            if proc.rank() == 0 {
                if mt {
                    std::thread::scope(|s| {
                        for (t, c) in comms.into_iter().enumerate() {
                            s.spawn(move || {
                                for i in 0..MSGS {
                                    c.send(&payload(t, i), 1, t as i32).unwrap();
                                }
                            });
                        }
                    });
                } else {
                    for i in 0..MSGS {
                        for (t, c) in comms.iter().enumerate() {
                            c.send(&payload(t, i), 1, t as i32).unwrap();
                        }
                    }
                }
                world.barrier().unwrap();
                None
            } else {
                let transcript: Vec<Vec<Vec<u8>>> = std::thread::scope(|s| {
                    let handles: Vec<_> = comms
                        .into_iter()
                        .enumerate()
                        .map(|(t, c)| {
                            s.spawn(move || {
                                let mut stream = Vec::with_capacity(MSGS);
                                let mut buf = [0u8; 64];
                                for _ in 0..MSGS {
                                    let st = c.recv_into(&mut buf, 0, t as i32).unwrap();
                                    stream.push(buf[..st.bytes].to_vec());
                                }
                                stream
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("sink thread panicked"))
                        .collect()
                });
                world.barrier().unwrap();
                Some(transcript)
            }
        },
    );
    out.into_iter().flatten().next().expect("rank 1 transcript")
}

/// Contract 1: four concurrent injector threads are byte-identical to a
/// single-threaded interleaving of the same streams — under seeded chaos
/// and with tracing recording.
#[test]
fn mt_injectors_byte_identical_to_single_thread_under_chaos() {
    let expected: Vec<Vec<Vec<u8>>> = (0..INJECTORS)
        .map(|t| (0..MSGS).map(|i| payload(t, i)).collect())
        .collect();
    let st = run_streams(chaotic_traced(), false);
    let mt = run_streams(chaotic_traced(), true);
    assert_eq!(st, expected, "single-threaded run corrupted a stream");
    assert_eq!(mt, expected, "threaded run diverged from single-threaded");
}

/// Contract 2: four injector threads on four dup'd communicators, with a
/// receiving thread per communicator; two streams drained with exact
/// matches, two through full wildcards. Both must observe every message in
/// stream order: a wildcard receive on one communicator matches nothing of
/// another's. Each injector's isend path stays at 221 (6 of them the
/// thread check) per message while the others inject.
#[test]
fn concurrent_injectors_preserve_ordering_and_wildcards() {
    Universe::run(
        2,
        BuildConfig::ch4_thread_multiple(),
        ProviderProfile::infinite(),
        Topology::single_node(2),
        |proc| {
            let world = proc.world();
            let comms: Vec<Communicator> = (0..INJECTORS).map(|_| world.dup()).collect();
            world.barrier().unwrap();
            if proc.rank() == 0 {
                std::thread::scope(|s| {
                    let handles: Vec<_> = comms
                        .into_iter()
                        .enumerate()
                        .map(|(t, c)| {
                            s.spawn(move || {
                                let msgs: Vec<_> = (0..MSGS).map(|i| payload(t, i)).collect();
                                // Thread-local counters: this thread's
                                // charges only.
                                counter::reset();
                                let probe = counter::probe();
                                for m in &msgs {
                                    c.isend(m, 1, t as i32).unwrap().wait().unwrap();
                                }
                                probe.finish()
                            })
                        })
                        .collect();
                    // Concurrent injection leaves each thread's path at
                    // the single-threaded charge.
                    for h in handles {
                        let r = h.join().expect("injector thread panicked");
                        assert_eq!(r.injection_total(), 221 * MSGS as u64);
                        assert_eq!(r.get(Category::ThreadCheck), 6 * MSGS as u64);
                    }
                });
            } else {
                std::thread::scope(|s| {
                    for (t, c) in comms.into_iter().enumerate() {
                        s.spawn(move || {
                            let mut buf = [0u8; 64];
                            for i in 0..MSGS {
                                // Streams 0/1: exact matching. Streams 2/3:
                                // both wildcards, under concurrent
                                // injection on the other communicators.
                                let st = if t < 2 {
                                    c.recv_into(&mut buf, 0, t as i32).unwrap()
                                } else {
                                    c.recv_into(&mut buf, ANY_SOURCE, ANY_TAG).unwrap()
                                };
                                assert_eq!(
                                    &buf[..st.bytes],
                                    &payload(t, i)[..],
                                    "stream {t} message {i} out of order or damaged"
                                );
                                assert_eq!(st.tag, t as i32);
                                assert_eq!(st.source, 0);
                            }
                        });
                    }
                });
            }
            world.barrier().unwrap();
        },
    );
}

/// Contract 3: the unified `with_cs` helper's charge pins. The runtime
/// thread-safety check costs exactly 6 instructions on the isend family
/// and 14 on the put family, and granting `MPI_THREAD_MULTIPLE` (the
/// critical section actually taken) adds *zero* instructions to either
/// injection path: 221 and 215, identical to the `Single` build.
#[test]
fn unified_thread_check_charges_pin_isend_and_put() {
    for config in [
        BuildConfig::ch4_default(),
        BuildConfig::ch4_thread_multiple(),
    ] {
        let reports = Universe::run(
            2,
            config,
            ProviderProfile::infinite(),
            Topology::single_node(2),
            |proc| {
                let world = proc.world();
                let out = if proc.rank() == 0 {
                    counter::reset();
                    let probe = counter::probe();
                    let req = world.isend(&[1u8], 1, 0).unwrap();
                    req.wait().unwrap();
                    let isend = probe.finish();

                    let win = Window::create(&world, 64, 1).unwrap();
                    win.fence().unwrap();
                    counter::reset();
                    let probe = counter::probe();
                    win.put(&[1u8; 8], 1, 0).unwrap();
                    let put = probe.finish();
                    win.fence().unwrap();
                    Some((isend, put))
                } else {
                    let mut buf = [0u8; 1];
                    world.recv_into(&mut buf, 0, 0).unwrap();
                    let win = Window::create(&world, 64, 1).unwrap();
                    win.fence().unwrap();
                    win.fence().unwrap();
                    None
                };
                world.barrier().unwrap();
                out
            },
        );
        let (isend, put) = reports.into_iter().flatten().next().unwrap();
        let label = if config.thread_level == litempi_core::ThreadLevel::Multiple {
            "multiple"
        } else {
            "single"
        };
        assert_eq!(isend.get(Category::ThreadCheck), 6, "isend check ({label})");
        assert_eq!(isend.injection_total(), 221, "isend total ({label})");
        assert_eq!(put.get(Category::ThreadCheck), 14, "put check ({label})");
        assert_eq!(put.injection_total(), 215, "put total ({label})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized thread/tag mixes: any combination of injector count,
    /// tag assignment, and message volume must deliver every stream
    /// exactly once, in order, with intact bytes.
    #[test]
    fn random_thread_tag_mixes_deliver_in_order(
        threads in 1usize..=4,
        msgs in 1usize..=15,
        seed in any::<u64>(),
    ) {
        Universe::run(
            2,
            BuildConfig::ch4_thread_multiple(),
            ProviderProfile::infinite(),
            Topology::single_node(2),
            move |proc| {
                let world = proc.world();
                let comms: Vec<Communicator> = (0..threads).map(|_| world.dup()).collect();
                // Arbitrary (but deterministic) tag per stream, varying
                // across cases.
                let tag = |t: usize| ((seed >> (t * 8)) & 0x7FFF) as i32;
                world.barrier().unwrap();
                if proc.rank() == 0 {
                    std::thread::scope(|s| {
                        for (t, c) in comms.into_iter().enumerate() {
                            s.spawn(move || {
                                for i in 0..msgs {
                                    c.send(&payload(t, i), 1, tag(t)).unwrap();
                                }
                            });
                        }
                    });
                } else {
                    std::thread::scope(|s| {
                        for (t, c) in comms.into_iter().enumerate() {
                            s.spawn(move || {
                                let mut buf = [0u8; 64];
                                for i in 0..msgs {
                                    let st = c.recv_into(&mut buf, ANY_SOURCE, tag(t)).unwrap();
                                    assert_eq!(&buf[..st.bytes], &payload(t, i)[..]);
                                }
                            });
                        }
                    });
                }
                world.barrier().unwrap();
            },
        );
    }
}
