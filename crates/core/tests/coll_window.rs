//! Bounded-issue pins for the windowed collectives.
//!
//! A pairwise alltoall that posts all `N − 1` exchanges up front has, at
//! `N` ranks, an O(ranks) posted-receive queue at every endpoint and
//! O(ranks) in-flight sends per rank. The schedule's windowed phases cap
//! both at the cost-model window (≤ `COLL_ISSUE_WINDOW`); the root of a
//! linear gather posts its `N − 1` receives the same way. These tests pin
//! the cap through `EndpointStats::max_posted_depth` — with a regression
//! margin far below the old `N − 1` behaviour — and verify the results
//! are still full transposes.

use litempi_core::coll::COLL_ISSUE_WINDOW;
use litempi_core::{BuildConfig, Universe};
use litempi_fabric::{ProviderProfile, Topology};

/// Slack over the window: a concurrent teardown-barrier receive or a
/// straggling prior-phase post may overlap the alltoall's own postings.
const DEPTH_SLACK: u64 = 4;

#[test]
fn alltoall_posted_depth_is_pinned_to_the_window() {
    // 48 ranks: one wide phase would post 47 receives per rank. The
    // schedule's chunked phases must stay at O(window) — through the
    // blocking and the nonblocking entry point, which run the same one.
    let n = 48;
    let cap = COLL_ISSUE_WINDOW as u64 + DEPTH_SLACK;
    for nonblocking in [false, true] {
        let depths = Universe::run(
            n,
            BuildConfig::ch4_default(),
            ProviderProfile::infinite(),
            Topology::single_node(n),
            move |proc| {
                let world = proc.world();
                let rank = world.rank();
                let send: Vec<i32> = (0..n as i32).map(|j| rank as i32 * 100 + j).collect();
                let out = if nonblocking {
                    world.ialltoall(&send, 1).unwrap().wait().unwrap()
                } else {
                    world.alltoall(&send, 1).unwrap()
                };
                let expect: Vec<i32> = (0..n as i32).map(|j| j * 100 + rank as i32).collect();
                assert_eq!(out, expect, "rank {rank} transpose");
                proc.comm_stats().max_posted_depth
            },
        );
        for (r, d) in depths.iter().enumerate() {
            assert!(
                *d <= cap,
                "rank {r}: posted depth {d} exceeds window cap {cap} (nonblocking: {nonblocking})"
            );
        }
    }
}

#[test]
fn linear_gather_root_posts_a_window_at_a_time() {
    // 48 ranks: the root of a linear gather has 47 messages to receive.
    // It posts them a window at a time (the hand-written loop posted one;
    // one wide phase would post 47), and the result is still rank-ordered.
    let n = 48;
    let root = 5;
    let cap = COLL_ISSUE_WINDOW as u64 + DEPTH_SLACK;
    for variable in [false, true] {
        let depths = Universe::run(
            n,
            BuildConfig::ch4_default(),
            ProviderProfile::infinite(),
            Topology::single_node(n),
            move |proc| {
                let world = proc.world();
                let rank = world.rank();
                let len = if variable { rank % 3 } else { 2 };
                let mine = vec![rank as u32; len];
                let got = if variable {
                    world.gatherv(&mine, root).unwrap().map(|(data, _)| data)
                } else {
                    world.gather(&mine, root).unwrap()
                };
                let want: Vec<u32> = (0..n as u32)
                    .flat_map(|r| vec![r; if variable { r as usize % 3 } else { 2 }])
                    .collect();
                assert_eq!(got, (rank == root).then_some(want));
                proc.comm_stats().max_posted_depth
            },
        );
        assert!(
            depths[root] <= cap,
            "root posted {} receives at once, window cap {cap} (gatherv: {variable})",
            depths[root]
        );
    }
}

#[test]
fn comm_split_allgather_is_bounded_issue() {
    // `comm_split`'s internal allgather is the RD/ring allgather
    // schedule, which keeps one exchange outstanding per step — the
    // depth pin documents that it never regresses to unbounded posting.
    let n = 48;
    let depths = Universe::run(
        n,
        BuildConfig::ch4_default(),
        ProviderProfile::infinite(),
        Topology::single_node(n),
        |proc| {
            let world = proc.world();
            let sub = world
                .split((world.rank() % 3) as i32, world.rank() as i32)
                .unwrap()
                .unwrap();
            assert_eq!(sub.size(), n / 3);
            proc.comm_stats().max_posted_depth
        },
    );
    for (r, d) in depths.iter().enumerate() {
        assert!(*d <= DEPTH_SLACK, "rank {r}: split depth {d} not O(1)");
    }
}

#[test]
fn windowed_alltoall_handles_awkward_sizes_and_blocks() {
    // Sizes straddling the window boundary (w-1, w, w+1, 2w+3) and
    // multi-element blocks: the windowed engine must stay a transpose.
    for n in [
        COLL_ISSUE_WINDOW - 1,
        COLL_ISSUE_WINDOW,
        COLL_ISSUE_WINDOW + 1,
        2 * COLL_ISSUE_WINDOW + 3,
    ] {
        Universe::run(
            n,
            BuildConfig::ch4_default(),
            ProviderProfile::infinite(),
            Topology::single_node(n),
            move |proc| {
                let world = proc.world();
                let rank = world.rank();
                let block = 3;
                let send: Vec<i64> = (0..n * block).map(|j| (rank * 10_000 + j) as i64).collect();
                let out = world.alltoall(&send, block).unwrap();
                for src in 0..n {
                    for e in 0..block {
                        assert_eq!(
                            out[src * block + e],
                            (src * 10_000 + rank * block + e) as i64,
                            "n={n} rank={rank} src={src}"
                        );
                    }
                }
            },
        );
    }
}
