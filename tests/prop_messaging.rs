//! Property tests across the full stack: random message patterns must be
//! delivered intact, in order per (source, tag), on every provider.

use litempi::prelude::*;
use proptest::prelude::*;

/// A randomly generated traffic script: (payload_len, tag) per message.
fn arb_script() -> impl Strategy<Value = Vec<(usize, i32)>> {
    proptest::collection::vec((0usize..512, 0i32..8), 1..24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Deliveries preserve content and per-(src,tag) order for arbitrary
    /// interleavings of sizes and tags, on the native-matching provider.
    #[test]
    fn random_traffic_native(script in arb_script(), seed in any::<u64>()) {
        run_script(&script, seed, ProviderProfile::infinite());
    }

    /// Same property through the CH4 active-message fallback matcher.
    #[test]
    fn random_traffic_am_only(script in arb_script(), seed in any::<u64>()) {
        run_script(&script, seed, ProviderProfile::am_only());
    }

    /// Same property on reliable links whose reorder stash lets sources
    /// overtake each other.
    #[test]
    fn random_traffic_reorder(script in arb_script(), seed in any::<u64>()) {
        let plan = FaultPlan::uniform(seed | 1, FaultSpec::percent(0, 0, 30, 0));
        run_script(&script, seed, ProviderProfile::infinite().with_faults(plan).reliable());
    }
}

fn payload(seed: u64, i: usize, len: usize) -> Vec<u8> {
    let mut x = seed ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x & 0xFF) as u8
        })
        .collect()
}

fn run_script(script: &[(usize, i32)], seed: u64, profile: ProviderProfile) {
    let script = script.to_vec();
    let ok = Universe::run(
        2,
        BuildConfig::ch4_default(),
        profile,
        Topology::single_node(2),
        move |proc| {
            let world = proc.world();
            if proc.rank() == 0 {
                // Sender: fire all messages nonblocking, then wait.
                let reqs: Vec<_> = script
                    .iter()
                    .enumerate()
                    .map(|(i, (len, tag))| world.isend(&payload(seed, i, *len), 1, *tag).unwrap())
                    .collect();
                litempi::core::waitall(reqs).unwrap();
                true
            } else {
                // Receiver: for each tag, messages must arrive in send
                // order; across tags, receive in a deterministic per-tag
                // sweep (posting by tag exercises out-of-order matching).
                let mut per_tag: Vec<Vec<usize>> = vec![Vec::new(); 8];
                for (i, (_, tag)) in script.iter().enumerate() {
                    per_tag[*tag as usize].push(i);
                }
                for (tag, idxs) in per_tag.iter().enumerate() {
                    for &i in idxs {
                        let (len, _) = script[i];
                        let mut buf = vec![0u8; len];
                        let st = world.recv_into(&mut buf, 0, tag as i32).unwrap();
                        assert_eq!(st.bytes, len, "length preserved");
                        assert_eq!(buf, payload(seed, i, len), "content preserved, msg {i}");
                    }
                }
                true
            }
        },
    );
    assert!(ok.iter().all(|&b| b));
}

// ------------------------------------------------------- collectives props

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// allreduce(SUM) equals the sequential reference for random vectors
    /// and random communicator sizes.
    #[test]
    fn allreduce_matches_reference(
        n in 1usize..6,
        values in proptest::collection::vec(-1000i64..1000, 4),
    ) {
        let vals = values.clone();
        let out = Universe::run_default(n, move |proc| {
            let world = proc.world();
            let mine: Vec<i64> =
                vals.iter().map(|v| v + proc.rank() as i64).collect();
            world.allreduce(&mine, &Op::Sum).unwrap()
        });
        let expect: Vec<i64> = (0..4)
            .map(|j| (0..n).map(|r| values[j] + r as i64).sum())
            .collect();
        for o in out {
            prop_assert_eq!(&o, &expect);
        }
    }

    /// scan is a prefix of allreduce: last rank's scan == allreduce.
    #[test]
    fn scan_prefix_property(n in 2usize..6, x in -100i64..100) {
        let out = Universe::run_default(n, move |proc| {
            let world = proc.world();
            let mine = [x + proc.rank() as i64];
            let scan = world.scan(&mine, &Op::Sum).unwrap();
            let all = world.allreduce(&mine, &Op::Sum).unwrap();
            (scan[0], all[0])
        });
        // Monotone prefix, and the last prefix equals the total.
        for w in out.windows(2) {
            let _ = w;
        }
        let total = out[0].1;
        prop_assert_eq!(out[n - 1].0, total);
        for (r, (prefix, all)) in out.iter().enumerate() {
            prop_assert_eq!(*all, total);
            let expect: i64 = (0..=r).map(|k| x + k as i64).sum();
            prop_assert_eq!(*prefix, expect);
        }
    }

    /// alltoall is its own inverse under transposition.
    #[test]
    fn alltoall_transpose_involution(n in 2usize..5, base in 0i64..100) {
        let out = Universe::run_default(n, move |proc| {
            let world = proc.world();
            let send: Vec<i64> = (0..n as i64)
                .map(|j| base + (proc.rank() as i64) * 100 + j)
                .collect();
            let once = world.alltoall(&send, 1).unwrap();
            let twice = world.alltoall(&once, 1).unwrap();
            (send, twice)
        });
        for (send, twice) in out {
            prop_assert_eq!(send, twice, "transposing twice is the identity");
        }
    }
}
