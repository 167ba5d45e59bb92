//! A warm passive-target epoch allocates nothing on the origin: no staged
//! copy of a put, no wire vector for a get, no result vector for
//! `fetch_and_op`, no queue node. Checked twice — by the library's own
//! payload-allocation counter and by a counting global allocator, which is
//! why this test has a binary to itself.

use litempi_core::{BuildConfig, LockType, Op, Universe, Window};
use litempi_fabric::{ProviderProfile, Topology};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

#[global_allocator]
static GLOBAL: counting_alloc::Counting = counting_alloc::Counting;

const KIB: usize = 128; // u64 words

/// The benchmark's `rma_mix` passive epoch.
fn epoch(win: &Window, kib: &[u64], got: &mut [u64], round: u64) {
    win.lock(LockType::Shared, 1).unwrap();
    for k in 0..6 {
        win.put(&[round * 8 + k], 1, k as usize).unwrap();
    }
    win.put(kib, 1, 8).unwrap();
    win.flush(1).unwrap();
    win.get(got, 1, 8).unwrap();
    win.fetch_and_op(1u64, 1, 7, &Op::Sum).unwrap();
    win.unlock(1).unwrap();
}

#[test]
fn warm_passive_epoch_allocates_nothing() {
    for profile in [ProviderProfile::infinite(), ProviderProfile::ofi()] {
        Universe::run(
            2,
            BuildConfig::ch4_default(),
            profile,
            Topology::single_node(2),
            |proc| {
                let world = proc.world();
                let win = Window::create(&world, (8 + KIB) * 8, 8).unwrap();
                world.barrier().unwrap();
                if proc.rank() == 0 {
                    let kib: Vec<u64> = (0..KIB as u64).collect();
                    let mut got = vec![0u64; KIB];
                    epoch(&win, &kib, &mut got, 0);
                    epoch(&win, &kib, &mut got, 1);
                    let modelled = litempi_instr::alloc_count();
                    let real = counting_alloc::allocs();
                    epoch(&win, &kib, &mut got, 2);
                    let real = counting_alloc::allocs() - real;
                    assert_eq!(litempi_instr::alloc_count() - modelled, 0);
                    assert_eq!(real, 0, "heap allocations in a warm passive epoch");
                    assert_eq!(got, kib);
                }
                world.barrier().unwrap();
                if proc.rank() == 1 {
                    let word =
                        |w: usize| u64::from_le_bytes(win.read_local(w * 8, 8).try_into().unwrap());
                    assert_eq!(word(5), 2 * 8 + 5, "the last epoch's put");
                    assert_eq!(word(7), 3, "one fetch_and_op per epoch");
                }
                world.barrier().unwrap();
            },
        );
    }
}
