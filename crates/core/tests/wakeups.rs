//! Every completion a rank can wait on raises an event on its endpoint.
//!
//! A blocked rank sleeps until an event or a timer: nothing else ends the
//! sleep. Each test here parks a rank on its own thread
//! (`MPI_THREAD_MULTIPLE` gives every rank one) on a completion that
//! arrives without a message for it — a lock word freed by a remote
//! `unlock`, a peer's death, a message its sender's reorder stash holds
//! back, a revocation by a sibling thread — and sends the
//! waiter nothing else until it has woken. A completion nobody announced
//! leaves the rank asleep, so each test runs under a deadline that fails
//! it by name instead of hanging the suite (debug builds fail sooner: a
//! wait that completes after a one-second sleep no event ended is a
//! lost wake-up, and asserts).

use litempi_core::{BuildConfig, Errhandler, LockType, MpiError, Process, Universe, Window};
use litempi_fabric::{FaultPlan, FaultSpec, ProviderProfile, Topology};
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::Duration;

/// Longer than any of these jobs takes when every wake-up arrives.
const DEADLINE: Duration = Duration::from_secs(20);

/// How long a peer waits before it acts, so that the waiter is asleep by
/// then (it sleeps after 64 fruitless polls).
const PARKED: Duration = Duration::from_millis(20);

/// Run `body` on a thread of its own; fail as `name` if it has not
/// returned within [`DEADLINE`].
fn within_deadline(name: &str, body: impl FnOnce() + Send + 'static) {
    let (done, finished) = channel();
    let job = std::thread::spawn(move || {
        body();
        let _ = done.send(());
    });
    match finished.recv_timeout(DEADLINE) {
        Ok(()) => job.join().unwrap(),
        Err(RecvTimeoutError::Disconnected) => {
            if let Err(panic) = job.join() {
                std::panic::resume_unwind(panic);
            }
        }
        Err(RecvTimeoutError::Timeout) => {
            panic!("{name}: still waiting after {DEADLINE:?}, a wake-up was lost")
        }
    }
}

/// `n` ranks, each on a thread of its own.
fn run<T: Send>(
    n: usize,
    profile: ProviderProfile,
    f: impl Fn(Process) -> T + Send + Sync,
) -> Vec<T> {
    Universe::run(
        n,
        BuildConfig::ch4_thread_multiple(),
        profile,
        Topology::single_node(n),
        f,
    )
}

/// Rank 0 parks in `lock` on the word rank 1 holds; rank 1 frees it with
/// `unlock` and then waits for rank 0, so only the release can wake it.
#[test]
fn a_lock_freed_by_a_remote_unlock_wakes_its_waiter() {
    within_deadline("lock word", || {
        run(2, ProviderProfile::infinite(), |proc| {
            let world = proc.world();
            let win = Window::create(&world, 8, 1).unwrap();
            if proc.rank() == 1 {
                win.lock(LockType::Exclusive, 0).unwrap();
            }
            world.barrier().unwrap();
            if proc.rank() == 0 {
                win.lock(LockType::Exclusive, 0).unwrap();
                win.unlock(0).unwrap();
                world.send(&[1u8], 1, 0).unwrap();
            } else {
                std::thread::sleep(PARKED);
                win.unlock(0).unwrap();
                world.recv_into(&mut [0u8], 0, 0).unwrap();
            }
            win.free().unwrap();
        });
    });
}

/// Rank 0 parks in `recv` from rank 1. Rank 1's one packet goes to rank 2
/// and trips its kill switch (no fault but the switch itself):
/// rank 0 hears of the death only through the kill switch's event.
#[test]
fn a_receiver_parked_on_a_peer_wakes_when_its_kill_switch_trips() {
    within_deadline("kill switch", || {
        let profile = ProviderProfile::infinite().with_faults(FaultPlan::none().with_kill(1, 1));
        let out = run(3, profile, |proc| {
            let world = proc.world();
            world.set_errhandler(Errhandler::ErrorsReturn);
            if proc.rank() == 1 {
                std::thread::sleep(PARKED);
                return world.send(&[1u8], 2, 0);
            }
            world.recv_into(&mut [0u8], 1, 0).map(drop)
        });
        assert!(
            matches!(out[0], Err(MpiError::PeerUnreachable { peer: 1 })),
            "{:?}",
            out[0]
        );
        assert!(out[1].is_ok() && out[2].is_ok(), "{out:?}");
    });
}

/// Rank 1 sends while rank 0 is parked in `recv`, then waits for an
/// answer. About a third of the packets, data and ACKs alike, wait in
/// their sender's reorder stash for its next tick: rank 1's message
/// reaches rank 0 only through rank 1's progress in its own wait, and an
/// ACK that rank 0's thread sends on rank 1's behalf waits in rank 1's
/// stash, which the stash's event must wake rank 1 for.
#[test]
fn a_receiver_wakes_for_a_message_its_senders_reorder_stash_holds_back() {
    within_deadline("reorder stash", || {
        let profile = ProviderProfile::infinite()
            .with_faults(FaultPlan::uniform(7, FaultSpec::percent(0, 0, 30, 0)))
            .reliable();
        run(2, profile, |proc| {
            let world = proc.world();
            for round in 0..16u32 {
                let tag = round as i32;
                let mut got = [0u32];
                if proc.rank() == 0 {
                    world.recv_into(&mut got, 1, tag).unwrap();
                    world.send(&got, 1, tag).unwrap();
                } else {
                    std::thread::sleep(PARKED / 4);
                    world.send(&[round], 0, tag).unwrap();
                    world.recv_into(&mut got, 0, tag).unwrap();
                }
                assert_eq!(got, [round]);
            }
        });
    });
}

/// A helper thread of rank 0 parks in `recv` on a communicator that rank
/// 0's main thread then revokes: the revocation is local state of the
/// rank (the notice goes out to rank 1, and nothing comes back), so the
/// helper hears of it only through the event `revoke` raises.
#[test]
fn a_helper_parked_in_recv_wakes_when_a_sibling_revokes_the_communicator() {
    within_deadline("revocation", || {
        run(2, ProviderProfile::infinite(), |proc| {
            let world = proc.world();
            let comm = world.dup();
            comm.set_errhandler(Errhandler::ErrorsReturn);
            if proc.rank() == 1 {
                // Rank 0's answer comes once its helper has woken.
                world.recv_into(&mut [0u8], 0, 0).unwrap();
                return;
            }
            std::thread::scope(|s| {
                let helper = s.spawn(|| comm.recv_into(&mut [0u8], 1, 0));
                std::thread::sleep(PARKED);
                comm.revoke();
                let got = helper.join().unwrap();
                assert!(matches!(got, Err(MpiError::Revoked)), "{got:?}");
            });
            world.send(&[1u8], 1, 0).unwrap();
        });
    });
}
