//! The waiter side of completion events: how a blocked caller polls,
//! hands its thread on, and sleeps.
//!
//! Every completion a rank can wait on raises an event on the waiter's
//! endpoint (`endpoint.rs`, "Completion events"), so a sleep ends only at
//! an event or just before one of the endpoint's timers (retransmit, owed
//! ACK, failure-detector probe); there is no time-out. Every blocking call
//! of the stack waits in [`EndpointShared::wait_until`]: poll, drive
//! progress, and then either hand the thread to another rank or sleep. A
//! rank that shares its worker thread with other ranks (`task.rs`) pauses
//! after each fruitless poll, and its worker sleeps by the same budget
//! ([`sleep_budget`]) once none of its ranks has anything to do. A rank
//! alone on its thread spins for `WAIT_SPINS` fruitless polls, then reads
//! the epoch, drives progress, polls once more and sleeps until the epoch
//! moves. A receive handle sleeps on the VCI it was posted on;
//! endpoint-wide waiters watch the summed epoch and sleep on VCI 0, which a
//! bump on any other VCI also notifies.
//!
//! **Lost wake-ups fail in debug builds.** There a sleep with no timer to
//! wake for ends after [`NO_DEADLINE`] (1 s). A wait whose sleep ran that
//! long, whose epoch has not moved, and whose next poll succeeds completed
//! without an event, unless the epoch moves within [`ANNOUNCE_GRACE`]: a
//! `debug_assert!` fails and names the wait by the source location of its
//! caller. A rank that shares its thread runs the same check when its
//! worker's sleep ran that long.

use crate::endpoint::EndpointShared;
use crate::fabric::Fabric;
use std::panic::Location;
use std::time::{Duration, Instant};

/// Fruitless polls before a blocked caller alone on its thread sleeps.
const WAIT_SPINS: u32 = 64;

/// How late a timed sleep may end (the kernel's default timer slack for a
/// normal thread is 50 µs): a sleep aimed at a timer ends this early, and
/// the caller polls its way onto the deadline.
const WAKE_SLACK_US: u64 = 60;

/// The longest sleep: until an event. Debug builds end it after a second
/// and check that nothing completed unannounced.
pub(crate) const NO_DEADLINE: Duration = if cfg!(debug_assertions) {
    Duration::from_secs(1)
} else {
    Duration::MAX
};

/// How long a caller with nothing to do may sleep, at `now`, when its
/// endpoints' next timer falls due at `due` (fabric µs): until just before
/// it, or with no timer armed [`NO_DEADLINE`]. `None`: the timer is too
/// close to sleep.
pub(crate) fn sleep_budget(due: Option<u64>, now: u64) -> Option<Duration> {
    let Some(due) = due else {
        return Some(NO_DEADLINE);
    };
    let left = due.saturating_sub(now).checked_sub(WAKE_SLACK_US)?;
    (left > 0).then(|| Duration::from_micros(left))
}

/// Debug builds: poll a wait whose sleep ran out [`NO_DEADLINE`] with its
/// epoch unmoved (`unmoved`) — it must not complete unannounced. An
/// announcer changes its state before it raises the event, so a completion
/// found here may be one whose event is on its way: the epoch gets
/// [`ANNOUNCE_GRACE`] to move before the wait is called a lost wake-up.
#[track_caller]
fn check_announced<T>(
    poll: &mut impl FnMut() -> Option<T>,
    unmoved: impl Fn() -> bool,
) -> Option<T> {
    let late = poll()?;
    let deadline = Instant::now() + ANNOUNCE_GRACE;
    while unmoved() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    debug_assert!(
        !unmoved(),
        "lost wake-up: the wait at {} completed without an event",
        Location::caller()
    );
    Some(late)
}

/// How long [`check_announced`] lets an announcer that was preempted
/// between its state change and its event finish.
const ANNOUNCE_GRACE: Duration = Duration::from_millis(200);

impl EndpointShared {
    /// The epoch a waiter watches: `vci`'s own (a receive handle, whose
    /// message can only arrive on the shard it was posted on) or, for
    /// `None`, the endpoint-wide one.
    fn epoch_of(&self, vci: Option<usize>) -> u64 {
        match vci {
            Some(vci) => self.vcis[vci].events.epoch(),
            None => self.event_epoch(),
        }
    }

    /// Sleep until the epoch `vci` names ([`Self::epoch_of`]) moves past
    /// `seen`, or `timeout` elapses; `true` if the sleep ran its full time.
    /// Endpoint-wide waiters park on VCI 0, which every multi-VCI bump also
    /// notifies.
    pub(crate) fn wait_event(&self, vci: Option<usize>, seen: u64, timeout: Duration) -> bool {
        self.vcis[vci.unwrap_or(0)]
            .events
            .park(|| self.epoch_of(vci) == seen, timeout)
    }

    /// The earliest time (fabric µs) one of this endpoint's timers falls
    /// due: a retransmit, an owed ACK or a reorder stash (due now), or a
    /// failure-detector probe or verdict. `None` when none is armed.
    pub(crate) fn next_deadline_us(&self, now: u64) -> Option<u64> {
        let health = (self.health_enabled).then(|| self.health.lock().next_deadline());
        let relia = (self.vcis.iter())
            .filter(|_| self.routed)
            .map(|v| v.relia_due_at(now));
        relia.chain(health).flatten().min()
    }

    /// The one blocking policy of the stack — see
    /// [`Endpoint::wait_until`](crate::Endpoint::wait_until), which is this
    /// on the endpoint-wide epoch.
    #[track_caller]
    pub(crate) fn wait_until<T>(
        &self,
        fabric: &Fabric,
        vci: Option<usize>,
        mut progress: impl FnMut(),
        mut poll: impl FnMut() -> Option<T>,
    ) -> T {
        let mut spins = 0u32;
        loop {
            if let Some(v) = poll() {
                return v;
            }
            progress();
            // The epoch this wait last slept on, when that sleep ran out
            // with the epoch unmoved (debug builds only).
            let silent = if crate::task::pause(spins == 0) {
                // A rank that shares its thread let another one run; the
                // first pause of a wait told the worker this rank did work.
                spins = 1;
                crate::task::slept_out().map(|seen| (None, seen))
            } else if spins < WAIT_SPINS {
                spins += 1;
                if spins & 0x3 == 0 {
                    std::thread::yield_now();
                }
                None
            } else {
                // Read the epoch, then drive progress and poll again: an
                // event from here on wakes the sleep below, and one before
                // it has left its effect for them to find — an active
                // message that arrived since the progress above is handled
                // now.
                let seen = self.epoch_of(vci);
                progress();
                if let Some(v) = poll() {
                    return v;
                }
                let now = fabric.now_us();
                let Some(timeout) = sleep_budget(self.next_deadline_us(now), now) else {
                    continue;
                };
                let slept_out = self.wait_event(vci, seen, timeout) && timeout == NO_DEADLINE;
                (slept_out && self.epoch_of(vci) == seen).then_some((vci, seen))
            };
            if let Some((vci, seen)) = silent {
                if let Some(v) = check_announced(&mut poll, || self.epoch_of(vci) == seen) {
                    return v;
                }
            }
        }
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use crate::{Fabric, NetAddr, ProviderProfile, Topology};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    /// A flag set with no event: the wait on it sleeps out the debug cap
    /// and then fails, naming itself.
    #[test]
    #[should_panic(expected = "lost wake-up: the wait at crates/fabric/src/wait.rs")]
    fn a_wait_that_completes_unannounced_fails_by_name() {
        let f = Fabric::new(1, ProviderProfile::infinite(), Topology::single_node(1));
        let ep = f.endpoint(NetAddr(0));
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                done.store(true, Ordering::Release);
            });
            ep.wait_until(|| {}, || done.load(Ordering::Acquire).then_some(()));
        });
    }
}
