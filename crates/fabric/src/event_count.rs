//! The event count: the one primitive blocked callers sleep on.
//!
//! An epoch that only grows and a count of the threads about to sleep on
//! it. Whoever completes something *bumps*: it adds one to the epoch, then
//! reads the waiter count. Whoever wants to sleep *parks*: it adds itself
//! to the waiter count, then reads the epoch again. Both pairs are
//! `SeqCst`, so in the single order of those four accesses either the
//! bumper's read comes after the waiter's add — it sees a waiter and goes
//! to wake it — or the waiter's read comes after the bumper's add — it sees
//! the epoch moved and does not sleep. They cannot both miss each other.
//!
//! What that buys: a bump that finds the count at zero is an atomic add and
//! a load. Only a bump that finds a waiter takes the lock and notifies the
//! condvar — the system call. On the message path nobody is asleep almost
//! always (a rank whose message is about to arrive is still polling), so a
//! delivery costs no kernel entry; `std`'s condvar, notified
//! unconditionally, made one per message.

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// See the [module docs](self).
#[derive(Debug)]
pub(crate) struct EventCount {
    epoch: AtomicU64,
    /// Threads between the start of [`park`](Self::park) and its return.
    waiters: AtomicUsize,
    /// Held by a waiter from its last look at the epoch until the condvar
    /// wait releases it, and taken by a notifier before it notifies: a
    /// waiter that has counted itself is then either not yet past that
    /// look (and will see the new epoch) or already inside the wait (and
    /// will hear the notify).
    lock: Mutex<()>,
    cv: Condvar,
}

impl EventCount {
    pub(crate) const fn new() -> Self {
        EventCount {
            epoch: AtomicU64::new(0),
            waiters: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// The current epoch. Read it *before* polling for whatever the next
    /// [`park`](Self::park) is to wait for.
    #[inline]
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Announce an event: advance the epoch and wake whoever sleeps on it.
    /// Returns whether anybody had to be notified.
    #[inline]
    pub(crate) fn bump(&self) -> bool {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        self.notify()
    }

    /// Wake the waiters; whether anybody had to be notified.
    #[inline]
    fn notify(&self) -> bool {
        if self.waiters.load(Ordering::SeqCst) == 0 {
            return false;
        }
        drop(self.lock.lock());
        self.cv.notify_all();
        true
    }

    /// Count (`on`) or stop counting one more waiter without parking here:
    /// a thread that sleeps elsewhere but must hear about this event's
    /// bumps, which then take the notifying path.
    #[inline]
    pub(crate) fn watch(&self, on: bool) {
        if on {
            self.waiters.fetch_add(1, Ordering::SeqCst);
        } else {
            self.waiters.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Threads currently parked or about to be (tests use it as the barrier
    /// "the waiter is in").
    #[cfg(test)]
    pub(crate) fn waiters(&self) -> usize {
        self.waiters.load(Ordering::SeqCst)
    }

    /// Sleep until notified or until `timeout` has passed, unless `still`
    /// — "what I polled for has not happened": normally `epoch() == seen`
    /// — is already false. Returns `true` if the sleep ran its full time.
    /// A return says nothing about the event (waits wake spuriously):
    /// poll again.
    pub(crate) fn park(&self, still: impl FnOnce() -> bool, timeout: Duration) -> bool {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let mut guard = self.lock.lock();
        let timed_out = still() && self.cv.wait_for(&mut guard, timeout).timed_out();
        drop(guard);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        timed_out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bump_without_a_waiter_notifies_nobody() {
        let ec = EventCount::new();
        assert!(!ec.bump());
        assert!(!ec.notify());
        assert_eq!(ec.epoch(), 1);
    }

    #[test]
    fn a_stale_epoch_does_not_sleep() {
        let ec = EventCount::new();
        let seen = ec.epoch();
        ec.bump();
        assert!(!ec.park(|| ec.epoch() == seen, Duration::from_secs(5)));
        assert_eq!(ec.waiters(), 0);
    }

    #[test]
    fn an_unmoved_epoch_sleeps_out_the_timeout() {
        let ec = EventCount::new();
        let seen = ec.epoch();
        assert!(ec.park(|| ec.epoch() == seen, Duration::from_millis(5)));
    }

    #[test]
    fn a_counted_waiter_is_notified() {
        let ec = Arc::new(EventCount::new());
        let seen = ec.epoch();
        let waiter = {
            let ec = ec.clone();
            std::thread::spawn(move || ec.park(|| ec.epoch() == seen, Duration::from_secs(5)))
        };
        while ec.waiters() == 0 {
            std::thread::yield_now();
        }
        assert!(ec.bump(), "a counted waiter must be notified");
        assert!(!waiter.join().unwrap(), "the waiter slept out its timeout");
    }

    /// Lost-wake stress: every bump must reach every waiter. A bumper does
    /// not bump again until all waiters have reported the epoch it made, so
    /// each round ends with waiters going to sleep while the next bump is
    /// on its way — the window the counting has to close — and a wake-up
    /// lost in it is not papered over by later traffic: the sleeper runs
    /// out its 5 s and the test fails. The reports come back over a second
    /// event count, which the bumpers sleep on in the same way (so nobody
    /// spins, and the tests running beside this one keep their CPU).
    #[test]
    fn event_count_stress_no_wake_is_lost() {
        const BUMPERS: usize = 4;
        const WAITERS: usize = 4;
        const BUMPS: u64 = 100_000;
        const TOTAL: u64 = BUMPERS as u64 * BUMPS;
        const LIMIT: Duration = Duration::from_secs(5);
        let (ec, reports) = (EventCount::new(), EventCount::new());
        let reported: Vec<AtomicU64> = (0..WAITERS).map(|_| AtomicU64::new(0)).collect();
        // Somebody slept out LIMIT. Whoever did records it and leaves
        // instead of panicking, so the threads waiting for it can leave too
        // and the failure is an assertion, not a hang.
        let lost = AtomicU64::new(0);
        // Sleep on `on` until it moves past `seen`. Giving the CPU away
        // between the look at the epoch and the sleep hands the other side
        // the window in which a wake-up could be lost. (It is what catches
        // a waiter that counts itself too late.)
        let sleep = |on: &EventCount, seen: u64| {
            let still = || {
                let still = on.epoch() == seen;
                std::thread::yield_now();
                still
            };
            if on.park(still, LIMIT) {
                lost.fetch_add(1, Ordering::SeqCst);
            }
        };
        let ok = || lost.load(Ordering::SeqCst) == 0;
        std::thread::scope(|s| {
            for mine in &reported {
                s.spawn(|| {
                    let mut seen = 0;
                    while seen < TOTAL && ok() {
                        sleep(&ec, seen);
                        let now = ec.epoch();
                        assert!(now >= seen, "the epoch went backwards");
                        mine.store(now, Ordering::SeqCst);
                        reports.bump();
                        seen = now;
                    }
                });
            }
            for _ in 0..BUMPERS {
                s.spawn(|| {
                    for _ in 0..BUMPS {
                        ec.bump();
                        let made = ec.epoch();
                        loop {
                            let seen = reports.epoch();
                            if reported.iter().all(|r| r.load(Ordering::SeqCst) >= made) {
                                break;
                            }
                            if !ok() {
                                return;
                            }
                            sleep(&reports, seen);
                        }
                    }
                });
            }
        });
        assert!(ok(), "lost wake-up: a thread slept out its {LIMIT:?}");
        assert_eq!(ec.epoch(), TOTAL);
        assert_eq!((ec.waiters(), reports.waiters()), (0, 0));
    }
}
