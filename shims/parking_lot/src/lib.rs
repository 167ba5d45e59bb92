//! Offline stand-in for the `parking_lot` crate.
//!
//! The build environment cannot reach a crates registry, so the workspace
//! vendors the *subset* of `parking_lot`'s API it actually uses as a thin
//! wrapper over `std::sync`. Semantics match parking_lot where it matters
//! here: `lock()` returns a guard directly (poisoning is swallowed — a
//! panicking rank already fails its test), condvars require the guard they
//! are paired with, and all types are `const`-constructible.
//!
//! Debug builds also count the guards alive on each thread
//! ([`live_guards`]): a runtime that switches user-level tasks on one
//! thread asserts the count is zero at every switch, because a task that
//! switched away holding a lock would leave it held for whoever runs next.

#![warn(missing_docs)]

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::PoisonError;
use std::time::Duration;

#[cfg(debug_assertions)]
thread_local! {
    static LIVE: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Guards (mutex and rwlock, of any lock) alive on the calling thread.
/// Always 0 in release builds, which do not count.
#[inline]
pub fn live_guards() -> usize {
    #[cfg(debug_assertions)]
    return LIVE.with(std::cell::Cell::get);
    #[cfg(not(debug_assertions))]
    0
}

#[inline]
fn note_guard(_delta: isize) {
    #[cfg(debug_assertions)]
    LIVE.with(|n| n.set(n.get().wrapping_add_signed(_delta)));
}

/// A mutual-exclusion primitive (`parking_lot::Mutex` API shape).
#[derive(Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// RAII guard for [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    // `Option` so a `Condvar` can temporarily take the inner std guard
    // while waiting; always `Some` outside `Condvar::wait*`.
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Create a mutex in an unlocked state.
    #[inline]
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consume the mutex, returning the underlying data.
    #[inline]
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the mutex, blocking until it is available.
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let inner = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        note_guard(1);
        MutexGuard { inner: Some(inner) }
    }

    /// Attempt to acquire the mutex without blocking.
    #[inline]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = match self.0.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return None,
        };
        note_guard(1);
        Some(MutexGuard { inner: Some(inner) })
    }

    /// Mutable access without locking (requires exclusive borrow).
    #[inline]
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_tuple("Mutex").field(&&*g).finish(),
            None => f.write_str("Mutex(<locked>)"),
        }
    }
}

impl<'a, T: ?Sized> Deref for MutexGuard<'a, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        self.inner
            .as_ref()
            .expect("guard taken during condvar wait")
    }
}

impl<'a, T: ?Sized> DerefMut for MutexGuard<'a, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        self.inner
            .as_mut()
            .expect("guard taken during condvar wait")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        note_guard(-1);
    }
}

/// A condition variable paired with [`Mutex`] (`parking_lot::Condvar` API).
///
/// Like the crate it stands in for, a notify that finds nobody waiting is
/// one load: `std`'s futex condvar enters the kernel on every notify, so
/// the shim counts its waiters and asks first.
#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
    /// Threads inside `wait` / `wait_for`. Raised while the caller still
    /// holds its guard and lowered after the wait has it back, so a
    /// notifier that changed the shared state under the same mutex either
    /// ran before the waiter looked (the waiter sees the change and does
    /// not wait) or reads a count that includes it.
    waiters: AtomicUsize,
}

/// Result of a timed wait: reports whether the wait timed out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// `true` if the wait ended because the timeout elapsed.
    #[inline]
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

impl Condvar {
    /// Create a condition variable.
    #[inline]
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
            waiters: AtomicUsize::new(0),
        }
    }

    /// Block until notified, releasing the guard's mutex while parked.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.inner.take().expect("nested condvar wait");
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let inner = self
            .inner
            .wait(inner)
            .unwrap_or_else(PoisonError::into_inner);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        guard.inner = Some(inner);
    }

    /// Block until notified or `timeout` elapses.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let inner = guard.inner.take().expect("nested condvar wait");
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let (inner, result) = self
            .inner
            .wait_timeout(inner, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        guard.inner = Some(inner);
        WaitTimeoutResult(result.timed_out())
    }

    /// Wake one parked waiter. One load when nobody waits.
    #[inline]
    pub fn notify_one(&self) {
        if self.waiters.load(Ordering::SeqCst) != 0 {
            self.inner.notify_one();
        }
    }

    /// Wake every parked waiter. One load when nobody waits.
    #[inline]
    pub fn notify_all(&self) {
        if self.waiters.load(Ordering::SeqCst) != 0 {
            self.inner.notify_all();
        }
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar")
    }
}

/// A reader-writer lock (`parking_lot::RwLock` API shape).
#[derive(Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

/// Shared-access guard for [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized>(std::sync::RwLockReadGuard<'a, T>);

/// Exclusive-access guard for [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized>(std::sync::RwLockWriteGuard<'a, T>);

impl<T> RwLock<T> {
    /// Create an unlocked rwlock.
    #[inline]
    pub const fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire shared read access.
    #[inline]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let inner = self.0.read().unwrap_or_else(PoisonError::into_inner);
        note_guard(1);
        RwLockReadGuard(inner)
    }

    /// Acquire exclusive write access.
    #[inline]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let inner = self.0.write().unwrap_or_else(PoisonError::into_inner);
        note_guard(1);
        RwLockWriteGuard(inner)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0.try_read() {
            Ok(g) => f.debug_tuple("RwLock").field(&&*g).finish(),
            Err(_) => f.write_str("RwLock(<locked>)"),
        }
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        note_guard(-1);
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        note_guard(-1);
    }
}

impl<'a, T: ?Sized> Deref for RwLockReadGuard<'a, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<'a, T: ?Sized> Deref for RwLockWriteGuard<'a, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<'a, T: ?Sized> DerefMut for RwLockWriteGuard<'a, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_lock_and_mutate() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = pair.clone();
        let t = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut g = m.lock();
            while !*g {
                cv.wait(&mut g);
            }
        });
        std::thread::sleep(Duration::from_millis(5));
        *pair.0.lock() = true;
        pair.1.notify_all();
        t.join().unwrap();
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let r = cv.wait_for(&mut g, Duration::from_millis(5));
        assert!(r.timed_out());
    }

    #[test]
    fn notify_without_a_waiter_is_not_stored() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        cv.notify_one();
        cv.notify_all();
        let mut g = m.lock();
        assert!(cv.wait_for(&mut g, Duration::from_millis(5)).timed_out());
        assert_eq!(cv.waiters.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn parked_waiter_is_counted_and_woken() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = pair.clone();
        let t = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut g = m.lock();
            while !*g {
                let r = cv.wait_for(&mut g, Duration::from_secs(5));
                assert!(!r.timed_out(), "the notify was skipped or lost");
            }
        });
        let (m, cv) = &*pair;
        // The count is raised under the waiter's guard, so once it reads 1
        // and the mutex can be taken, the waiter is inside the wait.
        while cv.waiters.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        *m.lock() = true;
        cv.notify_one();
        t.join().unwrap();
        assert_eq!(cv.waiters.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn guards_are_counted_per_thread() {
        let (m, l) = (Mutex::new(0), RwLock::new(0));
        let base = live_guards();
        let g = m.lock();
        let r = l.read();
        assert_eq!(
            live_guards(),
            base + 2 * usize::from(cfg!(debug_assertions))
        );
        assert!(m.try_lock().is_none());
        drop((g, r));
        assert_eq!(live_guards(), base);
        drop(m.try_lock().expect("free again"));
        drop(l.write());
        assert_eq!(live_guards(), base);
    }

    #[test]
    fn rwlock_shared_then_exclusive() {
        let l = RwLock::new(7);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(*a + *b, 14);
        }
        *l.write() = 9;
        assert_eq!(*l.read(), 9);
    }
}
