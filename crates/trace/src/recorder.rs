//! Per-rank ring-buffer recorders.
//!
//! The recorder lives in thread-local storage and belongs to the rank that
//! runs on the thread; a rank that runs as a user-level task takes it along
//! when it switches out ([`swap_recorder`]). Recording is lock-free by
//! construction (a plain store into a preallocated ring) and two ranks can
//! never contend. The ring has fixed capacity; when full it overwrites the
//! oldest event and counts the casualty, so a hot loop can never be
//! blocked — or slowed by an allocator call — by its own observability.

use crate::event::{EventKind, TraceEvent};
use std::cell::RefCell;
use std::time::Instant;

/// Tracing opt-in carried by the provider profile.
///
/// `Copy` and `const`-constructible so profiles stay `const` — the same
/// contract as `FaultPlan::NONE` and `ReliabilityConfig::OFF`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch. Hoisted into a plain bool at endpoint construction
    /// so a disabled trace costs one predictable branch per event site.
    pub enabled: bool,
    /// Events retained per rank before drop-oldest kicks in.
    pub ring_capacity: usize,
}

impl TraceConfig {
    /// Default ring size: enough for the microbenchmarks' full event
    /// streams without drops.
    pub const DEFAULT_CAPACITY: usize = 64 * 1024;

    /// Tracing disabled — the default on every provider profile.
    pub const OFF: TraceConfig = TraceConfig {
        enabled: false,
        ring_capacity: 0,
    };

    /// Tracing enabled with the default ring capacity.
    pub const fn on() -> TraceConfig {
        TraceConfig {
            enabled: true,
            ring_capacity: TraceConfig::DEFAULT_CAPACITY,
        }
    }

    /// Tracing enabled with an explicit per-rank ring capacity.
    pub const fn with_capacity(ring_capacity: usize) -> TraceConfig {
        TraceConfig {
            enabled: true,
            ring_capacity,
        }
    }
}

/// Everything one rank recorded: its drained events (oldest first) and
/// how many were overwritten by drop-oldest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankTrace {
    /// World rank that produced these events.
    pub rank: usize,
    /// Events in recording order (oldest surviving event first).
    pub events: Vec<TraceEvent>,
    /// Events overwritten because the ring was full.
    pub dropped: u64,
}

struct Ring {
    buf: Vec<TraceEvent>,
    capacity: usize,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    dropped: u64,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        Ring {
            buf: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            dropped: 0,
        }
    }

    #[inline]
    fn push(&mut self, ev: TraceEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() < self.capacity {
            // Still filling the preallocated region: push never
            // reallocates because len < capacity.
            self.buf.push(ev);
        } else {
            // Full: overwrite the oldest slot (drop-oldest).
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    fn drain(mut self) -> (Vec<TraceEvent>, u64) {
        // Rotate so the oldest surviving event comes first.
        self.buf.rotate_left(self.head);
        (self.buf, self.dropped)
    }
}

struct Recorder {
    rank: usize,
    /// The fabric's creation instant: every rank stamps events against
    /// the same epoch, so tracks align in the merged timeline.
    epoch: Instant,
    ring: Ring,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// One rank's recorder while another rank runs on its thread: what
/// [`swap_recorder`] exchanges. `Default` is a rank with none armed.
#[derive(Default)]
pub struct SavedRecorder(Option<Recorder>);

/// Exchange the calling thread's recorder with `saved` (a task runtime
/// switching ranks on one thread).
pub fn swap_recorder(saved: &mut SavedRecorder) {
    RECORDER.with(|r| std::mem::swap(&mut *r.borrow_mut(), &mut saved.0));
}

/// Arm this thread's recorder. Called once per rank when the
/// provider profile opts into tracing; allocates the ring up front so no
/// event site ever allocates. `epoch` is the shared clock origin
/// (the fabric's creation instant) events are stamped against.
pub fn enable(rank: usize, ring_capacity: usize, epoch: Instant) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            rank,
            epoch,
            ring: Ring::new(ring_capacity),
        });
    });
}

/// True if this thread currently records events.
pub fn is_enabled() -> bool {
    RECORDER.try_with(|r| r.borrow().is_some()).unwrap_or(false)
}

/// Record one event with an explicit timestamp. A no-op (single branch)
/// when this thread has no armed recorder; never allocates, never blocks.
#[inline]
pub fn record(ev: TraceEvent) {
    let _ = RECORDER.try_with(|r| {
        if let Ok(mut guard) = r.try_borrow_mut() {
            if let Some(rec) = guard.as_mut() {
                rec.ring.push(ev);
            }
        }
    });
}

/// Record one event stamped with the recorder's shared clock — the form
/// the event sites in the fabric and core use, so they never need clock
/// plumbing of their own. Same guarantees as [`record`].
#[inline]
pub fn emit(kind: EventKind, a: u64, b: u64) {
    let _ = RECORDER.try_with(|r| {
        if let Ok(mut guard) = r.try_borrow_mut() {
            if let Some(rec) = guard.as_mut() {
                let ts_ns = rec.epoch.elapsed().as_nanos() as u64;
                rec.ring.push(TraceEvent::new(ts_ns, kind, a, b));
            }
        }
    });
}

/// Disarm this thread's recorder and return what it captured, or `None`
/// if tracing was never enabled here.
pub fn drain() -> Option<RankTrace> {
    RECORDER.with(|r| {
        r.borrow_mut().take().map(|rec| {
            let (events, dropped) = rec.ring.drain();
            RankTrace {
                rank: rec.rank,
                events,
                dropped,
            }
        })
    })
}

/// Disarm this thread's recorder, discarding anything captured.
pub fn disable() {
    RECORDER.with(|r| {
        *r.borrow_mut() = None;
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(ts: u64) -> TraceEvent {
        TraceEvent::new(ts, EventKind::SendBegin, ts, 0)
    }

    #[test]
    fn default_profile_has_tracing_off() {
        let off = TraceConfig::OFF;
        assert!(!off.enabled);
        assert!(TraceConfig::on().enabled);
        assert_eq!(
            TraceConfig::on().ring_capacity,
            TraceConfig::DEFAULT_CAPACITY
        );
    }

    #[test]
    fn record_without_enable_is_a_noop() {
        disable();
        record(ev(1));
        assert!(drain().is_none());
    }

    #[test]
    fn ring_keeps_events_in_order() {
        enable(3, 16, Instant::now());
        for t in 0..10 {
            record(ev(t));
        }
        let tr = drain().unwrap();
        assert_eq!(tr.rank, 3);
        assert_eq!(tr.dropped, 0);
        let ts: Vec<u64> = tr.events.iter().map(|e| e.ts_ns).collect();
        assert_eq!(ts, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn full_ring_drops_oldest_and_counts_casualties() {
        enable(0, 8, Instant::now());
        for t in 0..20 {
            record(ev(t));
        }
        let tr = drain().unwrap();
        // The 12 oldest events were overwritten; the 8 newest survive,
        // still in order.
        assert_eq!(tr.dropped, 12);
        let ts: Vec<u64> = tr.events.iter().map(|e| e.ts_ns).collect();
        assert_eq!(ts, (12..20).collect::<Vec<_>>());
    }

    #[test]
    fn ring_never_reallocates_after_enable() {
        enable(0, 4, Instant::now());
        RECORDER.with(|r| {
            let guard = r.borrow();
            let rec = guard.as_ref().unwrap();
            assert_eq!(rec.ring.buf.capacity(), 4);
        });
        for t in 0..100 {
            record(ev(t));
        }
        RECORDER.with(|r| {
            let guard = r.borrow();
            let rec = guard.as_ref().unwrap();
            // Capacity untouched: overwrites, not growth.
            assert_eq!(rec.ring.buf.capacity(), 4);
        });
        drain();
    }

    #[test]
    fn a_swapped_out_recorder_keeps_its_events() {
        enable(1, 8, Instant::now());
        record(ev(1));
        let mut saved = SavedRecorder::default();
        swap_recorder(&mut saved);
        assert!(!is_enabled());
        record(ev(2));
        swap_recorder(&mut saved);
        let tr = drain().unwrap();
        assert_eq!((tr.rank, tr.events.len()), (1, 1));
    }

    #[test]
    fn zero_capacity_ring_counts_everything_as_dropped() {
        enable(0, 0, Instant::now());
        for t in 0..5 {
            record(ev(t));
        }
        let tr = drain().unwrap();
        assert!(tr.events.is_empty());
        assert_eq!(tr.dropped, 5);
    }
}
