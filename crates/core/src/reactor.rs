//! The completion reactor: event-driven harvesting for the DLFS engine.
//!
//! The pre-reactor engine busy-polled every qpair on every scheduling
//! quantum, whether or not anything could possibly complete. This module
//! provides the two pieces that turn that loop into an event-driven one
//! without changing a single observable timestamp:
//!
//! * [`CompletionClock`] — a [`blocksim::CompletionHook`] attached to every
//!   qpair the engine owns. Each `submit` reports its completion instant,
//!   so the engine always knows the earliest moment *any* in-flight
//!   command can finish and never spins a poll iteration before it.
//! * [`ReactorStats`] — wakeups / doorbells / parked-time counters. They
//!   are registered under `dlfs.reactor.*` only when
//!   [`crate::DlfsConfig::reactor_stats`] is set; otherwise they stay
//!   unregistered so default telemetry reports stay byte-stable.
//!
//! The clock is advisory by construction: entries are validated lazily
//! against the qpair's own `next_completion_at()` before use, so a stale
//! entry (its command already harvested) can never mis-time the engine —
//! at worst it is popped and the next one consulted.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use blocksim::CompletionHook;
use simkit::plock::Mutex;
use simkit::telemetry::{Counter, Registry};
use simkit::time::{Dur, Time};

/// Min-heap of `(completion instant, qpair tag)` fed by qpair submits.
///
/// One clock is shared (via `Arc`) by every qpair of a `DlfsIo` engine;
/// the tag is the engine's qpair index. Entries are *not* removed at
/// harvest time — [`CompletionClock::next_due`] drops stale heads lazily
/// by comparing against the authoritative per-qpair
/// `next_completion_at()`.
#[derive(Debug, Default)]
pub struct CompletionClock {
    heap: Mutex<BinaryHeap<Reverse<(Time, usize)>>>,
}

impl CompletionClock {
    pub fn new() -> Arc<CompletionClock> {
        Arc::new(CompletionClock::default())
    }

    /// Earliest valid completion instant across all hooked qpairs.
    ///
    /// `actual` maps a qpair tag to that qpair's current
    /// `next_completion_at()`. A head entry is valid only when it matches
    /// exactly; everything else is a leftover from an already-harvested
    /// command and is discarded. (A head *earlier* than the qpair's actual
    /// next completion is always stale: every submit pushes an entry, so
    /// the instant of a still-pending command is present in the heap.)
    pub fn next_due(&self, mut actual: impl FnMut(usize) -> Option<Time>) -> Option<Time> {
        let mut heap = self.heap.lock();
        while let Some(Reverse((done, tag))) = heap.peek().copied() {
            if actual(tag) == Some(done) {
                return Some(done);
            }
            heap.pop();
        }
        None
    }

    /// Entries currently in the heap (valid and stale alike).
    pub fn len(&self) -> usize {
        self.heap.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.lock().is_empty()
    }
}

impl CompletionHook for CompletionClock {
    fn on_submit(&self, tag: usize, done: Time) {
        self.heap.lock().push(Reverse((done, tag)));
    }
}

/// Reactor activity counters.
///
/// * `wakeups` — times the engine advanced the clock to a known event
///   (completion instant or delayed-retry deadline) instead of spinning
///   poll iterations toward it.
/// * `doorbells` — submission-queue doorbell flushes (one per batch of
///   staged submissions, not one per command).
/// * `parked_ns` — virtual nanoseconds spent parked (idle) with zero
///   commands in flight, rather than hot-polling.
#[derive(Clone, Debug)]
pub(crate) struct ReactorStats {
    pub wakeups: Counter,
    pub doorbells: Counter,
    pub parked_ns: Counter,
}

impl ReactorStats {
    /// Bind under `dlfs.reactor.*` in `reg` when `publish` is set;
    /// otherwise leave the counters unregistered (counted but unreported).
    pub fn new(reg: &Registry, publish: bool) -> ReactorStats {
        let scope = publish.then(|| reg.scoped("dlfs.reactor"));
        let counter = |name| crate::counter_in(scope.as_ref(), name);
        ReactorStats {
            wakeups: counter("wakeups"),
            doorbells: counter("doorbells"),
            parked_ns: counter("parked_ns"),
        }
    }

    pub fn park(&self, d: Dur) {
        self.parked_ns.add(d.as_nanos());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_orders_and_drops_stale_entries() {
        let clock = CompletionClock::new();
        let t = |n| Time::ZERO + Dur::nanos(n);
        clock.on_submit(0, t(500));
        clock.on_submit(1, t(200));
        clock.on_submit(0, t(900));
        assert_eq!(clock.len(), 3);

        // Qpair 1's command at 200 is still pending: head is valid.
        let next = clock.next_due(|tag| match tag {
            0 => Some(t(500)),
            1 => Some(t(200)),
            _ => None,
        });
        assert_eq!(next, Some(t(200)));

        // Qpair 1 harvested; its entry must be skipped, qpair 0 at 500 is
        // next.
        let next = clock.next_due(|tag| match tag {
            0 => Some(t(500)),
            _ => None,
        });
        assert_eq!(next, Some(t(500)));
        assert_eq!(clock.len(), 2);

        // Everything harvested: no due event, heap drains fully.
        assert_eq!(clock.next_due(|_| None), None);
        assert!(clock.is_empty());
    }

    #[test]
    fn stale_head_with_later_actual_is_dropped() {
        let clock = CompletionClock::new();
        let t = |n| Time::ZERO + Dur::nanos(n);
        clock.on_submit(0, t(100));
        clock.on_submit(0, t(400));
        // The command at 100 was harvested; qpair 0's next is 400.
        assert_eq!(clock.next_due(|_| Some(t(400))), Some(t(400)));
        assert_eq!(clock.len(), 1);
    }

    #[test]
    fn stats_respect_publish_flag() {
        let reg = Registry::new();
        let hidden = ReactorStats::new(&reg, false);
        hidden.wakeups.inc();
        hidden.park(Dur::nanos(50));
        assert_eq!(reg.snapshot().counter("dlfs.reactor.wakeups"), 0);

        let shown = ReactorStats::new(&reg, true);
        shown.wakeups.add(3);
        shown.doorbells.inc();
        shown.park(Dur::nanos(70));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("dlfs.reactor.wakeups"), 3);
        assert_eq!(snap.counter("dlfs.reactor.doorbells"), 1);
        assert_eq!(snap.counter("dlfs.reactor.parked_ns"), 70);
    }
}
