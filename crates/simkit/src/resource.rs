//! Passive timed resources: serialized links and k-channel service centers.
//!
//! These model contention points (a NIC, an NVMe device's internal
//! channels, a PCIe lane) without dedicating a scheduler participant to
//! each. A caller *reserves* service — which computes when the resource
//! will have finished its request — then sleeps on the runtime until that
//! virtual instant.
//!
//! Reservations are ordered by **requested start time**, not by call
//! order: staged models (fabric → device → fabric) reserve later resources
//! at future instants, and a resource must not let such a future booking
//! block an earlier-in-time request that merely *calls* later. Each
//! resource therefore keeps a timeline of busy intervals and gap-fills.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::plock::Mutex;

use crate::runtime::Runtime;
use crate::time::{Dur, Time};

/// How far behind the latest observed request time an interval must be
/// before it can be pruned. Virtual time only moves forward and staged
/// reservations only look forward, so anything this stale is unreachable.
const PRUNE_HORIZON_NS: u64 = 500_000_000; // 0.5 s of virtual time

/// An ordered set of non-overlapping busy intervals with gap-filling
/// reservation.
#[derive(Debug, Default)]
struct Timeline {
    /// start → end (non-overlapping, sorted by start).
    intervals: BTreeMap<u64, u64>,
    max_now: u64,
}

impl Timeline {
    /// Earliest start ≥ `now` where a `d`-long reservation fits.
    fn probe(&self, now: u64, d: u64) -> u64 {
        let mut t = now;
        // Intervals don't overlap, so every interval before the last one
        // starting at or before `now` has ended by `now` and cannot move
        // `t`: start there instead of at the oldest unpruned booking.
        let from = self
            .intervals
            .range(..=now)
            .next_back()
            .map_or(now, |(&s, _)| s);
        for (&s, &e) in self.intervals.range(from..) {
            if s >= t.saturating_add(d) {
                break; // gap [t, t+d) fits entirely before this interval
            }
            if e > t {
                t = e;
            }
        }
        t
    }

    /// Book [start, start+d); `start` must come from `probe` with no
    /// intervening commit.
    fn commit(&mut self, start: u64, d: u64) {
        if d == 0 {
            return;
        }
        let prev = self.intervals.insert(start, start + d);
        debug_assert!(prev.is_none(), "timeline double-booking");
    }

    fn reserve(&mut self, now: u64, d: u64) -> u64 {
        self.max_now = self.max_now.max(now);
        self.prune();
        let start = self.probe(now, d);
        self.commit(start, d);
        start + d
    }

    fn prune(&mut self) {
        let horizon = self.max_now.saturating_sub(PRUNE_HORIZON_NS);
        while let Some((&s, &e)) = self.intervals.first_key_value() {
            if e <= horizon {
                self.intervals.remove(&s);
            } else {
                break;
            }
        }
    }

    fn len(&self) -> usize {
        self.intervals.len()
    }
}

/// A serialized transmission link with fixed propagation latency and finite
/// bandwidth. Models a NIC port or a wire: transfers occupy the wire for
/// `bytes / bandwidth`, ordered by requested start time, then experience
/// the latency term.
#[derive(Clone)]
pub struct Link {
    inner: Arc<Mutex<LinkState>>,
    bytes_per_sec: f64,
    latency: Dur,
}

impl std::fmt::Debug for Link {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Link")
            .field("bytes_per_sec", &self.bytes_per_sec)
            .field("latency", &self.latency)
            .finish()
    }
}

struct LinkState {
    timeline: Timeline,
    bytes_moved: u64,
}

impl Link {
    pub fn new(bytes_per_sec: f64, latency: Dur) -> Link {
        Link {
            inner: Arc::new(Mutex::new(LinkState {
                timeline: Timeline::default(),
                bytes_moved: 0,
            })),
            bytes_per_sec,
            latency,
        }
    }

    /// Reserve the wire for `bytes` starting no earlier than `now`; returns
    /// the virtual instant at which the payload has fully arrived.
    pub fn reserve(&self, now: Time, bytes: u64) -> Time {
        let d = Dur::for_bytes(bytes, self.bytes_per_sec).as_nanos();
        let mut st = self.inner.lock();
        st.bytes_moved += bytes;
        let end = st.timeline.reserve(now.nanos(), d);
        Time(end) + self.latency
    }

    /// Transfer `bytes` across the link, sleeping until arrival.
    pub fn transfer(&self, rt: &Runtime, bytes: u64) {
        let done = self.reserve(rt.now(), bytes);
        let wait = done - rt.now();
        if !wait.is_zero() {
            rt.sleep(wait);
        }
    }

    pub fn bytes_per_sec(&self) -> f64 {
        self.bytes_per_sec
    }

    pub fn latency(&self) -> Dur {
        self.latency
    }

    pub fn bytes_moved(&self) -> u64 {
        self.inner.lock().bytes_moved
    }

    /// Booked intervals currently tracked (diagnostics).
    pub fn pending_intervals(&self) -> usize {
        self.inner.lock().timeline.len()
    }
}

/// A service center with `k` parallel channels, each serving one request
/// at a time in requested-start order. Models an NVMe device's internal
/// parallelism: maximum throughput is `k / service_time`.
#[derive(Clone)]
pub struct Servers {
    inner: Arc<Mutex<ServerState>>,
}

impl std::fmt::Debug for Servers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Servers")
            .field("channels", &self.inner.lock().channels.len())
            .finish()
    }
}

struct ServerState {
    channels: Vec<Timeline>,
    served: u64,
}

impl Servers {
    pub fn new(k: usize) -> Servers {
        assert!(k > 0, "need at least one channel");
        Servers {
            inner: Arc::new(Mutex::new(ServerState {
                channels: (0..k).map(|_| Timeline::default()).collect(),
                served: 0,
            })),
        }
    }

    /// Reserve one channel for a request of duration `cost` arriving at
    /// `now`; returns the completion instant. Picks the channel that can
    /// finish earliest (deterministic: lowest index wins ties).
    pub fn reserve(&self, now: Time, cost: Dur) -> Time {
        let d = cost.as_nanos();
        let mut st = self.inner.lock();
        st.served += 1;
        let mut best = (u64::MAX, 0usize);
        for (i, ch) in st.channels.iter_mut().enumerate() {
            ch.max_now = ch.max_now.max(now.nanos());
            let start = ch.probe(now.nanos(), d);
            if start < best.0 {
                best = (start, i);
            }
        }
        let (start, idx) = best;
        st.channels[idx].commit(start, d);
        st.channels[idx].prune();
        Time(start + d)
    }

    /// Serve a request of duration `cost`, sleeping until completion.
    pub fn serve(&self, rt: &Runtime, cost: Dur) {
        let done = self.reserve(rt.now(), cost);
        let wait = done - rt.now();
        if !wait.is_zero() {
            rt.sleep(wait);
        }
    }

    pub fn served(&self) -> u64 {
        self.inner.lock().served
    }

    pub fn channels(&self) -> usize {
        self.inner.lock().channels.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Runtime;

    #[test]
    fn link_serializes_transfers() {
        Runtime::simulate(0, |rt| {
            // 1 GB/s, 10us latency.
            let link = Link::new(1e9, Dur::micros(10));
            let t0 = rt.now();
            // Two back-to-back 1MB reservations: second waits for the first.
            let a = link.reserve(t0, 1_000_000);
            let b = link.reserve(t0, 1_000_000);
            assert_eq!(a, Time::ZERO + Dur::millis(1) + Dur::micros(10));
            assert_eq!(b, Time::ZERO + Dur::millis(2) + Dur::micros(10));
            assert_eq!(link.bytes_moved(), 2_000_000);
        });
    }

    #[test]
    fn link_idle_restart() {
        Runtime::simulate(0, |rt| {
            let link = Link::new(1e9, Dur::ZERO);
            link.transfer(rt, 1_000_000);
            assert_eq!(rt.now(), Time(1_000_000));
            rt.sleep(Dur::millis(5));
            // After idling, the next transfer starts fresh at `now`.
            let done = link.reserve(rt.now(), 1_000_000);
            assert_eq!(done, Time(7_000_000));
        });
    }

    #[test]
    fn future_booking_does_not_block_present_request() {
        // The regression behind collocated NVMe-oF nodes: a data return
        // reserved at a *future* device-completion instant must not delay a
        // small capsule reserved for *now*.
        Runtime::simulate(0, |rt| {
            let link = Link::new(1e9, Dur::ZERO);
            // Future booking: 1 MB starting at t = 1 ms.
            let fut = link.reserve(Time(1_000_000), 1_000_000);
            assert_eq!(fut, Time(2_000_000));
            // Present booking: 1 KB at t = 0 → fits in the gap before it.
            let nowr = link.reserve(rt.now(), 1_000);
            assert_eq!(nowr, Time(1_000));
            // A second future-ish request lands after the 1 MB one.
            let tail = link.reserve(Time(1_500_000), 1_000_000);
            assert_eq!(tail, Time(3_000_000));
        });
    }

    #[test]
    fn gap_filling_is_exact() {
        Runtime::simulate(0, |rt| {
            let _ = rt;
            let link = Link::new(1e9, Dur::ZERO);
            link.reserve(Time(0), 1_000); // [0, 1us)
            link.reserve(Time(10_000), 1_000); // [10us, 11us)
                                               // 5us fits between them.
            let mid = link.reserve(Time(1_000), 5_000);
            assert_eq!(mid, Time(6_000));
            // 5us does NOT fit between 6us and 10us: goes after 11us.
            let after = link.reserve(Time(1_000), 5_000);
            assert_eq!(after, Time(16_000));
        });
    }

    #[test]
    fn probe_ignores_history_without_changing_the_answer() {
        // Reference: the scan from the oldest booking that `probe` used to
        // do. A seeded mix of present and future reservations over a long
        // unpruned history must book identically.
        fn probe_full(tl: &Timeline, now: u64, d: u64) -> u64 {
            let mut t = now;
            for (&s, &e) in &tl.intervals {
                if s >= t.saturating_add(d) {
                    break;
                }
                if e > t {
                    t = e;
                }
            }
            t
        }
        let mut rng = crate::rng::SplitMix64::new(0x71AE);
        let mut tl = Timeline::default();
        let mut now = 0u64;
        for _ in 0..5_000 {
            now += rng.below(400);
            let at = now
                + if rng.below(4) == 0 {
                    rng.below(5_000)
                } else {
                    0
                };
            let d = rng.below(300);
            assert_eq!(tl.probe(at, d), probe_full(&tl, at, d));
            tl.reserve(at, d);
        }
        assert!(tl.len() > 1_000, "history must stay unpruned for the test");
    }

    #[test]
    fn timeline_prunes_stale_intervals() {
        Runtime::simulate(0, |rt| {
            let _ = rt;
            let link = Link::new(1e9, Dur::ZERO);
            for i in 0..1000u64 {
                link.reserve(Time(i * 1_000), 500);
            }
            // Jump far ahead: old intervals get pruned.
            link.reserve(Time(10_000_000_000), 500);
            assert!(
                link.pending_intervals() < 10,
                "{}",
                link.pending_intervals()
            );
        });
    }

    #[test]
    fn servers_parallel_channels() {
        Runtime::simulate(0, |rt| {
            let srv = Servers::new(2);
            let t0 = rt.now();
            let c = Dur::micros(10);
            // Three requests on two channels: 10, 10, 20 us completions.
            assert_eq!(srv.reserve(t0, c), Time(10_000));
            assert_eq!(srv.reserve(t0, c), Time(10_000));
            assert_eq!(srv.reserve(t0, c), Time(20_000));
            assert_eq!(srv.served(), 3);
        });
    }

    #[test]
    fn servers_throughput_ceiling() {
        // k channels with service time s admit k/s requests per second.
        Runtime::simulate(0, |rt| {
            let srv = Servers::new(4);
            let s = Dur::micros(100);
            let mut last = Time::ZERO;
            for _ in 0..400 {
                last = srv.reserve(rt.now(), s);
            }
            // 400 requests / 4 channels * 100us = 10ms.
            assert_eq!(last, Time::ZERO + Dur::millis(10));
        });
    }

    #[test]
    fn servers_fill_gaps_for_early_requests() {
        Runtime::simulate(0, |rt| {
            let _ = rt;
            let srv = Servers::new(1);
            // Future booking at 1 ms.
            assert_eq!(
                srv.reserve(Time(1_000_000), Dur::micros(100)),
                Time(1_100_000)
            );
            // Present request slots in before it.
            assert_eq!(srv.reserve(Time(0), Dur::micros(50)), Time(50_000));
        });
    }
}
