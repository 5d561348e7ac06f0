//! Deterministic fabric-level fault injection.
//!
//! The block layer already injects *device* faults (media errors, latency
//! spikes); this module adds the failure modes that only exist once storage
//! is disaggregated: dropped or delayed RPC capsules and whole targets that
//! crash and restart at scheduled virtual instants. The injector follows
//! the same replay discipline as [`blocksim::FaultInjector`] — a SplitMix64
//! step keyed on `(seed, decision-counter)` — so a failing run replays
//! bit-identically.
//!
//! Attach one injector per [`Cluster`](crate::Cluster) via
//! [`Cluster::set_faults`](crate::Cluster::set_faults); the NVMe-oF client
//! ([`RemoteTarget`](crate::RemoteTarget)) and the RPC layer consult it on
//! every submission. A dropped command still *reserves* the modelled path
//! (the initiator cannot know it will vanish), and the initiator observes
//! the loss only after the configured I/O timeout.

use std::sync::atomic::{AtomicU64, Ordering};

use simkit::plock::Mutex;
use simkit::telemetry::{Counter, Gauge, Registry};
use simkit::time::{Dur, Time};

/// Fate of one fabric traversal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FabricFault {
    /// Delivered normally.
    Healthy,
    /// Delivered after an extra queueing/derouting delay.
    Delay(Dur),
    /// Never delivered. The initiator notices after `detect_after` (its
    /// I/O timeout) and must retry or fail over.
    Dropped { detect_after: Dur },
}

impl FabricFault {
    pub fn is_dropped(self) -> bool {
        matches!(self, FabricFault::Dropped { .. })
    }
}

/// A scheduled whole-target outage: every message to or from `node` is
/// dropped while `down_at <= now < up_at`.
#[derive(Clone, Copy, Debug)]
struct CrashWindow {
    node: usize,
    down_at: Time,
    up_at: Time,
}

struct FaultTel {
    /// Messages dropped by the random die.
    drops: Counter,
    /// Messages dropped because an endpoint was crashed.
    outage_drops: Counter,
    /// Messages delayed by the random die.
    delays: Counter,
    /// Per-node reachability gauge (1 = up), refreshed on every decision
    /// touching the node.
    target_up: Vec<Gauge>,
}

/// Seeded fabric fault model for one cluster.
pub struct FabricFaultInjector {
    seed: u64,
    counter: AtomicU64,
    /// Probability a message is dropped, in parts per million.
    pub drop_ppm: u32,
    /// Probability a message is delayed, in parts per million.
    pub delay_ppm: u32,
    /// Added delay when the delay die fires.
    pub delay_extra: Dur,
    /// How long an initiator waits before declaring a dropped command lost.
    pub io_timeout: Dur,
    crashes: Vec<CrashWindow>,
    /// Directed paths `(from, to)` that drop at their own rate (ppm)
    /// instead of `drop_ppm`.
    path_drops: Vec<(usize, usize, u32)>,
    tel: Mutex<Option<FaultTel>>,
}

impl std::fmt::Debug for FabricFaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FabricFaultInjector")
            .field("seed", &self.seed)
            .field("drop_ppm", &self.drop_ppm)
            .field("delay_ppm", &self.delay_ppm)
            .field("crashes", &self.crashes.len())
            .finish()
    }
}

impl FabricFaultInjector {
    pub fn new(seed: u64) -> FabricFaultInjector {
        FabricFaultInjector {
            seed,
            counter: AtomicU64::new(0),
            drop_ppm: 0,
            delay_ppm: 0,
            delay_extra: Dur::ZERO,
            io_timeout: Dur::micros(50),
            crashes: Vec::new(),
            path_drops: Vec::new(),
            tel: Mutex::new(None),
        }
    }

    /// Drop messages at the given rate.
    pub fn with_drops(mut self, ppm: u32) -> Self {
        self.drop_ppm = ppm;
        self
    }

    /// Drop messages from `from` to `to` at the given rate instead of
    /// `drop_ppm`.
    pub fn with_path_drops(mut self, from: usize, to: usize, ppm: u32) -> Self {
        self.path_drops.push((from, to, ppm));
        self
    }

    /// Delay messages at the given rate by `extra`.
    pub fn with_delays(mut self, ppm: u32, extra: Dur) -> Self {
        self.delay_ppm = ppm;
        self.delay_extra = extra;
        self
    }

    /// Set how long initiators wait before declaring a command lost.
    pub fn with_io_timeout(mut self, timeout: Dur) -> Self {
        self.io_timeout = timeout;
        self
    }

    /// Crash `node` at `down_at`, restarting it at `up_at`.
    pub fn with_crash(mut self, node: usize, down_at: Time, up_at: Time) -> Self {
        assert!(down_at < up_at, "crash window must be non-empty");
        self.crashes.push(CrashWindow {
            node,
            down_at,
            up_at,
        });
        self
    }

    /// Register counters and per-node `target_up` gauges in `reg`
    /// (typically scoped to `fabric.faults`). Called by
    /// [`Cluster::set_faults`](crate::Cluster::set_faults).
    pub fn attach_telemetry(&self, reg: &Registry, nodes: usize) {
        let target_up: Vec<Gauge> = (0..nodes)
            .map(|n| reg.gauge(&format!("node{n}.target_up")))
            .collect();
        for g in &target_up {
            g.set(1);
        }
        *self.tel.lock() = Some(FaultTel {
            drops: reg.counter("drops"),
            outage_drops: reg.counter("outage_drops"),
            delays: reg.counter("delays"),
            target_up,
        });
    }

    /// Is `node` reachable at `now` (not inside a crash window)?
    pub fn node_up(&self, node: usize, now: Time) -> bool {
        !self
            .crashes
            .iter()
            .any(|c| c.node == node && c.down_at <= now && now < c.up_at)
    }

    /// Decide the fate of one `from → to` message at `now`.
    ///
    /// The seeded die advances on *every* call, so adding a crash window
    /// does not shift the random drop/delay sequence — the healthy part of
    /// the run replays unchanged.
    pub fn decide(&self, now: Time, from: usize, to: usize) -> FabricFault {
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        // SplitMix64 step keyed on (seed, n), as in blocksim's injector.
        let mut z = self.seed ^ n.wrapping_mul(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^= z >> 31;

        let tel = self.tel.lock();
        if let Some(t) = tel.as_ref() {
            for node in [from, to] {
                if let Some(g) = t.target_up.get(node) {
                    g.set(self.node_up(node, now) as i64);
                }
            }
        }
        if !self.node_up(from, now) || !self.node_up(to, now) {
            if let Some(t) = tel.as_ref() {
                t.outage_drops.inc();
            }
            return FabricFault::Dropped {
                detect_after: self.io_timeout,
            };
        }
        let die = (z % 1_000_000) as u32;
        let path = self.path_drops.iter().find(|p| (p.0, p.1) == (from, to));
        if die < path.map_or(self.drop_ppm, |p| p.2) {
            if let Some(t) = tel.as_ref() {
                t.drops.inc();
            }
            return FabricFault::Dropped {
                detect_after: self.io_timeout,
            };
        }
        let die2 = ((z >> 32) % 1_000_000) as u32;
        if die2 < self.delay_ppm {
            if let Some(t) = tel.as_ref() {
                t.delays.inc();
            }
            return FabricFault::Delay(self.delay_extra);
        }
        FabricFault::Healthy
    }

    /// Messages decided so far.
    pub fn decisions(&self) -> u64 {
        self.counter.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_by_default() {
        let f = FabricFaultInjector::new(1);
        for i in 0..1000 {
            assert_eq!(
                f.decide(Time::ZERO + Dur::nanos(i), 0, 1),
                FabricFault::Healthy
            );
        }
    }

    #[test]
    fn drop_rate_is_approximate_and_deterministic() {
        let run = || {
            let f = FabricFaultInjector::new(9).with_drops(50_000); // 5%
            (0..20_000)
                .map(|_| f.decide(Time::ZERO, 0, 1).is_dropped())
                .collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run());
        let drops = a.iter().filter(|&&d| d).count();
        let rate = drops as f64 / 20_000.0;
        assert!((0.04..0.06).contains(&rate), "rate {rate}");
    }

    #[test]
    fn crash_window_drops_everything_then_recovers() {
        let f = FabricFaultInjector::new(2).with_crash(
            1,
            Time::ZERO + Dur::micros(10),
            Time::ZERO + Dur::micros(20),
        );
        assert_eq!(
            f.decide(Time::ZERO + Dur::micros(5), 0, 1),
            FabricFault::Healthy
        );
        assert!(f.decide(Time::ZERO + Dur::micros(10), 0, 1).is_dropped());
        // Direction does not matter: the node is gone.
        assert!(f.decide(Time::ZERO + Dur::micros(15), 1, 0).is_dropped());
        // Other nodes unaffected.
        assert_eq!(
            f.decide(Time::ZERO + Dur::micros(15), 0, 2),
            FabricFault::Healthy
        );
        assert_eq!(
            f.decide(Time::ZERO + Dur::micros(20), 0, 1),
            FabricFault::Healthy
        );
    }

    #[test]
    fn schedules_do_not_shift_the_random_stream() {
        let seq = |f: &FabricFaultInjector| {
            (0..500)
                .map(|_| f.decide(Time::ZERO, 0, 1).is_dropped())
                .collect::<Vec<_>>()
        };
        let plain = FabricFaultInjector::new(4).with_drops(100_000);
        let scheduled = FabricFaultInjector::new(4).with_drops(100_000).with_crash(
            2,
            Time::ZERO + Dur::micros(1),
            Time::ZERO + Dur::micros(2),
        );
        assert_eq!(seq(&plain), seq(&scheduled));
    }

    #[test]
    fn delays_fire_independently() {
        let f = FabricFaultInjector::new(5).with_delays(500_000, Dur::micros(7));
        let delayed = (0..2000)
            .filter(|_| matches!(f.decide(Time::ZERO, 0, 1), FabricFault::Delay(_)))
            .count();
        assert!((800..1200).contains(&delayed), "{delayed}");
    }
}
