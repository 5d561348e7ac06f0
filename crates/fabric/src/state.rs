//! One state machine per storage target: may a reader route to it now?
//!
//! Every consumer of remote targets — DLFS's replica routing, the metadata
//! shard router, octofs — keeps one [`TargetStates`] over its targets and
//! tells it what each command came to ([`Outcome`]). A target is
//! [`TargetState::Alive`] while it serves. `threshold` consecutive failed
//! commands make it [`TargetState::Suspect`]: routing skips it for a
//! `cooldown` of virtual time, then grants one caller a half-open probe per
//! expiry, and a success makes it Alive again. Under a death policy
//! (`dead_after`) a target continuously Suspect that long is declared
//! [`TargetState::Dead`]: never routed to, never probed, until an explicit
//! [`TargetStates::rejoin`] after it has been rebuilt. Every change of state
//! bumps a view epoch, so readers sharing the machine can tag a decision
//! with the view it was made under.
//!
//! [`Outcome`] has command-level variants only. Bytes that arrived and fail
//! a checksum, or do not decode, are their extent's fault: the target
//! answered, and there is no variant to record them under.
//!
//! Every transition is `TargetStates::step`, a pure function of the state,
//! the event and the virtual `now`, so a same-seed simulation replays to an
//! identical sequence of views.

use std::mem::discriminant;

use blocksim::CmdStatus;
use simkit::plock::Mutex;
use simkit::telemetry::{Counter, Gauge, Registry};
use simkit::time::{Dur, Time};

use crate::rpc::RpcError;

/// What one command against a target came to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The target served it.
    Ok,
    /// The device failed it with a media error.
    Media,
    /// It, or its completion, never arrived: a dropped capsule, a flapping
    /// link or a crashed target.
    Timeout,
}

impl From<CmdStatus> for Outcome {
    fn from(status: CmdStatus) -> Outcome {
        match status {
            CmdStatus::Ok => Outcome::Ok,
            CmdStatus::MediaError => Outcome::Media,
            CmdStatus::TransportError => Outcome::Timeout,
        }
    }
}

impl From<&RpcError> for Outcome {
    fn from(RpcError::Timeout { .. }: &RpcError) -> Outcome {
        Outcome::Timeout
    }
}

/// Where one target stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TargetState {
    /// Serving; `failures` consecutive commands failed, fewer than the
    /// threshold.
    Alive { failures: u32 },
    /// Circuit open since `since`: routed around until `retry_at`, when the
    /// first caller to ask is granted one probe and the cooldown re-arms.
    Suspect { since: Time, retry_at: Time },
    /// Declared permanently failed under the death policy: never routed to
    /// or probed until it rejoins.
    Dead,
}

impl TargetState {
    /// The `nodeN.state` gauge: 0 Alive, 1 Suspect, 2 Dead.
    fn code(self) -> i64 {
        match self {
            TargetState::Alive { .. } => 0,
            TargetState::Suspect { .. } => 1,
            TargetState::Dead => 2,
        }
    }

    /// Suspect, and its cooldown has not expired at `now`.
    fn cooling(self, now: Time) -> bool {
        matches!(self, TargetState::Suspect { retry_at, .. } if now < retry_at)
    }
}

/// What a target's state hears.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Event {
    /// A command against it completed.
    Observe(Outcome),
    /// A router wants to send it a command.
    Probe,
    /// It was rebuilt and verified.
    Rejoin,
}

#[derive(Debug)]
enum Tel {
    /// Without a death policy, the circuit: per-target `nodeN.target_up`
    /// (1 while Alive) and `circuit_opens`, the failures that opened a
    /// closed or half-open circuit.
    Circuit(Vec<Gauge>, Counter),
    /// With one, the view: `view_epoch`, per-target `nodeN.state`, `deaths`
    /// and `rejoins`.
    View(Gauge, Vec<Gauge>, Counter, Counter),
}

impl Tel {
    /// `circuit_opens` or `deaths`: one handle on it is one registry.
    fn counter(&self) -> &Counter {
        match self {
            Tel::Circuit(_, c) | Tel::View(_, _, c, _) => c,
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    states: Vec<TargetState>,
    epoch: u64,
    /// One sink per registry attached.
    tel: Vec<Tel>,
}

/// The state of every target of one deployment, shared by its readers.
#[derive(Debug)]
pub struct TargetStates {
    threshold: u32,
    cooldown: Dur,
    dead_after: Option<Dur>,
    inner: Mutex<Inner>,
}

impl TargetStates {
    /// `targets` targets, all Alive at view epoch 0. A circuit opens after
    /// `threshold` consecutive failures (0 acts as 1) for `cooldown`; with
    /// `dead_after`, a target Suspect that long is declared Dead, and
    /// without it none ever is.
    pub fn new(targets: usize, threshold: u32, cooldown: Dur, dead_after: Option<Dur>) -> Self {
        let states = vec![TargetState::Alive { failures: 0 }; targets];
        let inner = Mutex::new(Inner {
            states,
            ..Inner::default()
        });
        TargetStates {
            threshold,
            cooldown,
            dead_after,
            inner,
        }
    }

    /// The transition function. A failure opens the circuit at the
    /// threshold and re-arms the cooldown after it; a probe granted at an
    /// expiry re-arms it too; neither moves `since`. A target Suspect since
    /// `since` for `dead_after` is Dead at its next failure or probe, and
    /// Dead hears nothing but a rejoin, which re-admits anyone. A success
    /// makes a live target Alive.
    fn step(&self, state: TargetState, event: Event, now: Time) -> TargetState {
        use Event::{Observe, Probe, Rejoin};
        use TargetState::{Alive, Dead, Suspect};
        let due = |since: Time| self.dead_after.is_some_and(|d| now - since >= d);
        let retry_at = now + self.cooldown;
        match (state, event) {
            (_, Rejoin) => Alive { failures: 0 },
            (Dead, _) => Dead,
            (_, Observe(Outcome::Ok)) => Alive { failures: 0 },
            (Suspect { since, .. }, _) if due(since) => Dead,
            (Suspect { .. }, Probe) if state.cooling(now) => state,
            (Suspect { since, .. }, _) => Suspect { since, retry_at },
            (Alive { failures: f }, Observe(_)) if f + 1 < self.threshold => {
                Alive { failures: f + 1 }
            }
            (Alive { .. }, Observe(_)) if due(now) => Dead,
            (Alive { .. }, Observe(_)) => Suspect {
                since: now,
                retry_at,
            },
            (Alive { .. }, Probe) => state,
        }
    }

    /// Register the circuit's metrics in `reg` without a death policy, the
    /// view's with one (see `Tel`). Every registry attached keeps
    /// reporting; one attached again counts each transition once.
    pub fn attach_telemetry(&self, reg: &Registry) {
        let mut inner = self.inner.lock();
        let gauges = |name: &str, value: fn(TargetState) -> i64| -> Vec<Gauge> {
            let gauge = |(n, &s): (usize, &TargetState)| {
                let g = reg.gauge(&format!("node{n}.{name}"));
                g.set(value(s));
                g
            };
            inner.states.iter().enumerate().map(gauge).collect()
        };
        let tel = match self.dead_after {
            None => {
                let up = gauges("target_up", |s| (s.code() == 0) as i64);
                Tel::Circuit(up, reg.counter("circuit_opens"))
            }
            Some(_) => {
                let epoch = reg.gauge("view_epoch");
                epoch.set(inner.epoch as i64);
                let (deaths, rejoins) = (reg.counter("deaths"), reg.counter("rejoins"));
                Tel::View(epoch, gauges("state", TargetState::code), deaths, rejoins)
            }
        };
        if !inner.tel.iter().any(|t| t.counter().same(tel.counter())) {
            inner.tel.push(tel);
        }
    }

    /// The current view epoch, bumped by every change of any target's
    /// state.
    pub fn view_epoch(&self) -> u64 {
        self.inner.lock().epoch
    }

    /// Where `target` stands now.
    pub fn state(&self, target: usize) -> TargetState {
        self.inner.lock().states[target]
    }

    /// Record what a command against `target` came to at `now`.
    pub fn observe(&self, target: usize, outcome: Outcome, now: Time) {
        self.apply(target, Event::Observe(outcome), now);
    }

    /// May a command go to `target` at `now`? Alive targets always; Suspect
    /// ones only for the first caller after each cooldown expiry, which
    /// re-arms it, so concurrent callers do not all hammer a recovering
    /// target and a probe that never resolves is followed by another; Dead
    /// ones never. A Suspect target past the death policy is declared Dead
    /// here rather than probed.
    pub fn try_probe(&self, target: usize, now: Time) -> bool {
        let (prev, next) = self.apply(target, Event::Probe, now);
        next != TargetState::Dead && !prev.cooling(now)
    }

    /// [`TargetStates::try_probe`] without claiming the probe (or declaring
    /// anything Dead).
    pub fn available(&self, target: usize, now: Time) -> bool {
        let state = self.state(target);
        state != TargetState::Dead && !state.cooling(now)
    }

    /// Re-admit `target` after it was rebuilt and verified: Alive, its
    /// circuit closed. The transition does not depend on the time.
    pub fn rejoin(&self, target: usize) {
        self.apply(target, Event::Rejoin, Time::ZERO);
    }

    /// Step `target` through `event` and publish the change; returns its
    /// state before and after.
    fn apply(&self, target: usize, event: Event, now: Time) -> (TargetState, TargetState) {
        let mut inner = self.inner.lock();
        let prev = inner.states[target];
        let next = self.step(prev, event, now);
        inner.states[target] = next;
        let moved = discriminant(&prev) != discriminant(&next);
        inner.epoch += moved as u64;
        for tel in &inner.tel {
            match tel {
                Tel::Circuit(up, opens) => {
                    up[target].set((next.code() == 0) as i64);
                    let failed = matches!(event, Event::Observe(o) if o != Outcome::Ok);
                    opens.add((failed && next.code() == 1 && !prev.cooling(now)) as u64);
                }
                Tel::View(epoch, state, deaths, rejoins) if moved => {
                    epoch.set(inner.epoch as i64);
                    state[target].set(next.code());
                    deaths.add((next == TargetState::Dead) as u64);
                    rejoins.add((prev == TargetState::Dead) as u64);
                }
                Tel::View(..) => {}
            }
        }
        (prev, next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use TargetState::{Alive, Dead, Suspect};

    fn at(us: u64) -> Time {
        Time::ZERO + Dur::micros(us)
    }

    /// The transition function over every (state, event, elapsed) cell of
    /// a 3-failure, 100 µs cooldown, 1 ms death policy: a target Suspect
    /// since 0 with its probe due at 100 µs is met before the cooldown
    /// expires (50 µs), after it (150 µs) and past the death policy (1 ms).
    #[test]
    fn transition_table() {
        let m = TargetStates::new(1, 3, Dur::micros(100), Some(Dur::micros(1000)));
        let forever = TargetStates::new(1, 3, Dur::micros(100), None);
        let rearmed = |since, now| Suspect {
            since: at(since),
            retry_at: at(now + 100),
        };
        let (open, fresh, two) = (rearmed(0, 0), Alive { failures: 0 }, Alive { failures: 2 });
        let [ok, media, timeout] =
            [Outcome::Ok, Outcome::Media, Outcome::Timeout].map(Event::Observe);
        let (probe, rejoin) = (Event::Probe, Event::Rejoin);
        for now in [50, 150, 1000] {
            // A failure re-arms the cooldown and a probe does once it has
            // expired, keeping `since` until the outage lasted `dead_after`.
            let failed = if now < 1000 { rearmed(0, now) } else { Dead };
            let probed = if now < 100 { open } else { failed };
            #[rustfmt::skip]
            let table = [
                (fresh, ok, fresh), (two, ok, fresh), (open, ok, fresh), (Dead, ok, Dead),
                (fresh, media, Alive { failures: 1 }), (two, media, rearmed(now, now)),
                (open, media, failed), (Dead, media, Dead),
                (Alive { failures: 1 }, timeout, two), (two, timeout, rearmed(now, now)),
                (open, timeout, failed), (Dead, timeout, Dead),
                (two, probe, two), (open, probe, probed), (Dead, probe, Dead),
                (two, rejoin, fresh), (open, rejoin, fresh), (Dead, rejoin, fresh),
            ];
            for (state, event, want) in table {
                let got = m.step(state, event, at(now));
                assert_eq!(got, want, "{state:?} + {event:?} at {now} us");
            }
            // Without a death policy nothing escalates.
            let kept = if now < 100 { open } else { rearmed(0, now) };
            assert_eq!(forever.step(open, media, at(now)), rearmed(0, now));
            assert_eq!(forever.step(open, probe, at(now)), kept);
        }
    }

    /// One probe per cooldown expiry, the non-claiming peek beside it, and
    /// both telemetry sets: the view's through a death and a rejoin, the
    /// circuit's counting the failures that opened a circuit, not re-arms.
    #[test]
    fn probes_and_telemetry() {
        let m = TargetStates::new(2, 1, Dur::micros(100), Some(Dur::micros(300)));
        let c = TargetStates::new(2, 1, Dur::micros(100), None);
        let reg = Registry::new();
        m.attach_telemetry(&reg.scoped("view"));
        c.attach_telemetry(&reg.scoped("health"));
        // Alive: no probe accounting.
        assert!(m.try_probe(0, at(5)) && m.try_probe(0, at(5)));
        m.observe(0, Outcome::Timeout, at(5));
        for now in [5, 50, 150] {
            c.observe(0, Outcome::Timeout, at(now));
        }
        assert!(!m.available(0, at(104)) && !m.try_probe(0, at(104)));
        // A peek claims nothing; the first caller wins the probe.
        assert!(m.available(0, at(105)) && m.available(0, at(105)));
        assert!(m.try_probe(0, at(105)) && !m.try_probe(0, at(105)));
        assert!(!m.try_probe(0, at(204)), "the probe re-armed");
        assert!(m.try_probe(0, at(205)), "an unresolved probe");
        assert!(!m.try_probe(0, at(305)), "due: Dead, not probed");
        m.observe(0, Outcome::Ok, at(400));
        assert_eq!(m.state(0), Dead, "a stray success");
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("view.node0.state"), 2);
        assert_eq!(snap.gauge("view.view_epoch"), 2);
        assert_eq!(snap.counter("view.deaths"), 1);
        assert_eq!(snap.counter("health.circuit_opens"), 2);
        assert_eq!(snap.gauge("health.node0.target_up"), 0);
        m.rejoin(0);
        m.rejoin(1);
        c.observe(0, Outcome::Ok, at(400));
        assert_eq!((m.state(0), m.view_epoch()), (Alive { failures: 0 }, 3));
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("view.node0.state"), 0);
        // Rejoining a live target is no rejoin.
        assert_eq!(snap.counter("view.rejoins"), 1);
        assert_eq!(snap.gauge("health.node0.target_up"), 1);
    }
}
