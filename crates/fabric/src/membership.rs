//! Cluster membership: escalating transient target faults to permanent
//! death under an explicit, deterministic policy.
//!
//! [`TargetHealth`](crate::TargetHealth) answers "should I route to this
//! target *right now*" — its circuit re-closes the moment a probe
//! succeeds, which is the right behavior for blips but means a target
//! that died for good is re-probed forever and every chunk it hosted
//! stays at reduced redundancy until someone notices. [`Membership`]
//! layers a cluster-wide view on top: a target whose circuit has been
//! continuously open longer than [`MembershipPolicy::dead_after`] is
//! declared **Dead**, a sticky state that only an explicit
//! [`rejoin`](Membership::rejoin) (after the replacement target has been
//! resynced and verified) clears. Every state transition bumps a **view
//! epoch**, so concurrent clients sharing one `Membership` agree on the
//! view and can tag decisions ("planned under epoch 7") detectably.
//!
//! All transitions are pure functions of the health-event timeline and
//! the observing call's virtual `now`, so a same-seed simulation replays
//! to an identical sequence of views.

use simkit::plock::Mutex;
use simkit::telemetry::{Counter, Gauge, Registry};
use simkit::time::{Dur, Time};

/// Where a target stands in the cluster view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeState {
    /// Serving normally.
    Alive,
    /// Circuit currently open; may still come back on its own.
    Suspect,
    /// Declared permanently failed. Sticky: never probed, never routed
    /// to, writes refused. Cleared only by [`Membership::rejoin`].
    Dead,
}

impl NodeState {
    fn gauge_value(self) -> i64 {
        match self {
            NodeState::Alive => 0,
            NodeState::Suspect => 1,
            NodeState::Dead => 2,
        }
    }
}

/// When to escalate Suspect → Dead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MembershipPolicy {
    /// A target whose circuit has been continuously open for at least
    /// this long is declared Dead.
    pub dead_after: Dur,
}

struct MembershipTel {
    view_epoch: Gauge,
    /// Per-node state gauge: 0 = Alive, 1 = Suspect, 2 = Dead.
    node_state: Vec<Gauge>,
    deaths: Counter,
    rejoins: Counter,
}

/// Shared cluster view over a fixed set of storage targets.
pub struct Membership {
    policy: MembershipPolicy,
    states: Vec<Mutex<NodeState>>,
    /// Bumped on every state transition anywhere in the cluster.
    epoch: Mutex<u64>,
    tel: Mutex<Option<MembershipTel>>,
}

impl std::fmt::Debug for Membership {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Membership")
            .field("targets", &self.states.len())
            .field("policy", &self.policy)
            .field("epoch", &*self.epoch.lock())
            .finish()
    }
}

impl Membership {
    /// Track `targets` targets, all initially Alive, at view epoch 0.
    pub fn new(targets: usize, policy: MembershipPolicy) -> Membership {
        Membership {
            policy,
            states: (0..targets).map(|_| Mutex::new(NodeState::Alive)).collect(),
            epoch: Mutex::new(0),
            tel: Mutex::new(None),
        }
    }

    /// Register `view_epoch`, per-node `nodeN.state` gauges, and the
    /// `deaths` / `rejoins` counters in `reg` (e.g. a registry scoped to
    /// `dlfs.membership`).
    pub fn attach_telemetry(&self, reg: &Registry) {
        let node_state: Vec<Gauge> = (0..self.states.len())
            .map(|n| reg.gauge(&format!("node{n}.state")))
            .collect();
        for (n, g) in node_state.iter().enumerate() {
            g.set(self.states[n].lock().gauge_value());
        }
        let view_epoch = reg.gauge("view_epoch");
        view_epoch.set(*self.epoch.lock() as i64);
        *self.tel.lock() = Some(MembershipTel {
            view_epoch,
            node_state,
            deaths: reg.counter("deaths"),
            rejoins: reg.counter("rejoins"),
        });
    }

    pub fn targets(&self) -> usize {
        self.states.len()
    }

    /// The current view epoch. Bumped on every state transition.
    pub fn view_epoch(&self) -> u64 {
        *self.epoch.lock()
    }

    pub fn state(&self, target: usize) -> NodeState {
        *self.states[target].lock()
    }

    pub fn is_dead(&self, target: usize) -> bool {
        self.state(target) == NodeState::Dead
    }

    /// The target's circuit is open and has been since `since`; decide
    /// whether that sustained outage crosses the death policy at `now`.
    /// Returns the target's state after the observation.
    pub fn observe_open(&self, target: usize, since: Time, now: Time) -> NodeState {
        let mut st = self.states[target].lock();
        match *st {
            NodeState::Dead => NodeState::Dead,
            prev => {
                let next = if now - since >= self.policy.dead_after {
                    NodeState::Dead
                } else {
                    NodeState::Suspect
                };
                if next != prev {
                    *st = next;
                    self.bump(target, next, next == NodeState::Dead, false);
                }
                next
            }
        }
    }

    /// The target served a request successfully. Clears Suspect back to
    /// Alive. Dead stays Dead — a permanently-failed target that answers
    /// a stray probe is not trusted until it has been resynced and
    /// explicitly [`rejoin`](Self::rejoin)ed.
    pub fn observe_alive(&self, target: usize) -> NodeState {
        let mut st = self.states[target].lock();
        match *st {
            NodeState::Suspect => {
                *st = NodeState::Alive;
                self.bump(target, NodeState::Alive, false, false);
                NodeState::Alive
            }
            other => other,
        }
    }

    /// Re-admit a Dead target after resync + verification. Bumps the view
    /// epoch; no-op if the target was not Dead.
    pub fn rejoin(&self, target: usize) {
        let mut st = self.states[target].lock();
        if *st == NodeState::Dead {
            *st = NodeState::Alive;
            self.bump(target, NodeState::Alive, false, true);
        }
    }

    fn bump(&self, target: usize, next: NodeState, death: bool, rejoin: bool) {
        let mut ep = self.epoch.lock();
        *ep += 1;
        if let Some(t) = self.tel.lock().as_ref() {
            t.view_epoch.set(*ep as i64);
            t.node_state[target].set(next.gauge_value());
            if death {
                t.deaths.inc();
            }
            if rejoin {
                t.rejoins.inc();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(us: u64) -> MembershipPolicy {
        MembershipPolicy {
            dead_after: Dur::micros(us),
        }
    }

    #[test]
    fn escalates_suspect_to_dead_with_epoch_bumps() {
        let m = Membership::new(3, policy(100));
        let t0 = Time::ZERO + Dur::micros(7);
        assert_eq!(m.view_epoch(), 0);
        assert_eq!(
            m.observe_open(1, t0, t0 + Dur::micros(10)),
            NodeState::Suspect
        );
        assert_eq!(m.view_epoch(), 1);
        // Still suspect: repeated observations below the policy don't churn
        // the epoch.
        assert_eq!(
            m.observe_open(1, t0, t0 + Dur::micros(99)),
            NodeState::Suspect
        );
        assert_eq!(m.view_epoch(), 1);
        assert_eq!(
            m.observe_open(1, t0, t0 + Dur::micros(100)),
            NodeState::Dead
        );
        assert_eq!(m.view_epoch(), 2);
        assert!(m.is_dead(1));
        // Other nodes unaffected.
        assert_eq!(m.state(0), NodeState::Alive);
        assert_eq!(m.state(2), NodeState::Alive);
    }

    #[test]
    fn dead_is_sticky_until_rejoin() {
        let m = Membership::new(2, policy(50));
        let t0 = Time::ZERO;
        m.observe_open(0, t0, t0 + Dur::micros(50));
        assert!(m.is_dead(0));
        // A stray successful probe does not resurrect a Dead node.
        assert_eq!(m.observe_alive(0), NodeState::Dead);
        assert!(m.is_dead(0));
        // Nor does another open observation change anything.
        let e = m.view_epoch();
        assert_eq!(
            m.observe_open(0, t0, t0 + Dur::micros(200)),
            NodeState::Dead
        );
        assert_eq!(m.view_epoch(), e);
        m.rejoin(0);
        assert_eq!(m.state(0), NodeState::Alive);
        assert_eq!(m.view_epoch(), e + 1);
        // Rejoining an already-Alive node is a no-op.
        m.rejoin(0);
        assert_eq!(m.view_epoch(), e + 1);
    }

    #[test]
    fn suspect_recovers_to_alive() {
        let m = Membership::new(1, policy(100));
        let t0 = Time::ZERO;
        m.observe_open(0, t0, t0 + Dur::micros(10));
        assert_eq!(m.state(0), NodeState::Suspect);
        assert_eq!(m.observe_alive(0), NodeState::Alive);
        assert_eq!(m.view_epoch(), 2);
        // Alive → alive observation is epoch-silent.
        assert_eq!(m.observe_alive(0), NodeState::Alive);
        assert_eq!(m.view_epoch(), 2);
    }

    #[test]
    fn telemetry_tracks_view() {
        let reg = Registry::new();
        let m = Membership::new(2, policy(10));
        m.attach_telemetry(&reg.scoped("membership"));
        let t0 = Time::ZERO;
        m.observe_open(1, t0, t0 + Dur::micros(10));
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("membership.view_epoch"), 1);
        assert_eq!(snap.gauge("membership.node0.state"), 0);
        assert_eq!(snap.gauge("membership.node1.state"), 2);
        assert_eq!(snap.counter("membership.deaths"), 1);
        m.rejoin(1);
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("membership.view_epoch"), 2);
        assert_eq!(snap.gauge("membership.node1.state"), 0);
        assert_eq!(snap.counter("membership.rejoins"), 1);
    }
}
