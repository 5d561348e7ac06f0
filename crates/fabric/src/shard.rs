//! Shard-map routing for a partitioned metadata service.
//!
//! A metadata namespace split into `S` shards is described by a
//! [`ShardMap`]: an epoch-stamped table assigning every shard a primary
//! owner node and a standby. Clients hold a [`ShardRouter`], which caches
//! the map, routes each shard to a healthy node through one
//! [`TargetStates`] over the nodes, and refreshes the cached map when a
//! server response proves it stale (epoch-stamped invalidation: the client
//! sends the epoch it routed with, the server piggybacks the current map
//! on the reply when the epochs disagree).
//!
//! The router is deliberately service-agnostic — it knows nodes, shards,
//! epochs and health, not what the shards contain. DLFS builds its sample
//! metadata service on top (`dlfs::metashard`), octofs-style hash tables
//! could equally well be routed through it.

use std::sync::Arc;

use simkit::plock::Mutex;
use simkit::telemetry::{Counter, Registry};
use simkit::time::{Dur, Time};

use crate::state::{Outcome, TargetStates};

/// Epoch-stamped assignment of metadata shards to serving nodes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardMap {
    /// Monotonic map version; any change to ownership bumps it.
    pub epoch: u64,
    /// Primary owner node per shard.
    pub owner: Vec<u16>,
    /// Failover node per shard, used while the primary's circuit is open.
    pub standby: Vec<u16>,
}

impl ShardMap {
    /// First-epoch map. `owner` and `standby` must be the same length.
    pub fn new(owner: Vec<u16>, standby: Vec<u16>) -> ShardMap {
        assert_eq!(owner.len(), standby.len(), "ragged shard map");
        ShardMap {
            epoch: 1,
            owner,
            standby,
        }
    }

    pub fn shards(&self) -> usize {
        self.owner.len()
    }

    /// A copy with `shard` reassigned and the epoch bumped — how a
    /// controller publishes a rebalance or a permanent failover.
    pub fn reassigned(&self, shard: usize, owner: u16, standby: u16) -> ShardMap {
        let mut next = self.clone();
        next.owner[shard] = owner;
        next.standby[shard] = standby;
        next.epoch += 1;
        next
    }

    /// Serialized size: epoch + per-shard (owner, standby) pairs.
    pub fn wire_bytes(&self) -> u64 {
        8 + self.owner.len() as u64 * 4
    }
}

/// Where [`ShardRouter::route`] decided to send a shard's request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Route {
    /// The node to call.
    pub node: u16,
    /// False when the primary's circuit was open and the standby was
    /// chosen instead.
    pub primary: bool,
    /// Map epoch the decision was made under — send it with the request
    /// so the server can detect a stale client map.
    pub epoch: u64,
}

struct RouterTel {
    failovers: Counter,
    map_refreshes: Counter,
}

/// A client's cached, health-aware view of a [`ShardMap`].
pub struct ShardRouter {
    map: Mutex<Arc<ShardMap>>,
    health: TargetStates,
    tel: Mutex<Option<RouterTel>>,
}

impl std::fmt::Debug for ShardRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardRouter")
            .field("shards", &self.map.lock().shards())
            .field("epoch", &self.map.lock().epoch)
            .field("health", &self.health)
            .finish()
    }
}

impl ShardRouter {
    /// Route over `map` across `nodes` metadata nodes. A node's circuit
    /// opens after `threshold` consecutive failures for `cooldown`; no node
    /// is ever declared Dead.
    pub fn new(map: ShardMap, nodes: usize, threshold: u32, cooldown: Dur) -> ShardRouter {
        ShardRouter {
            map: Mutex::new(Arc::new(map)),
            health: TargetStates::new(nodes, threshold, cooldown, None),
            tel: Mutex::new(None),
        }
    }

    /// Register `failovers` + `map_refreshes` counters and the underlying
    /// circuit-breaker gauges in `reg`.
    pub fn attach_telemetry(&self, reg: &Registry) {
        self.health.attach_telemetry(reg);
        *self.tel.lock() = Some(RouterTel {
            failovers: reg.counter("failovers"),
            map_refreshes: reg.counter("map_refreshes"),
        });
    }

    /// The currently cached map.
    pub fn map(&self) -> Arc<ShardMap> {
        self.map.lock().clone()
    }

    pub fn epoch(&self) -> u64 {
        self.map.lock().epoch
    }

    /// Install a fresher map (a server piggybacked it on a reply, or the
    /// controller pushed it). Older or same-epoch maps are ignored so a
    /// delayed reply cannot roll the cache back. Returns whether the
    /// cache changed.
    pub fn install(&self, next: ShardMap) -> bool {
        let mut cur = self.map.lock();
        if next.epoch <= cur.epoch {
            return false;
        }
        *cur = Arc::new(next);
        if let Some(t) = self.tel.lock().as_ref() {
            t.map_refreshes.inc();
        }
        true
    }

    /// Pick the node to send `shard`'s request to at `now`: the primary
    /// owner while its circuit is closed (or it wins the half-open
    /// probe), otherwise the standby. With both circuits open the primary
    /// is returned anyway — the caller's RPC retry budget, not the
    /// router, decides when to give up.
    pub fn route(&self, shard: usize, now: Time) -> Route {
        let map = self.map.lock().clone();
        let owner = map.owner[shard];
        let standby = map.standby[shard];
        let primary_ok = self.health.try_probe(owner as usize, now);
        let node = if primary_ok {
            owner
        } else if standby != owner && self.health.try_probe(standby as usize, now) {
            if let Some(t) = self.tel.lock().as_ref() {
                t.failovers.inc();
            }
            standby
        } else {
            owner
        };
        Route {
            node,
            primary: node == owner,
            epoch: map.epoch,
        }
    }

    /// Record what a routed call to `node` came to at `now`.
    pub fn observe(&self, node: u16, outcome: Outcome, now: Time) {
        self.health.observe(node as usize, outcome, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn router() -> ShardRouter {
        ShardRouter::new(
            ShardMap::new(vec![0, 1, 2], vec![1, 2, 0]),
            3,
            2,
            Dur::micros(100),
        )
    }

    #[test]
    fn routes_to_owner_then_standby_on_open_circuit() {
        let r = router();
        let t0 = Time::ZERO + Dur::micros(5);
        let first = r.route(1, t0);
        assert_eq!((first.node, first.primary, first.epoch), (1, true, 1));
        r.observe(1, Outcome::Timeout, t0);
        r.observe(1, Outcome::Timeout, t0);
        let fo = r.route(1, t0 + Dur::micros(1));
        assert_eq!((fo.node, fo.primary), (2, false));
        // With the standby's circuit open too, the owner is returned anyway.
        r.observe(2, Outcome::Timeout, t0);
        r.observe(2, Outcome::Timeout, t0);
        let route = r.route(1, t0 + Dur::micros(1));
        assert_eq!((route.node, route.primary), (1, true));
        // Success on a later probe closes the circuit again.
        r.observe(1, Outcome::Ok, t0 + Dur::micros(2));
        assert!(r.route(1, t0 + Dur::micros(2)).primary);
    }

    #[test]
    fn install_accepts_only_newer_epochs() {
        let r = router();
        let stale = ShardMap::new(vec![2, 2, 2], vec![0, 0, 0]);
        assert!(!r.install(stale), "same epoch ignored");
        let fresh = r.map().reassigned(0, 2, 1);
        assert_eq!(fresh.epoch, 2);
        assert!(r.install(fresh.clone()));
        assert_eq!(r.epoch(), 2);
        assert_eq!(r.route(0, Time::ZERO).node, 2);
        assert!(!r.install(ShardMap::new(vec![0, 0, 0], vec![1, 1, 1])));
        assert_eq!(*r.map(), fresh);
    }

    #[test]
    fn telemetry_counts_failovers_and_refreshes() {
        let reg = Registry::new();
        let r = router();
        r.attach_telemetry(&reg.scoped("router"));
        let t0 = Time::ZERO + Dur::micros(5);
        r.observe(0, Outcome::Timeout, t0);
        r.observe(0, Outcome::Timeout, t0);
        let _ = r.route(0, t0 + Dur::micros(1));
        r.install(r.map().reassigned(2, 1, 0));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("router.failovers"), 1);
        assert_eq!(snap.counter("router.map_refreshes"), 1);
        assert_eq!(snap.gauge("router.node0.target_up"), 0);
    }
}
