//! Sharded metadata service over the fabric (scale-out lookups).
//!
//! The paper's DLFS replicates the whole sample directory to every compute
//! node at mount time (§III-B), which is perfect for a handful of readers
//! but caps metadata scale: a thousand-client cluster cannot afford a full
//! allgather per mount, and a single metadata server serializes on its
//! NIC. This module shards the directory's name space across `M` metadata
//! nodes, FalconFS-style:
//!
//! - **Partition**: shard of a name = `key % shards` (same hash family as
//!   the directory's per-storage-node trees, so placement is a pure
//!   function of the name).
//! - **Locality-aware placement**: shard `s` is *owned* by the storage
//!   node holding the most payload bytes of `s`'s samples (ties to the
//!   lowest node); the runner-up is the standby. A lookup answered by the
//!   owner can therefore piggyback the sample payload on the response —
//!   one round trip instead of lookup-then-fetch.
//! - **Serving**: one RPC server per storage node over [`fabric::rpc`];
//!   every node holds a replica of each shard's AVL tree, so a standby
//!   can serve the moment the owner's circuit opens.
//! - **Routing**: clients hold a [`fabric::shard::ShardRouter`] — a
//!   per-client cached [`ShardMap`] plus the nodes' routing state — and send the
//!   epoch they routed with; a server that sees a stale epoch piggybacks
//!   the current map on the reply (epoch-stamped invalidation). A node's
//!   circuit opens on the same rule as a data target's
//!   ([`HEALTH_THRESHOLD`], [`health_cooldown`]).

use std::sync::Arc;

use fabric::rpc::{serve, RpcClient, RpcError, WireSize};
use fabric::shard::{ShardMap, ShardRouter};
use fabric::topology::Cluster;
use simkit::plock::Mutex;
use simkit::runtime::Runtime;

use crate::avl::AvlTree;
use crate::config::DlfsCosts;
use crate::directory::SampleDirectory;
use crate::entry::SampleEntry;
use crate::error::{DirectoryError, DlfsError};
use crate::integrity::{health_cooldown, HEALTH_THRESHOLD};

/// Which metadata shard a 48-bit sample key belongs to.
pub fn shard_of(key: u64, shards: usize) -> usize {
    (key % shards as u64) as usize
}

/// Deterministic locality-aware placement: for every shard, the storage
/// node holding the most payload bytes of that shard's samples becomes the
/// owner (ties to the lowest node id), the runner-up the standby. Epoch 1.
pub fn place_shards(dir: &SampleDirectory, shards: usize) -> ShardMap {
    let nodes = dir.storage_nodes();
    let mut bytes = vec![vec![0u64; nodes]; shards];
    for id in 0..dir.len() as u32 {
        let e = dir.entry(id);
        bytes[shard_of(e.key(), shards)][e.nid() as usize] += e.len();
    }
    let mut owner = Vec::with_capacity(shards);
    let mut standby = Vec::with_capacity(shards);
    for tally in &bytes {
        let best = |skip: Option<u16>| -> u16 {
            let mut win = (0u64, 0u16);
            let mut seen = false;
            for (n, &b) in tally.iter().enumerate() {
                if Some(n as u16) == skip {
                    continue;
                }
                if !seen || b > win.0 {
                    win = (b, n as u16);
                    seen = true;
                }
            }
            win.1
        };
        let o = best(None);
        let s = if nodes > 1 { best(Some(o)) } else { o };
        owner.push(o);
        standby.push(s);
    }
    ShardMap::new(owner, standby)
}

/// Tuning for [`MetaService::deploy`].
#[derive(Clone, Copy, Debug)]
pub struct MetaShardConfig {
    /// Number of metadata shards (1 = the centralized baseline).
    pub shards: usize,
    /// Pin every shard to one storage node instead of locality-aware
    /// placement — the "centralized tree behind one NIC" baseline.
    pub pin_node: Option<u16>,
}

impl Default for MetaShardConfig {
    fn default() -> Self {
        MetaShardConfig {
            shards: 1,
            pin_node: None,
        }
    }
}

/// Lookup request capsule: the hashed name, the client's cached map
/// epoch, and whether to piggyback the payload when the serving node
/// also stores the sample.
#[derive(Clone, Copy, Debug)]
pub struct MetaReq {
    pub key: u64,
    pub epoch: u64,
    pub fetch: bool,
}

impl WireSize for MetaReq {
    fn wire_bytes(&self) -> u64 {
        17
    }
}

/// Lookup outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetaBody {
    /// Found: the raw 128-bit directory entry, plus the payload bytes
    /// carried in this response (nonzero only for a co-located fetch).
    Hit {
        id: u32,
        unit1: u64,
        unit2: u64,
        piggyback: u64,
    },
    /// The shard does not contain the key.
    Miss,
    /// The routed-to node no longer serves this shard under the current
    /// map — retry with the refreshed map in [`MetaResp::map`].
    WrongShard,
}

/// Lookup reply; `map` piggybacks the authoritative shard map whenever
/// the request's epoch was stale.
#[derive(Clone, Debug)]
pub struct MetaResp {
    pub body: MetaBody,
    pub map: Option<ShardMap>,
}

impl WireSize for MetaResp {
    fn wire_bytes(&self) -> u64 {
        let body = match self.body {
            MetaBody::Hit { piggyback, .. } => 24 + piggyback,
            _ => 8,
        };
        body + self.map.as_ref().map_or(0, |m| m.wire_bytes())
    }
}

/// Shared server-side state: per-shard replicated trees.
struct Store {
    shards: usize,
    trees: Vec<AvlTree<u32>>,
    dir: Arc<SampleDirectory>,
    costs: DlfsCosts,
}

/// A deployed sharded metadata service: one RPC server per storage node,
/// an authoritative epoch-stamped [`ShardMap`], and a factory for
/// per-client routed handles.
pub struct MetaService {
    peers: Vec<RpcClient<MetaReq, MetaResp>>,
    map: Arc<Mutex<Arc<ShardMap>>>,
    store: Arc<Store>,
}

impl std::fmt::Debug for MetaService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetaService")
            .field("shards", &self.store.shards)
            .field("nodes", &self.peers.len())
            .field("epoch", &self.map.lock().epoch)
            .finish()
    }
}

impl MetaService {
    /// Shard `dir` and spawn one `meta{n}` RPC server per storage node on
    /// `cluster` (cluster node `n` must be storage node `n`'s NIC, the
    /// convention every DLFS cluster sim uses). Lookup CPU is charged
    /// with the same `costs` model as the local directory, so shards=1
    /// pinned to one node reproduces the centralized tree exactly.
    pub fn deploy(
        rt: &Runtime,
        cluster: Arc<Cluster>,
        dir: Arc<SampleDirectory>,
        costs: DlfsCosts,
        cfg: MetaShardConfig,
    ) -> Result<MetaService, DlfsError> {
        if cfg.shards == 0 {
            return Err(DlfsError::Config("metadata_shards must be >= 1".into()));
        }
        let nodes = dir.storage_nodes();
        if let Some(n) = cfg.pin_node.filter(|&n| n as usize >= nodes) {
            return Err(DlfsError::Config(format!(
                "pin_node {n} is not a storage node (the directory has {nodes})"
            )));
        }
        let mut trees: Vec<AvlTree<u32>> = (0..cfg.shards).map(|_| AvlTree::new()).collect();
        for id in 0..dir.len() as u32 {
            let key = dir.entry(id).key();
            trees[shard_of(key, cfg.shards)]
                .insert(key, id)
                .map_err(|_| DlfsError::KeyCollision(format!("sample id {id}")))?;
        }
        let map = match cfg.pin_node {
            Some(n) => ShardMap::new(vec![n; cfg.shards], vec![n; cfg.shards]),
            None => place_shards(&dir, cfg.shards),
        };
        let store = Arc::new(Store {
            shards: cfg.shards,
            trees,
            dir,
            costs,
        });
        let map = Arc::new(Mutex::new(Arc::new(map)));
        let mut peers = Vec::with_capacity(nodes);
        for n in 0..nodes {
            let store = store.clone();
            let map = map.clone();
            let client = serve(
                rt,
                cluster.clone(),
                n,
                &format!("meta{n}"),
                move |rt: &Runtime, _from: usize, req: MetaReq| {
                    serve_lookup(rt, &store, &map, n as u16, req)
                },
            );
            peers.push(client);
        }
        Ok(MetaService { peers, map, store })
    }

    /// The authoritative map epoch.
    pub fn epoch(&self) -> u64 {
        self.map.lock().epoch
    }

    /// Reassign one shard (rebalance / planned failover): bumps the epoch;
    /// clients learn of it through piggybacked replies.
    pub fn reassign(&self, shard: usize, owner: u16, standby: u16) {
        let mut cur = self.map.lock();
        *cur = Arc::new(cur.reassigned(shard, owner, standby));
    }

    /// A routed client handle with its own shard-map cache and circuit
    /// breakers, seeded from the current authoritative map.
    pub fn client(&self) -> MetaClient {
        let router = ShardRouter::new(
            (**self.map.lock()).clone(),
            self.peers.len(),
            HEALTH_THRESHOLD,
            health_cooldown(),
        );
        MetaClient {
            shards: self.store.shards,
            router: Arc::new(router),
            peers: self.peers.clone(),
        }
    }
}

fn serve_lookup(
    rt: &Runtime,
    store: &Store,
    map: &Mutex<Arc<ShardMap>>,
    me: u16,
    req: MetaReq,
) -> MetaResp {
    let current = map.lock().clone();
    let shard = shard_of(req.key, store.shards);
    let refresh = (req.epoch != current.epoch).then(|| (*current).clone());
    if current.owner[shard] != me && current.standby[shard] != me {
        return MetaResp {
            body: MetaBody::WrongShard,
            map: refresh,
        };
    }
    let (found, depth) = store.trees[shard].get_with_depth(req.key);
    rt.work(store.costs.lookup_base + store.costs.lookup_per_level * depth as u64);
    let body = match found {
        None => MetaBody::Miss,
        Some(&id) => {
            let e = store.dir.entry(id);
            let (unit1, unit2) = e.raw();
            // The locality win: the owner stores the bytes it indexes, so
            // a lookup can return the payload in the same response.
            let piggyback = if req.fetch && e.nid() == me {
                e.len()
            } else {
                0
            };
            MetaBody::Hit {
                id,
                unit1,
                unit2,
                piggyback,
            }
        }
    };
    MetaResp { body, map: refresh }
}

/// What a routed lookup produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetaLookup {
    pub id: u32,
    pub entry: SampleEntry,
    /// Payload bytes that rode back on the lookup response (co-located
    /// owner); 0 means the caller still has to fetch from `entry.nid()`.
    pub piggyback: u64,
}

/// A client's handle on the sharded metadata service: cached shard map,
/// health-aware routing, retries, and stale-epoch refresh.
#[derive(Clone, Debug)]
pub struct MetaClient {
    shards: usize,
    router: Arc<ShardRouter>,
    peers: Vec<RpcClient<MetaReq, MetaResp>>,
}

impl MetaClient {
    /// This client's cached map epoch.
    pub fn epoch(&self) -> u64 {
        self.router.epoch()
    }

    /// The router (tests / telemetry attachment).
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Look `name` up from cluster node `from_node`. `fetch` asks the
    /// owner to piggyback the payload when co-located.
    ///
    /// `Ok(None)` is an honest miss; an exhausted RPC retry budget maps to
    /// [`DlfsError::Io`] against the routed node, and a map that never
    /// converges to [`DirectoryError::Corrupt`].
    pub fn lookup(
        &self,
        rt: &Runtime,
        from_node: usize,
        name: &str,
        fetch: bool,
    ) -> Result<Option<MetaLookup>, DlfsError> {
        let key = SampleEntry::key_for(name);
        let shard = shard_of(key, self.shards);
        // One stale-map refresh round per epoch bump we can learn about,
        // bounded so a wedged map cannot loop forever.
        for _ in 0..4 {
            let route = self.router.route(shard, rt.now());
            let req = MetaReq {
                key,
                epoch: route.epoch,
                fetch,
            };
            let resp = match self.peers[route.node as usize].try_call(rt, from_node, req) {
                Ok(resp) => {
                    self.router
                        .observe(route.node, fabric::Outcome::Ok, rt.now());
                    resp
                }
                Err(RpcError::Timeout {
                    server_node,
                    attempts,
                }) => {
                    self.router
                        .observe(route.node, fabric::Outcome::Timeout, rt.now());
                    return Err(DlfsError::Io {
                        target: server_node as u32,
                        attempts,
                        cause: crate::error::IoFailure::Timeout,
                    });
                }
            };
            if let Some(map) = resp.map {
                self.router.install(map);
            }
            match resp.body {
                MetaBody::Hit {
                    id,
                    unit1,
                    unit2,
                    piggyback,
                } => {
                    return Ok(Some(MetaLookup {
                        id,
                        entry: SampleEntry::from_raw(unit1, unit2),
                        piggyback,
                    }))
                }
                MetaBody::Miss => return Ok(None),
                MetaBody::WrongShard => continue,
            }
        }
        Err(DirectoryError::Corrupt(format!("shard {shard}: map never converged")).into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::{node_for_name, DirectoryBuilder};
    use fabric::topology::FabricConfig;

    fn build_dir(nodes: usize, samples: usize) -> Arc<SampleDirectory> {
        let mut b = DirectoryBuilder::new(nodes, samples).unwrap();
        let mut cursors = vec![0u64; nodes];
        for id in 0..samples as u32 {
            let name = format!("train/sample_{id:07}");
            let nid = node_for_name(&name, nodes);
            b.add(id, &name, nid, cursors[nid as usize], 2048).unwrap();
            cursors[nid as usize] += 2048;
        }
        Arc::new(b.finish().unwrap())
    }

    fn deploy(
        rt: &Runtime,
        nodes: usize,
        samples: usize,
        cfg: MetaShardConfig,
    ) -> (Arc<SampleDirectory>, MetaService) {
        let dir = build_dir(nodes, samples);
        let cluster = Arc::new(Cluster::new(nodes + 4, FabricConfig::default()));
        let svc = MetaService::deploy(rt, cluster, dir.clone(), DlfsCosts::default(), cfg).unwrap();
        (dir, svc)
    }

    #[test]
    fn placement_follows_bytes() {
        let dir = build_dir(4, 4000);
        let map = place_shards(&dir, 8);
        assert_eq!(map.shards(), 8);
        // Every shard's owner really is the argmax-bytes node.
        for s in 0..8 {
            let mut bytes = [0u64; 4];
            for id in 0..dir.len() as u32 {
                let e = dir.entry(id);
                if shard_of(e.key(), 8) == s {
                    bytes[e.nid() as usize] += e.len();
                }
            }
            let best = (0..4).max_by_key(|&n| (bytes[n], 3 - n)).unwrap() as u16;
            assert_eq!(map.owner[s], best, "shard {s}");
            assert_ne!(map.standby[s], map.owner[s]);
        }
    }

    #[test]
    fn sharded_lookup_hits_every_name_and_is_deterministic() {
        let run = || {
            Runtime::simulate(7, |rt| {
                let (dir, svc) = deploy(
                    rt,
                    4,
                    500,
                    MetaShardConfig {
                        shards: 8,
                        ..MetaShardConfig::default()
                    },
                );
                let client = svc.client();
                for id in (0..500u32).step_by(17) {
                    let name = format!("train/sample_{id:07}");
                    let hit = client.lookup(rt, 4, &name, false).unwrap().unwrap();
                    assert_eq!(hit.id, id);
                    assert_eq!(hit.entry.raw(), dir.entry(id).raw());
                }
                assert!(client.lookup(rt, 4, "nope", false).unwrap().is_none());
                rt.now().nanos()
            })
        };
        let (a, _) = run();
        let (b, _) = run();
        assert_eq!(a, b, "same-seed replay must be byte-identical");
    }

    #[test]
    fn colocated_fetch_piggybacks_payload() {
        Runtime::simulate(3, |rt| {
            let (dir, svc) = deploy(
                rt,
                4,
                400,
                MetaShardConfig {
                    shards: 4,
                    ..MetaShardConfig::default()
                },
            );
            let client = svc.client();
            let map = client.router().map();
            let mut saw_piggyback = false;
            for id in 0..100u32 {
                let name = format!("train/sample_{id:07}");
                let e = dir.entry(id);
                let hit = client.lookup(rt, 5, &name, true).unwrap().unwrap();
                let owner = map.owner[shard_of(e.key(), 4)];
                if owner == e.nid() {
                    assert_eq!(hit.piggyback, e.len());
                    saw_piggyback = true;
                } else {
                    assert_eq!(hit.piggyback, 0);
                }
            }
            // shard partition == node partition here (shards == nodes and
            // both hash the same key), so co-location is the common case.
            assert!(saw_piggyback);
        });
    }

    #[test]
    fn stale_epoch_gets_refreshed_map() {
        Runtime::simulate(11, |rt| {
            let (_, svc) = deploy(
                rt,
                3,
                300,
                MetaShardConfig {
                    shards: 6,
                    ..MetaShardConfig::default()
                },
            );
            let client = svc.client();
            assert_eq!(client.epoch(), 1);
            // Rebalance every shard away from its owner: epoch bumps, the
            // client's cached map is now stale.
            let map = client.router().map();
            for s in 0..6 {
                let new_owner = map.standby[s];
                svc.reassign(s, new_owner, map.owner[s]);
            }
            assert_eq!(svc.epoch(), 7);
            // The first lookup routed with the stale map still resolves
            // (old owner is the new standby) and piggybacks the fresh map.
            let hit = client.lookup(rt, 3, "train/sample_0000042", false).unwrap();
            assert!(hit.is_some());
            assert_eq!(client.epoch(), 7, "reply refreshed the cached map");
        });
    }

    #[test]
    fn pinned_single_shard_is_centralized() {
        Runtime::simulate(9, |rt| {
            let (_, svc) = deploy(
                rt,
                4,
                200,
                MetaShardConfig {
                    shards: 1,
                    pin_node: Some(0),
                },
            );
            let client = svc.client();
            let map = client.router().map();
            assert_eq!((map.owner[0], map.standby[0]), (0, 0));
            assert!(client
                .lookup(rt, 5, "train/sample_0000000", false)
                .unwrap()
                .is_some());
        });
    }

    #[test]
    fn pin_past_the_storage_nodes_is_a_config_error() {
        // Regression: the router indexed the health table with the pinned
        // node at the first lookup and panicked; deploy refuses it first.
        Runtime::simulate(9, |rt| {
            let dir = build_dir(4, 200);
            let cluster = Arc::new(Cluster::new(8, FabricConfig::default()));
            let cfg = MetaShardConfig {
                shards: 1,
                pin_node: Some(4),
            };
            let err = MetaService::deploy(rt, cluster, dir, DlfsCosts::default(), cfg).unwrap_err();
            assert_eq!(
                err,
                DlfsError::Config("pin_node 4 is not a storage node (the directory has 4)".into())
            );
        });
    }
}
