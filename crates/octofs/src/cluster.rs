//! The Octopus-like distributed file system: one metadata server + one
//! data region (emulated-NVMe-backed persistent memory) per node.
//!
//! Faithful to the comparison target's relevant properties (paper §IV):
//! RDMA data path, *distributed* metadata requiring cross-node RPC per
//! lookup, and — crucially — no DL-specific batching: every sample read is
//! an individual lookup + RDMA read.

use std::sync::Arc;

use blocksim::{covering_blocks, DeviceConfig, NvmeDevice, NvmeTarget};
use fabric::{Cluster, FabricFault, Outcome, RpcClient, RpcError, TargetStates};
use simkit::plock::Mutex;
use simkit::retry::RetryPolicy;
use simkit::runtime::Runtime;
use simkit::telemetry::{Counter, Registry, Snapshot};
use simkit::time::Dur;

use crate::meta::{owner_of, LookupReq, LookupResp, MetaEntry, MetaTable, SERVER_LOOKUP_COST};

/// Client-side CPU per read: posting the RDMA read and handling completion.
pub const CLIENT_POST_COST: Dur = Dur::nanos(900);

/// Typed failures of the octofs data/metadata path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OctoError {
    /// The name is not in the namespace.
    NotFound(String),
    /// The metadata owner (and any replica) stayed unreachable through the
    /// retry budget.
    Unavailable { node: u32, attempts: u32 },
    /// The data read kept failing (media errors or transport drops) until
    /// the retry budget ran out.
    ReadFailed { node: u32, attempts: u32 },
}

impl std::fmt::Display for OctoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OctoError::NotFound(name) => write!(f, "no such file: {name}"),
            OctoError::Unavailable { node, attempts } => {
                write!(
                    f,
                    "metadata node {node} unreachable after {attempts} attempt(s)"
                )
            }
            OctoError::ReadFailed { node, attempts } => {
                write!(
                    f,
                    "read from node {node} failed after {attempts} attempt(s)"
                )
            }
        }
    }
}

impl std::error::Error for OctoError {}

/// Deployment knobs for fault-tolerant operation. The defaults keep the
/// baseline byte-identical to the original (single-copy, generous retry):
/// chaos experiments opt into replication to exercise failover.
#[derive(Clone, Debug, Default)]
pub struct OctoConfig {
    /// Retry schedule for data reads.
    pub retry: RetryPolicy,
    /// Keep a second copy of data and metadata on `(owner + 1) % nodes`.
    pub replicate: bool,
}

/// Attempts at one lookup RPC *before* failing over to the replica
/// metadata server; kept short so failover engages quickly.
const RPC_ATTEMPTS: u32 = 2;

/// Consecutive transport failures that open a target's circuit.
const HEALTH_THRESHOLD: u32 = 2;

/// How long an open circuit diverts traffic before a probe is allowed.
const HEALTH_COOLDOWN: Dur = Dur::millis(1);

/// RPC/read counters, living under `octofs.*` in the cluster's registry.
struct OctoTelemetry {
    lookups: Counter,
    lookup_rpcs: Counter,
    reads: Counter,
    bytes_read: Counter,
    read_retries: Counter,
    /// Attempts abandoned to a transport timeout (lookup or read).
    timeouts: Counter,
    /// Times a lookup or read switched away from an unhealthy node.
    failovers: Counter,
}

/// A deployed Octopus-like file system across `nodes` nodes.
pub struct OctopusFs {
    cluster: Arc<Cluster>,
    devices: Vec<Arc<NvmeDevice>>,
    servers: Vec<RpcClient<LookupReq, LookupResp>>,
    /// Append cursor per node's data region.
    cursors: Vec<Mutex<u64>>,
    tables: Vec<Arc<Mutex<MetaTable>>>,
    cfg: OctoConfig,
    health: TargetStates,
    tel: OctoTelemetry,
}

impl std::fmt::Debug for OctopusFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OctopusFs")
            .field("nodes", &self.devices.len())
            .finish()
    }
}

impl OctopusFs {
    /// Deploy over an existing fabric: one metadata server task and one
    /// data device per node.
    pub fn deploy(
        rt: &Runtime,
        cluster: Arc<Cluster>,
        device_cfg: &DeviceConfig,
    ) -> Arc<OctopusFs> {
        OctopusFs::deploy_with(rt, cluster, device_cfg, OctoConfig::default())
    }

    /// Deploy with explicit fault-tolerance knobs (see [`OctoConfig`]).
    pub fn deploy_with(
        rt: &Runtime,
        cluster: Arc<Cluster>,
        device_cfg: &DeviceConfig,
        cfg: OctoConfig,
    ) -> Arc<OctopusFs> {
        let nodes = cluster.len();
        let mut devices = Vec::with_capacity(nodes);
        let mut servers = Vec::with_capacity(nodes);
        let mut tables = Vec::with_capacity(nodes);
        for node in 0..nodes {
            let dev = NvmeDevice::new(device_cfg.clone());
            devices.push(dev);
            let table = Arc::new(Mutex::new(MetaTable::new()));
            tables.push(table.clone());
            let client = fabric::serve::<LookupReq, LookupResp>(
                rt,
                cluster.clone(),
                node,
                &format!("octo-meta-{node}"),
                move |rt, _from, req| {
                    rt.work(SERVER_LOOKUP_COST);
                    LookupResp(table.lock().lookup(&req.0))
                },
            )
            .with_retry(RetryPolicy {
                max_attempts: RPC_ATTEMPTS,
                ..Default::default()
            });
            servers.push(client);
        }
        let scope = cluster.registry().scoped("octofs");
        let health = TargetStates::new(nodes, HEALTH_THRESHOLD, HEALTH_COOLDOWN, None);
        health.attach_telemetry(&cluster.registry().scoped("octofs.health"));
        Arc::new(OctopusFs {
            tel: OctoTelemetry {
                lookups: scope.counter("lookups"),
                lookup_rpcs: scope.counter("lookup_rpcs"),
                reads: scope.counter("reads"),
                bytes_read: scope.counter("bytes_read"),
                read_retries: scope.counter("read_retries"),
                timeouts: scope.counter("timeouts"),
                failovers: scope.counter("failovers"),
            },
            cluster,
            cursors: (0..nodes).map(|_| Mutex::new(0)).collect(),
            devices,
            servers,
            tables,
            cfg,
            health,
        })
    }

    pub fn nodes(&self) -> usize {
        self.devices.len()
    }

    /// The shared registry (cluster root): `octofs.*` plus `fabric.*`.
    pub fn registry(&self) -> &Registry {
        self.cluster.registry()
    }

    /// Snapshot of the octofs + fabric metrics.
    pub fn metrics(&self) -> Snapshot {
        self.cluster.registry().snapshot()
    }

    /// 512-aligned append allocation on a node's data region.
    fn alloc(&self, node: usize, len: u64) -> u64 {
        let mut cur = self.cursors[node].lock();
        let off = *cur;
        // Keep 512-alignment so RDMA reads map to whole device blocks.
        *cur += len.div_ceil(512) * 512;
        off
    }

    /// Store a file: data appended on the owner node's device, metadata
    /// registered at the owner. With [`OctoConfig::replicate`], a second
    /// copy of both lands on `(owner + 1) % nodes`. Returns the entry.
    /// (Load phase; charged to the device but not network-timed per byte —
    /// the paper's experiments all start after datasets are staged.)
    pub fn store(&self, rt: &Runtime, name: &str, data: &[u8]) -> MetaEntry {
        let nodes = self.nodes();
        let node = owner_of(name, nodes);
        let offset = self.alloc(node, data.len() as u64);
        let dev = &self.devices[node];
        let (slba, nblocks, _) = covering_blocks(offset, data.len() as u64);
        dev.reserve_write(rt.now(), slba, nblocks);
        dev.dma_write(slba, data);
        let replica = if self.cfg.replicate && nodes > 1 {
            let rnode = (node + 1) % nodes;
            let roff = self.alloc(rnode, data.len() as u64);
            let rdev = &self.devices[rnode];
            let (rslba, rnblocks, _) = covering_blocks(roff, data.len() as u64);
            rdev.reserve_write(rt.now(), rslba, rnblocks);
            rdev.dma_write(rslba, data);
            Some((rnode as u32, roff))
        } else {
            None
        };
        let entry = MetaEntry {
            node: node as u32,
            offset,
            len: data.len() as u64,
            replica,
        };
        self.tables[node].lock().insert(name, entry);
        if let Some((rnode, _)) = replica {
            self.tables[rnode as usize].lock().insert(name, entry);
        }
        entry
    }

    /// Register a file's metadata without materializing data or charging
    /// time: for lookup-only experiments (Fig. 10) on huge namespaces.
    /// Replicated deployments mirror the *metadata* to the replica server
    /// (so lookups fail over), but no data copy exists.
    pub fn store_meta_only(&self, name: &str, len: u64) -> MetaEntry {
        let nodes = self.nodes();
        let node = owner_of(name, nodes);
        let offset = self.alloc(node, len);
        let entry = MetaEntry {
            node: node as u32,
            offset,
            len,
            replica: None,
        };
        self.tables[node].lock().insert(name, entry);
        if self.cfg.replicate && nodes > 1 {
            self.tables[(node + 1) % nodes].lock().insert(name, entry);
        }
        entry
    }

    /// Metadata lookup from `client_node`: an RPC to the owner (network
    /// round trip unless the owner is local, in which case only the server
    /// processing is paid). Swallows transport errors into `None`; callers
    /// that must distinguish an absent name from an unreachable namespace
    /// use [`OctopusFs::try_lookup`].
    pub fn lookup(&self, rt: &Runtime, client_node: usize, name: &str) -> Option<MetaEntry> {
        self.try_lookup(rt, client_node, name).ok().flatten()
    }

    /// Fault-aware metadata lookup: retries under the RPC policy and fails
    /// over to the replica metadata server when the owner is down.
    pub fn try_lookup(
        &self,
        rt: &Runtime,
        client_node: usize,
        name: &str,
    ) -> Result<Option<MetaEntry>, OctoError> {
        self.tel.lookups.inc();
        let nodes = self.nodes();
        let owner = owner_of(name, nodes);
        let mut candidates = vec![owner];
        if self.cfg.replicate && nodes > 1 {
            candidates.push((owner + 1) % nodes);
        }
        let mut last_err = OctoError::Unavailable {
            node: owner as u32,
            attempts: 0,
        };
        let total = candidates.len();
        for (i, srv) in candidates.into_iter().enumerate() {
            let has_fallback = i + 1 < total;
            if has_fallback && !self.health.available(srv, rt.now()) {
                // Circuit open: divert to the replica without burning the
                // RPC retry budget on a known-dead server.
                self.tel.failovers.inc();
                continue;
            }
            if srv == client_node {
                // Local: hash-table access in shared memory.
                rt.work(SERVER_LOOKUP_COST);
                self.health.observe(srv, Outcome::Ok, rt.now());
                return Ok(self.tables[srv].lock().lookup(name));
            }
            self.tel.lookup_rpcs.inc();
            match self.servers[srv].try_call(rt, client_node, LookupReq(name.to_string())) {
                Ok(resp) => {
                    self.health.observe(srv, Outcome::Ok, rt.now());
                    return Ok(resp.0);
                }
                Err(e @ RpcError::Timeout { attempts, .. }) => {
                    self.tel.timeouts.inc();
                    self.health.observe(srv, Outcome::from(&e), rt.now());
                    last_err = OctoError::Unavailable {
                        node: srv as u32,
                        attempts,
                    };
                    if has_fallback {
                        self.tel.failovers.inc();
                    }
                }
            }
        }
        Err(last_err)
    }

    /// Read a whole file into `buf` from `client_node`: lookup + one RDMA
    /// read from the owner's data region. Returns bytes read.
    pub fn read(
        &self,
        rt: &Runtime,
        client_node: usize,
        name: &str,
        buf: &mut [u8],
    ) -> Result<usize, OctoError> {
        let entry = self
            .try_lookup(rt, client_node, name)?
            .ok_or_else(|| OctoError::NotFound(name.to_string()))?;
        self.read_entry(rt, client_node, &entry, buf)?;
        Ok(entry.len as usize)
    }

    /// RDMA-read a located extent (no metadata traffic).
    ///
    /// Device (PM with injected delay) services the access, then the
    /// payload crosses the fabric to the client (RDMA read response); local
    /// reads skip the wire. Failed attempts retry under the deployment's
    /// [`RetryPolicy`] with deterministic backoff; transport failures trip
    /// the target's circuit breaker, and subsequent attempts fail over to
    /// the replica copy when one exists. A media error sends the next
    /// attempt to the next copy.
    /// Each attempt asks its copy's device for one fault decision over the
    /// extent it reads, so a killed device or a sticky bad extent fails it.
    pub fn read_entry(
        &self,
        rt: &Runtime,
        client_node: usize,
        entry: &MetaEntry,
        buf: &mut [u8],
    ) -> Result<(), OctoError> {
        self.tel.reads.inc();
        self.tel.bytes_read.add(entry.len);
        let mut copies = vec![(entry.node as usize, entry.offset)];
        if let Some((rnode, roff)) = entry.replica {
            copies.push((rnode as usize, roff));
        }
        let mut failed = 0u32;
        let mut last_pick: Option<usize> = None;
        loop {
            // Prefer the first copy whose circuit is closed; if every copy
            // looks down, probe the primary anyway (backoff paces us).
            let pick = copies
                .iter()
                .position(|&(n, _)| self.health.available(n, rt.now()))
                .unwrap_or(0);
            let (node, offset) = copies[pick];
            if last_pick.is_some_and(|prev| prev != node) {
                self.tel.failovers.inc();
            }
            last_pick = Some(node);
            let dev = &self.devices[node];
            let (slba, nblocks, head) = covering_blocks(offset, entry.len);
            let bytes = nblocks as u64 * blocksim::BLOCK_SIZE;
            rt.work(CLIENT_POST_COST);
            let dev_fault = dev.fault_decide_range(rt.now(), false, slba, nblocks);
            let net_fault = if node == client_node {
                FabricFault::Healthy
            } else {
                self.cluster.fault_decide(rt.now(), client_node, node)
            };
            let (ok, t_done) = match net_fault {
                FabricFault::Dropped { detect_after } => {
                    // The RDMA read never happened; the client only learns
                    // after its I/O timeout.
                    (false, rt.now() + detect_after)
                }
                net => {
                    let extra = dev_fault.extra_latency
                        + match net {
                            FabricFault::Delay(d) => d,
                            _ => Dur::ZERO,
                        };
                    let t_dev = dev.reserve_read(rt.now(), slba, nblocks) + extra;
                    let t = if node == client_node {
                        t_dev
                    } else {
                        self.cluster
                            .reserve_transfer(t_dev, node, client_node, bytes)
                    };
                    (dev_fault.status.is_ok(), t)
                }
            };
            rt.sleep_until(t_done);
            if ok {
                self.health.observe(node, Outcome::Ok, rt.now());
                let n = entry.len as usize;
                let mut block_buf = vec![0u8; bytes as usize];
                dev.dma_read(slba, &mut block_buf);
                buf[..n].copy_from_slice(&block_buf[head..head + n]);
                return Ok(());
            }
            if net_fault.is_dropped() {
                // Only transport losses indict the *target*.
                self.tel.timeouts.inc();
                self.health.observe(node, Outcome::Timeout, rt.now());
            } else {
                // A media error is the device's (a killed one fails every
                // command): the retry goes to the next copy, if any.
                copies.rotate_left(1);
            }
            failed += 1;
            self.tel.read_retries.inc();
            match self.cfg.retry.next_delay(failed) {
                Some(backoff) => rt.sleep_until(rt.now() + backoff),
                None => {
                    return Err(OctoError::ReadFailed {
                        node: node as u32,
                        attempts: failed,
                    })
                }
            }
        }
    }

    /// Device of a node (for verification in tests).
    pub fn device(&self, node: usize) -> &Arc<NvmeDevice> {
        &self.devices[node]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::FabricConfig;

    fn deploy(rt: &Runtime, nodes: usize) -> Arc<OctopusFs> {
        let cluster = Arc::new(Cluster::new(nodes, FabricConfig::default()));
        let cfg = DeviceConfig::emulated_ramdisk(64 << 20, Dur::micros(10));
        OctopusFs::deploy(rt, cluster, &cfg)
    }

    #[test]
    fn store_then_read_roundtrip() {
        Runtime::simulate(0, |rt| {
            let fs = deploy(rt, 4);
            let data: Vec<u8> = (0..5000).map(|i| (i * 3 % 256) as u8).collect();
            fs.store(rt, "sample_1", &data);
            let mut out = vec![0u8; 5000];
            let n = fs.read(rt, 0, "sample_1", &mut out).unwrap();
            assert_eq!(n, 5000);
            assert_eq!(out, data);
        });
    }

    #[test]
    fn missing_file_is_not_found() {
        Runtime::simulate(0, |rt| {
            let fs = deploy(rt, 2);
            let mut out = vec![0u8; 16];
            assert_eq!(
                fs.read(rt, 0, "nope", &mut out),
                Err(OctoError::NotFound("nope".to_string()))
            );
            assert!(fs.lookup(rt, 0, "nope").is_none());
        });
    }

    #[test]
    fn remote_lookup_costs_a_round_trip() {
        Runtime::simulate(0, |rt| {
            let fs = deploy(rt, 2);
            // Find names owned by each node.
            let local_name = (0..100)
                .map(|i| format!("f{i}"))
                .find(|n| owner_of(n, 2) == 0)
                .unwrap();
            let remote_name = (0..100)
                .map(|i| format!("f{i}"))
                .find(|n| owner_of(n, 2) == 1)
                .unwrap();
            fs.store(rt, &local_name, &[1u8; 64]);
            fs.store(rt, &remote_name, &[1u8; 64]);
            let t0 = rt.now();
            fs.lookup(rt, 0, &local_name).unwrap();
            let local = rt.now() - t0;
            let t1 = rt.now();
            fs.lookup(rt, 0, &remote_name).unwrap();
            let remote = rt.now() - t1;
            assert!(
                remote.as_nanos() > local.as_nanos() + 3_000,
                "remote {remote:?} local {local:?}"
            );
        });
    }

    #[test]
    fn data_distributes_across_nodes() {
        Runtime::simulate(0, |rt| {
            let fs = deploy(rt, 4);
            for i in 0..200 {
                fs.store(rt, &format!("sample_{i:04}"), &[7u8; 256]);
            }
            let with_data = (0..4).filter(|&n| fs.device(n).stats().1 > 0).count();
            assert_eq!(with_data, 4, "all nodes should own some files");
        });
    }

    #[test]
    fn reads_are_parallel_across_clients() {
        // 4 clients reading their own files: total time should be far less
        // than 4x a single client's time.
        Runtime::simulate(0, |rt| {
            let fs = deploy(rt, 4);
            for i in 0..64 {
                fs.store(rt, &format!("s{i}"), &vec![3u8; 4096]);
            }
            let mut handles = Vec::new();
            for c in 0..4usize {
                let fs = fs.clone();
                handles.push(rt.spawn_with(&format!("client{c}"), move |rt| {
                    let mut buf = vec![0u8; 4096];
                    for i in 0..16 {
                        let idx = c * 16 + i;
                        fs.read(rt, c, &format!("s{idx}"), &mut buf).unwrap();
                    }
                    rt.now().nanos()
                }));
            }
            let finishes: Vec<u64> = handles.into_iter().map(|h| h.join()).collect();
            let max = *finishes.iter().max().unwrap();
            // A fully serial execution would be ~4x one client's work.
            let serial_estimate = 4 * 16 * 25_000u64; // ~25us per remote read
            assert!(max < serial_estimate, "max {max} vs {serial_estimate}");
        });
    }

    fn deploy_replicated(rt: &Runtime, nodes: usize) -> (Arc<Cluster>, Arc<OctopusFs>) {
        let cluster = Arc::new(Cluster::new(nodes, FabricConfig::default()));
        let cfg = DeviceConfig::emulated_ramdisk(64 << 20, Dur::micros(10));
        let fs = OctopusFs::deploy_with(
            rt,
            cluster.clone(),
            &cfg,
            OctoConfig {
                replicate: true,
                ..Default::default()
            },
        );
        (cluster, fs)
    }

    /// A name owned by `want` in an `n`-node cluster, and the data to match.
    fn name_owned_by(want: usize, n: usize) -> String {
        (0..1000)
            .map(|i| format!("file_{i}"))
            .find(|name| owner_of(name, n) == want)
            .unwrap()
    }

    #[test]
    fn crashed_primary_fails_over_to_replica() {
        Runtime::simulate(0, |rt| {
            let (cluster, fs) = deploy_replicated(rt, 3);
            let name = name_owned_by(1, 3);
            let data: Vec<u8> = (0..3000).map(|i| (i * 11 % 256) as u8).collect();
            fs.store(rt, &name, &data);
            // Node 1 (the primary) crashes before the read and stays down
            // far longer than the whole retry budget.
            cluster.set_faults(
                fabric::FabricFaultInjector::new(5)
                    .with_io_timeout(Dur::micros(30))
                    .with_crash(1, rt.now(), rt.now() + Dur::secs(1)),
            );
            let mut out = vec![0u8; 3000];
            let n = fs.read(rt, 0, &name, &mut out).unwrap();
            assert_eq!(n, 3000);
            assert_eq!(out, data, "replica must serve identical bytes");
            let snap = fs.metrics();
            assert!(snap.counter("octofs.failovers") > 0);
            assert!(snap.counter("octofs.timeouts") > 0);
            assert_eq!(snap.gauge("octofs.health.node1.target_up"), 0);
        });
    }

    #[test]
    fn unreplicated_crash_is_a_typed_error() {
        Runtime::simulate(0, |rt| {
            let cl = Arc::new(Cluster::new(2, FabricConfig::default()));
            let cfg = DeviceConfig::emulated_ramdisk(64 << 20, Dur::micros(10));
            let fs = OctopusFs::deploy(rt, cl.clone(), &cfg);
            let name = name_owned_by(1, 2);
            fs.store(rt, &name, &[9u8; 128]);
            cl.set_faults(
                fabric::FabricFaultInjector::new(6)
                    .with_io_timeout(Dur::micros(20))
                    .with_crash(1, rt.now(), rt.now() + Dur::secs(10)),
            );
            let mut out = vec![0u8; 128];
            match fs.read(rt, 0, &name, &mut out) {
                Err(OctoError::Unavailable { node: 1, attempts }) => {
                    assert!(attempts >= 1);
                }
                other => panic!("expected Unavailable, got {other:?}"),
            }
        });
    }

    /// A killed device fails every read instead of serving zeros: alone it
    /// is a typed error, and a replicated file fails over to its copy.
    #[test]
    fn killed_device_is_a_typed_error_or_fails_over() {
        Runtime::simulate(0, |rt| {
            let data: Vec<u8> = (0..3000).map(|i| (i * 7 % 251) as u8).collect();
            let mut out = vec![0u8; 3000];
            for fs in [deploy(rt, 2), deploy_replicated(rt, 2).1] {
                let name = name_owned_by(1, 2);
                fs.store(rt, &name, &data);
                fs.device(1).kill();
                match fs.read(rt, 0, &name, &mut out) {
                    Ok(n) => assert!(fs.cfg.replicate && n == 3000 && out == data),
                    Err(e) => assert!(
                        !fs.cfg.replicate && matches!(e, OctoError::ReadFailed { node: 1, .. })
                    ),
                }
            }
        });
    }

    #[test]
    fn read_exhaustion_is_a_typed_error() {
        // A device that always fails reads: the retry budget must end in
        // ReadFailed, not a panic.
        Runtime::simulate(0, |rt| {
            let cl = Arc::new(Cluster::new(1, FabricConfig::default()));
            let cfg = DeviceConfig::emulated_ramdisk(64 << 20, Dur::micros(10));
            let fs = OctopusFs::deploy_with(
                rt,
                cl,
                &cfg,
                OctoConfig {
                    retry: RetryPolicy {
                        max_attempts: 4,
                        ..Default::default()
                    },
                    ..Default::default()
                },
            );
            let entry = fs.store(rt, "always_bad", &[1u8; 512]);
            fs.device(0)
                .set_faults(blocksim::FaultInjector::new(3).with_read_failures(1_000_000));
            let mut out = vec![0u8; 512];
            assert_eq!(
                fs.read_entry(rt, 0, &entry, &mut out),
                Err(OctoError::ReadFailed {
                    node: 0,
                    attempts: 4
                })
            );
            assert!(fs.metrics().counter("octofs.read_retries") >= 4);
        });
    }
}
