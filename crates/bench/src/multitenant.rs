//! Shared harness for the sharded-metadata and multi-tenant QoS
//! benchmarks (`ext_multitenant`, the `fig09` client tier, the `fig10`
//! per-shard percentiles, and the two pinned `perf_gate` metrics).
//!
//! Everything here is deterministic: same seed → byte-identical
//! latencies, shares and fingerprints.

use std::sync::Arc;

use dlfs::tenant::{QosConfig, TenantSpec};
use dlfs::{
    node_for_name, shard_of, DirectoryBuilder, DlfsConfig, DlfsCosts, MetaService, MetaShardConfig,
    ReadRequest, SampleDirectory,
};
use fabric::rpc::{serve, RpcClient, WireSize};
use fabric::{Cluster, FabricConfig};
use simkit::prelude::*;
use simkit::rng::SplitMix64;

/// Metadata-service design under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetaDesign {
    /// The whole directory behind one node's NIC (the paper's replicate-
    /// everywhere tree, served centrally).
    Centralized,
    /// Octopus-style hash partitioning: shards spread uniformly across
    /// nodes with no regard for where the sample payload lives, so almost
    /// every lookup needs a second round trip for the data.
    HashPart,
    /// This repo's locality-aware sharding: each shard is owned by the
    /// storage node holding most of its payload bytes, so the lookup
    /// response piggybacks the data (one round trip).
    Sharded,
}

impl MetaDesign {
    pub fn label(&self) -> &'static str {
        match self {
            MetaDesign::Centralized => "Central",
            MetaDesign::HashPart => "HashPart",
            MetaDesign::Sharded => "Sharded",
        }
    }
}

/// One metadata scale run: `clients` logical clients (driven by
/// `drivers` tasks) each resolving and fetching `lookups` random samples.
pub struct MetaRun {
    pub ops: u64,
    pub makespan: Dur,
    /// End-to-end locate+fetch latency percentiles, nanoseconds.
    pub p50_ns: u64,
    pub p99_ns: u64,
    /// Fraction of lookups whose payload rode back on the lookup reply.
    pub piggyback_pct: f64,
    /// Latencies grouped by metadata shard (index = shard id).
    pub lat_by_shard: Vec<Vec<u64>>,
    /// FNV-1a over every latency in driver order: byte-identity probe.
    pub fingerprint: u64,
}

impl MetaRun {
    pub fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.makespan.as_secs_f64().max(1e-12)
    }
}

/// Payload-fetch RPC: request carries the byte count to read back.
struct DataReq(u64);
struct DataResp(u64);

impl WireSize for DataReq {
    fn wire_bytes(&self) -> u64 {
        16
    }
}
impl WireSize for DataResp {
    fn wire_bytes(&self) -> u64 {
        16 + self.0
    }
}

fn build_dir(nodes: usize, count: usize, size: u64) -> Arc<SampleDirectory> {
    let mut b = DirectoryBuilder::new(nodes, count).unwrap();
    let mut cursors = vec![0u64; nodes];
    for id in 0..count as u32 {
        let name = format!("train/sample_{id:07}");
        let nid = node_for_name(&name, nodes);
        b.add(id, &name, nid, cursors[nid as usize], size).unwrap();
        cursors[nid as usize] += size;
    }
    Arc::new(b.finish().unwrap())
}

fn percentile(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() - 1) * p / 100]
}

/// Run one metadata design: every client looks `lookups` names up
/// (fetch=true) and, when the payload did not piggyback, fetches it from
/// the owning storage node — the honest end-to-end "locate + read" path.
pub fn meta_scale_run(
    seed: u64,
    design: MetaDesign,
    nodes: usize,
    clients: usize,
    drivers: usize,
    lookups: usize,
    count: usize,
) -> MetaRun {
    const SAMPLE: u64 = 2048;
    let drivers = drivers.min(clients).max(1);
    let (out, _) = Runtime::simulate(seed, |rt| {
        let dir = build_dir(nodes, count, SAMPLE);
        let cluster = Arc::new(Cluster::new(nodes + drivers, FabricConfig::default()));
        let cfg = match design {
            MetaDesign::Centralized => MetaShardConfig {
                shards: 1,
                pin_node: Some(0),
            },
            _ => MetaShardConfig {
                shards: nodes,
                ..MetaShardConfig::default()
            },
        };
        let shards = cfg.shards;
        let svc = MetaService::deploy(rt, cluster.clone(), dir.clone(), DlfsCosts::default(), cfg)
            .unwrap();
        if design == MetaDesign::HashPart {
            // Uniform spread, deliberately misaligned with the data: the
            // owner of shard `s` almost never stores `s`'s samples.
            for s in 0..shards {
                svc.reassign(s, ((s + 3) % nodes) as u16, ((s + 4) % nodes) as u16);
            }
        }
        // One payload server per storage node: a fixed seek cost plus the
        // response bytes over the fabric.
        let data: Vec<RpcClient<DataReq, DataResp>> = (0..nodes)
            .map(|n| {
                serve(
                    rt,
                    cluster.clone(),
                    n,
                    &format!("data{n}"),
                    move |rt: &Runtime, _from, req: DataReq| {
                        rt.work(Dur::micros(8));
                        DataResp(req.0)
                    },
                )
            })
            .collect();
        // Per-client routed handles, seeded from the *current* map so the
        // HashPart reassignments above are not measured as refresh churn.
        let handles: Vec<_> = (0..clients).map(|_| svc.client()).collect();
        let mut handles = handles.into_iter();

        let t0 = rt.now();
        let mut joins = Vec::new();
        for d in 0..drivers {
            let mine: Vec<_> = (0..clients)
                .filter(|c| c % drivers == d)
                .map(|c| (c, handles.next().unwrap()))
                .collect();
            let data = data.clone();
            let from = nodes + d;
            joins.push(rt.spawn_with(&format!("drv{d}"), move |rt| {
                let mut lat: Vec<(usize, u64)> = Vec::new();
                let mut piggy = 0u64;
                for (c, client) in &mine {
                    let mut g = SplitMix64::derive(seed ^ 0x3A17, *c as u64);
                    for _ in 0..lookups {
                        let id = g.below(count as u64) as u32;
                        let name = format!("train/sample_{id:07}");
                        let t = rt.now();
                        let hit = client
                            .lookup(rt, from, &name, true)
                            .unwrap()
                            .expect("staged name");
                        if hit.piggyback == 0 {
                            let nid = hit.entry.nid() as usize;
                            data[nid].call(rt, from, DataReq(hit.entry.len()));
                        } else {
                            piggy += 1;
                        }
                        let shard = shard_of(dlfs::SampleEntry::key_for(&name), shards);
                        lat.push((shard, (rt.now() - t).as_nanos()));
                    }
                }
                (lat, piggy)
            }));
        }
        let mut lat_by_shard = vec![Vec::new(); shards];
        let mut all = Vec::new();
        let mut piggy = 0u64;
        let mut fingerprint = 0xcbf29ce484222325u64;
        for j in joins {
            let (lat, p) = j.join();
            piggy += p;
            for (shard, ns) in lat {
                fingerprint = (fingerprint ^ ns).wrapping_mul(0x100000001b3);
                lat_by_shard[shard].push(ns);
                all.push(ns);
            }
        }
        let makespan = rt.now() - t0;
        all.sort_unstable();
        for v in &mut lat_by_shard {
            v.sort_unstable();
        }
        MetaRun {
            ops: all.len() as u64,
            makespan,
            p50_ns: percentile(&all, 50),
            p99_ns: percentile(&all, 99),
            piggyback_pct: 100.0 * piggy as f64 / all.len().max(1) as f64,
            lat_by_shard,
            fingerprint,
        }
    });
    out
}

/// One weighted-fair contention run through the full mount path.
pub struct FairRun {
    /// Delivered-sample share per tenant, in tenant order.
    pub shares: Vec<f64>,
    /// max_t |share_t − weight_t / Σw|: the fairness error the gate pins.
    pub err: f64,
    pub fingerprint: u64,
}

/// `weights[t]` tenants hammer one mount with `workers` tasks each for a
/// virtual-time `window`, arbitrated by `slots` WFQ qpair slots. Returns
/// each tenant's delivered share vs its weight share.
pub fn weighted_fair_run(
    seed: u64,
    weights: &[u32],
    slots: usize,
    workers: usize,
    window: Dur,
) -> FairRun {
    let weights = weights.to_vec();
    let (out, _) = Runtime::simulate(seed, |rt| {
        let cfg = DlfsConfig {
            // Keep the pool well below the dataset so the device stays the
            // bottleneck the WFQ slots arbitrate, with enough headroom for
            // every worker's in-flight batch.
            cache_mode: dlfs::CacheMode::CrossEpoch,
            pool_chunks: 256,
            qos: Some(QosConfig {
                tenants: weights
                    .iter()
                    .enumerate()
                    .map(|(t, &w)| TenantSpec::weighted(t as u16, w))
                    .collect(),
                slots,
                slo_queue: Dur::millis(5),
            }),
            ..DlfsConfig::default()
        };
        let source = dlfs::SyntheticSource::fixed(11, 4000, 4096);
        // One reader id per worker: concurrent readers must not share a
        // reader id (the per-reader plans partition the chunk fetches).
        let fs = Arc::new(crate::setup::dlfs_local(rt, &source, cfg, workers));
        let deadline = rt.now() + window;
        let mut joins = Vec::new();
        for (t, _) in weights.iter().enumerate() {
            for w in 0..workers {
                let fs = fs.clone();
                joins.push(rt.spawn_with(&format!("t{t}.w{w}"), move |rt| {
                    let mut io = fs.io_tenant(w, t as u16);
                    // Workers of one tenant share the tenant's sequence
                    // seed: together they partition each epoch.
                    let mut epoch = 0u64;
                    let mut mine = io.sequence(rt, 31 + t as u64 * 7, epoch);
                    let mut done = 0usize;
                    let mut got = 0u64;
                    while rt.now() < deadline {
                        if done >= mine {
                            epoch += 1;
                            mine = io.sequence(rt, 31 + t as u64 * 7, epoch);
                            done = 0;
                        }
                        let n = io.submit(rt, &ReadRequest::batch(8)).unwrap().len();
                        done += n;
                        got += n as u64;
                    }
                    (t, got)
                }));
            }
        }
        let mut per = vec![0u64; weights.len()];
        for j in joins {
            let (t, got) = j.join();
            per[t] += got;
        }
        let total: u64 = per.iter().sum();
        let wsum: u32 = weights.iter().sum();
        let shares: Vec<f64> = per
            .iter()
            .map(|&n| n as f64 / total.max(1) as f64)
            .collect();
        let err = shares
            .iter()
            .zip(&weights)
            .map(|(s, &w)| (s - w as f64 / wsum as f64).abs())
            .fold(0.0f64, f64::max);
        let mut fingerprint = 0xcbf29ce484222325u64;
        for &n in &per {
            fingerprint = (fingerprint ^ n).wrapping_mul(0x100000001b3);
        }
        FairRun {
            shares,
            err,
            fingerprint,
        }
    });
    out
}

/// The contrast case: the same three jobs with **no** QoS arbiter, where
/// job 0 is greedy (more workers, bigger batches). Returns delivered
/// shares in job order — job 0 starves the other two.
pub fn greedy_shares(seed: u64, window: Dur) -> Vec<f64> {
    let (out, _) = Runtime::simulate(seed, |rt| {
        let source = dlfs::SyntheticSource::fixed(11, 4000, 4096);
        let cfg = DlfsConfig {
            cache_mode: dlfs::CacheMode::CrossEpoch,
            pool_chunks: 512,
            ..DlfsConfig::default()
        };
        // (job, workers, batch): job 0 floods the qpairs. Jobs keep their
        // tenant namespaces (isolated cache keys) but nothing arbitrates.
        let jobs = [(0usize, 8usize, 64usize), (1, 1, 8), (2, 1, 8)];
        let total_workers: usize = jobs.iter().map(|&(_, w, _)| w).sum();
        let fs = Arc::new(crate::setup::dlfs_local(rt, &source, cfg, total_workers));
        let deadline = rt.now() + window;
        let mut joins = Vec::new();
        let mut reader = 0usize;
        for &(job, workers, batch) in &jobs {
            for w in 0..workers {
                let fs = fs.clone();
                let r = reader;
                reader += 1;
                joins.push(rt.spawn_with(&format!("j{job}.w{w}"), move |rt| {
                    let mut io = fs.io_tenant(r, job as u16);
                    let mut epoch = 0u64;
                    let mut mine = io.sequence(rt, 31 + job as u64 * 7, epoch);
                    let mut done = 0usize;
                    let mut got = 0u64;
                    while rt.now() < deadline {
                        if done >= mine {
                            epoch += 1;
                            mine = io.sequence(rt, 31 + job as u64 * 7, epoch);
                            done = 0;
                        }
                        let n = io.submit(rt, &ReadRequest::batch(batch)).unwrap().len();
                        done += n;
                        got += n as u64;
                    }
                    (job, got)
                }));
            }
        }
        let mut per = vec![0u64; jobs.len()];
        for j in joins {
            let (job, got) = j.join();
            per[job] += got;
        }
        let total: u64 = per.iter().sum();
        per.iter()
            .map(|&n| n as f64 / total.max(1) as f64)
            .collect()
    });
    out
}
