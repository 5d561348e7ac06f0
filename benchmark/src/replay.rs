//! Layer-alone replays: the workload's generated inputs run against one
//! layer at a time, through that layer's public functions, each in its own
//! small simulation. They give the per-tier terms ("what would this layer
//! alone need for this window?") that the end-to-end result is explained
//! against; `io.efficiency` is the ratio of the slowest tier's replay to
//! the window the full stack took.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

use blocksim::{DmaBuf, NvmeDevice, NvmeTarget, BLOCK_SIZE};
use dlfs::copy::{CopyJob, CopyPool, Segment};
use dlfs::{
    node_for_name, DirectoryBuilder, DlfsCosts, MetaService, MetaShardConfig, Redundancy,
    SampleSource, TenantQos,
};
use fabric::{Cluster, NvmeOfTarget, TargetConfig};
use simkit::rng::{fnv1a, SplitMix64};
use simkit::runtime::Runtime;
use simkit::telemetry::Registry;
use simkit::time::Time;

use crate::model;
use crate::rig::{sample_name, ReplaySpec};

/// Host-time cap on replays whose cost grows faster than their length: a
/// copy job costs OS-thread hand-offs, and a `simkit` resource scans its
/// whole booking timeline on every reservation. Longer inputs are replayed
/// up to the cap and scaled.
const MAX_ITEMS: usize = 8_192;

pub struct DirectoryReplay {
    pub lookup_ns: f64,
    pub host_lookup_ns: f64,
    pub tree_height: f64,
}

/// The window's id order through `SampleDirectory::lookup`.
pub fn directory(spec: &ReplaySpec, order: &[u32]) -> DirectoryReplay {
    let ids = &order[..order.len().min(65_536)];
    let names: Vec<String> = ids.iter().map(|&id| sample_name(id)).collect();
    let ((virt, host), _) = Runtime::simulate(0, |rt| {
        let (t0, h0) = (rt.now(), Instant::now());
        for name in &names {
            let hit = spec.dir.lookup(rt, &spec.cfg.costs, name);
            assert!(hit.is_some(), "delivered sample missing from the directory");
        }
        ((rt.now() - t0).as_nanos(), h0.elapsed().as_nanos())
    });
    let n = names.len().max(1) as f64;
    DirectoryReplay {
        lookup_ns: virt as f64 / n,
        host_lookup_ns: host as f64 / n,
        tree_height: spec.dir.max_tree_height() as f64,
    }
}

/// `cmds` reads of `bytes_per_cmd` dealt round-robin to `targets`, each
/// kept at up to `depth` outstanding, timed by `NvmeTarget::reserve_read`
/// alone (the call a qpair makes on submission; no runtime, no polling
/// cost). Returns the virtual seconds until the last completion; beyond
/// `MAX_ITEMS` commands the steady-state rate is extrapolated.
fn drive_reads(
    targets: &[Arc<dyn NvmeTarget>],
    depth: usize,
    cmds: u64,
    bytes_per_cmd: u64,
) -> f64 {
    let replayed = cmds.min(MAX_ITEMS as u64);
    let scale = cmds as f64 / replayed.max(1) as f64;
    let cmds = replayed;
    let nblocks = bytes_per_cmd.div_ceil(BLOCK_SIZE).max(1) as u32;
    let mut inflight: Vec<BinaryHeap<Reverse<Time>>> =
        targets.iter().map(|_| BinaryHeap::new()).collect();
    let (mut now, mut last) = (Time::ZERO, Time::ZERO);
    for i in 0..cmds as usize {
        let q = i % targets.len();
        if inflight[q].len() >= depth.clamp(1, targets[q].max_queue_depth()) {
            // Queue full: the next submission waits for its oldest command.
            let Reverse(freed) = inflight[q].pop().expect("nonempty queue");
            now = now.max(freed);
        }
        let done = targets[q].reserve_read(now, 0, nblocks);
        inflight[q].push(Reverse(done));
        last = last.max(done);
    }
    (last - Time::ZERO).as_secs_f64() * scale
}

/// The window's device command count and mean size against fresh local
/// devices: the time the devices alone need.
pub fn blocksim(spec: &ReplaySpec, cmds: u64, bytes_per_cmd: u64) -> f64 {
    let targets: Vec<Arc<dyn NvmeTarget>> = (0..spec.devices)
        .map(|_| NvmeDevice::new(spec.device_cfg.clone()) as Arc<dyn NvmeTarget>)
        .collect();
    drive_reads(&targets, spec.cfg.queue_depth, cmds, bytes_per_cmd)
}

/// The same commands through `fabric::connect`: devices plus wire.
pub fn fabric(spec: &ReplaySpec, cmds: u64, bytes_per_cmd: u64) -> f64 {
    let Some(fabric_cfg) = spec.fabric_cfg.clone() else {
        return 0.0;
    };
    let cluster = Arc::new(Cluster::new(1 + spec.devices, fabric_cfg));
    let targets: Vec<Arc<dyn NvmeTarget>> = (0..spec.devices)
        .map(|n| {
            let dev = NvmeDevice::new(spec.device_cfg.clone());
            let target = NvmeOfTarget::new(1 + n, dev, TargetConfig::default());
            fabric::connect(cluster.clone(), 0, target) as Arc<dyn NvmeTarget>
        })
        .collect();
    drive_reads(&targets, spec.cfg.queue_depth, cmds, bytes_per_cmd)
}

/// One uncontended transfer of `bytes` across the workload's fabric, us.
pub fn chunk_wire_us(spec: &ReplaySpec, bytes: u64) -> f64 {
    let Some(fabric_cfg) = spec.fabric_cfg.clone() else {
        return 0.0;
    };
    let arrival = Cluster::new(2, fabric_cfg).reserve_transfer(Time::ZERO, 1, 0, bytes.max(1));
    (arrival - Time::ZERO).as_secs_f64() * 1e6
}

/// The delivered samples through `CopyPool::submit`: GB per virtual second.
pub fn copy_pool(spec: &ReplaySpec, order: &[u32]) -> f64 {
    let ids = &order[..order.len().min(MAX_ITEMS)];
    if ids.is_empty() {
        return 0.0;
    }
    Runtime::simulate(0, |rt| {
        let pool = CopyPool::spawn(rt, "replay", spec.cfg.copy_threads, &spec.cfg.costs);
        let max = ids.iter().map(|&id| spec.src.size(id)).max().unwrap_or(1);
        let buf = DmaBuf::standalone(max as usize);
        let (tx, rx) = rt.channel(None);
        let t0 = rt.now();
        let mut bytes = 0u64;
        for (tag, &id) in ids.iter().enumerate() {
            let len = spec.src.size(id) as usize;
            bytes += len as u64;
            pool.submit(CopyJob {
                tag: tag as u64,
                sample: id,
                segments: [Segment {
                    buf: buf.clone(),
                    offset: 0,
                    len,
                }]
                .into_iter()
                .collect(),
                done: tx.clone(),
            });
        }
        for _ in ids {
            rx.recv().expect("copy done");
        }
        bytes as f64 / (rt.now() - t0).as_nanos().max(1) as f64
    })
    .0
}

/// The first `limit` bytes of the dataset, sample after sample.
fn dataset_prefix(spec: &ReplaySpec, limit: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(limit);
    for id in 0..spec.src.count() as u32 {
        let len = spec.src.size(id) as usize;
        if out.len() + len > limit {
            break;
        }
        let at = out.len();
        out.resize(at + len, 0);
        spec.src.fill(id, &mut out[at..]);
    }
    out
}

/// Host ns `Redundancy::verify_blocks` spends per 512 B block of dataset
/// bytes.
pub fn host_verify_ns_per_block(spec: &ReplaySpec) -> f64 {
    if !spec.cfg.verify_reads {
        return 0.0;
    }
    let mut data = dataset_prefix(spec, 8 << 20);
    data.truncate(data.len() / BLOCK_SIZE as usize * BLOCK_SIZE as usize);
    let sums: Vec<u64> = data.chunks_exact(BLOCK_SIZE as usize).map(fnv1a).collect();
    let blocks = sums.len();
    let red = Redundancy::new(1, vec![(0, data.len() as u64)], vec![Arc::new(sums)]);
    let h0 = Instant::now();
    assert!(red.verify_blocks(0, 0, std::hint::black_box(&data)));
    h0.elapsed().as_nanos() as f64 / blocks.max(1) as f64
}

/// Host ns `Codec::decode` spends per KiB of raw frame.
pub fn host_decode_ns_per_kb(spec: &ReplaySpec) -> f64 {
    let codec = spec.cfg.codec.codec();
    if spec.cfg.codec == dlfs::CodecKind::Identity {
        return 0.0;
    }
    let data = dataset_prefix(spec, 4 << 20);
    let frames: Vec<(Vec<u8>, usize)> = data
        .chunks(spec.cfg.chunk_size as usize)
        .map(|raw| (codec.encode(raw), raw.len()))
        .collect();
    let h0 = Instant::now();
    for (enc, raw_len) in &frames {
        let raw = codec.decode(std::hint::black_box(enc), *raw_len);
        assert_eq!(std::hint::black_box(raw).len(), *raw_len);
    }
    h0.elapsed().as_nanos() as f64 / (data.len().max(1) as f64 / 1024.0)
}

/// Virtual ns of one uncontended `TenantQos::admit`/`complete` pair.
pub fn tenant_admit_ns(spec: &ReplaySpec) -> f64 {
    let Some(qos) = &spec.cfg.qos else {
        return 0.0;
    };
    const PAIRS: u64 = 1_024;
    Runtime::simulate(0, |rt| {
        let gate = TenantQos::new(qos, spec.dir.avg_sample_bytes());
        let tenant = qos.tenants[0].id;
        let t0 = rt.now();
        for _ in 0..PAIRS {
            let grant = gate
                .admit(rt, tenant, gate.batch_cost(8))
                .expect("known tenant");
            gate.complete(grant, 8, gate.batch_cost(8));
        }
        (rt.now() - t0).as_nanos() as f64 / PAIRS as f64
    })
    .0
}

pub struct MetaProbe {
    pub lookup_p50_us: f64,
    pub lookup_p99_us: f64,
    pub piggyback_ratio: f64,
    pub map_refreshes: f64,
    pub failovers: f64,
    pub rpc_calls: f64,
    pub rpc_retries: f64,
    pub rpc_timeouts: f64,
}

/// `MetaClient::lookup` is not on the `DlfsIo` path yet, so the sharded
/// metadata service is probed beside `point_reads` rather than inside it:
/// 8 storage nodes, 256 clients (driven by 8 tasks) each resolving 8
/// random names with the payload piggybacked when co-located.
pub fn metashard(seed: u64) -> MetaProbe {
    const NODES: usize = 8;
    const CLIENTS: usize = 256;
    const DRIVERS: usize = 8;
    const LOOKUPS: usize = 8;
    const COUNT: usize = 20_000;
    const SAMPLE: u64 = 2_048;
    Runtime::simulate(seed, |rt| {
        let mut b = DirectoryBuilder::new(NODES, COUNT).expect("directory");
        let mut cursor = [0u64; NODES];
        for id in 0..COUNT as u32 {
            let name = sample_name(id);
            let nid = node_for_name(&name, NODES);
            b.add(id, &name, nid, cursor[nid as usize], SAMPLE)
                .expect("add");
            cursor[nid as usize] += SAMPLE;
        }
        let dir = Arc::new(b.finish().expect("finish"));
        let reg = Registry::new();
        let cluster = Arc::new(Cluster::with_registry(
            NODES + DRIVERS,
            model::fabric(),
            &reg,
        ));
        let svc = MetaService::deploy(
            rt,
            cluster,
            dir,
            DlfsCosts::default(),
            MetaShardConfig {
                shards: NODES,
                ..MetaShardConfig::default()
            },
        )
        .expect("deploy");
        let tasks: Vec<_> = (0..DRIVERS)
            .map(|d| {
                let clients: Vec<_> = (0..CLIENTS / DRIVERS)
                    .map(|_| {
                        let client = svc.client();
                        client.router().attach_telemetry(&reg.scoped("router"));
                        client
                    })
                    .collect();
                rt.spawn_with(&format!("meta-driver{d}"), move |rt| {
                    let mut lat = Vec::new();
                    let mut piggy = 0u64;
                    for (c, client) in clients.iter().enumerate() {
                        let mut ids = SplitMix64::derive(seed ^ 0x3A17, (d * 64 + c) as u64);
                        for _ in 0..LOOKUPS {
                            let name = sample_name(ids.below(COUNT as u64) as u32);
                            let t0 = rt.now();
                            let hit = client
                                .lookup(rt, NODES + d, &name, true)
                                .expect("lookup")
                                .expect("staged name");
                            lat.push((rt.now() - t0).as_nanos());
                            piggy += (hit.piggyback > 0) as u64;
                        }
                    }
                    (lat, piggy)
                })
            })
            .collect();
        let (mut lat, mut piggy) = (Vec::new(), 0u64);
        for t in tasks {
            let (l, p) = t.join();
            lat.extend(l);
            piggy += p;
        }
        lat.sort_unstable();
        let snap = reg.snapshot();
        let family = |suffix: &str| -> f64 {
            snap.iter()
                .filter(|(k, _)| k.ends_with(suffix))
                .map(|(k, _)| snap.counter(k))
                .sum::<u64>() as f64
        };
        MetaProbe {
            lookup_p50_us: crate::metrics::band_percentile(&lat, 0.50, 0.05) / 1e3,
            lookup_p99_us: crate::metrics::band_percentile(&lat, 0.99, 0.005) / 1e3,
            piggyback_ratio: piggy as f64 / lat.len().max(1) as f64,
            map_refreshes: family(".map_refreshes"),
            failovers: family(".failovers"),
            rpc_calls: family(".calls"),
            rpc_retries: family(".retries"),
            rpc_timeouts: family(".timeouts"),
        }
    })
    .0
}
