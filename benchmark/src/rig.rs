//! What every workload is assembled from: the seeded dataset, the wiring
//! (devices, fabric, deployment), the outside-in measurement marks, and
//! the per-task reader that wraps each product call in a span, times it
//! and verifies every delivered byte.

use std::sync::Arc;
use std::time::Instant;

use blocksim::{DeviceConfig, NvmeDevice, NvmeTarget};
use dlfs::{
    Delivery, Deployment, DlfsConfig, DlfsInstance, DlfsIo, MountBuilder, ReadRequest,
    SampleDirectory, SampleSource,
};
use fabric::{Cluster, FabricConfig, NvmeOfTarget, TargetConfig};
use simkit::rng::{fill_deterministic, SplitMix64};
use simkit::runtime::Runtime;
use simkit::telemetry::{Registry, Snapshot};
use simkit::time::{Dur, Time};

use crate::alloc;
use crate::spans::{Span, Tracer};

/// An independent seed for purpose `tag`, derived from the run seed.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    SplitMix64::derive(seed, tag).next()
}

/// `count` sizes within ±1/16 of `nominal`. Every model in the simulation
/// is deterministic, so a dataset of identical sizes would give the same
/// timeline for every seed; the jitter keeps the seed in charge of the
/// dataset while the working-set size stays where the workload needs it.
pub fn near_fixed_sizes(seed: u64, count: usize, nominal: u64) -> Vec<u64> {
    let mut rng = SplitMix64::derive(seed, 0x512e);
    let span = nominal / 8;
    (0..count)
        .map(|_| nominal - span / 2 + rng.below(span + 1))
        .collect()
}

/// The benchmark's dataset: seeded sizes, and payloads that are a pure
/// function of `(seed, id)` — white noise, or a repeated per-sample motif
/// that an LZ codec can compress.
pub struct Source {
    sizes: Vec<u64>,
    seed: u64,
    motif: Option<usize>,
}

impl Source {
    pub fn noise(seed: u64, sizes: Vec<u64>) -> Source {
        Source {
            sizes,
            seed,
            motif: None,
        }
    }

    pub fn compressible(seed: u64, sizes: Vec<u64>, motif: usize) -> Source {
        Source {
            sizes,
            seed,
            motif: Some(motif),
        }
    }

    pub fn total_bytes(&self) -> u64 {
        self.sizes.iter().sum()
    }
}

impl SampleSource for Source {
    fn count(&self) -> usize {
        self.sizes.len()
    }

    fn name(&self, id: u32) -> String {
        sample_name(id)
    }

    fn size(&self, id: u32) -> u64 {
        self.sizes[id as usize]
    }

    fn fill(&self, id: u32, buf: &mut [u8]) {
        match self.motif {
            None => fill_deterministic(buf, self.seed, id as u64),
            Some(m) => {
                let mut motif = vec![0u8; m];
                fill_deterministic(&mut motif, self.seed ^ 0xC0DEC, id as u64);
                for (i, b) in buf.iter_mut().enumerate() {
                    *b = motif[i % m];
                }
            }
        }
    }
}

pub fn sample_name(id: u32) -> String {
    format!("sample_{id:08}")
}

/// Device capacity for a per-node share of `bytes`. The backing store is
/// sparse, so headroom costs nothing.
pub fn capacity_for(bytes: u64) -> u64 {
    (bytes * 3 + (128 << 20)).next_multiple_of(1 << 20)
}

/// The wiring of one workload, plus the one registry every layer of it
/// records into.
pub struct Rig {
    pub reg: Registry,
    pub devices: Vec<Arc<NvmeDevice>>,
    pub cluster: Option<Arc<Cluster>>,
    exported: Vec<Arc<NvmeOfTarget>>,
    readers: usize,
    pub device_cfg: DeviceConfig,
    pub fabric_cfg: Option<FabricConfig>,
}

impl Rig {
    /// `readers` I/O threads sharing `devices` local devices; no fabric.
    pub fn local(readers: usize, devices: usize, cfg: DeviceConfig) -> Rig {
        Rig {
            reg: Registry::new(),
            devices: (0..devices).map(|_| NvmeDevice::new(cfg.clone())).collect(),
            cluster: None,
            exported: Vec::new(),
            readers,
            device_cfg: cfg,
            fabric_cfg: None,
        }
    }

    /// Reader nodes `0..readers`, then `storage` dedicated NVMe-oF storage
    /// nodes (the paper's pool-of-devices setup, Fig. 11).
    pub fn disaggregated(
        readers: usize,
        storage: usize,
        fabric: FabricConfig,
        cfg: DeviceConfig,
    ) -> Rig {
        let reg = Registry::new();
        let cluster = Arc::new(Cluster::with_registry(
            readers + storage,
            fabric.clone(),
            &reg,
        ));
        let devices: Vec<Arc<NvmeDevice>> =
            (0..storage).map(|_| NvmeDevice::new(cfg.clone())).collect();
        let exported = devices
            .iter()
            .enumerate()
            .map(|(n, d)| NvmeOfTarget::new(readers + n, d.clone(), TargetConfig::default()))
            .collect();
        Rig {
            reg,
            devices,
            cluster: Some(cluster),
            exported,
            readers,
            device_cfg: cfg,
            fabric_cfg: Some(fabric),
        }
    }

    /// A fresh deployment over the rig (`mount` and `remount` each consume
    /// one).
    pub fn deployment(&self) -> Deployment {
        let targets = (0..self.readers)
            .map(|r| match &self.cluster {
                None => self
                    .devices
                    .iter()
                    .map(|d| d.clone() as Arc<dyn NvmeTarget>)
                    .collect(),
                Some(cluster) => self
                    .exported
                    .iter()
                    .map(|t| fabric::connect(cluster.clone(), r, t.clone()) as Arc<dyn NvmeTarget>)
                    .collect(),
            })
            .collect();
        Deployment {
            targets,
            cluster: self.cluster.clone(),
        }
    }

    pub fn builder(&self, cfg: DlfsConfig) -> MountBuilder {
        MountBuilder::new(cfg)
            .deployment(self.deployment())
            .with_registry(self.reg.clone())
    }

    /// Everything the benchmark can see from outside, at one instant.
    pub fn mark(&self, rt: &Runtime) -> Mark {
        Mark {
            now: rt.now(),
            busy: rt.total_busy(),
            idle: rt.total_idle(),
            dev: self.devices.iter().map(|d| d.stats()).collect(),
            nic: match &self.cluster {
                Some(c) => (0..c.len()).map(|n| c.node_traffic(n)).collect(),
                None => Vec::new(),
            },
            snap: self.reg.snapshot(),
            host: Instant::now(),
            allocs: alloc::allocs(),
            copy_ops: blocksim::copy_ops(),
        }
    }
}

#[derive(Clone)]
pub struct Mark {
    pub now: Time,
    pub busy: Dur,
    pub idle: Dur,
    /// Per device: (reads, writes, bytes_read, bytes_written).
    pub dev: Vec<(u64, u64, u64, u64)>,
    /// Per cluster node: (tx bytes, rx bytes).
    pub nic: Vec<(u64, u64)>,
    pub snap: Snapshot,
    pub host: Instant,
    pub allocs: u64,
    pub copy_ops: u64,
}

/// The difference of two marks.
pub struct Interval {
    pub dur: Dur,
    pub busy: Dur,
    pub idle: Dur,
    pub dev: Vec<(u64, u64, u64, u64)>,
    pub nic: Vec<(u64, u64)>,
    pub start: Snapshot,
    pub end: Snapshot,
    pub host_s: f64,
    pub allocs: u64,
    pub copy_ops: u64,
}

impl Interval {
    pub fn between(a: Mark, b: Mark) -> Interval {
        Interval {
            dur: b.now - a.now,
            busy: b.busy - a.busy,
            idle: b.idle - a.idle,
            dev: a
                .dev
                .iter()
                .zip(&b.dev)
                .map(|(x, y)| (y.0 - x.0, y.1 - x.1, y.2 - x.2, y.3 - x.3))
                .collect(),
            nic: a
                .nic
                .iter()
                .zip(&b.nic)
                .map(|(x, y)| (y.0 - x.0, y.1 - x.1))
                .collect(),
            host_s: (b.host - a.host).as_secs_f64(),
            allocs: b.allocs - a.allocs,
            copy_ops: b.copy_ops - a.copy_ops,
            start: a.snap,
            end: b.snap,
        }
    }

    /// Counter delta over the interval.
    pub fn counter(&self, name: &str) -> u64 {
        self.end.counter(name) - self.start.counter(name)
    }

    /// Sum of `<prefix>*<suffix>` counter deltas (per-device and per-tenant
    /// families).
    pub fn counter_family(&self, prefix: &str, suffix: &str) -> u64 {
        self.end
            .iter()
            .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
            .map(|(k, _)| self.counter(k))
            .sum()
    }

    /// Mean of the values a histogram recorded during the interval.
    pub fn histo_mean(&self, name: &str) -> f64 {
        let (a, b) = (self.start.histogram(name), self.end.histogram(name));
        let n = b.count - a.count;
        if n == 0 {
            0.0
        } else {
            (b.sum - a.sum) as f64 / n as f64
        }
    }

    pub fn dev_sum(&self) -> (u64, u64, u64, u64) {
        self.dev.iter().fold((0, 0, 0, 0), |s, d| {
            (s.0 + d.0, s.1 + d.1, s.2 + d.2, s.3 + d.3)
        })
    }
}

/// What one task observed of its own requests.
#[derive(Default)]
pub struct Log {
    /// Virtual latency of every measured trainer-visible call, ns.
    pub lat_ns: Vec<u64>,
    /// Sample ids in delivery order (the generated input the layer replays
    /// run again).
    pub order: Vec<u32>,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
    pub samples: u64,
    pub bytes: u64,
    /// Bytes delivered since set-up ended, warm-up included.
    pub job_bytes: u64,
    pub sequence_ns: Vec<u64>,
    pub sequence_host_ns: Vec<u64>,
    pub spans: Vec<Span>,
}

impl Log {
    pub fn merge(&mut self, mut other: Log) {
        self.lat_ns.append(&mut other.lat_ns);
        self.order.append(&mut other.order);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        self.samples += other.samples;
        self.bytes += other.bytes;
        self.job_bytes += other.job_bytes;
        self.sequence_ns.append(&mut other.sequence_ns);
        self.sequence_host_ns.append(&mut other.sequence_host_ns);
        self.spans.append(&mut other.spans);
    }
}

/// What one request handed back.
struct Delivered {
    ids: Vec<u32>,
    bytes: u64,
    /// No error, no short batch, no byte mismatch.
    ok: bool,
}

impl Default for Delivered {
    fn default() -> Delivered {
        Delivered {
            ids: Vec::new(),
            bytes: 0,
            ok: true,
        }
    }
}

/// One I/O thread as the trainer sees it. Every product call goes through
/// here, so it is timed, spanned and byte-verified in exactly one place.
pub struct Reader<'a> {
    rt: &'a Runtime,
    pub io: DlfsIo,
    src: Arc<Source>,
    pub tr: Tracer,
    log: Log,
    scratch: Vec<u8>,
    /// Latencies and counts are recorded only while set (the warm-up epoch
    /// runs with it clear).
    pub measuring: bool,
    next_req: u64,
}

impl<'a> Reader<'a> {
    pub fn new(rt: &'a Runtime, io: DlfsIo, src: Arc<Source>, tr: Tracer) -> Reader<'a> {
        Reader {
            rt,
            io,
            src,
            tr,
            log: Log::default(),
            scratch: Vec::new(),
            measuring: false,
            next_req: 1,
        }
    }

    pub fn sequence(&mut self, seed: u64, epoch: u64) -> usize {
        let (t0, h0) = (self.rt.now(), Instant::now());
        self.tr.open(self.rt, "io.sequence", 0);
        let n = self.io.sequence(self.rt, seed, epoch);
        self.tr.close(self.rt);
        if self.measuring {
            self.log.sequence_ns.push((self.rt.now() - t0).as_nanos());
            self.log
                .sequence_host_ns
                .push(h0.elapsed().as_nanos() as u64);
        }
        n
    }

    /// Compares one delivered payload, handed over piece by piece, with
    /// what the source says sample `id` holds, and adds it to `got`.
    fn verify(
        &mut self,
        id: u32,
        mut parts: impl FnMut(&mut dyn FnMut(&[u8])),
        got: &mut Delivered,
    ) {
        let len = self.src.size(id) as usize;
        self.scratch.resize(len, 0);
        self.src.fill(id, &mut self.scratch[..len]);
        let (mut at, mut same) = (0usize, true);
        parts(&mut |part: &[u8]| {
            same &= at + part.len() <= len && self.scratch[at..at + part.len()] == *part;
            at += part.len();
        });
        if !(same && at == len) {
            self.log.mismatches += 1;
            got.ok = false;
        }
        got.ids.push(id);
        got.bytes += at as u64;
    }

    /// Books one finished request.
    fn account(&mut self, lat: Dur, got: Delivered) {
        self.log.job_bytes += got.bytes;
        if !self.measuring {
            return;
        }
        self.log.attempted += 1;
        self.log.lat_ns.push(lat.as_nanos());
        self.log.failed += !got.ok as u64;
        self.log.samples += got.ids.len() as u64;
        self.log.bytes += got.bytes;
        self.log.order.extend_from_slice(&got.ids);
    }

    /// One `submit` of `req`, expecting `want` samples back. Returns the
    /// number delivered (0 on error).
    pub fn batch(&mut self, req: &ReadRequest, want: usize) -> usize {
        let rt = self.rt;
        let rid = self.next_req;
        self.next_req += 1;
        self.tr.open(rt, "request", rid);
        let t0 = rt.now();
        self.tr.open(rt, "io.submit", rid);
        let res = self.io.submit(rt, req);
        self.tr.close(rt);
        let mut got = Delivered::default();
        // Unwrapping the completions advances no virtual clock, so the
        // latency is the same read before or after it.
        let lat = rt.now() - t0;
        match (res, req.delivery) {
            (Err(_), _) => got.ok = false,
            (Ok(done), Delivery::Copied) => {
                self.tr.open(rt, "into_copied", rid);
                let batch = done.into_copied();
                self.tr.close(rt);
                self.tr.open(rt, "bench.verify", rid);
                for (id, data) in &batch {
                    self.verify(*id, |f| f(data), &mut got);
                }
                self.tr.close(rt);
            }
            (Ok(done), Delivery::ZeroCopy) => {
                self.tr.open(rt, "into_zero_copy", rid);
                let batch = done.into_zero_copy();
                self.tr.close(rt);
                self.tr.open(rt, "bench.verify", rid);
                for s in &batch {
                    self.verify(s.id, |f| s.for_each_segment(|p| f(p)), &mut got);
                }
                // Dropping the samples unpins their chunks.
                drop(batch);
                self.tr.close(rt);
            }
        }
        got.ok &= got.ids.len() == want;
        let n = got.ids.len();
        self.account(lat, got);
        self.tr.close(rt);
        n
    }

    /// One full epoch of `req`-sized batches; `after` runs after every
    /// batch (background work rides along there).
    pub fn epoch(
        &mut self,
        seed: u64,
        epoch: u64,
        req: &ReadRequest,
        mut after: impl FnMut(&mut Reader<'a>, usize),
    ) {
        let total = self.sequence(seed, epoch);
        let mut got = 0;
        while got < total {
            let n = self.batch(req, req.n.min(total - got));
            if n == 0 {
                break; // counted as failed; the epoch cannot finish
            }
            got += n;
            after(self, got);
        }
    }

    /// One synchronous `read_by_id`.
    pub fn point_read(&mut self, id: u32) {
        let rt = self.rt;
        let rid = self.next_req;
        self.next_req += 1;
        self.tr.open(rt, "request", rid);
        let t0 = rt.now();
        self.tr.open(rt, "read_by_id", rid);
        let res = self.io.read_by_id(rt, id);
        self.tr.close(rt);
        let lat = rt.now() - t0;
        let mut got = Delivered::default();
        self.tr.open(rt, "bench.verify", rid);
        match &res {
            Ok(data) => self.verify(id, |f| f(data), &mut got),
            Err(_) => got.ok = false,
        }
        self.tr.close(rt);
        self.account(lat, got);
        self.tr.close(rt);
    }

    pub fn finish(self) -> Log {
        self.into_parts().1
    }

    /// The I/O handle (to carry into a later phase) and the log.
    pub fn into_parts(mut self) -> (DlfsIo, Log) {
        self.log.spans = self.tr.finish();
        (self.io, self.log)
    }
}

/// What the layer replays need to run the workload's inputs against each
/// layer alone.
pub struct ReplaySpec {
    pub dir: Arc<SampleDirectory>,
    pub cfg: DlfsConfig,
    pub device_cfg: DeviceConfig,
    pub devices: usize,
    pub fabric_cfg: Option<FabricConfig>,
    pub src: Arc<Source>,
}

impl ReplaySpec {
    pub fn of(rig: &Rig, fs: &DlfsInstance, cfg: &DlfsConfig, src: &Arc<Source>) -> ReplaySpec {
        ReplaySpec {
            dir: fs.dir.clone(),
            cfg: cfg.clone(),
            device_cfg: rig.device_cfg.clone(),
            devices: rig.devices.len(),
            fabric_cfg: rig.fabric_cfg.clone(),
            src: src.clone(),
        }
    }
}

/// One pass of one workload, as measured from outside.
pub struct Pass {
    pub setup: Interval,
    /// From the end of set-up to the end of the window: warm-up plus
    /// window.
    pub job: Interval,
    pub window: Interval,
    pub log: Log,
    pub user_bytes: u64,
    /// Workload-specific layer values (`rebuild.time_ms`, ...), by ledger
    /// name.
    pub extras: Vec<(&'static str, f64)>,
    pub replay: ReplaySpec,
}

impl Pass {
    /// Assembles a pass from its four marks: before and after set-up,
    /// before and after the measured window.
    pub fn new(
        marks: [Mark; 4],
        log: Log,
        extras: Vec<(&'static str, f64)>,
        replay: ReplaySpec,
    ) -> Pass {
        let [m0, m1, w0, w1] = marks;
        Pass {
            setup: Interval::between(m0, m1.clone()),
            job: Interval::between(m1, w1.clone()),
            window: Interval::between(w0, w1),
            log,
            user_bytes: replay.src.total_bytes(),
            extras,
            replay,
        }
    }
}
