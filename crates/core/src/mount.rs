//! `dlfs_mount`: the collective that stages a dataset from the persistent
//! file system onto the allocated NVMe devices and builds the replicated
//! in-memory sample directory (paper §III-A, §III-B2) — plus the
//! persistent variants: [`MountBuilder::persistent`] writes the on-device
//! layout of [`crate::layout`] so a later [`MountBuilder::remount`] can
//! rebuild the directory from the devices alone, skipping PFS staging
//! entirely.
//!
//! "The mount call is a collective call from all processes in a DL
//! application. ... All nodes load their share of files into the local
//! NVMe device(s). ... After the construction of their local AVL tree, all
//! nodes then invoke a collective communication to gather all AVL trees,
//! forming an identical copy of the in-memory sample directory at every
//! node."
//!
//! There is one bring-up pipeline (DESIGN.md §12 has the stage → helper →
//! callers table). Both [`MountBuilder`] terminals validate once
//! (`MountBuilder::validated`) and get a `Bringup`. `mount` is
//! `Bringup::stage`: place the dataset (`place`), take every node's
//! geometry from [`crate::layout`]'s one planner (which also decides that
//! every copy fits), stream the data through `UploadTask`s whose single
//! `land` writes (and so replicates), checksums and records every extent,
//! apply the layout's commit writes when persisting, and `assemble` the
//! instance. `remount` is `Bringup::remount`: [`crate::layout::load_node`]
//! per device instead of staging, `layout::check_import` to judge the set,
//! then the same `assemble`.
//!
//! Staging streams samples through a bounded per-reader pipe: the caller's
//! task produces, one spawned task per reader consumes and writes through
//! one [`BatchedWriter`] per owned node, which also carries the node's k−1
//! replica copies. Set-up finishes when its slowest device or NIC does,
//! because no step waits on one it does not need:
//! - *Fed by share.* A reader that owns several storage nodes (the paper's
//!   pool of devices) is fed the k-way merge of its nodes' sample lists by
//!   data-relative offset ÷ the node's data bytes (cross-multiplied), ties
//!   by node, so all of its devices fill at once and finish together.
//!   Every node's samples still arrive in packed offset order, so each
//!   writer coalesces what a node-by-node feed would. The merge is only
//!   safe because every device stream is monotone — a home node's data,
//!   or its copy in one (peer, replica slot) — so no stream ever has to
//!   start a run at an unaligned offset (`BatchedWriter::write` rejects
//!   that in every build).
//! - *A copy leaves from its home.* The reader sends each run once, to the
//!   home's target; over NVMe-oF the home forwards every copy from its own
//!   NIC ([`NvmeTarget::forward_to`]), so the reader's NIC carries one copy
//!   of the data however many land.
//! - *A tree ships when it is built.* A reader ships its nodes' trees to
//!   every other reader ([`Allgather::ship`]) once its last sample has
//!   landed (on remount: once its nodes are loaded); the merge is charged
//!   when the last tree arrives, while the devices still drain.
//! - *Every tail drains at once.* Every writer's staged tail is submitted
//!   before any is drained (`flush_all`), and a persistent import
//!   finalizes phase by phase across its nodes: every table, one drain,
//!   every committed superblock, one drain.
//!
//! Setup memory does not grow with the dataset share: per reader it is the
//! pipe (`STREAM_DEPTH` samples) plus, per owned node, a chunk of staging
//! and up to `queue_depth × chunk_size` of DMA buffers in flight per device
//! stream (a copy shares its home command's buffer) — a bound the merged
//! feed reaches on all of the reader's nodes at once.

use std::sync::Arc;

use blocksim::{NvmeDevice, NvmeTarget, BLOCK_SIZE};
use fabric::{Cluster, NvmeOfTarget, TargetConfig};
use simkit::chan::{Receiver, Sender};
use simkit::resource::Link;
use simkit::runtime::{JoinHandle, Runtime};
use simkit::telemetry::Registry;
use simkit::time::{Dur, Time};

use crate::codec::{stored_blocks, CodecKind, CodecTables, FrameStager, NodeFrames, StoredFrame};
use crate::config::DlfsConfig;
use crate::directory::{node_for_name, tree_wire_bytes, DirectoryBuilder, SampleDirectory};
use crate::entry::SampleEntry;
use crate::error::DlfsError;
use crate::integrity::Redundancy;
use crate::io::reactor::ForegroundReads;
use crate::io::{DlfsIo, DlfsShared};
use crate::layout::{self, BlockChecksums, Geometry, MetaRecord, NodeMeta, Superblock};
use crate::source::SampleSource;
use crate::writer::{read_timed, BatchedWriter, CheckpointReader, CheckpointWriter};
use crate::{cache::SampleCache, copy::CopyPool};

/// How readers reach the storage devices. [`Deployment::local`] and
/// [`Deployment::fabric`] are the one definition of the wiring; a clone is
/// the same wiring (every handle is an `Arc`), so one deployment serves a
/// `mount` and a later `remount`.
#[derive(Clone)]
pub struct Deployment {
    /// `targets[r][n]` is reader r's handle to storage node n's device
    /// (a local `NvmeDevice` or an NVMe-oF `RemoteTarget`).
    pub targets: Vec<Vec<Arc<dyn NvmeTarget>>>,
    /// Fabric for the directory allgather; `None` for single-node setups.
    pub cluster: Option<Arc<Cluster>>,
}

impl Deployment {
    /// `readers` readers on one node, each reaching every device directly.
    pub fn local(readers: usize, devices: &[Arc<NvmeDevice>]) -> Deployment {
        let row: Vec<Arc<dyn NvmeTarget>> = devices.iter().map(|d| d.clone() as _).collect();
        Deployment {
            targets: vec![row; readers],
            cluster: None,
        }
    }

    /// Reader r on cluster node `reader_nodes[r]`, device n on
    /// `device_nodes[n]`. Each device is exported by one [`NvmeOfTarget`]
    /// (default [`TargetConfig`]) that every reader shares: a reader on the
    /// device's node reaches the device itself, every other reader connects
    /// over NVMe-oF. A node outside the cluster, or a node list that does
    /// not match the devices, is [`DlfsError::Deployment`].
    pub fn fabric(
        cluster: &Arc<Cluster>,
        reader_nodes: &[usize],
        device_nodes: &[usize],
        devices: &[Arc<NvmeDevice>],
    ) -> Result<Deployment, DlfsError> {
        let nodes = cluster.len();
        let outside = reader_nodes.iter().chain(device_nodes).any(|&n| n >= nodes);
        if outside || device_nodes.len() != devices.len() {
            return Err(DlfsError::Deployment(format!(
                "readers on nodes {reader_nodes:?} and {} devices on nodes {device_nodes:?} \
                 do not fit a {nodes}-node cluster",
                devices.len()
            )));
        }
        let exported: Vec<Arc<NvmeOfTarget>> = std::iter::zip(device_nodes, devices)
            .map(|(&node, d)| NvmeOfTarget::new(node, d.clone(), TargetConfig::default()))
            .collect();
        let reach = |r: usize, t: &Arc<NvmeOfTarget>| -> Arc<dyn NvmeTarget> {
            if t.node() == r {
                t.device().clone()
            } else {
                fabric::connect(cluster.clone(), r, t.clone())
            }
        };
        let row = |r| exported.iter().map(|t| reach(r, t)).collect();
        Ok(Deployment {
            targets: reader_nodes.iter().map(|&r| row(r)).collect(),
            cluster: Some(cluster.clone()),
        })
    }
}

impl std::fmt::Debug for Deployment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deployment")
            .field("readers", &self.targets.len())
            .field(
                "storage_nodes",
                &self.targets.first().map(|t| t.len()).unwrap_or(0),
            )
            .finish()
    }
}

/// CPU cost to create one directory entry (hash + AVL insert).
const BUILD_PER_ENTRY: Dur = Dur::nanos(120);

/// CPU cost to merge one remote entry during the allgather.
const MERGE_PER_ENTRY: Dur = Dur::nanos(25);

/// A reader's half of the directory allgather (paper §III-B2), one rule
/// for `stage` and `remount`: a reader ships its nodes' trees from its own
/// task the moment they are built, and [`Bringup::merge`] charges the
/// merge once the last of them has arrived.
#[derive(Clone)]
struct Allgather {
    cluster: Arc<Cluster>,
    readers: usize,
    arrived: Sender<Time>,
}

impl Allgather {
    /// Reserve reader `src`'s transfer of `bytes` of trees to every other
    /// reader on the fabric, and report when the last one lands.
    fn ship(&self, rt: &Runtime, src: usize, bytes: u64) {
        let mut latest = rt.now();
        for dst in (0..self.readers).filter(|&dst| dst != src) {
            latest = latest.max(self.cluster.reserve_transfer(rt.now(), src, dst, bytes));
        }
        // Closed only when the mount has already failed.
        let _ = self.arrived.send(latest);
    }
}

/// Submit every writer's staged tail before draining any of them, so all
/// of their devices drain at once.
fn flush_all<'a>(
    rt: &Runtime,
    writers: impl IntoIterator<Item = &'a mut BatchedWriter>,
) -> Result<(), DlfsError> {
    let mut writers: Vec<&mut BatchedWriter> = writers.into_iter().collect();
    for w in &mut writers {
        w.submit(rt)?;
    }
    writers.into_iter().try_for_each(|w| w.flush(rt))
}

/// A mounted DLFS instance: per-reader shared state + the replicated
/// directory. Alive for the duration of the job, like the paper's DLFS.
pub struct DlfsInstance {
    pub dir: Arc<SampleDirectory>,
    /// One per reader (never empty). The instance-wide state — layouts,
    /// redundancy, codec tables, QoS gate — is shared by all of them and
    /// read through reader 0.
    shared: Vec<Arc<DlfsShared>>,
}

impl std::fmt::Debug for DlfsInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DlfsInstance")
            .field("samples", &self.dir.len())
            .field("readers", &self.shared.len())
            .field("persistent", &self.is_persistent())
            .finish()
    }
}

impl DlfsInstance {
    /// Number of reader (compute) nodes.
    pub fn readers(&self) -> usize {
        self.shared.len()
    }

    /// Create an I/O handle for reader `r` (one per I/O thread).
    pub fn io(&self, r: usize) -> DlfsIo {
        DlfsIo::new(self.shared[r].clone())
    }

    /// Create an I/O handle for reader `r` that records its telemetry
    /// into `reg` (several handles may share one registry; counters and
    /// histograms then aggregate across them).
    pub fn io_with_registry(&self, r: usize, reg: &simkit::telemetry::Registry) -> DlfsIo {
        DlfsIo::with_registry(self.shared[r].clone(), reg)
    }

    /// Create an I/O handle for reader `r` serving `tenant`: same
    /// devices, cache pool and copy threads as [`DlfsInstance::io`], but
    /// reads key the cache under the tenant's namespace and pass the QoS
    /// admission gate as that tenant.
    pub fn io_tenant(&self, r: usize, tenant: crate::tenant::TenantId) -> DlfsIo {
        DlfsIo::new(self.shared[r].with_tenant(tenant))
    }

    /// [`DlfsInstance::io_tenant`] with telemetry recorded into `reg`.
    pub fn io_tenant_with_registry(
        &self,
        r: usize,
        tenant: crate::tenant::TenantId,
        reg: &simkit::telemetry::Registry,
    ) -> DlfsIo {
        DlfsIo::with_registry(self.shared[r].with_tenant(tenant), reg)
    }

    /// The instance's shared QoS admission gate, when the configuration
    /// asked for one ([`DlfsConfig::qos`]).
    pub fn qos(&self) -> Option<&Arc<crate::tenant::TenantQos>> {
        self.shared[0].qos.as_ref()
    }

    /// Shared per-reader state (cache stats etc.).
    pub fn shared(&self, r: usize) -> &Arc<DlfsShared> {
        &self.shared[r]
    }

    /// Whether this instance sits on a durable on-device layout
    /// (created via `.persistent()` / `.remount()` rather than `.mount()`).
    pub fn is_persistent(&self) -> bool {
        self.shared[0].layouts.is_some()
    }

    /// Storage node `nid`'s superblock (persistent instances only).
    pub fn layout(&self, nid: u16) -> Option<&Superblock> {
        let layouts = self.shared[0].layouts.as_ref()?;
        layouts.get(nid as usize)
    }

    /// Replica routing + integrity state, when the configuration asked
    /// for `replicas > 1` and/or `verify_reads`.
    pub fn redundancy(&self) -> Option<&Arc<Redundancy>> {
        Some(&self.shared[0].redundancy).filter(|r| r.in_use())
    }

    /// Reader `r`'s state and storage node `nid`'s superblock: a typed
    /// [`DlfsError::Config`] naming an index past its count, then
    /// [`DlfsError::Deployment`] on an ephemeral instance.
    fn checkpoint_stream(
        &self,
        r: usize,
        nid: u16,
    ) -> Result<(&DlfsShared, &Superblock), DlfsError> {
        let nodes = self.shared[0].targets.len();
        for (what, i, count) in [
            ("reader", r, self.readers()),
            ("storage node", nid as usize, nodes),
        ] {
            if i >= count {
                return Err(DlfsError::Config(format!(
                    "checkpoint stream through {what} {i}, but the instance has {count} {what}s"
                )));
            }
        }
        let sb = self.layout(nid).ok_or_else(|| {
            DlfsError::Deployment(
                "checkpoint streams need a persistent instance (import/remount, not mount)".into(),
            )
        })?;
        Ok((&self.shared[r], sb))
    }

    /// Open a checkpoint append stream on storage node `nid` through
    /// reader `r`'s target handle. Its appends are background work: they
    /// yield the device to the instance's reads (`writer.rs`). Fails with
    /// [`DlfsError::Config`] for a reader or node that does not exist and
    /// with [`DlfsError::Deployment`] on an ephemeral instance.
    pub fn checkpoint_writer(
        &self,
        rt: &Runtime,
        r: usize,
        nid: u16,
        reg: Option<&Registry>,
    ) -> Result<CheckpointWriter, DlfsError> {
        let (shared, sb) = self.checkpoint_stream(r, nid)?;
        if sb.ckpt_capacity == 0 {
            return Err(DlfsError::Config(
                "ckpt_region_bytes was 0 at import: no checkpoint region on this device".into(),
            ));
        }
        shared.redundancy.check_alive(nid)?;
        let target = shared.targets[nid as usize].clone();
        let fg = shared.fg_reads.clone();
        CheckpointWriter::open(rt, target, sb, &shared.cfg, reg, fg)
    }

    /// Open a checkpoint replay stream on storage node `nid` through
    /// reader `r`'s target handle; the same typed errors as
    /// [`DlfsInstance::checkpoint_writer`].
    pub fn checkpoint_reader(
        &self,
        r: usize,
        nid: u16,
        reg: Option<&Registry>,
    ) -> Result<CheckpointReader, DlfsError> {
        let (shared, sb) = self.checkpoint_stream(r, nid)?;
        Ok(CheckpointReader::open(
            shared.targets[nid as usize].clone(),
            sb,
            &shared.cfg,
            reg,
        ))
    }

    /// A view of the same mounted data through a different sample
    /// directory — e.g. the record-level index of TFRecord containers
    /// staged by the original mount (paper §III-B1: "we are able to have
    /// direct access to any samples in a TFRecord file"). Each reader gets
    /// fresh sample caches and copy pools; the devices and their contents
    /// are shared with the original instance.
    pub fn with_directory(&self, rt: &Runtime, dir: Arc<SampleDirectory>) -> DlfsInstance {
        let shared = self
            .shared
            .iter()
            .map(|s| {
                let name = format!("dlfs-remap-r{}", s.reader_id);
                let (cache, copy) = reader_runtime(rt, &s.cfg, &name);
                Arc::new(DlfsShared {
                    dir: dir.clone(),
                    cache,
                    copy,
                    ..DlfsShared::clone(s)
                })
            })
            .collect();
        DlfsInstance { dir, shared }
    }
}

/// A reader's own runtime state: its sample cache and its copy threads.
fn reader_runtime(rt: &Runtime, cfg: &DlfsConfig, name: &str) -> (Arc<SampleCache>, CopyPool) {
    let cache = SampleCache::with_mode(cfg.chunk_size as usize, cfg.pool_chunks, cfg.cache_mode);
    let copy = CopyPool::spawn(rt, name, cfg.copy_threads, &cfg.costs);
    (Arc::new(cache), copy)
}

/// Advance one node's placement cursor past a sample of `len` bytes.
/// With a codec (`frame = Some(chunk_size)`) samples never straddle a
/// chunk frame — a sample that would cross the boundary is pushed to the
/// next frame and the gap becomes frame padding (FanStore-style), so
/// every sample decodes from exactly one frame. Returns the sample's
/// relative offset, or a typed error for a sample no frame can hold.
fn place_sample(cursor: &mut u64, id: u32, len: u64, frame: Option<u64>) -> Result<u64, DlfsError> {
    if let Some(chunk) = frame {
        if len > chunk {
            return Err(DlfsError::Config(format!(
                "sample {id} is {len} B but the codec frame (chunk_size) is only {chunk} B: \
                 coded samples must fit one chunk frame"
            )));
        }
        if *cursor % chunk + len > chunk {
            *cursor = cursor.next_multiple_of(chunk);
        }
    }
    let at = *cursor;
    *cursor += len;
    Ok(at)
}

/// Hash-partition samples over storage nodes and pack each node's share
/// from offset 0 — the one pass over the source that assigns offsets.
/// Metadata-only: every reader derives the same result from the names, so
/// no coordination is needed. Returns the directory under construction
/// and every node's share `(samples, data bytes)`, frame padding
/// included. `frame` is `Some(chunk_size)` when a codec is configured
/// (see [`place_sample`]).
fn place(
    source: &dyn SampleSource,
    storage_nodes: usize,
    frame: Option<u64>,
) -> Result<(DirectoryBuilder, Vec<(u64, u64)>), DlfsError> {
    let count = source.count();
    let mut builder = DirectoryBuilder::new(storage_nodes, count)?;
    let mut shares = vec![(0u64, 0u64); storage_nodes];
    for id in 0..count as u32 {
        let name = source.name(id);
        let nid = node_for_name(&name, storage_nodes);
        let len = source.size(id);
        let (samples, cursor) = &mut shares[nid as usize];
        let at = place_sample(cursor, id, len, frame)?;
        builder.add(id, &name, nid, at, len)?;
        *samples += 1;
    }
    Ok((builder, shares))
}

/// What bring-up knows about one storage node once it is up, whichever
/// way it came up (staged just now, or loaded by `remount`).
struct NodeState {
    /// The committed superblock (persistent instances only).
    sb: Option<Superblock>,
    geometry: Geometry,
    /// Per-block integrity table; empty without `verify_reads`.
    sums: Vec<u64>,
    /// Encoded length of every chunk frame; empty without a codec.
    lens: Vec<u32>,
}

/// One sample travelling from the staging producer to an upload task.
#[derive(Debug)]
struct StagedSample {
    /// Index into the consumer's `my_nodes`.
    node_pos: usize,
    id: u32,
    /// The sample's directory entry: where `bytes` belong on the node.
    entry: SampleEntry,
    bytes: Vec<u8>,
}

/// Everything one reader's upload task needs, moved into the spawn.
struct UploadTask {
    r: usize,
    /// Global storage-node ids this reader stages (n ≡ r mod readers).
    my_nodes: Vec<usize>,
    /// The reader's target row by storage node: its own nodes plus the
    /// peers that host their replica mirrors.
    row: Vec<Arc<dyn NvmeTarget>>,
    /// Every storage node's geometry (places the mirror copies).
    geometry: Arc<Vec<Geometry>>,
    /// Superblock drafts of `my_nodes`: `Some` = persist the layout.
    drafts: Option<Vec<Superblock>>,
    /// Where the trees of `my_nodes` go, and their wire size; `None` when
    /// there is nothing to gather or this reader owns no node.
    gather: Option<Allgather>,
    tree_bytes: u64,
    cfg: DlfsConfig,
    pfs: Option<Link>,
    reg: Option<Registry>,
    rx: Receiver<StagedSample>,
    credit: Sender<usize>,
}

/// The device-facing state of one upload task, indexed like `my_nodes`.
/// A node's writer carries its stream and its k−1 replica copies, so every
/// device stream — home or copy — is one node's data and nothing else: one
/// monotone run, however the homes' streams interleave in the feed.
struct Landing {
    writers: Vec<BatchedWriter>,
    checks: Vec<BlockChecksums>,
    records: Vec<Vec<MetaRecord>>,
}

impl UploadTask {
    /// Node `home`'s writer: its data region is mirrored to replica slot r
    /// of its host for every r < k (`layout::replica_host`,
    /// `layout::replica_offset`).
    fn writer(&self, home: usize) -> BatchedWriter {
        let mirror = |r: usize| {
            let peer = layout::replica_host(home, r, self.geometry.len());
            let p = self.geometry[peer];
            let at = layout::replica_offset(p.data_base, p.slot_bytes, r as u32, 0);
            (self.row[peer].clone(), peer as u16, at)
        };
        let mirrors = (1..self.cfg.replicas).map(mirror).collect();
        let (g, target) = (self.geometry[home], self.row[home].clone());
        let (region, reg) = (g.data_base..g.data_base + g.data_bytes, self.reg.as_ref());
        BatchedWriter::mirrored(target, home as u16, region, mirrors, &self.cfg, reg)
    }

    /// Land one staged extent of node `my_nodes[pos]` — a raw sample (a
    /// frame stored in full), or a whole encoded frame under a codec
    /// ([`FrameStager`]): write its padding and stored bytes at their
    /// device address (the writer copies them to the replica slots), feed
    /// the node's rolling integrity hasher the same bytes, and queue its
    /// metadata records. Extents arrive per node in device order and each
    /// starts where the previous one ended — a coded node's frames lie back
    /// to back, a verbatim one after zeros up to its block — so every
    /// writer sees one contiguous run, merges it into chunk-sized commands,
    /// and the hasher sees the stored region as one stream.
    fn land(
        &self,
        rt: &Runtime,
        l: &mut Landing,
        pos: usize,
        f: StoredFrame,
    ) -> Result<(), DlfsError> {
        let pad =
            (f.pad > 0).then_some((f.at - f.pad as u64, &[0u8; BLOCK_SIZE as usize][..f.pad]));
        for (at, bytes) in pad.into_iter().chain([(f.at, &f.stored[..f.extent])]) {
            l.writers[pos].write(rt, at, bytes)?;
            if self.cfg.verify_reads {
                l.checks[pos].update(bytes);
            }
        }
        if self.drafts.is_some() {
            // Checksummed over its logical bytes: what a checker reads back.
            let record = |&(id, e): &(u32, SampleEntry)| {
                let at = (e.offset() - f.offset) as usize;
                MetaRecord::new(id, e, &f.stored[at..at + e.len() as usize])
            };
            l.records[pos].extend(f.samples.iter().map(record));
        }
        Ok(())
    }

    /// Receive samples and land them through per-node [`BatchedWriter`]s,
    /// ship the trees once the last one has landed, and drain; when
    /// persisting, run the two-phase superblock commit around the data.
    /// The per-block integrity table accumulates as the stream flows — no
    /// read-back pass. On an I/O failure the task keeps draining its pipe
    /// (so the producer never blocks on a dead consumer) and reports the
    /// error at the end.
    fn run(mut self, rt: &Runtime) -> Result<Vec<(usize, NodeState)>, DlfsError> {
        let mut l = Landing {
            writers: self.my_nodes.iter().map(|&n| self.writer(n)).collect(),
            checks: vec![BlockChecksums::new(); self.my_nodes.len()],
            records: vec![Vec::new(); self.my_nodes.len()],
        };
        // Per-node frame stagers when a codec is configured: samples
        // accumulate into chunk frames that are encoded and landed whole.
        let codec = self.cfg.codec.codec();
        let coded = self.cfg.codec != CodecKind::Identity;
        let stager = |&n: &usize| FrameStager::new(self.geometry[n].data_base, self.cfg.chunk_size);
        let mut stagers: Vec<_> = self.my_nodes.iter().filter(|_| coded).map(stager).collect();
        // Phase A (persistent only): stamp each node with the new,
        // uncommitted generation before any data lands, and invalidate the
        // previous generation's checkpoint stream head, if the node has a
        // checkpoint region (`Superblock::stamp_writes`). A crash from here
        // until the committed superblock below leaves the stamps
        // disagreeing.
        if let Some(drafts) = self.drafts.as_mut() {
            for (pos, &n) in self.my_nodes.iter().enumerate() {
                let block = BLOCK_SIZE as usize;
                let prev = read_timed(rt, &self.row[n], n as u16, 0, block, &self.cfg)?;
                let prev = Superblock::decode(n as u16, &prev).map_or(0, |sb| sb.generation);
                drafts[pos].generation = prev + 1;
                for (at, bytes) in drafts[pos].stamp_writes() {
                    l.writers[pos].write(rt, at, &bytes)?;
                }
                l.writers[pos].flush(rt)?;
            }
        }
        let mut failed: Option<DlfsError> = None;
        // recv() errors once the producer is done and drops the sender.
        while let Ok(item) = self.rx.recv() {
            // Refill the producer's window before doing timed work, so the
            // pipe stays as full as the memory bound allows.
            let _ = self.credit.send(self.r);
            if failed.is_some() {
                continue; // drain mode: keep the producer unblocked
            }
            // Charge the PFS read feeding the staging buffer, then the
            // directory-entry construction this sample already paid for at
            // planning time.
            if let Some(pfs) = &self.pfs {
                pfs.transfer(rt, item.bytes.len() as u64);
            }
            rt.work(BUILD_PER_ENTRY);
            let pos = item.node_pos;
            let staged = if coded {
                // The stager owns writes under a codec: a completed frame
                // is encoded and landed whole; this sample's own frame
                // flushes on a later push or at end of stream.
                stagers[pos].push(item.id, item.entry, &item.bytes, codec)
            } else {
                Ok(Some(StoredFrame {
                    offset: item.entry.offset(),
                    at: item.entry.offset(),
                    pad: 0,
                    extent: item.bytes.len(),
                    // Only a persistent import records its samples.
                    samples: (self.drafts.iter().map(|_| (item.id, item.entry))).collect(),
                    stored: item.bytes,
                }))
            };
            let landed = staged.and_then(|f| f.map_or(Ok(()), |f| self.land(rt, &mut l, pos, f)));
            failed = landed.err();
        }
        if let Some(e) = failed {
            return Err(e);
        }
        // Under a codec the last frame of each node is still staging:
        // close it now that the stream is over.
        for (pos, stager) in stagers.iter_mut().enumerate() {
            if let Some(f) = stager.finish(codec)? {
                self.land(rt, &mut l, pos, f)?;
            }
        }
        // Every entry is built: the trees ship while the devices drain.
        if let Some(gather) = &self.gather {
            gather.ship(rt, self.r, self.tree_bytes);
        }
        // Every tail drains at once (zero-sample nodes included), replica
        // copies before any superblock commits. (The copies this task
        // wrote land on *peer* nodes whose own commit runs in a different
        // task; replica slots are best-effort spare copies, not covered by
        // the two-phase generation stamp.)
        flush_all(rt, &mut l.writers)?;
        let sums: Vec<Vec<u64>> = l.checks.into_iter().map(BlockChecksums::finish).collect();
        // Without a codec there are no stagers, and every frame table is empty.
        let mut lens: Vec<Vec<u32>> = stagers.into_iter().map(|s| s.lens).collect();
        lens.resize(self.my_nodes.len(), Vec::new());
        // When persisting, finalize phase by phase across the nodes: every
        // integrity table, metadata and codec table, one drain, then every
        // committed superblock, one drain — each strictly after its node's
        // data and tables are durable, which is what makes the commit
        // two-phase.
        if let Some(drafts) = self.drafts.as_mut() {
            for (pos, (sb, w)) in drafts.iter_mut().zip(&mut l.writers).enumerate() {
                for (at, bytes) in sb.commit_writes(&l.records[pos], &sums[pos], &lens[pos]) {
                    w.write(rt, at, &bytes)?;
                }
            }
            flush_all(rt, &mut l.writers)?;
            for (sb, w) in drafts.iter_mut().zip(&mut l.writers) {
                sb.committed = true;
                w.write(rt, 0, &sb.encode())?;
            }
            flush_all(rt, &mut l.writers)?;
        }
        let mut out = Vec::with_capacity(self.my_nodes.len());
        for (pos, (sums, lens)) in std::iter::zip(sums, lens).enumerate() {
            let n = self.my_nodes[pos];
            let sb = self.drafts.as_ref().map(|d| d[pos].clone());
            let geometry = self.geometry[n];
            out.push((
                n,
                NodeState {
                    sb,
                    geometry,
                    sums,
                    lens,
                },
            ));
        }
        Ok(out)
    }
}

/// A spawned bring-up worker (one per reader): hands back a result for
/// each storage node it staged or loaded, keyed by node id.
type Worker<T> = JoinHandle<Result<Vec<(usize, T)>, DlfsError>>;

/// Join every bring-up worker, keeping the first error, and put the
/// per-node results they hand back into storage-node order.
fn join_nodes<T>(handles: Vec<Worker<T>>, storage_nodes: usize) -> Result<Vec<T>, DlfsError> {
    let mut per_node: Vec<Option<T>> = (0..storage_nodes).map(|_| None).collect();
    let mut first_err = None;
    for h in handles {
        match h.join() {
            Ok(list) => list.into_iter().for_each(|(n, t)| per_node[n] = Some(t)),
            Err(e) => first_err = first_err.or(Some(e)),
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    let missing = |n| DlfsError::Deployment(format!("bring-up finished without storage node {n}"));
    let node = |(n, t): (usize, Option<T>)| t.ok_or_else(|| missing(n));
    per_node.into_iter().enumerate().map(node).collect()
}

/// Samples buffered per reader between the staging producer and each
/// upload task: the pipe's share of setup memory (the writers' in-flight
/// DMA buffers are the rest — see the module doc) is a constant, not the
/// reader's whole data share.
const STREAM_DEPTH: usize = 4;

/// A validated bring-up: what [`MountBuilder::validated`] hands the two
/// pipelines ([`Bringup::stage`] for `mount`, [`Bringup::remount`]).
struct Bringup {
    cfg: DlfsConfig,
    deployment: Deployment,
    /// Shared bandwidth to the backend parallel file system the dataset is
    /// staged from; `None` skips PFS cost (pre-staged data).
    pfs: Option<Link>,
    /// Registry for the bring-up counters (`dlfs.write.*` while staging,
    /// `dlfs.remount.*` on remount); `None` leaves them unregistered.
    telemetry: Option<Registry>,
    readers: usize,
    storage_nodes: usize,
}

impl Bringup {
    /// The nodes reader `r` stages or loads (n ≡ r mod readers).
    fn nodes_of(&self, r: usize) -> Vec<usize> {
        (r..self.storage_nodes).step_by(self.readers).collect()
    }

    /// The cold path: place the dataset, stream it onto the devices and
    /// build the replicated directory. With `persist` the on-device layout
    /// of [`crate::layout`] is written around the data (two-phase commit
    /// per device: a crash mid-import leaves a torn generation stamp that
    /// `remount` rejects with [`crate::LayoutError::TornImport`]) so that later
    /// jobs can [`Bringup::remount`] warm; without it the devices hold raw
    /// sample data from offset 0. The two differ in the [`Geometry`]
    /// [`layout::plan_nodes`] hands back and in the commit around the data,
    /// and in nothing else.
    fn stage(
        self,
        rt: &Runtime,
        source: &dyn SampleSource,
        persist: bool,
    ) -> Result<DlfsInstance, DlfsError> {
        let cfg = &self.cfg;
        let frame = (cfg.codec != CodecKind::Identity).then_some(cfg.chunk_size);
        let (mut builder, shares) = place(source, self.storage_nodes, frame)?;
        let devices = self.deployment.targets[0].iter();
        let device_bytes: Vec<u64> = devices.map(|t| t.blocks() * BLOCK_SIZE).collect();
        let total = source.count() as u64;
        let (geometry, drafts) = layout::plan_nodes(&shares, total, &device_bytes, cfg, persist)?;
        builder.rebase(&geometry.iter().map(|g| g.data_base).collect::<Vec<_>>());
        let dir = Arc::new(builder.finish()?);
        let nodes = self.upload(rt, &dir, source, drafts, Arc::new(geometry))?;
        let replicas = self.cfg.replicas as u32;
        Ok(self.assemble(rt, dir, replicas, nodes))
    }

    /// Stage the dataset onto the devices: the caller's task produces
    /// samples into bounded per-reader pipes (capacity [`STREAM_DEPTH`]);
    /// one spawned [`UploadTask`] per reader consumes, writes and ships its
    /// trees, and the caller merges them while the tasks drain.
    fn upload(
        &self,
        rt: &Runtime,
        dir: &Arc<SampleDirectory>,
        source: &dyn SampleSource,
        drafts: Option<Vec<Superblock>>,
        geometry: Arc<Vec<Geometry>>,
    ) -> Result<Vec<NodeState>, DlfsError> {
        let (credit_tx, credit_rx) = rt.channel::<usize>(None);
        let (gather, arrived) = self.allgather(rt).unzip();
        let mut senders: Vec<Option<Sender<StagedSample>>> = Vec::with_capacity(self.readers);
        // (node_pos, id) per reader: the k-way merge of its nodes' sample
        // lists (each already in offset order) by share — data-relative
        // offset ÷ the node's data bytes, cross-multiplied — ties by node:
        // all of the reader's devices fill together and finish together,
        // each from a stream still in packed offset order (module doc).
        let mut items: Vec<Vec<(usize, u32)>> = vec![Vec::new(); self.readers];
        let mut handles = Vec::with_capacity(self.readers);
        for (r, reader_items) in items.iter_mut().enumerate() {
            let my_nodes = self.nodes_of(r);
            for (pos, &n) in my_nodes.iter().enumerate() {
                reader_items.extend(dir.samples_on(n as u16).iter().map(|&id| (pos, id)));
            }
            let share = |&(pos, id): &(usize, u32)| {
                let g = geometry[my_nodes[pos]];
                let rel = dir.entry(id).offset() - g.data_base;
                (rel as u128, g.data_bytes.max(1) as u128, pos)
            };
            reader_items.sort_by(|a, b| {
                let ((ra, da, pa), (rb, db, pb)) = (share(a), share(b));
                (ra * db).cmp(&(rb * da)).then(pa.cmp(&pb))
            });
            let (tx, rx) = rt.channel::<StagedSample>(Some(STREAM_DEPTH));
            senders.push(Some(tx));
            let task = UploadTask {
                r,
                row: self.deployment.targets[r].clone(),
                geometry: geometry.clone(),
                drafts: drafts
                    .as_ref()
                    .map(|d| my_nodes.iter().map(|&n| d[n].clone()).collect()),
                gather: gather.clone().filter(|_| !my_nodes.is_empty()),
                tree_bytes: tree_wire_bytes(
                    my_nodes.iter().map(|&n| dir.samples_on(n as u16).len()),
                ),
                my_nodes,
                cfg: self.cfg.clone(),
                pfs: self.pfs.clone(),
                reg: self.telemetry.clone(),
                rx,
                credit: credit_tx.clone(),
            };
            handles.push(rt.spawn_with(&format!("dlfs-mount-r{r}"), move |rt| task.run(rt)));
        }
        drop((credit_tx, gather));
        // Produce: fill every pipe to its bound, then send one sample per
        // returned credit. Memory in flight is bounded by depth × readers.
        //
        // An upload task can die before draining its pipe (its Phase A
        // superblock read hit a dead device, say). That surfaces here as a
        // failed send or a closed credit channel — both mean "stop
        // producing to that pipe and let the join below report the
        // worker's own error", not a panic: the mount must fail typed when
        // a device is down.
        let mut cursor = vec![0usize; self.readers];
        let mut aborted = false;
        // Send reader `r`'s next sample down its pipe, if it is still open,
        // and close the pipe after the last one (lets the consumer
        // finalize). `false` = the worker behind the pipe is gone.
        let mut feed = |r: usize, senders: &mut [Option<Sender<StagedSample>>]| {
            let Some(sender) = senders[r].as_ref() else {
                return true; // residual credit from a pipe already closed
            };
            if let Some(&(node_pos, id)) = items[r].get(cursor[r]) {
                cursor[r] += 1;
                let entry = dir.entry(id);
                let mut bytes = vec![0u8; entry.len() as usize];
                source.fill(id, &mut bytes);
                let staged = StagedSample {
                    node_pos,
                    id,
                    entry,
                    bytes,
                };
                if sender.send(staged).is_err() {
                    senders[r] = None; // its join says why
                    return false;
                }
            }
            if cursor[r] == items[r].len() {
                senders[r] = None;
            }
            true
        };
        for r in 0..self.readers {
            for _ in 0..STREAM_DEPTH {
                aborted |= !feed(r, &mut senders);
            }
        }
        while senders.iter().any(|s| s.is_some()) {
            match credit_rx.recv() {
                Ok(r) => aborted |= !feed(r, &mut senders),
                Err(_) => {
                    aborted = true; // every worker is gone: nothing left to feed
                    break;
                }
            }
        }
        drop(senders);
        if let Some(arrived) = arrived {
            self.merge(rt, arrived, dir.len());
        }
        let nodes = join_nodes(handles, self.storage_nodes)?;
        if aborted {
            return Err(DlfsError::Deployment(
                "import upload worker died without reporting an error".into(),
            ));
        }
        Ok(nodes)
    }

    /// The allgather's shipping half, cloned into every reader task, and
    /// the merge's end of it; `None` without a fabric or with one reader.
    /// (Functionally the directory is complete before any tree ships; the
    /// collective charges the network and merge time it takes.)
    fn allgather(&self, rt: &Runtime) -> Option<(Allgather, Receiver<Time>)> {
        let cluster = self.deployment.cluster.clone()?;
        if self.readers <= 1 {
            return None;
        }
        let (arrived, merge) = rt.channel(None);
        let gather = Allgather {
            cluster,
            readers: self.readers,
            arrived,
        };
        Some((gather, merge))
    }

    /// Charge the merge of `entries` entries — every reader integrates the
    /// other nodes' — once every reader that owns a node has shipped its
    /// trees and the last of them has arrived. A reader that failed before
    /// shipping leaves nothing to merge; the join reports why.
    fn merge(&self, rt: &Runtime, arrived: Receiver<Time>, entries: usize) {
        let mut latest = rt.now();
        for _ in 0..self.readers.min(self.storage_nodes) {
            let Ok(at) = arrived.recv() else {
                return;
            };
            latest = latest.max(at);
        }
        rt.sleep_until(latest);
        rt.work(MERGE_PER_ENTRY * entries as u64);
    }

    /// Turn a finished bring-up into the running instance — the one place
    /// the [`Redundancy`] of the instance (every instance has one:
    /// `replicas` copies, each node's geometry, an integrity table with
    /// `verify_reads`, membership layered on when
    /// [`DlfsConfig::fail_dead_after`] asks for failure detection), the
    /// codec tables and the per-reader runtime state (caches, copy pools)
    /// are built, for `mount` and `remount` alike.
    fn assemble(
        self,
        rt: &Runtime,
        dir: Arc<SampleDirectory>,
        replicas: u32,
        mut nodes: Vec<NodeState>,
    ) -> DlfsInstance {
        let cfg = self.cfg;
        let slot = |s: &NodeState| (s.geometry.data_base, s.geometry.slot_bytes);
        let slots = nodes.iter().map(slot).collect();
        let stored = |s: &NodeState| {
            stored_blocks(s.geometry.data_bytes, cfg.codec, cfg.chunk_size, &s.lens)
        };
        let stored = nodes.iter().map(stored).collect();
        let sums = if cfg.verify_reads {
            let table = |s: &mut NodeState| Arc::new(std::mem::take(&mut s.sums));
            nodes.iter_mut().map(table).collect()
        } else {
            Vec::new()
        };
        let codec = (cfg.codec != CodecKind::Identity).then(|| {
            let frames = |s: &mut NodeState| {
                let (g, lens) = (s.geometry, std::mem::take(&mut s.lens));
                NodeFrames::new(g.data_base, g.data_bytes, cfg.chunk_size, lens)
            };
            let per_node = nodes.iter_mut().map(frames).collect();
            // The longest run whose items still fit the pool when the
            // engine holds its full window of them open (2 × the window).
            let run = (cfg.pool_chunks / (2 * cfg.window_chunks)).max(1);
            Arc::new(CodecTables::new(cfg.codec, cfg.chunk_size, run, per_node))
        });
        let red = Redundancy::with_geometry(replicas, slots, stored, sums);
        let redundancy = Arc::new(match cfg.fail_dead_after {
            Some(dead_after) => red.with_membership(dead_after),
            None => red,
        });
        // All nodes carry a superblock, or none does.
        let layouts: Option<Vec<Superblock>> = nodes.into_iter().map(|s| s.sb).collect();
        let layouts = layouts.map(Arc::new);
        let qos = cfg
            .qos
            .as_ref()
            .map(|q| crate::tenant::TenantQos::new(q, dir.avg_sample_bytes()));
        // A slot per storage node, then one per cluster node's NIC ingress.
        let nodes = self.storage_nodes + self.deployment.cluster.as_ref().map_or(0, |c| c.len());
        let fg_reads = Arc::new(ForegroundReads::new(nodes));
        let shared = (self.deployment.targets.into_iter().enumerate())
            .map(|(r, targets)| {
                let (cache, copy) = reader_runtime(rt, &cfg, &format!("dlfs-r{r}"));
                Arc::new(DlfsShared {
                    cfg: cfg.clone(),
                    dir: dir.clone(),
                    cache,
                    copy,
                    targets,
                    reader_id: r,
                    readers: self.readers,
                    layouts: layouts.clone(),
                    redundancy: redundancy.clone(),
                    codec: codec.clone(),
                    tenant: 0,
                    qos: qos.clone(),
                    fg_reads: fg_reads.clone(),
                })
            })
            .collect();
        DlfsInstance { dir, shared }
    }

    /// The warm path: rebuild the sample directory from the devices' own
    /// metadata regions — zero PFS traffic, zero data-region writes. Every
    /// reader loads and verifies the metadata of its share of nodes
    /// through [`layout::load_node`] (timed reads through qpairs; the
    /// integrity table only when `cfg.verify_reads` asks for checksummed
    /// reads, keeping the default remount's timing untouched) and ships its
    /// trees once they are loaded; [`layout::check_import`] judges the set
    /// against itself, the deployment and the config; the directory is
    /// rebuilt from the serialized entries, and the merge is charged as on
    /// `stage`.
    fn remount(self, rt: &Runtime) -> Result<DlfsInstance, DlfsError> {
        let cfg = &self.cfg;
        let storage_nodes = self.storage_nodes;
        // Counters under `dlfs.remount.*` (unregistered without a registry).
        let scope = self.telemetry.as_ref().map(|r| r.scoped("dlfs.remount"));
        let tel =
            ["superblocks", "meta_bytes", "entries"].map(|n| crate::counter_in(scope.as_ref(), n));
        let (gather, arrived) = self.allgather(rt).unzip();
        let mut handles = Vec::with_capacity(self.readers);
        for r in 0..self.readers {
            let my_nodes = self.nodes_of(r);
            let row = self.deployment.targets[r].clone();
            let cfg = cfg.clone();
            let tel = tel.clone();
            let gather = gather.clone().filter(|_| !my_nodes.is_empty());
            handles.push(rt.spawn_with(&format!("dlfs-remount-r{r}"), move |rt| {
                let mut loaded = Vec::with_capacity(my_nodes.len());
                for n in my_nodes {
                    let read = |off, len| read_timed(rt, &row[n], n as u16, off, len, &cfg);
                    let capacity = row[n].blocks() * BLOCK_SIZE;
                    let meta = layout::load_node(read, capacity, n as u16, cfg.verify_reads)?;
                    let [superblocks, meta_bytes, entries] = &tel;
                    superblocks.inc();
                    meta_bytes.add(meta.sb.meta_bytes);
                    entries.add(meta.records.len() as u64);
                    // Rebuilding the AVL trees costs the same per-entry
                    // insert work as building them from names at mount time.
                    rt.work(BUILD_PER_ENTRY * meta.records.len() as u64);
                    loaded.push((n, meta));
                }
                if let Some(gather) = gather {
                    let entries = loaded.iter().map(|(_, m)| m.records.len());
                    gather.ship(rt, r, tree_wire_bytes(entries));
                }
                Ok(loaded)
            }));
        }
        drop(gather);
        let nodes: Vec<NodeMeta> = join_nodes(handles, storage_nodes)?;
        let total = layout::check_import(&nodes, storage_nodes, cfg)?;
        let replicas = nodes[0].sb.replicas;
        let mut builder = DirectoryBuilder::new(storage_nodes, total as usize)?;
        for rec in nodes.iter().flat_map(|node| &node.records) {
            builder.add_raw(rec.id, rec.unit1, rec.unit2)?;
        }
        let dir = Arc::new(builder.finish()?);
        if let Some(arrived) = arrived {
            self.merge(rt, arrived, dir.len());
        }
        let nodes = nodes
            .into_iter()
            .map(|NodeMeta { sb, sums, lens, .. }| NodeState {
                geometry: Geometry::from(&sb),
                sb: Some(sb),
                sums,
                lens,
            })
            .collect();
        Ok(self.assemble(rt, dir, replicas, nodes))
    }
}

/// One front door for every way a DLFS instance comes up.
///
/// The six historical entry points (`mount`/`import`/`remount` and their
/// `_local` twins) collapsed into a single builder:
///
/// ```
/// use simkit::prelude::*;
/// use blocksim::{DeviceConfig, NvmeDevice};
/// use dlfs::{DlfsConfig, MountBuilder, SyntheticSource};
///
/// Runtime::simulate(7, |rt| {
///     let dev = NvmeDevice::new(DeviceConfig::optane(64 << 20));
///     let source = SyntheticSource::fixed(3, 500, 4096);
///     // Ephemeral staging onto one local device:
///     let fs = MountBuilder::new(DlfsConfig::default())
///         .local(dev.clone())
///         .mount(rt, &source)
///         .unwrap();
///     assert!(!fs.is_persistent());
///     // Persistent import, then a warm remount from the device alone:
///     MountBuilder::new(DlfsConfig::default())
///         .local(dev.clone())
///         .persistent()
///         .mount(rt, &source)
///         .unwrap();
///     let warm = MountBuilder::new(DlfsConfig::default())
///         .local(dev)
///         .warm()
///         .remount(rt)
///         .unwrap();
///     assert!(warm.is_persistent());
/// });
/// ```
///
/// * `.mount(rt, &source)` stages the dataset (cold path); with
///   [`persistent`](MountBuilder::persistent) it also writes the
///   on-device layout (the old `import`).
/// * `.remount(rt)` is the warm path: rebuild the directory from the
///   devices' own metadata, no source and no PFS traffic (the old
///   `remount`). [`warm`](MountBuilder::warm) documents the intent; it
///   is implied by calling `remount`.
pub struct MountBuilder {
    cfg: DlfsConfig,
    deployment: Option<Deployment>,
    pfs: Option<Link>,
    telemetry: Option<Registry>,
    persistent: bool,
    warm: bool,
}

impl MountBuilder {
    /// Start a builder for the given configuration.
    pub fn new(cfg: DlfsConfig) -> MountBuilder {
        MountBuilder {
            cfg,
            deployment: None,
            pfs: None,
            telemetry: None,
            persistent: false,
            warm: false,
        }
    }

    /// Single reader, single local device, no fabric.
    pub fn local(mut self, device: Arc<dyn NvmeTarget>) -> MountBuilder {
        self.deployment = Some(Deployment {
            targets: vec![vec![device]],
            cluster: None,
        });
        self
    }

    /// Full deployment shape: reader×node target matrix plus the fabric.
    pub fn deployment(mut self, deployment: Deployment) -> MountBuilder {
        self.deployment = Some(deployment);
        self
    }

    /// Charge dataset staging against this shared link to the backend
    /// parallel file system (default: pre-staged data, no PFS cost).
    pub fn pfs(mut self, link: Link) -> MountBuilder {
        self.pfs = Some(link);
        self
    }

    /// Record mount-time counters (`dlfs.write.*`, `dlfs.remount.*`) into
    /// `reg` instead of leaving them unregistered.
    pub fn with_registry(mut self, reg: Registry) -> MountBuilder {
        self.telemetry = Some(reg);
        self
    }

    /// Also write the on-device persistent layout (the old `import`), so
    /// a later job can come up via [`remount`](MountBuilder::remount).
    pub fn persistent(mut self) -> MountBuilder {
        self.persistent = true;
        self
    }

    /// Declare the warm path: the devices already hold an imported
    /// layout and the directory is rebuilt from them alone. Terminal is
    /// [`remount`](MountBuilder::remount); `mount` then refuses to stage.
    pub fn warm(mut self) -> MountBuilder {
        self.warm = true;
        self
    }

    /// The one validation step, run by both terminals before anything
    /// touches a device: the configuration, the deployment's shape and the
    /// replica count against its storage nodes.
    fn validated(self) -> Result<Bringup, DlfsError> {
        self.cfg.validate()?;
        let deployment = self.deployment.ok_or_else(|| {
            DlfsError::Deployment("MountBuilder needs .local() or .deployment()".into())
        })?;
        let bad = |msg: &str| Err(DlfsError::Deployment(msg.into()));
        let readers = deployment.targets.len();
        if readers == 0 {
            return bad("need at least one reader");
        }
        let storage_nodes = deployment.targets[0].len();
        if storage_nodes == 0 {
            return bad("need at least one storage node");
        }
        if deployment.targets.iter().any(|t| t.len() != storage_nodes) {
            return bad("all readers must see the same storage nodes");
        }
        self.cfg.check_replicas(storage_nodes)?;
        Ok(Bringup {
            cfg: self.cfg,
            deployment,
            pfs: self.pfs,
            telemetry: self.telemetry,
            readers,
            storage_nodes,
        })
    }

    /// Cold path: stage `source` onto the devices (and persist the
    /// layout when [`persistent`](MountBuilder::persistent) was set).
    pub fn mount(self, rt: &Runtime, source: &dyn SampleSource) -> Result<DlfsInstance, DlfsError> {
        if self.warm {
            return Err(DlfsError::Deployment(
                "warm() reads the on-device layout and takes no source; use remount()".into(),
            ));
        }
        let persist = self.persistent;
        self.validated()?.stage(rt, source, persist)
    }

    /// Warm path: rebuild the directory from the devices' own metadata
    /// regions — zero PFS traffic, zero data-region writes.
    pub fn remount(self, rt: &Runtime) -> Result<DlfsInstance, DlfsError> {
        self.validated()?.remount(rt)
    }
}
