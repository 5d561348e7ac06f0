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
//! Staging streams samples through a bounded per-reader pipe (the caller's
//! task produces, one spawned task per reader consumes and writes through
//! a [`BatchedWriter`]), so setup memory is O(`import_stream_depth`
//! samples) per reader, not O(dataset share).

use std::sync::Arc;

use blocksim::{NvmeTarget, BLOCK_SIZE};
use fabric::Cluster;
use simkit::chan::{Receiver, Sender};
use simkit::resource::Link;
use simkit::rng::fnv1a;
use simkit::runtime::Runtime;
use simkit::telemetry::{Counter, Registry};
use simkit::time::Dur;

use crate::codec::{CodecKind, CodecTables, NodeFrames};
use crate::config::DlfsConfig;
use crate::directory::{node_for_name, DirectoryBuilder, SampleDirectory};
use crate::error::{DlfsError, LayoutError};
use crate::integrity::Redundancy;
use crate::io::{DlfsIo, DlfsShared};
use crate::layout::{
    self, decode_codec_table, decode_integrity, decode_meta, encode_codec_table, encode_integrity,
    encode_meta, BlockChecksums, MetaRecord, Superblock,
};
use crate::source::SampleSource;
use crate::writer::{read_timed, BatchedWriter, CheckpointReader, CheckpointWriter};
use crate::{cache::SampleCache, copy::CopyPool};

/// How readers reach the storage devices.
pub struct Deployment {
    /// `targets[r][n]` is reader r's handle to storage node n's device
    /// (a local `NvmeDevice` or an NVMe-oF `RemoteTarget`).
    pub targets: Vec<Vec<Arc<dyn NvmeTarget>>>,
    /// Fabric for the directory allgather; `None` for single-node setups.
    pub cluster: Option<Arc<Cluster>>,
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

/// Mount-time tuning.
#[derive(Clone)]
pub struct MountOptions {
    /// Shared bandwidth to the backend parallel file system the dataset is
    /// read from; `None` skips PFS cost (pre-staged data).
    pub pfs: Option<Link>,
    /// CPU cost to create one directory entry (hash + AVL insert).
    pub build_per_entry: Dur,
    /// CPU cost to merge one remote entry during the allgather.
    pub merge_per_entry: Dur,
    /// Registry for the mount-time counters (`dlfs.write.*` during
    /// staging, `dlfs.remount.*` during remount). `None` binds them to a
    /// throwaway registry, keeping default outputs unchanged.
    pub telemetry: Option<Registry>,
}

impl Default for MountOptions {
    fn default() -> Self {
        MountOptions {
            pfs: None,
            build_per_entry: Dur::nanos(120),
            merge_per_entry: Dur::nanos(25),
            telemetry: None,
        }
    }
}

impl std::fmt::Debug for MountOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MountOptions").finish()
    }
}

/// A mounted DLFS instance: per-reader shared state + the replicated
/// directory. Alive for the duration of the job, like the paper's DLFS.
pub struct DlfsInstance {
    pub dir: Arc<SampleDirectory>,
    shared: Vec<Arc<DlfsShared>>,
    /// Per-storage-node superblocks when this instance was created
    /// persistently (builder `.persistent()` / `.remount()`); `None` for
    /// ephemeral mounts.
    layouts: Option<Arc<Vec<Superblock>>>,
    /// Replica routing + integrity tables; `None` on the default
    /// (`replicas == 1`, no `verify_reads`) path.
    redundancy: Option<Arc<Redundancy>>,
}

impl std::fmt::Debug for DlfsInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DlfsInstance")
            .field("samples", &self.dir.len())
            .field("readers", &self.shared.len())
            .field("persistent", &self.layouts.is_some())
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
        self.shared.first().and_then(|s| s.qos.as_ref())
    }

    /// Rebind every reader handle's default tenant (mount-time:
    /// [`MountBuilder::tenant`]).
    fn with_default_tenant(mut self, tenant: crate::tenant::TenantId) -> DlfsInstance {
        if tenant != 0 {
            self.shared = self.shared.iter().map(|s| s.with_tenant(tenant)).collect();
        }
        self
    }

    /// Shared per-reader state (cache stats etc.).
    pub fn shared(&self, r: usize) -> &Arc<DlfsShared> {
        &self.shared[r]
    }

    /// Whether this instance sits on a durable on-device layout
    /// (created via `.persistent()` / `.remount()` rather than `.mount()`).
    pub fn is_persistent(&self) -> bool {
        self.layouts.is_some()
    }

    /// Storage node `nid`'s superblock (persistent instances only).
    pub fn layout(&self, nid: u16) -> Option<&Superblock> {
        self.layouts.as_ref().and_then(|l| l.get(nid as usize))
    }

    /// Replica routing + integrity state, when the configuration asked
    /// for `replicas > 1` and/or `verify_reads`.
    pub fn redundancy(&self) -> Option<&Arc<Redundancy>> {
        self.redundancy.as_ref()
    }

    fn persistent_layout(&self, nid: u16) -> Result<&Superblock, DlfsError> {
        self.layout(nid).ok_or_else(|| {
            DlfsError::Deployment(
                "checkpoint streams need a persistent instance (import/remount, not mount)".into(),
            )
        })
    }

    /// Open a checkpoint append stream on storage node `nid` through
    /// reader `r`'s target handle. Fails with [`DlfsError::Deployment`]
    /// on an ephemeral instance.
    pub fn checkpoint_writer(
        &self,
        rt: &Runtime,
        r: usize,
        nid: u16,
        reg: Option<&Registry>,
    ) -> Result<CheckpointWriter, DlfsError> {
        let sb = self.persistent_layout(nid)?;
        if sb.ckpt_capacity == 0 {
            return Err(DlfsError::Config(
                "ckpt_region_bytes was 0 at import: no checkpoint region on this device".into(),
            ));
        }
        // Degraded mode: fail fast with a typed error instead of letting
        // every append burn its retry budget timing out against a node the
        // membership view already declared Dead.
        if let Some(red) = &self.redundancy {
            if red.is_dead(nid as usize) {
                let view_epoch = red.membership.as_ref().map(|m| m.view_epoch()).unwrap_or(0);
                return Err(DlfsError::Degraded {
                    node: nid,
                    view_epoch,
                });
            }
        }
        let shared = &self.shared[r];
        CheckpointWriter::open(
            rt,
            shared.targets[nid as usize].clone(),
            sb,
            &shared.cfg,
            reg,
        )
    }

    /// Open a checkpoint replay stream on storage node `nid` through
    /// reader `r`'s target handle.
    pub fn checkpoint_reader(
        &self,
        r: usize,
        nid: u16,
        reg: Option<&Registry>,
    ) -> Result<CheckpointReader, DlfsError> {
        let sb = self.persistent_layout(nid)?;
        let shared = &self.shared[r];
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
                let cfg = s.cfg.clone();
                let cache = Arc::new(SampleCache::with_mode(
                    cfg.chunk_size as usize,
                    cfg.pool_chunks,
                    cfg.cache_mode,
                ));
                let copy = CopyPool::spawn(
                    rt,
                    &format!("dlfs-remap-r{}", s.reader_id),
                    cfg.copy_threads,
                    &cfg.costs,
                );
                Arc::new(DlfsShared {
                    cfg,
                    dir: dir.clone(),
                    cache,
                    copy,
                    targets: s.targets.clone(),
                    reader_id: s.reader_id,
                    readers: s.readers,
                    layouts: s.layouts.clone(),
                    redundancy: s.redundancy.clone(),
                    codec: s.codec.clone(),
                    tenant: s.tenant,
                    qos: s.qos.clone(),
                })
            })
            .collect();
        DlfsInstance {
            dir,
            shared,
            layouts: self.layouts.clone(),
            redundancy: self.redundancy.clone(),
        }
    }
}

/// Shape-check the deployment (library code must return typed errors, not
/// abort the simulation).
fn validate_deployment(d: &Deployment) -> Result<(usize, usize), DlfsError> {
    let readers = d.targets.len();
    if readers == 0 {
        return Err(DlfsError::Deployment("need at least one reader".into()));
    }
    let storage_nodes = d.targets[0].len();
    if storage_nodes == 0 {
        return Err(DlfsError::Deployment(
            "need at least one storage node".into(),
        ));
    }
    if !d.targets.iter().all(|t| t.len() == storage_nodes) {
        return Err(DlfsError::Deployment(
            "all readers must see the same storage nodes".into(),
        ));
    }
    Ok((readers, storage_nodes))
}

/// The shared directory, per-node sample id lists and per-node byte
/// totals produced by [`plan_placement`].
type Placement = (Arc<SampleDirectory>, Vec<Vec<u32>>, Vec<u64>);

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

/// Hash-partition samples over storage nodes and assign packed offsets
/// starting at each node's `data_base` (0 for ephemeral mounts; the
/// chunk-aligned data region for imports). Metadata-only: every reader
/// derives the same result from the names, so no coordination is needed.
/// `frame` is `Some(chunk_size)` when a codec is configured (see
/// [`place_sample`]).
fn plan_placement(
    source: &dyn SampleSource,
    storage_nodes: usize,
    data_base: &[u64],
    frame: Option<u64>,
) -> Result<Placement, DlfsError> {
    let count = source.count();
    let mut builder = DirectoryBuilder::new(storage_nodes, count)?;
    let mut cursors = vec![0u64; storage_nodes];
    let mut per_node_ids: Vec<Vec<u32>> = vec![Vec::new(); storage_nodes];
    for id in 0..count as u32 {
        let name = source.name(id);
        let nid = node_for_name(&name, storage_nodes);
        let len = source.size(id);
        let at = place_sample(&mut cursors[nid as usize], id, len, frame)?;
        builder.add(id, &name, nid, data_base[nid as usize] + at, len)?;
        per_node_ids[nid as usize].push(id);
    }
    Ok((Arc::new(builder.finish()?), per_node_ids, cursors))
}

/// Per-node (sample count, data-region bytes) of the hash placement,
/// needed before the directory exists to plan import geometry. Must agree
/// byte-for-byte with [`plan_placement`]'s cursors, frame padding
/// included.
fn node_shares(
    source: &dyn SampleSource,
    storage_nodes: usize,
    frame: Option<u64>,
) -> Result<Vec<(u64, u64)>, DlfsError> {
    let mut shares = vec![(0u64, 0u64); storage_nodes];
    for id in 0..source.count() as u32 {
        let nid = node_for_name(&source.name(id), storage_nodes) as usize;
        shares[nid].0 += 1;
        place_sample(&mut shares[nid].1, id, source.size(id), frame)?;
    }
    Ok(shares)
}

/// One sample travelling from the staging producer to an upload task.
#[derive(Debug)]
struct StagedSample {
    /// Index into the consumer's `my_nodes`.
    node_pos: usize,
    id: u32,
    unit1: u64,
    unit2: u64,
    offset: u64,
    bytes: Vec<u8>,
}

/// What one upload task hands back: committed superblocks (import mode),
/// per-node integrity tables (`verify_reads` mode) and per-node encoded
/// frame lengths (codec mode), all keyed by global storage-node id.
#[derive(Default)]
struct UploadOutcome {
    finals: Vec<(usize, Superblock)>,
    sums: Vec<(usize, Vec<u64>)>,
    frames: Vec<(usize, Vec<u32>)>,
}

/// Accumulates one storage node's staged samples into chunk frames,
/// encoding each completed frame before it is written. Samples arrive in
/// placement order (contiguous within a frame — [`place_sample`]
/// guarantees no straddle), so frames complete strictly in order.
struct FrameStager {
    /// `data_base` of the node (0 on ephemeral mounts).
    base: u64,
    chunk: u64,
    /// Raw bytes of the frame currently filling.
    raw: Vec<u8>,
    /// Samples of the current frame, pending their stored-byte checksums:
    /// `(id, unit1, unit2, offset, len)`.
    pending: Vec<(u32, u64, u64, u64, u64)>,
    /// Encoded length of every flushed frame, in frame order.
    lens: Vec<u32>,
}

/// One encoded frame ready to hit the device: stored bytes (encoded
/// payload zero-padded to the frame's raw length), the frame's absolute
/// byte offset, and the frame's metadata records (checksummed over the
/// stored bytes, so fsck / repair / rebuild verify what the device
/// actually holds).
struct StoredFrame {
    offset: u64,
    stored: Vec<u8>,
    records: Vec<MetaRecord>,
}

impl FrameStager {
    fn new(base: u64, chunk: u64) -> FrameStager {
        FrameStager {
            base,
            chunk,
            raw: Vec::new(),
            pending: Vec::new(),
            lens: Vec::new(),
        }
    }

    /// Absolute offset of the frame currently filling.
    fn frame_start(&self) -> u64 {
        self.base + self.lens.len() as u64 * self.chunk
    }

    /// Stage one sample; returns the completed previous frame when this
    /// sample opens a new one.
    fn push(&mut self, item: &StagedSample, codec: CodecKind) -> Option<StoredFrame> {
        let mut out = None;
        if item.offset >= self.frame_start() + self.chunk {
            // The placement padded to the next frame boundary; the frame
            // just closed keeps its full chunk extent (tail is padding).
            out = Some(self.flush(self.chunk as usize, codec));
            debug_assert!(item.offset < self.frame_start() + self.chunk);
        }
        debug_assert_eq!(self.frame_start() + self.raw.len() as u64, item.offset);
        self.pending.push((
            item.id,
            item.unit1,
            item.unit2,
            item.offset,
            item.bytes.len() as u64,
        ));
        self.raw.extend_from_slice(&item.bytes);
        out
    }

    /// Close the final (possibly short) frame at end of stream.
    fn finish(&mut self, codec: CodecKind) -> Option<StoredFrame> {
        (!self.raw.is_empty()).then(|| self.flush(self.raw.len(), codec))
    }

    /// Encode the current frame as `raw_target` stored bytes and emit it.
    fn flush(&mut self, raw_target: usize, codec: CodecKind) -> StoredFrame {
        let offset = self.frame_start();
        self.raw.resize(raw_target, 0); // frame padding is part of the frame
        let mut stored = codec.codec().encode(&self.raw);
        debug_assert!(stored.len() <= raw_target, "codec grew a frame");
        self.lens.push(stored.len() as u32);
        stored.resize(raw_target, 0);
        let records = self
            .pending
            .drain(..)
            .map(|(id, unit1, unit2, off, len)| {
                let rel = (off - offset) as usize;
                MetaRecord {
                    id,
                    unit1,
                    unit2,
                    payload_checksum: fnv1a(&stored[rel..rel + len as usize]),
                }
            })
            .collect();
        self.raw.clear();
        StoredFrame {
            offset,
            stored,
            records,
        }
    }
}

/// Land one encoded frame: write the stored bytes at the frame's offset,
/// feed them to the node's rolling integrity hasher, mirror them to the
/// replica slots and queue the frame's metadata records. The coded twin
/// of the per-sample body in [`UploadTask::run`] — writes always carry
/// whole frames, so replicas and the integrity table see the exact stored
/// bytes (padding included).
#[allow(clippy::too_many_arguments)]
fn commit_frame(
    rt: &Runtime,
    frame: StoredFrame,
    pos: usize,
    my_nodes: &[usize],
    geometry: Option<&Arc<Vec<(u64, u64)>>>,
    row: Option<&Vec<Arc<dyn NvmeTarget>>>,
    cfg: &DlfsConfig,
    reg: Option<&Registry>,
    writers: &mut [BatchedWriter],
    mirrors: &mut [Option<BatchedWriter>],
    checks: &mut [BlockChecksums],
    records: &mut [Vec<MetaRecord>],
    verify: bool,
    import: bool,
) -> Result<(), DlfsError> {
    writers[pos].write(rt, frame.offset, &frame.stored)?;
    if verify {
        checks[pos].update(&frame.stored);
    }
    if let (Some(geometry), Some(row)) = (geometry, row) {
        let home = my_nodes[pos];
        let (home_base, _) = geometry[home];
        for r in 1..cfg.replicas as u64 {
            let peer = (home + r as usize) % geometry.len();
            let (peer_base, peer_slot) = geometry[peer];
            let off = peer_base + r * peer_slot + (frame.offset - home_base);
            let w = mirrors[peer].get_or_insert_with(|| {
                BatchedWriter::new(row[peer].clone(), peer as u16, cfg, reg)
            });
            w.write(rt, off, &frame.stored)?;
        }
    }
    if import {
        records[pos].extend(frame.records);
    }
    Ok(())
}

/// Everything one reader's upload task needs, moved into the spawn.
struct UploadTask {
    r: usize,
    /// Global storage-node ids this reader stages (n ≡ r mod readers).
    my_nodes: Vec<usize>,
    targets: Vec<Arc<dyn NvmeTarget>>,
    /// The reader's full target row, only carried when `replicas > 1`
    /// (replica mirrors land on peer nodes outside `my_nodes`).
    row: Option<Vec<Arc<dyn NvmeTarget>>>,
    /// Per storage node `(data_base, replica_slot_bytes)` when
    /// `replicas > 1`; routes each sample's mirror writes.
    geometry: Option<Arc<Vec<(u64, u64)>>>,
    /// Build per-node integrity tables while streaming (`verify_reads`).
    verify: bool,
    /// Per-node superblock drafts: `Some` = import (persist layout).
    drafts: Option<Vec<Superblock>>,
    cfg: DlfsConfig,
    pfs: Option<Link>,
    build_per_entry: Dur,
    reg: Option<Registry>,
    rx: Receiver<StagedSample>,
    credit: Sender<usize>,
}

impl UploadTask {
    /// Receive samples and write them through per-node [`BatchedWriter`]s;
    /// for imports, run the two-phase superblock commit around the data.
    /// With `replicas > 1` every sample is also mirrored to its k−1
    /// replica slots on peer nodes; with `verify_reads` a rolling
    /// [`BlockChecksums`] accumulates each node's per-block table as the
    /// stream flows — no read-back pass.
    /// On an I/O failure the task keeps draining its pipe (so the producer
    /// never blocks on a dead consumer) and reports the error at the end.
    fn run(mut self, rt: &Runtime) -> Result<UploadOutcome, DlfsError> {
        let reg = self.reg.as_ref();
        let replicas = self.cfg.replicas;
        let mut writers: Vec<BatchedWriter> = self
            .my_nodes
            .iter()
            .enumerate()
            .map(|(pos, &n)| {
                BatchedWriter::new(self.targets[pos].clone(), n as u16, &self.cfg, reg)
            })
            .collect();
        // Mirror writers, keyed by global peer node, created on demand
        // (only the peers that actually host one of my nodes' replicas).
        let storage_nodes = self.geometry.as_ref().map(|g| g.len()).unwrap_or(0);
        let mut mirrors: Vec<Option<BatchedWriter>> = (0..storage_nodes).map(|_| None).collect();
        let mut checks: Vec<BlockChecksums> = self
            .my_nodes
            .iter()
            .map(|_| BlockChecksums::new())
            .collect();
        let mut records: Vec<Vec<MetaRecord>> = vec![Vec::new(); self.my_nodes.len()];
        // Per-node frame stagers when a codec is configured: samples
        // accumulate into chunk frames that are encoded and written whole.
        let codec = self.cfg.codec;
        let coded = codec != CodecKind::Identity;
        let mut stagers: Vec<FrameStager> = if coded {
            self.my_nodes
                .iter()
                .enumerate()
                .map(|(pos, _)| {
                    let base = self.drafts.as_ref().map(|d| d[pos].data_base).unwrap_or(0);
                    FrameStager::new(base, self.cfg.chunk_size)
                })
                .collect()
        } else {
            Vec::new()
        };
        // Phase A (import only): stamp each node with the new, uncommitted
        // generation before any data lands, and invalidate the previous
        // generation's checkpoint stream head. A crash from here until the
        // committed superblock below leaves the stamps disagreeing.
        if let Some(drafts) = self.drafts.as_mut() {
            for (pos, &n) in self.my_nodes.iter().enumerate() {
                let prev = read_timed(
                    rt,
                    &self.targets[pos],
                    n as u16,
                    0,
                    BLOCK_SIZE as usize,
                    &self.cfg,
                )?;
                let prev_gen = Superblock::decode(n as u16, &prev)
                    .map(|sb| sb.generation)
                    .unwrap_or(0);
                drafts[pos].generation = prev_gen + 1;
                drafts[pos].committed = false;
                writers[pos].write(rt, 0, &drafts[pos].encode())?;
                writers[pos].write(rt, drafts[pos].ckpt_base, &[0u8; BLOCK_SIZE as usize])?;
                writers[pos].flush(rt)?;
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
            rt.work(self.build_per_entry);
            if coded {
                // The stager owns writes under a codec: a completed frame
                // is encoded and landed whole; this sample's own frame
                // flushes on a later push or at end of stream.
                if let Some(frame) = stagers[item.node_pos].push(&item, codec) {
                    if let Err(e) = commit_frame(
                        rt,
                        frame,
                        item.node_pos,
                        &self.my_nodes,
                        self.geometry.as_ref(),
                        self.row.as_ref(),
                        &self.cfg,
                        reg,
                        &mut writers,
                        &mut mirrors,
                        &mut checks,
                        &mut records,
                        self.verify,
                        self.drafts.is_some(),
                    ) {
                        failed = Some(e);
                    }
                }
                continue;
            }
            if let Err(e) = writers[item.node_pos].write(rt, item.offset, &item.bytes) {
                failed = Some(e);
                continue;
            }
            if self.verify {
                // Samples arrive per node in packed offset order, so the
                // rolling hasher sees the data region as one stream.
                checks[item.node_pos].update(&item.bytes);
            }
            if let (Some(geometry), Some(row)) = (self.geometry.as_ref(), self.row.as_ref()) {
                let home = self.my_nodes[item.node_pos];
                let (home_base, _) = geometry[home];
                for r in 1..replicas as u64 {
                    let peer = (home + r as usize) % geometry.len();
                    let (peer_base, peer_slot) = geometry[peer];
                    let off = peer_base + r * peer_slot + (item.offset - home_base);
                    let w = mirrors[peer].get_or_insert_with(|| {
                        BatchedWriter::new(row[peer].clone(), peer as u16, &self.cfg, reg)
                    });
                    if let Err(e) = w.write(rt, off, &item.bytes) {
                        failed = Some(e);
                        break;
                    }
                }
                if failed.is_some() {
                    continue;
                }
            }
            if self.drafts.is_some() {
                records[item.node_pos].push(MetaRecord {
                    id: item.id,
                    unit1: item.unit1,
                    unit2: item.unit2,
                    payload_checksum: fnv1a(&item.bytes),
                });
            }
        }
        if let Some(e) = failed {
            return Err(e);
        }
        // Under a codec the last frame of each node is still staging:
        // close it now that the stream is over.
        for (pos, stager) in stagers.iter_mut().enumerate() {
            if let Some(frame) = stager.finish(codec) {
                commit_frame(
                    rt,
                    frame,
                    pos,
                    &self.my_nodes,
                    self.geometry.as_ref(),
                    self.row.as_ref(),
                    &self.cfg,
                    reg,
                    &mut writers,
                    &mut mirrors,
                    &mut checks,
                    &mut records,
                    self.verify,
                    self.drafts.is_some(),
                )?;
            }
        }
        // Replica mirrors drain before any superblock commits. (The
        // mirrors this task wrote land on *peer* nodes whose own commit
        // runs in a different task; replica slots are best-effort spare
        // copies, not covered by the two-phase generation stamp.)
        for w in mirrors.iter_mut().flatten() {
            w.flush(rt)?;
        }
        // Finalize every node (zero-sample nodes included): drain data
        // writes; for imports, persist the integrity table and metadata,
        // and only then the committed superblock — strictly after
        // everything else is durable, which is what makes the commit
        // two-phase.
        let mut out = UploadOutcome::default();
        let mut tables: Vec<Vec<u64>> = checks.drain(..).map(|c| c.finish()).collect();
        for (pos, &n) in self.my_nodes.iter().enumerate() {
            writers[pos].flush(rt)?;
            if let Some(drafts) = self.drafts.as_mut() {
                let sb = &mut drafts[pos];
                if sb.integrity_bytes > 0 {
                    let enc = encode_integrity(&tables[pos]);
                    debug_assert_eq!(enc.len() as u64, sb.integrity_bytes);
                    if !enc.is_empty() {
                        writers[pos].write(rt, sb.integrity_base, &enc)?;
                    }
                }
                let meta = encode_meta(&records[pos]);
                debug_assert_eq!(meta.len() as u64, sb.meta_bytes);
                sb.meta_checksum = fnv1a(&meta);
                if !meta.is_empty() {
                    writers[pos].write(rt, sb.meta_base, &meta)?;
                }
                if coded {
                    // Frame-length table, persisted like the integrity
                    // table: inside the two-phase commit window.
                    let table = encode_codec_table(&stagers[pos].lens);
                    debug_assert_eq!(table.len() as u64, sb.codec_table_bytes);
                    writers[pos].write(rt, sb.codec_base(), &table)?;
                }
                writers[pos].flush(rt)?;
                sb.committed = true;
                writers[pos].write(rt, 0, &sb.encode())?;
                writers[pos].flush(rt)?;
                out.finals.push((n, sb.clone()));
            }
            if self.verify {
                out.sums.push((n, std::mem::take(&mut tables[pos])));
            }
            if coded {
                out.frames.push((n, std::mem::take(&mut stagers[pos].lens)));
            }
        }
        Ok(out)
    }
}

/// What [`stream_upload`] hands back to the mount/import drivers:
/// committed superblocks (import mode), per-node integrity tables
/// (`verify_reads`) and per-node encoded frame lengths (codec mode, keyed
/// by storage node — empty when no codec is configured).
type UploadResult = (Option<Vec<Superblock>>, Vec<Arc<Vec<u64>>>, Vec<Vec<u32>>);

/// Stage the dataset onto the devices: the caller's task produces samples
/// into bounded per-reader pipes (capacity `cfg.import_stream_depth`);
/// one spawned task per reader consumes and writes. Returns the committed
/// superblocks when `drafts` is given (import mode) and the per-node
/// integrity tables when `cfg.verify_reads` is on. `geometry` carries the
/// per-node `(data_base, replica_slot_bytes)` pairs when `replicas > 1`.
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
fn stream_upload(
    rt: &Runtime,
    deployment: &Deployment,
    dir: &Arc<SampleDirectory>,
    per_node_ids: &[Vec<u32>],
    source: &dyn SampleSource,
    cfg: &DlfsConfig,
    opts: &MountOptions,
    drafts: Option<Vec<Superblock>>,
    geometry: Option<Arc<Vec<(u64, u64)>>>,
) -> Result<UploadResult, DlfsError> {
    let readers = deployment.targets.len();
    let storage_nodes = per_node_ids.len();
    let import = drafts.is_some();
    let depth = cfg.import_stream_depth;
    let (credit_tx, credit_rx) = rt.channel::<usize>(None);
    let mut senders: Vec<Option<Sender<StagedSample>>> = Vec::with_capacity(readers);
    // (node_pos, id) per reader, in node order then placement order — the
    // order that keeps each node's writes contiguous for coalescing.
    let mut items: Vec<Vec<(usize, u32)>> = vec![Vec::new(); readers];
    let mut handles = Vec::with_capacity(readers);
    for (r, reader_items) in items.iter_mut().enumerate() {
        let my_nodes: Vec<usize> = (0..storage_nodes).filter(|n| n % readers == r).collect();
        for (pos, &n) in my_nodes.iter().enumerate() {
            reader_items.extend(per_node_ids[n].iter().map(|&id| (pos, id)));
        }
        let (tx, rx) = rt.channel::<StagedSample>(Some(depth));
        senders.push(Some(tx));
        let task = UploadTask {
            r,
            targets: my_nodes
                .iter()
                .map(|&n| deployment.targets[r][n].clone())
                .collect(),
            row: (cfg.replicas > 1).then(|| deployment.targets[r].clone()),
            geometry: geometry.clone(),
            verify: cfg.verify_reads,
            drafts: drafts
                .as_ref()
                .map(|d| my_nodes.iter().map(|&n| d[n].clone()).collect()),
            my_nodes,
            cfg: cfg.clone(),
            pfs: opts.pfs.clone(),
            build_per_entry: opts.build_per_entry,
            reg: opts.telemetry.clone(),
            rx,
            credit: credit_tx.clone(),
        };
        handles.push(rt.spawn_with(&format!("dlfs-mount-r{r}"), move |rt| task.run(rt)));
    }
    drop(credit_tx);
    // Produce: fill every pipe to its bound, then send one sample per
    // returned credit. Memory in flight is bounded by depth × readers.
    let mut cursor = vec![0usize; readers];
    let stage = |r: usize, cursor: &mut [usize]| -> Option<StagedSample> {
        let &(node_pos, id) = items[r].get(cursor[r])?;
        cursor[r] += 1;
        let e = dir.entry(id);
        let mut bytes = vec![0u8; e.len() as usize];
        source.fill(id, &mut bytes);
        let (unit1, unit2) = e.raw();
        Some(StagedSample {
            node_pos,
            id,
            unit1,
            unit2,
            offset: e.offset(),
            bytes,
        })
    };
    // An upload task can die before draining its pipe (its Phase A
    // superblock read hit a dead device, say). That surfaces here as a
    // failed send or a closed credit channel — both mean "stop producing
    // to that pipe and let the join below report the worker's own error",
    // not a panic: the mount must fail typed when a device is down.
    let mut aborted = false;
    for r in 0..readers {
        for _ in 0..depth {
            match stage(r, &mut cursor) {
                Some(s) => {
                    if senders[r].as_ref().expect("sender live").send(s).is_err() {
                        senders[r] = None; // worker died; its join says why
                        aborted = true;
                        break;
                    }
                }
                None => break,
            }
        }
        if cursor[r] == items[r].len() {
            senders[r] = None; // close: lets the consumer finalize
        }
    }
    while senders.iter().any(|s| s.is_some()) {
        let Ok(r) = credit_rx.recv() else {
            aborted = true; // every worker is gone: nothing left to feed
            break;
        };
        let Some(sender) = senders[r].as_ref() else {
            continue; // residual credit from a pipe already closed
        };
        if let Some(s) = stage(r, &mut cursor) {
            if sender.send(s).is_err() {
                senders[r] = None;
                aborted = true;
                continue;
            }
        }
        if cursor[r] == items[r].len() {
            senders[r] = None;
        }
    }
    drop(senders);
    let results: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
    let mut finals: Vec<Option<Superblock>> = (0..storage_nodes).map(|_| None).collect();
    let mut sums: Vec<Arc<Vec<u64>>> = Vec::new();
    if cfg.verify_reads {
        sums = (0..storage_nodes).map(|_| Arc::new(Vec::new())).collect();
    }
    let mut frames: Vec<Vec<u32>> = Vec::new();
    if cfg.codec != CodecKind::Identity {
        frames = (0..storage_nodes).map(|_| Vec::new()).collect();
    }
    let mut first_err = None;
    for res in results {
        match res {
            Ok(out) => {
                for (n, sb) in out.finals {
                    finals[n] = Some(sb);
                }
                for (n, table) in out.sums {
                    sums[n] = Arc::new(table);
                }
                for (n, lens) in out.frames {
                    frames[n] = lens;
                }
            }
            Err(e) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    if aborted {
        return Err(DlfsError::Deployment(
            "import upload worker died without reporting an error".into(),
        ));
    }
    let finals = if import {
        let mut committed = Vec::with_capacity(storage_nodes);
        for (n, o) in finals.into_iter().enumerate() {
            let Some(sb) = o else {
                return Err(DlfsError::Deployment(format!(
                    "import finished without committing storage node {n}"
                )));
            };
            committed.push(sb);
        }
        Some(committed)
    } else {
        None
    };
    Ok((finals, sums, frames))
}

/// Charge the mount-time allgather: every reader ships its nodes' trees to
/// every other reader, then merges (functionally the directory is already
/// complete; this charges the network + merge time the collective takes).
fn allgather(
    rt: &Runtime,
    deployment: &Deployment,
    dir: &Arc<SampleDirectory>,
    opts: &MountOptions,
    readers: usize,
    storage_nodes: usize,
) {
    if let Some(cluster) = &deployment.cluster {
        if readers > 1 {
            let mut latest = rt.now();
            for src in 0..readers.min(storage_nodes) {
                let bytes: u64 = (0..storage_nodes)
                    .filter(|n| n % readers == src)
                    .map(|n| dir.tree_wire_bytes(n as u16))
                    .sum();
                for dst in 0..readers {
                    if dst != src {
                        latest = latest.max(cluster.reserve_transfer(rt.now(), src, dst, bytes));
                    }
                }
            }
            let now = rt.now();
            if latest > now {
                rt.sleep(latest - now);
            }
            // Merge cost: every reader integrates the other nodes' entries.
            rt.work(opts.merge_per_entry * dir.len() as u64);
        }
    }
}

/// Per-reader runtime state (caches, copy pools) for a finished mount.
fn build_instance(
    rt: &Runtime,
    deployment: &Deployment,
    dir: Arc<SampleDirectory>,
    cfg: DlfsConfig,
    layouts: Option<Arc<Vec<Superblock>>>,
    redundancy: Option<Arc<Redundancy>>,
    codec: Option<Arc<CodecTables>>,
) -> DlfsInstance {
    let readers = deployment.targets.len();
    let qos = cfg
        .qos
        .as_ref()
        .map(|q| crate::tenant::TenantQos::new(q, dir.avg_sample_bytes()));
    let shared = (0..readers)
        .map(|r| {
            let cache = Arc::new(SampleCache::with_mode(
                cfg.chunk_size as usize,
                cfg.pool_chunks,
                cfg.cache_mode,
            ));
            let copy = CopyPool::spawn(rt, &format!("dlfs-r{r}"), cfg.copy_threads, &cfg.costs);
            Arc::new(DlfsShared {
                cfg: cfg.clone(),
                dir: dir.clone(),
                cache,
                copy,
                targets: deployment.targets[r].clone(),
                reader_id: r,
                readers,
                layouts: layouts.clone(),
                redundancy: redundancy.clone(),
                codec: codec.clone(),
                tenant: 0,
                qos: qos.clone(),
            })
        })
        .collect();
    DlfsInstance {
        dir,
        shared,
        layouts,
        redundancy,
    }
}

/// Per-node `(data_base, replica_slot_bytes)` for an *ephemeral* mount:
/// there is no on-device layout, so slot `r` of a node's device simply
/// starts at `r * slot_bytes`, with the device split into `replicas`
/// chunk-aligned slots. Checks every home share fits each slot that will
/// host one of its copies.
fn volatile_geometry(
    deployment: &Deployment,
    cfg: &DlfsConfig,
    node_bytes: &[u64],
) -> Result<Vec<(u64, u64)>, DlfsError> {
    let k = cfg.replicas as u64;
    let n = node_bytes.len();
    let slots: Vec<(u64, u64)> = (0..n)
        .map(|nid| {
            let device = deployment.targets[0][nid].blocks() * BLOCK_SIZE;
            let slot = if k == 1 {
                device
            } else {
                device / k / cfg.chunk_size * cfg.chunk_size
            };
            (0u64, slot)
        })
        .collect();
    for (h, &need) in node_bytes.iter().enumerate() {
        for r in 0..cfg.replicas {
            let p = (h + r) % n;
            if need > slots[p].1 {
                return Err(DlfsError::Capacity {
                    node: p as u16,
                    need,
                    have: slots[p].1,
                });
            }
        }
    }
    Ok(slots)
}

/// `replicas` must not exceed the deployment's storage nodes (replica `r`
/// of home `h` lives on node `(h + r) mod N`; more copies than nodes
/// would fold two copies onto one device).
fn check_replica_count(cfg: &DlfsConfig, storage_nodes: usize) -> Result<(), DlfsError> {
    if cfg.replicas > storage_nodes {
        return Err(DlfsError::Config(format!(
            "replicas = {} exceeds the {storage_nodes} storage node(s) in the deployment",
            cfg.replicas
        )));
    }
    Ok(())
}

/// Perform the collective mount. Returns the instance once every reader
/// has finished loading and the allgather completed. The devices hold
/// Layer the cluster membership view onto a freshly built [`Redundancy`]
/// when the configuration asked for failure detection
/// ([`crate::DlfsConfig::fail_dead_after`]); the plain circuit-breaker
/// behavior is untouched otherwise.
fn apply_membership(red: Redundancy, cfg: &DlfsConfig) -> Redundancy {
    match cfg.fail_dead_after {
        Some(dead_after) => red.with_membership(dead_after),
        None => red,
    }
}

/// raw sample data with no persistent layout; use the builder's
/// `.persistent()` for a layout a later job can remount warm.
fn mount_impl(
    rt: &Runtime,
    deployment: Deployment,
    source: &dyn SampleSource,
    cfg: DlfsConfig,
    opts: MountOptions,
) -> Result<DlfsInstance, DlfsError> {
    cfg.validate().map_err(DlfsError::Config)?;
    let (readers, storage_nodes) = validate_deployment(&deployment)?;
    check_replica_count(&cfg, storage_nodes)?;
    let frame = (cfg.codec != CodecKind::Identity).then_some(cfg.chunk_size);
    let (dir, per_node_ids, node_bytes) =
        plan_placement(source, storage_nodes, &vec![0u64; storage_nodes], frame)?;
    for (nid, &need) in node_bytes.iter().enumerate() {
        let have = deployment.targets[0][nid].blocks() * BLOCK_SIZE;
        if need > have {
            return Err(DlfsError::Capacity {
                node: nid as u16,
                need,
                have,
            });
        }
    }
    let geometry = (cfg.replicas > 1 || cfg.verify_reads)
        .then(|| volatile_geometry(&deployment, &cfg, &node_bytes))
        .transpose()?
        .map(Arc::new);
    let (_, sums, frames) = stream_upload(
        rt,
        &deployment,
        &dir,
        &per_node_ids,
        source,
        &cfg,
        &opts,
        None,
        geometry.clone(),
    )?;
    allgather(rt, &deployment, &dir, &opts, readers, storage_nodes);
    let redundancy = geometry.map(|g| {
        Arc::new(apply_membership(
            Redundancy::new(cfg.replicas as u32, (*g).clone(), sums),
            &cfg,
        ))
    });
    let codec = (cfg.codec != CodecKind::Identity).then(|| {
        Arc::new(CodecTables {
            kind: cfg.codec,
            per_node: frames
                .into_iter()
                .zip(&node_bytes)
                .map(|(lens, &data_len)| NodeFrames {
                    base: 0,
                    data_len,
                    lens,
                })
                .collect(),
        })
    });
    Ok(build_instance(
        rt,
        &deployment,
        dir,
        cfg,
        None,
        redundancy,
        codec,
    ))
}

/// Stage the dataset *and* persist the on-device layout: superblock,
/// serialized sample metadata, checksummed data extents and an empty
/// checkpoint region per device. Costs one staging pass like an ephemeral
/// mount; every later job start can use [`MountBuilder::remount`] instead
/// and skip the PFS entirely. The commit is two-phase per device — a crash mid-import
/// leaves a torn generation stamp that `remount` rejects with
/// [`LayoutError::TornImport`], never silently serving partial data.
fn import_impl(
    rt: &Runtime,
    deployment: Deployment,
    source: &dyn SampleSource,
    cfg: DlfsConfig,
    opts: MountOptions,
) -> Result<DlfsInstance, DlfsError> {
    cfg.validate().map_err(DlfsError::Config)?;
    let (readers, storage_nodes) = validate_deployment(&deployment)?;
    check_replica_count(&cfg, storage_nodes)?;
    let frame = (cfg.codec != CodecKind::Identity).then_some(cfg.chunk_size);
    let shares = node_shares(source, storage_nodes, frame)?;
    let total = source.count() as u64;
    let stamp = layout::dataset_stamp(total, &shares);
    let mut drafts = Vec::with_capacity(storage_nodes);
    for (n, &(count, bytes)) in shares.iter().enumerate() {
        let device_bytes = deployment.targets[0][n].blocks() * BLOCK_SIZE;
        let mut sb = Superblock::plan_coded(
            n as u16,
            storage_nodes as u32,
            total,
            count,
            bytes,
            device_bytes,
            cfg.chunk_size,
            cfg.ckpt_region_bytes,
            cfg.replicas as u32,
            cfg.verify_reads,
            cfg.codec,
        )?;
        sb.dataset_stamp = stamp;
        drafts.push(sb);
    }
    let data_base: Vec<u64> = drafts.iter().map(|sb| sb.data_base).collect();
    let geometry = (cfg.replicas > 1).then(|| {
        Arc::new(
            drafts
                .iter()
                .map(|sb| (sb.data_base, sb.replica_slot_bytes))
                .collect::<Vec<_>>(),
        )
    });
    let (dir, per_node_ids, _) = plan_placement(source, storage_nodes, &data_base, frame)?;
    let (finals, sums, frames) = stream_upload(
        rt,
        &deployment,
        &dir,
        &per_node_ids,
        source,
        &cfg,
        &opts,
        Some(drafts),
        geometry,
    )?;
    let finals = finals.expect("import returns superblocks");
    allgather(rt, &deployment, &dir, &opts, readers, storage_nodes);
    let redundancy = (cfg.replicas > 1 || cfg.verify_reads).then(|| {
        let slots = finals
            .iter()
            .map(|sb| (sb.data_base, sb.replica_slot_bytes))
            .collect();
        Arc::new(apply_membership(
            Redundancy::new(cfg.replicas as u32, slots, sums),
            &cfg,
        ))
    });
    let codec = (cfg.codec != CodecKind::Identity).then(|| {
        Arc::new(CodecTables {
            kind: cfg.codec,
            per_node: frames
                .into_iter()
                .zip(&finals)
                .map(|(lens, sb)| NodeFrames {
                    base: sb.data_base,
                    data_len: sb.data_bytes,
                    lens,
                })
                .collect(),
        })
    });
    Ok(build_instance(
        rt,
        &deployment,
        dir,
        cfg,
        Some(Arc::new(finals)),
        redundancy,
        codec,
    ))
}

/// The warm path: rebuild the sample directory from the devices' own
/// metadata regions — zero PFS traffic, zero data-region writes. Every
/// reader reads and verifies the superblocks + metadata of its share of
/// nodes (n ≡ r mod readers), the directory is rebuilt from the
/// serialized entries, and the usual allgather is charged. Rejects torn
/// imports, checksum mismatches and devices mixed from different imports
/// with typed [`LayoutError`]s.
fn remount_impl(
    rt: &Runtime,
    deployment: Deployment,
    cfg: DlfsConfig,
    opts: MountOptions,
) -> Result<DlfsInstance, DlfsError> {
    cfg.validate().map_err(DlfsError::Config)?;
    let (readers, storage_nodes) = validate_deployment(&deployment)?;
    let tel = RemountTelemetry::new(opts.telemetry.as_ref());
    let mut handles = Vec::with_capacity(readers);
    for r in 0..readers {
        let my_nodes: Vec<usize> = (0..storage_nodes).filter(|n| n % readers == r).collect();
        let targets: Vec<Arc<dyn NvmeTarget>> = my_nodes
            .iter()
            .map(|&n| deployment.targets[r][n].clone())
            .collect();
        let cfg = cfg.clone();
        let build_per_entry = opts.build_per_entry;
        let tel = tel.clone();
        handles.push(rt.spawn_with(&format!("dlfs-remount-r{r}"), move |rt| {
            read_node_metadata(rt, &my_nodes, &targets, &cfg, build_per_entry, &tel)
        }));
    }
    let results: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
    #[allow(clippy::type_complexity)]
    let mut per_node: Vec<Option<(Superblock, Vec<MetaRecord>, Vec<u64>, Vec<u32>)>> =
        (0..storage_nodes).map(|_| None).collect();
    let mut first_err = None;
    for res in results {
        match res {
            Ok(list) => {
                for (n, sb, recs, sums, lens) in list {
                    per_node[n] = Some((sb, recs, sums, lens));
                }
            }
            Err(e) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    #[allow(clippy::type_complexity)]
    let nodes: Vec<(Superblock, Vec<MetaRecord>, Vec<u64>, Vec<u32>)> = per_node
        .into_iter()
        .map(|o| o.expect("every node read"))
        .collect();
    // Cross-node consistency: all devices must come from one import of
    // one dataset, shaped for this deployment.
    let total = nodes[0].0.total_samples;
    let stamp = nodes[0].0.dataset_stamp;
    let replicas = nodes[0].0.replicas;
    let codec = nodes[0].0.codec;
    let mut sum = 0u64;
    for (n, (sb, recs, _, _)) in nodes.iter().enumerate() {
        if sb.storage_nodes != storage_nodes as u32 {
            return Err(LayoutError::Inconsistent(format!(
                "node {n} was imported for {} storage nodes, deployment has {storage_nodes}",
                sb.storage_nodes
            ))
            .into());
        }
        if sb.total_samples != total
            || sb.dataset_stamp != stamp
            || sb.replicas != replicas
            || sb.codec != codec
        {
            return Err(LayoutError::Inconsistent(format!(
                "node {n} belongs to a different import than node 0"
            ))
            .into());
        }
        if sb.node_samples != recs.len() as u64 {
            return Err(LayoutError::Inconsistent(format!(
                "node {n} superblock claims {} samples, metadata holds {}",
                sb.node_samples,
                recs.len()
            ))
            .into());
        }
        if cfg.verify_reads && sb.integrity_bytes == 0 {
            return Err(LayoutError::Inconsistent(format!(
                "verify_reads needs an integrity table, but node {n} was imported without one \
                 (re-import with verify_reads on)"
            ))
            .into());
        }
        sum += sb.node_samples;
    }
    if cfg.replicas > 1 && cfg.replicas as u32 != replicas {
        return Err(LayoutError::Inconsistent(format!(
            "config asks for {} replicas, devices were imported with {replicas}",
            cfg.replicas
        ))
        .into());
    }
    // The on-device codec wins only if the config agrees: decoding with
    // the wrong codec would serve garbage, so mismatches are typed errors
    // (re-import, or set `cfg.codec` to what the devices hold).
    if cfg.codec != codec {
        return Err(LayoutError::Inconsistent(format!(
            "config asks for codec {}, devices were imported with {codec}",
            cfg.codec
        ))
        .into());
    }
    if sum != total || total > u32::MAX as u64 {
        return Err(LayoutError::Inconsistent(format!(
            "per-node sample counts sum to {sum}, superblocks claim {total}"
        ))
        .into());
    }
    let mut builder = DirectoryBuilder::new(storage_nodes, total as usize)?;
    for (_, recs, _, _) in &nodes {
        for rec in recs {
            builder.add_raw(rec.id, rec.unit1, rec.unit2)?;
        }
    }
    let dir = Arc::new(builder.finish()?);
    allgather(rt, &deployment, &dir, &opts, readers, storage_nodes);
    let redundancy = (replicas > 1 || cfg.verify_reads).then(|| {
        let slots = nodes
            .iter()
            .map(|(sb, _, _, _)| (sb.data_base, sb.replica_slot_bytes))
            .collect();
        let sums = if cfg.verify_reads {
            nodes
                .iter()
                .map(|(_, _, s, _)| Arc::new(s.clone()))
                .collect()
        } else {
            Vec::new()
        };
        Arc::new(apply_membership(
            Redundancy::new(replicas, slots, sums),
            &cfg,
        ))
    });
    let codec_tables = (codec != CodecKind::Identity).then(|| {
        Arc::new(CodecTables {
            kind: codec,
            per_node: nodes
                .iter()
                .map(|(sb, _, _, lens)| NodeFrames {
                    base: sb.data_base,
                    data_len: sb.data_bytes,
                    lens: lens.clone(),
                })
                .collect(),
        })
    });
    let layouts: Vec<Superblock> = nodes.into_iter().map(|(sb, _, _, _)| sb).collect();
    Ok(build_instance(
        rt,
        &deployment,
        dir,
        cfg,
        Some(Arc::new(layouts)),
        redundancy,
        codec_tables,
    ))
}

/// Counters under `dlfs.remount.*` (throwaway registry by default).
#[derive(Clone)]
struct RemountTelemetry {
    superblocks: Counter,
    meta_bytes: Counter,
    entries: Counter,
}

impl RemountTelemetry {
    fn new(reg: Option<&Registry>) -> RemountTelemetry {
        let scope = crate::scoped_or_detached(reg, "dlfs.remount");
        RemountTelemetry {
            superblocks: scope.counter("superblocks"),
            meta_bytes: scope.counter("meta_bytes"),
            entries: scope.counter("entries"),
        }
    }
}

/// One reader's share of the remount: read + verify each of its nodes'
/// superblock and metadata region (timed reads through qpairs), plus the
/// persisted per-block integrity table when `cfg.verify_reads` asks for
/// checksummed reads (skipped otherwise, keeping the default remount's
/// timing untouched).
#[allow(clippy::type_complexity)]
fn read_node_metadata(
    rt: &Runtime,
    my_nodes: &[usize],
    targets: &[Arc<dyn NvmeTarget>],
    cfg: &DlfsConfig,
    build_per_entry: Dur,
    tel: &RemountTelemetry,
) -> Result<Vec<(usize, Superblock, Vec<MetaRecord>, Vec<u64>, Vec<u32>)>, DlfsError> {
    let mut out = Vec::with_capacity(my_nodes.len());
    for (pos, &n) in my_nodes.iter().enumerate() {
        let block = read_timed(rt, &targets[pos], n as u16, 0, BLOCK_SIZE as usize, cfg)?;
        let sb = Superblock::decode(n as u16, &block).map_err(DlfsError::Layout)?;
        if !sb.committed {
            return Err(LayoutError::TornImport {
                node: n as u16,
                generation: sb.generation,
            }
            .into());
        }
        tel.superblocks.inc();
        let meta = read_timed(
            rt,
            &targets[pos],
            n as u16,
            sb.meta_base,
            sb.meta_bytes as usize,
            cfg,
        )?;
        if fnv1a(&meta) != sb.meta_checksum {
            return Err(LayoutError::ChecksumMismatch {
                node: n as u16,
                region: "metadata",
            }
            .into());
        }
        let records = decode_meta(n as u16, &meta).map_err(DlfsError::Layout)?;
        tel.meta_bytes.add(meta.len() as u64);
        tel.entries.add(records.len() as u64);
        let sums = if cfg.verify_reads && sb.integrity_bytes > 0 {
            let raw = read_timed(
                rt,
                &targets[pos],
                n as u16,
                sb.integrity_base,
                sb.integrity_bytes as usize,
                cfg,
            )?;
            decode_integrity(&raw)
        } else {
            Vec::new()
        };
        // The per-frame encoded-length table, when the import was coded
        // (self-checksummed; a stale or torn table is caught here, before
        // any data read would decode garbage).
        let lens = if sb.codec != CodecKind::Identity {
            let raw = read_timed(
                rt,
                &targets[pos],
                n as u16,
                sb.codec_base(),
                sb.codec_table_bytes as usize,
                cfg,
            )?;
            decode_codec_table(n as u16, &raw).map_err(DlfsError::Layout)?
        } else {
            Vec::new()
        };
        // Rebuilding the AVL trees costs the same per-entry insert work as
        // building them from names at mount time.
        rt.work(build_per_entry * records.len() as u64);
        out.push((n, sb, records, sums, lens));
    }
    Ok(out)
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
    opts: MountOptions,
    persistent: bool,
    warm: bool,
    faults: Option<fabric::FabricFaultInjector>,
    default_tenant: crate::tenant::TenantId,
}

impl MountBuilder {
    /// Start a builder for the given configuration.
    pub fn new(cfg: DlfsConfig) -> MountBuilder {
        MountBuilder {
            cfg,
            deployment: None,
            opts: MountOptions::default(),
            persistent: false,
            warm: false,
            faults: None,
            default_tenant: 0,
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

    /// Replace the mount-time tuning knobs wholesale.
    pub fn options(mut self, opts: MountOptions) -> MountBuilder {
        self.opts = opts;
        self
    }

    /// Charge dataset staging against this shared PFS link.
    pub fn pfs(mut self, link: Link) -> MountBuilder {
        self.opts.pfs = Some(link);
        self
    }

    /// Record mount-time counters (`dlfs.write.*`, `dlfs.remount.*`) into
    /// `reg` instead of a throwaway registry.
    pub fn with_registry(mut self, reg: Registry) -> MountBuilder {
        self.opts.telemetry = Some(reg);
        self
    }

    /// Arm the deployment's fabric with this fault injector before any
    /// mount traffic flows. Requires a clustered deployment.
    pub fn with_faults(mut self, injector: fabric::FabricFaultInjector) -> MountBuilder {
        self.faults = Some(injector);
        self
    }

    /// Default tenant of the mounted instance's plain [`DlfsInstance::io`]
    /// handles (per-request override: [`crate::ReadRequest::tenant`];
    /// per-handle: [`DlfsInstance::io_tenant`]). Only meaningful with
    /// [`DlfsConfig::qos`] set; the implicit default is tenant 0.
    pub fn tenant(mut self, tenant: crate::tenant::TenantId) -> MountBuilder {
        self.default_tenant = tenant;
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

    fn take_deployment(&mut self) -> Result<Deployment, DlfsError> {
        let deployment = self.deployment.take().ok_or_else(|| {
            DlfsError::Deployment("MountBuilder needs .local() or .deployment()".into())
        })?;
        if let Some(injector) = self.faults.take() {
            match &deployment.cluster {
                Some(cluster) => {
                    cluster.set_faults(injector);
                }
                None => {
                    return Err(DlfsError::Deployment(
                        "with_faults() needs a clustered deployment".into(),
                    ))
                }
            }
        }
        Ok(deployment)
    }

    /// Cold path: stage `source` onto the devices (and persist the
    /// layout when [`persistent`](MountBuilder::persistent) was set).
    pub fn mount(
        mut self,
        rt: &Runtime,
        source: &dyn SampleSource,
    ) -> Result<DlfsInstance, DlfsError> {
        if self.warm {
            return Err(DlfsError::Deployment(
                "warm() reads the on-device layout and takes no source; use remount()".into(),
            ));
        }
        let deployment = self.take_deployment()?;
        let inst = if self.persistent {
            import_impl(rt, deployment, source, self.cfg, self.opts)
        } else {
            mount_impl(rt, deployment, source, self.cfg, self.opts)
        }?;
        Ok(inst.with_default_tenant(self.default_tenant))
    }

    /// Warm path: rebuild the directory from the devices' own metadata
    /// regions — zero PFS traffic, zero data-region writes.
    pub fn remount(mut self, rt: &Runtime) -> Result<DlfsInstance, DlfsError> {
        let deployment = self.take_deployment()?;
        Ok(remount_impl(rt, deployment, self.cfg, self.opts)?
            .with_default_tenant(self.default_tenant))
    }
}
