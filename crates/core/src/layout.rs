//! The on-device persistent layout.
//!
//! The paper's `dlfs_mount` rebuilds everything from the PFS at every job
//! start; this module gives DLFS a durable format so an imported dataset
//! survives job restarts (`remount` skips staging entirely) and training
//! jobs get a write workload (the checkpoint region). Everything here is a
//! pure *client* of the block API — `blocksim` knows nothing about the
//! format.
//!
//! Per-device layout (all offsets in bytes, all regions block-aligned):
//!
//! ```text
//! ┌──────────────┬───────────────────────┬──────────────────┬────────────┐
//! │ superblock   │ sample metadata       │ sample data      │ checkpoint │
//! │ (block 0)    │ (28 B / sample + crc) │ (chunk-aligned)  │ stream     │
//! └──────────────┴───────────────────────┴──────────────────┴────────────┘
//! 0              meta_base               data_base          ckpt_base
//! ```
//!
//! **Two-phase commit.** `import` first writes the superblock with the new
//! generation in the *head* stamp only (`generation_tail = 0`), stages data
//! and metadata, then rewrites the superblock with both stamps equal. A
//! crash anywhere in between leaves the stamps disagreeing, `remount`
//! refuses with [`LayoutError::TornImport`], and a fresh `import` repairs
//! the device. A 512 B superblock write is atomic at block granularity, so
//! there is no window where the superblock itself is half-written.
//!
//! **Versions.** A coded import (a codec other than `Identity`) writes
//! version 3: its frames' encoded bytes lie back to back from `data_base`,
//! packed to the byte ([`crate::codec`]), the superblock records the frame
//! size (`chunk_size`), and the integrity table covers the stored blocks
//! only. An uncoded import writes version 1, the same layout it always had
//! — no frames, nothing to record — so its device image is byte-identical
//! to earlier builds'. Older coded layouts — version 1 naming a codec
//! (frames at their raw chunk offsets) and version 2 (frames rounded to
//! whole blocks) — are refused with [`LayoutError::Version`].
//!
//! **One planner, one committer, one loader, one judge.** [`plan_nodes`]
//! sizes and places every node of a bring-up — through
//! [`Superblock::plan`] when persisting (an integrity table after the
//! metadata with `verify_reads`, a codec table before `data_base` with a
//! codec, `replicas` slots inside the data region), from byte 0 when not —
//! and holds it to the one fit rule ([`check_fit`]): each home's share fits
//! every slot hosting one of its copies, whose host [`replica_host`] names.
//! [`Superblock::stamp_writes`] and [`Superblock::commit_writes`] are the
//! only code that encodes a node's regions, for the import and the
//! rebuild's restore alike. [`load_node`] is the only code that reads them
//! back, and makes every check of one node: `remount` drives it with timed
//! reads, [`fsck_node`] and [`fsck_repair`] with `read_untimed`.
//! [`check_import`] makes every check between nodes, or between a node and
//! the deployment or the config: one import identity
//! ([`Superblock::import_id`], which `fsck_repair` shares) and the fit rule
//! again. So a device fsck reports `Clean` is a device `remount` accepts,
//! by construction, unless the judge refuses it for what one device cannot
//! see. A checkpoint region may be empty (`ckpt_region_bytes: 0`): the
//! commit then writes no stream head.
//!
//! **Checkpoint records** are self-describing: a one-block header (magic,
//! generation, sequence number, payload length + checksum) followed by the
//! block-padded payload. The header is written *after* the payload, so a
//! torn append leaves an invalid header and the reader simply sees the
//! stream end one record earlier.

use std::sync::Arc;

use blocksim::{covering_blocks, NvmeTarget, BLOCK_SIZE};
use simkit::rng::fnv1a;

use crate::codec::{stored_blocks, CodecKind, Frame, NodeFrames};
use crate::config::DlfsConfig;
use crate::entry::{SampleEntry, MAX_OFFSET};
use crate::error::{CorruptCause, DlfsError, LayoutError};
use crate::integrity::Redundancy;

/// Superblock magic ("DLFSLAY1" little-endian).
pub const SUPERBLOCK_MAGIC: u64 = 0x3159_414c_5346_4c44;

/// Checkpoint record header magic ("DLFSCKP1").
pub const CKPT_MAGIC: u64 = 0x3150_4b43_5346_4c44;

/// On-device format version of a coded import (module doc); an uncoded
/// import is written, and read, as version 1.
pub const LAYOUT_VERSION: u32 = 3;

/// Serialized size of one sample metadata record: id (4) + unit1 (8) +
/// unit2 (8) + payload checksum (8).
pub const META_RECORD_BYTES: u64 = 28;

/// Checkpoint record header size (one block; the payload follows).
pub const CKPT_HEADER_BYTES: u64 = BLOCK_SIZE;

/// Where the superblock checksum sits (it covers every byte before it): a
/// coded layout puts `chunk_size` where version 1 put the checksum.
const SB_CHECKSUM_AT: usize = 160;
const SB_CODED_CHECKSUM_AT: usize = 168;

/// One sample's serialized directory entry plus a content checksum over
/// its payload (verified by deep fsck and the roundtrip tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetaRecord {
    pub id: u32,
    /// `SampleEntry` unit 1 (NID | key).
    pub unit1: u64,
    /// `SampleEntry` unit 2 with the volatile V bit masked off.
    pub unit2: u64,
    /// FNV-1a of the sample payload as staged at import time.
    pub payload_checksum: u64,
}

impl MetaRecord {
    /// The record of sample `id` at `entry`, checksummed over `stored` —
    /// the bytes the device holds for it.
    pub fn new(id: u32, entry: SampleEntry, stored: &[u8]) -> MetaRecord {
        let (unit1, unit2) = entry.raw();
        MetaRecord {
            id,
            unit1,
            unit2,
            payload_checksum: fnv1a(stored),
        }
    }
}

/// The per-device superblock: geometry + generation stamps. This is also
/// the in-memory handle a persistent [`crate::DlfsInstance`] keeps per
/// storage node (checkpoint streams are opened against it).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Superblock {
    pub node_id: u16,
    pub storage_nodes: u32,
    /// Import generation; bumped by every `import` of this device.
    pub generation: u64,
    /// Both generation stamps matched when this superblock was decoded
    /// (encode writes the tail stamp only when asked to commit).
    pub committed: bool,
    /// Samples placed on this device.
    pub node_samples: u64,
    /// Samples across the whole dataset.
    pub total_samples: u64,
    pub meta_base: u64,
    /// Serialized metadata length (`META_RECORD_BYTES` × samples).
    pub meta_bytes: u64,
    pub meta_checksum: u64,
    /// Chunk-aligned start of the sample data region.
    pub data_base: u64,
    /// Payload bytes actually staged.
    pub data_bytes: u64,
    /// Bytes available between `data_base` and `ckpt_base`.
    pub data_capacity: u64,
    pub ckpt_base: u64,
    pub ckpt_capacity: u64,
    /// Hash of the global placement (per-node sample counts and byte
    /// totals). Identical on every device of one import, so `remount`
    /// detects devices mixed from different imports.
    pub dataset_stamp: u64,
    /// Replication factor of the import (k-way; 1 = unreplicated).
    pub replicas: u32,
    /// Stride between replica slots inside the data region. Slot 0 holds
    /// this node's own samples; slot `r` holds the r-th replica of node
    /// `(node_id - r) mod storage_nodes`'s samples at the same relative
    /// offsets. With `replicas == 1` this is simply `data_capacity`.
    pub replica_slot_bytes: u64,
    /// Start of the per-block integrity table (0 when absent).
    pub integrity_base: u64,
    /// Serialized integrity table length: one FNV-1a word per 512 B block
    /// of staged data (0 when the import was taken without `verify_reads`).
    pub integrity_bytes: u64,
    /// Per-chunk codec the data region was staged with. Pre-codec imports
    /// carry a zeroed field and decode as [`CodecKind::Identity`].
    pub codec: CodecKind,
    /// Serialized per-frame encoded-length table (0 under `Identity`);
    /// the table region sits at [`Superblock::codec_base`].
    pub codec_table_bytes: u64,
    /// Frame size of a coded import (version 3); 0 on an uncoded one,
    /// whose layout does not depend on it.
    pub chunk_size: u64,
}

fn put_u32(b: &mut [u8], at: usize, v: u32) {
    b[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

fn put_u64(b: &mut [u8], at: usize, v: u64) {
    b[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

/// The little-endian word at `at` of `b`; `None` past its end.
fn get_u32(b: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(b.get(at..at + 4)?.try_into().ok()?))
}

fn get_u64(b: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(b.get(at..at + 8)?.try_into().ok()?))
}

impl Superblock {
    /// Plan the geometry for storage node `node_id`'s device of
    /// `device_bytes`, holding `share = (samples, data bytes)` of a
    /// `total_samples` dataset spread over `storage_nodes` nodes. `cfg`
    /// supplies the rest: `chunk_size` (data and replica slots are
    /// chunk-aligned), a checkpoint region of (about) `ckpt_region_bytes`
    /// at the end of the device, `replicas`-way chunk replication (the
    /// data region is split into `replicas` slots; slot 0 is this node's
    /// own data, slot `r` mirrors the node `r` places counter-clockwise),
    /// with `verify_reads` a table of one FNV-1a word per 512 B data block
    /// after the metadata region (sized for the raw data; a coded import
    /// fills only the words of its stored blocks and records that length
    /// at commit), and with a codec a block-aligned
    /// per-frame encoded-length table (one `u32` per chunk frame plus a
    /// trailing checksum word) before `data_base`. Regions a feature does
    /// not need take no space: with `ckpt_region_bytes: 0` the checkpoint
    /// region is empty and `ckpt_base` is the device's end. Only the whole
    /// device is checked here; whether every copy fits the slot hosting it
    /// is `plan_nodes`'s fit rule. Generation and metadata checksum are
    /// filled in during import.
    pub fn plan(
        node_id: u16,
        storage_nodes: u32,
        total_samples: u64,
        (node_samples, data_bytes): (u64, u64),
        device_bytes: u64,
        cfg: &DlfsConfig,
    ) -> Result<Superblock, DlfsError> {
        cfg.check_replicas(storage_nodes as usize)?;
        let (chunk_size, replicas) = (cfg.chunk_size, cfg.replicas as u32);
        let meta_base = BLOCK_SIZE;
        let meta_bytes = node_samples * META_RECORD_BYTES;
        let meta_capacity = meta_bytes.next_multiple_of(BLOCK_SIZE);
        // One checksum word per data block staged on this node.
        let integrity_bytes = if cfg.verify_reads {
            integrity_table_bytes(data_bytes)
        } else {
            0
        };
        let integrity_capacity = integrity_bytes.next_multiple_of(BLOCK_SIZE);
        let integrity_base = if cfg.verify_reads {
            meta_base + meta_capacity
        } else {
            0
        };
        // One u32 per chunk frame of this node's own data, plus a trailing
        // FNV-1a checksum word over the length words.
        let codec_table_bytes = if cfg.codec == CodecKind::Identity {
            0
        } else {
            data_bytes.div_ceil(chunk_size) * 4 + 8
        };
        let codec_capacity = codec_table_bytes.next_multiple_of(BLOCK_SIZE);
        let data_base = (meta_base + meta_capacity + integrity_capacity + codec_capacity)
            .next_multiple_of(chunk_size);
        let ckpt_capacity = cfg.ckpt_region_bytes.next_multiple_of(BLOCK_SIZE);
        let need = data_base + data_bytes * replicas as u64 + ckpt_capacity;
        let too_small = || DlfsError::Capacity {
            node: node_id,
            need,
            have: device_bytes,
        };
        if need > device_bytes {
            return Err(too_small());
        }
        let ckpt_base = (device_bytes - ckpt_capacity) / BLOCK_SIZE * BLOCK_SIZE;
        let Some(data_capacity) = ckpt_base.checked_sub(data_base) else {
            return Err(too_small());
        };
        let replica_slot_bytes = replica_slot(data_capacity, replicas, chunk_size);
        if data_base + data_bytes > MAX_OFFSET {
            return Err(DlfsError::Layout(LayoutError::Inconsistent(format!(
                "node {node_id}: data region end {} exceeds the 40-bit entry offset",
                data_base + data_bytes
            ))));
        }
        Ok(Superblock {
            node_id,
            storage_nodes,
            generation: 0,
            committed: false,
            node_samples,
            total_samples,
            meta_base,
            meta_bytes,
            meta_checksum: 0,
            data_base,
            data_bytes,
            data_capacity,
            ckpt_base,
            ckpt_capacity,
            dataset_stamp: 0,
            replicas,
            replica_slot_bytes,
            integrity_base,
            integrity_bytes,
            codec: cfg.codec,
            codec_table_bytes,
            chunk_size: if codec_table_bytes > 0 { chunk_size } else { 0 },
        })
    }

    /// First byte of the codec table region: the block-aligned slot just
    /// after the integrity table's region — planned for the raw data,
    /// whatever length of it a coded import filled — or after the metadata
    /// region when no integrity table was planned. Meaningless when
    /// `codec_table_bytes == 0`.
    pub fn codec_base(&self) -> u64 {
        let meta_capacity = self.meta_bytes.next_multiple_of(BLOCK_SIZE);
        let integrity_capacity = if self.integrity_base > 0 {
            integrity_table_bytes(self.data_bytes).next_multiple_of(BLOCK_SIZE)
        } else {
            0
        };
        self.meta_base + meta_capacity + integrity_capacity
    }

    /// The import identity, stated once: what every device of one import
    /// records alike — its shape, its placement's stamp and how its data
    /// was coded. The generation is not part of it: an import bumps each
    /// device's own, so devices with different histories hold one import
    /// at different generations.
    pub(crate) fn import_id(&self) -> ((u32, u64, u32), u64, CodecKind, u64) {
        let shape = (self.storage_nodes, self.total_samples, self.replicas);
        (shape, self.dataset_stamp, self.codec, self.chunk_size)
    }

    /// Phase A of the two-phase commit as `(byte offset, bytes)` device
    /// writes: this superblock, uncommitted, then a zeroed checkpoint-stream
    /// head — none when the checkpoint region is empty.
    pub(crate) fn stamp_writes(&mut self) -> Vec<(u64, Vec<u8>)> {
        self.committed = false;
        let head = (self.ckpt_capacity > 0).then(|| (self.ckpt_base, vec![0; BLOCK_SIZE as usize]));
        [(0, self.encode())].into_iter().chain(head).collect()
    }

    /// The region writes that commit a node's staged data, in the import's
    /// order: the integrity table of `sums` (its length set to what the
    /// stored blocks fill), the metadata of `records` (`meta_checksum` set
    /// over it) and a coded node's frame-length table of `lens`; an empty
    /// region is not written. The import and the rebuild's restore both
    /// apply these, then write the committed superblock once they are
    /// durable.
    pub(crate) fn commit_writes(
        &mut self,
        records: &[MetaRecord],
        sums: &[u64],
        lens: &[u32],
    ) -> Vec<(u64, Vec<u8>)> {
        let mut writes = Vec::with_capacity(3);
        if self.integrity_bytes > 0 {
            let table = encode_integrity(sums);
            self.integrity_bytes = table.len() as u64;
            writes.push((self.integrity_base, table));
        }
        let meta = encode_meta(records);
        debug_assert_eq!(meta.len() as u64, self.meta_bytes);
        self.meta_checksum = fnv1a(&meta);
        writes.push((self.meta_base, meta));
        if self.codec != CodecKind::Identity {
            let table = encode_codec_table(lens);
            debug_assert_eq!(table.len() as u64, self.codec_table_bytes);
            writes.push((self.codec_base(), table));
        }
        writes.retain(|(_, bytes)| !bytes.is_empty());
        writes
    }

    /// Serialize into one block. With `committed == false` the tail stamp
    /// stays zero — the phase-A ("import in progress") form.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = vec![0u8; BLOCK_SIZE as usize];
        let coded = self.codec != CodecKind::Identity;
        put_u64(&mut b, 0, SUPERBLOCK_MAGIC);
        put_u32(&mut b, 8, if coded { LAYOUT_VERSION } else { 1 });
        put_u32(&mut b, 12, self.node_id as u32);
        put_u32(&mut b, 16, self.storage_nodes);
        put_u32(&mut b, 20, self.codec.to_u32());
        put_u64(&mut b, 24, self.generation);
        put_u64(&mut b, 32, self.node_samples);
        put_u64(&mut b, 40, self.total_samples);
        put_u64(&mut b, 48, self.meta_base);
        put_u64(&mut b, 56, self.meta_bytes);
        put_u64(&mut b, 64, self.meta_checksum);
        put_u64(&mut b, 72, self.data_base);
        put_u64(&mut b, 80, self.data_bytes);
        put_u64(&mut b, 88, self.data_capacity);
        put_u64(&mut b, 96, self.ckpt_base);
        put_u64(&mut b, 104, self.ckpt_capacity);
        put_u64(&mut b, 112, self.dataset_stamp);
        put_u64(
            &mut b,
            120,
            if self.committed { self.generation } else { 0 },
        );
        put_u32(&mut b, 128, self.replicas);
        put_u32(&mut b, 132, self.codec_table_bytes as u32);
        put_u64(&mut b, 136, self.replica_slot_bytes);
        put_u64(&mut b, 144, self.integrity_base);
        put_u64(&mut b, 152, self.integrity_bytes);
        let mut crc_at = SB_CHECKSUM_AT;
        if coded {
            put_u64(&mut b, 160, self.chunk_size);
            crc_at = SB_CODED_CHECKSUM_AT;
        }
        let crc = fnv1a(&b[..crc_at]);
        put_u64(&mut b, crc_at, crc);
        b
    }

    /// Parse block 0. `node` is the deployment's idea of which storage
    /// node this device is (used for error attribution and verified
    /// against the stored id). A torn import decodes successfully with
    /// `committed == false`; callers that need a servable device must
    /// check [`Superblock::committed`].
    pub fn decode(node: u16, b: &[u8]) -> Result<Superblock, LayoutError> {
        // Past the length check every word is in the block.
        let word = |at| get_u64(b, at).ok_or(LayoutError::BadMagic { node });
        let half = |at| get_u32(b, at).ok_or(LayoutError::BadMagic { node });
        if b.len() < BLOCK_SIZE as usize || word(0)? != SUPERBLOCK_MAGIC {
            return Err(LayoutError::BadMagic { node });
        }
        let version = half(8)?;
        let crc_at = match version {
            1 => SB_CHECKSUM_AT,
            LAYOUT_VERSION => SB_CODED_CHECKSUM_AT,
            found => return Err(LayoutError::Version { node, found }),
        };
        if fnv1a(&b[..crc_at]) != word(crc_at)? {
            return Err(LayoutError::ChecksumMismatch {
                node,
                region: "superblock",
            });
        }
        let stored_node = half(12)? as u16;
        if stored_node != node {
            return Err(LayoutError::Inconsistent(format!(
                "device claims node {stored_node}, deployment mounts it as node {node}"
            )));
        }
        let generation = word(24)?;
        let codec_wire = half(20)?;
        let Some(codec) = CodecKind::from_u32(codec_wire) else {
            return Err(LayoutError::Inconsistent(format!(
                "node {node}: unknown codec {codec_wire} (newer format?)"
            )));
        };
        let chunk_size = match version {
            // Version 1 stored a coded import's frames at their raw chunk
            // offsets, a layout this build no longer reads.
            1 if codec != CodecKind::Identity => {
                return Err(LayoutError::Version { node, found: 1 })
            }
            1 => 0,
            _ => word(160)?,
        };
        if codec != CodecKind::Identity
            && (chunk_size == 0 || !chunk_size.is_multiple_of(BLOCK_SIZE))
        {
            return Err(LayoutError::Inconsistent(format!(
                "node {node}: {codec} frames of {chunk_size} B are not whole blocks"
            )));
        }
        Ok(Superblock {
            node_id: stored_node,
            storage_nodes: half(16)?,
            generation,
            committed: word(120)? == generation && generation > 0,
            node_samples: word(32)?,
            total_samples: word(40)?,
            meta_base: word(48)?,
            meta_bytes: word(56)?,
            meta_checksum: word(64)?,
            data_base: word(72)?,
            data_bytes: word(80)?,
            data_capacity: word(88)?,
            ckpt_base: word(96)?,
            ckpt_capacity: word(104)?,
            dataset_stamp: word(112)?,
            replicas: half(128)?.max(1),
            replica_slot_bytes: word(136)?,
            integrity_base: word(144)?,
            integrity_bytes: word(152)?,
            codec,
            codec_table_bytes: half(132)? as u64,
            chunk_size,
        })
    }
}

/// Stride between the `replicas` chunk-aligned slots a data region of
/// `capacity` bytes is split into (the whole region when unreplicated).
pub(crate) fn replica_slot(capacity: u64, replicas: u32, chunk_size: u64) -> u64 {
    if replicas == 1 {
        capacity
    } else {
        capacity / replicas as u64 / chunk_size * chunk_size
    }
}

/// The replica host rule, stated once: copy `r` of home node `home`'s data
/// lives on node `(home + r) mod nodes` (`r = 0` is the home itself).
pub(crate) fn replica_host(home: usize, r: usize, nodes: usize) -> usize {
    (home + r) % nodes
}

/// The inverse of [`replica_host`]: the home whose copy `r` node `host`
/// holds in its slot `r`.
pub(crate) fn replica_home(host: usize, r: usize, nodes: usize) -> usize {
    (host + nodes - r) % nodes
}

/// The replica placement rule, stated once: copy `r` of the byte `rel`
/// bytes into a home node's data region sits `rel` bytes into slot `r` of
/// the hosting peer, whose data region starts at `peer_base` and strides
/// its slots by `peer_slot`. Staging, read routing and repair all place
/// and find copies through this.
pub(crate) fn replica_offset(peer_base: u64, peer_slot: u64, r: u32, rel: u64) -> u64 {
    peer_base + r as u64 * peer_slot + rel
}

/// Where one storage node keeps its data: a planned [`Superblock`]'s
/// regions, or byte 0 and the device split into `replicas` slots.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Geometry {
    /// First byte of the node's own (slot 0) data.
    pub data_base: u64,
    /// Stride between the replica slots of the data region.
    pub slot_bytes: u64,
    /// Bytes of the node's own share, frame padding included.
    pub data_bytes: u64,
}

impl From<&Superblock> for Geometry {
    fn from(sb: &Superblock) -> Geometry {
        Geometry {
            data_base: sb.data_base,
            slot_bytes: sb.replica_slot_bytes,
            data_bytes: sb.data_bytes,
        }
    }
}

/// The one bring-up planner: every storage node's [`Geometry`] for a
/// dataset of `total_samples` whose node shares `(samples, data bytes)` are
/// `shares`, on devices of `device_bytes`. With `persist` each node's
/// regions come from [`Superblock::plan`] and its superblock draft (the
/// import's dataset stamp set) is returned too; without, its data starts at
/// byte 0 and the device splits into `replicas` slots. Either way one fit
/// rule holds: each home's share fits every slot hosting one of its copies,
/// its own included, or the plan is a [`DlfsError::Capacity`] naming the
/// host.
pub(crate) fn plan_nodes(
    shares: &[(u64, u64)],
    total_samples: u64,
    device_bytes: &[u64],
    cfg: &DlfsConfig,
    persist: bool,
) -> Result<(Vec<Geometry>, Option<Vec<Superblock>>), DlfsError> {
    let nodes = shares.len();
    let (geometry, drafts): (Vec<Geometry>, _) = if persist {
        let stamp = dataset_stamp(total_samples, shares);
        let mut drafts = Vec::with_capacity(nodes);
        for (n, (&share, &device)) in shares.iter().zip(device_bytes).enumerate() {
            let sb = Superblock::plan(n as u16, nodes as u32, total_samples, share, device, cfg)?;
            drafts.push(Superblock {
                dataset_stamp: stamp,
                ..sb
            });
        }
        (drafts.iter().map(Geometry::from).collect(), Some(drafts))
    } else {
        let at_zero = |(&(_, data_bytes), &device): (&(u64, u64), &u64)| Geometry {
            data_base: 0,
            slot_bytes: replica_slot(device, cfg.replicas as u32, cfg.chunk_size),
            data_bytes,
        };
        (shares.iter().zip(device_bytes).map(at_zero).collect(), None)
    };
    check_fit(&geometry, cfg.replicas)?;
    Ok((geometry, drafts))
}

/// The fit rule, stated once: with `replicas` copies of every node's data,
/// each home's share fits every slot hosting one of its copies, its own
/// included, or the node set is a [`DlfsError::Capacity`] naming the host.
/// [`plan_nodes`] holds a plan to it and [`check_import`] a loaded set.
fn check_fit(geometry: &[Geometry], replicas: usize) -> Result<(), DlfsError> {
    for (home, g) in geometry.iter().enumerate() {
        let mut hosts = (0..replicas).map(|r| replica_host(home, r, geometry.len()));
        if let Some(host) = hosts.find(|&host| g.data_bytes > geometry[host].slot_bytes) {
            let (node, need, have) = (host as u16, g.data_bytes, geometry[host].slot_bytes);
            return Err(DlfsError::Capacity { node, need, have });
        }
    }
    Ok(())
}

/// The one judge of a device set: whether the `nodes` loaded for a
/// deployment of `storage_nodes` hold one import
/// ([`Superblock::import_id`]) shaped for it, whether `cfg` reads them as
/// they were written, and whether every copy fits its slot
/// ([`check_fit`]). Returns the dataset's sample count. [`load_node`]
/// makes every check of one device; this makes every check between
/// devices, or between a device and the deployment or the config.
pub(crate) fn check_import(
    nodes: &[NodeMeta],
    storage_nodes: usize,
    cfg: &DlfsConfig,
) -> Result<u64, DlfsError> {
    let bad = |msg: String| Err(LayoutError::Inconsistent(msg).into());
    let first = &nodes[0].sb;
    let (total, codec, recorded) = (first.total_samples, first.codec, first.chunk_size);
    // The codec and a coded import's frame size are the devices' to say:
    // reading with another would serve garbage, so a config that disagrees
    // is refused (re-import, or set it to what the devices hold). An
    // uncoded layout records no frame size and needs none.
    if cfg.codec != codec {
        return Err(DlfsError::Config(format!(
            "config asks for codec {}, devices were imported with codec {codec}",
            cfg.codec
        )));
    }
    if recorded != 0 && cfg.chunk_size != recorded {
        return Err(DlfsError::Config(format!(
            "config asks for chunk_size {} B, devices were imported with {recorded} B \
             {codec} frames",
            cfg.chunk_size
        )));
    }
    for (n, NodeMeta { sb, .. }) in nodes.iter().enumerate() {
        check_shape(sb, storage_nodes)?;
        if sb.import_id() != first.import_id() {
            return bad(format!(
                "node {n} belongs to a different import than node 0"
            ));
        }
        if cfg.verify_reads && sb.integrity_bytes == 0 {
            return bad(format!(
                "verify_reads needs an integrity table, but node {n} was imported without \
                 one (re-import with verify_reads on)"
            ));
        }
    }
    if cfg.replicas > 1 && cfg.replicas as u32 != first.replicas {
        return bad(format!(
            "config asks for {} replicas, devices were imported with {}",
            cfg.replicas, first.replicas
        ));
    }
    let sum: u64 = nodes.iter().map(|m| m.sb.node_samples).sum();
    if sum != total || total > u32::MAX as u64 {
        return bad(format!(
            "per-node sample counts sum to {sum}, superblocks claim {total}"
        ));
    }
    let geometry: Vec<Geometry> = nodes.iter().map(|m| Geometry::from(&m.sb)).collect();
    check_fit(&geometry, first.replicas as usize)?;
    Ok(total)
}

/// The shape half of the import identity: a device imported for
/// `sb.storage_nodes` nodes serves only a deployment of that many.
fn check_shape(sb: &Superblock, nodes: usize) -> Result<(), DlfsError> {
    if sb.storage_nodes as usize == nodes {
        return Ok(());
    }
    let (n, had) = (sb.node_id, sb.storage_nodes);
    let msg = format!("node {n} was imported for {had} storage nodes, deployment has {nodes}");
    Err(LayoutError::Inconsistent(msg).into())
}

/// Serialize one node's sample metadata region.
pub fn encode_meta(records: &[MetaRecord]) -> Vec<u8> {
    let mut out = vec![0u8; records.len() * META_RECORD_BYTES as usize];
    for (i, r) in records.iter().enumerate() {
        let at = i * META_RECORD_BYTES as usize;
        put_u32(&mut out, at, r.id);
        put_u64(&mut out, at + 4, r.unit1);
        put_u64(&mut out, at + 12, r.unit2 & !1u64);
        put_u64(&mut out, at + 20, r.payload_checksum);
    }
    out
}

/// Parse a metadata region previously produced by [`encode_meta`]. The
/// caller verifies the region checksum against the superblock first.
pub fn decode_meta(node: u16, bytes: &[u8]) -> Result<Vec<MetaRecord>, LayoutError> {
    if !bytes.len().is_multiple_of(META_RECORD_BYTES as usize) {
        return Err(LayoutError::Inconsistent(format!(
            "node {node}: metadata region length {} is not a record multiple",
            bytes.len()
        )));
    }
    let record = |c: &[u8]| {
        Some(MetaRecord {
            id: get_u32(c, 0)?,
            unit1: get_u64(c, 4)?,
            unit2: get_u64(c, 12)?,
            payload_checksum: get_u64(c, 20)?,
        })
    };
    let records = bytes.chunks_exact(META_RECORD_BYTES as usize).map(record);
    Ok(records.flatten().collect())
}

/// Accumulates stored bytes in on-device order and produces one FNV-1a
/// checksum per 512 B data block. The final partial block is hashed as if
/// zero-padded to a full block, which matches what a read of that block
/// returns from the zero-initialized device — so the table can be built
/// client-side while streaming an import, with no read-back pass.
#[derive(Clone, Debug)]
pub struct BlockChecksums {
    sums: Vec<u64>,
    state: u64,
    fill: u64,
}

impl Default for BlockChecksums {
    fn default() -> Self {
        BlockChecksums::new()
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

impl BlockChecksums {
    pub fn new() -> BlockChecksums {
        BlockChecksums {
            sums: Vec::new(),
            state: FNV_OFFSET,
            fill: 0,
        }
    }

    /// Feed the next run of payload bytes (must arrive in block order).
    pub fn update(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let room = (BLOCK_SIZE - self.fill) as usize;
            let take = room.min(bytes.len());
            for &b in &bytes[..take] {
                self.state = (self.state ^ b as u64).wrapping_mul(FNV_PRIME);
            }
            self.fill += take as u64;
            bytes = &bytes[take..];
            if self.fill == BLOCK_SIZE {
                self.sums.push(self.state);
                self.state = FNV_OFFSET;
                self.fill = 0;
            }
        }
    }

    /// Zero-pad and close the final partial block; returns one checksum
    /// per covered block.
    pub fn finish(mut self) -> Vec<u64> {
        if self.fill > 0 {
            for _ in self.fill..BLOCK_SIZE {
                self.state = self.state.wrapping_mul(FNV_PRIME);
            }
            self.sums.push(self.state);
        }
        self.sums
    }
}

/// Serialized length of the integrity table covering `data_bytes` of
/// staged data: one checksum word per 512 B block.
fn integrity_table_bytes(data_bytes: u64) -> u64 {
    data_bytes.div_ceil(BLOCK_SIZE) * 8
}

/// Serialize a per-block checksum table for the integrity region.
pub fn encode_integrity(sums: &[u64]) -> Vec<u8> {
    let mut out = vec![0u8; sums.len() * 8];
    for (i, &s) in sums.iter().enumerate() {
        put_u64(&mut out, i * 8, s);
    }
    out
}

/// Parse an integrity region previously produced by [`encode_integrity`];
/// a length that is not a whole number of words is a typed error.
pub fn decode_integrity(node: u16, bytes: &[u8]) -> Result<Vec<u64>, LayoutError> {
    if !bytes.len().is_multiple_of(8) {
        return Err(LayoutError::Inconsistent(format!(
            "node {node}: integrity table length {} is not a table",
            bytes.len()
        )));
    }
    Ok(bytes
        .chunks_exact(8)
        .filter_map(|c| get_u64(c, 0))
        .collect())
}

/// Serialize one node's per-frame encoded-length table: one `u32` per
/// chunk frame plus a trailing FNV-1a word over the length words (the
/// table is read before any data, so it carries its own checksum rather
/// than relying on the integrity region, which only covers data blocks).
pub fn encode_codec_table(lens: &[u32]) -> Vec<u8> {
    let mut out = vec![0u8; lens.len() * 4 + 8];
    for (i, &l) in lens.iter().enumerate() {
        put_u32(&mut out, i * 4, l);
    }
    let crc = fnv1a(&out[..lens.len() * 4]);
    put_u64(&mut out, lens.len() * 4, crc);
    out
}

/// Parse a codec table region previously produced by
/// [`encode_codec_table`].
pub fn decode_codec_table(node: u16, bytes: &[u8]) -> Result<Vec<u32>, LayoutError> {
    if bytes.len() < 8 || !bytes.len().is_multiple_of(4) {
        return Err(LayoutError::Inconsistent(format!(
            "node {node}: codec table length {} is not a table",
            bytes.len()
        )));
    }
    let body = bytes.len() - 8;
    if get_u64(bytes, body) != Some(fnv1a(&bytes[..body])) {
        return Err(LayoutError::ChecksumMismatch {
            node,
            region: "codec table",
        });
    }
    Ok(bytes[..body]
        .chunks_exact(4)
        .filter_map(|c| get_u32(c, 0))
        .collect())
}

/// A checkpoint record header (one block on the device).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CkptHeader {
    /// Import generation the record belongs to; records from earlier
    /// generations terminate the stream.
    pub generation: u64,
    /// 1-based position in the stream.
    pub seq: u64,
    pub payload_len: u64,
    pub payload_checksum: u64,
}

impl CkptHeader {
    pub fn encode(&self) -> Vec<u8> {
        let mut b = vec![0u8; BLOCK_SIZE as usize];
        put_u64(&mut b, 0, CKPT_MAGIC);
        put_u64(&mut b, 8, self.generation);
        put_u64(&mut b, 16, self.seq);
        put_u64(&mut b, 24, self.payload_len);
        put_u64(&mut b, 32, self.payload_checksum);
        let crc = fnv1a(&b[..40]);
        put_u64(&mut b, 40, crc);
        b
    }

    /// `None` means "not a record": end of the stream.
    pub fn decode(b: &[u8]) -> Option<CkptHeader> {
        if b.len() < BLOCK_SIZE as usize || get_u64(b, 0)? != CKPT_MAGIC {
            return None;
        }
        if fnv1a(&b[..40]) != get_u64(b, 40)? {
            return None;
        }
        Some(CkptHeader {
            generation: get_u64(b, 8)?,
            seq: get_u64(b, 16)?,
            payload_len: get_u64(b, 24)?,
            payload_checksum: get_u64(b, 32)?,
        })
    }

    /// Total on-device footprint of a record with `payload_len` bytes.
    pub fn record_bytes(payload_len: u64) -> u64 {
        CKPT_HEADER_BYTES + payload_len.next_multiple_of(BLOCK_SIZE)
    }
}

/// The one walker of a checkpoint stream, which starts at `(pos, seq) =
/// (sb.ckpt_base, 0)`: the payload of the record at `pos`, stepping `pos`
/// past it and `seq` to its sequence number — or `None` at the end of the
/// stream, which is the first record that is not one (no header), is not
/// this import's next (stale generation, wrong sequence number), does not
/// fit the region or fails its payload checksum (a torn append). Reads
/// through `read(offset, len)` like [`load_node`]: timed under replay and
/// the writer's tail walk, untimed under fsck — so fsck counts the records
/// a replay yields, by construction.
pub(crate) fn next_ckpt_record(
    mut read: impl FnMut(u64, usize) -> Result<Vec<u8>, DlfsError>,
    sb: &Superblock,
    (pos, seq): (&mut u64, &mut u64),
) -> Result<Option<Vec<u8>>, DlfsError> {
    let end = sb.ckpt_base + sb.ckpt_capacity;
    if *pos + CKPT_HEADER_BYTES > end {
        return Ok(None);
    }
    let Some(h) = CkptHeader::decode(&read(*pos, BLOCK_SIZE as usize)?) else {
        return Ok(None);
    };
    let span = CkptHeader::record_bytes(h.payload_len);
    if h.generation != sb.generation || h.seq != *seq + 1 || *pos + span > end {
        return Ok(None);
    }
    let payload = read(*pos + CKPT_HEADER_BYTES, h.payload_len as usize)?;
    if fnv1a(&payload) != h.payload_checksum {
        return Ok(None);
    }
    *pos += span;
    *seq = h.seq;
    Ok(Some(payload))
}

/// Untimed block-granular read (debug / verification paths only — the
/// timed I/O goes through qpairs).
pub(crate) fn read_untimed(target: &Arc<dyn NvmeTarget>, offset: u64, len: usize) -> Vec<u8> {
    let slba = offset / BLOCK_SIZE;
    let head = (offset % BLOCK_SIZE) as usize;
    let span = (head + len).next_multiple_of(BLOCK_SIZE as usize);
    let mut raw = vec![0u8; span];
    target.dma_read(slba, &mut raw);
    raw[head..head + len].to_vec()
}

/// Untimed read of the *logical* bytes `[offset, offset + len)` — raw
/// addresses, a range inside one frame, as a sample is. Without a codec
/// (`frame` is `None`) they are the device bytes there. In a coded frame
/// they are the frame's encoded bytes at the same distance from its start,
/// then zeros for the part of the range past them. This is what the import
/// hashed into the metadata records.
pub(crate) fn read_logical(
    target: &Arc<dyn NvmeTarget>,
    frame: Option<Frame>,
    offset: u64,
    len: u64,
) -> Vec<u8> {
    let Some(f) = frame else {
        return read_untimed(target, offset, len as usize);
    };
    let rel = offset - f.start;
    let stored = (f.enc_len as u64).saturating_sub(rel).min(len);
    let mut out = read_untimed(target, f.at + rel, stored as usize);
    out.resize(len as usize, 0);
    out
}

/// One storage node's on-device metadata, read back and verified by
/// [`load_node`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeMeta {
    /// The committed superblock.
    pub sb: Superblock,
    /// The sample metadata region, checksum-verified.
    pub records: Vec<MetaRecord>,
    /// The per-block integrity table; empty when the caller did not ask
    /// for it or the import persisted none.
    pub sums: Vec<u64>,
    /// The per-frame encoded-length table; empty under `Identity`.
    pub lens: Vec<u32>,
}

impl NodeMeta {
    /// The stored frame holding a raw address of the node; `None` for
    /// every address under `Identity`.
    fn frame_at(&self) -> impl Fn(u64) -> Option<Frame> {
        let sb = &self.sb;
        let (kind, chunk) = (sb.codec, sb.chunk_size);
        let frames = (kind != CodecKind::Identity)
            .then(|| NodeFrames::new(sb.data_base, sb.data_bytes, chunk, self.lens.clone()));
        move |offset| frames.as_ref().map(|f| f.frame(kind, chunk, offset))
    }
}

/// The one reader of a device's metadata, of `capacity` bytes: superblock
/// (decoded, committed, a replica count its storage nodes can host, every
/// region on the device, the fit rule's own half), sample metadata (region
/// checksum, then records, as many as the superblock claims), the integrity
/// table when `want_sums` and the import persisted one, and the
/// self-checksummed codec table of a coded import — in that order, through
/// `read(offset, len)`. Every check of one node is made here: `remount`
/// passes a timed read and leaves what compares nodes with each other and
/// with its config to [`check_import`], `fsck_node`/`fsck_repair` pass an
/// untimed one, so a device fsck calls clean is a device remount accepts
/// unless the judge refuses the set: both ran this function.
pub fn load_node(
    mut read: impl FnMut(u64, usize) -> Result<Vec<u8>, DlfsError>,
    capacity: u64,
    node: u16,
    want_sums: bool,
) -> Result<NodeMeta, DlfsError> {
    let sb = Superblock::decode(node, &read(0, BLOCK_SIZE as usize)?)?;
    let bad = |msg: String| -> DlfsError { LayoutError::Inconsistent(msg).into() };
    if !sb.committed {
        return Err(LayoutError::TornImport {
            node,
            generation: sb.generation,
        }
        .into());
    }
    if !(1..=sb.storage_nodes).contains(&sb.replicas) {
        return Err(bad(format!(
            "node {node}: {} copies of every sample cannot sit on {} storage nodes",
            sb.replicas, sb.storage_nodes
        )));
    }
    // Every region read from here on lies on the device; the codec table's
    // place follows from the metadata's and the data's, checked first.
    let on_device = |what: &str, base: u64, len: u64| match base.checked_add(len) {
        Some(end) if end <= capacity => Ok(()),
        _ => Err(bad(format!(
            "node {node}: {len} B of {what} at {base} run past the device's {capacity} B"
        ))),
    };
    for (what, base, len) in [
        ("metadata", sb.meta_base, sb.meta_bytes),
        ("integrity table", sb.integrity_base, sb.integrity_bytes),
        ("checkpoint stream", sb.ckpt_base, sb.ckpt_capacity),
    ] {
        on_device(what, base, len)?;
    }
    // The fit rule's half one device can judge ([`check_fit`] judges the
    // copies it hosts): its own share fits its own slot, and its slots end
    // by the checkpoint stream — so its data lies on the device too.
    let slots = (sb.replicas as u64).checked_mul(sb.replica_slot_bytes);
    let slots_end = slots.and_then(|s| s.checked_add(sb.data_base));
    if sb.data_bytes > sb.replica_slot_bytes || slots_end.is_none_or(|end| end > sb.ckpt_base) {
        return Err(bad(format!(
            "node {node}: {} slots of {} B at {} do not hold its {} B of data before \
             the checkpoint stream at {}",
            sb.replicas, sb.replica_slot_bytes, sb.data_base, sb.data_bytes, sb.ckpt_base
        )));
    }
    // The table's region was planned for the raw data; what it holds is
    // checked against the stored blocks once the codec table is in.
    if sb.integrity_bytes > integrity_table_bytes(sb.data_bytes) {
        return Err(bad(format!(
            "node {node}: integrity table of {} B overruns its region for {} B of data",
            sb.integrity_bytes, sb.data_bytes
        )));
    }
    let meta = read(sb.meta_base, sb.meta_bytes as usize)?;
    if fnv1a(&meta) != sb.meta_checksum {
        return Err(LayoutError::ChecksumMismatch {
            node,
            region: "metadata",
        }
        .into());
    }
    let records = decode_meta(node, &meta)?;
    if sb.node_samples != records.len() as u64 {
        return Err(bad(format!(
            "node {node} superblock claims {} samples, metadata holds {}",
            sb.node_samples,
            records.len()
        )));
    }
    let sums = if want_sums && sb.integrity_bytes > 0 {
        decode_integrity(node, &read(sb.integrity_base, sb.integrity_bytes as usize)?)?
    } else {
        Vec::new()
    };
    // Read before any data, so a stale or torn table is caught here
    // rather than by a decoder fed garbage lengths.
    let lens = if sb.codec != CodecKind::Identity {
        let (base, len) = (sb.codec_base(), sb.codec_table_bytes);
        on_device("codec table", base, len)?;
        decode_codec_table(node, &read(base, len as usize)?)?
    } else {
        Vec::new()
    };
    let frames = sb.data_bytes.div_ceil(sb.chunk_size.max(1));
    if sb.codec != CodecKind::Identity && lens.len() as u64 != frames {
        return Err(bad(format!(
            "node {node}: codec table holds {} frames, {} B of data in {} B frames are {frames}",
            lens.len(),
            sb.data_bytes,
            sb.chunk_size
        )));
    }
    // Every frame encodes to at least a byte and at most its raw length, so
    // the packed run stays inside the region the raw data was planned for.
    let raw_len =
        |f: usize| sb.data_bytes.min((f as u64 + 1) * sb.chunk_size) - f as u64 * sb.chunk_size;
    if let Some(f) = (0..lens.len()).find(|&f| lens[f] == 0 || lens[f] as u64 > raw_len(f)) {
        return Err(bad(format!(
            "node {node}: frame {f} of {} B claims {} encoded bytes",
            raw_len(f),
            lens[f]
        )));
    }
    // A coded sample is found through the frame covering its offset, so
    // every record must point inside the data region the frames tile.
    let data = sb.data_base..sb.data_base + sb.data_bytes;
    let outside = |r: &&MetaRecord| {
        let e = SampleEntry::from_raw(r.unit1, r.unit2);
        !data.contains(&e.offset()) || e.offset() + e.len() > data.end
    };
    let coded = sb.codec != CodecKind::Identity;
    if let Some(r) = records.iter().find(|r| coded && outside(r)) {
        return Err(bad(format!(
            "node {node}: sample {} lies outside the data region [{}, {})",
            r.id, data.start, data.end
        )));
    }
    let stored = stored_blocks(sb.data_bytes, sb.codec, sb.chunk_size, &lens);
    if sb.integrity_bytes > 0 && sb.integrity_bytes != integrity_table_bytes(stored * BLOCK_SIZE) {
        return Err(bad(format!(
            "node {node}: integrity table of {} B does not cover {stored} stored blocks",
            sb.integrity_bytes
        )));
    }
    Ok(NodeMeta {
        sb,
        records,
        sums,
        lens,
    })
}

/// What `fsck` concluded about one device.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FsckState {
    /// No superblock (or an unreadable one): never imported.
    Unformatted(LayoutError),
    /// An import started but never committed.
    Torn { generation: u64 },
    /// Committed and internally consistent.
    Clean { generation: u64 },
    /// Committed superblock, but a region failed verification.
    Corrupt { generation: u64, what: String },
}

/// Per-device fsck report (see the `dlfs_fsck` binary).
#[derive(Clone, Debug)]
pub struct FsckNodeReport {
    pub node: u16,
    pub state: FsckState,
    /// Metadata records found (0 unless decodable).
    pub entries: u64,
    pub meta_checksum_ok: bool,
    /// Deep mode only: every sample payload matched its stored checksum.
    pub data_checksum_ok: Option<bool>,
    /// Valid checkpoint records in the stream.
    pub checkpoints: u64,
    /// Payload bytes across those records.
    pub checkpoint_bytes: u64,
}

/// Walk one device's metadata (untimed; a debug tool, not a data path).
/// `deep` additionally re-reads every sample's logical bytes
/// (`read_logical`; a coded device's frame size and codec come from its
/// superblock) and verifies its stored checksum.
pub fn fsck_node(target: &Arc<dyn NvmeTarget>, node: u16, deep: bool) -> FsckNodeReport {
    let mut report = FsckNodeReport {
        node,
        state: FsckState::Unformatted(LayoutError::BadMagic { node }),
        entries: 0,
        meta_checksum_ok: false,
        data_checksum_ok: None,
        checkpoints: 0,
        checkpoint_bytes: 0,
    };
    // Peek at the superblock for the report's state and generation; the
    // verification proper is the shared loader's.
    let sb = match Superblock::decode(node, &read_untimed(target, 0, BLOCK_SIZE as usize)) {
        Ok(sb) => sb,
        Err(e) => {
            report.state = FsckState::Unformatted(e);
            return report;
        }
    };
    if !sb.committed {
        report.state = FsckState::Torn {
            generation: sb.generation,
        };
        return report;
    }
    let read = |off, len| Ok(read_untimed(target, off, len));
    let loaded = load_node(read, target.blocks() * BLOCK_SIZE, node, true);
    report.meta_checksum_ok = !matches!(
        loaded,
        Err(DlfsError::Layout(LayoutError::ChecksumMismatch {
            region: "metadata",
            ..
        }))
    );
    let corrupt = |what: String| FsckState::Corrupt {
        generation: sb.generation,
        what,
    };
    let meta = match loaded {
        Ok(meta) => meta,
        Err(e) => {
            report.state = corrupt(e.to_string());
            return report;
        }
    };
    report.entries = meta.records.len() as u64;
    if deep {
        let frame_at = meta.frame_at();
        let ok = meta.records.iter().all(|r| {
            let e = SampleEntry::from_raw(r.unit1, r.unit2);
            let frame = frame_at(e.offset());
            fnv1a(&read_logical(target, frame, e.offset(), e.len())) == r.payload_checksum
        });
        report.data_checksum_ok = Some(ok);
        if !ok {
            report.state = corrupt("sample payload checksum".into());
            return report;
        }
    }
    // Walk the checkpoint stream, exactly as a replay would.
    let (mut pos, mut seq) = (sb.ckpt_base, 0);
    while let Ok(Some(payload)) = next_ckpt_record(read, &sb, (&mut pos, &mut seq)) {
        report.checkpoints += 1;
        report.checkpoint_bytes += payload.len() as u64;
    }
    report.state = FsckState::Clean {
        generation: sb.generation,
    };
    report
}

/// What an offline repair pass ([`fsck_repair`]) found and fixed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FsckRepairReport {
    /// Samples whose home copy failed verification (bad payload checksum
    /// or a persistent fault mark over their extent).
    pub detected: u64,
    /// Of those, samples rewritten from a healthy replica and re-verified.
    pub repaired: u64,
    /// Of those, samples no replica could supply a good copy of.
    pub unrepairable: u64,
}

/// Offline repair: walk `node`'s samples, judge each home copy and rewrite
/// every bad one from the first replica whose copy is good. What a good
/// copy is, where replicas live and how one is rewritten are
/// [`Redundancy`]'s to say (judged with everything the simulator knows
/// about persistent faults); what this adds is its acceptance test, the
/// per-sample payload checksum from the metadata region. Rewrites go
/// through `dma_write` at covering-block granularity, which also clears
/// sticky-extent and bit-flip marks on the healed range. `targets` is the full target row
/// indexed by storage node. On a coded device (frame size and codec from
/// its superblock) a sample's blocks are those of its range in its frame's
/// encoded bytes, and only those of them holding some are judged, fetched
/// from a replica and rewritten — the rest of the range reads as zeros.
/// Untimed — a repair tool, not a data path.
pub fn fsck_repair(
    targets: &[Arc<dyn NvmeTarget>],
    node: u16,
) -> Result<FsckRepairReport, DlfsError> {
    let load = |n: u16, want_sums| {
        let target = &targets[n as usize];
        let read = |off, len| Ok(read_untimed(target, off, len));
        load_node(read, target.blocks() * BLOCK_SIZE, n, want_sums)
    };
    // The per-block table rides along when the import carried one: it lets
    // a replica's blocks be verified in full before they overwrite home
    // blocks (not just the one sample's byte range).
    let mut meta = load(node, true)?;
    let (frame_at, sums) = (meta.frame_at(), std::mem::take(&mut meta.sums));
    let (sb, records) = (&meta.sb, &meta.records);
    let nodes = targets.len();
    check_shape(sb, nodes)?;
    // The instance's redundancy, rebuilt from the devices: the table this
    // node carries, and geometry from every superblock of this import. A
    // replica whose host is torn or holds another import
    // ([`Superblock::import_id`]; its generation may differ) has none, and
    // is no candidate.
    let mut tables = Vec::new();
    if !sums.is_empty() {
        tables = vec![Arc::default(); nodes];
        tables[node as usize] = Arc::new(sums);
    }
    let mut red = Redundancy::new(sb.replicas, vec![(0, 0); nodes], tables);
    red.slots[node as usize] = (sb.data_base, sb.replica_slot_bytes);
    let mut candidates = Vec::new();
    for r in 1..sb.replicas {
        let (host, _) = red.route(node, r, sb.data_base / BLOCK_SIZE);
        let loaded = load(host, false).ok().map(|meta| meta.sb);
        if let Some(psb) = loaded.filter(|p| p.import_id() == sb.import_id()) {
            red.slots[host as usize] = (psb.data_base, psb.replica_slot_bytes);
            candidates.push(r);
        }
    }
    let mut report = FsckRepairReport::default();
    for r in records {
        let e = SampleEntry::from_raw(r.unit1, r.unit2);
        // Where the sample's bytes sit, and where its frame's stored bytes
        // end.
        let (at, end) = match frame_at(e.offset()) {
            Some(f) => (f.at + e.offset() - f.start, f.end()),
            None => (e.offset(), u64::MAX),
        };
        let (slba, _, head) = covering_blocks(at, e.len());
        // Only `held` bytes of the sample are on any device — the logical
        // frame holds zeros past them — in the `stored` whole blocks read.
        let held = end.saturating_sub(at).min(e.len()) as usize;
        if held == 0 {
            continue;
        }
        let mut buf = vec![0u8; (head + held).next_multiple_of(BLOCK_SIZE as usize)];
        let payload = |buf: &[u8]| {
            let mut logical = buf[head..head + held].to_vec();
            logical.resize(e.len() as usize, 0);
            let ok = fnv1a(&logical) == r.payload_checksum;
            ok.then_some(()).ok_or(CorruptCause::Checksum)
        };
        let home_ok = |buf: &mut [u8]| red.read_copy(targets, node, 0, slba, buf, payload).is_ok();
        if home_ok(&mut buf) {
            continue;
        }
        report.detected += 1;
        let sources = candidates.iter().copied();
        let healed = red.heal(targets, (node, slba), sources, 0, &mut buf, payload);
        if healed.is_ok() && home_ok(&mut buf) {
            report.repaired += 1;
        } else {
            report.unrepairable += 1;
        }
    }
    Ok(report)
}

/// The dataset stamp shared by all superblocks of one import: a hash of
/// the global placement, so mixing devices from different imports (or
/// differently-shaped imports of the same data) is detected at remount.
pub fn dataset_stamp(total_samples: u64, per_node: &[(u64, u64)]) -> u64 {
    let mut bytes = Vec::with_capacity(16 + per_node.len() * 16);
    bytes.extend_from_slice(&total_samples.to_le_bytes());
    bytes.extend_from_slice(&(per_node.len() as u64).to_le_bytes());
    for &(count, size) in per_node {
        bytes.extend_from_slice(&count.to_le_bytes());
        bytes.extend_from_slice(&size.to_le_bytes());
    }
    fnv1a(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Default 256 KiB chunks and 8 MiB checkpoint region.
    fn cfg(replicas: usize, verify_reads: bool, codec: CodecKind) -> DlfsConfig {
        DlfsConfig {
            replicas,
            verify_reads,
            codec,
            ..DlfsConfig::default()
        }
    }

    /// Node 3 of 4 on a 128 MiB device, holding 2 500 of 10 000 samples
    /// (40 MiB).
    fn plan_node3(cfg: &DlfsConfig) -> Result<Superblock, DlfsError> {
        Superblock::plan(3, 4, 10_000, (2_500, 40 << 20), 128 << 20, cfg)
    }

    fn sample_sb() -> Superblock {
        let mut sb = plan_node3(&cfg(1, false, CodecKind::Identity)).expect("plan");
        sb.generation = 7;
        sb.committed = true;
        sb.meta_checksum = 0xdead_beef;
        sb.dataset_stamp = 42;
        sb
    }

    #[test]
    fn superblock_roundtrip() {
        let sb = sample_sb();
        let b = sb.encode();
        assert_eq!(b.len(), BLOCK_SIZE as usize);
        let back = Superblock::decode(3, &b).unwrap();
        assert_eq!(back, sb);
    }

    #[test]
    fn torn_form_decodes_uncommitted() {
        let mut sb = sample_sb();
        sb.committed = false;
        let back = Superblock::decode(3, &sb.encode()).unwrap();
        assert!(!back.committed);
        assert_eq!(back.generation, 7);
    }

    #[test]
    fn decode_rejects_garbage_and_tampering() {
        assert_eq!(
            Superblock::decode(0, &[0u8; 512]),
            Err(LayoutError::BadMagic { node: 0 })
        );
        let mut b = sample_sb().encode();
        b[60] ^= 0xff;
        assert_eq!(
            Superblock::decode(3, &b),
            Err(LayoutError::ChecksumMismatch {
                node: 3,
                region: "superblock"
            })
        );
        // Mounted as the wrong node.
        let b = sample_sb().encode();
        assert!(matches!(
            Superblock::decode(1, &b),
            Err(LayoutError::Inconsistent(_))
        ));
    }

    #[test]
    fn geometry_is_aligned_and_bounded() {
        let sb = sample_sb();
        assert_eq!(sb.data_base % (256 << 10), 0);
        assert_eq!(sb.ckpt_base % BLOCK_SIZE, 0);
        assert!(sb.meta_base + sb.meta_bytes <= sb.data_base);
        assert!(sb.data_base + sb.data_bytes <= sb.ckpt_base);
        assert_eq!(sb.ckpt_base + sb.ckpt_capacity, 128 << 20);
    }

    #[test]
    fn plan_rejects_undersized_device() {
        let plain = cfg(1, false, CodecKind::Identity);
        let err =
            Superblock::plan(1, 2, 100, (50, 60 << 20), 32 << 20, &plain).expect_err("too small");
        assert!(matches!(err, DlfsError::Capacity { node: 1, .. }));
    }

    #[test]
    fn plan_rejects_impossible_replica_counts_typed() {
        for replicas in [0, 5] {
            let err = plan_node3(&cfg(replicas, false, CodecKind::Identity)).expect_err("replicas");
            assert!(matches!(err, DlfsError::Config(_)), "{replicas}: {err:?}");
        }
    }

    #[test]
    fn meta_roundtrip_masks_v_bit() {
        let recs: Vec<MetaRecord> = (0..100)
            .map(|i| MetaRecord {
                id: i,
                unit1: ((i as u64) << 48) | (0xabc + i as u64),
                unit2: ((i as u64 * 4096) << 24) | (512 << 1) | 1, // V set
                payload_checksum: fnv1a(&i.to_le_bytes()),
            })
            .collect();
        let bytes = encode_meta(&recs);
        assert_eq!(bytes.len() as u64, 100 * META_RECORD_BYTES);
        let back = decode_meta(0, &bytes).unwrap();
        for (a, b) in recs.iter().zip(&back) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.unit1, b.unit1);
            assert_eq!(a.unit2 & !1, b.unit2); // V bit dropped
            assert_eq!(a.payload_checksum, b.payload_checksum);
        }
        assert!(decode_meta(0, &bytes[..27]).is_err());
    }

    #[test]
    fn ckpt_header_roundtrip_and_rejection() {
        let h = CkptHeader {
            generation: 3,
            seq: 9,
            payload_len: 5000,
            payload_checksum: 77,
        };
        let b = h.encode();
        assert_eq!(CkptHeader::decode(&b), Some(h));
        let mut bad = b.clone();
        bad[20] ^= 1;
        assert_eq!(CkptHeader::decode(&bad), None);
        assert_eq!(CkptHeader::decode(&[0u8; 512]), None);
        assert_eq!(CkptHeader::record_bytes(5000), 512 + 5120);
        assert_eq!(CkptHeader::record_bytes(512), 1024);
    }

    #[test]
    fn redundant_plan_geometry() {
        let base = sample_sb();
        // replicas == 1 without integrity takes the whole data region as
        // its one slot and reserves no table.
        assert_eq!(base.replica_slot_bytes, base.data_capacity);
        assert_eq!((base.integrity_base, base.integrity_bytes), (0, 0));
        // Two-way replication with an integrity table.
        let sb = plan_node3(&cfg(2, true, CodecKind::Identity)).expect("plan");
        assert_eq!(sb.replicas, 2);
        assert_eq!(sb.replica_slot_bytes % (256 << 10), 0);
        assert!(2 * sb.replica_slot_bytes <= sb.data_capacity);
        assert!(sb.data_bytes <= sb.replica_slot_bytes);
        assert!(sb.integrity_base >= sb.meta_base + sb.meta_bytes);
        assert!(sb.integrity_base + sb.integrity_bytes <= sb.data_base);
        assert_eq!(sb.integrity_bytes, (40u64 << 20).div_ceil(BLOCK_SIZE) * 8);
        // Roundtrips through the superblock encoding.
        let mut committed = sb.clone();
        committed.generation = 1;
        committed.committed = true;
        assert_eq!(
            Superblock::decode(3, &committed.encode()).unwrap(),
            committed
        );
        // Replica data must fit its slot.
        let two = cfg(2, false, CodecKind::Identity);
        let err = Superblock::plan(0, 4, 100, (25, 60 << 20), 128 << 20, &two)
            .expect_err("slot too small");
        assert!(matches!(err, DlfsError::Capacity { .. }));
    }

    #[test]
    fn coded_plan_reserves_table_region_and_roundtrips() {
        let plain = sample_sb();
        // Identity reserves nothing.
        assert_eq!(plain.codec_table_bytes, 0);
        // Lz reserves one u32 per chunk frame plus the checksum word,
        // block-aligned, between the integrity table and data_base.
        let coded = plan_node3(&cfg(2, true, CodecKind::Lz)).expect("plan");
        assert!(coded.data_base >= plain.data_base);
        let frames = (40u64 << 20).div_ceil(256 << 10);
        assert_eq!(coded.codec_table_bytes, frames * 4 + 8);
        assert!(coded.codec_base() >= coded.integrity_base + coded.integrity_bytes);
        assert!(coded.codec_base() + coded.codec_table_bytes <= coded.data_base);
        // The codec fields survive the superblock encoding.
        let mut committed = coded.clone();
        committed.generation = 1;
        committed.committed = true;
        let back = Superblock::decode(3, &committed.encode()).unwrap();
        assert_eq!(back, committed);
        assert_eq!((back.codec, back.chunk_size), (CodecKind::Lz, 256 << 10));
        // A coded import is version 3; an uncoded one keeps version 1.
        assert_eq!(get_u32(&committed.encode(), 8), Some(LAYOUT_VERSION));
        assert_eq!(get_u32(&sample_sb().encode(), 8), Some(1));
        // Unknown codec values are rejected, not misread as identity.
        let resealed = |at: usize, v: u32, version: u32| {
            let mut b = committed.encode();
            put_u32(&mut b, at, v);
            let crc_at = if version == 1 {
                SB_CHECKSUM_AT
            } else {
                SB_CODED_CHECKSUM_AT
            };
            put_u32(&mut b, 8, version);
            let crc = fnv1a(&b[..crc_at]);
            put_u64(&mut b, crc_at, crc);
            b
        };
        assert!(matches!(
            Superblock::decode(3, &resealed(20, 99, 3)),
            Err(LayoutError::Inconsistent(_))
        ));
        // A version-1 superblock naming a codec: frames at raw offsets.
        assert_eq!(
            Superblock::decode(3, &resealed(20, CodecKind::Lz.to_u32(), 1)),
            Err(LayoutError::Version { node: 3, found: 1 })
        );
        // Versions 2 (whole-block frames) and 7 (unknown) are refused.
        for found in [2, 7] {
            assert_eq!(
                Superblock::decode(3, &resealed(20, CodecKind::Lz.to_u32(), found)),
                Err(LayoutError::Version { node: 3, found })
            );
        }
        // A frame size that is not whole blocks.
        assert!(matches!(
            Superblock::decode(3, &resealed(160, 1000, 3)),
            Err(LayoutError::Inconsistent(m)) if m.contains("1000 B")
        ));
    }

    #[test]
    fn codec_table_roundtrip_and_tamper_detection() {
        let lens: Vec<u32> = (0..37).map(|i| i * 511 + 3).collect();
        let enc = encode_codec_table(&lens);
        assert_eq!(enc.len(), lens.len() * 4 + 8);
        assert_eq!(decode_codec_table(0, &enc).unwrap(), lens);
        let mut bad = enc.clone();
        bad[9] ^= 0x10;
        assert_eq!(
            decode_codec_table(1, &bad),
            Err(LayoutError::ChecksumMismatch {
                node: 1,
                region: "codec table"
            })
        );
        assert!(decode_codec_table(0, &enc[..6]).is_err());
        // A zero-frame node still carries the self-checksummed trailer.
        let empty = encode_codec_table(&[]);
        assert_eq!(decode_codec_table(0, &empty).unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn block_checksums_match_whole_block_fnv() {
        let bytes: Vec<u8> = (0..2 * BLOCK_SIZE as usize + 100)
            .map(|i| (i * 31 % 251) as u8)
            .collect();
        // Feed in awkward runs to exercise the rolling state.
        let mut bc = BlockChecksums::new();
        for chunk in bytes.chunks(97) {
            bc.update(chunk);
        }
        let sums = bc.finish();
        assert_eq!(sums.len(), 3);
        assert_eq!(sums[0], fnv1a(&bytes[..BLOCK_SIZE as usize]));
        assert_eq!(
            sums[1],
            fnv1a(&bytes[BLOCK_SIZE as usize..2 * BLOCK_SIZE as usize])
        );
        let mut padded = bytes[2 * BLOCK_SIZE as usize..].to_vec();
        padded.resize(BLOCK_SIZE as usize, 0);
        assert_eq!(sums[2], fnv1a(&padded));
        let enc = encode_integrity(&sums);
        assert_eq!(decode_integrity(0, &enc), Ok(sums));
        assert!(matches!(
            decode_integrity(2, &enc[..13]),
            Err(LayoutError::Inconsistent(m)) if m.contains("node 2")
        ));
    }

    use blocksim::{DeviceConfig, FaultInjector, NvmeDevice};

    const SLEN: u64 = 1000;

    /// A persistent two-node import of sixteen `SLEN`-byte samples, packed
    /// back to back from each node's `data_base` in 4 KiB chunks: the
    /// devices, their target row, and node 0's superblock.
    fn imported(
        replicas: usize,
        verify: bool,
    ) -> (Vec<Arc<NvmeDevice>>, Vec<Arc<dyn NvmeTarget>>, Superblock) {
        let ramdisk = DeviceConfig::emulated_ramdisk(1 << 20, simkit::time::Dur::micros(10));
        let devices: Vec<_> = (0..2).map(|_| NvmeDevice::new(ramdisk.clone())).collect();
        let targets: Vec<Arc<dyn NvmeTarget>> = devices.iter().map(|d| d.clone() as _).collect();
        let cfg = DlfsConfig {
            chunk_size: 4096,
            ckpt_region_bytes: 8192,
            ..cfg(replicas, verify, CodecKind::Identity)
        };
        let (sb, _) = simkit::runtime::Runtime::simulate(1, |rt| {
            let source = crate::SyntheticSource::fixed(3, 16, SLEN);
            let builder =
                crate::MountBuilder::new(cfg).deployment(crate::Deployment::local(1, &devices));
            let fs = builder.persistent().mount(rt, &source).expect("import");
            fs.layout(0).expect("persistent").clone()
        });
        assert!(sb.node_samples >= 4, "node 0 holds {}", sb.node_samples);
        (devices, targets, sb)
    }

    #[test]
    fn fsck_repair_heals_corruption_from_replica() {
        let (devices, targets, sb) = imported(2, true);
        let clean = fsck_node(&targets[0], 0, true);
        assert!(matches!(clean.state, FsckState::Clean { .. }), "{clean:?}");
        assert_eq!(clean.data_checksum_ok, Some(true));
        let staged = read_untimed(&targets[0], sb.data_base, sb.data_bytes as usize);
        // Sample 0 spans blocks [base, base+1]; a silent flip on its first
        // (fully-owned) block corrupts it. Sample 3 spans blocks
        // [base+5, base+7]; a sticky extent makes its reads fail without
        // touching stored bytes.
        let base = sb.data_base / BLOCK_SIZE;
        devices[0].set_faults(
            FaultInjector::new(7)
                .with_bit_flips(base, 1)
                .with_bad_extent(base + (3 * SLEN) / BLOCK_SIZE + 1, 1),
        );
        let report = fsck_repair(&targets, 0).expect("repair");
        assert_eq!(
            (report.detected, report.repaired, report.unrepairable),
            (2, 2, 0)
        );
        // Healed: deep fsck is clean, persistent marks gone, bytes match.
        let after = fsck_node(&targets[0], 0, true);
        assert_eq!(after.data_checksum_ok, Some(true));
        assert!(!targets[0].probe_extent(base, sb.data_bytes.div_ceil(BLOCK_SIZE) as u32));
        assert_eq!(
            read_untimed(&targets[0], sb.data_base, staged.len()),
            staged
        );
        // Idempotent: a second pass finds nothing.
        let again = fsck_repair(&targets, 0).expect("repair");
        assert_eq!(again, FsckRepairReport::default());
    }

    #[test]
    fn fsck_repair_without_replicas_reports_unrepairable() {
        let (devices, targets, sb) = imported(1, false);
        devices[0].set_faults(FaultInjector::new(3).with_bit_flips(sb.data_base / BLOCK_SIZE, 1));
        let report = fsck_repair(&targets, 0).expect("repair");
        assert_eq!(
            (report.detected, report.repaired, report.unrepairable),
            (1, 0, 1)
        );
    }

    #[test]
    fn stamp_is_order_and_shape_sensitive() {
        let a = dataset_stamp(100, &[(50, 1000), (50, 2000)]);
        let b = dataset_stamp(100, &[(50, 2000), (50, 1000)]);
        let c = dataset_stamp(100, &[(50, 1000), (50, 2000)]);
        assert_ne!(a, b);
        assert_eq!(a, c);
    }
}
