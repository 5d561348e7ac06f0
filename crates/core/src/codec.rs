//! Transparent per-chunk codecs for the staged data region.
//!
//! FanStore-style: every chunk *frame* (the `chunk_size`-aligned tile a
//! fetch item covers) is encoded independently at import/mount time and
//! stored at its usual offset. Addressing is therefore identical to an
//! uncompressed import — offsets, capacities, replica slots and
//! integrity-table indexing are all unchanged; only the *bytes* at the
//! front of each frame's slot differ. What a frame occupies of its slot is
//! its **stored extent** (`stored_extent`): the encoded prefix rounded
//! up to a block, capped at the frame's raw length. The rest of the slot
//! is a **hole** — never written, shipped, mirrored or read, free to hold
//! an older import's bytes, and zeros by definition wherever a checker
//! needs the frame's logical bytes (DESIGN.md §16 lists who asks).
//! Per-frame encoded lengths are persisted in a self-checksummed table
//! region just below `data_base` (see [`crate::layout`]).
//!
//! Invariants every codec must hold:
//!
//! * `encode` is a pure function of its input (deterministic across runs
//!   and platforms — the simulation replays byte-identically).
//! * `encode(raw).len() <= raw.len()`; an incompressible frame is stored
//!   verbatim, signalled by `enc_len == raw_len`.
//! * `decode(encode(raw), raw.len()) == raw` for every input.
//!
//! Block checksums (the integrity region) and the per-sample metadata
//! checksums cover the *logical* frame — encoded bytes, then zeros to the
//! frame's raw length — so verification always happens before decoding
//! and a flipped bit in the compressed stream is caught without ever
//! running the decoder over corrupt input. (The table therefore carries
//! entries for hole blocks too; compacting it would be a format change.)

use blocksim::BLOCK_SIZE;

use crate::entry::SampleEntry;
use crate::error::DlfsError;

/// Which codec a dataset was imported with. Recorded in each device's
/// superblock; a zeroed field (pre-codec imports) decodes as `Identity`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CodecKind {
    /// Store raw bytes unchanged (the default; byte-identical to builds
    /// without a codec layer).
    #[default]
    Identity,
    /// Deterministic LZ-style compression (greedy hash-table LZSS with a
    /// 64 KiB window); incompressible frames fall back to verbatim.
    Lz,
}

impl CodecKind {
    /// Superblock wire encoding.
    pub fn to_u32(self) -> u32 {
        match self {
            CodecKind::Identity => 0,
            CodecKind::Lz => 1,
        }
    }

    /// Inverse of [`CodecKind::to_u32`]; unknown values are rejected.
    pub fn from_u32(v: u32) -> Option<CodecKind> {
        match v {
            0 => Some(CodecKind::Identity),
            1 => Some(CodecKind::Lz),
            _ => None,
        }
    }

    /// Codec implementation for this kind.
    pub fn codec(self) -> &'static dyn Codec {
        match self {
            CodecKind::Identity => &IdentityCodec,
            CodecKind::Lz => &LzCodec,
        }
    }
}

impl std::fmt::Display for CodecKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecKind::Identity => write!(f, "identity"),
            CodecKind::Lz => write!(f, "lz"),
        }
    }
}

/// A per-frame encoder/decoder. See the module docs for the invariants.
pub trait Codec: Send + Sync {
    fn kind(&self) -> CodecKind;
    /// Encode one frame. Result is never longer than the input; equal
    /// length means "stored verbatim".
    fn encode(&self, raw: &[u8]) -> Vec<u8>;
    /// Decode one frame back to exactly `raw_len` bytes. `enc.len() ==
    /// raw_len` means the frame was stored verbatim.
    fn decode(&self, enc: &[u8], raw_len: usize) -> Vec<u8>;
}

/// The no-op codec: stored bytes are the raw bytes.
pub struct IdentityCodec;

impl Codec for IdentityCodec {
    fn kind(&self) -> CodecKind {
        CodecKind::Identity
    }

    fn encode(&self, raw: &[u8]) -> Vec<u8> {
        raw.to_vec()
    }

    fn decode(&self, enc: &[u8], raw_len: usize) -> Vec<u8> {
        debug_assert_eq!(enc.len(), raw_len);
        enc.to_vec()
    }
}

/// Token stream format (all little-endian):
///
/// * control byte `< 0x80`: a literal run of `control + 1` bytes follows.
/// * control byte `>= 0x80`: a back-reference — match length is
///   `(control & 0x7f) + MIN_MATCH`, followed by a `u16` distance
///   (`1..=65535` bytes back into the already-decoded output).
const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 0x7f + MIN_MATCH;
const MAX_LITERAL: usize = 0x80;
const WINDOW: usize = 65535;
const HASH_BITS: u32 = 14;

/// Deterministic greedy LZSS. Single-probe hash table keyed on 4-byte
/// prefixes (LZ4-fast style): fast, allocation-bounded, and a pure
/// function of the input.
pub struct LzCodec;

#[inline]
fn lz_hash(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

impl Codec for LzCodec {
    fn kind(&self) -> CodecKind {
        CodecKind::Lz
    }

    fn encode(&self, raw: &[u8]) -> Vec<u8> {
        if raw.len() < MIN_MATCH + 1 {
            return raw.to_vec();
        }
        let mut out = Vec::with_capacity(raw.len());
        let mut table = vec![usize::MAX; 1 << HASH_BITS];
        let mut lit_start = 0usize;
        let mut i = 0usize;
        let flush_literals = |out: &mut Vec<u8>, raw: &[u8], from: usize, to: usize| {
            let mut p = from;
            while p < to {
                let run = (to - p).min(MAX_LITERAL);
                out.push((run - 1) as u8);
                out.extend_from_slice(&raw[p..p + run]);
                p += run;
            }
        };
        while i + MIN_MATCH <= raw.len() {
            let h = lz_hash(&raw[i..]);
            let cand = table[h];
            table[h] = i;
            let ok = cand != usize::MAX
                && i - cand <= WINDOW
                && raw[cand..cand + MIN_MATCH] == raw[i..i + MIN_MATCH];
            if !ok {
                i += 1;
                continue;
            }
            let limit = (raw.len() - i).min(MAX_MATCH);
            let mut mlen = MIN_MATCH;
            while mlen < limit && raw[cand + mlen] == raw[i + mlen] {
                mlen += 1;
            }
            flush_literals(&mut out, raw, lit_start, i);
            out.push(0x80 | (mlen - MIN_MATCH) as u8);
            out.extend_from_slice(&((i - cand) as u16).to_le_bytes());
            i += mlen;
            lit_start = i;
        }
        flush_literals(&mut out, raw, lit_start, raw.len());
        if out.len() >= raw.len() {
            raw.to_vec()
        } else {
            out
        }
    }

    fn decode(&self, enc: &[u8], raw_len: usize) -> Vec<u8> {
        if enc.len() == raw_len {
            return enc.to_vec();
        }
        let mut out = Vec::with_capacity(raw_len);
        let mut p = 0usize;
        while p < enc.len() && out.len() < raw_len {
            let control = enc[p];
            p += 1;
            if control < 0x80 {
                let run = control as usize + 1;
                out.extend_from_slice(&enc[p..p + run]);
                p += run;
            } else {
                let mlen = (control & 0x7f) as usize + MIN_MATCH;
                let dist = u16::from_le_bytes([enc[p], enc[p + 1]]) as usize;
                p += 2;
                let start = out.len() - dist;
                // Overlapping copies are legal (dist < mlen repeats).
                for k in 0..mlen {
                    let b = out[start + k];
                    out.push(b);
                }
            }
        }
        debug_assert_eq!(out.len(), raw_len, "truncated LZ stream");
        out
    }
}

/// Bytes of its chunk slot a frame of `raw_len` bytes encoded to `enc_len`
/// occupies on a device — the one definition of the stored extent (module
/// doc). Everything past it, up to the next frame, is a hole.
fn stored_extent(enc_len: u64, raw_len: u64) -> u64 {
    enc_len.next_multiple_of(BLOCK_SIZE).min(raw_len)
}

/// Per-node encoded-frame lengths for one mounted/imported dataset.
///
/// Frame `f` of node `n` has the slot
/// `[base + f * chunk, base + min((f + 1) * chunk, data_len))`; its
/// encoded payload occupies the first `lens[f]` of those bytes and its
/// stored extent is all of the slot a device holds.
#[derive(Clone, Debug, Default)]
pub struct NodeFrames {
    /// First byte of the node's staged data region (`data_base`; 0 on
    /// ephemeral mounts).
    pub base: u64,
    /// Raw staged bytes on the node (frames tile this extent).
    pub data_len: u64,
    /// Encoded length of each frame, in frame order.
    pub lens: Vec<u32>,
}

impl NodeFrames {
    /// Frame index covering stored byte `offset` (which must lie inside
    /// the data region).
    pub fn frame_of(&self, chunk: u64, offset: u64) -> usize {
        debug_assert!(offset >= self.base);
        ((offset - self.base) / chunk) as usize
    }

    /// Raw length of frame `f` (the final frame may be short).
    pub fn raw_len(&self, chunk: u64, f: usize) -> usize {
        let start = f as u64 * chunk;
        (self.data_len - start).min(chunk) as usize
    }
}

/// The stored runs of a node's `data_len` bytes of data — `(first block,
/// blocks)` relative to the data region, ascending: all of it under
/// `Identity`, otherwise one [`stored_extent`] per `chunk`-byte frame
/// (encoded to `lens`) with a hole after it. This is what
/// [`crate::integrity::Redundancy`] hands every walker of a data region in
/// place of `0..data blocks`.
pub(crate) fn stored_runs(
    data_len: u64,
    kind: CodecKind,
    chunk: u64,
    lens: &[u32],
) -> Vec<(u64, u64)> {
    if kind == CodecKind::Identity {
        return vec![(0, data_len.div_ceil(BLOCK_SIZE))];
    }
    let run = |(f, &enc): (usize, &u32)| {
        let start = f as u64 * chunk;
        let stored = stored_extent(enc as u64, data_len.saturating_sub(start).min(chunk));
        (start / BLOCK_SIZE, stored.div_ceil(BLOCK_SIZE))
    };
    lens.iter().enumerate().map(run).collect()
}

/// How many of the `len` bytes at `rel` (relative to the data region; a
/// range inside one frame's slot, as a sample and its covering blocks are)
/// are stored. A stored extent starts its slot, so the stored part of such
/// a range is a prefix of it and the rest lies in the hole.
pub(crate) fn stored_len(runs: &[(u64, u64)], rel: u64, len: u64) -> u64 {
    let after = runs.partition_point(|r| r.0 * BLOCK_SIZE <= rel);
    let run = after.checked_sub(1).map(|at| runs[at]);
    let end = run.map_or(0, |(first, blocks)| (first + blocks) * BLOCK_SIZE);
    end.saturating_sub(rel).min(len)
}

/// One extent ready to hit a device — an encoded frame, or a raw sample:
/// its absolute byte offset, its logical bytes (a frame's encoded payload
/// zero-padded to its raw length: what the integrity table and the
/// metadata records hash), how many of them are its [`stored_extent`] (all
/// of a raw sample) — the only ones written and mirrored, the rest of a
/// frame's slot staying a hole — and the samples it holds.
pub(crate) struct StoredFrame {
    pub offset: u64,
    pub stored: Vec<u8>,
    pub extent: usize,
    pub samples: Vec<(u32, SampleEntry)>,
}

/// The write side of the frame tables: accumulates one storage node's
/// staged samples into chunk frames, encoding each completed frame before
/// it is written. Samples arrive in placement order (contiguous within a
/// frame — the placement never lets one straddle), so frames complete
/// strictly in order.
pub(crate) struct FrameStager {
    /// `data_base` of the node (0 on ephemeral mounts).
    base: u64,
    chunk: u64,
    /// Raw bytes of the frame currently filling.
    raw: Vec<u8>,
    /// Samples of the frame currently filling.
    pending: Vec<(u32, SampleEntry)>,
    /// Encoded length of every flushed frame, in frame order.
    pub lens: Vec<u32>,
}

impl FrameStager {
    pub(crate) fn new(base: u64, chunk: u64) -> FrameStager {
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

    /// Stage sample `id`, placed at `entry`; returns the completed previous
    /// frame when this sample opens a new one.
    pub(crate) fn push(
        &mut self,
        id: u32,
        entry: SampleEntry,
        bytes: &[u8],
        codec: &dyn Codec,
    ) -> Result<Option<StoredFrame>, DlfsError> {
        let mut out = None;
        if entry.offset() >= self.frame_start() + self.chunk {
            // The placement padded to the next frame boundary; the frame
            // just closed keeps its full chunk extent (tail is padding).
            out = Some(self.flush(self.chunk as usize, codec)?);
            debug_assert!(entry.offset() < self.frame_start() + self.chunk);
        }
        debug_assert_eq!(self.frame_start() + self.raw.len() as u64, entry.offset());
        self.pending.push((id, entry));
        self.raw.extend_from_slice(bytes);
        Ok(out)
    }

    /// Close the final (possibly short) frame at end of stream.
    pub(crate) fn finish(&mut self, codec: &dyn Codec) -> Result<Option<StoredFrame>, DlfsError> {
        let last = (!self.raw.is_empty()).then(|| self.flush(self.raw.len(), codec));
        last.transpose()
    }

    /// Encode the current frame of `raw_target` logical bytes and emit it.
    fn flush(&mut self, raw_target: usize, codec: &dyn Codec) -> Result<StoredFrame, DlfsError> {
        let offset = self.frame_start();
        self.raw.resize(raw_target, 0); // frame padding is part of the frame
        let mut stored = codec.encode(&self.raw);
        // Checked in every build, before anything is written: a grown frame
        // would be cut short on the device and recorded with a length the
        // decoder cannot honour.
        if stored.len() > raw_target {
            return Err(DlfsError::Config(format!(
                "codec {} grew the {raw_target} B frame at {offset} to {} B",
                codec.kind(),
                stored.len()
            )));
        }
        self.lens.push(stored.len() as u32);
        let extent = stored_extent(stored.len() as u64, raw_target as u64) as usize;
        stored.resize(raw_target, 0);
        self.raw.clear();
        Ok(StoredFrame {
            offset,
            stored,
            extent,
            samples: std::mem::take(&mut self.pending),
        })
    }
}

/// Codec state shared by every reader of an instance: which codec the
/// dataset was stored with, plus the per-node frame tables.
#[derive(Clone, Debug)]
pub struct CodecTables {
    pub kind: CodecKind,
    pub per_node: Vec<NodeFrames>,
}

/// One stored frame as the read paths see it: where it starts on its node,
/// how many blocks hold its encoded prefix, and its encoded / raw lengths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Frame {
    pub kind: CodecKind,
    /// Absolute byte offset of the frame on its node (block-aligned).
    pub start: u64,
    pub enc_blocks: u32,
    pub enc_len: usize,
    pub raw_len: usize,
}

impl CodecTables {
    /// The stored frame covering byte `offset` on node `nid` — the one
    /// lookup every read path (geometry, decode, offload) goes through.
    pub(crate) fn frame(&self, chunk: u64, nid: u16, offset: u64) -> Frame {
        let frames = &self.per_node[nid as usize];
        let f = frames.frame_of(chunk, offset);
        let start = frames.base + f as u64 * chunk;
        debug_assert_eq!(start % BLOCK_SIZE, 0, "frames are block-aligned");
        let (enc_len, raw_len) = (frames.lens[f] as usize, frames.raw_len(chunk, f));
        Frame {
            kind: self.kind,
            start,
            // What a read fetches is the frame's stored extent, in blocks.
            enc_blocks: stored_extent(enc_len as u64, raw_len as u64).div_ceil(BLOCK_SIZE) as u32,
            enc_len,
            raw_len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::rng::SplitMix64;

    fn roundtrip(raw: &[u8]) {
        let c = LzCodec;
        let enc = c.encode(raw);
        assert!(enc.len() <= raw.len(), "codec grew the frame");
        assert_eq!(c.decode(&enc, raw.len()), raw);
    }

    #[test]
    fn lz_roundtrips_structured_and_random_frames() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(&[7u8; 4096]);
        let patterned: Vec<u8> = (0..8192u32).map(|i| (i % 61) as u8).collect();
        let enc = LzCodec.encode(&patterned);
        assert!(enc.len() < patterned.len() / 2, "pattern should compress");
        roundtrip(&patterned);
        let mut rng = SplitMix64::new(42);
        let noise: Vec<u8> = (0..4096).map(|_| rng.next() as u8).collect();
        roundtrip(&noise); // falls back to verbatim
        let mut mixed = patterned.clone();
        mixed.extend_from_slice(&noise);
        roundtrip(&mixed);
    }

    #[test]
    fn lz_encode_is_deterministic() {
        let data: Vec<u8> = (0..20_000u32).map(|i| (i / 7) as u8).collect();
        assert_eq!(LzCodec.encode(&data), LzCodec.encode(&data));
    }

    #[test]
    fn identity_is_verbatim() {
        let data = b"hello world".to_vec();
        let enc = IdentityCodec.encode(&data);
        assert_eq!(enc, data);
        assert_eq!(IdentityCodec.decode(&enc, data.len()), data);
    }

    #[test]
    fn kind_wire_roundtrip() {
        for k in [CodecKind::Identity, CodecKind::Lz] {
            assert_eq!(CodecKind::from_u32(k.to_u32()), Some(k));
        }
        assert_eq!(CodecKind::from_u32(99), None);
    }

    /// Breaks the `Codec::encode` contract: one byte more than it was given.
    struct Grows;

    impl Codec for Grows {
        fn kind(&self) -> CodecKind {
            CodecKind::Lz
        }
        fn encode(&self, raw: &[u8]) -> Vec<u8> {
            [raw, &[0]].concat()
        }
        fn decode(&self, enc: &[u8], raw_len: usize) -> Vec<u8> {
            enc[..raw_len].to_vec()
        }
    }

    /// A codec that grows a frame is refused with a typed error in every
    /// build, before the frame reaches a writer — a release build used to
    /// cut it short on the device and record a length no decoder honours.
    #[test]
    fn a_grown_frame_is_a_typed_error_in_every_build() {
        let mut stager = FrameStager::new(4096, 8192);
        let entry = SampleEntry::new(0, 1, 4096, 700, false);
        assert!(matches!(stager.push(0, entry, &[7; 700], &Grows), Ok(None)));
        let err = stager.finish(&Grows).err().expect("a grown frame");
        assert!(
            matches!(&err, DlfsError::Config(m) if m.contains("grew")),
            "{err}"
        );
        assert!(stager.lens.is_empty(), "no length recorded for it");
        // The contract kept: one block stored of a 700-byte frame.
        let mut stager = FrameStager::new(4096, 8192);
        stager.push(0, entry, &[7; 700], &LzCodec).unwrap();
        let frame = stager.finish(&LzCodec).unwrap().expect("the open frame");
        assert_eq!(
            (frame.offset, frame.extent, frame.stored.len()),
            (4096, 512, 700)
        );
    }

    #[test]
    fn node_frames_geometry() {
        let nf = NodeFrames {
            base: 4096,
            data_len: 10_000,
            lens: vec![100, 4096, 1808],
        };
        assert_eq!(nf.frame_of(4096, 4096), 0);
        assert_eq!(nf.frame_of(4096, 4096 + 8192 + 10), 2);
        assert_eq!(nf.raw_len(4096, 1), 4096);
        assert_eq!(nf.raw_len(4096, 2), 10_000 - 8192);
        // A block of encoded bytes, a verbatim frame, a short verbatim last
        // frame whose extent is capped at its raw length.
        assert_eq!(stored_extent(1808, 1808), 1808);
        let runs = stored_runs(nf.data_len, CodecKind::Lz, 4096, &nf.lens);
        assert_eq!(runs, vec![(0, 1), (8, 8), (16, 4)]);
        let whole = stored_runs(nf.data_len, CodecKind::Identity, 4096, &[]);
        assert_eq!(whole, vec![(0, 20)]);
        // A sample at the back of frame 0 lies in its hole; one straddling
        // the end of the stored block keeps a prefix.
        assert_eq!(stored_len(&runs, 1000, 300), 0);
        assert_eq!(stored_len(&runs, 400, 300), 112);
        assert_eq!(stored_len(&runs, 4096 + 100, 3000), 3000);
    }
}
