//! Transparent per-chunk codecs for the staged data region.
//!
//! FanStore-style: every chunk *frame* (the `chunk_size`-aligned tile a
//! fetch item covers) is encoded independently at import/mount time.
//! Samples keep their raw addresses — placement, directory offsets, plan
//! items and cache keys are those of an uncompressed import — but a device
//! holds only each frame's **stored extent**: exactly its encoded bytes.
//! The frames of a node lie **back to back** from the start of its data
//! region, packed to the byte: a compressed frame starts where the
//! previous one's bytes end, a frame stored verbatim (or one that, packed,
//! would not fit the blocks of one chunk) on the next block boundary
//! ([`frame_at`]). So a node's data is one contiguous stored run, and an
//! import writes it in chunk-sized commands. Where frame `f` sits is known
//! from the per-frame encoded lengths persisted in a self-checksummed
//! table region just below `data_base` (see [`crate::layout`], version 3).
//!
//! The read unit of coded data is a **run**: up to K consecutive
//! compressed frames of one node whose covering blocks fit one chunk
//! ([`CodecTables::new`]). One device command reads a run into its first
//! frame's cache chunk; the check that verifies its blocks decodes each
//! frame into a chunk of its own. (An epoch-scoped synchronous miss, which
//! keeps nothing, reads only the frame holding its sample.) [`CodecTables`]
//! is the one lookup from raw addresses to runs and stored frames.
//!
//! Invariants every codec must hold:
//!
//! * `encode` is a pure function of its input (deterministic across runs
//!   and platforms — the simulation replays byte-identically).
//! * `encode(raw).len() <= raw.len()`; an incompressible frame is stored
//!   verbatim, signalled by `enc_len == raw_len`.
//! * `decode(encode(raw), raw.len()) == raw` for every input.
//!
//! Block checksums (the integrity region) cover the stored blocks, and so
//! does verification on every read path, before decoding: a flipped bit in
//! the compressed stream is caught without ever running the decoder over
//! corrupt input. Without verification, a decode that comes back short is
//! how a read path learns the bytes are not a frame
//! ([`crate::CorruptCause::Frame`]); a well-formed frame with wrong bytes
//! is only ever caught by the checksums. The per-sample metadata checksums
//! cover a sample's range of the *logical* frame — encoded bytes, then
//! zeros to the frame's raw length.

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

impl std::str::FromStr for CodecKind {
    type Err = String;

    /// The inverse of `Display`: `identity` or `lz`.
    fn from_str(s: &str) -> Result<CodecKind, String> {
        match s {
            "identity" => Ok(CodecKind::Identity),
            "lz" => Ok(CodecKind::Lz),
            _ => Err(format!("unknown codec {s:?} (identity, lz)")),
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
    /// raw_len` means the frame was stored verbatim. Bytes that are not a
    /// frame this codec wrote decode to fewer than `raw_len` bytes; never
    /// to more, and never to a panic.
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
        // Device bytes need not be a stream the encoder wrote: a token that
        // runs past the stream, reaches back before the output or would
        // write past `raw_len` ends the decode short.
        while out.len() < raw_len {
            let Some(&control) = enc.get(p) else {
                break;
            };
            p += 1;
            if control < 0x80 {
                let run = control as usize + 1;
                match enc.get(p..p + run) {
                    Some(lit) if out.len() + run <= raw_len => out.extend_from_slice(lit),
                    _ => break,
                }
                p += run;
            } else {
                let mlen = (control & 0x7f) as usize + MIN_MATCH;
                let Some(&[lo, hi]) = enc.get(p..p + 2) else {
                    break;
                };
                p += 2;
                let dist = u16::from_le_bytes([lo, hi]) as usize;
                if dist == 0 || dist > out.len() || out.len() + mlen > raw_len {
                    break;
                }
                let start = out.len() - dist;
                // Overlapping copies are legal (dist < mlen repeats).
                for k in 0..mlen {
                    let b = out[start + k];
                    out.push(b);
                }
            }
        }
        out
    }
}

/// Where a `raw`-byte frame encoded to `enc` bytes is stored when the
/// frames before it end `end` bytes into the (block-aligned) data region —
/// the one definition of the packing (module doc): right there when it is
/// compressed, on the next block boundary when it is stored verbatim or
/// when, packed, its bytes would not fit the blocks of one chunk.
fn frame_at(end: u64, enc: u64, raw: u64, chunk: u64) -> u64 {
    if enc < raw && covering(end, end + enc) <= chunk {
        end
    } else {
        end.next_multiple_of(BLOCK_SIZE)
    }
}

/// Where each `chunk`-byte frame of `data_len` raw bytes encoded to `lens`
/// is stored, in bytes from the start of the data region, and — last —
/// where the stored run ends.
fn packed(data_len: u64, chunk: u64, lens: &[u32]) -> Vec<u64> {
    let mut starts = Vec::with_capacity(lens.len() + 1);
    let mut end = 0;
    for (f, &enc) in lens.iter().enumerate() {
        let raw = data_len.saturating_sub(f as u64 * chunk).min(chunk);
        let at = frame_at(end, enc as u64, raw, chunk);
        starts.push(at);
        end = at + enc as u64;
    }
    starts.push(end);
    starts
}

/// Per-node encoded-frame lengths for one mounted/imported dataset.
///
/// Frame `f` of node `n` covers the raw addresses
/// `[base + f * chunk, base + min((f + 1) * chunk, data_len))`; its encoded
/// payload is `lens[f]` bytes, stored `starts[f]` bytes into the data
/// region, right after frame `f − 1`'s (or on the next block boundary).
#[derive(Clone, Debug, Default)]
pub struct NodeFrames {
    /// First byte of the node's staged data region (`data_base`; 0 on
    /// ephemeral mounts).
    pub base: u64,
    /// Raw staged bytes on the node (frames tile this extent).
    pub data_len: u64,
    /// Encoded length of each frame, in frame order.
    pub lens: Vec<u32>,
    /// Byte offset of each frame's stored bytes from `base` ([`packed`])
    /// and, last, where the stored run ends.
    starts: Vec<u64>,
}

impl NodeFrames {
    /// The frames of a node whose `data_len` raw bytes were cut into
    /// `chunk`-byte frames encoded to `lens`.
    pub(crate) fn new(base: u64, data_len: u64, chunk: u64, lens: Vec<u32>) -> NodeFrames {
        let starts = packed(data_len, chunk, &lens);
        NodeFrames {
            base,
            data_len,
            lens,
            starts,
        }
    }

    /// Frame index covering raw byte `offset` (which must lie inside the
    /// data region).
    pub fn frame_of(&self, chunk: u64, offset: u64) -> usize {
        debug_assert!(offset >= self.base);
        ((offset - self.base) / chunk) as usize
    }

    /// Raw length of frame `f` (the final frame may be short).
    pub fn raw_len(&self, chunk: u64, f: usize) -> usize {
        let start = f as u64 * chunk;
        (self.data_len - start).min(chunk) as usize
    }

    /// The device bytes frame `f`'s stored bytes occupy: exactly its
    /// encoded bytes.
    pub fn stored(&self, f: usize) -> std::ops::Range<u64> {
        let at = self.base + self.starts[f];
        at..at + self.lens[f] as u64
    }

    /// The stored frame covering raw byte `offset`.
    pub(crate) fn frame(&self, kind: CodecKind, chunk: u64, offset: u64) -> Frame {
        self.nth(kind, chunk, self.frame_of(chunk, offset))
    }

    /// Stored frame `f`.
    fn nth(&self, kind: CodecKind, chunk: u64, f: usize) -> Frame {
        let start = self.base + f as u64 * chunk;
        debug_assert_eq!(start % BLOCK_SIZE, 0, "frames are block-aligned");
        Frame {
            kind,
            start,
            at: self.base + self.starts[f],
            enc_len: self.lens[f] as usize,
            raw_len: self.raw_len(chunk, f),
        }
    }
}

/// Blocks every copy of a node's `data_len` bytes of data holds — one run
/// from the start of its data region: all of it under `Identity`, the
/// frames' encoded bytes (`lens`) packed back to back otherwise. This is
/// what [`crate::integrity::Redundancy`] hands every walker of a data
/// region.
pub(crate) fn stored_blocks(data_len: u64, kind: CodecKind, chunk: u64, lens: &[u32]) -> u64 {
    if kind == CodecKind::Identity {
        return data_len.div_ceil(BLOCK_SIZE);
    }
    packed(data_len, chunk, lens)[lens.len()].div_ceil(BLOCK_SIZE)
}

/// One extent ready to hit a device — an encoded frame, or a raw sample:
/// its raw address (where its samples' offsets count from), the device
/// address its stored bytes go to (the same for a raw sample; for a frame,
/// where the previous frame's encoded bytes ended, or the next block
/// boundary — `pad` zero bytes on), its logical bytes (a frame's encoded
/// payload zero-padded to its raw length: what the metadata records hash),
/// how many of them are stored (the encoded ones; all of a raw sample) —
/// the only ones written, mirrored and block-checksummed — and the samples
/// it holds.
pub(crate) struct StoredFrame {
    pub offset: u64,
    pub at: u64,
    pub pad: usize,
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
    /// Where the stored bytes of the frames so far end, from `base`.
    end: u64,
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
            end: 0,
            raw: Vec::new(),
            pending: Vec::new(),
            lens: Vec::new(),
        }
    }

    /// Raw address of the frame currently filling.
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
        let extent = stored.len();
        self.lens.push(extent as u32);
        let at = frame_at(self.end, extent as u64, raw_target as u64, self.chunk);
        let pad = (at - self.end) as usize;
        self.end = at + extent as u64;
        stored.resize(raw_target, 0);
        self.raw.clear();
        Ok(StoredFrame {
            offset,
            at: self.base + at,
            pad,
            stored,
            extent,
            samples: std::mem::take(&mut self.pending),
        })
    }
}

/// Codec state shared by every reader of an instance: which codec the
/// dataset was stored with, the per-node frame tables, and how each node's
/// frames are cut into *runs* — the read unit of coded data.
#[derive(Clone, Debug)]
pub struct CodecTables {
    pub kind: CodecKind,
    pub per_node: Vec<NodeFrames>,
    chunk: u64,
    /// Per node, the first frame of each run, ascending.
    runs: Vec<Vec<u32>>,
}

/// One stored frame as the read paths see it: the raw address it starts
/// at, where its encoded bytes sit on the device, and its encoded / raw
/// lengths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Frame {
    pub kind: CodecKind,
    /// Raw address of the frame on its node (chunk-aligned): where its
    /// samples' offsets count from.
    pub start: u64,
    /// Device byte offset of its encoded bytes (block-aligned when it is
    /// stored verbatim).
    pub at: u64,
    pub enc_len: usize,
    pub raw_len: usize,
}

/// Bytes of the blocks covering the device bytes `[at, end)`.
pub(crate) fn covering(at: u64, end: u64) -> u64 {
    end.next_multiple_of(BLOCK_SIZE) - at / BLOCK_SIZE * BLOCK_SIZE
}

impl Frame {
    /// Device byte just past its stored bytes.
    pub(crate) fn end(&self) -> u64 {
        self.at + self.enc_len as u64
    }

    fn verbatim(&self) -> bool {
        self.enc_len == self.raw_len
    }
}

impl CodecTables {
    /// The tables of `per_node`'s `chunk`-byte frames, each node's frames
    /// cut into runs of up to `run` consecutive frames: a run grows by the
    /// next frame while that frame is compressed — a frame stored verbatim
    /// is a run of its own — and the run's stored bytes still fit the
    /// blocks of one chunk, so one device command into one pool chunk
    /// reads it.
    pub(crate) fn new(kind: CodecKind, chunk: u64, run: usize, per_node: Vec<NodeFrames>) -> Self {
        let cut = |nf: &NodeFrames| {
            let mut starts: Vec<u32> = Vec::new();
            let mut head: Option<(Frame, usize)> = None;
            for f in 0..nf.lens.len() {
                let fr = nf.nth(kind, chunk, f);
                match &mut head {
                    Some((h, n))
                        if *n < run
                            && !h.verbatim()
                            && !fr.verbatim()
                            && covering(h.at, fr.end()) <= chunk =>
                    {
                        *n += 1
                    }
                    _ => {
                        starts.push(f as u32);
                        head = Some((fr, 1));
                    }
                }
            }
            starts
        };
        let runs = per_node.iter().map(cut).collect();
        CodecTables {
            kind,
            per_node,
            chunk,
            runs,
        }
    }

    /// The stored frame covering raw byte `offset` on node `nid` — the one
    /// lookup every reader of a mounted coded dataset (decode, rebuild)
    /// goes through; offline fsck asks the [`NodeFrames`] it loads.
    pub(crate) fn frame(&self, nid: u16, offset: u64) -> Frame {
        self.per_node[nid as usize].frame(self.kind, self.chunk, offset)
    }

    /// The raw extent `[start, end)` of the run holding raw byte `offset`
    /// on node `nid`: what [`crate::plan::fetch_extent`] cuts a coded item
    /// from.
    pub(crate) fn run_span(&self, nid: u16, offset: u64) -> (u64, u64) {
        let (nf, runs) = (&self.per_node[nid as usize], &self.runs[nid as usize]);
        let f = nf.frame_of(self.chunk, offset) as u32;
        let r = runs.partition_point(|&s| s <= f);
        // The frames tile the raw data: the next run starts where it ends.
        let end = runs.get(r).map_or(nf.data_len, |&s| s as u64 * self.chunk);
        (nf.base + runs[r - 1] as u64 * self.chunk, nf.base + end)
    }

    /// The stored frames a read of the raw range `[offset, offset + len)`
    /// on node `nid` decodes: every frame the range touches.
    pub(crate) fn frames(&self, nid: u16, offset: u64, len: u64) -> Vec<Frame> {
        let nf = &self.per_node[nid as usize];
        let (first, last) = (offset, offset + len.max(1) - 1);
        let span = nf.frame_of(self.chunk, first)..=nf.frame_of(self.chunk, last);
        span.map(|f| nf.nth(self.kind, self.chunk, f)).collect()
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
        // The contract kept: the encoded bytes of a 700-byte frame stored.
        let mut stager = FrameStager::new(4096, 8192);
        stager.push(0, entry, &[7; 700], &LzCodec).unwrap();
        let frame = stager.finish(&LzCodec).unwrap().expect("the open frame");
        let enc = LzCodec.encode(&[7; 700]).len();
        assert_eq!(
            (frame.offset, frame.at, frame.extent, frame.stored.len()),
            (4096, 4096, enc, 700)
        );
    }

    /// A run is up to K consecutive compressed frames whose covering
    /// blocks fit one chunk; a verbatim frame is a run of its own.
    #[test]
    fn runs_cut_compressed_frames_that_fit_one_chunk() {
        // Verbatim frames 3 and 9; frames 6 and 7 together span 6.5 KiB.
        let lens = vec![100, 100, 100, 4096, 100, 100, 3000, 3000, 100, 1000];
        let nf = NodeFrames::new(0, 9 * 4096 + 1000, 4096, lens);
        let first = |k| {
            let t = CodecTables::new(CodecKind::Lz, 4096, k, vec![nf.clone()]);
            let runs = (0..10).map(|f| t.run_span(0, f * 4096).0 / 4096);
            (runs.collect::<Vec<u64>>(), t.run_span(0, 9 * 4096).1)
        };
        assert_eq!(
            first(2),
            (vec![0, 0, 2, 3, 4, 4, 6, 7, 7, 9], 9 * 4096 + 1000)
        );
        assert_eq!(first(1).0, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn node_frames_geometry() {
        let nf = NodeFrames::new(4096, 10_000, 4096, vec![100, 4096, 1808]);
        assert_eq!(nf.frame_of(4096, 4096), 0);
        assert_eq!(nf.frame_of(4096, 4096 + 8192 + 10), 2);
        assert_eq!(nf.raw_len(4096, 1), 4096);
        assert_eq!(nf.raw_len(4096, 2), 10_000 - 8192);
        // 100 encoded bytes, then two verbatim frames — the short last one
        // too — each from the next block boundary.
        assert_eq!(
            stored_blocks(nf.data_len, CodecKind::Lz, 4096, &nf.lens),
            13
        );
        assert_eq!(
            stored_blocks(nf.data_len, CodecKind::Identity, 4096, &[]),
            20
        );
        let at = |offset| {
            let f = nf.frame(CodecKind::Lz, 4096, offset);
            (f.start, f.at, f.enc_len, f.raw_len)
        };
        assert_eq!(at(4096 + 1000), (4096, 4096, 100, 4096));
        assert_eq!(at(8192), (8192, 4096 + 512, 4096, 4096));
        assert_eq!(at(12288 + 5), (12288, 4096 + 4608, 1808, 1808));
        assert_eq!(nf.stored(0), 4096..4196);
        // Compressed frames pack to the byte; one whose bytes would not fit
        // the blocks of one chunk packed starts on the next block.
        let nf = NodeFrames::new(0, 4 * 4096, 4096, vec![100, 300, 4000, 50]);
        let starts: Vec<u64> = (0..4).map(|f| nf.stored(f).start).collect();
        assert_eq!(starts, [0, 100, 512, 4512]);
        assert_eq!(stored_blocks(nf.data_len, CodecKind::Lz, 4096, &nf.lens), 9);
        // The stager lands each frame where the previous one's bytes ended.
        let mut stager = FrameStager::new(4096, 4096);
        let mut landed = Vec::new();
        for (i, len) in [3000u64, 3000, 700].into_iter().enumerate() {
            let offset = 4096 + i as u64 * 4096;
            let entry = SampleEntry::new(0, i as u64, offset, len, false);
            let bytes = vec![i as u8; len as usize];
            landed.extend(stager.push(i as u32, entry, &bytes, &LzCodec).unwrap());
        }
        landed.extend(stager.finish(&LzCodec).unwrap());
        let mut end = 4096;
        for (i, f) in landed.iter().enumerate() {
            assert_eq!((f.offset, f.at, f.pad), (4096 + i as u64 * 4096, end, 0));
            assert_eq!(f.extent, stager.lens[i] as usize);
            assert!(f.extent < 512, "frame {i} is {} B", f.extent);
            end += f.extent as u64;
        }
    }
}
