//! Zero-copy sample delivery — the paper's stated future work (§III-C2):
//! "True zero-copy transfers would require the application buffers to be
//! mapped on the huge pages, which we plan to investigate in future
//! studies."
//!
//! [`ZeroCopySample`] hands the application direct references into the
//! huge-page sample cache instead of memcpy'ing into private buffers. The
//! sample holds a pin on its cache range — a reference to the
//! [`CachedRange`] that owns the chunks — so the chunks return to the pool
//! when the last holder drops, whether or not the engine has retired the
//! range meanwhile. The *copy* stage of the engine disappears entirely.

use std::sync::Arc;

use crate::cache::CachedRange;
use crate::copy::SegList;

/// A sample delivered without copying: segments point straight into pinned
/// huge-page chunks of the sample cache.
pub struct ZeroCopySample {
    pub id: u32,
    segments: SegList,
    len: usize,
    /// Keeps the chunks under `segments` out of the pool.
    _range: Arc<CachedRange>,
}

impl std::fmt::Debug for ZeroCopySample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ZeroCopySample")
            .field("id", &self.id)
            .field("len", &self.len)
            .field("segments", &self.segments.len())
            .finish()
    }
}

impl ZeroCopySample {
    pub(crate) fn new(id: u32, segments: SegList, range: Arc<CachedRange>) -> ZeroCopySample {
        let len = segments.total_bytes();
        ZeroCopySample {
            id,
            segments,
            len,
            _range: range,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Visit the payload in place, segment by segment (no copy).
    pub fn for_each_segment(&self, mut f: impl FnMut(&[u8])) {
        for seg in &self.segments {
            seg.buf.with(|d| f(&d[seg.offset..seg.offset + seg.len]));
        }
    }

    /// Checksum without materializing a contiguous buffer.
    pub fn fnv1a(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        self.for_each_segment(|part| {
            for &b in part {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        });
        h
    }

    /// Materialize a private copy (escape hatch; defeats the purpose in
    /// hot paths).
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len);
        self.for_each_segment(|part| out.extend_from_slice(part));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::SampleCache;
    use crate::config::CacheMode;
    use crate::copy::Segment;

    /// Two samples over one published range read its bytes in place, and
    /// the chunks outlive the engine's retire until the last one drops.
    #[test]
    fn samples_read_in_place_and_the_last_drop_returns_the_chunks() {
        let c = SampleCache::with_mode(64, 4, CacheMode::EpochScoped);
        let content: Vec<u8> = (0..100u8).collect();
        let bufs = c.alloc_for(100).0.unwrap();
        bufs[0].copy_from(0, &content[..64]);
        bufs[1].copy_from(0, &content[64..]);
        let range = c.publish((0, 0), bufs, 100, false);
        let sample = |id, parts: &[(usize, usize)]| {
            let segs = parts.iter().map(|&(b, len)| Segment {
                buf: range.bufs()[b].clone(),
                offset: 0,
                len,
            });
            ZeroCopySample::new(id, SegList::from_iter(segs), range.clone())
        };
        let (s1, s2) = (sample(7, &[(0, 64), (1, 36)]), sample(8, &[(0, 32)]));
        drop(range);
        assert_eq!(s1.len(), 100);
        assert_eq!(s1.to_vec(), content);
        assert_eq!(s1.fnv1a(), simkit::fnv1a(&content));
        assert_eq!(s2.to_vec(), content[..32]);
        // Engine retires the range; chunks stay alive while referenced.
        assert!(c.retire((0, 0)));
        assert_eq!(c.free_chunks(), 2);
        drop(s1);
        assert_eq!(c.free_chunks(), 2);
        drop(s2);
        assert_eq!(c.free_chunks(), 4, "last drop must free the chunks");
    }
}
