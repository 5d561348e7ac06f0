//! The sample cache: huge-page DMA chunks holding data fetched from
//! local/remote NVMe devices (paper §III-C1).
//!
//! "We allocate the sample cache on huge pages to store the data read from
//! local/remote NVMe devices. ... the cache is divided into many fixed-size
//! chunks (256 KB by default but configurable)."
//!
//! The cache also maintains the residency index behind the sample entries'
//! V field: `(storage node, range start)` → resident range. A range can be
//! *pinned* by a concurrent `dlfs_read` while the bread engine retires it;
//! its chunks stay out of the pool until the last pin drops.
//!
//! # Cross-epoch residency (`CacheMode::CrossEpoch`)
//!
//! With [`CacheMode::EpochScoped`] (the default) a drained range is
//! *retired*: its chunks go straight back to the pool and every epoch
//! refetches everything. With [`CacheMode::CrossEpoch`] a drained range is
//! *released* instead: it stays resident on an evictable LRU tail, and
//! [`SampleCache::alloc_for`] evicts least-recently-used released ranges
//! under pool pressure. The engine and the synchronous read path probe
//! residency ([`SampleCache::pin`]) before posting device fetches, so a
//! working set that fits in the pool is read from the device exactly once
//! across epochs.
//!
//! # Who owns a chunk
//!
//! A *completed* fetch — every command harvested, bytes verified and
//! decoded — is one [`CachedRange`]: it owns its chunks and returns them
//! to the pool when it drops. The residency map holds one `Arc` of each
//! published range and **a pin is an `Arc::clone`** of it, so "who still
//! keeps these chunks out of the pool" is the reference count and nothing
//! else. [`SampleCache::retire`] only removes the map's reference: a range
//! retired under a live pin drains when that pin drops, and the key can be
//! published again meanwhile under fresh chunks (publishing over a *live*
//! range is still a bug and still panics). A range is evictable iff it is
//! released and the map's reference is the only one; that is read under
//! the cache lock, and pins are only minted under the same lock, so no pin
//! can appear between the test and the removal.
//!
//! Chunks of a fetch *in flight* stay loose `DmaBuf`s: a device command
//! holds a clone of each and writes it at harvest time, so their holder
//! frees them explicitly ([`SampleCache::free_raw`]) once the commands are
//! harvested — or were never posted. That is also why [`DmaPool::free`]
//! stays explicit instead of `Drop` on `DmaBuf`: the clones in qpairs and
//! segment lists are views, not owners.

use std::collections::HashMap;
use std::sync::Arc;

use blocksim::{DmaBuf, DmaPool};
use simkit::plock::Mutex;

use crate::config::CacheMode;

/// Key of a resident range: (tenant-qualified storage node id, range
/// start byte). The first component packs `tenant << 16 | node` (see
/// [`range_key`]); with the implicit single tenant 0 it is numerically
/// the bare node id, so single-tenant keys are unchanged.
pub type RangeKey = (u32, u64);

/// Build a [`RangeKey`]: tenants share the pool and eviction clock but
/// never collide on keys, so one tenant's resident ranges are invisible
/// to another's lookups.
#[inline]
pub fn range_key(tenant: crate::tenant::TenantId, node: u16, start: u64) -> RangeKey {
    (((tenant as u32) << 16) | node as u32, start)
}

/// The chunks of one completed fetch ([`SampleCache::wrap`],
/// [`SampleCache::publish`]). Whoever holds it — the residency map, an
/// open fetch item, a zero-copy sample, a synchronous read — keeps the
/// chunks out of the pool; the last holder's drop returns them.
#[derive(Debug)]
pub struct CachedRange {
    bufs: Vec<DmaBuf>,
    len: u64,
    pool: DmaPool,
}

impl CachedRange {
    pub fn bufs(&self) -> &[DmaBuf] {
        &self.bufs
    }

    /// Bytes of the range (from its key's start).
    pub fn bytes(&self) -> u64 {
        self.len
    }
}

impl Drop for CachedRange {
    fn drop(&mut self) {
        for b in self.bufs.drain(..) {
            self.pool.free(b);
        }
    }
}

#[derive(Debug)]
struct Resident {
    /// The map's reference; every other one is a pin.
    range: Arc<CachedRange>,
    /// Fully drained by its epoch: parked on the evictable LRU tail
    /// (`CrossEpoch` only; `EpochScoped` frees on release instead).
    released: bool,
    /// Monotonic recency stamp — larger is more recent; unique, so LRU
    /// eviction order is deterministic.
    stamp: u64,
    /// Published by the prefetcher and not yet used.
    prefetched: bool,
}

#[derive(Debug)]
struct Inner {
    resident: HashMap<RangeKey, Resident>,
    clock: u64,
    /// Chunks currently owned by published ranges.
    resident_chunks: usize,
    evictions: u64,
}

impl Inner {
    /// Look `key` up and refresh its recency.
    fn touch(&mut self, key: RangeKey) -> Option<&mut Resident> {
        let r = self.resident.get_mut(&key)?;
        self.clock += 1;
        r.stamp = self.clock;
        Some(r)
    }
}

/// Fixed-chunk sample cache over a huge-page DMA pool.
pub struct SampleCache {
    pool: DmaPool,
    mode: CacheMode,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for SampleCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SampleCache")
            .field("mode", &self.mode)
            .field("total_chunks", &self.pool.total_chunks())
            .field("free_chunks", &self.pool.available())
            .finish()
    }
}

impl SampleCache {
    pub fn with_mode(chunk_size: usize, chunks: usize, mode: CacheMode) -> SampleCache {
        SampleCache {
            pool: DmaPool::new(chunk_size, chunks),
            mode,
            inner: Mutex::new(Inner {
                resident: HashMap::new(),
                clock: 0,
                resident_chunks: 0,
                evictions: 0,
            }),
        }
    }

    pub fn chunk_size(&self) -> usize {
        self.pool.chunk_size()
    }

    pub fn free_chunks(&self) -> usize {
        self.pool.available()
    }

    pub fn total_chunks(&self) -> usize {
        self.pool.total_chunks()
    }

    /// Ranges evicted so far (diagnostics / benches).
    pub fn evictions(&self) -> u64 {
        self.inner.lock().evictions
    }

    fn chunks_for(&self, len: u64) -> usize {
        (len as usize).div_ceil(self.pool.chunk_size()).max(1)
    }

    /// Grab `need` chunks from the pool, all or nothing.
    fn grab(&self, need: usize) -> Option<Vec<DmaBuf>> {
        if self.pool.available() < need {
            return None;
        }
        let mut bufs = Vec::with_capacity(need);
        for _ in 0..need {
            match self.pool.alloc() {
                Some(b) => bufs.push(b),
                None => {
                    bufs.into_iter().for_each(|b| self.free_raw(b));
                    return None;
                }
            }
        }
        Some(bufs)
    }

    /// Evict the least-recently-used released, unpinned range; false when
    /// nothing is evictable.
    fn evict_one(&self) -> bool {
        let mut g = self.inner.lock();
        let victim = g
            .resident
            .iter()
            .filter(|(_, r)| r.released && Arc::strong_count(&r.range) == 1)
            .min_by_key(|(_, r)| r.stamp)
            .map(|(&k, _)| k);
        let Some(r) = victim.and_then(|key| g.resident.remove(&key)) else {
            return false;
        };
        g.resident_chunks -= r.range.bufs.len();
        g.evictions += 1;
        drop(g); // `r`'s chunks go home outside the cache lock
        true
    }

    /// Allocate the DMA chunks needed to receive `len` bytes, evicting
    /// released ranges (LRU-first) under pool pressure; `None` if the pool
    /// can't satisfy the request even after eviction (backpressure —
    /// everything left is pinned, in flight, or still undelivered). Also
    /// returns how many ranges it evicted, for the caller to report.
    pub fn alloc_for(&self, len: u64) -> (Option<Vec<DmaBuf>>, u64) {
        let need = self.chunks_for(len);
        let mut evicted = 0;
        loop {
            if let Some(bufs) = self.grab(need) {
                return (Some(bufs), evicted);
            }
            if !self.evict_one() {
                return (None, evicted);
            }
            evicted += 1;
        }
    }

    /// Allocate chunks for a *prefetch*: never evicts, and refuses unless
    /// at least `reserve` chunks would remain free afterwards — demand
    /// fetches keep priority over speculative ones.
    pub fn alloc_prefetch(&self, len: u64, reserve: usize) -> Option<Vec<DmaBuf>> {
        let need = self.chunks_for(len);
        if self.pool.available() < need + reserve {
            return None;
        }
        self.grab(need)
    }

    /// Return a loose chunk: one of a fetch that never completed, after
    /// its commands were harvested (or before any was posted).
    pub fn free_raw(&self, buf: DmaBuf) {
        self.pool.free(buf);
    }

    /// Take ownership of the chunks of a completed fetch of `len` bytes
    /// without making it resident.
    pub fn wrap(&self, bufs: Vec<DmaBuf>, len: u64) -> CachedRange {
        CachedRange {
            bufs,
            len,
            pool: self.pool.clone(),
        }
    }

    /// Publish a completed fetch as the resident range `key` and hand back
    /// a pin on it. A `prefetched` range is born released (evictable until
    /// a claim takes it) and flagged so its first use counts as a prefetch
    /// hit. Publishing a key whose previous range is only draining under
    /// old pins starts afresh; publishing over a *live* range panics.
    pub fn publish(
        &self,
        key: RangeKey,
        bufs: Vec<DmaBuf>,
        len: u64,
        prefetched: bool,
    ) -> Arc<CachedRange> {
        let range = Arc::new(self.wrap(bufs, len));
        let mut g = self.inner.lock();
        g.clock += 1;
        let stamp = g.clock;
        g.resident_chunks += range.bufs.len();
        let prev = g.resident.insert(
            key,
            Resident {
                range: range.clone(),
                released: prefetched,
                stamp,
                prefetched,
            },
        );
        assert!(prev.is_none(), "range {key:?} published twice");
        range
    }

    /// Is the range resident (and not merely draining under old pins)?
    pub fn contains(&self, key: RangeKey) -> bool {
        self.inner.lock().resident.contains_key(&key)
    }

    /// The one residency lookup: pin the range `key` if it is resident and
    /// refresh its recency. Returns the pin and whether this was the first
    /// use of a prefetched range. With `claim` — the engine opening a new
    /// epoch's fetch item — the range is also un-released: in use again,
    /// not evictable until the next [`SampleCache::release`].
    pub fn pin(&self, key: RangeKey, claim: bool) -> Option<(Arc<CachedRange>, bool)> {
        let mut g = self.inner.lock();
        let r = g.touch(key)?;
        if claim {
            r.released = false;
        }
        Some((r.range.clone(), std::mem::take(&mut r.prefetched)))
    }

    /// Retire a range: it is no longer resident, and its chunks return to
    /// the pool now, or — if pins are live — when the last pin drops.
    /// False when the range was not resident (already evicted, or retired
    /// by a concurrent teardown).
    pub fn retire(&self, key: RangeKey) -> bool {
        let mut g = self.inner.lock();
        let Some(r) = g.resident.remove(&key) else {
            return false;
        };
        g.resident_chunks -= r.range.bufs.len();
        drop(g); // `r` goes, and with the last pin its chunks, outside the lock
        true
    }

    /// An epoch is done with this range. [`CacheMode::EpochScoped`]:
    /// identical to [`SampleCache::retire`]. [`CacheMode::CrossEpoch`]:
    /// the range stays resident and joins the evictable LRU tail (pins,
    /// if any, keep protecting it until they drop). False when the cache
    /// no longer holds the range.
    pub fn release(&self, key: RangeKey) -> bool {
        match self.mode {
            CacheMode::EpochScoped => self.retire(key),
            CacheMode::CrossEpoch => {
                let mut g = self.inner.lock();
                g.touch(key).map(|r| r.released = true).is_some()
            }
        }
    }

    /// Resident ranges (diagnostics).
    pub fn resident_count(&self) -> usize {
        self.inner.lock().resident.len()
    }

    /// Chunks owned by resident ranges (the `resident_chunks` gauge).
    pub fn resident_chunks(&self) -> usize {
        self.inner.lock().resident_chunks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scoped(chunks: usize) -> SampleCache {
        SampleCache::with_mode(4096, chunks, CacheMode::EpochScoped)
    }

    fn cross(chunks: usize) -> SampleCache {
        SampleCache::with_mode(4096, chunks, CacheMode::CrossEpoch)
    }

    impl SampleCache {
        /// `alloc_for` when the test does not care about evictions.
        fn chunks(&self, len: u64) -> Option<Vec<DmaBuf>> {
            self.alloc_for(len).0
        }
    }

    #[test]
    fn alloc_publish_pin_retire_cycle() {
        let c = scoped(4);
        let bufs = c.chunks(6000).unwrap();
        assert_eq!(bufs.len(), 2);
        assert_eq!(c.free_chunks(), 2);
        drop(c.publish((0, 0), bufs, 6000, false));
        assert!(c.contains((0, 0)));
        let (p, _) = c.pin((0, 0), false).unwrap();
        assert_eq!(p.bufs().len(), 2);
        assert_eq!(p.bytes(), 6000);
        drop(p);
        assert!(c.retire((0, 0)));
        assert_eq!(c.free_chunks(), 4);
        assert!(!c.contains((0, 0)));
    }

    #[test]
    fn alloc_backpressure() {
        let c = scoped(2);
        let a = c.chunks(8000).unwrap();
        assert!(c.chunks(1).is_none());
        drop(c.publish((0, 0), a, 8000, false));
        assert!(c.retire((0, 0)));
        assert!(c.chunks(1).is_some());
    }

    #[test]
    fn retire_while_pinned_defers_free() {
        let c = scoped(2);
        let b = c.chunks(100).unwrap();
        let p = c.publish((1, 0), b, 100, false);
        assert!(c.retire((1, 0)));
        // Chunks not yet back in the pool; range no longer pinnable.
        assert_eq!(c.free_chunks(), 1);
        assert!(c.pin((1, 0), false).is_none());
        assert!(!c.contains((1, 0)));
        drop(p);
        assert_eq!(c.free_chunks(), 2);
        assert_eq!(c.resident_count(), 0);
    }

    #[test]
    fn an_unpublished_range_returns_its_chunks_on_drop() {
        let c = scoped(2);
        let range = c.wrap(c.chunks(8000).unwrap(), 8000);
        assert_eq!((c.free_chunks(), c.resident_count()), (0, 0));
        drop(range);
        assert_eq!(c.free_chunks(), 2);
    }

    #[test]
    fn free_raw_returns_to_pool() {
        let c = scoped(2);
        let mut bufs = c.chunks(8000).unwrap();
        assert_eq!(c.free_chunks(), 0);
        c.free_raw(bufs.pop().unwrap());
        c.free_raw(bufs.pop().unwrap());
        assert_eq!(c.free_chunks(), 2);
    }

    #[test]
    #[should_panic(expected = "published twice")]
    fn live_double_publish_panics() {
        let c = scoped(4);
        let a = c.chunks(10).unwrap();
        let b = c.chunks(10).unwrap();
        c.publish((1, 5), a, 10, false);
        c.publish((1, 5), b, 10, false);
    }

    /// Regression (once: `publish` panicked "published twice"): a range
    /// retired while pinned is invisible to `contains`, so the engine
    /// legitimately refetches and republishes the key while the old pin is
    /// still live. The old range must drain independently, its bytes
    /// intact under distinct chunks.
    #[test]
    fn republish_over_zombie_generation() {
        let c = scoped(4);
        let key = (3, 8192);
        let a = c.chunks(10).unwrap();
        a[0].with_mut(|d| d[0] = 1);
        let old = c.publish(key, a, 10, false);
        assert!(c.retire(key)); // old pin still live
        assert!(!c.contains(key));
        // Engine refetches the same range and republishes it.
        let b = c.chunks(10).unwrap();
        b[0].with_mut(|d| d[0] = 2);
        drop(c.publish(key, b, 10, false));
        assert!(c.contains(key));
        // The new range is independently pinnable, over other chunks…
        let (new, _) = c.pin(key, false).unwrap();
        assert_ne!(new.bufs()[0].index(), old.bufs()[0].index());
        assert_eq!(old.bufs()[0].with(|d| d[0]), 1);
        assert_eq!(new.bufs()[0].with(|d| d[0]), 2);
        // …and dropping the old pin frees only the old range's chunk.
        assert_eq!(c.free_chunks(), 2);
        drop(old);
        assert_eq!(c.free_chunks(), 3);
        drop(new);
        assert!(c.retire(key));
        assert_eq!(c.free_chunks(), 4);
    }

    #[test]
    fn pin_missing_is_none() {
        assert!(scoped(1).pin((9, 9), false).is_none());
    }

    #[test]
    fn epoch_scoped_release_frees_immediately() {
        let c = scoped(2);
        let b = c.chunks(100).unwrap();
        drop(c.publish((0, 0), b, 100, false));
        assert!(c.release((0, 0)));
        assert_eq!(c.free_chunks(), 2);
        assert!(!c.contains((0, 0)));
    }

    #[test]
    fn cross_epoch_release_keeps_resident_and_evicts_lru() {
        let c = cross(2);
        for key in [(0, 0), (0, 4096)] {
            let b = c.chunks(100).unwrap();
            drop(c.publish(key, b, 100, false));
            assert!(c.release(key));
        }
        // Both stay resident; the pool is full but both are evictable.
        assert_eq!(c.free_chunks(), 0);
        assert!(c.contains((0, 0)));
        // Claim (0,0) so (0,4096) becomes the LRU victim.
        let (claimed, _) = c.pin((0, 0), true).unwrap();
        assert_eq!(claimed.bytes(), 100);
        drop(claimed);
        assert!(c.release((0, 0)));
        let _c3 = c.chunks(100).unwrap();
        assert!(c.contains((0, 0)), "recently-used range evicted");
        assert!(!c.contains((0, 4096)), "LRU range not evicted");
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn eviction_never_touches_pinned_or_active_ranges() {
        let c = cross(2);
        // (0,0) released but pinned; (0,4096) active (not released).
        let p = c.publish((0, 0), c.chunks(100).unwrap(), 100, false);
        drop(c.publish((0, 4096), c.chunks(100).unwrap(), 100, false));
        assert!(c.release((0, 0)));
        assert!(c.chunks(1).is_none(), "evicted a pinned/active range");
        drop(p);
        assert!(c.chunks(1).is_some(), "released+unpinned must evict");
    }

    #[test]
    fn prefetched_ranges_are_evictable_and_flag_first_use() {
        let c = cross(2);
        let a = c.alloc_prefetch(100, 0).unwrap();
        drop(c.publish((1, 0), a, 100, true));
        // Prefetched ⇒ born released ⇒ evictable under pressure.
        let (_b1, _b2) = (c.chunks(100).unwrap(), c.chunks(100).unwrap());
        assert!(!c.contains((1, 0)));
        assert_eq!(c.evictions(), 1);
        let d = c.alloc_prefetch(100, 0);
        assert!(d.is_none(), "pool exhausted, prefetch must not evict");
    }

    #[test]
    fn claim_reports_prefetch_hit_once() {
        let c = cross(4);
        let a = c.alloc_prefetch(100, 1).unwrap();
        drop(c.publish((1, 0), a, 100, true));
        let (_, first) = c.pin((1, 0), true).unwrap();
        assert!(first);
        assert!(c.release((1, 0)));
        let (_, second) = c.pin((1, 0), true).unwrap();
        assert!(!second);
    }

    #[test]
    fn alloc_prefetch_honors_reserve() {
        let c = scoped(3);
        let _held = c.chunks(4096).unwrap();
        // 2 free; need 1 + reserve 2 ⇒ refuse.
        assert!(c.alloc_prefetch(100, 2).is_none());
        assert!(c.alloc_prefetch(100, 1).is_some());
    }

    #[test]
    fn alloc_reports_its_evictions_and_residency_follows() {
        let c = cross(3);
        drop(c.publish((0, 0), c.chunks(100).unwrap(), 100, false));
        drop(c.publish((0, 4096), c.chunks(100).unwrap(), 100, false));
        assert_eq!(c.resident_chunks(), 2);
        // (0,0) parked, (0,4096) still active: asking for the whole pool
        // evicts what it may and still comes back empty-handed.
        assert!(c.release((0, 0)));
        let (none, evicted) = c.alloc_for(3 * 4096);
        assert!(none.is_none());
        assert_eq!((evicted, c.evictions(), c.resident_chunks()), (1, 1, 1));
        assert!(c.release((0, 4096)));
        let (all, evicted) = c.alloc_for(3 * 4096);
        assert_eq!(
            (all.unwrap().len(), evicted, c.resident_chunks()),
            (3, 1, 0)
        );
    }

    /// Regression (once: `expect("retire of non-resident range")` aborted
    /// the process): under CrossEpoch an epoch's teardown can retire a
    /// range that an eviction already reclaimed. The interleaving —
    /// publish → release (parked on the LRU tail) → evict under pool
    /// pressure → retire from the teardown — must report `false`, and so
    /// must a release of the vanished range.
    #[test]
    fn retire_after_evict_reports_false() {
        let c = cross(1);
        let a = c.chunks(100).unwrap();
        drop(c.publish((2, 8192), a, 100, false));
        assert!(c.release((2, 8192))); // drained: parked, evictable
        let b = c.chunks(100).unwrap(); // pool pressure: evicts (2, 8192)
        assert!(!c.contains((2, 8192)));
        assert!(!c.retire((2, 8192)));
        assert!(!c.release((2, 8192)));
        for buf in b {
            c.free_raw(buf);
        }
        assert_eq!(c.free_chunks(), 1);
    }
}
