//! The page cache: an LRU over 4 KiB pages keyed by (inode, page index).
//!
//! Pages hold real bytes, so cache hits return the same data a device read
//! would. Capacity is bounded; eviction is plain LRU (close enough to the
//! kernel's two-list scheme for a random-read workload, where both degrade
//! to "almost never hit").

use crate::lru::LruMap;
use crate::params::PAGE_SIZE;

/// Key: (inode number, page index within the file or metadata region).
pub type PageKey = (u64, u64);

#[derive(Debug)]
pub struct PageCache {
    pages: LruMap<PageKey, Box<[u8]>>,
}

impl PageCache {
    /// `capacity_bytes` of page cache (rounded down to whole pages).
    pub fn new(capacity_bytes: u64) -> PageCache {
        let pages = (capacity_bytes / PAGE_SIZE).max(1) as usize;
        PageCache {
            pages: LruMap::new(pages),
        }
    }

    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// (hits, misses) of `lookup` calls.
    pub fn stats(&self) -> (u64, u64) {
        self.pages.stats()
    }

    /// Is the page resident? Marks it most-recently-used when it is.
    pub fn lookup(&mut self, key: PageKey) -> Option<&[u8]> {
        self.pages.get(&key).map(|p| &p[..])
    }

    /// Copy a resident page's bytes into `dst` (full page). Returns false on
    /// miss without touching `dst`.
    pub fn read_page(&mut self, key: PageKey, dst: &mut [u8]) -> bool {
        match self.pages.get(&key) {
            Some(p) => {
                dst.copy_from_slice(&p[..dst.len()]);
                true
            }
            None => false,
        }
    }

    /// Insert a page (copies `src`, padding/truncating to PAGE_SIZE).
    pub fn insert(&mut self, key: PageKey, src: &[u8]) {
        let mut page = vec![0u8; PAGE_SIZE as usize].into_boxed_slice();
        let n = src.len().min(PAGE_SIZE as usize);
        page[..n].copy_from_slice(&src[..n]);
        self.pages.insert(key, page);
    }

    /// Mark a page resident without providing content (metadata blocks whose
    /// bytes we model only for cost). Reads of such pages return zeros.
    pub fn insert_cost_only(&mut self, key: PageKey) {
        self.pages
            .insert(key, vec![0u8; PAGE_SIZE as usize].into_boxed_slice());
    }

    pub fn contains(&self, key: PageKey) -> bool {
        self.pages.contains(&key)
    }

    /// Drop everything (echo 3 > /proc/sys/vm/drop_caches).
    pub fn drop_caches(&mut self) {
        self.pages.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_hit() {
        let mut pc = PageCache::new(16 * PAGE_SIZE);
        let data = vec![9u8; PAGE_SIZE as usize];
        pc.insert((7, 0), &data);
        let mut out = vec![0u8; PAGE_SIZE as usize];
        assert!(pc.read_page((7, 0), &mut out));
        assert_eq!(out, data);
        assert!(!pc.read_page((7, 1), &mut out));
    }

    #[test]
    fn capacity_bounds_residency() {
        let mut pc = PageCache::new(4 * PAGE_SIZE);
        for i in 0..100u64 {
            pc.insert((1, i), &[0u8; 4096]);
        }
        assert_eq!(pc.resident_pages(), 4);
        assert!(pc.contains((1, 99)));
        assert!(!pc.contains((1, 0)));
    }

    #[test]
    fn short_insert_pads() {
        let mut pc = PageCache::new(PAGE_SIZE);
        pc.insert((1, 0), &[5u8; 100]);
        let mut out = vec![0xffu8; PAGE_SIZE as usize];
        assert!(pc.read_page((1, 0), &mut out));
        assert!(out[..100].iter().all(|&b| b == 5));
        assert!(out[100..].iter().all(|&b| b == 0));
    }

    #[test]
    fn drop_caches_clears() {
        let mut pc = PageCache::new(8 * PAGE_SIZE);
        pc.insert((1, 0), &[1u8; 4096]);
        pc.drop_caches();
        assert_eq!(pc.resident_pages(), 0);
        assert!(!pc.contains((1, 0)));
    }

    #[test]
    fn hit_miss_accounting() {
        let mut pc = PageCache::new(8 * PAGE_SIZE);
        pc.insert((1, 0), &[0u8; 4096]);
        pc.lookup((1, 0));
        pc.lookup((1, 1));
        assert_eq!(pc.stats(), (1, 1));
    }
}
