//! Hashed directories (ext4 htree flavour).
//!
//! Functionally a name → inode map; structurally the entries are spread
//! over directory *leaf blocks* by name hash, exactly the property that
//! determines the I/O cost of a cold lookup: hash the name, read one leaf
//! block, scan it. The leaf-block placement feeds the page-cache / device
//! model during path resolution.

use std::collections::HashMap;

use simkit::rng::fnv1a;

/// Approximate directory entries per 4 KiB leaf block (ext4 dirent ≈ 40 B
/// for short names, minus htree overhead).
pub const ENTRIES_PER_BLOCK: u64 = 96;

#[derive(Debug, Default)]
pub struct Directory {
    entries: HashMap<String, u64>,
}

impl Directory {
    pub fn new() -> Directory {
        Directory::default()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of leaf blocks the directory occupies.
    pub fn leaf_blocks(&self) -> u64 {
        (self.entries.len() as u64)
            .div_ceil(ENTRIES_PER_BLOCK)
            .max(1)
    }

    /// Htree depth: 0 while a single block suffices, then 1 level of index
    /// per ~510 leaf pointers.
    pub fn htree_depth(&self) -> u32 {
        let leaves = self.leaf_blocks();
        if leaves <= 1 {
            0
        } else if leaves <= 510 {
            1
        } else {
            2
        }
    }

    /// The leaf block a name's entry lives in (by name hash).
    pub fn leaf_block_of(&self, name: &str) -> u64 {
        fnv1a(name.as_bytes()) % self.leaf_blocks()
    }

    pub fn insert(&mut self, name: &str, ino: u64) -> Option<u64> {
        self.entries.insert(name.to_string(), ino)
    }

    pub fn lookup(&self, name: &str) -> Option<u64> {
        self.entries.get(name).copied()
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(|s| s.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_lookup() {
        let mut d = Directory::new();
        assert!(d.insert("a.jpg", 10).is_none());
        assert_eq!(d.insert("a.jpg", 11), Some(10));
        assert_eq!(d.lookup("a.jpg"), Some(11));
        assert_eq!(d.lookup("b.jpg"), None);
    }

    #[test]
    fn leaf_blocks_grow_with_entries() {
        let mut d = Directory::new();
        assert_eq!(d.leaf_blocks(), 1);
        for i in 0..(ENTRIES_PER_BLOCK * 3 + 1) {
            d.insert(&format!("f{i}"), i);
        }
        assert_eq!(d.leaf_blocks(), 4);
        assert_eq!(d.htree_depth(), 1);
    }

    #[test]
    fn big_directory_htree_depth() {
        let mut d = Directory::new();
        for i in 0..(ENTRIES_PER_BLOCK * 600) {
            d.insert(&format!("f{i}"), i);
        }
        assert_eq!(d.htree_depth(), 2);
    }

    #[test]
    fn leaf_block_of_is_stable_and_in_range() {
        let mut d = Directory::new();
        for i in 0..1000u64 {
            d.insert(&format!("sample_{i}"), i);
        }
        let b1 = d.leaf_block_of("sample_500");
        let b2 = d.leaf_block_of("sample_500");
        assert_eq!(b1, b2);
        assert!(b1 < d.leaf_blocks());
    }

    #[test]
    fn hash_spreads_entries() {
        let mut d = Directory::new();
        for i in 0..(ENTRIES_PER_BLOCK * 8) {
            d.insert(&format!("sample_{i:06}"), i);
        }
        let leaves = d.leaf_blocks();
        let mut hist = vec![0u64; leaves as usize];
        for name in d.names().map(|s| s.to_string()).collect::<Vec<_>>() {
            hist[d.leaf_block_of(&name) as usize] += 1;
        }
        // No leaf should be empty and none should hold more than 4x the mean.
        let mean = ENTRIES_PER_BLOCK * 8 / leaves;
        for &h in &hist {
            assert!(h > 0, "{hist:?}");
            assert!(h < mean * 4, "{hist:?}");
        }
    }
}
