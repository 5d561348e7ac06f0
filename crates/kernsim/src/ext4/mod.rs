//! In-memory ext4-like metadata: superblock layout, inode table, directory
//! tree, block allocation.
//!
//! The *contents* of data files are really written to the device; metadata
//! structures are kept functionally in memory while their on-disk locations
//! (inode-table blocks, directory leaf blocks) are tracked so the VFS layer
//! can charge real device I/O for cold metadata access —
//! exactly the cost the paper's Fig. 10 attributes to "complex inode and
//! block management".

pub mod alloc;
pub mod dir;
pub mod inode;

use std::collections::HashMap;

use self::alloc::BitmapAllocator;
use self::dir::Directory;
use self::inode::{Inode, InodeKind, INODE_SIZE};
use crate::params::PAGE_SIZE;

/// Root directory inode number (as in ext*).
pub const ROOT_INO: u64 = 2;

/// Filesystem layout + metadata.
#[derive(Debug)]
pub struct Ext4Meta {
    /// Total fs blocks on the device.
    pub fs_blocks: u64,
    /// First block of the on-disk inode table.
    pub inode_table_start: u64,
    /// Blocks reserved for the inode table.
    pub inode_table_blocks: u64,
    pub allocator: BitmapAllocator,
    inodes: HashMap<u64, Inode>,
    dirs: HashMap<u64, Directory>,
    /// Physical leaf-block placement per directory: dir ino → first block.
    dir_block_base: HashMap<u64, u64>,
    dir_block_len: HashMap<u64, u64>,
    next_ino: u64,
}

/// Errors from metadata operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    NotFound(String),
    NotADirectory(String),
    AlreadyExists(String),
    NoSpace,
    BadDescriptor,
    /// The device kept failing a read through every retry (EIO).
    Io {
        attempts: u32,
    },
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsError::NotFound(p) => write!(f, "no such file or directory: {p}"),
            FsError::NotADirectory(p) => write!(f, "not a directory: {p}"),
            FsError::AlreadyExists(p) => write!(f, "already exists: {p}"),
            FsError::NoSpace => write!(f, "no space left on device"),
            FsError::BadDescriptor => write!(f, "bad file descriptor"),
            FsError::Io { attempts } => write!(f, "I/O error after {attempts} attempts"),
        }
    }
}

impl std::error::Error for FsError {}

impl Ext4Meta {
    /// Lay out a filesystem over `device_bytes`: superblock+bitmaps (64
    /// blocks), inode table sized for `max_inodes`, a journal region (1024
    /// blocks), then the data area. Nothing writes the journal — the
    /// baseline is only ever read — but its region stays reserved so file
    /// data lands on the blocks ext4 would give it.
    pub fn mkfs(device_bytes: u64, max_inodes: u64) -> Ext4Meta {
        let fs_blocks = device_bytes / PAGE_SIZE;
        let reserved = 64u64;
        let inodes_per_block = PAGE_SIZE / INODE_SIZE;
        // Cap the inode table at 1/8 of the device (ext4's default ratio is
        // one inode per 16 KiB, i.e. 1/64; callers asking for more inodes
        // than the device supports get the clamped maximum).
        let max_inodes = max_inodes
            .min(fs_blocks / 8 * inodes_per_block)
            .max(inodes_per_block);
        let inode_table_blocks = max_inodes.div_ceil(inodes_per_block);
        let journal_start = reserved + inode_table_blocks;
        let journal_blocks = 1024u64.min(fs_blocks / 32).max(4);
        let data_start = journal_start + journal_blocks;
        assert!(
            data_start + 16 < fs_blocks,
            "device too small for requested inode count"
        );
        let mut meta = Ext4Meta {
            fs_blocks,
            inode_table_start: reserved,
            inode_table_blocks,
            allocator: BitmapAllocator::new(data_start, fs_blocks - data_start),
            inodes: HashMap::new(),
            dirs: HashMap::new(),
            dir_block_base: HashMap::new(),
            dir_block_len: HashMap::new(),
            next_ino: ROOT_INO + 1,
        };
        meta.inodes
            .insert(ROOT_INO, Inode::new(ROOT_INO, InodeKind::Dir));
        meta.dirs.insert(ROOT_INO, Directory::new());
        meta
    }

    pub fn inode(&self, ino: u64) -> Option<&Inode> {
        self.inodes.get(&ino)
    }

    pub fn inode_mut(&mut self, ino: u64) -> Option<&mut Inode> {
        self.inodes.get_mut(&ino)
    }

    pub fn dir(&self, ino: u64) -> Option<&Directory> {
        self.dirs.get(&ino)
    }

    pub fn inode_count(&self) -> usize {
        self.inodes.len()
    }

    /// The on-disk fs block holding inode `ino`'s descriptor.
    pub fn inode_block_of(&self, ino: u64) -> u64 {
        let inodes_per_block = PAGE_SIZE / INODE_SIZE;
        self.inode_table_start + (ino / inodes_per_block).min(self.inode_table_blocks - 1)
    }

    /// Physical fs block of a directory's `leaf`-th leaf block, allocating
    /// or growing the directory's block run as needed.
    pub fn dir_leaf_physical(&mut self, dir_ino: u64, leaf: u64) -> Result<u64, FsError> {
        let need = self
            .dirs
            .get(&dir_ino)
            .ok_or(FsError::BadDescriptor)?
            .leaf_blocks();
        let have = self.dir_block_len.get(&dir_ino).copied().unwrap_or(0);
        if need > have {
            // Re-place the directory's leaves in one contiguous run (ext4
            // would split; one run keeps the model simple and only makes the
            // baseline *faster*, i.e. conservative for DLFS comparisons).
            let grow = (need.max(4)).next_power_of_two();
            let exts = self.allocator.alloc_blocks(grow).ok_or(FsError::NoSpace)?;
            if let (Some(&base), Some(&len)) = (
                self.dir_block_base.get(&dir_ino),
                self.dir_block_len.get(&dir_ino),
            ) {
                if len > 0 {
                    self.allocator.free_extent(base, len);
                }
            }
            self.dir_block_base.insert(dir_ino, exts[0].0);
            self.dir_block_len.insert(dir_ino, grow);
        }
        let base = self.dir_block_base[&dir_ino];
        Ok(base + leaf)
    }

    /// Resolve an absolute path to (parent_dir_ino, file_name, ino).
    /// `ino` is `None` when the final component doesn't exist.
    pub fn resolve(&self, path: &str) -> Result<(u64, String, Option<u64>), FsError> {
        let mut parts = path
            .trim_start_matches('/')
            .split('/')
            .filter(|s| !s.is_empty())
            .peekable();
        let mut cur = ROOT_INO;
        let mut name = String::new();
        while let Some(part) = parts.next() {
            let dir = self
                .dirs
                .get(&cur)
                .ok_or_else(|| FsError::NotADirectory(path.to_string()))?;
            if parts.peek().is_none() {
                name = part.to_string();
                return Ok((cur, name, dir.lookup(part)));
            }
            cur = dir
                .lookup(part)
                .ok_or_else(|| FsError::NotFound(path.to_string()))?;
            if self.inodes.get(&cur).map(|i| i.kind) != Some(InodeKind::Dir) {
                return Err(FsError::NotADirectory(path.to_string()));
            }
        }
        // Path was "/": treat as root.
        Ok((ROOT_INO, name, Some(ROOT_INO)))
    }

    /// Number of `/`-separated components in a path (for resolution cost).
    pub fn components(path: &str) -> u32 {
        path.trim_start_matches('/')
            .split('/')
            .filter(|s| !s.is_empty())
            .count() as u32
    }

    /// Create a directory at `path` (parents must exist).
    pub fn mkdir(&mut self, path: &str) -> Result<u64, FsError> {
        let (parent, name, existing) = self.resolve(path)?;
        if existing.is_some() {
            return Err(FsError::AlreadyExists(path.to_string()));
        }
        let ino = self.next_ino;
        self.next_ino += 1;
        self.inodes.insert(ino, Inode::new(ino, InodeKind::Dir));
        self.dirs.insert(ino, Directory::new());
        self.dirs
            .get_mut(&parent)
            .expect("parent exists")
            .insert(&name, ino);
        Ok(ino)
    }

    /// Create an empty regular file at `path`; returns its inode number.
    pub fn create_file(&mut self, path: &str) -> Result<u64, FsError> {
        let (parent, name, existing) = self.resolve(path)?;
        if existing.is_some() {
            return Err(FsError::AlreadyExists(path.to_string()));
        }
        let ino = self.next_ino;
        self.next_ino += 1;
        self.inodes.insert(ino, Inode::new(ino, InodeKind::File));
        self.dirs
            .get_mut(&parent)
            .expect("parent exists")
            .insert(&name, ino);
        Ok(ino)
    }

    /// Extend a file by `blocks`, returning the allocated extents.
    pub fn extend_file(&mut self, ino: u64, blocks: u64) -> Result<Vec<(u64, u64)>, FsError> {
        let exts = self
            .allocator
            .alloc_blocks(blocks)
            .ok_or(FsError::NoSpace)?;
        let inode = self.inodes.get_mut(&ino).ok_or(FsError::BadDescriptor)?;
        for &(p, l) in &exts {
            inode.append_extent(p, l);
        }
        Ok(exts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mkfs_layout_is_ordered() {
        let mut m = Ext4Meta::mkfs(1 << 30, 100_000);
        // 262 144 blocks: superblock + bitmaps, then 100 000 inodes at 16
        // per block, then the 1024-block journal region, then data.
        assert_eq!(m.fs_blocks, 262_144);
        assert_eq!(m.inode_table_start, 64);
        assert_eq!(m.inode_table_blocks, 6_250);
        let data_start = 7_338; // 64 + 6 250 + 1 024
        assert_eq!(m.allocator.total(), m.fs_blocks - data_start);
        assert!(m.inode(ROOT_INO).is_some());
        // The first file's data lands on the first block past the journal.
        let ino = m.create_file("/f").unwrap();
        assert_eq!(m.extend_file(ino, 3).unwrap(), vec![(data_start, 3)]);
    }

    #[test]
    fn create_and_resolve_nested() {
        let mut m = Ext4Meta::mkfs(1 << 28, 10_000);
        m.mkdir("/data").unwrap();
        m.mkdir("/data/train").unwrap();
        let ino = m.create_file("/data/train/s1.bin").unwrap();
        let (parent, name, found) = m.resolve("/data/train/s1.bin").unwrap();
        assert_eq!(found, Some(ino));
        assert_eq!(name, "s1.bin");
        assert_eq!(m.dir(parent).unwrap().lookup("s1.bin"), Some(ino));
    }

    #[test]
    fn resolve_missing_component_errors() {
        let m = Ext4Meta::mkfs(1 << 28, 1000);
        assert!(matches!(m.resolve("/nope/file"), Err(FsError::NotFound(_))));
    }

    #[test]
    fn create_duplicate_fails() {
        let mut m = Ext4Meta::mkfs(1 << 28, 1000);
        m.create_file("/a").unwrap();
        assert!(matches!(
            m.create_file("/a"),
            Err(FsError::AlreadyExists(_))
        ));
    }

    #[test]
    fn file_through_dir_component_fails() {
        let mut m = Ext4Meta::mkfs(1 << 28, 1000);
        m.create_file("/a").unwrap();
        assert!(matches!(m.resolve("/a/b"), Err(FsError::NotADirectory(_))));
    }

    #[test]
    fn extend_maps_blocks() {
        let mut m = Ext4Meta::mkfs(1 << 28, 1000);
        let ino = m.create_file("/f").unwrap();
        let exts = m.extend_file(ino, 10).unwrap();
        assert!(!exts.is_empty());
        let inode = m.inode(ino).unwrap();
        assert_eq!(inode.blocks(), 10);
        assert!(inode.map_block(9).is_some());
    }

    #[test]
    fn inode_blocks_spread_over_table() {
        let m = Ext4Meta::mkfs(1 << 30, 100_000);
        let b0 = m.inode_block_of(0);
        let b1 = m.inode_block_of(16);
        let bmax = m.inode_block_of(99_999);
        assert_eq!(b0, m.inode_table_start);
        assert_eq!(b1, m.inode_table_start + 1);
        assert!(bmax < m.inode_table_start + m.inode_table_blocks);
    }

    #[test]
    fn dir_leaf_physical_allocates_and_grows() {
        let mut m = Ext4Meta::mkfs(1 << 28, 10_000);
        m.mkdir("/d").unwrap();
        let dino = m.resolve("/d").unwrap().2.unwrap();
        let p0 = m.dir_leaf_physical(dino, 0).unwrap();
        assert!(p0 >= m.inode_table_start);
        // Fill the directory so it needs more leaves.
        for i in 0..500u64 {
            m.create_file(&format!("/d/f{i}")).unwrap();
        }
        let leaves = m.dir(dino).unwrap().leaf_blocks();
        assert!(leaves > 1);
        let p_last = m.dir_leaf_physical(dino, leaves - 1).unwrap();
        assert_eq!(p_last - m.dir_leaf_physical(dino, 0).unwrap(), leaves - 1);
    }

    #[test]
    fn components_count() {
        assert_eq!(Ext4Meta::components("/a/b/c"), 3);
        assert_eq!(Ext4Meta::components("a"), 1);
        assert_eq!(Ext4Meta::components("/"), 0);
    }
}
