//! The VFS/syscall layer: `open`/`pread`/`close`/`readdir` with dentry,
//! inode and page caches, charging the kernel-path costs along the way.
//! Files are staged untimed ([`Ext4Fs::create_untimed`]): the baseline is
//! only ever read.
//!
//! This is the "Ext4" baseline of the paper: every sample read pays syscall
//! transitions, path resolution against on-disk directory blocks, inode
//! loads from the on-disk inode table, page-cache management, block-layer
//! bio handling, an interrupt + context switch per I/O, and a
//! copy-to-user — the stack of Fig. 2(b).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use blocksim::NvmeTarget;
use simkit::plock::Mutex;
use simkit::runtime::Runtime;
use simkit::telemetry::{Counter, Histo, Registry, Snapshot};

use crate::blockio::BlockLayer;
use crate::ext4::inode::INODE_SIZE;
use crate::ext4::{Ext4Meta, FsError};
use crate::lru::LruMap;
use crate::pagecache::PageCache;
use crate::params::{KernelCosts, PAGE_SIZE};

/// Pseudo-inode under which inode-table pages are cached.
const INODE_TABLE_KEY: u64 = 1;

/// File descriptor handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Fd(pub u64);

/// Tuning knobs for a mounted file system.
#[derive(Clone, Debug)]
pub struct FsOptions {
    pub page_cache_bytes: u64,
    pub dcache_entries: usize,
    pub icache_entries: usize,
    pub max_inodes: u64,
}

impl Default for FsOptions {
    fn default() -> Self {
        FsOptions {
            page_cache_bytes: 128 << 20,
            dcache_entries: 65_536,
            icache_entries: 32_768,
            max_inodes: 2_000_000,
        }
    }
}

/// Per-fd state: the inode plus the end of the last read, for the
/// sequential-readahead heuristic.
#[derive(Clone, Copy, Debug)]
struct OpenFile {
    ino: u64,
    last_end: u64,
}

/// Per-syscall telemetry handles, living under `kernsim.vfs.*`.
struct VfsTelemetry {
    syscalls: Counter,
    opens: Counter,
    preads: Counter,
    closes: Counter,
    bytes_read: Counter,
    pread_ns: Histo,
}

impl VfsTelemetry {
    fn new(reg: &Registry) -> VfsTelemetry {
        let reg = reg.scoped("kernsim.vfs");
        VfsTelemetry {
            syscalls: reg.counter("syscalls"),
            opens: reg.counter("opens"),
            preads: reg.counter("preads"),
            closes: reg.counter("closes"),
            bytes_read: reg.counter("bytes_read"),
            pread_ns: reg.histogram("pread_ns"),
        }
    }
}

/// A mounted ext4-like file system over one block device.
pub struct Ext4Fs {
    costs: KernelCosts,
    block: BlockLayer,
    meta: Mutex<Ext4Meta>,
    pcache: Mutex<PageCache>,
    dcache: Mutex<LruMap<String, u64>>,
    icache: Mutex<LruMap<u64, ()>>,
    fds: Mutex<HashMap<u64, OpenFile>>, // fd -> open state
    next_fd: AtomicU64,
    /// Hint used for lock-contention cost modelling.
    active_threads: AtomicUsize,
    registry: Registry,
    tel: VfsTelemetry,
}

impl std::fmt::Debug for Ext4Fs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ext4Fs")
            .field("inodes", &self.meta.lock().inode_count())
            .finish()
    }
}

impl Ext4Fs {
    /// Format and mount a file system over `dev`, with telemetry recorded
    /// under `kernsim.vfs.*` in a registry of its own.
    pub fn mkfs(dev: Arc<dyn NvmeTarget>, costs: KernelCosts, opts: FsOptions) -> Arc<Ext4Fs> {
        let device_bytes = dev.blocks() * blocksim::BLOCK_SIZE;
        let registry = Registry::new();
        Arc::new(Ext4Fs {
            tel: VfsTelemetry::new(&registry),
            registry,
            block: BlockLayer::new(dev, costs.clone()),
            costs,
            meta: Mutex::new(Ext4Meta::mkfs(device_bytes, opts.max_inodes)),
            pcache: Mutex::new(PageCache::new(opts.page_cache_bytes)),
            dcache: Mutex::new(LruMap::new(opts.dcache_entries)),
            icache: Mutex::new(LruMap::new(opts.icache_entries)),
            fds: Mutex::new(HashMap::new()),
            next_fd: AtomicU64::new(3),
            active_threads: AtomicUsize::new(1),
        })
    }

    /// Declare how many threads are concurrently issuing syscalls (used to
    /// charge shared-lock contention, Fig. 7a's "more cores interfere").
    pub fn set_active_threads(&self, n: usize) {
        self.active_threads.store(n.max(1), Ordering::Relaxed);
    }

    fn syscall_cost(&self, rt: &Runtime) {
        self.tel.syscalls.inc();
        let t = self.active_threads.load(Ordering::Relaxed);
        rt.work(self.costs.syscall + self.costs.contention(t));
    }

    /// Snapshot of the syscall counters and pread latency histogram.
    pub fn metrics(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// Drop page/dentry/inode caches (cold-cache experiments).
    pub fn drop_caches(&self) {
        self.pcache.lock().drop_caches();
        self.dcache.lock().clear();
        self.icache.lock().clear();
    }

    /// Page cache (hits, misses).
    pub fn page_cache_stats(&self) -> (u64, u64) {
        self.pcache.lock().stats()
    }

    /// Create all directories along `path` (untimed helper for setup).
    pub fn mkdir_p(&self, path: &str) -> Result<(), FsError> {
        let mut meta = self.meta.lock();
        let mut cur = String::new();
        for part in path.trim_matches('/').split('/').filter(|s| !s.is_empty()) {
            cur.push('/');
            cur.push_str(part);
            match meta.mkdir(&cur) {
                Ok(_) | Err(FsError::AlreadyExists(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// `open(2)`: path resolution through the dentry cache, directory leaf
    /// blocks and the on-disk inode table.
    pub fn open(&self, rt: &Runtime, path: &str) -> Result<Fd, FsError> {
        self.tel.opens.inc();
        self.syscall_cost(rt);
        let components = Ext4Meta::components(path);
        // Fast path: full-path dentry hit.
        let cached = { self.dcache.lock().get(&path.to_string()).copied() };
        let ino = match cached {
            Some(ino) => {
                rt.work(self.costs.dcache_hit * components.max(1) as u64);
                ino
            }
            None => {
                // Walk: intermediate components assumed dentry-resident
                // (hot directories), final component needs the real lookup.
                rt.work(self.costs.dcache_hit * components.saturating_sub(1).max(1) as u64);
                let (parent, name, found) = {
                    let meta = self.meta.lock();
                    meta.resolve(path)?
                };
                let ino = found.ok_or_else(|| FsError::NotFound(path.to_string()))?;
                // Read the directory leaf block holding the entry.
                let (leaf_phys, htree_depth) = {
                    let mut meta = self.meta.lock();
                    let dir = meta.dir(parent).ok_or(FsError::BadDescriptor)?;
                    let leaf = dir.leaf_block_of(&name);
                    let depth = dir.htree_depth();
                    (meta.dir_leaf_physical(parent, leaf)?, depth)
                };
                rt.work(self.costs.htree_search * (htree_depth as u64 + 1));
                self.read_meta_page(rt, (parent, leaf_phys))?;
                // Load the inode from the inode table.
                let icache_hit = { self.icache.lock().get(&ino).is_some() };
                if icache_hit {
                    rt.work(self.costs.icache_hit);
                } else {
                    let ino_block = { self.meta.lock().inode_block_of(ino) };
                    self.read_meta_page(rt, (INODE_TABLE_KEY, ino_block))?;
                    rt.work(self.costs.icache_hit + self.costs.copy(INODE_SIZE));
                    self.icache.lock().insert(ino, ());
                }
                self.dcache.lock().insert(path.to_string(), ino);
                ino
            }
        };
        let fd = self.next_fd.fetch_add(1, Ordering::Relaxed);
        self.fds.lock().insert(fd, OpenFile { ino, last_end: 0 });
        Ok(Fd(fd))
    }

    /// Read a metadata page through the page cache (cost-only content).
    fn read_meta_page(&self, rt: &Runtime, key: (u64, u64)) -> Result<(), FsError> {
        rt.work(self.costs.pagecache_lookup);
        let hit = { self.pcache.lock().contains(key) };
        if hit {
            self.pcache.lock().lookup(key);
            return Ok(());
        }
        let mut page = vec![0u8; PAGE_SIZE as usize];
        self.block.read_blocks(rt, &[(key.1, 1)], &mut page)?;
        self.pcache.lock().insert_cost_only(key);
        Ok(())
    }

    /// `pread(2)`: read `dst.len()` bytes at `offset`. Returns bytes read
    /// (truncated at end of file).
    pub fn pread(
        &self,
        rt: &Runtime,
        fd: Fd,
        offset: u64,
        dst: &mut [u8],
    ) -> Result<usize, FsError> {
        let started = rt.now();
        self.tel.preads.inc();
        self.syscall_cost(rt);
        let of = *self.fds.lock().get(&fd.0).ok_or(FsError::BadDescriptor)?;
        let ino = of.ino;
        let sequential = offset == of.last_end && offset != 0;
        let size = {
            let meta = self.meta.lock();
            meta.inode(ino).ok_or(FsError::BadDescriptor)?.size
        };
        // An empty file reads as its one mapped block.
        let size = if size == 0 {
            let meta = self.meta.lock();
            meta.inode(ino).map(|i| i.blocks() * PAGE_SIZE).unwrap_or(0)
        } else {
            size
        };
        if offset >= size {
            return Ok(0);
        }
        let len = dst.len().min((size - offset) as usize);
        if let Some(f) = self.fds.lock().get_mut(&fd.0) {
            f.last_end = offset + len as u64;
        }
        let first_page = offset / PAGE_SIZE;
        let mut last_page = (offset + len as u64 - 1) / PAGE_SIZE;
        // Sequential streams trigger readahead: pull the next window into
        // the page cache with this request's bios, so subsequent reads hit.
        // Only when the request actually crosses the cached frontier —
        // otherwise every hit inside an already-fetched window would fetch
        // another window (read amplification).
        let tail_cached = { self.pcache.lock().contains((ino, last_page)) };
        if sequential && !tail_cached {
            let ra_pages = self.costs.max_bio_bytes / PAGE_SIZE;
            let eof_page = (size - 1) / PAGE_SIZE;
            last_page = (last_page + ra_pages).min(eof_page);
        }

        // Walk pages: satisfy from page cache, batch misses into runs.
        let mut page_buf = vec![0u8; PAGE_SIZE as usize];
        let mut miss_run: Option<(u64, u64)> = None; // (first logical page, count)
        let mut runs: Vec<(u64, u64)> = Vec::new();
        for page in first_page..=last_page {
            rt.work(self.costs.pagecache_lookup);
            let hit = { self.pcache.lock().contains((ino, page)) };
            if hit {
                if let Some(r) = miss_run.take() {
                    runs.push(r);
                }
            } else {
                match &mut miss_run {
                    Some((_, c)) => *c += 1,
                    None => miss_run = Some((page, 1)),
                }
            }
        }
        if let Some(r) = miss_run.take() {
            runs.push(r);
        }

        // Fetch every missing run from the device and populate the cache.
        for (lpage, count) in runs {
            let phys_runs = {
                let meta = self.meta.lock();
                meta.inode(ino)
                    .ok_or(FsError::BadDescriptor)?
                    .map_range(lpage, count)
            };
            let mut buf = vec![0u8; (count * PAGE_SIZE) as usize];
            self.block.read_blocks(rt, &phys_runs, &mut buf)?;
            let mut pc = self.pcache.lock();
            for i in 0..count {
                let s = (i * PAGE_SIZE) as usize;
                pc.insert((ino, lpage + i), &buf[s..s + PAGE_SIZE as usize]);
            }
        }

        // Assemble the answer from the (now resident) pages + copy_to_user.
        let mut done = 0usize;
        while done < len {
            let pos = offset + done as u64;
            let page = pos / PAGE_SIZE;
            let within = (pos % PAGE_SIZE) as usize;
            let n = (PAGE_SIZE as usize - within).min(len - done);
            let ok = self.pcache.lock().read_page((ino, page), &mut page_buf);
            assert!(ok, "page {page} evicted mid-read (cache too small)");
            dst[done..done + n].copy_from_slice(&page_buf[within..within + n]);
            done += n;
        }
        rt.work(self.costs.copy(len as u64));
        self.tel.bytes_read.add(len as u64);
        self.tel.pread_ns.record_dur(rt.now() - started);
        Ok(len)
    }

    /// `close(2)`.
    pub fn close(&self, rt: &Runtime, fd: Fd) -> Result<(), FsError> {
        self.tel.closes.inc();
        self.syscall_cost(rt);
        self.fds
            .lock()
            .remove(&fd.0)
            .map(|_| ())
            .ok_or(FsError::BadDescriptor)
    }

    /// Create a file with `data` without charging any virtual time: dataset
    /// staging is set-up, not a measured quantity. Metadata and extents are
    /// allocated as ext4 would and the bytes land on the device; caches
    /// stay cold.
    pub fn create_untimed(&self, path: &str, data: &[u8]) -> Result<(), FsError> {
        let runs = {
            let mut meta = self.meta.lock();
            let ino = meta.create_file(path)?;
            let blocks = (data.len() as u64).div_ceil(PAGE_SIZE).max(1);
            let exts = meta.extend_file(ino, blocks)?;
            if let Some(inode) = meta.inode_mut(ino) {
                inode.size = data.len() as u64;
            }
            exts
        };
        // Deposit the bytes directly (no bios, no clock).
        let dev = self.block.device();
        let mut cursor = 0usize;
        for &(start, len) in &runs {
            let bytes = ((len * PAGE_SIZE) as usize).min(data.len() - cursor);
            if bytes == 0 {
                break;
            }
            dev.dma_write(
                start * crate::blockio::DEV_BLOCKS_PER_FS_BLOCK,
                &data[cursor..cursor + bytes],
            );
            cursor += bytes;
        }
        Ok(())
    }

    /// Create a file's metadata only (no payload): enough for experiments
    /// that measure `open` cost (Fig. 10) on directories of millions of
    /// files without materializing contents.
    pub fn stage_meta_only(&self, path: &str, size: u64) -> Result<(), FsError> {
        let mut meta = self.meta.lock();
        let ino = meta.create_file(path)?;
        let blocks = size.div_ceil(PAGE_SIZE).max(1);
        meta.extend_file(ino, blocks)?;
        if let Some(inode) = meta.inode_mut(ino) {
            inode.size = size;
        }
        Ok(())
    }

    /// `getdents(2)`-flavoured directory listing: returns the names in a
    /// directory, charging one syscall plus a leaf-block read per
    /// ~`ENTRIES_PER_BLOCK` entries (readdir walks every leaf).
    pub fn readdir(&self, rt: &Runtime, path: &str) -> Result<Vec<String>, FsError> {
        self.syscall_cost(rt);
        let (dir_ino, names, leaves) = {
            let meta = self.meta.lock();
            let ino = meta
                .resolve(path)?
                .2
                .ok_or_else(|| FsError::NotFound(path.to_string()))?;
            let dir = meta
                .dir(ino)
                .ok_or_else(|| FsError::NotADirectory(path.to_string()))?;
            let names: Vec<String> = dir.names().map(|s| s.to_string()).collect();
            (ino, names, dir.leaf_blocks())
        };
        for leaf in 0..leaves {
            let phys = {
                let mut meta = self.meta.lock();
                meta.dir_leaf_physical(dir_ino, leaf)?
            };
            self.read_meta_page(rt, (dir_ino, phys))?;
        }
        Ok(names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blocksim::{DeviceConfig, NvmeDevice};

    use simkit::time::Dur;

    fn mkfs() -> Arc<Ext4Fs> {
        let dev = NvmeDevice::new(DeviceConfig::optane(256 << 20));
        Ext4Fs::mkfs(dev, KernelCosts::default(), FsOptions::default())
    }

    #[test]
    fn create_read_roundtrip() {
        Runtime::simulate(0, |rt| {
            let fs = mkfs();
            fs.mkdir_p("/data").unwrap();
            let payload: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
            fs.create_untimed("/data/f1", &payload).unwrap();
            let fd = fs.open(rt, "/data/f1").unwrap();
            let mut out = vec![0u8; payload.len()];
            let n = fs.pread(rt, fd, 0, &mut out).unwrap();
            assert_eq!(n, payload.len());
            assert_eq!(out, payload);
            fs.close(rt, fd).unwrap();
        });
    }

    #[test]
    fn pread_at_offset_and_past_eof() {
        Runtime::simulate(0, |rt| {
            let fs = mkfs();
            let payload: Vec<u8> = (0..5000).map(|i| (i % 7) as u8).collect();
            fs.create_untimed("/f", &payload).unwrap();
            let fd = fs.open(rt, "/f").unwrap();
            let mut out = vec![0u8; 100];
            assert_eq!(fs.pread(rt, fd, 4900, &mut out).unwrap(), 100);
            assert_eq!(out[..], payload[4900..5000]);
            assert_eq!(fs.pread(rt, fd, 5000, &mut out).unwrap(), 0);
            let mut big = vec![0u8; 200];
            assert_eq!(fs.pread(rt, fd, 4950, &mut big).unwrap(), 50);
        });
    }

    #[test]
    fn open_missing_file_fails() {
        Runtime::simulate(0, |rt| {
            let fs = mkfs();
            assert!(matches!(fs.open(rt, "/nope"), Err(FsError::NotFound(_))));
        });
    }

    #[test]
    fn warm_open_is_much_cheaper_than_cold() {
        Runtime::simulate(0, |rt| {
            let fs = mkfs();
            fs.mkdir_p("/d").unwrap();
            for i in 0..200 {
                fs.create_untimed(&format!("/d/f{i}"), &[0u8; 512]).unwrap();
            }
            fs.drop_caches();
            let t0 = rt.now();
            let fd = fs.open(rt, "/d/f7").unwrap();
            let cold = rt.now() - t0;
            fs.close(rt, fd).unwrap();
            let t1 = rt.now();
            let fd = fs.open(rt, "/d/f7").unwrap();
            let warm = rt.now() - t1;
            fs.close(rt, fd).unwrap();
            // Cold open reads directory leaf + inode block from the device
            // (>20us); warm open is dentry-cache only (<5us).
            assert!(cold > Dur::micros(20), "cold {cold:?}");
            assert!(warm < Dur::micros(5), "warm {warm:?}");
            assert!(cold.as_nanos() > warm.as_nanos() * 5);
        });
    }

    #[test]
    fn page_cache_hit_read_is_cheaper() {
        Runtime::simulate(0, |rt| {
            let fs = mkfs();
            let payload = vec![3u8; 65536];
            fs.create_untimed("/f", &payload).unwrap();
            fs.drop_caches();
            let fd = fs.open(rt, "/f").unwrap();
            let mut out = vec![0u8; 65536];
            let t0 = rt.now();
            fs.pread(rt, fd, 0, &mut out).unwrap();
            let cold = rt.now() - t0;
            let t1 = rt.now();
            fs.pread(rt, fd, 0, &mut out).unwrap();
            let hot = rt.now() - t1;
            assert!(
                cold.as_nanos() > hot.as_nanos() * 2,
                "cold {cold:?} hot {hot:?}"
            );
            let (hits, _misses) = fs.page_cache_stats();
            assert!(hits > 0);
        });
    }

    #[test]
    fn contention_raises_syscall_cost() {
        Runtime::simulate(0, |rt| {
            let fs = mkfs();
            fs.create_untimed("/f", &[1u8; 512]).unwrap();
            let fd = fs.open(rt, "/f").unwrap();
            let mut out = vec![0u8; 512];
            fs.pread(rt, fd, 0, &mut out).unwrap(); // warm the cache
            let t0 = rt.now();
            fs.pread(rt, fd, 0, &mut out).unwrap();
            let single = rt.now() - t0;
            fs.set_active_threads(8);
            let t1 = rt.now();
            fs.pread(rt, fd, 0, &mut out).unwrap();
            let contended = rt.now() - t1;
            assert!(contended > single, "{contended:?} <= {single:?}");
        });
    }

    #[test]
    fn bad_fd_errors() {
        Runtime::simulate(0, |rt| {
            let fs = mkfs();
            let mut out = [0u8; 8];
            assert!(matches!(
                fs.pread(rt, Fd(999), 0, &mut out),
                Err(FsError::BadDescriptor)
            ));
            assert!(matches!(fs.close(rt, Fd(999)), Err(FsError::BadDescriptor)));
        });
    }
}
