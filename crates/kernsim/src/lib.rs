//! # kernsim — a kernel I/O stack with an ext4-like file system
//!
//! The "Ext4" baseline of the DLFS paper, built for real: VFS syscall layer
//! with dentry/inode caches ([`vfs::Ext4Fs`]), an ext4-flavoured on-disk
//! design (inode table, extent trees, htree directories, bitmap allocator —
//! [`ext4`]), an LRU page cache ([`pagecache`]), and a block layer that
//! submits bios, blocks on interrupts and surfaces EIO when a device keeps
//! failing ([`blockio`]). Datasets are staged untimed; only reads are
//! measured.
//!
//! Every sample read through this stack pays the costs DLFS's user-level
//! design avoids: syscall transitions, metadata walks against on-disk
//! blocks, per-bio handling, IRQ + context switch, and copy-to-user
//! ([`params::KernelCosts`]).

//! ## Example
//!
//! ```
//! use blocksim::{DeviceConfig, NvmeDevice};
//! use kernsim::{Ext4Fs, FsOptions, KernelCosts};
//! use simkit::prelude::*;
//!
//! let ((), _) = Runtime::simulate(7, |rt| {
//!     let dev = NvmeDevice::new(DeviceConfig::optane(128 << 20));
//!     let fs = Ext4Fs::mkfs(dev, KernelCosts::default(), FsOptions::default());
//!     fs.mkdir_p("/data").unwrap();
//!     fs.create_untimed("/data/a.bin", &[42u8; 8192]).unwrap();
//!     let fd = fs.open(rt, "/data/a.bin").unwrap();
//!     let mut buf = [0u8; 8192];
//!     assert_eq!(fs.pread(rt, fd, 0, &mut buf).unwrap(), 8192);
//!     assert!(buf.iter().all(|&b| b == 42));
//!     fs.close(rt, fd).unwrap();
//! });
//! ```

#![forbid(unsafe_code)]

pub mod blockio;
pub mod ext4;
pub mod lru;
pub mod pagecache;
pub mod params;
pub mod vfs;

pub use ext4::{Ext4Meta, FsError};
pub use params::{KernelCosts, PAGE_SIZE};
pub use vfs::{Ext4Fs, Fd, FsOptions};
