//! # blocksim — simulated NVMe devices with SPDK-like queue pairs
//!
//! The storage substrate for the DLFS reproduction. Provides:
//!
//! - [`device::NvmeDevice`] — a byte-accurate, sparse, in-memory block
//!   device with a calibrated three-term timing model (per-command
//!   overhead, media latency × internal channels, shared data-path
//!   bandwidth). Data written is really stored and read back.
//! - [`qpair::IoQPair`] — SPDK-semantics I/O queue pairs: non-blocking
//!   submission bounded by queue depth, completion discovery only by
//!   polling, not thread-safe (one qpair per submitter).
//! - [`dma::DmaPool`] / [`dma::DmaBuf`] — huge-page buffer pool emulating
//!   SPDK's pinned-memory requirement.
//! - [`device::NvmeTarget`] — the trait remote NVMe-oF targets (crate
//!   `fabric`) implement so the same qpair code drives local and remote
//!   devices.
//!
//! Timing is *reservation-based*: submitting a command computes, against
//! the device's internal FIFO resources, the exact virtual instant it will
//! complete. Devices are passive objects — no scheduler participant each —
//! which keeps 16-node simulations cheap and deterministic.

//! ## Example
//!
//! ```
//! use blocksim::{DeviceConfig, DmaBuf, IoQPair, NvmeDevice};
//! use simkit::prelude::*;
//!
//! let ((), _) = Runtime::simulate(7, |rt| {
//!     let dev = NvmeDevice::new(DeviceConfig::optane(64 << 20));
//!     dev.storage().write_at(0, b"hello nvme");
//!     let mut qp = IoQPair::new(dev, 32);
//!     let buf = DmaBuf::standalone(512);
//!     qp.submit_read(rt, 1, 0, 1, buf.clone(), 0).unwrap();
//!     let comps = qp.drain(rt, Dur::nanos(100)); // busy-poll to completion
//!     assert_eq!(comps.len(), 1);
//!     buf.with(|d| assert_eq!(&d[..10], b"hello nvme"));
//! });
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod device;
pub mod dma;
pub mod fault;
pub mod qpair;
pub mod storage;

pub use config::{DeviceConfig, BLOCK_SIZE};
pub use device::{covering_blocks, NvmeDevice, NvmeTarget, OffloadExtent, OffloadPiece};
pub use dma::{copy_ops, DmaBuf, DmaPool, HUGE_PAGE};
pub use fault::{CmdStatus, FaultInjector, FaultOutcome};
pub use qpair::{Completion, IoQPair, Op, QpairError};
pub use storage::Storage;
