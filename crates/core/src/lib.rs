//! # dlfs — a user-level, read-optimized file system for deep learning
//!
//! Reproduction of **DLFS** from *"Efficient User-Level Storage
//! Disaggregation for Deep Learning"* (Zhu et al., IEEE CLUSTER 2019): a
//! thin file-I/O layer over SPDK-style NVMe-over-Fabrics that serves the
//! many-small-random-reads workload of DNN training from a pool of
//! disaggregated NVMe devices, entirely in user space.
//!
//! ## The pieces (paper section → module)
//!
//! | Paper | Module |
//! |---|---|
//! | §III-A thin API (`dlfs_mount/open/read/close/sequence/bread`) | [`MountBuilder`], [`DlfsIo`] |
//! | §III-B in-memory tree-based sample directory, 128-bit entries | [`SampleDirectory`], [`avl`], [`SampleEntry`] |
//! | §III-C SPDK user-level I/O: sample cache on huge pages, request posting queues, shared completion queue, copy threads | [`cache`], [`DlfsIo`], [`copy`] |
//! | §III-D opportunistic batching: sample-level + chunk-level, edge samples, seeded global sequence | [`plan`], [`BatchMode`] |
//!
//! ## Quick start
//!
//! ```
//! use simkit::prelude::*;
//! use blocksim::{DeviceConfig, NvmeDevice};
//! use dlfs::{DlfsConfig, MountBuilder, SyntheticSource};
//! use dlfs::source::SampleSource;
//!
//! let ((), _end) = Runtime::simulate(42, |rt| {
//!     // A local NVMe device holding a small synthetic dataset.
//!     let dev = NvmeDevice::new(DeviceConfig::optane(64 << 20));
//!     let source = SyntheticSource::fixed(7, 2000, 4096);
//!     let fs = MountBuilder::new(DlfsConfig::default())
//!         .local(dev)
//!         .mount(rt, &source)
//!         .unwrap();
//!
//!     // dlfs_sequence + dlfs_bread: mini-batches of random samples.
//!     let mut io = fs.io(0);
//!     io.sequence(rt, 123, 0);
//!     let batch = io
//!         .submit(rt, &dlfs::ReadRequest::batch(32))
//!         .unwrap()
//!         .into_copied();
//!     assert_eq!(batch.len(), 32);
//!     assert!(batch.iter().all(|(id, data)| data == &source.expected(*id)));
//!
//!     // Every delivery is accounted in the telemetry registry.
//!     let m = io.metrics();
//!     assert_eq!(m.counter("dlfs.io.samples_delivered"), 32);
//! });
//! ```

#![forbid(unsafe_code)]

pub mod avl;
pub mod cache;
mod codec;
mod config;
pub mod copy;
mod directory;
mod entry;
mod error;
mod integrity;
mod io;
mod layout;
mod metashard;
mod mount;
pub mod plan;
mod rebuild;
mod request;
pub mod source;
pub mod tenant;
mod writer;
mod zerocopy;

pub use cache::SampleCache;
pub use codec::{Codec, CodecKind, CodecTables, NodeFrames};
pub use config::{BatchMode, CacheMode, DlfsConfig, DlfsCosts};
pub use directory::{node_for_name, DirectoryBuilder, SampleDirectory};
pub use entry::SampleEntry;
pub use error::{CorruptCause, DirectoryError, DlfsError, IoFailure, LayoutError};
pub use integrity::Redundancy;
pub use io::{DlfsIo, DlfsShared};
pub use layout::{fsck_node, fsck_repair, FsckNodeReport, FsckRepairReport, FsckState, Superblock};
pub use metashard::{shard_of, MetaClient, MetaLookup, MetaService, MetaShardConfig};
pub use mount::{Deployment, DlfsInstance, MountBuilder};
pub use plan::{build_epoch_plan, full_random_order, reader_item_ranges, FetchItem};
pub use request::{Completion, Completions, Delivery, ReadRequest};
pub use source::{SampleSource, SyntheticSource};
pub use tenant::{QosConfig, TenantQos, TenantSpec};
pub use writer::{CheckpointReader, CheckpointWriter};
pub use zerocopy::ZeroCopySample;

/// Counter `name` of `scope`, or — when the subsystem that owns it is not
/// configured, or the caller asked for no telemetry — an unregistered one:
/// counted, never rendered, and bound without touching any registry, so
/// default-config metric renders stay byte-identical.
pub(crate) fn counter_in(
    scope: Option<&simkit::telemetry::Registry>,
    name: &str,
) -> simkit::telemetry::Counter {
    scope.map_or_else(Default::default, |s| s.counter(name))
}
