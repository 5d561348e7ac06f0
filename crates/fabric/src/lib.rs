//! # fabric — RDMA interconnect and NVMe over Fabrics simulation
//!
//! Models the paper's FDR InfiniBand testbed: per-node full-duplex NICs
//! behind a non-blocking switch ([`topology::Cluster`]), SPDK-style NVMe-oF
//! targets exporting devices to remote clients ([`nvmeof`]), and an RDMA
//! send/recv RPC layer ([`rpc`]) used for metadata protocols.
//!
//! The crucial property (paper §II-A) is preserved: a remote NVMe device
//! behaves like a local one plus a few microseconds, reached through the
//! very same `IoQPair` interface, and data lands zero-copy in registered
//! DMA buffers.

//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use blocksim::{DeviceConfig, DmaBuf, IoQPair, NvmeDevice};
//! use fabric::{connect, Cluster, FabricConfig, NvmeOfTarget, TargetConfig};
//! use simkit::prelude::*;
//!
//! let ((), _) = Runtime::simulate(7, |rt| {
//!     let cluster = Arc::new(Cluster::new(2, FabricConfig::default()));
//!     let dev = NvmeDevice::new(DeviceConfig::emulated_ramdisk(64 << 20, Dur::micros(10)));
//!     dev.storage().write_at(0, b"remote bytes");
//!     let target = NvmeOfTarget::new(1, dev, TargetConfig::default());
//!     // Node 0 reads node 1's device through an ordinary qpair.
//!     let remote = connect(cluster, 0, target);
//!     let mut qp = IoQPair::new(remote, 16);
//!     let buf = DmaBuf::standalone(512);
//!     qp.submit_read(rt, 1, 0, 1, buf.clone(), 0).unwrap();
//!     qp.drain(rt, Dur::nanos(100));
//!     buf.with(|d| assert_eq!(&d[..12], b"remote bytes"));
//! });
//! ```

#![forbid(unsafe_code)]

pub mod fault;
pub mod nvmeof;
pub mod offload;
pub mod rpc;
pub mod shard;
pub mod state;
pub mod topology;

pub use fault::{FabricFault, FabricFaultInjector};
pub use nvmeof::{
    connect, NvmeOfTarget, RemoteTarget, TargetConfig, CAPSULE_BYTES, RESPONSE_BYTES,
};
pub use offload::{OffloadRequestWire, OffloadScheduler, DESCRIPTOR_BYTES};
pub use rpc::{serve, RpcClient, RpcError, WireSize};
pub use shard::{Route, ShardMap, ShardRouter};
pub use state::{Outcome, TargetState, TargetStates};
pub use topology::{Cluster, FabricConfig};
