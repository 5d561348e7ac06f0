//! Target-resident compute for storage-side offload.
//!
//! The paper's Fig. 11 crossover appears when the fabric, not the device,
//! bounds remote reads: the target ships raw sample bytes and the trainer
//! pays decode/augment after the transfer. OffloadFS-style systems move
//! that compute *to the storage node*: the target reads the stored
//! (possibly compressed) chunk frames, decodes them on a small local
//! compute pool, and assembles the requested samples into one dense
//! response — one fabric transfer per node per mini-batch, carrying
//! exactly the sample bytes, with no per-command capsule/response overhead
//! and no block padding.
//!
//! [`OffloadScheduler`] is that compute pool plus its scheduling policy.
//! It is deliberately simple and deterministic: extent reads pipeline
//! through the backing device like any other command; each piece of an
//! extent (a coded run's frame) then occupies one compute thread for its
//! decode/augment cost; the bytes a piece completes ship as it clears
//! compute, the rest of the response when the last piece does, and never
//! before the floor the request names (the instant an earlier batch
//! computed bytes it carries). [`NvmeOfTarget`]
//! (`nvmeof.rs`) embeds one scheduler per target and exposes the whole
//! request/process/respond exchange through
//! [`NvmeTarget::reserve_offload`](blocksim::NvmeTarget::reserve_offload).
//!
//! [`NvmeOfTarget`]: crate::nvmeof::NvmeOfTarget

use blocksim::{NvmeDevice, NvmeTarget, OffloadExtent};
use simkit::resource::Servers;
use simkit::time::Time;

use crate::rpc::WireSize;

/// Wire size of one extent descriptor inside an offload request capsule
/// (slba + block count + opcode/flags, NVMe-style packing).
pub const DESCRIPTOR_BYTES: u64 = 16;

/// The request side of an offload exchange, as it appears on the wire: a
/// command capsule carrying one descriptor per extent. Shares the RPC
/// layer's [`WireSize`] accounting so fabric byte ledgers agree across
/// the metadata and offload planes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OffloadRequestWire {
    /// Number of extent descriptors in the capsule.
    pub extents: usize,
}

impl WireSize for OffloadRequestWire {
    fn wire_bytes(&self) -> u64 {
        crate::nvmeof::CAPSULE_BYTES + self.extents as u64 * DESCRIPTOR_BYTES
    }
}

/// A storage node's offload engine: a pool of compute threads that
/// decode/augment chunk frames as their device reads land.
pub struct OffloadScheduler {
    compute: Servers,
}

impl OffloadScheduler {
    /// A pool of `threads` compute threads (clamped to at least one).
    pub fn new(threads: usize) -> OffloadScheduler {
        OffloadScheduler {
            compute: Servers::new(threads.max(1)),
        }
    }

    /// Reserve the read + compute stages for a batch issued to `device`
    /// at `issue`; returns the instant the last piece is done, and when
    /// each piece that ships bytes early is done, with those bytes. Reads
    /// all start at `issue` (the device's own queues serialize them); each
    /// piece of an extent starts when its read completes and a pool thread
    /// frees up.
    pub fn reserve_batch(
        &self,
        issue: Time,
        device: &NvmeDevice,
        extents: &[OffloadExtent],
    ) -> (Time, Vec<(Time, u64)>) {
        let (mut ready, mut early) = (issue, Vec::new());
        for e in extents {
            let read_done = device.reserve_read(issue, e.slba, e.nblocks);
            for p in &e.pieces {
                let done = self.compute.reserve(read_done, p.compute);
                ready = ready.max(done);
                if p.ships > 0 {
                    early.push((done, p.ships));
                }
            }
        }
        (ready, early)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blocksim::{DeviceConfig, OffloadPiece};
    use simkit::prelude::*;

    fn extents(n: usize, nblocks: u32, compute: Dur) -> Vec<OffloadExtent> {
        (0..n)
            .map(|i| OffloadExtent {
                slba: i as u64 * nblocks as u64,
                nblocks,
                pieces: vec![OffloadPiece { compute, ships: 0 }],
            })
            .collect()
    }

    #[test]
    fn request_wire_size_counts_descriptors() {
        let r = OffloadRequestWire { extents: 5 };
        assert_eq!(
            r.wire_bytes(),
            crate::nvmeof::CAPSULE_BYTES + 5 * DESCRIPTOR_BYTES
        );
    }

    #[test]
    fn compute_pool_bounds_batch_completion() {
        Runtime::simulate(0, |rt| {
            let dev = NvmeDevice::new(DeviceConfig::emulated_ramdisk(64 << 20, Dur::micros(10)));
            let exts = extents(8, 16, Dur::micros(50));
            // One thread: decode is strictly serialized, so the batch
            // takes at least 8 × 50 µs of compute.
            let one = OffloadScheduler::new(1)
                .reserve_batch(rt.now(), &dev, &exts)
                .0;
            assert!(one - rt.now() >= Dur::micros(8 * 50), "got {:?}", one);
            // Four threads overlap decode with reads and each other.
            let four = OffloadScheduler::new(4)
                .reserve_batch(rt.now(), &dev, &exts)
                .0;
            assert!(four < one, "more compute threads must not be slower");
        });
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        Runtime::simulate(0, |rt| {
            let dev = NvmeDevice::new(DeviceConfig::emulated_ramdisk(64 << 20, Dur::micros(10)));
            let (t, _) = OffloadScheduler::new(0).reserve_batch(
                rt.now(),
                &dev,
                &extents(1, 8, Dur::micros(5)),
            );
            assert!(t > rt.now());
        });
    }
}
