//! The simulated NVMe device and the `NvmeTarget` abstraction.
//!
//! A device is a *passive timed object*: submitting a command reserves
//! capacity on the device's internal resources (command pipeline, media
//! channels, shared data path) and yields the exact virtual instant the
//! command completes. The submitter — a local qpair or a remote NVMe-oF
//! client — schedules the completion for delivery at that instant. This
//! reservation style keeps the simulation deterministic and avoids spending
//! a scheduler participant per device.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use simkit::resource::{Link, Servers};
use simkit::time::{Dur, Time};

use crate::config::{DeviceConfig, BLOCK_SIZE};
use crate::fault::{FaultInjector, FaultOutcome};
use crate::storage::Storage;

/// Anything a qpair can issue block commands to: a local device, or (in the
/// `fabric` crate) a remote device behind an NVMe-oF target.
pub trait NvmeTarget: Send + Sync {
    /// Reserve service for a read of `nblocks` logical blocks starting at
    /// `slba`, arriving at `now`; returns the completion instant.
    fn reserve_read(&self, now: Time, slba: u64, nblocks: u32) -> Time;

    /// Reserve service for a write.
    fn reserve_write(&self, now: Time, slba: u64, nblocks: u32) -> Time;

    /// Move the data of a completed read into `dst` (the simulated DMA).
    fn dma_read(&self, slba: u64, dst: &mut [u8]);

    /// Move `src` into the device (write payload).
    fn dma_write(&self, slba: u64, src: &[u8]);

    /// Queue depth limit the target supports.
    fn max_queue_depth(&self) -> usize;

    /// Total addressable blocks.
    fn blocks(&self) -> u64;

    /// Human-readable identification.
    fn describe(&self) -> String;

    /// Decide the fate of a command over `[slba, slba + nblocks)` submitted
    /// at `now` (fault injection) — the one fault decision per command:
    /// every submitter, local qpair, NVMe-oF initiator or baseline, asks it
    /// once, and it draws once from the device's stream. Knowing the range,
    /// it fails every command to a killed device and the reads that touch
    /// a sticky bad extent. The default is a healthy device. Remote targets
    /// combine the backing device's outcome with fabric-level faults, which
    /// is why the decision is timestamped: link flaps and target crash
    /// windows are schedules in virtual time.
    fn fault_decide_range(
        &self,
        _now: Time,
        _is_write: bool,
        _slba: u64,
        _nblocks: u32,
    ) -> FaultOutcome {
        FaultOutcome::NONE
    }

    /// Does the range overlap a persistent fault (sticky bad extent or
    /// silent corruption)? Draw-free — scrubbers and offline checkers use
    /// it to locate latent damage without perturbing fault replay.
    fn probe_extent(&self, _slba: u64, _nblocks: u32) -> bool {
        false
    }

    /// Would a read of the range come back without data — the device is
    /// dead, or the range overlaps a sticky bad extent? Draw-free like
    /// [`NvmeTarget::probe_extent`], but blind to silent corruption: it
    /// reports only what a timed read of the range would hit, so untimed
    /// data paths can ask it without learning more than a device tells.
    fn unreadable(&self, _slba: u64, _nblocks: u32) -> bool {
        false
    }

    /// Reserve a storage-side offload batch: read every extent and run its
    /// post-read compute (decode/augment) *where the data lives*, then ship
    /// one dense response of `response_bytes` — the bytes a piece completes
    /// as soon as it is done ([`OffloadPiece::ships`]), the rest assembled
    /// no earlier than `floor` (the instant bytes it carries from an
    /// earlier batch were computed). Returns the instants the response is
    /// assembled and its last byte is available to the submitter.
    ///
    /// The default models a local target: the extent reads pipeline through
    /// the device like ordinary commands and a single implicit compute
    /// context processes each extent as its read lands; there is no fabric,
    /// so `response_bytes` never touches a wire. Remote targets override
    /// this with capsule/processing/NIC stages and a real compute pool.
    fn reserve_offload(
        &self,
        now: Time,
        extents: &[OffloadExtent],
        _response_bytes: u64,
        floor: Time,
    ) -> (Time, Time) {
        let mut cpu = now;
        for e in extents {
            let read_done = self.reserve_read(now, e.slba, e.nblocks);
            cpu = cpu.max(read_done) + e.pieces.iter().map(|p| p.compute).sum();
        }
        (cpu.max(floor), cpu.max(floor))
    }

    /// The handle a replica copy of this target's writes takes to `peer`
    /// (the peer as the caller reaches it). Each copy is submitted right
    /// after the write it copies. The default, a target with no fabric of
    /// its own, has the caller write each copy to `peer` directly from its
    /// submit instant; an NVMe-oF target instead forwards the payload it
    /// just received from its own NIC.
    fn forward_to(&self, peer: &Arc<dyn NvmeTarget>) -> Arc<dyn NvmeTarget> {
        peer.clone()
    }

    /// This device as cluster node `node` reaches it, when it sits behind
    /// a fabric target; `None` for a device reached without one.
    fn reached_from(&self, _node: usize) -> Option<Arc<dyn NvmeTarget>> {
        None
    }

    /// The serial link every read of this target lands through that reads
    /// of other targets share: the ingress of cluster node `n` for a target
    /// behind a fabric, whose payloads cross the reader's one NIC. `None`
    /// — the default — for a device whose reads land through nothing
    /// another target shares.
    fn ingress(&self) -> Option<usize> {
        None
    }
}

/// One extent of a storage-side offload batch: read `nblocks` logical
/// blocks from `slba`, then do its serving-side work (frame decode,
/// augmentation, verification) before its bytes can ship, in independent
/// `pieces` (one per frame of a run of coded frames), each free to run on
/// a compute thread of its own once the read lands.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OffloadExtent {
    pub slba: u64,
    pub nblocks: u32,
    pub pieces: Vec<OffloadPiece>,
}

/// One piece of an extent's post-read work, charged to the target, and the
/// response bytes it completes: those ship the moment it is done.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OffloadPiece {
    pub compute: Dur,
    pub ships: u64,
}

/// A simulated local NVMe SSD.
pub struct NvmeDevice {
    config: DeviceConfig,
    storage: Storage,
    /// Media channels (latency term; bounds IOPS).
    media: Servers,
    /// Shared internal data path (bandwidth term).
    bus: Link,
    /// Command pipeline for fixed per-command overhead.
    pipeline: Servers,
    reads: AtomicU64,
    writes: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    faults: simkit::plock::Mutex<Option<FaultInjector>>,
}

impl std::fmt::Debug for NvmeDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NvmeDevice")
            .field("name", &self.config.name)
            .field("capacity", &self.config.capacity)
            .finish()
    }
}

impl NvmeDevice {
    pub fn new(config: DeviceConfig) -> Arc<NvmeDevice> {
        config.validate().expect("invalid device config");
        Arc::new(NvmeDevice {
            storage: Storage::new(config.capacity),
            media: Servers::new(config.channels),
            bus: Link::new(config.bytes_per_sec, simkit::time::Dur::ZERO),
            pipeline: Servers::new(1),
            config,
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            faults: simkit::plock::Mutex::new(None),
        })
    }

    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    fn check_range(&self, slba: u64, nblocks: u32) {
        let end = slba + nblocks as u64;
        assert!(
            end <= self.config.blocks(),
            "I/O past end of device: lba {slba}+{nblocks} > {}",
            self.config.blocks()
        );
        assert!(nblocks > 0, "zero-length I/O");
    }

    /// Direct, untimed access for test setup / content verification.
    pub fn storage(&self) -> &Storage {
        &self.storage
    }

    /// Attach a fault injector (replace with `None`-like by a fresh healthy
    /// injector to clear).
    pub fn set_faults(&self, injector: FaultInjector) {
        *self.faults.lock() = Some(injector);
    }

    /// Kill the device permanently: every command fails, writes are
    /// dropped, and reads return zeros until [`revive`](Self::revive).
    /// Attaches a healthy injector first if none is present.
    pub fn kill(&self) {
        let mut f = self.faults.lock();
        f.get_or_insert_with(|| FaultInjector::new(0)).kill();
    }

    /// Bring a killed device back (a replacement target behind the same
    /// endpoint). The caller is responsible for resyncing its contents.
    pub fn revive(&self) {
        if let Some(f) = self.faults.lock().as_ref() {
            f.revive();
        }
    }

    pub fn is_dead(&self) -> bool {
        self.faults.lock().as_ref().is_some_and(|f| f.is_dead())
    }

    /// Lifetime statistics: (reads, writes, bytes_read, bytes_written).
    pub fn stats(&self) -> (u64, u64, u64, u64) {
        (
            self.reads.load(Ordering::Relaxed),
            self.writes.load(Ordering::Relaxed),
            self.bytes_read.load(Ordering::Relaxed),
            self.bytes_written.load(Ordering::Relaxed),
        )
    }

    fn reserve(&self, now: Time, nblocks: u32, media_latency: simkit::time::Dur) -> Time {
        let bytes = nblocks as u64 * BLOCK_SIZE;
        // Stage 1: controller command pipeline (fixed overhead, serialized).
        let t1 = self.pipeline.reserve(now, self.config.cmd_overhead);
        // Stage 2: one media channel pays the access latency.
        let t2 = self.media.reserve(t1, media_latency);
        // Stage 3: shared data path moves the payload.
        self.bus.reserve(t2, bytes)
    }
}

impl NvmeTarget for NvmeDevice {
    fn reserve_read(&self, now: Time, slba: u64, nblocks: u32) -> Time {
        self.check_range(slba, nblocks);
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.bytes_read
            .fetch_add(nblocks as u64 * BLOCK_SIZE, Ordering::Relaxed);
        self.reserve(now, nblocks, self.config.read_latency)
    }

    fn reserve_write(&self, now: Time, slba: u64, nblocks: u32) -> Time {
        self.check_range(slba, nblocks);
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.bytes_written
            .fetch_add(nblocks as u64 * BLOCK_SIZE, Ordering::Relaxed);
        self.reserve(now, nblocks, self.config.write_latency)
    }

    fn dma_read(&self, slba: u64, dst: &mut [u8]) {
        // A dead device returns no data: zeros, never stale media bytes a
        // repair path might mistake for a good copy.
        if let Some(f) = self.faults.lock().as_ref() {
            if f.is_dead() {
                dst.fill(0);
                return;
            }
        }
        self.storage.read_at(slba * BLOCK_SIZE, dst);
        // Silent corruption lives "on the media": every read path (timed or
        // untimed) observes the same flipped bits until a rewrite heals it.
        if let Some(f) = self.faults.lock().as_ref() {
            f.corrupt_read(slba, dst);
        }
    }

    fn dma_write(&self, slba: u64, src: &[u8]) {
        if let Some(f) = self.faults.lock().as_ref() {
            if f.is_dead() {
                return; // writes to a dead device vanish
            }
        }
        self.storage.write_at(slba * BLOCK_SIZE, src);
        if let Some(f) = self.faults.lock().as_ref() {
            f.clear_marks(slba, src.len().div_ceil(BLOCK_SIZE as usize) as u32);
        }
    }

    fn max_queue_depth(&self) -> usize {
        self.config.max_queue_depth
    }

    fn blocks(&self) -> u64 {
        self.config.blocks()
    }

    fn describe(&self) -> String {
        format!(
            "local nvme '{}' ({} B)",
            self.config.name, self.config.capacity
        )
    }

    fn fault_decide_range(
        &self,
        _now: Time,
        is_write: bool,
        slba: u64,
        nblocks: u32,
    ) -> FaultOutcome {
        match self.faults.lock().as_ref() {
            Some(f) => f.decide_range(is_write, slba, nblocks),
            None => FaultOutcome::NONE,
        }
    }

    fn probe_extent(&self, slba: u64, nblocks: u32) -> bool {
        match self.faults.lock().as_ref() {
            Some(f) => f.persistent_fault(slba, nblocks),
            None => false,
        }
    }

    fn unreadable(&self, slba: u64, nblocks: u32) -> bool {
        match self.faults.lock().as_ref() {
            Some(f) => f.is_dead() || f.sticky_probe(slba, nblocks),
            None => false,
        }
    }
}

/// Convert a byte range to the covering block range: (slba, nblocks,
/// offset-within-first-block).
pub fn covering_blocks(offset: u64, len: u64) -> (u64, u32, usize) {
    assert!(len > 0, "zero-length range");
    let slba = offset / BLOCK_SIZE;
    let head = offset % BLOCK_SIZE;
    let nblocks = (head + len).div_ceil(BLOCK_SIZE);
    (slba, nblocks as u32, head as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::prelude::*;

    fn dev() -> Arc<NvmeDevice> {
        NvmeDevice::new(DeviceConfig::optane(64 << 20))
    }

    #[test]
    fn covering_blocks_math() {
        assert_eq!(covering_blocks(0, 512), (0, 1, 0));
        assert_eq!(covering_blocks(0, 513), (0, 2, 0));
        assert_eq!(covering_blocks(511, 2), (0, 2, 511));
        assert_eq!(covering_blocks(1024, 512), (2, 1, 0));
        assert_eq!(covering_blocks(1030, 100), (2, 1, 6));
        assert_eq!(covering_blocks(1030, 1000), (2, 2, 6));
    }

    #[test]
    fn single_read_latency() {
        Runtime::simulate(0, |rt| {
            let d = dev();
            let done = d.reserve_read(rt.now(), 0, 8); // 4 KB
                                                       // overhead + latency + 4096/2.2GB/s ≈ 0.7 + 10 + 1.86 us.
            let expect_ns = 700 + 10_000 + (4096.0 / 2.2e9 * 1e9) as u64;
            assert!(
                (done.nanos() as i64 - expect_ns as i64).abs() < 10,
                "done={done:?} expect~{expect_ns}"
            );
        });
    }

    #[test]
    fn iops_ceiling_enforced() {
        Runtime::simulate(0, |rt| {
            let d = dev();
            // Saturate with 4K reads; effective IOPS should approach
            // channels/latency = 6/10us = 600K (bandwidth is not binding:
            // 600K * 4KB = 2.4GB/s > 2.2GB/s, so bus binds slightly lower).
            let n = 8000u64;
            let mut last = Time::ZERO;
            for i in 0..n {
                last = d.reserve_read(rt.now(), (i * 8) % 1000, 8);
            }
            let iops = n as f64 / last.as_secs_f64();
            assert!(
                (480_000.0..560_000.0).contains(&iops),
                "measured {iops} IOPS"
            );
        });
    }

    #[test]
    fn small_reads_are_iops_bound() {
        Runtime::simulate(0, |rt| {
            let d = dev();
            let n = 8000u64;
            let mut last = Time::ZERO;
            for i in 0..n {
                last = d.reserve_read(rt.now(), i % 1000, 1); // 512 B
            }
            let iops = n as f64 / last.as_secs_f64();
            // 512B * 600K = 0.3 GB/s << bus, so the media term binds: ~600K.
            assert!(
                (540_000.0..640_000.0).contains(&iops),
                "measured {iops} IOPS"
            );
        });
    }

    #[test]
    fn large_reads_are_bandwidth_bound() {
        Runtime::simulate(0, |rt| {
            let d = dev();
            let nblk = 2048u32; // 1 MB
            let n = 64u64;
            let mut last = Time::ZERO;
            for i in 0..n {
                last = d.reserve_read(rt.now(), i * nblk as u64, nblk);
            }
            let bw = (n * nblk as u64 * BLOCK_SIZE) as f64 / last.as_secs_f64();
            assert!((2.0e9..2.25e9).contains(&bw), "measured {bw} B/s");
        });
    }

    #[test]
    fn dma_roundtrip_and_stats() {
        Runtime::simulate(0, |rt| {
            let d = dev();
            let payload: Vec<u8> = (0..1024).map(|i| (i % 256) as u8).collect();
            d.reserve_write(rt.now(), 4, 2);
            d.dma_write(4, &payload);
            d.reserve_read(rt.now(), 4, 2);
            let mut out = vec![0u8; 1024];
            d.dma_read(4, &mut out);
            assert_eq!(out, payload);
            let (r, w, br, bw) = d.stats();
            assert_eq!((r, w), (1, 1));
            assert_eq!((br, bw), (1024, 1024));
        });
    }

    #[test]
    fn killed_device_drops_writes_and_zeroes_reads() {
        Runtime::simulate(0, |rt| {
            let d = dev();
            let payload = vec![0xabu8; 512];
            d.reserve_write(rt.now(), 0, 1);
            d.dma_write(0, &payload);
            d.kill();
            assert!(d.is_dead());
            assert!(
                !d.fault_decide_range(rt.now(), false, 0, 1).status.is_ok(),
                "commands fail while dead"
            );
            let mut out = vec![0xffu8; 512];
            d.dma_read(0, &mut out);
            assert_eq!(out, vec![0u8; 512], "dead reads return zeros");
            d.dma_write(8, &payload); // vanishes
            d.revive();
            assert!(!d.is_dead());
            let mut out = vec![0u8; 512];
            d.dma_read(0, &mut out);
            assert_eq!(out, payload, "media survives a kill/revive cycle");
            d.dma_read(8, &mut out);
            assert_eq!(out, vec![0u8; 512], "dead-window write never landed");
        });
    }

    #[test]
    #[should_panic(expected = "past end of device")]
    fn out_of_range_io_panics() {
        Runtime::simulate(0, |rt| {
            let d = dev();
            d.reserve_read(rt.now(), d.blocks(), 1);
        });
    }
}
