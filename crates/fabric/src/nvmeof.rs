//! User-level NVMe over Fabrics: SPDK-style targets and remote controllers.
//!
//! An [`NvmeOfTarget`] exports a local NVMe device to the fabric (paper
//! §II-A: "An NVMe-oF Target allows data on an NVMe SSD device to be
//! directly accessible to all connected remote clients through RDMA").
//! A client [`connect`]s to obtain a [`RemoteTarget`] which implements
//! [`blocksim::NvmeTarget`], so the *same* [`blocksim::IoQPair`] code drives
//! local and remote devices — precisely the property DLFS exploits.
//!
//! A remote read is modelled as the real protocol's stages, each reserving
//! the corresponding FIFO resource:
//!
//! 1. command capsule, client → target (64 B over the fabric);
//! 2. target-side SPDK processing (shared per-target poll-thread budget);
//! 3. the backing device's own service (overhead + media + data path);
//! 4. RDMA write of the payload, target → client (zero-copy into the
//!    client's registered DMA buffer).
//!
//! A replica copy of a client's write is forwarded by the target that
//! received it ([`RemoteTarget::forward_to`]): once the payload has landed
//! there, the target's SPDK thread turns it around, sends capsule and
//! payload from its own NIC to the peer, which processes and writes it like
//! any command, and the peer's ack reaches the client through the target.
//! The client's NIC carries the payload once, however many copies it has.

use std::sync::Arc;

use blocksim::{CmdStatus, FaultOutcome, NvmeDevice, NvmeTarget, BLOCK_SIZE};
use simkit::plock::Mutex;
use simkit::resource::Servers;
use simkit::time::{Dur, Time};

use crate::fault::FabricFault;
use crate::topology::Cluster;

/// NVMe-oF command capsule size on the wire.
pub const CAPSULE_BYTES: u64 = 64;

/// Completion response size on the wire.
pub const RESPONSE_BYTES: u64 = 16;

/// Target-side configuration.
#[derive(Clone, Debug)]
pub struct TargetConfig {
    /// CPU cost the target's SPDK poll thread spends per command.
    pub per_cmd_processing: Dur,
    /// Parallelism of the target's processing (poll threads).
    pub threads: usize,
    /// Compute threads of the target's offload engine (frame decode /
    /// augmentation for storage-side offload batches). Idle unless a
    /// client issues `reserve_offload`.
    pub offload_threads: usize,
}

impl Default for TargetConfig {
    fn default() -> Self {
        TargetConfig {
            per_cmd_processing: Dur::micros(2),
            threads: 1,
            offload_threads: 2,
        }
    }
}

/// An SPDK NVMe-oF target exporting one device from one node.
pub struct NvmeOfTarget {
    device: Arc<NvmeDevice>,
    node: usize,
    processing: Servers,
    offload: crate::offload::OffloadScheduler,
    cfg: TargetConfig,
}

impl std::fmt::Debug for NvmeOfTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NvmeOfTarget")
            .field("node", &self.node)
            .field("device", &self.device.config().name)
            .finish()
    }
}

impl NvmeOfTarget {
    pub fn new(node: usize, device: Arc<NvmeDevice>, cfg: TargetConfig) -> Arc<NvmeOfTarget> {
        Arc::new(NvmeOfTarget {
            device,
            node,
            processing: Servers::new(cfg.threads.max(1)),
            offload: crate::offload::OffloadScheduler::new(cfg.offload_threads),
            cfg,
        })
    }

    pub fn node(&self) -> usize {
        self.node
    }

    pub fn device(&self) -> &Arc<NvmeDevice> {
        &self.device
    }
}

/// Client-side handle to a remote NVMe-oF controller; implements
/// [`NvmeTarget`] so ordinary qpairs can drive it.
pub struct RemoteTarget {
    cluster: Arc<Cluster>,
    target: Arc<NvmeOfTarget>,
    client_node: usize,
    /// The latest write's payload, which the target forwards copies of.
    landed: Arc<Mutex<Landed>>,
}

/// Where the payload of a client's latest write stands at its target.
#[derive(Default)]
struct Landed {
    /// When it landed: the earliest a copy of it can leave.
    at: Time,
    /// The fate of a write the fabric lost on the way, which every copy
    /// of it shares.
    lost: Option<FaultOutcome>,
}

impl std::fmt::Debug for RemoteTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteTarget")
            .field("client_node", &self.client_node)
            .field("target_node", &self.target.node)
            .finish()
    }
}

/// Connect `client_node` to a target over the cluster fabric.
pub fn connect(
    cluster: Arc<Cluster>,
    client_node: usize,
    target: Arc<NvmeOfTarget>,
) -> Arc<RemoteTarget> {
    assert!(client_node < cluster.len(), "bad client node");
    assert!(target.node < cluster.len(), "target node outside cluster");
    Arc::new(RemoteTarget {
        cluster,
        target,
        client_node,
        landed: Arc::default(),
    })
}

impl NvmeTarget for RemoteTarget {
    fn reserve_read(&self, now: Time, slba: u64, nblocks: u32) -> Time {
        let data_bytes = nblocks as u64 * BLOCK_SIZE;
        // 1. Command capsule to the target.
        let t1 =
            self.cluster
                .reserve_transfer(now, self.client_node, self.target.node, CAPSULE_BYTES);
        // 2. Target-side SPDK processing.
        let t2 = self
            .target
            .processing
            .reserve(t1, self.target.cfg.per_cmd_processing);
        // 3. Backing device service.
        let t3 = self.target.device.reserve_read(t2, slba, nblocks);
        // 4. RDMA write of payload + completion back to the client.
        self.cluster.reserve_transfer(
            t3,
            self.target.node,
            self.client_node,
            data_bytes + RESPONSE_BYTES,
        )
    }

    fn reserve_write(&self, now: Time, slba: u64, nblocks: u32) -> Time {
        let data_bytes = nblocks as u64 * BLOCK_SIZE;
        // Payload travels with the command (client → target).
        let t1 = self.cluster.reserve_transfer(
            now,
            self.client_node,
            self.target.node,
            CAPSULE_BYTES + data_bytes,
        );
        self.landed.lock().at = t1;
        let t2 = self
            .target
            .processing
            .reserve(t1, self.target.cfg.per_cmd_processing);
        let t3 = self.target.device.reserve_write(t2, slba, nblocks);
        // Completion response only.
        self.cluster
            .reserve_transfer(t3, self.target.node, self.client_node, RESPONSE_BYTES)
    }

    fn dma_read(&self, slba: u64, dst: &mut [u8]) {
        // Zero-copy RDMA lands device data directly in the client's
        // registered buffer; functionally this is a read from the remote
        // device's backing store.
        self.target.device.dma_read(slba, dst);
    }

    fn dma_write(&self, slba: u64, src: &[u8]) {
        self.target.device.dma_write(slba, src);
    }

    fn max_queue_depth(&self) -> usize {
        self.target.device.max_queue_depth()
    }

    fn blocks(&self) -> u64 {
        self.target.device.blocks()
    }

    fn describe(&self) -> String {
        format!(
            "nvme-of node{}→node{} ({})",
            self.client_node,
            self.target.node,
            self.target.device.config().name
        )
    }

    /// Device-level fate first (media errors, latency spikes, death, sticky
    /// extents), then the fabric's verdict on the client ↔ target path
    /// layered on top. A dropped command surfaces as a transport error
    /// after the fabric's I/O timeout — the initiator's qpair sees it
    /// complete then, with no data transferred.
    fn fault_decide_range(
        &self,
        now: Time,
        is_write: bool,
        slba: u64,
        nblocks: u32,
    ) -> FaultOutcome {
        let dev = self
            .target
            .device
            .fault_decide_range(now, is_write, slba, nblocks);
        let fate = match self
            .cluster
            .fault_decide(now, self.client_node, self.target.node)
        {
            FabricFault::Healthy => dev,
            FabricFault::Delay(extra) => FaultOutcome {
                status: dev.status,
                extra_latency: dev.extra_latency + extra,
            },
            FabricFault::Dropped { detect_after } => FaultOutcome {
                status: CmdStatus::TransportError,
                extra_latency: detect_after,
            },
        };
        if is_write {
            let lost = fate.status == CmdStatus::TransportError;
            self.landed.lock().lost = lost.then_some(fate);
        }
        fate
    }

    fn probe_extent(&self, slba: u64, nblocks: u32) -> bool {
        self.target.device.probe_extent(slba, nblocks)
    }

    fn unreadable(&self, slba: u64, nblocks: u32) -> bool {
        self.target.device.unreadable(slba, nblocks)
    }

    fn reserve_offload(
        &self,
        now: Time,
        extents: &[blocksim::OffloadExtent],
        response_bytes: u64,
        floor: Time,
    ) -> (Time, Time) {
        // One request capsule describes the whole batch.
        let req = crate::offload::OffloadRequestWire {
            extents: extents.len(),
        };
        // Fabric faults delay the capsule; a dropped capsule is detected
        // by the initiator's command timeout and retransmitted once the
        // loss surfaces (a single-retransmit model — the payload path
        // below shares the NIC reservations of every other transfer, so
        // bandwidth contention is already charged there).
        let t0 = match self
            .cluster
            .fault_decide(now, self.client_node, self.target.node)
        {
            FabricFault::Healthy => now,
            FabricFault::Delay(extra) => now + extra,
            FabricFault::Dropped { detect_after } => now + detect_after,
        };
        use crate::rpc::WireSize;
        let t1 =
            self.cluster
                .reserve_transfer(t0, self.client_node, self.target.node, req.wire_bytes());
        // 2. SPDK poll thread picks the capsule up.
        let t2 = self
            .target
            .processing
            .reserve(t1, self.target.cfg.per_cmd_processing);
        // 3. Extent reads through the device, decode/augment on the
        //    target's offload compute pool. The response is assembled no
        //    earlier than `floor`: it carries bytes an earlier batch
        //    computed then.
        let (done, mut early) =
            (self.target.offload).reserve_batch(t2, &self.target.device, extents);
        let t3 = done.max(floor);
        // 4. ONE dense response: the bytes a piece completes stream out as
        //    it is done, the rest of the sample bytes and the completion
        //    once the response is assembled.
        let rest = response_bytes - early.iter().map(|&(_, b)| b).sum::<u64>();
        early.push((t3, rest + RESPONSE_BYTES));
        early.sort_unstable();
        let (from, to) = (self.target.node, self.client_node);
        let landed = (early.into_iter())
            .map(|(at, bytes)| self.cluster.reserve_transfer(at, from, to, bytes))
            .fold(t3, Time::max);
        (t3, landed)
    }

    fn forward_to(&self, peer: &Arc<dyn NvmeTarget>) -> Arc<dyn NvmeTarget> {
        match peer.reached_from(self.target.node) {
            Some(leg) => Arc::new(Forward {
                cluster: self.cluster.clone(),
                home: self.target.clone(),
                client_node: self.client_node,
                landed: self.landed.clone(),
                leg,
            }),
            // A device on the client's own node: the client writes it
            // without touching its NIC.
            None => peer.clone(),
        }
    }

    fn reached_from(&self, node: usize) -> Option<Arc<dyn NvmeTarget>> {
        Some(connect(self.cluster.clone(), node, self.target.clone()))
    }

    /// Every read's payload crosses the client node's NIC ingress.
    fn ingress(&self) -> Option<usize> {
        Some(self.client_node)
    }
}

/// A replica copy of a client's writes, forwarded by the `home` target
/// that received the payload to the peer behind `leg` (the peer as the
/// home's node reaches it). Every copy is submitted right after the home
/// write it copies, so the home's latest landed payload is this copy's.
struct Forward {
    cluster: Arc<Cluster>,
    home: Arc<NvmeOfTarget>,
    client_node: usize,
    landed: Arc<Mutex<Landed>>,
    leg: Arc<dyn NvmeTarget>,
}

impl NvmeTarget for Forward {
    fn reserve_read(&self, now: Time, slba: u64, nblocks: u32) -> Time {
        self.leg.reserve_read(now, slba, nblocks)
    }

    fn reserve_write(&self, now: Time, slba: u64, nblocks: u32) -> Time {
        // 1. The home's SPDK thread turns the landed payload around.
        let landed = now.max(self.landed.lock().at);
        let t1 = self
            .home
            .processing
            .reserve(landed, self.home.cfg.per_cmd_processing);
        // 2. Capsule + payload home → peer, the peer's processing and
        //    device write, its ack back to the home.
        let t2 = self.leg.reserve_write(t1, slba, nblocks);
        // 3. The home acks the client.
        self.cluster
            .reserve_transfer(t2, self.home.node, self.client_node, RESPONSE_BYTES)
    }

    fn dma_read(&self, slba: u64, dst: &mut [u8]) {
        self.leg.dma_read(slba, dst);
    }

    fn dma_write(&self, slba: u64, src: &[u8]) {
        self.leg.dma_write(slba, src);
    }

    fn max_queue_depth(&self) -> usize {
        self.leg.max_queue_depth()
    }

    fn blocks(&self) -> u64 {
        self.leg.blocks()
    }

    fn describe(&self) -> String {
        format!(
            "{} forwarded for node{}",
            self.leg.describe(),
            self.client_node
        )
    }

    /// Lost with its home write's payload; otherwise the peer's device,
    /// then the fabric on the home → peer path.
    fn fault_decide_range(
        &self,
        now: Time,
        is_write: bool,
        slba: u64,
        nblocks: u32,
    ) -> FaultOutcome {
        let lost = self.landed.lock().lost;
        lost.unwrap_or_else(|| self.leg.fault_decide_range(now, is_write, slba, nblocks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::FabricConfig;
    use blocksim::{DeviceConfig, DmaBuf, IoQPair};
    use simkit::prelude::*;

    fn cluster(n: usize) -> Arc<Cluster> {
        Arc::new(Cluster::new(n, FabricConfig::default()))
    }

    fn target_on(node: usize) -> Arc<NvmeOfTarget> {
        let dev = NvmeDevice::new(DeviceConfig::emulated_ramdisk(64 << 20, Dur::micros(10)));
        NvmeOfTarget::new(node, dev, TargetConfig::default())
    }

    #[test]
    fn remote_read_adds_fabric_latency() {
        Runtime::simulate(0, |rt| {
            let c = cluster(2);
            let tgt = target_on(1);
            let local_done = tgt.device().reserve_read(rt.now(), 0, 8);
            let remote = connect(c, 0, tgt);
            let remote_done = remote.reserve_read(rt.now(), 0, 8);
            let added = remote_done - local_done;
            // The paper quotes ~10us added for NVMe-oF; our model should be
            // in the single-digit-microsecond band.
            assert!(
                (3_000..15_000).contains(&added.as_nanos()),
                "added {added:?}"
            );
        });
    }

    #[test]
    fn end_to_end_remote_roundtrip_via_qpair() {
        Runtime::simulate(0, |rt| {
            let c = cluster(3);
            let tgt = target_on(2);
            let remote = connect(c, 0, tgt.clone());
            let mut qp = IoQPair::new(remote, 16);

            let wbuf = DmaBuf::standalone(2048);
            wbuf.with_mut(|d| {
                d.iter_mut()
                    .enumerate()
                    .for_each(|(i, b)| *b = (i * 7 % 256) as u8)
            });
            qp.submit_write(rt, 1, 100, 4, wbuf, 0).unwrap();
            qp.drain(rt, Dur::nanos(100));

            let rbuf = DmaBuf::standalone(2048);
            qp.submit_read(rt, 2, 100, 4, rbuf.clone(), 0).unwrap();
            qp.drain(rt, Dur::nanos(100));
            rbuf.with(|d| {
                for (i, &b) in d.iter().enumerate() {
                    assert_eq!(b, (i * 7 % 256) as u8);
                }
            });
        });
    }

    /// A remote target's reads land through its client's NIC ingress,
    /// which every target that client reaches shares; a local device's
    /// land through nothing shared.
    #[test]
    fn a_remote_target_lands_through_its_clients_ingress() {
        let c = cluster(4);
        let (a, b) = (target_on(2), target_on(3));
        assert_eq!(connect(c.clone(), 0, a.clone()).ingress(), Some(0));
        assert_eq!(connect(c.clone(), 0, b).ingress(), Some(0));
        assert_eq!(connect(c, 1, a.clone()).ingress(), Some(1));
        assert_eq!(a.device().ingress(), None);
    }

    #[test]
    fn two_clients_share_one_target() {
        Runtime::simulate(0, |rt| {
            let c = cluster(3);
            let tgt = target_on(2);
            let r0 = connect(c.clone(), 0, tgt.clone());
            let r1 = connect(c.clone(), 1, tgt.clone());
            // Saturating reads from both clients share the target's egress
            // NIC: aggregate bandwidth must not exceed one NIC.
            let nblk = 256u32; // 128 KB
            let mut last = Time::ZERO;
            let n = 200u64;
            for i in 0..n {
                let t = if i % 2 == 0 {
                    r0.reserve_read(rt.now(), (i * nblk as u64) % 1000, nblk)
                } else {
                    r1.reserve_read(rt.now(), (i * nblk as u64) % 1000, nblk)
                };
                last = last.max(t);
            }
            let bytes = n * nblk as u64 * BLOCK_SIZE;
            let bw = bytes as f64 / last.as_secs_f64();
            // Device (2.2 GB/s) is the binding constraint, not the NIC.
            assert!((1.8e9..2.3e9).contains(&bw), "bw {bw}");
        });
    }

    /// A copy the home forwards crosses the home's NIC, not the client's;
    /// it leaves the home only once the payload has landed there, and its
    /// fate is drawn on the home → peer path.
    #[test]
    fn forwarded_copy_spares_the_client_nic() {
        Runtime::simulate(0, |rt| {
            let c = cluster(3);
            let home = connect(c.clone(), 0, target_on(1));
            let peer: Arc<dyn NvmeTarget> = connect(c.clone(), 0, target_on(2));
            let copy = home.forward_to(&peer);
            let (nblk, data) = (256u32, 256 * BLOCK_SIZE);
            home.reserve_write(rt.now(), 0, nblk);
            let done = copy.reserve_write(rt.now(), 0, nblk);
            let (capsule, ack) = (CAPSULE_BYTES, RESPONSE_BYTES);
            assert_eq!(c.node_traffic(0), (data + capsule, 2 * ack));
            assert_eq!(
                c.node_traffic(1),
                (2 * ack + data + capsule, data + capsule + ack)
            );
            assert_eq!(c.node_traffic(2), (ack, data + capsule));
            let wire = Dur::for_bytes(data, FabricConfig::default().nic_bytes_per_sec);
            assert!(done.nanos() > 2 * wire.as_nanos(), "store and forward");
            let fate = |from, to| {
                let drops = crate::FabricFaultInjector::new(1).with_path_drops(from, to, 1_000_000);
                c.set_faults(drops);
                let home_ok = home.fault_decide_range(rt.now(), true, 0, 1).status.is_ok();
                (
                    home_ok,
                    copy.fault_decide_range(rt.now(), true, 0, 1).status.is_ok(),
                )
            };
            assert_eq!(fate(1, 2), (true, false));
            assert_eq!(fate(0, 2), (true, true));
            assert_eq!(fate(0, 1), (false, false), "lost with the home's payload");
        });
    }

    #[test]
    fn single_client_many_devices_hits_nic_wall() {
        // The Fig. 11 mechanism: one client, 4 remote devices. Aggregate
        // throughput ≈ client ingress NIC (6.8 GB/s), not 4 × 2.2 GB/s.
        Runtime::simulate(0, |rt| {
            let c = cluster(5);
            let remotes: Vec<_> = (1..5)
                .map(|n| connect(c.clone(), 0, target_on(n)))
                .collect();
            let nblk = 256u32;
            let n = 400u64;
            let mut last = Time::ZERO;
            for i in 0..n {
                let r = &remotes[(i % 4) as usize];
                last = last.max(r.reserve_read(rt.now(), (i * nblk as u64) % 1000, nblk));
            }
            let bw = (n * nblk as u64 * BLOCK_SIZE) as f64 / last.as_secs_f64();
            assert!(
                (6.0e9..6.9e9).contains(&bw),
                "bw {bw} should be NIC-bound (~6.8e9)"
            );
        });
    }
}
