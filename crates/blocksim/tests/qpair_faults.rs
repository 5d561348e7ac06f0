//! Qpair-level fault and ordering coverage.

use std::sync::Arc;

use blocksim::{CmdStatus, DeviceConfig, DmaBuf, FaultInjector, IoQPair, NvmeDevice, NvmeTarget};
use simkit::prelude::*;

fn dev() -> Arc<NvmeDevice> {
    NvmeDevice::new(DeviceConfig::optane(64 << 20))
}

#[test]
fn failed_read_does_not_dma() {
    Runtime::simulate(0, |rt| {
        let d = dev();
        d.storage().write_at(0, &[0xAAu8; 512]);
        // Fail every read.
        d.set_faults(FaultInjector::new(1).with_read_failures(1_000_000));
        let mut qp = IoQPair::new(d.clone(), 8);
        let buf = DmaBuf::standalone(512);
        qp.submit_read(rt, 1, 0, 1, buf.clone(), 0).unwrap();
        let comps = qp.drain(rt, Dur::nanos(50));
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].status, CmdStatus::MediaError);
        // The buffer stayed untouched: no DMA on a failed command.
        buf.with(|d| assert!(d.iter().all(|&b| b == 0)));
    });
}

#[test]
fn failed_write_does_not_modify_storage() {
    Runtime::simulate(0, |rt| {
        let d = dev();
        d.storage().write_at(0, &[0x11u8; 512]);
        d.set_faults(FaultInjector::new(2).with_write_failures(1_000_000));
        let mut qp = IoQPair::new(d.clone(), 8);
        let buf = DmaBuf::standalone(512);
        buf.with_mut(|b| b.fill(0xFF));
        qp.submit_write(rt, 1, 0, 1, buf, 0).unwrap();
        let comps = qp.drain(rt, Dur::nanos(50));
        assert_eq!(comps[0].status, CmdStatus::MediaError);
        let mut out = [0u8; 512];
        d.storage().read_at(0, &mut out);
        assert!(out.iter().all(|&b| b == 0x11), "payload must not land");
    });
}

#[test]
fn latency_spikes_delay_completion() {
    Runtime::simulate(0, |rt| {
        let base = {
            let d = dev();
            let mut qp = IoQPair::new(d, 8);
            let buf = DmaBuf::standalone(512);
            qp.submit_read(rt, 1, 0, 1, buf, 0).unwrap();
            qp.next_completion_at().unwrap().nanos() - rt.now().nanos()
        };
        let spiked = {
            let d = dev();
            d.set_faults(FaultInjector::new(3).with_latency_spikes(1_000_000, Dur::millis(1)));
            let mut qp = IoQPair::new(d, 8);
            let buf = DmaBuf::standalone(512);
            qp.submit_read(rt, 1, 0, 1, buf, 0).unwrap();
            qp.next_completion_at().unwrap().nanos() - rt.now().nanos()
        };
        assert_eq!(spiked, base + 1_000_000);
    });
}

#[test]
fn completions_emerge_in_device_finish_order() {
    // Find a fault seed whose first decision is a latency spike and whose
    // second is clean: the first-submitted command then finishes *after*
    // the second, and process_completions must report them in completion
    // order, not submission order.
    let seed = (0..1000u64)
        .find(|&s| {
            let probe = FaultInjector::new(s).with_latency_spikes(300_000, Dur::millis(1));
            let first = !probe.decide_range(false, 0, 1).extra_latency.is_zero();
            let second = probe.decide_range(false, 0, 1).extra_latency.is_zero();
            first && second
        })
        .expect("some seed produces (spike, clean)");
    Runtime::simulate(0, |rt| {
        let d = dev();
        d.set_faults(FaultInjector::new(seed).with_latency_spikes(300_000, Dur::millis(1)));
        let mut qp = IoQPair::new(d, 32);
        let a = DmaBuf::standalone(512);
        let b = DmaBuf::standalone(512);
        qp.submit_read(rt, 100, 0, 1, a, 0).unwrap(); // spiked
        qp.submit_read(rt, 200, 64, 1, b, 0).unwrap(); // clean
        let comps = qp.drain(rt, Dur::nanos(50));
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].id, 200, "clean read completes first");
        assert_eq!(comps[1].id, 100);
        assert!(comps[0].done <= comps[1].done);
    });
}

#[test]
fn counters_track_lifecycle() {
    Runtime::simulate(0, |rt| {
        let d = dev();
        let mut qp = IoQPair::new(d, 4);
        for i in 0..4 {
            let b = DmaBuf::standalone(512);
            qp.submit_read(rt, i, i, 1, b, 0).unwrap();
        }
        assert_eq!(qp.counters(), (4, 0));
        qp.drain(rt, Dur::nanos(50));
        assert_eq!(qp.counters(), (4, 4));
        assert_eq!(qp.outstanding(), 0);
    });
}

#[test]
fn remote_target_propagates_faults() {
    Runtime::simulate(0, |rt| {
        let cluster = Arc::new(fabric::Cluster::new(2, fabric::FabricConfig::default()));
        let d = NvmeDevice::new(DeviceConfig::emulated_ramdisk(64 << 20, Dur::micros(10)));
        d.set_faults(FaultInjector::new(5).with_read_failures(1_000_000));
        let tgt = fabric::NvmeOfTarget::new(1, d, fabric::TargetConfig::default());
        let remote = fabric::connect(cluster, 0, tgt);
        assert_eq!(
            remote.fault_decide_range(rt.now(), false, 0, 1).status,
            CmdStatus::MediaError
        );
        let mut qp = IoQPair::new(remote, 4);
        let b = DmaBuf::standalone(512);
        qp.submit_read(rt, 9, 0, 1, b, 0).unwrap();
        let comps = qp.drain(rt, Dur::nanos(50));
        assert_eq!(comps[0].status, CmdStatus::MediaError);
    });
}

/// A target that drops every command on the wire: the initiator sees
/// nothing until its I/O timeout, then a transport error.
struct DroppingTarget {
    inner: Arc<NvmeDevice>,
    detect_after: Dur,
}

impl NvmeTarget for DroppingTarget {
    fn reserve_read(&self, now: Time, slba: u64, nblocks: u32) -> Time {
        self.inner.reserve_read(now, slba, nblocks)
    }
    fn reserve_write(&self, now: Time, slba: u64, nblocks: u32) -> Time {
        self.inner.reserve_write(now, slba, nblocks)
    }
    fn dma_read(&self, slba: u64, dst: &mut [u8]) {
        self.inner.dma_read(slba, dst)
    }
    fn dma_write(&self, slba: u64, src: &[u8]) {
        self.inner.dma_write(slba, src)
    }
    fn max_queue_depth(&self) -> usize {
        self.inner.max_queue_depth()
    }
    fn blocks(&self) -> u64 {
        self.inner.blocks()
    }
    fn describe(&self) -> String {
        format!("dropping({})", self.inner.describe())
    }
    fn fault_decide_range(
        &self,
        _now: Time,
        _is_write: bool,
        _slba: u64,
        _nblocks: u32,
    ) -> blocksim::FaultOutcome {
        blocksim::FaultOutcome {
            status: CmdStatus::TransportError,
            extra_latency: self.detect_after,
        }
    }
}

#[test]
fn transport_errors_count_as_timeouts_and_skip_dma() {
    Runtime::simulate(0, |rt| {
        let d = dev();
        d.storage().write_at(0, &[0x77u8; 512]);
        let target = Arc::new(DroppingTarget {
            inner: d,
            detect_after: Dur::micros(50),
        });
        let reg = simkit::telemetry::Registry::new();
        let mut qp = IoQPair::new(target, 4);
        qp.attach_telemetry(&reg.scoped("blocksim.dev0"));
        let buf = DmaBuf::standalone(512);
        let t0 = rt.now();
        qp.submit_read(rt, 1, 0, 1, buf.clone(), 0).unwrap();
        let comps = qp.drain(rt, Dur::micros(1));
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].status, CmdStatus::TransportError);
        assert!(rt.now() - t0 >= Dur::micros(50), "loss detected early");
        buf.with(|d| assert!(d.iter().all(|&b| b == 0), "no DMA on a drop"));
        let m = reg.snapshot();
        assert_eq!(m.counter("blocksim.dev0.timeouts"), 1);
        assert_eq!(m.counter("blocksim.dev0.media_errors"), 0);
    });
}
