//! Fabric fault-injection coverage: dropped remote NVMe commands surface
//! as transport errors after the I/O timeout, RPC calls retry and fail
//! over deterministic schedules, and the seeded fault stream replays.

use std::sync::Arc;

use blocksim::{CmdStatus, DeviceConfig, DmaBuf, FaultInjector, IoQPair, NvmeDevice};
use fabric::{
    connect, serve, Cluster, FabricConfig, FabricFault, FabricFaultInjector, NvmeOfTarget,
    RpcError, TargetConfig,
};
use simkit::prelude::*;

fn two_node_remote(cluster: &Arc<Cluster>) -> (Arc<NvmeDevice>, Arc<fabric::RemoteTarget>) {
    let dev = NvmeDevice::new(DeviceConfig::emulated_ramdisk(16 << 20, Dur::micros(10)));
    let target = NvmeOfTarget::new(1, dev.clone(), TargetConfig::default());
    let remote = connect(cluster.clone(), 0, target);
    (dev, remote)
}

#[test]
fn dropped_remote_command_times_out_with_transport_error() {
    Runtime::simulate(0, |rt| {
        let cluster = Arc::new(Cluster::new(2, FabricConfig::default()));
        let (dev, remote) = two_node_remote(&cluster);
        dev.storage().write_at(0, &[0x5A; 512]);
        cluster.set_faults(
            FabricFaultInjector::new(3)
                .with_drops(1_000_000)
                .with_io_timeout(Dur::micros(50)),
        );
        let mut qp = IoQPair::new(remote, 8);
        let buf = DmaBuf::standalone(512);
        let t0 = rt.now();
        qp.submit_read(rt, 1, 0, 1, buf.clone(), 0).unwrap();
        let comps = qp.drain(rt, Dur::micros(5));
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].status, CmdStatus::TransportError);
        // The loss is only observed after the configured I/O timeout.
        assert!(rt.now() - t0 >= Dur::micros(50));
        // No DMA happened: the command never reached the device.
        buf.with(|d| assert!(d.iter().all(|&b| b == 0)));
        let m = cluster.metrics();
        assert_eq!(m.counter("fabric.faults.drops"), 1);
    });
}

#[test]
fn device_and_fabric_faults_compose_on_a_remote_target() {
    Runtime::simulate(1, |rt| {
        let cluster = Arc::new(Cluster::new(2, FabricConfig::default()));
        let (dev, remote) = two_node_remote(&cluster);
        dev.storage().write_at(0, &[0x33; 512]);
        // Fabric healthy, device media always fails: the remote initiator
        // sees the media error, not a transport error.
        dev.set_faults(FaultInjector::new(7).with_read_failures(1_000_000));
        let mut qp = IoQPair::new(remote, 8);
        let buf = DmaBuf::standalone(512);
        qp.submit_read(rt, 1, 0, 1, buf, 0).unwrap();
        let comps = qp.drain(rt, Dur::micros(5));
        assert_eq!(comps[0].status, CmdStatus::MediaError);
    });
}

#[test]
fn rpc_try_call_exhausts_attempts_and_reports() {
    Runtime::simulate(2, |rt| {
        let cluster = Arc::new(Cluster::new(2, FabricConfig::default()));
        cluster.set_faults(
            FabricFaultInjector::new(5)
                .with_drops(1_000_000)
                .with_io_timeout(Dur::micros(30)),
        );
        let client = serve::<u64, u64>(rt, cluster.clone(), 1, "echo", |rt, _from, x| {
            rt.work(Dur::micros(1));
            x + 1
        })
        .with_retry(RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        });
        let err = client.try_call(rt, 0, 41).unwrap_err();
        assert_eq!(
            err,
            RpcError::Timeout {
                server_node: 1,
                attempts: 3
            }
        );
        let m = cluster.metrics();
        assert_eq!(m.counter("fabric.rpc.echo.timeouts"), 3);
        assert_eq!(m.counter("fabric.rpc.echo.retries"), 2);
        assert_eq!(m.counter("fabric.rpc.echo.calls"), 0);
    });
}

#[test]
fn rpc_rides_out_a_crash_window() {
    Runtime::simulate(3, |rt| {
        let cluster = Arc::new(Cluster::new(2, FabricConfig::default()));
        let now = rt.now();
        let up_at = now + Dur::micros(200);
        let inj = cluster.set_faults(
            FabricFaultInjector::new(8)
                .with_io_timeout(Dur::micros(25))
                .with_crash(1, now, up_at),
        );
        assert!(!inj.node_up(1, now));
        let client = serve::<u64, u64>(rt, cluster.clone(), 1, "echo", |rt, _from, x| {
            rt.work(Dur::micros(1));
            x + 1
        });
        // The default retry budget (~10 ms of backoff) outlasts the 200 µs
        // outage: the call succeeds once the target restarts.
        let resp = client.try_call(rt, 0, 41).unwrap();
        assert_eq!(resp, 42);
        assert!(rt.now() >= up_at, "call cannot succeed before restart");
        let m = cluster.metrics();
        assert!(m.counter("fabric.rpc.echo.timeouts") > 0);
        assert!(m.counter("fabric.faults.outage_drops") > 0);
        assert_eq!(m.gauge("fabric.faults.node1.target_up"), 1);
    });
}

#[test]
fn seeded_fault_stream_replays_bit_identically() {
    let fates = |seed: u64| {
        let inj = FabricFaultInjector::new(seed)
            .with_drops(100_000)
            .with_delays(200_000, Dur::micros(5));
        (0..256)
            .map(|i| inj.decide(Time::ZERO + Dur::nanos(i), 0, 1))
            .collect::<Vec<_>>()
    };
    let a = fates(11);
    assert_eq!(a, fates(11), "same seed must replay the same fates");
    assert_ne!(a, fates(12), "different seeds should diverge");
    assert!(a.iter().any(|f| f.is_dropped()));
    assert!(a.iter().any(|f| matches!(f, FabricFault::Delay(_))));
    assert!(a.iter().any(|f| matches!(f, FabricFault::Healthy)));
}

#[test]
fn zero_knob_injector_never_faults() {
    let inj = FabricFaultInjector::new(9);
    for i in 0..512u64 {
        let fate = inj.decide(
            Time::ZERO + Dur::nanos(i),
            (i % 3) as usize,
            ((i + 1) % 3) as usize,
        );
        assert_eq!(fate, FabricFault::Healthy);
    }
    assert_eq!(inj.decisions(), 512);
}
