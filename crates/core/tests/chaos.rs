//! Deterministic chaos tests: DLFS epochs under media errors, fabric
//! drops, link outages and target crash/restart cycles. Every delivered
//! sample must be byte-correct, failures must surface as typed errors
//! (never panics), and same-seed runs must be byte-identical.

mod common;

use std::sync::Arc;

use blocksim::{DeviceConfig, FaultInjector, NvmeDevice};
use common::{local_device, test_seed};
use dlfs::source::SampleSource;
use dlfs::{
    Completions, Deployment, DlfsConfig, DlfsError, DlfsInstance, IoFailure, ReadRequest,
    SyntheticSource,
};
use fabric::{Cluster, FabricConfig, FabricFaultInjector};
use simkit::prelude::*;
use simkit::rng::fnv1a;

/// Small chunks so an epoch issues many NVMe commands — enough dice rolls
/// for per-command fault rates to actually fire.
fn small_chunks() -> DlfsConfig {
    DlfsConfig {
        chunk_size: 8 * 1024,
        ..DlfsConfig::default()
    }
}

/// Disaggregated deployment (full mesh over `n` nodes), returning the
/// cluster and raw devices so faults can be armed after the mount.
fn disaggregated(
    rt: &Runtime,
    n: usize,
    source: &SyntheticSource,
    cfg: DlfsConfig,
) -> (DlfsInstance, Arc<Cluster>, Vec<Arc<NvmeDevice>>) {
    let cluster = Arc::new(Cluster::new(n, FabricConfig::default()));
    let devices: Vec<Arc<NvmeDevice>> = (0..n)
        .map(|_| NvmeDevice::new(DeviceConfig::emulated_ramdisk(128 << 20, Dur::micros(10))))
        .collect();
    let nodes: Vec<usize> = (0..n).collect();
    let deployment = Deployment::fabric(&cluster, &nodes, &nodes, &devices).unwrap();
    let fs = dlfs::MountBuilder::new(cfg)
        .deployment(deployment)
        .mount(rt, source)
        .unwrap();
    (fs, cluster, devices)
}

/// Drain reader 0's whole epoch, verifying every payload, and fold the
/// delivery into an order-sensitive checksum.
fn drain_epoch_verified(
    rt: &Runtime,
    io: &mut dlfs::DlfsIo,
    source: &SyntheticSource,
    total: usize,
) -> u64 {
    let mut seen = vec![false; source.count()];
    let mut delivered = 0usize;
    let mut checksum = 0u64;
    loop {
        match io
            .submit(rt, &ReadRequest::batch(32))
            .map(Completions::into_copied)
        {
            Ok(batch) => {
                for (id, data) in batch {
                    assert_eq!(
                        data,
                        source.expected(id),
                        "sample {id} corrupted under faults"
                    );
                    assert!(!seen[id as usize], "sample {id} delivered twice");
                    seen[id as usize] = true;
                    delivered += 1;
                    checksum = checksum
                        .wrapping_mul(0x100000001b3)
                        .wrapping_add(fnv1a(&data) ^ id as u64);
                }
            }
            Err(DlfsError::EpochExhausted) => break,
            Err(e) => panic!("epoch failed: {e}"),
        }
    }
    assert_eq!(delivered, total, "epoch must complete despite faults");
    checksum
}

#[test]
fn media_errors_retry_until_byte_correct() {
    Runtime::simulate(test_seed(20), |rt| {
        let source = SyntheticSource::fixed(3, 2000, 2048);
        let dev = local_device();
        let fs = dlfs::MountBuilder::new(DlfsConfig::default())
            .local(dev.clone())
            .mount(rt, &source)
            .unwrap();
        // One read in five fails at the media.
        dev.set_faults(FaultInjector::new(5).with_read_failures(200_000));
        let mut io = fs.io(0);
        let total = io.sequence(rt, 7, 0);
        drain_epoch_verified(rt, &mut io, &source, total);
        let m = io.metrics();
        assert!(m.counter("dlfs.io.retries") > 0, "no retries recorded");
        assert_eq!(m.counter("dlfs.io.timeouts"), 0, "media errors only");
    });
}

#[test]
fn fabric_drops_timeout_and_retry() {
    Runtime::simulate(test_seed(21), |rt| {
        let source = SyntheticSource::fixed(4, 1500, 2048);
        let (fs, cluster, _devices) = disaggregated(rt, 3, &source, small_chunks());
        // 8% of remote commands vanish; the initiator times out and
        // resubmits.
        cluster.set_faults(
            FabricFaultInjector::new(9)
                .with_drops(80_000)
                .with_io_timeout(Dur::micros(40)),
        );
        let mut io = fs.io(0);
        let total = io.sequence(rt, 11, 0);
        drain_epoch_verified(rt, &mut io, &source, total);
        let m = io.metrics();
        assert!(m.counter("dlfs.io.timeouts") > 0, "no timeouts observed");
        assert!(m.counter("dlfs.io.retries") > 0, "no retries recorded");
    });
}

#[test]
fn target_crash_and_restart_completes_epoch() {
    Runtime::simulate(test_seed(22), |rt| {
        let source = SyntheticSource::fixed(5, 1500, 2048);
        let (fs, cluster, _devices) = disaggregated(rt, 3, &source, DlfsConfig::default());
        // Node 1 goes dark for 1 ms right as the epoch starts — well within
        // the default retry budget (~10 ms of backoff).
        let now = rt.now();
        cluster.set_faults(
            FabricFaultInjector::new(13)
                .with_io_timeout(Dur::micros(40))
                .with_crash(1, now, now + Dur::millis(1)),
        );
        let mut io = fs.io(0);
        let total = io.sequence(rt, 13, 0);
        drain_epoch_verified(rt, &mut io, &source, total);
        let m = io.metrics();
        assert!(m.counter("dlfs.io.timeouts") > 0, "outage went unnoticed");
        assert!(m.counter("dlfs.io.retries") > 0);
    });
}

/// One full chaos scenario: media errors + fabric drops + a crash/restart
/// cycle at a fixed virtual time, fixed seed. Returns everything that must
/// be reproducible.
fn chaos_run(seed: u64) -> (u64, u64, String) {
    let ((checksum, metrics), end) = Runtime::simulate(seed, |rt| {
        let source = SyntheticSource::fixed(6, 1200, 2048);
        let (fs, cluster, devices) = disaggregated(rt, 3, &source, small_chunks());
        for (i, d) in devices.iter().enumerate() {
            d.set_faults(FaultInjector::new(seed ^ i as u64).with_read_failures(20_000));
        }
        let now = rt.now();
        cluster.set_faults(
            FabricFaultInjector::new(seed ^ 0xFA)
                .with_drops(10_000)
                .with_delays(50_000, Dur::micros(15))
                .with_io_timeout(Dur::micros(40))
                .with_crash(2, now + Dur::micros(300), now + Dur::millis(1)),
        );
        let mut io = fs.io(0);
        let total = io.sequence(rt, 17, 0);
        let checksum = drain_epoch_verified(rt, &mut io, &source, total);
        (checksum, io.metrics().render())
    });
    (checksum, end.nanos(), metrics)
}

#[test]
fn same_seed_chaos_runs_are_byte_identical() {
    let a = chaos_run(test_seed(23));
    let b = chaos_run(test_seed(23));
    assert_eq!(a.0, b.0, "delivered bytes diverged");
    assert_eq!(a.1, b.1, "virtual end time diverged");
    assert_eq!(a.2, b.2, "telemetry snapshots diverged");
}

#[test]
fn zero_rate_injector_changes_nothing() {
    // An attached injector with every knob at zero must be invisible: same
    // bytes, same virtual time, same engine telemetry as no injector.
    let run = |armed: bool| {
        Runtime::simulate(test_seed(24), |rt| {
            let source = SyntheticSource::fixed(7, 1000, 2048);
            let (fs, cluster, _devices) = disaggregated(rt, 3, &source, DlfsConfig::default());
            if armed {
                cluster.set_faults(FabricFaultInjector::new(99));
            }
            let mut io = fs.io(0);
            let total = io.sequence(rt, 19, 0);
            let checksum = drain_epoch_verified(rt, &mut io, &source, total);
            (checksum, io.metrics().render())
        })
    };
    let ((sum_off, m_off), end_off) = run(false);
    let ((sum_on, m_on), end_on) = run(true);
    assert_eq!(sum_off, sum_on);
    assert_eq!(end_off, end_on, "zero-rate injector shifted virtual time");
    assert_eq!(m_off, m_on, "zero-rate injector shifted telemetry");
}

#[test]
fn exhausted_retries_surface_typed_error() {
    Runtime::simulate(test_seed(25), |rt| {
        let source = SyntheticSource::fixed(8, 400, 2048);
        let dev = local_device();
        let cfg = DlfsConfig {
            retry: RetryPolicy {
                max_attempts: 3,
                ..Default::default()
            },
            ..Default::default()
        };
        let fs = dlfs::MountBuilder::new(cfg)
            .local(dev.clone())
            .mount(rt, &source)
            .unwrap();
        // Every read fails: the budget (3 attempts) must exhaust and
        // surface as a typed error, not a panic.
        dev.set_faults(FaultInjector::new(4).with_read_failures(1_000_000));
        let mut io = fs.io(0);
        io.sequence(rt, 23, 0);
        let err = io.submit(rt, &ReadRequest::batch(8)).unwrap_err();
        assert_eq!(
            err,
            DlfsError::Io {
                target: 0,
                attempts: 3,
                cause: IoFailure::Media,
            }
        );
        // The cause is reachable through the std error chain.
        let src = std::error::Error::source(&err).expect("Io carries a source");
        assert_eq!(src.to_string(), "unrecoverable media error");
        // The failure is sticky: the plan cannot complete.
        assert!(matches!(
            io.submit(rt, &ReadRequest::batch(8)),
            Err(DlfsError::Io { .. })
        ));
        // The synchronous path reports the same typed error.
        assert!(matches!(
            io.read_by_id(rt, 0),
            Err(DlfsError::Io {
                cause: IoFailure::Media,
                ..
            })
        ));
        // Healing the device and replacing the epoch recovers fully.
        dev.set_faults(FaultInjector::new(4));
        let total = io.sequence(rt, 29, 1);
        drain_epoch_verified(rt, &mut io, &source, total);
    });
}

#[test]
fn sync_read_requeues_engine_failures() {
    // Regression: a synchronous read drains the shared qpairs and may
    // harvest the batched engine's *failed* completions — those parts must
    // be re-queued for retry, not just routed and forgotten, or the epoch
    // wedges with samples that never arrive. Once on the plain engine
    // (retry with backoff), once with `replicas: 2` + `verify_reads`
    // (checksum mismatches too, settled by failover and read-repair).
    for replicas in [1usize, 2] {
        Runtime::simulate(test_seed(26), |rt| {
            let source = SyntheticSource::fixed(9, 3000, 2048);
            let devices: Vec<_> = (0..replicas).map(|_| local_device()).collect();
            let cfg = DlfsConfig {
                replicas,
                verify_reads: replicas > 1,
                ..DlfsConfig::default()
            };
            let fs = dlfs::MountBuilder::new(cfg)
                .deployment(Deployment::local(1, &devices))
                .mount(rt, &source)
                .unwrap();
            let mut io = fs.io(0);
            let total = io.sequence(rt, 31, 0);
            // Half of all reads fail while the engine prefetches ahead; the
            // replicated run also returns flipped bits from node 0.
            let mut faults = FaultInjector::new(6).with_read_failures(500_000);
            if replicas > 1 {
                faults = faults.with_bit_flips(0, 4096);
            }
            devices[0].set_faults(faults);
            let batch = io
                .submit(rt, &ReadRequest::batch(16))
                .unwrap()
                .into_copied();
            let mut seen = vec![false; source.count()];
            let mut delivered = 0usize;
            for (id, data) in &batch {
                assert_eq!(data, &source.expected(*id));
                seen[*id as usize] = true;
                delivered += 1;
            }
            // A cold synchronous read now busy-polls the same qpairs,
            // harvesting whatever the engine has in flight — including
            // failures.
            let cold = (0..source.count() as u32)
                .find(|&id| !fs.dir.is_valid(id) && fs.dir.entry(id).nid() == 0)
                .expect("some sample not resident");
            let data = io.read_by_id(rt, cold).unwrap();
            assert_eq!(data, source.expected(cold));
            // Heal the device and drain the rest of the epoch: every sample
            // the sync read intercepted as failed must still arrive,
            // exactly once.
            devices[0].set_faults(FaultInjector::new(6));
            loop {
                match io
                    .submit(rt, &ReadRequest::batch(64))
                    .map(Completions::into_copied)
                {
                    Ok(batch) => {
                        for (id, data) in batch {
                            assert_eq!(data, source.expected(id));
                            assert!(!seen[id as usize], "sample {id} delivered twice");
                            seen[id as usize] = true;
                            delivered += 1;
                        }
                    }
                    Err(DlfsError::EpochExhausted) => break,
                    Err(e) => panic!("epoch failed: {e}"),
                }
            }
            assert_eq!(delivered, total);
            let m = io.metrics();
            assert!(m.counter("dlfs.io.retries") > 0);
            if replicas > 1 {
                assert!(m.counter("dlfs.integrity.mismatches") > 0);
                assert!(m.counter("dlfs.integrity.failovers") > 0);
                assert!(m.counter("dlfs.integrity.repairs") > 0);
            }
        });
    }
}

/// Multi-epoch chaos with the cross-epoch cache and prefetcher armed:
/// media errors + fabric drops across three epochs, every byte correct,
/// and same-seed runs bit-identical (checksums, virtual end time and the
/// full telemetry render, cache counters included).
fn cross_epoch_chaos_run(seed: u64) -> (u64, u64, String) {
    let ((checksum, metrics), end) = Runtime::simulate(seed, |rt| {
        let source = SyntheticSource::fixed(6, 1200, 2048);
        let cfg = DlfsConfig {
            cache_mode: dlfs::CacheMode::CrossEpoch,
            prefetch_window: 6,
            ..small_chunks()
        };
        let (fs, cluster, devices) = disaggregated(rt, 3, &source, cfg);
        for (i, d) in devices.iter().enumerate() {
            d.set_faults(FaultInjector::new(seed ^ i as u64).with_read_failures(20_000));
        }
        cluster.set_faults(
            FabricFaultInjector::new(seed ^ 0xCE)
                .with_drops(10_000)
                .with_io_timeout(Dur::micros(40)),
        );
        let reg = simkit::telemetry::Registry::new();
        let mut io = fs.io_with_registry(0, &reg);
        let mut checksum = 0u64;
        for epoch in 0..3u64 {
            let total = io.sequence(rt, 17, epoch);
            checksum ^= drain_epoch_verified(rt, &mut io, &source, total).rotate_left(epoch as u32);
        }
        // Faults must not corrupt the residency bookkeeping either: with
        // nothing held, every chunk is free or resident.
        let cache = &fs.shared(0).cache;
        let resident = reg.snapshot().gauge("dlfs.cache.resident_chunks") as usize;
        assert_eq!(cache.free_chunks() + resident, cache.total_chunks());
        (checksum, reg.snapshot().render())
    });
    (checksum, end.nanos(), metrics)
}

#[test]
fn cross_epoch_chaos_is_correct_and_replayable() {
    let a = cross_epoch_chaos_run(test_seed(28));
    let b = cross_epoch_chaos_run(test_seed(28));
    assert_eq!(a.0, b.0, "delivered bytes diverged");
    assert_eq!(a.1, b.1, "virtual end time diverged");
    assert_eq!(a.2, b.2, "telemetry snapshots diverged");
    // The warm epochs actually exercised the cache under faults.
    assert!(a.2.contains("dlfs.cache.hits"));
}

#[test]
fn zero_copy_epoch_survives_media_errors() {
    Runtime::simulate(test_seed(27), |rt| {
        let source = SyntheticSource::fixed(10, 1000, 2048);
        let dev = local_device();
        let fs = dlfs::MountBuilder::new(DlfsConfig::default())
            .local(dev.clone())
            .mount(rt, &source)
            .unwrap();
        dev.set_faults(FaultInjector::new(8).with_read_failures(200_000));
        let mut io = fs.io(0);
        let total = io.sequence(rt, 37, 0);
        let mut delivered = 0usize;
        loop {
            match io.submit(rt, &ReadRequest::batch(32).zero_copy()) {
                Ok(batch) => {
                    for s in batch.into_zero_copy() {
                        assert_eq!(s.to_vec(), source.expected(s.id));
                        delivered += 1;
                    }
                }
                Err(DlfsError::EpochExhausted) => break,
                Err(e) => panic!("{e}"),
            }
        }
        assert_eq!(delivered, total);
        assert!(io.metrics().counter("dlfs.io.retries") > 0);
    });
}
