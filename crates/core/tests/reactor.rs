//! Reactor-equivalence suite: the event-driven submission/completion
//! reactor must be observably identical to the pre-reactor engine under
//! the default configuration — same delivery order, same payloads, same
//! virtual-time stamps, same telemetry renders, byte for byte.
//!
//! The golden fixtures under `tests/golden/` were generated from the
//! pre-reactor four-stage engine (`DLFS_UPDATE_GOLDEN=1 cargo test -p
//! dlfs --test reactor` regenerates them). Every scenario folds its
//! delivery trace into a text report and appends the full telemetry
//! snapshot render; the test asserts byte equality against the fixture.

mod common;

use std::sync::Arc;

use blocksim::{DeviceConfig, FaultInjector, NvmeDevice};
use common::check_golden;
use dlfs::source::SampleSource;
use dlfs::{
    CacheMode, CodecKind, Deployment, DlfsConfig, DlfsError, DlfsInstance, MountBuilder,
    ReadRequest, SyntheticSource,
};
use fabric::{Cluster, FabricConfig, FabricFaultInjector};
use simkit::prelude::*;
use simkit::rng::fnv1a;

fn local_device() -> Arc<NvmeDevice> {
    NvmeDevice::new(DeviceConfig::optane(256 << 20))
}

/// Hash of the delivered ids in delivery order.
fn ids_hash(ids: &[u32]) -> u64 {
    let mut h = 0u64;
    for &id in ids {
        h = h.wrapping_mul(0x100000001b3).wrapping_add(id as u64 + 1);
    }
    h
}

/// Drain the current epoch with copied delivery, folding every batch into
/// a report line: virtual timestamp, batch size, id hash, payload hash.
fn drain_copied_report(
    rt: &Runtime,
    io: &mut dlfs::DlfsIo,
    source: &SyntheticSource,
    batch: usize,
    report: &mut String,
) {
    let mut i = 0usize;
    loop {
        match io.submit(rt, &ReadRequest::batch(batch)) {
            Ok(got) => {
                let got = got.into_copied();
                let ids: Vec<u32> = got.iter().map(|(id, _)| *id).collect();
                let mut payload = 0u64;
                for (id, data) in &got {
                    assert_eq!(data, &source.expected(*id), "payload mismatch {id}");
                    payload = payload
                        .wrapping_mul(0x100000001b3)
                        .wrapping_add(fnv1a(data));
                }
                report.push_str(&format!(
                    "batch {i} t={} n={} ids={:016x} payload={:016x}\n",
                    rt.now().nanos(),
                    ids.len(),
                    ids_hash(&ids),
                    payload,
                ));
                i += 1;
            }
            Err(DlfsError::EpochExhausted) => break,
            Err(e) => panic!("epoch failed: {e}"),
        }
    }
}

/// Disaggregated deployment (full mesh over `n` nodes) for the fault
/// scenario; returns the cluster and raw devices so faults can be armed
/// after the mount.
fn disaggregated(
    rt: &Runtime,
    n: usize,
    source: &dyn SampleSource,
    cfg: DlfsConfig,
) -> (DlfsInstance, Arc<Cluster>, Vec<Arc<NvmeDevice>>) {
    let cluster = Arc::new(Cluster::new(n, FabricConfig::default()));
    let devices: Vec<Arc<NvmeDevice>> = (0..n)
        .map(|_| NvmeDevice::new(DeviceConfig::emulated_ramdisk(128 << 20, Dur::micros(10))))
        .collect();
    let nodes: Vec<usize> = (0..n).collect();
    let deployment = Deployment::fabric(&cluster, &nodes, &nodes, &devices).unwrap();
    let fs = MountBuilder::new(cfg)
        .deployment(deployment)
        .mount(rt, source)
        .unwrap();
    (fs, cluster, devices)
}

/// Default-config copied delivery: epoch report and telemetry snapshot
/// must be byte-identical to the pre-reactor engine.
#[test]
fn copied_default_matches_golden() {
    let _copies = COPY_OPS_QUIET.read().unwrap();
    let (report, end) = Runtime::simulate(1, |rt| {
        let source = SyntheticSource::fixed(9, 1200, 2048);
        let fs = MountBuilder::new(DlfsConfig::default())
            .local(local_device())
            .mount(rt, &source)
            .unwrap();
        let mut io = fs.io(0);
        let mut report = String::new();
        for epoch in 0..2u64 {
            let total = io.sequence(rt, 77, epoch);
            report.push_str(&format!("epoch {epoch} total={total}\n"));
            drain_copied_report(rt, &mut io, &source, 48, &mut report);
        }
        report.push_str("--- telemetry ---\n");
        report.push_str(&io.metrics().render());
        report
    });
    let text = format!("{report}end t={}\n", end.nanos());
    check_golden("reactor_copied.txt", &text);
}

/// Default-config zero-copy delivery: same equivalence, plus payloads
/// verified through the pinned-chunk segments.
#[test]
fn zero_copy_default_matches_golden() {
    let _copies = COPY_OPS_QUIET.read().unwrap();
    let (report, end) = Runtime::simulate(2, |rt| {
        let source = SyntheticSource::fixed(5, 900, 3000);
        let fs = MountBuilder::new(DlfsConfig::default())
            .local(local_device())
            .mount(rt, &source)
            .unwrap();
        let mut io = fs.io(0);
        let total = io.sequence(rt, 13, 0);
        let mut report = format!("epoch 0 total={total}\n");
        let mut i = 0usize;
        loop {
            match io.submit(rt, &ReadRequest::batch(40).zero_copy()) {
                Ok(got) => {
                    let samples = got.into_zero_copy();
                    let ids: Vec<u32> = samples.iter().map(|s| s.id).collect();
                    let mut payload = 0u64;
                    for s in &samples {
                        assert_eq!(s.fnv1a(), fnv1a(&source.expected(s.id)));
                        payload = payload.wrapping_mul(0x100000001b3).wrapping_add(s.fnv1a());
                    }
                    report.push_str(&format!(
                        "batch {i} t={} n={} ids={:016x} payload={:016x}\n",
                        rt.now().nanos(),
                        ids.len(),
                        ids_hash(&ids),
                        payload,
                    ));
                    i += 1;
                }
                Err(DlfsError::EpochExhausted) => break,
                Err(e) => panic!("epoch failed: {e}"),
            }
        }
        report.push_str("--- telemetry ---\n");
        report.push_str(&io.metrics().render());
        report
    });
    let text = format!("{report}end t={}\n", end.nanos());
    check_golden("reactor_zero_copy.txt", &text);
}

/// Cross-epoch cache + plan-aware prefetch (the PR 3 paths): warm epochs
/// must hit the cache identically through the reactor.
#[test]
fn cross_epoch_warm_matches_golden() {
    let _copies = COPY_OPS_QUIET.read().unwrap();
    let (report, end) = Runtime::simulate(3, |rt| {
        let source = SyntheticSource::fixed(7, 600, 2048);
        let cfg = DlfsConfig {
            cache_mode: CacheMode::CrossEpoch,
            prefetch_window: 4,
            ..DlfsConfig::default()
        };
        let fs = MountBuilder::new(cfg)
            .local(local_device())
            .mount(rt, &source)
            .unwrap();
        let mut io = fs.io(0);
        let mut report = String::new();
        for epoch in 0..3u64 {
            let total = io.sequence(rt, 21, epoch);
            report.push_str(&format!("epoch {epoch} total={total}\n"));
            drain_copied_report(rt, &mut io, &source, 48, &mut report);
            report.push_str(&format!("epoch {epoch} done t={}\n", rt.now().nanos()));
        }
        report.push_str("--- telemetry ---\n");
        report.push_str(&io.metrics().render());
        report
    });
    let text = format!("{report}end t={}\n", end.nanos());
    check_golden("reactor_cross_epoch.txt", &text);
}

/// Chaos replay under the event loop: media errors and fabric drops force
/// retries and timeouts through the reactor's completion path; the trace
/// must stay byte-identical to the pre-reactor engine (and every payload
/// byte-correct).
#[test]
fn faulted_retry_matches_golden() {
    let _copies = COPY_OPS_QUIET.read().unwrap();
    let (report, end) = Runtime::simulate(4, |rt| {
        let source = SyntheticSource::fixed(4, 800, 2048);
        let cfg = DlfsConfig {
            chunk_size: 8 * 1024,
            ..DlfsConfig::default()
        };
        let (fs, cluster, devices) = disaggregated(rt, 2, &source, cfg);
        devices[0].set_faults(FaultInjector::new(5).with_read_failures(100_000));
        cluster.set_faults(
            FabricFaultInjector::new(9)
                .with_drops(60_000)
                .with_io_timeout(Dur::micros(40)),
        );
        let mut io = fs.io(0);
        let total = io.sequence(rt, 11, 0);
        let mut report = format!("epoch 0 total={total}\n");
        drain_copied_report(rt, &mut io, &source, 32, &mut report);
        let m = io.metrics();
        assert!(m.counter("dlfs.io.retries") > 0, "no retries exercised");
        assert!(m.counter("dlfs.io.timeouts") > 0, "no timeouts exercised");
        report.push_str("--- telemetry ---\n");
        report.push_str(&m.render());
        report
    });
    let text = format!("{report}end t={}\n", end.nanos());
    check_golden("reactor_faulted.txt", &text);
}

/// Same-seed chaos runs through the reactor must be bit-identical to each
/// other (determinism is what makes the goldens meaningful at all).
#[test]
fn faulted_replay_is_deterministic() {
    let _copies = COPY_OPS_QUIET.read().unwrap();
    let run = || {
        Runtime::simulate(4, |rt| {
            let source = SyntheticSource::fixed(4, 800, 2048);
            let cfg = DlfsConfig {
                chunk_size: 8 * 1024,
                ..DlfsConfig::default()
            };
            let (fs, cluster, devices) = disaggregated(rt, 2, &source, cfg);
            devices[0].set_faults(FaultInjector::new(5).with_read_failures(100_000));
            cluster.set_faults(
                FabricFaultInjector::new(9)
                    .with_drops(60_000)
                    .with_io_timeout(Dur::micros(40)),
            );
            let mut io = fs.io(0);
            let total = io.sequence(rt, 11, 0);
            let mut report = format!("epoch 0 total={total}\n");
            drain_copied_report(rt, &mut io, &source, 32, &mut report);
            report
        })
    };
    let (a, ta) = run();
    let (b, tb) = run();
    assert_eq!(a, b, "chaos replay diverged");
    assert_eq!(ta, tb);
}

// ------------------------------------------- part-lifecycle goldens --
//
// Characterisation fixtures for the paths that share the post / verify /
// settle core with the batched engine: synchronous reads racing an epoch,
// replica failover + read-repair, and verified, decoded prefetch.
// Generated once from the engine as it stood before that core existed;
// they pin the virtual timeline and the full telemetry render.

/// `blocksim::copy_ops` is one process-wide counter: the tests that
/// memcpy hold this shared while [`warm_zero_copy_batches_are_copy_free`]
/// holds it exclusively around its flat-counter assertion.
static COPY_OPS_QUIET: std::sync::RwLock<()> = std::sync::RwLock::new(());

/// One report line for a synchronous read.
fn sync_line(report: &mut String, rt: &Runtime, what: &str, id: u32, hash: u64) {
    report.push_str(&format!(
        "{what} id={id} t={} payload={hash:016x}\n",
        rt.now().nanos()
    ));
}

/// Drain the current epoch with zero-copy delivery into report lines.
fn drain_zero_copy_report(
    rt: &Runtime,
    io: &mut dlfs::DlfsIo,
    source: &SyntheticSource,
    batch: usize,
    report: &mut String,
) {
    let mut i = 0usize;
    loop {
        match io.submit(rt, &ReadRequest::batch(batch).zero_copy()) {
            Ok(got) => {
                let samples = got.into_zero_copy();
                let ids: Vec<u32> = samples.iter().map(|s| s.id).collect();
                let mut payload = 0u64;
                for s in &samples {
                    assert_eq!(
                        s.to_vec(),
                        source.expected(s.id),
                        "payload mismatch {}",
                        s.id
                    );
                    payload = payload.wrapping_mul(0x100000001b3).wrapping_add(s.fnv1a());
                }
                report.push_str(&format!(
                    "zc batch {i} t={} n={} ids={:016x} payload={:016x}\n",
                    rt.now().nanos(),
                    ids.len(),
                    ids_hash(&ids),
                    payload,
                ));
                i += 1;
            }
            Err(DlfsError::EpochExhausted) => break,
            Err(e) => panic!("epoch failed: {e}"),
        }
    }
}

/// Synchronous `read_by_id` over the NVMe-oF rig with media errors and
/// fabric drops, issued while a batched epoch on the same handle still has
/// parts in flight: the sync drain harvests (and must re-queue) the
/// engine's strays. In both cache modes: cross-epoch, a miss parks its
/// range where the engine finds it.
#[test]
fn sync_reads_racing_faulted_epoch_match_golden() {
    let _copies = COPY_OPS_QUIET.read().unwrap();
    let mut text = String::new();
    for cache_mode in [CacheMode::EpochScoped, CacheMode::CrossEpoch] {
        let (report, end) = Runtime::simulate(11, |rt| sync_race_report(rt, cache_mode));
        text.push_str(&format!("{report}end t={}\n", end.nanos()));
    }
    check_golden("reactor_sync_race.txt", &text);
}

fn sync_race_report(rt: &Runtime, cache_mode: CacheMode) -> String {
    let source = SyntheticSource::fixed(6, 900, 2048);
    let cfg = DlfsConfig {
        chunk_size: 8 * 1024,
        cache_mode,
        ..DlfsConfig::default()
    };
    let (fs, cluster, devices) = disaggregated(rt, 2, &source, cfg);
    for (i, d) in devices.iter().enumerate() {
        d.set_faults(FaultInjector::new(21 + i as u64).with_read_failures(150_000));
    }
    cluster.set_faults(
        FabricFaultInjector::new(23)
            .with_drops(60_000)
            .with_io_timeout(Dur::micros(40)),
    );
    let mut io = fs.io(0);
    let total = io.sequence(rt, 41, 0);
    let mut report = format!("{cache_mode:?} epoch 0 total={total}\n");
    let mut seen = vec![false; source.count()];
    let mut delivered = 0usize;
    for round in 0..6u32 {
        // A batch leaves the fetch window's parts in flight…
        let got = io
            .submit(rt, &ReadRequest::batch(24))
            .unwrap()
            .into_copied();
        let ids: Vec<u32> = got.iter().map(|(id, _)| *id).collect();
        for (id, data) in &got {
            assert_eq!(data, &source.expected(*id));
            assert!(!seen[*id as usize], "sample {id} delivered twice");
            seen[*id as usize] = true;
            delivered += 1;
        }
        report.push_str(&format!(
            "batch {round} t={} n={} ids={:016x}\n",
            rt.now().nanos(),
            ids.len(),
            ids_hash(&ids)
        ));
        // …which the synchronous reads below harvest as strays.
        let cold: Vec<u32> = (0..source.count() as u32)
            .filter(|&id| !fs.dir.is_valid(id))
            .skip(round as usize * 7)
            .take(4)
            .collect();
        for id in cold {
            let data = io.read_by_id(rt, id).unwrap();
            assert_eq!(data, source.expected(id));
            sync_line(&mut report, rt, "read_by_id", id, fnv1a(&data));
        }
    }
    loop {
        match io.submit(rt, &ReadRequest::batch(32)) {
            Ok(got) => {
                for (id, data) in got.into_copied() {
                    assert_eq!(data, source.expected(id));
                    assert!(!seen[id as usize], "sample {id} delivered twice");
                    seen[id as usize] = true;
                    delivered += 1;
                }
                report.push_str(&format!("tail t={}\n", rt.now().nanos()));
            }
            Err(DlfsError::EpochExhausted) => break,
            Err(e) => panic!("epoch failed: {e}"),
        }
    }
    assert_eq!(delivered, total);
    let m = io.metrics();
    assert!(m.counter("dlfs.io.retries") > 0, "no retries exercised");
    assert!(m.counter("dlfs.io.timeouts") > 0, "no timeouts exercised");
    report.push_str("--- telemetry ---\n");
    report.push_str(&m.render());
    report
}

/// Synchronous reads and nothing else, on three rigs: the `point_reads`
/// shape (two reader tasks over four NVMe-oF targets), the degraded tail
/// (two verified copies, one node dead) and cross-epoch `Lz` misses under
/// device read failures. Each read's instant and payload hash, then each
/// handle's telemetry render.
#[test]
fn sync_reads_match_golden() {
    let _copies = COPY_OPS_QUIET.read().unwrap();
    type Cell = fn(&Runtime) -> String;
    let cells: [(&str, Cell); 3] = [
        ("point_reads", sync_point_reads),
        ("degraded", sync_degraded),
        ("coded_misses", sync_coded_misses),
    ];
    let mut text = String::new();
    for (name, cell) in cells {
        let (report, end) = Runtime::simulate(17, cell);
        text.push_str(&format!("## {name}\n{report}end t={}\n", end.nanos()));
    }
    check_golden("sync_reads.txt", &text);
}

/// `n` seeded `read_by_id` calls of reader `r`, each a report line, then
/// the handle's telemetry render.
fn sync_reads_report(
    rt: &Runtime,
    io: &mut dlfs::DlfsIo,
    source: &SyntheticSource,
    r: u64,
    n: usize,
) -> String {
    let mut ids = simkit::rng::SplitMix64::derive(29, r);
    let mut report = String::new();
    for _ in 0..n {
        let id = ids.below(source.count() as u64) as u32;
        let data = io.read_by_id(rt, id).unwrap();
        assert_eq!(data, source.expected(id));
        sync_line(&mut report, rt, &format!("reader{r}"), id, fnv1a(&data));
    }
    report.push_str(&format!("--- reader{r} telemetry ---\n"));
    report.push_str(&io.metrics().render());
    report
}

/// Two reader tasks over four NVMe-oF targets, default configuration.
fn sync_point_reads(rt: &Runtime) -> String {
    let source = Arc::new(SyntheticSource::fixed(5, 800, 1024));
    let cluster = Arc::new(Cluster::new(6, FabricConfig::default()));
    let devices: Vec<Arc<NvmeDevice>> = (0..4)
        .map(|_| NvmeDevice::new(DeviceConfig::emulated_ramdisk(64 << 20, Dur::micros(10))))
        .collect();
    let deployment = Deployment::fabric(&cluster, &[0, 1], &[2, 3, 4, 5], &devices).unwrap();
    let cfg = DlfsConfig {
        reactor_stats: true,
        ..DlfsConfig::default()
    };
    let fs = MountBuilder::new(cfg).deployment(deployment);
    let fs = Arc::new(fs.mount(rt, &*source).unwrap());
    let readers: Vec<_> = (0..2)
        .map(|r| {
            let (fs, source) = (fs.clone(), source.clone());
            rt.spawn_with(&format!("reader{r}"), move |rt| {
                sync_reads_report(rt, &mut fs.io(r), &source, r as u64, 48)
            })
        })
        .collect();
    readers.into_iter().map(|r| r.join()).collect()
}

/// Two verified copies over three local ramdisks, one of them dead: the
/// reads fail over until the membership view declares it Dead.
fn sync_degraded(rt: &Runtime) -> String {
    let source = SyntheticSource::fixed(0x8E, 400, 2048);
    let cfg = DlfsConfig {
        chunk_size: 8 * 1024,
        replicas: 2,
        verify_reads: true,
        fail_dead_after: Some(Dur::micros(300)),
        reactor_stats: true,
        ..DlfsConfig::default()
    };
    let devices: Vec<Arc<NvmeDevice>> = (0..3)
        .map(|_| NvmeDevice::new(DeviceConfig::emulated_ramdisk(64 << 20, Dur::micros(10))))
        .collect();
    let fs = MountBuilder::new(cfg)
        .deployment(Deployment::local(1, &devices))
        .persistent()
        .mount(rt, &source)
        .unwrap();
    devices[1].kill();
    let report = sync_reads_report(rt, &mut fs.io(0), &source, 0, 160);
    assert!(fs.redundancy().unwrap().is_dead(1), "node 1 not Dead");
    report
}

/// Cross-epoch `Lz` misses over two NVMe-oF targets whose devices fail
/// reads: each miss fetches its run of frames, retrying under backoff.
fn sync_coded_misses(rt: &Runtime) -> String {
    let source = SyntheticSource::compressible(19, 400, 3000, 48);
    let cfg = DlfsConfig {
        chunk_size: 8 * 1024,
        cache_mode: CacheMode::CrossEpoch,
        codec: CodecKind::Lz,
        ..DlfsConfig::default()
    };
    let (fs, _cluster, devices) = disaggregated(rt, 2, &source, cfg);
    for (i, d) in devices.iter().enumerate() {
        d.set_faults(FaultInjector::new(37 + i as u64).with_read_failures(100_000));
    }
    let mut io = fs.io(0);
    let report = sync_reads_report(rt, &mut io, &source, 0, 96);
    assert!(io.metrics().counter("dlfs.io.retries") > 0, "no retries");
    report
}

/// `replicas: 2` + `verify_reads` with flipped blocks on the fast node and
/// a slow home node: failover and read-repair in one run, copied then
/// zero-copy, opened by a synchronous read of a corrupted sample.
#[test]
fn failover_repair_match_golden() {
    let _copies = COPY_OPS_QUIET.read().unwrap();
    let (report, end) = Runtime::simulate(12, |rt| {
        let source = SyntheticSource::fixed(8, 700, 2048);
        let slow = NvmeDevice::new(DeviceConfig::emulated_ramdisk(64 << 20, Dur::micros(500)));
        let fast = NvmeDevice::new(DeviceConfig::emulated_ramdisk(64 << 20, Dur::micros(10)));
        let devices = [slow, fast];
        let cfg = DlfsConfig {
            chunk_size: 8 * 1024,
            replicas: 2,
            verify_reads: true,
            ..DlfsConfig::default()
        };
        let fs = MountBuilder::new(cfg)
            .deployment(Deployment::local(1, &devices))
            .mount(rt, &source)
            .unwrap();
        // Volatile layout: node 1's own data (slot 0) starts at block 0.
        devices[1].set_faults(FaultInjector::new(31).with_bit_flips(0, 40));
        let mut io = fs.io(0);
        let mut report = String::new();
        // A sample homed on node 1 whose blocks sit inside the flipped run.
        let corrupted = (0..source.count() as u32)
            .find(|&id| {
                let e = fs.dir.entry(id);
                e.nid() == 1 && e.offset() < 8 * 512
            })
            .expect("a sample in the flipped extent");
        let data = io.read_by_id(rt, corrupted).unwrap();
        assert_eq!(data, source.expected(corrupted));
        sync_line(&mut report, rt, "read_by_id", corrupted, fnv1a(&data));
        let total = io.sequence(rt, 43, 0);
        report.push_str(&format!("epoch 0 total={total}\n"));
        drain_copied_report(rt, &mut io, &source, 32, &mut report);
        devices[1].set_faults(FaultInjector::new(33).with_bit_flips(64, 24));
        let total = io.sequence(rt, 43, 1);
        report.push_str(&format!("epoch 1 total={total}\n"));
        drain_zero_copy_report(rt, &mut io, &source, 32, &mut report);
        let m = io.metrics();
        for c in ["mismatches", "repairs", "failovers"] {
            assert!(m.counter(&format!("dlfs.integrity.{c}")) > 0, "no {c}");
        }
        report.push_str("--- telemetry ---\n");
        report.push_str(&m.render());
        report
    });
    let text = format!("{report}end t={}\n", end.nanos());
    check_golden("reactor_failover_repair.txt", &text);
}

/// `CrossEpoch` + `prefetch_window: 8` + `CodecKind::Lz` + `verify_reads`
/// over two epochs of a two-reader deal: prefetched frames are verified, decoded and published
/// through the same steps as demand fetches.
#[test]
fn verified_coded_prefetch_matches_golden() {
    let _copies = COPY_OPS_QUIET.read().unwrap();
    let (report, end) = Runtime::simulate(13, |rt| {
        let source = SyntheticSource::compressible(17, 500, 3000, 48);
        let cfg = DlfsConfig {
            chunk_size: 8 * 1024,
            cache_mode: CacheMode::CrossEpoch,
            prefetch_window: 8,
            codec: CodecKind::Lz,
            verify_reads: true,
            pool_chunks: 256,
            ..DlfsConfig::default()
        };
        // Two readers: each epoch deals reader 0 a different half of the
        // frames, so the tail of epoch 0 has cold ranges to warm.
        let (fs, _cluster, _devices) = disaggregated(rt, 2, &source, cfg);
        let mut io = fs.io(0);
        let mut report = String::new();
        for epoch in 0..2u64 {
            let total = io.sequence(rt, 47, epoch);
            report.push_str(&format!("epoch {epoch} total={total}\n"));
            if epoch == 0 {
                drain_copied_report(rt, &mut io, &source, 40, &mut report);
            } else {
                drain_zero_copy_report(rt, &mut io, &source, 40, &mut report);
            }
            report.push_str(&format!("epoch {epoch} done t={}\n", rt.now().nanos()));
        }
        let m = io.metrics();
        assert!(m.counter("dlfs.cache.prefetch_issued") > 0, "no prefetch");
        assert!(m.counter("dlfs.cache.prefetch_hits") > 0, "no prefetch hit");
        assert!(m.counter("dlfs.codec.bytes_in") < m.counter("dlfs.codec.bytes_out"));
        report.push_str("--- telemetry ---\n");
        report.push_str(&m.render());
        report
    });
    let text = format!("{report}end t={}\n", end.nanos());
    check_golden("reactor_coded_prefetch.txt", &text);
}

// ------------------------------------------------------- steady-state --

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts heap allocations per thread so a test can assert a region is
/// allocation-free. Lives in this test binary only (the library itself
/// forbids unsafe code).
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(p, l, n) }
    }
}

#[global_allocator]
static COUNTING_ALLOC: CountingAlloc = CountingAlloc;

fn my_allocs() -> u64 {
    ALLOCS.with(|c| c.get())
}

/// The steady-state warm batched read is zero-copy end to end: once a
/// `CrossEpoch` epoch is resident, draining it with `batch(n).zero_copy()`
/// posts no device command and performs no memcpy (`blocksim::copy_ops` is
/// flat) — each sample's segment list stays inline and its cache pin is
/// embedded in it. What the reading thread allocates in `submit` is
/// pinned: the vector each batch's samples are pushed onto, and the epoch's
/// bookkeeping.
#[test]
fn warm_zero_copy_batches_are_copy_free() {
    let _quiet = COPY_OPS_QUIET.write().unwrap();
    Runtime::simulate(6, |rt| {
        let source = SyntheticSource::fixed(3, 400, 2048);
        let cfg = DlfsConfig {
            cache_mode: CacheMode::CrossEpoch,
            ..DlfsConfig::default()
        };
        let fs = MountBuilder::new(cfg)
            .local(local_device())
            .mount(rt, &source)
            .unwrap();
        let mut io = fs.io(0);
        // One epoch in zero-copy batches of 32: (samples, batches, heap
        // allocations inside `submit`), every payload checked in place.
        let epoch = |io: &mut dlfs::DlfsIo, epoch| {
            io.sequence(rt, 5, epoch);
            let (mut samples, mut batches, mut allocs) = (0, 0, 0);
            loop {
                let before = my_allocs();
                let got = io.submit(rt, &ReadRequest::batch(32).zero_copy());
                allocs += my_allocs() - before;
                match got {
                    Ok(got) => {
                        for s in got.into_zero_copy() {
                            assert_eq!(s.fnv1a(), fnv1a(&source.expected(s.id)));
                            samples += 1;
                        }
                        batches += 1;
                    }
                    Err(DlfsError::EpochExhausted) => break,
                    Err(e) => panic!("epoch failed: {e}"),
                }
            }
            (samples, batches, allocs)
        };
        // Epoch 0 faults every range in; epoch 1 lets every lazily grown
        // structure (scheduler heap, qpair maps, TLS) reach steady state.
        for e in 0..2 {
            assert_eq!(epoch(&mut io, e).0, source.count());
        }
        let posted = |io: &dlfs::DlfsIo| io.metrics().counter("dlfs.io.requests_posted");
        let (posted0, copies0) = (posted(&io), blocksim::copy_ops());
        let (samples, batches, allocs) = epoch(&mut io, 2);
        assert_eq!((samples, batches), (400, 13));
        assert_eq!(posted(&io), posted0, "a warm epoch reads no device");
        assert_eq!(
            blocksim::copy_ops(),
            copies0,
            "warm batches must not memcpy"
        );
        // The vector a batch's samples are pushed onto grows 4 → 8 → 16 →
        // 32: four allocations per batch of 32, three for the last 16. The
        // epoch adds two, its open-item map and its draw set: 53 for 400
        // samples, ≈ 0.13 per sample.
        assert_eq!(allocs, 12 * 4 + 3 + 2, "heap allocations in a warm epoch");
    });
}

/// Reactor activity counters surface in the registry when (and only when)
/// `reactor_stats` is set: wakeups, doorbell flushes and parked time per
/// epoch become observable without disturbing default telemetry renders.
#[test]
fn reactor_stats_expose_wakeups_and_doorbells() {
    let _copies = COPY_OPS_QUIET.read().unwrap();
    // A client-path epoch, then an offloaded one: the wait for a storage
    // node's answer, nothing on any qpair, is parked time.
    let epochs = |reactor_stats| {
        let run = Runtime::simulate(7, move |rt| {
            let source = SyntheticSource::fixed(2, 300, 2048);
            let cfg = DlfsConfig {
                reactor_stats,
                offload: true,
                ..DlfsConfig::default()
            };
            let fs = MountBuilder::new(cfg)
                .local(local_device())
                .mount(rt, &source)
                .unwrap();
            let mut io = fs.io(0);
            io.sequence(rt, 5, 0);
            while io.submit(rt, &ReadRequest::batch(32)).is_ok() {}
            io.sequence(rt, 5, 1);
            while io.submit(rt, &ReadRequest::batch(32).offload()).is_ok() {}
            io.metrics()
        });
        run.0
    };
    // Default config: the reactor counters must stay out of the render so
    // existing reports remain byte-stable.
    let render = epochs(false).render();
    assert!(
        !render.contains("dlfs.reactor."),
        "reactor counters must be hidden by default:\n{render}"
    );

    // Opt-in: wakeups, doorbells and parked time are published.
    let m = epochs(true);
    let reactor = |name: &str| m.counter(&format!("dlfs.reactor.{name}"));
    assert!(reactor("wakeups") > 0, "an epoch must record wakeups");
    assert!(reactor("doorbells") > 0, "an epoch must ring doorbells");
    assert!(reactor("parked_ns") > 0, "an offload wait is parked time");
}

/// Hybrid polling predicts a wait only from what its reader has seen, so
/// it cannot see a device's latency change coming. Synchronous reads from
/// one device whose every read is slowed by 30 µs, then not (a step down),
/// then slowed again (a step up). The first wait after the step down parks
/// through its completion and harvests late, and so do the next
/// `LATE - 1`: each sample is censored by its own park. From the `LATE`-th
/// on none is late; the prediction's spread keeps most of them spun, and
/// from the `RECOVER`-th on every wait parks again, converging on the park
/// of a handle that only ever saw the fast device.
/// The first wait after the step up is not late, but it spins longer than
/// a slow read of steady state.
#[test]
fn a_latency_step_is_mispredicted_in_both_directions() {
    const LATE: usize = 3;
    const RECOVER: usize = 27;
    let _copies = COPY_OPS_QUIET.read().unwrap();
    let seed = common::test_seed(41);
    Runtime::simulate(seed, |rt| {
        let source = SyntheticSource::fixed(seed, 400, 1024);
        let device = NvmeDevice::new(DeviceConfig::emulated_ramdisk(64 << 20, Dur::micros(12)));
        let cfg = DlfsConfig {
            reactor_stats: true,
            ..DlfsConfig::default()
        };
        let fs = MountBuilder::new(cfg)
            .local(device.clone())
            .mount(rt, &source)
            .unwrap();
        let mut ids = simkit::rng::SplitMix64::derive(seed, 0x57e9);
        // `n` reads by `io` with the device slowed or not, each as the
        // (late ns, parked ns, busy) it added.
        let mut reads = |io: &mut dlfs::DlfsIo, slowed: bool, n: usize| {
            let extra = if slowed { Dur::micros(30) } else { Dur::ZERO };
            device.set_faults(FaultInjector::new(seed).with_latency_spikes(1_000_000, extra));
            let mut out = Vec::new();
            for _ in 0..n {
                let (m0, busy0) = (io.metrics(), rt.my_busy());
                let id = ids.below(source.count() as u64) as u32;
                assert_eq!(io.read_by_id(rt, id).unwrap(), source.expected(id));
                let m = io.metrics();
                let added = |c: &str| {
                    let name = format!("dlfs.reactor.{c}");
                    m.counter(&name) - m0.counter(&name)
                };
                out.push((added("late_ns"), added("parked_ns"), rt.my_busy() - busy0));
            }
            out
        };
        // A handle's first read spins; every later one parks alike.
        let fast = reads(&mut fs.io(0), false, 4);
        let mut io = fs.io(0);
        let slow = reads(&mut io, true, 4);
        let down = reads(&mut io, false, 64);
        let up = reads(&mut io, true, 1);
        for steady in [&fast, &slow] {
            assert!(steady[1..]
                .iter()
                .all(|&r| r == steady[1] && r.0 == 0 && r.1 > 0));
        }
        // The step down: late, then on time; parking again, converging.
        assert!(down[..LATE].iter().all(|r| r.0 > 0), "{down:?}");
        assert!(down[LATE..].iter().all(|r| r.0 == 0), "{down:?}");
        let parked: Vec<u64> = down[RECOVER..].iter().map(|r| r.1).collect();
        assert!(
            parked.windows(2).all(|w| 0 < w[0] && w[0] <= w[1]),
            "{parked:?}"
        );
        assert!(
            parked[parked.len() - 1] * 100 >= fast[1].1 * 99,
            "{parked:?}"
        );
        // The step up: on time, but spun longer than a steady slow read.
        assert_eq!(up[0].0, 0);
        assert!(up[0].2 > slow[1].2, "{up:?} against {slow:?}");
    });
}

/// `sequence()` and a dropped handle with verdicts outstanding — parts
/// harvested, their chunks still the copy pool's to read: each waits for
/// the pool before any chunk goes back (a prefetch's verdict is applied,
/// a demand part's dropped), every chunk does go back, and the pool
/// answers the next handle. One zero-copy sample per batch after a poll
/// pass that harvested the whole window, so every batch returns with most
/// of the pass's verdicts still to come.
#[test]
fn resequence_and_drop_wait_for_outstanding_verdicts() {
    let _copies = COPY_OPS_QUIET.read().unwrap();
    Runtime::simulate(9, |rt| {
        let source = SyntheticSource::fixed(6, 1200, 2048);
        let cfg = DlfsConfig {
            chunk_size: 8 << 10,
            verify_reads: true,
            ..DlfsConfig::default()
        };
        let fs = MountBuilder::new(cfg)
            .local(local_device())
            .mount(rt, &source)
            .unwrap();
        let cache = fs.shared(0).cache.clone();
        let one = ReadRequest::batch(1)
            .zero_copy()
            .inject_compute(Dur::micros(200));
        // Completions harvested and not yet settled: verdicts outstanding.
        let outstanding = |io: &dlfs::DlfsIo| {
            let m = io.metrics();
            m.counter("dlfs.io.completions") - m.histogram("dlfs.io.stage.check_ns").count
        };
        let mut io = fs.io(0);
        let mut dropped = 0;
        for cycle in 0..6 {
            io.sequence(rt, 3, cycle);
            assert_eq!(io.submit(rt, &one).map(|b| b.len()), Ok(1));
            let waiting = outstanding(&io) - dropped;
            assert!(waiting > 0, "cycle {cycle}: nothing with the copy pool");
            dropped += waiting;
            if cycle % 2 == 1 {
                // The handle goes, its window and its verdicts with it.
                io = fs.io(0);
                dropped = 0;
                assert_eq!(cache.free_chunks(), cache.total_chunks(), "cycle {cycle}");
            }
        }
        let total = io.sequence(rt, 3, 6);
        assert_eq!(cache.free_chunks(), cache.total_chunks());
        let mut seen = vec![false; total];
        while let Ok(batch) = io.submit(rt, &ReadRequest::batch(32)) {
            for (id, data) in batch.into_copied() {
                assert_eq!(data, source.expected(id), "sample {id} corrupted");
                assert!(!std::mem::replace(&mut seen[id as usize], true));
            }
        }
        assert!(seen.iter().all(|&s| s), "epoch incomplete");
    });
}

/// A handle whose copy pool has no thread left fails its batch with the
/// typed `CopyPoolDown`, at the first pass with checks to publish, and
/// keeps failing; neither `sequence` nor the drop waits for verdicts
/// nobody will give, and every chunk goes back.
#[test]
fn a_dead_copy_pool_fails_the_batch_and_nothing_waits_on_it() {
    Runtime::simulate(9, |rt| {
        let source = SyntheticSource::fixed(6, 256, 2048);
        let cfg = DlfsConfig {
            chunk_size: 8 << 10,
            verify_reads: true,
            ..DlfsConfig::default()
        };
        let fs = MountBuilder::new(cfg.clone())
            .local(local_device())
            .mount(rt, &source)
            .unwrap();
        let live = fs.shared(0);
        let cache = live.cache.clone();
        let mut io = dlfs::DlfsIo::new(Arc::new(dlfs::DlfsShared {
            copy: dlfs::copy::CopyPool::spawn(rt, "dead", 0, &cfg.costs),
            ..dlfs::DlfsShared::clone(live)
        }));
        let down = Err(DlfsError::CopyPoolDown);
        for epoch in 0..2 {
            io.sequence(rt, 3, epoch);
            assert_eq!(cache.free_chunks(), cache.total_chunks(), "epoch {epoch}");
            for _ in 0..2 {
                let batch = io.submit(rt, &ReadRequest::batch(8));
                assert_eq!(batch.map(|b| b.len()), down, "epoch {epoch}");
            }
        }
        drop(io);
        assert_eq!(cache.free_chunks(), cache.total_chunks());
    });
}

/// A handle that goes down with its thread does not wait for the pool: the
/// simulation ends while a reader sleeps mid-epoch with verdicts
/// outstanding (the same one-sample batch as above), its thread is unwound
/// and the handle dropped on the way. A wait on the pool there is a
/// second unwind inside the first: the process aborts.
#[test]
fn a_handle_unwound_with_verdicts_outstanding_does_not_wait() {
    let _copies = COPY_OPS_QUIET.read().unwrap();
    Runtime::simulate(9, |rt| {
        let source = SyntheticSource::fixed(6, 1200, 2048);
        let cfg = DlfsConfig {
            chunk_size: 8 << 10,
            verify_reads: true,
            ..DlfsConfig::default()
        };
        let fs = MountBuilder::new(cfg)
            .local(local_device())
            .mount(rt, &source)
            .unwrap();
        let (ready, parked) = rt.channel(None);
        rt.spawn("reader", move |rt| {
            let mut io = fs.io(0);
            io.sequence(rt, 3, 0);
            let one = ReadRequest::batch(1)
                .zero_copy()
                .inject_compute(Dur::micros(200));
            let batch = io.submit(rt, &one).map(|b| b.len());
            let m = io.metrics();
            let settled = m.histogram("dlfs.io.stage.check_ns").count;
            ready
                .send((batch, m.counter("dlfs.io.completions") - settled))
                .unwrap();
            rt.sleep(Dur::secs(1));
        });
        let (batch, outstanding) = parked.recv().unwrap();
        assert_eq!(batch, Ok(1));
        assert!(outstanding > 0, "nothing with the copy pool");
    });
}
