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

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use blocksim::{DeviceConfig, FaultInjector, NvmeDevice};
use common::{check_golden, local_device};
use dlfs::source::SampleSource;
use dlfs::{
    BatchMode, CacheMode, CodecKind, Deployment, DlfsConfig, DlfsError, DlfsInstance, MountBuilder,
    ReadRequest, SyntheticSource,
};
use fabric::{Cluster, FabricConfig, FabricFaultInjector};
use simkit::prelude::*;
use simkit::rng::fnv1a;

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
/// then slowed again (a step up). A handle's first `LONE` reads spin while
/// it times its reads alone; every later one parks alike. The first wait
/// after the step down parks past its completion: late once, the handle
/// forgets what it timed, spins the next `LONE` reads and then parks as a
/// handle that only ever saw the fast device does. The first wait after
/// the step up is not late, but it spins longer than a slow read of
/// steady state.
#[test]
fn a_latency_step_is_mispredicted_in_both_directions() {
    const LONE: usize = 4;
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
        // A handle's first reads spin; every later one parks alike.
        let fast = reads(&mut fs.io(0), false, 2 * LONE);
        let mut io = fs.io(0);
        let slow = reads(&mut io, true, 2 * LONE);
        let down = reads(&mut io, false, 2 * LONE + 1);
        let up = reads(&mut io, true, 1);
        let spun = |r: &[(u64, u64, Dur)]| r.iter().all(|r| r.0 == 0 && r.1 == 0);
        for steady in [&fast, &slow] {
            assert!(spun(&steady[..LONE]), "{steady:?}");
            let parked = |r: &(u64, u64, Dur)| *r == steady[LONE] && r.1 > 0;
            assert!(steady[LONE..].iter().all(parked), "{steady:?}");
        }
        // The step down: late once, spun while timed again, then parked as
        // the fast handle did.
        assert!(down[0].0 > 0, "{down:?}");
        assert!(spun(&down[1..=LONE]), "{down:?}");
        assert!(
            down[LONE + 1..].iter().all(|r| *r == fast[LONE]),
            "{down:?}"
        );
        // The step up: on time, but spun longer than a steady slow read.
        assert_eq!(up[0].0, 0);
        assert!(up[0].2 > slow[LONE].2, "{up:?} against {slow:?}");
    });
}

/// One batched epoch of `sizes` from reader 0 of `deployment` mounted
/// with `cfg`, reactor counters on, drained in copied batches of 32: the
/// (late ns, parked ns) it added, the hash of its report (every batch's
/// instant, ids and payload), and the instant the run ended.
fn queued_epoch(
    seed: u64,
    sizes: Vec<u64>,
    deployment: Deployment,
    cfg: DlfsConfig,
) -> (u64, u64, u64, u64) {
    let ((late, parked, report), end) = Runtime::simulate(seed, |rt| {
        let source = SyntheticSource::new(seed, sizes);
        let cfg = DlfsConfig {
            reactor_stats: true,
            ..cfg
        };
        let fs = MountBuilder::new(cfg)
            .deployment(deployment)
            .mount(rt, &source)
            .unwrap();
        let mut io = fs.io(0);
        io.sequence(rt, seed, 0);
        let mut report = String::new();
        drain_copied_report(rt, &mut io, &source, 32, &mut report);
        let m = io.metrics();
        let reactor = |c: &str| m.counter(&format!("dlfs.reactor.{c}"));
        (
            reactor("late_ns"),
            reactor("parked_ns"),
            fnv1a(report.as_bytes()),
        )
    });
    (late, parked, report, end.nanos())
}

/// Every sample read alone.
fn sample_level() -> DlfsConfig {
    DlfsConfig {
        batch_mode: BatchMode::SampleLevel,
        ..DlfsConfig::default()
    }
}

/// One reader on node 0 of a fabric whose NICs move `nic` bytes/s, and a
/// ramdisk of `device` on each of nodes 1 to `targets`: remote qpairs
/// whose payloads all cross the reader's one NIC ingress.
fn one_wire(targets: usize, nic: f64, device: DeviceConfig) -> Result<Deployment, DlfsError> {
    let fabric = FabricConfig {
        nic_bytes_per_sec: nic,
        ..FabricConfig::default()
    };
    let cluster = Arc::new(Cluster::new(targets + 1, fabric));
    let devices: Vec<_> = (0..targets)
        .map(|_| NvmeDevice::new(device.clone()))
        .collect();
    let nodes: Vec<usize> = (1..=targets).collect();
    Deployment::fabric(&cluster, &[0], &nodes, &devices)
}

/// Hybrid polling with a queue in flight: a batched epoch of uniform
/// 64 KiB samples from one local ramdisk keeps a deep queue on one qpair,
/// and its waits park to one wake-up before the floor the qpair predicts
/// from the completions it saw land, never past one. Parking moves no
/// instant: the epoch delivers the same batches at the same instants, and
/// ends when, it did when every such wait spun. Half of each wait parked
/// 9.9 ms; to the floor, over 15.
#[test]
fn a_deep_queue_parks_on_time() {
    // (seed, report hash, end ns) with every queued wait spun, at the base
    // seed and at the CI sweep's second-seed offset; another offset checks
    // only the parking.
    const SPUN: [(u64, u64, u64); 2] = [
        (46, 0xb14f_bebe_c866_2d94, 45_789_366),
        (1046, 0xdf14_f438_e8e5_44a5, 45_789_366),
    ];
    let _copies = COPY_OPS_QUIET.read().unwrap();
    let seed = common::test_seed(46);
    let ramdisk = DeviceConfig::emulated_ramdisk(128 << 20, Dur::micros(10));
    let deployment = Deployment::local(1, &[NvmeDevice::new(ramdisk)]);
    let (late, parked, report, end) =
        queued_epoch(seed, vec![64 << 10; 768], deployment, DlfsConfig::default());
    assert!(parked >= 15_000_000, "queued waits parked {parked} ns");
    assert_eq!(late, 0, "a queued wait parked past its completion");
    if let Some(&(_, hash, at)) = SPUN.iter().find(|s| s.0 == seed) {
        assert_eq!((report, end), (hash, at), "parking moved an instant");
    }
}

/// A qpair that has timed only small queued reads predicts nothing for a
/// head of a size class it never timed: per-command costs dominate a
/// small read's time, so its time per byte would put a large read's
/// completion far too late. 4 KiB samples, one read each, from a
/// one-channel device whose every read pays 20 µs, and a few 256 KiB ones
/// among them: the small reads' waits park, and no wait parks late.
#[test]
fn a_head_larger_than_anything_timed_is_not_predicted() {
    let _copies = COPY_OPS_QUIET.read().unwrap();
    let seed = common::test_seed(47);
    let sizes = (0..512).map(|i| if i % 128 == 64 { 256 << 10 } else { 4 << 10 });
    let device = DeviceConfig {
        channels: 1,
        ..DeviceConfig::emulated_ramdisk(64 << 20, Dur::micros(20))
    };
    let deployment = Deployment::local(1, &[NvmeDevice::new(device)]);
    let (late, parked, _, _) = queued_epoch(seed, sizes.collect(), deployment, sample_level());
    assert!(parked > 0, "no queued wait parked");
    assert_eq!(late, 0, "a queued wait parked past its completion");
}

/// Hybrid polling across a shared wire: one reader batching from two
/// NVMe-oF ramdisks behind a 1 GB/s NIC, whose payloads cross the
/// reader's one ingress one after another. Each qpair's gaps hold the
/// other's payloads, so the qpairs time their reads on the ingress's
/// clock, and the waits park to one wake-up before the floor it predicts,
/// never past a completion. Parking moves no instant: the epoch delivers
/// the same batches at the same instants, and ends when, it did when every
/// such wait spun. Half of each wait parked 6.9 ms; to the floor, over 10.
#[test]
fn two_targets_on_one_wire_park_on_time() {
    // (seed, report hash, end ns) with every queued wait spun, at the base
    // seed and at the CI sweep's second-seed offset; another offset checks
    // only the parking.
    const SPUN: [(u64, u64, u64); 2] = [
        (48, 0x0d77_aef7_206f_45ff, 33_850_770),
        (1048, 0x58ac_a061_e030_e1f8, 33_850_770),
    ];
    let _copies = COPY_OPS_QUIET.read().unwrap();
    let seed = common::test_seed(48);
    let ramdisk = DeviceConfig::emulated_ramdisk(64 << 20, Dur::micros(10));
    let (late, parked, report, end) = queued_epoch(
        seed,
        vec![16 << 10; 1024],
        one_wire(2, 1.0e9, ramdisk).unwrap(),
        DlfsConfig::default(),
    );
    assert!(parked >= 10_000_000, "waits on the wire parked {parked} ns");
    assert_eq!(late, 0, "a wait on the wire parked past its completion");
    if let Some(&(_, hash, at)) = SPUN.iter().find(|s| s.0 == seed) {
        assert_eq!((report, end), (hash, at), "parking moved an instant");
    }
}

/// A wire that lands in post order: two NVMe-oF ramdisks, faster than the
/// 1 GB/s NIC they share, so payloads cross it in the order they were
/// posted. One sample in three is 48 KiB, the rest 16 KiB. Once the wire
/// has landed only in post order, a read is expected no earlier than every
/// read posted before it has crossed, then its own bytes: the waits park
/// to the oldest read, not to the smallest. At chunk level, waits that
/// parked to the smallest read's bytes parked 4.1 ms; to the oldest, over
/// 20. In `cache_reuse`'s shape — 16 KiB ± 1/16 samples in 64 KiB chunks —
/// ≈ 49 KiB chunk runs follow ≈ 16 KiB edge reads, and a run can exceed
/// twice the mean bytes the wire sampled: timed as nothing, its wait spun,
/// and the epoch parked 11.27–11.39 ms at seed offsets 0, 1000 and 7;
/// crossing no faster than twice the mean, over 11.7. Parking
/// moves no instant, at chunk or sample level.
#[test]
fn a_wire_that_lands_in_post_order_parks_to_its_oldest_read() {
    // (seed, [(report hash, end ns) at chunk level, at sample level, in
    // 64 KiB chunks]) when each wait parked to the smallest read's bytes
    // (in 64 KiB chunks, when a run over twice the mean spun), at the base
    // seed and at the CI sweep's second-seed offset.
    const SMALLEST: [(u64, [(u64, u64); 3]); 2] = [
        (
            53,
            [
                (0xcda9_884b_9df6_ede4, 56_191_017),
                (0xf310_206e_c92f_2ef4, 56_115_634),
                (0x222a_0cca_645b_cc1e, 33_915_618),
            ],
        ),
        (
            1053,
            [
                (0x2af9_eb8a_7998_96d5, 56_206_264),
                (0xc8dc_7e3c_2d6d_2b76, 56_115_634),
                (0x3cda_6bdc_aba3_55b6, 33_882_785),
            ],
        ),
    ];
    let _copies = COPY_OPS_QUIET.read().unwrap();
    let seed = common::test_seed(53);
    let sizes: Vec<u64> = (0..1024)
        .map(|i| if i % 3 == 0 { 48 << 10 } else { 16 << 10 })
        .collect();
    let chunks = DlfsConfig {
        chunk_size: 64 << 10,
        ..DlfsConfig::default()
    };
    // (sizes, config, least ns parked) of each input.
    let inputs = [
        (sizes.clone(), DlfsConfig::default(), 10_000_000),
        (sizes, sample_level(), 0),
        (near_fixed_sizes(seed, 1024, 16 << 10), chunks, 11_600_000),
    ];
    let ramdisk = DeviceConfig::emulated_ramdisk(64 << 20, Dur::micros(10));
    for (input, (sizes, cfg, least)) in inputs.into_iter().enumerate() {
        let deployment = one_wire(2, 1.0e9, ramdisk.clone()).unwrap();
        let (late, parked, report, end) = queued_epoch(seed, sizes, deployment, cfg);
        assert!(parked >= least, "input {input}: waits parked {parked} ns");
        assert_eq!(late, 0, "a wait on the wire parked past its completion");
        if let Some((_, spun)) = SMALLEST.iter().find(|s| s.0 == seed) {
            assert_eq!((report, end), spun[input], "parking moved an instant");
        }
    }
}

/// The wire fills gaps: on ramdisks slower than the wire, a 16 KiB read
/// posted after a 64 KiB head, on the other qpair, leaves its device
/// first and crosses the wire in the gap before the head's payload, so it
/// lands first. Every read in flight through the wire is predicted, not
/// only the qpairs' heads, so no wait parks past it. One 64 KiB sample in
/// four, the rest 16 KiB, each read alone. The devices, not the wire,
/// bound this run, so most waits spin, and none is required to park.
#[test]
fn a_later_read_on_another_qpair_can_land_first() {
    let _copies = COPY_OPS_QUIET.read().unwrap();
    let seed = common::test_seed(49);
    let sizes = (0..1024).map(|i| if i % 4 == 0 { 64 << 10 } else { 16 << 10 });
    let ramdisk = DeviceConfig {
        bytes_per_sec: 0.5e9,
        ..DeviceConfig::emulated_ramdisk(64 << 20, Dur::micros(10))
    };
    let (late, _, _, _) = queued_epoch(
        seed,
        sizes.collect(),
        one_wire(2, 1.0e9, ramdisk).unwrap(),
        sample_level(),
    );
    assert_eq!(late, 0, "a wait parked past a read that overtook the heads");
}

/// A wire with room to spare: four NVMe-oF ramdisks behind the default
/// 6.8 GB/s NIC, two 64 KiB reads in flight on each. Payloads that land
/// back to back while the reader works are never timed by a prompt pass,
/// so the prompt floor sits above the wire's time per byte; the least
/// time per byte any pass since the anchor saw bounds it, and no wait
/// parks past a completion.
#[test]
fn a_wire_with_room_to_spare_parks_on_time() {
    let _copies = COPY_OPS_QUIET.read().unwrap();
    let seed = common::test_seed(50);
    let ramdisk = DeviceConfig::emulated_ramdisk(64 << 20, Dur::micros(10));
    let cfg = DlfsConfig {
        queue_depth: 2,
        ..sample_level()
    };
    let deployment = one_wire(4, FabricConfig::default().nic_bytes_per_sec, ramdisk);
    let (late, _, _, _) = queued_epoch(seed, vec![64 << 10; 1024], deployment.unwrap(), cfg);
    assert_eq!(
        late, 0,
        "a wait parked past a payload that crossed the wire early"
    );
}

/// A wire is timed from where its read landed: the spin end of the wait
/// before a prompt pass, as a device is. Two NVMe-oF ramdisks of 29 µs
/// behind a 1 GB/s NIC, 32 KiB samples in 128 KiB chunks, eight reads in
/// flight on each qpair. The reader works between the spin end and its
/// poll while the next payload is already crossing; a wire timed from the
/// pass's start put that payload after it lands. Timed from the pass
/// start, the epoch parked 16.0 ms and ≈ 24.8 µs of it late; from the
/// spin end, ≈ 29 ms and none late.
#[test]
fn a_wire_is_timed_from_where_its_read_landed() {
    let _copies = COPY_OPS_QUIET.read().unwrap();
    let seed = common::test_seed(61);
    let ramdisk = DeviceConfig::emulated_ramdisk(64 << 20, Dur::micros(29));
    let cfg = DlfsConfig {
        chunk_size: 128 << 10,
        queue_depth: 8,
        ..DlfsConfig::default()
    };
    let deployment = one_wire(2, 1.0e9, ramdisk).unwrap();
    let (late, parked, _, _) = queued_epoch(seed, vec![32 << 10; 1024], deployment, cfg);
    assert_eq!(late, 0, "a wait on the wire parked past its completion");
    assert!(parked >= 25_000_000, "waits on the wire parked {parked} ns");
}

/// A read alone on its qpair, on a wire: ablation 4's set-up at queue
/// depth 1 — four NVMe-oF ramdisks behind the default NIC, one 64 KiB read
/// in flight on each qpair. The wire's floor alone sits well before most
/// such reads land; each is expected no earlier than the later of it and
/// its qpair's lone floor, the least time a read of its size took alone.
/// On the wire's floor alone the epoch parked 5.9 ms; with a head-time
/// floor hedged, 23.2 ms and 1.3 µs of it late; with the lone floor, over
/// 40 and none late. Parking moves no instant.
#[test]
fn a_read_alone_on_its_qpair_keeps_its_lone_floor_on_a_wire() {
    // (seed, report hash, end ns) with no wait late, at the base seed and
    // at the CI sweep's second-seed offset.
    const ON_TIME: [(u64, u64, u64); 2] = [
        (20190920, 0xd564_54e2_4315_7bcd, 122_403_460),
        (20191920, 0xface_74b6_ebe1_2793, 122_677_212),
    ];
    let _copies = COPY_OPS_QUIET.read().unwrap();
    let seed = common::test_seed(20190923 ^ 3);
    let ramdisk = DeviceConfig::emulated_ramdisk(256 << 20, Dur::micros(10));
    let cfg = DlfsConfig {
        queue_depth: 1,
        window_chunks: 8,
        ..sample_level()
    };
    let deployment = one_wire(4, FabricConfig::default().nic_bytes_per_sec, ramdisk);
    let (late, parked, report, end) =
        queued_epoch(seed, vec![64 << 10; 3072], deployment.unwrap(), cfg);
    assert!(parked >= 40_000_000, "waits parked {parked} ns");
    assert_eq!(late, 0, "a wait parked past its completion");
    if let Some(&(_, hash, at)) = ON_TIME.iter().find(|s| s.0 == seed) {
        assert_eq!((report, end), (hash, at), "parking moved an instant");
    }
}

/// `readers` reader tasks on their own nodes, each issuing 2 000 seeded
/// `read_by_id` calls over NVMe-oF ramdisks whose reads take `delays` µs,
/// on samples of 512 B–4 KiB: every target lies behind each reader's one
/// NIC ingress. Each payload is checked against its source; returns the
/// (late ns, parked ns) of every handle together.
fn sync_reads_behind_one_wire(seed: u64, delays: &[u64], readers: usize) -> [u64; 2] {
    let (sums, _) = Runtime::simulate(seed, |rt| {
        let mut draw = simkit::rng::SplitMix64::derive(seed, 0x10a4);
        let sizes = (0..2048).map(|_| 512 + draw.below(3585)).collect();
        let source = Arc::new(SyntheticSource::new(seed, sizes));
        let cluster = Arc::new(Cluster::new(
            readers + delays.len(),
            FabricConfig::default(),
        ));
        let devices: Vec<_> = (delays.iter())
            .map(|&us| NvmeDevice::new(DeviceConfig::emulated_ramdisk(64 << 20, Dur::micros(us))))
            .collect();
        let on: Vec<usize> = (0..readers).collect();
        let at: Vec<usize> = (readers..readers + delays.len()).collect();
        let deployment = Deployment::fabric(&cluster, &on, &at, &devices).unwrap();
        let cfg = DlfsConfig {
            reactor_stats: true,
            ..DlfsConfig::default()
        };
        let fs = Arc::new(
            MountBuilder::new(cfg)
                .deployment(deployment)
                .mount(rt, &*source)
                .unwrap(),
        );
        let tasks: Vec<_> = (0..readers)
            .map(|r| {
                let (fs, source) = (fs.clone(), source.clone());
                rt.spawn_with(&format!("reader{r}"), move |rt| {
                    let (mut io, mut ids) =
                        (fs.io(r), simkit::rng::SplitMix64::derive(seed, r as u64));
                    for _ in 0..2000 {
                        let id = ids.below(source.count() as u64) as u32;
                        assert_eq!(
                            io.read_by_id(rt, id).unwrap(),
                            source.expected(id),
                            "sample {id}"
                        );
                    }
                    let m = io.metrics();
                    ["late_ns", "parked_ns"].map(|c| m.counter(&format!("dlfs.reactor.{c}")))
                })
            })
            .collect();
        tasks
            .into_iter()
            .map(|t| t.join())
            .fold([0; 2], |a, b| [a[0] + b[0], a[1] + b[1]])
    });
    sums
}

/// A lone read on a wire with no floor of its own borrows its qpair's
/// siblings' there, if its own samples show its target no faster than
/// theirs (DESIGN §13), and no more than its own reads up to its size
/// took. Targets that are not alike behind one wire — a 2 µs ramdisk
/// beside three of 60, a 40 beside a 5, two 5s beside two 40s — with 1
/// and 4 readers: no wait parks past its completion, though a fast
/// target's reads land before a slow sibling's floor. Uncapped by its own
/// reads, one reader over the last parked 1 232 ns late at offset 7.
/// Alike targets park more than they did with no loan.
#[test]
fn a_lone_read_borrows_only_from_siblings_no_faster_than_its_target() {
    // (readers, least ns parked) on four alike 10 µs ramdisks: with no
    // loan the waits parked 25.50–25.52 and 90.70–92.63 ms at offsets 0,
    // 1000 and 7; with it, 25.87–25.90 and 98.53–99.89.
    const ALIKE: [(usize, u64); 2] = [(1, 25_700_000), (4, 95_000_000)];
    let _copies = COPY_OPS_QUIET.read().unwrap();
    let seed = common::test_seed(59);
    for delays in [&[2, 60, 60, 60][..], &[40, 5], &[5, 40, 5, 40]] {
        for readers in [1, 4] {
            let [late, _] = sync_reads_behind_one_wire(seed, delays, readers);
            assert_eq!(late, 0, "{readers} readers on {delays:?} µs parked late");
        }
    }
    for (readers, least) in ALIKE {
        let [late, parked] = sync_reads_behind_one_wire(seed, &[10; 4], readers);
        assert_eq!(late, 0, "{readers} readers on alike targets parked late");
        assert!(
            parked > least,
            "{readers} readers on alike targets parked {parked} ns"
        );
    }
}

/// Two handles on one device, no QoS: each keeps a queue on its own
/// qpair, and the other's reads land between its own. Each qpair's device
/// clock counts the other's reads among the bytes its device moved, so a
/// head queued behind them is expected after them, and the waits park to
/// that floor unhedged: hedged, the pair parked 4.1–4.4 ms in all at five
/// seeds; in device bytes, over 5.5. None parks past a completion. 4 KiB
/// samples, batches of 32 each. Parking moves no instant.
#[test]
fn a_device_another_handle_reads_parks_behind_its_reads() {
    // (seed, hash of both reports, end ns) as with every wait hedged, at
    // the base seed and at the CI sweep's second-seed offset.
    const HEDGED: [(u64, u64, u64); 2] = [
        (52, 0x28ff_c3ee_fa00_9dc3, 14_973_486),
        (1052, 0x243a_db39_996e_9c3c, 14_973_486),
    ];
    let _copies = COPY_OPS_QUIET.read().unwrap();
    let seed = common::test_seed(52);
    let ramdisk = DeviceConfig::emulated_ramdisk(64 << 20, Dur::micros(10));
    let deployment = Deployment::local(2, &[NvmeDevice::new(ramdisk)]);
    let (runs, end) = Runtime::simulate(seed, |rt| {
        let source = Arc::new(SyntheticSource::fixed(seed, 4000, 4096));
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
                    let mut io = fs.io(r);
                    io.sequence(rt, seed, 0);
                    let mut report = String::new();
                    drain_copied_report(rt, &mut io, &source, 32, &mut report);
                    let m = io.metrics();
                    let reactor = |c: &str| m.counter(&format!("dlfs.reactor.{c}"));
                    (reactor("late_ns"), reactor("parked_ns"), report)
                })
            })
            .collect();
        readers.into_iter().map(|r| r.join()).collect::<Vec<_>>()
    });
    let late: u64 = runs.iter().map(|r| r.0).sum();
    let parked: u64 = runs.iter().map(|r| r.1).sum();
    assert!(runs.iter().all(|r| r.1 > 0), "a handle never parked");
    assert!(parked >= 5_500_000, "the pair parked {parked} ns");
    assert_eq!(late, 0, "a wait parked past its completion");
    let report: String = runs.iter().map(|r| r.2.as_str()).collect();
    let (report, end) = (fnv1a(report.as_bytes()), end.nanos());
    if let Some(&(_, hash, at)) = HEDGED.iter().find(|s| s.0 == seed) {
        assert_eq!((report, end), (hash, at), "parking moved an instant");
    }
}

/// A neighbour that reads in bursts: two handles on one device, one
/// draining batches of 32, the other batches of 4 with a 100 µs pause
/// after each. A clock that timed each pass by its own reads alone, over
/// passes the neighbour's reads shared, sat late once the neighbour
/// paused: spun to its floor then, the waits ran 238 µs past their
/// completions in all; hedged, 30 µs. Timed in device bytes, the
/// neighbour's reads count whether they come or pause. 4 KiB samples.
#[test]
fn a_neighbour_that_reads_in_bursts_does_not_skew_the_clock() {
    let _copies = COPY_OPS_QUIET.read().unwrap();
    let seed = common::test_seed(54);
    let ramdisk = DeviceConfig::emulated_ramdisk(64 << 20, Dur::micros(10));
    let deployment = Deployment::local(2, &[NvmeDevice::new(ramdisk)]);
    let (late, _) = Runtime::simulate(seed, |rt| {
        let source = Arc::new(SyntheticSource::fixed(seed, 4000, 4096));
        let cfg = DlfsConfig {
            reactor_stats: true,
            ..DlfsConfig::default()
        };
        let fs = MountBuilder::new(cfg).deployment(deployment);
        let fs = Arc::new(fs.mount(rt, &*source).unwrap());
        let readers: Vec<_> = [(32, Dur::ZERO), (4, Dur::micros(100))]
            .into_iter()
            .enumerate()
            .map(|(r, (batch, pause))| {
                let (fs, source) = (fs.clone(), source.clone());
                rt.spawn_with(&format!("reader{r}"), move |rt| {
                    let mut io = fs.io(r);
                    io.sequence(rt, seed, 0);
                    loop {
                        let got = match io.submit(rt, &ReadRequest::batch(batch)) {
                            Ok(got) => got,
                            Err(DlfsError::EpochExhausted) => break,
                            Err(e) => panic!("epoch failed: {e}"),
                        };
                        for (id, data) in got.into_copied() {
                            assert_eq!(data, source.expected(id), "payload mismatch {id}");
                        }
                        rt.sleep(pause);
                    }
                    io.metrics().counter("dlfs.reactor.late_ns")
                })
            })
            .collect();
        readers.into_iter().map(|r| r.join()).sum::<u64>()
    });
    assert_eq!(late, 0, "a wait parked past its completion");
}

/// An epoch of `sizes` from one local ramdisk, read by one handle
/// in batches of 8 beside a `CheckpointWriter` appending 1 MiB records to
/// the same device, 200 µs apart, as `ckpt_mixed` does — after an epoch
/// alone if `warm`: the (late, parked, spin) ns the epoch beside the
/// stream added, the hash of the report of every epoch, and the instant
/// the run ended.
fn beside_a_checkpoint_stream(seed: u64, sizes: Vec<u64>, warm: bool) -> ([u64; 3], u64, u64) {
    let ramdisk = DeviceConfig::emulated_ramdisk(256 << 20, Dur::micros(10));
    let deployment = Deployment::local(1, &[NvmeDevice::new(ramdisk)]);
    let cfg = DlfsConfig {
        reactor_stats: true,
        ckpt_region_bytes: 128 << 20,
        ..DlfsConfig::default()
    };
    let ((counts, report), end) = Runtime::simulate(seed, |rt| {
        let source = SyntheticSource::new(seed, sizes);
        let fs = MountBuilder::new(cfg).deployment(deployment).persistent();
        let fs = fs.mount(rt, &source).unwrap();
        let mut io = fs.io(0);
        let mut report = String::new();
        if warm {
            io.sequence(rt, seed, 0);
            drain_copied_report(rt, &mut io, &source, 8, &mut report);
        }
        let counts = |io: &dlfs::DlfsIo| {
            let m = io.metrics();
            ["late_ns", "parked_ns", "spin_ns"].map(|c| m.counter(&format!("dlfs.reactor.{c}")))
        };
        let before = counts(&io);
        let mut writer = fs.checkpoint_writer(rt, 0, 0, None).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let stream = rt.spawn_with("ckpt-stream", {
            let stop = stop.clone();
            move |rt| {
                let record = vec![0xc4; 1 << 20];
                while !stop.load(Ordering::SeqCst) {
                    writer.append(rt, &record).unwrap();
                    rt.sleep(Dur::micros(200));
                }
            }
        });
        io.sequence(rt, seed, warm as u64);
        drain_copied_report(rt, &mut io, &source, 8, &mut report);
        stop.store(true, Ordering::SeqCst);
        stream.join();
        let after = counts(&io);
        let added = [0, 1, 2].map(|c| after[c] - before[c]);
        (added, fnv1a(report.as_bytes()))
    });
    (counts, report, end.nanos())
}

/// A queue beside a checkpoint stream: the handle never sees the
/// stream's writes, but the appender advances its device's position by
/// each, so the device's clock counts them among the bytes its device
/// moved and expects a head queued behind one after it. Timed by its own
/// reads alone, every pass timed, the epoch after one alone parked
/// 17.9 ms and spun 2.8; with the passes a write shared left out, 19 and
/// 1.5, and from a cold start 17.3 and 3.5. In device bytes it parks over
/// 19 and spins under 1.5 cold, over 20 and under 0.5 warm. No wait parks
/// past its completion, and parking moves no instant: each run delivers
/// the same batches at the same instants, and ends when, it did when
/// every pass was timed.
#[test]
fn a_queue_beside_a_checkpoint_stream_parks_on_time() {
    // (seed, [(report hash, end ns) cold, warm]) as with every pass timed,
    // at the base seed and at the CI sweep's second-seed offset.
    const TIMED: [(u64, [(u64, u64); 2]); 2] = [
        (
            55,
            [
                (0xcf0c_1071_8825_0b39, 47_492_782),
                (0xe7bb_59c8_e6ec_0df7, 70_393_096),
            ],
        ),
        (
            1055,
            [
                (0x84da_2897_729a_9153, 47_492_782),
                (0x44cc_87c7_d62e_d1f6, 70_393_096),
            ],
        ),
    ];
    // (parked floor, spin bound) in ns, cold and warm.
    const PARKS: [(u64, u64); 2] = [(19_000_000, 1_500_000), (20_000_000, 500_000)];
    let _copies = COPY_OPS_QUIET.read().unwrap();
    let seed = common::test_seed(55);
    for warm in [false, true] {
        let ([late, parked, spin], report, end) =
            beside_a_checkpoint_stream(seed, vec![64 << 10; 768], warm);
        let (floor, bound) = PARKS[warm as usize];
        assert_eq!(late, 0, "a wait parked past its completion");
        assert!(parked >= floor, "warm {warm}: waits parked {parked} ns");
        assert!(spin <= bound, "warm {warm}: waits spun {spin} ns");
        if let Some((_, timed)) = TIMED.iter().find(|s| s.0 == seed) {
            assert_eq!(
                (report, end),
                timed[warm as usize],
                "parking moved an instant"
            );
        }
    }
}

/// `count` sizes of `nominal` bytes ± 1/16, drawn from `seed`'s stream as
/// the benchmark's `ckpt_mixed` draws its samples.
fn near_fixed_sizes(seed: u64, count: usize, nominal: u64) -> Vec<u64> {
    let mut rng = simkit::rng::SplitMix64::derive(seed, 0x512e);
    let span = nominal / 8;
    (0..count)
        .map(|_| nominal - span / 2 + rng.below(span + 1))
        .collect()
}

/// A queue of mixed sizes beside a checkpoint stream, as `ckpt_mixed`
/// reads: samples of 64 KiB ± 1/16 are not chunk-aligned, so the queue
/// mixes chunk runs with the smaller reads at their edges. The device's
/// clock times each size class apart, so a chunk-run head is predicted
/// from chunk runs alone: timed at one mixed rate, a head over twice the
/// mean bytes sampled spun, and the cold run parked 1.67 ms and spun
/// 18.2, the warm one parked 16.03; by class, 4.71 and 15.0, and 16.43
/// and 2.04. Counting the stream's writes among the bytes its device
/// moved, it parks over 16.5 and spins under 2.0 cold, over 18.0 and
/// under 0.5 warm. No wait parks past its completion, and parking moves
/// no instant: each run delivers the same batches at the same instants,
/// and ends when, it did at one mixed rate.
#[test]
fn a_queue_of_mixed_sizes_beside_a_checkpoint_stream_parks_on_time() {
    // (seed, [(report hash, end ns) cold, warm]) as with a mixed rate, at
    // the base seed and at the CI sweep's second-seed offset.
    const MIXED: [(u64, [(u64, u64); 2]); 2] = [
        (
            55,
            [
                (0xb491_8d30_8766_b59c, 47_950_446),
                (0x55da_212f_e154_db54, 70_895_945),
            ],
        ),
        (
            1055,
            [
                (0x5867_4bf0_4119_a620, 47_985_132),
                (0x61ac_4ba2_c063_3303, 70_947_984),
            ],
        ),
    ];
    // (parked floor, spin bound) in ns, cold and warm.
    const PARKS: [(u64, u64); 2] = [(16_500_000, 2_000_000), (18_000_000, 500_000)];
    let _copies = COPY_OPS_QUIET.read().unwrap();
    let seed = common::test_seed(55);
    for warm in [false, true] {
        let sizes = near_fixed_sizes(seed, 768, 64 << 10);
        let ([late, parked, spin], report, end) = beside_a_checkpoint_stream(seed, sizes, warm);
        let (floor, bound) = PARKS[warm as usize];
        assert_eq!(late, 0, "a wait parked past its completion");
        assert!(parked >= floor, "warm {warm}: waits parked {parked} ns");
        assert!(spin <= bound, "warm {warm}: waits spun {spin} ns");
        if let Some((_, mixed)) = MIXED.iter().find(|s| s.0 == seed) {
            assert_eq!(
                (report, end),
                mixed[warm as usize],
                "parking moved an instant"
            );
        }
    }
}

/// What zero-copy epochs of `sizes` from reader 0 of `deployment`, mounted
/// with `cfg`, drained in batches of `batch`, did: (late ns, wake-ups,
/// landings, batches), each sample checked against its source, and the
/// instant the run ended.
fn zero_copy_epochs(
    seed: u64,
    sizes: Vec<u64>,
    deployment: Deployment,
    cfg: DlfsConfig,
    (epochs, batch): (u64, usize),
) -> ([u64; 4], u64) {
    let (counts, end) = Runtime::simulate(seed, |rt| {
        let source = SyntheticSource::new(seed, sizes);
        let cfg = DlfsConfig {
            reactor_stats: true,
            ..cfg
        };
        let fs = MountBuilder::new(cfg)
            .deployment(deployment)
            .mount(rt, &source)
            .unwrap();
        let mut io = fs.io(0);
        for epoch in 0..epochs {
            io.sequence(rt, seed, epoch);
            loop {
                match io.submit(rt, &ReadRequest::batch(batch).zero_copy()) {
                    Ok(got) => {
                        for s in got.into_zero_copy() {
                            assert_eq!(s.to_vec(), source.expected(s.id), "sample {}", s.id);
                        }
                    }
                    Err(DlfsError::EpochExhausted) => break,
                    Err(e) => panic!("epoch failed: {e}"),
                }
            }
        }
        let m = io.metrics();
        [
            "reactor.late_ns",
            "reactor.wakeups",
            "io.completions",
            "io.batches",
        ]
        .map(|c| m.counter(&format!("dlfs.{c}")))
    });
    (counts, end.nanos())
}

/// A zero-copy batch wakes for the read that completes it, in
/// `cache_reuse`'s shape: 16 KiB ± 1/16 samples in 64 KiB chunks from two
/// NVMe-oF ramdisks behind a 1 GB/s NIC, a cross-epoch cache two thirds of
/// the working set, two epochs drained zero-copy in batches of 16. Its
/// landings stage no copy-pool work, so a wait parks through the landings
/// its batch does not need, to the read after which the batch can be
/// filled or to the fourth in the order of their floors: at most one
/// wake-up per four landings plus one per batch: 386 for 1 294 landings
/// in 192 batches, where a wait for every landing woke 1 291 times for
/// 1 293. No wait ends past the landing that lets its batch be filled.
#[test]
fn a_zero_copy_batch_wakes_for_the_read_that_completes_it() {
    let seed = common::test_seed(58);
    let sizes = near_fixed_sizes(seed, 1536, 16 << 10);
    let ramdisk = DeviceConfig::emulated_ramdisk(64 << 20, Dur::micros(10));
    let cfg = DlfsConfig {
        cache_mode: CacheMode::CrossEpoch,
        prefetch_window: 8,
        chunk_size: 64 << 10,
        pool_chunks: 512,
        ..DlfsConfig::default()
    };
    let wire = one_wire(2, 1.0e9, ramdisk).unwrap();
    let ([late, wakeups, landings, batches], _) = zero_copy_epochs(seed, sizes, wire, cfg, (2, 16));
    assert_eq!(
        late, 0,
        "a wait ended past the landing that filled its batch"
    );
    assert!(landings > 0 && batches > 0);
    assert!(
        wakeups <= landings / 4 + batches,
        "{wakeups} wake-ups for {landings} landings in {batches} batches"
    );
}

/// A zero-copy epoch on a wire that overtakes: three NVMe-oF ramdisks
/// slower than the 1 GB/s NIC they share, one sample in three 64 KiB and
/// the rest 16 KiB, each read alone, so a later small read leaves its
/// device first and lands before an older large one. Such a wire floors
/// each read by its own bytes, which says nothing of the landings ahead of
/// a target, so its waits still wait for the next landing: none ends late,
/// and the epoch ends within 2 % of when it did before zero-copy waits
/// parked through landings.
#[test]
fn a_zero_copy_epoch_on_an_overtaking_wire_ends_on_time() {
    // (seed, end ns) with a wait for every landing, at the base seed and
    // at the CI sweep's offsets 1000 and 7.
    const PER_LANDING: [(u64, u64); 3] =
        [(59, 101_326_070), (1059, 101_260_582), (66, 101_211_846)];
    let seed = common::test_seed(59);
    let sizes = (0..1536).map(|i| if i % 3 == 0 { 64 << 10 } else { 16 << 10 });
    let ramdisk = DeviceConfig {
        bytes_per_sec: 0.5e9,
        ..DeviceConfig::emulated_ramdisk(64 << 20, Dur::micros(10))
    };
    let wire = one_wire(3, 1.0e9, ramdisk).unwrap();
    let ([late, ..], end) = zero_copy_epochs(seed, sizes.collect(), wire, sample_level(), (1, 32));
    assert_eq!(
        late, 0,
        "a wait ended past the landing that filled its batch"
    );
    if let Some(&(_, was)) = PER_LANDING.iter().find(|s| s.0 == seed) {
        assert!(
            end <= was + was / 50,
            "the epoch ended at {end} ns, {was} before"
        );
    }
}

/// `sequence()` over an epoch with reads in flight drains them through
/// poll passes like any other wait: every command posted is harvested by
/// a pass, paid for and counted. One batch of 8 from 2 KiB samples on an
/// Optane leaves the epoch's window on the device; a drain of its own
/// harvested 23 of its 24 commands uncounted.
#[test]
fn a_replaced_epoch_drains_through_poll_passes() {
    let _copies = COPY_OPS_QUIET.read().unwrap();
    let seed = common::test_seed(62);
    Runtime::simulate(seed, |rt| {
        let source = SyntheticSource::fixed(seed, 4000, 2048);
        let fs = MountBuilder::new(DlfsConfig::default())
            .local(local_device())
            .mount(rt, &source)
            .unwrap();
        let mut io = fs.io(0);
        io.sequence(rt, 13, 0);
        assert_eq!(
            io.submit(rt, &ReadRequest::batch(8)).map(|b| b.len()),
            Ok(8)
        );
        io.sequence(rt, 13, 1);
        let m = io.metrics();
        let posted = m.counter("dlfs.io.requests_posted");
        assert!(posted > 8, "the batch left no read in flight");
        let harvested = m.counter("dlfs.io.completions");
        assert_eq!(
            harvested, posted,
            "a command was harvested outside a poll pass"
        );
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
        let mut dead = dlfs::DlfsShared::clone(live);
        dead.copy = dlfs::copy::CopyPool::spawn(rt, "dead", 0, &cfg.costs);
        let mut io = dlfs::DlfsIo::new(Arc::new(dead));
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
