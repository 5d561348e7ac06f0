//! End-to-end integrity and self-healing tests: checksummed reads,
//! replica failover under permanent target death, read-repair of silent
//! bit flips, background scrubbing, and typed `Corrupt`
//! errors when no healthy copy exists. All deterministic: same-seed runs
//! are byte-identical, and the default configuration builds none of it.

mod common;

use std::sync::Arc;

use blocksim::{DeviceConfig, FaultInjector, NvmeDevice, NvmeTarget, BLOCK_SIZE};
use common::check_golden;
use dlfs::source::SampleSource;
use dlfs::{
    fsck_node, fsck_repair, CodecKind, Completions, Deployment, DlfsConfig, DlfsError,
    DlfsInstance, DlfsIo, ReadRequest, SyntheticSource,
};
use fabric::{Cluster, FabricConfig, FabricFaultInjector};
use simkit::prelude::*;
use simkit::rng::fnv1a;

/// Base seed plus the CI sweep offset (`DLFS_TEST_SEED_OFFSET`), so the
/// whole suite can re-run under a second seed without code changes.
fn test_seed(base: u64) -> u64 {
    base + std::env::var("DLFS_TEST_SEED_OFFSET")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0)
}
fn ramdisk(bytes: u64) -> Arc<NvmeDevice> {
    NvmeDevice::new(DeviceConfig::emulated_ramdisk(bytes, Dur::micros(10)))
}

/// Replicated + verified config over small chunks (many commands, many
/// verification points).
fn redundant_cfg(replicas: usize) -> DlfsConfig {
    DlfsConfig {
        chunk_size: 8 * 1024,
        replicas,
        verify_reads: true,
        ..DlfsConfig::default()
    }
}

/// Disaggregated full-mesh deployment (as in chaos.rs), returning the
/// cluster and raw devices so faults can be armed after the mount.
fn disaggregated(
    rt: &Runtime,
    n: usize,
    source: &SyntheticSource,
    cfg: DlfsConfig,
) -> (DlfsInstance, Arc<Cluster>, Vec<Arc<NvmeDevice>>) {
    let cluster = Arc::new(Cluster::new(n, FabricConfig::default()));
    let devices: Vec<Arc<NvmeDevice>> = (0..n).map(|_| ramdisk(128 << 20)).collect();
    let nodes: Vec<usize> = (0..n).collect();
    let deployment = Deployment::fabric(&cluster, &nodes, &nodes, &devices).unwrap();
    let fs = dlfs::MountBuilder::new(cfg)
        .deployment(deployment)
        .mount(rt, source)
        .unwrap();
    (fs, cluster, devices)
}

/// Drain reader 0's whole epoch, verifying every payload, and fold the
/// delivery into an order-insensitive checksum (failover shifts delivery
/// *order*; the delivered *bytes* must not move).
fn drain_epoch_verified(
    rt: &Runtime,
    io: &mut dlfs::DlfsIo,
    source: &SyntheticSource,
    total: usize,
) -> u64 {
    drain_epoch_with(rt, io, source, total, &ReadRequest::batch(32))
}

/// [`drain_epoch_verified`] over any source, batch by batch of `req`.
fn drain_epoch_with(
    rt: &Runtime,
    io: &mut dlfs::DlfsIo,
    source: &dyn SampleSource,
    total: usize,
    req: &ReadRequest,
) -> u64 {
    let mut seen = vec![false; source.count()];
    let mut delivered = 0usize;
    let mut checksum = 0u64;
    loop {
        match io.submit(rt, req).map(Completions::into_copied) {
            Ok(batch) => {
                for (id, data) in batch {
                    let mut want = vec![0u8; source.size(id) as usize];
                    source.fill(id, &mut want);
                    assert_eq!(data, want, "sample {id} corrupted");
                    assert!(!seen[id as usize], "sample {id} delivered twice");
                    seen[id as usize] = true;
                    delivered += 1;
                    checksum ^= fnv1a(&data).wrapping_mul(2 * id as u64 + 1);
                }
            }
            Err(DlfsError::EpochExhausted) => break,
            Err(e) => panic!("epoch failed: {e}"),
        }
    }
    assert_eq!(delivered, total, "epoch must complete");
    checksum
}

/// The zero-knob default builds no redundancy machinery at all and
/// registers no `dlfs.integrity.*` metrics; asking for verification (or
/// replicas) builds it.
#[test]
fn defaults_build_no_redundancy() {
    Runtime::simulate(test_seed(70), |rt| {
        let source = SyntheticSource::fixed(1, 300, 2048);
        let fs = dlfs::MountBuilder::new(DlfsConfig::default())
            .local(ramdisk(64 << 20))
            .mount(rt, &source)
            .unwrap();
        assert!(fs.redundancy().is_none());
        let mut io = fs.io(0);
        io.sequence(rt, 1, 0);
        io.submit(rt, &ReadRequest::batch(8)).unwrap();
        assert!(!io.metrics().render().contains("dlfs.integrity"));

        let cfg = DlfsConfig {
            verify_reads: true,
            ..DlfsConfig::default()
        };
        let fs = dlfs::MountBuilder::new(cfg)
            .local(ramdisk(64 << 20))
            .mount(rt, &source)
            .unwrap();
        let red = fs.redundancy().expect("verify_reads builds redundancy");
        assert!(red.verify());
        assert_eq!(red.replicas, 1);
        let mut io = fs.io(0);
        io.sequence(rt, 1, 0);
        io.submit(rt, &ReadRequest::batch(8)).unwrap();
        let m = io.metrics();
        assert!(m.counter("dlfs.integrity.verified") > 0);
        assert_eq!(m.counter("dlfs.integrity.mismatches"), 0);
    });
}

/// Asking for more replicas than storage nodes is a typed config error.
#[test]
fn too_many_replicas_is_typed() {
    Runtime::simulate(test_seed(71), |rt| {
        let source = SyntheticSource::fixed(2, 100, 2048);
        let err = dlfs::MountBuilder::new(redundant_cfg(3))
            .deployment(Deployment::local(
                1,
                &[ramdisk(64 << 20), ramdisk(64 << 20)],
            ))
            .mount(rt, &source)
            .unwrap_err();
        assert!(matches!(err, DlfsError::Config(_)), "got {err:?}");
    });
}

/// A target dies permanently mid-epoch: with `replicas = 2` every sample
/// still arrives byte-identical to a fault-free run, served from replica
/// copies, and the health circuit stops retries from burning budget.
#[test]
fn permanent_target_death_completes_epoch_from_replicas() {
    let run = |kill: bool| {
        Runtime::simulate(test_seed(72), |rt| {
            let source = SyntheticSource::fixed(3, 1500, 2048);
            let (fs, cluster, _devices) = disaggregated(rt, 3, &source, redundant_cfg(2));
            if kill {
                // Node 1 goes dark right after the import and never comes
                // back — far past any retry budget.
                let now = rt.now();
                cluster.set_faults(
                    FabricFaultInjector::new(31)
                        .with_io_timeout(Dur::micros(40))
                        .with_crash(1, now, now + Dur::millis(60_000)),
                );
            }
            let mut io = fs.io(0);
            let total = io.sequence(rt, 5, 0);
            let checksum = drain_epoch_verified(rt, &mut io, &source, total);
            (checksum, io.metrics())
        })
    };
    let ((clean, _), _) = run(false);
    let ((under_death, m), _) = run(true);
    assert_eq!(
        clean, under_death,
        "delivered bytes must not depend on the dead target"
    );
    assert!(m.counter("dlfs.integrity.failovers") > 0, "no failovers");
    assert!(m.counter("dlfs.io.timeouts") > 0, "death went unnoticed");
}

/// Silent bit flips on a home copy are caught by checksum verification,
/// served from the replica, and read-repaired in place: the second epoch
/// reads a healed device and verifies clean.
#[test]
fn bit_flips_are_detected_failed_over_and_read_repaired() {
    Runtime::simulate(test_seed(73), |rt| {
        let source = SyntheticSource::fixed(4, 800, 2048);
        let devices = vec![ramdisk(64 << 20), ramdisk(64 << 20)];
        let fs = dlfs::MountBuilder::new(redundant_cfg(2))
            .deployment(Deployment::local(1, &devices))
            .mount(rt, &source)
            .unwrap();
        // Flip bits across the front of node 0's data region (volatile
        // layout: slot 0 starts at block 0). Marks are sticky until a
        // rewrite heals them.
        devices[0].set_faults(FaultInjector::new(9).with_bit_flips(0, 64));
        let mut io = fs.io(0);
        let total = io.sequence(rt, 7, 0);
        drain_epoch_verified(rt, &mut io, &source, total);
        let m = io.metrics();
        assert!(m.counter("dlfs.integrity.mismatches") > 0, "flips unseen");
        assert!(m.counter("dlfs.integrity.repairs") > 0, "nothing repaired");
        let mismatches_after_heal = m.counter("dlfs.integrity.mismatches");
        // Read-repair rewrote the bad extents: a second epoch must verify
        // clean against the same device.
        let total = io.sequence(rt, 7, 1);
        drain_epoch_verified(rt, &mut io, &source, total);
        assert_eq!(
            io.metrics().counter("dlfs.integrity.mismatches"),
            mismatches_after_heal,
            "repaired extents mismatched again"
        );
        assert!(
            !devices[0].as_ref().probe_extent(0, 64),
            "marks not cleared"
        );
    });
}

/// Zero-copy delivery verifies too: corrupt bytes never reach a pinned
/// sample.
#[test]
fn zero_copy_reads_verify_and_repair() {
    Runtime::simulate(test_seed(74), |rt| {
        let source = SyntheticSource::fixed(5, 600, 2048);
        let devices = vec![ramdisk(64 << 20), ramdisk(64 << 20)];
        let fs = dlfs::MountBuilder::new(redundant_cfg(2))
            .deployment(Deployment::local(1, &devices))
            .mount(rt, &source)
            .unwrap();
        devices[0].set_faults(FaultInjector::new(11).with_bit_flips(0, 48));
        let mut io = fs.io(0);
        let total = io.sequence(rt, 9, 0);
        let mut delivered = 0usize;
        loop {
            match io.submit(rt, &ReadRequest::batch(32).zero_copy()) {
                Ok(batch) => {
                    for s in batch.into_zero_copy() {
                        assert_eq!(s.to_vec(), source.expected(s.id), "corrupt zero-copy bytes");
                        delivered += 1;
                    }
                }
                Err(DlfsError::EpochExhausted) => break,
                Err(e) => panic!("{e}"),
            }
        }
        assert_eq!(delivered, total);
        let m = io.metrics();
        assert!(m.counter("dlfs.integrity.mismatches") > 0);
        assert!(m.counter("dlfs.integrity.repairs") > 0);
        // The synchronous single read verifies as well.
        assert_eq!(io.read_by_id(rt, 0).unwrap(), source.expected(0));
    });
}

/// The background scrubber walks the integrity tables during idle reactor
/// gaps and heals latent corruption before demand reads ever see it; an
/// explicit full pass leaves a deep fsck clean.
#[test]
fn scrub_pass_heals_latent_corruption_to_fsck_clean() {
    Runtime::simulate(test_seed(75), |rt| {
        let source = SyntheticSource::fixed(6, 700, 2048);
        let devices = vec![ramdisk(64 << 20), ramdisk(64 << 20), ramdisk(64 << 20)];
        let cfg = DlfsConfig {
            scrub: true,
            ..redundant_cfg(2)
        };
        let fs = dlfs::MountBuilder::new(cfg)
            .deployment(Deployment::local(1, &devices))
            .persistent()
            .mount(rt, &source)
            .unwrap();
        let sb0 = fs.shared(0).layouts.as_ref().unwrap()[0].clone();
        // Latent damage on node 0's data region: silent flips plus a
        // sticky unreadable extent. Nothing has read it yet.
        let data_blk = sb0.data_base / BLOCK_SIZE;
        devices[0].set_faults(
            FaultInjector::new(13)
                .with_bit_flips(data_blk, 32)
                .with_bad_extent(data_blk + 100, 8),
        );
        let mut io = fs.io(0);
        let scrubbed = io.scrub_pass();
        assert!(scrubbed > 0, "scrubber walked nothing");
        let m = io.metrics();
        assert_eq!(m.counter("dlfs.integrity.scrubbed"), scrubbed);
        assert!(m.counter("dlfs.integrity.repairs") > 0, "nothing healed");
        // Deep offline verification agrees: every node clean, nothing left
        // to repair.
        let targets = &fs.shared(0).targets;
        for node in 0..devices.len() as u16 {
            let rep = fsck_repair(targets, node).unwrap();
            assert_eq!(
                (rep.detected, rep.repaired, rep.unrepairable),
                (0, 0, 0),
                "node {node} not clean after scrub"
            );
        }
        // And demand reads see a healed device: zero mismatches.
        let total = io.sequence(rt, 11, 0);
        drain_epoch_verified(rt, &mut io, &source, total);
        assert_eq!(io.metrics().counter("dlfs.integrity.mismatches"), 0);
    });
}

/// With no replica to heal from, persistent corruption exhausts the retry
/// budget and surfaces as a typed `Corrupt` error naming the chunk — not
/// a plain I/O error, and never silently delivered bytes.
#[test]
fn unrepairable_corruption_surfaces_typed_corrupt() {
    Runtime::simulate(test_seed(76), |rt| {
        let source = SyntheticSource::fixed(7, 300, 2048);
        let dev = ramdisk(64 << 20);
        let cfg = DlfsConfig {
            chunk_size: 8 * 1024,
            verify_reads: true,
            retry: RetryPolicy {
                max_attempts: 3,
                ..Default::default()
            },
            ..DlfsConfig::default()
        };
        let fs = dlfs::MountBuilder::new(cfg)
            .local(dev.clone())
            .mount(rt, &source)
            .unwrap();
        // Flip bits everywhere: single node, no replica, no healing.
        dev.set_faults(FaultInjector::new(15).with_bit_flips(0, (64 << 20) / BLOCK_SIZE));
        let mut io = fs.io(0);
        io.sequence(rt, 13, 0);
        match io.submit(rt, &ReadRequest::batch(8)).unwrap_err() {
            DlfsError::Corrupt { tried, .. } => assert_eq!(tried, 3),
            other => panic!("want Corrupt, got {other:?}"),
        }
        // The synchronous path types it the same way.
        assert!(matches!(
            io.read_by_id(rt, 0),
            Err(DlfsError::Corrupt { .. })
        ));
    });
}

/// The block checksums ride the copy pool. Flipped home blocks: every
/// completed request is checked by the pool (one `stage.check_ns` record
/// each) and paid for there — the other threads' busy time is the memcpys
/// plus 20 ns a verified block — and each part that fails its checksum
/// fails over to the replica and read-repairs the home extent. Every copy
/// flipped: the part runs out of copies and retries into `Corrupt`, with
/// the item's offset, the attempts made and the checksum as the cause.
#[test]
fn parts_checked_on_the_pool_fail_over_repair_and_type_corrupt() {
    let retry = RetryPolicy {
        max_attempts: 3,
        ..Default::default()
    };
    let cfg = DlfsConfig {
        retry,
        ..redundant_cfg(2)
    };
    Runtime::simulate(test_seed(79), |rt| {
        let source = SyntheticSource::fixed(4, 800, 2048);
        let devices = vec![ramdisk(64 << 20), ramdisk(64 << 20)];
        let fs = dlfs::MountBuilder::new(cfg.clone())
            .deployment(Deployment::local(1, &devices))
            .mount(rt, &source)
            .unwrap();
        devices[0].set_faults(FaultInjector::new(9).with_bit_flips(0, 64));
        let mut io = fs.io(0);
        let others_busy = |rt: &Runtime| rt.total_busy() - rt.my_busy();
        let before = others_busy(rt);
        let total = io.sequence(rt, 7, 0);
        drain_epoch_verified(rt, &mut io, &source, total);
        let m = io.metrics();
        let mismatches = m.counter("dlfs.integrity.mismatches");
        assert!(mismatches > 0, "flips unseen");
        assert_eq!(m.counter("dlfs.integrity.failovers"), mismatches);
        assert_eq!(m.counter("dlfs.integrity.repairs"), mismatches);
        assert!(
            !devices[0].as_ref().probe_extent(0, 64),
            "marks not cleared"
        );
        let checked = m.histogram("dlfs.io.stage.check_ns").count;
        assert_eq!(checked, m.counter("dlfs.io.requests_posted"));
        let costs = &cfg.costs;
        let verify = costs.verify_block * m.counter("dlfs.integrity.verified");
        let copies = costs.memcpy(2048) * total as u64;
        assert_eq!(others_busy(rt) - before, verify + copies);
    });
    // (Literal fields and counts: fixed seed.)
    Runtime::simulate(79, |rt| {
        let source = SyntheticSource::fixed(4, 64, 2048);
        let devices = vec![ramdisk(64 << 20), ramdisk(64 << 20)];
        let fs = dlfs::MountBuilder::new(cfg.clone())
            .deployment(Deployment::local(1, &devices))
            .mount(rt, &source)
            .unwrap();
        for (n, dev) in devices.iter().enumerate() {
            let all = (64 << 20) / BLOCK_SIZE;
            dev.set_faults(FaultInjector::new(15 + n as u64).with_bit_flips(0, all));
        }
        let mut io = fs.io(0);
        io.sequence(rt, 13, 0);
        let corrupt = DlfsError::Corrupt {
            chunk: 24576,
            tried: 3,
            cause: dlfs::CorruptCause::Checksum,
        };
        let mut batch = || io.submit(rt, &ReadRequest::batch(8)).map(|b| b.len());
        assert_eq!(batch(), Err(corrupt.clone()));
        assert_eq!(batch(), Err(corrupt), "sticky");
        let m = io.metrics();
        for (name, count) in [("mismatches", 33), ("failovers", 32), ("repairs", 0)] {
            assert_eq!(
                m.counter(&format!("dlfs.integrity.{name}")),
                count,
                "{name}"
            );
        }
    });
}

/// One corruption scenario end to end, twice, same seed: delivered bytes,
/// virtual end time and the full telemetry render (integrity counters
/// included) must be bit-identical.
fn corruption_run(seed: u64) -> (u64, u64, String) {
    let ((checksum, metrics), end) = Runtime::simulate(seed, |rt| {
        let source = SyntheticSource::fixed(9, 900, 2048);
        let cfg = DlfsConfig {
            scrub: true,
            ..redundant_cfg(2)
        };
        let (fs, cluster, devices) = disaggregated(rt, 3, &source, cfg);
        devices[0].set_faults(
            FaultInjector::new(seed ^ 0xB1)
                .with_bit_flips(0, 96)
                .with_read_failures(20_000),
        );
        cluster.set_faults(
            FabricFaultInjector::new(seed ^ 0xFA)
                .with_drops(10_000)
                .with_io_timeout(Dur::micros(40)),
        );
        let mut io = fs.io(0);
        let mut checksum = 0u64;
        for epoch in 0..2u64 {
            let total = io.sequence(rt, 19, epoch);
            checksum ^= drain_epoch_verified(rt, &mut io, &source, total).rotate_left(epoch as u32);
        }
        io.scrub_pass();
        (checksum, io.metrics().render())
    });
    (checksum, end.nanos(), metrics)
}

#[test]
fn same_seed_corruption_runs_are_byte_identical() {
    let a = corruption_run(test_seed(78));
    let b = corruption_run(test_seed(78));
    assert_eq!(a.0, b.0, "delivered bytes diverged");
    assert_eq!(a.1, b.1, "virtual end time diverged");
    assert_eq!(a.2, b.2, "telemetry snapshots diverged");
    assert!(a.2.contains("dlfs.integrity.verified"));
}

/// What a heal-grid cell damages: 64 silently flipped blocks at the head
/// of node 0's data, a sticky unreadable extent inside node 1's, or node 2
/// killed and replaced by a wiped device.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Damage {
    Flips,
    Sticky,
    Wiped,
}

/// Who heals it: a client-path epoch (failover + read-repair), an
/// offloaded epoch, a full scrub pass, a rebuild of the damaged node, or
/// the offline `fsck_repair` over every node.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Healer {
    Client,
    Offload,
    Scrub,
    Rebuild,
    Fsck,
}

const HEAL_DEV_BYTES: u64 = 1 << 20;

/// One epoch of `io`, every payload checked against `source`: the end
/// instant and an order-insensitive hash of what was delivered.
fn heal_epoch(
    rt: &Runtime,
    io: &mut DlfsIo,
    source: &SyntheticSource,
    epoch: u64,
    offload: bool,
) -> String {
    let total = io.sequence(rt, 23, epoch);
    let req = ReadRequest::batch(32);
    let req = if offload { req.offload() } else { req };
    let hash = drain_epoch_with(rt, io, source, total, &req);
    format!(
        "epoch {epoch} t={} delivered={hash:016x}\n",
        rt.now().nanos()
    )
}

/// The healing counters of `io` and the FNV-1a of every device image,
/// one line per scope.
fn heal_state(io: &DlfsIo, devices: &[Arc<NvmeDevice>]) -> String {
    let m = io.metrics();
    let mut out = String::new();
    for scope in ["dlfs.integrity.", "dlfs.rebuild."] {
        let counters = m
            .render_prefixed(scope)
            .replace(scope, "")
            .replace(' ', "=");
        let label = scope.trim_end_matches('.');
        let counters = counters.trim_end().replace('\n', " ");
        out.push_str(&format!("{label} {counters}\n"));
    }
    out.push_str("images");
    for d in devices {
        let mut image = vec![0u8; d.storage().capacity() as usize];
        d.storage().read_at(0, &mut image);
        out.push_str(&format!(" {:016x}", fnv1a(&image)));
    }
    out + "\n"
}

fn heal_cell(replicas: usize, codec: CodecKind, damage: Damage, healer: Healer) -> String {
    Runtime::simulate(8100, |rt| {
        let source = SyntheticSource::compressible(41, 240, 2000, 48);
        let devices: Vec<_> = (0..4).map(|_| ramdisk(HEAL_DEV_BYTES)).collect();
        let cfg = DlfsConfig {
            ckpt_region_bytes: 64 * 1024,
            codec,
            offload: true,
            fail_dead_after: Some(Dur::micros(300)),
            ..redundant_cfg(replicas)
        };
        let fs = dlfs::MountBuilder::new(cfg)
            .deployment(Deployment::local(1, &devices))
            .persistent()
            .mount(rt, &source)
            .unwrap();
        let data_blk = |n: u16| fs.layout(n).unwrap().data_base / BLOCK_SIZE;
        let victim: u16 = match damage {
            Damage::Flips => {
                devices[0].set_faults(FaultInjector::new(5).with_bit_flips(data_blk(0), 64));
                0
            }
            Damage::Sticky => {
                // 32 blocks into node 1's data, or half-way into its stored
                // run when that is shorter (a coded node's frames are
                // packed back to back): damage where a copy holds data.
                let run = fs.shared(0).redundancy.stored[1];
                let at = data_blk(1) + 32.min(run / 2);
                devices[1].set_faults(FaultInjector::new(6).with_bad_extent(at, 4));
                1
            }
            Damage::Wiped => {
                devices[2].kill();
                devices[2].revive();
                devices[2].dma_write(0, &vec![0u8; HEAL_DEV_BYTES as usize]);
                2
            }
        };
        let mut io = fs.io(0);
        let mut out = String::new();
        match healer {
            Healer::Client => out.push_str(&heal_epoch(rt, &mut io, &source, 0, false)),
            Healer::Offload => out.push_str(&heal_epoch(rt, &mut io, &source, 0, true)),
            Healer::Scrub => out.push_str(&format!("scrubbed={}\n", io.scrub_pass())),
            Healer::Rebuild => {
                let planned = io.begin_rebuild(victim).unwrap();
                let walked = io.drive_rebuild();
                out.push_str(&format!("planned={planned} walked={walked}\n"));
            }
            Healer::Fsck => {
                let targets = &fs.shared(0).targets;
                for n in 0..devices.len() as u16 {
                    match fsck_repair(targets, n) {
                        Ok(r) => out.push_str(&format!("fsck_repair node{n} {r:?}\n")),
                        Err(e) => out.push_str(&format!("fsck_repair node{n} error: {e}\n")),
                    }
                }
            }
        }
        out.push_str(&heal_state(&io, &devices));
        // Whatever the healer left behind, a client epoch still delivers
        // every byte (and read-repairs on its way).
        out.push_str(&heal_epoch(rt, &mut io, &source, 1, false));
        out.push_str(&heal_state(&io, &devices));
        out.push_str("fsck");
        for (n, t) in fs.shared(0).targets.iter().enumerate() {
            out.push_str(&format!(" | {:?}", fsck_node(t, n as u16, true).state));
        }
        out + "\n"
    })
    .0
}

/// Characterisation of every way a damaged copy gets healed, pinned
/// across refactors of the replica machinery: replicas {2, 3} x codec x
/// damage x healer on a persistent, verified mount over four local
/// devices. Offloaded epochs are pinned over bit flips only, and nothing
/// here runs without `verify_reads` (see the regression tests in
/// `offload_e2e.rs` and `membership.rs` for those).
#[test]
fn heal_grid_matches_golden() {
    use Damage::*;
    use Healer::*;
    let mut text = String::new();
    for replicas in [2usize, 3] {
        for codec in [CodecKind::Identity, CodecKind::Lz] {
            for damage in [Flips, Sticky, Wiped] {
                for healer in [Client, Offload, Scrub, Rebuild, Fsck] {
                    if healer == Offload && damage != Flips {
                        continue;
                    }
                    text.push_str(&format!(
                        "cell replicas={replicas} codec={codec} damage={damage:?} \
                         healer={healer:?}\n"
                    ));
                    text.push_str(&heal_cell(replicas, codec, damage, healer));
                }
            }
        }
    }
    check_golden("heal_grid.txt", &text);
}
