//! Persistence subsystem tests: format/import two-phase commit, warm
//! remount, checkpoint streams and dlfs_fsck — all typed-error, all
//! deterministic. The core roundtrip property: `import → remount` yields
//! a byte-identical `SampleDirectory` and byte-correct epoch reads for
//! arbitrary name/size distributions, with zero PFS traffic and zero
//! device writes on the warm path.

mod common;

use std::sync::Arc;

use blocksim::{DeviceConfig, FaultInjector, NvmeDevice, NvmeTarget};
use common::{check_golden, test_seed};
use dlfs::source::SampleSource;
use dlfs::{
    fsck_node, fsck_repair, CodecKind, Completions, Deployment, DlfsConfig, DlfsError,
    DlfsInstance, FsckState, LayoutError, MountBuilder, ReadRequest, SyntheticSource,
};
use fabric::{Cluster, FabricConfig, FabricFaultInjector};
use simkit::prelude::*;
use simkit::resource::Link;
use simkit::rng::{fnv1a, SplitMix64};
use simkit::telemetry::Registry;

fn ramdisk(bytes: u64) -> Arc<NvmeDevice> {
    NvmeDevice::new(DeviceConfig::emulated_ramdisk(bytes, Dur::micros(10)))
}

/// `readers` reader nodes (cluster nodes `0..readers`) in front of devices
/// exported as NVMe-oF targets on the cluster nodes that follow.
fn pool(
    readers: usize,
    devices: &[Arc<NvmeDevice>],
    fabric: FabricConfig,
) -> (Deployment, Arc<Cluster>) {
    let nodes = readers + devices.len();
    let cluster = Arc::new(Cluster::new(nodes, fabric));
    let reader_nodes: Vec<usize> = (0..readers).collect();
    let device_nodes: Vec<usize> = (readers..nodes).collect();
    let deployment = Deployment::fabric(&cluster, &reader_nodes, &device_nodes, devices).unwrap();
    (deployment, cluster)
}

/// FNV-1a of a device's whole image.
fn image_hash(d: &NvmeDevice) -> u64 {
    let mut image = vec![0u8; d.storage().capacity() as usize];
    d.storage().read_at(0, &mut image);
    fnv1a(&image)
}

/// Drain one full epoch across every reader, verifying each payload
/// byte-for-byte against the source and global exactly-once delivery.
/// Returns a hash of the delivery (ids and payloads, in order).
fn drain_all_readers(rt: &Runtime, fs: &DlfsInstance, source: &dyn SampleSource, seed: u64) -> u64 {
    let mut seen = vec![false; source.count()];
    let mut delivered = 0usize;
    let mut hash = 0u64;
    for r in 0..fs.readers() {
        let mut io = fs.io(r);
        io.sequence(rt, seed, 0);
        loop {
            match io
                .submit(rt, &ReadRequest::batch(32))
                .map(Completions::into_copied)
            {
                Ok(batch) => {
                    for (id, data) in batch {
                        let mut want = vec![0u8; source.size(id) as usize];
                        source.fill(id, &mut want);
                        assert_eq!(data, want, "sample {id} corrupted");
                        assert!(!seen[id as usize], "sample {id} delivered twice");
                        seen[id as usize] = true;
                        delivered += 1;
                        hash = hash
                            .wrapping_mul(0x100000001b3)
                            .wrapping_add(fnv1a(&data) ^ id as u64);
                    }
                }
                Err(DlfsError::EpochExhausted) => break,
                Err(e) => panic!("epoch failed: {e}"),
            }
        }
    }
    assert_eq!(delivered, source.count(), "epoch must cover the dataset");
    hash
}

/// Roundtrip property over randomized shapes: for arbitrary sample
/// counts, size distributions, name prefixes and node counts, a remount
/// rebuilds the exact directory the import produced (same 128-bit entry
/// words per id, same name lookups) without writing a single byte, and
/// epoch reads through the remounted instance are byte-correct.
#[test]
fn roundtrip_import_remount_arbitrary_distributions() {
    const CASES: u64 = 6;
    for case in 0..CASES {
        Runtime::simulate(test_seed(1000 + case), |rt| {
            let mut rng = SplitMix64::derive(0x9e22, test_seed(case));
            let nodes = 1 + rng.below(4) as usize;
            let count = 64 + rng.below(400) as usize;
            let sizes: Vec<u64> = (0..count).map(|_| 1 + rng.below(20_000)).collect();
            let source =
                SyntheticSource::new(40 + case, sizes).with_prefix(&format!("case{case}/shard"));
            let devices: Vec<Arc<NvmeDevice>> = (0..nodes).map(|_| ramdisk(64 << 20)).collect();

            let fs = dlfs::MountBuilder::new(DlfsConfig::default())
                .deployment(Deployment::local(1, &devices))
                .persistent()
                .mount(rt, &source)
                .unwrap();
            assert!(fs.is_persistent());
            let imported: Vec<(u64, u64)> =
                (0..count as u32).map(|id| fs.dir.entry(id).raw()).collect();
            drop(fs);

            let before: Vec<_> = devices.iter().map(|d| d.stats()).collect();
            let warm = dlfs::MountBuilder::new(DlfsConfig::default())
                .deployment(Deployment::local(1, &devices))
                .warm()
                .remount(rt)
                .unwrap();
            // Warm path is read-only: zero writes, zero bytes written.
            for (d, b) in devices.iter().zip(&before) {
                let after = d.stats();
                assert_eq!(after.1, b.1, "remount wrote commands to a device");
                assert_eq!(after.3, b.3, "remount wrote bytes to a device");
            }
            // The rebuilt directory is byte-identical entry-for-entry…
            assert_eq!(warm.dir.len(), count);
            for id in 0..count as u32 {
                assert_eq!(
                    warm.dir.entry(id).raw(),
                    imported[id as usize],
                    "case {case}: entry {id} differs after remount"
                );
            }
            // …and name lookups still resolve.
            let probe = rng.below(count as u64) as u32;
            let (found, _) = warm.dir.find(&source.name(probe)).unwrap();
            assert_eq!(found, probe);
            drain_all_readers(rt, &warm, &source, 100 + case);
        });
    }
}

/// An import onto a deployment with a dead device must fail with the
/// worker's typed I/O error, not panic. The upload worker dies in its
/// Phase A superblock read; the producer used to trip
/// `expect("upload tasks alive")` on the closed credit channel.
#[test]
fn import_onto_dead_device_fails_typed_not_panicking() {
    Runtime::simulate(1101, |rt| {
        let source = SyntheticSource::fixed(44, 200, 2048);
        let devices = vec![ramdisk(64 << 20), ramdisk(64 << 20)];
        devices[1].kill();
        let err = dlfs::MountBuilder::new(DlfsConfig::default())
            .deployment(Deployment::local(1, &devices))
            .persistent()
            .mount(rt, &source)
            .unwrap_err();
        assert!(
            matches!(err, DlfsError::Io { .. } | DlfsError::Deployment(_)),
            "want the worker's typed error, got {err:?}"
        );
    });
}

/// The paper's warm-start claim (ext_mount_time): a remount does no PFS
/// staging and no data writes, so it is far cheaper than the cold
/// import, even with the PFS link configured. Also checks the
/// `dlfs.remount.*` counters.
#[test]
fn warm_remount_skips_pfs_and_beats_cold_import() {
    Runtime::simulate(77, |rt| {
        let nodes = 4;
        let devices: Vec<Arc<NvmeDevice>> = (0..nodes).map(|_| ramdisk(64 << 20)).collect();
        let source = SyntheticSource::fixed(5, 3000, 4096);
        let pfs = || Link::new(1.0e9, Dur::micros(40));

        let t0 = rt.now();
        let fs = dlfs::MountBuilder::new(DlfsConfig::default())
            .deployment(Deployment::local(1, &devices))
            .pfs(pfs())
            .persistent()
            .mount(rt, &source)
            .unwrap();
        let cold = (rt.now() - t0).as_nanos();
        drop(fs);

        let reg = Registry::new();
        let before: Vec<_> = devices.iter().map(|d| d.stats()).collect();
        let t1 = rt.now();
        let warm_fs = dlfs::MountBuilder::new(DlfsConfig::default())
            .deployment(Deployment::local(1, &devices))
            .pfs(pfs()) // configured but must go unused
            .with_registry(reg.clone())
            .warm()
            .remount(rt)
            .unwrap();
        let warm = (rt.now() - t1).as_nanos();

        for (d, b) in devices.iter().zip(&before) {
            assert_eq!(d.stats().1, b.1, "warm remount issued device writes");
        }
        assert!(
            warm * 10 < cold,
            "warm remount {warm}ns not ≪ cold import {cold}ns"
        );
        assert_eq!(reg.counter("dlfs.remount.superblocks").get(), nodes as u64);
        assert_eq!(reg.counter("dlfs.remount.entries").get(), 3000);
        drain_all_readers(rt, &warm_fs, &source, 9);
    });
}

/// Chaos: a device that starts failing writes mid-import leaves a torn
/// (uncommitted) superblock. `remount` must reject it with a typed
/// `TornImport` — never silently serve partial data — and a fresh
/// `import` on the healed device repairs it.
#[test]
fn torn_import_rejected_typed_and_repaired_by_reimport() {
    Runtime::simulate(31, |rt| {
        let dev = ramdisk(64 << 20);
        let source = SyntheticSource::fixed(3, 2000, 2048);

        let importer = {
            let dev = dev.clone();
            let source = source.clone();
            rt.spawn_with("crashing-import", move |rt| {
                dlfs::MountBuilder::new(DlfsConfig::default())
                    .local(dev)
                    .persistent()
                    .mount(rt, &source)
            })
        };
        // Let phase A (uncommitted superblock) land, then fail every
        // write: the data upload dies mid-flight, before the commit.
        rt.sleep(Dur::micros(300));
        dev.set_faults(FaultInjector::new(7).with_write_failures(1_000_000));
        match importer.join() {
            Err(DlfsError::Io { .. }) => {}
            other => panic!("import under write faults must fail with Io, got {other:?}"),
        }

        // The torn state is visible to fsck and typed on remount.
        let target: Arc<dyn NvmeTarget> = dev.clone();
        let report = fsck_node(&target, 0, false);
        assert!(
            matches!(report.state, FsckState::Torn { generation: 1 }),
            "fsck saw {:?}",
            report.state
        );
        match dlfs::MountBuilder::new(DlfsConfig::default())
            .local(dev.clone())
            .warm()
            .remount(rt)
        {
            Err(DlfsError::Layout(LayoutError::TornImport {
                node: 0,
                generation: 1,
            })) => {}
            other => panic!("remount of torn device must fail typed, got {other:?}"),
        }

        // Heal the device and re-import: generation advances and the
        // dataset is fully served again.
        dev.set_faults(FaultInjector::new(7));
        let fs = dlfs::MountBuilder::new(DlfsConfig::default())
            .local(dev.clone())
            .persistent()
            .mount(rt, &source)
            .unwrap();
        assert_eq!(fs.layout(0).unwrap().generation, 2);
        drop(fs);
        let report = fsck_node(&target, 0, true);
        assert!(matches!(report.state, FsckState::Clean { generation: 2 }));
        assert_eq!(report.data_checksum_ok, Some(true));
        let warm = dlfs::MountBuilder::new(DlfsConfig::default())
            .local(dev)
            .warm()
            .remount(rt)
            .unwrap();
        drain_all_readers(rt, &warm, &source, 13);
    });
}

/// Checkpoint streams: append/replay roundtrip, persistence across
/// remount, torn-tail detection (a corrupted record header truncates the
/// stream instead of serving garbage) and overwrite of the torn tail.
#[test]
fn checkpoint_stream_roundtrip_and_torn_tail() {
    Runtime::simulate(55, |rt| {
        let dev = ramdisk(64 << 20);
        let source = SyntheticSource::fixed(11, 200, 1024);
        let fs = dlfs::MountBuilder::new(DlfsConfig::default())
            .local(dev.clone())
            .persistent()
            .mount(rt, &source)
            .unwrap();

        let payloads: Vec<Vec<u8>> = vec![vec![0xa1; 1024], vec![0xb2; 3000], vec![0xc3; 512]];
        let mut w = fs.checkpoint_writer(rt, 0, 0, None).unwrap();
        assert_eq!(w.records(), 0);
        for (i, p) in payloads.iter().enumerate() {
            assert_eq!(w.append(rt, p).unwrap(), i as u64 + 1);
        }
        let mut r = w.reader(None);
        for p in &payloads {
            assert_eq!(r.next(rt).unwrap().as_ref(), Some(p));
        }
        assert!(r.next(rt).unwrap().is_none());

        // The stream survives a remount: a fresh writer resumes at the
        // tail, the reader replays everything including the new record.
        drop(fs);
        let fs = dlfs::MountBuilder::new(DlfsConfig::default())
            .local(dev.clone())
            .warm()
            .remount(rt)
            .unwrap();
        let mut w = fs.checkpoint_writer(rt, 0, 0, None).unwrap();
        assert_eq!(w.records(), 3);
        w.append(rt, &[0xd4; 2048]).unwrap();
        let mut r = fs.checkpoint_reader(0, 0, None).unwrap();
        assert_eq!(r.last(rt).unwrap(), Some(vec![0xd4; 2048]));

        // Tear the 4th record's header (crash mid-checkpoint): the
        // stream truncates to the last intact record.
        let ckpt_base = fs.layout(0).unwrap().ckpt_base;
        // record_bytes = 512 header + payload rounded up to blocks:
        // 1536 + 3584 + 1024 = 6144 bytes into the region.
        let tear_at = ckpt_base + 6144;
        let mut b = [0u8; 1];
        dev.storage().read_at(tear_at, &mut b);
        dev.storage().write_at(tear_at, &[b[0] ^ 0xff]);
        let mut r = fs.checkpoint_reader(0, 0, None).unwrap();
        let mut survived = 0;
        while r.next(rt).unwrap().is_some() {
            survived += 1;
        }
        assert_eq!(survived, 3, "torn tail must truncate, not corrupt");
        // A writer opened on the torn stream overwrites the tail.
        let mut w = fs.checkpoint_writer(rt, 0, 0, None).unwrap();
        assert_eq!(w.records(), 3);
        w.append(rt, &[0xe5; 100]).unwrap();
        let mut r = fs.checkpoint_reader(0, 0, None).unwrap();
        assert_eq!(r.last(rt).unwrap(), Some(vec![0xe5; 100]));

        // Tear that record's payload under its intact header: the payload
        // checksum truncates the stream just the same.
        dev.storage().write_at(tear_at + 512, &[!0xe5]);
        let mut r = fs.checkpoint_reader(0, 0, None).unwrap();
        assert_eq!(r.last(rt).unwrap(), Some(vec![0xc3; 512]));
        assert_eq!(fs.checkpoint_writer(rt, 0, 0, None).unwrap().records(), 3);
    });
}

/// A reader or a storage node that does not exist is a typed `Config`
/// error naming the index and the count, before any I/O — not an index
/// panic, and not the ephemeral-instance error.
#[test]
fn checkpoint_streams_refuse_a_reader_or_node_that_does_not_exist() {
    Runtime::simulate(58, |rt| {
        let devices = [ramdisk(16 << 20), ramdisk(16 << 20)];
        let fs = MountBuilder::new(DlfsConfig::default())
            .deployment(Deployment::local(2, &devices))
            .persistent()
            .mount(rt, &SyntheticSource::fixed(15, 100, 1024))
            .unwrap();
        let (t0, stats) = (rt.now(), devices.each_ref().map(|d| d.stats()));
        for (r, nid, want) in [
            (2, 0, "reader 2, but the instance has 2 readers"),
            (7, 1, "reader 7, but the instance has 2 readers"),
            (0, 2, "storage node 2, but the instance has 2 storage nodes"),
        ] {
            let refused = |got: Result<(), DlfsError>| match got {
                Err(DlfsError::Config(msg)) => assert!(msg.contains(want), "{msg}"),
                other => panic!("reader {r} node {nid}: want Config, got {other:?}"),
            };
            refused(fs.checkpoint_writer(rt, r, nid, None).map(drop));
            refused(fs.checkpoint_reader(r, nid, None).map(drop));
        }
        assert_eq!(
            (rt.now(), devices.each_ref().map(|d| d.stats())),
            (t0, stats)
        );
    });
}

/// A checkpoint region sized at import is a hard budget: appends beyond
/// it fail typed with `CheckpointFull`, and the error reports both the
/// need and the capacity.
#[test]
fn checkpoint_region_exhaustion_is_typed() {
    Runtime::simulate(56, |rt| {
        let dev = ramdisk(64 << 20);
        let source = SyntheticSource::fixed(12, 50, 1024);
        let cfg = DlfsConfig {
            ckpt_region_bytes: 4096,
            ..DlfsConfig::default()
        };
        let fs = dlfs::MountBuilder::new(cfg)
            .local(dev)
            .persistent()
            .mount(rt, &source)
            .unwrap();
        let mut w = fs.checkpoint_writer(rt, 0, 0, None).unwrap();
        // 512B header + 2048B payload = 2560 of 4096; a second append
        // needs another 2560 with only 1536 left.
        w.append(rt, &[1u8; 2048]).unwrap();
        match w.append(rt, &[2u8; 2048]) {
            Err(DlfsError::Layout(LayoutError::CheckpointFull { need, capacity })) => {
                assert_eq!(need, 2560);
                assert_eq!(capacity, 1536);
            }
            other => panic!("overflow must be CheckpointFull, got {other:?}"),
        }
    });
}

/// fsck counts N checkpoint records ⇔ a replay yields N records: both walk
/// the stream through the one stepping function, over a full region, a
/// torn tail and a record left behind by an earlier generation.
#[test]
fn fsck_counts_the_records_a_replay_yields() {
    Runtime::simulate(57, |rt| {
        let dev = ramdisk(8 << 20);
        let source = SyntheticSource::fixed(13, 50, 1024);
        let cfg = DlfsConfig {
            ckpt_region_bytes: 4096,
            ..DlfsConfig::default()
        };
        let import = || {
            dlfs::MountBuilder::new(cfg.clone())
                .local(dev.clone())
                .persistent()
                .mount(rt, &source)
                .unwrap()
        };
        let agree = |fs: &DlfsInstance, want: u64, what: &str| {
            let (mut records, mut bytes) = (0u64, 0u64);
            let mut replay = fs.checkpoint_reader(0, 0, None).unwrap();
            while let Some(p) = replay.next(rt).unwrap() {
                records += 1;
                bytes += p.len() as u64;
            }
            let rep = fsck_node(&fs.shared(0).targets[0], 0, false);
            assert_eq!(
                (rep.checkpoints, rep.checkpoint_bytes),
                (records, bytes),
                "{what}"
            );
            assert_eq!(records, want, "{what}");
        };
        // Full: 4096 B hold exactly four records of one header block and
        // one payload block.
        let fs = import();
        let mut w = fs.checkpoint_writer(rt, 0, 0, None).unwrap();
        for i in 0..4u8 {
            w.append(rt, &[i; 512]).unwrap();
        }
        assert_eq!(w.remaining(), 0);
        agree(&fs, 4, "full region");
        // Torn: the last record's payload no longer matches its header.
        let last_payload = fs.layout(0).unwrap().ckpt_base + 3 * 1024 + 512;
        dev.storage().write_at(last_payload, &[0xff]);
        agree(&fs, 3, "torn tail");
        // Stale: a re-import invalidates the head of the old stream only,
        // so behind the new generation's first record sits the previous
        // generation's second, intact.
        drop((w, fs));
        let fs = import();
        agree(&fs, 0, "fresh generation");
        let mut w = fs.checkpoint_writer(rt, 0, 0, None).unwrap();
        w.append(rt, &[7; 512]).unwrap();
        agree(&fs, 1, "stale-generation record behind the new head");
    });
}

/// Every bad shape surfaces as a typed error: undersized devices,
/// malformed deployments, unformatted or mismatched devices, and
/// checkpoint access on ephemeral mounts.
#[test]
fn typed_errors_for_bad_shapes() {
    Runtime::simulate(91, |rt| {
        let tiny = ramdisk(1 << 20);
        let source = SyntheticSource::fixed(9, 2048, 2048); // 4 MiB > 1 MiB
        match dlfs::MountBuilder::new(DlfsConfig::default())
            .local(tiny.clone())
            .persistent()
            .mount(rt, &source)
        {
            Err(DlfsError::Capacity {
                node: 0,
                need,
                have,
            }) => {
                assert!(need > have);
            }
            other => panic!("undersized import must be Capacity, got {other:?}"),
        }
        match dlfs::MountBuilder::new(DlfsConfig::default())
            .local(tiny)
            .mount(rt, &source)
        {
            Err(DlfsError::Capacity { .. }) => {}
            other => panic!("undersized mount must be Capacity, got {other:?}"),
        }
        // A tight peer: node 1's slot holds its own 200 samples but not
        // node 0's copy of 201, which would run into its checkpoint region.
        let two = DlfsConfig {
            replicas: 2,
            chunk_size: 4096,
            ckpt_region_bytes: 16 << 10,
            ..DlfsConfig::default()
        };
        let shares = SyntheticSource::fixed(41, 401, 4096);
        // data_base 8 KiB + two 800 KiB slots + the checkpoint region.
        let tight = vec![
            ramdisk(4 << 20),
            ramdisk((8 << 10) + 2 * 819_200 + (16 << 10)),
        ];
        match MountBuilder::new(two)
            .deployment(Deployment::local(1, &tight))
            .persistent()
            .mount(rt, &shares)
        {
            Err(DlfsError::Capacity {
                node: 1,
                need: 823_296,
                have: 819_200,
            }) => {}
            other => panic!("a copy past its host's slot must be Capacity, got {other:?}"),
        }
        // No checkpoint region: the import commits, remounts and is deep
        // fsck clean, and only a checkpoint stream is refused, typed.
        let no_ckpt = || DlfsConfig {
            ckpt_region_bytes: 0,
            ..DlfsConfig::default()
        };
        let dev = ramdisk(16 << 20);
        MountBuilder::new(no_ckpt())
            .local(dev.clone())
            .persistent()
            .mount(rt, &shares)
            .unwrap();
        let warm = MountBuilder::new(no_ckpt())
            .local(dev.clone())
            .warm()
            .remount(rt)
            .unwrap();
        let target: Arc<dyn NvmeTarget> = dev;
        let fsck = fsck_node(&target, 0, true);
        assert!(matches!(fsck.state, FsckState::Clean { .. }), "{fsck:?}");
        assert!(matches!(
            warm.checkpoint_writer(rt, 0, 0, None),
            Err(DlfsError::Config(_))
        ));

        let empty = Deployment {
            targets: vec![],
            cluster: None,
        };
        assert!(matches!(
            dlfs::MountBuilder::new(DlfsConfig::default())
                .deployment(empty)
                .warm()
                .remount(rt),
            Err(DlfsError::Deployment(_))
        ));
        let ragged = Deployment {
            targets: vec![
                vec![ramdisk(8 << 20) as Arc<dyn NvmeTarget>],
                vec![
                    ramdisk(8 << 20) as Arc<dyn NvmeTarget>,
                    ramdisk(8 << 20) as Arc<dyn NvmeTarget>,
                ],
            ],
            cluster: None,
        };
        assert!(matches!(
            dlfs::MountBuilder::new(DlfsConfig::default())
                .deployment(ragged)
                .warm()
                .remount(rt),
            Err(DlfsError::Deployment(_))
        ));
        // A reader or a device placed outside the cluster, or a node list
        // that does not match the devices, is typed before any mount.
        let cluster = Arc::new(Cluster::new(2, FabricConfig::default()));
        let one = [ramdisk(8 << 20)];
        let placements: [(&[usize], &[usize]); 3] = [(&[2], &[1]), (&[0], &[2]), (&[0], &[1, 0])];
        for (readers, device_nodes) in placements {
            assert!(
                matches!(
                    Deployment::fabric(&cluster, readers, device_nodes, &one),
                    Err(DlfsError::Deployment(_))
                ),
                "readers on {readers:?}, devices on {device_nodes:?}"
            );
        }

        // Unformatted device: remount rejects, fsck reports Unformatted.
        let blank = ramdisk(8 << 20);
        assert!(matches!(
            dlfs::MountBuilder::new(DlfsConfig::default())
                .local(blank.clone())
                .warm()
                .remount(rt),
            Err(DlfsError::Layout(LayoutError::BadMagic { node: 0 }))
        ));
        let blank_t: Arc<dyn NvmeTarget> = blank;
        assert!(matches!(
            fsck_node(&blank_t, 0, false).state,
            FsckState::Unformatted(_)
        ));

        // A device imported as part of a 2-node set cannot be remounted
        // alone as a 1-node deployment.
        let pair: Vec<Arc<NvmeDevice>> = (0..2).map(|_| ramdisk(16 << 20)).collect();
        let small = SyntheticSource::fixed(14, 100, 512);
        dlfs::MountBuilder::new(DlfsConfig::default())
            .deployment(Deployment::local(1, &pair))
            .persistent()
            .mount(rt, &small)
            .unwrap();
        assert!(matches!(
            dlfs::MountBuilder::new(DlfsConfig::default())
                .local(pair[0].clone())
                .warm()
                .remount(rt),
            Err(DlfsError::Layout(_))
        ));

        // Checkpoint streams need a persistent instance.
        let dev = ramdisk(16 << 20);
        let eph = dlfs::MountBuilder::new(DlfsConfig::default())
            .local(dev)
            .mount(rt, &small)
            .unwrap();
        assert!(!eph.is_persistent());
        assert!(matches!(
            eph.checkpoint_writer(rt, 0, 0, None),
            Err(DlfsError::Deployment(_))
        ));

        // fsck and remount verify a device through the same loader, so
        // they agree on every metadata region: one flipped byte in any of
        // them makes fsck report non-Clean iff remount fails with a typed
        // LayoutError, and both accept the untouched device.
        let dev = ramdisk(16 << 20);
        let lz = || DlfsConfig {
            codec: CodecKind::Lz,
            ..DlfsConfig::default()
        };
        let fs = MountBuilder::new(lz())
            .local(dev.clone())
            .persistent()
            .mount(rt, &small)
            .unwrap();
        let sb = fs.layout(0).unwrap().clone();
        drop(fs);
        let target: Arc<dyn NvmeTarget> = dev.clone();
        let both_accept = |what: &str| {
            let fsck = fsck_node(&target, 0, true);
            let clean = matches!(fsck.state, FsckState::Clean { .. });
            match MountBuilder::new(lz())
                .local(dev.clone())
                .warm()
                .remount(rt)
            {
                Ok(_) => assert!(clean, "{what}: remount succeeds, fsck is not Clean"),
                Err(DlfsError::Layout(e)) => assert!(!clean, "{what}: fsck Clean, remount: {e}"),
                Err(e) => panic!("{what}: remount failed untyped: {e}"),
            }
            clean
        };
        assert!(both_accept("untouched device"));
        for (region, at) in [
            ("superblock", 40),
            ("sample metadata", sb.meta_base + 5),
            ("codec table", sb.codec_base() + 1),
        ] {
            let mut b = [0u8; 1];
            dev.storage().read_at(at, &mut b);
            dev.storage().write_at(at, &[b[0] ^ 0x5a]);
            assert!(!both_accept(region), "{region} corruption went unnoticed");
            dev.storage().write_at(at, &b);
        }
        assert!(both_accept("restored device"));
    });
}

/// A superblock whose per-node fields contradict each other under a valid
/// checksum — every superblock of a two-node `replicas: 2` import claiming
/// three copies, or node 0 claiming one sample more than its metadata
/// holds — is the same typed `Inconsistent` for shallow and deep
/// `fsck_node`, `remount` and `fsck_repair`: the one loader judges it.
#[test]
fn forged_superblocks_are_inconsistent_to_every_loader() {
    Runtime::simulate(92, |rt| {
        let cfg = DlfsConfig {
            replicas: 2,
            ..DlfsConfig::default()
        };
        let source = SyntheticSource::fixed(43, 64, 2048);
        type Forge = fn(&mut dlfs::Superblock);
        let forged: [(&str, Forge); 2] = [
            (
                "3 copies of every sample cannot sit on 2 storage nodes",
                |sb| sb.replicas = 3,
            ),
            ("superblock claims", |sb| {
                sb.node_samples += (sb.node_id == 0) as u64
            }),
        ];
        for (what, forge) in forged {
            let devices = vec![ramdisk(16 << 20), ramdisk(16 << 20)];
            let fs = MountBuilder::new(cfg.clone())
                .deployment(Deployment::local(1, &devices))
                .persistent()
                .mount(rt, &source)
                .unwrap();
            for (n, d) in devices.iter().enumerate() {
                let mut sb = fs.layout(n as u16).unwrap().clone();
                forge(&mut sb);
                d.dma_write(0, &sb.encode());
            }
            let targets = fs.shared(0).targets.clone();
            drop(fs);
            let typed = |e: &DlfsError| matches!(e, DlfsError::Layout(LayoutError::Inconsistent(m)) if m.contains(what));
            // A remount that takes the copy count from the devices.
            let remounted = MountBuilder::new(DlfsConfig::default())
                .deployment(Deployment::local(1, &devices))
                .warm()
                .remount(rt);
            assert!(
                remounted.as_ref().is_err_and(typed),
                "{what}: {:?}",
                remounted.err()
            );
            let repaired = fsck_repair(&targets, 0);
            assert!(repaired.as_ref().is_err_and(typed), "{what}: {repaired:?}");
            for deep in [false, true] {
                let state = fsck_node(&targets[0], 0, deep).state;
                let corrupt =
                    matches!(&state, FsckState::Corrupt { what: m, .. } if m.contains(what));
                assert!(corrupt, "{what}, deep={deep}: {state:?}");
            }
        }
    });
}

/// Devices with different histories hold one import at different
/// generations: a one-node import onto device 0, then a two-node replicated,
/// verified import onto devices 0 and 1, leaves generations 2 and 1. The
/// set is one import to `remount` and to `fsck_repair` alike, so a bit
/// flip on node 0 is healed from node 1's copy.
#[test]
fn one_import_at_two_generations_remounts_and_repairs() {
    Runtime::simulate(93, |rt| {
        let devices = vec![ramdisk(16 << 20), ramdisk(16 << 20)];
        MountBuilder::new(DlfsConfig::default())
            .local(devices[0].clone())
            .persistent()
            .mount(rt, &SyntheticSource::fixed(44, 32, 2048))
            .unwrap();
        let cfg = || DlfsConfig {
            replicas: 2,
            verify_reads: true,
            ..DlfsConfig::default()
        };
        let source = SyntheticSource::fixed(45, 64, 2048);
        let fs = MountBuilder::new(cfg())
            .deployment(Deployment::local(1, &devices))
            .persistent()
            .mount(rt, &source)
            .unwrap();
        let generations = [0, 1].map(|n| fs.layout(n).unwrap().generation);
        assert_eq!(generations, [2, 1]);
        let sb0 = fs.layout(0).unwrap().clone();
        drop(fs);
        let warm = MountBuilder::new(cfg())
            .deployment(Deployment::local(1, &devices))
            .warm()
            .remount(rt)
            .unwrap();
        drain_all_readers(rt, &warm, &source, 6);
        let targets = warm.shared(0).targets.clone();
        drop(warm);
        let base = sb0.data_base / blocksim::BLOCK_SIZE;
        devices[0].set_faults(FaultInjector::new(19).with_bit_flips(base, 1));
        let rep = fsck_repair(&targets, 0).unwrap();
        assert_eq!((rep.detected, rep.repaired, rep.unrepairable), (1, 1, 0));
        let fsck = fsck_node(&targets[0], 0, true);
        assert!(matches!(fsck.state, FsckState::Clean { .. }), "{fsck:?}");
    });
}

/// A replica slot forged below the copy it hosts, under a valid checksum,
/// is the planner's `Capacity` refusal on remount: node 0's slot 1 holds
/// node 1's copy, and the fit rule that sized the slots at import judges
/// them again. Node 0 alone is consistent, so its fsck stays clean.
#[test]
fn a_slot_forged_below_its_hosted_copy_is_a_capacity_error() {
    Runtime::simulate(94, |rt| {
        let devices = vec![ramdisk(16 << 20), ramdisk(16 << 20)];
        let cfg = || DlfsConfig {
            replicas: 2,
            ..DlfsConfig::default()
        };
        let fs = MountBuilder::new(cfg())
            .deployment(Deployment::local(1, &devices))
            .persistent()
            .mount(rt, &SyntheticSource::new(46, vec![1000, 3000, 5000, 7000]))
            .unwrap();
        let (mut sb0, sb1) = (fs.layout(0).unwrap().clone(), fs.layout(1).unwrap().clone());
        drop(fs);
        assert!(sb0.data_bytes < sb1.data_bytes, "{sb0:?} {sb1:?}");
        sb0.replica_slot_bytes = sb0.data_bytes;
        devices[0].dma_write(0, &sb0.encode());
        let remounted = MountBuilder::new(cfg())
            .deployment(Deployment::local(1, &devices))
            .warm()
            .remount(rt);
        match remounted {
            Err(DlfsError::Capacity {
                node: 0,
                need,
                have,
            }) => {
                assert_eq!((need, have), (sb1.data_bytes, sb0.data_bytes));
            }
            other => panic!(
                "want the fit rule's Capacity refusal, got {:?}",
                other.err()
            ),
        }
        let target: Arc<dyn NvmeTarget> = devices[0].clone();
        let fsck = fsck_node(&target, 0, true);
        assert!(matches!(fsck.state, FsckState::Clean { .. }), "{fsck:?}");
    });
}

/// Import and remount work identically over NVMe-oF: a full-mesh
/// disaggregated deployment imports through remote write qpairs, then a
/// second job remounts the same devices over a clone of that wiring —
/// still read-only, still byte-correct.
#[test]
fn remote_import_and_remount_over_fabric() {
    Runtime::simulate(42, |rt| {
        let n = 4;
        let cluster = Arc::new(Cluster::new(n, FabricConfig::default()));
        let devices: Vec<Arc<NvmeDevice>> = (0..n).map(|_| ramdisk(128 << 20)).collect();
        let nodes: Vec<usize> = (0..n).collect();
        let mesh = Deployment::fabric(&cluster, &nodes, &nodes, &devices).unwrap();

        let source = SyntheticSource::fixed(21, 1500, 4096);
        let fs = dlfs::MountBuilder::new(DlfsConfig::default())
            .deployment(mesh.clone())
            .persistent()
            .mount(rt, &source)
            .unwrap();
        drain_all_readers(rt, &fs, &source, 17);
        let entries: Vec<(u64, u64)> = (0..1500u32).map(|id| fs.dir.entry(id).raw()).collect();
        drop(fs);

        let before: Vec<_> = devices.iter().map(|d| d.stats()).collect();
        let warm = dlfs::MountBuilder::new(DlfsConfig::default())
            .deployment(mesh)
            .warm()
            .remount(rt)
            .unwrap();
        for (d, b) in devices.iter().zip(&before) {
            assert_eq!(d.stats().1, b.1, "remote remount wrote to a device");
        }
        for id in 0..1500u32 {
            assert_eq!(warm.dir.entry(id).raw(), entries[id as usize]);
        }
        drain_all_readers(rt, &warm, &source, 19);
    });
}

/// Same seed ⇒ byte-identical persistent runs: end-of-run virtual time,
/// device write counters and every directory entry must match across two
/// independent simulations.
#[test]
fn same_seed_persistent_runs_byte_identical() {
    let run = || {
        Runtime::simulate(64, |rt| {
            let devices: Vec<Arc<NvmeDevice>> = (0..3).map(|_| ramdisk(64 << 20)).collect();
            let source = SyntheticSource::fixed(8, 900, 3000);
            let fs = dlfs::MountBuilder::new(DlfsConfig::default())
                .deployment(Deployment::local(1, &devices))
                .persistent()
                .mount(rt, &source)
                .unwrap();
            let mut w = fs.checkpoint_writer(rt, 0, 1, None).unwrap();
            w.append(rt, &[7u8; 4096]).unwrap();
            drop(fs);
            let warm = dlfs::MountBuilder::new(DlfsConfig::default())
                .deployment(Deployment::local(1, &devices))
                .warm()
                .remount(rt)
                .unwrap();
            drain_all_readers(rt, &warm, &source, 3);
            let entries: Vec<(u64, u64)> = (0..900u32).map(|id| warm.dir.entry(id).raw()).collect();
            let stats: Vec<_> = devices.iter().map(|d| d.stats()).collect();
            (rt.now().nanos(), entries, stats)
        })
    };
    assert_eq!(run(), run());
}

/// A replicated, verified import survives the drop/remount boundary: the
/// warm instance rebuilds the redundancy machinery from the superblock,
/// serves a byte-correct epoch while one node's data region carries
/// silent bit flips, and `fsck_repair` heals the node from its replica
/// until a deep fsck reports clean.
#[test]
fn replicated_import_remounts_and_heals_corruption() {
    Runtime::simulate(90, |rt| {
        let devices: Vec<Arc<NvmeDevice>> = (0..3).map(|_| ramdisk(64 << 20)).collect();
        let source = SyntheticSource::fixed(9, 700, 2500);
        let cfg = || DlfsConfig {
            chunk_size: 8 * 1024,
            replicas: 2,
            verify_reads: true,
            ..DlfsConfig::default()
        };
        let fs = dlfs::MountBuilder::new(cfg())
            .deployment(Deployment::local(1, &devices))
            .persistent()
            .mount(rt, &source)
            .unwrap();
        drop(fs);

        let warm = dlfs::MountBuilder::new(cfg())
            .deployment(Deployment::local(1, &devices))
            .warm()
            .remount(rt)
            .unwrap();
        let red = warm.redundancy().expect("remount rebuilds redundancy");
        assert_eq!(red.replicas, 2);
        assert!(red.verify());
        let sb0 = warm.shared(0).layouts.as_ref().unwrap()[0].clone();
        // Flip bits across the front of node 0's persistent data region.
        devices[0].set_faults(
            FaultInjector::new(17).with_bit_flips(sb0.data_base / blocksim::BLOCK_SIZE, 48),
        );
        // Demand reads stay byte-correct throughout (verified failover).
        drain_all_readers(rt, &warm, &source, 5);
        // Offline repair from the replica finishes the job…
        let rep = dlfs::fsck_repair(&warm.shared(0).targets, 0).unwrap();
        assert_eq!(rep.unrepairable, 0, "replica copy must cover every block");
        // …and a deep fsck agrees the node is clean again.
        let t0 = warm.shared(0).targets[0].clone();
        let report = fsck_node(&t0, 0, true);
        assert!(
            matches!(report.state, FsckState::Clean { .. }),
            "node 0 not clean after repair: {:?}",
            report.state
        );
    });
}

/// Remount configuration must agree with what the devices were imported
/// with: a replica-count mismatch and a verify-reads request against an
/// import that persisted no integrity table are both typed config errors.
#[test]
fn remount_integrity_config_mismatches_are_typed() {
    Runtime::simulate(91, |rt| {
        let devices: Vec<Arc<NvmeDevice>> = (0..3).map(|_| ramdisk(64 << 20)).collect();
        let source = SyntheticSource::fixed(10, 300, 2000);
        // Imported with 2 replicas, no integrity table.
        let fs = dlfs::MountBuilder::new(DlfsConfig {
            replicas: 2,
            ..DlfsConfig::default()
        })
        .deployment(Deployment::local(1, &devices))
        .persistent()
        .mount(rt, &source)
        .unwrap();
        drop(fs);
        // Wrong replica count: typed, not a panic or a silent downgrade.
        let err = dlfs::MountBuilder::new(DlfsConfig {
            replicas: 3,
            ..DlfsConfig::default()
        })
        .deployment(Deployment::local(1, &devices))
        .warm()
        .remount(rt)
        .unwrap_err();
        assert!(
            matches!(err, DlfsError::Layout(LayoutError::Inconsistent(_))),
            "got {err:?}"
        );
        // Asking to verify reads without a persisted table: same.
        let err = dlfs::MountBuilder::new(DlfsConfig {
            replicas: 2,
            verify_reads: true,
            ..DlfsConfig::default()
        })
        .deployment(Deployment::local(1, &devices))
        .warm()
        .remount(rt)
        .unwrap_err();
        assert!(
            matches!(err, DlfsError::Layout(LayoutError::Inconsistent(_))),
            "got {err:?}"
        );
        // The matching configuration still remounts fine.
        let warm = dlfs::MountBuilder::new(DlfsConfig {
            replicas: 2,
            ..DlfsConfig::default()
        })
        .deployment(Deployment::local(1, &devices))
        .warm()
        .remount(rt)
        .unwrap();
        drain_all_readers(rt, &warm, &source, 7);
    });
}

/// Variable-size, compressible samples for the bring-up grid: sizes that
/// straddle device blocks and pad codec frames, payloads `Lz` shrinks.
struct GridSource;

impl SampleSource for GridSource {
    fn count(&self) -> usize {
        240
    }

    fn name(&self, id: u32) -> String {
        format!("grid/sample_{id:05}")
    }

    fn size(&self, id: u32) -> u64 {
        500 + (id as u64 * 733) % 3500
    }

    fn fill(&self, id: u32, buf: &mut [u8]) {
        for (i, b) in buf.iter_mut().enumerate() {
            *b = (id as usize * 31 + i % 57) as u8;
        }
    }
}

/// Characterisation golden for bring-up: every {ephemeral, persistent} ×
/// replicas × verify × codec × rig cell records when `mount` returns, what
/// it wrote (`dlfs.write.*`) and a hash of every device image; persistent
/// cells add the warm `remount` (time, `dlfs.remount.*`); every cell ends
/// with one delivered, byte-verified epoch. Generated before the bring-up refactor; a refactor of
/// `mount.rs`/`layout.rs`/`writer.rs` must pass it unmodified.
#[test]
fn setup_grid_matches_golden() {
    let mut text = String::new();
    let mut cell = 0u64;
    for persist in [false, true] {
        for replicas in [1usize, 2] {
            for verify in [false, true] {
                for codec in [CodecKind::Identity, CodecKind::Lz] {
                    for fabric_rig in [false, true] {
                        cell += 1;
                        text.push_str(&format!(
                            "cell persist={persist} replicas={replicas} verify={verify} \
                             codec={codec} rig={}\n",
                            if fabric_rig {
                                "2x3-nvmeof+pfs"
                            } else {
                                "1x2-local"
                            }
                        ));
                        let cfg = DlfsConfig {
                            chunk_size: 16 * 1024,
                            ckpt_region_bytes: 64 * 1024,
                            replicas,
                            verify_reads: verify,
                            codec,
                            ..DlfsConfig::default()
                        };
                        text.push_str(&setup_cell(cell, cfg, persist, fabric_rig));
                    }
                }
            }
        }
    }
    check_golden("setup_grid.txt", &text);
}

/// One grid cell; returns its report lines.
fn setup_cell(seed: u64, cfg: DlfsConfig, persist: bool, fabric_rig: bool) -> String {
    Runtime::simulate(7000 + seed, |rt| {
        let (readers, nodes) = if fabric_rig { (2, 3) } else { (1, 2) };
        let devices: Vec<Arc<NvmeDevice>> = (0..nodes).map(|_| ramdisk(2 << 20)).collect();
        let deployment = if fabric_rig {
            pool(readers, &devices, FabricConfig::default()).0
        } else {
            Deployment::local(readers, &devices)
        };
        let builder = |reg: &Registry| {
            let b = MountBuilder::new(cfg.clone())
                .deployment(deployment.clone())
                .with_registry(reg.clone());
            if fabric_rig {
                b.pfs(Link::new(1.0e9, Dur::micros(40)))
            } else {
                b
            }
        };
        let mut out = String::new();
        let reg = Registry::new();
        let b = if persist {
            builder(&reg).persistent()
        } else {
            builder(&reg)
        };
        let fs = b.mount(rt, &GridSource).unwrap();
        out.push_str(&format!("mount t={}\n", rt.now().nanos()));
        out.push_str(&reg.snapshot().render());
        for (n, d) in devices.iter().enumerate() {
            out.push_str(&format!("dev{n} image={:016x}\n", image_hash(d)));
        }
        // Persistent cells deliver their epoch through a warm remount (the
        // devices alone must suffice); ephemeral cells through the mount.
        let fs = if persist {
            drop(fs);
            let reg = Registry::new();
            let warm = builder(&reg).warm().remount(rt).unwrap();
            out.push_str(&format!("remount t={}\n", rt.now().nanos()));
            out.push_str(&reg.snapshot().render());
            warm
        } else {
            fs
        };
        let epoch = drain_all_readers(rt, &fs, &GridSource, 5);
        out.push_str(&format!(
            "epoch t={} delivered={epoch:016x}\n",
            rt.now().nanos()
        ));
        out
    })
    .0
}

/// Every device's image and (persistent only) deep `fsck_node` state, and
/// `dlfs.write.{commands, bytes}`.
type Staged = (Vec<(u64, String)>, u64, u64);

/// What staging [`GridSource`] onto four fresh devices leaves behind when
/// `readers` readers reach them locally or over NVMe-oF.
fn staged_by(readers: usize, fabric: bool, cfg: &DlfsConfig, persist: bool) -> Staged {
    Runtime::simulate(7100, |rt| {
        let devices: Vec<Arc<NvmeDevice>> = (0..4).map(|_| ramdisk(2 << 20)).collect();
        let deployment = if fabric {
            pool(readers, &devices, FabricConfig::default()).0
        } else {
            Deployment::local(readers, &devices)
        };
        let reg = Registry::new();
        let b = MountBuilder::new(cfg.clone())
            .deployment(deployment)
            .with_registry(reg.clone());
        let b = if persist { b.persistent() } else { b };
        b.mount(rt, &GridSource).unwrap();
        (
            device_states(&devices, persist),
            reg.counter("dlfs.write.commands").get(),
            reg.counter("dlfs.write.bytes").get(),
        )
    })
    .0
}

/// Every device's image hash and, when `deep`, its deep fsck state.
fn device_states(devices: &[Arc<NvmeDevice>], deep: bool) -> Vec<(u64, String)> {
    let state = |(n, d): (usize, &Arc<NvmeDevice>)| {
        let target: Arc<dyn NvmeTarget> = d.clone();
        let fsck = deep.then(|| fsck_node(&target, n as u16, true).state);
        (image_hash(d), format!("{fsck:?}"))
    };
    devices.iter().enumerate().map(state).collect()
}

/// A replica copy crosses the fabric on the home → peer path only. Drops
/// there are retried by the copy's driver, and the devices end exactly as
/// a fault-free local import leaves them, every node deep-fsck clean. A
/// drop schedule on each reader's path to its home's peer meets no command
/// at all. A peer that dies mid-import is a typed `Io` naming it.
#[test]
fn forward_leg_faults_are_retried_or_typed() {
    let cfg = DlfsConfig {
        chunk_size: 16 * 1024,
        ckpt_region_bytes: 64 * 1024,
        replicas: 2,
        verify_reads: true,
        ..DlfsConfig::default()
    };
    // `readers` readers, four devices, and drops on the given cluster
    // paths: the import's device states, retries and fabric drops.
    let faulted = |readers: usize, paths: &[(usize, usize)]| {
        Runtime::simulate(7400, |rt| {
            let devices: Vec<Arc<NvmeDevice>> = (0..4).map(|_| ramdisk(2 << 20)).collect();
            let (deployment, cluster) = pool(readers, &devices, FabricConfig::default());
            let mut drops = FabricFaultInjector::new(41).with_io_timeout(Dur::micros(40));
            for &(from, to) in paths {
                drops = drops.with_path_drops(from, to, 200_000);
            }
            cluster.set_faults(drops);
            let reg = Registry::new();
            MountBuilder::new(cfg.clone())
                .deployment(deployment)
                .with_registry(reg.clone())
                .persistent()
                .mount(rt, &GridSource)
                .unwrap();
            (
                device_states(&devices, true),
                reg.counter("dlfs.write.retries").get(),
                cluster.metrics().counter("fabric.faults.drops"),
            )
        })
        .0
    };
    let (clean, ..) = staged_by(1, false, &cfg, true);
    assert!(clean.iter().all(|(_, fsck)| fsck.starts_with("Some(Clean")));
    // One reader on node 0, storage node n on cluster node n + 1.
    let forward: Vec<(usize, usize)> = (0..4).map(|n| (n + 1, (n + 1) % 4 + 1)).collect();
    let (states, retries, drops) = faulted(1, &forward);
    assert!(retries > 0 && drops > 0, "{retries} retries, {drops} drops");
    assert_eq!(states, clean);
    // Four readers on nodes 0..4, storage node n on cluster node n + 4:
    // reader n's path to its home's peer.
    let to_peer: Vec<(usize, usize)> = (0..4).map(|n| (n, (n + 1) % 4 + 4)).collect();
    assert_eq!(faulted(4, &to_peer), (clean, 0, 0));

    Runtime::simulate(7401, |rt| {
        let devices: Vec<Arc<NvmeDevice>> = (0..2).map(|_| ramdisk(32 << 20)).collect();
        let (deployment, _) = pool(2, &devices, FabricConfig::default());
        let peer = devices[1].clone();
        let kill = rt.spawn_with("kill", move |rt| {
            rt.sleep(Dur::micros(300));
            peer.kill();
        });
        // 8 MB: each target takes ≈ 1.2 ms of its own data and its mirror's.
        let source = SyntheticSource::fixed(45, 2000, 4096);
        let err = MountBuilder::new(cfg.clone())
            .deployment(deployment)
            .mount(rt, &source)
            .unwrap_err();
        kill.join();
        assert!(
            matches!(err, DlfsError::Io { target: 1, .. }),
            "want a typed Io naming the dead peer, got {err:?}"
        );
    });
}

/// Neither the order in which one reader feeds its devices nor the path a
/// replica copy takes changes a byte or a command: a reader that owns all
/// four nodes (their streams interleaved) leaves every device exactly as
/// four readers that own one node each (nothing to interleave) do, and
/// readers over NVMe-oF — whose home targets forward every copy — exactly
/// as local ones, who write each copy themselves: data, mirrors, integrity
/// and codec tables, metadata, superblocks and deep fsck states alike.
#[test]
fn feed_order_changes_no_byte() {
    for replicas in [1usize, 2, 3] {
        for codec in [CodecKind::Identity, CodecKind::Lz] {
            for persist in [false, true] {
                let cfg = DlfsConfig {
                    chunk_size: 16 * 1024,
                    ckpt_region_bytes: 64 * 1024,
                    replicas,
                    verify_reads: true,
                    codec,
                    ..DlfsConfig::default()
                };
                let local = staged_by(1, false, &cfg, persist);
                for (readers, fabric) in [(4, false), (1, true), (4, true)] {
                    assert_eq!(
                        local,
                        staged_by(readers, fabric, &cfg, persist),
                        "replicas={replicas} codec={codec} persist={persist} \
                         readers={readers} fabric={fabric}"
                    );
                }
            }
        }
    }
}

/// One rig of [`mount_meets_its_staging_roofline`]: `readers` readers in
/// front of `nodes` devices, reached over NVMe-oF or locally, and how far
/// over its roofline the mount may run.
struct StagingRig {
    name: &'static str,
    readers: usize,
    nodes: usize,
    fabric: bool,
    replicas: usize,
    persist: bool,
    source: SyntheticSource,
    bound: f64,
}

/// Staging runs at its slowest link: `mount` takes at most `bound` over
/// the larger of (most bytes any device takes ÷ device rate) and (most
/// bytes any NIC sends or receives ÷ NIC rate) — a reader's sends, a
/// target's receives and forwards. Each rig pins a serial step the
/// bring-up must not take: a reader that fills its devices one after
/// another (`1x4-nvmeof`, `1x3-local-r2`), trees shipped and merged only
/// after the last write drains (`4x4-allgather`: 16 384 entries, whose
/// merge alone is a sixth of the roofline), a node whose larger share is
/// written alone at the end (`1x4-lognormal`), per-node tails and
/// finalizes drained one after another (`1x3-local-r2-persist`), a reader
/// that sends every replica copy itself (`1x4-nvmeof-r2`, whose readers
/// must send each byte once). At the bring-up that took those steps, the
/// three rigs after the first two ran 1.21, 1.08 and 1.013 × their
/// rooflines, and the last 1.30 × its device roofline (20.7 ms, bound by
/// the reader sending 140 MB).
#[test]
fn mount_meets_its_staging_roofline() {
    let fixed = || SyntheticSource::fixed(31, 700, 100_000); // 70 MB
    let mut rng = SplitMix64::new(29);
    let small: Vec<u64> = (0..16_384).map(|_| rng.range(1000, 1601)).collect();
    let mut rng = SplitMix64::new(30);
    let skewed = (0..1000).map(|_| (rng.lognormal(10.5, 1.2) as u64).clamp(512, 4 << 20));
    let rigs = [
        StagingRig {
            name: "1x4-nvmeof",
            readers: 1,
            nodes: 4,
            fabric: true,
            replicas: 1,
            persist: false,
            source: fixed(),
            bound: 0.02,
        },
        StagingRig {
            name: "1x3-local-r2",
            readers: 1,
            nodes: 3,
            fabric: false,
            replicas: 2,
            persist: false,
            source: fixed(),
            bound: 0.01,
        },
        StagingRig {
            name: "4x4-allgather",
            readers: 4,
            nodes: 4,
            fabric: true,
            replicas: 1,
            persist: false,
            source: SyntheticSource::new(32, small),
            bound: 0.05,
        },
        StagingRig {
            name: "1x4-lognormal",
            readers: 1,
            nodes: 4,
            fabric: true,
            replicas: 1,
            persist: false,
            source: SyntheticSource::new(33, skewed.collect()),
            bound: 0.02,
        },
        StagingRig {
            name: "1x3-local-r2-persist",
            readers: 1,
            nodes: 3,
            fabric: false,
            replicas: 2,
            persist: true,
            source: fixed(),
            bound: 0.01,
        },
        StagingRig {
            name: "1x4-nvmeof-r2",
            readers: 1,
            nodes: 4,
            fabric: true,
            replicas: 2,
            persist: false,
            source: fixed(),
            bound: 0.02,
        },
    ];
    let over: Vec<String> = rigs
        .iter()
        .filter_map(|rig| {
            let (took, roofline) = Runtime::simulate(7200, |rt| staging_run(rt, rig)).0;
            (took > (1.0 + rig.bound) * roofline).then(|| {
                format!(
                    "{}: mount took {took:.6} s, {:.4} x its roofline {roofline:.6} s \
                     (bound {})",
                    rig.name,
                    took / roofline,
                    1.0 + rig.bound
                )
            })
        })
        .collect();
    assert!(over.is_empty(), "{over:#?}");
}

/// Mount `rig` once; returns (seconds the mount took, its roofline).
fn staging_run(rt: &Runtime, rig: &StagingRig) -> (f64, f64) {
    let devices: Vec<Arc<NvmeDevice>> = (0..rig.nodes).map(|_| ramdisk(64 << 20)).collect();
    let (deployment, cluster) = if rig.fabric {
        let (d, c) = pool(rig.readers, &devices, FabricConfig::default());
        (d, Some(c))
    } else {
        (Deployment::local(rig.readers, &devices), None)
    };
    // A shallow queue keeps a node's share many times what its writer
    // holds in flight — the regime of a real dataset (128 MB shares
    // against 32 MiB of queue on `imagenet_disagg`) at a test's size. A
    // queue that swallowed a whole share would hide a serial feed behind
    // it.
    let cfg = DlfsConfig {
        replicas: rig.replicas,
        queue_depth: 16,
        ..DlfsConfig::default()
    };
    let b = MountBuilder::new(cfg).deployment(deployment);
    let b = if rig.persist { b.persistent() } else { b };
    let t0 = rt.now();
    b.mount(rt, &rig.source).unwrap();
    let took = (rt.now() - t0).as_secs_f64();
    let written: Vec<u64> = devices.iter().map(|d| d.stats().3).collect();
    let device_s = *written.iter().max().unwrap() as f64 / devices[0].config().bytes_per_sec;
    // The busiest NIC direction: a reader sends its nodes' data, capsules
    // and trees; a target receives its own data and its mirrors' and
    // forwards its copies.
    let nic = FabricConfig::default().nic_bytes_per_sec;
    let traffic = |c: &Cluster| (0..c.len()).map(|n| c.node_traffic(n)).collect::<Vec<_>>();
    let traffic = cluster.as_deref().map(traffic).unwrap_or_default();
    let busiest = traffic
        .iter()
        .map(|&(tx, rx)| tx.max(rx))
        .max()
        .unwrap_or(0);
    if rig.replicas > 1 {
        // One copy of every byte leaves the readers, however many land.
        let data: u64 = (0..rig.source.count() as u32)
            .map(|id| rig.source.size(id))
            .sum();
        let sent: u64 = traffic[..rig.readers.min(traffic.len())]
            .iter()
            .map(|t| t.0)
            .sum();
        assert!(
            sent as f64 <= 1.01 * data as f64,
            "{}: readers sent {sent} B for {data} B of data",
            rig.name
        );
    }
    (took, device_s.max(busiest as f64 / nic))
}

/// A coded, replicated import ships what the codec kept, once, in
/// chunk-sized commands: on a 1 GB/s wire, where bytes are the whole cost
/// of set-up, the reader sends each node's stored extents once (plus a
/// capsule per command) and each home target forwards them to its replica
/// peer, so a storage node receives its own stored extents and its
/// mirror's (plus capsules). Writers merge each node's frames — packed
/// back to back — into one command per chunk of stored bytes and copy
/// (plus one short tail per device stream), and the mount lands within 5 %
/// of its roofline: the busiest NIC's wire time, or the reader's directory
/// entry building (120 ns a sample) when that is longer. Two inputs: 48-byte
/// motifs, which the codec packs so tightly (≈ 114 stored bytes a sample)
/// that entry building bounds the mount, and 128-byte motifs (≈ 190), which
/// leave it on the wire. (What a mount spends beyond its bound is a
/// constant ≈ 65 µs — filling the first chunk, forwarding and draining the
/// last command — so the dataset is sized for a bound of ≈ 2 ms or more.)
#[test]
fn coded_import_meets_its_wire_roofline() {
    for motif in [48, 128] {
        coded_import_roofline(motif);
    }
}

fn coded_import_roofline(motif: usize) {
    const NIC: f64 = 1.0e9;
    // `mount.rs`'s per-sample directory entry build, paid by the reader.
    const ENTRY_BUILD_S: f64 = 120e-9;
    const SAMPLES: usize = 16384;
    Runtime::simulate(7300, |rt| {
        let source = SyntheticSource::compressible(33, SAMPLES, 2600, motif);
        let devices: Vec<Arc<NvmeDevice>> = (0..4).map(|_| ramdisk(32 << 20)).collect();
        let fabric = FabricConfig {
            nic_bytes_per_sec: NIC,
            ..FabricConfig::default()
        };
        let (deployment, cluster) = pool(1, &devices, fabric);
        let cfg = DlfsConfig {
            chunk_size: 8 * 1024,
            replicas: 2,
            verify_reads: true,
            codec: CodecKind::Lz,
            ..DlfsConfig::default()
        };
        let reg = Registry::new();
        let t0 = rt.now();
        let fs = MountBuilder::new(cfg.clone())
            .deployment(deployment)
            .with_registry(reg.clone())
            .mount(rt, &source)
            .unwrap();
        let took = (rt.now() - t0).as_secs_f64();
        let tables = fs.shared(0).codec.as_ref().unwrap();
        // Stored bytes per node — frames packed to the byte, from the
        // start of the data region to the last frame's end — and raw bytes
        // overall.
        let stored: Vec<u64> = (tables.per_node.iter())
            .map(|frames| frames.stored(frames.lens.len() - 1).end - frames.base)
            .collect();
        let raw: u64 = (tables.per_node.iter()).map(|frames| frames.data_len).sum();
        let total: u64 = stored.iter().sum();
        let copies = cfg.replicas as u64;
        let commands = reg.snapshot().counter("dlfs.write.commands");
        let streams = tables.per_node.len() as u64 * copies;
        let merged = (total * copies).div_ceil(cfg.chunk_size) + streams;
        assert!(
            commands <= merged,
            "{commands} write commands for {total} B of stored extents x {copies} in {} B chunks",
            cfg.chunk_size
        );
        let capsules = commands * fabric::CAPSULE_BYTES;
        let (tx, _) = cluster.node_traffic(0);
        assert!(
            tx as f64 <= 1.1 * total as f64 + capsules as f64,
            "reader sent {tx} B for {total} B of stored extents + {capsules} B of capsules"
        );
        // Node n (cluster node n + 1) homes its own extents and mirrors
        // those of node n - 1.
        for (n, &own) in stored.iter().enumerate() {
            let mirror = stored[(n + stored.len() - 1) % stored.len()];
            let (_, rx) = cluster.node_traffic(n + 1);
            assert!(
                rx as f64 <= 1.1 * (own + mirror) as f64 + capsules as f64,
                "node {n} received {rx} B for {own} + {mirror} B of stored extents"
            );
        }
        let busiest = (0..cluster.len())
            .map(|n| cluster.node_traffic(n))
            .map(|(tx, rx)| tx.max(rx))
            .max()
            .unwrap();
        let wire_s = busiest as f64 / NIC;
        let roof_s = wire_s.max(SAMPLES as f64 * ENTRY_BUILD_S);
        assert!(
            took <= 1.05 * roof_s,
            "motif {motif}: mount took {took:.6} s against a roofline of {roof_s:.6} s; \
             its busiest NIC moves {busiest} B, {wire_s:.6} s on the wire"
        );
        assert!(total * 8 < raw, "{total} B stored of {raw} B raw");
    });
}

/// Many small samples for the faulted bring-up cells: enough metadata that
/// a remount pipelines its reads, sizes that straddle device blocks.
struct FaultSource;

impl SampleSource for FaultSource {
    fn count(&self) -> usize {
        1500
    }

    fn name(&self, id: u32) -> String {
        format!("faults/sample_{id:05}")
    }

    fn size(&self, id: u32) -> u64 {
        300 + (id as u64 * 37) % 900
    }

    fn fill(&self, id: u32, buf: &mut [u8]) {
        for (i, b) in buf.iter_mut().enumerate() {
            *b = (id as usize * 17 + i % 61) as u8;
        }
    }
}

/// What a faulted cell injects; every phase arms fresh injectors, so a
/// phase's fault sequence never depends on how long the one before ran.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Inject {
    Nothing,
    /// Device write failures, parts per million.
    Writes(u32),
    /// Device read failures, parts per million.
    Reads(u32),
    /// Fabric message drops, parts per million (NVMe-oF rig only).
    Drops(u32),
}

/// The rig of one faulted cell: devices, how the readers reach them (two
/// readers over NVMe-oF, or one local reader), and the config every phase
/// shares.
struct FaultCell {
    devices: Vec<Arc<NvmeDevice>>,
    deployment: Deployment,
    cfg: DlfsConfig,
}

impl FaultCell {
    fn new(fabric_rig: bool) -> FaultCell {
        let nodes = if fabric_rig { 3 } else { 1 };
        let devices: Vec<Arc<NvmeDevice>> = (0..nodes).map(|_| ramdisk(8 << 20)).collect();
        FaultCell {
            deployment: if fabric_rig {
                pool(2, &devices, FabricConfig::default()).0
            } else {
                Deployment::local(1, &devices)
            },
            devices,
            cfg: DlfsConfig {
                chunk_size: 4096,
                queue_depth: 4,
                ckpt_region_bytes: 256 * 1024,
                verify_reads: true,
                ..DlfsConfig::default()
            },
        }
    }

    fn builder(&self, reg: &Registry) -> MountBuilder {
        MountBuilder::new(self.cfg.clone())
            .deployment(self.deployment.clone())
            .with_registry(reg.clone())
    }

    /// Replace every injector with a fresh one for the next phase.
    fn arm(&self, inject: Inject, seed: u64) {
        for (n, d) in self.devices.iter().enumerate() {
            let f = FaultInjector::new(seed + n as u64);
            d.set_faults(match inject {
                Inject::Writes(ppm) => f.with_write_failures(ppm),
                Inject::Reads(ppm) => f.with_read_failures(ppm),
                _ => f,
            });
        }
        if let Some(cluster) = &self.deployment.cluster {
            let f = FabricFaultInjector::new(seed ^ 0xFAB).with_io_timeout(Dur::micros(40));
            cluster.set_faults(match inject {
                Inject::Drops(ppm) => f.with_drops(ppm),
                _ => f,
            });
        }
    }

    fn images(&self) -> String {
        let line =
            |(n, d): (usize, &Arc<NvmeDevice>)| format!("dev{n} image={:016x}\n", image_hash(d));
        self.devices.iter().enumerate().map(line).collect()
    }
}

/// One phase's report: when it ended, how (`ok` or the typed error), and
/// the counters it registered.
fn phase_report<T>(rt: &Runtime, what: &str, got: &Result<T, DlfsError>, reg: &Registry) -> String {
    let how = match got {
        Ok(_) => "ok".to_string(),
        Err(e) => format!("{e:?}"),
    };
    format!(
        "{what} t={} {how}\n{}",
        rt.now().nanos(),
        reg.snapshot().render()
    )
}

/// Append three records to the checkpoint streams of `nodes` (each through
/// reader `n % readers`), then replay them.
fn ckpt_phase(
    rt: &Runtime,
    fs: &DlfsInstance,
    nodes: &[u16],
    reg: &Registry,
) -> Result<(), DlfsError> {
    let payloads: [Vec<u8>; 3] = [vec![0xa1; 40_000], vec![0xb2; 5_000], vec![0xc3; 100]];
    for &n in nodes {
        let r = n as usize % fs.readers();
        let mut w = fs.checkpoint_writer(rt, r, n, Some(reg))?;
        for p in &payloads {
            w.append(rt, p)?;
        }
        let mut replay = fs.checkpoint_reader(r, n, Some(reg))?;
        for p in &payloads {
            assert_eq!(replay.next(rt)?.as_ref(), Some(p), "node {n} replay");
        }
        assert_eq!(replay.next(rt)?, None);
    }
    Ok(())
}

/// Characterisation golden for the device-command layer under faults:
/// persistent import, warm remount and checkpoint append + replay at
/// `queue_depth: 4` on {1 local device, 2 readers × 3 NVMe-oF nodes} under
/// seeded write failures, read failures and fabric drops — when each phase
/// ended, `dlfs.write.*` / `dlfs.remount.*` / `dlfs.ckpt.*`, every device
/// image — plus the cells that spend the retry budget, with their typed
/// `Io { target, attempts, cause }`. Generated before the command-driver
/// refactor of `writer.rs`; a refactor under import, remount or the
/// checkpoint streams must pass it unmodified, except that a phase whose
/// *reads* retried may move in `t=` only (resubmission order).
#[test]
fn setup_faults_matches_golden() {
    let mut text = String::new();
    let mut seed = 7300u64;
    for fabric_rig in [false, true] {
        let rig_name = if fabric_rig {
            "2x3-nvmeof"
        } else {
            "1x1-local"
        };
        let mut clean_images = None;
        for inject in [
            Inject::Nothing,
            Inject::Writes(80_000),
            Inject::Reads(150_000),
            Inject::Drops(50_000),
        ] {
            if matches!(inject, Inject::Drops(_)) && !fabric_rig {
                continue; // no fabric to drop on
            }
            seed += 10;
            text.push_str(&format!("cell rig={rig_name} inject={inject:?}\n"));
            let (report, images) = Runtime::simulate(seed, |rt| {
                let cell = FaultCell::new(fabric_rig);
                let mut out = String::new();
                cell.arm(inject, seed + 1);
                let reg = Registry::new();
                let fs = cell.builder(&reg).persistent().mount(rt, &FaultSource);
                out.push_str(&phase_report(rt, "import", &fs, &reg));
                let images = cell.images();
                out.push_str(&images);
                drop(fs);
                cell.arm(inject, seed + 2);
                let reg = Registry::new();
                let fs = cell.builder(&reg).warm().remount(rt);
                out.push_str(&phase_report(rt, "remount", &fs, &reg));
                let fs = fs.unwrap();
                cell.arm(inject, seed + 3);
                let reg = Registry::new();
                let nodes: &[u16] = if fabric_rig { &[0, 1] } else { &[0] };
                let got = ckpt_phase(rt, &fs, nodes, &reg);
                out.push_str(&phase_report(rt, "ckpt", &got, &reg));
                out.push_str(&cell.images());
                (out, images)
            })
            .0;
            text.push_str(&report);
            // Retried writes land the same bytes a clean import does.
            let clean = clean_images.get_or_insert_with(|| images.clone());
            assert_eq!(
                &images, clean,
                "{rig_name} {inject:?}: import image drifted"
            );
        }
    }
    // The retry budget spent, once per direction and cause.
    for (what, fabric_rig, inject) in [
        ("import", false, Inject::Writes(1_000_000)),
        ("remount", false, Inject::Reads(1_000_000)),
        ("remount", true, Inject::Drops(1_000_000)),
        ("ckpt", false, Inject::Writes(1_000_000)),
    ] {
        seed += 10;
        let rig_name = if fabric_rig {
            "2x3-nvmeof"
        } else {
            "1x1-local"
        };
        text.push_str(&format!(
            "cell rig={rig_name} inject={inject:?} exhausts={what}\n"
        ));
        let report = Runtime::simulate(seed, |rt| {
            let cell = FaultCell::new(fabric_rig);
            let reg = Registry::new();
            if what == "import" {
                cell.arm(inject, seed + 1);
                let got = cell.builder(&reg).persistent().mount(rt, &FaultSource);
                assert!(matches!(got, Err(DlfsError::Io { .. })), "{got:?}");
                return phase_report(rt, what, &got, &reg);
            }
            let fs = cell
                .builder(&Registry::new())
                .persistent()
                .mount(rt, &FaultSource);
            drop(fs.unwrap());
            if what == "remount" {
                cell.arm(inject, seed + 2);
                let got = cell.builder(&reg).warm().remount(rt);
                assert!(matches!(got, Err(DlfsError::Io { .. })), "{got:?}");
                return phase_report(rt, what, &got, &reg);
            }
            let fs = cell.builder(&Registry::new()).warm().remount(rt).unwrap();
            let mut w = fs.checkpoint_writer(rt, 0, 0, Some(&reg)).unwrap();
            cell.arm(inject, seed + 3);
            let got = w.append(rt, &[0xd4; 9000]);
            assert!(matches!(got, Err(DlfsError::Io { .. })), "{got:?}");
            // Sticky: the stream's writer refuses further appends.
            assert_eq!(w.append(rt, &[0xe5; 100]), got);
            phase_report(rt, what, &got, &reg)
        })
        .0;
        text.push_str(&report);
    }
    check_golden("setup_faults.txt", &text);
}
