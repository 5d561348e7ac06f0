//! End-to-end codec tests: transparent per-frame compression through
//! import → remount → verified reads, checksum coverage of the *stored*
//! (encoded) bytes, and wire/device byte savings. The default
//! configuration (`CodecKind::Identity`) builds none of it — those paths
//! are covered by the byte-identity suites elsewhere.

use std::sync::Arc;

use blocksim::{DeviceConfig, FaultInjector, NvmeDevice, NvmeTarget, BLOCK_SIZE};
use dlfs::source::SampleSource;
use dlfs::{
    CacheMode, CodecKind, Completions, Deployment, DlfsConfig, DlfsError, DlfsInstance,
    ReadRequest, SyntheticSource,
};
use simkit::prelude::*;

fn test_seed(base: u64) -> u64 {
    base + std::env::var("DLFS_TEST_SEED_OFFSET")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0)
}

fn ramdisk(bytes: u64) -> Arc<NvmeDevice> {
    NvmeDevice::new(DeviceConfig::emulated_ramdisk(bytes, Dur::micros(10)))
}

fn local_deployment(devices: &[Arc<NvmeDevice>]) -> Deployment {
    Deployment {
        targets: vec![devices
            .iter()
            .map(|d| d.clone() as Arc<dyn NvmeTarget>)
            .collect()],
        cluster: None,
    }
}

fn lz_cfg() -> DlfsConfig {
    DlfsConfig {
        chunk_size: 8 * 1024,
        codec: CodecKind::Lz,
        ..DlfsConfig::default()
    }
}

/// Drain one full epoch, verifying every payload byte-for-byte against
/// `expected` and exactly-once delivery.
fn drain_verified(
    rt: &Runtime,
    fs: &DlfsInstance,
    seed: u64,
    count: usize,
    expected: &dyn Fn(u32) -> Vec<u8>,
) {
    let mut seen = vec![false; count];
    let mut delivered = 0usize;
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
                        assert_eq!(data, expected(id), "sample {id} corrupted");
                        assert!(!seen[id as usize], "sample {id} delivered twice");
                        seen[id as usize] = true;
                        delivered += 1;
                    }
                }
                Err(DlfsError::EpochExhausted) => break,
                Err(e) => panic!("epoch failed: {e}"),
            }
        }
    }
    assert_eq!(delivered, count, "epoch must cover the dataset");
}

/// The core roundtrip: a compressed import serves byte-correct epochs,
/// survives a warm remount (codec + frame table read back from the
/// devices), and every synchronous path — copied, zero-copy, by-name —
/// decodes to the original payloads. Both compressible and incompressible
/// (verbatim-fallback) samples, sizes straddling block boundaries.
#[test]
fn lz_roundtrips_import_remount_and_all_read_paths() {
    Runtime::simulate(test_seed(90), |rt| {
        let comp = SyntheticSource::compressible(21, 300, 3000, 48);
        let devices = vec![ramdisk(64 << 20), ramdisk(64 << 20)];
        let fs = dlfs::MountBuilder::new(lz_cfg())
            .deployment(local_deployment(&devices))
            .persistent()
            .mount(rt, &comp)
            .unwrap();
        drain_verified(rt, &fs, 3, comp.count(), &|id| comp.expected(id));
        drop(fs);

        // Warm remount: codec kind and per-frame lengths come back from
        // the superblock + codec table region, read-only. Cross-epoch
        // mode so the synchronous zero-copy miss below can publish.
        let before: Vec<_> = devices.iter().map(|d| d.stats()).collect();
        let warm = dlfs::MountBuilder::new(DlfsConfig {
            cache_mode: CacheMode::CrossEpoch,
            ..lz_cfg()
        })
        .deployment(local_deployment(&devices))
        .warm()
        .remount(rt)
        .unwrap();
        for (d, b) in devices.iter().zip(&before) {
            assert_eq!(d.stats().3, b.3, "remount wrote bytes to a device");
        }
        drain_verified(rt, &warm, 4, comp.count(), &|id| comp.expected(id));
        // Synchronous single reads decode too (copied + zero-copy + name).
        let mut io = warm.io(0);
        for id in [0u32, 7, 123, 299] {
            assert_eq!(io.read_by_id(rt, id).unwrap(), comp.expected(id));
        }
        let s = io.read_zero_copy(rt, 5).unwrap();
        assert_eq!(s.to_vec(), comp.expected(5));
        assert_eq!(io.read(rt, &comp.name(9)).unwrap(), comp.expected(9));
        let m = io.metrics();
        let enc = m.counter("dlfs.codec.bytes_in");
        let raw = m.counter("dlfs.codec.bytes_out");
        assert!(enc > 0, "codec counters never recorded");
        assert!(
            enc * 2 < raw,
            "motif frames should decode to >2x their stored size ({enc} -> {raw})"
        );
    });
}

/// Remounting a coded dataset with a mismatched config codec is a typed
/// layout error, not silent garbage.
#[test]
fn remount_with_wrong_codec_is_typed_error() {
    Runtime::simulate(test_seed(91), |rt| {
        let comp = SyntheticSource::compressible(22, 64, 2048, 32);
        let devices = vec![ramdisk(64 << 20)];
        let fs = dlfs::MountBuilder::new(lz_cfg())
            .deployment(local_deployment(&devices))
            .persistent()
            .mount(rt, &comp)
            .unwrap();
        drop(fs);
        let err = dlfs::MountBuilder::new(DlfsConfig {
            codec: CodecKind::Identity,
            ..lz_cfg()
        })
        .deployment(local_deployment(&devices))
        .warm()
        .remount(rt)
        .unwrap_err();
        match err {
            DlfsError::Layout(_) => {}
            other => panic!("expected a typed layout error, got {other}"),
        }
    });
}

/// Incompressible (white-noise) samples fall back to verbatim frames and
/// still roundtrip through every path, cross-epoch cache included.
#[test]
fn verbatim_fallback_roundtrips_with_cross_epoch_cache() {
    Runtime::simulate(test_seed(92), |rt| {
        // Exactly four 2048-byte noise samples per 8 KiB frame: no zero
        // padding, so frames hold pure white noise and stay verbatim.
        let noise = SyntheticSource::fixed(23, 150, 2048);
        let cfg = DlfsConfig {
            cache_mode: CacheMode::CrossEpoch,
            prefetch_window: 4,
            ..lz_cfg()
        };
        let devices = vec![ramdisk(64 << 20), ramdisk(64 << 20)];
        let fs = dlfs::MountBuilder::new(cfg)
            .deployment(local_deployment(&devices))
            .mount(rt, &noise)
            .unwrap();
        let mut io = fs.io(0);
        for epoch in 0..3 {
            let total = io.sequence(rt, 6, epoch);
            let mut got = 0;
            loop {
                match io
                    .submit(rt, &ReadRequest::batch(16))
                    .map(Completions::into_copied)
                {
                    Ok(batch) => {
                        for (id, data) in batch {
                            assert_eq!(data, noise.expected(id), "sample {id} corrupted");
                            got += 1;
                        }
                    }
                    Err(DlfsError::EpochExhausted) => break,
                    Err(e) => panic!("{e}"),
                }
            }
            assert_eq!(got, total);
        }
        let m = io.metrics();
        // White noise: stored verbatim, so bytes_in == bytes_out.
        assert_eq!(
            m.counter("dlfs.codec.bytes_in"),
            m.counter("dlfs.codec.bytes_out"),
            "noise frames must store verbatim"
        );
        assert!(m.counter("dlfs.cache.hits") > 0, "warm epochs never hit");
    });
}

/// Checksums cover the *stored* (encoded) bytes: a silent flip inside a
/// compressed frame is caught by block verification *before* the decoder
/// ever runs, failed over to the replica, and read-repaired — every
/// delivered payload stays byte-correct.
#[test]
fn corrupt_encoded_frames_verify_before_decode_and_repair() {
    Runtime::simulate(test_seed(93), |rt| {
        let comp = SyntheticSource::compressible(24, 400, 2048, 40);
        let cfg = DlfsConfig {
            replicas: 2,
            verify_reads: true,
            ..lz_cfg()
        };
        let devices = vec![ramdisk(64 << 20), ramdisk(64 << 20)];
        let fs = dlfs::MountBuilder::new(cfg)
            .deployment(local_deployment(&devices))
            .persistent()
            .mount(rt, &comp)
            .unwrap();
        let sb0 = fs.shared(0).layouts.as_ref().unwrap()[0].clone();
        // Flip bits across the front of node 0's stored (encoded) data
        // region — compressed streams, where an unverified flip would
        // derail the decoder, not just corrupt one byte.
        let data_blk = sb0.data_base / BLOCK_SIZE;
        devices[0].set_faults(FaultInjector::new(17).with_bit_flips(data_blk, 64));
        // One handle bound to a shared registry so the integrity counters
        // from the whole epoch survive (`fs.io()` registries are
        // per-handle).
        let reg = simkit::telemetry::Registry::new();
        let mut io = fs.io_with_registry(0, &reg);
        let total = io.sequence(rt, 8, 0);
        let mut got = 0;
        loop {
            match io
                .submit(rt, &ReadRequest::batch(32))
                .map(Completions::into_copied)
            {
                Ok(batch) => {
                    for (id, data) in batch {
                        assert_eq!(data, comp.expected(id), "sample {id} corrupted");
                        got += 1;
                    }
                }
                Err(DlfsError::EpochExhausted) => break,
                Err(e) => panic!("{e}"),
            }
        }
        assert_eq!(got, total);
        let m = reg.snapshot();
        assert!(
            m.counter("dlfs.integrity.mismatches") > 0,
            "flips in stored frames must fail block verification"
        );
        assert!(
            m.counter("dlfs.integrity.repairs") > 0,
            "verified failover must read-repair the home replica"
        );
        // A second epoch over the repaired home copies is mismatch-free.
        let reg2 = simkit::telemetry::Registry::new();
        let mut io2 = fs.io_with_registry(0, &reg2);
        let total = io2.sequence(rt, 9, 0);
        let mut got = 0;
        loop {
            match io2
                .submit(rt, &ReadRequest::batch(32))
                .map(Completions::into_copied)
            {
                Ok(batch) => {
                    for (id, data) in batch {
                        assert_eq!(data, comp.expected(id));
                        got += 1;
                    }
                }
                Err(DlfsError::EpochExhausted) => break,
                Err(e) => panic!("{e}"),
            }
        }
        assert_eq!(got, total);
        assert_eq!(
            reg2.snapshot().counter("dlfs.integrity.mismatches"),
            0,
            "read-repair should have healed every frame the epoch touches"
        );
    });
}

/// With no replica, a persistently corrupt encoded frame surfaces a typed
/// `Corrupt` error — never a decoder panic, never silent bytes.
#[test]
fn unrepairable_encoded_corruption_is_typed_corrupt() {
    Runtime::simulate(test_seed(94), |rt| {
        let comp = SyntheticSource::compressible(25, 200, 2048, 40);
        let cfg = DlfsConfig {
            verify_reads: true,
            ..lz_cfg()
        };
        let dev = ramdisk(64 << 20);
        let devices = vec![dev.clone()];
        let fs = dlfs::MountBuilder::new(cfg)
            .deployment(local_deployment(&devices))
            .persistent()
            .mount(rt, &comp)
            .unwrap();
        let sb0 = fs.shared(0).layouts.as_ref().unwrap()[0].clone();
        dev.set_faults(FaultInjector::new(19).with_bit_flips(sb0.data_base / BLOCK_SIZE, 32));
        let mut io = fs.io(0);
        io.sequence(rt, 10, 0);
        let mut outcome = None;
        loop {
            match io.submit(rt, &ReadRequest::batch(16)) {
                Ok(_) => continue,
                Err(DlfsError::EpochExhausted) => break,
                Err(e) => {
                    outcome = Some(e);
                    break;
                }
            }
        }
        match outcome {
            Some(DlfsError::Corrupt { tried, .. }) => assert!(tried > 0),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    });
}

/// Compression saves real device traffic: the same compressible dataset
/// read under `Lz` fetches strictly fewer bytes off the devices than
/// under `Identity`, and both deliver identical payload bytes.
#[test]
fn lz_fetches_strictly_fewer_device_bytes() {
    let run = |codec: CodecKind| {
        Runtime::simulate(test_seed(95), |rt| {
            let comp = SyntheticSource::compressible(26, 500, 4096, 64);
            let devices = vec![ramdisk(64 << 20), ramdisk(64 << 20)];
            let fs = dlfs::MountBuilder::new(DlfsConfig { codec, ..lz_cfg() })
                .deployment(local_deployment(&devices))
                .mount(rt, &comp)
                .unwrap();
            let base: u64 = devices.iter().map(|d| d.stats().2).sum();
            drain_verified(rt, &fs, 12, comp.count(), &|id| comp.expected(id));
            devices.iter().map(|d| d.stats().2).sum::<u64>() - base
        })
    };
    // (Wall-clock is *not* asserted here: on a fast local ramdisk the
    // client-side decode charge can outweigh the device-byte saving — the
    // time win appears once a constrained fabric link is the bottleneck,
    // which the `ext_offload` bench sweeps.)
    let (identity_bytes, _) = run(CodecKind::Identity);
    let (lz_bytes, _) = run(CodecKind::Lz);
    assert!(
        lz_bytes * 2 < identity_bytes,
        "lz epoch should read <half the device bytes ({lz_bytes} vs {identity_bytes})"
    );
}
