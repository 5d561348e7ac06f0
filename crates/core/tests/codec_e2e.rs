//! End-to-end codec tests: transparent per-frame compression through
//! import → remount → verified reads, checksum coverage of the *stored*
//! (encoded) bytes, and wire/device byte savings. The default
//! configuration (`CodecKind::Identity`) builds none of it — those paths
//! are covered by the byte-identity suites elsewhere.

mod common;

use std::sync::Arc;

use blocksim::{DeviceConfig, FaultInjector, NvmeDevice, NvmeTarget, BLOCK_SIZE};
use common::test_seed;
use dlfs::source::SampleSource;
use dlfs::{
    CacheMode, CodecKind, Completions, Deployment, DlfsConfig, DlfsError, DlfsInstance,
    ReadRequest, SyntheticSource,
};
use simkit::prelude::*;

fn ramdisk(bytes: u64) -> Arc<NvmeDevice> {
    NvmeDevice::new(DeviceConfig::emulated_ramdisk(bytes, Dur::micros(10)))
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
/// devices), and the synchronous read — by id and by name — decodes to
/// the original payloads. Both compressible and incompressible
/// (verbatim-fallback) samples, sizes straddling block boundaries.
#[test]
fn lz_roundtrips_import_remount_and_all_read_paths() {
    Runtime::simulate(test_seed(90), |rt| {
        let comp = SyntheticSource::compressible(21, 300, 3000, 48);
        let devices = vec![ramdisk(64 << 20), ramdisk(64 << 20)];
        let fs = dlfs::MountBuilder::new(lz_cfg())
            .deployment(Deployment::local(1, &devices))
            .persistent()
            .mount(rt, &comp)
            .unwrap();
        drain_verified(rt, &fs, 3, comp.count(), &|id| comp.expected(id));
        drop(fs);

        // Warm remount: codec kind and per-frame lengths come back from
        // the superblock + codec table region, read-only. Cross-epoch
        // mode so the synchronous misses below publish.
        let before: Vec<_> = devices.iter().map(|d| d.stats()).collect();
        let warm = dlfs::MountBuilder::new(DlfsConfig {
            cache_mode: CacheMode::CrossEpoch,
            ..lz_cfg()
        })
        .deployment(Deployment::local(1, &devices))
        .warm()
        .remount(rt)
        .unwrap();
        for (d, b) in devices.iter().zip(&before) {
            assert_eq!(d.stats().3, b.3, "remount wrote bytes to a device");
        }
        // Synchronous single reads decode too (by id + by name), on a cold
        // cache: an epoch first would leave every run they need resident.
        let mut io = warm.io(0);
        for id in [0u32, 5, 7, 123, 299] {
            assert_eq!(io.read_by_id(rt, id).unwrap(), comp.expected(id));
        }
        assert_eq!(io.read(rt, &comp.name(9)).unwrap(), comp.expected(9));
        let m = io.metrics();
        let enc = m.counter("dlfs.codec.bytes_in");
        let raw = m.counter("dlfs.codec.bytes_out");
        assert!(enc > 0, "codec counters never recorded");
        assert!(
            enc * 2 < raw,
            "motif frames should decode to >2x their stored size ({enc} -> {raw})"
        );
        drop(io);
        drain_verified(rt, &warm, 4, comp.count(), &|id| comp.expected(id));
    });
}

/// A coded dataset's superblocks record its codec and frame size, and a
/// remount whose configuration disagrees on either is a typed config error
/// naming both values, not silent garbage. An uncoded dataset records no
/// frame size and needs none: it remounts under another `chunk_size`.
#[test]
fn remount_with_wrong_codec_or_chunk_size_is_a_config_error() {
    Runtime::simulate(test_seed(91), |rt| {
        let comp = SyntheticSource::compressible(22, 64, 2048, 32);
        let devices = vec![ramdisk(64 << 20)];
        let import = |cfg: DlfsConfig| {
            dlfs::MountBuilder::new(cfg)
                .deployment(Deployment::local(1, &devices))
                .persistent()
                .mount(rt, &comp)
                .unwrap()
        };
        let remount = |cfg: DlfsConfig| {
            dlfs::MountBuilder::new(cfg)
                .deployment(Deployment::local(1, &devices))
                .warm()
                .remount(rt)
        };
        drop(import(lz_cfg()));
        for (cfg, names) in [
            (
                DlfsConfig {
                    codec: CodecKind::Identity,
                    ..lz_cfg()
                },
                ["codec identity", "codec lz"],
            ),
            (
                DlfsConfig {
                    chunk_size: 4096,
                    ..lz_cfg()
                },
                ["chunk_size 4096 B", "8192 B lz frames"],
            ),
        ] {
            match remount(cfg).err() {
                Some(DlfsError::Config(m)) => {
                    assert!(names.iter().all(|n| m.contains(n)), "{m}")
                }
                other => panic!("expected a config error naming {names:?}, got {other:?}"),
            }
        }
        drain_verified(rt, &remount(lz_cfg()).unwrap(), 3, 64, &|id| {
            comp.expected(id)
        });
        let identity = DlfsConfig {
            codec: CodecKind::Identity,
            ..lz_cfg()
        };
        drop(import(identity.clone()));
        let other_chunks = remount(DlfsConfig {
            chunk_size: 4096,
            ..identity
        });
        drain_verified(rt, &other_chunks.unwrap(), 4, 64, &|id| comp.expected(id));
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
            .deployment(Deployment::local(1, &devices))
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
            .deployment(Deployment::local(1, &devices))
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
        // Mismatches are the extents' fault: the home's circuit stays
        // closed, so every damaged frame the epoch reads is read there,
        // caught and repaired.
        let home = fs.shared(0).redundancy.states.state(0);
        assert!(
            matches!(home, fabric::TargetState::Alive { .. }),
            "mismatches opened the circuit"
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
            .deployment(Deployment::local(1, &devices))
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

/// Device bytes need not be a frame the encoder wrote. Every single-bit
/// flip of one 8 KiB chunk's LZ frame decodes without a panic to at most
/// the raw length; a flip that derails the token stream decodes short,
/// which is how a read path without checksums tells a malformed frame.
#[test]
fn lz_decode_of_every_single_bit_flip_is_total() {
    let comp = SyntheticSource::compressible(21, 300, 3000, 256);
    let raw: Vec<u8> = (0..3).flat_map(|id| comp.expected(id)).take(8192).collect();
    let lz = CodecKind::Lz.codec();
    let enc = lz.encode(&raw);
    assert!(enc.len() < raw.len() / 4, "a coded frame: {} B", enc.len());
    let mut short = 0;
    for bit in 0..enc.len() * 8 {
        let mut bad = enc.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        let out = lz.decode(&bad, raw.len());
        assert!(out.len() <= raw.len(), "bit {bit} decoded long");
        short += (out.len() < raw.len()) as usize;
    }
    assert!(short > 0, "no flip derailed the decoder");
}

/// A malformed frame under `verify_reads: false`: the first token of node
/// 0's first stored frame, a literal run, is flipped into a back-reference
/// into nothing. The client path and the offload path fail over to the
/// replica and deliver the imported bytes — only the offload path
/// rewrites the home copy, there being no checksum to catch the damage —
/// and with one copy the epoch ends in a typed `Corrupt` naming the frame.
#[test]
fn a_frame_that_does_not_decode_fails_over_or_is_typed_corrupt() {
    for (replicas, offload) in [(1, false), (2, false), (1, true), (2, true)] {
        Runtime::simulate(test_seed(97), |rt| {
            let comp = SyntheticSource::compressible(27, 200, 2048, 40);
            let cfg = DlfsConfig {
                replicas,
                offload,
                ..lz_cfg()
            };
            let devices = vec![ramdisk(64 << 20), ramdisk(64 << 20)];
            let fs = dlfs::MountBuilder::new(cfg)
                .deployment(Deployment::local(1, &devices))
                .persistent()
                .mount(rt, &comp)
                .unwrap();
            let blk = fs.shared(0).layouts.as_ref().unwrap()[0].data_base / BLOCK_SIZE;
            // The seed whose flip of that block lands on bit 7 of its byte 0.
            let flip = (0..)
                .map(|seed| FaultInjector::new(seed).with_bit_flips(blk, 1))
                .find(|f| {
                    let mut b = [0u8; BLOCK_SIZE as usize];
                    f.corrupt_read(blk, &mut b);
                    b[0] == 0x80
                })
                .unwrap();
            devices[0].set_faults(flip);
            let mut io = fs.io(0);
            io.sequence(rt, 11, 0);
            let request = || match offload {
                true => ReadRequest::batch(16).offload(),
                false => ReadRequest::batch(16),
            };
            let case = format!("replicas={replicas} offload={offload}");
            let mut got = 0;
            let end = loop {
                match io.submit(rt, &request()).map(Completions::into_copied) {
                    Ok(batch) => {
                        for (id, data) in batch {
                            assert_eq!(data, comp.expected(id), "{case}: sample {id}");
                            got += 1;
                        }
                    }
                    Err(e) => break e,
                }
            };
            match (replicas, end) {
                (2, DlfsError::EpochExhausted) => {
                    assert_eq!(got, comp.count(), "{case}");
                    let m = io.metrics();
                    assert!(
                        m.counter("dlfs.integrity.mismatches") > 0,
                        "{case}: counted"
                    );
                    assert!(m.counter("dlfs.integrity.failovers") > 0, "{case}");
                    // A client part repairs only what a checksum caught;
                    // the offload path repairs after any turned-down copy.
                    let repairs = m.counter("dlfs.integrity.repairs");
                    assert_eq!(repairs, offload as u64, "{case}");
                }
                (1, DlfsError::Corrupt { cause, .. }) => {
                    assert_eq!(cause, dlfs::CorruptCause::Frame, "{case}")
                }
                (_, e) => panic!("{case}: {e}"),
            }
        });
    }
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
                .deployment(Deployment::local(1, &devices))
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

// ---- the packed layout (DESIGN.md §16) ------------------------------------
//
// A coded import lands, of every frame, the encoded prefix rounded up to a
// block (capped at the frame's raw length), each right where the previous
// frame's ended: every slot holding a copy of a node's data holds its
// frames as one run from the slot's start. The rest of the slot — what an
// uncoded import of the same data would fill — is a tail the import never
// writes and nothing ever reads. The run's length is `Redundancy::stored`,
// the count every walker of a data region goes by; the checks below look
// at every block on either side of it.

const BLOCK: u64 = BLOCK_SIZE;

/// Every `(device, first block, stored blocks, raw blocks)` a coded
/// instance keeps a copy of a node's data at, home and replica slots
/// alike: the slot's first block, the node's stored extents summed — the
/// run from there — and its raw data in blocks, past the run the tail.
fn slot_runs(fs: &DlfsInstance) -> Vec<(usize, u64, u64, u64)> {
    let sh = fs.shared(0);
    let (tables, red) = (sh.codec.as_ref().expect("coded instance"), &sh.redundancy);
    let nodes = red.slots.len();
    let mut out = Vec::new();
    for (home, frames) in tables.per_node.iter().enumerate() {
        for r in 0..red.replicas as usize {
            let peer = (home + r) % nodes;
            let slot = red.slots[peer].0 + r as u64 * red.slots[peer].1;
            let raw = frames.data_len.div_ceil(BLOCK);
            out.push((peer, slot / BLOCK, red.stored[home], raw));
        }
    }
    out
}

/// Everything that judges or heals a copy agrees the instance is whole:
/// deep fsck and `fsck_repair` on every node, a full scrub pass, a verified
/// epoch, and the rebuild of a killed and wiped node — which must itself
/// come out deep-fsck clean and, when the import was the devices' `first`
/// (nothing older left in its regions), hold the import's bytes before
/// `data_base`.
fn assert_whole(
    rt: &Runtime,
    fs: &DlfsInstance,
    devices: &[Arc<NvmeDevice>],
    expected: &dyn Fn(u32) -> Vec<u8>,
    first: bool,
) {
    let targets = &fs.shared(0).targets;
    let fsck_clean = |when: &str| {
        for (n, t) in targets.iter().enumerate() {
            let rep = dlfs::fsck_node(t, n as u16, true);
            let clean = matches!(rep.state, dlfs::FsckState::Clean { .. });
            assert!(clean, "{when}: node {n} is {:?}", rep.state);
        }
    };
    fsck_clean("as imported");
    for n in 0..targets.len() as u16 {
        let rep = dlfs::fsck_repair(targets, n).unwrap();
        assert_eq!(rep, dlfs::FsckRepairReport::default(), "node {n}");
    }
    let reg = simkit::telemetry::Registry::new();
    let mut io = fs.io_with_registry(0, &reg);
    assert!(io.scrub_pass() > 0, "scrub walked nothing");
    let total = io.sequence(rt, 77, 0);
    let mut got = 0;
    while let Ok(batch) = io.submit(rt, &ReadRequest::batch(32)) {
        for (id, data) in batch.into_copied() {
            assert_eq!(data, expected(id), "sample {id} corrupted");
            got += 1;
        }
    }
    assert_eq!(got, total);
    let victim = devices.len() - 1;
    let data_base = fs.layout(victim as u16).expect("persistent").data_base;
    let regions = |d: &NvmeDevice| {
        let mut bytes = vec![0u8; data_base as usize];
        d.storage().read_at(0, &mut bytes);
        bytes
    };
    let imported = regions(&devices[victim]);
    devices[victim].kill();
    devices[victim].revive();
    let blank = vec![0u8; devices[victim].storage().capacity() as usize];
    devices[victim].dma_write(0, &blank);
    assert!(io.begin_rebuild(victim as u16).unwrap() > 0);
    io.drive_rebuild();
    let m = reg.snapshot();
    for counter in [
        "integrity.mismatches",
        "integrity.repairs",
        "rebuild.blocks_failed",
    ] {
        assert_eq!(m.counter(&format!("dlfs.{counter}")), 0, "{counter}");
    }
    assert!(m.counter("dlfs.integrity.verified") > 0, "nothing verified");
    fsck_clean("after the rebuild");
    // The restore wrote the import's superblock, metadata, integrity table
    // and codec table back, byte for byte.
    if first {
        assert_eq!(regions(&devices[victim]), imported, "restored regions");
    }
}

fn replicated_lz_cfg() -> DlfsConfig {
    DlfsConfig {
        replicas: 2,
        verify_reads: true,
        offload: true,
        fail_dead_after: Some(Dur::micros(300)),
        ckpt_region_bytes: 64 * 1024,
        ..lz_cfg()
    }
}

/// A re-import over an older generation leaves that generation's bytes in
/// the tail of every slot (the old import stored white noise verbatim, the
/// new one compresses sixteen-fold) — and nobody sees them.
#[test]
fn reimport_over_an_older_generation_leaves_no_stale_tail_visible() {
    Runtime::simulate(test_seed(96), |rt| {
        let devices: Vec<_> = (0..3).map(|_| ramdisk(4 << 20)).collect();
        let import = |source: &SyntheticSource| {
            dlfs::MountBuilder::new(replicated_lz_cfg())
                .deployment(Deployment::local(1, &devices))
                .persistent()
                .mount(rt, source)
                .unwrap()
        };
        drop(import(&SyntheticSource::fixed(27, 600, 2000)));
        let comp = SyntheticSource::compressible(28, 600, 2000, 48);
        let fs = import(&comp);
        let stale = slot_runs(&fs).iter().any(|&(d, first, stored, slot)| {
            let mut tail = vec![0u8; ((slot - stored) * BLOCK) as usize];
            devices[d]
                .storage()
                .read_at((first + stored) * BLOCK, &mut tail);
            tail.iter().any(|&b| b != 0)
        });
        assert!(stale, "generation 1 should still sit in the tails");
        assert_whole(rt, &fs, &devices, &|id| comp.expected(id), false);
    });
}

/// Noise written over the tail of every slot changes nothing: no checker,
/// healer or read path ever looks past a stored run.
#[test]
fn poisoned_slot_tails_are_never_read() {
    Runtime::simulate(test_seed(97), |rt| {
        let devices: Vec<_> = (0..3).map(|_| ramdisk(4 << 20)).collect();
        let comp = SyntheticSource::compressible(29, 600, 2000, 48);
        let fs = dlfs::MountBuilder::new(replicated_lz_cfg())
            .deployment(Deployment::local(1, &devices))
            .persistent()
            .mount(rt, &comp)
            .unwrap();
        let mut rng = SplitMix64::new(test_seed(5));
        let mut poisoned = 0;
        for (d, first, stored, slot) in slot_runs(&fs) {
            let noise: Vec<u8> = (0..(slot - stored) * BLOCK)
                .map(|_| rng.next() as u8)
                .collect();
            devices[d].dma_write(first + stored, &noise);
            poisoned += slot - stored;
        }
        assert!(poisoned > 0, "a compressible import must leave tails");
        let mut io = fs.io(0);
        let total = io.sequence(rt, 11, 0);
        let mut got = 0;
        while let Ok(batch) = io.submit(rt, &ReadRequest::batch(32).offload()) {
            for (id, data) in batch.into_copied() {
                assert_eq!(data, comp.expected(id), "offloaded sample {id} corrupted");
                got += 1;
            }
        }
        assert_eq!(got, total);
        for id in [0u32, 17, 333, 599] {
            assert_eq!(io.read_by_id(rt, id).unwrap(), comp.expected(id));
        }
        drop(io);
        assert_whole(rt, &fs, &devices, &|id| comp.expected(id), true);
    });
}

/// A rebuild on an instance remounted without `verify_reads` has no table
/// in memory and rehashes the rebuilt stored run from the device, so the
/// integrity table it restores is the one the import wrote — with junk in
/// every tail of the sources and of the replacement device alike.
#[test]
fn rebuild_rehash_restores_the_imported_table_over_poisoned_tails() {
    Runtime::simulate(test_seed(100), |rt| {
        let devices: Vec<_> = (0..3).map(|_| ramdisk(4 << 20)).collect();
        let comp = SyntheticSource::compressible(30, 600, 2000, 48);
        let fs = dlfs::MountBuilder::new(replicated_lz_cfg())
            .deployment(Deployment::local(1, &devices))
            .persistent()
            .mount(rt, &comp)
            .unwrap();
        for (d, first, stored, slot) in slot_runs(&fs) {
            devices[d].dma_write(
                first + stored,
                &vec![0xEE; ((slot - stored) * BLOCK) as usize],
            );
        }
        drop(fs);
        let warm = dlfs::MountBuilder::new(DlfsConfig {
            verify_reads: false,
            ..replicated_lz_cfg()
        })
        .deployment(Deployment::local(1, &devices))
        .warm()
        .remount(rt)
        .unwrap();
        let sb = warm.layout(1).unwrap().clone();
        let table = |d: &NvmeDevice| {
            let mut bytes = vec![0u8; sb.integrity_bytes as usize];
            d.storage().read_at(sb.integrity_base, &mut bytes);
            bytes
        };
        let imported = table(&devices[1]);
        assert!(imported.iter().any(|&b| b != 0), "the import wrote a table");
        devices[1].kill();
        devices[1].revive();
        // The replacement is a recycled device, not a blank one.
        devices[1].dma_write(0, &vec![0x5A; 4 << 20]);
        let mut io = warm.io(0);
        assert!(io.begin_rebuild(1).unwrap() > 0);
        io.drive_rebuild();
        assert_eq!(io.metrics().counter("dlfs.rebuild.blocks_failed"), 0);
        assert_eq!(table(&devices[1]), imported, "restored integrity table");
        let rep = dlfs::fsck_node(&warm.shared(0).targets[1], 1, true);
        assert!(
            matches!(rep.state, dlfs::FsckState::Clean { .. }),
            "{:?}",
            rep.state
        );
    });
}

/// White-noise samples of seeded sizes, two in three of them folded into a
/// repeating 40-byte motif (compressible) by a seeded draw.
struct MixedSource {
    noise: SyntheticSource,
    noisy: Vec<bool>,
}

impl MixedSource {
    fn new(seed: u64, count: usize, max: u64) -> MixedSource {
        let mut rng = SplitMix64::new(seed);
        let sizes: Vec<u64> = (0..count).map(|_| 300 + rng.below(max - 300)).collect();
        MixedSource {
            noise: SyntheticSource::new(seed, sizes),
            noisy: (0..count).map(|_| rng.below(3) == 0).collect(),
        }
    }

    fn expected(&self, id: u32) -> Vec<u8> {
        let mut buf = vec![0u8; self.size(id) as usize];
        self.fill(id, &mut buf);
        buf
    }
}

impl SampleSource for MixedSource {
    fn count(&self) -> usize {
        self.noise.count()
    }
    fn name(&self, id: u32) -> String {
        self.noise.name(id)
    }
    fn size(&self, id: u32) -> u64 {
        self.noise.size(id)
    }
    fn fill(&self, id: u32, buf: &mut [u8]) {
        self.noise.fill(id, buf);
        if !self.noisy[id as usize] {
            for i in 40..buf.len() {
                buf[i] = buf[i - 40];
            }
        }
    }
}

/// What a coded import writes into the data region of each device is
/// exactly the stored runs it hosts: in every slot that holds a copy of a
/// node's data, the node's stored extents as one contiguous run from the
/// slot's start, frame after frame with no block between two frames, the
/// short last frame included — and it writes no block twice; the
/// `Identity` twin of every cell writes its packed data whole. Devices
/// start out filled with a marker, so a block is written iff it no longer
/// holds it.
#[test]
fn coded_import_packs_each_slot_into_one_stored_run() {
    const MARK: u8 = 0xA5;
    const DEV_BYTES: u64 = 2 << 20;
    let mut short_last_frames = 0;
    for (case, chunk_kib) in [4u64, 8, 64].into_iter().enumerate() {
        let source = MixedSource::new(test_seed(98) + case as u64, 160, 3000);
        for (replicas, persist, codec) in [
            (1, false, CodecKind::Lz),
            (2, false, CodecKind::Lz),
            (3, false, CodecKind::Lz),
            (1, true, CodecKind::Lz),
            (2, true, CodecKind::Lz),
            (3, true, CodecKind::Lz),
            (2, false, CodecKind::Identity),
            (3, true, CodecKind::Identity),
        ] {
            let cell =
                format!("{chunk_kib} KiB chunks, replicas {replicas}, persist {persist}, {codec}");
            Runtime::simulate(test_seed(99), |rt| {
                let devices: Vec<_> = (0..3).map(|_| ramdisk(DEV_BYTES)).collect();
                for d in &devices {
                    d.storage().write_at(0, &vec![MARK; DEV_BYTES as usize]);
                }
                let cfg = DlfsConfig {
                    chunk_size: chunk_kib * 1024,
                    replicas,
                    verify_reads: persist,
                    codec,
                    ckpt_region_bytes: 64 * 1024,
                    ..DlfsConfig::default()
                };
                let builder =
                    dlfs::MountBuilder::new(cfg).deployment(Deployment::local(1, &devices));
                let builder = if persist {
                    builder.persistent()
                } else {
                    builder
                };
                let fs = builder.mount(rt, &source).unwrap();
                let red = &fs.shared(0).redundancy;
                // Blocks each device should hold data in.
                let mut want = vec![std::collections::BTreeSet::new(); devices.len()];
                if codec == CodecKind::Lz {
                    for (d, first, stored, _) in slot_runs(&fs) {
                        want[d].extend(first..first + stored);
                    }
                    let tables = fs.shared(0).codec.as_ref().unwrap();
                    let short = |f: &&dlfs::NodeFrames| {
                        !(f.data_len % (chunk_kib * 1024)).is_multiple_of(BLOCK)
                    };
                    short_last_frames += tables.per_node.iter().filter(short).count();
                } else {
                    for home in 0..devices.len() {
                        let end = |&id: &u32| fs.dir.entry(id).offset() + fs.dir.entry(id).len();
                        let ids = fs.dir.samples_on(home as u16);
                        let bytes = ids.iter().map(end).max().unwrap() - red.slots[home].0;
                        for r in 0..replicas {
                            let peer = (home + r) % devices.len();
                            let first = (red.slots[peer].0 + r as u64 * red.slots[peer].1) / BLOCK;
                            want[peer].extend(first..first + bytes.div_ceil(BLOCK));
                        }
                    }
                }
                for (n, d) in devices.iter().enumerate() {
                    let mut image = vec![0u8; DEV_BYTES as usize];
                    d.storage().read_at(0, &mut image);
                    let written = |b: &u64| {
                        let at = (*b * BLOCK) as usize;
                        image[at..at + BLOCK as usize].iter().any(|&x| x != MARK)
                    };
                    let (base, slot) = red.slots[n];
                    let data = base / BLOCK..(base + replicas as u64 * slot).min(DEV_BYTES) / BLOCK;
                    let got: std::collections::BTreeSet<u64> = data.filter(written).collect();
                    assert_eq!(got, want[n], "{cell}: data blocks written on device {n}");
                    // Every block once, but for the superblock's two phases.
                    let distinct = (0..DEV_BYTES / BLOCK).filter(written).count() as u64;
                    let twice = persist as u64;
                    assert_eq!(
                        d.stats().3,
                        (distinct + twice) * BLOCK,
                        "{cell}: device {n}"
                    );
                }
                drain_verified(rt, &fs, 13, source.count(), &|id| source.expected(id));
            });
        }
    }
    assert!(
        short_last_frames > 0,
        "no cell ended a node on a ragged frame"
    );
}

/// A persistent coded import of `source` onto three fresh devices.
fn coded_import(rt: &Runtime, source: &SyntheticSource) -> (Vec<Arc<NvmeDevice>>, DlfsInstance) {
    let devices: Vec<_> = (0..3).map(|_| ramdisk(4 << 20)).collect();
    let fs = dlfs::MountBuilder::new(replicated_lz_cfg())
        .deployment(Deployment::local(1, &devices))
        .persistent()
        .mount(rt, source)
        .unwrap();
    (devices, fs)
}

/// What a warm remount of `devices` and a deep fsck of node 0 say.
fn remount_and_fsck(rt: &Runtime, devices: &[Arc<NvmeDevice>]) -> (DlfsError, dlfs::FsckState) {
    let err = dlfs::MountBuilder::new(replicated_lz_cfg())
        .deployment(Deployment::local(1, devices))
        .warm()
        .remount(rt)
        .expect_err("the remount is refused");
    let target: Arc<dyn NvmeTarget> = devices[0].clone();
    (err, dlfs::fsck_node(&target, 0, true).state)
}

/// A version-1 coded image — frames at their raw chunk offsets, no frame
/// size recorded — is refused by remount and fsck alike with a typed
/// error naming version 1, never read as if it were packed.
#[test]
fn a_version_1_coded_image_is_refused() {
    Runtime::simulate(test_seed(101), |rt| {
        let (devices, fs) = coded_import(rt, &SyntheticSource::compressible(31, 300, 2000, 48));
        drop(fs);
        for d in &devices {
            // The version-1 superblock: checksum right after the
            // integrity-table words, where a coded layout keeps `chunk_size`.
            let mut sb = vec![0u8; BLOCK as usize];
            d.storage().read_at(0, &mut sb);
            sb[8..12].copy_from_slice(&1u32.to_le_bytes());
            sb[160..176].fill(0);
            let crc = simkit::rng::fnv1a(&sb[..160]);
            sb[160..168].copy_from_slice(&crc.to_le_bytes());
            d.dma_write(0, &sb);
        }
        let (err, fsck) = remount_and_fsck(rt, &devices);
        let v1 = dlfs::LayoutError::Version { node: 0, found: 1 };
        assert!(err.to_string().contains("version 1"), "{err}");
        assert!(
            matches!(err, DlfsError::Layout(ref e) if *e == v1),
            "{err:?}"
        );
        assert_eq!(fsck, dlfs::FsckState::Unformatted(v1));
    });
}

/// A version-2 coded image — frames rounded to whole blocks, the layout
/// before frames were packed to the byte — is refused by remount and fsck
/// alike with a typed error naming version 2: there is no compat path.
#[test]
fn a_version_2_coded_image_is_refused() {
    Runtime::simulate(test_seed(104), |rt| {
        let (devices, fs) = coded_import(rt, &SyntheticSource::compressible(34, 300, 2000, 48));
        drop(fs);
        for d in &devices {
            // Versions 2 and 3 share the superblock: only the number moves.
            let mut sb = vec![0u8; BLOCK as usize];
            d.storage().read_at(0, &mut sb);
            sb[8..12].copy_from_slice(&2u32.to_le_bytes());
            let crc = simkit::rng::fnv1a(&sb[..168]);
            sb[168..176].copy_from_slice(&crc.to_le_bytes());
            d.dma_write(0, &sb);
        }
        let (err, fsck) = remount_and_fsck(rt, &devices);
        let v2 = dlfs::LayoutError::Version { node: 0, found: 2 };
        assert!(err.to_string().contains("version 2"), "{err}");
        assert!(
            matches!(err, DlfsError::Layout(ref e) if *e == v2),
            "{err:?}"
        );
        assert_eq!(fsck, dlfs::FsckState::Unformatted(v2));
    });
}

/// The superblock's fields as the hostile sweep edits them: its 64-bit
/// words, then its 32-bit ones.
type Word = fn(&mut dlfs::Superblock) -> &mut u64;
const SB_WORDS: [(&str, Word); 17] = [
    ("generation", |s| &mut s.generation),
    ("node_samples", |s| &mut s.node_samples),
    ("total_samples", |s| &mut s.total_samples),
    ("meta_base", |s| &mut s.meta_base),
    ("meta_bytes", |s| &mut s.meta_bytes),
    ("meta_checksum", |s| &mut s.meta_checksum),
    ("data_base", |s| &mut s.data_base),
    ("data_bytes", |s| &mut s.data_bytes),
    ("data_capacity", |s| &mut s.data_capacity),
    ("ckpt_base", |s| &mut s.ckpt_base),
    ("ckpt_capacity", |s| &mut s.ckpt_capacity),
    ("dataset_stamp", |s| &mut s.dataset_stamp),
    ("replica_slot_bytes", |s| &mut s.replica_slot_bytes),
    ("integrity_base", |s| &mut s.integrity_base),
    ("integrity_bytes", |s| &mut s.integrity_bytes),
    ("codec_table_bytes", |s| &mut s.codec_table_bytes),
    ("chunk_size", |s| &mut s.chunk_size),
];
type Half = fn(&mut dlfs::Superblock) -> &mut u32;
const SB_HALVES: [(&str, Half); 2] = [
    ("replicas", |s| &mut s.replicas),
    ("storage_nodes", |s| &mut s.storage_nodes),
];

/// A remount's refusals that compare a device with what no fsck of it
/// alone can see — the other devices of the import, the deployment, the
/// config, and the fit rule's check that each copy fits the peer slot
/// hosting it — and the only fields whose edit may draw one.
const CROSS_DEVICE: [&str; 5] = [
    "belongs to a different import",
    "storage nodes, deployment has",
    "per-node sample counts sum to",
    "verify_reads needs an integrity table",
    "too small: need",
];
const CROSS_DEVICE_FIELDS: [&str; 7] = [
    "total_samples",
    "dataset_stamp",
    "replicas",
    "storage_nodes",
    "integrity_bytes",
    "data_bytes",
    "replica_slot_bytes",
];

/// Hostile layout bytes: a seeded sweep (SplitMix64) of N = 480 mutations
/// of node 0's superblock and codec table on a version-3 image — single-bit
/// flips, byte sets, truncation (the region zeroed from a random cut on),
/// and node 1's table transplanted with its checksum (and its length in a
/// resealed superblock). Half the table flips and sets are resealed under
/// a valid table checksum, so the lengths themselves are what the loader
/// judges. Whatever the bytes: remount returns `Ok` or a typed error,
/// shallow and deep `fsck_node` return a report, a device shallow fsck
/// calls `Clean` is one remount accepts, and nothing panics. Then N more
/// trials edit one field of node 0's decoded superblock (every 64- and
/// 32-bit field: ±1, ±a block, doubled, halved, zeroed or random) and
/// re-encode it under a valid checksum, under the same oracles, except
/// that a remount may refuse a device fsck calls `Clean` for what no fsck
/// of one device can see: the other devices, the deployment and the
/// config ([`CROSS_DEVICE`]), and only when the field edited is one of
/// those they compare. About 1 s in a debug build.
#[test]
fn hostile_layout_bytes_are_typed_errors_never_panics() {
    const N: u64 = 480;
    Runtime::simulate(test_seed(105), |rt| {
        let (devices, fs) = coded_import(rt, &SyntheticSource::compressible(35, 300, 2000, 48));
        let (sb0, sb1) = (fs.layout(0).unwrap().clone(), fs.layout(1).unwrap().clone());
        drop(fs);
        let read = |d: usize, at: u64, len: u64| {
            let mut b = vec![0u8; len as usize];
            devices[d].storage().read_at(at, &mut b);
            b
        };
        // Everything of node 0's below its data, restored before each trial.
        let pristine = read(0, 0, sb0.data_base);
        let table = sb0.codec_base()..sb0.codec_base() + sb0.codec_table_bytes;
        let donor = read(1, sb1.codec_base(), sb1.codec_table_bytes);
        assert!(table.start + donor.len() as u64 <= sb0.data_base);
        let target: Arc<dyn NvmeTarget> = devices[0].clone();
        let mut rng = simkit::rng::SplitMix64::new(test_seed(105));
        let mut outcomes = [0u64; 2];
        for trial in 0..N {
            let mut image = pristine.clone();
            let region = match rng.below(2) {
                0 => 0..BLOCK as usize,
                _ => table.start as usize..table.end as usize,
            };
            let bytes = &mut image[region.clone()];
            let at = rng.below(bytes.len() as u64) as usize;
            match trial % 4 {
                0 => bytes[at] ^= 1 << rng.below(8),
                1 => bytes[at] = rng.next() as u8,
                2 => bytes[at..].fill(0),
                _ => {
                    let mut sb = sb0.clone();
                    sb.codec_table_bytes = donor.len() as u64;
                    image[..BLOCK as usize].copy_from_slice(&sb.encode());
                    image[table.start as usize..][..donor.len()].copy_from_slice(&donor);
                }
            }
            if trial % 4 < 2 && region.start > 0 && rng.below(2) == 0 {
                let body = &image[region.start..region.end - 8];
                let crc = simkit::rng::fnv1a(body);
                image[region.end - 8..region.end].copy_from_slice(&crc.to_le_bytes());
            }
            devices[0].dma_write(0, &image);
            let remounted = dlfs::MountBuilder::new(replicated_lz_cfg())
                .deployment(Deployment::local(1, &devices))
                .warm()
                .remount(rt);
            let shallow = dlfs::fsck_node(&target, 0, false).state;
            let deep = dlfs::fsck_node(&target, 0, true).state;
            if matches!(shallow, dlfs::FsckState::Clean { .. }) {
                let err = remounted.as_ref().err();
                assert!(err.is_none(), "trial {trial}: fsck clean, remount {err:?}");
            }
            if matches!(deep, dlfs::FsckState::Clean { .. }) {
                assert!(
                    matches!(shallow, dlfs::FsckState::Clean { .. }),
                    "trial {trial}"
                );
            }
            outcomes[remounted.is_ok() as usize] += 1;
        }
        // Both outcomes happen: the sweep is not all checksum failures.
        assert!(outcomes.iter().all(|&n| n > 0), "{outcomes:?}");
        // One field of node 0's decoded superblock, edited and re-encoded
        // under a valid checksum.
        let mut refused = [0u64; 2];
        for trial in 0..N {
            let mut sb = sb0.clone();
            let field = rng.below((SB_WORDS.len() + SB_HALVES.len()) as u64) as usize;
            let mut edit = |old: u64| match rng.below(8) {
                0 => old.saturating_add(1),
                1 => old.saturating_sub(1),
                2 => old.saturating_add(BLOCK),
                3 => old.saturating_sub(BLOCK),
                4 => old.saturating_mul(2),
                5 => old / 2,
                6 => 0,
                _ => rng.below(1 << 24),
            };
            let name = match SB_WORDS.get(field) {
                Some(&(name, word)) => {
                    let w = word(&mut sb);
                    *w = edit(*w);
                    name
                }
                None => {
                    let (name, half) = SB_HALVES[field - SB_WORDS.len()];
                    let h = half(&mut sb);
                    *h = edit(*h as u64) as u32;
                    name
                }
            };
            let mut image = pristine.clone();
            image[..BLOCK as usize].copy_from_slice(&sb.encode());
            devices[0].dma_write(0, &image);
            let remounted = dlfs::MountBuilder::new(replicated_lz_cfg())
                .deployment(Deployment::local(1, &devices))
                .warm()
                .remount(rt);
            let shallow = dlfs::fsck_node(&target, 0, false).state;
            let deep = dlfs::fsck_node(&target, 0, true).state;
            let clean = |s: &dlfs::FsckState| matches!(s, dlfs::FsckState::Clean { .. });
            if let (true, Err(e)) = (clean(&shallow), &remounted) {
                // What one device cannot know: the other devices and the
                // config it is remounted with.
                let across = CROSS_DEVICE.iter().any(|m| e.to_string().contains(m));
                assert!(
                    across && CROSS_DEVICE_FIELDS.contains(&name),
                    "trial {trial}: {name} {e:?}"
                );
            }
            assert!(!clean(&deep) || clean(&shallow), "trial {trial}: {name}");
            refused[remounted.is_err() as usize] += 1;
        }
        assert!(refused.iter().all(|&n| n > 0), "{refused:?}");
    });
}

/// A codec table that covers fewer frames than the data region holds —
/// one short by a frame under a valid checksum, or too short to be a
/// table at all — is a typed layout error for remount and fsck alike,
/// before any frame is looked up in it.
#[test]
fn a_truncated_codec_table_is_a_typed_layout_error() {
    Runtime::simulate(test_seed(102), |rt| {
        let source = SyntheticSource::compressible(32, 300, 2000, 48);
        for (cut, what) in [(4u64, "codec table holds"), (0, "is not a table")] {
            let (devices, fs) = coded_import(rt, &source);
            let mut sb = fs.layout(0).unwrap().clone();
            let lens = fs.shared(0).codec.as_ref().unwrap().per_node[0]
                .lens
                .clone();
            drop(fs);
            sb.codec_table_bytes = if cut == 0 {
                6
            } else {
                sb.codec_table_bytes - cut
            };
            // One frame fewer, sealed with the table's own checksum.
            let mut table: Vec<u8> = lens[..lens.len() - 1]
                .iter()
                .flat_map(|l| l.to_le_bytes())
                .collect();
            let crc = simkit::rng::fnv1a(&table);
            table.extend(crc.to_le_bytes());
            devices[0].dma_write(sb.codec_base() / BLOCK, &table);
            devices[0].dma_write(0, &sb.encode());
            let (err, fsck) = remount_and_fsck(rt, &devices);
            let typed = matches!(
                &err,
                DlfsError::Layout(dlfs::LayoutError::Inconsistent(m)) if m.contains(what)
            );
            assert!(typed, "{what}: {err:?}");
            let corrupt =
                matches!(&fsck, dlfs::FsckState::Corrupt { what: m, .. } if m.contains(what));
            assert!(corrupt, "{what}: {fsck:?}");
        }
    });
}

/// A metadata record whose offset lies outside the data region — under a
/// valid region checksum, so only the frame lookup could notice — is a
/// typed layout error for remount and deep fsck alike, not a panic.
#[test]
fn a_record_outside_the_data_region_is_a_typed_layout_error() {
    Runtime::simulate(test_seed(103), |rt| {
        let source = SyntheticSource::compressible(33, 300, 2000, 48);
        for past in [false, true] {
            let (devices, fs) = coded_import(rt, &source);
            let mut sb = fs.layout(0).unwrap().clone();
            drop(fs);
            let mut meta = vec![0u8; sb.meta_bytes as usize];
            devices[0].storage().read_at(sb.meta_base, &mut meta);
            // Move the first record's sample below the region or past it.
            let word = |at: usize| u64::from_le_bytes(meta[at..at + 8].try_into().unwrap());
            let e = dlfs::SampleEntry::from_raw(word(4), word(12));
            let offset = if past {
                sb.data_base + sb.data_bytes
            } else {
                0
            };
            let (unit1, unit2) =
                dlfs::SampleEntry::new(e.nid(), e.key(), offset, e.len(), false).raw();
            meta[4..12].copy_from_slice(&unit1.to_le_bytes());
            meta[12..20].copy_from_slice(&unit2.to_le_bytes());
            sb.meta_checksum = simkit::rng::fnv1a(&meta);
            devices[0].dma_write(sb.meta_base / BLOCK, &meta);
            devices[0].dma_write(0, &sb.encode());
            let what = "lies outside the data region";
            let (err, fsck) = remount_and_fsck(rt, &devices);
            let typed = matches!(
                &err,
                DlfsError::Layout(dlfs::LayoutError::Inconsistent(m)) if m.contains(what)
            );
            assert!(typed, "past {past}: {err:?}");
            let corrupt =
                matches!(&fsck, dlfs::FsckState::Corrupt { what: m, .. } if m.contains(what));
            assert!(corrupt, "past {past}: {fsck:?}");
        }
    });
}
