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
        drain_verified(rt, &warm, 4, comp.count(), &|id| comp.expected(id));
        // Synchronous single reads decode too (by id + by name).
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
            .deployment(Deployment::local(1, &devices))
            .persistent()
            .mount(rt, &comp)
            .unwrap();
        drop(fs);
        let err = dlfs::MountBuilder::new(DlfsConfig {
            codec: CodecKind::Identity,
            ..lz_cfg()
        })
        .deployment(Deployment::local(1, &devices))
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

// ---- the stored extent and its hole (DESIGN.md §16) -----------------------
//
// A coded import lands, of every frame, the encoded prefix rounded up to a
// block (capped at the frame's raw length) and nothing else: the rest of
// the frame's chunk slot is a hole that nothing writes, ships, mirrors or
// reads. The oracle below restates that rule on its own, from the public
// codec tables.

const BLOCK: u64 = BLOCK_SIZE;

/// Blocks of its slot frame `f` of a node occupies, from the tables.
fn extent_blocks(frames: &dlfs::NodeFrames, chunk: u64, f: usize) -> u64 {
    let raw = frames.raw_len(chunk, f) as u64;
    (frames.lens[f] as u64)
        .next_multiple_of(BLOCK)
        .min(raw)
        .div_ceil(BLOCK)
}

/// Every `(device, first block, stored blocks, slot blocks)` a coded
/// instance keeps a frame copy at: home and replica slots alike.
fn frame_copies(fs: &DlfsInstance) -> Vec<(usize, u64, u64, u64)> {
    let sh = fs.shared(0);
    let (tables, red) = (sh.codec.as_ref().expect("coded instance"), &sh.redundancy);
    let (chunk, nodes) = (sh.cfg.chunk_size, red.slots.len());
    let mut out = Vec::new();
    for (home, frames) in tables.per_node.iter().enumerate() {
        for r in 0..red.replicas as usize {
            let peer = (home + r) % nodes;
            let slot = red.slots[peer].0 + r as u64 * red.slots[peer].1;
            for f in 0..frames.lens.len() {
                let first = (slot + f as u64 * chunk) / BLOCK;
                let slot_blocks = (frames.raw_len(chunk, f) as u64).div_ceil(BLOCK);
                out.push((peer, first, extent_blocks(frames, chunk, f), slot_blocks));
            }
        }
    }
    out
}

/// Everything that judges or heals a copy agrees the instance is whole:
/// deep fsck and `fsck_repair` on every node, a full scrub pass, a verified
/// epoch, and the rebuild of a killed and wiped node — which must itself
/// come out deep-fsck clean.
fn assert_whole(
    rt: &Runtime,
    fs: &DlfsInstance,
    devices: &[Arc<NvmeDevice>],
    expected: &dyn Fn(u32) -> Vec<u8>,
) {
    let (targets, chunk) = (&fs.shared(0).targets, fs.shared(0).cfg.chunk_size);
    let fsck_clean = |when: &str| {
        for (n, t) in targets.iter().enumerate() {
            let rep = dlfs::fsck_node(t, n as u16, true, chunk);
            let clean = matches!(rep.state, dlfs::FsckState::Clean { .. });
            assert!(clean, "{when}: node {n} is {:?}", rep.state);
        }
    };
    fsck_clean("as imported");
    for n in 0..targets.len() as u16 {
        let rep = dlfs::fsck_repair(targets, n, chunk).unwrap();
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
/// the new frames' holes (the old import stored white noise verbatim, the
/// new one compresses sixteen-fold) — and nobody sees them.
#[test]
fn reimport_over_an_older_generation_leaves_no_stale_hole_visible() {
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
        let stale = frame_copies(&fs).iter().any(|&(d, first, stored, slot)| {
            let mut hole = vec![0u8; ((slot - stored) * BLOCK) as usize];
            devices[d]
                .storage()
                .read_at((first + stored) * BLOCK, &mut hole);
            hole.iter().any(|&b| b != 0)
        });
        assert!(stale, "generation 1 should still sit in the holes");
        assert_whole(rt, &fs, &devices, &|id| comp.expected(id));
    });
}

/// Noise written over every hole block of every copy changes nothing: no
/// checker, healer or read path ever looks there.
#[test]
fn poisoned_holes_are_never_read() {
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
        for (d, first, stored, slot) in frame_copies(&fs) {
            let noise: Vec<u8> = (0..(slot - stored) * BLOCK)
                .map(|_| rng.next() as u8)
                .collect();
            devices[d].dma_write(first + stored, &noise);
            poisoned += slot - stored;
        }
        assert!(poisoned > 0, "a compressible import must leave holes");
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
        assert_whole(rt, &fs, &devices, &|id| comp.expected(id));
    });
}

/// A rebuild on an instance remounted without `verify_reads` has no table
/// in memory and rehashes the rebuilt data region from the device: holes
/// hash as the zeros they stand for, so the integrity table it restores is
/// the one the import wrote — with junk in every hole of the sources and
/// of the replacement device alike.
#[test]
fn rebuild_rehash_restores_the_imported_table_over_poisoned_holes() {
    Runtime::simulate(test_seed(100), |rt| {
        let devices: Vec<_> = (0..3).map(|_| ramdisk(4 << 20)).collect();
        let comp = SyntheticSource::compressible(30, 600, 2000, 48);
        let fs = dlfs::MountBuilder::new(replicated_lz_cfg())
            .deployment(Deployment::local(1, &devices))
            .persistent()
            .mount(rt, &comp)
            .unwrap();
        for (d, first, stored, slot) in frame_copies(&fs) {
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
        let rep = dlfs::fsck_node(&warm.shared(0).targets[1], 1, true, lz_cfg().chunk_size);
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
/// exactly the stored extents it hosts — home and replica slots, every
/// extent from its frame's start, the short last frame included — and it
/// writes no block twice; the `Identity` twin of every cell writes its
/// packed data whole. Devices start out filled with a marker, so a block
/// is written iff it no longer holds it.
#[test]
fn coded_import_writes_exactly_its_stored_extents() {
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
                    for (d, first, stored, _) in frame_copies(&fs) {
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
