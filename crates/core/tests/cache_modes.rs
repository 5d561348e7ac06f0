//! Cross-epoch sample-cache behavior: warm epochs served entirely from
//! resident chunks, LRU eviction under pool pressure, the plan-aware
//! prefetcher, and the bugfix regressions (a key republished while an old
//! pin drains, sync-path transient cache exhaustion, a second handle
//! stealing the cache's instruments).

mod common;

use std::fmt::Write;
use std::sync::Arc;

use blocksim::{DeviceConfig, NvmeDevice};
use dlfs::source::SampleSource;
use dlfs::tenant::QosConfig;
use dlfs::{
    CacheMode, CodecKind, Completions, Deployment, DlfsConfig, DlfsError, DlfsInstance, DlfsIo,
    ReadRequest, SyntheticSource, ZeroCopySample,
};
use simkit::prelude::*;
use simkit::rng::fnv1a;
use simkit::telemetry::Registry;

/// Two storage nodes reached directly (no fabric) by `readers` readers.
/// Device commands are observable through the engine registry as
/// `blocksim.dev{n}.commands`.
fn direct_deployment(
    rt: &Runtime,
    readers: usize,
    source: &dyn SampleSource,
    cfg: DlfsConfig,
) -> DlfsInstance {
    let devices: Vec<Arc<NvmeDevice>> = (0..2)
        .map(|_| NvmeDevice::new(DeviceConfig::emulated_ramdisk(64 << 20, Dur::micros(500))))
        .collect();
    dlfs::MountBuilder::new(cfg)
        .deployment(Deployment::local(readers, &devices))
        .mount(rt, source)
        .unwrap()
}

/// Drain reader `io`'s whole epoch, verifying every payload byte.
fn drain_epoch_verified(rt: &Runtime, io: &mut dlfs::DlfsIo, source: &SyntheticSource) -> usize {
    let mut delivered = 0usize;
    loop {
        match io
            .submit(rt, &ReadRequest::batch(32))
            .map(Completions::into_copied)
        {
            Ok(batch) => {
                for (id, data) in batch {
                    assert_eq!(data, source.expected(id), "sample {id} corrupted");
                    delivered += 1;
                }
            }
            Err(DlfsError::EpochExhausted) => break,
            Err(e) => panic!("epoch failed: {e}"),
        }
    }
    delivered
}

fn device_commands(reg: &Registry) -> u64 {
    let snap = reg.snapshot();
    (0..2)
        .map(|n| snap.counter(&format!("blocksim.dev{n}.commands")))
        .sum()
}

/// The headline acceptance: with `CrossEpoch` and a pool that holds the
/// working set, epoch 2+ of a 512 B disaggregated run performs **zero**
/// device reads and runs at least 2x faster than the cold epoch.
#[test]
fn warm_epoch_does_zero_device_reads() {
    Runtime::simulate(101, |rt| {
        // 1024 x 512 B = 512 KiB working set = 64 chunks of 8 KiB; the
        // 96-chunk pool holds it all.
        let source = SyntheticSource::fixed(5, 1024, 512);
        let cfg = DlfsConfig {
            chunk_size: 8 * 1024,
            pool_chunks: 96,
            cache_mode: CacheMode::CrossEpoch,
            ..DlfsConfig::default()
        };
        let fs = direct_deployment(rt, 1, &source, cfg);
        let reg = Registry::new();
        let mut io = fs.io_with_registry(0, &reg);

        let cold_start = rt.now();
        let total = io.sequence(rt, 42, 0);
        assert_eq!(drain_epoch_verified(rt, &mut io, &source), total);
        let cold = rt.now().since(cold_start);
        let cmds_after_cold = device_commands(&reg);
        assert!(cmds_after_cold > 0, "cold epoch must hit the devices");

        for epoch in 1..3u64 {
            let warm_start = rt.now();
            let total = io.sequence(rt, 42 + epoch, epoch);
            assert_eq!(drain_epoch_verified(rt, &mut io, &source), total);
            let warm = rt.now().since(warm_start);
            assert_eq!(
                device_commands(&reg),
                cmds_after_cold,
                "warm epoch {epoch} must perform zero device reads"
            );
            assert!(
                warm.as_nanos() * 2 <= cold.as_nanos(),
                "warm epoch {epoch} must be >= 2x faster: cold {cold:?}, warm {warm:?}"
            );
        }

        let snap = reg.snapshot();
        assert!(snap.counter("dlfs.cache.hits") > 0);
        assert_eq!(snap.counter("dlfs.cache.evictions"), 0);
        assert_eq!(snap.gauge("dlfs.cache.resident_chunks"), 64);
    });
}

/// Same run with the zero-knob default config: every epoch refetches, the
/// cross-epoch counters never register, device traffic grows per epoch.
#[test]
fn epoch_scoped_default_refetches_every_epoch() {
    Runtime::simulate(102, |rt| {
        let source = SyntheticSource::fixed(5, 1024, 512);
        let cfg = DlfsConfig {
            chunk_size: 8 * 1024,
            pool_chunks: 96,
            ..DlfsConfig::default()
        };
        let fs = direct_deployment(rt, 1, &source, cfg);
        let reg = Registry::new();
        let mut io = fs.io_with_registry(0, &reg);

        let total = io.sequence(rt, 42, 0);
        assert_eq!(drain_epoch_verified(rt, &mut io, &source), total);
        let cmds_cold = device_commands(&reg);
        let total = io.sequence(rt, 43, 1);
        assert_eq!(drain_epoch_verified(rt, &mut io, &source), total);
        assert_eq!(
            device_commands(&reg),
            cmds_cold * 2,
            "epoch-scoped mode refetches the full working set"
        );
        // The cross-epoch metrics stay out of the registry entirely so
        // default-mode telemetry reports are byte-identical to before.
        assert_eq!(reg.snapshot().counter("dlfs.cache.hits"), 0);
        assert!(!reg.snapshot().render().contains("dlfs.cache."));
        // Everything went back to the pool at the epoch boundary.
        let cache = &fs.shared(0).cache;
        assert_eq!(cache.free_chunks(), cache.total_chunks());
    });
}

/// A pool smaller than the working set still completes every epoch
/// byte-correct; the LRU tail absorbs the pressure and evictions show up
/// in the cache counters.
#[test]
fn cross_epoch_evicts_lru_under_pool_pressure() {
    Runtime::simulate(103, |rt| {
        // 64-chunk working set vs a 24-chunk pool.
        let source = SyntheticSource::fixed(5, 1024, 512);
        let cfg = DlfsConfig {
            chunk_size: 8 * 1024,
            pool_chunks: 24,
            window_chunks: 8,
            cache_mode: CacheMode::CrossEpoch,
            ..DlfsConfig::default()
        };
        let fs = direct_deployment(rt, 1, &source, cfg);
        let reg = Registry::new();
        let mut io = fs.io_with_registry(0, &reg);
        for epoch in 0..2u64 {
            let total = io.sequence(rt, 7 + epoch, epoch);
            assert_eq!(drain_epoch_verified(rt, &mut io, &source), total);
        }
        let cache = &fs.shared(0).cache;
        assert!(cache.evictions() > 0, "a thrashing pool must evict");
        let snap = reg.snapshot();
        assert!(snap.counter("dlfs.cache.evictions") > 0);
        assert!(snap.gauge("dlfs.cache.resident_chunks") <= 24);
        // Nothing is held, so every chunk is free or resident.
        let resident = snap.gauge("dlfs.cache.resident_chunks") as usize;
        assert_eq!(cache.free_chunks() + resident, 24);
    });
}

/// Same seed, same timeline — whatever the process's hasher: a `sequence`
/// over a half-consumed epoch releases the ranges it still has open in
/// item order, so the LRU stamps they get, and with them which of them the
/// next epoch evicts before it comes back for them, do not depend on the
/// iteration order of a `HashMap`. The pool is too small for the dataset
/// (24 chunks against 64), several items are open at the abort, and the
/// whole simulation repeats eight times in one process.
#[test]
fn a_mid_epoch_sequence_releases_open_ranges_in_item_order() {
    let run = || {
        let (outcome, end) = Runtime::simulate(131, |rt| {
            let source = SyntheticSource::fixed(5, 1024, 512);
            let cfg = DlfsConfig {
                chunk_size: 8 * 1024,
                pool_chunks: 24,
                cache_mode: CacheMode::CrossEpoch,
                ..DlfsConfig::default()
            };
            let fs = direct_deployment(rt, 1, &source, cfg);
            let reg = Registry::new();
            let mut io = fs.io_with_registry(0, &reg);
            io.sequence(rt, 42, 0);
            for _ in 0..3 {
                io.submit(rt, &ReadRequest::batch(32)).unwrap();
            }
            let total = io.sequence(rt, 43, 1);
            assert_eq!(drain_epoch_verified(rt, &mut io, &source), total);
            let snap = reg.snapshot();
            (
                snap.counter("dlfs.cache.hits"),
                snap.counter("dlfs.cache.evictions"),
            )
        });
        (end.nanos(), outcome)
    };
    let first = run();
    let (_, (hits, evictions)) = first;
    assert!(hits > 0, "the aborted epoch's ranges must be worth keeping");
    assert!(evictions > 0, "the pool must be small enough to evict");
    for repeat in 1..8 {
        assert_eq!(run(), first, "repeat {repeat} took another timeline");
    }
}

/// With two readers an epoch leaves each reader holding only its half of
/// the dataset; the prefetcher warms the *next* epoch's missing head
/// during the current epoch's tail, and those fetches register as hits
/// when the next epoch starts.
#[test]
fn prefetcher_warms_next_epoch_head() {
    Runtime::simulate(104, |rt| {
        let source = SyntheticSource::fixed(9, 512, 512);
        let cfg = DlfsConfig {
            chunk_size: 8 * 1024,
            pool_chunks: 96,
            cache_mode: CacheMode::CrossEpoch,
            prefetch_window: 8,
            ..DlfsConfig::default()
        };
        let fs = direct_deployment(rt, 2, &source, cfg);
        let reg = Registry::new();
        let mut io = fs.io_with_registry(0, &reg);

        // Same seed across epochs: the prefetcher reads epoch e+1's plan.
        let mut delivered = 0usize;
        for epoch in 0..3u64 {
            io.sequence(rt, 42, epoch);
            delivered += drain_epoch_verified(rt, &mut io, &source);
        }
        assert!(delivered > 0);
        let snap = reg.snapshot();
        assert!(
            snap.counter("dlfs.cache.prefetch_issued") > 0,
            "epoch tails must post next-epoch fetches"
        );
        assert!(
            snap.counter("dlfs.cache.prefetch_hits") > 0,
            "prefetched chunks must be consumed by the next epoch"
        );
        // Prefetch never leaks: sequencing once more drains the last
        // epoch's in-flight prefetches, after which every pool chunk is
        // either free or accounted resident.
        io.sequence(rt, 42, 3);
        let cache = &fs.shared(0).cache;
        let resident = reg.snapshot().gauge("dlfs.cache.resident_chunks") as usize;
        assert_eq!(cache.free_chunks() + resident, 96);
    });
}

/// Satellite regression: a range retired while the application still holds
/// a zero-copy sample of it (a *zombie*: no longer resident, chunks not yet
/// home) must tolerate the next epoch refetching and republishing the same
/// key. Once this panicked with "published twice" inside the engine.
#[test]
fn zombie_range_republished_across_epochs() {
    Runtime::simulate(105, |rt| {
        // 64 x 2048 B = 128 KiB: one 256 KiB chunk item holds the epoch.
        let source = SyntheticSource::fixed(3, 64, 2048);
        let dev = NvmeDevice::new(DeviceConfig::optane(64 << 20));
        let fs = dlfs::MountBuilder::new(DlfsConfig::default())
            .local(dev)
            .mount(rt, &source)
            .unwrap();
        let mut io = fs.io(0);

        // Epoch 0: take one sample zero-copy and keep it alive.
        io.sequence(rt, 11, 0);
        let held = io
            .submit(rt, &ReadRequest::batch(1).zero_copy())
            .unwrap()
            .into_zero_copy()
            .remove(0);
        let held_expected = source.expected(held.id);
        // Drain the rest: the chunk item closes and is retired while the
        // held sample still pins it: not resident, its one chunk not home.
        drain_epoch_verified(rt, &mut io, &source);
        let cache = fs.shared(0).cache.clone();
        assert_eq!(cache.resident_count(), 0);
        assert_eq!(
            cache.free_chunks(),
            cache.total_chunks() - 1,
            "the held sample must keep its chunk out of the pool"
        );

        // Epoch 1 refetches and republishes the same (nid, offset) key
        // (once: panic "published twice") under a chunk of its own.
        io.sequence(rt, 12, 1);
        drain_epoch_verified(rt, &mut io, &source);

        // The old range's bytes were never recycled under the live pin.
        assert_eq!(held.to_vec(), held_expected, "torn zero-copy read");
        assert_eq!(cache.free_chunks(), cache.total_chunks() - 1);
        drop(held);
        assert_eq!(cache.resident_count(), 0);
        assert_eq!(cache.free_chunks(), cache.total_chunks());
    });
}

/// Satellite regression: the synchronous read path must *wait out* a
/// momentarily full pool with bounded backoff instead of failing fast.
/// Pre-fix this returned `CacheExhausted` immediately.
#[test]
fn sync_read_waits_out_transient_cache_pressure() {
    Runtime::simulate(106, |rt| {
        let source = SyntheticSource::fixed(9, 64, 2048);
        let dev = NvmeDevice::new(DeviceConfig::optane(64 << 20));
        let fs = dlfs::MountBuilder::new(DlfsConfig::default())
            .local(dev)
            .mount(rt, &source)
            .unwrap();
        let cache = fs.shared(0).cache.clone();

        // Hog the entire pool, then give it back 50 us into the read.
        let chunk = cache.chunk_size() as u64;
        let mut hogged = Vec::new();
        while let Some(bufs) = cache.alloc_for(chunk).0 {
            hogged.extend(bufs);
        }
        assert_eq!(cache.free_chunks(), 0);
        let releaser = cache.clone();
        rt.spawn("hog-release", move |rt| {
            rt.sleep(Dur::micros(50));
            for b in hogged {
                releaser.free_raw(b);
            }
        });

        let mut io = fs.io(0);
        let start = rt.now();
        let data = io
            .read_by_id(rt, 3)
            .expect("transient pool pressure must be waited out, not failed");
        assert_eq!(data, source.expected(3));
        assert!(
            rt.now().since(start) >= Dur::micros(50),
            "the read must actually have waited for the pool"
        );
    });
}

/// ...but *permanent* exhaustion still surfaces as `CacheExhausted` after
/// the bounded retry budget.
#[test]
fn sync_read_gives_up_within_the_retry_budget() {
    Runtime::simulate(107, |rt| {
        let source = SyntheticSource::fixed(9, 64, 2048);
        let dev = NvmeDevice::new(DeviceConfig::optane(64 << 20));
        let fs = dlfs::MountBuilder::new(DlfsConfig::default())
            .local(dev)
            .mount(rt, &source)
            .unwrap();
        let cache = fs.shared(0).cache.clone();
        let chunk = cache.chunk_size() as u64;
        let mut hogged = Vec::new();
        while let Some(bufs) = cache.alloc_for(chunk).0 {
            hogged.extend(bufs);
        }

        // Bounded by the retry policy's total backoff.
        let mut io = fs.io(0);
        let start = rt.now();
        assert_eq!(io.read_by_id(rt, 3), Err(DlfsError::CacheExhausted));
        let waited = rt.now().since(start);
        let budget = fs.shared(0).cfg.retry.total_backoff();
        assert!(!waited.is_zero(), "must back off before giving up");
        assert!(
            waited <= budget,
            "wait {waited:?} exceeds budget {budget:?}"
        );
        drop(hogged);
    });
}

/// The synchronous path also probes cross-epoch residency: a sample read
/// twice touches the device once.
#[test]
fn sync_reads_hit_the_cross_epoch_cache() {
    Runtime::simulate(108, |rt| {
        // One storage node so samples 16 and 17 (offsets 8192 and 8704)
        // provably share the 8 KiB chunk at 8192.
        let source = SyntheticSource::fixed(9, 256, 512);
        let cfg = DlfsConfig {
            chunk_size: 8 * 1024,
            cache_mode: CacheMode::CrossEpoch,
            ..DlfsConfig::default()
        };
        let dev = NvmeDevice::new(DeviceConfig::emulated_ramdisk(64 << 20, Dur::micros(10)));
        let fs = dlfs::MountBuilder::new(cfg)
            .local(dev)
            .mount(rt, &source)
            .unwrap();
        let reg = Registry::new();
        let mut io = fs.io_with_registry(0, &reg);

        let a = io.read_by_id(rt, 17).unwrap();
        let cmds = device_commands(&reg);
        assert!(cmds > 0);
        let b = io.read_by_id(rt, 17).unwrap();
        // A different sample in the same chunk is also resident already.
        let c = io.read_by_id(rt, 16).unwrap();
        assert_eq!(a, source.expected(17));
        assert_eq!(b, a);
        assert_eq!(c, source.expected(16));
        assert_eq!(
            device_commands(&reg),
            cmds,
            "warm sync reads skip the device"
        );
        assert!(reg.snapshot().counter("dlfs.cache.hits") >= 2);
    });
}

/// One fetch geometry on every path (`plan::fetch_extent`): what a batched
/// cross-epoch epoch leaves resident, the synchronous read pins — and what
/// synchronous reads park, a batched epoch acquires. Varied, unaligned
/// sizes so chunks have partial heads/tails and edge samples exist; the
/// pool holds one chunk per fetch range.
#[test]
fn batched_and_sync_paths_share_resident_extents() {
    let sizes: Vec<u64> = (0..256u64).map(|i| 1500 + (i * 389) % 2700).collect();
    let cfg = DlfsConfig {
        chunk_size: 8 * 1024,
        pool_chunks: 512,
        cache_mode: CacheMode::CrossEpoch,
        ..DlfsConfig::default()
    };
    // Batched epoch first, then every sample through the sync read.
    Runtime::simulate(109, |rt| {
        let source = SyntheticSource::new(11, sizes.clone());
        let fs = direct_deployment(rt, 1, &source, cfg.clone());
        let reg = Registry::new();
        let mut io = fs.io_with_registry(0, &reg);
        let total = io.sequence(rt, 3, 0);
        assert_eq!(drain_epoch_verified(rt, &mut io, &source), total);
        let cmds = device_commands(&reg);
        for id in 0..total as u32 {
            let got = io.read_by_id(rt, id).unwrap();
            assert_eq!(got, source.expected(id), "sample {id} corrupted");
        }
        assert_eq!(
            device_commands(&reg),
            cmds,
            "sync reads after a batched epoch must pin the resident extents"
        );
    });
    // Sync-warmed mount, then a batched epoch.
    Runtime::simulate(110, |rt| {
        let source = SyntheticSource::new(11, sizes.clone());
        let fs = direct_deployment(rt, 1, &source, cfg.clone());
        let reg = Registry::new();
        let mut io = fs.io_with_registry(0, &reg);
        for id in 0..sizes.len() as u32 {
            let got = io.read_by_id(rt, id).unwrap();
            assert_eq!(got, source.expected(id), "sample {id} corrupted");
        }
        let cmds = device_commands(&reg);
        let total = io.sequence(rt, 3, 0);
        assert_eq!(drain_epoch_verified(rt, &mut io, &source), total);
        assert_eq!(
            device_commands(&reg),
            cmds,
            "a batched epoch after sync warm-up must acquire the parked extents"
        );
        assert_eq!(reg.snapshot().counter("dlfs.cache.evictions"), 0);
    });
}

/// Drain reader `io`'s whole epoch like [`drain_epoch_verified`], returning
/// the ids it delivered.
fn drain_ids(rt: &Runtime, io: &mut DlfsIo, source: &SyntheticSource) -> Vec<u32> {
    let mut ids = Vec::new();
    loop {
        match io.submit(rt, &ReadRequest::batch(32)) {
            Ok(batch) => {
                for (id, data) in batch.into_copied() {
                    assert_eq!(data, source.expected(id), "sample {id} corrupted");
                    ids.push(id);
                }
            }
            Err(DlfsError::EpochExhausted) => return ids,
            Err(e) => panic!("epoch failed: {e}"),
        }
    }
}

/// The same under a codec, where the fetch unit is a run of frames: a
/// batched epoch, a prefetch and a synchronous read fetch the same run
/// under the same key, and every delivered byte is the source's.
/// Cross-epoch with the prefetcher, two readers so that epoch 1 deals
/// reader 0 runs it did not read in epoch 0: the prefetcher warms them in
/// epoch 0's tail and epoch 1 finds them, and a `read_by_id` of every
/// sample reader 0 delivered touches no device. Epoch-scoped, where a
/// synchronous read keeps nothing: it fetches the one frame holding its
/// sample — one command over that frame's covering blocks — not the run
/// the batched epoch read. And a pool too small for runs of more than one frame (K = 1) still
/// completes its epoch.
#[test]
fn coded_paths_share_one_run_geometry() {
    let source = SyntheticSource::compressible(12, 160, 2600, 48);
    let lz = |cache_mode, pool_chunks, window_chunks| DlfsConfig {
        chunk_size: 8 * 1024,
        codec: CodecKind::Lz,
        cache_mode,
        pool_chunks,
        window_chunks,
        prefetch_window: if cache_mode == CacheMode::CrossEpoch {
            16
        } else {
            0
        },
        ..DlfsConfig::default()
    };
    let device_bytes = |reg: &Registry| {
        let snap = reg.snapshot();
        (0..2)
            .map(|n| snap.counter(&format!("blocksim.dev{n}.bytes")))
            .sum::<u64>()
    };
    Runtime::simulate(112, |rt| {
        let fs = direct_deployment(rt, 2, &source, lz(CacheMode::CrossEpoch, 96, 12));
        let reg = Registry::new();
        let mut io = fs.io_with_registry(0, &reg);
        io.sequence(rt, 5, 0);
        let mut ids = drain_ids(rt, &mut io, &source);
        assert!(reg.snapshot().counter("dlfs.cache.prefetch_issued") > 0);
        io.sequence(rt, 5, 1);
        ids.extend(drain_ids(rt, &mut io, &source));
        // A hit is a prefetched run found under the key epoch 1 asked for.
        assert!(reg.snapshot().counter("dlfs.cache.prefetch_hits") > 0);
        let cmds = device_commands(&reg);
        for id in ids {
            assert_eq!(io.read_by_id(rt, id).unwrap(), source.expected(id));
        }
        assert_eq!(device_commands(&reg), cmds, "sync reads pin the same runs");
    });
    Runtime::simulate(113, |rt| {
        let fs = direct_deployment(rt, 1, &source, lz(CacheMode::EpochScoped, 96, 12));
        let reg = Registry::new();
        let mut io = fs.io_with_registry(0, &reg);
        io.sequence(rt, 6, 0);
        drain_ids(rt, &mut io, &source);
        let epoch_cmds = device_commands(&reg);
        let sh = io.shared().clone();
        let (chunk, tables) = (sh.cfg.chunk_size, sh.codec.as_deref().unwrap());
        let mut frames = 0;
        for nid in 0..2u16 {
            let nf = &tables.per_node[nid as usize];
            let mut last = None;
            for &id in sh.dir.samples_on(nid) {
                let f = nf.frame_of(chunk, sh.dir.entry(id).offset());
                if last.replace(f) == Some(f) {
                    continue;
                }
                let stored = nf.stored(f);
                let covering = stored.end.div_ceil(512) * 512 - stored.start / 512 * 512;
                let before = (device_commands(&reg), device_bytes(&reg));
                assert_eq!(io.read_by_id(rt, id).unwrap(), source.expected(id));
                let read = (
                    device_commands(&reg) - before.0,
                    device_bytes(&reg) - before.1,
                );
                assert_eq!(read, (1, covering), "sample {id} reads its frame {f} alone");
                frames += 1;
            }
        }
        assert!(epoch_cmds < frames, "the epoch read runs of frames");
    });
    // K = max(1, 23 / (2 x 12)) = 1: every frame is a run of its own.
    Runtime::simulate(114, |rt| {
        let fs = direct_deployment(rt, 1, &source, lz(CacheMode::EpochScoped, 23, 12));
        let mut io = fs.io(0);
        let total = io.sequence(rt, 7, 0);
        assert_eq!(drain_ids(rt, &mut io, &source).len(), total);
    });
}

/// Regression: the cache's evictions and residency are reported by the
/// handle whose call caused them, into that handle's registry. They used
/// to go through instruments attached to the shared cache, which every
/// new handle overwrote — a second handle on the reader silently took
/// `dlfs.cache.evictions` away from the first one's registry and froze its
/// `resident_chunks` gauge (here the registry kept 8 of 22 evictions).
#[test]
fn a_second_handle_does_not_steal_the_cache_instruments() {
    Runtime::simulate(111, |rt| {
        // 512 x 2 KiB = 16 chunks of 64 KiB against an 8-chunk pool.
        let source = SyntheticSource::fixed(5, 512, 2048);
        let cfg = DlfsConfig {
            chunk_size: 64 * 1024,
            pool_chunks: 8,
            window_chunks: 2,
            cache_mode: CacheMode::CrossEpoch,
            ..DlfsConfig::default()
        };
        let fs = direct_deployment(rt, 1, &source, cfg);
        let cache = &fs.shared(0).cache;
        let reg = Registry::new();
        let mut a = fs.io_with_registry(0, &reg);
        let total = a.sequence(rt, 7, 0);
        assert_eq!(drain_epoch_verified(rt, &mut a, &source), total);
        let _b = fs.io(0);
        let total = a.sequence(rt, 8, 1);
        assert_eq!(drain_epoch_verified(rt, &mut a, &source), total);
        assert!(cache.evictions() > 0, "a thrashing pool must evict");
        let snap = reg.snapshot();
        assert_eq!(snap.counter("dlfs.cache.evictions"), cache.evictions());
        assert_eq!(
            snap.gauge("dlfs.cache.resident_chunks") as usize,
            cache.resident_chunks()
        );
    });
}

/// A handle dropped mid-epoch returns its open window to the compute
/// node's shared pool. It used to leak it — the default pool went 96 → 72
/// → 48 → 24 → 0 free chunks and the fifth handle's first batch failed
/// with `CacheExhausted`. After twelve drop cycles every chunk is free or
/// evictable again, and a thirteenth handle runs a whole epoch
/// byte-correct, in both cache modes.
#[test]
fn dropped_handle_returns_its_window_to_the_pool() {
    for mode in [CacheMode::EpochScoped, CacheMode::CrossEpoch] {
        Runtime::simulate(109, |rt| {
            let source = SyntheticSource::fixed(9, 4000, 4096);
            let cfg = DlfsConfig {
                cache_mode: mode,
                ..DlfsConfig::default()
            };
            let fs = direct_deployment(rt, 1, &source, cfg);
            for cycle in 0..12 {
                let mut io = fs.io(0);
                io.sequence(rt, 5, cycle);
                let batch = io.submit(rt, &ReadRequest::batch(32));
                assert_eq!(batch.map(|b| b.len()), Ok(32), "{mode:?} cycle {cycle}");
            }
            let cache = &fs.shared(0).cache;
            if mode == CacheMode::EpochScoped {
                assert_eq!(cache.free_chunks(), cache.total_chunks());
            }
            // Free or evictable: the whole pool can be claimed at once.
            let pool_bytes = (cache.total_chunks() * cache.chunk_size()) as u64;
            let all = cache.alloc_for(pool_bytes).0.expect("no chunk is stuck");
            all.into_iter().for_each(|b| cache.free_raw(b));
            let mut io = fs.io(0);
            io.sequence(rt, 5, 12);
            assert_eq!(drain_epoch_verified(rt, &mut io, &source), 4000);
        });
    }
}

/// A range published while its engine part waited for its verdict is not
/// published twice. `CrossEpoch` + `Lz` + `verify_reads`: the first batch
/// — one zero-copy sample, after a poll pass that harvested the whole
/// window at once — returns with parts harvested and still with the copy
/// pool; a `read_by_id` of every sample not resident yet then misses on
/// theirs, fetches the extent again and parks it. When the verdicts come
/// back the engine finds the range resident, serves the item from it and
/// gives its own chunk back: every sample is delivered once,
/// source-equal, and no chunk is lost.
#[test]
fn a_range_published_while_its_part_waited_is_served_once() {
    Runtime::simulate(113, |rt| {
        let source = SyntheticSource::compressible(17, 192, 1000, 48);
        let cfg = DlfsConfig {
            chunk_size: CHUNK,
            pool_chunks: 64,
            window_chunks: 4,
            cache_mode: CacheMode::CrossEpoch,
            codec: CodecKind::Lz,
            verify_reads: true,
            ..DlfsConfig::default()
        };
        let fs = direct_deployment(rt, 1, &source, cfg);
        let mut io = fs.io(0);
        let total = io.sequence(rt, 42, 0);
        let mut seen = vec![0u32; total];
        let mut take = |id: u32, data: Vec<u8>| {
            assert_eq!(data, source.expected(id), "sample {id} corrupted");
            seen[id as usize] += 1;
        };
        // A millisecond of compute between polls: the whole window has
        // completed by the second pass. Zero-copy: the batch is back the
        // moment its sample is drawn, the pass's later verdicts still out.
        let first = ReadRequest::batch(1)
            .zero_copy()
            .inject_compute(Dur::millis(1));
        let first = io.submit(rt, &first).unwrap();
        first
            .into_zero_copy()
            .into_iter()
            .for_each(|s| take(s.id, s.to_vec()));
        let checked = |io: &DlfsIo| io.metrics().histogram("dlfs.io.stage.check_ns").count;
        let (harvested, settled) = (io.metrics().counter("dlfs.io.completions"), checked(&io));
        assert!(harvested > settled, "no part is waiting for its verdict");
        for id in (0..total as u32).filter(|&id| !fs.dir.is_valid(id)) {
            assert_eq!(io.read_by_id(rt, id).unwrap(), source.expected(id));
        }
        while let Ok(got) = io.submit(rt, &ReadRequest::batch(24)) {
            got.into_copied()
                .into_iter()
                .for_each(|(id, data)| take(id, data));
        }
        assert!(seen.iter().all(|&n| n == 1), "not exactly once: {seen:?}");
        drop(io);
        // Free or evictable: the whole pool can be claimed at once.
        let cache = &fs.shared(0).cache;
        let pool_bytes = (cache.total_chunks() * cache.chunk_size()) as u64;
        let all = cache.alloc_for(pool_bytes).0.expect("no chunk is stuck");
        assert_eq!(all.len(), cache.total_chunks());
    });
}

// ------------------------------------------------ residency golden, part B --
//
// Part B of `golden/residency_trace.txt` (part A, the bare cache under a
// seeded op stream, is in `properties.rs`): the engine, the synchronous
// reads and the prefetcher over the sample cache in both cache modes, both
// codecs and all deliveries, one line per step with the virtual time, the
// delivered bytes, the pool occupancy and every cache counter. It pins when
// chunks return to the pool and which ranges an eviction takes; never
// regenerate it to make a change to `cache.rs` / `io.rs` pass.

const CHUNK: u64 = 8 * 1024;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Deliver {
    Copied,
    ZeroCopy,
    Alternating,
}

/// One golden cell: a mount, the one registry its handles record into, and
/// the report so far.
struct Cell<'a> {
    rt: &'a Runtime,
    fs: DlfsInstance,
    source: SyntheticSource,
    reg: Registry,
    deliver: Deliver,
    batches: usize,
    out: String,
}

impl<'a> Cell<'a> {
    /// 192 compressible 1000-byte samples (chunk-crossing edge samples
    /// included) on two direct devices behind `readers` readers, 8 KiB
    /// chunks, a `pool`-chunk cache; `CrossEpoch` cells prefetch.
    fn mount(
        rt: &'a Runtime,
        (mode, codec, deliver): (CacheMode, CodecKind, Deliver),
        readers: usize,
        pool: usize,
        qos: Option<QosConfig>,
    ) -> Cell<'a> {
        let source = SyntheticSource::compressible(17, 192, 1000, 48);
        let cfg = DlfsConfig {
            chunk_size: CHUNK,
            pool_chunks: pool,
            window_chunks: 4,
            cache_mode: mode,
            prefetch_window: if mode == CacheMode::CrossEpoch { 8 } else { 0 },
            codec,
            qos,
            ..DlfsConfig::default()
        };
        Cell {
            rt,
            fs: direct_deployment(rt, readers, &source, cfg),
            source,
            reg: Registry::new(),
            deliver,
            batches: 0,
            out: String::new(),
        }
    }

    fn io(&self) -> DlfsIo {
        self.fs.io_with_registry(0, &self.reg)
    }

    /// One report line: the step, the virtual time, what it delivered, the
    /// pool and the residency map, then `dlfs.io.cache.{hits,misses,pins}`
    /// and `dlfs.cache.{hits,misses,evictions,prefetch_issued,
    /// prefetch_hits,resident_chunks}` (all zero when unregistered).
    fn line(&mut self, what: &str, hash: u64) {
        let (m, cache) = (self.reg.snapshot(), &self.fs.shared(0).cache);
        let c = |name: &str| m.counter(name);
        writeln!(
            self.out,
            "{what} t={} hash={hash:016x} free={} res={} io={}/{}/{} ce={}/{} ev={} pf={}/{} chunks={}",
            self.rt.now().nanos(),
            cache.free_chunks(),
            cache.resident_count(),
            c("dlfs.io.cache.hits"),
            c("dlfs.io.cache.misses"),
            c("dlfs.io.cache.pins"),
            c("dlfs.cache.hits"),
            c("dlfs.cache.misses"),
            c("dlfs.cache.evictions"),
            c("dlfs.cache.prefetch_issued"),
            c("dlfs.cache.prefetch_hits"),
            m.gauge("dlfs.cache.resident_chunks"),
        )
        .unwrap();
    }

    /// Fold one verified payload into a delivery-order-sensitive hash.
    fn fold(&self, hash: u64, id: u32, data: &[u8]) -> u64 {
        assert_eq!(data, self.source.expected(id), "sample {id} corrupted");
        (hash ^ id as u64)
            .wrapping_mul(0x100000001b3)
            .wrapping_add(fnv1a(data))
    }

    /// One batch of up to `n` samples in the cell's delivery — zero-copy
    /// when the samples are to be kept in `hold` — and its report line.
    /// False once the epoch is exhausted.
    fn batch(&mut self, io: &mut DlfsIo, n: usize, hold: Option<&mut Vec<ZeroCopySample>>) -> bool {
        let zero_copy = hold.is_some()
            || match self.deliver {
                Deliver::Copied => false,
                Deliver::ZeroCopy => true,
                Deliver::Alternating => self.batches % 2 == 1,
            };
        self.batches += 1;
        let req = ReadRequest::batch(n);
        let req = if zero_copy { req.zero_copy() } else { req };
        let mut hash = 0u64;
        let what = match io.submit(self.rt, &req) {
            Ok(got) if zero_copy => {
                let got = got.into_zero_copy();
                for s in &got {
                    hash = self.fold(hash, s.id, &s.to_vec());
                }
                let what = format!("zc-batch n={}", got.len());
                if let Some(hold) = hold {
                    hold.extend(got);
                }
                what
            }
            Ok(got) => {
                let got = got.into_copied();
                for (id, data) in &got {
                    hash = self.fold(hash, *id, data);
                }
                format!("batch n={}", got.len())
            }
            Err(DlfsError::EpochExhausted) => return false,
            Err(DlfsError::CacheExhausted) => "batch cache-exhausted".to_string(),
            Err(e) => panic!("batch failed: {e}"),
        };
        self.line(&what, hash);
        true
    }

    fn drain(&mut self, io: &mut DlfsIo) {
        while self.batch(io, 64, None) {}
    }

    fn sequence(&mut self, io: &mut DlfsIo, epoch: u64) {
        let total = io.sequence(self.rt, 42, epoch);
        self.line(&format!("sequence {epoch} total={total}"), 0);
    }

    /// `read_by_id` of sample `id`.
    fn sync_read(&mut self, io: &mut DlfsIo, kind: &str, id: u32) {
        let data = io.read_by_id(self.rt, id).unwrap();
        let hash = self.fold(0, id, &data);
        self.line(&format!("read_by_id {kind} {id}"), hash);
    }

    /// The first sample the predicate holds for (by id).
    fn find(&self, what: impl Fn(u32, dlfs::SampleEntry) -> bool) -> Option<u32> {
        (0..self.fs.dir.len() as u32).find(|&id| what(id, self.fs.dir.entry(id)))
    }
}

fn crosses_a_chunk(e: dlfs::SampleEntry) -> bool {
    e.offset() / CHUNK != (e.offset() + e.len() - 1) / CHUNK
}

type Grid = (CacheMode, CodecKind, Deliver);
type Scenario = fn(&Runtime, Grid) -> String;

/// Three batched epochs on reader 0 of two (every epoch deals it another
/// half, so the prefetcher has cold ranges to warm), on a pool smaller
/// than the dataset.
fn three_epochs(rt: &Runtime, grid: Grid) -> String {
    let mut c = Cell::mount(rt, grid, 2, 32, None);
    let mut io = c.io();
    for epoch in 0..3 {
        c.sequence(&mut io, epoch);
        c.drain(&mut io);
    }
    c.out
}

/// Batches interleaved with synchronous reads of a resident, a cold and an
/// edge sample.
fn batches_and_sync_reads(rt: &Runtime, grid: Grid) -> String {
    let mut c = Cell::mount(rt, grid, 1, 32, None);
    let mut io = c.io();
    c.sequence(&mut io, 0);
    for _round in 0..2 {
        c.batch(&mut io, 24, None);
        let dir = c.fs.dir.clone();
        let resident = c.find(|id, _| dir.is_valid(id));
        let cold = c.find(|id, e| !dir.is_valid(id) && !crosses_a_chunk(e));
        let edge = c.find(|id, e| !dir.is_valid(id) && crosses_a_chunk(e));
        for (kind, id) in [("resident", resident), ("cold", cold), ("edge", edge)] {
            // (Coded frames never split a sample: no edge samples there.)
            if let Some(id) = id {
                c.sync_read(&mut io, kind, id);
            }
        }
    }
    c.drain(&mut io);
    c.out
}

/// One zero-copy sample held across `sequence` while the next epoch
/// fetches its key again.
fn held_across_sequence(rt: &Runtime, grid: Grid) -> String {
    let mut c = Cell::mount(rt, grid, 1, 32, None);
    let mut io = c.io();
    c.sequence(&mut io, 0);
    let mut held = Vec::new();
    c.batch(&mut io, 1, Some(&mut held));
    let want = c.fold(0, held[0].id, &c.source.expected(held[0].id));
    c.drain(&mut io);
    c.sequence(&mut io, 1);
    c.drain(&mut io);
    let hash = c.fold(0, held[0].id, &held[0].to_vec());
    assert_eq!(hash, want, "the held sample was torn");
    c.line("held intact", hash);
    drop(held);
    c.line("held dropped", 0);
    c.out
}

/// Zero-copy batches held on a pool smaller than the epoch until the pump
/// starves, then let go.
fn held_batches_starve_the_pump(rt: &Runtime, grid: Grid) -> String {
    let mut c = Cell::mount(rt, grid, 1, 8, None);
    let mut io = c.io();
    c.sequence(&mut io, 0);
    let mut held = Vec::new();
    for _ in 0..4 {
        c.batch(&mut io, 24, Some(&mut held));
    }
    c.line(&format!("holding {}", held.len()), 0);
    drop(held);
    c.line("let go", 0);
    c.drain(&mut io);
    c.sequence(&mut io, 1);
    c.drain(&mut io);
    c.out
}

/// A handle dropped mid-epoch, a zero-copy sample of its outliving it; a
/// second handle then runs two epochs on the same cache.
fn handle_dropped_mid_epoch(rt: &Runtime, grid: Grid) -> String {
    let mut c = Cell::mount(rt, grid, 1, 32, None);
    let mut io = c.io();
    c.sequence(&mut io, 0);
    let mut held = Vec::new();
    c.batch(&mut io, 1, Some(&mut held));
    c.batch(&mut io, 40, None);
    drop(io);
    c.line("handle dropped", 0);
    drop(held);
    c.line("sample dropped", 0);
    let mut io = c.io();
    for epoch in 1..3 {
        c.sequence(&mut io, epoch);
        c.drain(&mut io);
    }
    c.out
}

/// Two tenants' handles taking turns on one pool and one registry.
fn two_tenants_one_pool(rt: &Runtime, grid: Grid) -> String {
    let mut c = Cell::mount(rt, grid, 1, 32, Some(QosConfig::equal(2, 2)));
    let mut ios = [0u16, 1].map(|t| c.fs.io_tenant_with_registry(0, t, &c.reg));
    for epoch in 0..2 {
        for io in &mut ios {
            c.sequence(io, epoch);
        }
        let mut live = [true; 2];
        while live.contains(&true) {
            for (t, io) in ios.iter_mut().enumerate() {
                live[t] = live[t] && c.batch(io, 64, None);
            }
        }
    }
    c.out
}

#[test]
fn residency_trace_matches_golden() {
    let scenarios: [(&str, Scenario); 6] = [
        ("three epochs", three_epochs),
        ("batches and sync reads", batches_and_sync_reads),
        ("held across sequence", held_across_sequence),
        ("held batches starve the pump", held_batches_starve_the_pump),
        ("handle dropped mid-epoch", handle_dropped_mid_epoch),
        ("two tenants, one pool", two_tenants_one_pool),
    ];
    let mut text = String::new();
    for mode in [CacheMode::EpochScoped, CacheMode::CrossEpoch] {
        for codec in [CodecKind::Identity, CodecKind::Lz] {
            for deliver in [Deliver::Copied, Deliver::ZeroCopy, Deliver::Alternating] {
                for (name, scenario) in scenarios {
                    writeln!(text, "== {mode:?} {codec:?} {deliver:?}: {name}").unwrap();
                    let (report, end) =
                        Runtime::simulate(18, |rt| scenario(rt, (mode, codec, deliver)));
                    writeln!(text, "{report}end t={}", end.nanos()).unwrap();
                }
            }
        }
    }
    common::check_golden_part("residency_trace.txt", "B", &text);
}
