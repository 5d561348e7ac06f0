//! Randomized property tests for DLFS core data structures: the AVL
//! directory, packed entries, the batching planner's coverage invariants,
//! and the sample cache's pin/retire/evict lifecycle. Cases come from
//! seeded [`SplitMix64`] streams so failures replay exactly.

mod common;

use dlfs::avl::AvlTree;
use std::sync::Arc;

use common::test_seed;
use dlfs::cache::{CachedRange, RangeKey};
use dlfs::plan::{build_epoch_plan, windowed_delivery, FetchItem};
use dlfs::{BatchMode, CacheMode, DirectoryBuilder, SampleCache, SampleEntry};
use simkit::rng::SplitMix64;

const CASES: u64 = 64;
/// Seed of the cache op stream; residency part A keeps it fixed.
const CACHE_SEED: u64 = 0xCAC4E;

#[test]
fn entry_roundtrips() {
    for case in 0..256 {
        let mut g = SplitMix64::derive(test_seed(0xE017), case);
        let nid = g.below(1 << 16) as u16;
        let key = g.below(1 << 48);
        let offset = g.below(1 << 40);
        let len = g.range(1, 1 << 23);
        let valid = g.below(2) == 1;
        let e = SampleEntry::new(nid, key, offset, len, valid);
        assert_eq!(e.nid(), nid);
        assert_eq!(e.key(), key);
        assert_eq!(e.offset(), offset);
        assert_eq!(e.len(), len);
        assert_eq!(e.valid(), valid);
        let (u1, u2) = e.raw();
        assert_eq!(SampleEntry::from_raw(u1, u2), e);
    }
}

#[test]
fn avl_holds_what_was_inserted() {
    for case in 0..CASES {
        let mut g = SplitMix64::derive(test_seed(0xA71), case);
        let n = g.range(1, 400) as usize;
        let keys: Vec<u64> = (0..n).map(|_| g.below(1 << 48)).collect();
        let mut tree = AvlTree::new();
        let mut inserted = std::collections::HashSet::new();
        for &k in &keys {
            let _ = tree.insert(k, k * 2 + 1);
            inserted.insert(k);
        }
        assert_eq!(tree.len(), inserted.len());
        tree.validate().unwrap();
        for &k in &inserted {
            assert_eq!(tree.get(k), Some(&(k * 2 + 1)));
        }
        // Keys not inserted aren't found.
        for probe in [0u64, 1, (1 << 48) - 1, 12345] {
            if !inserted.contains(&probe) {
                assert_eq!(tree.get(probe), None);
            }
        }
        // AVL height bound.
        let bound = (1.45 * (tree.len().max(2) as f64).log2() + 2.0) as u32;
        assert!(
            tree.height() <= bound,
            "height {} for {} keys",
            tree.height(),
            tree.len()
        );
    }
}

#[test]
fn avl_inorder_is_sorted() {
    for case in 0..CASES {
        let mut g = SplitMix64::derive(test_seed(0xA72), case);
        let n = g.range(1, 300) as usize;
        let keys: Vec<u64> = (0..n).map(|_| g.below(1 << 48)).collect();
        let mut tree = AvlTree::new();
        for &k in &keys {
            let _ = tree.insert(k, ());
        }
        let inorder: Vec<u64> = tree.iter().map(|(k, _)| k).collect();
        assert!(inorder.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(inorder.len(), tree.len());
    }
}

#[test]
fn plan_covers_each_sample_once() {
    for case in 0..CASES {
        let mut g = SplitMix64::derive(test_seed(0x91A7), case);
        let nodes = g.range(1, 5) as usize;
        let readers = g.range(1, 5) as usize;
        let samples = g.range(1, 400) as usize;
        let chunk_kb = g.range(1, 64);
        let sample_level = g.below(2) == 1;
        let seed = g.below(1000);
        let mut b = DirectoryBuilder::new(nodes, samples).unwrap();
        let mut cursors = vec![0u64; nodes];
        let mut rng = SplitMix64::new(seed);
        for id in 0..samples as u32 {
            let name = format!("p_{id:06}");
            let nid = dlfs::node_for_name(&name, nodes);
            let len = rng.range(100, 9000);
            b.add(id, &name, nid, cursors[nid as usize], len).unwrap();
            cursors[nid as usize] += len;
        }
        let dir = b.finish().unwrap();
        let mode = if sample_level {
            BatchMode::SampleLevel
        } else {
            BatchMode::ChunkLevel
        };
        let plan = build_epoch_plan(
            &dir,
            dlfs::plan::Extents::raw(chunk_kb * 1024, mode),
            readers,
            8,
            seed,
            0,
        );
        let mut seen = vec![false; samples];
        for r in &plan.readers {
            assert_eq!(r.order.len(), r.item_of.len());
            for (pos, &s) in r.order.iter().enumerate() {
                assert!(!seen[s as usize], "sample {} twice", s);
                seen[s as usize] = true;
                // item_of consistency.
                let it = &r.items[r.item_of[pos] as usize];
                assert!(it.samples.contains(&s));
                // The sample's byte range lies inside its item's range.
                let e = dir.entry(s);
                assert_eq!(e.nid(), it.nid);
                assert!(e.offset() >= it.offset);
                assert!(e.offset() + e.len() <= it.offset + it.len);
            }
        }
        assert!(seen.iter().all(|&x| x));
    }
}

/// Is every byte of every chunk of `range` still `tag`?
fn filled_with(range: &CachedRange, tag: u8) -> bool {
    let same = |b: &blocksim::DmaBuf| b.with(|d| d.iter().all(|&x| x == tag));
    range.bufs().iter().all(same)
}

/// Case `case` of the cache op stream seeded `seed` — publish / prefetched publish /
/// pin / unpin / retire / release / claim / allocation churn on a small
/// pool in a random mode — with the oracles applied at every step: never a
/// panic, never a torn read (every pinned range keeps its publication's
/// byte pattern for the pin's whole lifetime, across republishes of its
/// key and evictions), never an eviction of a range a live pin still
/// names, and never a chunk leak (the pool refills completely once all
/// pins drop). A pin is a handle on the range; unpinning drops it. With
/// `trace`, appends one line per step: the op, then `free_chunks`,
/// `resident_count`, `evictions()` and which of the six keys are resident
/// — eviction victims and pool-return instants. (Steps the cache state
/// made a no-op are left out; the step numbers show the gaps.)
fn cache_case(seed: u64, case: u64, mut trace: Option<&mut String>) {
    use std::fmt::Write;
    const CHUNK: usize = 512;
    let verify = |range: &CachedRange, tag: u8| {
        assert!(
            filled_with(range, tag),
            "torn read: pinned bytes no longer match tag {tag}"
        );
    };
    let mut g = SplitMix64::derive(seed, case);
    let total = g.range(2, 12) as usize;
    let mode = if g.below(2) == 1 {
        CacheMode::CrossEpoch
    } else {
        CacheMode::EpochScoped
    };
    let cache = SampleCache::with_mode(CHUNK, total, mode);
    let keys: Vec<RangeKey> = (0..6).map(|i| (0u32, i * 4 * CHUNK as u64)).collect();
    if let Some(t) = trace.as_deref_mut() {
        writeln!(t, "case {case} {mode:?} chunks={total}").unwrap();
    }
    // Latest published byte tag per key; stale entries are pruned on
    // retire (and on release in epoch-scoped mode, where release frees).
    let mut tags: std::collections::HashMap<RangeKey, u8> = Default::default();
    let mut pins: Vec<(RangeKey, u8, Arc<CachedRange>)> = Vec::new();
    let steps = g.range(50, 250);
    for step in 0..steps {
        let k = g.below(keys.len() as u64) as usize;
        let key = keys[k];
        // What the step did; `-` when the cache state made it a no-op.
        let mut op = "-";
        match g.below(8) {
            0 | 1 => 'publish: {
                // (Re)publish under a fresh byte tag.
                if cache.contains(key) {
                    break 'publish;
                }
                let nbufs = g.range(1, 3);
                let Some(bufs) = cache.alloc_for(nbufs * CHUNK as u64).0 else {
                    op = "full";
                    break 'publish;
                };
                let tag = (case * 37 + step + 1) as u8;
                for b in &bufs {
                    b.copy_from(0, &vec![tag; CHUNK]);
                }
                let len = bufs.len() as u64 * CHUNK as u64;
                let prefetched = g.below(4) == 0;
                drop(cache.publish(key, bufs, len, prefetched));
                op = if prefetched { "prefetched" } else { "publish" };
                tags.insert(key, tag);
            }
            2 => {
                if let Some((range, first)) = cache.pin(key, false) {
                    let tag = tags[&key];
                    verify(&range, tag);
                    pins.push((key, tag, range));
                    op = if first { "pin+first" } else { "pin" };
                }
            }
            3 => {
                if !pins.is_empty() {
                    let (_, tag, range) = pins.swap_remove(g.below(pins.len() as u64) as usize);
                    verify(&range, tag);
                    op = "unpin";
                }
            }
            4 => {
                // Retire — the range drains under the pins still out on it.
                if cache.contains(key) {
                    assert!(cache.retire(key));
                    tags.remove(&key);
                    op = "retire";
                }
            }
            5 => {
                if cache.contains(key) {
                    assert!(cache.release(key));
                    if mode == CacheMode::EpochScoped {
                        tags.remove(&key);
                    }
                    op = "release";
                }
            }
            6 => {
                // The engine's claim of a resident range for a new epoch:
                // in use again, so not evictable until released.
                if let Some((range, first)) = cache.pin(key, true) {
                    verify(&range, tags[&key]);
                    op = if first { "claim+first" } else { "claim" };
                }
            }
            _ => {
                // Allocation churn: drives LRU eviction of released
                // ranges in cross-epoch mode.
                op = "churn-full";
                if let Some(bufs) = cache.alloc_for(CHUNK as u64).0 {
                    for b in bufs {
                        cache.free_raw(b);
                    }
                    op = "churn";
                }
            }
        }
        // Whatever the step evicted, it was no range a live pin names:
        // a pin on a key's current publication keeps it resident.
        for (key, tag, _) in &pins {
            assert!(
                tags.get(key) != Some(tag) || cache.contains(*key),
                "case {case} step {step}: evicted {key:?} under a live pin"
            );
        }
        if let Some(t) = trace.as_deref_mut().filter(|_| op != "-") {
            let resident: String = keys
                .iter()
                .map(|&k| if cache.contains(k) { '1' } else { '.' })
                .collect();
            writeln!(
                t,
                "{step} {op} k{k} free={} res={} ev={} [{resident}] held={}",
                cache.free_chunks(),
                cache.resident_count(),
                cache.evictions(),
                pins.len(),
            )
            .unwrap();
        }
    }
    // Drain: every pin drops with its bytes intact, every live range
    // retires, and the pool must be whole again.
    for (_, tag, range) in pins.drain(..) {
        verify(&range, tag);
    }
    for &key in &keys {
        if cache.contains(key) {
            assert!(cache.retire(key));
        }
    }
    assert_eq!(cache.resident_count(), 0, "case {case}: residents leaked");
    assert_eq!(
        cache.free_chunks(),
        cache.total_chunks(),
        "case {case}: chunks leaked"
    );
}

#[test]
fn cache_interleavings_never_panic_leak_or_tear() {
    for case in 0..CASES {
        cache_case(test_seed(CACHE_SEED), case, None);
    }
}

/// Part A of the residency golden: the first cases of the op stream above
/// with every step traced. The seed is fixed (not moved by
/// `DLFS_TEST_SEED_OFFSET`). Pins which range each eviction takes and the
/// step at which chunks return to the pool; never regenerate it to make a
/// change to `cache.rs` pass.
#[test]
fn cache_residency_trace_matches_golden() {
    let mut trace = String::new();
    for case in 0..12 {
        cache_case(CACHE_SEED, case, Some(&mut trace));
    }
    common::check_golden_part("residency_trace.txt", "A", &trace);
}

/// The one invariant residency-by-ownership rests on, on real threads:
/// "released and referenced by the map alone" is read under the cache
/// lock, and pins are only minted under it, so eviction never takes a
/// range somebody holds. Four OS threads hammer one small cross-epoch
/// pool with seeded pin / drop / publish / release / alloc ops (each
/// publishes only its own keys — publishing a live key is a caller bug —
/// and pins anybody's; nobody retires, so only an eviction can end a
/// residency). Every held range must stay the resident range of its key,
/// with the one byte value it was published with, until it is let go, and
/// the pool must be whole at the end.
#[test]
fn cache_pins_hold_on_os_threads() {
    const CHUNK: usize = 512;
    const THREADS: u64 = 4;
    let cache = SampleCache::with_mode(CHUNK, 8, CacheMode::CrossEpoch);
    let key = |owner: u64, i: u64| -> RangeKey { (owner as u32, i * 4 * CHUNK as u64) };
    let intact = |range: &CachedRange, tag: u8| {
        assert!(filled_with(range, tag), "a held range was recycled");
    };
    let start = std::sync::Barrier::new(THREADS as usize);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (cache, start) = (&cache, &start);
            s.spawn(move || {
                let mut g = SplitMix64::derive(test_seed(0x057E55), t);
                let mut held: Vec<(RangeKey, u8, Arc<CachedRange>)> = Vec::new();
                start.wait();
                for step in 0..2000u64 {
                    let mine = key(t, g.below(3));
                    match g.below(8) {
                        0 | 1 if !cache.contains(mine) => {
                            let nbufs = g.range(1, 3);
                            if let Some(bufs) = cache.alloc_for(nbufs * CHUNK as u64).0 {
                                let tag = (t * 64 + step % 64) as u8;
                                for b in &bufs {
                                    b.copy_from(0, &vec![tag; CHUNK]);
                                }
                                let len = (bufs.len() * CHUNK) as u64;
                                drop(cache.publish(mine, bufs, len, g.below(4) == 0));
                            }
                        }
                        2 | 3 => {
                            let any = key(g.below(THREADS), g.below(3));
                            if let Some((range, _)) = cache.pin(any, g.below(4) == 0) {
                                let tag = range.bufs()[0].with(|d| d[0]);
                                intact(&range, tag);
                                held.push((any, tag, range));
                            }
                        }
                        4 if !held.is_empty() => {
                            let (_, tag, range) =
                                held.swap_remove(g.below(held.len() as u64) as usize);
                            intact(&range, tag);
                        }
                        5 | 6 => {
                            cache.release(mine);
                        }
                        _ => {
                            if let Some(bufs) = cache.alloc_for(CHUNK as u64).0 {
                                bufs.into_iter().for_each(|b| cache.free_raw(b));
                            }
                        }
                    }
                    for (key, tag, range) in &held {
                        intact(range, *tag);
                        let resident = cache.pin(*key, false);
                        assert!(
                            resident.is_some_and(|(r, _)| Arc::ptr_eq(&r, range)),
                            "{key:?} was evicted under a live pin"
                        );
                    }
                    // Bound what one thread pins, so eviction keeps work.
                    if held.len() > 3 {
                        held.remove(0);
                    }
                }
            });
        }
    });
    for t in 0..THREADS {
        for i in 0..3 {
            cache.retire(key(t, i));
        }
    }
    assert_eq!(cache.resident_count(), 0);
    assert_eq!(cache.free_chunks(), cache.total_chunks(), "chunks leaked");
}

/// Randomized end-to-end integrity sweep: random node/replica geometry,
/// random silent bit-flip extents on one device, random cache mode, pool
/// pressure and delivery mode (copied vs zero-copy). Every delivered
/// sample must be byte-correct in every case; whenever verification
/// caught a mismatch, read-repair must have healed the home copy so the
/// next epoch verifies clean.
#[test]
fn randomized_corruption_repair_across_delivery_modes() {
    use blocksim::{DeviceConfig, FaultInjector, NvmeDevice, NvmeTarget};
    use dlfs::{Deployment, DlfsConfig, DlfsError, ReadRequest, SyntheticSource};
    use simkit::prelude::*;
    use std::sync::Arc;

    for case in 0..16u64 {
        let mut g = SplitMix64::derive(test_seed(0x1A7E6), case);
        let nodes = g.range(2, 4) as usize;
        let replicas = g.range(2, nodes as u64 + 1) as usize;
        let zero_copy = g.below(2) == 1;
        // Zero-copy pins live across the batch; run those cases on the
        // resident (cross-epoch) cache, as the zero-copy suites do.
        let cross = zero_copy || g.below(2) == 1;
        let samples = g.range(150, 400) as usize;
        let flip_start = g.below(256);
        let flip_len = g.range(8, 96) as u32;
        let pool = g.range(24, 96) as usize;
        let seed = g.below(1 << 20);
        Runtime::simulate(seed, |rt| {
            let source = SyntheticSource::fixed(case, samples, 2048);
            let devices: Vec<Arc<NvmeDevice>> = (0..nodes)
                .map(|_| NvmeDevice::new(DeviceConfig::emulated_ramdisk(32 << 20, Dur::micros(10))))
                .collect();
            let cfg = DlfsConfig {
                chunk_size: 8 * 1024,
                pool_chunks: pool,
                replicas,
                verify_reads: true,
                cache_mode: if cross {
                    CacheMode::CrossEpoch
                } else {
                    CacheMode::EpochScoped
                },
                ..DlfsConfig::default()
            };
            let fs = dlfs::MountBuilder::new(cfg)
                .deployment(Deployment::local(1, &devices))
                .mount(rt, &source)
                .unwrap();
            devices[0].set_faults(
                FaultInjector::new(case ^ 0xF11).with_bit_flips(flip_start, flip_len as u64),
            );
            let mut io = fs.io(0);
            let drain = |io: &mut dlfs::DlfsIo, epoch: u64| {
                let total = io.sequence(rt, 0xBEEF ^ case, epoch);
                let mut delivered = 0usize;
                loop {
                    let req = if zero_copy {
                        ReadRequest::batch(24).zero_copy()
                    } else {
                        ReadRequest::batch(24)
                    };
                    match io.submit(rt, &req) {
                        Ok(batch) if zero_copy => {
                            for s in batch.into_zero_copy() {
                                assert_eq!(
                                    s.to_vec(),
                                    source.expected(s.id),
                                    "case {case} epoch {epoch}: corrupt zero-copy sample {}",
                                    s.id
                                );
                                delivered += 1;
                            }
                        }
                        Ok(batch) => {
                            for (id, data) in batch.into_copied() {
                                assert_eq!(
                                    data,
                                    source.expected(id),
                                    "case {case} epoch {epoch}: corrupt sample {id}"
                                );
                                delivered += 1;
                            }
                        }
                        Err(DlfsError::EpochExhausted) => break,
                        Err(e) => panic!("case {case} epoch {epoch}: {e}"),
                    }
                }
                assert_eq!(delivered, total, "case {case} epoch {epoch} incomplete");
            };
            // Every device part of a fetch item homed on node 0 (item
            // geometry is a pure function of the directory), and how many of
            // them still overlap a flipped block of its device.
            let shared = io.shared().clone();
            let mode = shared.cfg.effective_mode(shared.dir.avg_sample_bytes());
            let per_part = (shared.cfg.chunk_size / blocksim::BLOCK_SIZE) as u32;
            let parts: Vec<(u64, u32)> = dlfs::plan::reader_item_ranges(
                &shared.dir,
                dlfs::plan::Extents::raw(shared.cfg.chunk_size, mode),
                1,
                0,
                0,
                0,
            )
            .into_iter()
            .filter(|&(nid, ..)| nid == 0)
            .flat_map(|(_, offset, len)| {
                let (slba, nblocks, _) = blocksim::covering_blocks(offset, len);
                (0..nblocks.div_ceil(per_part)).map(move |p| {
                    let first = p * per_part;
                    (slba + first as u64, (nblocks - first).min(per_part))
                })
            })
            .collect();
            let dirty = || {
                parts
                    .iter()
                    .filter(|&&(slba, n)| devices[0].probe_extent(slba, n))
                    .count() as u64
            };
            // A mismatch is the first verified read of a dirty part, and its
            // read-repair cleans the part: epoch by epoch the mismatches
            // found are exactly the dirty parts that went clean, each one
            // repaired — a repaired extent that mismatched again, or a
            // repair that healed nothing, breaks the equality. Reads detour
            // to the replicas while three mismatches in a row hold device
            // 0's circuit open, so an epoch may leave dirty parts for the
            // next; once none is left, an epoch finds nothing.
            let (mut found, mut left, mut epoch) = (0, dirty(), 0);
            assert!(left > 0, "case {case}: the flips miss every part");
            loop {
                drain(&mut io, epoch);
                let m = io.metrics();
                let mismatches = m.counter("dlfs.integrity.mismatches");
                assert_eq!(
                    (mismatches - found, mismatches),
                    (left - dirty(), m.counter("dlfs.integrity.repairs")),
                    "case {case} epoch {epoch}: (new mismatches, all mismatches) != \
                     (parts gone clean, all repairs)"
                );
                if left == 0 {
                    break;
                }
                assert!(
                    epoch < 8,
                    "case {case}: {left} dirty parts are never read home"
                );
                (found, left, epoch) = (mismatches, dirty(), epoch + 1);
            }
        });
    }
}

#[test]
fn windowed_delivery_respects_item_order_and_window() {
    for case in 0..CASES {
        let mut g = SplitMix64::derive(test_seed(0x3177), case);
        let n_items = g.range(1, 30) as usize;
        let window = g.range(1, 10) as usize;
        let seed = g.below(500);
        let items: Vec<FetchItem> = (0..n_items as u32)
            .map(|i| FetchItem {
                nid: 0,
                offset: i as u64 * 1000,
                len: 1000,
                samples: (i * 10..i * 10 + 3 + (i % 4)).collect(),
            })
            .collect();
        let total: usize = items.iter().map(|i| i.samples.len()).sum();
        let mut rng = SplitMix64::new(seed);
        let plan = windowed_delivery(items, window, &mut rng);
        assert_eq!(plan.order.len(), total);
        // Window invariant: at any delivery position, at most `window`
        // distinct unfinished items may be interleaved. Track open set.
        let mut remaining: Vec<usize> = plan.items.iter().map(|i| i.samples.len()).collect();
        let mut open: std::collections::HashSet<u32> = Default::default();
        let mut max_open = 0;
        for (pos, &_s) in plan.order.iter().enumerate() {
            let it = plan.item_of[pos];
            open.insert(it);
            max_open = max_open.max(open.len());
            remaining[it as usize] -= 1;
            if remaining[it as usize] == 0 {
                open.remove(&it);
            }
        }
        assert!(max_open <= window, "open {} > window {}", max_open, window);
    }
}
