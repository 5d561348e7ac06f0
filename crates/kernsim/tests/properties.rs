//! Randomized property tests for kernsim's data structures: the block
//! allocator, extent trees, LRU, and end-to-end file content integrity.
//! Cases come from seeded [`SplitMix64`] streams so failures replay exactly.

use blocksim::{DeviceConfig, NvmeDevice};
use kernsim::ext4::alloc::BitmapAllocator;
use kernsim::ext4::inode::{Inode, InodeKind};
use kernsim::lru::LruMap;
use kernsim::{Ext4Fs, FsOptions, KernelCosts};
use simkit::prelude::*;

const CASES: u64 = 48;

#[test]
fn allocator_never_double_allocates() {
    for case in 0..CASES {
        let mut g = SplitMix64::derive(0xA110, case);
        let n = g.range(1, 120) as usize;
        let ops: Vec<(u64, bool)> = (0..n).map(|_| (g.range(1, 50), g.below(2) == 1)).collect();
        let mut a = BitmapAllocator::new(10, 512);
        let mut held: Vec<(u64, u64)> = Vec::new();
        for (want, free_first) in ops {
            if free_first && !held.is_empty() {
                let (s, l) = held.swap_remove(0);
                a.free_extent(s, l);
            }
            if let Some(exts) = a.alloc_blocks(want) {
                for (s, l) in exts {
                    // No overlap with anything currently held.
                    for &(hs, hl) in &held {
                        assert!(
                            s + l <= hs || hs + hl <= s,
                            "overlap: ({s},{l}) vs ({hs},{hl})"
                        );
                    }
                    held.push((s, l));
                }
            }
            let held_total: u64 = held.iter().map(|h| h.1).sum();
            assert_eq!(held_total, a.allocated());
        }
    }
}

#[test]
fn extent_tree_maps_consistently() {
    for case in 0..CASES {
        let mut g = SplitMix64::derive(0xE47E, case);
        let n = g.range(1, 40) as usize;
        let lens: Vec<u64> = (0..n).map(|_| g.range(1, 20)).collect();
        let mut ino = Inode::new(1, InodeKind::File);
        let mut phys = 100u64;
        let mut expect: Vec<u64> = Vec::new(); // logical block -> physical
        for len in lens {
            ino.append_extent(phys, len);
            for i in 0..len {
                expect.push(phys + i);
            }
            phys += len + 7; // gap so extents don't merge
        }
        for (lb, &pb) in expect.iter().enumerate() {
            assert_eq!(ino.map_block(lb as u64), Some(pb));
        }
        assert_eq!(ino.map_block(expect.len() as u64), None);
        // map_range over random windows agrees with per-block mapping.
        let n = expect.len() as u64;
        for (start, count) in [(0, n), (n / 3, n / 2), (n.saturating_sub(1), 1)] {
            if count == 0 {
                continue;
            }
            let runs = ino.map_range(start, count.min(n - start).max(1));
            let flat: Vec<u64> = runs
                .iter()
                .flat_map(|&(p, l)| (0..l).map(move |i| p + i))
                .collect();
            let want: Vec<u64> =
                expect[start as usize..(start + count.min(n - start).max(1)) as usize].to_vec();
            assert_eq!(flat, want);
        }
    }
}

#[test]
fn lru_matches_reference_model() {
    for case in 0..CASES {
        let mut g = SplitMix64::derive(0x14B0, case);
        let cap = g.range(1, 16) as usize;
        let n = g.range(1, 300) as usize;
        let ops: Vec<(u8, bool)> = (0..n)
            .map(|_| (g.below(40) as u8, g.below(2) == 1))
            .collect();
        let mut lru = LruMap::new(cap);
        // Reference: vec of keys, front = MRU.
        let mut model: Vec<(u8, u64)> = Vec::new();
        for (i, (key, is_get)) in ops.into_iter().enumerate() {
            if is_get {
                let got = lru.get(&key).copied();
                let want = model.iter().position(|(k, _)| *k == key).map(|p| {
                    let e = model.remove(p);
                    model.insert(0, e);
                    model[0].1
                });
                assert_eq!(got, want);
            } else {
                lru.insert(key, i as u64);
                if let Some(p) = model.iter().position(|(k, _)| *k == key) {
                    model.remove(p);
                } else if model.len() >= cap {
                    model.pop();
                }
                model.insert(0, (key, i as u64));
            }
            assert_eq!(lru.len(), model.len());
        }
    }
}

#[test]
fn files_roundtrip_any_size() {
    for case in 0..12 {
        let mut g = SplitMix64::derive(0xF11E, case);
        let n = g.range(1, 12) as usize;
        let sizes: Vec<usize> = (0..n).map(|_| g.range(1, 40_000) as usize).collect();
        Runtime::simulate(0, |rt| {
            let dev = NvmeDevice::new(DeviceConfig::optane(256 << 20));
            let fs = Ext4Fs::mkfs(dev, KernelCosts::default(), FsOptions::default());
            fs.mkdir_p("/p").unwrap();
            let payloads: Vec<Vec<u8>> = sizes
                .iter()
                .enumerate()
                .map(|(i, &s)| (0..s).map(|b| ((b * 31 + i * 7) % 251) as u8).collect())
                .collect();
            for (i, p) in payloads.iter().enumerate() {
                fs.create_untimed(&format!("/p/f{i}"), p).unwrap();
            }
            fs.drop_caches();
            for (i, p) in payloads.iter().enumerate() {
                let fd = fs.open(rt, &format!("/p/f{i}")).unwrap();
                let mut out = vec![0u8; p.len()];
                assert_eq!(fs.pread(rt, fd, 0, &mut out).unwrap(), p.len());
                assert_eq!(&out, p, "file {i} corrupted");
                fs.close(rt, fd).unwrap();
            }
        });
    }
}
