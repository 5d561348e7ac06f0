//! Randomized property tests for blocksim: storage roundtrips at arbitrary
//! offsets, DMA-pool accounting under arbitrary alloc/free interleavings,
//! device timing monotonicity, and fault-injector statistics. Cases come
//! from seeded [`SplitMix64`] streams so failures replay exactly.

use blocksim::{
    covering_blocks, DeviceConfig, DmaPool, FaultInjector, NvmeDevice, NvmeTarget, Storage,
    BLOCK_SIZE,
};
use simkit::prelude::*;

const CASES: u64 = 48;

#[test]
fn storage_scattered_writes_read_back() {
    for case in 0..CASES {
        let mut g = SplitMix64::derive(0x570A, case);
        let n = g.range(1, 20) as usize;
        let writes: Vec<(u64, usize)> = (0..n)
            .map(|_| (g.below(1_000_000), g.range(1, 5000) as usize))
            .collect();
        let s = Storage::new(2 << 20);
        // Apply writes in order; remember a reference model.
        let mut model = vec![0u8; 2 << 20];
        for (i, &(off, len)) in writes.iter().enumerate() {
            let off = off % ((2 << 20) - len as u64);
            let data: Vec<u8> = (0..len).map(|j| ((i * 13 + j) % 251) as u8).collect();
            s.write_at(off, &data);
            model[off as usize..off as usize + len].copy_from_slice(&data);
        }
        // Random probes agree with the model.
        for &(off, len) in writes.iter() {
            let off = off % ((2 << 20) - len as u64);
            let mut out = vec![0u8; len];
            s.read_at(off, &mut out);
            assert_eq!(&out[..], &model[off as usize..off as usize + len]);
        }
    }
}

#[test]
fn dma_pool_conserves_chunks() {
    for case in 0..CASES {
        let mut g = SplitMix64::derive(0xD0A7, case);
        let n = g.range(1, 60) as usize;
        let ops: Vec<(u64, bool)> = (0..n)
            .map(|_| (g.range(1, 600_000), g.below(2) == 1))
            .collect();
        let pool_chunks = 32;
        let chunk = 64 << 10;
        let pool = DmaPool::new(chunk, pool_chunks);
        let mut held: Vec<Vec<blocksim::DmaBuf>> = Vec::new();
        let mut held_chunks = 0usize;
        for (len, free_first) in ops {
            if free_first && !held.is_empty() {
                let bufs = held.swap_remove(0);
                held_chunks -= bufs.len();
                for b in bufs {
                    pool.free(b);
                }
            }
            let need = (len as usize).div_ceil(chunk).max(1);
            if pool.available() >= need {
                let mut bufs = Vec::new();
                for _ in 0..need {
                    bufs.push(pool.alloc().expect("availability checked"));
                }
                held_chunks += bufs.len();
                held.push(bufs);
            }
            assert_eq!(pool.available() + held_chunks, pool_chunks);
        }
    }
}

#[test]
fn covering_blocks_covers() {
    for case in 0..256 {
        let mut g = SplitMix64::derive(0xC0B5, case);
        let offset = g.below(1_000_000);
        let len = g.range(1, 100_000);
        let (slba, nblocks, head) = covering_blocks(offset, len);
        // The covering range contains [offset, offset+len).
        assert!(slba * BLOCK_SIZE <= offset);
        assert!((slba + nblocks as u64) * BLOCK_SIZE >= offset + len);
        assert_eq!(slba * BLOCK_SIZE + head as u64, offset);
        // Minimality: one block fewer would not cover.
        assert!((slba + nblocks as u64 - 1) * BLOCK_SIZE < offset + len);
    }
}

#[test]
fn device_completion_time_monotone_in_size() {
    for case in 0..CASES {
        let mut g = SplitMix64::derive(0xDE71, case);
        let small = g.range(1, 64) as u32;
        let extra = g.range(1, 1024) as u32;
        Runtime::simulate(0, |rt| {
            let d1 = NvmeDevice::new(DeviceConfig::optane(64 << 20));
            let t_small = d1.reserve_read(rt.now(), 0, small);
            let d2 = NvmeDevice::new(DeviceConfig::optane(64 << 20));
            let t_large = d2.reserve_read(rt.now(), 0, small + extra);
            assert!(t_small <= t_large, "{t_small:?} vs {t_large:?}");
        });
    }
}

#[test]
fn fault_rates_track_configuration() {
    for case in 0..CASES {
        let mut g = SplitMix64::derive(0xFA17, case);
        let ppm = g.below(500_000) as u32;
        let seed = g.below(1000);
        let f = FaultInjector::new(seed).with_read_failures(ppm);
        let n = 8_000u32;
        let fails = (0..n)
            .filter(|_| !f.decide_range(false, 0, 1).status.is_ok())
            .count() as f64;
        let expect = ppm as f64 / 1_000_000.0 * n as f64;
        // Within 5 sigma of a binomial.
        let sigma = (n as f64 * (ppm as f64 / 1e6) * (1.0 - ppm as f64 / 1e6)).sqrt();
        assert!(
            (fails - expect).abs() <= 5.0 * sigma + 1.0,
            "fails {fails} expect {expect} sigma {sigma}"
        );
    }
}
