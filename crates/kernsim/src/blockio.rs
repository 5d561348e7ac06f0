//! The kernel block layer: turns file-system block runs into device bios,
//! charges submission and completion costs, and blocks the calling thread
//! until the I/O finishes — the interrupt-driven path DLFS bypasses.

use std::sync::Arc;

use blocksim::{NvmeTarget, BLOCK_SIZE};
use simkit::runtime::Runtime;
use simkit::time::Time;

use crate::ext4::FsError;
use crate::params::{KernelCosts, PAGE_SIZE};

/// Device blocks per file-system block.
pub const DEV_BLOCKS_PER_FS_BLOCK: u64 = PAGE_SIZE / BLOCK_SIZE;

/// Submission rounds a read gets before the block layer surfaces EIO.
pub const MAX_READ_ATTEMPTS: u32 = 8;

#[derive(Clone)]
pub struct BlockLayer {
    dev: Arc<dyn NvmeTarget>,
    costs: KernelCosts,
}

impl std::fmt::Debug for BlockLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockLayer")
            .field("dev", &self.dev.describe())
            .finish()
    }
}

impl BlockLayer {
    pub fn new(dev: Arc<dyn NvmeTarget>, costs: KernelCosts) -> BlockLayer {
        BlockLayer { dev, costs }
    }

    pub fn device(&self) -> &Arc<dyn NvmeTarget> {
        &self.dev
    }

    fn split_bios(&self, runs: &[(u64, u64)]) -> Vec<(u64, u64)> {
        let max_fs_blocks = (self.costs.max_bio_bytes / PAGE_SIZE).max(1);
        let mut bios = Vec::new();
        for &(start, len) in runs {
            let mut off = 0;
            while off < len {
                let n = (len - off).min(max_fs_blocks);
                bios.push((start + off, n));
                off += n;
            }
        }
        bios
    }

    /// Read the physical fs-block `runs` (start, len in fs blocks),
    /// depositing the bytes consecutively into `dst`. Blocks (sleeps) until
    /// the last bio completes; charges bio submission, IRQ and wakeup costs.
    /// Fails with [`FsError::Io`] when some bio still fails after
    /// [`MAX_READ_ATTEMPTS`] rounds.
    pub fn read_blocks(
        &self,
        rt: &Runtime,
        runs: &[(u64, u64)],
        dst: &mut [u8],
    ) -> Result<(), FsError> {
        let total_blocks: u64 = runs.iter().map(|r| r.1).sum();
        assert!(
            dst.len() as u64 >= total_blocks * PAGE_SIZE,
            "dst too small"
        );
        // Submit all bios (the kernel plugs the queue, so they pipeline).
        // Bios failed by the device are retried, as the kernel block layer
        // does before surfacing EIO.
        let mut queue = self.split_bios(runs);
        let mut attempts = 0;
        while !queue.is_empty() {
            if attempts == MAX_READ_ATTEMPTS {
                return Err(FsError::Io { attempts });
            }
            attempts += 1;
            let mut latest = Time::ZERO;
            let mut failed = Vec::new();
            for &(start, len) in &queue {
                rt.work(self.costs.bio_submit);
                let slba = start * DEV_BLOCKS_PER_FS_BLOCK;
                let nblocks = (len * DEV_BLOCKS_PER_FS_BLOCK) as u32;
                // Range-aware, so a killed device or a sticky bad extent
                // fails the bio too.
                let fault = self.dev.fault_decide_range(rt.now(), false, slba, nblocks);
                let done = self.dev.reserve_read(rt.now(), slba, nblocks) + fault.extra_latency;
                latest = latest.max(done);
                if !fault.status.is_ok() {
                    failed.push((start, len));
                }
            }
            let now = rt.now();
            if latest > now {
                rt.sleep(latest - now);
            }
            for _ in &queue {
                rt.work(self.costs.irq);
            }
            rt.work(self.costs.context_switch);
            queue = failed;
        }
        // DMA the payload (no CPU charged: the device wrote it to memory).
        let mut cursor = 0usize;
        for &(start, len) in runs {
            let bytes = (len * PAGE_SIZE) as usize;
            self.dev.dma_read(
                start * DEV_BLOCKS_PER_FS_BLOCK,
                &mut dst[cursor..cursor + bytes],
            );
            cursor += bytes;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blocksim::{DeviceConfig, NvmeDevice};

    use simkit::time::Dur;

    fn layer() -> BlockLayer {
        let dev = NvmeDevice::new(DeviceConfig::optane(64 << 20));
        BlockLayer::new(dev, KernelCosts::default())
    }

    #[test]
    fn read_write_roundtrip() {
        Runtime::simulate(0, |rt| {
            let bl = layer();
            let data: Vec<u8> = (0..2 * PAGE_SIZE as usize)
                .map(|i| (i % 253) as u8)
                .collect();
            bl.device().dma_write(100 * DEV_BLOCKS_PER_FS_BLOCK, &data);
            let mut out = vec![0u8; data.len()];
            bl.read_blocks(rt, &[(100, 2)], &mut out).unwrap();
            assert_eq!(out, data);
        });
    }

    #[test]
    fn read_charges_kernel_costs() {
        Runtime::simulate(0, |rt| {
            let bl = layer();
            let mut out = vec![0u8; PAGE_SIZE as usize];
            let t0 = rt.now();
            bl.read_blocks(rt, &[(0, 1)], &mut out).unwrap();
            let elapsed = rt.now() - t0;
            let c = KernelCosts::default();
            let min = c.bio_submit + Dur::micros(10) + c.irq + c.context_switch;
            assert!(elapsed >= min, "{elapsed:?} < {min:?}");
        });
    }

    #[test]
    fn large_read_splits_into_pipelined_bios() {
        // A 4 MB read must not take 8x the time of a 512 KB read: bios
        // pipeline on the device.
        let time_for = |fs_blocks: u64| {
            Runtime::simulate(0, |rt| {
                let bl = layer();
                let mut out = vec![0u8; (fs_blocks * PAGE_SIZE) as usize];
                let t0 = rt.now();
                bl.read_blocks(rt, &[(0, fs_blocks)], &mut out).unwrap();
                (rt.now() - t0).as_nanos()
            })
            .0
        };
        let small = time_for(128); // 512 KB: one bio
        let big = time_for(1024); // 4 MB: eight bios
        assert!(big < small * 10, "big={big} small={small}");
        // Bandwidth-dominated: the big read should take roughly 8x the
        // transfer time, so at least 5x the small read.
        assert!(big > small * 5, "big={big} small={small}");
    }

    #[test]
    fn scattered_runs_assemble_in_order() {
        Runtime::simulate(0, |rt| {
            let bl = layer();
            let a = vec![1u8; PAGE_SIZE as usize];
            let b = vec![2u8; PAGE_SIZE as usize];
            bl.device().dma_write(10 * DEV_BLOCKS_PER_FS_BLOCK, &a);
            bl.device().dma_write(50 * DEV_BLOCKS_PER_FS_BLOCK, &b);
            let mut out = vec![0u8; 2 * PAGE_SIZE as usize];
            bl.read_blocks(rt, &[(50, 1), (10, 1)], &mut out).unwrap();
            assert!(out[..PAGE_SIZE as usize].iter().all(|&x| x == 2));
            assert!(out[PAGE_SIZE as usize..].iter().all(|&x| x == 1));
        });
    }
}
