//! Dataset generation and staging onto each storage system.

use std::sync::Arc;

use dlfs::{SampleSource, SyntheticSource};
use kernsim::Ext4Fs;
use octofs::OctopusFs;
use simkit::runtime::Runtime;

use crate::sizedist::SizeDist;

/// Generate a deterministic synthetic dataset with sizes drawn from `dist`.
pub fn generate(seed: u64, count: usize, dist: &SizeDist) -> SyntheticSource {
    SyntheticSource::new(seed, dist.sizes(seed ^ 0x5a5a, count))
}

/// An ImageNet-style hierarchical dataset: samples named
/// `class_<c>/img_<i>.jpg` across `classes` class directories (round-robin
/// assignment). Staging this on ext4 exercises nested directories — one
/// leaf-block namespace per class instead of one giant flat directory.
#[derive(Clone, Debug)]
pub struct HierarchicalSource {
    inner: SyntheticSource,
    classes: usize,
}

impl HierarchicalSource {
    pub fn new(seed: u64, count: usize, classes: usize, dist: &SizeDist) -> HierarchicalSource {
        assert!(classes > 0);
        HierarchicalSource {
            inner: generate(seed, count, dist),
            classes,
        }
    }

    pub fn classes(&self) -> usize {
        self.classes
    }

    pub fn class_of(&self, id: u32) -> usize {
        id as usize % self.classes
    }

    /// Expected payload (verification).
    pub fn expected(&self, id: u32) -> Vec<u8> {
        self.inner.expected(id)
    }
}

impl SampleSource for HierarchicalSource {
    fn count(&self) -> usize {
        self.inner.count()
    }

    fn name(&self, id: u32) -> String {
        format!("class_{:04}/img_{id:08}.jpg", self.class_of(id))
    }

    fn size(&self, id: u32) -> u64 {
        self.inner.size(id)
    }

    fn fill(&self, id: u32, buf: &mut [u8]) {
        self.inner.fill(id, buf)
    }
}

/// Shard assignment used by the local-read baselines (Ext4): sample `id`
/// belongs to reader `id % readers`, matching how multi-node training jobs
/// pre-partition file lists.
pub fn shard_of(id: u32, readers: usize) -> usize {
    id as usize % readers
}

/// Stage reader `r`'s shard of the dataset into a local ext4 file system
/// (file-per-sample under `/data`, as the paper's Ext4 baseline reads
/// datasets) without charging virtual time: staging is set-up, not a
/// measured quantity. Caches are dropped afterwards, so benchmarks measure
/// cold reads, as after a fresh staging + job start. Returns the staged
/// (id, path) pairs.
pub fn stage_ext4_untimed(
    fs: &Arc<Ext4Fs>,
    source: &dyn SampleSource,
    reader: usize,
    readers: usize,
) -> Vec<(u32, String)> {
    fs.mkdir_p("/data").expect("mkdir /data");
    let mut staged = Vec::new();
    let mut buf = Vec::new();
    for id in 0..source.count() as u32 {
        if shard_of(id, readers) != reader {
            continue;
        }
        let path = format!("/data/{}", source.name(id));
        if let Some(parent) = path.rsplit_once('/').map(|(p, _)| p) {
            if parent != "/data" {
                fs.mkdir_p(parent).expect("mkdir class dir");
            }
        }
        buf.resize(source.size(id) as usize, 0);
        source.fill(id, &mut buf);
        fs.create_untimed(&path, &buf).expect("stage file");
        staged.push((id, path));
    }
    fs.drop_caches();
    staged
}

/// Stage the whole dataset into the Octopus-like file system (its hash
/// placement decides the owner node). Returns (id, name) pairs.
pub fn stage_octopus(
    rt: &Runtime,
    fs: &Arc<OctopusFs>,
    source: &dyn SampleSource,
) -> Vec<(u32, String)> {
    let mut staged = Vec::new();
    let mut buf = Vec::new();
    for id in 0..source.count() as u32 {
        let name = source.name(id);
        buf.resize(source.size(id) as usize, 0);
        source.fill(id, &mut buf);
        fs.store(rt, &name, &buf);
        staged.push((id, name));
    }
    staged
}

#[cfg(test)]
mod tests {
    use super::*;
    use blocksim::{DeviceConfig, NvmeDevice};
    use fabric::{Cluster, FabricConfig};
    use kernsim::{FsOptions, KernelCosts};

    use simkit::time::Dur;

    #[test]
    fn generate_is_deterministic() {
        let d = SizeDist::Uniform(100, 200);
        let a = generate(1, 50, &d);
        let b = generate(1, 50, &d);
        assert_eq!(a.count(), 50);
        for id in 0..50u32 {
            assert_eq!(a.size(id), b.size(id));
            assert_eq!(a.expected(id), b.expected(id));
        }
    }

    #[test]
    fn ext4_staging_roundtrip() {
        Runtime::simulate(0, |rt| {
            let dev = NvmeDevice::new(DeviceConfig::optane(128 << 20));
            let fs = Ext4Fs::mkfs(dev, KernelCosts::default(), FsOptions::default());
            let source = generate(2, 40, &SizeDist::Fixed(2048));
            let staged = stage_ext4_untimed(&fs, &source, 0, 2);
            assert_eq!(staged.len(), 20); // half the shard
            for (id, path) in &staged {
                let fd = fs.open(rt, path).unwrap();
                let mut out = vec![0u8; 2048];
                assert_eq!(fs.pread(rt, fd, 0, &mut out).unwrap(), 2048);
                assert_eq!(out, source.expected(*id));
                fs.close(rt, fd).unwrap();
            }
        });
    }

    #[test]
    fn octopus_staging_roundtrip() {
        Runtime::simulate(0, |rt| {
            let cluster = Arc::new(Cluster::new(2, FabricConfig::default()));
            let cfg = DeviceConfig::emulated_ramdisk(64 << 20, Dur::micros(10));
            let octo = OctopusFs::deploy(rt, cluster, &cfg);
            let source = generate(3, 30, &SizeDist::Fixed(900));
            let staged = stage_octopus(rt, &octo, &source);
            assert_eq!(staged.len(), 30);
            let mut out = vec![0u8; 900];
            for (id, name) in &staged {
                octo.read(rt, 0, name, &mut out).unwrap();
                assert_eq!(out, source.expected(*id));
            }
        });
    }

    #[test]
    fn shards_partition() {
        let readers = 4;
        let mut counts = vec![0; readers];
        for id in 0..100u32 {
            counts[shard_of(id, readers)] += 1;
        }
        assert_eq!(counts.iter().sum::<i32>(), 100);
        assert!(counts.iter().all(|&c| c == 25));
    }
}
