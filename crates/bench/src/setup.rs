//! Experiment builders: assemble devices, fabrics and file systems the way
//! the paper's testbed was wired.

use std::sync::Arc;

use blocksim::{DeviceConfig, NvmeDevice};
use dlfs::{Deployment, DlfsConfig, DlfsInstance, SampleSource, SyntheticSource};
use dlio::dataset::{stage_ext4_untimed, stage_octopus};
use fabric::{Cluster, FabricConfig};
use kernsim::{Ext4Fs, FsOptions, KernelCosts};
use octofs::OctopusFs;
use simkit::runtime::Runtime;
use simkit::time::Dur;

/// The paper's emulated-NVMe access delay ("adding a delay when accessing
/// the data").
pub const EMU_DELAY: Dur = Dur::micros(10);

/// Build a fixed-size synthetic dataset bounded by a byte budget (keeps
/// host memory in check across the sweep).
pub fn fixed_source(
    seed: u64,
    sample_size: u64,
    byte_budget: u64,
    max_count: usize,
) -> SyntheticSource {
    let count = ((byte_budget / sample_size) as usize).clamp(64, max_count);
    SyntheticSource::fixed(seed, count, sample_size)
}

/// Device capacity covering a dataset with headroom.
fn capacity_for(bytes: u64) -> u64 {
    let cap = (bytes + (bytes / 4) + (64 << 20)).next_multiple_of(1 << 20);
    cap.max(64 << 20)
}

/// An Optane-class local device sized for `source`.
pub fn optane_for(source: &SyntheticSource) -> Arc<NvmeDevice> {
    let bytes: u64 = (0..source.count() as u32).map(|i| source.size(i)).sum();
    NvmeDevice::new(DeviceConfig::optane(capacity_for(bytes)))
}

/// An emulated (RAM + delay) device sized for a per-node share.
pub fn emulated_for(bytes: u64) -> Arc<NvmeDevice> {
    NvmeDevice::new(DeviceConfig::emulated_ramdisk(
        capacity_for(bytes),
        EMU_DELAY,
    ))
}

/// Mount DLFS on one local device with `readers` I/O threads sharing it
/// (the Fig. 6/7 single-node setup).
pub fn dlfs_local(
    rt: &Runtime,
    source: &SyntheticSource,
    cfg: DlfsConfig,
    readers: usize,
) -> DlfsInstance {
    dlfs::MountBuilder::new(cfg)
        .deployment(Deployment::local(readers, &[optane_for(source)]))
        .mount(rt, source)
        .expect("dlfs mount")
}

/// Mount DLFS across a disaggregated cluster.
///
/// When `readers == storage`, every node hosts both a reader and a device
/// (the paper's 2–16 node scalability setup; node i's device is local to
/// reader i). Otherwise, devices live on dedicated storage nodes appended
/// after the reader nodes (the Fig. 11 pool-of-devices setup).
pub fn dlfs_disagg(
    rt: &Runtime,
    readers: usize,
    storage: usize,
    source: &SyntheticSource,
    cfg: DlfsConfig,
) -> DlfsInstance {
    dlfs_disagg_chaos(rt, readers, storage, source, cfg).0
}

/// Like [`dlfs_disagg`], additionally returning the fabric and the raw
/// devices so chaos harnesses can attach fault injectors to both layers
/// after the (fault-free) mount.
pub fn dlfs_disagg_chaos(
    rt: &Runtime,
    readers: usize,
    storage: usize,
    source: &SyntheticSource,
    cfg: DlfsConfig,
) -> (DlfsInstance, Arc<Cluster>, Vec<Arc<NvmeDevice>>) {
    let total: u64 = (0..source.count() as u32).map(|i| source.size(i)).sum();
    let (deployment, cluster, devices) = disagg_deployment(readers, storage, total);
    let fs = dlfs::MountBuilder::new(cfg)
        .deployment(deployment)
        .mount(rt, source)
        .expect("dlfs mount");
    (fs, cluster, devices)
}

/// The wiring [`dlfs_disagg`] mounts: `storage` emulated devices, each
/// sized for its share of `dataset_bytes` plus layout/checkpoint headroom,
/// collocated with the readers when `readers == storage` and on the
/// cluster nodes after the readers otherwise. A clone of the deployment
/// serves an `import` and a later `remount` over the same devices.
pub fn disagg_deployment(
    readers: usize,
    storage: usize,
    dataset_bytes: u64,
) -> (Deployment, Arc<Cluster>, Vec<Arc<NvmeDevice>>) {
    let first_device = if readers == storage { 0 } else { readers };
    let nodes = first_device + storage;
    let cluster = Arc::new(Cluster::new(nodes, FabricConfig::default()));
    let per_node = dataset_bytes / storage as u64 + (64 << 10);
    let devices: Vec<Arc<NvmeDevice>> = (0..storage).map(|_| emulated_for(per_node * 2)).collect();
    let reader_nodes: Vec<usize> = (0..readers).collect();
    let device_nodes: Vec<usize> = (first_device..nodes).collect();
    let deployment = Deployment::fabric(&cluster, &reader_nodes, &device_nodes, &devices)
        .expect("every node inside the cluster");
    (deployment, cluster, devices)
}

/// Device capacity for an ext4 shard: files consume whole 4 KiB blocks,
/// and the inode table may occupy up to 1/8 of the device.
fn ext4_capacity(source: &SyntheticSource, reader: usize, readers: usize) -> u64 {
    let (mut blocks_bytes, mut files) = (0u64, 0u64);
    for i in 0..source.count() as u32 {
        if dlio::shard_of(i, readers) == reader {
            blocks_bytes += source.size(i).next_multiple_of(4096).max(4096);
            files += 1;
        }
    }
    let inode_region = (files * 256 * 10).max(32 << 20);
    capacity_for(blocks_bytes * 3 / 2 + inode_region)
}

/// Kernel-FS baseline on an Optane-class local device, staged with reader
/// `reader`'s shard (of `readers`). Returns (fs, staged files).
pub fn ext4_local(
    source: &SyntheticSource,
    reader: usize,
    readers: usize,
) -> (Arc<Ext4Fs>, Vec<(u32, String)>) {
    let dev = NvmeDevice::new(DeviceConfig::optane(ext4_capacity(source, reader, readers)));
    let fs = Ext4Fs::mkfs(dev, KernelCosts::default(), FsOptions::default());
    let staged = stage_ext4_untimed(&fs, source, reader, readers);
    (fs, staged)
}

/// Kernel-FS baseline over an emulated device (multi-node experiments).
pub fn ext4_emulated(
    source: &SyntheticSource,
    reader: usize,
    readers: usize,
) -> (Arc<Ext4Fs>, Vec<(u32, String)>) {
    let dev = NvmeDevice::new(DeviceConfig::emulated_ramdisk(
        ext4_capacity(source, reader, readers),
        EMU_DELAY,
    ));
    let fs = Ext4Fs::mkfs(dev, KernelCosts::default(), FsOptions::default());
    let staged = stage_ext4_untimed(&fs, source, reader, readers);
    (fs, staged)
}

/// Octopus-like baseline deployed over `nodes`, fully staged. Returns the
/// file system plus the (id, name) catalogue.
pub fn octopus_cluster(
    rt: &Runtime,
    nodes: usize,
    source: &SyntheticSource,
) -> (Arc<OctopusFs>, Vec<(u32, String)>) {
    let cluster = Arc::new(Cluster::new(nodes, FabricConfig::default()));
    let total: u64 = (0..source.count() as u32).map(|i| source.size(i)).sum();
    let cfg = DeviceConfig::emulated_ramdisk(capacity_for(total / nodes as u64 * 2), EMU_DELAY);
    let fs = OctopusFs::deploy(rt, cluster, &cfg);
    let staged = stage_octopus(rt, &fs, source);
    (fs, staged)
}

/// This reader's shard of an (id, name) catalogue.
pub fn shard_names(staged: &[(u32, String)], reader: usize, readers: usize) -> Vec<(u32, String)> {
    staged
        .iter()
        .filter(|(id, _)| dlio::shard_of(*id, readers) == reader)
        .cloned()
        .collect()
}

/// Sizes closure for a source (backends need it for buffer allocation).
pub fn sizer(source: &SyntheticSource) -> impl Fn(u32) -> u64 + Send + Clone + use<> {
    let sizes: Arc<Vec<u64>> =
        Arc::new((0..source.count() as u32).map(|i| source.size(i)).collect());
    move |id: u32| sizes[id as usize]
}
