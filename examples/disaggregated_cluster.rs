//! A 16-node disaggregated cluster: every node runs a training reader and
//! exports its emulated NVMe device over NVMe-oF; DLFS serves all readers
//! from the whole pool. Compares aggregated throughput against the Ext4
//! and Octopus-like baselines on the same dataset.
//!
//! Run with: `cargo run --release --example disaggregated_cluster`

use dlfs_suite as _;

use dlfs::SampleSource;
use simkit::prelude::*;

fn main() {
    let nodes = 16usize;
    let sample_size = 4096u64;
    let per_node = 1000usize;
    let seed = 2019;

    // Same dataset for every system.
    let source = dlfs::SyntheticSource::fixed(seed, nodes * 4000, sample_size);
    println!(
        "cluster: {nodes} nodes, dataset {} x {} = {:.0} MB\n",
        source.count(),
        sample_size,
        (source.count() as u64 * sample_size) as f64 / 1e6
    );

    // NOTE: these helpers live in the benchmark harness crate; the example
    // wires the systems directly to show the public APIs.
    use blocksim::{DeviceConfig, NvmeDevice};
    use fabric::{Cluster, FabricConfig};
    use std::sync::Arc;

    // ---------------- DLFS over NVMe-oF.
    let (dlfs_rate, _) = Runtime::simulate(seed, |rt| {
        let cluster = Arc::new(Cluster::new(nodes, FabricConfig::default()));
        let devices: Vec<Arc<NvmeDevice>> = (0..nodes)
            .map(|_| NvmeDevice::new(DeviceConfig::emulated_ramdisk(64 << 20, Dur::micros(10))))
            .collect();
        // Reader r and device r share node r: each reader reaches its own
        // device directly and the other fifteen over NVMe-oF.
        let mesh: Vec<usize> = (0..nodes).collect();
        let deployment = dlfs::Deployment::fabric(&cluster, &mesh, &mesh, &devices).unwrap();
        let fs = Arc::new(
            dlfs::MountBuilder::new(dlfs::DlfsConfig::default())
                .deployment(deployment)
                .mount(rt, &source)
                .unwrap(),
        );
        // All readers pull their slices concurrently.
        let start = rt.now();
        let handles: Vec<_> = (0..nodes)
            .map(|r| {
                let fs = fs.clone();
                rt.spawn_with(&format!("reader{r}"), move |rt| {
                    let mut io = fs.io(r);
                    io.sequence(rt, seed, 0);
                    let mut got = 0usize;
                    while got < per_node {
                        match io.submit(rt, &dlfs::ReadRequest::batch(32)) {
                            Ok(b) => got += b.len(),
                            Err(_) => break,
                        }
                    }
                    got
                })
            })
            .collect();
        let total: usize = handles.into_iter().map(|h| h.join()).sum();
        total as f64 / (rt.now() - start).as_secs_f64()
    });

    // ---------------- Ext4 baseline: each node reads its local shard.
    let (ext4_rate, _) = Runtime::simulate(seed, |rt| {
        use kernsim::{Ext4Fs, FsOptions, KernelCosts};
        let start = rt.now();
        let handles: Vec<_> = (0..nodes)
            .map(|r| {
                let source = source.clone();
                rt.spawn_with(&format!("ext4-{r}"), move |rt| {
                    let dev =
                        NvmeDevice::new(DeviceConfig::emulated_ramdisk(256 << 20, Dur::micros(10)));
                    let fs = Ext4Fs::mkfs(dev, KernelCosts::default(), FsOptions::default());
                    let staged = dlio::stage_ext4_untimed(&fs, &source, r, nodes);
                    let mut rng = simkit::rng::SplitMix64::derive(seed, r as u64);
                    let order = rng.permutation(staged.len());
                    let mut buf = vec![0u8; sample_size as usize];
                    for &i in order.iter().take(per_node) {
                        let (_, path) = &staged[i as usize];
                        let fd = fs.open(rt, path).unwrap();
                        fs.pread(rt, fd, 0, &mut buf).unwrap();
                        fs.close(rt, fd).unwrap();
                    }
                    per_node
                })
            })
            .collect();
        let total: usize = handles.into_iter().map(|h| h.join()).sum();
        total as f64 / (rt.now() - start).as_secs_f64()
    });

    // ---------------- Octopus-like baseline.
    let (octo_rate, _) = Runtime::simulate(seed, |rt| {
        let cluster = Arc::new(Cluster::new(nodes, FabricConfig::default()));
        let cfg = DeviceConfig::emulated_ramdisk(128 << 20, Dur::micros(10));
        let fs = octofs::OctopusFs::deploy(rt, cluster, &cfg);
        let staged = dlio::stage_octopus(rt, &fs, &source);
        let start = rt.now();
        let handles: Vec<_> = (0..nodes)
            .map(|r| {
                let fs = fs.clone();
                let shard: Vec<String> = staged
                    .iter()
                    .filter(|(id, _)| dlio::shard_of(*id, nodes) == r)
                    .map(|(_, n)| n.clone())
                    .collect();
                rt.spawn_with(&format!("octo-{r}"), move |rt| {
                    let mut buf = vec![0u8; sample_size as usize];
                    for name in shard.iter().take(per_node) {
                        fs.read(rt, r, name, &mut buf).unwrap();
                    }
                    per_node.min(shard.len())
                })
            })
            .collect();
        let total: usize = handles.into_iter().map(|h| h.join()).sum();
        total as f64 / (rt.now() - start).as_secs_f64()
    });

    println!(
        "aggregated random-read throughput ({}B samples):",
        sample_size
    );
    println!("  DLFS    : {:>12.0} samples/s", dlfs_rate);
    println!(
        "  Ext4    : {:>12.0} samples/s   (DLFS is {:.1}x)",
        ext4_rate,
        dlfs_rate / ext4_rate
    );
    println!(
        "  Octopus : {:>12.0} samples/s   (DLFS is {:.1}x)",
        octo_rate,
        dlfs_rate / octo_rate
    );
}
