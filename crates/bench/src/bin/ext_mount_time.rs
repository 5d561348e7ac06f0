//! Extension experiment: job-start time vs node count — ephemeral mount,
//! cold import and warm remount.
//!
//! The paper describes the mount collective (§III-B2: parallel upload from
//! the PFS + allgather of the per-node AVL trees) but never measures it.
//! Staging cost matters because it is paid at every job start. The
//! persistent layout changes that economics: `import` pays the staging
//! pass once (plus the metadata/superblock writes), and every later job
//! start is a `remount` — metadata reads only, no PFS traffic, no data
//! writes. This sweep puts the three job-start paths side by side, fed by
//! a shared 20 GB/s Lustre-class backend.

use dlfs::{DlfsConfig, SampleSource};
use dlfs_bench::{arg, fmt_size, setup, Table, DEFAULT_SEED};
use simkit::prelude::*;

fn main() {
    let seed: u64 = arg("seed", DEFAULT_SEED);
    let total_mb: u64 = arg("total_mb", 512);
    let sample: u64 = arg("sample", 64 << 10);
    let max_nodes: usize = arg("max_nodes", 16);

    println!(
        "# Extension: job-start time vs nodes ({} dataset, {} samples, PFS-fed)\n",
        fmt_size(total_mb << 20),
        fmt_size(sample)
    );
    let source = setup::fixed_source(seed, sample, total_mb << 20, 1 << 20);
    let dataset_bytes: u64 = (0..source.count() as u32).map(|i| source.size(i)).sum();

    let mut t = Table::new(&[
        "nodes",
        "mount (ephemeral)",
        "cold import",
        "warm remount",
        "warm speedup",
    ]);
    for nodes in [1usize, 2, 4, 8, 16] {
        if nodes > max_nodes {
            break;
        }
        // All three paths in one simulation so import and remount see the
        // same devices: the remount reads exactly what the import wrote.
        let ((mount_s, cold_s, warm_s), _) = Runtime::simulate(seed, |rt| {
            let (mesh, ..) = setup::disagg_deployment(nodes, nodes, dataset_bytes);
            let pfs = || Link::new(20e9, Dur::ZERO);

            let t0 = rt.now();
            let eph = dlfs::MountBuilder::new(DlfsConfig::default())
                .deployment(mesh.clone())
                .pfs(pfs())
                .mount(rt, &source)
                .expect("mount");
            let mount_s = (rt.now() - t0).as_secs_f64();
            drop(eph);

            let t1 = rt.now();
            let fs = dlfs::MountBuilder::new(DlfsConfig::default())
                .deployment(mesh.clone())
                .pfs(pfs())
                .persistent()
                .mount(rt, &source)
                .expect("import");
            let cold_s = (rt.now() - t1).as_secs_f64();
            drop(fs);

            let t2 = rt.now();
            let warm = dlfs::MountBuilder::new(DlfsConfig::default())
                .deployment(mesh)
                .warm()
                .remount(rt)
                .expect("remount");
            let warm_s = (rt.now() - t2).as_secs_f64();
            drop(warm);
            (mount_s, cold_s, warm_s)
        });
        t.row(&[
            nodes.to_string(),
            format!("{:.1} ms", mount_s * 1e3),
            format!("{:.1} ms", cold_s * 1e3),
            format!("{:.2} ms", warm_s * 1e3),
            format!("{:.0}x", cold_s / warm_s),
        ]);
    }
    t.print();
    println!();
    println!("cold import ~= ephemeral mount plus the layout writes (superblock,");
    println!("metadata region, two-phase commit); the warm remount reads only the");
    println!("per-node metadata — no PFS traffic, no data writes — so it stays");
    println!("near-constant while the cold paths scale with the dataset share.");

    // Pool of devices (paper Fig. 11): ONE reader stages the same dataset
    // onto n NVMe-oF devices. Its upload stream interleaves the n per-node
    // streams, so all n devices fill at once and the mount runs at
    // min(n x device rate, reader NIC) instead of one device's rate.
    println!("\n## Pool of devices: 1 reader staging onto n NVMe-oF devices (pre-staged source)\n");
    let device_gbps = setup::emulated_for(1 << 20).config().bytes_per_sec / 1e9;
    let nic_gbps = fabric::FabricConfig::default().nic_bytes_per_sec / 1e9;
    let mut t = Table::new(&["devices", "mount", "staging rate", "hardware bound"]);
    for devices in [1usize, 2, 4, 8] {
        if devices > max_nodes {
            break;
        }
        let (mount_s, _) = Runtime::simulate(seed, |rt| {
            setup::dlfs_disagg(rt, 1, devices, &source, DlfsConfig::default());
            rt.now().as_secs_f64()
        });
        t.row(&[
            devices.to_string(),
            format!("{:.1} ms", mount_s * 1e3),
            format!("{:.2} GB/s", dataset_bytes as f64 / mount_s / 1e9),
            format!("{:.1} GB/s", nic_gbps.min(devices as f64 * device_gbps)),
        ]);
    }
    t.print();
}
