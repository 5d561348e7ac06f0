//! `dlfs_fsck` — offline layout inspector for imported devices.
//!
//! Walks each device's superblock, metadata region and checkpoint stream
//! and prints a per-node report: commit state (clean / torn / corrupt /
//! unformatted), generation, entry count, checksum verdicts and
//! checkpoint-stream occupancy. `deep=1` also re-reads every data extent
//! and verifies the per-sample payload checksums. `codec=lz` imports a
//! compressible dataset through the LZ codec instead, so the same walk
//! reads a coded (version 2) layout: frame size and codec from each
//! superblock, frames packed back to back.
//!
//! The demo is simulation-hosted like everything else: it imports a
//! dataset, shows the clean report, crashes a re-import mid-flight to
//! show how a torn generation is surfaced, then heals and repairs.

use std::sync::Arc;

use blocksim::{FaultInjector, NvmeDevice, NvmeTarget};
use dlfs::{fsck_node, CodecKind, Deployment, DlfsConfig, FsckState, SyntheticSource};
use dlfs_bench::{arg, fmt_size, setup, Table, DEFAULT_SEED};
use simkit::prelude::*;

fn state_str(s: &FsckState) -> String {
    match s {
        FsckState::Unformatted(_) => "unformatted".into(),
        FsckState::Torn { generation } => format!("TORN (gen {generation})"),
        FsckState::Clean { generation } => format!("clean (gen {generation})"),
        FsckState::Corrupt { generation, what } => format!("CORRUPT gen {generation}: {what}"),
    }
}

fn report(devices: &[Arc<NvmeDevice>], deep: bool) {
    let mut t = Table::new(&[
        "node",
        "state",
        "entries",
        "meta crc",
        "data crc",
        "ckpts",
        "ckpt bytes",
    ]);
    for (n, d) in devices.iter().enumerate() {
        let target: Arc<dyn NvmeTarget> = d.clone();
        let r = fsck_node(&target, n as u16, deep);
        t.row(&[
            n.to_string(),
            state_str(&r.state),
            r.entries.to_string(),
            if r.meta_checksum_ok { "ok" } else { "BAD" }.to_string(),
            match r.data_checksum_ok {
                Some(true) => "ok".into(),
                Some(false) => "BAD".into(),
                None => "-".into(),
            },
            r.checkpoints.to_string(),
            fmt_size(r.checkpoint_bytes),
        ]);
    }
    t.print();
    println!();
}

fn main() {
    let seed: u64 = arg("seed", DEFAULT_SEED);
    let nodes: usize = arg("nodes", 3);
    let samples: usize = arg("samples", 1024);
    let size: u64 = arg("size", 16 << 10);
    let deep: bool = arg::<u64>("deep", 1) != 0;
    let repair: bool = arg::<u64>("repair", 1) != 0;
    let codec: CodecKind = arg("codec", CodecKind::Identity);

    let (source, coded) = match codec {
        CodecKind::Identity => (SyntheticSource::fixed(seed, samples, size), String::new()),
        CodecKind::Lz => {
            let source = SyntheticSource::compressible(seed, samples, size, 48);
            (source, format!(", codec {codec}"))
        }
    };
    println!("# dlfs_fsck: on-device layout inspection ({nodes} nodes{coded})\n");
    let base = DlfsConfig {
        codec,
        ..DlfsConfig::default()
    };
    Runtime::simulate(seed, |rt| {
        let devices: Vec<Arc<NvmeDevice>> = (0..nodes)
            .map(|_| setup::emulated_for(size * samples as u64))
            .collect();
        let deployment = Deployment::local(1, &devices);
        dlfs::MountBuilder::new(base.clone())
            .deployment(deployment.clone())
            .persistent()
            .mount(rt, &source)
            .expect("import");
        println!("## after import");
        report(&devices, deep);

        // Crash a re-import mid-flight: node 0 starts failing writes once
        // phase A has stamped every node with the new, uncommitted
        // generation. The import is collective, so that generation never
        // commits on any node — all report torn until repaired.
        let importer = {
            let dep = deployment.clone();
            let (source, base) = (source.clone(), base.clone());
            rt.spawn_with("crashing-reimport", move |rt| {
                dlfs::MountBuilder::new(base)
                    .deployment(dep)
                    .persistent()
                    .mount(rt, &source)
                    .err()
                    .map(|e| e.to_string())
            })
        };
        let torn = |(n, d): (usize, &Arc<NvmeDevice>)| {
            let target: Arc<dyn NvmeTarget> = d.clone();
            matches!(
                fsck_node(&target, n as u16, false).state,
                FsckState::Torn { .. }
            )
        };
        while !devices.iter().enumerate().all(torn) {
            rt.sleep(Dur::micros(1));
        }
        devices[0].set_faults(FaultInjector::new(seed).with_write_failures(1_000_000));
        let e = importer.join().expect("the re-import crashes");
        println!("re-import crashed as expected: {e}\n");
        println!("## after crashed re-import (uncommitted generation)");
        report(&devices, deep);

        // Heal and repair: a fresh import bumps the generation past the
        // torn one and recommits everywhere.
        devices[0].set_faults(FaultInjector::new(seed));
        dlfs::MountBuilder::new(base.clone())
            .deployment(deployment.clone())
            .persistent()
            .mount(rt, &source)
            .expect("repair import");
        println!("## after repair import");
        report(&devices, deep);

        if !repair {
            return;
        }
        // Deep repair from replicas: re-import with 2-way replication and
        // integrity tables, silently corrupt one node's data region, show
        // the deep scan catching it, then heal block-by-block from the
        // surviving replica until the deep scan is clean again.
        let cfg = DlfsConfig {
            replicas: 2.min(nodes),
            verify_reads: true,
            ..base
        };
        let fs = dlfs::MountBuilder::new(cfg)
            .deployment(deployment)
            .persistent()
            .mount(rt, &source)
            .expect("replicated import");
        let sb0 = fs.shared(0).layouts.as_ref().unwrap()[0].clone();
        devices[0].set_faults(
            FaultInjector::new(seed ^ 0x5C)
                .with_bit_flips(sb0.data_base / blocksim::BLOCK_SIZE, 64),
        );
        println!("## replicated import with silent bit flips on node 0");
        report(&devices, deep);
        let targets = &fs.shared(0).targets;
        let mut t = Table::new(&["node", "detected", "repaired", "unrepairable"]);
        for n in 0..nodes as u16 {
            let r = dlfs::fsck_repair(targets, n).expect("repair pass");
            t.row(&[
                n.to_string(),
                r.detected.to_string(),
                r.repaired.to_string(),
                r.unrepairable.to_string(),
            ]);
        }
        println!("## fsck_repair: healing from replica copies");
        t.print();
        println!();
        println!("## after repair from replicas");
        report(&devices, deep);
    });
}
