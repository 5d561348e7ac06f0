//! Extension: storage-side offload × transparent chunk compression, swept
//! against NIC bandwidth.
//!
//! The paper's Fig. 11 single-client curve bends where the NIC (~6.8 GB/s)
//! stops absorbing the aggregate device bandwidth; below that crossover the
//! fabric — not the devices — bounds a remote epoch. This harness measures
//! what storage-side offload buys in exactly that regime: the target reads,
//! verifies and decodes the stored (optionally LZ-compressed) chunk frames
//! locally and ships ONE dense response per node per mini-batch carrying
//! exactly the requested sample bytes — no per-command capsule/response
//! pairs, no block padding — with decode charged to the target's compute
//! pool instead of the trainer.
//!
//! Grid: NIC bandwidth × codec {identity, lz} × path {client, offload},
//! one reader on its own cluster node against `nodes` remote NVMe-oF
//! targets. Reported per cell: epoch time, samples/s, and the *measured*
//! fabric byte ledger at the reader's NIC (`Cluster::node_traffic`).
//!
//! Built-in assertions (CI runs this as a smoke test):
//! - every delivered payload is byte-identical to the source, every cell;
//! - same seed ⇒ bit-identical epoch time and byte ledger (determinism);
//! - offloaded epochs move strictly fewer fabric bytes than the raw
//!   client path at every NIC setting (byte counts are NIC-independent);
//!
//! Reported, not asserted: offload+lz *throughput* against the raw client
//! path at the lowest (most fabric-bound) NIC setting. Offload won there
//! while whole-chunk fetch items made the raw path read edge-sample bytes
//! twice, and trails by a few percent now that every fetch item covers
//! exactly its samples (EXPERIMENTS.md, "three regimes").

use std::sync::Arc;

use blocksim::{NvmeDevice, NvmeTarget};
use dlfs::source::SampleSource;
use dlfs::{
    CodecKind, Completions, CompressibleSource, Deployment, DlfsConfig, DlfsError, DlfsInstance,
    ReadRequest,
};
use dlfs_bench::{arg, fmt_size, fmt_sps, setup, Table, DEFAULT_SEED};
use fabric::{Cluster, FabricConfig, NvmeOfTarget, TargetConfig};
use simkit::prelude::*;

#[derive(Clone, Copy)]
struct Cell {
    epoch_ns: u64,
    sps: f64,
    fabric_bytes: u64,
}

/// One reader on the last cluster node, `nodes` remote NVMe-oF targets.
fn mount_disagg(
    rt: &Runtime,
    nodes: usize,
    nic_bytes_per_sec: f64,
    source: &dyn SampleSource,
    cfg: DlfsConfig,
) -> (DlfsInstance, Arc<Cluster>) {
    let cluster = Arc::new(Cluster::new(
        nodes + 1,
        FabricConfig {
            nic_bytes_per_sec,
            ..FabricConfig::default()
        },
    ));
    let total: u64 = (0..source.count() as u32).map(|i| source.size(i)).sum();
    let devices: Vec<Arc<NvmeDevice>> = (0..nodes)
        .map(|_| setup::emulated_for(total / nodes as u64 * 2))
        .collect();
    let targets: Vec<Vec<Arc<dyn NvmeTarget>>> = vec![devices
        .iter()
        .enumerate()
        .map(|(node, d)| {
            fabric::connect(
                cluster.clone(),
                nodes, // the reader lives on the last cluster node
                NvmeOfTarget::new(node, d.clone(), TargetConfig::default()),
            ) as Arc<dyn NvmeTarget>
        })
        .collect()];
    let fs = dlfs::MountBuilder::new(cfg)
        .deployment(Deployment {
            targets,
            cluster: Some(cluster.clone()),
        })
        .mount(rt, source)
        .expect("dlfs mount");
    (fs, cluster)
}

fn run(
    seed: u64,
    nodes: usize,
    nic: f64,
    codec: CodecKind,
    offload: bool,
    batch: usize,
    comp: &CompressibleSource,
) -> Cell {
    let (cell, _) = Runtime::simulate(seed, |rt| {
        let cfg = DlfsConfig {
            chunk_size: 8 * 1024,
            codec,
            offload: true,
            ..DlfsConfig::default()
        };
        let (fs, cluster) = mount_disagg(rt, nodes, nic, comp, cfg);
        let mut io = fs.io(0);
        let total = io.sequence(rt, seed ^ 0x0F, 0);
        let t0 = rt.now();
        let req = if offload {
            ReadRequest::batch(batch).offload()
        } else {
            ReadRequest::batch(batch)
        };
        let mut got = 0usize;
        loop {
            match io.submit(rt, &req).map(Completions::into_copied) {
                Ok(b) => {
                    for (id, data) in b {
                        assert_eq!(data, comp.expected(id), "sample {id} corrupted");
                        got += 1;
                    }
                }
                Err(DlfsError::EpochExhausted) => break,
                Err(e) => panic!("epoch failed: {e}"),
            }
        }
        assert_eq!(got, total, "epoch must deliver every sample exactly once");
        let secs = (rt.now() - t0).as_secs_f64();
        let (tx, rx) = cluster.node_traffic(nodes);
        Cell {
            epoch_ns: (rt.now() - t0).as_nanos(),
            sps: got as f64 / secs,
            fabric_bytes: tx + rx,
        }
    });
    cell
}

fn main() {
    let seed: u64 = arg("seed", DEFAULT_SEED);
    let samples: usize = arg("samples", 2000);
    let size: u64 = arg("size", 2600);
    let motif: usize = arg("motif", 48);
    let nodes: usize = arg("nodes", 4);
    let batch: usize = arg("batch", 32);
    let nics: String = arg("nics", "0.8,1.6,3.2,6.8".to_string());
    let nic_gbps: Vec<f64> = nics
        .split(',')
        .map(|s| s.trim().parse::<f64>().expect("nics=G,G,..."))
        .collect();

    let comp = CompressibleSource::fixed(seed ^ 0x0C, samples, size, motif);
    let dataset: u64 = (0..comp.count() as u32).map(|i| comp.size(i)).sum();
    println!(
        "# ext_offload: storage-side offload x chunk compression, {} samples x {} ({} dataset), \
         {} storage nodes, batch {}\n",
        samples,
        fmt_size(size),
        fmt_size(dataset),
        nodes,
        batch
    );

    let grid = [
        (CodecKind::Identity, false, "client"),
        (CodecKind::Lz, false, "client"),
        (CodecKind::Identity, true, "offload"),
        (CodecKind::Lz, true, "offload"),
    ];
    let mut t = Table::new(&[
        "nic_GB/s",
        "codec",
        "path",
        "epoch_ms",
        "samples/s",
        "fabric",
        "vs_raw",
    ]);
    let mut lowest: Vec<(&str, Cell)> = Vec::new();
    for &g in &nic_gbps {
        let nic = g * 1e9;
        let raw = run(seed, nodes, nic, CodecKind::Identity, false, batch, &comp);
        for (codec, offload, path) in grid {
            let cell = if codec == CodecKind::Identity && !offload {
                raw // same parameters, deterministic: reuse the run
            } else {
                run(seed, nodes, nic, codec, offload, batch, &comp)
            };
            if offload {
                assert!(
                    cell.fabric_bytes < raw.fabric_bytes,
                    "offload must move strictly fewer fabric bytes than the raw path \
                     ({} vs {} at {g} GB/s)",
                    cell.fabric_bytes,
                    raw.fabric_bytes
                );
            }
            let codec_name = match codec {
                CodecKind::Identity => "identity",
                CodecKind::Lz => "lz",
            };
            t.row(&[
                format!("{g:.1}"),
                codec_name.to_string(),
                path.to_string(),
                format!("{:.3}", cell.epoch_ns as f64 / 1e6),
                fmt_sps(cell.sps),
                fmt_size(cell.fabric_bytes),
                format!("{:+.1}%", 100.0 * (cell.sps / raw.sps - 1.0)),
            ]);
            if g == nic_gbps[0] {
                let label = if offload {
                    if codec == CodecKind::Lz {
                        "offload+lz"
                    } else {
                        "offload"
                    }
                } else {
                    path
                };
                lowest.push((label, cell));
            }
        }
    }
    t.print();
    println!("\n# csv\n{}", t.csv());

    // Determinism: the most fabric-bound offload cell, replayed bit-for-bit.
    let a = run(
        seed,
        nodes,
        nic_gbps[0] * 1e9,
        CodecKind::Lz,
        true,
        batch,
        &comp,
    );
    let b = run(
        seed,
        nodes,
        nic_gbps[0] * 1e9,
        CodecKind::Lz,
        true,
        batch,
        &comp,
    );
    assert_eq!(a.epoch_ns, b.epoch_ns, "same seed must replay identically");
    assert_eq!(a.fabric_bytes, b.fabric_bytes, "byte ledger must replay");
    println!(
        "determinism: replayed epoch bit-identical ({} ns, {} fabric bytes)",
        a.epoch_ns, a.fabric_bytes
    );

    // Below the crossover: the byte inequality (offload < raw) was asserted
    // per cell in the sweep above; the throughput comparison is reported
    // only — offload's old lead there was the raw path's read amplification.
    let raw = &lowest.iter().find(|(l, _)| *l == "client").unwrap().1;
    let best = &lowest.iter().find(|(l, _)| *l == "offload+lz").unwrap().1;
    println!(
        "crossover check @ {:.1} GB/s: offload+lz {} fabric bytes vs raw {} ({:.1}% fewer), \
         {} vs {} ({:+.1}%)",
        nic_gbps[0],
        fmt_size(best.fabric_bytes),
        fmt_size(raw.fabric_bytes),
        100.0 * (1.0 - best.fabric_bytes as f64 / raw.fabric_bytes as f64),
        fmt_sps(best.sps),
        fmt_sps(raw.sps),
        100.0 * (best.sps / raw.sps - 1.0)
    );
    println!("ext_offload OK");
}
