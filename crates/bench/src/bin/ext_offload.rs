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
//! targets. Reported per cell: the import (`mount`) on its own — its time
//! and the bytes it put through the reader's NIC — then, counted from the
//! end of `mount`, epoch time, samples/s, the *measured* fabric byte ledger
//! at the reader's NIC (`Cluster::node_traffic`), the bytes the epoch read
//! off the devices (a coded epoch reads runs of frames), and how close the epoch
//! came to its wire roofline (reader ingress bytes ÷ NIC rate, as a share
//! of the epoch time). An import saving (a coded import ships only what
//! the codec kept) therefore cannot pass as an epoch saving.
//!
//! Built-in assertions (CI runs this as a smoke test):
//! - every delivered payload is byte-identical to the source, every cell;
//! - same seed ⇒ bit-identical epoch time and byte ledger (determinism);
//! - offloaded epochs move strictly fewer epoch fabric bytes than the raw
//!   client path at every NIC setting (byte counts are NIC-independent);
//! - up to [`WIRE_BOUND_GBPS`] an offloaded epoch runs within 5 % of its
//!   wire roofline: the path issues its next exchange before it waits for
//!   the current one, so the reader's NIC never idles between batches.
//!
//! Reported, not asserted: offload *throughput* against the raw client
//! path. At the wire-bound settings both paths saturate the NIC and
//! offload wins by the bytes it does not move; above them the rows are
//! upper bounds, because an offloaded epoch is charged no client CPU at
//! all and only the target bounds it (EXPERIMENTS.md, "three regimes").

use std::sync::Arc;

use blocksim::NvmeDevice;
use dlfs::source::SampleSource;
use dlfs::{
    CodecKind, Completions, Deployment, DlfsConfig, DlfsError, DlfsInstance, ReadRequest,
    SyntheticSource,
};
use dlfs_bench::{arg, fmt_size, fmt_sps, setup, Table, DEFAULT_SEED};
use fabric::{Cluster, FabricConfig};
use simkit::prelude::*;

/// NIC settings (GB/s) up to which the reader's wire bounds an offloaded
/// epoch of this grid, so the roofline share is asserted; above it the
/// target's reads and decode are the bound.
const WIRE_BOUND_GBPS: f64 = 1.6;

#[derive(Clone, Copy)]
struct Cell {
    /// The `mount`: its time and its bytes through the reader's NIC.
    import_ns: u64,
    import_bytes: u64,
    epoch_ns: u64,
    sps: f64,
    /// Bytes through the reader's NIC during the epoch alone.
    fabric_bytes: u64,
    /// Bytes the epoch read off the devices.
    device_bytes: u64,
    /// Wire time of the reader's ingress bytes as a percentage of the epoch.
    wire_roofline_pct: f64,
}

/// One reader on the last cluster node, `nodes` remote NVMe-oF targets.
fn mount_disagg(
    rt: &Runtime,
    nodes: usize,
    nic_bytes_per_sec: f64,
    source: &dyn SampleSource,
    cfg: DlfsConfig,
) -> (DlfsInstance, Arc<Cluster>, Vec<Arc<NvmeDevice>>) {
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
    let device_nodes: Vec<usize> = (0..nodes).collect();
    let deployment = Deployment::fabric(&cluster, &[nodes], &device_nodes, &devices);
    let fs = dlfs::MountBuilder::new(cfg)
        .deployment(deployment.expect("every node inside the cluster"))
        .mount(rt, source)
        .expect("dlfs mount");
    (fs, cluster, devices)
}

fn run(
    seed: u64,
    nodes: usize,
    nic: f64,
    codec: CodecKind,
    offload: bool,
    batch: usize,
    comp: &SyntheticSource,
) -> Cell {
    let (cell, _) = Runtime::simulate(seed, |rt| {
        let cfg = DlfsConfig {
            chunk_size: 8 * 1024,
            codec,
            offload: true,
            ..DlfsConfig::default()
        };
        let start = rt.now();
        let (fs, cluster, devices) = mount_disagg(rt, nodes, nic, comp, cfg);
        let import_ns = (rt.now() - start).as_nanos();
        let (tx0, rx0) = cluster.node_traffic(nodes);
        let read = || devices.iter().map(|d| d.stats().2).sum::<u64>();
        let read0 = read();
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
            import_ns,
            import_bytes: tx0 + rx0,
            epoch_ns: (rt.now() - t0).as_nanos(),
            sps: got as f64 / secs,
            fabric_bytes: tx + rx - tx0 - rx0,
            device_bytes: read() - read0,
            wire_roofline_pct: 100.0 * ((rx - rx0) as f64 / nic) / secs,
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

    let comp = SyntheticSource::compressible(seed ^ 0x0C, samples, size, motif);
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
        "import_ms",
        "import",
        "epoch_ms",
        "samples/s",
        "fabric",
        "dev_read",
        "vs_raw",
        "wire_roof",
    ]);
    // The raw and the offload+lz cell of the first (most fabric-bound) NIC.
    let mut lowest = None;
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
                assert!(
                    g > WIRE_BOUND_GBPS || cell.wire_roofline_pct >= 95.0,
                    "offloaded epoch at {:.1}% of its wire roofline ({codec} at {g} GB/s)",
                    cell.wire_roofline_pct
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
                format!("{:.3}", cell.import_ns as f64 / 1e6),
                fmt_size(cell.import_bytes),
                format!("{:.3}", cell.epoch_ns as f64 / 1e6),
                fmt_sps(cell.sps),
                fmt_size(cell.fabric_bytes),
                fmt_size(cell.device_bytes),
                format!("{:+.1}%", 100.0 * (cell.sps / raw.sps - 1.0)),
                format!("{:.1}%", cell.wire_roofline_pct),
            ]);
            if lowest.is_none() && offload && codec == CodecKind::Lz {
                lowest = Some((raw, cell));
            }
        }
    }
    let (raw, best) = lowest.expect("nics= names at least one setting");
    t.print();
    println!("\n# csv\n{}", t.csv());

    // Determinism: the most fabric-bound offload cell, replayed bit-for-bit.
    let nic = nic_gbps[0] * 1e9;
    let again = run(seed, nodes, nic, CodecKind::Lz, true, batch, &comp);
    assert_eq!(
        best.epoch_ns, again.epoch_ns,
        "same seed must replay identically"
    );
    assert_eq!(
        best.fabric_bytes, again.fabric_bytes,
        "byte ledger must replay"
    );
    println!(
        "determinism: replayed epoch bit-identical ({} ns, {} fabric bytes)",
        best.epoch_ns, best.fabric_bytes
    );

    // The byte inequality (offload < raw) and the roofline share were
    // asserted per cell in the sweep above; throughput against the raw path
    // is reported only.
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
