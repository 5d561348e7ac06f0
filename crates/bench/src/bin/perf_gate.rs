//! Performance-trajectory gate: a pinned-seed suite whose metrics are
//! exact (virtual time, deterministic schedules), emitted as
//! `BENCH_<rev>.json` and compared against a committed baseline.
//!
//! Metrics:
//! - `epoch_throughput_sps` — batched copied delivery, one full epoch,
//!   samples per virtual second (higher is better);
//! - `verified_epoch_throughput_sps` — the same epoch with per-block
//!   checksum verification (`verify_reads`) on; the gate asserts inline
//!   that the verification tax stays within 10% of the unverified run;
//! - `p99_read_latency_ns` — synchronous single-sample reads, 99th
//!   percentile virtual latency (lower is better);
//! - `warm_remount_ns` — persistent-layout warm remount time (lower is
//!   better);
//! - `reactor_wakeups_per_epoch` — event-loop wakeups taken to drain one
//!   epoch (lower is better: fewer wakeups = better completion
//!   coalescing);
//! - `degraded_p99_read_latency_ns` — synchronous single-sample reads
//!   with one storage node declared Dead, replicas serving its homes
//!   (lower is better: the cost of routing around a lost target);
//! - `rebuild_time_ns` — virtual time from `begin_rebuild` to full
//!   redundancy restored onto a fresh replacement, rebuilding
//!   cooperatively while a foreground epoch drains (lower is better);
//! - `offload_epoch_throughput_sps` — one epoch of storage-side offloaded
//!   batches (`ReadRequest::offload`) over LZ-compressed chunks against
//!   four remote NVMe-oF targets on a fabric-bound 1 GB/s NIC, samples
//!   per virtual second (higher is better); the gate asserts inline that
//!   the offloaded epoch moves no more fabric bytes than the raw client
//!   path on the same wiring (both paths keep the NIC busy, so the fewer
//!   bytes also make it the faster of the two here) — epoch bytes only,
//!   counted from the end of `mount`, so an import saving cannot pass as
//!   an epoch saving;
//! - `coded_setup_ns` and `coded_stored_ratio` — the LZ `mount` behind
//!   that run: its time, and device bytes written ÷ source bytes (both
//!   lower is better; a coded import lands each frame's encoded bytes and
//!   leaves the rest of its slot a hole, so the ratio is the codec's, and
//!   the gate asserts inline that it stays under 0.2);
//! - `disagg_epoch_throughput_sps` — one reader draining an epoch of
//!   100–130 KB samples from four NVMe-oF targets, samples per virtual
//!   second (higher is better); the gate asserts inline that the run is
//!   wire-bound at the reader's NIC, the regime where bytes fetched per
//!   sample — not CPU per sample — set the throughput;
//! - `read_amplification` — device bytes read ÷ payload bytes delivered
//!   on that same run (lower is better; 1.0 plus block alignment when
//!   every fetch item covers exactly its samples);
//! - `disagg_setup_ns` — the `mount` that precedes that run: one reader
//!   staging the dataset onto its four NVMe-oF targets (lower is better;
//!   bounded by the reader NIC when all four devices fill at once);
//! - `sharded_lookup_p99_ns` — 99th-percentile end-to-end locate+fetch
//!   latency through the locality-sharded metadata service, 256 clients
//!   on 8 storage nodes (lower is better);
//! - `multitenant_fair_share_err` — max absolute deviation of a
//!   1:2:4-weighted tenant mix from its weight shares under WFQ slot
//!   contention (lower is better); the gate asserts inline that it stays
//!   within the 5% fairness budget;
//! - `sync_read_busy_ns` — the reader's busy CPU per `read_by_id` of
//!   IMDB-sized samples from four NVMe-oF targets (lower is better): the
//!   trainer CPU a synchronous read costs, most of it its wait.
//!
//! Usage:
//!
//! ```text
//! perf_gate rev=<id> [out=<dir>] [baseline=<file>] [tolerance=0.10]
//! ```
//!
//! With `baseline=`, exits 1 when any metric regresses beyond the
//! tolerance fraction in its bad direction or is missing from the
//! baseline, and 2 when the baseline (or `out=`) cannot be read (written).
//! Because every metric is
//! deterministic, a clean run reproduces the baseline bit-for-bit; the
//! tolerance only absorbs *intentional* small shifts, not noise.

use std::sync::Arc;

use blocksim::{DeviceConfig, NvmeDevice, NvmeTarget};
use dlfs::{CodecKind, Deployment, DlfsConfig, ReadRequest, SampleSource, SyntheticSource};
use dlfs_bench::{arg, setup, DEFAULT_SEED};
use fabric::{Cluster, FabricConfig};
use simkit::prelude::*;

fn epoch_throughput_and_wakeups(seed: u64, verify: bool) -> (f64, u64) {
    Runtime::simulate(seed, |rt| {
        let source = SyntheticSource::fixed(seed, 4000, 2048);
        let cfg = DlfsConfig {
            reactor_stats: true,
            verify_reads: verify,
            ..DlfsConfig::default()
        };
        let fs = dlfs::MountBuilder::new(cfg)
            .local(setup::optane_for(&source))
            .mount(rt, &source)
            .unwrap();
        let mut io = fs.io(0);
        let total = io.sequence(rt, 7, 0);
        let t0 = rt.now();
        let mut got = 0usize;
        while got < total {
            got += io.submit(rt, &ReadRequest::batch(48)).unwrap().len();
        }
        let secs = (rt.now() - t0).as_secs_f64();
        let wakeups = io.metrics().counter("dlfs.reactor.wakeups");
        (got as f64 / secs, wakeups)
    })
    .0
}

fn p99_read_latency(seed: u64) -> u64 {
    Runtime::simulate(seed, |rt| {
        let source = SyntheticSource::fixed(seed, 2000, 4096);
        let fs = dlfs::MountBuilder::new(DlfsConfig::default())
            .local(setup::optane_for(&source))
            .mount(rt, &source)
            .unwrap();
        let mut io = fs.io(0);
        let mut lat: Vec<u64> = Vec::new();
        for id in 0..512u32 {
            let t0 = rt.now();
            io.read_by_id(rt, id).unwrap();
            lat.push((rt.now() - t0).as_nanos());
        }
        lat.sort_unstable();
        lat[(lat.len() * 99) / 100]
    })
    .0
}

fn warm_remount(seed: u64) -> u64 {
    Runtime::simulate(seed, |rt| {
        let source = SyntheticSource::fixed(seed, 1000, 8192);
        let dev = setup::optane_for(&source);
        let cold = dlfs::MountBuilder::new(DlfsConfig::default())
            .local(dev.clone())
            .persistent()
            .mount(rt, &source)
            .unwrap();
        drop(cold);
        let t0 = rt.now();
        let _warm = dlfs::MountBuilder::new(DlfsConfig::default())
            .local(dev)
            .warm()
            .remount(rt)
            .unwrap();
        (rt.now() - t0).as_nanos()
    })
    .0
}

/// Kill one of three replicated storage nodes mid-epoch, let the
/// membership view escalate it to Dead, then measure (a) the synchronous
/// read tail while replicas serve the dead node's homes and (b) how long
/// restoring full redundancy onto a factory-fresh replacement takes while
/// a foreground epoch drains (cooperative `rebuild_step` quanta between
/// batches). Fully deterministic; runs in its own simulation so the
/// legacy metrics above stay bit-identical.
fn degraded_and_rebuild(seed: u64) -> (u64, u64) {
    const DEV_BYTES: u64 = 64 << 20;
    Runtime::simulate(seed, |rt| {
        let source = SyntheticSource::fixed(seed ^ 0x8E, 1000, 2048);
        let cfg = DlfsConfig {
            chunk_size: 8 * 1024,
            replicas: 2,
            verify_reads: true,
            fail_dead_after: Some(Dur::micros(300)),
            rebuild_gap_blocks: 128,
            ..DlfsConfig::default()
        };
        let devices: Vec<Arc<NvmeDevice>> = (0..3)
            .map(|_| NvmeDevice::new(DeviceConfig::emulated_ramdisk(DEV_BYTES, Dur::micros(10))))
            .collect();
        let fs = dlfs::MountBuilder::new(cfg)
            .deployment(Deployment::local(1, &devices))
            .persistent()
            .mount(rt, &source)
            .unwrap();
        let red = fs.redundancy().expect("redundancy built").clone();
        let mut io = fs.io(0);

        // Epoch 0: node 1 dies permanently a quarter of the way in.
        let total = io.sequence(rt, seed ^ 0x51, 0);
        let mut got = 0usize;
        while got < total {
            got += io.submit(rt, &ReadRequest::batch(32)).unwrap().len();
            if got >= total / 4 {
                devices[1].kill();
            }
        }
        assert!(red.is_dead(1), "sustained outage must escalate to Dead");

        // Degraded tail: synchronous reads, replicas covering node 1.
        let mut lat: Vec<u64> = Vec::new();
        for id in 0..512u32 {
            let t0 = rt.now();
            io.read_by_id(rt, id).unwrap();
            lat.push((rt.now() - t0).as_nanos());
        }
        lat.sort_unstable();
        let degraded_p99 = lat[(lat.len() * 99) / 100];

        // Fresh replacement under the same index; rebuild rides along a
        // foreground epoch, `rebuild_gap_blocks` after every batch.
        devices[1].revive();
        devices[1].dma_write(0, &vec![0u8; DEV_BYTES as usize]);
        let t_begin = rt.now();
        let planned = io.begin_rebuild(1).unwrap();
        assert!(planned > 0, "a dead node's slots are never empty here");
        let total = io.sequence(rt, seed ^ 0x51, 1);
        let mut got = 0usize;
        let mut t_done = None;
        while got < total {
            got += io.submit(rt, &ReadRequest::batch(32)).unwrap().len();
            if io.rebuild_active() {
                io.rebuild_step(128);
                if !io.rebuild_active() {
                    t_done = Some(rt.now());
                }
            }
        }
        io.drive_rebuild();
        let rebuild_ns = (t_done.unwrap_or_else(|| rt.now()) - t_begin).as_nanos();
        assert!(!red.is_dead(1), "rebuilt node must rejoin");
        (degraded_p99, rebuild_ns)
    })
    .0
}

/// One epoch of offloaded, LZ-compressed batches over a fabric-bound
/// NVMe-oF pool (reader on its own node, four remote targets, 1 GB/s
/// NICs), compared inline against the raw client path on the same
/// wiring. Its own simulation, so the legacy metrics stay bit-identical.
fn offload_epoch_throughput(seed: u64) -> (f64, u64, f64) {
    const NODES: usize = 4;
    /// (samples/s, epoch bytes through the reader's NIC both ways, mount ns,
    /// device bytes written per source byte, epoch device read commands).
    fn epoch(seed: u64, codec: CodecKind, offload: bool) -> (f64, u64, u64, f64, u64) {
        Runtime::simulate(seed, |rt| {
            let source = SyntheticSource::compressible(seed ^ 0x0C, 2000, 2600, 48);
            let cluster = Arc::new(Cluster::new(
                NODES + 1,
                FabricConfig {
                    nic_bytes_per_sec: 1.0e9,
                    ..FabricConfig::default()
                },
            ));
            let devices: Vec<_> = (0..NODES).map(|_| setup::emulated_for(8 << 20)).collect();
            let device_nodes: Vec<usize> = (0..NODES).collect();
            let deployment =
                Deployment::fabric(&cluster, &[NODES], &device_nodes, &devices).unwrap();
            let mount_start = rt.now();
            let fs = dlfs::MountBuilder::new(DlfsConfig {
                chunk_size: 8 * 1024,
                codec,
                offload: true,
                ..DlfsConfig::default()
            })
            .deployment(deployment)
            .mount(rt, &source)
            .unwrap();
            let setup_ns = (rt.now() - mount_start).as_nanos();
            let written: u64 = devices.iter().map(|d| d.stats().3).sum();
            let (tx0, rx0) = cluster.node_traffic(NODES);
            let mut io = fs.io(0);
            let total = io.sequence(rt, seed ^ 0x0F, 0);
            let req = ReadRequest::batch(32);
            let req = if offload { req.offload() } else { req };
            let reads = || devices.iter().map(|d| d.stats().0).sum::<u64>();
            let (t0, reads0) = (rt.now(), reads());
            while io.remaining() > 0 {
                io.submit(rt, &req).unwrap();
            }
            let (tx, rx) = cluster.node_traffic(NODES);
            (
                total as f64 / (rt.now() - t0).as_secs_f64(),
                tx + rx - tx0 - rx0,
                setup_ns,
                written as f64 / (2000.0 * 2600.0),
                reads() - reads0,
            )
        })
        .0
    }
    let (offloaded, offload_bytes, setup_ns, stored_ratio, offload_reads) =
        epoch(seed, CodecKind::Lz, true);
    let (raw, raw_bytes, ..) = epoch(seed, CodecKind::Identity, false);
    let lz_reads = epoch(seed, CodecKind::Lz, false).4;
    eprintln!(
        "offload+lz vs raw client path: {offloaded:.0} vs {raw:.0} sps, \
         {offload_bytes} vs {raw_bytes} epoch fabric bytes"
    );
    assert!(
        stored_ratio <= 0.2,
        "the coded import wrote {stored_ratio:.3} device bytes per source byte (gate: 0.2)"
    );
    // What offload guarantees on the wire: one capsule and one dense
    // response per node per batch never move more than the raw path's
    // per-command capsules and block-padded extents. (Throughput follows
    // from it now that the next exchange is issued before the current one
    // is waited for, but it is gated against its own baseline, not
    // against the raw path.)
    assert!(
        offload_bytes <= raw_bytes,
        "offloaded epoch moved {offload_bytes} fabric bytes, more than the raw client path's \
         {raw_bytes}"
    );
    // What the target reads: each plan item once, as the `lz` client path
    // does — an item split by a batch boundary is carried to the next
    // exchange, not read again.
    assert_eq!(offload_reads, lz_reads, "reads: offload vs lz client");
    (offloaded, setup_ns, stored_ratio)
}

/// One wire-bound disaggregated epoch: a single reader pulls 100–130 KB
/// samples from four dedicated NVMe-oF storage nodes at batch 16. Returns
/// `(samples/s, device bytes read ÷ payload bytes delivered, mount ns)`.
/// Its own simulation, so every other metric stays bit-identical.
fn disagg_epoch(seed: u64) -> (f64, f64, u64) {
    const STORAGE: usize = 4;
    Runtime::simulate(seed, |rt| {
        let mut sizes_rng = SplitMix64::new(seed ^ 0xD15A);
        let sizes = (0..384)
            .map(|_| 100_000 + sizes_rng.below(30_000))
            .collect();
        let source = SyntheticSource::new(seed ^ 0xD15A, sizes);
        let mount_start = rt.now();
        let (fs, cluster, _devices) =
            setup::dlfs_disagg_chaos(rt, 1, STORAGE, &source, DlfsConfig::default());
        let setup_ns = (rt.now() - mount_start).as_nanos();
        let mut io = fs.io(0);
        let total = io.sequence(rt, seed ^ 0xD1, 0);
        let (_, rx0) = cluster.node_traffic(0);
        let t0 = rt.now();
        let mut got = 0usize;
        while got < total {
            got += io.submit(rt, &ReadRequest::batch(16)).unwrap().len();
        }
        let secs = (rt.now() - t0).as_secs_f64();
        let (_, rx) = cluster.node_traffic(0);
        let nic_util = (rx - rx0) as f64 / (secs * FabricConfig::default().nic_bytes_per_sec);
        assert!(
            nic_util > 0.9,
            "the disaggregated epoch must stay wire-bound (reader NIC {:.1}% busy)",
            nic_util * 100.0
        );
        let m = io.metrics();
        let device_bytes: u64 = (0..STORAGE)
            .map(|n| m.counter(&format!("blocksim.dev{n}.bytes")))
            .sum();
        (
            got as f64 / secs,
            device_bytes as f64 / m.counter("dlfs.io.bytes_delivered") as f64,
            setup_ns,
        )
    })
    .0
}

/// Busy CPU of one reader per synchronous `read_by_id` of IMDB-sized
/// samples from four dedicated NVMe-oF storage nodes, random ids. Its own
/// simulation, so every other metric stays bit-identical.
fn sync_read_busy(seed: u64) -> f64 {
    const READS: u32 = 2048;
    Runtime::simulate(seed, |rt| {
        let sizes = dlio::sizedist::SizeDist::imdb().sizes(seed, 4096);
        let source = SyntheticSource::new(seed ^ 0x1BD, sizes);
        let (fs, _cluster, _devices) =
            setup::dlfs_disagg_chaos(rt, 1, 4, &source, DlfsConfig::default());
        let mut io = fs.io(0);
        let mut ids = SplitMix64::new(seed ^ 0x51D);
        let busy0 = rt.my_busy();
        for _ in 0..READS {
            io.read_by_id(rt, ids.below(source.count() as u64) as u32)
                .unwrap();
        }
        (rt.my_busy() - busy0).as_nanos() as f64 / READS as f64
    })
    .0
}

/// Pull `"key": value` out of the flat JSON the gate itself writes.
fn json_num(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let seed: u64 = arg("seed", DEFAULT_SEED);
    let rev: String = arg("rev", "worktree".to_string());
    let out: String = arg("out", ".".to_string());
    let baseline: String = arg("baseline", String::new());
    let tolerance: f64 = arg("tolerance", 0.10);

    let (epoch_throughput_sps, reactor_wakeups_per_epoch) =
        epoch_throughput_and_wakeups(seed, false);
    let (verified_epoch_throughput_sps, _) = epoch_throughput_and_wakeups(seed, true);
    // The verification tax is bounded by construction (one FNV-1a pass per
    // delivered block, `costs.verify_block` each): gate it inline so a
    // hot-path regression in the verify plumbing cannot hide behind a
    // stale baseline.
    let overhead = 1.0 - verified_epoch_throughput_sps / epoch_throughput_sps;
    assert!(
        overhead <= 0.10,
        "checksum verification costs {:.1}% of epoch throughput (gate: 10%)",
        overhead * 100.0
    );
    let (degraded_p99_read_latency_ns, rebuild_time_ns) = degraded_and_rebuild(seed);
    // Sharded metadata tail: 256 clients locate+fetch through the
    // locality-placed shards (its own simulation; legacy metrics are
    // untouched).
    let sharded_lookup_p99_ns =
        dlfs_bench::meta_scale_run(seed, dlfs_bench::MetaDesign::Sharded, 8, 256, 32, 4, 20_000)
            .p99_ns;
    // WFQ fairness: 1:2:4 weights, four workers per tenant over two qpair
    // slots. The 5% budget is a hard product guarantee — gate it inline
    // like the verification tax, so a scheduling regression cannot hide
    // behind a stale baseline.
    let fair = dlfs_bench::weighted_fair_run(seed, &[1, 2, 4], 2, 4, Dur::micros(20_000));
    eprintln!(
        "WFQ 1:2:4 shares {:.4?}: error {:.4}",
        fair.shares, fair.err
    );
    assert!(fair.err <= 0.05, "WFQ fairness error exceeds the 5% budget");
    let (disagg_epoch_throughput_sps, read_amplification, disagg_setup_ns) = disagg_epoch(seed);
    let (offload_epoch_throughput_sps, coded_setup_ns, coded_stored_ratio) =
        offload_epoch_throughput(seed);
    // (key, value, higher is better, decimals printed), in file order.
    let metrics: [(&str, f64, bool, usize); 16] = [
        ("epoch_throughput_sps", epoch_throughput_sps, true, 3),
        (
            "verified_epoch_throughput_sps",
            verified_epoch_throughput_sps,
            true,
            3,
        ),
        (
            "p99_read_latency_ns",
            p99_read_latency(seed) as f64,
            false,
            0,
        ),
        ("warm_remount_ns", warm_remount(seed) as f64, false, 0),
        (
            "reactor_wakeups_per_epoch",
            reactor_wakeups_per_epoch as f64,
            false,
            0,
        ),
        (
            "degraded_p99_read_latency_ns",
            degraded_p99_read_latency_ns as f64,
            false,
            0,
        ),
        ("rebuild_time_ns", rebuild_time_ns as f64, false, 0),
        (
            "offload_epoch_throughput_sps",
            offload_epoch_throughput_sps,
            true,
            3,
        ),
        (
            "disagg_epoch_throughput_sps",
            disagg_epoch_throughput_sps,
            true,
            3,
        ),
        ("read_amplification", read_amplification, false, 6),
        ("disagg_setup_ns", disagg_setup_ns as f64, false, 0),
        (
            "sharded_lookup_p99_ns",
            sharded_lookup_p99_ns as f64,
            false,
            0,
        ),
        ("multitenant_fair_share_err", fair.err, false, 6),
        ("coded_setup_ns", coded_setup_ns as f64, false, 0),
        ("coded_stored_ratio", coded_stored_ratio, false, 6),
        ("sync_read_busy_ns", sync_read_busy(seed), false, 1),
    ];

    let lines = metrics.map(|(key, now, _, decimals)| format!(",\n  \"{key}\": {now:.decimals$}"));
    let json = format!("{{\n  \"rev\": \"{rev}\"{}\n}}\n", lines.concat());
    let path = format!("{out}/BENCH_{rev}.json");
    if let Err(e) = std::fs::create_dir_all(&out).and_then(|()| std::fs::write(&path, &json)) {
        eprintln!("perf gate: cannot write {path}: {e}");
        std::process::exit(2);
    }
    print!("{json}");
    eprintln!("wrote {path}");

    if baseline.is_empty() {
        return;
    }
    let base = std::fs::read_to_string(&baseline).unwrap_or_else(|e| {
        eprintln!("perf gate: cannot read baseline {baseline}: {e}");
        std::process::exit(2);
    });
    let mut failed = false;
    for (key, now, higher_better, _) in metrics {
        // A metric the baseline does not pin fails: a renamed key must not
        // pass the gate unchecked.
        let Some(was) = json_num(&base, key) else {
            eprintln!("{key}: missing from baseline {baseline} (FAILED)");
            failed = true;
            continue;
        };
        let drift = if was == 0.0 { 0.0 } else { (now - was) / was };
        let bad = if higher_better { -drift } else { drift };
        let verdict = if bad > tolerance { "REGRESSED" } else { "ok" };
        eprintln!(
            "{key}: baseline {was:.3} -> {now:.3} ({:+.2}% {verdict})",
            drift * 100.0
        );
        failed |= bad > tolerance;
    }
    if failed {
        eprintln!("perf gate FAILED (tolerance {:.0}%)", tolerance * 100.0);
        std::process::exit(1);
    }
    eprintln!("perf gate OK");
}
