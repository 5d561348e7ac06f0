//! Extension experiment: chaos sweep over fault rates.
//!
//! The paper's testbed assumes a healthy fabric; disaggregation makes the
//! storage path a distributed system, so this harness measures what the
//! retry/failover machinery costs when it isn't. It sweeps media-error and
//! RPC-drop rates (plus one target crash/restart cycle) over a
//! disaggregated DLFS deployment, verifies every delivered sample
//! byte-for-byte, runs each configuration twice to prove same-seed
//! determinism, and reports how the batch-latency tail degrades. A second
//! phase drives the replicated Octopus baseline through a crash to
//! exercise circuit-breaker failover.

use std::sync::Arc;

use blocksim::FaultInjector;
use dlfs::{Completions, DlfsConfig, DlfsError, ReadRequest, SyntheticSource};
use dlfs_bench::{arg, setup, Table, DEFAULT_SEED};
use fabric::{Cluster, FabricFaultInjector};
use octofs::{OctoConfig, OctopusFs};
use simkit::prelude::*;
use simkit::rng::fnv1a;

/// Everything one run must reproduce bit-for-bit under the same seed.
#[derive(Clone, PartialEq, Eq)]
struct RunOutcome {
    end_ns: u64,
    checksum: u64,
    metrics: String,
    retries: u64,
    timeouts: u64,
    /// Failed completions observed (device media errors + transport
    /// timeouts) — how often the fault dice actually fired.
    faults_seen: u64,
    p50: u64,
    p99: u64,
    max: u64,
}

fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// One DLFS epoch on reader 0 of a 2-reader/2-device disaggregated
/// deployment, with the given fault rates armed after the mount.
fn dlfs_run(
    seed: u64,
    n: usize,
    size: u64,
    media_ppm: u32,
    drop_ppm: u32,
    crash: bool,
) -> RunOutcome {
    let ((checksum, metrics, retries, timeouts, faults_seen, mut lats), end) =
        Runtime::simulate(seed, |rt| {
            let source = SyntheticSource::fixed(seed ^ 0xD1F5, n, size);
            let cfg = DlfsConfig {
                // Small chunks: enough commands per epoch for per-command
                // fault rates to matter.
                chunk_size: 16 * 1024,
                ..DlfsConfig::default()
            };
            let (fs, cluster, devices) = setup::dlfs_disagg_chaos(rt, 2, 2, &source, cfg);
            for (i, d) in devices.iter().enumerate() {
                d.set_faults(FaultInjector::new(seed ^ i as u64).with_read_failures(media_ppm));
            }
            let mut inj = FabricFaultInjector::new(seed ^ 0xFA)
                .with_drops(drop_ppm)
                .with_io_timeout(Dur::micros(40));
            if crash {
                // Node 1 (the remote device for reader 0) is dark as the epoch
                // starts and restarts 1 ms later — well inside the ~10 ms
                // default retry budget, so the epoch rides it out.
                let now = rt.now();
                inj = inj.with_crash(1, now, now + Dur::millis(1));
            }
            cluster.set_faults(inj);

            let mut io = fs.io(0);
            let total = io.sequence(rt, seed ^ 0xEF0C, 0);
            let mut delivered = 0usize;
            let mut checksum = 0u64;
            let mut lats: Vec<u64> = Vec::new();
            loop {
                let t0 = rt.now();
                match io
                    .submit(rt, &ReadRequest::batch(32))
                    .map(Completions::into_copied)
                {
                    Ok(batch) => {
                        lats.push((rt.now() - t0).as_nanos());
                        for (id, data) in batch {
                            assert_eq!(data, source.expected(id), "torn sample {id}");
                            delivered += 1;
                            checksum = checksum
                                .wrapping_mul(0x100000001b3)
                                .wrapping_add(fnv1a(&data) ^ id as u64);
                        }
                    }
                    Err(DlfsError::EpochExhausted) => break,
                    Err(e) => panic!("epoch failed under faults: {e}"),
                }
            }
            assert_eq!(delivered, total, "epoch did not complete");
            let m = io.metrics();
            let faults_seen = m.counter("blocksim.dev0.media_errors")
                + m.counter("blocksim.dev1.media_errors")
                + m.counter("dlfs.io.timeouts");
            (
                checksum,
                m.render(),
                m.counter("dlfs.io.retries"),
                m.counter("dlfs.io.timeouts"),
                faults_seen,
                lats,
            )
        });
    lats.sort_unstable();
    RunOutcome {
        end_ns: end.nanos(),
        checksum,
        metrics,
        retries,
        timeouts,
        faults_seen,
        p50: quantile(&lats, 0.5),
        p99: quantile(&lats, 0.99),
        max: lats.last().copied().unwrap_or(0),
    }
}

/// One replicated + verified DLFS run over a 3×3 disaggregated mesh with
/// silent bit flips (and optionally a sticky bad extent) on node 0's
/// device. Every delivered sample is byte-verified; returns the integrity
/// counters, the delivery checksum and the full telemetry render.
#[allow(clippy::type_complexity)]
fn corruption_run(
    seed: u64,
    n: usize,
    size: u64,
    replicas: usize,
    flip_blocks: u64,
    bad_blocks: u64,
) -> (u64, u64, String, [u64; 5]) {
    let ((checksum, metrics, iv), end) = Runtime::simulate(seed, |rt| {
        let source = SyntheticSource::fixed(seed ^ 0xC0, n, size);
        let cfg = DlfsConfig {
            chunk_size: 16 * 1024,
            replicas,
            verify_reads: true,
            ..DlfsConfig::default()
        };
        let (fs, _cluster, devices) = setup::dlfs_disagg_chaos(rt, 3, 3, &source, cfg);
        // Ephemeral mounts stage node data from byte 0. Flip the whole
        // device: every node-0 chunk this reader touches is silently
        // corrupt, while the replica copies on other nodes stay clean. The
        // sticky extent sits on top of the flips near the front.
        let mut inj = FaultInjector::new(seed ^ 0xF11).with_bit_flips(0, flip_blocks);
        if bad_blocks > 0 {
            inj = inj.with_bad_extent(64, bad_blocks);
        }
        devices[0].set_faults(inj);
        let mut io = fs.io(0);
        let mut checksum = 0u64;
        for epoch in 0..2u64 {
            let total = io.sequence(rt, seed ^ 0xEF0C, epoch);
            let mut delivered = 0usize;
            loop {
                match io
                    .submit(rt, &ReadRequest::batch(32))
                    .map(Completions::into_copied)
                {
                    Ok(batch) => {
                        for (id, data) in batch {
                            assert_eq!(data, source.expected(id), "corrupt sample {id}");
                            delivered += 1;
                            checksum = checksum
                                .wrapping_mul(0x100000001b3)
                                .wrapping_add(fnv1a(&data) ^ id as u64);
                        }
                    }
                    Err(DlfsError::EpochExhausted) => break,
                    Err(e) => panic!("epoch failed under corruption: {e}"),
                }
            }
            assert_eq!(delivered, total, "epoch did not complete");
            if epoch == 0 {
                // Between epochs, sweep whatever demand reads didn't touch.
                io.scrub_pass();
            }
        }
        let m = io.metrics();
        let iv = [
            m.counter("dlfs.integrity.verified"),
            m.counter("dlfs.integrity.mismatches"),
            m.counter("dlfs.integrity.repairs"),
            m.counter("dlfs.integrity.scrubbed"),
            m.counter("dlfs.integrity.failovers"),
        ];
        (checksum, m.render(), iv)
    });
    (checksum, end.nanos(), metrics, iv)
}

/// Replicated Octopus under a crash: store, crash node 1, read everything
/// from client 0. Returns (checksum, failovers, timeouts, retries).
fn octofs_run(seed: u64, n: usize, size: u64) -> (u64, u64, u64, u64) {
    let (out, _end) = Runtime::simulate(seed, |rt| {
        let nodes = 3;
        let cluster = Arc::new(Cluster::new(nodes, fabric::FabricConfig::default()));
        let dev_cfg = blocksim::DeviceConfig::emulated_ramdisk(
            (n as u64 * size * 2 / nodes as u64).max(64 << 20),
            setup::EMU_DELAY,
        );
        let fs = OctopusFs::deploy_with(
            rt,
            cluster.clone(),
            &dev_cfg,
            OctoConfig { replicate: true },
        );
        let source = SyntheticSource::fixed(seed ^ 0x0C70, n, size);
        let names: Vec<String> = (0..n as u32)
            .map(|id| {
                let name = format!("sample-{id}");
                fs.store(rt, &name, &source.expected(id));
                name
            })
            .collect();
        // Crash node 1 for 1 ms, starting now: reads hitting its primaries
        // must trip the circuit breaker and fail over to the replicas.
        let now = rt.now();
        cluster.set_faults(
            FabricFaultInjector::new(seed ^ 0x0C70)
                .with_io_timeout(Dur::micros(30))
                .with_crash(1, now, now + Dur::millis(1)),
        );
        let mut checksum = 0u64;
        for (id, name) in names.iter().enumerate() {
            let mut buf = vec![0u8; size as usize];
            fs.read(rt, 0, name, &mut buf).expect("read with failover");
            assert_eq!(buf, source.expected(id as u32), "torn sample {id}");
            checksum = checksum
                .wrapping_mul(0x100000001b3)
                .wrapping_add(fnv1a(&buf) ^ id as u64);
        }
        let m = fs.metrics();
        (
            checksum,
            m.counter("octofs.failovers"),
            m.counter("octofs.timeouts"),
            m.counter("octofs.read_retries"),
        )
    });
    out
}

fn main() {
    let seed: u64 = arg("seed", DEFAULT_SEED);
    let n: usize = arg("n", 2000);
    let size: u64 = arg("size", 2048);

    println!("# Extension: chaos sweep — DLFS epoch under injected faults ({n} samples x {size} B, 2 readers / 2 devices)\n");
    let mut t = Table::new(&[
        "media_ppm",
        "drop_ppm",
        "crash",
        "retries",
        "timeouts",
        "batch p50",
        "batch p99",
        "batch max",
        "epoch",
    ]);
    // (media_ppm, drop_ppm, crash one target mid-epoch)
    let grid: &[(u32, u32, bool)] = &[
        (0, 0, false),
        (20_000, 0, false),
        (0, 20_000, false),
        (20_000, 20_000, false),
        (20_000, 20_000, true),
    ];
    let mut baseline_clean: Option<RunOutcome> = None;
    for &(media, drops, crash) in grid {
        let a = dlfs_run(seed, n, size, media, drops, crash);
        let b = dlfs_run(seed, n, size, media, drops, crash);
        assert!(
            a.end_ns == b.end_ns && a.checksum == b.checksum && a.metrics == b.metrics,
            "same-seed chaos runs diverged at media={media} drops={drops} crash={crash}"
        );
        if media == 0 && drops == 0 && !crash {
            assert_eq!(a.faults_seen, 0, "clean run saw faults");
            assert_eq!(a.retries, 0, "clean run must not retry");
            assert_eq!(a.timeouts, 0, "clean run must not time out");
            baseline_clean = Some(a.clone());
        } else if a.faults_seen > 0 {
            // Every observed failure was retried (the epoch completed).
            assert!(a.retries > 0, "faults observed but never retried");
        }
        if crash {
            // An outage right after epoch start always drops commands.
            assert!(a.timeouts > 0, "crash run recorded no timeouts");
            assert!(a.retries > 0, "crash run recorded no retries");
        }
        t.row(&[
            media.to_string(),
            drops.to_string(),
            if crash {
                "node1/1ms".into()
            } else {
                "-".to_string()
            },
            a.retries.to_string(),
            a.timeouts.to_string(),
            format!("{}", Dur::nanos(a.p50)),
            format!("{}", Dur::nanos(a.p99)),
            format!("{}", Dur::nanos(a.max)),
            format!("{}", Dur::nanos(a.end_ns)),
        ]);
    }
    t.print();
    let clean = baseline_clean.expect("grid includes the zero-fault row");
    println!(
        "\nevery delivered sample verified byte-for-byte; zero-fault epoch: {} (retries=0)\n",
        Dur::nanos(clean.end_ns)
    );

    println!("# Corruption grid: replicated + verified DLFS, silent flips / sticky bad extents on node 0 (3x3 mesh, 2 epochs + scrub between)\n");
    let cor_n = (n / 2).max(256);
    let mut t = Table::new(&[
        "replicas",
        "flips",
        "bad ext",
        "verified",
        "mismatches",
        "repairs",
        "scrubbed",
        "failovers",
    ]);
    // (replicas, flipped blocks, sticky bad blocks)
    // flips = 1M blocks ≫ device: the whole node-0 device is corrupt.
    let grid: &[(usize, u64, u64)] = &[(2, 1_000_000, 0), (2, 1_000_000, 8), (3, 1_000_000, 8)];
    for &(replicas, flips, bad) in grid {
        let a = corruption_run(seed, cor_n, size, replicas, flips, bad);
        let b = corruption_run(seed, cor_n, size, replicas, flips, bad);
        assert_eq!(
            (a.0, a.1, &a.2),
            (b.0, b.1, &b.2),
            "same-seed corruption runs diverged at k={replicas} flips={flips} bad={bad}"
        );
        let [verified, mismatches, repairs, scrubbed, failovers] = a.3;
        assert!(verified > 0, "verification never ran");
        assert!(mismatches > 0, "flips on staged data went unseen");
        assert!(repairs > 0, "mismatches were never repaired");
        assert!(scrubbed > 0, "scrub pass walked nothing");
        if bad > 0 {
            assert!(failovers > 0, "sticky bad extent never failed over");
        }
        t.row(&[
            replicas.to_string(),
            "whole dev".to_string(),
            bad.to_string(),
            verified.to_string(),
            mismatches.to_string(),
            repairs.to_string(),
            scrubbed.to_string(),
            failovers.to_string(),
        ]);
    }
    t.print();
    println!("\nevery sample byte-correct in every cell; zero corrupt bytes delivered on any read path\n");

    println!("# Octopus baseline: replicated deployment, node 1 crashed for 1 ms during reads\n");
    let oct_n = (n / 4).max(64);
    let (sum_a, failovers, timeouts, retries) = octofs_run(seed, oct_n, size);
    let (sum_b, ..) = octofs_run(seed, oct_n, size);
    assert_eq!(sum_a, sum_b, "same-seed octofs runs diverged");
    assert!(failovers > 0, "crash must force replica failovers");
    assert!(timeouts > 0);
    let mut t = Table::new(&["files", "failovers", "timeouts", "read retries"]);
    t.row(&[
        oct_n.to_string(),
        failovers.to_string(),
        timeouts.to_string(),
        retries.to_string(),
    ]);
    t.print();
    println!("\nall reads byte-correct through the outage; two same-seed runs byte-identical");
}
