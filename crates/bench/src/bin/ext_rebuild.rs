//! Extension experiment: automated re-replication after permanent target
//! loss.
//!
//! The paper's evaluation assumes the storage pool never shrinks; a
//! disaggregated deployment loses whole targets. This harness kills one
//! storage node mid-epoch under the membership policy
//! (`fail_dead_after`), lets the view escalate it to Dead, swaps in a
//! factory-fresh replacement, and measures what the rebuild costs:
//!
//! * how long restoring full redundancy takes (virtual time, from
//!   `begin_rebuild` to the rejoin), split into blocks trickled by
//!   `rebuild_step` beside a concurrent epoch vs. drained afterwards;
//! * what degraded-mode serving does to the foreground batch tail
//!   (healthy vs. degraded vs. post-rebuild p99);
//! * how the step budget — the blocks stepped after every foreground
//!   batch, the `gap blks` column — trades foreground latency against
//!   rebuild progress. The caller sets the pace: nothing else steps it.
//!
//! Sweeps `replicas x step budget`, verifies every delivered sample
//! byte-for-byte, ends each cell deep-fsck-clean on every node, and runs
//! each cell twice to prove same-seed determinism.

use std::sync::Arc;

use blocksim::{DeviceConfig, NvmeDevice, NvmeTarget};
use dlfs::{
    fsck_node, Completions, Deployment, DlfsConfig, DlfsError, DlfsIo, FsckState, ReadRequest,
    SyntheticSource,
};
use dlfs_bench::{arg, Table, DEFAULT_SEED};
use simkit::prelude::*;
use simkit::rng::fnv1a;

const NODES: usize = 4;
const DEV_BYTES: u64 = 64 << 20;

fn ramdisk() -> Arc<NvmeDevice> {
    NvmeDevice::new(DeviceConfig::emulated_ramdisk(DEV_BYTES, Dur::micros(10)))
}

/// Drain the current epoch, verifying every payload; returns an
/// order-insensitive checksum and the per-batch latencies. The hook fires
/// once after `kill_after` delivered samples.
fn drain_epoch(
    rt: &Runtime,
    io: &mut DlfsIo,
    source: &SyntheticSource,
    total: usize,
    kill_after: usize,
    mut hook: impl FnMut(),
) -> (u64, Vec<u64>) {
    let mut delivered = 0usize;
    let mut checksum = 0u64;
    let mut lats = Vec::new();
    let mut fired = false;
    loop {
        if delivered >= kill_after && !fired {
            fired = true;
            hook();
        }
        let t0 = rt.now();
        match io
            .submit(rt, &ReadRequest::batch(32))
            .map(Completions::into_copied)
        {
            Ok(batch) => {
                lats.push((rt.now() - t0).as_nanos());
                for (id, data) in batch {
                    assert_eq!(data, source.expected(id), "sample {id} corrupted");
                    delivered += 1;
                    checksum ^= fnv1a(&data).wrapping_mul(2 * id as u64 + 1);
                }
            }
            Err(DlfsError::EpochExhausted) => break,
            Err(e) => panic!("epoch failed: {e}"),
        }
    }
    assert_eq!(delivered, total, "epoch must complete");
    (checksum, lats)
}

fn quantile(lats: &mut [u64], q: f64) -> u64 {
    if lats.is_empty() {
        return 0;
    }
    lats.sort_unstable();
    let idx = ((lats.len() - 1) as f64 * q).round() as usize;
    lats[idx]
}

/// Everything one cell must reproduce bit-for-bit under the same seed.
#[derive(Clone, PartialEq, Eq)]
struct CellOutcome {
    end_ns: u64,
    checksum: u64,
    metrics: String,
    planned: u64,
    trickled: u64,
    rebuilt: u64,
    clean: u64,
    rebuild_ns: u64,
    healthy_p99: u64,
    degraded_p99: u64,
    post_p99: u64,
}

fn cell(seed: u64, n: usize, size: u64, replicas: usize, step: u64) -> CellOutcome {
    let (out, end) = Runtime::simulate(seed, |rt| {
        let source = SyntheticSource::fixed(seed ^ 0x8E, n, size);
        let cfg = DlfsConfig {
            chunk_size: 8 * 1024,
            replicas,
            verify_reads: true,
            fail_dead_after: Some(Dur::micros(300)),
            ..DlfsConfig::default()
        };
        let devices: Vec<_> = (0..NODES).map(|_| ramdisk()).collect();
        let fs = dlfs::MountBuilder::new(cfg)
            .deployment(Deployment::local(1, &devices))
            .persistent()
            .mount(rt, &source)
            .expect("dlfs mount");
        let red = fs.redundancy().expect("redundancy built").clone();
        let mut io = fs.io(0);

        // Epoch 0: healthy baseline tail.
        let total = io.sequence(rt, seed ^ 0x51, 0);
        let (mut checksum, mut lats) = drain_epoch(rt, &mut io, &source, total, usize::MAX, || {});
        let healthy_p99 = quantile(&mut lats, 0.99);

        // Epoch 1: node 1 dies permanently a quarter of the way in. The
        // epoch stays byte-correct and the view escalates it to Dead.
        let total = io.sequence(rt, seed ^ 0x51, 1);
        let (sum, mut lats) = drain_epoch(rt, &mut io, &source, total, total / 4, || {
            devices[1].kill();
        });
        checksum ^= sum.rotate_left(1);
        let degraded_p99 = quantile(&mut lats, 0.99);
        // Small sweeps can finish the degraded epoch before `fail_dead_after`
        // worth of sim-time has elapsed since the circuit opened; keep the
        // detector observing with verified out-of-epoch reads until the view
        // escalates. At the default n this settles inside the epoch and the
        // loop body never runs.
        let mut settle = 0u32;
        while !red.is_dead(1) {
            let id = settle % n as u32;
            let data = io.read_by_id(rt, id).expect("settle read");
            assert_eq!(data, source.expected(id), "settle read corrupted");
            settle += 1;
            assert!(settle < 4096, "view never escalated node 1 to Dead");
        }

        // A fresh replacement joins under the same index; epoch 2 runs
        // while the rebuild makes cooperative progress — `step` blocks
        // after every foreground batch, the only pace it has.
        devices[1].revive();
        devices[1].dma_write(0, &vec![0u8; DEV_BYTES as usize]);
        let t_begin = rt.now();
        let planned = io.begin_rebuild(1).unwrap();
        assert!(planned > 0, "a dead node's slots are never empty here");
        let total = io.sequence(rt, seed ^ 0x51, 2);
        let mut delivered = 0usize;
        let mut sum = 0u64;
        let mut t_done = None;
        loop {
            match io
                .submit(rt, &ReadRequest::batch(32))
                .map(Completions::into_copied)
            {
                Ok(batch) => {
                    for (id, data) in batch {
                        assert_eq!(data, source.expected(id), "sample {id} corrupted");
                        delivered += 1;
                        sum ^= fnv1a(&data).wrapping_mul(2 * id as u64 + 1);
                    }
                }
                Err(DlfsError::EpochExhausted) => break,
                Err(e) => panic!("epoch failed mid-rebuild: {e}"),
            }
            if io.rebuild_active() {
                io.rebuild_step(step);
                if !io.rebuild_active() {
                    t_done = Some(rt.now());
                }
            }
        }
        assert_eq!(delivered, total, "mid-rebuild epoch must complete");
        checksum ^= sum.rotate_left(2);
        let trickled = planned - io.rebuild_remaining();
        io.rebuild_step(u64::MAX);
        let rebuild_ns = (t_done.unwrap_or_else(|| rt.now()) - t_begin).as_nanos();
        let m = io.metrics();
        assert_eq!(m.counter("dlfs.rebuild.completed"), 1);
        assert_eq!(m.counter("dlfs.rebuild.blocks_failed"), 0);
        assert!(!red.is_dead(1), "rebuilt node must rejoin");
        for node in 0..NODES as u16 {
            let rep = fsck_node(&fs.shared(0).targets[node as usize], node, true);
            assert!(
                matches!(rep.state, FsckState::Clean { .. }),
                "node {node} not fsck-clean after rebuild: {:?}",
                rep.state
            );
            assert_eq!(rep.data_checksum_ok, Some(true), "node {node} deep check");
        }

        // Epoch 3: full redundancy restored — the tail recovers.
        let total = io.sequence(rt, seed ^ 0x51, 3);
        let (sum, mut lats) = drain_epoch(rt, &mut io, &source, total, usize::MAX, || {});
        checksum ^= sum.rotate_left(3);
        let post_p99 = quantile(&mut lats, 0.99);

        let m = io.metrics();
        CellOutcome {
            end_ns: 0, // filled in below from the runtime's end time
            checksum,
            metrics: m.render(),
            planned,
            trickled,
            rebuilt: m.counter("dlfs.rebuild.blocks_rebuilt"),
            clean: m.counter("dlfs.rebuild.blocks_clean"),
            rebuild_ns,
            healthy_p99,
            degraded_p99,
            post_p99,
        }
    });
    CellOutcome {
        end_ns: end.nanos(),
        ..out
    }
}

fn main() {
    let seed: u64 = arg("seed", DEFAULT_SEED);
    let n: usize = arg("n", 1024);
    let size: u64 = arg("size", 2048);

    println!(
        "# Extension: rebuild after permanent target loss — {NODES} nodes, {n} samples x {size} B, \
         kill node 1 mid-epoch, replace with a fresh device\n"
    );
    let mut t = Table::new(&[
        "replicas",
        "gap blks",
        "planned",
        "trickled",
        "rebuilt",
        "clean",
        "rebuild time",
        "healthy p99",
        "degraded p99",
        "post p99",
    ]);
    for &replicas in &[2usize, 3] {
        for &step in &[16u64, 64, 256] {
            let a = cell(seed, n, size, replicas, step);
            let b = cell(seed, n, size, replicas, step);
            assert!(
                a == b,
                "same-seed rebuild runs diverged at k={replicas} step={step}"
            );
            assert_eq!(
                a.planned,
                a.rebuilt + a.clean,
                "every planned block is either copied or verified in place"
            );
            t.row(&[
                replicas.to_string(),
                step.to_string(),
                a.planned.to_string(),
                a.trickled.to_string(),
                a.rebuilt.to_string(),
                a.clean.to_string(),
                format!("{}", Dur::nanos(a.rebuild_ns)),
                format!("{}", Dur::nanos(a.healthy_p99)),
                format!("{}", Dur::nanos(a.degraded_p99)),
                format!("{}", Dur::nanos(a.post_p99)),
            ]);
        }
    }
    t.print();
    println!(
        "\nevery delivered sample verified byte-for-byte in every cell; every cell ends \
         deep-fsck-clean on all {NODES} nodes; two same-seed runs byte-identical"
    );
}
