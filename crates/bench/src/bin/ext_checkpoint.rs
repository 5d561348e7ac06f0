//! Extension experiment: checkpoint-stream write bandwidth and its
//! interference with epoch reads.
//!
//! Training jobs checkpoint while the input pipeline keeps reading. The
//! checkpoint region shares the device with the data extents, so appends
//! contend with sample reads for the same media bandwidth. This bench
//! measures, per checkpoint payload size: the isolated append bandwidth,
//! the clean epoch read rate and read-batch p99, and both again while a
//! concurrent task streams checkpoints — the slowdown is the interference
//! cost. Appends are background work that yields the device to reads, so
//! a read batch waits behind at most one chunk-sized write, and they park
//! while they wait: the binary asserts that the read-batch p99 under
//! checkpointing stays within `MAX_TAIL` times the clean one, and that the
//! appender holds at most `MAX_CKPT_CORES` of a core, for every payload.

use dlfs::{Completions, DlfsConfig, DlfsError, ReadRequest, SampleSource};
use dlfs_bench::{arg, fmt_ns, fmt_size, setup, Table, DEFAULT_SEED};
use simkit::prelude::*;

/// Read-batch p99 under checkpointing over the clean one, at most.
const MAX_TAIL: f64 = 1.25;
/// The appender's busy CPU over its elapsed time beside reads, at most.
const MAX_CKPT_CORES: f64 = 0.05;

/// Drain `n` samples from an epoch, returning (bytes, seconds, read-batch
/// p99 in ns).
fn drain_epoch(
    rt: &Runtime,
    fs: &dlfs::DlfsInstance,
    seed: u64,
    epoch: u64,
    n: usize,
) -> (u64, f64, u64) {
    let mut io = fs.io(0);
    io.sequence(rt, seed, epoch);
    let t0 = rt.now();
    let mut bytes = 0u64;
    let mut left = n;
    let mut batch_ns = Vec::new();
    while left > 0 {
        let sent = rt.now();
        let got = io
            .submit(rt, &ReadRequest::batch(32.min(left)))
            .map(Completions::into_copied);
        batch_ns.push((rt.now() - sent).as_nanos());
        match got {
            Ok(batch) => {
                for (_, data) in batch {
                    bytes += data.len() as u64;
                    left -= 1;
                }
            }
            Err(DlfsError::EpochExhausted) => break,
            Err(e) => panic!("epoch failed: {e}"),
        }
    }
    batch_ns.sort_unstable();
    let p99 = batch_ns[(batch_ns.len() - 1) * 99 / 100];
    (bytes, (rt.now() - t0).as_secs_f64(), p99)
}

fn main() {
    let seed: u64 = arg("seed", DEFAULT_SEED);
    let samples: usize = arg("samples", 4096);
    let sample_size: u64 = arg("size", 64 << 10);
    let appends: u64 = arg("appends", 16);

    println!(
        "# Extension: checkpoint write bandwidth vs epoch read interference\n\
         # ({samples} samples x {}, {appends} appends per window)\n",
        fmt_size(sample_size)
    );

    let source = dlfs::SyntheticSource::fixed(seed, samples, sample_size);
    let dataset: u64 = (0..source.count() as u32).map(|i| source.size(i)).sum();

    let mut t = Table::new(&[
        "ckpt payload",
        "ckpt bandwidth",
        "epoch (clean)",
        "epoch (ckpting)",
        "read slowdown",
        "batch p99 (clean)",
        "batch p99 (ckpting)",
        "ckpt CPU",
    ]);
    let mut stalled = Vec::new();
    for payload in [256u64 << 10, 1 << 20, 4 << 20] {
        let ((bw, clean, ckpting, cores), _) = Runtime::simulate(seed, |rt| {
            // Checkpoint region sized for three windows of appends.
            let cfg = DlfsConfig {
                ckpt_region_bytes: 3 * appends * (payload + 4096) + (1 << 20),
                ..DlfsConfig::default()
            };
            let dev = setup::emulated_for(dataset * 2 + cfg.ckpt_region_bytes);
            let fs = dlfs::MountBuilder::new(cfg)
                .local(dev)
                .persistent()
                .mount(rt, &source)
                .expect("import");

            // Isolated checkpoint append bandwidth.
            let mut w = fs.checkpoint_writer(rt, 0, 0, None).expect("ckpt writer");
            let blob = vec![0x5au8; payload as usize];
            let t0 = rt.now();
            for _ in 0..appends {
                w.append(rt, &blob).expect("append");
            }
            let bw = (appends * payload) as f64 / (rt.now() - t0).as_secs_f64();

            // Clean epoch read rate.
            let clean = drain_epoch(rt, &fs, seed, 0, samples);

            // Epoch read rate with a concurrent checkpoint stream.
            let ckpt_task = rt.spawn_with("ckpt-stream", {
                let blob = blob.clone();
                move |rt| {
                    let t0 = rt.now();
                    for _ in 0..appends {
                        w.append(rt, &blob).expect("append");
                        rt.sleep(Dur::micros(200));
                    }
                    rt.my_busy().as_nanos() as f64 / (rt.now() - t0).as_nanos() as f64
                }
            });
            let ckpting = drain_epoch(rt, &fs, seed, 1, samples);
            (bw, clean, ckpting, ckpt_task.join())
        });
        let rate = |(bytes, secs, _): (u64, f64, u64)| bytes as f64 / secs;
        let tail = ckpting.2 as f64 / clean.2 as f64;
        if tail > MAX_TAIL {
            stalled.push(format!("{}: {tail:.2}x", fmt_size(payload)));
        }
        if cores > MAX_CKPT_CORES {
            stalled.push(format!("{}: appender {cores:.3} cores", fmt_size(payload)));
        }
        t.row(&[
            fmt_size(payload),
            format!("{:.2} GB/s", bw / 1e9),
            format!("{:.2} GB/s", rate(clean) / 1e9),
            format!("{:.2} GB/s", rate(ckpting) / 1e9),
            format!("{:.0}%", 100.0 * (1.0 - rate(ckpting) / rate(clean))),
            fmt_ns(clean.2),
            fmt_ns(ckpting.2),
            format!("{cores:.5}"),
        ]);
    }
    t.print();
    println!();
    println!("appends coalesce into chunk-sized device commands, so checkpoint");
    println!("bandwidth tracks an idle device; beside reads an append holds one");
    println!("command at a time, so a read batch waits behind one chunk, not a record,");
    println!("and it parks while it waits: ckpt CPU is the appender's busy time over");
    println!("its elapsed time, in cores.");
    assert!(
        stalled.is_empty(),
        "read-batch p99 under checkpointing over {MAX_TAIL}x the clean one, or an \
         appender over {MAX_CKPT_CORES} cores: {stalled:?}"
    );
}
