//! Cross-crate integration tests: the three storage systems on the same
//! dataset, end to end, with payload and timing cross-checks.

use std::sync::Arc;

use blocksim::{DeviceConfig, NvmeDevice};
use dlfs::{DlfsConfig, SampleSource, SyntheticSource};
use dlio::backend::{DlfsBackend, Ext4Backend, OctoBackend, ReaderBackend};
use dlio::{stage_ext4_untimed, stage_octopus};
use fabric::{Cluster, FabricConfig};
use kernsim::{Ext4Fs, FsOptions, KernelCosts};
use octofs::OctopusFs;
use simkit::prelude::*;

fn dataset() -> SyntheticSource {
    SyntheticSource::fixed(11, 3000, 2048)
}

/// Read `n` samples through a backend, returning (ids, payload-checksums,
/// virtual ns).
fn drive(backend: &mut dyn ReaderBackend, rt: &Runtime, n: usize) -> (Vec<u32>, Vec<u64>, u64) {
    backend.begin_epoch(rt, 5, 0);
    let t0 = rt.now();
    let mut ids = Vec::new();
    let mut sums = Vec::new();
    while ids.len() < n {
        let Some(batch) = backend.next_batch(rt, 32) else {
            break;
        };
        for s in batch {
            ids.push(s.id);
            sums.push(simkit::fnv1a(&s.bytes));
        }
    }
    (ids, sums, (rt.now() - t0).as_nanos())
}

#[test]
fn all_three_systems_serve_identical_payloads() {
    let source = dataset();
    let expect: Vec<u64> = (0..source.count() as u32)
        .map(|id| simkit::fnv1a(&source.expected(id)))
        .collect();

    // DLFS.
    let ((ids, sums, _), _) = Runtime::simulate(1, |rt| {
        let dev = NvmeDevice::new(DeviceConfig::optane(128 << 20));
        let fs = dlfs::MountBuilder::new(DlfsConfig::default())
            .local(dev)
            .mount(rt, &source)
            .unwrap();
        let mut b = DlfsBackend::new(&fs, 0);
        drive(&mut b, rt, 500)
    });
    for (id, sum) in ids.iter().zip(&sums) {
        assert_eq!(*sum, expect[*id as usize], "dlfs payload {id}");
    }

    // Ext4.
    let ((ids, sums, _), _) = Runtime::simulate(1, |rt| {
        let dev = NvmeDevice::new(DeviceConfig::optane(256 << 20));
        let fs = Ext4Fs::mkfs(dev, KernelCosts::default(), FsOptions::default());
        let staged = stage_ext4_untimed(&fs, &source, 0, 1);
        let src = source.clone();
        let mut b = Ext4Backend::new(fs, staged, move |id| src.size(id));
        drive(&mut b, rt, 300)
    });
    for (id, sum) in ids.iter().zip(&sums) {
        assert_eq!(*sum, expect[*id as usize], "ext4 payload {id}");
    }

    // Octopus.
    let ((ids, sums, _), _) = Runtime::simulate(1, |rt| {
        let cluster = Arc::new(Cluster::new(2, FabricConfig::default()));
        let cfg = DeviceConfig::emulated_ramdisk(64 << 20, Dur::micros(10));
        let fs = OctopusFs::deploy(rt, cluster, &cfg);
        let staged = stage_octopus(rt, &fs, &source);
        let src = source.clone();
        let mut b = OctoBackend::new(fs, 0, staged, move |id| src.size(id));
        drive(&mut b, rt, 300)
    });
    for (id, sum) in ids.iter().zip(&sums) {
        assert_eq!(*sum, expect[*id as usize], "octopus payload {id}");
    }
}

#[test]
fn dlfs_outruns_ext4_on_small_random_reads() {
    // The paper's core claim, as a regression test: batched user-level
    // reads of small samples beat the kernel path by a wide margin.
    let source = SyntheticSource::fixed(3, 8000, 2048);
    let (dlfs_ns, _) = Runtime::simulate(2, |rt| {
        let dev = NvmeDevice::new(DeviceConfig::optane(128 << 20));
        let fs = dlfs::MountBuilder::new(DlfsConfig::default())
            .local(dev)
            .mount(rt, &source)
            .unwrap();
        let mut b = DlfsBackend::new(&fs, 0);
        drive(&mut b, rt, 2000).2
    });
    let (ext4_ns, _) = Runtime::simulate(2, |rt| {
        let dev = NvmeDevice::new(DeviceConfig::optane(256 << 20));
        let fs = Ext4Fs::mkfs(dev, KernelCosts::default(), FsOptions::default());
        let staged = stage_ext4_untimed(&fs, &source, 0, 1);
        let src = source.clone();
        let mut b = Ext4Backend::new(fs, staged, move |id| src.size(id));
        drive(&mut b, rt, 2000).2
    });
    assert!(
        dlfs_ns * 5 < ext4_ns,
        "DLFS {dlfs_ns}ns should be >5x faster than Ext4 {ext4_ns}ns"
    );
}

#[test]
fn pipeline_over_dlfs_delivers_everything() {
    let source = SyntheticSource::fixed(9, 2000, 1024);
    let (count, _) = Runtime::simulate(4, |rt| {
        let dev = NvmeDevice::new(DeviceConfig::optane(128 << 20));
        let fs = dlfs::MountBuilder::new(DlfsConfig::default())
            .local(dev)
            .mount(rt, &source)
            .unwrap();
        let backend = Box::new(DlfsBackend::new(&fs, 0));
        let pipe =
            dlio::InputPipeline::launch(rt, backend, 7, 0, 32, 4, dlio::PipelineCosts::default());
        let mut seen = vec![false; 2000];
        let mut n = 0;
        while let Some(batch) = pipe.next() {
            for s in batch {
                assert!(!seen[s.id as usize]);
                seen[s.id as usize] = true;
                n += 1;
            }
        }
        assert!(seen.iter().all(|&x| x));
        n
    });
    assert_eq!(count, 2000);
}

#[test]
fn whole_benchmark_run_is_deterministic() {
    let run = || {
        let source = SyntheticSource::fixed(5, 3000, 4096);
        Runtime::simulate(99, |rt| {
            let dev = NvmeDevice::new(DeviceConfig::optane(128 << 20));
            let fs = dlfs::MountBuilder::new(DlfsConfig::default())
                .local(dev)
                .mount(rt, &source)
                .unwrap();
            let mut b = DlfsBackend::new(&fs, 0);
            let (ids, sums, ns) = drive(&mut b, rt, 1500);
            (ids, sums, ns, rt.now().nanos())
        })
        .0
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "sample order must be identical");
    assert_eq!(a.1, b.1, "payloads must be identical");
    assert_eq!(a.2, b.2, "virtual elapsed must be identical");
    assert_eq!(a.3, b.3, "final clock must be identical");
}

/// The copy pool overlaps the frontend (paper §III-C2): a deliver pass
/// publishes its first half the moment it is drawn, so the copy threads
/// work through it while the frontend draws the rest, and the batch waits
/// only for the second half. Batches of eight 4 KB samples, every one
/// resident from the previous epoch, four copy threads: per batch eight
/// `frontend_per_sample`, one poll iteration, two `copy_dispatch`es and
/// one 512 ns memcpy of tail — 6 432 ns. One run per pass waits for two
/// memcpys after its one enqueue (6 844 ns) and fails the 1 % bound.
#[test]
fn an_all_resident_batch_pays_one_memcpy_of_tail() {
    const BATCH: usize = 8;
    let source = SyntheticSource::fixed(21, 2000, 4096);
    Runtime::simulate(6, |rt| {
        let cfg = DlfsConfig {
            cache_mode: dlfs::CacheMode::CrossEpoch,
            ..DlfsConfig::default()
        };
        let c = cfg.costs.clone();
        let roof = c.frontend_per_sample * BATCH as u64
            + c.poll_iteration
            + c.copy_dispatch * 2
            + c.memcpy(4096);
        let fs = dlfs::MountBuilder::new(cfg)
            .local(NvmeDevice::new(DeviceConfig::optane(128 << 20)))
            .mount(rt, &source)
            .unwrap();
        let mut io = fs.io(0);
        let request = dlfs::ReadRequest::batch(BATCH);
        // The first epoch reads every chunk once and leaves it resident.
        io.sequence(rt, 3, 0);
        while io.submit(rt, &request).is_ok() {}
        let fetched = io.metrics().counter("dlfs.io.requests_posted");
        io.sequence(rt, 3, 1);
        let mut slowest = Dur::ZERO;
        for _ in 0..source.count() / BATCH {
            let t0 = rt.now();
            assert_eq!(io.submit(rt, &request).unwrap().len(), BATCH);
            slowest = slowest.max(rt.now() - t0);
        }
        assert_eq!(io.metrics().counter("dlfs.io.requests_posted"), fetched);
        assert!(
            slowest.as_nanos() as f64 <= 1.01 * roof.as_nanos() as f64,
            "a batch took {slowest:?} against {roof:?}"
        );
    });
}

/// Steady synchronous reads of 2 KiB samples from one local device that
/// serves a read in `delay` plus its fixed overheads, each once the handle
/// has timed `TIMED` reads alone: (wait, busy, parked) per read. The wait
/// is the device latency less the poll pass that follows the post.
fn steady_sync_read(delay: Dur) -> (Dur, Dur, Dur) {
    const READS: u64 = 16;
    const TIMED: u32 = 4;
    let source = SyntheticSource::fixed(13, 64, 2048);
    let per_read = |d: Dur| d / READS;
    Runtime::simulate(4, |rt| {
        let device = NvmeDevice::new(DeviceConfig::emulated_ramdisk(16 << 20, delay));
        let fs = dlfs::MountBuilder::new(DlfsConfig::default())
            .local(device)
            .mount(rt, &source)
            .unwrap();
        let mut io = fs.io(0);
        for id in 0..TIMED {
            io.read_by_id(rt, id).unwrap();
        }
        let (busy0, idle0) = (rt.my_busy(), rt.total_idle());
        for id in TIMED..TIMED + READS as u32 {
            assert_eq!(io.read_by_id(rt, id).unwrap(), source.expected(id));
        }
        // Every read, the first too, takes the same time on the device.
        let lat = io.metrics().histogram("blocksim.dev0.cmd_latency_ns");
        assert_eq!((lat.count, lat.sum % lat.count), (READS + TIMED as u64, 0));
        let busy = per_read(rt.my_busy() - busy0);
        let wait = Dur::nanos(lat.sum / lat.count) - DlfsConfig::default().costs.poll_iteration;
        (wait, busy, per_read(rt.total_idle() - idle0))
    })
    .0
}

/// Hybrid polling parks only a wait worth a kernel wake-up, as kernsim
/// prices one (`irq` + `context_switch`): a steady synchronous read whose
/// wait — which its reader predicts exactly — is just under twice that
/// spins through it; just over, it parks all of it but one wake-up, and
/// its busy time falls by what it parked.
#[test]
fn a_sync_read_parks_only_a_wait_worth_two_kernel_wakeups() {
    let k = KernelCosts::default();
    let threshold = (k.irq + k.context_switch) * 2;
    let probe = Dur::micros(5);
    let overheads = steady_sync_read(probe).0 - probe;
    let step = Dur::nanos(2);
    let (wait_under, busy_under, parked_under) = steady_sync_read(threshold - overheads - step);
    let (wait_over, busy_over, parked_over) = steady_sync_read(threshold - overheads + step);
    assert_eq!(
        (wait_under, wait_over),
        (threshold - step, threshold + step)
    );
    assert_eq!(parked_under, Dur::ZERO, "a wait under the threshold spins");
    assert_eq!(parked_over, wait_over - (k.irq + k.context_switch));
    // The same read, 2 × `step` longer, minus what it parked.
    let spun = busy_under + (wait_over - wait_under);
    let fell = spun.as_nanos() as i64 - busy_over.as_nanos() as i64;
    assert!(
        fell.abs_diff(parked_over.as_nanos() as i64) <= 1,
        "busy fell {fell} ns"
    );
}

#[test]
fn dlfs_order_trains_as_well_as_full_shuffle() {
    // Miniature Fig. 13 as a regression test.
    use dnn::{tail_accuracy, train_with_orders, ClassData, TrainConfig};
    let (train, val) = ClassData::synthetic(7, 3000, 24, 6, 1.8).split(0.25);
    let n = train.len();
    let cfg = TrainConfig {
        epochs: 10,
        hidden: vec![32],
        ..Default::default()
    };
    let full = train_with_orders(&train, &val, &cfg, |e| {
        dlfs::full_random_order(n, 3, e as u64)
    });

    let mut builder = dlfs::DirectoryBuilder::new(1, n).unwrap();
    let rec = train.record_len() as u64;
    for id in 0..n as u32 {
        builder
            .add(id, &format!("t_{id:06}"), 0, id as u64 * rec, rec)
            .unwrap();
    }
    let dir = builder.finish().unwrap();
    let dlfs_run = train_with_orders(&train, &val, &cfg, |e| {
        dlfs::build_epoch_plan(
            &dir,
            dlfs::plan::Extents::raw(8 << 10, dlfs::BatchMode::ChunkLevel),
            1,
            12,
            3,
            e as u64,
        )
        .readers[0]
            .order
            .clone()
    });
    let gap = (tail_accuracy(&full, 4) - tail_accuracy(&dlfs_run, 4)).abs();
    assert!(gap < 0.04, "accuracy gap {gap} too large");
}
