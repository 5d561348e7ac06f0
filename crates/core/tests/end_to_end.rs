//! End-to-end DLFS tests: mount → sequence → bread/read across local and
//! disaggregated deployments, with full payload verification.

mod common;

use std::sync::Arc;

use blocksim::{DeviceConfig, NvmeDevice, NvmeTarget};
use common::local_device;
use dlfs::source::SampleSource;
use dlfs::{
    BatchMode, CacheMode, Completions, Deployment, DlfsConfig, DlfsError, ReadRequest,
    SyntheticSource,
};
use fabric::{Cluster, FabricConfig};
use simkit::prelude::*;

/// Mount `source` disaggregated: `n` nodes, each a reader and an NVMe-oF
/// target, full mesh of remote targets.
fn disaggregated(rt: &Runtime, n: usize, source: &SyntheticSource) -> dlfs::DlfsInstance {
    let cluster = Arc::new(Cluster::new(n, FabricConfig::default()));
    let devices: Vec<Arc<NvmeDevice>> = (0..n)
        .map(|_| NvmeDevice::new(DeviceConfig::emulated_ramdisk(128 << 20, Dur::micros(10))))
        .collect();
    let nodes: Vec<usize> = (0..n).collect();
    dlfs::MountBuilder::new(DlfsConfig::default())
        .deployment(Deployment::fabric(&cluster, &nodes, &nodes, &devices).unwrap())
        .mount(rt, source)
        .unwrap()
}

/// The one wiring rule, for each placement in use — mesh (reader r and
/// device r on node r), a pool of storage nodes after the readers, one
/// reader after its devices: a reader reaches a device directly iff they
/// share a node, and from its own node to the device's over NVMe-oF
/// otherwise.
#[test]
fn a_reader_reaches_only_its_own_nodes_device_directly() {
    let placements: [(&[usize], &[usize]); 3] = [
        (&[0, 1, 2], &[0, 1, 2]),
        (&[0, 1], &[2, 3, 4]),
        (&[3], &[0, 1, 2]),
    ];
    for (reader_nodes, device_nodes) in placements {
        let cluster = Arc::new(Cluster::new(5, FabricConfig::default()));
        let devices: Vec<Arc<NvmeDevice>> = device_nodes
            .iter()
            .map(|_| NvmeDevice::new(DeviceConfig::emulated_ramdisk(1 << 20, Dur::micros(10))))
            .collect();
        let d = Deployment::fabric(&cluster, reader_nodes, device_nodes, &devices).unwrap();
        assert!(Arc::ptr_eq(d.cluster.as_ref().unwrap(), &cluster));
        assert_eq!(d.targets.len(), reader_nodes.len());
        for (row, &r) in d.targets.iter().zip(reader_nodes) {
            assert_eq!(row.len(), devices.len());
            for ((target, device), &host) in row.iter().zip(&devices).zip(device_nodes) {
                let want = if r == host {
                    device.describe()
                } else {
                    format!("nvme-of node{r}→node{host} ({})", device.config().name)
                };
                assert_eq!(
                    target.describe(),
                    want,
                    "readers {reader_nodes:?}, devices {device_nodes:?}"
                );
            }
        }
    }
}

#[test]
fn local_mount_bread_verifies_payloads() {
    Runtime::simulate(1, |rt| {
        let source = SyntheticSource::fixed(9, 5000, 2048);
        let fs = dlfs::MountBuilder::new(DlfsConfig::default())
            .local(local_device())
            .mount(rt, &source)
            .unwrap();
        assert_eq!(fs.dir.len(), 5000);
        fs.dir.validate().unwrap();

        let mut io = fs.io(0);
        let total = io.sequence(rt, 77, 0);
        assert_eq!(total, 5000);
        let mut seen = vec![false; 5000];
        let mut read = 0;
        while read < 2000 {
            let batch = io
                .submit(rt, &ReadRequest::batch(32))
                .unwrap()
                .into_copied();
            for (id, data) in &batch {
                assert_eq!(data, &source.expected(*id), "payload mismatch for {id}");
                assert!(!seen[*id as usize], "duplicate delivery {id}");
                seen[*id as usize] = true;
            }
            read += batch.len();
        }
        let m = io.metrics();
        assert_eq!(m.counter("dlfs.io.samples_delivered"), read as u64);
        assert_eq!(m.counter("dlfs.io.bytes_delivered"), read as u64 * 2048);
        // Chunk batching: far fewer device requests than samples.
        assert!(
            m.counter("dlfs.io.requests_posted") < 200,
            "expected chunked fetches, got {} requests",
            m.counter("dlfs.io.requests_posted")
        );
        // The stage histograms saw every pipeline phase.
        for stage in ["prep", "post", "poll", "copy"] {
            let h = m.histogram(&format!("dlfs.io.stage.{stage}_ns"));
            assert!(h.count > 0, "stage {stage} unrecorded");
        }
    });
}

#[test]
fn full_epoch_delivers_every_sample_once() {
    Runtime::simulate(2, |rt| {
        let source = SyntheticSource::fixed(3, 3000, 700);
        let fs = dlfs::MountBuilder::new(DlfsConfig::default())
            .local(local_device())
            .mount(rt, &source)
            .unwrap();
        let mut io = fs.io(0);
        let total = io.sequence(rt, 5, 0);
        let mut seen = vec![false; total];
        loop {
            match io
                .submit(rt, &ReadRequest::batch(64))
                .map(Completions::into_copied)
            {
                Ok(batch) => {
                    for (id, data) in batch {
                        assert!(!seen[id as usize]);
                        seen[id as usize] = true;
                        assert_eq!(data.len(), 700);
                    }
                }
                Err(DlfsError::EpochExhausted) => break,
                Err(e) => panic!("{e}"),
            }
        }
        assert!(seen.iter().all(|&s| s));
        // Sample cache fully drained after the epoch.
        assert_eq!(
            fs.shared(0).cache.free_chunks(),
            fs.shared(0).cache.total_chunks()
        );
    });
}

/// A `queue_depth` above the device's limit is clamped per qpair (128 on
/// every `DeviceConfig`), and the engine asks the qpair, not the config,
/// whether it has room: with 200 one-chunk reads in the window it would
/// otherwise post a 129th command and panic on `QueueFull`.
#[test]
fn a_queue_depth_above_the_device_limit_is_clamped_not_a_panic() {
    Runtime::simulate(3, |rt| {
        let source = SyntheticSource::fixed(5, 4000, 4096);
        let cfg = DlfsConfig {
            chunk_size: 4096,
            queue_depth: 256,
            window_chunks: 200,
            pool_chunks: 600,
            ..DlfsConfig::default()
        };
        let fs = dlfs::MountBuilder::new(cfg)
            .local(local_device())
            .mount(rt, &source)
            .unwrap();
        let mut io = fs.io(0);
        io.sequence(rt, 5, 0);
        let mut seen = vec![false; source.count()];
        loop {
            match io
                .submit(rt, &ReadRequest::batch(64))
                .map(Completions::into_copied)
            {
                Ok(batch) => {
                    for (id, data) in batch {
                        assert!(!seen[id as usize], "sample {id} delivered twice");
                        seen[id as usize] = true;
                        assert_eq!(data, source.expected(id), "sample {id}");
                    }
                }
                Err(DlfsError::EpochExhausted) => break,
                Err(e) => panic!("{e}"),
            }
        }
        assert!(seen.iter().all(|&s| s), "every sample delivered");
    });
}

#[test]
fn dlfs_read_by_name_and_lookup() {
    Runtime::simulate(3, |rt| {
        let source = SyntheticSource::fixed(4, 1000, 4096);
        let fs = dlfs::MountBuilder::new(DlfsConfig::default())
            .local(local_device())
            .mount(rt, &source)
            .unwrap();
        let mut io = fs.io(0);
        for id in [0u32, 17, 999] {
            let name = source.name(id);
            let data = io.read(rt, &name).unwrap();
            assert_eq!(data, source.expected(id));
            // DLFS handles are directory references: a name resolves to
            // its sample id through the directory, nothing to open or close.
            let costs = &fs.shared(0).cfg.costs;
            let (h, _) = fs.dir.lookup(rt, costs, &name).unwrap();
            assert_eq!(h, id);
        }
        assert!(matches!(
            io.read(rt, "missing"),
            Err(DlfsError::NotFound(_))
        ));
        assert!(matches!(
            io.read_by_id(rt, 5000),
            Err(DlfsError::BadSampleId(_))
        ));
    });
}

#[test]
fn bread_before_sequence_errors() {
    Runtime::simulate(4, |rt| {
        let source = SyntheticSource::fixed(1, 100, 512);
        let fs = dlfs::MountBuilder::new(DlfsConfig::default())
            .local(local_device())
            .mount(rt, &source)
            .unwrap();
        let mut io = fs.io(0);
        assert!(matches!(
            io.submit(rt, &ReadRequest::batch(8)),
            Err(DlfsError::NoSequence)
        ));
    });
}

#[test]
fn sample_level_mode_for_large_samples() {
    Runtime::simulate(5, |rt| {
        // 512 KB samples: auto mode must pick sample-level batching, with
        // multi-chunk (multi-part) fetches.
        let source = SyntheticSource::fixed(8, 64, 512 * 1024);
        let cfg = DlfsConfig {
            pool_chunks: 128,
            ..Default::default()
        };
        let fs = dlfs::MountBuilder::new(cfg.clone())
            .local(local_device())
            .mount(rt, &source)
            .unwrap();
        assert_eq!(
            cfg.effective_mode(fs.dir.avg_sample_bytes()),
            BatchMode::SampleLevel
        );
        let mut io = fs.io(0);
        io.sequence(rt, 1, 0);
        let batch = io
            .submit(rt, &ReadRequest::batch(16))
            .unwrap()
            .into_copied();
        for (id, data) in &batch {
            assert_eq!(data, &source.expected(*id));
        }
        // Each sample needs 2 chunks → ≥2 requests per sample.
        assert!(io.metrics().counter("dlfs.io.requests_posted") >= 32);
    });
}

#[test]
fn edge_samples_cross_chunk_boundaries_correctly() {
    Runtime::simulate(6, |rt| {
        // 3000-byte samples in 4 KiB chunks: lots of edge samples.
        let source = SyntheticSource::fixed(2, 500, 3000);
        let cfg = DlfsConfig {
            chunk_size: 4096,
            pool_chunks: 256,
            window_chunks: 8,
            batch_mode: BatchMode::ChunkLevel,
            ..Default::default()
        };
        let fs = dlfs::MountBuilder::new(cfg)
            .local(local_device())
            .mount(rt, &source)
            .unwrap();
        let mut io = fs.io(0);
        let total = io.sequence(rt, 9, 0);
        let mut delivered = 0;
        while delivered < total {
            let batch = io
                .submit(rt, &ReadRequest::batch(50))
                .unwrap()
                .into_copied();
            for (id, data) in &batch {
                assert_eq!(data, &source.expected(*id), "edge sample {id} corrupted");
            }
            delivered += batch.len();
        }
    });
}

/// Exact-extent fetch items: one epoch-scoped epoch reads each sample's
/// bytes off the devices once. The only slack is block alignment — at most
/// 511 B before and after each fetch item — on both delivery paths, with
/// and without replication + verified reads.
#[test]
fn epoch_reads_sample_bytes_plus_block_alignment_only() {
    for (zero_copy, redundant) in [(false, false), (true, false), (false, true), (true, true)] {
        Runtime::simulate(8, |rt| {
            let sizes: Vec<u64> = (0..600u64).map(|i| 900 + (i * 617) % 5000).collect();
            let source = SyntheticSource::new(4, sizes.clone());
            let cfg = DlfsConfig {
                chunk_size: 8 * 1024,
                pool_chunks: 256,
                batch_mode: BatchMode::ChunkLevel,
                replicas: if redundant { 2 } else { 1 },
                verify_reads: redundant,
                ..Default::default()
            };
            let devices = [local_device(), local_device()];
            let fs = dlfs::MountBuilder::new(cfg.clone())
                .deployment(Deployment::local(1, &devices))
                .mount(rt, &source)
                .unwrap();
            let items = dlfs::build_epoch_plan(
                &fs.dir,
                dlfs::plan::Extents::raw(cfg.chunk_size, cfg.batch_mode),
                1,
                8,
                9,
                0,
            )
            .readers[0]
                .items
                .len() as u64;
            let mut io = fs.io(0);
            let total = io.sequence(rt, 9, 0);
            let mut delivered = 0;
            while delivered < total {
                let req = ReadRequest::batch(40);
                if zero_copy {
                    for z in io.submit(rt, &req.zero_copy()).unwrap().into_zero_copy() {
                        assert_eq!(z.to_vec(), source.expected(z.id));
                        delivered += 1;
                    }
                } else {
                    for (id, data) in io.submit(rt, &req).unwrap().into_copied() {
                        assert_eq!(data, source.expected(id));
                        delivered += 1;
                    }
                }
            }
            let m = io.metrics();
            let read: u64 = (0..2)
                .map(|n| m.counter(&format!("blocksim.dev{n}.bytes")))
                .sum();
            let payload: u64 = sizes.iter().sum();
            assert!(read >= payload);
            assert!(
                read <= payload + 2 * 511 * items,
                "zero_copy={zero_copy} redundant={redundant}: read {read} B for {payload} B \
                 of samples in {items} items"
            );
        });
    }
}

/// The ids `io` delivers over the whole of epoch `epoch` of `seed`, in
/// delivery order.
fn delivered_ids(rt: &Runtime, io: &mut dlfs::DlfsIo, seed: u64, epoch: u64) -> Vec<u32> {
    io.sequence(rt, seed, epoch);
    let mut ids = Vec::new();
    while let Ok(batch) = io.submit(rt, &ReadRequest::batch(64)) {
        ids.extend(batch.into_copied().into_iter().map(|(id, _)| id));
    }
    ids
}

#[test]
fn multi_epoch_reshuffles() {
    Runtime::simulate(7, |rt| {
        let source = SyntheticSource::fixed(5, 600, 1024);
        let fs = dlfs::MountBuilder::new(DlfsConfig::default())
            .local(local_device())
            .mount(rt, &source)
            .unwrap();
        let mut io = fs.io(0);
        let e0 = delivered_ids(rt, &mut io, 42, 0);
        let e1 = delivered_ids(rt, &mut io, 42, 1);
        assert_ne!(e0, e1);
        for mut ids in [e0, e1] {
            ids.sort_unstable();
            assert_eq!(ids, (0..600).collect::<Vec<u32>>(), "every sample once");
        }
    });
}

#[test]
fn disaggregated_mount_and_bread_all_readers() {
    Runtime::simulate(8, |rt| {
        let n = 4;
        let source = SyntheticSource::fixed(11, 4000, 1500);
        let fs = Arc::new(disaggregated(rt, n, &source));
        // Every reader reads its slice concurrently; together they must
        // cover every sample exactly once.
        let (tx, rx) = rt.channel::<Vec<u32>>(None);
        let mut handles = Vec::new();
        for r in 0..n {
            let fs = fs.clone();
            let tx = tx.clone();
            let source = source.clone();
            handles.push(rt.spawn(&format!("reader{r}"), move |rt| {
                let mut io = fs.io(r);
                let mine = io.sequence(rt, 99, 0);
                let mut got = Vec::with_capacity(mine);
                while let Ok(batch) = io
                    .submit(rt, &ReadRequest::batch(32))
                    .map(Completions::into_copied)
                {
                    for (id, data) in batch {
                        assert_eq!(data, source.expected(id));
                        got.push(id);
                    }
                }
                tx.send(got).unwrap();
            }));
        }
        drop(tx);
        for h in handles {
            h.join();
        }
        let mut seen = vec![false; 4000];
        while let Ok(ids) = rx.recv() {
            for id in ids {
                assert!(!seen[id as usize], "sample {id} read twice");
                seen[id as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "some sample never read");
    });
}

#[test]
fn same_seed_same_global_plan_across_readers() {
    Runtime::simulate(9, |rt| {
        let source = SyntheticSource::fixed(1, 900, 800);
        let fs = disaggregated(rt, 3, &source);
        let mut all: Vec<u32> = (0..3)
            .flat_map(|r| delivered_ids(rt, &mut fs.io(r), 1234, 0))
            .collect();
        all.sort_unstable();
        let every: Vec<u32> = (0..900).collect();
        assert_eq!(all, every, "readers' slices must partition the set");
    });
}

#[test]
fn batching_beats_synchronous_reads() {
    // The Fig. 6 mechanism: DLFS (batched) must outrun DLFS-Base
    // (synchronous dlfs_read) by a wide margin on small samples.
    let t_batched = Runtime::simulate(10, |rt| {
        let source = SyntheticSource::fixed(2, 4000, 4096);
        let fs = dlfs::MountBuilder::new(DlfsConfig::default())
            .local(local_device())
            .mount(rt, &source)
            .unwrap();
        let mut io = fs.io(0);
        io.sequence(rt, 1, 0);
        let t0 = rt.now();
        let mut got = 0;
        while got < 2000 {
            got += io
                .submit(rt, &ReadRequest::batch(32))
                .unwrap()
                .into_copied()
                .len();
        }
        (rt.now() - t0).as_nanos()
    })
    .0;
    let t_sync = Runtime::simulate(10, |rt| {
        let source = SyntheticSource::fixed(2, 4000, 4096);
        let fs = dlfs::MountBuilder::new(DlfsConfig::default())
            .local(local_device())
            .mount(rt, &source)
            .unwrap();
        let mut io = fs.io(0);
        let order = dlfs::full_random_order(4000, 1, 0);
        let t0 = rt.now();
        for &id in order.iter().take(2000) {
            io.read_by_id(rt, id).unwrap();
        }
        (rt.now() - t0).as_nanos()
    })
    .0;
    assert!(
        t_batched * 4 < t_sync,
        "batched {t_batched}ns vs sync {t_sync}ns"
    );
}

#[test]
fn compute_injection_overlaps_with_io() {
    // Fig. 7b mechanism: moderate injected computation should not reduce
    // throughput; excessive computation should.
    let run = |inject: Dur| {
        Runtime::simulate(11, |rt| {
            let source = SyntheticSource::fixed(2, 3000, 128 * 1024);
            let dev = NvmeDevice::new(DeviceConfig::optane(1 << 30));
            let fs = dlfs::MountBuilder::new(DlfsConfig::default())
                .local(dev)
                .mount(rt, &source)
                .unwrap();
            let mut io = fs.io(0);
            io.sequence(rt, 1, 0);
            let t0 = rt.now();
            let mut got = 0;
            while got < 640 {
                got += io
                    .submit(rt, &ReadRequest::batch(32).inject_compute(inject))
                    .unwrap()
                    .len();
            }
            (rt.now() - t0).as_secs_f64()
        })
        .0
    };
    let base = run(Dur::ZERO);
    let small = run(Dur::micros(200));
    let huge = run(Dur::millis(20));
    assert!(
        small < base * 1.25,
        "small inject hurt: base {base} small {small}"
    );
    assert!(
        huge > base * 2.0,
        "huge inject should dominate: {huge} vs {base}"
    );
}

#[test]
fn v_bit_fast_path_serves_from_cache() {
    Runtime::simulate(12, |rt| {
        let source = SyntheticSource::fixed(6, 2000, 1024);
        let fs = dlfs::MountBuilder::new(DlfsConfig::default())
            .local(local_device())
            .mount(rt, &source)
            .unwrap();
        let mut io = fs.io(0);
        io.sequence(rt, 3, 0);
        // Fetch one batch so some chunks are resident with V bits set.
        let batch = io.submit(rt, &ReadRequest::batch(8)).unwrap().into_copied();
        let _ = batch;
        // Find a sample whose V bit is on.
        let resident = (0..2000u32).find(|&id| fs.dir.is_valid(id));
        if let Some(id) = resident {
            let t0 = rt.now();
            let data = io.read_by_id(rt, id).unwrap();
            let fast = rt.now() - t0;
            assert_eq!(data, source.expected(id));
            // Served from the sample cache: no device latency (~11us).
            assert!(fast < Dur::micros(8), "cache hit took {fast:?}");
        }
    });
}

#[test]
fn mid_epoch_resequence_releases_everything() {
    // Regression test: replacing an epoch while fetches are in flight and
    // chunks are resident must wait out the commands and return every
    // cache chunk (this used to leak ranges and corrupt the next epoch).
    Runtime::simulate(13, |rt| {
        let source = SyntheticSource::fixed(4, 6000, 2048);
        let fs = dlfs::MountBuilder::new(DlfsConfig::default())
            .local(local_device())
            .mount(rt, &source)
            .unwrap();
        let total_chunks = fs.shared(0).cache.total_chunks();
        let mut io = fs.io(0);
        for epoch in 0..6u64 {
            io.sequence(rt, 21, epoch);
            // Read only a fragment, leaving the pipeline full.
            let batch = io
                .submit(rt, &ReadRequest::batch(40))
                .unwrap()
                .into_copied();
            for (id, data) in &batch {
                assert_eq!(data, &source.expected(*id), "epoch {epoch} sample {id}");
            }
        }
        // A final abort via sequence, then a full clean epoch.
        let total = io.sequence(rt, 22, 99);
        let mut seen = vec![false; total];
        let mut read = 0;
        while read < total {
            let batch = io
                .submit(rt, &ReadRequest::batch(64))
                .unwrap()
                .into_copied();
            for (id, data) in &batch {
                assert!(!seen[*id as usize], "duplicate {id}");
                seen[*id as usize] = true;
                assert_eq!(data, &source.expected(*id));
            }
            read += batch.len();
        }
        assert!(seen.iter().all(|&x| x));
        assert_eq!(
            fs.shared(0).cache.free_chunks(),
            total_chunks,
            "all chunks must return to the pool"
        );
    });
}

/// The books of a copied epoch after one `submit`: every sample is whole,
/// source-equal and new, and nothing the call drew is still staged or with
/// the copy pool — what has been handed out and what `remaining()` still
/// owes add up to the epoch, and the delivery counter agrees.
fn account_copied(
    io: &dlfs::DlfsIo,
    source: &SyntheticSource,
    batch: Vec<(u32, Vec<u8>)>,
    seen: &mut [bool],
    handed_out: &mut usize,
) {
    for (id, data) in batch {
        assert_eq!(data, source.expected(id), "sample {id}");
        assert!(
            !std::mem::replace(&mut seen[id as usize], true),
            "{id} twice"
        );
        *handed_out += 1;
    }
    assert_eq!(
        *handed_out + io.remaining(),
        seen.len(),
        "a drawn sample is unpublished"
    );
    let counted = io.metrics().counter("dlfs.io.samples_delivered");
    assert_eq!(
        counted, *handed_out as u64,
        "a published copy is uncollected"
    );
}

/// Zero-copy samples the caller holds pin all but three chunks of the
/// pool. A copied batch on the dry pool is `CacheExhausted` with nothing
/// staged; on three chunks it is assembled from many short runs — a pass
/// ends after at most three samples — each published before the next pass
/// and all collected before `submit` returns.
#[test]
fn a_pump_starved_by_held_pins_never_tears_the_run() {
    Runtime::simulate(24, |rt| {
        let source = SyntheticSource::fixed(6, 400, 200 << 10);
        let fs = dlfs::MountBuilder::new(DlfsConfig::default())
            .local(local_device())
            .mount(rt, &source)
            .unwrap();
        let mut io = fs.io(0);
        let total = io.sequence(rt, 5, 0);
        let mut seen = vec![false; total];
        let mut held = Vec::new();
        loop {
            match io.submit(rt, &ReadRequest::batch(16).zero_copy()) {
                Ok(batch) => held.extend(batch.into_zero_copy()),
                Err(DlfsError::CacheExhausted) => break,
                Err(e) => panic!("{e}"),
            }
        }
        for s in &held {
            assert_eq!(s.to_vec(), source.expected(s.id));
            assert!(!std::mem::replace(&mut seen[s.id as usize], true));
        }
        let mut handed_out = held.len();
        assert_eq!(fs.shared(0).cache.free_chunks(), 0, "the pool is dry");
        assert_eq!(
            io.submit(rt, &ReadRequest::batch(16)).map(|b| b.len()),
            Err(DlfsError::CacheExhausted)
        );
        assert_eq!(handed_out + io.remaining(), total, "nothing was drawn");
        let zero_copied = held.len() as u64;
        held.truncate(held.len() - 3);
        loop {
            let batch = match io.submit(rt, &ReadRequest::batch(16)) {
                Ok(batch) => batch.into_copied(),
                Err(DlfsError::EpochExhausted) => break,
                Err(e) => panic!("{e}"),
            };
            assert_eq!(batch.len(), 16.min(total - handed_out));
            account_copied(&io, &source, batch, &mut seen, &mut handed_out);
        }
        assert_eq!(handed_out, total);
        let m = io.metrics();
        assert_eq!(m.counter("dlfs.io.samples_delivered"), total as u64);
        assert_eq!(m.counter("dlfs.io.cache.pins"), zero_copied);
        // One copy_ns record per copied sample, each from its own run.
        let copies = m.histogram("dlfs.io.stage.copy_ns").count;
        assert_eq!(copies, total as u64 - zero_copied);
    });
}

/// A deliver pass that wants more samples than there are copy threads
/// publishes two runs — its first ⌈n/2⌉ samples the moment they are drawn,
/// the rest as the pass ends — and one that wants no more publishes one.
/// Batches of n 2 KB samples, all resident from the previous epoch, are one
/// pass each, and the first run is copied before the second is published.
/// So a batch takes exactly n × `frontend_per_sample`, a poll iteration,
/// one `copy_dispatch` per run and the wait for the last run; and a run of
/// r entries, list-scheduled from its publish over T idle threads, adds
/// memcpy × Σ_{j<r} (⌊j/T⌋ + 1) to `stage.copy_ns`, which ends when the
/// copy thread finishes, not when the frontend collects. On one thread the
/// two pin each run's size; on four, n ≤ 4 is one run.
#[test]
fn a_pass_publishes_its_first_half_as_it_is_drawn() {
    let source = SyntheticSource::fixed(15, 1200, 2048);
    for (threads, n) in (1..=9usize).flat_map(|n| [(1, n), (4, n)]) {
        let runs = match n > threads {
            true => vec![n.div_ceil(2), n / 2],
            false => vec![n],
        };
        let cfg = DlfsConfig {
            cache_mode: CacheMode::CrossEpoch,
            copy_threads: threads,
            ..DlfsConfig::default()
        };
        let c = cfg.costs.clone();
        let copy = c.memcpy(2048);
        let tail = copy * runs[runs.len() - 1].div_ceil(threads) as u64;
        let took = c.frontend_per_sample * n as u64
            + c.poll_iteration
            + c.copy_dispatch * runs.len() as u64
            + tail;
        let staged = |r: usize| (0..r).map(|j| copy * (j / threads + 1) as u64);
        let copy_ns = runs.iter().flat_map(|&r| staged(r)).sum::<Dur>();
        Runtime::simulate(27, |rt| {
            let fs = dlfs::MountBuilder::new(cfg)
                .local(local_device())
                .mount(rt, &source)
                .unwrap();
            let mut io = fs.io(0);
            let request = ReadRequest::batch(n);
            io.sequence(rt, 19, 0);
            while io.submit(rt, &request).is_ok() {}
            io.sequence(rt, 19, 1);
            let copy_sum = |io: &dlfs::DlfsIo| io.metrics().histogram("dlfs.io.stage.copy_ns").sum;
            for _ in 0..20 {
                let (t0, s0) = (rt.now(), copy_sum(&io));
                assert_eq!(io.submit(rt, &request).unwrap().len(), n);
                let cell = format!("{threads} thread(s), batch {n}");
                assert_eq!(rt.now() - t0, took, "{cell}");
                assert_eq!(copy_sum(&io) - s0, copy_ns.as_nanos(), "{cell}");
            }
        });
    }
}

/// A local small-sample epoch runs at the rate of its one frontend thread.
/// Per sample that thread pays `frontend_per_sample`; per batch of 32, two
/// `copy_dispatch`es (the pass publishes its first half as it is drawn and
/// the rest as it ends), one poll iteration and the tail of the second run
/// (16 memcpys over `copy_threads`; the pool copied the first half while
/// the frontend drew the second); per device request — one chunk of 1 KB
/// samples — one prep, post and completion: 728.5 ns per sample. The epoch
/// runs 728.3 ns, within 1 % of the rate those `DlfsCosts` alone allow. One
/// run per pass, with its whole 32-memcpy tail, runs 741.3 ns (98.3 %) and
/// fails the bound; an enqueue per sample (`frontend_per_sample +
/// copy_dispatch` each) stops near 91 %.
#[test]
fn small_sample_epoch_meets_its_frontend_roofline() {
    const BATCH: u64 = 32;
    Runtime::simulate(25, |rt| {
        let source = SyntheticSource::fixed(13, 24_000, 1024);
        let cfg = DlfsConfig {
            batch_mode: BatchMode::ChunkLevel,
            ..DlfsConfig::default()
        };
        let costs = cfg.costs.clone();
        let per_batch = costs.copy_dispatch * 2
            + costs.poll_iteration
            + costs.memcpy(1024) * (BATCH / 2).div_ceil(cfg.copy_threads as u64);
        let per_request = costs.prep_request + costs.post_request + costs.per_completion;
        let roofline_ns = costs.frontend_per_sample.as_nanos() as f64
            + per_batch.as_nanos() as f64 / BATCH as f64
            + per_request.as_nanos() as f64 / (cfg.chunk_size / 1024) as f64;
        let fs = dlfs::MountBuilder::new(cfg)
            .local(local_device())
            .mount(rt, &source)
            .unwrap();
        let mut io = fs.io(0);
        io.sequence(rt, 17, 0);
        let request = ReadRequest::batch(BATCH as usize);
        // Past the first device reads, short of the epoch's draining tail.
        for _ in 0..50 {
            io.submit(rt, &request).unwrap();
        }
        let (t0, batches) = (rt.now(), 600);
        for _ in 0..batches {
            assert_eq!(io.submit(rt, &request).unwrap().len(), BATCH as usize);
        }
        let per_sample_ns = (rt.now() - t0).as_nanos() as f64 / (batches * BATCH) as f64;
        assert!(
            roofline_ns >= 0.99 * per_sample_ns,
            "{per_sample_ns:.1} ns per sample against a roofline of {roofline_ns:.1} ns"
        );
    });
}

/// A verified epoch pays for its checksums on the copy pool, not on the
/// polling thread. Local devices, two copies, `verify_reads`, 8 KiB chunks
/// of 2 KiB samples, batches of 16: per sample the frontend is charged
/// `frontend_per_sample`; per batch one poll pass, three enqueues (the
/// pass's check entries, the two halves of the batch's copies) and the
/// wait for the second half (8 memcpys over `copy_threads`); per device
/// request — one chunk of four samples — one prep, post and completion:
/// 920.75 ns per sample. No verify term: the epoch runs 920.7 ns, within
/// 1 % of it. One run of copies per pass, with its 16-memcpy tail, runs
/// 946.5 ns (97.3 %) and fails the bound; with the checksums of every
/// harvested block on the polling thread (16 blocks a request) it stops
/// near 93 %.
#[test]
fn verified_epoch_meets_its_frontend_roofline() {
    const BATCH: u64 = 16;
    Runtime::simulate(26, |rt| {
        let source = SyntheticSource::fixed(14, 24_000, 2048);
        let cfg = DlfsConfig {
            chunk_size: 8 << 10,
            replicas: 2,
            verify_reads: true,
            batch_mode: BatchMode::ChunkLevel,
            ..DlfsConfig::default()
        };
        let costs = cfg.costs.clone();
        let per_batch = costs.poll_iteration
            + costs.copy_dispatch * 3
            + costs.memcpy(2048) * (BATCH / 2).div_ceil(cfg.copy_threads as u64);
        let per_request = costs.prep_request + costs.post_request + costs.per_completion;
        let roofline_ns = costs.frontend_per_sample.as_nanos() as f64
            + per_batch.as_nanos() as f64 / BATCH as f64
            + per_request.as_nanos() as f64 / (cfg.chunk_size / 2048) as f64;
        let ramdisk = || NvmeDevice::new(DeviceConfig::emulated_ramdisk(64 << 20, Dur::micros(10)));
        let devices = [ramdisk(), ramdisk(), ramdisk()];
        let fs = dlfs::MountBuilder::new(cfg)
            .deployment(Deployment::local(1, &devices))
            .mount(rt, &source)
            .unwrap();
        let mut io = fs.io(0);
        io.sequence(rt, 18, 0);
        let request = ReadRequest::batch(BATCH as usize);
        // Past the first device reads, short of the epoch's draining tail.
        for _ in 0..100 {
            io.submit(rt, &request).unwrap();
        }
        let (t0, batches) = (rt.now(), 1200);
        for _ in 0..batches {
            assert_eq!(io.submit(rt, &request).unwrap().len(), BATCH as usize);
        }
        let per_sample_ns = (rt.now() - t0).as_nanos() as f64 / (batches * BATCH) as f64;
        assert!(
            roofline_ns >= 0.99 * per_sample_ns,
            "{per_sample_ns:.1} ns per sample against a roofline of {roofline_ns:.1} ns"
        );
        let m = io.metrics();
        assert!(m.counter("dlfs.integrity.verified") > 0);
        assert_eq!(m.counter("dlfs.integrity.mismatches"), 0);
    });
}
