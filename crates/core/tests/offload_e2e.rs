//! End-to-end storage-side offload tests: `ReadRequest::offload` batches
//! are assembled on the target (read → verify → decode server-side, ONE
//! dense response per node) and must deliver byte-identical payloads to
//! the client-side engine path — same dataset, same seed — including
//! under fabric fault injection and stored-frame corruption. The default
//! configuration (`offload: false`) rejects offload requests with a typed
//! error and builds none of this.

mod common;

use std::collections::HashMap;
use std::sync::Arc;

use blocksim::{DeviceConfig, FaultInjector, NvmeDevice, NvmeTarget, BLOCK_SIZE};
use common::{ramdisk, test_seed};
use dlfs::source::SampleSource;
use dlfs::{
    CodecKind, Completions, Deployment, DlfsConfig, DlfsError, DlfsInstance, IoFailure,
    ReadRequest, SyntheticSource,
};
use fabric::{Cluster, FabricConfig, FabricFaultInjector};
use simkit::prelude::*;
use simkit::rng::{fnv1a, SplitMix64};

fn offload_cfg(codec: CodecKind) -> DlfsConfig {
    DlfsConfig {
        chunk_size: 8 * 1024,
        codec,
        offload: true,
        ..DlfsConfig::default()
    }
}

/// Single-reader disaggregated deployment: reader 0 reaches every device
/// through NVMe-oF, so offload exchanges traverse the fabric.
fn disaggregated(
    rt: &Runtime,
    n: usize,
    source: &dyn SampleSource,
    cfg: DlfsConfig,
) -> (DlfsInstance, Arc<Cluster>, Vec<Arc<NvmeDevice>>) {
    let devices: Vec<Arc<NvmeDevice>> = (0..n).map(|_| ramdisk(128 << 20)).collect();
    let (deployment, cluster) = fabric_deployment(&devices, FabricConfig::default());
    let fs = dlfs::MountBuilder::new(cfg)
        .deployment(deployment)
        .mount(rt, source)
        .unwrap();
    (fs, cluster, devices)
}

/// `devices` exported over NVMe-oF to one reader on the last cluster node.
fn fabric_deployment(
    devices: &[Arc<NvmeDevice>],
    fabric: FabricConfig,
) -> (Deployment, Arc<Cluster>) {
    let n = devices.len();
    let cluster = Arc::new(Cluster::new(n + 1, fabric));
    let device_nodes: Vec<usize> = (0..n).collect();
    let deployment = Deployment::fabric(&cluster, &[n], &device_nodes, devices).unwrap();
    (deployment, cluster)
}

/// Drain one full epoch through `submit`, returning id → payload.
fn drain_to_map(
    rt: &Runtime,
    io: &mut dlfs::DlfsIo,
    req_of: &dyn Fn() -> ReadRequest,
) -> HashMap<u32, Vec<u8>> {
    let mut out = HashMap::new();
    loop {
        match io.submit(rt, &req_of()).map(Completions::into_copied) {
            Ok(batch) => {
                for (id, data) in batch {
                    assert!(
                        out.insert(id, data).is_none(),
                        "sample {id} delivered twice"
                    );
                }
            }
            Err(DlfsError::EpochExhausted) => break,
            Err(e) => panic!("epoch failed: {e}"),
        }
    }
    out
}

/// Offloaded batches and client-side batches of the same (seed, epoch)
/// plan deliver identical payload bytes for every sample — with and
/// without compression.
#[test]
fn offload_matches_client_path_bytes() {
    for codec in [CodecKind::Identity, CodecKind::Lz] {
        Runtime::simulate(test_seed(96), |rt| {
            let comp = SyntheticSource::compressible(31, 300, 2600, 48);
            let devices = vec![ramdisk(64 << 20), ramdisk(64 << 20)];
            let fs = dlfs::MountBuilder::new(offload_cfg(codec))
                .deployment(Deployment::local(1, &devices))
                .mount(rt, &comp)
                .unwrap();
            let mut io = fs.io(0);
            io.sequence(rt, 5, 0);
            let client = drain_to_map(rt, &mut io, &|| ReadRequest::batch(32));
            io.sequence(rt, 5, 0);
            let offloaded = drain_to_map(rt, &mut io, &|| ReadRequest::batch(32).offload());
            assert_eq!(client.len(), comp.count());
            assert_eq!(offloaded.len(), comp.count());
            for id in 0..comp.count() as u32 {
                assert_eq!(offloaded[&id], comp.expected(id), "sample {id} corrupted");
                assert_eq!(offloaded[&id], client[&id], "offload diverged on {id}");
            }
            let m = io.metrics();
            assert!(m.counter("dlfs.offload.requests") > 0);
            assert_eq!(m.counter("dlfs.offload.samples"), comp.count() as u64);
            let dataset: u64 = (0..comp.count() as u32).map(|id| comp.size(id)).sum();
            assert!(m.counter("dlfs.offload.wire_bytes") > dataset);
        });
    }
}

/// Over a real NVMe-oF fabric with injected delays and drops, offloaded
/// epochs still deliver every payload byte-correct (faults shift timing,
/// never bytes).
#[test]
fn offload_over_faulty_fabric_stays_byte_identical() {
    Runtime::simulate(test_seed(97), |rt| {
        let comp = SyntheticSource::compressible(32, 400, 2600, 40);
        let (fs, cluster, _devices) = disaggregated(rt, 3, &comp, offload_cfg(CodecKind::Lz));
        cluster.set_faults(
            FabricFaultInjector::new(41)
                .with_delays(200_000, Dur::micros(200))
                .with_drops(50_000)
                .with_io_timeout(Dur::millis(1)),
        );
        let mut io = fs.io(0);
        io.sequence(rt, 6, 0);
        let healthy_now = rt.now();
        let offloaded = drain_to_map(rt, &mut io, &|| ReadRequest::batch(32).offload());
        assert!(rt.now() > healthy_now, "the epoch must cost virtual time");
        assert_eq!(offloaded.len(), comp.count());
        for id in 0..comp.count() as u32 {
            assert_eq!(offloaded[&id], comp.expected(id), "sample {id} corrupted");
        }
        // The dense responses moved real bytes over the reader's NIC.
        let dataset: u64 = (0..comp.count() as u32).map(|id| comp.size(id)).sum();
        let (_tx, rx) = cluster.node_traffic(3);
        assert!(
            rx > dataset,
            "reader ingress {rx} should exceed the dataset size {dataset}"
        );
    });
}

/// The offload read path verifies the *stored* (encoded) bytes before the
/// target-side decoder runs: silent flips fail over to the replica, the
/// home extent is read-repaired, and every payload stays byte-correct.
#[test]
fn offload_verifies_encoded_frames_and_repairs() {
    Runtime::simulate(test_seed(98), |rt| {
        let comp = SyntheticSource::compressible(33, 400, 2048, 40);
        let cfg = DlfsConfig {
            replicas: 2,
            verify_reads: true,
            ..offload_cfg(CodecKind::Lz)
        };
        let devices = vec![ramdisk(64 << 20), ramdisk(64 << 20)];
        let fs = dlfs::MountBuilder::new(cfg)
            .deployment(Deployment::local(1, &devices))
            .persistent()
            .mount(rt, &comp)
            .unwrap();
        let sb0 = fs.shared(0).layouts.as_ref().unwrap()[0].clone();
        devices[0]
            .set_faults(FaultInjector::new(23).with_bit_flips(sb0.data_base / BLOCK_SIZE, 64));
        let reg = simkit::telemetry::Registry::new();
        let mut io = fs.io_with_registry(0, &reg);
        io.sequence(rt, 7, 0);
        let offloaded = drain_to_map(rt, &mut io, &|| ReadRequest::batch(32).offload());
        assert_eq!(offloaded.len(), comp.count());
        for id in 0..comp.count() as u32 {
            assert_eq!(offloaded[&id], comp.expected(id), "sample {id} corrupted");
        }
        let m = reg.snapshot();
        assert!(
            m.counter("dlfs.integrity.mismatches") > 0,
            "flips in stored frames must fail verification before decode"
        );
        assert!(
            m.counter("dlfs.integrity.repairs") > 0,
            "the verified replica copy must read-repair the home extent"
        );
    });
}

/// With no healthy replica, offload surfaces the same typed `Corrupt`
/// error as the client path — never a decoder panic, never silent bytes.
#[test]
fn offload_unrepairable_corruption_is_typed_corrupt() {
    Runtime::simulate(test_seed(99), |rt| {
        let comp = SyntheticSource::compressible(34, 100, 2048, 40);
        let cfg = DlfsConfig {
            verify_reads: true,
            ..offload_cfg(CodecKind::Lz)
        };
        let dev = ramdisk(64 << 20);
        let devices = vec![dev.clone()];
        let fs = dlfs::MountBuilder::new(cfg)
            .deployment(Deployment::local(1, &devices))
            .persistent()
            .mount(rt, &comp)
            .unwrap();
        let sb0 = fs.shared(0).layouts.as_ref().unwrap()[0].clone();
        dev.set_faults(FaultInjector::new(29).with_bit_flips(sb0.data_base / BLOCK_SIZE, 32));
        let mut io = fs.io(0);
        io.sequence(rt, 8, 0);
        match until_error(rt, &mut io, true) {
            DlfsError::Corrupt { tried, .. } => assert!(tried > 0),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // The failure is sticky until a fresh sequence, like the engine's.
        match io.submit(rt, &ReadRequest::batch(16)) {
            Err(DlfsError::Corrupt { .. }) => {}
            other => panic!("expected sticky Corrupt, got {other:?}"),
        }
    });
}

/// Offload is opt-in twice: the instance must enable it and the batch
/// must be copied-delivery. Violations are typed Config errors, not
/// panics or silent fallbacks.
#[test]
fn offload_misuse_is_typed_config_error() {
    Runtime::simulate(test_seed(100), |rt| {
        let comp = SyntheticSource::compressible(35, 40, 2048, 32);
        // offload disabled in the instance config
        let devices = vec![ramdisk(64 << 20)];
        let fs = dlfs::MountBuilder::new(DlfsConfig {
            offload: false,
            ..offload_cfg(CodecKind::Lz)
        })
        .deployment(Deployment::local(1, &devices))
        .mount(rt, &comp)
        .unwrap();
        let mut io = fs.io(0);
        io.sequence(rt, 9, 0);
        match io.submit(rt, &ReadRequest::batch(8).offload()) {
            Err(DlfsError::Config(_)) => {}
            other => panic!("expected Config error, got {other:?}"),
        }
        // zero-copy delivery cannot be offloaded
        let devices = vec![ramdisk(64 << 20)];
        let fs = dlfs::MountBuilder::new(offload_cfg(CodecKind::Lz))
            .deployment(Deployment::local(1, &devices))
            .mount(rt, &comp)
            .unwrap();
        let mut io = fs.io(0);
        io.sequence(rt, 9, 0);
        match io.submit(rt, &ReadRequest::batch(8).zero_copy().offload()) {
            Err(DlfsError::Config(_)) => {}
            other => panic!("expected Config error, got {other:?}"),
        }
        // both instances still serve the normal path afterwards
        let batch = io.submit(rt, &ReadRequest::batch(8)).unwrap().into_copied();
        assert_eq!(batch.len(), 8);
        for (id, data) in batch {
            assert_eq!(data, comp.expected(id));
        }
    });
}

/// Regression (found by the benchmark): alternating offloaded and
/// client-path batches inside one epoch used to panic with `index out of
/// bounds` in `DlfsIo::dispatch` — the offload path claims samples in plan
/// order, the engine draws them from resident items, and neither saw the
/// other's cursor. The second path is now refused with a typed error and
/// the epoch still drains exactly once on the path it started on.
#[test]
fn mixing_offload_and_client_batches_in_one_epoch_is_a_typed_error() {
    Runtime::simulate(test_seed(101), |rt| {
        let comp = SyntheticSource::compressible(36, 200, 2600, 48);
        let devices = vec![ramdisk(64 << 20), ramdisk(64 << 20)];
        let fs = dlfs::MountBuilder::new(offload_cfg(CodecKind::Lz))
            .deployment(Deployment::local(1, &devices))
            .mount(rt, &comp)
            .unwrap();
        let mut io = fs.io(0);
        let req = |offload: bool| {
            if offload {
                ReadRequest::batch(16).offload()
            } else {
                ReadRequest::batch(16)
            }
        };
        for (epoch, first_offloaded) in [true, false].into_iter().enumerate() {
            io.sequence(rt, 10, epoch as u64);
            let first = io.submit(rt, &req(first_offloaded)).unwrap().into_copied();
            assert_eq!(first.len(), 16);
            match io.submit(rt, &req(!first_offloaded)) {
                Err(DlfsError::Config(_)) => {}
                other => panic!("expected a typed Config error, got {other:?}"),
            }
            if first_offloaded {
                // The exchange issued ahead of the refused batch is still
                // the next one delivered: the epoch keeps the order an
                // uninterrupted handle sees.
                let mut fresh = fs.io(0);
                fresh.sequence(rt, 10, epoch as u64);
                let want = drain_offloaded(rt, &mut fresh, &comp, |_| 16);
                let mut got: Vec<u32> = first.iter().map(|(id, _)| *id).collect();
                got.extend(drain_offloaded(rt, &mut io, &comp, |_| 16));
                assert_eq!(got, want, "a refused client batch disturbed the order");
                continue;
            }
            let mut all = drain_to_map(rt, &mut io, &|| req(first_offloaded));
            for (id, data) in first {
                assert!(
                    all.insert(id, data).is_none(),
                    "sample {id} delivered twice"
                );
            }
            assert_eq!(all.len(), comp.count());
            for id in 0..comp.count() as u32 {
                assert_eq!(all[&id], comp.expected(id), "sample {id} corrupted");
            }
        }
    });
}

/// Submit batches of 32 until one fails; the error.
fn until_error(rt: &Runtime, io: &mut dlfs::DlfsIo, offload: bool) -> DlfsError {
    loop {
        let req = ReadRequest::batch(32);
        if let Err(e) = io.submit(rt, &if offload { req.offload() } else { req }) {
            break e;
        }
    }
}

/// Regression: an offloaded read keeps the client path's failure
/// semantics when the home copy cannot be read, checksums or not
/// (`verify_reads` is off throughout). Storage node 1 is dead, or the head
/// of its data sits under a sticky bad extent — which an untimed device
/// read sails straight through. With a replica every sample still arrives
/// byte-correct (it used to be zeros for a dead home, and the mark used to
/// survive the epoch) and the sticky home extent is rewritten on the way;
/// with a lone copy the epoch ends in the typed `Io` error the client path
/// gives (it used to be `Ok` over zeros), sticky until the next
/// `sequence`.
#[test]
fn offload_over_an_unreadable_home_fails_over_or_fails_typed() {
    for sticky in [false, true] {
        for replicas in [2usize, 1] {
            Runtime::simulate(test_seed(102), |rt| {
                let case = format!("sticky={sticky} replicas={replicas}");
                let comp = SyntheticSource::compressible(37, 300, 2048, 40);
                let devices: Vec<_> = (0..3).map(|_| ramdisk(64 << 20)).collect();
                let cfg = DlfsConfig {
                    replicas,
                    ..offload_cfg(CodecKind::Identity)
                };
                let fs = dlfs::MountBuilder::new(cfg)
                    .deployment(Deployment::local(1, &devices))
                    .mount(rt, &comp)
                    .unwrap();
                // An ephemeral mount: node 1's own data starts at block 0.
                if sticky {
                    devices[1].set_faults(FaultInjector::new(43).with_bad_extent(0, 64));
                } else {
                    devices[1].kill();
                }
                let offloaded = || ReadRequest::batch(32).offload();
                let check = |got: &HashMap<u32, Vec<u8>>| {
                    assert_eq!(got.len(), comp.count(), "{case}");
                    for id in 0..comp.count() as u32 {
                        assert_eq!(got[&id], comp.expected(id), "{case}: sample {id}");
                    }
                };
                let mut io = fs.io(0);
                io.sequence(rt, 11, 0);
                if replicas == 2 {
                    check(&drain_to_map(rt, &mut io, &offloaded));
                    let m = io.metrics();
                    assert!(m.counter("dlfs.integrity.failovers") > 0, "{case}");
                    assert_eq!(m.counter("dlfs.integrity.mismatches"), 0, "{case}");
                    if sticky {
                        assert!(m.counter("dlfs.integrity.repairs") >= 1, "{case}");
                        assert!(!devices[1].probe_extent(0, 64), "{case}: mark survived");
                    }
                    return;
                }
                // A lone copy: the client path's error (which retried its
                // whole budget; an offload exchange tries each copy once)...
                let failure = |e: DlfsError| match e {
                    DlfsError::Io { target, cause, .. } => (target, cause),
                    other => panic!("{case}: want a typed Io error, got {other:?}"),
                };
                let mut client = fs.io(0);
                client.sequence(rt, 11, 0);
                let want = failure(until_error(rt, &mut client, false));
                assert_eq!(want, (1, IoFailure::Media), "{case}");
                // ...is the offload path's, and it outlives the fault: the
                // plan lost samples it has already claimed.
                assert_eq!(failure(until_error(rt, &mut io, true)), want, "{case}");
                if sticky {
                    devices[1].set_faults(FaultInjector::new(43));
                } else {
                    devices[1].revive();
                }
                let again = io.submit(rt, &offloaded()).unwrap_err();
                assert_eq!(failure(again), want, "{case}: not sticky");
                io.sequence(rt, 11, 1);
                check(&drain_to_map(rt, &mut io, &offloaded));
            });
        }
    }
}

/// What an offload-trace cell injects before its first epoch.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Inject {
    Clean,
    /// 64 silently flipped blocks at the head of node 0's data.
    Flips,
    /// Seeded fabric delays and drops (NVMe-oF rig only).
    Fabric,
}

/// One cell of the offload trace: two epochs of `batch(32).offload()` over
/// 300 samples (nine full batches and a short one) — a line per batch, a
/// counter line per epoch.
fn offload_trace_cell(codec: CodecKind, replicated: bool, fabric_rig: bool, inj: Inject) -> String {
    Runtime::simulate(8200, |rt| {
        let comp = SyntheticSource::compressible(51, 300, 2600, 48);
        let cfg = DlfsConfig {
            replicas: if replicated { 2 } else { 1 },
            verify_reads: replicated,
            ..offload_cfg(codec)
        };
        let nodes = if fabric_rig { 3 } else { 2 };
        let devices: Vec<_> = (0..nodes).map(|_| ramdisk(64 << 20)).collect();
        let (deployment, cluster) = offload_rig(&devices, fabric_rig);
        let fs = dlfs::MountBuilder::new(cfg)
            .deployment(deployment)
            .persistent()
            .mount(rt, &comp)
            .unwrap();
        match inj {
            Inject::Clean => {}
            Inject::Flips => {
                let head = fs.layout(0).unwrap().data_base / BLOCK_SIZE;
                devices[0].set_faults(FaultInjector::new(23).with_bit_flips(head, 64));
            }
            Inject::Fabric => {
                cluster.as_ref().unwrap().set_faults(
                    FabricFaultInjector::new(41)
                        .with_delays(200_000, Dur::micros(200))
                        .with_drops(50_000)
                        .with_io_timeout(Dur::millis(1)),
                );
            }
        }
        let reg = simkit::telemetry::Registry::new();
        let mut io = fs.io_with_registry(0, &reg);
        let mut out = String::new();
        for epoch in 0..2 {
            let total = io.sequence(rt, 23, epoch);
            let mut got = 0;
            while io.remaining() > 0 {
                let batch = io
                    .submit(rt, &ReadRequest::batch(32).offload())
                    .unwrap()
                    .into_copied();
                let mut ids = Vec::new();
                let mut bytes = Vec::new();
                for (id, data) in &batch {
                    assert_eq!(data, &comp.expected(*id), "sample {id} corrupted");
                    ids.extend_from_slice(&id.to_le_bytes());
                    bytes.extend_from_slice(data);
                }
                got += batch.len();
                out.push_str(&format!(
                    "batch t={} n={} ids={:016x} bytes={:016x}\n",
                    rt.now().nanos(),
                    batch.len(),
                    fnv1a(&ids),
                    fnv1a(&bytes)
                ));
            }
            assert_eq!(got, total);
            let m = reg.snapshot();
            out.push_str(&format!("epoch {epoch} t={}", rt.now().nanos()));
            for scope in ["dlfs.offload.", "dlfs.integrity.", "dlfs.codec."] {
                for line in m.render_prefixed(scope).lines() {
                    out.push_str(&format!(" {}", line.replace(' ', "=")));
                }
            }
            for name in ["dlfs.io.samples_delivered", "dlfs.io.bytes_delivered"] {
                out.push_str(&format!(" {name}={}", m.counter(name)));
            }
            if let Some(c) = &cluster {
                out.push_str(&format!(" node_traffic={:?}", c.node_traffic(nodes)));
            }
            out.push('\n');
        }
        out
    })
    .0
}

/// Characterisation of the offload path, pinned across changes to *when*
/// an exchange is issued: codec x {one copy; two verified copies} x {two
/// local ramdisks; three NVMe-oF targets behind a 1 GB/s reader NIC} x
/// {clean; flipped blocks (replicated cells); fabric faults (fabric cells)}.
/// The seed is fixed (no `DLFS_TEST_SEED_OFFSET`). A change to offload
/// timing may regenerate it only if nothing but `t=` values moves.
#[test]
fn offload_trace_matches_golden() {
    let mut text = String::new();
    for codec in [CodecKind::Identity, CodecKind::Lz] {
        for replicated in [false, true] {
            for fabric_rig in [false, true] {
                for inj in [Inject::Clean, Inject::Flips, Inject::Fabric] {
                    if (inj == Inject::Flips && !replicated)
                        || (inj == Inject::Fabric && !fabric_rig)
                    {
                        continue;
                    }
                    text.push_str(&format!(
                        "cell codec={codec} replicated={replicated} fabric={fabric_rig} \
                         inject={inj:?}\n"
                    ));
                    text.push_str(&offload_trace_cell(codec, replicated, fabric_rig, inj));
                }
            }
        }
    }
    common::check_golden("offload_trace.txt", &text);
}

/// Drain the current epoch of `io` through offloaded batches, the next
/// one sized by `next_n(remaining)`. After every `submit`: the batch has
/// the length asked for (or what was left), `remaining()` fell by exactly
/// that, and every payload equals the source's. Returns the ids in
/// delivery order.
fn drain_offloaded(
    rt: &Runtime,
    io: &mut dlfs::DlfsIo,
    comp: &SyntheticSource,
    mut next_n: impl FnMut(usize) -> usize,
) -> Vec<u32> {
    let mut order = Vec::new();
    while io.remaining() > 0 {
        let before = io.remaining();
        let n = next_n(before);
        let batch = io
            .submit(rt, &ReadRequest::batch(n).offload())
            .unwrap()
            .into_copied();
        assert_eq!(batch.len(), n.min(before), "batch({n}) with {before} left");
        assert_eq!(io.remaining(), before - batch.len());
        for (id, data) in batch {
            assert_eq!(data, comp.expected(id), "sample {id} corrupted");
            order.push(id);
        }
    }
    let again = io.submit(rt, &ReadRequest::batch(1).offload());
    assert!(matches!(again, Err(DlfsError::EpochExhausted)), "{again:?}");
    order
}

/// A 1 GB/s reader NIC in front of `devices`, or no fabric at all.
fn offload_rig(
    devices: &[Arc<NvmeDevice>],
    fabric_rig: bool,
) -> (Deployment, Option<Arc<Cluster>>) {
    if !fabric_rig {
        return (Deployment::local(1, devices), None);
    }
    let fabric = FabricConfig {
        nic_bytes_per_sec: 1e9,
        ..FabricConfig::default()
    };
    let (deployment, cluster) = fabric_deployment(devices, fabric);
    (deployment, Some(cluster))
}

/// Reader 0's fetch items of epoch `epoch` of `seed` (one reader).
fn plan_items(fs: &DlfsInstance, seed: u64, epoch: u64) -> Vec<dlfs::FetchItem> {
    let (cfg, dir) = (&fs.shared(0).cfg, &fs.shared(0).dir);
    let mode = cfg.effective_mode(dir.avg_sample_bytes());
    let cut = dlfs::plan::Extents {
        chunk_size: cfg.chunk_size,
        batching: mode,
        codec: fs.shared(0).codec.as_deref(),
    };
    let plan = dlfs::build_epoch_plan(dir, cut, 1, cfg.window_chunks, seed, epoch);
    plan.readers[0].items.clone()
}

/// The blocks a read of `it` fetches and verifies — those covering its
/// run of frames' stored bytes under a codec, its covering blocks without
/// — and the encoded bytes those frames decode from (0 without a codec).
fn item_read(fs: &DlfsInstance, it: &dlfs::FetchItem) -> (u64, u64) {
    let chunk = fs.shared(0).cfg.chunk_size;
    let Some(tables) = &fs.shared(0).codec else {
        return (blocksim::covering_blocks(it.offset, it.len).1 as u64, 0);
    };
    let frames = &tables.per_node[it.nid as usize];
    let run = frames.frame_of(chunk, it.offset)..=frames.frame_of(chunk, it.offset + it.len - 1);
    let (at, end) = (
        frames.stored(*run.start()).start,
        frames.stored(*run.end()).end,
    );
    let enc = frames.lens[run].iter().map(|&l| l as u64).sum();
    (end.div_ceil(BLOCK_SIZE) - at / BLOCK_SIZE, enc)
}

/// What an offloaded epoch of `items` that reads each item exactly once
/// costs: `(device read commands, dlfs.integrity.verified,
/// dlfs.codec.bytes_in)` — one command per item, its blocks verified once
/// (every copy is clean), its frame decoded once.
fn read_once(fs: &DlfsInstance, items: &[dlfs::FetchItem]) -> (u64, u64, u64) {
    let (blocks, enc) = items
        .iter()
        .map(|it| item_read(fs, it))
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    (items.len() as u64, blocks, enc)
}

/// What an epoch drained through `io` booked: `(device read commands over
/// `devices`, dlfs.integrity.verified, dlfs.codec.bytes_in)`.
fn read_ledger(io: &dlfs::DlfsIo, devices: &[Arc<NvmeDevice>]) -> (u64, u64, u64) {
    let m = io.metrics();
    (
        devices.iter().map(|d| d.stats().0).sum(),
        m.counter("dlfs.integrity.verified"),
        m.counter("dlfs.codec.bytes_in"),
    )
}

/// Coded data is read as runs on either path: a client-path epoch of a
/// verified, coded mount posts exactly one device command per run (plan
/// item), reads at most the blocks covering the runs' stored bytes and
/// verifies each of them once; the same plan offloaded makes the targets
/// read exactly what the client epoch read.
#[test]
fn coded_epochs_read_one_command_per_run_on_either_path() {
    Runtime::simulate(test_seed(240), |rt| {
        let comp = SyntheticSource::compressible(64, 600, 2600, 48);
        let devices: Vec<_> = (0..3).map(|_| ramdisk(64 << 20)).collect();
        let cfg = DlfsConfig {
            verify_reads: true,
            ..offload_cfg(CodecKind::Lz)
        };
        let fs = dlfs::MountBuilder::new(cfg.clone())
            .deployment(Deployment::local(1, &devices))
            .mount(rt, &comp)
            .unwrap();
        let items = plan_items(&fs, 17, 0);
        let chunk = cfg.chunk_size;
        let frames =
            |it: &dlfs::FetchItem| (it.offset + it.len - 1) / chunk - it.offset / chunk + 1;
        assert!(
            items.iter().any(|it| frames(it) > 1),
            "no run of two frames"
        );
        let (runs, blocks, enc) = read_once(&fs, &items);
        let bytes_read = || devices.iter().map(|d| d.stats().2).sum::<u64>();
        let mut client = fs.io(0);
        let total = client.sequence(rt, 17, 0);
        let (reads0, bytes0) = (read_ledger(&client, &devices).0, bytes_read());
        let mut delivered = 0;
        while let Ok(batch) = client.submit(rt, &ReadRequest::batch(32)) {
            for (id, data) in batch.into_copied() {
                assert_eq!(data, comp.expected(id), "sample {id} corrupted");
                delivered += 1;
            }
        }
        assert_eq!(delivered, total);
        let (reads, verified, decoded) = read_ledger(&client, &devices);
        let client_reads = (reads - reads0, bytes_read() - bytes0);
        assert_eq!(client.metrics().counter("dlfs.io.requests_posted"), runs);
        assert_eq!((client_reads.0, verified, decoded), (runs, blocks, enc));
        assert!(client_reads.1 <= blocks * BLOCK_SIZE, "{client_reads:?}");

        let mut offloaded = fs.io(0);
        offloaded.sequence(rt, 17, 0);
        let (reads0, bytes0) = (read_ledger(&offloaded, &devices).0, bytes_read());
        drain_offloaded(rt, &mut offloaded, &comp, |_| 32);
        let (reads, verified, decoded) = read_ledger(&offloaded, &devices);
        let target_reads = (reads - reads0, bytes_read() - bytes0);
        assert_eq!(
            target_reads, client_reads,
            "the targets read what the client read"
        );
        assert_eq!((verified, decoded), (blocks, enc));
    });
}

/// What constant-size traffic never exercises: batch sizes drawn per call
/// from {1, 7, 32, 64, everything left}, so a batch takes a prefix of the
/// exchange ahead, spans two, or outruns the read-ahead, and an exchange
/// boundary splits an item. Whatever the sizes, an epoch delivers every
/// sample exactly once, byte-correct, in the order a constant `batch(32)`
/// delivers it — and books the same `dlfs.offload.samples`. And it reads
/// each plan item once, codec or not, one copy or two: a device command,
/// its blocks verified and its frame decoded per item, whatever exchange
/// boundary splits it (the target carries the rest to the next exchange).
#[test]
fn offload_batch_sizes_do_not_change_what_an_epoch_delivers() {
    for case in 0..24u64 {
        let codec = [CodecKind::Identity, CodecKind::Lz][case as usize % 2];
        let fabric_rig = case / 2 % 2 == 1;
        let replicas = 1 + (case / 4 % 2) as usize;
        Runtime::simulate(test_seed(200 + case), |rt| {
            let comp = SyntheticSource::compressible(60 + case, 330 + 7 * case as usize, 2600, 48);
            let devices: Vec<_> = (0..3).map(|_| ramdisk(64 << 20)).collect();
            let (deployment, _cluster) = offload_rig(&devices, fabric_rig);
            let cfg = DlfsConfig {
                replicas,
                verify_reads: true,
                ..offload_cfg(codec)
            };
            let fs = dlfs::MountBuilder::new(cfg)
                .deployment(deployment)
                .mount(rt, &comp)
                .unwrap();
            let once = read_once(&fs, &plan_items(&fs, 12, case));
            let label = format!("case {case} ({codec}, {replicas} copies)");
            let mut reference = fs.io(0);
            let total = reference.sequence(rt, 12, case);
            let before = read_ledger(&reference, &devices).0;
            let want = drain_offloaded(rt, &mut reference, &comp, |_| 32);
            let (reads, verified, enc) = read_ledger(&reference, &devices);
            assert_eq!((reads - before, verified, enc), once, "{label}, batch(32)");
            let mut ids = want.clone();
            ids.sort_unstable();
            assert!(ids.into_iter().eq(0..total as u32), "{label}");

            let mut io = fs.io(0);
            assert_eq!(io.sequence(rt, 12, case), total);
            let before = read_ledger(&io, &devices).0;
            let mut draw = SplitMix64::derive(test_seed(200), case);
            let got = drain_offloaded(rt, &mut io, &comp, |left| {
                [1, 7, 32, 64, left][draw.below(5) as usize]
            });
            assert_eq!(got, want, "{label}: batch sizes changed the order");
            let (reads, verified, enc) = read_ledger(&io, &devices);
            assert_eq!(
                (reads - before, verified, enc),
                once,
                "{label}: an item read twice"
            );
            let m = io.metrics();
            assert_eq!(m.counter("dlfs.offload.samples"), total as u64);
            assert_eq!(m.counter("dlfs.io.samples_delivered"), total as u64);
        });
    }
}

/// `sequence` mid-epoch discards the exchange ahead and the item it split:
/// the next epoch delivers exactly its own plan order and reads exactly
/// its own items, as a fresh handle would, and what the dropped exchange
/// moved stays booked — its response really was sent.
#[test]
fn sequence_mid_epoch_drops_the_exchange_ahead_but_not_its_bytes() {
    let comp = SyntheticSource::compressible(61, 400, 2600, 48);
    // (delivery order, [dlfs.offload.wire_bytes, reader rx bytes, device
    // read commands, dlfs.codec.bytes_in]) of epoch 1, alone or after three
    // batches of epoch 0.
    let epoch1 = |batches_of_epoch0: usize| {
        Runtime::simulate(test_seed(230), |rt| {
            let devices: Vec<_> = (0..3).map(|_| ramdisk(64 << 20)).collect();
            let (deployment, cluster) = offload_rig(&devices, true);
            let fs = dlfs::MountBuilder::new(offload_cfg(CodecKind::Lz))
                .deployment(deployment)
                .mount(rt, &comp)
                .unwrap();
            // The exchange ahead of the last batch ends inside an item: the
            // target holds its rest when `sequence` comes.
            let claimed = (batches_of_epoch0 + 1) * 32;
            let mut ends = plan_items(&fs, 13, 0).into_iter().scan(0, |n, it| {
                *n += it.samples.len();
                Some(*n)
            });
            assert!(batches_of_epoch0 == 0 || !ends.any(|end| end == claimed));
            let mut io = fs.io(0);
            let booked = |io: &dlfs::DlfsIo| {
                let (reads, _, enc) = read_ledger(io, &devices);
                let wire = io.metrics().counter("dlfs.offload.wire_bytes");
                [
                    wire,
                    cluster.as_ref().unwrap().node_traffic(3).1,
                    reads,
                    enc,
                ]
            };
            let since = |a: [u64; 4], b: [u64; 4]| std::array::from_fn::<_, 4, _>(|i| a[i] - b[i]);
            let before = booked(&io);
            io.sequence(rt, 13, 0);
            for _ in 0..batches_of_epoch0 {
                let batch = io.submit(rt, &ReadRequest::batch(32).offload()).unwrap();
                assert_eq!(batch.len(), 32);
            }
            let dropped = booked(&io);
            io.sequence(rt, 13, 1);
            let order = drain_offloaded(rt, &mut io, &comp, |_| 32);
            let after = booked(&io);
            let delivered = io.metrics().counter("dlfs.offload.samples");
            assert_eq!(delivered as usize, batches_of_epoch0 * 32 + comp.count());
            (order, since(dropped, before), since(after, dropped))
        })
        .0
    };
    let (fresh_order, nothing, fresh_bytes) = epoch1(0);
    let (order, dropped, bytes) = epoch1(3);
    assert_eq!(nothing, [0; 4]);
    assert_eq!(order, fresh_order, "epoch 1 delivered samples of epoch 0");
    assert_eq!(
        bytes, fresh_bytes,
        "epoch 1 moved or read other bytes than a fresh one"
    );
    // Three delivered batches and the one issued ahead of them.
    let four_exchanges = 4 * 32 * 2600;
    assert!(dropped[0] > four_exchanges, "wire_bytes {dropped:?}");
    assert!(dropped[1] > four_exchanges, "node_traffic {dropped:?}");
    assert!(dropped[2] > 0 && dropped[3] > 0, "reads {dropped:?}");
}

/// The target's carry outlives the home device: kill it between the
/// exchange that read a split item and the ones that ship the rest. The
/// rest still arrives byte-correct and costs no read, failover or verified
/// block; every later item of that node fails over to its replica once —
/// one hop, its blocks verified once, no mismatch — as on the client path.
#[test]
fn a_carried_item_outlives_its_home_device() {
    Runtime::simulate(test_seed(233), |rt| {
        let comp = SyntheticSource::compressible(64, 300, 2600, 48);
        let devices: Vec<_> = (0..3).map(|_| ramdisk(64 << 20)).collect();
        let cfg = DlfsConfig {
            replicas: 2,
            verify_reads: true,
            ..offload_cfg(CodecKind::Lz)
        };
        let fs = dlfs::MountBuilder::new(cfg)
            .deployment(Deployment::local(1, &devices))
            .mount(rt, &comp)
            .unwrap();
        // batch(1): exchange k claims the plan's k-th sample, and submit k
        // issues exchange k + 1 (the first one issues two). Item `x` is the
        // first past item 0 with two samples or more: the exchange that
        // reads it and the next one are issued by different submits.
        let items = plan_items(&fs, 16, 0);
        let x = (1..items.len())
            .find(|&i| items[i].samples.len() >= 2)
            .unwrap();
        let first: usize = items[..x].iter().map(|it| it.samples.len()).sum();
        let home = items[x].nid as usize;
        let mut io = fs.io(0);
        io.sequence(rt, 16, 0);
        // (device read commands, dlfs.integrity.verified, dlfs.codec.bytes_in,
        // dlfs.integrity.failovers) so far.
        let ledger = |io: &dlfs::DlfsIo| {
            let (reads, verified, enc) = read_ledger(io, &devices);
            let failovers = io.metrics().counter("dlfs.integrity.failovers");
            [reads, verified, enc, failovers]
        };
        let step = |io: &mut dlfs::DlfsIo| {
            let batch = io.submit(rt, &ReadRequest::batch(1).offload()).unwrap();
            for (id, data) in batch.into_copied() {
                assert_eq!(data, comp.expected(id), "sample {id} corrupted");
            }
            ledger(io)
        };
        for _ in 0..first {
            step(&mut io);
        }
        devices[home].kill();
        // Issues the exchange that ships the carry's first sample.
        let killed = step(&mut io);
        for _ in 2..items[x].samples.len() {
            assert_eq!(step(&mut io), killed, "the carried rest was read again");
        }
        while io.remaining() > 0 {
            step(&mut io);
        }
        let later = &items[x + 1..];
        let on_home = later.iter().filter(|it| it.nid as usize == home).count() as u64;
        assert!(on_home > 0, "no later item of node {home} to fail over");
        let (reads, verified, enc) = read_once(&fs, later);
        let now = ledger(&io);
        let since: Vec<u64> = now.iter().zip(killed).map(|(n, k)| n - k).collect();
        assert_eq!(since, [reads, verified, enc, on_home]);
        assert_eq!(io.metrics().counter("dlfs.integrity.mismatches"), 0);
    });
}

/// A carried sample is never on the wire before its item's compute
/// finished. Behind slow devices, `batch(1)` issues exchange 1 — it reads
/// the first item and carries its rest — and exchange 2, which gives that
/// item's node nothing but the carry: no descriptor, so without a floor
/// its response would leave at capsule + processing time, long before the
/// item was off the device. It leaves after the item's compute instead,
/// so on the target's link it queues behind the response that read it.
#[test]
fn a_carry_only_response_waits_for_the_compute_that_made_it() {
    Runtime::simulate(test_seed(234), |rt| {
        let comp = SyntheticSource::compressible(65, 120, 2600, 48);
        let slow = Dur::micros(500);
        let device = || NvmeDevice::new(DeviceConfig::emulated_ramdisk(64 << 20, slow));
        let devices: Vec<_> = (0..3).map(|_| device()).collect();
        let (deployment, _cluster) = offload_rig(&devices, true);
        let fs = dlfs::MountBuilder::new(offload_cfg(CodecKind::Lz))
            .deployment(deployment)
            .mount(rt, &comp)
            .unwrap();
        let items = plan_items(&fs, 17, 0);
        assert!(items[0].samples.len() >= 2, "batch(1) must split item 0");
        let mut io = fs.io(0);
        io.sequence(rt, 17, 0);
        let mut times = vec![rt.now()];
        for _ in 0..2 {
            io.submit(rt, &ReadRequest::batch(1).offload()).unwrap();
            times.push(rt.now());
        }
        let carried = comp.size(items[0].samples[1]) + fabric::RESPONSE_BYTES;
        let wire = Dur::from_secs_f64(carried as f64 / 1e9);
        assert!(
            times[1] - times[0] >= slow,
            "item 0 came off the device in {:?}",
            times[1] - times[0]
        );
        assert!(
            times[2] >= times[1] + wire,
            "the carried sample landed {:?} after the one that read its item, \
             less than its own wire time {wire:?}",
            times[2] - times[1]
        );
    });
}

/// A frame no copy can serve fails the batch that needs it — not the one
/// before, during which its exchange was issued — with the typed error the
/// serialized path gave, and stays failed until `sequence`. The batch is
/// computed from the plan: offload claims samples in fetch-item order.
#[test]
fn an_unrepairable_frame_fails_its_own_batch_and_no_earlier_one() {
    Runtime::simulate(test_seed(231), |rt| {
        let comp = SyntheticSource::compressible(62, 600, 2600, 48);
        let cfg = DlfsConfig {
            verify_reads: true,
            ..offload_cfg(CodecKind::Identity)
        };
        let dev = ramdisk(64 << 20);
        let fs = dlfs::MountBuilder::new(cfg.clone())
            .deployment(Deployment::local(1, std::slice::from_ref(&dev)))
            .mount(rt, &comp)
            .unwrap();
        // An ephemeral mount: the node's data starts at block 0. Four
        // flipped blocks in the middle of it.
        let bad = 600 * 2600 / 2 / BLOCK_SIZE;
        dev.set_faults(FaultInjector::new(31).with_bit_flips(bad, 4));
        let dir = &fs.shared(0).dir;
        let mode = cfg.effective_mode(dir.avg_sample_bytes());
        let mut io = fs.io(0);
        let mut exercised = false;
        for epoch in 0..3 {
            io.sequence(rt, 14, epoch);
            let plan = dlfs::build_epoch_plan(
                dir,
                dlfs::plan::Extents::raw(cfg.chunk_size, mode),
                1,
                cfg.window_chunks,
                14,
                epoch,
            );
            let mut claimed = 0;
            let (fails_at, chunk) = plan.readers[0]
                .items
                .iter()
                .find_map(|it| {
                    let (slba, nblocks, _) = blocksim::covering_blocks(it.offset, it.len);
                    let hit = slba < bad + 4 && bad < slba + nblocks as u64;
                    claimed += it.samples.len();
                    hit.then(|| ((claimed - it.samples.len()) / 32, slba * BLOCK_SIZE))
                })
                .expect("some item covers the flipped blocks");
            exercised |= fails_at >= 2;
            for _ in 0..fails_at {
                let batch = io.submit(rt, &ReadRequest::batch(32).offload()).unwrap();
                for (id, data) in batch.into_copied() {
                    assert_eq!(data, comp.expected(id), "sample {id} corrupted");
                }
            }
            let want = DlfsError::Corrupt {
                chunk,
                tried: 1,
                cause: dlfs::CorruptCause::Checksum,
            };
            for _ in 0..2 {
                let got = io
                    .submit(rt, &ReadRequest::batch(32).offload())
                    .unwrap_err();
                assert_eq!(got, want, "epoch {epoch}, batch {fails_at}");
            }
        }
        assert!(exercised, "no epoch put the damage behind a read-ahead");
    });
}

/// An offloaded epoch keeps the reader's NIC busy: with the next exchange
/// issued before the current one is waited for, the epoch takes the wire
/// time of what the reader received plus one exchange of start-up, and a
/// steady-state batch costs its own response's wire time. (A serialized
/// issue → wait per batch is ≈ 1.22 × on both.)
#[test]
fn offloaded_epoch_meets_its_wire_roofline() {
    Runtime::simulate(test_seed(232), |rt| {
        let comp = SyntheticSource::compressible(63, 2048, 2600, 48);
        let cfg = DlfsConfig {
            replicas: 2,
            verify_reads: true,
            ..offload_cfg(CodecKind::Lz)
        };
        let devices: Vec<_> = (0..4).map(|_| ramdisk(64 << 20)).collect();
        let (deployment, cluster) = offload_rig(&devices, true);
        let fs = dlfs::MountBuilder::new(cfg)
            .deployment(deployment)
            .mount(rt, &comp)
            .unwrap();
        let rx = || cluster.as_ref().unwrap().node_traffic(4).1;
        let mut io = fs.io(0);
        io.sequence(rt, 15, 0);
        let (t0, rx0) = (rt.now(), rx());
        let mut latencies = Vec::new();
        while io.remaining() > 0 {
            let t = rt.now();
            io.submit(rt, &ReadRequest::batch(32).offload()).unwrap();
            latencies.push((rt.now() - t).as_secs_f64());
        }
        let took = (rt.now() - t0).as_secs_f64();
        let wire = (rx() - rx0) as f64 / 1e9;
        let first_exchange = latencies[0];
        assert!(
            took <= 1.05 * wire + first_exchange,
            "epoch took {took:.6} s, wire roofline {wire:.6} s + {first_exchange:.6} s"
        );
        let batch_wire = wire / latencies.len() as f64;
        let steady = &mut latencies[1..];
        steady.sort_by(f64::total_cmp);
        let median = steady[steady.len() / 2];
        assert!(
            median <= 1.05 * batch_wire,
            "median batch {median:.9} s, its response's wire time {batch_wire:.9} s"
        );
    });
}
