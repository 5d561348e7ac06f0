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
use dlfs::source::SampleSource;
use dlfs::{
    CodecKind, Completions, CompressibleSource, Deployment, DlfsConfig, DlfsError, DlfsInstance,
    IoFailure, ReadRequest,
};
use fabric::{Cluster, FabricConfig, FabricFaultInjector, NvmeOfTarget, TargetConfig};
use simkit::prelude::*;
use simkit::rng::fnv1a;

fn test_seed(base: u64) -> u64 {
    base + std::env::var("DLFS_TEST_SEED_OFFSET")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0)
}

fn ramdisk(bytes: u64) -> Arc<NvmeDevice> {
    NvmeDevice::new(DeviceConfig::emulated_ramdisk(bytes, Dur::micros(10)))
}

fn local_deployment(devices: &[Arc<NvmeDevice>]) -> Deployment {
    Deployment {
        targets: vec![devices
            .iter()
            .map(|d| d.clone() as Arc<dyn NvmeTarget>)
            .collect()],
        cluster: None,
    }
}

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
    let targets: Vec<Vec<Arc<dyn NvmeTarget>>> = vec![devices
        .iter()
        .enumerate()
        .map(|(node, d)| {
            fabric::connect(
                cluster.clone(),
                n, // the reader lives on the last cluster node
                NvmeOfTarget::new(node, d.clone(), TargetConfig::default()),
            ) as Arc<dyn NvmeTarget>
        })
        .collect()];
    let deployment = Deployment {
        targets,
        cluster: Some(cluster.clone()),
    };
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
            let comp = CompressibleSource::fixed(31, 300, 2600, 48);
            let devices = vec![ramdisk(64 << 20), ramdisk(64 << 20)];
            let fs = dlfs::MountBuilder::new(offload_cfg(codec))
                .deployment(local_deployment(&devices))
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
        let comp = CompressibleSource::fixed(32, 400, 2600, 40);
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
        let comp = CompressibleSource::fixed(33, 400, 2048, 40);
        let cfg = DlfsConfig {
            replicas: 2,
            verify_reads: true,
            ..offload_cfg(CodecKind::Lz)
        };
        let devices = vec![ramdisk(64 << 20), ramdisk(64 << 20)];
        let fs = dlfs::MountBuilder::new(cfg)
            .deployment(local_deployment(&devices))
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
        let comp = CompressibleSource::fixed(34, 100, 2048, 40);
        let cfg = DlfsConfig {
            verify_reads: true,
            ..offload_cfg(CodecKind::Lz)
        };
        let dev = ramdisk(64 << 20);
        let devices = vec![dev.clone()];
        let fs = dlfs::MountBuilder::new(cfg)
            .deployment(local_deployment(&devices))
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
        let comp = CompressibleSource::fixed(35, 40, 2048, 32);
        // offload disabled in the instance config
        let devices = vec![ramdisk(64 << 20)];
        let fs = dlfs::MountBuilder::new(DlfsConfig {
            offload: false,
            ..offload_cfg(CodecKind::Lz)
        })
        .deployment(local_deployment(&devices))
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
            .deployment(local_deployment(&devices))
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
        let comp = CompressibleSource::fixed(36, 200, 2600, 48);
        let devices = vec![ramdisk(64 << 20), ramdisk(64 << 20)];
        let fs = dlfs::MountBuilder::new(offload_cfg(CodecKind::Lz))
            .deployment(local_deployment(&devices))
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
                let comp = CompressibleSource::fixed(37, 300, 2048, 40);
                let devices: Vec<_> = (0..3).map(|_| ramdisk(64 << 20)).collect();
                let cfg = DlfsConfig {
                    replicas,
                    ..offload_cfg(CodecKind::Identity)
                };
                let fs = dlfs::MountBuilder::new(cfg)
                    .deployment(local_deployment(&devices))
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
        let comp = CompressibleSource::fixed(51, 300, 2600, 48);
        let cfg = DlfsConfig {
            replicas: if replicated { 2 } else { 1 },
            verify_reads: replicated,
            ..offload_cfg(codec)
        };
        let nodes = if fabric_rig { 3 } else { 2 };
        let devices: Vec<_> = (0..nodes).map(|_| ramdisk(64 << 20)).collect();
        let (deployment, cluster) = if fabric_rig {
            let fabric = FabricConfig {
                nic_bytes_per_sec: 1e9,
                ..FabricConfig::default()
            };
            let (deployment, cluster) = fabric_deployment(&devices, fabric);
            (deployment, Some(cluster))
        } else {
            (local_deployment(&devices), None)
        };
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
