//! The eight workloads. Each is a closed loop inside one
//! `Runtime::simulate`: set-up (timed as `setup_s`), an unmeasured warm-up,
//! then the measured window. Every `why` below is the reason the workload
//! exists; README.md has the long form.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dlfs::tenant::{QosConfig, TenantSpec};
use dlfs::{CacheMode, CodecKind, DlfsConfig, DlfsInstance, ReadRequest, SampleSource};
use dlio::sizedist::SizeDist;
use simkit::rng::SplitMix64;
use simkit::runtime::Runtime;
use simkit::time::Dur;

use crate::model;
use crate::rig::{
    capacity_for, near_fixed_sizes, sub_seed, Log, Pass, Reader, ReplaySpec, Rig, Source,
};
use crate::spans::Tracer;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Concurrent closed-loop clients.
    pub clients: usize,
    pub run: fn(u64, bool) -> Pass,
}

pub const WORKLOADS: [Workload; 8] = [
    Workload {
        name: "imdb_local",
        why: "1 KB samples on a local Optane: client-CPU-bound, so per-sample io/plan/copy/reactor work shows and fabric, codec and cross-epoch cache do nothing",
        clients: 1,
        run: imdb_local,
    },
    Workload {
        name: "imagenet_disagg",
        why: "115 KB samples from 4 NVMe-oF targets: wire-bound at the reader NIC, so fabric/device/offload changes show and per-sample CPU is invisible",
        clients: 1,
        run: imagenet_disagg,
    },
    Workload {
        name: "cache_reuse",
        why: "working set 1.5x the cross-epoch cache on a 1 GB/s wire: hit ratio sets throughput; covers zero-copy delivery and plan-aware prefetch",
        clients: 1,
        run: cache_reuse,
    },
    Workload {
        name: "point_reads",
        why: "4 readers issuing synchronous read_by_id on random ids over the fabric: latency-bound with queueing between readers; batching does nothing",
        clients: 4,
        run: point_reads,
    },
    Workload {
        name: "protected_offload",
        why: "replicas, verify, LZ codec and target-side offload all on over a 1 GB/s wire: the only workload where integrity, codec and offload carry load",
        clients: 1,
        run: protected_offload,
    },
    Workload {
        name: "ckpt_mixed",
        why: "import, warm remount, then epochs beside a 1 MiB checkpoint stream on one device: a read gain paid for by write interference shows here",
        clients: 2,
        run: ckpt_mixed,
    },
    Workload {
        name: "tenants_wfq",
        why: "three tenants weighted 1:2:4 over 2 WFQ slots on one device: the only workload where tenant admission and fair queueing do work",
        clients: 6,
        run: tenants_wfq,
    },
    Workload {
        name: "degraded_rebuild",
        why: "a replicated node dies, reads fail over, then a rebuild runs beside the epoch: background work against foreground reads",
        clients: 1,
        run: degraded_rebuild,
    },
];

/// Runs `body` as the root task of a fresh simulation.
fn simulate(seed: u64, body: impl FnOnce(&Runtime, Instant) -> Pass) -> Pass {
    let host0 = Instant::now();
    Runtime::simulate(seed, |rt| body(rt, host0)).0
}

/// Product configuration common to every workload: the default, with the
/// reactor's counters published (a registry binding only; it changes no
/// virtual time).
fn base_cfg() -> DlfsConfig {
    DlfsConfig {
        reactor_stats: true,
        ..DlfsConfig::default()
    }
}

/// Cold mount of `src` on `rig`, inside a `mount` span.
fn mount(
    rt: &Runtime,
    tr: &mut Tracer,
    rig: &Rig,
    cfg: &DlfsConfig,
    src: &Source,
    persistent: bool,
) -> DlfsInstance {
    tr.open(rt, "mount", 0);
    let b = rig.builder(cfg.clone());
    let b = if persistent { b.persistent() } else { b };
    let fs = b.mount(rt, src).expect("mount");
    tr.close(rt);
    fs
}

/// The single-reader shape shared by four workloads: mount, one warm-up
/// epoch, then one measured epoch per entry of `epochs`, each made of
/// batches of that shape.
fn single_reader(
    seed: u64,
    traced: bool,
    rig: Rig,
    cfg: DlfsConfig,
    src: Arc<Source>,
    epochs: &[ReadRequest],
) -> Pass {
    simulate(seed, |rt, host0| {
        let mut tr = Tracer::new(traced, 0, host0);
        let m0 = rig.mark(rt);
        let fs = mount(rt, &mut tr, &rig, &cfg, &src, false);
        let m1 = rig.mark(rt);
        let mut reader = Reader::new(rt, fs.io_with_registry(0, &rig.reg), src.clone(), tr);
        let order = sub_seed(seed, 0x5e9);
        reader.epoch(order, 0, &epochs[0], |_, _| {});
        let w0 = rig.mark(rt);
        reader.measuring = true;
        for (e, req) in epochs.iter().enumerate() {
            reader.epoch(order, e as u64 + 1, req, |_, _| {});
        }
        let w1 = rig.mark(rt);
        Pass::new(
            [m0, m1, w0, w1],
            reader.finish(),
            Vec::new(),
            ReplaySpec::of(&rig, &fs, &cfg, &src),
        )
    })
}

/// The ImageNet-like corpus: one fixed draw of sizes, dealt to the sample
/// ids in a seeded order. A corpus has the size distribution it has;
/// drawing these 4096 heavy-tailed sizes afresh per seed moved their mean by
/// 2.5 %, and with it every wire-bound metric, which says nothing about the
/// system. The seed still decides which sample is large, where it lands
/// and when it is read. (65 536 IMDB sizes average out; they are drawn per
/// seed.)
fn imagenet_sizes(seed: u64, count: usize) -> Vec<u64> {
    let mut sizes = SizeDist::imagenet().sizes(0xC0_2B05, count);
    SplitMix64::derive(seed, 0x512e).shuffle(&mut sizes);
    sizes
}

fn imdb_local(seed: u64, traced: bool) -> Pass {
    let src = Arc::new(Source::noise(seed, SizeDist::imdb().sizes(seed, 65_536)));
    let rig = Rig::local(1, 1, model::optane(capacity_for(src.total_bytes())));
    single_reader(
        seed,
        traced,
        rig,
        base_cfg(),
        src,
        &[ReadRequest::batch(32); 2],
    )
}

fn imagenet_disagg(seed: u64, traced: bool) -> Pass {
    let src = Arc::new(Source::noise(seed, imagenet_sizes(seed, 4_096)));
    let rig = Rig::disaggregated(
        1,
        4,
        model::fabric(),
        model::ramdisk(capacity_for(src.total_bytes() / 4)),
    );
    single_reader(
        seed,
        traced,
        rig,
        base_cfg(),
        src,
        &[ReadRequest::batch(16); 4],
    )
}

fn cache_reuse(seed: u64, traced: bool) -> Pass {
    // 2304 x ~16 KiB = 36 MiB. Chunks are 64 KiB, not the default 256 KiB:
    // on a wire-bound link every request of a 256 KiB-chunk pipeline waits
    // for exactly one chunk, and its latency is the same 262.86 us for
    // every seed. With 64 KiB chunks a batch spans several chunks plus
    // variable-length edge samples, so latency follows the data. Every
    // fetch range, an edge sample too, takes whole pool chunks: the epoch
    // touches about 576 chunk ranges and 576 edge ranges, and the pool
    // holds 768 of them, so the working set is 1.5x the cache.
    let src = Arc::new(Source::noise(seed, near_fixed_sizes(seed, 2_304, 16 << 10)));
    let rig = Rig::disaggregated(
        1,
        2,
        model::slow_fabric(),
        model::ramdisk(capacity_for(src.total_bytes() / 2)),
    );
    let cfg = DlfsConfig {
        cache_mode: CacheMode::CrossEpoch,
        prefetch_window: 8,
        chunk_size: 64 << 10,
        pool_chunks: 768,
        ..base_cfg()
    };
    let req = ReadRequest::batch(16).zero_copy();
    single_reader(seed, traced, rig, cfg, src, &[req; 8])
}

fn protected_offload(seed: u64, traced: bool) -> Pass {
    let sizes = near_fixed_sizes(seed, 8_192, 2_600);
    let src = Arc::new(Source::compressible(seed, sizes, 48));
    let rig = Rig::disaggregated(
        1,
        4,
        model::slow_fabric(),
        model::ramdisk(capacity_for(src.total_bytes())),
    );
    let cfg = DlfsConfig {
        chunk_size: 8 << 10,
        replicas: 2,
        verify_reads: true,
        codec: CodecKind::Lz,
        offload: true,
        ..base_cfg()
    };
    // Three measured epochs are assembled storage-side and one takes the
    // client path, so verify and decode carry load on both sides of the
    // offload decision. (A purely offloaded window charges the trainer no
    // CPU at all: `busy_ns_per_sample` would read 0.)
    let offloaded = ReadRequest::batch(32).offload();
    let epochs = [offloaded, offloaded, ReadRequest::batch(32), offloaded];
    single_reader(seed, traced, rig, cfg, src, &epochs)
}

fn point_reads(seed: u64, traced: bool) -> Pass {
    const READERS: usize = 4;
    const READS: usize = 8_192;
    let src = Arc::new(Source::noise(seed, SizeDist::imdb().sizes(seed, 16_384)));
    let rig = Rig::disaggregated(
        READERS,
        4,
        model::fabric(),
        model::ramdisk(capacity_for(src.total_bytes() / 4)),
    );
    let cfg = base_cfg();
    simulate(seed, |rt, host0| {
        let mut tr = Tracer::new(traced, 0, host0);
        let m0 = rig.mark(rt);
        let fs = Arc::new(mount(rt, &mut tr, &rig, &cfg, &src, false));
        let m1 = rig.mark(rt);
        // No warm-up: the sync path keeps nothing between reads.
        let w0 = rig.mark(rt);
        let tasks: Vec<_> = (0..READERS)
            .map(|r| {
                let (fs, src, reg) = (fs.clone(), src.clone(), rig.reg.clone());
                rt.spawn_with(&format!("reader{r}"), move |rt| {
                    let tr = Tracer::new(traced, r as u32 + 1, host0);
                    let mut reader = Reader::new(rt, fs.io_with_registry(r, &reg), src.clone(), tr);
                    reader.measuring = true;
                    let mut ids = SplitMix64::derive(seed, 0x1d5 + r as u64);
                    for _ in 0..READS {
                        reader.point_read(ids.below(src.count() as u64) as u32);
                    }
                    reader.finish()
                })
            })
            .collect();
        let mut log = Log::default();
        for t in tasks {
            log.merge(t.join());
        }
        let w1 = rig.mark(rt);
        log.spans.extend(tr.finish());
        Pass::new(
            [m0, m1, w0, w1],
            log,
            Vec::new(),
            ReplaySpec::of(&rig, &fs, &cfg, &src),
        )
    })
}

fn ckpt_mixed(seed: u64, traced: bool) -> Pass {
    const RECORD: usize = 1 << 20;
    let src = Arc::new(Source::noise(seed, near_fixed_sizes(seed, 4_096, 64 << 10)));
    let cfg = DlfsConfig {
        // Room for every record the stream can append while two epochs
        // drain (the backing store is sparse).
        ckpt_region_bytes: 2 << 30,
        ..base_cfg()
    };
    let rig = Rig::local(
        1,
        1,
        model::ramdisk(capacity_for(src.total_bytes()) + cfg.ckpt_region_bytes),
    );
    simulate(seed, |rt, host0| {
        let mut tr = Tracer::new(traced, 0, host0);
        let m0 = rig.mark(rt);
        drop(mount(rt, &mut tr, &rig, &cfg, &src, true));
        let imported = rt.now();
        tr.open(rt, "remount", 0);
        let fs = rig
            .builder(cfg.clone())
            .warm()
            .remount(rt)
            .expect("warm remount");
        tr.close(rt);
        let m1 = rig.mark(rt);
        let mut extras = vec![
            ("mount.import_s", (imported - m0.now).as_secs_f64()),
            ("mount.remount_s", (m1.now - imported).as_secs_f64()),
        ];

        let mut reader = Reader::new(rt, fs.io_with_registry(0, &rig.reg), src.clone(), tr);
        let order = sub_seed(seed, 0x5e9);
        let req = ReadRequest::batch(8);
        reader.epoch(order, 0, &req, |_, _| {});

        let w0 = rig.mark(rt);
        let stop = Arc::new(AtomicBool::new(false));
        let mut writer = fs
            .checkpoint_writer(rt, 0, 0, Some(&rig.reg))
            .expect("checkpoint writer");
        let stream = rt.spawn_with("ckpt-stream", {
            let stop = stop.clone();
            move |rt| {
                let mut tr = Tracer::new(traced, 1, host0);
                let mut record = vec![0u8; RECORD];
                simkit::rng::fill_deterministic(&mut record, seed, 0xC4);
                // (appends, failed, virtual ns inside append)
                let mut sum = (0u64, 0u64, 0u64);
                while !stop.load(Ordering::SeqCst) {
                    let t0 = rt.now();
                    tr.open(rt, "CheckpointWriter::append", 0);
                    let res = writer.append(rt, &record);
                    tr.close(rt);
                    sum.0 += 1;
                    sum.1 += res.is_err() as u64;
                    sum.2 += (rt.now() - t0).as_nanos();
                    rt.sleep(Dur::micros(200));
                }
                (sum, tr.finish())
            }
        });
        reader.measuring = true;
        for e in 1..=2 {
            reader.epoch(order, e, &req, |_, _| {});
        }
        let w1 = rig.mark(rt);
        stop.store(true, Ordering::SeqCst);
        let ((appends, failed, append_ns), spans) = stream.join();
        let mut log = reader.finish();
        log.spans.extend(spans);
        log.attempted += appends;
        log.failed += failed;
        extras.push(("writer.ckpt_appends", appends as f64));
        extras.push((
            "writer.ckpt_gbps",
            (appends - failed) as f64 * RECORD as f64 / append_ns.max(1) as f64,
        ));
        Pass::new(
            [m0, m1, w0, w1],
            log,
            extras,
            ReplaySpec::of(&rig, &fs, &cfg, &src),
        )
    })
}

fn tenants_wfq(seed: u64, traced: bool) -> Pass {
    const WEIGHTS: [u32; 3] = [1, 2, 4];
    const WORKERS: usize = 2;
    let src = Arc::new(Source::noise(seed, near_fixed_sizes(seed, 4_000, 4 << 10)));
    // One reader id per worker: concurrent handles of one tenant partition
    // each epoch between them.
    let rig = Rig::local(WORKERS, 1, model::optane(capacity_for(src.total_bytes())));
    let qos = QosConfig {
        tenants: WEIGHTS
            .iter()
            .enumerate()
            .map(|(t, &w)| TenantSpec::weighted(t as u16, w))
            .collect(),
        slots: 2,
        slo_queue: Dur::millis(5),
    };
    let cfg = DlfsConfig {
        // Room for every tenant's namespace (3 x ~125 fetch ranges): after
        // the warm-up epoch every batch is a cache hit with a near-constant
        // service time, the two slots are the only contended resource, and
        // what the window measures is the WFQ arbiter. With a pool smaller
        // than the working set the hit/miss mix interacts with the queue
        // chaotically: the same configuration moved p99 by 40 % from one
        // seed to the next.
        cache_mode: CacheMode::CrossEpoch,
        pool_chunks: 512,
        qos: Some(qos),
        ..base_cfg()
    };
    simulate(seed, |rt, host0| {
        let mut tr = Tracer::new(traced, 0, host0);
        let m0 = rig.mark(rt);
        let fs = Arc::new(mount(rt, &mut tr, &rig, &cfg, &src, false));
        let m1 = rig.mark(rt);
        fs.qos().expect("qos configured").attach_telemetry(&rig.reg);

        // One phase of all six workers. Warm-up (`window` None): each
        // worker drains its share of the epoch once, which loads every
        // range it will ever read. Measured (`window` Some): closed loop
        // until the deadline, epoch after epoch (a worker caught mid-epoch
        // by the deadline abandons the rest). `handles` carries each
        // worker's I/O handle from one phase to the next.
        let phase = |handles: Vec<Option<dlfs::DlfsIo>>, window: Option<Dur>| {
            let deadline = window.map(|d| rt.now() + d);
            let tasks: Vec<_> = handles
                .into_iter()
                .enumerate()
                .map(|(i, handle)| {
                    let (fs, src, reg) = (fs.clone(), src.clone(), rig.reg.clone());
                    let (t, w) = (i / WORKERS, i % WORKERS);
                    rt.spawn_with(&format!("t{t}.w{w}"), move |rt| {
                        let measuring = deadline.is_some();
                        let tr = Tracer::new(traced && measuring, i as u32 + 1, host0);
                        let io =
                            handle.unwrap_or_else(|| fs.io_tenant_with_registry(w, t as u16, &reg));
                        let mut reader = Reader::new(rt, io, src, tr);
                        reader.measuring = measuring;
                        // Workers of one tenant share its sequence seed, so
                        // together they partition each epoch. Every epoch
                        // is dealt as epoch 0: a worker's share is then the
                        // same from epoch to epoch, and the cache of its
                        // reader node (each reader row has its own) holds
                        // all of it after one pass. Re-dealt epochs would
                        // leave each cache half cold for many epochs.
                        let order = sub_seed(seed, 0x7e0 + t as u64);
                        let req = ReadRequest::batch(8);
                        let mut left = 0;
                        loop {
                            if left == 0 {
                                left = reader.sequence(order, 0);
                            }
                            let n = reader.batch(&req, req.n.min(left));
                            if n == 0 {
                                break;
                            }
                            left -= n;
                            let done = match deadline {
                                Some(d) => rt.now() >= d,
                                None => left == 0,
                            };
                            if done {
                                break;
                            }
                        }
                        let (io, log) = reader.into_parts();
                        (t, io, log)
                    })
                })
                .collect();
            tasks.into_iter().map(|t| t.join()).collect::<Vec<_>>()
        };

        let mut log = Log::default();
        let mut handles = Vec::new();
        for (_, io, l) in phase((0..WEIGHTS.len() * WORKERS).map(|_| None).collect(), None) {
            handles.push(Some(io));
            log.merge(l);
        }
        let w0 = rig.mark(rt);
        let done = phase(handles, Some(Dur::millis(40)));
        let w1 = rig.mark(rt);

        let mut per_tenant = [0u64; WEIGHTS.len()];
        for (t, _, l) in done {
            per_tenant[t] += l.samples;
            log.merge(l);
        }
        log.spans.extend(tr.finish());
        let total: u64 = per_tenant.iter().sum();
        let wsum: u32 = WEIGHTS.iter().sum();
        let err = per_tenant
            .iter()
            .zip(WEIGHTS)
            .map(|(&n, w)| (n as f64 / total.max(1) as f64 - w as f64 / wsum as f64).abs())
            .fold(0.0, f64::max);
        Pass::new(
            [m0, m1, w0, w1],
            log,
            vec![("tenant.fair_share_err", err)],
            ReplaySpec::of(&rig, &fs, &cfg, &src),
        )
    })
}

fn degraded_rebuild(seed: u64, traced: bool) -> Pass {
    const NODES: usize = 3;
    const DEV_BYTES: u64 = 64 << 20;
    const VICTIM: usize = 1;
    let src = Arc::new(Source::noise(seed, near_fixed_sizes(seed, 8_192, 2 << 10)));
    let rig = Rig::local(1, NODES, model::ramdisk(DEV_BYTES));
    let cfg = DlfsConfig {
        chunk_size: 8 << 10,
        replicas: 2,
        verify_reads: true,
        fail_dead_after: Some(Dur::micros(300)),
        ..base_cfg()
    };
    simulate(seed, |rt, host0| {
        let mut tr = Tracer::new(traced, 0, host0);
        let m0 = rig.mark(rt);
        let fs = mount(rt, &mut tr, &rig, &cfg, &src, true);
        let m1 = rig.mark(rt);
        let red = fs.redundancy().expect("redundancy built").clone();
        let mut reader = Reader::new(rt, fs.io_with_registry(0, &rig.reg), src.clone(), tr);
        let order = sub_seed(seed, 0x5e9);
        let req = ReadRequest::batch(16);

        // Warm-up: the victim dies somewhere in the second quarter-ish of
        // the epoch (3/16 .. 5/16), as the seed's fault schedule says.
        let total = src.count();
        let kill_at = total * 3 / 16 + (sub_seed(seed, 0xDEAD) as usize % (total / 8));
        let victim = rig.devices[VICTIM].clone();
        reader.epoch(order, 0, &req, |_, got| {
            if got >= kill_at && !victim.is_dead() {
                victim.kill();
            }
        });
        assert!(
            red.is_dead(VICTIM),
            "sustained outage must escalate to Dead"
        );

        let w0 = rig.mark(rt);
        reader.measuring = true;
        // Measured epoch 1: served degraded from the surviving replicas.
        reader.epoch(order, 1, &req, |_, _| {});
        // Measured epoch 2: a wiped replacement joins and the rebuild rides
        // along, 128 blocks after every batch.
        victim.revive();
        victim.storage().write_at(0, &vec![0u8; DEV_BYTES as usize]);
        let t_begin = rt.now();
        reader.tr.open(rt, "begin_rebuild", 0);
        let planned = reader
            .io
            .begin_rebuild(VICTIM as u16)
            .expect("begin_rebuild");
        reader.tr.close(rt);
        assert!(planned > 0, "a dead node's slots are never empty here");
        let mut steps = 0u64;
        let mut t_done = None;
        let mut step = |r: &mut Reader, budget: u64| {
            if r.io.rebuild_active() {
                r.tr.open(rt, "rebuild_step", 0);
                r.io.rebuild_step(budget);
                r.tr.close(rt);
                steps += 1;
                if !r.io.rebuild_active() {
                    t_done = Some(rt.now());
                }
            }
        };
        reader.epoch(order, 2, &req, |r, _| step(r, 128));
        // Whatever the epoch left over finishes before the window closes.
        while reader.io.rebuild_active() {
            step(&mut reader, u64::MAX);
        }
        let t_done = t_done.expect("rebuild finished");
        let w1 = rig.mark(rt);
        assert!(!red.is_dead(VICTIM), "rebuilt node must rejoin");
        let view_epoch = red.membership.as_ref().map_or(0, |m| m.view_epoch());
        Pass::new(
            [m0, m1, w0, w1],
            reader.finish(),
            vec![
                ("rebuild.time_ms", (t_done - t_begin).as_secs_f64() * 1e3),
                ("rebuild.steps", steps as f64),
                ("rebuild.view_epoch", view_epoch as f64),
            ],
            ReplaySpec::of(&rig, &fs, &cfg, &src),
        )
    })
}
