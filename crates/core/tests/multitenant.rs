//! Multi-tenant serving tests: the defaults-off byte-identity guarantee,
//! tenant namespace isolation in the shared sample cache, per-tenant
//! telemetry, and a seeded property test interleaving admission and
//! eviction against the shared chunk cache.

use std::sync::Arc;

use blocksim::{DeviceConfig, NvmeDevice};
use dlfs::cache::range_key;

use dlfs::tenant::{QosConfig, TenantQos, TenantSpec};
use dlfs::{CacheMode, DlfsConfig, DlfsInstance, ReadRequest, SampleCache, SyntheticSource};
use simkit::prelude::*;
use simkit::rng::SplitMix64;
use simkit::telemetry::Registry;

fn mount(rt: &Runtime, cfg: DlfsConfig, samples: usize, bytes: u64) -> DlfsInstance {
    let source = SyntheticSource::fixed(11, samples, bytes);
    dlfs::MountBuilder::new(cfg)
        .local(NvmeDevice::new(DeviceConfig::optane(256 << 20)))
        .mount(rt, &source)
        .unwrap()
}

/// Deliver `n` samples in batches of `batch` and fingerprint everything
/// observable: ids, payload bytes, and the per-batch virtual timestamps.
fn run_workload(rt: &Runtime, fs: &DlfsInstance, n: usize, batch: usize) -> Vec<u64> {
    let mut io = fs.io(0);
    io.sequence(rt, 4242, 0);
    let mut print = Vec::new();
    let mut read = 0;
    while read < n {
        let got = io
            .submit(rt, &ReadRequest::batch(batch))
            .unwrap()
            .into_copied();
        for (id, data) in &got {
            print.push(*id as u64);
            let mut h = 0xcbf29ce484222325u64;
            for &b in data {
                h = (h ^ b as u64).wrapping_mul(0x100000001b3);
            }
            print.push(h);
        }
        print.push(rt.now().nanos());
        read += got.len();
    }
    print
}

/// The whole QoS layer with one tenant and free slots is
/// byte-identical to a build without it: same delivered ids, same
/// payload bytes, same virtual timestamps.
#[test]
fn single_tenant_qos_matches_default_path_bit_for_bit() {
    let run = |qos: Option<QosConfig>| {
        Runtime::simulate(5, |rt| {
            let cfg = DlfsConfig {
                qos,
                ..DlfsConfig::default()
            };
            let fs = mount(rt, cfg, 3000, 4096);
            run_workload(rt, &fs, 1500, 32)
        })
    };
    let baseline = run(None);
    // Tenant 0, more slots than the workload can occupy:
    // admission grants immediately and adds zero virtual time.
    let gated = run(Some(QosConfig::equal(1, 8)));
    assert_eq!(baseline, gated, "single-tenant QoS perturbed the engine");
    // And the gated run replays byte-identically under the same seed.
    assert_eq!(gated, run(Some(QosConfig::equal(1, 8))));
}

/// Two tenants on one device pool: both get correct payloads, the shared
/// cache never crosses their keys, and the per-tenant counters account
/// every delivery to the right namespace.
#[test]
fn tenants_share_pool_but_not_keys_or_counters() {
    Runtime::simulate(9, |rt| {
        let cfg = DlfsConfig {
            cache_mode: CacheMode::CrossEpoch,
            qos: Some(QosConfig {
                tenants: vec![TenantSpec::weighted(1, 1), TenantSpec::weighted(2, 1)],
                slots: 2,
                slo_queue: Dur::millis(5),
            }),
            ..DlfsConfig::default()
        };
        let source = SyntheticSource::fixed(11, 2000, 4096);
        let fs = Arc::new(
            dlfs::MountBuilder::new(cfg)
                .local(NvmeDevice::new(DeviceConfig::optane(256 << 20)))
                .mount(rt, &source)
                .unwrap(),
        );
        let reg = Registry::new();
        fs.qos().unwrap().attach_telemetry(&reg);

        let mut joins = Vec::new();
        for tenant in [1u16, 2] {
            let fs = fs.clone();
            let source = source.clone();
            joins.push(rt.spawn_with(&format!("tenant{tenant}"), move |rt| {
                let mut io = fs.io_tenant(0, tenant);
                io.sequence(rt, 100 + tenant as u64, 0);
                let mut read = 0;
                while read < 600 {
                    let batch = io
                        .submit(rt, &ReadRequest::batch(25))
                        .unwrap()
                        .into_copied();
                    for (id, data) in &batch {
                        assert_eq!(
                            data,
                            &source.expected(*id),
                            "tenant {tenant} read a corrupted sample {id}"
                        );
                    }
                    read += batch.len();
                }
                read as u64
            }));
        }
        let delivered: Vec<u64> = joins.into_iter().map(|j| j.join()).collect();
        assert_eq!(delivered, vec![600, 600]);

        let snap = reg.snapshot();
        for tenant in [1u64, 2] {
            assert_eq!(
                snap.counter(&format!("dlfs.tenant.{tenant}.reads")),
                600,
                "tenant {tenant} delivery accounting"
            );
            assert!(snap.counter(&format!("dlfs.tenant.{tenant}.bytes")) > 0);
            let ok = snap.counter(&format!("dlfs.tenant.{tenant}.slo_ok"));
            let miss = snap.counter(&format!("dlfs.tenant.{tenant}.slo_miss"));
            assert!(ok + miss > 0, "every batch lands in an SLO bucket");
        }
    });
}

/// Unknown tenants are rejected with a typed error at submit.
#[test]
fn unknown_tenant_is_rejected_at_submit() {
    Runtime::simulate(2, |rt| {
        let cfg = DlfsConfig {
            qos: Some(QosConfig::equal(2, 4)), // tenants 0 and 1
            ..DlfsConfig::default()
        };
        let fs = mount(rt, cfg, 100, 2048);
        let mut io = fs.io_tenant(0, 9);
        io.sequence(rt, 1, 0);
        match io.submit(rt, &ReadRequest::batch(4)) {
            Err(dlfs::DlfsError::Config(msg)) => assert!(msg.contains("tenant")),
            other => panic!("expected Config error, got {other:?}"),
        }
    });
}

/// `range_key` is injective per (tenant, node) and tenant 0 keys are
/// numerically the historical bare-node keys.
#[test]
fn range_keys_never_collide_across_tenants() {
    for case in 0..256 {
        let mut g = SplitMix64::derive(0x7E4A47, case);
        let (t1, t2) = (g.below(1 << 16) as u16, g.below(1 << 16) as u16);
        let n = g.below(1 << 16) as u16;
        let off = g.below(1 << 40);
        let (k1, k2) = (range_key(t1, n, off), range_key(t2, n, off));
        assert_eq!(k1 == k2, t1 == t2, "tenant must be part of the key");
        assert_eq!(k1.0 & 0xFFFF, n as u32, "node in the low bits");
        assert_eq!(
            range_key(0, n, off),
            (n as u32, off),
            "tenant-0 keys unchanged"
        );
    }
}

/// Seeded interleaving of tenant admission and cache
/// publish/acquire/evict against one shared pool: every worker finishes
/// (no lost wakeups), and every acquired range carries its own tenant's
/// tag (no cross-tenant key collisions).
#[test]
fn interleaved_admission_and_eviction_hold_isolation() {
    const CASES: u64 = 24;
    const CHUNK: usize = 4096;
    for case in 0..CASES {
        let mut g = SplitMix64::derive(0x7E9057, case);
        let tenants = g.range(2, 5) as u16;
        let workers = g.range(1, 4) as usize;
        let slots = g.range(1, 4) as usize;
        let pool = g.range(4, 10) as usize;
        let rounds = g.range(10, 40);
        let seed = g.below(1 << 32);
        let cfg = QosConfig {
            tenants: (0..tenants)
                .map(|t| TenantSpec::weighted(t, 1 + (t as u32 % 3)))
                .collect(),
            slots,
            slo_queue: Dur::micros(50),
        };
        cfg.validate().unwrap();
        Runtime::simulate(seed, |rt| {
            let qos = TenantQos::new(&cfg, CHUNK as u64);
            let cache = Arc::new(SampleCache::with_mode(CHUNK, pool, CacheMode::CrossEpoch));
            let mut joins = Vec::new();
            for t in 0..tenants {
                for w in 0..workers {
                    let qos = qos.clone();
                    let cache = cache.clone();
                    joins.push(rt.spawn_with(&format!("t{t}.w{w}"), move |rt| {
                        let mut g = SplitMix64::derive(0x90B0 + t as u64, w as u64);
                        for _round in 0..rounds {
                            let grant = qos.admit(rt, t, CHUNK as u64).unwrap();
                            let key = range_key(t, 0, g.below(4) * CHUNK as u64);
                            // Tag every byte with the tenant id so a key
                            // collision shows up as data corruption.
                            match cache.pin(key, false) {
                                Some((p, _)) => {
                                    for b in p.bufs() {
                                        b.with(|d| {
                                            assert!(
                                                d.iter().all(|&x| x == t as u8),
                                                "tenant {t} pinned foreign bytes (case {case})"
                                            );
                                        });
                                    }
                                }
                                None => {
                                    if let Some(bufs) = cache.alloc_for(CHUNK as u64).0 {
                                        for b in &bufs {
                                            b.with_mut(|d| d.fill(t as u8));
                                        }
                                        drop(cache.publish(key, bufs, CHUNK as u64, false));
                                        // Park on the LRU tail: evictable,
                                        // so tenants contend for the pool.
                                        assert!(cache.release(key));
                                    }
                                }
                            }
                            rt.sleep(Dur::nanos(g.range(50, 500)));
                            qos.complete(grant, 1, CHUNK as u64);
                        }
                    }));
                }
            }
            // Every worker joining proves no admission wakeup was lost.
            for j in joins {
                j.join();
            }
        });
    }
}
