//! Tests for the redesigned read/metrics API surface: the `ReadRequest` +
//! `submit` path must deliver correct payloads in both delivery modes with
//! deterministic virtual-time cost, and the telemetry registry must be
//! byte-for-byte deterministic under a fixed seed. (The equivalence proofs
//! against the removed `bread`/`bread_zero_copy` entry points live on in
//! the golden reports of `tests/reactor.rs`, captured from the pre-removal
//! engine.)

use blocksim::{DeviceConfig, NvmeDevice};
use dlfs::{DlfsConfig, ReadRequest, SyntheticSource};
use simkit::prelude::*;

fn mount(rt: &Runtime, source: &SyntheticSource) -> dlfs::DlfsInstance {
    let dev = NvmeDevice::new(DeviceConfig::optane(256 << 20));
    dlfs::MountBuilder::new(DlfsConfig::default())
        .local(dev)
        .mount(rt, source)
        .unwrap()
}

// ------------------------------------------------------------ determinism --

/// Same seed, same workload ⇒ the rendered telemetry report is identical
/// down to the byte, including every histogram quantile.
#[test]
fn telemetry_report_is_deterministic() {
    let run = || {
        Runtime::simulate(77, |rt| {
            let source = SyntheticSource::fixed(9, 4000, 2048);
            let fs = mount(rt, &source);
            let mut io = fs.io(0);
            io.sequence(rt, 13, 0);
            let mut read = 0;
            while read < 2000 {
                read += io.submit(rt, &ReadRequest::batch(48)).unwrap().len();
            }
            io.metrics().render()
        })
        .0
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty());
    assert_eq!(a, b, "telemetry report must be byte-identical across runs");
    // The report covers both the dlfs stage histograms and the block layer.
    for needle in [
        "dlfs.io.samples_delivered",
        "dlfs.io.stage.prep_ns",
        "dlfs.io.stage.poll_ns",
        "dlfs.io.stage.copy_ns",
        "blocksim.dev0.commands",
    ] {
        assert!(a.contains(needle), "report missing {needle}:\n{a}");
    }
}

/// The virtual clock itself is part of the determinism contract: two runs
/// must also end at the same virtual instant.
#[test]
fn virtual_time_is_deterministic_under_telemetry() {
    let run = || {
        Runtime::simulate(31, |rt| {
            let source = SyntheticSource::fixed(2, 1500, 4096);
            let fs = mount(rt, &source);
            let mut io = fs.io(0);
            io.sequence(rt, 5, 0);
            while io.submit(rt, &ReadRequest::batch(64)).is_ok() {}
            rt.now().nanos()
        })
        .0
    };
    assert_eq!(run(), run());
}

// ------------------------------------------------------------ equivalence --

/// `submit(ReadRequest::batch(n))` delivers every planned sample with the
/// correct payload, at a deterministic virtual-time cost.
#[test]
fn submit_delivers_correct_payloads_deterministically() {
    let run = || {
        Runtime::simulate(19, |rt| {
            let source = SyntheticSource::fixed(3, 2500, 1536);
            let fs = mount(rt, &source);
            let mut io = fs.io(0);
            io.sequence(rt, 11, 0);
            let mut samples = Vec::new();
            for _ in 0..20 {
                let batch = io
                    .submit(rt, &ReadRequest::batch(40))
                    .unwrap()
                    .into_copied();
                samples.extend(batch);
            }
            for (id, data) in &samples {
                assert_eq!(data, &source.expected(*id), "payload of sample {id}");
            }
            (samples, rt.now().nanos())
        })
        .0
    };
    let (a_samples, a_t) = run();
    let (b_samples, b_t) = run();
    assert_eq!(a_samples, b_samples, "same samples in the same order");
    assert_eq!(a_t, b_t, "same virtual-time cost");
}

/// Delivery-mode equivalence: `.zero_copy()` hands out the same samples —
/// same ids, same bytes — as copied delivery of the same planned sequence.
#[test]
fn zero_copy_delivery_matches_copied_payloads() {
    let run = |zero_copy: bool| {
        Runtime::simulate(23, |rt| {
            let source = SyntheticSource::fixed(4, 2500, 1024);
            let fs = mount(rt, &source);
            let mut io = fs.io(0);
            io.sequence(rt, 17, 0);
            let mut ids = Vec::new();
            let mut sums = Vec::new();
            // Drain the full epoch: mid-epoch batch boundaries cut at the
            // first `n` completions, which depend on the delivery mode.
            loop {
                if zero_copy {
                    let Ok(batch) = io.submit(rt, &ReadRequest::batch(40).zero_copy()) else {
                        break;
                    };
                    for s in batch.into_zero_copy() {
                        ids.push(s.id);
                        sums.push(s.fnv1a());
                    }
                } else {
                    let Ok(batch) = io.submit(rt, &ReadRequest::batch(40)) else {
                        break;
                    };
                    for (id, data) in batch.into_copied() {
                        ids.push(id);
                        sums.push(fnv1a(&data));
                    }
                }
            }
            assert_eq!(ids.len(), 2500, "full epoch delivered");
            (ids, sums)
        })
        .0
    };
    let pairs = |(ids, sums): (Vec<u32>, Vec<u64>)| {
        let mut v: Vec<(u32, u64)> = ids.into_iter().zip(sums).collect();
        // Delivery order may differ between modes (the copy pool reorders
        // completions); the delivered *set* and payloads must not.
        v.sort_unstable();
        v
    };
    let zc = pairs(run(true));
    let cp = pairs(run(false));
    assert_eq!(zc, cp, "same samples with identical payloads in both modes");
}

fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Injected per-sample compute flows through the builder: same samples
/// delivered, strictly more virtual time spent than without injection.
#[test]
fn inject_compute_costs_time_without_changing_delivery() {
    let run = |inject: Dur| {
        Runtime::simulate(29, |rt| {
            let source = SyntheticSource::fixed(6, 1200, 2048);
            let fs = mount(rt, &source);
            let mut io = fs.io(0);
            io.sequence(rt, 2, 0);
            let mut ids = Vec::new();
            for _ in 0..8 {
                let batch = io
                    .submit(rt, &ReadRequest::batch(32).inject_compute(inject))
                    .unwrap();
                ids.extend(batch.sample_ids());
            }
            (ids, rt.now().nanos())
        })
        .0
    };
    let (base_ids, base_t) = run(Dur::ZERO);
    let (inj_ids, inj_t) = run(Dur::micros(5));
    assert_eq!(base_ids, inj_ids, "injection must not change what arrives");
    assert!(
        inj_t > base_t,
        "injected compute must cost virtual time ({inj_t} <= {base_t})"
    );
}

// ------------------------------------------------------------ short batch --

/// A batch comes back short in one way only: zero-copy samples the caller
/// holds starve the pool, so it can open fewer items than the batch asks
/// for. That batch returns what the pool could hold — whole, source-equal
/// and new, never torn — and `dlfs.io.deadline_misses` counts it exactly
/// once. Once the pins drop, the next batch delivers in full.
#[test]
fn a_starved_pool_returns_one_short_batch() {
    Runtime::simulate(41, |rt| {
        // 200 KiB samples, one 256 KiB chunk each, on the 96-chunk pool.
        let source = SyntheticSource::fixed(8, 400, 200 << 10);
        let fs = mount(rt, &source);
        let mut io = fs.io(0);
        io.sequence(rt, 3, 0);
        let req = ReadRequest::batch(20).zero_copy();
        let misses = |io: &dlfs::DlfsIo| io.metrics().counter("dlfs.io.deadline_misses");
        // Four held batches pin 80 chunks and leave 16.
        let mut held = Vec::new();
        for _ in 0..4 {
            let batch = io.submit(rt, &req).unwrap().into_zero_copy();
            assert_eq!(batch.len(), 20);
            held.extend(batch);
        }
        assert_eq!(misses(&io), 0, "a full batch is no miss");
        held.extend(io.submit(rt, &req).unwrap().into_zero_copy());
        assert_eq!(held.len(), 80 + 16, "the fifth batch is the pool's rest");
        assert_eq!(misses(&io), 1);
        let mut ids: Vec<u32> = held.iter().map(|s| s.id).collect();
        for s in &held {
            assert_eq!(s.to_vec(), source.expected(s.id), "sample {}", s.id);
        }
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), held.len(), "a sample was delivered twice");
        drop(held);
        assert_eq!(io.submit(rt, &req).unwrap().len(), 20);
        assert_eq!(misses(&io), 1, "the short batch is counted once");
    });
}

/// Snapshot deltas: `since` isolates exactly one request's worth of work.
#[test]
fn snapshot_since_isolates_a_window() {
    Runtime::simulate(53, |rt| {
        let source = SyntheticSource::fixed(1, 2000, 1024);
        let fs = mount(rt, &source);
        let mut io = fs.io(0);
        io.sequence(rt, 7, 0);
        io.submit(rt, &ReadRequest::batch(100)).unwrap();
        let before = io.metrics();
        io.submit(rt, &ReadRequest::batch(25)).unwrap();
        let delta = io.metrics().since(&before);
        assert_eq!(delta.counter("dlfs.io.samples_delivered"), 25);
        assert_eq!(delta.counter("dlfs.io.batches"), 1);
    });
}
