//! Determinism and stress tests for the virtual-time scheduler.
//!
//! The whole reproduction rests on simulations being replayable: identical
//! seeds must produce identical event orders and identical virtual
//! timestamps across runs (and across machines). These tests run non-trivial
//! task graphs twice and require bit-identical traces.

use simkit::prelude::*;

/// A moderately tangled workload: a pipeline of stages connected by bounded
/// channels, with per-task pseudo-random service times.
fn pipeline_trace(seed: u64) -> (Vec<(u32, u64)>, u64) {
    let (trace, end) = Runtime::simulate(seed, |rt| {
        let (tx_a, rx_a) = rt.channel::<u32>(Some(4));
        let (tx_b, rx_b) = rt.channel::<u32>(Some(4));
        let (tx_out, rx_out) = rt.channel::<(u32, u64)>(None);

        // Stage 1: three producers with jittered inter-arrival times.
        let mut producers = Vec::new();
        for p in 0..3u32 {
            let tx = tx_a.clone();
            let mut rng = rt.rng(100 + p as u64);
            producers.push(rt.spawn(&format!("prod{p}"), move |rt| {
                for i in 0..20u32 {
                    rt.sleep(Dur::nanos(rng.range(100, 5_000)));
                    tx.send(p * 100 + i).unwrap();
                }
            }));
        }
        drop(tx_a);

        // Stage 2: two transformers with their own service times.
        let mut transformers = Vec::new();
        for t in 0..2u32 {
            let rx = rx_a.clone();
            let tx = tx_b.clone();
            let mut rng = rt.rng(200 + t as u64);
            transformers.push(rt.spawn(&format!("xform{t}"), move |rt| {
                while let Ok(v) = rx.recv() {
                    rt.work(Dur::nanos(rng.range(50, 2_000)));
                    tx.send(v).unwrap();
                }
            }));
        }
        drop(rx_a);
        drop(tx_b);

        // Stage 3: single consumer recording (value, time) pairs.
        let consumer = rt.spawn("consume", move |rt| {
            while let Ok(v) = rx_b.recv() {
                tx_out.send((v, rt.now().nanos())).unwrap();
            }
        });

        for h in producers {
            h.join();
        }
        for h in transformers {
            h.join();
        }
        consumer.join();
        rx_out.drain()
    });
    (trace, end.nanos())
}

#[test]
fn identical_seeds_identical_traces() {
    let (t1, e1) = pipeline_trace(42);
    let (t2, e2) = pipeline_trace(42);
    assert_eq!(t1.len(), 60);
    assert_eq!(t1, t2);
    assert_eq!(e1, e2);
}

#[test]
fn different_seeds_different_traces() {
    let (t1, _) = pipeline_trace(42);
    let (t2, _) = pipeline_trace(43);
    assert_ne!(t1, t2);
}

#[test]
fn many_tasks_stress() {
    // 120 tasks ping-ponging through a shared channel still terminates and
    // is deterministic.
    let run = || {
        let (sum, end) = Runtime::simulate(7, |rt| {
            let (tx, rx) = rt.channel::<u64>(None);
            let mut handles = Vec::new();
            for i in 0..120u64 {
                let tx = tx.clone();
                handles.push(rt.spawn_with(&format!("t{i}"), move |rt| {
                    rt.sleep(Dur::nanos(i * 13 % 977));
                    tx.send(i).unwrap();
                    rt.work(Dur::nanos(i % 53));
                    i
                }));
            }
            drop(tx);
            let mut sum = 0u64;
            while let Ok(v) = rx.recv() {
                sum += v;
            }
            for h in handles {
                h.join();
            }
            sum
        });
        (sum, end.nanos())
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
    assert_eq!(a.0, (0..120).sum::<u64>());
}

#[test]
fn link_contention_is_deterministic() {
    let run = || {
        let (arrivals, _) = Runtime::simulate(1, |rt| {
            let link = Link::new(1e9, Dur::micros(5));
            let (tx, rx) = rt.channel::<(u32, u64)>(None);
            let mut handles = Vec::new();
            for i in 0..8u32 {
                let link = link.clone();
                let tx = tx.clone();
                handles.push(rt.spawn(&format!("xfer{i}"), move |rt| {
                    rt.sleep(Dur::nanos(i as u64 * 100));
                    link.transfer(rt, 64 * 1024);
                    tx.send((i, rt.now().nanos())).unwrap();
                }));
            }
            drop(tx);
            for h in handles {
                h.join();
            }
            rx.drain()
        });
        arrivals
    };
    let a = run();
    assert_eq!(a, run());
    // FIFO: earlier starters finish earlier on a serialized link.
    for w in a.windows(2) {
        assert!(w[0].1 < w[1].1, "{a:?}");
    }
}

#[test]
fn semaphore_queue_depth_pipeline() {
    // Model an SPDK-style queue-depth-bounded submission pipeline and check
    // the completion count and makespan are exactly reproducible. The queue
    // depth is a bounded channel of unit permits: send to acquire a slot,
    // recv to release it.
    let run = || {
        Runtime::simulate(3, |rt| {
            let (acquire, release) = rt.channel::<()>(Some(16));
            let srv = Servers::new(4);
            let mut handles = Vec::new();
            for i in 0..64 {
                let acquire = acquire.clone();
                let release = release.clone();
                let srv = srv.clone();
                handles.push(rt.spawn(&format!("io{i}"), move |rt| {
                    acquire.send(()).unwrap();
                    srv.serve(rt, Dur::micros(10));
                    release.recv().unwrap();
                }));
            }
            for h in handles {
                h.join();
            }
            rt.now().nanos()
        })
        .0
    };
    let a = run();
    assert_eq!(a, run());
    // 64 requests, 4 channels, 10us each → exactly 160us.
    assert_eq!(a, 160_000);
}
