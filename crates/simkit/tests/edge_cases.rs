//! Edge-case coverage for the runtime: nested spawns, channel corner
//! cases, zero-capacity-like behaviour, busy accounting across tasks.

use simkit::chan::TryRecvError;
use simkit::prelude::*;

#[test]
fn nested_spawn_from_spawned_task() {
    let (sum, end) = Runtime::simulate(0, |rt| {
        let h = rt.spawn_with("outer", |rt| {
            let mut inner = Vec::new();
            for i in 0..3u64 {
                inner.push(rt.spawn_with(&format!("inner{i}"), move |rt| {
                    rt.sleep(Dur::micros(i + 1));
                    i * 10
                }));
            }
            inner.into_iter().map(|h| h.join()).sum::<u64>()
        });
        h.join()
    });
    assert_eq!(sum, 30);
    assert_eq!(end.nanos(), 3_000);
}

#[test]
fn try_recv_tells_empty_from_disconnected() {
    Runtime::simulate(1, |rt| {
        let (tx, rx) = rt.channel::<u8>(Some(2));
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.try_recv(), Ok(1));
        tx.send(3).unwrap();
        assert_eq!(rx.drain(), vec![2, 3]);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    });
}

#[test]
fn send_to_dropped_receiver_fails() {
    Runtime::simulate(2, |rt| {
        let (tx, rx) = rt.channel::<u8>(None);
        drop(rx);
        assert!(tx.send(1).is_err());
    });
}

#[test]
fn cloned_receivers_compete_fifo() {
    let (got, _) = Runtime::simulate(3, |rt| {
        let (tx, rx) = rt.channel::<u32>(None);
        let rx2 = rx.clone();
        let a = rt.spawn_with("a", move |_| rx.recv().unwrap());
        let b = rt.spawn_with("b", move |_| rx2.recv().unwrap());
        rt.sleep(Dur::micros(1));
        tx.send(10).unwrap();
        tx.send(20).unwrap();
        (a.join(), b.join())
    });
    // FIFO wake order: first blocked receiver gets the first message.
    assert_eq!(got, (10, 20));
}

#[test]
fn join_after_finish_returns_immediately() {
    Runtime::simulate(4, |rt| {
        let h = rt.spawn_with("quick", |_| 7u8);
        rt.sleep(Dur::millis(1)); // task long finished
        let t0 = rt.now();
        assert_eq!(h.join(), 7);
        assert_eq!(rt.now(), t0, "join must not advance time");
    });
}

#[test]
fn work_and_sleep_account_separately() {
    let ((busy, total), end) = Runtime::simulate(5, |rt| {
        rt.work(Dur::micros(3));
        rt.sleep(Dur::micros(7));
        let h = rt.spawn_with("w", |rt| {
            rt.work(Dur::micros(11));
        });
        h.join();
        (rt.my_busy(), rt.total_busy())
    });
    assert_eq!(busy, Dur::micros(3));
    assert_eq!(total, Dur::micros(14));
    assert_eq!(end.nanos(), 21_000);
}

#[test]
fn deeply_chained_pipeline_terminates() {
    // 20 stages, each forwarding through a bounded channel.
    let (count, _) = Runtime::simulate(6, |rt| {
        let (first_tx, mut prev_rx) = rt.channel::<u64>(Some(2));
        for s in 0..20 {
            let (tx, rx) = rt.channel::<u64>(Some(2));
            let rx_in = prev_rx;
            rt.spawn(&format!("stage{s}"), move |rt| {
                while let Ok(v) = rx_in.recv() {
                    rt.work(Dur::nanos(50));
                    if tx.send(v + 1).is_err() {
                        break;
                    }
                }
            });
            prev_rx = rx;
        }
        let sink = prev_rx;
        let producer = rt.spawn("producer", move |_| {
            for i in 0..100u64 {
                first_tx.send(i).unwrap();
            }
        });
        let mut n = 0;
        while let Ok(v) = sink.recv() {
            assert!(v >= 20);
            n += 1;
            if n == 100 {
                break;
            }
        }
        producer.join();
        n
    });
    assert_eq!(count, 100);
}
