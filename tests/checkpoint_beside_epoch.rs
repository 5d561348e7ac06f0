//! A training job checkpoints while its input pipeline reads: a checkpoint
//! stream appending from its own task beside an epoch on the same device
//! lands every record, and — background work that parks while it waits
//! behind reads — costs the job less than 5 % of a core.

use blocksim::{DeviceConfig, NvmeDevice};
use dlfs::{DlfsConfig, ReadRequest, SyntheticSource};
use simkit::prelude::*;

#[test]
fn checkpoint_stream_beside_an_epoch_lands_every_record_for_under_5_percent_of_a_core() {
    const RECORDS: u8 = 8;
    Runtime::simulate(11, |rt| {
        let dev = NvmeDevice::new(DeviceConfig::optane(128 << 20));
        let fs = dlfs::MountBuilder::new(DlfsConfig::default())
            .local(dev)
            .persistent()
            .mount(rt, &SyntheticSource::fixed(4, 2048, 16 << 10))
            .unwrap();
        let mut w = fs.checkpoint_writer(rt, 0, 0, None).unwrap();
        let record = |i: u8| vec![i; 256 << 10];
        let appender = rt.spawn_with("ckpt-stream", move |rt| {
            let t0 = rt.now();
            for i in 0..RECORDS {
                w.append(rt, &record(i)).unwrap();
            }
            (rt.my_busy(), rt.now() - t0)
        });
        let mut io = fs.io(0);
        io.sequence(rt, 5, 0);
        let mut delivered = 0;
        while let Ok(batch) = io.submit(rt, &ReadRequest::batch(32)) {
            delivered += batch.len();
        }
        assert_eq!(delivered, 2048);
        let (busy, took) = appender.join();
        let cores = busy.as_nanos() as f64 / took.as_nanos() as f64;
        assert!(cores < 0.05, "appender held {cores:.3} of a core");

        let mut reader = fs.checkpoint_reader(0, 0, None).unwrap();
        for i in 0..RECORDS {
            assert_eq!(reader.next(rt).unwrap(), Some(record(i)), "record {i}");
        }
        assert_eq!(reader.next(rt).unwrap(), None);
    });
}
