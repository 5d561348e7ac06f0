//! Observability demo: trace the stages of a disaggregated training epoch
//! (mount, sequence, per-batch reads, epoch barrier) on the virtual clock
//! and print the timeline. Traces are deterministic: the same seed prints
//! the same timeline on any machine.
//!
//! Run with: `cargo run --release --example traced_timeline`

use std::sync::Arc;

use dlfs::DlfsConfig;
use simkit::prelude::*;
use simkit::Tracer;

fn main() {
    let tracer = Tracer::new();
    let t = tracer.clone();
    let seed = 7u64;

    Runtime::simulate(seed, move |rt| {
        use blocksim::{DeviceConfig, NvmeDevice};
        use fabric::{Cluster, FabricConfig};

        let nodes = 4usize;
        let source = dlfs::SyntheticSource::fixed(3, 8_000, 4096);

        t.event(rt, "root", "mount:begin");
        let cluster = Arc::new(Cluster::new(nodes, FabricConfig::default()));
        let devices: Vec<Arc<NvmeDevice>> = (0..nodes)
            .map(|_| NvmeDevice::new(DeviceConfig::emulated_ramdisk(64 << 20, Dur::micros(10))))
            .collect();
        // Reader r and device r share node r (direct); the rest is NVMe-oF.
        let mesh: Vec<usize> = (0..nodes).collect();
        let deployment = dlfs::Deployment::fabric(&cluster, &mesh, &mesh, &devices).unwrap();
        let fs = Arc::new(
            dlfs::MountBuilder::new(DlfsConfig::default())
                .deployment(deployment)
                .mount(rt, &source)
                .unwrap(),
        );
        t.event(rt, "root", "mount:end");

        // One training epoch: all readers start together at a barrier and
        // meet again at the end (the collective shape of dlfs_sequence).
        let barrier = Barrier::new(nodes);
        let mut handles = Vec::new();
        for r in 0..nodes {
            let fs = fs.clone();
            let t = t.clone();
            let barrier = barrier.clone();
            handles.push(rt.spawn(&format!("reader{r}"), move |rt| {
                let task = format!("reader{r}");
                let mut io = fs.io(r);
                barrier.wait(rt);
                t.event(rt, &task, "sequence");
                let mine = io.sequence(rt, 99, 0);
                let mut read = 0;
                let mut batch_no = 0;
                while read < mine {
                    let batch = io
                        .submit(rt, &dlfs::ReadRequest::batch(64))
                        .unwrap()
                        .into_copied();
                    read += batch.len();
                    if batch_no % 8 == 0 {
                        t.event(rt, &task, format!("batch {batch_no} ({read}/{mine})"));
                    }
                    batch_no += 1;
                }
                t.event(rt, &task, format!("epoch done: {read} samples"));
                barrier.wait(rt);
            }));
        }
        for h in handles {
            h.join();
        }
        t.event(rt, "root", "all-readers-done");
    });

    // Print an excerpt of the timeline.
    let events = tracer.snapshot();
    println!("{} events traced; timeline:\n", events.len());
    print!("{}", tracer.render());
    let mount = tracer.span("mount:begin", "mount:end").unwrap();
    println!("\nmount took {mount} of virtual time");
}
