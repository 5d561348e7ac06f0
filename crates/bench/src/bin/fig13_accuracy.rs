//! Figure 13: training accuracy under application-side full randomization
//! (`Full_Rand`) vs the DLFS-determined sample sequence (chunk-batched,
//! windowed random draw).
//!
//! Paper's claim: "there are no observable differences in the training
//! accuracy" — the relaxed randomization of opportunistic batching does
//! not hurt convergence.
//!
//! Substitution note (see DESIGN.md): AlexNet/ImageNet is replaced by an
//! MLP on a synthetic CIFAR-like dataset; the question under test is a
//! property of the *sample order statistics*, which is preserved — the
//! DLFS order comes from the very planner the I/O engine executes.

use dlfs::{BatchMode, DirectoryBuilder, SampleSource, SyntheticSource};
use dlfs_bench::{arg, Table, DEFAULT_SEED};
use dnn::{train_with_orders, ClassData, TrainConfig};

fn main() {
    let seed: u64 = arg("seed", DEFAULT_SEED);
    let epochs: usize = arg("epochs", 100);
    let n: usize = arg("n", 12_000);
    let features: usize = arg("features", 64);
    let classes: usize = arg("classes", 10);
    let noise: f32 = arg("noise", 2.5);

    println!("# Fig 13: validation accuracy, Full_Rand vs DLFS-determined order");
    println!("# dataset: synthetic {classes}-class, {n} samples x {features} features, {epochs} epochs\n");

    let (train, val) = ClassData::synthetic(seed, n, features, classes, noise).split(0.2);
    let train_n = train.len();

    // The on-storage encoding of the training set defines the chunk layout
    // the DLFS planner batches over.
    let record = train.record_len() as u64;
    let encoded = SyntheticSource::new(seed, vec![record; train_n]);
    let mut builder = DirectoryBuilder::new(1, train_n).unwrap();
    let mut cursor = 0u64;
    for id in 0..train_n as u32 {
        builder
            .add(id, &encoded.name(id), 0, cursor, record)
            .unwrap();
        cursor += record;
    }
    let dir = builder.finish().unwrap();

    let cfg = TrainConfig {
        epochs,
        batch: 32,
        lr: 0.05,
        momentum: 0.9,
        hidden: vec![64],
        seed,
    };

    // Application-driven full randomization.
    let full = train_with_orders(&train, &val, &cfg, |e| {
        dlfs::full_random_order(train_n, seed, e as u64)
    });

    // DLFS-determined order: the chunk-level plan's delivery model — the
    // engine's items and deal, drawn through a window of 12 open items
    // (16 KB chunks over ~257 B records).
    let dlfs_stats = train_with_orders(&train, &val, &cfg, |e| {
        let plan = dlfs::build_epoch_plan(
            &dir,
            dlfs::plan::Extents::raw(16 << 10, BatchMode::ChunkLevel),
            1,
            12,
            seed,
            e as u64,
        );
        plan.readers[0].order.clone()
    });

    let mut t = Table::new(&["epoch", "Full_Rand", "DLFS", "diff"]);
    let step = (epochs / 25).max(1);
    let mut max_diff = 0.0f64;
    for (f, d) in full.iter().zip(&dlfs_stats) {
        let diff = (f.val_accuracy - d.val_accuracy).abs();
        max_diff = max_diff.max(diff);
        if f.epoch % step == 0 || f.epoch + 1 == epochs {
            t.row(&[
                f.epoch.to_string(),
                format!("{:.4}", f.val_accuracy),
                format!("{:.4}", d.val_accuracy),
                format!("{:+.4}", f.val_accuracy - d.val_accuracy),
            ]);
        }
    }
    t.print();
    println!("\n# csv\n{}", t.csv());

    let tail_full = dnn::tail_accuracy(&full, 10);
    let tail_dlfs = dnn::tail_accuracy(&dlfs_stats, 10);
    println!("final (last-10-epoch mean): Full_Rand {tail_full:.4}  DLFS {tail_dlfs:.4}");
    println!("max per-epoch |difference|: {max_diff:.4}");
    println!(
        "paper: no observable accuracy difference | measured tail gap: {:+.4}",
        tail_full - tail_dlfs
    );
}
