//! Microbenchmarks of real hot-path costs: the data structures whose
//! per-operation wall time justifies the virtual-time cost constants used
//! in the simulations (see DESIGN.md). Plain self-timed harness
//! (`cargo bench --bench microbench`): each case is warmed up, then timed
//! over enough iterations to smooth scheduler noise.

use std::hint::black_box;
use std::time::Instant;

use dlfs::avl::AvlTree;
use dlfs::SampleEntry;
use kernsim::lru::LruMap;
use simkit::rng::SplitMix64;

/// Time `f` and report ns/iteration. Runs a 10% warmup first.
fn bench<F: FnMut()>(name: &str, iters: u64, mut f: F) {
    for _ in 0..iters / 10 {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let ns = start.elapsed().as_nanos() as f64 / iters as f64;
    println!("{name:<32} {ns:>12.1} ns/iter");
}

fn bench_avl() {
    for n in [10_000usize, 1_000_000] {
        let mut tree = AvlTree::with_capacity(n);
        let mut rng = SplitMix64::new(7);
        let keys: Vec<u64> = (0..n).map(|_| rng.next() & ((1 << 48) - 1)).collect();
        for (i, &k) in keys.iter().enumerate() {
            let _ = tree.insert(k, i as u32);
        }
        let mut i = 0;
        bench(&format!("avl/lookup_{n}"), 1_000_000, || {
            i = (i + 9973) % keys.len();
            black_box(tree.get(black_box(keys[i])));
        });
    }
    let mut rng = SplitMix64::new(9);
    let insert_keys: Vec<u64> = (0..10_000u64)
        .map(|_| rng.next() & ((1 << 48) - 1))
        .collect();
    bench("avl/insert_10k", 100, || {
        let mut t = AvlTree::with_capacity(insert_keys.len());
        for (i, &k) in insert_keys.iter().enumerate() {
            let _ = t.insert(k, i as u32);
        }
        black_box(t.len());
    });
}

fn bench_entry() {
    bench("entry/pack_unpack", 10_000_000, || {
        let e = SampleEntry::new(
            black_box(17),
            black_box(0xABCDE12345),
            black_box(987_654),
            black_box(4096),
            black_box(true),
        );
        black_box((e.nid(), e.key(), e.offset(), e.len(), e.valid()));
    });
    let name = "train/sample_00012345.jpg";
    bench("entry/key_for", 10_000_000, || {
        black_box(SampleEntry::key_for(black_box(name)));
    });
}

fn bench_lru() {
    let mut lru: LruMap<u64, u64> = LruMap::new(4096);
    for i in 0..4096u64 {
        lru.insert(i, i);
    }
    let mut i = 0u64;
    bench("lru/hit", 1_000_000, || {
        i = (i + 997) % 4096;
        black_box(lru.get(&i).copied());
    });
    bench("lru/insert_evict", 1_000_000, || {
        i += 1;
        black_box(lru.insert(i + 10_000, i));
    });
}

fn bench_crc() {
    for size in [512usize, 65536] {
        let data = vec![0xA5u8; size];
        let iters = if size > 4096 { 10_000 } else { 500_000 };
        bench(&format!("crc32c/{size}B"), iters, || {
            black_box(dlio::crc32c(black_box(&data)));
        });
    }
}

fn bench_shuffle_and_plan() {
    let mut rng = SplitMix64::new(3);
    bench("plan/permutation_100k", 100, || {
        black_box(rng.permutation(100_000));
    });

    // Epoch plan construction over a 100k-sample directory.
    let n = 100_000usize;
    let mut builder = dlfs::DirectoryBuilder::new(4, n).unwrap();
    let mut cursors = [0u64; 4];
    for id in 0..n as u32 {
        let name = format!("s_{id:07}");
        let nid = dlfs::node_for_name(&name, 4);
        builder
            .add(id, &name, nid, cursors[nid as usize], 4096)
            .unwrap();
        cursors[nid as usize] += 4096;
    }
    let dir = builder.finish().unwrap();
    let mut epoch = 0u64;
    bench("plan/epoch_plan_100k", 20, || {
        epoch += 1;
        black_box(dlfs::build_epoch_plan(
            &dir,
            dlfs::plan::Extents::raw(256 << 10, dlfs::BatchMode::ChunkLevel),
            4,
            12,
            42,
            epoch,
        ));
    });
}

fn bench_storage() {
    let s = blocksim::Storage::new(64 << 20);
    let data = vec![7u8; 256 << 10];
    let mut buf = vec![0u8; 256 << 10];
    s.write_at(0, &data);
    bench("storage/read_256k", 50_000, || {
        s.read_at(0, black_box(&mut buf));
    });
    bench("storage/write_256k", 50_000, || {
        s.write_at(0, black_box(&data));
    });
}

fn bench_matmul() {
    let mut rng = SplitMix64::new(1);
    let a = dnn::Matrix::randn(32, 64, 1.0, &mut rng);
    let w = dnn::Matrix::randn(64, 64, 1.0, &mut rng);
    bench("dnn/matmul_32x64x64", 10_000, || {
        black_box(a.matmul(&w));
    });
}

fn main() {
    bench_avl();
    bench_entry();
    bench_lru();
    bench_crc();
    bench_shuffle_and_plan();
    bench_storage();
    bench_matmul();
}
