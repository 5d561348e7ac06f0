//! Figure 1: sample-size CDF for ImageNet-like and IMDB-like datasets.
//!
//! Paper's anchors: "about 75% of \[ImageNet\] samples are less than 147 KB
//! ... 75% of \[IMDB\] samples are less than 1.6 KB".

use dlfs_bench::{arg, fmt_size, Table, DEFAULT_SEED};
use dlio::SizeDist;

fn main() {
    let seed: u64 = arg("seed", DEFAULT_SEED);
    let n: usize = arg("n", 100_000);

    println!("# Fig 1: sample size distribution CDF (n = {n} samples per dataset)\n");

    let imagenet = SizeDist::imagenet();
    let imdb = SizeDist::imdb();

    let points: Vec<u64> = (7..=23).map(|p| 1u64 << p).collect(); // 128 B .. 8 MB
    let cdf_in = imagenet.cdf(seed, n, &points);
    let cdf_im = imdb.cdf(seed, n, &points);

    let mut t = Table::new(&["size", "ImageNet CDF", "IMDB CDF"]);
    for (i, &p) in points.iter().enumerate() {
        t.row(&[
            fmt_size(p),
            format!("{:.4}", cdf_in[i]),
            format!("{:.4}", cdf_im[i]),
        ]);
    }
    t.print();
    println!("\n# csv\n{}", t.csv());

    let p75_in = imagenet.quantile(seed, n, 0.75);
    let p75_im = imdb.quantile(seed, n, 0.75);
    let p50_in = imagenet.quantile(seed, n, 0.50);
    let p50_im = imdb.quantile(seed, n, 0.50);
    println!(
        "paper: ImageNet p75 < 147 KB | measured p75 = {} (median {})",
        fmt_size(p75_in),
        fmt_size(p50_in)
    );
    println!(
        "paper: IMDB     p75 < 1.6 KB | measured p75 = {} (median {})",
        fmt_size(p75_im),
        fmt_size(p50_im)
    );
}
