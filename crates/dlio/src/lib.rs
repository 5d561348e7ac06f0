//! # dlio — the deep-learning I/O substrate around DLFS
//!
//! Everything the evaluation needs that is not a storage system itself:
//!
//! - [`sizedist`] — sample-size distributions calibrated to the paper's
//!   Fig. 1 (ImageNet p75 ≈ 147 KB, IMDB p75 ≈ 1.6 KB);
//! - [`formats`] — the real TFRecord container codec, including the
//!   record index DLFS uses for sample-level access;
//! - [`dataset`] — deterministic dataset generation + staging helpers for
//!   every system under test;
//! - [`backend`] — the `ReaderBackend` trait with DLFS / DLFS-Base / Ext4
//!   / Octopus implementations driving each system the way the paper's
//!   microbenchmarks do;
//! - [`pipeline`] — a tf.data-style input pipeline (shuffle buffer,
//!   batching, prefetch) for the Fig. 12 framework experiments.

//! ## Example: the Fig. 1 size distributions
//!
//! ```
//! use dlio::SizeDist;
//!
//! let p75 = SizeDist::imagenet().quantile(1, 20_000, 0.75);
//! assert!((100_000..200_000).contains(&p75)); // paper: "less than 147 KB"
//! let p75 = SizeDist::imdb().quantile(1, 20_000, 0.75);
//! assert!((1_000..2_500).contains(&p75)); // paper: "less than 1.6 KB"
//! ```

#![forbid(unsafe_code)]

pub mod backend;
pub mod container;
pub mod dataset;
pub mod formats;
pub mod pipeline;
pub mod sizedist;

pub use backend::{DlfsBackend, DlfsBaseBackend, Ext4Backend, OctoBackend, ReaderBackend, Sample};
pub use container::TfRecordDataset;
pub use dataset::{generate, shard_of, stage_ext4_untimed, stage_octopus, HierarchicalSource};
pub use formats::{crc32c, masked_crc, tfrecord_index, tfrecord_read, tfrecord_write};
pub use pipeline::{shuffle_quality, InputPipeline, PipelineCosts, ShuffleBuffer};
pub use sizedist::SizeDist;
