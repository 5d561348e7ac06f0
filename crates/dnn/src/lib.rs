//! # dnn — a minimal from-scratch deep-learning stack
//!
//! Supplies the training substrate for the paper's accuracy experiment
//! (Fig. 13): dense matrices with a parallel matmul ([`tensor`]), an MLP
//! with softmax cross-entropy and momentum SGD ([`net`]), synthetic
//! labelled datasets with a byte-record encoding that travels through the
//! storage systems ([`data`]), and an order-parameterized training loop
//! ([`train`]) so DLFS-determined sample sequences can be compared against
//! application-side full shuffling on identical footing.

//! ## Example
//!
//! ```
//! use dnn::{train_with_orders, ClassData, TrainConfig};
//!
//! let (train, val) = ClassData::synthetic(7, 600, 8, 3, 0.4).split(0.25);
//! let n = train.len();
//! let cfg = TrainConfig { epochs: 6, hidden: vec![16], ..Default::default() };
//! let stats = train_with_orders(&train, &val, &cfg, |e| {
//!     let mut rng = simkit::SplitMix64::derive(1, e as u64);
//!     rng.permutation(n)
//! });
//! assert!(stats.last().unwrap().val_accuracy > 0.8);
//! ```

#![forbid(unsafe_code)]

pub mod data;
pub mod net;
pub mod tensor;
pub mod train;

pub use data::ClassData;
pub use net::{softmax_xent, Mlp};
pub use tensor::Matrix;
pub use train::{
    final_accuracy, tail_accuracy, train_with_orders, train_with_orders_resumable, CkptAction,
    EpochStat, TrainConfig, TrainState,
};
