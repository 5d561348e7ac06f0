//! # dlfs-bench — the experiment harness
//!
//! One binary per figure of the paper's evaluation (`src/bin/figNN_*.rs`)
//! plus ablation binaries for the design choices DESIGN.md calls out, and
//! Criterion microbenches (`benches/`) for real hot-path costs.
//!
//! Shared machinery:
//! - [`setup`] — wire devices/fabric/file systems like the paper's testbed;
//! - [`measure`] — read-N-samples throughput windows, single and aggregated;
//! - [`table`] — aligned text + CSV output.

#![forbid(unsafe_code)]

pub mod cluster_runs;
pub mod measure;
pub mod multitenant;
pub mod report;
pub mod setup;
pub mod table;

pub use cluster_runs::{
    backend_factories_with, cluster_pipeline_throughput, cluster_throughput,
    cluster_throughput_with, System,
};
pub use measure::{read_n, read_n_latency, read_parallel, BackendFactory, Measured};
pub use multitenant::{
    greedy_shares, meta_scale_run, weighted_fair_run, FairRun, MetaDesign, MetaRun,
};
pub use report::{epoch_report, fmt_ns, print_stage_breakdown, stage_breakdown};
pub use table::{fmt_size, fmt_sps, ratio, Table};

/// Default collective seed used across harnesses (results are seeded and
/// reproducible; pass `seed=N` on the command line to vary).
pub const DEFAULT_SEED: u64 = 20190923; // CLUSTER'19 conference date

/// Parse `key=value` style CLI arguments.
pub fn arg<T: std::str::FromStr>(key: &str, default: T) -> T {
    for a in std::env::args().skip(1) {
        if let Some(v) = a.strip_prefix(&format!("{key}=")) {
            if let Ok(parsed) = v.parse::<T>() {
                return parsed;
            }
            eprintln!("warning: could not parse {key}={v}, using default");
        }
    }
    default
}
