//! Shared multi-node measurement runs used by Figs. 8, 9 and 12: build a
//! cluster of `nodes` readers for one system, read `per_node` samples on
//! every reader concurrently, and report the aggregate.

use dlfs::{DlfsConfig, SyntheticSource};
use dlio::backend::{DlfsBackend, Ext4Backend, OctoBackend, ReaderBackend};
use dlio::pipeline::{InputPipeline, PipelineCosts};
use simkit::prelude::*;
use simkit::telemetry::{Registry, Snapshot};

use crate::measure::{read_parallel, BackendFactory, Measured};
use crate::setup;

/// Which storage system a run exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum System {
    Dlfs,
    Ext4,
    Octopus,
}

impl System {
    pub fn label(&self) -> &'static str {
        match self {
            System::Dlfs => "DLFS",
            System::Ext4 => "Ext4",
            System::Octopus => "Octopus",
        }
    }
}

/// Aggregated throughput of `system` over `nodes` nodes reading `per_node`
/// random samples each. Deterministic in `seed`.
pub fn cluster_throughput(
    seed: u64,
    system: System,
    nodes: usize,
    source: &SyntheticSource,
    per_node: usize,
    batch: usize,
) -> Measured {
    cluster_throughput_with(
        seed,
        system,
        nodes,
        source,
        per_node,
        batch,
        &DlfsConfig::default(),
    )
    .0
}

/// Like [`cluster_throughput`], with an explicit [`DlfsConfig`] (ignored
/// by the baseline systems) and the run's aggregated telemetry snapshot —
/// the cache-ablation harnesses read hit/miss/eviction counters and
/// per-device command counts out of it.
pub fn cluster_throughput_with(
    seed: u64,
    system: System,
    nodes: usize,
    source: &SyntheticSource,
    per_node: usize,
    batch: usize,
    cfg: &DlfsConfig,
) -> (Measured, Snapshot) {
    let cfg = cfg.clone();
    let (out, _) = Runtime::simulate(seed, |rt| {
        let reg = Registry::new();
        let factories =
            backend_factories_with(rt, seed, system, nodes, source, cfg.clone(), Some(&reg));
        let m = read_parallel(rt, factories, seed, 0, per_node, batch);
        (m, reg.snapshot())
    });
    out
}

/// Build per-reader backend factories for one system on a fresh cluster,
/// DLFS readers under `cfg` and aggregating their telemetry into `reg`.
pub fn backend_factories_with(
    rt: &Runtime,
    seed: u64,
    system: System,
    nodes: usize,
    source: &SyntheticSource,
    cfg: DlfsConfig,
    reg: Option<&Registry>,
) -> Vec<BackendFactory> {
    let _ = seed;
    match system {
        System::Dlfs => {
            let fs = std::sync::Arc::new(setup::dlfs_disagg(rt, nodes, nodes, source, cfg));
            let reg = reg.cloned();
            (0..nodes)
                .map(|r| {
                    let fs = fs.clone();
                    let reg = reg.clone();
                    Box::new(move |_rt: &Runtime| {
                        let b = match &reg {
                            Some(reg) => DlfsBackend::with_registry(&fs, r, reg),
                            None => DlfsBackend::new(&fs, r),
                        };
                        Box::new(b) as Box<dyn ReaderBackend>
                    }) as BackendFactory
                })
                .collect()
        }
        System::Ext4 => (0..nodes)
            .map(|r| {
                // Each node reads its own locally staged shard.
                let (fs, staged) = setup::ext4_emulated(source, r, nodes);
                let sz = setup::sizer(source);
                Box::new(move |_rt: &Runtime| {
                    Box::new(Ext4Backend::new(fs, staged, sz)) as Box<dyn ReaderBackend>
                }) as BackendFactory
            })
            .collect(),
        System::Octopus => {
            let (fs, staged) = setup::octopus_cluster(rt, nodes, source);
            (0..nodes)
                .map(|r| {
                    let fs = fs.clone();
                    let shard = setup::shard_names(&staged, r, nodes);
                    let sz = setup::sizer(source);
                    Box::new(move |_rt: &Runtime| {
                        Box::new(OctoBackend::new(fs, r, shard, sz)) as Box<dyn ReaderBackend>
                    }) as BackendFactory
                })
                .collect()
        }
    }
}

/// Aggregated throughput *through the TF-style input pipeline* (Fig. 12):
/// each reader's backend is wrapped in an `InputPipeline` (prefetching
/// producer task + framework ingestion cost) and a consumer drains it.
pub fn cluster_pipeline_throughput(
    seed: u64,
    system: System,
    nodes: usize,
    source: &SyntheticSource,
    per_node: usize,
    batch: usize,
) -> Measured {
    let (m, _) = Runtime::simulate(seed, |rt| {
        let factories =
            backend_factories_with(rt, seed, system, nodes, source, DlfsConfig::default(), None);
        let start = rt.now();
        let mut handles = Vec::new();
        for (r, f) in factories.into_iter().enumerate() {
            handles.push(rt.spawn_with(&format!("consumer{r}"), move |rt| {
                let backend = f(rt);
                let pipe =
                    InputPipeline::launch(rt, backend, seed, 0, batch, 4, PipelineCosts::default());
                let mut m = Measured::default();
                while (m.samples as usize) < per_node {
                    match pipe.next() {
                        Some(samples) => {
                            m.samples += samples.len() as u64;
                            m.bytes += samples.iter().map(|s| s.bytes.len() as u64).sum::<u64>();
                        }
                        None => break,
                    }
                }
                m
            }));
        }
        let mut agg = Measured::default();
        for h in handles {
            let m = h.join();
            agg.samples += m.samples;
            agg.bytes += m.bytes;
        }
        agg.elapsed_ns = (rt.now() - start).as_nanos();
        agg
    });
    m
}
