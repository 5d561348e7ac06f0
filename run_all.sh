#!/bin/bash
# Regenerate results/*.txt — every bench EXPERIMENTS.md quotes — from the
# release binaries (cargo build --release --offline --workspace first).
# A crashing bin stops the script: a truncated table is never followed by
# ALL_DONE. Everything except ablation_directory (host wall time) is
# virtual time and repeats byte for byte.
set -euo pipefail
set -x
B=./target/release
$B/fig01_size_dist > results/fig01.txt 2>&1
$B/fig06_single_node > results/fig06.txt 2>&1
$B/fig07_cpu > results/fig07.txt 2>&1
$B/fig08_sizes > results/fig08.txt 2>&1
$B/fig09_scalability > results/fig09.txt 2>&1
$B/fig10_lookup > results/fig10.txt 2>&1
$B/fig11_disagg > results/fig11.txt 2>&1
$B/fig12_tf > results/fig12.txt 2>&1
$B/fig13_accuracy > results/fig13.txt 2>&1
$B/ablation_batching > results/ablation_batching.txt 2>&1
$B/ablation_directory > results/ablation_directory.txt 2>&1
$B/ablation_cache > results/ablation_cache.txt 2>&1
$B/ext_tfrecord_shuffle > results/ext_tfrecord.txt 2>&1
$B/ext_octopus_cache > results/ext_octopus_cache.txt 2>&1
$B/ext_latency > results/ext_latency.txt 2>&1
$B/ext_mount_time > results/ext_mount_time.txt 2>&1
$B/ext_checkpoint > results/ext_checkpoint.txt 2>&1
$B/ext_fault_sweep > results/ext_fault_sweep.txt 2>&1
$B/ext_rebuild > results/ext_rebuild.txt 2>&1
$B/ext_offload > results/ext_offload.txt 2>&1
$B/ext_multitenant > results/ext_multitenant.txt 2>&1
$B/dlfs_fsck > results/dlfs_fsck.txt 2>&1
$B/perf_gate rev=results out=target/bench \
  baseline=crates/bench/baseline/BENCH_baseline.json > results/perf_gate.txt 2>&1
echo ALL_DONE
