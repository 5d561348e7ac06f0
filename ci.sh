#!/usr/bin/env bash
# CI gate for the DLFS reproduction.
#
#  1. tier-1: release build + the root test suite (ROADMAP.md);
#  2. the full workspace test suite (includes the deterministic chaos
#     tests in crates/core/tests/chaos.rs and crates/fabric/tests/faults.rs),
#     then the chaos / integrity / membership / codec_e2e / offload_e2e /
#     properties suites, persistence's import → remount roundtrip and
#     the reactor's latency-step, deep-queue, shared-wire, in-order-wire,
#     lone-read-on-a-wire, behind-another-handle's-reads, bursty-neighbour,
#     beside-a-checkpoint-stream, mixed-sizes-beside-a-checkpoint-stream,
#     zero-copy-batch, zero-copy-on-an-overtaking-wire and
#     lone-reads-borrowing-on-a-wire-of-unlike-targets cases again
#     under a second seed (DLFS_TEST_SEED_OFFSET)
#     so byte-correctness, determinism, the kill-one-target rebuild path
#     and the pool-side check of verified and coded reads are exercised
#     on two timelines; and all 112 cells of the late-park swarm
#     (park_swarm.rs), in a release build, at seed offsets 1000 and 7;
#  3. smoke runs: chaos sweep (fault injection + retry/failover plus the
#     replicated corruption grid: silent bit flips, sticky bad extents,
#     scrub + read-repair — all with built-in byte-correctness and
#     determinism assertions), cache ablation (cross-epoch residency +
#     prefetch), and the persistence paths (cold import vs warm remount,
#     checkpoint interference, fsck + replica repair);
#  4. perf-trajectory gate: the pinned-seed perf_gate suite emits
#     BENCH_<rev>.json and fails on >10% regression against the
#     committed baseline (crates/bench/baseline/BENCH_baseline.json);
#  5. rustfmt (check mode), clippy and rustdoc, warnings denied, across
#     every target (rustdoc: every crate's public docs, so a broken or
#     private intra-doc link fails);
#  6. the surface ratchet: code lines of the io family — crates/core/src/io.rs
#     with every `#[path]` child module it declares (check, engine,
#     offload, prefetch, reactor, sync, tel), so a line moved between
#     them still counts — of crates/core/src/mount.rs, of
#     crates/core/src/writer.rs, of crates/core/src/cache.rs, of
#     crates/core/src/*.rs and of crates/bench/src, panic sites
#     (unwrap/expect/panic!/assert!) in the io family + rebuild.rs, in
#     the non-test part of mount.rs + layout.rs + writer.rs and in the
#     non-test part of all of crates/core/src,
#     too_many_arguments/type_complexity lint allows, `pub` items in
#     crates/core/src and in crates/fabric/src, hand-wired deployment lines (`fabric::connect(`,
#     `NvmeOfTarget::new(`, `Deployment {` in the Rust sources of
#     crates/core, crates/bench, src, tests and examples outside
#     mount.rs), code lines of crates/simkit/src and of the substrate
#     crates (fabric, blocksim, kernsim, dlio, dnn, octofs), panic sites in
#     the non-test part of every crate but core and bench, the `pub` fields
#     of DlfsConfig, ReadRequest, QosConfig, TenantSpec and MetaShardConfig
#     (what a caller can set), and the bytes of
#     DESIGN.md and CHANGES.md, measured on the rustfmt'd tree, may not
#     exceed the numbers committed in
#     bench/history/surface.txt. A PR that shrinks them commits the new
#     values; one that cannot pay for what it adds raises the number
#     there and says so in bench/history/README.md;
#  7. doc citations: every `file.rs::fn_name` that DESIGN.md, README.md or
#     EXPERIMENTS.md cites names a `fn` in a file of that name under
#     crates, src, tests or examples; every `Type::member` they cite whose
#     Type the workspace defines names a fn, field or variant in a file
#     that defines or implements it (std types are skipped); and every
#     field line of a `DlfsConfig { .. }` literal in README's rust blocks
#     names a `pub` field of DlfsConfig (a deleted knob cannot survive in
#     the docs);
#  8. every example runs twice in release mode and must print the same
#     bytes both times (everything is simulated, so nothing may differ);
#  9. the benchmark's compile contract: benchmark/ is its own workspace
#     that names crates/core items by path (`CopyPool::spawn`, `CopyJob {
#     tag, sample, segments, done }`, `MountBuilder::warm`, ...), so a
#     visibility or signature change can break it with every test above
#     green. `benchmark/run.sh check` builds it against this tree and runs
#     the suite twice (the 56 end-to-end values must repeat).
#
# Everything runs offline: the workspace has no external dependencies.
set -euo pipefail
cd "$(dirname "$0")"

echo "== rustfmt (check)"
cargo fmt --check
echo "== surface ratchet (bench/history/surface.txt: may only go down)"
io="crates/core/src/io.rs $(sed -n 's|^#\[path = "\(.*\)"\]$|crates/core/src/\1|p' crates/core/src/io.rs)"
mount=crates/core/src/mount.rs
panics='unwrap\(\)|expect\(|panic!|assert!\('
{
  echo "io_rs_code_lines $(cat $io | grep -vcE '^\s*(//|$)')"
  echo "core_src_code_lines $(cat crates/core/src/*.rs | grep -vcE '^\s*(//|$)')"
  echo "io_panic_sites $(cat $io crates/core/src/rebuild.rs | grep -cE "$panics")"
  echo "mount_rs_code_lines $(grep -vcE '^\s*(//|$)' $mount)"
  # Bring-up code without its unit-test modules.
  echo "setup_panic_sites $(for f in $mount crates/core/src/layout.rs crates/core/src/writer.rs; do
    sed '/^#\[cfg(test)\]/,$d' "$f"; done | grep -cE "$panics")"
  echo "lint_allows $(cat crates/core/src/*.rs | grep -cE '#\[allow\(clippy::(too_many_arguments|type_complexity)')"
  echo "writer_rs_code_lines $(grep -vcE '^\s*(//|$)' crates/core/src/writer.rs)"
  echo "core_pub_items $(cat crates/core/src/*.rs |
    grep -cE '^\s*pub (fn|struct|enum|trait|const|type|mod|use|static)')"
  echo "fabric_pub_items $(cat crates/fabric/src/*.rs |
    grep -cE '^\s*pub (fn|struct|enum|trait|const|type|mod|use|static)')"
  echo "bench_src_code_lines $(find crates/bench/src -name '*.rs' -exec cat {} + |
    grep -vcE '^\s*(//|$)')"
  echo "cache_rs_code_lines $(grep -vcE '^\s*(//|$)' crates/core/src/cache.rs)"
  # The whole library without its unit-test modules.
  echo "core_nontest_panic_sites $(for f in crates/core/src/*.rs; do
    sed '/^#\[cfg(test)\]/,$d' "$f"; done | grep -cE "$panics")"
  # Hand-wired reader x device matrices: `Deployment::local` / `::fabric`
  # in mount.rs are the one definition of how a reader reaches a device.
  echo "wiring_sites $(find crates/core crates/bench src tests examples -name '*.rs' \
    ! -path $mount -exec cat {} + |
    grep -cE 'fabric::connect\(|NvmeOfTarget::new\(|Deployment \{')"
  echo "simkit_src_code_lines $(cat crates/simkit/src/*.rs | grep -vcE '^\s*(//|$)')"
  # The devices, the fabric, both baselines and the DL substrate.
  echo "substrate_src_code_lines $(find crates/{fabric,blocksim,kernsim,dlio,dnn,octofs}/src \
    -name '*.rs' -exec cat {} + | grep -vcE '^\s*(//|$)')"
  # Every crate but core and bench, without their unit-test modules.
  echo "lower_nontest_panic_sites $(for f in $(find crates/{simkit,fabric,blocksim,kernsim,octofs,dlio,dnn}/src \
    -name '*.rs'); do sed '/^#\[cfg(test)\]/,$d' "$f"; done | grep -cE "$panics")"
  # Fields a caller sets on the five configuration / request structs.
  echo "caller_knobs $(awk '/^pub struct (DlfsConfig|ReadRequest|QosConfig|TenantSpec|MetaShardConfig) \{/{on=1;next}
    on&&/^\}/{on=0} on&&/^    pub [a-z_0-9]+:/{n++} END{print n}' crates/core/src/{config,request,tenant,metashard}.rs)"
  echo "design_md_bytes $(wc -c <DESIGN.md)"
  echo "changes_md_bytes $(wc -c <CHANGES.md)"
} | while read -r name now; do
  max="$(awk -v n="$name" '$1 == n { print $2 }' bench/history/surface.txt)"
  echo "$name $now (committed ${max:?no $name in surface.txt})"
  [ "$now" -le "$max" ] || { echo "surface ratchet: $name grew past $max" >&2; exit 1; }
done
echo "== doc citations (file.rs::fn_name in DESIGN.md, README.md, EXPERIMENTS.md)"
grep -ohE '\b[A-Za-z0-9_]+\.rs::[a-z_][a-z0-9_]*' DESIGN.md README.md EXPERIMENTS.md | sort -u |
  while IFS= read -r cite; do
    file="${cite%%::*}" name="${cite##*::}"
    # /dev/null keeps grep off stdin when no file has that name.
    grep -qsE "\bfn $name\b" $(find crates src tests examples -name "$file") /dev/null ||
      { echo "doc citation $cite: no \`fn $name\` in any $file" >&2; exit 1; }
    echo "$cite"
  done
echo "== doc citations (Type::member in DESIGN.md, README.md, EXPERIMENTS.md)"
grep -ohE '\b[A-Z][A-Za-z0-9]*::[A-Za-z_][A-Za-z0-9_]*' DESIGN.md README.md EXPERIMENTS.md | sort -u |
  while IFS= read -r cite; do
    ty="${cite%%::*}" member="${cite##*::}"
    # Files that define the type or implement anything for it.
    files="$(grep -rlE "^(pub(\([a-z]+\))? )?(struct|enum|trait|type) $ty\b|^impl(<[^>]*>)? ([A-Za-z0-9_:<>, ]+ for )?$ty\b" \
      --include='*.rs' crates src tests examples || true)"
    [ -n "$files" ] || continue # not the workspace's: std, say
    grep -qsE "\bfn $member\b|^\s*(pub(\([a-z]+\))? )?$member:|^\s*$member\b\s*([,({]|$)|const $member\b" $files ||
      { echo "doc citation $cite: no fn, field or variant $member where $ty is defined" >&2; exit 1; }
    echo "$cite"
  done
echo "== README DlfsConfig literals name pub fields of DlfsConfig"
awk 'FNR == NR { pub[$1]; next }
  /^```/ { rust = /^```rust/; ind = -1; next }
  rust && ind < 0 && /DlfsConfig \{$/ { match($0, /^ */); ind = RLENGTH + 4; next }
  ind < 0 { next }
  { match($0, /^ */) }
  RLENGTH == ind - 4 && /^ *\}/ { ind = -1; next }
  RLENGTH == ind && /^ *[a-z_0-9]+:/ { f = $1; sub(/:.*/, "", f)
    if (!(f in pub)) { print "README.md:" FNR ": DlfsConfig has no pub field " f; bad = 1 } }
  END { exit bad }' <(sed -n '/^pub struct DlfsConfig {/,/^}/s/^    pub \([a-z_0-9]*\):.*/\1/p' \
  crates/core/src/config.rs) README.md
echo "== tier-1: release build"
cargo build --release --offline
echo "== tier-1: root test suite"
cargo test -q --offline
echo "== workspace tests"
cargo test -q --offline --workspace
echo "== chaos/integrity/membership/codec/offload/properties/roundtrip/latency step/deep queue/shared wire/in-order wire/lone read/behind another handle's reads/bursty neighbour/checkpoint stream/mixed sizes/zero-copy batches/lone-read loans under a second seed"
DLFS_TEST_SEED_OFFSET=1000 cargo test -q --offline -p dlfs \
  --test chaos --test integrity --test membership \
  --test codec_e2e --test offload_e2e --test properties
DLFS_TEST_SEED_OFFSET=1000 cargo test -q --offline -p dlfs --test persistence roundtrip_import_remount
DLFS_TEST_SEED_OFFSET=1000 cargo test -q --offline -p dlfs --test reactor -- a_latency_step \
  a_deep_queue_parks_on_time two_targets_on_one_wire_park_on_time \
  a_wire_that_lands_in_post_order_parks_to_its_oldest_read \
  a_read_alone_on_its_qpair_keeps_its_lone_floor_on_a_wire \
  a_device_another_handle_reads_parks_behind_its_reads \
  a_neighbour_that_reads_in_bursts_does_not_skew_the_clock \
  a_queue_beside_a_checkpoint_stream_parks_on_time \
  a_queue_of_mixed_sizes_beside_a_checkpoint_stream_parks_on_time \
  a_zero_copy_batch_wakes_for_the_read_that_completes_it \
  a_zero_copy_epoch_on_an_overtaking_wire_ends_on_time \
  a_lone_read_borrows_only_from_siblings_no_faster_than_its_target
echo "== the whole late-park swarm at seed offsets 1000 and 7 (release)"
for offset in 1000 7; do
  DLFS_TEST_SEED_OFFSET=$offset cargo test -q --release --offline -p dlfs --test park_swarm
done
echo "== chaos sweep (smoke)"
cargo run -q --release --offline -p dlfs-bench --bin ext_fault_sweep -- n=256 size=2048
echo "== cache ablation (smoke)"
cargo run -q --release --offline -p dlfs-bench --bin ablation_cache -- samples=1024 epochs=2
echo "== persistence: cold import vs warm remount (smoke)"
cargo run -q --release --offline -p dlfs-bench --bin ext_mount_time -- total_mb=32 max_nodes=4
echo "== persistence: checkpoint interference (smoke)"
cargo run -q --release --offline -p dlfs-bench --bin ext_checkpoint -- samples=512 appends=4
echo "== persistence: fsck demo + replica repair (smoke)"
cargo run -q --release --offline -p dlfs-bench --bin dlfs_fsck -- nodes=2 samples=256 repair=1
cargo run -q --release --offline -p dlfs-bench --bin dlfs_fsck -- nodes=2 samples=256 repair=1 codec=lz
echo "== rebuild after permanent target loss (smoke)"
cargo run -q --release --offline -p dlfs-bench --bin ext_rebuild -- n=512
echo "== storage-side offload + chunk compression (smoke)"
cargo run -q --release --offline -p dlfs-bench --bin ext_offload -- \
  samples=512 nodes=2 nics=0.8,6.8
echo "== sharded metadata + multi-tenant WFQ (smoke)"
cargo run -q --release --offline -p dlfs-bench --bin ext_multitenant -- \
  clients=256 count=8000
echo "== thousand-client metadata tier of fig09 (smoke)"
cargo run -q --release --offline -p dlfs-bench --bin fig09_scalability -- \
  per_node=150 clients=1024
echo "== examples, twice each: stdout must repeat byte for byte"
mkdir -p target/examples-check
for f in examples/*.rs; do
  ex="$(basename "$f" .rs)"
  for pass in 1 2; do
    cargo run -q --release --offline --example "$ex" >"target/examples-check/$ex.$pass.txt"
  done
  cmp "target/examples-check/$ex.1.txt" "target/examples-check/$ex.2.txt" ||
    { echo "example $ex printed different output on two runs" >&2; exit 1; }
  echo "$ex: $(wc -l <"target/examples-check/$ex.1.txt") lines, identical"
done
echo "== perf-trajectory gate"
REV="$(git rev-parse --short HEAD 2>/dev/null || echo worktree)"
mkdir -p target/bench
cargo run -q --release --offline -p dlfs-bench --bin perf_gate -- \
  "rev=${REV}" out=target/bench \
  baseline=crates/bench/baseline/BENCH_baseline.json
echo "== clippy (deny warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings
echo "== rustdoc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace
echo "== benchmark/ builds against this tree and repeats its 56 values"
CARGO_TARGET_DIR=target/benchmark benchmark/run.sh check
echo "== ci OK"
