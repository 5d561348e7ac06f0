#!/usr/bin/env bash
# The DLFS benchmark's single command. Run it from the repository root
# (or anywhere: paths are resolved from this file).
#
#   benchmark/run.sh [seed=N] [only=<workload>]
#       build, then all eight workloads: untraced pass, traced pass,
#       every metric as `name unit value`, shape assertions, fingerprint
#   benchmark/run.sh check [seed=N]
#       the suite twice; fails unless all 56 end-to-end values agree to
#       the printed digit; host-time metrics are shown, not gated
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload under the benchmark contract: the last line of
#       stdout is the result object
#   benchmark/run.sh spec
#       print BENCHMARK.json from the metric catalogue
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export DLFS_BENCH_OUT="$here/out"

# Build output goes where the caller says (CARGO_TARGET_DIR, relative to
# the caller's directory) or under benchmark/target. Cargo's own chatter
# goes to stderr so stdout stays the benchmark's.
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
bin="$target/release/dlfs-benchmark"

case "${1:-}" in
--*)
    exec "$bin" "$@"
    ;;
spec)
    exec "$bin" spec
    ;;
check)
    shift
    mkdir -p "$DLFS_BENCH_OUT"
    a="$DLFS_BENCH_OUT/check_a.txt"
    b="$DLFS_BENCH_OUT/check_b.txt"
    "$bin" suite trace=0 "$@" >"$a"
    "$bin" suite trace=0 "$@" >"$b"
    n=$(grep -c '^e2e ' "$a" || true)
    if ! diff <(grep '^e2e ' "$a") <(grep '^e2e ' "$b"); then
        echo "check FAILED: end-to-end values differ between two runs of the same code" >&2
        exit 1
    fi
    echo "check: $n end-to-end values identical across two runs"
    echo "host-time metrics (run A | run B) -- unresolved: host noise, never gated"
    paste -d'|' <(grep '^layer .* simkit\.host_' "$a") \
        <(grep '^layer .* simkit\.host_' "$b" | awk '{print " " $NF}')
    if [ "$n" -ne 56 ]; then
        echo "check FAILED: expected 56 end-to-end values, saw $n" >&2
        exit 1
    fi
    ;;
*)
    exec "$bin" suite "$@"
    ;;
esac
