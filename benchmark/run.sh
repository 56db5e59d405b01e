#!/usr/bin/env bash
# The repo's one benchmark: one command per workload.
#
#   benchmark/run.sh <workload>|all [--seed N] [--seconds S] [--traced] [--smoke]
#   benchmark/run.sh --workload <workload> --seed N --seconds S --trace 0|1
#
# Builds the servers under test (the real drmap-serve / drmap-router
# release binaries) and the harness — outside every timed region — then
# runs the harness, which prints every metric as `name value unit`,
# writes benchmark/out/result-<workload>.json, prints a one-line JSON
# summary last, and exits non-zero if a correctness gate fails.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
repo=$(cd "$here/.." && pwd)

# Cargo resolves a relative CARGO_TARGET_DIR against its working
# directory; pin it so both builds and the harness agree on one place.
if [[ -n "${CARGO_TARGET_DIR:-}" && "$CARGO_TARGET_DIR" != /* ]]; then
    export CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR"
fi
servers="${CARGO_TARGET_DIR:-$repo/target}/release"
harness="${CARGO_TARGET_DIR:-$here/target}/release/drmap-benchmark"

cargo build --quiet --release --offline --manifest-path "$repo/Cargo.toml" \
    -p drmap-service -p drmap-router --bin drmap-serve --bin drmap-router >&2
cargo build --quiet --release --offline --manifest-path "$here/Cargo.toml" >&2

commit=$(git -C "$repo" rev-parse --short HEAD 2>/dev/null || echo unknown)
rustc=$(rustc --version 2>/dev/null || echo unknown)

workload=
args=()
while (($#)); do
    case "$1" in
        --workload) workload=$2; shift 2 ;;
        --*) args+=("$1"); shift
             # Flags that take a value carry it along.
             case "${args[-1]}" in --seed|--seconds|--trace) args+=("$1"); shift ;; esac ;;
        *) workload=$1; shift ;;
    esac
done
[[ -n "$workload" ]] || { echo "usage: $0 <workload>|all [--seed N] [--seconds S] [--traced] [--smoke]" >&2; exit 2; }

run_one() {
    "$harness" --workload "$1" --root "$here" --bin-dir "$servers" \
        --commit "$commit" --rustc "$rustc" "${args[@]}"
}

if [[ "$workload" == all ]]; then
    status=0
    for w in dse-sweep sim-validate serve-hot serve-cold route-mixed; do
        run_one "$w" || status=$?
    done
    exit "$status"
fi
run_one "$workload"
