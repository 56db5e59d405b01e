#!/usr/bin/env bash
# A/A study: two alternating sets (A, B) of the full benchmark on the
# current tree, each run with another seed, then the table of set
# medians, their gap, the run-to-run spread and the bound for every
# workload/metric pair. Exits non-zero if a gap or spread exceeds its
# bound.
#
#   benchmark/aa.sh [runs-per-set]      (default 5, i.e. 5 + 5 runs)
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
runs=${1:-5}
out="$here/out/aa"
rm -rf "$out"
mkdir -p "$out"

seed=0
for run in $(seq 1 "$runs"); do
    # Alternate which set goes first, as a parent/change comparison would.
    if ((run % 2)); then order="A B"; else order="B A"; fi
    for set in $order; do
        seed=$((seed + 1))
        for workload in dse-sweep sim-validate serve-hot serve-cold route-mixed; do
            echo "== set $set run $run: $workload (seed $seed)" >&2
            "$here/run.sh" "$workload" --seed "$seed" > "$out/$set-$run-$workload.log"
            cp "$here/out/result-$workload.json" "$out/$set-$run-$workload.json"
        done
    done
done

if [[ -n "${CARGO_TARGET_DIR:-}" && "$CARGO_TARGET_DIR" != /* ]]; then
    CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR"
fi
"${CARGO_TARGET_DIR:-$here/target}/release/drmap-benchmark" aa-table "$out" "$here/../BENCHMARK.json"
