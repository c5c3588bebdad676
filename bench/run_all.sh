#!/usr/bin/env bash
# Every workload untraced and traced: prints every end-to-end and per-layer
# metric and exits non-zero if any run fails a gate or an operation.
#
#   bash bench/run_all.sh [seed] [seconds] [record.json]
set -u
cd "$(dirname "$0")/.."
seed=${1:-0}
seconds=${2:-10}
out=${3:-}
status=0
for workload in chain20 grid2_cold grid_recover; do
    for trace in 0 1; do
        python3 bench/run.py --workload "$workload" --seed "$seed" --seconds "$seconds" \
            --trace "$trace" ${out:+--out "$out"} || status=1
    done
done
exit $status
