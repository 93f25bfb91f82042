#!/usr/bin/env bash
# Run the whole benchmark once: the self-test, then every workload timed
# (end-to-end metrics) and traced (per-layer metrics).
#
#   bash perfbench/all.sh [seed] [seconds]
#
# Each run's figures and final JSON line go to stdout; full results go to
# .perfbench_out/.  Exits non-zero if the self-test or any run fails.
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-1}"
seconds="${2:-15}"
python3 perfbench/selftest.py
for workload in cold-query warm-serve live-refresh scale-join; do
  for trace in 0 1; do
    python3 perfbench/run.py --workload "$workload" --seed "$seed" \
      --seconds "$seconds" --trace "$trace"
  done
done
