#!/usr/bin/env bash
# Runs a bench binary twice and diffs the JSON each run writes, with the
# "wall_-prefixed (host-time) lines removed, against the committed expected
# file: every simulated quantity must come out byte-identical to it in both
# processes (so also across them). Run it from the directory the bench writes
# its JSON into.
#
#   run_twice_diff.sh <binary> <json> <expected> [bench args...]
#   run_twice_diff.sh ./bench/bench_sim_engine BENCH_sim_shards.json \
#     ../bench/expected/BENCH_sim_shards.txt --shards=1,4
set -euo pipefail
bin=$1
json=$2
expected=$3
shift 3
for _ in 1 2; do
  "$bin" "$@"
  diff <(grep -v '"wall_' "$json") "$expected"
done
