#!/usr/bin/env bash
# Runs a bench binary twice and diffs the JSON it writes, with the
# "wall_-prefixed (host-time) lines removed: every simulated quantity must
# come out byte-identical across processes. Run it from the directory the
# bench writes its JSON into.
#
#   run_twice_diff.sh <binary> <json> [bench args...]
#   run_twice_diff.sh ./bench/bench_sim_engine BENCH_sim_shards.json --shards=1,4
set -euo pipefail
bin=$1
json=$2
shift 2
first="${json%.json}.run1.json"
"$bin" "$@"
mv "$json" "$first"
"$bin" "$@"
diff <(grep -v '"wall_' "$first") <(grep -v '"wall_' "$json")
