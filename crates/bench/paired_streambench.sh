#!/usr/bin/env bash
# The paired end-to-end speed gate. Builds streambench in two source trees,
# runs both builds at the same time for PAIRS rounds, each pinned to its
# own core with the cores swapped every round, and gates the change
# against the parent with this repo's check_paired_bench and the bounds
# in its BENCHMARK.json.
#
#   crates/bench/paired_streambench.sh <parent-tree> <change-tree> <out-dir>
#
# Needs cores 0 and 1 and `taskset`. Writes <out-dir>/{parent,change}.jsonl,
# one streambench result line per round, and exits with the gate's status.
set -eu

PAIRS=5
RUN_SECONDS=2

repo=$(cd "$(dirname "$0")/../.." && pwd)
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
out=$3
mkdir -p "$out"
: >"$out/parent.jsonl"
: >"$out/change.jsonl"

for tree in "$parent" "$change"; do
  cargo build --release --offline --quiet --manifest-path "$tree/streambench/Cargo.toml" \
    --target-dir "$tree/streambench/target"
done

# A run that fails a correctness check still prints its result line last;
# the gate reads `correct` from it.
run() { # <tree> <core> <file>
  taskset -c "$2" "$1/streambench/target/release/streambench" \
    --workload all --seed 1 --seconds "$RUN_SECONDS" --trace 0 | tail -n 1 >>"$3"
}

for ((round = 0; round < PAIRS; round++)); do
  run "$parent" $((round % 2)) "$out/parent.jsonl" &
  run "$change" $(((round + 1) % 2)) "$out/change.jsonl" &
  wait
done

cargo run --release --offline --quiet --manifest-path "$repo/Cargo.toml" \
  -p cf-bench --bin check_paired_bench -- --bounds="$repo/BENCHMARK.json" \
  --parent="$out/parent.jsonl" --change="$out/change.jsonl"
