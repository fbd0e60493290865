#!/usr/bin/env bash
# Run every workload, each run in a fresh process, and keep the result
# files as one set for `compare`.
#
#   benchmark/run.sh <set-dir> [runs-per-workload=3] [first-seed=1] [seconds=11]
#
# Run from the repository root. A set is <runs> untraced runs of each of the
# four workloads (seeds first-seed, first-seed+1, ...), plus one traced run
# per workload for the per-layer ledger. Compare two sets with
#
#   cargo run --release --manifest-path benchmark/Cargo.toml -- compare <setA> <setB>
set -euo pipefail

set_dir=${1:?usage: benchmark/run.sh <set-dir> [runs=3] [first-seed=1] [seconds=11]}
runs=${2:-3}
first_seed=${3:-1}
seconds=${4:-11}

cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin=${CARGO_TARGET_DIR:-benchmark/target}/release/proteus-benchmark
mkdir -p "$set_dir"

for workload in seek_empty scan_short rw_mixed server_mixed; do
  for ((i = 0; i < runs; i++)); do
    seed=$((first_seed + i))
    "$bin" run --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
      --out "$set_dir" --tag "seed$seed" | tail -n 1
  done
  "$bin" run --workload "$workload" --seed "$first_seed" --seconds "$seconds" --trace 1 \
    --out "$set_dir" --tag "seed$first_seed" | tail -n 1
done
