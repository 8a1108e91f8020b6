#!/bin/sh
# Runs every workload once, untraced, from the repository root, and prints
# each workload's metrics (with units, on stderr) and its result line.
# Usage: sh perfbench/run_all.sh [seed] [seconds]
set -eu
seed=${1:-1}
seconds=${2:-30}
for workload in dblp_merge_warm imdb_userlog_cold; do
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0
done
