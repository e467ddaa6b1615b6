#!/usr/bin/env bash
# Builds the shipped `windserve` CLI and the benchmark from source, then runs
# the benchmark with the given arguments, e.g.
#
#   bash benchmark/run.sh --workload sharegpt_steady --seed 48879 --seconds 15 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default: .bench_build).
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --quiet --release --locked --offline --manifest-path Cargo.toml -p windserve-cli >&2
cargo build --quiet --release --locked --offline --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/windserve-benchmark" "$@"
