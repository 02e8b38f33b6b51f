#!/usr/bin/env bash
# Builds the `fsdl` server binary and the `fsdlbench` load generator from
# source, then runs fsdlbench with the given arguments:
#
#   bash fsdlbench/run.sh --workload static-faults --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); fsdlbench's working files go to .fsdlbench-work.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p fsdl-cli >&2
cargo build --release --offline --quiet --manifest-path fsdlbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/fsdlbench" --fsdl "$CARGO_TARGET_DIR/release/fsdl" "$@"
