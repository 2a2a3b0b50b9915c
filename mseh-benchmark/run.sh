#!/usr/bin/env bash
# Builds the shipped `mseh` binary and the benchmark from source, then runs
# the benchmark with the given arguments. Run from the repository root:
#
#   bash mseh-benchmark/run.sh --workload cli-oneshot --seed 7 --seconds 25 --trace 0
#
# Both builds share one target directory (`$CARGO_TARGET_DIR`, default
# `target`), so the benchmark finds `mseh` next to its own executable.
set -euo pipefail
target="${CARGO_TARGET_DIR:-target}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --bin mseh >&2
cargo build --release --offline --quiet --manifest-path mseh-benchmark/Cargo.toml >&2
# Not `exec`: the benchmark reads its children's peak memory, and an
# exec'd process would inherit the compilers' as its own children's.
"$target/release/mseh-benchmark" "$@"
