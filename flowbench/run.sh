#!/usr/bin/env bash
# Builds the flowmax binaries and the benchmark from source, then runs one
# workload:
#
#   bash flowbench/run.sh [fixed settings] --workload <name> --seed <n> \
#        --seconds <s> --trace <0|1>
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build at the
# repository root); generated inputs and span files to .flowbench-work.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
    /*) ;;
    *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin flowmax --bin flowmax-serve >&2
cargo build --release --offline --quiet --manifest-path flowbench/Cargo.toml --bin flowbench >&2
exec "$target/release/flowbench" --bin-dir "$target/release" "$@"
