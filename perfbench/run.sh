#!/usr/bin/env bash
# Builds the release `tdv` server and the benchmark from this checkout,
# then runs the benchmark. Run from the repository root:
#   bash perfbench/run.sh --workload derive --seed 1 --seconds 25 --trace 0
set -euo pipefail
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p td-cli --bin tdv >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --tdv "$target/release/tdv" --work "$target/perfbench-work" "$@"
