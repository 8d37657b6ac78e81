#!/usr/bin/env bash
# One entry point for the benchmark: builds the package from source, then
# hands every argument to the binary (`run.sh --help` lists them). Run it
# from the repository root; BENCHMARK.json's command is `bash benchmark/run.sh`.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

# Build output goes to stderr so stdout carries only results.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    --target-dir "$target" >&2

exec "$target/release/sbx-benchmark" "$@"
