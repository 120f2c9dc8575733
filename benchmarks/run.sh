#!/usr/bin/env bash
# Builds the benchmark crate and runs it. With no arguments: all four
# workloads, end-to-end and per-layer, seed 1. See README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
if [ -n "${CORTEX_SIMD+set}" ]; then
    echo "benchmark: CORTEX_SIMD must be unset" >&2
    exit 2
fi
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
exec "${CARGO_TARGET_DIR:-$here/target}/release/cortex-benchmarks" --out "$here/out" "$@"
