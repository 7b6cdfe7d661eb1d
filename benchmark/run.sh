#!/usr/bin/env bash
# The benchmark's single entry point: builds `prcc-benchmark` (offline,
# release) and runs it. Run from anywhere; arguments go to the program
# (`--help` lists them). Results land in benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A relative CARGO_TARGET_DIR (the driver's) is relative to the caller's
# directory, so nothing here changes directory.
target="${CARGO_TARGET_DIR:-$here/target}"
CARGO_TARGET_DIR="$target" cargo build --offline --release --quiet \
    --manifest-path "$here/Cargo.toml" >&2
PRCC_BENCH_COMMIT="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)" \
PRCC_BENCH_DATE="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    exec "$target/release/prcc-benchmark" --out "$here/out" "$@"
