#!/usr/bin/env bash
# The one command: build popbench, run the four workloads end to end, run them
# traced, and write benchmark/out/<git-sha>.json (what `popbench compare`
# reads). Extra arguments go to `popbench set`, e.g. --seed 7 --seconds 10.
set -euo pipefail
cd "$(dirname "$0")/.."

sha=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/popbench"
"$bin" set --git-sha "$sha" --out "benchmark/out/$sha.json" "$@"
