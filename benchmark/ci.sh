#!/usr/bin/env bash
# Offline build, the self-tests, and one --quick pass over every workload.
# Not wired into .github/workflows/ci.yml yet; a later PR does that.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline
cargo test --release --offline
mkdir -p out
cargo run --release --offline --quiet -- all --quick --out out/ci-report.json --trace-dir out
