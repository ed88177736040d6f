#!/usr/bin/env bash
# Paired A/B comparison of one BENCHMARK.json workload: a parent revision
# against this checkout (uncommitted edits included).
#
#   scripts/ab.sh <workload> <seed> <pairs> [<parent-rev>]
#   scripts/ab.sh --self-test
#
# The parent (default HEAD~1) is checked out in a temporary git worktree.
# Each side is built once, offline, with its own CARGO_TARGET_DIR, then the
# two benchmark binaries run the BENCHMARK.json form (`--workload <w> --seed
# <s> --seconds <run_seconds> --trace 0`) from their own checkout roots,
# alternating which side goes first. Every pair is printed, then the
# quartiles of `wall_s` and `peak_rss_mb` per side. Exits non-zero if a run
# fails or any pair's `sim_fingerprint` differs.
#
# `--self-test` compares this checkout with itself: one binary, built
# where `cargo run --manifest-path benchmark/Cargo.toml` builds it (so a
# job that already ran the benchmark builds nothing), runs both sides of
# one relay-swarm pair at `--quick` scale for one second. It exercises the
# pairing, the quartiles and the fingerprint check, and must find the
# fingerprints equal.
set -euo pipefail

root=$(git rev-parse --show-toplevel)
cd "$root"

extra=()
self_test=0
if [ "${1:-}" = --self-test ]; then
  [ $# -eq 1 ] || { echo "usage: $0 --self-test" >&2; exit 2; }
  workload=relay-swarm seed=1 pairs=1 parent=HEAD seconds=1 extra=(--quick) self_test=1
else
  [ $# -ge 3 ] && [ $# -le 4 ] || {
    echo "usage: $0 <workload> <seed> <pairs> [<parent-rev>] | $0 --self-test" >&2
    exit 2
  }
  workload=$1 seed=$2 pairs=$3 parent=${4:-HEAD~1}
  seconds=$(sed -nE 's/.*"run_seconds": *([0-9]+).*/\1/p' BENCHMARK.json)
fi
[[ $pairs =~ ^[1-9][0-9]*$ ]] || { echo "pairs must be a positive whole number" >&2; exit 2; }
rev=$(git rev-parse --verify --quiet "$parent^{commit}") \
  || { echo "unknown parent revision $parent" >&2; exit 2; }

build() { # <checkout> <target dir>
  CARGO_TARGET_DIR=$2 cargo build --release --offline --quiet \
    --manifest-path "$1/benchmark/Cargo.toml"
}
if ((self_test)); then
  echo "building this checkout once for both sides" >&2
  build "$root" "$root/benchmark/target"
  declare -A dir=([parent]="$root" [change]="$root")
  declare -A bin=(
    [parent]="$root/benchmark/target/release/dapes-benchmark"
    [change]="$root/benchmark/target/release/dapes-benchmark"
  )
else
  work=$(mktemp -d)
  cleanup() {
    git worktree remove --force "$work/parent" >/dev/null 2>&1 || true
    rm -rf "$work"
  }
  trap cleanup EXIT
  git worktree add --quiet --detach "$work/parent" "$rev"
  echo "building parent ${rev:0:12} and this checkout" >&2
  build "$work/parent" "$work/parent-target"
  build "$root" "$work/change-target"
  declare -A dir=([parent]="$work/parent" [change]="$root")
  declare -A bin=(
    [parent]="$work/parent-target/release/dapes-benchmark"
    [change]="$work/change-target/release/dapes-benchmark"
  )
fi

# Runs one side; prints "<wall_s> <peak_rss_mb> <sim_fingerprint>".
run() {
  local out
  out=$(cd "${dir[$1]}" && "${bin[$1]}" --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0 "${extra[@]}") \
    || { echo "$1 run failed" >&2; return 1; }
  awk '$1 == "wall_s" {w = $2} $1 == "peak_rss_mb" {r = $2}
       $1 == "sim_fingerprint" {f = $2} END {print w, r, f}' <<<"$out"
}

moved=0
declare -A wall rss
for ((i = 1; i <= pairs; i++)); do
  if ((i % 2)); then order=(parent change); else order=(change parent); fi
  declare -A res=()
  for side in "${order[@]}"; do res[$side]=$(run "$side"); done
  read -r pw pr pf <<<"${res[parent]}"
  read -r cw cr cf <<<"${res[change]}"
  wall[parent]+="$pw " wall[change]+="$cw " rss[parent]+="$pr " rss[change]+="$cr "
  printf 'pair %2d (%s first): wall_s %s -> %s  peak_rss_mb %s -> %s  sim_fingerprint %s%s\n' \
    "$i" "${order[0]}" "$pw" "$cw" "$pr" "$cr" "$pf" "$([ "$pf" = "$cf" ] || echo " -> $cf MOVED")"
  [ "$pf" = "$cf" ] || moved=1
done

# Quartiles by linear interpolation between order statistics.
quartiles() {
  tr ' ' '\n' <<<"$1" | sed '/^$/d' | sort -g | awk '
    {v[NR] = $1}
    function q(p,  h, l) { h = (NR - 1) * p + 1; l = int(h); return v[l] + (h - l) * (v[l + (l < NR)] - v[l]) }
    END {printf "q1 %.3f  median %.3f  q3 %.3f", q(0.25), q(0.5), q(0.75)}'
}
if ((self_test)); then sides="this checkout on both sides"; else sides="parent ${rev:0:12} -> this checkout"; fi
echo "$workload seed $seed, $pairs pair(s), $sides"
for metric in wall rss; do
  declare -n m=$metric
  label=$([ $metric = wall ] && echo wall_s || echo peak_rss_mb)
  echo "$label parent: $(quartiles "${m[parent]}")"
  echo "$label change: $(quartiles "${m[change]}")"
done
if ((moved)); then
  echo "sim_fingerprint differs between the sides" >&2
  exit 1
fi
