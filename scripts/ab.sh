#!/usr/bin/env bash
# Paired A/B comparison of one BENCHMARK.json workload: a parent revision
# against this checkout (uncommitted edits included).
#
#   scripts/ab.sh <workload> <seed> <pairs> [<parent-rev>]
#   scripts/ab.sh --self-test
#
# The parent (default HEAD~1) is exported with `git archive` into a
# temporary directory. Each side is built once, offline, with its own
# CARGO_TARGET_DIR, then the two benchmark binaries run the BENCHMARK.json
# form (`--workload <w> --seed <s> --seconds <run_seconds> --trace 0`) from
# their own checkout roots, alternating which side goes first. Every pair
# is printed; then, for each end-to-end metric BENCHMARK.json declares, the
# quartiles per side and in how many pairs the change read lower and in how
# many higher (ties count for neither: this is the count a claimed gain
# needs in nine pairs of ten). Exits non-zero if a run fails or any pair's
# `sim_fingerprint` differs.
#
# `--self-test` compares this checkout with itself: one binary, built
# where `cargo run --manifest-path benchmark/Cargo.toml` builds it (so a
# job that already ran the benchmark builds nothing), runs both sides of
# one relay-swarm pair at `--quick` scale for one second. It exercises the
# pairing, the quartiles, the pair counts and the fingerprint check: it must
# find the fingerprints equal, print both summary lines for every metric,
# and count no pair lower or higher on the metrics that a trace fixes.
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
  trap 'rm -rf "$work"' EXIT
  mkdir "$work/parent"
  git archive "$rev" | tar -x -C "$work/parent"
  echo "building parent ${rev:0:12} and this checkout" >&2
  build "$work/parent" "$work/parent-target"
  build "$root" "$work/change-target"
  declare -A dir=([parent]="$work/parent" [change]="$root")
  declare -A bin=(
    [parent]="$work/parent-target/release/dapes-benchmark"
    [change]="$work/change-target/release/dapes-benchmark"
  )
fi

# The end-to-end metrics, in BENCHMARK.json order.
read -r -a metrics <<<"$(sed -n '/"end_to_end"/,/\]/s/.*"name": *"\([^"]*\)".*/\1/p' BENCHMARK.json | tr '\n' ' ')"
((${#metrics[@]})) || { echo "BENCHMARK.json declares no end-to-end metric" >&2; exit 2; }

# Runs one side; prints every metric's value in `metrics` order, then the
# sim_fingerprint.
run() {
  local out
  out=$(cd "${dir[$1]}" && "${bin[$1]}" --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0 "${extra[@]}") \
    || { echo "$1 run failed" >&2; return 1; }
  awk -v names="${metrics[*]}" '
    BEGIN {n = split(names, m, " ")}
    {v[$1] = $2}
    END {for (i = 1; i <= n; i++) printf "%s ", (m[i] in v ? v[m[i]] : "nan"); print v["sim_fingerprint"]}' <<<"$out"
}

moved=0
declare -A vals lower higher
for ((i = 1; i <= pairs; i++)); do
  if ((i % 2)); then order=(parent change); else order=(change parent); fi
  declare -A res=()
  for side in "${order[@]}"; do res[$side]=$(run "$side"); done
  read -r -a p <<<"${res[parent]}"
  read -r -a c <<<"${res[change]}"
  pf=${p[-1]} cf=${c[-1]}
  line=""
  for k in "${!metrics[@]}"; do
    m=${metrics[$k]}
    vals[parent,$m]+="${p[$k]} " vals[change,$m]+="${c[$k]} "
    if awk -v a="${c[$k]}" -v b="${p[$k]}" 'BEGIN {exit !(a < b)}'; then
      lower[$m]=$((${lower[$m]:-0} + 1))
    elif awk -v a="${c[$k]}" -v b="${p[$k]}" 'BEGIN {exit !(a > b)}'; then
      higher[$m]=$((${higher[$m]:-0} + 1))
    fi
    case $m in wall_s | peak_rss_mb) line+="$m ${p[$k]} -> ${c[$k]}  " ;; esac
  done
  printf 'pair %2d (%s first): %ssim_fingerprint %s%s\n' \
    "$i" "${order[0]}" "$line" "$pf" "$([ "$pf" = "$cf" ] || echo " -> $cf MOVED")"
  [ "$pf" = "$cf" ] || moved=1
done

# Quartiles by linear interpolation between order statistics.
quartiles() {
  tr ' ' '\n' <<<"$1" | sed '/^$/d' | sort -g | awk '
    {v[NR] = $1}
    function q(p,  h, l) { h = (NR - 1) * p + 1; l = int(h); return v[l] + (h - l) * (v[l + (l < NR)] - v[l]) }
    END {printf "q1 %.6g  median %.6g  q3 %.6g", q(0.25), q(0.5), q(0.75)}'
}
if ((self_test)); then sides="this checkout on both sides"; else sides="parent ${rev:0:12} -> this checkout"; fi
summary=$(
  echo "$workload seed $seed, $pairs pair(s), $sides"
  for m in "${metrics[@]}"; do
    echo "$m parent: $(quartiles "${vals[parent,$m]}")"
    echo "$m change: $(quartiles "${vals[change,$m]}")"
    echo "$m change lower in ${lower[$m]:-0} of $pairs pair(s), higher in ${higher[$m]:-0}"
  done
)
echo "$summary"
if ((moved)); then
  echo "sim_fingerprint differs between the sides" >&2
  exit 1
fi
if ((self_test)); then
  for m in "${metrics[@]}"; do
    for side in parent change; do
      grep -qE "^$m $side: q1 [^ ]+  median [^ ]+  q3 [^ ]+$" <<<"$summary" \
        || { echo "self-test: no $side quartiles for $m" >&2; exit 1; }
    done
    count=$(grep -E "^$m change lower in [0-9]+ of $pairs pair\(s\), higher in [0-9]+$" <<<"$summary") \
      || { echo "self-test: no pair count for $m" >&2; exit 1; }
    # One binary on one seed repeats its trace: the metrics a trace fixes tie.
    case $m in wall_s | setup_s | peak_rss_mb) ;;
      *) [ "$count" = "$m change lower in 0 of $pairs pair(s), higher in 0" ] \
        || { echo "self-test: $m differs between identical runs: $count" >&2; exit 1; } ;;
    esac
  done
fi
