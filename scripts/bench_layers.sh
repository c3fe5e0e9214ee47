#!/usr/bin/env bash
# Per-layer attribution of the benchmark, written to BENCH_layers.json.
#
#   scripts/bench_layers.sh BASE_REV [RUNS] [SECONDS]
#
# Runs the benchmark binary traced (`--trace 1 --out`) on fleet-exact
# and paper, RUNS times each (default 3, seeds 1..RUNS) with a measured
# phase of SECONDS (default 8), for BASE_REV and for the working tree,
# alternating the two builds run by run. BASE_REV is exported and built
# as scripts/bench_ab.sh does it, in the same $BENCH_AB_DIR (default
# ./.bench_ab), so the two scripts share the export and both builds.
# The traced result files land in $DIR/layers-before and
# $DIR/layers-after, where `workloads compare` can read them.
#
# BENCH_layers.json holds, per side (`before`: BASE_REV, `after`: the
# working tree) and workload, the median over the runs of each row that
# says where a simulated second's time goes: `soc`, `workloads`,
# `governors` and `core.controller` `us_per_sim_s`, `soc.event.run_us`
# and `soc.event.events` (one device-epoch's engine run; fleet workloads
# only), and `trace.timer_ns`, the cost of the clock reads one traced
# span pays, which bounds how fine a layer the trace can resolve.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 3 ]]; then
  echo "usage: $0 BASE_REV [RUNS] [SECONDS]" >&2
  exit 2
fi
base_rev=$1
runs=${2:-3}
seconds=${3:-8}
workloads="fleet-exact paper"
rows="soc.us_per_sim_s workloads.us_per_sim_s governors.us_per_sim_s \
core.controller.us_per_sim_s soc.event.run_us soc.event.events trace.timer_ns"

root=$(git rev-parse --show-toplevel)
dir=${BENCH_AB_DIR:-$root/.bench_ab}
mkdir -p "$dir"
dir=$(cd "$dir" && pwd)
source "$root/scripts/bench_common.sh"

export_rev "$root" "$dir" "$base_rev"
echo "building $base_rev ..." >&2
build_bench "$dir/parent" "$dir/target-a"
echo "building the working tree ..." >&2
build_bench "$root" "$dir/target-b"

rm -rf "$dir/layers-before" "$dir/layers-after"
mkdir -p "$dir/layers-before" "$dir/layers-after"
for w in $workloads; do
  for ((i = 1; i <= runs; i++)); do
    for side in before after; do
      echo "$w run $i/$runs: $side" >&2
      if [[ $side == before ]]; then
        bin=$dir/target-a/release/workloads src=$dir/parent
      else
        bin=$dir/target-b/release/workloads src=$root
      fi
      (cd "$src" && "$bin" --workload "$w" --seed "$i" --seconds "$seconds" \
        --trace 1 --out "$dir/layers-$side" > "$dir/layers-$side/$w-s$i.log")
    done
  done
done

# The median over one side's runs of every row, from the `name value
# unit` lines each run prints; a row a workload does not report is left
# out.
side_json() { # SIDE REV
  printf '    "rev": "%s"' "$2"
  for w in $workloads; do
    printf ',\n    "%s": {' "$w"
    sep=""
    for row in $rows; do
      v=$(cat "$dir/layers-$1/$w"-s*.log | awk -v r="$row" '$1 == r { print $2 }' |
        sort -g | awk '{ v[NR] = $1 } END { if (NR) print (NR % 2 ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2) }')
      [[ -n $v ]] || continue
      printf '%s\n      "%s": %s' "$sep" "$row" "$v"
      sep=","
    done
    printf '\n    }'
  done
}

{
  printf '{\n  "runs": %s,\n  "seconds": %s,\n  "cpus": %s' "$runs" "$seconds" "$(nproc)"
  printf ',\n  "before": {\n'
  side_json before "$(cat "$dir/parent.rev")"
  printf '\n  },\n  "after": {\n'
  side_json after "$(git -C "$root" describe --always --dirty)"
  printf '\n  }\n}\n'
} > "$root/BENCH_layers.json"
echo "wrote BENCH_layers.json" >&2
