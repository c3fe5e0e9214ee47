#!/usr/bin/env bash
# A/B the repository's benchmark: a parent revision against the working
# tree, in alternating seed-matched pairs, each with a parent-against-
# parent control run.
#
#   scripts/bench_ab.sh PARENT_REV [WORKLOAD] [PAIRS] [SECONDS]
#
# WORKLOAD defaults to fleet-coarse, PAIRS to 10, SECONDS (the measured
# phase of each run) to 20. The script exports PARENT_REV with
# `git archive` (offline; the export registers nothing in .git), builds
# the benchmark binary for it and for the working tree, then runs pair
# i = 1..PAIRS on seed i as three runs: the parent (a), the working
# tree (b) and the parent again (c), in the order a b c on odd pairs
# and c b a on even ones, so slow drift of the machine's speed hits
# every side alike. Results land in $DIR/a, $DIR/b and $DIR/c. The
# script ends by printing `workloads compare a b` (per metric: medians,
# quartiles, spread, pair wins and the verdict against BENCHMARK.json's
# bounds), each line followed by the control's median shift, wins and
# verdict from `workloads compare a c`. The control compares a build
# with itself, so any shift it shows is the machine's drift over the
# session; a change whose shift is no larger than its control's did not
# show.
#
# DIR is $BENCH_AB_DIR, default ./.bench_ab (gitignored). The export
# and both build directories are reused across invocations (the export
# only while PARENT_REV names the same commit); the result directories
# are emptied first.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 4 ]]; then
  echo "usage: $0 PARENT_REV [WORKLOAD] [PAIRS] [SECONDS]" >&2
  exit 2
fi
parent_rev=$1
workload=${2:-fleet-coarse}
pairs=${3:-10}
seconds=${4:-20}

root=$(git rev-parse --show-toplevel)
dir=${BENCH_AB_DIR:-$root/.bench_ab}
mkdir -p "$dir"
dir=$(cd "$dir" && pwd)

source "$root/scripts/bench_common.sh"
export_rev "$root" "$dir" "$parent_rev"
echo "building $parent_rev ..." >&2
build_bench "$dir/parent" "$dir/target-a"
echo "building the working tree ..." >&2
build_bench "$root" "$dir/target-b"

rm -rf "$dir/a" "$dir/b" "$dir/c"
mkdir -p "$dir/a" "$dir/b" "$dir/c"
run() { # SIDE SEED
  # The control side (c) runs the parent's binary from the parent's
  # source root; each side runs from its own root, as `cargo run` would.
  local build=$1 src=$root
  [[ $1 == b ]] || { build=a; src=$dir/parent; }
  (cd "$src" && "$dir/target-$build/release/workloads" --workload "$workload" \
    --seed "$2" --seconds "$seconds" --out "$dir/$1" > "$dir/$1/run-s$2.log")
}
for ((i = 1; i <= pairs; i++)); do
  if ((i % 2 == 1)); then order="a b c"; else order="c b a"; fi
  for side in $order; do
    echo "pair $i/$pairs: $side" >&2
    run "$side" "$i"
  done
done

cd "$root"
bin=$dir/target-b/release/workloads
"$bin" compare "$dir/a" "$dir/c" > "$dir/control.txt"
# Each metric line of the A/B report, followed by the control's median
# shift (its B median over its A median, less one), wins and verdict.
# Report lines are `name A-median [q1, q3] spread B-median [q1, q3]
# spread wins verdict...`, so fields 2 and 6 are the medians.
"$bin" compare "$dir/a" "$dir/b" | awk -v control="$dir/control.txt" '
  function shift(a, b) { return (a + 0 == 0) ? "-" : sprintf("%+.1f%%", 100 * (b / a - 1)) }
  BEGIN {
    while ((getline line < control) > 0) {
      n = split(line, f, " ")
      if (line ~ /^== /) { section = f[2]; continue }
      if (n < 11 || f[1] == "metric") continue
      verdict = f[11]; for (k = 12; k <= n; k++) verdict = verdict " " f[k]
      ctl[section SUBSEP f[1]] = sprintf("control %s %s %s", shift(f[2], f[6]), f[10], verdict)
    }
  }
  /^== / { section = $2; print; next }
  $1 == "metric" { print $0 "  | control: shift, wins, verdict"; next }
  NF >= 11 && (section SUBSEP $1) in ctl { print $0 "  | " ctl[section SUBSEP $1]; next }
  { print }'
