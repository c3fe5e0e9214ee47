#!/usr/bin/env bash
# A/B the repository's benchmark: a parent revision against the working
# tree, in alternating seed-matched pairs.
#
#   scripts/bench_ab.sh PARENT_REV [WORKLOAD] [PAIRS] [SECONDS]
#
# WORKLOAD defaults to fleet-coarse, PAIRS to 10, SECONDS (the measured
# phase of each run) to 20. The script exports PARENT_REV with
# `git archive` (offline; the export registers nothing in .git), builds
# the benchmark binary for it and for the working tree, then runs pair
# i = 1..PAIRS on seed i: the parent first on odd pairs, the working
# tree first on even ones, so slow drift of the machine's speed hits
# both sides alike. Results land in $DIR/a (parent) and $DIR/b (working
# tree), and the script ends by printing `workloads compare a b`: per
# metric, medians, quartiles, spread, pair wins and the verdict against
# BENCHMARK.json's bounds.
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

# Export the parent revision, unless the export there is already of
# this commit (a fresh export would rebuild the parent from scratch).
parent_commit=$(git -C "$root" rev-parse --verify "$parent_rev^{commit}")
if [[ "$(cat "$dir/parent.rev" 2>/dev/null)" != "$parent_commit" ]]; then
  rm -rf "$dir/parent" "$dir/parent.rev"
  mkdir -p "$dir/parent"
  git -C "$root" archive "$parent_commit" | tar -x -C "$dir/parent"
  echo "$parent_commit" > "$dir/parent.rev"
fi

build() { # SOURCE_ROOT TARGET_DIR
  CARGO_TARGET_DIR=$2 cargo build --release --offline --quiet \
    --manifest-path "$1/benchmark/Cargo.toml" --bin workloads
}
echo "building $parent_rev ..." >&2
build "$dir/parent" "$dir/target-a"
echo "building the working tree ..." >&2
build "$root" "$dir/target-b"

rm -rf "$dir/a" "$dir/b"
mkdir -p "$dir/a" "$dir/b"
run() { # SIDE SEED
  local bin=$dir/target-$1/release/workloads
  # Each side runs from its own source root, as `cargo run` would.
  local src=$root
  [[ $1 == a ]] && src=$dir/parent
  (cd "$src" && "$bin" --workload "$workload" --seed "$2" \
    --seconds "$seconds" --out "$dir/$1" > "$dir/$1/run-s$2.log")
}
for ((i = 1; i <= pairs; i++)); do
  if ((i % 2 == 1)); then order="a b"; else order="b a"; fi
  for side in $order; do
    echo "pair $i/$pairs: $side" >&2
    run "$side" "$i"
  done
done

cd "$root"
"$dir/target-b/release/workloads" compare "$dir/a" "$dir/b"
