# Shared by scripts/bench_ab.sh and scripts/bench_layers.sh (sourced,
# not run): export a parent revision and build the benchmark binary.

# export_rev ROOT DIR REV: export REV of the repository at ROOT into
# DIR/parent with `git archive` (offline; the export registers nothing
# in .git), unless the export there is already of that commit (a fresh
# export would rebuild the parent from scratch).
export_rev() {
  local commit
  commit=$(git -C "$1" rev-parse --verify "$3^{commit}")
  if [[ "$(cat "$2/parent.rev" 2>/dev/null)" != "$commit" ]]; then
    rm -rf "$2/parent" "$2/parent.rev"
    mkdir -p "$2/parent"
    git -C "$1" archive "$commit" | tar -x -C "$2/parent"
    echo "$commit" > "$2/parent.rev"
  fi
}

# build_bench SOURCE_ROOT TARGET_DIR: build the benchmark binary of the
# tree at SOURCE_ROOT into TARGET_DIR (it lands in TARGET_DIR/release).
build_bench() {
  CARGO_TARGET_DIR=$2 cargo build --release --offline --quiet \
    --manifest-path "$1/benchmark/Cargo.toml" --bin workloads
}
