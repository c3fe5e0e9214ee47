#!/usr/bin/env bash
# Count non-test lines of Rust per package: non-blank lines of every
# `.rs` file outside `tests/` directories, up to the file's first
# `#[cfg(test)]`. Informational — it prints a table and always exits 0
# unless a directory is missing.
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
  # Non-blank lines before the first `#[cfg(test)]` of each file, summed.
  find "$@" -name '*.rs' -not -path '*/tests/*' -not -path '*/target/*' -print0 |
    sort -z |
    xargs -0 -r awk '
      FNR == 1 { live = 1 }
      /^[[:space:]]*#\[cfg\(test\)\]/ { live = 0 }
      live && NF { n++ }
      END { print n + 0 }' |
    awk '{ s += $1 } END { print s + 0 }'
}

total=0
row() {
  local name=$1
  shift
  local n
  n=$(count "$@")
  total=$((total + n))
  printf '%-22s %7d\n' "$name" "$n"
}

row asgov src examples
for dir in crates/*/; do
  dir=${dir%/}
  row "asgov-${dir#crates/}" "$dir"
done
row benchmark benchmark/src
printf '%-22s %7d\n' total "$total"
