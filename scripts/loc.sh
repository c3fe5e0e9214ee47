#!/usr/bin/env bash
# Count lines of Rust per package, in two columns. `non-test`: non-blank
# lines of every `.rs` file outside `tests/` directories, up to the
# file's first `#[cfg(test)]`. `test`: the non-blank lines after that
# `#[cfg(test)]`, plus every non-blank line under a `tests/` directory.
# Code moved from a library into test support therefore shows up as a
# move between the columns, not as a cut. Informational — it prints a
# table and always exits 0 unless a directory is missing.
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
  # "<non-test> <test>" non-blank lines over every `.rs` file under the
  # given paths, summed.
  find "$@" -name '*.rs' -not -path '*/target/*' -print0 |
    sort -z |
    xargs -0 -r awk '
      FNR == 1 { test = FILENAME ~ /(^|\/)tests\// }
      /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1 }
      NF { if (test) t++; else n++ }
      END { print n + 0, t + 0 }' |
    awk '{ n += $1; t += $2 } END { print n + 0, t + 0 }'
}

total=0
total_test=0
row() {
  local name=$1
  shift
  local n t
  read -r n t < <(count "$@")
  total=$((total + n))
  total_test=$((total_test + t))
  printf '%-22s %8d %8d\n' "$name" "$n" "$t"
}

printf '%-22s %8s %8s\n' package non-test test
row asgov src examples tests
for dir in crates/*/; do
  dir=${dir%/}
  row "asgov-${dir#crates/}" "$dir"
done
row benchmark benchmark/src benchmark/tests
printf '%-22s %8d %8d\n' total "$total" "$total_test"
