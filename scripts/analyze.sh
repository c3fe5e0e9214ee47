#!/usr/bin/env bash
# Run the repo's own static analyzer (asgov-analyze): invariant lints
# over every crate plus the exhaustive interleaving checker for the
# parallel harness. Blocking — a non-empty finding list or an
# interleaving violation exits non-zero. Writes ANALYZE_report.json at
# the workspace root.
#
# Usage: scripts/analyze.sh [--quick] [--skip-interleavings] [--baseline]
#   --quick               smaller interleaving configurations (CI smoke)
#   --skip-interleavings  lints only
#   --baseline            additionally diff the finding list and the
#                         inventory (files scanned, codec pairs) against
#                         the committed ANALYZE_baseline.json; a finding
#                         not in the baseline, or any inventory change,
#                         fails the run, and the diff lands in
#                         ANALYZE_report.json.diff. (Line numbers are
#                         excluded from the comparison, so findings that
#                         merely moved do not trip it.) Regenerate the
#                         baseline after adding or removing files:
#                         cargo run --release -p asgov-analyze -- --workspace
#                           --skip-interleavings --report ANALYZE_baseline.json
set -euo pipefail
cd "$(dirname "$0")/.."
args=()
for a in "$@"; do
  case "$a" in
    --baseline) args+=(--baseline ANALYZE_baseline.json) ;;
    *) args+=("$a") ;;
  esac
done
cargo run --release -p asgov-analyze -- --workspace ${args[@]+"${args[@]}"}
