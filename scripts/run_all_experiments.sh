#!/usr/bin/env bash
# Regenerate every table and figure of the paper (plus the ablation,
# scope, related-work and trace studies) into ./results/.
# Full-fidelity runs take a few minutes; pass --quick to smoke-test.
set -euo pipefail
cd "$(dirname "$0")/.."
QUICK="${1:-}"
mkdir -p results
for bin in table1 table2 table3 table4 table5 fig1 fig2 fig3 fig4 fig5 \
           ablations scope related_work traces chaos; do
  echo "=== $bin ==="
  # The chaos study also writes the per-cycle CHAOS_trace.jsonl artifact
  # and the supervised cold-vs-warm restart kill matrix.
  EXTRA=""
  [ "$bin" = "chaos" ] && EXTRA="--trace --kill-matrix"
  if [ "$QUICK" = "--quick" ]; then
    cargo run --release -p asgov-experiments --bin "$bin" -- --quick $EXTRA \
      > "results/$bin.txt" 2>&1 || true
  else
    cargo run --release -p asgov-experiments --bin "$bin" -- $EXTRA \
      > "results/$bin.txt" 2>&1
  fi
done
# The fleet study scales with device count rather than a --quick flag:
# smoke (10^3 devices) for the quick pass, the full 10^5-device bench
# otherwise. Both write ./BENCH_fleet.json (per-tier rows accumulate
# under its "tiers" key).
echo "=== fleet ==="
# Extract a tier's device_epochs_per_sec from BENCH_fleet.json: the
# file's keys are sorted, so the first device_epochs_per_sec after the
# tier key is that tier's row.
smoke_dps() {
  awk '/"smoke": \{/{f=1} f && /"device_epochs_per_sec":/{gsub(/[",]/,"",$2); print $2; exit}' \
    BENCH_fleet.json 2>/dev/null || true
}
if [ "$QUICK" = "--quick" ]; then
  # Committed baseline, captured before the run overwrites the file.
  BASELINE_DPS="$(smoke_dps)"
  cargo run --release -p asgov-experiments --bin fleet -- --smoke \
    > "results/fleet.txt" 2>&1
  # Perf regression gate: the 10^3 smoke tier's device-epochs/sec must
  # stay within 30% of the committed baseline throughput.
  NEW_DPS="$(smoke_dps)"
  if [ -n "$BASELINE_DPS" ] && [ -n "$NEW_DPS" ]; then
    awk -v b="$BASELINE_DPS" -v n="$NEW_DPS" \
      'BEGIN { printf "fleet smoke gate: %.0f device-epochs/sec vs committed %.0f (floor 70%%)\n", n, b; exit !(n >= 0.7 * b) }' \
      || { echo "FAIL: fleet smoke device-epochs/sec regressed more than 30% vs the committed baseline" >&2; exit 1; }
  else
    echo "fleet smoke gate: no committed smoke baseline; gate skipped"
  fi
else
  cargo run --release -p asgov-experiments --bin fleet -- --bench \
    > "results/fleet.txt" 2>&1
fi
echo "=== bench ==="
if [ "$QUICK" = "--quick" ]; then
  cargo run --release -p asgov-bench -- --quick \
    > "results/bench.txt" 2>&1 || true
else
  cargo run --release -p asgov-bench \
    > "results/bench.txt" 2>&1
fi
echo "all experiment outputs are in ./results/ (bench JSON at ./BENCH_*.json, fault matrix at ./CHAOS_faultmatrix.json)"
