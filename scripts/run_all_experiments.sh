#!/usr/bin/env bash
# Regenerate every table and figure of the paper (plus the ablation,
# scope, related-work and trace studies, and the examples' outputs)
# into ./results/. Every experiment runs the paper's protocol.
# Pass --smoke to run the fleet at its 10^3-device smoke tier and the
# benchmarks at their reduced sample budget; without it the fleet runs
# its 10^5-device bench tier and the benchmarks their full budget, which
# take a few minutes.
set -euo pipefail
cd "$(dirname "$0")/.."
SMOKE="${1:-}"
mkdir -p results
for bin in table1 table2 table3 table4 table5 fig1 fig2 fig3 fig4 fig5 \
           ablations scope related_work traces chaos; do
  echo "=== $bin ==="
  # The chaos study also writes the per-cycle CHAOS_trace.jsonl artifact
  # and the supervised cold-vs-warm restart kill matrix.
  EXTRA=""
  [ "$bin" = "chaos" ] && EXTRA="--trace --kill-matrix"
  cargo run --release -p asgov-experiments --bin "$bin" -- $EXTRA \
    > "results/$bin.txt" 2>&1
done
# The examples run in well under a second each; their stdout is pinned
# like the experiments' outputs.
mkdir -p results/examples
for example in examples/*.rs; do
  name="$(basename "$example" .rs)"
  echo "=== example $name ==="
  cargo run --release -q --example "$name" > "results/examples/$name.txt"
done
# The fleet study scales with device count: smoke (10^3 devices) under
# --smoke, the full 10^5-device bench otherwise. Both write
# ./BENCH_fleet.json (per-tier rows accumulate under its "tiers" key).
echo "=== fleet ==="
# The smoke tier's device_epochs_per_ref from a BENCH_fleet.json on
# stdin: throughput in device-epochs per run of a fixed CPU kernel the
# fleet binary times beside the run, so it does not move with the
# runner's speed. The file's keys are sorted, so the first
# device_epochs_per_ref after the tier key is that tier's row.
smoke_ratio() {
  # Reads to the end (no early `exit`): a writer piping into it must
  # not die of SIGPIPE under `pipefail`.
  awk '/"smoke": \{/{f=1} f && !done && /"device_epochs_per_ref":/{gsub(/[",]/,"",$2); print $2; done=1}'
}
if [ "$SMOKE" = "--smoke" ]; then
  # The committed baseline: from git when the tree is a checkout (an
  # earlier fleet run may have rewritten the file), else the file as
  # it stands before this run overwrites it.
  BASELINE="$( (git show HEAD:BENCH_fleet.json 2>/dev/null || cat BENCH_fleet.json 2>/dev/null) | smoke_ratio)"
  # Perf regression gate: the median of three smoke runs' device-epochs
  # per reference must stay within 30% of the committed baseline. A
  # warm-up run goes first and is not counted: a cold first run can
  # read well below the warm ones. results/fleet.txt and
  # BENCH_fleet.json keep the median run's output, so the committed
  # baseline the next change is judged against is the figure this gate
  # judged.
  RATIOS=""
  RUNS="$(mktemp -d)"
  for run in warm-up 1 2 3; do
    cargo run --release -p asgov-experiments --bin fleet -- --smoke \
      > "results/fleet.txt" 2>&1
    if [ "$run" != warm-up ]; then
      RATIOS="$RATIOS $(smoke_ratio < BENCH_fleet.json)"
      cp BENCH_fleet.json "$RUNS/$run.json"
      cp results/fleet.txt "$RUNS/$run.txt"
    fi
  done
  # "<ratio> <run>" of the median run; empty unless all three runs
  # filed a smoke row.
  MEDIAN="$(for run in 1 2 3; do printf '%s %s\n' "$(smoke_ratio < "$RUNS/$run.json")" "$run"; done |
    sort -g | awk 'NF == 2 { v[++n] = $0 } END { if (n == 3) print v[2] }')"
  NEW="${MEDIAN% *}"
  if [ -n "$MEDIAN" ]; then
    cp "$RUNS/${MEDIAN#* }.json" BENCH_fleet.json
    cp "$RUNS/${MEDIAN#* }.txt" results/fleet.txt
  fi
  rm -rf "$RUNS"
  if [ -n "$BASELINE" ] && [ -n "$NEW" ]; then
    awk -v b="$BASELINE" -v n="$NEW" -v runs="$(printf ' %.1f' $RATIOS)" \
      'BEGIN { printf "fleet smoke gate: median %.1f device-epochs per reference (runs:%s) vs committed %.1f (floor 70%%)\n", n, runs, b; exit !(n >= 0.7 * b) }' \
      || { echo "FAIL: fleet smoke median device-epochs per reference regressed more than 30% vs the committed baseline" >&2; exit 1; }
  else
    echo "fleet smoke gate: no committed smoke baseline; gate skipped"
  fi
else
  cargo run --release -p asgov-experiments --bin fleet -- --bench \
    > "results/fleet.txt" 2>&1
fi
echo "=== bench ==="
if [ "$SMOKE" = "--smoke" ]; then
  # `|| true`: at this budget the controller suite's 5 % trace-overhead
  # assert can fail on a loaded runner; every report is written before
  # it judges.
  cargo run --release -p asgov-bench -- --quick \
    > "results/bench.txt" 2>&1 || true
else
  cargo run --release -p asgov-bench \
    > "results/bench.txt" 2>&1
fi
echo "all experiment outputs are in ./results/ (bench JSON at ./BENCH_*.json, fault matrix at ./CHAOS_faultmatrix.json)"
