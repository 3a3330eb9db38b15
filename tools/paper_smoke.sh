#!/bin/sh
# Pins the paper benches' smoke output.  Runs the nine paper-figure benches
# (table 1, figs 5-9 and the three ablations) at smoke size from a build
# directory and diffs each one's stdout, plus BENCH_fig7.json, against the
# expected files in tests/data/paper_smoke/.  The smoke output is
# deterministic (Release and Debug print the same bytes), so any diff means
# a paper number moved.
#
#   tools/paper_smoke.sh build            # check; nonzero exit on any diff
#   tools/paper_smoke.sh build --regen    # re-record after an intended change
#
# BENCH_fig7.json's "hardware_threads" line depends on the machine and is
# left out of the comparison.
set -eu

build=$(cd "$1" && pwd)
mode=${2:-check}
expected=$(cd "$(dirname "$0")/.." && pwd)/tests/data/paper_smoke
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

status=0
for bench in bench_table1_running_example bench_fig5_false_negatives \
    bench_fig6_false_positives bench_fig7_latency_bound \
    bench_fig8_variable_window bench_fig9_bin_size \
    bench_ablation_exact_amount bench_ablation_f_value \
    bench_ablation_shedders; do
  if ! (cd "$out" && ESPICE_BENCH_SMOKE=1 "$build/$bench" > "$bench.txt"); then
    echo "paper_smoke: $bench exited nonzero" >&2
    status=1
  fi
done
grep -v '"hardware_threads"' "$out/BENCH_fig7.json" > "$out/fig7.json"
mv "$out/fig7.json" "$out/BENCH_fig7.json"

if [ "$mode" = "--regen" ]; then
  mkdir -p "$expected"
  cp "$out"/*.txt "$out/BENCH_fig7.json" "$expected/"
  echo "paper_smoke: re-recorded $expected"
  exit $status
fi
for file in "$expected"/*; do
  if ! diff -u "$file" "$out/$(basename "$file")"; then
    echo "paper_smoke: $(basename "$file") differs from the recorded output" >&2
    status=1
  fi
done
exit $status
