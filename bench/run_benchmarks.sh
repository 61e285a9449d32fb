#!/usr/bin/env bash
# Runs the google-benchmark micro-benchmarks and writes a JSON report, or
# A/B-compares two builds' micro-benchmarks in one run.
#
#   bench/run_benchmarks.sh [--threads N] [build-dir] [output.json]
#   bench/run_benchmarks.sh ab [--threads N] <base-build> <change-build> \
#       [filter] [rounds]
#
# --threads N pins BLAZEIT_THREADS for the run, sizing the exec pool every
# pool-aware bench inherits by default (the BM_*Threads benches and
# BM_SpecializedNNTrain sweep their own explicit thread axis regardless).
# Unset, the pool sizes itself to the machine.
#
# Defaults: build dir `build`, output `bench/BENCH_baseline.json`.
# bench/compare_benchmarks.py BEFORE.json AFTER.json diffs two reports,
# but only reports taken back to back mean anything: this kind of VM
# drifts by ±25% between runs, so judge a change with `ab` mode.
#
# `ab` mode is the same-run A/B for judging a change: it runs the
# bench_micro_components binaries of two builds (say, the parent commit's
# and the change's) alternately, `rounds` times each (default and minimum
# 5; the order flips every round so machine drift hits both sides
# alike), restricted to the google-benchmark `filter` regex (default: all).
# BLAZEIT_THREADS is pinned (to 1 unless --threads says otherwise) so the
# pool size cannot differ between the sides. compare_benchmarks.py --ab
# then prints each bench's two medians with each side's min-max and marks
# a delta "unresolved" when the two ranges overlap. The per-round reports
# stay in a temp dir named on stdout.
#
# The paper-figure harnesses (bench_fig*, bench_table*) print their tables
# to stdout and are not part of the JSON report; run them directly.
set -euo pipefail

cd "$(dirname "$0")/.."

MODE="run"
if [[ "${1:-}" == "ab" ]]; then
  MODE="$1"
  shift
fi

if [[ "${1:-}" == "--threads" ]]; then
  export BLAZEIT_THREADS="${2:?--threads needs a value}"
  shift 2
fi

if [[ "${MODE}" == "ab" ]]; then
  BASE_BIN="${1:?ab needs <base-build> <change-build>}/bench/bench_micro_components"
  CHANGE_BIN="${2:?ab needs <base-build> <change-build>}/bench/bench_micro_components"
  FILTER="${3:-.}"
  ROUNDS="${4:-5}"
  if (( ROUNDS < 5 )); then
    echo "error: ab needs at least 5 rounds (got ${ROUNDS})" >&2
    exit 1
  fi
  for bin in "${BASE_BIN}" "${CHANGE_BIN}"; do
    [[ -x "${bin}" ]] || { echo "error: ${bin} not built" >&2; exit 1; }
  done
  export BLAZEIT_THREADS="${BLAZEIT_THREADS:-1}"
  AB_DIR="$(mktemp -d "${TMPDIR:-/tmp}/blazeit-ab.XXXXXX")"
  mkdir -p "${AB_DIR}/base" "${AB_DIR}/change"
  for (( round = 1; round <= ROUNDS; ++round )); do
    sides=(base change)
    (( round % 2 == 0 )) && sides=(change base)
    for side in "${sides[@]}"; do
      bin="${BASE_BIN}"
      [[ "${side}" == "change" ]] && bin="${CHANGE_BIN}"
      "${bin}" --benchmark_filter="${FILTER}" --benchmark_format=json \
        --benchmark_min_time=0.5 > "${AB_DIR}/${side}/round${round}.json"
    done
    echo "round ${round}/${ROUNDS} done (BLAZEIT_THREADS=${BLAZEIT_THREADS})"
  done
  echo "per-round reports: ${AB_DIR}"
  exec python3 bench/compare_benchmarks.py --ab "${AB_DIR}/base" \
    "${AB_DIR}/change"
fi

BUILD_DIR="${1:-build}"
OUT="${2:-bench/BENCH_baseline.json}"
BIN="${BUILD_DIR}/bench/bench_micro_components"

if [[ ! -x "${BIN}" ]]; then
  echo "error: ${BIN} not built (needs google-benchmark; configure + build first)" >&2
  exit 1
fi

# benchmark_min_time trades precision for runtime; 0.5s/benchmark keeps the
# whole sweep under a minute while stabilizing the fast timers.
"${BIN}" \
  --benchmark_format=json \
  --benchmark_min_time=0.5 \
  --benchmark_repetitions=3 \
  --benchmark_report_aggregates_only=true \
  > "${OUT}"

echo "wrote ${OUT}"
