#!/usr/bin/env bash
# Runs the google-benchmark micro-benchmarks and writes a JSON report, the
# recorded baseline the ROADMAP asks for before any hot-path optimization.
#
#   bench/run_benchmarks.sh [--threads N] [build-dir] [output.json]
#   bench/run_benchmarks.sh compare [--threads N] [build-dir] [output.json] \
#       [baseline.json]
#   bench/run_benchmarks.sh ab [--threads N] <base-build> <change-build> \
#       [filter] [rounds]
#
# --threads N pins BLAZEIT_THREADS for the run, sizing the exec pool every
# pool-aware bench inherits by default (the BM_*Threads benches sweep
# their own explicit 1/2/4/8 axis regardless). Unset, the pool sizes
# itself to the machine.
#
# Defaults: build dir `build`, output `bench/BENCH_baseline.json` — i.e.
# running it with no arguments refreshes the committed baseline.
#
# `compare` mode writes the fresh run to output.json (default
# `bench/BENCH_current.json`, gitignored — pass an explicit path like
# `bench/BENCH_pr3.json` to record a PR snapshot) and then diffs it
# against the committed baseline
# (default `bench/BENCH_baseline.json`), printing per-bench deltas and
# speedups via bench/compare_benchmarks.py. The diff is a report, not a
# gate; ci/check.sh runs it non-gating so the perf trajectory is visible
# on every CI run.
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
if [[ "${1:-}" == "compare" || "${1:-}" == "ab" ]]; then
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
if [[ "${MODE}" == "compare" ]]; then
  OUT="${2:-bench/BENCH_current.json}"
  BASELINE="${3:-bench/BENCH_baseline.json}"
else
  OUT="${2:-bench/BENCH_baseline.json}"
fi
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

if [[ "${MODE}" == "compare" ]]; then
  if [[ ! -f "${BASELINE}" ]]; then
    echo "warning: baseline ${BASELINE} not found; skipping diff" >&2
    exit 0
  fi
  # BLAZEIT_BENCH_FAIL_PCT turns the diff into a gate: exit 1 when any
  # shared bench regresses more than that percentage (ci/check.sh sets it
  # but treats the failure as non-gating; see compare_benchmarks.py).
  COMPARE_ARGS=()
  if [[ -n "${BLAZEIT_BENCH_FAIL_PCT:-}" ]]; then
    COMPARE_ARGS+=(--fail-on-regression "${BLAZEIT_BENCH_FAIL_PCT}")
  fi
  python3 bench/compare_benchmarks.py \
    ${COMPARE_ARGS[@]+"${COMPARE_ARGS[@]}"} "${BASELINE}" "${OUT}"
fi
