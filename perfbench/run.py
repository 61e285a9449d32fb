#!/usr/bin/env python3
"""End-to-end benchmark of the BlazeIt engine.

Run from the repository root:

    python3 perfbench/run.py --workload warm_mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload served_open --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --steady 10 --seconds 20            # all workloads
    python3 perfbench/run.py --steady 5 --workload cold_ingest --seconds 20

A run builds the benchmark binary (perfbench/e2e_bench.cc, linked against the
repository's library through perfbench/CMakeLists.txt) under
.bench_build/perfbench, builds the warm store with that same binary when no
store with the current fingerprint exists, then runs one workload in a
fresh process. The store is keyed by a fingerprint of the stream configs,
day lengths, NN config, templates and kDerivedArtifactEpoch; its build
time is printed on stderr and is not part of any metric. Each run works on
a private copy of the store, so no run sees another run's writes.

With --trace 0 the last stdout line holds the end-to-end metrics of the
workload; with --trace 1 it holds the per-layer metrics of the traced run,
whose Chrome trace is written to .bench_build/perfbench/traces/. The
binary checks every answer (see e2e_bench.cc) and exits 1 on a mismatch.

--steady N runs each selected workload N times with seeds 1..N (or from
--first-seed) and prints, per end-to-end metric, the median and the
distance between the first and third quartile as a share of the median.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "e2e_bench")
WORKLOADS = ["cold_ingest", "warm_mix", "served_open"]
RUN_TIMEOUT_S = 170
# Compilers and the benchmark binary keep their temporary files inside the checkout.
ENV = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise RuntimeError(f"no repository sources at {ROOT}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=ENV)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, stdout=sys.stderr, env=ENV)


def warm_store():
    """Returns the warm store for this binary, building it if missing."""
    fp = subprocess.run([BINARY, "fingerprint"], check=True, env=ENV,
                        capture_output=True, text=True).stdout.strip()
    store = os.path.join(BUILD, "stores", fp)
    if os.path.isfile(os.path.join(store, "READY")):
        return store
    tmp = f"{store}.tmp-{os.getpid()}"
    start = time.monotonic()
    subprocess.run([BINARY, "build-store", "--store", tmp], check=True,
                   stdout=sys.stderr, env=ENV)
    open(os.path.join(tmp, "READY"), "w").close()
    shutil.rmtree(store, ignore_errors=True)
    os.replace(tmp, store)
    log(f"built warm store {fp} in {time.monotonic() - start:.1f} s "
        "(not gated)")
    return store


def run_once(store, workload, seed, seconds, trace, echo=True):
    """Runs one workload in a fresh process; returns (code, result)."""
    run_dir = os.path.join(BUILD, "runs", f"{os.getpid()}-{workload}-{seed}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        private = os.path.join(run_dir, "store")
        shutil.copytree(store, private)
        cmd = [BINARY, "run", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--store", private, "--work", os.path.join(run_dir, "work")]
        if trace:
            traces = os.path.join(BUILD, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-out",
                    os.path.join(traces, f"{workload}-seed{seed}.json")]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S, env=ENV)
        except subprocess.TimeoutExpired:
            log(f"{workload} seed {seed}: timed out after {RUN_TIMEOUT_S} s")
            return 1, None
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        log(f"{workload} seed {seed}: no result line (exit {proc.returncode})")
        return proc.returncode or 1, None
    return proc.returncode, result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def steady(store, workloads, runs, first_seed, seconds):
    bad = False
    for workload in workloads:
        per_metric = {}
        units = {}
        for seed in range(first_seed, first_seed + runs):
            code, result = run_once(store, workload, seed, seconds, 0,
                                    echo=False)
            if code != 0 or result is None or not result["correct"] \
                    or result["failed"]:
                log(f"{workload} seed {seed}: exit {code}, result {result}")
                bad = True
                continue
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            log(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()))
        print(f"== {workload}: {runs} runs, seeds {first_seed}.."
              f"{first_seed + runs - 1}, {seconds} s each")
        print(f"   {'metric':<24} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/median':>10}  unit")
        for name, values in per_metric.items():
            if len(values) < 2:
                continue
            med, q1, q3, rel = spread(values)
            print(f"   {name:<24} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{rel:>10.4f}  {units[name]}")
        sys.stdout.flush()
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default=None, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--steady", type=int, default=0,
                    help="run each workload this many times (seeds "
                         "first-seed..) and print per-metric spread")
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    if not args.steady and args.workload is None:
        ap.error("--workload is required")
    try:
        build()
        store = warm_store()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"set-up failed: {e}")
        return 2
    if args.steady:
        workloads = [args.workload] if args.workload else WORKLOADS
        return steady(store, workloads, args.steady, args.first_seed,
                      args.seconds)
    code, result = run_once(store, args.workload, args.seed, args.seconds,
                            args.trace)
    if result is None:
        return code or 1
    if not result["correct"]:
        log("output check failed")
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
