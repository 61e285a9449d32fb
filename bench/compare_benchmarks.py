#!/usr/bin/env python3
"""Diffs two google-benchmark JSON reports and prints per-bench deltas.

Usage: compare_benchmarks.py BASELINE.json NEW.json
       compare_benchmarks.py --ab BASE_DIR CHANGE_DIR

Compares the `_mean` aggregate of every benchmark (falling back to the raw
entry when a report was produced without repetitions) and prints baseline
time, new time, delta, and speedup. The table covers the *union* of
benchmark names: a bench present in only one report shows up with a `new`
or `missing` marker in the delta column instead of being dropped or
printed as nan, so renames and additions are visible inline.

The exit code is 0 — a report, not a gate: two reports taken at
different times differ by ±25% on a shared VM with no code change, so
judge a change with --ab.

With --ab, both arguments are directories of per-round reports of the
same benches (as `bench/run_benchmarks.sh ab` writes them). For every
bench it prints each side's median with its min-max over the rounds and
the change/base ratio of the medians; the verdict is "unresolved" when
the two ranges overlap, since no ordering of the rounds then separates
the sides, and "faster" or "slower" otherwise.
"""
import argparse
import json
import os
import statistics
import sys


def to_ns(value, unit):
    return value * {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(unit, 1.0)


def load_means(path):
    """Returns {run_name: real_time_ns}, normalizing each entry's unit."""
    with open(path) as f:
        report = json.load(f)
    means = {}
    raw = {}
    for bench in report.get("benchmarks", []):
        name = bench.get("name", "")
        ns = to_ns(bench.get("real_time", 0.0), bench.get("time_unit", "ns"))
        if bench.get("aggregate_name") == "mean" and name.endswith("_mean"):
            means[bench["run_name"]] = ns
        elif "aggregate_name" not in bench:
            raw[name] = ns
    # Prefer aggregate means; fall back to raw single-run entries.
    for name, value in raw.items():
        means.setdefault(name, value)
    return means


def load_rounds(directory):
    """Returns {run_name: [real_time_ns per round]} over DIR/*.json."""
    rounds = {}
    for fn in sorted(os.listdir(directory)):
        if fn.endswith(".json"):
            for name, ns in load_means(os.path.join(directory, fn)).items():
                rounds.setdefault(name, []).append(ns)
    return rounds


def compare_ab(base_dir, change_dir):
    base = load_rounds(base_dir)
    change = load_rounds(change_dir)
    names = [n for n in base if n in change]
    if not names:
        print("no bench present on both sides")
        return 1
    width = max(len(n) for n in names)
    print(f"{'benchmark':<{width}}  {'base median [min-max]':>34}  "
          f"{'change median [min-max]':>34}  {'ratio':>6}  verdict")
    for name in names:
        b, c = base[name], change[name]
        bm, cm = statistics.median(b), statistics.median(c)
        if max(c) < min(b):
            verdict = "faster"
        elif min(c) > max(b):
            verdict = "slower"
        else:
            verdict = "unresolved"
        print(f"{name:<{width}}  {fmt_range(bm, b)}  {fmt_range(cm, c)}  "
              f"{cm / bm:6.3f}  {verdict}  (n={len(b)}/{len(c)})")
    return 0


def fmt_range(median, values):
    return (f"{fmt_time(median).strip():>12} "
            f"[{fmt_time(min(values)).strip()}-"
            f"{fmt_time(max(values)).strip()}]").rjust(34)


def fmt_time(ns):
    if ns is None:
        return f"{'-':>13}"
    if ns >= 1e6:
        return f"{ns / 1e6:10.2f} ms"
    if ns >= 1e3:
        return f"{ns / 1e3:10.2f} us"
    return f"{ns:10.0f} ns"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--ab",
        action="store_true",
        help="BASELINE and NEW are directories of per-round reports",
    )
    parser.add_argument("baseline")
    parser.add_argument("new")
    args = parser.parse_args()
    if args.ab:
        return compare_ab(args.baseline, args.new)

    base = load_means(args.baseline)
    new = load_means(args.new)
    # Union, baseline order first, then additions in new-report order.
    names = list(base) + [n for n in new if n not in base]
    if not names:
        print("no benchmarks in either report")
        return 0
    width = max(len(n) for n in names)
    print(f"{'benchmark':<{width}}  {'baseline':>13}  {'new':>13}  "
          f"{'delta':>8}  {'speedup':>7}")
    for name in names:
        b = base.get(name)
        n = new.get(name)
        if b is None:
            delta, speedup = f"{'new':>8}", f"{'-':>7}"
        elif n is None:
            delta, speedup = f"{'missing':>8}", f"{'-':>7}"
        else:
            pct = (n - b) / b * 100.0 if b else 0.0
            delta = f"{pct:+7.1f}%"
            speedup = f"{b / n:6.2f}x" if n else f"{'inf':>7}"
        print(f"{name:<{width}}  {fmt_time(b)}  {fmt_time(n)}  "
              f"{delta}  {speedup}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
