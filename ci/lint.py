#!/usr/bin/env python3
"""Project lint: mechanical enforcement of repo-wide source contracts.

Gating in ci/check.sh (and registered as the `lint_test` ctest entry via
--self-test). Checks, over the .h, .cc and .inc (textually included
bodies such as nn/matmul_tiles.inc) files of src/ and tests/:

  bare-assert     No bare assert( — use BLAZEIT_CHECK (always-on) or
                  BLAZEIT_DCHECK (hot paths). assert() compiles out under
                  NDEBUG, silently dropping invariants in release builds.
  raw-mutex       No std::mutex / std::shared_mutex / std::condition_variable
                  / std lock RAII types outside util/mutex.h — all locking
                  goes through the annotated util::Mutex wrappers so the
                  thread-safety analysis and runtime lock assertions see it.
  rand            No rand()/srand() — engine randomness must flow through
                  seeded RNGs or outputs stop replaying bit-identically.
  wallclock       No std::chrono::system_clock / time(nullptr) outside the
                  wall-clock allowlist (net/, obs/, serve wall-tick plumbing)
                  — deterministic paths must use the virtual clock or
                  steady_clock for durations.
  locked-requires Every function named *Locked must declare its lock
                  contract (BLAZEIT_REQUIRES / _SHARED / BLAZEIT_RELEASE)
                  on at least one declaration site, or carry an explicit
                  lint tag explaining why not.
  include-guard   Every header uses a BLAZEIT_<PATH>_H_ include guard
                  matching its path (.h only: an .inc is meant to be
                  included more than once).
  flight-record   FlightRecorder::Global().Record( appears only in the
                  engine's RecordFlight helper (src/core/engine.cc), so
                  every entry point records its queries the same way and
                  none can skip the recorder or record a query twice. No
                  escape hatch: route new recording through RecordFlight.

Escape hatches (must be on the offending line, visible to reviewers):
    // lint:allow-bare-assert <reason>
    // lint:allow-raw-mutex <reason>
    // lint:allow-rand <reason>
    // lint:allow-wallclock <reason>
    // lint:allow-unannotated-locked <reason>

Run `python3 ci/lint.py` from the repo root; `--self-test` exercises the
rules against tests/lint_fixtures/.
"""

import argparse
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SOURCE_DIRS = ("src", "tests")
SOURCE_EXTS = (".h", ".cc", ".inc")

# Files allowed to use the raw std primitives: the wrapper itself.
RAW_MUTEX_ALLOWED = {
    "src/util/mutex.h",
    "src/util/thread_annotations.h",
}

# Directory prefixes where wall-clock reads are part of the contract
# (serving latency, HTTP timeouts, flight-recorder timestamps). Query
# execution and storage stay wall-clock-free so outputs replay.
WALLCLOCK_ALLOWED_PREFIXES = (
    "src/net/",
    "src/obs/",
    "tests/",
)

# The one file allowed to write the process-wide flight recorder.
FLIGHT_RECORD_ALLOWED = {"src/core/engine.cc"}

BARE_ASSERT_RE = re.compile(r"(?<![A-Za-z0-9_])assert\s*\(")
RAW_MUTEX_RE = re.compile(
    r"std::(mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"recursive_timed_mutex|shared_timed_mutex|condition_variable|"
    r"condition_variable_any|lock_guard|unique_lock|shared_lock|scoped_lock)\b"
)
RAND_RE = re.compile(r"(?<![A-Za-z0-9_])s?rand\s*\(")
WALLCLOCK_RE = re.compile(r"system_clock|(?<![A-Za-z0-9_])time\s*\(\s*(nullptr|NULL|0)\s*\)")
FLIGHT_RECORD_RE = re.compile(
    r"FlightRecorder\s*::\s*Global\s*\(\s*\)\s*\.\s*Record\s*\(")
# A *Locked function declaration/definition: an identifier ending in
# "Locked" followed by "(", preceded on the same line by something that
# reads like a type token (so call sites — `return FooLocked(...)`,
# `BLAZEIT_RETURN_NOT_OK(FlushLocked())` — don't count).
LOCKED_NAME_RE = re.compile(r"\b([A-Za-z_][A-Za-z0-9_]*Locked)\s*\(")
REQUIRES_RE = re.compile(
    r"BLAZEIT_(REQUIRES|REQUIRES_SHARED|RELEASE|RELEASE_SHARED|"
    r"NO_THREAD_SAFETY_ANALYSIS)\b"
)
# Tokens that may legitimately precede a function name in a declaration.
DECL_PRECEDER_RE = re.compile(
    r"(?:^|\s|[*&])"
    r"(?:[A-Za-z_][A-Za-z0-9_:<>,\s*&]*?)"
    r"(?:\s|[*&])$"
)
NON_DECL_PRECEDERS = re.compile(
    r"(?:\breturn\b|\bco_return\b|[=(,!?:+\-|&]|&&|\|\||\.|->|::)\s*$"
)

COMMENT_RE = re.compile(r"^\s*(//|\*|/\*)")
STRING_STRIP_RE = re.compile(r'"(?:[^"\\]|\\.)*"')


def allow_tag(line, tag):
    return f"lint:allow-{tag}" in line


def strip_noise(line):
    """Removes string literals and trailing // comments for matching."""
    line = STRING_STRIP_RE.sub('""', line)
    cut = line.find("//")
    if cut >= 0:
        line = line[:cut]
    return line


def is_comment(line):
    return bool(COMMENT_RE.match(line))


def guard_name(rel_path):
    stem = rel_path
    if stem.startswith("src/"):
        stem = stem[len("src/"):]
    return "BLAZEIT_" + re.sub(r"[^A-Za-z0-9]", "_", stem).upper() + "_"


class Finding:
    def __init__(self, rel_path, line_no, rule, message):
        self.rel_path = rel_path
        self.line_no = line_no
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.rel_path}:{self.line_no}: [{self.rule}] {self.message}"


def lint_file(rel_path, text):
    findings = []
    lines = text.splitlines()
    in_block_comment = False

    # --- per-line rules ------------------------------------------------
    for i, raw in enumerate(lines, start=1):
        line = raw
        if in_block_comment:
            if "*/" in line:
                line = line.split("*/", 1)[1]
                in_block_comment = False
            else:
                continue
        if "/*" in line and "*/" not in line.split("/*", 1)[1]:
            line = line.split("/*", 1)[0]
            in_block_comment = True
        if is_comment(line):
            continue
        code = strip_noise(line)
        if not code.strip():
            continue

        if BARE_ASSERT_RE.search(code) and "static_assert" not in code:
            if not allow_tag(raw, "bare-assert"):
                findings.append(Finding(
                    rel_path, i, "bare-assert",
                    "bare assert() compiles out under NDEBUG; use "
                    "BLAZEIT_CHECK or BLAZEIT_DCHECK "
                    "(or tag // lint:allow-bare-assert <reason>)"))

        if rel_path.startswith("src/") and rel_path not in RAW_MUTEX_ALLOWED:
            m = RAW_MUTEX_RE.search(code)
            if m and not allow_tag(raw, "raw-mutex"):
                findings.append(Finding(
                    rel_path, i, "raw-mutex",
                    f"raw std::{m.group(1)} bypasses the annotated "
                    "util::Mutex wrappers; use util/mutex.h "
                    "(or tag // lint:allow-raw-mutex <reason>)"))

        if RAND_RE.search(code) and not allow_tag(raw, "rand"):
            findings.append(Finding(
                rel_path, i, "rand",
                "rand()/srand() breaks deterministic replay; use a seeded "
                "RNG (or tag // lint:allow-rand <reason>)"))

        if WALLCLOCK_RE.search(code):
            allowed = any(rel_path.startswith(p)
                          for p in WALLCLOCK_ALLOWED_PREFIXES)
            if not allowed and not allow_tag(raw, "wallclock"):
                findings.append(Finding(
                    rel_path, i, "wallclock",
                    "wall-clock read in a deterministic path; use the "
                    "virtual clock / steady_clock, or tag "
                    "// lint:allow-wallclock <reason>"))

        if (FLIGHT_RECORD_RE.search(code)
                and rel_path not in FLIGHT_RECORD_ALLOWED):
            findings.append(Finding(
                rel_path, i, "flight-record",
                "only RecordFlight (src/core/engine.cc) writes the global "
                "flight recorder; call RecordFlight instead"))

    # --- *Locked annotation rule (aggregated per function name) --------
    findings.extend(lint_locked_contracts(rel_path, lines))

    # --- include guard --------------------------------------------------
    if rel_path.endswith(".h"):
        expect = guard_name(rel_path)
        if f"#ifndef {expect}" not in text or f"#define {expect}" not in text:
            findings.append(Finding(
                rel_path, 1, "include-guard",
                f"header must use include guard {expect}"))

    return findings


def lint_locked_contracts(rel_path, lines):
    """Every *Locked function: >=1 declaration site carries a lock
    annotation. Declaration sites are matched per line; the annotation may
    sit on the following continuation lines (up to the opening brace or
    semicolon)."""
    decl_sites = {}  # name -> [(line_no, annotated)]
    for i, raw in enumerate(lines, start=1):
        if is_comment(raw):
            continue
        code = strip_noise(raw)
        for m in LOCKED_NAME_RE.finditer(code):
            name = m.group(1)
            before = code[:m.start()]
            # A declaration has a type token before the name; a call has
            # an operator, '(' or `return` — or nothing but whitespace
            # (continuation of an expression).
            if not before.strip():
                continue
            if NON_DECL_PRECEDERS.search(before):
                continue
            if not DECL_PRECEDER_RE.search(before):
                continue
            if allow_tag(raw, "unannotated-locked"):
                decl_sites.setdefault(name, []).append((i, True))
                continue
            # Scan this line plus continuations for the annotation.
            annotated = False
            for j in range(i - 1, min(i + 4, len(lines))):
                seg = lines[j]
                if REQUIRES_RE.search(seg) or allow_tag(seg, "unannotated-locked"):
                    annotated = True
                    break
                if seg.rstrip().endswith(";") or "{" in seg:
                    break
            decl_sites.setdefault(name, []).append((i, annotated))

    findings = []
    for name, sites in sorted(decl_sites.items()):
        if not any(annotated for _, annotated in sites):
            line_no = sites[0][0]
            findings.append(Finding(
                rel_path, line_no, "locked-requires",
                f"{name}() claims a lock contract by name but no "
                "declaration carries BLAZEIT_REQUIRES/_SHARED/RELEASE "
                "(or // lint:allow-unannotated-locked <reason>)"))
    return findings


def collect_files(root):
    out = []
    for top in SOURCE_DIRS:
        base = os.path.join(root, top)
        if not os.path.isdir(base):
            continue
        for dirpath, _dirnames, filenames in os.walk(base):
            for fn in sorted(filenames):
                if fn.endswith(SOURCE_EXTS):
                    full = os.path.join(dirpath, fn)
                    rel = os.path.relpath(full, root).replace(os.sep, "/")
                    if rel.startswith("tests/lint_fixtures/"):
                        continue  # intentionally-violating fixtures
                    out.append((rel, full))
    return out


def run_lint(root):
    findings = []
    for rel, full in collect_files(root):
        with open(full, encoding="utf-8") as f:
            text = f.read()
        findings.extend(lint_file(rel, text))
    return findings


# --------------------------------------------------------------------------
# Self-test: run the rules over the fixture files, which carry machine-
# readable expectations (`// lint-expect: <rule>` on the offending line).
# --------------------------------------------------------------------------

EXPECT_RE = re.compile(r"lint-expect:\s*([a-z-]+(?:\s*,\s*[a-z-]+)*)")


def self_test(root):
    fixture_dir = os.path.join(root, "tests", "lint_fixtures")
    if not os.path.isdir(fixture_dir):
        print("lint self-test: tests/lint_fixtures/ missing", file=sys.stderr)
        return 1
    failures = []
    checked = 0
    for fn in sorted(os.listdir(fixture_dir)):
        if not fn.endswith(SOURCE_EXTS):
            continue
        full = os.path.join(fixture_dir, fn)
        # Fixtures are linted as if they lived at the path named by their
        # first line: `// lint-fixture-path: src/foo/bar.h`.
        with open(full, encoding="utf-8") as f:
            text = f.read()
        first = text.splitlines()[0] if text else ""
        m = re.search(r"lint-fixture-path:\s*(\S+)", first)
        rel = m.group(1) if m else f"src/lint_fixtures/{fn}"

        expected = {}  # line_no -> set(rules)
        for i, line in enumerate(text.splitlines(), start=1):
            em = EXPECT_RE.search(line)
            if em:
                rules = {r.strip() for r in em.group(1).split(",")}
                expected[i] = rules

        got = {}
        for finding in lint_file(rel, text):
            got.setdefault(finding.line_no, set()).add(finding.rule)

        # include-guard findings anchor to line 1; treat a file-level
        # `lint-expect-file: include-guard` marker as line 1.
        fm = re.search(r"lint-expect-file:\s*([a-z-]+)", text)
        if fm:
            expected.setdefault(1, set()).add(fm.group(1))

        for line_no, rules in sorted(expected.items()):
            for rule in sorted(rules):
                checked += 1
                if rule == "none":
                    if line_no in got:
                        failures.append(
                            f"{fn}:{line_no}: expected clean, got "
                            f"{sorted(got[line_no])}")
                elif rule not in got.get(line_no, set()):
                    failures.append(
                        f"{fn}:{line_no}: expected [{rule}], got "
                        f"{sorted(got.get(line_no, set())) or 'nothing'}")
        for line_no, rules in sorted(got.items()):
            unexpected = rules - expected.get(line_no, set())
            if unexpected:
                failures.append(
                    f"{fn}:{line_no}: unexpected findings {sorted(unexpected)}")

    if failures:
        print("lint self-test FAILED:", file=sys.stderr)
        for f in failures:
            print("  " + f, file=sys.stderr)
        return 1
    print(f"lint self-test passed ({checked} expectations)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=REPO_ROOT)
    parser.add_argument("--self-test", action="store_true",
                        help="run the rule suite against tests/lint_fixtures/")
    args = parser.parse_args()

    if args.self_test:
        rc = self_test(args.root)
        if rc != 0:
            return rc
        # The fixtures prove the rules fire; the real tree must then be
        # clean for the self-test to pass as a ctest entry.
        findings = run_lint(args.root)
        if findings:
            print(f"lint: {len(findings)} finding(s) in the tree:",
                  file=sys.stderr)
            for f in findings:
                print("  " + str(f), file=sys.stderr)
            return 1
        return 0

    findings = run_lint(args.root)
    if findings:
        print(f"lint: {len(findings)} finding(s):", file=sys.stderr)
        for f in findings:
            print("  " + str(f), file=sys.stderr)
        return 1
    print(f"lint: clean ({len(collect_files(args.root))} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
