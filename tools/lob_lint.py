#!/usr/bin/env python3
"""lob_lint: project-contract static analysis for the lobstore tree.

The repo carries two determinism- and conservation-critical contracts that
generic tooling cannot check:

  * byte-identical bench output for any --jobs (the parallel experiment
    engine), and
  * I/O conservation (per-operation attribution: every metered call is
    charged to exactly one label).

This linter rejects, at review time, the code patterns that historically
break them. Rules (stable IDs, see RULES below):

  LOB001 wallclock        No wall-clock / ambient-entropy / pointer-identity
                          output outside the src/exec bench-profile layer.
                          std::chrono, time(), clock(), rand(), srand(),
                          std::random_device and %p / streamed void* all leak
                          host state into output that must be a pure function
                          of the modeled clock and the seeded lob::Rng.
  LOB002 unordered-iter   No iteration over std::unordered_{map,set} -- hash
                          order is implementation- and run-dependent, so any
                          walk that reaches CSV/JSON/timeline/trace output
                          (or any I/O sequence) is a nondeterminism leak.
                          Exporter-scoped files (src/trace, src/obs, tools,
                          src/common/csv.h) may not even declare unordered
                          containers.
  LOB004 attribution      Direct SimDisk ReadRun/WriteRun call sites in src/
                          are restricted to an allowlist of mediator files
                          whose callers hold a labeled OpScope
                          (buffer_pool.cc) or are explicitly outside the
                          metered path (disk_image.cc persistence). Any new
                          direct call site would bypass per-operation
                          attribution and break the conservation invariant
                          sum(attributed) == global.
  LOB005 header-hygiene   Headers carry an include guard (#ifndef/#define or
                          #pragma once) and never `using namespace` at file
                          scope.
  LOB006 ignore-status    LOB_IGNORE_STATUS(...) must carry a justification
                          comment on the same or the preceding line; Status
                          is [[nodiscard]] precisely so silent drops are
                          impossible.
  LOB007 extent-guard     Engine/core code must not call DatabaseArea
                          Allocate directly: a raw allocation followed by a
                          fallible step leaks the extent on the error path
                          (the exact bug class the fault-injection campaign
                          hunts). Acquire extents through ScopedExtent --
                          rollback on error, Commit() after the durable
                          install. Allocator internals (src/buddy) and code
                          outside the engines are exempt.
  LOB008 raw-sync         No std synchronization primitives (std::mutex
                          family, lock_guard/unique_lock/scoped_lock,
                          condition_variable, call_once) anywhere in src,
                          bench or tools. Threads share only atomics (the
                          runner's index counter, the campaign progress
                          count): confine state to one thread instead of
                          locking it.

Suppressions
------------
  // LOBLINT(rule): reason        -- same line or the immediately preceding
                                     comment-only line; reason is mandatory.
  // LOBLINT-FILE(rule): reason   -- anywhere in the first 40 lines; whole
                                     file.

Fixtures under tests/lint_fixtures/ self-test every rule; they may pin a
pretend path with a first-line `// LOBLINT-FIXTURE-PATH: src/...` marker so
path-scoped rules fire deterministically.

Usage:
  tools/lob_lint.py [--root DIR]            # lint the production tree
  tools/lob_lint.py --self-test [--root DIR]
  tools/lob_lint.py --list-rules
  tools/lob_lint.py FILE...                 # lint specific files
"""

import argparse
import os
import re
import sys

RULES = {
    "wallclock": "LOB001",
    "unordered-iter": "LOB002",
    "attribution": "LOB004",
    "header-hygiene": "LOB005",
    "ignore-status": "LOB006",
    "extent-guard": "LOB007",
    "raw-sync": "LOB008",
}

# ----------------------------------------------------------------- scoping

# Files that legitimately consult the host clock: the bench-profile layer
# measures the simulator's own wall-clock cost by design.
WALLCLOCK_ALLOW_PREFIXES = ("src/exec/",)

# The determinism rule guards library + bench + tool output paths. Tests and
# examples may do what they like with the host environment.
WALLCLOCK_SCOPE_PREFIXES = ("src/", "bench/", "tools/")

UNORDERED_SCOPE_PREFIXES = ("src/", "bench/", "tools/")

# Exporter scope: code whose whole job is producing ordered text output.
EXPORTER_PREFIXES = ("src/trace/", "src/obs/", "tools/")
EXPORTER_FILES = (
    "src/common/csv.h",
    "src/common/json.h",
    "src/common/json.cc",
    "src/core/metrics_snapshot.h",
    "src/core/metrics_snapshot.cc",
)

# Direct SimDisk ReadRun/WriteRun mediators. buffer_pool.cc is charged
# through the OpScope its manager callers hold; disk_image.cc is the
# persistence path (save/load walks outside the measured workload);
# sim_disk.cc is the device.
ATTRIBUTION_ALLOW = (
    "src/iomodel/sim_disk.cc",
    "src/iomodel/sim_disk.h",
    "src/iomodel/disk_image.cc",
    "src/buffer/buffer_pool.cc",
)
ATTRIBUTION_SCOPE_PREFIXES = ("src/",)

# Extent-guard scope: the engines and the core layer, where every allocated
# extent must survive an error on any later step. The buddy allocator itself
# (including ScopedExtent) is the mediator and exempt.
EXTENT_GUARD_SCOPE_PREFIXES = (
    "src/esm/", "src/starburst/", "src/eos/", "src/lobtree/", "src/core/")

# Raw-sync scope: the library, bench and tool trees hold no lock at all,
# with no exempt directory.
RAW_SYNC_SCOPE_PREFIXES = ("src/", "bench/", "tools/")

SCAN_DIRS = ("src", "bench", "tools", "examples", "tests")
SCAN_EXTS = (".h", ".cc", ".cpp")
EXCLUDE_PARTS = ("lint_fixtures",)

FIXTURE_PATH_RE = re.compile(r"LOBLINT-FIXTURE-PATH:\s*(\S+)")
SUPPRESS_RE = re.compile(r"LOBLINT\(([\w-]+)\)\s*:\s*(\S.*)")
SUPPRESS_FILE_RE = re.compile(r"LOBLINT-FILE\(([\w-]+)\)\s*:\s*(\S.*)")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return "%s:%d: %s[%s]: %s" % (
            self.path, self.line, RULES[self.rule], self.rule, self.message)


# ------------------------------------------------------- comment stripping

def split_lines(text):
    """Returns (code_lines, comment_lines, string_lines).

    code_lines[i]  : line i with comments and string/char literals blanked.
    comment_lines[i]: concatenated comment text on line i.
    string_lines[i]: concatenated string-literal contents on line i.
    Block comments and (crudely) raw strings are tracked across lines.
    """
    code, comments, strings = [], [], []
    in_block = False
    in_raw = False
    for line in text.split("\n"):
        code_chars = []
        comment_chars = []
        string_chars = []
        i = 0
        n = len(line)
        in_str = False
        in_chr = False
        while i < n:
            c = line[i]
            nxt = line[i + 1] if i + 1 < n else ""
            if in_raw:
                if c == ")" and line[i:].startswith(')"'):
                    in_raw = False
                    code_chars.append("  ")
                    i += 2
                    continue
                string_chars.append(c)
                code_chars.append(" ")
                i += 1
                continue
            if in_block:
                if c == "*" and nxt == "/":
                    in_block = False
                    code_chars.append("  ")
                    i += 2
                    continue
                comment_chars.append(c)
                code_chars.append(" ")
                i += 1
                continue
            if in_str:
                if c == "\\":
                    string_chars.append(line[i:i + 2])
                    code_chars.append("  ")
                    i += 2
                    continue
                if c == '"':
                    in_str = False
                    code_chars.append('"')
                    i += 1
                    continue
                string_chars.append(c)
                code_chars.append(" ")
                i += 1
                continue
            if in_chr:
                if c == "\\":
                    code_chars.append("  ")
                    i += 2
                    continue
                if c == "'":
                    in_chr = False
                    code_chars.append("'")
                    i += 1
                    continue
                code_chars.append(" ")
                i += 1
                continue
            if c == "/" and nxt == "/":
                comment_chars.append(line[i + 2:])
                code_chars.append(" " * (n - i))
                break
            if c == "/" and nxt == "*":
                in_block = True
                code_chars.append("  ")
                i += 2
                continue
            if c == "R" and line[i:i + 3] == 'R"(':
                in_raw = True
                code_chars.append("   ")
                i += 3
                continue
            if c == '"':
                in_str = True
                code_chars.append('"')
                i += 1
                continue
            if c == "'":
                # Digit separators ("1'000") are not char literals.
                prev = line[i - 1] if i > 0 else ""
                if prev.isdigit() and nxt.isdigit():
                    code_chars.append(c)
                    i += 1
                    continue
                in_chr = True
                code_chars.append("'")
                i += 1
                continue
            code_chars.append(c)
            i += 1
        # Unterminated ordinary string/char at EOL: clamp (not legal C++).
        in_str = False
        in_chr = False
        code.append("".join(code_chars))
        comments.append("".join(comment_chars))
        strings.append("".join(string_chars))
    return code, comments, strings


# ------------------------------------------------------------- rule checks

WALLCLOCK_TOKENS = [
    (re.compile(r"\bstd\s*::\s*chrono\b"), "std::chrono"),
    (re.compile(r"\bsteady_clock\b"), "steady_clock"),
    (re.compile(r"\bsystem_clock\b"), "system_clock"),
    (re.compile(r"\bhigh_resolution_clock\b"), "high_resolution_clock"),
    (re.compile(r"\btime\s*\(\s*(?:nullptr|NULL|0|&)"), "time()"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday()"),
    (re.compile(r"\bclock_gettime\s*\("), "clock_gettime()"),
    (re.compile(r"\bclock\s*\(\s*\)"), "clock()"),
    (re.compile(r"\brand\s*\(\s*\)"), "rand()"),
    (re.compile(r"\bsrand\s*\("), "srand()"),
    (re.compile(r"\bstd\s*::\s*random_device\b"), "std::random_device"),
    (re.compile(r"\brandom_device\b"), "random_device"),
    (re.compile(r"<<\s*(?:static_cast<\s*(?:const\s+)?void\s*\*\s*>|"
                r"\(\s*(?:const\s+)?void\s*\*\s*\))"),
     "streamed pointer value"),
]
POINTER_FMT_RE = re.compile(r"%p\b")


def check_wallclock(path, code, strings, findings):
    in_scope = path.startswith(WALLCLOCK_SCOPE_PREFIXES)
    if not in_scope or path.startswith(WALLCLOCK_ALLOW_PREFIXES):
        return
    for idx, line in enumerate(code, start=1):
        for rx, what in WALLCLOCK_TOKENS:
            if rx.search(line):
                findings.append(Finding(
                    path, idx, "wallclock",
                    "%s leaks host state into a modeled-clock path; use the "
                    "simulated clock (SimDisk::stats().ms) or lob::Rng, or "
                    "move the code into src/exec/" % what))
    for idx, lit in enumerate(strings, start=1):
        if POINTER_FMT_RE.search(lit):
            findings.append(Finding(
                path, idx, "wallclock",
                "%p formats a pointer value; addresses differ run to run "
                "(ASLR) so output is nondeterministic"))


UNORDERED_DECL_RE = re.compile(
    r"\bstd\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<")
# `std::unordered_map<K, V> name` / `... name_;` / `... name = ...`
UNORDERED_NAMED_RE = re.compile(
    r"\bstd\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<[^;{}]*?>\s*"
    r"(\w+)\s*(?:;|=|\{)")
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;)]*:\s*&?\s*([\w.>\-]+)\s*\)")


def unordered_names(text_by_line):
    names = set()
    joined = "\n".join(text_by_line)
    for m in UNORDERED_NAMED_RE.finditer(joined):
        names.add(m.group(1))
    return names


def check_unordered(path, code, findings, extra_decl_names=()):
    if not path.startswith(UNORDERED_SCOPE_PREFIXES):
        return
    exporter = path.startswith(EXPORTER_PREFIXES) or path in EXPORTER_FILES
    if exporter:
        for idx, line in enumerate(code, start=1):
            if UNORDERED_DECL_RE.search(line):
                findings.append(Finding(
                    path, idx, "unordered-iter",
                    "unordered container declared in exporter-scoped code; "
                    "exporters must use std::map / std::set / sorted vectors "
                    "so output order is deterministic"))
    names = unordered_names(code)
    names.update(extra_decl_names)
    if not names:
        return
    for idx, line in enumerate(code, start=1):
        m = RANGE_FOR_RE.search(line)
        if not m:
            continue
        target = m.group(1).split("->")[-1].split(".")[-1]
        if target in names:
            findings.append(Finding(
                path, idx, "unordered-iter",
                "range-for over unordered container '%s'; hash order is "
                "run-dependent -- iterate a sorted copy or switch to an "
                "ordered container" % target))


DISK_IO_RE = re.compile(
    r"\bdisk\w*\s*(?:\(\s*\))?\s*(?:\.|->)\s*(?:Read|Write)(?:Run)?\s*\(")


def check_attribution(path, code, findings):
    if not path.startswith(ATTRIBUTION_SCOPE_PREFIXES):
        return
    if path in ATTRIBUTION_ALLOW:
        return
    for idx, line in enumerate(code, start=1):
        if DISK_IO_RE.search(line):
            findings.append(Finding(
                path, idx, "attribution",
                "direct SimDisk ReadRun/WriteRun outside the mediator "
                "allowlist; "
                "route I/O through BufferPool (charged under the caller's "
                "OpScope) so per-operation attribution stays conserved"))


GUARD_IFNDEF_RE = re.compile(r"^\s*#\s*ifndef\s+(\w+)")
PRAGMA_ONCE_RE = re.compile(r"^\s*#\s*pragma\s+once\b")
USING_NAMESPACE_RE = re.compile(r"^\s*using\s+namespace\s+\w")


def check_header_hygiene(path, code, findings):
    if not path.endswith(".h"):
        return
    has_guard = False
    guard_name = None
    for idx, line in enumerate(code, start=1):
        if PRAGMA_ONCE_RE.match(line):
            has_guard = True
        m = GUARD_IFNDEF_RE.match(line)
        if m and not has_guard and guard_name is None:
            guard_name = m.group(1)
            # The matching #define must follow within a few lines.
            for follow in code[idx:idx + 3]:
                if re.match(r"^\s*#\s*define\s+%s\b" % re.escape(guard_name),
                            follow):
                    has_guard = True
                    break
        if USING_NAMESPACE_RE.match(line):
            findings.append(Finding(
                path, idx, "header-hygiene",
                "`using namespace` in a header leaks into every includer"))
    if not has_guard:
        findings.append(Finding(
            path, 1, "header-hygiene",
            "header lacks an include guard (#ifndef/#define pair or "
            "#pragma once)"))


RAW_ALLOCATE_RE = re.compile(r"(?:->|\.)\s*Allocate\s*\(")


def check_extent_guard(path, code, findings):
    if not path.startswith(EXTENT_GUARD_SCOPE_PREFIXES):
        return
    for idx, line in enumerate(code, start=1):
        if not RAW_ALLOCATE_RE.search(line):
            continue
        if "ScopedExtent" in line:
            continue  # the guarded form
        findings.append(Finding(
            path, idx, "extent-guard",
            "raw DatabaseArea Allocate in engine/core code; a fault on any "
            "later step leaks the extent -- acquire it through "
            "ScopedExtent::Allocate and Commit() after the durable install"))


IGNORE_STATUS_RE = re.compile(r"\bLOB_IGNORE_STATUS\s*\(")


def check_ignore_status(path, code, comments, findings):
    for idx, line in enumerate(code, start=1):
        if not IGNORE_STATUS_RE.search(line):
            continue
        if line.lstrip().startswith("#"):
            continue  # the macro definition itself
        here = comments[idx - 1].strip()
        above = comments[idx - 2].strip() if idx >= 2 else ""
        if not here and not above:
            findings.append(Finding(
                path, idx, "ignore-status",
                "LOB_IGNORE_STATUS without a justification comment; say why "
                "losing this error is sound (same or preceding line)"))


RAW_SYNC_RE = re.compile(
    r"\bstd\s*::\s*(mutex|recursive_mutex|recursive_timed_mutex|timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|condition_variable|condition_variable_any|call_once|"
    r"once_flag)\b")


def check_raw_sync(path, code, findings):
    if not path.startswith(RAW_SYNC_SCOPE_PREFIXES):
        return
    for idx, line in enumerate(code, start=1):
        m = RAW_SYNC_RE.search(line)
        if m:
            findings.append(Finding(
                path, idx, "raw-sync",
                "std::%s: threads share only atomics; confine this state "
                "to one thread (or make it a std::atomic) instead of "
                "locking it" % m.group(1)))


# --------------------------------------------------------------- the driver

def lint_text(path, text):
    code, comments, strings = split_lines(text)

    # Fixture path override (self-test only; harmless elsewhere).
    m = FIXTURE_PATH_RE.search(comments[0] if comments else "")
    effective = m.group(1) if m else path

    findings = []
    check_wallclock(effective, code, strings, findings)

    # When linting a .cc, fold in unordered members declared in its header so
    # `for (auto& kv : index_)` in the .cc is caught.
    extra = ()
    if path.endswith(".cc"):
        header = os.path.splitext(path)[0] + ".h"
        if os.path.isfile(header):
            with open(header, encoding="utf-8", errors="replace") as f:
                hcode, _, _ = split_lines(f.read())
            extra = unordered_names(hcode)
    check_unordered(effective, code, findings, extra_decl_names=extra)
    check_attribution(effective, code, findings)
    check_header_hygiene(effective, code, findings)
    check_ignore_status(effective, code, comments, findings)
    check_extent_guard(effective, code, findings)
    check_raw_sync(effective, code, findings)

    # Apply suppressions.
    file_suppressed = set()
    for c in comments[:40]:
        for sm in SUPPRESS_FILE_RE.finditer(c):
            if sm.group(1) in RULES:
                file_suppressed.add(sm.group(1))
    line_suppressed = {}
    comment_only = set()
    for idx, c in enumerate(comments, start=1):
        for sm in SUPPRESS_RE.finditer(c):
            if sm.group(1) in RULES:
                line_suppressed.setdefault(idx, set()).add(sm.group(1))
        if c.strip() and not code[idx - 1].strip():
            comment_only.add(idx)

    kept = []
    for f in findings:
        if f.rule in file_suppressed:
            continue
        if f.rule in line_suppressed.get(f.line, set()):
            continue
        # Walk the contiguous comment-only block immediately above the
        # finding: a suppression anywhere in it covers the line below.
        above = f.line - 1
        covered = False
        while above in comment_only:
            if f.rule in line_suppressed.get(above, set()):
                covered = True
                break
            above -= 1
        if covered:
            continue
        kept.append(f)
    return kept


def lint_file(root, rel):
    full = os.path.join(root, rel)
    with open(full, encoding="utf-8", errors="replace") as f:
        text = f.read()
    old = os.getcwd()
    os.chdir(root)
    try:
        return lint_text(rel.replace(os.sep, "/"), text)
    finally:
        os.chdir(old)


def production_files(root):
    out = []
    for d in SCAN_DIRS:
        base = os.path.join(root, d)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(
                x for x in dirnames if x not in EXCLUDE_PARTS)
            for name in sorted(filenames):
                if name.endswith(SCAN_EXTS):
                    rel = os.path.relpath(os.path.join(dirpath, name), root)
                    out.append(rel.replace(os.sep, "/"))
    return out


def run_self_test(root):
    fixture_dir = os.path.join(root, "tests", "lint_fixtures")
    if not os.path.isdir(fixture_dir):
        print("self-test: no fixture directory at %s" % fixture_dir)
        return 1
    failures = 0
    cases = 0
    for name in sorted(os.listdir(fixture_dir)):
        full = os.path.join(fixture_dir, name)
        if not name.endswith(SCAN_EXTS) or not os.path.isfile(full):
            continue
        m = re.match(r"(bad|good)_([a-z-]+?)(?:_\d+)?\.(?:h|cc|cpp)$", name)
        if not m:
            print("self-test: unrecognized fixture name %s "
                  "(want bad_<rule>[_N].cc / good_<rule>[_N].cc)" % name)
            failures += 1
            continue
        kind, rule = m.group(1), m.group(2)
        if rule not in RULES:
            print("self-test: fixture %s names unknown rule '%s'"
                  % (name, rule))
            failures += 1
            continue
        cases += 1
        with open(full, encoding="utf-8", errors="replace") as f:
            findings = lint_text(full, f.read())
        rules_hit = {f.rule for f in findings}
        if kind == "bad":
            if rule not in rules_hit:
                print("self-test FAIL: %s did not trigger %s[%s] "
                      "(triggered: %s)"
                      % (name, RULES[rule], rule, sorted(rules_hit) or "none"))
                failures += 1
        else:
            if findings:
                print("self-test FAIL: %s expected clean, got:" % name)
                for f in findings:
                    print("  %s" % f)
                failures += 1
    if failures:
        print("self-test: %d/%d fixture case(s) failed" % (failures, cases))
        return 1
    print("self-test: %d fixture case(s) passed" % cases)
    return 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", default=None,
                    help="repo root (default: parent of this script)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the fixture self-test instead of linting")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("files", nargs="*",
                    help="specific files to lint (default: whole tree)")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule, rid in sorted(RULES.items(), key=lambda kv: kv[1]):
            print("%s  %s" % (rid, rule))
        return 0

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    root = os.path.abspath(root)

    if args.self_test:
        return run_self_test(root)

    if args.files:
        rels = [os.path.relpath(os.path.abspath(f), root) for f in args.files]
    else:
        rels = production_files(root)

    all_findings = []
    for rel in rels:
        all_findings.extend(lint_file(root, rel))
    for f in all_findings:
        print(f)
    if all_findings:
        print("lob_lint: %d finding(s) in %d file(s) scanned"
              % (len(all_findings), len(rels)))
        return 1
    print("lob_lint: clean (%d files scanned)" % len(rels))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
