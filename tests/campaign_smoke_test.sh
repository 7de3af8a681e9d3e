#!/usr/bin/env bash
# Fault-injection campaign smoke and --progress check. Runs the strided
# demo campaign twice, without and with --progress, and requires:
#   - exit 0 from both (a leak or corrupt cell exits 1);
#   - identical stdout (the meter writes only to stderr);
#   - on stderr of the --progress run, "campaign: k/N cells" lines with
#     one N, where each k in 1..N appears exactly once (the workers share
#     one atomic count, so lines may come out of order), and N equal to
#     the cell count of the summary line. The plain run prints none;
#   - a "[lob:warn]" line that names its source as src/..., not by the
#     absolute path of the checkout (the build maps the source directory
#     away), so two checkouts of one commit print the same stderr.
# Usage: campaign_smoke_test.sh <lob_campaign binary> <source directory>
set -euo pipefail

CAMPAIGN="$1"
SOURCE_DIR="$2"

fail() {
  echo "FAIL: $1" >&2
  exit 1
}

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

"$CAMPAIGN" --demo --jobs=4 --stride=3 \
  > "$tmpdir/plain.csv" 2> "$tmpdir/plain.err" \
  || fail "campaign without --progress exited $?"
"$CAMPAIGN" --demo --jobs=4 --stride=3 --progress \
  > "$tmpdir/progress.csv" 2> "$tmpdir/progress.err" \
  || fail "campaign with --progress exited $?"
cmp "$tmpdir/plain.csv" "$tmpdir/progress.csv" \
  || fail "--progress changed stdout"

python3 - "$tmpdir/plain.err" "$tmpdir/progress.err" "$SOURCE_DIR" <<'PYEOF'
import os, re, sys

PROGRESS = re.compile(r"campaign: (\d+)/(\d+) cells")
SUMMARY = re.compile(r"campaign: (\d+) cells \|")

def lines(path):
    with open(path) as f:
        return f.read().splitlines()

plain = [l for l in lines(sys.argv[1]) if PROGRESS.fullmatch(l)]
assert not plain, "progress lines without --progress: %r" % plain[:3]

err = lines(sys.argv[2])
counts = [PROGRESS.fullmatch(l) for l in err]
counts = [(int(m.group(1)), int(m.group(2))) for m in counts if m]
assert counts, "no 'campaign: k/N cells' line with --progress"
totals = {n for _, n in counts}
assert len(totals) == 1, "more than one N: %s" % sorted(totals)
n = totals.pop()
ks = sorted(k for k, _ in counts)
assert ks == list(range(1, n + 1)), (
    "counts are not 1..%d exactly once: %d lines, first %s"
    % (n, len(ks), ks[:10]))
summary = [SUMMARY.match(l) for l in err]
cells = [int(m.group(1)) for m in summary if m]
assert cells == [n], "summary cell count %s, progress N %d" % (cells, n)
print("progress: %d cells, each count printed once" % n)

source_dirs = {sys.argv[3].rstrip("/"), os.path.realpath(sys.argv[3])}
warns = [l for l in lines(sys.argv[1]) if l.startswith("[lob:warn] ")]
assert warns, "no [lob:warn] line on stderr"
for w in warns:
    assert w.startswith("[lob:warn] src/"), "warn line names no src/: " + w
    for d in source_dirs:
        assert d not in w, "warn line names the source dir: " + w
print("warn lines: %d, each naming src/ relative to the checkout"
      % len(warns))
PYEOF

echo "PASS: campaign smoke clean, --progress counts exact, warn paths relative"
