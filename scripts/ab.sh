#!/usr/bin/env bash
#
# Interleaved A/B of the host-speed benchmark:
#
#   scripts/ab.sh REV WORKLOAD [PAIRS]
#
# Exports git revision REV into a temporary directory (side A) and runs
#
#   python3 perfbench/run.py --workload WORKLOAD --seed 1 --trace 0
#
# there and in this checkout as it stands, uncommitted edits included
# (side B), PAIRS times each (default 10). The side that goes first
# alternates from pair to pair, so slow drift of the host lands on both
# sides alike. Each side builds its own perfbench tree under its
# .bench_build/ on first use.
#
# Prints every pair's end-to-end metrics (wall_s, cpu_s, setup_s,
# sim_minstr_per_s, peak_rss_mb), each side's median and quartiles, and
# for each metric how many pairs B won (higher sim_minstr_per_s wins,
# lower wins for the rest). Stops at the first run that fails to build or
# fails perfbench's exact-statistics gate: timing a wrong answer shows
# nothing. The exported tree lives under $TMPDIR (default /tmp) and is
# removed on exit.
#
# The export is a plain `git archive`, not a worktree, so an
# interrupted run leaves nothing registered in .git.
#
set -euo pipefail

if [[ $# -lt 2 || $# -gt 3 ]]; then
    echo "usage: $0 REV WORKLOAD [PAIRS]" >&2
    exit 2
fi
REV="$1"
WORKLOAD="$2"
PAIRS="${3:-10}"
if ! [[ "$PAIRS" =~ ^[1-9][0-9]*$ ]]; then
    echo "ab.sh: PAIRS must be a positive integer, got '$PAIRS'" >&2
    exit 2
fi

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
SHA="$(git -C "$ROOT" rev-parse --verify --quiet "$REV^{commit}")" || {
    echo "ab.sh: '$REV' is not a commit" >&2
    exit 2
}

WORK="$(mktemp -d "${TMPDIR:-/tmp}/dsp_ab.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT
mkdir "$WORK/a"
git -C "$ROOT" archive "$SHA" | tar -x -C "$WORK/a"

# run SIDE DIR PAIR: one benchmark run; keeps its result line.
run() {
    local out="$WORK/$1.$3.json"
    if ! (cd "$2" && python3 perfbench/run.py --workload "$WORKLOAD" \
              --seed 1 --trace 0) > "$WORK/$1.$3.log"; then
        echo "ab.sh: side $1 run $3 failed:" >&2
        tail -n 5 "$WORK/$1.$3.log" >&2
        exit 1
    fi
    tail -n 1 "$WORK/$1.$3.log" > "$out"
}

echo "# A = $REV (${SHA:0:12}), B = working tree of $ROOT"
echo "# $WORKLOAD, $PAIRS pairs, $(nproc) host cores"
for ((i = 0; i < PAIRS; i++)); do
    if ((i % 2 == 0)); then
        run a "$WORK/a" "$i"
        run b "$ROOT" "$i"
    else
        run b "$ROOT" "$i"
        run a "$WORK/a" "$i"
    fi
    echo "# pair $((i + 1))/$PAIRS done" >&2
done

python3 - "$WORK" "$PAIRS" <<'EOF'
import json
import statistics
import sys

work, pairs = sys.argv[1], int(sys.argv[2])
# Metric -> True when higher is better.
METRICS = {"wall_s": False, "cpu_s": False, "setup_s": False,
           "sim_minstr_per_s": True, "peak_rss_mb": False}


def load(side, i):
    with open("%s/%s.%d.json" % (work, side, i)) as f:
        m = json.load(f)["metrics"]
    return {k: m[k]["value"] for k in METRICS}


a = [load("a", i) for i in range(pairs)]
b = [load("b", i) for i in range(pairs)]

print("%-5s" % "pair" + "".join("  %-19s" % k for k in METRICS))
print("%-5s" % "" + "  %9s %9s" % ("A", "B") * len(METRICS))
for i in range(pairs):
    print("%-5d" % (i + 1) + "".join(
        "  %9.4f %9.4f" % (a[i][k], b[i][k]) for k in METRICS))


def summary(rows, k):
    xs = [r[k] for r in rows]
    if len(xs) < 2:
        return "%.4f" % xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return "%.4f [%.4f, %.4f]" % (med, q1, q3)


print()
print("%-17s %-30s %-30s %s" % ("metric", "A median [q1, q3]",
                                "B median [q1, q3]", "B wins"))
for k, higher in METRICS.items():
    wins = sum(1 for i in range(pairs)
               if (b[i][k] > a[i][k] if higher else b[i][k] < a[i][k]))
    print("%-17s %-30s %-30s %d/%d" % (k, summary(a, k), summary(b, k),
                                      wins, pairs))
EOF
