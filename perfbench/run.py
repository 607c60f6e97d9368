#!/usr/bin/env python3
"""Host-speed benchmark of the destination-set prediction simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ and the `dsp` library
it links under .bench_build/perfbench (a no-op when up to date), runs
the workload's fixed-size batch run repeatedly for about S seconds,
checks every run's simulated statistics, and prints a table followed
by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (medians over the runs);
--trace 1 makes the traced run and reports the per-layer metrics.
Exit status: 0 when correct, 1 when the correctness gate failed (the
result is still printed), 2 when the benchmark could not build or run
(nothing is printed on stdout).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("mc16-oltp", "snoop64-barnes-k2", "trace-fig5-apache")

# A run is --seconds of reps plus, traced, ~15 s of cross-check and
# replay; a perfbench_dsp still running after this is stopped.
RUN_TIMEOUT_S = 170

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "sim_minstr_per_s": "Minstr/s",
    "peak_rss_mb": "MB",
}

# The per-layer metrics every workload's traced run has; these make up
# the result line. The rest of the traced run's layer metrics (core,
# interconnect, sim, system, analysis, trace) exist only on some
# workloads and are printed in the table and saved in report.json.
COMMON_LAYERS = (
    "workload.ns_per_ref",
    "workload.refs_per_miss",
    "workload.share",
    "mem.ns_per_access",
    "mem.l0_hit_rate",
    "mem.misses_per_kaccess",
    "mem.touched_words_per_access",
    "mem.share",
    "coherence.ns_per_txn",
    "coherence.c2c_pct",
    "coherence.share",
    "tracing.overhead_s",
)


def run_seconds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["run_seconds"]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (once) and build perfbench_dsp; returns its path."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "3",
                  "--target", "perfbench_dsp"])
    # Compiler and LTO temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=log,
                              env=env).returncode:
                log.flush()
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail("build failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, "perfbench_dsp")


def run_program(binary, args):
    out = os.path.join(OUT_DIR, "%s-seed%d-trace%d" %
                       (args.workload, args.seed, args.trace))
    os.makedirs(out, exist_ok=True)
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", out]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(command))
    if proc.returncode != 0:
        fail("exit status %d: %s" % (proc.returncode, " ".join(command)))
    try:
        report = json.loads(proc.stdout)
    except ValueError:
        fail("unreadable report from: " + " ".join(command))
    report["out_dir"] = out
    return report


def sanity(workload, stats):
    """Invariants that hold on every seed; returns the broken ones."""
    broken = []

    def need(ok, what):
        if not ok:
            broken.append(what)

    if workload.startswith("trace-"):
        need(stats["readBackIdentical"], "trace read back differs")
        measured = stats["records"] - stats["warmupRecords"]
        for label, row in stats.items():
            if isinstance(row, dict):
                need(row["misses"] == measured, label + " row misses")
        need(stats["snooping"]["indirectionPct"] == 0,
             "snooping indirections")
        need(stats["directory"]["retriesPerMiss"] == 0,
             "directory retries")
    else:
        need(stats["misses"] > 0, "no misses")
        need(stats["doubleRetries"] <= stats["retries"], "doubleRetries")
        need(stats["indirections"] <= stats["misses"], "indirections")
        need(stats["cacheToCache"] <= stats["misses"], "cacheToCache")
        need(stats["l0Hits"] <= stats["cacheAccesses"], "l0Hits")
    return broken


def gate(workload, seed, stat_sets, checks, reference_path):
    """The correctness gate: every run's statistics must equal the
    stored reference for this seed (or, for a seed without one, the
    run's first rep) and keep the invariants; every cross-check of the
    traced run must hold. Returns (attempted, failed, problems)."""
    with open(reference_path) as f:
        reference = json.load(f).get(workload, {}).get(str(seed))
    expect = reference if reference is not None else stat_sets[0]
    failed = 0
    problems = []
    for i, stats in enumerate(stat_sets):
        wrong = sorted(k for k in set(expect) | set(stats)
                       if expect.get(k) != stats.get(k))
        wrong += sanity(workload, stats)
        if wrong:
            failed += 1
            problems.append("run %d: %s" % (i, ", ".join(wrong)))
    for name, ok in checks.items():
        if not ok:
            failed += 1
            problems.append("cross-check failed: " + name)
    return len(stat_sets) + len(checks), failed, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=run_seconds(),
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    report = run_program(binary, args)

    reps = report["reps"]
    stat_sets = [r["stats"] for r in reps]
    for extra in ("traced_rep", "cross_rep"):
        if extra in report:
            stat_sets.append(report[extra]["stats"])
    attempted, failed, problems = gate(args.workload, args.seed, stat_sets,
                                       report.get("checks", {}),
                                       REFERENCE)
    for problem in problems:
        print("perfbench: correctness: " + problem, file=sys.stderr)

    if args.trace:
        layers = report["layers"]
        metrics = {name: layers[name] for name in COMMON_LAYERS}
        shown = layers
    else:
        metrics = {}
        for name, unit in END_TO_END.items():
            value = (report[name] if name == "peak_rss_mb" else
                     statistics.median(r[name] for r in reps))
            metrics[name] = {"value": value, "unit": unit}
        shown = metrics
    with open(os.path.join(report["out_dir"], "report.json"), "w") as f:
        json.dump(report, f, indent=1)

    print("# %s seed %d, %d runs, %s" % (
        args.workload, args.seed, len(stat_sets),
        "traced" if args.trace else "median of %d reps" % len(reps)))
    for name, m in shown.items():
        print("%-40s %16.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.stdout.flush()
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
