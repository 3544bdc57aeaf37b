#!/usr/bin/env python3
"""Runs one workload of the end-to-end DSU benchmark and prints its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/ (and the library sources it links) into .bench_build/. The last
line of standard output is one JSON object: correct, attempted, failed and
metrics — the end-to-end metrics with --trace 0, the per-layer metrics of
a traced run with --trace 1. A human-readable report goes to stderr, and
the run's metrics are kept in .bench_build/results/ for report.py.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
import benchlib  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"
WORKLOADS = ("table1_heap", "jetty_serve", "release_stream")
# Set-up and the final checks come on top of --seconds.
RUN_SLACK_S = 120


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark. Returns True on success."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: the library sources (src/) are missing; "
            "run from a full checkout of the repository")
        return False
    env = dict(os.environ)
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)  # keep compiler temporaries in the checkout
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(BUILD), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def run_workload(args, raw_path):
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(raw_path)]
    try:
        # subprocess.run kills and reaps the child on timeout.
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            timeout=args.seconds + RUN_SLACK_S).returncode
    except subprocess.TimeoutExpired:
        log("perfbench: workload run timed out")
        return None
    if rc != 0:
        log(f"perfbench: workload run failed with exit code {rc}")
        return None
    with open(raw_path) as f:
        return json.load(f)


def log_metrics(name, values, units, details=None):
    log(f"--- {name} ---")
    for key in units:
        log(f"  {key:36s} {values[key]:14.6g} {units[key][0]}")
    for key, d in (details or {}).items():
        log(f"  {key}: {d['samples']} samples, whole-run p50 = "
            f"{d['p50']:.6g} ms, tail = p{d['tail_percentile']:g}, quiet "
            f"p50 over blocks of {d['block_samples']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not 1 <= args.seconds <= 600 or args.seed < 0:
        ap.error("--seconds must be 1..600 and --seed non-negative")

    if not build():
        return 1
    runs = BUILD / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-trace{args.trace}-seed{args.seed}"
    raw = run_workload(args, runs / f"{tag}.raw.json")
    if raw is None:
        return 1

    e2e, details = benchlib.end_to_end(raw)
    failures = raw["failures"]
    for f in failures[:20]:
        log(f"FAILED: {f}")
    log_metrics(f"{args.workload} end to end (trace={args.trace})", e2e,
                benchlib.END_TO_END, details)
    if args.trace:
        values = benchlib.per_layer(raw)
        units = benchlib.PER_LAYER
        log_metrics(f"{args.workload} per layer", values, units)
        log("  span                           count    total ms     self ms")
        for name, count, total, self_ms in benchlib.self_time_table(
                raw["spans"]):
            log(f"  {name:28s} {count:7d} {total:11.1f} {self_ms:11.1f}")
    else:
        values, units = e2e, benchlib.END_TO_END

    line = benchlib.result_line(not failures and raw["attempted"] > 0,
                                max(1, raw["attempted"]), len(failures),
                                values, units)
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{tag}.json", "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "end_to_end": e2e,
                   "details": details, "line": line}, f)
    print(benchlib.dumps_line(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
