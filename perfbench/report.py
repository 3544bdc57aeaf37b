#!/usr/bin/env python3
"""Summarizes the runs kept in .bench_build/results/ by perfbench/run.py.

    python3 perfbench/report.py

For every workload and end-to-end metric: the median of the untraced runs,
their spread (distance between the first and third quartile as a share of
the median, as statistics.quantiles gives them), and the median of the
traced runs with the difference between the two — the tracing overhead.
"""

import json
import statistics
import sys
from pathlib import Path

sys.dont_write_bytecode = True
import benchlib  # noqa: E402

RESULTS = Path(__file__).resolve().parent.parent / ".bench_build" / "results"


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    runs = {}
    for path in sorted(RESULTS.glob("*.json")):
        r = json.loads(path.read_text())
        runs.setdefault(r["workload"], {}).setdefault(r["trace"], []).append(
            r["end_to_end"])
    if not runs:
        print(f"no results in {RESULTS}")
        return 1
    print(f"{'workload':15s} {'metric':22s} {'runs':>4s} {'median':>12s} "
          f"{'IQR/med':>8s} {'traced':>12s} {'overhead':>9s}")
    for workload, by_trace in sorted(runs.items()):
        plain, traced = by_trace.get(0, []), by_trace.get(1, [])
        for name in benchlib.END_TO_END:
            vals = [r[name] for r in plain]
            tvals = [r[name] for r in traced]
            med = statistics.median(vals) if vals else float("nan")
            tmed = statistics.median(tvals) if tvals else float("nan")
            over = (tmed - med) / med if vals and tvals and med else \
                float("nan")
            print(f"{workload:15s} {name:22s} {len(vals):4d} {med:12.6g} "
                  f"{spread(vals):8.2%} {tmed:12.6g} {over:9.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
