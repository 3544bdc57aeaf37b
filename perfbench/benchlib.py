"""Turns the raw samples of one perfbench run into the benchmark's metrics.

The C++ driver (perfbench/src) writes every update it attempted, the
workload's work and wall time, set-up times, peak memory and, in a traced
run, its spans. This module derives the end-to-end metrics of an untraced
run and the per-layer metrics of a traced run from them, so the rules for
percentiles and self time live in one tested place.
"""

import json
import math
import statistics

# Percentiles a tail may be reported at: the highest one with at least
# TAIL_MIN_BEYOND samples beyond it is used. The ladder stops at p99: beyond
# it a run's tail is a handful of samples that host interruptions, not the
# program, decide, and two sets of runs no longer agree.
TAIL_LADDER = (50, 75, 90, 95, 99)
TAIL_MIN_BEYOND = 10

# The typical cost of an update or of serving is measured in the run's
# quietest stretch. The host that runs the benchmark is shared: its speed
# swings by half again in phases of seconds to minutes, and a whole-run
# median lands in whichever phase filled more of the run. Interference only
# ever adds time, so the fast end of the run is what repeats. The samples,
# in the order they were taken, are cut into QUIET_BLOCKS blocks of
# consecutive samples; the value is the QUIET_PERCENTILE-th percentile of
# the block medians (of the block rates, from the fast end, for work).
QUIET_BLOCKS = 200
QUIET_PERCENTILE = 5

# name -> (unit, better). Kept equal to BENCHMARK.json by the tests.
END_TO_END = {
    "pause_p50_quiet_ms": ("ms", "lower"),
    "pause_tail_ms": ("ms", "lower"),
    "apply_p50_quiet_ms": ("ms", "lower"),
    "apply_tail_ms": ("ms", "lower"),
    "ops_per_s_quiet": ("1/s", "higher"),
    "update_success_ratio": ("ratio", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

PER_LAYER = {
    "heap.certify_ns_per_object": ("ns", "lower"),
    "heap.verify_ns_per_object": ("ns", "lower"),
    "heap.dsu_gc_ns_per_object": ("ns", "lower"),
    "heap.gc_ns_per_object": ("ns", "lower"),
    "heap.alloc_ns_per_object": ("ns", "lower"),
    "heap.bytes_copied_per_update": ("B", "lower"),
    "heap.regular_gc_ms_per_s": ("ms/s", "lower"),
    "dsu.transform_ns_per_object": ("ns", "lower"),
    "dsu.objects_transformed": ("count", "lower"),
    "dsu.pause_untiled_ms": ("ms", "lower"),
    "dsu.apply_outside_pause_ms": ("ms", "lower"),
    "dsu.safepoint_attempts": ("count", "lower"),
    "dsu.return_barriers": ("count", "lower"),
    "dsu.osr_replacements": ("count", "lower"),
    "dsu.upt_prepare_ms": ("ms", "lower"),
    "runtime.classload_ms": ("ms", "lower"),
    "bytecode.verify_ms": ("ms", "lower"),
    "threads.ticks_to_safepoint_p50": ("ticks", "lower"),
    "vm.ns_per_instruction": ("ns", "lower"),
    "vm.post_update_ns_per_instruction": ("ns", "lower"),
    "vm.instructions_per_request": ("count", "lower"),
    "vm.serve_latency_p50_ticks": ("ticks", "lower"),
    "vm.serve_latency_tail_ticks": ("ticks", "lower"),
    "vm.generator_late_ticks": ("ticks", "lower"),
    "vm.load_program_ms": ("ms", "lower"),
    "bench.untraced_share": ("ratio", "lower"),
}


def percentile(values, p):
    """Linear-interpolated p-th percentile (0..100) of values."""
    if not values:
        raise ValueError("percentile of no samples")
    s = sorted(values)
    pos = p / 100.0 * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail_percentile(n):
    """The highest ladder percentile with at least TAIL_MIN_BEYOND of n
    samples beyond it; the median when even it has fewer."""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        # Round so that e.g. 1000 samples at p99 count exactly 10 beyond.
        if round(n * (100 - p) / 100.0, 9) >= TAIL_MIN_BEYOND:
            best = p
    return best


def timing_summary(values):
    """Whole-run median and tail of a timing sample, with the tail's
    percentile, the sample count and the size of a quiet-stretch block
    (zeros for no samples: a run whose updates all failed still reports,
    and its oracles mark it incorrect)."""
    p = tail_percentile(len(values))
    return {
        "p50": percentile(values, 50) if values else 0.0,
        "tail": percentile(values, p) if values else 0.0,
        "tail_percentile": p,
        "samples": len(values),
        "block_samples": len(blocks(values)[0]) if values else 0,
    }


def blocks(samples, count=QUIET_BLOCKS):
    """samples, in order, cut into at most count blocks of equal size
    (at least one sample each); a remainder shorter than a block is
    dropped."""
    size = max(1, len(samples) // count)
    return [samples[i:i + size]
            for i in range(0, len(samples) - size + 1, size)]


def quiet_median(values):
    """The median of values in the run's quiet stretch: the
    QUIET_PERCENTILE-th percentile of the medians of consecutive blocks."""
    if not values:
        return 0.0
    return percentile([statistics.median(b) for b in blocks(values)],
                      QUIET_PERCENTILE)


def quiet_rate(work):
    """Work per second in the run's quiet stretch, from (units, seconds)
    samples in order: the (100 - QUIET_PERCENTILE)-th percentile of the
    rates of consecutive blocks (units over seconds of each block)."""
    work = [(units, sec) for units, sec in work if sec > 0]
    if not work:
        return 0.0
    rates = [sum(u for u, _ in b) / sum(s for _, s in b)
             for b in blocks(work)]
    return percentile(rates, 100 - QUIET_PERCENTILE)


def histogram_percentile(hist, p):
    """p-th percentile of a histogram given as [[value, count], ...],
    interpolated like percentile() over the expanded samples."""
    hist = sorted((v, c) for v, c in hist if c > 0)
    n = sum(c for _, c in hist)
    if n == 0:
        raise ValueError("percentile of an empty histogram")
    pos = p / 100.0 * (n - 1)

    def nth(k):
        seen = 0
        for v, c in hist:
            seen += c
            if k < seen:
                return v
        return hist[-1][0]

    lo = math.floor(pos)
    a, b = nth(lo), nth(min(lo + 1, n - 1))
    return a + (b - a) * (pos - lo)


def self_times(spans):
    """Self time of every span in ns: its duration minus the part of its
    interval that its children cover (overlapping children count once)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        start, end = s["start_ns"], s["end_ns"]
        covered, cursor = 0, start
        kids = sorted(children.get(s["id"], []), key=lambda c: c["start_ns"])
        for c in kids:
            lo, hi = max(c["start_ns"], cursor), min(c["end_ns"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (end - start) - covered
    return out


def _duration_ns(span):
    return span["end_ns"] - span["start_ns"]


def _ratio(num, den):
    return num / den if den else 0.0


def _median(values):
    return statistics.median(values) if values else 0.0


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def end_to_end(raw):
    """End-to-end metrics of one run: {name: value}, plus the sample
    counts and tail percentiles behind the timing metrics."""
    applied = [u for u in raw["updates"] if u["status"] == "applied"]
    pauses = [u["pause_ms"] for u in applied]
    applies = [u["apply_ms"] for u in applied]
    pause = timing_summary(pauses)
    apply = timing_summary(applies)
    values = {
        "pause_p50_quiet_ms": quiet_median(pauses),
        "pause_tail_ms": pause["tail"],
        "apply_p50_quiet_ms": quiet_median(applies),
        "apply_tail_ms": apply["tail"],
        "ops_per_s_quiet": quiet_rate(raw["work"]),
        "update_success_ratio": _ratio(raw["updates_applied"],
                                       raw["updates_attempted"]),
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_kib"] / 1024.0,
    }
    details = {"pause": pause, "apply": apply}
    return values, details


def per_layer(raw):
    """Per-layer metrics of a traced run: {name: value}. A layer the
    workload never enters reads 0."""
    spans = raw["spans"]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def attr(s, key):
        return s["attrs"].get(key, 0.0)

    applies = named("dsu.apply")
    applied = [s for s in applies if attr(s, "applied") == 1]
    serve = named("vm.serve")
    post = [s for s in serve if attr(s, "post_update") == 1]
    copied = [s for s in applied if attr(s, "gc_objects_copied") > 0]
    transformed = [s for s in applied if attr(s, "objects_transformed") > 0]

    def ns_per(group, key):
        return _ratio(sum(_duration_ns(s) for s in group),
                      sum(attr(s, key) for s in group))

    latency = raw.get("latency_ticks") or []
    measure = named("measure")
    selfs = self_times(spans)
    untiled = [attr(s, "pause_ms") - attr(s, "classload_ms") -
               attr(s, "gc_ms") - attr(s, "transform_ms") -
               attr(s, "certify_ms") for s in applied]

    return {
        "heap.certify_ns_per_object": _ratio(
            sum(attr(s, "certify_ms") for s in applied) * 1e6,
            sum(attr(s, "heap_objects") for s in applied)),
        "heap.verify_ns_per_object": ns_per(named("heap.verify"), "objects"),
        "heap.dsu_gc_ns_per_object": _ratio(
            sum(attr(s, "gc_ms") for s in copied) * 1e6,
            sum(attr(s, "gc_objects_copied") for s in copied)),
        "heap.gc_ns_per_object": ns_per(named("heap.collect"), "objects"),
        "heap.alloc_ns_per_object": ns_per(named("heap.populate"), "objects"),
        "heap.bytes_copied_per_update": _mean(
            [attr(s, "gc_bytes_copied") + attr(s, "oldcopy_bytes")
             for s in applied]),
        "heap.regular_gc_ms_per_s": _ratio(
            sum(attr(s, "gc_ms") for s in serve),
            sum(_duration_ns(s) for s in serve) / 1e9),
        "dsu.transform_ns_per_object": _ratio(
            sum(attr(s, "transform_ms") for s in transformed) * 1e6,
            sum(attr(s, "objects_transformed") for s in transformed)),
        "dsu.objects_transformed": _mean(
            [attr(s, "objects_transformed") for s in applied]),
        "dsu.pause_untiled_ms": _median(untiled),
        "dsu.apply_outside_pause_ms": _median(
            [_duration_ns(s) / 1e6 - attr(s, "pause_ms") for s in applied]),
        "dsu.safepoint_attempts": _mean(
            [attr(s, "safepoint_attempts") for s in applies]),
        "dsu.return_barriers": _mean(
            [attr(s, "return_barriers") for s in applies]),
        "dsu.osr_replacements": _mean(
            [attr(s, "osr_replacements") for s in applies]),
        "dsu.upt_prepare_ms": _median(
            [_duration_ns(s) / 1e6 for s in named("dsu.upt_prepare")]),
        "runtime.classload_ms": _median(
            [attr(s, "classload_ms") for s in applied]),
        "bytecode.verify_ms": _median(
            [_duration_ns(s) / 1e6 for s in named("bytecode.verify")]),
        "threads.ticks_to_safepoint_p50": _median(
            [attr(s, "ticks_to_safepoint") for s in applied]),
        "vm.ns_per_instruction": ns_per(serve, "instructions"),
        "vm.post_update_ns_per_instruction": ns_per(post, "instructions"),
        "vm.instructions_per_request": _ratio(
            sum(attr(s, "instructions") for s in serve),
            sum(attr(s, "responses") for s in serve)),
        "vm.serve_latency_p50_ticks": (
            histogram_percentile(latency, 50) if latency else 0.0),
        "vm.serve_latency_tail_ticks": (
            histogram_percentile(
                latency, tail_percentile(sum(c for _, c in latency)))
            if latency else 0.0),
        "vm.generator_late_ticks": _mean(
            [attr(s, "drive_ticks") for s in applies]),
        "vm.load_program_ms": _median(
            [_duration_ns(s) / 1e6 for s in named("vm.load_program")]),
        "bench.untraced_share": _ratio(
            sum(selfs[s["id"]] for s in measure),
            sum(_duration_ns(s) for s in measure)),
    }


def self_time_table(spans):
    """Per span name: count, total ms and self ms, largest self first."""
    selfs = self_times(spans)
    rows = {}
    for s in spans:
        r = rows.setdefault(s["name"], [0, 0.0, 0.0])
        r[0] += 1
        r[1] += _duration_ns(s) / 1e6
        r[2] += selfs[s["id"]] / 1e6
    return sorted(((n, *r) for n, r in rows.items()),
                  key=lambda row: -row[3])


def result_line(correct, attempted, failed, values, units):
    """The benchmark's one-line result object."""
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(values[name]),
                           "unit": units[name][0]}
                    for name in units},
    }


def dumps_line(line):
    return json.dumps(line, separators=(", ", ": "), allow_nan=False)
