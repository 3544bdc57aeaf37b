#!/usr/bin/env bash
# Tier-1 verification. ctest runs every gtest case twice: plain, and as
# <name>.Instrumented with telemetry on, a JSONL trace session open and
# 2,000-tick stats windows (tests/TestMain.cpp), each instance in its own
# process, in parallel. Plain ctest also runs every update-path test in
# both eager and lazy mode and the deterministic tool gates (the 22-stream
# analysis and synthesis checks and the first-order chaos sweep). After
# the suite: the analysis runtime budget, a ledger-balance check on a
# traced serve run (every event attempted is either streamed or counted
# dropped, and the trace file holds every streamed event its sink did not
# drop), the bench_lazy_pause trade-off gate, the updates-forever gate
# (registry bookkeeping flat over 300 stacked updates), the
# streaming-telemetry overhead gate (bench_telemetry --check + a coarse
# metrics-diff backstop), the canary pause and revert-convergence gates (an
# injected health breach must auto-revert and leave zero residual), the
# chaos-report summary of the first-order fault sweep, the perfbench helper
# unit tests, then both instances of every test binary's cases, eager and
# lazy, under a sanitizer build (the tool gates stay with the default
# build: the sanitizer tree does not build the tools).
#
#   scripts/tier1.sh [sanitizer]
#
# sanitizer: address (default) or undefined; set JVOLVE_SKIP_SANITIZE=1 to
# run only the default-configuration suite.
set -euo pipefail
cd "$(dirname "$0")/.."

SAN="${1:-address}"
JOBS="$(nproc 2>/dev/null || echo 2)"

cmake -B build -S .
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

# Analysis metrics schema + runtime budget: the dsu.analysis.* family
# must be published, and a second analyzer run must land within +50% of
# the first run's whole-suite analysis runtime (summed over the 22
# streams, so per-release jitter does not trip the budget). The verdict
# drift check itself (--check) runs in ctest.
ANALYZE_JSON="$(mktemp /tmp/jvolve-tier1-analyze.XXXXXX.json)"
ANALYZE_JSON2="$(mktemp /tmp/jvolve-tier1-analyze2.XXXXXX.json)"
build/tools/jvolve-analyze --app all --metrics-out "$ANALYZE_JSON" > /dev/null
build/tools/jvolve-analyze --app all --metrics-out "$ANALYZE_JSON2" > /dev/null
scripts/metrics-diff.py "$ANALYZE_JSON" "$ANALYZE_JSON2" \
  --require 'dsu.analysis.*' \
  --threshold 100 \
  --max-delta dsu.analysis.restricted_precise=0 \
  --max-delta dsu.analysis.restricted_cha=0 \
  --max-delta dsu.analysis.restricted_conservative=0 \
  --max-delta dsu.analysis.runtime_ms=50 \
  > /dev/null
rm -f "$ANALYZE_JSON" "$ANALYZE_JSON2"

# Static analysis over the DSU and bytecode layers (.clang-tidy at the
# repo root picks the checks). Skipped when the tool is not installed.
if command -v clang-tidy > /dev/null 2>&1; then
  cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON > /dev/null
  clang-tidy -p build --quiet src/dsu/*.cpp src/bytecode/*.cpp
else
  echo "tier1: clang-tidy not found; skipping static-analysis pass"
fi

# Ledger-balance check on a full traced serve run: the telemetry.* gauges
# must exist (require-any) and account for every event — attempted
# equals streamed plus dropped, nothing silent — and the trace file must
# hold one line per streamed event its sink did not drop.
TEL_JSON="$(mktemp /tmp/jvolve-tier1-telemetry.XXXXXX.json)"
TEL_TRACE="$(mktemp /tmp/jvolve-tier1-teltrace.XXXXXX.jsonl)"
build/tools/jvolve-serve email --stats --trace-out "$TEL_TRACE" \
  --metrics-out "$TEL_JSON" > /dev/null
scripts/metrics-diff.py "$TEL_JSON" "$TEL_JSON" \
  --require-any telemetry. > /dev/null
python3 - "$TEL_JSON" "$TEL_TRACE" <<'EOF'
import json, sys
m = {x["name"]: x.get("value", 0)
     for x in json.load(open(sys.argv[1]))["metrics"]}
a = m.get("telemetry.events_attempted", 0)
s = m.get("telemetry.events_streamed", 0)
d = m.get("telemetry.dropped_total", 0)
lost = m.get("telemetry.trace.dropped", 0)
if a != s + d:
    sys.exit(f"tier1: telemetry ledger imbalanced: "
             f"{a} attempted != {s} streamed + {d} dropped")
with open(sys.argv[2]) as f:
    lines = sum(1 for _ in f)
if lines != s - lost:
    sys.exit(f"tier1: trace file holds {lines} line(s), ledger says "
             f"{s} streamed - {lost} dropped by the sink")
print(f"tier1: telemetry ledger balanced "
      f"({a} attempted = {s} streamed + {d} dropped; {lines} trace lines)")
EOF
rm -f "$TEL_JSON" "$TEL_TRACE"

# The lazy trade-off triangle: lazy pause below eager pause, transient
# overhead decaying to no-update parity after the barrier retires, and
# indirection overhead staying flat. Exit 1 on any violated relation.
build/bench/bench_lazy_pause --check

# Updates forever: 300 stacked Jetty updates on one server. The registry
# bookkeeping in the pause (snapshot + certify) must stay flat while the
# registry grows (last 50 updates <= 1.25x the first 50 + 0.005 ms).
build/bench/bench_updates_forever --check

# Lazy steady-state convergence: serve the same release history eagerly
# and lazily; the final snapshots must agree on updates applied, and the
# lazy run must end fully drained (no pending shells, no failed
# transforms). metrics-diff exits 2 on a breached budget; 1 just reports
# the expected dsu.lazy.* movement.
EAGER_JSON="$(mktemp /tmp/jvolve-tier1-eager.XXXXXX.json)"
LAZY_JSON="$(mktemp /tmp/jvolve-tier1-lazy.XXXXXX.json)"
build/tools/jvolve-serve email --metrics-out "$EAGER_JSON" > /dev/null
build/tools/jvolve-serve email --lazy --metrics-out "$LAZY_JSON" > /dev/null
scripts/metrics-diff.py "$EAGER_JSON" "$LAZY_JSON" --threshold 1000 \
  --require dsu.lazy.updates \
  --max-delta dsu.updates.applied=0 \
  --max-delta dsu.lazy.pending=0 \
  --max-delta dsu.lazy.failed_transforms=0 \
  > /dev/null || [ $? -ne 2 ]
rm -f "$LAZY_JSON"

# Streaming-telemetry overhead gate: the raw write path, the paired
# suite-overhead relation (<= 10% with a session attached), and the
# accounting relation (attempted == streamed + dropped) — the binary
# exits 1 on any violation. The off/on suite histograms then pass a
# coarse metrics-diff backstop: the precise paired estimate lives in the
# binary; the 50% budget here only catches a gross (order-of-magnitude)
# regression that slipped past it.
build/bench/bench_telemetry --check
scripts/metrics-diff.py BENCH_telemetry_off.json BENCH_telemetry_on.json \
  --threshold 1000 \
  --max-delta bench.telemetry.suite_ms=50 \
  > /dev/null || [ $? -ne 2 ]
rm -f BENCH_telemetry.json BENCH_telemetry_off.json BENCH_telemetry_on.json

# Canary pause gate: every trial must revert with zero residual (the
# binary exits 1 otherwise), and the revert pause must stay within 3x
# (a +200% delta) of the forward pause — the same GC + transformers
# bill paid backwards.
build/bench/bench_canary --check
scripts/metrics-diff.py BENCH_canary_forward.json BENCH_canary_revert.json \
  --threshold 1000 \
  --max-delta bench.canary.pause_ms=200 \
  > /dev/null || [ $? -ne 2 ]
rm -f BENCH_canary.json BENCH_canary_forward.json BENCH_canary_revert.json
rm -f BENCH_lazy_pause.json

# Revert convergence: arm the canary-health-breach site, serve the email
# stream with a window on every update, and require that the run both
# completed a revert (dsu.revert.completed is only registered when one
# converges) and left nothing behind — zero residual new-version
# objects, zero failed reverts — relative to the eager baseline above.
CANARY_JSON="$(mktemp /tmp/jvolve-tier1-canary.XXXXXX.json)"
build/tools/jvolve-serve email --canary --inject canary-health-breach:1 \
  --metrics-out "$CANARY_JSON" > /dev/null
scripts/metrics-diff.py "$EAGER_JSON" "$CANARY_JSON" --threshold 1000 \
  --require dsu.revert.completed \
  --max-delta dsu.revert.residual_new_objects=0 \
  --max-delta dsu.revert.failed=0 \
  > /dev/null || [ $? -ne 2 ]
rm -f "$EAGER_JSON" "$CANARY_JSON"

# Body-only commit-pause gate: the versioned active-version switch must
# beat the safe-point pipeline at every heap size, stay ~zero (<= 2 ms),
# and stay flat while the safe-point pause grows with the heap — the
# binary exits 1 on any violated relation.
build/bench/bench_codeversion --check
rm -f BENCH_codeversion.json

# Code-versioning observability: a --codeversion serve run must publish
# the dsu.codeversion.* gauge family. The gauges are deliberately not
# preregistered — their presence proves the versioned commit path ran.
CV_JSON="$(mktemp /tmp/jvolve-tier1-codeversion.XXXXXX.json)"
build/tools/jvolve-serve email --codeversion --metrics-out "$CV_JSON" > /dev/null
scripts/metrics-diff.py "$CV_JSON" "$CV_JSON" \
  --require 'dsu.codeversion.*' > /dev/null
rm -f "$CV_JSON"

# Chaos-campaign report: sweep every enumerable first-order (site,
# fire-index) probe point on the email and jetty streams (ctest runs the
# same sweep with --check). chaos-report.py gates the stored JSON report
# on oracle violations and full coverage, and metrics-diff asserts the
# fault.coverage.{probes,covered} gauges made it into the snapshot.
CHAOS_JSON="$(mktemp /tmp/jvolve-tier1-chaos.XXXXXX.json)"
CHAOS_REPORT="$(mktemp /tmp/jvolve-tier1-chaosrep.XXXXXX.json)"
build/tools/jvolve-chaos --first-order --json \
  --metrics-out "$CHAOS_JSON" > "$CHAOS_REPORT"
scripts/chaos-report.py "$CHAOS_REPORT"
scripts/metrics-diff.py "$CHAOS_JSON" "$CHAOS_JSON" \
  --require fault.coverage.probes \
  --require fault.coverage.covered \
  --max-delta fault.coverage.covered=0 \
  > /dev/null
rm -f "$CHAOS_JSON" "$CHAOS_REPORT"

# The end-to-end benchmark's helpers (tail selection, quiet stretch, span
# self time, result-line JSON, metric names matching BENCHMARK.json).
python3 -m unittest discover -s perfbench/tests

if [ "${JVOLVE_SKIP_SANITIZE:-0}" != "1" ]; then
  cmake -B "build-$SAN" -S . -DJVOLVE_SANITIZE="$SAN"
  cmake --build "build-$SAN" -j "$JOBS" --target jvolve_tests
  ctest --test-dir "build-$SAN" --output-on-failure -j "$JOBS" \
    -E '^ToolGate\.'
fi
