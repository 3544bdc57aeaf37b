//===----------------------------------------------------------------------===//
///
/// \file
/// Streaming-telemetry cost (ISSUE 7): what does observability charge?
///
/// Two measurements over the trace (support/TelemetryStream.h):
///
///   1. Raw event-write throughput: ns per Telemetry::emit into a JSONL
///      trace file, its last batch written and the file closed — the
///      price a hot path pays per trace event.
///   2. Full-suite overhead: the email release history (every release
///      applied under load, as jvolve-serve does) timed in two
///      configurations. Baseline: metrics enabled, no trace, no windows —
///      the instrumented production posture every tool runs with.
///      Streaming: the same run with a JSONL trace open plus windowed
///      aggregation. The delta isolates what THIS subsystem (emit, file
///      sink, window rolls) charges on top of plain counters. 60 pairs interleave the two configurations in process
///      CPU time, alternating which runs first; the overhead is the median
///      extra CPU time per pair over the median baseline region (the
///      estimator of bench_lazy_pause's relation 3).
///
/// Emits three BENCH_*.json files in the metrics snapshot format that
/// scripts/metrics-diff.py consumes:
///   BENCH_telemetry_off.json — bench.telemetry.suite_ms, metrics only
///   BENCH_telemetry_on.json  — bench.telemetry.suite_ms, trace open
///   BENCH_telemetry.json     — both histograms under distinct names, the
///                              overhead percentage and the write-path
///                              cost
/// so tier1 can gate `bench.telemetry.suite_ms` between the off and on
/// dumps with a --max-delta budget.
///
/// `--check` exits 1 unless the suite overhead stays in single digits
/// (<= 10%).
///
/// Environment knobs: JVOLVE_TELBENCH_PAIRS (default 60),
/// JVOLVE_TELBENCH_REPS (history runs per timed region, default 4),
/// JVOLVE_TELBENCH_EVENTS (write-path events, default 400000).
///
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "apps/EmailApp.h"
#include "apps/Workload.h"
#include "dsu/Updater.h"
#include "dsu/Upt.h"
#include "support/Stats.h"
#include "support/Stopwatch.h"
#include "support/Telemetry.h"
#include "support/TelemetryStream.h"
#include "vm/VM.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

using namespace jvolve;

namespace {

int envInt(const char *Name, int Default) {
  const char *V = std::getenv(Name);
  return V ? std::atoi(V) : Default;
}

/// Process CPU milliseconds. CPU time, not wall time: on a shared host
/// other tenants' noise swamps a single-digit-percent signal, and the
/// pipeline's cost IS the cycles it burns.
double cpuMs() {
  return static_cast<double>(std::clock()) * 1e3 / CLOCKS_PER_SEC;
}

/// One pass over the email release history under load — jvolve-serve's
/// core loop without the narration. Timeouts retry with identity
/// active-method mappings the way the tool does, so the work is the same
/// whether or not a trace is watching it.
void runEmailHistory() {
  AppModel App = makeEmailApp();
  VM::Config Cfg;
  Cfg.HeapSpaceBytes = 16u << 20;
  VM TheVM(Cfg);
  TheVM.loadProgram(App.version(0));
  startEmailThreads(TheVM);
  TheVM.net().setAdmissionLimit(Pop3Port, 16);

  LoadDriver::Options LO;
  LO.Port = Pop3Port;
  LoadDriver Driver(TheVM, LO);
  Driver.runWithLoad(10'000);

  size_t Version = 0;
  for (size_t V = 1; V < App.numVersions(); ++V) {
    UpdateBundle B = Upt::prepare(App.version(Version), App.version(V),
                                  "v" + std::to_string(V - 1));
    registerEmailTransformers(B, App, V);

    UpdateOptions Opts;
    Opts.TimeoutTicks = 120'000;
    Opts.EnableRescue = true;
    Opts.DrainNetwork = true;
    Updater U(TheVM);
    U.schedule(std::move(B), Opts);
    while (U.pending())
      Driver.runWithLoad(2'000);

    if (U.result().Status == UpdateStatus::TimedOut) {
      UpdateBundle Retry = Upt::prepare(App.version(Version), App.version(V),
                                        "r" + std::to_string(V - 1));
      registerEmailTransformers(Retry, App, V);
      const ClassSet &New = App.version(V);
      Retry.addActiveMapping(ActiveMethodMapping::identity(
          {"Pop3Processor", "run", "(I)V"},
          New.find("Pop3Processor")->findMethod("run")->Code.size()));
      Retry.addActiveMapping(ActiveMethodMapping::identity(
          {"SMTPSender", "run", "()V"},
          New.find("SMTPSender")->findMethod("run")->Code.size()));
      U.schedule(std::move(Retry), Opts);
      while (U.pending())
        Driver.runWithLoad(2'000);
    }
    if (U.result().Status == UpdateStatus::Applied)
      Version = V;
    Driver.runWithLoad(6'000);
  }
}

} // namespace

int main(int argc, char **argv) {
  bool Check = false;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--check") == 0) {
      Check = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--check]\n"
                   "  --check  exit 1 unless suite overhead <= 10%%\n",
                   argv[0]);
      return 2;
    }
  }

  // A median over 5 pairs of 8-rep regions read +5% to +12% over ten runs
  // of one unchanged tree, and its minimum with the quietest pair's
  // reading spread from -11% to +59%.
  const int Pairs = std::max(envInt("JVOLVE_TELBENCH_PAIRS", 60), 1);
  const int Reps = envInt("JVOLVE_TELBENCH_REPS", 4);
  const int Events = envInt("JVOLVE_TELBENCH_EVENTS", 400'000);

  Telemetry &Tel = Telemetry::global();

  std::printf("=== bench_telemetry: streaming pipeline cost ===\n\n");

  std::string TracePath = "/tmp/bench_telemetry_trace.jsonl";
  if (const char *Tmp = std::getenv("TMPDIR"))
    TracePath = std::string(Tmp) + "/bench_telemetry_trace.jsonl";

  // --- 1. Raw write path: every event rendered and written to the trace
  // file, the last batch included.
  if (!Tel.openTrace(TracePath)) {
    std::fprintf(stderr, "telemetry: cannot open trace '%s'\n",
                 TracePath.c_str());
    return 2;
  }
  Stopwatch WriteSw;
  for (int I = 0; I < Events; ++I)
    Tel.emit({"bench.telemetry.event", "point",
              static_cast<uint64_t>(I), static_cast<uint64_t>(I), 0.0,
              I, ""});
  bool Written = Tel.closeTrace();
  double WriteMs = WriteSw.elapsedMs();
  if (!Written) {
    std::fprintf(stderr, "telemetry: cannot write trace '%s'\n",
                 TracePath.c_str());
    return 2;
  }
  double NsPerEvent = WriteMs * 1e6 / std::max(Events, 1);
  double EventsPerSec = Events / std::max(WriteMs / 1e3, 1e-9);
  std::printf("write path: %d event(s) in %.2f ms — %.0f ns/event, "
              "%.2fM events/s into the trace file\n\n",
              Events, WriteMs, NsPerEvent, EventsPerSec / 1e6);

  // --- 2. Full-suite overhead: email history, metrics-only baseline vs.
  // a trace open. Metrics stay enabled in both — counters are the
  // production posture; the gate prices the pipeline on top. Each pair
  // times one region per configuration, back to back, so a noisy patch on
  // a shared host taxes both; opening and closing the trace sit outside
  // every timed region.
  auto TimeBaseline = [&] {
    Tel.windows().configure(0); // baseline: no windows, no trace
    double Start = cpuMs();
    for (int R = 0; R < Reps; ++R)
      runEmailHistory();
    return cpuMs() - Start;
  };
  auto TimeStreaming = [&]() -> double {
    Tel.windows().configure(2'000);
    if (!Tel.openTrace(TracePath))
      return -1;
    double Start = cpuMs();
    for (int R = 0; R < Reps; ++R)
      runEmailHistory();
    double Ms = cpuMs() - Start;
    Tel.closeTrace();
    Tel.windows().configure(0);
    return Ms;
  };
  // Pairs alternate which configuration runs first, so neither always
  // runs on caches the other just warmed.
  std::vector<double> Off, On, ExtraMs;
  for (int P = 0; P < Pairs; ++P) {
    double OffMs, OnMs;
    if (P % 2) {
      OnMs = TimeStreaming();
      OffMs = TimeBaseline();
    } else {
      OffMs = TimeBaseline();
      OnMs = TimeStreaming();
    }
    if (OnMs < 0) {
      std::fprintf(stderr, "telemetry: cannot open trace '%s'\n",
                   TracePath.c_str());
      return 2;
    }
    Off.push_back(OffMs);
    On.push_back(OnMs);
    ExtraMs.push_back(OnMs - OffMs);
  }
  std::remove(TracePath.c_str());

  // The overhead is the median extra CPU time per pair over the median
  // baseline region of the whole run. A host that gets busier partway
  // through stretches both regions of a pair alike: that moves a per-pair
  // ratio, or either configuration's own timings, far more than the extra
  // time the pipeline costs.
  double OffMedian = percentile(Off, 50);
  double OnMedian = percentile(On, 50);
  auto ExtraPct = [&](double P) {
    return 100.0 * percentile(ExtraMs, P) / std::max(OffMedian, 1e-9);
  };
  double OverheadPct = ExtraPct(50);

  std::printf("suite baseline:  median %.2f CPU-ms over %d pair(s) x %d "
              "rep(s) (metrics on, no trace)\n",
              OffMedian, Pairs, Reps);
  std::printf("suite streaming: median %.2f CPU-ms (JSONL trace + "
              "2000-tick windows) — overhead %+.2f%% (median extra per pair; "
              "quartiles %+.2f%%, %+.2f%%)\n\n",
              OnMedian, OverheadPct, ExtraPct(25), ExtraPct(75));

  BenchJson OffJson, OnJson, Combined;
  OffJson.histogram("bench.telemetry.suite_ms", Off);
  OnJson.histogram("bench.telemetry.suite_ms", On);
  Combined.histogram("bench.telemetry.suite_off_ms", Off);
  Combined.histogram("bench.telemetry.suite_on_ms", On);
  Combined.value("bench.telemetry.overhead_pct",
                 static_cast<long long>(OverheadPct * 100)); // centi-pct
  Combined.value("bench.telemetry.ns_per_event",
                 static_cast<long long>(NsPerEvent));
  if (!OffJson.write("BENCH_telemetry_off.json") ||
      !OnJson.write("BENCH_telemetry_on.json") ||
      !Combined.write("BENCH_telemetry.json"))
    return 2;

  bool OverheadOk = OverheadPct <= 10.0;
  std::printf("relation (suite overhead <= 10%%): %s\n",
              OverheadOk ? "holds" : "VIOLATED");
  if (Check && !OverheadOk) {
    std::fprintf(stderr, "telemetry: suite overhead above 10%%\n");
    return 1;
  }
  return 0;
}
