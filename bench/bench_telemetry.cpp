//===----------------------------------------------------------------------===//
///
/// \file
/// Streaming-telemetry cost (ISSUE 7): what does observability charge?
///
/// Two measurements over the streaming sessions
/// (support/TelemetryStream.h):
///
///   1. Raw event-write throughput: ns per Telemetry::emit into an
///      in-memory session, which keeps its budget's worth of events and
///      evicts the rest — the price a hot path pays per trace event.
///   2. Full-suite overhead: the email release history (every release
///      applied under load, as jvolve-serve does) timed in two
///      configurations. Baseline: metrics enabled, no streaming session,
///      no windows — the instrumented production posture every tool runs
///      with. Streaming: the same run with a live JSONL session plus
///      windowed aggregation attached. The delta isolates what THIS
///      subsystem (emit, file sink, window rolls) charges on top of plain
///      counters. Trials interleave the two configurations pairwise in
///      process CPU time; the gate reads
///      min(median pair overhead, quietest-pair overhead) — a real
///      regression moves both estimators past the budget, while shared-
///      host noise rarely moves both the same way.
///
/// Emits three BENCH_*.json files in the metrics snapshot format that
/// scripts/metrics-diff.py consumes:
///   BENCH_telemetry_off.json — bench.telemetry.suite_ms, metrics only
///   BENCH_telemetry_on.json  — bench.telemetry.suite_ms, session attached
///   BENCH_telemetry.json     — both histograms under distinct names, the
///                              overhead percentage, write-path costs,
///                              and the pipeline's event accounting
/// so tier1 can gate `bench.telemetry.suite_ms` between the off and on
/// dumps with a --max-delta budget.
///
/// `--check` exits 1 unless (a) the min-of-N suite overhead stays in
/// single digits (<= 10%) and (b) the published ledger balances: every
/// event attempted is either streamed into the sessions or counted
/// dropped — attempted == streamed + dropped, nothing silent.
///
/// Environment knobs: JVOLVE_TELBENCH_TRIALS (default 5),
/// JVOLVE_TELBENCH_REPS (history runs per timed region, default 8 — long
/// regions shrink relative noise), JVOLVE_TELBENCH_EVENTS (write-path
/// events, default 400000).
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
/// whether or not a telemetry session is watching it.
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
                   "  --check  exit 1 unless suite overhead <= 10%% and "
                   "event accounting balances\n",
                   argv[0]);
      return 2;
    }
  }

  const int Trials = envInt("JVOLVE_TELBENCH_TRIALS", 5);
  const int Reps = envInt("JVOLVE_TELBENCH_REPS", 8);
  const int Events = envInt("JVOLVE_TELBENCH_EVENTS", 400'000);

  Telemetry &Tel = Telemetry::global();

  std::printf("=== bench_telemetry: streaming pipeline cost ===\n\n");

  // --- 1. Raw write path: an in-memory session past its budget, so the
  // timed loop includes the eviction an unread session pays per event.
  Tel.setEnabled(true);
  auto Mem = Tel.openSession();
  Stopwatch WriteSw;
  for (int I = 0; I < Events; ++I)
    Tel.emit({"bench.telemetry.event", "point",
              static_cast<uint64_t>(I), static_cast<uint64_t>(I), 0.0,
              I, ""});
  double WriteMs = WriteSw.elapsedMs();
  size_t Kept = Mem->drainBuffered().size();
  unsigned long long Evicted = Mem->bufferEvictions();
  Tel.closeSession(Mem);
  double NsPerEvent = WriteMs * 1e6 / std::max(Events, 1);
  double EventsPerSec = Events / std::max(WriteMs / 1e3, 1e-9);
  std::printf("write path: %d event(s) in %.2f ms — %.0f ns/event, "
              "%.2fM events/s (%zu kept, %llu evicted)\n\n",
              Events, WriteMs, NsPerEvent, EventsPerSec / 1e6, Kept,
              Evicted);

  // --- 2. Full-suite overhead: email history, metrics-only baseline vs.
  // streaming session attached. Metrics stay enabled in both — counters
  // are the production posture; the gate prices the pipeline on top.
  // Trials interleave baseline/streaming pairwise so a noisy patch on a
  // shared host taxes both configurations, not just one; session setup
  // and teardown sit outside every timed region.
  std::string TracePath = "/tmp/bench_telemetry_trace.jsonl";
  if (const char *Tmp = std::getenv("TMPDIR"))
    TracePath = std::string(Tmp) + "/bench_telemetry_trace.jsonl";
  std::vector<double> Off, On;
  for (int T = 0; T < Trials; ++T) {
    Tel.windows().configure(0); // baseline: no windows, no session
    double Start = cpuMs();
    for (int R = 0; R < Reps; ++R)
      runEmailHistory();
    Off.push_back(cpuMs() - Start);

    Tel.windows().configure(2'000);
    if (!Tel.openTrace(TracePath)) {
      std::fprintf(stderr, "telemetry: cannot open trace '%s'\n",
                   TracePath.c_str());
      return 2;
    }
    Start = cpuMs();
    for (int R = 0; R < Reps; ++R)
      runEmailHistory();
    On.push_back(cpuMs() - Start);
    Tel.closeTrace();
  }
  Tel.windows().configure(0);
  std::remove(TracePath.c_str());

  // Each adjacent baseline/streaming pair shares its slice of host noise,
  // so per-pair overhead is the clean signal. (Min-of-each-side is not:
  // nothing forces the two mins into the same quiet period.) Two robust
  // estimators of the true overhead: the median across pairs, and the
  // quietest pair (lowest combined CPU time — least contaminated by
  // other tenants). Either alone still trips on a bad batch; the gate
  // reads their minimum, because a real regression moves both while
  // noise rarely moves both the same way.
  double OffMin = *std::min_element(Off.begin(), Off.end());
  double OnMin = *std::min_element(On.begin(), On.end());
  std::vector<double> PairPct;
  int Quietest = 0;
  for (int T = 0; T < Trials; ++T) {
    PairPct.push_back((On[T] - Off[T]) / std::max(Off[T], 1e-9) * 100.0);
    if (Off[T] + On[T] < Off[Quietest] + On[Quietest])
      Quietest = T;
  }
  double QuietestPct = PairPct[static_cast<size_t>(Quietest)];
  double MedianPct = percentile(PairPct, 50);
  double OverheadPct = std::min(QuietestPct, MedianPct);

  auto Read = [&Tel](const char *Name) {
    return static_cast<unsigned long long>(Tel.findGauge(Name)->value());
  };
  unsigned long long Attempted = Read(metrics::TelemetryEventsAttempted);
  unsigned long long Streamed = Read(metrics::TelemetryEventsStreamed);
  unsigned long long Dropped = Read(metrics::TelemetryDroppedTotal);

  std::printf("suite baseline:  min %.2f CPU-ms over %d trial(s) x %d "
              "rep(s) (metrics on, no session)\n",
              OffMin, Trials, Reps);
  std::printf("suite streaming: min %.2f CPU-ms (JSONL session + 2000-tick "
              "windows) — overhead %+.2f%% over %d paired trial(s) "
              "(median %+.2f%%, quietest pair %+.2f%%)\n",
              OnMin, OverheadPct, Trials, MedianPct, QuietestPct);
  std::printf("accounting: %llu attempted = %llu streamed + %llu dropped "
              "(%s)\n\n",
              Attempted, Streamed, Dropped,
              Attempted == Streamed + Dropped ? "balanced" : "IMBALANCED");

  BenchJson OffJson, OnJson, Combined;
  OffJson.histogram("bench.telemetry.suite_ms", Off);
  OnJson.histogram("bench.telemetry.suite_ms", On);
  Combined.histogram("bench.telemetry.suite_off_ms", Off);
  Combined.histogram("bench.telemetry.suite_on_ms", On);
  Combined.value("bench.telemetry.overhead_pct",
                 static_cast<long long>(OverheadPct * 100)); // centi-pct
  Combined.value("bench.telemetry.ns_per_event",
                 static_cast<long long>(NsPerEvent));
  Combined.value("bench.telemetry.events_attempted",
                 static_cast<long long>(Attempted));
  Combined.value("bench.telemetry.events_streamed",
                 static_cast<long long>(Streamed));
  Combined.value("bench.telemetry.events_dropped",
                 static_cast<long long>(Dropped));
  if (!OffJson.write("BENCH_telemetry_off.json") ||
      !OnJson.write("BENCH_telemetry_on.json") ||
      !Combined.write("BENCH_telemetry.json"))
    return 2;

  bool OverheadOk = OverheadPct <= 10.0;
  bool BooksOk = Attempted == Streamed + Dropped;
  std::printf("relation 1 (suite overhead <= 10%%):              %s\n",
              OverheadOk ? "holds" : "VIOLATED");
  std::printf("relation 2 (attempted == streamed + dropped):    %s\n",
              BooksOk ? "holds" : "VIOLATED");
  if (Check && !(OverheadOk && BooksOk)) {
    std::fprintf(stderr, "telemetry: pipeline cost relations violated\n");
    return 1;
  }
  return 0;
}
