//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench: runs one workload of the end-to-end DSU benchmark in this
/// process, on one OS thread, and writes its raw samples as JSON.
///
///   perfbench --workload <table1_heap|jetty_serve|release_stream>
///             --seed <n> --seconds <s> --trace <0|1> --out <file>
///
/// perfbench/run.py builds this binary, runs it and turns the raw samples
/// into the benchmark's metrics.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Telemetry.h"

#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

using namespace perfbench;
using namespace jvolve;

//===----------------------------------------------------------------------===//
// Json
//===----------------------------------------------------------------------===//

void Json::separate() {
  if (AfterKey) {
    AfterKey = false;
    return;
  }
  if (!First.empty()) {
    if (!First.back())
      Out += ',';
    First.back() = false;
  }
}

Json &Json::open(char C) {
  separate();
  Out += C;
  First.push_back(true);
  return *this;
}

Json &Json::close(char C) {
  Out += C;
  First.pop_back();
  return *this;
}

Json &Json::key(std::string_view K) {
  value(K);
  Out += ':';
  AfterKey = true;
  return *this;
}

Json &Json::value(double V) {
  separate();
  if (!std::isfinite(V)) {
    Out += "null";
    return *this;
  }
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  Out += Buf;
  return *this;
}

Json &Json::value(uint64_t V) {
  separate();
  Out += std::to_string(V);
  return *this;
}

Json &Json::value(int64_t V) {
  separate();
  Out += std::to_string(V);
  return *this;
}

Json &Json::value(bool V) {
  separate();
  Out += V ? "true" : "false";
  return *this;
}

Json &Json::value(std::string_view V) {
  separate();
  Out += '"';
  for (char C : V) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  Out += '"';
  return *this;
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

int Tracer::begin(std::string Name, int64_t Update) {
  if (!Enabled)
    return -1;
  Span S;
  S.Name = std::move(Name);
  S.Parent = Open.empty() ? -1 : Open.back();
  S.Update = Update;
  S.StartNs = nowNs();
  Spans.push_back(std::move(S));
  int Id = static_cast<int>(Spans.size()) - 1;
  Open.push_back(Id);
  return Id;
}

void Tracer::end(int Id) {
  if (Id < 0)
    return;
  Spans[Id].EndNs = nowNs();
  // Spans nest strictly; closing one closes anything opened inside it.
  while (!Open.empty()) {
    int Top = Open.back();
    Open.pop_back();
    if (Top == Id)
      break;
  }
}

void Tracer::attr(int Id, std::string Key, double Value) {
  if (Id >= 0)
    Spans[Id].Attrs.emplace_back(std::move(Key), Value);
}

void Tracer::write(Json &J) const {
  J.beginArray();
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    J.beginObject()
        .field("id", static_cast<uint64_t>(I))
        .field("name", S.Name)
        .field("parent", static_cast<int64_t>(S.Parent))
        .field("update", S.Update)
        .field("start_ns", S.StartNs)
        .field("end_ns", S.EndNs);
    J.key("attrs").beginObject();
    for (const auto &[K, V] : S.Attrs)
      J.field(K, V);
    J.endObject().endObject();
  }
  J.endArray();
}

//===----------------------------------------------------------------------===//
// CoreRotation
//===----------------------------------------------------------------------===//

CoreRotation::CoreRotation(double PeriodS)
    : Period(std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(PeriodS))),
      Due(Clock::now() + Period) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    for (int Cpu = 0; Cpu < CPU_SETSIZE; ++Cpu)
      if (CPU_ISSET(Cpu, &Set))
        Cpus.push_back(Cpu);
}

void CoreRotation::tick() {
  if (Cpus.size() < 2 || Clock::now() < Due)
    return;
  Due = Clock::now() + Period;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpus[Next], &Set);
  Next = (Next + 1) % Cpus.size();
  // Best effort: a refused move leaves the thread where it is.
  sched_setaffinity(0, sizeof(Set), &Set);
}

//===----------------------------------------------------------------------===//
// Update checks shared by the workloads
//===----------------------------------------------------------------------===//

bool Results::record(const std::string &Label, const TimedUpdate &T) {
  const UpdateResult &U = T.Result;
  Updates.push_back({Label, U.Status, T.ApplyMs, U.TotalPauseMs, T.Ticks});
  if (U.Status != UpdateStatus::Applied)
    return false;
  if (!U.Certified)
    fail(Label + ": applied but not certified" +
         (U.CertificationProblems.empty()
              ? std::string()
              : ": " + U.CertificationProblems.front()));
  double Phases = U.ClassLoadMs + U.GcMs + U.TransformMs + U.CertifyMs;
  // The phases are disjoint sub-intervals of the pause, and the pause lies
  // inside applyNow; the slack only absorbs floating-point rounding.
  constexpr double Slack = 1e-6;
  if (Phases > U.TotalPauseMs + Slack || U.TotalPauseMs > T.ApplyMs + Slack) {
    char Buf[200];
    std::snprintf(Buf, sizeof(Buf),
                  ": pause phases do not tile (phases %.6f ms, pause %.6f "
                  "ms, applyNow %.6f ms)",
                  Phases, U.TotalPauseMs, T.ApplyMs);
    fail(Label + Buf);
  }
  return true;
}

void perfbench::attachUpdate(Tracer &T, int Id, const TimedUpdate &TU) {
  if (!T.enabled())
    return;
  const UpdateResult &U = TU.Result;
  T.attr(Id, "applied", U.Status == UpdateStatus::Applied ? 1 : 0);
  T.attr(Id, "pause_ms", U.TotalPauseMs);
  T.attr(Id, "classload_ms", U.ClassLoadMs);
  T.attr(Id, "gc_ms", U.GcMs);
  T.attr(Id, "transform_ms", U.TransformMs);
  T.attr(Id, "certify_ms", U.CertifyMs);
  T.attr(Id, "objects_transformed", static_cast<double>(U.ObjectsTransformed));
  T.attr(Id, "gc_objects_copied", static_cast<double>(U.Gc.ObjectsCopied));
  T.attr(Id, "gc_bytes_copied", static_cast<double>(U.Gc.BytesCopied));
  T.attr(Id, "oldcopy_bytes", static_cast<double>(U.Gc.OldCopySpaceBytes));
  T.attr(Id, "safepoint_attempts", U.SafePointAttempts);
  T.attr(Id, "ticks_to_safepoint", static_cast<double>(U.TicksToSafePoint));
  T.attr(Id, "return_barriers", U.ReturnBarriersInstalled);
  T.attr(Id, "osr_replacements", U.OsrReplacements);
  T.attr(Id, "drive_ticks", static_cast<double>(TU.Ticks));
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

namespace {

/// Library behaviour these variables switch (Updater::schedule reads the
/// first two on every update; the VM and telemetry read the rest) would
/// silently benchmark a different program.
constexpr const char *ForbiddenEnv[] = {"JVOLVE_LAZY", "JVOLVE_CODEVERSION",
                                        "JVOLVE_INJECT", "JVOLVE_TELEMETRY",
                                        "JVOLVE_TRACE_OUT"};

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<table1_heap|jetty_serve|release_stream> --seed <n> "
               "--seconds <s> --trace <0|1> --out <file>\n",
               Msg);
  std::exit(2);
}

void writeResults(const std::string &Path, const Options &O,
                  const Tracer &T, const Results &R) {
  struct rusage Usage;
  std::memset(&Usage, 0, sizeof(Usage));
  getrusage(RUSAGE_SELF, &Usage);

  Json J;
  J.beginObject()
      .field("workload", O.Workload)
      .field("seed", O.Seed)
      .field("trace", O.Trace)
      .field("peak_rss_kib", static_cast<int64_t>(Usage.ru_maxrss))
      .field("attempted", R.Attempted)
      .field("updates_attempted", R.UpdatesAttempted)
      .field("updates_applied", R.UpdatesApplied);
  J.key("work").beginArray();
  for (const auto &[Ops, Seconds] : R.Work)
    J.beginArray().value(Ops).value(Seconds).endArray();
  J.endArray();
  J.key("setup_s").beginArray();
  for (double S : R.SetupS)
    J.value(S);
  J.endArray();
  J.key("failures").beginArray();
  for (const std::string &F : R.Failures)
    J.value(F);
  J.endArray();
  J.key("updates").beginArray();
  for (const UpdateSample &S : R.Updates)
    J.beginObject()
        .field("label", S.Label)
        .field("status", updateStatusName(S.Status))
        .field("apply_ms", S.ApplyMs)
        .field("pause_ms", S.PauseMs)
        .field("drive_ticks", S.Ticks)
        .endObject();
  J.endArray();
  J.key("latency_ticks").beginArray();
  for (const auto &[Ticks, Count] : R.LatencyTicks)
    J.beginArray().value(Ticks).value(Count).endArray();
  J.endArray();
  J.key("spans");
  T.write(J);
  J.endObject();

  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << J.str() << '\n';
  Out.close();
  if (!Out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
    std::exit(1);
  }
}

} // namespace

int main(int Argc, char **Argv) {
  for (const char *Var : ForbiddenEnv)
    if (std::getenv(Var)) {
      std::fprintf(stderr,
                   "perfbench: refusing to run: %s is set and would change "
                   "the program under test; unset it\n",
                   Var);
      return 2;
    }
  if (Telemetry::global(), Telemetry::isEnabled()) {
    std::fprintf(stderr, "perfbench: refusing to run: telemetry is enabled\n");
    return 2;
  }

  Options O;
  std::string OutPath;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + Flag).c_str());
    std::string Val = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      O.Workload = Val;
    } else if (Flag == "--seed") {
      O.Seed = std::strtoull(Val.c_str(), &End, 10);
      HaveSeed = End && *End == '\0' && !Val.empty();
    } else if (Flag == "--seconds") {
      O.Seconds = std::strtod(Val.c_str(), &End);
      HaveSeconds = End && *End == '\0' && O.Seconds > 0 && O.Seconds <= 600;
    } else if (Flag == "--trace") {
      HaveTrace = Val == "0" || Val == "1";
      O.Trace = Val == "1";
    } else if (Flag == "--out") {
      OutPath = Val;
    } else {
      usage(("unknown flag " + Flag).c_str());
    }
  }
  if (!HaveSeed || !HaveSeconds || !HaveTrace || OutPath.empty())
    usage("--seed, --seconds (0 < s <= 600), --trace and --out are required");

  Tracer T(O.Trace);
  Results R;
  if (O.Workload == "table1_heap")
    runTable1Heap(O, T, R);
  else if (O.Workload == "jetty_serve")
    runJettyServe(O, T, R);
  else if (O.Workload == "release_stream")
    runReleaseStream(O, T, R);
  else
    usage(("unknown workload '" + O.Workload + "'").c_str());

  writeResults(OutPath, O, T, R);
  return 0;
}
