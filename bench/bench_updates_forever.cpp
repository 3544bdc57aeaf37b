//===----------------------------------------------------------------------===//
///
/// \file
/// Updates forever: one Jetty 5.1.5 server (512 KiB semispaces, 200k-tick
/// warm-up under load) takes 300 stacked updates 5.1.5 <-> 5.1.6, with
/// 20k ticks of open-loop load between them. Every update leaves the
/// classes it replaced in the registry as obsolete versions, so the
/// registry grows by a few classes per update.
///
/// For the first and the last 50 updates the bench prints the registry
/// size and process RSS at the end of the window, and the median
/// snapshot, classload, certify and total pause spans (telemetry's
/// dsu.update.phase_ms histograms). The registry bookkeeping inside the
/// pause (the transaction's snapshot and the registry half of
/// certification) covers what each update wrote, so it stays flat while
/// the registry grows. The total pause and the RSS still grow: step 4d
/// walks every method, the static root scan visits every obsolete version
/// of a class with reference statics, and nothing reclaims obsolete
/// classes yet.
///
///   bench_updates_forever [--check]
///
/// --check exits 1 unless every update applied and the last 50 updates'
/// median snapshot + certify is at most 1.25 x the first 50's + 0.005 ms.
///
//===----------------------------------------------------------------------===//

#include "apps/JettyApp.h"
#include "apps/Workload.h"
#include "dsu/Updater.h"
#include "dsu/Upt.h"
#include "support/Stats.h"
#include "support/TablePrinter.h"
#include "support/Telemetry.h"

#include <cstdio>
#include <cstring>
#include <unistd.h>

using namespace jvolve;

namespace {

constexpr size_t V515 = 5; // makeJettyApp: version 5 is 5.1.5
constexpr size_t V516 = 6;
constexpr int Updates = 300;
constexpr int Window = 50;
constexpr uint64_t WarmupTicks = 200'000;
constexpr uint64_t LoadTicks = 20'000;

/// The pause spans of one update, plus the registry and the process right
/// after it.
struct Sample {
  double SnapshotMs = 0, ClassLoadMs = 0, CertifyMs = 0, TotalMs = 0;
  size_t Classes = 0;
  double RssMiB = 0;
};

double phaseMs(const char *Phase) {
  const TelHistogram *H =
      Telemetry::global().findHistogram(metrics::dsuPhaseMs(Phase));
  return H ? H->sum() : 0.0;
}

double residentMiB() {
  long Pages = 0, Resident = 0;
  std::FILE *F = std::fopen("/proc/self/statm", "r");
  if (!F)
    return 0;
  if (std::fscanf(F, "%ld %ld", &Pages, &Resident) != 2)
    Resident = 0;
  std::fclose(F);
  return static_cast<double>(Resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// Medians of one window of samples.
struct WindowSummary {
  Sample Median;
  size_t Classes = 0;
  double RssMiB = 0;
};

WindowSummary summarize(const std::vector<Sample> &All, size_t Begin) {
  std::vector<double> Snapshot, ClassLoad, Certify, Total;
  for (size_t I = Begin; I < Begin + Window; ++I) {
    Snapshot.push_back(All[I].SnapshotMs);
    ClassLoad.push_back(All[I].ClassLoadMs);
    Certify.push_back(All[I].CertifyMs);
    Total.push_back(All[I].TotalMs);
  }
  WindowSummary W;
  W.Median.SnapshotMs = percentile(Snapshot, 50);
  W.Median.ClassLoadMs = percentile(ClassLoad, 50);
  W.Median.CertifyMs = percentile(Certify, 50);
  W.Median.TotalMs = percentile(Total, 50);
  W.Classes = All[Begin + Window - 1].Classes;
  W.RssMiB = All[Begin + Window - 1].RssMiB;
  return W;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Check = Argc > 1 && std::strcmp(Argv[1], "--check") == 0;
  Telemetry::global().setEnabled(true);

  AppModel App = makeJettyApp();
  VM::Config Cfg;
  Cfg.HeapSpaceBytes = 512u << 10;
  VM V(Cfg);
  V.loadProgram(App.version(V515));
  startJettyThreads(V);
  // Open-loop arrivals: a 5-request connection every 200 ticks, about the
  // rate perfbench's jetty_serve offers.
  LoadDriver::Options LO;
  LO.Port = JettyPort;
  LO.ConnectionsPerBatch = 1;
  LO.RequestsPerConnection = 5;
  LO.BatchInterval = 200;
  LoadDriver Load(V, LO);
  Load.runWithLoad(WarmupTicks);

  std::vector<Sample> Samples;
  size_t Current = V515;
  int Failed = 0;
  for (int N = 0; N < Updates; ++N) {
    size_t Target = Current == V515 ? V516 : V515;
    UpdateBundle B = Upt::prepare(V.program(), App.version(Target),
                                  "u" + std::to_string(N));
    Telemetry::global().reset();
    UpdateResult R = Updater(V).applyNow(std::move(B));
    if (R.Status != UpdateStatus::Applied) {
      std::fprintf(stderr, "update #%d %s: %s\n", N,
                   updateStatusName(R.Status), R.Message.c_str());
      ++Failed;
    } else {
      Current = Target;
    }
    Sample S;
    S.SnapshotMs = phaseMs("snapshot");
    S.ClassLoadMs = phaseMs("classload");
    S.CertifyMs = phaseMs("certify");
    S.TotalMs = phaseMs("total");
    S.Classes = V.registry().numClasses();
    S.RssMiB = residentMiB();
    Samples.push_back(S);
    Load.runWithLoad(LoadTicks);
  }

  WindowSummary First = summarize(Samples, 0);
  WindowSummary Last = summarize(Samples, Updates - Window);
  std::printf("=== Updates forever: %d stacked Jetty 5.1.5 <-> 5.1.6 "
              "updates on one server ===\n\n",
              Updates);
  TablePrinter TP;
  TP.setHeader({"updates", "registry classes", "RSS(MiB)", "snapshot(ms)",
                "classload(ms)", "certify(ms)", "total(ms)"});
  auto Row = [&](const char *Name, const WindowSummary &W) {
    TP.addRow({Name, std::to_string(W.Classes), TablePrinter::fmt(W.RssMiB, 1),
               TablePrinter::fmt(W.Median.SnapshotMs, 3),
               TablePrinter::fmt(W.Median.ClassLoadMs, 3),
               TablePrinter::fmt(W.Median.CertifyMs, 3),
               TablePrinter::fmt(W.Median.TotalMs, 3)});
  };
  Row("first 50", First);
  Row("last 50", Last);
  std::printf("%s\n", TP.render().c_str());
  std::printf("(medians per window; classes and RSS at the window's end)\n");
  std::printf("The total pause and the RSS still grow with every update: "
              "step 4d walks every method, the static root scan visits "
              "every obsolete version of a class with reference statics, "
              "and obsolete classes stay until reclamation lands.\n");

  double FirstBook = First.Median.SnapshotMs + First.Median.CertifyMs;
  double LastBook = Last.Median.SnapshotMs + Last.Median.CertifyMs;
  double Bound = 1.25 * FirstBook + 0.005;
  bool Flat = LastBook <= Bound;
  std::printf("Registry bookkeeping (snapshot + certify): %.4f ms -> "
              "%.4f ms over %zu -> %zu classes (bound %.4f ms): %s\n",
              FirstBook, LastBook, First.Classes, Last.Classes, Bound,
              Flat ? "flat" : "GROWS");
  if (Failed)
    std::printf("%d update(s) did not apply\n", Failed);
  if (!Check)
    return 0;
  return Flat && Failed == 0 ? 0 : 1;
}
