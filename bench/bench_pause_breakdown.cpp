//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates the §4.1 cost-breakdown claims: "the time to suspend
/// threads and check that the application is in a safe-point is less than
/// a millisecond, and classloading time is usually less than 20 ms.
/// Therefore the update disruption time is primarily due to the GC and
/// object transformers."
///
/// Phase timings come from the telemetry registry — the
/// dsu.update.phase_ms{phase=...} histograms the updater populates — and
/// every row is cross-checked against the UpdateResult fields the updater
/// measures with its own per-phase timers, so the two observability paths
/// must agree. For every applied update of all three application streams,
/// prints the phase breakdown (snapshot / classload / stack repair / GC /
/// transformers / heap certification, which sum to the total) plus the
/// time-to-safe-point in virtual ticks, and checks the paper's ordering:
/// install overheads are small, GC+transform dominate whenever objects are
/// transformed.
///
//===----------------------------------------------------------------------===//

#include "apps/CrossFtpApp.h"
#include "apps/EmailApp.h"
#include "apps/Evaluation.h"
#include "apps/JettyApp.h"
#include "bytecode/Builder.h"
#include "dsu/Updater.h"
#include "dsu/Upt.h"
#include "runtime/ObjectModel.h"
#include "support/TablePrinter.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

using namespace jvolve;

namespace {

/// Phase timings of the most recent update, read back from the telemetry
/// registry (reset before each update so each histogram holds one sample).
struct PhaseTimings {
  double SnapshotMs = 0;
  double ClassLoadMs = 0;
  double StackRepairMs = 0;
  double GcMs = 0;
  double TransformMs = 0;
  double CertifyMs = 0;
  double TotalMs = 0;
  /// The total minus every phase span: the bookkeeping after the last
  /// mark, which the columns leave out.
  double UntiledMs = 0;
};

PhaseTimings readPhaseTimings() {
  auto Sum = [](const char *Phase) {
    const TelHistogram *H =
        Telemetry::global().findHistogram(metrics::dsuPhaseMs(Phase));
    return H ? H->sum() : 0.0;
  };
  PhaseTimings T;
  T.SnapshotMs = Sum("snapshot");
  T.ClassLoadMs = Sum("classload");
  T.StackRepairMs = Sum("stack_repair");
  T.GcMs = Sum("gc");
  T.TransformMs = Sum("transform");
  T.CertifyMs = Sum("certify");
  T.TotalMs = Sum("total");
  T.UntiledMs = T.TotalMs - T.SnapshotMs - T.ClassLoadMs - T.StackRepairMs -
                T.GcMs - T.TransformMs - T.CertifyMs;
  return T;
}

/// The telemetry phase spans and the updater's own timers measure the
/// same pause with different instruments; the span additionally carries
/// the small bookkeeping between marks, so agreement is approximate.
bool agree(double TelemetryMs, double ResultMs) {
  return std::fabs(TelemetryMs - ResultMs) <=
         0.75 + 0.25 * std::max(TelemetryMs, ResultMs);
}

/// A populated update (100 k live objects of the updated class), since the
/// application-model updates transform at most a handful of objects — the
/// paper's "GC and transformers dominate" claim is about populated heaps.
UpdateResult populatedUpdate() {
  auto Version = [](bool Extra) {
    ClassSet Set;
    ClassBuilder C("Rec");
    C.field("a", "I");
    C.field("b", "I");
    if (Extra)
      C.field("c", "I");
    Set.add(C.build());
    ClassBuilder H("H");
    H.staticField("arr", "[LRec;");
    Set.add(H.build());
    return Set;
  };
  VM::Config Cfg;
  Cfg.HeapSpaceBytes = 64u << 20;
  VM TheVM(Cfg);
  TheVM.loadProgram(Version(false));
  ClassRegistry &Reg = TheVM.registry();
  constexpr int64_t N = 100'000;
  Ref Arr = TheVM.allocateArray(Reg.arrayClassOf(Type::refTy("Rec")), N);
  Reg.cls(Reg.idOf("H")).Statics[0] = Slot::ofRef(Arr);
  ClassId RecId = Reg.idOf("Rec");
  for (int64_t I = 0; I < N; ++I) {
    Ref Obj = TheVM.allocateObject(RecId);
    Arr = Reg.cls(Reg.idOf("H")).Statics[0].RefVal;
    setRefAt(Arr, arrayElemOffset(I), Obj);
  }
  Updater U(TheVM);
  return U.applyNow(Upt::prepare(Version(false), Version(true), "v1"));
}

} // namespace

int main() {
  Telemetry::global().setEnabled(true);
  std::printf("=== Update pause breakdown (paper §4.1) ===\n");
  std::printf("(phase timings from the telemetry registry, cross-checked "
              "against UpdateResult)\n\n");
  TablePrinter TP;
  TP.setHeader({"Update", "snapshot(ms)", "classload(ms)",
                "stack_repair(ms)", "GC(ms)", "transform(ms)", "certify(ms)",
                "total(ms)", "objects", "ticks-to-safe-point", "sources"});

  AppModel Apps[] = {makeJettyApp(), makeEmailApp(), makeCrossFtpApp()};
  double MaxClassLoad = 0, MaxUntiled = 0;
  int Rows = 0, Agreements = 0;
  auto AddRow = [&](const std::string &Name, const UpdateResult &U,
                    const PhaseTimings &T) {
    bool Agrees = agree(T.ClassLoadMs, U.ClassLoadMs) &&
                  agree(T.GcMs, U.GcMs) &&
                  agree(T.TransformMs, U.TransformMs) &&
                  agree(T.CertifyMs, U.CertifyMs) &&
                  agree(T.TotalMs, U.TotalPauseMs);
    ++Rows;
    Agreements += Agrees;
    TP.addRow({Name, TablePrinter::fmt(T.SnapshotMs, 3),
               TablePrinter::fmt(T.ClassLoadMs, 3),
               TablePrinter::fmt(T.StackRepairMs, 3),
               TablePrinter::fmt(T.GcMs, 3),
               TablePrinter::fmt(T.TransformMs, 3),
               TablePrinter::fmt(T.CertifyMs, 3),
               TablePrinter::fmt(T.TotalMs, 3),
               std::to_string(U.ObjectsTransformed),
               std::to_string(U.TicksToSafePoint),
               Agrees ? "agree" : "DISAGREE"});
    MaxClassLoad = std::max(MaxClassLoad, T.ClassLoadMs);
    MaxUntiled = std::max(MaxUntiled, std::fabs(T.UntiledMs));
  };
  for (const AppModel &App : Apps) {
    for (size_t V = 1; V < App.numVersions(); ++V) {
      Telemetry::global().reset();
      ReleaseOutcome R = evaluateRelease(App, V);
      if (R.Result.Status == UpdateStatus::Applied)
        AddRow(App.name() + " " + R.Version, R.Result, readPhaseTimings());
    }
  }
  Telemetry::global().reset();
  UpdateResult Populated = populatedUpdate();
  PhaseTimings PopulatedT = readPhaseTimings();
  AddRow("microbench (100k objects)", Populated, PopulatedT);

  std::printf("%s\n", TP.render().c_str());
  std::printf("Cross-check: telemetry phase spans agree with the updater's "
              "own timers on %d of %d updates\n",
              Agreements, Rows);
  std::printf("Tiling: the phase columns sum to the total within %.3f ms "
              "on every row\n",
              MaxUntiled);
  std::printf("Shape: max classloading time %.3f ms (paper: usually "
              "< 20 ms)\n",
              MaxClassLoad);
  double GcTransformShare = (PopulatedT.GcMs + PopulatedT.TransformMs) /
                            std::max(PopulatedT.TotalMs, 1e-6);
  std::printf("Shape: on the populated heap, GC + transformers are %.0f%% "
              "of the total pause: %s (paper: 'disruption time is "
              "primarily due to the GC and object transformers')\n",
              100 * GcTransformShare, GcTransformShare > 0.5 ? "yes" : "no");
  return Agreements == Rows ? 0 : 1;
}
