//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates **Table 1** and **Figure 6** of the paper: Jvolve update
/// pause time broken into garbage-collection time and transformer-running
/// time, as a function of heap size (object count) and the fraction of
/// objects being transformed. Our pause also contains post-update heap
/// certification and the install phases before the collection (snapshot,
/// class loading, stack repair), each printed as its own group, so the
/// groups sum to the total.
///
/// The microbenchmark is the paper's (§4.1): two classes, Change and
/// NoChange, each with three integer fields and three (null) reference
/// fields; the update adds an integer field to Change; the object
/// transformer copies the existing fields and zero-initializes the new one.
/// Object counts match the paper's rows (280 k, 770 k, 1.76 M, 3.67 M).
/// Absolute milliseconds differ from the paper's 2009 hardware; the shape —
/// pause grows with heap size and with the updated fraction, the
/// transformer line is steeper than the GC line, and the 100%-updated pause
/// is roughly 4x the 0% pause — is the reproduction target.
///
/// Environment knobs: JVOLVE_TABLE1_TRIALS (default 3, paper used 21),
/// JVOLVE_TABLE1_QUICK=1 (drop the two largest rows).
///
//===----------------------------------------------------------------------===//

#include "bytecode/Builder.h"
#include "dsu/Transformers.h"
#include "dsu/Updater.h"
#include "dsu/Upt.h"
#include "runtime/ObjectModel.h"
#include "support/TablePrinter.h"
#include "support/Telemetry.h"
#include "vm/VM.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace jvolve;

namespace {

/// The microbenchmark program: Change and NoChange with 3 int + 3 ref
/// fields; \p Updated adds the int field the update introduces.
ClassSet microProgram(bool Updated) {
  ClassSet Set;
  for (const char *Name : {"Change", "NoChange"}) {
    ClassBuilder CB(Name);
    CB.field("i0", "I").field("i1", "I").field("i2", "I");
    CB.field("r0", "LObject;").field("r1", "LObject;").field("r2",
                                                             "LObject;");
    if (Updated && std::string(Name) == "Change")
      CB.field("added", "I");
    Set.add(CB.build());
  }
  ClassBuilder H("Holder");
  H.staticField("arr", "[LObject;");
  Set.add(H.build());
  return Set;
}

struct CellResult {
  // Phase timings read back from the telemetry registry's
  // dsu.update.phase_ms{phase=...} histograms, in pause order.
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
  // Whether the telemetry spans agreed with the UpdateResult's own timers.
  bool Agrees = true;
};

/// Sum of the named update-phase histogram (one sample per trial, since
/// the registry is reset before each update).
double phaseSum(const char *Phase) {
  const TelHistogram *H =
      Telemetry::global().findHistogram(metrics::dsuPhaseMs(Phase));
  return H ? H->sum() : 0.0;
}

/// Approximate agreement: the span carries the small bookkeeping between
/// phase marks that the updater's dedicated timers exclude.
bool agree(double TelemetryMs, double ResultMs) {
  return std::fabs(TelemetryMs - ResultMs) <=
         0.75 + 0.25 * std::max(TelemetryMs, ResultMs);
}

/// One trial: build a fresh VM holding \p NumObjects objects of which
/// \p Fraction are Change instances, then apply the update and report the
/// pause breakdown.
CellResult runTrial(size_t NumObjects, double Fraction) {
  // Object: 16-byte header + 6 (or 7) 8-byte fields. Size the semi-spaces
  // generously: a DSU collection needs room for the old duplicate and the
  // new version of every transformed object.
  size_t LiveBytes = NumObjects * 80 + NumObjects * 8 + (1u << 20);
  VM::Config Cfg;
  Cfg.HeapSpaceBytes = LiveBytes * 5 / 2;

  VM TheVM(Cfg);
  TheVM.loadProgram(microProgram(false));

  ClassRegistry &Reg = TheVM.registry();
  ClassId ChangeId = Reg.idOf("Change");
  ClassId NoChangeId = Reg.idOf("NoChange");
  ClassId ArrCls = Reg.arrayClassOf(Type::refTy("Object"));

  Ref Arr = TheVM.allocateArray(ArrCls, static_cast<int64_t>(NumObjects));
  RtClass &Holder = Reg.cls(Reg.idOf("Holder"));
  Holder.Statics[0] = Slot::ofRef(Arr);

  size_t NumChanged = static_cast<size_t>(Fraction * NumObjects + 0.5);
  for (size_t I = 0; I < NumObjects; ++I) {
    Ref Obj = TheVM.allocateObject(I < NumChanged ? ChangeId : NoChangeId);
    const RtClass &C = Reg.cls(classOf(Obj));
    setIntAt(Obj, C.InstanceFields[0].Offset, static_cast<int64_t>(I));
    setIntAt(Obj, C.InstanceFields[1].Offset, 2 * static_cast<int64_t>(I));
    // Re-read the array root: allocation may have triggered a collection.
    Arr = Holder.Statics[0].RefVal;
    setRefAt(Arr, arrayElemOffset(static_cast<int64_t>(I)), Obj);
  }

  // The paper's user-provided transformer: copy the existing fields and
  // initialize the new one to zero.
  UpdateBundle B = Upt::prepare(microProgram(false), microProgram(true),
                                "v1");
  B.ObjectTransformers["Change"] = [](TransformCtx &Ctx, Ref To, Ref From) {
    Ctx.setInt(To, "i0", Ctx.getInt(From, "i0"));
    Ctx.setInt(To, "i1", Ctx.getInt(From, "i1"));
    Ctx.setInt(To, "i2", Ctx.getInt(From, "i2"));
    Ctx.setRef(To, "r0", Ctx.getRef(From, "r0"));
    Ctx.setRef(To, "r1", Ctx.getRef(From, "r1"));
    Ctx.setRef(To, "r2", Ctx.getRef(From, "r2"));
    Ctx.setInt(To, "added", 0);
  };

  Updater U(TheVM);
  Telemetry::global().reset();
  UpdateResult R = U.applyNow(std::move(B));
  if (R.Status != UpdateStatus::Applied) {
    std::fprintf(stderr, "table1: update failed: %s\n", R.Message.c_str());
    std::exit(1);
  }

  CellResult Cell;
  Cell.SnapshotMs = phaseSum("snapshot");
  Cell.ClassLoadMs = phaseSum("classload");
  Cell.StackRepairMs = phaseSum("stack_repair");
  Cell.GcMs = phaseSum("gc");
  Cell.TransformMs = phaseSum("transform");
  Cell.CertifyMs = phaseSum("certify");
  Cell.TotalMs = phaseSum("total");
  Cell.UntiledMs = Cell.TotalMs - Cell.SnapshotMs - Cell.ClassLoadMs -
                   Cell.StackRepairMs - Cell.GcMs - Cell.TransformMs -
                   Cell.CertifyMs;
  Cell.Agrees = agree(Cell.GcMs, R.GcMs) &&
                agree(Cell.TransformMs, R.TransformMs) &&
                agree(Cell.CertifyMs, R.CertifyMs) &&
                agree(Cell.TotalMs, R.TotalPauseMs);
  return Cell;
}

int envInt(const char *Name, int Default) {
  const char *V = std::getenv(Name);
  return V ? std::atoi(V) : Default;
}

} // namespace

int main() {
  Telemetry::global().setEnabled(true);
  int Trials = envInt("JVOLVE_TABLE1_TRIALS", 3);
  bool Quick = envInt("JVOLVE_TABLE1_QUICK", 0) != 0;

  // The paper's rows: object counts and the heap sizes they correspond to
  // on its platform (our per-object footprint differs; we report ours).
  struct Row {
    size_t Objects;
    const char *PaperHeap;
  };
  std::vector<Row> Rows = {{280'000, "160 MB"},
                           {770'000, "320 MB"},
                           {1'760'000, "640 MB"},
                           {3'670'000, "1280 MB"}};
  if (Quick)
    Rows.resize(2);

  std::vector<double> Fractions;
  for (int F = 0; F <= 100; F += 10)
    Fractions.push_back(F / 100.0);

  std::printf("=== Table 1: JVOLVE update pause time (ms) ===\n");
  std::printf("(microbenchmark of paper §4.1; %d trial(s) per cell, the "
              "trial with the median total pause reported)\n\n",
              Trials);

  // Collect all cells first, then print the groups like the paper.
  std::vector<std::vector<CellResult>> Cells(Rows.size());
  int TrialCount = 0, TrialAgreements = 0;
  for (size_t RI = 0; RI < Rows.size(); ++RI) {
    for (double F : Fractions) {
      std::vector<CellResult> Runs;
      for (int T = 0; T < Trials; ++T) {
        Runs.push_back(runTrial(Rows[RI].Objects, F));
        ++TrialCount;
        TrialAgreements += Runs.back().Agrees;
      }
      // One whole trial, so its phase columns sum to its total.
      auto Median = Runs.begin() + (Runs.size() - 1) / 2;
      std::nth_element(Runs.begin(), Median, Runs.end(),
                       [](const CellResult &A, const CellResult &B) {
                         return A.TotalMs < B.TotalMs;
                       });
      Cells[RI].push_back(*Median);
    }
  }

  auto PrintGroup = [&](const char *Title, double CellResult::*Member) {
    std::printf("--- %s ---\n", Title);
    TablePrinter TP;
    std::vector<std::string> Header = {"# objects", "paper heap"};
    for (int F = 0; F <= 100; F += 10)
      Header.push_back(std::to_string(F) + "%");
    TP.setHeader(Header);
    for (size_t RI = 0; RI < Rows.size(); ++RI) {
      std::vector<std::string> RowCells = {std::to_string(Rows[RI].Objects),
                                           Rows[RI].PaperHeap};
      for (const CellResult &C : Cells[RI])
        RowCells.push_back(TablePrinter::fmt(C.*Member, 1));
      TP.addRow(RowCells);
    }
    std::printf("%s\n", TP.render().c_str());
  };

  PrintGroup("Snapshot (ms)", &CellResult::SnapshotMs);
  PrintGroup("Class loading (ms)", &CellResult::ClassLoadMs);
  PrintGroup("Stack repair (ms)", &CellResult::StackRepairMs);
  PrintGroup("Garbage collection time (ms)", &CellResult::GcMs);
  PrintGroup("Running transformation functions (ms)",
             &CellResult::TransformMs);
  PrintGroup("Heap certification (ms)", &CellResult::CertifyMs);
  PrintGroup("Total DSU pause time (ms)", &CellResult::TotalMs);

  // Figure 6: the largest row as a series.
  const std::vector<CellResult> &Fig6 = Cells.back();
  std::printf("=== Figure 6: pause times at %zu objects ===\n",
              Rows.back().Objects);
  std::printf("%-9s %9s %10s %13s %9s %15s %13s %11s\n", "fraction",
              "snapshot", "classload", "stack_repair", "GC", "transform",
              "certify", "total (ms)");
  for (size_t I = 0; I < Fig6.size(); ++I)
    std::printf("%-9s %9.1f %10.1f %13.1f %9.1f %15.1f %13.1f %11.1f\n",
                (std::to_string(I * 10) + "%").c_str(), Fig6[I].SnapshotMs,
                Fig6[I].ClassLoadMs, Fig6[I].StackRepairMs, Fig6[I].GcMs,
                Fig6[I].TransformMs, Fig6[I].CertifyMs, Fig6[I].TotalMs);

  // Shape checks the paper calls out.
  const CellResult &AllUpdated = Fig6.back();
  const CellResult &NoneUpdated = Fig6.front();
  double Ratio = AllUpdated.TotalMs / std::max(NoneUpdated.TotalMs, 1e-9);
  std::printf("\nShape: total pause at 100%% / 0%% updated = %.2fx "
              "(paper: ~4x)\n",
              Ratio);
  std::printf("Shape: transformer slope steeper than GC slope: %s\n",
              (AllUpdated.TransformMs - NoneUpdated.TransformMs) >
                      (AllUpdated.GcMs - NoneUpdated.GcMs)
                  ? "yes (matches paper)"
                  : "no");
  std::printf("Cross-check: telemetry phase spans agree with the updater's "
              "own timers on %d of %d trials\n",
              TrialAgreements, TrialCount);
  double MaxUntiled = 0;
  for (const std::vector<CellResult> &Row : Cells)
    for (const CellResult &C : Row)
      MaxUntiled = std::max(MaxUntiled, std::fabs(C.UntiledMs));
  std::printf("Tiling: the phase columns sum to the total within %.3f ms in "
              "every reported cell\n",
              MaxUntiled);
  return TrialAgreements == TrialCount ? 0 : 1;
}
