//===----------------------------------------------------------------------===//
///
/// \file
/// Cost of the update transaction: what does crash-safety buy, and what
/// does it cost? For growing object counts the bench measures
///
///   * apply (no cert)   — the plain five-step update pause: the pause of
///                         the next column less certification's share,
///   * apply (certified) — the same update's whole pause, with the
///                         mandatory post-update heap + registry
///                         certification,
///   * certification     — the certify pass alone,
///   * rollback          — the worst-case failed update: the object
///                         transformer faults on the *last* object, so the
///                         whole install, DSU collection, and N-1
///                         transformations must be undone.
///
/// Rollback cost should track heap size (the undo is a snapshot restore
/// plus a linear from-space walk clearing forwarding marks), and
/// certification should stay a small multiple of a plain GC trace.
///
/// Environment knobs: JVOLVE_ROLLBACK_TRIALS (default 3),
/// JVOLVE_ROLLBACK_QUICK=1 (drop the largest row).
///
//===----------------------------------------------------------------------===//

#include "bytecode/Builder.h"
#include "dsu/Transformers.h"
#include "dsu/Updater.h"
#include "dsu/Upt.h"
#include "support/FaultInjector.h"
#include "support/Stats.h"
#include "support/TablePrinter.h"
#include "vm/VM.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>
#include <memory>

using namespace jvolve;

namespace {

/// One updated class with three int fields; v2 adds a fourth.
ClassSet program(bool Updated) {
  ClassSet Set;
  ClassBuilder CB("Change");
  CB.field("i0", "I").field("i1", "I").field("i2", "I");
  if (Updated)
    CB.field("added", "I");
  Set.add(CB.build());
  ClassBuilder H("Holder");
  H.staticField("arr", "[LObject;");
  Set.add(H.build());
  return Set;
}

/// Builds a VM holding \p Count live Change instances behind Holder.arr.
std::unique_ptr<VM> populate(int Count) {
  VM::Config Cfg;
  Cfg.HeapSpaceBytes = 256u << 20;
  auto TheVM = std::make_unique<VM>(Cfg);
  TheVM->loadProgram(program(false));
  ClassRegistry &Reg = TheVM->registry();
  ClassId ChangeId = Reg.idOf("Change");
  ClassId ArrId = Reg.arrayClassOf(Type::refTy("Object"));
  Ref Arr = TheVM->allocateArray(ArrId, Count);
  Reg.cls(Reg.idOf("Holder")).Statics[0] = Slot::ofRef(Arr);
  TransformCtx Ctx(*TheVM, nullptr);
  for (int I = 0; I < Count; ++I)
    Ctx.setElemRef(Arr, I, TheVM->allocateObject(ChangeId));
  return TheVM;
}

/// One update of \p Count objects; with \p FailLast, the transformer
/// faults on the last one.
UpdateResult applyOnce(int Count, bool FailLast) {
  std::unique_ptr<VM> TheVM = populate(Count);
  if (FailLast)
    TheVM->faults().arm(FaultInjector::Site::TransformerNthObject, /*Fire=*/1,
                        /*Skip=*/static_cast<uint64_t>(Count) - 1);
  Updater U(*TheVM);
  UpdateResult R =
      U.applyNow(Upt::prepare(program(false), program(true), "v1"));
  UpdateStatus Want =
      FailLast ? UpdateStatus::FailedTransformer : UpdateStatus::Applied;
  if (R.Status != Want) {
    std::fprintf(stderr, "unexpected status %s: %s\n",
                 updateStatusName(R.Status), R.Message.c_str());
    std::exit(1);
  }
  return R;
}

} // namespace

int main() {
  int Trials = 3;
  if (const char *E = std::getenv("JVOLVE_ROLLBACK_TRIALS"))
    Trials = std::atoi(E);
  bool Quick = std::getenv("JVOLVE_ROLLBACK_QUICK") != nullptr;

  std::printf("=== Update-transaction cost: apply vs certify vs rollback "
              "(%d trials, median) ===\n",
              Trials);
  TablePrinter TP;
  TP.setHeader({"objects", "apply(ms)", "apply+cert(ms)", "cert(ms)",
                "rollback total(ms)", "undo(ms)"});

  for (int Count : {10'000, 100'000, 400'000}) {
    if (Quick && Count == 400'000)
      break;
    std::vector<double> Apply, ApplyCert, Cert, RollTotal, Undo;
    for (int T = 0; T < Trials; ++T) {
      UpdateResult Applied = applyOnce(Count, /*FailLast=*/false);
      Apply.push_back(Applied.TotalPauseMs - Applied.CertifyMs);
      ApplyCert.push_back(Applied.TotalPauseMs);
      Cert.push_back(Applied.CertifyMs);
      UpdateResult Failed = applyOnce(Count, /*FailLast=*/true);
      RollTotal.push_back(Failed.TotalPauseMs);
      Undo.push_back(Failed.RollbackMs);
    }
    TP.addRow({std::to_string(Count),
               TablePrinter::fmt(summarizeQuartiles(Apply).Median, 2),
               TablePrinter::fmt(summarizeQuartiles(ApplyCert).Median, 2),
               TablePrinter::fmt(summarizeQuartiles(Cert).Median, 2),
               TablePrinter::fmt(summarizeQuartiles(RollTotal).Median, 2),
               TablePrinter::fmt(summarizeQuartiles(Undo).Median, 2)});
  }
  std::printf("%s", TP.render().c_str());
  std::printf("rollback total includes the doomed install + DSU collection "
              "+ N-1 transformations; undo is the snapshot restore alone.\n");
  return 0;
}
