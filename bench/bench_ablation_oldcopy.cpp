//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation of the §3.5 old-copy-space optimization ("We could instead
/// copy the old versions to a special block of memory and reclaim it when
/// the collection completes"), implemented in this reproduction and the
/// default placement of old-version duplicates. The reference is the
/// paper's own placement, in to-space (UseOldCopySpace = false).
///
/// Compares, per update over N transformed objects:
///   - total DSU pause (the block keeps certification off the dead
///     duplicates),
///   - heap occupancy immediately after the update (the to-space
///     reference leaves the dead duplicates there until the *next*
///     collection),
///   - the cost of that deferred reclamation (the follow-up GC).
///
//===----------------------------------------------------------------------===//

#include "bytecode/Builder.h"
#include "dsu/Transformers.h"
#include "dsu/Updater.h"
#include "dsu/Upt.h"
#include "runtime/ObjectModel.h"
#include "support/TablePrinter.h"
#include "vm/VM.h"

#include <cstdio>

using namespace jvolve;

namespace {

ClassSet itemVersion(bool Extra) {
  ClassSet Set;
  ClassBuilder C("Item");
  C.field("a", "I");
  C.field("b", "I");
  C.field("link", "LItem;");
  if (Extra)
    C.field("c", "I");
  Set.add(C.build());
  ClassBuilder H("H");
  H.staticField("arr", "[LItem;");
  Set.add(H.build());
  return Set;
}

struct Sample {
  double PauseMs;
  size_t HeapAfterUpdate;
  double FollowupGcMs;
  uint64_t OldCopyBytes;
};

Sample runOnce(size_t NumObjects, bool UseOldCopySpace) {
  VM::Config Cfg;
  Cfg.HeapSpaceBytes = NumObjects * 120 + (4u << 20);
  VM TheVM(Cfg);
  TheVM.loadProgram(itemVersion(false));

  ClassRegistry &Reg = TheVM.registry();
  ClassId ItemId = Reg.idOf("Item");
  ClassId ArrId = Reg.arrayClassOf(Type::refTy("Item"));
  Ref Arr = TheVM.allocateArray(ArrId, static_cast<int64_t>(NumObjects));
  Reg.cls(Reg.idOf("H")).Statics[0] = Slot::ofRef(Arr);
  for (size_t I = 0; I < NumObjects; ++I) {
    Ref Obj = TheVM.allocateObject(ItemId);
    setIntAt(Obj, ObjectHeaderBytes, static_cast<int64_t>(I));
    Arr = Reg.cls(Reg.idOf("H")).Statics[0].RefVal;
    setRefAt(Arr, arrayElemOffset(static_cast<int64_t>(I)), Obj);
  }

  UpdateOptions Opts;
  Opts.UseOldCopySpace = UseOldCopySpace;
  Updater U(TheVM);
  UpdateResult R = U.applyNow(
      Upt::prepare(itemVersion(false), itemVersion(true), "v1"), Opts);
  if (R.Status != UpdateStatus::Applied) {
    std::fprintf(stderr, "oldcopy bench: update failed: %s\n",
                 R.Message.c_str());
    std::exit(1);
  }

  Sample S;
  S.PauseMs = R.TotalPauseMs;
  S.HeapAfterUpdate = TheVM.heap().bytesAllocated();
  S.OldCopyBytes = R.Gc.OldCopySpaceBytes;
  CollectionStats Followup = TheVM.collectGarbage();
  S.FollowupGcMs = Followup.GcMs;
  return S;
}

} // namespace

int main() {
  std::printf("=== §3.5 old-copy-space optimization ===\n\n");
  TablePrinter TP;
  TP.setHeader({"objects", "mode", "pause(ms)", "heap after (MB)",
                "next GC (ms)", "old-copy block (MB)"});
  for (size_t N : {100'000u, 400'000u}) {
    for (bool Mode : {false, true}) {
      Sample S = runOnce(N, Mode);
      TP.addRow({std::to_string(N),
                 Mode ? "old-copy block (default)"
                      : "to-space (paper's placement)",
                 TablePrinter::fmt(S.PauseMs, 1),
                 TablePrinter::fmt(S.HeapAfterUpdate / 1048576.0, 1),
                 TablePrinter::fmt(S.FollowupGcMs, 1),
                 TablePrinter::fmt(S.OldCopyBytes / 1048576.0, 1)});
    }
  }
  std::printf("%s\n", TP.render().c_str());
  std::printf("Shape: the dedicated block removes the dead duplicates "
              "from the heap immediately (lower post-update occupancy and "
              "a cheaper follow-up collection) and shortens the pause, "
              "whose certification walks only the live heap.\n");
  return 0;
}
