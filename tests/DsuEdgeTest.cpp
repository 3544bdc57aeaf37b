//===----------------------------------------------------------------------===//
///
/// \file
/// DSU edge cases beyond the core scenarios: garbage collection after an
/// update reclaims the duplicate old copies, obsolete statics are dropped,
/// updates with pinned host roots, deep object graphs, method-deletion
/// restriction, update-in-flight exclusivity, and semantic equivalence of
/// the indirection execution mode.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "dsu/Transformers.h"
#include "dsu/Updater.h"
#include "dsu/Upt.h"
#include "runtime/ObjectModel.h"

#include <gtest/gtest.h>

using namespace jvolve;
using namespace jvolve::test;

namespace {

ClassSet chainVersion(bool Extra) {
  ClassSet Set;
  ClassBuilder N("Link");
  N.field("v", "I");
  N.field("next", "LLink;");
  if (Extra)
    N.field("extra", "I");
  Set.add(N.build());
  ClassBuilder H("H");
  H.staticField("head", "LLink;");
  Set.add(H.build());
  return Set;
}

/// Builds a chain of \p N Link objects rooted in H.head.
void buildChain(VM &TheVM, int N) {
  ClassRegistry &Reg = TheVM.registry();
  ClassId LinkId = Reg.idOf("Link");
  TransformCtx Ctx(TheVM, nullptr);
  Ref Head = nullptr;
  for (int I = 0; I < N; ++I) {
    Ref Obj = TheVM.allocateObject(LinkId);
    Ctx.setInt(Obj, "v", I);
    Ctx.setRef(Obj, "next", Head);
    Head = Obj;
    // Allocation may move earlier nodes only at a GC; protect via static.
    Reg.cls(Reg.idOf("H")).Statics[0] = Slot::ofRef(Head);
  }
}

int64_t chainSum(VM &TheVM) {
  ClassRegistry &Reg = TheVM.registry();
  TransformCtx Ctx(TheVM, nullptr);
  Ref Cur = Reg.cls(Reg.idOf("H")).Statics[0].RefVal;
  int64_t Sum = 0;
  while (Cur) {
    Sum += Ctx.getInt(Cur, "v");
    Cur = Ctx.getRef(Cur, "next");
  }
  return Sum;
}

} // namespace

TEST_EAGER_AND_LAZY(DsuEdge, DeepGraphFullyTransformed) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(chainVersion(false));
  buildChain(TheVM, 500);
  ASSERT_EQ(chainSum(TheVM), 499 * 500 / 2);

  Updater U(TheVM);
  UpdateResult R = U.applyNow(
      Upt::prepare(chainVersion(false), chainVersion(true), "v1"),
      modeOptions(Lazy));
  ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
  EXPECT_EQ(R.ObjectsTransformed, 500u);
  EXPECT_EQ(chainSum(TheVM), 499 * 500 / 2);
}

TEST_EAGER_AND_LAZY(DsuEdge, OldCopiesReclaimedByNextCollection) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(chainVersion(false));
  buildChain(TheVM, 100);

  // The to-space placement of old duplicates (the default puts them in the
  // old-copy block, released with the update).
  UpdateOptions Opts = modeOptions(Lazy);
  Opts.UseOldCopySpace = false;
  Updater U(TheVM);
  UpdateResult R = U.applyNow(
      Upt::prepare(chainVersion(false), chainVersion(true), "v1"), Opts);
  ASSERT_EQ(R.Status, UpdateStatus::Applied);

  // Right after the update, both new versions and old duplicates occupy
  // the heap; the next collection reclaims the duplicates.
  size_t AfterUpdate = TheVM.heap().bytesAllocated();
  CollectionStats St = TheVM.collectGarbage();
  EXPECT_LT(TheVM.heap().bytesAllocated(), AfterUpdate);
  // Live: 100 new Links (Link has 3 fields + header = 40B) vs the update
  // kept 100 old copies (32B) around too.
  EXPECT_EQ(St.ObjectsRemapped, 0u);
  EXPECT_EQ(chainSum(TheVM), 99 * 100 / 2);
}

TEST_EAGER_AND_LAZY(DsuEdge, PinnedHostRootsSurviveUpdates) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(chainVersion(false));
  ClassId LinkId = TheVM.registry().idOf("Link");
  Ref Obj = TheVM.allocateObject(LinkId);
  {
    TransformCtx Ctx(TheVM, nullptr);
    Ctx.setInt(Obj, "v", 77);
  }
  TheVM.pinnedRoots().push_back(Obj);

  Updater U(TheVM);
  ASSERT_EQ(U.applyNow(Upt::prepare(chainVersion(false), chainVersion(true),
                                    "v1"),
                       modeOptions(Lazy))
                .Status,
            UpdateStatus::Applied);

  Ref Moved = TheVM.pinnedRoots().back();
  ASSERT_NE(Moved, nullptr);
  // The pinned object was transformed to the new class.
  EXPECT_EQ(classOf(Moved), TheVM.registry().idOf("Link"));
  TransformCtx Ctx(TheVM, nullptr);
  EXPECT_EQ(Ctx.getInt(Moved, "v"), 77);
  EXPECT_EQ(Ctx.getInt(Moved, "extra"), 0);
  TheVM.pinnedRoots().clear();
}

TEST_EAGER_AND_LAZY(DsuEdge, ObsoleteStaticsDroppedAfterUpdate) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(chainVersion(false));
  buildChain(TheVM, 10);
  ClassId OldH = TheVM.registry().idOf("H");

  // Update changes H itself (class update with a static): the old H's
  // statics must not keep objects alive afterwards.
  ClassSet V2 = chainVersion(true);
  V2.find("H")->Fields.push_back({"pad", "I", false, false,
                                  Access::Public});
  Updater U(TheVM);
  ASSERT_EQ(
      U.applyNow(Upt::prepare(chainVersion(false), V2, "v1"), modeOptions(Lazy))
          .Status,
      UpdateStatus::Applied);

  RtClass &Old = TheVM.registry().cls(OldH);
  EXPECT_TRUE(Old.Obsolete);
  for (const Slot &S : Old.Statics)
    if (S.IsRef) {
      EXPECT_EQ(S.RefVal, nullptr);
    }
  // The new H carried the head over (default class transformer).
  EXPECT_EQ(chainSum(TheVM), 45);
}

TEST_EAGER_AND_LAZY(DsuEdge, ProgramAccessorReflectsCurrentVersion) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(chainVersion(false));
  EXPECT_EQ(TheVM.program().find("Link")->Fields.size(), 2u);
  Updater U(TheVM);
  ASSERT_EQ(U.applyNow(Upt::prepare(chainVersion(false), chainVersion(true),
                                    "v1"),
                       modeOptions(Lazy))
                .Status,
            UpdateStatus::Applied);
  EXPECT_EQ(TheVM.program().find("Link")->Fields.size(), 3u);
  // The recorded program is the basis of the *next* UPT diff.
  UpdateSpec S = Upt::computeSpec(TheVM.program(), chainVersion(true));
  EXPECT_TRUE(S.empty());
}

TEST(DsuEdge, SchedulingSecondUpdateWhilePendingAborts) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(chainVersion(false));
  // A spinning thread keeps the first update pending.
  ClassSet WithLoop = chainVersion(false);
  {
    ClassBuilder CB("Spin");
    CB.staticMethod("run", "()V")
        .label("top")
        .iconst(50)
        .intrinsic(IntrinsicId::SleepTicks)
        .jump("top");
    WithLoop.add(CB.build());
  }
  // Reload on a fresh VM with the loop class present.
  VM TheVM2(smallConfig());
  TheVM2.loadProgram(WithLoop);
  TheVM2.spawnThread("Spin", "run", "()V", {}, "spin", true);
  TheVM2.run(20);

  ClassSet Next = WithLoop;
  Next.find("Spin")->findMethod("run", "()V")->Code.push_back(
      {Opcode::Nop, 0, "", "", ""});
  Updater U(TheVM2);
  UpdateOptions Opts;
  Opts.TimeoutTicks = 1'000'000;
  U.schedule(Upt::prepare(WithLoop, Next, "v1"), Opts);
  EXPECT_TRUE(U.pending());
  EXPECT_DEATH(U.schedule(Upt::prepare(WithLoop, Next, "v2"), Opts),
               "already pending");
}

TEST(DsuEdge, MethodDeletionRestrictsOnStackFrames) {
  // A thread inside a method that the update deletes (its class shrinks):
  // the frame is restricted; since the loop never returns, timeout.
  ClassSet V1;
  {
    ClassBuilder CB("W");
    CB.field("pad", "I");
    MethodBuilder &Run = CB.staticMethod("spinOld", "()V");
    Run.label("top")
        .iconst(30)
        .intrinsic(IntrinsicId::SleepTicks)
        .jump("top");
    CB.staticMethod("other", "()I").iconst(0).iret();
    V1.add(CB.build());
  }
  ClassSet V2;
  {
    ClassBuilder CB("W");
    CB.field("pad", "I");
    CB.field("pad2", "I"); // class update
    CB.staticMethod("other", "()I").iconst(0).iret(); // spinOld deleted
    V2.add(CB.build());
  }
  VM TheVM(smallConfig());
  TheVM.loadProgram(V1);
  TheVM.spawnThread("W", "spinOld", "()V", {}, "w", true);
  TheVM.run(50);

  Updater U(TheVM);
  UpdateOptions Opts;
  Opts.TimeoutTicks = 20'000;
  UpdateResult R = U.applyNow(Upt::prepare(V1, V2, "v1"), Opts);
  EXPECT_EQ(R.Status, UpdateStatus::TimedOut);
}

TEST_EAGER_AND_LAZY(DsuEdge, IndirectionModeComputesIdenticalResults) {
  // The ablation mode must be semantically transparent.
  for (bool Indirection : {false, true}) {
    VM::Config C = smallConfig();
    C.IndirectionMode = Indirection;
    VM TheVM(C);
    TheVM.loadProgram(chainVersion(false));
    buildChain(TheVM, 50);
    EXPECT_EQ(chainSum(TheVM), 49 * 50 / 2);
    Updater U(TheVM);
    ASSERT_EQ(
        U.applyNow(Upt::prepare(chainVersion(false), chainVersion(true), "v1"),
                   modeOptions(Lazy))
            .Status,
        UpdateStatus::Applied);
    EXPECT_EQ(chainSum(TheVM), 49 * 50 / 2);
  }
}

TEST_EAGER_AND_LAZY(DsuEdge, UpdateDuringHeavyAllocationPressure) {
  // The DSU collection itself must cope with a heap that is mostly full
  // of garbage when the update is requested.
  VM::Config C = smallConfig();
  C.HeapSpaceBytes = 1u << 20;
  VM TheVM(C);
  TheVM.loadProgram(chainVersion(false));
  buildChain(TheVM, 200);
  // Garbage churn.
  ClassId LinkId = TheVM.registry().idOf("Link");
  for (int I = 0; I < 20'000; ++I)
    ASSERT_NE(TheVM.allocateObject(LinkId), nullptr);

  Updater U(TheVM);
  UpdateResult R = U.applyNow(
      Upt::prepare(chainVersion(false), chainVersion(true), "v1"),
      modeOptions(Lazy));
  ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
  EXPECT_EQ(R.ObjectsTransformed, 200u);
  EXPECT_EQ(chainSum(TheVM), 199 * 200 / 2);
}

TEST_EAGER_AND_LAZY(DsuEdge,
                    RepeatedUpdatesToSameClassKeepDistinctOldVersions) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(chainVersion(false));
  buildChain(TheVM, 5);

  ClassSet V2 = chainVersion(true);
  ClassSet V3 = chainVersion(true);
  V3.find("Link")->Fields.push_back({"third", "I", false, false,
                                     Access::Public});

  Updater U(TheVM);
  ASSERT_EQ(
      U.applyNow(Upt::prepare(chainVersion(false), V2, "v1"), modeOptions(Lazy))
          .Status,
      UpdateStatus::Applied);
  ASSERT_EQ(U.applyNow(Upt::prepare(V2, V3, "v2"), modeOptions(Lazy)).Status,
            UpdateStatus::Applied);

  ClassRegistry &Reg = TheVM.registry();
  EXPECT_NE(Reg.idOf("v1_Link"), InvalidClassId);
  EXPECT_NE(Reg.idOf("v2_Link"), InvalidClassId);
  EXPECT_NE(Reg.idOf("Link"), InvalidClassId);
  EXPECT_EQ(chainSum(TheVM), 10);
}

TEST(DsuEdge, UpdateWithOnlyAddedClassesSkipsCollection) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(chainVersion(false));
  uint64_t CollectionsBefore = TheVM.stats().Collections;

  ClassSet V2 = chainVersion(false);
  ClassBuilder Fresh("Fresh");
  Fresh.staticMethod("hi", "()I").iconst(1).iret();
  V2.add(Fresh.build());

  Updater U(TheVM);
  UpdateResult R = U.applyNow(Upt::prepare(chainVersion(false), V2, "v1"));
  ASSERT_EQ(R.Status, UpdateStatus::Applied);
  // No class updates -> no instances to find -> no whole-heap collection.
  EXPECT_EQ(TheVM.stats().Collections, CollectionsBefore);
  EXPECT_EQ(TheVM.callStatic("Fresh", "hi", "()I").IntVal, 1);
}
