//===----------------------------------------------------------------------===//
///
/// \file
/// VM facade behaviors: callStatic semantics, run budgets, string
/// interning, and the "multiple stack frames on the same stack" OSR case
/// the paper's §3.2 extension of Jikes RVM's OSR machinery enables.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "dsu/Updater.h"
#include "dsu/Upt.h"

#include <gtest/gtest.h>

using namespace jvolve;
using namespace jvolve::test;

TEST(VmBehavior, CallStaticVoidReturnsZeroSlot) {
  ClassSet Set;
  ClassBuilder CB("M");
  CB.staticMethod("noop", "()V").ret();
  Set.add(CB.build());
  VM TheVM(smallConfig());
  TheVM.loadProgram(Set);
  Slot S = TheVM.callStatic("M", "noop", "()V");
  EXPECT_EQ(S.IntVal, 0);
  EXPECT_FALSE(S.IsRef);
}

TEST(VmBehavior, CallStaticReturnsRefs) {
  ClassSet Set;
  ClassBuilder CB("M");
  CB.staticMethod("hello", "()LString;").sconst("hi").aret();
  Set.add(CB.build());
  VM TheVM(smallConfig());
  TheVM.loadProgram(Set);
  Slot S = TheVM.callStatic("M", "hello", "()LString;");
  ASSERT_TRUE(S.IsRef);
  EXPECT_EQ(TheVM.stringValue(S.RefVal), "hi");
}

TEST(VmBehavior, RunToCompletionStopsWhenAppThreadsFinish) {
  ClassSet Set;
  ClassBuilder CB("M");
  CB.staticMethod("work", "()V")
      .iconst(500)
      .intrinsic(IntrinsicId::SleepTicks)
      .ret();
  Set.add(CB.build());
  VM TheVM(smallConfig());
  TheVM.loadProgram(Set);
  ThreadId Id = TheVM.spawnThread("M", "work", "()V", {}, "app", false);
  TheVM.runToCompletion();
  EXPECT_EQ(TheVM.scheduler().findThread(Id)->State, ThreadState::Finished);
  EXPECT_FALSE(TheVM.scheduler().hasLiveApplicationThreads());
}

TEST(VmBehavior, StringLiteralsInterned) {
  ClassSet Set;
  ClassBuilder CB("M");
  CB.staticMethod("a", "()LString;").sconst("shared literal").aret();
  CB.staticMethod("b", "()LString;").sconst("shared literal").aret();
  Set.add(CB.build());
  VM TheVM(smallConfig());
  TheVM.loadProgram(Set);
  size_t Before = TheVM.strings().size();
  Ref A = TheVM.callStatic("M", "a", "()LString;").RefVal;
  (void)A;
  TheVM.callStatic("M", "b", "()LString;");
  // Both literals share one table entry (interned at compile time).
  EXPECT_EQ(TheVM.strings().size(), Before + 1);
}

TEST_EAGER_AND_LAZY(VmBehavior, MultipleFramesOnOneStackAllOsr) {
  // run() -> helper(), both category (2) (reading Data fields), parked
  // inside helper(): both frames must be on-stack replaced — the paper's
  // extension of Jikes RVM OSR to "multiple stack frames on the same
  // stack".
  auto Version = [](bool Extra) {
    ClassSet Set;
    ClassBuilder D("Data");
    D.field("a", "I");
    if (Extra)
      D.field("b", "I");
    Set.add(D.build());
    ClassBuilder St("Store");
    St.staticField("data", "LData;");
    St.staticField("sum", "I");
    St.staticMethod("init", "()V")
        .locals(1)
        .newobj("Data")
        .store(0)
        .load(0)
        .iconst(4)
        .putfield("Data", "a", "I")
        .load(0)
        .putstatic("Store", "data", "LData;")
        .ret();
    Set.add(St.build());
    ClassBuilder W("Worker");
    // helper: reads Data.a, then sleeps (parks *inside* helper).
    W.staticMethod("helper", "()I")
        .getstatic("Store", "data", "LData;")
        .getfield("Data", "a", "I")
        .iconst(30)
        .intrinsic(IntrinsicId::SleepTicks)
        .iret();
    // run: loops calling helper; also reads Data itself.
    W.staticMethod("run", "()V")
        .label("top")
        .getstatic("Store", "sum", "I")
        .invokestatic("Worker", "helper", "()I")
        .iadd()
        .getstatic("Store", "data", "LData;")
        .getfield("Data", "a", "I")
        .iadd()
        .putstatic("Store", "sum", "I")
        .jump("top");
    Set.add(W.build());
    return Set;
  };

  VM TheVM(smallConfig());
  TheVM.loadProgram(Version(false));
  TheVM.callStatic("Store", "init", "()V");
  TheVM.spawnThread("Worker", "run", "()V", {}, "worker", true);
  // Park the thread while it sleeps inside helper().
  TheVM.run(40);
  VMThread *T = TheVM.scheduler().threads().front().get();
  for (auto &Thread : TheVM.scheduler().threads())
    if (Thread->Name == "worker")
      T = Thread.get();
  ASSERT_EQ(T->Frames.size(), 2u); // run + helper

  Updater U(TheVM);
  UpdateResult R = U.applyNow(
      Upt::prepare(Version(false), Version(true), "v1"), modeOptions(Lazy));
  ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
  EXPECT_EQ(R.OsrReplacements, 2);

  // The thread keeps accumulating correctly with the new offsets.
  int64_t Before = TheVM.registry()
                       .cls(TheVM.registry().idOf("Store"))
                       .Statics[1]
                       .IntVal;
  TheVM.run(1'000);
  int64_t After = TheVM.registry()
                      .cls(TheVM.registry().idOf("Store"))
                      .Statics[1]
                      .IntVal;
  EXPECT_GT(After, Before);
  EXPECT_EQ((After - Before) % 8, 0); // each iteration adds 4 + 4
}

TEST(VmBehavior, UpdateWhileThreadBlockedInAccept) {
  // Blocked threads are at safe points by construction; an update applies
  // without waking them, and they resume against the new world.
  auto Version = [](int64_t Bonus) {
    ClassSet Set;
    ClassBuilder S("Srv");
    S.staticMethod("serve", "(I)V")
        .locals(3)
        .label("top")
        .load(0)
        .intrinsic(IntrinsicId::NetAccept)
        .store(1)
        .load(1)
        .intrinsic(IntrinsicId::NetRecv)
        .store(2)
        .load(2)
        .iconst(0)
        .branch(Opcode::IfICmpLt, "top")
        .load(1)
        .load(2)
        .iconst(Bonus)
        .iadd()
        .intrinsic(IntrinsicId::NetSend)
        .jump("top");
    Set.add(S.build());
    return Set;
  };

  VM TheVM(smallConfig());
  TheVM.loadProgram(Version(1));
  TheVM.spawnThread("Srv", "serve", "(I)V", {Slot::ofInt(7)}, "srv", true);
  TheVM.run(1'000); // blocks in accept

  // serve() itself changes, but the thread is parked at the accept
  // intrinsic... which keeps serve() on stack: restricted. Use an active
  // mapping (the bodies differ only in one constant, so identity works).
  UpdateBundle B = Upt::prepare(Version(1), Version(1000), "v1");
  B.addActiveMapping(ActiveMethodMapping::identity(
      {"Srv", "serve", "(I)V"},
      Version(1000).find("Srv")->findMethod("serve")->Code.size()));
  Updater U(TheVM);
  UpdateResult R = U.applyNow(std::move(B));
  ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
  EXPECT_EQ(R.ActiveFramesRemapped, 1);

  TheVM.injectConnection(7, {5});
  TheVM.run(10'000);
  std::vector<NetResponse> Rs = TheVM.net().drainResponses();
  ASSERT_EQ(Rs.size(), 1u);
  EXPECT_EQ(Rs[0].Value, 1005);
}

TEST(VmBehavior, TickBudgetRespected) {
  ClassSet Set;
  ClassBuilder CB("Spin");
  CB.staticMethod("run", "()V").label("t").jump("t");
  Set.add(CB.build());
  VM TheVM(smallConfig());
  TheVM.loadProgram(Set);
  TheVM.spawnThread("Spin", "run", "()V", {}, "s", true);
  VM::RunResult R = TheVM.run(12'345);
  EXPECT_EQ(R.TicksExecuted, 12'345u);
  EXPECT_FALSE(R.Idle);
}

TEST(VmBehavior, InstructionsCounted) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(intProgram([](MethodBuilder &M) {
    M.iconst(1).iconst(2).iadd().iret();
  }));
  uint64_t Before = TheVM.stats().InstructionsExecuted;
  TheVM.callStatic("Main", "run", "()I");
  EXPECT_EQ(TheVM.stats().InstructionsExecuted - Before, 4u);
}
